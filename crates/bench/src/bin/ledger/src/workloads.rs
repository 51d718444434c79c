//! The five simulator workloads: each builds its inputs from the seed,
//! hands the simulator only those inputs, and verifies its own result.
//!
//! Every workload exists at two sizes: `Full` is the fixed op count that
//! `wall_s` is defined at, `Warm` is the 1/20-size untimed warm-up (and the
//! `--smoke` size).

use std::sync::Arc;

use graphite::{Ctx, GuestEntry, Sim, SimConfig, SimReport, SyncModel};
use graphite_base::{SimError, SimRng, TileId};
use graphite_workloads::{BlackScholes, Ocean, Radix, TraceOp, TraceProgram, Workload};

/// Which of a workload's two fixed sizes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size `wall_s` is defined at: ≈1 s per repetition on the 2-core
    /// reference host, so a dozen repetitions fit into a run and their median
    /// shrugs off the host's per-repetition noise.
    Full,
    /// ≈1/20 of `Full` (one sweep on `ocean_barrier`): the untimed warm-up
    /// and the `--smoke` size.
    Warm,
}

/// The guest `main` of one repetition.
pub type Program = Box<dyn FnOnce(&mut Ctx)>;

/// One simulator workload: the target it runs on and how to make its guest
/// program from a seed.
pub struct SimCase {
    pub name: &'static str,
    pub tiles: u32,
    pub processes: u32,
    pub sync: SyncModel,
    pub tcp: bool,
    /// Counts that repeat exactly run to run on this workload and are
    /// therefore checked for equality across repetitions (and against the
    /// frozen values on the default seed). `sim_cycles` is in this set only
    /// where it is a pure function of the program.
    pub cycles_repeat: bool,
    program: fn(u64, Scale) -> Program,
}

impl SimCase {
    /// Generates the inputs for `seed` at `scale` and returns the guest
    /// program that consumes them.
    pub fn program(&self, seed: u64, scale: Scale) -> Program {
        (self.program)(seed, scale)
    }

    /// Builds a fresh simulator for one repetition (the target is the same
    /// at every scale).
    pub fn build(&self, seed: u64, hostprof: bool) -> Result<Sim, SimError> {
        let cfg = SimConfig::builder()
            .tiles(self.tiles)
            .processes(self.processes)
            .sync(self.sync)
            .seed(seed)
            .hostprof(hostprof)
            .build()?;
        Sim::builder(cfg).tcp_transport(self.tcp).build()
    }
}

/// `ocean_barrier` under plain `Lax`: the denominator of
/// `sync.barrier_share`. Not a benchmark workload of its own.
pub fn ocean_lax() -> SimCase {
    SimCase { name: "ocean_lax", sync: SyncModel::Lax, ..ocean_barrier() }
}

/// The simulator workloads in `BENCHMARK.json` order.
pub fn sim_cases() -> Vec<SimCase> {
    vec![blackscholes_hit(), rand_miss(), radix_share(), ocean_barrier(), msg_ring_tcp()]
}

/// 99.9 % L1/L2 hits: guest-API dispatch, the core model and the memory hit
/// path do nearly all the work.
fn blackscholes_hit() -> SimCase {
    const TILES: u32 = 16;
    SimCase {
        name: "blackscholes_hit",
        tiles: TILES,
        processes: 1,
        sync: SyncModel::Lax,
        tcp: false,
        cycles_repeat: false,
        program: |seed, scale| {
            let mut w = BlackScholes::small();
            (w.n, w.sweeps) = match scale {
                Scale::Full => (8192, 130),
                Scale::Warm => (8192, 6),
            };
            w.seed = seed;
            Box::new(move |ctx| w.run(ctx, TILES))
        },
    }
}

/// Uniformly random 8-byte accesses over an arena far larger than the L2:
/// ≈95 % of accesses miss through MSHR → evict → directory → network → DRAM.
fn rand_miss() -> SimCase {
    const THREADS: u32 = 4;
    const ARENA: u64 = 64 << 20;
    SimCase {
        name: "rand_miss",
        tiles: THREADS,
        processes: 1,
        sync: SyncModel::Lax,
        tcp: false,
        cycles_repeat: false,
        program: |seed, scale| {
            let ops_per_thread = match scale {
                Scale::Full => 130_000,
                Scale::Warm => 6_500,
            };
            let mut rng = SimRng::new(seed);
            let threads = (0..THREADS)
                .map(|_| {
                    (0..ops_per_thread)
                        .map(|i| {
                            let at = rng.gen_range(ARENA / 8) * 8;
                            if i % 4 == 3 {
                                TraceOp::Store(at)
                            } else {
                                TraceOp::Load(at)
                            }
                        })
                        .collect()
                })
                .collect();
            let t = TraceProgram::new(ARENA, threads);
            Box::new(move |ctx| t.run(ctx, THREADS))
        },
    }
}

/// The same memory layer used the other way: scatter writes with false
/// sharing, so upgrades and invalidation fan-out dominate the misses.
fn radix_share() -> SimCase {
    const TILES: u32 = 8;
    SimCase {
        name: "radix_share",
        tiles: TILES,
        processes: 1,
        sync: SyncModel::Lax,
        tcp: false,
        cycles_repeat: false,
        program: |seed, scale| {
            let n = match scale {
                Scale::Full => 1 << 18,
                Scale::Warm => (1 << 18) / 20,
            };
            let w = Radix { n, digit_bits: 4, seed };
            Box::new(move |ctx| w.run(ctx, TILES))
        },
    }
}

/// 64 tiles over the default worker pool under `LaxBarrier`: most of the
/// wall time is quantum rendezvous plus scheduler park/handoff.
pub fn ocean_barrier() -> SimCase {
    const TILES: u32 = 64;
    SimCase {
        name: "ocean_barrier",
        tiles: TILES,
        processes: 1,
        sync: SyncModel::LaxBarrier { quantum: 1_000 },
        tcp: false,
        cycles_repeat: false,
        program: |seed, scale| {
            let (n, iters) = match scale {
                Scale::Full => (258, 9),
                Scale::Warm => (258, 1),
            };
            let w = Ocean { n, iters, contiguous: true, seed };
            Box::new(move |ctx| w.run(ctx, TILES))
        },
    }
}

/// One token circling 8 tiles in 4 simulated processes over real TCP
/// loopback sockets: transport framing and the user-class network model do
/// the work, the memory system none.
fn msg_ring_tcp() -> SimCase {
    SimCase {
        name: "msg_ring_tcp",
        tiles: RING_TILES,
        processes: 4,
        sync: SyncModel::Lax,
        tcp: true,
        cycles_repeat: true,
        program: |seed, scale| {
            let laps = match scale {
                Scale::Full => 2_800,
                Scale::Warm => 140,
            };
            Box::new(move |ctx| msg_ring(ctx, seed, laps))
        },
    }
}

const RING_TILES: u32 = 8;

/// Passes one 8-byte token `laps` times round the ring; every hop adds the
/// hop's tile id plus a seed-derived increment, and tile 0 asserts the sum.
fn msg_ring(ctx: &mut Ctx, seed: u64, laps: u64) {
    let step = seed % 251 + 1;
    let recv_token = |ctx: &mut Ctx| {
        let (_, bytes) = ctx.recv_msg().expect("ring recv");
        u64::from_le_bytes(bytes.try_into().expect("8-byte token"))
    };
    let entry: GuestEntry = Arc::new(move |ctx, _| {
        let me = ctx.tile().0;
        let next = TileId((me + 1) % RING_TILES);
        for _ in 0..laps {
            let token = recv_token(ctx) + me as u64 + step;
            ctx.send_msg(next, &token.to_le_bytes()).expect("ring send");
        }
    });
    let handles: Vec<_> =
        (1..RING_TILES).map(|_| ctx.spawn(Arc::clone(&entry), 0).expect("ring spawn")).collect();
    let mut token = 0u64;
    for _ in 0..laps {
        ctx.send_msg(TileId(1), &(token + step).to_le_bytes()).expect("ring send");
        token = recv_token(ctx);
    }
    for h in handles {
        h.join(ctx).expect("ring join");
    }
    let ids: u64 = (0..RING_TILES as u64).sum();
    assert_eq!(token, laps * (ids + RING_TILES as u64 * step), "token sum");
}

/// The exact-count outputs a repetition is checked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub accesses: u64,
    pub user_msgs: u64,
    /// `Some` only on workloads whose simulated time is a pure function of
    /// the program (see [`SimCase::cycles_repeat`]).
    pub sim_cycles: Option<u64>,
}

impl Counts {
    pub fn of(case: &SimCase, r: &SimReport) -> Counts {
        Counts {
            accesses: r.mem.accesses(),
            user_msgs: r.user_msgs,
            sim_cycles: case.cycles_repeat.then_some(r.simulated_cycles.0),
        }
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A workload whose kernel "verifies" wrongly: the guest panics.
    pub fn failing_case() -> SimCase {
        SimCase {
            name: "always_fails",
            tiles: 2,
            processes: 1,
            sync: SyncModel::Lax,
            tcp: false,
            cycles_repeat: true,
            program: |_, _| Box::new(|ctx| assert_eq!(ctx.num_tiles(), 0, "numeric result")),
        }
    }

    #[test]
    fn a_seed_reproduces_its_run_exactly() {
        let run = |seed| {
            let case = &sim_cases()[4]; // msg_ring_tcp: even sim_cycles repeat
            let r = case.build(seed, false).unwrap().run(case.program(seed, Scale::Warm));
            Counts::of(case, &r)
        };
        assert_eq!(run(5), run(5));
        assert_eq!(run(5).user_msgs, 1_120);
    }
}
