//! The layer ladder: one rung per layer, each measured from outside by
//! timing calls into that layer's public functions. Never gated — these
//! numbers say *where* an end-to-end metric's time goes, not whether a
//! change is acceptable.

use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use graphite::{GuestEntry, GuestScheduler, Sim, SimConfig, SyncModel};
use graphite_base::{Clock, Cycles, GlobalProgress, TileId};
use graphite_config::presets;
use graphite_core_model::{CoreParams, InOrderCore, Instruction};
use graphite_memory::addr::layout;
use graphite_memory::{Addr, MemorySystem};
use graphite_network::{Network, Packet, TrafficClass};
use graphite_sync::build_synchronizer;
use graphite_trace::Obs;

use crate::serve::{self, MixSize};
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{ocean_barrier, ocean_lax, Scale, SimCase};

/// One measured rung: metric name and value.
pub type Rung = (&'static str, f64);

/// Runs every rung. `div` divides the iteration counts (`1` for the real
/// ladder, `20` for `--smoke`); `work_dir` holds the checkpoint image and the
/// server's data directory while their rungs run.
pub fn run_all(spans: &mut Spans, div: u64, seed: u64, work_dir: &Path) -> Vec<Rung> {
    fn rung(
        out: &mut Vec<Rung>,
        spans: &mut Spans,
        name: &str,
        f: impl FnOnce(&mut Spans) -> Vec<Rung>,
    ) {
        spans.set_run(name);
        let id = spans.begin(name);
        out.extend(f(spans));
        spans.end(id);
    }
    let mut out = Vec::new();
    rung(&mut out, spans, "ladder.core", |s| {
        vec![("core.ctx_op_ns", ctx_op_ns(s, 1_000_000 / div))]
    });
    rung(&mut out, spans, "ladder.core-model", |s| {
        vec![("core-model.issue_ns", issue_ns(s, 4_000_000 / div))]
    });
    rung(&mut out, spans, "ladder.memory", |s| memory_rungs(s, div));
    rung(&mut out, spans, "ladder.network", |s| {
        vec![("network.route_ns", route_ns(s, 2_000_000 / div))]
    });
    rung(&mut out, spans, "ladder.sync", |s| sync_rungs(s, div, seed));
    rung(&mut out, spans, "ladder.sched", |s| sched_rungs(s, div));
    rung(&mut out, spans, "ladder.transport", |s| {
        let trips = 4_000 / div;
        vec![
            ("transport.tcp_rtt_us", msg_rtt_us(s, true, trips)),
            ("transport.local_rtt_us", msg_rtt_us(s, false, trips)),
        ]
    });
    rung(&mut out, spans, "ladder.ckpt", |s| ckpt_rungs(s, (64 << 20) / div, work_dir));
    rung(&mut out, spans, "ladder.serve", |s| serve_rungs(s, seed, work_dir));
    out
}

/// `Ctx::alu/branch/load` on a warmed tile-private set in a 1-tile `Sim`:
/// guest-API dispatch plus core model plus the L1 hit path, per guest op.
fn ctx_op_ns(spans: &mut Spans, rounds: u64) -> f64 {
    let cfg = SimConfig::builder().tiles(1).build().expect("1-tile config");
    let sim = Sim::builder(cfg).build().expect("1-tile sim");
    let mut ns_per_op = f64::NAN;
    spans.in_span("core.ctx.alu+branch+load", || {
        sim.run(|ctx| {
            const WORDS: u64 = 256;
            let base = ctx.malloc(WORDS * 8).expect("guest heap");
            for i in 0..WORDS {
                ctx.store(base.offset(i * 8), i);
            }
            let t0 = Instant::now();
            let mut sum = 0u64;
            for i in 0..rounds {
                ctx.alu(1);
                ctx.branch(i & 7, i & 1 == 0);
                sum = sum.wrapping_add(ctx.load::<u64>(base.offset((i % WORDS) * 8)));
            }
            ns_per_op = t0.elapsed().as_secs_f64() * 1e9 / (3 * rounds) as f64;
            std::hint::black_box(sum);
        });
    });
    ns_per_op
}

/// `InOrderCore::issue` over a fixed instruction mix, no simulator around it.
fn issue_ns(spans: &mut Spans, n: u64) -> f64 {
    let mix = [
        Instruction::IntAlu { count: 4 },
        Instruction::Load { latency: Cycles(3) },
        Instruction::FpMul { count: 2 },
        Instruction::Branch { pc: 0x40, taken: true },
        Instruction::Store { latency: Cycles(3) },
        Instruction::IntAlu { count: 1 },
        Instruction::Branch { pc: 0x80, taken: false },
        Instruction::FpAdd { count: 1 },
    ];
    let mut core = InOrderCore::new(CoreParams::default());
    spans.in_span("core-model.issue", || {
        let mut now = Cycles::ZERO;
        let t0 = Instant::now();
        for i in 0..n {
            now += core.issue(now, std::hint::black_box(&mix[(i % 8) as usize]));
        }
        std::hint::black_box(now);
        t0.elapsed().as_secs_f64() * 1e9 / n as f64
    })
}

/// A stand-alone memory system over `tiles` tiles, as `benches/hotpath.rs`
/// builds it; `small_l2` shrinks the L2 to 256 KiB so a short walk overflows
/// it.
fn build_mem(tiles: u32, small_l2: bool) -> MemorySystem {
    let mut cfg = presets::paper_default(tiles);
    if small_l2 {
        let l2 = cfg.target.l2.as_mut().expect("paper_default has an L2");
        l2.size_bytes = 256 * 1024;
        l2.associativity = 16;
    }
    let net = Arc::new(Network::new(&cfg, Arc::new(GlobalProgress::new(tiles as usize))));
    MemorySystem::new(&cfg, net, false)
}

/// Times `n` accesses by tile 0 (one store per three loads) at `addr_of(i)`;
/// returns ns per access.
fn drive_mem(mem: &MemorySystem, n: u64, addr_of: impl Fn(u64) -> u64) -> f64 {
    let mut buf = [0u8; 8];
    let mut now = Cycles::ZERO;
    let t0 = Instant::now();
    for i in 0..n {
        let (tile, addr) = (TileId(0), Addr(addr_of(i)));
        now += if i % 4 == 3 {
            mem.write(tile, now, addr, &buf)
        } else {
            mem.read(tile, now, addr, &mut buf)
        };
    }
    std::hint::black_box(now);
    t0.elapsed().as_secs_f64() * 1e9 / n as f64
}

fn memory_rungs(spans: &mut Spans, div: u64) -> Vec<Rung> {
    const LINE: u64 = 64;
    // L1 hit: a 2 KiB set, warmed.
    let mem = build_mem(1, false);
    let l1_set = |i: u64| (i * 8) % (32 * LINE);
    drive_mem(&mem, 32 * LINE / 8 * 4, l1_set);
    let l1 = spans.in_span("memory.read/write l1-hit", || drive_mem(&mem, 4_000_000 / div, l1_set));
    // L2 hit: cycle over 64 KiB — twice the 32 KiB L1, so LRU misses it on
    // every access, and far inside the 3 MiB L2.
    let l2_walk = |i: u64| (1 << 24) | ((i % 1024) * LINE);
    drive_mem(&mem, 2048, l2_walk);
    let l2 =
        spans.in_span("memory.read/write l2-hit", || drive_mem(&mem, 2_000_000 / div, l2_walk));
    // Miss: cycle over 1.5× a 256 KiB L2 (4096 lines → walk 6144).
    let mem = build_mem(1, true);
    let miss_walk = |i: u64| (i % 6144) * LINE;
    let miss =
        spans.in_span("memory.read/write miss", || drive_mem(&mem, 200_000 / div, miss_walk));
    // Invalidation: two tiles alternately writing one line.
    let mem = build_mem(2, false);
    let inval = spans.in_span("memory.write ping-pong", || {
        let buf = [1u8; 8];
        let n = 400_000 / div;
        let mut now = Cycles::ZERO;
        let t0 = Instant::now();
        for i in 0..n {
            now += mem.write(TileId((i & 1) as u32), now, Addr(0x4000), &buf);
        }
        std::hint::black_box(now);
        t0.elapsed().as_secs_f64() * 1e9 / n as f64
    });
    vec![
        ("memory.l1_hit_ns", l1),
        ("memory.l2_hit_ns", l2),
        ("memory.miss_ns", miss),
        ("memory.inval_ns", inval),
    ]
}

/// `Network::route` on a 64-tile mesh, memory and user classes alternating.
fn route_ns(spans: &mut Spans, n: u64) -> f64 {
    const TILES: u32 = 64;
    let cfg = presets::paper_default(TILES);
    let net = Network::new(&cfg, Arc::new(GlobalProgress::new(TILES as usize)));
    spans.in_span("network.route", || {
        let mut at = Cycles::ZERO;
        let t0 = Instant::now();
        for i in 0..n {
            let class = if i & 1 == 0 { TrafficClass::Memory } else { TrafficClass::User };
            let p = Packet {
                src: TileId((i % TILES as u64) as u32),
                dst: TileId(((i * 7 + 13) % TILES as u64) as u32),
                size_bytes: 72,
                send_time: at,
            };
            at = Cycles(at.0 + 1).max(Cycles(net.route(class, &p).arrival.0 / 64));
        }
        std::hint::black_box(at);
        t0.elapsed().as_secs_f64() * 1e9 / n as f64
    })
}

/// Two host threads, one tile each, advancing their clocks in lock step and
/// calling `on_progress` after every `step` cycles; returns ns per call.
fn sync_ns(model: SyncModel, step: u64, calls: u64) -> f64 {
    let clocks: Arc<Vec<Arc<Clock>>> = Arc::new((0..2).map(|_| Arc::new(Clock::new())).collect());
    let sync = build_synchronizer(model, Arc::clone(&clocks), 1);
    let gate = Barrier::new(2);
    let worker = |tile: u32| {
        let tile = TileId(tile);
        sync.activate(tile);
        gate.wait();
        let t0 = Instant::now();
        for _ in 0..calls {
            clocks[tile.index()].advance(Cycles(step));
            sync.on_progress(tile);
        }
        let ns = t0.elapsed().as_secs_f64() * 1e9 / calls as f64;
        sync.deactivate(tile);
        ns
    };
    std::thread::scope(|s| {
        let other = s.spawn(|| worker(1));
        (worker(0) + other.join().expect("sync rung thread")) / 2.0
    })
}

fn sync_rungs(spans: &mut Spans, div: u64, seed: u64) -> Vec<Rung> {
    let barrier = spans.in_span("sync.on_progress barrier", || {
        sync_ns(SyncModel::LaxBarrier { quantum: 1_000 }, 1_000, 200_000 / div)
    });
    // Slack no clock can exceed: every call pays the partner check, none
    // sleeps, so wall-clock sleep lengths stay out of the number.
    let p2p = spans.in_span("sync.on_progress p2p", || {
        sync_ns(
            SyncModel::LaxP2P { slack: u64::MAX / 2, check_interval: 100 },
            100,
            2_000_000 / div,
        )
    });
    // The benchmark's ocean kernel under Lax and under LaxBarrier, at the
    // benchmark's size (the 1/20 size when smoking), median of three runs
    // each: the share of the barriered wall that is synchronization — quantum
    // rendezvous plus the scheduler work it causes.
    let scale = if div == 1 { Scale::Full } else { Scale::Warm };
    let mut ocean_wall = |case: SimCase| {
        let walls: Vec<f64> = (0..3)
            .map(|_| {
                let program = case.program(seed, scale);
                let sim = case.build(seed, false).expect("ocean sim");
                spans.in_span(&format!("sync.{}", case.name), || {
                    let t0 = Instant::now();
                    sim.run(program);
                    t0.elapsed().as_secs_f64()
                })
            })
            .collect();
        median(&walls)
    };
    let lax = ocean_wall(ocean_lax());
    let barriered = ocean_wall(ocean_barrier());
    vec![
        ("sync.barrier_quantum_ns", barrier),
        ("sync.p2p_check_ns", p2p),
        ("sync.barrier_share", 1.0 - lax / barriered),
    ]
}

fn sched_rungs(spans: &mut Spans, div: u64) -> Vec<Rung> {
    // 8 contexts contending for 2 slots: every detach hands its slot to a
    // queued context.
    const CONTEXTS: u32 = 8;
    let rounds = 50_000 / div;
    let sched = GuestScheduler::new(2, CONTEXTS, &Obs::detached(CONTEXTS as usize));
    let handoff = spans.in_span("sched.attach/detach", || {
        let gate = Barrier::new(CONTEXTS as usize);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in 0..CONTEXTS {
                let (sched, gate) = (&sched, &gate);
                s.spawn(move || {
                    gate.wait();
                    for _ in 0..rounds {
                        sched.attach(TileId(t));
                        sched.detach(TileId(t));
                    }
                });
            }
        });
        t0.elapsed().as_secs_f64() * 1e9 / (CONTEXTS as u64 * rounds) as f64
    });
    // The gated spawn/compute/join burst of `benches/scale.rs` at 256 tiles
    // under LaxBarrier. Excluded from the end-to-end rows: 0.09–1.42 s at
    // bit-identical sim_cycles on the reference host.
    let burst = spans.in_span("sched.gated_burst", || gated_burst_s(256, (25 / div).max(2) as u32));
    vec![("sched.handoff_ns", handoff), ("sched.gated_burst_s", burst)]
}

fn gated_burst_s(tiles: u32, rounds: u32) -> f64 {
    let cfg = SimConfig::builder()
        .tiles(tiles)
        .sync(SyncModel::LaxBarrier { quantum: 1_000 })
        .build()
        .expect("burst config");
    let sim = Sim::builder(cfg).build().expect("burst sim");
    let t0 = Instant::now();
    sim.run(move |ctx| {
        let entry: GuestEntry = Arc::new(move |ctx, arg| {
            let _ = ctx.recv_msg().expect("go gate");
            for _ in 0..rounds {
                ctx.alu(2_000 + (arg % 13) as u32 * 31);
            }
            ctx.set_exit_value(arg);
        });
        let handles: Vec<_> = (1..tiles as u64)
            .map(|i| ctx.spawn(Arc::clone(&entry), i).expect("burst spawn"))
            .collect();
        for i in 1..tiles {
            ctx.send_msg(TileId(i), b"go").expect("go");
        }
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join(ctx).expect("burst join"), i as u64 + 1);
        }
    });
    t0.elapsed().as_secs_f64()
}

/// 2-tile ping-pong through `send_msg`/`recv_msg`, the tiles in different
/// simulated processes; µs per round trip.
fn msg_rtt_us(spans: &mut Spans, tcp: bool, trips: u64) -> f64 {
    let cfg = SimConfig::builder().tiles(2).processes(2).build().expect("ping-pong config");
    let sim = Sim::builder(cfg).tcp_transport(tcp).build().expect("ping-pong sim");
    let name = if tcp { "transport.tcp ping-pong" } else { "transport.local ping-pong" };
    let mut us = f64::NAN;
    spans.in_span(name, || {
        sim.run(|ctx| {
            let echo: GuestEntry = Arc::new(move |ctx, _| {
                for _ in 0..trips {
                    let (from, bytes) = ctx.recv_msg().expect("echo recv");
                    ctx.send_msg(from, &bytes).expect("echo send");
                }
            });
            let peer = ctx.spawn(echo, 0).expect("echo spawn");
            let t0 = Instant::now();
            for i in 0..trips {
                ctx.send_msg(TileId(1), &i.to_le_bytes()).expect("ping");
                let (_, bytes) = ctx.recv_msg().expect("pong");
                assert_eq!(bytes, i.to_le_bytes());
            }
            us = t0.elapsed().as_secs_f64() * 1e6 / trips as f64;
            peer.join(ctx).expect("echo join");
        });
    });
    us
}

/// `ctx.checkpoint` of a populated image, then `resume` of it; MB/s of
/// checkpoint file each way.
fn ckpt_rungs(spans: &mut Spans, image_bytes: u64, work_dir: &Path) -> Vec<Rung> {
    let path = work_dir.join(format!("ladder-{}.ckpt", std::process::id()));
    let cfg = || SimConfig::builder().tiles(1).build().expect("ckpt config");
    let mut save_s = f64::NAN;
    Sim::builder(cfg()).build().expect("ckpt sim").run(|ctx| {
        let page: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
        for off in (0..image_bytes).step_by(page.len()) {
            ctx.poke_bytes(layout::HEAP_BASE.offset(off), &page);
        }
        save_s = spans.in_span("ckpt.checkpoint", || {
            let t0 = Instant::now();
            ctx.checkpoint(&path).expect("checkpoint");
            t0.elapsed().as_secs_f64()
        });
    });
    let file_mb = std::fs::metadata(&path).map_or(f64::NAN, |m| m.len() as f64 / 1e6);
    let restore_s = spans.in_span("ckpt.resume", || {
        let t0 = Instant::now();
        let sim = Sim::builder(cfg()).resume(&path).build().expect("resume");
        let s = t0.elapsed().as_secs_f64();
        sim.run(|ctx| {
            let mut probe = [0u8; 2];
            ctx.peek_bytes(layout::HEAP_BASE.offset(4096), &mut probe);
            assert_eq!(probe, [7, 38], "restored image");
        });
        s
    });
    let _ = std::fs::remove_file(&path);
    vec![("ckpt.save_mbps", file_mb / save_s), ("ckpt.restore_mbps", file_mb / restore_s)]
}

/// The service's own costs from a 1/20-size mix: client-timed submits, and
/// park/resume/queue costs read back from `GET /stats`.
fn serve_rungs(spans: &mut Spans, seed: u64, work_dir: &Path) -> Vec<Rung> {
    let names = [
        "serve.submit_ms",
        "serve.submit_keepalive_ms",
        "serve.park_ms",
        "serve.resume_ms",
        "serve.ckpt_bytes",
        "serve.queue_wait_ms",
    ];
    let measured = (|| -> Result<Vec<f64>, String> {
        let bin = serve::build_server_binary()?;
        let dir = work_dir.join(format!("ladder-serve-{}", std::process::id()));
        let server = serve::Server::boot(&bin, &dir, false)?;
        let keepalive = spans.in_span("serve.POST /jobs keep-alive", || {
            let mut conn = serve::Conn::open(server.addr).map_err(|e| e.to_string())?;
            let body = r#"{"tenant":"probe","workload":"spin","iters":100,"work":10}"#;
            let times: Result<Vec<f64>, String> = (0..8)
                .map(|_| {
                    let t0 = Instant::now();
                    match conn.request("POST", "/jobs", body, false) {
                        Ok((202, _)) => Ok(t0.elapsed().as_secs_f64() * 1e3),
                        other => Err(format!("keep-alive submit: {other:?}")),
                    }
                })
                .collect();
            times.map(|t| median(&t))
        })?;
        let mix = spans.in_span("serve.mix 1/20", || serve::run_mix(server, MixSize::WARM, seed));
        if mix.failed > 0 {
            return Err(format!(
                "{} of {} ops failed: {:?}",
                mix.failed, mix.attempted, mix.errors
            ));
        }
        let stats = mix.stats.ok_or("no /stats")?;
        let stat = |path: &[&str]| serve::stat(&stats, path).unwrap_or(f64::NAN);
        let parks = stat(&["preempt_cost", "parks"]);
        let resumes = stat(&["preempt_cost", "resumes"]);
        Ok(vec![
            median(&mix.submit_ms),
            keepalive,
            stat(&["preempt_cost", "serialize_ms_total"]) / parks,
            stat(&["preempt_cost", "restore_ms_total"]) / resumes,
            stat(&["preempt_cost", "ckpt_bytes_total"]) / parks,
            stat(&["latency", "queue_wait", "mean_ms"]),
        ])
    })();
    match measured {
        Ok(values) => names.into_iter().zip(values).collect(),
        Err(e) => {
            println!("ladder.serve: FAILED: {e}");
            names.into_iter().map(|n| (n, f64::NAN)).collect()
        }
    }
}
