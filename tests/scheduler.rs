//! M:N guest-scheduler integration: multiplexing tile contexts over a small
//! worker pool must be invisible in simulated time. `workers >= tiles` is
//! exact thread-per-tile execution (no context ever queues), so every
//! scheduled run is compared against that baseline.

use std::path::PathBuf;
use std::sync::Arc;

use graphite::{GuestEntry, Sim, SimConfig, SimReport, SyncModel};
use graphite_base::TileId;
use graphite_memory::Addr;
use graphite_workloads::{fork_join, Ocean, Workload};

const TILES: u32 = 256;

/// A deterministic 256-thread workload. Children are gated on a "go"
/// message so none exits (and frees its tile) before every spawn has been
/// placed — thread `i` therefore always lands on tile `i`, whatever host
/// interleaving the scheduler picks. The compute is disjoint ALU (no shared
/// DRAM queues, no futexes — the only host-order-dependent latencies), so
/// simulated time is a pure function of the program.
fn spawn_compute_run(sync: SyncModel, workers: u32) -> SimReport {
    let cfg = SimConfig::builder().tiles(TILES).processes(4).sync(sync).build().unwrap();
    Sim::builder(cfg).workers(workers).build().unwrap().run(|ctx| {
        let entry: GuestEntry = Arc::new(|ctx, arg| {
            let _ = ctx.recv_msg().unwrap(); // the go gate (main is the only sender)
            ctx.alu(500 + (arg as u32 % 97) * 13);
            ctx.send_msg(TileId(0), &arg.to_le_bytes()).unwrap();
            ctx.set_exit_value(arg * 3);
        });
        let handles: Vec<_> =
            (1..TILES as u64).map(|i| ctx.spawn(Arc::clone(&entry), i).unwrap()).collect();
        for i in 1..TILES {
            ctx.send_msg(TileId(i), b"go").unwrap();
        }
        for (i, h) in handles.into_iter().enumerate() {
            let i = i as u64 + 1;
            // Filtered receive: the accepted order is fixed regardless of
            // arrival order, keeping the main tile's clock deterministic.
            let data = ctx.recv_msg_from(TileId(i as u32)).unwrap();
            assert_eq!(u64::from_le_bytes(data.try_into().unwrap()), i);
            assert_eq!(h.join(ctx).unwrap(), i * 3);
        }
    })
}

/// Scheduled runs (2 workers for 256 contexts) report exactly the simulated
/// cycles of the thread-per-tile baseline, under all three sync models.
#[test]
fn multiplexed_sim_cycles_match_thread_per_tile_baseline() {
    for sync in [
        SyncModel::Lax,
        SyncModel::LaxBarrier { quantum: 1_000 },
        SyncModel::LaxP2P { slack: 100_000, check_interval: 10_000 },
    ] {
        let baseline = spawn_compute_run(sync, TILES);
        let scheduled = spawn_compute_run(sync, 2);
        assert_eq!(
            baseline.simulated_cycles, scheduled.simulated_cycles,
            "{sync:?}: 2-worker run diverged from thread-per-tile"
        );
        assert_eq!(
            baseline.per_tile_cycles, scheduled.per_tile_cycles,
            "{sync:?}: per-tile clocks diverged"
        );
        assert_eq!(baseline.total_instructions, scheduled.total_instructions, "{sync:?}");
        // The baseline never queues a context, and in the 2-worker run every
        // blocking point (each child's gate + the main tile's receives and
        // joins) must release its slot and carrier: two slots never need
        // more than three carriers.
        assert_eq!(baseline.sched.parks, 0, "{sync:?}: full-width pool queued");
        assert!(
            scheduled.sched.threads_spawned <= 3,
            "{sync:?}: {} carriers for 2 slots: a gate, receive or join held its carrier",
            scheduled.sched.threads_spawned
        );
    }
}

/// CPI stacks stay exact under multiplexing: with the default (auto) worker
/// pool, every tile's cycle classes still sum to exactly its final clock.
#[test]
fn cpi_stacks_sum_to_tile_clocks_under_multiplexing() {
    let cfg = SimConfig::builder().tiles(TILES).processes(4).build().unwrap();
    let r = Sim::builder(cfg).build().unwrap().run(|ctx| {
        let base = ctx.malloc(TILES as u64 * 256).unwrap();
        fork_join(ctx, TILES, move |ctx, who| {
            let mine = Addr(base.0 + who as u64 * 256);
            for i in 0..16u64 {
                ctx.store(mine.offset(i % 4 * 8), i);
                let _ = ctx.load::<u64>(mine.offset(i % 4 * 8));
            }
            ctx.alu(100 + who % 17);
        });
    });
    let stacks = r.cpi_stacks();
    assert!(!stacks.is_empty(), "CPI attribution must be on by default");
    for (tile, clock) in r.per_tile_cycles.iter().enumerate() {
        let sum: u64 = stacks.iter().map(|(_, lanes)| lanes[tile]).sum();
        assert_eq!(sum, clock.0, "tile {tile}: CPI classes must sum to its clock");
    }
}

/// Checkpoint/restore equivalence holds when the run multiplexes: a 2-worker
/// run that checkpoints after a spawn/join burst and resumes reports
/// byte-identical metrics to an uninterrupted 2-worker run.
#[test]
fn checkpoint_restore_equivalence_under_multiplexing() {
    let dir = std::env::temp_dir().join("graphite-sched-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join("sched-eq.ckpt");

    // One gated spawn/join burst (see `spawn_compute_run` for why the gate
    // makes tile assignment — and with it every per-tile metric —
    // deterministic).
    fn phase(ctx: &mut graphite::Ctx, round: u64) {
        let entry: GuestEntry = Arc::new(move |ctx, arg| {
            let _ = ctx.recv_msg().unwrap();
            ctx.alu(300 + (arg as u32 % 11) * 7);
            ctx.set_exit_value(arg + round);
        });
        let handles: Vec<_> =
            (1..8u64).map(|i| ctx.spawn(Arc::clone(&entry), i).unwrap()).collect();
        for t in 1..8u32 {
            ctx.send_msg(TileId(t), b"go").unwrap();
        }
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join(ctx).unwrap(), i as u64 + 1 + round);
        }
    }

    let cfg = || SimConfig::builder().tiles(8).processes(2).seed(21).build().unwrap();

    let golden = Sim::builder(cfg()).workers(2).build().unwrap().run(|ctx| {
        phase(ctx, 0);
        phase(ctx, 1);
    });

    let p = path.clone();
    Sim::builder(cfg()).workers(2).build().unwrap().run(move |ctx| {
        phase(ctx, 0);
        ctx.checkpoint(&p).expect("joined spawn burst is a quiesce point");
    });
    let resumed = Sim::builder(cfg()).workers(2).resume(&path).build().unwrap().run(|ctx| {
        phase(ctx, 1);
    });

    assert_eq!(golden.simulated_cycles, resumed.simulated_cycles, "clock diverged");
    // `sched.*` counters measure *host* scheduling (which contexts happened
    // to contend for a slot), so like wall-clock time they are legitimately
    // execution-dependent; every simulated-time metric must be byte-identical.
    let strip_sched = |json: &str| -> String {
        json.lines()
            .filter(|l| !l.trim_start().starts_with("\"sched."))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip_sched(&golden.metrics_json()),
        strip_sched(&resumed.metrics_json()),
        "metrics diverged after restore"
    );
}

/// The `[scheduler]` config section and the builder override compose: the
/// builder wins over config, and the report's scheduler counters reflect
/// the pool that actually ran.
#[test]
fn worker_pool_selection_and_counters() {
    let run = |cfg_workers: u32, builder_workers: Option<u32>| {
        let cfg = SimConfig::builder().tiles(16).workers(cfg_workers).build().unwrap();
        let mut b = Sim::builder(cfg);
        if let Some(w) = builder_workers {
            b = b.workers(w);
        }
        b.build().unwrap().run(|ctx| {
            let entry: GuestEntry = Arc::new(|ctx, arg| {
                ctx.alu(200 + arg as u32);
                ctx.set_exit_value(arg);
            });
            let handles: Vec<_> =
                (1..16u64).map(|i| ctx.spawn(Arc::clone(&entry), i).unwrap()).collect();
            // Hold this tile's slot in wall-clock time so every child's
            // initial attach lands while it is taken: with a single
            // config-selected slot, all of them must queue.
            std::thread::sleep(std::time::Duration::from_millis(50));
            for (i, h) in handles.into_iter().enumerate() {
                assert_eq!(h.join(ctx).unwrap(), i as u64 + 1);
            }
        })
    };

    // Config-selected single slot: every child queues behind the sleeper.
    let narrow = run(1, None);
    assert!(narrow.sched.parks > 0, "16 contexts over 1 config-selected slot must queue");
    assert!(narrow.sched.handoffs > 0, "released slots must hand off to queued contexts");
    assert!(
        narrow.sched.runq_depth >= narrow.sched.parks,
        "every park observes a queue depth of at least itself"
    );
    // A queued context holds no host thread, and a finished context's
    // carrier runs the next one: one slot never needs more than two carriers.
    assert!(
        narrow.sched.threads_peak <= 2,
        "{} carriers for 1 slot: run-to-completion contexts held host threads",
        narrow.sched.threads_peak
    );

    // Builder override back to full width: thread-per-tile, no queueing.
    let wide = run(1, Some(16));
    assert_eq!(wide.sched.parks, 0, "builder .workers(16) must override [scheduler] workers=1");
    assert_eq!(narrow.simulated_cycles, wide.simulated_cycles, "pool width leaked into sim time");
}

/// How the context `a_woken_context_holds_the_next_quantum_at_one_worker`
/// wakes its main thread.
#[derive(Clone, Copy, Debug)]
enum Wake {
    /// A child wakes main's futex wait.
    Futex,
    /// The child main joins exits, after spawning a grandchild.
    Exit,
    /// A child's message ends main's receive.
    Delivery,
}

/// One quantum of ALU work per call, 20 quanta.
fn twenty_quanta(ctx: &mut graphite::Ctx) {
    for _ in 0..20 {
        ctx.alu(1_000);
    }
}

/// Under LaxBarrier, a context woken from a guest wait counts toward the
/// quantum from its wake, not from its first resume. On one worker, main
/// waits; another context wakes it and then computes across 20 quanta on
/// the only slot. That context must park at the next boundary for main,
/// which is active and behind, instead of running on alone. Nothing else
/// in these runs waits at a boundary: main is inactive while the children
/// start.
#[test]
fn a_woken_context_holds_the_next_quantum_at_one_worker() {
    for wake in [Wake::Futex, Wake::Exit, Wake::Delivery] {
        let cfg = SimConfig::builder()
            .tiles(3)
            .processes(1)
            .sync(SyncModel::LaxBarrier { quantum: 1_000 })
            .build()
            .unwrap();
        let r = Sim::builder(cfg).workers(1).build().unwrap().run(move |ctx| match wake {
            Wake::Futex => {
                let word = ctx.malloc(8).unwrap();
                ctx.store(word, 0u32);
                let waker: GuestEntry = Arc::new(move |ctx, _| {
                    assert_eq!(ctx.futex_wake(word, 1), 1, "main waits on the word");
                    twenty_quanta(ctx);
                });
                let child = ctx.spawn(waker, 0).unwrap();
                ctx.futex_wait(word, 0);
                child.join(ctx).unwrap();
            }
            Wake::Delivery => {
                let sender: GuestEntry = Arc::new(|ctx, _| {
                    ctx.send_msg(TileId(0), b"wake").unwrap();
                    twenty_quanta(ctx);
                });
                let child = ctx.spawn(sender, 0).unwrap();
                assert_eq!(ctx.recv_msg().unwrap(), (TileId(1), b"wake".to_vec()));
                child.join(ctx).unwrap();
            }
            Wake::Exit => {
                // The grandchild is queued before the exit wakes main, so it
                // runs first and meets the boundary with main behind.
                let grandchild = Arc::new(std::sync::Mutex::new(None));
                let parent: GuestEntry = {
                    let grandchild = Arc::clone(&grandchild);
                    Arc::new(move |ctx, _| {
                        let compute: GuestEntry = Arc::new(|ctx, _| twenty_quanta(ctx));
                        *grandchild.lock().unwrap() = Some(ctx.spawn(compute, 0).unwrap());
                    })
                };
                ctx.spawn(parent, 0).unwrap().join(ctx).unwrap();
                let grandchild = grandchild.lock().unwrap().take().expect("the child spawned");
                grandchild.join(ctx).unwrap();
            }
        });
        assert!(
            r.sync.barrier_waits > 0,
            "{wake:?}: the context that woke main ran through the quantum alone"
        );
    }
}

/// The `ocean_barrier` shape at a small input under LaxBarrier(1000): the
/// quantum rendezvous holds at every pool width. At 1 and 2 workers the
/// tiles wait at boundaries at least half as often as at full width, and
/// the simulated time stays within 10 % of it.
#[test]
fn laxbarrier_ocean_holds_below_full_width() {
    const TILES: u32 = 64;
    let run = |workers: u32| {
        let cfg = SimConfig::builder()
            .tiles(TILES)
            .processes(1)
            .sync(SyncModel::LaxBarrier { quantum: 1_000 })
            .build()
            .unwrap();
        let ocean = Ocean { n: 66, iters: 2, contiguous: true, seed: 42 };
        Sim::builder(cfg).workers(workers).build().unwrap().run(|ctx| ocean.run(ctx, TILES))
    };
    let wide = run(TILES);
    for workers in [1, 2] {
        let r = run(workers);
        assert!(
            r.sync.barrier_waits * 2 >= wide.sync.barrier_waits,
            "{workers} worker(s): {} quantum waits against {} at full width",
            r.sync.barrier_waits,
            wide.sync.barrier_waits
        );
        let (cycles, full) = (r.simulated_cycles.0 as f64, wide.simulated_cycles.0 as f64);
        assert!(
            (cycles - full).abs() <= 0.1 * full,
            "{workers} worker(s): {cycles} simulated cycles against {full} at full width"
        );
    }
}
