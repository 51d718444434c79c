//! Spawned guest contexts run as coroutines on carrier threads, and every
//! guest wait is a suspend: a LaxBarrier quantum park, an MCP call, a
//! receive and a LaxP2P catch-up sleep are stack switches, not a host thread
//! sleeping and waking — so the carrier count stays at the pool width.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use graphite::{Ctx, GBarrier, GuestEntry, GuestScheduler, Sim, SimConfig, SimReport, SyncModel};
use graphite_base::{Blocker, TileId};
use graphite_memory::Addr;
use graphite_trace::Obs;
use parking_lot::Mutex;

const TILES: u32 = 64;

/// 64 contexts of pure compute under LaxBarrier(1000): ≈40 quantum parks
/// each, and no guest blocking operation besides main's final joins. Every
/// child counts toward the quantum from its spawn, so however the host
/// orders them, none runs through a boundary alone.
fn barrier_kernel(workers: u32) -> SimReport {
    const QUANTUM: u64 = 1_000;
    let cfg = SimConfig::builder()
        .tiles(TILES)
        .processes(1)
        .sync(SyncModel::LaxBarrier { quantum: QUANTUM })
        .build()
        .unwrap();
    Sim::builder(cfg).workers(workers).build().unwrap().run(|ctx| {
        let entry: GuestEntry = Arc::new(|ctx, arg| {
            for i in 0..4_000u64 {
                ctx.alu(10);
                ctx.branch(0x100, (i + arg) % 3 == 0);
            }
        });
        let kids: Vec<_> =
            (1..TILES as u64).map(|t| ctx.spawn(Arc::clone(&entry), t).unwrap()).collect();
        entry(ctx, 0);
        for k in kids {
            k.join(ctx).unwrap();
        }
    })
}

/// Blocks the calling host thread until `done` holds (or a minute passes,
/// so a broken kernel fails its assertions instead of hanging the test).
fn host_wait_until(done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[test]
fn quantum_parks_wake_no_host_thread() {
    const WORKERS: u32 = 2;
    let scheduled = barrier_kernel(WORKERS);
    assert!(
        scheduled.sync.barrier_waits > 1_000,
        "the kernel must park at quantum boundaries ({} waits)",
        scheduled.sync.barrier_waits
    );
    assert!(
        scheduled.sched.threads_spawned <= WORKERS as u64 + 1,
        "{} carrier threads for {} slots: a quantum park woke or created a host thread",
        scheduled.sched.threads_spawned,
        WORKERS
    );
    let wide = barrier_kernel(TILES);
    assert_eq!(wide.sched.parks, 0, "a full-width pool never queues");
    assert_eq!(scheduled.simulated_cycles, wide.simulated_cycles);
    assert_eq!(scheduled.per_tile_cycles, wide.per_tile_cycles);
}

/// One plain-thread context (tile 0, the OS park path) and 15 coroutine
/// contexts over 2 slots park `ROUNDS` times each while an outside thread
/// releases them in whatever order they register — racing every park, so
/// both the banked-unpark path and the suspended path are taken.
#[test]
fn racing_unparker_loses_no_wakeup() {
    const CONTEXTS: u32 = 16;
    const ROUNDS: u32 = 2_000;
    let sched = GuestScheduler::new(2, CONTEXTS, &Obs::detached(CONTEXTS as usize));
    let waiting = Arc::new(Mutex::new(Vec::<TileId>::new()));
    let (done_tx, done_rx) = mpsc::channel::<(u32, u32)>();

    // Register, then park: the unparker may release before or after the
    // park, exactly like a barrier release racing its last waiter.
    let body = {
        let (sched, waiting) = (Arc::clone(&sched), Arc::clone(&waiting));
        move |tile: TileId, done: mpsc::Sender<(u32, u32)>| {
            let mut rounds = 0;
            for _ in 0..ROUNDS {
                waiting.lock().push(tile);
                sched.park(tile);
                rounds += 1;
            }
            done.send((tile.0, rounds)).unwrap();
        }
    };
    for t in 1..CONTEXTS {
        let (body, done) = (body.clone(), done_tx.clone());
        sched.submit(TileId(t), move || body(TileId(t), done));
    }
    let main = {
        let (sched, body, done) = (Arc::clone(&sched), body.clone(), done_tx.clone());
        std::thread::spawn(move || {
            sched.attach(TileId(0));
            body(TileId(0), done);
            sched.detach(TileId(0));
        })
    };
    drop(done_tx);

    let stop = Arc::new(AtomicBool::new(false));
    let unparker = {
        let (sched, waiting, stop) = (Arc::clone(&sched), Arc::clone(&waiting), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let batch = std::mem::take(&mut *waiting.lock());
                for t in batch {
                    sched.unpark(t);
                }
                std::thread::yield_now();
            }
        })
    };

    let mut finished = vec![0u32; CONTEXTS as usize];
    for _ in 0..CONTEXTS {
        match done_rx.recv_timeout(Duration::from_secs(60)) {
            Ok((t, rounds)) => finished[t as usize] = rounds,
            Err(e) => panic!("contexts hung with {finished:?} rounds finished: {e}"),
        }
    }
    stop.store(true, Ordering::Relaxed);
    unparker.join().unwrap();
    main.join().unwrap();
    sched.retire_carriers();
    assert!(finished.iter().all(|&r| r == ROUNDS), "{finished:?}");
    assert!(sched.stats().threads_spawned.get() <= 3, "2 slots need at most 2 busy carriers");
}

fn cfg(tiles: u32, sync: SyncModel) -> SimConfig {
    SimConfig::builder().tiles(tiles).processes(1).sync(sync).build().unwrap()
}

/// Runs `work(ctx, i)` on `threads` guest threads (main is thread 0) and
/// joins them.
fn fork_join(ctx: &mut Ctx, threads: u32, work: impl Fn(&mut Ctx, u32) + Send + Sync + 'static) {
    let work = Arc::new(work);
    let kids: Vec<_> = (1..threads)
        .map(|i| {
            let w = Arc::clone(&work);
            let entry: GuestEntry = Arc::new(move |ctx, _| w(ctx, i));
            ctx.spawn(entry, 0).unwrap()
        })
        .collect();
    work(ctx, 0);
    for k in kids {
        k.join(ctx).unwrap();
    }
}

/// The `ocean_barrier` shape: 64 threads under LaxBarrier that meet in a
/// guest barrier (futex waits and wakes through the MCP) between sweeps and
/// receive one message each from main. Every one of those waits is a
/// suspend, so two slots need at most three carriers.
#[test]
fn guest_waits_keep_carriers_at_pool_width() {
    const WORKERS: u32 = 2;
    let run = |workers: u32| {
        let sim = Sim::builder(cfg(TILES, SyncModel::LaxBarrier { quantum: 1_000 }));
        sim.workers(workers).build().unwrap().run(|ctx| {
            let bar = GBarrier::create(ctx, TILES);
            fork_join(ctx, TILES, move |ctx, who| {
                if who == 0 {
                    for t in 1..TILES {
                        ctx.send_msg(TileId(t), &[t as u8]).unwrap();
                    }
                } else {
                    assert_eq!(ctx.recv_msg_from(TileId(0)).unwrap(), [who as u8]);
                }
                for sweep in 0..4u32 {
                    ctx.alu(1_500 + (who * 7 + sweep) % 13 * 40);
                    bar.wait(ctx);
                }
            });
        })
    };
    let r = run(WORKERS);
    assert!(r.ctrl.futex_waits > 0, "the guest barrier must wait in the MCP");
    assert!(
        r.sched.threads_spawned <= WORKERS as u64 + 1,
        "{} carriers for {WORKERS} slots: a guest wait held a carrier",
        r.sched.threads_spawned
    );
    assert!(r.sched.yields > 0, "guest waits that gave up their slot are counted");
}

/// A LaxP2P run whose main thread races ahead and must sleep while the
/// others catch up: the sleeps are timed requeues on the run-queue, not
/// carriers sleeping, and the deadlines fire.
///
/// A sleep needs an active partner that is behind, and on a loaded host the
/// short threads could all start and finish before main gets going. So
/// main waits on the host until thread 1 has started, and thread 1 waits on
/// the host — active, its clock standing still — until main is done.
#[test]
fn p2p_sleeps_are_timed_requeues() {
    const WORKERS: u32 = 2;
    let sync = SyncModel::LaxP2P { slack: 1_000, check_interval: 500 };
    let laggard_started = Arc::new(AtomicBool::new(false));
    let leader_done = Arc::new(AtomicBool::new(false));
    let r = Sim::builder(cfg(16, sync)).workers(WORKERS).build().unwrap().run(|ctx| {
        fork_join(ctx, 16, move |ctx, who| {
            match who {
                0 => host_wait_until(|| laggard_started.load(Ordering::Acquire)),
                1 => {
                    laggard_started.store(true, Ordering::Release);
                    host_wait_until(|| leader_done.load(Ordering::Acquire));
                }
                _ => {}
            }
            // Thread 0 does ten times the work per step: it runs ahead.
            let per_step = if who == 0 { 500 } else { 50 };
            for i in 0..400u64 {
                ctx.alu(per_step);
                ctx.branch(0x80, i % 2 == 0);
            }
            if who == 0 {
                leader_done.store(true, Ordering::Release);
            }
        });
    });
    assert!(r.sync.p2p_sleeps >= 1, "the leader never slept");
    assert!(
        r.sched.threads_spawned <= WORKERS as u64 + 1,
        "{} carriers for {WORKERS} slots: a catch-up sleep held a carrier",
        r.sched.threads_spawned
    );
}

/// Every MCP wait parks exactly once, even when the reply is already in:
/// a reply polled without the park would leave the MCP's unpark banked, and
/// the tile's next quantum park would return before its release — counting
/// the tile's arrival twice (`BarrierSync` asserts against that in debug
/// builds). Compute that crosses quantum boundaries is interleaved with
/// calls the MCP answers at once.
#[test]
fn immediately_answered_mcp_calls_leave_no_token() {
    const THREADS: u32 = 8;
    let sim = Sim::builder(cfg(16, SyncModel::LaxBarrier { quantum: 1_000 }));
    let r = sim.workers(2).build().unwrap().run(|ctx| {
        let word = ctx.malloc(8).unwrap();
        ctx.store(word, 7u32);
        fork_join(ctx, THREADS, move |ctx, who| {
            let noop: GuestEntry = Arc::new(|_, _| {});
            for i in 0..30u32 {
                ctx.alu(400 + who * 11);
                ctx.futex_wait(word, 0); // the word holds 7: a mismatch
                ctx.alu(400);
                let block: Addr = ctx.malloc(64).unwrap();
                ctx.free(block).unwrap();
                ctx.alu(400);
                if i % 5 == 0 {
                    ctx.spawn(Arc::clone(&noop), 0).unwrap().join(ctx).unwrap();
                }
            }
        });
    });
    assert!(r.sync.barrier_waits > 0, "the compute must park at quantum boundaries");
}
