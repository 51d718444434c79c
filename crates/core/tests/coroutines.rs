//! Spawned guest contexts run as coroutines on carrier threads: a LaxBarrier
//! quantum park is a stack switch, not a host thread sleeping and waking.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use graphite::{GuestEntry, GuestScheduler, Sim, SimConfig, SimReport, SyncModel};
use graphite_base::{Blocker, TileId};
use graphite_trace::Obs;
use parking_lot::Mutex;

const TILES: u32 = 64;

/// 64 contexts of pure compute under LaxBarrier(1000): ≈40 quantum parks
/// each, and no guest blocking operation besides main's final joins.
fn barrier_kernel(workers: u32) -> SimReport {
    let cfg = SimConfig::builder()
        .tiles(TILES)
        .processes(1)
        .sync(SyncModel::LaxBarrier { quantum: 1_000 })
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
