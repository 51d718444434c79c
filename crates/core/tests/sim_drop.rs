//! A built simulator owns no host thread until it runs, on either
//! transport, and a run must not leak its carrier threads. Alone in this file: the thread count is
//! process-wide, and tests of one binary share a process.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use graphite::{GuestEntry, Sim, SimConfig, SyncModel};
use graphite_base::TileId;

fn host_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("Threads: line");
    line["Threads:".len()..].trim().parse().expect("thread count")
}

/// The host thread count once it is back to `want`, or after a second. A
/// joined thread has stopped running, but the kernel takes it off the
/// count only when it reaps it, a moment after the join returns.
fn host_threads_settled(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let n = host_threads();
        if n == want || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn sims_leave_no_host_thread_behind() {
    let cfg = SimConfig::builder().tiles(4).processes(2).build().unwrap();
    let before = host_threads();
    for _ in 0..50 {
        let sim = Sim::builder(cfg.clone()).build().unwrap();
        assert_eq!(host_threads(), before, "a built, unrun simulator owns no host thread");
        drop(sim);
    }
    assert_eq!(host_threads_settled(before), before);
    // Running still tears down exactly once.
    Sim::builder(cfg.clone()).build().unwrap().run(|ctx| ctx.alu(10));
    assert_eq!(host_threads_settled(before), before);
    // Spawned contexts run on carrier threads, which shutdown retires and
    // joins: quantum parks, joins and a blocking receive leave none behind.
    let barrier = SimConfig { sync: SyncModel::LaxBarrier { quantum: 500 }, ..cfg };
    for workers in [1, 2, 4] {
        Sim::builder(barrier.clone()).workers(workers).build().unwrap().run(|ctx| {
            let entry: GuestEntry = Arc::new(|ctx, arg| {
                ctx.alu(5_000 * arg as u32);
                if arg == 1 {
                    ctx.recv_msg().unwrap();
                }
            });
            let kids: Vec<_> = (1..4).map(|a| ctx.spawn(Arc::clone(&entry), a).unwrap()).collect();
            ctx.alu(2_000);
            // The first spawn lands on tile 1 (all tiles free), and that
            // child cannot exit before this message arrives.
            ctx.send_msg(TileId(1), b"go").unwrap();
            for k in kids {
                k.join(ctx).unwrap();
            }
        });
        assert_eq!(
            host_threads_settled(before),
            before,
            "carriers outlived a {workers}-worker run"
        );
    }
    // The TCP transport owns no thread either: carriers read its sockets,
    // and connections are made by the first send.
    let tcp = SimConfig::builder().tiles(8).processes(4).build().unwrap();
    for _ in 0..20 {
        let sim = Sim::builder(tcp.clone()).tcp_transport(true).build().unwrap();
        assert_eq!(host_threads(), before, "a built, unrun TCP simulator owns no host thread");
        drop(sim);
    }
    for workers in [1, 2] {
        let r =
            Sim::builder(tcp.clone()).tcp_transport(true).workers(workers).build().unwrap().run(
                |ctx| {
                    let echo: GuestEntry = Arc::new(|ctx, _| {
                        let (from, bytes) = ctx.recv_msg().unwrap();
                        ctx.send_msg(from, &bytes).unwrap();
                    });
                    let kids: Vec<_> =
                        (1..8).map(|_| ctx.spawn(Arc::clone(&echo), 0).unwrap()).collect();
                    for t in 1..8 {
                        ctx.send_msg(TileId(t), b"ping").unwrap();
                    }
                    for _ in 1..8 {
                        ctx.recv_msg().unwrap();
                    }
                    for k in kids {
                        k.join(ctx).unwrap();
                    }
                },
            );
        assert!(r.transport.inter_process > 0, "the run crossed sockets");
        assert_eq!(
            host_threads_settled(before),
            before,
            "a {workers}-worker TCP run left a thread behind"
        );
    }
}
