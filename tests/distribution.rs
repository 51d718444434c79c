//! Distribution integration: the same guest program behaves identically
//! whether the simulation occupies one simulated host process or many
//! (paper §2.2's functional challenges), including over the real TCP
//! loopback transport; traffic is classified by locality; the packed
//! tile-mapping ablation changes only locality, never results. The TCP
//! wire is read by the scheduler's carriers, so it is also driven under
//! every sync model and pool width, and with bursts larger than the socket
//! buffers.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use graphite::{GuestEntry, Sim, SimConfig, SyncModel};
use graphite_base::TileId;
use graphite_config::TileMapping;
use graphite_memory::Addr;
use graphite_workloads::{workload_by_name, Fmm, Workload};

/// Runs `body` on a host thread of its own and returns its result, failing
/// the test after 60 s instead of hanging on a lost wake-up or a deadlock.
fn within_60s<T: Send + 'static>(what: &str, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(body()).unwrap());
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(v) => v,
        Err(e) => panic!("{what}: no result within 60 s ({e})"),
    }
}

#[test]
fn process_count_is_functionally_transparent() {
    // fmm verifies its forces internally; run it at 1, 2 and 4 processes.
    for procs in [1u32, 2, 4] {
        let w = workload_by_name("fmm").expect("known");
        let cfg = SimConfig::builder().tiles(4).processes(procs).build().expect("config");
        let r = Sim::builder(cfg).build().expect("simulator").run(move |ctx| w.run(ctx, 4));
        assert!(r.mem.accesses() > 0, "procs={procs}");
    }
}

#[test]
fn tcp_transport_carries_user_messages() {
    let w: Arc<dyn Workload> = Arc::new(Fmm::small());
    let cfg = SimConfig::builder().tiles(4).processes(4).machines(2).build().expect("config");
    let r = Sim::builder(cfg)
        .tcp_transport(true)
        .build()
        .expect("simulator")
        .run(move |ctx| w.run(ctx, 4));
    assert!(r.user_msgs >= 4, "fmm exchanges neighbour messages");
    let crossings = r.transport.inter_process + r.transport.inter_machine;
    assert!(crossings > 0, "4 tiles / 4 processes: ring messages must cross sockets");
}

#[test]
fn transport_locality_depends_on_mapping() {
    let run = |mapping: TileMapping| {
        let w: Arc<dyn Workload> = Arc::new(Fmm::small());
        let cfg = SimConfig::builder()
            .tiles(8)
            .processes(2)
            .tile_mapping(mapping)
            .build()
            .expect("config");
        Sim::builder(cfg).build().expect("simulator").run(move |ctx| w.run(ctx, 8))
    };
    // fmm's ring messages go tile i -> i+1. Striped mapping puts ring
    // neighbours in different processes (every hop crosses); packed keeps
    // most hops inside one process.
    let striped = run(TileMapping::Striped);
    let packed = run(TileMapping::Packed);
    assert!(
        striped.transport.inter_process > packed.transport.inter_process,
        "striped {} should cross processes more than packed {}",
        striped.transport.inter_process,
        packed.transport.inter_process
    );
}

#[test]
fn remote_home_fraction_grows_with_processes() {
    let run = |procs: u32| {
        let w = workload_by_name("ocean_cont").expect("known");
        let cfg = SimConfig::builder().tiles(8).processes(procs).build().expect("config");
        Sim::builder(cfg).build().expect("simulator").run(move |ctx| w.run(ctx, 8))
    };
    let one = run(1);
    let four = run(4);
    let remote = |r: &graphite::SimReport| -> u64 {
        r.per_tile.iter().map(|t| t.remote_home_transactions).sum()
    };
    assert_eq!(remote(&one), 0, "single process has no remote homes");
    assert!(remote(&four) > 0, "distributed directory homes cross processes");
}

/// `laps` rounds of one token through tiles 1..8 (tiles striped over 4
/// processes, so every hop crosses a TCP socket) while main computes: main
/// stays active and ahead, so LaxP2P sleeps and LaxBarrier quanta park next
/// to the ring's socket waits. Returns (token, simulated cycles).
fn tcp_ring(sync: SyncModel, workers: u32, laps: u64) -> (u64, u64) {
    let cfg = SimConfig::builder().tiles(8).processes(4).sync(sync).build().expect("config");
    let sim = Sim::builder(cfg).tcp_transport(true).workers(workers).build().expect("simulator");
    let mut token = 0;
    let r = sim.run(|ctx| {
        let entry: GuestEntry = Arc::new(move |ctx, _| {
            let me = ctx.tile().0;
            let next = TileId(if me == 7 { 1 } else { me + 1 });
            // Tile 1 starts a lap, except the first, with the token from 7.
            for lap in 0..laps {
                let (_, bytes) = ctx.recv_msg().expect("ring recv");
                let t = u64::from_le_bytes(bytes.try_into().expect("8-byte token")) + me as u64;
                ctx.alu(200);
                let to = if me == 7 && lap + 1 == laps { TileId(0) } else { next };
                ctx.send_msg(to, &t.to_le_bytes()).expect("ring send");
            }
        });
        let kids: Vec<_> = (1..8).map(|_| ctx.spawn(Arc::clone(&entry), 0).unwrap()).collect();
        ctx.send_msg(TileId(1), &0u64.to_le_bytes()).unwrap();
        for _ in 0..200 {
            ctx.alu(1_000);
        }
        let bytes = ctx.recv_msg_from(TileId(7)).unwrap();
        token = u64::from_le_bytes(bytes.try_into().unwrap());
        for k in kids {
            k.join(ctx).unwrap();
        }
    });
    (token, r.simulated_cycles.0)
}

#[test]
fn tcp_ring_holds_under_every_sync_model_and_pool_width() {
    const LAPS: u64 = 50;
    let want = LAPS * (1..8u64).sum::<u64>();
    for sync in [
        SyncModel::Lax,
        SyncModel::LaxP2P { slack: 1_000, check_interval: 500 },
        SyncModel::LaxBarrier { quantum: 1_000 },
    ] {
        let mut cycles = Vec::new();
        for workers in [1, 2, 8] {
            let what = format!("{sync:?} at {workers} workers");
            let (token, sim_cycles) = within_60s(&what, move || tcp_ring(sync, workers, LAPS));
            assert_eq!(token, want, "{what}: token sum");
            cycles.push(sim_cycles);
        }
        if sync == SyncModel::Lax {
            // Every receive lands at its message's timestamp and main's
            // compute is fixed, so the pool width cannot move simulated time.
            assert!(cycles.iter().all(|&c| c == cycles[0]), "Lax sim_cycles by width: {cycles:?}");
        }
    }
}

#[test]
fn a_burst_beyond_the_socket_buffers_drains_in_order() {
    // 16 MiB in 1 KiB messages to a tile in another process that is not
    // receiving yet (it spins on a guest flag). Loopback socket buffers hold
    // a few MiB, so the sender's writes block — and each blocked write must
    // read the wire itself: with one worker nothing else can, and with two
    // the receiver's carrier is busy spinning.
    const MSGS: u64 = 16 << 10;
    for workers in [1, 2] {
        let got = within_60s(&format!("burst at {workers} workers"), move || {
            let cfg = SimConfig::builder().tiles(2).processes(2).build().expect("config");
            let sim = Sim::builder(cfg).tcp_transport(true).workers(workers).build().unwrap();
            let mut got = 0;
            let r = sim.run(|ctx| {
                let flag = ctx.malloc(64).unwrap();
                ctx.store(flag, 0u64);
                let receiver: GuestEntry = Arc::new(move |ctx, flag| {
                    while ctx.load::<u64>(Addr(flag)) == 0 {}
                    for i in 0..MSGS {
                        let data = ctx.recv_msg_from(TileId(0)).expect("burst recv");
                        assert_eq!(data.len(), 1024);
                        assert_eq!(data[..8], i.to_le_bytes(), "message {i} out of order");
                    }
                    ctx.set_exit_value(MSGS);
                });
                let h = ctx.spawn(receiver, flag.0).unwrap();
                let mut msg = vec![0xA5u8; 1024];
                for i in 0..MSGS {
                    msg[..8].copy_from_slice(&i.to_le_bytes());
                    ctx.send_msg(TileId(1), &msg).unwrap();
                }
                ctx.store(flag, 1u64);
                got = h.join(ctx).unwrap();
            });
            assert!(r.transport.inter_process + r.transport.inter_machine >= MSGS);
            got
        });
        assert_eq!(got, MSGS, "{workers} workers");
    }
}

#[test]
fn the_idle_poller_reads_a_stream_another_carrier_accepted() {
    // Three workers, so the poller sleeps while other carriers run guests.
    // The opener's send makes the connection to process 1, and the opener's
    // carrier, sweeping as it exits, races the poller to accept it. Main
    // then sends on that stream and waits in a join: the receiver is parked,
    // so only the poller can read main's frame, and it must be watching the
    // stream even when another carrier accepted it. Every run connects
    // afresh, so the race is replayed once per run.
    within_60s("accept race", || {
        for _ in 0..200 {
            let cfg = SimConfig::builder().tiles(4).processes(2).build().expect("config");
            let sim = Sim::builder(cfg).tcp_transport(true).workers(3).build().unwrap();
            sim.run(|ctx| {
                let receiver: GuestEntry = Arc::new(|ctx, _| {
                    ctx.recv_msg().expect("the opener's message");
                    ctx.recv_msg().expect("main's message");
                });
                let opener: GuestEntry = Arc::new(|ctx, _| {
                    ctx.send_msg(TileId(1), b"open").expect("open");
                });
                // Tile 1 (process 1), then tile 2 (process 0).
                let r = ctx.spawn(receiver, 0).unwrap();
                let o = ctx.spawn(opener, 0).unwrap();
                o.join(ctx).unwrap();
                ctx.send_msg(TileId(1), b"go").unwrap();
                r.join(ctx).unwrap();
            });
        }
    });
}

#[test]
fn the_idle_poller_reads_a_frame_while_a_guest_spins() {
    // Two workers. The receiver parks in a receive, then the spinner takes
    // its carrier and never switches again; main sends and waits in a join.
    // Only the idle carrier that watches the sockets while main's slot is
    // free can read the frame that ends the spin.
    within_60s("spinner", || {
        let cfg = SimConfig::builder().tiles(4).processes(4).build().expect("config");
        let sim = Sim::builder(cfg).tcp_transport(true).workers(2).build().unwrap();
        sim.run(|ctx| {
            let flags = ctx.malloc(128).unwrap();
            let (spinning, done) = (flags, Addr(flags.0 + 64));
            ctx.store(spinning, 0u64);
            ctx.store(done, 0u64);
            let receiver: GuestEntry = Arc::new(move |ctx, _| {
                ctx.recv_msg().expect("receive");
                ctx.store(done, 1u64);
            });
            let spinner: GuestEntry = Arc::new(move |ctx, _| {
                ctx.store(spinning, 1u64);
                while ctx.load::<u64>(done) == 0 {}
            });
            let r = ctx.spawn(receiver, 0).unwrap();
            let s = ctx.spawn(spinner, 0).unwrap();
            while ctx.load::<u64>(spinning) == 0 {}
            // The first spawn lands on tile 1 (every tile was free), in
            // another process than main's tile 0.
            ctx.send_msg(TileId(1), b"go").unwrap();
            s.join(ctx).unwrap();
            r.join(ctx).unwrap();
        });
    });
}
