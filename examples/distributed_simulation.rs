//! Distributed simulation mechanics (paper §2.2, §3.3.1, §3.6).
//!
//! ```text
//! cargo run --release -p graphite-examples --example distributed_simulation
//! ```
//!
//! Runs the same unmodified guest program twice — once in a single
//! simulated host process, once distributed over four processes on two
//! "machines" with the real TCP loopback transport — and shows that the
//! functional result is identical while the transport statistics reveal the
//! distribution. Then compares the three synchronization models on the
//! distributed configuration, over TCP as well: LaxP2P's catch-up deadlines
//! and LaxBarrier's quanta then share the scheduler's idle waits with the
//! socket reads. The example panics if a run crosses no socket (and fmm
//! checks its own forces), so it doubles as a smoke test.

use std::sync::Arc;

use graphite::{Sim, SimConfig, SimReport};
use graphite_config::SyncModel;
use graphite_workloads::{Fmm, Workload};

fn run(procs: u32, machines: u32, tcp: bool, sync: SyncModel) -> SimReport {
    let cfg = SimConfig::builder()
        .tiles(8)
        .processes(procs)
        .machines(machines)
        .sync(sync)
        .build()
        .expect("valid configuration");
    let w = Arc::new(Fmm::small());
    Sim::builder(cfg).tcp_transport(tcp).build().expect("simulator").run(move |ctx| w.run(ctx, 8))
}

fn main() {
    println!("-- same guest program, single-process vs distributed (TCP sockets) --");
    let single = run(1, 1, false, SyncModel::Lax);
    let distributed = run(4, 2, true, SyncModel::Lax);
    println!(
        "single     : {:>10} cycles | transport intra/inter-proc/inter-machine = {}/{}/{}",
        single.simulated_cycles.0,
        single.transport.intra_process,
        single.transport.inter_process,
        single.transport.inter_machine
    );
    println!(
        "distributed: {:>10} cycles | transport intra/inter-proc/inter-machine = {}/{}/{}",
        distributed.simulated_cycles.0,
        distributed.transport.intra_process,
        distributed.transport.inter_process,
        distributed.transport.inter_machine
    );
    println!("(the workload verified its numerical result in both runs)");
    assert!(
        distributed.transport.inter_process + distributed.transport.inter_machine > 0,
        "the distributed run must cross sockets"
    );

    println!("\n-- synchronization models on the distributed configuration --");
    for sync in [
        SyncModel::Lax,
        SyncModel::LaxP2P { slack: 100_000, check_interval: 10_000 },
        SyncModel::LaxBarrier { quantum: 1_000 },
    ] {
        let r = run(4, 2, true, sync);
        assert!(r.transport.inter_machine > 0, "{} crossed no socket", r.sync_model);
        println!(
            "{:<11}: {:>10} simulated cycles | barrier releases {:>5} | p2p sleeps {:>4}",
            r.sync_model, r.simulated_cycles.0, r.sync.barrier_releases, r.sync.p2p_sleeps
        );
    }
}
