//! Restore equivalence on the miss path.
//!
//! A miss-heavy walk (capacity misses, evictions, dirty writebacks through
//! the line table, the directory arena and the read probe) is checkpointed
//! mid-run and resumed: simulated cycles, guest output, and every modeled
//! counter must equal the uninterrupted run, under every synchronization
//! model. (The `_across_knobs` test names predate the removal of the
//! `[memory]` knobs.)

use std::collections::BTreeMap;
use std::path::PathBuf;

use graphite::{Ctx, Sim, SimConfig, SimReport, SyncModel};
use graphite_memory::addr::layout;
use graphite_memory::Addr;

/// 384 lines x 64 B = 24 KiB working set against a 16 KiB (256-line) L2: the
/// stride-7 cyclic walk revisits lines long after eviction, so steady-state
/// passes stream through capacity misses, evictions, and dirty writebacks.
const SLOTS: u64 = 384;
const N: u64 = 400; // steps before the checkpoint
const M: u64 = 300; // steps after the checkpoint

fn cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::builder().tiles(2).processes(1).seed(seed).build().unwrap();
    if let Some(l2) = cfg.target.l2.as_mut() {
        l2.size_bytes = 16 * 1024;
        l2.associativity = 4;
    }
    cfg
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("graphite-miss-pipeline-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// A cache-hostile deterministic workload: strided read-modify-writes over a
/// working set three times the L2, so the miss path (including evictions and
/// writebacks) runs constantly.
fn run_steps(ctx: &mut Ctx, lo: u64, hi: u64) {
    for i in lo..hi {
        let slot = (i * 7) % SLOTS;
        let a = Addr(layout::STATIC_BASE.0 + slot * 64);
        let v: u64 = ctx.load(a);
        ctx.store(a, v.wrapping_add(i | 1));
        if i % 100 == 0 {
            ctx.print(&format!("step {i}\n"));
        }
    }
}

/// The modeled-behaviour fingerprint of a run: everything in the metrics
/// snapshot except the host-side miss-path diagnostics (`mem.mshr.*`,
/// `mem.probe_hits`), which depend on host thread interleaving.
fn modeled_counters(r: &SimReport) -> BTreeMap<String, u64> {
    r.metrics
        .counters
        .iter()
        .filter(|(k, _)| !k.starts_with("mem.mshr.") && *k != "mem.probe_hits")
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

fn restore_equivalence_for(sync: SyncModel, name: &str) {
    let path = tmp(&format!("miss-eq-{name}.ckpt"));

    // Golden: uninterrupted.
    let golden = Sim::builder(cfg(11)).sync_model(sync).build().unwrap().run(|ctx| {
        run_steps(ctx, 0, N + M);
    });
    // The walk must actually exercise the miss path for the comparison to
    // mean anything.
    assert!(
        golden.metrics.counters["mem.misses"] > (N + M) * 3 / 4,
        "{name}: workload failed to generate steady misses"
    );

    // Interrupted: checkpoint mid-run, then resume into a fresh simulation,
    // which must land exactly where the golden run does.
    let p = path.clone();
    Sim::builder(cfg(11)).sync_model(sync).build().unwrap().run(move |ctx| {
        run_steps(ctx, 0, N);
        ctx.checkpoint(&p).expect("checkpoint at a quiesce point");
    });
    let resumed =
        Sim::builder(cfg(11)).sync_model(sync).resume(&path).build().unwrap().run(|ctx| {
            run_steps(ctx, N, N + M);
        });

    assert_eq!(golden.simulated_cycles, resumed.simulated_cycles, "{name}: clock diverged");
    assert_eq!(golden.stdout, resumed.stdout, "{name}: stdout diverged");
    assert_eq!(
        modeled_counters(&golden),
        modeled_counters(&resumed),
        "{name}: modeled counters diverged across a restore"
    );
}

#[test]
fn restore_equivalence_across_knobs_lax() {
    restore_equivalence_for(SyncModel::Lax, "lax");
}

#[test]
fn restore_equivalence_across_knobs_lax_barrier() {
    restore_equivalence_for(SyncModel::LaxBarrier { quantum: 1_000 }, "barrier");
}

#[test]
fn restore_equivalence_across_knobs_lax_p2p() {
    restore_equivalence_for(SyncModel::LaxP2P { slack: 100_000, check_interval: 500 }, "p2p");
}
