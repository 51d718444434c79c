//! Back-to-back simulations must not ratchet the resident set up. Guest
//! contexts migrate between carrier threads, so host memory one carrier
//! allocates another frees; with one glibc arena per thread each arena would
//! keep a retained heap of its own (`hostmem::retain_freed_heap` caps the
//! process at one arena). Alone in this file: resident-set size is
//! process-wide.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use graphite::{GuestEntry, Sim, SimConfig, SyncModel};
use graphite_memory::Addr;

fn resident_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("VmRSS: line");
    let kib: f64 = line.split_whitespace().nth(1).expect("value").parse().expect("KiB count");
    kib / 1024.0
}

/// 64 tiles under LaxBarrier: each context sweeps its own 16 KiB slice of a
/// shared array (cache fills and directory records on whichever carrier runs
/// it), parking at every quantum boundary.
fn barrier_sweep() {
    const TILES: u64 = 64;
    const SLICE: u64 = 16 << 10;
    let cfg = SimConfig::builder()
        .tiles(TILES as u32)
        .processes(1)
        .sync(SyncModel::LaxBarrier { quantum: 1_000 })
        .workers(2)
        .build()
        .unwrap();
    Sim::builder(cfg).build().unwrap().run(|ctx| {
        let base = ctx.malloc(TILES * SLICE).unwrap();
        let entry: GuestEntry = Arc::new(move |ctx, t| {
            let slice = Addr(base.0 + t * SLICE);
            for pass in 0..3u64 {
                for off in (0..SLICE).step_by(64) {
                    let a = slice.offset(off);
                    let v: u64 = ctx.load(a);
                    ctx.store(a, v + pass);
                    ctx.alu(20);
                }
            }
        });
        let kids: Vec<_> = (1..TILES).map(|t| ctx.spawn(Arc::clone(&entry), t).unwrap()).collect();
        entry(ctx, 0);
        for k in kids {
            k.join(ctx).unwrap();
        }
    });
}

/// The resident set after the first run includes the heap it retained; later
/// runs reuse it and settle ≈3–4.5 MiB higher (fragmentation, cached carrier
/// stacks). Without the one-arena cap the second run alone adds ≈14 MiB, and
/// with thread-per-context execution five runs added ≈8.5 MiB.
#[test]
fn back_to_back_barrier_sims_keep_their_footprint() {
    barrier_sweep();
    let first = resident_mib();
    let mut after = Vec::new();
    for _ in 0..4 {
        barrier_sweep();
        after.push(resident_mib());
    }
    for (i, &rss) in after.iter().enumerate() {
        assert!(
            rss < first + 7.0,
            "run {} ended at {rss:.1} MiB resident, the first at {first:.1} MiB: {after:?}",
            i + 2
        );
    }
}
