//! Tile-lock acquisitions per miss, counted exactly by `hostprof`.
//!
//! With one context per tile, a miss takes its own tile's lock once to
//! probe (which also picks the first victim), once per eviction (whose
//! purge picks the next victim) and once to fill. Another tile's locks are
//! taken only for its invalidations and forwards, which a 1-tile run has
//! none of.

use std::sync::Arc;

use graphite_base::{Cycles, GlobalProgress, HostProf, HostStage, TileId};
use graphite_config::{presets, CacheConfig};
use graphite_memory::{Addr, MemorySystem};
use graphite_network::Network;
use graphite_trace::Obs;

/// A 1-tile system with a 256 KiB 8-way L2 whose profiler counts every
/// span.
fn system() -> (MemorySystem, Arc<HostProf>) {
    let mut cfg = presets::paper_default(1);
    cfg.target.l2 = Some(CacheConfig {
        size_bytes: 256 * 1024,
        associativity: 8,
        line_size: 64,
        access_latency: Cycles(8),
    });
    let prof = HostProf::new(1, 0);
    let obs = Obs::detached(1).with_hostprof(Arc::clone(&prof));
    let net = Arc::new(Network::with_obs(&cfg, Arc::new(GlobalProgress::new(1)), &obs));
    (MemorySystem::with_obs(&cfg, net, false, &obs), prof)
}

/// `(mem.tile_lock, mem.miss_total)` span counts so far.
fn counts(prof: &HostProf) -> (u64, u64) {
    let snap = prof.snapshot();
    (snap.stage(HostStage::TileLockWait).count, snap.stage(HostStage::MissTotal).count)
}

#[test]
fn an_evicting_miss_takes_the_tile_lock_three_times() {
    let (m, prof) = system();
    // 1.5 x the L2's 4096 lines: after the first pass every access misses
    // and evicts one line.
    let lines = 6144u64;
    let mut buf = [0u8; 8];
    let mut walk = || {
        for l in 0..lines {
            m.read(TileId(0), Cycles::ZERO, Addr(l * 64), &mut buf);
        }
    };
    walk();
    let (locks0, misses0) = counts(&prof);
    let fills0 = m.stats().misses.get();
    walk();
    walk();
    let (locks, misses) = counts(&prof);
    assert_eq!(misses - misses0, 2 * lines, "every access of the walk misses");
    assert_eq!(m.stats().misses.get() - fills0, 2 * lines);
    let per_miss = (locks - locks0) as f64 / (misses - misses0) as f64;
    assert!(per_miss <= 3.0, "{per_miss:.2} tile locks per evicting miss");
}

#[test]
fn an_upgrade_takes_the_tile_lock_twice() {
    let (m, prof) = system();
    let lines = 512u64;
    let mut buf = [0u8; 8];
    for l in 0..lines {
        m.read(TileId(0), Cycles::ZERO, Addr(l * 64), &mut buf);
    }
    let (locks0, misses0) = counts(&prof);
    for l in 0..lines {
        m.write(TileId(0), Cycles::ZERO, Addr(l * 64), &l.to_le_bytes());
    }
    let (locks, misses) = counts(&prof);
    assert_eq!(m.stats().upgrades.get(), lines, "MSI: every write of a Shared line upgrades");
    assert_eq!(misses - misses0, lines);
    let per_upgrade = (locks - locks0) as f64 / lines as f64;
    assert!(per_upgrade <= 2.0, "{per_upgrade:.2} tile locks per upgrade");
}
