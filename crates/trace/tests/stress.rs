//! Threaded stress tests: snapshots taken under parallel writers must not
//! lose increments. The profiler reads these structures live (skew sampler,
//! `Sim::metrics_snapshot`) while every tile thread is still writing, so
//! the final totals — observed after the writers join — have to be exact.

use std::sync::Arc;
use std::thread;

use graphite_trace::{MetricsRegistry, ShardedHistogram, ShardedMetric};

const WRITERS: usize = 8;
const OPS: u64 = 20_000;

#[test]
fn histogram_loses_nothing_under_parallel_writers() {
    // One lane: every writer shares it, as serve's 1-tile registry does.
    let h = ShardedHistogram::default();
    thread::scope(|s| {
        for t in 0..WRITERS {
            let h = &h;
            s.spawn(move || {
                for i in 0..OPS {
                    h.record(t, (t as u64) * 1_000 + (i % 100));
                }
            });
        }
        // Concurrent snapshots must never tear past the true totals. (A
        // writer sits between its bucket and sum increments at any moment,
        // so a mid-run snapshot is only bounded from above.)
        let ceiling = (WRITERS as u64) * OPS;
        for _ in 0..50 {
            let snap = h.snapshot();
            let bucketed: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
            assert!(bucketed <= ceiling, "{bucketed} bucketed > {ceiling} recorded");
            assert!(snap.count <= ceiling, "{} counted > {ceiling} recorded", snap.count);
        }
    });
    let snap = h.snapshot();
    assert_eq!(snap.count, (WRITERS as u64) * OPS);
    let bucketed: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
    assert_eq!(bucketed, snap.count, "bucket counts must sum to the total");
    let expected_sum: u64 =
        (0..WRITERS as u64).map(|t| (0..OPS).map(|i| t * 1_000 + (i % 100)).sum::<u64>()).sum();
    assert_eq!(snap.sum, expected_sum);
}

#[test]
fn sharded_histogram_owned_lanes_lose_nothing() {
    let h = ShardedHistogram::new(WRITERS);
    thread::scope(|s| {
        for t in 0..WRITERS {
            let h = &h;
            // One owner per lane: the single-writer fast path must still be
            // exact when every lane is written simultaneously.
            s.spawn(move || {
                for i in 0..OPS {
                    h.record_owned(t, i % 512);
                }
            });
        }
    });
    let snap = h.snapshot();
    assert_eq!(snap.count, (WRITERS as u64) * OPS);
    assert_eq!(snap.sum, (WRITERS as u64) * (0..OPS).map(|i| i % 512).sum::<u64>());
}

#[test]
fn sharded_counter_mixed_apis_lose_nothing() {
    let m = ShardedMetric::new(WRITERS);
    thread::scope(|s| {
        for t in 0..WRITERS {
            let m = &m;
            s.spawn(move || {
                for i in 0..OPS {
                    if i % 2 == 0 {
                        m.add_owned(t, 2); // this thread owns lane t
                    } else {
                        m.incr_owned(t);
                    }
                }
            });
        }
        // A reader folding lanes mid-run sees a value that only grows.
        let mut last = 0;
        for _ in 0..100 {
            let v = m.get();
            assert!(v >= last, "sharded total went backwards: {v} < {last}");
            last = v;
        }
    });
    assert_eq!(m.get(), (WRITERS as u64) * (OPS / 2) * 3);
}

#[test]
fn registry_snapshot_under_parallel_writers_is_exact_after_join() {
    let reg = Arc::new(MetricsRegistry::new(WRITERS));
    let lanes = reg.per_tile("stress.tile.ops");
    let total = reg.counter("stress.ops");
    let hist = reg.sharded_histogram("stress.latency");
    let sharded = reg.sharded_counter("stress.sharded");
    thread::scope(|s| {
        for t in 0..WRITERS {
            let lane = lanes.clone();
            let total = total.clone();
            let hist = hist.clone();
            let sharded = sharded.clone();
            s.spawn(move || {
                for i in 0..OPS {
                    lane.add_owned(t, 1);
                    total.add(1);
                    hist.record(t, i & 0xFF);
                    sharded.incr(t);
                }
            });
        }
        // Snapshotting while the writers run must not panic or tear the
        // per-metric maps; totals are monotone.
        let mut last = 0;
        for _ in 0..50 {
            let snap = reg.snapshot();
            let v = snap.counters.get("stress.ops").copied().unwrap_or(0);
            assert!(v >= last);
            last = v;
        }
    });
    let snap = reg.snapshot();
    let n = (WRITERS as u64) * OPS;
    assert_eq!(snap.counters["stress.ops"], n);
    assert_eq!(snap.per_tile["stress.tile.ops"].iter().sum::<u64>(), n);
    assert_eq!(snap.counters["stress.sharded"], n);
    let h = &snap.histograms["stress.latency"];
    assert_eq!(h.count, n);
    assert_eq!(h.buckets.iter().map(|&(_, c)| c).sum::<u64>(), n);
}
