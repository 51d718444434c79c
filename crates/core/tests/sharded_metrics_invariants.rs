//! Invariants for the sharded (per-tile lane) metrics introduced for the
//! memory hot path: lane folding must be exact under multi-threaded updates,
//! and the exported `metrics.json` must keep the `graphite.metrics.v1` schema
//! with totals that agree with the per-tile lanes — i.e. sharding the
//! counters must be invisible to every consumer of the registry.

use std::sync::Arc;

use graphite::{GuestEntry, Sim, SimConfig, SimReport, SyncModel};
use graphite_memory::Addr;
use graphite_trace::{LaneFold, MetricsRegistry};

const TILES: u32 = 16;

/// Sharded counters and histograms fold exactly: with one thread per lane
/// (the simulator's single-writer convention) the snapshot total must equal
/// the sum over `lane_get`, with not one increment lost.
#[test]
fn sharded_lanes_fold_exactly_under_contention() {
    let reg = Arc::new(MetricsRegistry::new(TILES as usize));
    let ctr = reg.sharded_counter("t.ops");
    let peak = reg.sharded_max("t.peak");
    let hist = reg.sharded_histogram("t.lat");

    let handles: Vec<_> = (0..TILES as usize)
        .map(|lane| {
            let (ctr, peak, hist) = (ctr.clone(), peak.clone(), hist.clone());
            std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    // Owned (plain load+store) and shared (fetch_add) writes
                    // must both survive folding; each lane has one writer.
                    if i % 2 == 0 {
                        ctr.incr_owned(lane);
                        hist.record_owned(lane, i % 257);
                    } else {
                        ctr.incr(lane);
                        hist.record(lane, i % 257);
                    }
                    peak.observe_max(lane, lane as u64 * 1_000 + i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let expected = TILES as u64 * 10_000;
    let lane_total: u64 = (0..ctr.num_lanes()).map(|l| ctr.lane_get(l)).sum();
    assert_eq!(ctr.get(), expected, "no increment may be lost");
    assert_eq!(ctr.get(), lane_total, "fold must equal the sum of lanes");
    assert_eq!(peak.get(), (TILES as u64 - 1) * 1_000 + 9_999, "max fold keeps the global peak");

    let snap = hist.snapshot();
    let lane_counts: u64 = (0..hist.num_lanes()).map(|l| hist.lane_count(l)).sum();
    let lane_sums: u64 = (0..hist.num_lanes()).map(|l| hist.lane_sum(l)).sum();
    assert_eq!(snap.count, expected);
    assert_eq!(snap.count, lane_counts);
    assert_eq!(snap.sum, lane_sums);

    // The registry snapshot folds sharded entries into the same maps plain
    // metrics use, so the export schema cannot tell them apart.
    let rs = reg.snapshot();
    assert_eq!(rs.counters["t.ops"], expected);
    assert_eq!(rs.counters["t.peak"], peak.get());
    assert_eq!(rs.histograms["t.lat"], snap);
    assert_eq!(ctr.fold(), LaneFold::Sum);
    assert_eq!(peak.fold(), LaneFold::Max);
}

fn run_workload(sync: SyncModel) -> SimReport {
    let cfg = SimConfig::builder().tiles(TILES).processes(2).sync(sync).build().unwrap();
    // Full-width worker pool (thread-per-tile baseline), so guest threads
    // interleave with the main thread's stores.
    Sim::builder(cfg).workers(TILES).build().unwrap().run(|ctx| {
        let base = ctx.malloc(64 * 1024).unwrap();
        let shared = ctx.malloc(256).unwrap();
        let entry: GuestEntry = Arc::new(move |ctx, region| {
            let region = Addr(region);
            for i in 0..200u64 {
                ctx.store(region.offset(i % 32 * 8), i);
                let _ = ctx.load::<u64>(region.offset(i % 32 * 8));
                if i % 16 == 0 {
                    // Shared line: forces directory transactions (misses,
                    // invalidations) so slow-path counters get exercised too.
                    let _ = ctx.load::<u64>(shared);
                }
            }
        });
        let tids: Vec<_> = (1..TILES as u64)
            .map(|t| ctx.spawn(entry.clone(), base.0 + t * 4096).unwrap())
            .collect();
        for i in 0..200u64 {
            ctx.store(shared, i);
        }
        for t in tids {
            t.join(ctx).unwrap();
        }
        // The 200 stores above can all retire before any child has read the
        // line. One more after the joins makes an invalidation certain
        // instead of likely: every child has read `shared` by now, so either
        // an earlier store already invalidated a reader or this one does.
        ctx.store(shared, 200u64);
    })
}

/// After a 16-tile multi-threaded run under each sync model, the exported
/// metrics must stay schema-valid (`graphite.metrics.v1`) and the sharded
/// totals must agree with the per-tile lanes and the derived report fields.
#[test]
fn report_totals_consistent_across_sync_models() {
    for sync in [
        SyncModel::Lax,
        SyncModel::LaxBarrier { quantum: 1_000 },
        SyncModel::LaxP2P { slack: 100_000, check_interval: 10_000 },
    ] {
        let r = run_workload(sync);
        let m = &r.metrics;

        // Schema stays valid and unchanged.
        let doc = r.metrics_json();
        graphite_trace::json::Json::parse(&doc)
            .unwrap_or_else(|e| panic!("{sync:?}: bad json: {e}"));
        assert!(doc.contains("\"graphite.metrics.v1\""), "{sync:?}: schema marker missing");

        // Every guest thread does 200 stores + 200 loads, plus the shared
        // probes (main contributes its 201 stores only): exact totals survive
        // sharding — this is what "numerically identical" means.
        let spawned = TILES as u64 - 1;
        let loads = spawned * 200 + spawned * 13;
        let stores = spawned * 200 + 201;
        assert_eq!(m.counters["mem.loads"], loads, "{sync:?}");
        assert_eq!(m.counters["mem.stores"], stores, "{sync:?}");

        // Sharded totals equal the sum of their per-tile lanes.
        let accesses = &m.per_tile["mem.tile.accesses"];
        assert_eq!(accesses.len(), TILES as usize, "{sync:?}");
        assert_eq!(accesses.iter().sum::<u64>(), loads + stores, "{sync:?}");
        assert_eq!(r.mem.accesses(), loads + stores, "{sync:?}");

        // The latency histogram is fed on the same path as the counters:
        // count matches accesses, sum matches the latency counter, and the
        // per-tile latency lanes sum to at least the data-path total (they
        // also include ifetch latencies).
        let hist = &m.histograms["mem.latency_cycles"];
        assert_eq!(hist.count, loads + stores, "{sync:?}");
        assert_eq!(hist.sum, m.counters["mem.latency_sum"], "{sync:?}");
        assert!(
            m.per_tile["mem.tile.latency_sum"].iter().sum::<u64>() >= m.counters["mem.latency_sum"],
            "{sync:?}"
        );

        // Max fold: the high-water mark can never exceed the sum and must be
        // hit by at least one access.
        let max = m.counters["mem.max_latency"];
        assert!(max > 0 && max <= m.counters["mem.latency_sum"], "{sync:?}");

        // Sharing traffic really happened, so the slow-path (miss) counters
        // ran through their sharded lanes too.
        assert!(m.counters["mem.misses"] > 0, "{sync:?}");
        assert!(m.counters["mem.invalidations"] > 0, "{sync:?}");
    }
}
