//! Acceptance tests for the host-cost attribution profiler (`hostprof`).
//!
//! A cache-hostile workload keeps the miss path hot while the profiler is
//! on at `sample = 1` (every span timed, and once at the default 1-in-64),
//! then the tests check the three surfaces: the typed snapshot on the
//! report, the `host.*` gauges in the metrics snapshot, and the
//! `graphite-host` thread tracks in the Perfetto export — plus the two contracts that make the profiler safe to ship
//! enabled: attribution covers ≥90% of miss-path host time, and turning it
//! on changes nothing the simulator models.

use graphite::{Ctx, Sim, SimConfig};
use graphite_base::HostStage;
use graphite_memory::addr::layout;
use graphite_memory::Addr;
use graphite_prof::validate_chrome_trace;

/// 384 lines x 64 B = 24 KiB working set against a 16 KiB L2: the stride-7
/// walk revisits lines long after eviction, so every pass streams through
/// capacity misses, evictions, and dirty writebacks.
const SLOTS: u64 = 384;
const STEPS: u64 = 600;

/// The profiler at `sample` (`None`: off).
fn cfg(sample: Option<u32>) -> SimConfig {
    let mut b = SimConfig::builder().tiles(2).processes(1).seed(3);
    if let Some(sample) = sample {
        // The big event buffer keeps the whole run's timeline so the
        // Perfetto assertions see late scheduler spans.
        b = b.hostprof(true).hostprof_sample(sample).hostprof_max_events(1 << 20);
    }
    let mut cfg = b.build().unwrap();
    if let Some(l2) = cfg.target.l2.as_mut() {
        l2.size_bytes = 16 * 1024;
        l2.associativity = 4;
    }
    cfg
}

/// The stages a run of [`run_missy`] must enter.
const MISS_STAGES: [HostStage; 11] = [
    HostStage::MissTotal,
    HostStage::LocalProbe,
    HostStage::MshrProbe,
    HostStage::MissRegister,
    HostStage::LruScan,
    HostStage::DirTxn,
    HostStage::DirLookup,
    HostStage::DramModel,
    HostStage::MissFill,
    HostStage::TileLockWait,
    HostStage::SchedSlotRun,
];

fn run_missy(ctx: &mut Ctx) {
    for i in 0..STEPS {
        let slot = (i * 7) % SLOTS;
        let a = Addr(layout::STATIC_BASE.0 + slot * 64);
        let v: u64 = ctx.load(a);
        ctx.store(a, v.wrapping_add(i | 1));
    }
}

#[test]
fn miss_path_time_lands_in_named_stages() {
    // Attribution is a ratio of wall-clock sums over a 20 ms run: one host
    // preemption inside the unattributed glue can sink a single shot, so the
    // bar applies to the best of three runs.
    let attribution = |r: &graphite::SimReport| r.host.as_ref()?.miss_attribution();
    let report = (0..3)
        .map(|_| Sim::builder(cfg(Some(1))).build().unwrap().run(run_missy))
        .max_by(|a, b| attribution(a).partial_cmp(&attribution(b)).expect("finite ratios"))
        .expect("three runs");
    assert!(report.metrics.counters["mem.misses"] > STEPS / 2, "workload must miss steadily");
    let h = report.host.as_ref().expect("enabled profiler attaches a snapshot");
    assert!(h.enabled);

    // Every stage of the miss pipeline saw traffic, and per-stage accounting
    // is internally consistent.
    for stage in MISS_STAGES {
        let s = h.stage(stage);
        assert!(s.count > 0, "stage {} never entered", stage.name());
        assert!(s.timed <= s.count, "stage {} timed more ops than ran", stage.name());
        assert!(s.self_ns <= s.total_ns, "stage {} self exceeds total", stage.name());
    }

    // The acceptance bar: ≥90% of MissTotal host time is attributed to a
    // named child stage rather than left as unexplained glue.
    let attr = h.miss_attribution().expect("miss path ran");
    assert!(attr >= 0.9, "only {:.1}% of miss-path host time attributed", attr * 100.0);

    // The analysis table renders, ranks, and carries the same attribution.
    let profile = report.host_profile().expect("profile available when enabled");
    assert!(profile.miss_attribution.unwrap() >= 0.9);
    assert!(profile.utilization.busy_frac > 0.0, "workers ran guest code");
    let text = profile.to_string();
    assert!(text.contains("mem.miss_total"), "{text}");
    assert!(text.contains("=== host profile"), "{text}");
    assert!(text.contains("miss-path attribution"), "{text}");

    // The same numbers are mirrored into `host.*` gauges so metrics.json and
    // the service exposition agree with the typed snapshot.
    let c = &report.metrics.counters;
    assert_eq!(c["host.mem.miss_total.count"], h.stage(HostStage::MissTotal).count);
    assert!(c["host.wall_ns"] > 0);
    assert!(c["host.sched.workers"] >= 1);
}

#[test]
fn perfetto_export_carries_host_thread_tracks() {
    let report = Sim::builder(cfg(Some(1))).build().unwrap().run(run_missy);
    let json = report.perfetto_json();
    validate_chrome_trace(&json).expect("host tracks keep the trace valid");
    assert!(json.contains("graphite-host"), "host process track present");
    assert!(json.contains("host:mem.miss_total"), "miss spans on the host timeline");
    assert!(json.contains("host:sched.slot_run"), "scheduler spans on the host timeline");
}

#[test]
fn disabled_profiler_leaves_no_trace_of_itself() {
    let report = Sim::builder(cfg(None)).build().unwrap().run(run_missy);
    assert!(report.host.is_none(), "no snapshot by default");
    assert!(report.host_profile().is_none());
    assert!(!report.metrics.counters.keys().any(|k| k.starts_with("host.")), "no host gauges");
    let json = report.perfetto_json();
    validate_chrome_trace(&json).unwrap();
    assert!(!json.contains("graphite-host"), "no host tracks");
}

#[test]
fn profiling_never_changes_modeled_behavior() {
    let on = Sim::builder(cfg(Some(1))).build().unwrap().run(run_missy);
    let off = Sim::builder(cfg(None)).build().unwrap().run(run_missy);
    assert_eq!(on.simulated_cycles, off.simulated_cycles, "profiler moved the simulated clock");
    assert_eq!(on.stdout, off.stdout, "profiler changed guest output");
    let modeled = |r: &graphite::SimReport| {
        r.metrics
            .counters
            .iter()
            .filter(|(k, _)| !k.starts_with("host."))
            .map(|(k, v)| (k.clone(), *v))
            .collect::<std::collections::BTreeMap<_, _>>()
    };
    assert_eq!(modeled(&on), modeled(&off), "profiler changed modeled counters");
}

/// At the default 1-in-64 sampling only a few misses are timed, yet they
/// still attribute most of the miss path; the bar is looser than the
/// `sample = 1` one because so few samples make the ratio noisy.
#[test]
fn sampled_attribution_covers_the_miss_path() {
    let sample = graphite_config::HostProfConfig::default().sample;
    assert_eq!(sample, 64);
    let report = Sim::builder(cfg(Some(sample))).build().unwrap().run(run_missy);
    let h = report.host.as_ref().expect("enabled profiler attaches a snapshot");
    for stage in MISS_STAGES {
        assert!(h.stage(stage).count > 0, "stage {} never entered", stage.name());
    }
    let miss = h.stage(HostStage::MissTotal);
    assert!(miss.timed > 0 && miss.timed < miss.count, "1-in-{sample} sampling: {miss:?}");
    let attr = h.miss_attribution().expect("a miss was sampled");
    assert!(attr >= 0.75, "only {:.1}% of sampled miss time attributed", attr * 100.0);
}

/// The utilization fractions partition the pool's slot capacity: a slot is
/// running guest code, in transit between contexts, or held by nobody — so
/// busy + overhead + idle never exceeds 1. Tile 0 parks on the OS path in
/// every join here; its wait is context time and must not count as idle
/// slot time.
#[test]
fn utilization_fractions_partition_pool_capacity() {
    /// Sampled span estimates and interval stamps may each be off by a
    /// clock read; 2 % of capacity covers that, not a double count.
    const TOLERANCE: f64 = 0.02;
    let cfg = SimConfig::builder()
        .tiles(64)
        .processes(1)
        .sync(graphite::SyncModel::LaxBarrier { quantum: 1_000 })
        .hostprof(true)
        .hostprof_sample(1)
        .build()
        .unwrap();
    let report = Sim::builder(cfg).workers(2).build().unwrap().run(|ctx| {
        let entry: graphite::GuestEntry = std::sync::Arc::new(|ctx, arg| {
            for i in 0..2_000u64 {
                ctx.alu(10);
                ctx.branch(0x40, (i + arg) % 3 == 0);
            }
        });
        let kids: Vec<_> =
            (1..64).map(|t| ctx.spawn(std::sync::Arc::clone(&entry), t).unwrap()).collect();
        entry(ctx, 0);
        for k in kids {
            k.join(ctx).unwrap();
        }
    });
    let u = report.host_profile().expect("profiler on").utilization;
    assert!(u.busy_frac > 0.0 && u.overhead_frac > 0.0, "{u:?}");
    let sum = u.busy_frac + u.overhead_frac + u.idle_frac;
    assert!(sum <= 1.0 + TOLERANCE, "fractions sum to {sum:.3} of pool capacity: {u:?}");
}
