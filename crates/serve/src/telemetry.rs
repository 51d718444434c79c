//! Service telemetry: per-tenant and global latency histograms, preemption
//! cost accounting, HTTP request counters, and the Prometheus `/metrics`
//! renderer — all backed by one `graphite-trace` [`MetricsRegistry`].
//!
//! Registry naming is dotted and flat:
//!
//! * global: `serve.queue_wait_us` (histogram), `serve.jobs.submitted`
//!   (counter), `serve.preempt.serialize_us_total` (counter), …
//! * per-tenant: `serve.tenant.<tenant>.<leaf>` — tenant names are validated
//!   to `[A-Za-z0-9_-]`, so the first `.` after the prefix splits tenant from
//!   leaf unambiguously.
//! * HTTP: `serve.http.req.<route>.<status>` with a fixed route-class
//!   vocabulary (`jobs`, `job`, `artifact`, `healthz`, `stats`, `metrics`,
//!   `shutdown`, `other`).
//!
//! Durations are recorded in **microseconds**: the registry's log₂ buckets
//! give ~1 µs…~70 min span with power-of-two resolution, which is the right
//! grain for sub-millisecond checkpoint serialize times and multi-second
//! queue waits alike. `/stats` converts to milliseconds at the edge.
//!
//! Every record method is a no-op when the `[serve] telemetry` knob is off,
//! so the hot path costs one branch.

use std::collections::BTreeMap;
use std::time::Duration;

use graphite_trace::metrics::HistogramSnapshot;
use graphite_trace::{MetricsRegistry, PromText};

use crate::job::JobState;
use graphite_trace::json::{obj, Json};

/// Point-in-time service state sampled under the scheduler lock at scrape
/// time and rendered as Prometheus gauges. These are *live* values — queue
/// depth and slice ages change between scrapes without any counter event.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveStats {
    /// Jobs waiting in the fair-share queue.
    pub queued: u64,
    /// Slices currently executing on workers.
    pub running: u64,
    /// Age of the longest-waiting queued job, milliseconds (0 when empty).
    pub oldest_queued_age_ms: u64,
    /// Age of the longest-running current slice, milliseconds (0 when idle).
    pub running_slice_age_ms: u64,
    /// Whether the service is draining.
    pub draining: bool,
    /// Milliseconds since the service started.
    pub uptime_ms: u64,
}

/// Per-tenant counter leaves and the Prometheus family each maps onto.
const TENANT_COUNTERS: &[(&str, &str, &str)] = &[
    ("submitted", "graphite_serve_jobs_submitted_total", "Jobs accepted into the queue."),
    ("completed", "graphite_serve_jobs_completed_total", "Jobs that finished successfully."),
    ("failed", "graphite_serve_jobs_failed_total", "Jobs that terminated with an error."),
    ("canceled", "graphite_serve_jobs_canceled_total", "Jobs canceled by the client."),
    ("preemptions", "graphite_serve_preemptions_total", "Checkpoint preemptions (parks)."),
    (
        "preempt.serialize_us_total",
        "graphite_serve_preempt_serialize_us_total",
        "Microseconds spent serializing park files.",
    ),
    (
        "preempt.ckpt_bytes_total",
        "graphite_serve_preempt_ckpt_bytes_total",
        "Park-file bytes written.",
    ),
    (
        "preempt.restore_us_total",
        "graphite_serve_preempt_restore_us_total",
        "Microseconds spent rebuilding simulations from park files.",
    ),
    (
        "preempt.requeue_gap_us_total",
        "graphite_serve_preempt_requeue_gap_us_total",
        "Microseconds preempted jobs waited between requeue and redispatch.",
    ),
];

/// Per-tenant histogram leaves and their Prometheus families.
const TENANT_HISTS: &[(&str, &str, &str)] = &[
    ("queue_wait_us", "graphite_serve_queue_wait_us", "Queue wait per dispatch, microseconds."),
    ("run_us", "graphite_serve_run_us", "Total worker time per finished job, microseconds."),
    ("e2e_us", "graphite_serve_e2e_us", "Submit-to-terminal latency, microseconds."),
];

/// Global-only histograms: registry key → Prometheus family.
const GLOBAL_HISTS: &[(&str, &str, &str)] = &[
    ("serve.slice_us", "graphite_serve_slice_us", "Worker slice duration, microseconds."),
    (
        "serve.slice_overrun_us",
        "graphite_serve_slice_overrun_us",
        "How far preempted slices ran past the quantum, microseconds.",
    ),
    (
        "serve.preempt.serialize_us",
        "graphite_serve_preempt_serialize_us",
        "Checkpoint serialize time per park, microseconds.",
    ),
    (
        "serve.preempt.ckpt_bytes",
        "graphite_serve_preempt_ckpt_bytes",
        "Park-file size per park, bytes.",
    ),
    (
        "serve.preempt.restore_us",
        "graphite_serve_preempt_restore_us",
        "Restore time per resume, microseconds.",
    ),
    (
        "serve.preempt.requeue_gap_us",
        "graphite_serve_preempt_requeue_gap_us",
        "Requeue-to-redispatch gap per resume, microseconds.",
    ),
    (
        "serve.http.request_us",
        "graphite_serve_http_request_us",
        "HTTP request service time, microseconds.",
    ),
];

/// Scrape-time gauges rendered from [`LiveStats`].
const LIVE_GAUGES: &[(&str, &str)] = &[
    ("graphite_serve_queue_depth", "Jobs waiting in the fair-share queue."),
    ("graphite_serve_running", "Slices currently executing on workers."),
    ("graphite_serve_oldest_queued_age_ms", "Age of the longest-waiting queued job."),
    ("graphite_serve_running_slice_age_ms", "Age of the longest-running current slice."),
    ("graphite_serve_draining", "1 while the service is draining, else 0."),
    ("graphite_serve_uptime_ms", "Milliseconds since the service started."),
];

/// The service's telemetry surface. One instance per [`crate::Service`],
/// shared by workers and connection threads through the service `Arc`.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    reg: MetricsRegistry,
}

fn us(d: Duration) -> u64 {
    d.as_micros() as u64
}

impl Telemetry {
    /// Creates the telemetry surface; `enabled = false` turns every record
    /// method into a single-branch no-op (`/metrics` then exposes only the
    /// live gauges).
    pub fn new(enabled: bool) -> Telemetry {
        Telemetry { enabled, reg: MetricsRegistry::new(1) }
    }

    /// Whether event recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn tkey(tenant: &str, leaf: &str) -> String {
        format!("serve.tenant.{tenant}.{leaf}")
    }

    /// Records `v` into the histogram `name`: the registry has one tile, so
    /// every recording thread shares the one lane.
    fn record_hist(&self, name: &str, v: u64) {
        self.reg.sharded_histogram(name).record(0, v);
    }

    /// A job was accepted into the queue.
    pub fn record_submit(&self, tenant: &str) {
        if !self.enabled {
            return;
        }
        self.reg.counter("serve.jobs.submitted").incr();
        self.reg.counter(&Self::tkey(tenant, "submitted")).incr();
    }

    /// A job left the queue for a worker after waiting `wait`; `resumed` is
    /// set when this dispatch resumes a preempted job, in which case the wait
    /// is also charged as requeue-to-redispatch preemption cost.
    pub fn record_dispatch(&self, tenant: &str, wait: Duration, resumed: bool) {
        if !self.enabled {
            return;
        }
        let w = us(wait);
        self.record_hist("serve.queue_wait_us", w);
        self.record_hist(&Self::tkey(tenant, "queue_wait_us"), w);
        if resumed {
            self.record_hist("serve.preempt.requeue_gap_us", w);
            self.reg.counter("serve.preempt.requeue_gap_us_total").add(w);
            self.reg.counter(&Self::tkey(tenant, "preempt.requeue_gap_us_total")).add(w);
        }
    }

    /// A running slice was parked: the checkpoint took `serialize` wall-time
    /// and wrote `bytes`.
    pub fn record_park(&self, tenant: &str, serialize: Duration, bytes: u64) {
        if !self.enabled {
            return;
        }
        let s = us(serialize);
        self.reg.counter("serve.preempt.count").incr();
        self.reg.counter("serve.preempt.serialize_us_total").add(s);
        self.reg.counter("serve.preempt.ckpt_bytes_total").add(bytes);
        self.record_hist("serve.preempt.serialize_us", s);
        self.record_hist("serve.preempt.ckpt_bytes", bytes);
        self.reg.counter(&Self::tkey(tenant, "preemptions")).incr();
        self.reg.counter(&Self::tkey(tenant, "preempt.serialize_us_total")).add(s);
        self.reg.counter(&Self::tkey(tenant, "preempt.ckpt_bytes_total")).add(bytes);
    }

    /// A parked job was rebuilt from its park file in `restore` wall-time.
    pub fn record_restore(&self, tenant: &str, restore: Duration) {
        if !self.enabled {
            return;
        }
        let r = us(restore);
        self.reg.counter("serve.preempt.resumes").incr();
        self.reg.counter("serve.preempt.restore_us_total").add(r);
        self.record_hist("serve.preempt.restore_us", r);
        self.reg.counter(&Self::tkey(tenant, "preempt.restore_us_total")).add(r);
    }

    /// A worker slice finished (any outcome). `overrun` is how far a
    /// preempted slice ran past the preemption quantum — the scheduling
    /// latency cost of the cooperative safepoint.
    pub fn record_slice(&self, slice: Duration, overrun: Option<Duration>) {
        if !self.enabled {
            return;
        }
        self.record_hist("serve.slice_us", us(slice));
        if let Some(o) = overrun {
            self.record_hist("serve.slice_overrun_us", us(o));
        }
    }

    /// A job reached a terminal state with submit-to-terminal latency `e2e`
    /// and `run` total worker time across all slices.
    pub fn record_terminal(&self, tenant: &str, state: JobState, e2e: Duration, run: Duration) {
        if !self.enabled {
            return;
        }
        let leaf = match state {
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
            JobState::Queued | JobState::Running => return,
        };
        self.reg.counter(&format!("serve.jobs.{leaf}")).incr();
        self.reg.counter(&Self::tkey(tenant, leaf)).incr();
        for (key, v) in [("e2e_us", us(e2e)), ("run_us", us(run))] {
            self.record_hist(&format!("serve.{key}"), v);
            self.record_hist(&Self::tkey(tenant, key), v);
        }
    }

    /// One HTTP exchange was served. `route` must come from the fixed
    /// route-class vocabulary (no user input — it would explode the registry).
    pub fn record_http(&self, route: &'static str, status: u16, dur: Duration) {
        if !self.enabled {
            return;
        }
        self.reg.counter(&format!("serve.http.req.{route}.{status}")).incr();
        self.record_hist("serve.http.request_us", us(dur));
    }

    /// Mirrors queue depth and running-slice count into registry gauges so
    /// the registry snapshot is self-contained.
    pub fn set_levels(&self, queued: u64, running: u64) {
        if !self.enabled {
            return;
        }
        self.reg.gauge("serve.queue_depth").set(queued);
        self.reg.gauge("serve.running").set(running);
    }

    /// Renders the Prometheus text exposition (format 0.0.4): live gauges
    /// from `live`, then per-tenant counters/histograms with `tenant=`
    /// labels, HTTP counters with `route=`/`status=` labels, and the global
    /// histograms. Global job counters are not exported — they are exactly
    /// the sum over tenants, which scrapers aggregate themselves.
    pub fn prometheus(&self, live: &LiveStats) -> String {
        let mut doc = PromText::new();
        let gauge_values = [
            live.queued,
            live.running,
            live.oldest_queued_age_ms,
            live.running_slice_age_ms,
            u64::from(live.draining),
            live.uptime_ms,
        ];
        for ((name, help), v) in LIVE_GAUGES.iter().zip(gauge_values) {
            doc.family(name, "gauge", help);
            doc.sample(name, &[], v);
        }
        if !self.enabled {
            return doc.finish();
        }
        let snap = self.reg.snapshot();

        // tenant-leaf → [(tenant, value)]; BTreeMap iteration keeps tenants
        // sorted, so the document is deterministic.
        let mut tenant_counters: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
        let mut http: Vec<(&str, &str, u64)> = Vec::new();
        for (name, v) in &snap.counters {
            if let Some(rest) = name.strip_prefix("serve.tenant.") {
                if let Some((tenant, leaf)) = rest.split_once('.') {
                    tenant_counters.entry(leaf).or_default().push((tenant, *v));
                }
            } else if let Some(rest) = name.strip_prefix("serve.http.req.") {
                if let Some((route, status)) = rest.split_once('.') {
                    http.push((route, status, *v));
                }
            }
        }
        for (leaf, family, help) in TENANT_COUNTERS {
            let Some(rows) = tenant_counters.get(leaf) else { continue };
            doc.family(family, "counter", help);
            for (tenant, v) in rows {
                doc.sample(family, &[("tenant", tenant)], *v);
            }
        }
        if !http.is_empty() {
            let family = "graphite_serve_http_requests_total";
            doc.family(family, "counter", "HTTP requests by route class and status.");
            for (route, status, v) in http {
                doc.sample(family, &[("route", route), ("status", status)], v);
            }
        }

        let mut tenant_hists: BTreeMap<&str, Vec<(&str, &HistogramSnapshot)>> = BTreeMap::new();
        for (name, h) in &snap.histograms {
            if let Some(rest) = name.strip_prefix("serve.tenant.") {
                if let Some((tenant, leaf)) = rest.split_once('.') {
                    tenant_hists.entry(leaf).or_default().push((tenant, h));
                }
            }
        }
        for (leaf, family, help) in TENANT_HISTS {
            let Some(rows) = tenant_hists.get(leaf) else { continue };
            doc.family(family, "histogram", help);
            for (tenant, h) in rows {
                doc.histogram(family, &[("tenant", tenant)], h);
            }
        }
        for (key, family, help) in GLOBAL_HISTS {
            let Some(h) = snap.histograms.get(*key) else { continue };
            doc.family(family, "histogram", help);
            doc.histogram(family, &[], h);
        }
        doc.finish()
    }

    /// The `/stats` latency section: count/mean/p50/p95/p99 (milliseconds)
    /// for the global queue-wait, run-time and end-to-end histograms. `None`
    /// when telemetry is off.
    pub fn latency_json(&self) -> Option<Json> {
        if !self.enabled {
            return None;
        }
        let snap = self.reg.snapshot();
        let section =
            |key: &str| hist_summary_json(snap.histograms.get(key).cloned().unwrap_or_default());
        Some(obj([
            ("queue_wait", section("serve.queue_wait_us")),
            ("run", section("serve.run_us")),
            ("e2e", section("serve.e2e_us")),
        ]))
    }

    /// The `/stats` preemption-cost section: park/resume counts and the cost
    /// totals (milliseconds / bytes). `None` when telemetry is off.
    pub fn preempt_json(&self) -> Option<Json> {
        if !self.enabled {
            return None;
        }
        let snap = self.reg.snapshot();
        let ctr = |key: &str| snap.counters.get(key).copied().unwrap_or(0);
        let ms = |key: &str| Json::from(ctr(key) as f64 / 1e3);
        Some(obj([
            ("parks", ctr("serve.preempt.count").into()),
            ("resumes", ctr("serve.preempt.resumes").into()),
            ("serialize_ms_total", ms("serve.preempt.serialize_us_total")),
            ("ckpt_bytes_total", ctr("serve.preempt.ckpt_bytes_total").into()),
            ("restore_ms_total", ms("serve.preempt.restore_us_total")),
            ("requeue_gap_ms_total", ms("serve.preempt.requeue_gap_us_total")),
        ]))
    }

    /// The `/stats` per-tenant section: an object keyed by tenant with job
    /// counts and queue-wait / run / e2e summaries. `None` when telemetry is
    /// off. Covers every tenant ever seen, unlike the scheduler's lane rows
    /// which are garbage-collected when idle.
    pub fn tenants_json(&self) -> Option<Json> {
        if !self.enabled {
            return None;
        }
        let snap = self.reg.snapshot();
        let mut per: BTreeMap<String, Vec<(String, Json)>> = BTreeMap::new();
        for (name, v) in &snap.counters {
            let Some(rest) = name.strip_prefix("serve.tenant.") else { continue };
            let Some((tenant, leaf)) = rest.split_once('.') else { continue };
            if ["submitted", "completed", "failed", "canceled", "preemptions"].contains(&leaf) {
                per.entry(tenant.to_owned()).or_default().push((leaf.to_owned(), (*v).into()));
            }
        }
        for (name, h) in &snap.histograms {
            let Some(rest) = name.strip_prefix("serve.tenant.") else { continue };
            let Some((tenant, leaf)) = rest.split_once('.') else { continue };
            let section = match leaf {
                "queue_wait_us" => "queue_wait",
                "run_us" => "run",
                "e2e_us" => "e2e",
                _ => continue,
            };
            per.entry(tenant.to_owned())
                .or_default()
                .push((section.to_owned(), hist_summary_json(h.clone())));
        }
        Some(Json::Obj(per.into_iter().map(|(t, m)| (t, Json::Obj(m))).collect()))
    }
}

/// Renders the shared host-cost profiler snapshot as a `graphite_host_*`
/// section: one sample per active stage, labeled `stage="sched.handoff"` etc.
/// Appended to `/metrics` after the service families when `[serve] hostprof`
/// is on — concatenation is safe because the family names are disjoint.
pub fn host_prometheus(h: &graphite_base::HostProfSnapshot) -> String {
    let mut doc = PromText::new();
    doc.family("graphite_host_wall_ns", "gauge", "Wall time covered by the host profiler.");
    doc.sample("graphite_host_wall_ns", &[], h.wall_ns);
    doc.family("graphite_host_sample_interval", "gauge", {
        "1-in-N sampling interval for span timing (counts are exact)."
    });
    doc.sample("graphite_host_sample_interval", &[], u64::from(h.sample));
    doc.family("graphite_host_events_dropped", "gauge", {
        "Host timeline events dropped at the ring capacity."
    });
    doc.sample("graphite_host_events_dropped", &[], h.dropped_events);
    let live: Vec<_> = h.stages.iter().filter(|s| s.count > 0).collect();
    doc.family("graphite_host_stage_ops_total", "counter", "Operations entering each host stage.");
    for s in &live {
        doc.sample("graphite_host_stage_ops_total", &[("stage", s.stage.name())], s.count);
    }
    doc.family("graphite_host_stage_timed_total", "counter", {
        "Sampled (clock-timed) operations per host stage."
    });
    for s in &live {
        doc.sample("graphite_host_stage_timed_total", &[("stage", s.stage.name())], s.timed);
    }
    doc.family("graphite_host_stage_self_ns_total", "counter", {
        "Sampled self nanoseconds per host stage (children excluded)."
    });
    for s in &live {
        doc.sample("graphite_host_stage_self_ns_total", &[("stage", s.stage.name())], s.self_ns);
    }
    doc.family("graphite_host_stage_est_self_ns", "gauge", {
        "Estimated total self nanoseconds per host stage (sampled x interval)."
    });
    for s in &live {
        let est = s.est_self_ns() as u64;
        doc.sample("graphite_host_stage_est_self_ns", &[("stage", s.stage.name())], est);
    }
    doc.finish()
}

/// Summarizes a microsecond histogram as milliseconds for `/stats`.
fn hist_summary_json(h: HistogramSnapshot) -> Json {
    let q = |p: f64| Json::from(h.quantile(p) as f64 / 1e3);
    obj([
        ("count", h.count.into()),
        ("mean_ms", (h.mean() / 1e3).into()),
        ("p50_ms", q(0.5)),
        ("p95_ms", q(0.95)),
        ("p99_ms", q(0.99)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_trace::expo;

    fn exercised() -> Telemetry {
        let t = Telemetry::new(true);
        t.record_submit("acme");
        t.record_submit("globex");
        t.record_dispatch("acme", Duration::from_millis(4), false);
        t.record_slice(Duration::from_millis(30), Some(Duration::from_millis(5)));
        t.record_park("acme", Duration::from_micros(800), 64 * 1024);
        t.record_dispatch("acme", Duration::from_millis(2), true);
        t.record_restore("acme", Duration::from_micros(1_200));
        t.record_terminal("acme", JobState::Completed, Duration::from_millis(60), {
            Duration::from_millis(45)
        });
        t.record_dispatch("globex", Duration::from_millis(1), false);
        t.record_terminal("globex", JobState::Failed, Duration::from_millis(9), {
            Duration::from_millis(8)
        });
        t.record_http("jobs", 202, Duration::from_micros(300));
        t.record_http("job", 200, Duration::from_micros(150));
        t.set_levels(3, 1);
        t
    }

    #[test]
    fn prometheus_document_is_valid_and_labeled() {
        let t = exercised();
        let live = LiveStats {
            queued: 3,
            running: 1,
            oldest_queued_age_ms: 120,
            running_slice_age_ms: 15,
            draining: false,
            uptime_ms: 5_000,
        };
        let text = t.prometheus(&live);
        expo::validate(&text).unwrap();
        assert!(text.contains("graphite_serve_queue_depth 3"), "{text}");
        assert!(text.contains("graphite_serve_jobs_submitted_total{tenant=\"acme\"} 1"), "{text}");
        assert!(text.contains("graphite_serve_preemptions_total{tenant=\"acme\"} 1"), "{text}");
        assert!(
            text.contains("graphite_serve_http_requests_total{route=\"jobs\",status=\"202\"} 1"),
            "{text}"
        );
        assert!(text.contains("graphite_serve_queue_wait_us_bucket{tenant=\"acme\""), "{text}");
        assert!(text.contains("graphite_serve_slice_overrun_us_count 1"), "{text}");
        assert!(text.contains("graphite_serve_preempt_ckpt_bytes_total{tenant=\"acme\""), "{text}");
    }

    #[test]
    fn disabled_telemetry_renders_only_live_gauges() {
        let t = Telemetry::new(false);
        t.record_submit("acme"); // no-op
        let text = t.prometheus(&LiveStats { draining: true, ..LiveStats::default() });
        expo::validate(&text).unwrap();
        assert!(text.contains("graphite_serve_draining 1"), "{text}");
        assert!(!text.contains("tenant="), "{text}");
        assert!(t.latency_json().is_none());
        assert!(t.preempt_json().is_none());
        assert!(t.tenants_json().is_none());
    }

    #[test]
    fn hostile_tenant_names_render_escaped_and_valid() {
        // The HTTP layer validates tenants to [A-Za-z0-9_-], but telemetry
        // must stay injection-safe on its own: quotes, backslashes, and
        // newlines in a tenant name may not break the exposition or let two
        // tenants collide into one series.
        let t = Telemetry::new(true);
        let evil = r#"evil"ten\ant"#;
        let evil_nl = "two\nlines";
        t.record_submit(evil);
        t.record_submit(evil_nl);
        t.record_terminal(evil, JobState::Completed, Duration::from_millis(3), {
            Duration::from_millis(2)
        });
        let text = t.prometheus(&LiveStats::default());
        expo::validate(&text).unwrap();
        assert!(text.contains(r#"tenant="evil\"ten\\ant""#), "quote and backslash escaped: {text}");
        assert!(text.contains(r#"tenant="two\nlines""#), "newline escaped: {text}");
        // Distinct hostile tenants stay distinct series.
        let submitted: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("graphite_serve_jobs_submitted_total{"))
            .collect();
        assert_eq!(submitted.len(), 2, "{text}");
    }

    #[test]
    fn host_section_is_valid_and_stage_labeled() {
        use graphite_base::{HostProf, HostStage};
        let p = HostProf::new(1, 64);
        p.register_thread("test");
        {
            let _miss = p.span(HostStage::MissTotal);
            let _dir = p.span(HostStage::DirLookup);
        }
        p.record(HostStage::SchedSlotRun, 0, 500);
        let text = host_prometheus(&p.snapshot());
        expo::validate(&text).unwrap();
        assert!(text.contains("graphite_host_sample_interval 1"), "{text}");
        assert!(
            text.contains("graphite_host_stage_ops_total{stage=\"mem.miss_total\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("graphite_host_stage_ops_total{stage=\"sched.slot_run\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("graphite_host_stage_self_ns_total{stage=\"mem.dir_lookup\""),
            "{text}"
        );
    }

    #[test]
    fn stats_sections_summarize_in_milliseconds() {
        let t = exercised();
        let latency = t.latency_json().unwrap();
        let e2e = latency.get("e2e").unwrap();
        assert_eq!(e2e.get("count").unwrap().as_u64(), Some(2));
        assert!(e2e.get("p99_ms").unwrap().as_f64().unwrap() >= 60.0);
        let preempt = t.preempt_json().unwrap();
        assert_eq!(preempt.get("parks").unwrap().as_u64(), Some(1));
        assert_eq!(preempt.get("resumes").unwrap().as_u64(), Some(1));
        assert_eq!(preempt.get("ckpt_bytes_total").unwrap().as_u64(), Some(64 * 1024));
        assert!(preempt.get("serialize_ms_total").unwrap().as_f64().unwrap() > 0.0);
        let tenants = t.tenants_json().unwrap();
        let acme = tenants.get("acme").unwrap();
        assert_eq!(acme.get("submitted").unwrap().as_u64(), Some(1));
        assert_eq!(acme.get("completed").unwrap().as_u64(), Some(1));
        assert_eq!(acme.get("queue_wait").unwrap().get("count").unwrap().as_u64(), Some(2));
        let globex = tenants.get("globex").unwrap();
        assert_eq!(globex.get("failed").unwrap().as_u64(), Some(1));
    }
}
