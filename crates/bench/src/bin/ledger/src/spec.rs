//! What the benchmark declares: workload and metric names, units,
//! directions and bounds, and the output counts frozen for the default seed.
//!
//! `BENCHMARK.json` at the repo root states the same thing for the driver; a
//! test below keeps the two from drifting apart.

use crate::workloads::{Counts, Scale};

/// The seed `ledger run` uses when none is given, and the one the frozen
/// counts below were recorded with.
pub const DEFAULT_SEED: u64 = 42;

/// How long one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// `selfcheck` does not call a `setup_s` pair a regression when the two runs
/// differ by less than this many seconds: set-up is a few milliseconds of
/// thread creation, and one pair of runs cannot resolve a quarter of that.
pub const SETUP_FLOOR_S: f64 = 0.010;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. End-to-end metrics carry the share of the parent's
/// median by which they may worsen before a change is a regression;
/// per-layer metrics are never gated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

/// Workload names and why each exists (one line each).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "blackscholes_hit",
        "99.9% L1/L2 hits on 16 tiles: guest-API dispatch, the core model and the memory hit path do the work, the miss path almost none",
    ),
    (
        "rand_miss",
        "seeded random 8-byte accesses over a 64 MiB arena on 4 tiles: 95% miss through MSHR, eviction, directory, network and DRAM",
    ),
    (
        "radix_share",
        "radix sort of 2^18 keys on 8 tiles: scatter writes with false sharing, so upgrades and invalidation fan-out dominate the misses",
    ),
    (
        "ocean_barrier",
        "ocean 258x258 on 64 tiles under LaxBarrier(1000): about three quarters of wall is quantum rendezvous plus scheduler park/handoff",
    ),
    (
        "msg_ring_tcp",
        "one token, 2800 laps round 8 tiles in 4 processes over TCP loopback: transport and the user network model work, memory does none",
    ),
    (
        "serve_mix",
        "the built graphite-serve over HTTP: a closed burst of short jobs, then short jobs paced open-loop behind two checkpoint-preempted long jobs",
    ),
];

use Better::{Higher, Lower};

/// The metrics a user of the system sees; every workload reports all five.
pub const END_TO_END: [Metric; 5] = [
    e2e("wall_s", "s", Lower, 0.25),
    e2e("jobs_per_s", "1/s", Higher, 0.25),
    e2e("short_p90_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Metrics of single layers: the ladder rungs, then what the traced run of
/// the named workload adds.
pub const PER_LAYER: [Metric; 43] = [
    layer("core.ctx_op_ns", "ns", Lower),
    layer("core-model.issue_ns", "ns", Lower),
    layer("memory.l1_hit_ns", "ns", Lower),
    layer("memory.l2_hit_ns", "ns", Lower),
    layer("memory.miss_ns", "ns", Lower),
    layer("memory.inval_ns", "ns", Lower),
    layer("network.route_ns", "ns", Lower),
    layer("sync.barrier_quantum_ns", "ns", Lower),
    layer("sync.p2p_check_ns", "ns", Lower),
    layer("sync.barrier_share", "ratio", Lower),
    layer("sched.handoff_ns", "ns", Lower),
    layer("sched.gated_burst_s", "s", Lower),
    layer("transport.tcp_rtt_us", "us", Lower),
    layer("transport.local_rtt_us", "us", Lower),
    layer("ckpt.save_mbps", "MB/s", Higher),
    layer("ckpt.restore_mbps", "MB/s", Higher),
    layer("serve.submit_ms", "ms", Lower),
    layer("serve.submit_keepalive_ms", "ms", Lower),
    layer("serve.park_ms", "ms", Lower),
    layer("serve.resume_ms", "ms", Lower),
    layer("serve.ckpt_bytes", "bytes", Lower),
    layer("serve.queue_wait_ms", "ms", Lower),
    layer("count.accesses", "count", Lower),
    layer("count.misses", "count", Lower),
    layer("count.miss_rate", "ratio", Lower),
    layer("count.invalidations", "count", Lower),
    layer("count.net_packets", "count", Lower),
    layer("count.net_hops", "count", Lower),
    layer("count.barrier_releases", "count", Lower),
    layer("count.user_msgs", "count", Lower),
    layer("count.sched_parks", "count", Lower),
    layer("count.sched_handoffs", "count", Lower),
    layer("count.sched_steals", "count", Lower),
    layer("count.threads_peak", "count", Lower),
    layer("model.sim_cycles_spread", "ratio", Lower),
    layer("trace_overhead_pct", "%", Lower),
    layer("attributed_share", "ratio", Higher),
    layer("hostprof.miss_attribution", "ratio", Higher),
    layer("hostprof.busy_frac", "ratio", Higher),
    layer("hostprof.overhead_frac", "ratio", Lower),
    layer("hostprof.idle_frac", "ratio", Lower),
    layer("hostprof.top_stage_self_ns", "ns", Lower),
    layer("trace.spans", "count", Higher),
];

/// Number of ladder rungs at the head of [`PER_LAYER`].
pub const LADDER_RUNGS: usize = 22;

/// The exact-count outputs frozen for [`DEFAULT_SEED`]: `accesses` and
/// `user_msgs` repeat exactly run to run on every workload; `sim_cycles`
/// only where simulated time is a pure function of the program.
pub fn frozen_counts(workload: &str, scale: Scale) -> Option<Counts> {
    let c = |accesses, user_msgs, sim_cycles| Some(Counts { accesses, user_msgs, sim_cycles });
    match (workload, scale) {
        ("blackscholes_hit", Scale::Full) => c(12_839_422, 0, None),
        ("blackscholes_hit", Scale::Warm) => c(639_558, 0, None),
        ("rand_miss", Scale::Full) => c(520_002, 0, None),
        ("rand_miss", Scale::Warm) => c(26_002, 0, None),
        ("radix_share", Scale::Full) => c(6_825_676, 0, None),
        ("radix_share", Scale::Warm) => c(350_714, 0, None),
        ("ocean_barrier", Scale::Full) => c(3_088_368, 0, None),
        ("ocean_barrier", Scale::Warm) => c(461_776, 0, None),
        ("msg_ring_tcp", Scale::Full) => c(0, 22_400, Some(150_765)),
        ("msg_ring_tcp", Scale::Warm) => c(0, 1_120, Some(12_445)),
        _ => None,
    }
}

/// `ledger list`: everything declared, one item per line.
pub fn listing() -> String {
    let mut out = String::new();
    out.push_str(&format!("run_seconds {RUN_SECONDS}\ndefault_seed {DEFAULT_SEED}\n"));
    for (name, why) in WORKLOADS {
        out.push_str(&format!("workload {name}: {why}\n"));
    }
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics are bounded");
        out.push_str(&format!(
            "end_to_end {} unit={} better={} bound={bound}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    for m in PER_LAYER {
        out.push_str(&format!(
            "per_layer {} unit={} better={}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_serve::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
        j.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("missing {key}"))
    }

    /// What `listing()` would print, rebuilt from `BENCHMARK.json`.
    fn listing_from_json(doc: &Json) -> String {
        let mut out = format!(
            "run_seconds {}\ndefault_seed {DEFAULT_SEED}\n",
            doc.get("run_seconds").and_then(Json::as_u64).expect("run_seconds")
        );
        for w in doc.get("workloads").and_then(Json::as_arr).expect("workloads") {
            out.push_str(&format!("workload {}: {}\n", str_of(w, "name"), str_of(w, "why")));
        }
        for m in doc.get("end_to_end").and_then(Json::as_arr).expect("end_to_end") {
            out.push_str(&format!(
                "end_to_end {} unit={} better={} bound={}\n",
                str_of(m, "name"),
                str_of(m, "unit"),
                str_of(m, "better"),
                m.get("bound").and_then(Json::as_f64).expect("bound")
            ));
        }
        for m in doc.get("per_layer").and_then(Json::as_arr).expect("per_layer") {
            out.push_str(&format!(
                "per_layer {} unit={} better={}\n",
                str_of(m, "name"),
                str_of(m, "unit"),
                str_of(m, "better")
            ));
        }
        out
    }

    #[test]
    fn listing_equals_what_benchmark_json_declares() {
        assert_eq!(listing(), listing_from_json(&benchmark_json()));
    }

    #[test]
    fn benchmark_json_has_exactly_the_contract_keys_and_points_here() {
        let doc = benchmark_json();
        let Json::Obj(members) = &doc else { panic!("not an object") };
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        let paths: Vec<&str> = doc
            .get("paths")
            .and_then(Json::as_arr)
            .expect("paths")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(paths, ["crates/bench/src/bin/ledger"]);
        assert!(env!("CARGO_MANIFEST_DIR").ends_with(paths[0]));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(ok_name(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is {} chars", why.len());
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{}: unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
        assert!(PER_LAYER[LADDER_RUNGS - 1].name.starts_with("serve."));
        assert!(PER_LAYER[LADDER_RUNGS].name.starts_with("count."));
    }
}
