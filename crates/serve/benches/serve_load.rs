//! Service load test: hundreds of concurrent small jobs through the full
//! HTTP path, plus the headline fairness experiment — p99 latency of short
//! jobs submitted behind a long job, with checkpoint preemption on vs off.
//!
//! Results go to `BENCH_serve.json` at the repo root (override with
//! `GRAPHITE_SERVE_OUT`). Knobs for CI smoke runs:
//!
//! * `GRAPHITE_SERVE_JOBS` — small jobs in the throughput phase (default 240)
//! * `GRAPHITE_SERVE_WORKERS` — worker pool width (default 2)
//! * `GRAPHITE_SERVE_SHORT_ITERS` / `GRAPHITE_SERVE_LONG_ITERS` — job sizes
//! * `GRAPHITE_SERVE_BUDGET_S` — exit non-zero when total wall time exceeds
//!   the budget (same contract as the scale bench)

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphite_config::ServeConfig;
use graphite_serve::{server, Json, Service};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status");
    let status: u16 = status_line.split_whitespace().nth(1).expect("code").parse().expect("code");
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).expect("header");
        if h.trim_end().is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().expect("length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf8"))
}

fn submit(addr: std::net::SocketAddr, tenant: &str, iters: u64, seed: u64) -> u64 {
    let body = format!(
        r#"{{"tenant":"{tenant}","workload":"spin","iters":{iters},"work":50,"seed":{seed}}}"#
    );
    let (status, reply) = http(addr, "POST", "/jobs", &body);
    assert_eq!(status, 202, "submit failed: {reply}");
    Json::parse(&reply).expect("reply").get("id").expect("id").as_u64().expect("id")
}

/// Polls the service until every listed job completes; returns each job's
/// submit→complete latency in milliseconds.
fn await_all(svc: &Service, ids: &[u64], timeout: Duration) -> Vec<f64> {
    let deadline = Instant::now() + timeout;
    let mut latencies = vec![None; ids.len()];
    while latencies.iter().any(Option::is_none) {
        assert!(Instant::now() < deadline, "jobs did not complete in {timeout:?}");
        for (slot, &id) in latencies.iter_mut().zip(ids) {
            if slot.is_some() {
                continue;
            }
            let doc = svc.job_json(id).expect("job exists");
            match doc.get("state").and_then(Json::as_str) {
                Some("completed") => {
                    *slot = Some(doc.get("latency_ms").expect("latency").as_f64().expect("ms"));
                }
                Some("failed") | Some("canceled") => panic!("job {id} died: {}", doc.encode()),
                _ => {}
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    latencies.into_iter().flatten().collect()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct Percentiles {
    p50: f64,
    p90: f64,
    p99: f64,
    max: f64,
}

fn percentiles(mut latencies: Vec<f64>) -> Percentiles {
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Percentiles {
        p50: percentile(&latencies, 50.0),
        p90: percentile(&latencies, 90.0),
        p99: percentile(&latencies, 99.0),
        max: *latencies.last().expect("non-empty"),
    }
}

fn boot(
    workers: u32,
    quantum_ms: u64,
    telemetry: bool,
    dir: &str,
) -> (Arc<Service>, std::net::SocketAddr) {
    let data_dir = std::env::temp_dir().join(dir);
    let _ = std::fs::remove_dir_all(&data_dir);
    let cfg = ServeConfig {
        workers,
        quantum_ms,
        queue_depth: 4096,
        max_body_bytes: 1 << 20,
        drain_ms: 10_000,
        telemetry,
        log_level: graphite_config::LogLevel::Error,
        log_max_bytes: 0,
        hostprof: false,
    };
    let svc = Service::start(cfg, &data_dir).expect("start service");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || server::serve_on(svc, listener).expect("serve"));
    }
    (svc, addr)
}

/// Phase A: throughput — `jobs` small jobs from 3 tenants submitted by 6
/// concurrent HTTP clients. Also the telemetry-overhead probe: the same
/// batch runs with telemetry on (default) or off (`--no-telemetry`).
fn throughput(
    jobs: u64,
    workers: u32,
    short_iters: u64,
    telemetry: bool,
    dir: &str,
) -> (f64, f64, Percentiles) {
    let (svc, addr) = boot(workers, 25, telemetry, dir);
    let t0 = Instant::now();
    let submitters: Vec<_> = (0..6u64)
        .map(|c| {
            let per_client = jobs / 6 + u64::from(c < jobs % 6);
            std::thread::spawn(move || {
                let tenant = ["acme", "globex", "initech"][(c % 3) as usize];
                (0..per_client)
                    .map(|j| submit(addr, tenant, short_iters, c * 1_000 + j))
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    let ids: Vec<u64> = submitters.into_iter().flat_map(|h| h.join().expect("submitter")).collect();
    assert_eq!(ids.len() as u64, jobs);
    let latencies = await_all(&svc, &ids, Duration::from_secs(600));
    let wall = t0.elapsed().as_secs_f64();
    svc.drain();
    (wall, jobs as f64 / wall, percentiles(latencies))
}

/// Phase B: fairness — `shorts` short jobs submitted right after enough
/// long jobs to saturate the worker pool (the worst head-of-line case).
/// Returns short-job percentiles, the first long job's preemption count,
/// and its final `sim_cycles`.
fn fairness(
    quantum_ms: u64,
    workers: u32,
    shorts: u64,
    short_iters: u64,
    long_iters: u64,
    dir: &str,
) -> (Percentiles, u64, u64) {
    let (svc, addr) = boot(workers, quantum_ms, true, dir);
    // One long job per worker saturates the pool...
    let long_ids: Vec<u64> =
        (0..workers as u64).map(|w| submit(addr, "heavy", long_iters, 1 + w)).collect();
    std::thread::sleep(Duration::from_millis(20));
    // ...then the short jobs pile in behind them.
    let short_ids: Vec<u64> =
        (0..shorts).map(|j| submit(addr, "light", short_iters, 100 + j)).collect();
    let latencies = await_all(&svc, &short_ids, Duration::from_secs(600));
    let long_lat = await_all(&svc, &long_ids, Duration::from_secs(600));
    assert_eq!(long_lat.len(), long_ids.len());
    let doc = svc.job_json(long_ids[0]).expect("long job");
    let preemptions = doc.get("preemptions").expect("field").as_u64().expect("count");
    let sim_cycles = doc.get("sim_cycles").expect("field").as_u64().expect("cycles");
    svc.drain();
    (percentiles(latencies), preemptions, sim_cycles)
}

fn pct_json(p: &Percentiles) -> String {
    format!(
        "{{\"p50_ms\": {:.1}, \"p90_ms\": {:.1}, \"p99_ms\": {:.1}, \"max_ms\": {:.1}}}",
        p.p50, p.p90, p.p99, p.max
    )
}

fn main() {
    let jobs = env_u64("GRAPHITE_SERVE_JOBS", 240);
    let workers = env_u64("GRAPHITE_SERVE_WORKERS", 2) as u32;
    let short_iters = env_u64("GRAPHITE_SERVE_SHORT_ITERS", 60_000);
    let long_iters = env_u64("GRAPHITE_SERVE_LONG_ITERS", 30_000_000);
    let out_path = std::env::var("GRAPHITE_SERVE_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_serve.json", env!("CARGO_MANIFEST_DIR")));
    let t0 = Instant::now();

    println!("serve load: {jobs} jobs, {workers} workers, short={short_iters} long={long_iters}");
    // A warm-up batch absorbs first-run effects (page cache, allocator,
    // thread spawn); the on/off comparison then alternates configurations and
    // takes each one's median of three runs — single 2-second runs swing by
    // ±20%, far above any real telemetry cost.
    let _ = throughput((jobs / 4).max(12), workers, short_iters, true, "graphite-serve-bench-warm");
    let mut on_runs = Vec::new();
    let mut off_runs = Vec::new();
    for i in 0..3u32 {
        let dir = format!("graphite-serve-bench-tput-{i}");
        on_runs.push(throughput(jobs, workers, short_iters, true, &dir));
        let dir = format!("graphite-serve-bench-tput-raw-{i}");
        off_runs.push(throughput(jobs, workers, short_iters, false, &dir));
    }
    let median = |mut runs: Vec<(f64, f64, Percentiles)>| {
        runs.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        runs.swap_remove(runs.len() / 2)
    };
    let (tput_wall, jobs_per_s, tput) = median(on_runs);
    println!(
        "  throughput: {jobs} jobs in {tput_wall:.2}s = {jobs_per_s:.1} jobs/s, \
         p50 {:.0}ms p90 {:.0}ms p99 {:.0}ms",
        tput.p50, tput.p90, tput.p99
    );

    // Telemetry overhead: the identical batch with recording disabled.
    let (_, raw_jobs_per_s, raw) = median(off_runs);
    let overhead_pct = (raw_jobs_per_s / jobs_per_s - 1.0) * 100.0;
    println!(
        "  telemetry off: {raw_jobs_per_s:.1} jobs/s, p99 {:.0}ms \
         (telemetry overhead {overhead_pct:+.1}% jobs/s)",
        raw.p99
    );

    let shorts = (jobs / 8).max(8);
    let (on, on_preempts, on_cycles) =
        fairness(25, workers, shorts, short_iters, long_iters, "graphite-serve-bench-fair-on");
    println!(
        "  fairness ON  (25ms quantum): short p99 {:.0}ms, long preempted {on_preempts}x",
        on.p99
    );
    let (off, off_preempts, off_cycles) =
        fairness(0, workers, shorts, short_iters, long_iters, "graphite-serve-bench-fair-off");
    println!("  fairness OFF (fifo):         short p99 {:.0}ms", off.p99);
    assert_eq!(off_preempts, 0, "quantum 0 must never preempt");
    assert!(on_preempts >= 1, "the long job must be preempted with a 25ms quantum");
    assert_eq!(
        on_cycles, off_cycles,
        "preempted+resumed long job must report bit-identical sim_cycles"
    );
    println!(
        "  long-job sim_cycles identical on/off: {on_cycles} \
         (p99 win: {:.0}ms -> {:.0}ms)",
        off.p99, on.p99
    );

    let doc = format!(
        concat!(
            "{{\n  \"schema\": \"graphite.bench.serve.v1\",\n",
            "  \"workers\": {workers},\n  \"short_iters\": {short_iters},\n",
            "  \"long_iters\": {long_iters},\n",
            "  \"throughput\": {{\"jobs\": {jobs}, \"wall_s\": {wall:.2}, ",
            "\"jobs_per_s\": {jps:.1}, \"latency\": {tp}}},\n",
            "  \"telemetry_overhead\": {{\"jobs_per_s_on\": {jps:.1}, ",
            "\"jobs_per_s_off\": {rjps:.1}, \"p99_ms_on\": {tp99:.1}, ",
            "\"p99_ms_off\": {rp99:.1}, \"overhead_pct\": {ovh:.1}}},\n",
            "  \"fairness\": {{\n",
            "    \"short_jobs\": {shorts},\n",
            "    \"preemption_on\": {{\"quantum_ms\": 25, \"short_latency\": {onp}, ",
            "\"long_preemptions\": {onn}, \"long_sim_cycles\": {onc}}},\n",
            "    \"preemption_off\": {{\"quantum_ms\": 0, \"short_latency\": {offp}, ",
            "\"long_preemptions\": 0, \"long_sim_cycles\": {offc}}},\n",
            "    \"long_sim_cycles_identical\": {ident},\n",
            "    \"short_p99_speedup\": {speedup:.2}\n  }}\n}}\n"
        ),
        workers = workers,
        short_iters = short_iters,
        long_iters = long_iters,
        jobs = jobs,
        wall = tput_wall,
        jps = jobs_per_s,
        rjps = raw_jobs_per_s,
        tp99 = tput.p99,
        rp99 = raw.p99,
        ovh = overhead_pct,
        tp = pct_json(&tput),
        shorts = shorts,
        onp = pct_json(&on),
        onn = on_preempts,
        onc = on_cycles,
        offp = pct_json(&off),
        offc = off_cycles,
        ident = on_cycles == off_cycles,
        speedup = off.p99 / on.p99.max(0.001),
    );
    std::fs::write(&out_path, &doc).expect("write BENCH_serve.json");
    println!("wrote {out_path}");

    if let Ok(budget) = std::env::var("GRAPHITE_SERVE_BUDGET_S") {
        if let Ok(budget_s) = budget.parse::<f64>() {
            let total = t0.elapsed().as_secs_f64();
            if total > budget_s {
                eprintln!("serve bench exceeded budget: {total:.1}s > {budget_s:.1}s");
                std::process::exit(1);
            }
            println!("within budget: {total:.1}s <= {budget_s:.1}s");
        }
    }
}
