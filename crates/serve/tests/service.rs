//! End-to-end acceptance tests for `graphite-serve`.
//!
//! The headline scenario from the service's design: three tenants each
//! submit a stream of short jobs while one tenant holds a long job, on two
//! workers. With preemption on, the long job is checkpoint-parked at guest
//! quiesce points whenever short work waits, resumes later, and still
//! finishes with *bit-identical* results to an uninterrupted run.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphite_config::ServeConfig;
use graphite_serve::{server, workload, JobSpec, Json, Service};

fn cfg(workers: u32, quantum_ms: u64) -> ServeConfig {
    ServeConfig {
        workers,
        quantum_ms,
        queue_depth: 256,
        max_body_bytes: 1 << 20,
        drain_ms: 10_000,
        log_level: graphite_config::LogLevel::Info,
        log_max_bytes: 0,
        hostprof: false,
    }
}

fn spec(tenant: &str, workload: &str, iters: u64, seed: u64) -> JobSpec {
    JobSpec {
        tenant: tenant.into(),
        workload: workload.into(),
        iters,
        work: 50,
        tiles: 2,
        seed,
        trace: false,
    }
}

fn wait_state(svc: &Service, id: u64, want: &str, timeout: Duration) -> Json {
    let deadline = Instant::now() + timeout;
    loop {
        let doc = svc.job_json(id).expect("job exists");
        let state = doc.get("state").unwrap().as_str().unwrap().to_owned();
        if state == want {
            return doc;
        }
        assert!(
            !matches!(state.as_str(), "failed" | "canceled"),
            "job {id} reached {state}: {}",
            doc.encode()
        );
        assert!(Instant::now() < deadline, "job {id} stuck in {state}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Three tenants of short jobs + one long job on two workers, preemption on:
/// every job completes, the long job is parked and resumed at least once, and
/// its artifacts are bit-identical to a direct, never-preempted run.
#[test]
fn multi_tenant_preemption_is_fair_and_bit_identical() {
    let dir = std::env::temp_dir().join("graphite-serve-e2e-fair");
    let _ = std::fs::remove_dir_all(&dir);

    // Golden: the long job run directly, no service, no preemption.
    let long_spec = spec("heavy", "spin", 1_000_000, 42);
    let golden = workload::build_sim(&long_spec)
        .unwrap()
        .build()
        .unwrap()
        .run(|ctx| workload::run(&long_spec, ctx));

    let svc = Service::start(cfg(2, 25), &dir).unwrap();
    let long_id = svc.submit(long_spec.clone()).unwrap();
    // The shorts together run several quanta on one worker, so some are
    // still queued when the long job's first quantum expires — however
    // fast the host builds and runs a job.
    let mut short_ids = Vec::new();
    for (t, tenant) in ["acme", "globex", "initech"].iter().enumerate() {
        for j in 0..6u64 {
            let s = spec(tenant, "spin", 100_000, 100 + t as u64 * 10 + j);
            short_ids.push(svc.submit(s).unwrap());
        }
    }

    for id in &short_ids {
        wait_state(&svc, *id, "completed", Duration::from_secs(60));
    }
    let long_doc = wait_state(&svc, long_id, "completed", Duration::from_secs(120));

    let preemptions = long_doc.get("preemptions").unwrap().as_u64().unwrap();
    assert!(
        preemptions >= 1,
        "the long job must have been checkpoint-preempted at least once: {}",
        long_doc.encode()
    );
    // Bit-identical despite N park/resume cycles.
    assert_eq!(
        long_doc.get("sim_cycles").unwrap().as_u64().unwrap(),
        golden.simulated_cycles.0,
        "preempted+resumed sim_cycles diverged from the uninterrupted run"
    );
    assert_eq!(
        svc.artifact(long_id, "metrics").unwrap().unwrap(),
        golden.metrics_json(),
        "preempted+resumed metrics diverged from the uninterrupted run"
    );
    svc.drain();
}

/// With preemption *off*, the same mix leaves short jobs stuck behind the
/// long one; with it on, they finish first. This is the fairness win the
/// scheduler exists for (the ledger's `serve_mix` workload measures the
/// latency distribution).
#[test]
fn preemption_unblocks_short_jobs_behind_a_long_one() {
    let run = |quantum_ms: u64, dir: &str| -> (Duration, u64) {
        let dir = std::env::temp_dir().join(dir);
        let _ = std::fs::remove_dir_all(&dir);
        // One worker so the long job occupies the only slot.
        let svc = Service::start(cfg(1, quantum_ms), &dir).unwrap();
        let long_id = svc.submit(spec("heavy", "spin", 1_500_000, 1)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let short_id = svc.submit(spec("light", "spin", 5_000, 2)).unwrap();
        let t0 = Instant::now();
        wait_state(&svc, short_id, "completed", Duration::from_secs(120));
        let short_latency = t0.elapsed();
        let long_doc = wait_state(&svc, long_id, "completed", Duration::from_secs(120));
        svc.drain();
        (short_latency, long_doc.get("preemptions").unwrap().as_u64().unwrap())
    };

    let (with_preempt, preemptions) = run(25, "graphite-serve-e2e-on");
    let (without, zero) = run(0, "graphite-serve-e2e-off");
    assert!(preemptions >= 1, "quantum 25ms must preempt a ~1.2s job");
    assert_eq!(zero, 0, "quantum 0 disables preemption");
    assert!(
        with_preempt < without,
        "short job should finish sooner with preemption: {with_preempt:?} vs {without:?}"
    );
}

// ---------------------------------------------------------------------------
// HTTP round-trip
// ---------------------------------------------------------------------------

struct Client {
    addr: std::net::SocketAddr,
}

impl Client {
    fn request(&self, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(self.addr).unwrap();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line.split_whitespace().nth(1).unwrap().parse().unwrap();
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            reader.read_line(&mut h).unwrap();
            if h.trim_end().is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().unwrap();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }
}

#[test]
fn http_api_round_trip() {
    let dir = std::env::temp_dir().join("graphite-serve-e2e-http");
    let _ = std::fs::remove_dir_all(&dir);
    let svc = Service::start(cfg(2, 50), &dir).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || server::serve_on(svc, listener).unwrap())
    };
    let client = Client { addr };

    let (status, body) = client.request("GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, r#"{"ok":true,"status":"ok"}"#));

    // Submit a traced job and poll it to completion.
    let (status, body) = client.request(
        "POST",
        "/jobs",
        r#"{"tenant":"acme","workload":"mixed","iters":3000,"work":30,"trace":true}"#,
    );
    assert_eq!(status, 202, "{body}");
    let id = Json::parse(&body).unwrap().get("id").unwrap().as_u64().unwrap();

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = client.request("GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        match doc.get("state").unwrap().as_str().unwrap() {
            "completed" => break,
            "failed" | "canceled" => panic!("job failed: {body}"),
            _ => {
                // Artifacts of an unfinished job answer 409 with its state.
                let (st, _) = client.request("GET", &format!("/jobs/{id}/metrics"), "");
                assert!(st == 409 || st == 200);
            }
        }
        assert!(Instant::now() < deadline, "job never completed");
        std::thread::sleep(Duration::from_millis(10));
    }

    let (status, metrics) = client.request("GET", &format!("/jobs/{id}/metrics"), "");
    assert_eq!(status, 200);
    graphite_trace::json::Json::parse(&metrics).expect("metrics must be valid JSON");
    let (status, trace) = client.request("GET", &format!("/jobs/{id}/trace"), "");
    assert_eq!(status, 200, "tracing was requested");
    graphite_trace::json::Json::parse(&trace).expect("trace must be valid JSON");
    let (status, flows) = client.request("GET", &format!("/jobs/{id}/flows"), "");
    assert_eq!(status, 200);
    graphite_trace::json::Json::parse(&flows).expect("flows must be valid JSON");

    // Error paths: bad body, unknown job, unknown route, wrong method.
    assert_eq!(client.request("POST", "/jobs", "not json").0, 400);
    assert_eq!(client.request("POST", "/jobs", r#"{"tenant":"x","workload":"nope"}"#).0, 400);
    assert_eq!(client.request("GET", "/jobs/9999", "").0, 404);
    assert_eq!(client.request("GET", "/nope", "").0, 404);
    assert_eq!(client.request("PUT", "/jobs", "").0, 405);

    // Stats reflect the completed job.
    let (status, stats) = client.request("GET", "/stats", "");
    assert_eq!(status, 200);
    let stats = Json::parse(&stats).unwrap();
    assert!(stats.get("completed").unwrap().as_u64().unwrap() >= 1);

    // Cancel flow: a queued job deletes cleanly, DELETE of it again is gone
    // only after the terminal-record removal (second DELETE → 404).
    let (status, body) =
        client.request("POST", "/jobs", r#"{"tenant":"acme","workload":"spin","iters":9}"#);
    assert_eq!(status, 202);
    let id2 = Json::parse(&body).unwrap().get("id").unwrap().as_u64().unwrap();
    assert_eq!(client.request("DELETE", &format!("/jobs/{id2}"), "").0, 204);

    // Drain over HTTP; subsequent submissions are refused.
    let (status, _) = client.request("POST", "/shutdown", "");
    assert_eq!(status, 202);
    server.join().unwrap();
    assert!(svc.is_shutdown());
}

/// A body nested deeper than the JSON parser's cap is a 400 and the server
/// keeps answering. The parser recurses once per level: uncapped, 10 000
/// `[`s overflow the connection thread's stack and abort the process.
#[test]
fn deeply_nested_body_is_a_bad_request() {
    let dir = std::env::temp_dir().join("graphite-serve-e2e-nesting");
    let _ = std::fs::remove_dir_all(&dir);
    let svc = Service::start(cfg(1, 50), &dir).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let client = Client { addr: listener.local_addr().unwrap() };
    let server = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || server::serve_on(svc, listener).unwrap())
    };

    let (status, body) = client.request("POST", "/jobs", &"[".repeat(10_000));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting"), "{body}");
    assert_eq!(client.request("GET", "/healthz", "").0, 200);

    assert_eq!(client.request("POST", "/shutdown", "").0, 202);
    server.join().unwrap();
}
