//! End-to-end observability test: boot the service over HTTP, force at least
//! one checkpoint preemption, then check every telemetry surface — the
//! Prometheus exposition, the enriched `/stats`, the per-job cost breakdown,
//! the structured access log, and the draining health probe.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphite_config::{LogLevel, ServeConfig};
use graphite_serve::{server, Json, Service};

struct Client {
    addr: std::net::SocketAddr,
}

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Client {
    fn request(&self, method: &str, path: &str, body: &str) -> Reply {
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
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            reader.read_line(&mut h).unwrap();
            if h.trim_end().is_empty() {
                break;
            }
            if let Some((k, v)) = h.trim_end().split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().unwrap();
                }
                headers.push((k.to_ascii_lowercase(), v.trim().to_owned()));
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        Reply { status, headers, body: String::from_utf8(body).unwrap() }
    }

    fn header<'a>(reply: &'a Reply, name: &str) -> Option<&'a str> {
        reply.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// A persistent HTTP/1.1 connection; requests on it are served even after
/// the listener stops accepting new sockets.
struct KeepAlive {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl KeepAlive {
    fn open(addr: std::net::SocketAddr) -> KeepAlive {
        let stream = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        KeepAlive { stream, reader }
    }

    fn request(&mut self, method: &str, path: &str) -> Reply {
        // One write per request, so a slow reply is the server's doing.
        let request = format!("{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
        self.stream.write_all(request.as_bytes()).unwrap();
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line.split_whitespace().nth(1).unwrap().parse().unwrap();
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            self.reader.read_line(&mut h).unwrap();
            if h.trim_end().is_empty() {
                break;
            }
            if let Some((k, v)) = h.trim_end().split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().unwrap();
                }
                headers.push((k.to_ascii_lowercase(), v.trim().to_owned()));
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).unwrap();
        Reply { status, headers, body: String::from_utf8(body).unwrap() }
    }
}

/// Starts a one-worker service in a fresh data directory and serves it on
/// an ephemeral loopback port.
fn boot(
    name: &str,
) -> (std::path::PathBuf, Arc<Service>, std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig {
        workers: 1,
        quantum_ms: 25,
        queue_depth: 64,
        max_body_bytes: 1 << 20,
        drain_ms: 5_000,
        log_level: LogLevel::Debug,
        log_max_bytes: 0,
        hostprof: false,
    };
    let svc = Service::start(cfg, &dir).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || server::serve_on(svc, listener).unwrap())
    };
    (dir, svc, addr, server)
}

fn submit(client: &Client, tenant: &str, iters: u64, seed: u64) -> u64 {
    let body = format!(
        r#"{{"tenant":"{tenant}","workload":"spin","iters":{iters},"work":50,"seed":{seed}}}"#
    );
    let reply = client.request("POST", "/jobs", &body);
    assert_eq!(reply.status, 202, "{}", reply.body);
    Json::parse(&reply.body).unwrap().get("id").unwrap().as_u64().unwrap()
}

fn await_completed(client: &Client, id: u64, timeout: Duration) -> Json {
    let deadline = Instant::now() + timeout;
    loop {
        let reply = client.request("GET", &format!("/jobs/{id}"), "");
        assert_eq!(reply.status, 200, "{}", reply.body);
        let doc = Json::parse(&reply.body).unwrap();
        match doc.get("state").unwrap().as_str().unwrap() {
            "completed" => return doc,
            "failed" | "canceled" => panic!("job {id} died: {}", reply.body),
            _ => {}
        }
        assert!(Instant::now() < deadline, "job {id} never completed");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Pulls the sum of every sample of `family` (all label sets) out of a
/// Prometheus exposition.
fn family_total(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.starts_with(family)
                && matches!(l.as_bytes().get(family.len()), Some(b'{') | Some(b' '))
        })
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<f64>().ok())
        .sum()
}

#[test]
fn telemetry_surfaces_cover_a_preempted_run() {
    let (dir, svc, addr, server) = boot("graphite-serve-e2e-telemetry");
    let client = Client { addr };

    // One worker: the long job takes the slot, the short ones force at least
    // one checkpoint preemption once their lane falls behind.
    let long_id = submit(&client, "heavy", 400_000, 1);
    std::thread::sleep(Duration::from_millis(10));
    let short_ids: Vec<u64> = (0..3).map(|j| submit(&client, "light", 2_000, 10 + j)).collect();
    for id in &short_ids {
        await_completed(&client, *id, Duration::from_secs(60));
    }
    let long_doc = await_completed(&client, long_id, Duration::from_secs(120));

    // Per-job cost breakdown in `GET /jobs/:id`.
    let preemptions = long_doc.get("preemptions").unwrap().as_u64().unwrap();
    assert!(preemptions >= 1, "long job must be preempted: {}", long_doc.encode());
    let cost = long_doc.get("preempt_cost").unwrap();
    assert!(cost.get("ckpt_bytes").unwrap().as_u64().unwrap() > 0);
    assert!(cost.get("serialize_ms").unwrap().as_f64().unwrap() > 0.0);
    assert_eq!(cost.get("resumes").unwrap().as_u64(), Some(preemptions));
    assert!(long_doc.get("run_ms").unwrap().as_f64().unwrap() > 0.0);

    // Prometheus exposition: well-formed, tenant-labeled, non-zero counters.
    let metrics = client.request("GET", "/metrics", "");
    assert_eq!(metrics.status, 200);
    assert!(
        Client::header(&metrics, "content-type").unwrap().starts_with("text/plain"),
        "exposition must be text/plain"
    );
    graphite_trace::expo::validate(&metrics.body).expect("exposition must validate");
    for needle in [
        r#"graphite_serve_preemptions_total{tenant="heavy"}"#,
        r#"graphite_serve_jobs_completed_total{tenant="light"}"#,
        r#"graphite_serve_queue_wait_us_bucket{tenant="heavy",le="+Inf"}"#,
        r#"graphite_serve_e2e_us_count{tenant="light"}"#,
        "graphite_serve_queue_depth ",
        "graphite_serve_uptime_ms ",
        r#"graphite_serve_http_requests_total{route="job",status="200"}"#,
    ] {
        assert!(metrics.body.contains(needle), "missing {needle} in:\n{}", metrics.body);
    }
    assert!(family_total(&metrics.body, "graphite_serve_preemptions_total") >= 1.0);
    assert!(family_total(&metrics.body, "graphite_serve_preempt_ckpt_bytes_total") > 0.0);

    // Enriched /stats.
    let stats = client.request("GET", "/stats", "");
    assert_eq!(stats.status, 200);
    let stats = Json::parse(&stats.body).unwrap();
    assert!(stats.get("uptime_ms").unwrap().as_u64().unwrap() > 0);
    let jobs = stats.get("jobs").unwrap();
    assert_eq!(jobs.get("completed").unwrap().as_u64(), Some(4));
    assert_eq!(jobs.get("running").unwrap().as_u64(), Some(0));
    assert!(stats.get("preempt_cost").unwrap().get("parks").unwrap().as_u64().unwrap() >= 1);
    let heavy = stats.get("tenant_latency").unwrap().get("heavy").unwrap();
    assert!(heavy.get("preemptions").unwrap().as_u64().unwrap() >= 1);
    assert!(heavy.get("e2e").unwrap().get("p99_ms").unwrap().as_f64().unwrap() > 0.0);

    // Structured log: JSONL records for preemptions and HTTP access.
    let log = std::fs::read_to_string(dir.join("serve.log.jsonl")).unwrap();
    let mut events = std::collections::BTreeSet::new();
    for line in log.lines() {
        let rec = Json::parse(line).unwrap_or_else(|e| panic!("bad log line {line:?}: {e}"));
        assert!(rec.get("ts_ms").is_some() && rec.get("level").is_some());
        events.insert(rec.get("event").unwrap().as_str().unwrap().to_owned());
    }
    for event in ["serve.start", "job.submit", "job.preempt", "job.terminal", "http.access"] {
        assert!(events.contains(event), "log must contain {event}; saw {events:?}");
    }

    // Drain: healthz flips to 503 + Retry-After. Probe over a keep-alive
    // connection opened *before* the drain — its connection thread keeps
    // serving after the accept loop stops taking new sockets.
    let mut keepalive = KeepAlive::open(addr);
    let healthy = keepalive.request("GET", "/healthz");
    assert_eq!((healthy.status, healthy.body.as_str()), (200, r#"{"ok":true,"status":"ok"}"#));
    svc.drain();
    let draining = keepalive.request("GET", "/healthz");
    assert_eq!(draining.status, 503);
    assert!(draining.body.contains(r#""status":"draining""#), "{}", draining.body);
    let retry = Client::header(&draining, "retry-after").expect("Retry-After header");
    assert_eq!(retry, "5", "ceil(drain_ms / 1000)");
    drop(keepalive);
    server.join().unwrap();
}

/// A reply must leave in one segment with `TCP_NODELAY` set: written as head
/// then body, the body waits for the client's delayed ACK of the head —
/// ≈40 ms on every request after the connection's first few.
#[test]
fn keepalive_requests_do_not_stall() {
    let (_dir, svc, addr, server) = boot("graphite-serve-e2e-keepalive");
    let mut keepalive = KeepAlive::open(addr);
    for i in 0..6 {
        let t0 = std::time::Instant::now();
        let reply = keepalive.request("GET", "/healthz");
        let took = t0.elapsed();
        assert_eq!(reply.status, 200);
        assert!(took < Duration::from_millis(20), "request {i} on the connection took {took:?}");
    }
    svc.drain();
    drop(keepalive);
    server.join().unwrap();
}
