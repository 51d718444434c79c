//! The HTTP front end: an accept loop handing keep-alive connections to a
//! small pool of connection threads, routing requests onto the [`Service`].
//!
//! Routes:
//!
//! | Method   | Path                | Purpose                                |
//! |----------|---------------------|----------------------------------------|
//! | `POST`   | `/jobs`             | Submit a job → `202 {"id": n}`         |
//! | `GET`    | `/jobs`             | List all jobs                          |
//! | `GET`    | `/jobs/:id`         | One job's state/preemptions/costs      |
//! | `GET`    | `/jobs/:id/metrics` | Completed job's `metrics.json`         |
//! | `GET`    | `/jobs/:id/trace`   | Completed job's Perfetto trace         |
//! | `GET`    | `/jobs/:id/flows`   | Completed job's flow analysis          |
//! | `DELETE` | `/jobs/:id`         | Cancel (or forget a finished job)      |
//! | `GET`    | `/healthz`          | Liveness (`ok` vs `draining`)          |
//! | `GET`    | `/stats`            | Queue/latency/preemption summary JSON  |
//! | `GET`    | `/metrics`          | Prometheus text exposition             |
//! | `POST`   | `/shutdown`         | Drain and exit                         |
//!
//! Every exchange is timed and recorded: an `http.access` record in the
//! structured log and a `graphite_serve_http_requests_total{route,status}`
//! counter sample. Drain rejections (`503`) carry a `Retry-After` header
//! derived from `serve.drain_ms`.

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::http::{read_request, write_response, ParseError, Request};
use crate::job::JobSpec;
use crate::service::{Service, SubmitError};
use graphite_trace::json::{obj, Json};

/// Content type of the Prometheus exposition.
const PROM_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// One routed response.
struct Reply {
    status: u16,
    content_type: &'static str,
    headers: Vec<(&'static str, String)>,
    body: String,
}

impl Reply {
    fn json(status: u16, body: String) -> Reply {
        Reply { status, content_type: "application/json", headers: Vec::new(), body }
    }

    fn error(status: u16, msg: &str) -> Reply {
        Reply::json(status, err_body(msg))
    }

    /// Attaches the drain `Retry-After` hint.
    fn retry_after(mut self, svc: &Service) -> Reply {
        self.headers.push(("Retry-After", svc.retry_after_secs().to_string()));
        self
    }
}

/// Binds `addr` and serves requests until `POST /shutdown` (or
/// [`Service::drain`] from a signal handler) flips the service to shutdown.
///
/// # Errors
///
/// Socket bind/configure failures.
pub fn serve(svc: Arc<Service>, addr: &str) -> std::io::Result<()> {
    serve_on(svc, TcpListener::bind(addr)?)
}

/// [`serve`] over a pre-bound listener (lets tests bind port 0 and read the
/// assigned port back before serving).
///
/// # Errors
///
/// Socket configure/accept failures.
pub fn serve_on(svc: Arc<Service>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    svc.logger().info("serve.listen", &[("addr", listener.local_addr()?.to_string().into())]);
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !svc.is_shutdown() {
        match listener.accept() {
            Ok((stream, _)) => {
                // Replies are small and complete; never hold one back for
                // Nagle coalescing. Failure only costs latency.
                let _ = stream.set_nodelay(true);
                let svc = Arc::clone(&svc);
                conns.push(std::thread::spawn(move || handle_connection(&svc, stream)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
    Ok(())
}

fn handle_connection(svc: &Service, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut stream = stream;
    loop {
        let req = match read_request(&mut reader, svc_max_body(svc)) {
            Ok(r) => r,
            Err(ParseError::Eof) => return,
            Err(ParseError::TooLarge) => {
                let body = err_body("request body too large");
                let _ = write_response(
                    &mut stream,
                    413,
                    "application/json",
                    &[],
                    body.as_bytes(),
                    true,
                );
                return;
            }
            Err(ParseError::Bad(msg)) => {
                let body = err_body(&msg);
                let _ = write_response(
                    &mut stream,
                    400,
                    "application/json",
                    &[],
                    body.as_bytes(),
                    true,
                );
                return;
            }
        };
        let close = req.close || svc.is_shutdown();
        let t0 = Instant::now();
        let reply = route(svc, &req);
        let dur = t0.elapsed();
        observe(svc, &req, reply.status, dur);
        let write = write_response(
            &mut stream,
            reply.status,
            reply.content_type,
            &reply.headers,
            reply.body.as_bytes(),
            close,
        );
        if write.is_err() || close {
            return;
        }
    }
}

/// Records one finished exchange: access-log record + HTTP telemetry.
fn observe(svc: &Service, req: &Request, status: u16, dur: Duration) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let route = route_class(&segments);
    svc.telemetry().record_http(route, status, dur);
    svc.logger().info(
        "http.access",
        &[
            ("method", req.method.as_str().into()),
            ("path", req.path.as_str().into()),
            ("status", u64::from(status).into()),
            ("duration_ms", (dur.as_secs_f64() * 1e3).into()),
        ],
    );
}

/// The fixed route-class vocabulary used as the `route` metric label; paths
/// never leak into metric names (one counter per class × status, bounded).
fn route_class(segments: &[&str]) -> &'static str {
    match segments {
        ["jobs"] => "jobs",
        ["jobs", _] => "job",
        ["jobs", _, _] => "artifact",
        ["healthz"] => "healthz",
        ["stats"] => "stats",
        ["metrics"] => "metrics",
        ["shutdown"] => "shutdown",
        _ => "other",
    }
}

fn svc_max_body(svc: &Service) -> u64 {
    svc.config().max_body_bytes
}

fn err_body(msg: &str) -> String {
    obj([("error", msg.into())]).encode()
}

/// Dispatches one request.
fn route(svc: &Service, req: &Request) -> Reply {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => submit(svc, &req.body),
        ("GET", ["jobs"]) => Reply::json(200, svc.jobs_json().encode()),
        ("GET", ["jobs", id]) => match parse_id(id) {
            Some(id) => match svc.job_json(id) {
                Some(j) => Reply::json(200, j.encode()),
                None => Reply::error(404, "no such job"),
            },
            None => Reply::error(400, "bad job id"),
        },
        ("GET", ["jobs", id, which @ ("metrics" | "trace" | "flows")]) => match parse_id(id) {
            Some(id) => artifact(svc, id, which),
            None => Reply::error(400, "bad job id"),
        },
        ("DELETE", ["jobs", id]) => match parse_id(id) {
            Some(id) if svc.cancel(id) => Reply::json(204, String::new()),
            Some(_) => Reply::error(404, "no such job"),
            None => Reply::error(400, "bad job id"),
        },
        ("GET", ["healthz"]) => {
            if svc.is_draining() {
                let body = obj([("ok", false.into()), ("status", "draining".into())]).encode();
                Reply::json(503, body).retry_after(svc)
            } else {
                Reply::json(200, obj([("ok", true.into()), ("status", "ok".into())]).encode())
            }
        }
        ("GET", ["stats"]) => Reply::json(200, svc.stats_json().encode()),
        ("GET", ["metrics"]) => Reply {
            status: 200,
            content_type: PROM_CONTENT_TYPE,
            headers: Vec::new(),
            body: svc.metrics_text(),
        },
        ("POST", ["shutdown"]) => {
            // Checkpoint running jobs and persist the queue, then reply; the
            // accept loop exits once the service reports shutdown.
            svc.drain();
            Reply::json(202, obj([("draining", true.into())]).encode())
        }
        (_, ["jobs", ..] | ["healthz"] | ["stats"] | ["metrics"] | ["shutdown"]) => {
            Reply::error(405, "method not allowed")
        }
        _ => Reply::error(404, "no such route"),
    }
}

fn parse_id(s: &str) -> Option<u64> {
    s.parse().ok()
}

fn submit(svc: &Service, body: &[u8]) -> Reply {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return Reply::error(400, "body is not UTF-8"),
    };
    let doc = match Json::parse(text) {
        Ok(d) => d,
        Err(e) => return Reply::error(400, &format!("bad JSON: {e}")),
    };
    let spec = match JobSpec::from_json(&doc) {
        Ok(s) => s,
        Err(e) => return Reply::error(400, &e),
    };
    match svc.submit(spec) {
        Ok(id) => Reply::json(202, obj([("id", id.into())]).encode()),
        Err(SubmitError::QueueFull) => Reply::error(429, "queue full"),
        Err(SubmitError::Draining) => Reply::error(503, "draining").retry_after(svc),
    }
}

fn artifact(svc: &Service, id: u64, which: &str) -> Reply {
    match svc.artifact(id, which) {
        Ok(Some(doc)) => Reply::json(200, doc),
        Ok(None) => Reply::error(404, "artifact not captured (tracing off?)"),
        Err(Some(state)) => Reply::error(409, &format!("job is {state}, not completed")),
        Err(None) => Reply::error(404, "no such job"),
    }
}
