//! `serve_mix`: drives the built `graphite-serve` binary over loopback HTTP
//! from at most two connections at a time.
//!
//! Two phases on one server. The *burst* phase submits a closed batch of
//! short `spin` jobs across four tenants and waits for the last completion
//! (`jobs_per_s`). The *paced* phase saturates both workers with two long
//! `mixed` jobs and then sends short jobs open-loop at a fixed rate; each
//! short job is timed from its *scheduled* send time (`short_p90_ms`).
//! `wall_s` is the time both phases take together. The long jobs are
//! checkpoint-parked and resumed many times along the way, and must still
//! report the simulated cycles of an un-preempted golden run.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use graphite_base::SimRng;
use graphite_serve::{workload, JobSpec, Json};

use crate::stats::{scheduled_at, Paced};

/// Sizes of one `serve_mix` run.
#[derive(Debug, Clone, Copy)]
pub struct MixSize {
    /// Short jobs in the closed burst.
    pub burst_jobs: usize,
    /// Short jobs sent open-loop in the paced phase.
    pub paced_jobs: usize,
    /// Open-loop arrival rate.
    pub paced_rate_hz: f64,
    /// Iterations of each short `spin` job.
    pub short_iters: u64,
    /// Iterations of each of the two long `mixed` jobs.
    pub long_iters: u64,
}

impl MixSize {
    /// ≈3 s of burst and ≈4.7 s of paced traffic on the 2-core reference host.
    /// A short job is ≈10 ms of simulation, so two generator connections
    /// (≈200 submits/s between them) and two workers are about evenly
    /// matched; a long job is ≈2.9 s alone and outlasts the paced stream.
    pub const FULL: MixSize = MixSize {
        burst_jobs: 600,
        paced_jobs: 240,
        paced_rate_hz: 60.0,
        short_iters: 60_000,
        long_iters: 12_000_000,
    };

    /// 1/20 of [`MixSize::FULL`]: the warm-up and the `--smoke` size.
    pub const WARM: MixSize = MixSize {
        burst_jobs: 30,
        paced_jobs: 12,
        paced_rate_hz: 60.0,
        short_iters: 60_000,
        long_iters: 600_000,
    };
}

const TENANTS: [&str; 4] = ["acme", "globex", "initech", "umbrella"];
const WORKERS: u32 = 2;

/// Builds the release `graphite-serve` into the target directory this
/// executable was built into (beside it, for a release `ledger`). A no-op
/// when it is fresh.
///
/// # Errors
///
/// The cargo invocation's failure, as text.
pub fn build_server_binary() -> Result<PathBuf, String> {
    let bin_dir = crate::bin_dir()?;
    let target_dir = bin_dir.parent().ok_or("executable has no target dir")?;
    let bin = target_dir.join("release/graphite-serve");
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../serve/Cargo.toml");
    let out = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "--bin", "graphite-serve"])
        .arg("--manifest-path")
        .arg(&manifest)
        .arg("--target-dir")
        .arg(target_dir)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cargo: {e}"))?;
    if !out.status.success() || !bin.is_file() {
        return Err(format!(
            "building graphite-serve failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(bin)
}

/// One HTTP/1.1 client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn { reader: BufReader::new(stream) })
    }

    /// Sends one request (in a single write) and reads the reply:
    /// `(status, body)`. With `close` the server ends the connection after
    /// replying and this `Conn` must not be used again.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        close: bool,
    ) -> std::io::Result<(u16, String)> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        let connection = if close { "close" } else { "keep-alive" };
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: ledger\r\nContent-Length: {}\r\n\
             Connection: {connection}\r\n\r\n{body}",
            body.len()
        );
        self.reader.get_mut().write_all(request.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            if line.trim_end().is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().map_err(|_| bad("bad Content-Length"))?;
                }
            }
        }
        let mut buf = vec![0u8; content_length];
        self.reader.read_exact(&mut buf)?;
        String::from_utf8(buf).map(|b| (status, b)).map_err(|_| bad("reply body is not UTF-8"))
    }
}

/// One request on a connection of its own (`Connection: close`).
///
/// The benchmark's traffic uses this, not keep-alive: the server writes a
/// reply's head and body separately without `TCP_NODELAY`, so on a kept-alive
/// connection every reply waits ≈40 ms for the client's delayed ACK. The
/// `serve.submit_keepalive_ms` rung keeps that cost visible.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    Conn::open(addr)?.request(method, path, body, true)
}

fn get_json(addr: SocketAddr, path: &str) -> Result<Json, String> {
    match http(addr, "GET", path, "") {
        Ok((200, body)) => Json::parse(&body),
        Ok((status, body)) => Err(format!("GET {path}: {status} {body}")),
        Err(e) => Err(format!("GET {path}: {e}")),
    }
}

/// A running `graphite-serve` child with a fresh data directory. Dropping it
/// kills the child and removes the directory, so no exit path leaks either.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    data_dir: PathBuf,
    /// Process start → first `/healthz` 200.
    pub boot: Duration,
}

impl Server {
    /// Starts the server on a free loopback port and waits until `/healthz`
    /// answers 200.
    ///
    /// # Errors
    ///
    /// Spawn failure, or no healthy answer within ten seconds.
    pub fn boot(bin: &Path, data_dir: &Path, hostprof: bool) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(data_dir);
        // Ask the kernel for a free port, release it, hand it to the server.
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free loopback port: {e}"))?;
        let t0 = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", &addr.to_string(), "--workers", &WORKERS.to_string()])
            .args(["--quantum-ms", "25", "--queue-depth", "8192", "--data-dir"])
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if hostprof {
            cmd.arg("--hostprof");
        }
        let child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server =
            Server { child, addr, data_dir: data_dir.to_owned(), boot: Duration::ZERO };
        while t0.elapsed() < Duration::from_secs(10) {
            let healthy = http(addr, "GET", "/healthz", "").is_ok_and(|(status, _)| status == 200);
            if healthy {
                server.boot = t0.elapsed();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("graphite-serve exited during start-up: {status}"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        Err("graphite-serve did not answer /healthz within 10 s".to_owned())
    }

    /// The server process's peak resident set so far, MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::host::peak_rss_mb(self.child.id())
    }

    /// Asks the server to drain and waits for it to exit.
    pub fn shutdown(mut self) {
        let asked = http(self.addr, "POST", "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(15);
        while asked.is_ok() && Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills whatever is left and reaps it.
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

/// A job as the benchmark submits it: 2 tiles, `work` 50, no tracing.
fn job(tenant: &str, kind: &str, iters: u64, seed: u64) -> JobSpec {
    JobSpec {
        tenant: tenant.into(),
        workload: kind.into(),
        iters,
        work: 50,
        tiles: 2,
        seed,
        trace: false,
    }
}

fn job_body(tenant: &str, kind: &str, iters: u64, seed: u64) -> String {
    job(tenant, kind, iters, seed).to_json().encode()
}

/// Runs `generator(0)` on this thread and `generator(1)` on a second one —
/// the benchmark's two load generators — and returns what both produced.
fn two_generators<T: Send>(generator: impl Fn(usize) -> Vec<T> + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let other = s.spawn(|| generator(1));
        let mut out = generator(0);
        out.extend(other.join().expect("generator thread"));
        out
    })
}

/// `POST /jobs`; the job id on 202, anything else is a failed op.
pub fn submit(addr: SocketAddr, body: &str) -> Result<u64, String> {
    match http(addr, "POST", "/jobs", body) {
        Ok((202, reply)) => Json::parse(&reply)?
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("202 without an id: {reply}")),
        Ok((status, reply)) => Err(format!("submit refused: {status} {reply}")),
        Err(e) => Err(format!("submit: {e}")),
    }
}

/// Polls `/stats` until `done(stats)` holds; returns the final document.
fn poll_stats(
    addr: SocketAddr,
    timeout: Duration,
    done: impl Fn(&Json) -> bool,
) -> Result<Json, String> {
    let deadline = Instant::now() + timeout;
    loop {
        let stats = get_json(addr, "/stats")?;
        if done(&stats) {
            return Ok(stats);
        }
        if Instant::now() >= deadline {
            return Err(format!("timed out after {timeout:?}; last /stats: {}", stats.encode()));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn completed(stats: &Json) -> u64 {
    stats.get("completed").and_then(Json::as_u64).unwrap_or(0)
}

/// One long job of the paced phase, as the server reported it.
#[derive(Debug, Clone, Copy)]
pub struct LongJob {
    pub seed: u64,
    pub sim_cycles: u64,
    pub preemptions: u64,
    /// Submit → complete, seconds.
    pub wall_s: f64,
}

/// What one `serve_mix` run measured.
#[derive(Debug, Default)]
pub struct MixResult {
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed (first few), for the report.
    pub errors: Vec<String>,
    /// Burst phase: first submit → last completion.
    pub burst_wall_s: f64,
    pub burst_jobs: usize,
    /// Client-timed `POST /jobs` → 202, milliseconds, every burst submit.
    pub submit_ms: Vec<f64>,
    /// Paced phase: per short job, due → completed, milliseconds.
    pub short_latency_ms: Vec<f64>,
    /// Paced phase: per short job, how late the generator sent it, ms.
    pub lateness_ms: Vec<f64>,
    /// Paced phase: long jobs submitted → last job of the phase completed.
    pub paced_wall_s: f64,
    pub long_jobs: Vec<LongJob>,
    /// `/stats` after the paced phase.
    pub stats: Option<Json>,
    pub peak_rss_mb: f64,
}

impl MixResult {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }
}

/// The un-preempted golden `sim_cycles` of a long job, computed in-process
/// with the service's own workload driver.
pub fn golden_long_cycles(seed: u64, iters: u64) -> Result<u64, String> {
    let spec = job("heavy", "mixed", iters, seed);
    let sim = workload::build_sim(&spec)
        .and_then(graphite::SimBuilder::build)
        .map_err(|e| format!("golden build: {e}"))?;
    Ok(sim.run(|ctx| workload::run(&spec, ctx)).simulated_cycles.0)
}

/// A job seed the service's JSON layer carries exactly (below 2^53).
fn job_seed(rng: &mut SimRng) -> u64 {
    rng.next_u64() >> 11
}

/// Seeds of the two long jobs for a benchmark seed.
pub fn long_seeds(seed: u64) -> [u64; 2] {
    let mut rng = SimRng::new(seed ^ 0x10E6);
    [job_seed(&mut rng), job_seed(&mut rng)]
}

/// Runs both phases against a freshly booted server and shuts it down.
pub fn run_mix(server: Server, size: MixSize, seed: u64) -> MixResult {
    let mut r = MixResult::default();
    if let Err(e) = drive(&server, size, seed, &mut r) {
        r.fail(e);
    }
    r.peak_rss_mb = server.peak_rss_mb().unwrap_or(f64::NAN);
    server.shutdown();
    r
}

fn drive(server: &Server, size: MixSize, seed: u64, r: &mut MixResult) -> Result<(), String> {
    let addr = server.addr;
    let mut rng = SimRng::new(seed);
    // Jobs an earlier client of this server already completed.
    let already = completed(&get_json(addr, "/stats")?);

    // ---- Burst: a closed batch from two generator connections. ----
    let bodies: Vec<String> = (0..size.burst_jobs)
        .map(|i| job_body(TENANTS[i % TENANTS.len()], "spin", size.short_iters, job_seed(&mut rng)))
        .collect();
    r.attempted += bodies.len() as u64;
    r.burst_jobs = bodies.len();
    let t0 = Instant::now();
    // Generator k submits jobs k, k+2, k+4, … back to back.
    let submitted = two_generators(|k| {
        bodies[k..]
            .iter()
            .step_by(2)
            .map(|b| {
                let t = Instant::now();
                submit(addr, b).map(|_| t.elapsed().as_secs_f64() * 1e3)
            })
            .collect()
    });
    let mut accepted = 0u64;
    for outcome in submitted {
        match outcome {
            Ok(ms) => {
                accepted += 1;
                r.submit_ms.push(ms);
            }
            Err(e) => r.fail(e),
        }
    }
    poll_stats(addr, Duration::from_secs(60), |s| completed(s) >= already + accepted)?;
    r.burst_wall_s = t0.elapsed().as_secs_f64();
    let jobs = get_json(addr, "/jobs")?;
    let not_completed = jobs
        .as_arr()
        .ok_or("GET /jobs: not an array")?
        .iter()
        .filter(|j| j.get("state").and_then(Json::as_str) != Some("completed"))
        .count();
    for _ in 0..not_completed {
        r.fail("burst job did not reach `completed`".to_owned());
    }

    // ---- Paced: two long jobs hold both workers, shorts arrive open-loop. ----
    let paced_t0 = Instant::now();
    let long_ids: Vec<(u64, u64)> = long_seeds(seed)
        .into_iter()
        .filter_map(|s| {
            r.attempted += 1;
            let body = job_body("heavy", "mixed", size.long_iters, s);
            submit(addr, &body).map_err(|e| r.fail(e)).ok().map(|id| (s, id))
        })
        .collect();
    poll_stats(addr, Duration::from_secs(10), |s| {
        s.get("running").and_then(Json::as_u64) == Some(long_ids.len() as u64)
    })?;

    let short_bodies: Vec<String> = (0..size.paced_jobs)
        .map(|_| job_body("light", "spin", size.short_iters, job_seed(&mut rng)))
        .collect();
    r.attempted += short_bodies.len() as u64;
    let stream_t0 = Instant::now();
    // Generator k sends requests k, k+2, k+4, … at their due times.
    let paced = two_generators(|k| {
        (k..short_bodies.len())
            .step_by(2)
            .map(|i| {
                let due = scheduled_at(i, size.paced_rate_hz);
                std::thread::sleep(due.saturating_sub(stream_t0.elapsed()));
                let sent = stream_t0.elapsed();
                let id = submit(addr, &short_bodies[i])?;
                Ok((i, sent, stream_t0.elapsed(), id))
            })
            .collect::<Vec<Result<_, String>>>()
    });
    let mut sent_shorts = Vec::new();
    for outcome in paced {
        match outcome {
            Ok(x) => sent_shorts.push(x),
            Err(e) => r.fail(e),
        }
    }
    let expect = already + accepted + long_ids.len() as u64 + sent_shorts.len() as u64;
    let stats = poll_stats(addr, Duration::from_secs(90), |s| completed(s) >= expect)?;
    r.paced_wall_s = paced_t0.elapsed().as_secs_f64();

    // The server stamps a job at submit and at completion; the client adds
    // the part only it can see: due time → 202 received.
    for (i, sent, replied, id) in sent_shorts {
        let job = get_json(addr, &format!("/jobs/{id}"))?;
        let state = job.get("state").and_then(Json::as_str).unwrap_or("?");
        match job.get("latency_ms").and_then(Json::as_f64) {
            Some(ms) if state == "completed" => {
                let p = Paced {
                    scheduled: scheduled_at(i, size.paced_rate_hz),
                    sent,
                    completed: replied + Duration::from_secs_f64(ms / 1e3),
                };
                r.short_latency_ms.push(p.latency().as_secs_f64() * 1e3);
                r.lateness_ms.push(p.lateness().as_secs_f64() * 1e3);
            }
            _ => r.fail(format!("paced job {id} is {state}")),
        }
    }
    for (seed, id) in long_ids {
        let job = get_json(addr, &format!("/jobs/{id}"))?;
        let field = |k: &str| job.get(k).and_then(Json::as_u64);
        match (job.get("latency_ms").and_then(Json::as_f64), field("sim_cycles")) {
            (Some(ms), Some(sim_cycles)) => r.long_jobs.push(LongJob {
                seed,
                sim_cycles,
                preemptions: field("preemptions").unwrap_or(0),
                wall_s: ms / 1e3,
            }),
            _ => r.fail(format!("long job {id} did not complete: {}", job.encode())),
        }
    }
    r.stats = Some(stats);
    Ok(())
}

/// Reads a numeric leaf such as `["preempt_cost", "parks"]` out of `/stats`.
pub fn stat(stats: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(stats, |j, k| j.get(k)).and_then(Json::as_f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-connection HTTP stub that answers every request with `status`.
    fn stub(status: u16, body: &'static str) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            while reader.read_line(&mut line).expect("request") > 2 {
                line.clear();
            }
            let reply = format!(
                "HTTP/1.1 {status} X\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            reader.get_mut().write_all(reply.as_bytes()).expect("reply");
        });
        (addr, handle)
    }

    #[test]
    fn a_submit_is_a_failed_op_unless_the_server_says_202_with_an_id() {
        for (status, body, want) in [
            (202, r#"{"id":7}"#, Ok(7)),
            (429, r#"{"error":"queue full"}"#, Err("429")),
            (503, r#"{"error":"draining"}"#, Err("503")),
            (202, r#"{}"#, Err("without an id")),
        ] {
            let (addr, server) = stub(status, body);
            let got = submit(addr, "");
            server.join().expect("stub");
            match (got, want) {
                (Ok(id), Ok(w)) => assert_eq!(id, w),
                (Err(e), Err(w)) => assert!(e.contains(w), "{e}"),
                (got, want) => panic!("{status} {body}: got {got:?}, want {want:?}"),
            }
        }
        // Nothing listening at all is a failed op too, not a panic.
        let gone = TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr()).expect("port");
        assert!(submit(gone, "").is_err());
    }

    #[test]
    fn stats_leaves_are_read_by_path() {
        let doc = Json::parse(r#"{"preempt_cost":{"parks":3},"completed":9}"#).expect("json");
        assert_eq!(stat(&doc, &["preempt_cost", "parks"]), Some(3.0));
        assert_eq!(stat(&doc, &["preempt_cost", "nope"]), None);
        assert_eq!(completed(&doc), 9);
    }

    #[test]
    fn long_job_seeds_follow_the_benchmark_seed_and_survive_json() {
        assert_eq!(long_seeds(42), long_seeds(42));
        assert_ne!(long_seeds(42), long_seeds(43));
        assert!(long_seeds(42).iter().all(|&s| s < 1 << 53));
    }
}
