//! The job service: a bounded pool of simulation workers fed from the
//! fair-share queue, plus a preemptor thread that checkpoint-preempts
//! long-running jobs at their next guest quiesce point.
//!
//! # Preemption protocol
//!
//! Each dispatched slice gets a fresh [`CkptRequest`]. The preemptor arms it
//! once the slice has run longer than `serve.quantum_ms` *and* other work is
//! queued; the guest parks itself at the next [`Ctx::ckpt_poll`] safepoint.
//! The worker then observes `req.taken() > 0`, records the park file, and
//! re-enqueues the job at the *front* of its tenant's lane — preemption must
//! never cost a job its FIFO position. A later slice resumes with
//! `Sim::builder(cfg).resume(path)`; because checkpoints only land between
//! driver iterations, the final report is bit-identical to an uninterrupted
//! run no matter how many times the job was sliced.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphite::{CkptRequest, SimReport};
use graphite_base::HostProf;
use graphite_config::ServeConfig;
use parking_lot::{Condvar, Mutex};

use crate::job::{Artifacts, Job, JobSpec, JobState};
use crate::log::Logger;
use crate::queue::FairQueue;
use crate::telemetry::{LiveStats, Telemetry};
use graphite_trace::json::{obj, Json};

/// Why a submission was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The service is draining for shutdown — reply `503`.
    Draining,
    /// The fair-share queue is at `serve.queue_depth` — reply `429`.
    QueueFull,
}

/// A job slice currently on a worker.
struct Running {
    slice_started: Instant,
    req: CkptRequest,
    /// Where the preemptor (or canceler) asked the slice to park.
    ckpt_path: Option<PathBuf>,
}

/// Everything a worker carries out of the dispatch critical section.
struct Dispatch {
    id: u64,
    tenant: String,
    spec: JobSpec,
    resume: Option<PathBuf>,
    req: CkptRequest,
}

/// What a finished slice amounted to, captured under the state lock and
/// reported to telemetry/logging after it is released.
enum SliceOutcome {
    /// The job reached a terminal state: `(state, e2e, total run, error)`.
    Terminal(JobState, Duration, Duration, Option<String>),
    /// The slice was checkpoint-parked and the job requeued.
    Parked { serialize: Duration, bytes: u64 },
}

struct State {
    jobs: HashMap<u64, Job>,
    queue: FairQueue,
    running: HashMap<u64, Running>,
    next_id: u64,
    draining: bool,
}

/// The shared service. Cheap to clone handles via [`Arc`].
pub struct Service {
    cfg: ServeConfig,
    data_dir: PathBuf,
    state: Mutex<State>,
    /// Signaled when work is queued or a slice finishes.
    work: Condvar,
    shutdown: AtomicBool,
    /// Lifetime counters for `GET /stats`.
    completed: AtomicU64,
    preempted: AtomicU64,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Latency histograms, preemption-cost counters, HTTP counters.
    telemetry: Telemetry,
    /// Structured JSONL event log (`data_dir/serve.log.jsonl`).
    logger: Logger,
    /// Shared host-cost profiler. Enabled by `[serve] hostprof`; every job
    /// slice attaches to it, so `host.*` stage costs aggregate across the
    /// whole service and surface on `GET /metrics`. Disabled = every
    /// instrumentation point in the simulator is one relaxed atomic load.
    hostprof: Arc<HostProf>,
    started: Instant,
}

impl Service {
    /// Boots the service: restores any queue persisted by a previous drain,
    /// then spawns `cfg.workers` simulation workers and the preemptor.
    ///
    /// # Errors
    ///
    /// I/O errors creating `data_dir` or reading a corrupt persisted queue.
    pub fn start(cfg: ServeConfig, data_dir: impl Into<PathBuf>) -> std::io::Result<Arc<Service>> {
        let data_dir = data_dir.into();
        std::fs::create_dir_all(data_dir.join("jobs"))?;
        let logger = Logger::to_file_rotating(
            &data_dir.join("serve.log.jsonl"),
            cfg.log_level,
            cfg.log_max_bytes,
        )?;
        let telemetry = Telemetry::default();
        let hostprof = if cfg.hostprof {
            let hp = graphite_config::HostProfConfig::default();
            HostProf::new(hp.sample, hp.max_events as usize)
        } else {
            HostProf::disabled()
        };
        let mut state = State {
            jobs: HashMap::new(),
            queue: FairQueue::new(cfg.queue_depth as usize),
            running: HashMap::new(),
            next_id: 1,
            draining: false,
        };
        let restored = restore_queue(&data_dir, &mut state)?;
        // Restored jobs count as submissions of this process so per-tenant
        // queue depths and submit counters line up from the first scrape.
        for job in state.jobs.values() {
            telemetry.record_submit(&job.spec.tenant);
        }
        telemetry.set_levels(state.queue.len() as u64, 0);
        let svc = Arc::new(Service {
            cfg,
            data_dir,
            state: Mutex::new(state),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            completed: AtomicU64::new(0),
            preempted: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
            telemetry,
            logger,
            hostprof,
            started: Instant::now(),
        });
        svc.logger.info(
            "serve.start",
            &[
                ("workers", u64::from(cfg.workers).into()),
                ("quantum_ms", cfg.quantum_ms.into()),
                ("queue_depth", u64::from(cfg.queue_depth).into()),
                ("hostprof", cfg.hostprof.into()),
            ],
        );
        if restored > 0 {
            svc.logger.info("queue.restore", &[("jobs", (restored as u64).into())]);
        }
        let mut handles = Vec::new();
        for w in 0..cfg.workers {
            let s = Arc::clone(&svc);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || s.worker_loop())
                    .expect("spawn worker"),
            );
        }
        {
            let s = Arc::clone(&svc);
            handles.push(
                std::thread::Builder::new()
                    .name("serve-preemptor".into())
                    .spawn(move || s.preemptor_loop())
                    .expect("spawn preemptor"),
            );
        }
        *svc.workers.lock() = handles;
        Ok(svc)
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The telemetry surface (HTTP layer records request metrics here).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The structured event log (HTTP layer writes access records here).
    pub fn logger(&self) -> &Logger {
        &self.logger
    }

    /// Whether the service is refusing new work while it drains.
    pub fn is_draining(&self) -> bool {
        self.state.lock().draining
    }

    /// The `Retry-After` value (seconds, at least 1) advertised on drain
    /// rejections: how long a full drain is allowed to take.
    pub fn retry_after_secs(&self) -> u64 {
        self.cfg.drain_ms.div_ceil(1000).max(1)
    }

    /// Accepts a job into the fair-share queue and returns its ID.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Draining`] during shutdown, [`SubmitError::QueueFull`]
    /// at capacity.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        let mut st = self.state.lock();
        if st.draining || self.shutdown.load(Ordering::SeqCst) {
            return Err(SubmitError::Draining);
        }
        let id = st.next_id;
        let tenant = spec.tenant.clone();
        if st.queue.push(&tenant, id).is_err() {
            return Err(SubmitError::QueueFull);
        }
        st.next_id += 1;
        let workload = spec.workload.clone();
        let iters = spec.iters;
        st.jobs.insert(id, Job::new(id, spec));
        let depth = st.queue.len() as u64;
        let running = st.running.len() as u64;
        drop(st);
        self.telemetry.record_submit(&tenant);
        self.telemetry.set_levels(depth, running);
        self.logger.info(
            "job.submit",
            &[
                ("id", id.into()),
                ("tenant", tenant.into()),
                ("workload", workload.into()),
                ("iters", iters.into()),
            ],
        );
        self.work.notify_one();
        Ok(id)
    }

    /// The job summary, if the ID exists.
    pub fn job_json(&self, id: u64) -> Option<Json> {
        self.state.lock().jobs.get(&id).map(Job::to_json)
    }

    /// Summaries of every known job, newest first.
    pub fn jobs_json(&self) -> Json {
        let st = self.state.lock();
        let mut ids: Vec<u64> = st.jobs.keys().copied().collect();
        ids.sort_unstable_by(|a, b| b.cmp(a));
        Json::Arr(ids.iter().map(|id| st.jobs[id].to_json()).collect())
    }

    /// Terminal state + named artifact of a finished job.
    ///
    /// # Errors
    ///
    /// `Err(None)` when the ID is unknown (404); `Err(Some(state))` when the
    /// job has not completed (409 with its current state).
    #[allow(clippy::result_large_err)]
    pub fn artifact(&self, id: u64, which: &str) -> Result<Option<String>, Option<String>> {
        let st = self.state.lock();
        let job = st.jobs.get(&id).ok_or(None)?;
        match (&job.artifacts, job.state) {
            (Some(a), JobState::Completed) => Ok(match which {
                "metrics" => Some(a.metrics_json.clone()),
                "trace" => a.perfetto_json.clone(),
                "flows" => a.flows_json.clone(),
                _ => None,
            }),
            _ => Err(Some(job.state.name().to_owned())),
        }
    }

    /// Cancels a queued or running job; removes the record of a finished one.
    ///
    /// Returns `false` when the ID is unknown.
    pub fn cancel(&self, id: u64) -> bool {
        enum Act {
            Canceled { tenant: String, e2e: Duration, run: Duration, depth: u64, running: u64 },
            ParkRequested,
            Removed,
        }
        let act;
        {
            let mut st = self.state.lock();
            let Some(job) = st.jobs.get_mut(&id) else {
                return false;
            };
            match job.state {
                JobState::Queued => {
                    job.state = JobState::Canceled;
                    job.finished = Some(Instant::now());
                    job.queue_wait_us += job.last_queued.elapsed().as_micros() as u64;
                    if let Some(p) = job.ckpt.take() {
                        let _ = std::fs::remove_file(p);
                    }
                    let tenant = job.spec.tenant.clone();
                    let e2e = job.latency().unwrap_or_default();
                    let run = Duration::from_micros(job.run_us);
                    st.queue.remove(&tenant, id);
                    act = Act::Canceled {
                        tenant,
                        e2e,
                        run,
                        depth: st.queue.len() as u64,
                        running: st.running.len() as u64,
                    };
                }
                JobState::Running => {
                    job.cancel_requested = true;
                    // Ask the slice to park at its next safepoint so the
                    // worker frees up without waiting for the job to finish.
                    if let Some(run) = st.running.get_mut(&id) {
                        if !run.req.armed() {
                            let path = self.ckpt_path(id, u64::MAX);
                            run.req.request(&path);
                            run.ckpt_path = Some(path);
                        }
                    }
                    act = Act::ParkRequested;
                }
                _ => {
                    // Terminal: DELETE removes the record and its artifacts.
                    if let Some(p) = st.jobs.remove(&id).and_then(|j| j.ckpt) {
                        let _ = std::fs::remove_file(p);
                    }
                    act = Act::Removed;
                }
            }
        }
        match act {
            Act::Canceled { tenant, e2e, run, depth, running } => {
                self.telemetry.record_terminal(&tenant, JobState::Canceled, e2e, run);
                self.telemetry.set_levels(depth, running);
                self.logger
                    .info("job.cancel", &[("id", id.into()), ("tenant", tenant.as_str().into())]);
            }
            Act::ParkRequested => {
                self.logger.info("job.cancel_requested", &[("id", id.into())]);
            }
            Act::Removed => {
                self.logger.debug("job.forget", &[("id", id.into())]);
            }
        }
        true
    }

    /// Live queue/slice ages and levels, sampled under the state lock.
    fn live_stats(&self) -> LiveStats {
        let st = self.state.lock();
        let oldest_queued_age_ms = st
            .jobs
            .values()
            .filter(|j| j.state == JobState::Queued)
            .map(|j| j.last_queued.elapsed().as_millis() as u64)
            .max()
            .unwrap_or(0);
        let running_slice_age_ms = st
            .running
            .values()
            .map(|r| r.slice_started.elapsed().as_millis() as u64)
            .max()
            .unwrap_or(0);
        LiveStats {
            queued: st.queue.len() as u64,
            running: st.running.len() as u64,
            oldest_queued_age_ms,
            running_slice_age_ms,
            draining: st.draining,
            uptime_ms: self.started.elapsed().as_millis() as u64,
        }
    }

    /// The `GET /metrics` Prometheus text exposition. When `[serve] hostprof`
    /// is on, a `graphite_host_*` section follows the service metrics with
    /// per-stage host-cost attribution aggregated over every job slice.
    pub fn metrics_text(&self) -> String {
        let live = self.live_stats();
        let mut text = self.telemetry.prometheus(&live);
        if self.hostprof.is_enabled() {
            text.push_str(&crate::telemetry::host_prometheus(&self.hostprof.snapshot()));
        }
        text
    }

    /// The `GET /stats` document.
    pub fn stats_json(&self) -> Json {
        let st = self.state.lock();
        let mut by_state = [0u64; 5];
        for j in st.jobs.values() {
            by_state[j.state as usize] += 1;
        }
        let oldest_queued_age_ms = st
            .jobs
            .values()
            .filter(|j| j.state == JobState::Queued)
            .map(|j| j.last_queued.elapsed().as_millis() as u64)
            .max()
            .unwrap_or(0);
        let running_slice_age_ms = st
            .running
            .values()
            .map(|r| r.slice_started.elapsed().as_millis() as u64)
            .max()
            .unwrap_or(0);
        let tenants = Json::Arr(
            st.queue
                .tenants()
                .into_iter()
                .map(|(name, vrt, queued)| {
                    obj([
                        ("tenant", name.into()),
                        ("vruntime_ms", vrt.into()),
                        ("queued", (queued as u64).into()),
                    ])
                })
                .collect(),
        );
        let queued = st.queue.len() as u64;
        let running = st.running.len() as u64;
        let draining = st.draining;
        drop(st);
        let states = obj([
            ("queued", by_state[JobState::Queued as usize].into()),
            ("running", by_state[JobState::Running as usize].into()),
            ("completed", by_state[JobState::Completed as usize].into()),
            ("failed", by_state[JobState::Failed as usize].into()),
            ("canceled", by_state[JobState::Canceled as usize].into()),
        ]);
        let queue = obj([
            ("depth", queued.into()),
            ("oldest_age_ms", oldest_queued_age_ms.into()),
            ("running_slice_age_ms", running_slice_age_ms.into()),
        ]);
        Json::Obj(vec![
            ("workers".to_owned(), Json::from(u64::from(self.cfg.workers))),
            ("quantum_ms".to_owned(), self.cfg.quantum_ms.into()),
            ("uptime_ms".to_owned(), (self.started.elapsed().as_millis() as u64).into()),
            ("queued".to_owned(), queued.into()),
            ("running".to_owned(), running.into()),
            ("queued_state".to_owned(), by_state[JobState::Queued as usize].into()),
            ("jobs".to_owned(), states),
            ("completed".to_owned(), self.completed.load(Ordering::Relaxed).into()),
            ("preemptions".to_owned(), self.preempted.load(Ordering::Relaxed).into()),
            ("draining".to_owned(), draining.into()),
            ("queue".to_owned(), queue),
            ("tenants".to_owned(), tenants),
            ("latency".to_owned(), self.telemetry.latency_json()),
            ("preempt_cost".to_owned(), self.telemetry.preempt_json()),
            ("tenant_latency".to_owned(), self.telemetry.tenants_json()),
        ])
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop admitting, checkpoint every running slice,
    /// wait up to `serve.drain_ms` for workers to park them, then persist the
    /// queue so a restarted server resumes where this one left off.
    pub fn drain(&self) {
        {
            let mut st = self.state.lock();
            if st.draining {
                return;
            }
            st.draining = true;
            self.logger.info(
                "drain.start",
                &[
                    ("queued", (st.queue.len() as u64).into()),
                    ("running", (st.running.len() as u64).into()),
                ],
            );
            let State { running, jobs, .. } = &mut *st;
            for (&id, run) in running.iter_mut() {
                if !run.req.armed() {
                    let path = self.ckpt_path(id, jobs[&id].preemptions + 1);
                    run.req.request(&path);
                    run.ckpt_path = Some(path);
                }
            }
        }
        let deadline = Instant::now() + Duration::from_millis(self.cfg.drain_ms);
        {
            let mut st = self.state.lock();
            while !st.running.is_empty() && Instant::now() < deadline {
                self.work.wait_for(&mut st, Duration::from_millis(20));
            }
            if !st.running.is_empty() {
                self.logger.warn(
                    "drain.timeout",
                    &[
                        ("still_running", (st.running.len() as u64).into()),
                        ("drain_ms", self.cfg.drain_ms.into()),
                    ],
                );
            }
        }
        self.shutdown.store(true, Ordering::SeqCst);
        self.work.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock());
        for h in handles {
            let _ = h.join();
        }
        match self.persist_queue() {
            Ok(persisted) => {
                self.logger.info("drain.done", &[("persisted", (persisted as u64).into())]);
            }
            Err(e) => {
                self.logger.error("queue.persist_failed", &[("error", e.to_string().into())]);
            }
        }
    }

    fn ckpt_path(&self, id: u64, slice: u64) -> PathBuf {
        self.data_dir.join("jobs").join(format!("{id}-{slice}.ckpt"))
    }

    /// Serializes the still-queued jobs (in dispatch order) to
    /// `data_dir/queue.json`; returns how many were persisted.
    fn persist_queue(&self) -> std::io::Result<usize> {
        let mut st = self.state.lock();
        let order = st.queue.drain_order();
        let next_id = st.next_id;
        let entries: Vec<Json> = order
            .iter()
            .filter_map(|(_, id)| st.jobs.get(id))
            .map(|job| {
                let mut m = vec![
                    ("id".to_owned(), Json::from(job.id)),
                    ("spec".to_owned(), job.spec.to_json()),
                    ("preemptions".to_owned(), job.preemptions.into()),
                ];
                if let Some(p) = &job.ckpt {
                    m.push(("ckpt".to_owned(), p.display().to_string().into()));
                }
                Json::Obj(m)
            })
            .collect();
        drop(st);
        let persisted = entries.len();
        let doc = obj([("next_id", next_id.into()), ("jobs", Json::Arr(entries))]);
        std::fs::write(self.data_dir.join("queue.json"), doc.encode())?;
        Ok(persisted)
    }

    fn worker_loop(self: &Arc<Service>) {
        loop {
            let dispatched = {
                let mut st = self.state.lock();
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if st.draining {
                        // No new dispatches while draining; running slices
                        // finish on their own.
                        self.work.wait_for(&mut st, Duration::from_millis(20));
                        continue;
                    }
                    if let Some((tenant, id)) = st.queue.pop() {
                        let job = st.jobs.get_mut(&id).expect("queued job exists");
                        job.state = JobState::Running;
                        job.started.get_or_insert_with(Instant::now);
                        let wait = job.last_queued.elapsed();
                        job.queue_wait_us += wait.as_micros() as u64;
                        let resumed = job.ckpt.is_some();
                        if resumed {
                            job.cost.requeue_gap_us += wait.as_micros() as u64;
                        }
                        let spec = job.spec.clone();
                        let resume = job.ckpt.clone();
                        let req = CkptRequest::new();
                        st.running.insert(
                            id,
                            Running {
                                slice_started: Instant::now(),
                                req: req.clone(),
                                ckpt_path: None,
                            },
                        );
                        let depth = st.queue.len() as u64;
                        let running = st.running.len() as u64;
                        break (
                            Dispatch { id, tenant, spec, resume, req },
                            wait,
                            resumed,
                            depth,
                            running,
                        );
                    }
                    self.work.wait_for(&mut st, Duration::from_millis(100));
                }
            };
            let (d, wait, resumed, depth, running) = dispatched;
            self.telemetry.record_dispatch(&d.tenant, wait, resumed);
            self.telemetry.set_levels(depth, running);
            self.logger.debug(
                "job.dispatch",
                &[
                    ("id", d.id.into()),
                    ("tenant", d.tenant.as_str().into()),
                    ("wait_ms", (wait.as_secs_f64() * 1e3).into()),
                    ("resumed", resumed.into()),
                ],
            );
            self.run_slice(d);
        }
    }

    fn run_slice(&self, d: Dispatch) {
        let Dispatch { id, tenant, spec, resume, req } = d;
        let t0 = Instant::now();
        let (result, restore) = run_job(&spec, resume.as_deref(), &req, &self.hostprof);
        let slice = t0.elapsed();
        let slice_ms = (slice.as_millis() as u64).max(1);
        if let Some(rt) = restore {
            self.telemetry.record_restore(&tenant, rt);
        }

        let mut st = self.state.lock();
        let run_entry = st.running.remove(&id).expect("slice was registered");
        st.queue.charge(&tenant, slice_ms);
        let job = st.jobs.get_mut(&id).expect("running job exists");
        job.run_us += slice.as_micros() as u64;
        if let Some(rt) = restore {
            job.cost.restore_us += rt.as_micros() as u64;
            job.cost.resumes += 1;
        }
        let preempted = req.taken() > 0;
        let outcome;
        if job.cancel_requested {
            job.state = JobState::Canceled;
            job.finished = Some(Instant::now());
            for p in [job.ckpt.take(), run_entry.ckpt_path].into_iter().flatten() {
                let _ = std::fs::remove_file(p);
            }
            outcome = SliceOutcome::Terminal(
                JobState::Canceled,
                job.latency().unwrap_or_default(),
                Duration::from_micros(job.run_us),
                None,
            );
        } else if preempted {
            job.preemptions += 1;
            self.preempted.fetch_add(1, Ordering::Relaxed);
            let (serialize, bytes) = req.last_park_cost().unwrap_or((Duration::ZERO, 0));
            job.cost.serialize_us += serialize.as_micros() as u64;
            job.cost.ckpt_bytes += bytes;
            let parked = run_entry.ckpt_path.expect("preempted slice has a park path");
            if let Some(old) = job.ckpt.replace(parked) {
                let _ = std::fs::remove_file(old);
            }
            job.state = JobState::Queued;
            job.last_queued = Instant::now();
            st.queue.requeue(&tenant, id);
            outcome = SliceOutcome::Parked { serialize, bytes };
        } else {
            let error = match result {
                Ok(report) => {
                    job.artifacts = Some(capture(&spec, &report));
                    job.state = JobState::Completed;
                    self.completed.fetch_add(1, Ordering::Relaxed);
                    None
                }
                Err(e) => {
                    job.error = Some(e.clone());
                    job.state = JobState::Failed;
                    Some(e)
                }
            };
            job.finished = Some(Instant::now());
            if let Some(old) = job.ckpt.take() {
                let _ = std::fs::remove_file(old);
            }
            outcome = SliceOutcome::Terminal(
                job.state,
                job.latency().unwrap_or_default(),
                Duration::from_micros(job.run_us),
                error,
            );
        }
        let depth = st.queue.len() as u64;
        let running = st.running.len() as u64;
        drop(st);

        let overrun = (preempted && self.cfg.quantum_ms > 0)
            .then(|| slice.saturating_sub(Duration::from_millis(self.cfg.quantum_ms)));
        self.telemetry.record_slice(slice, overrun);
        self.telemetry.set_levels(depth, running);
        match outcome {
            SliceOutcome::Parked { serialize, bytes } => {
                self.telemetry.record_park(&tenant, serialize, bytes);
                self.logger.info(
                    "job.preempt",
                    &[
                        ("id", id.into()),
                        ("tenant", tenant.as_str().into()),
                        ("slice_ms", (slice.as_secs_f64() * 1e3).into()),
                        ("serialize_ms", (serialize.as_secs_f64() * 1e3).into()),
                        ("ckpt_bytes", bytes.into()),
                    ],
                );
            }
            SliceOutcome::Terminal(state, e2e, run_total, error) => {
                self.telemetry.record_terminal(&tenant, state, e2e, run_total);
                let mut fields = vec![
                    ("id", Json::from(id)),
                    ("tenant", tenant.as_str().into()),
                    ("state", state.name().into()),
                    ("e2e_ms", (e2e.as_secs_f64() * 1e3).into()),
                    ("run_ms", (run_total.as_secs_f64() * 1e3).into()),
                ];
                if let Some(e) = error {
                    fields.push(("error", e.into()));
                }
                self.logger.info("job.terminal", &fields);
            }
        }
        self.work.notify_all();
    }

    /// Arms preemption on any slice that has outrun the quantum while other
    /// work waits. `serve.quantum_ms = 0` disables preemption entirely.
    fn preemptor_loop(self: &Arc<Service>) {
        while !self.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5));
            if self.cfg.quantum_ms == 0 {
                continue;
            }
            let mut st = self.state.lock();
            if st.queue.is_empty() {
                continue;
            }
            let quantum = Duration::from_millis(self.cfg.quantum_ms);
            let mut to_arm = Vec::new();
            for (&id, run) in st.running.iter() {
                if !run.req.armed() && run.slice_started.elapsed() >= quantum {
                    to_arm.push(id);
                }
            }
            let mut armed = Vec::with_capacity(to_arm.len());
            for id in to_arm {
                let slice = st.jobs[&id].preemptions + 1;
                let path = self.ckpt_path(id, slice);
                let run = st.running.get_mut(&id).expect("slice present");
                run.req.request(&path);
                run.ckpt_path = Some(path);
                armed.push(id);
            }
            drop(st);
            for id in armed {
                self.logger.debug("job.preempt_arm", &[("id", id.into())]);
            }
        }
    }
}

/// Builds and runs one slice of a job, catching guest panics. The second
/// return is the restore time when the slice resumed from a park file — the
/// "unpark" half of preemption cost.
fn run_job(
    spec: &JobSpec,
    resume: Option<&Path>,
    req: &CkptRequest,
    prof: &Arc<HostProf>,
) -> (Result<SimReport, String>, Option<Duration>) {
    let mut builder = match crate::workload::build_sim(spec) {
        Ok(b) => b.ckpt_request(req.clone()),
        Err(e) => return (Err(format!("config: {e}")), None),
    };
    if prof.is_enabled() {
        builder = builder.hostprof_shared(Arc::clone(prof));
    }
    let resuming = resume.is_some();
    if let Some(path) = resume {
        builder = builder.resume(path);
    }
    let t0 = Instant::now();
    let sim = match builder.build() {
        Ok(s) => s,
        Err(e) => return (Err(format!("build: {e}")), None),
    };
    let restore = resuming.then(|| t0.elapsed());
    let spec = spec.clone();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        sim.run(move |ctx| crate::workload::run(&spec, ctx))
    }))
    .map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "guest panicked".into());
        format!("panic: {msg}")
    });
    (result, restore)
}

/// Extracts the artifacts the API serves from a finished run.
fn capture(spec: &JobSpec, report: &SimReport) -> Artifacts {
    let (perfetto_json, flows_json) = if spec.trace {
        let fa = report.flow_analysis();
        let slowest = Json::Arr(
            fa.slowest(5)
                .into_iter()
                .map(|f| {
                    obj([
                        ("id", f.id.into()),
                        ("kind", f.kind.map_or(Json::Null, Json::from)),
                        ("duration", f.duration().into()),
                    ])
                })
                .collect(),
        );
        let flows = obj([
            ("complete", (fa.complete_count() as u64).into()),
            ("incomplete", (fa.incomplete_count() as u64).into()),
            ("slowest", slowest),
        ]);
        (Some(report.perfetto_json()), Some(flows.encode()))
    } else {
        (None, None)
    };
    Artifacts {
        sim_cycles: report.simulated_cycles.0,
        metrics_json: report.metrics_json(),
        perfetto_json,
        flows_json,
        stdout: String::from_utf8_lossy(&report.stdout).into_owned(),
    }
}

/// Loads `data_dir/queue.json` (written by a draining server) into fresh
/// state, then removes the file. Returns how many jobs were restored.
fn restore_queue(data_dir: &Path, state: &mut State) -> std::io::Result<usize> {
    let path = data_dir.join("queue.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    let doc = Json::parse(&text).map_err(|e| bad(format!("queue.json: {e}")))?;
    state.next_id = doc
        .get("next_id")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("queue.json: missing next_id".into()))?
        .max(1);
    let jobs = doc.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
    let mut restored = 0;
    for entry in jobs {
        let id = entry
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("queue.json: job missing id".into()))?;
        let spec = JobSpec::from_json(
            entry.get("spec").ok_or_else(|| bad(format!("queue.json: job {id} missing spec")))?,
        )
        .map_err(|e| bad(format!("queue.json: job {id}: {e}")))?;
        let mut job = Job::new(id, spec);
        job.preemptions = entry.get("preemptions").and_then(Json::as_u64).unwrap_or(0);
        job.ckpt = entry.get("ckpt").and_then(Json::as_str).map(PathBuf::from);
        // File order is dispatch order; plain pushes reproduce it.
        state.queue.requeue_back(&job.spec.tenant, id);
        state.jobs.insert(id, job);
        restored += 1;
    }
    let _ = std::fs::remove_file(&path);
    Ok(restored)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg(workers: u32, quantum_ms: u64) -> ServeConfig {
        ServeConfig {
            workers,
            quantum_ms,
            queue_depth: 64,
            max_body_bytes: 1 << 20,
            drain_ms: 10_000,
            log_level: graphite_config::LogLevel::Debug,
            log_max_bytes: 0,
            hostprof: false,
        }
    }

    fn spec(tenant: &str, iters: u64) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            workload: "spin".into(),
            iters,
            work: 50,
            tiles: 2,
            seed: 1,
            trace: false,
        }
    }

    fn wait_terminal(svc: &Service, id: u64, timeout: Duration) -> JobState {
        let deadline = Instant::now() + timeout;
        loop {
            let st = svc.state.lock().jobs[&id].state;
            if matches!(st, JobState::Completed | JobState::Failed | JobState::Canceled) {
                return st;
            }
            assert!(Instant::now() < deadline, "job {id} stuck in {st:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn submits_run_to_completion_and_serve_artifacts() {
        let dir = std::env::temp_dir().join("graphite-serve-svc-basic");
        let _ = std::fs::remove_dir_all(&dir);
        let svc = Service::start(test_cfg(2, 0), &dir).unwrap();
        let id = svc.submit(spec("acme", 200)).unwrap();
        assert_eq!(wait_terminal(&svc, id, Duration::from_secs(30)), JobState::Completed);
        let metrics = svc.artifact(id, "metrics").unwrap().unwrap();
        assert!(metrics.contains("sim_cycles") || metrics.contains('{'));
        assert!(svc.artifact(id, "trace").unwrap().is_none(), "tracing was off");
        assert!(svc.artifact(999, "metrics").is_err());
        svc.drain();
    }

    #[test]
    fn cancel_queued_job_never_runs() {
        let dir = std::env::temp_dir().join("graphite-serve-svc-cancel");
        let _ = std::fs::remove_dir_all(&dir);
        // Single worker busy on a long job; the second job sits queued.
        let svc = Service::start(test_cfg(1, 0), &dir).unwrap();
        let long = svc.submit(spec("a", 300_000)).unwrap();
        let victim = svc.submit(spec("b", 100)).unwrap();
        assert!(svc.cancel(victim));
        assert_eq!(svc.state.lock().jobs[&victim].state, JobState::Canceled);
        assert!(svc.cancel(long), "cancel the running job too");
        assert_eq!(wait_terminal(&svc, long, Duration::from_secs(30)), JobState::Canceled);
        svc.drain();
    }

    #[test]
    fn drain_persists_queue_and_restart_restores_it() {
        let dir = std::env::temp_dir().join("graphite-serve-svc-restart");
        let _ = std::fs::remove_dir_all(&dir);
        let (running, queued1, queued2);
        {
            let svc = Service::start(test_cfg(1, 0), &dir).unwrap();
            running = svc.submit(spec("a", 50_000_000)).unwrap();
            std::thread::sleep(Duration::from_millis(30));
            queued1 = svc.submit(spec("b", 50)).unwrap();
            queued2 = svc.submit(spec("a", 60)).unwrap();
            svc.drain();
            let persisted = std::fs::read_to_string(dir.join("queue.json")).unwrap();
            let doc = Json::parse(&persisted).unwrap();
            let entries = doc.get("jobs").and_then(Json::as_arr).unwrap().to_vec();
            let ids: Vec<u64> =
                entries.iter().map(|j| j.get("id").unwrap().as_u64().unwrap()).collect();
            assert!(ids.contains(&queued1) && ids.contains(&queued2), "queued jobs persisted");
            // The running job was checkpoint-parked by the drain and is
            // persisted with its park file for the next server to resume.
            let parked = entries.iter().find(|j| j.get("id").unwrap().as_u64() == Some(running));
            assert!(
                parked.and_then(|j| j.get("ckpt")).is_some(),
                "drained running job persisted with its checkpoint: {persisted}"
            );
        }
        // A fresh server picks the queue back up and runs it dry.
        let svc = Service::start(test_cfg(2, 0), &dir).unwrap();
        assert_eq!(svc.state.lock().jobs.len(), 3, "all three jobs restored");
        assert!(svc.state.lock().jobs[&running].ckpt.is_some(), "park file carried over");
        for id in [queued1, queued2] {
            assert_eq!(wait_terminal(&svc, id, Duration::from_secs(30)), JobState::Completed);
        }
        // The long job is mid-flight from its checkpoint; cancel it rather
        // than simulate 50M iterations to the end.
        assert!(svc.cancel(running));
        assert_eq!(wait_terminal(&svc, running, Duration::from_secs(30)), JobState::Canceled);
        assert!(!dir.join("queue.json").exists(), "consumed on restore");
        svc.drain();
    }

    /// `spin` iterations this build runs in `secs` of wall time, measured
    /// on an unpreempted run: an optimized build is an order of magnitude
    /// faster than a debug one, so a job meant to outlast a quantum is sized
    /// from this, not from a fixed count.
    fn spin_iters_for(secs: f64) -> u64 {
        let probe = spec("probe", 20_000);
        let sim = crate::workload::build_sim(&probe).unwrap().build().unwrap();
        let t0 = Instant::now();
        sim.run(|ctx| crate::workload::run(&probe, ctx));
        (probe.iters as f64 * secs / t0.elapsed().as_secs_f64()) as u64
    }

    #[test]
    fn preemption_cost_is_accounted_per_job_and_in_stats() {
        let dir = std::env::temp_dir().join("graphite-serve-svc-cost");
        let _ = std::fs::remove_dir_all(&dir);
        // One worker, 25ms quantum: the long job must be parked at least once
        // to let the short jobs through, then resumed to completion. Sized to
        // ≈ 20 quanta of work on this build, so it cannot finish inside the
        // first one under any profile.
        let long_iters = spin_iters_for(0.5).max(100_000);
        let svc = Service::start(test_cfg(1, 25), &dir).unwrap();
        let long = svc.submit(spec("slow", long_iters)).unwrap();
        let mut shorts = Vec::new();
        for _ in 0..3 {
            shorts.push(svc.submit(spec("fast", 100)).unwrap());
        }
        for id in shorts {
            assert_eq!(wait_terminal(&svc, id, Duration::from_secs(60)), JobState::Completed);
        }
        assert_eq!(wait_terminal(&svc, long, Duration::from_secs(120)), JobState::Completed);
        {
            let st = svc.state.lock();
            let job = &st.jobs[&long];
            assert!(job.preemptions >= 1, "long job was never preempted");
            assert!(job.cost.ckpt_bytes > 0, "park file bytes accounted");
            assert!(job.cost.serialize_us > 0, "serialize time accounted");
            assert_eq!(job.cost.resumes, job.preemptions, "every park was resumed");
            assert!(job.cost.restore_us > 0, "restore time accounted");
            assert!(job.run_us > 0 && job.queue_wait_us > 0, "lifecycle stamped");
        }
        let stats = svc.stats_json();
        assert!(stats.get("uptime_ms").unwrap().as_u64().unwrap() > 0);
        let jobs = stats.get("jobs").unwrap();
        assert_eq!(jobs.get("completed").unwrap().as_u64(), Some(4));
        assert_eq!(jobs.get("failed").unwrap().as_u64(), Some(0));
        let cost = stats.get("preempt_cost").unwrap();
        assert!(cost.get("parks").unwrap().as_u64().unwrap() >= 1);
        assert!(cost.get("ckpt_bytes_total").unwrap().as_u64().unwrap() > 0);
        assert!(cost.get("serialize_ms_total").unwrap().as_f64().unwrap() > 0.0);
        let lat = stats.get("latency").unwrap();
        assert_eq!(lat.get("e2e").unwrap().get("count").unwrap().as_u64(), Some(4));
        let per = stats.get("tenant_latency").unwrap();
        assert!(per.get("slow").unwrap().get("preemptions").unwrap().as_u64().unwrap() >= 1);
        // The job detail document carries the same breakdown.
        let detail = svc.job_json(long).unwrap();
        assert!(detail.get("preemptions").unwrap().as_u64().unwrap() >= 1);
        let jc = detail.get("preempt_cost").unwrap();
        assert!(jc.get("ckpt_bytes").unwrap().as_u64().unwrap() > 0);
        assert!(jc.get("resumes").unwrap().as_u64().unwrap() >= 1);
        // The structured log captured the preemption and terminal events.
        let log = std::fs::read_to_string(dir.join("serve.log.jsonl")).unwrap();
        assert!(log.lines().any(|l| l.contains("\"event\":\"job.preempt\"")), "{log}");
        assert!(log.lines().any(|l| l.contains("\"event\":\"job.terminal\"")), "{log}");
        svc.drain();
    }

    #[test]
    fn hostprof_service_exports_host_stage_metrics() {
        let dir = std::env::temp_dir().join("graphite-serve-svc-hostprof");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig { hostprof: true, ..test_cfg(1, 0) };
        let svc = Service::start(cfg, &dir).unwrap();
        let before = svc.metrics_text();
        assert!(before.contains("graphite_host_wall_ns"), "host section present from boot");
        let id = svc.submit(spec("acme", 500)).unwrap();
        assert_eq!(wait_terminal(&svc, id, Duration::from_secs(30)), JobState::Completed);
        let text = svc.metrics_text();
        graphite_trace::expo::validate(&text).unwrap();
        // The slice ran through the guest scheduler, so scheduler stages must
        // have accumulated ops in the shared profiler.
        assert!(text.contains("graphite_host_stage_ops_total{stage=\"sched.slot_run\"}"), "{text}");
        svc.drain();
    }

    #[test]
    fn unprofiled_service_omits_host_section() {
        let dir = std::env::temp_dir().join("graphite-serve-svc-nohostprof");
        let _ = std::fs::remove_dir_all(&dir);
        let svc = Service::start(test_cfg(1, 0), &dir).unwrap();
        assert!(!svc.metrics_text().contains("graphite_host_"), "hostprof defaults off");
        svc.drain();
    }

    #[test]
    fn draining_service_rejects_submissions() {
        let dir = std::env::temp_dir().join("graphite-serve-svc-drainrej");
        let _ = std::fs::remove_dir_all(&dir);
        let svc = Service::start(test_cfg(1, 0), &dir).unwrap();
        svc.drain();
        assert_eq!(svc.submit(spec("a", 10)).unwrap_err(), SubmitError::Draining);
    }
}
