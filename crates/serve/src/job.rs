//! The job model: what a tenant submits, how it progresses through the
//! service, and which artifacts a finished run leaves behind.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use graphite_trace::json::{obj, Json};

/// A job submission: which workload to simulate, on what machine shape, for
/// which tenant. Parsed from the `POST /jobs` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Fair-share accounting bucket; jobs of one tenant run FIFO.
    pub tenant: String,
    /// Workload driver name (see [`crate::workload`]): `spin`, `memstream`
    /// or `mixed`.
    pub workload: String,
    /// Resumable iterations the driver performs.
    pub iters: u64,
    /// Per-iteration work scale (ALU burst length / slots touched).
    pub work: u64,
    /// Simulated target tiles.
    pub tiles: u32,
    /// Simulation seed (deterministic per job).
    pub seed: u64,
    /// Capture an event trace and export a Perfetto artifact.
    pub trace: bool,
}

impl JobSpec {
    /// Parses and validates a submission body.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let tenant = v
            .get("tenant")
            .and_then(Json::as_str)
            .filter(|t| !t.is_empty() && t.len() <= 64)
            .ok_or("missing or invalid 'tenant' (non-empty string, <= 64 chars)")?
            .to_owned();
        if !tenant.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_') {
            return Err("'tenant' must be alphanumeric with '-'/'_'".into());
        }
        let workload = v.get("workload").and_then(Json::as_str).unwrap_or("mixed").to_owned();
        if !crate::workload::KNOWN.contains(&workload.as_str()) {
            return Err(format!(
                "unknown 'workload' {workload:?} (expected one of {:?})",
                crate::workload::KNOWN
            ));
        }
        let iters = v.get("iters").and_then(Json::as_u64).unwrap_or(1_000);
        if iters == 0 || iters > 100_000_000 {
            return Err("'iters' must be in 1..=100000000".into());
        }
        let work = v.get("work").and_then(Json::as_u64).unwrap_or(100);
        if work == 0 || work > 1_000_000 {
            return Err("'work' must be in 1..=1000000".into());
        }
        let tiles = v.get("tiles").and_then(Json::as_u64).unwrap_or(2) as u32;
        if tiles == 0 || tiles > 1024 {
            return Err("'tiles' must be in 1..=1024".into());
        }
        let seed = v.get("seed").and_then(Json::as_u64).unwrap_or(0xC0FFEE);
        let trace = v.get("trace").and_then(Json::as_bool).unwrap_or(false);
        Ok(JobSpec { tenant, workload, iters, work, tiles, seed, trace })
    }

    /// Serializes the spec (used by job detail responses and the persisted
    /// queue).
    pub fn to_json(&self) -> Json {
        obj([
            ("tenant", self.tenant.as_str().into()),
            ("workload", self.workload.as_str().into()),
            ("iters", self.iters.into()),
            ("work", self.work.into()),
            ("tiles", (self.tiles as u64).into()),
            ("seed", self.seed.into()),
            ("trace", self.trace.into()),
        ])
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the fair-share queue (first time or after preemption).
    Queued,
    /// Executing on a simulation worker.
    Running,
    /// Finished; artifacts available.
    Completed,
    /// The guest panicked or the simulation failed to build.
    Failed,
    /// Canceled by `DELETE /jobs/:id`.
    Canceled,
}

impl JobState {
    /// Lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
        }
    }
}

/// Cumulative preemption-cost ledger for one job: what its checkpoint
/// park/resume cycles cost in wall-time and storage, summed over every
/// preemption. Exposed (as milliseconds) in `GET /jobs/:id`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PreemptCost {
    /// Microseconds spent serializing park files at safepoints.
    pub serialize_us: u64,
    /// Park-file bytes written.
    pub ckpt_bytes: u64,
    /// Microseconds spent rebuilding the simulation from park files.
    pub restore_us: u64,
    /// Microseconds spent waiting between requeue and redispatch.
    pub requeue_gap_us: u64,
    /// Times the job was resumed from a park file.
    pub resumes: u64,
}

impl PreemptCost {
    /// The cost breakdown for `GET /jobs/:id` (durations in milliseconds).
    pub fn to_json(&self) -> Json {
        obj([
            ("serialize_ms", (self.serialize_us as f64 / 1e3).into()),
            ("ckpt_bytes", self.ckpt_bytes.into()),
            ("restore_ms", (self.restore_us as f64 / 1e3).into()),
            ("requeue_gap_ms", (self.requeue_gap_us as f64 / 1e3).into()),
            ("resumes", self.resumes.into()),
        ])
    }
}

/// Artifacts captured from a completed run.
#[derive(Debug, Clone, Default)]
pub struct Artifacts {
    /// Final simulated cycle count — bit-identical however often the job was
    /// preempted and resumed.
    pub sim_cycles: u64,
    /// The full `metrics.json` document.
    pub metrics_json: String,
    /// Perfetto/Chrome trace (only when the spec enabled tracing).
    pub perfetto_json: Option<String>,
    /// Flow-analysis summary (only when tracing was on).
    pub flows_json: Option<String>,
    /// Captured guest stdout.
    pub stdout: String,
}

/// One job's full service-side record.
#[derive(Debug)]
pub struct Job {
    pub id: u64,
    pub spec: JobSpec,
    pub state: JobState,
    pub submitted: Instant,
    /// When the job last entered the queue (submit, restore, or requeue
    /// after preemption) — the anchor for the current queue-wait interval.
    pub last_queued: Instant,
    /// First dispatch onto a worker.
    pub started: Option<Instant>,
    pub finished: Option<Instant>,
    /// Total time spent waiting in the queue across all visits, µs.
    pub queue_wait_us: u64,
    /// Total worker time across all slices, µs.
    pub run_us: u64,
    /// Times the scheduler checkpoint-preempted this job.
    pub preemptions: u64,
    /// What those preemptions cost.
    pub cost: PreemptCost,
    /// Park file to resume from (set while preempted).
    pub ckpt: Option<PathBuf>,
    /// Set when `DELETE` raced a running job; the worker finalizes it as
    /// [`JobState::Canceled`] at its next preemption or completion.
    pub cancel_requested: bool,
    pub artifacts: Option<Artifacts>,
    pub error: Option<String>,
}

impl Job {
    pub(crate) fn new(id: u64, spec: JobSpec) -> Job {
        Job {
            id,
            spec,
            state: JobState::Queued,
            submitted: Instant::now(),
            last_queued: Instant::now(),
            started: None,
            finished: None,
            queue_wait_us: 0,
            run_us: 0,
            preemptions: 0,
            cost: PreemptCost::default(),
            ckpt: None,
            cancel_requested: false,
            artifacts: None,
            error: None,
        }
    }

    /// Submit→finish latency, if the job has finished.
    pub fn latency(&self) -> Option<Duration> {
        self.finished.map(|f| f.duration_since(self.submitted))
    }

    /// The job summary returned by `GET /jobs` and `GET /jobs/:id`.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("id".to_owned(), Json::from(self.id)),
            ("state".to_owned(), self.state.name().into()),
            ("spec".to_owned(), self.spec.to_json()),
            ("preemptions".to_owned(), self.preemptions.into()),
            ("queue_wait_ms".to_owned(), (self.queue_wait_us as f64 / 1e3).into()),
            ("run_ms".to_owned(), (self.run_us as f64 / 1e3).into()),
            ("preempt_cost".to_owned(), self.cost.to_json()),
        ];
        if let Some(l) = self.latency() {
            members.push(("latency_ms".to_owned(), (l.as_secs_f64() * 1e3).into()));
        }
        if let Some(a) = &self.artifacts {
            members.push(("sim_cycles".to_owned(), a.sim_cycles.into()));
        }
        if let Some(e) = &self.error {
            members.push(("error".to_owned(), e.as_str().into()));
        }
        Json::Obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_with_defaults_and_validates() {
        let v = Json::parse(r#"{"tenant":"acme"}"#).unwrap();
        let spec = JobSpec::from_json(&v).unwrap();
        assert_eq!(spec.tenant, "acme");
        assert_eq!(spec.workload, "mixed");
        assert_eq!(spec.iters, 1_000);
        assert!(!spec.trace);

        for bad in [
            r#"{}"#,
            r#"{"tenant":""}"#,
            r#"{"tenant":"a b"}"#,
            r#"{"tenant":"a","workload":"nope"}"#,
            r#"{"tenant":"a","iters":0}"#,
            r#"{"tenant":"a","tiles":4096}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(JobSpec::from_json(&v).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn job_json_carries_lifecycle_and_cost_breakdown() {
        let v = Json::parse(r#"{"tenant":"acme"}"#).unwrap();
        let mut job = Job::new(7, JobSpec::from_json(&v).unwrap());
        job.queue_wait_us = 2_500;
        job.run_us = 10_000;
        job.preemptions = 2;
        job.cost = PreemptCost {
            serialize_us: 800,
            ckpt_bytes: 4096,
            restore_us: 1_200,
            requeue_gap_us: 3_000,
            resumes: 2,
        };
        let j = job.to_json();
        assert_eq!(j.get("queue_wait_ms").unwrap().as_f64(), Some(2.5));
        assert_eq!(j.get("run_ms").unwrap().as_f64(), Some(10.0));
        let cost = j.get("preempt_cost").unwrap();
        assert_eq!(cost.get("ckpt_bytes").unwrap().as_u64(), Some(4096));
        assert_eq!(cost.get("resumes").unwrap().as_u64(), Some(2));
        assert_eq!(cost.get("serialize_ms").unwrap().as_f64(), Some(0.8));
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = JobSpec {
            tenant: "t-1".into(),
            workload: "spin".into(),
            iters: 42,
            work: 7,
            tiles: 4,
            seed: 99,
            trace: true,
        };
        assert_eq!(JobSpec::from_json(&spec.to_json()).unwrap(), spec);
    }
}
