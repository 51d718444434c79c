//! `graphite-serve` — multi-tenant simulation-as-a-service.
//!
//! A dependency-free HTTP job service over the Graphite simulator: tenants
//! `POST` job specs, a bounded pool of workers runs them from a fair-share
//! queue, and a preemptor checkpoint-parks any job that outruns its quantum
//! while other work waits — so hundreds of short jobs are never stuck behind
//! one long one, and the long job still finishes with bit-identical results.
//!
//! See [`service::Service`] for the scheduling core and [`server::serve`]
//! for the HTTP surface.

pub mod http;
pub mod job;
pub mod log;
pub mod queue;
pub mod server;
pub mod service;
pub mod telemetry;
pub mod workload;

pub use graphite_trace::json::{obj, Json};
pub use job::{Job, JobSpec, JobState, PreemptCost};
pub use log::Logger;
pub use queue::FairQueue;
pub use server::serve;
pub use service::{Service, SubmitError};
pub use telemetry::{LiveStats, Telemetry};
