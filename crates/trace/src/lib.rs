//! Observability layer for the Graphite-rs simulator.
//!
//! Graphite's value as a research vehicle comes from what it can *report*
//! about a run: cache miss breakdowns, network latencies, synchronization
//! slack (paper §5 evaluates all of these). This crate centralizes that
//! reporting in two cooperating pieces:
//!
//! * **Metrics** — a per-tile [`MetricsRegistry`] of named lock-free counters
//!   ([`Metric`], per-tile [`ShardedMetric`] lanes) and log₂
//!   [`ShardedHistogram`]s. Subsystems register once at
//!   construction and update on hot paths with relaxed atomics; a
//!   [`MetricsSnapshot`] serializes the registry as `metrics.json`. Because
//!   the snapshot reads the same atomics the subsystems increment, any report
//!   built from the registry agrees with the export by construction.
//!
//! * **Tracing** — a [`Tracer`] of structured [`TraceEvent`]s (memory ops,
//!   directory transaction legs, packets, futex and barrier activity, clock
//!   skew samples) in fixed-capacity per-tile ring buffers, exported as JSON
//!   Lines. Tracing defaults to off and costs one branch per potential event
//!   while disabled; payload construction is deferred behind a closure.
//!
//! [`Obs`] bundles one registry and one tracer and is what the simulator
//! threads its observability context through.
//!
//! # Examples
//!
//! ```
//! use graphite_base::{Cycles, TileId};
//! use graphite_trace::{Obs, TraceEventKind, TraceOptions};
//!
//! let obs = Obs::new(4, TraceOptions { enabled: true, capacity: 1024, flows: false });
//! let misses = obs.metrics.counter("mem.misses");
//! misses.incr();
//! obs.tracer.emit(TileId(2), Cycles(100), || TraceEventKind::MemOpStart {
//!     op: "load",
//!     addr: 0x40,
//! });
//! assert_eq!(obs.metrics.snapshot().counters["mem.misses"], 1);
//! assert_eq!(obs.tracer.drain().len(), 1);
//! ```

use std::sync::Arc;

use graphite_base::HostProf;

pub mod expo;
pub mod json;
pub mod metrics;
pub mod tracer;

pub use expo::PromText;
pub use metrics::{
    Gauge, HistogramSnapshot, LaneFold, Metric, MetricsRegistry, MetricsSnapshot, ShardedHistogram,
    ShardedMetric,
};
pub use tracer::{export_jsonl, TraceEvent, TraceEventKind, Tracer};

/// Runtime tracing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOptions {
    /// Whether event recording starts enabled.
    pub enabled: bool,
    /// Ring-buffer capacity per tile, in events.
    pub capacity: usize,
    /// Whether causal flow spans (Flow* events) are recorded; only takes
    /// effect when `enabled` is also set.
    pub flows: bool,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions { enabled: false, capacity: 4096, flows: false }
    }
}

/// The observability context a simulation carries: one metrics registry and
/// one event tracer, cheaply cloneable (both sides are `Arc`s).
#[derive(Debug, Clone)]
pub struct Obs {
    /// Named counters and histograms for this simulation.
    pub metrics: Arc<MetricsRegistry>,
    /// Structured event tracer for this simulation.
    pub tracer: Arc<Tracer>,
    /// Host-side cost profiler (`host.*` namespace). Disabled by default;
    /// instrumentation points cost one atomic load until it is enabled via
    /// [`Obs::with_hostprof`].
    pub hostprof: Arc<HostProf>,
}

impl Obs {
    /// Creates an observability context for `num_tiles` tiles. Host
    /// profiling starts disabled.
    pub fn new(num_tiles: usize, trace: TraceOptions) -> Self {
        let tracer = Tracer::new(num_tiles, trace.enabled, trace.capacity);
        tracer.set_flows(trace.flows);
        Obs {
            metrics: Arc::new(MetricsRegistry::new(num_tiles)),
            tracer: Arc::new(tracer),
            hostprof: HostProf::disabled(),
        }
    }

    /// Replaces the host profiler — pass [`HostProf::new`] to turn host-cost
    /// attribution on, or share one profiler across several sims (the serve
    /// path aggregates all jobs into one `host.*` exposition).
    pub fn with_hostprof(mut self, hostprof: Arc<HostProf>) -> Self {
        self.hostprof = hostprof;
        self
    }

    /// A context with tracing off — the default for subsystems constructed
    /// without explicit observability wiring.
    pub fn detached(num_tiles: usize) -> Self {
        Obs::new(num_tiles, TraceOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_base::{Cycles, TileId};

    #[test]
    fn obs_clone_shares_registry_and_tracer() {
        let obs = Obs::new(2, TraceOptions { enabled: true, capacity: 8, flows: false });
        let alias = obs.clone();
        obs.metrics.counter("x").add(3);
        assert_eq!(alias.metrics.counter("x").get(), 3);
        alias.tracer.emit(TileId(0), Cycles(1), || TraceEventKind::Syscall { name: "open" });
        assert_eq!(obs.tracer.drain().len(), 1);
    }

    #[test]
    fn detached_context_records_metrics_but_not_events() {
        let obs = Obs::detached(1);
        obs.metrics.counter("c").incr();
        obs.tracer.emit(TileId(0), Cycles(0), || unreachable!());
        assert_eq!(obs.metrics.snapshot().counters["c"], 1);
        assert!(obs.tracer.drain().is_empty());
    }
}
