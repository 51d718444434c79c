//! Host-cost attribution report built from a [`HostProfSnapshot`].
//!
//! The CPI stack answers "where did *simulated* cycles go"; this module
//! answers the companion question the paper's §6.1 scaling study keeps
//! running into: where did the *host's* time go while producing them? The
//! simulator's chokepoints (guest scheduler, miss path, directory, DRAM and
//! network models) run under sampled scoped timers
//! ([`graphite_base::HostProf`]); this module folds the resulting snapshot
//! into a readable profile:
//!
//! * a per-stage table — exact operation counts, sampled ns/op, and
//!   count-extrapolated total host time, sorted by estimated self time;
//! * worker utilization — how the pool's slot capacity (`workers × wall`)
//!   splits into slots running guest code, slots in transit between
//!   contexts (scheduler overhead) and slots held by no context (idle);
//! * the most contended locks (tile mutexes, directory shards) by estimated
//!   wait time;
//! * the miss-path attribution ratio: how much of `mem.miss_total`'s host
//!   time is explained by its named sub-stages (the remainder is loop glue
//!   the instrumentation does not name).
//!
//! The profile is computed from the snapshot alone — no live profiler access
//! — so it can be rebuilt from a serialized report.

use std::fmt;

use graphite_base::{HostProfSnapshot, HostStage};

/// One row of the per-stage host-cost table.
#[derive(Debug, Clone, PartialEq)]
pub struct HostStageRow {
    /// Stage name (`host.` namespace suffix, e.g. `mem.dir_lookup`).
    pub name: &'static str,
    /// The stage this row describes.
    pub stage: HostStage,
    /// Exact number of spans entered (counted even when not sampled).
    pub count: u64,
    /// Spans that were actually timed (≈ `count / sample`).
    pub timed: u64,
    /// Mean self nanoseconds per operation over the timed sample.
    pub self_ns_per_op: f64,
    /// Estimated total self nanoseconds: `self_ns_per_op × count`.
    pub est_self_ns: f64,
    /// Estimated total (inclusive) nanoseconds.
    pub est_total_ns: f64,
}

/// Worker utilization derived from the scheduler stages. The three
/// fractions partition the pool's slot capacity (`workers × wall_ns`), so
/// they sum to at most 1; the remainder is slots in flight that no stage
/// times (a woken carrier or thread on its way to the slot).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkerUtilization {
    /// Carrier-pool width the fractions are normalized by.
    pub workers: u64,
    /// Profiled wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Estimated ns of slot time spent running guest code (busy).
    pub busy_ns: f64,
    /// Estimated ns spent passing slots on: thread handoffs (with their
    /// steal scans), carrier context switches and carrier spawns.
    pub handoff_ns: f64,
    /// Estimated ns thread contexts spent parked or waiting for a slot on
    /// the OS path — time *contexts* waited, not slot time.
    pub park_ns: f64,
    /// Slot time held by no context.
    pub idle_ns: f64,
    /// `busy_ns / (workers × wall_ns)` — the fraction of the pool's
    /// capacity that ran guest code.
    pub busy_frac: f64,
    /// Scheduler-overhead fraction of pool capacity (`handoff_ns`).
    pub overhead_frac: f64,
    /// Fraction of pool capacity held by no context (`idle_ns`).
    pub idle_frac: f64,
}

/// The assembled host-cost profile; render with `Display` or consume the
/// fields directly.
#[derive(Debug, Clone, PartialEq)]
pub struct HostProfile {
    /// Sampling interval the estimates were extrapolated from.
    pub sample: u32,
    /// Profiled wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Stages that fired at least once, sorted by `est_self_ns` descending.
    pub stages: Vec<HostStageRow>,
    /// Worker utilization (present when the scheduler recorded slot time).
    pub utilization: WorkerUtilization,
    /// Lock-wait stages sorted by estimated wait time, heaviest first.
    pub top_locks: Vec<HostStageRow>,
    /// Fraction of `mem.miss_total` self+child time attributed to named
    /// sub-stages (`None` until a miss was sampled).
    pub miss_attribution: Option<f64>,
    /// Host-thread names that recorded events (Perfetto track order).
    pub threads: Vec<String>,
    /// Events discarded because the bounded buffer filled.
    pub dropped_events: u64,
}

impl HostProfile {
    /// Builds the profile from a snapshot. Returns `None` when the profiler
    /// was disabled (the snapshot then carries no information).
    pub fn from_snapshot(snap: &HostProfSnapshot, workers: u64) -> Option<HostProfile> {
        if !snap.enabled {
            return None;
        }
        let row = |s: &graphite_base::StageSnap| HostStageRow {
            name: s.stage.name(),
            stage: s.stage,
            count: s.count,
            timed: s.timed,
            self_ns_per_op: s.self_ns_per_op(),
            est_self_ns: s.est_self_ns(),
            est_total_ns: s.est_total_ns(),
        };
        let mut stages: Vec<HostStageRow> =
            snap.stages.iter().filter(|s| s.count > 0).map(row).collect();
        stages.sort_by(|a, b| {
            b.est_self_ns.total_cmp(&a.est_self_ns).then_with(|| a.name.cmp(b.name))
        });
        let mut top_locks: Vec<HostStageRow> =
            stages.iter().filter(|r| r.stage.is_lock()).cloned().collect();
        top_locks.sort_by(|a, b| {
            b.est_self_ns.total_cmp(&a.est_self_ns).then_with(|| a.name.cmp(b.name))
        });

        let est_total = |st: HostStage| snap.stage(st).est_total_ns();
        // Disjoint slot intervals only: a steal scan runs inside a handoff
        // or a switch (their totals include it), and an unpark runs on the
        // waker's own slot or on a service thread.
        let busy_ns = est_total(HostStage::SchedSlotRun);
        let handoff_ns = est_total(HostStage::SchedHandoff)
            + est_total(HostStage::SchedSwitch)
            + est_total(HostStage::SchedSpawn);
        let park_ns = est_total(HostStage::SchedPark) + est_total(HostStage::SchedSlotWait);
        let idle_ns = est_total(HostStage::SchedIdle);
        let capacity = (workers.max(1) * snap.wall_ns.max(1)) as f64;
        let utilization = WorkerUtilization {
            workers: workers.max(1),
            wall_ns: snap.wall_ns,
            busy_ns,
            handoff_ns,
            park_ns,
            idle_ns,
            busy_frac: busy_ns / capacity,
            overhead_frac: handoff_ns / capacity,
            idle_frac: idle_ns / capacity,
        };

        Some(HostProfile {
            sample: snap.sample,
            wall_ns: snap.wall_ns,
            stages,
            utilization,
            top_locks,
            miss_attribution: snap.miss_attribution(),
            threads: snap.threads.clone(),
            dropped_events: snap.dropped_events,
        })
    }

    /// The row for `stage`, if it fired.
    pub fn stage(&self, stage: HostStage) -> Option<&HostStageRow> {
        self.stages.iter().find(|r| r.stage == stage)
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

impl fmt::Display for HostProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== host profile (1-in-{} sampling, {} wall) ===",
            self.sample,
            fmt_ns(self.wall_ns as f64)
        )?;
        writeln!(
            f,
            "{:<22} {:>12} {:>10} {:>12} {:>12} {:>12}",
            "stage", "count", "timed", "ns/op", "est self", "est total"
        )?;
        for r in &self.stages {
            writeln!(
                f,
                "{:<22} {:>12} {:>10} {:>12.0} {:>12} {:>12}",
                r.name,
                r.count,
                r.timed,
                r.self_ns_per_op,
                fmt_ns(r.est_self_ns),
                fmt_ns(r.est_total_ns)
            )?;
        }
        let u = &self.utilization;
        writeln!(
            f,
            "workers: {} | busy {:.1}% | sched overhead {:.1}% | idle {:.1}%",
            u.workers,
            u.busy_frac * 100.0,
            u.overhead_frac * 100.0,
            u.idle_frac * 100.0
        )?;
        if !self.top_locks.is_empty() {
            write!(f, "contended locks:")?;
            for l in &self.top_locks {
                write!(f, " {}={} ({} acq)", l.name, fmt_ns(l.est_self_ns), l.count)?;
            }
            writeln!(f)?;
        }
        if let Some(a) = self.miss_attribution {
            let pct = a * 100.0;
            writeln!(f, "miss-path attribution: {pct:.1}% of host miss time in named stages")?;
        }
        if self.dropped_events > 0 {
            writeln!(f, "note: {} host events dropped (buffer full)", self.dropped_events)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_base::HostProf;

    fn busy_snapshot() -> HostProfSnapshot {
        let p = HostProf::new(1, 1024);
        p.register_thread("worker-0");
        {
            let _m = p.span(HostStage::MissTotal);
            let _d = p.span(HostStage::DirLookup);
        }
        {
            let _m = p.span(HostStage::MissTotal);
            let _t = p.span(HostStage::DirTxn);
        }
        p.record(HostStage::SchedSlotRun, 0, 1000);
        p.record(HostStage::SchedIdle, 1000, 1200);
        {
            // A thread's OS-path park is context time, not slot time.
            let _p = p.span(HostStage::SchedPark);
        }
        p.snapshot()
    }

    #[test]
    fn disabled_snapshot_yields_no_profile() {
        let snap = HostProf::disabled().snapshot();
        assert!(HostProfile::from_snapshot(&snap, 4).is_none());
    }

    #[test]
    fn stages_sort_by_estimated_self_time_and_locks_filter() {
        let snap = busy_snapshot();
        let prof = HostProfile::from_snapshot(&snap, 2).expect("enabled");
        assert!(prof.stages.iter().any(|r| r.stage == HostStage::MissTotal));
        // Sorted descending by est_self_ns.
        for w in prof.stages.windows(2) {
            assert!(w[0].est_self_ns >= w[1].est_self_ns);
        }
        // No lock stage fired, so the contended-lock table is empty.
        assert!(prof.top_locks.is_empty());
        assert_eq!(prof.threads, vec!["worker-0".to_string()]);
    }

    #[test]
    fn utilization_normalizes_by_pool_capacity() {
        let snap = busy_snapshot();
        let prof = HostProfile::from_snapshot(&snap, 2).expect("enabled");
        let u = prof.utilization;
        assert_eq!(u.workers, 2);
        // SlotRun recorded exactly 1000ns of busy time.
        assert!((u.busy_ns - 1000.0).abs() < 1e-6);
        let expect = 1000.0 / (2.0 * snap.wall_ns.max(1) as f64);
        assert!((u.busy_frac - expect).abs() < 1e-9);
        // Idle is free-slot time only.
        assert!((u.idle_ns - 200.0).abs() < 1e-6);
        assert!(u.park_ns > 0.0);
        assert!((u.idle_frac - 200.0 / (2.0 * snap.wall_ns.max(1) as f64)).abs() < 1e-9);
    }

    #[test]
    fn display_renders_every_fired_stage() {
        let snap = busy_snapshot();
        let prof = HostProfile::from_snapshot(&snap, 1).expect("enabled");
        let text = prof.to_string();
        assert!(text.contains("mem.miss_total"));
        assert!(text.contains("sched.slot_run"));
        assert!(text.contains("workers: 1"));
        assert!(text.contains("miss-path attribution"));
    }
}
