//! The end-of-simulation report: every statistic the evaluation harness and
//! the host performance model consume.

use std::fmt;
use std::time::Duration;

use graphite_base::{Cycles, HostProfSnapshot};
use graphite_prof::{
    analyze_flows, chrome_trace_json_with_host, CpiStack, FlowAnalysis, HostProfile,
};
use graphite_sync::SkewSample;
use graphite_trace::{export_jsonl, MetricsSnapshot, TraceEvent};

use crate::SimInner;

/// Snapshot of the memory system counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemReport {
    /// Load accesses.
    pub loads: u64,
    /// Store accesses.
    pub stores: u64,
    /// L1D hits.
    pub l1d_hits: u64,
    /// Coherence-cache hits.
    pub l2_hits: u64,
    /// Misses (directory transactions with data transfer).
    pub misses: u64,
    /// Write-permission upgrades.
    pub upgrades: u64,
    /// Invalidations delivered to sharers.
    pub invalidations: u64,
    /// Dirty writebacks.
    pub writebacks: u64,
    /// DRAM reads.
    pub dram_reads: u64,
    /// Cold misses (when classification is enabled).
    pub miss_cold: u64,
    /// Capacity misses.
    pub miss_capacity: u64,
    /// True-sharing misses.
    pub miss_true_sharing: u64,
    /// False-sharing misses.
    pub miss_false_sharing: u64,
    /// Sharer evictions forced by a limited directory.
    pub forced_evictions: u64,
    /// LimitLESS software traps.
    pub limitless_traps: u64,
    /// Sum of modeled memory latencies (cycles).
    pub latency_sum: u64,
    /// Largest single access latency (cycles).
    pub max_latency: u64,
}

impl MemReport {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// Miss rate over all accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }

    /// Mean modeled memory latency per access, in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.accesses() as f64
        }
    }
}

/// Snapshot of one network traffic class.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetReport {
    /// Packets routed.
    pub packets: u64,
    /// Total hops.
    pub hops: u64,
    /// Mean modeled latency (cycles).
    pub mean_latency: f64,
    /// Total contention delay (cycles).
    pub contention_sum: u64,
}

/// Snapshot of control-plane counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CtrlReport {
    /// Threads spawned.
    pub spawns: u64,
    /// Joins completed.
    pub joins: u64,
    /// Futex waits that blocked.
    pub futex_waits: u64,
    /// Futex wake calls.
    pub futex_wakes: u64,
    /// Syscalls serviced by the MCP.
    pub syscalls: u64,
}

/// Snapshot of the M:N guest scheduler's counters (`sched.*`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedReport {
    /// Cooperative slot releases at blocking points (join, futex wait,
    /// message receive, P2P sleep).
    pub yields: u64,
    /// Times a context queued for a slot because none was free.
    pub parks: u64,
    /// Slot handoffs directly to a queued context.
    pub handoffs: u64,
    /// Handoffs served from another worker lane's run-queue.
    pub steals: u64,
    /// Cumulative run-queue depth sampled at each enqueue
    /// (`runq_depth / parks` = mean depth seen by a parking context).
    pub runq_depth: u64,
    /// Carrier threads created. Creation is lazy — a spawned context gets
    /// its host thread at its first slot grant — so this equals the number
    /// of guest threads that actually started.
    pub threads_spawned: u64,
    /// Peak simultaneously-live carrier threads (excludes the driver
    /// thread): bounded by the pool width plus contexts blocked
    /// mid-execution, not by the tile count.
    pub threads_peak: u64,
}
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransportReport {
    /// Messages within one simulated process.
    pub intra_process: u64,
    /// Messages across processes on one machine.
    pub inter_process: u64,
    /// Messages across machines.
    pub inter_machine: u64,
}

/// Snapshot of synchronization-model counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Barrier releases (LaxBarrier).
    pub barrier_releases: u64,
    /// Waits at the barrier.
    pub barrier_waits: u64,
    /// P2P partner checks.
    pub p2p_checks: u64,
    /// P2P sleeps taken.
    pub p2p_sleeps: u64,
    /// Total microseconds slept by P2P.
    pub p2p_sleep_us: u64,
}

/// Flit count observed on one directed mesh link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkUtilization {
    /// Source tile of the directed link.
    pub from: u32,
    /// Destination tile (a mesh neighbor of `from`).
    pub to: u32,
    /// Flits that crossed the link (all non-system traffic classes).
    pub flits: u64,
}

/// Per-tile counters for the host performance model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TileReport {
    /// Instructions retired on this tile.
    pub instructions: u64,
    /// Memory accesses issued by this tile.
    pub mem_accesses: u64,
    /// Directory transactions by this tile.
    pub mem_transactions: u64,
    /// Transactions whose home lives in another simulated process.
    pub remote_home_transactions: u64,
    /// Modeled memory latency charged to this tile (cycles).
    pub mem_latency_sum: u64,
    /// Total cycles the core model itself advanced this tile's clock
    /// (instruction costs including memory latencies and waits); the
    /// difference between the final clock and this is time injected by
    /// synchronization-event forwarding.
    pub core_cycles: u64,
}

/// Everything a finished simulation reports.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// The simulated run-time: the maximum tile clock at the end (the
    /// quantity whose error/CoV Table 3 studies).
    pub simulated_cycles: Cycles,
    /// The main thread's final clock.
    pub main_cycles: Cycles,
    /// Host wall-clock time of the run.
    pub wall: Duration,
    /// Final clock of every tile.
    pub per_tile_cycles: Vec<Cycles>,
    /// Instructions retired per tile.
    pub per_tile_instructions: Vec<u64>,
    /// Per-tile detail for the host performance model.
    pub per_tile: Vec<TileReport>,
    /// Total instructions.
    pub total_instructions: u64,
    /// Memory-system snapshot.
    pub mem: MemReport,
    /// Memory-traffic network snapshot.
    pub net_memory: NetReport,
    /// User-traffic network snapshot.
    pub net_user: NetReport,
    /// Control-plane snapshot.
    pub ctrl: CtrlReport,
    /// Transport locality snapshot.
    pub transport: TransportReport,
    /// Synchronization-model snapshot.
    pub sync: SyncReport,
    /// M:N guest-scheduler snapshot.
    pub sched: SchedReport,
    /// User-level messages sent.
    pub user_msgs: u64,
    /// Captured guest stdout.
    pub stdout: Vec<u8>,
    /// Number of target tiles.
    pub num_tiles: u32,
    /// Number of simulated host processes.
    pub num_processes: u32,
    /// The simulated host process that owned each tile (`vec[tile]`), so
    /// the merged report can be partitioned back per process.
    pub tile_process: Vec<u32>,
    /// The synchronization model's name.
    pub sync_model: String,
    /// The full metrics-registry snapshot the typed fields above are views
    /// of; serialize with [`SimReport::metrics_json`].
    pub metrics: MetricsSnapshot,
    /// Structured trace events drained from the per-tile rings (empty when
    /// tracing was disabled); serialize with [`SimReport::trace_jsonl`].
    pub trace_events: Vec<TraceEvent>,
    /// Events discarded per tile because a trace ring wrapped; mirrored into
    /// the `trace.tile.dropped` metric lanes.
    pub trace_dropped: Vec<u64>,
    /// Clock-skew timeline recorded by the periodic sampler (empty unless
    /// `[profile] skew_sampling` was enabled).
    pub skew_samples: Vec<SkewSample>,
    /// The serialized record/replay log when the run recorded (or replayed)
    /// its nondeterministic inputs via [`crate::SimBuilder::record`]; feed
    /// it back through [`crate::SimBuilder::replay`]. `None` when replay was
    /// off.
    pub replay_log: Option<Vec<u8>>,
    /// Sampled host-cost profile (`None` unless `[hostprof]` was enabled);
    /// fold into tables with [`SimReport::host_profile`]. Its per-stage
    /// aggregates are also mirrored into `host.*` gauges in
    /// [`SimReport::metrics`].
    pub host: Option<HostProfSnapshot>,
}

impl SimReport {
    /// Simulated seconds at the target clock frequency.
    pub fn simulated_seconds(&self, clock_ghz: f64) -> f64 {
        self.simulated_cycles.as_secs(clock_ghz)
    }

    /// The machine-readable `metrics.json` document
    /// (schema `graphite.metrics.v1`).
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json()
    }

    /// The structured event trace as JSON Lines, one event per line in
    /// global sequence order.
    pub fn trace_jsonl(&self) -> String {
        export_jsonl(&self.trace_events)
    }

    /// Per-tile CPI stacks: one `(class name, per-tile cycles)` row per
    /// [`graphite_prof::CpiClass`], read out of the metrics snapshot. The
    /// classes of one tile sum to that tile's final clock.
    pub fn cpi_stacks(&self) -> Vec<(&'static str, Vec<u64>)> {
        CpiStack::from_snapshot(&self.metrics).unwrap_or_default()
    }

    /// The whole run as a Chrome `trace_event` JSON document for
    /// [ui.perfetto.dev](https://ui.perfetto.dev): one thread track per
    /// tile, counter tracks for clock skew and the CPI classes, flow
    /// arrows linking the send/receive ends of every traced network hop
    /// (cross-process hops included — the merged timeline is one
    /// simulation), and per-tile ring-drop counts as metadata.
    pub fn perfetto_json(&self) -> String {
        chrome_trace_json_with_host(
            &self.trace_events,
            &self.skew_samples,
            &self.metrics,
            self.num_tiles as usize,
            &self.trace_dropped,
            self.host.as_ref(),
        )
    }

    /// The host-cost attribution profile: per-stage ns/op tables, worker
    /// utilization, and lock-contention rankings folded from
    /// [`SimReport::host`]. `None` unless the run enabled `[hostprof]`.
    pub fn host_profile(&self) -> Option<HostProfile> {
        let workers = self.metrics.counters.get("host.sched.workers").copied().unwrap_or(1);
        self.host.as_ref().and_then(|h| HostProfile::from_snapshot(h, workers))
    }

    /// Reassembles the causal flow spans in [`SimReport::trace_events`]
    /// into per-flow trees with latency decompositions (empty unless the
    /// run enabled flow tracing via [`crate::SimBuilder::flows`]).
    pub fn flow_analysis(&self) -> FlowAnalysis {
        analyze_flows(&self.trace_events)
    }

    /// The `n` busiest directed mesh links by flit count, busiest first
    /// (ties broken by link endpoints for determinism). Reads the
    /// `net.link.<from>.<to>.flits` counters; links no packet crossed are
    /// never registered and never appear.
    pub fn hottest_links(&self, n: usize) -> Vec<LinkUtilization> {
        let mut links: Vec<LinkUtilization> = self
            .metrics
            .counters
            .iter()
            .filter_map(|(name, &flits)| {
                let ends = name.strip_prefix("net.link.")?.strip_suffix(".flits")?;
                let (from, to) = ends.split_once('.')?;
                if flits == 0 {
                    return None;
                }
                Some(LinkUtilization { from: from.parse().ok()?, to: to.parse().ok()?, flits })
            })
            .collect();
        links.sort_by_key(|l| (std::cmp::Reverse(l.flits), l.from, l.to));
        links.truncate(n);
        links
    }

    /// Trace events attributed to each simulated host process (the count
    /// of events whose emitting tile that process owned) — the quick
    /// check that a multi-process run's merged report really carries
    /// telemetry from every process.
    pub fn events_per_process(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_processes.max(1) as usize];
        for ev in &self.trace_events {
            let p = self.tile_process.get(ev.tile.index()).copied().unwrap_or(0) as usize;
            if let Some(c) = counts.get_mut(p) {
                *c += 1;
            }
        }
        counts
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== Graphite simulation report ===")?;
        writeln!(
            f,
            "target: {} tiles across {} process(es), sync = {}",
            self.num_tiles, self.num_processes, self.sync_model
        )?;
        writeln!(
            f,
            "simulated time: {} cycles; wall time {:.3}s",
            self.simulated_cycles.0,
            self.wall.as_secs_f64()
        )?;
        writeln!(f, "instructions: {}", self.total_instructions)?;
        writeln!(
            f,
            "memory: {} accesses, {:.2}% miss rate, mean latency {:.1} cy",
            self.mem.accesses(),
            self.mem.miss_rate() * 100.0,
            self.mem.mean_latency()
        )?;
        writeln!(
            f,
            "network(mem): {} packets, mean latency {:.1} cy",
            self.net_memory.packets, self.net_memory.mean_latency
        )?;
        writeln!(
            f,
            "control: {} spawns, {} joins, {} futex waits, {} syscalls",
            self.ctrl.spawns, self.ctrl.joins, self.ctrl.futex_waits, self.ctrl.syscalls
        )?;
        write!(
            f,
            "transport: {} intra-process, {} inter-process, {} inter-machine",
            self.transport.intra_process,
            self.transport.inter_process,
            self.transport.inter_machine
        )?;
        let hottest = self.hottest_links(10);
        if !hottest.is_empty() {
            write!(f, "\nhottest links (flits):")?;
            for l in hottest {
                write!(f, " {}->{}:{}", l.from, l.to, l.flits)?;
            }
        }
        Ok(())
    }
}

/// Assembles the report from a finished simulation's shared state.
///
/// Every counter is read out of the one metrics registry, so the typed
/// report is by construction consistent with [`SimReport::metrics`] (and
/// with the exported `metrics.json`).
pub(crate) fn build_report(inner: &SimInner) -> SimReport {
    // The core models keep their own counters (plain integers in per-tile
    // objects, owned by the running context and home again once it drops);
    // mirror them into registry lanes so the snapshot covers the whole
    // simulation. Lanes are overwritten, so rebuilding is idempotent.
    let instructions = inner.obs.metrics.per_tile("core.tile.instructions");
    let cycles = inner.obs.metrics.per_tile("core.tile.cycles");
    for (i, tile) in inner.tiles.iter().enumerate() {
        let core = tile.core.lock();
        let s = core.as_ref().expect("every context has dropped: core models are home").stats();
        instructions.lane_set(i, s.instructions);
        cycles.lane_set(i, s.cycles);
    }

    // Ring-wrap losses live inside the tracer; mirror them the same way so
    // `trace.dropped` appears in metrics.json next to everything else.
    let trace_dropped = inner.obs.tracer.dropped_per_tile();
    let dropped = inner.obs.metrics.per_tile("trace.tile.dropped");
    for (i, &d) in trace_dropped.iter().enumerate() {
        dropped.lane_set(i, d);
    }
    let drop_total = inner.obs.metrics.counter("trace.dropped");
    drop_total.take();
    drop_total.add(trace_dropped.iter().sum());

    // Host-cost profile: snapshot the sampled timers and mirror the
    // per-stage aggregates into `host.*` gauges so metrics.json (and the
    // serve exposition built from it) carries the same numbers as the
    // typed snapshot.
    let host = if inner.obs.hostprof.is_enabled() {
        let h = inner.obs.hostprof.snapshot();
        let g = |name: &str, v: u64| inner.obs.metrics.gauge(name).set(v);
        g("host.wall_ns", h.wall_ns);
        g("host.sample", h.sample as u64);
        g("host.events_dropped", h.dropped_events);
        g("host.sched.workers", inner.sched.workers() as u64);
        for s in h.stages.iter().filter(|s| s.count > 0) {
            g(&format!("host.{}.count", s.stage.name()), s.count);
            g(&format!("host.{}.timed", s.stage.name()), s.timed);
            g(&format!("host.{}.self_ns", s.stage.name()), s.self_ns);
            g(&format!("host.{}.total_ns", s.stage.name()), s.total_ns);
            g(&format!("host.{}.est_self_ns", s.stage.name()), s.est_self_ns() as u64);
        }
        Some(h)
    } else {
        None
    };

    let snap = inner.metrics_snapshot();
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let lanes =
        |name: &str| snap.per_tile.get(name).cloned().unwrap_or_else(|| vec![0; snap.num_tiles]);

    let per_tile_cycles: Vec<Cycles> = inner.clocks.iter().map(|c| c.now()).collect();
    let per_tile_instructions = lanes("core.tile.instructions");
    let per_tile_core_cycles = lanes("core.tile.cycles");
    let mem_accesses = lanes("mem.tile.accesses");
    let mem_transactions = lanes("mem.tile.transactions");
    let remote_home = lanes("mem.tile.remote_home_transactions");
    let mem_latency = lanes("mem.tile.latency_sum");
    let per_tile: Vec<TileReport> = (0..snap.num_tiles)
        .map(|i| TileReport {
            instructions: per_tile_instructions[i],
            mem_accesses: mem_accesses[i],
            mem_transactions: mem_transactions[i],
            remote_home_transactions: remote_home[i],
            mem_latency_sum: mem_latency[i],
            core_cycles: per_tile_core_cycles[i],
        })
        .collect();

    let net = |class: &str| {
        let packets = c(&format!("net.{class}.packets"));
        let latency_sum = c(&format!("net.{class}.latency_sum"));
        NetReport {
            packets,
            hops: c(&format!("net.{class}.hops")),
            mean_latency: if packets == 0 { 0.0 } else { latency_sum as f64 / packets as f64 },
            contention_sum: c(&format!("net.{class}.contention_sum")),
        }
    };

    SimReport {
        simulated_cycles: per_tile_cycles.iter().copied().max().unwrap_or(Cycles::ZERO),
        main_cycles: per_tile_cycles.first().copied().unwrap_or(Cycles::ZERO),
        wall: inner.started.elapsed(),
        total_instructions: per_tile_instructions.iter().sum(),
        per_tile_cycles,
        per_tile_instructions,
        per_tile,
        mem: MemReport {
            loads: c("mem.loads"),
            stores: c("mem.stores"),
            l1d_hits: c("mem.l1d_hits"),
            l2_hits: c("mem.l2_hits"),
            misses: c("mem.misses"),
            upgrades: c("mem.upgrades"),
            invalidations: c("mem.invalidations"),
            writebacks: c("mem.writebacks"),
            dram_reads: c("mem.dram_reads"),
            miss_cold: c("mem.miss_cold"),
            miss_capacity: c("mem.miss_capacity"),
            miss_true_sharing: c("mem.miss_true_sharing"),
            miss_false_sharing: c("mem.miss_false_sharing"),
            forced_evictions: c("mem.forced_evictions"),
            limitless_traps: c("mem.limitless_traps"),
            latency_sum: c("mem.latency_sum"),
            max_latency: c("mem.max_latency"),
        },
        net_memory: net("memory"),
        net_user: net("user"),
        ctrl: CtrlReport {
            spawns: c("ctrl.spawns"),
            joins: c("ctrl.joins"),
            futex_waits: c("ctrl.futex_waits"),
            futex_wakes: c("ctrl.futex_wakes"),
            syscalls: c("ctrl.syscalls"),
        },
        transport: TransportReport {
            intra_process: c("transport.intra_process"),
            inter_process: c("transport.inter_process"),
            inter_machine: c("transport.inter_machine"),
        },
        sync: SyncReport {
            barrier_releases: c("sync.barrier_releases"),
            barrier_waits: c("sync.barrier_waits"),
            p2p_checks: c("sync.p2p_checks"),
            p2p_sleeps: c("sync.p2p_sleeps"),
            p2p_sleep_us: c("sync.p2p_sleep_us"),
        },
        sched: SchedReport {
            yields: c("sched.yields"),
            parks: c("sched.parks"),
            handoffs: c("sched.handoffs"),
            steals: c("sched.steals"),
            runq_depth: c("sched.runq_depth"),
            threads_spawned: c("sched.threads_spawned"),
            threads_peak: c("sched.threads_peak"),
        },
        user_msgs: c("ctrl.user_msgs"),
        stdout: inner.stdout.lock().clone(),
        num_tiles: inner.cfg.target.num_tiles,
        num_processes: inner.cfg.num_processes,
        tile_process: (0..inner.cfg.target.num_tiles)
            .map(|t| inner.cfg.process_of_tile(t))
            .collect(),
        sync_model: inner.sync.name().to_owned(),
        trace_events: inner.obs.tracer.drain(),
        trace_dropped,
        skew_samples: Vec::new(),
        replay_log: (inner.replay.mode() != graphite_ckpt::ReplayMode::Off)
            .then(|| inner.replay.save_bytes()),
        host,
        metrics: snap,
    }
}
