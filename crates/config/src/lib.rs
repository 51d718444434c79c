//! Configuration for the Graphite-rs multicore simulator.
//!
//! A simulation is described by a [`SimConfig`]: the *target* architecture
//! being simulated (tiles, caches, coherence, network, DRAM — paper §2,
//! Table 1), the *host* cluster the simulation is distributed over (paper
//! §4.1), and the *synchronization model* trading accuracy for speed
//! (paper §3.6).
//!
//! Every module of the simulator is configured through this tree at run time,
//! mirroring the paper's "swappable modules configured through run-time
//! parameters" design.
//!
//! # Examples
//!
//! ```
//! use graphite_config::SimConfig;
//!
//! // The paper's Table 1 target with 32 tiles, on one 8-core host machine.
//! let cfg = SimConfig::builder()
//!     .tiles(32)
//!     .processes(1)
//!     .build()
//!     .expect("valid config");
//! assert_eq!(cfg.target.num_tiles, 32);
//! assert_eq!(cfg.target.l2.as_ref().unwrap().line_size, 64);
//! ```

pub mod presets;

use graphite_base::{Cycles, SimError};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Set associativity (ways).
    pub associativity: u32,
    /// Line size in bytes (power of two).
    pub line_size: u32,
    /// Access latency charged per hit.
    pub access_latency: Cycles,
}

impl CacheConfig {
    /// Number of cache lines.
    pub fn num_lines(&self) -> u64 {
        self.size_bytes / self.line_size as u64
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.num_lines() / self.associativity as u64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the line size is not a power of
    /// two, or capacity is not divisible into `associativity`-way sets of
    /// whole lines.
    pub fn validate(&self, what: &str) -> Result<(), SimError> {
        if self.line_size == 0 || !self.line_size.is_power_of_two() {
            return Err(SimError::InvalidConfig(format!(
                "{what}: line size {} must be a power of two",
                self.line_size
            )));
        }
        if self.associativity == 0 {
            return Err(SimError::InvalidConfig(format!("{what}: associativity must be > 0")));
        }
        if self.size_bytes == 0 || !self.size_bytes.is_multiple_of(self.line_size as u64) {
            return Err(SimError::InvalidConfig(format!(
                "{what}: size {} not a multiple of line size {}",
                self.size_bytes, self.line_size
            )));
        }
        if !self.num_lines().is_multiple_of(self.associativity as u64) {
            return Err(SimError::InvalidConfig(format!(
                "{what}: {} lines not divisible into {}-way sets",
                self.num_lines(),
                self.associativity
            )));
        }
        Ok(())
    }
}

/// Cache-line state protocol (paper §3.2 implements MSI; MESI adds the
/// Exclusive state as a natural extension: a sole clean reader may upgrade
/// to Modified silently, eliminating the upgrade transaction for
/// private-then-written data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheProtocol {
    /// Modified / Shared / Invalid (the paper's protocol).
    #[default]
    Msi,
    /// MESI: adds Exclusive (clean, sole owner) on read misses to uncached
    /// lines.
    Mesi,
}

/// Cache-coherence scheme for the distributed directory (paper §3.2, §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceScheme {
    /// Full-map directory-based MSI: one presence bit per tile
    /// (the paper's default, Table 1).
    FullMap,
    /// Limited directory Dir_iNB (Agarwal et al.): at most `sharers` pointers;
    /// an additional read sharer forces eviction of an existing one
    /// ("no broadcast").
    DirNB {
        /// Maximum simultaneous sharers tracked in hardware.
        sharers: u32,
    },
    /// LimitLESS(i): `sharers` hardware pointers; overflowing sharers are
    /// handled by a software trap costing `trap_cycles` at the directory.
    Limitless {
        /// Hardware pointer count before trapping to software.
        sharers: u32,
        /// Cost of the software trap servicing an overflow request.
        trap_cycles: u64,
    },
}

impl CoherenceScheme {
    /// Short label used in experiment tables ("Dir4NB", "full-map", …).
    pub fn label(&self) -> String {
        match self {
            CoherenceScheme::FullMap => "full-map".to_owned(),
            CoherenceScheme::DirNB { sharers } => format!("Dir{sharers}NB"),
            CoherenceScheme::Limitless { sharers, .. } => format!("LimitLESS({sharers})"),
        }
    }
}

/// DRAM and memory-controller parameters.
///
/// The paper's default target places a memory controller at every tile,
/// *evenly splitting total off-chip bandwidth* (§4.4) — so per-controller
/// bandwidth shrinks as the tile count grows, which drives the Figure 9
/// scaling behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Total off-chip bandwidth shared by all controllers, in GB/s
    /// (Table 1: 5.13 GB/s).
    pub total_bandwidth_gbps: f64,
    /// Fixed DRAM access latency (row access + device latency).
    pub access_latency: Cycles,
    /// If true, one controller per tile splitting `total_bandwidth_gbps`;
    /// if false, a single controller at tile 0 with the full bandwidth.
    pub per_tile_controllers: bool,
}

/// Which on-chip network model carries a traffic class (paper §3.3:
/// separate models for system, application and memory traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkKind {
    /// Forwards packets with zero modeled delay (system traffic).
    Basic,
    /// 2-D mesh: latency = hops × per-hop cost + serialization.
    Mesh,
    /// Unidirectional-distance ring: latency = min ring distance × per-hop
    /// cost + serialization (demonstrates the paper's "any topology with an
    /// endpoint per tile" claim).
    Ring,
    /// 2-D mesh with the analytical contention model tracking global link
    /// utilization.
    MeshContention,
}

/// Parameters of the mesh network models.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshConfig {
    /// Cycles per hop (switch traversal + link).
    pub hop_latency: Cycles,
    /// Link width in bytes per cycle (serialization delay = size / width).
    pub link_width_bytes: u32,
    /// Contention model: smoothing window (packets) for link-utilization
    /// estimation.
    pub utilization_window: u32,
}

/// The target (simulated) architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetConfig {
    /// Number of target tiles; also the maximum number of live application
    /// threads (paper §3.5).
    pub num_tiles: u32,
    /// Target core clock frequency in GHz (Table 1: 1 GHz).
    pub clock_ghz: f64,
    /// L1 instruction cache; `None` disables the level (Figure 8 disables L1
    /// entirely).
    pub l1i: Option<CacheConfig>,
    /// L1 data cache.
    pub l1d: Option<CacheConfig>,
    /// Unified private L2 cache.
    pub l2: Option<CacheConfig>,
    /// Directory coherence scheme.
    pub coherence: CoherenceScheme,
    /// Cache-line state protocol (MSI per the paper, or MESI).
    pub protocol: CacheProtocol,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// Network model for application + memory traffic.
    pub network: NetworkKind,
    /// Mesh parameters (used by both mesh models).
    pub mesh: MeshConfig,
}

impl TargetConfig {
    /// The cache line size that governs coherence granularity: the L2's, or
    /// the L1D's when the L2 is disabled.
    ///
    /// # Panics
    ///
    /// Panics if every cache level is disabled (validated at build time).
    pub fn coherence_line_size(&self) -> u32 {
        self.l2
            .as_ref()
            .or(self.l1d.as_ref())
            .expect("at least one cache level must be configured")
            .line_size
    }
}

/// The host cluster the simulation is distributed over (paper §4.1: dual
/// quad-core Xeon machines on switched Gigabit ethernet).
#[derive(Debug, Clone, PartialEq)]
pub struct HostConfig {
    /// Number of host machines.
    pub num_machines: u32,
    /// Host cores per machine (paper: 8).
    pub cores_per_machine: u32,
    /// One-way inter-machine message latency in microseconds (Gigabit
    /// ethernet: ~60 µs application-to-application).
    pub inter_machine_latency_us: f64,
    /// Inter-machine bandwidth in Gbit/s.
    pub bandwidth_gbps: f64,
    /// Host core clock in GHz, for native-time estimates (paper: 3.16).
    pub host_clock_ghz: f64,
}

/// Synchronization model selection (paper §3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncModel {
    /// Plain lax synchronization: clocks meet only at application events.
    Lax,
    /// Quanta-based barrier: all *active* threads barrier every `quantum`
    /// cycles. Small quanta approximate cycle-accuracy (§3.6.2).
    LaxBarrier {
        /// Barrier interval in cycles (paper experiments: 1,000).
        quantum: u64,
    },
    /// Point-to-point: each tile periodically syncs with a random partner;
    /// whoever is ahead by more than `slack` sleeps (§3.6.3).
    LaxP2P {
        /// Maximum tolerated clock difference in cycles (paper: 100,000).
        slack: u64,
        /// How often (in cycles of local progress) a tile performs a check.
        check_interval: u64,
    },
}

impl SyncModel {
    /// Short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            SyncModel::Lax => "Lax",
            SyncModel::LaxBarrier { .. } => "LaxBarrier",
            SyncModel::LaxP2P { .. } => "LaxP2P",
        }
    }
}

/// How target tiles map onto simulated host processes (paper §3.5: "the
/// mapping between tiles and processes is currently implemented by simply
/// striping the tiles across the processes"; `Packed` is the ablation
/// alternative: contiguous blocks of tiles per process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TileMapping {
    /// tile → process = tile mod processes (the paper's policy).
    #[default]
    Striped,
    /// Contiguous blocks: tile → process = tile / ceil(tiles / processes).
    Packed,
}

/// Profiler knobs (the `[profile]` section).
///
/// Per-tile CPI attribution is always on (it rides the normal cost
/// accounting), but the clock-skew sampler spawns a host thread that
/// periodically reads every tile clock, so it is opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileConfig {
    /// Enables the periodic clock-skew sampler (paper §6.3 timelines).
    pub skew_sampling: bool,
    /// Wall-clock interval between skew samples, in microseconds.
    pub skew_sample_interval_us: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig { skew_sampling: false, skew_sample_interval_us: 200 }
    }
}

/// Checkpoint knobs (the `[ckpt]` section).
///
/// Periodic auto-checkpointing takes a system-driven snapshot every
/// `auto_quanta` LaxBarrier quanta — at the first cooperative safepoint
/// (`Ctx::ckpt_poll`) after the boundary, so resume re-enters the driver at
/// a point it can reconstruct. Off by default; requires the LaxBarrier
/// synchronization model (quanta are its clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CkptConfig {
    /// Take an automatic checkpoint every N LaxBarrier quanta; `0` (the
    /// default) disables periodic auto-checkpointing.
    pub auto_quanta: u64,
}

/// Host-cost profiler knobs (the `[hostprof]` section).
///
/// `hostprof` attributes *host* wall-clock time (not simulated cycles) to
/// named scheduler and miss-path stages via sampled scoped timers
/// (`graphite_base::hostprof`). Off by default: when disabled every
/// instrumentation point is a single relaxed atomic load. Purely
/// observational — no setting changes modeled timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostProfConfig {
    /// Enables host-cost attribution.
    pub enabled: bool,
    /// Sampling interval: 1-in-N outermost spans read the monotonic clock
    /// (occurrence counts stay exact). `1` times everything.
    pub sample: u32,
    /// Maximum sampled spans retained for the Perfetto host-thread tracks;
    /// further samples still accumulate totals but drop the timeline event.
    pub max_events: u32,
}

impl Default for HostProfConfig {
    fn default() -> Self {
        HostProfConfig { enabled: false, sample: 64, max_events: 16_384 }
    }
}

/// Verbosity threshold for the job service's structured JSONL log
/// (`[serve] log_level`). Levels are ordered: a record is written when its
/// level is at or below the configured threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum LogLevel {
    /// Failures only (persist errors, failed jobs).
    Error,
    /// Failures plus degraded-operation warnings (drain timeouts).
    Warn,
    /// HTTP access records and job state transitions (the default).
    #[default]
    Info,
    /// Everything, including per-slice scheduling detail.
    Debug,
}

impl LogLevel {
    /// Lowercase wire/config name.
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }

    /// Parses a config/CLI name (case-insensitive).
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(LogLevel::Error),
            "warn" | "warning" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            _ => None,
        }
    }
}

/// Job-service knobs (the `[serve]` section, read by `graphite-serve`).
///
/// This section configures the multi-tenant simulation service: how many
/// simulation workers drain the fair-share queue, the wall-clock scheduling
/// quantum after which a running job is preempted via checkpoint, queue
/// admission bounds, the graceful-shutdown drain window, and the
/// observability layer (structured-log verbosity, host profiling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of simulation workers draining the job queue.
    pub workers: u32,
    /// Wall-clock scheduling quantum in milliseconds; a job running longer
    /// is checkpointed at its next safepoint and re-queued. `0` disables
    /// preemption (run-to-completion FIFO per tenant).
    pub quantum_ms: u64,
    /// Maximum queued (not yet running) jobs; submissions beyond this are
    /// rejected with 429.
    pub queue_depth: u32,
    /// Maximum accepted HTTP request body, in bytes (413 beyond it).
    pub max_body_bytes: u64,
    /// Graceful-shutdown drain window in milliseconds: how long SIGINT or
    /// SIGTERM waits for running jobs to park at a checkpoint before the
    /// process exits anyway. Also the `Retry-After` hint on drain 503s.
    pub drain_ms: u64,
    /// Structured-log verbosity for `DATA_DIR/serve.log.jsonl`.
    pub log_level: LogLevel,
    /// Size-based log rotation threshold in bytes: when a write would push
    /// `serve.log.jsonl` past this size it is renamed to `serve.log.jsonl.1`
    /// (replacing any previous `.1`) and a fresh file is started. `0`
    /// disables rotation.
    pub log_max_bytes: u64,
    /// Enables host-cost attribution across the service's jobs: one shared
    /// profiler (sampling per `[hostprof]`) feeds `host.*` gauges in
    /// `GET /metrics`.
    pub hostprof: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            quantum_ms: 250,
            queue_depth: 1024,
            max_body_bytes: 1 << 20,
            drain_ms: 5_000,
            log_level: LogLevel::Info,
            log_max_bytes: 64 << 20,
            hostprof: false,
        }
    }
}

impl ServeConfig {
    /// Validates the section.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for zero workers, a zero queue
    /// depth, or a zero body cap.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.workers == 0 {
            return Err(SimError::InvalidConfig("serve.workers must be > 0".into()));
        }
        if self.queue_depth == 0 {
            return Err(SimError::InvalidConfig("serve.queue_depth must be > 0".into()));
        }
        if self.max_body_bytes == 0 {
            return Err(SimError::InvalidConfig("serve.max_body_bytes must be > 0".into()));
        }
        Ok(())
    }
}

/// Guest-execution scheduler knobs (the `[scheduler]` section).
///
/// Guest contexts are multiplexed M:N onto a fixed pool of host execution
/// slots; blocking operations (joins, futex waits, sync-model quanta) yield
/// the slot cooperatively. `workers >= tiles` degenerates to thread-per-tile
/// execution: no context ever waits for a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerConfig {
    /// Number of host execution slots guest contexts multiplex over.
    /// `0` (the default) means auto: `min(host parallelism, tiles)`.
    pub workers: u32,
}

/// Complete configuration of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Target architecture.
    pub target: TargetConfig,
    /// Host cluster model.
    pub host: HostConfig,
    /// Number of simulated host processes the tiles are striped across
    /// (paper §3.5: tile → process = tile mod processes).
    pub num_processes: u32,
    /// Tile-to-process mapping policy.
    pub tile_mapping: TileMapping,
    /// Synchronization model.
    pub sync: SyncModel,
    /// Window size for the global-progress estimator; defaults to the tile
    /// count (paper §3.6.1).
    pub progress_window: u32,
    /// RNG seed (LaxP2P partner choice, workload inputs).
    pub seed: u64,
    /// Profiler knobs; absent sections deserialize to the defaults.
    pub profile: ProfileConfig,
    /// Guest-scheduler knobs; absent sections deserialize to the defaults.
    pub scheduler: SchedulerConfig,
    /// Checkpoint knobs; absent sections deserialize to the defaults.
    pub ckpt: CkptConfig,
    /// Host-cost profiler knobs; absent sections deserialize to the
    /// defaults.
    pub hostprof: HostProfConfig,
}

impl SimConfig {
    /// Starts building a configuration from the paper's Table 1 defaults.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::new()
    }

    /// The simulated host process that owns a tile.
    pub fn process_of_tile(&self, tile: u32) -> u32 {
        match self.tile_mapping {
            TileMapping::Striped => tile % self.num_processes,
            TileMapping::Packed => {
                let per = self.target.num_tiles.div_ceil(self.num_processes);
                (tile / per).min(self.num_processes - 1)
            }
        }
    }

    /// The host machine that runs a process (processes striped over
    /// machines).
    pub fn machine_of_process(&self, proc: u32) -> u32 {
        proc % self.host.num_machines
    }

    /// Validates the whole tree.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when any component is internally
    /// inconsistent (zero tiles, more processes than tiles, no cache levels,
    /// bad cache geometry, zero bandwidth, …).
    pub fn validate(&self) -> Result<(), SimError> {
        if self.target.num_tiles == 0 {
            return Err(SimError::InvalidConfig("target must have at least one tile".into()));
        }
        if self.num_processes == 0 {
            return Err(SimError::InvalidConfig("at least one host process required".into()));
        }
        if self.num_processes > self.target.num_tiles {
            return Err(SimError::InvalidConfig(format!(
                "{} processes exceed {} tiles",
                self.num_processes, self.target.num_tiles
            )));
        }
        if self.host.num_machines == 0 || self.host.cores_per_machine == 0 {
            return Err(SimError::InvalidConfig("host machines and cores must be > 0".into()));
        }
        if self.target.clock_ghz <= 0.0 {
            return Err(SimError::InvalidConfig("target clock must be positive".into()));
        }
        if self.target.dram.total_bandwidth_gbps <= 0.0 {
            return Err(SimError::InvalidConfig("DRAM bandwidth must be positive".into()));
        }
        let mut line_sizes = Vec::new();
        if let Some(c) = &self.target.l1i {
            c.validate("l1i")?;
            line_sizes.push(c.line_size);
        }
        if let Some(c) = &self.target.l1d {
            c.validate("l1d")?;
            line_sizes.push(c.line_size);
        }
        if let Some(c) = &self.target.l2 {
            c.validate("l2")?;
            line_sizes.push(c.line_size);
        }
        if line_sizes.is_empty() {
            return Err(SimError::InvalidConfig("at least one cache level required".into()));
        }
        if line_sizes.windows(2).any(|w| w[0] != w[1]) {
            return Err(SimError::InvalidConfig(
                "all cache levels must share one line size".into(),
            ));
        }
        match self.target.coherence {
            CoherenceScheme::DirNB { sharers } | CoherenceScheme::Limitless { sharers, .. } => {
                if sharers == 0 {
                    return Err(SimError::InvalidConfig(
                        "limited directory needs at least one pointer".into(),
                    ));
                }
            }
            CoherenceScheme::FullMap => {}
        }
        match self.sync {
            SyncModel::LaxBarrier { quantum: 0 } => {
                return Err(SimError::InvalidConfig("barrier quantum must be > 0".into()));
            }
            SyncModel::LaxP2P { slack: _, check_interval: 0 } => {
                return Err(SimError::InvalidConfig("P2P check interval must be > 0".into()));
            }
            _ => {}
        }
        if self.progress_window == 0 {
            return Err(SimError::InvalidConfig("progress window must be > 0".into()));
        }
        if self.profile.skew_sampling && self.profile.skew_sample_interval_us == 0 {
            return Err(SimError::InvalidConfig("skew sample interval must be > 0".into()));
        }
        if self.ckpt.auto_quanta > 0 && !matches!(self.sync, SyncModel::LaxBarrier { .. }) {
            return Err(SimError::InvalidConfig(
                "ckpt.auto_quanta requires the LaxBarrier sync model".into(),
            ));
        }
        if self.hostprof.sample == 0 {
            return Err(SimError::InvalidConfig("hostprof.sample must be > 0".into()));
        }
        Ok(())
    }
}

/// Builder for [`SimConfig`], seeded with the paper's Table 1 target and
/// §4.1 host parameters.
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimConfigBuilder {
    /// Creates a builder with the paper defaults (32 tiles, Table 1 caches,
    /// full-map MSI, mesh network, one process on one 8-core machine, lax
    /// synchronization).
    pub fn new() -> Self {
        SimConfigBuilder { cfg: presets::paper_default(32) }
    }

    /// Sets the number of target tiles.
    pub fn tiles(mut self, n: u32) -> Self {
        self.cfg.target.num_tiles = n;
        self.cfg.progress_window = n.max(1);
        self
    }

    /// Sets the number of simulated host processes.
    pub fn processes(mut self, n: u32) -> Self {
        self.cfg.num_processes = n;
        self
    }

    /// Sets the number of host machines (processes are striped over them).
    pub fn machines(mut self, n: u32) -> Self {
        self.cfg.host.num_machines = n;
        self
    }

    /// Selects the synchronization model.
    pub fn sync(mut self, s: SyncModel) -> Self {
        self.cfg.sync = s;
        self
    }

    /// Selects the coherence scheme.
    pub fn coherence(mut self, c: CoherenceScheme) -> Self {
        self.cfg.target.coherence = c;
        self
    }

    /// Selects the cache-line state protocol (MSI or MESI).
    pub fn protocol(mut self, p: CacheProtocol) -> Self {
        self.cfg.target.protocol = p;
        self
    }

    /// Selects the network model for application + memory traffic.
    pub fn network(mut self, n: NetworkKind) -> Self {
        self.cfg.target.network = n;
        self
    }

    /// Replaces the L1 data cache (`None` disables it).
    pub fn l1d(mut self, c: Option<CacheConfig>) -> Self {
        self.cfg.target.l1d = c;
        self
    }

    /// Replaces the L1 instruction cache (`None` disables it).
    pub fn l1i(mut self, c: Option<CacheConfig>) -> Self {
        self.cfg.target.l1i = c;
        self
    }

    /// Replaces the L2 cache (`None` disables it).
    pub fn l2(mut self, c: Option<CacheConfig>) -> Self {
        self.cfg.target.l2 = c;
        self
    }

    /// Sets the line size of every configured cache level at once.
    pub fn line_size(mut self, bytes: u32) -> Self {
        for c in [&mut self.cfg.target.l1i, &mut self.cfg.target.l1d, &mut self.cfg.target.l2]
            .into_iter()
            .flatten()
        {
            c.line_size = bytes;
        }
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the DRAM configuration.
    pub fn dram(mut self, d: DramConfig) -> Self {
        self.cfg.target.dram = d;
        self
    }

    /// Overrides the global-progress window size.
    pub fn progress_window(mut self, w: u32) -> Self {
        self.cfg.progress_window = w;
        self
    }

    /// Selects the tile-to-process mapping policy.
    pub fn tile_mapping(mut self, m: TileMapping) -> Self {
        self.cfg.tile_mapping = m;
        self
    }

    /// Enables the clock-skew sampler at the given wall-clock interval.
    pub fn skew_sampling(mut self, interval_us: u64) -> Self {
        self.cfg.profile =
            ProfileConfig { skew_sampling: true, skew_sample_interval_us: interval_us };
        self
    }

    /// Replaces the whole profiler section.
    pub fn profile(mut self, p: ProfileConfig) -> Self {
        self.cfg.profile = p;
        self
    }

    /// Sets the guest-scheduler worker count (`[scheduler] workers`);
    /// `0` selects the auto default `min(host parallelism, tiles)`.
    pub fn workers(mut self, n: u32) -> Self {
        self.cfg.scheduler.workers = n;
        self
    }

    /// Takes an automatic checkpoint every N LaxBarrier quanta
    /// (`[ckpt] auto_quanta`); `0` disables periodic auto-checkpointing.
    pub fn auto_ckpt_quanta(mut self, n: u64) -> Self {
        self.cfg.ckpt.auto_quanta = n;
        self
    }

    /// Enables or disables host-cost attribution (`[hostprof] enabled`).
    pub fn hostprof(mut self, on: bool) -> Self {
        self.cfg.hostprof.enabled = on;
        self
    }

    /// Sets the host-profiler sampling interval (`[hostprof] sample`):
    /// 1-in-N outermost spans are timed. Must be > 0.
    pub fn hostprof_sample(mut self, n: u32) -> Self {
        self.cfg.hostprof.sample = n;
        self
    }

    /// Caps the sampled spans retained for timeline export
    /// (`[hostprof] max_events`).
    pub fn hostprof_max_events(mut self, n: u32) -> Self {
        self.cfg.hostprof.max_events = n;
        self
    }

    /// Finalizes and validates the configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`SimConfig::validate`] failures.
    pub fn build(self) -> Result<SimConfig, SimError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builder_is_paper_target() {
        let cfg = SimConfig::builder().build().unwrap();
        assert_eq!(cfg.target.num_tiles, 32);
        assert_eq!(cfg.target.clock_ghz, 1.0);
        let l1d = cfg.target.l1d.unwrap();
        assert_eq!(l1d.size_bytes, 32 * 1024);
        assert_eq!(l1d.associativity, 8);
        assert_eq!(l1d.line_size, 64);
        let l2 = cfg.target.l2.unwrap();
        assert_eq!(l2.size_bytes, 3 * 1024 * 1024);
        assert_eq!(l2.associativity, 24);
        assert_eq!(cfg.target.coherence, CoherenceScheme::FullMap);
        assert!((cfg.target.dram.total_bandwidth_gbps - 5.13).abs() < 1e-9);
    }

    #[test]
    fn zero_tiles_rejected() {
        let err = SimConfig::builder().tiles(0).build().unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn more_processes_than_tiles_rejected() {
        assert!(SimConfig::builder().tiles(4).processes(8).build().is_err());
    }

    #[test]
    fn cache_geometry_validated() {
        let bad = CacheConfig {
            size_bytes: 1000, // not a multiple of 64
            associativity: 4,
            line_size: 64,
            access_latency: Cycles(3),
        };
        assert!(SimConfig::builder().l1d(Some(bad)).build().is_err());
        let bad_line = CacheConfig {
            size_bytes: 1024,
            associativity: 4,
            line_size: 48,
            access_latency: Cycles(3),
        };
        assert!(bad_line.validate("x").is_err());
    }

    #[test]
    fn no_cache_levels_rejected() {
        assert!(SimConfig::builder().l1i(None).l1d(None).l2(None).build().is_err());
    }

    #[test]
    fn mismatched_line_sizes_rejected() {
        let mut cfg = presets::paper_default(4);
        cfg.target.l1d.as_mut().unwrap().line_size = 32;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn line_size_setter_applies_everywhere() {
        let cfg = SimConfig::builder().line_size(128).build().unwrap();
        assert_eq!(cfg.target.l1d.unwrap().line_size, 128);
        assert_eq!(cfg.target.l2.unwrap().line_size, 128);
        assert_eq!(cfg.target.l1i.unwrap().line_size, 128);
    }

    #[test]
    fn striped_mappings() {
        let cfg = SimConfig::builder().tiles(8).processes(2).machines(2).build().unwrap();
        assert_eq!(cfg.process_of_tile(0), 0);
        assert_eq!(cfg.process_of_tile(1), 1);
        assert_eq!(cfg.process_of_tile(2), 0);
        assert_eq!(cfg.machine_of_process(1), 1);
    }

    #[test]
    fn packed_mapping_blocks_tiles() {
        let cfg = SimConfig::builder()
            .tiles(8)
            .processes(2)
            .tile_mapping(TileMapping::Packed)
            .build()
            .unwrap();
        assert_eq!(cfg.process_of_tile(0), 0);
        assert_eq!(cfg.process_of_tile(3), 0);
        assert_eq!(cfg.process_of_tile(4), 1);
        assert_eq!(cfg.process_of_tile(7), 1);
        // Uneven division stays in range.
        let cfg = SimConfig::builder()
            .tiles(7)
            .processes(3)
            .tile_mapping(TileMapping::Packed)
            .build()
            .unwrap();
        for t in 0..7 {
            assert!(cfg.process_of_tile(t) < 3);
        }
    }

    #[test]
    fn coherence_labels() {
        assert_eq!(CoherenceScheme::FullMap.label(), "full-map");
        assert_eq!(CoherenceScheme::DirNB { sharers: 4 }.label(), "Dir4NB");
        assert_eq!(
            CoherenceScheme::Limitless { sharers: 4, trap_cycles: 100 }.label(),
            "LimitLESS(4)"
        );
    }

    #[test]
    fn sync_labels_and_validation() {
        assert_eq!(SyncModel::Lax.label(), "Lax");
        assert_eq!(SyncModel::LaxBarrier { quantum: 1000 }.label(), "LaxBarrier");
        assert!(SimConfig::builder().sync(SyncModel::LaxBarrier { quantum: 0 }).build().is_err());
        assert!(SimConfig::builder()
            .sync(SyncModel::LaxP2P { slack: 1, check_interval: 0 })
            .build()
            .is_err());
    }

    #[test]
    fn limited_directory_needs_pointers() {
        assert!(SimConfig::builder()
            .coherence(CoherenceScheme::DirNB { sharers: 0 })
            .build()
            .is_err());
    }

    #[test]
    fn coherence_line_size_falls_back_to_l1d() {
        let cfg = SimConfig::builder().l2(None).build().unwrap();
        assert_eq!(cfg.target.coherence_line_size(), 64);
    }

    #[test]
    fn cache_derived_geometry() {
        let c = CacheConfig {
            size_bytes: 32 * 1024,
            associativity: 8,
            line_size: 64,
            access_latency: Cycles(1),
        };
        assert_eq!(c.num_lines(), 512);
        assert_eq!(c.num_sets(), 64);
    }

    #[test]
    fn scheduler_defaults_to_auto_and_builder_overrides() {
        let cfg = SimConfig::builder().build().unwrap();
        assert_eq!(cfg.scheduler.workers, 0, "default is auto");
        let cfg = SimConfig::builder().workers(4).build().unwrap();
        assert_eq!(cfg.scheduler.workers, 4);
    }

    #[test]
    fn scheduler_workers_survive_presets() {
        // Presets carry the default (auto) scheduler section; tuning it does
        // not disturb validation.
        let cfg = presets::paper_default(1024);
        assert_eq!(cfg.scheduler, SchedulerConfig::default());
        let cfg = SimConfig::builder().tiles(1024).workers(8).build().unwrap();
        assert_eq!(cfg.scheduler.workers, 8);
    }

    #[test]
    fn auto_ckpt_defaults_off_and_requires_laxbarrier() {
        let cfg = SimConfig::builder().build().unwrap();
        assert_eq!(cfg.ckpt.auto_quanta, 0, "auto-checkpointing is off by default");
        // Valid only under LaxBarrier: quanta are that model's clock.
        let cfg = SimConfig::builder()
            .sync(SyncModel::LaxBarrier { quantum: 1_000 })
            .auto_ckpt_quanta(8)
            .build()
            .unwrap();
        assert_eq!(cfg.ckpt.auto_quanta, 8);
        assert!(SimConfig::builder().auto_ckpt_quanta(8).build().is_err(), "Lax rejected");
        assert!(SimConfig::builder()
            .sync(SyncModel::LaxP2P { slack: 1_000, check_interval: 100 })
            .auto_ckpt_quanta(8)
            .build()
            .is_err());
    }

    #[test]
    fn serve_section_defaults_and_validation() {
        let s = ServeConfig::default();
        assert_eq!(s.workers, 2);
        assert_eq!(s.quantum_ms, 250);
        assert_eq!(s.queue_depth, 1024);
        assert_eq!(s.max_body_bytes, 1 << 20);
        assert_eq!(s.drain_ms, 5_000);
        assert_eq!(s.log_level, LogLevel::Info);
        assert_eq!(s.log_max_bytes, 64 << 20);
        assert!(!s.hostprof, "host profiling defaults off in the service");
        s.validate().unwrap();
        assert!(ServeConfig { workers: 0, ..s }.validate().is_err());
        assert!(ServeConfig { queue_depth: 0, ..s }.validate().is_err());
        assert!(ServeConfig { max_body_bytes: 0, ..s }.validate().is_err());
        // quantum_ms = 0 is legal: preemption off.
        ServeConfig { quantum_ms: 0, ..s }.validate().unwrap();
    }

    #[test]
    fn log_levels_order_and_parse() {
        assert!(LogLevel::Error < LogLevel::Warn);
        assert!(LogLevel::Warn < LogLevel::Info);
        assert!(LogLevel::Info < LogLevel::Debug);
        for l in [LogLevel::Error, LogLevel::Warn, LogLevel::Info, LogLevel::Debug] {
            assert_eq!(LogLevel::parse(l.as_str()), Some(l), "round-trip {l:?}");
        }
        assert_eq!(LogLevel::parse("WARNING"), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse("verbose"), None);
    }

    #[test]
    fn hostprof_section_defaults_and_knobs() {
        let cfg = SimConfig::builder().build().unwrap();
        assert!(!cfg.hostprof.enabled, "host profiling defaults off");
        assert_eq!(cfg.hostprof.sample, 64);
        assert_eq!(cfg.hostprof.max_events, 16_384);
        let cfg = SimConfig::builder()
            .hostprof(true)
            .hostprof_sample(8)
            .hostprof_max_events(128)
            .build()
            .unwrap();
        assert!(cfg.hostprof.enabled);
        assert_eq!(cfg.hostprof.sample, 8);
        assert_eq!(cfg.hostprof.max_events, 128);
        assert!(SimConfig::builder().hostprof_sample(0).build().is_err(), "sample 0 rejected");
    }
}
