//! # Graphite-rs
//!
//! A from-scratch Rust reproduction of **Graphite**, MIT's distributed
//! parallel simulator for multicores (Miller et al., HPCA 2010). Graphite
//! simulates tiled multicore targets with dozens to thousands of cores by
//! running each application thread on its own tile with its own local clock,
//! keeping clocks only *laxly* synchronized, and modeling cores, networks
//! and a fully coherent distributed memory system analytically.
//!
//! ## What a simulation looks like
//!
//! ```
//! use graphite::{Sim, SimConfig};
//! use graphite_memory::Addr;
//!
//! let cfg = SimConfig::builder().tiles(4).processes(2).build().unwrap();
//! let sim = Sim::builder(cfg).build().unwrap();
//! let report = sim.run(|ctx| {
//!     // Guest code: allocate simulated memory, spawn a thread on another
//!     // tile, exchange data through the coherent shared address space.
//!     let buf = ctx.malloc(64).unwrap();
//!     ctx.store(buf, 41u64);
//!     let child = ctx.spawn(
//!         std::sync::Arc::new(move |ctx: &mut graphite::Ctx, arg| {
//!             let a = Addr(arg);
//!             let v: u64 = ctx.load(a);
//!             ctx.store(a, v + 1);
//!             ctx.set_exit_value(v + 1); // returned to the joiner
//!         }),
//!         buf.0,
//!     ).unwrap();
//!     let exit = child.join(ctx).unwrap();
//!     assert_eq!(exit, 42);
//!     assert_eq!(ctx.load::<u64>(buf), 42);
//! });
//! assert!(report.simulated_cycles.0 > 0);
//! ```
//!
//! [`Sim::builder`] is the single construction path; it also switches on the
//! observability layer:
//!
//! ```
//! use graphite::{Sim, SimConfig};
//!
//! let cfg = SimConfig::builder().tiles(2).build().unwrap();
//! let report = Sim::builder(cfg)
//!     .tracing(true)          // per-tile ring-buffer event tracing
//!     .trace_capacity(8192)   // events retained per tile
//!     .build()
//!     .unwrap()
//!     .run(|ctx| {
//!         let a = ctx.malloc(8).unwrap();
//!         ctx.store(a, 1u64);
//!     });
//! let metrics_json = report.metrics_json(); // machine-readable metrics
//! let trace_jsonl = report.trace_jsonl();   // one JSON event per line
//! assert!(metrics_json.contains("graphite.metrics.v1"));
//! assert!(!trace_jsonl.is_empty());
//! ```
//!
//! ## Architecture (paper §2–3)
//!
//! * every target **tile** = compute core model + network switch + memory
//!   node; one application thread per tile, striped across simulated host
//!   processes;
//! * the **MCP** (Master Control Program) provides thread management, futex
//!   emulation, dynamic memory management and a consistent OS interface —
//!   here one lock over its state, each request served by the context that
//!   makes it; the **LCP**'s job, starting a spawned thread, is a direct
//!   submit to the guest scheduler;
//! * the **memory system** is functional *and* modeled: caches hold real
//!   bytes and a directory-MSI protocol moves them (crate
//!   [`graphite_memory`]);
//! * **synchronization models** (Lax / LaxBarrier / LaxP2P) bound clock skew
//!   (crate [`graphite_sync`]);
//! * an **observability layer** (crate [`graphite_trace`]) backs every
//!   subsystem's counters with one per-simulation metrics registry and
//!   records structured events into per-tile ring buffers when tracing is
//!   enabled; [`SimReport`] is a view over that registry;
//! * guest code reaches all of this through [`Ctx`] — the stand-in for the
//!   paper's Pin-based dynamic binary translation front end: it emits the
//!   same event stream (instructions, memory references, sync events,
//!   messages, syscalls) into the same back end.

mod ckpt;
pub mod control;
pub mod ctx;
pub mod guest_sync;
pub mod preempt;
pub mod report;
pub mod sched;
pub mod vfs;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use graphite_base::{
    CachePadded, Clock, Cycles, GlobalProgress, SimError, SimRng, ThreadId, TileId,
};
use graphite_ckpt::CkptReader;
pub use graphite_ckpt::{ReplayLog, ReplayMode};
pub use graphite_config::{SimConfig, SyncModel};
use graphite_core_model::{CoreModel, CoreParams, InOrderCore, OooCore, OooParams};
use graphite_memory::MemorySystem;
use graphite_network::Network;
pub use graphite_prof::{
    analyze_flows, validate_chrome_trace, ChromeTraceSummary, CpiClass, CpiStack, Flow,
    FlowAnalysis, FlowSegments,
};
use graphite_sync::{build_synchronizer_sched, SkewSampler, Synchronizer};
pub use graphite_trace::{MetricsSnapshot, TraceEvent, TraceEventKind};
use graphite_trace::{Obs, ShardedMetric, TraceOptions};
use graphite_transport::{LocalTransport, Transport};
use parking_lot::Mutex;

pub use ctx::{Ctx, GuestEntry, GuestHandle, GuestValue};
pub use guest_sync::{GBarrier, GCondvar, GMutex};
pub use preempt::CkptRequest;
pub use report::{LinkUtilization, SchedReport, SimReport};
pub use sched::{GuestScheduler, SchedStats};

use control::{ControlStats, Mcp, McpReply, UserInbox};

/// Cycles charged for a system call intercepted and forwarded to the MCP.
pub(crate) const SYSCALL_COST: Cycles = Cycles(300);
/// Cycles of latency from a futex wake to the waiter resuming.
pub(crate) const FUTEX_WAKE_LATENCY: Cycles = Cycles(100);
/// Salt decorrelating the guest-visible RNG stream from the seed's other
/// consumers (sync-model partner picks, transport backoff jitter).
const GUEST_RNG_SALT: u64 = 0x4755_4553_545F_524E;

/// Everything shared between guest threads and [`Sim::run`].
pub(crate) struct SimInner {
    pub cfg: SimConfig,
    pub clocks: Arc<Vec<Arc<Clock>>>,
    pub tiles: Vec<CachePadded<TileState>>,
    pub mem: Arc<MemorySystem>,
    pub network: Arc<Network>,
    pub sync: Arc<dyn Synchronizer>,
    /// The M:N guest scheduler gating contexts onto execution slots; every
    /// guest wait parks through it.
    pub sched: Arc<sched::GuestScheduler>,
    pub transport: Arc<dyn Transport>,
    /// The MCP's state: every control request locks it on the requesting
    /// context (see [`control`]). Padded: it is written on every request.
    pub mcp: CachePadded<Mutex<Mcp>>,
    /// User-level messages sent; each tile's thread updates its own lane.
    pub user_msgs: ShardedMetric,
    /// The simulation's observability spine: metrics registry + tracer.
    pub obs: Obs,
    /// Per-tile cycle attribution: every clock advance is charged to one
    /// [`CpiClass`], so the classes sum to each tile's final clock.
    pub cpi: CpiStack,
    /// Record/replay log for the run's nondeterministic inputs; an
    /// [`ReplayLog::off`] pass-through unless the builder enabled it.
    pub replay: Arc<ReplayLog>,
    /// Guest-visible RNG ([`Ctx::rand_u64`]); checkpointed and replayable.
    pub guest_rng: Mutex<SimRng>,
    pub stdout: Mutex<Vec<u8>>,
    /// System-driven checkpoint state: the external preemption request and
    /// the periodic auto-checkpoint schedule, serviced at
    /// [`Ctx::ckpt_poll`] safepoints.
    pub ckpt_hook: preempt::CkptHook,
    pub started: Instant,
    /// Set when any guest thread panicked; surfaced by [`Sim::run`].
    pub guest_panicked: std::sync::atomic::AtomicBool,
}

/// What the simulator core keeps per tile, on a padded block of its own (host
/// layout rule, DESIGN §7.2).
pub(crate) struct TileState {
    /// The tile's core model while no context runs on the tile. A running
    /// [`Ctx`] owns the model outright (taken in `Ctx::new`, put back when the
    /// context drops and around a checkpoint), so a guest op takes no lock.
    pub core: Mutex<Option<Box<dyn CoreModel>>>,
    pub inbox: Mutex<UserInbox>,
    /// How the tile's deferred MCP wait ended, written by its waker just
    /// before it unparks the context.
    pub reply: Mutex<Option<McpReply>>,
}

impl SimInner {
    /// A snapshot of the metrics registry, with the gauges that are computed
    /// at snapshot time brought up to date first.
    pub(crate) fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.mem.publish_dir_lines();
        self.obs.metrics.snapshot()
    }
}

/// Which core performance model every tile runs (paper §3.1: swappable).
#[derive(Debug, Clone)]
pub enum CoreKind {
    /// The paper's default: in-order issue, out-of-order memory.
    InOrder(CoreParams),
    /// An out-of-order window model (see [`graphite_core_model::OooCore`]).
    OutOfOrder(OooParams),
}

/// Fluent builder for a [`Sim`] — the single public construction path.
///
/// The fluent order mirrors how a simulation is specified: configuration
/// ([`SimBuilder::new`]), synchronization model ([`SimBuilder::sync_model`]),
/// then observability options ([`SimBuilder::tracing`],
/// [`SimBuilder::trace_capacity`]), finishing with [`SimBuilder::build`].
#[derive(Debug)]
pub struct SimBuilder {
    cfg: SimConfig,
    classify_misses: bool,
    core_kind: CoreKind,
    tcp_transport: bool,
    trace: TraceOptions,
    resume: Option<PathBuf>,
    record: bool,
    replay_log: Option<Vec<u8>>,
    workers: Option<u32>,
    ckpt_request: Option<preempt::CkptRequest>,
    auto_ckpt_dir: Option<PathBuf>,
    hostprof: Option<Arc<graphite_base::HostProf>>,
}

impl SimBuilder {
    /// Starts from a configuration (validated at [`SimBuilder::build`]).
    pub fn new(cfg: SimConfig) -> Self {
        SimBuilder {
            cfg,
            classify_misses: false,
            core_kind: CoreKind::InOrder(CoreParams::default()),
            tcp_transport: false,
            trace: TraceOptions::default(),
            resume: None,
            record: false,
            replay_log: None,
            workers: None,
            ckpt_request: None,
            auto_ckpt_dir: None,
            hostprof: None,
        }
    }

    /// Shares an externally owned host-cost profiler with this simulation
    /// instead of the config-driven one — the serve path passes one profiler
    /// to every job so `host.*` gauges aggregate service-wide. Overrides the
    /// `[hostprof]` section.
    pub fn hostprof_shared(mut self, prof: Arc<graphite_base::HostProf>) -> Self {
        self.hostprof = Some(prof);
        self
    }

    /// Attaches an external checkpoint-request handle: any host thread may
    /// arm it ([`CkptRequest::request`]) and the guest services it at its
    /// next [`Ctx::ckpt_poll`] safepoint, returning `true` there so the
    /// driver winds down. This is the preemption seam job schedulers build
    /// on.
    pub fn ckpt_request(mut self, req: preempt::CkptRequest) -> Self {
        self.ckpt_request = Some(req);
        self
    }

    /// Directory for periodic auto-checkpoints (`[ckpt] auto_quanta`);
    /// created at build time. Defaults to a seed-derived directory under the
    /// system temp dir.
    pub fn auto_ckpt_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.auto_ckpt_dir = Some(dir.into());
        self
    }

    /// Overrides the guest-scheduler worker count (`[scheduler] workers` in
    /// the configuration): how many guest contexts may execute concurrently
    /// on the host. `0` selects the auto default
    /// `min(host parallelism, tiles)`; `workers >= tiles` is exact
    /// thread-per-tile behaviour.
    pub fn workers(mut self, n: u32) -> Self {
        self.workers = Some(n);
        self
    }

    /// Resumes from a checkpoint written by [`Ctx::checkpoint`]. The
    /// configuration must match the one that wrote the file (tile and
    /// process counts, seed, sync model, cache line size); [`SimBuilder::build`]
    /// validates the file and restores every subsystem before the guest
    /// `main` starts. The guest `main` passed to [`Sim::run`] is then
    /// responsible for performing the *remaining* work — the simulated
    /// machine (clocks, caches, DRAM, metrics, allocators) continues exactly
    /// where the checkpoint left it.
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume = Some(path.into());
        self
    }

    /// Records the run's nondeterministic inputs (guest RNG draws, LaxP2P
    /// partner picks, user-message arrival order) into a replay log,
    /// exported as [`SimReport::replay_log`].
    pub fn record(mut self) -> Self {
        self.record = true;
        self
    }

    /// Replays a log captured by [`SimBuilder::record`]: every recorded
    /// nondeterministic choice is served back in order, pinning the run to
    /// the recorded schedule. Streams that run dry fall through to live
    /// values.
    pub fn replay(mut self, log: &[u8]) -> Self {
        self.replay_log = Some(log.to_vec());
        self
    }

    /// Overrides the configuration's synchronization model (Lax /
    /// LaxBarrier / LaxP2P, paper §3.6).
    pub fn sync_model(mut self, model: SyncModel) -> Self {
        self.cfg.sync = model;
        self
    }

    /// Enables cache-miss classification (Figure 8 study).
    pub fn classify_misses(mut self, on: bool) -> Self {
        self.classify_misses = on;
        self
    }

    /// Overrides the (in-order) core performance model parameters.
    pub fn core_params(mut self, p: CoreParams) -> Self {
        self.core_kind = CoreKind::InOrder(p);
        self
    }

    /// Selects the core performance model (paper §3.1: core models are
    /// swappable without touching the functional simulator).
    pub fn core_model(mut self, kind: CoreKind) -> Self {
        self.core_kind = kind;
        self
    }

    /// Uses real TCP loopback sockets for inter-process user messaging
    /// instead of in-memory channels.
    pub fn tcp_transport(mut self, on: bool) -> Self {
        self.tcp_transport = on;
        self
    }

    /// Switches structured event tracing on or off (off by default). When
    /// off, every trace site is a single predictable branch.
    pub fn tracing(mut self, on: bool) -> Self {
        self.trace.enabled = on;
        self
    }

    /// Sets the per-tile trace ring capacity in events (default 4096).
    /// When a ring fills, the oldest events are dropped and counted.
    pub fn trace_capacity(mut self, events: usize) -> Self {
        self.trace.capacity = events;
        self
    }

    /// Switches causal flow tracing on or off (off by default). Enabling
    /// flows implies [`SimBuilder::tracing`], since flow spans are trace
    /// events.
    pub fn flows(mut self, on: bool) -> Self {
        self.trace.flows = on;
        if on {
            self.trace.enabled = true;
        }
        self
    }

    /// Builds the simulator. It owns no host thread until [`Sim::run`],
    /// whichever transport it uses: the TCP backend's sockets are read by the
    /// scheduler's carriers, and its connections are made by the first send.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for inconsistent configurations,
    /// a transport error if the TCP backend cannot bind, or — when resuming —
    /// any of the typed checkpoint errors ([`SimError::CkptIo`],
    /// [`SimError::CkptCorrupted`], [`SimError::CkptVersionMismatch`],
    /// [`SimError::CkptTruncated`], [`SimError::CkptMissingSegment`]).
    pub fn build(self) -> Result<Sim, SimError> {
        self.cfg.validate()?;
        graphite_base::hostmem::retain_freed_heap();
        let cfg = self.cfg;
        let n = cfg.target.num_tiles as usize;

        // A resume opens and fully validates the checkpoint (magic, version,
        // checksums) before anything is constructed.
        let reader = match &self.resume {
            Some(path) => Some(CkptReader::open(path)?),
            None => None,
        };

        let obs = Obs::new(n, self.trace).with_hostprof(match self.hostprof {
            Some(shared) => shared,
            None if cfg.hostprof.enabled => {
                graphite_base::HostProf::new(cfg.hostprof.sample, cfg.hostprof.max_events as usize)
            }
            None => graphite_base::HostProf::disabled(),
        });
        let clocks: Arc<Vec<Arc<Clock>>> =
            Arc::new((0..n).map(|_| Arc::new(Clock::new())).collect());
        let progress = Arc::new(GlobalProgress::new(cfg.progress_window as usize));
        let network = Arc::new(Network::with_obs(&cfg, Arc::clone(&progress), &obs));
        let mem = Arc::new(MemorySystem::with_obs(
            &cfg,
            Arc::clone(&network),
            self.classify_misses,
            &obs,
        ));
        // The replay log must exist before the synchronizer: LaxP2P routes
        // its partner picks through it.
        let replay = Arc::new(if let Some(r) = &reader {
            let log = ckpt::load_replay(r)?;
            if self.record && log.mode() == ReplayMode::Off {
                ReplayLog::recording()
            } else {
                log
            }
        } else if self.record {
            ReplayLog::recording()
        } else if let Some(bytes) = &self.replay_log {
            ReplayLog::replay_from(bytes)?
        } else {
            ReplayLog::off()
        });
        // The scheduler exists before the synchronizer: barrier waits and
        // P2P sleeps park through it so waiting tiles release their
        // execution slots. In turn, its context lifecycle drives the
        // model's active set.
        let workers = self.workers.unwrap_or(cfg.scheduler.workers);
        let sched = sched::GuestScheduler::new(workers, cfg.target.num_tiles, &obs);
        let sync = build_synchronizer_sched(
            cfg.sync,
            Arc::clone(&clocks),
            cfg.seed,
            &obs,
            Arc::clone(&replay),
            Arc::clone(&sched) as Arc<dyn graphite_base::Blocker>,
        );
        sched.attach_sync(&sync);
        let transport: Arc<dyn Transport> = if self.tcp_transport {
            let tcp = Arc::new(graphite_transport::tcp::TcpTransport::with_obs(&cfg, &obs)?);
            sched.attach_wire(Arc::clone(&tcp));
            tcp
        } else {
            Arc::new(LocalTransport::with_obs(&cfg, &obs))
        };
        // A delivery completes a receive: it unparks the receiver if (and
        // only if) the receiver armed its flag before parking. The hook holds
        // the scheduler weakly: the scheduler holds the TCP transport.
        let notify = Arc::downgrade(&sched);
        transport.set_delivery_hook(Arc::new(move |dst| {
            if let Some(sched) = notify.upgrade() {
                sched.notify_delivery(dst);
            }
        }));
        let tiles: Vec<CachePadded<TileState>> = (0..n)
            .map(|i| {
                let core: Box<dyn CoreModel> = match &self.core_kind {
                    CoreKind::InOrder(p) => Box::new(InOrderCore::new(p.clone())),
                    CoreKind::OutOfOrder(p) => Box::new(OooCore::new(p.clone())),
                };
                let endpoint = transport.register(TileId(i as u32));
                CachePadded::new(TileState {
                    core: Mutex::new(Some(core)),
                    inbox: Mutex::new(UserInbox::new(endpoint)),
                    reply: Mutex::new(None),
                })
            })
            .collect();

        // Register the control-plane counters before a potential metrics
        // restore: MetricsRegistry::restore skips names with no registered
        // counterpart, so late registration would silently drop them.
        let mut mcp = Mcp::new(&cfg, ControlStats::registered(&obs.metrics));
        let user_msgs = obs.metrics.sharded_counter("ctrl.user_msgs");
        let auto_taken = obs.metrics.counter("ckpt.auto.taken");
        let cpi = CpiStack::registered(&obs.metrics);

        // Restore the simulated machine into the freshly built subsystems
        // before the guest starts, so nothing can observe half-restored
        // state.
        let mut guest_rng = SimRng::new(cfg.seed ^ GUEST_RNG_SALT);
        let mut stdout = Vec::new();
        if let Some(r) = &reader {
            ckpt::apply_restore(
                r,
                &cfg,
                &clocks,
                &mem,
                &network,
                sync.as_ref(),
                &tiles,
                &obs.metrics,
            )?;
            guest_rng = SimRng::from_state(ckpt::load_guest_rng_state(r)?);
            stdout = ckpt::load_stdout(r)?;
            ckpt::parse_ctrl(r, &cfg, &mut mcp)?;
            // Checkpoints written before CPI accounting existed restore
            // clocks but no `prof.cpi.*` lanes; re-seed the shortfall as
            // sync-wait so the stacks keep summing to each tile's clock.
            for (i, clock) in clocks.iter().enumerate() {
                let tile = TileId(i as u32);
                let have = cpi.total(tile);
                let now = clock.now().0;
                if have < now {
                    cpi.add(tile, CpiClass::SyncWait, Cycles(now - have));
                }
            }
        }

        // System-driven checkpoint schedule. The auto-checkpoint boundary
        // counter starts at the (possibly restored) clock's quantum index so
        // a resumed run waits a full `auto_quanta` before its next snapshot.
        let quantum = match cfg.sync {
            SyncModel::LaxBarrier { quantum } => quantum,
            _ => 0,
        };
        let auto_dir = if cfg.ckpt.auto_quanta > 0 {
            let dir = self.auto_ckpt_dir.unwrap_or_else(|| {
                std::env::temp_dir().join(format!("graphite-auto-{:016x}", cfg.seed))
            });
            std::fs::create_dir_all(&dir).map_err(|e| {
                SimError::CkptIo(format!("auto-checkpoint dir {}: {e}", dir.display()))
            })?;
            Some(dir)
        } else {
            None
        };
        let ckpt_hook = preempt::CkptHook {
            request: self.ckpt_request,
            auto_quanta: cfg.ckpt.auto_quanta,
            quantum,
            auto_dir,
            last_auto_q: std::sync::atomic::AtomicU64::new(
                clocks[0].now().0.checked_div(quantum).unwrap_or(0),
            ),
            auto_seq: std::sync::atomic::AtomicU64::new(0),
            auto_taken,
            auto_errors: std::sync::atomic::AtomicU64::new(0),
        };

        let inner = Arc::new(SimInner {
            clocks,
            tiles,
            mem,
            network,
            sync,
            sched,
            transport,
            mcp: CachePadded::new(Mutex::new(mcp)),
            user_msgs,
            obs,
            cpi,
            replay,
            guest_rng: Mutex::new(guest_rng),
            stdout: Mutex::new(stdout),
            ckpt_hook,
            started: Instant::now(),
            guest_panicked: std::sync::atomic::AtomicBool::new(false),
            cfg,
        });

        Ok(Sim { inner })
    }
}

/// A ready-to-run Graphite simulation.
///
/// Create one with [`Sim::builder`] — the only public construction path —
/// then call [`Sim::run`] with the guest `main` function. See the
/// crate-level example.
pub struct Sim {
    inner: Arc<SimInner>,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("tiles", &self.inner.cfg.target.num_tiles)
            .field("processes", &self.inner.cfg.num_processes)
            .field("sync", &self.inner.sync.name())
            .finish()
    }
}

impl Sim {
    /// Starts the fluent builder — the single public construction path.
    pub fn builder(cfg: SimConfig) -> SimBuilder {
        SimBuilder::new(cfg)
    }

    /// Handles to every tile's clock, for external instrumentation such as
    /// the Figure 7 clock-skew sampler. The clocks may be read concurrently
    /// while the simulation runs.
    pub fn clock_handles(&self) -> Arc<Vec<Arc<Clock>>> {
        Arc::clone(&self.inner.clocks)
    }

    /// Host addresses of every word `tile`'s thread writes per guest op or
    /// per scheduling event, labelled — for layout tests (DESIGN §7.2).
    #[doc(hidden)]
    pub fn hot_addrs(&self, tile: TileId) -> Vec<(&'static str, usize)> {
        use graphite_base::padded::addr_of;
        let inner = &self.inner;
        let state = &inner.tiles[tile.index()];
        let mut words = vec![
            ("clock", addr_of(&*inner.clocks[tile.index()])),
            ("inbox lock", addr_of(&state.inbox)),
            ("parker", inner.sched.parker_addr(tile)),
        ];
        words.extend(inner.mem.hot_addrs(tile));
        words.extend(self.metric_slot_addrs(tile).into_iter().map(|(_, a)| ("metric slot", a)));
        words
    }

    /// Host address of `tile`'s word of every per-tile counter family, by
    /// family name — for layout tests (DESIGN §7.2).
    #[doc(hidden)]
    pub fn metric_slot_addrs(&self, tile: TileId) -> Vec<(String, usize)> {
        self.inner.obs.metrics.per_tile_slot_addrs(tile.index())
    }

    /// A live snapshot of the metrics registry. May be called concurrently
    /// with a running simulation (counters are relaxed atomics); the final,
    /// consistent snapshot is [`SimReport::metrics`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.metrics_snapshot()
    }

    /// Runs the guest `main` on tile 0 / thread 0 and returns the report.
    ///
    /// The guest may spawn up to `tiles − 1` further threads; like a real
    /// pthread application it must join them before returning (the paper's
    /// model: threads are long-living and run to completion).
    pub fn run<F>(self, main_fn: F) -> SimReport
    where
        F: FnOnce(&mut Ctx),
    {
        let inner = Arc::clone(&self.inner);
        let profile = inner.cfg.profile;
        let sampler = Arc::new(SkewSampler::with_obs(Arc::clone(&inner.clocks), &inner.obs));
        let sampler_thread = profile.skew_sampling.then(|| {
            sampler
                .spawn_periodic(std::time::Duration::from_micros(profile.skew_sample_interval_us))
        });
        inner.sched.run_thread(TileId(0), || {
            let mut ctx = Ctx::new(Arc::clone(&inner), TileId(0), ThreadId(0));
            main_fn(&mut ctx);
            let end_time = inner.clocks[0].now();
            let exit_value = ctx.take_exit_value();
            // Hands tile 0's core model home before the exit is announced, so
            // the report finds every core model in its tile.
            drop(ctx);
            inner.thread_exit(ThreadId(0), TileId(0), end_time, exit_value);
        });
        self.shutdown();
        assert!(
            !inner.guest_panicked.load(std::sync::atomic::Ordering::Relaxed),
            "a guest thread panicked during the simulation"
        );
        if let Some(h) = sampler_thread {
            sampler.stop();
            let _ = h.join();
            // A final sample so even runs shorter than the period get one
            // timeline point covering the finished clocks.
            sampler.sample();
        }
        let mut report = report::build_report(&inner);
        report.skew_samples = sampler.samples();
        report
    }

    /// Closes the control plane — completing every wait still on it — then
    /// retires and joins the scheduler's carrier threads once every one is
    /// idle. A second call finds nothing to do, so [`Sim::run`]'s teardown
    /// and the `Drop` that follows it do not collide.
    fn shutdown(&self) {
        self.inner.close_control();
        self.inner.sched.retire_carriers();
    }
}

/// Dropping a simulator shuts it down (a no-op after [`Sim::run`]).
impl Drop for Sim {
    fn drop(&mut self) {
        // When `run` unwinds from a guest panic, other guest threads may be
        // parked on the one that died and their carriers would never go
        // idle; leave the carriers detached instead of waiting for them.
        if !std::thread::panicking() {
            self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_memory::Addr;

    fn cfg(tiles: u32, procs: u32) -> SimConfig {
        SimConfig::builder().tiles(tiles).processes(procs).build().unwrap()
    }

    fn sim(tiles: u32, procs: u32) -> Sim {
        Sim::builder(cfg(tiles, procs)).build().unwrap()
    }

    #[test]
    fn empty_main_produces_report() {
        let r = sim(2, 1).run(|_ctx| {});
        assert_eq!(r.per_tile_cycles.len(), 2);
    }

    #[test]
    fn compute_advances_clock() {
        let r = sim(1, 1).run(|ctx| {
            ctx.alu(1_000);
        });
        assert!(r.simulated_cycles >= Cycles(1_000));
        assert_eq!(r.total_instructions, 1_000);
    }

    #[test]
    fn memory_roundtrip_through_guest() {
        let r = sim(2, 1).run(|ctx| {
            let a = ctx.malloc(128).unwrap();
            ctx.store(a, 0xABCDu64);
            assert_eq!(ctx.load::<u64>(a), 0xABCD);
            ctx.store(a.offset(8), 3.5f64);
            assert_eq!(ctx.load::<f64>(a.offset(8)), 3.5);
            ctx.free(a).unwrap();
        });
        assert!(r.mem.loads >= 2);
        assert!(r.mem.stores >= 2);
    }

    #[test]
    fn every_guest_value_width_roundtrips() {
        sim(1, 1).run(|ctx| {
            let a = ctx.malloc(64).unwrap();
            ctx.store(a, 0xA5u8);
            assert_eq!(ctx.load::<u8>(a), 0xA5);
            ctx.store(a.offset(2), 0xBEEFu16);
            assert_eq!(ctx.load::<u16>(a.offset(2)), 0xBEEF);
            ctx.store(a.offset(4), 0xDEAD_BEEFu32);
            assert_eq!(ctx.load::<u32>(a.offset(4)), 0xDEAD_BEEF);
            ctx.store(a.offset(8), u64::MAX - 1);
            assert_eq!(ctx.load::<u64>(a.offset(8)), u64::MAX - 1);
            ctx.store(a.offset(16), -123_456_789_i64);
            assert_eq!(ctx.load::<i64>(a.offset(16)), -123_456_789);
            ctx.store(a.offset(24), 2.5f32);
            assert_eq!(ctx.load::<f32>(a.offset(24)), 2.5);
            ctx.store(a.offset(32), -0.125f64);
            assert_eq!(ctx.load::<f64>(a.offset(32)), -0.125);
        });
    }

    #[test]
    fn spawn_join_across_processes() {
        let r = sim(4, 2).run(|ctx| {
            let a = ctx.malloc(256).unwrap();
            // Each spawn gets its own slot address as argument (tiles may be
            // reused if an earlier thread exits before a later spawn).
            let entry: GuestEntry = Arc::new(move |ctx, arg| {
                let slot = Addr(arg);
                let me = ctx.tile().0 as u64;
                ctx.store(slot, me + 100);
            });
            let mut tids = Vec::new();
            for i in 0..3u64 {
                tids.push(ctx.spawn(Arc::clone(&entry), a.offset(i * 8).0).unwrap());
            }
            for t in tids {
                t.join(ctx).unwrap();
            }
            // Every spawned thread wrote a tile id in 1..4 into its slot.
            for i in 0..3u64 {
                let v = ctx.load::<u64>(a.offset(i * 8));
                assert!((101..=103).contains(&v), "slot {i} holds {v}");
            }
        });
        assert_eq!(r.ctrl.spawns, 3);
        assert_eq!(r.ctrl.joins, 3);
    }

    #[test]
    fn spawn_exhaustion_reports_error() {
        sim(2, 1).run(|ctx| {
            let entry: GuestEntry = Arc::new(|ctx, _| {
                // Occupy the tile until told to stop.
                ctx.futex_wait(Addr(0x9000), 0);
            });
            let t1 = ctx.spawn(Arc::clone(&entry), 0).unwrap();
            // Only 2 tiles: the second spawn must fail.
            assert!(matches!(ctx.spawn(Arc::clone(&entry), 0), Err(SimError::NoFreeTile)));
            ctx.store(Addr(0x9000), 1u32);
            ctx.futex_wake(Addr(0x9000), u32::MAX);
            t1.join(ctx).unwrap();
        });
    }

    #[test]
    fn shutdown_completes_every_control_wait() {
        // Main returns while a spawned thread is parked in a futex wait
        // nobody will wake. Shutdown releases it as a mismatch; after that
        // its print is dropped, its malloc fails, and the run returns. The
        // run is on a host thread of its own so a hang fails the test.
        let s = Sim::builder(cfg(2, 1)).workers(2).build().unwrap();
        let inner = Arc::clone(&s.inner);
        let late_malloc = Arc::new(Mutex::new(None));
        let late = Arc::clone(&late_malloc);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let r = s.run(move |ctx| {
                let word = ctx.malloc(8).unwrap();
                ctx.store(word, 0u32);
                let entry: GuestEntry = Arc::new(move |ctx, arg| {
                    ctx.futex_wait(Addr(arg), 0);
                    ctx.print("after shutdown\n");
                    *late.lock() = Some(ctx.malloc(8));
                });
                let _never_joined = ctx.spawn(entry, word.0).unwrap();
                let deadline = Instant::now() + std::time::Duration::from_secs(60);
                while inner.metrics_snapshot().counters["ctrl.futex_waits"] == 0 {
                    assert!(Instant::now() < deadline, "the child never parked");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
            let _ = done_tx.send(r);
        });
        let r = done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the run hung or panicked in shutdown");
        assert!(r.stdout.is_empty(), "a print after shutdown is dropped");
        let late_malloc = late_malloc.lock().take();
        assert!(
            matches!(late_malloc, Some(Err(SimError::TransportClosed(_)))),
            "a malloc after shutdown fails: {late_malloc:?}"
        );
        assert_eq!(r.ctrl.futex_waits, 1);
    }

    #[test]
    fn child_clock_starts_at_parent_time() {
        let r = sim(2, 1).run(|ctx| {
            ctx.alu(50_000); // parent advances before spawning
            let entry: GuestEntry = Arc::new(|_ctx, _| {});
            let t = ctx.spawn(entry, 0).unwrap();
            t.join(ctx).unwrap();
        });
        // The child tile's clock must be at least the parent's pre-spawn time.
        assert!(r.per_tile_cycles[1] >= Cycles(50_000), "{:?}", r.per_tile_cycles);
    }

    #[test]
    fn futex_wake_forwards_waiter_clock() {
        // Two slots: the raw wall-clock sleep below must not starve the
        // child of its slot before it parks in the futex.
        let r = Sim::builder(cfg(2, 1)).workers(2).build().unwrap().run(|ctx| {
            let f = ctx.malloc(64).unwrap();
            let entry: GuestEntry = Arc::new(move |ctx, arg| {
                let f = Addr(arg);
                ctx.futex_wait(f, 0); // blocks until main wakes it
            });
            let t = ctx.spawn(entry, f.0).unwrap();
            // Give the child wall-clock time to park in the futex so the
            // wake (not a value mismatch) delivers the timestamp.
            std::thread::sleep(std::time::Duration::from_millis(50));
            ctx.alu(200_000); // main runs far ahead in simulated time
            ctx.store(f, 1u32);
            ctx.futex_wake(f, 1);
            t.join(ctx).unwrap();
        });
        // The woken child was forwarded to (at least near) the waker's time.
        assert!(
            r.per_tile_cycles[1] >= Cycles(200_000),
            "woken thread clock {} not forwarded",
            r.per_tile_cycles[1]
        );
        assert_eq!(r.ctrl.futex_waits, 1);
        assert!(r.ctrl.futex_wakes >= 1);
    }

    #[test]
    fn user_messaging_roundtrip() {
        let r = sim(2, 2).run(|ctx| {
            let entry: GuestEntry = Arc::new(|ctx, _| {
                let (from, data) = ctx.recv_msg().unwrap();
                assert_eq!(from, TileId(0));
                assert_eq!(data, b"ping");
                ctx.send_msg(from, b"pong").unwrap();
            });
            let t = ctx.spawn(entry, 0).unwrap();
            ctx.send_msg(TileId(1), b"ping").unwrap();
            let (from, data) = ctx.recv_msg().unwrap();
            assert_eq!(from, TileId(1));
            assert_eq!(data, b"pong");
            t.join(ctx).unwrap();
        });
        assert_eq!(r.user_msgs, 2);
    }

    #[test]
    fn message_timestamps_forward_receiver_clock() {
        let r = sim(2, 1).run(|ctx| {
            let entry: GuestEntry = Arc::new(|ctx, _| {
                let _ = ctx.recv_msg().unwrap(); // child waits at cycle ~0
            });
            let t = ctx.spawn(entry, 0).unwrap();
            ctx.alu(500_000);
            ctx.send_msg(TileId(1), b"late").unwrap();
            t.join(ctx).unwrap();
        });
        assert!(r.per_tile_cycles[1] >= Cycles(500_000));
    }

    #[test]
    fn file_io_through_mcp() {
        let r = sim(2, 2).run(|ctx| {
            let buf = ctx.malloc(64).unwrap();
            ctx.store(buf, 0x1122334455667788u64);
            let fd = ctx.sys_open("shared.dat").unwrap();
            assert!(fd >= 3);
            assert_eq!(ctx.sys_write(fd, buf, 8).unwrap(), 8);
            ctx.sys_close(fd).unwrap();
            // Another thread (possibly another process) reads it back.
            let entry: GuestEntry = Arc::new(move |ctx, arg| {
                let out = Addr(arg).offset(16);
                let fd = ctx.sys_open("shared.dat").unwrap();
                assert_eq!(ctx.sys_read(fd, out, 8).unwrap(), 8);
                ctx.sys_close(fd).unwrap();
            });
            let t = ctx.spawn(entry, buf.0).unwrap();
            t.join(ctx).unwrap();
            assert_eq!(ctx.load::<u64>(buf.offset(16)), 0x1122334455667788);
        });
        assert!(r.ctrl.syscalls >= 6);
    }

    #[test]
    fn bad_descriptor_surfaces_as_syscall_error() {
        sim(1, 1).run(|ctx| {
            assert!(matches!(ctx.sys_close(99), Err(SimError::Syscall(_))));
            let a = ctx.malloc(8).unwrap();
            assert!(matches!(ctx.sys_write(99, a, 8), Err(SimError::Syscall(_))));
        });
    }

    #[test]
    fn guest_println_captured() {
        let r = sim(1, 1).run(|ctx| {
            ctx.print("hello from the guest\n");
        });
        assert_eq!(String::from_utf8_lossy(&r.stdout), "hello from the guest\n");
    }

    #[test]
    fn report_counts_are_consistent() {
        let r = sim(4, 2).run(|ctx| {
            let a = ctx.malloc(4096).unwrap();
            for i in 0..64u64 {
                ctx.store(a.offset(i * 8), i);
            }
            let mut sum = 0u64;
            for i in 0..64u64 {
                sum += ctx.load::<u64>(a.offset(i * 8));
            }
            assert_eq!(sum, (0..64).sum());
        });
        assert_eq!(r.mem.loads, 64);
        assert_eq!(r.mem.stores, 64);
        assert!(r.mem.l1d_hits > 0);
        assert!(r.mem.misses > 0);
        assert!(r.wall.as_nanos() > 0);
        assert_eq!(r.per_tile_instructions.iter().sum::<u64>(), r.total_instructions);
    }

    #[test]
    fn report_is_a_view_over_the_metrics_registry() {
        let r = sim(2, 1).run(|ctx| {
            let a = ctx.malloc(256).unwrap();
            for i in 0..16u64 {
                ctx.store(a.offset(i * 8), i);
            }
            for i in 0..16u64 {
                let _ = ctx.load::<u64>(a.offset(i * 8));
            }
        });
        let m = &r.metrics;
        assert_eq!(r.mem.loads, m.counters["mem.loads"]);
        assert_eq!(r.mem.stores, m.counters["mem.stores"]);
        assert_eq!(r.mem.misses, m.counters["mem.misses"]);
        assert_eq!(r.ctrl.syscalls, m.counters["ctrl.syscalls"]);
        assert_eq!(r.user_msgs, m.counters["ctrl.user_msgs"]);
        assert_eq!(r.total_instructions, m.per_tile["core.tile.instructions"].iter().sum::<u64>());
        let lanes = &m.per_tile["mem.tile.accesses"];
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes.iter().sum::<u64>(), r.mem.accesses());
    }

    #[test]
    fn tracing_enabled_exports_parseable_artifacts() {
        let s = Sim::builder(cfg(2, 1)).tracing(true).trace_capacity(4096).build().unwrap();
        let r = s.run(|ctx| {
            let a = ctx.malloc(64).unwrap();
            ctx.store(a, 7u64);
            assert_eq!(ctx.load::<u64>(a), 7);
            let entry: GuestEntry = Arc::new(|ctx, _| {
                let (_, data) = ctx.recv_msg().unwrap();
                assert_eq!(data, b"hi");
            });
            let t = ctx.spawn(entry, 0).unwrap();
            ctx.send_msg(TileId(1), b"hi").unwrap();
            t.join(ctx).unwrap();
        });
        assert!(!r.trace_events.is_empty(), "tracing on must capture events");
        // Spawn, exit, syscall, memory and messaging events all show up.
        let names: Vec<&str> = r.trace_events.iter().map(|e| e.kind.name()).collect();
        for expected in ["thread_spawn", "thread_exit", "syscall", "mem_op_done", "user_msg_send"] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        // Every artifact must be machine-parseable.
        for line in r.trace_jsonl().lines() {
            graphite_trace::json::Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL: {e}"));
        }
        graphite_trace::json::Json::parse(&r.metrics_json())
            .unwrap_or_else(|e| panic!("bad metrics.json: {e}"));
    }

    #[test]
    fn tracing_disabled_captures_nothing() {
        let r = sim(2, 1).run(|ctx| {
            let a = ctx.malloc(64).unwrap();
            ctx.store(a, 1u64);
        });
        assert!(r.trace_events.is_empty());
    }

    #[test]
    fn live_metrics_snapshot_is_available_before_run() {
        let s = sim(2, 1);
        let snap = s.metrics_snapshot();
        assert_eq!(snap.num_tiles, 2);
        assert_eq!(snap.counters["mem.loads"], 0);
        s.run(|_| {});
    }

    #[test]
    fn guest_ops_take_no_core_lock() {
        // The test thread holds tile 0's core-model home while the guest
        // issues loads, stores and instructions: with the context owning its
        // core model none of them may wait on it.
        let s = sim(1, 1);
        let inner = Arc::clone(&s.inner);
        let (first_tx, first_rx) = std::sync::mpsc::sync_channel(0);
        let (locked_tx, locked_rx) = std::sync::mpsc::sync_channel(0);
        let (done_tx, done_rx) = std::sync::mpsc::sync_channel(1);
        let run = std::thread::spawn(move || {
            s.run(move |ctx| {
                let a = ctx.malloc(64).unwrap();
                ctx.store(a, 0u64);
                first_tx.send(()).unwrap();
                locked_rx.recv().unwrap();
                for i in 0..10_000u64 {
                    let v: u64 = ctx.load(a);
                    ctx.store(a, v + i);
                    ctx.alu(1);
                    ctx.branch(0x40, i % 3 == 0);
                }
                done_tx.send(()).unwrap();
            })
        });
        first_rx.recv().unwrap();
        let home = inner.tiles[0].core.lock();
        locked_tx.send(()).unwrap();
        let finished = done_rx.recv_timeout(std::time::Duration::from_secs(10)).is_ok();
        drop(home);
        let r = run.join().unwrap();
        assert!(finished, "guest ops waited on the tile's core lock");
        assert_eq!(r.mem.loads, 10_000);
    }

    #[test]
    fn core_model_comes_home_on_tile_reuse() {
        // Two threads in turn on tile 1: the second issues into the model the
        // first handed back (predictor, store buffer and stats carry over).
        let r = sim(2, 1).run(|ctx| {
            let a = ctx.malloc(64).unwrap();
            let entry: GuestEntry = Arc::new(move |ctx, arg| {
                ctx.alu(100 * arg as u32);
                for i in 0..8 {
                    ctx.branch(0x40, i % 2 == 0);
                    ctx.store(Addr(a.0 + 8 * i), arg);
                }
                ctx.set_exit_value(ctx.tile().0 as u64);
            });
            for arg in 1..=2 {
                let child = ctx.spawn(Arc::clone(&entry), arg).unwrap();
                assert_eq!(child.join(ctx).unwrap(), 1, "both threads run on tile 1");
            }
        });
        let lane = |name: &str| r.metrics.per_tile[name][1];
        assert_eq!(lane("core.tile.instructions"), 334);
        assert_eq!(lane("core.tile.cycles"), 2492);
    }

    #[test]
    fn atomic_rmw_from_many_guests() {
        let r = sim(8, 2).run(|ctx| {
            let a = ctx.malloc(64).unwrap();
            let entry: GuestEntry = Arc::new(move |ctx, arg| {
                for _ in 0..500 {
                    ctx.fetch_update_u32(Addr(arg), |v| v + 1);
                }
            });
            let tids: Vec<_> =
                (0..7).map(|_| ctx.spawn(Arc::clone(&entry), a.0).unwrap()).collect();
            for _ in 0..500 {
                ctx.fetch_update_u32(a, |v| v + 1);
            }
            for t in tids {
                t.join(ctx).unwrap();
            }
            assert_eq!(ctx.load::<u32>(a), 4_000);
        });
        assert!(r.simulated_cycles > Cycles::ZERO);
    }

    /// A workload exercising every CPI class: compute, hits, misses,
    /// messaging, spawn/join and futex forwarding.
    fn mixed_workload(ctx: &mut Ctx) {
        let a = ctx.malloc(4096).unwrap();
        ctx.alu(500);
        for i in 0..32u64 {
            ctx.store(a.offset(i * 64), i);
        }
        for i in 0..32u64 {
            let _ = ctx.load::<u64>(a.offset(i * 64));
        }
        let entry: GuestEntry = Arc::new(move |ctx, arg| {
            ctx.alu(2_000);
            let _ = ctx.fetch_update_u32(Addr(arg), |v| v + 1);
            let (_, data) = ctx.recv_msg().unwrap();
            assert_eq!(data, b"go");
        });
        let t = ctx.spawn(entry, a.0).unwrap();
        ctx.alu(10_000);
        ctx.send_msg(TileId(1), b"go").unwrap();
        t.join(ctx).unwrap();
    }

    #[test]
    fn cpi_classes_sum_to_tile_clock_under_every_sync_model() {
        for sync in [
            SyncModel::Lax,
            SyncModel::LaxBarrier { quantum: 1_000 },
            SyncModel::LaxP2P { slack: 10_000, check_interval: 1_000 },
        ] {
            let cfg = SimConfig::builder().tiles(2).processes(1).sync(sync).build().unwrap();
            let r = Sim::builder(cfg).build().unwrap().run(mixed_workload);
            let stacks = r.cpi_stacks();
            assert_eq!(stacks.len(), CpiClass::ALL.len());
            for (i, &clock) in r.per_tile_cycles.iter().enumerate() {
                let total: u64 = stacks.iter().map(|(_, lanes)| lanes[i]).sum();
                assert_eq!(
                    total, clock.0,
                    "tile {i} under {sync:?}: CPI classes sum to {total}, clock is {}",
                    clock.0
                );
            }
            // The workload makes every class non-empty somewhere.
            for (name, lanes) in &stacks {
                assert!(
                    lanes.iter().sum::<u64>() > 0,
                    "class {name} empty under {sync:?}: {stacks:?}"
                );
            }
        }
    }

    #[test]
    fn skew_sampler_records_timeline_under_every_sync_model() {
        for sync in [
            SyncModel::Lax,
            SyncModel::LaxBarrier { quantum: 1_000 },
            SyncModel::LaxP2P { slack: 10_000, check_interval: 1_000 },
        ] {
            let cfg = SimConfig::builder()
                .tiles(2)
                .processes(1)
                .sync(sync)
                .skew_sampling(50)
                .build()
                .unwrap();
            let r = Sim::builder(cfg).build().unwrap().run(mixed_workload);
            assert!(!r.skew_samples.is_empty(), "no skew samples under {sync:?}");
            for s in &r.skew_samples {
                assert_eq!(s.clocks.len(), 2);
                assert!(s.min <= s.max);
                assert_eq!(s.deltas_vs_max().len(), 2);
            }
            // The final sample sees the finished clocks.
            let last = r.skew_samples.last().unwrap();
            assert_eq!(Cycles(last.max), r.simulated_cycles, "under {sync:?}");
        }
    }

    #[test]
    fn perfetto_export_has_one_thread_track_per_tile() {
        let cfg = SimConfig::builder().tiles(2).processes(1).skew_sampling(100).build().unwrap();
        let s = Sim::builder(cfg).tracing(true).trace_capacity(4096).build().unwrap();
        let r = s.run(mixed_workload);
        let doc = r.perfetto_json();
        let summary = graphite_prof::validate_chrome_trace(&doc)
            .unwrap_or_else(|e| panic!("bad Perfetto JSON: {e}"));
        assert!(summary.thread_tracks >= 2, "{summary:?}");
        assert!(summary.covers_tiles(2), "not every tile has events: {summary:?}");
        assert!(summary.counter_events > 0, "skew/CPI counters missing: {summary:?}");
    }

    #[test]
    fn trace_ring_overflow_is_counted_and_reported() {
        let s = Sim::builder(cfg(2, 1)).tracing(true).trace_capacity(16).build().unwrap();
        let r = s.run(|ctx| {
            let a = ctx.malloc(4096).unwrap();
            for i in 0..512u64 {
                ctx.store(a.offset((i % 64) * 64), i);
            }
        });
        let dropped: u64 = r.trace_dropped.iter().sum();
        assert!(dropped > 0, "tiny ring must overflow");
        assert_eq!(r.metrics.counters["trace.dropped"], dropped);
        assert_eq!(r.metrics.per_tile["trace.tile.dropped"].iter().sum::<u64>(), dropped);
        // What was kept is still well-formed and in sequence order.
        let seqs: Vec<u64> = r.trace_events.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] <= w[1]));
    }
}
