//! The distributed shared-memory system (paper §3.2).
//!
//! This is where Graphite's central trick lives: the data structures that
//! keep the application's memory *functionally correct* across tiles are the
//! same ones that model the target memory architecture. Caches hold the
//! application's real bytes; a miss runs a real directory-MSI transaction
//! that moves those bytes, while every protocol hop is priced through the
//! network model and every DRAM access through a lax-queue controller model.
//!
//! ## Concurrency design
//!
//! Guest threads perform transactions directly against shared protocol state
//! ("remote access with modeled message timing"). The miss path is a
//! pipeline, not a lock-step RPC:
//!
//! * **A line's slot in the directory's line table is the top-level
//!   per-line resource.** A transaction finds (or creates) its line's
//!   record and claims the line in one shard-lock critical section, works
//!   on the record lock-free, and releases the line in a second. A claim
//!   that finds the line held waits for the release and then takes the line
//!   itself. A thread holds at most one line at a time: evictions complete
//!   (as their own claimed transactions) before the fill claims its line,
//!   and waiters sleep holding nothing, so no cycle can form.
//! * **Tile cache locks are leaves**, taken one at a time, never while a
//!   shard lock is held. Read hits can skip the tile lock entirely via a
//!   seqlock-validated probe ([`Cache::probe_read`]): writers bump the
//!   tile's [`SeqCount`] around every structural or data mutation, and a
//!   cache's line storage never moves or shrinks while the cache lives, so a
//!   racing probe reads stale-but-allocated bytes that validation then
//!   rejects.
//!
//! **The contract: one context per tile.** At most one thread accesses
//! memory on behalf of a tile at a time (the MCP maps at most one guest
//! thread to a tile), so a tile never has two transactions in flight. A
//! tile's cache only ever gains lines through its own context; other tiles'
//! transactions can only remove or downgrade them. So once a miss has
//! probed its cache, nothing can fill the line or the room its evictions
//! made until its own fill does: a miss is five steps — probe (which also
//! picks the first victim), evict, claim, directory transaction, fill —
//! with no re-check between them. Debug builds catch a tile that claims a
//! line it already holds.

use std::ops::Range;
use std::sync::atomic::{AtomicPtr, Ordering::Relaxed};
use std::sync::Arc;

use graphite_base::{CachePadded, Cycles, HostProf, HostStage, SeqCount, SimError, SimRng, TileId};
use graphite_ckpt::{corrupted, Checkpointable, Dec, Enc};
use graphite_config::{CacheProtocol, CoherenceScheme, SimConfig};
use graphite_network::{Network, Packet, TrafficClass};
use graphite_trace::{
    Gauge, MetricsRegistry, Obs, ShardedHistogram, ShardedMetric, TraceEventKind, Tracer,
};
use parking_lot::{Mutex, MutexGuard};

use crate::addr::Addr;
use crate::cache::{Cache, Line, LineState};
use crate::directory::{Claim, DirState, LineTable, Record};
use crate::dram::DramController;
use crate::missclass::{MissClassifier, MissKind};

/// Directory processing latency per request (cycles).
const DIR_LATENCY: Cycles = Cycles(10);
/// Size in bytes of a control packet (request/ack/invalidate).
const CTRL_MSG_BYTES: u32 = 8;
/// Header bytes added to a data-carrying packet.
const DATA_HDR_BYTES: u32 = 8;

/// How one modeled memory access spent its latency — the memory system's
/// contribution to per-tile cycle attribution (CPI stacks).
///
/// For a hit, the whole latency is local hierarchy time. For a miss,
/// `network` isolates the interconnect legs on the requester's critical path
/// (request to home, response back); the remainder is directory, remote
/// cache, and DRAM time. Always `network <= latency`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemCost {
    /// Total modeled latency of the access.
    pub latency: Cycles,
    /// True when every line segment was satisfied from the tile's own
    /// hierarchy (no directory transaction).
    pub hit: bool,
    /// Cycles of the latency spent on interconnect legs (zero for hits).
    pub network: Cycles,
}

impl MemCost {
    fn hit(latency: Cycles) -> Self {
        MemCost { latency, hit: true, network: Cycles::ZERO }
    }

    fn miss(latency: Cycles, network: Cycles) -> Self {
        MemCost { latency, hit: false, network: network.min(latency) }
    }

    /// Accumulates a per-segment cost into a multi-segment total: latencies
    /// and network shares add; the whole access only counts as a hit when
    /// every segment hit.
    fn fold(&mut self, seg: MemCost) {
        self.latency += seg.latency;
        self.network += seg.network;
        self.hit &= seg.hit;
    }

    fn folded_start() -> Self {
        MemCost { latency: Cycles::ZERO, hit: true, network: Cycles::ZERO }
    }
}

/// Per-tile cache hierarchy.
#[derive(Debug)]
struct TileMem {
    l1i: Option<Cache>,
    l1d: Option<Cache>,
    l2: Option<Cache>,
}

impl TileMem {
    /// The coherence-level cache (L2 when present, else L1D) and the L1D
    /// filter in front of it, if there is one.
    fn levels(&mut self) -> (&mut Cache, Option<&mut Cache>) {
        match (self.l2.as_mut(), self.l1d.as_mut()) {
            (Some(l2), l1d) => (l2, l1d),
            (None, Some(l1d)) => (l1d, None),
            (None, None) => unreachable!("validated: some cache level exists"),
        }
    }

    /// The coherence-level cache, read-only.
    fn coh(&self) -> &Cache {
        self.l2.as_ref().or(self.l1d.as_ref()).expect("validated: some cache level exists")
    }

    /// Removes a line from every level, returning the coherence-level
    /// state and bytes if it was resident.
    fn purge(&mut self, line: u64) -> Option<(LineState, &[u8])> {
        let (coh, l1d) = self.levels();
        if let Some(l1d) = l1d {
            l1d.remove(line);
        }
        coh.remove(line)
    }

    /// Functional in-place patch of every copy this tile holds; true when
    /// the coherence level held one.
    fn poke(&mut self, line: u64, off: usize, bytes: &[u8]) -> bool {
        let (coh, l1d) = self.levels();
        if let Some(l1) = l1d.and_then(|c| c.peek_mut(line)) {
            l1.data[off..off + bytes.len()].copy_from_slice(bytes);
        }
        coh.peek_mut(line).map(|l| l.data[off..off + bytes.len()].copy_from_slice(bytes)).is_some()
    }
}

/// Aggregate memory-system statistics.
///
/// Every counter is a [`ShardedMetric`]: updates land in the *requesting*
/// tile's cache-padded lane (even counters describing remote effects, such as
/// `invalidations` — they are incremented on the requester's protocol path),
/// so concurrent guest threads never write a shared cache line. Readers see
/// the lane sum via `get()`.
#[derive(Debug, Default)]
pub struct MemStats {
    /// Load accesses (per line segment).
    pub loads: ShardedMetric,
    /// Store accesses (per line segment).
    pub stores: ShardedMetric,
    /// Hits in the L1D filter.
    pub l1d_hits: ShardedMetric,
    /// Hits in the coherence-level cache (L2, or L1D when it is the only
    /// level).
    pub l2_hits: ShardedMetric,
    /// Misses requiring a directory transaction with data transfer.
    pub misses: ShardedMetric,
    /// Write-permission upgrades (line present Shared, no data transfer).
    pub upgrades: ShardedMetric,
    /// Invalidation messages sent to sharers.
    pub invalidations: ShardedMetric,
    /// Dirty writebacks (evictions and downgrades of Modified lines).
    pub writebacks: ShardedMetric,
    /// DRAM data reads.
    pub dram_reads: ShardedMetric,
    /// Misses by classified kind (only populated when classification is on).
    pub miss_cold: ShardedMetric,
    /// See [`MemStats::miss_cold`].
    pub miss_capacity: ShardedMetric,
    /// See [`MemStats::miss_cold`].
    pub miss_true_sharing: ShardedMetric,
    /// See [`MemStats::miss_cold`].
    pub miss_false_sharing: ShardedMetric,
    /// Sharer evictions forced by a full limited directory (DirNB).
    pub forced_evictions: ShardedMetric,
    /// LimitLESS software traps taken at directories.
    pub limitless_traps: ShardedMetric,
    /// Fills served cache-to-cache from a Modified owner.
    pub remote_fills: ShardedMetric,
    /// Total memory-access latency accumulated (cycles).
    pub latency_sum: ShardedMetric,
    /// Instruction fetch accesses.
    pub ifetches: ShardedMetric,
    /// Instruction fetch misses.
    pub ifetch_misses: ShardedMetric,
    /// Largest single access latency seen (cycles; diagnostic).
    pub max_latency: ShardedMetric,
    /// Exclusive-state grants on read misses (MESI only).
    pub exclusive_grants: ShardedMetric,
    /// Writes satisfied by a silent Exclusive→Modified upgrade (MESI only):
    /// no directory transaction needed.
    pub silent_upgrades: ShardedMetric,
    /// Misses that waited for a *different* tile's in-flight transaction on
    /// the same line before proceeding.
    pub mshr_conflict_waits: ShardedMetric,
    /// Read hits served by the lock-free seqlock probe (no tile lock).
    pub probe_hits: ShardedMetric,
}

impl MemStats {
    /// Builds stats whose counters are registered in `metrics` under the
    /// `mem.*` namespace, so snapshots and reports read the same cells.
    /// Each name still appears as a single scalar in `metrics.json`; the
    /// lanes are an implementation detail folded at snapshot time.
    pub fn registered(metrics: &MetricsRegistry) -> Self {
        MemStats {
            loads: metrics.sharded_counter("mem.loads"),
            stores: metrics.sharded_counter("mem.stores"),
            l1d_hits: metrics.sharded_counter("mem.l1d_hits"),
            l2_hits: metrics.sharded_counter("mem.l2_hits"),
            misses: metrics.sharded_counter("mem.misses"),
            upgrades: metrics.sharded_counter("mem.upgrades"),
            invalidations: metrics.sharded_counter("mem.invalidations"),
            writebacks: metrics.sharded_counter("mem.writebacks"),
            dram_reads: metrics.sharded_counter("mem.dram_reads"),
            miss_cold: metrics.sharded_counter("mem.miss_cold"),
            miss_capacity: metrics.sharded_counter("mem.miss_capacity"),
            miss_true_sharing: metrics.sharded_counter("mem.miss_true_sharing"),
            miss_false_sharing: metrics.sharded_counter("mem.miss_false_sharing"),
            forced_evictions: metrics.sharded_counter("mem.forced_evictions"),
            limitless_traps: metrics.sharded_counter("mem.limitless_traps"),
            remote_fills: metrics.sharded_counter("mem.remote_fills"),
            latency_sum: metrics.sharded_counter("mem.latency_sum"),
            ifetches: metrics.sharded_counter("mem.ifetches"),
            ifetch_misses: metrics.sharded_counter("mem.ifetch_misses"),
            max_latency: metrics.sharded_max("mem.max_latency"),
            exclusive_grants: metrics.sharded_counter("mem.exclusive_grants"),
            silent_upgrades: metrics.sharded_counter("mem.silent_upgrades"),
            mshr_conflict_waits: metrics.sharded_counter("mem.mshr.conflict_waits"),
            probe_hits: metrics.sharded_counter("mem.probe_hits"),
        }
    }

    /// Total data accesses.
    pub fn accesses(&self) -> u64 {
        self.loads.get() + self.stores.get()
    }

    /// Overall miss rate (misses / accesses), in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        self.misses.get() as f64 / self.accesses().max(1) as f64
    }

    /// Mean memory-access latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        self.latency_sum.get() as f64 / self.accesses().max(1) as f64
    }

    /// Miss count for one classified kind.
    pub fn miss_count(&self, kind: MissKind) -> u64 {
        match kind {
            MissKind::Cold => self.miss_cold.get(),
            MissKind::Capacity => self.miss_capacity.get(),
            MissKind::TrueSharing => self.miss_true_sharing.get(),
            MissKind::FalseSharing => self.miss_false_sharing.get(),
        }
    }

    fn record_kind(&self, lane: usize, kind: MissKind) {
        match kind {
            MissKind::Cold => self.miss_cold.incr_owned(lane),
            MissKind::Capacity => self.miss_capacity.incr_owned(lane),
            MissKind::TrueSharing => self.miss_true_sharing.incr_owned(lane),
            MissKind::FalseSharing => self.miss_false_sharing.incr_owned(lane),
        }
    }
}

enum LineOp<'a> {
    Read(&'a mut [u8]),
    Write(&'a [u8]),
    /// Atomic read-modify-write: `old` receives the previous bytes, then `f`
    /// rewrites the window in place. Applied while the line is held with
    /// write permission under the protocol locks, so it is atomic with
    /// respect to every other tile.
    Rmw {
        old: &'a mut [u8],
        f: &'a mut dyn FnMut(&mut [u8]),
    },
}

impl LineOp<'_> {
    fn is_write(&self) -> bool {
        !matches!(self, LineOp::Read(_))
    }

    fn len(&self) -> usize {
        match self {
            LineOp::Read(b) => b.len(),
            LineOp::Write(b) => b.len(),
            LineOp::Rmw { old, .. } => old.len(),
        }
    }
}

fn apply_rmw(data: &mut [u8], off: usize, old: &mut [u8], f: &mut dyn FnMut(&mut [u8])) {
    let window = &mut data[off..off + old.len()];
    old.copy_from_slice(window);
    f(window);
}

/// A tile's front data cache for the lock-free read probe, with the
/// latency/attribution a locked hit would have produced.
struct ProbeTarget {
    /// Set once at construction and never changed; only
    /// [`Cache::probe_read`] dereferences it.
    cache: AtomicPtr<Cache>,
    lat: Cycles,
    /// Whether a probe hit counts as an L1D hit (L1 filter present) or a
    /// coherence-level hit (single-level hierarchy).
    is_l1: bool,
}

/// Per-requesting-tile counters consumed by the host performance model: one
/// lane per tile in each `mem.tile.*` family.
#[derive(Debug)]
struct PerTileMemCounters {
    /// Line-segment accesses issued by each tile.
    accesses: ShardedMetric,
    /// Directory transactions (misses + upgrades) by each tile.
    transactions: ShardedMetric,
    /// Transactions whose home tile lives in a different simulated host
    /// process (these cross process boundaries on a real cluster).
    remote_home_transactions: ShardedMetric,
    /// Total modeled memory latency charged to each tile (cycles).
    latency_sum: ShardedMetric,
}

impl PerTileMemCounters {
    /// The `mem.tile.*` per-tile families of `metrics`.
    fn registered(metrics: &MetricsRegistry) -> Self {
        PerTileMemCounters {
            accesses: metrics.per_tile("mem.tile.accesses"),
            transactions: metrics.per_tile("mem.tile.transactions"),
            remote_home_transactions: metrics.per_tile("mem.tile.remote_home_transactions"),
            latency_sum: metrics.per_tile("mem.tile.latency_sum"),
        }
    }
}

/// The memory subsystem: per-tile cache hierarchies, the distributed
/// directory, DRAM controllers, and the functional backing store.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use graphite_base::{Cycles, GlobalProgress, TileId};
/// use graphite_memory::{Addr, MemorySystem};
/// use graphite_network::Network;
///
/// let cfg = graphite_config::presets::paper_default(4);
/// let net = Arc::new(Network::new(&cfg, Arc::new(GlobalProgress::new(4))));
/// let mem = MemorySystem::new(&cfg, net, false);
///
/// let lat = mem.write(TileId(0), Cycles(0), Addr(0x1000), &42u64.to_le_bytes());
/// assert!(lat > Cycles::ZERO);
/// let mut buf = [0u8; 8];
/// mem.read(TileId(1), Cycles(0), Addr(0x1000), &mut buf);
/// assert_eq!(u64::from_le_bytes(buf), 42);
/// ```
pub struct MemorySystem {
    line_size: u32,
    /// `log2(line_size)`; the config validates line sizes are powers of two,
    /// so line/offset extraction is a shift and a mask, never a division.
    line_shift: u32,
    /// `line_size - 1`.
    line_mask: u64,
    num_tiles: u32,
    /// Each tile's lock and hierarchy (LRU stamp counters included) on padded
    /// blocks of its own: the lock word is written on every locked access.
    tiles: Vec<CachePadded<Mutex<TileMem>>>,
    /// Every line's directory record, and which lines have a transaction in
    /// flight (per-line exclusivity).
    dir: LineTable,
    /// `mem.dir.lines`; see [`MemorySystem::publish_dir_lines`].
    dir_lines: Gauge,
    /// Per-tile seqlock counters; bumped (under the tile lock) around every
    /// structural or data mutation of that tile's caches.
    tile_seq: Vec<SeqCount>,
    probes: Vec<ProbeTarget>,
    /// The tag-lookup latency charged before a miss leaves the tile
    /// (L1-filter + coherence-level access latencies — config constants, so
    /// the miss path doesn't take the tile lock just to read them).
    miss_lookup_lat: Cycles,
    /// One controller per home tile (or a single one), each on its own
    /// padded block: misses homed at neighbouring tiles do not share lines.
    dram: Vec<CachePadded<DramController>>,
    per_tile_dram: bool,
    network: Arc<Network>,
    scheme: CoherenceScheme,
    protocol: CacheProtocol,
    /// Miss classifier (enabled for the Figure 8 study).
    pub classifier: MissClassifier,
    stats: MemStats,
    per_tile: PerTileMemCounters,
    /// Simulated host process of each tile, for locality classification.
    proc_of_tile: Vec<u32>,
    /// Distribution of per-access modeled latency (per-tile lanes, folded at
    /// snapshot time).
    latency_hist: ShardedHistogram,
    tracer: Arc<Tracer>,
    /// Host-cost profiler (`host.mem.*` stages). Disabled by default: every
    /// instrumentation point on the miss path is then one atomic load.
    hostprof: Arc<HostProf>,
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("tiles", &self.num_tiles)
            .field("line_size", &self.line_size)
            .field("scheme", &self.scheme)
            .finish()
    }
}

impl MemorySystem {
    /// Builds the memory system for a validated configuration, with detached
    /// (unregistered, untraced) observability.
    pub fn new(cfg: &SimConfig, network: Arc<Network>, classify_misses: bool) -> Self {
        Self::with_obs(cfg, network, classify_misses, &Obs::detached(cfg.target.num_tiles as usize))
    }

    /// Builds the memory system wired into an observability context: counters
    /// register under `mem.*`, access latencies feed the `mem.latency_cycles`
    /// histogram, and protocol activity is traced when `obs.tracer` is on.
    pub fn with_obs(
        cfg: &SimConfig,
        network: Arc<Network>,
        classify_misses: bool,
        obs: &Obs,
    ) -> Self {
        debug_assert_eq!(obs.metrics.num_tiles(), cfg.target.num_tiles as usize);
        let line_size = cfg.target.coherence_line_size();
        let tiles: Vec<CachePadded<Mutex<TileMem>>> = (0..cfg.target.num_tiles)
            .map(|_| {
                CachePadded::new(Mutex::new(TileMem {
                    l1i: cfg.target.l1i.as_ref().map(|c| Cache::new(c, false)),
                    l1d: cfg.target.l1d.as_ref().map(|c| Cache::new(c, true)),
                    l2: cfg.target.l2.as_ref().map(|c| Cache::new(c, true)),
                }))
            })
            .collect();
        // Probe targets point into `tiles`' heap buffer, which never moves
        // again (the Vec is only ever moved wholesale into the struct).
        let probes: Vec<ProbeTarget> = tiles
            .iter()
            .map(|t| {
                let tm = t.lock();
                let (c, is_l1) = match (&tm.l1d, &tm.l2) {
                    (Some(l1d), Some(_)) => (l1d, true),
                    _ => (tm.coh(), false),
                };
                let cache = AtomicPtr::new(c as *const Cache as *mut Cache);
                ProbeTarget { cache, lat: c.access_latency(), is_l1 }
            })
            .collect();
        // A miss pays the coherence level's lookup, behind the L1 filter's.
        let filter_lat = if probes[0].is_l1 { probes[0].lat } else { Cycles::ZERO };
        let miss_lookup_lat = tiles[0].lock().coh().access_latency() + filter_lat;
        let ncontrollers =
            if cfg.target.dram.per_tile_controllers { cfg.target.num_tiles } else { 1 };
        let bytes_per_cycle =
            cfg.target.dram.total_bandwidth_gbps / cfg.target.clock_ghz / ncontrollers as f64;
        let dram = (0..ncontrollers)
            .map(|_| {
                CachePadded::new(DramController::new(
                    bytes_per_cycle,
                    cfg.target.dram.access_latency,
                ))
            })
            .collect();
        debug_assert!(line_size.is_power_of_two(), "validated by SimConfig");
        MemorySystem {
            line_size,
            line_shift: line_size.trailing_zeros(),
            line_mask: line_size as u64 - 1,
            num_tiles: cfg.target.num_tiles,
            dir: LineTable::new(cfg.target.num_tiles, line_size, Arc::clone(&obs.hostprof)),
            dir_lines: obs.metrics.gauge("mem.dir.lines"),
            tile_seq: (0..cfg.target.num_tiles).map(|_| SeqCount::new()).collect(),
            probes,
            miss_lookup_lat,
            tiles,
            dram,
            per_tile_dram: cfg.target.dram.per_tile_controllers,
            network,
            scheme: cfg.target.coherence,
            protocol: cfg.target.protocol,
            classifier: MissClassifier::new(classify_misses, line_size),
            stats: MemStats::registered(&obs.metrics),
            per_tile: PerTileMemCounters::registered(&obs.metrics),
            proc_of_tile: (0..cfg.target.num_tiles).map(|t| cfg.process_of_tile(t)).collect(),
            latency_hist: obs.metrics.sharded_histogram("mem.latency_cycles"),
            tracer: Arc::clone(&obs.tracer),
            hostprof: Arc::clone(&obs.hostprof),
        }
    }

    /// Host addresses of the words `tile`'s accesses write in this struct's
    /// per-tile arrays (the metric slots are the registry's), for layout
    /// tests.
    #[doc(hidden)]
    pub fn hot_addrs(&self, tile: TileId) -> Vec<(&'static str, usize)> {
        use graphite_base::padded::addr_of;
        let t = tile.index();
        let mut words =
            vec![("tile lock", addr_of(&*self.tiles[t])), ("seq counter", self.tile_seq[t].addr())];
        if self.per_tile_dram {
            words.push(("dram controller", addr_of(&*self.dram[t])));
        }
        words
    }

    /// Coherence line size in bytes.
    pub fn line_size(&self) -> u32 {
        self.line_size
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Sets `mem.dir.lines` — lines the directory holds a record (and the
    /// DRAM bytes) for — from the arena's counter. Call before a snapshot;
    /// nothing on the access path maintains the gauge.
    pub fn publish_dir_lines(&self) {
        self.dir_lines.set(self.dir.lines() as u64);
    }

    /// The DRAM controllers (one per tile, or a single one).
    pub fn dram_controllers(&self) -> &[CachePadded<DramController>] {
        &self.dram
    }

    fn home_of(&self, line: u64) -> TileId {
        // The directory is uniformly distributed across all tiles (§3.2).
        TileId((line % self.num_tiles as u64) as u32)
    }

    fn controller_of(&self, home: TileId) -> &DramController {
        if self.per_tile_dram {
            &self.dram[home.index()]
        } else {
            &self.dram[0]
        }
    }

    /// One modeled DRAM access at `home`'s controller, attributed to the
    /// `host.mem.dram` stage.
    fn dram_access(&self, home: TileId, est_now: Cycles) -> Cycles {
        let _hp = self.hostprof.span(HostStage::DramModel);
        self.controller_of(home).access(est_now, self.line_size)
    }

    /// Routes a protocol leg stamped with a tile's real clock (requests,
    /// writebacks); feeds the global-progress window.
    fn route(&self, src: TileId, dst: TileId, bytes: u32, t: Cycles) -> Cycles {
        self.route_flow(src, dst, bytes, t, 0)
    }

    /// Like [`MemorySystem::route`], attributing the leg to a causal flow.
    fn route_flow(&self, src: TileId, dst: TileId, bytes: u32, t: Cycles, flow: u64) -> Cycles {
        let _hp = self.hostprof.span(HostStage::NetModel);
        self.network
            .route_flow(
                TrafficClass::Memory,
                &Packet { src, dst, size_bytes: bytes, send_time: t },
                flow,
            )
            .arrival
    }

    /// Routes a protocol leg stamped with a derived model time (forwards,
    /// invalidations, acks, responses); must not feed the progress window.
    /// The leg is attributed to causal flow `flow` (0 = untracked).
    fn route_derived_flow(
        &self,
        src: TileId,
        dst: TileId,
        bytes: u32,
        t: Cycles,
        flow: u64,
    ) -> Cycles {
        let _hp = self.hostprof.span(HostStage::NetModel);
        self.network
            .route_unobserved_flow(
                TrafficClass::Memory,
                &Packet { src, dst, size_bytes: bytes, send_time: t },
                flow,
            )
            .arrival
    }

    /// Reads `buf.len()` bytes at `addr` on behalf of `tile`, returning the
    /// modeled latency. Splits accesses that span cache lines.
    ///
    /// The dominant case — a `Ctx::load` of an aligned scalar (≤ 8 bytes,
    /// always within one line) — takes the single-segment path: no splitting
    /// loop, line and offset computed once by shift/mask.
    #[inline]
    pub fn read(&self, tile: TileId, now: Cycles, addr: Addr, buf: &mut [u8]) -> Cycles {
        self.read_classified(tile, now, addr, buf).latency
    }

    /// Like [`MemorySystem::read`], but also reports how the latency splits
    /// between local hierarchy and interconnect time (for CPI attribution).
    #[inline]
    pub fn read_classified(
        &self,
        tile: TileId,
        now: Cycles,
        addr: Addr,
        buf: &mut [u8],
    ) -> MemCost {
        let len = buf.len();
        if len > 0 && (addr.0 & self.line_mask) as usize + len <= self.line_size as usize {
            return self.access_line(tile, now, addr, LineOp::Read(buf));
        }
        self.access_multi(tile, now, addr, LineOp::Read(buf))
    }

    /// Writes `bytes` at `addr` on behalf of `tile`, returning the modeled
    /// latency. Splits accesses that span cache lines; single-line accesses
    /// (every aligned `Ctx::store` of ≤ 8 bytes) skip the splitting loop.
    #[inline]
    pub fn write(&self, tile: TileId, now: Cycles, addr: Addr, bytes: &[u8]) -> Cycles {
        self.write_classified(tile, now, addr, bytes).latency
    }

    /// Like [`MemorySystem::write`], but also reports how the latency splits
    /// between local hierarchy and interconnect time (for CPI attribution).
    #[inline]
    pub fn write_classified(&self, tile: TileId, now: Cycles, addr: Addr, bytes: &[u8]) -> MemCost {
        let len = bytes.len();
        if len > 0 && (addr.0 & self.line_mask) as usize + len <= self.line_size as usize {
            return self.access_line(tile, now, addr, LineOp::Write(bytes));
        }
        self.access_multi(tile, now, addr, LineOp::Write(bytes))
    }

    /// Splits a read or write that spans lines into one access per line
    /// segment, each starting when the one before it finished.
    fn access_multi(&self, tile: TileId, now: Cycles, addr: Addr, mut op: LineOp) -> MemCost {
        let mut total = MemCost::folded_start();
        for (a, r) in self.segments(addr, op.len()) {
            let seg = match &mut op {
                LineOp::Read(buf) => LineOp::Read(&mut buf[r]),
                LineOp::Write(bytes) => LineOp::Write(&bytes[r]),
                LineOp::Rmw { .. } => unreachable!("an atomic access stays within one line"),
            };
            total.fold(self.access_line(tile, now + total.latency, a, seg));
        }
        total
    }

    /// Splits the `len` bytes at `addr` at line boundaries into each
    /// segment's address and its byte range within the access.
    fn segments(&self, addr: Addr, len: usize) -> impl Iterator<Item = (Addr, Range<usize>)> {
        let (line_size, line_mask) = (self.line_size as usize, self.line_mask);
        let mut done = 0;
        std::iter::from_fn(move || {
            (done < len).then(|| {
                let a = addr.offset(done as u64);
                let n = (line_size - (a.0 & line_mask) as usize).min(len - done);
                done += n;
                (a, done - n..done)
            })
        })
    }

    /// Models an instruction fetch through the (tag-only) L1I; misses charge
    /// the L2 hit latency, assuming code is resident on chip. Miss latency is
    /// charged to the tile's `mem.tile.latency_sum` lane like data accesses.
    pub fn ifetch(&self, tile: TileId, now: Cycles, addr: Addr) -> Cycles {
        let lane = tile.index();
        self.stats.ifetches.incr_owned(lane);
        let mut tm = self.lock_tile(tile);
        let Some(l1i) = tm.l1i.as_mut() else {
            return Cycles(1);
        };
        let l1i_lat = l1i.access_latency();
        let line = addr.line(l1i.line_size());
        if l1i.lookup(line).is_some() {
            return l1i_lat;
        }
        self.stats.ifetch_misses.incr_owned(lane);
        l1i.insert(line, LineState::Shared, &[]);
        let l2_lat = tm.l2.as_ref().map(|c| c.access_latency()).unwrap_or(Cycles(8));
        drop(tm);
        let total = l1i_lat + l2_lat;
        self.per_tile.latency_sum.add_owned(lane, total.0);
        self.tracer.emit(tile, now, || TraceEventKind::MemOpDone {
            op: "ifetch",
            addr: addr.0,
            latency: total.0,
            hit: false,
        });
        total
    }

    fn access_line(&self, tile: TileId, now: Cycles, addr: Addr, mut op: LineOp) -> MemCost {
        let line = addr.0 >> self.line_shift;
        let off = (addr.0 & self.line_mask) as usize;
        let lane = tile.index();
        let is_write = op.is_write();
        let op_name = if is_write { "store" } else { "load" };
        if is_write {
            self.stats.stores.incr_owned(lane);
        } else {
            self.stats.loads.incr_owned(lane);
        }
        self.per_tile.accesses.incr_owned(lane);
        // One tracer gate for both endpoint events; disabled tracing costs a
        // single predictable branch per access.
        let tracing = self.tracer.is_enabled();
        // Lock-free read-hit probe: a seqlock-validated scan of the front
        // data cache. Counters, latency, and LRU effect are identical to the
        // locked read-hit path; `false` only ever means "take the slow path".
        let pt = &self.probes[lane];
        let probe_hit = match &mut op {
            // SAFETY: `pt.cache` points at a `Cache` inside
            // `MemorySystem::tiles`, whose heap buffer is allocated once and
            // lives exactly as long as this `MemorySystem`; every mutation of
            // that cache happens under its tile lock inside a write section
            // of `tile_seq[lane]`, and `off + buf.len()` stays within the
            // line (`access_line` gets one line segment).
            LineOp::Read(buf) => unsafe {
                Cache::probe_read(pt.cache.load(Relaxed), &self.tile_seq[lane], line, off, buf)
            },
            _ => false,
        };
        let probed = if probe_hit {
            self.stats.probe_hits.incr_owned(lane);
            if pt.is_l1 {
                self.stats.l1d_hits.incr_owned(lane);
            } else {
                self.stats.l2_hits.incr_owned(lane);
            }
            Ok(pt.lat)
        } else {
            // Fast path: local hit with sufficient permission.
            let _hp = self.hostprof.span(HostStage::LocalProbe);
            self.probe(tile, line, off, &mut op)
        };
        // Hits and misses record the same metric set (latency sum, per-tile
        // latency, max, histogram), so per-tile means cover every access,
        // not just misses. Hits emit their start/done pair under one
        // tracer-lane acquisition; misses keep separate endpoint events so
        // directory legs traced during the transaction land between them.
        let cost = match probed {
            Ok(lat) => {
                if tracing {
                    self.tracer.emit_pair(tile, now, || {
                        (
                            TraceEventKind::MemOpStart { op: op_name, addr: addr.0 },
                            TraceEventKind::MemOpDone {
                                op: op_name,
                                addr: addr.0,
                                latency: lat.0,
                                hit: true,
                            },
                        )
                    });
                }
                MemCost::hit(lat)
            }
            Err(victim) => {
                if tracing {
                    self.tracer.emit(tile, now, || TraceEventKind::MemOpStart {
                        op: op_name,
                        addr: addr.0,
                    });
                }
                let cost = self.miss_transaction(tile, now, line, off, &mut op, victim);
                if tracing {
                    self.tracer.emit(tile, now, || TraceEventKind::MemOpDone {
                        op: op_name,
                        addr: addr.0,
                        latency: cost.latency.0,
                        hit: false,
                    });
                }
                cost
            }
        };
        if is_write && self.classifier.enabled() {
            self.classifier.on_write(tile, line, off as u64, op.len() as u64);
        }
        let lat = cost.latency;
        self.stats.latency_sum.add_owned(lane, lat.0);
        self.per_tile.latency_sum.add_owned(lane, lat.0);
        self.stats.max_latency.observe_max(lane, lat.0);
        self.latency_hist.record_owned(lane, lat.0);
        cost
    }

    /// The locked probe: a local hit's latency, or on a miss the line the
    /// fill would evict (`None` when the set has room or the line is
    /// resident without write permission), picked in the same critical
    /// section.
    fn probe(
        &self,
        tile: TileId,
        line: u64,
        off: usize,
        op: &mut LineOp,
    ) -> Result<Cycles, Option<u64>> {
        let mut tm = self.lock_tile(tile);
        self.try_local_hit(&mut tm, tile.index(), line, off, op)
            .ok_or_else(|| tm.coh().victim_for(line))
    }

    /// Attempts to satisfy the access from the tile's own hierarchy.
    ///
    /// This is the straight-line section the tile mutex protects on the hot
    /// path: one split borrow of the hierarchy (no repeated
    /// `as_ref().unwrap()` re-probes), a single tag scan per level (`lookup`
    /// returns the line, so no second `peek_mut` scan to apply the data op),
    /// and no heap allocation.
    fn try_local_hit(
        &self,
        tm: &mut TileMem,
        lane: usize,
        line: u64,
        off: usize,
        op: &mut LineOp,
    ) -> Option<Cycles> {
        let is_write = op.is_write();
        let seq = &self.tile_seq[lane];
        let TileMem { l1d, l2, .. } = tm;
        if let (Some(l1d), Some(l2)) = (l1d.as_mut(), l2.as_mut()) {
            let l1_lat = l1d.access_latency();
            if let Some(mut l1_line) = l1d.lookup(line) {
                let state = l1_line.state();
                if is_write && !state.writable() {
                    return None; // upgrade required
                }
                if let LineOp::Read(buf) = op {
                    buf.copy_from_slice(&l1_line.data[off..off + buf.len()]);
                } else {
                    if state == LineState::Exclusive {
                        self.stats.silent_upgrades.incr_owned(lane);
                    }
                    let mut l2_line = l2.peek_mut(line).expect("inclusion: L1 ⊆ L2");
                    seq.begin_write();
                    Self::write_through(&mut l2_line, Some(&mut l1_line), off, op);
                    seq.end_write();
                }
                self.stats.l1d_hits.incr_owned(lane);
                return Some(l1_lat);
            }
            let l2_lat = l2.access_latency();
            let mut l2_line = l2.lookup(line)?;
            let state = l2_line.state();
            if is_write && !state.writable() {
                return None;
            }
            // Apply on the authoritative L2 copy, then refill L1 with the
            // resulting line (write-through keeps L2 current, so the L1
            // victim is dropped silently). The refill mutates L1
            // structurally, so the whole block is one probe-excluding write
            // section.
            seq.begin_write();
            if let LineOp::Read(buf) = op {
                buf.copy_from_slice(&l2_line.data[off..off + buf.len()]);
            } else {
                if state == LineState::Exclusive {
                    self.stats.silent_upgrades.incr_owned(lane);
                }
                Self::write_through(&mut l2_line, None, off, op);
            }
            l1d.insert(line, l2_line.state(), l2_line.data);
            seq.end_write();
            self.stats.l2_hits.incr_owned(lane);
            Some(l1_lat + l2_lat)
        } else {
            let coh = l2.as_mut().or(l1d.as_mut()).expect("validated: some cache level");
            let lat = coh.access_latency();
            let mut entry = coh.lookup(line)?;
            let state = entry.state();
            if is_write && !state.writable() {
                return None;
            }
            if let LineOp::Read(buf) = op {
                buf.copy_from_slice(&entry.data[off..off + buf.len()]);
            } else {
                if state == LineState::Exclusive {
                    self.stats.silent_upgrades.incr_owned(lane);
                }
                seq.begin_write();
                Self::write_through(&mut entry, None, off, op);
                seq.end_write();
            }
            self.stats.l2_hits.incr_owned(lane);
            Some(lat)
        }
    }

    /// Applies a write (or RMW) to the coherence-level copy of a line the
    /// tile may write, marking it Modified; with an L1 filter the
    /// coherence-level copy is authoritative and the resulting window
    /// propagates into the L1 copy (an RMW closure must not run twice).
    #[inline(always)]
    fn write_through(coh: &mut Line, l1: Option<&mut Line>, off: usize, op: &mut LineOp) {
        let n = op.len();
        coh.set_state(LineState::Modified);
        match op {
            LineOp::Write(bytes) => coh.data[off..off + n].copy_from_slice(bytes),
            LineOp::Rmw { old, f } => apply_rmw(coh.data, off, old, *f),
            LineOp::Read(_) => unreachable!("reads never write through"),
        }
        if let Some(l1) = l1 {
            l1.set_state(LineState::Modified);
            l1.data[off..off + n].copy_from_slice(&coh.data[off..off + n]);
        }
    }

    /// The slow path after the probe: evict `victim` (and any victim after
    /// it), claim the line, run its directory transaction and fill. Returns
    /// the total latency and the share spent on interconnect legs of the
    /// requester's critical path (request out, response back), for CPI
    /// attribution.
    fn miss_transaction(
        &self,
        tile: TileId,
        now: Cycles,
        line: u64,
        off: usize,
        op: &mut LineOp,
        mut victim: Option<u64>,
    ) -> MemCost {
        let _miss = self.hostprof.span(HostStage::MissTotal);
        // Each eviction is its own claimed transaction, run *before* this
        // line's claim: holding two lines at once could deadlock (tile A
        // fills X evicting Y while tile B fills Y evicting X).
        {
            let _hp = self.hostprof.span(HostStage::LruScan);
            while let Some(vline) = victim {
                victim = self.evict_line(tile, now, vline, line);
            }
        }
        let claim = {
            let _hp = self.hostprof.span(HostStage::MissRegister);
            let (claim, waited) = {
                let _hp = self.hostprof.span(HostStage::MshrProbe);
                self.dir.claim(line, tile)
            };
            if waited {
                self.stats.mshr_conflict_waits.incr_owned(tile.index());
            }
            claim
        };
        let (cost, grant) = {
            let _hp = self.hostprof.span(HostStage::DirTxn);
            self.run_directory_transaction(tile, now, line, op.is_write(), claim.record)
        };
        self.fill(tile, line, off, op, claim.record, grant);
        self.release(claim);
        cost
    }

    /// Runs one directory transaction for a registered miss; the caller
    /// holds the line, granting exclusive use of `entry`. A dirty owner
    /// writes its bytes back into `entry`. Returns the miss's cost and the
    /// state the requester fills the line in, or `None` for an upgrade of a
    /// resident Shared copy.
    fn run_directory_transaction(
        &self,
        tile: TileId,
        now: Cycles,
        line: u64,
        is_write: bool,
        entry: Record<'_>,
    ) -> (MemCost, Option<LineState>) {
        let home = self.home_of(line);
        self.per_tile.transactions.incr_owned(tile.index());
        if self.proc_of_tile[tile.index()] != self.proc_of_tile[home.index()] {
            self.per_tile.remote_home_transactions.incr_owned(tile.index());
        }
        let lookup_lat = self.miss_lookup_lat;
        let t0 = now + lookup_lat;

        // Mint a causal flow ID for this transaction; every protocol leg it
        // generates carries the ID, so the profiler can reassemble the whole
        // remote access as one span tree. Flow 0 means tracing is off.
        let flow = if self.tracer.flows_enabled() { self.tracer.next_flow_id() } else { 0 };
        if flow != 0 {
            self.tracer.emit(tile, now, || TraceEventKind::FlowSend {
                flow,
                dst: home.0,
                kind: "mem_miss",
            });
        }

        debug_assert!(entry.invariants_hold());

        // Request travels tile -> home.
        let t_req = self.route_flow(tile, home, CTRL_MSG_BYTES, t0, flow);
        let mut t_home = t_req + DIR_LATENCY;
        self.trace_leg(tile, t0, "request", line);

        // LimitLESS: overflowing the hardware pointers traps to software.
        if let CoherenceScheme::Limitless { sharers: hw, trap_cycles } = self.scheme {
            let overflowed = entry.state() == DirState::Shared && entry.sharers().count() >= hw;
            if overflowed {
                self.stats.limitless_traps.incr_owned(tile.index());
                t_home += Cycles(trap_cycles);
                self.trace_leg(tile, t_home, "limitless_trap", line);
            }
        }

        // Queue models are referenced against the *global-progress estimate*,
        // not this requester's own (possibly far-skewed) timestamp — the
        // paper's queue-modeling rule (§3.6.1). Using the requester's clock
        // would convert clock skew into phantom queueing delay.
        let est_now = self.network.progress().estimate();
        let mut data_ready = t_home;
        let mut grant = Some(if is_write { LineState::Modified } else { LineState::Shared });
        let mut resp_bytes = self.line_size + DATA_HDR_BYTES;

        let sharers = entry.sharers();
        match (entry.state(), is_write) {
            (DirState::Uncached, _) => {
                let dram_lat = self.dram_access(home, est_now);
                self.stats.dram_reads.incr_owned(tile.index());
                data_ready = t_home + dram_lat;
                entry.set_state(if is_write {
                    DirState::Owned(tile)
                } else if self.protocol == CacheProtocol::Mesi {
                    // MESI: the sole reader takes the line Exclusive and may
                    // later write it without another directory transaction.
                    self.stats.exclusive_grants.incr_owned(tile.index());
                    grant = Some(LineState::Exclusive);
                    DirState::Owned(tile)
                } else {
                    sharers.insert(tile);
                    DirState::Shared
                });
            }
            (DirState::Shared, false) => {
                // DirNB: a full pointer set forces eviction of one sharer.
                // The victim is chosen in ring order after the requester so
                // victimization spreads over tiles (a fixed choice would
                // thrash one tile and leave the rest permanently cached,
                // hiding the protocol's serialization).
                if let CoherenceScheme::DirNB { sharers: limit } = self.scheme {
                    if !sharers.contains(tile) && sharers.count() >= limit {
                        let victim = sharers
                            .iter()
                            .find(|&s| s > tile)
                            .or_else(|| sharers.iter().find(|&s| s != tile))
                            .expect("non-empty");
                        sharers.remove(victim);
                        self.stats.forced_evictions.incr_owned(tile.index());
                        let t_ack = self.invalidate(tile, victim, line, t_home, flow);
                        data_ready = data_ready.max(t_ack);
                    }
                }
                let dram_lat = self.dram_access(home, est_now);
                self.stats.dram_reads.incr_owned(tile.index());
                data_ready = data_ready.max(t_home + dram_lat);
                sharers.insert(tile);
            }
            (DirState::Shared, true) => {
                let was_sharer = sharers.contains(tile);
                // Invalidate every other sharer; latency is the slowest ack.
                let mut t_inv_done = t_home;
                for s in sharers.iter().filter(|&s| s != tile) {
                    t_inv_done = t_inv_done.max(self.invalidate(tile, s, line, t_home, flow));
                }
                sharers.clear();
                entry.set_state(DirState::Owned(tile));
                if was_sharer {
                    // Upgrade: data already resident, permission-only reply.
                    self.stats.upgrades.incr_owned(tile.index());
                    self.trace_leg(tile, t_home, "upgrade", line);
                    grant = None;
                    resp_bytes = CTRL_MSG_BYTES;
                    data_ready = t_inv_done;
                } else {
                    let dram_lat = self.dram_access(home, est_now);
                    self.stats.dram_reads.incr_owned(tile.index());
                    data_ready = t_inv_done.max(t_home + dram_lat);
                }
            }
            (DirState::Owned(owner), _) => {
                debug_assert_ne!(owner, tile, "an owner's own probe hits");
                // Forward to owner; owner supplies data (if dirty) and is
                // downgraded (read) or invalidated (write). A dirty owner's
                // bytes go straight into the home copy at owner-lock time; a
                // clean owner's equal it already. Either way the requester
                // then fills from the home copy like any other miss.
                self.stats.remote_fills.incr_owned(tile.index());
                self.trace_leg(tile, t_home, "remote_fill", line);
                let was_dirty = {
                    let mut ot = self.lock_tile(owner);
                    if is_write {
                        self.stats.invalidations.incr_owned(tile.index());
                        let seq = &self.tile_seq[owner.index()];
                        seq.begin_write();
                        let (st, data) = ot.purge(line).expect("owner holds the line");
                        let was_dirty = st == LineState::Modified;
                        if was_dirty {
                            entry.write_bytes(0, data);
                        }
                        seq.end_write();
                        self.classifier.on_departure(owner, line, true);
                        was_dirty
                    } else {
                        // Downgrade owner to Shared at every level. State
                        // changes leave data bytes and placement intact, so
                        // no probe-excluding write section is needed.
                        let (coh, l1d) = ot.levels();
                        let mut l = coh.peek_mut(line).expect("owner holds the line");
                        let was_dirty = l.state() == LineState::Modified;
                        l.set_state(LineState::Shared);
                        if was_dirty {
                            entry.write_bytes(0, l.data);
                        }
                        if let Some(mut l1) = l1d.and_then(|c| c.peek_mut(line)) {
                            l1.set_state(LineState::Shared);
                        }
                        was_dirty
                    }
                };
                if was_dirty {
                    self.stats.writebacks.incr_owned(tile.index());
                    // Home memory is updated in parallel with the response;
                    // the write occupies the controller off the critical path.
                    let _ = self.dram_access(home, est_now);
                }
                let t_fwd = self.route_derived_flow(home, owner, CTRL_MSG_BYTES, t_home, flow);
                let xfer = if was_dirty { self.line_size + DATA_HDR_BYTES } else { CTRL_MSG_BYTES };
                let t_data = self.route_derived_flow(owner, home, xfer, t_fwd + Cycles(2), flow);
                data_ready = t_data + DIR_LATENCY;
                if is_write {
                    entry.set_state(DirState::Owned(tile));
                } else {
                    entry.set_state(DirState::Shared);
                    sharers.insert(owner);
                    sharers.insert(tile);
                }
            }
        }
        debug_assert!(entry.invariants_hold());

        if flow != 0 {
            // The directory-service span: starts when the request arrived at
            // the home tile, ends when the data (or permission) is ready to
            // ship back.
            let ready = data_ready;
            self.tracer.emit(home, t_req, || TraceEventKind::FlowService {
                flow,
                home: home.0,
                ready: ready.0,
            });
        }

        // Response travels home -> tile.
        let t_resp = self.route_derived_flow(home, tile, resp_bytes, data_ready, flow);
        let latency = t_resp.saturating_sub(now).max(lookup_lat);
        let network = t_req.saturating_sub(t0) + t_resp.saturating_sub(data_ready);
        if flow != 0 {
            self.tracer
                .emit(tile, t_resp, || TraceEventKind::FlowReply { flow, latency: latency.0 });
        }
        (MemCost::miss(latency, network), grant)
    }

    /// Applies a granted miss to the requester's hierarchy while it still
    /// holds the line: `grant` is the state to fill the line in from the
    /// home copy in `entry` (whose way the probe and the evictions freed),
    /// or `None` to upgrade the resident copy in place.
    fn fill(
        &self,
        tile: TileId,
        line: u64,
        off: usize,
        op: &mut LineOp,
        entry: Record<'_>,
        grant: Option<LineState>,
    ) {
        let _fill = self.hostprof.span(HostStage::MissFill);
        let mut tm = self.lock_tile(tile);
        let seq = &self.tile_seq[tile.index()];
        let (coh, l1d) = tm.levels();
        let Some(fill_state) = grant else {
            // Permission upgrade: set Modified and apply the write at every
            // level. The line cannot have been invalidated since the
            // directory decided, because we hold it from the decision to
            // here.
            let mut resident = coh.peek_mut(line).expect("upgraded line vanished while claimed");
            let mut l1_line = l1d.and_then(|c| c.peek_mut(line));
            seq.begin_write();
            Self::write_through(&mut resident, l1_line.as_mut(), off, op);
            seq.end_write();
            return;
        };
        self.stats.misses.incr_owned(tile.index());
        if let Some(kind) = self.classifier.classify_fill(tile, line, off as u64, op.len() as u64) {
            self.stats.record_kind(tile.index(), kind);
        }
        // Fill in place: the home copy goes straight into the way the cache
        // chose, the operation applies there, and the L1 filter (if any)
        // copies the result.
        seq.begin_write();
        let (filled, evicted) = coh.place(line, fill_state);
        assert!(evicted.is_none(), "miss fill found no room: two contexts on one tile?");
        entry.read_bytes(0, filled.data);
        match op {
            LineOp::Write(bytes) => filled.data[off..off + bytes.len()].copy_from_slice(bytes),
            LineOp::Rmw { old, f } => apply_rmw(filled.data, off, old, *f),
            LineOp::Read(buf) => buf.copy_from_slice(&filled.data[off..off + buf.len()]),
        }
        if let Some(l1) = l1d.filter(|l1| l1.peek(line).is_none()) {
            // L1 victim needs no writeback (write-through).
            l1.insert(line, fill_state, filled.data);
        }
        seq.end_write();
    }

    /// Traces directory leg `leg` of `tile`'s transaction on `line`.
    fn trace_leg(&self, tile: TileId, t: Cycles, leg: &'static str, line: u64) {
        let addr = line * self.line_size as u64;
        self.tracer.emit(tile, t, || TraceEventKind::DirLeg {
            leg,
            addr,
            home: self.home_of(line).0,
        });
    }

    /// Drops `sharer`'s copy of `line` for `tile`'s transaction and prices
    /// the invalidation leaving the home at `t`; returns when its ack is
    /// back at the home.
    fn invalidate(&self, tile: TileId, sharer: TileId, line: u64, t: Cycles, flow: u64) -> Cycles {
        self.stats.invalidations.incr_owned(tile.index());
        {
            let mut st = self.lock_tile(sharer);
            let seq = &self.tile_seq[sharer.index()];
            seq.begin_write();
            st.purge(line);
            seq.end_write();
        }
        self.classifier.on_departure(sharer, line, true);
        let home = self.home_of(line);
        let t_inv = self.route_derived_flow(home, sharer, CTRL_MSG_BYTES, t, flow);
        self.route_derived_flow(sharer, home, CTRL_MSG_BYTES, t_inv + Cycles(1), flow)
    }

    fn lock_tile(&self, t: TileId) -> MutexGuard<'_, TileMem> {
        let _hp = self.hostprof.span(HostStage::TileLockWait);
        self.tiles[t.index()].lock()
    }

    /// Releases a transaction's line, waking whoever waits for it.
    fn release(&self, claim: Claim<'_>) {
        let _hp = self.hostprof.span(HostStage::MshrProbe);
        drop(claim);
    }

    /// Evicts `vline` from `tile`'s hierarchy as its own directory
    /// transaction (writeback if dirty, sharer removal otherwise) to make
    /// room for `line`. Waits out any in-flight transaction on the victim
    /// line, then holds it for the duration as a service claim. Returns the
    /// line a fill of `line` would still evict, picked in the purge's
    /// critical section.
    fn evict_line(&self, tile: TileId, now: Cycles, vline: u64, line: u64) -> Option<u64> {
        let lane = tile.index();
        let claim = {
            let _hp = self.hostprof.span(HostStage::MshrProbe);
            self.dir.claim_service(vline)
        };
        let entry = claim.record;
        let (purged, next) = {
            let mut tm = self.lock_tile(tile);
            let seq = &self.tile_seq[lane];
            seq.begin_write();
            // A dirty victim's bytes go straight into the home copy.
            let purged = tm.purge(vline).map(|(state, data)| {
                if state == LineState::Modified {
                    entry.write_bytes(0, data);
                }
                state
            });
            seq.end_write();
            (purged, tm.coh().victim_for(line))
        };
        let Some(state) = purged else {
            self.release(claim); // invalidated while we waited
            return next;
        };
        self.classifier.on_departure(tile, vline, false);
        let home = self.home_of(vline);
        match state {
            LineState::Modified => {
                debug_assert_eq!(entry.state(), DirState::Owned(tile));
                entry.set_state(DirState::Uncached);
                self.stats.writebacks.incr_owned(lane);
                self.trace_leg(tile, now, "writeback", vline);
                // Writeback traffic: data to home, then a DRAM write. Off the
                // requester's critical path, but it loads the network links
                // and the controller queue.
                let _ = self.route(tile, home, self.line_size + DATA_HDR_BYTES, now);
                let est = self.network.progress().estimate();
                let _ = self.dram_access(home, est);
            }
            LineState::Exclusive => {
                // Clean sole copy: notify the directory, no data transfer.
                debug_assert_eq!(entry.state(), DirState::Owned(tile));
                entry.set_state(DirState::Uncached);
                let _ = self.route(tile, home, CTRL_MSG_BYTES, now);
            }
            LineState::Shared => {
                // Notify the directory so the sharer set stays exact.
                entry.sharers().remove(tile);
                if entry.sharers().is_empty() && entry.state() == DirState::Shared {
                    entry.set_state(DirState::Uncached);
                }
                let _ = self.route(tile, home, CTRL_MSG_BYTES, now);
            }
        }
        debug_assert!(entry.invariants_hold());
        self.release(claim);
        next
    }

    /// Atomically reads a little-endian `u32` at `addr` and replaces it with
    /// `f(old)`, holding the line with write permission for the whole
    /// operation — the simulated equivalent of a locked RMW instruction.
    /// Returns the previous value and the modeled cost (latency plus its
    /// network share, for CPI attribution).
    ///
    /// Used by the futex emulation and the guest synchronization primitives.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a cache-line boundary.
    pub fn fetch_update_u32<F>(
        &self,
        tile: TileId,
        now: Cycles,
        addr: Addr,
        mut f: F,
    ) -> (u32, MemCost)
    where
        F: FnMut(u32) -> u32,
    {
        let (old, cost) =
            self.fetch_update_le(tile, now, addr, |w| f(u32::from_le_bytes(w)).to_le_bytes());
        (u32::from_le_bytes(old), cost)
    }

    /// 64-bit variant of [`MemorySystem::fetch_update_u32`].
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a cache-line boundary.
    pub fn fetch_update_u64<F>(
        &self,
        tile: TileId,
        now: Cycles,
        addr: Addr,
        mut f: F,
    ) -> (u64, MemCost)
    where
        F: FnMut(u64) -> u64,
    {
        let (old, cost) =
            self.fetch_update_le(tile, now, addr, |w| f(u64::from_le_bytes(w)).to_le_bytes());
        (u64::from_le_bytes(old), cost)
    }

    /// The body of the `fetch_update_*` family: an atomic read-modify-write
    /// of the `N` little-endian bytes at `addr`.
    fn fetch_update_le<const N: usize>(
        &self,
        tile: TileId,
        now: Cycles,
        addr: Addr,
        mut f: impl FnMut([u8; N]) -> [u8; N],
    ) -> ([u8; N], MemCost) {
        assert!(
            (addr.0 & self.line_mask) as usize + N <= self.line_size as usize,
            "atomic access must not cross a line boundary"
        );
        let mut old = [0u8; N];
        let mut apply = |window: &mut [u8]| {
            let new = f(window.try_into().expect("an N-byte window"));
            window.copy_from_slice(&new);
        };
        let cost = self.access_line(tile, now, addr, LineOp::Rmw { old: &mut old, f: &mut apply });
        (old, cost)
    }

    /// Functional read bypassing all timing (used by the MCP for syscall
    /// emulation and by tests). Returns zeros for untouched memory.
    pub fn peek_bytes(&self, addr: Addr, buf: &mut [u8]) {
        for (a, r) in self.segments(addr, buf.len()) {
            let (line, off) = (a.line(self.line_size), (a.0 & self.line_mask) as usize);
            let dst = &mut buf[r];
            // Wait out any in-flight transaction on this line, then hold it
            // so the owner/home copy cannot move mid-read.
            match self.dir.claim_existing(line) {
                None => dst.fill(0),
                Some(claim) => match claim.record.state() {
                    DirState::Owned(owner) => {
                        let ot = self.lock_tile(owner);
                        let (_, data) = ot.coh().peek(line).expect("owner holds line");
                        dst.copy_from_slice(&data[off..off + dst.len()]);
                    }
                    _ => claim.record.read_bytes(off, dst),
                },
            }
        }
    }

    /// Functional write bypassing all timing; keeps every cached copy
    /// coherent by updating sharers in place.
    pub fn poke_bytes(&self, addr: Addr, bytes: &[u8]) {
        for (a, r) in self.segments(addr, bytes.len()) {
            let (line, off) = (a.line(self.line_size), (a.0 & self.line_mask) as usize);
            // Hold the line so no transaction moves copies around while we
            // patch every cached copy in place.
            let claim = self.dir.claim_service(line);
            let entry = claim.record;
            let src = &bytes[r];
            // The home copy stays current even under an owner: an Exclusive
            // owner evicts silently without a writeback.
            entry.write_bytes(off, src);
            let patch = |t: TileId| {
                let mut tm = self.lock_tile(t);
                let seq = &self.tile_seq[t.index()];
                seq.begin_write();
                let held = tm.poke(line, off, src);
                seq.end_write();
                debug_assert!(held, "directory lists tile{} for line {line}", t.0);
            };
            match entry.state() {
                DirState::Owned(owner) => patch(owner),
                DirState::Shared => entry.sharers().iter().for_each(patch),
                DirState::Uncached => {}
            }
        }
    }

    /// Walks every directory entry and checks that directory state and cache
    /// contents agree exactly (the MSI invariant set). Intended for tests
    /// while the system is quiescent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify_coherence_invariants(&self) -> Result<(), String> {
        for (line, entry) in self.dir.sorted() {
            if !entry.invariants_hold() {
                return Err(format!("line {line}: directory invariants violated"));
            }
            let state = entry.state();
            for t in (0..self.num_tiles).map(TileId) {
                let held = self.tiles[t.index()].lock().coh().peek(line).map(|(s, _)| s);
                let ok = match state {
                    DirState::Owned(owner) if t == owner => match self.protocol {
                        CacheProtocol::Msi => held == Some(LineState::Modified),
                        CacheProtocol::Mesi => {
                            matches!(held, Some(LineState::Modified | LineState::Exclusive))
                        }
                    },
                    DirState::Shared if entry.sharers().contains(t) => {
                        held == Some(LineState::Shared)
                    }
                    _ => held.is_none(),
                };
                if !ok {
                    return Err(format!("line {line}: {t:?} holds {held:?} while {state:?}"));
                }
            }
        }
        Ok(())
    }

    /// Test/bench helper: performs `n` random single-word accesses from one
    /// tile and returns total latency. Exercises the full protocol.
    pub fn random_access_storm(&self, tile: TileId, seed: u64, span: u64, n: u64) -> Cycles {
        let mut rng = SimRng::new(seed);
        let mut now = Cycles::ZERO;
        let mut buf = [0u8; 8];
        for _ in 0..n {
            let addr = Addr(rng.gen_range(span) & !7);
            if rng.gen_bool(0.3) {
                now += self.write(tile, now, addr, &buf);
            } else {
                now += self.read(tile, now, addr, &mut buf);
            }
        }
        now
    }
}

/// Checkpointing the memory subsystem captures everything the functional
/// simulation depends on — every cache array (tags, MSI/MESI state, LRU
/// stamps, and the application's real bytes), every directory entry (the DRAM
/// home copies), the DRAM controller queue clocks, and the miss-classifier
/// history — so that a restored simulation observes identical contents *and*
/// identical timing.
///
/// The system must be quiescent (no in-flight transactions) during both save
/// and restore; the core orchestrator guarantees this, and debug builds
/// check that no line is claimed. A failed restore may
/// leave the system partially overwritten — callers discard the instance on
/// error.
impl Checkpointable for MemorySystem {
    fn segment_name(&self) -> &'static str {
        "mem"
    }

    fn save(&self, out: &mut Enc) {
        debug_assert_eq!(self.dir.in_flight(), 0, "checkpoint save during a transaction");
        out.u32(self.line_size);
        out.u32(self.num_tiles);
        for tile in &self.tiles {
            let tm = tile.lock();
            for cache in [&tm.l1i, &tm.l1d, &tm.l2] {
                match cache {
                    Some(c) => {
                        out.u8(1);
                        c.save(out);
                    }
                    None => out.u8(0),
                }
            }
        }
        // The directory serializes as ONE globally line-sorted stream so the
        // bytes are independent of the shard count, the shard hash and
        // HashMap iteration order: identical states always serialize to
        // identical bytes.
        out.u32(self.dir.lines());
        let mut data = vec![0u8; self.line_size as usize];
        for (line, e) in self.dir.sorted() {
            out.u64(line);
            match e.state() {
                DirState::Uncached => out.u8(0),
                DirState::Shared => out.u8(1),
                DirState::Owned(t) => {
                    out.u8(2);
                    out.u32(t.0);
                }
            }
            out.u32(e.sharers().count());
            for s in e.sharers().iter() {
                out.u32(s.0);
            }
            e.read_bytes(0, &mut data);
            out.bytes(&data);
        }
        out.u32(self.dram.len() as u32);
        for c in &self.dram {
            for w in c.export_state() {
                out.u64(w);
            }
        }
        self.classifier.save(out);
    }

    fn restore(&self, dec: &mut Dec<'_>) -> Result<(), SimError> {
        debug_assert_eq!(self.dir.in_flight(), 0, "checkpoint restore during a transaction");
        let bad = || corrupted("mem");
        if dec.u32()? != self.line_size || dec.u32()? != self.num_tiles {
            return Err(bad());
        }
        for tile in &self.tiles {
            let mut tm = tile.lock();
            let tm = &mut *tm;
            for cache in [&mut tm.l1i, &mut tm.l1d, &mut tm.l2] {
                let present = dec.u8()? != 0;
                match (present, cache.as_mut()) {
                    (true, Some(c)) => c.restore(dec)?,
                    (false, None) => {}
                    _ => return Err(bad()),
                }
            }
        }
        // The directory stream is one strictly line-ordered sequence (see
        // `save`), redistributed across the shards. The system is quiescent,
        // so nobody holds a record the reset voids.
        let n = dec.u32()?;
        self.dir.reset();
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let line = dec.u64()?;
            if prev.is_some_and(|p| p >= line) {
                return Err(bad()); // not strictly increasing
            }
            prev = Some(line);
            let state = match dec.u8()? {
                0 => DirState::Uncached,
                1 => DirState::Shared,
                2 => {
                    let t = dec.u32()?;
                    if t >= self.num_tiles {
                        return Err(bad());
                    }
                    DirState::Owned(TileId(t))
                }
                _ => return Err(bad()),
            };
            let entry = self.dir.insert(line);
            entry.set_state(state);
            let ns = dec.u32()?;
            for _ in 0..ns {
                let t = dec.u32()?;
                if t >= self.num_tiles || !entry.sharers().insert(TileId(t)) {
                    return Err(bad());
                }
            }
            let data = dec.bytes()?;
            if data.len() != self.line_size as usize || !entry.invariants_hold() {
                return Err(bad());
            }
            entry.write_bytes(0, data);
        }
        if dec.u32()? as usize != self.dram.len() {
            return Err(bad());
        }
        for c in &self.dram {
            c.import_state([dec.u64()?, dec.u64()?, dec.u64()?]);
        }
        self.classifier.restore(dec)?;
        // Caches and directory were restored independently; check they agree
        // before letting the protocol run against them.
        self.verify_coherence_invariants().map_err(|_| bad())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_base::GlobalProgress;
    use graphite_config::presets;

    fn system(tiles: u32) -> MemorySystem {
        let cfg = presets::paper_default(tiles);
        let net = Arc::new(Network::new(&cfg, Arc::new(GlobalProgress::new(tiles as usize))));
        MemorySystem::new(&cfg, net, false)
    }

    fn system_with(cfg: &SimConfig, classify: bool) -> MemorySystem {
        let net = Arc::new(Network::new(
            cfg,
            Arc::new(GlobalProgress::new(cfg.target.num_tiles as usize)),
        ));
        MemorySystem::new(cfg, net, classify)
    }

    /// Two *different* tiles racing on one line: each needs its own copy, so
    /// per line there are exactly two misses — the MSHR serializes the
    /// transactions but must not lose or duplicate either.
    #[test]
    fn cross_tile_races_keep_exact_miss_counts() {
        use std::sync::Barrier;
        let cfg = presets::paper_default(4);
        let m = Arc::new(system_with(&cfg, true));
        const LINES: u64 = 300;
        let barrier = Arc::new(Barrier::new(2));
        let threads: Vec<_> = (0..2u32)
            .map(|t| {
                let (m, barrier) = (Arc::clone(&m), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    let mut buf = [0u8; 8];
                    let mut now = Cycles::ZERO;
                    for l in 0..LINES {
                        barrier.wait();
                        now += m.read(TileId(t), now, Addr(l * 64), &mut buf);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = m.stats();
        assert_eq!(s.misses.get(), 2 * LINES, "each tile fills its own copy exactly once");
        let classified = s.miss_cold.get()
            + s.miss_capacity.get()
            + s.miss_true_sharing.get()
            + s.miss_false_sharing.get();
        assert_eq!(classified, s.misses.get());
        // Racing first touches of one line resolve to one directory record.
        assert_eq!(u64::from(m.dir.lines()), LINES, "one record per line");
        m.verify_coherence_invariants().unwrap();
    }

    #[test]
    fn write_then_read_same_tile() {
        let m = system(4);
        let lat_w = m.write(TileId(0), Cycles(0), Addr(0x100), &7u64.to_le_bytes());
        assert!(lat_w > Cycles::ZERO);
        let mut buf = [0u8; 8];
        let lat_r = m.read(TileId(0), Cycles(lat_w.0), Addr(0x100), &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 7);
        // Second access is an L1 hit: 1 cycle.
        assert_eq!(lat_r, Cycles(1));
        m.verify_coherence_invariants().unwrap();
    }

    #[test]
    fn cross_tile_read_sees_write() {
        let m = system(4);
        m.write(TileId(0), Cycles(0), Addr(0x40), &0xDEADu64.to_le_bytes());
        let mut buf = [0u8; 8];
        m.read(TileId(3), Cycles(0), Addr(0x40), &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 0xDEAD);
        // Reader pulled the line out of the writer's cache.
        assert_eq!(m.stats().remote_fills.get(), 1);
        m.verify_coherence_invariants().unwrap();
    }

    #[test]
    fn write_invalidates_readers() {
        let m = system(4);
        let a = Addr(0x80);
        m.write(TileId(0), Cycles(0), a, &1u64.to_le_bytes());
        let mut buf = [0u8; 8];
        for t in 1..4 {
            m.read(TileId(t), Cycles(0), a, &mut buf);
        }
        // Now tile 1 writes: tiles 0, 2, 3 must be invalidated.
        let inv_before = m.stats().invalidations.get();
        m.write(TileId(1), Cycles(0), a, &2u64.to_le_bytes());
        assert_eq!(m.stats().invalidations.get() - inv_before, 3);
        m.read(TileId(2), Cycles(0), a, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 2);
        m.verify_coherence_invariants().unwrap();
    }

    #[test]
    fn upgrade_from_shared_has_no_data_transfer() {
        let m = system(4);
        let a = Addr(0xC0);
        let mut buf = [0u8; 8];
        m.read(TileId(0), Cycles(0), a, &mut buf); // S in tile0
        let misses_before = m.stats().misses.get();
        m.write(TileId(0), Cycles(0), a, &5u64.to_le_bytes()); // upgrade
        assert_eq!(m.stats().upgrades.get(), 1);
        assert_eq!(m.stats().misses.get(), misses_before, "upgrade is not a miss");
        m.verify_coherence_invariants().unwrap();
    }

    #[test]
    fn eviction_writes_back_dirty_data() {
        // Tiny L2-only cache: 4 lines, direct-ish (assoc 2), to force
        // evictions quickly.
        let mut cfg = presets::paper_default(2);
        cfg.target.l1i = None;
        cfg.target.l1d = None;
        cfg.target.l2 = Some(graphite_config::CacheConfig {
            size_bytes: 256,
            associativity: 2,
            line_size: 64,
            access_latency: Cycles(2),
        });
        let m = system_with(&cfg, false);
        // Write 8 distinct lines mapping over 2 sets; victims must write back.
        for i in 0..8u64 {
            m.write(TileId(0), Cycles(0), Addr(i * 64), &i.to_le_bytes());
        }
        assert!(m.stats().writebacks.get() >= 4);
        // All values still readable (from DRAM after writeback).
        let mut buf = [0u8; 8];
        for i in 0..8u64 {
            m.read(TileId(0), Cycles(0), Addr(i * 64), &mut buf);
            assert_eq!(u64::from_le_bytes(buf), i, "line {i} lost after eviction");
        }
        m.verify_coherence_invariants().unwrap();
    }

    #[test]
    fn cross_line_access_is_split() {
        let m = system(2);
        // 16 bytes starting 8 before a line boundary.
        let addr = Addr(64 - 8);
        let data: Vec<u8> = (0..16).collect();
        m.write(TileId(0), Cycles(0), addr, &data);
        let mut buf = [0u8; 16];
        m.read(TileId(1), Cycles(0), addr, &mut buf);
        assert_eq!(&buf[..], &data[..]);
        // Two line segments => two stores recorded.
        assert_eq!(m.stats().stores.get(), 2);
    }

    #[test]
    fn peek_poke_bypass_timing_but_stay_coherent() {
        let m = system(4);
        // Poke untouched memory, then read through the cache path.
        m.poke_bytes(Addr(0x200), &9u64.to_le_bytes());
        let mut buf = [0u8; 8];
        let loads_before = m.stats().loads.get();
        m.peek_bytes(Addr(0x200), &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 9);
        assert_eq!(m.stats().loads.get(), loads_before, "peek is not a modeled access");
        m.read(TileId(0), Cycles(0), Addr(0x200), &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 9);
        // Now the line is Modified-in-cache after a write; poke must update
        // the cached copy, and peek must read it.
        m.write(TileId(0), Cycles(0), Addr(0x200), &10u64.to_le_bytes());
        m.poke_bytes(Addr(0x200), &11u64.to_le_bytes());
        m.peek_bytes(Addr(0x200), &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 11);
        m.read(TileId(0), Cycles(0), Addr(0x200), &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 11);
        // Shared case: another tile reads, then poke updates both copies.
        m.read(TileId(1), Cycles(0), Addr(0x200), &mut buf);
        m.poke_bytes(Addr(0x200), &12u64.to_le_bytes());
        m.read(TileId(1), Cycles(0), Addr(0x200), &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 12);
        m.verify_coherence_invariants().unwrap();
    }

    /// Four tiles storm 8 lines through a 4-line L2 (so misses and evictions
    /// run all the time) while a fifth thread pokes tagged words and peeks
    /// whole lines back. Every word anyone reads must be zero or a whole
    /// word some thread wrote.
    fn peek_poke_race_misses_and_evictions(protocol: CacheProtocol) {
        const LINES: u64 = 8;
        const POKER: u64 = 0xFF;
        // Tag in the top byte, the sequence number twice below it: a word
        // torn between two writes fails `valid`.
        fn word(tag: u64, i: u64) -> u64 {
            tag << 56 | i << 28 | i
        }
        fn valid(w: u64) -> bool {
            let (tag, i) = (w >> 56, w & 0x0FFF_FFFF);
            w == 0 || ((1..=4).contains(&tag) || tag == POKER) && w == word(tag, i)
        }
        let mut cfg = presets::paper_default(4);
        cfg.target.protocol = protocol;
        cfg.target.l1i = None;
        cfg.target.l1d = None;
        cfg.target.l2 = Some(graphite_config::CacheConfig {
            size_bytes: 256,
            associativity: 2,
            line_size: 64,
            access_latency: Cycles(2),
        });
        let m = Arc::new(system_with(&cfg, false));
        let tiles: Vec<_> = (0..4u32)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    let mut rng = SimRng::new(u64::from(t) + 11);
                    let mut now = Cycles::ZERO;
                    for i in 0..20_000 {
                        let addr = Addr(rng.gen_range(LINES * 64) & !7);
                        if rng.gen_bool(0.5) {
                            let w = word(u64::from(t) + 1, i);
                            now += m.write(TileId(t), now, addr, &w.to_le_bytes());
                        } else {
                            let mut buf = [0u8; 8];
                            now += m.read(TileId(t), now, addr, &mut buf);
                            let w = u64::from_le_bytes(buf);
                            assert!(valid(w), "tile {t} read {w:#x} at {addr:?}");
                        }
                    }
                })
            })
            .collect();
        let mut rng = SimRng::new(5);
        for i in 0..10_000 {
            let line = rng.gen_range(LINES);
            let addr = Addr(line * 64 + (rng.gen_range(64) & !7));
            m.poke_bytes(addr, &word(POKER, i).to_le_bytes());
            let mut bytes = [0u8; 64];
            m.peek_bytes(Addr(line * 64), &mut bytes);
            for w in bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())) {
                assert!(valid(w), "peek read {w:#x} in line {line}");
            }
        }
        for t in tiles {
            t.join().unwrap();
        }
        assert!(m.stats().writebacks.get() > 0, "the storm evicted nothing");
        m.verify_coherence_invariants().unwrap();
    }

    #[test]
    fn peek_poke_race_misses_and_evictions_msi() {
        peek_poke_race_misses_and_evictions(CacheProtocol::Msi);
    }

    #[test]
    fn peek_poke_race_misses_and_evictions_mesi() {
        peek_poke_race_misses_and_evictions(CacheProtocol::Mesi);
    }

    #[test]
    fn remote_miss_is_slower_than_local_hit() {
        let m = system(16);
        let a = Addr(0x1000);
        m.write(TileId(0), Cycles(0), a, &1u64.to_le_bytes());
        let mut buf = [0u8; 8];
        let remote = m.read(TileId(15), Cycles(0), a, &mut buf);
        let local = m.read(TileId(15), Cycles(0), a, &mut buf);
        assert!(remote.0 > local.0 * 5);
        assert!(remote.0 > 50, "remote fill should cost network + dir + dram: {remote}");
        assert_eq!(local, Cycles(1));
    }

    #[test]
    fn dirnb_forces_sharer_eviction() {
        let mut cfg = presets::paper_default(8);
        cfg.target.coherence = CoherenceScheme::DirNB { sharers: 2 };
        let m = system_with(&cfg, false);
        let a = Addr(0x40);
        let mut buf = [0u8; 8];
        for t in 0..4 {
            m.read(TileId(t), Cycles(0), a, &mut buf);
        }
        // Sharers capped at 2: reads 3 and 4 each forced an eviction.
        assert_eq!(m.stats().forced_evictions.get(), 2);
        m.verify_coherence_invariants().unwrap();
    }

    #[test]
    fn full_map_never_forces_evictions() {
        let m = system(32);
        let a = Addr(0x40);
        let mut buf = [0u8; 8];
        for t in 0..32 {
            m.read(TileId(t), Cycles(0), a, &mut buf);
        }
        assert_eq!(m.stats().forced_evictions.get(), 0);
        m.verify_coherence_invariants().unwrap();
    }

    #[test]
    fn limitless_traps_beyond_hw_pointers() {
        let mut cfg = presets::paper_default(8);
        cfg.target.coherence = CoherenceScheme::Limitless { sharers: 2, trap_cycles: 100 };
        let m = system_with(&cfg, false);
        let a = Addr(0x40);
        let mut buf = [0u8; 8];
        let mut lat_under = Cycles::ZERO;
        let mut lat_over = Cycles::ZERO;
        for t in 0..6 {
            let l = m.read(TileId(t), Cycles(0), a, &mut buf);
            if t < 2 {
                lat_under = l;
            } else {
                lat_over = l;
            }
        }
        assert_eq!(m.stats().limitless_traps.get(), 4, "reads 3..6 overflow 2 pointers");
        assert!(lat_over > lat_under, "trap adds latency");
        assert_eq!(m.stats().forced_evictions.get(), 0, "LimitLESS keeps all sharers");
        m.verify_coherence_invariants().unwrap();
    }

    #[test]
    fn miss_classification_end_to_end() {
        let cfg = presets::fig8_miss_characterization(2, 64);
        let m = system_with(&cfg, true);
        let a = Addr(0x40);
        let mut buf = [0u8; 8];
        m.read(TileId(0), Cycles(0), a, &mut buf); // cold
        m.write(TileId(1), Cycles(0), a, &1u64.to_le_bytes()); // cold (t1) + invalidate t0
        m.read(TileId(0), Cycles(0), a, &mut buf); // true sharing: word 0 written
        m.write(TileId(1), Cycles(0), Addr(0x40 + 32), &2u64.to_le_bytes()); // upgrade? no: t1 lost it.. it was invalidated? no: t1 had M, t0's read downgraded to S; so this is an upgrade writing word 8
        m.read(TileId(0), Cycles(0), a, &mut buf); // invalidated again; accessed word 0, written word 8 -> false sharing
        assert_eq!(m.stats().miss_cold.get(), 2);
        assert_eq!(m.stats().miss_true_sharing.get(), 1);
        assert_eq!(m.stats().miss_false_sharing.get(), 1);
    }

    #[test]
    fn ifetch_hits_after_first_access() {
        let m = system(2);
        let a = Addr(0x4000);
        let miss = m.ifetch(TileId(0), Cycles(0), a);
        let hit = m.ifetch(TileId(0), Cycles(0), a);
        assert!(miss > hit);
        assert_eq!(m.stats().ifetches.get(), 2);
        assert_eq!(m.stats().ifetch_misses.get(), 1);
    }

    #[test]
    fn concurrent_hammering_stays_coherent() {
        let m = Arc::new(system(8));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    // All tiles fight over 32 lines.
                    m.random_access_storm(TileId(t), t as u64 + 1, 32 * 64, 2_000);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        m.verify_coherence_invariants().unwrap();
        assert_eq!(m.stats().accesses(), 8 * 2_000);
    }

    #[test]
    fn sequential_consistency_single_location() {
        // Two tiles increment a shared counter with a crude retry loop; the
        // final value must reflect all increments when accesses are serial.
        let m = system(2);
        let a = Addr(0x800);
        let mut buf = [0u8; 8];
        for i in 0..100u64 {
            let t = TileId((i % 2) as u32);
            m.read(t, Cycles(0), a, &mut buf);
            let v = u64::from_le_bytes(buf) + 1;
            m.write(t, Cycles(0), a, &v.to_le_bytes());
        }
        m.read(TileId(0), Cycles(0), a, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 100);
    }

    #[test]
    fn l2_only_hierarchy_works() {
        let cfg = presets::fig8_miss_characterization(4, 64);
        let m = system_with(&cfg, false);
        m.write(TileId(0), Cycles(0), Addr(0), &3u64.to_le_bytes());
        let mut buf = [0u8; 8];
        m.read(TileId(3), Cycles(0), Addr(0), &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 3);
        assert_eq!(m.stats().l1d_hits.get(), 0, "no L1 exists");
        m.verify_coherence_invariants().unwrap();
    }

    #[test]
    fn fetch_update_is_atomic_across_tiles() {
        let m = Arc::new(system(4));
        let a = Addr(0x400);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        m.fetch_update_u32(TileId(t), Cycles(0), a, |v| v + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut buf = [0u8; 4];
        m.peek_bytes(a, &mut buf);
        assert_eq!(u32::from_le_bytes(buf), 4_000, "increments must not be lost");
        m.verify_coherence_invariants().unwrap();
    }

    #[test]
    fn fetch_update_returns_old_value_and_latency() {
        let m = system(2);
        let a = Addr(0x80);
        m.write(TileId(0), Cycles(0), a, &7u32.to_le_bytes());
        let (old, cost) = m.fetch_update_u32(TileId(0), Cycles(0), a, |v| v * 2);
        assert_eq!(old, 7);
        assert_eq!(cost.latency, Cycles(1), "local Modified hit");
        let mut buf = [0u8; 4];
        m.peek_bytes(a, &mut buf);
        assert_eq!(u32::from_le_bytes(buf), 14);
    }

    #[test]
    #[should_panic(expected = "cross a line boundary")]
    fn fetch_update_rejects_straddling_access() {
        let m = system(2);
        m.fetch_update_u32(TileId(0), Cycles(0), Addr(62), |v| v);
    }

    #[test]
    fn neighbouring_tiles_share_no_hot_block() {
        for tiles in [4u32, 130] {
            let m = system(tiles);
            graphite_base::padded::assert_tiles_isolated((0..tiles).flat_map(|t| {
                let words = m.hot_addrs(TileId(t)).into_iter();
                let counters = &m.per_tile;
                words
                    .chain([
                        ("mem.tile.accesses", counters.accesses.lane_addr(t as usize)),
                        ("mem.tile.latency_sum", counters.latency_sum.lane_addr(t as usize)),
                    ])
                    .map(move |(label, addr)| (t as usize, label, addr))
            }));
        }
    }

    #[test]
    fn link_lanes_share_no_block_with_per_op_counters() {
        // Link lanes are indexed by packet source but written by the
        // requester's thread on derived legs: they must live in `net` pages,
        // away from the `mem.*` slots a tile's own accesses write.
        use graphite_base::padded::PAD_BYTES;
        let tiles = 16u32;
        let cfg = presets::paper_default(tiles);
        let obs = Obs::detached(tiles as usize);
        let net = Arc::new(Network::with_obs(&cfg, Arc::new(GlobalProgress::new(16)), &obs));
        let m = MemorySystem::with_obs(&cfg, net, false, &obs);
        let mut buf = [0u8; 8];
        for t in 0..tiles {
            for home in 0..tiles {
                let line = u64::from(home) + u64::from(tiles) * (1 + u64::from(t));
                m.read(TileId(t), Cycles(0), Addr(line * 64), &mut buf);
            }
        }
        for t in 0..tiles as usize {
            let slots = obs.metrics.per_tile_slot_addrs(t);
            assert!(slots.iter().any(|(n, _)| n.starts_with("net.link.")), "links registered");
            let blocks = |prefix: &str| -> std::collections::BTreeSet<usize> {
                let of_prefix = slots.iter().filter(|(n, _)| n.starts_with(prefix));
                of_prefix.map(|(_, a)| a / PAD_BYTES).collect()
            };
            assert!(blocks("net.").is_disjoint(&blocks("mem.")), "tile {t}");
        }
    }

    #[test]
    fn per_tile_counters_track_requesters() {
        let m = system(4);
        let mut buf = [0u8; 8];
        // Tile 1 makes two accesses; one is a miss (directory transaction).
        m.read(TileId(1), Cycles(0), Addr(0x40), &mut buf);
        m.read(TileId(1), Cycles(0), Addr(0x40), &mut buf);
        let pt = &m.per_tile;
        assert_eq!(pt.accesses.lane_get(1), 2);
        assert_eq!(pt.transactions.lane_get(1), 1);
        assert_eq!(pt.accesses.lane_get(0), 0);
    }

    #[test]
    fn mesi_grants_exclusive_and_upgrades_silently() {
        let mut cfg = presets::paper_default(4);
        cfg.target.protocol = CacheProtocol::Mesi;
        let m = system_with(&cfg, false);
        let a = Addr(0x40);
        let mut buf = [0u8; 8];
        // Sole reader takes the line Exclusive...
        m.read(TileId(0), Cycles(0), a, &mut buf);
        assert_eq!(m.stats().exclusive_grants.get(), 1);
        // ...and writes it without any directory transaction.
        let miss_before = m.stats().misses.get();
        let upgr_before = m.stats().upgrades.get();
        m.write(TileId(0), Cycles(0), a, &1u64.to_le_bytes());
        assert_eq!(m.stats().misses.get(), miss_before);
        assert_eq!(m.stats().upgrades.get(), upgr_before, "no upgrade transaction");
        assert_eq!(m.stats().silent_upgrades.get(), 1);
        m.verify_coherence_invariants().unwrap();
    }

    #[test]
    fn mesi_second_reader_downgrades_exclusive() {
        let mut cfg = presets::paper_default(4);
        cfg.target.protocol = CacheProtocol::Mesi;
        let m = system_with(&cfg, false);
        let a = Addr(0x40);
        let mut buf = [0u8; 8];
        m.read(TileId(0), Cycles(0), a, &mut buf); // E at tile0
        m.read(TileId(1), Cycles(0), a, &mut buf); // downgrade both to S
        m.verify_coherence_invariants().unwrap();
        // A write by tile0 is now an upgrade transaction, not silent.
        m.write(TileId(0), Cycles(0), a, &2u64.to_le_bytes());
        assert_eq!(m.stats().upgrades.get(), 1);
        assert_eq!(m.stats().silent_upgrades.get(), 0);
        m.read(TileId(1), Cycles(0), a, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 2);
    }

    #[test]
    fn mesi_clean_exclusive_eviction_needs_no_writeback() {
        let mut cfg = presets::paper_default(2);
        cfg.target.protocol = CacheProtocol::Mesi;
        cfg.target.l1i = None;
        cfg.target.l1d = None;
        cfg.target.l2 = Some(graphite_config::CacheConfig {
            size_bytes: 256,
            associativity: 2,
            line_size: 64,
            access_latency: Cycles(2),
        });
        let m = system_with(&cfg, false);
        let mut buf = [0u8; 8];
        // Read 8 distinct lines (clean, Exclusive): evictions must not
        // count as writebacks.
        for i in 0..8u64 {
            m.read(TileId(0), Cycles(0), Addr(i * 64), &mut buf);
        }
        assert_eq!(m.stats().writebacks.get(), 0, "clean E evictions are silent");
        m.verify_coherence_invariants().unwrap();
    }

    #[test]
    fn mesi_concurrent_storm_stays_coherent() {
        let mut cfg = presets::paper_default(4);
        cfg.target.protocol = CacheProtocol::Mesi;
        let m = Arc::new(system_with(&cfg, false));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    m.random_access_storm(TileId(t), t as u64 + 3, 32 * 64, 2_000);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        m.verify_coherence_invariants().unwrap();
    }

    #[test]
    fn msi_never_grants_exclusive() {
        let m = system(4);
        let mut buf = [0u8; 8];
        m.read(TileId(0), Cycles(0), Addr(0x40), &mut buf);
        assert_eq!(m.stats().exclusive_grants.get(), 0);
        m.write(TileId(0), Cycles(0), Addr(0x40), &1u64.to_le_bytes());
        assert_eq!(m.stats().silent_upgrades.get(), 0);
        assert_eq!(m.stats().upgrades.get(), 1, "MSI pays the upgrade");
    }

    #[test]
    fn checkpoint_roundtrip_is_byte_identical() {
        let m = system(4);
        // Deterministic single-threaded storm touching all protocol states.
        for t in 0..4 {
            m.random_access_storm(TileId(t), t as u64 + 1, 32 * 64, 500);
        }
        let mut enc = Enc::new();
        m.save(&mut enc);
        let buf = enc.finish();

        let fresh = system(4);
        fresh.restore(&mut Dec::new(&buf)).unwrap();
        fresh.verify_coherence_invariants().unwrap();
        // Functional contents identical.
        for line in 0..32u64 {
            let (mut b1, mut b2) = ([0u8; 64], [0u8; 64]);
            m.peek_bytes(Addr(line * 64), &mut b1);
            fresh.peek_bytes(Addr(line * 64), &mut b2);
            assert_eq!(b1, b2, "line {line} differs after restore");
        }
        // Re-saving the restored system reproduces the checkpoint exactly:
        // cache tags, LRU stamps, directory entries and DRAM queue clocks
        // all survived the round trip.
        let mut enc2 = Enc::new();
        fresh.save(&mut enc2);
        assert_eq!(buf, enc2.finish(), "re-saved checkpoint differs");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "checkpoint save during a transaction")]
    fn checkpoint_save_while_a_line_is_claimed_panics() {
        let m = system(4);
        let _claim = m.dir.claim_service(7);
        m.save(&mut Enc::new());
    }

    #[test]
    fn checkpoint_roundtrip_carries_classifier_history() {
        let cfg = presets::fig8_miss_characterization(2, 64);
        let m = system_with(&cfg, true);
        let a = Addr(0x40);
        let mut buf8 = [0u8; 8];
        m.read(TileId(0), Cycles(0), a, &mut buf8);
        m.write(TileId(1), Cycles(0), a, &1u64.to_le_bytes());
        let mut enc = Enc::new();
        m.save(&mut enc);
        let bytes = enc.finish();

        let fresh = system_with(&cfg, true);
        fresh.restore(&mut Dec::new(&bytes)).unwrap();
        // Tile 0 was invalidated by tile 1's write of word 0; its re-read of
        // word 0 must classify as true sharing in BOTH systems.
        m.read(TileId(0), Cycles(0), a, &mut buf8);
        fresh.read(TileId(0), Cycles(0), a, &mut buf8);
        assert_eq!(m.stats().miss_true_sharing.get(), 1);
        assert_eq!(fresh.stats().miss_true_sharing.get(), 1);
    }

    #[test]
    fn restore_rejects_mismatch_and_truncation() {
        let m = system(4);
        m.random_access_storm(TileId(0), 7, 16 * 64, 100);
        let mut enc = Enc::new();
        m.save(&mut enc);
        let buf = enc.finish();
        // Wrong tile count is a typed corruption, not a panic.
        let other = system(8);
        assert!(matches!(other.restore(&mut Dec::new(&buf)), Err(SimError::CkptCorrupted { .. })));
        // Truncation anywhere is a typed error.
        let fresh = system(4);
        assert!(fresh.restore(&mut Dec::new(&buf[..buf.len() / 2])).is_err());
        // The full payload still restores into another fresh instance.
        let fresh2 = system(4);
        fresh2.restore(&mut Dec::new(&buf)).unwrap();
    }

    #[test]
    fn stats_mean_latency_and_miss_rate() {
        let m = system(4);
        let mut buf = [0u8; 8];
        m.read(TileId(0), Cycles(0), Addr(0), &mut buf); // miss
        m.read(TileId(0), Cycles(0), Addr(0), &mut buf); // hit
        assert_eq!(m.stats().miss_rate(), 0.5);
        assert!(m.stats().mean_latency() > 1.0);
    }
}
