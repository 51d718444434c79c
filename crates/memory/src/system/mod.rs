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
//!   seqlock-validated probe ([`Cache::probe_read`]) that only the tile's own
//!   context runs. That context never runs alongside its own writes, so only
//!   another thread's write to the tile's caches opens a write section of
//!   the tile's [`SeqCount`]: a forward that purges the owner, an
//!   invalidation that purges a sharer, and `poke_bytes`. A cache's line
//!   storage never moves or shrinks while the cache lives, so a racing probe
//!   reads stale-but-allocated bytes that validation then rejects.
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

use std::sync::atomic::AtomicPtr;
use std::sync::Arc;

use graphite_base::{CachePadded, Cycles, HostProf, HostStage, SeqCount, TileId};
use graphite_config::{CacheProtocol, CoherenceScheme, SimConfig};
use graphite_network::{Network, Packet, TrafficClass};
use graphite_trace::{Gauge, MetricsRegistry, Obs, ShardedHistogram, ShardedMetric, Tracer};
use parking_lot::{Mutex, MutexGuard};

use crate::cache::{Cache, LineState};
use crate::directory::LineTable;
use crate::dram::DramController;
use crate::missclass::{MissClassifier, MissKind};

mod access;
mod ckpt;
mod miss;

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
    /// mutation of that tile's caches by another thread
    /// ([`MemorySystem::write_remote`]).
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
    /// writebacks); feeds the global-progress window. The leg is attributed
    /// to causal flow `flow` (0 = untracked).
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

    fn lock_tile(&self, t: TileId) -> MutexGuard<'_, TileMem> {
        let _hp = self.hostprof.span(HostStage::TileLockWait);
        self.tiles[t.index()].lock()
    }

    /// Runs `f` on another tile's hierarchy: under that tile's lock, inside a
    /// write section of its seqlock, so its context's lock-free probe rejects
    /// any copy the write overlaps. A tile's own writes need no section: its
    /// probe never runs alongside them.
    fn write_remote<R>(&self, t: TileId, f: impl FnOnce(&mut TileMem) -> R) -> R {
        let mut tm = self.lock_tile(t);
        let seq = &self.tile_seq[t.index()];
        seq.begin_write();
        let r = f(&mut tm);
        seq.end_write();
        r
    }
}

#[cfg(test)]
mod tests {
    use graphite_base::{GlobalProgress, SimError, SimRng};
    use graphite_ckpt::{Checkpointable, Dec, Enc};
    use graphite_config::presets;

    use super::*;
    use crate::addr::Addr;

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

    /// The probe's seqlock guards against other threads only: a tile's own
    /// accesses never open a write section on its counter, while another
    /// tile's write miss that takes one of its lines, and a poke of one it
    /// holds, each open one.
    #[test]
    fn only_another_threads_writes_move_a_tiles_seqlock() {
        let cache = |size_bytes, access_latency| graphite_config::CacheConfig {
            size_bytes,
            associativity: 2,
            line_size: 64,
            access_latency: Cycles(access_latency),
        };
        let mut cfg = presets::paper_default(2);
        // A 2-line L1D in front of a 4-line, 2-set L2: the fourth line a set
        // takes evicts.
        cfg.target.l1d = Some(cache(128, 1));
        cfg.target.l2 = Some(cache(256, 8));
        let m = system_with(&cfg, false);
        let seq = |t: usize| m.tile_seq[t].read_begin().expect("no write section is open");
        let (t0, t1) = (TileId(0), TileId(1));
        let at = |line: u64| Addr(line * 64);
        let mut buf = [0u8; 8];
        let before = seq(0);
        m.read(t0, Cycles(0), at(0), &mut buf); // miss
        m.read(t0, Cycles(0), at(0), &mut buf); // L1 read hit
        m.write(t0, Cycles(0), at(0), &1u64.to_le_bytes()); // upgrade
        m.write(t0, Cycles(0), at(0), &2u64.to_le_bytes()); // L1 write hit
        m.fetch_update_u64(t0, Cycles(0), at(0), |v| v + 1); // L1 RMW hit
        m.write(t0, Cycles(0), at(1), &3u64.to_le_bytes()); // miss
        m.write(t0, Cycles(0), at(3), &4u64.to_le_bytes()); // miss; L1 drops line 0
        m.read(t0, Cycles(0), at(0), &mut buf); // L2 read hit
        m.write(t0, Cycles(0), at(1), &5u64.to_le_bytes()); // L2 write hit
        m.write(t0, Cycles(0), at(5), &6u64.to_le_bytes()); // miss evicting a dirty line
        let s = m.stats();
        assert_eq!((s.upgrades.get(), s.writebacks.get()), (1, 1));
        assert_eq!((s.l1d_hits.get(), s.l2_hits.get()), (3, 2));
        assert_eq!(seq(0), before, "tile 0's own accesses opened a write section");
        m.read(t0, Cycles(0), at(4), &mut buf); // tile 0 shares line 4
        let before = seq(0);
        m.write(t1, Cycles(0), at(5), &7u64.to_le_bytes()); // purges the owner
        assert_eq!(seq(0), before + 2, "a forward that purges the owner");
        m.write(t1, Cycles(0), at(4), &8u64.to_le_bytes()); // invalidates a sharer
        assert_eq!(seq(0), before + 4, "an invalidation that purges a sharer");
        m.poke_bytes(at(0), &9u64.to_le_bytes());
        assert_eq!(seq(0), before + 6, "a poke of a held line");
        m.verify_coherence_invariants().unwrap();
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
