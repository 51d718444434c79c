//! Per-tile metrics registry.
//!
//! Subsystems register named counters and histograms once at construction and
//! then update them on hot paths with plain relaxed atomic operations — no
//! locks, no allocation, no name lookup. The registry keeps a shared handle to
//! every registered metric, so a [`MetricsSnapshot`] taken at any time reads
//! the very same atomics the subsystems increment. Reports built from the
//! registry therefore cannot drift from the exported `metrics.json`.
//!
//! Handles are cheap `Arc` clones. A [`Metric`] created via `Default` (or
//! [`Metric::new`]) is *detached*: fully functional but invisible to any
//! registry. That keeps stats structs usable in isolation (unit tests,
//! standalone subsystem construction) while production wiring goes through
//! [`MetricsRegistry::counter`] and friends.
//!
//! Per-tile storage follows the host layout rule (DESIGN §7.2): everything a
//! tile's thread counts per guest op — its [`ShardedMetric`] slab slots and
//! its [`ShardedHistogram`] lanes — sits in [`CachePadded`] blocks no other
//! tile writes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use graphite_base::{CachePadded, SimError};
use graphite_ckpt::{Dec, Enc};
use parking_lot::Mutex;

use crate::json;

/// A shared, lock-free `u64` counter.
///
/// Cloning a `Metric` shares the underlying cell — a clone held by the
/// registry observes every increment made through any other clone.
///
/// # Examples
///
/// ```
/// use graphite_trace::Metric;
/// let m = Metric::new();
/// let alias = m.clone();
/// m.add(3);
/// alias.incr();
/// assert_eq!(m.get(), 4);
/// ```
#[derive(Clone, Default, Debug)]
pub struct Metric(Arc<AtomicU64>);

impl Metric {
    /// Creates a detached counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Raises the value to `n` if `n` is larger (used for high-water marks).
    #[inline]
    pub fn observe_max(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// Returns the current value and resets to zero.
    pub fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// A shared, lock-free `u64` gauge: a level that moves both ways (queue
/// depth, in-flight slices), unlike the monotone [`Metric`].
///
/// Snapshots report gauges under `counters` — same namespace, same JSON
/// section — so registering one does not change the exported `metrics.json`
/// schema; the set-vs-accumulate semantic lives in the handle alone.
///
/// # Examples
///
/// ```
/// use graphite_trace::Gauge;
/// let g = Gauge::new();
/// g.set(7);
/// g.incr();
/// g.sub(3);
/// assert_eq!(g.get(), 5);
/// g.sub(100); // saturates at zero rather than wrapping
/// assert_eq!(g.get(), 0);
/// ```
#[derive(Clone, Default, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Creates a detached gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the level by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Lowers the level by one (saturating at zero).
    #[inline]
    pub fn decr(&self) {
        self.sub(1);
    }

    /// Raises the level by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers the level by `n`, saturating at zero — a racy decrement must
    /// never wrap a depth gauge to 2^64.
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(n)));
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// How a sharded metric's lanes combine into one reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneFold {
    /// Lanes are partial counts; the metric's value is their sum.
    Sum,
    /// Lanes are per-tile high-water marks; the value is their maximum.
    Max,
}

/// Families per slab page: one [`CachePadded`] block of counters per tile.
const SLAB_SLOTS: usize = 16;

/// One page of per-tile counter storage, tile-major: element `t` holds tile
/// `t`'s slot of each of up to [`SLAB_SLOTS`] families, so a tile's counters
/// share host lines with each other and with no other tile's.
type SlabPage = Arc<[CachePadded<[AtomicU64; SLAB_SLOTS]>]>;

fn slab_page(tiles: usize) -> SlabPage {
    (0..tiles.max(1)).map(|_| CachePadded::default()).collect()
}

/// A shared `u64` counter with one lane per tile: one slot of every tile's
/// block in a slab page.
///
/// Writers update *their own* lane (`incr`/`add`/`observe_max` take a lane
/// index, by convention the requesting tile), so concurrent tiles never touch
/// a shared-writable cache line. Readers fold the lanes at read time
/// ([`ShardedMetric::get`]), which is exact — relaxed per-lane loads of
/// values only ever written with relaxed RMWs — but O(lanes) instead of O(1).
/// The handle holds its page and slot inline, so an update costs no load
/// beyond the handle itself.
///
/// Out-of-range lane indices fold in modulo the lane count, so a detached
/// counter (`Default`, one lane) accepts any tile id and still sums
/// correctly.
///
/// # Examples
///
/// ```
/// use graphite_trace::ShardedMetric;
/// let m = ShardedMetric::new(4);
/// m.add(0, 3);
/// m.incr(3);
/// assert_eq!(m.get(), 4);
/// assert_eq!(m.lane_get(3), 1);
/// ```
#[derive(Clone, Debug)]
pub struct ShardedMetric {
    page: SlabPage,
    slot: u32,
    fold: LaneFold,
}

impl Default for ShardedMetric {
    fn default() -> Self {
        Self::new(1)
    }
}

impl ShardedMetric {
    /// Creates a detached sum-folded counter with at least `lanes` lanes
    /// (rounded up to a power of two).
    pub fn new(lanes: usize) -> Self {
        Self::with_fold(lanes, LaneFold::Sum)
    }

    /// Creates a detached counter with an explicit fold.
    pub fn with_fold(lanes: usize, fold: LaneFold) -> Self {
        ShardedMetric { page: slab_page(lanes.max(1).next_power_of_two()), slot: 0, fold }
    }

    #[inline]
    fn lane(&self, lane: usize) -> &AtomicU64 {
        let n = self.page.len();
        let tile = if lane < n { lane } else { lane % n };
        &self.page[tile][self.slot as usize % SLAB_SLOTS]
    }

    /// Adds one to `lane`.
    #[inline]
    pub fn incr(&self, lane: usize) {
        self.add(lane, 1);
    }

    /// Adds `n` to `lane`.
    #[inline]
    pub fn add(&self, lane: usize, n: u64) {
        self.lane(lane).fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to `lane`, which the caller owns (see
    /// [`ShardedMetric::add_owned`]).
    #[inline]
    pub fn incr_owned(&self, lane: usize) {
        self.add_owned(lane, 1);
    }

    /// Adds `n` to `lane` under the *single-writer* convention: only one
    /// thread (the lane's owning tile) ever writes this lane. That makes a
    /// plain load + store sufficient — no locked read-modify-write, which is
    /// the bulk of a counter update's cost on the hot path. Concurrent
    /// `get()`/snapshot readers are still race-free (atomic loads); a second
    /// *writer* on the same lane would lose increments, so callers that
    /// cannot guarantee lane ownership must use [`ShardedMetric::add`].
    #[inline]
    pub fn add_owned(&self, lane: usize, n: u64) {
        let cell = self.lane(lane);
        cell.store(cell.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
    }

    /// Raises `lane` to `n` if `n` is larger. After warm-up this is a plain
    /// load on the hot path: the RMW only runs when the mark actually moves.
    #[inline]
    pub fn observe_max(&self, lane: usize, n: u64) {
        let cell = self.lane(lane);
        if cell.load(Ordering::Relaxed) < n {
            cell.fetch_max(n, Ordering::Relaxed);
        }
    }

    /// Overwrites `lane` with `v` (mirroring a value kept elsewhere, or a
    /// reset). Single-writer, like [`ShardedMetric::add_owned`].
    pub fn lane_set(&self, lane: usize, v: u64) {
        self.lane(lane).store(v, Ordering::Relaxed);
    }

    /// The folded value across all lanes (sum or max, per construction).
    pub fn get(&self) -> u64 {
        let it = (0..self.num_lanes()).map(|l| self.lane_get(l));
        match self.fold {
            LaneFold::Sum => it.fold(0u64, u64::wrapping_add),
            LaneFold::Max => it.max().unwrap_or(0),
        }
    }

    /// Number of lanes: the registry's tile count, or a power of two for a
    /// detached counter.
    pub fn num_lanes(&self) -> usize {
        self.page.len()
    }

    /// Raw value of one lane (for invariant tests and lane-level reporting).
    pub fn lane_get(&self, lane: usize) -> u64 {
        self.lane(lane).load(Ordering::Relaxed)
    }

    /// Host address of one lane's word, for layout tests.
    #[doc(hidden)]
    pub fn lane_addr(&self, lane: usize) -> usize {
        graphite_base::padded::addr_of(self.lane(lane))
    }

    /// How the lanes fold.
    pub fn fold(&self) -> LaneFold {
        self.fold
    }

    /// Overwrites the lanes with a previously folded value: the whole value
    /// goes into lane 0, every other lane is zeroed. Correct for both folds
    /// (a sum of `[v, 0, ..]` and a max of `[v, 0, ..]` are both `v`).
    fn set_folded(&self, v: u64) {
        for lane in 0..self.num_lanes() {
            self.lane_set(lane, if lane == 0 { v } else { 0 });
        }
    }
}

const HIST_BUCKETS: usize = 65;

/// One histogram lane: log₂ buckets plus a running sum. The sample count is
/// *not* stored — it is the sum of the bucket counts, derived at snapshot
/// time — so recording costs two relaxed RMWs, not three.
#[derive(Debug)]
struct HistLane {
    /// `buckets[0]` counts zero samples; `buckets[i]` (i ≥ 1) counts samples
    /// whose bit length is `i`, i.e. values in `[2^(i-1), 2^i - 1]`.
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Default for HistLane {
    fn default() -> Self {
        HistLane { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }
}

#[derive(Debug)]
struct ShardedHistInner {
    lanes: Box<[CachePadded<HistLane>]>,
    mask: usize,
}

/// A log₂-bucketed histogram of `u64` samples, split into cache-padded
/// per-tile lanes.
///
/// Latency distributions in a simulator span orders of magnitude (an L1 hit
/// is ~1 cycle, a cross-machine DRAM fill is thousands), so fixed-width bins
/// waste space while power-of-two bins stay informative at every scale. Each
/// recording tile updates only its own lane, and
/// [`ShardedHistogram::snapshot`] folds the lanes into one
/// [`HistogramSnapshot`]. A one-lane histogram is the plain, shared one.
///
/// # Examples
///
/// ```
/// use graphite_trace::ShardedHistogram;
/// let h = ShardedHistogram::new(4);
/// h.record(0, 0);
/// h.record(0, 5);
/// h.record(3, 6);
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 3);
/// assert_eq!(snap.sum, 11);
/// // 5 and 6 share the [4, 7] bucket.
/// assert_eq!(snap.buckets, vec![(0, 1), (7, 2)]);
/// ```
#[derive(Clone, Debug)]
pub struct ShardedHistogram(Arc<ShardedHistInner>);

impl Default for ShardedHistogram {
    fn default() -> Self {
        Self::new(1)
    }
}

impl ShardedHistogram {
    /// Creates a detached sharded histogram with at least `lanes` lanes
    /// (rounded up to a power of two).
    pub fn new(lanes: usize) -> Self {
        let n = lanes.max(1).next_power_of_two();
        ShardedHistogram(Arc::new(ShardedHistInner {
            lanes: (0..n).map(|_| CachePadded::default()).collect(),
            mask: n - 1,
        }))
    }

    /// Records one sample in `lane` (two relaxed RMWs on that lane only).
    #[inline]
    pub fn record(&self, lane: usize, v: u64) {
        let l = &self.0.lanes[lane & self.0.mask];
        let idx = (64 - v.leading_zeros()) as usize;
        l.buckets[idx].fetch_add(1, Ordering::Relaxed);
        l.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records one sample in a lane the caller owns (single-writer, like
    /// [`ShardedMetric::add_owned`]): plain loads + stores, no locked RMW.
    #[inline]
    pub fn record_owned(&self, lane: usize, v: u64) {
        let l = &self.0.lanes[lane & self.0.mask];
        let idx = (64 - v.leading_zeros()) as usize;
        let b = &l.buckets[idx];
        b.store(b.load(Ordering::Relaxed).wrapping_add(1), Ordering::Relaxed);
        l.sum.store(l.sum.load(Ordering::Relaxed).wrapping_add(v), Ordering::Relaxed);
    }

    /// Number of lanes (a power of two).
    pub fn num_lanes(&self) -> usize {
        self.0.lanes.len()
    }

    /// Samples recorded in one lane (sum of its bucket counts).
    pub fn lane_count(&self, lane: usize) -> u64 {
        self.0.lanes[lane & self.0.mask]
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    /// Sum of samples recorded in one lane.
    pub fn lane_sum(&self, lane: usize) -> u64 {
        self.0.lanes[lane & self.0.mask].sum.load(Ordering::Relaxed)
    }

    /// Total samples across all lanes.
    pub fn count(&self) -> u64 {
        (0..self.num_lanes()).map(|i| self.lane_count(i)).fold(0u64, u64::wrapping_add)
    }

    /// Sum of all samples across all lanes.
    pub fn sum(&self) -> u64 {
        self.0.lanes.iter().map(|l| l.sum.load(Ordering::Relaxed)).fold(0u64, u64::wrapping_add)
    }

    /// Folds all lanes into one distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut folded = [0u64; HIST_BUCKETS];
        let mut sum = 0u64;
        for lane in self.0.lanes.iter() {
            for (f, b) in folded.iter_mut().zip(lane.buckets.iter()) {
                *f = f.wrapping_add(b.load(Ordering::Relaxed));
            }
            sum = sum.wrapping_add(lane.sum.load(Ordering::Relaxed));
        }
        let count = folded.iter().fold(0u64, |a, &n| a.wrapping_add(n));
        let buckets = folded
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_upper(i), n))
            .collect();
        HistogramSnapshot { count, sum, buckets }
    }

    /// Overwrites all lanes with a snapshot's distribution, folded into
    /// lane 0. Returns `false` when a bucket bound is not a valid boundary.
    fn restore_from(&self, snap: &HistogramSnapshot) -> bool {
        let Some(buckets) = unpack_buckets(snap) else { return false };
        for (li, lane) in self.0.lanes.iter().enumerate() {
            for (cell, &v) in lane.buckets.iter().zip(buckets.iter()) {
                cell.store(if li == 0 { v } else { 0 }, Ordering::Relaxed);
            }
            lane.sum.store(if li == 0 { snap.sum } else { 0 }, Ordering::Relaxed);
        }
        true
    }
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// Inverse of [`bucket_upper`]: the bucket index whose inclusive upper bound
/// is `upper`, or `None` for a value that is not a bucket boundary.
fn bucket_index(upper: u64) -> Option<usize> {
    match upper {
        0 => Some(0),
        u64::MAX => Some(64),
        u => {
            let i = (64 - u.leading_zeros()) as usize;
            (u == (1u64 << i) - 1).then_some(i)
        }
    }
}

/// Expands a snapshot's sparse `(upper, count)` pairs into the dense bucket
/// array, or `None` when an upper bound is not a valid boundary.
fn unpack_buckets(snap: &HistogramSnapshot) -> Option<[u64; HIST_BUCKETS]> {
    let mut buckets = [0u64; HIST_BUCKETS];
    for &(upper, n) in &snap.buckets {
        buckets[bucket_index(upper)?] = n;
    }
    Some(buckets)
}

/// Point-in-time copy of one [`ShardedHistogram`]'s distribution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// `(inclusive_upper_bound, count)` for each non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Inclusive upper bound of the bucket holding the `q`-quantile sample
    /// (0 when empty). Log₂ buckets bound the answer from above: the true
    /// quantile lies in `(upper/2, upper]`, which is plenty for p50/p95/p99
    /// summaries over latency distributions spanning orders of magnitude.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return upper;
            }
        }
        self.buckets.last().map_or(0, |b| b.0)
    }
}

#[derive(Debug)]
enum Entry {
    Counter(Metric),
    Gauge(Gauge),
    /// A family of per-tile lanes in the slab: reported lane by lane
    /// (`per_tile`) or folded into one value under `counters`.
    Lanes {
        lanes: ShardedMetric,
        per_tile: bool,
    },
    ShardedHistogram(ShardedHistogram),
}

impl Entry {
    fn kind(&self) -> &'static str {
        match self {
            Entry::Counter(_) => "counter",
            Entry::Gauge(_) => "gauge",
            Entry::Lanes { per_tile: true, .. } => "per-tile counter",
            Entry::Lanes { lanes, .. } => match lanes.fold {
                LaneFold::Sum => "sharded counter",
                LaneFold::Max => "sharded max counter",
            },
            Entry::ShardedHistogram(_) => "sharded histogram",
        }
    }
}

/// Registry of every named metric a simulation exposes.
///
/// Registration is idempotent: asking twice for the same name (with the same
/// kind) returns handles to the same cells, so independent subsystems may
/// share a metric. Asking for an existing name with a *different* kind is a
/// wiring bug and panics.
///
/// Every per-tile counter — [`MetricsRegistry::per_tile`],
/// [`MetricsRegistry::sharded_counter`], [`MetricsRegistry::sharded_max`] —
/// is one slot of a slab page: 8 bytes per tile. A page holds families of one
/// top-level namespace (`net`, `mem`, `sched`, …) only, so lanes that other
/// threads write (a packet's source lane, the MCP's lane 0) never share a
/// tile's block with that tile's per-op counters.
///
/// # Examples
///
/// ```
/// use graphite_trace::MetricsRegistry;
/// let reg = MetricsRegistry::new(2);
/// let sends = reg.counter("net.sends");
/// sends.add(5);
/// let per_tile = reg.per_tile("mem.accesses");
/// per_tile.incr(1);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counters["net.sends"], 5);
/// assert_eq!(snap.per_tile["mem.accesses"], vec![0, 1]);
/// ```
#[derive(Debug)]
pub struct MetricsRegistry {
    num_tiles: usize,
    state: Mutex<Registered>,
}

#[derive(Debug, Default)]
struct Registered {
    entries: BTreeMap<String, Entry>,
    /// Each namespace's newest slab page and how many of its slots are taken.
    pages: BTreeMap<String, (SlabPage, usize)>,
}

impl MetricsRegistry {
    /// Creates an empty registry for a target with `num_tiles` tiles.
    pub fn new(num_tiles: usize) -> Self {
        MetricsRegistry { num_tiles, state: Mutex::new(Registered::default()) }
    }

    /// Number of tiles every per-tile metric is sized for.
    pub fn num_tiles(&self) -> usize {
        self.num_tiles
    }

    /// Returns the global counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Metric {
        let mut state = self.state.lock();
        match state.entries.entry(name.to_string()).or_insert_with(|| Entry::Counter(Metric::new()))
        {
            Entry::Counter(m) => m.clone(),
            other => panic!("metric '{name}' already registered as a {}", other.kind()),
        }
    }

    /// Returns the gauge named `name`, registering it on first use. Snapshots
    /// report the level under `counters` (see [`Gauge`]), so gauges join the
    /// existing namespace and exported schema.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut state = self.state.lock();
        match state.entries.entry(name.to_string()).or_insert_with(|| Entry::Gauge(Gauge::new())) {
            Entry::Gauge(g) => g.clone(),
            other => panic!("metric '{name}' already registered as a {}", other.kind()),
        }
    }

    /// Returns the per-tile counter named `name`, registering it on first
    /// use. Snapshots report it lane by lane under `per_tile`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn per_tile(&self, name: &str) -> ShardedMetric {
        self.lanes(name, true, LaneFold::Sum)
    }

    /// Returns the sharded (per-tile-lane, sum-folded) counter named `name`,
    /// registering it on first use.
    ///
    /// Snapshots report the *folded* value under `counters` — the name lives
    /// in the same namespace and JSON section as [`MetricsRegistry::counter`],
    /// so moving a hot counter onto lanes does not change the exported schema.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind
    /// (including a max-folded sharded counter).
    pub fn sharded_counter(&self, name: &str) -> ShardedMetric {
        self.lanes(name, false, LaneFold::Sum)
    }

    /// Returns the sharded max-folded counter named `name` (a high-water mark
    /// tracked per lane, reported as the maximum across lanes).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind
    /// (including a sum-folded sharded counter).
    pub fn sharded_max(&self, name: &str) -> ShardedMetric {
        self.lanes(name, false, LaneFold::Max)
    }

    fn lanes(&self, name: &str, per_tile: bool, fold: LaneFold) -> ShardedMetric {
        let mut state = self.state.lock();
        let Registered { entries, pages } = &mut *state;
        match entries.entry(name.to_string()).or_insert_with(|| {
            let namespace = name.split('.').next().unwrap_or_default();
            let (page, used) = pages
                .entry(namespace.to_string())
                .or_insert_with(|| (slab_page(self.num_tiles), 0));
            if *used == SLAB_SLOTS {
                *page = slab_page(self.num_tiles);
                *used = 0;
            }
            *used += 1;
            let lanes = ShardedMetric { page: Arc::clone(page), slot: *used as u32 - 1, fold };
            Entry::Lanes { lanes, per_tile }
        }) {
            Entry::Lanes { lanes, per_tile: p } if *p == per_tile && lanes.fold == fold => {
                lanes.clone()
            }
            other => panic!("metric '{name}' already registered as a {}", other.kind()),
        }
    }

    /// Returns the sharded histogram named `name`, registering it on first
    /// use with one lane per tile. Snapshots fold the lanes and report the
    /// result under `histograms`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn sharded_histogram(&self, name: &str) -> ShardedHistogram {
        let mut state = self.state.lock();
        match state
            .entries
            .entry(name.to_string())
            .or_insert_with(|| Entry::ShardedHistogram(ShardedHistogram::new(self.num_tiles)))
        {
            Entry::ShardedHistogram(h) => h.clone(),
            other => panic!("metric '{name}' already registered as a {}", other.kind()),
        }
    }

    /// Host address of `tile`'s word of every per-tile counter family, by
    /// name — for layout tests.
    #[doc(hidden)]
    pub fn per_tile_slot_addrs(&self, tile: usize) -> Vec<(String, usize)> {
        let state = self.state.lock();
        let lanes = state.entries.iter().filter_map(|(name, entry)| match entry {
            Entry::Lanes { lanes, .. } => Some((name.clone(), lanes.lane_addr(tile))),
            _ => None,
        });
        lanes.collect()
    }

    /// Captures the current value of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let state = self.state.lock();
        let mut snap = MetricsSnapshot {
            num_tiles: self.num_tiles,
            counters: BTreeMap::new(),
            per_tile: BTreeMap::new(),
            histograms: BTreeMap::new(),
        };
        for (name, entry) in state.entries.iter() {
            match entry {
                Entry::Counter(m) => {
                    snap.counters.insert(name.clone(), m.get());
                }
                Entry::Gauge(g) => {
                    snap.counters.insert(name.clone(), g.get());
                }
                Entry::Lanes { lanes, per_tile: true } => {
                    let tiles = (0..self.num_tiles).map(|t| lanes.lane_get(t));
                    snap.per_tile.insert(name.clone(), tiles.collect());
                }
                Entry::Lanes { lanes, .. } => {
                    snap.counters.insert(name.clone(), lanes.get());
                }
                Entry::ShardedHistogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }

    /// Overwrites every registered metric with the values a snapshot holds
    /// (checkpoint restore). Sharded entries come back folded into lane 0 —
    /// the reported totals are exact, the per-lane attribution is not
    /// preserved. Snapshot names with no registered counterpart are skipped,
    /// so a checkpoint from a run with extra subsystems still restores.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CkptCorrupted`] when the snapshot's tile count or
    /// a metric's kind/shape does not match this registry.
    pub fn restore(&self, snap: &MetricsSnapshot) -> Result<(), SimError> {
        let bad = || SimError::CkptCorrupted { segment: "metrics".to_string() };
        if snap.num_tiles != self.num_tiles {
            return Err(bad());
        }
        let state = self.state.lock();
        for (name, &v) in &snap.counters {
            match state.entries.get(name) {
                Some(Entry::Counter(m)) => {
                    m.take();
                    m.add(v);
                }
                Some(Entry::Gauge(g)) => g.set(v),
                Some(Entry::Lanes { lanes, per_tile: false }) => lanes.set_folded(v),
                Some(_) => return Err(bad()),
                None => {}
            }
        }
        for (name, tiles) in &snap.per_tile {
            match state.entries.get(name) {
                Some(Entry::Lanes { lanes, per_tile: true }) if tiles.len() == self.num_tiles => {
                    for (tile, &x) in tiles.iter().enumerate() {
                        lanes.lane_set(tile, x);
                    }
                }
                Some(_) => return Err(bad()),
                None => {}
            }
        }
        for (name, h) in &snap.histograms {
            let ok = match state.entries.get(name) {
                Some(Entry::ShardedHistogram(hist)) => hist.restore_from(h),
                Some(_) => false,
                None => true,
            };
            if !ok {
                return Err(bad());
            }
        }
        Ok(())
    }
}

/// Point-in-time copy of a whole [`MetricsRegistry`], serializable to the
/// `metrics.json` schema (`graphite.metrics.v1`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Tile count the per-tile lanes are sized for.
    pub num_tiles: usize,
    /// Global counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Per-tile counter lanes by name (`vec[tile]`).
    pub per_tile: BTreeMap<String, Vec<u64>>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Serializes the snapshot as one machine-readable JSON document.
    ///
    /// Keys are emitted in sorted (BTreeMap) order, so the output is
    /// deterministic for a given simulation state.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": \"graphite.metrics.v1\",\n");
        out.push_str(&format!("  \"num_tiles\": {},\n", self.num_tiles));

        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {v}", json::quote(name)));
        }
        out.push_str(if self.counters.is_empty() { "},\n" } else { "\n  },\n" });

        out.push_str("  \"per_tile\": {");
        for (i, (name, lanes)) in self.per_tile.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let total: u64 = lanes.iter().sum();
            let tiles: Vec<String> = lanes.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "\n    {}: {{\"total\": {total}, \"tiles\": [{}]}}",
                json::quote(name),
                tiles.join(", ")
            ));
        }
        out.push_str(if self.per_tile.is_empty() { "},\n" } else { "\n  },\n" });

        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(le, n)| format!("{{\"le\": {le}, \"count\": {n}}}"))
                .collect();
            out.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"mean\": {:.3}, \"buckets\": [{}]}}",
                json::quote(name),
                h.count,
                h.sum,
                h.mean(),
                buckets.join(", ")
            ));
        }
        out.push_str(if self.histograms.is_empty() { "}\n" } else { "\n  }\n" });

        out.push('}');
        out
    }

    /// Serializes the snapshot into a checkpoint segment payload.
    pub fn encode(&self, out: &mut Enc) {
        out.u64(self.num_tiles as u64);
        out.u64(self.counters.len() as u64);
        for (name, &v) in &self.counters {
            out.str(name);
            out.u64(v);
        }
        out.u64(self.per_tile.len() as u64);
        for (name, lanes) in &self.per_tile {
            out.str(name);
            out.words(lanes);
        }
        out.u64(self.histograms.len() as u64);
        for (name, h) in &self.histograms {
            out.str(name);
            out.u64(h.count);
            out.u64(h.sum);
            out.u64(h.buckets.len() as u64);
            for &(upper, n) in &h.buckets {
                out.u64(upper);
                out.u64(n);
            }
        }
    }

    /// Decodes a snapshot serialized with [`MetricsSnapshot::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CkptTruncated`] or [`SimError::CkptCorrupted`] on
    /// malformed input.
    pub fn decode(dec: &mut Dec<'_>) -> Result<Self, SimError> {
        let bad = || SimError::CkptCorrupted { segment: "metrics".to_string() };
        let num_tiles = usize::try_from(dec.u64()?).map_err(|_| bad())?;
        let mut snap = MetricsSnapshot { num_tiles, ..MetricsSnapshot::default() };
        for _ in 0..dec.u64()? {
            let name = dec.str()?.to_string();
            snap.counters.insert(name, dec.u64()?);
        }
        for _ in 0..dec.u64()? {
            let name = dec.str()?.to_string();
            snap.per_tile.insert(name, dec.words()?);
        }
        for _ in 0..dec.u64()? {
            let name = dec.str()?.to_string();
            let count = dec.u64()?;
            let sum = dec.u64()?;
            let n = dec.u64()?;
            let mut buckets = Vec::with_capacity(usize::try_from(n).unwrap_or(0).min(HIST_BUCKETS));
            for _ in 0..n {
                let upper = dec.u64()?;
                let cnt = dec.u64()?;
                buckets.push((upper, cnt));
            }
            snap.histograms.insert(name, HistogramSnapshot { count, sum, buckets });
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_clone_shares_cell() {
        let m = Metric::new();
        let alias = m.clone();
        m.add(10);
        alias.incr();
        assert_eq!(m.get(), 11);
        assert_eq!(alias.take(), 11);
        assert_eq!(m.get(), 0);
    }

    #[test]
    fn metric_observe_max_is_monotonic() {
        let m = Metric::new();
        m.observe_max(7);
        m.observe_max(3);
        assert_eq!(m.get(), 7);
        m.observe_max(9);
        assert_eq!(m.get(), 9);
    }

    #[test]
    fn gauge_moves_both_ways_and_snapshots_as_counter() {
        let reg = MetricsRegistry::new(1);
        let g = reg.gauge("serve.queue.depth");
        g.add(5);
        g.decr();
        assert_eq!(g.get(), 4);
        g.set(2);
        g.sub(10);
        assert_eq!(g.get(), 0, "sub saturates");
        g.set(3);
        assert_eq!(reg.snapshot().counters["serve.queue.depth"], 3);
        // Registration is idempotent but kind-checked.
        assert_eq!(reg.gauge("serve.queue.depth").get(), 3);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.counter("serve.queue.depth")
        }));
        assert!(r.is_err(), "re-registering a gauge as a counter must panic");
    }

    #[test]
    fn gauge_restores_from_snapshot() {
        let reg = MetricsRegistry::new(1);
        reg.gauge("g").set(42);
        let snap = reg.snapshot();
        reg.gauge("g").set(7);
        reg.restore(&snap).unwrap();
        assert_eq!(reg.gauge("g").get(), 42);
    }

    #[test]
    fn histogram_quantiles_return_bucket_uppers() {
        let h = ShardedHistogram::default();
        assert_eq!(h.snapshot().quantile(0.5), 0, "empty histogram");
        for _ in 0..90 {
            h.record(0, 3); // bucket [2, 3]
        }
        for _ in 0..10 {
            h.record(0, 1000); // bucket [512, 1023]
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.0), 3);
        assert_eq!(snap.quantile(0.5), 3);
        assert_eq!(snap.quantile(0.90), 3);
        assert_eq!(snap.quantile(0.95), 1023);
        assert_eq!(snap.quantile(1.0), 1023);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = ShardedHistogram::default();
        for v in [0, 1, 2, 3, 1024, u64::MAX] {
            h.record(0, v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (3, 2), (2047, 1), (u64::MAX, 1)]);
    }

    #[test]
    fn sharded_metric_folds_lanes() {
        let m = ShardedMetric::new(3); // rounds up to 4 lanes
        assert_eq!(m.num_lanes(), 4);
        m.add(0, 10);
        m.incr(2);
        m.incr(6); // masks to lane 2
        assert_eq!(m.get(), 12);
        assert_eq!(m.lane_get(2), 2);
        assert_eq!(m.lane_get(1), 0);
    }

    #[test]
    fn sharded_metric_max_fold() {
        let m = ShardedMetric::with_fold(4, LaneFold::Max);
        m.observe_max(0, 7);
        m.observe_max(3, 9);
        m.observe_max(3, 2);
        assert_eq!(m.get(), 9);
        assert_eq!(m.lane_get(0), 7);
    }

    #[test]
    fn sharded_metric_default_accepts_any_lane() {
        let m = ShardedMetric::default();
        m.incr(0);
        m.incr(517);
        assert_eq!(m.get(), 2);
    }

    #[test]
    fn sharded_histogram_matches_plain_histogram() {
        let plain = ShardedHistogram::default();
        let sharded = ShardedHistogram::new(4);
        for (lane, v) in [(0u64, 0u64), (1, 1), (2, 2), (3, 3), (0, 1024), (1, u64::MAX)] {
            plain.record(lane as usize, v); // one lane: every tile id folds into it
            sharded.record(lane as usize, v);
        }
        assert_eq!(sharded.snapshot(), plain.snapshot());
        assert_eq!(sharded.count(), 6);
        assert_eq!(sharded.lane_count(0), 2);
        assert_eq!(sharded.lane_sum(0), 1024);
        let lane_total: u64 = (0..sharded.num_lanes()).map(|i| sharded.lane_count(i)).sum();
        assert_eq!(lane_total, sharded.snapshot().count);
    }

    #[test]
    fn registry_sharded_entries_fold_into_snapshot() {
        let reg = MetricsRegistry::new(4);
        let c = reg.sharded_counter("mem.ops");
        let c2 = reg.sharded_counter("mem.ops");
        c.add(1, 5);
        c2.add(3, 2);
        let hwm = reg.sharded_max("mem.peak");
        hwm.observe_max(0, 11);
        hwm.observe_max(2, 40);
        let h = reg.sharded_histogram("mem.lat");
        h.record(1, 100);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["mem.ops"], 7);
        assert_eq!(snap.counters["mem.peak"], 40);
        assert_eq!(snap.histograms["mem.lat"].count, 1);
        assert_eq!(snap.histograms["mem.lat"].sum, 100);
        let doc = snap.to_json();
        json::Json::parse(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
    }

    #[test]
    #[should_panic(expected = "already registered as a sharded counter")]
    fn registry_rejects_fold_mismatch() {
        let reg = MetricsRegistry::new(2);
        reg.sharded_counter("clash");
        reg.sharded_max("clash");
    }

    #[test]
    fn registry_is_idempotent() {
        let reg = MetricsRegistry::new(4);
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(2);
        assert_eq!(b.get(), 2);
        let lane1 = reg.per_tile("y");
        let lane2 = reg.per_tile("y");
        lane1.incr(3);
        assert_eq!(lane2.lane_get(3), 1);
        assert_eq!(lane1.num_lanes(), 4);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_kind_mismatch() {
        let reg = MetricsRegistry::new(1);
        reg.counter("clash");
        reg.sharded_histogram("clash");
    }

    /// More per-tile families than one slab page holds, of all three kinds.
    fn many_families(reg: &MetricsRegistry) -> Vec<ShardedMetric> {
        (0..SLAB_SLOTS + 4)
            .map(|f| match f % 3 {
                0 => reg.per_tile(&format!("fam.{f:02}")),
                1 => reg.sharded_counter(&format!("fam.{f:02}")),
                _ => reg.sharded_max(&format!("fam.{f:02}")),
            })
            .collect()
    }

    #[test]
    fn per_tile_lanes_live_in_the_tiles_own_slab_block() {
        use graphite_base::padded::{assert_tiles_isolated, PAD_BYTES};
        for tiles in [4usize, 130] {
            let reg = MetricsRegistry::new(tiles);
            let families = many_families(&reg);
            assert_tiles_isolated(
                families
                    .iter()
                    .flat_map(|lanes| (0..tiles).map(|t| (t, "metric slot", lanes.lane_addr(t)))),
            );
            for t in 0..tiles {
                let addrs: Vec<usize> = families.iter().map(|lanes| lanes.lane_addr(t)).collect();
                let by_name = reg.per_tile_slot_addrs(t);
                assert_eq!(addrs, by_name.iter().map(|w| w.1).collect::<Vec<_>>());
                // Contiguous within each page, and a page's slots of one tile
                // fill exactly one block.
                for page in addrs.chunks(SLAB_SLOTS) {
                    assert!(page.windows(2).all(|w| w[1] == w[0] + 8), "tile {t}: {page:x?}");
                    assert_eq!(page[0] % PAD_BYTES, 0);
                }
            }
            // Asking again hands out the same words, not fresh ones.
            let again = many_families(&reg);
            families[SLAB_SLOTS + 1].add(tiles - 1, 7);
            assert_eq!(again[SLAB_SLOTS + 1].lane_get(tiles - 1), 7);
            assert_eq!(again[3].lane_addr(0), families[3].lane_addr(0));
            assert!(families.iter().all(|f| f.num_lanes() == tiles), "linear in tiles");
        }
    }

    #[test]
    fn a_slab_page_holds_one_namespace() {
        use graphite_base::padded::PAD_BYTES;
        let reg = MetricsRegistry::new(3);
        let net_a = reg.sharded_counter("net.a");
        let mem_b = reg.sharded_counter("mem.b");
        let net_c = reg.sharded_counter("net.link.0.1.flits");
        let mem_d = reg.per_tile("mem.tile.d");
        let ctrl = reg.sharded_max("ctrl.e");
        for t in 0..3 {
            let block = |m: &ShardedMetric| m.lane_addr(t) / PAD_BYTES;
            assert_eq!(net_c.lane_addr(t), net_a.lane_addr(t) + 8, "net packs together");
            assert_eq!(mem_d.lane_addr(t), mem_b.lane_addr(t) + 8, "mem packs together");
            assert_ne!(block(&net_a), block(&mem_b));
            assert_ne!(block(&ctrl), block(&mem_b));
            assert_ne!(block(&ctrl), block(&net_a));
        }
    }

    #[test]
    fn restore_roundtrips_across_slab_pages() {
        let fill = |reg: &MetricsRegistry, scale: u64| {
            for (f, lanes) in many_families(reg).iter().enumerate() {
                for t in 0..5 {
                    lanes.add(t, scale * (100 * f as u64 + t as u64));
                }
            }
        };
        let reg = MetricsRegistry::new(5);
        fill(&reg, 1);
        let snap = reg.snapshot();
        assert_eq!(snap.per_tile["fam.18"], vec![1800, 1801, 1802, 1803, 1804]);
        assert_eq!(snap.counters["fam.16"], 5 * 1600 + 10, "sum fold");
        assert_eq!(snap.counters["fam.17"], 1704, "max fold");
        let mut e = Enc::new();
        snap.encode(&mut e);
        let decoded = MetricsSnapshot::decode(&mut Dec::new(&e.finish())).unwrap();

        let fresh = MetricsRegistry::new(5);
        fill(&fresh, 3); // dirty: restore must overwrite, not add
        fresh.restore(&decoded).unwrap();
        assert_eq!(fresh.snapshot(), snap);
        assert_eq!(fresh.snapshot().to_json(), snap.to_json());
    }

    #[test]
    #[should_panic(expected = "already registered as a per-tile counter")]
    fn registry_rejects_per_tile_name_as_another_kind() {
        let reg = MetricsRegistry::new(2);
        reg.per_tile("clash");
        reg.counter("clash");
    }

    #[test]
    fn rejected_per_tile_registration_takes_no_slab_slot() {
        let reg = MetricsRegistry::new(2);
        reg.counter("fam.taken");
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.per_tile("fam.taken")));
        assert!(r.is_err(), "re-registering a counter as per-tile must panic");
        let ok = reg.per_tile("fam.ok");
        assert_eq!(reg.per_tile_slot_addrs(0), vec![("fam.ok".to_string(), ok.lane_addr(0))]);
        assert_eq!(ok.lane_addr(0) % graphite_base::padded::PAD_BYTES, 0, "it took slot 0");
    }

    #[test]
    fn snapshot_reads_live_values() {
        let reg = MetricsRegistry::new(2);
        let c = reg.counter("total");
        let lane = reg.per_tile("per");
        let h = reg.sharded_histogram("lat");
        c.add(5);
        lane.add(0, 1);
        lane.add(1, 2);
        h.record(1, 100);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["total"], 5);
        assert_eq!(snap.per_tile["per"], vec![1, 2]);
        assert_eq!(snap.histograms["lat"].count, 1);
        // Later increments show up in a fresh snapshot.
        c.incr();
        assert_eq!(reg.snapshot().counters["total"], 6);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let reg = MetricsRegistry::new(2);
        reg.counter("a.b").add(1);
        reg.per_tile("c\"tricky").add(1, 3);
        reg.sharded_histogram("lat").record(0, 9);
        let doc = reg.snapshot().to_json();
        json::Json::parse(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
        assert!(doc.contains("\"graphite.metrics.v1\""));
        assert!(doc.contains("\"total\": 3"));
    }

    #[test]
    fn empty_snapshot_json_is_well_formed() {
        let doc = MetricsRegistry::new(0).snapshot().to_json();
        json::Json::parse(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
    }

    /// A registry exercising every metric kind, for restore tests.
    fn populated_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new(4);
        reg.counter("plain").add(17);
        let pt = reg.per_tile("per");
        pt.add(1, 3);
        pt.add(3, 9);
        reg.sharded_histogram("lat").record(0, 0);
        reg.sharded_histogram("lat").record(2, 1000);
        reg.sharded_counter("hot").add(2, 44);
        reg.sharded_max("peak").observe_max(1, 31);
        reg.sharded_histogram("shlat").record(3, 77);
        reg
    }

    #[test]
    fn snapshot_encode_decode_roundtrip() {
        let snap = populated_registry().snapshot();
        let mut e = Enc::new();
        snap.encode(&mut e);
        let buf = e.finish();
        let decoded = MetricsSnapshot::decode(&mut Dec::new(&buf)).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.to_json(), snap.to_json());
        // Truncation stays typed.
        assert_eq!(
            MetricsSnapshot::decode(&mut Dec::new(&buf[..buf.len() - 1])).unwrap_err(),
            SimError::CkptTruncated
        );
    }

    #[test]
    fn registry_restore_reproduces_snapshot_byte_for_byte() {
        let snap = populated_registry().snapshot();
        let fresh = populated_registry();
        // Dirty the fresh registry so restore has to overwrite, not just add.
        fresh.counter("plain").add(1);
        fresh.sharded_counter("hot").add(0, 5);
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.snapshot(), snap);
        assert_eq!(fresh.snapshot().to_json(), snap.to_json());
    }

    #[test]
    fn registry_restore_skips_unknown_names() {
        let mut snap = populated_registry().snapshot();
        snap.counters.insert("from.the.future".to_string(), 99);
        let fresh = populated_registry();
        fresh.restore(&snap).unwrap();
        assert!(!fresh.snapshot().counters.contains_key("from.the.future"));
    }

    #[test]
    fn registry_restore_rejects_mismatches() {
        let reg = populated_registry();
        let mut wrong_tiles = reg.snapshot();
        wrong_tiles.num_tiles = 8;
        assert!(matches!(
            reg.restore(&wrong_tiles).unwrap_err(),
            SimError::CkptCorrupted { segment } if segment == "metrics"
        ));
        let mut wrong_kind = reg.snapshot();
        // "lat" is a histogram in the registry; a counter under that name
        // means the checkpoint came from a different wiring.
        wrong_kind.counters.insert("lat".to_string(), 1);
        assert!(reg.restore(&wrong_kind).is_err());
        let mut wrong_shape = reg.snapshot();
        wrong_shape.per_tile.get_mut("per").unwrap().push(0);
        assert!(reg.restore(&wrong_shape).is_err());
        let mut bad_bucket = reg.snapshot();
        // 6 is not a power-of-two-minus-one boundary.
        bad_bucket.histograms.get_mut("lat").unwrap().buckets = vec![(6, 1)];
        assert!(reg.restore(&bad_bucket).is_err());
    }

    #[test]
    fn quantile_of_empty_snapshot_is_zero() {
        let empty = HistogramSnapshot::default();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(empty.quantile(q), 0);
        }
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn quantile_of_single_bucket_returns_its_bound_for_every_q() {
        let h = ShardedHistogram::default();
        for _ in 0..5 {
            h.record(0, 9); // all five land in the (7, 15] bucket
        }
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![(15, 5)]);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), 15, "q={q}");
        }
    }

    #[test]
    fn quantile_extremes_clamp_to_first_and_last_samples() {
        let h = ShardedHistogram::default();
        h.record(0, 1); // bucket (.., 1]
        h.record(0, 100); // bucket (63, 127]
        h.record(0, 5000); // bucket (4095, 8191]
        let snap = h.snapshot();
        // q=0 clamps the rank to the first sample, not "before" it.
        assert_eq!(snap.quantile(0.0), 1);
        assert_eq!(snap.quantile(-3.0), 1, "q is clamped into [0, 1]");
        // q=1 is the maximum sample's bucket.
        assert_eq!(snap.quantile(1.0), 8191);
        assert_eq!(snap.quantile(7.0), 8191, "q is clamped into [0, 1]");
        // Interior quantile: rank ceil(0.5*3)=2 → the middle bucket.
        assert_eq!(snap.quantile(0.5), 127);
    }

    #[test]
    fn quantile_reaches_the_open_top_bucket() {
        let h = ShardedHistogram::default();
        h.record(0, 2);
        h.record(0, u64::MAX); // the open +Inf bucket
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), 3);
        assert_eq!(snap.quantile(1.0), u64::MAX);
    }
}
