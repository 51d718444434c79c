//! `hostprof` — sampled host-side cost attribution.
//!
//! Graphite's whole value proposition is host wall-clock speed, yet every
//! other observability layer in the workspace measures *simulated* time.
//! This module measures where the host's nanoseconds go: a scoped-timer
//! primitive ([`HostProf::span`]) with thread-local span stacks, 1-in-N
//! sampling, and monotonic-clock timestamps, accumulating per-stage
//! self/total time into a fixed table of [`HostStage`] slots.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when disabled.** `span()` on a disabled profiler is
//!    one relaxed atomic load and a `None` guard; the drop is a branch.
//!    Subsystems keep their spans in place permanently.
//! 2. **Exact counts, sampled timing.** Every span increments its stage's
//!    occurrence count (one relaxed `fetch_add`). Only 1-in-N outermost
//!    spans read the clock; nested spans *inherit* the outer span's sampling
//!    decision so a sampled miss times every stage inside it — self-time and
//!    total-time sums stay mutually consistent instead of being independent
//!    random subsets.
//! 3. **Self vs. total.** Each frame accumulates its children's elapsed
//!    time; on drop, `self = elapsed - child_ns`. Summing self-time over all
//!    stages of a transaction equals the transaction's total, so attribution
//!    fractions are well-defined.
//!
//! Sampled spans are additionally recorded into a bounded event buffer
//! (begin/duration pairs tagged with a registered host-thread id) that the
//! Perfetto exporter renders as host-thread tracks next to guest timelines.
//!
//! # Examples
//!
//! ```
//! use graphite_base::hostprof::{HostProf, HostStage};
//!
//! let prof = HostProf::new(1, 64); // sample every span, keep 64 events
//! prof.register_thread("worker0");
//! {
//!     let _outer = prof.span(HostStage::MissTotal);
//!     let _inner = prof.span(HostStage::DirLookup);
//! }
//! let snap = prof.snapshot();
//! assert_eq!(snap.stage(HostStage::MissTotal).count, 1);
//! assert_eq!(snap.stage(HostStage::DirLookup).count, 1);
//! // The inner span's time is attributed away from the outer span's self.
//! let outer = snap.stage(HostStage::MissTotal);
//! assert!(outer.self_ns <= outer.total_ns);
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

/// The fixed vocabulary of host-cost stages. Scheduler stages time the M:N
/// guest scheduler's slot machinery; memory stages decompose the
/// directory-miss slow path. Names are stable — they become `host.*` metric
/// keys and Perfetto track labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum HostStage {
    /// Waiting in `attach` for an execution slot to be granted.
    SchedSlotWait = 0,
    /// Holding an execution slot (attach return → detach entry).
    SchedSlotRun,
    /// The `detach` critical section that picks and grants the next context.
    SchedHandoff,
    /// A thread context (tile 0, an external `attach` caller) parked on the
    /// OS path until its unpark and a slot arrive.
    SchedPark,
    /// Waking a parked context.
    SchedUnpark,
    /// Spawning a carrier thread (on demand, when no carrier is idle).
    SchedSpawn,
    /// A carrier switching contexts: storing the one that stopped, picking
    /// the next and passing the slot on.
    SchedSwitch,
    /// An execution slot held by no context (recorded per free interval).
    SchedIdle,
    /// One whole miss after its probe: evictions, claim, directory
    /// transaction and fill.
    MissTotal,
    /// Acquiring a tile's `TileMem` mutex.
    TileLockWait,
    /// The locked probe of the tile's own hierarchy: a hit, or on a miss
    /// the pick of the line the fill would evict.
    LocalProbe,
    /// A line-table claim (a miss's or an eviction's), waiting out the
    /// line's holder if it has one, and the claim's release.
    MshrProbe,
    /// Acquiring a line-table shard's map lock (a claim or a release).
    DirLockWait,
    /// A claim's map work: shard selection, get-or-insert of the line's
    /// record and slot, and taking the slot if it is free.
    DirLookup,
    /// Making room in the coherence cache: the evictions of the victim the
    /// probe picked and of any victim each eviction's purge picks next.
    LruScan,
    /// The DRAM controller queue model.
    DramModel,
    /// Interconnect routing legs (request/forward/response modeling).
    NetModel,
    /// Applying the fill/upgrade to the requester's hierarchy.
    MissFill,
    /// One directory transaction for a registered miss.
    DirTxn,
    /// Registering a miss between its evictions and its directory
    /// transaction: the line claim, which resolves the directory record.
    MissRegister,
}

/// Number of [`HostStage`] variants (the accumulator table's size).
pub const NUM_STAGES: usize = 20;

impl HostStage {
    /// Every stage, in declaration order (index = discriminant).
    pub const ALL: [HostStage; NUM_STAGES] = [
        HostStage::SchedSlotWait,
        HostStage::SchedSlotRun,
        HostStage::SchedHandoff,
        HostStage::SchedPark,
        HostStage::SchedUnpark,
        HostStage::SchedSpawn,
        HostStage::SchedSwitch,
        HostStage::SchedIdle,
        HostStage::MissTotal,
        HostStage::TileLockWait,
        HostStage::LocalProbe,
        HostStage::MshrProbe,
        HostStage::DirLockWait,
        HostStage::DirLookup,
        HostStage::LruScan,
        HostStage::DramModel,
        HostStage::NetModel,
        HostStage::MissFill,
        HostStage::DirTxn,
        HostStage::MissRegister,
    ];

    /// The stage's stable dotted name, used for `host.<name>.*` metric keys
    /// and Perfetto span labels.
    pub fn name(self) -> &'static str {
        match self {
            HostStage::SchedSlotWait => "sched.slot_wait",
            HostStage::SchedSlotRun => "sched.slot_run",
            HostStage::SchedHandoff => "sched.handoff",
            HostStage::SchedPark => "sched.park",
            HostStage::SchedUnpark => "sched.unpark",
            HostStage::SchedSpawn => "sched.spawn",
            HostStage::SchedSwitch => "sched.switch",
            HostStage::SchedIdle => "sched.idle",
            HostStage::MissTotal => "mem.miss_total",
            HostStage::TileLockWait => "mem.tile_lock",
            HostStage::LocalProbe => "mem.local_probe",
            HostStage::MshrProbe => "mem.mshr",
            HostStage::DirLockWait => "mem.dir_lock",
            HostStage::DirLookup => "mem.dir_lookup",
            HostStage::LruScan => "mem.lru_evict",
            HostStage::DramModel => "mem.dram_model",
            HostStage::NetModel => "mem.net_model",
            HostStage::MissFill => "mem.fill",
            HostStage::DirTxn => "mem.dir_txn",
            HostStage::MissRegister => "mem.register",
        }
    }

    /// Whether this stage times a lock acquisition (the "top contended
    /// locks" report groups these).
    pub fn is_lock(self) -> bool {
        matches!(self, HostStage::TileLockWait | HostStage::DirLockWait)
    }

    /// Whether this stage belongs to the guest scheduler.
    pub fn is_sched(self) -> bool {
        (self as u8) <= HostStage::SchedIdle as u8
    }
}

/// Per-stage accumulator. `count` is exact (every span); `timed`, `self_ns`
/// and `total_ns` cover only sampled spans.
#[derive(Debug, Default)]
struct StageAcc {
    count: AtomicU64,
    timed: AtomicU64,
    self_ns: AtomicU64,
    total_ns: AtomicU64,
}

/// One sampled span, kept for the Perfetto host-thread tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostEvent {
    /// Registered host-thread id (index into the snapshot's thread table).
    pub tid: u32,
    /// The stage being timed.
    pub stage: HostStage,
    /// Span start, nanoseconds since the profiler's epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

// Thread-local span machinery. Frames carry the owning profiler's address so
// spans from distinct `HostProf` instances interleaved on one thread (e.g.
// two sims in one test) attribute child time to the right parent.
struct Frame {
    prof: usize,
    stage: HostStage,
    sampled: bool,
    start_ns: u64,
    child_ns: u64,
}

#[derive(Default)]
struct TlProf {
    frames: Vec<Frame>,
    /// Sampling dice: xorshift64 state, seeded lazily. A strided counter
    /// would phase-lock with periodic root-span patterns (two roots per
    /// access and an even interval samples only the first — forever), so
    /// roots roll pseudo-randomly instead; 1-in-N holds per stage.
    rng: u64,
    /// Registered thread id per profiler address (tiny linear map — a thread
    /// touches one or two profilers in its lifetime).
    tids: Vec<(usize, u32)>,
}

thread_local! {
    static TL: RefCell<TlProf> = RefCell::new(TlProf::default());
}

/// A sampled, scoped host-cost profiler. Cheap to share (`Arc`), cheap to
/// query while hot (`span()` is one atomic load when disabled), and
/// snapshot-able at any time.
#[derive(Debug)]
pub struct HostProf {
    enabled: AtomicBool,
    sample: u32,
    epoch: Instant,
    stages: [StageAcc; NUM_STAGES],
    threads: Mutex<Vec<String>>,
    events: Mutex<Vec<HostEvent>>,
    max_events: usize,
    dropped: AtomicU64,
}

impl HostProf {
    /// An enabled profiler timing 1-in-`sample` root spans and retaining at
    /// most `max_events` sampled spans for timeline export. `sample` is
    /// clamped to ≥ 1.
    pub fn new(sample: u32, max_events: usize) -> Arc<HostProf> {
        Arc::new(HostProf {
            enabled: AtomicBool::new(true),
            sample: sample.max(1),
            epoch: Instant::now(),
            stages: Default::default(),
            threads: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
            max_events,
            dropped: AtomicU64::new(0),
        })
    }

    /// A disabled profiler: every instrumentation point stays a single
    /// atomic load. This is the default wiring.
    pub fn disabled() -> Arc<HostProf> {
        let p = HostProf::new(u32::MAX, 0);
        p.enabled.store(false, Ordering::Relaxed);
        p
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The configured 1-in-N sampling interval.
    pub fn sample_interval(&self) -> u32 {
        self.sample
    }

    /// Nanoseconds since this profiler's epoch (monotonic).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Registers the calling thread under `name` for timeline export and
    /// returns its id. Idempotent per thread; later calls rename nothing.
    pub fn register_thread(&self, name: &str) -> u32 {
        let key = self as *const HostProf as usize;
        TL.with(|tl| {
            let mut tl = tl.borrow_mut();
            if let Some(&(_, tid)) = tl.tids.iter().find(|&&(p, _)| p == key) {
                return tid;
            }
            let mut threads = self.threads.lock();
            let tid = threads.len() as u32;
            threads.push(name.to_string());
            drop(threads);
            tl.tids.push((key, tid));
            tid
        })
    }

    fn thread_id(&self, tl: &mut TlProf) -> u32 {
        let key = self as *const HostProf as usize;
        if let Some(&(_, tid)) = tl.tids.iter().find(|&&(p, _)| p == key) {
            return tid;
        }
        let mut threads = self.threads.lock();
        let tid = threads.len() as u32;
        let name = std::thread::current()
            .name()
            .map(|n| n.to_string())
            .unwrap_or_else(|| format!("host-{tid}"));
        threads.push(name);
        drop(threads);
        tl.tids.push((key, tid));
        tid
    }

    /// Opens a scoped span for `stage`. The returned guard must drop on the
    /// same thread, in LIFO order with any nested spans (ordinary scoping
    /// guarantees both). Disabled profilers return an inert guard.
    #[inline]
    pub fn span(&self, stage: HostStage) -> HostSpan<'_> {
        if !self.is_enabled() {
            return HostSpan { prof: None };
        }
        self.begin(stage);
        HostSpan { prof: Some(self) }
    }

    #[cold]
    fn begin(&self, stage: HostStage) {
        self.stages[stage as usize].count.fetch_add(1, Ordering::Relaxed);
        let key = self as *const HostProf as usize;
        TL.with(|tl| {
            let mut tl = tl.borrow_mut();
            // Inherit the enclosing span's sampling decision so a sampled
            // transaction times all of its stages; roots roll the dice.
            let sampled = match tl.frames.last() {
                Some(f) if f.prof == key => f.sampled,
                _ if self.sample <= 1 => true,
                _ => {
                    if tl.rng == 0 {
                        // Any nonzero seed works; the TlProf address varies
                        // per thread so threads don't roll in lockstep.
                        tl.rng = (&raw const *tl as u64) | 1;
                    }
                    tl.rng ^= tl.rng << 13;
                    tl.rng ^= tl.rng >> 7;
                    tl.rng ^= tl.rng << 17;
                    tl.rng % self.sample as u64 == 0
                }
            };
            let start_ns = if sampled { self.now_ns() } else { 0 };
            tl.frames.push(Frame { prof: key, stage, sampled, start_ns, child_ns: 0 });
        });
    }

    #[cold]
    fn end(&self) {
        let key = self as *const HostProf as usize;
        TL.with(|tl| {
            let mut tl = tl.borrow_mut();
            let f = tl.frames.pop().expect("span guard without frame");
            debug_assert_eq!(f.prof, key, "span guards must drop in LIFO order");
            if !f.sampled {
                return;
            }
            let elapsed = self.now_ns().saturating_sub(f.start_ns);
            let acc = &self.stages[f.stage as usize];
            acc.timed.fetch_add(1, Ordering::Relaxed);
            acc.total_ns.fetch_add(elapsed, Ordering::Relaxed);
            acc.self_ns.fetch_add(elapsed.saturating_sub(f.child_ns), Ordering::Relaxed);
            let tid = self.thread_id(&mut tl);
            self.push_event(HostEvent {
                tid,
                stage: f.stage,
                start_ns: f.start_ns,
                dur_ns: elapsed,
            });
            // Charge this teardown (the event push above dominates it) to the
            // child's window from the parent's perspective: re-read the clock
            // *after* the push so profiler overhead never masquerades as
            // parent self time and attribution ratios stay honest.
            if let Some(parent) = tl.frames.last_mut() {
                if parent.prof == key {
                    parent.child_ns += self.now_ns().saturating_sub(f.start_ns);
                }
            }
        });
    }

    /// Records an already-measured interval against `stage` — used where a
    /// span guard cannot straddle the region (e.g. slot occupancy between
    /// two scheduler calls). Counts as one exact, timed occurrence; the
    /// event buffer keeps it subject to the same bound.
    pub fn record(&self, stage: HostStage, start_ns: u64, end_ns: u64) {
        if !self.is_enabled() {
            return;
        }
        let elapsed = end_ns.saturating_sub(start_ns);
        let acc = &self.stages[stage as usize];
        acc.count.fetch_add(1, Ordering::Relaxed);
        acc.timed.fetch_add(1, Ordering::Relaxed);
        acc.total_ns.fetch_add(elapsed, Ordering::Relaxed);
        acc.self_ns.fetch_add(elapsed, Ordering::Relaxed);
        TL.with(|tl| {
            let tid = self.thread_id(&mut tl.borrow_mut());
            self.push_event(HostEvent { tid, stage, start_ns, dur_ns: elapsed });
        });
    }

    fn push_event(&self, ev: HostEvent) {
        let mut events = self.events.lock();
        if events.len() < self.max_events {
            events.push(ev);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A consistent copy of everything accumulated so far.
    pub fn snapshot(&self) -> HostProfSnapshot {
        let stages = HostStage::ALL
            .iter()
            .map(|&s| {
                let a = &self.stages[s as usize];
                StageSnap {
                    stage: s,
                    count: a.count.load(Ordering::Relaxed),
                    timed: a.timed.load(Ordering::Relaxed),
                    self_ns: a.self_ns.load(Ordering::Relaxed),
                    total_ns: a.total_ns.load(Ordering::Relaxed),
                }
            })
            .collect();
        HostProfSnapshot {
            enabled: self.is_enabled(),
            sample: self.sample,
            wall_ns: self.now_ns(),
            stages,
            threads: self.threads.lock().clone(),
            events: self.events.lock().clone(),
            dropped_events: self.dropped.load(Ordering::Relaxed),
        }
    }
}

/// RAII guard returned by [`HostProf::span`].
pub struct HostSpan<'a> {
    prof: Option<&'a HostProf>,
}

impl Drop for HostSpan<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(p) = self.prof {
            p.end();
        }
    }
}

/// Point-in-time totals for one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSnap {
    /// Which stage this row describes.
    pub stage: HostStage,
    /// Exact number of spans opened (sampled or not).
    pub count: u64,
    /// Number of sampled (timed) spans contributing to the ns fields.
    pub timed: u64,
    /// Sampled self time: elapsed minus time spent in nested stages.
    pub self_ns: u64,
    /// Sampled total (inclusive) time.
    pub total_ns: u64,
}

impl StageSnap {
    /// Mean self-nanoseconds per occurrence, from the sampled population.
    pub fn self_ns_per_op(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.timed as f64
        }
    }

    /// Self time extrapolated to all occurrences (mean × exact count).
    pub fn est_self_ns(&self) -> f64 {
        self.self_ns_per_op() * self.count as f64
    }

    /// Total (inclusive) time extrapolated to all occurrences.
    pub fn est_total_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.timed as f64 * self.count as f64
        }
    }
}

/// Everything a [`HostProf`] has accumulated, decoupled from the live
/// atomics. Reports, exporters, and gauges are all built from this.
#[derive(Debug, Clone, PartialEq)]
pub struct HostProfSnapshot {
    /// Whether the profiler was recording.
    pub enabled: bool,
    /// The 1-in-N sampling interval.
    pub sample: u32,
    /// Nanoseconds from the profiler's epoch to the snapshot.
    pub wall_ns: u64,
    /// One row per [`HostStage`], in `HostStage::ALL` order.
    pub stages: Vec<StageSnap>,
    /// Registered host-thread names; [`HostEvent::tid`] indexes this table.
    pub threads: Vec<String>,
    /// Sampled spans retained for timeline export.
    pub events: Vec<HostEvent>,
    /// Sampled spans dropped once the event buffer filled.
    pub dropped_events: u64,
}

impl HostProfSnapshot {
    /// An empty snapshot from a disabled profiler (all zeros).
    pub fn empty() -> HostProfSnapshot {
        HostProf::disabled().snapshot()
    }

    /// The row for `stage`.
    pub fn stage(&self, stage: HostStage) -> &StageSnap {
        &self.stages[stage as usize]
    }

    /// Fraction of sampled miss-path time attributed to named sub-stages:
    /// `1 - self(MissTotal) / total(MissTotal)`. Returns `None` when no
    /// miss was sampled.
    pub fn miss_attribution(&self) -> Option<f64> {
        let t = self.stage(HostStage::MissTotal);
        if t.timed == 0 || t.total_ns == 0 {
            return None;
        }
        Some(1.0 - t.self_ns as f64 / t.total_ns as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = HostProf::disabled();
        {
            let _s = p.span(HostStage::MissTotal);
        }
        p.record(HostStage::SchedSlotRun, 0, 100);
        let snap = p.snapshot();
        assert!(!snap.enabled);
        assert!(snap.stages.iter().all(|s| s.count == 0 && s.total_ns == 0));
        assert!(snap.events.is_empty());
    }

    #[test]
    fn nested_spans_split_self_and_total() {
        let p = HostProf::new(1, 16);
        {
            let _outer = p.span(HostStage::MissTotal);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = p.span(HostStage::DirLookup);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let snap = p.snapshot();
        let outer = snap.stage(HostStage::MissTotal);
        let inner = snap.stage(HostStage::DirLookup);
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(inner.total_ns > 0);
        assert_eq!(inner.self_ns, inner.total_ns, "leaf span: self == total");
        assert!(outer.total_ns >= inner.total_ns);
        // The child window charged to the parent includes the child's own
        // span teardown, so parent self is *at most* total minus child time.
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns);
        assert!(outer.self_ns > 0, "the outer 2ms sleep is outer self time");
        // Attribution: all of the outer span's child time is named.
        let attr = snap.miss_attribution().unwrap();
        assert!(attr > 0.0 && attr <= 1.0);
    }

    #[test]
    fn sampling_counts_exactly_but_times_one_in_n() {
        let p = HostProf::new(4, 1 << 14);
        const N: u64 = 4096;
        for _ in 0..N {
            let _s = p.span(HostStage::DramModel);
        }
        let snap = p.snapshot();
        let s = snap.stage(HostStage::DramModel);
        assert_eq!(s.count, N, "counts are exact regardless of sampling");
        // The dice are pseudo-random, so 1-in-4 holds statistically: the
        // expectation is 1024 and anything outside [512, 1536] is a ~18-sigma
        // event — i.e. a broken roll, not bad luck.
        assert!((N / 8..=3 * N / 8).contains(&s.timed), "timed {} of {N}", s.timed);
        assert_eq!(snap.events.len() as u64, s.timed);
    }

    #[test]
    fn nested_spans_inherit_the_sampling_decision() {
        let p = HostProf::new(2, 1 << 14);
        for _ in 0..512 {
            let _outer = p.span(HostStage::MissTotal);
            let _inner = p.span(HostStage::DramModel);
        }
        let snap = p.snapshot();
        // Whenever the root was sampled, the nested stage was too — the
        // timed populations track exactly, and about half the roots hit.
        let outer = snap.stage(HostStage::MissTotal).timed;
        assert_eq!(snap.stage(HostStage::DramModel).timed, outer);
        assert!((128..=384).contains(&outer), "timed {outer} of 512");
    }

    /// Regression: a strided 1-in-N counter phase-locks with periodic span
    /// patterns. Two root spans per iteration and an even interval used to
    /// sample only the first stage forever, leaving the second blind.
    #[test]
    fn alternating_root_stages_both_get_sampled() {
        let p = HostProf::new(64, 1 << 14);
        for _ in 0..4096 {
            {
                let _probe = p.span(HostStage::LocalProbe);
            }
            let _miss = p.span(HostStage::MissTotal);
        }
        let snap = p.snapshot();
        let probe = snap.stage(HostStage::LocalProbe).timed;
        let miss = snap.stage(HostStage::MissTotal).timed;
        assert!(probe > 0, "probe roots never sampled");
        assert!(miss > 0, "miss roots never sampled despite 4096 occurrences");
        // Both see roughly 64 hits; 8x slack covers the variance.
        assert!(probe < 512 && miss < 512, "probe {probe} miss {miss}");
    }

    #[test]
    fn event_buffer_is_bounded_and_counts_drops() {
        let p = HostProf::new(1, 3);
        for _ in 0..10 {
            let _s = p.span(HostStage::NetModel);
        }
        let snap = p.snapshot();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.dropped_events, 7);
    }

    #[test]
    fn record_attributes_manual_intervals() {
        let p = HostProf::new(64, 16);
        p.register_thread("worker0");
        p.record(HostStage::SchedSlotRun, 100, 350);
        let snap = p.snapshot();
        let s = snap.stage(HostStage::SchedSlotRun);
        assert_eq!((s.count, s.timed, s.self_ns, s.total_ns), (1, 1, 250, 250));
        assert_eq!(
            snap.events,
            vec![HostEvent { tid: 0, stage: HostStage::SchedSlotRun, start_ns: 100, dur_ns: 250 }]
        );
        assert_eq!(snap.threads, vec!["worker0".to_string()]);
    }

    #[test]
    fn threads_register_lazily_with_fallback_names() {
        let p = HostProf::new(1, 16);
        std::thread::scope(|s| {
            let p = &p;
            s.spawn(move || {
                let _s = p.span(HostStage::SchedPark);
            });
        });
        let snap = p.snapshot();
        assert_eq!(snap.threads.len(), 1);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].tid, 0);
    }

    #[test]
    fn estimates_scale_by_exact_count() {
        let snap = StageSnap {
            stage: HostStage::DirLookup,
            count: 100,
            timed: 10,
            self_ns: 1000,
            total_ns: 2000,
        };
        assert_eq!(snap.self_ns_per_op(), 100.0);
        assert_eq!(snap.est_self_ns(), 10_000.0);
        assert_eq!(snap.est_total_ns(), 20_000.0);
    }

    #[test]
    fn interleaved_profilers_do_not_cross_attribute() {
        let a = HostProf::new(1, 16);
        let b = HostProf::new(1, 16);
        {
            let _sa = a.span(HostStage::MissTotal);
            let _sb = b.span(HostStage::DirLookup);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let sa = a.snapshot();
        let sb = b.snapshot();
        // b's span is a root for b, not a child of a's span.
        assert_eq!(sa.stage(HostStage::MissTotal).count, 1);
        assert_eq!(sb.stage(HostStage::DirLookup).count, 1);
        assert_eq!(
            sa.stage(HostStage::MissTotal).self_ns,
            sa.stage(HostStage::MissTotal).total_ns,
            "foreign profiler spans must not subtract from self time"
        );
    }
}
