//! M:N guest scheduler: many tile contexts over a fixed pool of execution
//! slots.
//!
//! Thread-per-tile execution stops scaling around a few hundred tiles: the
//! host kernel time-slices hundreds of runnable threads over a handful of
//! cores, every shared lock (the barrier state, the P2P partner RNG) becomes
//! a convoy, and LaxBarrier quanta *fight* the host scheduler — the release
//! broadcast makes every waiter runnable at once, to be trickled through the
//! cores a context switch at a time.
//!
//! [`GuestScheduler`] inverts this. A *started* guest context owns a
//! dedicated host thread as its stack carrier (resumable stacks without
//! unsafe code), but only `workers` contexts hold an *execution slot* at any
//! instant; the rest sit in per-worker run-queues, unknown to the host
//! kernel's run queue. Carrier threads are created **lazily**, at the first
//! slot grant ([`GuestScheduler::submit`]): a spawned-but-not-yet-scheduled
//! context is pure run-queue state, so peak host threads are bounded by
//! `workers` plus the contexts blocked mid-execution — not by the tile
//! count. A thousand-tile run-to-completion workload over a 2-slot pool
//! peaks at a handful of host threads where thread-per-tile needs a
//! thousand. Every guest blocking point — join, futex wait, message receive,
//! sync-model quanta — routes through the [`Blocker`] seam and yields its
//! slot cooperatively, so a LaxBarrier release or LaxP2P rendezvous *drives*
//! which context runs next instead of waking a thundering herd:
//!
//! * [`Blocker::blocking`] brackets a self-bounded wait (channel receive,
//!   timed sleep): release the slot, wait, reacquire.
//! * [`Blocker::park`] / [`Blocker::unpark`] serve externally-released
//!   waits: a barrier release unparks exactly the recorded waiters, each of
//!   which re-queues for a slot in arrival order.
//!
//! With `workers >= tiles` no context ever waits for a slot and the machine
//! degenerates to exact thread-per-tile behaviour — the baseline every
//! scheduled run is measured against. Simulated time is unaffected either
//! way: slots gate only *host* execution order, which the lax models already
//! tolerate by design (paper §3.6).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use graphite_base::{Blocker, CachePadded, HostProf, HostStage, TileId};
use graphite_trace::{MetricsRegistry, Obs, ShardedMetric};
use parking_lot::{Condvar, Mutex};

/// Deferred context start: runs once, when the context is first granted an
/// execution slot, and is expected to create the context's carrier thread.
type StartFn = Box<dyn FnOnce() + Send>;

/// Scheduler event counters (`sched.*`), one cache-padded lane per tile —
/// attach/detach run on every blocking operation, so updates land in the
/// acting tile's own lane (single writer: only the tile's host thread
/// reaches it).
#[derive(Debug, Default)]
pub struct SchedStats {
    /// Cooperative slot releases through [`Blocker::blocking`].
    pub yields: ShardedMetric,
    /// Times a context had to queue for a slot (no slot free on attach).
    pub parks: ShardedMetric,
    /// Slot handoffs directly to a queued context on release.
    pub handoffs: ShardedMetric,
    /// Handoffs served from *another* worker's run-queue.
    pub steals: ShardedMetric,
    /// Cumulative queued-context count sampled at each enqueue
    /// (`runq_depth / parks` = mean run-queue depth seen by a parking
    /// context).
    pub runq_depth: ShardedMetric,
    /// Carrier threads created (lazily, at first slot grant).
    pub threads_spawned: ShardedMetric,
    /// Peak simultaneously-live carrier threads (guest contexts only; the
    /// driver thread is not counted).
    pub threads_peak: ShardedMetric,
}

impl SchedStats {
    /// Builds stats registered in `metrics` under the `sched.*` namespace.
    pub fn registered(metrics: &MetricsRegistry) -> Self {
        SchedStats {
            yields: metrics.sharded_counter("sched.yields"),
            parks: metrics.sharded_counter("sched.parks"),
            handoffs: metrics.sharded_counter("sched.handoffs"),
            steals: metrics.sharded_counter("sched.steals"),
            runq_depth: metrics.sharded_counter("sched.runq_depth"),
            threads_spawned: metrics.sharded_counter("sched.threads_spawned"),
            threads_peak: metrics.sharded_max("sched.threads_peak"),
        }
    }
}

/// Which runnable contexts are waiting for a slot, per worker lane.
#[derive(Debug)]
struct SchedState {
    /// Execution slots not currently held by any context.
    free: usize,
    /// Per-worker run-queues; context `t` enqueues on lane `t % workers`.
    runqs: Vec<VecDeque<u32>>,
    /// Total contexts across all run-queues.
    queued: usize,
}

/// Per-context wakeup channel. Two independent one-shot tokens share the
/// mutex: `slot` (granted by a slot handoff) and `unpark` (granted by
/// [`Blocker::unpark`]); a context only ever waits on one of them at a time
/// because it owns exactly one host thread.
#[derive(Debug, Default)]
struct CtxParker {
    lock: Mutex<CtxTokens>,
    cv: Condvar,
}

impl CtxParker {
    /// Deposits the slot token and wakes the context. The guard is dropped
    /// before the notify: a carrier woken under the lock runs straight into
    /// it and sleeps again.
    fn grant_slot(&self) {
        self.lock.lock().slot = true;
        self.cv.notify_one();
    }
}

/// Everything the scheduler keeps per context, on a padded block of its own:
/// neighbouring contexts park, wake and stamp on different host threads.
#[derive(Default)]
struct CtxSlot {
    parker: CtxParker,
    /// Deferred start of a context submitted while all slots were held: the
    /// context has **no carrier thread yet** — it is run-queue state only —
    /// and the stored closure creates the thread when a slot is granted.
    /// This is what bounds peak host threads by the pool width (plus
    /// blocked-but-started contexts) instead of by the tile count.
    start: Mutex<Option<StartFn>>,
    /// Slot-occupancy start (ns since the profiler epoch, 0 = not holding a
    /// slot); feeds the `sched.slot_run` busy accounting.
    run_start: AtomicU64,
}

#[derive(Debug, Default)]
struct CtxTokens {
    slot: bool,
    unpark: bool,
    /// The context is asleep inside [`Blocker::park`]: an arriving unpark
    /// re-queues it for a slot directly (one wake when the slot arrives)
    /// instead of waking the thread just so it can sleep again in attach.
    slot_parked: bool,
}

/// The M:N guest scheduler (see the module docs for the execution model).
pub struct GuestScheduler {
    workers: usize,
    state: Mutex<SchedState>,
    ctxs: Vec<CachePadded<CtxSlot>>,
    /// Live carrier threads, maintained via [`Self::carrier_started`] /
    /// [`Self::carrier_exited`].
    live_carriers: AtomicU64,
    stats: SchedStats,
    /// Host-cost profiler (`host.sched.*` stages). Disabled by default.
    prof: Arc<HostProf>,
}

impl std::fmt::Debug for GuestScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("GuestScheduler")
            .field("workers", &self.workers)
            .field("free", &s.free)
            .field("queued", &s.queued)
            .finish()
    }
}

impl GuestScheduler {
    /// A scheduler multiplexing `tiles` contexts over `workers` slots
    /// (`workers == 0` selects the auto default
    /// `min(host parallelism, tiles)`), with `sched.*` counters registered
    /// in `obs.metrics`.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is zero.
    pub fn new(workers: u32, tiles: u32, obs: &Obs) -> Arc<Self> {
        assert!(tiles > 0, "scheduler needs at least one context");
        let workers = Self::resolve_workers(workers, tiles);
        Arc::new(GuestScheduler {
            workers,
            state: Mutex::new(SchedState {
                free: workers,
                runqs: (0..workers).map(|_| VecDeque::new()).collect(),
                queued: 0,
            }),
            ctxs: (0..tiles).map(|_| CachePadded::default()).collect(),
            live_carriers: AtomicU64::new(0),
            stats: SchedStats::registered(&obs.metrics),
            prof: Arc::clone(&obs.hostprof),
        })
    }

    /// Stamps `tile` as holding a slot from now (host profiling only).
    #[inline]
    fn note_slot_acquired(&self, tile: TileId) {
        if self.prof.is_enabled() {
            self.ctxs[tile.index()].run_start.store(self.prof.now_ns(), Ordering::Relaxed);
        }
    }

    /// Closes `tile`'s slot-occupancy interval into `sched.slot_run`.
    #[inline]
    fn note_slot_released(&self, tile: TileId) {
        if self.prof.is_enabled() {
            let start = self.ctxs[tile.index()].run_start.swap(0, Ordering::Relaxed);
            if start != 0 {
                self.prof.record(HostStage::SchedSlotRun, start, self.prof.now_ns());
            }
        }
    }

    /// The effective slot count for a `[scheduler] workers` setting:
    /// `0` (auto) resolves to `min(host parallelism, tiles)`, anything else
    /// is clamped to the context count (extra slots could never be held).
    pub fn resolve_workers(workers: u32, tiles: u32) -> usize {
        let n = if workers == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get() as u32)
        } else {
            workers
        };
        n.min(tiles).max(1) as usize
    }

    /// Host address of `tile`'s parker lock, for layout tests.
    #[doc(hidden)]
    pub fn parker_addr(&self, tile: TileId) -> usize {
        graphite_base::padded::addr_of(&self.ctxs[tile.index()].parker.lock)
    }

    /// Number of execution slots.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Scheduler counters.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// Submits a **new** context whose carrier thread has not been created
    /// yet. If a slot is free the context starts immediately (`start` runs on
    /// the calling thread and must create the carrier, which begins execution
    /// *owning* the slot — it must not call [`Self::attach`] first). If all
    /// slots are held the start is deferred: the context occupies only a
    /// run-queue entry — no host thread — until a slot handoff reaches it.
    pub fn submit(&self, tile: TileId, start: StartFn) {
        let me = tile.0;
        {
            let mut s = self.state.lock();
            if s.free > 0 {
                s.free -= 1;
                drop(s);
                self.note_slot_acquired(tile);
                let _sp = self.prof.span(HostStage::SchedSpawn);
                start();
                return;
            }
            *self.ctxs[tile.index()].start.lock() = Some(start);
            s.runqs[me as usize % self.workers].push_back(me);
            s.queued += 1;
            self.stats.parks.incr(tile.index());
            self.stats.runq_depth.add(tile.index(), s.queued as u64);
        }
    }

    /// Records a carrier thread coming alive (called by the start closure).
    pub fn carrier_started(&self, tile: TileId) {
        let live = self.live_carriers.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.threads_spawned.incr(tile.index());
        self.stats.threads_peak.observe_max(tile.index(), live);
    }

    /// Records a carrier thread finishing (its context exited).
    pub fn carrier_exited(&self) {
        self.live_carriers.fetch_sub(1, Ordering::Relaxed);
    }

    /// Acquires an execution slot for `tile`, queueing until one is handed
    /// over if all are held. Called when a context starts and after every
    /// blocking operation completes.
    pub fn attach(&self, tile: TileId) {
        let me = tile.0;
        {
            let mut s = self.state.lock();
            if s.free > 0 {
                s.free -= 1;
                drop(s);
                self.note_slot_acquired(tile);
                return;
            }
            s.runqs[me as usize % self.workers].push_back(me);
            s.queued += 1;
            self.stats.parks.incr_owned(tile.index());
            self.stats.runq_depth.add_owned(tile.index(), s.queued as u64);
        }
        {
            let _w = self.prof.span(HostStage::SchedSlotWait);
            let p = &self.ctxs[tile.index()].parker;
            let mut t = p.lock.lock();
            while !t.slot {
                p.cv.wait(&mut t);
            }
            t.slot = false;
        }
        self.note_slot_acquired(tile);
    }

    /// Releases `tile`'s execution slot, handing it directly to a queued
    /// context if any: the departing context's own worker lane first, then a
    /// steal scan over the other lanes.
    pub fn detach(&self, tile: TileId) {
        self.note_slot_released(tile);
        let _h = self.prof.span(HostStage::SchedHandoff);
        let next = {
            let mut s = self.state.lock();
            let lane = tile.0 as usize % self.workers;
            let mut stolen = false;
            let mut next = s.runqs[lane].pop_front();
            if next.is_none() {
                let _st = self.prof.span(HostStage::SchedSteal);
                for off in 1..self.workers {
                    if let Some(t) = s.runqs[(lane + off) % self.workers].pop_front() {
                        next = Some(t);
                        stolen = true;
                        break;
                    }
                }
            }
            match next {
                Some(t) => {
                    s.queued -= 1;
                    self.stats.handoffs.incr_owned(tile.index());
                    if stolen {
                        self.stats.steals.incr_owned(tile.index());
                    }
                    Some(t)
                }
                None => {
                    s.free += 1;
                    None
                }
            }
        };
        if let Some(t) = next {
            // A context that never started has no thread to wake: the slot
            // grant *creates* its carrier (lazy start). Otherwise deposit the
            // slot token for the parked thread.
            let start = self.ctxs[t as usize].start.lock().take();
            if let Some(start) = start {
                self.note_slot_acquired(TileId(t));
                let _sp = self.prof.span(HostStage::SchedSpawn);
                start();
                return;
            }
            self.ctxs[t as usize].parker.grant_slot();
        }
    }

    /// Queues an unparked-but-sleeping context for a slot on its waker's
    /// behalf, granting immediately if one is free. Part of the fused
    /// unpark path: the context's own thread stays asleep until the slot
    /// token arrives.
    fn enqueue_for_slot(&self, tile: TileId) {
        let me = tile.0;
        {
            let mut s = self.state.lock();
            if s.free == 0 {
                s.runqs[me as usize % self.workers].push_back(me);
                s.queued += 1;
                // Counter writes come from the waking thread, not the tile's
                // own: use the shared (atomic) increment.
                self.stats.parks.incr(tile.index());
                self.stats.runq_depth.add(tile.index(), s.queued as u64);
                return;
            }
            s.free -= 1;
        }
        self.ctxs[tile.index()].parker.grant_slot();
    }
}

impl Blocker for GuestScheduler {
    fn blocking(&self, tile: TileId, wait: &mut dyn FnMut()) {
        self.stats.yields.incr_owned(tile.index());
        self.detach(tile);
        wait();
        self.attach(tile);
    }

    fn park(&self, tile: TileId) {
        self.detach(tile);
        {
            let _w = self.prof.span(HostStage::SchedPark);
            let p = &self.ctxs[tile.index()].parker;
            let mut t = p.lock.lock();
            if t.unpark {
                // Banked unpark (release beat us here): reacquire normally.
                t.unpark = false;
                drop(t);
                drop(_w);
                self.attach(tile);
                return;
            }
            // Advertise the fused path: the unparker re-queues this context
            // for a slot itself, so this thread sleeps through the release
            // and wakes exactly once — when both the unpark and a slot token
            // are in.
            t.slot_parked = true;
            while !(t.unpark && t.slot) {
                p.cv.wait(&mut t);
            }
            t.unpark = false;
            t.slot = false;
        }
        self.note_slot_acquired(tile);
    }

    fn unpark(&self, tile: TileId) {
        let _u = self.prof.span(HostStage::SchedUnpark);
        let p = &self.ctxs[tile.index()].parker;
        let mut t = p.lock.lock();
        t.unpark = true;
        if t.slot_parked {
            // Fused wake: put the sleeping context straight on the run-queue
            // (or hand it a free slot) without waking its thread; it gets
            // one wake, when the slot token lands. Callers may hold their
            // own model lock (barrier release): the scheduler state lock is
            // taken only after the parker lock is dropped, and no scheduler
            // path holds the state lock while taking a model lock.
            t.slot_parked = false;
            drop(t);
            self.enqueue_for_slot(tile);
        } else {
            // Not under the lock: see `CtxParker::grant_slot`.
            drop(t);
            p.cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    use super::*;

    fn sched(workers: u32, tiles: u32) -> Arc<GuestScheduler> {
        GuestScheduler::new(workers, tiles, &Obs::detached(tiles as usize))
    }

    #[test]
    fn resolve_workers_clamps_and_autodetects() {
        assert_eq!(GuestScheduler::resolve_workers(8, 4), 4, "clamped to tiles");
        assert_eq!(GuestScheduler::resolve_workers(3, 64), 3);
        let auto = GuestScheduler::resolve_workers(0, 1024);
        assert!((1..=1024).contains(&auto));
        assert_eq!(GuestScheduler::resolve_workers(0, 1), 1);
    }

    #[test]
    fn slots_bound_concurrency() {
        // 8 contexts over 2 slots: at no instant do more than 2 run.
        let s = sched(2, 8);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8u32)
            .map(|t| {
                let s = Arc::clone(&s);
                let running = Arc::clone(&running);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        s.attach(TileId(t));
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_micros(50));
                        running.fetch_sub(1, Ordering::SeqCst);
                        s.detach(TileId(t));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak <= 2, "{peak} contexts ran concurrently over 2 slots");
        assert!(s.stats().parks.get() > 0, "8 contexts over 2 slots must queue");
        assert!(s.stats().handoffs.get() > 0);
    }

    #[test]
    fn blocking_releases_the_slot_for_others() {
        // One slot, two contexts: context 0 blocks on a condition only
        // context 1 can set — progress proves `blocking` released the slot.
        let s = sched(1, 2);
        let flag = Arc::new(AtomicUsize::new(0));
        let s0 = Arc::clone(&s);
        let f0 = Arc::clone(&flag);
        let h = std::thread::spawn(move || {
            s0.attach(TileId(0));
            s0.blocking(TileId(0), &mut || {
                while f0.load(Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_micros(50));
                }
            });
            s0.detach(TileId(0));
        });
        std::thread::sleep(Duration::from_millis(5));
        s.attach(TileId(1)); // acquires the slot context 0 released
        flag.store(1, Ordering::SeqCst);
        s.detach(TileId(1));
        h.join().unwrap();
        assert!(s.stats().yields.get() >= 1);
    }

    #[test]
    fn park_waits_for_unpark_and_requeues() {
        let s = sched(1, 2);
        let s0 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            s0.attach(TileId(0));
            s0.park(TileId(0)); // releases the slot until unparked
            s0.detach(TileId(0));
        });
        std::thread::sleep(Duration::from_millis(5));
        s.attach(TileId(1));
        assert!(!h.is_finished(), "parked context must wait for unpark");
        s.unpark(TileId(0)); // tile 0 becomes runnable, queues behind us
        std::thread::sleep(Duration::from_millis(5));
        assert!(!h.is_finished(), "unparked context still needs a slot");
        s.detach(TileId(1));
        h.join().unwrap();
    }

    #[test]
    fn unpark_before_park_is_banked() {
        let s = sched(1, 1);
        s.unpark(TileId(0));
        s.attach(TileId(0));
        s.park(TileId(0)); // token already granted: returns immediately
        s.detach(TileId(0));
    }

    #[test]
    fn detach_steals_from_other_lanes() {
        // 2 workers; tiles 0 and 2 both map to lane 0, tile 3 to lane 1.
        // Fill both slots, queue tile 3 (lane 1), then release from a
        // lane-0 holder whose own queue is empty: it must steal from lane 1.
        let s = sched(2, 4);
        s.attach(TileId(0));
        s.attach(TileId(2));
        let s3 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            s3.attach(TileId(3));
            s3.detach(TileId(3));
        });
        std::thread::sleep(Duration::from_millis(5));
        s.detach(TileId(0)); // own lane empty → steals tile 3 from lane 1
        h.join().unwrap();
        assert!(s.stats().steals.get() >= 1, "cross-lane handoff must count as a steal");
        s.detach(TileId(2));
    }

    #[test]
    fn full_width_pool_never_queues() {
        let s = sched(4, 4);
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        s.attach(TileId(t));
                        s.detach(TileId(t));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.stats().parks.get(), 0, "workers == tiles must behave thread-per-tile");
    }
}
