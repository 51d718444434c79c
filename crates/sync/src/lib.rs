//! Synchronization models (paper §3.6).
//!
//! To meet its performance goals Graphite lets tile clocks run almost
//! independently — it is *not* cycle-accurate — and offers three models
//! trading accuracy for speed:
//!
//! * [`LaxSync`] — clocks meet only at application events (baseline,
//!   fastest, largest skew, §3.6.1);
//! * [`BarrierSync`] — all *active* threads rendezvous every quantum of
//!   simulated cycles; small quanta closely approximate cycle-accuracy
//!   (§3.6.2, used as the accuracy baseline in Table 3);
//! * [`P2PSync`] — the paper's novel distributed scheme: each tile
//!   periodically compares clocks with a random partner and, when ahead by
//!   more than the configured *slack*, sleeps for `s = c / r` wall-clock
//!   seconds, where `c` is the clock difference and `r` the measured
//!   simulation progress rate (§3.6.3).
//!
//! All models implement [`Synchronizer`]; the simulator invokes
//! [`Synchronizer::on_progress`] as tile clocks advance, and brackets any
//! blocking guest operation with [`Synchronizer::deactivate`] /
//! [`Synchronizer::activate`] so a barrier never waits on a blocked thread.

pub mod skew;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphite_base::{Blocker, CachePadded, Clock, InlineBlocker, SimRng, TileId};
use graphite_ckpt::{stream, ReplayLog};
use graphite_config::SyncModel;
use graphite_trace::{MetricsRegistry, Obs, ShardedMetric, TraceEventKind, Tracer};
use parking_lot::Mutex;

pub use skew::{SkewSample, SkewSampler};

/// Statistics common to all synchronization models.
///
/// Every counter is a [`ShardedMetric`] with one lane per tile:
/// `on_progress` runs on every tile thread's hot loop, so updates land in
/// the acting tile's cache-padded lane instead of a shared cell. Each name
/// still snapshots as a single scalar (`sync.*` in `metrics.json`).
#[derive(Debug, Default)]
pub struct SyncStats {
    /// Barrier episodes completed (BarrierSync).
    pub barrier_releases: ShardedMetric,
    /// Times a thread waited at the barrier.
    pub barrier_waits: ShardedMetric,
    /// P2P random-partner checks performed.
    pub p2p_checks: ShardedMetric,
    /// P2P checks that resulted in a sleep.
    pub p2p_sleeps: ShardedMetric,
    /// Total wall-clock microseconds slept by P2P.
    pub p2p_sleep_us: ShardedMetric,
}

impl SyncStats {
    /// Builds stats registered in `metrics` under the `sync.*` namespace.
    pub fn registered(metrics: &MetricsRegistry) -> Self {
        SyncStats {
            barrier_releases: metrics.sharded_counter("sync.barrier_releases"),
            barrier_waits: metrics.sharded_counter("sync.barrier_waits"),
            p2p_checks: metrics.sharded_counter("sync.p2p_checks"),
            p2p_sleeps: metrics.sharded_counter("sync.p2p_sleeps"),
            p2p_sleep_us: metrics.sharded_counter("sync.p2p_sleep_us"),
        }
    }
}

/// A synchronization model. Object-safe; the simulator holds a
/// `Arc<dyn Synchronizer>`.
pub trait Synchronizer: Send + Sync {
    /// Model name for reports.
    fn name(&self) -> &'static str;

    /// Invoked by a tile's thread after local progress; may block (barrier)
    /// or sleep (P2P).
    fn on_progress(&self, tile: TileId);

    /// Marks a tile's thread as participating (spawned / resumed from a
    /// blocking operation).
    fn activate(&self, tile: TileId);

    /// Marks a tile's thread as not participating (blocked or exited).
    fn deactivate(&self, tile: TileId);

    /// Statistics so far.
    fn stats(&self) -> &SyncStats;

    /// Checkpoint export of the model's simulated-state words (barrier
    /// target/generation, P2P rng and last-check clocks). Activation state is
    /// *not* saved: threads re-activate as the restored simulation restarts
    /// them. Stateless models return an empty vec.
    fn save_state(&self) -> Vec<u64> {
        vec![]
    }

    /// Restores words captured by [`Synchronizer::save_state`]; returns
    /// `false` when they do not fit this model.
    fn load_state(&self, data: &[u64]) -> bool {
        data.is_empty()
    }
}

/// Builds the configured synchronization model over the simulation's tile
/// clocks.
pub fn build_synchronizer(
    model: SyncModel,
    clocks: Arc<Vec<Arc<Clock>>>,
    seed: u64,
) -> Arc<dyn Synchronizer> {
    let tiles = clocks.len() as u32;
    let obs = Obs::detached(tiles as usize);
    let replay = Arc::new(ReplayLog::off());
    build_synchronizer_sched(model, clocks, seed, &obs, replay, Arc::new(InlineBlocker::new(tiles)))
}

/// Builds the configured synchronization model with counters registered
/// under `sync.*` in `obs.metrics`, barrier/P2P activity traced through
/// `obs.tracer`, the model's nondeterministic choices (the LaxP2P partner
/// pick) threaded through `replay` so a recorded run can be replayed
/// bit-identically, and its blocking points (barrier waits, P2P sleeps)
/// threaded through `blocker` so an M:N guest scheduler can reclaim the
/// execution slot while a tile waits. [`build_synchronizer`] uses
/// [`InlineBlocker`], which blocks in place (thread-per-tile semantics).
pub fn build_synchronizer_sched(
    model: SyncModel,
    clocks: Arc<Vec<Arc<Clock>>>,
    seed: u64,
    obs: &Obs,
    replay: Arc<ReplayLog>,
    blocker: Arc<dyn Blocker>,
) -> Arc<dyn Synchronizer> {
    match model {
        SyncModel::Lax => Arc::new(LaxSync::with_obs(obs)),
        SyncModel::LaxBarrier { quantum } => {
            Arc::new(BarrierSync::with_blocker(quantum, clocks, obs, blocker))
        }
        SyncModel::LaxP2P { slack, check_interval } => Arc::new(P2PSync::with_blocker(
            slack,
            check_interval,
            clocks,
            seed,
            obs,
            replay,
            blocker,
        )),
    }
}

/// Plain lax synchronization: a no-op scheduler hook. Clocks are reconciled
/// only by message timestamps at true application events, handled elsewhere.
#[derive(Debug, Default)]
pub struct LaxSync {
    stats: SyncStats,
}

impl LaxSync {
    /// Creates the model.
    pub fn new() -> Self {
        LaxSync { stats: SyncStats::default() }
    }

    /// Creates the model with its (always-zero) stats registered in
    /// `obs.metrics`, so reports and exports agree on the model's inactivity.
    pub fn with_obs(obs: &Obs) -> Self {
        LaxSync { stats: SyncStats::registered(&obs.metrics) }
    }
}

impl Synchronizer for LaxSync {
    fn name(&self) -> &'static str {
        "Lax"
    }

    fn on_progress(&self, _tile: TileId) {}

    fn activate(&self, _tile: TileId) {}

    fn deactivate(&self, _tile: TileId) {}

    fn stats(&self) -> &SyncStats {
        &self.stats
    }
}

#[derive(Debug)]
struct BarrierState {
    /// Threads currently participating.
    active: usize,
    /// Threads waiting at the current quantum boundary.
    arrived: usize,
    /// The boundary (in cycles) every active thread must reach.
    target: u64,
    /// Release generation (a release counter, checkpointed).
    generation: u64,
    /// The tiles parked at the current boundary; the release unparks each
    /// one by name, so a guest scheduler requeues exactly the contexts that
    /// became runnable instead of waking a thundering herd.
    waiters: Vec<TileId>,
}

/// Quanta-based barrier synchronization (LaxBarrier, §3.6.2): "all active
/// threads wait on a barrier after a configurable number of cycles".
pub struct BarrierSync {
    quantum: u64,
    clocks: Arc<Vec<Arc<Clock>>>,
    state: Mutex<BarrierState>,
    /// Mirror of `state.target`, stored wherever the target is (under the
    /// state lock). The target only grows, so a stale read is a lower bound:
    /// a clock below it is below the target, and `on_progress` — called on
    /// every guest op — returns without taking the lock. Padded: read per
    /// op by every tile, it must not share a line with the lock word.
    target: CachePadded<AtomicU64>,
    blocker: Arc<dyn Blocker>,
    stats: SyncStats,
    tracer: Arc<Tracer>,
}

impl std::fmt::Debug for BarrierSync {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("BarrierSync")
            .field("quantum", &self.quantum)
            .field("active", &s.active)
            .field("target", &s.target)
            .finish()
    }
}

impl BarrierSync {
    /// Creates a barrier with the given quantum (cycles).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn new(quantum: u64, clocks: Arc<Vec<Arc<Clock>>>) -> Self {
        let tiles = clocks.len() as u32;
        let obs = Obs::detached(tiles as usize);
        Self::with_blocker(quantum, clocks, &obs, Arc::new(InlineBlocker::new(tiles)))
    }

    /// Like [`BarrierSync::new`], with observability wiring, parking waiters
    /// through `blocker` so an M:N guest scheduler can reclaim their
    /// execution slots.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn with_blocker(
        quantum: u64,
        clocks: Arc<Vec<Arc<Clock>>>,
        obs: &Obs,
        blocker: Arc<dyn Blocker>,
    ) -> Self {
        assert!(quantum > 0, "barrier quantum must be positive");
        BarrierSync {
            quantum,
            clocks,
            state: Mutex::new(BarrierState {
                active: 0,
                arrived: 0,
                target: quantum,
                generation: 0,
                waiters: Vec::new(),
            }),
            target: CachePadded::new(AtomicU64::new(quantum)),
            blocker,
            stats: SyncStats::registered(&obs.metrics),
            tracer: Arc::clone(&obs.tracer),
        }
    }

    fn release_locked(&self, tile: TileId, s: &mut BarrierState) {
        let waiters = s.arrived as u64;
        s.generation += 1;
        s.arrived = 0;
        s.target += self.quantum;
        self.target.store(s.target, Ordering::Relaxed);
        // Lane = the acting tile; lane writes are serialized by the barrier
        // mutex held here, so the owned (plain load+store) update is safe.
        self.stats.barrier_releases.incr_owned(tile.index());
        self.tracer.emit(tile, self.clocks[tile.index()].now(), || {
            TraceEventKind::BarrierRelease { waiters }
        });
        // Wake exactly the recorded waiters ([`Blocker::unpark`] never
        // blocks, so holding the state lock here is safe); each consumes its
        // token and requeues for an execution slot.
        for w in std::mem::take(&mut s.waiters) {
            self.blocker.unpark(w);
        }
    }
}

impl Synchronizer for BarrierSync {
    fn name(&self) -> &'static str {
        "LaxBarrier"
    }

    fn on_progress(&self, tile: TileId) {
        let clock = &self.clocks[tile.index()];
        // Under the boundary: exactly the locked path's first return, taken
        // without the lock every tile would otherwise fight over per op.
        if clock.now().0 < self.target.load(Ordering::Relaxed) {
            return;
        }
        // A long memory stall can cross several quanta in one advance; wait
        // out each boundary in turn.
        loop {
            let mut s = self.state.lock();
            if clock.now().0 < s.target || s.active <= 1 {
                // Alone (or under the boundary): advance the target lazily so
                // a solo thread never self-blocks.
                while s.active <= 1 && clock.now().0 >= s.target {
                    self.release_locked(tile, &mut s);
                }
                return;
            }
            // A quantum park that returned before its release (a stray
            // unpark token) would count this tile's arrival twice.
            debug_assert!(!s.waiters.contains(&tile), "{tile} arrived while still waiting");
            s.arrived += 1;
            if s.arrived >= s.active {
                self.release_locked(tile, &mut s);
            } else {
                self.stats.barrier_waits.incr_owned(tile.index());
                let quantum_target = s.target;
                self.tracer.emit(tile, clock.now(), || TraceEventKind::BarrierWait {
                    quantum: quantum_target,
                });
                s.waiters.push(tile);
                drop(s);
                // Park outside the state lock; an early release between the
                // drop and the park just banks the unpark token.
                self.blocker.park(tile);
            }
        }
    }

    fn activate(&self, _tile: TileId) {
        let mut s = self.state.lock();
        s.active += 1;
    }

    fn deactivate(&self, tile: TileId) {
        let mut s = self.state.lock();
        debug_assert!(s.active > 0, "deactivate without activate");
        s.active = s.active.saturating_sub(1);
        if s.active > 0 && s.arrived >= s.active {
            self.release_locked(tile, &mut s);
        }
    }

    fn stats(&self) -> &SyncStats {
        &self.stats
    }

    /// `[target, generation]`; active/arrived are rebuilt by re-activation.
    fn save_state(&self) -> Vec<u64> {
        let s = self.state.lock();
        vec![s.target, s.generation]
    }

    fn load_state(&self, data: &[u64]) -> bool {
        let [target, generation] = *data else {
            return false;
        };
        if target == 0 || !target.is_multiple_of(self.quantum) {
            return false;
        }
        let mut s = self.state.lock();
        s.target = target;
        self.target.store(target, Ordering::Relaxed);
        s.generation = generation;
        true
    }
}

#[derive(Debug, Default)]
struct P2PTile {
    active: AtomicBool,
    /// The tile's clock value at its last check.
    last_check: AtomicU64,
}

/// The paper's point-to-point scheme (LaxP2P, §3.6.3): random pairwise clock
/// checks with slack-bounded sleeping. Completely distributed — no global
/// structures are consulted on the hot path.
pub struct P2PSync {
    slack: u64,
    check_interval: u64,
    clocks: Arc<Vec<Arc<Clock>>>,
    /// Per-tile state, each tile's on a padded block of its own: the owner
    /// reads `last_check` on every guest op.
    tiles: Vec<CachePadded<P2PTile>>,
    rng: Mutex<SimRng>,
    /// Record/replay of partner picks; [`ReplayLog::off`] when unused.
    replay: Arc<ReplayLog>,
    blocker: Arc<dyn Blocker>,
    start: Instant,
    stats: SyncStats,
    /// Cap on a single sleep to bound the damage of a bad rate estimate.
    max_sleep: Duration,
    tracer: Arc<Tracer>,
}

impl std::fmt::Debug for P2PSync {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("P2PSync")
            .field("slack", &self.slack)
            .field("check_interval", &self.check_interval)
            .field("tiles", &self.clocks.len())
            .finish()
    }
}

impl P2PSync {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `check_interval` is zero.
    pub fn new(slack: u64, check_interval: u64, clocks: Arc<Vec<Arc<Clock>>>, seed: u64) -> Self {
        let tiles = clocks.len() as u32;
        let obs = Obs::detached(tiles as usize);
        let replay = Arc::new(ReplayLog::off());
        let blocker = Arc::new(InlineBlocker::new(tiles));
        Self::with_blocker(slack, check_interval, clocks, seed, &obs, replay, blocker)
    }

    /// Like [`P2PSync::new`], with observability wiring, routing partner
    /// picks through `replay` so a recorded run's pairing decisions can be
    /// reproduced exactly, and running catch-up sleeps through `blocker` so
    /// an M:N guest scheduler can reclaim the sleeper's execution slot for a
    /// tile that is behind.
    ///
    /// # Panics
    ///
    /// Panics if `check_interval` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn with_blocker(
        slack: u64,
        check_interval: u64,
        clocks: Arc<Vec<Arc<Clock>>>,
        seed: u64,
        obs: &Obs,
        replay: Arc<ReplayLog>,
        blocker: Arc<dyn Blocker>,
    ) -> Self {
        assert!(check_interval > 0, "check interval must be positive");
        let n = clocks.len();
        P2PSync {
            slack,
            check_interval,
            clocks,
            tiles: (0..n).map(|_| CachePadded::default()).collect(),
            rng: Mutex::new(SimRng::new(seed)),
            replay,
            blocker,
            start: Instant::now(),
            stats: SyncStats::registered(&obs.metrics),
            max_sleep: Duration::from_millis(20),
            tracer: Arc::clone(&obs.tracer),
        }
    }

    /// The measured progress rate `r` in simulated cycles per wall second:
    /// total simulated progress over total wall-clock time (paper §3.6.3).
    fn progress_rate(&self, my_clock: u64) -> f64 {
        let elapsed = self.start.elapsed().as_secs_f64().max(1e-6);
        // Total progress approximated by the fastest clock we know — our own
        // (we are ahead, that is why we are sleeping).
        (my_clock as f64 / elapsed).max(1.0)
    }
}

impl Synchronizer for P2PSync {
    fn name(&self) -> &'static str {
        "LaxP2P"
    }

    fn on_progress(&self, tile: TileId) {
        let me = tile.index();
        let now = self.clocks[me].now().0;
        let last = self.tiles[me].last_check.load(Ordering::Relaxed);
        if now.saturating_sub(last) < self.check_interval {
            return;
        }
        self.tiles[me].last_check.store(now, Ordering::Relaxed);
        // Choose a random *other* active tile.
        let n = self.clocks.len();
        if n <= 1 {
            return;
        }
        let partner = {
            let mut rng = self.rng.lock();
            let draw = self
                .replay
                .record_or_replay_u64(stream::P2P_PARTNER, || rng.gen_range(n as u64 - 1));
            let mut p = draw as usize;
            if p >= me {
                p += 1;
            }
            p
        };
        if !self.tiles[partner].active.load(Ordering::Relaxed) {
            return;
        }
        // Lane = the acting tile: only tile `me`'s own thread reaches these
        // updates, so the owned (plain load+store) variants are safe.
        self.stats.p2p_checks.incr_owned(me);
        let theirs = self.clocks[partner].now().0;
        self.tracer.emit(tile, graphite_base::Cycles(now), || TraceEventKind::P2PCheck {
            skew: now as i64 - theirs as i64,
        });
        let c = now.saturating_sub(theirs);
        if c <= self.slack {
            return;
        }
        // We are ahead by c cycles: sleep s = c / r so the partner catches up.
        let r = self.progress_rate(now);
        let s = Duration::from_secs_f64(c as f64 / r).min(self.max_sleep);
        self.stats.p2p_sleeps.incr_owned(me);
        self.stats.p2p_sleep_us.add_owned(me, s.as_micros() as u64);
        self.tracer.emit(tile, graphite_base::Cycles(now), || TraceEventKind::P2PSleep {
            micros: s.as_micros() as u64,
        });
        // Sleep outside the execution slot: the whole point of the sleep is
        // to let tiles that are behind run, which under an M:N scheduler
        // requires handing them the slot (the sleeper becomes a timer entry,
        // its carrier runs other contexts until the deadline).
        self.blocker.sleep(tile, s);
    }

    fn activate(&self, tile: TileId) {
        self.tiles[tile.index()].active.store(true, Ordering::Relaxed);
    }

    fn deactivate(&self, tile: TileId) {
        self.tiles[tile.index()].active.store(false, Ordering::Relaxed);
    }

    fn stats(&self) -> &SyncStats {
        &self.stats
    }

    /// `[rng_state, last_check[0], .., last_check[n-1]]`.
    fn save_state(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(1 + self.tiles.len());
        out.push(self.rng.lock().state());
        out.extend(self.tiles.iter().map(|t| t.last_check.load(Ordering::Relaxed)));
        out
    }

    fn load_state(&self, data: &[u64]) -> bool {
        let Some((&rng_state, checks)) = data.split_first() else { return false };
        if checks.len() != self.tiles.len() {
            return false;
        }
        *self.rng.lock() = SimRng::from_state(rng_state);
        for (tile, &v) in self.tiles.iter().zip(checks) {
            tile.last_check.store(v, Ordering::Relaxed);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_base::Cycles;

    fn clocks(n: usize) -> Arc<Vec<Arc<Clock>>> {
        Arc::new((0..n).map(|_| Arc::new(Clock::new())).collect())
    }

    #[test]
    fn builder_selects_model() {
        let c = clocks(2);
        assert_eq!(build_synchronizer(SyncModel::Lax, Arc::clone(&c), 0).name(), "Lax");
        assert_eq!(
            build_synchronizer(SyncModel::LaxBarrier { quantum: 10 }, Arc::clone(&c), 0).name(),
            "LaxBarrier"
        );
        assert_eq!(
            build_synchronizer(SyncModel::LaxP2P { slack: 1, check_interval: 1 }, c, 0).name(),
            "LaxP2P"
        );
    }

    #[test]
    fn lax_never_blocks() {
        let s = LaxSync::new();
        s.activate(TileId(0));
        s.on_progress(TileId(0));
        s.deactivate(TileId(0));
        assert_eq!(s.stats().barrier_waits.get(), 0);
    }

    #[test]
    fn solo_thread_never_blocks_at_barrier() {
        let c = clocks(1);
        let b = BarrierSync::new(100, Arc::clone(&c));
        b.activate(TileId(0));
        c[0].advance(Cycles(10_000));
        b.on_progress(TileId(0)); // must return promptly
        assert!(b.stats().barrier_releases.get() >= 100);
        b.deactivate(TileId(0));
    }

    #[test]
    fn barrier_keeps_two_threads_within_quantum() {
        let c = clocks(2);
        let b = Arc::new(BarrierSync::new(1_000, Arc::clone(&c)));
        b.activate(TileId(0));
        b.activate(TileId(1));
        let max_skew = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let b = Arc::clone(&b);
                let c = Arc::clone(&c);
                let max_skew = Arc::clone(&max_skew);
                std::thread::spawn(move || {
                    // Thread 1 takes 10x larger steps but both cover the same
                    // total simulated distance (200k cycles).
                    let (iters, step) = if t == 0 { (2_000, 100) } else { (200, 1_000) };
                    for _ in 0..iters {
                        c[t].advance(Cycles(step));
                        b.on_progress(TileId(t as u32));
                        let skew = c[0].now().0.abs_diff(c[1].now().0);
                        max_skew.fetch_max(skew, Ordering::Relaxed);
                    }
                    b.deactivate(TileId(t as u32));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // With a 1000-cycle quantum, observed skew stays within ~2 quanta
        // (one step can overshoot the boundary by its own length).
        assert!(
            max_skew.load(Ordering::Relaxed) <= 2_000 + 1_000,
            "skew {} exceeds barrier bound",
            max_skew.load(Ordering::Relaxed)
        );
        assert!(b.stats().barrier_waits.get() > 0);
    }

    /// Calls `on_progress(tile)` on a fresh thread while this thread holds the
    /// barrier's state lock; true when the call returned without the lock.
    fn returns_while_state_is_locked(b: &Arc<BarrierSync>, tile: TileId) -> bool {
        let guard = b.state.lock();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let b2 = Arc::clone(b);
        let caller = std::thread::spawn(move || {
            b2.on_progress(tile);
            let _ = done_tx.send(());
        });
        let returned = done_rx.recv_timeout(Duration::from_secs(5)).is_ok();
        drop(guard);
        caller.join().unwrap();
        returned
    }

    #[test]
    fn below_target_progress_never_takes_the_state_lock() {
        let c = clocks(2);
        let b = Arc::new(BarrierSync::new(1_000, Arc::clone(&c)));
        b.activate(TileId(0));
        b.activate(TileId(1));
        c[0].advance(Cycles(999));
        assert!(returns_while_state_is_locked(&b, TileId(0)), "clock 999 < target 1000");
        // At the boundary the call needs the lock (and, with the partner
        // still behind, would wait at the barrier): it must not return.
        c[0].advance(Cycles(1));
        let guard = b.state.lock();
        let b2 = Arc::clone(&b);
        let waiter = std::thread::spawn(move || b2.on_progress(TileId(0)));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "clock 1000 >= target 1000 must reach the locked path");
        drop(guard);
        // The partner arrives: release, target and mirror move to 2000.
        c[1].advance(Cycles(1_000));
        b.on_progress(TileId(1));
        waiter.join().unwrap();
        assert_eq!(b.target.load(Ordering::Relaxed), 2_000);
        assert_eq!(b.state.lock().target, 2_000);
        assert!(returns_while_state_is_locked(&b, TileId(0)), "clock 1000 < target 2000");
    }

    #[test]
    fn load_state_keeps_the_target_mirror_in_step() {
        let c = clocks(2);
        let b = Arc::new(BarrierSync::new(100, Arc::clone(&c)));
        assert_eq!(b.target.load(Ordering::Relaxed), 100);
        assert!(b.load_state(&[500, 4]));
        assert_eq!(b.target.load(Ordering::Relaxed), 500);
        assert!(!b.load_state(&[150, 1]), "rejected state must not move the mirror");
        assert_eq!(b.target.load(Ordering::Relaxed), 500);
        // The restored boundary is the one the lock-free check uses.
        b.activate(TileId(0));
        b.activate(TileId(1));
        c[0].advance(Cycles(450));
        assert!(returns_while_state_is_locked(&b, TileId(0)), "clock 450 < restored target 500");
        // A solo thread's lazy releases keep the mirror equal to the target.
        b.deactivate(TileId(1));
        c[0].advance(Cycles(400));
        b.on_progress(TileId(0));
        assert_eq!(b.state.lock().target, 900);
        assert_eq!(b.target.load(Ordering::Relaxed), 900);
    }

    #[test]
    fn barrier_deactivation_releases_waiters() {
        let c = clocks(2);
        let b = Arc::new(BarrierSync::new(100, Arc::clone(&c)));
        b.activate(TileId(0));
        b.activate(TileId(1));
        // Thread 0 reaches the boundary and waits.
        c[0].advance(Cycles(150));
        let b2 = Arc::clone(&b);
        let waiter = std::thread::spawn(move || {
            b2.on_progress(TileId(0));
        });
        std::thread::sleep(Duration::from_millis(20));
        // Thread 1 blocks on I/O instead of reaching the barrier: it
        // deactivates, which must release thread 0.
        b.deactivate(TileId(1));
        waiter.join().expect("waiter must be released");
    }

    #[test]
    fn p2p_sleeps_when_ahead() {
        let c = clocks(2);
        let p = P2PSync::new(1_000, 1, Arc::clone(&c), 42);
        p.activate(TileId(0));
        p.activate(TileId(1));
        // Tile 0 races far ahead.
        c[0].advance(Cycles(1_000_000));
        std::thread::sleep(Duration::from_millis(2)); // non-zero wall time
        p.on_progress(TileId(0));
        assert_eq!(p.stats().p2p_sleeps.get(), 1);
        assert!(p.stats().p2p_sleep_us.get() > 0);
    }

    #[test]
    fn p2p_within_slack_does_not_sleep() {
        let c = clocks(2);
        let p = P2PSync::new(100_000, 1, Arc::clone(&c), 42);
        p.activate(TileId(0));
        p.activate(TileId(1));
        c[0].advance(Cycles(50_000));
        p.on_progress(TileId(0));
        assert_eq!(p.stats().p2p_sleeps.get(), 0);
        assert!(p.stats().p2p_checks.get() > 0);
    }

    #[test]
    fn p2p_ignores_inactive_partners() {
        let c = clocks(2);
        let p = P2PSync::new(10, 1, Arc::clone(&c), 7);
        p.activate(TileId(0));
        // Partner inactive: no check recorded, no sleep.
        c[0].advance(Cycles(1_000_000));
        p.on_progress(TileId(0));
        assert_eq!(p.stats().p2p_checks.get(), 0);
    }

    #[test]
    fn p2p_check_interval_throttles() {
        let c = clocks(2);
        let p = P2PSync::new(u64::MAX, 10_000, Arc::clone(&c), 7);
        p.activate(TileId(0));
        p.activate(TileId(1));
        for _ in 0..100 {
            c[0].advance(Cycles(1));
            p.on_progress(TileId(0));
        }
        assert_eq!(p.stats().p2p_checks.get(), 0, "under the interval: no checks");
        c[0].advance(Cycles(20_000));
        p.on_progress(TileId(0));
        assert_eq!(p.stats().p2p_checks.get(), 1);
    }

    #[test]
    fn p2p_behind_thread_never_sleeps() {
        let c = clocks(2);
        let p = P2PSync::new(100, 1, Arc::clone(&c), 9);
        p.activate(TileId(0));
        p.activate(TileId(1));
        c[1].advance(Cycles(1_000_000)); // partner is ahead; we are behind
        c[0].advance(Cycles(10));
        p.on_progress(TileId(0));
        assert_eq!(p.stats().p2p_sleeps.get(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn barrier_zero_quantum_panics() {
        let _ = BarrierSync::new(0, clocks(1));
    }

    #[test]
    fn barrier_state_roundtrips() {
        let c = clocks(2);
        let b = BarrierSync::new(100, Arc::clone(&c));
        b.activate(TileId(0));
        c[0].advance(Cycles(250));
        b.on_progress(TileId(0)); // sole thread: lazily releases up to target 300
        let state = b.save_state();

        let b2 = BarrierSync::new(100, clocks(2));
        assert!(b2.load_state(&state), "valid state must load");
        assert_eq!(b2.save_state(), state, "re-save must be identical");

        // Rejections: wrong length, zero target, target off the quantum grid.
        assert!(!b2.load_state(&[]));
        assert!(!b2.load_state(&[0, 1]));
        assert!(!b2.load_state(&[150, 1]));
    }

    #[test]
    fn p2p_state_roundtrips() {
        let c = clocks(3);
        let p = P2PSync::new(1_000, 1, Arc::clone(&c), 42);
        for t in 0..3 {
            p.activate(TileId(t));
        }
        c[0].advance(Cycles(500));
        p.on_progress(TileId(0)); // consumes rng, records last_check
        let state = p.save_state();
        assert_eq!(state.len(), 4);

        let p2 = P2PSync::new(1_000, 1, clocks(3), 7);
        assert!(p2.load_state(&state), "valid state must load");
        assert_eq!(p2.save_state(), state, "re-save must be identical");
        assert!(!p2.load_state(&state[..2]), "wrong length must be rejected");
        assert!(!p2.load_state(&[]), "empty state must be rejected");
    }

    #[test]
    fn p2p_replay_pins_partner_choice() {
        // Record a run's partner draws, then replay them into a model seeded
        // differently: the replayed model must make the same picks. Only
        // tiles 0 and 2 are active, so the checks count depends on which
        // partners get picked.
        let run = |seed: u64, log: Arc<ReplayLog>| {
            let obs = Obs::detached(4);
            let c = clocks(4);
            let blocker = Arc::new(InlineBlocker::new(4));
            let p = P2PSync::with_blocker(u64::MAX, 1, Arc::clone(&c), seed, &obs, log, blocker);
            p.activate(TileId(0));
            p.activate(TileId(2));
            for _ in 0..8 {
                c[0].advance(Cycles(10));
                p.on_progress(TileId(0));
            }
            p.stats().p2p_checks.get()
        };

        let rec = Arc::new(ReplayLog::recording());
        let checks = run(1, Arc::clone(&rec));

        let log = Arc::new(ReplayLog::replay_from(&rec.save_bytes()).unwrap());
        // Different seed: the local rng would pick different partners, but
        // the replay log overrides every draw.
        let replayed_checks = run(999, Arc::clone(&log));
        assert_eq!(replayed_checks, checks, "replay must retrace the run");
        // Every recorded draw was consumed by the replayed run.
        assert_eq!(log.replay_u64(stream::P2P_PARTNER), None, "log fully consumed");
    }
}
