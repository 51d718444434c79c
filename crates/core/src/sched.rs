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
//! [`GuestScheduler`] inverts this. Only `workers` contexts hold an
//! *execution slot* at any instant; the rest sit in per-worker run-queues,
//! unknown to the host kernel's run queue. Every spawned context runs as a
//! stackful [`Coroutine`] on a **carrier**: a host thread that holds a slot
//! and loops — resume the next runnable coroutine; when it suspends or
//! finishes, pass the slot to the next queued context. Carriers are created
//! on demand, when a slot goes to a coroutine and no carrier is idle, so a
//! thousand-tile workload over a 2-slot pool runs on a handful of host
//! threads.
//!
//! **Every guest wait is a suspend, completed by its waker.** A waiting
//! coroutine suspends; its carrier stores it and runs the next queued
//! context. Exactly one party ends each wait, and it `unpark`s the waiter,
//! which queues it again — no carrier ever waits on a context's behalf:
//!
//! * a LaxBarrier release unparks the quantum's waiters;
//! * the waker of a deferred MCP wait — a futex wake, the joined thread's
//!   exit, shutdown — writes the reply into the waiter's reply cell and
//!   unparks it (every other MCP request is answered on the requesting
//!   context without a wait);
//! * a mailbox delivery unparks a receiver that armed its delivery flag
//!   (`arm_delivery` before its last emptiness check; the transport's
//!   delivery hook calls `notify_delivery`);
//! * a deadline unparks a LaxP2P catch-up sleeper ([`Blocker::sleep`]): the
//!   sleeper is a timer entry, fired by the next carrier that switches
//!   contexts or by an idle carrier waiting for the earliest deadline.
//!
//! **Carriers read the TCP wire.** The TCP transport has no thread of its
//! own: the scheduler reads its inbound sockets. Each time a
//! carrier passes its slot on, it first sweeps the wire without blocking,
//! and a receiver woken by a frame it finds is queued for that very slot —
//! so a cross-process hop between two coroutines costs no host wake. An
//! idle carrier waits in `poll(2)` on its wake pipe; while a slot is free,
//! one idle carrier (the *poller*) also watches the wire, and a receiver
//! woken by what it reads runs on the poller itself.
//!
//! The waiter always parks exactly once per wait, even when the result is
//! already in: the park then consumes the banked token and returns at once.
//! A token left unconsumed would end the context's *next* wait early — a
//! quantum park that returns before its release weakens the barrier.
//!
//! The main context (tile 0, which runs [`crate::Sim::run`]'s closure on the
//! caller's thread) and external [`GuestScheduler::attach`] /
//! [`GuestScheduler::detach`] callers are plain threads: they wait on the OS
//! path, releasing the slot, sleeping until both their unpark and a slot
//! token are in. A run-queue entry is therefore either a coroutine to resume
//! or a thread to wake; one flag per context says which.
//!
//! With `workers >= tiles` no context ever waits for a slot and the machine
//! degenerates to thread-per-tile behaviour — the baseline every scheduled
//! run is measured against. Simulated time is unaffected either way: slots
//! gate only *host* execution order, which the lax models already tolerate
//! by design (paper §3.6).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{PipeReader, PipeWriter, Read, Write};
use std::os::fd::AsFd;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use graphite_base::coro::{self, Coroutine};
use graphite_base::{Blocker, CachePadded, HostProf, HostStage, TileId};
use graphite_trace::{MetricsRegistry, Obs, ShardedMetric};
use graphite_transport::tcp::TcpTransport;
use parking_lot::{Condvar, Mutex, MutexGuard};

/// Scheduler event counters (`sched.*`), one cache-padded lane per tile.
#[derive(Debug, Default)]
pub struct SchedStats {
    /// Guest waits (blocked futex waits, joins of running threads,
    /// receives, catch-up sleeps) that gave up their slot.
    pub yields: ShardedMetric,
    /// Times a context had to queue for a slot (no slot free).
    pub parks: ShardedMetric,
    /// Slot handoffs directly to a queued context on release.
    pub handoffs: ShardedMetric,
    /// Handoffs served from *another* worker's run-queue.
    pub steals: ShardedMetric,
    /// Cumulative queued-context count sampled at each enqueue
    /// (`runq_depth / parks` = mean run-queue depth seen by a parking
    /// context).
    pub runq_depth: ShardedMetric,
    /// Carrier threads created (on demand, when a slot goes to a coroutine
    /// and no carrier is idle).
    pub threads_spawned: ShardedMetric,
    /// Peak simultaneously-live carrier threads (the driver thread is not
    /// counted).
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

/// Slots, run-queues, carriers and sleep deadlines, under one lock.
#[derive(Debug)]
struct SchedState {
    /// Execution slots not currently held by any context.
    free: usize,
    /// When each free slot was freed (ns since the profiler epoch), feeding
    /// the `sched.idle` accounting; empty unless host profiling is on.
    free_since: Vec<u64>,
    /// Per-worker run-queues; context `t` enqueues on lane `t % workers`.
    runqs: Vec<VecDeque<u32>>,
    /// Total contexts across all run-queues.
    queued: usize,
    /// Every live carrier's mailbox, by carrier index.
    carriers: Vec<Arc<Mailbox>>,
    /// Carriers holding no slot and waiting for work. A carrier registers
    /// here under the same lock as the slot release that idles it, so a
    /// dispatch never spawns a carrier while one is about to go idle.
    idle: Vec<usize>,
    /// Suspended sleepers by wake-up deadline, earliest first.
    timers: BinaryHeap<Reverse<(Instant, u32)>>,
    /// The idle carrier that watches the wire, if any. While a wire is
    /// attached and a slot is free, some idle carrier holds this role, so a
    /// frame never waits for a carrier to switch (one may be running a guest
    /// that spins on memory, or none may be running at all).
    poller: Option<usize>,
}

/// What an idle carrier is woken for.
#[derive(Debug)]
enum Work {
    /// Run `tile`'s coroutine on the slot that comes with it.
    Run(u32),
    /// A sleeper was queued, or the poller role came to this carrier:
    /// re-read the earliest deadline and the role.
    Tick,
    /// The simulation is over: exit.
    Retire,
}

/// An idle carrier's wake-up channel: the posted work, and a pipe that a
/// post writes only while the carrier sleeps in `poll`, so posting to a
/// carrier that is awake costs no system call.
#[derive(Debug)]
struct Mailbox {
    posted: Mutex<Posted>,
    rx: PipeReader,
    tx: PipeWriter,
}

#[derive(Debug, Default)]
struct Posted {
    work: Option<Work>,
    /// The carrier is blocked (or about to block) in `poll` on the pipe.
    sleeping: bool,
    /// A wake byte is in the pipe.
    signalled: bool,
}

impl Mailbox {
    fn new() -> Self {
        let (rx, tx) = std::io::pipe().expect("create a carrier's wake pipe");
        Mailbox { posted: Mutex::new(Posted::default()), rx, tx }
    }

    /// Posts `work`. A `Tick` goes only to a carrier on the idle list and a
    /// `Run` only to one just taken off it, so a `Run` is never overwritten.
    fn post(&self, work: Work) {
        let wake = {
            let mut p = self.posted.lock();
            p.work = Some(work);
            let wake = p.sleeping && !p.signalled;
            p.signalled |= wake;
            wake
        };
        // Written after the lock is dropped: a carrier woken under it would
        // run straight into it and sleep again (as `CtxParker::grant_slot`).
        if wake {
            (&self.tx).write_all(&[1]).expect("write a carrier's wake pipe");
        }
    }

    /// Takes the posted work; with none, marks the carrier asleep, so a
    /// later post writes the pipe.
    fn take_or_sleep(&self) -> Option<Work> {
        let mut p = self.posted.lock();
        let work = p.work.take();
        p.sleeping = work.is_none();
        work
    }

    /// Marks the carrier awake after its `poll` and takes the posted work.
    /// The wake byte is read only once `poll` saw it (`pipe_ready`): one
    /// still on its way stays `signalled` and ends the next `poll` at once.
    fn awake(&self, pipe_ready: bool) -> Option<Work> {
        let mut p = self.posted.lock();
        p.sleeping = false;
        if pipe_ready {
            (&self.rx).read_exact(&mut [0]).expect("read a carrier's wake pipe");
            p.signalled = false;
        }
        p.work.take()
    }
}

/// Per-context wakeup channel: the two one-shot tokens a thread context
/// sleeps on, and the stored coroutine of a coroutine context.
#[derive(Debug, Default)]
struct CtxParker {
    lock: Mutex<CtxTokens>,
    cv: Condvar,
}

impl CtxParker {
    /// Deposits the slot token and wakes the context's thread. The guard is
    /// dropped before the notify: a thread woken under the lock runs
    /// straight into it and sleeps again.
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
    /// Whether a dispatch of this context resumes the coroutine stored in
    /// its parker (`true`) or wakes a thread waiting for a slot token.
    /// Written under the parker lock, read under the state lock: the one
    /// flag that tells the two kinds of run-queue entry apart.
    resumable: AtomicBool,
    /// Slot-occupancy start (ns since the profiler epoch, 0 = not holding a
    /// slot); feeds the `sched.slot_run` busy accounting.
    run_start: AtomicU64,
    /// The context is about to park in a receive: the next delivery to its
    /// mailbox unparks it (see `GuestScheduler::arm_delivery`).
    delivery_armed: AtomicBool,
}

#[derive(Debug, Default)]
struct CtxTokens {
    slot: bool,
    unpark: bool,
    /// The context is parked without a slot: an arriving unpark queues it
    /// for a slot directly. For a thread that means one wake, when the slot
    /// arrives, instead of waking just to sleep again in attach.
    slot_parked: bool,
    /// A suspending sleeper's wake-up time, moved onto the timer heap by
    /// its carrier once the coroutine is stored.
    deadline: Option<Instant>,
    /// A coroutine context that is suspended or not yet started.
    stack: Option<Coroutine>,
}

/// The M:N guest scheduler (see the module docs for the execution model).
pub struct GuestScheduler {
    workers: usize,
    state: Mutex<SchedState>,
    /// Signalled whenever a carrier goes idle (see [`Self::retire_carriers`]).
    carrier_idle: Condvar,
    ctxs: Vec<CachePadded<CtxSlot>>,
    /// Carrier threads to join at retirement.
    joins: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// This scheduler, for the carriers it spawns.
    me: Weak<GuestScheduler>,
    stats: SchedStats,
    /// Host-cost profiler (`host.sched.*` stages). Disabled by default.
    prof: Arc<HostProf>,
    /// The TCP transport whose inbound sockets the carriers read, if any.
    wire: OnceLock<Arc<TcpTransport>>,
}

impl std::fmt::Debug for GuestScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("GuestScheduler")
            .field("workers", &self.workers)
            .field("free", &s.free)
            .field("queued", &s.queued)
            .field("carriers", &s.carriers.len())
            .field("sleepers", &s.timers.len())
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
        let prof = Arc::clone(&obs.hostprof);
        let free_since = if prof.is_enabled() { vec![prof.now_ns(); workers] } else { Vec::new() };
        Arc::new_cyclic(|me| GuestScheduler {
            workers,
            state: Mutex::new(SchedState {
                free: workers,
                free_since,
                runqs: (0..workers).map(|_| VecDeque::new()).collect(),
                queued: 0,
                carriers: Vec::new(),
                idle: Vec::new(),
                timers: BinaryHeap::new(),
                poller: None,
            }),
            carrier_idle: Condvar::new(),
            ctxs: (0..tiles).map(|_| CachePadded::default()).collect(),
            joins: Mutex::new(Vec::new()),
            me: me.clone(),
            stats: SchedStats::registered(&obs.metrics),
            prof,
            wire: OnceLock::new(),
        })
    }

    /// Makes the carriers read `wire` (see the module docs). Call it before
    /// the first context is submitted; only the first call takes effect.
    pub(crate) fn attach_wire(&self, wire: Arc<TcpTransport>) {
        // The poller's poll set lacks a stream accepted after it was built
        // (a sweep, a blocked write or an old poller won the accept): a tick
        // makes it poll again with the stream in.
        let me = self.me.clone();
        wire.set_accept_hook(Box::new(move || {
            let Some(sched) = me.upgrade() else { return };
            let s = sched.state.lock();
            if let Some(c) = s.poller {
                s.carriers[c].post(Work::Tick);
            }
        }));
        let _ = self.wire.set(wire);
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

    /// Claims a free slot, closing its `sched.idle` interval.
    fn take_slot(&self, s: &mut SchedState) {
        s.free -= 1;
        if let Some(since) = s.free_since.pop() {
            self.prof.record(HostStage::SchedIdle, since, self.prof.now_ns());
        }
    }

    /// Returns a slot to the free pool, opening a `sched.idle` interval.
    fn put_slot(&self, s: &mut SchedState) {
        s.free += 1;
        if self.prof.is_enabled() {
            s.free_since.push(self.prof.now_ns());
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

    /// Submits a **new** context: `body` becomes a coroutine that starts
    /// owning a slot — on an idle or new carrier right away if a slot is
    /// free, otherwise when a slot handoff reaches its run-queue entry. It
    /// must not call [`Self::attach`] first, and it passes its slot on by
    /// finishing.
    pub fn submit(&self, tile: TileId, body: impl FnOnce() + Send + 'static) {
        let slot = &self.ctxs[tile.index()];
        {
            let mut p = slot.parker.lock.lock();
            p.stack = Some(Coroutine::new(body));
            slot.resumable.store(true, Ordering::Relaxed);
        }
        let mut s = self.state.lock();
        if s.free > 0 {
            self.take_slot(&mut s);
            let _sp = self.prof.span(HostStage::SchedSpawn);
            self.hand_slot(s, tile.0);
            return;
        }
        self.enqueue(&mut s, tile);
    }

    /// Puts `tile` on its run-queue lane. The counters are written from
    /// whichever thread queues the context, so they use the shared
    /// (atomic) increment.
    fn enqueue(&self, s: &mut SchedState, tile: TileId) {
        s.runqs[tile.index() % self.workers].push_back(tile.0);
        s.queued += 1;
        self.stats.parks.incr(tile.index());
        self.stats.runq_depth.add(tile.index(), s.queued as u64);
    }

    /// Pops the context a slot released by `tile` goes to: `tile`'s own
    /// worker lane first, then a steal scan over the other lanes.
    fn pop_next(&self, s: &mut SchedState, tile: TileId) -> Option<u32> {
        let lane = tile.index() % self.workers;
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
        if next.is_some() {
            s.queued -= 1;
            // Shared increments: a carrier counts here on behalf of a
            // context that may already run again on another carrier.
            self.stats.handoffs.incr(tile.index());
            if stolen {
                self.stats.steals.incr(tile.index());
            }
        }
        next
    }

    /// Locks the scheduler state with every sleeper whose deadline has
    /// passed unparked first, so a slot being passed on can go to it.
    fn lock_firing_timers(&self) -> MutexGuard<'_, SchedState> {
        let mut s = self.state.lock();
        while !s.timers.is_empty() {
            let now = Instant::now();
            let mut due = Vec::new();
            while let Some(&Reverse((d, t))) = s.timers.peek() {
                if d > now {
                    break;
                }
                s.timers.pop();
                due.push(t);
            }
            if due.is_empty() {
                break;
            }
            // `unpark` takes the state lock itself.
            drop(s);
            for t in due {
                self.unpark(TileId(t));
            }
            s = self.state.lock();
        }
        s
    }

    /// Gives the slot the caller has claimed for `t` (popped from a
    /// run-queue, or taken from `free`) to `t`: a coroutine goes to an idle
    /// carrier — or a new one — and a thread gets its slot token.
    fn hand_slot(&self, mut s: MutexGuard<'_, SchedState>, t: u32) {
        if !self.ctxs[t as usize].resumable.load(Ordering::Relaxed) {
            drop(s);
            self.ctxs[t as usize].parker.grant_slot();
            return;
        }
        if let Some(c) = s.idle.pop() {
            let mailbox = Arc::clone(&s.carriers[c]);
            if s.poller == Some(c) {
                // The poller leaves the idle list: another idle carrier
                // takes over the wire if a slot is still free.
                s.poller = None;
                self.watch_free_slot(s, t as usize);
            } else {
                drop(s);
            }
            mailbox.post(Work::Run(t));
            return;
        }
        self.spawn_carrier(s, t as usize, Some(t));
    }

    /// If a slot is free that no switching carrier may pass on, makes sure
    /// an idle carrier waits for whatever could claim it: the wire, when no
    /// carrier polls it yet, and the earliest sleeper's deadline. Nudges the
    /// most recently idled carrier, or starts one.
    fn watch_free_slot(&self, mut s: MutexGuard<'_, SchedState>, lane: usize) {
        let wire = self.wire.get().is_some() && s.poller.is_none();
        if s.free == 0 || (!wire && s.timers.is_empty()) {
            return;
        }
        match s.idle.last().copied() {
            Some(c) => {
                if wire {
                    s.poller = Some(c);
                }
                s.carriers[c].post(Work::Tick);
            }
            None => self.spawn_carrier(s, lane, None),
        }
    }

    /// Starts a carrier thread: one running `first` on the slot claimed for
    /// it, or (`None`) an idle one that waits for sleepers' deadlines and
    /// the wire. `lane` is the metrics lane to count the spawn on.
    fn spawn_carrier(&self, mut s: MutexGuard<'_, SchedState>, lane: usize, first: Option<u32>) {
        let mailbox = Arc::new(Mailbox::new());
        s.carriers.push(Arc::clone(&mailbox));
        let (id, live) = (s.carriers.len() - 1, s.carriers.len() as u64);
        if first.is_none() {
            self.go_idle(&mut s, id);
        }
        drop(s);
        self.stats.threads_spawned.incr(lane);
        self.stats.threads_peak.observe_max(lane, live);
        let me = self.me.upgrade().expect("a scheduler handing out slots is alive");
        let handle = std::thread::Builder::new()
            .name(format!("graphite-carrier{id}"))
            .spawn(move || me.carrier_main(id, &mailbox, first))
            .expect("spawn carrier thread");
        self.joins.lock().push(handle);
    }

    /// A carrier's loop: run the coroutine it was started or woken for, keep
    /// the slot for the next queued coroutine while there is one, then wait
    /// idle for more work.
    fn carrier_main(&self, id: usize, mailbox: &Mailbox, first: Option<u32>) {
        let mut next = first;
        loop {
            let tile = match next {
                Some(t) => t,
                None => match self.idle_wait(id, mailbox) {
                    Some(t) => t,
                    None => return,
                },
            };
            next = self.run_coroutine(id, TileId(tile));
        }
    }

    /// An idle carrier's wait: returns the tile it is handed, or `None` once
    /// retired. It sleeps in `poll` on its wake pipe — and on the wire, while
    /// it is the poller, so its poll doubles as its sweep before blocking —
    /// until the earliest sleeper's deadline, so a free slot never sits next
    /// to an expired sleeper or an unread frame.
    fn idle_wait(&self, id: usize, mailbox: &Mailbox) -> Option<u32> {
        loop {
            let (deadline, poller) = {
                let s = self.state.lock();
                (s.timers.peek().map(|Reverse((d, _))| *d), s.poller == Some(id))
            };
            let work = match mailbox.take_or_sleep() {
                Some(work) => Some(work),
                None => {
                    let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                    let mut ready = Vec::new();
                    let pipe_ready = match self.wire.get() {
                        Some(wire) if poller => {
                            wire.wait(mailbox.rx.as_fd(), timeout, &mut |dst| {
                                self.collect_delivery(dst, &mut ready)
                            })
                        }
                        _ => graphite_transport::wait_readable(mailbox.rx.as_fd(), timeout),
                    };
                    let work = mailbox.awake(pipe_ready);
                    if !ready.is_empty() {
                        // The receivers this carrier woke take free slots
                        // from the top of the idle stack: this carrier first
                        // (its `Run` is taken on the next pass).
                        {
                            let mut s = self.state.lock();
                            if let Some(at) = s.idle.iter().position(|&c| c == id) {
                                s.idle.remove(at);
                                s.idle.push(id);
                            }
                        }
                        for t in ready {
                            self.enqueue_for_slot(TileId(t));
                        }
                    }
                    work
                }
            };
            match work {
                Some(Work::Run(t)) => return Some(t),
                Some(Work::Retire) => return None,
                // Expired sleepers take the free slot (maybe via this
                // carrier's own mailbox).
                Some(Work::Tick) => drop(self.lock_firing_timers()),
                None if deadline.is_some_and(|d| Instant::now() >= d) => {
                    drop(self.lock_firing_timers())
                }
                None => {}
            }
        }
    }

    /// Resumes `tile`'s coroutine on this carrier's slot until it parks or
    /// finishes, then passes the slot on. Returns the next coroutine to run
    /// on the same slot, or `None` once the carrier is registered idle.
    fn run_coroutine(&self, id: usize, tile: TileId) -> Option<u32> {
        let slot = &self.ctxs[tile.index()];
        let mut co = {
            let mut p = slot.parker.lock.lock();
            slot.resumable.store(false, Ordering::Relaxed);
            p.stack.take().expect("a dispatched coroutine context has a stored stack")
        };
        let (parked, deadline) = loop {
            self.note_slot_acquired(tile);
            let finished = co.resume();
            self.note_slot_released(tile);
            if finished {
                // A finished context does not detach: this carrier keeps the
                // slot for whatever runs next.
                drop(co);
                break (false, None);
            }
            // Parked. Store the coroutine; it is advertised as parked only
            // once its slot has been passed on (below), so an unpark never
            // finds it parked while it still counts as holding a slot.
            let mut p = slot.parker.lock.lock();
            let deadline = p.deadline.take();
            if p.unpark && deadline.is_none() {
                // The release landed between the waiter's check and its
                // suspend: consume it and keep running.
                p.unpark = false;
                continue;
            }
            debug_assert!(!p.unpark, "{tile} slept holding an unconsumed unpark");
            p.stack = Some(co);
            slot.resumable.store(true, Ordering::Relaxed);
            break (true, deadline);
        };
        let _sw = self.prof.span(HostStage::SchedSwitch);
        // Frames already on the wire: their woken receivers queue for the
        // slot this carrier is about to pass on.
        let mut ready = Vec::new();
        if let Some(wire) = self.wire.get() {
            wire.sweep(&mut |dst| self.collect_delivery(dst, &mut ready));
        }
        if let Some(d) = deadline {
            // The sleeper is stored: its deadline may fire from now on. An
            // idle carrier may be waiting for a later deadline (or none).
            let mut s = self.state.lock();
            s.timers.push(Reverse((d, tile.0)));
            if let Some(&c) = s.idle.last() {
                s.carriers[c].post(Work::Tick);
            }
        }
        let next = {
            let mut s = self.lock_firing_timers();
            for &t in &ready {
                self.enqueue(&mut s, TileId(t));
            }
            let (next, thread) = match self.pop_next(&mut s, tile) {
                Some(t) if self.ctxs[t as usize].resumable.load(Ordering::Relaxed) => {
                    (Some(t), None)
                }
                Some(t) => {
                    self.go_idle(&mut s, id);
                    (None, Some(t))
                }
                None => {
                    self.put_slot(&mut s);
                    self.go_idle(&mut s, id);
                    (None, None)
                }
            };
            if ready.is_empty() {
                drop(s);
            } else {
                // More than one receiver woke: the others take free slots.
                self.fill_free_slots(s, tile);
            }
            if let Some(t) = thread {
                self.ctxs[t as usize].parker.grant_slot();
            }
            next
        };
        if parked {
            // An unpark that arrived while the slot was being passed on was
            // banked: queue the context now. Otherwise advertise the park,
            // and the unpark queues it.
            let mut p = slot.parker.lock.lock();
            if std::mem::take(&mut p.unpark) {
                drop(p);
                self.enqueue_for_slot(tile);
            } else {
                p.slot_parked = true;
            }
        }
        next
    }

    /// Hands free slots to queued contexts while both exist, which only a
    /// sweep's woken receivers make happen.
    fn fill_free_slots<'a>(&'a self, mut s: MutexGuard<'a, SchedState>, tile: TileId) {
        while s.free > 0 {
            let Some(t) = self.pop_next(&mut s, tile) else { return };
            self.take_slot(&mut s);
            self.hand_slot(s, t);
            s = self.state.lock();
        }
    }

    /// Registers carrier `id` as idle (on top of the LIFO idle stack). With
    /// a wire attached and no poller yet, it becomes the poller.
    fn go_idle(&self, s: &mut SchedState, id: usize) {
        s.idle.push(id);
        if self.wire.get().is_some() && s.poller.is_none() {
            s.poller = Some(id);
        }
        if s.idle.len() == s.carriers.len() {
            self.carrier_idle.notify_all();
        }
    }

    /// Waits until every carrier is idle, then retires and joins them all.
    /// Called once the simulation is over (every context has exited), so
    /// the process's thread count returns to what it was before the run.
    pub fn retire_carriers(&self) {
        let mailboxes = {
            let mut s = self.state.lock();
            while s.idle.len() < s.carriers.len() {
                self.carrier_idle.wait(&mut s);
            }
            s.idle.clear();
            s.poller = None;
            std::mem::take(&mut s.carriers)
        };
        for m in mailboxes {
            m.post(Work::Retire);
        }
        let joins = std::mem::take(&mut *self.joins.lock());
        for h in joins {
            let _ = h.join();
        }
    }

    /// Acquires an execution slot for `tile` on the calling thread, queueing
    /// until one is handed over if all are held. Called by thread contexts
    /// when they start and after a wait on the OS path.
    pub fn attach(&self, tile: TileId) {
        {
            let mut s = self.state.lock();
            if s.free > 0 {
                self.take_slot(&mut s);
                drop(s);
                self.note_slot_acquired(tile);
                return;
            }
            self.enqueue(&mut s, tile);
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

    /// Releases `tile`'s execution slot from the calling thread, handing it
    /// directly to a queued context if any.
    pub fn detach(&self, tile: TileId) {
        self.note_slot_released(tile);
        let _h = self.prof.span(HostStage::SchedHandoff);
        let mut s = self.lock_firing_timers();
        match self.pop_next(&mut s, tile) {
            Some(t) => self.hand_slot(s, t),
            None => {
                // No carrier is switching, so none would fire the sleepers'
                // deadlines or read the wire onto this free slot.
                self.put_slot(&mut s);
                self.watch_free_slot(s, tile.index());
            }
        }
    }

    /// Queues an unparked context for a slot on its waker's behalf, handing
    /// it one immediately if one is free.
    fn enqueue_for_slot(&self, tile: TileId) {
        let mut s = self.state.lock();
        if s.free == 0 {
            self.enqueue(&mut s, tile);
            return;
        }
        self.take_slot(&mut s);
        self.hand_slot(s, tile.0);
    }

    /// Parks `tile` until its one unpark; returns whether the wait gave up
    /// the slot (a banked token lets a coroutine keep it).
    fn park_once(&self, tile: TileId) -> bool {
        let p = &self.ctxs[tile.index()].parker;
        if coro::in_coroutine() {
            // A banked unpark (the waker beat us here) is consumed and the
            // context keeps running with its slot. Otherwise suspend: the
            // carrier stores the coroutine, passes the slot on, and the
            // unpark queues the context again. No span may stay open across
            // the suspend (hostprof frames are per host thread).
            {
                let mut t = p.lock.lock();
                if t.unpark {
                    t.unpark = false;
                    return false;
                }
            }
            coro::suspend();
            return true;
        }
        self.detach(tile);
        {
            let _w = self.prof.span(HostStage::SchedPark);
            let mut t = p.lock.lock();
            if t.unpark {
                // Banked unpark (the waker beat us here): reacquire normally.
                t.unpark = false;
                drop(t);
                drop(_w);
                self.attach(tile);
                return true;
            }
            // Advertise the fused path: the unparker re-queues this context
            // for a slot itself, so this thread sleeps through the wake-up
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
        true
    }

    /// A guest wait: parks `tile` until the one party that completes the
    /// wait (a futex wake, a thread exit, a mailbox delivery) unparks it.
    /// Call it exactly once per wait, even when the result is already in —
    /// the park then consumes the banked token. Counts `sched.yields` when
    /// the slot was given up.
    pub(crate) fn wait(&self, tile: TileId) {
        if self.park_once(tile) {
            self.stats.yields.incr_owned(tile.index());
        }
    }

    /// Announces that `tile` is about to wait for a delivery to its
    /// mailbox. Call it *before* the final emptiness re-check of the
    /// mailbox; then either [`Self::wait`] (still empty: the delivery's
    /// [`Self::notify_delivery`] unparks the waiter) or
    /// [`Self::disarm_delivery`] (a message or a disconnect is in).
    pub(crate) fn arm_delivery(&self, tile: TileId) {
        self.ctxs[tile.index()].delivery_armed.store(true, Ordering::Relaxed);
        // Pairs with the fence in `notify_delivery`: either the re-check
        // that follows sees the message, or the deliverer sees the flag.
        fence(Ordering::SeqCst);
    }

    /// Withdraws an [`Self::arm_delivery`] whose re-check found the mailbox
    /// ready. If a delivery already claimed the flag, its unpark is on the
    /// way and is consumed here, so no token outlives this receive.
    pub(crate) fn disarm_delivery(&self, tile: TileId) {
        if !self.ctxs[tile.index()].delivery_armed.swap(false, Ordering::AcqRel) {
            self.park_once(tile);
        }
    }

    /// A delivery hook: called by the transport after it enqueued a message
    /// for `tile` (or closed its mailbox). Unparks the tile only if it
    /// armed the flag — never a tile that is not waiting.
    pub(crate) fn notify_delivery(&self, tile: TileId) {
        if self.claim_delivery(tile) {
            self.unpark(tile);
        }
    }

    /// Takes down `tile`'s delivery flag; true if it was up, and the caller
    /// now owes the receiver its one unpark.
    fn claim_delivery(&self, tile: TileId) -> bool {
        let armed = &self.ctxs[tile.index()].delivery_armed;
        fence(Ordering::SeqCst);
        armed.load(Ordering::Relaxed) && armed.swap(false, Ordering::AcqRel)
    }

    /// A delivery read off the wire: like [`Self::notify_delivery`], but a
    /// receiver that now needs a slot is collected into `ready` rather than
    /// queued, so the carrier that read the frame decides where it runs.
    fn collect_delivery(&self, tile: TileId, ready: &mut Vec<u32>) {
        if self.claim_delivery(tile) && self.wake(tile) {
            ready.push(tile.0);
        }
    }

    /// Delivers `tile`'s unpark. Returns whether the context was parked
    /// without a slot and must now be queued for one; otherwise the token is
    /// banked for its park to consume.
    fn wake(&self, tile: TileId) -> bool {
        let p = &self.ctxs[tile.index()].parker;
        let mut t = p.lock.lock();
        if t.slot_parked {
            // A suspended coroutine needs nothing else; a sleeping thread
            // also gets its unpark token and wakes once, when the slot token
            // lands.
            t.slot_parked = false;
            t.unpark = t.stack.is_none();
            return true;
        }
        t.unpark = true;
        // Not under the lock: see `CtxParker::grant_slot`.
        drop(t);
        p.cv.notify_one();
        false
    }
}

impl Blocker for GuestScheduler {
    fn park(&self, tile: TileId) {
        self.park_once(tile);
    }

    fn unpark(&self, tile: TileId) {
        let _u = self.prof.span(HostStage::SchedUnpark);
        if self.wake(tile) {
            // Put the parked context straight on the run-queue (or hand it a
            // free slot). Callers may hold their own model lock (barrier
            // release): the scheduler state lock is taken only after the
            // parker lock is dropped, and no scheduler path holds the state
            // lock while taking a model lock.
            self.enqueue_for_slot(tile);
        }
    }

    /// A coroutine suspends with its deadline and becomes a timer entry;
    /// the carrier runs other contexts meanwhile. A thread context sleeps
    /// on the OS path, outside its slot.
    fn sleep(&self, tile: TileId, dur: Duration) {
        self.stats.yields.incr_owned(tile.index());
        if coro::in_coroutine() {
            self.ctxs[tile.index()].parker.lock.lock().deadline = Some(Instant::now() + dur);
            coro::suspend();
            return;
        }
        self.detach(tile);
        std::thread::sleep(dur);
        self.attach(tile);
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
    fn wait_releases_the_slot_for_others() {
        // One slot, two contexts: context 0 waits for an unpark only
        // context 1 can issue — progress proves `wait` released the slot.
        let s = sched(1, 2);
        let s0 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            s0.attach(TileId(0));
            s0.wait(TileId(0));
            s0.detach(TileId(0));
        });
        std::thread::sleep(Duration::from_millis(5));
        s.attach(TileId(1)); // acquires the slot context 0 released
        s.unpark(TileId(0));
        s.detach(TileId(1));
        h.join().unwrap();
        assert_eq!(s.stats().yields.get(), 1);
    }

    #[test]
    fn delivery_unparks_only_an_armed_waiter() {
        // Tile 0 arms, finds nothing, waits; the delivery unparks it. A
        // second delivery finds the flag down and leaves no stray token,
        // so the next, unrelated wait still blocks until its own unpark.
        let s = sched(2, 2);
        let flag = Arc::new(AtomicUsize::new(0));
        let (s0, f0) = (Arc::clone(&s), Arc::clone(&flag));
        let h = std::thread::spawn(move || {
            s0.attach(TileId(0));
            s0.arm_delivery(TileId(0));
            if f0.load(Ordering::SeqCst) == 0 {
                s0.wait(TileId(0));
            } else {
                s0.disarm_delivery(TileId(0));
            }
            f0.store(2, Ordering::SeqCst);
            s0.wait(TileId(0));
            s0.detach(TileId(0));
        });
        std::thread::sleep(Duration::from_millis(5));
        flag.store(1, Ordering::SeqCst);
        s.notify_delivery(TileId(0));
        while flag.load(Ordering::SeqCst) != 2 {
            std::thread::yield_now();
        }
        s.notify_delivery(TileId(0)); // not armed: no token
        std::thread::sleep(Duration::from_millis(5));
        assert!(!h.is_finished(), "a delivery to an unarmed tile must not unpark it");
        s.unpark(TileId(0));
        h.join().unwrap();
    }

    #[test]
    fn thread_sleep_releases_the_slot() {
        let s = sched(1, 2);
        s.attach(TileId(0));
        let s1 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            s1.attach(TileId(1)); // gets the slot only while tile 0 sleeps
            s1.detach(TileId(1));
        });
        s.sleep(TileId(0), Duration::from_millis(20));
        h.join().unwrap();
        s.detach(TileId(0));
        assert_eq!(s.stats().yields.get(), 1);
    }

    #[test]
    fn a_freed_slot_serves_an_expired_sleeper() {
        // Two slots: tile 0 (a thread) holds one; a carrier holds the other
        // and runs tile 1, which sleeps, then tile 2, which spins until tile
        // 1 has woken — so that carrier never switches again. When tile 0
        // frees its slot before the deadline, no carrier is switching or
        // idle; the deadline must still fire onto the free slot.
        let s = sched(2, 3);
        s.attach(TileId(0));
        let (go, woke, spinning) = (
            Arc::new(AtomicUsize::new(0)),
            Arc::new(AtomicUsize::new(0)),
            Arc::new(AtomicUsize::new(0)),
        );
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        {
            let (s1, go, woke) = (Arc::clone(&s), Arc::clone(&go), Arc::clone(&woke));
            s.submit(TileId(1), move || {
                while go.load(Ordering::SeqCst) == 0 {
                    std::hint::spin_loop();
                }
                s1.sleep(TileId(1), Duration::from_millis(100));
                woke.store(1, Ordering::SeqCst);
            });
        }
        {
            let (woke, spinning) = (Arc::clone(&woke), Arc::clone(&spinning));
            s.submit(TileId(2), move || {
                spinning.store(1, Ordering::SeqCst);
                while woke.load(Ordering::SeqCst) == 0 {
                    std::hint::spin_loop();
                }
                done_tx.send(()).unwrap();
            });
        }
        go.store(1, Ordering::SeqCst); // tile 2 is queued: tile 1 may sleep
        while spinning.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        s.detach(TileId(0));
        let fired = done_rx.recv_timeout(Duration::from_secs(20));
        assert!(fired.is_ok(), "the sleeper's deadline never fired onto the free slot");
        s.retire_carriers();
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
