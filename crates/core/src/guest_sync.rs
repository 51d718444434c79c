//! Guest-side pthread-style synchronization primitives.
//!
//! Graphite runs unmodified pthread applications; their mutexes, condition
//! variables and barriers ultimately reach the kernel through the `futex`
//! syscall, which the simulator intercepts and emulates at the MCP (paper
//! §3.4). These types are the guest-side halves: classic futex-based
//! algorithms whose every memory access goes through the simulated coherent
//! address space, and whose every blocking operation is a true
//! synchronization event that reconciles tile clocks (§3.6.1).
//!
//! All state lives in *simulated* memory, so any thread on any tile in any
//! simulated process can share these primitives by address.

use graphite_memory::Addr;

use crate::ctx::Ctx;

/// A futex-based mutex (the classic three-state algorithm:
/// 0 = free, 1 = locked, 2 = locked with waiters).
///
/// # Examples
///
/// See [`GBarrier`] for a full multi-thread example; the lock itself:
///
/// ```no_run
/// # use graphite::{GMutex, Ctx};
/// # fn demo(ctx: &mut Ctx) {
/// let m = GMutex::create(ctx);
/// m.lock(ctx);
/// // ... critical section over simulated memory ...
/// m.unlock(ctx);
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GMutex {
    addr: Addr,
}

impl GMutex {
    /// Allocates a mutex in simulated memory (its own cache line, to avoid
    /// false sharing with neighbours).
    pub fn create(ctx: &mut Ctx) -> Self {
        let addr = ctx.malloc(64).expect("simulated heap");
        ctx.store::<u32>(addr, 0);
        GMutex { addr }
    }

    /// Adopts an existing futex word (e.g. inside a shared struct).
    pub fn at(addr: Addr) -> Self {
        GMutex { addr }
    }

    /// The futex word's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Acquires the mutex, blocking through the emulated futex if contended.
    pub fn lock(&self, ctx: &mut Ctx) {
        // Fast path: 0 -> 1.
        let old = ctx.fetch_update_u32(self.addr, |v| if v == 0 { 1 } else { v });
        if old == 0 {
            return;
        }
        loop {
            // Mark contended (2) unless it became free meanwhile.
            let old = ctx.fetch_update_u32(self.addr, |_| 2);
            if old == 0 {
                return; // we took it (value now 2; unlock handles both)
            }
            ctx.futex_wait(self.addr, 2);
        }
    }

    /// Releases the mutex, waking one waiter if any.
    pub fn unlock(&self, ctx: &mut Ctx) {
        let old = ctx.fetch_update_u32(self.addr, |_| 0);
        debug_assert_ne!(old, 0, "unlock of a free mutex");
        if old == 2 {
            ctx.futex_wake(self.addr, 1);
        }
    }
}

/// A centralized sense-reversing barrier over a futex generation word.
///
/// Layout in simulated memory:
/// `[count: u32][generation: u32][release_time_even: u64][release_time_odd: u64]`.
///
/// Every arriving thread maxes its clock into the release-time slot of the
/// *current generation's parity*; after release each participant forwards
/// its clock to that slot — barriers are application synchronization events
/// that reconcile clocks (paper §3.6.1), including for participants that
/// win the futex race and never block.
///
/// Two alternating slots (reset one round ahead by the releaser) keep the
/// release time *per round*: with a single running-max word, a fast thread
/// entering round k+1 would pollute round k's release time before slow
/// round-k waiters read it, compounding clock inflation round over round
/// until every clock approximates the *sum* of all threads' work.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use graphite::{GBarrier, GuestEntry, Sim, SimConfig};
///
/// let cfg = SimConfig::builder().tiles(4).build().unwrap();
/// let report = Sim::builder(cfg).build().unwrap().run(|ctx| {
///     let bar = GBarrier::create(ctx, 4);
///     let entry: GuestEntry = Arc::new(move |ctx, _| {
///         bar.wait(ctx); // all four threads meet here
///     });
///     let tids: Vec<_> = (0..3).map(|_| ctx.spawn(entry.clone(), 0).unwrap()).collect();
///     bar.wait(ctx);
///     for t in tids {
///         t.join(ctx).unwrap();
///     }
/// });
/// assert!(report.ctrl.futex_wakes > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GBarrier {
    base: Addr,
    parties: u32,
}

impl GBarrier {
    /// Allocates a barrier for `parties` threads.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn create(ctx: &mut Ctx, parties: u32) -> Self {
        assert!(parties > 0, "barrier needs at least one party");
        let base = ctx.malloc(64).expect("simulated heap");
        ctx.store::<u32>(base, 0); // count
        ctx.store::<u32>(base.offset(4), 0); // generation
        GBarrier { base, parties }
    }

    /// Number of participating threads.
    pub fn parties(&self) -> u32 {
        self.parties
    }

    /// Waits until all parties arrive. The releasing thread's wake carries
    /// its timestamp, so every waiter's clock is forwarded — barriers are
    /// application synchronization events (§3.6.1).
    pub fn wait(&self, ctx: &mut Ctx) {
        let gen_addr = self.base.offset(4);
        let gen = ctx.load::<u32>(gen_addr);
        let time_addr = self.base.offset(8 + 8 * (gen as u64 % 2));
        // Publish this thread's arrival time: the barrier resolves at the
        // maximum over this round's participants.
        let me = ctx.now().0;
        ctx.fetch_update_u64(time_addr, |t| t.max(me));
        let arrived = ctx.fetch_update_u32(self.base, |v| v + 1) + 1;
        if arrived == self.parties {
            ctx.store::<u32>(self.base, 0);
            // Clear the *other* slot for the next round. Safe: round k+1
            // arrivals write that slot only after this release (gen bump),
            // and this round's waiters read only this round's slot.
            ctx.store::<u64>(self.base.offset(8 + 8 * ((gen as u64 + 1) % 2)), 0);
            ctx.fetch_update_u32(gen_addr, |g| g.wrapping_add(1));
            ctx.futex_wake(gen_addr, u32::MAX);
        } else {
            // The previous round's releaser bumps the generation and *then*
            // wakes, so its wake can land after this thread has parked for
            // the current round. Whether that happens is host timing, and it
            // must not show in what the model counts: the check that decides
            // whether to wait again is a functional peek, and the modeled
            // re-read of the generation happens exactly once, on the way out.
            loop {
                ctx.futex_wait(gen_addr, gen);
                let mut now = [0u8; 4];
                ctx.peek_bytes(gen_addr, &mut now);
                if u32::from_le_bytes(now) != gen {
                    break;
                }
            }
            let _ = ctx.load::<u32>(gen_addr);
        }
        // Synchronization event (§3.6.1): every participant — releaser
        // included, it may not be this round's latest arrival — forwards its
        // clock to the barrier resolution time.
        let release_time = ctx.load::<u64>(time_addr);
        ctx.forward_time(graphite_base::Cycles(release_time));
    }
}

/// A futex-based condition variable (sequence-count algorithm), used with a
/// [`GMutex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GCondvar {
    seq: Addr,
}

impl GCondvar {
    /// Allocates a condition variable in simulated memory.
    pub fn create(ctx: &mut Ctx) -> Self {
        let seq = ctx.malloc(64).expect("simulated heap");
        ctx.store::<u32>(seq, 0);
        GCondvar { seq }
    }

    /// Atomically releases `mutex` and waits for a signal, then reacquires.
    pub fn wait(&self, ctx: &mut Ctx, mutex: &GMutex) {
        let seq = ctx.load::<u32>(self.seq);
        mutex.unlock(ctx);
        ctx.futex_wait(self.seq, seq);
        mutex.lock(ctx);
    }

    /// Wakes one waiter.
    pub fn signal(&self, ctx: &mut Ctx) {
        ctx.fetch_update_u32(self.seq, |v| v.wrapping_add(1));
        ctx.futex_wake(self.seq, 1);
    }

    /// Wakes every waiter.
    pub fn broadcast(&self, ctx: &mut Ctx) {
        ctx.fetch_update_u32(self.seq, |v| v.wrapping_add(1));
        ctx.futex_wake(self.seq, u32::MAX);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use graphite_base::Cycles;
    use graphite_config::SimConfig;
    use graphite_memory::Addr;

    use super::*;
    use crate::{GuestEntry, Sim};

    fn cfg(tiles: u32, procs: u32) -> SimConfig {
        SimConfig::builder().tiles(tiles).processes(procs).build().unwrap()
    }

    #[test]
    fn mutex_protects_critical_section() {
        Sim::builder(cfg(4, 2)).build().unwrap().run(|ctx| {
            let m = GMutex::create(ctx);
            let counter = ctx.malloc(64).unwrap();
            let entry: GuestEntry = Arc::new(move |ctx, arg| {
                let counter = Addr(arg);
                for _ in 0..200 {
                    m.lock(ctx);
                    // Non-atomic read-modify-write: only safe under the lock.
                    let v = ctx.load::<u64>(counter);
                    ctx.store::<u64>(counter, v + 1);
                    m.unlock(ctx);
                }
            });
            let tids: Vec<_> =
                (0..3).map(|_| ctx.spawn(Arc::clone(&entry), counter.0).unwrap()).collect();
            for _ in 0..200 {
                m.lock(ctx);
                let v = ctx.load::<u64>(counter);
                ctx.store::<u64>(counter, v + 1);
                m.unlock(ctx);
            }
            for t in tids {
                t.join(ctx).unwrap();
            }
            assert_eq!(ctx.load::<u64>(counter), 800);
        });
    }

    /// One barrier round of a child and main; with `stale_wake`, main first
    /// wakes the parked child without bumping the generation — what a late
    /// wake from the previous round's releaser looks like to a waiter.
    fn barrier_round_accesses(stale_wake: bool) -> u64 {
        let r = Sim::builder(cfg(2, 1)).workers(2).build().unwrap().run(move |ctx| {
            let bar = GBarrier::create(ctx, 2);
            let entry: GuestEntry = Arc::new(move |ctx, _| bar.wait(ctx));
            let child = ctx.spawn(entry, 0).unwrap();
            // `futex_wake` reports how many it woke, so looping until it
            // wakes one forces the interleaving: the child was parked.
            while stale_wake && ctx.futex_wake(bar.base.offset(4), 1) == 0 {
                std::thread::yield_now();
            }
            bar.wait(ctx);
            child.join(ctx).unwrap();
        });
        r.mem.accesses()
    }

    #[test]
    fn stale_barrier_wake_does_not_change_modeled_accesses() {
        assert_eq!(barrier_round_accesses(true), barrier_round_accesses(false));
    }

    #[test]
    fn barrier_rounds_separate_phases() {
        Sim::builder(cfg(4, 2)).build().unwrap().run(|ctx| {
            let bar = GBarrier::create(ctx, 4);
            let flags = ctx.malloc(4 * 8).unwrap();
            let entry: GuestEntry = Arc::new(move |ctx, arg| {
                let flags = Addr(arg);
                let me = ctx.tile().0 as u64;
                for round in 1..=3u64 {
                    ctx.store::<u64>(flags.offset(me * 8), round);
                    bar.wait(ctx);
                    // After the barrier, every thread must be in `round`.
                    for t in 0..4u64 {
                        let v = ctx.load::<u64>(flags.offset(t * 8));
                        assert!(v >= round, "tile {t} behind: {v} < {round}");
                    }
                    bar.wait(ctx);
                }
            });
            let tids: Vec<_> =
                (0..3).map(|_| ctx.spawn(Arc::clone(&entry), flags.0).unwrap()).collect();
            entry(ctx, flags.0);
            for t in tids {
                t.join(ctx).unwrap();
            }
        });
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let r = Sim::builder(cfg(2, 1)).build().unwrap().run(|ctx| {
            let bar = GBarrier::create(ctx, 2);
            let entry: GuestEntry = Arc::new(move |ctx, _| {
                bar.wait(ctx); // child arrives almost immediately
            });
            let t = ctx.spawn(entry, 0).unwrap();
            ctx.alu(300_000); // main is far ahead when it arrives
            bar.wait(ctx);
            t.join(ctx).unwrap();
        });
        // The child was woken by main's barrier release: its clock must have
        // been forwarded to ~main's time.
        assert!(
            r.per_tile_cycles[1] >= Cycles(300_000),
            "barrier did not forward clock: {}",
            r.per_tile_cycles[1]
        );
    }

    #[test]
    fn condvar_signal_wakes_waiter() {
        Sim::builder(cfg(2, 1)).build().unwrap().run(|ctx| {
            let m = GMutex::create(ctx);
            let cv = GCondvar::create(ctx);
            let ready = ctx.malloc(64).unwrap();
            let entry: GuestEntry = Arc::new(move |ctx, arg| {
                let ready = Addr(arg);
                m.lock(ctx);
                while ctx.load::<u32>(ready) == 0 {
                    cv.wait(ctx, &m);
                }
                m.unlock(ctx);
            });
            let t = ctx.spawn(entry, ready.0).unwrap();
            m.lock(ctx);
            ctx.store::<u32>(ready, 1);
            cv.broadcast(ctx);
            m.unlock(ctx);
            t.join(ctx).unwrap();
        });
    }

    #[test]
    fn mutex_at_adopts_address() {
        Sim::builder(cfg(1, 1)).build().unwrap().run(|ctx| {
            let word = ctx.malloc(64).unwrap();
            ctx.store::<u32>(word, 0);
            let m = GMutex::at(word);
            assert_eq!(m.addr(), word);
            m.lock(ctx);
            m.unlock(ctx);
        });
    }
}
