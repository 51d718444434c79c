//! Simulated time: the [`Cycles`] quantity and the per-tile [`Clock`].
//!
//! Under lax synchronization (paper §3.6.1) every target tile owns a local
//! clock that advances independently as its core retires instructions. Clocks
//! interact only through message timestamps: on a true synchronization event
//! the receiving tile *forwards* its clock to the event time (never
//! backwards). [`Clock`] implements exactly that contract with lock-free
//! atomics, because clocks are read constantly by other tiles (LaxP2P partner
//! checks, progress estimation, skew sampling).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};
use std::sync::atomic::{AtomicU64, Ordering};

/// A duration or point in simulated time, measured in target clock cycles.
///
/// `Cycles` is a transparent `u64` newtype with saturating subtraction (the
/// lax models frequently compute `queue_clock - now` where either side may be
/// "in the past").
///
/// # Examples
///
/// ```
/// use graphite_base::Cycles;
/// let a = Cycles(100);
/// let b = Cycles(30);
/// assert_eq!(a + b, Cycles(130));
/// assert_eq!(b.saturating_sub(a), Cycles::ZERO);
/// assert_eq!((a - b).0, 70);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Saturating subtraction: returns zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Absolute difference between two points in time.
    #[inline]
    pub fn abs_diff(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.abs_diff(rhs.0))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.min(rhs.0))
    }

    /// Convert to seconds at the given clock frequency in GHz.
    #[inline]
    pub fn as_secs(self, freq_ghz: f64) -> f64 {
        self.0 as f64 / (freq_ghz * 1e9)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    /// # Panics
    ///
    /// Panics on underflow in debug builds; use [`Cycles::saturating_sub`]
    /// when the ordering of the operands is not guaranteed.
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl From<u64> for Cycles {
    fn from(v: u64) -> Self {
        Cycles(v)
    }
}

/// A tile-local simulated clock with lax-synchronization semantics.
///
/// The clock only moves forward. [`Clock::advance`] adds retired-instruction
/// latency; [`Clock::forward_to`] implements the paper's synchronization-event
/// rule: *"the clock of the tile is forwarded to the time that the event
/// occurred. If the event occurred earlier in simulated time, then no updates
/// take place"* (§3.6.1).
///
/// Reads are lock-free so that other tiles can sample clocks concurrently
/// (LaxP2P, skew measurement, progress estimation).
///
/// **Single writer.** Only the context running on the tile calls
/// [`Clock::advance`] and [`Clock::forward_to`], so both are a relaxed load
/// and store — no locked read-modify-write on the per-op path.
/// [`Clock::reset_to`] runs only while no context runs on the tile (spawn,
/// restore). A second concurrent writer would lose updates.
///
/// A tile's thread advances its clock on every guest op, so each clock owns a
/// 128-byte host block (see [`crate::CachePadded`]; the attribute is repeated
/// here because `Arc<Clock>` appears unwrapped in public signatures).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct Clock {
    now: AtomicU64,
}

impl Clock {
    /// Creates a clock at cycle zero.
    pub fn new() -> Self {
        Clock { now: AtomicU64::new(0) }
    }

    /// Creates a clock at a specific starting time (used when a spawned
    /// thread inherits the spawner's time).
    pub fn starting_at(t: Cycles) -> Self {
        Clock { now: AtomicU64::new(t.0) }
    }

    /// Current local time.
    #[inline]
    pub fn now(&self) -> Cycles {
        Cycles(self.now.load(Ordering::Relaxed))
    }

    /// Advances the clock by `delta` and returns the new time. Called only by
    /// the tile's running context (the single writer).
    #[inline]
    pub fn advance(&self, delta: Cycles) -> Cycles {
        let now = self.now.load(Ordering::Relaxed) + delta.0;
        self.now.store(now, Ordering::Relaxed);
        Cycles(now)
    }

    /// Forwards the clock to `t` if `t` is in the future; stale timestamps
    /// are ignored. Returns the resulting time. Called only by the tile's
    /// running context (the single writer).
    #[inline]
    pub fn forward_to(&self, t: Cycles) -> Cycles {
        let cur = self.now.load(Ordering::Relaxed);
        if t.0 > cur {
            self.now.store(t.0, Ordering::Relaxed);
            return t;
        }
        Cycles(cur)
    }

    /// Sets the clock unconditionally. Only used when re-binding a tile to a
    /// fresh thread; normal simulation must use the monotone operations.
    pub fn reset_to(&self, t: Cycles) {
        self.now.store(t.0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn cycles_arithmetic() {
        assert_eq!(Cycles(5) + Cycles(7), Cycles(12));
        assert_eq!(Cycles(7) - Cycles(5), Cycles(2));
        assert_eq!(Cycles(5).saturating_sub(Cycles(7)), Cycles::ZERO);
        assert_eq!(Cycles(5).abs_diff(Cycles(7)), Cycles(2));
        assert_eq!(Cycles(5).max(Cycles(7)), Cycles(7));
        assert_eq!(Cycles(5).min(Cycles(7)), Cycles(5));
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
    }

    #[test]
    fn cycles_as_secs() {
        // 1e9 cycles at 1 GHz is one second.
        assert!((Cycles(1_000_000_000).as_secs(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clock_advance_and_forward() {
        let c = Clock::new();
        assert_eq!(c.now(), Cycles::ZERO);
        assert_eq!(c.advance(Cycles(10)), Cycles(10));
        assert_eq!(c.forward_to(Cycles(5)), Cycles(10), "stale timestamp ignored");
        assert_eq!(c.forward_to(Cycles(50)), Cycles(50));
        assert_eq!(c.now(), Cycles(50));
    }

    #[test]
    fn clock_concurrent_forward_is_monotone() {
        // The contract: one writer (the tile's context) advances and
        // forwards, any number of readers sample concurrently.
        let c = Arc::new(Clock::new());
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (c, done) = (Arc::clone(&c), Arc::clone(&done));
                std::thread::spawn(move || {
                    let mut last = Cycles::ZERO;
                    while !done.load(Ordering::Acquire) {
                        let now = c.now();
                        assert!(now >= last, "clock went backwards: {last} -> {now}");
                        last = now;
                    }
                })
            })
            .collect();
        let mut expect = 0u64;
        for i in 0..20_000u64 {
            expect += 3;
            assert_eq!(c.advance(Cycles(3)), Cycles(expect));
            // Every other forward is stale and must be ignored.
            let t = if i % 2 == 0 { expect + 5 } else { expect / 2 };
            expect = expect.max(t);
            assert_eq!(c.forward_to(Cycles(t)), Cycles(expect));
        }
        done.store(true, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(c.now(), Cycles(expect));
    }

    #[test]
    fn clock_starting_at() {
        let c = Clock::starting_at(Cycles(42));
        assert_eq!(c.now(), Cycles(42));
        c.reset_to(Cycles(7));
        assert_eq!(c.now(), Cycles(7));
    }

    #[test]
    fn cycles_display() {
        assert_eq!(Cycles(123).to_string(), "123cy");
    }
}
