//! Sequence counters for seqlock-style optimistic reads.
//!
//! A [`SeqCount`] guards a data structure that is mutated under an external
//! lock but read optimistically without one: writers bump the counter to an
//! odd value before mutating and back to even after; readers snapshot the
//! counter, copy the data out, and accept the copy only if the counter was
//! even and unchanged across the copy. The memory-system hit path uses one
//! per tile so read hits can skip the tile mutex.
//!
//! The caller's lock serialises writers, so the writer side is a plain load
//! and store of the counter (no locked read-modify-write); the release
//! fences still order the counter against the guarded data.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::CachePadded;

/// A seqlock sequence counter on a padded block of its own, so per-tile
/// counters in an array never false-share.
#[derive(Debug, Default)]
pub struct SeqCount {
    seq: CachePadded<AtomicU64>,
}

impl SeqCount {
    /// A fresh counter in the even (quiescent) state.
    pub fn new() -> Self {
        SeqCount::default()
    }

    /// Host address of the counter word, for layout tests.
    #[doc(hidden)]
    pub fn addr(&self) -> usize {
        crate::padded::addr_of(&*self.seq)
    }

    /// Marks the start of a write section: the counter becomes odd and every
    /// optimistic read started before the matching [`SeqCount::end_write`]
    /// will fail validation. Call only while holding the writer-side lock:
    /// that lock is what serialises writers, and the bump is a plain store.
    #[inline]
    pub fn begin_write(&self) {
        self.bump();
        fence(Ordering::Release);
    }

    /// Marks the end of a write section (counter returns to even). Same
    /// locking rule as [`SeqCount::begin_write`].
    #[inline]
    pub fn end_write(&self) {
        fence(Ordering::Release);
        self.bump();
    }

    #[inline]
    fn bump(&self) {
        self.seq.store(self.seq.load(Ordering::Relaxed).wrapping_add(1), Ordering::Relaxed);
    }

    /// Snapshots the counter before an optimistic read. Returns `None` when
    /// a write is in progress (odd counter) — the reader should fall back to
    /// the locked path rather than spin.
    #[inline]
    pub fn read_begin(&self) -> Option<u64> {
        let s = self.seq.load(Ordering::Acquire);
        (s & 1 == 0).then_some(s)
    }

    /// Validates an optimistic read: true when no write section started
    /// since `read_begin` returned `snapshot`. Must run *after* every racy
    /// load of the guarded data (the internal fence orders them).
    #[inline]
    pub fn read_validate(&self, snapshot: u64) -> bool {
        fence(Ordering::Acquire);
        self.seq.load(Ordering::Relaxed) == snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn quiescent_reads_validate() {
        let s = SeqCount::new();
        let snap = s.read_begin().unwrap();
        assert!(s.read_validate(snap));
    }

    #[test]
    fn in_progress_write_blocks_read_begin() {
        let s = SeqCount::new();
        s.begin_write();
        assert!(s.read_begin().is_none(), "odd counter means writer active");
        s.end_write();
        assert!(s.read_begin().is_some());
    }

    #[test]
    fn completed_write_invalidates_overlapping_read() {
        let s = SeqCount::new();
        let snap = s.read_begin().unwrap();
        s.begin_write();
        s.end_write();
        assert!(!s.read_validate(snap), "write section must invalidate the snapshot");
        let snap2 = s.read_begin().unwrap();
        assert!(s.read_validate(snap2));
    }

    #[test]
    fn concurrent_writers_and_readers_never_validate_torn_state() {
        // Writer keeps a pair of values equal under the seqlock protocol;
        // readers must never validate a snapshot where they differ.
        let s = Arc::new(SeqCount::new());
        let pair = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let stop = Arc::new(AtomicU64::new(0));
        let w = {
            let (s, pair, stop) = (Arc::clone(&s), Arc::clone(&pair), Arc::clone(&stop));
            std::thread::spawn(move || {
                for i in 1..20_000u64 {
                    s.begin_write();
                    pair[0].store(i, Ordering::Relaxed);
                    pair[1].store(i, Ordering::Relaxed);
                    s.end_write();
                }
                stop.store(1, Ordering::Release);
            })
        };
        let mut validated = 0u64;
        while stop.load(Ordering::Acquire) == 0 {
            if let Some(snap) = s.read_begin() {
                let a = pair[0].load(Ordering::Relaxed);
                let b = pair[1].load(Ordering::Relaxed);
                if s.read_validate(snap) {
                    assert_eq!(a, b, "validated read observed a torn write");
                    validated += 1;
                }
            }
        }
        w.join().unwrap();
        // On a single-core host the writer may finish before the reader loop
        // gets a slice; a quiescent read must always validate.
        let snap = s.read_begin().expect("counter even after writer exits");
        let a = pair[0].load(Ordering::Relaxed);
        let b = pair[1].load(Ordering::Relaxed);
        assert!(s.read_validate(snap));
        assert_eq!(a, b);
        validated += 1;
        assert!(validated > 0, "at least some optimistic reads should validate");
    }
}
