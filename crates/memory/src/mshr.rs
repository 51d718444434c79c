//! Miss-status holding registers: per-line exclusivity for in-flight misses.
//!
//! An [`MshrTable`] pins each cache-line index to at most one in-flight
//! directory transaction at a time. The winner inserts an entry and runs the
//! transaction; every other thread that misses on the same line *waits
//! without inserting* and then retries from its own cache — by the time the
//! waiter wakes, the winner's fill has usually landed, so the retry resolves
//! as a local hit instead of a second directory transaction. That is the
//! coalescing a hardware MSHR performs for secondary misses, expressed as a
//! release-and-retry protocol so simulated timing is identical whether a
//! thread won the race or drafted behind the winner.
//!
//! Lock ordering: an MSHR entry is the *top-level* per-line resource. A
//! thread holds at most one entry at a time (evictions complete before the
//! fill's entry is acquired), waiters sleep holding no locks, and the shard
//! maps inside the table are leaf locks held only for map mutation — so the
//! table can never participate in a deadlock cycle.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use graphite_base::{FxBuildHasher, TileId};

/// Sentinel requester for service-side acquisitions ([`MshrTable::acquire_service`]):
/// checkpoint peeks/pokes that need per-line exclusivity but belong to no tile.
const SERVICE_TILE: TileId = TileId(u32::MAX);

const SHARD_BITS: u32 = 6;
const NUM_SHARDS: usize = 1 << SHARD_BITS;

/// Why an acquisition attempt waited instead of inserting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrWait {
    /// Another thread of the *same* tile already has the line in flight —
    /// this is a coalesced secondary miss; the retry will hit locally.
    SameTile,
    /// A different tile's miss is in flight; the wait avoided two racing
    /// directory transactions on one line.
    CrossTile,
}

#[derive(Default)]
struct WaitEvent {
    done: Mutex<bool>,
    cv: Condvar,
}

struct InFlight {
    tile: TileId,
    /// Allocated lazily by the first waiter; `None` when nobody is waiting.
    event: Option<Arc<WaitEvent>>,
}

/// The table of in-flight misses, sharded to keep map locks uncontended.
pub struct MshrTable {
    shards: Box<[Mutex<HashMap<u64, InFlight, FxBuildHasher>>]>,
}

impl std::fmt::Debug for MshrTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MshrTable").field("in_flight", &self.in_flight()).finish()
    }
}

impl Default for MshrTable {
    fn default() -> Self {
        MshrTable { shards: (0..NUM_SHARDS).map(|_| Mutex::new(HashMap::default())).collect() }
    }
}

impl MshrTable {
    #[inline]
    fn shard_of(&self, line: u64) -> &Mutex<HashMap<u64, InFlight, FxBuildHasher>> {
        // Golden-ratio multiply decorrelates the aligned, sequential line
        // indices workloads produce; the top bits pick the shard.
        let idx = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SHARD_BITS)) as usize;
        &self.shards[idx]
    }

    /// Tries to register a miss on `line` for `tile`.
    ///
    /// * `Ok(guard)` — this thread now owns the line's in-flight slot and
    ///   must run the directory transaction; dropping the guard releases the
    ///   slot and wakes every waiter.
    /// * `Err(kind)` — another miss on the line was already in flight. The
    ///   call **blocked until that miss completed** and registered nothing;
    ///   the caller must re-probe its own cache and, on a miss, retry the
    ///   whole sequence.
    pub fn try_acquire_or_wait(&self, line: u64, tile: TileId) -> Result<MshrGuard<'_>, MshrWait> {
        let (kind, ev) = {
            let mut map = self.shard_of(line).lock();
            match map.entry(line) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(InFlight { tile, event: None });
                    return Ok(MshrGuard { table: self, line });
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    let holder = o.get().tile;
                    let ev = Arc::clone(
                        o.get_mut().event.get_or_insert_with(|| Arc::new(WaitEvent::default())),
                    );
                    (if holder == tile { MshrWait::SameTile } else { MshrWait::CrossTile }, ev)
                }
            }
        };
        let mut done = ev.done.lock();
        while !*done {
            ev.cv.wait(&mut done);
        }
        Err(kind)
    }

    /// Acquires per-line exclusivity for a service-side operation (checkpoint
    /// peek/poke), waiting out any in-flight miss. Unlike
    /// [`MshrTable::try_acquire_or_wait`] this never returns until it owns
    /// the slot.
    pub fn acquire_service(&self, line: u64) -> MshrGuard<'_> {
        loop {
            let event = {
                let mut map = self.shard_of(line).lock();
                match map.entry(line) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(InFlight { tile: SERVICE_TILE, event: None });
                        return MshrGuard { table: self, line };
                    }
                    std::collections::hash_map::Entry::Occupied(mut o) => Arc::clone(
                        o.get_mut().event.get_or_insert_with(|| Arc::new(WaitEvent::default())),
                    ),
                }
            };
            let mut done = event.done.lock();
            while !*done {
                event.cv.wait(&mut done);
            }
        }
    }

    fn release(&self, line: u64) {
        let event = {
            let mut map = self.shard_of(line).lock();
            map.remove(&line).expect("MSHR release of absent line").event
        };
        if let Some(ev) = event {
            // Set the flag under the event mutex so a waiter between its
            // `done` check and `cv.wait` cannot miss the wakeup.
            let mut done = ev.done.lock();
            *done = true;
            ev.cv.notify_all();
        }
    }

    /// Total entries currently in flight (quiescence checks and tests).
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

/// Ownership of one line's in-flight slot; dropping releases it and wakes
/// all waiters.
#[must_use = "dropping the guard releases the MSHR entry"]
pub struct MshrGuard<'a> {
    table: &'a MshrTable,
    line: u64,
}

impl Drop for MshrGuard<'_> {
    fn drop(&mut self) {
        self.table.release(self.line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    #[test]
    fn acquire_release_reacquire() {
        let t = MshrTable::default();
        let g = t.try_acquire_or_wait(42, TileId(0)).unwrap();
        assert_eq!(t.in_flight(), 1);
        drop(g);
        assert_eq!(t.in_flight(), 0);
        let _g2 = t.try_acquire_or_wait(42, TileId(1)).unwrap();
        assert_eq!(t.in_flight(), 1);
    }

    #[test]
    fn different_lines_do_not_conflict() {
        let t = MshrTable::default();
        let _a = t.try_acquire_or_wait(1, TileId(0)).unwrap();
        let _b = t.try_acquire_or_wait(2, TileId(0)).unwrap();
        assert_eq!(t.in_flight(), 2);
    }

    #[test]
    fn waiter_blocks_until_release_and_sees_kind() {
        let t = Arc::new(MshrTable::default());
        let released = Arc::new(AtomicBool::new(false));
        let g = t.try_acquire_or_wait(7, TileId(2)).unwrap();
        let same = {
            let (t, released) = (Arc::clone(&t), Arc::clone(&released));
            std::thread::spawn(move || {
                let r = t.try_acquire_or_wait(7, TileId(2));
                assert!(released.load(Ordering::SeqCst), "waiter returned before release");
                assert_eq!(r.err(), Some(MshrWait::SameTile));
            })
        };
        let cross = {
            let (t, released) = (Arc::clone(&t), Arc::clone(&released));
            std::thread::spawn(move || {
                let r = t.try_acquire_or_wait(7, TileId(3));
                assert!(released.load(Ordering::SeqCst), "waiter returned before release");
                assert_eq!(r.err(), Some(MshrWait::CrossTile));
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        released.store(true, Ordering::SeqCst);
        drop(g);
        same.join().unwrap();
        cross.join().unwrap();
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn service_acquire_waits_out_misses() {
        let t = Arc::new(MshrTable::default());
        let g = t.try_acquire_or_wait(5, TileId(0)).unwrap();
        let released = Arc::new(AtomicBool::new(false));
        let h = {
            let (t, released) = (Arc::clone(&t), Arc::clone(&released));
            std::thread::spawn(move || {
                let _svc = t.acquire_service(5);
                assert!(released.load(Ordering::SeqCst));
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        released.store(true, Ordering::SeqCst);
        drop(g);
        h.join().unwrap();
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn hammering_one_line_always_converges() {
        let t = Arc::new(MshrTable::default());
        let mut handles = Vec::new();
        for tid in 0..8u32 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut wins = 0u32;
                for _ in 0..200 {
                    loop {
                        match t.try_acquire_or_wait(99, TileId(tid)) {
                            Ok(g) => {
                                wins += 1;
                                drop(g);
                                break;
                            }
                            Err(_) => continue, // re-probe-and-retry stand-in
                        }
                    }
                }
                wins
            }));
        }
        let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 8 * 200);
        assert_eq!(t.in_flight(), 0);
    }
}
