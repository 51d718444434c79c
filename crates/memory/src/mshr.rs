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
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use graphite_base::{CachePadded, FxBuildHasher, TileId};

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
    /// Outstanding entries per tile, for the `mshr_entries` cap.
    per_tile: Box<[CachePadded<AtomicU32>]>,
    /// `mshr_entries`; 0 means uncapped.
    cap: u32,
    stalls: AtomicU64,
}

impl std::fmt::Debug for MshrTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MshrTable")
            .field("cap", &self.cap)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl MshrTable {
    /// Builds a table for `num_tiles` tiles with an outstanding-miss cap of
    /// `cap` per tile (0 = uncapped).
    pub fn new(num_tiles: usize, cap: u32) -> Self {
        MshrTable {
            shards: (0..NUM_SHARDS).map(|_| Mutex::new(HashMap::default())).collect(),
            per_tile: (0..num_tiles).map(|_| CachePadded::default()).collect(),
            cap,
            stalls: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard_of(&self, line: u64) -> &Mutex<HashMap<u64, InFlight, FxBuildHasher>> {
        // Golden-ratio multiply decorrelates the aligned, sequential line
        // indices workloads produce; the top bits pick the shard.
        let idx = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SHARD_BITS)) as usize;
        &self.shards[idx]
    }

    /// Reserves one of this tile's `cap` outstanding slots, spinning (with
    /// yields) while the tile is at its cap. Returns whether it had to stall.
    fn reserve_slot(&self, tile_idx: usize) -> bool {
        let ctr = &self.per_tile[tile_idx];
        if self.cap == 0 {
            ctr.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut stalled = false;
        loop {
            let cur = ctr.load(Ordering::Relaxed);
            if cur < self.cap {
                if ctr
                    .compare_exchange_weak(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    return stalled;
                }
            } else {
                if !stalled {
                    stalled = true;
                    self.stalls.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::yield_now();
            }
        }
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
        let tile_idx = tile.0 as usize;
        let stalled = self.reserve_slot(tile_idx);
        let event = {
            let mut map = self.shard_of(line).lock();
            match map.entry(line) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(InFlight { tile, event: None });
                    return Ok(MshrGuard { table: self, line, tile_idx: Some(tile_idx), stalled });
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
        // We did not insert: give the reserved slot back before sleeping.
        self.per_tile[tile_idx].fetch_sub(1, Ordering::Relaxed);
        let (kind, ev) = event;
        let mut done = ev.done.lock();
        while !*done {
            ev.cv.wait(&mut done);
        }
        Err(kind)
    }

    /// Acquires per-line exclusivity for a service-side operation (checkpoint
    /// peek/poke), waiting out any in-flight miss. Unlike
    /// [`MshrTable::try_acquire_or_wait`] this never returns until it owns
    /// the slot, and it bypasses the per-tile cap.
    pub fn acquire_service(&self, line: u64) -> MshrGuard<'_> {
        loop {
            let event = {
                let mut map = self.shard_of(line).lock();
                match map.entry(line) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(InFlight { tile: SERVICE_TILE, event: None });
                        return MshrGuard { table: self, line, tile_idx: None, stalled: false };
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

    fn release(&self, line: u64, tile_idx: Option<usize>) {
        let event = {
            let mut map = self.shard_of(line).lock();
            map.remove(&line).expect("MSHR release of absent line").event
        };
        if let Some(i) = tile_idx {
            self.per_tile[i].fetch_sub(1, Ordering::Relaxed);
        }
        if let Some(ev) = event {
            // Set the flag under the event mutex so a waiter between its
            // `done` check and `cv.wait` cannot miss the wakeup.
            let mut done = ev.done.lock();
            *done = true;
            ev.cv.notify_all();
        }
    }

    /// Host address of `tile_idx`'s outstanding-miss counter, for layout
    /// tests.
    #[doc(hidden)]
    pub fn slot_addr(&self, tile_idx: usize) -> usize {
        graphite_base::padded::addr_of(&*self.per_tile[tile_idx])
    }

    /// Total entries currently in flight (quiescence checks and tests).
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Cumulative count of acquisitions that stalled on the per-tile cap.
    pub fn stall_events(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }
}

/// Ownership of one line's in-flight slot; dropping releases it and wakes
/// all waiters.
#[must_use = "dropping the guard releases the MSHR entry"]
pub struct MshrGuard<'a> {
    table: &'a MshrTable,
    line: u64,
    /// `None` for service acquisitions (exempt from the per-tile cap).
    tile_idx: Option<usize>,
    stalled: bool,
}

impl MshrGuard<'_> {
    /// Whether acquiring this entry stalled on the tile's outstanding cap.
    pub fn stalled(&self) -> bool {
        self.stalled
    }
}

impl Drop for MshrGuard<'_> {
    fn drop(&mut self) {
        self.table.release(self.line, self.tile_idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn acquire_release_reacquire() {
        let t = MshrTable::new(4, 8);
        let g = t.try_acquire_or_wait(42, TileId(0)).unwrap();
        assert_eq!(t.in_flight(), 1);
        drop(g);
        assert_eq!(t.in_flight(), 0);
        let g2 = t.try_acquire_or_wait(42, TileId(1)).unwrap();
        assert!(!g2.stalled());
    }

    #[test]
    fn different_lines_do_not_conflict() {
        let t = MshrTable::new(4, 8);
        let _a = t.try_acquire_or_wait(1, TileId(0)).unwrap();
        let _b = t.try_acquire_or_wait(2, TileId(0)).unwrap();
        assert_eq!(t.in_flight(), 2);
    }

    #[test]
    fn waiter_blocks_until_release_and_sees_kind() {
        let t = Arc::new(MshrTable::new(4, 8));
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
    fn per_tile_cap_stalls_extra_misses() {
        let t = Arc::new(MshrTable::new(2, 1));
        let g = t.try_acquire_or_wait(10, TileId(0)).unwrap();
        let released = Arc::new(AtomicBool::new(false));
        let h = {
            let (t, released) = (Arc::clone(&t), Arc::clone(&released));
            std::thread::spawn(move || {
                // Different line, same tile: blocked by the cap, not the line.
                let g2 = t.try_acquire_or_wait(11, TileId(0)).unwrap();
                assert!(released.load(Ordering::SeqCst), "cap did not stall");
                assert!(g2.stalled());
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        // Another tile is unaffected by tile 0's cap.
        let other = t.try_acquire_or_wait(12, TileId(1)).unwrap();
        assert!(!other.stalled());
        released.store(true, Ordering::SeqCst);
        drop(g);
        h.join().unwrap();
        assert!(t.stall_events() >= 1);
    }

    #[test]
    fn service_acquire_waits_out_misses() {
        let t = Arc::new(MshrTable::new(2, 0));
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
        let t = Arc::new(MshrTable::new(8, 4));
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
