//! Directory state for the distributed cache-coherence engine (paper §3.2).
//!
//! The directory is uniformly distributed across all tiles: the *home* of a
//! cache line is `line mod num_tiles`. Each line's record holds the MSI
//! directory state, the sharer set, and — because Graphite's memory system is
//! functional — the line's actual bytes (the DRAM copy).
//!
//! All three coherence schemes of the paper's Figure 9 study share this one
//! record layout; they differ only in how many sharers the "hardware" tracks
//! and what overflowing costs ([`graphite_config::CoherenceScheme`]).
//!
//! ## Storage
//!
//! One [`Directory`] arena serves a whole memory system (DESIGN §7). A
//! record is a fixed stride of `AtomicU64` words — state/owner,
//! `ceil(tiles / 64)` sharer words, `ceil(line_size / 8)` data words — named
//! by a `u32` handle in hand-out order. The first chunk holds [`FIRST`]
//! records, each of the next `RAMP - 1` doubles, every later one holds
//! [`CAP`]: the tail never handed out is smaller than what is in use and
//! never larger than one chunk. Chunks, and the doubling tiers of slots that
//! hold them, are published through `OnceLock`s and neither move nor free
//! until the directory drops, so a handle stays valid for the directory's
//! life and teardown frees chunks, not lines. Every word is accessed
//! `Relaxed`: whoever holds a line in the line table is its record's only
//! writer, and the shard lock that hands the line over orders one holder's
//! writes before the next's reads.
//!
//! ## The line table
//!
//! The crate-private `LineTable` owns the arena and maps each line to a
//! slot in one of `DIR_SHARDS` shard maps: the record's handle and the
//! line's holder. So the map that finds a line's record also lets at most
//! one transaction per line run at a time, as an MSHR would. A claim is one
//! critical section under the shard lock (get-or-insert the slot, take it
//! if free) and a release is a second. A claim that finds the line held
//! sets the slot's waiter bit under the lock, sleeps on the shard's
//! `Condvar` and, woken with the line free, takes it before it lets go of
//! the lock; a release notifies only when that bit is set. Each tile runs
//! one context, so the holder a tile's claim waits out is always another
//! tile or a service claim.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

use graphite_base::{CachePadded, FxBuildHasher, HostProf, HostStage, TileId};
use parking_lot::{Condvar, Mutex, MutexGuard};

/// Records in the first chunk.
const FIRST: usize = 64;
/// Chunks `0..RAMP` double in size; the rest hold [`CAP`] records.
const RAMP: usize = 8;
/// Records per chunk past the ramp (1.25 MiB of 80-byte records).
const CAP: usize = FIRST << RAMP;
/// Tier `t` holds the slots of chunks `2^t - 1 .. 2^(t+1) - 1`; 19 tiers
/// cover every `u32` handle.
const TIERS: usize = 19;

type Chunk = Box<[AtomicU64]>;

const _: () = assert!(slot(locate(u32::MAX).0).0 == TIERS - 1);

/// The chunk holding record `handle` and the record's index in it.
const fn locate(handle: u32) -> (usize, usize) {
    let v = handle as usize + FIRST;
    if v < CAP {
        let c = v.ilog2() as usize - FIRST.ilog2() as usize;
        (c, v - (FIRST << c))
    } else {
        (RAMP - 1 + v / CAP, v % CAP)
    }
}

/// The tier holding chunk `chunk`'s slot and the slot's index in it.
const fn slot(chunk: usize) -> (usize, usize) {
    let tier = (chunk + 1).ilog2() as usize;
    (tier, chunk + 1 - (1 << tier))
}

/// The arena of directory records.
///
/// # Examples
///
/// ```
/// use graphite_base::TileId;
/// use graphite_memory::directory::{DirState, Directory};
/// let dir = Directory::new(64, 64);
/// let rec = dir.record(dir.alloc());
/// assert_eq!(rec.state(), DirState::Uncached);
/// rec.sharers().insert(TileId(3));
/// rec.sharers().insert(TileId(40));
/// assert_eq!(rec.sharers().iter().collect::<Vec<_>>(), vec![TileId(3), TileId(40)]);
/// rec.write_bytes(6, &[1, 2, 3]);
/// let mut line = [0u8; 64];
/// rec.read_bytes(0, &mut line);
/// assert_eq!(line[5..10], [0, 1, 2, 3, 0]);
/// ```
#[derive(Debug)]
pub struct Directory {
    tiers: [OnceLock<Box<[OnceLock<Chunk>]>>; TIERS],
    /// Records handed out; the next handle. On a padded block of its own:
    /// every first touch writes it, every lookup reads the fields beside it.
    next: CachePadded<AtomicU32>,
    sharer_words: usize,
    /// Words per record.
    stride: usize,
}

impl Directory {
    /// An empty directory for `tiles` tiles and `line_size`-byte lines.
    pub fn new(tiles: u32, line_size: u32) -> Self {
        let sharer_words = tiles.div_ceil(64) as usize;
        Directory {
            tiers: [const { OnceLock::new() }; TIERS],
            next: CachePadded::default(),
            sharer_words,
            stride: 1 + sharer_words + line_size.div_ceil(8) as usize,
        }
    }

    /// Hands out a fresh record — `Uncached`, no sharers, zero bytes — and
    /// returns its handle.
    ///
    /// # Panics
    ///
    /// Panics once `u32::MAX` records are out.
    pub fn alloc(&self) -> u32 {
        let handle = self.next.fetch_add(1, Relaxed);
        assert!(handle != u32::MAX, "directory arena is full");
        let (chunk, _) = locate(handle);
        let (tier, i) = slot(chunk);
        let slots =
            self.tiers[tier].get_or_init(|| (0..1 << tier).map(|_| OnceLock::new()).collect());
        // Chunks start zeroed and records never return to the arena, so a
        // fresh record needs no initialisation.
        slots[i].get_or_init(|| {
            let records = if chunk < RAMP { FIRST << chunk } else { CAP };
            (0..records * self.stride).map(|_| AtomicU64::new(0)).collect()
        });
        handle
    }

    /// The record behind a handle [`Directory::alloc`] returned.
    ///
    /// # Panics
    ///
    /// Panics if the handle's chunk was never allocated.
    #[inline]
    pub fn record(&self, handle: u32) -> Record<'_> {
        let (chunk, i) = locate(handle);
        let (tier, s) = slot(chunk);
        let chunk = self.tiers[tier].get().and_then(|slots| slots[s].get());
        let chunk = chunk.expect("a handle names an allocated record");
        Record { words: &chunk[i * self.stride..][..self.stride], sharer_words: self.sharer_words }
    }

    /// Records handed out.
    pub fn lines(&self) -> u32 {
        self.next.load(Relaxed)
    }

    /// Takes every record back, zeroed, keeping the chunks. Handles handed
    /// out before are void; the caller must hold none.
    pub fn reset(&self) {
        let slots = self.tiers.iter().filter_map(OnceLock::get).flat_map(|slots| slots.iter());
        for chunk in slots.filter_map(OnceLock::get) {
            chunk.iter().for_each(|w| w.store(0, Relaxed));
        }
        self.next.store(0, Relaxed);
    }
}

/// MSI directory state of one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirState {
    /// No cache holds the line; the directory's data copy is current.
    Uncached,
    /// One or more caches hold read-only copies; the data copy is current.
    Shared,
    /// Exactly one cache holds the line with write permission (Modified, or
    /// Exclusive under MESI). The data copy is stale if the owner's copy is
    /// dirty.
    Owned(TileId),
}

/// One line's record, borrowed from its [`Directory`]: protocol state plus
/// the functional memory copy.
#[derive(Debug, Clone, Copy)]
pub struct Record<'a> {
    /// `[state | owner << 32, sharers.., data..]`; all-zero is a fresh line.
    words: &'a [AtomicU64],
    sharer_words: usize,
}

impl<'a> Record<'a> {
    /// MSI state.
    pub fn state(&self) -> DirState {
        let w = self.words[0].load(Relaxed);
        match w as u32 {
            0 => DirState::Uncached,
            1 => DirState::Shared,
            _ => DirState::Owned(TileId((w >> 32) as u32)),
        }
    }

    /// Changes the MSI state.
    pub fn set_state(&self, state: DirState) {
        let w = match state {
            DirState::Uncached => 0,
            DirState::Shared => 1,
            DirState::Owned(t) => 2 | (t.0 as u64) << 32,
        };
        self.words[0].store(w, Relaxed);
    }

    /// Sharers (meaningful in `Shared`; kept empty otherwise).
    pub fn sharers(&self) -> SharerSet<'a> {
        SharerSet { words: &self.words[1..1 + self.sharer_words] }
    }

    /// Copies `out.len()` bytes of the DRAM copy from byte `off` of the line
    /// into `out`. The copy is stale while some cache holds the line dirty.
    pub fn read_bytes(&self, mut off: usize, mut out: &mut [u8]) {
        let data = &self.words[1 + self.sharer_words..];
        while !out.is_empty() {
            let at = off % 8;
            let (head, rest) = out.split_at_mut((8 - at).min(out.len()));
            head.copy_from_slice(&data[off / 8].load(Relaxed).to_le_bytes()[at..at + head.len()]);
            off += head.len();
            out = rest;
        }
    }

    /// Overwrites the DRAM copy from byte `off` of the line with `src`.
    pub fn write_bytes(&self, mut off: usize, mut src: &[u8]) {
        let data = &self.words[1 + self.sharer_words..];
        while !src.is_empty() {
            let at = off % 8;
            let (head, rest) = src.split_at((8 - at).min(src.len()));
            let mut word = data[off / 8].load(Relaxed).to_le_bytes();
            word[at..at + head.len()].copy_from_slice(head);
            data[off / 8].store(u64::from_le_bytes(word), Relaxed);
            off += head.len();
            src = rest;
        }
    }

    /// Checks the MSI invariants; used by tests and debug assertions.
    ///
    /// * `Uncached` ⇒ no sharers;
    /// * `Modified` ⇒ no sharers tracked (owner held separately);
    /// * `Shared` ⇒ at least one sharer.
    pub fn invariants_hold(&self) -> bool {
        (self.state() == DirState::Shared) != self.sharers().is_empty()
    }
}

/// A record's set of sharer tiles: a bitset sized for the target. Updates
/// are a load and a store, not an atomic read-modify-write: a record has one
/// writer at a time.
#[derive(Debug, Clone, Copy)]
pub struct SharerSet<'a> {
    words: &'a [AtomicU64],
}

impl<'a> SharerSet<'a> {
    /// Adds a tile; returns true if it was newly inserted.
    pub fn insert(&self, t: TileId) -> bool {
        let (word, bit) = (&self.words[t.index() / 64], 1u64 << (t.index() % 64));
        let old = word.load(Relaxed);
        word.store(old | bit, Relaxed);
        old & bit == 0
    }

    /// Removes a tile; returns true if it was present.
    pub fn remove(&self, t: TileId) -> bool {
        let (word, bit) = (&self.words[t.index() / 64], 1u64 << (t.index() % 64));
        let old = word.load(Relaxed);
        word.store(old & !bit, Relaxed);
        old & bit != 0
    }

    /// Membership test.
    pub fn contains(&self, t: TileId) -> bool {
        self.words[t.index() / 64].load(Relaxed) & (1u64 << (t.index() % 64)) != 0
    }

    /// Number of sharers.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.load(Relaxed).count_ones()).sum()
    }

    /// True when no tile shares the line.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| w.load(Relaxed) == 0)
    }

    /// Iterates sharers in ascending tile order. Each word is read once, as
    /// the scan reaches it.
    pub fn iter(&self) -> impl Iterator<Item = TileId> + 'a {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            let mut bits = w.load(Relaxed);
            std::iter::from_fn(move || {
                let bit = (bits != 0).then(|| bits.trailing_zeros())?;
                bits &= bits - 1;
                Some(TileId(wi as u32 * 64 + bit))
            })
        })
    }

    /// The lowest-numbered sharer, if any.
    pub fn first(&self) -> Option<TileId> {
        self.iter().next()
    }

    /// Removes every sharer.
    pub fn clear(&self) {
        self.words.iter().for_each(|w| w.store(0, Relaxed));
    }
}

/// Line-table shards; a power of two, so shard selection is a multiply and a
/// shift.
const DIR_SHARDS: usize = 256;

/// [`Slot::holder`] of a line nobody holds. Tile `t` holds as `t + 1`.
const FREE: u32 = 0;
/// [`Slot::holder`] bit: some thread sleeps until the line is released.
const WAITERS: u32 = 1 << 31;
/// [`Slot::holder`] of a claim that belongs to no tile: an eviction, or a
/// functional peek/poke.
const SERVICE: u32 = WAITERS - 1;

/// A line's map entry: its record and who holds the line. With its `u64`
/// key a bucket is 16 bytes, as a bare `u32` handle's was.
#[derive(Debug, Clone, Copy)]
struct Slot {
    handle: u32,
    /// [`FREE`], a tile id plus one, or [`SERVICE`]; [`WAITERS`] on top.
    holder: u32,
}

type Map = HashMap<u64, Slot, FxBuildHasher>;

#[derive(Debug, Default)]
struct Shard {
    map: Mutex<Map>,
    /// Where threads wait out a held line of this shard.
    released: Condvar,
}

/// Every line's directory record, and which lines have a transaction in
/// flight (see the module docs). Lines are never removed while the
/// simulation runs; [`LineTable::reset`] drops them all at once.
#[derive(Debug)]
pub(crate) struct LineTable {
    dir: Directory,
    shards: Box<[Shard]>,
    /// Times the shard-map work (`mem.dir_lookup`, `mem.dir_lock`).
    hostprof: Arc<HostProf>,
}

impl LineTable {
    /// An empty table for `tiles` tiles and `line_size`-byte lines.
    pub(crate) fn new(tiles: u32, line_size: u32, hostprof: Arc<HostProf>) -> Self {
        LineTable {
            dir: Directory::new(tiles, line_size),
            shards: (0..DIR_SHARDS).map(|_| Shard::default()).collect(),
            hostprof,
        }
    }

    fn shard(&self, line: u64) -> &Shard {
        // Golden-ratio multiply, top bits select: sequential / aligned line
        // indices (the common access pattern) decorrelate across shards
        // instead of convoying onto one.
        let bits = DIR_SHARDS.trailing_zeros();
        &self.shards[(line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize]
    }

    /// Claims `line` for a miss of `tile`, creating its record on first
    /// touch and first waiting out another tile's transaction on the line;
    /// the flag says whether the claim waited.
    pub(crate) fn claim(&self, line: u64, tile: TileId) -> (Claim<'_>, bool) {
        debug_assert!(tile.0 + 1 < SERVICE, "tile id collides with the service holder");
        self.acquire(line, tile.0 + 1, true).expect("claims insert")
    }

    /// Claims `line` for an eviction or a functional poke, waiting out any
    /// holder; creates the record on first touch.
    pub(crate) fn claim_service(&self, line: u64) -> Claim<'_> {
        self.acquire(line, SERVICE, true).expect("claims insert").0
    }

    /// Like [`LineTable::claim_service`], but a line without a record stays
    /// without one and yields `None`: peeking untouched memory must not
    /// grow the directory (it would change checkpoint bytes).
    pub(crate) fn claim_existing(&self, line: u64) -> Option<Claim<'_>> {
        self.acquire(line, SERVICE, false).map(|(claim, _)| claim)
    }

    /// Claims `line` for `holder`, waiting out the line's holder if it has
    /// one; `None` only when `insert` is false and the line has no record.
    /// The flag says whether the claim waited.
    fn acquire(&self, line: u64, holder: u32, insert: bool) -> Option<(Claim<'_>, bool)> {
        let shard = self.shard(line);
        let lookup = self.hostprof.span(HostStage::DirLookup);
        let mut map = self.lock(shard);
        let slot = if insert {
            map.entry(line).or_insert_with(|| Slot { handle: self.dir.alloc(), holder: FREE })
        } else {
            map.get_mut(&line)?
        };
        let (handle, held) = (slot.handle, slot.holder & !WAITERS);
        debug_assert!(
            held != holder || holder == SERVICE,
            "tile {} claims line {line}, which it already holds: one context per tile",
            holder - 1
        );
        let claim =
            |waited| Some((Claim { table: self, line, record: self.dir.record(handle) }, waited));
        if held == FREE {
            slot.holder = holder;
            return claim(false);
        }
        drop(lookup);
        // The waiter bit goes in under the shard lock that `wait` releases
        // atomically, so a release cannot slip between the two and skip the
        // notification. Notifications for other lines of the shard, and
        // claims that beat this thread to the lock, just wait again.
        loop {
            let slot = map.get_mut(&line).expect("held lines stay in the table");
            if slot.holder == FREE {
                slot.holder = holder;
                return claim(true);
            }
            slot.holder |= WAITERS;
            shard.released.wait(&mut map);
        }
    }

    fn lock<'s>(&self, shard: &'s Shard) -> MutexGuard<'s, Map> {
        let _l = self.hostprof.span(HostStage::DirLockWait);
        shard.map.lock()
    }

    fn release(&self, line: u64) {
        let shard = self.shard(line);
        let waiters = {
            let mut map = self.lock(shard);
            let slot = map.get_mut(&line).expect("a claimed line is in the table");
            debug_assert_ne!(slot.holder & !WAITERS, FREE, "release of a free line");
            std::mem::replace(&mut slot.holder, FREE) & WAITERS != 0
        };
        if waiters {
            shard.released.notify_all();
        }
    }

    /// Records handed out: lines the directory holds.
    pub(crate) fn lines(&self) -> u32 {
        self.dir.lines()
    }

    /// Held lines. Walks every map: for quiescence checks and tests.
    pub(crate) fn in_flight(&self) -> usize {
        let held = |map: &Map| map.values().filter(|s| s.holder & !WAITERS != FREE).count();
        self.shards.iter().map(|s| held(&s.map.lock())).sum()
    }

    /// Every line with a record and that record, in ascending line order.
    /// For a quiescent system: nothing stops a transaction from changing a
    /// record while the caller reads it.
    pub(crate) fn sorted(&self) -> impl Iterator<Item = (u64, Record<'_>)> {
        let mut lines: Vec<(u64, u32)> = Vec::with_capacity(self.lines() as usize);
        for shard in self.shards.iter() {
            lines.extend(shard.map.lock().iter().map(|(&line, slot)| (line, slot.handle)));
        }
        lines.sort_unstable_by_key(|&(line, _)| line);
        lines.into_iter().map(|(line, handle)| (line, self.dir.record(handle)))
    }

    /// Drops every line and takes every record back. The caller must hold
    /// no claim and no record.
    pub(crate) fn reset(&self) {
        for shard in self.shards.iter() {
            shard.map.lock().clear();
        }
        self.dir.reset();
    }

    /// A fresh record for `line`, which must have none. For a quiescent
    /// restore.
    pub(crate) fn insert(&self, line: u64) -> Record<'_> {
        let handle = self.dir.alloc();
        let old = self.lock(self.shard(line)).insert(line, Slot { handle, holder: FREE });
        debug_assert!(old.is_none(), "line {line} inserted twice");
        self.dir.record(handle)
    }
}

/// A held line and its record; dropping it releases the line and wakes
/// whoever waits for it.
#[must_use = "dropping the claim releases the line"]
pub(crate) struct Claim<'a> {
    table: &'a LineTable,
    line: u64,
    /// The line's record, for this thread alone to change until the claim
    /// drops.
    pub(crate) record: Record<'a>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.table.release(self.line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn table() -> LineTable {
        LineTable::new(4, 64, HostProf::disabled())
    }

    #[test]
    fn acquire_release_reacquire() {
        let t = table();
        let (g, waited) = t.claim(42, TileId(0));
        assert!(!waited);
        assert_eq!(t.in_flight(), 1);
        drop(g);
        assert_eq!(t.in_flight(), 0);
        let _g2 = t.claim(42, TileId(1));
        assert_eq!(t.in_flight(), 1);
        assert_eq!(t.lines(), 1, "the second claim found the first one's record");
    }

    #[test]
    fn different_lines_do_not_conflict() {
        let t = table();
        let _a = t.claim(1, TileId(0));
        let _b = t.claim(2, TileId(0));
        assert_eq!(t.in_flight(), 2);
    }

    #[test]
    fn a_cross_tile_waiter_blocks_until_release_then_claims() {
        let t = Arc::new(table());
        let released = Arc::new(AtomicBool::new(false));
        let (g, _) = t.claim(7, TileId(2));
        let waiter = {
            let (t, released) = (Arc::clone(&t), Arc::clone(&released));
            std::thread::spawn(move || {
                let (claim, waited) = t.claim(7, TileId(3));
                assert!(released.load(Ordering::SeqCst), "waiter returned before release");
                assert!(waited);
                assert_eq!(t.in_flight(), 1, "the waiter holds the line");
                drop(claim);
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        released.store(true, Ordering::SeqCst);
        drop(g);
        waiter.join().unwrap();
        assert_eq!(t.in_flight(), 0);
    }

    /// Each tile runs one context, so a tile never waits for itself: a
    /// claim of a line the tile already holds is a broken contract, not a
    /// wait.
    #[test]
    #[cfg(debug_assertions)]
    fn claiming_a_line_the_tile_holds_panics() {
        let t = Arc::new(table());
        let (_held, _) = t.claim(9, TileId(1));
        let second = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || drop(t.claim(9, TileId(1))))
        };
        let msg =
            *second.join().expect_err("the second claim panics").downcast::<String>().unwrap();
        assert!(msg.contains("which it already holds"), "{msg}");
        assert_eq!(t.in_flight(), 1, "the holder keeps the line");
    }

    #[test]
    fn service_acquire_waits_out_misses() {
        let t = Arc::new(table());
        let (g, _) = t.claim(5, TileId(0));
        let released = Arc::new(AtomicBool::new(false));
        let h = {
            let (t, released) = (Arc::clone(&t), Arc::clone(&released));
            std::thread::spawn(move || {
                let _svc = t.claim_service(5);
                assert!(released.load(Ordering::SeqCst));
                assert!(t.claim_existing(6).is_none(), "line 6 has no record");
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        released.store(true, Ordering::SeqCst);
        drop(g);
        h.join().unwrap();
        assert_eq!(t.in_flight(), 0);
        assert_eq!(t.lines(), 1, "peeking an absent line created no record");
    }

    #[test]
    fn hammering_one_line_always_converges() {
        let t = Arc::new(table());
        let inside = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for tid in 0..8u32 {
            let (t, inside) = (Arc::clone(&t), Arc::clone(&inside));
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let _claim = t.claim(99, TileId(tid));
                    assert_eq!(inside.fetch_add(1, Ordering::SeqCst), 0, "two holders");
                    inside.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        handles.into_iter().for_each(|h| h.join().unwrap());
        assert_eq!(t.in_flight(), 0);
    }
}
