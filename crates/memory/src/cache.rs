//! Set-associative cache model with LRU replacement and MSI line states.
//!
//! Caches in Graphite are *functional*: lines hold the application's real
//! bytes, so protocol correctness is a precondition of the simulation
//! completing (paper §3.2 — "this strategy automatically helps verify the
//! correctness of complex hierarchies and protocols").
//!
//! ## Storage
//!
//! A cache is a table of [`GROUP_SETS`]-set *groups*, each allocated on the
//! first fill into any of its sets. A group holds flat tag, LRU-stamp and
//! state-byte arrays indexed `set_in_group * assoc + way` — one set's tags
//! (and stamps) are contiguous, so a 24-way victim scan reads 2 × 192 bytes,
//! not 24 scattered structs — and the line bytes in one *plane* per way,
//! allocated on the first fill into that way. Fills take the lowest empty
//! way, so a group's planes follow the deepest set in it. Groups and planes
//! are published through [`OnceLock`]s and stay where they are until the
//! cache drops. Host memory, set-up time and scan length therefore follow
//! the lines a run touches, not the configured capacity.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::OnceLock;

use graphite_base::{Cycles, SeqCount, SimError};
use graphite_ckpt::{corrupted, Dec, Enc};
use graphite_config::CacheConfig;

/// Sets per storage group: the unit of demand allocation along the set
/// axis (planes are the unit along the way axis). For the paper-default L2
/// (2048 sets, 24 ways) a group costs 6.5 KiB of metadata and 1 KiB per
/// plane, and the group table 128 entries.
const GROUP_SETS: usize = 16;

/// State byte of an empty way; resident ways hold `LineState::code`.
const INVALID: u8 = 0;

/// Coherence state of a cached line (MSI, plus Exclusive under MESI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Read-only copy; other caches may also hold it.
    Shared,
    /// Clean sole copy (MESI only): may be written without a directory
    /// transaction, silently becoming Modified.
    Exclusive,
    /// Exclusive dirty copy; no other cache holds the line.
    Modified,
}

impl LineState {
    /// True when a write may proceed without a directory transaction.
    pub fn writable(self) -> bool {
        matches!(self, LineState::Modified | LineState::Exclusive)
    }

    /// The in-array state byte: the checkpoint encoding plus one, so zeroed
    /// storage reads as [`INVALID`].
    fn code(self) -> u8 {
        match self {
            LineState::Shared => 1,
            LineState::Exclusive => 2,
            LineState::Modified => 3,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(LineState::Shared),
            2 => Some(LineState::Exclusive),
            3 => Some(LineState::Modified),
            _ => None,
        }
    }
}

/// Mutable view of one resident line, borrowed from its [`Cache`].
#[derive(Debug)]
pub struct Line<'a> {
    state: &'a AtomicU8,
    /// The line's bytes, updated in place; empty for tag-only caches (L1I).
    pub data: &'a mut [u8],
}

impl Line<'_> {
    /// The line's coherence state.
    pub fn state(&self) -> LineState {
        LineState::from_code(self.state.load(Relaxed)).expect("view of a resident way")
    }

    /// Changes the line's coherence state.
    pub fn set_state(&mut self, state: LineState) {
        self.state.store(state.code(), Relaxed);
    }
}

/// The line [`Cache::insert`] overwrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line index of the victim.
    pub line: u64,
    /// State it was held in.
    pub state: LineState,
}

/// Storage for [`GROUP_SETS`] consecutive sets ("rows"). Metadata arrays are
/// indexed `row * assoc + way`; line bytes live in one plane per way,
/// indexed by row. Everything the lock-free probe reads racily is an atomic
/// or a `OnceLock`, except plane bytes, which the seqlock validates.
#[derive(Debug)]
struct Group {
    assoc: usize,
    /// Bytes per line: the line size, or 0 for a tag-only cache.
    stride: usize,
    tags: Box<[AtomicU64]>,
    stamps: Box<[AtomicU64]>,
    states: Box<[AtomicU8]>,
    /// `planes[way]` holds that way's bytes for every row, allocated on the
    /// first fill into the way. Fills take the lowest empty way, so a set
    /// that never holds more than `k` lines never allocates past plane `k`.
    planes: Box<[OnceLock<Box<[u8]>>]>,
}

/// Where a fill of some line would land in its set.
enum Slot {
    /// The line is already resident.
    Hit,
    /// An empty way.
    Free(usize),
    /// The set is full; this way holds the least recently used line.
    Victim(usize),
}

impl Group {
    fn new(assoc: usize, stride: usize) -> Self {
        let ways = GROUP_SETS * assoc;
        Group {
            assoc,
            stride,
            tags: (0..ways).map(|_| AtomicU64::new(0)).collect(),
            stamps: (0..ways).map(|_| AtomicU64::new(0)).collect(),
            states: (0..ways).map(|_| AtomicU8::new(INVALID)).collect(),
            planes: (0..assoc).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The metadata indices of one row.
    #[inline(always)]
    fn row(&self, row: usize) -> Range<usize> {
        row * self.assoc..(row + 1) * self.assoc
    }

    /// The metadata index of one way.
    #[inline(always)]
    fn at(&self, row: usize, way: usize) -> usize {
        row * self.assoc + way
    }

    /// The way of `row` that holds `line`.
    #[inline(always)]
    fn find(&self, row: usize, line: u64) -> Option<usize> {
        let states = &self.states[self.row(row)];
        self.tags[self.row(row)]
            .iter()
            .zip(states)
            .position(|(t, s)| t.load(Relaxed) == line && s.load(Relaxed) != INVALID)
    }

    /// One pass over a row: the resident way, else the first empty way, else
    /// the way with the smallest stamp (stamps are unique per cache, so the
    /// minimum is unambiguous).
    fn slot_for(&self, row: usize, line: u64) -> Slot {
        let (tags, stamps) = (&self.tags[self.row(row)], &self.stamps[self.row(row)]);
        let mut free = None;
        let mut lru = (u64::MAX, 0);
        for (way, state) in self.states[self.row(row)].iter().enumerate() {
            if state.load(Relaxed) == INVALID {
                free = free.or(Some(way));
            } else if tags[way].load(Relaxed) == line {
                return Slot::Hit;
            } else {
                let stamp = stamps[way].load(Relaxed);
                if stamp < lru.0 {
                    lru = (stamp, way);
                }
            }
        }
        free.map_or(Slot::Victim(lru.1), Slot::Free)
    }

    /// Makes a way hold a new resident line; its bytes are the caller's to
    /// write.
    fn fill(
        &mut self,
        (row, way): (usize, usize),
        line: u64,
        state: LineState,
        stamp: u64,
    ) -> Line<'_> {
        if self.planes[way].get().is_none() {
            // `set` publishes with release ordering, so a probe that sees
            // the plane sees it allocated.
            let _ = self.planes[way].set(vec![0; GROUP_SETS * self.stride].into());
        }
        let i = self.at(row, way);
        self.tags[i].store(line, Relaxed);
        self.stamps[i].store(stamp, Relaxed);
        self.states[i].store(state.code(), Relaxed);
        self.line(row, way)
    }

    /// Mutable view of a resident way.
    #[inline(always)]
    fn line(&mut self, row: usize, way: usize) -> Line<'_> {
        let i = self.at(row, way);
        let plane = self.planes[way].get_mut().expect("a resident way has its plane");
        Line {
            state: &self.states[i],
            data: &mut plane[row * self.stride..(row + 1) * self.stride],
        }
    }

    /// The bytes of a way that is, or just was, resident.
    fn data(&self, row: usize, way: usize) -> &[u8] {
        let plane = self.planes[way].get().expect("a resident way has its plane");
        &plane[row * self.stride..(row + 1) * self.stride]
    }
}

/// One set-associative, LRU, write-back cache level.
///
/// # Examples
///
/// ```
/// use graphite_base::Cycles;
/// use graphite_config::CacheConfig;
/// use graphite_memory::cache::{Cache, LineState};
///
/// let cfg = CacheConfig {
///     size_bytes: 1024,
///     associativity: 2,
///     line_size: 64,
///     access_latency: Cycles(1),
/// };
/// let mut c = Cache::new(&cfg, true);
/// assert!(c.lookup(3).is_none());
/// c.insert(3, LineState::Shared, &[0u8; 64]);
/// assert!(c.lookup(3).is_some());
/// ```
#[derive(Debug)]
pub struct Cache {
    groups: Box<[OnceLock<Group>]>,
    num_sets: usize,
    assoc: usize,
    line_size: u32,
    /// Bytes stored per line: the line size, or 0 for a tag-only cache.
    stride: usize,
    access_latency: Cycles,
    next_stamp: AtomicU64,
    /// `num_sets - 1` when the set count is a power of two (every realistic
    /// geometry), letting [`Cache::set_of`] mask instead of divide on the
    /// per-access hot path; `None` falls back to modulo.
    set_mask: Option<u64>,
}

impl Cache {
    /// Builds a cache from its configuration. `stores_data` selects between
    /// a functional cache (L1D/L2) and a tag-only timing cache (L1I). No
    /// line storage is allocated until the first fill.
    pub fn new(cfg: &CacheConfig, stores_data: bool) -> Self {
        let num_sets = cfg.num_sets() as usize;
        Cache {
            groups: (0..num_sets.div_ceil(GROUP_SETS)).map(|_| OnceLock::new()).collect(),
            num_sets,
            assoc: cfg.associativity as usize,
            line_size: cfg.line_size,
            stride: if stores_data { cfg.line_size as usize } else { 0 },
            access_latency: cfg.access_latency,
            next_stamp: AtomicU64::new(0),
            set_mask: num_sets.is_power_of_two().then(|| num_sets as u64 - 1),
        }
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u32 {
        self.line_size
    }

    /// Hit latency.
    pub fn access_latency(&self) -> Cycles {
        self.access_latency
    }

    /// Number of resident lines (for tests).
    pub fn resident_lines(&self) -> usize {
        let resident = |g: &Group| g.states.iter().filter(|s| s.load(Relaxed) != INVALID).count();
        self.groups.iter().filter_map(OnceLock::get).map(resident).sum()
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.num_sets as u64) as usize,
        }
    }

    /// The group, row and way of a resident line. An unallocated group holds
    /// no lines.
    #[inline(always)]
    fn locate(&self, line: u64) -> Option<(&Group, usize, usize)> {
        let set = self.set_of(line);
        let group = self.groups[set / GROUP_SETS].get()?;
        Some((group, set % GROUP_SETS, group.find(set % GROUP_SETS, line)?))
    }

    #[inline(always)]
    fn locate_mut(&mut self, line: u64) -> Option<(&mut Group, usize, usize)> {
        let set = self.set_of(line);
        let group = self.groups[set / GROUP_SETS].get_mut()?;
        let way = group.find(set % GROUP_SETS, line)?;
        Some((group, set % GROUP_SETS, way))
    }

    /// The storage of the group holding `set`, allocated on first use.
    fn group_mut(&mut self, set: usize) -> &mut Group {
        let g = set / GROUP_SETS;
        if self.groups[g].get().is_none() {
            self.alloc_group(g);
        }
        self.groups[g].get_mut().expect("allocated above")
    }

    #[cold]
    fn alloc_group(&mut self, g: usize) {
        // `set` publishes with release ordering, so a probe that sees the
        // group sees it initialized.
        let _ = self.groups[g].set(Group::new(self.assoc, self.stride));
    }

    /// The next LRU stamp. Only the owning tile's thread bumps stamps (its
    /// locked lookups and fills here, its lock-free probe in
    /// [`Cache::probe_read`]), so a bump is never a locked read-modify-write.
    fn bump_stamp(&mut self) -> u64 {
        let next = self.next_stamp.get_mut();
        *next += 1;
        *next
    }

    /// Looks a line up, refreshing its LRU stamp on hit. A miss leaves the
    /// stamp counter alone.
    #[inline]
    pub fn lookup(&mut self, line: u64) -> Option<Line<'_>> {
        let set = self.set_of(line);
        let (row, group) = (set % GROUP_SETS, self.groups[set / GROUP_SETS].get_mut()?);
        let way = group.find(row, line)?;
        let stamp = self.next_stamp.get_mut();
        *stamp += 1;
        group.stamps[group.at(row, way)].store(*stamp, Relaxed);
        Some(group.line(row, way))
    }

    /// Looks a line up without touching LRU (for coherence probes by other
    /// tiles, which must not perturb the victim's replacement behaviour).
    #[inline]
    pub fn peek(&self, line: u64) -> Option<(LineState, &[u8])> {
        let (group, row, way) = self.locate(line)?;
        let state = LineState::from_code(group.states[group.at(row, way)].load(Relaxed))?;
        Some((state, group.data(row, way)))
    }

    /// Mutable peek without LRU update.
    #[inline]
    pub fn peek_mut(&mut self, line: u64) -> Option<Line<'_>> {
        let (group, row, way) = self.locate_mut(line)?;
        Some(group.line(row, way))
    }

    /// The line a fill of `line` would evict: `None` when `line` is already
    /// resident or its set has an empty way. Used for the two-phase fill:
    /// evictions run as their own directory transaction before the fill.
    pub fn victim_for(&self, line: u64) -> Option<u64> {
        let set = self.set_of(line);
        let group = self.groups[set / GROUP_SETS].get()?;
        match group.slot_for(set % GROUP_SETS, line) {
            Slot::Victim(way) => Some(group.tags[group.at(set % GROUP_SETS, way)].load(Relaxed)),
            Slot::Hit | Slot::Free(_) => None,
        }
    }

    /// Fills a line in place — into the lowest empty way, else over the LRU
    /// victim — copying `data` (empty for a tag-only cache) into the way's
    /// bytes. Returns the new line and what it overwrote.
    ///
    /// # Panics
    ///
    /// Panics if the line is already resident (callers must use
    /// [`Cache::lookup`]/[`Cache::peek_mut`] to update a resident line) or
    /// `data` is not exactly one line's bytes.
    pub fn insert(
        &mut self,
        line: u64,
        state: LineState,
        data: &[u8],
    ) -> (Line<'_>, Option<Evicted>) {
        let (filled, evicted) = self.place(line, state);
        filled.data.copy_from_slice(data);
        (filled, evicted)
    }

    /// [`Cache::insert`] for a caller that writes the line's bytes itself:
    /// the returned line still holds whatever its way held before.
    pub fn place(&mut self, line: u64, state: LineState) -> (Line<'_>, Option<Evicted>) {
        let stamp = self.bump_stamp();
        let set = self.set_of(line);
        let (group, row) = (self.group_mut(set), set % GROUP_SETS);
        let (way, evicted) = match group.slot_for(row, line) {
            Slot::Hit => panic!("insert of already-resident line {line}"),
            Slot::Free(way) => (way, None),
            Slot::Victim(way) => {
                let i = group.at(row, way);
                let state = LineState::from_code(group.states[i].load(Relaxed));
                let state = state.expect("a victim is resident");
                (way, Some(Evicted { line: group.tags[i].load(Relaxed), state }))
            }
        };
        (group.fill((row, way), line, state, stamp), evicted)
    }

    /// Removes a line (invalidation or inclusion enforcement), returning the
    /// state it was held in and its bytes, which stay readable in the vacated
    /// way until the borrow ends.
    pub fn remove(&mut self, line: u64) -> Option<(LineState, &[u8])> {
        let (group, row, way) = self.locate_mut(line)?;
        let code = group.states[group.at(row, way)].swap(INVALID, Relaxed);
        Some((LineState::from_code(code)?, group.data(row, way)))
    }

    /// Seqlock-validated lock-free read: if `line` is resident, copies
    /// `buf.len()` bytes starting at byte `off` of the line into `buf` and
    /// refreshes the line's LRU stamp, all without taking the tile lock.
    /// Returns `false` on a miss, a tag-only cache, or when a concurrent
    /// mutation raced the copy — callers fall back to the locked path, so a
    /// `false` is never wrong, only slow. Only the cache's owning tile thread
    /// may probe: it is the LRU stamp counter's single writer.
    ///
    /// # Safety
    ///
    /// `cache` must point to a live `Cache` whose writers uphold the seqlock
    /// protocol around `seq`: every mutation of this cache (insert, remove,
    /// restore, in-place data writes) by a thread other than the probing one
    /// happens inside a `begin_write`/`end_write` section of the same
    /// `SeqCount`, and the probing thread's own mutations never run alongside
    /// its probe (they are ordered before or after it). `off + buf.len()`
    /// must not exceed the line size. Nothing else is asked: a group or
    /// plane, once published, is neither moved nor freed before the cache
    /// drops, so every address the probe forms stays inside a live
    /// allocation; bytes copied while another thread wrote are discarded by
    /// validation.
    pub unsafe fn probe_read(
        cache: *const Cache,
        seq: &SeqCount,
        line: u64,
        off: usize,
        buf: &mut [u8],
    ) -> bool {
        let Some(snap) = seq.read_begin() else { return false };
        let c = &*cache;
        if c.stride == 0 {
            return false;
        }
        debug_assert!(off + buf.len() <= c.stride, "access crosses line boundary");
        let Some((group, row, way)) = c.locate(line) else { return false };
        // A way whose state byte reads resident was filled after its plane
        // was published; a racing reader that sees the state but not yet the
        // plane simply misses.
        let Some(plane) = group.planes[way].get() else { return false };
        // Row and offset are in bounds whatever raced; the bytes may be
        // torn, which validation rejects.
        let src = plane.as_ptr().add(row * c.stride + off);
        std::ptr::copy_nonoverlapping(src, buf.as_mut_ptr(), buf.len());
        if !seq.read_validate(snap) {
            return false;
        }
        // Validated hit: refresh recency exactly as the locked lookup would
        // have. The probing thread is the stamp counter's only writer, so the
        // bump is a plain load + store.
        let stamp = c.next_stamp.load(Relaxed) + 1;
        c.next_stamp.store(stamp, Relaxed);
        group.stamps[group.at(row, way)].store(stamp, Relaxed);
        true
    }

    /// Serializes the full cache contents — tags, states, LRU stamps, and
    /// (for functional caches) line data — into a checkpoint payload. Ways
    /// are written in array order; the order within a set carries no meaning.
    pub fn save(&self, out: &mut Enc) {
        out.u64(self.next_stamp.load(Relaxed));
        out.u32(self.num_sets as u32);
        for set in 0..self.num_sets {
            let Some(group) = self.groups[set / GROUP_SETS].get() else {
                out.u32(0);
                continue;
            };
            let row = set % GROUP_SETS;
            let states = &group.states[group.row(row)];
            let resident = |&way: &usize| states[way].load(Relaxed) != INVALID;
            out.u32((0..self.assoc).filter(resident).count() as u32);
            for way in (0..self.assoc).filter(resident) {
                let i = group.at(row, way);
                out.u64(group.tags[i].load(Relaxed));
                out.u8(group.states[i].load(Relaxed) - 1);
                out.u64(group.stamps[i].load(Relaxed));
                if self.stride == 0 {
                    out.u8(0);
                } else {
                    out.u8(1);
                    out.bytes(group.data(row, way));
                }
            }
        }
    }

    /// Restores contents saved by [`Cache::save`] into a cache built from
    /// the same configuration, replacing whatever is resident.
    ///
    /// # Errors
    ///
    /// Returns a typed checkpoint error when the payload's geometry (set
    /// count, associativity, data presence, line size) does not match, or a
    /// line sits in the wrong set or twice in one.
    pub fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), SimError> {
        let bad = || corrupted("cache");
        let next_stamp = dec.u64()?;
        if dec.u32()? as usize != self.num_sets {
            return Err(bad());
        }
        for group in self.groups.iter_mut().filter_map(OnceLock::get_mut) {
            group.states.iter_mut().for_each(|s| *s.get_mut() = INVALID);
        }
        let stride = self.stride;
        for set in 0..self.num_sets {
            let resident = dec.u32()? as usize;
            if resident > self.assoc {
                return Err(bad());
            }
            for way in 0..resident {
                let line = dec.u64()?;
                let state = LineState::from_code(dec.u8()?.wrapping_add(1)).ok_or_else(bad)?;
                let stamp = dec.u64()?;
                let data = match (dec.u8()?, stride) {
                    (0, 0) => &[][..],
                    (1, 1..) => dec.bytes()?,
                    _ => return Err(bad()),
                };
                if data.len() != stride || self.set_of(line) != set {
                    return Err(bad());
                }
                let (group, row) = (self.group_mut(set), set % GROUP_SETS);
                // Ways `0..way` hold this set's earlier lines, all resident.
                if group.tags[group.row(row)][..way].iter().any(|t| t.load(Relaxed) == line) {
                    return Err(bad());
                }
                group.fill((row, way), line, state, stamp).data.copy_from_slice(data);
            }
        }
        self.next_stamp.store(next_stamp, Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry(size: u64, assoc: u32, line: u32) -> CacheConfig {
        CacheConfig {
            size_bytes: size,
            associativity: assoc,
            line_size: line,
            access_latency: Cycles(1),
        }
    }

    fn cache(size: u64, assoc: u32, line: u32) -> Cache {
        Cache::new(&geometry(size, assoc, line), true)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache(1024, 2, 64);
        assert!(c.lookup(5).is_none());
        c.insert(5, LineState::Shared, &[7u8; 64]);
        let l = c.lookup(5).unwrap();
        assert_eq!(l.state(), LineState::Shared);
        assert_eq!(l.data[0], 7);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2 sets x 2 ways; lines 0,2,4 share set 0.
        let mut c = cache(256, 2, 64);
        c.insert(0, LineState::Shared, &[0; 64]);
        c.insert(2, LineState::Shared, &[0; 64]);
        c.lookup(0); // 0 is now MRU; 2 is LRU
        let (_, ev) = c.insert(4, LineState::Shared, &[0; 64]);
        assert_eq!(ev.unwrap().line, 2);
        assert!(c.peek(0).is_some());
        assert!(c.peek(2).is_none());
    }

    #[test]
    fn victim_for_predicts_eviction() {
        let mut c = cache(256, 2, 64);
        assert!(c.victim_for(0).is_none(), "empty set");
        c.insert(0, LineState::Shared, &[0; 64]);
        c.insert(2, LineState::Modified, &[0; 64]);
        assert!(c.victim_for(0).is_none(), "already resident");
        assert_eq!(c.victim_for(4), Some(0));
        let (_, ev) = c.insert(4, LineState::Shared, &[0; 64]);
        assert_eq!(ev, Some(Evicted { line: 0, state: LineState::Shared }));
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut c = cache(256, 2, 64);
        c.insert(0, LineState::Shared, &[0; 64]);
        c.insert(2, LineState::Shared, &[0; 64]);
        let _ = c.peek(0); // must NOT refresh line 0
        let (_, ev) = c.insert(4, LineState::Shared, &[0; 64]);
        assert_eq!(ev.unwrap().line, 0, "peek must not refresh LRU");
    }

    #[test]
    fn remove_clears_residency_and_lends_the_bytes() {
        let mut c = cache(256, 2, 64);
        c.insert(0, LineState::Modified, &[9; 64]);
        assert_eq!(c.remove(0), Some((LineState::Modified, &[9u8; 64][..])));
        assert!(c.lookup(0).is_none());
        assert!(c.remove(0).is_none());
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn writes_through_a_line_view_land_in_the_cache() {
        let mut c = cache(256, 2, 64);
        c.insert(1, LineState::Shared, &[0; 64]);
        let mut l = c.lookup(1).unwrap();
        l.set_state(LineState::Modified);
        l.data[8..16].copy_from_slice(&42u64.to_le_bytes());
        let (state, data) = c.peek(1).unwrap();
        assert_eq!(state, LineState::Modified);
        assert_eq!(data[8..16], 42u64.to_le_bytes());
    }

    #[test]
    #[should_panic(expected = "already-resident")]
    fn double_insert_panics() {
        let mut c = cache(256, 2, 64);
        c.insert(0, LineState::Shared, &[0; 64]);
        c.insert(0, LineState::Shared, &[0; 64]);
    }

    #[test]
    fn tag_only_cache_for_l1i() {
        let mut c = Cache::new(&geometry(1024, 4, 64), false);
        c.insert(7, LineState::Shared, &[]);
        assert!(c.lookup(7).unwrap().data.is_empty());
    }

    #[test]
    fn storage_follows_the_lines_touched() {
        // Paper-default L2: 2048 sets x 24 ways.
        let mut c = cache(3 << 20, 24, 64);
        let groups = |c: &Cache| c.groups.iter().filter_map(OnceLock::get).count();
        let planes = |c: &Cache| -> usize {
            let in_group = |g: &Group| g.planes.iter().filter(|p| p.get().is_some()).count();
            c.groups.iter().filter_map(OnceLock::get).map(in_group).sum()
        };
        assert!(c.lookup(5).is_none() && c.peek(5).is_none() && c.victim_for(5).is_none());
        assert_eq!(groups(&c), 0, "misses allocate nothing");
        for line in 0..GROUP_SETS as u64 {
            c.insert(line, LineState::Shared, &[0; 64]);
        }
        assert_eq!((groups(&c), planes(&c)), (1, 1), "GROUP_SETS consecutive sets, one way deep");
        c.insert(2047, LineState::Shared, &[0; 64]);
        assert_eq!((groups(&c), planes(&c)), (2, 2));
        // Two more lines in set 0 deepen group 0 to three planes; vacating
        // and refilling a way reuses its plane.
        c.insert(2048, LineState::Shared, &[0; 64]);
        c.insert(4096, LineState::Shared, &[0; 64]);
        c.remove(0);
        c.insert(6144, LineState::Shared, &[0; 64]);
        assert_eq!((groups(&c), planes(&c)), (2, 4));
        assert_eq!(c.resident_lines(), GROUP_SETS + 3);
    }

    fn saved(c: &Cache) -> Vec<u8> {
        let mut e = Enc::new();
        c.save(&mut e);
        e.finish()
    }

    #[test]
    fn save_restore_preserves_contents_and_lru() {
        let mut c = cache(256, 2, 64);
        c.insert(0, LineState::Shared, &[1; 64]);
        c.insert(2, LineState::Modified, &[2; 64]);
        c.lookup(0); // 0 becomes MRU
        let buf = saved(&c);
        let mut fresh = cache(256, 2, 64);
        fresh.restore(&mut Dec::new(&buf)).unwrap();
        assert_eq!(fresh.resident_lines(), 2);
        assert_eq!(fresh.peek(2), Some((LineState::Modified, &[2u8; 64][..])));
        // LRU order survives: inserting into the full set evicts 2, not 0.
        let (_, ev) = fresh.insert(4, LineState::Shared, &[0; 64]);
        assert_eq!(ev.unwrap().line, 2);
    }

    #[test]
    fn restore_rejects_wrong_geometry() {
        let mut big = cache(1024, 2, 64);
        big.insert(0, LineState::Shared, &[0; 64]);
        let buf = saved(&big);
        let mut small = cache(256, 2, 64);
        assert!(small.restore(&mut Dec::new(&buf)).is_err(), "set count differs");
        // Tag-only target rejects data-carrying lines.
        let mut tag_only = Cache::new(&geometry(1024, 2, 64), false);
        assert!(tag_only.restore(&mut Dec::new(&buf)).is_err());
        // Truncation is typed, not a panic.
        let mut same = cache(1024, 2, 64);
        assert!(same.restore(&mut Dec::new(&buf[..buf.len() - 10])).is_err());
        assert!(same.restore(&mut Dec::new(&buf)).is_ok());
    }

    #[test]
    fn restore_rejects_misplaced_and_duplicate_lines() {
        // 8 sets x 2 ways. Hand-built images: header, then per set a count
        // and (line, state, stamp, has-data, bytes) records.
        let image = |set0: &[u64]| {
            let mut e = Enc::new();
            e.u64(9);
            e.u32(8);
            e.u32(set0.len() as u32);
            for (i, &line) in set0.iter().enumerate() {
                e.u64(line);
                e.u8(0);
                e.u64(i as u64 + 1);
                e.u8(1);
                e.bytes(&[0; 64]);
            }
            (1..8).for_each(|_| e.u32(0));
            e.finish()
        };
        let mut c = cache(1024, 2, 64);
        assert!(c.restore(&mut Dec::new(&image(&[0, 8]))).is_ok());
        assert!(c.restore(&mut Dec::new(&image(&[0, 3]))).is_err(), "line 3 is not in set 0");
        assert!(c.restore(&mut Dec::new(&image(&[8, 8]))).is_err(), "duplicate line");
    }

    #[test]
    fn probe_read_hits_and_respects_seqlock() {
        let mut c = cache(256, 2, 64);
        let seq = SeqCount::new();
        let mut buf = [0u8; 8];
        // SAFETY: `c` is live and only this thread touches it; bytes 8..16 fit its lines.
        assert!(!unsafe { Cache::probe_read(&c, &seq, 1, 8, &mut buf) }, "unallocated group");
        c.insert(1, LineState::Shared, &[5u8; 64]).0.data[8..16]
            .copy_from_slice(&99u64.to_le_bytes());
        // Hit: reads the written bytes without the (absent) tile lock.
        // SAFETY: `c` is live and only this thread touches it; bytes 8..16 fit its lines.
        assert!(unsafe { Cache::probe_read(&c, &seq, 1, 8, &mut buf) });
        assert_eq!(u64::from_le_bytes(buf), 99);
        // Miss: absent line.
        // SAFETY: `c` is live and only this thread touches it; bytes 8..16 fit its lines.
        assert!(!unsafe { Cache::probe_read(&c, &seq, 3, 8, &mut buf) });
        // Writer in progress: probe must decline.
        seq.begin_write();
        // SAFETY: `c` is live and only this thread touches it; bytes 8..16 fit its lines.
        assert!(!unsafe { Cache::probe_read(&c, &seq, 1, 8, &mut buf) });
        seq.end_write();
        // SAFETY: `c` is live and only this thread touches it; bytes 8..16 fit its lines.
        assert!(unsafe { Cache::probe_read(&c, &seq, 1, 8, &mut buf) });
    }

    #[test]
    fn probe_read_refreshes_lru() {
        let mut c = cache(256, 2, 64);
        let seq = SeqCount::new();
        c.insert(0, LineState::Shared, &[0; 64]);
        c.insert(2, LineState::Shared, &[0; 64]);
        let mut buf = [0u8; 1];
        // Probe touches 0, making 2 the LRU victim.
        // SAFETY: `c` is live and only this thread touches it; byte 0 fits its lines.
        assert!(unsafe { Cache::probe_read(&c, &seq, 0, 0, &mut buf) });
        let (_, ev) = c.insert(4, LineState::Shared, &[0; 64]);
        assert_eq!(ev.unwrap().line, 2, "probe hit must refresh LRU like a locked lookup");
    }

    #[test]
    fn probe_read_declines_tag_only_cache() {
        let mut c = Cache::new(&geometry(1024, 4, 64), false);
        let seq = SeqCount::new();
        c.insert(7, LineState::Shared, &[]);
        let mut buf = [0u8; 1];
        // SAFETY: `c` is live and only this thread touches it; byte 0 fits its lines.
        assert!(!unsafe { Cache::probe_read(&c, &seq, 7, 0, &mut buf) });
    }
}
