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
//! `Relaxed`: whoever owns a line's MSHR entry is its record's only writer,
//! and the MSHR hand-over orders one owner's writes before the next's reads.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

use graphite_base::{CachePadded, TileId};

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
