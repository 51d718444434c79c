//! The directory arena: its sharer sets and records on their own, against a
//! map of owned records, under racing first-touches, and across checkpoint
//! round trips.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Barrier};

use graphite_base::{GlobalProgress, SimError, SimRng, TileId};
use graphite_ckpt::{Checkpointable, Dec, Enc};
use graphite_config::{presets, SimConfig};
use graphite_memory::directory::{DirState, Directory, Record};
use graphite_memory::{Addr, MemorySystem};
use graphite_network::Network;
use graphite_trace::Obs;
use proptest::prelude::*;

#[test]
fn sharer_set_basics() {
    let dir = Directory::new(130, 64);
    let s = dir.record(dir.alloc()).sharers();
    assert!(s.is_empty());
    assert!(s.insert(TileId(0)));
    assert!(s.insert(TileId(129)));
    assert!(!s.insert(TileId(0)), "double insert reports false");
    assert_eq!(s.count(), 2);
    assert!(s.contains(TileId(129)));
    assert_eq!(s.first(), Some(TileId(0)));
    assert!(s.remove(TileId(0)));
    assert!(!s.remove(TileId(0)));
    assert_eq!(s.first(), Some(TileId(129)));
    s.clear();
    assert!(s.is_empty());
    assert_eq!(s.iter().count(), 0);
}

#[test]
fn record_invariants() {
    let dir = Directory::new(8, 64);
    let e = dir.record(dir.alloc());
    assert!(e.invariants_hold());
    e.set_state(DirState::Shared);
    assert!(!e.invariants_hold(), "shared with no sharers is invalid");
    e.sharers().insert(TileId(2));
    assert!(e.invariants_hold());
    e.set_state(DirState::Owned(TileId(2)));
    assert_eq!(e.state(), DirState::Owned(TileId(2)));
    assert!(!e.invariants_hold(), "owned must track no sharers");
    e.sharers().clear();
    assert!(e.invariants_hold());
}

proptest! {
    /// SharerSet agrees with a reference set under arbitrary ops.
    #[test]
    fn sharer_set_matches_reference(ops in proptest::collection::vec((0u8..2, 0u32..200), 1..200)) {
        let dir = Directory::new(200, 64);
        let s = dir.record(dir.alloc()).sharers();
        let mut reference = BTreeSet::new();
        for (op, t) in ops {
            if op == 0 {
                prop_assert_eq!(s.insert(TileId(t)), reference.insert(t));
            } else {
                prop_assert_eq!(s.remove(TileId(t)), reference.remove(&t));
            }
            prop_assert_eq!(s.count() as usize, reference.len());
        }
        let got: Vec<u32> = s.iter().map(|t| t.0).collect();
        let want: Vec<u32> = reference.into_iter().collect();
        prop_assert_eq!(got, want);
    }
}

/// What the arena replaced — one owned record per line in an ordered map —
/// kept as the oracle.
struct RefRecord {
    state: DirState,
    sharers: BTreeSet<u32>,
    data: Vec<u8>,
}

fn assert_matches(rec: Record<'_>, want: &RefRecord, what: &str) {
    assert_eq!(rec.state(), want.state, "{what}: state");
    let sharers: Vec<u32> = rec.sharers().iter().map(|t| t.0).collect();
    assert_eq!(sharers, want.sharers.iter().copied().collect::<Vec<_>>(), "{what}: sharers");
    assert_eq!(rec.sharers().count() as usize, want.sharers.len(), "{what}: count");
    assert_eq!(rec.sharers().first().map(|t| t.0), want.sharers.first().copied(), "{what}");
    assert_eq!(rec.sharers().is_empty(), want.sharers.is_empty(), "{what}: is_empty");
    let mut data = vec![0xAA; want.data.len()];
    rec.read_bytes(0, &mut data);
    assert_eq!(data, want.data, "{what}: bytes");
}

/// Seeded get-or-insert / state / sharer / byte-write sequences: every
/// record agrees with the oracle after every operation on it, and a line's
/// handle never changes, while the arena grows through `lines` records.
fn differential(tiles: u32, line_size: u32, lines: u64, ops: u64) {
    let dir = Directory::new(tiles, line_size);
    let mut handles: HashMap<u64, u32> = HashMap::new();
    let mut oracle: BTreeMap<u64, RefRecord> = BTreeMap::new();
    let mut rng = SimRng::new(u64::from(tiles) * 1000 + u64::from(line_size));
    let what = format!("{tiles} tiles, {line_size}-byte lines");
    for _ in 0..ops {
        let line = rng.gen_range(lines);
        let handle = *handles.entry(line).or_insert_with(|| dir.alloc());
        let want = oracle.entry(line).or_insert_with(|| RefRecord {
            state: DirState::Uncached,
            sharers: BTreeSet::new(),
            data: vec![0; line_size as usize],
        });
        let rec = dir.record(handle);
        let tile = rng.gen_range(u64::from(tiles)) as u32;
        match rng.gen_range(5) {
            0 => {
                want.state = match rng.gen_range(3) {
                    0 => DirState::Uncached,
                    1 => DirState::Shared,
                    _ => DirState::Owned(TileId(tile)),
                };
                rec.set_state(want.state);
            }
            1 => assert_eq!(rec.sharers().insert(TileId(tile)), want.sharers.insert(tile)),
            2 => assert_eq!(rec.sharers().remove(TileId(tile)), want.sharers.remove(&tile)),
            3 => {
                let off = rng.gen_range(u64::from(line_size)) as usize;
                let len = 1 + rng.gen_range((line_size as usize - off) as u64) as usize;
                let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                rec.write_bytes(off, &bytes);
                want.data[off..off + len].copy_from_slice(&bytes);
                let mut back = vec![0; len];
                rec.read_bytes(off, &mut back);
                assert_eq!(back, bytes, "{what}: partial read-back at {off}");
            }
            _ => {
                assert_eq!(rec.sharers().contains(TileId(tile)), want.sharers.contains(&tile));
                if want.sharers.len() > 3 {
                    rec.sharers().clear();
                    want.sharers.clear();
                }
            }
        }
        assert_matches(rec, want, &what);
    }
    assert_eq!(dir.lines() as usize, oracle.len(), "{what}: one record per line");
    for (line, want) in &oracle {
        assert_matches(dir.record(handles[line]), want, &format!("{what}, final, line {line}"));
    }
}

#[test]
fn arena_matches_owned_records() {
    // 40k lines: through the doubling chunks and two fixed-size ones.
    differential(4, 64, 40_000, 150_000);
    for (tiles, line_size) in [(4, 32), (64, 64), (64, 32), (130, 64), (130, 32)] {
        differential(tiles, line_size, 1500, 20_000); // five chunk boundaries
    }
}

/// A word pattern that names its handle and position, so a torn, moved or
/// re-zeroed record cannot pass for another.
fn pattern(handle: u32, word: usize) -> u64 {
    (u64::from(handle) << 20 | word as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

fn fill(rec: Record<'_>, handle: u32) {
    rec.set_state(DirState::Owned(TileId(handle)));
    let bytes: Vec<u8> = (0..8).flat_map(|w| pattern(handle, w).to_le_bytes()).collect();
    rec.write_bytes(0, &bytes);
}

fn check(rec: Record<'_>, handle: u32) {
    assert_eq!(rec.state(), DirState::Owned(TileId(handle)), "handle {handle}");
    assert!(rec.sharers().is_empty(), "handle {handle}");
    let mut bytes = [0u8; 64];
    rec.read_bytes(0, &mut bytes);
    for (w, got) in bytes.chunks(8).enumerate() {
        assert_eq!(got, pattern(handle, w).to_le_bytes(), "handle {handle} word {w}");
    }
}

/// Counts a writer out even when it panics, so the readers never spin on a
/// writer that is gone.
struct WriterLeft<'a>(&'a AtomicU32);

impl Drop for WriterLeft<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// Two threads first-touch new lines while two others re-read records
/// resolved earlier — through fresh lookups and through views taken before
/// the arena grew. No record is ever torn, moved or handed out twice.
#[test]
fn racing_first_touches_leave_resolved_records_alone() {
    const RECORDS: usize = 50_000; // the ramp and two fixed-size chunks
    let dir = Directory::new(64, 64);
    let ready: Vec<AtomicBool> = (0..RECORDS).map(|_| AtomicBool::new(false)).collect();
    let writers_left = AtomicU32::new(2);
    let start = Barrier::new(4);
    let writer = || {
        let _left = WriterLeft(&writers_left);
        start.wait();
        loop {
            let handle = dir.alloc();
            if handle as usize >= RECORDS {
                break;
            }
            let rec = dir.record(handle);
            assert_eq!(rec.state(), DirState::Uncached, "a fresh record is zero");
            fill(rec, handle);
            // Release pairs with the readers' acquire: the stand-in for the
            // shard-map lock a handle travels through.
            assert!(!ready[handle as usize].swap(true, Ordering::Release), "handed out twice");
        }
    };
    let reader = |seed: u64| {
        let mut rng = SimRng::new(seed);
        let mut held: Vec<(u32, Record<'_>)> = Vec::new();
        let mut checked = 0u64;
        start.wait();
        while writers_left.load(Ordering::Acquire) > 0 {
            let handle = rng.gen_range(RECORDS as u64) as u32;
            if ready[handle as usize].load(Ordering::Acquire) {
                let rec = dir.record(handle);
                check(rec, handle);
                held.push((handle, rec));
                checked += 1;
            }
            if !held.is_empty() {
                let (h, rec) = held[rng.gen_range(held.len() as u64) as usize];
                check(rec, h);
            }
        }
        held.iter().for_each(|&(h, rec)| check(rec, h));
        checked
    };
    let checked: u64 = std::thread::scope(|s| {
        let readers = [s.spawn(|| reader(1)), s.spawn(|| reader(2))];
        s.spawn(writer);
        s.spawn(writer);
        readers.map(|r| r.join().unwrap()).iter().sum()
    });
    assert!(checked > 0, "the readers overlapped the writers");
    (0..RECORDS as u32).for_each(|h| check(dir.record(h), h));
}

fn system(cfg: &SimConfig) -> (MemorySystem, Obs) {
    let tiles = cfg.target.num_tiles as usize;
    let obs = Obs::detached(tiles);
    let net = Arc::new(Network::new(cfg, Arc::new(GlobalProgress::new(tiles))));
    (MemorySystem::with_obs(cfg, net, false, &obs), obs)
}

fn saved(m: &MemorySystem) -> Vec<u8> {
    let mut enc = Enc::new();
    m.save(&mut enc);
    enc.finish()
}

fn dir_lines(m: &MemorySystem, obs: &Obs) -> u64 {
    m.publish_dir_lines();
    obs.metrics.snapshot().counters["mem.dir.lines"]
}

/// save → restore over a directory that already holds other lines → save:
/// byte-identical, and exactly the stream's lines are live afterwards. (The
/// name predates the fixed shard count.)
#[test]
fn save_restore_save_across_shard_counts() {
    let cfg = presets::paper_default(4);
    let (m, obs) = system(&cfg);
    for t in 0..4 {
        m.random_access_storm(TileId(t), u64::from(t) + 1, 3000 * 64, 4000);
    }
    let lines = dir_lines(&m, &obs);
    assert!(lines > 2000, "the storm touched {lines} lines");
    let first = saved(&m);

    let (target, target_obs) = system(&cfg);
    // Other lines, and more of them than the image holds.
    for i in 0..2 * lines {
        target.poke_bytes(Addr((1 << 30) + i * 64), &[7]);
    }
    assert_eq!(dir_lines(&target, &target_obs), 2 * lines);
    target.restore(&mut Dec::new(&first)).unwrap();
    assert_eq!(dir_lines(&target, &target_obs), lines, "restore resets the arena");
    assert_eq!(saved(&target), first);
    let mut byte = [0xFFu8];
    target.peek_bytes(Addr(1 << 30), &mut byte);
    assert_eq!(byte, [0], "the target's own lines are gone");
    target.verify_coherence_invariants().unwrap();
}

/// One `Uncached` line as `save` writes it.
fn stream_entry(line: u64, data_len: usize) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(line);
    e.u8(0);
    e.u32(0);
    e.bytes(&vec![line as u8; data_len]);
    e.finish()
}

/// `restore` accepts a strictly line-sorted stream of whole lines and
/// nothing else.
#[test]
fn restore_rejects_duplicate_unsorted_and_short_lines() {
    let cfg = presets::paper_default(4);
    let empty = saved(&system(&cfg).0);
    let (poked, _obs) = system(&cfg);
    poked.poke_bytes(Addr(5 * 64), &[5; 64]);
    poked.poke_bytes(Addr(9 * 64), &[9; 64]);
    let image = saved(&poked);
    // Pokes leave the caches alone, so the two images first differ at the
    // directory's line count.
    let count_at = empty.iter().zip(&image).position(|(a, b)| a != b).unwrap();
    let craft = |entries: &[Vec<u8>]| {
        let mut bytes = empty[..count_at].to_vec();
        bytes.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        entries.iter().for_each(|e| bytes.extend_from_slice(e));
        bytes.extend_from_slice(&empty[count_at + 4..]);
        bytes
    };
    let good = craft(&[stream_entry(5, 64), stream_entry(9, 64)]);
    assert_eq!(good, image, "the crafted stream is what save writes");

    let (target, obs) = system(&cfg);
    target.restore(&mut Dec::new(&good)).unwrap();
    assert_eq!(dir_lines(&target, &obs), 2);
    for (bad, why) in [
        (craft(&[stream_entry(5, 64), stream_entry(5, 64)]), "duplicate"),
        (craft(&[stream_entry(9, 64), stream_entry(5, 64)]), "unsorted"),
        (craft(&[stream_entry(5, 64), stream_entry(9, 32)]), "short line"),
        (craft(&[stream_entry(5, 128)]), "long line"),
    ] {
        let err = system(&cfg).0.restore(&mut Dec::new(&bad)).unwrap_err();
        assert!(matches!(err, SimError::CkptCorrupted { .. }), "{why}: {err:?}");
    }
}
