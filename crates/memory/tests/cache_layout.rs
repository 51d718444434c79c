//! The flat, demand-allocated cache layout against the layout it replaced,
//! under racing probes, and across a checkpoint round trip.

use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{Acquire, Release};

use graphite_base::{Cycles, SeqCount, SimRng};
use graphite_ckpt::{Dec, Enc};
use graphite_config::CacheConfig;
use graphite_memory::cache::{Cache, LineState};

fn geometry(size: u64, assoc: u32) -> CacheConfig {
    CacheConfig { size_bytes: size, associativity: assoc, line_size: 64, access_latency: Cycles(1) }
}

fn saved(c: &Cache) -> Vec<u8> {
    let mut e = Enc::new();
    c.save(&mut e);
    e.finish()
}

/// save → restore → save: the second image equals the first byte for
/// byte (same resident sets, states, stamps and data), including when
/// the source has vacated ways and the target held other lines.
#[test]
fn save_restore_save_round_trips() {
    for (assoc, stores_data) in [(1, true), (4, true), (24, true), (4, false)] {
        let cfg = geometry(64 * 40 * assoc as u64, assoc); // 40 sets: the last group is partial
        let bytes = |v: u64| if stores_data { vec![v as u8; 64] } else { vec![] };
        let mut rng = SimRng::new(7 + assoc as u64);
        let mut c = Cache::new(&cfg, stores_data);
        for _ in 0..4000 {
            let line = rng.gen_range(40 * 3 * assoc as u64);
            match rng.gen_range(4) {
                0 => drop(c.remove(line)),
                _ if c.lookup(line).is_none() => {
                    c.insert(line, LineState::Modified, &bytes(rng.next_u64()));
                }
                _ => {}
            }
        }
        let first = saved(&c);
        let mut target = Cache::new(&cfg, stores_data);
        for line in 0..100 {
            target.insert(line, LineState::Shared, &bytes(line));
        }
        target.restore(&mut Dec::new(&first)).unwrap();
        assert_eq!(saved(&target), first, "{assoc}-way, data={stores_data}");
        assert_eq!(target.resident_lines(), c.resident_lines());
    }
}

/// The layout this one replaced — a `Vec` of lines per set, each line
/// owning its bytes, LRU by minimum stamp — kept as the oracle.
struct RefLine {
    line: u64,
    state: LineState,
    data: Vec<u8>,
    stamp: u64,
}

struct RefCache {
    sets: Vec<Vec<RefLine>>,
    assoc: usize,
    next_stamp: u64,
}

impl RefCache {
    fn set(&mut self, line: u64) -> &mut Vec<RefLine> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn peek(&mut self, line: u64) -> Option<&mut RefLine> {
        self.set(line).iter_mut().find(|l| l.line == line)
    }

    /// A locked lookup and a probe both consume a stamp on a hit only.
    fn lookup(&mut self, line: u64) -> Option<&mut RefLine> {
        self.next_stamp += self.peek(line).is_some() as u64;
        let stamp = self.next_stamp;
        let l = self.peek(line)?;
        l.stamp = stamp;
        Some(l)
    }

    fn insert(&mut self, line: u64, state: LineState, data: Vec<u8>) -> Option<RefLine> {
        self.next_stamp += 1;
        let (assoc, stamp) = (self.assoc, self.next_stamp);
        let set = self.set(line);
        let lru = (0..set.len()).min_by_key(|&i| set[i].stamp);
        let evicted = lru.filter(|_| set.len() == assoc).map(|i| set.swap_remove(i));
        set.push(RefLine { line, state, data, stamp });
        evicted
    }

    fn remove(&mut self, line: u64) -> Option<RefLine> {
        let set = self.set(line);
        let i = set.iter().position(|l| l.line == line)?;
        Some(set.swap_remove(i))
    }
}

/// Seeded random lookup / insert / remove / peek / probe / in-place
/// write sequences against the reference: identical hits, states, bytes,
/// victims, evicted bytes and resident counts at every step.
#[test]
fn flat_layout_matches_the_per_set_vec_reference() {
    const STATES: [LineState; 3] = [LineState::Shared, LineState::Exclusive, LineState::Modified];
    for (assoc, seed) in [(1usize, 11u64), (4, 12), (24, 13)] {
        // 24 sets (not a power of two, last group partial) for 24-way, else 32.
        let sets = if assoc == 24 { 24 } else { 32 };
        let mut c = Cache::new(&geometry((sets * assoc * 64) as u64, assoc as u32), true);
        let mut r = RefCache { sets: (0..sets).map(|_| vec![]).collect(), assoc, next_stamp: 0 };
        let seq = SeqCount::new();
        let mut rng = SimRng::new(seed);
        let span = (sets * assoc * 2) as u64; // twice capacity: hits and evictions both common
        for step in 0..60_000 {
            let line = rng.gen_range(span);
            let ctx = format!("{assoc}-way step {step} line {line}");
            match rng.gen_range(10) {
                0 => {
                    let (got, want) = (c.remove(line), r.remove(line));
                    let want = want.as_ref().map(|l| (l.state, &l.data[..]));
                    assert_eq!(got, want, "{ctx}");
                }
                1 => {
                    let want = r.peek(line).map(|l| (l.state, l.data.clone()));
                    assert_eq!(c.peek(line).map(|(s, d)| (s, d.to_vec())), want, "{ctx}");
                }
                2 => {
                    let mut buf = [0u8; 8];
                    // SAFETY: `c` is a live cache only this thread touches, so
                    // no write runs alongside the probe; bytes 24..32 lie
                    // within its 64-byte lines.
                    let hit = unsafe { Cache::probe_read(&c, &seq, line, 24, &mut buf) };
                    let want = r.lookup(line).map(|l| l.data[24..32].to_vec());
                    assert_eq!(hit.then(|| buf.to_vec()), want, "{ctx}");
                }
                3 => {
                    let v = rng.next_u64().to_le_bytes();
                    let (got, want) = (c.lookup(line), r.lookup(line));
                    assert_eq!(got.is_some(), want.is_some(), "{ctx}");
                    if let (Some(mut got), Some(want)) = (got, want) {
                        got.set_state(LineState::Modified);
                        got.data[8..16].copy_from_slice(&v);
                        want.state = LineState::Modified;
                        want.data[8..16].copy_from_slice(&v);
                    }
                }
                _ => {
                    let want = r.lookup(line).map(|l| (l.state, l.data.clone()));
                    let got = c.lookup(line).map(|l| (l.state(), l.data.to_vec()));
                    assert_eq!(got, want, "{ctx}");
                    if got.is_none() {
                        let state = STATES[rng.gen_range(3) as usize];
                        let data: Vec<u8> = (0..64).map(|_| rng.next_u64() as u8).collect();
                        let victim = c.victim_for(line);
                        let victim_bytes = victim.map(|v| c.peek(v).unwrap().1.to_vec());
                        let (filled, evicted) = c.insert(line, state, &data);
                        assert_eq!(filled.data, &data[..], "{ctx}");
                        let want = r.insert(line, state, data);
                        assert_eq!(evicted.map(|e| e.line), victim, "{ctx}");
                        assert_eq!(
                            evicted.map(|e| (e.line, e.state)),
                            want.as_ref().map(|l| (l.line, l.state)),
                            "{ctx}"
                        );
                        assert_eq!(victim_bytes, want.map(|l| l.data), "{ctx}");
                    }
                }
            }
            let resident: usize = r.sets.iter().map(Vec::len).sum();
            assert_eq!(c.resident_lines(), resident, "{ctx}");
        }
        // A saved image opens with the stamp counter.
        assert_eq!(saved(&c)[..8], r.next_stamp.to_le_bytes(), "{assoc}-way stamp count");
    }
}

/// Probes race a writer that fills, rewrites in place, invalidates and
/// evicts under the seqlock protocol (including the first fill into each
/// group and way plane). Every line's 64 bytes always hold eight copies of
/// one word `line << 32 | version`; an accepted probe must return two equal
/// words (not torn), of the line asked for (not another line's way), at
/// least as new as the version published before the probe began (not stale).
#[test]
fn racing_probes_never_accept_torn_or_stale_bytes() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    const LINES: u64 = 512; // 64 sets x 2 ways holds a quarter of them
    struct Shared(std::cell::UnsafeCell<Cache>);
    // SAFETY: the writer thread is the only one to form `&mut Cache`;
    // readers only pass the raw pointer to `probe_read`, whose contract
    // (every mutation inside a write section of `seq`) the writer keeps.
    unsafe impl Sync for Shared {}
    let shared = Shared(std::cell::UnsafeCell::new(Cache::new(&geometry(64 * 2 * 64, 2), true)));
    let seq = SeqCount::new();
    let published: Vec<AtomicU64> = (0..LINES).map(|_| AtomicU64::new(0)).collect();
    let (stop, start) = (AtomicBool::new(false), Barrier::new(3));
    let word = |line: u64, version: u64| (line << 32 | version).to_le_bytes().repeat(8);
    let accepted: u64 = std::thread::scope(|s| {
        let readers: Vec<_> = (0..2u64)
            .map(|id| {
                let (shared, seq, published, stop, start) =
                    (&shared, &seq, &published, &stop, &start);
                s.spawn(move || {
                    let mut rng = SimRng::new(100 + id);
                    let mut accepted = 0u64;
                    start.wait();
                    while !stop.load(Acquire) {
                        let line = rng.gen_range(LINES);
                        let floor = published[line as usize].load(Acquire);
                        let mut buf = [0u8; 16];
                        let off = 8 * rng.gen_range(7) as usize;
                        // SAFETY: see `Shared`.
                        if unsafe { Cache::probe_read(shared.0.get(), seq, line, off, &mut buf) } {
                            let a = u64::from_le_bytes(buf[..8].try_into().unwrap());
                            let b = u64::from_le_bytes(buf[8..].try_into().unwrap());
                            assert_eq!(a, b, "torn read of line {line}");
                            assert_eq!(a >> 32, line, "bytes of another line");
                            assert!(a & 0xffff_ffff >= floor, "stale read of line {line}");
                            accepted += 1;
                        }
                    }
                    accepted
                })
            })
            .collect();
        // SAFETY: this thread is the only writer (see `Shared`).
        let c = unsafe { &mut *shared.0.get() };
        let mut rng = SimRng::new(99);
        start.wait();
        for version in 1..=200_000u64 {
            let line = rng.gen_range(LINES);
            seq.begin_write();
            match (c.peek_mut(line), rng.gen_range(4)) {
                (Some(_), 0) => drop(c.remove(line)),
                (Some(l), _) => l.data.copy_from_slice(&word(line, version)),
                (None, _) => drop(c.insert(line, LineState::Modified, &word(line, version))),
            }
            seq.end_write();
            published[line as usize].store(version, Release);
            // A real owner spends most of its time outside write sections.
            // Without a gap here the readers almost never see the sequence
            // even and stable, and the race goes untested.
            for _ in 0..64 {
                std::hint::spin_loop();
            }
        }
        stop.store(true, Release);
        readers.into_iter().map(|r| r.join().expect("reader panicked")).sum()
    });
    assert!(accepted > 0, "the race never produced a validated probe hit");
}
