//! The checkpoint, and the coherence check a restore ends with.

use graphite_base::{SimError, TileId};
use graphite_ckpt::{corrupted, Checkpointable, Dec, Enc};
use graphite_config::CacheProtocol;

use super::MemorySystem;
use crate::cache::LineState;
use crate::directory::DirState;

impl MemorySystem {
    /// Walks every directory entry and checks that directory state and cache
    /// contents agree exactly (the MSI invariant set). Intended for tests
    /// while the system is quiescent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify_coherence_invariants(&self) -> Result<(), String> {
        for (line, entry) in self.dir.sorted() {
            if !entry.invariants_hold() {
                return Err(format!("line {line}: directory invariants violated"));
            }
            let state = entry.state();
            for t in (0..self.num_tiles).map(TileId) {
                let held = self.tiles[t.index()].lock().coh().peek(line).map(|(s, _)| s);
                let ok = match state {
                    DirState::Owned(owner) if t == owner => match self.protocol {
                        CacheProtocol::Msi => held == Some(LineState::Modified),
                        CacheProtocol::Mesi => {
                            matches!(held, Some(LineState::Modified | LineState::Exclusive))
                        }
                    },
                    DirState::Shared if entry.sharers().contains(t) => {
                        held == Some(LineState::Shared)
                    }
                    _ => held.is_none(),
                };
                if !ok {
                    return Err(format!("line {line}: {t:?} holds {held:?} while {state:?}"));
                }
            }
        }
        Ok(())
    }
}

/// Checkpointing the memory subsystem captures everything the functional
/// simulation depends on — every cache array (tags, MSI/MESI state, LRU
/// stamps, and the application's real bytes), every directory entry (the DRAM
/// home copies), the DRAM controller queue clocks, and the miss-classifier
/// history — so that a restored simulation observes identical contents *and*
/// identical timing.
///
/// The system must be quiescent (no in-flight transactions) during both save
/// and restore; the core orchestrator guarantees this, and debug builds
/// check that no line is claimed. A failed restore may
/// leave the system partially overwritten — callers discard the instance on
/// error.
impl Checkpointable for MemorySystem {
    fn segment_name(&self) -> &'static str {
        "mem"
    }

    fn save(&self, out: &mut Enc) {
        debug_assert_eq!(self.dir.in_flight(), 0, "checkpoint save during a transaction");
        out.u32(self.line_size);
        out.u32(self.num_tiles);
        for tile in &self.tiles {
            let tm = tile.lock();
            for cache in [&tm.l1i, &tm.l1d, &tm.l2] {
                match cache {
                    Some(c) => {
                        out.u8(1);
                        c.save(out);
                    }
                    None => out.u8(0),
                }
            }
        }
        // The directory serializes as ONE globally line-sorted stream so the
        // bytes are independent of the shard count, the shard hash and
        // HashMap iteration order: identical states always serialize to
        // identical bytes.
        out.u32(self.dir.lines());
        let mut data = vec![0u8; self.line_size as usize];
        for (line, e) in self.dir.sorted() {
            out.u64(line);
            match e.state() {
                DirState::Uncached => out.u8(0),
                DirState::Shared => out.u8(1),
                DirState::Owned(t) => {
                    out.u8(2);
                    out.u32(t.0);
                }
            }
            out.u32(e.sharers().count());
            for s in e.sharers().iter() {
                out.u32(s.0);
            }
            e.read_bytes(0, &mut data);
            out.bytes(&data);
        }
        out.u32(self.dram.len() as u32);
        for c in &self.dram {
            for w in c.export_state() {
                out.u64(w);
            }
        }
        self.classifier.save(out);
    }

    fn restore(&self, dec: &mut Dec<'_>) -> Result<(), SimError> {
        debug_assert_eq!(self.dir.in_flight(), 0, "checkpoint restore during a transaction");
        let bad = || corrupted("mem");
        if dec.u32()? != self.line_size || dec.u32()? != self.num_tiles {
            return Err(bad());
        }
        for tile in &self.tiles {
            let mut tm = tile.lock();
            let tm = &mut *tm;
            for cache in [&mut tm.l1i, &mut tm.l1d, &mut tm.l2] {
                let present = dec.u8()? != 0;
                match (present, cache.as_mut()) {
                    (true, Some(c)) => c.restore(dec)?,
                    (false, None) => {}
                    _ => return Err(bad()),
                }
            }
        }
        // The directory stream is one strictly line-ordered sequence (see
        // `save`), redistributed across the shards. The system is quiescent,
        // so nobody holds a record the reset voids.
        let n = dec.u32()?;
        self.dir.reset();
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let line = dec.u64()?;
            if prev.is_some_and(|p| p >= line) {
                return Err(bad()); // not strictly increasing
            }
            prev = Some(line);
            let state = match dec.u8()? {
                0 => DirState::Uncached,
                1 => DirState::Shared,
                2 => {
                    let t = dec.u32()?;
                    if t >= self.num_tiles {
                        return Err(bad());
                    }
                    DirState::Owned(TileId(t))
                }
                _ => return Err(bad()),
            };
            let entry = self.dir.insert(line);
            entry.set_state(state);
            let ns = dec.u32()?;
            for _ in 0..ns {
                let t = dec.u32()?;
                if t >= self.num_tiles || !entry.sharers().insert(TileId(t)) {
                    return Err(bad());
                }
            }
            let data = dec.bytes()?;
            if data.len() != self.line_size as usize || !entry.invariants_hold() {
                return Err(bad());
            }
            entry.write_bytes(0, data);
        }
        if dec.u32()? as usize != self.dram.len() {
            return Err(bad());
        }
        for c in &self.dram {
            c.import_state([dec.u64()?, dec.u64()?, dec.u64()?]);
        }
        self.classifier.restore(dec)?;
        // Caches and directory were restored independently; check they agree
        // before letting the protocol run against them.
        self.verify_coherence_invariants().map_err(|_| bad())?;
        Ok(())
    }
}
