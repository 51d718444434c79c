//! The access path: the lock-free read probe, the locked hit, instruction
//! fetches, atomic read-modify-writes, and the functional peek and poke.

use std::ops::Range;
use std::sync::atomic::Ordering::Relaxed;

use graphite_base::{Cycles, HostStage, SimRng, TileId};
use graphite_trace::TraceEventKind;

use super::{MemCost, MemorySystem};
use crate::addr::Addr;
use crate::cache::{Cache, Line, LineState};
use crate::directory::DirState;

/// One line segment's data operation.
pub(super) enum LineOp<'a> {
    Read(&'a mut [u8]),
    Write(&'a [u8]),
    /// Atomic read-modify-write: `old` receives the previous bytes, then `f`
    /// rewrites the window in place. Applied while the line is held with
    /// write permission under the protocol locks, so it is atomic with
    /// respect to every other tile.
    Rmw {
        old: &'a mut [u8],
        f: &'a mut dyn FnMut(&mut [u8]),
    },
}

impl LineOp<'_> {
    pub(super) fn is_write(&self) -> bool {
        !matches!(self, LineOp::Read(_))
    }

    pub(super) fn len(&self) -> usize {
        match self {
            LineOp::Read(b) => b.len(),
            LineOp::Write(b) => b.len(),
            LineOp::Rmw { old, .. } => old.len(),
        }
    }
}

pub(super) fn apply_rmw(data: &mut [u8], off: usize, old: &mut [u8], f: &mut dyn FnMut(&mut [u8])) {
    let window = &mut data[off..off + old.len()];
    old.copy_from_slice(window);
    f(window);
}

impl MemorySystem {
    /// Reads `buf.len()` bytes at `addr` on behalf of `tile`, returning the
    /// modeled latency. Splits accesses that span cache lines.
    ///
    /// The dominant case — a `Ctx::load` of an aligned scalar (≤ 8 bytes,
    /// always within one line) — takes the single-segment path: no splitting
    /// loop, line and offset computed once by shift/mask.
    #[inline]
    pub fn read(&self, tile: TileId, now: Cycles, addr: Addr, buf: &mut [u8]) -> Cycles {
        self.read_classified(tile, now, addr, buf).latency
    }

    /// Like [`MemorySystem::read`], but also reports how the latency splits
    /// between local hierarchy and interconnect time (for CPI attribution).
    #[inline]
    pub fn read_classified(
        &self,
        tile: TileId,
        now: Cycles,
        addr: Addr,
        buf: &mut [u8],
    ) -> MemCost {
        let len = buf.len();
        if len > 0 && (addr.0 & self.line_mask) as usize + len <= self.line_size as usize {
            return self.access_line(tile, now, addr, LineOp::Read(buf));
        }
        self.access_multi(tile, now, addr, LineOp::Read(buf))
    }

    /// Writes `bytes` at `addr` on behalf of `tile`, returning the modeled
    /// latency. Splits accesses that span cache lines; single-line accesses
    /// (every aligned `Ctx::store` of ≤ 8 bytes) skip the splitting loop.
    #[inline]
    pub fn write(&self, tile: TileId, now: Cycles, addr: Addr, bytes: &[u8]) -> Cycles {
        self.write_classified(tile, now, addr, bytes).latency
    }

    /// Like [`MemorySystem::write`], but also reports how the latency splits
    /// between local hierarchy and interconnect time (for CPI attribution).
    #[inline]
    pub fn write_classified(&self, tile: TileId, now: Cycles, addr: Addr, bytes: &[u8]) -> MemCost {
        let len = bytes.len();
        if len > 0 && (addr.0 & self.line_mask) as usize + len <= self.line_size as usize {
            return self.access_line(tile, now, addr, LineOp::Write(bytes));
        }
        self.access_multi(tile, now, addr, LineOp::Write(bytes))
    }

    /// Splits a read or write that spans lines into one access per line
    /// segment, each starting when the one before it finished.
    fn access_multi(&self, tile: TileId, now: Cycles, addr: Addr, mut op: LineOp) -> MemCost {
        let mut total = MemCost::hit(Cycles::ZERO);
        for (a, r) in self.segments(addr, op.len()) {
            let seg = match &mut op {
                LineOp::Read(buf) => LineOp::Read(&mut buf[r]),
                LineOp::Write(bytes) => LineOp::Write(&bytes[r]),
                LineOp::Rmw { .. } => unreachable!("an atomic access stays within one line"),
            };
            total.fold(self.access_line(tile, now + total.latency, a, seg));
        }
        total
    }

    /// Splits the `len` bytes at `addr` at line boundaries into each
    /// segment's address and its byte range within the access.
    fn segments(&self, addr: Addr, len: usize) -> impl Iterator<Item = (Addr, Range<usize>)> {
        let (line_size, line_mask) = (self.line_size as usize, self.line_mask);
        let mut done = 0;
        std::iter::from_fn(move || {
            (done < len).then(|| {
                let a = addr.offset(done as u64);
                let n = (line_size - (a.0 & line_mask) as usize).min(len - done);
                done += n;
                (a, done - n..done)
            })
        })
    }

    /// Models an instruction fetch through the (tag-only) L1I; misses charge
    /// the L2 hit latency, assuming code is resident on chip. Miss latency is
    /// charged to the tile's `mem.tile.latency_sum` lane like data accesses.
    pub fn ifetch(&self, tile: TileId, now: Cycles, addr: Addr) -> Cycles {
        let lane = tile.index();
        self.stats.ifetches.incr_owned(lane);
        let mut tm = self.lock_tile(tile);
        let Some(l1i) = tm.l1i.as_mut() else {
            return Cycles(1);
        };
        let l1i_lat = l1i.access_latency();
        let line = addr.line(l1i.line_size());
        if l1i.lookup(line).is_some() {
            return l1i_lat;
        }
        self.stats.ifetch_misses.incr_owned(lane);
        l1i.insert(line, LineState::Shared, &[]);
        let l2_lat = tm.l2.as_ref().map(|c| c.access_latency()).unwrap_or(Cycles(8));
        drop(tm);
        let total = l1i_lat + l2_lat;
        self.per_tile.latency_sum.add_owned(lane, total.0);
        self.tracer.emit(tile, now, || TraceEventKind::MemOpDone {
            op: "ifetch",
            addr: addr.0,
            latency: total.0,
            hit: false,
        });
        total
    }

    fn access_line(&self, tile: TileId, now: Cycles, addr: Addr, mut op: LineOp) -> MemCost {
        let line = addr.0 >> self.line_shift;
        let off = (addr.0 & self.line_mask) as usize;
        let lane = tile.index();
        let is_write = op.is_write();
        let op_name = if is_write { "store" } else { "load" };
        if is_write {
            self.stats.stores.incr_owned(lane);
        } else {
            self.stats.loads.incr_owned(lane);
        }
        self.per_tile.accesses.incr_owned(lane);
        // One tracer gate for both endpoint events; disabled tracing costs a
        // single predictable branch per access.
        let tracing = self.tracer.is_enabled();
        // Lock-free read-hit probe: a seqlock-validated scan of the front
        // data cache. Counters, latency, and LRU effect are identical to the
        // locked read-hit path; `false` only ever means "take the slow path".
        let pt = &self.probes[lane];
        let probe_hit = match &mut op {
            // SAFETY: `pt.cache` points at a `Cache` inside
            // `MemorySystem::tiles`, whose heap buffer is allocated once and
            // lives exactly as long as this `MemorySystem`. Other threads
            // write that cache only under its tile lock inside a write
            // section of `tile_seq[lane]` (`write_remote`); the tile's own
            // writes never run alongside this probe, because only its one
            // context probes and a context's hand-offs between carriers
            // synchronize through the scheduler lock. `off + buf.len()` stays
            // within the line (`access_line` gets one line segment).
            LineOp::Read(buf) => unsafe {
                Cache::probe_read(pt.cache.load(Relaxed), &self.tile_seq[lane], line, off, buf)
            },
            _ => false,
        };
        let probed = if probe_hit {
            self.stats.probe_hits.incr_owned(lane);
            if pt.is_l1 {
                self.stats.l1d_hits.incr_owned(lane);
            } else {
                self.stats.l2_hits.incr_owned(lane);
            }
            Ok(pt.lat)
        } else {
            // Fast path: local hit with sufficient permission.
            let _hp = self.hostprof.span(HostStage::LocalProbe);
            self.probe(tile, line, off, &mut op)
        };
        // Hits and misses record the same metric set (latency sum, per-tile
        // latency, max, histogram), so per-tile means cover every access,
        // not just misses. Hits emit their start/done pair under one
        // tracer-lane acquisition; misses keep separate endpoint events so
        // directory legs traced during the transaction land between them.
        let cost = match probed {
            Ok(lat) => {
                if tracing {
                    self.tracer.emit_pair(tile, now, || {
                        (
                            TraceEventKind::MemOpStart { op: op_name, addr: addr.0 },
                            TraceEventKind::MemOpDone {
                                op: op_name,
                                addr: addr.0,
                                latency: lat.0,
                                hit: true,
                            },
                        )
                    });
                }
                MemCost::hit(lat)
            }
            Err(victim) => {
                if tracing {
                    self.tracer.emit(tile, now, || TraceEventKind::MemOpStart {
                        op: op_name,
                        addr: addr.0,
                    });
                }
                let cost = self.miss_transaction(tile, now, line, off, &mut op, victim);
                if tracing {
                    self.tracer.emit(tile, now, || TraceEventKind::MemOpDone {
                        op: op_name,
                        addr: addr.0,
                        latency: cost.latency.0,
                        hit: false,
                    });
                }
                cost
            }
        };
        if is_write && self.classifier.enabled() {
            self.classifier.on_write(tile, line, off as u64, op.len() as u64);
        }
        let lat = cost.latency;
        self.stats.latency_sum.add_owned(lane, lat.0);
        self.per_tile.latency_sum.add_owned(lane, lat.0);
        self.stats.max_latency.observe_max(lane, lat.0);
        self.latency_hist.record_owned(lane, lat.0);
        cost
    }

    /// The locked probe: serves a hit from the tile's own hierarchy — the
    /// coherence-level cache and the L1D filter in front of it, if any — and
    /// returns its latency; on a miss, returns the line the fill would evict
    /// (`None` when the set has room or the line is resident without write
    /// permission), picked in the same critical section.
    ///
    /// This is the straight-line section the tile mutex protects on the hot
    /// path: one split borrow of the hierarchy, a single tag scan per level
    /// (`lookup` returns the line, so no second `peek_mut` scan to apply the
    /// data op), and no heap allocation. A filter hit applies there; a
    /// coherence-level hit applies on that authoritative copy, then refills
    /// the filter with the resulting line (write-through keeps the coherence
    /// level current, so the filter's victim is dropped silently).
    fn probe(
        &self,
        tile: TileId,
        line: u64,
        off: usize,
        op: &mut LineOp,
    ) -> Result<Cycles, Option<u64>> {
        let lane = tile.index();
        let mut tm = self.lock_tile(tile);
        let (coh, mut l1d) = tm.levels();
        let l1_lat = l1d.as_ref().map_or(Cycles::ZERO, |l1| l1.access_latency());
        if let Some(mut l1_line) = l1d.as_mut().and_then(|l1| l1.lookup(line)) {
            if op.is_write() && !l1_line.state().writable() {
                return Err(None); // upgrade required
            }
            if let LineOp::Read(buf) = op {
                buf.copy_from_slice(&l1_line.data[off..off + buf.len()]);
            } else {
                let mut coh_line = coh.peek_mut(line).expect("inclusion: L1 ⊆ L2");
                self.write_through(lane, &mut coh_line, Some(&mut l1_line), off, op);
            }
            self.stats.l1d_hits.incr_owned(lane);
            return Ok(l1_lat);
        }
        let Some(mut coh_line) = coh.lookup(line) else {
            return Err(coh.victim_for(line));
        };
        if op.is_write() && !coh_line.state().writable() {
            return Err(None); // upgrade required
        }
        if let LineOp::Read(buf) = op {
            buf.copy_from_slice(&coh_line.data[off..off + buf.len()]);
        } else {
            self.write_through(lane, &mut coh_line, None, off, op);
        }
        if let Some(l1) = l1d {
            l1.insert(line, coh_line.state(), coh_line.data);
        }
        self.stats.l2_hits.incr_owned(lane);
        Ok(l1_lat + coh.access_latency())
    }

    /// Applies a write (or RMW) to the coherence-level copy of a line the
    /// tile may write, marking it Modified (silently, from Exclusive); with
    /// an L1 filter the coherence-level copy is authoritative and the
    /// resulting window propagates into the L1 copy (an RMW closure must not
    /// run twice).
    #[inline(always)]
    pub(super) fn write_through(
        &self,
        lane: usize,
        coh: &mut Line,
        l1: Option<&mut Line>,
        off: usize,
        op: &mut LineOp,
    ) {
        let n = op.len();
        if coh.state() == LineState::Exclusive {
            self.stats.silent_upgrades.incr_owned(lane);
        }
        coh.set_state(LineState::Modified);
        match op {
            LineOp::Write(bytes) => coh.data[off..off + n].copy_from_slice(bytes),
            LineOp::Rmw { old, f } => apply_rmw(coh.data, off, old, *f),
            LineOp::Read(_) => unreachable!("reads never write through"),
        }
        if let Some(l1) = l1 {
            l1.set_state(LineState::Modified);
            l1.data[off..off + n].copy_from_slice(&coh.data[off..off + n]);
        }
    }

    /// Atomically reads a little-endian `u32` at `addr` and replaces it with
    /// `f(old)`, holding the line with write permission for the whole
    /// operation — the simulated equivalent of a locked RMW instruction.
    /// Returns the previous value and the modeled cost (latency plus its
    /// network share, for CPI attribution).
    ///
    /// Used by the futex emulation and the guest synchronization primitives.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a cache-line boundary.
    pub fn fetch_update_u32<F>(
        &self,
        tile: TileId,
        now: Cycles,
        addr: Addr,
        mut f: F,
    ) -> (u32, MemCost)
    where
        F: FnMut(u32) -> u32,
    {
        let (old, cost) =
            self.fetch_update_le(tile, now, addr, |w| f(u32::from_le_bytes(w)).to_le_bytes());
        (u32::from_le_bytes(old), cost)
    }

    /// 64-bit variant of [`MemorySystem::fetch_update_u32`].
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a cache-line boundary.
    pub fn fetch_update_u64<F>(
        &self,
        tile: TileId,
        now: Cycles,
        addr: Addr,
        mut f: F,
    ) -> (u64, MemCost)
    where
        F: FnMut(u64) -> u64,
    {
        let (old, cost) =
            self.fetch_update_le(tile, now, addr, |w| f(u64::from_le_bytes(w)).to_le_bytes());
        (u64::from_le_bytes(old), cost)
    }

    /// The body of the `fetch_update_*` family: an atomic read-modify-write
    /// of the `N` little-endian bytes at `addr`.
    fn fetch_update_le<const N: usize>(
        &self,
        tile: TileId,
        now: Cycles,
        addr: Addr,
        mut f: impl FnMut([u8; N]) -> [u8; N],
    ) -> ([u8; N], MemCost) {
        assert!(
            (addr.0 & self.line_mask) as usize + N <= self.line_size as usize,
            "atomic access must not cross a line boundary"
        );
        let mut old = [0u8; N];
        let mut apply = |window: &mut [u8]| {
            let new = f(window.try_into().expect("an N-byte window"));
            window.copy_from_slice(&new);
        };
        let cost = self.access_line(tile, now, addr, LineOp::Rmw { old: &mut old, f: &mut apply });
        (old, cost)
    }

    /// Functional read bypassing all timing (used by the MCP for syscall
    /// emulation and by tests). Returns zeros for untouched memory.
    pub fn peek_bytes(&self, addr: Addr, buf: &mut [u8]) {
        for (a, r) in self.segments(addr, buf.len()) {
            let (line, off) = (a.line(self.line_size), (a.0 & self.line_mask) as usize);
            let dst = &mut buf[r];
            // Wait out any in-flight transaction on this line, then hold it
            // so the owner/home copy cannot move mid-read.
            match self.dir.claim_existing(line) {
                None => dst.fill(0),
                Some(claim) => match claim.record.state() {
                    DirState::Owned(owner) => {
                        let ot = self.lock_tile(owner);
                        let (_, data) = ot.coh().peek(line).expect("owner holds line");
                        dst.copy_from_slice(&data[off..off + dst.len()]);
                    }
                    _ => claim.record.read_bytes(off, dst),
                },
            }
        }
    }

    /// Functional write bypassing all timing; keeps every cached copy
    /// coherent by updating sharers in place.
    pub fn poke_bytes(&self, addr: Addr, bytes: &[u8]) {
        for (a, r) in self.segments(addr, bytes.len()) {
            let (line, off) = (a.line(self.line_size), (a.0 & self.line_mask) as usize);
            // Hold the line so no transaction moves copies around while we
            // patch every cached copy in place.
            let claim = self.dir.claim_service(line);
            let entry = claim.record;
            let src = &bytes[r];
            // The home copy stays current even under an owner: an Exclusive
            // owner evicts silently without a writeback.
            entry.write_bytes(off, src);
            let patch = |t: TileId| {
                let held = self.write_remote(t, |tm| tm.poke(line, off, src));
                debug_assert!(held, "directory lists tile{} for line {line}", t.0);
            };
            match entry.state() {
                DirState::Owned(owner) => patch(owner),
                DirState::Shared => entry.sharers().iter().for_each(patch),
                DirState::Uncached => {}
            }
        }
    }

    /// Test/bench helper: performs `n` random single-word accesses from one
    /// tile and returns total latency. Exercises the full protocol.
    pub fn random_access_storm(&self, tile: TileId, seed: u64, span: u64, n: u64) -> Cycles {
        let mut rng = SimRng::new(seed);
        let mut now = Cycles::ZERO;
        let mut buf = [0u8; 8];
        for _ in 0..n {
            let addr = Addr(rng.gen_range(span) & !7);
            if rng.gen_bool(0.3) {
                now += self.write(tile, now, addr, &buf);
            } else {
                now += self.read(tile, now, addr, &mut buf);
            }
        }
        now
    }
}
