//! The miss: evict, claim, directory transaction, invalidate and fill.

use graphite_base::{Cycles, HostStage, TileId};
use graphite_config::{CacheProtocol, CoherenceScheme};
use graphite_trace::TraceEventKind;

use super::access::{apply_rmw, LineOp};
use super::{MemCost, MemorySystem};
use crate::cache::LineState;
use crate::directory::{Claim, DirState, Record};

/// Directory processing latency per request (cycles).
const DIR_LATENCY: Cycles = Cycles(10);
/// Size in bytes of a control packet (request/ack/invalidate).
const CTRL_MSG_BYTES: u32 = 8;
/// Header bytes added to a data-carrying packet.
const DATA_HDR_BYTES: u32 = 8;

impl MemorySystem {
    /// The slow path after the probe: evict `victim` (and any victim after
    /// it), claim the line, run its directory transaction and fill. Returns
    /// the total latency and the share spent on interconnect legs of the
    /// requester's critical path (request out, response back), for CPI
    /// attribution.
    pub(super) fn miss_transaction(
        &self,
        tile: TileId,
        now: Cycles,
        line: u64,
        off: usize,
        op: &mut LineOp,
        mut victim: Option<u64>,
    ) -> MemCost {
        let _miss = self.hostprof.span(HostStage::MissTotal);
        // Each eviction is its own claimed transaction, run *before* this
        // line's claim: holding two lines at once could deadlock (tile A
        // fills X evicting Y while tile B fills Y evicting X).
        {
            let _hp = self.hostprof.span(HostStage::LruScan);
            while let Some(vline) = victim {
                victim = self.evict_line(tile, now, vline, line);
            }
        }
        let claim = {
            let _hp = self.hostprof.span(HostStage::MissRegister);
            let (claim, waited) = {
                let _hp = self.hostprof.span(HostStage::MshrProbe);
                self.dir.claim(line, tile)
            };
            if waited {
                self.stats.mshr_conflict_waits.incr_owned(tile.index());
            }
            claim
        };
        let (cost, grant) = {
            let _hp = self.hostprof.span(HostStage::DirTxn);
            self.run_directory_transaction(tile, now, line, op.is_write(), claim.record)
        };
        self.fill(tile, line, off, op, claim.record, grant);
        self.release(claim);
        cost
    }

    /// Runs one directory transaction for a registered miss; the caller
    /// holds the line, granting exclusive use of `entry`. A dirty owner
    /// writes its bytes back into `entry`. Returns the miss's cost and the
    /// state the requester fills the line in, or `None` for an upgrade of a
    /// resident Shared copy.
    fn run_directory_transaction(
        &self,
        tile: TileId,
        now: Cycles,
        line: u64,
        is_write: bool,
        entry: Record<'_>,
    ) -> (MemCost, Option<LineState>) {
        let home = self.home_of(line);
        self.per_tile.transactions.incr_owned(tile.index());
        if self.proc_of_tile[tile.index()] != self.proc_of_tile[home.index()] {
            self.per_tile.remote_home_transactions.incr_owned(tile.index());
        }
        let lookup_lat = self.miss_lookup_lat;
        let t0 = now + lookup_lat;

        // Mint a causal flow ID for this transaction; every protocol leg it
        // generates carries the ID, so the profiler can reassemble the whole
        // remote access as one span tree. Flow 0 means tracing is off.
        let flow = if self.tracer.flows_enabled() { self.tracer.next_flow_id() } else { 0 };
        if flow != 0 {
            self.tracer.emit(tile, now, || TraceEventKind::FlowSend {
                flow,
                dst: home.0,
                kind: "mem_miss",
            });
        }

        debug_assert!(entry.invariants_hold());

        // Request travels tile -> home.
        let t_req = self.route_flow(tile, home, CTRL_MSG_BYTES, t0, flow);
        let mut t_home = t_req + DIR_LATENCY;
        self.trace_leg(tile, t0, "request", line);

        // LimitLESS: overflowing the hardware pointers traps to software.
        if let CoherenceScheme::Limitless { sharers: hw, trap_cycles } = self.scheme {
            let overflowed = entry.state() == DirState::Shared && entry.sharers().count() >= hw;
            if overflowed {
                self.stats.limitless_traps.incr_owned(tile.index());
                t_home += Cycles(trap_cycles);
                self.trace_leg(tile, t_home, "limitless_trap", line);
            }
        }

        // Queue models are referenced against the *global-progress estimate*,
        // not this requester's own (possibly far-skewed) timestamp — the
        // paper's queue-modeling rule (§3.6.1). Using the requester's clock
        // would convert clock skew into phantom queueing delay.
        let est_now = self.network.progress().estimate();
        let mut data_ready = t_home;
        let mut grant = Some(if is_write { LineState::Modified } else { LineState::Shared });
        let mut resp_bytes = self.line_size + DATA_HDR_BYTES;

        let sharers = entry.sharers();
        match (entry.state(), is_write) {
            (DirState::Uncached, _) => {
                let dram_lat = self.dram_access(home, est_now);
                self.stats.dram_reads.incr_owned(tile.index());
                data_ready = t_home + dram_lat;
                entry.set_state(if is_write {
                    DirState::Owned(tile)
                } else if self.protocol == CacheProtocol::Mesi {
                    // MESI: the sole reader takes the line Exclusive and may
                    // later write it without another directory transaction.
                    self.stats.exclusive_grants.incr_owned(tile.index());
                    grant = Some(LineState::Exclusive);
                    DirState::Owned(tile)
                } else {
                    sharers.insert(tile);
                    DirState::Shared
                });
            }
            (DirState::Shared, false) => {
                // DirNB: a full pointer set forces eviction of one sharer.
                // The victim is chosen in ring order after the requester so
                // victimization spreads over tiles (a fixed choice would
                // thrash one tile and leave the rest permanently cached,
                // hiding the protocol's serialization).
                if let CoherenceScheme::DirNB { sharers: limit } = self.scheme {
                    if !sharers.contains(tile) && sharers.count() >= limit {
                        let victim = sharers
                            .iter()
                            .find(|&s| s > tile)
                            .or_else(|| sharers.iter().find(|&s| s != tile))
                            .expect("non-empty");
                        sharers.remove(victim);
                        self.stats.forced_evictions.incr_owned(tile.index());
                        let t_ack = self.invalidate(tile, victim, line, t_home, flow);
                        data_ready = data_ready.max(t_ack);
                    }
                }
                let dram_lat = self.dram_access(home, est_now);
                self.stats.dram_reads.incr_owned(tile.index());
                data_ready = data_ready.max(t_home + dram_lat);
                sharers.insert(tile);
            }
            (DirState::Shared, true) => {
                let was_sharer = sharers.contains(tile);
                // Invalidate every other sharer; latency is the slowest ack.
                let mut t_inv_done = t_home;
                for s in sharers.iter().filter(|&s| s != tile) {
                    t_inv_done = t_inv_done.max(self.invalidate(tile, s, line, t_home, flow));
                }
                sharers.clear();
                entry.set_state(DirState::Owned(tile));
                if was_sharer {
                    // Upgrade: data already resident, permission-only reply.
                    self.stats.upgrades.incr_owned(tile.index());
                    self.trace_leg(tile, t_home, "upgrade", line);
                    grant = None;
                    resp_bytes = CTRL_MSG_BYTES;
                    data_ready = t_inv_done;
                } else {
                    let dram_lat = self.dram_access(home, est_now);
                    self.stats.dram_reads.incr_owned(tile.index());
                    data_ready = t_inv_done.max(t_home + dram_lat);
                }
            }
            (DirState::Owned(owner), _) => {
                debug_assert_ne!(owner, tile, "an owner's own probe hits");
                // Forward to owner; owner supplies data (if dirty) and is
                // downgraded (read) or invalidated (write). A dirty owner's
                // bytes go straight into the home copy at owner-lock time; a
                // clean owner's equal it already. Either way the requester
                // then fills from the home copy like any other miss.
                self.stats.remote_fills.incr_owned(tile.index());
                self.trace_leg(tile, t_home, "remote_fill", line);
                let was_dirty = if is_write {
                    self.stats.invalidations.incr_owned(tile.index());
                    let was_dirty = self.write_remote(owner, |ot| {
                        let (st, data) = ot.purge(line).expect("owner holds the line");
                        if st == LineState::Modified {
                            entry.write_bytes(0, data);
                        }
                        st == LineState::Modified
                    });
                    self.classifier.on_departure(owner, line, true);
                    was_dirty
                } else {
                    // Downgrade owner to Shared at every level. State changes
                    // leave data bytes and placement intact, so no
                    // probe-excluding write section is needed.
                    let mut ot = self.lock_tile(owner);
                    let (coh, l1d) = ot.levels();
                    let mut l = coh.peek_mut(line).expect("owner holds the line");
                    let was_dirty = l.state() == LineState::Modified;
                    l.set_state(LineState::Shared);
                    if was_dirty {
                        entry.write_bytes(0, l.data);
                    }
                    if let Some(mut l1) = l1d.and_then(|c| c.peek_mut(line)) {
                        l1.set_state(LineState::Shared);
                    }
                    was_dirty
                };
                if was_dirty {
                    self.stats.writebacks.incr_owned(tile.index());
                    // Home memory is updated in parallel with the response;
                    // the write occupies the controller off the critical path.
                    let _ = self.dram_access(home, est_now);
                }
                let t_fwd = self.route_derived_flow(home, owner, CTRL_MSG_BYTES, t_home, flow);
                let xfer = if was_dirty { self.line_size + DATA_HDR_BYTES } else { CTRL_MSG_BYTES };
                let t_data = self.route_derived_flow(owner, home, xfer, t_fwd + Cycles(2), flow);
                data_ready = t_data + DIR_LATENCY;
                if is_write {
                    entry.set_state(DirState::Owned(tile));
                } else {
                    entry.set_state(DirState::Shared);
                    sharers.insert(owner);
                    sharers.insert(tile);
                }
            }
        }
        debug_assert!(entry.invariants_hold());

        if flow != 0 {
            // The directory-service span: starts when the request arrived at
            // the home tile, ends when the data (or permission) is ready to
            // ship back.
            let ready = data_ready;
            self.tracer.emit(home, t_req, || TraceEventKind::FlowService {
                flow,
                home: home.0,
                ready: ready.0,
            });
        }

        // Response travels home -> tile.
        let t_resp = self.route_derived_flow(home, tile, resp_bytes, data_ready, flow);
        let latency = t_resp.saturating_sub(now).max(lookup_lat);
        let network = t_req.saturating_sub(t0) + t_resp.saturating_sub(data_ready);
        if flow != 0 {
            self.tracer
                .emit(tile, t_resp, || TraceEventKind::FlowReply { flow, latency: latency.0 });
        }
        (MemCost::miss(latency, network), grant)
    }

    /// Applies a granted miss to the requester's hierarchy while it still
    /// holds the line: `grant` is the state to fill the line in from the
    /// home copy in `entry` (whose way the probe and the evictions freed),
    /// or `None` to upgrade the resident copy in place.
    fn fill(
        &self,
        tile: TileId,
        line: u64,
        off: usize,
        op: &mut LineOp,
        entry: Record<'_>,
        grant: Option<LineState>,
    ) {
        let _fill = self.hostprof.span(HostStage::MissFill);
        let mut tm = self.lock_tile(tile);
        let (coh, l1d) = tm.levels();
        let Some(fill_state) = grant else {
            // Permission upgrade: set Modified and apply the write at every
            // level. The line cannot have been invalidated since the
            // directory decided, because we hold it from the decision to
            // here.
            let mut resident = coh.peek_mut(line).expect("upgraded line vanished while claimed");
            let mut l1_line = l1d.and_then(|c| c.peek_mut(line));
            self.write_through(tile.index(), &mut resident, l1_line.as_mut(), off, op);
            return;
        };
        self.stats.misses.incr_owned(tile.index());
        if let Some(kind) = self.classifier.classify_fill(tile, line, off as u64, op.len() as u64) {
            self.stats.record_kind(tile.index(), kind);
        }
        // Fill in place: the home copy goes straight into the way the cache
        // chose, the operation applies there, and the L1 filter (if any)
        // copies the result.
        let (filled, evicted) = coh.place(line, fill_state);
        assert!(evicted.is_none(), "miss fill found no room: two contexts on one tile?");
        entry.read_bytes(0, filled.data);
        match op {
            LineOp::Write(bytes) => filled.data[off..off + bytes.len()].copy_from_slice(bytes),
            LineOp::Rmw { old, f } => apply_rmw(filled.data, off, old, *f),
            LineOp::Read(buf) => buf.copy_from_slice(&filled.data[off..off + buf.len()]),
        }
        if let Some(l1) = l1d.filter(|l1| l1.peek(line).is_none()) {
            // L1 victim needs no writeback (write-through).
            l1.insert(line, fill_state, filled.data);
        }
    }

    /// Traces directory leg `leg` of `tile`'s transaction on `line`.
    fn trace_leg(&self, tile: TileId, t: Cycles, leg: &'static str, line: u64) {
        let addr = line * self.line_size as u64;
        self.tracer.emit(tile, t, || TraceEventKind::DirLeg {
            leg,
            addr,
            home: self.home_of(line).0,
        });
    }

    /// Drops `sharer`'s copy of `line` for `tile`'s transaction and prices
    /// the invalidation leaving the home at `t`; returns when its ack is
    /// back at the home.
    fn invalidate(&self, tile: TileId, sharer: TileId, line: u64, t: Cycles, flow: u64) -> Cycles {
        self.stats.invalidations.incr_owned(tile.index());
        self.write_remote(sharer, |st| {
            st.purge(line);
        });
        self.classifier.on_departure(sharer, line, true);
        let home = self.home_of(line);
        let t_inv = self.route_derived_flow(home, sharer, CTRL_MSG_BYTES, t, flow);
        self.route_derived_flow(sharer, home, CTRL_MSG_BYTES, t_inv + Cycles(1), flow)
    }

    /// Releases a transaction's line, waking whoever waits for it.
    fn release(&self, claim: Claim<'_>) {
        let _hp = self.hostprof.span(HostStage::MshrProbe);
        drop(claim);
    }

    /// Evicts `vline` from `tile`'s hierarchy as its own directory
    /// transaction (writeback if dirty, sharer removal otherwise) to make
    /// room for `line`. Waits out any in-flight transaction on the victim
    /// line, then holds it for the duration as a service claim. Returns the
    /// line a fill of `line` would still evict, picked in the purge's
    /// critical section.
    fn evict_line(&self, tile: TileId, now: Cycles, vline: u64, line: u64) -> Option<u64> {
        let lane = tile.index();
        let claim = {
            let _hp = self.hostprof.span(HostStage::MshrProbe);
            self.dir.claim_service(vline)
        };
        let entry = claim.record;
        let (purged, next) = {
            let mut tm = self.lock_tile(tile);
            // A dirty victim's bytes go straight into the home copy.
            let purged = tm.purge(vline).map(|(state, data)| {
                if state == LineState::Modified {
                    entry.write_bytes(0, data);
                }
                state
            });
            (purged, tm.coh().victim_for(line))
        };
        let Some(state) = purged else {
            self.release(claim); // invalidated while we waited
            return next;
        };
        self.classifier.on_departure(tile, vline, false);
        let home = self.home_of(vline);
        match state {
            LineState::Modified => {
                debug_assert_eq!(entry.state(), DirState::Owned(tile));
                entry.set_state(DirState::Uncached);
                self.stats.writebacks.incr_owned(lane);
                self.trace_leg(tile, now, "writeback", vline);
                // Writeback traffic: data to home, then a DRAM write. Off the
                // requester's critical path, but it loads the network links
                // and the controller queue.
                let _ = self.route_flow(tile, home, self.line_size + DATA_HDR_BYTES, now, 0);
                let est = self.network.progress().estimate();
                let _ = self.dram_access(home, est);
            }
            LineState::Exclusive => {
                // Clean sole copy: notify the directory, no data transfer.
                debug_assert_eq!(entry.state(), DirState::Owned(tile));
                entry.set_state(DirState::Uncached);
                let _ = self.route_flow(tile, home, CTRL_MSG_BYTES, now, 0);
            }
            LineState::Shared => {
                // Notify the directory so the sharer set stays exact.
                entry.sharers().remove(tile);
                if entry.sharers().is_empty() && entry.state() == DirState::Shared {
                    entry.set_state(DirState::Uncached);
                }
                let _ = self.route_flow(tile, home, CTRL_MSG_BYTES, now, 0);
            }
        }
        debug_assert!(entry.invariants_hold());
        self.release(claim);
        next
    }
}
