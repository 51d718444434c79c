//! Structured event tracing with batched per-tile ring buffers.
//!
//! Every traced subsystem calls [`Tracer::emit`] with a closure that builds
//! the event payload. When tracing is disabled (the default) the call is a
//! single relaxed atomic load and the closure is never run, so instrumented
//! hot paths pay one predictable branch. When enabled, the event lands
//! directly in the emitting tile's fixed-capacity ring under a per-tile
//! mutex that only the owning tile's thread normally touches, so the
//! enabled path is one uncontended lock plus a buffer push — no global
//! sequence allocation per event.
//!
//! Sequence numbers are instead allocated in *batches*: each lane seals a
//! block of [`Tracer::batch`] events with one global `fetch_add`, recording
//! only an (ordinal range → first seq) mark; [`Tracer::drain`] resolves each
//! event's sequence number from the marks. Events are therefore totally
//! ordered *within* a tile (emission order) but only batch-granular *across*
//! tiles. Simulator sync points (barriers, futex waits, thread exit) call
//! [`Tracer::flush`] to seal the current block, so cross-tile interleavings
//! stay accurate at synchronization granularity. Rings drop their *oldest*
//! entries when full — the tail of a run is what post-mortem debugging
//! wants — and drops are counted per tile ([`Tracer::dropped_per_tile`])
//! with a one-time warning line on first overflow.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use graphite_base::{CachePadded, Cycles, TileId};
use parking_lot::Mutex;

use crate::json;

/// The payload of one traced event.
///
/// Numeric fields use plain integers (tile indices as `u32`, addresses and
/// sizes as `u64`) rather than the newtype ids so the enum stays `Copy` and
/// cheap to build inside `emit` closures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A core began a memory operation (`op` is "load", "store" or "ifetch").
    MemOpStart { op: &'static str, addr: u64 },
    /// A memory operation completed with its modeled latency.
    MemOpDone { op: &'static str, addr: u64, latency: u64, hit: bool },
    /// One leg of a directory coherence transaction (`leg` names the step,
    /// e.g. "dram_read", "invalidate", "writeback", "limitless_trap").
    DirLeg { leg: &'static str, addr: u64, home: u32 },
    /// A packet entered the interconnect model.
    PacketSend { class: &'static str, dst: u32, bytes: u64 },
    /// A packet was delivered, with its modeled end-to-end latency.
    PacketRecv { class: &'static str, src: u32, bytes: u64, latency: u64 },
    /// A thread blocked on a futex word.
    FutexWait { addr: u64 },
    /// A futex wake released `woken` waiters.
    FutexWake { addr: u64, woken: u64 },
    /// A tile reached the lax barrier and waits for the quantum to close.
    BarrierWait { quantum: u64 },
    /// The lax barrier released all tiles at the end of a quantum.
    BarrierRelease { waiters: u64 },
    /// A point-to-point sync check observed `skew` cycles of lead (positive
    /// means this tile is ahead of its randomly chosen partner).
    P2PCheck { skew: i64 },
    /// A point-to-point sync check decided to sleep.
    P2PSleep { micros: u64 },
    /// A clock-skew sample against global progress (positive = ahead).
    ClockSkew { skew: i64 },
    /// The MCP spawned a guest thread onto a tile.
    ThreadSpawn { thread: u32 },
    /// A guest thread exited.
    ThreadExit { thread: u32 },
    /// A modeled system call was issued.
    Syscall { name: &'static str },
    /// The guest sent a user-level message.
    UserMsgSend { dst: u32, bytes: u64 },
    /// The guest received a user-level message.
    UserMsgRecv { src: u32, bytes: u64 },
    /// A flow was injected into the network: the first causal span of a
    /// message flow (`kind` names the flow class, e.g. "mem_miss" or
    /// "user_msg"). Emitted on the requesting tile at injection time.
    FlowSend { flow: u64, dst: u32, kind: &'static str },
    /// One transport/network hop of a flow: the packet left `src` at this
    /// event's timestamp and reaches `dst` at `arrival`.
    FlowHop { flow: u64, src: u32, dst: u32, arrival: u64 },
    /// The directory (home tile) serviced a flow's request: processing began
    /// at this event's timestamp and the reply data was ready at `ready`.
    FlowService { flow: u64, home: u32, ready: u64 },
    /// The flow completed back at its origin with the given end-to-end
    /// latency (for memory flows this is exactly the access's `MemCost`
    /// latency).
    FlowReply { flow: u64, latency: u64 },
}

impl TraceEventKind {
    /// Stable event name used as the JSONL `"event"` field.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::MemOpStart { .. } => "mem_op_start",
            TraceEventKind::MemOpDone { .. } => "mem_op_done",
            TraceEventKind::DirLeg { .. } => "dir_leg",
            TraceEventKind::PacketSend { .. } => "packet_send",
            TraceEventKind::PacketRecv { .. } => "packet_recv",
            TraceEventKind::FutexWait { .. } => "futex_wait",
            TraceEventKind::FutexWake { .. } => "futex_wake",
            TraceEventKind::BarrierWait { .. } => "barrier_wait",
            TraceEventKind::BarrierRelease { .. } => "barrier_release",
            TraceEventKind::P2PCheck { .. } => "p2p_check",
            TraceEventKind::P2PSleep { .. } => "p2p_sleep",
            TraceEventKind::ClockSkew { .. } => "clock_skew",
            TraceEventKind::ThreadSpawn { .. } => "thread_spawn",
            TraceEventKind::ThreadExit { .. } => "thread_exit",
            TraceEventKind::Syscall { .. } => "syscall",
            TraceEventKind::UserMsgSend { .. } => "user_msg_send",
            TraceEventKind::UserMsgRecv { .. } => "user_msg_recv",
            TraceEventKind::FlowSend { .. } => "flow_send",
            TraceEventKind::FlowHop { .. } => "flow_hop",
            TraceEventKind::FlowService { .. } => "flow_service",
            TraceEventKind::FlowReply { .. } => "flow_reply",
        }
    }

    fn write_fields(&self, out: &mut String) {
        use std::fmt::Write;
        match *self {
            TraceEventKind::MemOpStart { op, addr } => {
                let _ = write!(out, ",\"op\":{},\"addr\":{addr}", json::quote(op));
            }
            TraceEventKind::MemOpDone { op, addr, latency, hit } => {
                let _ = write!(
                    out,
                    ",\"op\":{},\"addr\":{addr},\"latency\":{latency},\"hit\":{hit}",
                    json::quote(op)
                );
            }
            TraceEventKind::DirLeg { leg, addr, home } => {
                let _ =
                    write!(out, ",\"leg\":{},\"addr\":{addr},\"home\":{home}", json::quote(leg));
            }
            TraceEventKind::PacketSend { class, dst, bytes } => {
                let _ = write!(
                    out,
                    ",\"class\":{},\"dst\":{dst},\"bytes\":{bytes}",
                    json::quote(class)
                );
            }
            TraceEventKind::PacketRecv { class, src, bytes, latency } => {
                let _ = write!(
                    out,
                    ",\"class\":{},\"src\":{src},\"bytes\":{bytes},\"latency\":{latency}",
                    json::quote(class)
                );
            }
            TraceEventKind::FutexWait { addr } => {
                let _ = write!(out, ",\"addr\":{addr}");
            }
            TraceEventKind::FutexWake { addr, woken } => {
                let _ = write!(out, ",\"addr\":{addr},\"woken\":{woken}");
            }
            TraceEventKind::BarrierWait { quantum } => {
                let _ = write!(out, ",\"quantum\":{quantum}");
            }
            TraceEventKind::BarrierRelease { waiters } => {
                let _ = write!(out, ",\"waiters\":{waiters}");
            }
            TraceEventKind::P2PCheck { skew } | TraceEventKind::ClockSkew { skew } => {
                let _ = write!(out, ",\"skew\":{skew}");
            }
            TraceEventKind::P2PSleep { micros } => {
                let _ = write!(out, ",\"micros\":{micros}");
            }
            TraceEventKind::ThreadSpawn { thread } | TraceEventKind::ThreadExit { thread } => {
                let _ = write!(out, ",\"thread\":{thread}");
            }
            TraceEventKind::Syscall { name } => {
                let _ = write!(out, ",\"name\":{}", json::quote(name));
            }
            TraceEventKind::UserMsgSend { dst, bytes } => {
                let _ = write!(out, ",\"dst\":{dst},\"bytes\":{bytes}");
            }
            TraceEventKind::UserMsgRecv { src, bytes } => {
                let _ = write!(out, ",\"src\":{src},\"bytes\":{bytes}");
            }
            TraceEventKind::FlowSend { flow, dst, kind } => {
                let _ =
                    write!(out, ",\"flow\":{flow},\"dst\":{dst},\"kind\":{}", json::quote(kind));
            }
            TraceEventKind::FlowHop { flow, src, dst, arrival } => {
                let _ = write!(
                    out,
                    ",\"flow\":{flow},\"src\":{src},\"dst\":{dst},\"arrival\":{arrival}"
                );
            }
            TraceEventKind::FlowService { flow, home, ready } => {
                let _ = write!(out, ",\"flow\":{flow},\"home\":{home},\"ready\":{ready}");
            }
            TraceEventKind::FlowReply { flow, latency } => {
                let _ = write!(out, ",\"flow\":{flow},\"latency\":{latency}");
            }
        }
    }
}

/// One recorded event: global order, origin tile, local time, payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number: unique and ascending; allocated in per-tile
    /// batches, so the cross-tile order is batch-granular (see module docs).
    /// Gaps mark events lost to ring overflow.
    pub seq: u64,
    /// Tile that emitted the event.
    pub tile: TileId,
    /// The emitting tile's local clock at emission time.
    pub cycles: Cycles,
    /// Event payload.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Serializes this event as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        use std::fmt::Write;
        let _ = write!(
            out,
            "{{\"seq\":{},\"tile\":{},\"cycles\":{},\"event\":\"{}\"",
            self.seq,
            self.tile.0,
            self.cycles.0,
            self.kind.name()
        );
        self.kind.write_fields(&mut out);
        out.push('}');
        out
    }
}

/// Serializes events as JSON Lines (one object per line, trailing newline).
pub fn export_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

/// A sealed sequence block: ordinals `[start, upto)` of this lane map to
/// sequence numbers `[seq0, seq0 + (upto - start))`.
#[derive(Debug, Clone, Copy)]
struct SeqMark {
    start: u64,
    upto: u64,
    seq0: u64,
}

/// One tile's ring state, guarded by its lane mutex. Events are stored
/// without sequence numbers; `pushed`/`evicted` are monotone ordinals
/// (`evicted` is the ordinal of the ring's front element) and `marks` holds
/// the sealed sequence blocks that `drain` resolves against.
#[derive(Default)]
struct LaneInner {
    ring: VecDeque<(TileId, Cycles, TraceEventKind)>,
    pushed: u64,
    evicted: u64,
    marked_upto: u64,
    marks: VecDeque<SeqMark>,
    dropped: u64,
}

impl LaneInner {
    /// Drop-oldest push. Returns true when events were evicted.
    ///
    /// Eviction happens in chunks of `evict_chunk` so a ring running at
    /// capacity pays the counter/prune bookkeeping once per chunk rather
    /// than on every push; the ring then holds between
    /// `capacity - evict_chunk + 1` and `capacity` events.
    #[inline]
    fn push(
        &mut self,
        capacity: usize,
        evict_chunk: usize,
        tile: TileId,
        now: Cycles,
        kind: TraceEventKind,
    ) -> bool {
        let mut evicted = false;
        if self.ring.len() >= capacity {
            let chunk = evict_chunk.min(self.ring.len());
            self.ring.drain(..chunk);
            self.evicted += chunk as u64;
            self.dropped += chunk as u64;
            evicted = true;
            // Marks whose range is fully below the ring front can never be
            // referenced again.
            while let Some(m) = self.marks.front() {
                if m.upto <= self.evicted {
                    self.marks.pop_front();
                } else {
                    break;
                }
            }
        }
        self.ring.push_back((tile, now, kind));
        self.pushed += 1;
        evicted
    }
}

/// The event tracer: a runtime on/off switch in front of per-tile rings
/// with batched global sequencing.
///
/// # Examples
///
/// ```
/// use graphite_base::{Cycles, TileId};
/// use graphite_trace::{Tracer, TraceEventKind};
///
/// let tracer = Tracer::new(2, true, 64);
/// tracer.emit(TileId(1), Cycles(42), || TraceEventKind::FutexWait { addr: 0x1000 });
/// let events = tracer.drain();
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].tile, TileId(1));
///
/// let off = Tracer::new(2, false, 64);
/// off.emit(TileId(0), Cycles(1), || unreachable!("closure never runs while disabled"));
/// assert!(off.drain().is_empty());
/// ```
pub struct Tracer {
    enabled: AtomicBool,
    /// Whether causal flow spans (Flow* events) are recorded; gated
    /// separately from `enabled` so ordinary tracing stays unchanged.
    flows: AtomicBool,
    /// Next flow ID to mint; flow 0 means "untracked".
    next_flow: AtomicU64,
    capacity: usize,
    /// Events per sealed sequence block.
    batch: usize,
    /// Oldest events evicted per overflow (amortizes full-ring bookkeeping).
    evict_chunk: usize,
    seq: AtomicU64,
    /// One-shot latch for the first-overflow warning line.
    drop_warned: AtomicBool,
    /// One ring per tile. Only the owning tile's thread normally emits
    /// into a lane, so its lock is uncontended.
    lanes: Vec<CachePadded<Mutex<LaneInner>>>,
}

impl Tracer {
    /// Default number of events per sealed sequence block: how many events a
    /// tile records before taking one global-sequence allocation.
    pub const DEFAULT_BATCH: usize = 64;

    /// Creates a tracer with one ring of `capacity` events per tile.
    ///
    /// A zero tile count still gets one lane so events from control-plane
    /// threads always have somewhere to land.
    pub fn new(num_tiles: usize, enabled: bool, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let lanes = (0..num_tiles.max(1)).map(|_| CachePadded::new(Mutex::default())).collect();
        Tracer {
            enabled: AtomicBool::new(enabled),
            flows: AtomicBool::new(false),
            next_flow: AtomicU64::new(1),
            capacity,
            batch: Self::DEFAULT_BATCH.min(capacity),
            // Rings smaller than 8 evict exactly one event (precise
            // semantics for tiny test rings); larger rings evict in chunks.
            evict_chunk: (capacity / 8).clamp(1, Self::DEFAULT_BATCH),
            seq: AtomicU64::new(0),
            drop_warned: AtomicBool::new(false),
            lanes,
        }
    }

    /// Whether events are currently being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off at runtime. Already-recorded events stay
    /// buffered either way; disabling loses nothing.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether causal flow spans are recorded: both the tracer and the flow
    /// gate must be on. One relaxed load short-circuits the common
    /// everything-off case, so untraced hot paths still pay a single branch.
    #[inline]
    pub fn flows_enabled(&self) -> bool {
        self.is_enabled() && self.flows.load(Ordering::Relaxed)
    }

    /// Turns flow-span recording on or off (off by default).
    pub fn set_flows(&self, on: bool) {
        self.flows.store(on, Ordering::Relaxed);
    }

    /// Mints a fresh nonzero flow ID. IDs are process-global and strictly
    /// increasing; flow 0 is reserved to mean "untracked message".
    #[inline]
    pub fn next_flow_id(&self) -> u64 {
        self.next_flow.fetch_add(1, Ordering::Relaxed)
    }

    /// Ring capacity per tile.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events per sealed sequence block (the batching granularity of the
    /// cross-tile event order).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Events discarded because a ring was full (drop-oldest policy), summed
    /// over tiles.
    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.lock().dropped).sum()
    }

    /// Per-tile dropped-event counts (drop-oldest evictions per ring).
    pub fn dropped_per_tile(&self) -> Vec<u64> {
        self.lanes.iter().map(|l| l.lock().dropped).collect()
    }

    /// Records an event if tracing is enabled.
    ///
    /// The closure builds the payload and only runs when tracing is on, so a
    /// disabled tracer costs one relaxed load and a predictable branch. When
    /// on, the event goes straight into the emitting tile's ring under the
    /// lane mutex — normally uncontended, since only the owning tile's
    /// thread emits there.
    #[inline]
    pub fn emit(&self, tile: TileId, now: Cycles, build: impl FnOnce() -> TraceEventKind) {
        if !self.is_enabled() {
            return;
        }
        self.stage(tile, now, build());
    }

    /// Records two events carrying the same timestamp under one lane-lock
    /// acquisition — the memory system's hot path uses this for its
    /// start/done pairs on cache hits.
    #[inline]
    pub fn emit_pair(
        &self,
        tile: TileId,
        now: Cycles,
        build: impl FnOnce() -> (TraceEventKind, TraceEventKind),
    ) {
        if !self.is_enabled() {
            return;
        }
        let (first, second) = build();
        let idx = self.lane_index(tile);
        let dropped = {
            let mut g = self.lanes[idx].lock();
            let d0 = g.push(self.capacity, self.evict_chunk, tile, now, first);
            let d1 = g.push(self.capacity, self.evict_chunk, tile, now, second);
            self.seal_if_due(&mut g);
            d0 || d1
        };
        if dropped {
            self.warn_once(idx);
        }
    }

    #[inline]
    fn lane_index(&self, tile: TileId) -> usize {
        // Events attributed to out-of-range tiles (e.g. control-plane work
        // before tile bring-up) fold into the last lane rather than panicking.
        (tile.index()).min(self.lanes.len() - 1)
    }

    fn stage(&self, tile: TileId, now: Cycles, kind: TraceEventKind) {
        let idx = self.lane_index(tile);
        let dropped = {
            let mut g = self.lanes[idx].lock();
            let d = g.push(self.capacity, self.evict_chunk, tile, now, kind);
            self.seal_if_due(&mut g);
            d
        };
        if dropped {
            self.warn_once(idx);
        }
    }

    /// Seals the lane's unmarked tail into a sequence block once it reaches
    /// the batch size: one global `fetch_add` for the whole block.
    #[inline]
    fn seal_if_due(&self, g: &mut LaneInner) {
        if g.pushed - g.marked_upto >= self.batch as u64 {
            self.seal(g);
        }
    }

    fn seal(&self, g: &mut LaneInner) {
        let n = g.pushed - g.marked_upto;
        if n == 0 {
            return;
        }
        let seq0 = self.seq.fetch_add(n, Ordering::Relaxed);
        let start = g.marked_upto;
        let upto = g.pushed;
        g.marks.push_back(SeqMark { start, upto, seq0 });
        g.marked_upto = upto;
    }

    #[cold]
    fn warn_once(&self, idx: usize) {
        if !self.drop_warned.load(Ordering::Relaxed)
            && !self.drop_warned.swap(true, Ordering::Relaxed)
        {
            eprintln!(
                "graphite-trace: trace ring full on tile {idx}; dropping oldest events \
                 (capacity {} per tile; raise SimBuilder::trace_capacity)",
                self.capacity
            );
        }
    }

    /// Seals one tile's current sequence block.
    ///
    /// The simulator calls this at natural synchronization points — barrier
    /// waits, futex blocks, thread exit — so the cross-tile event order in a
    /// drained trace is accurate at synchronization granularity without
    /// paying per-event global sequencing on the hot path. A disabled tracer
    /// returns before taking the lane lock; [`Tracer::drain`] seals whatever
    /// a lane still holds.
    pub fn flush(&self, tile: TileId) {
        if !self.is_enabled() {
            return;
        }
        let idx = self.lane_index(tile);
        let mut g = self.lanes[idx].lock();
        self.seal(&mut g);
    }

    /// Seals every tile's current sequence block.
    pub fn flush_all(&self) {
        for lane in &self.lanes {
            let mut g = lane.lock();
            self.seal(&mut g);
        }
    }

    /// Removes and returns every buffered event, ordered by global sequence.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for lane in &self.lanes {
            let mut g = lane.lock();
            self.seal(&mut g);
            let evicted = g.evicted;
            let mut marks = g.marks.iter().copied();
            let mut cur = marks.next();
            for (j, &(tile, cycles, kind)) in g.ring.iter().enumerate() {
                let ordinal = evicted + j as u64;
                while let Some(m) = cur {
                    if ordinal >= m.upto {
                        cur = marks.next();
                    } else {
                        all.push(TraceEvent {
                            seq: m.seq0 + (ordinal - m.start),
                            tile,
                            cycles,
                            kind,
                        });
                        break;
                    }
                }
            }
            let pushed = g.pushed;
            g.ring.clear();
            g.marks.clear();
            g.evicted = pushed;
        }
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Drains every buffered event and serializes them as JSON Lines.
    pub fn drain_jsonl(&self) -> String {
        export_jsonl(&self.drain())
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("capacity", &self.capacity)
            .field("batch", &self.batch)
            .field("tiles", &self.lanes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(addr: u64) -> TraceEventKind {
        TraceEventKind::FutexWait { addr }
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let t = Tracer::new(2, false, 8);
        t.emit(TileId(0), Cycles(1), || panic!("must not run"));
        assert!(t.drain().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn runtime_toggle() {
        let t = Tracer::new(1, false, 8);
        t.emit(TileId(0), Cycles(1), || ev(1));
        t.set_enabled(true);
        t.emit(TileId(0), Cycles(2), || ev(2));
        t.set_enabled(false);
        t.emit(TileId(0), Cycles(3), || ev(3));
        let events = t.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, ev(2));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let t = Tracer::new(1, true, 3);
        for i in 0..5 {
            t.emit(TileId(0), Cycles(i), || ev(i));
        }
        assert_eq!(t.dropped(), 2);
        let events = t.drain();
        assert_eq!(events.len(), 3);
        // The oldest two (addr 0, 1) were evicted.
        assert_eq!(events[0].kind, ev(2));
        assert_eq!(events[2].kind, ev(4));
    }

    #[test]
    fn drain_yields_unique_ascending_seqs_and_per_tile_order() {
        // Sequence numbers are allocated per sealed batch, so the total
        // order across tiles is batch-granular — but within one tile events
        // keep emission order, and seqs are globally unique and ascending
        // after the drain sort.
        let t = Tracer::new(3, true, 16);
        t.emit(TileId(2), Cycles(10), || ev(0));
        t.emit(TileId(0), Cycles(20), || ev(1));
        t.emit(TileId(2), Cycles(30), || ev(2));
        let events = t.drain();
        assert_eq!(events.len(), 3);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seqs not strictly ascending: {seqs:?}");
        let tile2: Vec<TraceEventKind> =
            events.iter().filter(|e| e.tile == TileId(2)).map(|e| e.kind).collect();
        assert_eq!(tile2, vec![ev(0), ev(2)], "per-tile emission order must survive");
        // Drain empties the rings.
        assert!(t.drain().is_empty());
    }

    #[test]
    fn batch_boundary_seals_seq_blocks_automatically() {
        let t = Tracer::new(1, true, 1024);
        assert_eq!(t.batch(), Tracer::DEFAULT_BATCH);
        for i in 0..(Tracer::DEFAULT_BATCH as u64 * 2 + 5) {
            t.emit(TileId(0), Cycles(i), || ev(i));
        }
        // Two full batches sealed; 5 events still unsealed; drain gets all.
        let events = t.drain();
        assert_eq!(events.len(), Tracer::DEFAULT_BATCH * 2 + 5);
        let addrs: Vec<u64> = events
            .iter()
            .map(|e| match e.kind {
                TraceEventKind::FutexWait { addr } => addr,
                _ => unreachable!(),
            })
            .collect();
        let want: Vec<u64> = (0..addrs.len() as u64).collect();
        assert_eq!(addrs, want, "single-tile emission order must be exact");
    }

    #[test]
    fn emit_pair_records_both_events_in_order() {
        let t = Tracer::new(2, true, 64);
        t.emit_pair(TileId(1), Cycles(5), || {
            (
                TraceEventKind::MemOpStart { op: "load", addr: 0x40 },
                TraceEventKind::MemOpDone { op: "load", addr: 0x40, latency: 2, hit: true },
            )
        });
        let events = t.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind.name(), "mem_op_start");
        assert_eq!(events[1].kind.name(), "mem_op_done");
        assert!(events[0].seq < events[1].seq);
        assert_eq!(events[0].cycles, Cycles(5));
        assert_eq!(events[1].tile, TileId(1));

        let off = Tracer::new(2, false, 64);
        off.emit_pair(TileId(0), Cycles(1), || unreachable!("closure gated off"));
        assert!(off.drain().is_empty());
    }

    #[test]
    fn explicit_flush_seals_and_preserves_events() {
        let t = Tracer::new(2, true, 64);
        t.emit(TileId(1), Cycles(1), || ev(1));
        t.flush(TileId(1));
        t.flush(TileId(0)); // empty lane: a no-op
        t.emit(TileId(1), Cycles(2), || ev(2));
        t.flush_all();
        let events = t.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].tile, TileId(1));
        assert!(events[0].seq < events[1].seq);
    }

    #[test]
    fn dropped_is_counted_per_tile() {
        let t = Tracer::new(2, true, 2);
        for i in 0..6 {
            t.emit(TileId(1), Cycles(i), || ev(i));
        }
        t.emit(TileId(0), Cycles(0), || ev(100));
        assert_eq!(t.dropped_per_tile(), vec![0, 4]);
        assert_eq!(t.dropped(), 4);
    }

    #[test]
    fn overflow_leaves_seq_gaps_but_keeps_order() {
        // Capacity 4 with 10 emits: the survivors are the last four, their
        // seqs ascend, and drops show up as gaps rather than reordering.
        let t = Tracer::new(1, true, 4);
        for i in 0..10 {
            t.emit(TileId(0), Cycles(i), || ev(i));
        }
        let events = t.drain();
        assert_eq!(events.len(), 4);
        let addrs: Vec<u64> = events
            .iter()
            .map(|e| match e.kind {
                TraceEventKind::FutexWait { addr } => addr,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(addrs, vec![6, 7, 8, 9]);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(t.dropped(), 6);
    }

    #[test]
    fn out_of_range_tile_folds_into_last_ring() {
        let t = Tracer::new(2, true, 4);
        t.emit(TileId(99), Cycles(1), || ev(7));
        assert_eq!(t.drain().len(), 1);
    }

    #[test]
    fn every_event_kind_serializes_to_valid_json() {
        let kinds = [
            TraceEventKind::MemOpStart { op: "load", addr: 0x40 },
            TraceEventKind::MemOpDone { op: "store", addr: 0x40, latency: 57, hit: false },
            TraceEventKind::DirLeg { leg: "dram_read", addr: 0x80, home: 3 },
            TraceEventKind::PacketSend { class: "memory", dst: 2, bytes: 72 },
            TraceEventKind::PacketRecv { class: "user", src: 1, bytes: 16, latency: 9 },
            TraceEventKind::FutexWait { addr: 0x1000 },
            TraceEventKind::FutexWake { addr: 0x1000, woken: 2 },
            TraceEventKind::BarrierWait { quantum: 1000 },
            TraceEventKind::BarrierRelease { waiters: 4 },
            TraceEventKind::P2PCheck { skew: -37 },
            TraceEventKind::P2PSleep { micros: 120 },
            TraceEventKind::ClockSkew { skew: 88 },
            TraceEventKind::ThreadSpawn { thread: 5 },
            TraceEventKind::ThreadExit { thread: 5 },
            TraceEventKind::Syscall { name: "open" },
            TraceEventKind::UserMsgSend { dst: 1, bytes: 8 },
            TraceEventKind::UserMsgRecv { src: 0, bytes: 8 },
            TraceEventKind::FlowSend { flow: 7, dst: 3, kind: "mem_miss" },
            TraceEventKind::FlowHop { flow: 7, src: 0, dst: 3, arrival: 120 },
            TraceEventKind::FlowService { flow: 7, home: 3, ready: 180 },
            TraceEventKind::FlowReply { flow: 7, latency: 240 },
        ];
        let t = Tracer::new(1, true, 64);
        for (i, k) in kinds.iter().enumerate() {
            t.emit(TileId(0), Cycles(i as u64), || *k);
        }
        let jsonl = t.drain_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), kinds.len());
        for line in &lines {
            crate::json::Json::parse(line).unwrap_or_else(|e| panic!("{e}\n{line}"));
            assert!(line.contains("\"seq\":"));
            assert!(line.contains("\"event\":"));
        }
    }

    #[test]
    fn flow_ids_are_unique_and_gated() {
        let t = Tracer::new(1, true, 8);
        assert!(!t.flows_enabled(), "flows default off");
        let a = t.next_flow_id();
        let b = t.next_flow_id();
        assert!(a >= 1, "flow 0 is reserved for untracked messages");
        assert!(b > a, "flow IDs must be strictly increasing");
        t.set_flows(true);
        assert!(t.flows_enabled());
        t.set_enabled(false);
        assert!(!t.flows_enabled(), "flow spans require the tracer itself on");
    }

    #[test]
    fn concurrent_emitters_keep_seqs_unique() {
        let t = std::sync::Arc::new(Tracer::new(4, true, 1 << 14));
        let mut handles = Vec::new();
        for tile in 0..4u32 {
            let t = std::sync::Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    t.emit(TileId(tile), Cycles(i), || ev(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = t.drain();
        assert_eq!(events.len(), 8000);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        let len_before = seqs.len();
        seqs.dedup();
        assert_eq!(seqs.len(), len_before, "duplicate seq numbers");
        // Per-tile emission order must be intact.
        for tile in 0..4u32 {
            let addrs: Vec<u64> = events
                .iter()
                .filter(|e| e.tile == TileId(tile))
                .map(|e| match e.kind {
                    TraceEventKind::FutexWait { addr } => addr,
                    _ => unreachable!(),
                })
                .collect();
            let want: Vec<u64> = (0..2000).collect();
            assert_eq!(addrs, want);
        }
    }
}
