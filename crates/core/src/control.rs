//! The simulation control plane: MCP and LCP (paper §2.2, §3.4, §3.5).
//!
//! "Graphite spawns additional threads called the Master Control Program
//! (MCP) and the Local Control Program (LCP). There is one LCP per process
//! but only one MCP for the entire simulation. The MCP and LCP ensure the
//! functional correctness of the simulation by providing services for
//! synchronization, system call execution and thread management."
//!
//! The MCP here is a single service thread processing request messages in
//! arrival order — which is also what makes its futex emulation atomic. It
//! owns the thread-to-tile mapping (tiles striped across processes), the
//! futex wait queues, the dynamic memory manager for the heap and mmap
//! segments (paper §3.2.1), and the virtual file system backing the
//! consistent-OS-interface syscalls (paper §3.4: file descriptors must mean
//! the same thing in every process, so file I/O funnels through the MCP).
//!
//! Every request names its requesting tile. The MCP answers by writing an
//! [`McpReply`] into that tile's reply cell and unparking it — exactly once
//! per request, whether the answer is immediate (a malloc, a mismatched
//! futex wait) or deferred (a futex wait until its wake, a join until the
//! exit). Its futex queues and join lists therefore hold tiles, and a
//! waiting guest is a suspended context, not a host thread blocked on a
//! channel.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};
use graphite_base::{Blocker, Cycles, SimError, ThreadId, TileId};
use graphite_ckpt::Enc;
use graphite_core_model::Instruction;
use graphite_memory::addr::layout;
use graphite_memory::{Addr, SegmentAllocator};
use graphite_trace::{MetricsRegistry, ShardedMetric, TraceEventKind};
use graphite_transport::Mailbox;

use crate::ctx::{Ctx, GuestEntry};
use crate::vfs::Vfs;
use crate::SimInner;

/// Counters for control-plane activity, consumed by reports and the host
/// performance model.
///
/// Backed by [`ShardedMetric`] lanes. The MCP is a single service thread, so
/// every update uses the owned (plain load+store) lane-0 fast path — the
/// shared metrics cache line never bounces between the MCP and tile threads.
#[derive(Debug, Default)]
pub struct ControlStats {
    /// Threads spawned.
    pub spawns: ShardedMetric,
    /// Joins completed.
    pub joins: ShardedMetric,
    /// Futex waits that actually blocked.
    pub futex_waits: ShardedMetric,
    /// Futex wake calls.
    pub futex_wakes: ShardedMetric,
    /// System calls serviced by the MCP (file I/O, memory management).
    pub syscalls: ShardedMetric,
}

impl ControlStats {
    /// Counters bound to the metrics registry under `ctrl.*`.
    pub fn registered(metrics: &MetricsRegistry) -> Self {
        ControlStats {
            spawns: metrics.sharded_counter("ctrl.spawns"),
            joins: metrics.sharded_counter("ctrl.joins"),
            futex_waits: metrics.sharded_counter("ctrl.futex_waits"),
            futex_wakes: metrics.sharded_counter("ctrl.futex_wakes"),
            syscalls: metrics.sharded_counter("ctrl.syscalls"),
        }
    }
}

/// Lane used by the MCP service thread for its `ctrl.*` counters. All MCP
/// updates are serialized by the single service loop, so the owned
/// (unsynchronized) lane writes are safe.
const MCP_LANE: usize = 0;

/// Result of a futex wait request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FutexWaitOutcome {
    /// The thread blocked and was woken by a waker at the given time.
    Woken {
        /// The waker's simulated time, for clock forwarding.
        waker_time: Cycles,
    },
    /// The futex word no longer held the expected value; no blocking.
    ValueMismatch,
}

/// File-system syscalls forwarded to the MCP.
#[derive(Debug)]
pub enum FileReq {
    /// Opens (creating if needed) a file in the simulation-private VFS;
    /// replies the new descriptor.
    Open {
        /// Path within the virtual file system.
        path: String,
    },
    /// Closes a descriptor; replies 0 on success, −1 otherwise.
    Close {
        /// Descriptor to close.
        fd: i32,
    },
    /// Reads up to `max` bytes at the descriptor's offset; replies the data
    /// (possibly shorter than `max`).
    Read {
        /// Descriptor to read.
        fd: i32,
        /// Maximum bytes.
        max: usize,
    },
    /// Writes bytes at the descriptor's offset; replies bytes written.
    Write {
        /// Descriptor to write.
        fd: i32,
        /// The data.
        data: Vec<u8>,
    },
    /// Repositions a descriptor; replies the new offset or −1.
    Seek {
        /// Descriptor.
        fd: i32,
        /// Absolute offset.
        pos: u64,
    },
}

/// The MCP's answer to one request, written into the requester's reply
/// cell before the requester is unparked.
#[derive(Debug)]
pub enum McpReply {
    /// [`McpRequest::Spawn`]: the new thread id, or [`SimError::NoFreeTile`].
    Spawn(Result<ThreadId, SimError>),
    /// [`McpRequest::Join`]: `(exit time, exit value)`, or
    /// [`SimError::UnknownThread`] for a never-spawned id.
    Join(Result<(Cycles, u64), SimError>),
    /// [`McpRequest::FutexWait`]: how the wait ended.
    FutexWait(FutexWaitOutcome),
    /// [`McpRequest::FutexWake`]: the number of waiters woken.
    FutexWake(u32),
    /// [`McpRequest::Malloc`] / [`McpRequest::Mmap`]: the block's address.
    Alloc(Result<Addr, SimError>),
    /// [`McpRequest::Free`] / [`McpRequest::Munmap`] /
    /// [`McpRequest::Checkpoint`]: success or the failure.
    Done(Result<(), SimError>),
    /// Open / close / seek: a descriptor, result code or offset.
    Int(i64),
    /// Write: bytes written.
    Count(usize),
    /// Read: the bytes read.
    Data(Vec<u8>),
    /// The control plane shut down before answering.
    Closed,
}

/// Requests serviced by the MCP.
pub enum McpRequest {
    /// Spawn a guest thread on a free tile (paper §3.5: "the spawn calls are
    /// forwarded to the MCP to ensure a consistent view of the
    /// thread-to-tile mapping").
    Spawn {
        /// Guest entry function.
        entry: GuestEntry,
        /// Argument passed to the entry.
        arg: u64,
        /// Spawner's clock; the child's clock starts here.
        parent_time: Cycles,
        /// The requesting tile (receives the reply).
        tile: TileId,
    },
    /// Wait for a thread to exit; replies with its exit time and exit value.
    Join {
        /// Thread to join.
        thread: ThreadId,
        /// The requesting tile (receives the reply).
        tile: TileId,
    },
    /// A guest thread finished.
    ThreadExit {
        /// The exiting thread.
        thread: ThreadId,
        /// Its tile, returned to the free pool.
        tile: TileId,
        /// Its final clock.
        time: Cycles,
        /// Its pthread-style exit value (see `Ctx::set_exit_value`).
        value: u64,
    },
    /// Emulated `futex(FUTEX_WAIT)` (paper §3.4).
    FutexWait {
        /// Futex word address in the simulated address space.
        addr: Addr,
        /// Value the caller saw; mismatches fail immediately.
        expected: u32,
        /// The requesting tile (receives the reply).
        tile: TileId,
    },
    /// Emulated `futex(FUTEX_WAKE)`.
    FutexWake {
        /// Futex word address.
        addr: Addr,
        /// Maximum waiters to wake.
        max: u32,
        /// The waker's clock (propagated to woken threads).
        time: Cycles,
        /// The requesting tile (receives the number woken).
        tile: TileId,
    },
    /// Heap allocation (intercepted `brk`-style allocation, §3.2.1).
    Malloc {
        /// Requested bytes.
        size: u64,
        /// The requesting tile (receives the address).
        tile: TileId,
    },
    /// Frees a heap allocation.
    Free {
        /// Block start address.
        addr: Addr,
        /// The requesting tile (receives success or an error for invalid
        /// frees).
        tile: TileId,
    },
    /// Allocation from the mmap segment (intercepted `mmap`).
    Mmap {
        /// Requested bytes.
        size: u64,
        /// The requesting tile (receives the address).
        tile: TileId,
    },
    /// Releases an mmap region (intercepted `munmap`).
    Munmap {
        /// Region start.
        addr: Addr,
        /// The requesting tile (receives success or an error).
        tile: TileId,
    },
    /// File-system syscalls.
    File {
        /// The syscall.
        req: FileReq,
        /// The requesting tile (receives the result).
        tile: TileId,
    },
    /// Snapshot the quiesced simulation to disk (see `crate::ckpt`).
    Checkpoint {
        /// Destination file.
        path: PathBuf,
        /// The requesting thread — must be the main thread (0).
        thread: ThreadId,
        /// The requesting tile (receives success or
        /// [`SimError::CkptNotQuiesced`] / [`SimError::CkptIo`]).
        tile: TileId,
    },
    /// Ends the control plane (sent once by [`crate::Simulator::run`]).
    Shutdown,
}

/// Commands from the MCP to a process's LCP.
pub enum LcpCmd {
    /// Start a guest thread on a tile owned by this process.
    Spawn {
        /// Target tile.
        tile: TileId,
        /// Thread id assigned by the MCP.
        thread: ThreadId,
        /// Entry function.
        entry: GuestEntry,
        /// Entry argument.
        arg: u64,
        /// Starting clock (the spawner's time).
        start_time: Cycles,
    },
    /// Stop accepting spawns and exit.
    Shutdown,
}

#[derive(Debug)]
enum ThreadState {
    Running,
    Exited(Cycles, u64),
}

struct ThreadRecord {
    state: ThreadState,
    /// Tiles waiting in a join of this thread.
    joiners: Vec<TileId>,
}

/// MCP-owned control state parsed from a checkpoint's `ctrl` segment,
/// stashed on [`SimInner`] by the builder for the MCP thread to consume
/// before it services its first request (see `crate::ckpt`).
pub(crate) struct CtrlRestore {
    /// Per-thread `(exit time, exit value)`; `None` means the thread was
    /// recorded as running (only thread 0 may be).
    pub(crate) threads: Vec<Option<(Cycles, u64)>>,
    /// Tiles available for future spawns.
    pub(crate) free_tiles: Vec<u32>,
    /// Heap allocator with imported free/live maps.
    pub(crate) heap: SegmentAllocator,
    /// Mmap allocator with imported free/live maps.
    pub(crate) mmap: SegmentAllocator,
    /// The virtual file system contents and descriptor table.
    pub(crate) vfs: Vfs,
}

/// A checkpoint may only capture a quiesced simulation: no guest thread
/// other than the requester (thread 0) running, no futex waiter parked, no
/// user message in flight. Returns a human-readable violation, if any.
fn quiesce_violation(
    thread: ThreadId,
    threads: &[ThreadRecord],
    futexes: &HashMap<u64, VecDeque<TileId>>,
    inner: &SimInner,
) -> Option<String> {
    if thread != ThreadId(0) {
        return Some(format!("checkpoint requested by thread {}, not the main thread", thread.0));
    }
    for (i, rec) in threads.iter().enumerate().skip(1) {
        if matches!(rec.state, ThreadState::Running) {
            return Some(format!("thread {i} is still running (join it first)"));
        }
    }
    if !futexes.is_empty() {
        return Some(format!("{} futex wait queue(s) still hold parked threads", futexes.len()));
    }
    for (t, tile) in inner.tiles.iter().enumerate() {
        let inbox = tile.inbox.lock();
        if !inbox.mailbox.is_empty() || !inbox.stash.is_empty() {
            return Some(format!("tile {t} has undelivered user messages"));
        }
    }
    None
}

/// Completes `tile`'s MCP wait: the reply goes into its cell, then the one
/// unpark for the request.
fn answer(inner: &SimInner, tile: TileId, reply: McpReply) {
    *inner.tiles[tile.index()].reply.lock() = Some(reply);
    inner.sched.unpark(tile);
}

/// The tile waiting on `req`'s reply, if it has one.
fn requester(req: &McpRequest) -> Option<TileId> {
    match *req {
        McpRequest::Spawn { tile, .. }
        | McpRequest::Join { tile, .. }
        | McpRequest::FutexWait { tile, .. }
        | McpRequest::FutexWake { tile, .. }
        | McpRequest::Malloc { tile, .. }
        | McpRequest::Free { tile, .. }
        | McpRequest::Mmap { tile, .. }
        | McpRequest::Munmap { tile, .. }
        | McpRequest::File { tile, .. }
        | McpRequest::Checkpoint { tile, .. } => Some(tile),
        McpRequest::ThreadExit { .. } | McpRequest::Shutdown => None,
    }
}

/// The MCP service loop. Runs on its own host thread; single-threaded
/// processing makes futex and thread-table updates atomic.
pub(crate) fn mcp_main(
    inner: Arc<SimInner>,
    rx: Receiver<McpRequest>,
    lcp_txs: Vec<Sender<LcpCmd>>,
) {
    let mut free_tiles: BTreeSet<u32> = (1..inner.cfg.target.num_tiles).collect();
    let mut threads: Vec<ThreadRecord> =
        vec![ThreadRecord { state: ThreadState::Running, joiners: Vec::new() }];
    let mut futexes: HashMap<u64, VecDeque<TileId>> = HashMap::new();
    let mut heap =
        SegmentAllocator::new(layout::HEAP_BASE, layout::HEAP_LIMIT.0 - layout::HEAP_BASE.0);
    let mut mmap =
        SegmentAllocator::new(layout::MMAP_BASE, layout::MMAP_LIMIT.0 - layout::MMAP_BASE.0);
    let mut vfs = Vfs::new();

    // A resumed simulation replaces the control state the MCP owns as locals
    // with the state parsed (and validated) from the checkpoint.
    if let Some(r) = inner.ckpt_restore.lock().take() {
        free_tiles = r.free_tiles.into_iter().collect();
        threads = r
            .threads
            .into_iter()
            .map(|exit| ThreadRecord {
                state: match exit {
                    None => ThreadState::Running,
                    Some((t, v)) => ThreadState::Exited(t, v),
                },
                joiners: Vec::new(),
            })
            .collect();
        heap = r.heap;
        mmap = r.mmap;
        vfs = r.vfs;
    }

    while let Ok(req) = rx.recv() {
        match req {
            McpRequest::Spawn { entry, arg, parent_time, tile: requester } => {
                let Some(tile) = free_tiles.pop_first() else {
                    answer(&inner, requester, McpReply::Spawn(Err(SimError::NoFreeTile)));
                    continue;
                };
                let thread = ThreadId(threads.len() as u32);
                threads.push(ThreadRecord { state: ThreadState::Running, joiners: Vec::new() });
                inner.ctrl_stats.spawns.incr_owned(MCP_LANE);
                inner.obs.tracer.emit(TileId(tile), parent_time, || TraceEventKind::ThreadSpawn {
                    thread: thread.0,
                });
                let proc = inner.cfg.process_of_tile(tile) as usize;
                let _ = lcp_txs[proc].send(LcpCmd::Spawn {
                    tile: TileId(tile),
                    thread,
                    entry,
                    arg,
                    start_time: parent_time,
                });
                answer(&inner, requester, McpReply::Spawn(Ok(thread)));
            }
            McpRequest::Join { thread, tile } => {
                inner.ctrl_stats.joins.incr_owned(MCP_LANE);
                match threads.get_mut(thread.index()) {
                    Some(rec) => match rec.state {
                        ThreadState::Exited(t, v) => {
                            answer(&inner, tile, McpReply::Join(Ok((t, v))))
                        }
                        ThreadState::Running => rec.joiners.push(tile),
                    },
                    // Unknown thread: reply immediately so the caller is not
                    // stranded (join of a never-spawned id).
                    None => {
                        let err = Err(SimError::UnknownThread(thread));
                        answer(&inner, tile, McpReply::Join(err));
                    }
                }
            }
            McpRequest::ThreadExit { thread, tile, time, value } => {
                inner
                    .obs
                    .tracer
                    .emit(tile, time, || TraceEventKind::ThreadExit { thread: thread.0 });
                if let Some(rec) = threads.get_mut(thread.index()) {
                    rec.state = ThreadState::Exited(time, value);
                    for j in rec.joiners.drain(..) {
                        answer(&inner, j, McpReply::Join(Ok((time, value))));
                    }
                }
                if tile.0 != 0 {
                    free_tiles.insert(tile.0);
                }
            }
            McpRequest::FutexWait { addr, expected, tile } => {
                let mut cur = [0u8; 4];
                inner.mem.peek_bytes(addr, &mut cur);
                if u32::from_le_bytes(cur) != expected {
                    answer(&inner, tile, McpReply::FutexWait(FutexWaitOutcome::ValueMismatch));
                } else {
                    inner.ctrl_stats.futex_waits.incr_owned(MCP_LANE);
                    futexes.entry(addr.0).or_default().push_back(tile);
                }
            }
            McpRequest::FutexWake { addr, max, time, tile } => {
                inner.ctrl_stats.futex_wakes.incr_owned(MCP_LANE);
                let mut woken = 0u32;
                if let Some(q) = futexes.get_mut(&addr.0) {
                    while woken < max {
                        let Some(waiter) = q.pop_front() else { break };
                        let outcome = FutexWaitOutcome::Woken { waker_time: time };
                        answer(&inner, waiter, McpReply::FutexWait(outcome));
                        woken += 1;
                    }
                    if q.is_empty() {
                        futexes.remove(&addr.0);
                    }
                }
                answer(&inner, tile, McpReply::FutexWake(woken));
            }
            McpRequest::Malloc { size, tile } => {
                inner.ctrl_stats.syscalls.incr_owned(MCP_LANE);
                answer(&inner, tile, McpReply::Alloc(heap.alloc(size)));
            }
            McpRequest::Free { addr, tile } => {
                inner.ctrl_stats.syscalls.incr_owned(MCP_LANE);
                answer(&inner, tile, McpReply::Done(heap.free(addr)));
            }
            McpRequest::Mmap { size, tile } => {
                inner.ctrl_stats.syscalls.incr_owned(MCP_LANE);
                answer(&inner, tile, McpReply::Alloc(mmap.alloc(size)));
            }
            McpRequest::Munmap { addr, tile } => {
                inner.ctrl_stats.syscalls.incr_owned(MCP_LANE);
                answer(&inner, tile, McpReply::Done(mmap.free(addr)));
            }
            McpRequest::File { req, tile } => {
                inner.ctrl_stats.syscalls.incr_owned(MCP_LANE);
                let reply = match req {
                    FileReq::Open { path } => McpReply::Int(vfs.open(&path).into()),
                    FileReq::Close { fd } => McpReply::Int(vfs.close(fd).into()),
                    FileReq::Read { fd, max } => McpReply::Data(vfs.read(fd, max)),
                    FileReq::Write { fd, data } => {
                        if fd == 1 || fd == 2 {
                            inner.stdout.lock().extend_from_slice(&data);
                            McpReply::Count(data.len())
                        } else {
                            McpReply::Count(vfs.write(fd, &data))
                        }
                    }
                    FileReq::Seek { fd, pos } => McpReply::Int(vfs.seek(fd, pos)),
                };
                answer(&inner, tile, reply);
            }
            McpRequest::Checkpoint { path, thread, tile } => {
                if let Some(why) = quiesce_violation(thread, &threads, &futexes, &inner) {
                    answer(&inner, tile, McpReply::Done(Err(SimError::CkptNotQuiesced(why))));
                    continue;
                }
                let mut ctrl = Enc::new();
                ctrl.u32(threads.len() as u32);
                for rec in &threads {
                    match rec.state {
                        ThreadState::Running => {
                            ctrl.u8(0);
                            ctrl.u64(0);
                            ctrl.u64(0);
                        }
                        ThreadState::Exited(t, v) => {
                            ctrl.u8(1);
                            ctrl.u64(t.0);
                            ctrl.u64(v);
                        }
                    }
                }
                ctrl.u32(free_tiles.len() as u32);
                for &t in &free_tiles {
                    ctrl.u32(t);
                }
                ctrl.words(&heap.export_state());
                ctrl.words(&mmap.export_state());
                vfs.save(&mut ctrl);
                let saved = crate::ckpt::write_checkpoint(&inner, ctrl.finish(), &path);
                answer(&inner, tile, McpReply::Done(saved));
            }
            McpRequest::Shutdown => break,
        }
    }
    // Cross-process telemetry collection (paper §3.5: the MCP is the single
    // simulation-wide control point): seal every tile's pending trace batch
    // so each simulated process's events — including flow spans — land in
    // the rings before the merged report drains them.
    inner.obs.tracer.flush_all();
    // Nothing may stay suspended on the MCP: complete every wait it still
    // holds — parked futex waiters see a mismatch, joiners and requests
    // queued behind the shutdown see the control plane closed — then stop
    // the LCPs. A request sent after this drain fails to send.
    for (_, q) in futexes.drain() {
        for w in q {
            answer(&inner, w, McpReply::FutexWait(FutexWaitOutcome::ValueMismatch));
        }
    }
    for rec in &mut threads {
        for j in rec.joiners.drain(..) {
            answer(&inner, j, McpReply::Closed);
        }
    }
    while let Ok(req) = rx.try_recv() {
        if let Some(tile) = requester(&req) {
            answer(&inner, tile, McpReply::Closed);
        }
    }
    for tx in &lcp_txs {
        let _ = tx.send(LcpCmd::Shutdown);
    }
}

/// The LCP service loop: starts this process's guest threads (paper §3.5:
/// "the MCP forwards the spawn request to the LCP on the machine that holds
/// the chosen tile"). Each one is submitted to the M:N scheduler as a
/// coroutine body; the scheduler's carriers run it, and `Sim` shutdown
/// joins the carriers.
pub(crate) fn lcp_main(inner: Arc<SimInner>, rx: Receiver<LcpCmd>) {
    while let Ok(LcpCmd::Spawn { tile, thread, entry, arg, start_time }) = rx.recv() {
        let inner2 = Arc::clone(&inner);
        inner
            .sched
            .submit(tile, move || guest_thread_main(inner2, tile, thread, entry, arg, start_time));
    }
}

/// Body of every spawned guest thread (a coroutine run by a carrier).
fn guest_thread_main(
    inner: Arc<SimInner>,
    tile: TileId,
    thread: ThreadId,
    entry: GuestEntry,
    arg: u64,
    start_time: Cycles,
) {
    // Thread creation is a true synchronization event: the child's clock
    // starts at the spawner's time (§3.6.1), then pays the spawn cost via
    // the spawn pseudo-instruction (§3.1). The CPI stack mirrors the reset:
    // the cycles up to `start_time` were spent waiting to exist.
    inner.clocks[tile.index()].reset_to(start_time);
    inner.cpi.reset_tile(tile, start_time);
    // A carrier resumes this coroutine for the first time on an execution
    // slot it holds: the context starts *owning* the slot, so no attach
    // here — becoming sync-active is the first act.
    inner.sync.activate(tile);
    // Even if the guest panics, the thread must exit through the MCP —
    // otherwise joiners and barrier peers deadlock and the whole simulation
    // hangs instead of reporting the failure. The context drops (handing the
    // core model home) inside the closure, on the panic path too, so the
    // exit below is only announced once the tile's core model is back.
    let mut exit_value = 0u64;
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut ctx = Ctx::new(Arc::clone(&inner), tile, thread);
        ctx.execute(Instruction::Spawn);
        entry(&mut ctx, arg);
        exit_value = ctx.take_exit_value();
    }))
    .is_err();
    let end = inner.clocks[tile.index()].now();
    // Thread exit: seal the tile's trace batch so everything it emitted is
    // orderable against later users of the tile.
    inner.obs.tracer.flush(tile);
    inner.sync.deactivate(tile);
    if panicked {
        inner.guest_panicked.store(true, std::sync::atomic::Ordering::Relaxed);
    }
    let _ =
        inner.mcp_tx.send(McpRequest::ThreadExit { thread, tile, time: end, value: exit_value });
    // Returning finishes the coroutine; its carrier keeps the execution slot
    // for the next context — on the panic path too. The panic is not
    // re-raised: it has been reported, and unwinding must stop here, above
    // the stack switch.
}

/// Per-tile inbox for the user-level messaging API: the transport mailbox
/// plus a stash for messages received while waiting for a specific sender.
#[derive(Debug)]
pub struct UserInbox {
    pub(crate) mailbox: Mailbox,
    /// Stashed messages: (sender, modeled arrival, causal flow ID, payload).
    pub(crate) stash: VecDeque<(TileId, Cycles, u64, Vec<u8>)>,
}

impl UserInbox {
    /// Wraps a registered transport mailbox.
    pub fn new(mailbox: Mailbox) -> Self {
        UserInbox { mailbox, stash: VecDeque::new() }
    }
}
