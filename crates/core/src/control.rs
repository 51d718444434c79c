//! The simulation control plane: MCP and LCP (paper §2.2, §3.4, §3.5).
//!
//! "Graphite spawns additional threads called the Master Control Program
//! (MCP) and the Local Control Program (LCP). There is one LCP per process
//! but only one MCP for the entire simulation. The MCP and LCP ensure the
//! functional correctness of the simulation by providing services for
//! synchronization, system call execution and thread management."
//!
//! The paper needs service threads because its processes run on different
//! machines. Here every simulated process shares one host address space, so
//! the MCP is its state behind one lock: `Mcp` owns the thread-to-tile
//! mapping, the futex wait queues, the dynamic memory manager for the heap
//! and mmap segments (paper §3.2.1) and the virtual file system backing the
//! consistent-OS-interface syscalls (paper §3.4: file descriptors must mean
//! the same thing in every process, so file I/O funnels through the MCP).
//! Every control request runs on the context that makes it, under that lock
//! — which is also what makes the futex emulation atomic. The LCP's one job,
//! starting a spawned thread, is a direct scheduler submit.
//!
//! Most requests are answered at once. A futex wait that blocks and a join
//! of a running thread are *deferred*: the waiter queues its tile under the
//! lock, drops the guard and parks once; its waker (a futex wake, the
//! thread's exit, shutdown) changes the tables under the lock, then — guard
//! dropped — writes each waiter's `McpReply` into its reply cell and
//! unparks it. A waiting guest is a suspended context, not a host thread.
//!
//! Two rules keep this sound: the MCP guard is never held across a suspend
//! (a context may resume on another carrier), and never while calling the
//! scheduler's `unpark` or `submit` — the lock order is MCP before
//! scheduler, never the reverse.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;

use graphite_base::{Blocker, Cycles, SimError, ThreadId, TileId};
use graphite_config::SimConfig;
use graphite_core_model::Instruction;
use graphite_memory::addr::layout;
use graphite_memory::{Addr, MemorySystem, SegmentAllocator};
use graphite_trace::{Metric, MetricsRegistry, TraceEventKind};
use graphite_transport::Mailbox;
use parking_lot::{Mutex, MutexGuard};

use crate::ctx::{Ctx, GuestEntry};
use crate::vfs::Vfs;
use crate::SimInner;

/// Counters for control-plane activity, consumed by reports and the host
/// performance model. Updated under the MCP lock.
#[derive(Debug, Default)]
pub struct ControlStats {
    /// Threads spawned.
    pub spawns: Metric,
    /// Joins completed.
    pub joins: Metric,
    /// Futex waits that actually blocked.
    pub futex_waits: Metric,
    /// Futex wake calls.
    pub futex_wakes: Metric,
    /// System calls serviced by the MCP (file I/O, memory management).
    pub syscalls: Metric,
}

impl ControlStats {
    /// Counters bound to the metrics registry under `ctrl.*`.
    pub fn registered(metrics: &MetricsRegistry) -> Self {
        ControlStats {
            spawns: metrics.counter("ctrl.spawns"),
            joins: metrics.counter("ctrl.joins"),
            futex_waits: metrics.counter("ctrl.futex_waits"),
            futex_wakes: metrics.counter("ctrl.futex_wakes"),
            syscalls: metrics.counter("ctrl.syscalls"),
        }
    }
}

/// How a deferred MCP wait ended, written into the waiter's reply cell by
/// its waker just before the wait's one unpark.
#[derive(Debug)]
pub(crate) enum McpReply {
    /// A futex wake, at the waker's simulated time.
    Woken(Cycles),
    /// The joined thread exited: its exit time and exit value.
    Exited(Cycles, u64),
    /// Shutdown closed the control plane first.
    Closed,
}

/// One guest thread's entry in the MCP's thread table.
#[derive(Debug, Default)]
pub(crate) struct ThreadRecord {
    /// `(exit time, exit value)` once the thread has exited; `None` while it
    /// runs.
    pub(crate) exit: Option<(Cycles, u64)>,
    /// Tiles waiting in a join of this thread.
    pub(crate) joiners: Vec<TileId>,
}

/// The MCP's state, behind [`SimInner::mcp`]'s lock, with one method per
/// request. A resumed simulation starts from the state `ckpt::parse_ctrl`
/// decodes; `ckpt::encode_ctrl` writes it back out.
#[derive(Debug)]
pub(crate) struct Mcp {
    /// Tiles available for spawns (tile 0 belongs to the main thread).
    pub(crate) free_tiles: BTreeSet<u32>,
    /// Every thread ever spawned, by id; thread 0 is the main thread.
    pub(crate) threads: Vec<ThreadRecord>,
    /// Futex wait queues by word address.
    pub(crate) futexes: HashMap<u64, VecDeque<TileId>>,
    pub(crate) heap: SegmentAllocator,
    pub(crate) mmap: SegmentAllocator,
    pub(crate) vfs: Vfs,
    /// Set by shutdown: every later request gets
    /// [`SimError::TransportClosed`].
    closed: bool,
    stats: ControlStats,
}

impl Mcp {
    /// A fresh control plane: only the main thread, every other tile free,
    /// empty allocators and file system.
    pub(crate) fn new(cfg: &SimConfig, stats: ControlStats) -> Self {
        Mcp {
            free_tiles: (1..cfg.target.num_tiles).collect(),
            threads: vec![ThreadRecord::default()],
            futexes: HashMap::new(),
            heap: SegmentAllocator::new(
                layout::HEAP_BASE,
                layout::HEAP_LIMIT.0 - layout::HEAP_BASE.0,
            ),
            mmap: SegmentAllocator::new(
                layout::MMAP_BASE,
                layout::MMAP_LIMIT.0 - layout::MMAP_BASE.0,
            ),
            vfs: Vfs::new(),
            closed: false,
            stats,
        }
    }

    /// Claims a free tile and a thread id for a spawn.
    fn spawn(&mut self) -> Result<(TileId, ThreadId), SimError> {
        let tile = self.free_tiles.pop_first().ok_or(SimError::NoFreeTile)?;
        let thread = ThreadId(self.threads.len() as u32);
        self.threads.push(ThreadRecord::default());
        self.stats.spawns.incr();
        Ok((TileId(tile), thread))
    }

    /// A join of `thread` from `tile`: its `(exit time, exit value)` if it
    /// has exited, [`SimError::UnknownThread`] for a never-spawned id, or
    /// `None` once `tile` is queued until the exit.
    pub(crate) fn join(
        &mut self,
        thread: ThreadId,
        tile: TileId,
    ) -> Option<Result<(Cycles, u64), SimError>> {
        self.stats.joins.incr();
        let Some(rec) = self.threads.get_mut(thread.index()) else {
            return Some(Err(SimError::UnknownThread(thread)));
        };
        if rec.exit.is_none() {
            rec.joiners.push(tile);
        }
        rec.exit.map(Ok)
    }

    /// Records `thread`'s exit and frees its tile; returns the joiners to
    /// complete.
    fn thread_exit(
        &mut self,
        thread: ThreadId,
        tile: TileId,
        time: Cycles,
        value: u64,
    ) -> Vec<TileId> {
        if tile.0 != 0 {
            self.free_tiles.insert(tile.0);
        }
        self.threads.get_mut(thread.index()).map_or_else(Vec::new, |rec| {
            rec.exit = Some((time, value));
            std::mem::take(&mut rec.joiners)
        })
    }

    /// Emulated `futex(FUTEX_WAIT)` (paper §3.4): queues `tile` on `addr`
    /// and returns `true` if the word still holds `expected`; a mismatch
    /// returns `false` at once. The word is read under the lock, so a wake
    /// that follows the store it waits for cannot slip in between.
    pub(crate) fn futex_wait(
        &mut self,
        mem: &MemorySystem,
        addr: Addr,
        expected: u32,
        tile: TileId,
    ) -> bool {
        let mut cur = [0u8; 4];
        mem.peek_bytes(addr, &mut cur);
        if u32::from_le_bytes(cur) != expected {
            return false;
        }
        self.stats.futex_waits.incr();
        self.futexes.entry(addr.0).or_default().push_back(tile);
        true
    }

    /// Emulated `futex(FUTEX_WAKE)`: dequeues up to `max` waiters on
    /// `addr`, for the caller to complete.
    pub(crate) fn futex_wake(&mut self, addr: Addr, max: u32) -> Vec<TileId> {
        self.stats.futex_wakes.incr();
        let Some(q) = self.futexes.get_mut(&addr.0) else {
            return Vec::new();
        };
        let woken: Vec<TileId> = q.drain(..q.len().min(max as usize)).collect();
        if q.is_empty() {
            self.futexes.remove(&addr.0);
        }
        woken
    }

    /// Heap allocation (intercepted `brk`-style allocation, §3.2.1).
    pub(crate) fn malloc(&mut self, size: u64) -> Result<Addr, SimError> {
        self.stats.syscalls.incr();
        self.heap.alloc(size)
    }

    /// Frees a heap allocation.
    pub(crate) fn free(&mut self, addr: Addr) -> Result<(), SimError> {
        self.stats.syscalls.incr();
        self.heap.free(addr)
    }

    /// Allocation from the mmap segment (intercepted `mmap`).
    pub(crate) fn mmap(&mut self, size: u64) -> Result<Addr, SimError> {
        self.stats.syscalls.incr();
        self.mmap.alloc(size)
    }

    /// Releases an mmap region (intercepted `munmap`).
    pub(crate) fn munmap(&mut self, addr: Addr) -> Result<(), SimError> {
        self.stats.syscalls.incr();
        self.mmap.free(addr)
    }

    /// Opens (creating if needed) a VFS file; the descriptor, or −1.
    pub(crate) fn open(&mut self, path: &str) -> i32 {
        self.stats.syscalls.incr();
        self.vfs.open(path)
    }

    /// Closes a descriptor; 0 on success, −1 otherwise.
    pub(crate) fn close(&mut self, fd: i32) -> i32 {
        self.stats.syscalls.incr();
        self.vfs.close(fd)
    }

    /// Reads up to `max` bytes at the descriptor's offset.
    pub(crate) fn read(&mut self, fd: i32, max: usize) -> Vec<u8> {
        self.stats.syscalls.incr();
        self.vfs.read(fd, max)
    }

    /// Writes `data` at the descriptor's offset — fds 1 and 2 append to the
    /// captured guest `stdout` — and returns the bytes written.
    pub(crate) fn write(&mut self, stdout: &Mutex<Vec<u8>>, fd: i32, data: &[u8]) -> usize {
        self.stats.syscalls.incr();
        if fd == 1 || fd == 2 {
            stdout.lock().extend_from_slice(data);
            data.len()
        } else {
            self.vfs.write(fd, data)
        }
    }

    /// Repositions a descriptor; the new offset, or −1.
    pub(crate) fn seek(&mut self, fd: i32, pos: u64) -> i64 {
        self.stats.syscalls.incr();
        self.vfs.seek(fd, pos)
    }

    /// Snapshots the quiesced simulation to `path` for `thread` (see
    /// `crate::ckpt`). A checkpoint may only capture a quiesced simulation:
    /// no guest thread other than the requester (thread 0) running, no
    /// futex waiter parked, no user message in flight.
    ///
    /// # Errors
    ///
    /// [`SimError::CkptNotQuiesced`] naming the violation, or
    /// [`SimError::CkptIo`] when the file cannot be written.
    pub(crate) fn checkpoint(
        &self,
        inner: &SimInner,
        thread: ThreadId,
        path: &Path,
    ) -> Result<(), SimError> {
        if let Some(why) = self.quiesce_violation(thread, inner) {
            return Err(SimError::CkptNotQuiesced(why));
        }
        crate::ckpt::write_checkpoint(inner, crate::ckpt::encode_ctrl(self), path)
    }

    /// The first quiesce rule a checkpoint by `thread` would break, if any.
    fn quiesce_violation(&self, thread: ThreadId, inner: &SimInner) -> Option<String> {
        if thread != ThreadId(0) {
            return Some(format!(
                "checkpoint requested by thread {}, not the main thread",
                thread.0
            ));
        }
        for (i, rec) in self.threads.iter().enumerate().skip(1) {
            if rec.exit.is_none() {
                return Some(format!("thread {i} is still running (join it first)"));
            }
        }
        if !self.futexes.is_empty() {
            let n = self.futexes.len();
            return Some(format!("{n} futex wait queue(s) still hold parked threads"));
        }
        for (t, tile) in inner.tiles.iter().enumerate() {
            let inbox = tile.inbox.lock();
            if !inbox.mailbox.is_empty() || !inbox.stash.is_empty() {
                return Some(format!("tile {t} has undelivered user messages"));
            }
        }
        None
    }

    /// Closes the control plane and returns every tile still waiting on it
    /// (futex waiters and joiners), or `None` if it was already closed.
    fn shutdown(&mut self) -> Option<Vec<TileId>> {
        if std::mem::replace(&mut self.closed, true) {
            return None;
        }
        let futex_waiters = self.futexes.drain().flat_map(|(_, q)| q);
        let joiners = self.threads.iter_mut().flat_map(|rec| std::mem::take(&mut rec.joiners));
        Some(futex_waiters.chain(joiners).collect())
    }
}

impl SimInner {
    /// Locks the MCP for one request.
    ///
    /// # Errors
    ///
    /// [`SimError::TransportClosed`] once shutdown has closed the control
    /// plane.
    pub(crate) fn mcp(&self) -> Result<MutexGuard<'_, Mcp>, SimError> {
        let mcp = self.mcp.lock();
        if mcp.closed {
            return Err(SimError::TransportClosed("mcp".into()));
        }
        Ok(mcp)
    }

    /// Completes `tile`'s deferred MCP wait: the reply goes into its cell,
    /// then the wait's one unpark. Never called under the MCP guard.
    pub(crate) fn complete_wait(&self, tile: TileId, reply: McpReply) {
        *self.tiles[tile.index()].reply.lock() = Some(reply);
        self.sched.unpark(tile);
    }

    /// Spawns a guest thread on a free tile (paper §3.5: "the spawn calls
    /// are forwarded to the MCP to ensure a consistent view of the
    /// thread-to-tile mapping") and starts it: its body is submitted to the
    /// M:N scheduler as a coroutine, with the guard dropped — the LCP's job
    /// in the paper. The scheduler's carriers run it, and `Sim` shutdown
    /// joins the carriers.
    ///
    /// # Errors
    ///
    /// [`SimError::NoFreeTile`] when every tile runs a thread, or
    /// [`SimError::TransportClosed`] after shutdown.
    pub(crate) fn spawn(
        self: &Arc<Self>,
        entry: GuestEntry,
        arg: u64,
        parent_time: Cycles,
    ) -> Result<ThreadId, SimError> {
        let (tile, thread) = {
            let mut mcp = self.mcp()?;
            let (tile, thread) = mcp.spawn()?;
            self.obs
                .tracer
                .emit(tile, parent_time, || TraceEventKind::ThreadSpawn { thread: thread.0 });
            (tile, thread)
        };
        // Thread creation is a true synchronization event: the child's clock
        // starts at the spawner's time (§3.6.1). The CPI stack mirrors the
        // reset: the cycles up to it were spent waiting to exist. The child
        // counts toward the quantum from here, not from its first resume,
        // so a spawner cannot run through quanta alone while its children
        // wait for a carrier.
        self.clocks[tile.index()].reset_to(parent_time);
        self.cpi.reset_tile(tile, parent_time);
        self.sync.activate(tile);
        let inner = Arc::clone(self);
        self.sched.submit(tile, move || guest_thread_main(inner, tile, thread, entry, arg));
        Ok(thread)
    }

    /// A guest thread finished: its tile goes back to the pool and its
    /// joiners are released at its exit time. The last thing a context
    /// does, after its core model has gone home. After shutdown nothing is
    /// recorded.
    pub(crate) fn thread_exit(&self, thread: ThreadId, tile: TileId, time: Cycles, value: u64) {
        let joiners = {
            let Ok(mut mcp) = self.mcp() else {
                return;
            };
            self.obs.tracer.emit(tile, time, || TraceEventKind::ThreadExit { thread: thread.0 });
            mcp.thread_exit(thread, tile, time, value)
        };
        for j in joiners {
            self.complete_wait(j, McpReply::Exited(time, value));
        }
    }

    /// Shuts the control plane down: later requests fail at once, and
    /// nothing stays suspended on it — parked futex waiters see a mismatch,
    /// joiners see the control plane closed. Also seals every tile's
    /// pending trace batch (paper §3.5: the MCP is the single
    /// simulation-wide control point), so each simulated process's events —
    /// flow spans included — land in the rings before the merged report
    /// drains them. A second call does nothing.
    pub(crate) fn close_control(&self) {
        let Some(waiters) = self.mcp.lock().shutdown() else {
            return;
        };
        self.obs.tracer.flush_all();
        for w in waiters {
            self.complete_wait(w, McpReply::Closed);
        }
    }
}

/// Body of every spawned guest thread (a coroutine run by a carrier).
fn guest_thread_main(
    inner: Arc<SimInner>,
    tile: TileId,
    thread: ThreadId,
    entry: GuestEntry,
    arg: u64,
) {
    // A carrier resumes this coroutine for the first time on an execution
    // slot it holds: the context starts *owning* the slot, so no attach
    // here. Its first act is to pay the spawn cost via the spawn
    // pseudo-instruction (§3.1).
    //
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
    inner.thread_exit(thread, tile, end, exit_value);
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
