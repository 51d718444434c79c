//! The guest execution context — this reproduction's front end (paper §2).
//!
//! In the original Graphite, Pin rewrites an unmodified x86 binary so that
//! memory references, system calls, synchronization routines and user-level
//! messages trap into the simulator back end, while an instruction stream
//! feeds the core model. Here the workload is a Rust function handed a
//! [`Ctx`]; every `Ctx` method produces exactly the event the DBT would have
//! produced:
//!
//! | Pin would intercept…      | `Ctx` equivalent                          |
//! |---------------------------|-------------------------------------------|
//! | memory reference          | [`Ctx::load`], [`Ctx::store`], …          |
//! | instruction stream        | [`Ctx::execute`], [`Ctx::alu`], …         |
//! | `pthread_create`/`join`   | [`Ctx::spawn`], [`GuestHandle::join`]     |
//! | `futex` syscall           | [`Ctx::futex_wait`], [`Ctx::futex_wake`]  |
//! | `brk`/`mmap`/`munmap`     | [`Ctx::malloc`], [`Ctx::mmap`], …         |
//! | file-I/O syscalls         | [`Ctx::sys_open`], [`Ctx::sys_read`], …   |
//! | messaging API             | [`Ctx::send_msg`], [`Ctx::recv_msg`]      |
//!
//! Typed guest memory access goes through the generic [`Ctx::load`] /
//! [`Ctx::store`] pair, parameterized over the sealed [`GuestValue`] trait
//! (the plain-old-data types `u8`, `u16`, `u32`, `u64`, `i64`, `f32`, `f64`
//! with a fixed little-endian guest representation).
//!
//! MCP requests (spawn, join, futex, memory and file syscalls) run on the
//! calling context under the MCP lock and mostly return at once. Every
//! operation that waits — a futex wait that blocks, a join of a running
//! thread, a message receive — parks the context in the M:N guest
//! scheduler ([`crate::GuestScheduler`]) until the one party that completes
//! the wait unparks it: the futex wake, the thread's exit or the mailbox
//! delivery. A waiting context is a run-queue entry, not a blocked host
//! thread.
//!
//! ## Panics versus errors
//!
//! `Ctx` methods follow one contract, documented here once:
//!
//! * **Conditions the guest program can meaningfully react to return
//!   `Result<_, SimError>`**: resource exhaustion and I/O — allocation
//!   ([`Ctx::malloc`], [`Ctx::mmap`], and their release counterparts),
//!   thread spawning ([`Ctx::spawn`], which fails with
//!   [`SimError::NoFreeTile`]), file I/O ([`Ctx::sys_open`],
//!   [`Ctx::sys_read`], [`Ctx::sys_write`], [`Ctx::sys_seek`],
//!   [`Ctx::sys_close`]) and user-level messaging ([`Ctx::send_msg`],
//!   [`Ctx::recv_msg`], [`Ctx::recv_msg_from`]). A torn-down control plane
//!   surfaces as [`SimError::TransportClosed`]; an emulation failure (bad
//!   descriptor, invalid free) as [`SimError::Syscall`].
//! * **Guest bugs panic**, exactly as the corresponding native program would
//!   crash: a memory reference outside every mapped segment is an address
//!   fault (the memory system panics with the faulting address and tile),
//!   mirroring a segfault under the real Pin front end. The panic is caught
//!   at the guest-thread boundary and re-surfaced by the simulation driver,
//!   so a buggy guest fails the run instead of hanging it.
//! * **Pure model bookkeeping never fails**: [`Ctx::execute`], [`Ctx::alu`],
//!   clock reads and [`Ctx::forward_time`] have no failure mode. Best-effort
//!   conveniences ([`Ctx::print`]) swallow late-shutdown errors.

use std::path::PathBuf;
use std::sync::Arc;

use graphite_base::{Cycles, SimError, ThreadId, TileId};
use graphite_ckpt::stream;
use graphite_core_model::{CoreModel, CostClass, Instruction};
use graphite_memory::{Addr, MemCost};
use graphite_network::{Packet, TrafficClass};
use graphite_prof::CpiClass;
use graphite_trace::TraceEventKind;
use graphite_transport::Msg;

use crate::control::McpReply;
use crate::{SimInner, FUTEX_WAKE_LATENCY, SYSCALL_COST};

/// A guest thread's entry point: receives its context and a `u64` argument
/// (by convention a simulated-memory address), mirroring
/// `pthread_create(..., void *arg)`.
pub type GuestEntry = Arc<dyn Fn(&mut Ctx, u64) + Send + Sync + 'static>;

mod sealed {
    /// Seals [`super::GuestValue`]: the set of guest-representable types is
    /// part of the simulator ABI and cannot be extended downstream.
    pub trait Sealed {}
}

/// A plain-old-data value with a fixed little-endian representation in the
/// simulated address space. Implemented for `u8`, `u16`, `u32`, `u64`,
/// `i64`, `f32` and `f64`; sealed so the guest ABI stays closed.
///
/// Used by the generic [`Ctx::load`] / [`Ctx::store`] accessors:
///
/// ```ignore
/// let x: u32 = ctx.load(addr);
/// ctx.store(addr, 3.5f64);
/// ```
pub trait GuestValue: sealed::Sealed + Copy + Send + Sync + 'static {
    /// Size of the value in guest memory, in bytes.
    const SIZE: usize;
    /// Encodes into little-endian guest bytes; `buf.len()` must be `SIZE`.
    fn write_le(self, buf: &mut [u8]);
    /// Decodes from little-endian guest bytes; `buf.len()` must be `SIZE`.
    fn read_le(buf: &[u8]) -> Self;
}

macro_rules! guest_value {
    ($($t:ty),* $(,)?) => {$(
        impl sealed::Sealed for $t {}
        impl GuestValue for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn write_le(self, buf: &mut [u8]) {
                buf.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(buf: &[u8]) -> Self {
                <$t>::from_le_bytes(buf.try_into().expect("GuestValue::SIZE bytes"))
            }
        }
    )*};
}

guest_value!(u8, u16, u32, u64, i64, f32, f64);

/// A handle to a spawned guest thread, returned by [`Ctx::spawn`] — the
/// analogue of a `pthread_t`. Joining consumes the handle, so a thread
/// cannot be joined twice.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use graphite::{GuestEntry, Sim, SimConfig};
///
/// let cfg = SimConfig::builder().tiles(2).build().unwrap();
/// Sim::builder(cfg).build().unwrap().run(|ctx| {
///     let entry: GuestEntry = Arc::new(|ctx, arg| {
///         ctx.alu(100);
///         ctx.set_exit_value(arg * 2); // pthread_exit-style return value
///     });
///     let child = ctx.spawn(entry, 21).unwrap();
///     assert_eq!(child.join(ctx).unwrap(), 42);
/// });
/// ```
#[derive(Debug)]
#[must_use = "a spawned guest thread must be joined"]
pub struct GuestHandle {
    thread: ThreadId,
}

impl GuestHandle {
    /// The spawned thread's id.
    pub fn thread_id(&self) -> ThreadId {
        self.thread
    }

    /// Blocks until the thread exits, forwards the joiner's clock to the
    /// exit time (thread join is a true synchronization event, §3.6.1) and
    /// returns the value the thread set with [`Ctx::set_exit_value`]
    /// (0 if it never did). The wait yields the joiner's execution slot.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownThread`] if the control plane has no
    /// record of the thread, or [`SimError::TransportClosed`] if the
    /// simulation shut down first.
    pub fn join(self, ctx: &mut Ctx) -> Result<u64, SimError> {
        ctx.join_thread(self.thread)
    }
}

/// The execution context of one guest thread, bound to one target tile for
/// the thread's lifetime (paper §3.5: threads are long-living).
///
/// A context owns its tile's core model while it runs (paper §3.1: the core
/// model belongs to the one thread running the tile): it takes the model from
/// the tile when created and puts it back when dropped — on the panic path
/// too — and around [`Ctx::checkpoint`], so issuing an instruction takes no
/// lock.
pub struct Ctx {
    sim: Arc<SimInner>,
    tile: TileId,
    thread: ThreadId,
    /// The pthread-style exit value handed to the joiner.
    exit_value: u64,
    /// This tile's core model; `None` only while handed back for a
    /// checkpoint.
    core: Option<Box<dyn CoreModel>>,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("tile", &self.tile).field("thread", &self.thread).finish()
    }
}

/// Puts the core model back in its tile, so joiners, checkpoints and the
/// report find it there.
impl Drop for Ctx {
    fn drop(&mut self) {
        self.put_core_home();
    }
}

impl Ctx {
    /// Binds a context to `tile`, taking the tile's core model.
    ///
    /// # Panics
    ///
    /// Panics if another context still holds the tile's core model.
    pub(crate) fn new(sim: Arc<SimInner>, tile: TileId, thread: ThreadId) -> Self {
        let mut ctx = Ctx { sim, tile, thread, exit_value: 0, core: None };
        ctx.take_core_home();
        ctx
    }

    fn take_core_home(&mut self) {
        let core = self.sim.tiles[self.tile.index()].core.lock().take();
        assert!(core.is_some(), "{}'s core model is held by another context", self.tile);
        self.core = core;
    }

    fn put_core_home(&mut self) {
        if let Some(core) = self.core.take() {
            *self.sim.tiles[self.tile.index()].core.lock() = Some(core);
        }
    }

    /// Sets this thread's exit value, returned to the joiner by
    /// [`GuestHandle::join`] — the analogue of `pthread_exit(value)`. The
    /// last value set before the entry function returns wins; threads that
    /// never call it exit with 0.
    pub fn set_exit_value(&mut self, value: u64) {
        self.exit_value = value;
    }

    /// The exit value recorded so far (consumed at thread exit).
    pub(crate) fn take_exit_value(&self) -> u64 {
        self.exit_value
    }

    /// The tile this thread runs on.
    pub fn tile(&self) -> TileId {
        self.tile
    }

    /// This thread's id (0 is the main thread).
    pub fn thread_id(&self) -> ThreadId {
        self.thread
    }

    /// Number of target tiles in the simulation.
    pub fn num_tiles(&self) -> u32 {
        self.sim.cfg.target.num_tiles
    }

    /// The tile's local simulated time.
    pub fn now(&self) -> Cycles {
        self.sim.clocks[self.tile.index()].now()
    }

    /// Forwards this tile's clock to `t` if `t` is in the future — the
    /// paper's synchronization-event rule (§3.6.1). Used by guest
    /// synchronization primitives to propagate a releaser's timestamp to
    /// participants that did not block in the futex.
    pub fn forward_time(&mut self, t: Cycles) {
        self.forward_charged(t, CpiClass::SyncWait);
        self.sim.sync.on_progress(self.tile);
    }

    /// Forwards this tile's clock to `t` and charges the cycles skipped to
    /// `class` — the attribution twin of every `forward_to` site, keeping
    /// the CPI stack summing to the clock.
    fn forward_charged(&mut self, t: Cycles, class: CpiClass) {
        let clock = &self.sim.clocks[self.tile.index()];
        let before = clock.now();
        let after = clock.forward_to(t);
        self.sim.cpi.add(self.tile, class, after.saturating_sub(before));
    }

    /// Emits a trace event stamped with this tile's current time. Compiles
    /// to a single branch when tracing is disabled.
    #[inline]
    fn trace(&self, build: impl FnOnce() -> TraceEventKind) {
        let tracer = &self.sim.obs.tracer;
        if tracer.is_enabled() {
            tracer.emit(self.tile, self.sim.clocks[self.tile.index()].now(), build);
        }
    }

    // ---- instruction stream -------------------------------------------

    /// Feeds one instruction (or batch) to this tile's core model and
    /// advances the local clock by its cost. The cycles are attributed to
    /// the instruction's static [`CostClass`]; memory operations issued
    /// through [`Ctx::load`]/[`Ctx::store`] get the finer hit/remote/network
    /// split from the memory system instead.
    pub fn execute(&mut self, instr: Instruction) {
        let class = match instr.cost_class() {
            CostClass::Compute => CpiClass::Compute,
            CostClass::Memory => CpiClass::MemL1,
            CostClass::Network => CpiClass::Network,
            CostClass::Control => CpiClass::SpawnCtrl,
        };
        self.execute_as(instr, class);
    }

    /// Feeds `instr` to the tile's core model and advances the clock by the
    /// cost. The context owns both, so this is lock-free and RMW-free.
    #[inline]
    fn issue(&mut self, instr: &Instruction) -> Cycles {
        let clock = &self.sim.clocks[self.tile.index()];
        let core = self.core.as_mut().expect("a running context holds its core model");
        let cost = core.issue(clock.now(), instr);
        clock.advance(cost);
        cost
    }

    /// Issues `instr` and charges its whole cost to one CPI class.
    fn execute_as(&mut self, instr: Instruction, class: CpiClass) {
        let cost = self.issue(&instr);
        self.sim.cpi.add(self.tile, class, cost);
        self.sim.sync.on_progress(self.tile);
    }

    /// Issues a memory instruction and splits its cost by the memory
    /// system's latency classification: hits are local L1/L2 time; misses
    /// split into interconnect legs (network) and directory/remote/DRAM time
    /// (remote memory). The split is applied proportionally-by-cap to the
    /// cycles the core model actually charged (a store's cost is its
    /// store-buffer stall, not the raw latency).
    fn execute_mem(&mut self, instr: Instruction, mem: MemCost) {
        let cost = self.issue(&instr);
        let cpi = &self.sim.cpi;
        if mem.hit {
            cpi.add(self.tile, CpiClass::MemL1, cost);
        } else {
            let net = mem.network.min(cost);
            cpi.add(self.tile, CpiClass::Network, net);
            cpi.add(self.tile, CpiClass::MemRemote, cost.saturating_sub(net));
        }
        self.sim.sync.on_progress(self.tile);
    }

    /// Convenience: `n` integer ALU instructions.
    pub fn alu(&mut self, n: u32) {
        self.execute(Instruction::IntAlu { count: n });
    }

    /// Convenience: `n` floating-point multiply instructions.
    pub fn fp(&mut self, n: u32) {
        self.execute(Instruction::FpMul { count: n });
    }

    /// Convenience: a conditional branch with its outcome.
    pub fn branch(&mut self, pc: u64, taken: bool) {
        self.execute(Instruction::Branch { pc, taken });
    }

    // ---- memory references --------------------------------------------

    /// Reads raw bytes from the simulated address space (modeled).
    pub fn read_bytes(&mut self, addr: Addr, buf: &mut [u8]) {
        let now = self.now();
        let cost = self.sim.mem.read_classified(self.tile, now, addr, buf);
        self.execute_mem(Instruction::Load { latency: cost.latency }, cost);
    }

    /// Writes raw bytes to the simulated address space (modeled).
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) {
        let now = self.now();
        let cost = self.sim.mem.write_classified(self.tile, now, addr, bytes);
        self.execute_mem(Instruction::Store { latency: cost.latency }, cost);
    }

    /// Loads a typed value from the simulated address space (modeled).
    ///
    /// `T` is any [`GuestValue`] — a sealed set of plain-old-data types with
    /// a fixed little-endian guest representation.
    pub fn load<T: GuestValue>(&mut self, addr: Addr) -> T {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b[..T::SIZE]);
        T::read_le(&b[..T::SIZE])
    }

    /// Stores a typed value to the simulated address space (modeled).
    pub fn store<T: GuestValue>(&mut self, addr: Addr, v: T) {
        let mut b = [0u8; 8];
        v.write_le(&mut b[..T::SIZE]);
        self.write_bytes(addr, &b[..T::SIZE]);
    }

    /// Atomic read-modify-write of a `u32` (a locked instruction); returns
    /// the previous value.
    pub fn fetch_update_u32<F: FnMut(u32) -> u32>(&mut self, addr: Addr, f: F) -> u32 {
        let now = self.now();
        let (old, cost) = self.sim.mem.fetch_update_u32(self.tile, now, addr, f);
        self.execute_mem(Instruction::Generic { cost: cost.latency.max(Cycles(1)) }, cost);
        old
    }

    /// Atomic read-modify-write of a `u64`; returns the previous value.
    pub fn fetch_update_u64<F: FnMut(u64) -> u64>(&mut self, addr: Addr, f: F) -> u64 {
        let now = self.now();
        let (old, cost) = self.sim.mem.fetch_update_u64(self.tile, now, addr, f);
        self.execute_mem(Instruction::Generic { cost: cost.latency.max(Cycles(1)) }, cost);
        old
    }

    /// Functional (unmodeled) read of simulated memory — a debugger-style
    /// peek that charges no simulated time and perturbs no model state.
    /// Useful for out-of-band verification of results.
    pub fn peek_bytes(&self, addr: Addr, buf: &mut [u8]) {
        self.sim.mem.peek_bytes(addr, buf);
    }

    /// Functional (unmodeled) peek of an `f64`.
    pub fn peek_f64(&self, addr: Addr) -> f64 {
        let mut b = [0u8; 8];
        self.peek_bytes(addr, &mut b);
        f64::from_bits(u64::from_le_bytes(b))
    }

    /// Functional (unmodeled) write of simulated memory, kept coherent with
    /// every cached copy.
    pub fn poke_bytes(&self, addr: Addr, bytes: &[u8]) {
        self.sim.mem.poke_bytes(addr, bytes);
    }

    /// Models an instruction fetch at `pc` through the L1I.
    pub fn ifetch(&mut self, pc: Addr) {
        let now = self.now();
        let lat = self.sim.mem.ifetch(self.tile, now, pc);
        // I-fetches never leave the chip in this model (misses fill from
        // L2), so the whole cost is local-memory time.
        self.execute_as(Instruction::Generic { cost: lat }, CpiClass::MemL1);
    }

    // ---- dynamic memory (intercepted brk/mmap, §3.2.1) ------------------

    /// Allocates simulated heap memory via the MCP.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Syscall`] when the heap is exhausted.
    pub fn malloc(&mut self, size: u64) -> Result<Addr, SimError> {
        self.execute_as(Instruction::Generic { cost: SYSCALL_COST }, CpiClass::SpawnCtrl);
        self.trace(|| TraceEventKind::Syscall { name: "malloc" });
        self.sim.mcp()?.malloc(size)
    }

    /// Frees simulated heap memory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Syscall`] for invalid frees.
    pub fn free(&mut self, addr: Addr) -> Result<(), SimError> {
        self.execute_as(Instruction::Generic { cost: SYSCALL_COST }, CpiClass::SpawnCtrl);
        self.trace(|| TraceEventKind::Syscall { name: "free" });
        self.sim.mcp()?.free(addr)
    }

    /// Allocates from the mmap segment.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Syscall`] when the segment is exhausted.
    pub fn mmap(&mut self, size: u64) -> Result<Addr, SimError> {
        self.execute_as(Instruction::Generic { cost: SYSCALL_COST }, CpiClass::SpawnCtrl);
        self.trace(|| TraceEventKind::Syscall { name: "mmap" });
        self.sim.mcp()?.mmap(size)
    }

    /// Releases an mmap region.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Syscall`] for invalid regions.
    pub fn munmap(&mut self, addr: Addr) -> Result<(), SimError> {
        self.execute_as(Instruction::Generic { cost: SYSCALL_COST }, CpiClass::SpawnCtrl);
        self.trace(|| TraceEventKind::Syscall { name: "munmap" });
        self.sim.mcp()?.munmap(addr)
    }

    // ---- threading (intercepted pthread spawn/join, §3.5) ---------------

    /// Spawns a guest thread on a free tile chosen by the MCP and returns a
    /// [`GuestHandle`] for joining it (see the handle's docs for a full
    /// example).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoFreeTile`] when every tile already runs a
    /// thread (the paper's limit: threads ≤ tiles).
    pub fn spawn(&mut self, entry: GuestEntry, arg: u64) -> Result<GuestHandle, SimError> {
        self.execute_as(Instruction::Generic { cost: SYSCALL_COST }, CpiClass::SpawnCtrl);
        Ok(GuestHandle { thread: self.sim.spawn(entry, arg, self.now())? })
    }

    /// Blocks until `thread` exits, then forwards this tile's clock to the
    /// exit time (thread join is a true synchronization event, §3.6.1).
    fn join_thread(&mut self, thread: ThreadId) -> Result<u64, SimError> {
        self.execute_as(Instruction::Generic { cost: SYSCALL_COST }, CpiClass::SpawnCtrl);
        // About to block: seal this tile's pending trace batch so its events
        // stay orderable against the joined thread's.
        self.sim.obs.tracer.flush(self.tile);
        let joined = self.sim.mcp()?.join(thread, self.tile);
        let (exit_time, value) = match joined {
            Some(done) => done?,
            None => match self.await_reply() {
                McpReply::Exited(time, value) => (time, value),
                _ => return Err(SimError::TransportClosed("mcp".into())),
            },
        };
        self.forward_charged(exit_time, CpiClass::SyncWait);
        self.execute_as(Instruction::Generic { cost: Cycles(1) }, CpiClass::SpawnCtrl);
        Ok(value)
    }

    // ---- futex emulation (intercepted futex syscall, §3.4) --------------

    /// Emulated `futex(FUTEX_WAIT)`: blocks while the word at `addr` equals
    /// `expected`. On wake, the clock forwards to the waker's time.
    pub fn futex_wait(&mut self, addr: Addr, expected: u32) {
        self.execute_as(Instruction::Generic { cost: SYSCALL_COST }, CpiClass::SpawnCtrl);
        self.trace(|| TraceEventKind::FutexWait { addr: addr.0 });
        // Seal the pending trace batch before parking this thread.
        self.sim.obs.tracer.flush(self.tile);
        let blocked = self
            .sim
            .mcp()
            .is_ok_and(|mut mcp| mcp.futex_wait(&self.sim.mem, addr, expected, self.tile));
        // Shutdown ends a blocked wait like a value mismatch: no forwarding.
        if let Some(McpReply::Woken(waker_time)) = blocked.then(|| self.await_reply()) {
            self.forward_charged(waker_time + FUTEX_WAKE_LATENCY, CpiClass::SyncWait);
            self.execute_as(Instruction::Generic { cost: Cycles(1) }, CpiClass::SpawnCtrl);
        }
    }

    /// Emulated `futex(FUTEX_WAKE)`: wakes up to `max` waiters; returns the
    /// number woken.
    pub fn futex_wake(&mut self, addr: Addr, max: u32) -> u32 {
        self.execute_as(Instruction::Generic { cost: SYSCALL_COST }, CpiClass::SpawnCtrl);
        let waiters =
            self.sim.mcp().map_or_else(|_| Vec::new(), |mut mcp| mcp.futex_wake(addr, max));
        let now = self.now();
        for &w in &waiters {
            self.sim.complete_wait(w, McpReply::Woken(now));
        }
        let woken = waiters.len() as u32;
        self.trace(|| TraceEventKind::FutexWake { addr: addr.0, woken: woken.into() });
        woken
    }

    // ---- user-level messaging API (§3.3) --------------------------------

    /// Sends an application message to another tile through the user network
    /// model and the transport layer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TransportClosed`] if the transport backing the
    /// destination tile has shut down.
    pub fn send_msg(&mut self, to: TileId, payload: &[u8]) -> Result<(), SimError> {
        let now = self.now();
        // Mint a causal flow ID so the message's network leg and its eventual
        // receive can be stitched back together by the flow analyzer.
        let tracer = &self.sim.obs.tracer;
        let flow = if tracer.flows_enabled() { tracer.next_flow_id() } else { 0 };
        if flow != 0 {
            tracer.emit(self.tile, now, || TraceEventKind::FlowSend {
                flow,
                dst: to.0,
                kind: "user_msg",
            });
        }
        // Price the message on the user network model; the timestamp it
        // carries is its modeled arrival time.
        let delivery = self.sim.network.route_flow(
            TrafficClass::User,
            &Packet {
                src: self.tile,
                dst: to,
                size_bytes: payload.len() as u32 + 8,
                send_time: now,
            },
            flow,
        );
        let mut framed = Vec::with_capacity(8 + payload.len());
        framed.extend_from_slice(&delivery.arrival.0.to_le_bytes());
        framed.extend_from_slice(payload);
        self.sim
            .transport
            .send_flow(self.tile, to, framed, flow)
            .map_err(|_| SimError::TransportClosed(format!("user message to {to}")))?;
        // Lane = the sending tile: only this tile's thread writes it.
        self.sim.user_msgs.incr_owned(self.tile.index());
        self.trace(|| TraceEventKind::UserMsgSend { dst: to.0, bytes: payload.len() as u64 });
        self.execute_as(Instruction::Generic { cost: Cycles(10) }, CpiClass::Network);
        Ok(())
    }

    /// Receives the next application message (blocking); returns the sender
    /// and payload. Produces the "message receive pseudo-instruction" and
    /// forwards the clock to the message timestamp (§3.1, §3.6.1).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TransportClosed`] if the transport shuts down
    /// while waiting.
    pub fn recv_msg(&mut self) -> Result<(TileId, Vec<u8>), SimError> {
        self.recv_filtered(None)
    }

    /// Receives the next message from a specific sender, stashing others.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TransportClosed`] if the transport shuts down
    /// while waiting.
    pub fn recv_msg_from(&mut self, from: TileId) -> Result<Vec<u8>, SimError> {
        Ok(self.recv_filtered(Some(from))?.1)
    }

    fn recv_filtered(&mut self, want: Option<TileId>) -> Result<(TileId, Vec<u8>), SimError> {
        // Message-arrival order is one of the run's nondeterministic inputs:
        // in replay mode, the recorded source pins which sender an
        // unfiltered receive accepts (a dry stream falls back to live
        // order); in record mode, the accepted source is logged below.
        let replayed_src =
            self.sim.replay.replay_u64(stream::msg_arrival(self.tile.0)).map(|v| TileId(v as u32));
        let want = want.or(replayed_src);
        // A receive may block: seal the pending trace batch first.
        self.sim.obs.tracer.flush(self.tile);
        let stashed = {
            let mut inbox = self.sim.tiles[self.tile.index()].inbox.lock();
            let pos = inbox.stash.iter().position(|(s, _, _, _)| want.is_none_or(|w| *s == w));
            pos.map(|p| inbox.stash.remove(p).expect("position just found"))
        };
        let (src, arrival, flow, payload) = match stashed {
            Some(m) => m,
            None => loop {
                let msg = self
                    .next_msg()
                    .map_err(|_| SimError::TransportClosed("user message receive".into()))?;
                let (src, mut data) = (msg.src, msg.payload);
                let arrival = Cycles(u64::from_le_bytes(
                    data[..8].try_into().expect("8-byte timestamp header"),
                ));
                data.drain(..8);
                if want.is_none_or(|w| src == w) {
                    break (src, arrival, msg.flow, data);
                }
                let mut inbox = self.sim.tiles[self.tile.index()].inbox.lock();
                inbox.stash.push_back((src, arrival, msg.flow, data));
            },
        };
        self.sim.replay.record_u64(stream::msg_arrival(self.tile.0), src.0 as u64);
        // The receive pseudo-instruction advances the clock by the blocking
        // wait, landing it at the message's arrival timestamp (§3.1, §3.6.1).
        // Stale timestamps (arrival in the past) wait zero cycles.
        let now = self.now();
        let wait = arrival.saturating_sub(now);
        self.execute(Instruction::Recv { wait });
        self.trace(|| TraceEventKind::UserMsgRecv { src: src.0, bytes: payload.len() as u64 });
        if flow != 0 && self.sim.obs.tracer.flows_enabled() {
            // Closes the flow at its causal end (the modeled arrival);
            // `latency` records how long the receiver sat blocked on it.
            self.sim
                .obs
                .tracer
                .emit(self.tile, arrival, || TraceEventKind::FlowReply { flow, latency: wait.0 });
        }
        Ok((src, payload))
    }

    /// Takes the next message from this tile's mailbox, parking until a
    /// delivery if it is empty. The inbox lock is never held across the
    /// park: a context must not carry a thread-affine guard across a
    /// suspend (it may resume on another carrier).
    fn next_msg(&mut self) -> Result<Msg, SimError> {
        let inbox = &self.sim.tiles[self.tile.index()].inbox;
        let sched = &self.sim.sched;
        loop {
            let got = inbox.lock().mailbox.poll();
            if let Some(msg) = got? {
                return Ok(msg);
            }
            // Arm before the final emptiness re-check: a delivery that lands
            // after the re-check finds the flag up and unparks this tile.
            sched.arm_delivery(self.tile);
            let got = inbox.lock().mailbox.poll();
            match got {
                Ok(None) => sched.wait(self.tile),
                ready => {
                    sched.disarm_delivery(self.tile);
                    if let Some(msg) = ready? {
                        return Ok(msg);
                    }
                }
            }
        }
    }

    // ---- consistent OS interface: file I/O via the MCP (§3.4) -----------

    /// Opens a file in the simulation-wide virtual file system; returns a
    /// descriptor valid from any thread in any process.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Syscall`] if the VFS rejects the open, or
    /// [`SimError::TransportClosed`] after shutdown.
    pub fn sys_open(&mut self, path: &str) -> Result<i32, SimError> {
        self.execute_as(Instruction::Generic { cost: SYSCALL_COST }, CpiClass::SpawnCtrl);
        self.trace(|| TraceEventKind::Syscall { name: "open" });
        let fd = self.sim.mcp()?.open(path);
        if fd < 0 {
            return Err(SimError::Syscall(format!("open({path:?}) failed")));
        }
        Ok(fd)
    }

    /// Writes `len` bytes from simulated memory at `addr` to `fd`; returns
    /// bytes written. The data is fetched from the single shared address
    /// space and handed to the MCP, like the paper's argument-marshalling
    /// for syscalls with memory operands.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Syscall`] for a bad descriptor, or
    /// [`SimError::TransportClosed`] after shutdown.
    pub fn sys_write(&mut self, fd: i32, addr: Addr, len: usize) -> Result<usize, SimError> {
        self.execute_as(
            Instruction::Generic { cost: SYSCALL_COST + Cycles(len as u64 / 8) },
            CpiClass::SpawnCtrl,
        );
        self.trace(|| TraceEventKind::Syscall { name: "write" });
        let mut data = vec![0u8; len];
        self.sim.mem.peek_bytes(addr, &mut data);
        let written = self.sim.mcp()?.write(&self.sim.stdout, fd, &data);
        if written == 0 && len > 0 {
            return Err(SimError::Syscall(format!("write(fd={fd}) wrote nothing")));
        }
        Ok(written)
    }

    /// Reads up to `len` bytes from `fd` into simulated memory at `addr`;
    /// returns bytes read (possibly 0 at end-of-file).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TransportClosed`] after shutdown.
    pub fn sys_read(&mut self, fd: i32, addr: Addr, len: usize) -> Result<usize, SimError> {
        self.execute_as(
            Instruction::Generic { cost: SYSCALL_COST + Cycles(len as u64 / 8) },
            CpiClass::SpawnCtrl,
        );
        self.trace(|| TraceEventKind::Syscall { name: "read" });
        let data = self.sim.mcp()?.read(fd, len);
        self.sim.mem.poke_bytes(addr, &data);
        Ok(data.len())
    }

    /// Seeks `fd` to an absolute offset; returns the new offset.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Syscall`] for a bad descriptor, or
    /// [`SimError::TransportClosed`] after shutdown.
    pub fn sys_seek(&mut self, fd: i32, pos: u64) -> Result<u64, SimError> {
        self.execute_as(Instruction::Generic { cost: SYSCALL_COST }, CpiClass::SpawnCtrl);
        self.trace(|| TraceEventKind::Syscall { name: "seek" });
        let off = self.sim.mcp()?.seek(fd, pos);
        if off < 0 {
            return Err(SimError::Syscall(format!("seek(fd={fd}) failed")));
        }
        Ok(off as u64)
    }

    /// Closes a descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Syscall`] for a bad descriptor, or
    /// [`SimError::TransportClosed`] after shutdown.
    pub fn sys_close(&mut self, fd: i32) -> Result<(), SimError> {
        self.execute_as(Instruction::Generic { cost: SYSCALL_COST }, CpiClass::SpawnCtrl);
        self.trace(|| TraceEventKind::Syscall { name: "close" });
        let rc = self.sim.mcp()?.close(fd);
        if rc != 0 {
            return Err(SimError::Syscall(format!("close(fd={fd}) failed")));
        }
        Ok(())
    }

    // ---- determinism: guest RNG and checkpointing -----------------------

    /// A guest-visible pseudo-random `u64`. The stream is seeded from the
    /// configuration seed, survives checkpoint/restore, and routes through
    /// the record/replay log — so a replayed run draws the recorded values
    /// regardless of seed. Charges no simulated time (a native `rdrand`
    /// would, but keeping it model-invisible makes recorded and replayed
    /// timings identical).
    pub fn rand_u64(&mut self) -> u64 {
        self.sim
            .replay
            .record_or_replay_u64(stream::GUEST_RNG, || self.sim.guest_rng.lock().next_u64())
    }

    /// A guest-visible pseudo-random value below `bound` (0 when `bound` is
    /// 0). Consumes one [`Ctx::rand_u64`] draw.
    pub fn rand_range(&mut self, bound: u64) -> u64 {
        let draw = self.rand_u64();
        if bound == 0 {
            0
        } else {
            draw % bound
        }
    }

    /// Snapshots the quiesced simulation to `path` in the `graphite.ckpt.v4`
    /// format, for a later [`crate::SimBuilder::resume`].
    ///
    /// Only the main thread may checkpoint, and only at a quiesce point:
    /// every spawned thread joined, no futex waiter parked, no user message
    /// undelivered. The call is model-invisible — it charges no simulated
    /// time and bumps no counters, so a run that checkpoints reports exactly
    /// the same metrics as one that does not.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CkptNotQuiesced`] naming the violation,
    /// [`SimError::CkptIo`] when the file cannot be written, or
    /// [`SimError::TransportClosed`] after shutdown.
    pub fn checkpoint(&mut self, path: impl Into<PathBuf>) -> Result<(), SimError> {
        let path = path.into();
        // The save reads every tile's core model from its tile: hand this
        // context's back for the save and take it again afterwards.
        self.put_core_home();
        let saved = self.sim.mcp().and_then(|mcp| mcp.checkpoint(&self.sim, self.thread, &path));
        self.take_core_home();
        saved
    }

    /// A cooperative checkpoint safepoint: services any armed external
    /// [`crate::CkptRequest`] and the periodic auto-checkpoint schedule
    /// (`[ckpt] auto_quanta`).
    ///
    /// Drivers call this **between units of work they can resume from** —
    /// a checkpoint is only correct at a point the driver re-entering after
    /// [`crate::SimBuilder::resume`] can reconstruct (typically by keeping a
    /// progress cursor in simulated memory via [`Ctx::poke_bytes`]).
    ///
    /// Returns `true` when an external preemption request was serviced: the
    /// checkpoint is on disk and the driver should wind down so the
    /// simulation can be resumed later. Auto checkpoints return `false` (the
    /// driver keeps running). The call is model-invisible apart from the
    /// `ckpt.auto.taken` counter: no simulated time, no modeled state.
    ///
    /// Only thread 0 services requests (checkpoints need a quiesced
    /// simulation, which requires every other thread to have exited); calls
    /// from other threads return `false`. A safepoint reached while spawned
    /// threads are still alive leaves the request armed and retries at the
    /// next poll.
    pub fn ckpt_poll(&mut self) -> bool {
        if self.thread != ThreadId(0) {
            return false;
        }
        // A handle of its own: `checkpoint` below borrows the whole context.
        let sim = Arc::clone(&self.sim);
        let hook = &sim.ckpt_hook;
        if let Some(req) = &hook.request {
            if let Some(path) = req.pending_path() {
                let t0 = std::time::Instant::now();
                match self.checkpoint(&path) {
                    Ok(()) => {
                        // Host-side bookkeeping only: the serialize time and
                        // park-file size feed scheduler preemption-cost
                        // accounting, never simulated state.
                        let nanos = t0.elapsed().as_nanos() as u64;
                        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                        req.record_cost(nanos, bytes);
                        req.complete();
                        return true;
                    }
                    // Not quiesced: stay armed, retry at a later safepoint.
                    Err(SimError::CkptNotQuiesced(_)) => {}
                    Err(e) => req.fail(e.to_string()),
                }
            }
        }
        if hook.auto_due(self.now().0) {
            let now = self.now().0;
            match self.checkpoint(hook.next_auto_path()) {
                Ok(()) => hook.auto_done(now),
                Err(SimError::CkptNotQuiesced(_)) => {}
                Err(_) => hook.auto_failed(now),
            }
        }
        false
    }

    /// Whether an external checkpoint request is armed and waiting for the
    /// next [`Ctx::ckpt_poll`] safepoint. Cheap enough for inner loops that
    /// want to poll only when it matters.
    pub fn preempt_pending(&self) -> bool {
        self.sim.ckpt_hook.request.as_ref().is_some_and(|r| r.armed())
    }

    /// Writes text to the simulation's captured stdout (fd 1). Best-effort:
    /// output after control-plane shutdown is silently dropped.
    pub fn print(&mut self, text: &str) {
        self.execute_as(Instruction::Generic { cost: SYSCALL_COST }, CpiClass::SpawnCtrl);
        self.trace(|| TraceEventKind::Syscall { name: "print" });
        if let Ok(mut mcp) = self.sim.mcp() {
            mcp.write(&self.sim.stdout, 1, text.as_bytes());
        }
    }

    /// Parks this context until the waker of its deferred MCP wait (a futex
    /// wake, the joined thread's exit, shutdown) completes it, and returns
    /// how the wait ended. The wait is exactly one park, ended by the
    /// waker's one unpark; a reply that is already in just consumes the
    /// banked token — skipping the park would leave the token to end this
    /// context's next, unrelated wait early.
    fn await_reply(&mut self) -> McpReply {
        self.sim.sched.wait(self.tile);
        let reply = self.sim.tiles[self.tile.index()].reply.lock().take();
        reply.expect("a deferred MCP wait ends with its reply")
    }
}
