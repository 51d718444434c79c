//! The physical transport layer (paper §3.3.1).
//!
//! "The transport layer provides an abstraction for generic communication
//! between tiles. All inter-core communication as well as inter-process
//! communication required for distributed support goes through this
//! communication channel."
//!
//! The endpoints are the target tiles: only the user-level messaging API
//! travels here (the control plane is a lock in the one host address space;
//! see `graphite::control`). A transport routes framed messages between
//! tiles, and two backends implement the same [`Transport`] trait:
//!
//! * [`LocalTransport`] — a send enqueues straight into the receiver's
//!   mailbox, a plain per-tile queue (the common case: simulated host
//!   processes share one OS process);
//! * [`tcp::TcpTransport`] — real length-prefixed TCP sockets over loopback,
//!   exercising the paper's actual wire path ("the current transport layer
//!   uses TCP/IP sockets"). It owns no thread: the simulator's scheduler
//!   carriers wait for its sockets in a [`WaitSet`] and read them.
//!
//! The hub counts intra-process, inter-process and inter-machine traffic;
//! the host performance model consumes those counters.
//!
//! # Examples
//!
//! ```
//! use graphite_base::TileId;
//! use graphite_transport::{LocalTransport, Transport};
//!
//! let cfg = graphite_config::presets::paper_default(4);
//! let hub = LocalTransport::new(&cfg);
//! let mailbox = hub.register(TileId(1));
//! hub.send(TileId(0), TileId(1), b"hello".to_vec()).unwrap();
//! let msg = mailbox.try_recv().unwrap();
//! assert_eq!(msg.payload, b"hello");
//! assert_eq!(msg.src, TileId(0));
//! ```

pub mod tcp;

use std::collections::{HashMap, VecDeque};
use std::ffi::{c_int, c_void};
use std::fmt;
use std::io::{self, PipeReader, PipeWriter, Read, Write};
use std::os::fd::{AsFd, BorrowedFd, OwnedFd};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use graphite_base::{SimError, TileId};
use graphite_config::SimConfig;
use graphite_trace::{Metric, MetricsRegistry, Obs};
use parking_lot::{Mutex, RwLock};

/// A framed transport message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    /// Sending tile.
    pub src: TileId,
    /// Receiving tile.
    pub dst: TileId,
    /// Causal flow ID minted at injection; 0 means the message is not part
    /// of a tracked flow. Preserved verbatim across every hop, including the
    /// TCP wire format.
    pub flow: u64,
    /// Opaque payload owned by the higher layer.
    pub payload: Vec<u8>,
}

/// Traffic counters kept by every transport backend.
#[derive(Debug, Default)]
pub struct TransportStats {
    /// Messages whose source and destination live in the same simulated
    /// process.
    pub intra_process: Metric,
    /// Messages crossing processes on the same machine.
    pub inter_process: Metric,
    /// Messages crossing machine boundaries.
    pub inter_machine: Metric,
    /// Total payload bytes moved.
    pub bytes: Metric,
    /// Socket reconnects after a failed write (TCP backend only).
    pub reconnects: Metric,
    /// Inbound frames dropped as malformed (TCP backend only): shorter than
    /// their header, or announcing more than [`tcp::MAX_FRAME`] bytes, which
    /// also closes the stream.
    pub rejected_frames: Metric,
}

impl TransportStats {
    /// Builds stats registered in `metrics` under the `transport.*`
    /// namespace.
    pub fn registered(metrics: &MetricsRegistry) -> Self {
        TransportStats {
            intra_process: metrics.counter("transport.intra_process"),
            inter_process: metrics.counter("transport.inter_process"),
            inter_machine: metrics.counter("transport.inter_machine"),
            bytes: metrics.counter("transport.bytes"),
            reconnects: metrics.counter("transport.reconnects"),
            rejected_frames: metrics.counter("transport.rejected_frames"),
        }
    }

    /// Total messages regardless of locality.
    pub fn total_messages(&self) -> u64 {
        self.intra_process.get() + self.inter_process.get() + self.inter_machine.get()
    }

    /// Counts one message of `bytes` payload bytes from `src` to `dst`, by
    /// where the two tiles live relative to each other.
    fn count(&self, cfg: &SimConfig, src: TileId, dst: TileId, bytes: usize) {
        let (sp, dp) = (cfg.process_of_tile(src.0), cfg.process_of_tile(dst.0));
        let locality = if sp == dp {
            &self.intra_process
        } else if cfg.machine_of_process(sp) == cfg.machine_of_process(dp) {
            &self.inter_process
        } else {
            &self.inter_machine
        };
        locality.incr();
        self.bytes.add(bytes as u64);
    }
}

/// One tile's queued messages; `closed` once its mailbox is replaced or
/// dropped.
#[derive(Debug, Default)]
struct Queue {
    msgs: VecDeque<Msg>,
    closed: bool,
}

/// A receiving tile's FIFO mailbox. Receiving never blocks: a receiver that
/// finds it empty waits in the scheduler, which the delivery hook wakes.
#[derive(Debug)]
pub struct Mailbox {
    tile: TileId,
    queue: Arc<Mutex<Queue>>,
}

impl Mailbox {
    /// The tile this mailbox belongs to.
    pub fn tile(&self) -> TileId {
        self.tile
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Msg> {
        self.queue.lock().msgs.pop_front()
    }

    /// Non-blocking receive that tells an empty mailbox (`Ok(None)`) from
    /// a closed one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TransportClosed`] when the mailbox is empty and
    /// its tile has been registered again.
    pub fn poll(&self) -> Result<Option<Msg>, SimError> {
        let mut q = self.queue.lock();
        match q.msgs.pop_front() {
            None if q.closed => Err(SimError::TransportClosed(self.tile.to_string())),
            m => Ok(m),
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.queue.lock().msgs.len()
    }

    /// True when no message is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A dropped mailbox refuses further sends.
impl Drop for Mailbox {
    fn drop(&mut self) {
        self.queue.lock().closed = true;
    }
}

/// Called with a tile after a message was enqueued in its mailbox, or after
/// its mailbox was closed by a re-registration — the moment a receiver
/// waiting on that mailbox can make progress.
pub type DeliveryHook = Arc<dyn Fn(TileId) + Send + Sync>;

/// Every tile's queue and the delivery hook, shared by both backends.
#[derive(Default)]
struct Mailboxes {
    queues: RwLock<HashMap<TileId, Arc<Mutex<Queue>>>>,
    hook: OnceLock<DeliveryHook>,
}

impl Mailboxes {
    fn register(&self, tile: TileId) -> Mailbox {
        let queue = Arc::new(Mutex::new(Queue::default()));
        // The guard goes before the hook runs: no lock is held across it.
        let old = self.queues.write().insert(tile, Arc::clone(&queue));
        if let Some(old) = old {
            old.lock().closed = true;
            self.notify(tile);
        }
        Mailbox { tile, queue }
    }

    /// Enqueues `msg` in its destination's mailbox. The caller then runs the
    /// hook, or reports the delivery in its place.
    fn push(&self, msg: Msg) -> Result<(), SimError> {
        let dst = msg.dst;
        let closed = move || SimError::TransportClosed(dst.to_string());
        let queues = self.queues.read();
        let mut q = queues.get(&dst).ok_or_else(closed)?.lock();
        if q.closed {
            return Err(closed());
        }
        q.msgs.push_back(msg);
        Ok(())
    }

    fn notify(&self, dst: TileId) {
        if let Some(h) = self.hook.get() {
            h(dst);
        }
    }
}

/// A transport backend: mailbox registration plus fire-and-forget sends.
///
/// This trait is object-safe; the simulator holds a `dyn Transport`.
pub trait Transport: Send + Sync {
    /// Creates (or replaces) the mailbox for `tile` and returns the
    /// receiving half. Replacing one closes the old mailbox and runs the
    /// delivery hook for `tile`.
    fn register(&self, tile: TileId) -> Mailbox;

    /// Installs the hook every delivery runs (see [`DeliveryHook`]); the
    /// simulator uses it to wake a receiver parked without a host thread.
    /// Only the first installation takes effect.
    fn set_delivery_hook(&self, hook: DeliveryHook);

    /// Sends a message from `src` to `dst`, not attached to any tracked
    /// flow (flow 0). Equivalent to `send_flow(src, dst, payload, 0)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TransportClosed`] if `dst` was never registered or
    /// its mailbox has been dropped.
    fn send(&self, src: TileId, dst: TileId, payload: Vec<u8>) -> Result<(), SimError> {
        self.send_flow(src, dst, payload, 0)
    }

    /// Sends a message carrying a causal flow ID; the receiver observes it
    /// as [`Msg::flow`]. Backends must preserve the ID across every hop
    /// (memory and wire alike).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TransportClosed`] if `dst` was never registered or
    /// its mailbox has been dropped.
    fn send_flow(
        &self,
        src: TileId,
        dst: TileId,
        payload: Vec<u8>,
        flow: u64,
    ) -> Result<(), SimError>;

    /// Traffic counters.
    fn stats(&self) -> &TransportStats;
}

/// `struct epoll_event`, which the kernel packs on x86_64 (12 bytes).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy, Default)]
struct EpollEvent {
    events: u32,
    token: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLONESHOT: u32 = 1 << 30;
const ONCE: u32 = EPOLLIN | EPOLLONESHOT; // readable, reported once until re-armed
const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_MOD: c_int = 3;

// `epoll_create1` returns a fresh descriptor (`None` for -1), and
// `epoll_ctl` takes live borrowed descriptors and only reads its event
// record: both are safe to call.
unsafe extern "C" {
    safe fn epoll_create1(flags: c_int) -> Option<OwnedFd>;
    safe fn epoll_ctl(ep: BorrowedFd, op: c_int, fd: BorrowedFd, ev: &mut EpollEvent) -> c_int;
    fn epoll_pwait2(
        ep: BorrowedFd,
        events: *mut EpollEvent,
        max: c_int,
        timeout: *const [i64; 2], // `struct timespec` on 64-bit Linux
        sigmask: *const c_void,
    ) -> c_int;
}

fn ctl(ep: BorrowedFd, op: c_int, fd: BorrowedFd, events: u32, token: u64) -> io::Result<()> {
    match epoll_ctl(ep, op, fd, &mut EpollEvent { events, token }) {
        0 => Ok(()),
        _ => Err(io::Error::last_os_error()),
    }
}

/// Waits up to `timeout` (`None`: no limit) for at most `N` of `ep`'s
/// sources and returns their tokens, none on a timeout or a signal.
/// `epoll_pwait2` takes nanosecond deadlines: `epoll_wait`'s milliseconds
/// would stretch every short LaxP2P catch-up sleep. Any other failure
/// (`ENOSYS` before Linux 5.11) panics rather than spin the caller.
fn pwait<const N: usize>(ep: BorrowedFd, timeout: Option<Duration>) -> impl Iterator<Item = u64> {
    let mut events = [EpollEvent::default(); N];
    let ts = timeout.map(|d| [d.as_secs().min(i64::MAX as u64) as i64, d.subsec_nanos().into()]);
    let ts = ts.as_ref().map_or(std::ptr::null(), |t| t as *const [i64; 2]);
    // SAFETY: `events` is a live, exclusively borrowed array of records laid
    // out as the kernel's `struct epoll_event`, and `N` is its length (a
    // handful), so the kernel writes only inside it; `ts` is null or points
    // at a `timespec` that outlives the call; a null signal mask leaves the
    // mask unchanged. `epoll_pwait2` keeps no pointer past its return.
    let n = unsafe { epoll_pwait2(ep, events.as_mut_ptr(), N as c_int, ts, std::ptr::null()) };
    if n < 0 {
        let e = io::Error::last_os_error();
        assert_eq!(e.kind(), io::ErrorKind::Interrupted, "epoll_pwait2: {e}");
    }
    events.into_iter().take(n.max(0) as usize).map(|event| event.token)
}

/// The tokens the wake pipe and the wire are reported with.
const WAKE: u64 = u64::MAX;
const WIRE: u64 = u64::MAX - 1;

/// A persistent kernel wait set (`epoll(7)`) for idle threads: a wake pipe
/// and the *wire*, a second set nested in it that, once a
/// [`tcp::TcpTransport`] owns this one, holds the transport's listeners and
/// every stream they accepted. Every source is armed one-shot: a wait that
/// reports one disarms it, so one of the threads waiting together takes it,
/// and the taker re-arms it once drained. The simulator's idle scheduler
/// carriers all wait here, with or without a TCP wire.
#[derive(Debug)]
pub struct WaitSet {
    /// The wake pipe and the wire.
    ep: OwnedFd,
    /// The transport's sockets.
    wire: OwnedFd,
    rx: PipeReader,
    tx: PipeWriter,
}

impl WaitSet {
    /// A set holding only its wake pipe and an empty wire.
    ///
    /// # Errors
    ///
    /// Fails if the kernel refuses a descriptor (`EMFILE`, `ENOMEM`).
    pub fn new() -> io::Result<Self> {
        let create = || epoll_create1(EPOLL_CLOEXEC).ok_or_else(io::Error::last_os_error);
        let (ep, wire) = (create()?, create()?);
        let (rx, tx) = std::io::pipe()?;
        ctl(ep.as_fd(), EPOLL_CTL_ADD, rx.as_fd(), ONCE, WAKE)?;
        ctl(ep.as_fd(), EPOLL_CTL_ADD, wire.as_fd(), ONCE, WIRE)?;
        Ok(WaitSet { ep, wire, rx, tx })
    }

    /// Adds `fd` to the wire, armed one-shot for reading as `token`.
    fn add(&self, fd: BorrowedFd, token: u64) -> io::Result<()> {
        ctl(self.wire.as_fd(), EPOLL_CTL_ADD, fd, ONCE, token)
    }

    /// Re-arms a drained wire source (in the set, so it cannot fail); data
    /// still there is reported at once.
    fn rearm(&self, fd: BorrowedFd, token: u64) {
        let _ = ctl(self.wire.as_fd(), EPOLL_CTL_MOD, fd, ONCE, token);
    }

    /// Writes one byte to the wake pipe: it ends one [`Self::wait`].
    pub fn wake(&self) {
        (&self.tx).write_all(&[1]).expect("write the wake pipe");
    }

    /// Blocks until a wake byte, a wire source or `timeout` (`None`: no
    /// limit), then reports each ready wire source's token to `ready`.
    /// Returns whether it read a wake byte.
    pub fn wait(&self, timeout: Option<Duration>, ready: &mut dyn FnMut(u64)) -> bool {
        let mut woken = false;
        for token in pwait::<2>(self.ep.as_fd(), timeout) {
            if token == WAKE {
                (&self.rx).read_exact(&mut [0]).expect("read the wake pipe");
                woken = true;
                let _ = ctl(self.ep.as_fd(), EPOLL_CTL_MOD, self.rx.as_fd(), ONCE, WAKE);
            } else {
                // Taken before the re-arm: a thread it wakes finds the rest.
                let taken = self.sweep();
                let _ = ctl(self.ep.as_fd(), EPOLL_CTL_MOD, self.wire.as_fd(), ONCE, WIRE);
                taken.for_each(&mut *ready);
            }
        }
        woken
    }

    /// Takes, and so disarms, up to 8 wire sources that are ready now and
    /// returns their tokens, without blocking; wake bytes stay for sleepers.
    pub fn sweep(&self) -> impl Iterator<Item = u64> {
        pwait::<8>(self.wire.as_fd(), Some(Duration::ZERO))
    }

    /// Blocks until `fd` has room to write or a wire source is ready,
    /// through a second, short-lived set that holds both. Not the wake
    /// pipe: a byte left for a sleeper would end every such wait at once.
    fn wait_writable(&self, fd: BorrowedFd) -> io::Result<()> {
        let room = epoll_create1(EPOLL_CLOEXEC).ok_or_else(io::Error::last_os_error)?;
        ctl(room.as_fd(), EPOLL_CTL_ADD, fd, EPOLLOUT, 0)?;
        ctl(room.as_fd(), EPOLL_CTL_ADD, self.wire.as_fd(), EPOLLIN, 0)?;
        let _ = pwait::<2>(room.as_fd(), None);
        Ok(())
    }
}

/// In-memory transport: a send enqueues straight into the receiver's
/// mailbox. This is the default backend.
pub struct LocalTransport {
    cfg: SimConfig,
    boxes: Mailboxes,
    stats: TransportStats,
}

impl fmt::Debug for LocalTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalTransport")
            .field("endpoints", &self.boxes.queues.read().len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl LocalTransport {
    /// Creates an empty hub for the given simulation configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        LocalTransport {
            cfg: cfg.clone(),
            boxes: Mailboxes::default(),
            stats: TransportStats::default(),
        }
    }

    /// Like [`LocalTransport::new`], with counters registered under
    /// `transport.*` in `obs.metrics`.
    pub fn with_obs(cfg: &SimConfig, obs: &Obs) -> Self {
        LocalTransport {
            cfg: cfg.clone(),
            boxes: Mailboxes::default(),
            stats: TransportStats::registered(&obs.metrics),
        }
    }
}

impl Transport for LocalTransport {
    fn register(&self, tile: TileId) -> Mailbox {
        self.boxes.register(tile)
    }

    fn set_delivery_hook(&self, hook: DeliveryHook) {
        let _ = self.boxes.hook.set(hook);
    }

    fn send_flow(
        &self,
        src: TileId,
        dst: TileId,
        payload: Vec<u8>,
        flow: u64,
    ) -> Result<(), SimError> {
        let bytes = payload.len();
        self.boxes.push(Msg { src, dst, flow, payload })?;
        self.stats.count(&self.cfg, src, dst, bytes);
        self.boxes.notify(dst);
        Ok(())
    }

    fn stats(&self) -> &TransportStats {
        &self.stats
    }
}

/// A generic alias used by the simulator: any transport behind an `Arc`.
pub type DynTransport = std::sync::Arc<dyn Transport>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn cfg(tiles: u32, procs: u32, machines: u32) -> SimConfig {
        let mut c = graphite_config::presets::paper_default(tiles);
        c.num_processes = procs;
        c.host.num_machines = machines;
        c
    }

    #[test]
    fn send_and_recv_roundtrip() {
        let hub = LocalTransport::new(&cfg(4, 1, 1));
        let mb = hub.register(TileId(2));
        hub.send(TileId(0), TileId(2), vec![1, 2, 3]).unwrap();
        let m = mb.try_recv().unwrap();
        assert_eq!((m.src, m.dst), (TileId(0), TileId(2)));
        assert_eq!(m.payload, [1, 2, 3]);
        assert_eq!(m.flow, 0); // plain send is flow-untracked
    }

    #[test]
    fn flow_id_round_trips_local() {
        let hub = LocalTransport::new(&cfg(4, 1, 1));
        let mb = hub.register(TileId(3));
        for flow in [1u64, 42, u64::MAX] {
            hub.send_flow(TileId(0), TileId(3), vec![], flow).unwrap();
            assert_eq!(mb.try_recv().unwrap().flow, flow);
        }
    }

    #[test]
    fn send_to_unregistered_fails() {
        let hub = LocalTransport::new(&cfg(4, 1, 1));
        let err = hub.send(TileId(1), TileId(0), vec![]).unwrap_err();
        assert!(matches!(err, SimError::TransportClosed(_)));
    }

    #[test]
    fn fifo_order_per_endpoint() {
        let hub = LocalTransport::new(&cfg(2, 1, 1));
        let mb = hub.register(TileId(0));
        for i in 0..10u8 {
            hub.send(TileId(1), TileId(0), vec![i]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(mb.try_recv().unwrap().payload, [i]);
        }
    }

    #[test]
    fn locality_classification() {
        // 4 tiles striped over 2 processes on 2 machines.
        let hub = LocalTransport::new(&cfg(4, 2, 2));
        let _mb0 = hub.register(TileId(0));
        let _mb1 = hub.register(TileId(1));
        let _mb2 = hub.register(TileId(2));
        // tile0 (proc0/m0) -> tile2 (proc0/m0): intra-process.
        hub.send(TileId(0), TileId(2), vec![]).unwrap();
        // tile0 (proc0/m0) -> tile1 (proc1/m1): inter-machine.
        hub.send(TileId(0), TileId(1), vec![]).unwrap();
        assert_eq!(hub.stats().intra_process.get(), 1);
        assert_eq!(hub.stats().inter_machine.get(), 1);
        assert_eq!(hub.stats().inter_process.get(), 0);

        // Same processes, one machine: the cross-process hop is inter-process.
        let hub1 = LocalTransport::new(&cfg(4, 2, 1));
        let _mb = hub1.register(TileId(1));
        hub1.send(TileId(0), TileId(1), vec![]).unwrap();
        assert_eq!(hub1.stats().inter_process.get(), 1);
    }

    #[test]
    fn bytes_counted() {
        let hub = LocalTransport::new(&cfg(2, 1, 1));
        let _mb = hub.register(TileId(1));
        hub.send(TileId(0), TileId(1), vec![0; 42]).unwrap();
        assert_eq!(hub.stats().bytes.get(), 42);
        assert_eq!(hub.stats().total_messages(), 1);
    }

    #[test]
    fn try_recv_poll_and_len() {
        let hub = LocalTransport::new(&cfg(2, 1, 1));
        let mb = hub.register(TileId(1));
        assert!(mb.try_recv().is_none());
        assert!(mb.is_empty());
        assert_eq!(mb.poll().unwrap(), None, "an open, empty mailbox polls empty");
        hub.send(TileId(0), TileId(1), vec![9]).unwrap();
        assert_eq!(mb.len(), 1);
        assert!(mb.try_recv().is_some());
    }

    #[test]
    fn dropped_mailbox_refuses_sends() {
        let hub = LocalTransport::new(&cfg(2, 1, 1));
        drop(hub.register(TileId(1)));
        let err = hub.send(TileId(0), TileId(1), vec![1]).unwrap_err();
        assert!(matches!(err, SimError::TransportClosed(_)));
        assert_eq!(hub.stats().total_messages(), 0, "a refused send is not counted");
    }

    #[test]
    fn concurrent_senders_all_delivered() {
        let hub = Arc::new(LocalTransport::new(&cfg(8, 1, 1)));
        let mb = hub.register(TileId(7));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let hub = Arc::clone(&hub);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        hub.send(TileId(t), TileId(7), vec![t as u8]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut n = 0;
        while mb.try_recv().is_some() {
            n += 1;
        }
        assert_eq!(n, 2000);
    }

    #[test]
    fn a_one_shot_source_goes_to_one_waiter_until_rearmed() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let set = Arc::new(WaitSet::new().unwrap());
        let (rx, tx) = std::io::pipe().unwrap();
        set.add(rx.as_fd(), 7).unwrap();
        let reports = Arc::new(AtomicUsize::new(0));
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let (set, reports) = (Arc::clone(&set), Arc::clone(&reports));
                // Waits until the source is reported (true) or a wake byte
                // ends the wait (false).
                std::thread::spawn(move || loop {
                    let mut got = false;
                    let woken = set.wait(Some(Duration::from_secs(10)), &mut |token| {
                        assert_eq!(token, 7);
                        reports.fetch_add(1, Ordering::SeqCst);
                        got = true;
                    });
                    if got || woken {
                        return got;
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20)); // both are waiting
        (&tx).write_all(&[1]).unwrap();
        while reports.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(reports.load(Ordering::SeqCst), 1, "one waiter takes a one-shot source");
        set.wake(); // ends the other waiter's wait
        let mut got: Vec<bool> = waiters.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, [false, true]);
        // Still readable, but disarmed until its taker re-arms it.
        let none = &mut |_| panic!("reported before it was re-armed");
        assert!(!set.wait(Some(Duration::from_millis(20)), none));
        set.rearm(rx.as_fd(), 7);
        let mut again = Vec::new();
        set.wait(Some(Duration::ZERO), &mut |token| again.push(token));
        assert_eq!(again, [7], "re-armed, the still-ready source is reported at once");
    }

    #[test]
    fn a_wake_byte_leaves_a_blocked_writer_waiting() {
        use std::net::{TcpListener, TcpStream};
        let set = Arc::new(WaitSet::new().unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        writer.set_nonblocking(true).unwrap();
        while (&writer).write(&[0; 64 << 10]).is_ok() {} // full: nobody reads the peer
        set.wake(); // a byte no thread takes
        let (done_tx, done) = std::sync::mpsc::channel();
        let blocked = Arc::clone(&set);
        let waiter = std::thread::spawn(move || {
            blocked.wait_writable(writer.as_fd()).unwrap();
            done_tx.send(()).unwrap();
        });
        let spun = done.recv_timeout(Duration::from_millis(50));
        assert!(spun.is_err(), "the wake byte ended the writer's wait");
        peer.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while done.try_recv().is_err() {
            assert!(std::time::Instant::now() < deadline, "room never ended the wait");
            let _ = peer.read(&mut [0; 64 << 10]);
        }
        waiter.join().unwrap();
        assert!(set.wait(Some(Duration::ZERO), &mut |_| {}), "the byte is still there");
    }

    #[test]
    fn delivery_hook_runs_after_enqueue_and_on_replace() {
        use std::sync::Mutex;
        let hub = LocalTransport::new(&cfg(2, 1, 1));
        let mb = Arc::new(hub.register(TileId(1)));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (mb2, seen2) = (Arc::clone(&mb), Arc::clone(&seen));
        hub.set_delivery_hook(Arc::new(move |dst| {
            // The message is already in the mailbox when the hook runs.
            seen2.lock().unwrap().push((dst, !mb2.is_empty()));
        }));
        hub.send(TileId(0), TileId(1), vec![1]).unwrap();
        assert_eq!(mb.len(), 1);
        assert_eq!(*seen.lock().unwrap(), vec![(TileId(1), true)]);
        // Re-registering disconnects the old mailbox and wakes its receiver.
        let _fresh = hub.register(TileId(1));
        assert_eq!(seen.lock().unwrap().len(), 2);
        assert!(mb.poll().unwrap().is_some(), "queued message survives the disconnect");
        assert!(mb.poll().is_err(), "then the old mailbox reads as closed");
    }
}
