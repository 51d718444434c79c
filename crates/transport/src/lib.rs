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
//!   carriers read its sockets.
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
use std::fmt;
use std::os::fd::{AsRawFd, BorrowedFd, RawFd};
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
        if let Some(old) = self.queues.write().insert(tile, Arc::clone(&queue)) {
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

/// `struct pollfd` of poll(2).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

impl PollFd {
    fn new(fd: RawFd, events: i16) -> Self {
        PollFd { fd, events, revents: 0 }
    }
}

/// Blocks until one of `fds` is ready (data, room, hang-up or error) or
/// `timeout` passes (`None`: no limit); returns how many are ready, 0 on a
/// timeout or a signal, after which every caller polls again. `ppoll` takes
/// nanosecond deadlines.
fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> usize {
    #[repr(C)]
    struct Timespec(i64, i64);
    unsafe extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> std::ffi::c_int;
    }
    let ts =
        timeout.map(|d| Timespec(d.as_secs().min(i64::MAX as u64) as i64, d.subsec_nanos().into()));
    let ts_ptr = ts.as_ref().map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // `pollfd` records and `nfds` is its length, so the kernel reads and
    // writes only inside it; `ts_ptr` is null or points at a `timespec`
    // (two 64-bit words on the 64-bit Linux targets the scheduler's
    // coroutines require) that outlives the call; a null signal mask leaves
    // the mask unchanged. `ppoll` keeps no pointer past its return.
    let n = unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, ts_ptr, std::ptr::null())
    };
    n.max(0) as usize
}

/// Blocks until `fd` reads ready or `timeout` passes (`None`: no limit),
/// and says whether it is ready: an idle scheduler carrier's wait when no
/// TCP transport is attached.
pub fn wait_readable(fd: BorrowedFd<'_>, timeout: Option<Duration>) -> bool {
    let mut fds = [PollFd::new(fd.as_raw_fd(), POLLIN)];
    poll(&mut fds, timeout);
    fds[0].revents != 0
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
