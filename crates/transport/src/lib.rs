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
//! * [`LocalTransport`] — lock-free in-memory channels (the common case:
//!   simulated host processes share one OS process);
//! * [`tcp::TcpTransport`] — real length-prefixed TCP sockets over loopback,
//!   exercising the paper's actual wire path ("the current transport layer
//!   uses TCP/IP sockets").
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
//! let msg = mailbox.recv().unwrap();
//! assert_eq!(msg.payload.as_ref(), b"hello");
//! assert_eq!(msg.src, TileId(0));
//! ```

pub mod tcp;

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, Sender};
use graphite_base::{SimError, TileId};
use graphite_config::SimConfig;
use graphite_trace::{Metric, MetricsRegistry, Obs};
use parking_lot::RwLock;

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
    pub payload: Bytes,
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
        }
    }

    /// Total messages regardless of locality.
    pub fn total_messages(&self) -> u64 {
        self.intra_process.get() + self.inter_process.get() + self.inter_machine.get()
    }
}

/// A receiving tile's FIFO mailbox.
#[derive(Debug)]
pub struct Mailbox {
    tile: TileId,
    rx: Receiver<Msg>,
}

impl Mailbox {
    /// The tile this mailbox belongs to.
    pub fn tile(&self) -> TileId {
        self.tile
    }

    /// Blocks until a message arrives.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TransportClosed`] when every sender has shut down.
    pub fn recv(&self) -> Result<Msg, SimError> {
        self.rx.recv().map_err(|_| SimError::TransportClosed(self.tile.to_string()))
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Msg> {
        self.rx.try_recv().ok()
    }

    /// Non-blocking receive that tells an empty mailbox (`Ok(None)`) from
    /// a disconnected one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TransportClosed`] when the mailbox is empty and
    /// every sender has shut down.
    pub fn poll(&self) -> Result<Option<Msg>, SimError> {
        match self.rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(channel::TryRecvError::Empty) => Ok(None),
            Err(channel::TryRecvError::Disconnected) => {
                Err(SimError::TransportClosed(self.tile.to_string()))
            }
        }
    }

    /// Receive with a timeout; `None` on timeout.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TransportClosed`] when every sender has shut down.
    pub fn recv_timeout(&self, dur: Duration) -> Result<Option<Msg>, SimError> {
        match self.rx.recv_timeout(dur) {
            Ok(m) => Ok(Some(m)),
            Err(channel::RecvTimeoutError::Timeout) => Ok(None),
            Err(channel::RecvTimeoutError::Disconnected) => {
                Err(SimError::TransportClosed(self.tile.to_string()))
            }
        }
    }

    /// Number of queued messages (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.rx.len()
    }

    /// True when no message is queued.
    pub fn is_empty(&self) -> bool {
        self.rx.is_empty()
    }
}

/// Called with a tile after a message was enqueued in its mailbox, or after
/// its mailbox was disconnected by a re-registration — the moment a receiver
/// waiting on that mailbox can make progress.
pub type DeliveryHook = Arc<dyn Fn(TileId) + Send + Sync>;

/// A transport backend: mailbox registration plus fire-and-forget sends.
///
/// This trait is object-safe; the simulator holds a `dyn Transport`.
pub trait Transport: Send + Sync {
    /// Creates (or replaces) the mailbox for `tile` and returns the
    /// receiving half. Replacing one disconnects the old mailbox and runs
    /// the delivery hook for `tile`.
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
    /// (channel and wire alike).
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

/// Where two tiles physically live relative to each other, for traffic
/// classification.
fn locality(cfg: &SimConfig, a: TileId, b: TileId) -> Locality {
    let (pa, pb) = (cfg.process_of_tile(a.0), cfg.process_of_tile(b.0));
    if pa == pb {
        Locality::IntraProcess
    } else if cfg.machine_of_process(pa) == cfg.machine_of_process(pb) {
        Locality::InterProcess
    } else {
        Locality::InterMachine
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Locality {
    IntraProcess,
    InterProcess,
    InterMachine,
}

/// In-memory channel transport: every tile gets an unbounded MPSC channel.
/// This is the default backend.
pub struct LocalTransport {
    cfg: SimConfig,
    senders: RwLock<std::collections::HashMap<TileId, Sender<Msg>>>,
    hook: OnceLock<DeliveryHook>,
    stats: TransportStats,
}

impl fmt::Debug for LocalTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalTransport")
            .field("endpoints", &self.senders.read().len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl LocalTransport {
    /// Creates an empty hub for the given simulation configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        LocalTransport {
            cfg: cfg.clone(),
            senders: RwLock::new(std::collections::HashMap::new()),
            hook: OnceLock::new(),
            stats: TransportStats::default(),
        }
    }

    /// Like [`LocalTransport::new`], with counters registered under
    /// `transport.*` in `obs.metrics`.
    pub fn with_obs(cfg: &SimConfig, obs: &Obs) -> Self {
        LocalTransport {
            cfg: cfg.clone(),
            senders: RwLock::new(std::collections::HashMap::new()),
            hook: OnceLock::new(),
            stats: TransportStats::registered(&obs.metrics),
        }
    }
}

/// Runs `hook` (if installed) for `dst`.
fn delivered(hook: &OnceLock<DeliveryHook>, dst: TileId) {
    if let Some(h) = hook.get() {
        h(dst);
    }
}

impl Transport for LocalTransport {
    fn register(&self, tile: TileId) -> Mailbox {
        let (tx, rx) = channel::unbounded();
        let old = self.senders.write().insert(tile, tx);
        if old.is_some() {
            drop(old);
            delivered(&self.hook, tile);
        }
        Mailbox { tile, rx }
    }

    fn set_delivery_hook(&self, hook: DeliveryHook) {
        let _ = self.hook.set(hook);
    }

    fn send_flow(
        &self,
        src: TileId,
        dst: TileId,
        payload: Vec<u8>,
        flow: u64,
    ) -> Result<(), SimError> {
        let tx = {
            let map = self.senders.read();
            map.get(&dst).cloned().ok_or_else(|| SimError::TransportClosed(dst.to_string()))?
        };
        match locality(&self.cfg, src, dst) {
            Locality::IntraProcess => self.stats.intra_process.incr(),
            Locality::InterProcess => self.stats.inter_process.incr(),
            Locality::InterMachine => self.stats.inter_machine.incr(),
        }
        self.stats.bytes.add(payload.len() as u64);
        let msg = Msg { src, dst, flow, payload: Bytes::from(payload) };
        tx.send(msg).map_err(|_| SimError::TransportClosed(dst.to_string()))?;
        delivered(&self.hook, dst);
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
        let m = mb.recv().unwrap();
        assert_eq!((m.src, m.dst), (TileId(0), TileId(2)));
        assert_eq!(m.payload.as_ref(), &[1, 2, 3]);
        assert_eq!(m.flow, 0); // plain send is flow-untracked
    }

    #[test]
    fn flow_id_round_trips_local() {
        let hub = LocalTransport::new(&cfg(4, 1, 1));
        let mb = hub.register(TileId(3));
        for flow in [1u64, 42, u64::MAX] {
            hub.send_flow(TileId(0), TileId(3), vec![], flow).unwrap();
            assert_eq!(mb.recv().unwrap().flow, flow);
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
            assert_eq!(mb.recv().unwrap().payload.as_ref(), &[i]);
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
    fn try_recv_and_timeout() {
        let hub = LocalTransport::new(&cfg(2, 1, 1));
        let mb = hub.register(TileId(1));
        assert!(mb.try_recv().is_none());
        assert!(mb.is_empty());
        assert_eq!(mb.recv_timeout(Duration::from_millis(5)).unwrap(), None);
        hub.send(TileId(0), TileId(1), vec![9]).unwrap();
        assert_eq!(mb.len(), 1);
        assert!(mb.try_recv().is_some());
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
