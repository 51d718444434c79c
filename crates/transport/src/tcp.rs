//! TCP socket backend for the transport layer.
//!
//! The paper's transport uses TCP/IP sockets between host processes
//! (§3.3.1). This backend reproduces that wire path: each simulated host
//! process owns a loopback TCP listener; messages whose source and
//! destination live in different processes are framed, written to a real
//! socket, read back by the destination process's reader thread, and only
//! then delivered to the endpoint mailbox. Intra-process traffic short-cuts
//! through memory, exactly as shared-memory delivery does in Graphite.
//!
//! The framing is a length-prefixed binary header:
//! `len:u32 | src tile:u32 | dst tile:u32 | flow:u64 | payload`. The flow
//! word carries the causal flow ID end-to-end so cross-process hops stay
//! attributable to the flow that caused them.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use crossbeam::channel::{self, Sender};
use graphite_base::{SimError, SimRng, TileId};
use graphite_config::SimConfig;
use parking_lot::{Mutex, RwLock};

use crate::{delivered, DeliveryHook, Mailbox, Msg, Transport, TransportStats};

/// Maximum connect attempts before a send gives up.
const MAX_CONNECT_ATTEMPTS: u32 = 8;
/// Base delay of the exponential backoff between connect attempts.
const BACKOFF_BASE: std::time::Duration = std::time::Duration::from_millis(1);
/// Frame body header: source tile, destination tile, flow ID.
const HEADER: usize = 4 + 4 + 8;

/// Connects with bounded retries: exponential backoff (`BACKOFF_BASE * 2^n`)
/// plus uniform jitter drawn from `rng` so competing senders do not retry in
/// lock-step.
fn connect_with_backoff(
    addr: SocketAddr,
    dst: TileId,
    rng: &Mutex<SimRng>,
) -> Result<TcpStream, SimError> {
    let mut last_err = None;
    for attempt in 0..MAX_CONNECT_ATTEMPTS {
        if attempt > 0 {
            let base = BACKOFF_BASE.saturating_mul(1 << (attempt - 1));
            let jitter_us = rng.lock().gen_range(base.as_micros() as u64 + 1);
            std::thread::sleep(base + std::time::Duration::from_micros(jitter_us));
        }
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return Ok(stream);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(SimError::TransportClosed(format!(
        "connect {dst}: giving up after {MAX_CONNECT_ATTEMPTS} attempts: {}",
        last_err.expect("at least one attempt")
    )))
}

fn encode(src: TileId, dst: TileId, flow: u64, payload: &[u8]) -> Vec<u8> {
    let body_len = HEADER + payload.len();
    let mut buf = Vec::with_capacity(4 + body_len);
    buf.extend_from_slice(&(body_len as u32).to_le_bytes());
    buf.extend_from_slice(&src.0.to_le_bytes());
    buf.extend_from_slice(&dst.0.to_le_bytes());
    buf.extend_from_slice(&flow.to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

fn decode(body: &[u8]) -> Option<Msg> {
    let word = |at: usize| u32::from_le_bytes(body[at..at + 4].try_into().expect("4 bytes"));
    if body.len() < HEADER {
        return None;
    }
    let flow = u64::from_le_bytes(body[8..HEADER].try_into().ok()?);
    let payload = Bytes::copy_from_slice(&body[HEADER..]);
    Some(Msg { src: TileId(word(0)), dst: TileId(word(4)), flow, payload })
}

/// A transport whose inter-process hops travel over real loopback TCP
/// sockets, one listener per simulated host process.
///
/// # Examples
///
/// ```
/// use graphite_base::TileId;
/// use graphite_transport::{tcp::TcpTransport, Transport};
///
/// let mut cfg = graphite_config::presets::paper_default(4);
/// cfg.num_processes = 2;
/// let hub = TcpTransport::new(&cfg).unwrap();
/// let mb = hub.register(TileId(1)); // tile1 lives in process 1
/// // tile0 lives in process 0, so this send crosses a real socket.
/// hub.send(TileId(0), TileId(1), vec![7]).unwrap();
/// assert_eq!(hub.stats().inter_process.get() + hub.stats().inter_machine.get(), 1);
/// assert_eq!(mb.recv().unwrap().payload.as_ref(), &[7]);
/// ```
pub struct TcpTransport {
    cfg: SimConfig,
    senders: Arc<RwLock<HashMap<TileId, Sender<Msg>>>>,
    /// The delivery hook, shared with the reader threads.
    hook: Arc<OnceLock<DeliveryHook>>,
    /// One lazily-connected outbound stream per destination process.
    outbound: Vec<Mutex<Option<TcpStream>>>,
    addrs: Vec<SocketAddr>,
    /// Jitter source for connect backoff.
    rng: Mutex<SimRng>,
    stats: TransportStats,
    shutdown: Arc<AtomicBool>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("processes", &self.addrs.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl TcpTransport {
    /// Binds one loopback listener per simulated process and starts their
    /// acceptor threads.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TransportClosed`] if a listener cannot be bound.
    pub fn new(cfg: &SimConfig) -> Result<Self, SimError> {
        Self::build(cfg, TransportStats::default())
    }

    /// Like [`TcpTransport::new`], with counters registered under
    /// `transport.*` in `obs.metrics`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TransportClosed`] if a listener cannot be bound.
    pub fn with_obs(cfg: &SimConfig, obs: &graphite_trace::Obs) -> Result<Self, SimError> {
        Self::build(cfg, TransportStats::registered(&obs.metrics))
    }

    fn build(cfg: &SimConfig, stats: TransportStats) -> Result<Self, SimError> {
        let senders: Arc<RwLock<HashMap<TileId, Sender<Msg>>>> =
            Arc::new(RwLock::new(HashMap::new()));
        let hook: Arc<OnceLock<DeliveryHook>> = Arc::new(OnceLock::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut addrs = Vec::new();
        for _ in 0..cfg.num_processes {
            let listener = TcpListener::bind("127.0.0.1:0")
                .map_err(|e| SimError::TransportClosed(format!("bind: {e}")))?;
            addrs.push(listener.local_addr().unwrap());
            let inbound = Inbound { senders: Arc::clone(&senders), hook: Arc::clone(&hook) };
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("graphite-tcp-accept".into())
                .spawn(move || acceptor_loop(listener, inbound, shutdown))
                .expect("spawn acceptor");
        }
        Ok(TcpTransport {
            cfg: cfg.clone(),
            senders,
            hook,
            outbound: (0..cfg.num_processes).map(|_| Mutex::new(None)).collect(),
            addrs,
            rng: Mutex::new(SimRng::new(cfg.seed ^ 0x7C9_7C9)),
            stats,
            shutdown,
        })
    }
}

/// What a reader thread delivers into: the mailboxes and the delivery hook.
#[derive(Clone)]
struct Inbound {
    senders: Arc<RwLock<HashMap<TileId, Sender<Msg>>>>,
    hook: Arc<OnceLock<DeliveryHook>>,
}

fn acceptor_loop(listener: TcpListener, inbound: Inbound, shutdown: Arc<AtomicBool>) {
    let mut consecutive_errors = 0u32;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.load(Ordering::Relaxed) {
                    return;
                }
                consecutive_errors = 0;
                let inbound = inbound.clone();
                std::thread::Builder::new()
                    .name("graphite-tcp-read".into())
                    .spawn(move || reader_loop(stream, inbound))
                    .expect("spawn reader");
            }
            Err(_) => {
                // Transient accept failures (EMFILE, ECONNABORTED) should not
                // kill the listener; back off briefly and retry, bounded so a
                // hard failure still terminates the thread.
                if shutdown.load(Ordering::Relaxed) {
                    return;
                }
                consecutive_errors += 1;
                if consecutive_errors > MAX_CONNECT_ATTEMPTS {
                    return;
                }
                std::thread::sleep(BACKOFF_BASE.saturating_mul(1 << (consecutive_errors - 1)));
            }
        }
    }
}

fn reader_loop(mut stream: TcpStream, inbound: Inbound) {
    let mut len_buf = [0u8; 4];
    loop {
        if stream.read_exact(&mut len_buf).is_err() {
            return; // peer closed
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        let mut body = vec![0u8; len];
        if stream.read_exact(&mut body).is_err() {
            return;
        }
        if let Some(msg) = decode(&body) {
            let dst = msg.dst;
            let tx = inbound.senders.read().get(&dst).cloned();
            if let Some(tx) = tx {
                if tx.send(msg).is_ok() {
                    delivered(&inbound.hook, dst);
                }
            }
        }
    }
}

impl Transport for TcpTransport {
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
        let (sp, dp) = (self.cfg.process_of_tile(src.0), self.cfg.process_of_tile(dst.0));
        self.stats.bytes.add(payload.len() as u64);
        if sp == dp {
            // Intra-process: deliver through memory, like Graphite's
            // same-process shortcut.
            self.stats.intra_process.incr();
            let tx = self
                .senders
                .read()
                .get(&dst)
                .cloned()
                .ok_or_else(|| SimError::TransportClosed(dst.to_string()))?;
            let msg = Msg { src, dst, flow, payload: Bytes::from(payload) };
            tx.send(msg).map_err(|_| SimError::TransportClosed(dst.to_string()))?;
            delivered(&self.hook, dst);
            return Ok(());
        }
        if self.cfg.machine_of_process(sp) == self.cfg.machine_of_process(dp) {
            self.stats.inter_process.incr();
        } else {
            self.stats.inter_machine.incr();
        }
        let frame = encode(src, dst, flow, &payload);
        let mut guard = self.outbound[dp as usize].lock();
        if guard.is_none() {
            *guard = Some(connect_with_backoff(self.addrs[dp as usize], dst, &self.rng)?);
        }
        let stream = guard.as_mut().expect("stream just connected");
        if stream.write_all(&frame).is_ok() {
            return Ok(());
        }
        // The cached stream died (peer reset, half-closed socket). Drop it,
        // reconnect with backoff, and retry the frame once.
        *guard = None;
        self.stats.reconnects.incr();
        let mut fresh = connect_with_backoff(self.addrs[dp as usize], dst, &self.rng)?;
        fresh
            .write_all(&frame)
            .map_err(|e| SimError::TransportClosed(format!("write {dst}: {e}")))?;
        *guard = Some(fresh);
        Ok(())
    }

    fn stats(&self) -> &TransportStats {
        &self.stats
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Unblock each acceptor with a dummy connection.
        for addr in &self.addrs {
            let _ = TcpStream::connect(*addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cfg(tiles: u32, procs: u32, machines: u32) -> SimConfig {
        let mut c = graphite_config::presets::paper_default(tiles);
        c.num_processes = procs;
        c.host.num_machines = machines;
        c
    }

    #[test]
    fn encode_decode_roundtrip() {
        for (src, dst) in [(5, 0), (0, 3), (7, 1000), (u32::MAX, 0)] {
            let (src, dst) = (TileId(src), TileId(dst));
            for flow in [0u64, 1, u64::MAX] {
                for payload in [&b"payload!"[..], &[]] {
                    let frame = encode(src, dst, flow, payload);
                    assert_eq!(frame[..4], ((frame.len() - 4) as u32).to_le_bytes());
                    let msg = decode(&frame[4..]).unwrap();
                    assert_eq!((msg.src, msg.dst, msg.flow), (src, dst, flow));
                    assert_eq!(msg.payload.as_ref(), payload);
                }
            }
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[]).is_none());
        assert!(decode(&[0; 11]).is_none()); // too short for the flow word
        assert!(decode(&[9; HEADER - 1]).is_none()); // one byte short of a header
        assert!(decode(&[9; HEADER]).is_some(), "a bare header is an empty message");
    }

    #[test]
    fn cross_process_message_travels_socket() {
        let hub = TcpTransport::new(&cfg(4, 2, 1)).unwrap();
        let mb = hub.register(TileId(1));
        hub.send_flow(TileId(0), TileId(1), vec![42], 777).unwrap();
        let msg = mb.recv_timeout(Duration::from_secs(5)).unwrap().expect("delivered");
        assert_eq!(msg.payload.as_ref(), &[42]);
        assert_eq!(msg.flow, 777);
        assert_eq!(hub.stats().inter_process.get(), 1);
    }

    #[test]
    fn intra_process_shortcuts_memory() {
        let hub = TcpTransport::new(&cfg(4, 2, 1)).unwrap();
        let mb = hub.register(TileId(2));
        // tiles 0 and 2 both map to process 0.
        hub.send_flow(TileId(0), TileId(2), vec![1], 5).unwrap();
        let msg = mb.try_recv().expect("delivered");
        assert_eq!(msg.flow, 5);
        assert_eq!(hub.stats().intra_process.get(), 1);
        assert_eq!(hub.stats().inter_process.get(), 0);
    }

    #[test]
    fn dead_cached_stream_reconnects_and_delivers() {
        let hub = TcpTransport::new(&cfg(4, 2, 1)).unwrap();
        let mb = hub.register(TileId(1));
        // Plant a half-dead outbound stream for process 1: connected to the
        // real listener, then shut down on our side so the next write fails.
        let dead = TcpStream::connect(hub.addrs[1]).unwrap();
        dead.shutdown(std::net::Shutdown::Both).unwrap();
        *hub.outbound[1].lock() = Some(dead);

        hub.send_flow(TileId(0), TileId(1), vec![9], 31).unwrap();
        let msg = mb.recv_timeout(Duration::from_secs(5)).unwrap().expect("delivered");
        assert_eq!(msg.payload.as_ref(), &[9]);
        assert_eq!(msg.flow, 31);
        assert_eq!(hub.stats().reconnects.get(), 1);
    }

    #[test]
    fn connect_backoff_gives_up_with_typed_error() {
        // Bind then drop a listener: the port is (momentarily) dead, so every
        // attempt is refused and the bounded backoff must give up.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let rng = Mutex::new(SimRng::new(7));
        let err = connect_with_backoff(addr, TileId(1), &rng).unwrap_err();
        assert!(matches!(err, SimError::TransportClosed(s) if s.contains("giving up")));
    }

    #[test]
    fn delivery_hook_runs_on_both_paths() {
        use std::sync::atomic::AtomicUsize;
        let hub = TcpTransport::new(&cfg(4, 2, 1)).unwrap();
        let mb1 = hub.register(TileId(1));
        let _mb2 = hub.register(TileId(2));
        let hits = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0)]);
        let h = Arc::clone(&hits);
        hub.set_delivery_hook(Arc::new(move |dst| {
            h[dst.index()].fetch_add(1, Ordering::SeqCst);
        }));
        let (t0, t1, t2) = (TileId(0), TileId(1), TileId(2));
        hub.send(t0, t2, vec![1]).unwrap(); // same process: memory
        assert_eq!(hits[2].load(Ordering::SeqCst), 1);
        hub.send(t0, t1, vec![2]).unwrap(); // across the socket
        mb1.recv_timeout(Duration::from_secs(5)).unwrap().expect("delivered");
        // The reader thread enqueues, then runs the hook.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while hits[1].load(Ordering::SeqCst) == 0 {
            assert!(std::time::Instant::now() < deadline, "reader never ran the hook");
            std::thread::yield_now();
        }
    }

    #[test]
    fn many_messages_in_order_across_socket() {
        let hub = TcpTransport::new(&cfg(2, 2, 2)).unwrap();
        let mb = hub.register(TileId(1));
        for i in 0..100u8 {
            hub.send(TileId(0), TileId(1), vec![i]).unwrap();
        }
        for i in 0..100u8 {
            let m = mb.recv_timeout(Duration::from_secs(5)).unwrap().expect("msg");
            assert_eq!(m.payload.as_ref(), &[i]);
        }
        assert_eq!(hub.stats().inter_machine.get(), 100);
    }
}
