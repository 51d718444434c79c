//! TCP socket backend for the transport layer.
//!
//! The paper's transport uses TCP/IP sockets between host processes
//! (§3.3.1). This backend reproduces that wire path: each simulated host
//! process owns a loopback TCP listener; messages whose source and
//! destination live in different processes are framed, written to a real
//! socket, read back on the destination process's side, and only then
//! delivered to the tile's mailbox. Intra-process traffic short-cuts
//! through memory, exactly as shared-memory delivery does in Graphite.
//!
//! The backend owns no thread. Listeners and streams are non-blocking and
//! sit in the wire of one [`WaitSet`] from their bind or accept on, armed
//! one-shot so one reader takes each at a time. The simulator's scheduler
//! carriers read them: [`TcpTransport::ready`] takes each source that
//! their idle wait reports, or that a [`WaitSet::sweep`] between two guest
//! contexts finds. Outbound streams connect on the first send, with
//! bounded backoff.
//!
//! The framing is a length-prefixed binary header:
//! `len:u32 | src tile:u32 | dst tile:u32 | flow:u64 | payload`, with `len`
//! (the rest of the frame) at most [`MAX_FRAME`]. The flow word carries the
//! causal flow ID end-to-end so cross-process hops stay attributable to the
//! flow that caused them.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use graphite_base::{SimError, SimRng, TileId};
use graphite_config::SimConfig;
use parking_lot::{Mutex, RwLock};

use crate::{DeliveryHook, Mailbox, Mailboxes, Msg, Transport, TransportStats, WaitSet};

/// Largest frame body (header plus payload). A cross-process send with a
/// larger payload fails; a length prefix above it closes the stream it
/// arrived on. Same-process sends are never framed, so it does not bound
/// them.
pub const MAX_FRAME: usize = 16 << 20;
/// Maximum connect attempts before a send gives up.
const MAX_CONNECT_ATTEMPTS: u32 = 8;
/// Base delay of the exponential backoff between connect attempts.
const BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Frame body header: source tile, destination tile, flow ID.
const HEADER: usize = 4 + 4 + 8;
/// Bytes one `read` of an inbound stream takes at most.
const READ_CHUNK: usize = 32 << 10;

/// Connects a non-blocking stream with bounded retries: exponential backoff
/// (`BACKOFF_BASE * 2^n`) plus uniform jitter drawn from `rng` so competing
/// senders do not retry in lock-step.
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
            std::thread::sleep(base + Duration::from_micros(jitter_us));
        }
        match TcpStream::connect(addr).and_then(|s| s.set_nonblocking(true).map(|()| s)) {
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
    Some(Msg { src: TileId(word(0)), dst: TileId(word(4)), flow, payload: body[HEADER..].to_vec() })
}

/// A length prefix above [`MAX_FRAME`]: nothing after it can be trusted.
#[derive(Debug)]
struct Oversize;

/// Reassembles frames from a byte stream read in arbitrary chunks. It keeps
/// only the incomplete tail of what was read, so a length prefix never
/// sizes an allocation.
#[derive(Debug, Default)]
struct Frames {
    tail: Vec<u8>,
}

impl Frames {
    /// Consumes `bytes`, handing each complete frame body (the bytes after
    /// its length prefix) to `frame`, in order.
    fn feed(&mut self, bytes: &[u8], mut frame: impl FnMut(&[u8])) -> Result<(), Oversize> {
        self.tail.extend_from_slice(bytes);
        let mut at = 0;
        while let Some(prefix) = self.tail.get(at..at + 4) {
            let len = u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME {
                return Err(Oversize);
            }
            let Some(body) = self.tail.get(at + 4..at + 4 + len) else { break };
            frame(body);
            at += 4 + len;
        }
        self.tail.drain(..at);
        Ok(())
    }
}

/// An accepted stream and its reassembly state. It is closed, never
/// removed, at end of file, on an error or on an oversize frame.
struct Inbound {
    stream: TcpStream,
    frames: Frames,
    chunk: Box<[u8]>,
    open: bool,
}

/// A listener, and its accept failures in a row. After
/// [`MAX_CONNECT_ATTEMPTS`] it is not re-armed: a connection it cannot
/// accept (EMFILE) keeps it readable, and every wait would return at once.
struct Listener {
    socket: TcpListener,
    failures: AtomicU32,
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
/// // tile0 lives in process 0, so this send crosses a real socket...
/// hub.send(TileId(0), TileId(1), vec![7]).unwrap();
/// assert_eq!(hub.stats().inter_process.get() + hub.stats().inter_machine.get(), 1);
/// // ...and arrives once something reads the wire: here, this thread.
/// while mb.is_empty() {
///     hub.waits().wait(None, &mut |token| {
///         hub.ready(token, &mut |_| {});
///     });
/// }
/// assert_eq!(mb.try_recv().unwrap().payload, [7]);
/// ```
pub struct TcpTransport {
    cfg: SimConfig,
    boxes: Mailboxes,
    /// One non-blocking listener per simulated process; listener `i` is in
    /// the wait set as token `i`.
    listeners: Vec<Listener>,
    addrs: Vec<SocketAddr>,
    /// Accepted streams, in accept order; stream `i` is in the wait set as
    /// token `listeners.len() + i` from its accept on.
    inbound: RwLock<Vec<Arc<Mutex<Inbound>>>>,
    /// One lazily-connected, non-blocking outbound stream per destination
    /// process.
    outbound: Vec<Mutex<Option<TcpStream>>>,
    /// Jitter source for connect backoff.
    rng: Mutex<SimRng>,
    stats: TransportStats,
    waits: OnceLock<Arc<WaitSet>>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("processes", &self.addrs.len())
            .field("inbound", &self.inbound.read().len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl TcpTransport {
    /// Binds one non-blocking loopback listener per simulated process.
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
        let bind = |e: io::Error| SimError::TransportClosed(format!("bind: {e}"));
        let (mut listeners, mut addrs) = (Vec::new(), Vec::new());
        for _ in 0..cfg.num_processes {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(bind)?;
            listener.set_nonblocking(true).map_err(bind)?;
            addrs.push(listener.local_addr().map_err(bind)?);
            listeners.push(Listener { socket: listener, failures: AtomicU32::new(0) });
        }
        Ok(TcpTransport {
            cfg: cfg.clone(),
            boxes: Mailboxes::default(),
            listeners,
            addrs,
            inbound: RwLock::new(Vec::new()),
            outbound: (0..cfg.num_processes).map(|_| Mutex::new(None)).collect(),
            rng: Mutex::new(SimRng::new(cfg.seed ^ 0x7C9_7C9)),
            stats,
            waits: OnceLock::new(),
        })
    }

    /// The wait set whose wire holds the listeners and streams; what it
    /// reports goes to [`Self::ready`]. Made on first use, so a built `Sim`
    /// that never runs pays nothing for it; panics if the kernel refuses
    /// its descriptors (`EMFILE`).
    pub fn waits(&self) -> &Arc<WaitSet> {
        self.waits.get_or_init(|| {
            let set = WaitSet::new().expect("create the wire's wait set");
            for (token, listener) in self.listeners.iter().enumerate() {
                set.add(listener.socket.as_fd(), token as u64).expect("watch a listener");
            }
            Arc::new(set)
        })
    }

    /// Takes the source the wait set reported as `token`: accepts on a
    /// listener, or reads a stream, until it has nothing more, then re-arms
    /// it. Each delivered frame is reported to `delivered` *instead of* the
    /// delivery hook.
    pub fn ready(&self, token: u64, delivered: &mut dyn FnMut(TileId)) {
        let at = token as usize;
        if let Some(listener) = self.listeners.get(at) {
            return self.accept_all(token, listener);
        }
        if let Some(stream) = self.inbound.read().get(at - self.listeners.len()).cloned() {
            self.read_stream(token, &mut stream.lock(), delivered);
        }
    }

    /// Accepts every pending connection, then re-arms the listener unless
    /// it has failed [`MAX_CONNECT_ATTEMPTS`] times in a row.
    fn accept_all(&self, token: u64, listener: &Listener) {
        let failing = || listener.failures.load(Ordering::Relaxed) >= MAX_CONNECT_ATTEMPTS;
        while !failing() {
            match listener.socket.accept() {
                Ok((stream, _)) => {
                    listener.failures.store(0, Ordering::Relaxed);
                    self.adopt(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // A failure (ECONNABORTED, EMFILE) is retried when the
                // re-armed listener is reported again.
                Err(_) => {
                    listener.failures.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
        if !failing() {
            self.waits().rearm(listener.socket.as_fd(), token);
        }
    }

    /// Adds an accepted stream to the set; data already there is reported.
    fn adopt(&self, stream: TcpStream) {
        let Ok(()) = stream.set_nonblocking(true) else { return };
        let chunk = vec![0; READ_CHUNK].into_boxed_slice();
        let inbound = Inbound { stream, frames: Frames::default(), chunk, open: true };
        let inbound = Arc::new(Mutex::new(inbound));
        // In the list before it is in the set: the token must resolve.
        let mut all = self.inbound.write();
        all.push(Arc::clone(&inbound));
        let token = (self.listeners.len() + all.len() - 1) as u64;
        self.waits().add(inbound.lock().stream.as_fd(), token).expect("watch an accepted stream");
    }

    /// Reads `stream` until it has nothing more, delivering every complete
    /// frame, then re-arms it if it is still open. Its one reader holds its
    /// lock; no path takes that lock while holding a lock a delivery takes.
    fn read_stream(&self, token: u64, stream: &mut Inbound, delivered: &mut dyn FnMut(TileId)) {
        while stream.open {
            let Inbound { stream: socket, frames, chunk, .. } = &mut *stream;
            let len = match socket.read(chunk) {
                Ok(len) => len, // 0: the peer hung up
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => 0,
            };
            let fed = frames.feed(&chunk[..len], |body| match decode(body) {
                Some(msg) => {
                    let dst = msg.dst;
                    if self.boxes.push(msg).is_ok() {
                        delivered(dst);
                    }
                }
                None => self.stats.rejected_frames.incr(),
            });
            if len == 0 || fed.is_err() {
                if fed.is_err() {
                    self.stats.rejected_frames.incr();
                }
                // Shut down, so the peer's next write fails and it
                // reconnects instead of filling a socket nobody reads.
                stream.open = false;
                stream.stream.shutdown(std::net::Shutdown::Both).ok();
                stream.frames = Frames::default();
                break;
            }
            if len < chunk.len() {
                // A short read: the socket is empty for now. Data that
                // lands before the re-arm is reported by the re-arm.
                break;
            }
        }
        if stream.open {
            self.waits().rearm(stream.stream.as_fd(), token);
        }
    }

    /// Writes all of `frame`. A write that would block sleeps until there
    /// is room or the wire has something, and reads the wire (the frames
    /// filling the peer's buffer may be waiting for this very thread).
    fn write_frame(&self, stream: &mut TcpStream, frame: &[u8]) -> io::Result<()> {
        let mut sent = 0;
        while sent < frame.len() {
            match stream.write(&frame[sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.waits().wait_writable(stream.as_fd())?;
                    for token in self.waits().sweep() {
                        self.ready(token, &mut |dst| self.boxes.notify(dst));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl Transport for TcpTransport {
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
        let (sp, dp) = (self.cfg.process_of_tile(src.0), self.cfg.process_of_tile(dst.0));
        if sp != dp && HEADER + payload.len() > MAX_FRAME {
            return Err(SimError::TransportClosed(format!(
                "message to {dst}: {} payload bytes exceed the {MAX_FRAME}-byte frame limit",
                payload.len()
            )));
        }
        self.stats.count(&self.cfg, src, dst, payload.len());
        if sp == dp {
            // Intra-process: deliver through memory, like Graphite's
            // same-process shortcut.
            self.boxes.push(Msg { src, dst, flow, payload })?;
            self.boxes.notify(dst);
            return Ok(());
        }
        let frame = encode(src, dst, flow, &payload);
        let dp = dp as usize;
        let mut guard = self.outbound[dp].lock();
        if guard.is_none() {
            *guard = Some(connect_with_backoff(self.addrs[dp], dst, &self.rng)?);
        }
        let stream = guard.as_mut().expect("stream just connected");
        if self.write_frame(stream, &frame).is_ok() {
            return Ok(());
        }
        // The cached stream died (peer reset, half-closed socket). Drop it,
        // reconnect with backoff, and send the whole frame again.
        *guard = None;
        self.stats.reconnects.incr();
        let mut fresh = connect_with_backoff(self.addrs[dp], dst, &self.rng)?;
        self.write_frame(&mut fresh, &frame)
            .map_err(|e| SimError::TransportClosed(format!("write {dst}: {e}")))?;
        *guard = Some(fresh);
        Ok(())
    }

    fn stats(&self) -> &TransportStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::time::Instant;

    fn cfg(tiles: u32, procs: u32, machines: u32) -> SimConfig {
        let mut c = graphite_config::presets::paper_default(tiles);
        c.num_processes = procs;
        c.host.num_machines = machines;
        c
    }

    /// Reads the wire as a caller with no scheduler would: waits in the set
    /// until a message is delivered (running the delivery hook) or
    /// `timeout` passes; returns the messages delivered.
    fn pump(hub: &TcpTransport, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        let mut n = 0;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            hub.waits().wait(Some(left), &mut |token| {
                hub.ready(token, &mut |dst| {
                    hub.boxes.notify(dst);
                    n += 1;
                });
            });
            if n > 0 || left.is_zero() {
                return n;
            }
        }
    }

    /// Pumps the wire until `mb` holds a message (5 s cap) and takes it.
    fn recv(hub: &TcpTransport, mb: &Mailbox) -> Msg {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(msg) = mb.try_recv() {
                return msg;
            }
            let left = deadline.checked_duration_since(Instant::now()).expect("delivered in 5 s");
            pump(hub, left);
        }
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
                    assert_eq!(msg.payload, payload);
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
        let msg = recv(&hub, &mb);
        assert_eq!(msg.payload, [42]);
        assert_eq!(msg.flow, 777);
        assert_eq!(hub.stats().inter_process.get(), 1);
        assert_eq!(hub.inbound.read().len(), 1, "the accept added one stream to the set");
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
        let msg = recv(&hub, &mb);
        assert_eq!(msg.payload, [9]);
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
        assert_eq!(hits[1].load(Ordering::SeqCst), 0, "nothing reads the wire until a pump");
        recv(&hub, &mb1);
        // The pump that read the frame enqueued it, then ran the hook.
        assert_eq!(hits[1].load(Ordering::SeqCst), 1);
    }

    #[test]
    fn many_messages_in_order_across_socket() {
        let hub = TcpTransport::new(&cfg(2, 2, 2)).unwrap();
        let mb = hub.register(TileId(1));
        for i in 0..100u8 {
            hub.send(TileId(0), TileId(1), vec![i]).unwrap();
        }
        for i in 0..100u8 {
            let m = recv(&hub, &mb);
            assert_eq!(m.payload, [i]);
        }
        assert_eq!(hub.stats().inter_machine.get(), 100);
    }

    #[test]
    fn a_burst_larger_than_the_socket_buffers_drains_through_the_writer() {
        // Nothing pumps the wire while the sender writes 16 MiB: each write
        // that would block must read the wire itself, or this never returns.
        let hub = TcpTransport::new(&cfg(2, 2, 1)).unwrap();
        let mb = hub.register(TileId(1));
        let count = (16 << 20) / 1024;
        for i in 0..count {
            hub.send(TileId(0), TileId(1), (i as u32).to_le_bytes().repeat(256)).unwrap();
        }
        for i in 0..count {
            assert_eq!(recv(&hub, &mb).payload[..4], (i as u32).to_le_bytes(), "in order");
        }
        assert!(mb.is_empty());
    }

    #[test]
    fn lying_length_prefix_closes_the_stream_without_allocating() {
        let hub = TcpTransport::new(&cfg(4, 2, 1)).unwrap();
        let mb = hub.register(TileId(1));
        // A hostile peer announces a 4 GiB frame on process 1's listener.
        let mut rogue = TcpStream::connect(hub.addrs[1]).unwrap();
        rogue.write_all(&u32::MAX.to_le_bytes()).unwrap();
        rogue.write_all(&[0; 64]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while hub.stats().rejected_frames.get() == 0 {
            assert!(Instant::now() < deadline, "the oversize prefix was never read");
            pump(&hub, Duration::from_millis(100));
        }
        let closed = hub.inbound.read().iter().filter(|s| !s.lock().open).count();
        assert_eq!(closed, 1, "the lying stream is closed");
        // The hub's own connection is unaffected.
        hub.send(TileId(0), TileId(1), vec![3]).unwrap();
        assert_eq!(recv(&hub, &mb).payload, [3]);
        // A frame body shorter than its header is dropped and counted too.
        let mut short = TcpStream::connect(hub.addrs[1]).unwrap();
        short.write_all(&3u32.to_le_bytes()).unwrap();
        short.write_all(&[1, 2, 3]).unwrap();
        while hub.stats().rejected_frames.get() == 1 {
            assert!(Instant::now() < deadline, "the short frame was never read");
            pump(&hub, Duration::from_millis(100));
        }
        assert!(mb.is_empty());
    }

    #[test]
    fn oversized_payload_is_refused_before_the_wire() {
        let hub = TcpTransport::new(&cfg(4, 2, 1)).unwrap();
        let _mb = hub.register(TileId(1));
        let err = hub.send(TileId(0), TileId(1), vec![0; MAX_FRAME]).unwrap_err();
        assert!(matches!(err, SimError::TransportClosed(s) if s.contains("frame limit")));
        assert_eq!(hub.stats().total_messages(), 0);
        assert!(hub.outbound[1].lock().is_none(), "no connection was made");
        // A same-process message is never framed: the limit does not apply,
        // as on the in-memory transport.
        let mb2 = hub.register(TileId(2));
        hub.send(TileId(0), TileId(2), vec![0; MAX_FRAME]).unwrap();
        assert_eq!(mb2.try_recv().unwrap().payload.len(), MAX_FRAME);
    }

    #[test]
    fn a_listener_that_keeps_failing_leaves_the_poll_sets() {
        let hub = TcpTransport::new(&cfg(4, 2, 1)).unwrap();
        hub.listeners[1].failures.store(MAX_CONNECT_ATTEMPTS, Ordering::Relaxed);
        // The pending connection keeps the listener readable: were it
        // re-armed after the report it was armed for at bind, the next wait
        // would report it again at once.
        let _pending = TcpStream::connect(hub.addrs[1]).unwrap();
        let mut reported = Vec::new();
        hub.waits().wait(Some(Duration::from_secs(5)), &mut |token| reported.push(token));
        assert_eq!(reported, [1]);
        hub.ready(1, &mut |_| {});
        let t0 = Instant::now();
        hub.waits().wait(Some(Duration::from_millis(50)), &mut |t| panic!("{t} reported again"));
        assert!(t0.elapsed() >= Duration::from_millis(50), "the wait ran out its timeout");
        assert!(hub.inbound.read().is_empty(), "nothing was accepted");
    }

    #[test]
    fn an_idle_wait_returns_for_its_wake_pipe() {
        let hub = TcpTransport::new(&cfg(4, 2, 1)).unwrap();
        let set = hub.waits();
        let t0 = Instant::now();
        let quiet = &mut |_| panic!("nothing is on the wire");
        assert!(!set.wait(Some(Duration::from_millis(20)), quiet));
        assert!(t0.elapsed() >= Duration::from_millis(20), "nothing was ready: a timeout");
        set.wake();
        assert!(set.wait(None, &mut |_| {}), "the wake byte ends the wait");
    }

    /// Frames as `(src, dst, flow, payload)`.
    fn frames_strategy() -> impl Strategy<Value = Vec<(u32, u32, u64, Vec<u8>)>> {
        proptest::collection::vec(
            (
                any::<u32>(),
                any::<u32>(),
                any::<u64>(),
                proptest::collection::vec(any::<u8>(), 0..40),
            ),
            0..12,
        )
    }

    /// Feeds `bytes` to a reassembler in the chunks `cuts` marks; returns
    /// the frame bodies it gave back, or `None` once it reports an oversize
    /// prefix. Checks on the way that it never holds more than it was fed.
    fn reassemble(bytes: &[u8], cuts: &[usize]) -> Option<Vec<Vec<u8>>> {
        let mut frames = Frames::default();
        let mut bodies = Vec::new();
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
        cuts.push(bytes.len());
        cuts.sort_unstable();
        let mut at = 0;
        for cut in cuts {
            let chunk = &bytes[at..cut];
            let ok = frames.feed(chunk, |body| bodies.push(body.to_vec()));
            assert!(frames.tail.len() <= cut, "holds {} of {cut} bytes fed", frames.tail.len());
            ok.ok()?;
            at = cut;
        }
        Some(bodies)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn reassembly_returns_exactly_the_encoded_frames(
            msgs in frames_strategy(),
            cuts in proptest::collection::vec(any::<usize>(), 0..16),
        ) {
            let wire: Vec<u8> = msgs.iter()
                .flat_map(|(s, d, f, p)| encode(TileId(*s), TileId(*d), *f, p))
                .collect();
            let bodies = reassemble(&wire, &cuts).expect("valid frames are never oversize");
            prop_assert_eq!(bodies.len(), msgs.len());
            for (body, (s, d, f, p)) in bodies.iter().zip(&msgs) {
                let msg = decode(body).expect("a whole frame decodes");
                prop_assert_eq!((msg.src, msg.dst, msg.flow), (TileId(*s), TileId(*d), *f));
                prop_assert_eq!(&msg.payload, p);
            }
        }

        #[test]
        fn reassembly_of_arbitrary_bytes_never_panics_or_overbuffers(
            // Low byte values make plausible length prefixes, so frames are
            // found and cut; full-range ones mostly make oversize prefixes.
            bytes in prop_oneof![
                proptest::collection::vec(any::<u8>(), 0..256),
                proptest::collection::vec(0u8..3, 0..256),
            ],
            cuts in proptest::collection::vec(any::<usize>(), 0..16),
        ) {
            // Bodies found along the way may be anything; decoding them must
            // not panic either.
            if let Some(bodies) = reassemble(&bytes, &cuts) {
                for body in bodies {
                    let _ = decode(&body);
                }
            }
        }
    }
}
