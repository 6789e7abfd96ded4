//! Host-level tunnels carrying frames between compute hosts.
//!
//! "Typhoon leverages host-level TCP tunnels which interconnect different
//! compute hosts … used to reliably carry data tuples exchanged across
//! hosts over the network, and to hide Typhoon's custom transport protocol
//! format from the underlying physical network" (§3.3.1).
//!
//! Two implementations sit behind the [`Tunnel`] trait:
//!
//! * [`TcpTunnel`] — a real TCP connection (loopback in experiments) with
//!   4-byte length-prefixed framing and a background reader thread. This is
//!   the REMOTE configuration of Fig. 8.
//! * [`InMemoryTunnel`] — an in-process pipe with identical semantics,
//!   used for deterministic tests and as a faster LOCAL-style transport.
//!
//! Both receive one way: an endpoint given a [`TunnelIngress`]
//! ([`Tunnel::set_ingress`]) hands each arrival to it on the thread that
//! delivered it — the TCP reader that decoded the batch, or the in-memory
//! peer's sender — so frames reach the switch's match-action path without
//! waking anyone. Until then arrivals queue for [`Tunnel::try_recv`]; the
//! ingress is handed that backlog first. The queue is unbounded, as a
//! socket buffer is: a tunnel is a reliable ordered pipe, and a ring sheds
//! on overflow.

use crate::doorbell::{BellSlot, Doorbell};
use crate::frame::Frame;
use crate::{NetError, Result, TeardownCause};
use bytes::{BufMut, Bytes, BytesMut};
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use typhoon_diag::{rank, DiagMutex as Mutex};
use typhoon_metrics::{Counter, Registry};

/// Upper bound on a tunnelled frame, to stop a corrupt length prefix from
/// allocating gigabytes.
const MAX_TUNNEL_FRAME: usize = 64 * 1024 * 1024;

/// TCP tunnel tunables.
#[derive(Debug, Clone, Copy)]
pub struct TunnelConfig {
    /// Upper bound on one blocking socket write. A stalled peer (zero
    /// window, dead NIC) must not block `send` forever while the sender
    /// holds the writer mutex; when the timeout fires the tunnel is
    /// poisoned with [`TeardownCause::WriteTimeout`] and fails fast.
    ///
    /// The default is generous on purpose: the timeout guards against a
    /// peer that *stopped reading*, not against transient backpressure or
    /// scheduler starvation on a loaded box — a false positive here tears
    /// a healthy tunnel down. Deployments wanting faster stall detection
    /// lower it explicitly ([`TcpTunnel::pair_with`]).
    pub write_timeout: Duration,
}

impl Default for TunnelConfig {
    fn default() -> Self {
        TunnelConfig {
            write_timeout: Duration::from_secs(30),
        }
    }
}

/// The poisoned ("broken") state of a tunnel. The first fault wins; its
/// cause is echoed by every later operation.
#[derive(Debug, Default)]
struct BrokenFlag {
    // 0 = healthy, otherwise 1 + TeardownCause discriminant.
    cause: AtomicU8,
}

impl BrokenFlag {
    fn encode(cause: TeardownCause) -> u8 {
        match cause {
            TeardownCause::PeerClosed => 1,
            TeardownCause::CorruptLength => 2,
            TeardownCause::DecodeError => 3,
            TeardownCause::Io => 4,
            TeardownCause::WriteTimeout => 5,
            TeardownCause::Partitioned => 6,
        }
    }

    fn decode(v: u8) -> Option<TeardownCause> {
        match v {
            1 => Some(TeardownCause::PeerClosed),
            2 => Some(TeardownCause::CorruptLength),
            3 => Some(TeardownCause::DecodeError),
            4 => Some(TeardownCause::Io),
            5 => Some(TeardownCause::WriteTimeout),
            6 => Some(TeardownCause::Partitioned),
            _ => None,
        }
    }

    /// Records `cause` if the tunnel was healthy; returns whether this
    /// call was the one that poisoned it.
    fn poison(&self, cause: TeardownCause) -> bool {
        self.cause
            .compare_exchange(0, Self::encode(cause), Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    fn get(&self) -> Option<TeardownCause> {
        Self::decode(self.cause.load(Ordering::Acquire))
    }
}

/// State shared between the send path, the reader thread and `Drop`.
struct TunnelShared {
    broken: BrokenFlag,
    /// This endpoint's `net.tunnel.*` counters: traffic totals plus one
    /// `net.tunnel.teardown.<cause>` per cause the endpoint observes
    /// itself, so operators can tell a clean peer close from corruption,
    /// I/O failure or a write stall.
    registry: Registry,
    sent: Counter,
    received: Counter,
    rejected_sends: Counter,
    inbox: Inbox,
}

impl TunnelShared {
    fn new() -> Self {
        let registry = Registry::new();
        for cause in OWN_CAUSES {
            registry.counter(&format!("net.tunnel.teardown.{cause}"));
        }
        TunnelShared {
            broken: BrokenFlag::default(),
            sent: registry.counter("net.tunnel.sent"),
            received: registry.counter("net.tunnel.received"),
            rejected_sends: registry.counter("net.tunnel.rejected_sends"),
            inbox: Inbox::default(),
            registry,
        }
    }

    fn teardown(&self, cause: TeardownCause) {
        // Looked up before the poison is published: a poller that sees the
        // cause then finds its count one add later, not one lookup later.
        let counter = self
            .registry
            .counter(&format!("net.tunnel.teardown.{cause}"));
        if self.broken.poison(cause) {
            counter.inc();
        }
        // The owner learns of the teardown from its next `try_recv`.
        self.inbox.bell.ring();
    }
}

/// The causes a TCP endpoint observes itself. Partitions are injected
/// above the TCP layer and counted by the injector (`chaos.partitioned`).
const OWN_CAUSES: [TeardownCause; 5] = [
    TeardownCause::PeerClosed,
    TeardownCause::CorruptLength,
    TeardownCause::DecodeError,
    TeardownCause::Io,
    TeardownCause::WriteTimeout,
];

/// Where an endpoint puts what it receives once given one
/// ([`Tunnel::set_ingress`]): called on the delivering thread with each
/// batch, in arrival order. It takes the frames, leaving the vector empty.
pub type TunnelIngress = Arc<dyn Fn(&mut Vec<Frame>) + Send + Sync>;

/// An endpoint's receive side: what arrives is handed to the ingress on
/// the delivering thread, or queued until one is set.
struct Inbox {
    /// Set only once the backlog was handed over, which it then precedes.
    ingress: OnceLock<TunnelIngress>,
    /// The backlog, pushed under `rx`'s lock: `set_ingress` holds it while
    /// it hands the backlog over, so it ranks below what the ingress takes.
    tx: Sender<Frame>,
    rx: Mutex<Receiver<Frame>>,
    /// The endpoint dropped: deliveries are refused.
    closed: AtomicBool,
    /// The bell given with the ingress, rung on teardown.
    bell: BellSlot,
}

impl Default for Inbox {
    fn default() -> Self {
        let (tx, rx) = channel(); // LINT: allow-unbounded(a tunnel mirrors TCP socket buffering; rings bound in-flight tuples upstream)
        Inbox {
            ingress: OnceLock::new(),
            tx,
            rx: Mutex::with_rank(rank::TUNNEL_INBOX, "net.tunnel.inbox", rx),
            closed: AtomicBool::new(false),
            bell: BellSlot::default(),
        }
    }
}

impl Inbox {
    /// Hands `frames` to the ingress, or queues them until one is set;
    /// either way it empties `frames`. False once the endpoint dropped.
    fn deliver(&self, frames: &mut Vec<Frame>) -> bool {
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        // Unset, the ingress is read again under the lock `set_ingress` holds.
        let _rx = self.ingress.get().is_none().then(|| self.rx.lock());
        match self.ingress.get() {
            Some(ingress) if !frames.is_empty() => {
                ingress(frames);
                frames.clear();
            }
            Some(_) => {}
            // LINT: allow-send-under-lock(an unbounded send never blocks; the lock orders it before set_ingress's hand-over)
            None => frames.drain(..).for_each(|frame| drop(self.tx.send(frame))),
        }
        true
    }

    /// The first ingress wins: it is handed the backlog, then every later
    /// arrival. `bell` is registered after, and rung by that.
    fn set_ingress(&self, ingress: TunnelIngress, bell: Doorbell) {
        let rx = self.rx.lock();
        if self.ingress.get().is_none() {
            let mut backlog: Vec<Frame> = rx.try_iter().collect();
            if !backlog.is_empty() {
                ingress(&mut backlog);
            }
            let _ = self.ingress.set(ingress);
        }
        drop(rx);
        self.bell.set(bell);
    }

    /// The next queued frame; once none is left, the error of
    /// `torn_down`, which the caller reads first: nothing is queued after
    /// a teardown.
    fn recv(&self, torn_down: Option<TeardownCause>) -> Result<Option<Frame>> {
        match (self.rx.lock().try_recv(), torn_down) {
            (Ok(f), _) => Ok(Some(f)),
            (Err(_), None) => Ok(None),
            (Err(_), Some(cause)) => Err(broken_error(cause)),
        }
    }
}

/// A reliable, ordered, bidirectional frame pipe between two hosts. Shared
/// between threads: every forwarding thread sends on it.
pub trait Tunnel: Send + Sync {
    /// Sends one frame to the peer host.
    fn send(&self, frame: &Frame) -> Result<()>;

    /// Receives one frame queued before [`Tunnel::set_ingress`], if any,
    /// or reports the teardown once none is left: `Ok(None)` while the
    /// tunnel is up and nothing is queued.
    fn try_recv(&self) -> Result<Option<Frame>>;

    /// Drains up to `max` pending frames into `out`; returns the count.
    fn recv_batch(&self, out: &mut Vec<Frame>, max: usize) -> Result<usize> {
        let mut n = 0;
        while n < max {
            match self.try_recv()? {
                Some(f) => {
                    out.push(f);
                    n += 1;
                }
                None => break,
            }
        }
        Ok(n)
    }

    /// Hands `ingress` what the endpoint queued so far, then every frame
    /// it receives from now on, each on the thread that delivered it. The
    /// first ingress wins. `bell` is rung now, on teardown and when a
    /// frame the endpoint holds back may be released; `try_recv` reports
    /// the teardown and releases such frames to the ingress.
    fn set_ingress(&self, ingress: TunnelIngress, bell: Doorbell);

    /// When a frame this endpoint holds back falls due, if one is held:
    /// its owner must call `try_recv` by then even if nothing rings.
    fn next_due(&self) -> Option<Instant> {
        None
    }
}

// ------------------------------------------------------------- in-memory

/// One endpoint of an in-memory tunnel. A send hands the frame to the
/// peer's ingress on the sending thread, or queues it until the peer has
/// one.
pub struct InMemoryTunnel {
    /// What the peer sends this endpoint.
    inbox: Arc<Inbox>,
    /// What this endpoint sends the peer.
    peer: Arc<Inbox>,
}

impl InMemoryTunnel {
    /// Creates a connected endpoint pair.
    pub fn pair() -> (InMemoryTunnel, InMemoryTunnel) {
        let (a, b) = (Arc::<Inbox>::default(), Arc::<Inbox>::default());
        (
            InMemoryTunnel {
                inbox: a.clone(),
                peer: b.clone(),
            },
            InMemoryTunnel { inbox: b, peer: a },
        )
    }
}

impl Tunnel for InMemoryTunnel {
    fn send(&self, frame: &Frame) -> Result<()> {
        match self.peer.deliver(&mut vec![frame.clone()]) {
            true => Ok(()),
            false => Err(NetError::Disconnected),
        }
    }

    fn try_recv(&self) -> Result<Option<Frame>> {
        let peer_gone = self.peer.closed.load(Ordering::Acquire);
        self.inbox
            .recv(peer_gone.then_some(TeardownCause::PeerClosed))
    }

    fn set_ingress(&self, ingress: TunnelIngress, bell: Doorbell) {
        self.inbox.set_ingress(ingress, bell);
    }
}

impl Drop for InMemoryTunnel {
    fn drop(&mut self) {
        self.inbox.closed.store(true, Ordering::Release);
        // The peer's `try_recv` now reports `Disconnected`.
        self.peer.bell.ring();
    }
}

// ------------------------------------------------------------------ TCP

/// One endpoint of a TCP tunnel. Writes are length-prefixed and mutex-
/// serialized; reads happen on a background thread that decodes frames and
/// hands them to the endpoint's [`TunnelIngress`], or queues them until it
/// has one. The thread starts with the endpoint's first consumer —
/// `set_ingress` or `try_recv` — and reads nothing off the socket before.
///
/// Fail-fast discipline: any write error (including a partial write that
/// left the stream misframed), write timeout, oversized length prefix or
/// decode error poisons the tunnel. A poisoned tunnel refuses every
/// further `send` with [`NetError::Broken`] immediately and `try_recv`
/// fails the same way once buffered frames are drained — it never
/// misframes and never hangs.
pub struct TcpTunnel {
    writer: Arc<Mutex<TcpStream>>,
    /// The reader thread's stream, until the first consumer starts it.
    reader: Mutex<Option<TcpStream>>,
    shared: Arc<TunnelShared>,
}

impl TcpTunnel {
    /// Wraps an established stream with default [`TunnelConfig`].
    pub fn from_stream(stream: TcpStream) -> Result<Self> {
        Self::from_stream_with(stream, TunnelConfig::default())
    }

    /// Wraps an established stream.
    pub fn from_stream_with(stream: TcpStream, config: TunnelConfig) -> Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(config.write_timeout))?;
        let reader_stream = stream.try_clone()?;
        Ok(TcpTunnel {
            writer: Arc::new(Mutex::with_rank(rank::TUNNEL, "net.tunnel.writer", stream)),
            reader: Mutex::with_rank(rank::TUNNEL, "net.tunnel.reader", Some(reader_stream)),
            shared: Arc::new(TunnelShared::new()),
        })
    }

    /// Starts the reader thread if no consumer has yet.
    fn start_reader(&self) {
        let Some(stream) = self.reader.lock().take() else {
            return;
        };
        let shared = self.shared.clone();
        typhoon_diag::spawn_supervised(
            "tcp-tunnel-reader",
            |_event| {},
            move || Self::reader_loop(stream, shared),
        );
    }

    /// Creates a connected loopback pair (convenience for tests/benches).
    pub fn pair() -> Result<(TcpTunnel, TcpTunnel)> {
        Self::pair_with(TunnelConfig::default())
    }

    /// Creates a connected loopback pair with explicit tunables.
    pub fn pair_with(config: TunnelConfig) -> Result<(TcpTunnel, TcpTunnel)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let client = TcpStream::connect(addr)?;
        let (server, _) = listener.accept()?;
        Ok((
            Self::from_stream_with(client, config)?,
            Self::from_stream_with(server, config)?,
        ))
    }

    /// Connects to a peer host's tunnel listener.
    pub fn connect(addr: std::net::SocketAddr) -> Result<Self> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// This endpoint's `net.tunnel.*` counters.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// The cause that poisoned this tunnel, if any.
    pub fn broken_cause(&self) -> Option<TeardownCause> {
        self.shared.broken.get()
    }

    /// Decodes frames off the socket. What it decoded is delivered before
    /// any read that may block, so a batch is as long as the bytes one
    /// read brought in.
    fn reader_loop(stream: TcpStream, shared: Arc<TunnelShared>) {
        // Buffered: a prefix and its body — and every frame queued behind
        // them — cost one `read`, not one each.
        let mut stream = BufReader::with_capacity(64 * 1024, stream);
        let mut batch = Vec::new();
        let mut len_buf = [0u8; 4];
        loop {
            if !holds_frame(stream.buffer()) && !shared.inbox.deliver(&mut batch) {
                return; // our own endpoint dropped; not a fault
            }
            if let Err(e) = stream.read_exact(&mut len_buf) {
                shared.teardown(read_error_cause(&e));
                return;
            }
            let len = u32::from_be_bytes(len_buf) as usize;
            if len > MAX_TUNNEL_FRAME {
                // Corrupt/misframed stream: poison, and shut the socket
                // down so the peer fails fast too instead of writing into
                // a stream nobody is framing correctly anymore.
                shared.teardown(TeardownCause::CorruptLength);
                let _ = stream.get_ref().shutdown(std::net::Shutdown::Both);
                return;
            }
            let mut body = vec![0u8; len];
            if let Err(e) = stream.read_exact(&mut body) {
                shared.teardown(read_error_cause(&e));
                return;
            }
            match Frame::decode(Bytes::from(body)) {
                Ok(frame) => {
                    shared.received.inc();
                    batch.push(frame);
                }
                Err(_) => {
                    // The frames decoded before it are good: deliver them.
                    shared.inbox.deliver(&mut batch);
                    shared.teardown(TeardownCause::DecodeError);
                    let _ = stream.get_ref().shutdown(std::net::Shutdown::Both);
                    return;
                }
            }
        }
    }
}

/// Maps the poisoned state to the error `try_recv`/`send` surface. A clean
/// peer close keeps the legacy `Disconnected` shape; every other cause is a
/// typed `Broken`.
fn broken_error(cause: TeardownCause) -> NetError {
    match cause {
        TeardownCause::PeerClosed => NetError::Disconnected,
        other => NetError::Broken(other),
    }
}

/// True when `buf` holds a whole length-prefixed frame, so decoding it
/// needs no read.
fn holds_frame(buf: &[u8]) -> bool {
    match buf {
        [a, b, c, d, body @ ..] => body.len() >= u32::from_be_bytes([*a, *b, *c, *d]) as usize,
        _ => false,
    }
}

fn read_error_cause(e: &std::io::Error) -> TeardownCause {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        TeardownCause::PeerClosed
    } else {
        TeardownCause::Io
    }
}

impl Tunnel for TcpTunnel {
    fn send(&self, frame: &Frame) -> Result<()> {
        if let Some(cause) = self.shared.broken.get() {
            self.shared.rejected_sends.inc();
            return Err(broken_error(cause));
        }
        // Prefix and frame in one buffer, one write: with `TCP_NODELAY` a
        // prefix written alone is its own segment and its own reader wake-up.
        let mut wire = BytesMut::with_capacity(4 + frame.wire_len());
        wire.put_u32(frame.wire_len() as u32);
        frame.encode_into(&mut wire);
        let mut w = self.writer.lock();
        // Re-check under the lock: a concurrent sender may have poisoned
        // the tunnel while we waited (its partial write already misframed
        // the stream, so ours must not go out).
        if let Some(cause) = self.shared.broken.get() {
            self.shared.rejected_sends.inc();
            return Err(broken_error(cause));
        }
        match w.write_all(&wire) {
            Ok(()) => {
                self.shared.sent.inc();
                Ok(())
            }
            Err(e) => {
                // Part of the frame may already be on the wire: the
                // stream is misframed for good. Poison and shut
                // the socket down so both sides fail fast.
                let cause = match e.kind() {
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                        TeardownCause::WriteTimeout
                    }
                    _ => TeardownCause::Io,
                };
                self.shared.teardown(cause);
                let _ = w.shutdown(std::net::Shutdown::Both);
                Err(NetError::Broken(cause))
            }
        }
    }

    fn try_recv(&self) -> Result<Option<Frame>> {
        self.start_reader();
        // Queued frames stay deliverable after any teardown; the typed
        // error only surfaces once the queue is drained.
        self.shared.inbox.recv(self.shared.broken.get())
    }

    fn set_ingress(&self, ingress: TunnelIngress, bell: Doorbell) {
        self.shared.inbox.set_ingress(ingress, bell);
        self.start_reader();
    }
}

impl Drop for TcpTunnel {
    fn drop(&mut self) {
        self.shared.inbox.closed.store(true, Ordering::Release);
        // Shut the socket down so the peer's reader sees EOF promptly and
        // our own reader thread unblocks and exits.
        let _ = self.writer.lock().shutdown(std::net::Shutdown::Both);
    }
}

impl std::fmt::Debug for TcpTunnel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TcpTunnel(broken={:?})", self.shared.broken.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MacAddr;
    use std::time::{Duration, Instant};
    use typhoon_tuple::tuple::TaskId;

    fn frame(n: u8, len: usize) -> Frame {
        Frame::typhoon(
            MacAddr::worker(1, TaskId(n as u32)),
            MacAddr::worker(1, TaskId(100)),
            Bytes::from(vec![n; len]),
        )
    }

    fn recv_blocking(t: &dyn Tunnel) -> Frame {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(f) = t.try_recv().unwrap() {
                return f;
            }
            assert!(Instant::now() < deadline, "timed out waiting for frame");
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    #[test]
    fn in_memory_roundtrip_both_directions() {
        let (a, b) = InMemoryTunnel::pair();
        a.send(&frame(1, 10)).unwrap();
        b.send(&frame(2, 10)).unwrap();
        assert_eq!(recv_blocking(&b).payload[0], 1);
        assert_eq!(recv_blocking(&a).payload[0], 2);
        assert!(a.try_recv().unwrap().is_none());
    }

    #[test]
    fn in_memory_disconnect_detected() {
        let (a, b) = InMemoryTunnel::pair();
        drop(b);
        assert_eq!(a.try_recv().unwrap_err(), NetError::Disconnected);
        assert_eq!(a.send(&frame(0, 1)).unwrap_err(), NetError::Disconnected);
    }

    #[test]
    fn tcp_roundtrip_preserves_order_and_content() {
        let (a, b) = TcpTunnel::pair().unwrap();
        for i in 0..50u8 {
            a.send(&frame(i, 100 + i as usize)).unwrap();
        }
        for i in 0..50u8 {
            let f = recv_blocking(&b);
            assert_eq!(f.payload.len(), 100 + i as usize);
            assert_eq!(f.payload[0], i);
            assert_eq!(f.src.task(), TaskId(i as u32));
        }
    }

    #[test]
    fn tcp_large_frame_roundtrip() {
        let (a, b) = TcpTunnel::pair().unwrap();
        let big = frame(9, 1 << 20); // 1 MiB
        a.send(&big).unwrap();
        let got = recv_blocking(&b);
        assert_eq!(got.payload.len(), 1 << 20);
        assert_eq!(got, big);
    }

    #[test]
    fn tcp_recv_batch_drains_pending() {
        let (a, b) = TcpTunnel::pair().unwrap();
        for i in 0..10u8 {
            a.send(&frame(i, 8)).unwrap();
        }
        let mut out = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while out.len() < 10 && Instant::now() < deadline {
            b.recv_batch(&mut out, 64).unwrap();
            std::thread::sleep(Duration::from_micros(50));
        }
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn tcp_peer_close_disconnects_receiver() {
        let (a, b) = TcpTunnel::pair().unwrap();
        drop(a);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match b.try_recv() {
                Err(NetError::Disconnected) => break,
                Ok(None) => {
                    assert!(Instant::now() < deadline, "never saw disconnect");
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn tunnels_are_usable_through_the_trait_object() {
        let (a, b) = InMemoryTunnel::pair();
        let tunnels: Vec<Box<dyn Tunnel>> = vec![Box::new(a), Box::new(b)];
        tunnels[0].send(&frame(5, 5)).unwrap();
        assert_eq!(recv_blocking(tunnels[1].as_ref()).payload[0], 5);
    }
}
