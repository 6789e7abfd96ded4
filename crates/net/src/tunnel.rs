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
//! * [`InMemoryTunnel`] — a channel-backed pipe with identical semantics,
//!   used for deterministic tests and as a faster LOCAL-style transport.
//!
//! Both queue received frames on a `std::sync::mpsc` channel, not on a
//! ring: a tunnel is a reliable ordered pipe that mirrors socket buffering,
//! and a ring sheds on overflow.

use crate::doorbell::{BellSlot, Doorbell};
use crate::frame::Frame;
use crate::{NetError, Result, TeardownCause};
use bytes::{BufMut, Bytes, BytesMut};
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
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
#[derive(Debug)]
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
    /// The bell of whoever polls this endpoint ([`Tunnel::set_doorbell`]).
    bell: BellSlot,
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
            bell: BellSlot::default(),
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
        // The poller learns of the teardown from its next `try_recv`.
        self.bell.ring();
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

/// The receive end of a tunnel's frame queue, behind a leaf lock so an
/// endpoint can be shared between a sending and a polling thread.
fn rx_lock(rx: Receiver<Frame>) -> Mutex<Receiver<Frame>> {
    Mutex::with_rank(rank::TUNNEL, "net.tunnel.rx", rx)
}

/// A reliable, ordered, bidirectional frame pipe between two hosts.
pub trait Tunnel: Send {
    /// Sends one frame to the peer host.
    fn send(&self, frame: &Frame) -> Result<()>;

    /// Receives one frame if available; `Ok(None)` when none is pending.
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

    /// Registers the bell of the thread that polls this endpoint: it is
    /// rung now, when a frame arrives and when the tunnel is torn down, so
    /// the poller may park between the two.
    fn set_doorbell(&self, bell: Doorbell);

    /// When a frame this endpoint holds back falls due, if one is held:
    /// the poller must run a round by then even if nothing rings.
    fn next_due(&self) -> Option<Instant> {
        None
    }
}

// ------------------------------------------------------------- in-memory

/// One endpoint of an in-memory tunnel.
#[derive(Debug)]
pub struct InMemoryTunnel {
    tx: Sender<Frame>,
    rx: Mutex<Receiver<Frame>>,
    bell: Arc<BellSlot>,
    /// Declared after `tx`: fields drop in order, so the peer is rung once
    /// its `try_recv` already reports `Disconnected`.
    peer_bell: RingOnDrop,
}

/// The peer's bell; dropping it (endpoint teardown) rings.
#[derive(Debug)]
struct RingOnDrop(Arc<BellSlot>);

impl Drop for RingOnDrop {
    fn drop(&mut self) {
        self.0.ring();
    }
}

impl InMemoryTunnel {
    /// Creates a connected endpoint pair.
    pub fn pair() -> (InMemoryTunnel, InMemoryTunnel) {
        let (a_tx, a_rx) = channel(); // LINT: allow-unbounded(in-memory tunnel mirrors TCP socket buffering; rings bound in-flight tuples upstream)
        let (b_tx, b_rx) = channel(); // LINT: allow-unbounded(in-memory tunnel mirrors TCP socket buffering; rings bound in-flight tuples upstream)
        let (a_bell, b_bell) = (Arc::<BellSlot>::default(), Arc::<BellSlot>::default());
        (
            InMemoryTunnel {
                tx: a_tx,
                rx: rx_lock(b_rx),
                bell: a_bell.clone(),
                peer_bell: RingOnDrop(b_bell.clone()),
            },
            InMemoryTunnel {
                tx: b_tx,
                rx: rx_lock(a_rx),
                bell: b_bell,
                peer_bell: RingOnDrop(a_bell),
            },
        )
    }
}

impl Tunnel for InMemoryTunnel {
    fn send(&self, frame: &Frame) -> Result<()> {
        self.tx
            .send(frame.clone())
            .map_err(|_| NetError::Disconnected)?;
        self.peer_bell.0.ring();
        Ok(())
    }

    fn set_doorbell(&self, bell: Doorbell) {
        self.bell.set(bell);
    }

    fn try_recv(&self) -> Result<Option<Frame>> {
        match self.rx.lock().try_recv() {
            Ok(f) => Ok(Some(f)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(NetError::Disconnected),
        }
    }
}

// ------------------------------------------------------------------ TCP

/// One endpoint of a TCP tunnel. Writes are length-prefixed and mutex-
/// serialized; reads happen on a background thread that decodes frames and
/// queues them for [`Tunnel::try_recv`].
///
/// Fail-fast discipline: any write error (including a partial write that
/// left the stream misframed), write timeout, oversized length prefix or
/// decode error poisons the tunnel. A poisoned tunnel refuses every
/// further `send` with [`NetError::Broken`] immediately and `try_recv`
/// fails the same way once buffered frames are drained — it never
/// misframes and never hangs.
pub struct TcpTunnel {
    writer: Arc<Mutex<TcpStream>>,
    rx: Mutex<Receiver<Frame>>,
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
        let (tx, rx) = channel(); // LINT: allow-unbounded(reader thread decouples socket reads; rings bound in-flight tuples upstream)
        let shared = Arc::new(TunnelShared::new());
        let reader_shared = shared.clone();
        typhoon_diag::spawn_supervised(
            "tcp-tunnel-reader",
            |_event| {},
            move || Self::reader_loop(reader_stream, tx, reader_shared),
        );
        Ok(TcpTunnel {
            writer: Arc::new(Mutex::with_rank(rank::TUNNEL, "net.tunnel.writer", stream)),
            rx: rx_lock(rx),
            shared,
        })
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

    fn reader_loop(stream: TcpStream, tx: Sender<Frame>, shared: Arc<TunnelShared>) {
        // Buffered: a prefix and its body — and every frame queued behind
        // them — cost one `read`, not one each.
        let mut stream = BufReader::with_capacity(64 * 1024, stream);
        let mut len_buf = [0u8; 4];
        loop {
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
                    if tx.send(frame).is_err() {
                        return; // our own endpoint dropped; not a fault
                    }
                    shared.bell.ring();
                }
                Err(_) => {
                    shared.teardown(TeardownCause::DecodeError);
                    let _ = stream.get_ref().shutdown(std::net::Shutdown::Both);
                    return;
                }
            }
        }
    }

    /// Maps the poisoned state to the error `try_recv`/`send` surface.
    /// A clean peer close keeps the legacy `Disconnected` shape; every
    /// other cause is a typed `Broken`.
    fn broken_error(cause: TeardownCause) -> NetError {
        match cause {
            TeardownCause::PeerClosed => NetError::Disconnected,
            other => NetError::Broken(other),
        }
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
            return Err(Self::broken_error(cause));
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
            return Err(Self::broken_error(cause));
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
        // Buffered frames stay deliverable after any teardown; the typed
        // error only surfaces once the queue is drained.
        match self.rx.lock().try_recv() {
            Ok(f) => Ok(Some(f)),
            Err(TryRecvError::Empty) => match self.shared.broken.get() {
                None => Ok(None),
                Some(cause) => Err(Self::broken_error(cause)),
            },
            Err(TryRecvError::Disconnected) => match self.shared.broken.get() {
                None | Some(TeardownCause::PeerClosed) => Err(NetError::Disconnected),
                Some(cause) => Err(Self::broken_error(cause)),
            },
        }
    }

    fn set_doorbell(&self, bell: Doorbell) {
        self.shared.bell.set(bell);
    }
}

impl Drop for TcpTunnel {
    fn drop(&mut self) {
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
