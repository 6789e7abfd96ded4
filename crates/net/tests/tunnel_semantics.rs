//! Disconnect/drain semantics pinned across every `Tunnel` implementation,
//! plus the TCP fail-fast teardown regressions.
//!
//! The contract all three implementations must share:
//!
//! 1. frames buffered before the peer went away are still deliverable;
//! 2. the receiver sees a terminal error only once that buffer is drained;
//! 3. after the first terminal error, every operation keeps failing fast —
//!    no hangs, no misframed writes.

use bytes::Bytes;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use typhoon_net::{
    Doorbell, FaultInjector, FaultPlan, Frame, InMemoryTunnel, MacAddr, NetError, TcpTunnel,
    TeardownCause, Tunnel, TunnelConfig,
};
use typhoon_tuple::tuple::TaskId;

fn frame(n: u8) -> Frame {
    Frame::typhoon(
        MacAddr::worker(1, TaskId(n as u32)),
        MacAddr::worker(1, TaskId(99)),
        Bytes::from(vec![n; 64]),
    )
}

/// Receives `want` frames, then asserts the next receive is a terminal
/// error — all within `deadline`. Panics on a hang.
fn drain_then_expect_error(t: &dyn Tunnel, want: usize, deadline: Duration) -> NetError {
    let end = Instant::now() + deadline;
    let mut got = 0;
    loop {
        assert!(
            Instant::now() < end,
            "hang: drained {got}/{want} frames without a terminal error"
        );
        match t.try_recv() {
            Ok(Some(_)) => got += 1,
            Ok(None) => std::thread::yield_now(),
            Err(e) => {
                assert_eq!(got, want, "terminal error before the buffer drained");
                return e;
            }
        }
    }
}

/// The shared contract, parameterized over how the pair is built.
fn buffered_frames_survive_peer_drop(make: impl FnOnce() -> (Box<dyn Tunnel>, Box<dyn Tunnel>)) {
    let (a, b) = make();
    for i in 0..3 {
        a.send(&frame(i)).expect("send while peer alive");
    }
    // For TCP the reader thread needs to pull the frames off the socket
    // before the close lands; wait until they are locally buffered.
    let end = Instant::now() + Duration::from_secs(10);
    let mut buffered = Vec::new();
    while buffered.is_empty() {
        assert!(Instant::now() < end, "first frame never arrived");
        if let Ok(Some(f)) = b.try_recv() {
            buffered.push(f);
        }
    }
    drop(a);
    let err = drain_then_expect_error(&*b, 2, Duration::from_secs(10));
    assert_eq!(
        err,
        NetError::Disconnected,
        "clean peer drop maps to Disconnected"
    );
    // And it stays terminal.
    assert!(b.try_recv().is_err(), "error must persist after drain");
}

#[test]
fn in_memory_buffers_survive_peer_drop() {
    buffered_frames_survive_peer_drop(|| {
        let (a, b) = InMemoryTunnel::pair();
        (Box::new(a), Box::new(b))
    });
}

#[test]
fn tcp_buffers_survive_peer_drop() {
    buffered_frames_survive_peer_drop(|| {
        let (a, b) = TcpTunnel::pair().expect("loopback pair");
        (Box::new(a), Box::new(b))
    });
}

#[test]
fn fault_injector_buffers_survive_peer_drop() {
    buffered_frames_survive_peer_drop(|| {
        let (a, b) = InMemoryTunnel::pair();
        let (ia, _ha) = FaultInjector::wrap(Box::new(a), FaultPlan::clean(1));
        let (ib, _hb) = FaultInjector::wrap(Box::new(b), FaultPlan::clean(2));
        (Box::new(ia), Box::new(ib))
    });
}

// ------------------------------------------------------------ doorbells

/// Waits on `bell` until a ringer wakes it: a park ends at a ring or at
/// the 10 s deadline (or spuriously, and the loop parks again), and only a
/// ring makes `wait` return `true`. `trigger` runs once, after the first
/// arming. Panics if nobody rings.
fn wait_until_rung(bell: &Doorbell, trigger: impl FnOnce()) {
    let end = Instant::now() + Duration::from_secs(10);
    let mut trigger = Some(trigger);
    loop {
        let rung = bell.wait(Some(end), || {
            if let Some(t) = trigger.take() {
                t();
            }
            true
        });
        if rung {
            return;
        }
        assert!(Instant::now() < end, "the poller's bell was never rung");
    }
}

/// A poller that registered its bell is rung when a frame arrives and when
/// the tunnel is torn down — so it may park between the two.
fn arrival_and_teardown_ring(make: impl FnOnce() -> (Box<dyn Tunnel>, Box<dyn Tunnel>)) {
    let (a, b) = make();
    let bell = Doorbell::new();
    b.set_doorbell(bell.clone());
    wait_until_rung(&bell, || a.send(&frame(1)).expect("send while peer alive"));
    assert!(
        b.try_recv().expect("tunnel up").is_some(),
        "the ring follows the hand-over"
    );
    wait_until_rung(&bell, || drop(a));
    assert!(b.try_recv().is_err(), "rung for the teardown");
}

#[test]
fn in_memory_arrival_and_teardown_ring() {
    arrival_and_teardown_ring(|| {
        let (a, b) = InMemoryTunnel::pair();
        (Box::new(a), Box::new(b))
    });
}

#[test]
fn tcp_arrival_and_teardown_ring() {
    arrival_and_teardown_ring(|| {
        let (a, b) = TcpTunnel::pair().expect("loopback pair");
        (Box::new(a), Box::new(b))
    });
}

#[test]
fn fault_injector_forwards_the_doorbell() {
    arrival_and_teardown_ring(|| {
        let (a, b) = InMemoryTunnel::pair();
        let (ib, _hb) = FaultInjector::wrap(Box::new(b), FaultPlan::clean(2));
        (Box::new(a), Box::new(ib))
    });
    arrival_and_teardown_ring(|| {
        let (a, b) = TcpTunnel::pair().expect("loopback pair");
        let (ib, _hb) = FaultInjector::wrap(Box::new(b), FaultPlan::clean(2));
        (Box::new(a), Box::new(ib))
    });
}

// ----------------------------------------------------- TCP regressions

/// Regression (partial-write desync): once a send fails mid-stream the
/// tunnel must poison itself — a later send must fail fast instead of
/// writing a frame the peer would misframe.
#[test]
fn tcp_send_to_shut_down_peer_poisons_the_tunnel() {
    let (a, b) = TcpTunnel::pair().expect("loopback pair");
    drop(b);
    let end = Instant::now() + Duration::from_secs(10);
    // Socket buffering can absorb a few sends; keep pushing until the
    // failure surfaces. It must surface — never hang, never succeed
    // forever.
    loop {
        assert!(Instant::now() < end, "send to a dead peer never failed");
        if a.send(&frame(1)).is_err() {
            break;
        }
    }
    // Poisoned: every further operation fails immediately with the same
    // terminal class, and rejected sends are counted.
    assert!(a.send(&frame(2)).is_err());
    assert!(a.send(&frame(3)).is_err());
    assert!(a.broken_cause().is_some(), "cause recorded");
    let rejected = a.registry().snapshot().counter("net.tunnel.rejected_sends");
    assert!(rejected >= 2, "rejected_sends={rejected}");
}

/// Regression (stalled peer): a peer that stops reading must not block
/// `send` forever holding the writer lock — the write timeout poisons the
/// tunnel instead.
#[test]
fn tcp_stalled_peer_trips_write_timeout_not_a_hang() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    // The peer is a raw socket nobody ever reads — a genuinely stalled
    // consumer (a tunnel peer would drain the socket from its reader
    // thread and the write would never block).
    let _stalled_peer = TcpStream::connect(addr).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    let a = TcpTunnel::from_stream_with(
        server,
        TunnelConfig {
            write_timeout: Duration::from_millis(200),
        },
    )
    .expect("tunnel");
    // Big frames fill both kernel socket buffers quickly.
    let big = Frame::typhoon(
        MacAddr::worker(1, TaskId(1)),
        MacAddr::worker(1, TaskId(2)),
        Bytes::from(vec![0u8; 1 << 20]),
    );
    let end = Instant::now() + Duration::from_secs(30);
    let err = loop {
        assert!(
            Instant::now() < end,
            "send never failed against a stalled peer"
        );
        if let Err(e) = a.send(&big) {
            break e;
        }
    };
    match err {
        NetError::Broken(TeardownCause::WriteTimeout) | NetError::Broken(TeardownCause::Io) => {}
        other => panic!("expected a write-timeout/io teardown, got {other:?}"),
    }
    // Fail-fast from here on.
    let t0 = Instant::now();
    assert!(a.send(&big).is_err());
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "poisoned send must not touch the socket"
    );
}

/// Regression (silent reader teardown): a corrupt length prefix must
/// surface as a typed error with its teardown counted, not a silent stop.
#[test]
fn tcp_corrupt_length_prefix_is_a_typed_teardown() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let raw = TcpStream::connect(addr).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    let tunnel = TcpTunnel::from_stream(server).expect("tunnel");
    // A length prefix far beyond the frame bound: the stream is garbage.
    use std::io::Write;
    (&raw).write_all(&u32::MAX.to_be_bytes()).expect("write");
    let err = drain_then_expect_error(&tunnel, 0, Duration::from_secs(10));
    assert_eq!(err, NetError::Broken(TeardownCause::CorruptLength));
    let count = tunnel
        .registry()
        .snapshot()
        .counter("net.tunnel.teardown.corrupt_len");
    assert_eq!(count, 1);
}

/// Regression (silent reader teardown): an undecodable frame body must
/// surface as a typed error too.
#[test]
fn tcp_undecodable_body_is_a_typed_teardown() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let raw = TcpStream::connect(addr).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    let tunnel = TcpTunnel::from_stream(server).expect("tunnel");
    use std::io::Write;
    // Plausible length, garbage body (shorter than an Ethernet header).
    (&raw).write_all(&10u32.to_be_bytes()).expect("len");
    (&raw).write_all(&[0xab; 10]).expect("body");
    let err = drain_then_expect_error(&tunnel, 0, Duration::from_secs(10));
    assert_eq!(err, NetError::Broken(TeardownCause::DecodeError));
    let count = tunnel
        .registry()
        .snapshot()
        .counter("net.tunnel.teardown.decode_error");
    assert_eq!(count, 1);
}

/// Frames that arrived before a mid-stream fault stay deliverable; the
/// typed error surfaces only after the drain (the contract, on TCP, with
/// a *dirty* teardown).
#[test]
fn tcp_good_frames_before_corruption_still_deliver() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let raw = TcpStream::connect(addr).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    let tunnel = TcpTunnel::from_stream(server).expect("tunnel");
    use std::io::Write;
    let good = frame(7).encode();
    (&raw)
        .write_all(&(good.len() as u32).to_be_bytes())
        .expect("len");
    (&raw).write_all(&good).expect("body");
    (&raw)
        .write_all(&u32::MAX.to_be_bytes())
        .expect("corrupt len");
    let err = drain_then_expect_error(&tunnel, 1, Duration::from_secs(10));
    assert_eq!(err, NetError::Broken(TeardownCause::CorruptLength));
}

/// The reader buffers, so a frame's bytes reach it in whatever pieces TCP
/// cuts: prefix, half a body and the rest as three segments (flushed apart
/// by `TCP_NODELAY` and a pause) are still one frame, delivered once and
/// whole, and the frame written behind them in one piece follows it.
#[test]
fn tcp_frame_split_across_writes_is_delivered_once_and_whole() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let raw = TcpStream::connect(addr).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    let (server, _) = listener.accept().expect("accept");
    let tunnel = TcpTunnel::from_stream(server).expect("tunnel");
    use std::io::Write;
    let (split, whole) = (frame(7), frame(8));
    let body = split.encode();
    let prefix = (body.len() as u32).to_be_bytes();
    for piece in [
        &prefix[..],
        &body[..body.len() / 2],
        &body[body.len() / 2..],
    ] {
        (&raw).write_all(piece).expect("piece");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut wire = prefix.to_vec();
    wire.extend_from_slice(&whole.encode());
    (&raw).write_all(&wire).expect("whole frame");
    let end = Instant::now() + Duration::from_secs(10);
    let mut got = Vec::new();
    while got.len() < 2 {
        assert!(Instant::now() < end, "hang: {} of 2 frames", got.len());
        got.extend(tunnel.try_recv().expect("healthy tunnel"));
    }
    assert_eq!(got, vec![split, whole]);
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(tunnel.try_recv().expect("still healthy"), None);
}

// ----------------------------------------- batched ring ops vs. close

/// The PR-3 contract, batch edition: every frame `push_batch` reported
/// enqueued before the producer dropped is delivered by `pop_batch`
/// before `Disconnected` — partial drains included, nothing lost from a
/// half-consumed batch.
#[test]
fn ring_batched_producer_drop_loses_nothing() {
    const N: usize = 500;
    let (tx, rx) = typhoon_net::ring(2 * N);
    let sender = std::thread::spawn(move || {
        let mut sent = 0usize;
        while sent < N {
            let chunk = (N - sent).min(8);
            let mut batch: Vec<Frame> = (0..chunk)
                .map(|i| frame(((sent + i) % 251) as u8))
                .collect();
            let res = tx.push_batch(&mut batch);
            assert!(!res.disconnected, "receiver never closes in this test");
            assert_eq!(res.dropped, 0, "ring sized to avoid overflow");
            sent += res.enqueued;
        }
        // tx drops here: peer-close while the receiver is mid-drain.
    });
    let end = Instant::now() + Duration::from_secs(30);
    let mut got = 0usize;
    let mut out: Vec<Frame> = Vec::new();
    loop {
        assert!(Instant::now() < end, "receiver hung at {got}/{N}");
        out.clear();
        match rx.pop_batch(&mut out, 7) {
            Ok(0) => std::thread::yield_now(),
            Ok(n) => got += n,
            Err(e) => {
                assert_eq!(e, NetError::Disconnected);
                break;
            }
        }
    }
    sender.join().expect("sender");
    assert_eq!(got, N, "frames lost around the close");
    // And it stays terminal.
    assert!(rx.pop_batch(&mut out, 7).is_err());
}

/// A `push_batch` racing the consumer's close must account for every
/// frame: enqueued, dropped-on-overflow, or left in the caller's vector —
/// none silently vanish, and the disconnect stays sticky.
#[test]
fn ring_push_batch_vs_concurrent_close_keeps_exact_accounting() {
    let (tx, rx) = typhoon_net::ring(64);
    let producer = std::thread::spawn(move || {
        let mut enqueued = 0usize;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            assert!(Instant::now() < deadline, "producer never saw the close");
            let mut batch: Vec<Frame> = (0..8).map(|i| frame(i as u8)).collect();
            let res = tx.push_batch(&mut batch);
            enqueued += res.enqueued;
            if res.disconnected {
                assert_eq!(
                    res.enqueued + res.dropped + batch.len(),
                    8,
                    "a frame was neither enqueued, dropped, nor returned"
                );
                // Sticky: a later batch is refused whole.
                let mut again = vec![frame(0)];
                let res2 = tx.push_batch(&mut again);
                assert!(res2.disconnected);
                assert_eq!(again.len(), 1, "refused frames stay with the caller");
                return enqueued;
            }
            assert!(
                batch.is_empty(),
                "fully consumed batches leave nothing behind"
            );
        }
    });
    // Drain a couple of batches, then close mid-stream.
    let mut out: Vec<Frame> = Vec::new();
    let mut got = 0usize;
    let end = Instant::now() + Duration::from_secs(30);
    while got < 16 {
        assert!(Instant::now() < end, "receiver hung before the close");
        out.clear();
        match rx.pop_batch(&mut out, 8) {
            Ok(n) => got += n,
            Err(_) => break,
        }
    }
    rx.close();
    let enqueued = producer.join().expect("producer");
    // Whatever is still queued is everything enqueued minus what we read.
    assert!(enqueued >= got, "cannot deliver more than was enqueued");
}

/// Multi-thread close/drain stress across the ring + tunnel stack is in
/// `typhoon_net::ring` unit tests; here pin that a tunnel driven from two
/// threads (sender thread + receiving drainer) delivers everything sent
/// before a deliberate drop, on every implementation.
type TunnelPair = (Box<dyn Tunnel + Send>, Box<dyn Tunnel + Send>);
type MakePair = Box<dyn FnOnce() -> TunnelPair>;

#[test]
fn threaded_sender_drop_loses_nothing_across_impls() {
    let make_pairs: Vec<(&str, MakePair)> = vec![
        (
            "in-memory",
            Box::new(|| {
                let (a, b) = InMemoryTunnel::pair();
                (Box::new(a) as _, Box::new(b) as _)
            }),
        ),
        (
            "tcp",
            Box::new(|| {
                let (a, b) = TcpTunnel::pair().expect("pair");
                (Box::new(a) as _, Box::new(b) as _)
            }),
        ),
        (
            "fault-injector",
            Box::new(|| {
                let (a, b) = InMemoryTunnel::pair();
                let (ia, _h) = FaultInjector::wrap(Box::new(a), FaultPlan::clean(3));
                (Box::new(ia) as _, Box::new(b) as _)
            }),
        ),
    ];
    for (name, make) in make_pairs {
        let (a, b) = make();
        const N: usize = 500;
        let sender = std::thread::spawn(move || {
            for i in 0..N {
                a.send(&frame((i % 251) as u8)).expect("send");
            }
            // a drops here: peer-close while the receiver is mid-drain.
        });
        let end = Instant::now() + Duration::from_secs(30);
        let mut got = 0;
        let terminal = loop {
            assert!(Instant::now() < end, "[{name}] receiver hung at {got}/{N}");
            match b.try_recv() {
                Ok(Some(_)) => got += 1,
                Ok(None) => std::thread::yield_now(),
                Err(e) => break e,
            }
        };
        sender.join().expect("sender");
        assert_eq!(got, N, "[{name}] frames lost around the close");
        assert_eq!(terminal, NetError::Disconnected, "[{name}]");
    }
}
