//! The hand-off path, over both tunnels: an endpoint given an ingress
//! hands each arrival to it on the thread that delivered it — a TCP
//! endpoint's reader thread, an in-memory endpoint's sender — after what
//! it queued before; a fault injector over it applies its inbound faults
//! there — drop, delay, stall — with the held frames released by the
//! owner's `try_recv` through the same ingress.

use bytes::Bytes;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};
use typhoon_net::{
    Doorbell, FaultInjector, FaultPlan, FaultSpec, Frame, InMemoryTunnel, MacAddr, TcpTunnel,
    Tunnel, TunnelIngress,
};
use typhoon_tuple::tuple::TaskId;

/// Frame `n` carries its sequence number as its source task.
fn frame(n: u32) -> Frame {
    Frame::typhoon(
        MacAddr::worker(1, TaskId(n)),
        MacAddr::worker(1, TaskId(99_999)),
        Bytes::from(vec![n as u8; 64]),
    )
}

/// One frame an ingress was handed: its sequence number, and the name of
/// the thread that handed it over.
type Arrival = (u32, String);

/// An ingress that passes each arrival to a channel, so a test waits on
/// arrivals instead of polling for them.
fn recording() -> (TunnelIngress, Receiver<Arrival>) {
    let (tx, rx) = channel();
    let ingress: TunnelIngress = Arc::new(move |frames: &mut Vec<Frame>| {
        let thread = std::thread::current().name().unwrap_or("").to_owned();
        for f in frames.drain(..) {
            let _ = tx.send((f.src.task().0, thread.clone()));
        }
    });
    (ingress, rx)
}

/// A connected pair of one kind, and the name of the thread that hands
/// over what `a` sends from a thread named [`SENDER`].
struct Pair {
    a: Box<dyn Tunnel>,
    b: Box<dyn Tunnel>,
    arrives_on: &'static str,
}

/// The thread every test sends from.
const SENDER: &str = "sender";

fn tcp() -> Pair {
    let (a, b) = TcpTunnel::pair().expect("loopback pair");
    Pair {
        a: Box::new(a),
        b: Box::new(b),
        arrives_on: "tcp-tunnel-reader",
    }
}

fn in_memory() -> Pair {
    let (a, b) = InMemoryTunnel::pair();
    Pair {
        a: Box::new(a),
        b: Box::new(b),
        arrives_on: SENDER,
    }
}

/// Sends `seqs` on `t`, in order, from a thread named [`SENDER`].
fn send_from_sender(t: &dyn Tunnel, seqs: impl IntoIterator<Item = u32> + Send) {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name(SENDER.into())
            .spawn_scoped(s, || {
                for n in seqs {
                    t.send(&frame(n)).expect("tunnel up");
                }
            })
            .expect("spawn the sender");
    });
}

/// Receives `n` arrivals, within 10 s.
fn receive(got: &Receiver<Arrival>, n: usize) -> Vec<Arrival> {
    let deadline = Instant::now() + Duration::from_secs(10);
    (0..n)
        .map(|i| {
            let left = deadline.saturating_duration_since(Instant::now());
            got.recv_timeout(left)
                .unwrap_or_else(|_| panic!("{i} of {n} frames"))
        })
        .collect()
}

fn seqs(arrivals: &[Arrival]) -> Vec<u32> {
    arrivals.iter().map(|(n, _)| *n).collect()
}

/// Waits on `bell` until `t` reports its teardown.
fn await_teardown(t: &dyn Tunnel, bell: &Doorbell) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while matches!(t.try_recv(), Ok(None)) {
        assert!(Instant::now() < deadline, "teardown never reported");
        bell.wait(Some(deadline), || matches!(t.try_recv(), Ok(None)));
    }
}

/// Every arrival reaches the first ingress, on `pair.arrives_on`; a
/// second ingress is handed nothing; nothing is queued for `try_recv`;
/// and the peer's drop rings the bell and is reported.
fn hands_over_and_reports_teardown(pair: Pair) {
    let Pair { a, b, arrives_on } = pair;
    let (ingress, got) = recording();
    let (second, second_got) = recording();
    let bell = Doorbell::new();
    b.set_ingress(ingress, bell.clone());
    b.set_ingress(second, Doorbell::new());
    send_from_sender(&*a, 0..50);
    let arrivals = receive(&got, 50);
    assert_eq!(seqs(&arrivals), (0..50).collect::<Vec<_>>(), "in order");
    assert!(
        arrivals.iter().all(|(_, t)| t == arrives_on),
        "handed over on {arrives_on}: {arrivals:?}"
    );
    assert!(second_got.try_recv().is_err(), "the first ingress wins");
    assert_eq!(b.try_recv().unwrap(), None, "nothing queued for a poller");
    drop(a);
    await_teardown(&*b, &bell);
}

#[test]
fn a_tcp_endpoint_hands_over_on_its_reader_thread_and_still_reports_teardown() {
    hands_over_and_reports_teardown(tcp());
}

#[test]
fn an_in_memory_endpoint_hands_over_on_the_senders_thread_and_still_reports_teardown() {
    hands_over_and_reports_teardown(in_memory());
}

/// A send to a dropped in-memory endpoint fails, ingress or not.
#[test]
fn a_send_to_a_dropped_in_memory_endpoint_is_refused() {
    let Pair { a, b, .. } = in_memory();
    let (ingress, got) = recording();
    b.set_ingress(ingress, Doorbell::new());
    drop(b);
    assert_eq!(
        a.send(&frame(1)).unwrap_err(),
        typhoon_net::NetError::Disconnected
    );
    assert!(
        got.try_recv().is_err(),
        "nothing handed to a dropped endpoint"
    );
}

/// What an endpoint queued before `set_ingress` — here, after a poller
/// took the first frame — is handed over first, and what is sent after
/// follows it.
fn queued_frames_are_handed_over_first(pair: Pair) {
    let Pair { a, b, .. } = pair;
    send_from_sender(&*a, 0..20);
    let deadline = Instant::now() + Duration::from_secs(10);
    let first = loop {
        if let Some(f) = b.try_recv().expect("tunnel up") {
            break f;
        }
        assert!(Instant::now() < deadline, "never arrived");
        std::thread::yield_now();
    };
    assert_eq!(first.src.task().0, 0);
    let (ingress, got) = recording();
    b.set_ingress(ingress, Doorbell::new());
    send_from_sender(&*a, 20..40);
    assert_eq!(seqs(&receive(&got, 39)), (1..40).collect::<Vec<_>>());
    assert_eq!(b.try_recv().unwrap(), None, "nothing left queued");
}

#[test]
fn queued_frames_are_handed_over_first_over_tcp() {
    queued_frames_are_handed_over_first(tcp());
}

#[test]
fn queued_frames_are_handed_over_first_in_memory() {
    queued_frames_are_handed_over_first(in_memory());
}

/// An ingress set while a sender is mid-stream: every frame queued before
/// it arrives before every frame sent after, so the one sender's frames
/// reach the ingress in order, none lost.
#[test]
fn an_ingress_set_mid_stream_keeps_the_senders_order() {
    const N: u32 = 20_000;
    for _ in 0..5 {
        let Pair { a, b, .. } = in_memory();
        let (ingress, got) = recording();
        std::thread::scope(|s| {
            s.spawn(|| {
                for n in 0..N {
                    a.send(&frame(n)).expect("tunnel up");
                }
            });
            std::thread::yield_now();
            b.set_ingress(ingress, Doorbell::new());
        });
        assert_eq!(seqs(&receive(&got, N as usize)), (0..N).collect::<Vec<_>>());
    }
}

/// Collects `n` arrivals, doing the owner's part meanwhile: when nothing
/// arrives before the next held frame falls due, `try_recv` releases it.
fn receive_releasing(inj: &dyn Tunnel, got: &Receiver<Arrival>, n: usize) -> Vec<Arrival> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut out = Vec::new();
    while out.len() < n {
        let now = Instant::now();
        assert!(now < deadline, "{} of {n} frames", out.len());
        let until = inj.next_due().unwrap_or(deadline).min(deadline);
        match got.recv_timeout(until.saturating_duration_since(now)) {
            Ok(arrival) => out.push(arrival),
            Err(_) => {
                inj.try_recv().unwrap();
            }
        }
    }
    out
}

fn inbound_faults_apply_on_the_hand_off_path_of(pair: Pair) {
    let Pair { a, b, arrives_on } = pair;
    let (inj, handle) = FaultInjector::wrap(b, FaultPlan::clean(7));
    let (ingress, got) = recording();
    inj.set_ingress(ingress, Doorbell::new());
    let count = |name: &str| handle.registry().snapshot().counter(name);
    let counted = |name: &str, n: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while count(name) < n {
            assert!(Instant::now() < deadline, "{name} never reached {n}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    // Drop: nothing reaches the ingress, and each loss is counted.
    handle.set_rx(FaultSpec::CLEAN.dropping(1.0));
    send_from_sender(&*a, 0..5);
    counted("chaos.dropped", 5);
    assert!(got.try_recv().is_err(), "dropped frames were delivered");

    // Delay: held until due, then released by the owner, in order, on its
    // own thread.
    let delay = Duration::from_millis(30);
    handle.set_rx(FaultSpec::CLEAN.delaying(delay));
    let sent = Instant::now();
    send_from_sender(&*a, 10..13);
    counted("chaos.delayed", 3);
    let due = inj.next_due().expect("a held frame is due");
    assert!(due >= sent + delay);
    let released = receive_releasing(&inj, &got, 3);
    assert!(Instant::now() >= sent + delay, "released early");
    assert_eq!(seqs(&released), [10, 11, 12]);
    assert!(
        released.iter().all(|(_, t)| t != arrives_on),
        "held frames are released by the owner: {released:?}"
    );

    // Stall: held with no deadline until the plan changes; after the heal
    // the owner's `try_recv` releases them, and a later arrival follows.
    handle.set_rx(FaultSpec::CLEAN.stalled());
    send_from_sender(&*a, 20..24);
    counted("chaos.stalled", 4);
    assert_eq!(inj.next_due(), None, "a stall has no deadline");
    inj.try_recv().unwrap();
    assert!(got.try_recv().is_err(), "a stall holds");
    handle.heal();
    send_from_sender(&*a, 24..25);
    inj.try_recv().unwrap();
    assert_eq!(
        seqs(&receive(&got, 5)),
        [20, 21, 22, 23, 24],
        "FIFO across the heal"
    );
}

#[test]
fn inbound_faults_apply_on_the_hand_off_path() {
    inbound_faults_apply_on_the_hand_off_path_of(tcp());
    inbound_faults_apply_on_the_hand_off_path_of(in_memory());
}
