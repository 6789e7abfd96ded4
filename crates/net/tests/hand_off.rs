//! The hand-off path: a TCP endpoint with an ingress gives each decoded
//! batch to it on the reader thread, and a fault injector over it applies
//! its inbound faults there — drop, delay, stall — with the held frames
//! released by the poller's `try_recv` through the same ingress.

use bytes::Bytes;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use typhoon_net::{
    Doorbell, FaultInjector, FaultPlan, FaultSpec, Frame, MacAddr, TcpTunnel, Tunnel, TunnelIngress,
};
use typhoon_tuple::tuple::TaskId;

fn frame(n: u8) -> Frame {
    Frame::typhoon(
        MacAddr::worker(1, TaskId(n as u32)),
        MacAddr::worker(1, TaskId(99)),
        Bytes::from(vec![n; 64]),
    )
}

/// What an ingress received: each frame's first payload byte, and the
/// name of the thread that delivered it.
type Received = Arc<Mutex<Vec<(u8, String)>>>;

fn recording() -> (TunnelIngress, Received) {
    let got = Received::default();
    let sink = got.clone();
    let ingress: TunnelIngress = Arc::new(move |frames: &mut Vec<Frame>| {
        let thread = std::thread::current().name().unwrap_or("").to_owned();
        let mut got = sink.lock().unwrap();
        got.extend(frames.drain(..).map(|f| (f.payload[0], thread.clone())));
    });
    (ingress, got)
}

fn seqs(got: &Received) -> Vec<u8> {
    got.lock().unwrap().iter().map(|(n, _)| *n).collect()
}

/// Waits until `got` holds `n` frames, driving `poll` meanwhile (the
/// poller's release of held frames).
fn wait_for(got: &Received, n: usize, poll: impl Fn()) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while got.lock().unwrap().len() < n {
        assert!(
            Instant::now() < deadline,
            "{} of {n} frames",
            got.lock().unwrap().len()
        );
        poll();
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_tcp_endpoint_hands_over_on_its_reader_thread_and_still_reports_teardown() {
    let (a, b) = TcpTunnel::pair().expect("loopback pair");
    let (ingress, got) = recording();
    let bell = Doorbell::new();
    assert!(
        b.set_ingress(ingress.clone(), bell.clone()),
        "a TCP endpoint hands over"
    );
    assert!(!b.set_ingress(ingress, bell), "once");
    for i in 0..50 {
        a.send(&frame(i)).unwrap();
    }
    wait_for(&got, 50, || {});
    assert_eq!(seqs(&got), (0..50).collect::<Vec<_>>(), "in order");
    assert!(got
        .lock()
        .unwrap()
        .iter()
        .all(|(_, t)| t == "tcp-tunnel-reader"));
    assert_eq!(b.try_recv().unwrap(), None, "nothing queued for a poller");
    drop(a);
    let deadline = Instant::now() + Duration::from_secs(10);
    while b.try_recv().is_ok() {
        assert!(Instant::now() < deadline, "teardown never reported");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A pulled endpoint stays pulled: the hand-off is declined.
#[test]
fn a_pulled_tcp_endpoint_declines_the_hand_off() {
    let (a, b) = TcpTunnel::pair().expect("loopback pair");
    assert_eq!(b.try_recv().unwrap(), None);
    let (ingress, got) = recording();
    assert!(!b.set_ingress(ingress, Doorbell::new()));
    a.send(&frame(7)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let f = loop {
        if let Some(f) = b.try_recv().unwrap() {
            break f;
        }
        assert!(Instant::now() < deadline, "never arrived");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(f.payload[0], 7);
    assert!(got.lock().unwrap().is_empty());
}

#[test]
fn inbound_faults_apply_on_the_hand_off_path() {
    let (a, b) = TcpTunnel::pair().expect("loopback pair");
    let (inj, handle) = FaultInjector::wrap(Box::new(b), FaultPlan::clean(7));
    let (ingress, got) = recording();
    assert!(
        inj.set_ingress(ingress, Doorbell::new()),
        "the injector hands over"
    );
    let count = |name: &str| handle.registry().snapshot().counter(name);

    // Drop: nothing reaches the ingress, and each loss is counted.
    handle.set_rx(FaultSpec::CLEAN.dropping(1.0));
    for i in 0..5 {
        a.send(&frame(i)).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while count("chaos.dropped") < 5 {
        assert!(Instant::now() < deadline, "drops never counted");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        got.lock().unwrap().is_empty(),
        "dropped frames were delivered"
    );

    // Delay: held until due, then released by the poller, in order; a
    // frame arriving meanwhile waits behind them.
    let delay = Duration::from_millis(30);
    handle.set_rx(FaultSpec::CLEAN.delaying(delay));
    let sent = Instant::now();
    for i in 10..13 {
        a.send(&frame(i)).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while count("chaos.delayed") < 3 {
        assert!(Instant::now() < deadline, "delays never counted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let due = inj.next_due().expect("a held frame is due");
    assert!(due >= sent + delay);
    wait_for(&got, 3, || {
        inj.try_recv().unwrap();
    });
    assert!(Instant::now() >= sent + delay, "released early");
    assert_eq!(seqs(&got), [10, 11, 12]);
    assert!(
        got.lock()
            .unwrap()
            .iter()
            .all(|(_, t)| t != "tcp-tunnel-reader"),
        "held frames are released by the poller"
    );

    // Stall: held with no deadline until the plan changes; healing rings
    // the poller, whose try_recv releases them before later arrivals.
    got.lock().unwrap().clear();
    handle.set_rx(FaultSpec::CLEAN.stalled());
    for i in 20..24 {
        a.send(&frame(i)).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while count("chaos.stalled") < 4 {
        assert!(Instant::now() < deadline, "stalls never counted");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(inj.next_due(), None, "a stall has no deadline");
    inj.try_recv().unwrap();
    assert!(got.lock().unwrap().is_empty(), "a stall holds");
    handle.heal();
    a.send(&frame(24)).unwrap();
    wait_for(&got, 5, || {
        inj.try_recv().unwrap();
    });
    assert_eq!(seqs(&got), [20, 21, 22, 23, 24], "FIFO across the heal");
}
