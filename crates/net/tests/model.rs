//! Model-checked scenarios over the **shipped** ring and doorbell.
//!
//! Built with `--features model`, `typhoon-net`'s private `sync` module
//! hands `ring.rs` and `doorbell.rs` the model checker's lock, atomics,
//! fence and park token, so every scenario here explores the code that
//! runs in production — `ring::<Frame>` on the worker ports, `ring::<Bytes>`
//! on the switch ↔ controller channel, `Doorbell::wait` and the round
//! runner (`round::run`, whose stop flag comes from the same seam) under
//! every long-lived loop — not a restatement of it. Every consumer here parks with no
//! deadline, as the workspace's own do when nothing is due: a park that
//! nobody ends is a deadlock the checker reports, with the schedule.
//!
//! ```sh
//! cargo test -p typhoon-net --features model --test model -- --nocapture
//! ```
//!
//! A failure prints `CHECK_TRACE=…` (or `CHECK_SEED=…`); set it and run the
//! one failing test again to replay exactly that interleaving.

use bytes::Bytes;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use typhoon_check::sync::atomic::{AtomicBool, Ordering};
use typhoon_check::sync::{thread, Mutex};
use typhoon_check::{Checker, Failure, Replay};
use typhoon_metrics::Registry;
use typhoon_net::ring::{BatchPush, RingItem};
use typhoon_net::{
    ring, ring_with_bell, round, BellSlot, Doorbell, Frame, MacAddr, NetError, Next, RingConsumer,
    Round, Stop,
};
use typhoon_tuple::tuple::TaskId;

/// What the rings carry in production, made from and read back to a tag.
trait Item: RingItem + Send + 'static {
    fn tagged(tag: u8) -> Self;
    fn tag(&self) -> u8;
}

impl Item for Frame {
    fn tagged(tag: u8) -> Self {
        Frame::typhoon(
            MacAddr::worker(0, TaskId(0)),
            MacAddr::worker(0, TaskId(1)),
            Bytes::from(vec![tag]),
        )
    }
    fn tag(&self) -> u8 {
        self.payload[0]
    }
}

impl Item for Bytes {
    fn tagged(tag: u8) -> Self {
        Bytes::from(vec![tag])
    }
    fn tag(&self) -> u8 {
        self[0]
    }
}

fn tags<T: Item>(items: &[T]) -> Vec<u8> {
    items.iter().map(Item::tag).collect()
}

/// One poll as the workspace's consumers make it: `pop()` for one item (the
/// control channel's `try_recv`), `pop_batch(max)` for more (every port).
fn poll<T: Item>(rx: &RingConsumer<T>, got: &mut Vec<T>, max: usize) -> Result<usize, NetError> {
    if max > 1 {
        return rx.pop_batch(got, max);
    }
    let item = rx.pop()?;
    let n = usize::from(item.is_some());
    got.extend(item);
    Ok(n)
}

/// The consumer every poll loop in the workspace is: a [`poll`], and when
/// it came back empty, `bell().wait(..)` with a re-check of the source;
/// `Disconnected` ends it. `recheck: false` is the misuse — it trusts the
/// poll it just did.
fn drain<T: Item>(rx: &RingConsumer<T>, max: usize, recheck: bool) -> Vec<T> {
    let mut got = Vec::new();
    loop {
        match poll(rx, &mut got, max) {
            Ok(0) => {
                rx.bell()
                    .wait(None, || !recheck || (rx.is_empty() && !rx.is_closed()));
            }
            Ok(_) => {}
            Err(NetError::Disconnected) => return got,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Explores `scenario`; it must hold on every schedule of the bounded tree,
/// and the tree must have been covered — a pass of the random phase is a
/// sample, not a proof.
fn holds(name: &str, scenario: impl Fn() + Send + Sync + 'static) {
    let report = Checker::default().check(name, scenario);
    println!(
        "{name}: {} schedule(s), exhausted={}",
        report.schedules, report.exhausted
    );
    report.assert_ok();
    assert!(report.exhausted, "{name}: the bounded tree must be covered");
}

/// Explores `scenario` for both payloads the rings carry in production.
fn holds_for_frame_and_bytes(name: &str, frame: fn(), bytes: fn()) {
    holds(&format!("{name}/frame"), frame);
    holds(&format!("{name}/bytes"), bytes);
}

// ------------------------------------------------------------ ring vs. close

/// The producer pushes `frames` items one by one and goes away (its drop is
/// the close); the consumer drains `max` at a time (`max == 1`: `pop`'s own
/// body, which has no `pop_batch` under it). No lost tuple: every
/// frame pushed before the close is delivered, in order, before
/// `Disconnected` — and a partial drain is never traded for the error.
fn push_then_close<T: Item>(frames: u8, max: usize) {
    let (tx, rx) = ring::<T>(8);
    let producer = thread::spawn(move || {
        for tag in 0..frames {
            tx.push(T::tagged(tag)).expect("open and roomy");
        }
    });
    let got = drain(&rx, max, true);
    producer.join();
    assert_eq!(
        tags(&got),
        (0..frames).collect::<Vec<_>>(),
        "Disconnected reported with frames still queued, or drained frames discarded"
    );
}

#[test]
fn close_pop_delivers_every_frame_pushed_before_the_close() {
    holds_for_frame_and_bytes(
        "ring-close-pop",
        || push_then_close::<Frame>(1, 1),
        || push_then_close::<Bytes>(1, 1),
    );
}

#[test]
fn pop_batch_never_discards_a_partial_drain_at_the_close() {
    holds_for_frame_and_bytes(
        "ring-close-pop-batch",
        || push_then_close::<Frame>(3, 2),
        || push_then_close::<Bytes>(3, 2),
    );
}

/// A three-frame `push_batch` into a ring of two races the consumer half
/// going away. The batch is attempted whole (`enqueued + dropped` = offered,
/// the vector emptied) or refused whole (`disconnected`, the vector intact
/// and in order) — the close never lands inside it.
fn push_batch_vs_close<T: Item>() {
    let (tx, rx) = ring::<T>(2);
    let closer = thread::spawn(move || drop(rx));
    let mut batch: Vec<T> = (1..=3).map(T::tagged).collect();
    let pushed = tx.push_batch(&mut batch);
    closer.join();
    if pushed.disconnected {
        assert_eq!(
            (pushed, tags(&batch)),
            (
                BatchPush {
                    disconnected: true,
                    ..BatchPush::default()
                },
                vec![1, 2, 3]
            ),
            "a refused batch was split"
        );
    } else {
        assert_eq!(
            (pushed.enqueued, pushed.dropped, batch.len()),
            (2, 1, 0),
            "a frame was neither enqueued, counted as dropped, nor handed back"
        );
    }
}

#[test]
fn push_batch_is_attempted_whole_or_refused_whole() {
    holds_for_frame_and_bytes(
        "ring-push-batch-close",
        push_batch_vs_close::<Frame>,
        push_batch_vs_close::<Bytes>,
    );
}

// ------------------------------------------------------------------ doorbell

/// The control channel's shape (`ring::<Bytes>`): two producers push one
/// message each through a shared handle whose last clone's drop is the
/// close; the consumer drains and parks on the ring's own bell. Neither a
/// message nor a wake-up is lost: the consumer ends, with both.
fn shared_producer_and_close(recheck: bool) {
    let (tx, rx) = ring::<Bytes>(8);
    let tx = Arc::new(tx);
    let producers: Vec<_> = [1, 2]
        .into_iter()
        .map(|tag| {
            let tx = Arc::clone(&tx);
            thread::spawn(move || tx.push(Bytes::tagged(tag)).expect("open and roomy"))
        })
        .collect();
    drop(tx);
    let mut got = tags(&drain(&rx, 8, recheck));
    for producer in producers {
        producer.join();
    }
    got.sort_unstable();
    assert_eq!(got, vec![1, 2], "the consumer closed out without a message");
}

/// The worker ports' shape (`ring_with_bell::<Frame>`): two rings, one
/// producer each, ring the one bell their consumer — the switch — waits on;
/// each producer pushes a frame and goes away. The consumer polls every
/// open port, parks when a whole round found nothing, and ends when the
/// last port is `Disconnected` — with both frames.
fn two_ports_one_bell() {
    let bell = Doorbell::new();
    let mut producers = Vec::new();
    let mut open = Vec::new();
    for tag in [1, 2] {
        let (tx, rx) = ring_with_bell::<Frame>(8, bell.clone());
        producers.push(thread::spawn(move || {
            tx.push(Frame::tagged(tag)).expect("open and roomy")
        }));
        open.push(rx);
    }
    let mut got = Vec::new();
    while !open.is_empty() {
        let before = got.len();
        open.retain(|rx| rx.pop_batch(&mut got, 8).is_ok());
        if got.len() == before && !open.is_empty() {
            bell.wait(None, || {
                open.iter().all(|rx| rx.is_empty() && !rx.is_closed())
            });
        }
    }
    for producer in producers {
        producer.join();
    }
    let mut got = tags(&got);
    got.sort_unstable();
    assert_eq!(got, vec![1, 2], "the consumer closed out without a frame");
}

#[test]
fn arm_recheck_park_loses_neither_a_frame_nor_a_wakeup() {
    holds("doorbell-two-producers-close/frame", two_ports_one_bell);
    holds("doorbell-two-producers-close/bytes", || {
        shared_producer_and_close(true)
    });
}

/// The two single-threaded facts the protocol above leans on. A ring that
/// lands after arming leaves the park token pending, so the park returns;
/// a failed re-check never parks. Either one parking is a deadlock here.
#[test]
fn a_pending_token_ends_the_park_and_a_failed_recheck_never_parks() {
    holds("doorbell-token-pending", || {
        let bell = Doorbell::new();
        let rung = bell.wait(None, || {
            bell.ring();
            true
        });
        assert!(rung);
    });
    holds("doorbell-failed-recheck", || {
        let bell = Doorbell::new();
        assert!(!bell.wait(None, || false));
    });
}

/// The checker must still *find* bugs in the shipped files: skip the
/// re-check (`wait(None, || true)` — PR 14's pre-fix order, written as a
/// misuse of the real API) and a push that lands between the consumer's
/// poll and its arming rings nobody.
fn lost_wakeup() -> Failure {
    Checker::default()
        .check("doorbell-two-producers-close/no-recheck", || {
            shared_producer_and_close(false)
        })
        .expect_failure()
}

#[test]
fn a_skipped_recheck_is_found_as_a_lost_wakeup() {
    let failure = lost_wakeup();
    println!("found the lost wake-up:\n{failure}");
    assert!(
        failure.message.contains("deadlock"),
        "the model has no park timeout, so a lost wake-up is a deadlock: {}",
        failure.message
    );
    assert!(
        matches!(&failure.replay, Replay::Trace(t) if !t.is_empty()),
        "the DFS phase finds it, so the replay is a trace"
    );
}

#[test]
fn a_skipped_recheck_reproduces_deterministically() {
    // Same scenario, same checker config → byte-identical `CHECK_TRACE`.
    let (Replay::Trace(first), Replay::Trace(second)) =
        (lost_wakeup().replay, lost_wakeup().replay)
    else {
        panic!("expected DFS traces from both runs");
    };
    assert_eq!(first, second, "the checker must be schedule-deterministic");
}

// ---------------------------------------------------------------- bell slot

/// A source registered with its consumer after it was fed: a tunnel the
/// switch adds, a control channel a controller registers. The registrar
/// pushes a frame into a fresh ring and rings its slot, which is still
/// empty and so rings nobody; it then registers the ring with the consumer
/// and sets the slot to the consumer's bell. The consumer polls the rings
/// registered with it and, when none had a frame, parks with no deadline
/// after re-checking them. It must end with the frame: `BellSlot::set`
/// rings. `set_rings: false` registers the bell the way a `set` that does
/// not ring would — a plain `OnceLock` fill.
fn late_registration(set_rings: bool) {
    let sources = Arc::new(Mutex::new(Vec::<RingConsumer<Frame>>::new()));
    let bell = Doorbell::new();
    let registrar = {
        let (sources, bell) = (Arc::clone(&sources), bell.clone());
        thread::spawn(move || {
            let (tx, rx) = ring::<Frame>(8);
            let slot = BellSlot::default();
            tx.push(Frame::tagged(1)).expect("open and roomy");
            slot.ring();
            sources.lock().push(rx);
            if set_rings {
                slot.set(bell);
            } else {
                let _ = OnceLock::new().set(bell);
            }
        })
    };
    let mut got = Vec::new();
    while got.is_empty() {
        for rx in sources.lock().iter() {
            let _ = rx.pop_batch(&mut got, 8);
        }
        if got.is_empty() {
            bell.wait(None, || sources.lock().iter().all(|rx| rx.is_empty()));
        }
    }
    registrar.join();
    assert_eq!(tags(&got), vec![1]);
}

#[test]
fn a_late_registration_rings_what_arrived_before_it() {
    holds("bell-slot-late-registration", || late_registration(true));
}

#[test]
fn a_silent_registration_is_found_as_a_lost_wakeup() {
    let silent = || {
        Checker::default()
            .check("bell-slot-late-registration/silent-set", || {
                late_registration(false)
            })
            .expect_failure()
    };
    let failure = silent();
    println!("found the lost wake-up:\n{failure}");
    assert!(failure.message.contains("deadlock"), "{}", failure.message);
    // Replayable: the same schedule, found the same way, both times.
    let (Replay::Trace(first), Replay::Trace(second)) = (failure.replay, silent().replay) else {
        panic!("expected DFS traces from both runs");
    };
    assert_eq!(first, second);
}

// ------------------------------------------------------------------- runner

/// The round runner (`round::run`) over a round with one source: a flag a
/// producer sets and then rings. The round takes the flag and ends the loop
/// once it has seen it; otherwise it parks until rung. `recheck: false` is
/// the misuse of a round that trusts its last look.
struct OneFlag {
    bell: Doorbell,
    work: Arc<AtomicBool>,
    recheck: bool,
}

impl Round for OneFlag {
    fn bell(&self) -> &Doorbell {
        &self.bell
    }
    fn round(&mut self, _now: Instant) -> Next {
        if self.work.swap(false, Ordering::SeqCst) {
            Next::Done
        } else {
            Next::Woken
        }
    }
    fn idle(&mut self) -> bool {
        !self.recheck || !self.work.load(Ordering::SeqCst)
    }
}

/// A producer sets the flag and rings while the runner is anywhere in its
/// round, its re-check or its park: the loop always ends, so a ring that
/// lands between the re-check and the park is not lost.
fn ring_vs_runner(recheck: bool) {
    let (bell, work) = (Doorbell::new(), Arc::new(AtomicBool::new(false)));
    let producer = {
        let (bell, work) = (bell.clone(), Arc::clone(&work));
        thread::spawn(move || {
            work.store(true, Ordering::SeqCst);
            bell.ring();
        })
    };
    let round = OneFlag {
        bell,
        work,
        recheck,
    };
    round::run(&Stop::new(), &Registry::new(), move |_| Box::new(round));
    producer.join();
}

/// A round with nothing to do parks with no deadline; another thread stops
/// the loop at any point of that, and the loop returns.
fn stop_vs_park() {
    let stop = Stop::new();
    let stopper = {
        let stop = stop.clone();
        thread::spawn(move || stop.stop())
    };
    let round = OneFlag {
        bell: Doorbell::new(),
        work: Arc::new(AtomicBool::new(false)),
        recheck: true,
    };
    round::run(&stop, &Registry::new(), move |_| Box::new(round));
    stopper.join();
}

#[test]
fn a_stop_during_a_park_ends_the_park() {
    holds("runner-stop-during-park", stop_vs_park);
}

#[test]
fn a_ring_between_the_recheck_and_the_park_is_not_lost() {
    holds("runner-ring-vs-park", || ring_vs_runner(true));
    // And the scenario can fail: a round that skips its re-check loses the
    // ring that lands before the arm.
    let failure = Checker::default()
        .check("runner-ring-vs-park/no-recheck", || ring_vs_runner(false))
        .expect_failure();
    assert!(failure.message.contains("deadlock"), "{}", failure.message);
}
