//! Guaranteed processing under failure: when a worker dies mid-stream, the
//! acker times out its in-flight tuple trees, the spout replays them, and
//! the sink eventually sees every sequence number at least once — Storm's
//! at-least-once contract (§6.1, "if any input tuple is not fully
//! processed, it is replayed from input workers").

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use typhoon_model::{Bolt, ComponentRegistry, Emitter, Fields, Grouping, LogicalTopology, Spout};
use typhoon_storm::{StormCluster, StormConfig};
use typhoon_tuple::{Tuple, Value};

const LIMIT: i64 = 5_000;

/// A reliable sequence spout using the root-ID linkage for replay.
struct ReliableSeq {
    next: i64,
    replay: Vec<i64>,
    inflight: HashMap<u64, i64>,
    last_batch: Vec<i64>,
}

impl Spout for ReliableSeq {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        self.last_batch.clear();
        for _ in 0..4 {
            let seq = if let Some(s) = self.replay.pop() {
                s
            } else if self.next < LIMIT {
                let s = self.next;
                self.next += 1;
                s
            } else {
                break;
            };
            out.emit(vec![Value::Int(seq)]);
            self.last_batch.push(seq);
        }
        !self.last_batch.is_empty()
    }

    fn emitted(&mut self, index: usize, root: u64) {
        if let Some(&seq) = self.last_batch.get(index) {
            self.inflight.insert(root, seq);
        }
    }

    fn ack(&mut self, root: u64) {
        self.inflight.remove(&root);
    }

    fn fail(&mut self, root: u64) {
        if let Some(seq) = self.inflight.remove(&root) {
            self.replay.push(seq);
        }
    }
}

struct Relay;

impl Bolt for Relay {
    fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
        out.emit(input.values);
    }
}

#[derive(Clone, Default)]
struct Seen {
    seqs: Arc<Mutex<Vec<i64>>>,
}

struct CollectSink {
    seen: Seen,
}

impl Bolt for CollectSink {
    fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
        if let Some(n) = input.get(0).and_then(Value::as_int) {
            self.seen.seqs.lock().unwrap().push(n);
        }
    }
}

#[test]
fn worker_crash_triggers_replay_until_complete() {
    let seen = Seen::default();
    let mut reg = ComponentRegistry::new();
    reg.register_spout("seq", || ReliableSeq {
        next: 0,
        replay: Vec::new(),
        inflight: HashMap::new(),
        last_batch: Vec::new(),
    });
    reg.register_bolt("relay", || Relay);
    let s = seen.clone();
    reg.register_bolt("sink", move || CollectSink { seen: s.clone() });

    let topo = LogicalTopology::builder("reliable")
        .spout("src", "seq", 1, Fields::new(["n"]))
        .bolt("mid", "relay", 2, Fields::new(["n"]))
        .bolt("out", "sink", 1, Fields::new(["n"]))
        .edge("src", "mid", Grouping::Shuffle)
        .edge("mid", "out", Grouping::Global)
        .build()
        .unwrap();

    // Short ack timeout so replay happens within the test; fast restart.
    let config = StormConfig {
        heartbeat_timeout: Duration::from_millis(500),
        monitor_interval: Duration::from_millis(50),
        ..StormConfig::local(1)
    }
    .with_acking(Duration::from_millis(800), 64);
    let cluster = StormCluster::new(config, reg);
    let handle = cluster.submit(topo).unwrap();

    // Let some tuples flow, then murder one relay: tuples queued in its
    // inbox vanish with it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while seen.seqs.lock().unwrap().len() < 200 {
        assert!(Instant::now() < deadline, "pipeline never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    let victim = handle.tasks_of("mid")[0];
    handle.crash_task(victim);

    // At-least-once: every sequence number eventually arrives (duplicates
    // allowed — replay may re-deliver tuples that did get through).
    let deadline = Instant::now() + Duration::from_secs(40);
    loop {
        {
            let mut seqs = seen.seqs.lock().unwrap().clone();
            seqs.sort_unstable();
            seqs.dedup();
            if seqs.len() == LIMIT as usize {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "incomplete after replay: {} of {LIMIT} distinct (restarts={})",
                seqs.len(),
                handle.restarts(victim),
            );
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        handle.restarts(victim) >= 1,
        "the victim was never restarted"
    );
    // Replay really happened: total received ≥ distinct (usually >).
    let total = seen.seqs.lock().unwrap().len();
    assert!(total >= LIMIT as usize);
    cluster.shutdown();
}

#[test]
fn spout_throttles_at_max_pending() {
    // With a tiny max_pending and a sink that never acks fast (we kill the
    // acker path by pointing mid at a black hole? — simpler: huge ack
    // timeout and slow sink), the spout must stall near the cap instead of
    // flooding memory.
    struct SlowSink;
    impl Bolt for SlowSink {
        fn execute(&mut self, _input: Tuple, _out: &mut dyn Emitter) {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let mut reg = ComponentRegistry::new();
    reg.register_spout("seq", || ReliableSeq {
        next: 0,
        replay: Vec::new(),
        inflight: HashMap::new(),
        last_batch: Vec::new(),
    });
    reg.register_bolt("slow", || SlowSink);
    let topo = LogicalTopology::builder("throttle")
        .spout("src", "seq", 1, Fields::new(["n"]))
        .bolt("out", "slow", 1, Fields::new(["n"]))
        .edge("src", "out", Grouping::Global)
        .build()
        .unwrap();
    let config = StormConfig::local(1).with_acking(Duration::from_secs(60), 16);
    let cluster = StormCluster::new(config, reg);
    let handle = cluster.submit(topo).unwrap();
    std::thread::sleep(Duration::from_secs(2));
    let spout = handle.tasks_of("src")[0];
    let snap = handle.registry(spout).unwrap().snapshot();
    let emitted = snap.counter("tuples.emitted");
    let completed = snap.counter("acks.completed");
    // Throughput is ack-bound (~500/s from the 2ms sink), far below what an
    // unthrottled spout would emit; in-flight roots never exceed the cap.
    assert!(
        emitted <= completed + 16 + 4,
        "spout overran max_pending: emitted={emitted} completed={completed}"
    );
    cluster.shutdown();
}

/// The baseline's rate cap agrees with Typhoon's `InputRate`: below 10 t/s
/// it still leaves a budget of one tuple per 100 ms window (`cap / 10`
/// rounded down to none, silencing the spout for good).
#[test]
fn input_rate_below_ten_per_second_still_emits() {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Floods once the gate opens, so the cap is in place before the first
    /// tuple.
    struct Flood(Arc<AtomicBool>);
    impl Spout for Flood {
        fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
            let open = self.0.load(Ordering::Acquire);
            if open {
                out.emit(vec![Value::Int(0)]);
            }
            open
        }
    }
    struct Sink;
    impl Bolt for Sink {
        fn execute(&mut self, _input: Tuple, _out: &mut dyn Emitter) {}
    }
    let gate = Arc::new(AtomicBool::new(false));
    let mut reg = ComponentRegistry::new();
    let spout_gate = gate.clone();
    reg.register_spout("flood", move || Flood(spout_gate.clone()));
    reg.register_bolt("sink", || Sink);
    let topo = LogicalTopology::builder("capped")
        .spout("src", "flood", 1, Fields::new(["n"]))
        .bolt("out", "sink", 1, Fields::new(["n"]))
        .edge("src", "out", Grouping::Global)
        .build()
        .unwrap();
    let cluster = StormCluster::new(StormConfig::local(1), reg);
    let handle = cluster.submit(topo).unwrap();
    handle.set_input_rate(handle.tasks_of("src")[0], Some(5));
    let sink = handle.registry(handle.tasks_of("out")[0]).unwrap();
    let delivered = || sink.snapshot().counter("tuples.received");
    let opened = Instant::now();
    gate.store(true, Ordering::Release);
    while delivered() < 3 {
        assert!(
            opened.elapsed() < Duration::from_secs(5),
            "the throttle silenced the spout"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // ceil(5 / 10) = 1 per window, and the windows are not aligned with
    // the gate: n tuples take the tail of one window and n - 2 whole.
    let (delivered, windows) = (delivered(), opened.elapsed().as_millis() as u64 / 100);
    assert!(
        delivered <= windows + 2,
        "{delivered} tuples in {windows} windows"
    );
    cluster.shutdown();
}
