//! Stable-update integration: the §3.5 guarantees under live traffic.
//!
//! The paper's central flexibility claims: scale up/down, routing-policy
//! changes and logic swaps must not lose tuples (stateless path) nor break
//! key affinity (stateful path with SIGNAL flushes).

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use typhoon::prelude::*;

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// A finite spout emitting `limit` sequence numbers, pausable between
/// batches so the test can overlap emission with reconfiguration.
struct Seq {
    next: i64,
    limit: i64,
}

impl Spout for Seq {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        for _ in 0..4 {
            if self.next >= self.limit {
                return false;
            }
            out.emit(vec![Value::Int(self.next)]);
            self.next += 1;
        }
        true
    }
}

struct Relay;

impl Bolt for Relay {
    fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
        out.emit(input.values);
    }
}

#[derive(Clone, Default)]
struct SeqSet {
    seen: Arc<Mutex<Vec<i64>>>,
}

struct Collect {
    set: SeqSet,
}

impl Bolt for Collect {
    fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
        if let Some(n) = input.get(0).and_then(Value::as_int) {
            self.set.seen.lock().unwrap().push(n);
        }
    }
}

const LIMIT: i64 = 200_000;

fn setup(mid: usize) -> (TyphoonCluster, TyphoonTopologyHandle, SeqSet) {
    let set = SeqSet::default();
    let mut reg = ComponentRegistry::new();
    reg.register_spout("seq", || Seq {
        next: 0,
        limit: LIMIT,
    });
    reg.register_bolt("relay", || Relay);
    let s = set.clone();
    reg.register_bolt("collect", move || Collect { set: s.clone() });
    let topo = LogicalTopology::builder("stable")
        .spout("src", "seq", 1, Fields::new(["n"]))
        .bolt("mid", "relay", mid, Fields::new(["n"]))
        .bolt("out", "collect", 1, Fields::new(["n"]))
        .edge("src", "mid", Grouping::Shuffle)
        .edge("mid", "out", Grouping::Global)
        .build()
        .unwrap();
    let cluster = TyphoonCluster::new(TyphoonConfig::new(2).with_batch_size(10), reg).unwrap();
    let handle = cluster.submit(topo).unwrap();
    (cluster, handle, set)
}

fn assert_complete(set: &SeqSet) {
    let mut seen = set.seen.lock().unwrap().clone();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen.len(),
        LIMIT as usize,
        "tuples lost: {} of {LIMIT} distinct",
        seen.len()
    );
    assert_eq!(seen[0], 0);
    assert_eq!(*seen.last().unwrap(), LIMIT - 1);
}

#[test]
fn scale_up_mid_stream_loses_nothing() {
    let (cluster, handle, set) = setup(2);
    // Reconfigure while the stream is in flight (Fig. 6(a)).
    assert!(wait_until(Duration::from_secs(5), || !set
        .seen
        .lock()
        .unwrap()
        .is_empty()));
    handle
        .reconfigure(ReconfigRequest::single(
            "stable",
            ReconfigOp::SetParallelism {
                node: "mid".into(),
                parallelism: 4,
            },
        ))
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || set.seen.lock().unwrap().len()
            >= LIMIT as usize),
        "only {} arrived",
        set.seen.lock().unwrap().len()
    );
    assert_complete(&set);
    cluster.shutdown();
}

#[test]
fn scale_down_mid_stream_loses_nothing() {
    let (cluster, handle, set) = setup(3);
    assert!(wait_until(Duration::from_secs(5), || !set
        .seen
        .lock()
        .unwrap()
        .is_empty()));
    // Fig. 6(a) removal ordering: predecessors rerouted first, victims
    // drained, then killed — no tuple may vanish.
    handle
        .reconfigure(ReconfigRequest::single(
            "stable",
            ReconfigOp::SetParallelism {
                node: "mid".into(),
                parallelism: 1,
            },
        ))
        .unwrap();
    assert_eq!(handle.tasks_of("mid").len(), 1);
    assert!(
        wait_until(Duration::from_secs(30), || set.seen.lock().unwrap().len()
            >= LIMIT as usize),
        "only {} arrived",
        set.seen.lock().unwrap().len()
    );
    assert_complete(&set);
    cluster.shutdown();
}

#[test]
fn routing_policy_change_mid_stream_loses_nothing() {
    let (cluster, handle, set) = setup(3);
    assert!(wait_until(Duration::from_secs(5), || !set
        .seen
        .lock()
        .unwrap()
        .is_empty()));
    handle
        .reconfigure(ReconfigRequest::single(
            "stable",
            ReconfigOp::SetGrouping {
                from: "src".into(),
                to: "mid".into(),
                grouping: Grouping::Fields(vec!["n".into()]),
            },
        ))
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || set.seen.lock().unwrap().len()
            >= LIMIT as usize),
        "only {} arrived",
        set.seen.lock().unwrap().len()
    );
    assert_complete(&set);
    cluster.shutdown();
}

#[test]
fn stateful_update_flushes_cache_before_rerouting() {
    // A stateful counter keyed by word; scaling it up emits SIGNALs first
    // (Fig. 6(b)) so no cached counts are stranded in killed workers.
    #[derive(Clone, Default)]
    struct Flushed {
        events: Arc<Mutex<Vec<(String, i64)>>>,
    }
    struct KeyCount {
        counts: HashMap<String, i64>,
    }
    impl Bolt for KeyCount {
        fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
            if let Some(w) = input.get(0).and_then(Value::as_str) {
                *self.counts.entry(w.into()).or_insert(0) += 1;
            }
        }
        fn on_signal(&mut self, out: &mut dyn Emitter) {
            for (w, c) in self.counts.drain() {
                out.emit(vec![Value::Str(w), Value::Int(c)]);
            }
        }
        fn is_stateful(&self) -> bool {
            true
        }
    }
    struct FlushSink {
        flushed: Flushed,
    }
    impl Bolt for FlushSink {
        fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
            if let (Some(w), Some(c)) = (
                input.get(0).and_then(Value::as_str),
                input.get(1).and_then(Value::as_int),
            ) {
                self.flushed.events.lock().unwrap().push((w.into(), c));
            }
        }
    }
    struct Words {
        i: usize,
    }
    impl Spout for Words {
        fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
            if self.i >= 3_000 {
                return false;
            }
            out.emit(vec![Value::Str(
                ["alpha", "beta", "gamma"][self.i % 3].into(),
            )]);
            self.i += 1;
            true
        }
    }

    let flushed = Flushed::default();
    let emitted = Arc::new(AtomicU64::new(0));
    let mut reg = ComponentRegistry::new();
    reg.register_spout("words", || Words { i: 0 });
    reg.register_bolt("kcount", || KeyCount {
        counts: HashMap::new(),
    });
    let f = flushed.clone();
    reg.register_bolt("fsink", move || FlushSink { flushed: f.clone() });
    let _ = emitted;

    let topo = LogicalTopology::builder("stateful")
        .spout("src", "words", 1, Fields::new(["word"]))
        .bolt_with_state("count", "kcount", 2, Fields::new(["word", "n"]), true)
        .bolt("out", "fsink", 1, Fields::new(["word", "n"]))
        .edge("src", "count", Grouping::Fields(vec!["word".into()]))
        .edge("count", "out", Grouping::Global)
        .build()
        .unwrap();
    let cluster = TyphoonCluster::new(TyphoonConfig::new(1).with_batch_size(5), reg).unwrap();
    let handle = cluster.submit(topo).unwrap();

    // Let the whole finite stream be absorbed into worker caches.
    std::thread::sleep(Duration::from_secs(3));
    assert!(
        flushed.events.lock().unwrap().is_empty(),
        "no flush before update"
    );
    handle
        .reconfigure(ReconfigRequest::single(
            "stateful",
            ReconfigOp::SetParallelism {
                node: "count".into(),
                parallelism: 3,
            },
        ))
        .unwrap();
    // The SIGNAL flush pushed every cached count downstream: the sums per
    // word must equal the full input (1000 each).
    assert!(
        wait_until(Duration::from_secs(10), || {
            let events = flushed.events.lock().unwrap();
            let mut sums: HashMap<String, i64> = HashMap::new();
            for (w, c) in events.iter() {
                *sums.entry(w.clone()).or_insert(0) += c;
            }
            ["alpha", "beta", "gamma"]
                .iter()
                .all(|w| sums.get(*w).copied().unwrap_or(0) == 1_000)
        }),
        "flushed state incomplete: {:?}",
        flushed.events.lock().unwrap()
    );
    cluster.shutdown();
}
