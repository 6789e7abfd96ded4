//! Cross-framework equivalence: the same application code must produce the
//! same results on the Storm baseline and on Typhoon — the property that
//! makes the paper's comparisons meaningful.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use typhoon::prelude::*;

/// Emits a fixed corpus of sentences once.
struct CorpusSpout {
    i: usize,
}

const CORPUS: &[&str] = &["a b c", "a b", "a c c", "d d d d", "b c d a", "a a a"];
const REPEATS: usize = 50;

impl Spout for CorpusSpout {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        if self.i >= CORPUS.len() * REPEATS {
            return false;
        }
        out.emit(vec![Value::Str(CORPUS[self.i % CORPUS.len()].into())]);
        self.i += 1;
        true
    }
}

struct Split;

impl Bolt for Split {
    fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
        if let Some(s) = input.get(0).and_then(Value::as_str) {
            for w in s.split_whitespace() {
                out.emit(vec![Value::Str(w.into())]);
            }
        }
    }
}

#[derive(Clone, Default)]
struct Counts {
    map: Arc<Mutex<HashMap<String, i64>>>,
}

struct CountSink {
    counts: Counts,
}

impl Bolt for CountSink {
    fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
        if let Some(w) = input.get(0).and_then(Value::as_str) {
            *self.counts.map.lock().unwrap().entry(w.into()).or_insert(0) += 1;
        }
    }
}

fn registry() -> (ComponentRegistry, Counts) {
    let counts = Counts::default();
    let mut reg = ComponentRegistry::new();
    reg.register_spout("corpus", || CorpusSpout { i: 0 });
    reg.register_bolt("split", || Split);
    let c = counts.clone();
    reg.register_bolt("count", move || CountSink { counts: c.clone() });
    (reg, counts)
}

fn topology() -> LogicalTopology {
    LogicalTopology::builder("equiv")
        .spout("src", "corpus", 1, Fields::new(["sentence"]))
        .bolt("split", "split", 2, Fields::new(["word"]))
        .bolt("count", "count", 3, Fields::new(["word"]))
        .edge("src", "split", Grouping::Shuffle)
        .edge("split", "count", Grouping::Fields(vec!["word".into()]))
        .build()
        .unwrap()
}

fn expected() -> HashMap<String, i64> {
    let mut m = HashMap::new();
    for s in CORPUS {
        for w in s.split_whitespace() {
            *m.entry(w.to_owned()).or_insert(0) += REPEATS as i64;
        }
    }
    m
}

fn wait_for_total(counts: &Counts, total: i64, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if counts.map.lock().unwrap().values().sum::<i64>() >= total {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn storm_word_count_matches_expected() {
    let (reg, counts) = registry();
    let cluster = StormCluster::new(StormConfig::local(2), reg);
    let _h = cluster.submit(topology()).unwrap();
    let total: i64 = expected().values().sum();
    assert!(
        wait_for_total(&counts, total, Duration::from_secs(20)),
        "storm got {:?}",
        counts.map.lock().unwrap().values().sum::<i64>()
    );
    assert_eq!(*counts.map.lock().unwrap(), expected());
    cluster.shutdown();
}

#[test]
fn typhoon_word_count_matches_expected() {
    let (reg, counts) = registry();
    let cluster = TyphoonCluster::new(TyphoonConfig::new(2).with_batch_size(10), reg).unwrap();
    let _h = cluster.submit(topology()).unwrap();
    let total: i64 = expected().values().sum();
    assert!(
        wait_for_total(&counts, total, Duration::from_secs(20)),
        "typhoon got {:?}",
        counts.map.lock().unwrap().values().sum::<i64>()
    );
    assert_eq!(*counts.map.lock().unwrap(), expected());
    cluster.shutdown();
}

#[test]
fn typhoon_tcp_tunnels_preserve_results_across_hosts() {
    let (reg, counts) = registry();
    // 1-slot hosts force every edge across a TCP tunnel.
    let mut config = TyphoonConfig::new(6).with_batch_size(10).with_tcp_tunnels();
    config.slots_per_host = 1;
    let cluster = TyphoonCluster::new(config, reg).unwrap();
    let _h = cluster.submit(topology()).unwrap();
    let total: i64 = expected().values().sum();
    assert!(
        wait_for_total(&counts, total, Duration::from_secs(30)),
        "typhoon/tcp got {:?}",
        counts.map.lock().unwrap().values().sum::<i64>()
    );
    assert_eq!(*counts.map.lock().unwrap(), expected());
    cluster.shutdown();
}
