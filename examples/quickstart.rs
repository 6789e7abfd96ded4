//! Quickstart: the word-count topology of the paper's Fig. 2 on a Typhoon
//! cluster, with one live reconfiguration.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use typhoon::prelude::*;

/// Emits random sentences forever.
struct SentenceSpout {
    i: usize,
}

const SENTENCES: &[&str] = &[
    "the quick brown fox",
    "jumps over the lazy dog",
    "typhoon routes tuples with sdn",
    "the switch replicates the payload",
];

impl Spout for SentenceSpout {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        out.emit(vec![Value::Str(SENTENCES[self.i % SENTENCES.len()].into())]);
        self.i += 1;
        true
    }
}

/// Splits sentences into words.
struct Split;

impl Bolt for Split {
    fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
        if let Some(s) = input.get(0).and_then(Value::as_str) {
            for word in s.split_whitespace() {
                out.emit(vec![Value::Str(word.into())]);
            }
        }
    }
}

/// Counts words (stateful: in-memory cache + key-based routing, Table 4).
struct Count {
    counts: HashMap<String, i64>,
    shared: Arc<Mutex<HashMap<String, i64>>>,
}

impl Bolt for Count {
    fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
        if let Some(w) = input.get(0).and_then(Value::as_str) {
            let c = self.counts.entry(w.to_owned()).or_insert(0);
            *c += 1;
            self.shared.lock().unwrap().insert(w.to_owned(), *c);
        }
    }

    fn is_stateful(&self) -> bool {
        true
    }
}

fn main() {
    let results: Arc<Mutex<HashMap<String, i64>>> = Arc::default();
    let mut components = ComponentRegistry::new();
    components.register_spout("sentences", || SentenceSpout { i: 0 });
    components.register_bolt("split", || Split);
    let r = results.clone();
    components.register_bolt("count", move || Count {
        counts: HashMap::new(),
        shared: r.clone(),
    });

    let topology = LogicalTopology::builder("word-count")
        .spout("input", "sentences", 1, Fields::new(["sentence"]))
        .bolt("split", "split", 2, Fields::new(["word"]))
        .bolt_with_state("count", "count", 2, Fields::new(["word", "count"]), true)
        .edge("input", "split", Grouping::Shuffle)
        .edge("split", "count", Grouping::Fields(vec!["word".into()]))
        .build()
        .expect("valid topology");

    println!("booting a 2-host Typhoon cluster (switches, tunnels, controller)…");
    let cluster =
        TyphoonCluster::new(TyphoonConfig::new(2).with_batch_size(50), components).unwrap();
    let handle = cluster.submit(topology).unwrap();
    println!(
        "topology deployed: tasks = {:?}",
        handle.physical().unwrap().assignments.len()
    );

    std::thread::sleep(Duration::from_secs(3));
    println!("\ntop words after 3s:");
    let mut top: Vec<(String, i64)> = results.lock().unwrap().clone().into_iter().collect();
    top.sort_by_key(|(_, c)| -c);
    for (word, count) in top.iter().take(5) {
        println!("  {word:<10} {count}");
    }

    println!("\nlive reconfiguration: split 2 → 3 workers (no restart)…");
    handle
        .reconfigure(ReconfigRequest::single(
            "word-count",
            ReconfigOp::SetParallelism {
                node: "split".into(),
                parallelism: 3,
            },
        ))
        .unwrap();
    println!("split tasks now: {:?}", handle.tasks_of("split"));

    std::thread::sleep(Duration::from_secs(2));
    let total: i64 = results.lock().unwrap().values().sum();
    println!("\nstill counting after the reconfig: {total} total word occurrences");
    cluster.shutdown();
    println!("done.");
}
