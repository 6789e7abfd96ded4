//! Shared workload components.
//!
//! The same spouts/bolts run unchanged on the Storm baseline and on
//! Typhoon — the comparisons vary only the framework underneath, exactly
//! as the paper's evaluation does (both systems ran the same topologies).

use rand::distributions::Distribution;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use typhoon_diag::DiagMutex as Mutex;
use typhoon_model::{Bolt, ComponentRegistry, Emitter, Fields, Grouping, LogicalTopology, Spout};
use typhoon_tuple::{Tuple, Value};

/// A spout emitting monotonically numbered string tuples at maximum speed
/// ("a source worker injects a sequence of string tuples at maximum
/// speed", §6.1). Each tuple is `(seq, payload)` with a fixed-size string
/// payload. Failed roots are replayed (reliability experiments).
pub struct SeqSpout {
    next: i64,
    limit: i64,
    payload: String,
    batch: usize,
    replay: Vec<(i64, u64)>,
    inflight: HashMap<u64, i64>,
    last_batch: Vec<i64>,
}

impl SeqSpout {
    /// An endless sequence spout with `payload_len`-byte payloads.
    pub fn new(payload_len: usize, batch: usize) -> Self {
        SeqSpout {
            next: 0,
            limit: i64::MAX,
            payload: "x".repeat(payload_len),
            batch: batch.max(1),
            replay: Vec::new(),
            inflight: HashMap::new(),
            last_batch: Vec::new(),
        }
    }

    /// A finite sequence spout.
    pub fn with_limit(mut self, limit: i64) -> Self {
        self.limit = limit;
        self
    }
}

impl Spout for SeqSpout {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        self.last_batch.clear();
        let mut emitted = false;
        for _ in 0..self.batch {
            let (seq, failed_root) = if let Some((seq, prev)) = self.replay.pop() {
                (seq, Some(prev))
            } else if self.next < self.limit {
                let s = self.next;
                self.next += 1;
                (s, None)
            } else {
                break;
            };
            let values = vec![Value::Int(seq), Value::Str(self.payload.clone())];
            match failed_root {
                Some(root) => out.emit_replay(values, root),
                None => out.emit(values),
            }
            self.last_batch.push(seq);
            emitted = true;
        }
        emitted
    }

    fn emitted(&mut self, index: usize, root: u64) {
        if let Some(&seq) = self.last_batch.get(index) {
            self.inflight.insert(root, seq);
        }
    }

    fn fail(&mut self, root: u64) {
        if let Some(seq) = self.inflight.remove(&root) {
            // Remember the failed attempt's root: the replay reuses its
            // base with a bumped round byte, keeping downstream dedup keys
            // stable across replays.
            self.replay.push((seq, root));
        }
    }

    fn ack(&mut self, root: u64) {
        self.inflight.remove(&root);
    }
}

/// A *deterministic, replayable* sentence source for the crash-recovery
/// experiments: sentence `i` is a pure function of `i` (and the seed), so
/// a fault run and a no-fault baseline emit the identical sentence stream
/// and their final word counts can be compared exactly. Failed roots are
/// replayed with the original root's base (bumped round byte), the link
/// that lets restored count bolts dedup already-folded replays.
pub struct ReplaySentenceSpout {
    next: i64,
    limit: i64,
    batch: usize,
    seed: u64,
    words_per_sentence: usize,
    replay: Vec<(i64, u64)>,
    inflight: HashMap<u64, i64>,
    last_batch: Vec<i64>,
}

impl ReplaySentenceSpout {
    /// A seeded deterministic sentence source emitting `limit` sentences.
    pub fn new(seed: u64, batch: usize, limit: i64) -> Self {
        ReplaySentenceSpout {
            next: 0,
            limit,
            batch: batch.max(1),
            seed,
            words_per_sentence: 6,
            replay: Vec::new(),
            inflight: HashMap::new(),
            last_batch: Vec::new(),
        }
    }

    /// The sentence for sequence number `seq` — pure, so replays and
    /// baseline runs regenerate the exact same words.
    pub fn sentence(seed: u64, seq: i64, words_per_sentence: usize) -> String {
        let mut words = Vec::with_capacity(words_per_sentence);
        for pos in 0..words_per_sentence {
            // splitmix64 over (seed, seq, pos).
            let mut x = seed
                .wrapping_add((seq as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_add((pos as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
            words.push(WORDS[(x % WORDS.len() as u64) as usize]);
        }
        words.join(" ")
    }
}

impl Spout for ReplaySentenceSpout {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        self.last_batch.clear();
        let mut emitted = false;
        for _ in 0..self.batch {
            let (seq, failed_root) = if let Some((seq, prev)) = self.replay.pop() {
                (seq, Some(prev))
            } else if self.next < self.limit {
                let s = self.next;
                self.next += 1;
                (s, None)
            } else {
                break;
            };
            let values = vec![Value::Str(Self::sentence(
                self.seed,
                seq,
                self.words_per_sentence,
            ))];
            match failed_root {
                Some(root) => out.emit_replay(values, root),
                None => out.emit(values),
            }
            self.last_batch.push(seq);
            emitted = true;
        }
        emitted
    }

    fn emitted(&mut self, index: usize, root: u64) {
        if let Some(&seq) = self.last_batch.get(index) {
            self.inflight.insert(root, seq);
        }
    }

    fn fail(&mut self, root: u64) {
        if let Some(seq) = self.inflight.remove(&root) {
            self.replay.push((seq, root));
        }
    }

    fn ack(&mut self, root: u64) {
        self.inflight.remove(&root);
    }
}

/// Shared sink counter: counts received tuples and checks sequence gaps.
#[derive(Clone, Default)]
pub struct SinkCounter {
    /// Tuples received.
    pub received: Arc<AtomicU64>,
    /// Received seq smaller than one already seen (reordering indicator).
    pub out_of_order: Arc<AtomicU64>,
    max_seen: Arc<AtomicU64>,
}

impl SinkCounter {
    /// Fresh counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Received count.
    pub fn count(&self) -> u64 {
        self.received.load(Ordering::Relaxed)
    }
}

/// A sink bolt that "checks the sequence numbers in the tuples" (§6.1).
pub struct SeqSinkBolt {
    /// Shared counters read by the harness.
    pub counter: SinkCounter,
}

impl Bolt for SeqSinkBolt {
    fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
        self.counter.received.fetch_add(1, Ordering::Relaxed);
        if let Some(seq) = input.get(0).and_then(Value::as_int) {
            let seq = seq.max(0) as u64;
            let prev = self.counter.max_seen.fetch_max(seq, Ordering::Relaxed);
            if seq < prev {
                self.counter.out_of_order.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A pass-through bolt that re-emits its input (pipeline filler).
pub struct RelayBolt;

impl Bolt for RelayBolt {
    fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
        out.emit(input.values);
    }
}

// ------------------------------------------------------------ word count

/// Vocabulary for the sentence generator.
pub const WORDS: &[&str] = &[
    "the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog", "stream", "tuple", "switch",
    "route", "flow", "packet", "worker", "storm", "typhoon", "cloud", "data", "count",
];

/// A spout emitting random sentences; with `zipf = true` the word choice
/// is heavily skewed (the "skewed workloads" of §1's motivation).
pub struct SentenceSpout {
    rng: SmallRng,
    zipf: bool,
    batch: usize,
    words_per_sentence: usize,
}

impl SentenceSpout {
    /// A uniform-vocabulary sentence source.
    pub fn new(batch: usize) -> Self {
        SentenceSpout {
            rng: SmallRng::seed_from_u64(42),
            zipf: false,
            batch: batch.max(1),
            words_per_sentence: 6,
        }
    }

    /// Skews word frequency (Zipf-like, exponent ≈ 1.2).
    pub fn skewed(mut self) -> Self {
        self.zipf = true;
        self
    }

    fn pick_word(&mut self) -> &'static str {
        if self.zipf {
            // Inverse-CDF sample of a Zipf(1.2) over the vocabulary.
            let u: f64 = self.rng.gen_range(0.0001..1.0);
            let idx = ((1.0 / u).powf(1.0 / 1.2) - 1.0) as usize;
            WORDS[idx.min(WORDS.len() - 1)]
        } else {
            WORDS[self.rng.gen_range(0..WORDS.len())]
        }
    }
}

impl Spout for SentenceSpout {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        for _ in 0..self.batch {
            let sentence: Vec<&str> = (0..self.words_per_sentence)
                .map(|_| self.pick_word())
                .collect();
            out.emit(vec![Value::Str(sentence.join(" "))]);
        }
        true
    }
}

/// Splits sentences into words (the `split` node of Fig. 2).
pub struct SplitBolt;

impl Bolt for SplitBolt {
    fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
        if let Some(sentence) = input.get(0).and_then(Value::as_str) {
            for word in sentence.split_whitespace() {
                out.emit(vec![Value::Str(word.to_owned())]);
            }
        }
    }
}

/// Counts words with an in-memory cache and key-based routing — the
/// canonical stateful worker (Table 4, Listing 2). Emits `(word, count)`
/// per input; flushes the whole cache on `SIGNAL`.
pub struct CountBolt {
    counts: HashMap<String, i64>,
}

impl CountBolt {
    /// An empty counter.
    pub fn new() -> Self {
        CountBolt {
            counts: HashMap::new(),
        }
    }
}

impl Default for CountBolt {
    fn default() -> Self {
        Self::new()
    }
}

impl Bolt for CountBolt {
    fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
        if let Some(word) = input.get(0).and_then(Value::as_str) {
            let c = self.counts.entry(word.to_owned()).or_insert(0);
            *c += 1;
            out.emit(vec![Value::Str(word.to_owned()), Value::Int(*c)]);
        }
    }

    fn on_signal(&mut self, out: &mut dyn Emitter) {
        // Listing 2: flush the cache downstream.
        for (word, count) in self.counts.drain() {
            out.emit(vec![Value::Str(word), Value::Int(count)]);
        }
    }

    fn is_stateful(&self) -> bool {
        true
    }

    fn checkpoint(&self) -> Option<Vec<(String, Value)>> {
        let mut state: Vec<(String, Value)> = self
            .counts
            .iter()
            .map(|(w, c)| (w.clone(), Value::Int(*c)))
            .collect();
        state.sort_by(|a, b| a.0.cmp(&b.0));
        Some(state)
    }

    fn restore(&mut self, state: Vec<(String, Value)>, out: &mut dyn Emitter) {
        self.counts.clear();
        for (word, v) in state {
            if let Some(c) = v.as_int() {
                self.counts.insert(word.clone(), c);
                // Re-emit restored counts (unanchored): the latest-wins
                // aggregator downstream re-converges even though the
                // pre-crash in-flight emissions died with the old worker.
                out.emit(vec![Value::Str(word), Value::Int(c)]);
            }
        }
    }
}

/// Terminal aggregation sink: tracks the latest count per word.
#[derive(Clone, Default)]
pub struct AggState {
    /// word → latest count.
    pub counts: Arc<Mutex<HashMap<String, i64>>>,
}

/// The `aggregator` sink node of Fig. 2.
pub struct AggregatorBolt {
    /// Shared state read by the harness.
    pub state: AggState,
}

impl Bolt for AggregatorBolt {
    fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
        if let (Some(word), Some(count)) = (
            input.get(0).and_then(Value::as_str),
            input.get(1).and_then(Value::as_int),
        ) {
            self.state.counts.lock().insert(word.to_owned(), count);
        }
    }
}

/// A sink that just counts (broadcast/forwarding benchmarks).
pub struct NullSinkBolt {
    /// Shared counter.
    pub counter: SinkCounter,
}

impl Bolt for NullSinkBolt {
    fn execute(&mut self, _input: Tuple, _out: &mut dyn Emitter) {
        self.counter.received.fetch_add(1, Ordering::Relaxed);
    }
}

// -------------------------------------------------------------- builders

/// Registers the standard components into a registry:
/// `seq-spout[-<len>]`, `sentence-spout`, `split`, `count`, `agg`,
/// `seq-sink`, `null-sink`, `relay`.
pub fn register_standard(
    reg: &mut ComponentRegistry,
    payload_len: usize,
    spout_batch: usize,
) -> (SinkCounter, AggState) {
    let sink = SinkCounter::new();
    let agg = AggState::default();
    reg.register_spout("seq-spout", move || SeqSpout::new(payload_len, spout_batch));
    reg.register_spout("sentence-spout", move || SentenceSpout::new(spout_batch));
    reg.register_spout("sentence-spout-skewed", move || {
        SentenceSpout::new(spout_batch).skewed()
    });
    reg.register_bolt("split", || SplitBolt);
    reg.register_bolt("count", CountBolt::new);
    let a = agg.clone();
    reg.register_bolt("agg", move || AggregatorBolt { state: a.clone() });
    let s = sink.clone();
    reg.register_bolt("seq-sink", move || SeqSinkBolt { counter: s.clone() });
    let s = sink.clone();
    reg.register_bolt("null-sink", move || NullSinkBolt { counter: s.clone() });
    reg.register_bolt("relay", || RelayBolt);
    (sink, agg)
}

/// The two-worker forwarding topology of §6.1 ("a simple topology
/// consisting of two workers").
pub fn forwarding_topology() -> LogicalTopology {
    LogicalTopology::builder("forwarding")
        .spout("source", "seq-spout", 1, Fields::new(["seq", "payload"]))
        .bolt("sink", "seq-sink", 1, Fields::new(["seq"]))
        .edge("source", "sink", Grouping::Global)
        .build()
        .expect("valid")
}

/// The one-to-many topology of §6.1 Fig. 9: one source broadcasting to
/// `sinks` sink workers.
pub fn broadcast_topology(sinks: usize) -> LogicalTopology {
    LogicalTopology::builder("broadcast")
        .spout("source", "seq-spout", 1, Fields::new(["seq", "payload"]))
        .bolt("sink", "null-sink", sinks, Fields::new(["seq"]))
        .edge("source", "sink", Grouping::All)
        .build()
        .expect("valid")
}

/// The exact word counts a run over `roots` sentences of seed `seed` must
/// converge to, recomputed from the pure sentence function — the ground
/// truth the crash-recovery tests and experiments compare against.
pub fn expected_word_counts(seed: u64, roots: i64) -> HashMap<String, i64> {
    let mut counts = HashMap::new();
    for seq in 0..roots {
        for word in ReplaySentenceSpout::sentence(seed, seq, 6).split_whitespace() {
            *counts.entry(word.to_owned()).or_insert(0) += 1;
        }
    }
    counts
}

/// Registers the deterministic replayable sentence source under
/// `replay-sentence-spout` (the crash-recovery workload's source).
pub fn register_replay_spout(reg: &mut ComponentRegistry, seed: u64, batch: usize, limit: i64) {
    reg.register_spout("replay-sentence-spout", move || {
        ReplaySentenceSpout::new(seed, batch, limit)
    });
}

/// The word-count topology wired to the deterministic replayable source —
/// the crash-recovery experiments' workload: identical seeds produce
/// identical word streams, so post-recovery counts can be compared
/// exactly against a no-fault baseline.
pub fn recovery_word_count_topology(splits: usize, counts: usize) -> LogicalTopology {
    LogicalTopology::builder("word-count-recovery")
        .spout(
            "input",
            "replay-sentence-spout",
            1,
            Fields::new(["sentence"]),
        )
        .bolt("split", "split", splits, Fields::new(["word"]))
        .bolt_with_state(
            "count",
            "count",
            counts,
            Fields::new(["word", "count"]),
            true,
        )
        .bolt("aggregator", "agg", 1, Fields::new(["word", "count"]))
        .edge("input", "split", Grouping::Shuffle)
        .edge("split", "count", Grouping::Fields(vec!["word".into()]))
        .edge("count", "aggregator", Grouping::Global)
        .build()
        .expect("valid")
}

/// The word-count topology of Fig. 2 / Fig. 10: 1 source, `splits` split
/// workers (shuffle), `counts` count workers (key-based).
pub fn word_count_topology(splits: usize, counts: usize) -> LogicalTopology {
    LogicalTopology::builder("word-count")
        .spout("input", "sentence-spout", 1, Fields::new(["sentence"]))
        .bolt("split", "split", splits, Fields::new(["word"]))
        .bolt_with_state(
            "count",
            "count",
            counts,
            Fields::new(["word", "count"]),
            true,
        )
        .edge("input", "split", Grouping::Shuffle)
        .edge("split", "count", Grouping::Fields(vec!["word".into()]))
        .build()
        .expect("valid")
}

/// A sampled distribution helper kept for workload extensions.
pub struct ZipfSampler {
    rng: SmallRng,
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// A Zipf(`s`) sampler over `n` items.
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n > 0);
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ZipfSampler {
            rng: SmallRng::seed_from_u64(seed),
            cdf,
        }
    }

    /// Draws one item index in `0..n`.
    pub fn sample(&mut self) -> usize {
        let u: f64 = rand::distributions::Uniform::new(0.0, 1.0).sample(&mut self.rng);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typhoon_model::VecEmitter;
    use typhoon_tuple::tuple::TaskId;

    #[test]
    fn seq_spout_emits_in_order_and_respects_limit() {
        let mut s = SeqSpout::new(8, 4).with_limit(6);
        let mut out = VecEmitter::default();
        assert!(s.next_batch(&mut out));
        assert!(s.next_batch(&mut out));
        assert!(!s.next_batch(&mut out), "exhausted");
        assert_eq!(out.emitted.len(), 6);
        let seqs: Vec<i64> = out
            .emitted
            .iter()
            .map(|(_, v)| v[0].as_int().unwrap())
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn split_bolt_splits() {
        let mut b = SplitBolt;
        let mut out = VecEmitter::default();
        b.execute(
            Tuple::new(TaskId(0), vec![Value::Str("a b c".into())]),
            &mut out,
        );
        assert_eq!(out.emitted.len(), 3);
    }

    #[test]
    fn count_bolt_counts_and_flushes_on_signal() {
        let mut b = CountBolt::new();
        let mut out = VecEmitter::default();
        for w in ["x", "y", "x"] {
            b.execute(Tuple::new(TaskId(0), vec![Value::Str(w.into())]), &mut out);
        }
        assert!(b.is_stateful());
        let last = &out.emitted.last().unwrap().1;
        assert_eq!(last[0].as_str(), Some("x"));
        assert_eq!(last[1].as_int(), Some(2));
        out.emitted.clear();
        b.on_signal(&mut out);
        assert_eq!(out.emitted.len(), 2, "cache flushed");
        b.on_signal(&mut out);
        assert_eq!(out.emitted.len(), 2, "cache drained after flush");
    }

    /// Each emission's first value and the failed root it replays, if any.
    #[derive(Default)]
    struct Replays(Vec<(i64, Option<u64>)>);

    impl Emitter for Replays {
        fn emit_on(&mut self, _stream: typhoon_tuple::StreamId, values: Vec<Value>) {
            self.0.push((values[0].as_int().unwrap_or(-1), None));
        }

        fn emit_replay(&mut self, values: Vec<Value>, failed_root: u64) {
            self.0
                .push((values[0].as_int().unwrap_or(-1), Some(failed_root)));
        }
    }

    #[test]
    fn seq_spout_replays_with_the_original_root() {
        let mut s = SeqSpout::new(4, 1).with_limit(10);
        let mut out = Replays::default();
        assert!(s.next_batch(&mut out));
        assert_eq!(out.0, [(0, None)], "fresh emission, fresh root");
        s.emitted(0, 0x7700);
        s.fail(0x7700);
        assert!(s.next_batch(&mut out));
        assert_eq!(
            out.0[1],
            (0, Some(0x7700)),
            "the failed seq is replayed with the failed attempt's root"
        );
    }

    #[test]
    fn replay_sentence_spout_replays_with_the_original_root() {
        let mut s = ReplaySentenceSpout::new(1, 2, 4);
        let mut out = VecEmitter::default();
        assert!(s.next_batch(&mut out));
        s.emitted(0, 0x100);
        s.emitted(1, 0x200);
        s.fail(0x200);
        let mut replays = Replays::default();
        assert!(s.next_batch(&mut replays));
        assert_eq!(replays.0[0].1, Some(0x200), "the replay comes first");
        assert_eq!(replays.0[1].1, None, "then the next fresh sentence");
    }

    #[test]
    fn replay_sentence_spout_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut s = ReplaySentenceSpout::new(seed, 4, 8);
            let mut out = VecEmitter::default();
            while s.next_batch(&mut out) {}
            out.emitted
                .iter()
                .map(|(_, v)| v[0].as_str().unwrap().to_owned())
                .collect::<Vec<_>>()
        };
        let a = run(0xc4a0);
        assert_eq!(a.len(), 8);
        assert_eq!(a, run(0xc4a0), "same seed, same sentences");
        assert_ne!(a, run(0xc4a1), "different seed, different sentences");
        assert_eq!(
            ReplaySentenceSpout::sentence(0xc4a0, 3, 6),
            a[3],
            "sentence(seq) is pure"
        );
    }

    #[test]
    fn count_bolt_checkpoint_restore_roundtrips_and_reemits() {
        let mut b = CountBolt::new();
        let mut out = VecEmitter::default();
        for w in ["x", "y", "x"] {
            b.execute(Tuple::new(TaskId(0), vec![Value::Str(w.into())]), &mut out);
        }
        let snap = b.checkpoint().expect("stateful bolt snapshots");
        let mut fresh = CountBolt::new();
        out.emitted.clear();
        fresh.restore(snap, &mut out);
        assert_eq!(out.emitted.len(), 2, "restored entries re-emitted");
        out.emitted.clear();
        fresh.execute(
            Tuple::new(TaskId(0), vec![Value::Str("x".into())]),
            &mut out,
        );
        let last = &out.emitted.last().unwrap().1;
        assert_eq!(last[1].as_int(), Some(3), "counting resumes from snapshot");
    }

    #[test]
    fn seq_sink_detects_out_of_order() {
        let counter = SinkCounter::new();
        let mut sink = SeqSinkBolt {
            counter: counter.clone(),
        };
        let mut out = VecEmitter::default();
        for seq in [0i64, 1, 2, 1, 3] {
            sink.execute(Tuple::new(TaskId(0), vec![Value::Int(seq)]), &mut out);
        }
        assert_eq!(counter.count(), 5);
        assert_eq!(counter.out_of_order.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn topologies_validate() {
        forwarding_topology().validate().unwrap();
        broadcast_topology(6).validate().unwrap();
        word_count_topology(2, 4).validate().unwrap();
        recovery_word_count_topology(2, 2).validate().unwrap();
    }

    #[test]
    fn zipf_sampler_is_head_heavy() {
        let mut z = ZipfSampler::new(100, 1.2, 7);
        let mut head = 0;
        for _ in 0..1000 {
            if z.sample() < 10 {
                head += 1;
            }
        }
        assert!(head > 500, "head got {head}/1000");
    }

    #[test]
    fn skewed_sentences_prefer_early_words() {
        let mut s = SentenceSpout::new(1).skewed();
        let mut first_word_hits = 0;
        for _ in 0..500 {
            if s.pick_word() == WORDS[0] {
                first_word_hits += 1;
            }
        }
        assert!(first_word_hits > 100, "got {first_word_hits}");
    }
}
