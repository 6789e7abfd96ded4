//! Bench-owned operators: the final operators that time and check what
//! arrives, and the `split` stage that carries the due stamp through.

use crate::clock::now_ns;
use crate::gen::{Sample, SAMPLE_EVERY};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use typhoon_model::{Bolt, Emitter};
use typhoon_tuple::{Tuple, Value};

/// What one final-operator task has seen. Each task owns its state behind
/// its own (uncontended) mutex; the harness reads it at window boundaries.
#[derive(Debug, Default)]
pub struct SinkState {
    /// Tuples executed.
    pub delivered: u64,
    /// The sequence number an in-order stream would deliver next.
    pub next_seq: u64,
    /// Tuples whose sequence number was not `next_seq` (a gap, a duplicate
    /// or a reordering each break the chain at least once).
    pub misordered: u64,
    /// Due → `execute` samples, one sequence number in [`SAMPLE_EVERY`].
    pub samples: Vec<Sample>,
    /// Per-word counts (`wc_churn` only).
    pub words: HashMap<String, u64>,
}

/// The states of every final-operator task a topology launched.
#[derive(Debug, Default, Clone)]
pub struct SinkBoard {
    tasks: Arc<Mutex<Vec<Arc<Mutex<SinkState>>>>>,
    /// Samples each task reserves room for up front, so no reallocation of
    /// the sample log lands inside a timed `execute`.
    reserve: usize,
}

impl SinkBoard {
    /// A board whose tasks each pre-allocate `reserve` samples.
    pub fn with_reserve(reserve: usize) -> Self {
        SinkBoard {
            tasks: Arc::default(),
            reserve,
        }
    }

    /// Registers a new task's state (called from the bolt factory).
    fn join(&self) -> Arc<Mutex<SinkState>> {
        let state = Arc::new(Mutex::new(SinkState {
            samples: Vec::with_capacity(self.reserve),
            ..SinkState::default()
        }));
        self.tasks
            .lock()
            .expect("sink board poisoned")
            .push(state.clone());
        state
    }

    /// Runs `f` over each task's state.
    pub fn each<T>(&self, mut f: impl FnMut(&mut SinkState) -> T) -> Vec<T> {
        let board = self.tasks.lock().expect("sink board poisoned");
        board
            .iter()
            .map(|s| f(&mut s.lock().expect("sink state poisoned")))
            .collect()
    }

    /// Tuples executed by all final operators so far.
    pub fn delivered(&self) -> u64 {
        self.each(|s| s.delivered).into_iter().sum()
    }
}

fn stamp(input: &Tuple) -> (u64, u64) {
    let field = |i: usize| input.get(i).and_then(Value::as_int).unwrap_or(0) as u64;
    (field(0), field(1))
}

/// Final operator of the forwarding and fan-out workloads: checks that the
/// stream arrives complete and in order, and times one tuple in eight.
pub struct SeqSink(Arc<Mutex<SinkState>>);

impl SeqSink {
    /// A sink task reporting to `board`.
    pub fn new(board: &SinkBoard) -> Self {
        SeqSink(board.join())
    }
}

impl Bolt for SeqSink {
    fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
        let at_ns = now_ns();
        let (due_ns, seq) = stamp(&input);
        let mut s = self.0.lock().expect("sink state poisoned");
        s.delivered += 1;
        if seq != s.next_seq {
            s.misordered += 1;
        }
        s.next_seq = seq + 1;
        if seq % SAMPLE_EVERY == 0 {
            s.samples.push(Sample { seq, due_ns, at_ns });
        }
    }
}

/// `split` of the word count: one `(due, seq, word)` per word, so the final
/// operator can time each word against its sentence's due time.
pub struct SplitBolt;

impl Bolt for SplitBolt {
    fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
        let Some(sentence) = input.get(2).and_then(Value::as_str) else {
            return;
        };
        for word in sentence.split_whitespace() {
            out.emit(vec![
                input.values[0].clone(),
                input.values[1].clone(),
                Value::Str(word.to_owned()),
            ]);
        }
    }
}

/// Final operator of the word count: counts words, times the words of one
/// sentence in eight.
pub struct CountSink(Arc<Mutex<SinkState>>);

impl CountSink {
    /// A count task reporting to `board`.
    pub fn new(board: &SinkBoard) -> Self {
        CountSink(board.join())
    }
}

impl Bolt for CountSink {
    fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
        let at_ns = now_ns();
        let (due_ns, seq) = stamp(&input);
        let Some(word) = input.get(2).and_then(Value::as_str) else {
            return;
        };
        let mut s = self.0.lock().expect("sink state poisoned");
        s.delivered += 1;
        match s.words.get_mut(word) {
            Some(n) => *n += 1,
            None => {
                s.words.insert(word.to_owned(), 1);
            }
        }
        if seq % SAMPLE_EVERY == 0 {
            s.samples.push(Sample { seq, due_ns, at_ns });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typhoon_model::VecEmitter;
    use typhoon_tuple::tuple::TaskId;

    fn tuple(due: i64, seq: i64, s: &str) -> Tuple {
        Tuple::new(
            TaskId(0),
            vec![Value::Int(due), Value::Int(seq), Value::Str(s.into())],
        )
    }

    #[test]
    fn seq_sink_counts_breaks_in_the_sequence() {
        let board = SinkBoard::default();
        let mut sink = SeqSink::new(&board);
        let mut out = VecEmitter::default();
        // 0 1 2 | 4 (gap) | 4 (duplicate) | 3 (late) | 5
        for seq in [0, 1, 2, 4, 4, 3, 5] {
            sink.execute(tuple(1, seq, "p"), &mut out);
        }
        assert_eq!(board.delivered(), 7);
        assert_eq!(board.each(|s| s.misordered), vec![4]);
        assert_eq!(board.each(|s| s.samples.len()), vec![1], "seq 0 only");
    }

    #[test]
    fn split_keeps_the_stamp_and_count_sink_counts() {
        let board = SinkBoard::default();
        let mut count = CountSink::new(&board);
        let mut out = VecEmitter::default();
        SplitBolt.execute(tuple(77, 8, "the fox the"), &mut out);
        assert_eq!(out.emitted.len(), 3);
        let mut sink_out = VecEmitter::default();
        for (_, values) in out.emitted {
            assert_eq!(values[0].as_int(), Some(77));
            assert_eq!(values[1].as_int(), Some(8));
            count.execute(Tuple::new(TaskId(1), values), &mut sink_out);
        }
        board.each(|s| {
            assert_eq!(s.words["the"], 2);
            assert_eq!(s.words["fox"], 1);
            assert_eq!(s.delivered, 3);
            assert_eq!(s.samples.len(), 3, "every word of a sampled sentence");
        });
    }
}
