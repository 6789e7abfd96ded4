//! The open-loop generator.
//!
//! Tuple `i` is due at `t0 + phase + i / rate`. `next_batch` emits every
//! tuple already due and stamps the **due** time into field 0, so a stall
//! anywhere — the system pushing back on the spout thread, or the spout
//! thread losing the CPU — is charged to the tuples it delayed instead of
//! being hidden by a generator that slows down with the system
//! (coordinated omission). How late the generator itself ran is reported.

use crate::clock::now_ns;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use typhoon_bench::workloads::ReplaySentenceSpout;
use typhoon_model::{Emitter, Spout};
use typhoon_tuple::Value;

/// Most tuples one `next_batch` call emits: a stalled generator catches up
/// in bounded steps so the worker loop keeps polling ingress and flushing.
pub const MAX_BURST: u64 = 256;

/// One tuple in `SAMPLE_EVERY`, by sequence number, is timed.
pub const SAMPLE_EVERY: u64 = 8;

/// Words per generated sentence (the `wc_churn` fan-out).
pub const WORDS_PER_SENTENCE: usize = 6;

/// splitmix64: the suite's only source of seeded bits.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The emission schedule: a pure function of `(seed, rate, elapsed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Tuples per second.
    pub rate: u64,
    /// Offset of tuple 0 from `t0`, below one inter-arrival time.
    pub phase_ns: u64,
}

impl Schedule {
    /// The schedule of `rate` tuples per second with a seeded phase.
    pub fn new(seed: u64, rate: u64) -> Self {
        assert!(rate > 0, "a paced generator needs a rate");
        let period_ns = (1_000_000_000 / rate).max(1);
        Schedule {
            rate,
            phase_ns: splitmix(seed) % period_ns,
        }
    }

    /// When tuple `i` is due, in nanoseconds after `t0`.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.phase_ns + (u128::from(i) * 1_000_000_000 / u128::from(self.rate)) as u64
    }

    /// How many tuples are due `elapsed_ns` after `t0` (tuple `i` is due
    /// iff `i < due_count`).
    pub fn due_count(&self, elapsed_ns: u64) -> u64 {
        match elapsed_ns.checked_sub(self.phase_ns) {
            None => 0,
            Some(x) => (u128::from(x + 1) * u128::from(self.rate)).div_ceil(1_000_000_000) as u64,
        }
    }
}

/// What field 2 of each tuple carries.
#[derive(Debug, Clone)]
pub enum Payload {
    /// The same seeded string in every tuple.
    Fixed(String),
    /// `ReplaySentenceSpout::sentence(seed, seq)`: six seeded words.
    Sentence(u64),
}

impl Payload {
    /// A seeded printable payload of `len` bytes.
    pub fn fixed(seed: u64, len: usize) -> Payload {
        let mut s = String::with_capacity(len);
        let mut x = seed;
        while s.len() < len {
            x = splitmix(x);
            s.extend(
                x.to_le_bytes()
                    .iter()
                    .map(|b| char::from(b'a' + b % 26))
                    .take(len - s.len()),
            );
        }
        Payload::Fixed(s)
    }

    fn value(&self, seq: u64) -> Value {
        Value::Str(match self {
            Payload::Fixed(s) => s.clone(),
            Payload::Sentence(seed) => {
                ReplaySentenceSpout::sentence(*seed, seq as i64, WORDS_PER_SENTENCE)
            }
        })
    }
}

/// A timed tuple: which one, when it was due, when it was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Sequence number at the generator.
    pub seq: u64,
    /// Due time, ns since the process epoch.
    pub due_ns: u64,
    /// Observation time, ns since the process epoch.
    pub at_ns: u64,
}

/// The acked path as the spout sees it (`ack_remote`).
#[derive(Debug, Default)]
pub struct AckLog {
    /// root → sequence number, for roots emitted and not yet resolved.
    pub pending: HashMap<u64, u64>,
    /// Roots acked while pending (exactly-once acks).
    pub acked: u64,
    /// `fail` callbacks.
    pub failed: u64,
    /// Acks or fails for a root that was not pending (duplicates).
    pub unknown: u64,
    /// Due → ack-callback samples, one root in [`SAMPLE_EVERY`].
    pub samples: Vec<Sample>,
}

/// What the harness and the generator share.
#[derive(Debug, Default)]
pub struct GenShared {
    /// `t0` in ns since the process epoch; 0 while the generator is held.
    pub start_ns: AtomicU64,
    /// Tuples emitted so far.
    pub emitted: AtomicU64,
    /// Due time → emit time of sampled tuples: how late the generator ran.
    pub late: Mutex<Vec<Sample>>,
    /// Ack bookkeeping (stays empty on unacked workloads).
    pub acks: Mutex<AckLog>,
}

impl GenShared {
    /// Shared state with room for `samples` timed tuples, so the logs never
    /// reallocate inside the spout's loop.
    pub fn with_reserve(samples: usize, acked: bool) -> Self {
        let shared = GenShared::default();
        shared.late.lock().expect("fresh lock").reserve(samples);
        if acked {
            let mut log = shared.acks.lock().expect("fresh lock");
            log.samples.reserve(samples);
            log.pending.reserve(1 << 16);
        }
        shared
    }

    /// Releases the generator: tuple 0 falls due from now.
    pub fn open(&self) -> u64 {
        let t0 = now_ns();
        self.start_ns.store(t0, Ordering::Release);
        t0
    }
}

/// The bench-owned paced spout. Emits `(due_ns, seq, payload)`.
pub struct PacedSpout {
    schedule: Schedule,
    payload: Payload,
    /// Stop after this many tuples: the run's input is fixed by its
    /// arguments, not by when the harness looked.
    limit: u64,
    next: u64,
    batch_start: u64,
    shared: Arc<GenShared>,
}

impl PacedSpout {
    /// A generator emitting `limit` tuples on `schedule` once released.
    pub fn new(schedule: Schedule, payload: Payload, limit: u64, shared: Arc<GenShared>) -> Self {
        PacedSpout {
            schedule,
            payload,
            limit,
            next: 0,
            batch_start: 0,
            shared,
        }
    }

    /// Emits what is due at `now_ns`; split from `next_batch` so tests can
    /// drive the clock.
    fn emit_due(&mut self, t0: u64, now_ns: u64, out: &mut dyn Emitter) -> bool {
        let due = self
            .schedule
            .due_count(now_ns.saturating_sub(t0))
            .min(self.limit);
        let end = due.min(self.next + MAX_BURST);
        self.batch_start = self.next;
        if end <= self.next {
            return false;
        }
        let mut late = Vec::new();
        for seq in self.next..end {
            let due_ns = t0 + self.schedule.due_ns(seq);
            out.emit(vec![
                Value::Int(due_ns as i64),
                Value::Int(seq as i64),
                self.payload.value(seq),
            ]);
            if seq % SAMPLE_EVERY == 0 {
                late.push(Sample {
                    seq,
                    due_ns,
                    at_ns: now_ns,
                });
            }
        }
        self.next = end;
        self.shared.emitted.store(end, Ordering::Release);
        if !late.is_empty() {
            self.shared
                .late
                .lock()
                .expect("lateness log poisoned")
                .extend(late);
        }
        true
    }
}

impl Spout for PacedSpout {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        match self.shared.start_ns.load(Ordering::Acquire) {
            0 => false,
            t0 => self.emit_due(t0, now_ns(), out),
        }
    }

    fn emitted(&mut self, index: usize, root: u64) {
        let seq = self.batch_start + index as u64;
        self.shared
            .acks
            .lock()
            .expect("ack log poisoned")
            .pending
            .insert(root, seq);
    }

    fn ack(&mut self, root: u64) {
        let at_ns = now_ns();
        let t0 = self.shared.start_ns.load(Ordering::Acquire);
        let mut log = self.shared.acks.lock().expect("ack log poisoned");
        match log.pending.remove(&root) {
            Some(seq) => {
                log.acked += 1;
                if seq % SAMPLE_EVERY == 0 {
                    log.samples.push(Sample {
                        seq,
                        due_ns: t0 + self.schedule.due_ns(seq),
                        at_ns,
                    });
                }
            }
            None => log.unknown += 1,
        }
    }

    fn fail(&mut self, root: u64) {
        let mut log = self.shared.acks.lock().expect("ack log poisoned");
        log.failed += 1;
        if log.pending.remove(&root).is_none() {
            log.unknown += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typhoon_model::VecEmitter;

    fn spout(rate: u64, limit: u64) -> (PacedSpout, Arc<GenShared>) {
        let shared = Arc::new(GenShared::default());
        let s = PacedSpout::new(
            Schedule::new(7, rate),
            Payload::fixed(7, 16),
            limit,
            shared.clone(),
        );
        (s, shared)
    }

    fn stamps(out: &VecEmitter) -> Vec<(u64, u64)> {
        out.emitted
            .iter()
            .map(|(_, v)| (v[0].as_int().unwrap() as u64, v[1].as_int().unwrap() as u64))
            .collect()
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_rate_and_elapsed() {
        for rate in [1, 3, 20_000, 400_000, 1_000_000_007] {
            let s = Schedule::new(42, rate);
            assert_eq!(s, Schedule::new(42, rate));
            assert!(s.phase_ns < (1_000_000_000 / rate).max(1));
            for i in 0..200 {
                let due = s.due_ns(i);
                assert!(due >= s.due_ns(i.saturating_sub(1)));
                assert!(s.due_count(due) > i, "tuple {i} is due at its due time");
                if due > 0 && (i == 0 || s.due_ns(i - 1) < due) {
                    assert!(s.due_count(due - 1) <= i, "and not a nanosecond before");
                }
            }
        }
        assert_ne!(
            Schedule::new(1, 1000).phase_ns,
            Schedule::new(2, 1000).phase_ns,
            "the seed sets the phase"
        );
    }

    #[test]
    fn held_generator_emits_nothing() {
        let (mut s, _shared) = spout(1000, 100);
        let mut out = VecEmitter::default();
        assert!(!s.next_batch(&mut out));
        assert!(out.emitted.is_empty());
    }

    #[test]
    fn a_stalled_generator_catches_up_stamping_due_times() {
        let (mut s, shared) = spout(1_000_000, 10_000);
        let t0 = 1_000;
        let mut out = VecEmitter::default();
        // Not called for 1 ms at 1 M/s: 1000 tuples (and change) are due.
        let now = t0 + 1_000_000;
        let mut calls = 0;
        while s.emit_due(t0, now, &mut out) {
            calls += 1;
        }
        let got = stamps(&out);
        assert!((1000..=1001).contains(&got.len()), "{}", got.len());
        assert_eq!(calls, got.len().div_ceil(MAX_BURST as usize));
        for (i, (due, seq)) in got.iter().enumerate() {
            assert_eq!(*seq, i as u64, "no tuple is skipped to catch up");
            assert_eq!(*due, t0 + s.schedule.due_ns(*seq), "stamp is the due time");
            assert!(*due <= now);
        }
        // The stall shows as generator lateness, up to the full 1 ms.
        let late = shared.late.lock().unwrap();
        assert_eq!(late.len(), got.len().div_ceil(SAMPLE_EVERY as usize));
        assert!(late.iter().map(|s| s.at_ns - s.due_ns).max().unwrap() >= 990_000);
        assert_eq!(shared.emitted.load(Ordering::Acquire), got.len() as u64);
    }

    #[test]
    fn generator_stops_at_its_limit() {
        let (mut s, _shared) = spout(1_000_000, 300);
        let mut out = VecEmitter::default();
        while s.emit_due(5, 5 + 1_000_000_000, &mut out) {}
        assert_eq!(out.emitted.len(), 300);
        assert_eq!(stamps(&out).last().unwrap().1, 299);
    }

    #[test]
    fn acks_are_matched_to_roots_exactly_once() {
        let (mut s, shared) = spout(1_000_000, 100);
        shared.start_ns.store(1, Ordering::Release);
        let mut out = VecEmitter::default();
        assert!(s.emit_due(1, 1 + 20_000, &mut out));
        let n = out.emitted.len();
        for i in 0..n {
            s.emitted(i, 0x100 + i as u64);
        }
        s.ack(0x100);
        s.ack(0x100); // duplicate
        s.fail(0x101);
        let log = shared.acks.lock().unwrap();
        assert_eq!((log.acked, log.failed, log.unknown), (1, 1, 1));
        assert_eq!(log.pending.len(), n - 2);
        assert_eq!(log.samples.len(), 1, "seq 0 is sampled");
        assert_eq!(log.samples[0].seq, 0);
    }

    #[test]
    fn payloads_are_seeded() {
        let Payload::Fixed(a) = Payload::fixed(3, 100) else {
            unreachable!()
        };
        let Payload::Fixed(b) = Payload::fixed(3, 100) else {
            unreachable!()
        };
        let Payload::Fixed(c) = Payload::fixed(4, 100) else {
            unreachable!()
        };
        assert_eq!(a.len(), 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            Payload::Sentence(9).value(5).as_str().unwrap(),
            ReplaySentenceSpout::sentence(9, 5, WORDS_PER_SENTENCE)
        );
    }
}
