//! Per-second throughput timelines.
//!
//! Experiment binaries mark events on a [`RateMeter`]; the meter buckets them
//! into fixed windows relative to its creation instant, producing the same
//! "tuples/sec over time" series the paper's Figures 10–12 and 14 plot.

use crate::recover;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    start: Instant,
    window: Duration,
    buckets: Vec<u64>,
}

/// Records events into fixed-size time buckets.
///
/// Clones share the same underlying series, so a worker thread can mark
/// events while the experiment harness reads the timeline.
#[derive(Debug, Clone)]
pub struct RateMeter {
    inner: Arc<Mutex<Inner>>,
}

impl RateMeter {
    /// A meter with one-second windows (the paper's plotting granularity).
    pub fn per_second() -> Self {
        Self::with_window(Duration::from_secs(1))
    }

    /// A meter with a custom window (experiments compress timelines).
    pub fn with_window(window: Duration) -> Self {
        assert!(!window.is_zero(), "meter window must be non-zero");
        RateMeter {
            inner: Arc::new(Mutex::new(Inner {
                start: Instant::now(),
                window,
                buckets: Vec::new(),
            })),
        }
    }

    fn bucket_index(inner: &Inner, at: Instant) -> usize {
        let elapsed = at.saturating_duration_since(inner.start);
        (elapsed.as_nanos() / inner.window.as_nanos()) as usize
    }

    /// Marks `n` events at the current time.
    pub fn mark(&self, n: u64) {
        self.mark_at(Instant::now(), n);
    }

    /// Marks `n` events at an explicit instant (deterministic tests).
    pub fn mark_at(&self, at: Instant, n: u64) {
        let mut inner = recover(self.inner.lock());
        let idx = Self::bucket_index(&inner, at);
        if inner.buckets.len() <= idx {
            inner.buckets.resize(idx + 1, 0);
        }
        inner.buckets[idx] += n;
    }

    /// The recorded series as (window start offset, events in window) pairs.
    /// Trailing never-written windows are absent; interior gaps are zeros.
    pub fn series(&self) -> Vec<(Duration, u64)> {
        let inner = recover(self.inner.lock());
        inner
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &n)| (inner.window * i as u32, n))
            .collect()
    }

    /// Smallest fraction of a window the in-progress bucket is normalized
    /// by: a read 1 ms into a 1 s window would otherwise inflate a handful
    /// of events into an absurd rate, so anything earlier than 1 % of the
    /// window is treated as 1 % elapsed.
    const MIN_PARTIAL_FRACTION: f64 = 0.01;

    /// Events per second in each window, normalized by window length.
    ///
    /// The final bucket is special-cased: if it is still in progress at the
    /// time of the read, it is normalized by the *elapsed* portion of the
    /// window rather than the full window length. Normalizing a partial
    /// window by its full length understates the most recent timeline point
    /// (a read 100 ms into a 1 s window would report ~10× low) and drags
    /// steady-state [`RateMeter::mean_rate`] down with it.
    pub fn rates_per_sec(&self) -> Vec<f64> {
        self.rates_per_sec_at(Instant::now())
    }

    /// [`RateMeter::rates_per_sec`] with an explicit read instant
    /// (deterministic tests).
    pub fn rates_per_sec_at(&self, now: Instant) -> Vec<f64> {
        let inner = recover(self.inner.lock());
        let secs = inner.window.as_secs_f64();
        let last = inner.buckets.len().wrapping_sub(1);
        let current = Self::bucket_index(&inner, now);
        inner
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let denom = if i == last && i == current {
                    // In-progress final window: elapsed-normalize.
                    let into =
                        now.saturating_duration_since(inner.start).as_secs_f64() - i as f64 * secs;
                    into.max(secs * Self::MIN_PARTIAL_FRACTION)
                } else {
                    secs
                };
                n as f64 / denom
            })
            .collect()
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        recover(self.inner.lock()).buckets.iter().sum()
    }

    /// Mean events/sec over windows `[from, to)` of the recorded series,
    /// or 0.0 when the range is empty. Used to compute steady-state
    /// throughput excluding warm-up.
    pub fn mean_rate(&self, from: usize, to: usize) -> f64 {
        self.mean_rate_at(from, to, Instant::now())
    }

    /// [`RateMeter::mean_rate`] with an explicit read instant
    /// (deterministic tests).
    pub fn mean_rate_at(&self, from: usize, to: usize, now: Instant) -> f64 {
        let rates = self.rates_per_sec_at(now);
        let slice: Vec<f64> = rates
            .into_iter()
            .skip(from)
            .take(to.saturating_sub(from))
            .collect();
        if slice.is_empty() {
            0.0
        } else {
            slice.iter().sum::<f64>() / slice.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_bucket_by_window() {
        let m = RateMeter::with_window(Duration::from_millis(10));
        let start = recover(m.inner.lock()).start;
        m.mark_at(start, 2);
        m.mark_at(start + Duration::from_millis(5), 1);
        m.mark_at(start + Duration::from_millis(25), 4);
        let series = m.series();
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].1, 3);
        assert_eq!(series[1].1, 0); // interior gap is an explicit zero
        assert_eq!(series[2].1, 4);
        assert_eq!(m.total(), 7);
    }

    #[test]
    fn rates_normalize_by_window() {
        let m = RateMeter::with_window(Duration::from_millis(500));
        let start = recover(m.inner.lock()).start;
        m.mark_at(start, 100);
        // Read once the window has completed: full-length normalization.
        let done = start + Duration::from_millis(500);
        assert_eq!(m.rates_per_sec_at(done)[0], 200.0);
    }

    #[test]
    fn partial_final_window_is_elapsed_normalized() {
        // 100 events in the first 100 ms of a 1 s window: the in-progress
        // read must report the actual rate (~1000/s), not the full-window
        // normalization (100/s) that understated the final point ~10×.
        let m = RateMeter::with_window(Duration::from_secs(1));
        let start = recover(m.inner.lock()).start;
        m.mark_at(start, 100);
        let read = start + Duration::from_millis(100);
        let rates = m.rates_per_sec_at(read);
        assert_eq!(rates.len(), 1);
        assert!(
            (rates[0] - 1000.0).abs() < 1e-6,
            "elapsed-normalized rate, got {}",
            rates[0]
        );
        // Once the window completes, the same bucket reads full-window.
        let done = start + Duration::from_secs(1);
        assert_eq!(m.rates_per_sec_at(done)[0], 100.0);
    }

    #[test]
    fn partial_window_near_zero_elapsed_is_clamped() {
        // Reading immediately after the window opens must not divide by ~0;
        // the denominator clamps at MIN_PARTIAL_FRACTION of the window.
        let m = RateMeter::with_window(Duration::from_secs(1));
        let start = recover(m.inner.lock()).start;
        m.mark_at(start, 5);
        let rates = m.rates_per_sec_at(start);
        assert!(rates[0].is_finite());
        assert!(
            (rates[0] - 5.0 / RateMeter::MIN_PARTIAL_FRACTION).abs() < 1e-6,
            "clamped rate, got {}",
            rates[0]
        );
    }

    #[test]
    fn only_the_current_final_window_is_partial() {
        // An interior bucket is never elapsed-normalized, and neither is a
        // final bucket whose window has already passed.
        let m = RateMeter::with_window(Duration::from_secs(1));
        let start = recover(m.inner.lock()).start;
        m.mark_at(start, 10);
        m.mark_at(start + Duration::from_secs(1), 20);
        let late = start + Duration::from_secs(5);
        assert_eq!(m.rates_per_sec_at(late), vec![10.0, 20.0]);
    }

    #[test]
    fn mean_rate_includes_corrected_partial_window() {
        // Steady 100/s stream read 100 ms into the third window: the
        // partial final point contributes ~100/s, keeping the steady-state
        // mean at ~100/s instead of dragging it toward 70/s.
        let m = RateMeter::with_window(Duration::from_secs(1));
        let start = recover(m.inner.lock()).start;
        m.mark_at(start, 100);
        m.mark_at(start + Duration::from_secs(1), 100);
        m.mark_at(start + Duration::from_secs(2), 10); // first 100 ms worth
        let read = start + Duration::from_millis(2100);
        let mean = m.mean_rate_at(0, 3, read);
        assert!((mean - 100.0).abs() < 1e-6, "mean {mean}");
    }

    #[test]
    fn mean_rate_excludes_warmup() {
        let m = RateMeter::with_window(Duration::from_secs(1));
        let start = recover(m.inner.lock()).start;
        m.mark_at(start, 1); // warm-up window
        m.mark_at(start + Duration::from_secs(1), 10);
        m.mark_at(start + Duration::from_secs(2), 20);
        assert_eq!(m.mean_rate(1, 3), 15.0);
        assert_eq!(m.mean_rate(5, 9), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_rejected() {
        let _ = RateMeter::with_window(Duration::ZERO);
    }

    #[test]
    fn clones_share_series() {
        let m = RateMeter::per_second();
        let n = m.clone();
        n.mark(3);
        assert_eq!(m.total(), 3);
    }
}
