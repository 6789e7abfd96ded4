//! Log-bucketed latency histogram with quantile and CDF export.
//!
//! Latency samples span microseconds to seconds, so buckets grow
//! geometrically: each power of two is split into `SUB_BUCKETS` (16) linear
//! sub-buckets, giving a bounded relative error (< 1/SUB_BUCKETS) with a
//! small fixed footprint — the same idea as HDR histograms, reimplemented
//! because no histogram crate is in the sanctioned offline set.

use crate::recover;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Duration;

/// Sub-buckets per power-of-two range; 16 gives ≤ 6.25 % relative error.
const SUB_BUCKETS: usize = 16;
/// Number of power-of-two ranges; covers values up to 2^40 ns ≈ 18 minutes.
const RANGES: usize = 40;

#[derive(Debug)]
struct Inner {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// A concurrent latency histogram recording `u64` nanosecond samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<Mutex<Inner>>,
}

/// Machine-readable snapshot of a [`Histogram`]: the quantile ladder the
/// experiment reports serialize (values in nanoseconds, bucket-approximate
/// except the exact min/max extremes).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Arithmetic mean in nanoseconds.
    pub mean_ns: f64,
    /// Exact smallest sample.
    pub min_ns: u64,
    /// Median (p50).
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Exact largest sample.
    pub max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            inner: Arc::new(Mutex::new(Inner {
                buckets: vec![0; RANGES * SUB_BUCKETS],
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            })),
        }
    }

    fn index_for(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let range = 63 - value.leading_zeros() as usize; // floor(log2(value))
        let shift = range.saturating_sub(SUB_BUCKETS.trailing_zeros() as usize);
        let sub = ((value >> shift) as usize) - SUB_BUCKETS;
        let idx = range.saturating_sub(3) * SUB_BUCKETS + sub;
        idx.min(RANGES * SUB_BUCKETS - 1)
    }

    /// Representative (upper-bound) value for a bucket index.
    fn value_for(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64 + 1;
        }
        let range = index / SUB_BUCKETS + 3;
        let sub = index % SUB_BUCKETS;
        let shift = range - SUB_BUCKETS.trailing_zeros() as usize;
        (((SUB_BUCKETS + sub) as u64) + 1) << shift
    }

    /// Records one raw sample (nanoseconds by convention).
    pub fn record(&self, value: u64) {
        let mut inner = recover(self.inner.lock());
        let idx = Self::index_for(value);
        inner.buckets[idx] += 1;
        inner.count += 1;
        inner.sum += value as u128;
        inner.min = inner.min.min(value);
        inner.max = inner.max.max(value);
    }

    /// Records a [`Duration`] sample.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        recover(self.inner.lock()).count
    }

    /// Arithmetic mean of samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let inner = recover(self.inner.lock());
        if inner.count == 0 {
            0.0
        } else {
            inner.sum as f64 / inner.count as f64
        }
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        let inner = recover(self.inner.lock());
        (inner.count > 0).then_some(inner.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        let inner = recover(self.inner.lock());
        (inner.count > 0).then_some(inner.max)
    }

    /// Approximate quantile `q ∈ [0,1]` (`None` when empty).
    ///
    /// The extremes are exact, not bucket-approximated: `q <= 0.0` returns
    /// the smallest recorded sample and `q >= 1.0` the largest, matching
    /// [`Histogram::min`] / [`Histogram::max`].
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let inner = recover(self.inner.lock());
        if inner.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(inner.min);
        }
        if q >= 1.0 {
            return Some(inner.max);
        }
        let target = ((inner.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in inner.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(Self::value_for(i).min(inner.max).max(inner.min));
            }
        }
        Some(inner.max)
    }

    /// CDF points as (value upper bound, cumulative fraction) pairs, one per
    /// non-empty bucket — the series plotted in Figs. 8(c)/(d).
    ///
    /// Values are clamped to the observed maximum so the final point is
    /// `(max, 1.0)` exactly rather than the last bucket's upper bound
    /// (which can overshoot the largest sample by a sub-bucket width).
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let inner = recover(self.inner.lock());
        if inner.count == 0 {
            return Vec::new();
        }
        let mut out: Vec<(u64, f64)> = Vec::new();
        let mut seen = 0u64;
        for (i, &n) in inner.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            seen += n;
            let value = Self::value_for(i).min(inner.max);
            let frac = seen as f64 / inner.count as f64;
            match out.last_mut() {
                // Clamping can collapse the last two points onto the same
                // value; keep one point per value with the larger fraction.
                Some(last) if last.0 == value => last.1 = frac,
                _ => out.push((value, frac)),
            }
        }
        out
    }

    /// One-shot machine-readable summary — count, mean and the standard
    /// quantile ladder — for JSON export (`BENCH_*.json` latency metrics).
    /// `None` when no samples were recorded.
    pub fn summary(&self) -> Option<HistogramSummary> {
        if self.count() == 0 {
            return None;
        }
        // `quantile` is None only when empty, checked above; samples may
        // race in concurrently but can only add to the count.
        Some(HistogramSummary {
            count: self.count(),
            mean_ns: self.mean(),
            min_ns: self.quantile(0.0).unwrap_or(0),
            p50_ns: self.quantile(0.5).unwrap_or(0),
            p90_ns: self.quantile(0.9).unwrap_or(0),
            p99_ns: self.quantile(0.99).unwrap_or(0),
            p999_ns: self.quantile(0.999).unwrap_or(0),
            max_ns: self.quantile(1.0).unwrap_or(0),
        })
    }

    /// Clears all recorded samples.
    pub fn reset(&self) {
        let mut inner = recover(self.inner.lock());
        inner.buckets.iter_mut().for_each(|b| *b = 0);
        inner.count = 0;
        inner.sum = 0;
        inner.min = u64::MAX;
        inner.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), None);
        assert!(h.cdf().is_empty());
        assert_eq!(h.min(), None);
    }

    #[test]
    fn mean_min_max_exact() {
        let h = Histogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.mean(), 20.0);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(30));
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 100); // 100ns .. 1ms
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        let p100 = h.quantile(1.0).unwrap();
        assert!(p50 <= p99 && p99 <= p100);
        assert!(p100 <= h.max().unwrap());
        // p50 within the histogram's relative error of the true median.
        let true_median = 500_000.0 * 100.0 / 100_000.0 * 1000.0; // 500_050*... keep simple:
        let _ = true_median;
        let err = (p50 as f64 - 500_000.0).abs() / 500_000.0;
        assert!(err < 0.10, "p50={p50} err={err}");
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let h = Histogram::new();
        for v in [5u64, 5, 50, 500, 5_000, 50_000] {
            h.record(v);
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        for w in cdf.windows(2) {
            assert!(w[0].0 < w[1].0, "values ascend");
            assert!(w[0].1 <= w[1].1, "fractions ascend");
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h.count(), 0);
        assert!(h.cdf().is_empty());
    }

    #[test]
    fn huge_values_clamp_into_last_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0).is_some());
    }

    #[test]
    fn quantile_extremes_are_exact_min_and_max() {
        let h = Histogram::new();
        // 1000 and 1017 land in the same sub-bucket (bucket width at range
        // 2^9..2^10 is 64), so a bucket-approximated extreme would report
        // the shared upper bound for both; the exact path must not.
        for v in [1000u64, 1003, 1009, 1017] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1000), "q=0 is the exact min");
        assert_eq!(h.quantile(1.0), Some(1017), "q=1 is the exact max");
        // Out-of-range q clamps to the same exact extremes.
        assert_eq!(h.quantile(-0.5), Some(1000));
        assert_eq!(h.quantile(1.5), Some(1017));
        // Interior quantiles stay bucket-approximated but bounded.
        let p50 = h.quantile(0.5).unwrap();
        assert!((1000..=1017).contains(&p50));
    }

    #[test]
    fn cdf_pins_exact_bucket_boundaries() {
        let h = Histogram::new();
        // Below SUB_BUCKETS (16) every value gets its own unit bucket with
        // upper bound value+1; the final point clamps to the observed max.
        for v in [3u64, 4, 5] {
            h.record(v);
        }
        let cdf = h.cdf();
        assert_eq!(
            cdf,
            vec![(4, 1.0 / 3.0), (5, 1.0)],
            "bucket bounds 4 and 6 expected; 6 clamps to max=5 and merges \
             with the bound-5 point"
        );
        // First power-of-two range boundary: 15 sits in the last identity
        // bucket (upper bound 16) and 16 in the first range-indexed bucket
        // (upper bound 17, clamped to max=16) — both points collapse onto
        // value 16 and merge into a single exact (max, 1.0) point.
        let h2 = Histogram::new();
        h2.record(15);
        h2.record(16);
        assert_eq!(h2.cdf(), vec![(16, 1.0)]);
    }

    #[test]
    fn summary_matches_quantile_ladder() {
        let h = Histogram::new();
        assert_eq!(h.summary(), None, "empty histogram has no summary");
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let s = h.summary().expect("non-empty");
        assert_eq!(s.count, 1000);
        assert_eq!(s.min_ns, 1000);
        assert_eq!(s.max_ns, 1_000_000);
        assert!(s.p50_ns <= s.p90_ns && s.p90_ns <= s.p99_ns);
        assert!(s.p99_ns <= s.p999_ns && s.p999_ns <= s.max_ns);
        assert!((s.mean_ns - 500_500.0).abs() < 1.0);
    }

    #[test]
    fn record_duration_converts_to_nanos() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(3));
        let v = h.quantile(1.0).unwrap();
        assert!((2_800..=3_300).contains(&v), "got {v}");
    }
}
