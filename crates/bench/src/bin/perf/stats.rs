//! Exact order statistics over raw samples.
//!
//! The suite keeps every sampled latency (no histogram buckets) and computes
//! each percentile per window. Rates and set-up times are reported as the
//! median over windows or repeats; latencies as the *lower quartile* over
//! windows: the shared host only ever adds delay, in bursts that can cover
//! more than half of a pass, so the quieter windows estimate the system.

/// Exact percentile by the nearest-rank method: the smallest sample with at
/// least `q` of the data at or below it. `None` on an empty slice. Sorts
/// `values` in place.
pub fn percentile(values: &mut [u64], q: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    Some(values[rank(values.len(), q)])
}

/// Index of the nearest-rank `q` percentile among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    let r = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Median of per-window values (mean of the middle two for an even count).
/// `None` when there are no windows.
pub fn window_median(per_window: &[f64]) -> Option<f64> {
    if per_window.is_empty() {
        return None;
    }
    let mut v = per_window.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The value a quarter of the windows are at or below (nearest rank).
/// `None` when there are no windows.
pub fn window_lower_quartile(per_window: &[f64]) -> Option<f64> {
    if per_window.is_empty() {
        return None;
    }
    let mut v = per_window.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), 0.25)])
}

/// The highest percentile among 50, 90, 99, 99.9, 99.99 that still has at
/// least ten samples beyond it in a sample of `n` — what a tail claim may
/// rest on. `None` below 20 samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (percentile, one sample in this many lies beyond it)
    [
        (0.9999, 10_000),
        (0.999, 1_000),
        (0.99, 100),
        (0.9, 10),
        (0.5, 2),
    ]
    .into_iter()
    .find(|&(_, one_in)| n >= 10 * one_in)
    .map(|(q, _)| q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), Some(50));
        assert_eq!(percentile(&mut v, 0.99), Some(99));
        assert_eq!(percentile(&mut v, 1.0), Some(100));
        assert_eq!(percentile(&mut v, 0.0), Some(1));
        assert_eq!(percentile(&mut [], 0.5), None);
        assert_eq!(percentile(&mut [7], 0.99), Some(7));
    }

    #[test]
    fn window_median_ignores_one_outlier_window() {
        assert_eq!(window_median(&[1.0, 1.1, 0.9, 50.0, 1.0]), Some(1.0));
        assert_eq!(window_median(&[1.0, 3.0]), Some(2.0));
        assert_eq!(window_median(&[]), None);
    }

    #[test]
    fn lower_quartile_survives_a_disturbed_majority() {
        // 32 windows, 20 of them disturbed: the median is a disturbed
        // window, the lower quartile a quiet one.
        let mut w = vec![1.0; 12];
        w.extend(vec![5.0; 20]);
        assert_eq!(window_median(&w), Some(5.0));
        assert_eq!(window_lower_quartile(&w), Some(1.0));
        assert_eq!(window_lower_quartile(&[3.0, 1.0, 2.0, 4.0]), Some(1.0));
        assert_eq!(window_lower_quartile(&[7.0]), Some(7.0));
        assert_eq!(window_lower_quartile(&[]), None);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(5_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
    }
}
