//! Exact order statistics. Every percentile the benchmark reports is a
//! sample that was measured, never a histogram bucket edge.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    // The tolerance keeps 99.9 % of 1000 at rank 999 despite 99.9 not
    // being a binary fraction.
    (((p / 100.0) * n as f64) - 1e-9).ceil().max(1.0) as usize
}

/// How many samples lie strictly beyond the nearest-rank percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of `candidates` (ascending) that still has at least ten
/// samples beyond it — the choosing-metrics rule for a reportable tail.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

/// Nearest-rank percentile of unsorted floats (window rates, per-window
/// percentiles): always one of the values.
pub fn percentile_f64(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// [`percentile`] of samples in any order.
pub fn percentile_unsorted(samples: &[u64], p: f64) -> u64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    percentile(&v, p)
}

pub fn median_u64(samples: &[u64]) -> u64 {
    percentile_unsorted(samples, 50.0)
}

/// Median of floats (mean of the two middle values for even counts, as
/// Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method) gives them, so `--repeat` judges spread
/// exactly as the driver does.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range over the median: the spread the driver bounds.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.5), 1);
        let w = [7u64, 9, 12, 40, 41];
        assert_eq!(percentile(&w, 50.0), 12);
        assert_eq!(percentile(&w, 90.0), 41);
        assert_eq!(percentile(&w, 20.0), 7);
        assert_eq!(percentile(&w, 21.0), 9);
        let k: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&k, 99.9), 999);
        let rates = [3.0, 1.0, 4.0, 2.0];
        assert_eq!(percentile_f64(&rates, 75.0), 3.0);
        assert_eq!(percentile_f64(&rates, 25.0), 1.0);
        assert_eq!(percentile_f64(&rates, 76.0), 4.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        let c = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_supported(1000, &c), Some(99.0));
        assert_eq!(highest_supported(999, &c), Some(90.0));
        assert_eq!(highest_supported(10_000, &c), Some(99.9));
        assert_eq!(highest_supported(100, &c), Some(90.0));
        assert_eq!(highest_supported(99, &c), Some(50.0));
        assert_eq!(highest_supported(19, &c), None);
        assert_eq!(highest_supported(0, &c), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]), (15.0, 45.0));
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
    }
}
