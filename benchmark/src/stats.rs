//! Order statistics over raw samples. Percentiles are exact nearest-rank
//! values of the samples themselves, never histogram buckets.

/// Median of `values` (mean of the middle pair for an even count).
/// Sorts in place. Panics on an empty slice: every caller has at least
/// one pass or sample by construction.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 1] of an ascending slice: the
/// smallest sample with at least `p` of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples a tail percentile must leave beyond it to be
/// reported (choosing-metrics section 1).
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The tail of an ascending slice: percentile `want` if at least
/// [`TAIL_SAMPLES_BEYOND`] samples lie beyond it, otherwise the highest
/// percentile that does leave that many, and never below the median.
/// Returns `(value, percentile actually used)`.
pub fn tail(sorted: &[f64], want: f64) -> (f64, f64) {
    assert!(!sorted.is_empty(), "tail of no samples");
    let n = sorted.len();
    let want_rank = ((want * n as f64).ceil() as usize).clamp(1, n);
    let supported_rank = n.saturating_sub(TAIL_SAMPLES_BEYOND);
    let median_rank = n.div_ceil(2);
    let rank = want_rank.min(supported_rank).max(median_rank);
    (sorted[rank - 1], rank as f64 / n as f64)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let len = sorted.len();
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the spread the
/// driver holds against each metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(&mut values.to_vec());
    if mid == 0.0 {
        return 0.0;
    }
    ((q3 - q1) / mid).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_is_exact_over_raw_samples() {
        let s = ramp(100);
        assert_eq!(nearest_rank(&s, 0.50), 50.0);
        assert_eq!(nearest_rank(&s, 0.99), 99.0);
        assert_eq!(nearest_rank(&s, 1.0), 100.0);
        assert_eq!(nearest_rank(&s, 0.001), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        // 5 samples: p50 -> ceil(2.5) = 3rd.
        assert_eq!(nearest_rank(&ramp(5), 0.5), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, exactly 10 beyond -> reported.
        let (v, p) = tail(&ramp(1000), 0.99);
        assert_eq!((v, p), (990.0, 0.99));
        // 999 samples: p99 would be rank 990 with 9 beyond -> fall back
        // to rank 989.
        let (v, p) = tail(&ramp(999), 0.99);
        assert_eq!(v, 989.0);
        assert!(p < 0.99);
        // 100 samples: the highest supported is rank 90 (p90).
        assert_eq!(tail(&ramp(100), 0.99), (90.0, 0.90));
        // 24 samples: rank 14.
        assert_eq!(tail(&ramp(24), 0.99).0, 14.0);
        // Too few for any tail: the median, never below it.
        assert_eq!(tail(&ramp(12), 0.99).0, 6.0);
        assert_eq!(tail(&ramp(3), 0.99).0, 2.0);
        assert_eq!(tail(&[5.0], 0.99), (5.0, 1.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
        let v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        assert_eq!(quartiles(&v), (1.25, 5.75));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert!((quartile_spread(&ramp(10)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
