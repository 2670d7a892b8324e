//! Order statistics shared by every workload and the trace reducer.

use std::time::Duration;

/// The `p`-th percentile of `samples` by the nearest-rank rule: sort
/// ascending and take the value at 1-based rank `ceil(p / 100 · n)`, clamped
/// to `[1, n]`. The result is always one of the samples, so a p99 can never
/// read below the p50 of the same sample. `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The nearest-rank median ([`percentile`] at 50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Percentile, or 0 for an empty sample (used for diagnostics only).
pub fn percentile_or_zero(samples: &[f64], p: f64) -> f64 {
    percentile(samples, p).unwrap_or(0.0)
}

/// Milliseconds with every digit kept.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds with every digit kept.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample_and_orders_percentiles() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 99.0), Some(99.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        // Rank 0 clamps to the smallest sample.
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        // Ten samples: p99 is the maximum, p50 the fifth smallest.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 99.0), Some(10.0));
        assert_eq!(median(&ten), Some(5.0));
        // A single sample is every percentile.
        assert_eq!(percentile(&[7.5], 1.0), Some(7.5));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile_or_zero(&[], 50.0), 0.0);
    }

    #[test]
    fn p99_never_reads_below_p50_of_the_same_sample() {
        let samples = [3.0, 0.5, 9.0, 2.0, 2.0, 8.0, 1.0];
        let p50 = percentile(&samples, 50.0).expect("non-empty");
        let p99 = percentile(&samples, 99.0).expect("non-empty");
        assert!(p99 >= p50);
        assert_eq!((p50, p99), (2.0, 9.0));
    }
}
