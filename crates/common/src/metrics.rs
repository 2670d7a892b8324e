//! Evaluation metrics of Section VI-A: average absolute error (AAE), average
//! relative error (ARE), query latency, insertion/deletion throughput, and
//! space cost, plus the dataset characterisations of Fig. 2 (degree skewness)
//! and Fig. 3 (arrival irregularity).

use crate::edge::{GraphStream, Weight};
use std::time::Duration;

/// Accumulates `(true value, estimate)` pairs and reports AAE / ARE as
/// defined by Eq. (17) of the paper.
///
/// For ARE, query pairs whose true value is zero are skipped (the paper's
/// relative-error definition divides by the true value; queries are sampled
/// from existing edges/vertices so true values are positive in practice).
#[derive(Clone, Debug, Default)]
pub struct ErrorStats {
    /// Number of (truth, estimate) observations.
    pub count: usize,
    /// Number of observations with non-zero truth (ARE denominator count).
    pub relative_count: usize,
    /// Number of observations where the estimate was below the truth
    /// (must stay zero for one-sided-error summaries).
    pub underestimates: usize,
    sum_abs_err: f64,
    sum_rel_err: f64,
    max_abs_err: f64,
}

impl ErrorStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one query outcome.
    pub fn record(&mut self, truth: Weight, estimate: Weight) {
        self.count += 1;
        let abs = estimate.abs_diff(truth) as f64;
        self.sum_abs_err += abs;
        self.max_abs_err = self.max_abs_err.max(abs);
        if estimate < truth {
            self.underestimates += 1;
        }
        if truth > 0 {
            self.relative_count += 1;
            self.sum_rel_err += abs / truth as f64;
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &ErrorStats) {
        self.count += other.count;
        self.relative_count += other.relative_count;
        self.underestimates += other.underestimates;
        self.sum_abs_err += other.sum_abs_err;
        self.sum_rel_err += other.sum_rel_err;
        self.max_abs_err = self.max_abs_err.max(other.max_abs_err);
    }

    /// Average absolute error over all observations.
    pub fn aae(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_abs_err / self.count as f64
        }
    }

    /// Average relative error over observations with non-zero truth.
    pub fn are(&self) -> f64 {
        if self.relative_count == 0 {
            0.0
        } else {
            self.sum_rel_err / self.relative_count as f64
        }
    }

    /// Largest absolute error observed.
    pub fn max_abs_error(&self) -> f64 {
        self.max_abs_err
    }

    /// Whether every estimate was ≥ the truth (the one-sided-error guarantee
    /// of Section V-D).
    pub fn is_one_sided(&self) -> bool {
        self.underestimates == 0
    }
}

/// Throughput of a bulk operation: items processed per second.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputStats {
    /// Number of items processed.
    pub items: usize,
    /// Wall-clock time for the whole batch, in seconds.
    pub seconds: f64,
}

impl ThroughputStats {
    /// Builds throughput stats from an item count and an elapsed duration.
    pub fn new(items: usize, elapsed: Duration) -> Self {
        Self {
            items,
            seconds: elapsed.as_secs_f64(),
        }
    }

    /// Items per second (million edges per second is the paper's unit).
    pub fn per_second(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.items as f64 / self.seconds
        }
    }

    /// Million items per second.
    pub fn mops(&self) -> f64 {
        self.per_second() / 1.0e6
    }

    /// Average latency per item, in microseconds.
    pub fn latency_us(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.seconds * 1.0e6 / self.items as f64
        }
    }
}

/// Aggregated per-operation latency: mean / p50 / p99 in microseconds.
#[derive(Clone, Debug, Default)]
pub struct LatencyStats {
    samples_us: Vec<f64>,
}

impl LatencyStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one operation latency.
    pub fn record(&mut self, d: Duration) {
        self.samples_us.push(d.as_secs_f64() * 1.0e6);
    }

    /// Records a latency expressed in microseconds.
    pub fn record_us(&mut self, us: f64) {
        self.samples_us.push(us);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.samples_us.is_empty() {
            0.0
        } else {
            self.samples_us.iter().sum::<f64>() / self.samples_us.len() as f64
        }
    }

    /// Latency percentile (0.0–1.0) in microseconds.
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.samples_us.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples_us.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((sorted.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        sorted[idx]
    }
}

/// One `(degree, #vertices with that degree)` point of the Fig. 2 skewness
/// characterisation, log-binned.
#[derive(Clone, Copy, Debug)]
pub struct DegreePoint {
    /// Out-degree bucket (lower bound of the log bin).
    pub degree: u64,
    /// Number of vertices whose degree falls in the bin.
    pub vertices: u64,
}

/// Computes the out-degree distribution of a stream, log-binned (Fig. 2).
pub fn degree_distribution(stream: &GraphStream) -> Vec<DegreePoint> {
    let degrees = stream.out_degrees();
    let mut bins: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for &d in degrees.values() {
        let bin = if d == 0 {
            0
        } else {
            1u64 << (63 - d.leading_zeros())
        };
        *bins.entry(bin).or_insert(0) += 1;
    }
    bins.into_iter()
        .map(|(degree, vertices)| DegreePoint { degree, vertices })
        .collect()
}

/// Fits the power-law exponent of the out-degree distribution via the
/// discrete maximum-likelihood estimator `α = 1 + n / Σ ln(d_i / d_min)` with
/// `d_min = 1`. Used to verify that generated streams match the skewness knob
/// (Fig. 14's x-axis).
pub fn powerlaw_exponent(stream: &GraphStream) -> f64 {
    let degrees = stream.out_degrees();
    let mut n = 0usize;
    let mut sum_ln = 0.0f64;
    for &d in degrees.values() {
        if d >= 1 {
            n += 1;
            sum_ln += (d as f64).ln();
        }
    }
    if sum_ln <= 0.0 {
        return f64::INFINITY;
    }
    1.0 + n as f64 / sum_ln
}

/// One `(slice index, #arrivals)` point of the Fig. 3 irregularity
/// characterisation.
#[derive(Clone, Copy, Debug)]
pub struct ArrivalPoint {
    /// Time-slice index.
    pub slice: u64,
    /// Number of stream items arriving in that slice.
    pub arrivals: u64,
}

/// Computes arrivals per slice of width `slice_width` (Fig. 3), sorted by
/// slice index.
pub fn arrival_histogram(stream: &GraphStream, slice_width: u64) -> Vec<ArrivalPoint> {
    let mut points: Vec<ArrivalPoint> = stream
        .arrivals_per_slice(slice_width)
        .into_iter()
        .map(|(slice, arrivals)| ArrivalPoint { slice, arrivals })
        .collect();
    points.sort_by_key(|p| p.slice);
    points
}

/// Sample variance of the per-slice arrival counts — the "variance" knob of
/// Fig. 15.
pub fn arrival_variance(stream: &GraphStream, slice_width: u64) -> f64 {
    let hist = arrival_histogram(stream, slice_width);
    if hist.len() < 2 {
        return 0.0;
    }
    let mean = hist.iter().map(|p| p.arrivals as f64).sum::<f64>() / hist.len() as f64;
    hist.iter()
        .map(|p| {
            let d = p.arrivals as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / (hist.len() - 1) as f64
}

/// Pretty-prints a byte count as MiB with two decimals (Fig. 19 unit).
pub fn format_mib(bytes: usize) -> String {
    format!("{:.2} MiB", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::StreamEdge;

    #[test]
    fn error_stats_aae_are() {
        let mut s = ErrorStats::new();
        s.record(10, 12); // abs 2, rel 0.2
        s.record(5, 5); // abs 0
        s.record(0, 3); // abs 3, no rel
        assert_eq!(s.count, 3);
        assert!((s.aae() - 5.0 / 3.0).abs() < 1e-9);
        assert!((s.are() - 0.1).abs() < 1e-9);
        assert!(s.is_one_sided());
        assert_eq!(s.max_abs_error(), 3.0);
    }

    #[test]
    fn error_stats_detects_underestimates() {
        let mut s = ErrorStats::new();
        s.record(10, 8);
        assert!(!s.is_one_sided());
        assert_eq!(s.underestimates, 1);
    }

    #[test]
    fn error_stats_merge() {
        let mut a = ErrorStats::new();
        a.record(10, 11);
        let mut b = ErrorStats::new();
        b.record(10, 14);
        a.merge(&b);
        assert_eq!(a.count, 2);
        assert!((a.aae() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn throughput_math() {
        let t = ThroughputStats::new(2_000_000, Duration::from_secs(2));
        assert!((t.per_second() - 1.0e6).abs() < 1.0);
        assert!((t.mops() - 1.0).abs() < 1e-9);
        assert!((t.latency_us() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_percentiles() {
        let mut l = LatencyStats::new();
        for i in 1..=100 {
            l.record_us(i as f64);
        }
        assert_eq!(l.len(), 100);
        assert!((l.mean_us() - 50.5).abs() < 1e-9);
        assert!((l.percentile_us(0.5) - 50.0).abs() <= 1.0);
        assert!((l.percentile_us(0.99) - 99.0).abs() <= 1.0);
        assert!(!l.is_empty());
    }

    fn skewed_stream() -> GraphStream {
        // Vertex 0 has degree 64, others degree 1.
        let mut edges = Vec::new();
        for i in 0..64u64 {
            edges.push(StreamEdge::new(0, i + 1, 1, i));
        }
        for v in 1..=32u64 {
            edges.push(StreamEdge::new(v, 0, 1, 64 + v));
        }
        GraphStream::from_edges("skewed", edges)
    }

    #[test]
    fn degree_distribution_bins() {
        let dist = degree_distribution(&skewed_stream());
        // Degree-1 bin should hold 32 vertices; degree-64 bin one vertex.
        let one = dist.iter().find(|p| p.degree == 1).unwrap();
        assert_eq!(one.vertices, 32);
        let big = dist.iter().find(|p| p.degree == 64).unwrap();
        assert_eq!(big.vertices, 1);
    }

    #[test]
    fn powerlaw_exponent_is_finite_for_skewed_streams() {
        let alpha = powerlaw_exponent(&skewed_stream());
        assert!(alpha.is_finite());
        assert!(alpha > 1.0);
    }

    #[test]
    fn arrival_histogram_and_variance() {
        let stream = GraphStream::from_edges(
            "bursty",
            vec![
                StreamEdge::new(1, 2, 1, 0),
                StreamEdge::new(1, 2, 1, 0),
                StreamEdge::new(1, 2, 1, 1),
                StreamEdge::new(1, 2, 1, 10),
            ],
        );
        let hist = arrival_histogram(&stream, 1);
        assert_eq!(hist[0].arrivals, 2);
        assert!(arrival_variance(&stream, 1) > 0.0);
    }

    #[test]
    fn mib_formatting() {
        assert_eq!(format_mib(1024 * 1024), "1.00 MiB");
    }
}
