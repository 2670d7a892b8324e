//! Temporal primitives: timestamps (discrete time slices) and inclusive
//! temporal ranges as used by Temporal Range Queries (TRQ, Definition 2).

use std::fmt;

/// Discrete timestamp (time-slice index). The paper uses a 1-second slice for
/// all datasets; the reproduction treats slices as abstract `u64` ticks.
pub type Timestamp = u64;

/// An inclusive temporal range `[start, end]` used by every TRQ primitive.
///
/// Ranges are inclusive on both ends to match Definition 2 ("the aggregated
/// weight of this edge within I = [ts, te]").
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeRange {
    /// First timestamp covered by the range.
    pub start: Timestamp,
    /// Last timestamp covered by the range (inclusive).
    pub end: Timestamp,
}

impl TimeRange {
    /// Creates a new inclusive range. Panics if `start > end`.
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        assert!(start <= end, "TimeRange start {start} > end {end}");
        Self { start, end }
    }

    /// A range covering a single timestamp.
    pub fn instant(t: Timestamp) -> Self {
        Self { start: t, end: t }
    }

    /// A range covering every representable timestamp.
    pub fn all() -> Self {
        Self {
            start: 0,
            end: Timestamp::MAX,
        }
    }

    /// Number of timestamps covered (saturating).
    pub fn len(&self) -> u64 {
        (self.end - self.start).saturating_add(1)
    }

    /// Inclusive ranges are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `t` lies inside the range.
    #[inline]
    pub fn contains(&self, t: Timestamp) -> bool {
        self.start <= t && t <= self.end
    }

    /// Whether `other` is entirely contained in `self`.
    pub fn contains_range(&self, other: &TimeRange) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Whether the two ranges share at least one timestamp.
    pub fn overlaps(&self, other: &TimeRange) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Intersection of two ranges, if any.
    pub fn intersect(&self, other: &TimeRange) -> Option<TimeRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start <= end).then_some(TimeRange { start, end })
    }
}

impl fmt::Debug for TimeRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.start, self.end)
    }
}

impl fmt::Display for TimeRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.start, self.end)
    }
}

impl From<(Timestamp, Timestamp)> for TimeRange {
    fn from((start, end): (Timestamp, Timestamp)) -> Self {
        Self::new(start, end)
    }
}

/// Decomposes `[range.start, range.end]` into maximal dyadic intervals, i.e.
/// intervals of the form `[k·2^g, (k+1)·2^g − 1]`.
///
/// This is the classic top-down, domain-based decomposition used by the
/// Horae / PGSS family of baselines (each dyadic level corresponds to one
/// "layer" of their multi-layer structures). Returned as `(granularity g,
/// block index k)` pairs; the union of the returned intervals equals the
/// input range and the intervals are pairwise disjoint.
pub fn dyadic_decompose(range: TimeRange) -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    let mut lo = range.start;
    let hi = range.end;
    while lo <= hi {
        // Largest power-of-two block starting at `lo` that fits in [lo, hi].
        let max_by_alignment = if lo == 0 { 63 } else { lo.trailing_zeros() };
        let remaining = hi - lo + 1;
        let max_by_len = 63 - remaining.leading_zeros();
        let g = max_by_alignment.min(max_by_len);
        let block = 1u64 << g;
        out.push((g, lo >> g));
        match lo.checked_add(block) {
            Some(next) => lo = next,
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_basics() {
        let r = TimeRange::new(5, 10);
        assert_eq!(r.len(), 6);
        assert!(r.contains(5));
        assert!(r.contains(10));
        assert!(!r.contains(11));
        assert!(!r.contains(4));
        assert!(!r.is_empty());
    }

    #[test]
    fn instant_range() {
        let r = TimeRange::instant(7);
        assert_eq!(r.len(), 1);
        assert!(r.contains(7));
        assert!(!r.contains(6));
    }

    #[test]
    #[should_panic(expected = "start")]
    fn invalid_range_panics() {
        let _ = TimeRange::new(10, 5);
    }

    #[test]
    fn contains_range_and_overlaps() {
        let outer = TimeRange::new(0, 100);
        let inner = TimeRange::new(10, 20);
        assert!(outer.contains_range(&inner));
        assert!(!inner.contains_range(&outer));
        assert!(outer.overlaps(&inner));
        let disjoint = TimeRange::new(101, 110);
        assert!(!outer.overlaps(&disjoint));
        assert!(outer.overlaps(&TimeRange::new(100, 110)));
    }

    #[test]
    fn intersection() {
        let a = TimeRange::new(0, 10);
        let b = TimeRange::new(5, 20);
        assert_eq!(a.intersect(&b), Some(TimeRange::new(5, 10)));
        let c = TimeRange::new(11, 20);
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn dyadic_cover_is_exact_and_disjoint() {
        for (s, e) in [(0u64, 0u64), (0, 15), (3, 17), (5, 5), (1, 1023), (7, 8)] {
            let range = TimeRange::new(s, e);
            let blocks = dyadic_decompose(range);
            let mut covered = Vec::new();
            for (g, k) in &blocks {
                let lo = k << g;
                let hi = lo + (1u64 << g) - 1;
                covered.push((lo, hi));
            }
            covered.sort_unstable();
            // Disjoint, contiguous, and exactly covering [s, e].
            assert_eq!(covered.first().unwrap().0, s);
            assert_eq!(covered.last().unwrap().1, e);
            for w in covered.windows(2) {
                assert_eq!(w[0].1 + 1, w[1].0, "gap or overlap in dyadic cover");
            }
        }
    }

    #[test]
    fn dyadic_aligned_range_is_single_block() {
        let blocks = dyadic_decompose(TimeRange::new(16, 31));
        assert_eq!(blocks, vec![(4, 1)]);
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", TimeRange::new(1, 2)), "[1, 2]");
    }
}
