//! The graph-stream data model of Definition 1: a sequence of weighted,
//! timestamped directed edges `(s, d, w, t)`.

use crate::time::{TimeRange, Timestamp};
use std::collections::HashMap;

/// Vertex identifier. Real datasets map user/email/account ids to dense
/// integers; the generators emit dense ids directly.
pub type VertexId = u64;

/// Edge weight. The paper's datasets use unit weights per interaction; the
/// model allows arbitrary positive weights.
pub type Weight = u64;

/// A single graph-stream item `e_i = (s_i, d_i, w_i, t_i)`: a directed edge
/// from `src` to `dst` carrying weight `weight` that arrived at timestamp
/// `timestamp` (Definition 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StreamEdge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Weight carried by this stream item.
    pub weight: Weight,
    /// Arrival timestamp (time-slice index).
    pub timestamp: Timestamp,
}

impl StreamEdge {
    /// Convenience constructor.
    pub fn new(src: VertexId, dst: VertexId, weight: Weight, timestamp: Timestamp) -> Self {
        Self {
            src,
            dst,
            weight,
            timestamp,
        }
    }
}

/// An in-memory graph stream: an ordered sequence of [`StreamEdge`]s plus the
/// bookkeeping the experiment harness needs (vertex/edge counts, time span).
///
/// This is the "raw data" side of the reproduction; summaries never get to
/// keep it — they only see the edges one at a time via
/// [`TemporalGraphSummary::insert`](crate::TemporalGraphSummary::insert).
#[derive(Clone, Debug, Default)]
pub struct GraphStream {
    /// Human-readable name of the stream (dataset preset or generator label).
    pub name: String,
    edges: Vec<StreamEdge>,
}

impl GraphStream {
    /// Creates an empty stream with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            edges: Vec::new(),
        }
    }

    /// Creates a stream from pre-built edges.
    pub fn from_edges(name: impl Into<String>, edges: Vec<StreamEdge>) -> Self {
        Self {
            name: name.into(),
            edges,
        }
    }

    /// Appends an edge to the stream.
    pub fn push(&mut self, edge: StreamEdge) {
        self.edges.push(edge);
    }

    /// Number of stream items.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the stream contains no items.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Borrow the underlying edges in arrival order.
    pub fn edges(&self) -> &[StreamEdge] {
        &self.edges
    }

    /// Iterate over edges in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &StreamEdge> {
        self.edges.iter()
    }

    /// Sorts the stream by timestamp, preserving the relative order of items
    /// that share a timestamp. Generators emit edges already sorted; this is a
    /// guard for hand-built streams.
    pub fn sort_by_time(&mut self) {
        self.edges.sort_by_key(|e| e.timestamp);
    }

    /// Full time span `[first arrival, last arrival]`, or `None` if empty.
    pub fn time_span(&self) -> Option<TimeRange> {
        if self.edges.is_empty() {
            return None;
        }
        let mut lo = Timestamp::MAX;
        let mut hi = 0;
        for e in &self.edges {
            lo = lo.min(e.timestamp);
            hi = hi.max(e.timestamp);
        }
        Some(TimeRange::new(lo, hi))
    }

    /// Computes summary statistics (Table II style) over the stream.
    pub fn stats(&self) -> StreamStats {
        let mut vertices = std::collections::HashSet::new();
        let mut distinct_edges = std::collections::HashSet::new();
        let mut total_weight: u128 = 0;
        for e in &self.edges {
            vertices.insert(e.src);
            vertices.insert(e.dst);
            distinct_edges.insert((e.src, e.dst));
            total_weight += u128::from(e.weight);
        }
        StreamStats {
            name: self.name.clone(),
            vertices: vertices.len(),
            edges: self.edges.len(),
            distinct_edges: distinct_edges.len(),
            total_weight,
            time_span: self.time_span(),
        }
    }

    /// Out-degree (number of stream items per source vertex). Used for the
    /// skewness characterisation of Fig. 2.
    pub fn out_degrees(&self) -> HashMap<VertexId, u64> {
        let mut deg = HashMap::new();
        for e in &self.edges {
            *deg.entry(e.src).or_insert(0) += 1;
        }
        deg
    }

    /// In-degree per destination vertex.
    pub fn in_degrees(&self) -> HashMap<VertexId, u64> {
        let mut deg = HashMap::new();
        for e in &self.edges {
            *deg.entry(e.dst).or_insert(0) += 1;
        }
        deg
    }

    /// Number of stream items per time slice of width `slice`. Used for the
    /// irregularity characterisation of Fig. 3.
    pub fn arrivals_per_slice(&self, slice: u64) -> HashMap<u64, u64> {
        assert!(slice > 0, "slice width must be positive");
        let mut hist = HashMap::new();
        for e in &self.edges {
            *hist.entry(e.timestamp / slice).or_insert(0) += 1;
        }
        hist
    }
}

impl<'a> IntoIterator for &'a GraphStream {
    type Item = &'a StreamEdge;
    type IntoIter = std::slice::Iter<'a, StreamEdge>;

    fn into_iter(self) -> Self::IntoIter {
        self.edges.iter()
    }
}

impl FromIterator<StreamEdge> for GraphStream {
    fn from_iter<T: IntoIterator<Item = StreamEdge>>(iter: T) -> Self {
        Self {
            name: String::from("anonymous"),
            edges: iter.into_iter().collect(),
        }
    }
}

/// Summary statistics of a [`GraphStream`], mirroring Table II of the paper.
#[derive(Clone, Debug)]
pub struct StreamStats {
    /// Stream / dataset name.
    pub name: String,
    /// Number of distinct vertices.
    pub vertices: usize,
    /// Number of stream items (edge occurrences).
    pub edges: usize,
    /// Number of distinct `(src, dst)` pairs.
    pub distinct_edges: usize,
    /// Sum of all edge weights.
    pub total_weight: u128,
    /// Temporal extent of the stream.
    pub time_span: Option<TimeRange>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream() -> GraphStream {
        GraphStream::from_edges(
            "sample",
            vec![
                StreamEdge::new(1, 2, 1, 0),
                StreamEdge::new(1, 3, 2, 1),
                StreamEdge::new(2, 3, 1, 1),
                StreamEdge::new(1, 2, 3, 5),
            ],
        )
    }

    #[test]
    fn stats_counts_vertices_and_edges() {
        let s = sample_stream().stats();
        assert_eq!(s.vertices, 3);
        assert_eq!(s.edges, 4);
        assert_eq!(s.distinct_edges, 3);
        assert_eq!(s.total_weight, 7);
        assert_eq!(s.time_span, Some(TimeRange::new(0, 5)));
    }

    #[test]
    fn degrees() {
        let st = sample_stream();
        let out = st.out_degrees();
        assert_eq!(out[&1], 3);
        assert_eq!(out[&2], 1);
        let inn = st.in_degrees();
        assert_eq!(inn[&2], 2);
        assert_eq!(inn[&3], 2);
    }

    #[test]
    fn arrivals_per_slice_counts() {
        let st = sample_stream();
        let h = st.arrivals_per_slice(2);
        assert_eq!(h[&0], 3); // t=0,1,1
        assert_eq!(h[&2], 1); // t=5
    }

    #[test]
    fn empty_stream_has_no_span() {
        let st = GraphStream::new("empty");
        assert!(st.is_empty());
        assert!(st.time_span().is_none());
    }

    #[test]
    fn sort_by_time_orders_edges() {
        let mut st = GraphStream::from_edges(
            "x",
            vec![StreamEdge::new(1, 2, 1, 9), StreamEdge::new(3, 4, 1, 2)],
        );
        st.sort_by_time();
        assert_eq!(st.edges()[0].timestamp, 2);
        assert_eq!(st.edges()[1].timestamp, 9);
    }

    #[test]
    fn from_iterator_collects() {
        let st: GraphStream = (0..10).map(|i| StreamEdge::new(i, i + 1, 1, i)).collect();
        assert_eq!(st.len(), 10);
    }
}
