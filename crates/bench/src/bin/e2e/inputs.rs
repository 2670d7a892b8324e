//! Workload inputs: the Lkml stream at paper scale, the seeded dashboard
//! query pool, and the exact oracle every answer is checked against.
//!
//! The stream is the preset's own, the same for every `--seed`, as a real
//! dataset would be; the seed draws the queries, their order and the
//! `live` query targets. (Re-seeding the stream moves the summary's size
//! per edge by ±15 % between seeds, which would drown every bound.)

use higgs::HiggsConfig;
use higgs_common::generator::{generate_stream, DatasetPreset, ExperimentScale, WorkloadBuilder};
use higgs_common::{ExactTemporalGraph, Query, StreamEdge, TimeRange, VertexDirection, Weight};

/// Edges per `insert_all` call, matching the service's routing chunk.
pub const BATCH: usize = 512;
/// Dashboard query pool size.
pub const POOL: usize = 1_000;
/// Shared sliding windows the pool spans.
pub const WINDOWS: u64 = 16;

/// SplitMix64: the benchmark's own seeded generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Every service the benchmark builds: two shards, paper defaults otherwise.
pub fn config() -> Result<HiggsConfig, String> {
    HiggsConfig::builder()
        .shards(2)
        .build()
        .map_err(|e| format!("config: {e}"))
}

pub struct Inputs {
    /// The stream, in non-decreasing timestamp order.
    pub edges: Vec<StreamEdge>,
    pub span: TimeRange,
    pub pool: Vec<Query>,
    /// Exact answer of each pool query over the whole stream.
    pub expected: Vec<Weight>,
    pub exact: ExactTemporalGraph,
    pub seed: u64,
}

impl Inputs {
    pub fn generate(seed: u64) -> Result<Self, String> {
        let stream = generate_stream(&DatasetPreset::Lkml.config(ExperimentScale::Paper));
        let span = stream.time_span().ok_or("empty stream")?;
        let pool = dashboard_pool(WorkloadBuilder::new(&stream, seed), span, seed);
        let edges = stream.edges().to_vec();
        let mut exact = ExactTemporalGraph::from_edges(&edges);
        let expected = pool.iter().map(|q| exact_answer(&mut exact, q)).collect();
        Ok(Inputs {
            edges,
            span,
            pool,
            expected,
            exact,
            seed,
        })
    }
}

/// The exact answer of `q`; paths and subgraphs sum their edges, as the
/// summaries define them.
pub fn exact_answer(g: &mut ExactTemporalGraph, q: &Query) -> Weight {
    match q {
        Query::Edge(e) => g.exact_edge(e.src, e.dst, e.range),
        Query::Vertex(v) => g.exact_vertex(v.vertex, v.direction, v.range),
        Query::Path(p) => p
            .vertices
            .windows(2)
            .map(|w| g.exact_edge(w[0], w[1], p.range))
            .sum(),
        Query::Subgraph(s) => s
            .edges
            .iter()
            .map(|&(a, b)| g.exact_edge(a, b, s.range))
            .sum(),
    }
}

/// The `w`-th of the shared sliding windows: length span/5, step span/20.
pub fn window(span: TimeRange, w: u64) -> TimeRange {
    let len = span.len() / 5;
    let start = span.start + w * (span.len() / 20);
    TimeRange::new(start, start + len - 1)
}

/// 1 000 queries: 60 % edge, 20 % vertex (alternating out/in), 15 % 4-hop
/// path, 5 % 8-edge subgraph, each over one of the shared windows, in a
/// seeded shuffled order. Targets are drawn from the stream, so most
/// answers are non-zero.
fn dashboard_pool(mut b: WorkloadBuilder, span: TimeRange, seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0xDA5B_0A4D);
    let share = |percent: usize| POOL * percent / 100;
    let mut pool: Vec<Query> = Vec::with_capacity(POOL);
    pool.extend(b.edge_queries(share(60), 1).into_iter().map(Query::from));
    pool.extend(b.vertex_queries(share(20), 1).into_iter().map(Query::from));
    pool.extend(b.path_queries(share(15), 4, 1).into_iter().map(Query::from));
    pool.extend(
        b.subgraph_queries(share(5), 8, 1)
            .into_iter()
            .map(Query::from),
    );
    for q in &mut pool {
        let range = window(span, rng.below(WINDOWS as usize) as u64);
        match q {
            Query::Edge(e) => e.range = range,
            Query::Vertex(v) => v.range = range,
            Query::Path(p) => p.range = range,
            Query::Subgraph(s) => s.range = range,
        }
    }
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i + 1));
    }
    pool
}

/// A `live` query over the trailing window that ends just before the
/// newest enqueued timestamp: `[last_ts - span/16, last_ts - 1]`. Every
/// stream edge inside that window is already enqueued (the stream is time
/// ordered), so the read-your-writes answer equals the exact answer over
/// the whole stream. 75 % edge queries, 25 % vertex queries, on endpoints
/// of edges inside the window.
pub fn live_query(
    edges: &[StreamEdge],
    prefix: usize,
    span: TimeRange,
    n: u64,
    rng: &mut Rng,
) -> Query {
    let last_ts = edges[prefix - 1].timestamp;
    let end = last_ts.saturating_sub(1);
    let range = TimeRange::new(last_ts.saturating_sub(span.len() / 16).min(end), end);
    // The newest edge is never before the window, so `lo < prefix`.
    let lo = edges[..prefix].partition_point(|e| e.timestamp < range.start);
    let target = edges[lo + rng.below(prefix - lo)];
    match n % 8 {
        0 => Query::vertex(target.src, VertexDirection::Out, range),
        4 => Query::vertex(target.dst, VertexDirection::In, range),
        _ => Query::edge(target.src, target.dst, range),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_tile_the_span() {
        let span = TimeRange::new(100, 100 + 20_000 - 1);
        assert_eq!(window(span, 0), TimeRange::new(100, 100 + 4_000 - 1));
        let last = window(span, WINDOWS - 1);
        assert_eq!(last.start, 100 + 15 * 1_000);
        assert!(last.end <= span.end);
    }

    #[test]
    fn live_windows_end_before_the_newest_timestamp() {
        let edges: Vec<StreamEdge> = (0..100u64)
            .map(|i| StreamEdge::new(i % 7, i % 5 + 10, 1, i / 2))
            .collect();
        let span = TimeRange::new(0, 49);
        let mut rng = Rng::new(3);
        for n in 0..16 {
            let q = live_query(&edges, 60, span, n, &mut rng);
            assert_eq!(q.range(), TimeRange::new(29 - 3, 28));
            // Every edge with a timestamp in the window is in the prefix.
            assert!(edges[60..].iter().all(|e| e.timestamp > q.range().end));
        }
    }
}
