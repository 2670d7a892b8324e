//! Temporal Range Query (TRQ) primitives, the typed [`Query`] surface, and
//! the [`TemporalGraphSummary`] trait implemented by HIGGS and by every
//! baseline.
//!
//! Definition 2 of the paper gives two primitives — edge queries and vertex
//! queries over a temporal range — from which path and subgraph queries are
//! composed. This module exposes them in two layers:
//!
//! * **Primitive structs** ([`EdgeQuery`], [`VertexQuery`], [`PathQuery`],
//!   [`SubgraphQuery`]) with `new` constructors, plus the raw
//!   `edge_query`/`vertex_query` trait methods every summary implements.
//! * **The unified [`Query`] enum and [`QueryBatch`]** — the typed surface a
//!   production front-end submits. [`TemporalGraphSummary::query`] evaluates
//!   one query of any kind; [`TemporalGraphSummary::query_batch`] evaluates a
//!   whole mixed batch. The default implementations loop over the primitives
//!   (so every baseline supports batches unchanged), while HIGGS overrides
//!   them with a *plan-sharing executor*: the Algorithm-3 boundary search
//!   runs once per **distinct [`TimeRange`]** in the batch and every query
//!   sharing that range — every hop of a path query, every edge of a
//!   subgraph query — is evaluated against the cached plan. A 10-hop path
//!   query therefore costs one boundary search instead of ten.
//!
//! The legacy per-kind composition lives in [`SummaryExt`] so that all
//! competitors can still be driven by exactly the same query code in the
//! experiments; it is semantically identical to the [`Query`] surface
//! (bit-identical results, asserted by cross-crate property tests).

use crate::edge::{StreamEdge, VertexId, Weight};
use crate::time::TimeRange;

/// Direction of a vertex query: aggregate over outgoing or incoming edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VertexDirection {
    /// Aggregate the weights of all outgoing edges of the vertex.
    Out,
    /// Aggregate the weights of all incoming edges of the vertex.
    In,
}

/// An edge query: aggregated weight of `src → dst` within `range`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeQuery {
    /// Source vertex of the queried edge.
    pub src: VertexId,
    /// Destination vertex of the queried edge.
    pub dst: VertexId,
    /// Temporal range of interest.
    pub range: TimeRange,
}

impl EdgeQuery {
    /// Creates an edge query for `src → dst` within `range`.
    pub fn new(src: VertexId, dst: VertexId, range: impl Into<TimeRange>) -> Self {
        Self {
            src,
            dst,
            range: range.into(),
        }
    }
}

/// A vertex query: aggregated weight of all outgoing (or incoming) edges of
/// `vertex` within `range`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VertexQuery {
    /// The queried vertex.
    pub vertex: VertexId,
    /// Whether outgoing or incoming edges are aggregated.
    pub direction: VertexDirection,
    /// Temporal range of interest.
    pub range: TimeRange,
}

impl VertexQuery {
    /// Creates a vertex query for `vertex` in `direction` within `range`.
    pub fn new(vertex: VertexId, direction: VertexDirection, range: impl Into<TimeRange>) -> Self {
        Self {
            vertex,
            direction,
            range: range.into(),
        }
    }
}

/// A path query: the sequence of vertices `v_0 → v_1 → … → v_k`; the result
/// is the sum of the aggregated weights of the constituent edges within
/// `range` (the composition used in Section VI-C).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PathQuery {
    /// Vertices along the path, in order. A path of `h` hops has `h + 1`
    /// vertices.
    pub vertices: Vec<VertexId>,
    /// Temporal range of interest.
    pub range: TimeRange,
}

impl PathQuery {
    /// Creates a path query over `vertices` (in order) within `range`.
    pub fn new(vertices: Vec<VertexId>, range: impl Into<TimeRange>) -> Self {
        Self {
            vertices,
            range: range.into(),
        }
    }

    /// Number of hops (edges) on the path.
    pub fn hops(&self) -> usize {
        self.vertices.len().saturating_sub(1)
    }
}

/// A subgraph query: a set of directed edges; the result is the sum of the
/// aggregated weights of each edge within `range` (Example 1 of the paper).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SubgraphQuery {
    /// Directed edges forming the queried subgraph.
    pub edges: Vec<(VertexId, VertexId)>,
    /// Temporal range of interest.
    pub range: TimeRange,
}

impl SubgraphQuery {
    /// Creates a subgraph query over `edges` within `range`.
    pub fn new(edges: Vec<(VertexId, VertexId)>, range: impl Into<TimeRange>) -> Self {
        Self {
            edges,
            range: range.into(),
        }
    }
}

/// One typed Temporal Range Query: any of the four TRQ kinds of Definition 2
/// and Section VI-C, submitted through a single entry point.
///
/// Production traffic arrives as mixed streams of all four kinds; `Query`
/// lets callers build heterogeneous batches (see [`QueryBatch`]) and lets
/// summaries specialise evaluation per batch rather than per primitive call.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Query {
    /// An edge query.
    Edge(EdgeQuery),
    /// A vertex query.
    Vertex(VertexQuery),
    /// A path query (sum over the hops).
    Path(PathQuery),
    /// A subgraph query (sum over the edges).
    Subgraph(SubgraphQuery),
}

impl Query {
    /// Creates an edge query for `src → dst` within `range`.
    pub fn edge(src: VertexId, dst: VertexId, range: impl Into<TimeRange>) -> Self {
        Query::Edge(EdgeQuery::new(src, dst, range))
    }

    /// Creates a vertex query for `vertex` in `direction` within `range`.
    pub fn vertex(
        vertex: VertexId,
        direction: VertexDirection,
        range: impl Into<TimeRange>,
    ) -> Self {
        Query::Vertex(VertexQuery::new(vertex, direction, range))
    }

    /// Creates a path query over `vertices` within `range`.
    pub fn path(vertices: Vec<VertexId>, range: impl Into<TimeRange>) -> Self {
        Query::Path(PathQuery::new(vertices, range))
    }

    /// Creates a subgraph query over `edges` within `range`.
    pub fn subgraph(edges: Vec<(VertexId, VertexId)>, range: impl Into<TimeRange>) -> Self {
        Query::Subgraph(SubgraphQuery::new(edges, range))
    }

    /// The temporal range this query aggregates over — the grouping key of
    /// the plan-sharing batch executor.
    pub fn range(&self) -> TimeRange {
        match self {
            Query::Edge(q) => q.range,
            Query::Vertex(q) => q.range,
            Query::Path(q) => q.range,
            Query::Subgraph(q) => q.range,
        }
    }

    /// Number of primitive edge/vertex lookups this query expands into
    /// (1 for edge and vertex queries, the hop count for paths, the edge
    /// count for subgraphs).
    pub fn primitive_count(&self) -> usize {
        match self {
            Query::Edge(_) | Query::Vertex(_) => 1,
            Query::Path(q) => q.hops(),
            Query::Subgraph(q) => q.edges.len(),
        }
    }

    /// Short human-readable kind label ("edge", "vertex", "path",
    /// "subgraph").
    pub fn kind_label(&self) -> &'static str {
        match self {
            Query::Edge(_) => "edge",
            Query::Vertex(_) => "vertex",
            Query::Path(_) => "path",
            Query::Subgraph(_) => "subgraph",
        }
    }

    /// Decomposes this query into independently routable parts for a summary
    /// partitioned by **source vertex** (each shard owns every edge whose
    /// source hashes to it, see [`crate::hashing::shard_of`]).
    ///
    /// The routing rules:
    ///
    /// * an edge query is owned by its source's shard,
    /// * an out-direction vertex query is owned by the vertex's shard (all of
    ///   its outgoing edges live there),
    /// * an in-direction vertex query fans out to
    ///   [every shard](ShardRoute::AllShards) — incoming edges may originate
    ///   from any source — and the per-shard results are summed,
    /// * path and subgraph queries split into one edge query per hop /
    ///   per edge, each owned by that hop's source shard.
    ///
    /// The sum of the parts' results equals this query's result on an
    /// unsharded summary (paths and subgraphs are defined as sums over their
    /// hops/edges, Section VI-C).
    pub fn shard_parts(&self) -> Vec<(ShardRoute, Query)> {
        match self {
            Query::Edge(q) => vec![(ShardRoute::Vertex(q.src), self.clone())],
            Query::Vertex(q) => match q.direction {
                VertexDirection::Out => vec![(ShardRoute::Vertex(q.vertex), self.clone())],
                VertexDirection::In => vec![(ShardRoute::AllShards, self.clone())],
            },
            Query::Path(q) => q
                .vertices
                .windows(2)
                .map(|w| (ShardRoute::Vertex(w[0]), Query::edge(w[0], w[1], q.range)))
                .collect(),
            Query::Subgraph(q) => q
                .edges
                .iter()
                .map(|&(s, d)| (ShardRoute::Vertex(s), Query::edge(s, d, q.range)))
                .collect(),
        }
    }
}

/// Where one [shard part](Query::shard_parts) of a query must execute when a
/// summary is partitioned by source vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShardRoute {
    /// The part is answered entirely by the shard owning this vertex.
    Vertex(VertexId),
    /// The part must run on every shard and the results be summed
    /// (in-direction vertex queries: incoming edges can originate anywhere).
    AllShards,
}

/// A batch of typed queries routed onto `num_shards` source-partitioned
/// shards: one sub-batch per shard plus the scatter map that reassembles
/// per-shard results into one weight per original query.
///
/// Build one with [`ShardPlan::build`] (or [`QueryBatch::shard_plan`]); run
/// each [`sub_batch`](Self::sub_batch) against its shard — each shard's
/// plan-sharing executor still builds only one Algorithm-3 plan per distinct
/// [`TimeRange`] in its sub-batch — then [`gather`](Self::gather) the
/// per-shard result vectors.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// One sub-batch per shard, in shard order.
    sub: Vec<Vec<Query>>,
    /// Parallel to `sub`: the original query index each sub-query's result
    /// accumulates into.
    scatter: Vec<Vec<usize>>,
    /// Number of queries in the original batch.
    len: usize,
}

impl ShardPlan {
    /// Routes `queries` onto `num_shards` shards following the rules of
    /// [`Query::shard_parts`].
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn build(queries: &[Query], num_shards: usize) -> Self {
        assert!(num_shards > 0, "shard count must be positive");
        let mut sub = vec![Vec::new(); num_shards];
        let mut scatter = vec![Vec::new(); num_shards];
        for (qi, query) in queries.iter().enumerate() {
            for (route, part) in query.shard_parts() {
                match route {
                    ShardRoute::Vertex(v) => {
                        let s = crate::hashing::shard_of(v, num_shards);
                        sub[s].push(part);
                        scatter[s].push(qi);
                    }
                    ShardRoute::AllShards => {
                        for s in 0..num_shards {
                            sub[s].push(part.clone());
                            scatter[s].push(qi);
                        }
                    }
                }
            }
        }
        Self {
            sub,
            scatter,
            len: queries.len(),
        }
    }

    /// Number of shards this plan routes onto.
    pub fn num_shards(&self) -> usize {
        self.sub.len()
    }

    /// Number of queries in the original batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the original batch was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sub-batch destined for `shard` (empty when nothing routes there).
    pub fn sub_batch(&self, shard: usize) -> &[Query] {
        &self.sub[shard]
    }

    /// Reassembles per-shard result vectors (one per shard, each parallel to
    /// its [`sub_batch`](Self::sub_batch)) into one weight per original
    /// query, summing the parts.
    ///
    /// # Panics
    ///
    /// Panics if the result vectors do not match the plan's shape.
    pub fn gather(&self, per_shard: &[Vec<Weight>]) -> Vec<Weight> {
        assert_eq!(per_shard.len(), self.sub.len(), "one result vec per shard");
        let mut out = vec![0u64; self.len];
        for (shard, results) in per_shard.iter().enumerate() {
            assert_eq!(
                results.len(),
                self.scatter[shard].len(),
                "shard {shard} returned a result count that does not match its sub-batch"
            );
            for (&qi, &w) in self.scatter[shard].iter().zip(results) {
                out[qi] += w;
            }
        }
        out
    }
}

/// Distinct-range count up to which [`group_by_range`] stays on the linear
/// small-vec probe; beyond it, an index map takes over so pathological
/// batches (every query its own range) group in O(N) instead of O(N·G).
const LINEAR_GROUPING_LIMIT: usize = 32;

/// Groups a batch's query indices by distinct [`TimeRange`], preserving the
/// first-appearance order of the ranges. This is the grouping surface the
/// plan-sharing batch executors key their per-range work on.
///
/// Deliberately a linear probe over a small `Vec` rather than a `HashMap`:
/// serving batches rarely contain more than a handful of distinct windows
/// (sliding-window screens re-use the same few ranges), and for those sizes
/// scanning a contiguous vector of 16-byte ranges is cheaper than hashing
/// every query's range and paying a per-batch table allocation — see the
/// `plan_cache/grouping/*` micro-benchmarks in `higgs-bench`. Once a batch
/// exceeds `LINEAR_GROUPING_LIMIT` (32) distinct ranges, a `HashMap` index over
/// the already-collected groups takes over, so a batch of N mostly-distinct
/// ranges costs O(N), not O(N²).
pub fn group_by_range(queries: &[Query]) -> Vec<(TimeRange, Vec<u32>)> {
    let mut groups: Vec<(TimeRange, Vec<u32>)> = Vec::new();
    let mut index: Option<std::collections::HashMap<TimeRange, usize>> = None;
    for (qi, query) in queries.iter().enumerate() {
        let range = query.range();
        let position = match &index {
            Some(map) => map.get(&range).copied(),
            None => groups.iter().position(|(r, _)| *r == range),
        };
        match position {
            Some(g) => groups[g].1.push(qi as u32),
            None => {
                if let Some(map) = &mut index {
                    map.insert(range, groups.len());
                } else if groups.len() == LINEAR_GROUPING_LIMIT {
                    // The batch turned out range-heavy: switch to hashing,
                    // seeding the index with everything grouped so far.
                    let mut map: std::collections::HashMap<TimeRange, usize> = groups
                        .iter()
                        .enumerate()
                        .map(|(g, (r, _))| (*r, g))
                        .collect();
                    map.insert(range, groups.len());
                    index = Some(map);
                }
                groups.push((range, vec![qi as u32]));
            }
        }
    }
    groups
}

impl From<EdgeQuery> for Query {
    fn from(q: EdgeQuery) -> Self {
        Query::Edge(q)
    }
}

impl From<VertexQuery> for Query {
    fn from(q: VertexQuery) -> Self {
        Query::Vertex(q)
    }
}

impl From<PathQuery> for Query {
    fn from(q: PathQuery) -> Self {
        Query::Path(q)
    }
}

impl From<SubgraphQuery> for Query {
    fn from(q: SubgraphQuery) -> Self {
        Query::Subgraph(q)
    }
}

/// An ordered batch of typed queries, evaluated in one call through
/// [`TemporalGraphSummary::query_batch`].
///
/// Results are returned in submission order and are bit-identical to calling
/// [`TemporalGraphSummary::query`] per element; batching only changes *cost*
/// (implementations may share planning work across queries), never results.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryBatch {
    queries: Vec<Query>,
}

impl QueryBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `capacity` queries.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            queries: Vec::with_capacity(capacity),
        }
    }

    /// Appends one query (any of the four kinds, or a primitive struct via
    /// its `From` impl).
    pub fn push(&mut self, query: impl Into<Query>) {
        self.queries.push(query.into());
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch holds no query.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The batched queries, in submission order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Iterates over the batched queries in submission order.
    pub fn iter(&self) -> std::slice::Iter<'_, Query> {
        self.queries.iter()
    }

    /// Number of distinct temporal ranges in the batch — the number of query
    /// plans a plan-sharing executor builds for it.
    pub fn distinct_ranges(&self) -> usize {
        let mut ranges: Vec<TimeRange> = self.queries.iter().map(Query::range).collect();
        ranges.sort_unstable_by_key(|r| (r.start, r.end));
        ranges.dedup();
        ranges.len()
    }

    /// Routes the batch onto `num_shards` source-partitioned shards; see
    /// [`ShardPlan`].
    pub fn shard_plan(&self, num_shards: usize) -> ShardPlan {
        ShardPlan::build(&self.queries, num_shards)
    }
}

impl From<Vec<Query>> for QueryBatch {
    fn from(queries: Vec<Query>) -> Self {
        Self { queries }
    }
}

impl FromIterator<Query> for QueryBatch {
    fn from_iter<I: IntoIterator<Item = Query>>(iter: I) -> Self {
        Self {
            queries: iter.into_iter().collect(),
        }
    }
}

impl Extend<Query> for QueryBatch {
    fn extend<I: IntoIterator<Item = Query>>(&mut self, iter: I) {
        self.queries.extend(iter);
    }
}

impl IntoIterator for QueryBatch {
    type Item = Query;
    type IntoIter = std::vec::IntoIter<Query>;
    fn into_iter(self) -> Self::IntoIter {
        self.queries.into_iter()
    }
}

impl<'a> IntoIterator for &'a QueryBatch {
    type Item = &'a Query;
    type IntoIter = std::slice::Iter<'a, Query>;
    fn into_iter(self) -> Self::IntoIter {
        self.queries.iter()
    }
}

/// The interface every graph-stream summary in this repository implements:
/// HIGGS, PGSS, Horae(-cpt), AuxoTime(-cpt), and the exact ground-truth store.
///
/// Implementations are *approximate* (except the exact store) but must have
/// one-sided error: estimates never underestimate the true aggregated weight.
pub trait TemporalGraphSummary {
    /// Inserts one stream item.
    fn insert(&mut self, edge: &StreamEdge);

    /// Deletes (reverses) one previously inserted stream item, decrementing
    /// the matching counters. Deleting an item that was never inserted leaves
    /// the summary in an unspecified (but safe) state, as with Count-Min
    /// deletions.
    fn delete(&mut self, edge: &StreamEdge);

    /// Aggregated weight of the directed edge `src → dst` within `range`.
    fn edge_query(&self, src: VertexId, dst: VertexId, range: TimeRange) -> Weight;

    /// Aggregated weight of all edges incident to `vertex` in `direction`
    /// within `range`.
    fn vertex_query(
        &self,
        vertex: VertexId,
        direction: VertexDirection,
        range: TimeRange,
    ) -> Weight;

    /// Main-memory footprint of the summary in bytes (Section VI-G).
    fn space_bytes(&self) -> usize;

    /// Short human-readable name used in experiment output ("HIGGS",
    /// "Horae", …).
    fn name(&self) -> &'static str;

    /// Bulk-inserts a slice of edges in arrival order. Implementations may
    /// override this with a faster path (e.g. the parallel HIGGS pipeline).
    fn insert_all(&mut self, edges: &[StreamEdge]) {
        for e in edges {
            self.insert(e);
        }
    }

    /// Evaluates one typed [`Query`] of any kind.
    ///
    /// The default implementation expands composite queries into the
    /// edge-query primitive (path queries sum their hops, subgraph queries
    /// sum their edges — Section VI-C). Implementations may override this
    /// with a faster path; overrides must return bit-identical results.
    fn query(&self, query: &Query) -> Weight {
        match query {
            Query::Edge(q) => self.edge_query(q.src, q.dst, q.range),
            Query::Vertex(q) => self.vertex_query(q.vertex, q.direction, q.range),
            Query::Path(q) => q
                .vertices
                .windows(2)
                .map(|w| self.edge_query(w[0], w[1], q.range))
                .sum(),
            Query::Subgraph(q) => q
                .edges
                .iter()
                .map(|&(s, d)| self.edge_query(s, d, q.range))
                .sum(),
        }
    }

    /// Evaluates a batch of typed queries, returning one weight per query in
    /// submission order.
    ///
    /// The default implementation loops [`Self::query`] over the slice, so
    /// every summary supports batches unchanged. HIGGS overrides this with a
    /// plan-sharing executor that runs the boundary search once per distinct
    /// [`TimeRange`] in the batch; results stay bit-identical either way.
    fn query_batch(&self, queries: &[Query]) -> Vec<Weight> {
        queries.iter().map(|q| self.query(q)).collect()
    }
}

/// Query composition shared by every summary: path and subgraph queries built
/// from the edge-query primitive, plus convenience wrappers taking the query
/// structs.
///
/// This is the *unoptimised* per-primitive composition (each hop plans its
/// range anew); the typed [`TemporalGraphSummary::query`] /
/// [`TemporalGraphSummary::query_batch`] surface is the batchable entry point
/// that lets implementations amortise planning. Both produce identical
/// results.
pub trait SummaryExt: TemporalGraphSummary {
    /// Evaluates an [`EdgeQuery`].
    fn run_edge_query(&self, q: &EdgeQuery) -> Weight {
        self.edge_query(q.src, q.dst, q.range)
    }

    /// Evaluates a [`VertexQuery`].
    fn run_vertex_query(&self, q: &VertexQuery) -> Weight {
        self.vertex_query(q.vertex, q.direction, q.range)
    }

    /// Evaluates a [`PathQuery`]: sum of the aggregated weights of each hop.
    fn path_query(&self, q: &PathQuery) -> Weight {
        q.vertices
            .windows(2)
            .map(|w| self.edge_query(w[0], w[1], q.range))
            .sum()
    }

    /// Evaluates a [`SubgraphQuery`]: sum of the aggregated weights of each
    /// edge in the subgraph.
    fn subgraph_query(&self, q: &SubgraphQuery) -> Weight {
        q.edges
            .iter()
            .map(|&(s, d)| self.edge_query(s, d, q.range))
            .sum()
    }
}

impl<T: TemporalGraphSummary + ?Sized> SummaryExt for T {}

/// A bundle of randomly generated queries of all four kinds over one stream,
/// reused verbatim against every competitor and the exact store so errors are
/// measured on identical workloads (Section VI-A).
#[derive(Clone, Debug, Default)]
pub struct QueryWorkload {
    /// Edge queries.
    pub edge_queries: Vec<EdgeQuery>,
    /// Vertex queries.
    pub vertex_queries: Vec<VertexQuery>,
    /// Path queries.
    pub path_queries: Vec<PathQuery>,
    /// Subgraph queries.
    pub subgraph_queries: Vec<SubgraphQuery>,
}

impl QueryWorkload {
    /// Total number of queries in the workload.
    pub fn len(&self) -> usize {
        self.edge_queries.len()
            + self.vertex_queries.len()
            + self.path_queries.len()
            + self.subgraph_queries.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over every query in the workload as a typed [`Query`], in
    /// kind order (edge, vertex, path, subgraph).
    pub fn iter(&self) -> impl Iterator<Item = Query> + '_ {
        self.edge_queries
            .iter()
            .copied()
            .map(Query::Edge)
            .chain(self.vertex_queries.iter().copied().map(Query::Vertex))
            .chain(self.path_queries.iter().cloned().map(Query::Path))
            .chain(self.subgraph_queries.iter().cloned().map(Query::Subgraph))
    }

    /// Collects the whole workload into a [`QueryBatch`] (kind order).
    pub fn to_batch(&self) -> QueryBatch {
        self.iter().collect()
    }
}

/// Scheduling class of a submitted query, consumed by the serving layer's
/// admission loop. Within one admission tick, classes are evaluated
/// strictly in the order `Interactive`, `Normal`, `Bulk` — a latency-
/// sensitive query never waits behind a bulk scan admitted in the same
/// tick. Plain (unserved) `query_batch` calls ignore priority entirely.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive: evaluated first within its admission tick and,
    /// when combined with [`Consistency::Relaxed`], without waiting for
    /// pending ingest flushes.
    Interactive,
    /// Default class: today's semantics — evaluated after interactive
    /// traffic, with read-your-writes visibility.
    #[default]
    Normal,
    /// Throughput-oriented: evaluated last within its tick; suited to
    /// analytical sweeps that tolerate extra queueing delay.
    Bulk,
}

/// Visibility guarantee a submitted query requires from the serving layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Consistency {
    /// Every edge the submitting process ingested before the submission is
    /// visible to the query (the serving layer flushes pending shard queues
    /// first when needed). This is the behaviour of direct
    /// `ShardedHiggs::query*` calls today, and the default.
    #[default]
    ReadYourWrites,
    /// The query may run against a slightly stale summary: the serving
    /// layer skips the pre-query flush, trading bounded staleness (at most
    /// the writer queues' backlog) for lower latency.
    Relaxed,
}

/// Bounded exponential-backoff retry for transient serving failures
/// (overload backpressure and degraded-shard fast-fails). Attached to a
/// submission via [`QueryOptions::retry`]; interpreted by the serving
/// layer's blocking client calls, never by the admission loop itself —
/// each retry is a fresh submission.
///
/// The `n`-th retry (1-based) sleeps `base_backoff * 2^(n-1)` first, so
/// `RetryPolicy::retries(3)` with the default 1 ms base waits 1 ms, 2 ms,
/// then 4 ms. The default policy performs no retries, reproducing the
/// fail-fast semantics existing callers rely on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of *re*-submissions after the initial attempt; `0`
    /// (the default) disables retrying entirely.
    pub max_retries: u32,
    /// Sleep before the first retry; doubles on each subsequent one.
    pub base_backoff: std::time::Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 0,
            base_backoff: std::time::Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    /// Policy retrying up to `max_retries` times with the default 1 ms
    /// base backoff.
    pub fn retries(max_retries: u32) -> Self {
        Self {
            max_retries,
            ..Self::default()
        }
    }

    /// Sets the sleep before the first retry (doubles each retry after).
    pub fn base_backoff(mut self, base_backoff: std::time::Duration) -> Self {
        self.base_backoff = base_backoff;
        self
    }

    /// The sleep before 1-based retry `attempt`, saturating instead of
    /// overflowing for absurd attempt counts.
    pub fn backoff_before(&self, attempt: u32) -> std::time::Duration {
        let factor = 1u32.checked_shl(attempt.saturating_sub(1)).unwrap_or(0);
        if factor == 0 {
            // 2^(attempt-1) overflowed u32: saturate to the largest
            // representable doubling rather than wrapping to zero sleep.
            self.base_backoff.saturating_mul(u32::MAX)
        } else {
            self.base_backoff.saturating_mul(factor)
        }
    }
}

/// Per-submission options for the serving layer: deadline, scheduling
/// [`Priority`], [`Consistency`] mode, and transient-failure
/// [`RetryPolicy`]. The default value reproduces today's semantics exactly
/// (no deadline, `Normal` priority, read-your-writes, no retries), so
/// existing call sites that never mention options are unaffected — and the
/// primitive query structs stay untouched.
///
/// Built fluently:
///
/// ```
/// use higgs_common::{Consistency, Priority, QueryOptions};
/// use std::time::Duration;
///
/// let opts = QueryOptions::new()
///     .deadline(Duration::from_millis(5))
///     .priority(Priority::Interactive)
///     .consistency(Consistency::Relaxed);
/// assert_eq!(opts.priority, Priority::Interactive);
/// assert_eq!(QueryOptions::default().consistency, Consistency::ReadYourWrites);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryOptions {
    /// Maximum time the submission may wait before evaluation starts,
    /// measured from the moment of submission. A submission that is still
    /// queued when its deadline elapses completes with a typed
    /// deadline-exceeded error instead of a result. `None` (the default)
    /// never expires.
    pub deadline: Option<std::time::Duration>,
    /// Scheduling class within an admission tick.
    pub priority: Priority,
    /// Visibility guarantee relative to the submitter's own writes.
    pub consistency: Consistency,
    /// Bounded exponential-backoff retry for transient failures
    /// (overload, degraded shard). Only the serving layer's *blocking*
    /// client calls honour it; ticket-based submission returns the first
    /// attempt's outcome. Default: no retries.
    pub retry: RetryPolicy,
}

impl QueryOptions {
    /// Options reproducing today's semantics (alias for `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience preset for latency-sensitive traffic: `Interactive`
    /// priority with relaxed consistency, so the query neither queues
    /// behind bulk work nor waits for ingest flushes.
    pub fn interactive() -> Self {
        Self::new()
            .priority(Priority::Interactive)
            .consistency(Consistency::Relaxed)
    }

    /// Convenience preset for throughput-oriented traffic: `Bulk` priority
    /// with the default read-your-writes visibility.
    pub fn bulk() -> Self {
        Self::new().priority(Priority::Bulk)
    }

    /// Sets the submission deadline (measured from submission time).
    pub fn deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the scheduling class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the visibility guarantee.
    pub fn consistency(mut self, consistency: Consistency) -> Self {
        self.consistency = consistency;
        self
    }

    /// Sets the transient-failure retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Tiny exact reference implementation used to test the default methods.
    #[derive(Default)]
    struct Toy {
        edges: Vec<StreamEdge>,
    }

    impl TemporalGraphSummary for Toy {
        fn insert(&mut self, edge: &StreamEdge) {
            self.edges.push(*edge);
        }
        fn delete(&mut self, edge: &StreamEdge) {
            if let Some(pos) = self.edges.iter().position(|e| e == edge) {
                self.edges.remove(pos);
            }
        }
        fn edge_query(&self, src: VertexId, dst: VertexId, range: TimeRange) -> Weight {
            self.edges
                .iter()
                .filter(|e| e.src == src && e.dst == dst && range.contains(e.timestamp))
                .map(|e| e.weight)
                .sum()
        }
        fn vertex_query(
            &self,
            vertex: VertexId,
            direction: VertexDirection,
            range: TimeRange,
        ) -> Weight {
            self.edges
                .iter()
                .filter(|e| match direction {
                    VertexDirection::Out => e.src == vertex,
                    VertexDirection::In => e.dst == vertex,
                })
                .filter(|e| range.contains(e.timestamp))
                .map(|e| e.weight)
                .sum()
        }
        fn space_bytes(&self) -> usize {
            self.edges.len() * std::mem::size_of::<StreamEdge>()
        }
        fn name(&self) -> &'static str {
            "Toy"
        }
    }

    fn example_fig5() -> Toy {
        // The stream of Fig. 5 / Example 1.
        let mut t = Toy::default();
        let edges = [
            (1, 2, 1, 1),
            (4, 5, 1, 2),
            (2, 3, 1, 3),
            (1, 4, 2, 4),
            (4, 6, 3, 5),
            (2, 3, 1, 6),
            (3, 7, 2, 7),
            (4, 7, 2, 8),
            (2, 3, 2, 9),
            (5, 6, 1, 10),
            (6, 7, 1, 11),
        ];
        for (s, d, w, ts) in edges {
            t.insert(&StreamEdge::new(s, d, w, ts));
        }
        t
    }

    #[test]
    fn example_1_edge_query() {
        let t = example_fig5();
        // Edge v2→v3 from t5 to t10 has weight 3 (t6 and t9).
        assert_eq!(t.edge_query(2, 3, TimeRange::new(5, 10)), 3);
        assert_eq!(t.query(&Query::edge(2, 3, TimeRange::new(5, 10))), 3);
    }

    #[test]
    fn example_1_vertex_query() {
        let t = example_fig5();
        // v4's outgoing edges from t1 to t11 total 6... the paper counts
        // (4,5,t2,1), (4,6,t5,3), (4,7,t8,2).
        assert_eq!(
            t.vertex_query(4, VertexDirection::Out, TimeRange::new(1, 11)),
            6
        );
        assert_eq!(
            t.query(&Query::vertex(
                4,
                VertexDirection::Out,
                TimeRange::new(1, 11)
            )),
            6
        );
    }

    #[test]
    fn example_1_subgraph_query() {
        let t = example_fig5();
        let q = SubgraphQuery::new(vec![(2, 3), (3, 7), (2, 4)], TimeRange::new(4, 8));
        assert_eq!(t.subgraph_query(&q), 3);
        assert_eq!(t.query(&Query::Subgraph(q)), 3);
    }

    #[test]
    fn path_query_sums_hops() {
        let t = example_fig5();
        let q = PathQuery::new(vec![1, 2, 3, 7], TimeRange::new(1, 11));
        // (1→2)=1, (2→3)=4, (3→7)=2
        assert_eq!(t.path_query(&q), 7);
        assert_eq!(q.hops(), 3);
        assert_eq!(t.query(&Query::Path(q)), 7);
    }

    #[test]
    fn insert_all_and_delete() {
        let mut t = Toy::default();
        let edges: Vec<StreamEdge> = (0..5).map(|i| StreamEdge::new(1, 2, 1, i)).collect();
        t.insert_all(&edges);
        assert_eq!(t.edge_query(1, 2, TimeRange::all()), 5);
        t.delete(&edges[0]);
        assert_eq!(t.edge_query(1, 2, TimeRange::all()), 4);
    }

    #[test]
    fn in_and_out_directions_differ() {
        let t = example_fig5();
        let r = TimeRange::all();
        let out = t.vertex_query(3, VertexDirection::Out, r);
        let inn = t.vertex_query(3, VertexDirection::In, r);
        assert_eq!(out, 2); // 3→7 at t7
        assert_eq!(inn, 4); // three arrivals of 2→3
        let _sanity: HashMap<&str, Weight> = HashMap::from([("out", out), ("in", inn)]);
    }

    #[test]
    fn workload_len() {
        let mut w = QueryWorkload::default();
        assert!(w.is_empty());
        w.edge_queries.push(EdgeQuery::new(1, 2, TimeRange::all()));
        w.vertex_queries
            .push(VertexQuery::new(1, VertexDirection::Out, TimeRange::all()));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn query_accessors() {
        let r = TimeRange::new(3, 9);
        let queries = [
            Query::edge(1, 2, r),
            Query::vertex(1, VertexDirection::In, r),
            Query::path(vec![1, 2, 3, 4], r),
            Query::subgraph(vec![(1, 2), (2, 3)], r),
        ];
        assert!(queries.iter().all(|q| q.range() == r));
        assert_eq!(
            queries
                .iter()
                .map(Query::primitive_count)
                .collect::<Vec<_>>(),
            vec![1, 1, 3, 2]
        );
        assert_eq!(
            queries.iter().map(Query::kind_label).collect::<Vec<_>>(),
            vec!["edge", "vertex", "path", "subgraph"]
        );
    }

    #[test]
    fn query_from_primitive_structs() {
        let r = TimeRange::new(0, 5);
        assert_eq!(Query::from(EdgeQuery::new(1, 2, r)), Query::edge(1, 2, r));
        assert_eq!(
            Query::from(VertexQuery::new(7, VertexDirection::Out, r)),
            Query::vertex(7, VertexDirection::Out, r)
        );
        assert_eq!(
            Query::from(PathQuery::new(vec![1, 2], r)),
            Query::path(vec![1, 2], r)
        );
        assert_eq!(
            Query::from(SubgraphQuery::new(vec![(1, 2)], r)),
            Query::subgraph(vec![(1, 2)], r)
        );
    }

    #[test]
    fn group_by_range_preserves_first_appearance_order_and_indices() {
        let a = TimeRange::new(0, 10);
        let b = TimeRange::new(5, 15);
        let queries = vec![
            Query::edge(1, 2, b),
            Query::vertex(3, VertexDirection::Out, a),
            Query::path(vec![1, 2, 3], b),
            Query::subgraph(vec![(1, 2)], a),
            Query::edge(4, 5, b),
        ];
        let groups = group_by_range(&queries);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], (b, vec![0, 2, 4]));
        assert_eq!(groups[1], (a, vec![1, 3]));
        // Every query index appears exactly once across all groups.
        let mut seen: Vec<u32> = groups.iter().flat_map(|(_, m)| m.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..queries.len() as u32).collect::<Vec<_>>());
        assert!(group_by_range(&[]).is_empty());
    }

    #[test]
    fn group_by_range_hashing_fallback_matches_linear_semantics() {
        // Far more distinct ranges than LINEAR_GROUPING_LIMIT, with repeats
        // landing on both sides of the linear→hashing switch: grouping must
        // stay first-appearance-ordered and complete.
        let queries: Vec<Query> = (0..500u64)
            .map(|i| Query::edge(i, i + 1, TimeRange::new(i % 100, i % 100 + 10)))
            .collect();
        let groups = group_by_range(&queries);
        assert_eq!(groups.len(), 100);
        for (g, (range, members)) in groups.iter().enumerate() {
            assert_eq!(*range, TimeRange::new(g as u64, g as u64 + 10));
            assert_eq!(
                members,
                &(0..5).map(|k| (g + 100 * k) as u32).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn batch_push_len_and_distinct_ranges() {
        let mut batch = QueryBatch::new();
        assert!(batch.is_empty());
        let a = TimeRange::new(0, 10);
        let b = TimeRange::new(5, 15);
        batch.push(EdgeQuery::new(1, 2, a));
        batch.push(Query::vertex(3, VertexDirection::Out, a));
        batch.push(Query::path(vec![1, 2, 3], b));
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.distinct_ranges(), 2);
        assert_eq!(batch.queries().len(), 3);
        assert_eq!(batch.iter().count(), 3);
        assert_eq!((&batch).into_iter().count(), 3);
        assert_eq!(batch.clone().into_iter().count(), 3);
    }

    #[test]
    fn default_query_batch_matches_per_query_loop() {
        let t = example_fig5();
        let batch: QueryBatch = [
            Query::edge(2, 3, TimeRange::new(5, 10)),
            Query::vertex(4, VertexDirection::Out, TimeRange::new(1, 11)),
            Query::path(vec![1, 2, 3, 7], TimeRange::new(1, 11)),
            Query::subgraph(vec![(2, 3), (3, 7), (2, 4)], TimeRange::new(4, 8)),
        ]
        .into_iter()
        .collect();
        let batched = t.query_batch(batch.queries());
        let looped: Vec<Weight> = batch.iter().map(|q| t.query(q)).collect();
        assert_eq!(batched, looped);
        assert_eq!(batched, vec![3, 6, 7, 3]);
    }

    #[test]
    fn shard_parts_follow_source_routing_rules() {
        let r = TimeRange::new(0, 9);
        assert_eq!(
            Query::edge(1, 2, r).shard_parts(),
            vec![(ShardRoute::Vertex(1), Query::edge(1, 2, r))]
        );
        assert_eq!(
            Query::vertex(5, VertexDirection::Out, r).shard_parts(),
            vec![(
                ShardRoute::Vertex(5),
                Query::vertex(5, VertexDirection::Out, r)
            )]
        );
        assert_eq!(
            Query::vertex(5, VertexDirection::In, r).shard_parts(),
            vec![(
                ShardRoute::AllShards,
                Query::vertex(5, VertexDirection::In, r)
            )]
        );
        assert_eq!(
            Query::path(vec![1, 2, 3], r).shard_parts(),
            vec![
                (ShardRoute::Vertex(1), Query::edge(1, 2, r)),
                (ShardRoute::Vertex(2), Query::edge(2, 3, r)),
            ]
        );
        assert_eq!(
            Query::subgraph(vec![(7, 8), (9, 7)], r).shard_parts(),
            vec![
                (ShardRoute::Vertex(7), Query::edge(7, 8, r)),
                (ShardRoute::Vertex(9), Query::edge(9, 7, r)),
            ]
        );
        // Degenerate composites decompose into zero parts (their result is
        // the empty sum, matching the unsharded definition).
        assert!(Query::path(vec![1], r).shard_parts().is_empty());
        assert!(Query::subgraph(vec![], r).shard_parts().is_empty());
    }

    #[test]
    fn shard_plan_gather_matches_unsharded_evaluation() {
        // Evaluate a mixed batch on one exact store, and on per-shard exact
        // stores fed only their share of the stream; the routed + gathered
        // results must be identical.
        let t = example_fig5();
        let num_shards = 3;
        let mut shards: Vec<Toy> = (0..num_shards).map(|_| Toy::default()).collect();
        for e in &t.edges {
            shards[crate::hashing::shard_of(e.src, num_shards)].insert(e);
        }
        let batch: QueryBatch = [
            Query::edge(2, 3, TimeRange::new(5, 10)),
            Query::vertex(4, VertexDirection::Out, TimeRange::new(1, 11)),
            Query::vertex(7, VertexDirection::In, TimeRange::new(1, 11)),
            Query::path(vec![1, 2, 3, 7], TimeRange::new(1, 11)),
            Query::subgraph(vec![(2, 3), (3, 7), (2, 4)], TimeRange::new(4, 8)),
        ]
        .into_iter()
        .collect();
        let plan = batch.shard_plan(num_shards);
        assert_eq!(plan.num_shards(), num_shards);
        assert_eq!(plan.len(), batch.len());
        assert!(!plan.is_empty());
        let per_shard: Vec<Vec<Weight>> = (0..num_shards)
            .map(|s| shards[s].query_batch(plan.sub_batch(s)))
            .collect();
        let gathered = plan.gather(&per_shard);
        let direct = t.query_batch(batch.queries());
        assert_eq!(gathered, direct);
        assert_eq!(gathered, vec![3, 6, 5, 7, 3]);
    }

    #[test]
    fn shard_plan_single_shard_routes_everything_to_shard_zero() {
        let r = TimeRange::all();
        let queries = vec![
            Query::edge(1, 2, r),
            Query::vertex(3, VertexDirection::In, r),
            Query::path(vec![4, 5, 6], r),
        ];
        let plan = ShardPlan::build(&queries, 1);
        // 1 edge part + 1 broadcast part + 2 path hops.
        assert_eq!(plan.sub_batch(0).len(), 4);
        let toy = example_fig5();
        let results = vec![toy.query_batch(plan.sub_batch(0))];
        assert_eq!(plan.gather(&results), toy.query_batch(&queries));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn shard_plan_rejects_zero_shards() {
        let _ = ShardPlan::build(&[Query::edge(1, 2, TimeRange::all())], 0);
    }

    #[test]
    fn workload_iter_yields_every_query_as_typed() {
        let mut w = QueryWorkload::default();
        w.edge_queries.push(EdgeQuery::new(1, 2, TimeRange::all()));
        w.vertex_queries
            .push(VertexQuery::new(3, VertexDirection::In, TimeRange::all()));
        w.path_queries
            .push(PathQuery::new(vec![1, 2, 3], TimeRange::all()));
        w.subgraph_queries
            .push(SubgraphQuery::new(vec![(4, 5)], TimeRange::all()));
        let batch = w.to_batch();
        assert_eq!(batch.len(), w.len());
        assert_eq!(
            w.iter().map(|q| q.kind_label()).collect::<Vec<_>>(),
            vec!["edge", "vertex", "path", "subgraph"]
        );
    }

    #[test]
    fn query_options_default_matches_todays_semantics() {
        let opts = QueryOptions::default();
        assert_eq!(opts.deadline, None);
        assert_eq!(opts.priority, Priority::Normal);
        assert_eq!(opts.consistency, Consistency::ReadYourWrites);
        assert_eq!(opts.retry.max_retries, 0, "default must never retry");
        assert_eq!(opts, QueryOptions::new());
    }

    #[test]
    fn query_options_builder_sets_every_field() {
        let opts = QueryOptions::new()
            .deadline(std::time::Duration::from_millis(7))
            .priority(Priority::Bulk)
            .consistency(Consistency::Relaxed)
            .retry(RetryPolicy::retries(3));
        assert_eq!(opts.deadline, Some(std::time::Duration::from_millis(7)));
        assert_eq!(opts.priority, Priority::Bulk);
        assert_eq!(opts.consistency, Consistency::Relaxed);
        assert_eq!(opts.retry, RetryPolicy::retries(3));
    }

    #[test]
    fn retry_backoff_doubles_and_saturates() {
        let policy = RetryPolicy::retries(4).base_backoff(std::time::Duration::from_millis(2));
        assert_eq!(
            policy.backoff_before(1),
            std::time::Duration::from_millis(2)
        );
        assert_eq!(
            policy.backoff_before(2),
            std::time::Duration::from_millis(4)
        );
        assert_eq!(
            policy.backoff_before(3),
            std::time::Duration::from_millis(8)
        );
        // Way past any sane retry count: saturate, never wrap to a zero
        // sleep (which would turn backoff into a busy loop).
        assert!(policy.backoff_before(200) >= policy.backoff_before(3));
    }

    #[test]
    fn query_options_presets_pick_sensible_classes() {
        let fast = QueryOptions::interactive();
        assert_eq!(fast.priority, Priority::Interactive);
        assert_eq!(fast.consistency, Consistency::Relaxed);
        let slow = QueryOptions::bulk();
        assert_eq!(slow.priority, Priority::Bulk);
        assert_eq!(slow.consistency, Consistency::ReadYourWrites);
    }

    #[test]
    fn priority_order_ranks_interactive_ahead_of_bulk() {
        // The admission loop relies on the derived `Ord` for class order.
        assert!(Priority::Interactive < Priority::Normal);
        assert!(Priority::Normal < Priority::Bulk);
    }
}
