//! The HIGGS hierarchical summary: an aggregated B-tree of compressed
//! matrices built bottom-up in stream order (Section IV-A/IV-B, Algorithm 1).
//!
//! Leaves are created append-only as the current leaf fills up; every time a
//! group of θ nodes at some layer completes, their matrices are aggregated
//! into a parent node one layer up (Algorithm 2). Aggregation runs inline by
//! default — the mode every service shard uses — and builds each node from
//! its θ children, which inline insertion always materialises first. It can
//! instead be deferred to background workers (see
//! [`ParallelHiggs`](crate::ParallelHiggs)), whose jobs rebuild a node from
//! the leaves it covers; queries fall back to a node's children whenever its
//! aggregate has not materialised yet, so results are identical either way.
//!
//! Only the open (last) leaf and its overflow chain accept inserts, so only
//! they stay writable. A leaf's matrix and overflow blocks are sealed into
//! their compact occupied-only form (see [`matrix`](crate::matrix)) the
//! moment the leaf closes, and every aggregate is built straight into that
//! form (see [`aggregate`](crate::aggregate)). A restored summary holds the
//! same forms.
//!
//! Closing a leaf copies its occupied slots into its sealed columns and
//! hands the writable slab, with only the used slots, the counts and the
//! identity index cleared, to the next open leaf. So a build allocates one
//! leaf slab per summary, not one per leaf; overflow blocks, rare, are
//! still allocated and sealed one by one.

use crate::aggregate::aggregate;
use crate::config::{ConfigError, HiggsConfig};
use crate::matrix::CompressedMatrix;
use crate::node::{InternalNode, LeafNode};
use crate::overflow::OverflowChain;
use crate::plan_cache::PlanCache;
use higgs_common::hashing::FingerprintLayout;
use higgs_common::{StreamEdge, TimeRange, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering};

/// A deferred aggregation job: internal level (0 = the layer right above the
/// leaves) and node index within that level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingAggregation {
    /// Index into the internal-levels vector (level 0 is tree layer 2).
    pub level: usize,
    /// Node index within the level.
    pub index: usize,
}

/// The HIGGS summary structure.
#[derive(Clone, Debug)]
pub struct HiggsSummary {
    pub(crate) config: HiggsConfig,
    pub(crate) layout: FingerprintLayout,
    pub(crate) leaves: Vec<LeafNode>,
    /// `internals[l]` holds the complete nodes of tree layer `l + 2`.
    pub(crate) internals: Vec<Vec<InternalNode>>,
    pub(crate) total_items: u64,
    pub(crate) defer_aggregation: bool,
    pub(crate) pending: Vec<PendingAggregation>,
    /// Number of query plans built so far (Algorithm-3 boundary searches).
    /// Interior-mutable so `&self` queries can count; used by tests and
    /// diagnostics to assert plan sharing in the batch executor. Plans served
    /// from the [`PlanCache`] do not count — only actual boundary searches.
    pub(crate) plans_built: PlanCounter,
    /// Monotonically increasing mutation counter: bumped by every insert,
    /// delete, and aggregate materialisation. Cached query plans record the
    /// epoch they were built at and are invalidated on mismatch (see
    /// [`plan_cache`](crate::plan_cache)).
    pub(crate) epoch: u64,
    /// Cross-batch query-plan cache consulted by the typed query surface.
    pub(crate) plan_cache: PlanCache,
}

/// Relaxed atomic plan counter: interior-mutable through `&self` without
/// costing the summary its `Sync` auto trait (read-only queries must remain
/// shareable across serving threads). Cloning snapshots the current value.
#[derive(Debug, Default)]
pub(crate) struct PlanCounter(AtomicU64);

impl Clone for PlanCounter {
    fn clone(&self) -> Self {
        Self(AtomicU64::new(self.get()))
    }
}

impl PlanCounter {
    pub(crate) fn increment(&self) {
        // ORDERING: Relaxed throughout this impl — a monotone diagnostic
        // counter (plan-build tallies for tests and stats); no other data is
        // published through it, so only the count itself matters.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> u64 {
        // ORDERING: Relaxed — see `increment`.
        self.0.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        // ORDERING: Relaxed — see `increment`.
        self.0.store(0, Ordering::Relaxed);
    }
}

impl HiggsSummary {
    /// Creates an empty summary with inline (synchronous) aggregation.
    ///
    /// Panics on an invalid configuration; use [`Self::try_new`] (or
    /// [`HiggsConfig::builder`]) for fallible construction.
    pub fn new(config: HiggsConfig) -> Self {
        Self::try_new(config).expect("invalid HiggsConfig")
    }

    /// Creates an empty summary with inline (synchronous) aggregation,
    /// returning the violated constraint instead of panicking when the
    /// configuration is invalid.
    pub fn try_new(config: HiggsConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let plan_cache = PlanCache::new(config.plan_cache_capacity);
        Ok(Self {
            layout: config.layout(),
            config,
            leaves: Vec::new(),
            internals: Vec::new(),
            total_items: 0,
            defer_aggregation: false,
            pending: Vec::new(),
            plans_built: PlanCounter::default(),
            epoch: 0,
            plan_cache,
        })
    }

    /// Creates an empty summary whose aggregations are deferred: completed
    /// groups are recorded in [`take_pending_aggregations`](Self::take_pending_aggregations)
    /// instead of being aggregated inline. Used by the parallel pipeline.
    pub fn with_deferred_aggregation(config: HiggsConfig) -> Self {
        let mut s = Self::new(config);
        s.defer_aggregation = true;
        s
    }

    /// Rebuilds a summary from persisted state (snapshot restore, see
    /// [`snapshot`](crate::snapshot)): the validated configuration plus the
    /// exact tree structure, stream counters, and mutation epoch the snapshot
    /// recorded. The decoded matrices arrive sealed; the open leaf and its
    /// overflow chain are turned writable again. Runtime-only state — the
    /// plan cache and the plan counter — starts fresh; the restored epoch
    /// keeps monotonically increasing from the persisted value, so any plan
    /// cached before the snapshot could never be confused with a
    /// post-restore one anyway.
    pub(crate) fn from_restored_parts(
        config: HiggsConfig,
        mut leaves: Vec<LeafNode>,
        internals: Vec<Vec<InternalNode>>,
        total_items: u64,
        defer_aggregation: bool,
        pending: Vec<PendingAggregation>,
        epoch: u64,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let plan_cache = PlanCache::new(config.plan_cache_capacity);
        if let Some(open) = leaves.last_mut() {
            open.unseal();
        }
        Ok(Self {
            layout: config.layout(),
            config,
            leaves,
            internals,
            total_items,
            defer_aggregation,
            pending,
            plans_built: PlanCounter::default(),
            epoch,
            plan_cache,
        })
    }

    /// Whether this summary records completed groups as pending jobs instead
    /// of aggregating inline (see
    /// [`with_deferred_aggregation`](Self::with_deferred_aggregation)).
    pub fn defers_aggregation(&self) -> bool {
        self.defer_aggregation
    }

    /// Number of query plans built over the summary's lifetime (each is one
    /// Algorithm-3 boundary search). The plan-sharing batch executor builds
    /// at most one plan per distinct [`TimeRange`] in a batch — and, through
    /// the cross-batch [`plan_cache`](crate::plan_cache), **zero** for ranges
    /// whose cached plan is still fresh. This hook lets tests and monitoring
    /// assert both properties.
    pub fn plans_built(&self) -> u64 {
        self.plans_built.get()
    }

    /// Resets the plan counter to zero (diagnostic hook).
    pub fn reset_plan_count(&self) {
        self.plans_built.reset();
    }

    /// The summary's mutation epoch: a monotonically increasing counter
    /// bumped by every insert, delete, and aggregate materialisation. Cached
    /// query plans are validated against it (see
    /// [`cached_plan`](Self::cached_plan)).
    pub fn mutation_epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of typed-surface plan lookups served from the cross-batch plan
    /// cache over the summary's lifetime.
    pub fn plan_cache_hits(&self) -> u64 {
        self.plan_cache.hits()
    }

    /// Number of plans currently held by the cross-batch plan cache.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.len()
    }

    /// Drops every cached plan (diagnostic hook; epoch validation already
    /// prevents stale plans from being served).
    pub fn clear_plan_cache(&self) {
        self.plan_cache.clear();
    }

    /// Records one mutation: bumps the epoch so cached plans built against
    /// the previous state can no longer be served.
    fn bump_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// The configuration this summary was built with.
    pub fn config(&self) -> &HiggsConfig {
        &self.config
    }

    /// The fingerprint/address layout shared by all layers.
    pub fn layout(&self) -> &FingerprintLayout {
        &self.layout
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Number of tree layers (leaf layer included). An empty summary has
    /// height 0.
    pub fn height(&self) -> usize {
        if self.leaves.is_empty() {
            0
        } else {
            1 + self.internals.len()
        }
    }

    /// Total number of stream items inserted (minus deletions).
    pub fn total_items(&self) -> u64 {
        self.total_items
    }

    /// The full time span covered by the summary, if any edge was inserted.
    pub fn time_span(&self) -> Option<TimeRange> {
        let first = self.leaves.first()?;
        let last = self.leaves.last()?;
        Some(TimeRange::new(first.start_time, last.end_time))
    }

    /// Sum of matrix utilisation over all leaves (diagnostic, Section V-A).
    pub fn average_leaf_utilization(&self) -> f64 {
        if self.leaves.is_empty() {
            return 0.0;
        }
        self.leaves
            .iter()
            .map(|l| l.matrix.utilization())
            .sum::<f64>()
            / self.leaves.len() as f64
    }

    /// An open leaf starting at `start_time` around `matrix`, an empty
    /// writable leaf matrix (fresh, or recycled from the leaf that closed).
    fn new_leaf(&self, matrix: CompressedMatrix, start_time: Timestamp) -> LeafNode {
        LeafNode::new(
            matrix,
            // Overflow blocks keep the leaf side so their base addresses lift
            // exactly like leaf entries during aggregation, but hold a single
            // entry per bucket to stay small.
            OverflowChain::new(self.config.d1, 1, self.config.mapping_addresses),
            start_time,
        )
    }

    /// Inserts one stream item (Algorithm 1).
    pub fn insert_edge(&mut self, edge: &StreamEdge) {
        self.bump_epoch();
        let hs = self.layout.split_vertex(edge.src, 1);
        let hd = self.layout.split_vertex(edge.dst, 1);
        let (fs, fd) = (hs.fingerprint as u32, hd.fingerprint as u32);
        let weight = edge.weight as i64;

        if self.leaves.is_empty() {
            let matrix = CompressedMatrix::new(
                self.config.d1,
                1,
                self.config.bucket_entries,
                self.config.mapping_addresses,
            );
            self.leaves.push(self.new_leaf(matrix, edge.timestamp));
        }
        let leaf = self.leaves.last_mut().expect("at least one leaf exists");
        // Streams are time-ordered; guard against minor reordering by
        // clamping to the leaf's start so offsets stay non-negative.
        let t = edge.timestamp.max(leaf.start_time);
        let offset = leaf.offset_of(t);
        if leaf
            .matrix
            .try_insert(hs.address, hd.address, fs, fd, Some(offset), weight)
        {
            leaf.end_time = leaf.end_time.max(t);
            leaf.items += 1;
            self.total_items += 1;
            return;
        }

        // Insertion failed: either chain an overflow block (same timestamp as
        // the previous edge — a new leaf key would be ambiguous) or open a
        // new leaf and propagate the timestamp upward.
        if self.config.overflow_blocks && t == leaf.end_time {
            leaf.overflow
                .insert(hs.address, hd.address, fs, fd, offset, weight);
            leaf.items += 1;
            self.total_items += 1;
            return;
        }

        let slab = leaf.close();
        self.leaves.push(self.new_leaf(slab, t));
        let leaf = self.leaves.last_mut().expect("just pushed");
        let inserted = leaf
            .matrix
            .try_insert(hs.address, hd.address, fs, fd, Some(0), weight);
        debug_assert!(inserted, "insertion into an empty leaf matrix cannot fail");
        leaf.end_time = t;
        leaf.items = 1;
        self.total_items += 1;
        self.on_leaf_closed();
    }

    /// Called after a leaf closes (a new leaf was appended): creates every
    /// internal node whose child group has just completed (the upward
    /// propagation loop of Algorithm 1, lines 7–12).
    fn on_leaf_closed(&mut self) {
        let theta = self.config.theta();
        let mut level = 0usize;
        loop {
            let children_closed = if level == 0 {
                // All leaves except the freshly opened one are closed.
                self.leaves.len() - 1
            } else {
                self.internals[level - 1].len()
            };
            if children_closed == 0 || children_closed % theta != 0 {
                break;
            }
            let group_idx = children_closed / theta - 1;
            if self.internals.len() <= level {
                self.internals.push(Vec::new());
            }
            // Nodes are created exactly when their child group completes, and
            // group completions are strictly ordered by the append-only leaf
            // stream, so the node for `group_idx` cannot exist yet.
            debug_assert!(
                self.internals[level].len() <= group_idx,
                "internal node (level {level}, group {group_idx}) created twice"
            );
            self.create_internal(level, group_idx);
            level += 1;
        }
    }

    /// Creates the internal node at `(level, group_idx)`; aggregates inline
    /// unless aggregation is deferred.
    fn create_internal(&mut self, level: usize, group_idx: usize) {
        let (first_leaf, last_leaf) = self.leaf_span(level, group_idx);
        let start_time = self.leaves[first_leaf].start_time;
        let end_time = self.leaves[last_leaf].end_time;
        let matrix = if self.defer_aggregation {
            self.pending.push(PendingAggregation {
                level,
                index: group_idx,
            });
            None
        } else {
            Some(self.compute_aggregation(level, group_idx))
        };
        debug_assert_eq!(self.internals[level].len(), group_idx);
        self.internals[level].push(InternalNode {
            matrix,
            start_time,
            end_time,
        });
    }

    /// Leaf index range `[first, last]` covered by internal node
    /// `(level, group_idx)`.
    pub(crate) fn leaf_span(&self, level: usize, group_idx: usize) -> (usize, usize) {
        let theta = self.config.theta();
        let span = theta.pow(level as u32 + 1);
        let first = group_idx * span;
        let last = ((group_idx + 1) * span - 1).min(self.leaves.len().saturating_sub(1));
        (first, last)
    }

    /// Computes the aggregated matrix of internal node `(level, group_idx)`
    /// bottom-up from its θ children (Algorithm 2): the child aggregates one
    /// level down, or for level 0 the leaf matrices and overflow blocks, so
    /// every stored entry is lifted once. The result is sealed.
    ///
    /// Falls back to lifting the covered leaves through every layer when a
    /// child aggregate has not materialised yet (deferred aggregation, or a
    /// restored snapshot with pending nodes). Both routes yield the same
    /// entries.
    pub fn compute_aggregation(&self, level: usize, group_idx: usize) -> CompressedMatrix {
        let (sources, from_layer) = self.aggregation_sources(level, group_idx);
        aggregate(
            &self.layout,
            &self.config,
            &sources,
            from_layer,
            level as u32 + 2,
        )
    }

    /// The matrices [`compute_aggregation`](Self::compute_aggregation)
    /// lifts for node `(level, group_idx)`, and the tree layer they sit at:
    /// its θ child aggregates when they have all materialised, else the
    /// leaf matrices and overflow blocks it covers.
    pub(crate) fn aggregation_sources(
        &self,
        level: usize,
        group_idx: usize,
    ) -> (Vec<&CompressedMatrix>, u32) {
        if level > 0 {
            let theta = self.config.theta();
            let children: Option<Vec<&CompressedMatrix>> = self.internals[level - 1]
                .get(group_idx * theta..(group_idx + 1) * theta)
                .and_then(|nodes| nodes.iter().map(|n| n.matrix.as_ref()).collect());
            if let Some(children) = children {
                return (children, level as u32 + 1);
            }
        }
        let (first, last) = self.leaf_span(level, group_idx);
        let mut sources: Vec<&CompressedMatrix> = Vec::new();
        for leaf in &self.leaves[first..=last] {
            sources.push(&leaf.matrix);
            sources.extend(leaf.overflow.blocks());
        }
        (sources, 1)
    }

    /// Drains the list of deferred aggregation jobs (deferred mode only).
    pub fn take_pending_aggregations(&mut self) -> Vec<PendingAggregation> {
        std::mem::take(&mut self.pending)
    }

    /// Installs an externally computed aggregate for node `(level, index)`,
    /// sealing it first if it is still writable. Every aggregate built in
    /// this crate ([`compute_aggregation`](Self::compute_aggregation),
    /// [`aggregate_matrices`](crate::aggregate::aggregate_matrices),
    /// [`aggregate_leaves_to_layer`](crate::aggregate::aggregate_leaves_to_layer))
    /// is born sealed, so for every in-tree caller the seal is a no-op; it
    /// only compacts a matrix a caller built writable itself.
    ///
    /// Bumps the mutation epoch: a fresh boundary search now targets the
    /// aggregate matrix where a plan built earlier descended to the leaves,
    /// so cached plans from before the installation must not be served.
    pub fn install_aggregation(
        &mut self,
        level: usize,
        index: usize,
        mut matrix: CompressedMatrix,
    ) {
        if let Some(node) = self
            .internals
            .get_mut(level)
            .and_then(|nodes| nodes.get_mut(index))
        {
            matrix.seal();
            node.matrix = Some(matrix);
            self.bump_epoch();
        }
    }

    /// Runs every outstanding deferred aggregation inline (used when a
    /// deferred-mode summary must become fully aggregated without worker
    /// threads).
    pub fn finalize_aggregations(&mut self) {
        let jobs = self.take_pending_aggregations();
        for job in jobs {
            let matrix = self.compute_aggregation(job.level, job.index);
            self.install_aggregation(job.level, job.index, matrix);
        }
    }

    /// Recomputes and installs the aggregate of every internal node whose
    /// matrix has not materialised, regardless of whether a pending job was
    /// recorded for it. Levels are visited bottom-up, so each node is built
    /// from its (by then materialised) children.
    ///
    /// This is the recovery path of
    /// [`ParallelHiggs::flush`](crate::ParallelHiggs::flush): if the worker
    /// pool disappears with results still in flight, the in-flight jobs can
    /// no longer be received, so the missing aggregates are rebuilt inline.
    pub fn materialize_missing_aggregations(&mut self) {
        let missing: Vec<(usize, usize)> = self
            .internals
            .iter()
            .enumerate()
            .flat_map(|(level, nodes)| {
                nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| n.matrix.is_none())
                    .map(move |(index, _)| (level, index))
            })
            .collect();
        for (level, index) in missing {
            let matrix = self.compute_aggregation(level, index);
            self.install_aggregation(level, index, matrix);
        }
        self.pending.clear();
    }

    /// Deletes (reverses) one previously inserted stream item: decrements the
    /// leaf entry covering the edge's timestamp and every aggregated ancestor
    /// covering that leaf.
    pub fn delete_edge(&mut self, edge: &StreamEdge) {
        self.bump_epoch();
        if self.leaves.is_empty() {
            return;
        }
        let hs1 = self.layout.split_vertex(edge.src, 1);
        let hd1 = self.layout.split_vertex(edge.dst, 1);
        let weight = edge.weight as i64;

        // Locate the leaf whose range contains the timestamp: last leaf whose
        // start_time <= t (ranges are non-decreasing in stream order).
        let t = edge.timestamp;
        let pos = self
            .leaves
            .partition_point(|l| l.start_time <= t)
            .saturating_sub(1);
        let mut deleted_leaf = None;
        for idx in [pos, pos.saturating_sub(1)] {
            let leaf = &mut self.leaves[idx];
            let filter = leaf.offset_filter(TimeRange::instant(t));
            let Some(filter) = filter else { continue };
            if leaf.matrix.try_delete(
                hs1.address,
                hd1.address,
                hs1.fingerprint as u32,
                hd1.fingerprint as u32,
                Some(filter),
                weight,
            ) || leaf.overflow.delete(
                hs1.address,
                hd1.address,
                hs1.fingerprint as u32,
                hd1.fingerprint as u32,
                Some(filter),
                weight,
            ) {
                deleted_leaf = Some(idx);
                break;
            }
        }
        let Some(leaf_idx) = deleted_leaf else { return };
        self.total_items = self.total_items.saturating_sub(1);

        // Decrement every aggregated ancestor that covers this leaf.
        let theta = self.config.theta();
        for level in 0..self.internals.len() {
            let span = theta.pow(level as u32 + 1);
            let node_idx = leaf_idx / span;
            if let Some(node) = self.internals[level].get_mut(node_idx) {
                if let Some(matrix) = node.matrix.as_mut() {
                    let layer = level as u32 + 2;
                    let hs = self.layout.split_vertex(edge.src, layer);
                    let hd = self.layout.split_vertex(edge.dst, layer);
                    matrix.try_delete(
                        hs.address,
                        hd.address,
                        hs.fingerprint as u32,
                        hd.fingerprint as u32,
                        None,
                        weight,
                    );
                }
            }
        }
    }

    /// Memory footprint in bytes: every allocation the tree's nodes hold —
    /// sealed matrices at their occupied size, the open leaf and its chain
    /// at their full writable size, spills included (see
    /// [`CompressedMatrix::space_bytes`]).
    pub fn space(&self) -> usize {
        let leaves: usize = self.leaves.iter().map(LeafNode::space_bytes).sum();
        let internals: usize = self
            .internals
            .iter()
            .flat_map(|lvl| lvl.iter())
            .map(InternalNode::space_bytes)
            .sum();
        leaves + internals + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::aggregate_leaves_to_layer;
    use crate::matrix::dense_starts;
    use higgs_common::{SummaryExt, TemporalGraphSummary, VertexDirection};

    fn tiny_config() -> HiggsConfig {
        // Small matrices so the tree grows quickly in tests.
        HiggsConfig {
            d1: 4,
            f1_bits: 12,
            r_bits: 1,
            bucket_entries: 2,
            mapping_addresses: 2,
            overflow_blocks: true,
            shards: 1,
            plan_cache_capacity: 8,
            ingest_queue_cap: None,
            pin_workers: false,
            admission_tick: std::time::Duration::ZERO,
            service_queue_depth: None,
            journal_mode: crate::config::JournalMode::Off,
        }
    }

    #[test]
    fn empty_summary_has_no_height() {
        let s = HiggsSummary::new(HiggsConfig::default());
        assert_eq!(s.height(), 0);
        assert_eq!(s.leaf_count(), 0);
        assert!(s.time_span().is_none());
        assert_eq!(s.total_items(), 0);
    }

    #[test]
    fn single_insert_creates_one_leaf() {
        let mut s = HiggsSummary::new(tiny_config());
        s.insert_edge(&StreamEdge::new(1, 2, 3, 100));
        assert_eq!(s.leaf_count(), 1);
        assert_eq!(s.height(), 1);
        assert_eq!(s.total_items(), 1);
        assert_eq!(s.time_span(), Some(TimeRange::new(100, 100)));
    }

    #[test]
    fn tree_grows_leaves_and_internal_layers() {
        let mut s = HiggsSummary::new(tiny_config());
        for i in 0..4_000u64 {
            s.insert_edge(&StreamEdge::new(i % 500, (i * 7) % 500, 1, i));
        }
        assert!(s.leaf_count() > 4, "expected multiple leaves");
        assert!(s.height() > 1, "expected internal layers");
        // Every complete group of θ leaves has an aggregated node.
        let theta = s.config().theta();
        assert_eq!(s.internals[0].len(), (s.leaf_count() - 1) / theta.max(1));
        assert!(s.internals[0].iter().all(|n| n.matrix.is_some()));
    }

    #[test]
    fn internal_levels_have_exact_node_counts_past_three_layers() {
        // Regression test for the upward-propagation loop of Algorithm 1:
        // grow the tree well past three layers and verify after every insert
        // that each internal level holds exactly one node per *complete*
        // group of θ^(level+1) closed leaves — i.e. the loop creates every
        // node exactly once and never stops early or double-creates (the
        // condition the `debug_assert!` in `on_leaf_closed` guards).
        let mut s = HiggsSummary::new(tiny_config());
        let theta = s.config().theta();
        for i in 0..30_000u64 {
            s.insert_edge(&StreamEdge::new(i % 700, (i * 13) % 700, 1, i));
            let closed = s.leaf_count() - 1;
            for (level, nodes) in s.internals.iter().enumerate() {
                let group = theta.pow(level as u32 + 1);
                assert_eq!(
                    nodes.len(),
                    closed / group,
                    "level {level} after {} leaves",
                    s.leaf_count()
                );
            }
        }
        assert!(
            s.height() > 4,
            "stream too small to exercise deep propagation: height {}",
            s.height()
        );
        // Every created node carries a materialised aggregate (inline mode).
        assert!(s.internals.iter().flatten().all(|n| n.matrix.is_some()));
    }

    #[test]
    fn leaf_time_ranges_are_ordered() {
        let mut s = HiggsSummary::new(tiny_config());
        for i in 0..2_000u64 {
            s.insert_edge(&StreamEdge::new(i % 100, (i + 1) % 100, 1, i / 2));
        }
        for w in s.leaves.windows(2) {
            assert!(w[0].start_time <= w[1].start_time);
            assert!(w[0].end_time <= w[1].end_time);
        }
    }

    #[test]
    fn overflow_blocks_absorb_same_timestamp_bursts() {
        let mut s = HiggsSummary::new(tiny_config());
        // Far more same-timestamp edges than one tiny leaf can hold.
        for i in 0..500u64 {
            s.insert_edge(&StreamEdge::new(i, i + 1000, 1, 42));
        }
        assert_eq!(
            s.leaf_count(),
            1,
            "same-timestamp burst must not open new leaves when OB is enabled"
        );
        assert!(!s.leaves[0].overflow.is_empty());
        assert_eq!(s.total_items(), 500);
    }

    #[test]
    fn without_overflow_blocks_bursts_open_new_leaves() {
        let mut s = HiggsSummary::new(tiny_config().without_overflow_blocks());
        for i in 0..500u64 {
            s.insert_edge(&StreamEdge::new(i, i + 1000, 1, 42));
        }
        assert!(s.leaf_count() > 1);
    }

    #[test]
    fn deferred_mode_records_pending_jobs_and_finalize_installs_them() {
        let mut s = HiggsSummary::with_deferred_aggregation(tiny_config());
        for i in 0..3_000u64 {
            s.insert_edge(&StreamEdge::new(i % 300, (i * 3) % 300, 1, i));
        }
        assert!(s.internals.iter().flatten().any(|n| n.matrix.is_none()));
        // Queries are still correct before aggregation materialises.
        let q = s.edge_query(10, 30, TimeRange::all());
        s.finalize_aggregations();
        assert!(s.internals.iter().flatten().all(|n| n.matrix.is_some()));
        assert_eq!(s.edge_query(10, 30, TimeRange::all()), q);
        assert!(s.take_pending_aggregations().is_empty());
    }

    #[test]
    fn delete_reverses_insert_everywhere() {
        let mut s = HiggsSummary::new(tiny_config());
        let edges: Vec<StreamEdge> = (0..2_000u64)
            .map(|i| StreamEdge::new(i % 200, (i * 11) % 200, 1, i))
            .collect();
        for e in &edges {
            s.insert_edge(e);
        }
        let before = s.edge_query(edges[7].src, edges[7].dst, TimeRange::all());
        s.delete_edge(&edges[7]);
        let after = s.edge_query(edges[7].src, edges[7].dst, TimeRange::all());
        assert_eq!(after, before - 1);
        assert_eq!(s.total_items(), edges.len() as u64 - 1);
    }

    #[test]
    fn utilization_and_space_are_reported() {
        let mut s = HiggsSummary::new(tiny_config());
        for i in 0..1_000u64 {
            s.insert_edge(&StreamEdge::new(i % 100, (i + 3) % 100, 1, i));
        }
        assert!(s.average_leaf_utilization() > 0.0);
        assert!(s.space() > 0);
        assert!(s.space_bytes() >= s.space() - 16);
    }

    #[test]
    fn trait_composition_path_query_works() {
        let mut s = HiggsSummary::new(tiny_config());
        s.insert_edge(&StreamEdge::new(1, 2, 5, 10));
        s.insert_edge(&StreamEdge::new(2, 3, 7, 11));
        let q = higgs_common::PathQuery::new(vec![1, 2, 3], TimeRange::new(0, 20));
        assert_eq!(s.path_query(&q), 12);
        assert_eq!(s.query(&higgs_common::Query::Path(q)), 12);
        assert_eq!(s.vertex_query(1, VertexDirection::Out, TimeRange::all()), 5);
    }

    #[test]
    fn summary_serves_concurrent_readonly_queries() {
        // The plan counter must not cost the summary its `Sync` auto trait:
        // a loaded summary is shared read-only across serving threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HiggsSummary>();

        let mut s = HiggsSummary::new(tiny_config());
        for i in 0..2_000u64 {
            s.insert_edge(&StreamEdge::new(i % 100, (i * 7) % 100, 1, i));
        }
        let shared = &s;
        let totals: Vec<u64> = std::thread::scope(|scope| {
            (0..4u64)
                .map(|t| {
                    scope.spawn(move || {
                        shared.edge_query(t, (t * 7) % 100, TimeRange::all())
                            + shared.vertex_query(t, VertexDirection::Out, TimeRange::new(0, 999))
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("query thread panicked"))
                .collect()
        });
        for (t, total) in totals.iter().enumerate() {
            assert_eq!(
                *total,
                s.edge_query(t as u64, (t as u64 * 7) % 100, TimeRange::all())
                    + s.vertex_query(t as u64, VertexDirection::Out, TimeRange::new(0, 999))
            );
        }
        assert!(s.plans_built() > 0);
    }

    /// Collision-heavy geometry: one entry per bucket in tiny leaves, so
    /// aggregates run out of candidate buckets and spill.
    fn spill_heavy_config(d1: u64, mapping_addresses: u32) -> HiggsConfig {
        HiggsConfig {
            d1,
            f1_bits: 10,
            bucket_entries: 1,
            mapping_addresses,
            ..tiny_config()
        }
    }

    /// A stream with overflow-block bursts and interleaved deletes. Each op
    /// `(src, dst, weight, kind)` deletes the edge inserted `src + 1` steps
    /// earlier (`kind == 0`), inserts at the current timestamp (`kind` 1–3,
    /// which bursts into overflow blocks once the leaf is full), or advances
    /// time and inserts.
    fn apply_ops(s: &mut HiggsSummary, ops: &[(u64, u64, u64, u8)]) {
        apply_mutations(s, &mutations(ops));
    }

    /// The mutations `ops` describe (see [`apply_ops`]), in order: an edge
    /// plus `true` for a delete.
    fn mutations(ops: &[(u64, u64, u64, u8)]) -> Vec<(StreamEdge, bool)> {
        let mut out = Vec::new();
        let mut inserted: Vec<StreamEdge> = Vec::new();
        let mut t = 0u64;
        for &(src, dst, weight, kind) in ops {
            if kind == 0 {
                if let Some(i) = inserted.len().checked_sub(src as usize + 1) {
                    out.push((inserted.remove(i), true));
                }
                continue;
            }
            if kind > 3 {
                t += 1;
            }
            let edge = StreamEdge::new(src, dst, weight, t);
            out.push((edge, false));
            inserted.push(edge);
        }
        out
    }

    fn apply_mutations(s: &mut HiggsSummary, mutations: &[(StreamEdge, bool)]) {
        for (edge, delete) in mutations {
            if *delete {
                s.delete_edge(edge);
            } else {
                s.insert_edge(edge);
            }
        }
    }

    /// A matrix's canonical content: `(base src, base dst, fp src, fp dst)`
    /// with summed weight, over slab entries and spills, zero weights
    /// dropped. Equal content answers every query identically, wherever the
    /// entries sit in the slab.
    fn canonical(m: &CompressedMatrix) -> Vec<((u64, u64, u32, u32), i64)> {
        let seq = m.address_sequence();
        let mut content = std::collections::BTreeMap::new();
        for (row, col, e) in m.entries() {
            let key = (
                seq.base_of(row, u32::from(e.idx_src)),
                seq.base_of(col, u32::from(e.idx_dst)),
                e.fp_src,
                e.fp_dst,
            );
            *content.entry(key).or_insert(0) += e.weight;
        }
        for e in m.spill_entries() {
            *content
                .entry((e.addr_src, e.addr_dst, e.fp_src, e.fp_dst))
                .or_insert(0) += e.weight;
        }
        content.into_iter().filter(|&(_, w)| w != 0).collect()
    }

    /// The leaf matrices and overflow blocks under internal node `(level, index)`.
    fn leaf_sources(s: &HiggsSummary, level: usize, index: usize) -> Vec<&CompressedMatrix> {
        let (first, last) = s.leaf_span(level, index);
        s.leaves[first..=last]
            .iter()
            .flat_map(|leaf| std::iter::once(&leaf.matrix).chain(leaf.overflow.blocks()))
            .collect()
    }

    /// Checks every internal node of `s`: the stepwise aggregate, the one
    /// lifted straight from the leaves, and the installed (inline-built,
    /// delete-decremented) matrix hold the same content. Returns the number
    /// of spilled entries below the top level, which the stepwise rule must
    /// have lifted.
    fn check_every_node(s: &HiggsSummary) -> Result<usize, String> {
        let mut lifted_spills = 0;
        for (level, nodes) in s.internals.iter().enumerate() {
            for (index, node) in nodes.iter().enumerate() {
                let stepwise = canonical(&s.compute_aggregation(level, index));
                let direct = canonical(&aggregate_leaves_to_layer(
                    &s.layout,
                    &s.config,
                    &leaf_sources(s, level, index),
                    level as u32 + 2,
                ));
                if stepwise != direct {
                    return Err(format!("node ({level}, {index}): stepwise != direct"));
                }
                let installed = node.matrix.as_ref().ok_or("inline node unmaterialised")?;
                if canonical(installed) != direct {
                    return Err(format!("node ({level}, {index}): installed != direct"));
                }
                if level + 1 < s.internals.len() {
                    lifted_spills += installed.spill_len();
                }
            }
        }
        Ok(lifted_spills)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        #[test]
        fn stepwise_aggregation_matches_aggregation_from_the_leaves(
            ops in proptest::collection::vec((0u64..48, 0u64..48, 1u64..4, 0u8..10), 300..2_500),
            d1 in 1u32..3,
            mapping in 1u32..3,
        ) {
            let mut s = HiggsSummary::new(spill_heavy_config(1 << d1, mapping));
            apply_ops(&mut s, &ops);
            let checked = check_every_node(&s);
            proptest::prop_assert!(checked.is_ok(), "{checked:?}");
        }
    }

    /// Every node's canonical content and form, leaf by leaf (matrix, then
    /// overflow blocks) and then level by level: `(content, sealed)`.
    type NodeState = (Vec<((u64, u64, u32, u32), i64)>, bool);

    fn node_states(s: &HiggsSummary) -> Vec<NodeState> {
        let leaves = s
            .leaves
            .iter()
            .flat_map(|leaf| std::iter::once(&leaf.matrix).chain(leaf.overflow.blocks()));
        let internals = s
            .internals
            .iter()
            .flatten()
            .filter_map(|n| n.matrix.as_ref());
        leaves
            .chain(internals)
            .map(|m| (canonical(m), m.is_sealed()))
            .collect()
    }

    /// Checks the forms a summary must hold: the open leaf and its chain
    /// writable, with their slabs zero past each bucket's count and their
    /// identity indexes resolving exactly their stored entries; every other
    /// leaf, block and aggregate sealed; and every leaf's capacity the
    /// nominal `b · d1²`.
    fn check_forms(s: &HiggsSummary) -> Result<(), String> {
        let nominal = s.config.bucket_entries * (s.config.d1 * s.config.d1) as usize;
        let open = s.leaves.len() - 1;
        let open_leaf = &s.leaves[open];
        for matrix in std::iter::once(&open_leaf.matrix).chain(open_leaf.overflow.blocks()) {
            matrix
                .check_writable()
                .map_err(|e| format!("open leaf {open}: {e}"))?;
        }
        for (i, leaf) in s.leaves.iter().enumerate() {
            let sealed = i != open;
            if leaf.matrix.is_sealed() != sealed
                || leaf
                    .overflow
                    .blocks()
                    .iter()
                    .any(|b| b.is_sealed() != sealed)
            {
                return Err(format!(
                    "leaf {i} of {}: expected sealed = {sealed}",
                    s.leaves.len()
                ));
            }
            if leaf.matrix.capacity() != nominal
                || leaf.matrix.utilization() != leaf.matrix.stored() as f64 / nominal as f64
            {
                return Err(format!("leaf {i}: capacity is not the nominal b·d²"));
            }
        }
        if !s
            .internals
            .iter()
            .flatten()
            .filter_map(|n| n.matrix.as_ref())
            .all(CompressedMatrix::is_sealed)
        {
            return Err("an installed aggregate is writable".into());
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]

        #[test]
        fn restore_keeps_the_open_leaf_writable(
            ops in proptest::collection::vec((0u64..48, 0u64..48, 1u64..4, 0u8..10), 300..2_000),
            cut in 0usize..100,
            d1 in 1u32..3,
        ) {
            let all = mutations(&ops);
            let (head, tail) = all.split_at(all.len() * cut / 100);
            let mut control = HiggsSummary::new(spill_heavy_config(1 << d1, 2));
            apply_mutations(&mut control, head);
            let mut bytes = Vec::new();
            control.write_snapshot(&mut bytes).expect("snapshot to memory");
            let mut restored = HiggsSummary::read_snapshot(&mut bytes.as_slice()).expect("restore");
            if !restored.leaves.is_empty() {
                let forms = check_forms(&restored);
                proptest::prop_assert!(forms.is_ok(), "right after restore: {forms:?}");
                proptest::prop_assert!(node_states(&restored) == node_states(&control));
            }
            apply_mutations(&mut control, tail);
            apply_mutations(&mut restored, tail);
            let forms = check_forms(&restored);
            proptest::prop_assert!(forms.is_ok(), "after the rest of the stream: {forms:?}");
            proptest::prop_assert!(node_states(&restored) == node_states(&control));
            proptest::prop_assert_eq!(
                restored.average_leaf_utilization(),
                control.average_leaf_utilization()
            );
            proptest::prop_assert_eq!(restored.space(), control.space());
            let snapshot = |s: &HiggsSummary| {
                let mut bytes = Vec::new();
                s.write_snapshot(&mut bytes).expect("snapshot to memory");
                bytes
            };
            proptest::prop_assert!(snapshot(&restored) == snapshot(&control), "snapshots differ");
        }
    }

    /// A stream of `n` mutations over `vertices` vertices: runs of inserts
    /// at one timestamp (which burst into overflow blocks once a leaf is
    /// full) and deletes of recent edges, from a fixed LCG.
    fn bursty_mutations(n: u64, vertices: u64) -> Vec<(StreamEdge, bool)> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let ops: Vec<(u64, u64, u64, u8)> = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let x = state >> 16;
                let kind = (x % 10) as u8;
                let src = if kind == 0 { x % 8 } else { x % vertices };
                (src, (x >> 20) % vertices, 1 + (x >> 40) % 3, kind)
            })
            .collect();
        mutations(&ops)
    }

    /// Applies `mutations` to two inline summaries. In the second, each
    /// internal node is rebuilt through the dense reference (a writable
    /// `b · d²` matrix, then sealed) the moment it is created, bottom-up,
    /// so every aggregate there descends from dense-built children.
    fn build_with_dense_reference(
        config: HiggsConfig,
        mutations: &[(StreamEdge, bool)],
    ) -> (HiggsSummary, HiggsSummary) {
        let mut built = HiggsSummary::new(config);
        let mut reference = HiggsSummary::new(config);
        for &(edge, delete) in mutations {
            if delete {
                built.delete_edge(&edge);
                reference.delete_edge(&edge);
                continue;
            }
            built.insert_edge(&edge);
            let before: Vec<usize> = reference.internals.iter().map(Vec::len).collect();
            reference.insert_edge(&edge);
            for level in 0..reference.internals.len() {
                let created = before.get(level).copied().unwrap_or(0);
                for index in created..reference.internals[level].len() {
                    let (sources, from_layer) = reference.aggregation_sources(level, index);
                    let dense = crate::aggregate::aggregate_dense(
                        &reference.layout,
                        &reference.config,
                        &sources,
                        from_layer,
                        level as u32 + 2,
                    );
                    reference.internals[level][index].matrix = Some(dense);
                }
            }
        }
        (built, reference)
    }

    #[test]
    fn aggregates_match_the_dense_reference_build_byte_for_byte() {
        // Paper parameters, and a spill-heavy geometry whose aggregates spill.
        for (config, n, vertices) in [
            (HiggsConfig::paper_default(), 200_000, 4_000),
            (spill_heavy_config(4, 2), 6_000, 64),
        ] {
            let (built, reference) =
                build_with_dense_reference(config, &bursty_mutations(n, vertices));
            assert!(
                built.height() >= 5,
                "stream too small: height {}",
                built.height()
            );
            assert!(
                built.leaves.iter().any(|l| !l.overflow.blocks().is_empty()),
                "no overflow burst"
            );
            let mut spills = 0;
            for (level, nodes) in built.internals.iter().enumerate() {
                for (index, node) in nodes.iter().enumerate() {
                    let matrix = node.matrix.as_ref().expect("inline node materialised");
                    let dense = reference.internals[level][index]
                        .matrix
                        .as_ref()
                        .expect("inline node materialised");
                    assert_eq!(
                        matrix.first_difference(dense),
                        None,
                        "node ({level}, {index}) differs from its dense rebuild"
                    );
                    matrix
                        .check_index(&dense_starts(&dense.bucket_lens()))
                        .expect("the index matches the dense start offsets");
                    spills += matrix.spill_len();
                }
            }
            if config.bucket_entries == 1 {
                assert!(spills > 0, "the spill-heavy stream must spill");
            }
            let snapshot = |s: &HiggsSummary| {
                let mut bytes = Vec::new();
                s.write_snapshot(&mut bytes).expect("snapshot to memory");
                bytes
            };
            assert!(snapshot(&built) == snapshot(&reference), "snapshots differ");
        }
    }

    #[test]
    fn closed_leaves_and_aggregates_are_sealed_and_small() {
        let mut s = HiggsSummary::new(HiggsConfig::paper_default());
        for i in 0..20_000u64 {
            s.insert_edge(&StreamEdge::new(i % 3_000, (i * 7) % 3_000, 1, i / 4));
        }
        assert!(s.height() > 2, "stream too small: height {}", s.height());
        check_forms(&s).expect("forms");
        // A writable leaf pays for all b·d² slots (24 bytes each), d²
        // occupancy bytes, an identity index of 2048 `u32` positions (the
        // power of two ≥ 2·b·d²) and the box holding the counts' and the
        // index's two `Vec` headers; a sealed matrix for its entries and its
        // bucket index: three `u32` (two of occupancy bits, one rank) per 64
        // buckets, and one `u32` offset per occupied bucket plus the end
        // marker.
        let header = std::mem::size_of::<CompressedMatrix>();
        let boxed = 2 * std::mem::size_of::<Vec<u8>>();
        let open = &s.leaves.last().expect("a leaf").matrix;
        assert_eq!(
            open.space_bytes(),
            768 * 24 + 256 + 2048 * 4 + boxed + header
        );
        let index_bytes = |m: &CompressedMatrix| {
            let lens = m.bucket_lens();
            let occupied = lens.iter().filter(|&&len| len > 0).count();
            (3 * lens.len().div_ceil(64) + occupied + 1) * 4
        };
        let closed = &s.leaves[0].matrix;
        assert_eq!(closed.spill_len(), 0);
        assert_eq!(
            closed.space_bytes(),
            closed.stored() * 24 + index_bytes(closed) + header
        );
        // The highest aggregate: a dense index would cost it d²·4 + 4 bytes.
        let top = s
            .internals
            .last()
            .and_then(|nodes| nodes.last())
            .and_then(|node| node.matrix.as_ref())
            .expect("a materialised top aggregate");
        let d2 = (top.side() * top.side()) as usize;
        assert_eq!(top.spill_len(), 0);
        assert_eq!(
            top.space_bytes(),
            top.stored() * 24 + index_bytes(top) + header
        );
        assert!(
            index_bytes(top) < d2 * 4 + 4,
            "the sparse index is smaller than the dense offsets"
        );
    }

    #[test]
    fn stepwise_aggregation_lifts_child_spills() {
        // A fixed spill-heavy stream whose lower aggregates spill, so the
        // property above exercises spill lifting and not only slab entries.
        let ops: Vec<(u64, u64, u64, u8)> = (0..4_000u64)
            .map(|i| ((i * 7) % 48, (i * 13) % 48, 1 + i % 3, (i % 10) as u8))
            .collect();
        let mut s = HiggsSummary::new(spill_heavy_config(2, 1));
        apply_ops(&mut s, &ops);
        let lifted = check_every_node(&s).expect("every node agrees");
        assert!(s.height() > 3, "stream too small: height {}", s.height());
        assert!(lifted > 0, "no spill below the top level to lift");
    }
}
