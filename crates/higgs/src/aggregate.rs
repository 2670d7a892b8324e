//! Algorithm 2: bottom-up aggregation of child matrices into their parent.
//!
//! A node at layer `l+1` aggregates the `θ` matrices of its children at layer
//! `l` into a single matrix that is `4^R` times larger: the top `R`
//! fingerprint bits of every entry are shifted into the address (Fig. 8),
//! which is a pure re-partitioning of the original hash bits. Entries that
//! were distinct at the leaf layer therefore remain distinct (or merge only
//! if they were already indistinguishable), and aggregation introduces no
//! additional error. Timestamps are dropped: aggregated matrices are purely
//! topological (Section IV-A).
//!
//! Two entry points build the same content. [`aggregate_matrices`] is the
//! paper's stepwise rule — one lift per child entry — and is what
//! [`HiggsSummary`](crate::HiggsSummary) and every service shard run inline,
//! since inline insertion materialises children before their parent.
//! [`aggregate_leaves_to_layer`] lifts leaf entries through every layer at
//! once; only [`ParallelHiggs`](crate::ParallelHiggs) ships jobs built that
//! way, because a pool job must not wait on its sibling jobs.
//!
//! Both build the parent straight into the sealed form with the
//! crate-private `AggregateBuilder` of [`matrix`](crate::matrix): no
//! writable `b · d²` slab is allocated, and the result is laid out exactly
//! as a dense build ([`CompressedMatrix::insert_aggregated`] on a fresh
//! matrix, then [`CompressedMatrix::seal`]) would lay it out.

use crate::config::HiggsConfig;
use crate::matrix::{AggregateBuilder, CompressedMatrix};
use higgs_common::hashing::FingerprintLayout;

/// Aggregates `children` (all at `child_layer`) into a new matrix at
/// `child_layer + 1`.
///
/// The children's stored entries are lifted with
/// [`FingerprintLayout::lift`]: the bucket position and recorded MMB index
/// pair give back the base address, the top `R` fingerprint bits move into
/// the address, and the entry is re-inserted into the (4^R-times larger)
/// parent matrix. Entries with zero weight (fully deleted) are skipped.
/// A child's spill list (aggregated entries that found every candidate
/// bucket full) is lifted the same way: spills keep their base address, so
/// they re-enter the parent exactly like bucket entries.
///
/// [`CompressedMatrix::entries`] yields unpacked [`Entry`](crate::matrix::Entry)
/// values straight off the child's contiguous columns, so the per-child walk
/// is a linear sweep rather than a bucket-by-bucket pointer chase.
///
/// The parent is built straight into the sealed form (see the module docs):
/// nothing inserts into an aggregate once it is complete.
pub fn aggregate_matrices(
    layout: &FingerprintLayout,
    config: &HiggsConfig,
    children: &[&CompressedMatrix],
    child_layer: u32,
) -> CompressedMatrix {
    for child in children {
        debug_assert_eq!(child.layer(), child_layer, "child at unexpected layer");
    }
    aggregate(layout, config, children, child_layer, child_layer + 1)
}

/// Aggregates leaf-layer matrices directly into a matrix at `target_layer`,
/// applying the Algorithm-2 lift repeatedly (layer 1 → 2 → … → target).
///
/// Used by [`ParallelHiggs`](crate::ParallelHiggs) jobs and by the fallback
/// of [`HiggsSummary::compute_aggregation`](crate::HiggsSummary::compute_aggregation)
/// when a child has not materialised yet: any ancestor can always be rebuilt
/// from the leaf matrices it covers, independent of other jobs. Like
/// [`aggregate_matrices`], the parent is built straight into the sealed form.
pub fn aggregate_leaves_to_layer(
    layout: &FingerprintLayout,
    config: &HiggsConfig,
    leaves: &[&CompressedMatrix],
    target_layer: u32,
) -> CompressedMatrix {
    assert!(
        target_layer >= 2,
        "target layer must be above the leaf layer"
    );
    for leaf in leaves {
        debug_assert_eq!(
            leaf.layer(),
            1,
            "aggregate_leaves_to_layer expects leaf matrices"
        );
    }
    aggregate(layout, config, leaves, 1, target_layer)
}

/// Aggregates `sources` (all at `from_layer`) into a new matrix at
/// `to_layer`, built straight into the sealed form. The sources' stored
/// entries, spills included, bound the parent's, so the builder reserves
/// that many.
pub(crate) fn aggregate(
    layout: &FingerprintLayout,
    config: &HiggsConfig,
    sources: &[&CompressedMatrix],
    from_layer: u32,
    to_layer: u32,
) -> CompressedMatrix {
    let mut parent = AggregateBuilder::new(
        layout.matrix_side(to_layer),
        to_layer,
        config.bucket_entries,
        config.mapping_addresses,
        sources.iter().map(|m| m.stored() + m.spill_len()).sum(),
    );
    for_each_lifted(layout, sources, from_layer, to_layer, |s, d, fs, fd, w| {
        parent.insert(s, d, fs, fd, w)
    });
    parent.finish()
}

/// Lifts every nonzero entry of `sources` (all at `from_layer`), bucket
/// entries then spills, source by source, from `from_layer` to `to_layer`,
/// and hands each to `insert` as `(addr_src, addr_dst, fp_src, fp_dst,
/// weight)` at `to_layer`. The order is the order the parent is built in,
/// which decides where each entry lands.
fn for_each_lifted(
    layout: &FingerprintLayout,
    sources: &[&CompressedMatrix],
    from_layer: u32,
    to_layer: u32,
    mut insert: impl FnMut(u64, u64, u32, u32, i64),
) {
    let mut lift = |mut fp_src: u64, mut addr_src: u64, mut fp_dst: u64, mut addr_dst: u64, w| {
        for layer in from_layer..to_layer {
            (fp_src, addr_src) = layout.lift(fp_src, addr_src, layer);
            (fp_dst, addr_dst) = layout.lift(fp_dst, addr_dst, layer);
        }
        insert(addr_src, addr_dst, fp_src as u32, fp_dst as u32, w);
    };
    for source in sources {
        let seq = source.address_sequence();
        for (row, col, entry) in source.entries() {
            if entry.weight != 0 {
                lift(
                    u64::from(entry.fp_src),
                    seq.base_of(row, u32::from(entry.idx_src)),
                    u64::from(entry.fp_dst),
                    seq.base_of(col, u32::from(entry.idx_dst)),
                    entry.weight,
                );
            }
        }
        for spill in source.spill_entries() {
            if spill.weight != 0 {
                lift(
                    u64::from(spill.fp_src),
                    spill.addr_src,
                    u64::from(spill.fp_dst),
                    spill.addr_dst,
                    spill.weight,
                );
            }
        }
    }
}

/// The dense reference build of [`aggregate`]: a fresh writable matrix
/// filled with [`CompressedMatrix::insert_aggregated`] in the same order,
/// then sealed. Tests check the builder against it field for field.
#[cfg(test)]
pub(crate) fn aggregate_dense(
    layout: &FingerprintLayout,
    config: &HiggsConfig,
    sources: &[&CompressedMatrix],
    from_layer: u32,
    to_layer: u32,
) -> CompressedMatrix {
    let mut parent = CompressedMatrix::new(
        layout.matrix_side(to_layer),
        to_layer,
        config.bucket_entries,
        config.mapping_addresses,
    );
    for_each_lifted(layout, sources, from_layer, to_layer, |s, d, fs, fd, w| {
        parent.insert_aggregated(s, d, fs, fd, w)
    });
    parent.seal();
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use higgs_common::hashing::vertex_hash;

    fn setup() -> (FingerprintLayout, HiggsConfig) {
        let config = HiggsConfig {
            d1: 8,
            f1_bits: 12,
            r_bits: 1,
            bucket_entries: 3,
            mapping_addresses: 4,
            overflow_blocks: true,
            shards: 1,
            plan_cache_capacity: 8,
            ingest_queue_cap: None,
            pin_workers: false,
            admission_tick: std::time::Duration::ZERO,
            service_queue_depth: None,
            journal_mode: crate::config::JournalMode::Off,
        };
        (config.layout(), config)
    }

    /// Inserts an edge keyed by vertex ids into a leaf matrix the same way
    /// the tree does.
    fn leaf_insert(m: &mut CompressedMatrix, layout: &FingerprintLayout, s: u64, d: u64, w: i64) {
        let hs = layout.split(vertex_hash(s, 0), 1);
        let hd = layout.split(vertex_hash(d, 0), 1);
        assert!(m.try_insert(
            hs.address,
            hd.address,
            hs.fingerprint as u32,
            hd.fingerprint as u32,
            Some(0),
            w
        ));
    }

    fn parent_edge_weight(
        parent: &CompressedMatrix,
        layout: &FingerprintLayout,
        s: u64,
        d: u64,
    ) -> u64 {
        let hs = layout.split(vertex_hash(s, 0), 2);
        let hd = layout.split(vertex_hash(d, 0), 2);
        parent.edge_weight(
            hs.address,
            hd.address,
            hs.fingerprint as u32,
            hd.fingerprint as u32,
            None,
        )
    }

    #[test]
    fn aggregation_preserves_every_edge_weight() {
        let (layout, config) = setup();
        let mut children = Vec::new();
        let mut truth = std::collections::HashMap::new();
        for c in 0..4u64 {
            let mut m = CompressedMatrix::new(8, 1, 3, 4);
            for k in 0..40u64 {
                let (s, d, w) = (c * 100 + k, c * 100 + k + 1, 1 + (k % 3) as i64);
                leaf_insert(&mut m, &layout, s, d, w);
                *truth.entry((s, d)).or_insert(0i64) += w;
            }
            children.push(m);
        }
        let refs: Vec<&CompressedMatrix> = children.iter().collect();
        let parent = aggregate_matrices(&layout, &config, &refs, 1);
        assert_eq!(parent.layer(), 2);
        assert_eq!(parent.side(), 16);
        for (&(s, d), &w) in &truth {
            assert!(
                parent_edge_weight(&parent, &layout, s, d) >= w as u64,
                "aggregate lost weight for ({s},{d})"
            );
        }
        // Total mass is conserved exactly.
        let total: i64 = parent.entries().map(|(_, _, e)| e.weight).sum();
        assert_eq!(total, truth.values().sum::<i64>());
    }

    #[test]
    fn aggregation_is_exact_when_capacity_suffices() {
        let (layout, config) = setup();
        let mut children = Vec::new();
        let mut truth = std::collections::HashMap::new();
        for c in 0..4u64 {
            let mut m = CompressedMatrix::new(8, 1, 3, 4);
            for k in 0..20u64 {
                let (s, d) = (1000 + c * 20 + k, 5000 + c * 20 + k);
                leaf_insert(&mut m, &layout, s, d, 2);
                *truth.entry((s, d)).or_insert(0u64) += 2;
            }
            children.push(m);
        }
        let refs: Vec<&CompressedMatrix> = children.iter().collect();
        let parent = aggregate_matrices(&layout, &config, &refs, 1);
        assert_eq!(parent.spill_len(), 0);
        // No extra error: parent answers equal the per-child sums whenever the
        // vertices do not collide at the leaf layer, and never underestimate.
        for (&(s, d), &w) in &truth {
            let child_sum: u64 = children
                .iter()
                .map(|m| {
                    let hs = layout.split(vertex_hash(s, 0), 1);
                    let hd = layout.split(vertex_hash(d, 0), 1);
                    m.edge_weight(
                        hs.address,
                        hd.address,
                        hs.fingerprint as u32,
                        hd.fingerprint as u32,
                        None,
                    )
                })
                .sum();
            let parent_est = parent_edge_weight(&parent, &layout, s, d);
            assert_eq!(
                parent_est, child_sum,
                "aggregation added error for ({s},{d})"
            );
            assert!(parent_est >= w);
        }
    }

    #[test]
    fn aggregating_aggregates_climbs_layers() {
        let (layout, config) = setup();
        let mut leaves = Vec::new();
        for c in 0..4u64 {
            let mut m = CompressedMatrix::new(8, 1, 3, 4);
            leaf_insert(&mut m, &layout, c, c + 1, 3);
            leaves.push(m);
        }
        let refs: Vec<&CompressedMatrix> = leaves.iter().collect();
        let level2 = aggregate_matrices(&layout, &config, &refs, 1);
        let level3 = aggregate_matrices(&layout, &config, &[&level2], 2);
        assert_eq!(level3.layer(), 3);
        assert_eq!(level3.side(), 32);
        let hs = layout.split(vertex_hash(0, 0), 3);
        let hd = layout.split(vertex_hash(1, 0), 3);
        assert_eq!(
            level3.edge_weight(
                hs.address,
                hd.address,
                hs.fingerprint as u32,
                hd.fingerprint as u32,
                None
            ),
            3
        );
    }

    #[test]
    fn direct_leaf_aggregation_matches_stepwise_aggregation() {
        let (layout, config) = setup();
        let mut leaves = Vec::new();
        for c in 0..16u64 {
            let mut m = CompressedMatrix::new(8, 1, 3, 4);
            for k in 0..10u64 {
                leaf_insert(&mut m, &layout, c * 50 + k, c * 50 + k + 17, 1);
            }
            leaves.push(m);
        }
        let refs: Vec<&CompressedMatrix> = leaves.iter().collect();
        // Stepwise: four level-2 aggregates, then one level-3 aggregate.
        let level2: Vec<CompressedMatrix> = (0..4)
            .map(|g| aggregate_matrices(&layout, &config, &refs[g * 4..(g + 1) * 4], 1))
            .collect();
        let l2_refs: Vec<&CompressedMatrix> = level2.iter().collect();
        let stepwise = aggregate_matrices(&layout, &config, &l2_refs, 2);
        // Direct: straight from the 16 leaves to layer 3.
        let direct = aggregate_leaves_to_layer(&layout, &config, &refs, 3);
        assert_eq!(stepwise.layer(), direct.layer());
        assert_eq!(stepwise.side(), direct.side());
        for c in 0..16u64 {
            for k in 0..10u64 {
                let (s, d) = (c * 50 + k, c * 50 + k + 17);
                let hs = layout.split(vertex_hash(s, 0), 3);
                let hd = layout.split(vertex_hash(d, 0), 3);
                let a = stepwise.edge_weight(
                    hs.address,
                    hd.address,
                    hs.fingerprint as u32,
                    hd.fingerprint as u32,
                    None,
                );
                let b = direct.edge_weight(
                    hs.address,
                    hd.address,
                    hs.fingerprint as u32,
                    hd.fingerprint as u32,
                    None,
                );
                assert_eq!(
                    a, b,
                    "stepwise and direct aggregation disagree for ({s},{d})"
                );
            }
        }
    }

    #[test]
    fn empty_children_give_empty_parent() {
        let (layout, config) = setup();
        let children: Vec<CompressedMatrix> =
            (0..4).map(|_| CompressedMatrix::new(8, 1, 3, 4)).collect();
        let refs: Vec<&CompressedMatrix> = children.iter().collect();
        let parent = aggregate_matrices(&layout, &config, &refs, 1);
        assert!(parent.is_empty());
    }
}
