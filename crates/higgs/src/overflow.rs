//! Overflow blocks (Section IV-C).
//!
//! When an edge insertion fails at the current leaf and the edge carries the
//! *same timestamp* as the previously inserted edge, opening a new leaf would
//! make the parent's separating key ambiguous (two leaves starting at the
//! same timestamp). Instead, the edge is absorbed by an overflow block — a
//! small compressed matrix chained to the leaf — keeping the temporal
//! partition of the stream exact and thereby improving query accuracy.
//!
//! Blocks are ordinary [`CompressedMatrix`] values (see
//! [`matrix`](crate::matrix)): writable while their leaf is open, sealed
//! with it when it closes. A chain insert probes blocks in creation order
//! and allocates a new block only after every existing block rejected the
//! edge, preserving first-block-wins attribution for deletes/queries.

use crate::matrix::{CompressedMatrix, OffsetFilter, ProbeScratch};

/// A chain of small overflow matrices attached to one leaf node.
#[derive(Clone, Debug, Default)]
pub struct OverflowChain {
    blocks: Vec<CompressedMatrix>,
    side: u64,
    bucket_entries: usize,
    mapping: u32,
}

impl OverflowChain {
    /// Creates an empty chain whose blocks will be `side × side` matrices
    /// with `bucket_entries` entries per bucket and `mapping` candidate
    /// addresses per vertex.
    pub fn new(side: u64, bucket_entries: usize, mapping: u32) -> Self {
        Self {
            blocks: Vec::new(),
            side,
            bucket_entries,
            mapping,
        }
    }

    /// Number of overflow blocks allocated so far.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the chain has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Inserts an edge into the chain, allocating a new block if every
    /// existing block rejects it. Never fails.
    pub fn insert(
        &mut self,
        addr_src: u64,
        addr_dst: u64,
        fp_src: u32,
        fp_dst: u32,
        time_offset: u32,
        weight: i64,
    ) {
        for block in &mut self.blocks {
            if block.try_insert(
                addr_src,
                addr_dst,
                fp_src,
                fp_dst,
                Some(time_offset),
                weight,
            ) {
                return;
            }
        }
        let mut block = CompressedMatrix::new(self.side, 1, self.bucket_entries, self.mapping);
        let inserted = block.try_insert(
            addr_src,
            addr_dst,
            fp_src,
            fp_dst,
            Some(time_offset),
            weight,
        );
        debug_assert!(
            inserted,
            "insertion into an empty overflow block cannot fail"
        );
        self.blocks.push(block);
    }

    /// Attempts to decrement a previously inserted edge anywhere in the chain.
    pub fn delete(
        &mut self,
        addr_src: u64,
        addr_dst: u64,
        fp_src: u32,
        fp_dst: u32,
        filter: OffsetFilter,
        weight: i64,
    ) -> bool {
        self.blocks
            .iter_mut()
            .any(|b| b.try_delete(addr_src, addr_dst, fp_src, fp_dst, filter, weight))
    }

    /// Edge query over every block in the chain.
    pub fn edge_weight(
        &self,
        addr_src: u64,
        addr_dst: u64,
        fp_src: u32,
        fp_dst: u32,
        filter: OffsetFilter,
    ) -> u64 {
        let mut scratch = ProbeScratch::new();
        self.edge_weight_scratch(&mut scratch, addr_src, addr_dst, fp_src, fp_dst, filter)
    }

    /// [`edge_weight`](Self::edge_weight) with a caller-provided
    /// [`ProbeScratch`]. Every block shares the chain's geometry, so the
    /// candidate fill is computed once for the whole chain.
    pub(crate) fn edge_weight_scratch(
        &self,
        scratch: &mut ProbeScratch,
        addr_src: u64,
        addr_dst: u64,
        fp_src: u32,
        fp_dst: u32,
        filter: OffsetFilter,
    ) -> u64 {
        self.blocks
            .iter()
            .map(|b| b.edge_weight_scratch(scratch, addr_src, addr_dst, fp_src, fp_dst, filter))
            .sum()
    }

    /// Source-vertex query over every block in the chain.
    pub fn src_weight(&self, addr_src: u64, fp_src: u32, filter: OffsetFilter) -> u64 {
        let mut scratch = ProbeScratch::new();
        self.src_weight_scratch(&mut scratch, addr_src, fp_src, filter)
    }

    /// [`src_weight`](Self::src_weight) with a caller-provided
    /// [`ProbeScratch`].
    pub(crate) fn src_weight_scratch(
        &self,
        scratch: &mut ProbeScratch,
        addr_src: u64,
        fp_src: u32,
        filter: OffsetFilter,
    ) -> u64 {
        self.blocks
            .iter()
            .map(|b| b.src_weight_scratch(scratch, addr_src, fp_src, filter))
            .sum()
    }

    /// Destination-vertex query over every block in the chain.
    pub fn dst_weight(&self, addr_dst: u64, fp_dst: u32, filter: OffsetFilter) -> u64 {
        let mut scratch = ProbeScratch::new();
        self.dst_weight_scratch(&mut scratch, addr_dst, fp_dst, filter)
    }

    /// [`dst_weight`](Self::dst_weight) with a caller-provided
    /// [`ProbeScratch`].
    pub(crate) fn dst_weight_scratch(
        &self,
        scratch: &mut ProbeScratch,
        addr_dst: u64,
        fp_dst: u32,
        filter: OffsetFilter,
    ) -> u64 {
        self.blocks
            .iter()
            .map(|b| b.dst_weight_scratch(scratch, addr_dst, fp_dst, filter))
            .sum()
    }

    /// Seals every block (see [`CompressedMatrix::seal`]): called when the
    /// chain's leaf closes, after which nothing inserts into the chain.
    pub fn seal(&mut self) {
        self.blocks.iter_mut().for_each(CompressedMatrix::seal);
    }

    /// Turns every block writable again (the open leaf's chain after a
    /// snapshot restore).
    pub(crate) fn unseal(&mut self) {
        self.blocks.iter_mut().for_each(CompressedMatrix::unseal);
    }

    /// The blocks themselves (used during aggregation so overflow data is
    /// folded into ancestor matrices).
    pub fn blocks(&self) -> &[CompressedMatrix] {
        &self.blocks
    }

    /// The chain's block geometry `(side, bucket_entries, mapping)` — what
    /// [`OverflowChain::new`] was called with (used by the snapshot codec).
    pub(crate) fn geometry(&self) -> (u64, usize, u32) {
        (self.side, self.bucket_entries, self.mapping)
    }

    /// Rebuilds a chain from persisted geometry and blocks (snapshot
    /// restore); block order is preserved because chain inserts probe blocks
    /// in creation order and earlier blocks win attribution.
    pub(crate) fn from_restored_parts(
        side: u64,
        bucket_entries: usize,
        mapping: u32,
        blocks: Vec<CompressedMatrix>,
    ) -> Self {
        Self {
            blocks,
            side,
            bucket_entries,
            mapping,
        }
    }

    /// Memory footprint in bytes.
    pub fn space_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(CompressedMatrix::space_bytes)
            .sum::<usize>()
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_never_fails_and_grows_blocks() {
        let mut chain = OverflowChain::new(2, 1, 1);
        for k in 0..50u32 {
            chain.insert(0, 0, k, k, 0, 1);
        }
        assert!(chain.len() > 1, "chain must grow under pressure");
        for k in 0..50u32 {
            assert_eq!(chain.edge_weight(0, 0, k, k, None), 1);
        }
    }

    #[test]
    fn vertex_queries_cover_all_blocks() {
        let mut chain = OverflowChain::new(2, 1, 1);
        for k in 0..10u32 {
            chain.insert(1, 0, 7, k, 0, 2);
        }
        assert_eq!(chain.src_weight(1, 7, None), 20);
        assert_eq!(chain.dst_weight(0, 3, None), 2);
    }

    #[test]
    fn delete_finds_entry_in_any_block() {
        let mut chain = OverflowChain::new(2, 1, 1);
        for k in 0..20u32 {
            chain.insert(0, 0, k, k, 5, 3);
        }
        assert!(chain.delete(0, 0, 15, 15, Some((5, 5)), 3));
        assert_eq!(chain.edge_weight(0, 0, 15, 15, None), 0);
        assert!(!chain.delete(0, 0, 99, 99, None, 1));
    }

    #[test]
    fn empty_chain_queries_return_zero() {
        let chain = OverflowChain::new(4, 3, 4);
        assert!(chain.is_empty());
        assert_eq!(chain.edge_weight(0, 0, 1, 1, None), 0);
        assert_eq!(chain.src_weight(0, 1, None), 0);
        assert_eq!(chain.space_bytes(), std::mem::size_of::<OverflowChain>());
    }
}
