//! Tree nodes of the HIGGS hierarchy: leaf nodes holding temporal compressed
//! matrices (plus optional overflow blocks) and internal nodes holding the
//! aggregated, timestamp-free matrices of complete θ-child groups.

use crate::matrix::CompressedMatrix;
use crate::overflow::OverflowChain;
use higgs_common::{TimeRange, Timestamp};

/// A leaf node: one temporal compressed matrix covering a contiguous slice of
/// the stream, plus the overflow blocks that absorbed same-timestamp bursts.
#[derive(Clone, Debug)]
pub struct LeafNode {
    /// The leaf's compressed matrix (entries carry time offsets).
    pub matrix: CompressedMatrix,
    /// Overflow blocks chained to this leaf (empty when the optimisation is
    /// disabled or never needed).
    pub overflow: OverflowChain,
    /// Timestamp of the first edge stored in this leaf; offsets are relative
    /// to it.
    pub start_time: Timestamp,
    /// Timestamp of the last edge stored in this leaf.
    pub end_time: Timestamp,
    /// Number of stream items absorbed by this leaf (matrix + overflow).
    pub items: u64,
}

impl LeafNode {
    /// Creates an empty leaf starting at `start_time`.
    pub fn new(matrix: CompressedMatrix, overflow: OverflowChain, start_time: Timestamp) -> Self {
        Self {
            matrix,
            overflow,
            start_time,
            end_time: start_time,
            items: 0,
        }
    }

    /// The inclusive time range covered by this leaf.
    #[inline]
    pub fn time_range(&self) -> TimeRange {
        TimeRange::new(self.start_time, self.end_time)
    }

    /// Converts an absolute timestamp into this leaf's stored offset
    /// (clamped at `u32::MAX`; offsets are bounded by the leaf's small time
    /// span in practice).
    #[inline]
    pub fn offset_of(&self, t: Timestamp) -> u32 {
        t.saturating_sub(self.start_time).min(u64::from(u32::MAX)) as u32
    }

    /// Converts an absolute query range into an offset filter for this leaf,
    /// or `None` if the range does not overlap the leaf at all.
    #[inline]
    pub fn offset_filter(&self, range: TimeRange) -> Option<(u32, u32)> {
        let overlap = range.intersect(&self.time_range())?;
        Some((self.offset_of(overlap.start), self.offset_of(overlap.end)))
    }

    /// Closes the leaf: seals its matrix and overflow blocks (see
    /// [`CompressedMatrix::seal`]) and returns the matrix's writable slab,
    /// emptied, as the matrix of the next open leaf (see
    /// [`matrix`](crate::matrix)).
    pub(crate) fn close(&mut self) -> CompressedMatrix {
        self.overflow.seal();
        self.matrix.seal_recycling()
    }

    /// Turns the matrix and overflow blocks writable again (the open leaf
    /// after a snapshot restore).
    pub(crate) fn unseal(&mut self) {
        self.matrix.unseal();
        self.overflow.unseal();
    }

    /// Memory footprint in bytes.
    pub fn space_bytes(&self) -> usize {
        self.matrix.space_bytes() + self.overflow.space_bytes() + std::mem::size_of::<Self>()
            - std::mem::size_of::<CompressedMatrix>()
            - std::mem::size_of::<OverflowChain>()
    }
}

/// An internal node: the aggregated matrix of one complete group of θ
/// children, covering their combined time range.
#[derive(Clone, Debug)]
pub struct InternalNode {
    /// The aggregated (timestamp-free) matrix, present once the node's child
    /// group is complete and aggregation has run. `None` while aggregation is
    /// deferred (parallel pipeline).
    pub matrix: Option<CompressedMatrix>,
    /// First timestamp covered by the node's subtree.
    pub start_time: Timestamp,
    /// Last timestamp covered by the node's subtree.
    pub end_time: Timestamp,
}

impl InternalNode {
    /// The inclusive time range covered by this node's subtree.
    pub fn time_range(&self) -> TimeRange {
        TimeRange::new(self.start_time, self.end_time)
    }

    /// Memory footprint in bytes.
    pub fn space_bytes(&self) -> usize {
        self.matrix
            .as_ref()
            .map(CompressedMatrix::space_bytes)
            .unwrap_or(0)
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf() -> LeafNode {
        LeafNode::new(
            CompressedMatrix::new(8, 1, 3, 4),
            OverflowChain::new(4, 3, 4),
            100,
        )
    }

    #[test]
    fn time_range_and_offsets() {
        let mut l = leaf();
        l.end_time = 150;
        assert_eq!(l.time_range(), TimeRange::new(100, 150));
        assert_eq!(l.offset_of(100), 0);
        assert_eq!(l.offset_of(140), 40);
        assert_eq!(l.offset_of(50), 0, "pre-start timestamps clamp to zero");
    }

    #[test]
    fn offset_filter_clips_to_leaf_range() {
        let mut l = leaf();
        l.end_time = 150;
        assert_eq!(l.offset_filter(TimeRange::new(0, 1000)), Some((0, 50)));
        assert_eq!(l.offset_filter(TimeRange::new(120, 130)), Some((20, 30)));
        assert_eq!(l.offset_filter(TimeRange::new(0, 99)), None);
        assert_eq!(l.offset_filter(TimeRange::new(151, 300)), None);
    }

    #[test]
    fn internal_node_range_and_space() {
        let node = InternalNode {
            matrix: None,
            start_time: 5,
            end_time: 25,
        };
        assert_eq!(node.time_range(), TimeRange::new(5, 25));
        assert!(node.space_bytes() >= std::mem::size_of::<InternalNode>());
        let with_matrix = InternalNode {
            matrix: Some(CompressedMatrix::new(16, 2, 3, 4)),
            start_time: 5,
            end_time: 25,
        };
        assert!(with_matrix.space_bytes() > node.space_bytes());
    }

    #[test]
    fn leaf_space_accounts_for_matrix() {
        let l = leaf();
        assert!(l.space_bytes() >= l.matrix.space_bytes());
    }
}
