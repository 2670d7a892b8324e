//! The HIGGS compressed matrix: a `d × d` grid of buckets, each holding up to
//! `b` fingerprinted entries, with the Multiple Mapping Buckets (MMB)
//! optimisation of Section IV-C.
//!
//! # Storage layout
//!
//! Slots are stored **structure-of-arrays**: three parallel columns —
//! packed match keys (`u64`), packed tags (`u64`), and weights (`i64`) —
//! instead of one array of structs. A probe compares keys and tags and
//! accumulates weights; SoA lets each of those streams load as dense,
//! lane-aligned runs, which is what the SIMD sweep kernels
//! ([`higgs_common::simd`]) need. Buckets sit in row-major order
//! (`row · d + col`) in both of the matrix's two forms:
//!
//! * **Writable** — the form [`CompressedMatrix::new`] creates, and the only
//!   one that accepts inserts. The columns are a fixed-stride slab of
//!   `b · d²` slots (bucket `k` owns slots `[k·b, (k+1)·b)`) plus one `u8`
//!   occupancy count per bucket and an identity index (see *Inserting*
//!   below), both boxed so that a sealed matrix carries no room for them.
//!   In the tree only the open leaf and its overflow chain are writable.
//! * **Sealed** — what every closed matrix is. The columns keep only the
//!   occupied slots, in the same bucket order and the same order within
//!   each bucket, plus a sparse, rank-indexed bucket index that costs per
//!   *occupied* bucket: one occupancy bit per bucket, one `u32` count of
//!   the occupied buckets before each 64-bucket word, and one `u32` start
//!   offset per occupied bucket plus an end marker. Bucket `k`'s slots are
//!   found by testing its bit, then taking `j = rank[k / 64] +
//!   popcount(word & bits below k)`: they are `offsets[j]..offsets[j+1]`.
//!   A row is still one contiguous range, from the start of its first
//!   occupied bucket to the end of its last. The side doubles at every
//!   layer while an aggregate holds about as many entries as its children,
//!   so a dense `d² + 1` offset array would cost each layer the same
//!   megabytes however little it held; the index costs 12 bytes per 64
//!   buckets plus 4 per occupied one. The tree seals a leaf and its
//!   overflow blocks when the leaf closes ([`CompressedMatrix::seal`]);
//!   leaves run about 14 % full at paper parameters, so sealing cuts a leaf
//!   matrix to about a fifth of its writable size. Deletes still work on a
//!   sealed matrix (they only change weights); an insert into one first
//!   turns it writable again (the crate-private `unseal`, which rebuilds
//!   the identity index).
//!
//! # Inserting
//!
//! An entry's *identity* is its base address pair (the addresses reduced
//! modulo the side), its fingerprint pair and its time offset. The LCG
//! step is invertible, so a bucket plus the stored index pair `(i, j)`
//! fixes the base addresses ([`AddressSequence::base_of`]): every entry
//! with a given identity sits in one of that identity's `r × r` candidate
//! buckets, and an insert finding an equal identity there accumulates
//! instead of adding a second entry. So each identity is held at most once.
//!
//! A writable matrix indexes its entries by identity in an open-addressing
//! table of `u32` slot positions: a power of two at least `2 · b · d²`
//! long, so never more than half full, probed linearly from a
//! multiply-shift hash. An insert with a time offset makes one probe
//! sequence there instead of scanning the `r²` candidate buckets for a
//! match. On a miss it walks the candidates in `(i, j)` order and places
//! the entry in the first bucket with room, as the scan did; entries are
//! never removed, so the index needs no tombstones. An insert without an
//! offset (the dense aggregate reference) matches any offset and so keeps
//! the candidate scan, using the index only to file a new entry. Sealing
//! drops the index; unsealing rebuilds it from the occupied slots.
//!
//! When a leaf closes, the crate-private `seal_recycling` compacts it with
//! the same code as [`CompressedMatrix::seal`], then clears only the
//! slots it used, its counts and its index, and hands the slab on to the
//! next open leaf, so no leaf allocates or bulk-zeroes a slab of its own.
//!
//! # Building aggregates
//!
//! An aggregate is built straight into the sealed form by the crate-private
//! `AggregateBuilder`, so no `b · d²` slab is allocated, zeroed and scanned
//! only to keep its occupied slots. The builder holds one `u32` head per
//! bucket, one occupancy bit per bucket, the entries in arrival order (key,
//! index pair, weight and a `u32` link to the next entry of the same
//! bucket), and the spill list. Its insert makes the same fused `r × r`
//! candidate scan as [`CompressedMatrix::insert_aggregated`], so every
//! entry lands where a dense build would put it: an entry with the same
//! key and index pair accumulates, a new one joins the first candidate
//! bucket holding fewer than `b` entries, and with every candidate full it
//! goes to the same exact spill list. A bucket's first entry sets its bit.
//! Each bucket's chain is in arrival order, the order a writable bucket
//! keeps, so one walk over the *set bits*, not over all `d²` heads, emits
//! the same columns and bucket index that [`CompressedMatrix::seal`] would
//! after a dense build. `insert_aggregated` and `seal` remain the public
//! API and the reference the builder is tested against. Reading a sealed
//! child back ([`CompressedMatrix::entries`]) likewise walks its slots and
//! takes each next bucket from the set bits, with no per-slot bucket list.
//!
//! Per slot, the match key packs the fingerprint pair into one `u64`
//! (`fp_src` in the high half, `fp_dst` in the low half — exact, since
//! fingerprints are at most 32 bits each), and the tag packs the MMB index
//! pair into bits 32..48 with the time offset in the low 32 bits. A
//! candidate scan therefore compares one `u64` and one masked `u64` per
//! slot.
//!
//! # The empty-slots-are-zero invariant (writable matrices)
//!
//! In a writable matrix, never-occupied slots hold all-zero key, tag, and
//! **weight**. Entries are never physically removed (deletion only
//! decrements weights), so every slot past a bucket's occupancy count stays
//! all-zero until the matrix is sealed. An empty slot can at worst match an
//! all-zero pattern and then contributes zero weight, so a sweep over a
//! whole `d · b`-slot row answers exactly like an occupancy-bounded scan.
//! Sealed matrices store no empty slots, so the invariant has nothing left
//! to cover there. Mutating scans (insert, delete) always honour occupancy:
//! they must find *real* entries, not zero-weight ghosts.
//!
//! # Probing
//!
//! Every operation precomputes its `r` candidate rows and columns once with
//! an iterative LCG walk ([`AddressSequence::fill_sequence`]) into small
//! stack arrays; the `r × r` candidate loops then index those arrays. Every
//! matrix side is a power of two, so reducing an address modulo the side is
//! a mask.
//!
//! Query kernels ask one accessor for the slots to sweep, so the same code
//! serves both forms: an edge probe and each step of a destination-column
//! walk sweep one bucket's occupied slots, and a source-vertex probe sweeps
//! one contiguous range per candidate row — the row's occupied slots when
//! sealed, the whole `d · b`-slot row when writable (exact by the invariant
//! above). Each nonempty sweep is one [`sum_matching`] call, which picks
//! the scalar or vector kernel itself. In a sealed matrix most probed
//! buckets are empty, and the bucket's occupancy bit says so from one index
//! word, so such a bucket costs neither an offset read nor a sweep; a
//! destination-column walk therefore prefetches the index words a few rows
//! ahead rather than the slots.
//!
//! Query paths accept a reusable `ProbeScratch` that memoises the last
//! `(side, base address)` candidate fill — the columnar batch evaluator
//! sweeps address-sorted probe sets where consecutive probes share
//! endpoints, so most fills are skipped entirely.
//!
//! Leaf matrices store a per-entry time offset relative to the matrix's start
//! time; aggregated (non-leaf) matrices store no temporal information
//! (Section IV-A). Every entry also records the index pair `(i, j)` of the
//! mapping-bucket it occupies so that queries and aggregation can attribute
//! it to the correct base address.

use higgs_common::hashing::AddressSequence;
use higgs_common::simd::{prefetch_read_data, sum_matching};
use std::borrow::Cow;
use std::ops::Range;

/// Maximum number of MMB mapping addresses per vertex: index pairs are
/// stored as two 8-bit halves of a `u16` and candidate addresses live in
/// fixed stack arrays of this size. [`HiggsConfig`](crate::HiggsConfig)
/// validates the same bound.
pub const MAX_MAPPING: usize = 16;

/// One stored edge record: the fingerprint pair, the MMB index pair, the
/// time offset (leaf matrices only; 0 in aggregated matrices), and the
/// accumulated weight.
///
/// This is the public *view* of a slot; internally the slab is
/// structure-of-arrays with packed keys and tags (see the module docs), and
/// [`CompressedMatrix::entries`] materialises `Entry` values on the fly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Source fingerprint at this matrix's layer.
    pub fp_src: u32,
    /// Destination fingerprint at this matrix's layer.
    pub fp_dst: u32,
    /// Index of the source mapping address used (`i` of the index pair).
    pub idx_src: u8,
    /// Index of the destination mapping address used (`j` of the index pair).
    pub idx_dst: u8,
    /// Timestamp offset relative to the matrix's start time (leaf layer only).
    pub time_offset: u32,
    /// Accumulated weight (signed so deletions cannot wrap).
    pub weight: i64,
}

/// A query-time filter on entry time offsets (inclusive bounds). `None`
/// disables temporal filtering (non-leaf matrices).
pub type OffsetFilter = Option<(u32, u32)>;

/// One occupied slot, materialised from the three SoA columns: the packed
/// match key plus payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Slot {
    /// `fp_src` in the high 32 bits, `fp_dst` in the low 32 bits.
    pub(crate) key: u64,
    /// `idx_src` in the high byte, `idx_dst` in the low byte.
    pub(crate) idx: u16,
    /// Timestamp offset relative to the matrix's start time (leaf layer only).
    pub(crate) time_offset: u32,
    /// Accumulated weight.
    pub(crate) weight: i64,
}

#[inline]
fn pack_key(fp_src: u32, fp_dst: u32) -> u64 {
    (u64::from(fp_src) << 32) | u64::from(fp_dst)
}

#[inline]
fn pack_idx(i: usize, j: usize) -> u16 {
    ((i as u16) << 8) | j as u16
}

/// Packs the MMB index pair and time offset into a tag word: index pair in
/// bits 32..48, offset in the low 32 bits (the layout
/// [`higgs_common::sum_matching`] range-checks offsets against).
/// Crate-visible so the snapshot codec can rebuild tags from its index-pair
/// and offset columns.
#[inline]
pub(crate) fn pack_tag(idx: u16, time_offset: u32) -> u64 {
    (u64::from(idx) << 32) | u64::from(time_offset)
}

/// Splits a tag word back into its index pair and time offset (the inverse
/// of [`pack_tag`]).
#[inline]
pub(crate) fn unpack_tag(tag: u64) -> (u16, u32) {
    ((tag >> 32) as u16, tag as u32)
}

/// Tag bits holding the full index pair.
const TAG_IDX_MASK: u64 = 0xFFFF_0000_0000;
/// Tag bits holding the source half of the index pair.
const TAG_SRC_MASK: u64 = 0xFF00_0000_0000;
/// Tag bits holding the destination half of the index pair.
const TAG_DST_MASK: u64 = 0x00FF_0000_0000;
/// Key bits holding the source fingerprint.
const KEY_SRC_MASK: u64 = 0xFFFF_FFFF_0000_0000;
/// Key bits holding the destination fingerprint.
const KEY_DST_MASK: u64 = 0x0000_0000_FFFF_FFFF;

/// Inclusive offset bounds of a filter; `None` admits every offset.
#[inline]
fn filter_bounds(filter: OffsetFilter) -> (u32, u32) {
    filter.unwrap_or((0, u32::MAX))
}

/// A spilled aggregation entry: kept outside the bucket grid when every
/// candidate bucket of an aggregation insert is full. Spills are rare (the
/// parent has the same total capacity as its children) but must preserve
/// exact attribution so that aggregation never loses weight for any edge.
/// Crate-visible so the snapshot codec can persist spills verbatim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SpillEntry {
    pub(crate) addr_src: u64,
    pub(crate) addr_dst: u64,
    pub(crate) fp_src: u32,
    pub(crate) fp_dst: u32,
    pub(crate) weight: i64,
}

/// Memoised candidate-address fill for one probe endpoint: caches the last
/// `(side, mapping, base)` LCG sequence so that consecutive probes sharing
/// an endpoint skip the refill entirely.
#[derive(Clone, Copy, Debug)]
struct CachedSeq {
    side: u64,
    mapping: u32,
    base: u64,
    valid: bool,
    cands: [u64; MAX_MAPPING],
}

impl CachedSeq {
    const fn new() -> Self {
        Self {
            side: 0,
            mapping: 0,
            base: 0,
            valid: false,
            cands: [0; MAX_MAPPING],
        }
    }

    /// The first `mapping` candidate addresses for `base`, refilled only on
    /// a cache miss. The LCG constants are global, so a `(side, mapping,
    /// base mod side)` key identifies the sequence across matrices — one
    /// scratch serves a leaf matrix *and* its overflow blocks *and* every
    /// other same-side matrix in a sweep.
    // LINT-ALLOW(hot-path-panic): `mapping <= MAX_MAPPING` is asserted at
    // matrix construction, so `cands[..mapping]` is always in bounds.
    #[inline]
    fn candidates(&mut self, seq: &AddressSequence, side: u64, mapping: u32, base: u64) -> &[u64] {
        let base = base & (side - 1);
        if !(self.valid && self.side == side && self.mapping == mapping && self.base == base) {
            seq.fill_sequence(base, &mut self.cands[..mapping as usize]);
            self.side = side;
            self.mapping = mapping;
            self.base = base;
            self.valid = true;
        }
        &self.cands[..self.mapping as usize]
    }
}

/// Reusable candidate-address scratch for probe sweeps: one cached LCG fill
/// per endpoint role (row / column). The columnar batch evaluator allocates
/// one per group and threads it through every probe of every target, so the
/// per-probe `fill_sequence` of the row-wise path amortises away whenever
/// consecutive (address-sorted) probes share endpoints.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ProbeScratch {
    rows: CachedSeq,
    cols: CachedSeq,
}

impl ProbeScratch {
    pub(crate) const fn new() -> Self {
        Self {
            rows: CachedSeq::new(),
            cols: CachedSeq::new(),
        }
    }
}

impl Default for ProbeScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Where each bucket's slots sit in the columns — the one thing that tells
/// the two forms of a matrix apart (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Occupancy {
    /// Writable: bucket `k` owns the fixed-stride slots `[k·b, (k+1)·b)`,
    /// of which the first `counts[k]` are occupied. Boxed, so the enum is no
    /// larger than the sealed variant.
    Writable(Box<Writable>),
    /// Sealed: the columns hold only occupied slots, and the sparse bucket
    /// index says which buckets hold any and where. Each bucket spans at
    /// most `b` slots.
    Sealed(BucketIndex),
}

/// Buckets per occupancy word of a [`BucketIndex`].
const WORD: usize = 64;

/// A sealed matrix's sparse bucket index: where each bucket's slots sit in
/// the compacted columns, at a cost per *occupied* bucket (see the module
/// docs).
///
/// One `u32` vector. For each 64-bucket word `w` (`⌈d²/64⌉` of them), at
/// `3w..3w + 3`: the word's occupancy bits (bucket `64w + i` is bit `i`;
/// low half, then high half) and the number of occupied buckets in the
/// words before it. From `3 · ⌈d²/64⌉` on: the start offset of each
/// occupied bucket, in bucket order, then the end marker `stored`. A bit is
/// set exactly when its bucket holds a slot, so the offsets strictly rise.
#[derive(Clone, Debug, PartialEq, Eq)]
struct BucketIndex(Vec<u32>);

// Bounds: an index over `buckets` buckets holds `3 · ⌈buckets/64⌉` word
// entries and then one offset per set bit plus the end marker. Callers pass
// `buckets = d²` and bucket numbers `< d²`, so the word triple of `k / 64`
// and the offsets at every rank up to the set-bit count are in bounds.
impl BucketIndex {
    /// The words and ranks over `bits` (one occupancy word per 64
    /// buckets), with room for exactly one offset per set bit plus the end
    /// marker, none of them pushed yet: the constructors push them with
    /// [`push_offset`](Self::push_offset), in bucket order.
    fn from_bits(bits: &[u64]) -> Self {
        let occupied: usize = bits.iter().map(|w| w.count_ones() as usize).sum();
        let mut index = Vec::with_capacity(3 * bits.len() + occupied + 1);
        let mut before = 0u32;
        for &word in bits {
            index.extend([word as u32, (word >> 32) as u32, before]);
            // Fits: the occupied buckets are at most the stored slots,
            // which every constructor keeps within `u32`.
            before = before.wrapping_add(word.count_ones());
        }
        Self(index)
    }

    /// Appends the next offset: an occupied bucket's start, or the end
    /// marker.
    #[inline(always)]
    fn push_offset(&mut self, offset: u32) {
        self.0.push(offset);
    }

    /// The occupancy bits of word `w` and the occupied buckets before it.
    // LINT-ALLOW(hot-path-panic): see the bounds note above the `impl`.
    #[inline(always)]
    fn word(&self, w: usize) -> (u64, usize) {
        let word = &self.0[3 * w..3 * w + 3];
        (
            u64::from(word[0]) | (u64::from(word[1]) << 32),
            word[2] as usize,
        )
    }

    /// The offsets: one per occupied bucket, then the end marker.
    // LINT-ALLOW(hot-path-panic): see the bounds note above the `impl`.
    #[inline(always)]
    fn offsets(&self, buckets: usize) -> &[u32] {
        &self.0[3 * buckets.div_ceil(WORD)..]
    }

    /// Bucket `k`'s rank, the number of occupied buckets before it, and
    /// whether it is occupied itself (0 or 1).
    #[inline(always)]
    fn rank(&self, k: usize) -> (usize, usize) {
        let (bits, before) = self.word(k / WORD);
        let bit = k % WORD;
        let below = bits & ((1u64 << bit) - 1);
        (
            before + below.count_ones() as usize,
            ((bits >> bit) & 1) as usize,
        )
    }

    /// Bucket `k`'s slots, `0..0` when it holds none: the bit is tested
    /// first, so an empty bucket costs one word read.
    // LINT-ALLOW(hot-path-panic): see the bounds note above the `impl`; a
    // set bit's rank is below the set-bit count, so its offset and the next
    // one (at worst the end marker) exist.
    #[inline(always)]
    fn range(&self, buckets: usize, k: usize) -> Range<usize> {
        let (bits, before) = self.word(k / WORD);
        let bit = k % WORD;
        if (bits >> bit) & 1 == 0 {
            return 0..0;
        }
        let j = before + (bits & ((1u64 << bit) - 1)).count_ones() as usize;
        let bounds = &self.offsets(buckets)[j..j + 2];
        bounds[0] as usize..bounds[1] as usize
    }

    /// The slots of buckets `first..=last`, one contiguous range.
    // LINT-ALLOW(hot-path-panic): see the bounds note above the `impl`.
    #[inline(always)]
    fn span(&self, buckets: usize, first: usize, last: usize) -> Range<usize> {
        let (from, _) = self.rank(first);
        let (to, occupied) = self.rank(last);
        let offsets = self.offsets(buckets);
        offsets[from] as usize..offsets[to + occupied] as usize
    }

    /// Where bucket `k`'s slots start (the next occupied bucket's start
    /// when it holds none).
    // LINT-ALLOW(hot-path-panic): see the bounds note above the `impl`.
    #[inline(always)]
    fn start(&self, buckets: usize, k: usize) -> usize {
        self.offsets(buckets)[self.rank(k).0] as usize
    }

    /// Calls `f` with each occupied bucket, in bucket order, and its slots.
    // LINT-ALLOW(hot-path-panic): see the bounds note above the `impl`.
    #[inline]
    fn for_each_occupied(&self, buckets: usize, mut f: impl FnMut(usize, Range<usize>)) {
        let offsets = self.offsets(buckets);
        let mut j = 0;
        for w in 0..buckets.div_ceil(WORD) {
            let (mut bits, _) = self.word(w);
            while bits != 0 {
                let k = w * WORD + bits.trailing_zeros() as usize;
                f(k, offsets[j] as usize..offsets[j + 1] as usize);
                bits &= bits - 1;
                j += 1;
            }
        }
    }

    /// Appends each of the `buckets` buckets' slot count, in bucket order,
    /// to `out`: the dense per-bucket table the snapshot format stores.
    // LINT-ALLOW(hot-path-panic): `for_each_occupied` yields buckets
    // `< buckets`, the length of the zero-filled tail.
    fn extend_lens(&self, buckets: usize, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + buckets, 0);
        let lens = &mut out[start..];
        // Each bucket spans at most `bucket_entries <= 255` slots.
        self.for_each_occupied(buckets, |bucket, slots| lens[bucket] = slots.len() as u8);
    }

    /// Bytes allocated.
    fn space_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<u32>()
    }
}

/// The occupancy bits of `lens`, a per-bucket slot count: one word per 64
/// buckets, bit `i` of word `w` set when bucket `64w + i` holds a slot.
fn occupancy_bits(lens: &[u8]) -> Vec<u64> {
    lens.chunks(WORD)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .fold(0u64, |bits, (i, &len)| bits | (u64::from(len != 0) << i))
        })
        .collect()
}

/// Calls `f` with the number of each set bit of `bits`, in order: bit `i`
/// of word `w` is number `64w + i`.
#[inline]
fn for_each_set_bit(bits: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in bits.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w * WORD + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// The bookkeeping only a writable matrix keeps: per-bucket occupancy and
/// the identity index (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Writable {
    /// Occupied slots per bucket, indexed by `row · d + col`.
    counts: Vec<u8>,
    /// Open-addressing table from entry identity to `1 +` the entry's slot
    /// position (0 = vacant). Its length is a power of two at least twice
    /// the slot count, so it is never more than half full.
    index: Vec<u32>,
}

impl Writable {
    /// Empty bookkeeping for `buckets` buckets of `bucket_entries` slots.
    fn new(buckets: usize, bucket_entries: usize) -> Box<Self> {
        let slots = buckets * bucket_entries;
        // Positions are stored `1 +` as `u32`. A slab this large would need
        // over 96 GiB, so the bound never binds in practice.
        assert!(
            slots < u32::MAX as usize,
            "a writable matrix holds fewer than 2^32 slots"
        );
        Box::new(Self {
            counts: vec![0; buckets],
            index: vec![0; (2 * slots).next_power_of_two()],
        })
    }
}

/// A writable matrix's key, tag and weight columns and its bookkeeping, as
/// sealing hands them back.
type Slab = (Vec<u64>, Vec<u64>, Vec<i64>, Box<Writable>);

/// A sealed matrix's key, tag and weight columns and its bucket index.
type SealedParts = (Vec<u64>, Vec<u64>, Vec<i64>, BucketIndex);

/// A matrix's content in the sealed form, borrowed from a sealed matrix and
/// compacted from a writable one: what the snapshot codec persists. The
/// snapshot format keeps its dense table of one slot count per bucket;
/// [`extend_lens`](Self::extend_lens) derives it from the sparse index.
#[derive(Debug)]
pub(crate) struct SealedColumns<'a> {
    /// The number of buckets, `d²`.
    buckets: usize,
    /// The sparse bucket index into the columns; the snapshot reads the
    /// per-bucket slot counts from it (see [`extend_lens`](Self::extend_lens)).
    index: Cow<'a, BucketIndex>,
    /// Packed fingerprint pairs, one per occupied slot, in bucket order.
    pub(crate) keys: Cow<'a, [u64]>,
    /// Packed index pairs and time offsets (see [`pack_tag`]).
    pub(crate) tags: Cow<'a, [u64]>,
    /// Accumulated weights.
    pub(crate) weights: Cow<'a, [i64]>,
}

impl SealedColumns<'_> {
    /// Appends the `d²` per-bucket slot counts, in bucket order, to `out`.
    pub(crate) fn extend_lens(&self, out: &mut Vec<u8>) {
        self.index.extend_lens(self.buckets, out);
    }
}

/// Hash of an entry identity: the packed fingerprint pair, the wrapped base
/// addresses and the time offset, mixed by two multiplications (the table
/// indexes by the product's top bits).
#[inline]
fn identity_hash(key: u64, base_src: u64, base_dst: u64, offset: u32) -> u64 {
    let place = (base_src << 40) ^ (base_dst << 20) ^ u64::from(offset);
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(place)
        .wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

/// The HIGGS compressed matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompressedMatrix {
    side: u64,
    layer: u32,
    bucket_entries: usize,
    mapping: u32,
    seq: AddressSequence,
    /// Packed fingerprint pairs, one per slot, in bucket order; which slots
    /// belong to which bucket is `occupancy`'s business. Parallel to `tags`
    /// and `weights`.
    keys: Vec<u64>,
    /// Packed index pair (bits 32..48) and time offset (low 32 bits).
    tags: Vec<u64>,
    /// Accumulated signed weights. In a writable matrix, zero for every
    /// never-occupied slot — the invariant that lets row sweeps ignore
    /// occupancy counts.
    weights: Vec<i64>,
    occupancy: Occupancy,
    spill: Vec<SpillEntry>,
    stored: usize,
}

impl CompressedMatrix {
    /// Creates an empty, writable matrix of `side × side` buckets at tree
    /// layer `layer`, with `bucket_entries` entries per bucket and `mapping`
    /// candidate addresses per vertex.
    pub fn new(side: u64, layer: u32, bucket_entries: usize, mapping: u32) -> Self {
        assert_geometry(side, bucket_entries, mapping);
        let buckets = (side * side) as usize;
        let slots = buckets * bucket_entries;
        Self {
            side,
            layer,
            bucket_entries,
            mapping,
            seq: AddressSequence::new(side),
            keys: vec![0u64; slots],
            tags: vec![0u64; slots],
            weights: vec![0i64; slots],
            occupancy: Occupancy::Writable(Writable::new(buckets, bucket_entries)),
            spill: Vec::new(),
            stored: 0,
        }
    }

    /// Matrix side length `d`.
    pub fn side(&self) -> u64 {
        self.side
    }

    /// Tree layer this matrix belongs to (1 = leaf layer).
    pub fn layer(&self) -> u32 {
        self.layer
    }

    /// Number of entries currently stored.
    pub fn stored(&self) -> usize {
        self.stored
    }

    /// Nominal maximum number of entries (`b · d²`), in either form: a
    /// sealed matrix stores fewer slots but keeps the paper's capacity.
    pub fn capacity(&self) -> usize {
        self.buckets() * self.bucket_entries
    }

    /// Fraction of entry slots in use (the utilisation rate of Section V-A),
    /// always over the nominal `b · d²` capacity.
    pub fn utilization(&self) -> f64 {
        self.stored as f64 / self.capacity() as f64
    }

    /// Whether the matrix holds no entries.
    pub fn is_empty(&self) -> bool {
        self.stored == 0
    }

    /// Whether the matrix is sealed: compacted to its occupied slots (see
    /// the module docs).
    pub fn is_sealed(&self) -> bool {
        matches!(self.occupancy, Occupancy::Sealed(_))
    }

    /// Number of aggregation entries that spilled outside the bucket grid
    /// because every candidate bucket was full (diagnostic; always zero for
    /// leaf usage and zero whenever the parent capacity suffices).
    pub fn spill_len(&self) -> usize {
        self.spill.len()
    }

    /// Total stored weight (bucket entries plus spilled entries).
    pub fn total_weight(&self) -> i64 {
        // A writable matrix's empty slots weigh zero, so the whole columns
        // sum to the occupied slots' weight in either form.
        self.weights.iter().sum::<i64>() + self.spill.iter().map(|e| e.weight).sum::<i64>()
    }

    /// Number of buckets, `d²`.
    #[inline]
    fn buckets(&self) -> usize {
        (self.side * self.side) as usize
    }

    /// `addr` reduced modulo the power-of-two side.
    #[inline]
    fn wrap(&self, addr: u64) -> u64 {
        addr & (self.side - 1)
    }

    /// Seals the matrix: keeps only the occupied slots, in bucket order, and
    /// replaces the occupancy counts with per-bucket start offsets (see the
    /// module docs). Answers, [`entries`](Self::entries) order and
    /// [`capacity`](Self::capacity) are unchanged. A no-op on a sealed
    /// matrix, and on one whose slot count does not fit the `u32` offsets.
    pub fn seal(&mut self) {
        // The writable slab and its bookkeeping are dropped here.
        let _ = self.seal_returning_slab();
    }

    /// Seals the matrix like [`seal`](Self::seal) and returns its writable
    /// slab, emptied, as a fresh matrix of the same geometry: the next open
    /// leaf. Only the slots this matrix used are cleared, with its counts
    /// and index, so the slab keeps the empty-slots-are-zero invariant and
    /// nothing is allocated or zeroed in bulk. Where `seal` would be a
    /// no-op, the matrix stays as it is and the fresh one is newly
    /// allocated.
    // LINT-ALLOW(hot-path-panic): a writable bucket `k` has
    // `counts[k] <= bucket_entries`, so `k·b .. k·b + counts[k]` lies inside
    // the `b · d²`-slot columns.
    pub(crate) fn seal_recycling(&mut self) -> Self {
        let Some((mut keys, mut tags, mut weights, mut writable)) = self.seal_returning_slab()
        else {
            return Self::new(self.side, self.layer, self.bucket_entries, self.mapping);
        };
        let b = self.bucket_entries;
        for (bucket, &len) in writable.counts.iter().enumerate() {
            for p in bucket * b..bucket * b + len as usize {
                keys[p] = 0;
                tags[p] = 0;
                weights[p] = 0;
            }
        }
        writable.counts.fill(0);
        writable.index.fill(0);
        Self {
            side: self.side,
            layer: self.layer,
            bucket_entries: b,
            mapping: self.mapping,
            seq: self.seq,
            keys,
            tags,
            weights,
            occupancy: Occupancy::Writable(writable),
            spill: Vec::new(),
            stored: 0,
        }
    }

    /// The compaction both [`seal`](Self::seal) and `seal_recycling` run:
    /// copies the occupied slots, in bucket order, into exactly-sized
    /// columns with their bucket index ([`compacted`](Self::compacted)),
    /// installs them, and returns the writable columns and bookkeeping it
    /// replaced. `None`, leaving the matrix unchanged, when it is sealed
    /// already or its slot count does not fit the `u32` offsets.
    fn seal_returning_slab(&mut self) -> Option<Slab> {
        let Occupancy::Writable(writable) = &self.occupancy else {
            return None;
        };
        u32::try_from(self.stored).ok()?;
        let (keys, tags, weights, index) = self.compacted(writable);
        self.spill.shrink_to_fit();
        let Occupancy::Writable(writable) =
            std::mem::replace(&mut self.occupancy, Occupancy::Sealed(index))
        else {
            return None;
        };
        Some((
            std::mem::replace(&mut self.keys, keys),
            std::mem::replace(&mut self.tags, tags),
            std::mem::replace(&mut self.weights, weights),
            writable,
        ))
    }

    /// The sealed form's columns of a writable matrix with bookkeeping
    /// `writable`: the occupied slots, in bucket order, in exactly-sized
    /// columns, and their bucket index. One pass over the counts builds the
    /// index; only the occupied buckets it names are visited to copy their
    /// slots.
    // LINT-ALLOW(hot-path-panic): a writable bucket `k` has
    // `counts[k] <= bucket_entries`, so `k·b .. k·b + counts[k]` lies inside
    // the `b · d²`-slot columns.
    #[inline(always)]
    fn compacted(&self, writable: &Writable) -> SealedParts {
        let b = self.bucket_entries;
        let mut keys = Vec::with_capacity(self.stored);
        let mut tags = Vec::with_capacity(self.stored);
        let mut weights = Vec::with_capacity(self.stored);
        // The counts sum to `stored`, which `Writable::new` keeps below
        // `u32::MAX`.
        let index = index_of_lens(&writable.counts);
        index.for_each_occupied(self.buckets(), |bucket, slots| {
            // Slot by slot: a bucket holds a few slots, and a slice copy
            // per bucket costs a call.
            for p in bucket * b..bucket * b + slots.len() {
                keys.push(self.keys[p]);
                tags.push(self.tags[p]);
                weights.push(self.weights[p]);
            }
        });
        debug_assert_eq!(keys.len(), self.stored);
        (keys, tags, weights, index)
    }

    /// Turns a sealed matrix writable again: scatters each bucket's slots
    /// back to its fixed-stride position, zero-filling the rest, and
    /// rebuilds the identity index from the occupied slots. A no-op on a
    /// writable matrix.
    // LINT-ALLOW(hot-path-panic): a sealed matrix's index gives each
    // occupied bucket `< d²` at most `bucket_entries` slots inside the
    // columns, so both the source range and its `k·b` destination are in
    // bounds.
    pub(crate) fn unseal(&mut self) {
        let Occupancy::Sealed(index) = &self.occupancy else {
            return;
        };
        let b = self.bucket_entries;
        let slots = self.capacity();
        let mut keys = vec![0u64; slots];
        let mut tags = vec![0u64; slots];
        let mut weights = vec![0i64; slots];
        let mut writable = Writable::new(self.buckets(), b);
        index.for_each_occupied(self.buckets(), |bucket, from| {
            let at = bucket * b;
            let to = at + from.len();
            keys[at..to].copy_from_slice(&self.keys[from.clone()]);
            tags[at..to].copy_from_slice(&self.tags[from.clone()]);
            weights[at..to].copy_from_slice(&self.weights[from.clone()]);
            writable.counts[bucket] = from.len() as u8;
        });
        self.keys = keys;
        self.tags = tags;
        self.weights = weights;
        self.occupancy = Occupancy::Writable(writable);
        self.rebuild_index();
    }

    /// Files every occupied slot of a writable matrix in its empty index,
    /// recovering each entry's base addresses from its bucket and index
    /// pair. A valid matrix holds each identity once; should a corrupt one
    /// hold it twice, the first slot in bucket order is kept.
    // LINT-ALLOW(hot-path-panic): every occupied slot lies in a bucket
    // `< d²`, and `find` returns vacancies inside the index.
    fn rebuild_index(&mut self) {
        let Occupancy::Writable(writable) = &mut self.occupancy else {
            return;
        };
        let mut index = std::mem::take(&mut writable.index);
        for bucket in 0..self.buckets() {
            for p in self.bucket_range(bucket) {
                let tag = self.tags[p];
                let (rows, cols) = self.base_candidates(bucket, (tag >> 32) as u16);
                if let Err(vacancy) = self.find(&index, self.keys[p], tag as u32, &rows, &cols) {
                    // Fits: `Writable::new` keeps every position below
                    // `u32::MAX`.
                    index[vacancy] = p as u32 + 1;
                }
            }
        }
        if let Occupancy::Writable(writable) = &mut self.occupancy {
            writable.index = index;
        }
    }

    /// The candidate rows and columns of the base addresses of an entry
    /// stored in `bucket` (`< d²`) with index pair `idx`: the LCG steps the
    /// index pair records, undone.
    fn base_candidates(&self, bucket: usize, idx: u16) -> ([u64; MAX_MAPPING], [u64; MAX_MAPPING]) {
        let row = bucket as u64 >> self.side.trailing_zeros();
        let base_src = self.seq.base_of(row, u32::from(idx >> 8));
        let base_dst = self
            .seq
            .base_of(self.wrap(bucket as u64), u32::from(idx & 0xFF));
        (
            candidates(&self.seq, self.mapping, base_src),
            candidates(&self.seq, self.mapping, base_dst),
        )
    }

    /// Looks up the entry with identity `(rows[0], cols[0], key, offset)`
    /// in `index`, this writable matrix's identity index, where `rows` and
    /// `cols` are the base addresses' candidates: `Ok` with its slot
    /// position, or `Err` with the vacant index position where it belongs.
    ///
    /// A slot matches when its key and offset are equal and its bucket is
    /// the candidate bucket its index pair names, which pins its base
    /// addresses to the identity's (see the module docs).
    // LINT-ALLOW(hot-path-panic): index positions are masked to the
    // power-of-two table length, and every filed position is an occupied
    // slot inside the columns.
    #[inline]
    fn find(
        &self,
        index: &[u32],
        key: u64,
        offset: u32,
        rows: &[u64; MAX_MAPPING],
        cols: &[u64; MAX_MAPPING],
    ) -> Result<usize, usize> {
        let (m, b) = (self.mapping as usize, self.bucket_entries);
        let mask = index.len() - 1;
        // The product's top bits: `64 - log2(len)` is the shift.
        let hash = identity_hash(key, rows[0], cols[0], offset);
        let mut at = (hash >> (64 - index.len().trailing_zeros())) as usize;
        loop {
            let link = index[at];
            if link == 0 {
                return Err(at);
            }
            let p = link as usize - 1;
            let tag = self.tags[p];
            let (i, j) = ((tag >> 40) as usize & 0xFF, (tag >> 32) as usize & 0xFF);
            if self.keys[p] == key && tag as u32 == offset && i < m && j < m {
                let bucket = (rows[i] * self.side + cols[j]) as usize;
                if p.wrapping_sub(bucket * b) < b {
                    return Ok(p);
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// The occupied slots of bucket `bucket` (`< d²`), in either form; an
    /// empty range (not necessarily at the bucket's place) when it has none.
    ///
    /// This and the other per-bucket helpers below are `inline(always)`:
    /// every probe loop calls them once per bucket, and left to the
    /// optimiser they cost edge probes about a fifth of their speed.
    // LINT-ALLOW(hot-path-panic): callers pass `bucket < d²` (an LCG
    // `(row, col)` pair or an enumeration of the buckets); writable matrices
    // hold `d²` counts and sealed ones an index over `d²` buckets.
    #[inline(always)]
    fn bucket_range(&self, bucket: usize) -> Range<usize> {
        match &self.occupancy {
            Occupancy::Writable(writable) => {
                let start = bucket * self.bucket_entries;
                start..start + writable.counts[bucket] as usize
            }
            Occupancy::Sealed(index) => index.range(self.buckets(), bucket),
        }
    }

    /// The contiguous slots covering row `row` (`< d`): the occupied ones
    /// when sealed, the whole zero-padded `d · b`-slot row when writable.
    #[inline(always)]
    fn row_range(&self, row: u64) -> Range<usize> {
        let first = (row * self.side) as usize;
        let last = first + self.side as usize;
        match &self.occupancy {
            Occupancy::Writable(_) => first * self.bucket_entries..last * self.bucket_entries,
            Occupancy::Sealed(index) => index.span(self.buckets(), first, last - 1),
        }
    }

    /// The first slot of bucket `bucket`, for prefetch hints only: buckets
    /// past the grid map past the columns, where a prefetch does nothing.
    #[inline(always)]
    fn bucket_start(&self, bucket: usize) -> usize {
        match &self.occupancy {
            Occupancy::Writable(_) => bucket * self.bucket_entries,
            Occupancy::Sealed(_) if bucket >= self.buckets() => usize::MAX,
            Occupancy::Sealed(index) => index.start(self.buckets(), bucket),
        }
    }

    /// Sums the weights of the slots in `slots` that match the patterns
    /// (one [`sum_matching`] sweep over the three columns; none for an
    /// empty range, which most probed buckets of a sealed matrix are).
    // LINT-ALLOW(hot-path-panic): `slots` comes from `bucket_range` or
    // `row_range`, which stay inside the columns.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn sweep(
        &self,
        slots: Range<usize>,
        key_mask: u64,
        key_pat: u64,
        tag_mask: u64,
        tag_pat: u64,
        lo: u32,
        hi: u32,
    ) -> i64 {
        if slots.is_empty() {
            return 0;
        }
        sum_matching(
            &self.keys[slots.clone()],
            &self.tags[slots.clone()],
            &self.weights[slots],
            key_mask,
            key_pat,
            tag_mask,
            tag_pat,
            lo,
            hi,
        )
    }

    /// Materialises the slot view of position `p`.
    // LINT-ALLOW(hot-path-panic): callers derive `p` from a bucket's
    // occupied range (`bucket_range`), which lies inside the columns.
    #[inline]
    fn slot_at(&self, p: usize) -> Slot {
        Slot {
            key: self.keys[p],
            idx: (self.tags[p] >> 32) as u16,
            time_offset: self.tags[p] as u32,
            weight: self.weights[p],
        }
    }

    /// Tries to insert (or accumulate) an entry. Returns `false` if every
    /// candidate bucket is full and no matching entry exists — the signal
    /// that triggers leaf creation in Algorithm 1. A sealed matrix is turned
    /// writable first.
    ///
    /// `time_offset = Some(o)` (leaf matrices) requires matching entries to
    /// carry the same offset; `None` (aggregated matrices) matches on the
    /// fingerprint pair alone.
    ///
    /// With an offset, the match is one probe sequence in the identity
    /// index (see the module docs) rather than a scan of the `r × r`
    /// candidate buckets: at most one entry per identity exists, and it is
    /// the one the scan would have found first. Without one, the candidates
    /// are scanned in `(i, j)` order for any entry with the same key and
    /// index pair. If nothing matches, the entry goes to the first candidate
    /// bucket, in `(i, j)` order, holding fewer than `b` entries.
    // LINT-ALLOW(hot-path-panic): `find` returns occupied slot positions
    // and vacancies inside the index; `first_with_room` returns a bucket
    // `< d²` with `counts[bucket] < b`, so `bucket·b + counts[bucket]` lies
    // inside the writable slab.
    pub fn try_insert(
        &mut self,
        addr_src: u64,
        addr_dst: u64,
        fp_src: u32,
        fp_dst: u32,
        time_offset: Option<u32>,
        weight: i64,
    ) -> bool {
        let Occupancy::Writable(writable) = &self.occupancy else {
            self.unseal();
            return self.try_insert(addr_src, addr_dst, fp_src, fp_dst, time_offset, weight);
        };
        let offset = time_offset.unwrap_or(0);
        let key = pack_key(fp_src, fp_dst);
        let b = self.bucket_entries;
        let rows = candidates(&self.seq, self.mapping, addr_src);
        let cols = candidates(&self.seq, self.mapping, addr_dst);
        let found = match time_offset {
            Some(_) => self.find(&writable.index, key, offset, &rows, &cols),
            // With no entry of this key and index pair there is none of
            // this identity either, so `find` only locates the vacancy.
            None => match self.match_any_offset(key, &rows, &cols) {
                Some(p) => Ok(p),
                None => self.find(&writable.index, key, offset, &rows, &cols),
            },
        };
        let vacancy = match found {
            Ok(p) => {
                self.weights[p] += weight;
                return true;
            }
            Err(vacancy) => vacancy,
        };
        let Some((bucket, i, j)) = self.first_with_room(&writable.counts, &rows, &cols) else {
            return false;
        };
        let pos = bucket * b + writable.counts[bucket] as usize;
        if let Occupancy::Writable(writable) = &mut self.occupancy {
            writable.counts[bucket] += 1;
            // Fits: `Writable::new` keeps every position below `u32::MAX`.
            writable.index[vacancy] = pos as u32 + 1;
        }
        self.keys[pos] = key;
        self.tags[pos] = pack_tag(pack_idx(i, j), offset);
        self.weights[pos] = weight;
        self.stored += 1;
        true
    }

    /// The first candidate bucket, in `(i, j)` order, holding fewer than
    /// `b` entries, as `(bucket, i, j)`.
    // LINT-ALLOW(hot-path-panic): `m <= MAX_MAPPING` bounds the candidate
    // arrays, and every candidate bucket `row·d + col` is `< d²`, the
    // length of `counts`.
    #[inline]
    fn first_with_room(
        &self,
        counts: &[u8],
        rows: &[u64; MAX_MAPPING],
        cols: &[u64; MAX_MAPPING],
    ) -> Option<(usize, usize, usize)> {
        let m = self.mapping as usize;
        for (i, &row) in rows[..m].iter().enumerate() {
            for (j, &col) in cols[..m].iter().enumerate() {
                let bucket = (row * self.side + col) as usize;
                if (counts[bucket] as usize) < self.bucket_entries {
                    return Some((bucket, i, j));
                }
            }
        }
        None
    }

    /// The first entry, scanning the candidate buckets in `(i, j)` order,
    /// whose key is `key` and whose index pair is its bucket's `(i, j)`,
    /// whatever its time offset.
    // LINT-ALLOW(hot-path-panic): `m <= MAX_MAPPING` bounds the candidate
    // arrays, and `bucket_range` of a bucket `< d²` stays inside the columns.
    fn match_any_offset(
        &self,
        key: u64,
        rows: &[u64; MAX_MAPPING],
        cols: &[u64; MAX_MAPPING],
    ) -> Option<usize> {
        let m = self.mapping as usize;
        for (i, &row) in rows[..m].iter().enumerate() {
            for (j, &col) in cols[..m].iter().enumerate() {
                let idx_pat = u64::from(pack_idx(i, j)) << 32;
                let bucket = (row * self.side + col) as usize;
                if let Some(p) = self
                    .bucket_range(bucket)
                    .find(|&p| self.keys[p] == key && self.tags[p] & TAG_IDX_MASK == idx_pat)
                {
                    return Some(p);
                }
            }
        }
        None
    }

    /// Inserts during aggregation: never fails. If every candidate bucket is
    /// full, the entry is kept in an exact spill list keyed by its base
    /// address and fingerprint pair, so aggregation never loses or misplaces
    /// weight (Algorithm 2's no-additional-error guarantee).
    pub fn insert_aggregated(
        &mut self,
        addr_src: u64,
        addr_dst: u64,
        fp_src: u32,
        fp_dst: u32,
        weight: i64,
    ) {
        if self.try_insert(addr_src, addr_dst, fp_src, fp_dst, None, weight) {
            return;
        }
        let (addr_src, addr_dst) = (self.wrap(addr_src), self.wrap(addr_dst));
        spill_into(&mut self.spill, addr_src, addr_dst, fp_src, fp_dst, weight);
    }

    /// Decrements a previously inserted edge. Matching entries are searched
    /// across all candidate buckets; if `filter` is given, only entries whose
    /// offset lies inside it are decremented. Returns `true` if any entry was
    /// found. Works on either form: a delete only changes a weight.
    // LINT-ALLOW(hot-path-panic): candidate arrays are bounded by
    // `m <= MAX_MAPPING`; slot positions come from `bucket_range` of a
    // `seq`-generated bucket `< d²`, which stays inside the columns.
    pub fn try_delete(
        &mut self,
        addr_src: u64,
        addr_dst: u64,
        fp_src: u32,
        fp_dst: u32,
        filter: OffsetFilter,
        weight: i64,
    ) -> bool {
        let key = pack_key(fp_src, fp_dst);
        let m = self.mapping as usize;
        let rows = candidates(&self.seq, self.mapping, addr_src);
        let cols = candidates(&self.seq, self.mapping, addr_dst);
        for (i, &row) in rows[..m].iter().enumerate() {
            for (j, &col) in cols[..m].iter().enumerate() {
                let idx_pat = u64::from(pack_idx(i, j)) << 32;
                for p in self.bucket_range((row * self.side + col) as usize) {
                    if self.keys[p] == key
                        && self.tags[p] & TAG_IDX_MASK == idx_pat
                        && offset_in(self.tags[p] as u32, filter)
                    {
                        self.weights[p] -= weight;
                        return true;
                    }
                }
            }
        }
        let (addr_src, addr_dst) = (self.wrap(addr_src), self.wrap(addr_dst));
        if let Some(entry) = self.spill.iter_mut().find(|e| {
            e.addr_src == addr_src
                && e.addr_dst == addr_dst
                && e.fp_src == fp_src
                && e.fp_dst == fp_dst
        }) {
            entry.weight -= weight;
            return true;
        }
        false
    }

    /// Edge query: sums entries matching the fingerprint pair (and offset
    /// filter) over all candidate buckets. Never underestimates.
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
    /// [`ProbeScratch`], so repeated probes (columnar batch sweeps) reuse
    /// cached candidate addresses. Each candidate bucket is one sweep of its
    /// occupied slots.
    pub(crate) fn edge_weight_scratch(
        &self,
        scratch: &mut ProbeScratch,
        addr_src: u64,
        addr_dst: u64,
        fp_src: u32,
        fp_dst: u32,
        filter: OffsetFilter,
    ) -> u64 {
        let key = pack_key(fp_src, fp_dst);
        let (lo, hi) = filter_bounds(filter);
        let rows = scratch
            .rows
            .candidates(&self.seq, self.side, self.mapping, addr_src);
        let cols = scratch
            .cols
            .candidates(&self.seq, self.side, self.mapping, addr_dst);
        let mut total = 0i64;
        for (i, &row) in rows.iter().enumerate() {
            for (j, &col) in cols.iter().enumerate() {
                total = total.wrapping_add(self.sweep(
                    self.bucket_range((row * self.side + col) as usize),
                    !0,
                    key,
                    TAG_IDX_MASK,
                    u64::from(pack_idx(i, j)) << 32,
                    lo,
                    hi,
                ));
            }
        }
        let (addr_src, addr_dst) = (self.wrap(addr_src), self.wrap(addr_dst));
        total += self
            .spill
            .iter()
            .filter(|e| {
                e.addr_src == addr_src
                    && e.addr_dst == addr_dst
                    && e.fp_src == fp_src
                    && e.fp_dst == fp_dst
            })
            .map(|e| e.weight)
            .sum::<i64>();
        total.max(0) as u64
    }

    /// Source-vertex query: sums entries in the candidate rows whose source
    /// fingerprint (and row index) match (Eq. (2) of the paper, extended to
    /// MMB rows). Each candidate row is one contiguous [`sum_matching`]
    /// sweep with no per-bucket lookups.
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
        let (lo, hi) = filter_bounds(filter);
        let rows = scratch
            .rows
            .candidates(&self.seq, self.side, self.mapping, addr_src);
        let key_pat = u64::from(fp_src) << 32;
        let mut total = 0i64;
        for (i, &row) in rows.iter().enumerate() {
            total = total.wrapping_add(self.sweep(
                self.row_range(row),
                KEY_SRC_MASK,
                key_pat,
                TAG_SRC_MASK,
                (i as u64) << 40,
                lo,
                hi,
            ));
        }
        let addr_src = self.wrap(addr_src);
        total += self
            .spill
            .iter()
            .filter(|e| e.addr_src == addr_src && e.fp_src == fp_src)
            .map(|e| e.weight)
            .sum::<i64>();
        total.max(0) as u64
    }

    /// Destination-vertex query: sums entries in the candidate columns whose
    /// destination fingerprint (and column index) match. The column walk is
    /// strided (one bucket per row), so each bucket is a short sweep with a
    /// bucket a few rows ahead software-prefetched.
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
        let (lo, hi) = filter_bounds(filter);
        let side = self.side as usize;
        let cols = scratch
            .cols
            .candidates(&self.seq, self.side, self.mapping, addr_dst);
        let mut total = 0i64;
        for (j, &col) in cols.iter().enumerate() {
            let tag_pat = (j as u64) << 32;
            for bucket in (col as usize..self.buckets()).step_by(side) {
                // Hide the strided-miss latency of the buckets a few rows
                // down. A sealed matrix finds a bucket's slots through its
                // index word, which is what is fetched ahead there: most of
                // its buckets are empty, and the word alone says so.
                match &self.occupancy {
                    Occupancy::Writable(_) => {
                        prefetch_read_data(&self.keys, (bucket + 4 * side) * self.bucket_entries)
                    }
                    Occupancy::Sealed(index) => {
                        prefetch_read_data(&index.0, 3 * ((bucket + 8 * side) / WORD))
                    }
                }
                total = total.wrapping_add(self.sweep(
                    self.bucket_range(bucket),
                    KEY_DST_MASK,
                    u64::from(fp_dst),
                    TAG_DST_MASK,
                    tag_pat,
                    lo,
                    hi,
                ));
            }
        }
        let addr_dst = self.wrap(addr_dst);
        total += self
            .spill
            .iter()
            .filter(|e| e.addr_dst == addr_dst && e.fp_dst == fp_dst)
            .map(|e| e.weight)
            .sum::<i64>();
        total.max(0) as u64
    }

    /// Software-prefetches the first candidate bucket an edge probe for
    /// `(addr_src, addr_dst)` will touch (the LCG sequence starts at the
    /// base address itself). Used by the columnar batch evaluator to issue
    /// probes a few positions ahead of the sweep.
    #[inline]
    pub(crate) fn prefetch_edge_probe(&self, addr_src: u64, addr_dst: u64) {
        let bucket = (self.wrap(addr_src) * self.side + self.wrap(addr_dst)) as usize;
        let start = self.bucket_start(bucket);
        prefetch_read_data(&self.keys, start);
        prefetch_read_data(&self.weights, start);
    }

    /// Software-prefetches the start of the first candidate row a
    /// source-vertex probe for `addr_src` will sweep.
    #[inline]
    pub(crate) fn prefetch_row_probe(&self, addr_src: u64) {
        let start = self.bucket_start((self.wrap(addr_src) * self.side) as usize);
        prefetch_read_data(&self.keys, start);
        prefetch_read_data(&self.weights, start);
    }

    /// Software-prefetches the first bucket of the first candidate column a
    /// destination-vertex probe for `addr_dst` will sweep.
    #[inline]
    pub(crate) fn prefetch_col_probe(&self, addr_dst: u64) {
        let start = self.bucket_start(self.wrap(addr_dst) as usize);
        prefetch_read_data(&self.keys, start);
        prefetch_read_data(&self.weights, start);
    }

    /// Iterates over occupied slots together with their bucket index, in
    /// bucket order (the same sequence in either form).
    ///
    /// A sealed matrix's slots are all occupied: the walk runs over them in
    /// order and takes each next bucket from the index's set bits, so it
    /// costs one step per slot and one per occupied bucket, whatever the
    /// side. A writable matrix's positions are filtered by their bucket's
    /// count.
    // LINT-ALLOW(hot-path-panic): a writable position `p < b · d²` lies in
    // bucket `p / b < d²`.
    pub(crate) fn occupied_slots(&self) -> impl Iterator<Item = (usize, Slot)> + '_ {
        let b = self.bucket_entries;
        match &self.occupancy {
            Occupancy::Writable(writable) => OccupiedSlots::Writable(
                (0..self.capacity())
                    .filter(move |p| p % b < writable.counts[p / b] as usize)
                    .map(move |p| (p / b, self.slot_at(p))),
            ),
            Occupancy::Sealed(index) => OccupiedSlots::Sealed(SealedSlots::new(self, index)),
        }
    }

    /// Iterates over all stored entries together with the row/column of the
    /// bucket holding them (used by aggregation).
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64, Entry)> + '_ {
        let shift = self.side.trailing_zeros();
        self.occupied_slots().map(move |(bucket, slot)| {
            let row = bucket as u64 >> shift;
            let col = self.wrap(bucket as u64);
            let entry = Entry {
                fp_src: (slot.key >> 32) as u32,
                fp_dst: slot.key as u32,
                idx_src: (slot.idx >> 8) as u8,
                idx_dst: slot.idx as u8,
                time_offset: slot.time_offset,
                weight: slot.weight,
            };
            (row, col, entry)
        })
    }

    /// The LCG address sequence used by this matrix (needed to map stored
    /// bucket positions back to base addresses during aggregation).
    pub fn address_sequence(&self) -> AddressSequence {
        self.seq
    }

    /// Memory footprint in bytes: every allocation the matrix holds, at its
    /// capacity. A writable matrix pays for all `b · d²` slots, `d²`
    /// occupancy counts and its identity index (a power of two of at least
    /// `2 · b · d²` `u32` positions) whatever its fill level, plus the box
    /// holding the two; a sealed one for its occupied slots and its sparse
    /// bucket index: `12 · ⌈d²/64⌉` bytes of occupancy words and ranks, plus
    /// a `u32` start offset per occupied bucket and the end marker. Both add
    /// the spill list.
    pub fn space_bytes(&self) -> usize {
        let occupancy = match &self.occupancy {
            Occupancy::Writable(writable) => {
                writable.counts.capacity()
                    + writable.index.capacity() * std::mem::size_of::<u32>()
                    + std::mem::size_of::<Writable>()
            }
            Occupancy::Sealed(index) => index.space_bytes(),
        };
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self.tags.capacity() * std::mem::size_of::<u64>()
            + self.weights.capacity() * std::mem::size_of::<i64>()
            + occupancy
            + self.spill.capacity() * std::mem::size_of::<SpillEntry>()
            + std::mem::size_of::<Self>()
    }

    // --- snapshot support (crate-internal) --------------------------------
    //
    // The snapshot codec (`crate::snapshot`) persists a matrix as its
    // per-bucket occupancy counts (one byte per bucket, derived from the
    // sparse bucket index) plus only the occupied slots, as columns in
    // bucket order, and the spill list. That is the sealed form's content,
    // so either form encodes to the same bytes, and decoding builds the
    // sealed form, index included, directly.

    /// Number of MMB mapping addresses per vertex (`r`).
    pub(crate) fn mapping(&self) -> u32 {
        self.mapping
    }

    /// Number of entry slots per bucket (`b`).
    pub(crate) fn bucket_entries(&self) -> usize {
        self.bucket_entries
    }

    /// The sealed form's columns: borrowed from a sealed matrix, compacted
    /// from a writable one (a copy of its occupied slots only).
    pub(crate) fn sealed_columns(&self) -> SealedColumns<'_> {
        match &self.occupancy {
            Occupancy::Sealed(index) => SealedColumns {
                buckets: self.buckets(),
                index: Cow::Borrowed(index),
                keys: Cow::Borrowed(&self.keys),
                tags: Cow::Borrowed(&self.tags),
                weights: Cow::Borrowed(&self.weights),
            },
            Occupancy::Writable(writable) => {
                let (keys, tags, weights, index) = self.compacted(writable);
                SealedColumns {
                    buckets: self.buckets(),
                    index: Cow::Owned(index),
                    keys: Cow::Owned(keys),
                    tags: Cow::Owned(tags),
                    weights: Cow::Owned(weights),
                }
            }
        }
    }

    /// The spill list, in insertion order.
    pub(crate) fn spill_entries(&self) -> &[SpillEntry] {
        &self.spill
    }

    /// Builds a sealed matrix from persisted state, taking ownership of the
    /// decoded columns: the geometry, the per-bucket occupancy counts
    /// (`lens`, `d²` of them), the occupied slots' key, tag and weight
    /// columns in bucket order (each as long as `lens` sums to), and the
    /// spill list. Allocates only the bucket index. A geometry
    /// [`CompressedMatrix::new`] would reject, a count table of the wrong
    /// size, a count above `bucket_entries` or a column-length mismatch is
    /// an error, so a corrupt snapshot can never build a structurally
    /// inconsistent matrix.
    pub(crate) fn from_sealed_columns(
        (side, layer, bucket_entries, mapping): (u64, u32, usize, u32),
        lens: &[u8],
        (keys, tags, weights): (Vec<u64>, Vec<u64>, Vec<i64>),
        spill: Vec<SpillEntry>,
    ) -> Result<Self, String> {
        if !side.is_power_of_two()
            || side < 2
            || !(1..=u8::MAX as usize).contains(&bucket_entries)
            || !(1..=MAX_MAPPING).contains(&(mapping as usize))
        {
            return Err(format!(
                "invalid matrix geometry: side {side}, bucket_entries {bucket_entries}, \
                 mapping {mapping}"
            ));
        }
        if side.checked_mul(side) != Some(lens.len() as u64) {
            return Err(format!(
                "bucket count mismatch: expected {side}², got {}",
                lens.len()
            ));
        }
        let mut total = 0u32;
        let mut widest = 0u8;
        for &len in lens {
            widest = widest.max(len);
            total = total
                .checked_add(u32::from(len))
                .ok_or("occupied slot count overflows the u32 bucket offsets")?;
        }
        if widest as usize > bucket_entries {
            return Err(format!(
                "bucket occupancy {widest} exceeds bucket_entries {bucket_entries}"
            ));
        }
        let stored = total as usize;
        if keys.len() != stored || tags.len() != stored || weights.len() != stored {
            return Err(format!(
                "occupied slot count mismatch: lens sum to {total}, got {} keys, {} tags \
                 and {} weights",
                keys.len(),
                tags.len(),
                weights.len()
            ));
        }
        Ok(Self {
            side,
            layer,
            bucket_entries,
            mapping,
            seq: AddressSequence::new(side),
            keys,
            tags,
            weights,
            occupancy: Occupancy::Sealed(index_of_lens(lens)),
            spill,
            stored,
        })
    }
}

#[cfg(test)]
impl CompressedMatrix {
    /// The per-bucket occupancy counts, indexed by `row · d + col`.
    pub(crate) fn bucket_lens(&self) -> Vec<u8> {
        let mut lens = Vec::new();
        self.sealed_columns().extend_lens(&mut lens);
        lens
    }

    /// The first field in which `self` and `other` differ — geometry,
    /// columns, occupancy, spill list, stored count, or allocation size —
    /// or `None` when they are identical field for field.
    pub(crate) fn first_difference(&self, other: &Self) -> Option<&'static str> {
        let geometry = |m: &Self| (m.side, m.layer, m.bucket_entries, m.mapping);
        [
            (geometry(self) == geometry(other), "geometry"),
            (self.keys == other.keys, "keys"),
            (self.tags == other.tags, "tags"),
            (self.weights == other.weights, "weights"),
            (self.occupancy == other.occupancy, "occupancy index"),
            (self.spill == other.spill, "spill"),
            (self.stored == other.stored, "stored"),
            (self.space_bytes() == other.space_bytes(), "space_bytes"),
        ]
        .into_iter()
        .find_map(|(same, field)| (!same).then_some(field))
    }
}

/// The dense `d² + 1` prefix array of per-bucket slot counts `lens`: the
/// start offsets the sparse index replaced, kept as its reference.
#[cfg(test)]
pub(crate) fn dense_starts(lens: &[u8]) -> Vec<u32> {
    std::iter::once(0)
        .chain(lens.iter().scan(0u32, |total, &len| {
            *total += u32::from(len);
            Some(*total)
        }))
        .collect()
}

#[cfg(test)]
impl CompressedMatrix {
    /// The sealed matrix [`from_sealed_columns`](Self::from_sealed_columns)
    /// builds from this matrix's own sealed columns, slot counts and spill
    /// list: what a snapshot restore of it builds.
    pub(crate) fn restored_from_own_columns(&self) -> Result<Self, String> {
        let columns = self.sealed_columns();
        let mut lens = Vec::new();
        columns.extend_lens(&mut lens);
        Self::from_sealed_columns(
            (self.side, self.layer, self.bucket_entries, self.mapping),
            &lens,
            (
                columns.keys.into_owned(),
                columns.tags.into_owned(),
                columns.weights.into_owned(),
            ),
            self.spill.clone(),
        )
    }

    /// Checks a sealed matrix's bucket index against `starts`, the dense
    /// `d² + 1` prefix array of its per-bucket slot counts (what the index
    /// replaced): every bucket's range and start, every row's range, the
    /// bucket `occupied_slots` gives each slot, and the per-bucket counts
    /// the snapshot writes.
    pub(crate) fn check_index(&self, starts: &[u32]) -> Result<(), String> {
        if !self.is_sealed() {
            return Err("the matrix is writable".into());
        }
        let buckets = self.buckets();
        if starts.len() != buckets + 1 || starts[buckets] as usize != self.stored {
            return Err(format!(
                "the reference has {} starts ending at {:?} for {buckets} buckets and {} slots",
                starts.len(),
                starts.last(),
                self.stored
            ));
        }
        for bucket in 0..buckets {
            let want = starts[bucket] as usize..starts[bucket + 1] as usize;
            // An empty bucket's range is `0..0`, wherever its start.
            let range = self.bucket_range(bucket);
            let same = if want.is_empty() {
                range.is_empty()
            } else {
                range == want
            };
            if !same || self.bucket_start(bucket) != want.start {
                return Err(format!(
                    "bucket {bucket}: range {:?} and start {}, want {want:?}",
                    self.bucket_range(bucket),
                    self.bucket_start(bucket)
                ));
            }
        }
        let side = self.side as usize;
        for row in 0..side {
            let want = starts[row * side] as usize..starts[(row + 1) * side] as usize;
            if self.row_range(row as u64) != want {
                return Err(format!(
                    "row {row}: range {:?}, want {want:?}",
                    self.row_range(row as u64)
                ));
            }
        }
        let attributed: Vec<usize> = self.occupied_slots().map(|(bucket, _)| bucket).collect();
        let want: Vec<usize> = (0..buckets)
            .flat_map(|bucket| {
                std::iter::repeat_n(bucket, (starts[bucket + 1] - starts[bucket]) as usize)
            })
            .collect();
        if attributed != want {
            return Err("occupied_slots attributes a slot to the wrong bucket".into());
        }
        if !self
            .occupied_slots()
            .map(|(_, slot)| slot)
            .eq((0..self.stored).map(|p| self.slot_at(p)))
        {
            return Err("occupied_slots skips or repeats a slot".into());
        }
        let lens: Vec<u8> = starts.windows(2).map(|w| (w[1] - w[0]) as u8).collect();
        if self.bucket_lens() != lens {
            return Err("the per-bucket slot counts differ".into());
        }
        Ok(())
    }

    /// Checks a writable matrix's own invariants: every slot past its
    /// bucket's count is all-zero, and the identity index resolves exactly
    /// the `stored` occupied slots — each filed once, and each found by a
    /// lookup of its own identity.
    pub(crate) fn check_writable(&self) -> Result<(), String> {
        let Occupancy::Writable(writable) = &self.occupancy else {
            return Err("the matrix is sealed".into());
        };
        let b = self.bucket_entries;
        for (bucket, &len) in writable.counts.iter().enumerate() {
            for p in bucket * b + len as usize..(bucket + 1) * b {
                if (self.keys[p], self.tags[p], self.weights[p]) != (0, 0, 0) {
                    return Err(format!(
                        "slot {p}, past bucket {bucket}'s count, is not zero"
                    ));
                }
            }
        }
        let mut filed: Vec<usize> = writable
            .index
            .iter()
            .filter(|&&link| link != 0)
            .map(|&link| link as usize - 1)
            .collect();
        filed.sort_unstable();
        let occupied: Vec<usize> = (0..self.buckets())
            .flat_map(|bucket| self.bucket_range(bucket))
            .collect();
        if occupied.len() != self.stored || filed != occupied {
            return Err(format!(
                "the index files {} positions for {} stored entries",
                filed.len(),
                self.stored
            ));
        }
        for (bucket, slot) in self.occupied_slots() {
            let (rows, cols) = self.base_candidates(bucket, slot.idx);
            let found = self.find(&writable.index, slot.key, slot.time_offset, &rows, &cols);
            if !matches!(found, Ok(p) if p / b == bucket && self.slot_at(p) == slot) {
                return Err(format!(
                    "bucket {bucket}'s entry {slot:?} resolves to {found:?}"
                ));
            }
        }
        Ok(())
    }
}

/// The bucket index of the per-bucket slot counts `lens` (whose sum fits a
/// `u32`).
// LINT-ALLOW(hot-path-panic): `for_each_set_bit` yields the numbers of set
// bits, each a bucket `< lens.len()`.
fn index_of_lens(lens: &[u8]) -> BucketIndex {
    let bits = occupancy_bits(lens);
    let mut index = BucketIndex::from_bits(&bits);
    let mut total = 0u32;
    for_each_set_bit(&bits, |bucket| {
        index.push_offset(total);
        total += u32::from(lens[bucket]);
    });
    index.push_offset(total);
    index
}

/// [`CompressedMatrix::occupied_slots`] of either form.
enum OccupiedSlots<W, S> {
    Writable(W),
    Sealed(S),
}

impl<W, S> Iterator for OccupiedSlots<W, S>
where
    W: Iterator<Item = (usize, Slot)>,
    S: Iterator<Item = (usize, Slot)>,
{
    type Item = (usize, Slot);

    #[inline]
    fn next(&mut self) -> Option<(usize, Slot)> {
        match self {
            Self::Writable(slots) => slots.next(),
            Self::Sealed(slots) => slots.next(),
        }
    }
}

/// The occupied slots of a sealed matrix with their buckets, in bucket
/// order: positions `0..stored` in turn, each bucket's run ending at the
/// next offset, and each next bucket the index's next set bit.
struct SealedSlots<'a> {
    matrix: &'a CompressedMatrix,
    index: &'a BucketIndex,
    /// The index's offsets.
    offsets: &'a [u32],
    /// The index's word count, `⌈d²/64⌉`.
    words: usize,
    /// The word holding the current bucket's bit.
    word: usize,
    /// That word's set bits past the current bucket's.
    bits: u64,
    /// The rank of the next occupied bucket.
    rank: usize,
    /// The current bucket.
    bucket: usize,
    /// The next slot position, and the end of the current bucket's slots.
    next: usize,
    end: usize,
}

impl<'a> SealedSlots<'a> {
    fn new(matrix: &'a CompressedMatrix, index: &'a BucketIndex) -> Self {
        let buckets = matrix.buckets();
        Self {
            matrix,
            index,
            offsets: index.offsets(buckets),
            words: buckets.div_ceil(WORD),
            word: 0,
            bits: index.word(0).0,
            rank: 0,
            bucket: 0,
            next: 0,
            end: 0,
        }
    }
}

impl Iterator for SealedSlots<'_> {
    type Item = (usize, Slot);

    // LINT-ALLOW(hot-path-panic): the walk visits only the index's words,
    // reads the offsets at ranks up to its set-bit count (the last one the
    // end marker), and positions below the end marker, `stored`.
    #[inline]
    fn next(&mut self) -> Option<(usize, Slot)> {
        if self.next == self.end {
            while self.bits == 0 {
                self.word += 1;
                if self.word >= self.words {
                    return None;
                }
                self.bits = self.index.word(self.word).0;
            }
            self.bucket = self.word * WORD + self.bits.trailing_zeros() as usize;
            self.bits &= self.bits - 1;
            self.rank += 1;
            self.end = self.offsets[self.rank] as usize;
        }
        let p = self.next;
        self.next += 1;
        Some((self.bucket, self.matrix.slot_at(p)))
    }
}

/// Panics unless `(side, bucket_entries, mapping)` is a geometry a matrix
/// supports: a power-of-two side of at least 2, 1–255 entries a bucket and
/// 1–[`MAX_MAPPING`] mapping addresses.
fn assert_geometry(side: u64, bucket_entries: usize, mapping: u32) {
    assert!(side.is_power_of_two() && side >= 2);
    assert!(
        bucket_entries >= 1 && bucket_entries <= u8::MAX as usize,
        "bucket_entries must be in [1, 255]"
    );
    assert!(
        mapping >= 1 && mapping as usize <= MAX_MAPPING,
        "mapping must be in [1, {MAX_MAPPING}]"
    );
}

/// The candidate rows/columns of `addr`: the first `mapping` LCG addresses,
/// computed iteratively in one pass. Mutating scans use this direct fill;
/// query paths go through [`ProbeScratch`] so repeated probes of the same
/// endpoint skip it.
// LINT-ALLOW(hot-path-panic): every caller's `mapping` passed
// `assert_geometry`, so `out[..mapping]` is always in bounds.
#[inline]
fn candidates(seq: &AddressSequence, mapping: u32, addr: u64) -> [u64; MAX_MAPPING] {
    let mut out = [0u64; MAX_MAPPING];
    seq.fill_sequence(addr, &mut out[..mapping as usize]);
    out
}

/// Adds `weight` to the spill entry of the (already wrapped) base address
/// pair and fingerprint pair, appending the entry if it is new.
fn spill_into(
    spill: &mut Vec<SpillEntry>,
    addr_src: u64,
    addr_dst: u64,
    fp_src: u32,
    fp_dst: u32,
    weight: i64,
) {
    if let Some(existing) = spill.iter_mut().find(|e| {
        e.addr_src == addr_src && e.addr_dst == addr_dst && e.fp_src == fp_src && e.fp_dst == fp_dst
    }) {
        existing.weight += weight;
    } else {
        spill.push(SpillEntry {
            addr_src,
            addr_dst,
            fp_src,
            fp_dst,
            weight,
        });
    }
}

/// One entry of an aggregate under construction: a slot's packed key, index
/// pair and weight (an aggregate's time offsets are all zero), plus the link
/// to the next entry of its bucket.
#[derive(Clone, Copy, Debug)]
struct ChainedSlot {
    key: u64,
    weight: i64,
    /// `1 +` the position of the bucket's next entry; 0 ends the chain.
    next: u32,
    idx: u16,
}

/// Builds an aggregated matrix straight into the sealed form, with no
/// `b · d²` writable slab in between (see the module docs).
///
/// Entries are appended to one column in arrival order, and each bucket
/// threads a chain through them: `heads[k]` links to bucket `k`'s first
/// entry and each entry to the next one of its bucket (a link is `1 +` the
/// entry's position; 0 ends the chain). [`insert`](Self::insert) places
/// every entry exactly where [`CompressedMatrix::insert_aggregated`] would,
/// and a chain keeps its bucket's entries in arrival order, the order a
/// writable bucket holds them in. A bucket's first entry also sets its
/// occupancy bit. So [`finish`](Self::finish), walking the set bits, lays
/// out the same columns, bucket index and spill list as
/// [`CompressedMatrix::seal`] after a dense build.
#[derive(Debug)]
pub(crate) struct AggregateBuilder {
    side: u64,
    layer: u32,
    bucket_entries: usize,
    mapping: u32,
    seq: AddressSequence,
    /// Per bucket, the link to its first entry (0 = empty).
    heads: Vec<u32>,
    /// One bit per bucket, set once it holds an entry (the index's words).
    occupied: Vec<u64>,
    /// Every entry placed in a bucket, in arrival order.
    slots: Vec<ChainedSlot>,
    spill: Vec<SpillEntry>,
}

impl AggregateBuilder {
    /// An empty aggregate of `side × side` buckets at tree layer `layer`,
    /// with `bucket_entries` entries per bucket and `mapping` candidate
    /// addresses per vertex (the geometry [`CompressedMatrix::new`] takes),
    /// reserving room for `entries` entries: the children's stored entries,
    /// spills included, bound how many the aggregate can hold.
    pub(crate) fn new(
        side: u64,
        layer: u32,
        bucket_entries: usize,
        mapping: u32,
        entries: usize,
    ) -> Self {
        assert_geometry(side, bucket_entries, mapping);
        Self {
            side,
            layer,
            bucket_entries,
            mapping,
            seq: AddressSequence::new(side),
            heads: vec![0; (side * side) as usize],
            occupied: vec![0; ((side * side) as usize).div_ceil(WORD)],
            slots: Vec::with_capacity(entries),
            spill: Vec::new(),
        }
    }

    /// Inserts one lifted entry, placing it exactly as
    /// [`CompressedMatrix::insert_aggregated`] does: one fused `r × r` scan
    /// of the candidate buckets in `(i, j)` order accumulates into an entry
    /// with the same key and index pair; failing that, the entry joins the
    /// first candidate bucket holding fewer than `b` entries, or else the
    /// exact spill list. (An entry whose link would not fit a `u32` spills
    /// too; that takes over four billion entries.)
    // LINT-ALLOW(hot-path-panic): `mapping <= MAX_MAPPING` bounds the
    // candidate arrays; every bucket is `row·d + col < d²` for LCG-generated
    // `row, col < d`, whose bit lies in word `< ⌈d²/64⌉`, and every nonzero
    // link is `1 +` the position of an entry already pushed.
    pub(crate) fn insert(
        &mut self,
        addr_src: u64,
        addr_dst: u64,
        fp_src: u32,
        fp_dst: u32,
        weight: i64,
    ) {
        let key = pack_key(fp_src, fp_dst);
        let m = self.mapping as usize;
        let rows = candidates(&self.seq, self.mapping, addr_src);
        let cols = candidates(&self.seq, self.mapping, addr_dst);
        // (bucket, link to the last entry of its chain or 0, packed index
        // pair) of the first candidate bucket with room, in (i, j) order.
        let mut free: Option<(usize, u32, u16)> = None;
        for (i, &row) in rows[..m].iter().enumerate() {
            for (j, &col) in cols[..m].iter().enumerate() {
                let idx = pack_idx(i, j);
                let bucket = (row * self.side + col) as usize;
                let (mut link, mut last, mut len) = (self.heads[bucket], 0u32, 0usize);
                while link != 0 {
                    let slot = &mut self.slots[link as usize - 1];
                    if slot.key == key && slot.idx == idx {
                        slot.weight += weight;
                        return;
                    }
                    (last, link, len) = (link, slot.next, len + 1);
                }
                if free.is_none() && len < self.bucket_entries {
                    free = Some((bucket, last, idx));
                }
            }
        }
        match (free, u32::try_from(self.slots.len() + 1)) {
            (Some((bucket, last, idx)), Ok(link)) => {
                self.slots.push(ChainedSlot {
                    key,
                    weight,
                    next: 0,
                    idx,
                });
                match last {
                    0 => {
                        self.heads[bucket] = link;
                        self.occupied[bucket / WORD] |= 1 << (bucket % WORD);
                    }
                    _ => self.slots[last as usize - 1].next = link,
                }
            }
            _ => {
                let wrap = self.side - 1;
                spill_into(
                    &mut self.spill,
                    addr_src & wrap,
                    addr_dst & wrap,
                    fp_src,
                    fp_dst,
                    weight,
                );
            }
        }
    }

    /// The finished aggregate, sealed: one walk over the occupancy bits
    /// emits each occupied bucket's chain into the columns in bucket order,
    /// with its start offset. The columns, the index and the spill list are
    /// allocated to exactly their length, as [`CompressedMatrix::seal`]
    /// allocates them.
    // LINT-ALLOW(hot-path-panic): a set bit names a bucket `< d²`, and every
    // nonzero link is `1 +` the position of an entry `insert` pushed.
    pub(crate) fn finish(self) -> CompressedMatrix {
        let stored = self.slots.len();
        let mut keys = Vec::with_capacity(stored);
        let mut tags = Vec::with_capacity(stored);
        let mut weights = Vec::with_capacity(stored);
        let mut index = BucketIndex::from_bits(&self.occupied);
        for_each_set_bit(&self.occupied, |bucket| {
            // Fits: `insert` keeps every link, so every count, in a `u32`.
            index.push_offset(keys.len() as u32);
            let mut link = self.heads[bucket];
            while link != 0 {
                let slot = &self.slots[link as usize - 1];
                keys.push(slot.key);
                tags.push(pack_tag(slot.idx, 0));
                weights.push(slot.weight);
                link = slot.next;
            }
        });
        index.push_offset(stored as u32);
        let mut spill = self.spill;
        spill.shrink_to_fit();
        CompressedMatrix {
            side: self.side,
            layer: self.layer,
            bucket_entries: self.bucket_entries,
            mapping: self.mapping,
            seq: self.seq,
            keys,
            tags,
            weights,
            occupancy: Occupancy::Sealed(index),
            spill,
            stored,
        }
    }
}

#[inline]
fn offset_in(offset: u32, filter: OffsetFilter) -> bool {
    match filter {
        None => true,
        Some((lo, hi)) => offset >= lo && offset <= hi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> CompressedMatrix {
        CompressedMatrix::new(8, 1, 3, 4)
    }

    #[test]
    fn insert_and_edge_query() {
        let mut m = matrix();
        assert!(m.try_insert(1, 2, 100, 200, Some(5), 7));
        assert_eq!(m.edge_weight(1, 2, 100, 200, None), 7);
        assert_eq!(m.edge_weight(1, 2, 100, 200, Some((0, 10))), 7);
        assert_eq!(m.edge_weight(1, 2, 100, 200, Some((6, 10))), 0);
    }

    #[test]
    fn same_edge_same_offset_accumulates() {
        let mut m = matrix();
        assert!(m.try_insert(1, 2, 100, 200, Some(5), 3));
        assert!(m.try_insert(1, 2, 100, 200, Some(5), 4));
        assert_eq!(m.stored(), 1);
        assert_eq!(m.edge_weight(1, 2, 100, 200, None), 7);
    }

    #[test]
    fn same_edge_different_offset_uses_two_entries() {
        let mut m = matrix();
        assert!(m.try_insert(1, 2, 100, 200, Some(5), 3));
        assert!(m.try_insert(1, 2, 100, 200, Some(9), 4));
        assert_eq!(m.stored(), 2);
        assert_eq!(m.edge_weight(1, 2, 100, 200, Some((0, 6))), 3);
        assert_eq!(m.edge_weight(1, 2, 100, 200, Some((6, 9))), 4);
        assert_eq!(m.edge_weight(1, 2, 100, 200, None), 7);
    }

    #[test]
    fn aggregated_mode_ignores_offsets() {
        let mut m = CompressedMatrix::new(8, 2, 3, 4);
        assert!(m.try_insert(1, 2, 10, 20, None, 3));
        assert!(m.try_insert(1, 2, 10, 20, None, 4));
        assert_eq!(m.stored(), 1);
        assert_eq!(m.edge_weight(1, 2, 10, 20, None), 7);
    }

    #[test]
    fn distinct_fingerprints_do_not_mix() {
        let mut m = matrix();
        assert!(m.try_insert(1, 2, 100, 200, Some(0), 5));
        assert!(m.try_insert(1, 2, 101, 200, Some(0), 9));
        assert_eq!(m.edge_weight(1, 2, 100, 200, None), 5);
        assert_eq!(m.edge_weight(1, 2, 101, 200, None), 9);
    }

    #[test]
    fn insertion_fails_when_all_candidates_full() {
        // 2×2 matrix, 1 entry per bucket, 1 mapping address: capacity 4 but a
        // single (addr, addr) pair only ever sees one bucket.
        let mut m = CompressedMatrix::new(2, 1, 1, 1);
        assert!(m.try_insert(0, 0, 1, 1, Some(0), 1));
        assert!(!m.try_insert(0, 0, 2, 2, Some(0), 1), "bucket is full");
    }

    #[test]
    fn mmb_increases_effective_capacity() {
        let mut without = CompressedMatrix::new(4, 1, 1, 1);
        let mut with = CompressedMatrix::new(4, 1, 1, 4);
        let mut placed_without = 0;
        let mut placed_with = 0;
        for k in 0..64u32 {
            // All edges share the same base address pair: the worst case MMB
            // is designed for.
            if without.try_insert(1, 1, k, k, Some(0), 1) {
                placed_without += 1;
            }
            if with.try_insert(1, 1, k, k, Some(0), 1) {
                placed_with += 1;
            }
        }
        assert!(placed_with > placed_without);
    }

    #[test]
    fn vertex_queries_sum_rows_and_columns() {
        let mut m = matrix();
        m.try_insert(3, 1, 10, 21, Some(0), 2);
        m.try_insert(3, 2, 10, 22, Some(0), 3);
        m.try_insert(4, 1, 11, 21, Some(0), 5);
        assert_eq!(m.src_weight(3, 10, None), 5);
        assert_eq!(m.dst_weight(1, 21, None), 7);
        assert_eq!(m.src_weight(4, 11, None), 5);
    }

    #[test]
    fn vertex_query_respects_offset_filter() {
        let mut m = matrix();
        m.try_insert(3, 1, 10, 21, Some(2), 2);
        m.try_insert(3, 2, 10, 22, Some(8), 3);
        assert_eq!(m.src_weight(3, 10, Some((0, 4))), 2);
        assert_eq!(m.src_weight(3, 10, Some((5, 9))), 3);
    }

    #[test]
    fn delete_decrements_weight() {
        let mut m = matrix();
        m.try_insert(1, 2, 100, 200, Some(5), 7);
        assert!(m.try_delete(1, 2, 100, 200, Some((5, 5)), 3));
        assert_eq!(m.edge_weight(1, 2, 100, 200, None), 4);
        assert!(!m.try_delete(1, 2, 100, 200, Some((9, 9)), 1));
    }

    #[test]
    fn insert_aggregated_never_fails_or_loses_attribution() {
        let mut m = CompressedMatrix::new(2, 2, 1, 1);
        for k in 0..20u32 {
            m.insert_aggregated(0, 0, k, k, 1);
        }
        assert!(m.spill_len() > 0, "tiny aggregate must spill");
        assert_eq!(m.total_weight(), 20);
        // Every spilled edge remains individually queryable: no weight is
        // credited to the wrong fingerprint.
        for k in 0..20u32 {
            assert_eq!(m.edge_weight(0, 0, k, k, None), 1);
        }
        // Vertex queries see spilled entries too.
        assert_eq!(m.src_weight(0, 5, None), 1);
        assert_eq!(m.dst_weight(0, 7, None), 1);
        // Deleting a spilled entry works.
        assert!(m.try_delete(0, 0, 9, 9, None, 1));
        assert_eq!(m.edge_weight(0, 0, 9, 9, None), 0);
    }

    #[test]
    fn entries_iterator_reports_positions() {
        let mut m = matrix();
        m.try_insert(1, 2, 100, 200, Some(0), 7);
        let collected: Vec<_> = m.entries().collect();
        assert_eq!(collected.len(), 1);
        let (row, col, e) = collected[0];
        assert!(row < 8 && col < 8);
        assert_eq!(e.weight, 7);
    }

    #[test]
    fn utilization_and_space() {
        let mut m = matrix();
        assert_eq!(m.utilization(), 0.0);
        m.try_insert(1, 2, 1, 2, Some(0), 1);
        assert!(m.utilization() > 0.0);
        assert!(m.space_bytes() > 0);
        assert_eq!(m.capacity(), 3 * 64);
        assert_eq!(m.side(), 8);
        assert_eq!(m.layer(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn packed_key_preserves_full_fingerprint_width() {
        // Fingerprints that agree on their low bits but differ in the top
        // bits must stay distinct: the packed key keeps all 32 bits of each
        // fingerprint.
        let mut m = matrix();
        let (lo, hi) = (0x0000_1234u32, 0xFFF0_1234u32);
        assert!(m.try_insert(1, 2, lo, lo, Some(0), 3));
        assert!(m.try_insert(1, 2, hi, lo, Some(0), 5));
        assert!(m.try_insert(1, 2, lo, hi, Some(0), 7));
        assert_eq!(m.edge_weight(1, 2, lo, lo, None), 3);
        assert_eq!(m.edge_weight(1, 2, hi, lo, None), 5);
        assert_eq!(m.edge_weight(1, 2, lo, hi, None), 7);
        assert_eq!(m.stored(), 3);
    }

    #[test]
    fn entries_round_trip_packed_fields() {
        let mut m = matrix();
        m.try_insert(5, 6, 0xDEAD_BEEF, 0xCAFE_F00D, Some(42), 11);
        let (_, _, e) = m.entries().next().expect("one entry");
        assert_eq!(e.fp_src, 0xDEAD_BEEF);
        assert_eq!(e.fp_dst, 0xCAFE_F00D);
        assert_eq!(e.time_offset, 42);
        assert_eq!(e.weight, 11);
        assert!(u32::from(e.idx_src) < 4 && u32::from(e.idx_dst) < 4);
    }

    #[test]
    fn slab_layout_is_fixed_stride() {
        // Filling one bucket to capacity must not affect neighbours: the
        // slab gives every bucket exactly `b` slots.
        let mut m = CompressedMatrix::new(4, 1, 2, 1);
        // Same address pair → same single candidate bucket (mapping = 1).
        assert!(m.try_insert(1, 1, 1, 1, Some(0), 1));
        assert!(m.try_insert(1, 1, 2, 2, Some(0), 1));
        assert!(!m.try_insert(1, 1, 3, 3, Some(0), 1), "bucket full");
        // A different address pair still inserts fine.
        assert!(m.try_insert(2, 2, 4, 4, Some(0), 1));
        assert_eq!(m.stored(), 3);
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // One scratch threaded through many probes (the columnar pattern)
        // must answer identically to a fresh candidate fill per probe.
        let mut m = matrix();
        for k in 0..200u32 {
            m.try_insert(
                u64::from(k % 8),
                u64::from((k * 3) % 8),
                k,
                k.wrapping_mul(7),
                Some(k % 50),
                1 + i64::from(k % 5),
            );
        }
        let mut scratch = ProbeScratch::new();
        for k in 0..200u32 {
            let (a_s, a_d) = (u64::from(k % 8), u64::from((k * 3) % 8));
            let (f_s, f_d) = (k, k.wrapping_mul(7));
            assert_eq!(
                m.edge_weight_scratch(&mut scratch, a_s, a_d, f_s, f_d, Some((0, 30))),
                m.edge_weight(a_s, a_d, f_s, f_d, Some((0, 30))),
            );
            assert_eq!(
                m.src_weight_scratch(&mut scratch, a_s, f_s, None),
                m.src_weight(a_s, f_s, None),
            );
            assert_eq!(
                m.dst_weight_scratch(&mut scratch, a_d, f_d, None),
                m.dst_weight(a_d, f_d, None),
            );
        }
    }

    #[test]
    fn negative_net_weight_entries_still_clamp_at_zero() {
        // Over-deletion drives a slot's weight negative; queries clamp the
        // *total* at zero exactly as the row-wise reference did.
        let mut m = matrix();
        m.try_insert(1, 2, 100, 200, Some(5), 3);
        assert!(m.try_delete(1, 2, 100, 200, None, 10));
        assert_eq!(m.edge_weight(1, 2, 100, 200, None), 0);
        assert_eq!(m.src_weight(1, 100, None), 0);
        assert_eq!(m.dst_weight(2, 200, None), 0);
    }

    #[test]
    fn prefetch_helpers_are_callable_at_any_address() {
        // Prefetch is a hint: helpers must be safe for any address value,
        // in-range or not (they reduce modulo the side).
        let m = matrix();
        m.prefetch_edge_probe(0, 0);
        m.prefetch_edge_probe(u64::MAX, u64::MAX);
        m.prefetch_row_probe(7);
        m.prefetch_col_probe(u64::MAX - 1);
    }

    /// Every probe family over every address of a `universe`-address space
    /// and a small fingerprint range, with and without offset filters.
    fn probe_answers(probe: &dyn Fn(Probe) -> u64, universe: u64) -> Vec<u64> {
        let mut answers = Vec::new();
        for addr in 0..universe {
            for fp in 0..8u32 {
                let other = (addr * 5 + 3) % universe;
                for filter in [None, Some((0, 3)), Some((2, 5))] {
                    answers.push(probe(Probe::Edge(addr, other, fp, fp ^ 1, filter)));
                    answers.push(probe(Probe::Src(addr, fp, filter)));
                    answers.push(probe(Probe::Dst(addr, fp, filter)));
                }
            }
        }
        answers
    }

    #[derive(Clone, Copy)]
    enum Probe {
        Edge(u64, u64, u32, u32, OffsetFilter),
        Src(u64, u32, OffsetFilter),
        Dst(u64, u32, OffsetFilter),
    }

    fn probe_matrix(m: &CompressedMatrix) -> impl Fn(Probe) -> u64 + '_ {
        move |p| match p {
            Probe::Edge(s, d, fs, fd, f) => m.edge_weight(s, d, fs, fd, f),
            Probe::Src(s, fs, f) => m.src_weight(s, fs, f),
            Probe::Dst(d, fd, f) => m.dst_weight(d, fd, f),
        }
    }

    fn probe_chain(c: &crate::overflow::OverflowChain) -> impl Fn(Probe) -> u64 + '_ {
        move |p| match p {
            Probe::Edge(s, d, fs, fd, f) => c.edge_weight(s, d, fs, fd, f),
            Probe::Src(s, fs, f) => c.src_weight(s, fs, f),
            Probe::Dst(d, fd, f) => c.dst_weight(d, fd, f),
        }
    }

    /// One op: `(kind, src, dst, fingerprint pair, time offset, weight)`.
    /// Kinds 0–3 insert leaf-style with the offset, 4–5 aggregate (spilling
    /// once candidates fill), 6 bursts the same pair into every candidate
    /// bucket, 7 deletes.
    type Op = (u8, u64, u64, u32, u32, i64);

    fn apply_to_matrix(m: &mut CompressedMatrix, ops: &[Op]) {
        for &(kind, s, d, fp, off, w) in ops {
            let (fs, fd) = (fp & 7, (fp >> 3) & 7);
            match kind {
                0..=3 => {
                    let _ = m.try_insert(s, d, fs, fd, Some(off), w);
                }
                4 | 5 => m.insert_aggregated(s, d, fs, fd, w),
                6 => {
                    for k in 0..8 {
                        let _ = m.try_insert(s, d, k, k ^ fd, Some(off), w);
                    }
                }
                _ => {
                    let _ = m.try_delete(s, d, fs, fd, Some((off, off + 2)), w);
                }
            }
        }
    }

    fn apply_to_chain(c: &mut crate::overflow::OverflowChain, ops: &[Op]) {
        for &(kind, s, d, fp, off, w) in ops {
            let (fs, fd) = (fp & 7, (fp >> 3) & 7);
            if kind == 7 {
                let _ = c.delete(s, d, fs, fd, Some((off, off + 2)), w);
            } else {
                c.insert(s, d, fs, fd, off, w);
            }
        }
    }

    /// Runs `check` once with the scalar kernels forced and once under
    /// runtime dispatch (the vector kernels, with the `simd` feature on a
    /// CPU that has them).
    fn under_both_dispatches(check: impl Fn() -> Result<(), String>) -> Result<(), String> {
        higgs_common::simd::force_scalar(true);
        let scalar = check();
        higgs_common::simd::force_scalar(false);
        scalar.and_then(|()| check())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        #[test]
        fn sealed_and_writable_probes_agree(
            geometry in (1u32..5, 1usize..4, 1u32..4),
            ops in proptest::collection::vec((0u8..8, 0u64..64, 0u64..64, 0u32..64, 0u32..6, 1i64..4), 20..600),
            deletes in proptest::collection::vec((7u8..8, 0u64..64, 0u64..64, 0u32..64, 0u32..6, 1i64..4), 0..200),
        ) {
            // Spill-heavy shapes: sides 2–16, one to three slots a bucket.
            let (log_side, b, mapping) = geometry;
            let side = 1u64 << log_side;
            let universe = side * 4;
            let mut writable = CompressedMatrix::new(side, 1, b, mapping);
            apply_to_matrix(&mut writable, &ops);
            let mut sealed = writable.clone();
            sealed.seal();
            proptest::prop_assert!(sealed.is_sealed() && !writable.is_sealed());
            proptest::prop_assert_eq!(sealed.capacity(), writable.capacity());
            // Deletes land after sealing, on both forms alike.
            apply_to_matrix(&mut writable, &deletes);
            apply_to_matrix(&mut sealed, &deletes);
            proptest::prop_assert!(sealed.is_sealed());
            proptest::prop_assert!(sealed.entries().eq(writable.entries()));

            // Overflow bursts: a chain of one-slot blocks of the same side.
            let mut chain = crate::overflow::OverflowChain::new(side, 1, mapping);
            apply_to_chain(&mut chain, &ops);
            let mut sealed_chain = chain.clone();
            sealed_chain.seal();
            apply_to_chain(&mut chain, &deletes);
            apply_to_chain(&mut sealed_chain, &deletes);

            let agreed = under_both_dispatches(|| {
                if probe_answers(&probe_matrix(&sealed), universe)
                    != probe_answers(&probe_matrix(&writable), universe)
                {
                    return Err("sealed matrix answers differ".into());
                }
                if probe_answers(&probe_chain(&sealed_chain), universe)
                    != probe_answers(&probe_chain(&chain), universe)
                {
                    return Err("sealed chain answers differ".into());
                }
                Ok(())
            });
            proptest::prop_assert!(agreed.is_ok(), "{agreed:?}");
        }
    }

    /// The reference aggregate build: a fresh writable matrix filled with
    /// `insert_aggregated`, then sealed; with the dense `d² + 1` start
    /// offsets of its writable counts, the reference for its index.
    fn dense_aggregate(
        geometry: (u64, usize, u32),
        stream: &[AggregateOp],
    ) -> (CompressedMatrix, Vec<u32>) {
        let (side, b, mapping) = geometry;
        let mut dense = CompressedMatrix::new(side, 2, b, mapping);
        for &(s, d, fs, fd, w) in stream {
            dense.insert_aggregated(s, d, fs, fd, w);
        }
        let Occupancy::Writable(writable) = &dense.occupancy else {
            unreachable!("a new matrix is writable");
        };
        let starts = dense_starts(&writable.counts);
        dense.seal();
        (dense, starts)
    }

    /// `(addr_src, addr_dst, fp_src, fp_dst, weight)`.
    type AggregateOp = (u64, u64, u32, u32, i64);

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn builder_matches_the_dense_build_field_for_field(
            geometry in (2u32..6, 1usize..4, 1u32..5),
            spread in 1u64..300,
            ops in proptest::collection::vec((0u64..1 << 20, 0u64..1 << 20, 0u32..12, 0u32..12, -2i64..5), 1..2_000),
        ) {
            // Sides 4–32 with one to three slots a bucket and one to four
            // mapping addresses. A small `spread` piles the stream onto a
            // few base addresses (repeated identities, full candidates,
            // spills). Source addresses keep their bits from bit 10 up, so
            // they run far beyond the side and wrap.
            let (log_side, b, mapping) = geometry;
            let side = 1u64 << log_side;
            let stream: Vec<AggregateOp> = ops
                .iter()
                .map(|&(s, d, fs, fd, w)| ((s % spread) | (s & !1023), d % spread, fs, fd, w))
                .collect();
            let mut builder = AggregateBuilder::new(side, 2, b, mapping, stream.len());
            for &(s, d, fs, fd, w) in &stream {
                builder.insert(s, d, fs, fd, w);
            }
            let built = builder.finish();
            let (dense, starts) = dense_aggregate((side, b, mapping), &stream);
            proptest::prop_assert!(built.is_sealed());
            let diff = built.first_difference(&dense);
            proptest::prop_assert!(diff.is_none(), "builder and dense build differ in {diff:?}");
            let index = built.check_index(&starts);
            proptest::prop_assert!(index.is_ok(), "builder index: {index:?}");
        }
    }

    #[test]
    fn builder_spills_exactly_like_the_dense_build() {
        // A 4 × 4 grid of one-slot buckets with two mapping addresses: the
        // stream fills its candidates, spills, and hits spilled identities
        // again, with zero and negative weights among them.
        let stream: Vec<AggregateOp> = (0..200u32)
            .map(|k| {
                (
                    u64::from(k % 3),
                    u64::from(k % 5),
                    k % 11,
                    k % 7,
                    i64::from(k % 4) - 1,
                )
            })
            .collect();
        let (dense, starts) = dense_aggregate((4, 1, 2), &stream);
        let mut builder = AggregateBuilder::new(4, 2, 1, 2, 0);
        for &(s, d, fs, fd, w) in &stream {
            builder.insert(s, d, fs, fd, w);
        }
        let built = builder.finish();
        assert!(dense.spill_len() > 0, "the stream must spill");
        assert_eq!(built.first_difference(&dense), None);
        built.check_index(&starts).expect("builder index");
    }

    #[test]
    fn sealing_keeps_content_and_nominal_capacity() {
        let mut m = matrix();
        for k in 0..60u32 {
            m.try_insert(
                u64::from(k % 8),
                u64::from(k * 3 % 8),
                k,
                k + 1,
                Some(k % 4),
                2,
            );
        }
        m.insert_aggregated(1, 1, 7, 7, 1);
        let writable = m.clone();
        m.seal();
        assert!(m.is_sealed());
        assert_eq!(m.stored(), writable.stored());
        assert_eq!(m.capacity(), 3 * 64, "capacity stays the nominal b·d²");
        assert_eq!(m.utilization(), writable.utilization());
        assert_eq!(m.total_weight(), writable.total_weight());
        assert!(m.entries().eq(writable.entries()));
        assert_eq!(m.bucket_lens(), writable.bucket_lens());
        assert!(m.occupied_slots().eq(writable.occupied_slots()));
        // Occupied slots plus `d² + 1` offsets, against `b · d²` slots.
        assert!(m.space_bytes() < writable.space_bytes() / 2);
        m.seal();
        assert!(
            m.entries().eq(writable.entries()),
            "sealing twice is a no-op"
        );
    }

    #[test]
    fn inserting_into_a_sealed_matrix_makes_it_writable() {
        let mut m = matrix();
        assert!(m.try_insert(1, 2, 100, 200, Some(5), 7));
        m.seal();
        assert!(m.try_insert(1, 2, 100, 200, Some(5), 1));
        assert!(!m.is_sealed());
        assert!(m.try_insert(3, 4, 10, 20, Some(0), 2));
        assert_eq!(m.edge_weight(1, 2, 100, 200, None), 8);
        assert_eq!(m.edge_weight(3, 4, 10, 20, None), 2);
        assert_eq!(m.stored(), 2);
    }

    #[test]
    fn unsealing_restores_the_writable_slab() {
        let mut m = CompressedMatrix::new(4, 1, 2, 2);
        for k in 0..40u32 {
            let _ = m.try_insert(u64::from(k % 4), u64::from(k % 3), k, k, Some(0), 1);
        }
        let original = m.clone();
        m.seal();
        m.unseal();
        assert!(!m.is_sealed());
        assert_eq!(m.keys, original.keys);
        assert_eq!(m.tags, original.tags);
        assert_eq!(m.weights, original.weights);
        assert_eq!(m.bucket_lens(), original.bucket_lens());
    }

    #[test]
    fn sealed_parts_are_validated() {
        let geometry = (4u64, 1u32, 2usize, 2u32);
        let columns = |n: usize| (vec![1u64; n], vec![pack_tag(0x0101, 3); n], vec![1i64; n]);
        let mut lens = vec![0u8; 16];
        lens[3] = 1;
        let m = CompressedMatrix::from_sealed_columns(geometry, &lens, columns(1), Vec::new())
            .expect("consistent parts");
        assert!(m.is_sealed());
        assert_eq!(m.capacity(), 32);
        assert_eq!(m.bucket_lens(), lens);
        m.check_index(&dense_starts(&lens)).expect("index");
        let entry = m.entries().next().expect("one entry");
        assert_eq!((entry.0, entry.1), (0, 3));
        assert_eq!((entry.2.idx_src, entry.2.time_offset), (1, 3));
        let cases = [
            (
                geometry,
                lens.clone(),
                columns(0),
                "slot count below the lens' sum",
            ),
            (
                geometry,
                lens.clone(),
                columns(2),
                "slot count above the lens' sum",
            ),
            (
                geometry,
                lens[..8].to_vec(),
                columns(0),
                "lens table of the wrong size",
            ),
            (
                (6, 1, 2, 2),
                vec![0; 36],
                columns(0),
                "side not a power of two",
            ),
        ];
        for (geometry, lens, columns, why) in cases {
            assert!(
                CompressedMatrix::from_sealed_columns(geometry, &lens, columns, Vec::new())
                    .is_err(),
                "{why}"
            );
        }
        let (keys, tags, _) = columns(1);
        assert!(
            CompressedMatrix::from_sealed_columns(
                geometry,
                &lens,
                (keys, tags, Vec::new()),
                Vec::new()
            )
            .is_err(),
            "a short weight column"
        );
        lens[3] = 3;
        assert!(
            CompressedMatrix::from_sealed_columns(geometry, &lens, columns(3), Vec::new()).is_err(),
            "occupancy above bucket_entries"
        );
    }

    /// Insert and delete as they were before the identity index: fused
    /// `r × r` candidate scans over a plain fixed-stride slab. The indexed
    /// matrix is held to it field for field.
    struct ScanReference {
        side: u64,
        bucket_entries: usize,
        mapping: u32,
        seq: AddressSequence,
        keys: Vec<u64>,
        tags: Vec<u64>,
        weights: Vec<i64>,
        counts: Vec<u8>,
        stored: usize,
    }

    impl ScanReference {
        fn new(side: u64, bucket_entries: usize, mapping: u32) -> Self {
            let slots = (side * side) as usize * bucket_entries;
            Self {
                side,
                bucket_entries,
                mapping,
                seq: AddressSequence::new(side),
                keys: vec![0; slots],
                tags: vec![0; slots],
                weights: vec![0; slots],
                counts: vec![0; (side * side) as usize],
                stored: 0,
            }
        }

        fn try_insert(&mut self, s: u64, d: u64, fs: u32, fd: u32, o: Option<u32>, w: i64) -> bool {
            let offset = o.unwrap_or(0);
            let key = pack_key(fs, fd);
            let tag_mask = if o.is_none() { TAG_IDX_MASK } else { !0 };
            let m = self.mapping as usize;
            let rows = candidates(&self.seq, self.mapping, s);
            let cols = candidates(&self.seq, self.mapping, d);
            let b = self.bucket_entries;
            let mut free: Option<(usize, usize, u16)> = None;
            for (i, &row) in rows[..m].iter().enumerate() {
                for (j, &col) in cols[..m].iter().enumerate() {
                    let idx = pack_idx(i, j);
                    let tag_pat = pack_tag(idx, offset) & tag_mask;
                    let bucket = (row * self.side + col) as usize;
                    let start = bucket * b;
                    let len = self.counts[bucket] as usize;
                    for p in start..start + len {
                        if self.keys[p] == key && self.tags[p] & tag_mask == tag_pat {
                            self.weights[p] += w;
                            return true;
                        }
                    }
                    if free.is_none() && len < b {
                        free = Some((bucket, start + len, idx));
                    }
                }
            }
            let Some((bucket, pos, idx)) = free else {
                return false;
            };
            self.keys[pos] = key;
            self.tags[pos] = pack_tag(idx, offset);
            self.weights[pos] = w;
            self.counts[bucket] += 1;
            self.stored += 1;
            true
        }

        fn try_delete(
            &mut self,
            s: u64,
            d: u64,
            fs: u32,
            fd: u32,
            f: OffsetFilter,
            w: i64,
        ) -> bool {
            let key = pack_key(fs, fd);
            let m = self.mapping as usize;
            let rows = candidates(&self.seq, self.mapping, s);
            let cols = candidates(&self.seq, self.mapping, d);
            for (i, &row) in rows[..m].iter().enumerate() {
                for (j, &col) in cols[..m].iter().enumerate() {
                    let idx_pat = u64::from(pack_idx(i, j)) << 32;
                    let start = (row * self.side + col) as usize * self.bucket_entries;
                    for p in start..start + self.counts[start / self.bucket_entries] as usize {
                        if self.keys[p] == key
                            && self.tags[p] & TAG_IDX_MASK == idx_pat
                            && offset_in(self.tags[p] as u32, f)
                        {
                            self.weights[p] -= w;
                            return true;
                        }
                    }
                }
            }
            false
        }

        /// The first field in which the writable form of `m` differs from
        /// the reference, or in which `m`'s own invariants fail.
        fn difference(&self, m: &CompressedMatrix) -> Option<String> {
            let mut m = m.clone();
            m.unseal();
            [
                (m.keys == self.keys, "keys"),
                (m.tags == self.tags, "tags"),
                (m.weights == self.weights, "weights"),
                (m.bucket_lens() == self.counts, "counts"),
                (m.stored == self.stored, "stored"),
            ]
            .into_iter()
            .find_map(|(same, field)| (!same).then(|| field.to_string()))
            .or_else(|| m.check_writable().err())
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn indexed_insert_matches_the_scan_field_for_field(
            geometry in (0u8..4, 1u32..4, 1usize..4, 1u32..5),
            spread in 1u64..200,
            ops in proptest::collection::vec((0u8..12, 0u64..1 << 16, 0u64..1 << 16, 0u32..6, 0u32..3, -2i64..4), 1..1_500),
        ) {
            // One case in four is paper-like (a 16 × 16 leaf, three slots a
            // bucket, four mapping addresses); the rest are spill-heavy
            // (sides 2–8, one to three slots, one to four mapping
            // addresses), so candidates fill and inserts fail. A small
            // `spread` piles the ops onto few base addresses and the
            // fingerprint and offset ranges are small, so identities repeat;
            // the addresses run past the side and wrap.
            let (pick, log_side, b, mapping) = geometry;
            let (side, b, mapping) = if pick == 0 { (16, 3, 4) } else { (1u64 << log_side, b, mapping) };
            let mut m = CompressedMatrix::new(side, 1, b, mapping);
            let mut reference = ScanReference::new(side, b, mapping);
            for (n, &(kind, s, d, fp, off, w)) in ops.iter().enumerate() {
                let (s, d) = (s % spread + side * (s >> 8), d % spread + side * (d >> 8));
                let (fs, fd) = (fp % 3, fp / 3);
                let offset = (kind % 2 == 0).then_some(off);
                let (got, want) = match kind {
                    // Inserts, with an offset on even kinds.
                    0..=6 => (
                        m.try_insert(s, d, fs, fd, offset, w),
                        reference.try_insert(s, d, fs, fd, offset, w),
                    ),
                    // Deletes, filtered on even kinds.
                    7 | 8 => {
                        let filter = offset.map(|o| (o, o + 1));
                        (
                            m.try_delete(s, d, fs, fd, filter, w),
                            reference.try_delete(s, d, fs, fd, filter, w),
                        )
                    }
                    // Seal; the next insert unseals.
                    9 => {
                        m.seal();
                        (m.is_sealed(), true)
                    }
                    // Seal, then unseal straight away.
                    _ => {
                        m.seal();
                        m.unseal();
                        (m.is_sealed(), false)
                    }
                };
                proptest::prop_assert_eq!(got, want, "op {} ({}) returned differently", n, kind);
                let diff = reference.difference(&m);
                proptest::prop_assert!(diff.is_none(), "op {n} ({kind}): {diff:?}");
            }
        }
    }

    #[test]
    fn the_writable_form_costs_a_sealed_matrix_nothing() {
        // The counts and the index sit behind one box, so the occupancy
        // enum is no larger than the sealed form's index (one `Vec<u32>`).
        assert_eq!(
            std::mem::size_of::<Occupancy>(),
            std::mem::size_of::<Vec<u32>>()
        );
        #[cfg(target_pointer_width = "64")]
        assert_eq!(std::mem::size_of::<CompressedMatrix>(), 160);
    }

    /// A sealed matrix of side `side` and `b` slots a bucket, with
    /// per-bucket slot counts `lens` and distinct entries.
    fn sealed_with_lens(side: u64, b: usize, lens: &[u8]) -> CompressedMatrix {
        let stored: usize = lens.iter().map(|&len| usize::from(len)).sum();
        let keys = (1..=stored as u64).collect();
        let tags = (0..stored as u32).map(|p| pack_tag(0, p)).collect();
        let weights = (1..=stored as i64).collect();
        CompressedMatrix::from_sealed_columns(
            (side, 2, b, 2),
            lens,
            (keys, tags, weights),
            Vec::new(),
        )
        .expect("consistent parts")
    }

    /// Holds the sealed matrix with per-bucket slot counts `lens` to the
    /// dense reference and, when its writable slab is small, round-trips it
    /// through `unseal` and `seal`.
    fn check_lens(side: u64, b: usize, lens: &[u8]) -> Result<(), String> {
        let m = sealed_with_lens(side, b, lens);
        m.check_index(&dense_starts(lens))?;
        let restored = m.restored_from_own_columns()?;
        if restored != m {
            return Err("from_sealed_columns of its own columns differs".into());
        }
        if m.capacity() <= 1 << 16 {
            let mut round = m.clone();
            round.unseal();
            let Occupancy::Writable(writable) = &round.occupancy else {
                return Err("unseal left the matrix sealed".into());
            };
            if writable.counts != lens {
                return Err("the unsealed counts differ".into());
            }
            round.check_writable()?;
            round.seal();
            if let Some(field) = round.first_difference(&m) {
                return Err(format!("unseal then seal changed the {field}"));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn the_sparse_index_matches_the_dense_offsets(
            shape in (1u32..11, 0usize..4, 0u64..=1_000_000, 0u64..u64::MAX),
        ) {
            // Sides 2–1024 (d² = 4 and 16 sit in one partial word); one,
            // two, three or 255 slots a bucket; each bucket occupied with
            // odds from none to certain (per million), a quarter of the
            // occupied ones full. The largest grids are thinned to about
            // 2^17 slots so that a case stays quick.
            let (log_side, pick, odds, seed) = shape;
            let side = 1u64 << log_side;
            let b: usize = [1, 2, 3, 255][pick];
            let buckets = (side * side) as usize;
            let budget = (1u64 << 17) * 1_000_000 / (buckets * b.div_ceil(2)) as u64;
            let odds = odds.min(budget);
            let mut rng = proptest::TestRng::from_seed(seed);
            let lens: Vec<u8> = (0..buckets)
                .map(|_| {
                    if rng.next_u64() % 1_000_000 >= odds {
                        0
                    } else if rng.next_u64().is_multiple_of(4) {
                        b as u8
                    } else {
                        (1 + rng.next_u64() % b as u64) as u8
                    }
                })
                .collect();
            let checked = check_lens(side, b, &lens);
            proptest::prop_assert!(checked.is_ok(), "side {side}, b {b}: {checked:?}");
        }
    }

    #[test]
    fn the_sparse_index_handles_word_edges() {
        // (side, b, occupied buckets): the empty matrix, a matrix whose
        // only occupied bucket is the last one, bits 0 and 63 and the
        // buckets on either side of each word boundary, and every bucket
        // full, at b = 1 and b = 255.
        let every = |side: usize| (0..side * side).collect::<Vec<_>>();
        let edges = |side: usize| {
            (0..side * side)
                .filter(|k| matches!(k % 64, 0 | 1 | 62 | 63))
                .collect::<Vec<_>>()
        };
        let cases: Vec<(u64, usize, Vec<usize>)> = vec![
            (2, 3, Vec::new()),
            (1024, 255, Vec::new()),
            (2, 1, vec![3]),
            (4, 255, vec![15]),
            (16, 3, vec![255]),
            (1024, 2, vec![1024 * 1024 - 1]),
            (2, 255, every(2)),
            (4, 1, every(4)),
            (16, 1, every(16)),
            (16, 255, every(16)),
            (8, 3, vec![0, 63]),
            (16, 1, edges(16)),
            (32, 255, edges(32)),
            (256, 3, edges(256)),
        ];
        for (side, b, occupied) in cases {
            let mut lens = vec![0u8; (side * side) as usize];
            for (n, &bucket) in occupied.iter().enumerate() {
                // Alternately full and one-slot buckets.
                lens[bucket] = if n % 2 == 0 { b as u8 } else { 1 };
            }
            if let Err(e) = check_lens(side, b, &lens) {
                panic!("side {side}, b {b}, occupied {occupied:?}: {e}");
            }
        }
    }

    #[test]
    fn recycling_seals_like_seal_and_returns_an_empty_slab() {
        let mut m = CompressedMatrix::new(8, 1, 3, 4);
        for k in 0..150u32 {
            let _ = m.try_insert(
                u64::from(k % 11),
                u64::from(k * 5 % 13),
                k % 7,
                k % 5,
                Some(k % 3),
                2,
            );
        }
        let mut sealed = m.clone();
        sealed.seal();
        let recycled = m.seal_recycling();
        assert_eq!(
            m.first_difference(&sealed),
            None,
            "recycling seals like seal"
        );
        assert_eq!(
            recycled.first_difference(&CompressedMatrix::new(8, 1, 3, 4)),
            None,
            "the recycled slab is a fresh matrix"
        );
        recycled.check_writable().expect("empty slab invariants");
        // A sealed matrix has no slab to hand on.
        let fresh = m.seal_recycling();
        assert!(m.is_sealed());
        assert_eq!(
            fresh.first_difference(&CompressedMatrix::new(8, 1, 3, 4)),
            None
        );
    }

    #[test]
    #[should_panic(expected = "mapping must be in")]
    fn mapping_above_max_rejected() {
        let _ = CompressedMatrix::new(8, 1, 3, MAX_MAPPING as u32 + 1);
    }

    #[test]
    #[should_panic(expected = "bucket_entries must be in")]
    fn oversized_bucket_rejected() {
        let _ = CompressedMatrix::new(8, 1, 256, 4);
    }
}
