//! Hashing substrate shared by every sketch in the reproduction.
//!
//! Three pieces:
//!
//! 1. [`vertex_hash`]: a 64-bit finaliser (SplitMix64 style) that turns a
//!    vertex id into a well-mixed hash `H(v)`, optionally salted with a seed
//!    so that structures needing several independent hash functions (TCM,
//!    Count-Min) can derive them.
//! 2. [`FingerprintLayout`]: the fingerprint / address split of Eq. (1) in
//!    the paper, `f(v) = H(v) & (2^{F1} − 1)` and
//!    `h(v) = (H(v) >> F1) mod d1`, plus the level-`l` re-partitioning used
//!    by HIGGS aggregation (Algorithm 2): moving the top `R·(l−1)` fingerprint
//!    bits into the address.
//! 3. [`AddressSequence`]: the linear-congruential address sequences used by
//!    the Multiple Mapping Buckets optimisation (Section IV-C) and by GSS
//!    square hashing. The generator has full period modulo a power of two and
//!    is invertible, so an entry that records its index pair `(i, j)` can be
//!    mapped back to its base address during aggregation.

/// Mixes a 64-bit value into a well-distributed 64-bit hash (SplitMix64
/// finaliser). Deterministic across platforms and runs.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash of a vertex id under hash-function seed `seed`. Different seeds give
/// (empirically) independent hash functions; seed 0 is the canonical `H(·)`
/// used by HIGGS.
#[inline]
pub fn vertex_hash(v: u64, seed: u64) -> u64 {
    splitmix64(v ^ splitmix64(seed.wrapping_mul(0xA24B_AED4_963E_E407)))
}

/// Hash of an ordered `(src, dst)` pair under `seed`. Used by sketches that
/// key buckets by whole edges (e.g. Horae's time-prefixed edge keys).
#[inline]
pub fn edge_hash(src: u64, dst: u64, seed: u64) -> u64 {
    let a = vertex_hash(src, seed);
    let b = vertex_hash(dst, seed ^ 0x5851_F42D_4C95_7F2D);
    splitmix64(a ^ b.rotate_left(23))
}

/// Seed of the shard-routing hash function. Distinct from the canonical
/// summary seed 0 so that the shard a vertex lands on is independent of its
/// in-matrix fingerprint/address decomposition (otherwise every vertex of a
/// shard would share address bits and skew its matrices).
pub const SHARD_SEED: u64 = 0x7368_6172_645F_6869;

/// The shard (in `0..num_shards`) that owns vertex `v` when a summary is
/// partitioned by source vertex. Deterministic across platforms and runs;
/// every component that routes by source — ingest, deletion, query serving —
/// must use this one function so they always agree.
#[inline]
pub fn shard_of(v: u64, num_shards: usize) -> usize {
    debug_assert!(num_shards > 0, "shard count must be positive");
    if num_shards <= 1 {
        return 0;
    }
    (vertex_hash(v, SHARD_SEED) % num_shards as u64) as usize
}

/// A vertex hash decomposed into fingerprint and address at a given layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HashedVertex {
    /// Full 64-bit hash `H(v)`.
    pub hash: u64,
    /// Fingerprint `f(v)` at the layout's layer.
    pub fingerprint: u64,
    /// Row/column address `h(v)` at the layout's layer.
    pub address: u64,
}

/// The fingerprint/address bit layout of Eq. (1), parameterised by the leaf
/// fingerprint length `F1`, the leaf matrix side `d1` (power of two), and the
/// per-level fingerprint reduction `R` (so that `θ = 4^R`).
///
/// Layer 1 is the leaf layer. At layer `l`, the fingerprint keeps
/// `F_l = F1 − (l−1)·R` bits and the matrix side is `d_l = d1 · 2^{(l−1)R}`;
/// the bits removed from the fingerprint become the low bits of the address,
/// which is exactly the shift-based aggregation of Algorithm 2 / Fig. 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FingerprintLayout {
    /// Leaf-layer fingerprint length in bits (`F1`).
    pub f1_bits: u32,
    /// Leaf-layer matrix side (`d1`); must be a power of two.
    pub d1: u64,
    /// Number of fingerprint bits converted into address bits per level
    /// climbed (`R`).
    pub r_bits: u32,
}

impl FingerprintLayout {
    /// Creates a layout, validating that `d1` is a power of two and that the
    /// bit budget is sane.
    pub fn new(f1_bits: u32, d1: u64, r_bits: u32) -> Self {
        assert!(d1.is_power_of_two(), "d1 must be a power of two, got {d1}");
        assert!(f1_bits > 0 && f1_bits < 48, "F1 must be in (0, 48)");
        assert!((1..=8).contains(&r_bits), "R must be in [1, 8]");
        Self {
            f1_bits,
            d1,
            r_bits,
        }
    }

    /// The branching factor implied by `R`: `θ = 4^R`.
    pub fn theta(&self) -> usize {
        1usize << (2 * self.r_bits)
    }

    /// Fingerprint length at layer `l` (1-based): `F_l = F1 − (l−1)·R`,
    /// clamped at zero.
    pub fn fingerprint_bits(&self, layer: u32) -> u32 {
        self.f1_bits
            .saturating_sub(self.r_bits * layer.saturating_sub(1))
    }

    /// Matrix side at layer `l` (1-based): `d_l = d1 · 2^{(l−1)R}`.
    pub fn matrix_side(&self, layer: u32) -> u64 {
        self.d1 << (self.r_bits * layer.saturating_sub(1))
    }

    /// Maximum layer at which a non-empty fingerprint remains.
    pub fn max_layer_with_fingerprint(&self) -> u32 {
        self.f1_bits / self.r_bits + 1
    }

    /// Splits a raw 64-bit hash into `(fingerprint, address)` at layer `l`
    /// following Eq. (1) and the Algorithm-2 re-partitioning.
    pub fn split(&self, hash: u64, layer: u32) -> HashedVertex {
        let fp_bits = self.fingerprint_bits(layer);
        let side = self.matrix_side(layer);
        let fingerprint = if fp_bits == 0 {
            0
        } else {
            hash & ((1u64 << fp_bits) - 1)
        };
        // `side` is a power of two (validated in `new`), so masking is the
        // modulo without a 64-bit division.
        let address = (hash >> fp_bits) & (side - 1);
        HashedVertex {
            hash,
            fingerprint,
            address,
        }
    }

    /// Splits a vertex id at layer `l` (hashing with the canonical seed 0).
    pub fn split_vertex(&self, v: u64, layer: u32) -> HashedVertex {
        self.split(vertex_hash(v, 0), layer)
    }

    /// Lifts a layer-`l` `(fingerprint, address)` pair one layer up,
    /// reproducing the shift operation of Algorithm 2: the top `R` bits of the
    /// fingerprint become the low bits of the address.
    ///
    /// Returns `(fingerprint_{l+1}, address_{l+1})`.
    pub fn lift(&self, fingerprint: u64, address: u64, from_layer: u32) -> (u64, u64) {
        let fp_bits = self.fingerprint_bits(from_layer);
        let shift = self.r_bits.min(fp_bits);
        let keep = fp_bits - shift;
        let high = if shift == 0 { 0 } else { fingerprint >> keep };
        let new_fp = if keep == 0 {
            0
        } else {
            fingerprint & ((1u64 << keep) - 1)
        };
        let new_addr = ((address << shift) | high) & (self.matrix_side(from_layer + 1) - 1);
        (new_fp, new_addr)
    }
}

/// Linear-congruential address sequence `h_1, h_2, …, h_r` modulo a
/// power-of-two matrix side, used by Multiple Mapping Buckets (Section IV-C)
/// and GSS square hashing.
///
/// With modulus `m = 2^k`, multiplier `a ≡ 1 (mod 4)` and odd increment `c`,
/// the LCG has full period and is invertible, so index pairs recorded in
/// entries can be mapped back to base addresses.
///
/// Every reduction modulo the side is a mask with `side − 1` (the side is a
/// validated power of two), and the inverse multiplier of
/// [`step_back`](Self::step_back) is a compile-time constant, so no method
/// divides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddressSequence {
    /// `side − 1`: reducing modulo the power-of-two side is `& mask`.
    mask: u64,
}

impl AddressSequence {
    /// Multiplier used by the sequence (Hull–Dobell compliant for any
    /// power-of-two modulus).
    const A: u64 = 6_364_136_223_846_793_005; // ≡ 1 (mod 4)
    /// Increment (odd).
    const C: u64 = 1_442_695_040_888_963_407;
    /// Inverse of [`Self::A`] modulo 2^64, hence modulo every power-of-two
    /// side.
    const A_INV: u64 = mod_inverse_pow2(Self::A);

    /// Creates a sequence over matrix side `side` (power of two).
    pub fn new(side: u64) -> Self {
        assert!(side.is_power_of_two(), "side must be a power of two");
        Self { mask: side - 1 }
    }

    /// The `i`-th address (0-based) in the sequence starting from `base`.
    /// Index 0 is `base` itself.
    ///
    /// O(`index`) per call: fine for a one-off lookup, but probing loops that
    /// need the first `r` addresses should use [`fill_sequence`](Self::fill_sequence)
    /// or [`iter`](Self::iter), which walk the LCG iteratively (O(r) total
    /// instead of O(r²)).
    pub fn address(&self, base: u64, index: u32) -> u64 {
        let mut x = base & self.mask;
        for _ in 0..index {
            x = self.step(x);
        }
        x
    }

    /// Writes the first `out.len()` addresses of the sequence starting at
    /// `base` into `out` (index 0 is `base` itself), stepping the LCG once
    /// per slot. This is the batched form used by every MMB/square-hashing
    /// probe loop: one call per operation replaces per-index
    /// [`address`](Self::address) calls.
    #[inline]
    pub fn fill_sequence(&self, base: u64, out: &mut [u64]) {
        let mut x = base & self.mask;
        for slot in out.iter_mut() {
            *slot = x;
            x = self.step(x);
        }
    }

    /// An infinite iterator over the sequence starting at `base` (index 0 is
    /// `base` itself). Each `next` is one LCG step.
    pub fn iter(&self, base: u64) -> AddressIter {
        AddressIter {
            seq: *self,
            next: base & self.mask,
        }
    }

    /// One LCG step modulo the side.
    #[inline]
    pub fn step(&self, x: u64) -> u64 {
        x.wrapping_mul(Self::A).wrapping_add(Self::C) & self.mask
    }

    /// Inverse of [`step`](Self::step) modulo the power-of-two side.
    #[inline]
    pub fn step_back(&self, y: u64) -> u64 {
        y.wrapping_sub(Self::C).wrapping_mul(Self::A_INV) & self.mask
    }

    /// Recovers the base address given the stored address and the recorded
    /// sequence index (inverts `index` steps).
    pub fn base_of(&self, stored: u64, index: u32) -> u64 {
        let mut x = stored & self.mask;
        for _ in 0..index {
            x = self.step_back(x);
        }
        x
    }

    /// The first `count` addresses starting at `base` (index 0..count).
    pub fn sequence(&self, base: u64, count: u32) -> Vec<u64> {
        let mut out = vec![0u64; count as usize];
        self.fill_sequence(base, &mut out);
        out
    }
}

/// Infinite iterator over an LCG address sequence; see
/// [`AddressSequence::iter`].
#[derive(Clone, Copy, Debug)]
pub struct AddressIter {
    seq: AddressSequence,
    next: u64,
}

impl Iterator for AddressIter {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        let current = self.next;
        self.next = self.seq.step(current);
        Some(current)
    }
}

/// Convenience wrapper: the first `count` LCG addresses for `base` over a
/// power-of-two `side`.
pub fn lcg_sequence(base: u64, side: u64, count: u32) -> Vec<u64> {
    AddressSequence::new(side).sequence(base, count)
}

/// Modular inverse of an odd `a` modulo 2^64 (Newton / Hensel lifting).
/// `const` so [`AddressSequence`] evaluates it once, at compile time.
const fn mod_inverse_pow2(a: u64) -> u64 {
    debug_assert!(a % 2 == 1);
    let mut x: u64 = a; // correct to 3 bits
    let mut round = 0;
    while round < 5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
        round += 1;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        // Adjacent inputs should differ in many bits.
        let diff = (splitmix64(100) ^ splitmix64(101)).count_ones();
        assert!(diff > 16, "poor avalanche: {diff} differing bits");
    }

    #[test]
    fn vertex_hash_seed_independence() {
        let h0 = vertex_hash(42, 0);
        let h1 = vertex_hash(42, 1);
        assert_ne!(h0, h1);
        assert_eq!(vertex_hash(42, 0), h0);
    }

    #[test]
    fn edge_hash_is_order_sensitive() {
        assert_ne!(edge_hash(1, 2, 0), edge_hash(2, 1, 0));
    }

    #[test]
    fn shard_of_is_stable_in_range_and_balanced() {
        for v in 0..1_000u64 {
            assert_eq!(shard_of(v, 1), 0);
            for shards in [2usize, 4, 8] {
                let s = shard_of(v, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(v, shards), "routing must be deterministic");
            }
        }
        // Rough balance over a contiguous id range: no shard may be starved.
        let mut counts = [0usize; 4];
        for v in 0..4_000u64 {
            counts[shard_of(v, 4)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (700..=1_300).contains(&c),
                "shard {s} holds {c} of 4000 vertices"
            );
        }
    }

    #[test]
    fn shard_routing_is_independent_of_addressing_hash() {
        // The shard id must not be a function of the layer-1 address bits:
        // vertices sharing an address must still spread over shards.
        let layout = FingerprintLayout::new(19, 16, 1);
        let mut shards_seen = std::collections::HashSet::new();
        for v in 0..4_000u64 {
            if layout.split_vertex(v, 1).address == 3 {
                shards_seen.insert(shard_of(v, 4));
            }
        }
        assert_eq!(shards_seen.len(), 4);
    }

    #[test]
    fn layout_split_matches_formula_1() {
        let layout = FingerprintLayout::new(19, 16, 1);
        let h = vertex_hash(7, 0);
        let sv = layout.split(h, 1);
        assert_eq!(sv.fingerprint, h & ((1 << 19) - 1));
        assert_eq!(sv.address, (h >> 19) % 16);
    }

    #[test]
    fn layout_layer_progression() {
        let layout = FingerprintLayout::new(19, 16, 1);
        assert_eq!(layout.theta(), 4);
        assert_eq!(layout.fingerprint_bits(1), 19);
        assert_eq!(layout.fingerprint_bits(2), 18);
        assert_eq!(layout.fingerprint_bits(5), 15);
        assert_eq!(layout.matrix_side(1), 16);
        assert_eq!(layout.matrix_side(2), 32);
        assert_eq!(layout.matrix_side(3), 64);
    }

    #[test]
    fn lift_matches_direct_split() {
        // Lifting the layer-l decomposition must equal the direct layer-(l+1)
        // decomposition of the same hash — this is what makes Algorithm 2
        // error-free.
        let layout = FingerprintLayout::new(19, 16, 1);
        for v in 0..2000u64 {
            let h = vertex_hash(v, 0);
            for layer in 1..6u32 {
                let cur = layout.split(h, layer);
                let (fp, addr) = layout.lift(cur.fingerprint, cur.address, layer);
                let up = layout.split(h, layer + 1);
                assert_eq!(fp, up.fingerprint, "fingerprint mismatch v={v} l={layer}");
                assert_eq!(addr, up.address, "address mismatch v={v} l={layer}");
            }
        }
    }

    #[test]
    fn lift_paper_example_figure_8() {
        // Fig. 8: d1 = 2, F1 = 3, R = 1. Vertex bits 0101 → address 0,
        // fingerprint 101. After aggregation address 01, fingerprint 01.
        let layout = FingerprintLayout::new(3, 2, 1);
        let (fp, addr) = layout.lift(0b101, 0b0, 1);
        assert_eq!(addr, 0b01);
        assert_eq!(fp, 0b01);
        let (fp2, addr2) = layout.lift(0b110, 0b0, 1);
        assert_eq!(addr2, 0b01);
        assert_eq!(fp2, 0b10);
    }

    #[test]
    fn lcg_full_period_small_modulus() {
        let seq = AddressSequence::new(16);
        let visited: std::collections::HashSet<u64> = seq.sequence(3, 16).into_iter().collect();
        assert_eq!(visited.len(), 16, "LCG must have full period mod 16");
    }

    #[test]
    fn lcg_is_invertible() {
        let seq = AddressSequence::new(64);
        for base in 0..64u64 {
            for idx in 0..8u32 {
                let stored = seq.address(base, idx);
                assert_eq!(seq.base_of(stored, idx), base);
            }
        }
    }

    #[test]
    fn fill_sequence_matches_per_index_address() {
        let seq = AddressSequence::new(32);
        for base in [0u64, 5, 31, 1000] {
            let mut buf = [0u64; 12];
            seq.fill_sequence(base, &mut buf);
            for (i, &addr) in buf.iter().enumerate() {
                assert_eq!(addr, seq.address(base, i as u32), "base {base} index {i}");
            }
        }
    }

    #[test]
    fn iterator_matches_per_index_address() {
        let seq = AddressSequence::new(16);
        for (i, addr) in seq.iter(7).take(20).enumerate() {
            assert_eq!(addr, seq.address(7, i as u32));
        }
    }

    #[test]
    fn fill_sequence_reduces_base_modulo_side() {
        let seq = AddressSequence::new(8);
        let mut a = [0u64; 4];
        let mut b = [0u64; 4];
        seq.fill_sequence(3, &mut a);
        seq.fill_sequence(3 + 8 * 5, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn lcg_sequences_differ_for_different_bases() {
        let a = lcg_sequence(1, 16, 4);
        let b = lcg_sequence(2, 16, 4);
        assert_ne!(a, b);
        assert_eq!(a[0], 1);
        assert_eq!(b[0], 2);
    }

    #[test]
    fn mod_inverse_is_correct() {
        for a in [1u64, 3, 5, 6_364_136_223_846_793_005, u64::MAX] {
            if a % 2 == 1 {
                assert_eq!(a.wrapping_mul(mod_inverse_pow2(a)), 1);
            }
        }
    }

    /// `%`-based reference implementations of the masked arithmetic: the
    /// definitions the division-free code must reproduce.
    mod reference {
        use super::super::{mod_inverse_pow2, AddressSequence};

        pub fn step(x: u64, side: u64) -> u64 {
            x.wrapping_mul(AddressSequence::A)
                .wrapping_add(AddressSequence::C)
                % side
        }

        pub fn step_back(y: u64, side: u64) -> u64 {
            y.wrapping_sub(AddressSequence::C)
                .wrapping_mul(mod_inverse_pow2(AddressSequence::A))
                % side
        }

        pub fn address(base: u64, index: u32, side: u64) -> u64 {
            (0..index).fold(base % side, |x, _| step(x, side))
        }

        pub fn base_of(stored: u64, index: u32, side: u64) -> u64 {
            (0..index).fold(stored % side, |x, _| step_back(x, side))
        }

        pub fn split_address(hash: u64, fp_bits: u32, side: u64) -> u64 {
            (hash >> fp_bits) % side
        }

        pub fn lift_address(address: u64, high: u64, shift: u32, side: u64) -> u64 {
            ((address << shift) | high) % side
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn masked_arithmetic_matches_the_modulo_reference(
            x in 0u64..=u64::MAX,
            y in 0u64..=u64::MAX,
            index in 0u32..16,
        ) {
            // Every power-of-two side from 2 to 2^20.
            for k in 1..=20u32 {
                let side = 1u64 << k;
                let seq = AddressSequence::new(side);
                proptest::prop_assert_eq!(seq.step(x), reference::step(x, side));
                proptest::prop_assert_eq!(seq.step_back(y), reference::step_back(y, side));
                proptest::prop_assert_eq!(seq.address(x, index), reference::address(x, index, side));
                proptest::prop_assert_eq!(seq.base_of(y, index), reference::base_of(y, index, side));
                let mut filled = [0u64; 16];
                seq.fill_sequence(x, &mut filled);
                for (i, (&a, b)) in filled.iter().zip(seq.iter(x)).enumerate() {
                    let want = reference::address(x, i as u32, side);
                    proptest::prop_assert_eq!(a, want);
                    proptest::prop_assert_eq!(b, want);
                }
                // A layout whose leaf side is `side`: the split address and
                // the lift at layers 1–4 (sides stay below 2^53).
                let layout = FingerprintLayout::new(1 + (x % 47) as u32, side, 1 + (y % 8) as u32);
                for layer in 1..=4u32 {
                    let fp_bits = layout.fingerprint_bits(layer);
                    let layer_side = layout.matrix_side(layer);
                    let split = layout.split(y, layer);
                    proptest::prop_assert_eq!(
                        split.address,
                        reference::split_address(y, fp_bits, layer_side)
                    );
                    let up_side = layout.matrix_side(layer + 1);
                    let shift = layout.r_bits.min(fp_bits);
                    let high = if shift == 0 { 0 } else { split.fingerprint >> (fp_bits - shift) };
                    let (_, lifted) = layout.lift(split.fingerprint, x, layer);
                    proptest::prop_assert_eq!(
                        lifted,
                        reference::lift_address(x, high, shift, up_side)
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn layout_rejects_non_power_of_two_side() {
        let _ = FingerprintLayout::new(19, 12, 1);
    }
}
