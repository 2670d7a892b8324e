//! Lane-width slab sweep primitives shared by the HIGGS compressed matrix
//! and the GSS baseline.
//!
//! The hot loops of every probe — edge lookups over `r × r` candidate
//! buckets, source-vertex sweeps over a contiguous `d · b`-slot row — reduce
//! to one shape: *sum the weights of all slots whose packed key and tag match
//! a pattern under a mask and whose time offset lies in an inclusive range*.
//! [`sum_matching`] is that primitive, operating over three parallel columns
//! (`keys`, `tags`, `weights`) of a structure-of-arrays slab:
//!
//! * `keys[i]` holds the packed fingerprint pair of slot `i`,
//! * `tags[i]` holds the packed index pair in its high 32 bits and the time
//!   offset in its low 32 bits,
//! * `weights[i]` holds the accumulated signed weight.
//!
//! Callers pass contiguous slot ranges — one bucket, or one whole matrix
//! row — and every slot in range is subjected to the identical predicate,
//! which is exactly the shape the explicit kernels need. A range may include
//! empty slots as long as they are all-zero: they can match a zero pattern,
//! but their weight is zero, so they contribute nothing.
//!
//! # Key-first evaluation
//!
//! The predicate is conjunctive and the key test is by far the most
//! selective conjunct (fingerprints are ≈ 19 random bits), so every kernel
//! evaluates **key-first**: the `keys` column is the only stream read
//! unconditionally — 8 bytes per slot instead of the full 24 — and the
//! `tags`/`weights` columns are loaded only for the rare slots whose masked
//! key matches. Sweep cost is therefore bounded by the bandwidth of one
//! column, not three.
//!
//! # Kernels and dispatch
//!
//! The **scalar path is the reference**: a key-first loop whose rare-match
//! branch is almost never taken (the branch predictor, not the
//! autovectoriser, is the accelerator on targets without explicit kernels).
//! It is always compiled and is the only path on non-x86_64 targets.
//!
//! With the `simd` cargo feature enabled on x86_64, explicit SSE2 and AVX2
//! kernels (`core::arch::x86_64`, no external crates) are compiled as well
//! and selected once at runtime via `is_x86_feature_detected!`; the choice is
//! cached in an atomic so steady-state dispatch is one relaxed load. They
//! vectorise the masked key compare and reduce it to a movemask; matching
//! lanes fall back to the same scalar slot check, visited in ascending index
//! order. All kernels therefore compute bit-identical sums (same per-slot
//! predicate, same wrapping accumulation order), which the property suites
//! in `higgs` assert across random workloads. [`force_scalar`] pins dispatch
//! to the scalar path so those suites can diff kernels inside one process.
//!
//! [`prefetch_read_data`] is the portable software-prefetch shim used by the
//! columnar batch evaluator: `prefetcht0` on x86_64 (baseline SSE, available
//! on every x86_64 CPU), a no-op elsewhere. Prefetching never faults, so the
//! wrapper is safe; it bounds-checks the index and does nothing out of range.

use core::sync::atomic::{AtomicBool, Ordering};

/// Mask extracting the time offset from a packed tag (low 32 bits).
pub const TAG_OFFSET_MASK: u64 = 0xFFFF_FFFF;

/// Sums `weights[i]` over all `i` where
/// `keys[i] & key_mask == key_pat`, `tags[i] & tag_mask == tag_pat`, and
/// `off_lo <= tags[i] & TAG_OFFSET_MASK <= off_hi` (inclusive).
///
/// All three slices must have equal length (debug-asserted; the shorter
/// length governs in release builds). Accumulation wraps on 64-bit overflow
/// in every kernel, so results are bit-identical across dispatch choices.
///
/// `tag_pat` must not set bits inside [`TAG_OFFSET_MASK`] (offsets are
/// range-checked, not pattern-matched) and `off_lo`/`off_hi` must be
/// `u32`-range values; both are debug-asserted.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn sum_matching(
    keys: &[u64],
    tags: &[u64],
    weights: &[i64],
    key_mask: u64,
    key_pat: u64,
    tag_mask: u64,
    tag_pat: u64,
    off_lo: u32,
    off_hi: u32,
) -> i64 {
    debug_assert_eq!(keys.len(), tags.len());
    debug_assert_eq!(keys.len(), weights.len());
    debug_assert_eq!(tag_pat & TAG_OFFSET_MASK, 0);
    dispatch::sum_matching(
        keys, tags, weights, key_mask, key_pat, tag_mask, tag_pat, off_lo, off_hi,
    )
}

/// Tag-and-offset check for one slot whose key already matched: returns the
/// slot's weight if the remaining conjuncts hold, else zero (branchless
/// select, so every kernel resolves a key hit identically).
#[inline(always)]
// LINT-ALLOW(hot-path-panic): every caller derives `i` from a loop bounded by
// `n = min(keys.len(), tags.len(), weights.len())`, so both accesses are in
// range; a bounds branch here would sit on the rare-hit path of every kernel.
fn slot_contrib(
    tags: &[u64],
    weights: &[i64],
    i: usize,
    tag_mask: u64,
    tag_pat: u64,
    off_lo: u64,
    off_hi: u64,
) -> i64 {
    let t = tags[i];
    let tag_eq = (t & tag_mask) == tag_pat;
    let off = t & TAG_OFFSET_MASK;
    let off_in = (off >= off_lo) & (off <= off_hi);
    // `true` → all-ones mask, `false` → zero: select without branching.
    let lane = ((tag_eq & off_in) as i64).wrapping_neg();
    weights[i] & lane
}

/// Scalar reference kernel, key-first: stream the `keys` column, and only on
/// a masked key hit (rare — fingerprints are random) touch the slot's tag
/// and weight. The hit branch is near-perfectly predicted, so the loop
/// retires ≈ one key check per cycle while reading a third of the slab
/// bytes. This is the semantics every explicit kernel must reproduce
/// bit-for-bit: same predicate, same ascending accumulation order.
///
/// `#[inline]`: bucket-granular probes call this with `b ≈ 3`-slot slices
/// tens of times per query; inlining into the probe loop removes the
/// nine-argument call from the hot path.
#[inline]
#[allow(clippy::too_many_arguments)]
fn sum_matching_scalar(
    keys: &[u64],
    tags: &[u64],
    weights: &[i64],
    key_mask: u64,
    key_pat: u64,
    tag_mask: u64,
    tag_pat: u64,
    off_lo: u32,
    off_hi: u32,
) -> i64 {
    let (off_lo, off_hi) = (u64::from(off_lo), u64::from(off_hi));
    let n = keys.len().min(tags.len()).min(weights.len());
    let mut acc = 0i64;
    // LINT-ALLOW(hot-path-panic): `n <= keys.len()` by construction.
    for (i, &k) in keys[..n].iter().enumerate() {
        if k & key_mask == key_pat {
            acc = acc.wrapping_add(slot_contrib(
                tags, weights, i, tag_mask, tag_pat, off_lo, off_hi,
            ));
        }
    }
    acc
}

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Pins kernel dispatch to the scalar reference path (`true`) or restores
/// runtime selection (`false`).
///
/// Test hook for the SIMD/scalar bit-identity suites: with the `simd`
/// feature enabled they evaluate every workload twice — once forced scalar,
/// once hardware-dispatched — and assert equal results. Not intended for
/// production use; without the `simd` feature it has no observable effect
/// (the scalar path is the only one compiled).
#[doc(hidden)]
pub fn force_scalar(on: bool) {
    // ORDERING: Release pairs with the Acquire load in `kernel_name`, so a
    // thread that observes the toggle also observes everything the toggling
    // test did before it. Dispatch itself only needs the flag value (all
    // kernels are bit-identical), but the stronger pair keeps the test
    // hook's happens-before story simple.
    FORCE_SCALAR.store(on, Ordering::Release);
}

/// Name of the kernel the next [`sum_matching`] call will dispatch to
/// (`"scalar"`, `"sse2"`, or `"avx2"`). Diagnostic only.
pub fn kernel_name() -> &'static str {
    dispatch::kernel_name()
}

/// Minimum slice length worth routing to an explicit SIMD kernel: shorter
/// sweeps (single buckets of `b ≈ 3` slots) are dominated by setup and
/// horizontal reduction, so they take the scalar path regardless of
/// dispatch. Kept crate-public so tests can straddle the threshold.
pub const SIMD_MIN_LEN: usize = 16;

#[cfg(all(target_arch = "x86_64", feature = "simd"))]
mod dispatch {
    use super::{sum_matching_scalar, Ordering, FORCE_SCALAR, SIMD_MIN_LEN};
    use core::sync::atomic::AtomicU8;

    const KERNEL_UNKNOWN: u8 = 0;
    const KERNEL_SCALAR: u8 = 1;
    const KERNEL_SSE2: u8 = 2;
    const KERNEL_AVX2: u8 = 3;

    /// Cached `is_x86_feature_detected!` verdict; steady-state dispatch is
    /// one relaxed load.
    static KERNEL: AtomicU8 = AtomicU8::new(KERNEL_UNKNOWN);

    fn detect() -> u8 {
        // ORDERING: Relaxed — the cache holds an idempotent CPUID verdict;
        // racing threads recompute the same value and publish no other data,
        // so only the value itself (not ordering) matters.
        let k = KERNEL.load(Ordering::Relaxed);
        if k != KERNEL_UNKNOWN {
            return k;
        }
        let k = if std::arch::is_x86_feature_detected!("avx2") {
            KERNEL_AVX2
        } else if std::arch::is_x86_feature_detected!("sse2") {
            KERNEL_SSE2
        } else {
            KERNEL_SCALAR
        };
        // ORDERING: Relaxed — same reasoning as the load above: the store
        // only memoises a value every thread derives identically.
        KERNEL.store(k, Ordering::Relaxed);
        k
    }

    pub(super) fn kernel_name() -> &'static str {
        // ORDERING: Acquire pairs with the Release store in `force_scalar`
        // (see the rationale there).
        if FORCE_SCALAR.load(Ordering::Acquire) {
            return "scalar";
        }
        match detect() {
            KERNEL_AVX2 => "avx2",
            KERNEL_SSE2 => "sse2",
            _ => "scalar",
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(super) fn sum_matching(
        keys: &[u64],
        tags: &[u64],
        weights: &[i64],
        key_mask: u64,
        key_pat: u64,
        tag_mask: u64,
        tag_pat: u64,
        off_lo: u32,
        off_hi: u32,
    ) -> i64 {
        // ORDERING: Relaxed — dispatch hint only; every kernel computes the
        // same bits, so observing a stale flag value cannot change results.
        if keys.len() >= SIMD_MIN_LEN && !FORCE_SCALAR.load(Ordering::Relaxed) {
            match detect() {
                // SAFETY: `detect` verified AVX2 support at runtime before
                // selecting this arm.
                #[allow(unsafe_code)]
                KERNEL_AVX2 => unsafe {
                    return sum_matching_avx2(
                        keys, tags, weights, key_mask, key_pat, tag_mask, tag_pat, off_lo, off_hi,
                    );
                },
                // SAFETY: `detect` verified SSE2 support at runtime before
                // selecting this arm.
                #[allow(unsafe_code)]
                KERNEL_SSE2 => unsafe {
                    return sum_matching_sse2(
                        keys, tags, weights, key_mask, key_pat, tag_mask, tag_pat, off_lo, off_hi,
                    );
                },
                _ => {}
            }
        }
        sum_matching_scalar(
            keys, tags, weights, key_mask, key_pat, tag_mask, tag_pat, off_lo, off_hi,
        )
    }

    /// AVX2 kernel, key-first: masked 64-bit compare of four keys per step,
    /// reduced to a 4-bit movemask. The overwhelmingly common all-miss step
    /// is one load + and + cmpeq + movemask with no access to the tag or
    /// weight columns; hit lanes are resolved through the same
    /// [`slot_contrib`] check as the scalar kernel, in ascending index order
    /// (`trailing_zeros` walks the mask low-to-high), so sums are
    /// bit-identical to the reference.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime.
    // LINT-ALLOW(hot-path-panic): the remainder slices use `i..n` with
    // `i <= n <= len` of every column (loop guards), and hit lanes satisfy
    // `i + lane < n` by the movemask width, so no access can be out of range.
    #[allow(unsafe_code)]
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn sum_matching_avx2(
        keys: &[u64],
        tags: &[u64],
        weights: &[i64],
        key_mask: u64,
        key_pat: u64,
        tag_mask: u64,
        tag_pat: u64,
        off_lo: u32,
        off_hi: u32,
    ) -> i64 {
        use core::arch::x86_64::*;
        let n = keys.len().min(tags.len()).min(weights.len());
        let (lo, hi) = (u64::from(off_lo), u64::from(off_hi));
        let vkey_mask = _mm256_set1_epi64x(key_mask as i64);
        let vkey_pat = _mm256_set1_epi64x(key_pat as i64);
        let mut acc = 0i64;
        let mut i = 0usize;
        // Two vectors per step (8 keys) with the two 4-bit movemasks packed
        // into one hit word: halves the loop/branch overhead of the all-miss
        // fast path, which is where wide sweeps spend essentially all steps.
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n` bounds both unaligned 32-byte loads.
            #[allow(unsafe_code)]
            let (k0, k1) = unsafe {
                (
                    _mm256_loadu_si256(keys.as_ptr().add(i).cast()),
                    _mm256_loadu_si256(keys.as_ptr().add(i + 4).cast()),
                )
            };
            let eq0 = _mm256_cmpeq_epi64(_mm256_and_si256(k0, vkey_mask), vkey_pat);
            let eq1 = _mm256_cmpeq_epi64(_mm256_and_si256(k1, vkey_mask), vkey_pat);
            // One sign bit per 64-bit lane (compare masks are all-ones or
            // all-zero, so the double-precision movemask is exact). Bits
            // 0..=3 are lanes i..=i+3, bits 4..=7 lanes i+4..=i+7, so a
            // trailing-zeros walk visits hits in ascending index order.
            let mut hits = (_mm256_movemask_pd(_mm256_castsi256_pd(eq0)) as u32)
                | ((_mm256_movemask_pd(_mm256_castsi256_pd(eq1)) as u32) << 4);
            while hits != 0 {
                let lane = hits.trailing_zeros() as usize;
                acc = acc.wrapping_add(super::slot_contrib(
                    tags,
                    weights,
                    i + lane,
                    tag_mask,
                    tag_pat,
                    lo,
                    hi,
                ));
                hits &= hits - 1;
            }
            i += 8;
        }
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds the unaligned 32-byte load.
            #[allow(unsafe_code)]
            let k = unsafe { _mm256_loadu_si256(keys.as_ptr().add(i).cast()) };
            let key_eq = _mm256_cmpeq_epi64(_mm256_and_si256(k, vkey_mask), vkey_pat);
            let mut hits = _mm256_movemask_pd(_mm256_castsi256_pd(key_eq)) as u32;
            while hits != 0 {
                let lane = hits.trailing_zeros() as usize;
                acc = acc.wrapping_add(super::slot_contrib(
                    tags,
                    weights,
                    i + lane,
                    tag_mask,
                    tag_pat,
                    lo,
                    hi,
                ));
                hits &= hits - 1;
            }
            i += 4;
        }
        acc.wrapping_add(sum_matching_scalar(
            &keys[i..n],
            &tags[i..n],
            &weights[i..n],
            key_mask,
            key_pat,
            tag_mask,
            tag_pat,
            off_lo,
            off_hi,
        ))
    }

    /// SSE2 kernel, key-first: two keys per step. SSE2 has no 64-bit
    /// compare, so 64-bit equality is two 32-bit `cmpeq` halves ANDed
    /// together; the rest mirrors the AVX2 kernel (movemask, hit lanes via
    /// [`slot_contrib`] in ascending order).
    ///
    /// # Safety
    ///
    /// Caller must have verified SSE2 support at runtime (guaranteed on
    /// every x86_64 CPU, but dispatch checks anyway).
    // LINT-ALLOW(hot-path-panic): the remainder slice uses `i..n` with
    // `i <= n <= len` of every column (loop guard), and hit lanes satisfy
    // `i + lane < n` by the movemask width, so no access can be out of range.
    #[allow(unsafe_code)]
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "sse2")]
    unsafe fn sum_matching_sse2(
        keys: &[u64],
        tags: &[u64],
        weights: &[i64],
        key_mask: u64,
        key_pat: u64,
        tag_mask: u64,
        tag_pat: u64,
        off_lo: u32,
        off_hi: u32,
    ) -> i64 {
        use core::arch::x86_64::*;
        let n = keys.len().min(tags.len()).min(weights.len());
        let (lo, hi) = (u64::from(off_lo), u64::from(off_hi));
        let vkey_mask = _mm_set1_epi64x(key_mask as i64);
        let vkey_pat = _mm_set1_epi64x(key_pat as i64);
        let mut acc = 0i64;
        let mut i = 0usize;
        while i + 2 <= n {
            // SAFETY: `i + 2 <= n` bounds the unaligned 16-byte load.
            #[allow(unsafe_code)]
            let k = unsafe { _mm_loadu_si128(keys.as_ptr().add(i).cast()) };
            let eq32 = _mm_cmpeq_epi32(_mm_and_si128(k, vkey_mask), vkey_pat);
            // Per-64-bit-lane equality out of 32-bit compares: both dword
            // halves must agree.
            let key_eq = _mm_and_si128(eq32, _mm_shuffle_epi32(eq32, 0b1011_0001));
            let mut hits = _mm_movemask_pd(_mm_castsi128_pd(key_eq)) as u32;
            while hits != 0 {
                let lane = hits.trailing_zeros() as usize;
                acc = acc.wrapping_add(super::slot_contrib(
                    tags,
                    weights,
                    i + lane,
                    tag_mask,
                    tag_pat,
                    lo,
                    hi,
                ));
                hits &= hits - 1;
            }
            i += 2;
        }
        acc.wrapping_add(sum_matching_scalar(
            &keys[i..n],
            &tags[i..n],
            &weights[i..n],
            key_mask,
            key_pat,
            tag_mask,
            tag_pat,
            off_lo,
            off_hi,
        ))
    }
}

#[cfg(not(all(target_arch = "x86_64", feature = "simd")))]
mod dispatch {
    use super::sum_matching_scalar;

    pub(super) fn kernel_name() -> &'static str {
        "scalar"
    }

    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(super) fn sum_matching(
        keys: &[u64],
        tags: &[u64],
        weights: &[i64],
        key_mask: u64,
        key_pat: u64,
        tag_mask: u64,
        tag_pat: u64,
        off_lo: u32,
        off_hi: u32,
    ) -> i64 {
        sum_matching_scalar(
            keys, tags, weights, key_mask, key_pat, tag_mask, tag_pat, off_lo, off_hi,
        )
    }
}

/// Software-prefetches `data[index]` for an imminent read (`prefetcht0` on
/// x86_64, no-op elsewhere and when `index` is out of range). Purely a
/// performance hint: prefetch instructions never fault and never change
/// observable results.
#[inline(always)]
pub fn prefetch_read_data<T>(data: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if index < data.len() {
        // SAFETY: the index is in bounds, so the pointer is valid; prefetch
        // has no observable side effects and cannot fault regardless.
        #[allow(unsafe_code)]
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                data.as_ptr().add(index).cast(),
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation with obvious branching semantics.
    #[allow(clippy::too_many_arguments)]
    fn naive(
        keys: &[u64],
        tags: &[u64],
        weights: &[i64],
        key_mask: u64,
        key_pat: u64,
        tag_mask: u64,
        tag_pat: u64,
        off_lo: u32,
        off_hi: u32,
    ) -> i64 {
        let mut acc = 0i64;
        for i in 0..keys.len() {
            let off = (tags[i] & TAG_OFFSET_MASK) as u32;
            if keys[i] & key_mask == key_pat
                && tags[i] & tag_mask == tag_pat
                && off >= off_lo
                && off <= off_hi
            {
                acc = acc.wrapping_add(weights[i]);
            }
        }
        acc
    }

    fn workload(len: usize, seed: u64) -> (Vec<u64>, Vec<u64>, Vec<i64>) {
        let mut state = seed;
        let mut next = move || {
            state = crate::hashing::splitmix64(state);
            state
        };
        let keys: Vec<u64> = (0..len).map(|_| next() % 8).collect();
        let tags: Vec<u64> = (0..len)
            .map(|_| ((next() % 4) << 32) | (next() % 100))
            .collect();
        let weights: Vec<i64> = (0..len).map(|_| (next() % 1000) as i64 - 500).collect();
        (keys, tags, weights)
    }

    #[test]
    fn matches_naive_reference_across_lengths() {
        // Lengths straddle the SIMD threshold and every lane-width remainder.
        for len in [0usize, 1, 2, 3, 5, 7, 15, 16, 17, 31, 64, 100, 257] {
            let (keys, tags, weights) = workload(len, len as u64 + 1);
            for (lo, hi) in [(0u32, u32::MAX), (10, 60), (50, 50), (90, 10)] {
                let expect = naive(&keys, &tags, &weights, !0, 3, 0xF_0000_0000, 0, lo, hi);
                let got = sum_matching(&keys, &tags, &weights, !0, 3, 0xF_0000_0000, 0, lo, hi);
                assert_eq!(got, expect, "len {len} range [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn masked_key_and_tag_patterns() {
        let (keys, tags, weights) = workload(200, 42);
        // High-half key match (src-style), high-byte tag match.
        let cases = [
            (
                0xFFFF_FFFF_0000_0000u64,
                2u64 << 32,
                0xFF00_0000_0000u64,
                0u64,
            ),
            (0xFFFF_FFFFu64, 5, 0xFF_0000_0000u64, 2u64 << 32),
            (!0u64, 0, !TAG_OFFSET_MASK, 3u64 << 32),
        ];
        for (km, kp, tm, tp) in cases {
            assert_eq!(
                sum_matching(&keys, &tags, &weights, km, kp, tm, tp, 0, u32::MAX),
                naive(&keys, &tags, &weights, km, kp, tm, tp, 0, u32::MAX),
            );
        }
    }

    #[test]
    fn forced_scalar_is_bit_identical_to_dispatch() {
        // `force_scalar` flips a process-global; this is the single test
        // that toggles it (kernel_name assertions live here too), so no
        // other concurrently running test observes a half-toggled state —
        // and even if one did, every kernel is bit-identical anyway.
        let (keys, tags, weights) = workload(4096, 7);
        let args = (!0u64, 1u64, 0xF_0000_0000u64, 0u64, 5u32, 80u32);
        let dispatched = sum_matching(
            &keys, &tags, &weights, args.0, args.1, args.2, args.3, args.4, args.5,
        );
        assert!(["scalar", "sse2", "avx2"].contains(&kernel_name()));
        force_scalar(true);
        assert_eq!(kernel_name(), "scalar");
        let scalar = sum_matching(
            &keys, &tags, &weights, args.0, args.1, args.2, args.3, args.4, args.5,
        );
        force_scalar(false);
        assert_eq!(dispatched, scalar);
    }

    #[test]
    fn empty_all_zero_slots_contribute_nothing() {
        // The slab invariant: all-zero slots may satisfy a zero pattern but
        // never change the sum, because their weight is zero.
        let keys = vec![0u64; 64];
        let tags = vec![0u64; 64];
        let weights = vec![0i64; 64];
        assert_eq!(
            sum_matching(&keys, &tags, &weights, 0, 0, 0, 0, 0, u32::MAX),
            0
        );
    }

    #[test]
    fn wrapping_accumulation_is_consistent() {
        let keys = vec![1u64; 20];
        let tags = vec![0u64; 20];
        let weights = vec![i64::MAX; 20];
        let expect = (0..20).fold(0i64, |a, _| a.wrapping_add(i64::MAX));
        assert_eq!(
            sum_matching(&keys, &tags, &weights, !0, 1, !0, 0, 0, u32::MAX),
            expect
        );
    }

    #[test]
    fn prefetch_is_safe_in_and_out_of_bounds() {
        let data = [1u64, 2, 3];
        prefetch_read_data(&data, 0);
        prefetch_read_data(&data, 2);
        prefetch_read_data(&data, 3); // out of range: no-op
        prefetch_read_data::<u64>(&[], 0);
    }
}
