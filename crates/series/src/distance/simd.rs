//! AVX2+FMA SIMD kernels for squared Euclidean distance and LB_Keogh.
//!
//! The paper uses 256-bit SIMD for "the computation of the Euclidean
//! distance functions, as well as ... the conditional branch calculations
//! during the computation of the lower bound distances" (§II-A). This
//! module holds the real-distance kernels *and* the branchless LB_Keogh
//! envelope kernels; the SAX mindist gather kernel lives in `messi-sax`
//! next to the breakpoint tables.
//!
//! # Safety contract
//!
//! Every `unsafe fn` in `avx` compiles with `#[target_feature]` enabled
//! and is undefined behaviour on a CPU without AVX2+FMA. The contract for
//! callers is:
//!
//! 1. **Gate every call on [`simd_available`]** (directly or through
//!    `Kernel::uses_simd`). The check is cached in an atomic after the
//!    first query, so gating is free on the hot path.
//! 2. **Slices passed to a kernel must satisfy its length preconditions**
//!    (equal lengths; checked by debug assertions, relied upon by the
//!    pointer arithmetic in release builds).
//! 3. Inside the kernels, every intrinsic use sits in an explicit
//!    `unsafe {}` block with a `SAFETY:` comment
//!    (`deny(unsafe_op_in_unsafe_fn)` enforces this), and memory is only
//!    touched through `loadu`/unaligned-tolerant operations within the
//!    bounds of the argument slices.
//!
//! Every kernel has a *bit-identical* safe scalar twin next to its
//! dispatcher ([`super::euclidean`], [`super::lb_keogh`]): the twin
//! mirrors the kernel's 8-lane blocking, its fused multiply-add (via
//! [`f32::mul_add`], which Rust guarantees rounds once, exactly like the
//! `vfmadd` instruction), and the reduction order of `avx::hsum256` —
//! so forced-scalar and forced-SIMD runs return the same bits and the
//! kernel ablations compare work, not rounding. On non-x86_64 targets
//! this module reports SIMD as unavailable and the dispatchers always run
//! the scalar twins.
#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::atomic::{AtomicU8, Ordering};

/// Cached result of CPU feature detection: 0 = unknown, 1 = no, 2 = yes.
static SIMD_STATE: AtomicU8 = AtomicU8::new(0);

/// Whether the AVX2+FMA kernels can run on this CPU (detection is cached).
///
/// Setting `MESSI_FORCE_SCALAR` to anything but `0` in the environment
/// reports SIMD as unavailable even on AVX2 hardware, forcing every
/// dispatcher onto the scalar twins process-wide (used by CI to keep the
/// scalar path green on any runner).
#[inline]
pub fn simd_available() -> bool {
    match SIMD_STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let avail = !force_scalar() && detect();
            SIMD_STATE.store(if avail { 2 } else { 1 }, Ordering::Relaxed);
            avail
        }
    }
}

/// The `MESSI_FORCE_SCALAR` escape hatch (checked once, then cached in
/// [`SIMD_STATE`] alongside the CPU detection).
fn force_scalar() -> bool {
    std::env::var_os("MESSI_FORCE_SCALAR").is_some_and(|v| v != "0")
}

#[cfg(target_arch = "x86_64")]
fn detect() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> bool {
    false
}

/// How many points each early-abandon check covers: the SIMD kernels test
/// the accumulated distance against the bound once per this many points.
/// 32 points = 4 AVX vectors, amortizing the horizontal sum.
pub const ABANDON_STRIDE: usize = 32;

/// Horizontal sum of 8 virtual lanes in the exact reduction order of
/// [`avx::hsum256`]: `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
///
/// The scalar twins accumulate into a `[f32; 8]` block and reduce through
/// this function so their final sums are bit-identical to the AVX
/// kernels' — same pairings, same order, same single rounding per add.
#[inline]
pub(crate) fn hsum_lanes(l: [f32; 8]) -> f32 {
    ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx {
    //! The actual AVX2 kernels. Callers must check [`super::simd_available`]
    //! first; the functions are `unsafe` because they compile with
    //! `target_feature` enabled. See the module docs for the full safety
    //! contract.

    use super::ABANDON_STRIDE;
    #[allow(clippy::wildcard_imports)]
    use core::arch::x86_64::*;

    /// Horizontal sum of an AVX 8-lane f32 vector.
    ///
    /// Reduction order (mirrored by the scalar [`super::hsum_lanes`]):
    /// lanes fold as `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
    ///
    /// # Safety
    ///
    /// Requires AVX on the executing CPU.
    // SAFETY: called only from the AVX2 kernels below, which run only
    // where AVX2 (a superset of AVX) is present.
    #[inline]
    #[target_feature(enable = "avx")]
    unsafe fn hsum256(v: __m256) -> f32 {
        // Register-only intrinsics are safe inside a matching
        // #[target_feature] context (no memory access) — no unsafe
        // block needed even under `unsafe_op_in_unsafe_fn`.
        let hi = _mm256_extractf128_ps(v, 1);
        let lo = _mm256_castps256_ps128(v);
        let sum4 = _mm_add_ps(lo, hi);
        let sum2 = _mm_add_ps(sum4, _mm_movehl_ps(sum4, sum4));
        let sum1 = _mm_add_ss(sum2, _mm_shuffle_ps(sum2, sum2, 0b01));
        _mm_cvtss_f32(sum1)
    }

    /// Squared Euclidean distance, 8 lanes at a time with FMA.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA on the executing CPU. `a` and `b` must have equal
    /// lengths (checked by a debug assertion).
    // SAFETY: callers uphold the module's contract: gated on
    // `simd_available`, equal slice lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn ed_sq(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let lanes = n / 8 * 8;
        // SAFETY: pointer arithmetic stays within the slices; loadu allows
        // unaligned access.
        unsafe {
            let mut acc = _mm256_setzero_ps();
            let pa = a.as_ptr();
            let pb = b.as_ptr();
            let mut i = 0;
            while i < lanes {
                let va = _mm256_loadu_ps(pa.add(i));
                let vb = _mm256_loadu_ps(pb.add(i));
                let d = _mm256_sub_ps(va, vb);
                acc = _mm256_fmadd_ps(d, d, acc);
                i += 8;
            }
            let mut sum = hsum256(acc);
            for j in lanes..n {
                let d = *pa.add(j) - *pb.add(j);
                sum += d * d;
            }
            sum
        }
    }

    /// Early-abandoning squared Euclidean distance.
    ///
    /// Returns the exact squared distance if it is `< bound`; otherwise
    /// returns a partial sum that is already `>= bound` (the scan stops as
    /// soon as the accumulated distance crosses the bound, checking every
    /// [`ABANDON_STRIDE`] points).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA on the executing CPU; `a.len() == b.len()`.
    // SAFETY: as for `ed_sq`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn ed_sq_early_abandon(a: &[f32], b: &[f32], bound: f32) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        // SAFETY: as in `ed_sq`.
        unsafe {
            let pa = a.as_ptr();
            let pb = b.as_ptr();
            let mut total = 0.0f32;
            let mut i = 0;
            // Blocks of ABANDON_STRIDE points (4 AVX vectors) between checks.
            while i + ABANDON_STRIDE <= n {
                let mut acc = _mm256_setzero_ps();
                let mut j = i;
                while j < i + ABANDON_STRIDE {
                    let va = _mm256_loadu_ps(pa.add(j));
                    let vb = _mm256_loadu_ps(pb.add(j));
                    let d = _mm256_sub_ps(va, vb);
                    acc = _mm256_fmadd_ps(d, d, acc);
                    j += 8;
                }
                total += hsum256(acc);
                if total >= bound {
                    return total;
                }
                i += ABANDON_STRIDE;
            }
            // Tail: whole vectors, then scalar remainder.
            let lanes = (n - i) / 8 * 8 + i;
            let mut acc = _mm256_setzero_ps();
            let mut j = i;
            while j < lanes {
                let va = _mm256_loadu_ps(pa.add(j));
                let vb = _mm256_loadu_ps(pb.add(j));
                let d = _mm256_sub_ps(va, vb);
                acc = _mm256_fmadd_ps(d, d, acc);
                j += 8;
            }
            total += hsum256(acc);
            for k in lanes..n {
                let d = *pa.add(k) - *pb.add(k);
                total += d * d;
            }
            total
        }
    }

    /// Squared LB_Keogh of `candidate` against the envelope
    /// `(lower, upper)`, 8 points at a time.
    ///
    /// The out-of-envelope excursion is computed branchlessly by clamping
    /// the candidate into the envelope (`min`/`max`) and squaring the
    /// residual: `d = c - min(max(c, L), U)` is positive above `U`,
    /// negative below `L`, zero inside — and `d²` is the LB_Keogh term in
    /// all three cases.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA on the executing CPU. All three slices must have
    /// equal lengths (checked by debug assertions).
    // SAFETY: callers uphold the module's contract: gated on
    // `simd_available`, equal slice lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn lb_keogh_sq(lower: &[f32], upper: &[f32], candidate: &[f32]) -> f32 {
        debug_assert_eq!(lower.len(), candidate.len());
        debug_assert_eq!(upper.len(), candidate.len());
        let n = candidate.len();
        let lanes = n / 8 * 8;
        // SAFETY: pointer arithmetic stays within the slices; loadu allows
        // unaligned access.
        unsafe {
            let mut acc = _mm256_setzero_ps();
            let pl = lower.as_ptr();
            let pu = upper.as_ptr();
            let pc = candidate.as_ptr();
            let mut i = 0;
            while i < lanes {
                let l = _mm256_loadu_ps(pl.add(i));
                let u = _mm256_loadu_ps(pu.add(i));
                let c = _mm256_loadu_ps(pc.add(i));
                let clamped = _mm256_min_ps(_mm256_max_ps(c, l), u);
                let d = _mm256_sub_ps(c, clamped);
                acc = _mm256_fmadd_ps(d, d, acc);
                i += 8;
            }
            let mut sum = hsum256(acc);
            for j in lanes..n {
                let c = *pc.add(j);
                let d = c - c.max(*pl.add(j)).min(*pu.add(j));
                sum += d * d;
            }
            sum
        }
    }

    /// Early-abandoning squared LB_Keogh: exact if `< bound`, otherwise
    /// some partial sum `>= bound`, checking every [`ABANDON_STRIDE`]
    /// points exactly like [`ed_sq_early_abandon`].
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA on the executing CPU; all slices equal length.
    // SAFETY: as for `lb_keogh_sq`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn lb_keogh_sq_early_abandon(
        lower: &[f32],
        upper: &[f32],
        candidate: &[f32],
        bound: f32,
    ) -> f32 {
        debug_assert_eq!(lower.len(), candidate.len());
        debug_assert_eq!(upper.len(), candidate.len());
        let n = candidate.len();
        // SAFETY: as in `lb_keogh_sq`.
        unsafe {
            let pl = lower.as_ptr();
            let pu = upper.as_ptr();
            let pc = candidate.as_ptr();
            let mut total = 0.0f32;
            let mut i = 0;
            while i + ABANDON_STRIDE <= n {
                let mut acc = _mm256_setzero_ps();
                let mut j = i;
                while j < i + ABANDON_STRIDE {
                    let l = _mm256_loadu_ps(pl.add(j));
                    let u = _mm256_loadu_ps(pu.add(j));
                    let c = _mm256_loadu_ps(pc.add(j));
                    let clamped = _mm256_min_ps(_mm256_max_ps(c, l), u);
                    let d = _mm256_sub_ps(c, clamped);
                    acc = _mm256_fmadd_ps(d, d, acc);
                    j += 8;
                }
                total += hsum256(acc);
                if total >= bound {
                    return total;
                }
                i += ABANDON_STRIDE;
            }
            // Tail: whole vectors, then scalar remainder.
            let lanes = (n - i) / 8 * 8 + i;
            let mut acc = _mm256_setzero_ps();
            let mut j = i;
            while j < lanes {
                let l = _mm256_loadu_ps(pl.add(j));
                let u = _mm256_loadu_ps(pu.add(j));
                let c = _mm256_loadu_ps(pc.add(j));
                let clamped = _mm256_min_ps(_mm256_max_ps(c, l), u);
                let d = _mm256_sub_ps(c, clamped);
                acc = _mm256_fmadd_ps(d, d, acc);
                j += 8;
            }
            total += hsum256(acc);
            for k in lanes..n {
                let c = *pc.add(k);
                let d = c - c.max(*pl.add(k)).min(*pu.add(k));
                total += d * d;
            }
            total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::euclidean::ed_sq_scalar;
    use crate::stats::approx_eq;

    fn pair(n: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.13).sin()).collect();
        let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.31).cos()).collect();
        (a, b)
    }

    #[test]
    fn detection_is_stable() {
        let first = simd_available();
        for _ in 0..3 {
            assert_eq!(simd_available(), first);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx_matches_scalar_on_many_lengths() {
        if !simd_available() {
            eprintln!("skipping: no AVX2+FMA");
            return;
        }
        for n in [
            1usize, 7, 8, 9, 15, 16, 31, 32, 33, 63, 64, 100, 128, 255, 256, 1024,
        ] {
            let (a, b) = pair(n);
            let scalar = ed_sq_scalar(&a, &b);
            // SAFETY: guarded by simd_available().
            let simd = unsafe { avx::ed_sq(&a, &b) };
            assert!(
                approx_eq(scalar, simd, 1e-4),
                "n={n}: scalar={scalar} simd={simd}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx_early_abandon_exact_when_below_bound() {
        if !simd_available() {
            return;
        }
        for n in [8usize, 32, 64, 100, 256] {
            let (a, b) = pair(n);
            let exact = ed_sq_scalar(&a, &b);
            // SAFETY: guarded by simd_available().
            let d = unsafe { avx::ed_sq_early_abandon(&a, &b, exact * 2.0 + 1.0) };
            assert!(approx_eq(exact, d, 1e-4), "n={n}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx_early_abandon_crosses_bound_when_abandoning() {
        if !simd_available() {
            return;
        }
        let (a, b) = pair(256);
        let exact = ed_sq_scalar(&a, &b);
        let bound = exact / 4.0;
        // SAFETY: guarded by simd_available().
        let d = unsafe { avx::ed_sq_early_abandon(&a, &b, bound) };
        assert!(d >= bound, "abandoned value {d} must be >= bound {bound}");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx_zero_distance_for_identical_series() {
        if !simd_available() {
            return;
        }
        let (a, _) = pair(256);
        // SAFETY: guarded by simd_available().
        let d = unsafe { avx::ed_sq(&a, &a) };
        assert_eq!(d, 0.0);
    }

    /// Simple branchy LB_Keogh oracle for the AVX kernel tests.
    fn lb_keogh_oracle(lower: &[f32], upper: &[f32], candidate: &[f32]) -> f32 {
        candidate
            .iter()
            .zip(lower)
            .zip(upper)
            .map(|((&c, &l), &u)| {
                if c > u {
                    (c - u) * (c - u)
                } else if c < l {
                    (l - c) * (l - c)
                } else {
                    0.0
                }
            })
            .sum()
    }

    fn envelope_triplet(n: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let lower: Vec<f32> = (0..n).map(|i| (i as f32 * 0.17).sin() - 0.4).collect();
        let upper: Vec<f32> = lower.iter().map(|l| l + 0.8).collect();
        let cand: Vec<f32> = (0..n).map(|i| (i as f32 * 0.29).cos() * 1.5).collect();
        (lower, upper, cand)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx_lb_keogh_matches_oracle_on_many_lengths() {
        if !simd_available() {
            return;
        }
        for n in [
            1usize, 7, 8, 9, 15, 16, 31, 32, 33, 63, 64, 100, 128, 255, 256, 1024,
        ] {
            let (lower, upper, cand) = envelope_triplet(n);
            let oracle = lb_keogh_oracle(&lower, &upper, &cand);
            // SAFETY: guarded by simd_available().
            let simd = unsafe { avx::lb_keogh_sq(&lower, &upper, &cand) };
            assert!(
                approx_eq(oracle, simd, 1e-4),
                "n={n}: oracle={oracle} simd={simd}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx_lb_keogh_zero_inside_envelope() {
        if !simd_available() {
            return;
        }
        let (lower, upper, _) = envelope_triplet(100);
        let inside: Vec<f32> = lower
            .iter()
            .zip(&upper)
            .map(|(&l, &u)| (l + u) / 2.0)
            .collect();
        // SAFETY: guarded by simd_available().
        let d = unsafe { avx::lb_keogh_sq(&lower, &upper, &inside) };
        assert_eq!(d, 0.0);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx_lb_keogh_early_abandon_contract() {
        if !simd_available() {
            return;
        }
        let (lower, upper, cand) = envelope_triplet(256);
        let exact = lb_keogh_oracle(&lower, &upper, &cand);
        assert!(exact > 0.0);
        // SAFETY: guarded by simd_available().
        let below = unsafe { avx::lb_keogh_sq_early_abandon(&lower, &upper, &cand, exact / 8.0) };
        assert!(below >= exact / 8.0);
        // SAFETY: guarded by simd_available().
        let full = unsafe { avx::lb_keogh_sq_early_abandon(&lower, &upper, &cand, exact * 2.0) };
        assert!(approx_eq(full, exact, 1e-4));
    }
}
