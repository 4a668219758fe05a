//! LB_Keogh: the envelope lower bound for DTW.
//!
//! For DTW search (Fig. 19), the paper builds "the envelope of the
//! LB_Keogh method around the query series" and searches the index with
//! it. The envelope of a query `q` under warping window `r` is
//! `U[i] = max(q[i-r..=i+r])`, `L[i] = min(q[i-r..=i+r])`. For any
//! candidate `c`,
//!
//! ```text
//! LB_Keogh(q, c) = Σᵢ  (c[i] − U[i])²  if c[i] > U[i]
//!                     (L[i] − c[i])²  if c[i] < L[i]
//!                     0               otherwise
//! ```
//!
//! is a lower bound on the banded DTW distance (Keogh & Ratanamahatana,
//! KAIS 2005). The envelope construction uses the monotonic-deque sliding
//! window algorithm (O(n) instead of O(n·r)).

use super::dtw::DtwParams;
use super::simd;
use super::Kernel;
use std::collections::VecDeque;

/// Upper/lower envelope of a series under a warping window.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Pointwise sliding-window maximum of the enclosed series.
    pub upper: Vec<f32>,
    /// Pointwise sliding-window minimum of the enclosed series.
    pub lower: Vec<f32>,
}

impl Envelope {
    /// Builds the LB_Keogh envelope of `series` for the given DTW window.
    ///
    /// # Panics
    ///
    /// Panics if `series` is empty.
    pub fn new(series: &[f32], params: DtwParams) -> Self {
        assert!(!series.is_empty(), "cannot build envelope of empty series");
        let n = series.len();
        let r = params.clamped(n).window;
        let mut upper = vec![0.0f32; n];
        let mut lower = vec![0.0f32; n];

        // Sliding window max/min over [i-r, i+r] via monotonic deques.
        // Deques hold indices; fronts are the current extrema.
        let mut max_dq: VecDeque<usize> = VecDeque::with_capacity(2 * r + 2);
        let mut min_dq: VecDeque<usize> = VecDeque::with_capacity(2 * r + 2);
        for j in 0..n + r {
            if j < n {
                // Push index j, maintaining monotonicity.
                while let Some(&back) = max_dq.back() {
                    if series[back] <= series[j] {
                        max_dq.pop_back();
                    } else {
                        break;
                    }
                }
                max_dq.push_back(j);
                while let Some(&back) = min_dq.back() {
                    if series[back] >= series[j] {
                        min_dq.pop_back();
                    } else {
                        break;
                    }
                }
                min_dq.push_back(j);
            }
            // Window for output position i = j - r covers [i-r, i+r] = [j-2r, j].
            if j >= r {
                let i = j - r;
                // Expire indices left of the window.
                let left = i.saturating_sub(r);
                while let Some(&front) = max_dq.front() {
                    if front < left {
                        max_dq.pop_front();
                    } else {
                        break;
                    }
                }
                while let Some(&front) = min_dq.front() {
                    if front < left {
                        min_dq.pop_front();
                    } else {
                        break;
                    }
                }
                upper[i] = series[*max_dq.front().expect("window never empty")];
                lower[i] = series[*min_dq.front().expect("window never empty")];
            }
        }
        Self { upper, lower }
    }

    /// Naive O(n·r) envelope, kept as the test oracle for the deque version.
    pub fn new_naive(series: &[f32], params: DtwParams) -> Self {
        assert!(!series.is_empty());
        let n = series.len();
        let r = params.clamped(n).window;
        let mut upper = Vec::with_capacity(n);
        let mut lower = Vec::with_capacity(n);
        for i in 0..n {
            let lo = i.saturating_sub(r);
            let hi = (i + r).min(n - 1);
            let win = &series[lo..=hi];
            upper.push(win.iter().copied().fold(f32::NEG_INFINITY, f32::max));
            lower.push(win.iter().copied().fold(f32::INFINITY, f32::min));
        }
        Self { upper, lower }
    }

    /// Number of points in the envelope.
    pub fn len(&self) -> usize {
        self.upper.len()
    }

    /// Whether the envelope is empty (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.upper.is_empty()
    }
}

/// Squared LB_Keogh lower bound of the DTW distance between the enveloped
/// query and `candidate`, by the plain formula a point at a time.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn lb_keogh_sq(env: &Envelope, candidate: &[f32]) -> f32 {
    // Hard assert: the zip below would silently truncate on mismatch,
    // weakening the lower bound.
    assert_eq!(env.upper.len(), candidate.len());
    let mut sum = 0.0f32;
    // Branchless body: max(0, c-U) + max(0, L-c), at most one non-zero.
    for ((&c, &upper), &lower) in candidate.iter().zip(&env.upper).zip(&env.lower) {
        let d = (c - upper).max(0.0) + (lower - c).max(0.0);
        sum += d * d;
    }
    sum
}

/// UCR Suite's cumulative LB_Keogh: `suffix[t]` becomes the contribution
/// of `candidate[t..]`, summed from the back, and `suffix[n]` zero.
pub fn lb_keogh_suffix(env: &Envelope, candidate: &[f32], suffix: &mut [f32]) {
    let mut sum = 0.0f32;
    suffix[candidate.len()] = sum;
    for (t, &c) in candidate.iter().enumerate().rev() {
        let d = c - c.max(env.lower[t]).min(env.upper[t]);
        sum += d * d;
        suffix[t] = sum;
    }
}

/// Scalar twin of the AVX LB_Keogh kernel: clamp-into-envelope form,
/// 8 virtual lanes fused with [`f32::mul_add`], reduced in the SIMD
/// horizontal-sum order. Bit-identical to
/// `simd::avx::lb_keogh_sq` on the same inputs.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn lb_keogh_sq_scalar(env: &Envelope, candidate: &[f32]) -> f32 {
    assert_eq!(env.upper.len(), candidate.len());
    let (lower, upper) = (env.lower.as_slice(), env.upper.as_slice());
    let n = candidate.len();
    let lanes = n / 8 * 8;
    let mut acc = [0.0f32; 8];
    let mut i = 0;
    while i < lanes {
        for (l, slot) in acc.iter_mut().enumerate() {
            let c = candidate[i + l];
            let d = c - c.max(lower[i + l]).min(upper[i + l]);
            *slot = d.mul_add(d, *slot);
        }
        i += 8;
    }
    let mut sum = simd::hsum_lanes(acc);
    for j in lanes..n {
        let c = candidate[j];
        let d = c - c.max(lower[j]).min(upper[j]);
        sum += d * d;
    }
    sum
}

/// Scalar twin of the AVX early-abandoning LB_Keogh kernel: bound checks
/// every [`simd::ABANDON_STRIDE`] points, whole-lane-block tail, scalar
/// remainder — abandoning at the same places with the same partial sums
/// as `simd::avx::lb_keogh_sq_early_abandon`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn lb_keogh_sq_early_abandon_scalar(env: &Envelope, candidate: &[f32], bound: f32) -> f32 {
    assert_eq!(env.upper.len(), candidate.len());
    let (lower, upper) = (env.lower.as_slice(), env.upper.as_slice());
    let n = candidate.len();
    let mut total = 0.0f32;
    let mut i = 0;
    while i + simd::ABANDON_STRIDE <= n {
        let mut acc = [0.0f32; 8];
        let mut j = i;
        while j < i + simd::ABANDON_STRIDE {
            for (l, slot) in acc.iter_mut().enumerate() {
                let c = candidate[j + l];
                let d = c - c.max(lower[j + l]).min(upper[j + l]);
                *slot = d.mul_add(d, *slot);
            }
            j += 8;
        }
        total += simd::hsum_lanes(acc);
        if total >= bound {
            return total;
        }
        i += simd::ABANDON_STRIDE;
    }
    // Tail: whole lane blocks, then scalar remainder.
    let lanes = (n - i) / 8 * 8 + i;
    let mut acc = [0.0f32; 8];
    let mut j = i;
    while j < lanes {
        for (l, slot) in acc.iter_mut().enumerate() {
            let c = candidate[j + l];
            let d = c - c.max(lower[j + l]).min(upper[j + l]);
            *slot = d.mul_add(d, *slot);
        }
        j += 8;
    }
    total += simd::hsum_lanes(acc);
    for k in lanes..n {
        let c = candidate[k];
        let d = c - c.max(lower[k]).min(upper[k]);
        total += d * d;
    }
    total
}

/// Squared LB_Keogh with explicit kernel selection: the AVX2+FMA kernel
/// when `kernel` resolves to SIMD, its bit-identical scalar twin
/// otherwise.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn lb_keogh_sq_with(kernel: Kernel, env: &Envelope, candidate: &[f32]) -> f32 {
    assert_eq!(env.upper.len(), candidate.len());
    #[cfg(target_arch = "x86_64")]
    if kernel.uses_simd() {
        // SAFETY: `uses_simd` returned true, so AVX2+FMA are available;
        // lengths were just asserted equal.
        return unsafe { simd::avx::lb_keogh_sq(&env.lower, &env.upper, candidate) };
    }
    let _ = kernel;
    lb_keogh_sq_scalar(env, candidate)
}

/// Early-abandoning squared LB_Keogh with explicit kernel selection. See
/// [`lb_keogh_sq_early_abandon_scalar`] for the return contract.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn lb_keogh_sq_early_abandon_with(
    kernel: Kernel,
    env: &Envelope,
    candidate: &[f32],
    bound: f32,
) -> f32 {
    assert_eq!(env.upper.len(), candidate.len());
    #[cfg(target_arch = "x86_64")]
    if kernel.uses_simd() {
        // SAFETY: `uses_simd` returned true, so AVX2+FMA are available;
        // lengths were just asserted equal.
        return unsafe {
            simd::avx::lb_keogh_sq_early_abandon(&env.lower, &env.upper, candidate, bound)
        };
    }
    let _ = kernel;
    lb_keogh_sq_early_abandon_scalar(env, candidate, bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::dtw::dtw_sq;
    use crate::stats::approx_eq;

    fn series(n: usize, f: f32) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * f).sin() + (i as f32 * 0.01))
            .collect()
    }

    #[test]
    fn envelope_brackets_the_series() {
        let s = series(128, 0.37);
        for w in [0usize, 1, 5, 12, 127] {
            let env = Envelope::new(&s, DtwParams { window: w });
            for (i, &s_i) in s.iter().enumerate() {
                assert!(env.lower[i] <= s_i && s_i <= env.upper[i], "i={i} w={w}");
            }
        }
    }

    #[test]
    fn deque_envelope_matches_naive() {
        for n in [1usize, 2, 5, 64, 129] {
            let s = series(n, 0.53);
            for w in [0usize, 1, 3, n / 2, n] {
                let fast = Envelope::new(&s, DtwParams { window: w });
                let slow = Envelope::new_naive(&s, DtwParams { window: w });
                assert_eq!(fast.upper, slow.upper, "upper n={n} w={w}");
                assert_eq!(fast.lower, slow.lower, "lower n={n} w={w}");
            }
        }
    }

    #[test]
    fn zero_window_envelope_is_the_series() {
        let s = series(50, 0.7);
        let env = Envelope::new(&s, DtwParams { window: 0 });
        assert_eq!(env.upper, s);
        assert_eq!(env.lower, s);
    }

    #[test]
    fn lb_keogh_lower_bounds_dtw() {
        for seed in 0..8u32 {
            let q = series(128, 0.11 + seed as f32 * 0.07);
            let c: Vec<f32> = series(128, 0.41 + seed as f32 * 0.05)
                .iter()
                .map(|v| v * 1.2 - 0.3)
                .collect();
            for w in [1usize, 6, 12] {
                let p = DtwParams { window: w };
                let env = Envelope::new(&q, p);
                let lb = lb_keogh_sq(&env, &c);
                let d = dtw_sq(&q, &c, p);
                assert!(lb <= d + 1e-3, "seed={seed} w={w}: lb={lb} dtw={d}");
            }
        }
    }

    #[test]
    fn lb_keogh_of_series_inside_envelope_is_zero() {
        let q = series(64, 0.4);
        let env = Envelope::new(&q, DtwParams { window: 5 });
        assert_eq!(lb_keogh_sq(&env, &q), 0.0);
    }

    #[test]
    fn early_abandon_contract() {
        let q = series(128, 0.23);
        let c: Vec<f32> = q.iter().map(|v| v + 3.0).collect();
        let env = Envelope::new(&q, DtwParams { window: 12 });
        let exact = lb_keogh_sq(&env, &c);
        assert!(exact > 0.0);
        let d = lb_keogh_sq_early_abandon_with(Kernel::Scalar, &env, &c, exact / 10.0);
        assert!(d >= exact / 10.0);
        let d = lb_keogh_sq_early_abandon_with(Kernel::Scalar, &env, &c, exact * 2.0);
        assert!(approx_eq(d, exact, 1e-4));
    }

    #[test]
    fn scalar_twin_matches_simple_formula() {
        for n in [1usize, 7, 8, 9, 31, 32, 33, 64, 100, 255, 317] {
            let q = series(n, 0.23);
            let c: Vec<f32> = series(n, 0.47).iter().map(|v| v * 1.4 - 0.2).collect();
            let env = Envelope::new(&q, DtwParams { window: n / 8 });
            let simple = lb_keogh_sq(&env, &c);
            assert!(
                approx_eq(lb_keogh_sq_scalar(&env, &c), simple, 1e-4),
                "n={n}"
            );
            assert!(
                approx_eq(
                    lb_keogh_sq_early_abandon_scalar(&env, &c, f32::INFINITY),
                    simple,
                    1e-4
                ),
                "n={n}"
            );
        }
    }

    #[test]
    fn dispatchers_agree_for_all_kernels() {
        let q = series(256, 0.19);
        let c: Vec<f32> = series(256, 0.37).iter().map(|v| v * 1.3 + 0.1).collect();
        let env = Envelope::new(&q, DtwParams { window: 16 });
        let reference = lb_keogh_sq(&env, &c);
        for kernel in [Kernel::Auto, Kernel::Simd, Kernel::Scalar] {
            assert!(approx_eq(
                lb_keogh_sq_with(kernel, &env, &c),
                reference,
                1e-4
            ));
            let ea = lb_keogh_sq_early_abandon_with(kernel, &env, &c, f32::INFINITY);
            assert!(approx_eq(ea, reference, 1e-4));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn scalar_twin_is_bit_identical_to_avx() {
        if !simd::simd_available() {
            return;
        }
        for n in [1usize, 7, 8, 9, 31, 32, 33, 63, 64, 100, 255, 256, 1024] {
            let q = series(n, 0.29);
            let c: Vec<f32> = series(n, 0.53).iter().map(|v| v * 1.6 - 0.4).collect();
            let env = Envelope::new(&q, DtwParams { window: n / 10 });
            // SAFETY: guarded by simd_available().
            let simd_val = unsafe { simd::avx::lb_keogh_sq(&env.lower, &env.upper, &c) };
            assert_eq!(
                lb_keogh_sq_scalar(&env, &c).to_bits(),
                simd_val.to_bits(),
                "lb_keogh_sq n={n}"
            );
            for bound in [f32::INFINITY, 0.5, 10.0] {
                // SAFETY: guarded by simd_available().
                let simd_val = unsafe {
                    simd::avx::lb_keogh_sq_early_abandon(&env.lower, &env.upper, &c, bound)
                };
                assert_eq!(
                    lb_keogh_sq_early_abandon_scalar(&env, &c, bound).to_bits(),
                    simd_val.to_bits(),
                    "early_abandon n={n} bound={bound}"
                );
            }
        }
    }

    #[test]
    fn envelope_len_accessors() {
        let s = series(32, 0.2);
        let env = Envelope::new(&s, DtwParams { window: 3 });
        assert_eq!(env.len(), 32);
        assert!(!env.is_empty());
    }
}
