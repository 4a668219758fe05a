//! Dynamic Time Warping with a Sakoe-Chiba band.
//!
//! The paper's final experiment (Fig. 19) shows MESSI accelerating exact
//! DTW similarity search: the index is searched with LB_Keogh envelope
//! lower bounds, and only unpruned candidates pay the full DTW cost —
//! [`cascade_sq`], shared by the index and the UCR Suite scans. Costs are
//! squared point differences, so with a window of 0 `dtw_sq` is exactly
//! the squared Euclidean distance.
//!
//! One kernel computes every DTW, in O(n·(2w+1)) time:
//!
//! * **Band row.** Column `j` of row `i` sits at slot `j − i + w + 1` of
//!   one `2w + 3`-float row (on the stack up to n = 1 024); +∞ sentinels
//!   at `lo − 1` and `hi + 1` replace range checks. Rows shift one slot
//!   left, so row `i + 1` overwrites row `i − 1` two slots behind the reads.
//! * **Two rows per sweep.** Rows `i` (in registers only) and `i + 1`
//!   advance together: two min-plus chains in flight, not one. The min is
//!   `if x < y`, exact for non-NaN input, so every value has
//!   [`dtw_sq_reference`]'s bits — in either argument order, as
//!   `dtw_sq(b, a)` is the transposed DP: the same costs and mins.
//! * **Abandoning** after a sweep once `row_min + rest` reaches the bound:
//!   `rest` is 0, or, in [`dtw_sq_early_abandon_suffix`], UCR Suite's
//!   cumulative bound (Rakthanmanon et al., KDD 2012) — the LB_Keogh
//!   contributions of the rows to come, which every path pays. In floats,
//!   with `u = f32::EPSILON / 2`, the computed DTW sums ≤ 2n non-negative
//!   terms along one path, so it is `≥ (row_min + S)·(1 − 2n·u)` for `S`
//!   the exact remaining contribution; the computed suffix is
//!   `≤ S·(1 + (n + 1)·u)`; so `row_min + suffix ≤ DTW·(1 + (3n + 3)·u)` to
//!   first order, and the test against `bound·(1 + 4n·f32::EPSILON)`
//!   (`8n·u` of slack) never abandons a DTW below `bound`. Without the
//!   slack, `w = 0` pairs (LB_Keogh = DTW in ℝ) are lost at `next_up(DTW)`.

use super::lb_keogh::{lb_keogh_sq_early_abandon_with, lb_keogh_suffix, Envelope};
use super::Kernel;
use std::cell::Cell;

/// Series up to this long keep their DP row and suffix on the stack.
const STACK_POINTS: usize = 1024;

/// Parameters for banded DTW.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DtwParams {
    /// Sakoe-Chiba band radius in points: cell `(i, j)` is admissible iff
    /// `|i - j| <= window`.
    pub window: usize,
}

impl DtwParams {
    /// The paper's setting: a warping window of 10% of the series length
    /// ("we use a warping window size of 10% of the query series length,
    /// which is commonly used in practice").
    pub fn paper_default(series_len: usize) -> Self {
        Self {
            window: (series_len / 10).max(1),
        }
    }

    /// Clamps the window to the maximal useful value (`n - 1`).
    pub fn clamped(self, series_len: usize) -> Self {
        Self {
            window: self.window.min(series_len.saturating_sub(1)),
        }
    }
}

/// Full banded DTW squared distance between equal-length series.
///
/// # Panics
///
/// Panics if the series lengths differ or are zero.
pub fn dtw_sq(a: &[f32], b: &[f32], params: DtwParams) -> f32 {
    dtw_sq_early_abandon(a, b, params, f32::INFINITY)
}

/// Early-abandoning banded DTW.
///
/// Returns the exact squared DTW distance if it is `< bound`, otherwise
/// some value `>= bound` (computation stops once a DP row's minimum is
/// `>= bound`, since cell values never decrease along a warping path).
///
/// # Panics
///
/// Panics if the series lengths differ or are zero.
pub fn dtw_sq_early_abandon(a: &[f32], b: &[f32], params: DtwParams, bound: f32) -> f32 {
    banded(a, b, params, bound, |_| 0.0)
}

/// [`dtw_sq_early_abandon`] on UCR Suite's cumulative bound: `suffix` is
/// [`lb_keogh_suffix`] of `a` against `b`'s envelope, and the kernel
/// stops once `row_min + suffix[i + 1] >= bound·(1 + 4n·f32::EPSILON)`.
/// Panics as [`dtw_sq`] does, or unless `suffix` holds `n + 1` values.
pub fn dtw_sq_early_abandon_suffix(
    a: &[f32],
    b: &[f32],
    params: DtwParams,
    bound: f32,
    suffix: &[f32],
) -> f32 {
    assert_eq!(suffix.len(), a.len() + 1, "suffix holds n + 1 values");
    let limit = bound * (1.0 + 4.0 * a.len() as f32 * f32::EPSILON);
    banded(a, b, params, limit, |t| suffix[t])
}

/// The raw-series end of the DTW cascade: LB_Keogh of `candidate` against
/// the query's envelope (`None` once it reaches `bound`), then DTW over
/// candidate rows, which the suffix is indexed by, abandoning on it. The
/// value has `dtw_sq(query, candidate)`'s bits, or is `>= bound`.
pub fn cascade_sq(
    kernel: Kernel,
    env: &Envelope,
    params: DtwParams,
    query: &[f32],
    candidate: &[f32],
    bound: f32,
) -> Option<f32> {
    if lb_keogh_sq_early_abandon_with(kernel, env, candidate, bound) >= bound {
        return None;
    }
    let n = candidate.len();
    Some(with_row::<{ STACK_POINTS + 1 }, _>(n + 1, |suffix| {
        lb_keogh_suffix(env, candidate, suffix);
        dtw_sq_early_abandon_suffix(candidate, query, params, bound, suffix)
    }))
}

/// Runs `f` on `len` floats set to +∞: on the stack up to `N`.
#[inline(always)]
fn with_row<const N: usize, R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    if len <= N {
        f(&mut [f32::INFINITY; N][..len])
    } else {
        f(&mut vec![f32::INFINITY; len])
    }
}

/// One `minss`; exact for non-NaN inputs.
#[inline(always)]
fn min(x: f32, y: f32) -> f32 {
    if x < y {
        x
    } else {
        y
    }
}

/// The kernel: the exact DTW, or the first `row_min + rest(next row)`
/// that reaches `limit`.
#[inline(always)]
fn banded(a: &[f32], b: &[f32], params: DtwParams, limit: f32, rest: impl Fn(usize) -> f32) -> f32 {
    assert_eq!(a.len(), b.len(), "DTW requires equal-length series");
    let n = a.len();
    assert!(n > 0, "DTW of empty series is undefined");
    let w = params.clamped(n).window;
    with_row::<{ 2 * STACK_POINTS + 1 }, _>(2 * w + 3, |row| {
        let row = Cell::from_mut(row).as_slice_of_cells();
        // An odd count starts with row 0 alone, a prefix sum; an even one
        // from a virtual row −1 holding only the 0 that (0, 0) adds to.
        let (mut i, mut row_min) = (n % 2, 0.0);
        if i == 1 {
            for (slot, &b_j) in row[w + 1..=2 * w + 1].iter().zip(b) {
                let d = a[0] - b_j;
                row_min += d * d;
                slot.set(row_min);
            }
            row_min = row[w + 1].get();
        } else {
            row[w + 1].set(0.0);
        }
        while i < n {
            let lower = row_min + rest(i);
            if lower >= limit {
                return lower;
            }
            row_min = two_rows(row, a[i], a[i + 1], b, i, w);
            i += 2;
        }
        row[w + 1].get() // (n − 1, n − 1)
    })
}

/// Rows `i` and `i + 1` in one sweep: `row` holds row `i − 1` (column `j`
/// at slot `j + w + 2 − i`) and receives row `i + 1` two slots left of
/// that. Returns row `i + 1`'s minimum.
#[inline(always)]
fn two_rows(row: &[Cell<f32>], a0: f32, a1: f32, b: &[f32], i: usize, w: usize) -> f32 {
    let (lo0, hi0) = (i.saturating_sub(w), (i + w).min(b.len() - 1));
    let (lo1, hi1) = ((i + 1).saturating_sub(w), (i + 1 + w).min(b.len() - 1));
    let slot = |j: usize| j + w + 2 - i;
    row[slot(lo1) - 3].set(f32::INFINITY); // row i + 1's left sentinel
    let (mut left0, mut left1, mut row_min) = (f32::INFINITY, f32::INFINITY, f32::INFINITY);
    if lo0 < lo1 {
        // Column lo0 is row i's alone.
        let d = a0 - b[lo0];
        left0 = min(row[slot(lo0) - 1].get(), row[slot(lo0)].get()) + d * d;
    }
    let mut diag0 = row[slot(lo1) - 1].get();
    let ups = &row[slot(lo1)..=slot(hi0)];
    let outs = &row[slot(lo1) - 2..=slot(hi0) - 2];
    for ((up, out), &b_j) in ups.iter().zip(outs).zip(&b[lo1..=hi0]) {
        let up0 = up.get();
        let (d0, d1) = (a0 - b_j, a1 - b_j);
        let c0 = min(min(diag0, up0), left0) + d0 * d0;
        let c1 = min(min(left0, c0), left1) + d1 * d1;
        out.set(c1);
        row_min = min(row_min, c1);
        (diag0, left0, left1) = (up0, c0, c1);
    }
    if hi0 < hi1 {
        // Column hi1 is row i + 1's alone; above it, row i's sentinel.
        let d = a1 - b[hi1];
        let c1 = min(left0, left1) + d * d;
        row[slot(hi1) - 2].set(c1);
        row_min = min(row_min, c1);
    }
    row[slot(hi1) - 1].set(f32::INFINITY); // row i + 1's right sentinel
    row_min
}

/// Reference O(n²)-space DTW used by the tests to validate the banded
/// kernel. Exposed (documented, but niche) so property tests in other
/// crates can use it too.
pub fn dtw_sq_reference(a: &[f32], b: &[f32], params: DtwParams) -> f32 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    assert!(n > 0);
    let w = params.clamped(n).window;
    let mut dp = vec![vec![f32::INFINITY; n]; n];
    for i in 0..n {
        let lo = i.saturating_sub(w);
        let hi = (i + w).min(n - 1);
        for j in lo..=hi {
            let d = a[i] - b[j];
            let cost = d * d;
            dp[i][j] = if i == 0 && j == 0 {
                cost
            } else {
                let mut best = f32::INFINITY;
                if i > 0 {
                    best = best.min(dp[i - 1][j]);
                    if j > 0 {
                        best = best.min(dp[i - 1][j - 1]);
                    }
                }
                if j > 0 {
                    best = best.min(dp[i][j - 1]);
                }
                best + cost
            };
        }
    }
    dp[n - 1][n - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::euclidean::ed_sq_scalar;
    use crate::stats::approx_eq;

    fn series(n: usize, f: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * f).sin()).collect()
    }

    #[test]
    fn zero_window_equals_euclidean() {
        let a = series(64, 0.3);
        let b = series(64, 0.7);
        let d = dtw_sq(&a, &b, DtwParams { window: 0 });
        assert!(approx_eq(d, ed_sq_scalar(&a, &b), 1e-4));
    }

    #[test]
    fn dtw_is_zero_on_identical_series() {
        let a = series(100, 0.2);
        for w in [0usize, 1, 5, 10, 99] {
            assert_eq!(dtw_sq(&a, &a, DtwParams { window: w }), 0.0);
        }
    }

    #[test]
    fn dtw_never_exceeds_euclidean() {
        // The identity alignment is always admissible, so DTW ≤ ED².
        for seed in 0..5u32 {
            let a = series(128, 0.1 + seed as f32 * 0.13);
            let b = series(128, 0.45 + seed as f32 * 0.07);
            let ed = ed_sq_scalar(&a, &b);
            for w in [1usize, 4, 12] {
                let d = dtw_sq(&a, &b, DtwParams { window: w });
                assert!(d <= ed + 1e-3, "w={w}: dtw={d} ed={ed}");
            }
        }
    }

    #[test]
    fn larger_windows_never_increase_distance() {
        let a = series(96, 0.21);
        let b = series(96, 0.83);
        let mut last = f32::INFINITY;
        for w in [0usize, 1, 2, 4, 8, 16, 32, 95] {
            let d = dtw_sq(&a, &b, DtwParams { window: w });
            assert!(d <= last + 1e-3, "w={w}: {d} > {last}");
            last = d;
        }
    }

    #[test]
    fn banded_matches_reference() {
        for n in [1usize, 2, 7, 33, 64] {
            let a = series(n, 0.37);
            let b: Vec<f32> = series(n, 0.59).iter().map(|v| v + 0.2).collect();
            for w in [0usize, 1, 3, n / 2, n] {
                let fast = dtw_sq(&a, &b, DtwParams { window: w });
                let slow = dtw_sq_reference(&a, &b, DtwParams { window: w });
                assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "n={n} w={w}: fast={fast} slow={slow}"
                );
            }
        }
    }

    /// A random walk from a xorshift stream.
    fn walk(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut x = 0.0f32;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                x += (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                x
            })
            .collect()
    }

    #[test]
    fn kernel_is_bit_identical_to_the_reference_in_both_orders() {
        // Odd and even lengths (row 0 alone or a virtual row −1), windows
        // from none to past the clamp, and n = 1 500 on the heap row.
        for n in [1usize, 2, 3, 7, 8, 9, 33, 255, 256, 257, 1024, 1500] {
            let a = walk(n, n as u64);
            let b = walk(n, n as u64 + 99);
            for w in [0, 1, 3, n / 10, n / 2, n - 1, n, 10 * n] {
                let p = DtwParams { window: w };
                let want = dtw_sq_reference(&a, &b, p).to_bits();
                assert_eq!(dtw_sq(&a, &b, p).to_bits(), want, "n={n} w={w}");
                assert_eq!(dtw_sq(&b, &a, p).to_bits(), want, "n={n} w={w} swapped");
            }
        }
    }

    #[test]
    fn suffix_abandoning_keeps_every_value_below_its_bound() {
        // At bound = next_up(exact) nothing may be abandoned: 2 000 pairs,
        // a third of them near-identical, a quarter at w = 0 where
        // LB_Keogh equals DTW in ℝ and only the slack separates them.
        let mut pairs = 0;
        for seed in 0..100u64 {
            for n in [2usize, 7, 33, 64, 128] {
                let a = walk(n, seed);
                let b: Vec<f32> = if seed % 3 == 0 {
                    a.iter()
                        .enumerate()
                        .map(|(i, v)| v + (i % 3) as f32 * 1e-6)
                        .collect()
                } else {
                    walk(n, seed + 1_000)
                };
                for w in [0, 1, n / 10, n / 2] {
                    let p = DtwParams { window: w };
                    let mut suffix = vec![0.0; n + 1];
                    lb_keogh_suffix(&Envelope::new(&b, p), &a, &mut suffix);
                    let exact = dtw_sq(&a, &b, p);
                    let got = dtw_sq_early_abandon_suffix(&a, &b, p, exact.next_up(), &suffix);
                    assert_eq!(got.to_bits(), exact.to_bits(), "seed={seed} n={n} w={w}");
                    for bound in [exact, exact / 2.0, 0.0] {
                        let d = dtw_sq_early_abandon_suffix(&a, &b, p, bound, &suffix);
                        assert!(d >= bound, "seed={seed} n={n} w={w}: {d} < {bound}");
                        assert!(dtw_sq_early_abandon(&a, &b, p, bound) >= bound);
                    }
                    pairs += 1;
                }
            }
        }
        assert_eq!(pairs, 2_000);
    }

    #[test]
    fn cascade_is_lb_keogh_then_dtw() {
        let q = walk(256, 7);
        let p = DtwParams::paper_default(256);
        let env = Envelope::new(&q, p);
        for seed in 0..20 {
            let c = walk(256, seed);
            let exact = dtw_sq(&q, &c, p);
            let lb = crate::distance::lb_keogh::lb_keogh_sq(&env, &c);
            let got = cascade_sq(Kernel::Auto, &env, p, &q, &c, exact.next_up());
            assert_eq!(got.map(f32::to_bits), Some(exact.to_bits()), "seed={seed}");
            assert_eq!(cascade_sq(Kernel::Scalar, &env, p, &q, &c, lb / 2.0), None);
        }
    }

    #[test]
    fn dtw_aligns_shifted_series() {
        // A sine and the same sine shifted by 3 samples: DTW with a window
        // ≥ 3 should be much smaller than the Euclidean distance.
        let n = 128;
        let a: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.3).sin()).collect();
        let b: Vec<f32> = (0..n).map(|i| ((i as f32 + 3.0) * 0.3).sin()).collect();
        let ed = ed_sq_scalar(&a, &b);
        let d = dtw_sq(&a, &b, DtwParams { window: 6 });
        assert!(d < ed * 0.2, "dtw={d} should be far below ed={ed}");
    }

    #[test]
    fn early_abandon_is_exact_below_bound() {
        let a = series(128, 0.29);
        let b = series(128, 0.61);
        let p = DtwParams::paper_default(128);
        let exact = dtw_sq(&a, &b, p);
        let d = dtw_sq_early_abandon(&a, &b, p, exact * 2.0 + 1.0);
        assert!(approx_eq(d, exact, 1e-4));
    }

    #[test]
    fn early_abandon_crosses_bound() {
        let a = vec![0.0f32; 128];
        let b = vec![2.0f32; 128];
        let p = DtwParams::paper_default(128);
        let d = dtw_sq_early_abandon(&a, &b, p, 1.0);
        assert!(d >= 1.0);
    }

    #[test]
    fn paper_default_window_is_ten_percent() {
        assert_eq!(DtwParams::paper_default(256).window, 25);
        assert_eq!(DtwParams::paper_default(128).window, 12);
        assert_eq!(DtwParams::paper_default(5).window, 1);
    }

    #[test]
    fn single_point_series() {
        let d = dtw_sq(&[3.0], &[5.0], DtwParams { window: 2 });
        assert_eq!(d, 4.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn rejects_unequal_lengths() {
        dtw_sq(&[1.0], &[1.0, 2.0], DtwParams { window: 1 });
    }
}
