//! Dynamic Time Warping with a Sakoe-Chiba band.
//!
//! The paper's final experiment (Fig. 19) shows MESSI accelerating exact
//! DTW similarity search: the index is searched with LB_Keogh envelope
//! lower bounds, and only unpruned candidates pay the full DTW cost —
//! [`cascade_sq`], shared by the index and the UCR Suite scans. Costs are
//! squared point differences, so with a window of 0 `dtw_sq` is exactly
//! the squared Euclidean distance.
//!
//! Two kernels compute every DTW in O(n·(2w+1)) time, rows `i` over `a`,
//! columns `j` over `b`. Below its abandon bound each returns
//! [`dtw_sq_reference`]'s bits in either argument order (`dtw_sq(b, a)` is
//! the transposed DP): a cost is a `sub` and a `mul`, no FMA, and a min is
//! exact for non-NaN input. Above it they may differ; callers discard it.
//!
//! * **Wavefront** (AVX2, n ≤ 1 024, w ≤ 62). Cell `(i, j)` is lane
//!   `p = i − ⌈k/2⌉ ∈ [−P, P]` of anti-diagonal `k = i + j`, `P = ⌊(w+1)/2⌋`.
//!   Its diagonal neighbour is lane `p` of `k − 2`, its up and left ones
//!   lanes `p − 1, p` of `k − 1` for even `k` and `p, p + 1` for odd `k`:
//!   `D_k = min(D_{k−2}, D_{k−1}, shift₁ D_{k−1}) + cost` advances the
//!   whole band, `V = ⌈(2P + 1)/8⌉` `__m256`s in registers (a const
//!   generic; 4 at n = 256, w = 25). `shift₁` is `vperm2f128` + `vpalignr`;
//!   the min is `vpminsd`, as bits order non-negative floats. `a` is read
//!   from a +∞-padded copy and `b` from a −∞-padded reversed one, both
//!   contiguous in `p`, so a cell off the matrix costs +∞, never NaN; lanes
//!   off the band add a 0/+∞ mask. A call writes only the `n + 8V` floats
//!   of each uninitialised stack block that it reads.
//! * **Row kernel**, the scalar twin, for all else (longer series, wider
//!   bands, `Kernel::Scalar`, `MESSI_FORCE_SCALAR=1`, no AVX2+FMA): a
//!   `2w + 3`-float band row with +∞ sentinels, two rows a sweep.
//!
//! **Abandoning.** A kernel adds `rest(i + 1)`, a bound on what a path pays
//! after row `i`, to cells `D(i, j)` every path passes, and stops once the
//! smallest sum reaches the limit: over a row (every path crosses it), or
//! over an odd and the next even diagonal (a step advances `k` by 1 or 2).
//! `rest` is 0, or, in [`dtw_sq_early_abandon_suffix`] and [`cascade_sq`],
//! UCR Suite's cumulative bound (Rakthanmanon et al., KDD 2012): the
//! LB_Keogh contributions of the rows to come. With `u = f32::EPSILON / 2`,
//! the computed DTW is a tested cell's `D` plus ≤ 2n non-negative terms
//! along a path, so `≥ (D + S)·(1 − 2n·u)` for `S` the exact remaining
//! contribution; a computed suffix, ≤ n + 1 non-negative terms in any
//! order, is `≤ S·(1 + (n + 1)·u)`. So `D + suffix ≤ DTW·(1 + (3n + 3)·u)`
//! to first order, and a test against `bound·(1 + 4n·f32::EPSILON)` never
//! abandons a DTW below `bound`; without the slack, `w = 0` pairs
//! (LB_Keogh = DTW in ℝ) are lost at `next_up(DTW)`. With `rest` = 0 no
//! slack is needed: adding a non-negative float never lowers a sum.

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

/// Early-abandoning banded DTW, on the kernel `Kernel::Auto` resolves to.
///
/// Returns the exact squared DTW distance if it is `< bound`, otherwise
/// some value `>= bound` (computation stops once the cells every path
/// passes are `>= bound`: cell values never decrease along a path).
///
/// # Panics
///
/// Panics if the series lengths differ or are zero.
pub fn dtw_sq_early_abandon(a: &[f32], b: &[f32], params: DtwParams, bound: f32) -> f32 {
    dtw(Kernel::Auto, a, b, params, bound, Rest::Zero)
}

/// [`dtw_sq_early_abandon`] on UCR Suite's cumulative bound: `suffix` is
/// [`lb_keogh_suffix`] of `a` against `b`'s envelope, and the kernel
/// stops once `D(i, j) + suffix[i + 1] >= bound·(1 + 4n·f32::EPSILON)`.
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
    dtw(Kernel::Auto, a, b, params, limit, Rest::Suffix(suffix))
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
    let limit = bound * (1.0 + 4.0 * candidate.len() as f32 * f32::EPSILON);
    let rest = Rest::Envelope(env);
    Some(dtw(kernel, candidate, query, params, limit, rest))
}

/// A kernel's `rest`: 0, a given [`lb_keogh_suffix`], or one it builds.
#[derive(Clone, Copy)]
enum Rest<'a> {
    Zero,
    Suffix(&'a [f32]),
    Envelope(&'a Envelope),
}

/// The DTW to `limit` on the wavefront if `kernel` is SIMD and it fits.
fn dtw(kernel: Kernel, a: &[f32], b: &[f32], params: DtwParams, limit: f32, rest: Rest) -> f32 {
    assert_eq!(a.len(), b.len(), "DTW requires equal-length series");
    let n = a.len();
    assert!(n > 0, "DTW of empty series is undefined");
    #[cfg(target_arch = "x86_64")]
    if kernel.uses_simd() {
        // SAFETY: `uses_simd` returned true, so AVX2+FMA are available.
        if let Some(d) = unsafe { wave::dtw(a, b, params.clamped(n).window, limit, rest) } {
            return d;
        }
    }
    let _ = kernel;
    match rest {
        Rest::Zero => banded(a, b, params, limit, |_| 0.0),
        Rest::Suffix(suffix) => banded(a, b, params, limit, |t| suffix[t]),
        Rest::Envelope(env) => with_row::<{ STACK_POINTS + 1 }, _>(n + 1, |suffix| {
            lb_keogh_suffix(env, a, suffix);
            banded(a, b, params, limit, |t| suffix[t])
        }),
    }
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
    let n = a.len();
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

/// The wavefront kernel and its suffix scan (module doc).
#[cfg(target_arch = "x86_64")]
mod wave {
    use super::{Envelope, Rest, STACK_POINTS};
    #[allow(clippy::wildcard_imports)]
    use core::arch::x86_64::*;
    use std::mem::MaybeUninit;

    /// The widest band in registers, 64 lanes, and a padded block's slots.
    const MAX_VECTORS: usize = 8;
    const BLOCK: usize = STACK_POINTS + 8 * MAX_VECTORS + 1;

    /// The DTW to `limit`, or `None` when the series or band is too wide.
    /// Lane `t` of diagonal pair `m` reads `a` at `m + t` (`m + 1 + t` when
    /// odd), reversed `b` at `n − 1 − m + t`, `suffix[t + 1 − P]` at `m + t`.
    #[target_feature(enable = "avx2")]
    pub(super) fn dtw(a: &[f32], b: &[f32], w: usize, limit: f32, rest: Rest) -> Option<f32> {
        let (n, p) = (a.len(), w.div_ceil(2));
        let vectors = (2 * p + 1).div_ceil(8);
        if n > STACK_POINTS || vectors > MAX_VECTORS {
            return None;
        }
        let len = n + 8 * vectors;
        let [ab, bb, sb] = &mut [[MaybeUninit::uninit(); BLOCK]; 3];
        let ap = padded(&mut ab[..len], p, a.iter().copied(), f32::INFINITY);
        let reversed = b.iter().rev().copied();
        let bp = padded(&mut bb[..len], p, reversed, f32::NEG_INFINITY);
        let sb = &mut sb[..len + 1];
        let sp = match rest {
            Rest::Suffix(suffix) => padded(sb, p, suffix.iter().copied(), 0.0),
            Rest::Zero | Rest::Envelope(_) => padded(sb, 0, std::iter::empty(), 0.0),
        };
        if let Rest::Envelope(env) = rest {
            lb_keogh_suffix(env, a, &mut sp[p..=p + n]);
        }
        let sp = &sp[1..];
        Some(match vectors {
            1 => sweep::<1>(ap, bp, sp, w, limit),
            2 => sweep::<2>(ap, bp, sp, w, limit),
            3 => sweep::<3>(ap, bp, sp, w, limit),
            4 => sweep::<4>(ap, bp, sp, w, limit),
            5 => sweep::<5>(ap, bp, sp, w, limit),
            6 => sweep::<6>(ap, bp, sp, w, limit),
            7 => sweep::<7>(ap, bp, sp, w, limit),
            _ => sweep::<8>(ap, bp, sp, w, limit),
        })
    }

    /// `block` with `body` from slot `front` on, `fill` elsewhere.
    fn padded(
        block: &mut [MaybeUninit<f32>],
        front: usize,
        body: impl Iterator<Item = f32>,
        fill: f32,
    ) -> &mut [f32] {
        let (head, tail) = block.split_at_mut(front);
        head.fill(MaybeUninit::new(fill));
        let mut written = 0;
        for (slot, value) in tail.iter_mut().zip(body) {
            slot.write(value);
            written += 1;
        }
        tail[written..].fill(MaybeUninit::new(fill));
        // SAFETY: every slot was written: `head` and `tail[written..]`
        // with `fill`, `tail[..written]` from `body`; `MaybeUninit<f32>`
        // has `f32`'s layout.
        unsafe { &mut *(block as *mut [MaybeUninit<f32>] as *mut [f32]) }
    }

    /// [`super::lb_keogh_suffix`], 8 points a step from the back: in-register
    /// sums plus a carry that grows by each block's total (one serial add).
    #[target_feature(enable = "avx2")]
    pub(super) fn lb_keogh_suffix(env: &Envelope, candidate: &[f32], suffix: &mut [f32]) {
        let n = candidate.len();
        let (lower, upper, suffix) = (&env.lower[..n], &env.upper[..n], &mut suffix[..=n]);
        suffix[n] = 0.0;
        let (mut carry, mut s) = (_mm256_setzero_ps(), n);
        while s >= 8 {
            s -= 8;
            // SAFETY: `s + 8 <= n`: every access is inside the four slices.
            unsafe {
                let c = _mm256_loadu_ps(candidate.as_ptr().add(s));
                let l = _mm256_max_ps(c, _mm256_loadu_ps(lower.as_ptr().add(s)));
                let d = _mm256_sub_ps(c, _mm256_min_ps(l, _mm256_loadu_ps(upper.as_ptr().add(s))));
                let x = _mm256_mul_ps(d, d);
                let x = _mm256_add_ps(x, _mm256_castsi256_ps(_mm256_bsrli_epi128(as_bits(x), 4)));
                let x = _mm256_add_ps(x, _mm256_castsi256_ps(_mm256_bsrli_epi128(as_bits(x), 8)));
                let upper = _mm256_permute2f128_ps(x, x, 0x81); // [x.hi, 0]
                let x = _mm256_add_ps(x, _mm256_shuffle_ps(upper, upper, 0));
                _mm256_storeu_ps(suffix.as_mut_ptr().add(s), _mm256_add_ps(x, carry));
                carry = _mm256_add_ps(carry, _mm256_broadcastss_ps(_mm256_castps256_ps128(x)));
            }
        }
        let mut sum = _mm256_cvtss_f32(carry);
        for t in (0..s).rev() {
            let c = candidate[t];
            let d = c - c.max(lower[t]).min(upper[t]);
            sum += d * d;
            suffix[t] = sum;
        }
    }

    /// The band's DP, a diagonal pair a step, on blocks [`dtw`] padded.
    #[target_feature(enable = "avx2")]
    fn sweep<const V: usize>(ap: &[f32], bp: &[f32], sp: &[f32], w: usize, limit: f32) -> f32 {
        let (n, p) = (ap.len().saturating_sub(8 * V), w.div_ceil(2));
        assert_eq!((bp.len(), sp.len()), (ap.len(), ap.len()), "padded blocks");
        let (inf, limit) = (_mm256_set1_ps(f32::INFINITY), _mm256_set1_ps(limit));
        // Band lanes p ∓ ⌊w/2⌋ (even k), 0 .. 2p (odd): 2p ≥ 8(V − 1), so
        // only the first and last vectors leave it.
        let even = lane_mask::<V>(p - w / 2..p + w / 2 + 1);
        let odd = lane_mask::<V>(0..2 * p);
        // x: D_{k−2} → D_k, from D_{−2} (0 in lane p); y: D_{k−1} → D_{k+1}.
        let (mut x, mut y) = (lane_mask::<V>(p..p + 1), [inf; V]);
        // SAFETY: for m < n and v < V the loads read 8 floats from offset
        // at most `n + 8V − 8` of blocks `n + 8V` long (asserted above);
        // `__m256` and `[f32; 8]` are the same 32 bytes.
        unsafe {
            let (pa, pb, ps) = (ap.as_ptr(), bp.as_ptr(), sp.as_ptr());
            for m in 0..n {
                let (pa, pb, ps) = (pa.add(m), pb.add(n - 1 - m), ps.add(m));
                for v in 0..V {
                    // k = 2m: up is lane p − 1 of D_{k−1}, left is lane p.
                    let (a, b) = (pa.add(8 * v), pb.add(8 * v));
                    let d = _mm256_sub_ps(_mm256_loadu_ps(a), _mm256_loadu_ps(b));
                    let mut cost = _mm256_mul_ps(d, d);
                    if v == 0 || v + 1 == V {
                        cost = _mm256_add_ps(cost, even[v]);
                    }
                    let up = shift_up(if v == 0 { inf } else { y[v - 1] }, y[v]);
                    x[v] = _mm256_add_ps(min(min(x[v], y[v]), up), cost);
                }
                let mut lower = inf;
                for v in 0..V {
                    // k = 2m + 1: up is lane p of D_{k−1}, left is lane p + 1.
                    let (a, b) = (pa.add(8 * v + 1), pb.add(8 * v));
                    let d = _mm256_sub_ps(_mm256_loadu_ps(a), _mm256_loadu_ps(b));
                    let mut cost = _mm256_mul_ps(d, d);
                    if v + 1 == V {
                        cost = _mm256_add_ps(cost, odd[v]);
                    }
                    let left = shift_down(x[v], if v + 1 == V { inf } else { x[v + 1] });
                    // Lane t of D_{k−2} and D_{k−1} is one row: one min.
                    let pair = min(y[v], x[v]);
                    y[v] = _mm256_add_ps(min(pair, left), cost);
                    lower = min(lower, _mm256_add_ps(pair, _mm256_loadu_ps(ps.add(8 * v))));
                }
                if _mm256_movemask_ps(_mm256_cmp_ps(lower, limit, _CMP_LT_OQ)) == 0 {
                    let lanes: [f32; 8] = std::mem::transmute(lower);
                    return lanes.into_iter().fold(f32::INFINITY, f32::min);
                }
            }
            std::mem::transmute::<__m256, [f32; 8]>(x[p / 8])[p % 8] // (n − 1, n − 1)
        }
    }

    /// 0 on lanes `on` of `V` vectors, +∞ on the rest.
    #[target_feature(enable = "avx2")]
    fn lane_mask<const V: usize>(on: std::ops::Range<usize>) -> [__m256; V] {
        let start = _mm256_set1_epi32(on.start as i32);
        let end = _mm256_set1_epi32(on.end as i32);
        let mut lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut out = [_mm256_setzero_ps(); V];
        for vector in &mut out {
            let before = _mm256_cmpgt_epi32(start, lane);
            let inside = _mm256_andnot_si256(before, _mm256_cmpgt_epi32(end, lane));
            *vector = _mm256_andnot_ps(_mm256_castsi256_ps(inside), _mm256_set1_ps(f32::INFINITY));
            lane = _mm256_add_epi32(lane, _mm256_set1_epi32(8));
        }
        out
    }

    /// Lane `l` of the result is lane `l − 1` of `cur`, lane 0 lane 7 of `prev`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn shift_up(prev: __m256, cur: __m256) -> __m256 {
        let seam = _mm256_permute2f128_ps(prev, cur, 0x21); // [prev.hi, cur.lo]
        _mm256_castsi256_ps(_mm256_alignr_epi8(as_bits(cur), as_bits(seam), 12))
    }

    /// Lane `l` of the result is lane `l + 1` of `cur`, lane 7 lane 0 of `next`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn shift_down(cur: __m256, next: __m256) -> __m256 {
        let seam = _mm256_permute2f128_ps(cur, next, 0x21); // [cur.hi, next.lo]
        _mm256_castsi256_ps(_mm256_alignr_epi8(as_bits(seam), as_bits(cur), 4))
    }

    /// `vpminsd` on the bits, which order non-negative floats: 1 cycle, not 4.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn min(a: __m256, b: __m256) -> __m256 {
        _mm256_castsi256_ps(_mm256_min_epi32(as_bits(a), as_bits(b)))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn as_bits(v: __m256) -> __m256i {
        _mm256_castps_si256(v)
    }
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
        // from none to past the clamp, and n = 1 500 on the heap row. The
        // block-edge windows put the wavefront's 2P + 1 lanes on both
        // sides of each 8V, and past V = 8 onto the row kernel.
        let edges = (1..=8).flat_map(|v| [8 * v - 3, 8 * v - 2, 8 * v - 1, 8 * v, 8 * v + 1]);
        for n in [1usize, 2, 3, 7, 8, 9, 33, 255, 256, 257, 1024, 1500] {
            let a = walk(n, n as u64);
            let b = walk(n, n as u64 + 99);
            for w in [0, 1, 3, n / 10, n / 2, n - 1, n, 10 * n]
                .into_iter()
                .chain(edges.clone())
            {
                let p = DtwParams { window: w };
                let want = dtw_sq_reference(&a, &b, p).to_bits();
                assert_eq!(dtw_sq(&a, &b, p).to_bits(), want, "n={n} w={w}");
                assert_eq!(dtw_sq(&b, &a, p).to_bits(), want, "n={n} w={w} swapped");
                let scalar = dtw(Kernel::Scalar, &a, &b, p, f32::INFINITY, Rest::Zero);
                assert_eq!(scalar.to_bits(), want, "n={n} w={w} row kernel");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_wavefront_takes_every_band_its_registers_hold() {
        if !Kernel::Simd.uses_simd() {
            return;
        }
        let a = walk(256, 1);
        let b = walk(256, 2);
        for w in [0, 1, 25, 62, 63, 255] {
            // SAFETY: `uses_simd` confirmed AVX2+FMA.
            let got = unsafe { wave::dtw(&a, &b, w, f32::INFINITY, Rest::Zero) };
            assert_eq!(got.is_some(), w <= 62, "w={w}");
        }
        let long = walk(STACK_POINTS + 1, 3);
        // SAFETY: as above.
        assert!(unsafe { wave::dtw(&long, &long, 25, f32::INFINITY, Rest::Zero) }.is_none());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vectorised_suffix_is_the_serial_sum_to_rounding() {
        if !Kernel::Simd.uses_simd() {
            return;
        }
        for n in (1..=17).chain([255, 256, 1024]) {
            let q = walk(n, n as u64);
            let c: Vec<f32> = walk(n, n as u64 + 5).iter().map(|v| v * 1.5).collect();
            let env = Envelope::new(&q, DtwParams { window: n / 10 });
            let mut suffix = vec![f32::NAN; n + 1];
            // SAFETY: `uses_simd` confirmed AVX2+FMA.
            unsafe { wave::lb_keogh_suffix(&env, &c, &mut suffix) };
            assert_eq!(suffix[n].to_bits(), 0.0f32.to_bits(), "n={n}");
            let mut exact = 0.0f64;
            for t in (0..n).rev() {
                let d = c[t] - c[t].max(env.lower[t]).min(env.upper[t]);
                exact += f64::from(d * d);
                let tolerance = (n + 1) as f64 * f64::from(f32::EPSILON) * exact;
                let got = f64::from(suffix[t]);
                assert!((got - exact).abs() <= tolerance, "n={n} t={t}: {got}");
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
