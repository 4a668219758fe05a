//! Lower-bound (mindist) distance kernels.
//!
//! The mindist between a query and an iSAX summary lower-bounds the true
//! Euclidean distance between the query and *every* series whose summary
//! it is (Shieh & Keogh 2008): per segment, the distance from the query's
//! PAA value to the summary's breakpoint region, scaled by the segment
//! length:
//!
//! ```text
//! mindist²(q, S) = Σᵢ lenᵢ · gapᵢ²,
//! gapᵢ = bl − q   if q < bl      (bl/bu = region bounds of segment i)
//!        q − bu   if q > bu
//!        0        otherwise
//! ```
//!
//! MESSI computes mindists in two places with very different volume:
//!
//! * **Node mindist** during tree traversal (Alg. 7 line 1) — one per
//!   node met, variable cardinality.
//! * **Leaf-entry mindist** when draining priority queues (Alg. 9
//!   line 2) — one per candidate series, full cardinality, the hot loop.
//!
//! Both are lookups in one per-query [`MindistTable`] holding the
//! contribution of every region of every cardinality, so a bound is
//! `segments` loads and adds; the SIMD leaf kernels perform the loads
//! with AVX2 gathers and the root sweep bounds 8 arena roots per call.
//! In front of the leaf gathers, a [`FastScanLut`] quantises the
//! table's 16-region level to u8 and prunes 32 entries per `vpshufb`
//! sweep over the same symbol columns, never dropping an entry whose
//! f32 bound is below the live bound.
//! This is the "SIMD ... for the computation of the lower bound
//! distances" of §II-A (the branches are resolved at table-build time,
//! once per query, instead of once per candidate). The branchy
//! [`mindist_sq_node`] / [`mindist_sq_node_env`] remain as the test
//! oracle and for callers outside the query path.
//!
//! The `*_env` variants take a LB_Keogh envelope instead of a single PAA
//! vector and lower-bound the *DTW* distance (Fig. 19's MESSI-DTW).

use crate::breakpoints::{self, region_lower, region_upper};
use crate::convert::SaxConfig;
use crate::word::{NodeWord, RootWord, SaxWord, CARD_BITS, MAX_CARDINALITY, MAX_SEGMENTS};

/// Per-segment gap between a query PAA value and a breakpoint region.
#[inline]
fn gap(q: f32, bl: f32, bu: f32) -> f32 {
    // At most one of the two terms is positive; ±inf bounds collapse to 0
    // through the max.
    (bl - q).max(0.0) + (q - bu).max(0.0)
}

/// Per-segment gap between an envelope `[lo, hi]` and a region `[bl, bu]`:
/// zero when they overlap, otherwise the separation.
#[inline]
fn gap_env(lo: f32, hi: f32, bl: f32, bu: f32) -> f32 {
    (bl - hi).max(0.0) + (lo - bu).max(0.0)
}

/// Segment lengths as `f32` scale factors for mindist computations.
pub fn segment_scales(config: SaxConfig) -> Vec<f32> {
    config
        .segment_lengths()
        .into_iter()
        .map(|l| l as f32)
        .collect()
}

/// Squared mindist between a query PAA and a variable-cardinality node
/// word. Segments with zero bits contribute nothing (their region is the
/// whole axis).
///
/// # Panics
///
/// Debug-panics if `query_paa` and `scales` are shorter than the config's
/// segment count implied by use.
#[inline]
pub fn mindist_sq_node(query_paa: &[f32], scales: &[f32], node: &NodeWord) -> f32 {
    debug_assert_eq!(query_paa.len(), scales.len());
    let mut sum = 0.0f32;
    for i in 0..query_paa.len() {
        let bits = node.bits(i);
        if bits == 0 {
            continue;
        }
        let s = node.symbol(i);
        let g = gap(query_paa[i], region_lower(s, bits), region_upper(s, bits));
        sum += scales[i] * g * g;
    }
    sum
}

/// Squared mindist between a LB_Keogh envelope (given as the PAAs of its
/// lower and upper series) and a node word — the DTW-search analogue of
/// [`mindist_sq_node`].
#[inline]
pub fn mindist_sq_node_env(
    paa_lower: &[f32],
    paa_upper: &[f32],
    scales: &[f32],
    node: &NodeWord,
) -> f32 {
    debug_assert_eq!(paa_lower.len(), scales.len());
    debug_assert_eq!(paa_upper.len(), scales.len());
    let mut sum = 0.0f32;
    for i in 0..paa_lower.len() {
        let bits = node.bits(i);
        if bits == 0 {
            continue;
        }
        let s = node.symbol(i);
        let g = gap_env(
            paa_lower[i],
            paa_upper[i],
            region_lower(s, bits),
            region_upper(s, bits),
        );
        sum += scales[i] * g * g;
    }
    sum
}

/// Branchy scalar mindist between a query PAA and a full-cardinality leaf
/// word — the SISD code path (each segment performs the breakpoint
/// comparison with data-dependent branches, like the paper's non-SIMD
/// baseline).
#[inline]
pub fn mindist_sq_leaf_scalar(query_paa: &[f32], scales: &[f32], word: &SaxWord) -> f32 {
    debug_assert_eq!(query_paa.len(), scales.len());
    let bits = CARD_BITS as u8;
    let mut sum = 0.0f32;
    for i in 0..query_paa.len() {
        let s = word.symbol(i) as u16;
        let q = query_paa[i];
        let bl = region_lower(s, bits);
        let bu = region_upper(s, bits);
        // Deliberate branches: this is the SISD variant.
        if q < bl {
            let g = bl - q;
            sum += scales[i] * g * g;
        } else if q > bu {
            let g = q - bu;
            sum += scales[i] * g * g;
        }
    }
    sum
}

// # Design: node bounds by lookup
//
// **Context.** MESSI bounds every node its traversal meets and prunes
// before touching entries (Alg. 7 line 1). The leaf level was a table
// lookup from the start; the node level was `mindist_sq_node` — per
// segment a `bits == 0` branch, two `OnceLock` loads and two edge-symbol
// branches, 60–85 ns a node, behind a pointer hop into each arena.
//
// **Goals.** One table bounds every node of either metric branch-free
// with the same float the branchy functions return; arena roots are
// bounded from a packed block before any arena is dereferenced; the
// home-leaf seed fetches a series only when its bound is below the best.
//
// **Non-goals.** An iterative `subtree_end` walk or an SoA block for
// inner nodes; seeding later shards against the cross-shard bound; any
// option — the 16 × 256 table is replaced, not kept beside this one.
//
// **Decisions** (`serve-exact`: 100 k series, 2 shards, noisy members;
// traced per query, before → after; CHANGES.md lists every run).
// * *One `segments × 512` table.* Region `(bits, prefix)` sits at slot
//   `(1 << bits) - 1 + prefix`: slot 0 the unrefined segment (0.0), 1–2
//   the level every arena root uses, 255.. the leaf kernels' row. A node
//   bound is `segments` loads summed in segment order, `to_bits()`-equal
//   to `mindist_sq_node[_env]` (13 ns against 64–68), so no pruning
//   decision moves. With the root block — 1 157 roots a query, 1 066
//   pruned there, 2.6 ns each — `engine.tree_pass_us` 169 → 45.
// * *The fill got cheaper with twice the slots.* Per segment the
//   distances to the 255 breakpoints are taken once and every slot is
//   `scale · (below + above)²`, the `gap` expression bit for bit:
//   `sax.table_fill_ns` 5 400 → 2 300 (a per-slot `region_lower/upper`
//   fill measured 25 000).
// * *The filtered seed removes the slow mode of `init`.* A random-walk
//   home leaf holds up to 2 000 entries of 1 KB each; skipping those
//   whose bound has reached the best so far cannot change the seed (the
//   update test is strict): `engine.init_us` 136 → 73.

/// Slots per segment row: every region of every cardinality (2⁹ − 1),
/// padded to a power of two.
const ROW: usize = 2 * MAX_CARDINALITY;

/// Offset of the full-cardinality regions — what leaf entries store —
/// within a row.
const LEAF: usize = MAX_CARDINALITY - 1;

/// Per-query lookup table of mindist contributions, for every region of
/// every cardinality.
///
/// `table[i * 512 + (1 << bits) - 1 + prefix]` holds
/// `lenᵢ · gap(qᵢ, region(prefix, bits))²` — the exact contribution of
/// segment `i` carrying the `bits`-bit symbol `prefix` (slot 0, the
/// unrefined segment, holds 0). A node bound
/// ([`MindistTable::node_lower_bound`]) and a leaf-entry mindist are then
/// `segments` dependent-free lookups; the AVX2 kernels gather 8 entries'
/// lookups per segment, or bound 8 arena roots from the one-bit slots
/// ([`MindistTable::root_bounds`]).
///
/// ```
/// use messi_sax::convert::{sax_word, SaxConfig};
/// use messi_sax::mindist::MindistTable;
/// use messi_series::paa::paa;
/// use messi_series::distance::euclidean::ed_sq_scalar;
/// use messi_series::znorm::znormalized;
///
/// let config = SaxConfig::new(16, 256);
/// let query = znormalized(&(0..256).map(|i| (i as f32 * 0.1).sin()).collect::<Vec<_>>());
/// let candidate = znormalized(&(0..256).map(|i| (i as f32 * 0.2).cos()).collect::<Vec<_>>());
///
/// let table = MindistTable::new(&paa(&query, 16), config);
/// let lower_bound = table.mindist_sq(&sax_word(&candidate, config));
/// assert!(lower_bound <= ed_sq_scalar(&query, &candidate));
/// ```
#[derive(Debug, Clone)]
pub struct MindistTable {
    segments: usize,
    table: Vec<f32>,
}

impl MindistTable {
    /// Builds the table for a query PAA.
    ///
    /// # Panics
    ///
    /// Panics if `query_paa.len() != config.segments`.
    pub fn new(query_paa: &[f32], config: SaxConfig) -> Self {
        Self::from_envelope(query_paa, query_paa, config)
    }

    /// Builds the table for a LB_Keogh envelope (PAA of lower/upper
    /// envelope series) — lower-bounds DTW instead of ED.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn from_envelope(paa_lower: &[f32], paa_upper: &[f32], config: SaxConfig) -> Self {
        let mut this = Self {
            segments: config.segments,
            table: vec![0.0f32; config.segments * ROW],
        };
        this.refill_from_envelope(paa_lower, paa_upper, config);
        this
    }

    /// In-place variant of [`MindistTable::new`]: recomputes the table for
    /// a new query PAA without reallocating — a point is the envelope
    /// whose two ends coincide.
    ///
    /// # Panics
    ///
    /// Panics if `query_paa.len() != config.segments` or the segment count
    /// differs from the one this table was built with.
    pub fn refill(&mut self, query_paa: &[f32], config: SaxConfig) {
        self.refill_from_envelope(query_paa, query_paa, config);
    }

    /// In-place variant of [`MindistTable::from_envelope`]: recomputes
    /// every slot. Allocation-free — the reusable query context calls
    /// this between queries, so the table is paid for once per context.
    ///
    /// A region `[bl, bu]` of segment `i` contributes `scale · g²` with
    /// `g = (bl − upperᵢ).max(0) + (lowerᵢ − bu).max(0)`, the `gap` /
    /// `gap_env` expression: at most one term is positive, and the ±∞
    /// ends of the axis contribute 0 as they do through the `max` there.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or a differing segment count.
    pub fn refill_from_envelope(
        &mut self,
        paa_lower: &[f32],
        paa_upper: &[f32],
        config: SaxConfig,
    ) {
        assert_eq!(paa_lower.len(), config.segments, "PAA length mismatch");
        assert_eq!(paa_upper.len(), config.segments, "PAA length mismatch");
        assert_eq!(
            config.segments, self.segments,
            "refill requires a matching segment count"
        );
        let breakpoints = breakpoints::table();
        // Distance to each full-cardinality region boundary, seen as a
        // region's lower end (`below`) or upper end (`above`). Boundary
        // `b` is breakpoint `b - 1`; 0 and 256 are −∞ and +∞.
        let mut below = [0.0f32; MAX_CARDINALITY + 1];
        let mut above = [0.0f32; MAX_CARDINALITY + 1];
        for (i, row) in self.table.chunks_exact_mut(ROW).enumerate() {
            // Segment length, computed without materializing the bounds
            // vector (`segment_scales` allocates; this path must not).
            let (start, end) =
                messi_series::paa::segment_range(config.series_len, config.segments, i);
            let scale = (end - start) as f32;
            for (j, &b) in breakpoints.iter().enumerate() {
                below[j + 1] = (b - paa_upper[i]).max(0.0);
                above[j + 1] = (paa_lower[i] - b).max(0.0);
            }
            // Level `bits` holds 2^bits regions, each `width` boundaries
            // wide: region `p` spans boundaries `p·width ..= (p+1)·width`.
            // The leaf level (width 1, half of all slots) is contiguous
            // and vectorizes; the coarser ones stride.
            let (coarse, leaf) = row[..LEAF + MAX_CARDINALITY].split_at_mut(LEAF);
            for bits in 0..CARD_BITS {
                let width = MAX_CARDINALITY >> bits;
                let level = &mut coarse[(1 << bits) - 1..(2 << bits) - 1];
                for (p, slot) in level.iter_mut().enumerate() {
                    let g = below[p * width] + above[(p + 1) * width];
                    *slot = scale * g * g;
                }
            }
            for ((slot, lo), hi) in leaf.iter_mut().zip(&below).zip(&above[1..]) {
                let g = lo + hi;
                *slot = scale * g * g;
            }
        }
    }

    /// Number of segments the table covers.
    #[inline]
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Lower bound for a tree node of any cardinality mix (Alg. 7
    /// line 1): one lookup per segment, summed in ascending segment
    /// order — bit for bit what [`mindist_sq_node`] (point table) or
    /// [`mindist_sq_node_env`] (envelope table) computes with branches.
    #[inline]
    pub fn node_lower_bound(&self, node: &NodeWord) -> f32 {
        let mut sum = 0.0f32;
        for (i, row) in self.table.chunks_exact(ROW).enumerate() {
            sum += row[(1usize << node.bits(i)) - 1 + node.symbol(i) as usize];
        }
        sum
    }

    /// [`MindistTable::node_lower_bound`] for up to 8 packed arena roots
    /// at once, written into `out[..roots.len()]`. Roots map to vector
    /// lanes and the segments are walked in order, so every lane sums
    /// exactly as the scalar twin does; a full chunk of 8 takes the AVX2
    /// kernel when `use_simd` is set.
    ///
    /// # Panics
    ///
    /// Panics if `roots.len() > 8`.
    #[inline]
    pub fn root_bounds(&self, roots: &[RootWord], use_simd: bool, out: &mut [f32; 8]) {
        assert!(roots.len() <= 8, "root chunk out of bounds");
        #[cfg(target_arch = "x86_64")]
        if use_simd && roots.len() == 8 {
            // SAFETY: exactly 8 roots, asserted above; `use_simd` is only
            // true after `simd_available()` confirmed AVX2.
            unsafe { self.root_bounds_avx2(roots, out) };
            return;
        }
        let _ = use_simd;
        self.root_bounds_scalar(roots, out);
    }

    /// Scalar twin of the root sweep: per root, the one-bit slots summed
    /// in ascending segment order.
    pub fn root_bounds_scalar(&self, roots: &[RootWord], out: &mut [f32; 8]) {
        for (root, slot) in roots.iter().zip(out.iter_mut()) {
            let mut sum = 0.0f32;
            for (i, row) in self.table.chunks_exact(ROW).enumerate() {
                sum += row[root.slot(i)];
            }
            *slot = sum;
        }
    }

    /// AVX2 root sweep: per segment, each lane selects slot 1 or 2 by its
    /// root's first bit and keeps it only where the segment is refined
    /// (else +0.0, which is what slot 0 holds); plain per-lane adds.
    ///
    /// # Safety
    ///
    /// Requires AVX2 on the executing CPU and `roots.len() == 8`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn root_bounds_avx2(&self, roots: &[RootWord], out: &mut [f32; 8]) {
        #[allow(clippy::wildcard_imports)]
        use core::arch::x86_64::*;
        debug_assert_eq!(roots.len(), 8);
        // SAFETY (whole block): `RootWord` is a transparent `u32`, so 8
        // roots are the 32 bytes of the unaligned load; `out` has exactly
        // 8 lanes for the store; rows are indexed with bounds checks.
        unsafe {
            let words = _mm256_loadu_si256(roots.as_ptr() as *const __m256i);
            let one = _mm256_set1_epi32(1);
            let mut acc = _mm256_setzero_ps();
            for (i, row) in self.table.chunks_exact(ROW).enumerate() {
                let w = _mm256_srl_epi32(words, _mm_cvtsi32_si128(i as i32));
                let refined = _mm256_cmpeq_epi32(_mm256_and_si256(w, one), one);
                let high = _mm256_slli_epi32(w, 15); // first bit → sign bit
                let value = _mm256_blendv_ps(
                    _mm256_set1_ps(row[1]),
                    _mm256_set1_ps(row[2]),
                    _mm256_castsi256_ps(high),
                );
                acc = _mm256_add_ps(acc, _mm256_and_ps(value, _mm256_castsi256_ps(refined)));
            }
            _mm256_storeu_ps(out.as_mut_ptr(), acc);
        }
    }

    /// Scalar table-lookup mindist (used when AVX2 is unavailable or the
    /// segment count is not 16).
    #[inline]
    pub fn mindist_sq_scalar(&self, word: &SaxWord) -> f32 {
        let mut sum = 0.0f32;
        for i in 0..self.segments {
            sum += self.table[i * ROW + LEAF + word.symbol(i) as usize];
        }
        sum
    }

    /// Table-lookup mindist, dispatched to AVX2 gathers when possible.
    #[inline]
    pub fn mindist_sq(&self, word: &SaxWord) -> f32 {
        #[cfg(target_arch = "x86_64")]
        if self.segments == 16 && messi_series::distance::simd::simd_available() {
            // SAFETY: AVX2 availability checked; table has 16 rows.
            return unsafe { self.mindist_sq_avx2(word) };
        }
        self.mindist_sq_scalar(word)
    }

    /// AVX2 gather kernel: 16 lookups as two 8-lane gathers.
    ///
    /// # Safety
    ///
    /// Requires AVX2 on the executing CPU and `self.segments == 16`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn mindist_sq_avx2(&self, word: &SaxWord) -> f32 {
        #[allow(clippy::wildcard_imports)]
        use core::arch::x86_64::*;
        debug_assert_eq!(self.segments, 16);
        // SAFETY (whole block): `word.symbols()` is 16 contiguous bytes;
        // indices are 512·i + 255 + sym < 16·512 = table length.
        unsafe {
            let base = self.table.as_ptr().add(LEAF);
            let syms = _mm_loadu_si128(word.symbols().as_ptr() as *const __m128i);
            let lo = _mm256_cvtepu8_epi32(syms);
            let hi = _mm256_cvtepu8_epi32(_mm_srli_si128(syms, 8));
            let off_lo = _mm256_setr_epi32(0, 512, 1024, 1536, 2048, 2560, 3072, 3584);
            let off_hi = _mm256_setr_epi32(4096, 4608, 5120, 5632, 6144, 6656, 7168, 7680);
            let idx_lo = _mm256_add_epi32(lo, off_lo);
            let idx_hi = _mm256_add_epi32(hi, off_hi);
            let v_lo = _mm256_i32gather_ps(base, idx_lo, 4);
            let v_hi = _mm256_i32gather_ps(base, idx_hi, 4);
            let sum = _mm256_add_ps(v_lo, v_hi);
            // Horizontal sum.
            let hi128 = _mm256_extractf128_ps(sum, 1);
            let lo128 = _mm256_castps256_ps128(sum);
            let s4 = _mm_add_ps(lo128, hi128);
            let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
            let s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0b01));
            _mm_cvtss_f32(s1)
        }
    }

    /// Lower bounds for a chunk of up to 8 entries of a struct-of-arrays
    /// symbol block.
    ///
    /// `cols` is a transposed symbol block — column `s` starts at
    /// `s * n` and holds one byte per entry — `n` is the block's entry
    /// count, `base` the chunk's first entry, and `len <= 8` the chunk
    /// size. One bound per entry is written into `out[..len]`. The block
    /// is typically a whole *leaf run* (several adjacent small leaves
    /// sharing one transposition), with the caller chunking `[base,
    /// base + len)` windows across it; because every lane accumulates
    /// its own segment contributions independently, the per-entry
    /// results are bit-identical however the block is re-chunked — a
    /// run-batched sweep equals a per-leaf sweep bit for bit.
    ///
    /// The SIMD variants map *entries* to vector lanes and walk the
    /// segment columns sequentially, so each lane accumulates its segment
    /// contributions in ascending segment order — exactly the order of
    /// [`MindistTable::mindist_sq_scalar`]. SIMD and scalar results are
    /// therefore **bit-identical** per entry. When `use_simd` is set,
    /// full chunks of 8 use the AVX2 gather kernel and 4–7-entry
    /// remainders use the 4-wide SSE tail kernel; 1–3-entry remainders
    /// always take the scalar twin (too short for a quad — and the same
    /// arm in both dispatch modes, so forced-SIMD and forced-scalar runs
    /// agree).
    ///
    /// # Panics
    ///
    /// Panics if the chunk is out of bounds or `cols` is shorter than
    /// `segments * n`.
    #[inline]
    pub fn mindist_sq_soa(
        &self,
        cols: &[u8],
        n: usize,
        base: usize,
        len: usize,
        use_simd: bool,
        out: &mut [f32; 8],
    ) {
        assert!(len <= 8 && base + len <= n, "SoA chunk out of bounds");
        assert!(
            cols.len() >= self.segments * n,
            "SoA column block too short"
        );
        #[cfg(target_arch = "x86_64")]
        if use_simd {
            if len == 8 {
                // SAFETY: bounds asserted above; `use_simd` is only true
                // after `simd_available()` confirmed AVX2 (via
                // `Kernel::uses_simd`).
                unsafe { self.mindist_sq_soa_avx2(cols, n, base, out) };
                return;
            }
            if len >= 4 {
                // SAFETY: bounds asserted above; the tail kernel needs
                // only SSE2, which is baseline on x86_64.
                unsafe { self.mindist_sq_soa_tail_sse(cols, n, base, len, out) };
                return;
            }
        }
        let _ = use_simd;
        self.mindist_sq_soa_scalar(cols, n, base, len, out);
    }

    /// Scalar twin of the SoA batch kernel: per entry, segment
    /// contributions summed in ascending segment order, reading the
    /// transposed columns. Bit-identical to
    /// [`MindistTable::mindist_sq_scalar`] (on the entry's word), to the
    /// AVX2 batch lanes, and to the SSE tail quad.
    pub fn mindist_sq_soa_scalar(
        &self,
        cols: &[u8],
        n: usize,
        base: usize,
        len: usize,
        out: &mut [f32; 8],
    ) {
        for (lane, slot) in out.iter_mut().take(len).enumerate() {
            let mut sum = 0.0f32;
            for s in 0..self.segments {
                let sym = cols[s * n + base + lane] as usize;
                sum += self.table[s * ROW + LEAF + sym];
            }
            *slot = sum;
        }
    }

    /// 4-wide SSE tail kernel for partial SoA chunks of 4–7 entries: the
    /// first four entries ride one `__m128` accumulator (SSE2 has no
    /// gather, so the four table lookups per segment are scalar loads
    /// packed into a lane quad), entries 4..len finish on the scalar
    /// loop. Every lane still sums its contributions in ascending
    /// segment order with plain per-lane adds, so the result is
    /// bit-identical to [`MindistTable::mindist_sq_soa_scalar`].
    ///
    /// # Safety
    ///
    /// `4 <= len <= 7`, `base + len <= n`, and
    /// `cols.len() >= segments * n` (asserted by the public dispatcher).
    /// SSE2 is baseline on `x86_64`, so no runtime feature check is
    /// needed.
    #[cfg(target_arch = "x86_64")]
    unsafe fn mindist_sq_soa_tail_sse(
        &self,
        cols: &[u8],
        n: usize,
        base: usize,
        len: usize,
        out: &mut [f32; 8],
    ) {
        #[allow(clippy::wildcard_imports)]
        use core::arch::x86_64::*;
        debug_assert!((4..8).contains(&len));
        // SAFETY (whole block): per segment `s < segments`, the four byte
        // reads at `s*n + base .. +4` stay inside `cols` (`base + 4 <=
        // base + len <= n`, block len `>= segments*n`); each table index
        // is `512·s + 255 + sym < segments·512` = table length; the store
        // writes lanes 0..4 of the 8-lane `out`.
        unsafe {
            let mut acc = _mm_setzero_ps();
            let tbl = self.table.as_ptr();
            for s in 0..self.segments {
                let p = cols.as_ptr().add(s * n + base);
                let row = tbl.add(s * ROW + LEAF);
                let quad = _mm_setr_ps(
                    *row.add(usize::from(*p)),
                    *row.add(usize::from(*p.add(1))),
                    *row.add(usize::from(*p.add(2))),
                    *row.add(usize::from(*p.add(3))),
                );
                acc = _mm_add_ps(acc, quad);
            }
            _mm_storeu_ps(out.as_mut_ptr(), acc);
        }
        for (lane, slot) in out.iter_mut().enumerate().take(len).skip(4) {
            let mut sum = 0.0f32;
            for s in 0..self.segments {
                let sym = cols[s * n + base + lane] as usize;
                sum += self.table[s * ROW + LEAF + sym];
            }
            *slot = sum;
        }
    }

    /// AVX2 SoA batch kernel: 8 entries per call, one gather per segment
    /// column, plain (non-reassociating) adds so every lane matches the
    /// scalar accumulation order bit for bit.
    ///
    /// # Safety
    ///
    /// Requires AVX2 on the executing CPU; `base + 8 <= n` and
    /// `cols.len() >= segments * n` (asserted by the public dispatcher).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn mindist_sq_soa_avx2(&self, cols: &[u8], n: usize, base: usize, out: &mut [f32; 8]) {
        #[allow(clippy::wildcard_imports)]
        use core::arch::x86_64::*;
        // SAFETY (whole block): per segment `s < segments`, the 8-byte load
        // at `s*n + base` stays inside `cols` (`base + 8 <= n`, block len
        // `>= segments*n`); gather indices are `512·s + 255 + sym <
        // segments·512` = table length; `out` has exactly 8 lanes.
        unsafe {
            let mut acc = _mm256_setzero_ps();
            let tbl = self.table.as_ptr();
            for s in 0..self.segments {
                let p = cols.as_ptr().add(s * n + base);
                let syms = _mm_loadl_epi64(p as *const __m128i);
                let idx = _mm256_add_epi32(
                    _mm256_cvtepu8_epi32(syms),
                    _mm256_set1_epi32((s * ROW + LEAF) as i32),
                );
                acc = _mm256_add_ps(acc, _mm256_i32gather_ps(tbl, idx, 4));
            }
            _mm256_storeu_ps(out.as_mut_ptr(), acc);
        }
    }

    /// The 4-bit fast-scan LUT for pruning against `bound` (see
    /// [`FastScanLut`]): per segment, the table's 16-region level
    /// (slots 15..31) on a scale of `bound / 1024`, floored and
    /// saturating at 255. `None` when `bound` is not finite or `<= 0`,
    /// where no scale exists.
    pub fn fastscan_lut(&self, bound: f32) -> Option<FastScanLut> {
        if !(bound.is_finite() && bound > 0.0) {
            return None;
        }
        let inv = FASTSCAN_UNITS / f64::from(bound);
        let mut lut = [[0u8; 16]; MAX_SEGMENTS];
        for (row, out) in self.table.chunks_exact(ROW).zip(&mut lut) {
            for (&slot, q) in row[NIBBLE..NIBBLE + 16].iter().zip(out.iter_mut()) {
                // `as` floors a non-negative value and saturates at 255.
                *q = (f64::from(slot) * inv) as u8;
            }
        }
        Some(FastScanLut {
            segments: self.segments,
            inv,
            lut,
        })
    }
}

// # Design: a 4-bit fast-scan tier for the entry bound
//
// **Context.** An exact `explore-ed` query (1 M random walks) bounds
// ~249 k leaf entries through `mindist_sq_soa`'s AVX2 gathers — 16
// gathers per 8 entries, ~10 ns an entry — and the distance phase was
// the largest of the query's span (2 892 of 4 527 µs traced, seed 13).
// 99 in 100 of those bounds end at or above the best-so-far.
//
// **Goals.** Prune most entries 32 at a time from registers, with no
// float gather, in front of the unchanged f32 tier, so that every
// real-distance decision, answer and counter stays what it was.
//
// **Non-goals.** New storage (the tier reads the existing u8 SoA
// columns); an option, env var, feature or `Kernel` variant; AVX-512;
// a tier in front of node bounds or of the seed's home-leaf scan.
//
// **Decisions** (André, Kermarrec & Le Scouarnec's PQ fast scan, PVLDB
// 2015, on iSAX's multi-resolution symbols).
// * *The 16-region level of the same table.* A symbol's top four bits
//   name the 16-region cell that contains its 256-region cell, so slot
//   `15 + (sym >> 4)` lower-bounds slot `255 + sym`. Per engine run the
//   LUT holds those 16 slots per segment as u8 on a scale of
//   `B / 1024` (B the bound after seeding): one `vpshufb` a segment
//   looks up 32 entries, summed in u16 (at most 16 · 255 = 4 080).
// * *The threshold follows the live bound.* Each 32-entry block is
//   tested against `t(b) = ⌈b · inv · (1 + 2⁻¹⁶)⌉ + 1` for the bound `b`
//   read at the block; an entry survives iff its sum is `< t(b)`. Every
//   objective's bound only falls (a min-only BSF, the k-th best, a
//   fixed radius), so an entry pruned at `b` would have failed the f32
//   test `lb >= bound` at its own, later turn as well.
// * *Conservative under f32 rounding.* Write `v₄ ≤ v₈` for a segment's
//   16- and 256-region slots, `inv = fl₆₄(1024 / B)`, `q = ⌊fl₆₄(v₄ ·
//   inv)⌋` saturated at 255, `Q = Σ q`, and `u = 2⁻²⁴`.
//   1. `v₄ ≤ v₈` in f32, not only in reals: both slots are
//      `scale · g · g` with `g = below[l] + above[h]` for the cell's
//      boundaries, `below` is non-decreasing and `above` non-increasing
//      in the boundary index, and the 16-region cell's boundaries
//      enclose the 256-region cell's; f32 `+` and `·` by a non-negative
//      value are monotone.
//   2. f32 summation is monotone in every term, so `mindist_sq_soa`'s
//      sum `S₈ ≥ S₄`, the same-order f32 sum of the `v₄`.
//   3. Flooring and saturation only lower `q`: `q ≤ v₄ · (1024/B) ·
//      (1 + 2⁻⁵³)²`, so the exact sum `R₄ = Σ v₄ ≥ Q · (B/1024) /
//      (1 + 2⁻⁵³)²`.
//   4. A sum of at most 16 non-negative f32 terms loses at most a factor
//      `1 − γ₁₅`, `γ₁₅ = 15u / (1 − 15u) < 2⁻²⁰`: `S₄ ≥ R₄ · (1 − γ₁₅)`.
//   5. A prune means `Q ≥ t(b) > b · (1024/B) · (1 + 2⁻¹⁶) · (1 −
//      2⁻⁵³)³`. With 3–4, `S₄ > b · (1 + 2⁻¹⁶)(1 − 2⁻²⁰)(1 − 2⁻⁵³)⁵
//      > b`, and by 2 `S₈ > b`: the f32 tier prunes the entry too. An
//      overflowing `S₈` is +∞, which prunes as well.
//   `t(b)` clamps into u16: a NaN or huge `b` gives 65 535 > 4 080 (no
//   prune), a non-positive one 0 or 1 (every f32 bound is `>= 0 >= b`).
// * *Skip whole 8-entry chunks, gather the rest.* The engine walks a
//   run's full 32-entry blocks; a chunk of 8 with no survivor is counted
//   as 8 bounded entries and never gathered, any other chunk takes
//   `mindist_sq_soa` and `scan_bounded` with non-survivors' bounds set
//   to +∞. Shorter remainders keep the 8-wide path. Counters move
//   nowhere: `lb_calcs` still counts every entry either tier bounded.
// * *Measured* (`explore-ed`, 1 M random walks, 2-core Xeon, W = 2).
//   Per phase, traced at seed 13, before → after, µs a query: distance
//   2 892 → 2 112, span 4 527 → 3 599; tree pass 820 → 729, queue
//   insert 311 → 283, remove 196 → 185, other 195 → 186 and init
//   113 → 104 moved within run-to-run noise (the tier runs in none of
//   them). 84 % of bounded entries sit in full 32-entry blocks; 9.2 % of
//   those survive, and 29 % sit in a chunk that is still gathered.
//   Untraced `query_p50_us` over 10 alternating pairs: 3 011 → 2 520
//   (10/10 wins; CHANGES.md lists every run).

/// Units of the fast-scan scale: a LUT entry of 1 is `bound / 1024`.
const FASTSCAN_UNITS: f64 = 1024.0;

/// Offset of the 16-region (4-bit) level within a table row.
const NIBBLE: usize = 15;

/// A per-query, per-run u8 LUT over the 16-region level of a
/// [`MindistTable`]: prunes 32 entries of a struct-of-arrays symbol
/// block per step, conservatively, ahead of the f32 entry bound (see
/// the design note above; built by [`MindistTable::fastscan_lut`]).
#[derive(Debug, Clone)]
pub struct FastScanLut {
    segments: usize,
    /// `1024 / B` for the bound `B` the LUT was built at.
    inv: f64,
    lut: [[u8; 16]; MAX_SEGMENTS],
}

impl FastScanLut {
    /// Entries one [`FastScanLut::survivors`] call tests.
    pub const BLOCK: usize = 32;

    /// The integer threshold for a live bound `bound`: an entry whose
    /// quantised sum is `>= threshold(bound)` has an f32 mindist above
    /// `bound`.
    #[inline]
    pub fn threshold(&self, bound: f32) -> u16 {
        let t = (f64::from(bound) * self.inv * (1.0 + 1.0 / 65_536.0)).ceil() + 1.0;
        // `min` maps NaN to the cap; `as` sends negatives to 0.
        t.min(f64::from(u16::MAX)) as u16
    }

    /// Survivor mask of the 32 entries `[base, base + 32)` of a
    /// struct-of-arrays symbol block (`cols`, column stride `n`, as in
    /// [`MindistTable::mindist_sq_soa`]): bit `j` is set iff entry
    /// `base + j`'s quantised sum is below `threshold`. The AVX2 kernel
    /// runs when `use_simd` is set; the scalar twin returns the same
    /// mask bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the block is out of bounds or `cols` is shorter than
    /// `segments * n`.
    #[inline]
    pub fn survivors(
        &self,
        cols: &[u8],
        n: usize,
        base: usize,
        threshold: u16,
        use_simd: bool,
    ) -> u32 {
        assert!(base + Self::BLOCK <= n, "fast-scan block out of bounds");
        assert!(
            cols.len() >= self.segments * n,
            "SoA column block too short"
        );
        #[cfg(target_arch = "x86_64")]
        if use_simd {
            // SAFETY: bounds asserted above; `use_simd` is only true
            // after `simd_available()` confirmed AVX2 (via
            // `Kernel::uses_simd`).
            return unsafe { self.survivors_avx2(cols, n, base, threshold) };
        }
        let _ = use_simd;
        self.survivors_scalar(cols, n, base, threshold)
    }

    /// Scalar twin of the fast-scan kernel: per entry, the u16 sum of
    /// its segments' LUT values at the symbol's top four bits, walked
    /// segment by segment like the AVX2 kernel.
    pub fn survivors_scalar(&self, cols: &[u8], n: usize, base: usize, threshold: u16) -> u32 {
        let mut sums = [0u16; Self::BLOCK];
        for (s, lut) in self.lut[..self.segments].iter().enumerate() {
            let col = &cols[s * n + base..][..Self::BLOCK];
            for (sum, &sym) in sums.iter_mut().zip(col) {
                *sum += u16::from(lut[usize::from(sym >> 4)]);
            }
        }
        let mut mask = 0u32;
        for (lane, &sum) in sums.iter().enumerate() {
            mask |= u32::from(sum < threshold) << lane;
        }
        mask
    }

    /// AVX2 fast-scan kernel: per segment one 32-byte column load, `>> 4`
    /// and mask, one `vpshufb` into the segment's LUT (broadcast to both
    /// 128-bit lanes), and u16 accumulation of even and odd entries in
    /// two registers; `sum >= t` is `max_epu16(sum, t) == sum`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 on the executing CPU; `base + 32 <= n` and
    /// `cols.len() >= segments * n` (asserted by the public dispatcher).
    // SAFETY: the one caller, `survivors`, asserts the bounds and holds
    // `use_simd` only when AVX2 is present.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn survivors_avx2(&self, cols: &[u8], n: usize, base: usize, threshold: u16) -> u32 {
        #[allow(clippy::wildcard_imports)]
        use core::arch::x86_64::*;
        let nibble = _mm256_set1_epi8(0x0F);
        let low = _mm256_set1_epi16(0x00FF);
        let (mut even, mut odd) = (_mm256_setzero_si256(), _mm256_setzero_si256());
        for (s, lut) in self.lut[..self.segments].iter().enumerate() {
            // SAFETY: the 32-byte load at `s*n + base` stays inside
            // `cols` (`base + 32 <= n`, `s < segments`, block len `>=
            // segments*n`); `lut` is 16 bytes, the 128-bit load's width.
            let (syms, table) = unsafe {
                (
                    _mm256_loadu_si256(cols.as_ptr().add(s * n + base) as *const __m256i),
                    _mm_loadu_si128(lut.as_ptr() as *const __m128i),
                )
            };
            let idx = _mm256_and_si256(_mm256_srli_epi16(syms, 4), nibble);
            let q = _mm256_shuffle_epi8(_mm256_broadcastsi128_si256(table), idx);
            even = _mm256_add_epi16(even, _mm256_and_si256(q, low));
            odd = _mm256_add_epi16(odd, _mm256_srli_epi16(q, 8));
        }
        let t = _mm256_set1_epi16(threshold as i16);
        let pruned_even = _mm256_cmpeq_epi16(_mm256_max_epu16(even, t), even);
        let pruned_odd = _mm256_cmpeq_epi16(_mm256_max_epu16(odd, t), odd);
        // Byte `j` of the merge is entry `j`'s prune flag.
        let pruned = _mm256_or_si256(
            _mm256_and_si256(pruned_even, low),
            _mm256_andnot_si256(low, pruned_odd),
        );
        !(_mm256_movemask_epi8(pruned) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{sax_word, SaxConfig, SaxConverter};
    use crate::root_key::node_word_for_root_key;
    use messi_series::distance::euclidean::ed_sq_scalar;
    use messi_series::paa::paa;
    use messi_series::stats::approx_eq;
    use messi_series::znorm::znormalized;

    fn mk_series(n: usize, seed: u32) -> Vec<f32> {
        znormalized(
            &(0..n)
                .map(|i| ((i as f32 + seed as f32 * 3.1) * (0.05 + seed as f32 * 0.013)).sin())
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn mindist_lower_bounds_true_distance_leaf() {
        let config = SaxConfig::new(16, 256);
        let scales = segment_scales(config);
        for qs in 0..6u32 {
            let q = mk_series(256, qs);
            let qp = paa(&q, 16);
            let table = MindistTable::new(&qp, config);
            for cs in 6..16u32 {
                let c = mk_series(256, cs);
                let w = sax_word(&c, config);
                let true_d = ed_sq_scalar(&q, &c);
                let lb_table = table.mindist_sq_scalar(&w);
                let lb_branchy = mindist_sq_leaf_scalar(&qp, &scales, &w);
                assert!(
                    lb_table <= true_d + 1e-3,
                    "q{qs} c{cs}: lb {lb_table} > d {true_d}"
                );
                assert!(approx_eq(lb_table, lb_branchy, 1e-4));
            }
        }
    }

    #[test]
    fn mindist_lower_bounds_true_distance_node() {
        let config = SaxConfig::new(8, 64);
        let scales = segment_scales(config);
        let mut conv = SaxConverter::new(config);
        for qs in 0..4u32 {
            let q = mk_series(64, qs);
            let qp = paa(&q, 8);
            for cs in 4..10u32 {
                let c = mk_series(64, cs);
                let w = conv.convert(&c);
                let key = crate::root_key::root_key(&w, 8);
                let node = node_word_for_root_key(key, 8);
                let true_d = ed_sq_scalar(&q, &c);
                let lb = mindist_sq_node(&qp, &scales, &node);
                assert!(lb <= true_d + 1e-3, "q{qs} c{cs}: {lb} > {true_d}");
            }
        }
    }

    #[test]
    fn node_mindist_never_exceeds_leaf_mindist() {
        // Coarser regions ⇒ weaker (smaller) bounds.
        let config = SaxConfig::new(8, 64);
        let scales = segment_scales(config);
        let q = mk_series(64, 1);
        let qp = paa(&q, 8);
        let c = mk_series(64, 7);
        let w = sax_word(&c, config);
        let leaf_lb = mindist_sq_leaf_scalar(&qp, &scales, &w);
        let key = crate::root_key::root_key(&w, 8);
        let node = node_word_for_root_key(key, 8);
        let node_lb = mindist_sq_node(&qp, &scales, &node);
        assert!(node_lb <= leaf_lb + 1e-4, "{node_lb} > {leaf_lb}");
    }

    #[test]
    fn refinement_strengthens_node_bounds() {
        let config = SaxConfig::new(4, 32);
        let scales = segment_scales(config);
        let q = mk_series(32, 2);
        let qp = paa(&q, 4);
        let c = mk_series(32, 9);
        let w = sax_word(&c, config);
        let mut node = node_word_for_root_key(crate::root_key::root_key(&w, 4), 4);
        let mut last = mindist_sq_node(&qp, &scales, &node);
        for seg in 0..4 {
            for _ in 1..CARD_BITS {
                let (zero, one) = node.refine(seg);
                node = if one.contains(&w, 4) { one } else { zero };
                let lb = mindist_sq_node(&qp, &scales, &node);
                assert!(lb >= last - 1e-4, "refinement weakened bound");
                last = lb;
            }
        }
    }

    #[test]
    fn simd_mindist_matches_scalar() {
        let config = SaxConfig::new(16, 256);
        let q = mk_series(256, 3);
        let qp = paa(&q, 16);
        let table = MindistTable::new(&qp, config);
        for cs in 0..20u32 {
            let c = mk_series(256, cs + 50);
            let w = sax_word(&c, config);
            let scalar = table.mindist_sq_scalar(&w);
            let dispatched = table.mindist_sq(&w);
            assert!(
                approx_eq(scalar, dispatched, 1e-5),
                "cs={cs}: {scalar} vs {dispatched}"
            );
        }
    }

    /// Transposes words into an SoA column block (column `s` at `s * n`).
    fn transpose(words: &[SaxWord], segments: usize) -> Vec<u8> {
        let n = words.len();
        let mut cols = vec![0u8; segments * n];
        for (j, w) in words.iter().enumerate() {
            for (s, col) in cols.chunks_exact_mut(n).enumerate() {
                col[j] = w.symbol(s);
            }
        }
        cols
    }

    #[test]
    fn soa_batch_is_bit_identical_to_per_entry_scalar() {
        let config = SaxConfig::new(16, 256);
        let q = mk_series(256, 21);
        let table = MindistTable::new(&paa(&q, 16), config);
        // 19 entries: two full chunks of 8 plus a partial chunk of 3.
        let words: Vec<SaxWord> = (0..19u32)
            .map(|cs| sax_word(&mk_series(256, cs + 100), config))
            .collect();
        let n = words.len();
        let cols = transpose(&words, 16);
        for use_simd in [false, messi_series::distance::simd::simd_available()] {
            let mut base = 0;
            while base < n {
                let len = (n - base).min(8);
                let mut out = [0.0f32; 8];
                table.mindist_sq_soa(&cols, n, base, len, use_simd, &mut out);
                for lane in 0..len {
                    let expected = table.mindist_sq_scalar(&words[base + lane]);
                    assert_eq!(
                        out[lane].to_bits(),
                        expected.to_bits(),
                        "use_simd={use_simd} base={base} lane={lane}"
                    );
                }
                base += len;
            }
        }
    }

    #[test]
    fn sse_tail_quad_covers_every_partial_length() {
        // Remainder chunks of 4–7 entries take the SSE tail kernel under
        // SIMD dispatch; 1–3 stay scalar in both arms. Every length must
        // be bit-identical to the per-entry scalar path.
        let config = SaxConfig::new(16, 256);
        let q = mk_series(256, 51);
        let table = MindistTable::new(&paa(&q, 16), config);
        for len in 1..8usize {
            // `n = 8 + len`: one full chunk, then a partial of exactly `len`.
            let n = 8 + len;
            let words: Vec<SaxWord> = (0..n as u32)
                .map(|cs| sax_word(&mk_series(256, cs + 200), config))
                .collect();
            let cols = transpose(&words, 16);
            for use_simd in [false, messi_series::distance::simd::simd_available()] {
                let mut out = [0.0f32; 8];
                table.mindist_sq_soa(&cols, n, 8, len, use_simd, &mut out);
                for lane in 0..len {
                    let expected = table.mindist_sq_scalar(&words[8 + lane]);
                    assert_eq!(
                        out[lane].to_bits(),
                        expected.to_bits(),
                        "use_simd={use_simd} len={len} lane={lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn rechunking_a_run_block_never_changes_a_bit() {
        // The engine scans one column block under two chunk grids: the
        // per-leaf grid restarts `base` at every leaf boundary, the
        // run-batched grid walks the whole block in aligned chunks of 8.
        // Per-entry results must be bit-identical under *any* chunking —
        // here every window `[base, base + len)` of a 21-entry block, in
        // both dispatch modes.
        let config = SaxConfig::new(16, 256);
        let q = mk_series(256, 77);
        let table = MindistTable::new(&paa(&q, 16), config);
        let n = 21usize;
        let words: Vec<SaxWord> = (0..n as u32)
            .map(|cs| sax_word(&mk_series(256, cs + 300), config))
            .collect();
        let cols = transpose(&words, 16);
        let expected: Vec<u32> = words
            .iter()
            .map(|w| table.mindist_sq_scalar(w).to_bits())
            .collect();
        for use_simd in [false, messi_series::distance::simd::simd_available()] {
            for base in 0..n {
                for len in 1..=(n - base).min(8) {
                    let mut out = [0.0f32; 8];
                    table.mindist_sq_soa(&cols, n, base, len, use_simd, &mut out);
                    for lane in 0..len {
                        assert_eq!(
                            out[lane].to_bits(),
                            expected[base + lane],
                            "use_simd={use_simd} base={base} len={len} lane={lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn soa_batch_works_for_eight_segments() {
        // Non-16 segment counts must take the same code path (unlike the
        // per-entry gather kernel, the SoA kernel has no 16-row special
        // case).
        let config = SaxConfig::new(8, 64);
        let q = mk_series(64, 31);
        let table = MindistTable::new(&paa(&q, 8), config);
        let words: Vec<SaxWord> = (0..8u32)
            .map(|cs| sax_word(&mk_series(64, cs + 40), config))
            .collect();
        let cols = transpose(&words, 8);
        let mut out = [0.0f32; 8];
        table.mindist_sq_soa(
            &cols,
            8,
            0,
            8,
            messi_series::distance::simd::simd_available(),
            &mut out,
        );
        for (lane, w) in words.iter().enumerate() {
            assert_eq!(out[lane].to_bits(), table.mindist_sq_scalar(w).to_bits());
        }
    }

    #[test]
    fn mindist_zero_for_own_summary() {
        // The query's own iSAX region contains its PAA, so mindist = 0.
        let config = SaxConfig::new(16, 256);
        let q = mk_series(256, 4);
        let qp = paa(&q, 16);
        let w = sax_word(&q, config);
        let table = MindistTable::new(&qp, config);
        assert_eq!(table.mindist_sq_scalar(&w), 0.0);
        assert_eq!(table.segments(), 16);
    }

    #[test]
    fn envelope_mindist_lower_bounds_dtw() {
        use messi_series::distance::dtw::{dtw_sq, DtwParams};
        use messi_series::distance::lb_keogh::Envelope;
        let config = SaxConfig::new(16, 128);
        let scales = segment_scales(config);
        let params = DtwParams::paper_default(128);
        for qs in 0..4u32 {
            let q = mk_series(128, qs);
            let env = Envelope::new(&q, params);
            let pl = paa(&env.lower, 16);
            let pu = paa(&env.upper, 16);
            let table = MindistTable::from_envelope(&pl, &pu, config);
            for cs in 10..18u32 {
                let c = mk_series(128, cs);
                let w = sax_word(&c, config);
                let d = dtw_sq(&q, &c, params);
                let lb_leaf = table.mindist_sq(&w);
                assert!(lb_leaf <= d + 1e-3, "q{qs} c{cs}: leaf {lb_leaf} > {d}");
                let key = crate::root_key::root_key(&w, 16);
                let node = node_word_for_root_key(key, 16);
                let lb_node = mindist_sq_node_env(&pl, &pu, &scales, &node);
                assert!(lb_node <= d + 1e-3, "q{qs} c{cs}: node {lb_node} > {d}");
                assert!(lb_node <= lb_leaf + 1e-3);
            }
        }
    }

    #[test]
    fn envelope_mindist_weaker_than_point_mindist() {
        // The envelope bound must not exceed the ED bound (envelope
        // regions are wider than the point query).
        let config = SaxConfig::new(16, 128);
        let q = mk_series(128, 5);
        let qp = paa(&q, 16);
        use messi_series::distance::dtw::DtwParams;
        use messi_series::distance::lb_keogh::Envelope;
        let env = Envelope::new(&q, DtwParams::paper_default(128));
        let pl = paa(&env.lower, 16);
        let pu = paa(&env.upper, 16);
        let t_point = MindistTable::new(&qp, config);
        let t_env = MindistTable::from_envelope(&pl, &pu, config);
        for cs in 20..28u32 {
            let c = mk_series(128, cs);
            let w = sax_word(&c, config);
            assert!(t_env.mindist_sq(&w) <= t_point.mindist_sq(&w) + 1e-4);
        }
    }

    #[test]
    fn refill_matches_fresh_build() {
        let config = SaxConfig::new(16, 256);
        let q1 = mk_series(256, 11);
        let q2 = mk_series(256, 12);
        let mut reused = MindistTable::new(&paa(&q1, 16), config);
        reused.refill(&paa(&q2, 16), config);
        let fresh = MindistTable::new(&paa(&q2, 16), config);
        for cs in 0..10u32 {
            let w = sax_word(&mk_series(256, cs + 30), config);
            assert_eq!(
                reused.mindist_sq_scalar(&w).to_bits(),
                fresh.mindist_sq_scalar(&w).to_bits(),
                "refilled table must be bit-identical to a fresh one"
            );
        }
        // Envelope refill likewise matches a fresh envelope table.
        use messi_series::distance::dtw::DtwParams;
        use messi_series::distance::lb_keogh::Envelope;
        let env = Envelope::new(&q1, DtwParams::paper_default(256));
        let (pl, pu) = (paa(&env.lower, 16), paa(&env.upper, 16));
        reused.refill_from_envelope(&pl, &pu, config);
        let fresh_env = MindistTable::from_envelope(&pl, &pu, config);
        let w = sax_word(&mk_series(256, 77), config);
        assert_eq!(
            reused.mindist_sq_scalar(&w).to_bits(),
            fresh_env.mindist_sq_scalar(&w).to_bits()
        );
        // A refill for a different series length reuses the same buffer:
        // table size depends only on the segment count.
        let other = SaxConfig::new(16, 128);
        let q3 = mk_series(128, 13);
        reused.refill(&paa(&q3, 16), other);
        let fresh_other = MindistTable::new(&paa(&q3, 16), other);
        let w = sax_word(&mk_series(128, 78), other);
        assert_eq!(
            reused.mindist_sq_scalar(&w).to_bits(),
            fresh_other.mindist_sq_scalar(&w).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "matching segment count")]
    fn refill_rejects_segment_mismatch() {
        let c16 = SaxConfig::new(16, 256);
        let c8 = SaxConfig::new(8, 256);
        let q = mk_series(256, 14);
        let mut t = MindistTable::new(&paa(&q, 16), c16);
        t.refill(&paa(&q, 8), c8);
    }

    #[test]
    fn gap_handles_infinite_bounds() {
        assert_eq!(gap(0.5, f32::NEG_INFINITY, 1.0), 0.0);
        assert_eq!(gap(2.0, f32::NEG_INFINITY, 1.0), 1.0);
        assert_eq!(gap(-3.0, -1.0, f32::INFINITY), 2.0);
        assert_eq!(gap_env(-0.5, 0.5, f32::NEG_INFINITY, f32::INFINITY), 0.0);
        assert_eq!(gap_env(1.5, 2.5, f32::NEG_INFINITY, 1.0), 0.5);
        assert_eq!(gap_env(-2.5, -1.5, -1.0, f32::INFINITY), 0.5);
    }
}
