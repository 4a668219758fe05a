//! Property-based proof that the SIMD kernels and their scalar twins
//! are *bit-identical* — the contract `crates/series/src/distance/
//! simd.rs` documents and the `--kernel` ablation relies on.
//!
//! Two layers:
//!
//! * **Kernel level** — for random lengths (including 0, 1, and
//!   non-multiple-of-8 tails), random bounds, and extreme magnitudes,
//!   every dispatcher returns the same bits under `Kernel::Simd` and
//!   `Kernel::Scalar`: squared Euclidean distance (plain and
//!   early-abandoning), LB_Keogh (plain and early-abandoning), and the
//!   batched struct-of-arrays mindist. Both banded DTW kernels — the AVX2
//!   anti-diagonal wavefront and its scalar twin, the row kernel — are
//!   held to `dtw_sq_reference`'s bits in both argument orders, at every
//!   register-block edge of the wavefront's band and past its register
//!   limit; abandoning on the LB_Keogh suffix never drops a value below
//!   its bound, and an abandoned value is at least the bound.
//! * **Bound level** — the table's node bound is `to_bits()`-equal to
//!   the branchy `mindist_sq_node` / `mindist_sq_node_env` oracles for
//!   every cardinality mix, the packed root block bounds each arena as
//!   its root word does (built, grown and reloaded), and the 8-wide root
//!   sweep equals its scalar twin at every chunk length. The 4-bit
//!   fast-scan tier drops only entries whose f32 bound reaches the live
//!   bound, and its AVX2 survivor mask equals the scalar twin's.
//! * **Query level** — a full search under forced-SIMD and
//!   forced-scalar kernels returns bit-identical answers (position and
//!   `dist_sq` bits) for every objective × metric cell. Run single-
//!   worker/single-queue so the evaluation order is deterministic and
//!   the comparison is exact, not statistical.
//!
//! On a CPU without AVX2+FMA, `Kernel::Simd` falls back to scalar and
//! every property holds trivially — so the suite is portable, and the
//! forced-scalar CI job exercises the same fallback explicitly.

// The proptest shim expands multi-test blocks recursively; three tests
// of this size overflow the default 128 limit.
#![recursion_limit = "256"]

use messi::index::node::TreeArena;
use messi::prelude::*;
use messi::sax::breakpoints;
use messi::sax::convert::SaxConfig;
use messi::sax::mindist::{
    mindist_sq_node, mindist_sq_node_env, segment_scales, FastScanLut, MindistTable,
};
use messi::sax::word::{NodeWord, RootWord};
use messi::series::distance::dtw::{
    cascade_sq, dtw_sq, dtw_sq_early_abandon, dtw_sq_early_abandon_suffix, dtw_sq_reference,
};
use messi::series::distance::euclidean::{ed_sq_early_abandon_with, ed_sq_with};
use messi::series::distance::lb_keogh::{
    lb_keogh_sq_early_abandon_with, lb_keogh_sq_with, lb_keogh_suffix, Envelope,
};
use messi::series::distance::simd::simd_available;
use messi::series::gen::{self, DatasetKind};
use proptest::prelude::*;
use std::sync::Arc;

const SIMD: Kernel = Kernel::Simd;
const SCALAR: Kernel = Kernel::Scalar;

/// A deterministic pseudo-random series of length `n`, with the
/// magnitude scale mixed in so extreme values (overflow-to-infinity
/// squares, denormal-range products) are part of the property.
fn series(n: usize, seed: u64, scale: f32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Roughly N(0, 1)-ish via a folded uniform; exact shape is
            // irrelevant — only bit-equality of the two kernels is.
            let u = (state >> 40) as f32 / (1u64 << 24) as f32;
            (u - 0.5) * 4.0 * scale
        })
        .collect()
}

fn scale_strategy() -> impl Strategy<Value = f32> {
    (0usize..4).prop_map(|i| [1.0f32, 1.0e-20, 1.0e19, 3.5e-3][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn ed_kernels_are_bit_identical(
        shape in (0usize..300, 0u64..1_000_000),
        scale in scale_strategy(),
        bound_frac in 0usize..4,
    ) {
        let (n, seed) = shape;
        let a = series(n, seed, scale);
        let b = series(n, seed.wrapping_add(1), scale);
        let simd = ed_sq_with(SIMD, &a, &b);
        let scalar = ed_sq_with(SCALAR, &a, &b);
        prop_assert_eq!(simd.to_bits(), scalar.to_bits(), "ed n={} {} vs {}", n, simd, scalar);

        // Early abandoning at several tightnesses, including bound = 0
        // (abandons at the first stride) and a bound the sum never hits.
        let bound = [0.0f32, scalar / 2.0, scalar, f32::INFINITY][bound_frac];
        let ea_simd = ed_sq_early_abandon_with(SIMD, &a, &b, bound);
        let ea_scalar = ed_sq_early_abandon_with(SCALAR, &a, &b, bound);
        prop_assert_eq!(
            ea_simd.to_bits(), ea_scalar.to_bits(),
            "ed_ea n={} bound={} {} vs {}", n, bound, ea_simd, ea_scalar
        );
    }

    #[test]
    fn lb_keogh_kernels_are_bit_identical(
        shape in (1usize..300, 0u64..1_000_000),
        scale in scale_strategy(),
        fracs in (0usize..4, 0usize..4),
    ) {
        let (n, seed) = shape;
        let (window_frac, bound_frac) = fracs;
        let q = series(n, seed, scale);
        let c = series(n, seed.wrapping_add(7), scale);
        let window = n * window_frac / 8; // 0 ..= n/2
        let env = Envelope::new(&q, DtwParams { window });
        let simd = lb_keogh_sq_with(SIMD, &env, &c);
        let scalar = lb_keogh_sq_with(SCALAR, &env, &c);
        prop_assert_eq!(
            simd.to_bits(), scalar.to_bits(),
            "lb_keogh n={} w={} {} vs {}", n, window, simd, scalar
        );

        let bound = [0.0f32, scalar / 2.0, scalar, f32::INFINITY][bound_frac];
        let ea_simd = lb_keogh_sq_early_abandon_with(SIMD, &env, &c, bound);
        let ea_scalar = lb_keogh_sq_early_abandon_with(SCALAR, &env, &c, bound);
        prop_assert_eq!(
            ea_simd.to_bits(), ea_scalar.to_bits(),
            "lb_keogh_ea n={} bound={} {} vs {}", n, bound, ea_simd, ea_scalar
        );
    }

    #[test]
    fn dtw_kernel_is_bit_identical_to_the_reference(
        shape in (1usize..300, 0u64..1_000_000),
        scale in scale_strategy(),
        window_pick in 0usize..6,
    ) {
        let (n, seed) = shape;
        let a = series(n, seed, scale);
        let b = series(n, seed.wrapping_add(3), scale);
        let p = DtwParams { window: [0, 1, n / 10, n / 2, n, 10 * n][window_pick] };
        let exact = dtw_sq_reference(&a, &b, p);
        let (ab, ba) = (dtw_sq(&a, &b, p), dtw_sq(&b, &a, p));
        prop_assert_eq!(ab.to_bits(), exact.to_bits(), "dtw n={} {:?} {} vs {}", n, p, ab, exact);
        prop_assert_eq!(ba.to_bits(), exact.to_bits(), "dtw swapped n={} {:?}", n, p);

        // UCR's cumulative bound, rows over `a` against `b`'s envelope:
        // nothing below the bound is abandoned, and an abandoned value
        // is at least the bound.
        let env = Envelope::new(&b, p);
        let mut suffix = vec![0.0; n + 1];
        lb_keogh_suffix(&env, &a, &mut suffix);
        let tight = exact.next_up();
        let got = dtw_sq_early_abandon_suffix(&a, &b, p, tight, &suffix);
        prop_assert_eq!(got.to_bits(), exact.to_bits(), "suffix n={} {:?}", n, p);
        for bound in [exact, exact / 2.0, 0.0] {
            prop_assert!(dtw_sq_early_abandon_suffix(&a, &b, p, bound, &suffix) >= bound);
            prop_assert!(dtw_sq_early_abandon(&a, &b, p, bound) >= bound);
        }
        for kernel in [SIMD, SCALAR] {
            match cascade_sq(kernel, &env, p, &b, &a, tight) {
                Some(d) => prop_assert_eq!(d.to_bits(), exact.to_bits(), "cascade n={} {:?}", n, p),
                None => prop_assert!(lb_keogh_sq_early_abandon_with(kernel, &env, &a, tight) >= tight),
            }
        }
    }

    #[test]
    fn dtw_kernels_hold_the_reference_at_every_register_edge(
        shape in (1usize..300, 0u64..1_000_000),
        scale in scale_strategy(),
        edge in (1usize..=8, 0usize..5),
    ) {
        // The wavefront holds 2P + 1 = 2⌊(w + 1)/2⌋ + 1 lanes in V
        // vectors: w = 8V − 3, 8V − 2 fill 8V − 1 lanes, w = 8V − 1, 8V
        // spill one lane into vector V + 1 (past V = 8, onto the row
        // kernel), and w = 100 is past the register limit.
        let (n, seed) = shape;
        let (vectors, pick) = edge;
        let window = if pick == 4 { 100 } else { 8 * vectors - 3 + pick };
        let p = DtwParams { window };
        let a = series(n, seed, scale);
        let b = series(n, seed.wrapping_add(5), scale);
        let exact = dtw_sq_reference(&a, &b, p);
        let tight = exact.next_up();
        for (rows, cols) in [(&a, &b), (&b, &a)] {
            let d = dtw_sq(rows, cols, p);
            prop_assert_eq!(d.to_bits(), exact.to_bits(), "dtw n={} {:?} {} vs {}", n, p, d, exact);
            let env = Envelope::new(cols, p);
            let mut suffix = vec![0.0; n + 1];
            lb_keogh_suffix(&env, rows, &mut suffix);
            let d = dtw_sq_early_abandon_suffix(rows, cols, p, tight, &suffix);
            prop_assert_eq!(d.to_bits(), exact.to_bits(), "suffix n={} {:?}", n, p);
            for bound in [exact, exact / 2.0, 0.0] {
                prop_assert!(dtw_sq_early_abandon_suffix(rows, cols, p, bound, &suffix) >= bound);
                prop_assert!(dtw_sq_early_abandon(rows, cols, p, bound) >= bound);
            }
            for kernel in [SIMD, SCALAR] {
                match cascade_sq(kernel, &env, p, cols, rows, tight) {
                    Some(d) => prop_assert_eq!(
                        d.to_bits(), exact.to_bits(), "cascade {:?} n={} {:?}", kernel, n, p
                    ),
                    None => prop_assert!(lb_keogh_sq_early_abandon_with(kernel, &env, rows, tight) >= tight),
                }
                for bound in [exact, exact / 2.0, 0.0] {
                    if let Some(d) = cascade_sq(kernel, &env, p, cols, rows, bound) {
                        prop_assert!(d >= bound, "cascade {:?} n={} {:?}: {} < {}", kernel, n, p, d, bound);
                    }
                }
            }
        }
    }

    #[test]
    fn soa_mindist_tail_lengths_are_bit_identical(
        seed in 0u64..1_000_000,
        segments_pick in 0usize..3,
    ) {
        // Pin every remainder length explicitly: 4–7 dispatch to the
        // 4-wide SSE tail kernel under SIMD, 1–3 stay on the scalar
        // twin in both arms. Each must match the scalar path bit for
        // bit at every lane.
        let segments = [8usize, 12, 16][segments_pick];
        let series_len = segments * 16;
        let config = SaxConfig::new(segments, series_len);
        let q = series(series_len, seed, 1.0);
        let paa = messi::series::paa::paa(&q, segments);
        let table = MindistTable::new(&paa, config);

        for tail in 1..8usize {
            let entries = 8 + tail; // one full chunk + the pinned tail
            let mut state = seed.wrapping_add(tail as u64) | 1;
            let mut cols = vec![0u8; segments * entries];
            for byte in cols.iter_mut() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *byte = (state >> 32) as u8;
            }
            let mut simd_out = [0.0f32; 8];
            let mut scalar_out = [0.0f32; 8];
            table.mindist_sq_soa(&cols, entries, 8, tail, true, &mut simd_out);
            table.mindist_sq_soa(&cols, entries, 8, tail, false, &mut scalar_out);
            for lane in 0..tail {
                prop_assert_eq!(
                    simd_out[lane].to_bits(), scalar_out[lane].to_bits(),
                    "soa tail segs={} tail={} lane={}", segments, tail, lane
                );
            }
        }
    }

    #[test]
    fn soa_mindist_batch_is_bit_identical(
        shape in (1usize..40, 0u64..1_000_000),
        segments_pick in 0usize..3,
    ) {
        let (entries, seed) = shape;
        let segments = [8usize, 12, 16][segments_pick];
        let series_len = segments * 16;
        let config = SaxConfig::new(segments, series_len);
        let q = series(series_len, seed, 1.0);
        let paa = messi::series::paa::paa(&q, segments);
        let table = MindistTable::new(&paa, config);

        // Random symbol columns for `entries` entries.
        let mut state = seed | 1;
        let mut cols = vec![0u8; segments * entries];
        for byte in cols.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *byte = (state >> 32) as u8;
        }

        let mut simd_out = [0.0f32; 8];
        let mut scalar_out = [0.0f32; 8];
        let mut base = 0;
        while base < entries {
            let len = (entries - base).min(8);
            table.mindist_sq_soa(&cols, entries, base, len, true, &mut simd_out);
            table.mindist_sq_soa(&cols, entries, base, len, false, &mut scalar_out);
            for lane in 0..len {
                prop_assert_eq!(
                    simd_out[lane].to_bits(), scalar_out[lane].to_bits(),
                    "soa mindist segs={} entries={} base={} lane={}",
                    segments, entries, base, lane
                );
            }
            base += len;
        }
    }
}

/// Forced-SIMD and forced-scalar full queries, compared bit-for-bit.
/// Single worker + single queue: the leaf visit order, the bound
/// evolution, and hence every early-abandon decision are deterministic,
/// so bit-identical kernels must produce bit-identical answers.
fn kernel_forced(kernel: Kernel) -> QueryConfig {
    QueryConfig {
        num_workers: 1,
        num_queues: 1,
        kernel,
        ..QueryConfig::default()
    }
}

fn assert_same_answer(tag: &str, a: (u64, f32), b: (u64, f32)) {
    assert_eq!(a.0, b.0, "{tag}: position diverged");
    assert_eq!(
        a.1.to_bits(),
        b.1.to_bits(),
        "{tag}: dist_sq bits diverged ({} vs {})",
        a.1,
        b.1
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn full_queries_are_bit_identical_across_kernels(
        shape in (150usize..400, 0u64..1_000_000),
    ) {
        let (count, seed) = shape;
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, count, seed));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 2, seed);
        let params = DtwParams::paper_default(data.series_len());
        let simd = kernel_forced(Kernel::Simd);
        let scalar = kernel_forced(Kernel::Scalar);

        for q in queries.iter() {
            // Exact 1-NN, both metrics.
            let (a, _) = index.search(q, &simd);
            let (b, _) = index.search(q, &scalar);
            assert_same_answer("exact/ed", (a.pos, a.dist_sq), (b.pos, b.dist_sq));
            let (a, _) = index.search_dtw(q, params, &simd);
            let (b, _) = index.search_dtw(q, params, &scalar);
            assert_same_answer("exact/dtw", (a.pos, a.dist_sq), (b.pos, b.dist_sq));

            // k-NN, both metrics.
            let (ka, _) = index.search_knn(q, 5, &simd);
            let (kb, _) = index.search_knn(q, 5, &scalar);
            prop_assert_eq!(ka.len(), kb.len());
            for (x, y) in ka.iter().zip(&kb) {
                assert_same_answer("knn/ed", (x.pos, x.dist_sq), (y.pos, y.dist_sq));
            }
            let (ka, _) = index.search_knn_dtw(q, 5, params, &simd);
            let (kb, _) = index.search_knn_dtw(q, 5, params, &scalar);
            prop_assert_eq!(ka.len(), kb.len());
            for (x, y) in ka.iter().zip(&kb) {
                assert_same_answer("knn/dtw", (x.pos, x.dist_sq), (y.pos, y.dist_sq));
            }

            // ε-range, both metrics (radius from the exact answer so the
            // result set is non-trivial).
            let (nn, _) = index.search(q, &simd);
            let eps = nn.dist_sq * 4.0 + 1.0;
            let (ra, _) = index.search_range(q, eps, &simd);
            let (rb, _) = index.search_range(q, eps, &scalar);
            prop_assert_eq!(ra.len(), rb.len(), "range/ed set size");
            for (x, y) in ra.iter().zip(&rb) {
                assert_same_answer("range/ed", (x.pos, x.dist_sq), (y.pos, y.dist_sq));
            }
            let (ra, _) = index.search_range_dtw(q, eps, params, &simd);
            let (rb, _) = index.search_range_dtw(q, eps, params, &scalar);
            prop_assert_eq!(ra.len(), rb.len(), "range/dtw set size");
            for (x, y) in ra.iter().zip(&rb) {
                assert_same_answer("range/dtw", (x.pos, x.dist_sq), (y.pos, y.dist_sq));
            }

            // δ-ε-approximate, both metrics: ng corner (δ=0), the
            // deterministic guarantee (δ=1), and a budgeted middle
            // (δ=0.5 — the budget is leaf-count-derived, so with one
            // worker the stop point is deterministic too).
            for delta in [0.0f32, 0.5, 1.0] {
                let (a, _) = index.search_approximate_bounded(q, 0.1, delta, &simd);
                let (b, _) = index.search_approximate_bounded(q, 0.1, delta, &scalar);
                assert_same_answer("approx/ed", (a.pos, a.dist_sq), (b.pos, b.dist_sq));
                let (a, _) = index.search_approximate_bounded_dtw(q, 0.1, delta, params, &simd);
                let (b, _) = index.search_approximate_bounded_dtw(q, 0.1, delta, params, &scalar);
                assert_same_answer("approx/dtw", (a.pos, a.dist_sq), (b.pos, b.dist_sq));
            }

            // The home-leaf-only approximate entry point.
            let a = index.search_approximate(q, Kernel::Simd);
            let b = index.search_approximate(q, Kernel::Scalar);
            assert_same_answer("approx/ng", (a.pos, a.dist_sq), (b.pos, b.dist_sq));
        }
    }
}

/// A deterministic pseudo-random node word over `segments` segments
/// mixing every cardinality 0..=8, with the lowest and the top symbol of
/// a cardinality (the ±∞ regions) forced on a share of the segments.
fn node_word(segments: usize, seed: u64) -> NodeWord {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state >> 33
    };
    let bits: Vec<u8> = (0..segments).map(|_| (next() % 9) as u8).collect();
    let symbols: Vec<u16> = bits
        .iter()
        .map(|&b| {
            let top = (1u64 << b) - 1;
            match next() % 4 {
                0 => 0,
                1 => top as u16,
                _ => (next() % (top + 1)) as u16,
            }
        })
        .collect();
    NodeWord::new(&symbols, &bits)
}

/// A PAA vector whose values mix ordinary magnitudes with values sitting
/// exactly on a breakpoint.
fn paa_on_breakpoints(segments: usize, seed: u64) -> Vec<f32> {
    let table = breakpoints::table();
    series(segments, seed, 1.0)
        .into_iter()
        .enumerate()
        .map(|(i, v)| match (seed as usize + i) % 3 {
            0 => table[(seed as usize * 31 + i * 17) % table.len()],
            _ => v,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn table_node_bound_equals_the_branchy_oracles(
        wide in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let segments = [8usize, 16][wide];
        let config = SaxConfig::new(segments, 256);
        let scales = segment_scales(config);
        let paa = paa_on_breakpoints(segments, seed);
        // An envelope around the point query: lower <= paa <= upper.
        let lower: Vec<f32> = paa.iter().map(|v| v - 0.25).collect();
        let upper: Vec<f32> = paa_on_breakpoints(segments, seed + 7)
            .iter()
            .zip(&paa)
            .map(|(u, v)| v + u.abs())
            .collect();
        let point = MindistTable::new(&paa, config);
        let envelope = MindistTable::from_envelope(&lower, &upper, config);
        // Refilled tables (from a different query, of the other kind)
        // must equal the fresh ones slot for slot.
        let mut refilled_point = envelope.clone();
        refilled_point.refill(&paa, config);
        let mut refilled_envelope = point.clone();
        refilled_envelope.refill_from_envelope(&lower, &upper, config);
        for k in 0..32 {
            let word = node_word(segments, seed * 32 + k);
            let oracle = mindist_sq_node(&paa, &scales, &word);
            let got = point.node_lower_bound(&word);
            prop_assert_eq!(got.to_bits(), oracle.to_bits(), "point {} vs {}", got, oracle);
            prop_assert_eq!(refilled_point.node_lower_bound(&word).to_bits(), oracle.to_bits());
            let oracle = mindist_sq_node_env(&lower, &upper, &scales, &word);
            let got = envelope.node_lower_bound(&word);
            prop_assert_eq!(got.to_bits(), oracle.to_bits(), "envelope {} vs {}", got, oracle);
            prop_assert_eq!(refilled_envelope.node_lower_bound(&word).to_bits(), oracle.to_bits());
        }
    }

    #[test]
    fn root_sweep_equals_its_scalar_twin_at_every_chunk_length(
        wide in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let segments = [8usize, 16][wide];
        let config = SaxConfig::new(segments, 256);
        let table = MindistTable::new(&paa_on_breakpoints(segments, seed), config);
        // Root-shaped words: at most one bit per segment.
        let words: Vec<NodeWord> = (0..8u64)
            .map(|k| {
                let r = seed * 8 + k;
                let bits: Vec<u8> = (0..segments).map(|i| ((r >> i) & 1) as u8).collect();
                let symbols: Vec<u16> = (0..segments)
                    .map(|i| ((r >> (16 + i)) & 1) as u16 * u16::from(bits[i]))
                    .collect();
                NodeWord::new(&symbols, &bits)
            })
            .collect();
        let roots: Vec<RootWord> = words.iter().map(RootWord::pack).collect();
        for len in 1..=8usize {
            let mut scalar = [0.0f32; 8];
            table.root_bounds_scalar(&roots[..len], &mut scalar);
            // `simd_available()` is false under MESSI_FORCE_SCALAR=1:
            // the dispatcher then takes the scalar twin on both arms.
            for use_simd in [false, simd_available()] {
                let mut swept = [0.0f32; 8];
                table.root_bounds(&roots[..len], use_simd, &mut swept);
                for lane in 0..len {
                    prop_assert_eq!(swept[lane].to_bits(), scalar[lane].to_bits());
                    prop_assert_eq!(
                        scalar[lane].to_bits(),
                        table.node_lower_bound(&words[lane]).to_bits(),
                        "len {} lane {}", len, lane
                    );
                }
            }
        }
    }
}

/// Every arena's packed root must bound exactly as its root word does.
fn assert_root_block_matches(tag: &str, index: &MessiIndex, table: &MindistTable, paa: &[f32]) {
    assert_eq!(index.roots().len(), index.arenas().len(), "{tag}");
    for (i, (arena, root)) in index.arenas().iter().zip(index.roots()).enumerate() {
        let word = arena.word(TreeArena::ROOT);
        let mut swept = [0.0f32; 8];
        table.root_bounds(std::slice::from_ref(root), simd_available(), &mut swept);
        assert_eq!(
            swept[0].to_bits(),
            table.node_lower_bound(word).to_bits(),
            "{tag}: arena {i}"
        );
        assert_eq!(
            swept[0].to_bits(),
            mindist_sq_node(paa, index.scales(), word).to_bits(),
            "{tag}: arena {i} vs oracle"
        );
    }
}

#[test]
fn root_block_bounds_every_arena_as_its_root_word_does() {
    // The test configuration builds solo arenas (dense keys), the default
    // one forest arenas under synthetic spines; both are then grown by
    // `insert_batch` and round-tripped through a snapshot.
    for (tag, config) in [
        ("for_tests", IndexConfig::for_tests()),
        ("default", IndexConfig::default()),
    ] {
        let full = gen::generate(DatasetKind::RandomWalk, 1_200, 97);
        let len = full.series_len();
        let base = Arc::new(
            messi::series::Dataset::from_flat(full.as_flat()[..900 * len].to_vec(), len).unwrap(),
        );
        let full = Arc::new(full);
        let (index, _) = MessiIndex::build(base, &config);
        let query = gen::queries::generate_queries(DatasetKind::RandomWalk, 1, 97);
        let (_, paa) = index.summarize_query(query.series(0));
        let table = MindistTable::new(&paa, index.sax_config());
        assert_root_block_matches(&format!("{tag} built"), &index, &table, &paa);
        let segments = index.sax_config().segments;
        let solo =
            |arena: &TreeArena| (0..segments).all(|s| arena.word(TreeArena::ROOT).bits(s) == 1);
        if tag == "default" {
            assert!(!index.arenas().iter().all(solo), "no forest arena");
        } else {
            assert!(index.arenas().iter().any(solo), "no solo arena");
        }

        let grown = index.insert_batch(Arc::clone(&full), 900).expect("absorb");
        assert_root_block_matches(&format!("{tag} grown"), &grown, &table, &paa);

        let path =
            std::env::temp_dir().join(format!("messi-root-block-{tag}-{}.msx", std::process::id()));
        messi::save_index(&grown, &path).expect("save");
        let loaded = messi::load_index(&path, full).expect("load");
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.roots(), grown.roots(), "{tag}: derived on load");
        assert_root_block_matches(&format!("{tag} loaded"), &loaded, &table, &paa);
    }
}

/// `entries` entries of random symbol columns, transposed (column `s`
/// at `s * entries`), and their f32 bounds under `table`.
fn random_block(table: &MindistTable, entries: usize, seed: u64) -> (Vec<u8>, Vec<f32>) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut cols = vec![0u8; table.segments() * entries];
    for byte in cols.iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *byte = (state >> 32) as u8;
    }
    let mut lbs = vec![0.0f32; entries];
    for (base, out) in (0..entries).step_by(8).zip(lbs.chunks_mut(8)) {
        let mut chunk = [0.0f32; 8];
        table.mindist_sq_soa(&cols, entries, base, out.len(), false, &mut chunk);
        out.copy_from_slice(&chunk[..out.len()]);
    }
    (cols, lbs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The 4-bit fast-scan tier only drops entries the f32 tier drops:
    /// for point and envelope tables (PAAs on breakpoints and at extreme
    /// magnitudes), LUT bounds from tiny (every slot saturates) to huge
    /// (every slot is 0) and live bounds at or below the LUT's, every
    /// entry outside the survivor mask has an f32 bound `>=` the live
    /// bound, and the AVX2 mask equals the scalar twin's bit for bit.
    #[test]
    fn fastscan_tier_is_admissible_and_its_kernels_agree(
        wide in 0usize..2,
        envelope in proptest::bool::ANY,
        seed in 0u64..1_000_000,
        magnitude in scale_strategy(),
        pick in (0usize..7, 0usize..5),
    ) {
        let segments = [8usize, 16][wide];
        let config = SaxConfig::new(segments, 256);
        let paa: Vec<f32> = paa_on_breakpoints(segments, seed)
            .iter()
            .zip(series(segments, seed + 3, magnitude))
            .enumerate()
            .map(|(i, (&p, m))| if i % 2 == 0 { p } else { m })
            .collect();
        let table = if envelope {
            let lower: Vec<f32> = paa.iter().map(|v| v - 0.25).collect();
            let upper: Vec<f32> = paa.iter().map(|v| v + 0.5).collect();
            MindistTable::from_envelope(&lower, &upper, config)
        } else {
            MindistTable::new(&paa, config)
        };
        let entries = 3 * FastScanLut::BLOCK + 8;
        let (cols, lbs) = random_block(&table, entries, seed);
        let mut sorted = lbs.clone();
        sorted.sort_by(f32::total_cmp);
        let lut_bound = [
            f32::MIN_POSITIVE,
            1.0e-30,
            sorted[entries / 10],
            sorted[entries / 2],
            sorted[entries - 1],
            1.0e30,
            f32::MAX,
        ][pick.0];
        let Some(lut) = table.fastscan_lut(lut_bound) else {
            // Only a drawn f32 bound of 0 or +inf (an overflowed slot) has
            // no LUT.
            prop_assert!(lut_bound == 0.0 || !lut_bound.is_finite());
            return;
        };
        let live = [
            lut_bound,
            f32::from_bits(lut_bound.to_bits() - 1),
            lut_bound * 0.5,
            lut_bound * 1.0e-3,
            0.0,
        ][pick.1];
        let threshold = lut.threshold(live);
        for base in [0, 32, 64, 72] {
            let scalar = lut.survivors_scalar(&cols, entries, base, threshold);
            // `simd_available()` is false under MESSI_FORCE_SCALAR=1: the
            // dispatcher then takes the scalar twin on both arms.
            let dispatched = lut.survivors(&cols, entries, base, threshold, simd_available());
            prop_assert_eq!(dispatched, scalar, "base {} threshold {}", base, threshold);
            for lane in 0..FastScanLut::BLOCK {
                if scalar >> lane & 1 == 0 {
                    let lb = lbs[base + lane];
                    prop_assert!(
                        lb >= live,
                        "dropped entry {} has f32 bound {} < live bound {} (LUT at {})",
                        base + lane, lb, live, lut_bound
                    );
                }
            }
        }
    }
}

#[test]
fn fastscan_lut_needs_a_finite_positive_bound() {
    let config = SaxConfig::new(16, 256);
    let table = MindistTable::new(&paa_on_breakpoints(16, 5), config);
    for bound in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.0, -0.0, -1.0] {
        assert!(table.fastscan_lut(bound).is_none(), "bound {bound}");
    }
    assert!(table.fastscan_lut(f32::MIN_POSITIVE).is_some());
    assert!(table.fastscan_lut(f32::MAX).is_some());
}
