//! Euclidean answers and pruning counters, pinned.
//!
//! The ED twin of `dtw_answers_and_counters_are_pinned`
//! (`engine_equivalence.rs`): every Euclidean cell — exact, k-NN
//! (k = 5), range, approximate at δ = 0 and δ = 0.5 — over 6 000 random
//! walks × 20 queries, one worker, one queue, under `Kernel::Auto` and
//! `Kernel::Scalar`. The index is a sequential `IndexConfig::default()`
//! build, whose popular keys keep leaves of dozens to hundreds of
//! entries: about half the entries bounded fall in full 32-entry blocks,
//! where the 4-bit fast scan runs ahead of the f32 gather. A second set
//! puts the fast scan at its tightest (its bound equals the f32 bound).
//!
//! For each cell the test folds a fingerprint of every answer's
//! `(pos, dist_sq bits)` and every query's `(lb, real, bsf)` counters,
//! then the counter totals. The rows were taken before the fast-scan
//! tier existed, so an entry bound that prunes an entry the f32 tier
//! would have kept — or a pruning decision that moved at all — changes a
//! row. Run-batched scans (the default) and per-leaf scans
//! (`RunBatchPolicy::PerLeaf`, or any run under `MESSI_NO_RUN_BATCH=1`)
//! bound different entry sets, so each has its own rows.

use messi::index::RunBatchPolicy;
use messi::prelude::*;
use std::sync::Arc;

/// Rows under run-batched scans: `(fingerprint, lb, real, bsf)` per
/// cell.
const RUN_BATCHED: [(u64, u64, u64, u64); 5] = [
    (10_966_492_963_492_611_661, 87_031, 979, 59),
    (6_904_037_974_711_369_018, 115_592, 2_175, 340),
    (7_770_888_074_680_907_434, 155_488, 30_573, 0),
    (4_362_984_387_542_851_318, 0, 931, 0),
    (14_238_256_143_075_500_189, 68_017, 551, 18),
];

/// Rows under per-leaf scans. Range search scans every surviving leaf
/// either way, and δ-budgeted approximate search never coalesces, so
/// their rows equal the run-batched ones.
const PER_LEAF: [(u64, u64, u64, u64); 5] = [
    (3_775_319_181_857_132_058, 79_161, 882, 46),
    (13_516_434_323_572_118_498, 102_130, 1_883, 249),
    (7_770_888_074_680_907_434, 155_488, 30_573, 0),
    (4_362_984_387_542_851_318, 0, 931, 0),
    (14_238_256_143_075_500_189, 68_017, 551, 18),
];

/// FNV-1a over a stream of words.
fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn rows(index: &MessiIndex, queries: &Dataset, config: &QueryConfig) -> [(u64, u64, u64, u64); 5] {
    let mut rows = [(0xcbf2_9ce4_8422_2325u64, 0u64, 0u64, 0u64); 5];
    let mut record = |cell: usize, answers: &[QueryAnswer], stats: QueryStats| {
        let row = &mut rows[cell];
        for a in answers {
            row.0 = fnv1a(fnv1a(row.0, a.pos), u64::from(a.dist_sq.to_bits()));
        }
        let counters = [
            stats.lb_distance_calcs,
            stats.real_distance_calcs,
            stats.bsf_updates,
        ];
        row.0 = counters.iter().fold(row.0, |h, &c| fnv1a(h, c));
        row.1 += counters[0];
        row.2 += counters[1];
        row.3 += counters[2];
    };
    for q in queries.iter() {
        let (nn, stats) = index.search(q, config);
        record(0, &[nn], stats);
        let (knn, stats) = index.search_knn(q, 5, config);
        record(1, &knn, stats);
        let (within, stats) = index.search_range(q, nn.dist_sq * 4.0 + 1.0, config);
        record(2, &within, stats);
        for (cell, delta) in [(3, 0.0), (4, 0.5)] {
            let (a, stats) = index.search_approximate_bounded(q, 0.1, delta, config);
            record(cell, &[a], stats);
        }
    }
    rows
}

#[test]
fn ed_answers_and_counters_are_pinned() {
    let data = Arc::new(messi::series::gen::generate(
        DatasetKind::RandomWalk,
        6_000,
        2_513,
    ));
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 20, 2_513);
    let sequential = IndexConfig {
        num_workers: 1,
        ..IndexConfig::default()
    };
    let (index, _) = MessiIndex::build(Arc::clone(&data), &sequential);
    for run_batch in [RunBatchPolicy::Auto, RunBatchPolicy::PerLeaf] {
        for kernel in [Kernel::Auto, Kernel::Scalar] {
            let config = QueryConfig {
                num_workers: 1,
                num_queues: 1,
                run_batch,
                kernel,
                ..QueryConfig::default()
            };
            let pinned = if config.run_batching() {
                RUN_BATCHED
            } else {
                PER_LEAF
            };
            assert_eq!(
                rows(&index, &queries, &config),
                pinned,
                "{run_batch:?} {kernel:?}"
            );
        }
    }
}

/// `count` series of 16 constant segments, each just above the lower
/// boundary of a 16-region cell (cell 1, or cell 2 for one segment in
/// ten), so a symbol is the lowest 256-region cell of its 16-region
/// cell; and `queries` constant-segment queries below every cell. For
/// such a pair the 4-bit bound equals the f32 entry bound bit for bit,
/// and the real distance exceeds it by well under 1 %: the fast-scan
/// tier meets no slack but its own rounding margin.
fn tight_bounds(count: usize, queries: usize) -> (Dataset, Dataset) {
    let bp = messi::sax::breakpoints::table();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut uniform = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 24) as f32
    };
    let series = |n: usize, value: &mut dyn FnMut() -> f32| {
        let mut values = Vec::with_capacity(n * 256);
        for _ in 0..n {
            for _ in 0..16 {
                let v = value();
                values.extend([v; 16]);
            }
        }
        Dataset::from_flat(values, 256).expect("whole series")
    };
    let mut cell = || {
        let p = if uniform() < 0.9 { 1 } else { 2 };
        bp[16 * p - 1] + 0.003 * (0.05 + 0.95 * uniform())
    };
    let data = series(count, &mut cell);
    let mut below = || -3.5 + uniform();
    (data, series(queries, &mut below))
}

#[test]
fn ed_answers_and_counters_at_tight_bounds_are_pinned() {
    const PINNED: [(u64, u64, u64, u64); 5] = [
        (5_895_844_540_582_504_467, 60_340, 11_720, 0),
        (1_116_358_121_726_288_731, 60_340, 11_720, 0),
        (16_596_349_991_605_150_179, 60_340, 60_000, 0),
        (18_217_741_440_764_869_215, 0, 39_260, 0),
        (2_224_289_034_677_924_082, 55_573, 0, 0),
    ];
    let (data, queries) = tight_bounds(3_000, 20);
    let sequential = IndexConfig {
        num_workers: 1,
        ..IndexConfig::default()
    };
    let (index, _) = MessiIndex::build(Arc::new(data), &sequential);
    for kernel in [Kernel::Auto, Kernel::Scalar] {
        let config = QueryConfig {
            num_workers: 1,
            num_queues: 1,
            run_batch: RunBatchPolicy::PerLeaf,
            kernel,
            ..QueryConfig::default()
        };
        assert_eq!(rows(&index, &queries, &config), PINNED, "{kernel:?}");
    }
}
