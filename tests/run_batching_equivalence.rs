//! Property-based proof that leaf-run batching is an execution detail,
//! not a semantics change: queue-coalesced run scans must answer
//! **bit-identically** (positions and `dist_sq` bits) to per-leaf scans
//! for every cell of the Objective × Metric matrix, under both batch
//! schedules, both forced kernels, and shard counts {1, 3} — on trees
//! whose leaves are far smaller than the run target, so runs genuinely
//! span many leaves and the property is not vacuous.
//!
//! The δ-budget corner gets its own test: a finite leaf-visit budget
//! vetoes coalescing (`SearchObjective::coalescing_allowed`), so the
//! budget accounting — and on the deterministic single-shard path,
//! every pruning counter — must be *identical* whether run batching is
//! requested or not. (The multi-shard scatter races on the shared
//! cross-shard bound, which makes budgeted counters timing-dependent
//! independently of batching; those shard counts run as smoke only.)
//!
//! Comparisons run single-worker/single-queue so the evaluation order
//! is deterministic and the check is exact, not statistical. When CI
//! sets `MESSI_NO_RUN_BATCH=1`, `RunBatchPolicy::Auto` collapses to the
//! per-leaf path and the suite still proves that escape hatch harmless.

use messi::index::RunBatchPolicy;
use messi::prelude::*;
use messi::series::gen::{self, DatasetKind};
use proptest::prelude::*;
use std::sync::Arc;

const SHARD_COUNTS: [usize; 2] = [1, 3];

/// Tiny leaves (capacity 8 ≪ the 64-entry run target) force multi-leaf
/// runs, so coalescing actually happens under `RunBatchPolicy::Auto`.
fn small_leaf_config() -> IndexConfig {
    IndexConfig {
        segments: 8,
        num_workers: 4,
        chunk_size: 64,
        leaf_capacity: 8,
        initial_buffer_capacity: 5,
        variant: messi::index::BuildVariant::Buffered,
    }
}

fn query_config(run_batch: RunBatchPolicy, kernel: Kernel) -> QueryConfig {
    QueryConfig {
        num_workers: 1,
        num_queues: 1,
        kernel,
        run_batch,
        ..QueryConfig::default()
    }
}

/// The full Objective × Metric matrix (approximate pinned at its exact
/// δ = 1 corner, where coalescing stays enabled; finite budgets are
/// covered separately below).
fn matrix(series_len: usize, range_eps_sq: f32) -> Vec<(&'static str, QuerySpec)> {
    let params = DtwParams::paper_default(series_len);
    [
        ("exact", QuerySpec::exact()),
        ("knn", QuerySpec::knn(5)),
        ("range", QuerySpec::range(range_eps_sq)),
        ("approx(0,1)", QuerySpec::approximate(0.0, 1.0)),
    ]
    .iter()
    .flat_map(|(tag, spec)| [(*tag, *spec), (*tag, spec.with_dtw(params))])
    .collect()
}

fn assert_bit_identical(tag: &str, batched: &[QueryAnswer], per_leaf: &[QueryAnswer]) {
    assert_eq!(batched.len(), per_leaf.len(), "{tag}: result-set size");
    for (i, (a, b)) in batched.iter().zip(per_leaf).enumerate() {
        assert_eq!(a.pos, b.pos, "{tag}[{i}]: position diverged");
        assert_eq!(
            a.dist_sq.to_bits(),
            b.dist_sq.to_bits(),
            "{tag}[{i}]: dist_sq bits diverged ({} vs {})",
            a.dist_sq,
            b.dist_sq
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn run_batched_scans_are_bit_identical_to_per_leaf_scans(
        shape in (300usize..550, 0u64..1_000_000),
    ) {
        let (count, seed) = shape;
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, count, seed));
        let config = small_leaf_config();
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 2, seed);

        for shards in SHARD_COUNTS {
            let (index, _) = ShardedIndex::build(Arc::clone(&data), shards, &config);
            // Vacuousness guard: the trees must actually contain
            // multi-leaf runs for batching to coalesce.
            prop_assert!(
                index.shards().iter().any(|s| s.run_shapes().iter().any(|r| r.0 > 1)),
                "test tree has no multi-leaf runs — the property would be vacuous"
            );
            let exec = ShardedExecutor::new(&index);

            // Radius from the exact answer so range sets are non-trivial.
            let (nn, _) = exec.run_one(
                queries.series(0),
                &QuerySpec::exact(),
                &query_config(RunBatchPolicy::Auto, Kernel::Auto),
            );
            let eps_sq = nn[0].dist_sq * 4.0 + 1.0;

            for (tag, spec) in &matrix(data.series_len(), eps_sq) {
                for kernel in [Kernel::Scalar, Kernel::Simd] {
                    let batched = query_config(RunBatchPolicy::Auto, kernel);
                    let per_leaf = query_config(RunBatchPolicy::PerLeaf, kernel);
                    for q in queries.iter() {
                        let (a, _) = exec.run_one(q, spec, &batched);
                        let (b, _) = exec.run_one(q, spec, &per_leaf);
                        assert_bit_identical(
                            &format!("N={shards} {tag} {kernel:?} run_one"),
                            &a,
                            &b,
                        );
                    }
                    for schedule in [
                        Schedule::IntraQuery,
                        Schedule::InterQuery { parallelism: 2 },
                    ] {
                        let (a, _) = exec.run_batch(&queries, spec, schedule, &batched);
                        let (b, _) = exec.run_batch(&queries, spec, schedule, &per_leaf);
                        for (qi, (ans_a, ans_b)) in a.iter().zip(&b).enumerate() {
                            assert_bit_identical(
                                &format!("N={shards} {tag} {kernel:?} {schedule:?} q{qi}"),
                                ans_a,
                                ans_b,
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn finite_delta_budgets_account_identically_under_run_batching(
        shape in (300usize..500, 0u64..1_000_000),
        delta_pick in 0usize..3,
    ) {
        // A finite δ budget charges admission per leaf; coalescing must
        // not change what gets charged. The engine guarantees this by
        // vetoing coalescing for budgeted objectives — so with one
        // worker, *every* counter (not just the answers) is identical
        // whether run batching was requested or not.
        let (count, seed) = shape;
        let delta = [0.1f32, 0.5, 0.9][delta_pick];
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, count, seed));
        let config = small_leaf_config();
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 2, seed);

        for shards in SHARD_COUNTS {
            let (index, _) = ShardedIndex::build(Arc::clone(&data), shards, &config);
            let exec = ShardedExecutor::new(&index);
            let spec = QuerySpec::approximate(0.1, delta);
            let dtw_spec = spec.with_dtw(DtwParams::paper_default(data.series_len()));
            for spec in [spec, dtw_spec] {
                for q in queries.iter() {
                    let batched = query_config(RunBatchPolicy::Auto, Kernel::Auto);
                    let per_leaf = query_config(RunBatchPolicy::PerLeaf, Kernel::Auto);
                    let (a, sa) = exec.run_one(q, &spec, &batched);
                    let (b, sb) = exec.run_one(q, &spec, &per_leaf);
                    prop_assert_eq!(a.len(), b.len(),
                        "N={} δ={}: result-set size diverged", shards, delta);
                    if shards > 1 {
                        // The multi-shard scatter races on the shared
                        // cross-shard bound, so a budgeted query's leaf
                        // charges — and hence its counters and answer —
                        // are timing-dependent run to run, with or
                        // without batching. Only the solo path below is
                        // deterministic enough for exact accounting.
                        continue;
                    }
                    assert_bit_identical(&format!("N={shards} δ={delta} budget"), &a, &b);
                    prop_assert_eq!(sa.lb_distance_calcs, sb.lb_distance_calcs,
                        "δ={}: lb calcs diverged", delta);
                    prop_assert_eq!(sa.real_distance_calcs, sb.real_distance_calcs,
                        "δ={}: real calcs diverged", delta);
                    prop_assert_eq!(sa.nodes_inserted, sb.nodes_inserted,
                        "δ={}: insert accounting diverged", delta);
                    prop_assert_eq!(sa.nodes_popped, sb.nodes_popped,
                        "δ={}: pop accounting diverged", delta);
                    prop_assert_eq!(sa.stop_reason, sb.stop_reason,
                        "δ={}: stop reason diverged", delta);
                }
            }
        }
    }
}

#[test]
fn per_leaf_counters_survive_coalescing() {
    // `nodes_inserted` counts *member leaves*, not queued runs — the
    // counter the paper's Fig. 17 analysis reads must not shrink just
    // because several leaves ride one queue entry.
    let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 400, 7));
    let (index, _) = MessiIndex::build(Arc::clone(&data), &small_leaf_config());
    let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 7);
    for q in queries.iter() {
        let (_, sa) = index.search(q, &query_config(RunBatchPolicy::Auto, Kernel::Auto));
        let (_, sb) = index.search(q, &query_config(RunBatchPolicy::PerLeaf, Kernel::Auto));
        assert_eq!(
            sa.nodes_inserted, sb.nodes_inserted,
            "inserted-leaf accounting must not change when leaves coalesce"
        );
    }
}

#[test]
fn lower_bounds_are_bit_identical_across_leaf_targets_and_chunkings() {
    // Adaptive leaf sizing reshapes the tree, never what the lower-bound
    // tier computes: for one query's table, the wrapping sum of every
    // entry's `mindist_sq_soa` bit pattern (order-independent, so equal
    // whenever each bound is bit-identical) must agree across leaf
    // capacities, per-leaf vs whole-run chunking, and both kernels.
    use messi::sax::mindist::MindistTable;

    fn bound_bits_sum(
        index: &MessiIndex,
        table: &MindistTable,
        use_simd: bool,
        whole_runs: bool,
    ) -> u64 {
        let mut sum = 0u64;
        let mut out = [0.0f32; 8];
        let mut scan = |cols: &[u8], stride: usize, base: usize, len: usize| {
            for lo in (0..len).step_by(8) {
                let chunk = (len - lo).min(8);
                table.mindist_sq_soa(cols, stride, base + lo, chunk, use_simd, &mut out);
                for v in &out[..chunk] {
                    sum = sum.wrapping_add(u64::from(v.to_bits()));
                }
            }
        };
        for arena in index.arenas() {
            if whole_runs {
                arena.for_each_run(&mut |entries, cols, stride| {
                    scan(cols, stride, 0, entries.len())
                });
            } else {
                arena.for_each_leaf(&mut |leaf| {
                    scan(leaf.cols, leaf.stride, leaf.base, leaf.entries.len())
                });
            }
        }
        sum
    }

    // Enough series that the auto capacity (n / 512 = 78) is a fourth,
    // distinct tree shape; short series keep the debug build cheap.
    let n = 40_000;
    let generator = DatasetKind::RandomWalk.generator_with_len(12, 64);
    let data = Arc::new(gen::generate_dataset(generator.as_ref(), n));
    let query = gen::queries::noisy_queries_from_dataset(&data, 1, 0.1, 12);
    let capacities = [messi::index::auto_leaf_capacity(n), 8, 32, 64];

    let mut leaf_counts = Vec::new();
    let mut sums = Vec::new();
    for leaf_capacity in capacities {
        let config = IndexConfig {
            leaf_capacity,
            ..IndexConfig::default()
        };
        let (index, _) = MessiIndex::build(Arc::clone(&data), &config);
        leaf_counts.push(index.num_leaves());
        let sax = index.sax_config();
        let table = MindistTable::new(&messi::series::paa::paa(query.series(0), sax.segments), sax);
        for use_simd in [false, Kernel::Simd.uses_simd()] {
            for whole_runs in [false, true] {
                sums.push((
                    leaf_capacity,
                    use_simd,
                    whole_runs,
                    bound_bits_sum(&index, &table, use_simd, whole_runs),
                ));
            }
        }
    }
    leaf_counts.sort_unstable();
    leaf_counts.dedup();
    assert_eq!(leaf_counts.len(), capacities.len(), "tree shapes coincide");
    let (_, _, _, want) = sums[0];
    assert_ne!(want, 0, "no lower bound was computed");
    for (leaf_capacity, use_simd, whole_runs, got) in sums {
        assert_eq!(
            got, want,
            "leaf_capacity={leaf_capacity} use_simd={use_simd} whole_runs={whole_runs}: \
             a lower bound's bits changed"
        );
    }
}
