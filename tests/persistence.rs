//! Property-based equivalence of snapshot persistence.
//!
//! A saved-then-loaded index must be indistinguishable from the
//! in-memory index it came from: structurally identical (same touched
//! keys, leaves, heights, per-leaf entries), structurally *valid*
//! (`validate` clean), and — the property that matters to a serving
//! frontend — **bit-identical in its answers and pruning statistics**
//! for every `QuerySpec` (objective × metric) under both batch
//! schedules. The corrupted-file cases pin down the failure modes: a
//! flipped byte, a truncation, a bumped version, or the wrong dataset
//! must all be loud errors, never a quietly wrong index.

use messi::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// One randomly drawn scenario: a dataset and a full query configuration.
#[derive(Debug, Clone)]
struct Scenario {
    count: usize,
    seed: u64,
    num_workers: usize,
    num_queues: usize,
    k: usize,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        30usize..200,
        0u64..1_000_000,
        1usize..=6,
        1usize..=4,
        1usize..=6,
    )
        .prop_map(|(count, seed, num_workers, num_queues, k)| Scenario {
            count,
            seed,
            num_workers,
            num_queues,
            k,
        })
}

fn build_index(s: &Scenario) -> (Arc<Dataset>, MessiIndex) {
    let data = Arc::new(messi::series::gen::generate(
        DatasetKind::RandomWalk,
        s.count,
        s.seed,
    ));
    let config = IndexConfig {
        segments: 8,
        num_workers: 4,
        chunk_size: 32,
        leaf_capacity: 16,
        initial_buffer_capacity: 5,
    };
    let (index, _) = MessiIndex::build(Arc::clone(&data), &config);
    (data, index)
}

fn tmp(name: &str, s: &Scenario) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "messi-persistence-prop-{}-{name}-{}-{}",
        std::process::id(),
        s.count,
        s.seed
    ));
    p
}

/// Every cell of the Objective × Metric matrix with non-trivial
/// parameters for this scenario.
fn matrix_specs(data: &Dataset, index: &MessiIndex, s: &Scenario) -> Vec<QuerySpec> {
    let k = s.k.min(data.len());
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 1, s.seed);
    let (knn, _) = index.search_knn(queries.series(0), k, &QueryConfig::for_tests());
    let epsilon_sq = knn.last().expect("k >= 1").dist_sq * 1.5 + 1e-3;
    let params = DtwParams::paper_default(data.series_len());
    vec![
        QuerySpec::exact(),
        QuerySpec::knn(k),
        QuerySpec::range(epsilon_sq),
        QuerySpec::exact().with_dtw(params),
        QuerySpec::knn(k).with_dtw(params),
        QuerySpec::range(epsilon_sq).with_dtw(params),
        // δ-ε-approximate: the budget derives from the leaf count, which
        // the snapshot must reproduce exactly — a loaded index answers
        // (and stops early) bit-identically to the in-memory one.
        QuerySpec::approximate(0.2, 0.5),
        QuerySpec::approximate(0.2, 0.5).with_dtw(params),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn save_load_roundtrip_is_bit_identical(s in scenario()) {
        let (data, index) = build_index(&s);
        let path = tmp("roundtrip", &s);
        save_index(&index, &path).expect("save");
        let loaded = load_index(&path, Arc::clone(&data)).expect("load");
        std::fs::remove_file(&path).ok();

        // Structure is preserved exactly.
        prop_assert_eq!(loaded.touched_keys(), index.touched_keys());
        prop_assert_eq!(loaded.num_leaves(), index.num_leaves());
        prop_assert_eq!(loaded.max_height(), index.max_height());
        prop_assert_eq!(loaded.num_entries(), index.num_entries());
        prop_assert_eq!(loaded.scales(), index.scales());
        prop_assert!(messi::index::validate::validate(&loaded).is_empty());
        for &key in loaded.touched_keys() {
            let mut a = Vec::new();
            let mut b = Vec::new();
            index
                .root(key)
                .unwrap()
                .for_each_leaf(&mut |l| a.extend(l.entries.iter().map(|e| e.pos)));
            loaded
                .root(key)
                .unwrap()
                .for_each_leaf(&mut |l| b.extend(l.entries.iter().map(|e| e.pos)));
            prop_assert_eq!(a, b, "leaf contents for key {} changed order", key);
        }

        // Answers and stats are bit-identical for every QuerySpec ×
        // schedule (the statistics depend on the tree shape, so this is
        // the strongest observable equivalence short of memory equality).
        let queries =
            messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 3, s.seed ^ 7);
        let config = QueryConfig {
            num_workers: s.num_workers,
            num_queues: s.num_queues,
            ..QueryConfig::for_tests()
        };
        let exec_mem = index.executor();
        let exec_snap = loaded.executor();
        for spec in matrix_specs(&data, &index, &s) {
            for schedule in [
                Schedule::IntraQuery,
                Schedule::InterQuery { parallelism: s.num_workers },
            ] {
                let (a, agg_a) = exec_mem.run_batch(&queries, &spec, schedule, &config);
                let (b, agg_b) = exec_snap.run_batch(&queries, &spec, schedule, &config);
                // Deterministic runs (each query on one worker: every
                // inter-query batch, and intra with Ns = 1) must be
                // bit-identical in answers *and* pruning counters — the
                // strongest observable equivalence short of memory
                // equality, since the counters depend on the tree shape.
                let single_worker =
                    s.num_workers == 1 || !matches!(schedule, Schedule::IntraQuery);
                if single_worker {
                    prop_assert_eq!(
                        &a, &b,
                        "answers diverged: {:?} {:?} ({:?})",
                        spec, schedule, s
                    );
                    prop_assert_eq!(
                        agg_a.lb_distance_calcs, agg_b.lb_distance_calcs,
                        "lb calcs diverged: {:?} {:?}", spec, schedule
                    );
                    prop_assert_eq!(
                        agg_a.real_distance_calcs, agg_b.real_distance_calcs,
                        "real calcs diverged: {:?} {:?}", spec, schedule
                    );
                    prop_assert_eq!(
                        agg_a.budget_stops, agg_b.budget_stops,
                        "δ budget stops diverged: {:?} {:?}", spec, schedule
                    );
                    prop_assert_eq!(
                        agg_a.approx_inflation_prunes, agg_b.approx_inflation_prunes,
                        "ε inflation prunes diverged: {:?} {:?}", spec, schedule
                    );
                } else {
                    // Multi-worker intra runs race the shared bound, so
                    // exact distance ties may resolve to different
                    // positions; distances themselves must agree — except
                    // for relaxed approximate specs (ε > 0 or δ < 1),
                    // whose *answer* legitimately depends on the race
                    // (the inflated bound and the visit budget make the
                    // outcome order-sensitive), on the same index, loaded
                    // or not. Their bit-identity is proven by the
                    // deterministic runs above.
                    let relaxed = matches!(
                        spec.objective,
                        Objective::Approx { epsilon, delta } if epsilon > 0.0 || delta < 1.0
                    );
                    prop_assert_eq!(a.len(), b.len());
                    for (qa, qb) in a.iter().zip(&b) {
                        prop_assert_eq!(qa.len(), qb.len(), "{:?} {:?}", spec, schedule);
                        if relaxed {
                            continue;
                        }
                        for (x, y) in qa.iter().zip(qb) {
                            prop_assert_eq!(
                                x.dist_sq.to_bits(), y.dist_sq.to_bits(),
                                "distance diverged: {:?} {:?}", spec, schedule
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn corruption_and_mismatch_are_loud(s in scenario()) {
        let (data, index) = build_index(&s);
        let path = tmp("corrupt", &s);
        save_index(&index, &path).expect("save");
        let original = std::fs::read(&path).expect("read back");

        // Flip a byte somewhere in the payload: checksum must catch it.
        let mut flipped = original.clone();
        let mid = 20 + (flipped.len() - 28) / 2;
        flipped[mid] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        prop_assert!(matches!(
            load_index(&path, Arc::clone(&data)),
            Err(PersistError::Corrupt(_))
        ));

        // Truncate the tail: the length header must catch it.
        let mut short = original.clone();
        short.truncate(short.len().saturating_sub(1 + (s.seed as usize % 16)));
        std::fs::write(&path, &short).unwrap();
        prop_assert!(matches!(
            load_index(&path, Arc::clone(&data)),
            Err(PersistError::Corrupt(_))
        ));

        // Bump the version: a dedicated error, checked before content.
        let mut versioned = original.clone();
        versioned[8] = versioned[8].wrapping_add(1);
        std::fs::write(&path, &versioned).unwrap();
        prop_assert!(matches!(
            load_index(&path, Arc::clone(&data)),
            Err(PersistError::Version { .. })
        ));

        // Pair the pristine snapshot with a different dataset: mismatch.
        std::fs::write(&path, &original).unwrap();
        let other = Arc::new(messi::series::gen::generate(
            DatasetKind::RandomWalk,
            s.count,
            s.seed ^ 0xDEAD,
        ));
        prop_assert!(matches!(
            load_index(&path, other),
            Err(PersistError::DatasetMismatch(_))
        ));

        // And the pristine snapshot with the right dataset still loads.
        prop_assert!(load_index(&path, data).is_ok());
        std::fs::remove_file(&path).ok();
    }
}
