//! Concurrency stress tests: shared indexes under concurrent query load,
//! repeated parallel builds, and mixed algorithm traffic.
//!
//! The paper's data structures are lock-free or finely locked; these
//! tests hammer them from many caller threads to surface races that the
//! single-caller tests cannot (the pool serializes *worker* jobs, but
//! callers, BSF, queues, and counters are still exercised concurrently).

use messi::baselines::paris::query::sims_search;
use messi::baselines::paris::{build_paris, ParisBuildVariant};
use messi::prelude::*;
use std::sync::Arc;

fn test_index(count: usize, seed: u64) -> (Arc<Dataset>, MessiIndex) {
    let data = Arc::new(messi::series::gen::generate(
        DatasetKind::RandomWalk,
        count,
        seed,
    ));
    let config = IndexConfig {
        segments: 8,
        num_workers: 4,
        chunk_size: 64,
        leaf_capacity: 32,
        initial_buffer_capacity: 5,
    };
    let (index, _) = MessiIndex::build(Arc::clone(&data), &config);
    (data, index)
}

#[test]
fn concurrent_queries_on_shared_index_stay_exact() {
    let (data, index) = test_index(500, 7);
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 8, 7);
    let expected: Vec<(usize, f32)> = queries
        .iter()
        .map(|q| data.nearest_neighbor_brute_force(q))
        .collect();
    std::thread::scope(|s| {
        for t in 0..6 {
            let index = &index;
            let queries = &queries;
            let expected = &expected;
            s.spawn(move || {
                let config = QueryConfig {
                    num_workers: 1 + t % 4,
                    num_queues: 1 + t % 3,
                    ..QueryConfig::default()
                };
                for round in 0..5 {
                    let qi = (t + round) % queries.len();
                    let (ans, _) = index.search(queries.series(qi), &config);
                    let (_, bf) = expected[qi];
                    assert!(
                        (ans.dist_sq - bf).abs() <= 1e-3 * bf.max(1.0),
                        "thread {t} round {round}: {} vs {bf}",
                        ans.dist_sq
                    );
                }
            });
        }
    });
}

#[test]
fn concurrent_mixed_algorithms_agree() {
    let (data, index) = test_index(400, 11);
    let (paris, _) = build_paris(Arc::clone(&data), index.config(), ParisBuildVariant::Locked);
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 11);
    std::thread::scope(|s| {
        for t in 0..4 {
            let index = &index;
            let paris = &paris;
            let queries = &queries;
            let data = &data;
            s.spawn(move || {
                let config = QueryConfig::default();
                for qi in 0..queries.len() {
                    let q = queries.series(qi);
                    let a = match t % 3 {
                        0 => index.search(q, &config).0,
                        1 => sims_search(paris, q, &config).0,
                        _ => messi::baselines::ucr::ucr_parallel(data, q, &config).0,
                    };
                    let (_, bf) = data.nearest_neighbor_brute_force(q);
                    assert!((a.dist_sq - bf).abs() <= 1e-3 * bf.max(1.0));
                }
            });
        }
    });
}

#[test]
fn concurrent_builds_do_not_interfere() {
    // Multiple indexes built simultaneously from different datasets; each
    // must come out valid.
    std::thread::scope(|s| {
        for seed in 0..4u64 {
            s.spawn(move || {
                let (_, index) = test_index(300, 100 + seed);
                let errors = messi::index::validate::validate(&index);
                assert!(errors.is_empty(), "seed {seed}: {errors:?}");
            });
        }
    });
}

#[test]
fn rebuilds_of_same_data_are_structurally_identical() {
    // Racing the same build repeatedly: leaf contents must be a pure
    // function of (data, config), not of scheduling.
    let data = Arc::new(messi::series::gen::generate(DatasetKind::Seismic, 400, 3));
    let config = IndexConfig {
        segments: 8,
        num_workers: 8,
        chunk_size: 10,
        leaf_capacity: 16,
        initial_buffer_capacity: 2,
    };
    let collect = |index: &MessiIndex| {
        let mut per_key: Vec<(usize, Vec<u32>)> = Vec::new();
        for &key in index.touched_keys() {
            let mut v = Vec::new();
            index
                .root(key)
                .unwrap()
                .for_each_leaf(&mut |l| v.extend(l.entries.iter().map(|e| e.pos)));
            v.sort_unstable();
            per_key.push((key, v));
        }
        (index.num_leaves(), per_key)
    };
    let (reference, _) = MessiIndex::build(Arc::clone(&data), &config);
    let reference = collect(&reference);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let data = Arc::clone(&data);
            let config = config.clone();
            let reference = &reference;
            s.spawn(move || {
                let (index, _) = MessiIndex::build(data, &config);
                assert_eq!(&collect(&index), reference);
            });
        }
    });
}

#[test]
fn query_stats_are_internally_consistent_under_load() {
    let (_, index) = test_index(600, 17);
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 6, 17);
    for q in queries.iter() {
        let (_, stats) = index.search(q, &QueryConfig::default());
        assert!(stats.nodes_popped <= stats.nodes_inserted);
        assert!(stats.nodes_filtered_on_pop <= stats.nodes_popped);
        assert!(stats.real_distance_calcs <= stats.lb_distance_calcs);
        assert!(stats.bsf_updates <= stats.real_distance_calcs + 1);
    }
}
