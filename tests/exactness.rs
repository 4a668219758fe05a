//! Cross-crate exactness: every algorithm in the repository returns the
//! brute-force 1-NN answer, on every dataset family.
//!
//! This is the master correctness property of the paper: all compared
//! algorithms are *exact*; they differ only in speed. Any divergence here
//! would invalidate every benchmark.

use messi::baselines::paris::query::sims_search;
use messi::baselines::paris::ts::ts_search;
use messi::baselines::paris::{build_paris, ParisBuildVariant};
use messi::baselines::ucr;
use messi::prelude::*;
use std::sync::Arc;

const COUNT: usize = 700;

fn dataset(kind: DatasetKind, seed: u64) -> Arc<Dataset> {
    Arc::new(messi::series::gen::generate(kind, COUNT, seed))
}

fn index_config() -> IndexConfig {
    IndexConfig {
        segments: 16,
        num_workers: 6,
        chunk_size: 100,
        leaf_capacity: 64,
        initial_buffer_capacity: 5,
    }
}

fn check(dist_sq: f32, bf_dist: f32, what: &str) {
    assert!(
        (dist_sq - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0),
        "{what}: {dist_sq} vs brute force {bf_dist}"
    );
}

#[test]
fn all_algorithms_match_brute_force_on_all_dataset_families() {
    for kind in [
        DatasetKind::RandomWalk,
        DatasetKind::Seismic,
        DatasetKind::Sald,
    ] {
        let data = dataset(kind, 101);
        let (messi, _) = MessiIndex::build(Arc::clone(&data), &index_config());
        let (paris, _) = build_paris(
            Arc::clone(&data),
            &index_config(),
            ParisBuildVariant::Locked,
        );
        let queries = messi::series::gen::queries::generate_queries(kind, 5, 101);
        let qc = QueryConfig {
            num_workers: 6,
            num_queues: 4,
            ..QueryConfig::default()
        };
        for (qi, q) in queries.iter().enumerate() {
            let (_, bf_dist) = data.nearest_neighbor_brute_force(q);
            let what = format!("{kind:?} query {qi}");

            let (a, _) = messi.search(q, &qc);
            check(a.dist_sq, bf_dist, &format!("MESSI-mq {what}"));

            let (a, _) = messi.search(
                q,
                &QueryConfig {
                    num_queues: 1,
                    ..qc.clone()
                },
            );
            check(a.dist_sq, bf_dist, &format!("MESSI-sq {what}"));

            let (a, _) = sims_search(&paris, q, &qc);
            check(a.dist_sq, bf_dist, &format!("ParIS {what}"));

            let (a, _) = ts_search(&paris, q, &qc);
            check(a.dist_sq, bf_dist, &format!("ParIS-TS {what}"));

            let (a, _) = ucr::ucr_parallel(&data, q, &qc);
            check(a.dist_sq, bf_dist, &format!("UCR-P {what}"));

            let (a, _) = ucr::ucr_serial(&data, q, Kernel::Auto);
            check(a.dist_sq, bf_dist, &format!("UCR serial {what}"));
        }
    }
}

#[test]
fn sisd_and_simd_agree_everywhere() {
    let data = dataset(DatasetKind::RandomWalk, 33);
    let (messi, _) = MessiIndex::build(Arc::clone(&data), &index_config());
    let (paris, _) = build_paris(
        Arc::clone(&data),
        &index_config(),
        ParisBuildVariant::Locked,
    );
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 33);
    for q in queries.iter() {
        let simd = QueryConfig {
            kernel: Kernel::Simd,
            num_workers: 4,
            ..QueryConfig::default()
        };
        let sisd = QueryConfig {
            kernel: Kernel::Scalar,
            num_workers: 4,
            ..QueryConfig::default()
        };
        let (a, _) = messi.search(q, &simd);
        let (b, _) = messi.search(q, &sisd);
        check(a.dist_sq, b.dist_sq, "MESSI simd-vs-sisd");
        let (a, _) = sims_search(&paris, q, &simd);
        let (b, _) = sims_search(&paris, q, &sisd);
        check(a.dist_sq, b.dist_sq, "ParIS simd-vs-sisd");
    }
}

#[test]
fn dtw_algorithms_agree() {
    let data = dataset(DatasetKind::Sald, 44);
    let (messi, _) = MessiIndex::build(Arc::clone(&data), &index_config());
    let params = DtwParams::paper_default(data.series_len());
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::Sald, 4, 44);
    let qc = QueryConfig {
        num_workers: 6,
        ..QueryConfig::default()
    };
    for q in queries.iter() {
        let (a, _) = messi.search_dtw(q, params, &qc);
        let (b, _) = ucr::ucr_serial_dtw(&data, q, params);
        let (c, _) = ucr::ucr_parallel_dtw(&data, q, params, &qc);
        check(a.dist_sq, b.dist_sq, "MESSI-DTW vs UCR-DTW");
        check(c.dist_sq, b.dist_sq, "UCR-P-DTW vs UCR-DTW");
    }
}

#[test]
fn paris_no_synch_build_answers_exactly() {
    let data = dataset(DatasetKind::RandomWalk, 55);
    let (paris, _) = build_paris(
        Arc::clone(&data),
        &index_config(),
        ParisBuildVariant::NoSynch,
    );
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 55);
    for q in queries.iter() {
        let (_, bf) = data.nearest_neighbor_brute_force(q);
        let (a, _) = sims_search(&paris, q, &QueryConfig::default());
        check(a.dist_sq, bf, "ParIS-no-synch");
    }
}

#[test]
fn repeated_queries_are_deterministic_in_value() {
    // Parallel execution may vary schedules, but the answer value must be
    // bit-stable across runs (distance ties aside, the minimum is unique
    // with probability 1 on continuous data).
    let data = dataset(DatasetKind::Seismic, 66);
    let (messi, _) = MessiIndex::build(Arc::clone(&data), &index_config());
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::Seismic, 2, 66);
    for q in queries.iter() {
        let reference = messi.search(q, &QueryConfig::default()).0;
        for _ in 0..10 {
            let again = messi.search(q, &QueryConfig::default()).0;
            assert_eq!(again.pos, reference.pos);
            assert_eq!(again.dist_sq.to_bits(), reference.dist_sq.to_bits());
        }
    }
}
