//! ParIS query answering: the parallel SIMS strategy.
//!
//! "It first computes an approximate answer … Then, a number of lower
//! bound calculation workers compute the lower bound distances between
//! the query and the iSAX summary of each data series in the dataset,
//! which are stored in the SAX array, and prune the series whose lower
//! bound distance is larger than the approximate real distance computed
//! earlier. The data series that are not pruned are stored in a candidate
//! list … Subsequently, a number of real distance calculation workers
//! operate on different parts of this array to compute the real
//! distances" (§II-B).
//!
//! The contrast with MESSI this baseline exists to demonstrate: the
//! lower-bound phase performs **one mindist per series in the
//! collection** — no tree pruning — and the pruning bound stays frozen at
//! the approximate answer during that phase (Fig. 17a: ParIS's
//! lower-bound count equals the collection size; Fig. 17b: its candidate
//! list is much longer than MESSI's).

use super::ParisIndex;
use messi_core::{QueryAnswer, QueryConfig, QueryStats};
use messi_sax::mindist::{mindist_sq_leaf_scalar, MindistTable};
use messi_series::distance::euclidean::ed_sq_early_abandon_with;
use messi_sync::AtomicBsf;
use parking_lot::Mutex;
use std::time::Instant;

/// Exact 1-NN search with the ParIS (SIMS) strategy.
///
/// `config.num_workers` controls both the lower-bound and the
/// real-distance worker pools (run one after the other, as in ParIS);
/// `config.num_queues` is ignored (ParIS has no priority queues);
/// `config.kernel` selects SIMD vs SISD (Fig. 18's ParIS vs ParIS-SISD).
///
/// # Panics
///
/// Panics if the query length differs from the indexed series length.
pub fn sims_search(
    paris: &ParisIndex,
    query: &[f32],
    config: &QueryConfig,
) -> (QueryAnswer, QueryStats) {
    config.validate();
    let t_start = Instant::now();
    let n = paris.num_series();
    let num_workers = config.num_workers;
    let use_simd = config.kernel.uses_simd();

    // Stage 1: approximate answer from the tree.
    let (query_sax, query_paa) = paris.tree.summarize_query(query);
    let (d0, p0) = paris
        .tree
        .seed_approximate(query, &query_sax, &query_paa, config.kernel);
    let bsf = AtomicBsf::with_initial(d0, p0);
    let table = MindistTable::new(&query_paa, paris.tree.sax_config());

    // Stage 2: lower-bound workers scan the whole SAX array against the
    // *initial* BSF, building the candidate list.
    let candidates: Mutex<Vec<u32>> = Mutex::new(Vec::new());
    let per_worker = n.div_ceil(num_workers).max(1);
    let sax_array = &paris.sax_array;
    let scales = paris.tree.scales();
    messi_sync::WorkerPool::global().run(num_workers, &|w| {
        let start = w * per_worker;
        let end = usize::min(start + per_worker, n);
        if start >= end {
            return;
        }
        let mut local = Vec::new();
        for (off, sax) in sax_array[start..end].iter().enumerate() {
            let lb = if use_simd {
                table.mindist_sq(sax)
            } else {
                mindist_sq_leaf_scalar(&query_paa, scales, sax)
            };
            if lb < d0 {
                local.push((start + off) as u32);
            }
        }
        candidates.lock().extend(local);
    });
    let candidates = candidates.into_inner();

    // Stage 3: real-distance workers over the candidate list.
    let num_candidates = candidates.len();
    let per_worker = num_candidates.div_ceil(num_workers).max(1);
    let dataset = paris.dataset();
    messi_sync::WorkerPool::global().run(num_workers, &|w| {
        let start = w * per_worker;
        let end = usize::min(start + per_worker, num_candidates);
        if start >= end {
            return;
        }
        for &pos in &candidates[start..end] {
            let bound = bsf.load();
            let d =
                ed_sq_early_abandon_with(config.kernel, query, dataset.series(pos as usize), bound);
            if d < bound {
                bsf.update_min(d, pos);
            }
        }
    });

    let (dist_sq, pos) = bsf.load_with_pos();
    let stats = QueryStats {
        // ParIS computes a lower bound for every series in the collection.
        lb_distance_calcs: n as u64,
        real_distance_calcs: num_candidates as u64,
        total_time: t_start.elapsed(),
        ..QueryStats::default()
    };
    (
        QueryAnswer {
            pos: u64::from(pos),
            dist_sq,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paris::build::{build_paris, ParisBuildVariant};
    use messi_core::IndexConfig;
    use messi_series::distance::Kernel;
    use messi_series::gen::{self, DatasetKind};
    use std::sync::Arc;

    fn build(count: usize, seed: u64) -> ParisIndex {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, count, seed));
        build_paris(data, &IndexConfig::for_tests(), ParisBuildVariant::Locked).0
    }

    #[test]
    fn sims_matches_brute_force() {
        let paris = build(500, 41);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 6, 41);
        for q in queries.iter() {
            let (ans, stats) = sims_search(&paris, q, &QueryConfig::for_tests());
            let (_, bf_dist) = paris.dataset().nearest_neighbor_brute_force(q);
            assert!(
                (ans.dist_sq - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0),
                "{} vs {bf_dist}",
                ans.dist_sq
            );
            assert_eq!(stats.lb_distance_calcs, 500, "SIMS scans every summary");
        }
    }

    #[test]
    fn sisd_kernel_gives_same_answers() {
        let paris = build(300, 42);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 42);
        for q in queries.iter() {
            let (simd, _) = sims_search(&paris, q, &QueryConfig::for_tests());
            let (sisd, _) = sims_search(
                &paris,
                q,
                &QueryConfig {
                    kernel: Kernel::Scalar,
                    ..QueryConfig::for_tests()
                },
            );
            assert!((simd.dist_sq - sisd.dist_sq).abs() <= 1e-3 * simd.dist_sq.max(1.0));
        }
    }

    #[test]
    fn works_with_single_worker() {
        let paris = build(200, 43);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 2, 43);
        let config = QueryConfig {
            num_workers: 1,
            ..QueryConfig::for_tests()
        };
        for q in queries.iter() {
            let (ans, _) = sims_search(&paris, q, &config);
            let (_, bf) = paris.dataset().nearest_neighbor_brute_force(q);
            assert!((ans.dist_sq - bf).abs() <= 1e-3 * bf.max(1.0));
        }
    }

    #[test]
    fn member_query_distance_zero() {
        let paris = build(150, 44);
        let q = paris.dataset().series(42).to_vec();
        let (ans, _) = sims_search(&paris, &q, &QueryConfig::for_tests());
        assert_eq!(ans.dist_sq, 0.0);
    }
}
