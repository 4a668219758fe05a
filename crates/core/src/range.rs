//! Exact ε-range search.
//!
//! Returns *every* series within distance ε of the query — the other
//! fundamental similarity-search primitive next to k-NN (the iSAX
//! lineage the paper builds on supports both). In engine terms, range
//! search is the fixed-bound objective: the pruning bound is ε² instead
//! of a shrinking BSF, so no priority order and no barrier are needed —
//! [`crate::engine`] runs in queue-less mode, scanning surviving leaves
//! during the traversal itself. This module holds the search step of
//! every range query (`MessiIndex::search_range(_dtw)`, or an executor),
//! under either metric.

use crate::engine::{RangeObjective, ShardRun};
use crate::shard::ShardReturn;

/// The search step of ε-range over one shard (either metric): the
/// shard's matches, ascending, under global positions. Range search has
/// no seed step and shares no bound across shards — ε is fixed — so a
/// gather merges the per-shard lists; one shard at offset 0 *is* the
/// single-index search.
pub(crate) fn search(mut run: ShardRun<'_, '_>, epsilon_sq: f32) -> ShardReturn {
    let objective = RangeObjective::new(epsilon_sq, run.offset);
    let stats = run.run(&objective);
    (objective.into_sorted(), stats)
}

#[cfg(test)]
mod tests {
    use crate::config::{IndexConfig, QueryConfig};
    use crate::exec::{QueryExecutor, QuerySpec};
    use crate::index::MessiIndex;
    use messi_series::distance::dtw::DtwParams;
    use messi_series::distance::euclidean::ed_sq_scalar;
    use messi_series::gen::{self, DatasetKind};
    use std::sync::Arc;

    fn setup(count: usize, seed: u64) -> (Arc<messi_series::Dataset>, MessiIndex) {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, count, seed));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        (data, index)
    }

    fn brute_force_range(
        data: &messi_series::Dataset,
        query: &[f32],
        epsilon_sq: f32,
    ) -> Vec<(u64, f32)> {
        let mut out: Vec<(u64, f32)> = data
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u64, ed_sq_scalar(query, s)))
            .filter(|(_, d)| *d <= epsilon_sq)
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    #[test]
    fn range_matches_brute_force() {
        let (data, index) = setup(500, 71);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 71);
        for q in queries.iter() {
            // Pick ε around the 1-NN distance so results are non-trivial.
            // Factors avoid sitting exactly on a member distance: the SIMD
            // and scalar reductions may disagree by an ulp at the
            // boundary, which would make equality-at-ε ill-defined.
            let (_, nn) = data.nearest_neighbor_brute_force(q);
            for factor in [0.5f32, 1.01, 2.0, 5.0] {
                let eps = nn * factor;
                let (got, stats) = index.search_range(q, eps, &QueryConfig::for_tests());
                let expect = brute_force_range(&data, q, eps);
                // Every clearly-inside member must be found …
                for (pos, d) in &expect {
                    if *d <= eps * (1.0 - 1e-3) {
                        assert!(
                            got.iter().any(|g| g.pos == *pos),
                            "eps={eps}: missing position {pos} at distance {d}"
                        );
                    }
                }
                // … and nothing clearly outside may appear.
                for g in &got {
                    let d = ed_sq_scalar(q, data.series(g.pos as usize));
                    assert!(
                        d <= eps * (1.0 + 1e-3),
                        "eps={eps}: spurious position {} at distance {d}",
                        g.pos
                    );
                    assert!((g.dist_sq - d).abs() <= 1e-3 * d.max(1.0));
                }
                assert!(stats.real_distance_calcs <= 500);
            }
        }
    }

    #[test]
    fn zero_epsilon_finds_exact_duplicates_only() {
        let (data, index) = setup(200, 72);
        // A member query matches itself (and any exact duplicates).
        let q = data.series(11).to_vec();
        let (got, _) = index.search_range(&q, 0.0, &QueryConfig::for_tests());
        assert!(!got.is_empty());
        assert!(got.iter().all(|a| a.dist_sq == 0.0));
        assert!(got.iter().any(|a| a.pos == 11));
        // A non-member query matches nothing.
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 1, 72);
        let (got, _) = index.search_range(queries.series(0), 0.0, &QueryConfig::for_tests());
        assert!(got.is_empty());
    }

    #[test]
    fn huge_epsilon_returns_everything_sorted() {
        let (_, index) = setup(150, 73);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 1, 73);
        // Both the largest finite radius and an unbounded one must return
        // the full collection (ε² = +inf once produced a NaN bound that
        // silently matched nothing).
        for eps in [f32::MAX, f32::INFINITY] {
            let (got, _) = index.search_range(queries.series(0), eps, &QueryConfig::for_tests());
            assert_eq!(got.len(), 150, "eps = {eps}");
            for w in got.windows(2) {
                assert!(w[0].dist_sq <= w[1].dist_sq);
            }
        }
    }

    #[test]
    fn range_prunes() {
        let (_, index) = setup(800, 74);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 1, 74);
        let (_, stats) = index.search_range(queries.series(0), 1.0, &QueryConfig::for_tests());
        assert!(
            stats.real_distance_calcs < 800 / 4,
            "tiny ε should prune hard ({} real calcs)",
            stats.real_distance_calcs
        );
    }

    #[test]
    fn range_dtw_matches_brute_force() {
        use messi_series::distance::dtw::dtw_sq;
        let (data, index) = setup(250, 76);
        let params = DtwParams::paper_default(256);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 2, 76);
        for q in queries.iter() {
            // ε around the DTW 1-NN distance, avoiding the exact boundary.
            let nn = data
                .iter()
                .map(|s| dtw_sq(q, s, params))
                .fold(f32::INFINITY, f32::min);
            for factor in [1.01f32, 3.0] {
                let eps = nn * factor;
                let (got, stats) =
                    index.search_range_dtw(q, eps, params, &QueryConfig::for_tests());
                let expect: Vec<(u64, f32)> = data
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i as u64, dtw_sq(q, s, params)))
                    .filter(|(_, d)| *d <= eps)
                    .collect();
                assert!(!got.is_empty(), "ε above the 1-NN distance must match");
                for (pos, d) in &expect {
                    if *d <= eps * (1.0 - 1e-3) {
                        assert!(
                            got.iter().any(|g| g.pos == *pos),
                            "eps={eps}: missing DTW match {pos} at {d}"
                        );
                    }
                }
                for g in &got {
                    let d = dtw_sq(q, data.series(g.pos as usize), params);
                    assert!(d <= eps * (1.0 + 1e-3), "spurious DTW hit {}", g.pos);
                    assert!((g.dist_sq - d).abs() <= 1e-3 * d.max(1.0));
                }
                assert!(stats.real_distance_calcs <= data.len() as u64);
                // Sorted ascending.
                for w in got.windows(2) {
                    assert!(w[0].dist_sq <= w[1].dist_sq);
                }
            }
        }
    }

    #[test]
    fn range_with_reused_context_is_allocation_free_after_warmup() {
        let (data, index) = setup(300, 78);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 5, 78);
        let config = QueryConfig::for_tests();
        // One pooled context answers every query.
        let exec = QueryExecutor::with_capacity(&index, 1);
        for (qi, q) in queries.iter().enumerate() {
            let (_, nn) = data.nearest_neighbor_brute_force(q);
            let (got, _, allocs) = exec.run_one_traced(q, &QuerySpec::range(nn * 2.0), &config);
            assert!(!got.is_empty());
            if qi > 0 {
                assert_eq!(allocs, 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_epsilon() {
        let (_, index) = setup(10, 75);
        let q = index.dataset().series(0).to_vec();
        index.search_range(&q, -1.0, &QueryConfig::for_tests());
    }
}
