//! Approximate 1-NN search with error bounds (ng- and δ-ε-approximate).
//!
//! The journal version of the paper (*Fast Data Series Indexing for
//! In-Memory Data*, VLDBJ) presents approximate search not as a new
//! algorithm but as the same traversal skeleton with a relaxed contract,
//! and that is exactly how it is implemented here: a fourth
//! `SearchObjective` over the unified [`crate::engine`] driver.
//!
//! * **ng-approximate** (`delta = 0`, "no guarantees"): the answer is the
//!   best series of the query's *home leaf* — the leaf its iSAX summary
//!   descends to. This is the operation exact search uses to seed its
//!   BSF (Fig. 4a), promoted to a query mode; the engine never runs.
//! * **δ-ε-approximate** (`0 < delta <= 1`): the full traversal runs, but
//!   pruning uses the inflated bound `bsf/(1+ε)²` (all internal values
//!   are *squared* distances) — any pruned candidate has true squared
//!   distance at least `bsf_final/(1+ε)²`, i.e. true distance at least
//!   `dist(bsf_final)/(1+ε)`, so on completion the answer is within
//!   `(1+ε)` of the true nearest neighbor *in distance terms* — and, for
//!   `delta < 1`, queue processing stops once a
//!   δ-derived leaf-visit budget (`ceil(delta · total leaves)`) is spent.
//!   Each queue is drained best-bound-first, so the budget goes to the
//!   most promising leaves (exactly so with one queue; approximately
//!   under the default multi-queue configuration, where workers hop
//!   between queues in randomized order) and the guarantee holds with
//!   probability calibrated by δ (measured and asserted by
//!   `tests/approximate.rs`).
//!   At `delta = 1` there is no budget and the `(1+ε)` bound is
//!   deterministic; at `epsilon = 0` *and* `delta = 1` every comparison
//!   is bit-identical to exact search.
//!
//! This module holds the search step of every approximate query
//! (`MessiIndex::search_approximate_bounded(_dtw)`, or an executor),
//! under either metric, exactly like the exact objectives.

use crate::engine::{ApproxObjective, ShardRun, SharedBound};
use crate::exact::QueryAnswer;
use crate::index::MessiIndex;
use crate::shard::{global_pos, ShardReturn};
use crate::stats::{QueryStats, StopReason, TimeBreakdown};

/// Validates the δ-ε parameter pair.
///
/// # Panics
///
/// Panics if `epsilon` is negative or non-finite, or `delta` is NaN or
/// outside `[0, 1]`.
pub(crate) fn validate_params(epsilon: f32, delta: f32) {
    assert!(
        epsilon >= 0.0 && epsilon.is_finite(),
        "epsilon must be a finite non-negative number"
    );
    assert!((0.0..=1.0).contains(&delta), "delta must be within [0, 1]");
}

/// The queue-phase leaf-visit budget for `delta`: `None` (unlimited) at
/// `delta = 1`, else `ceil(delta · total leaves)`. Each leaf enters the
/// queues at most once, so an unlimited budget can never terminate a
/// query early. Under sharding each shard derives its budget from its
/// *own* leaf count, so the δ fraction of visited leaves is preserved
/// collection-wide.
fn budget_for(index: &MessiIndex, delta: f32) -> Option<u64> {
    if delta >= 1.0 {
        None
    } else {
        Some((delta as f64 * index.num_leaves() as f64).ceil() as u64)
    }
}

/// The search step of δ-ε-approximate 1-NN over one shard (either
/// metric), from `seed`, the best `(distance², local position)` of the
/// shard's home leaf. The ε-inflated pruning bound composes with the
/// cross-shard BSF when `shared` is set (the shared bound holds raw
/// distances; inflation is applied at read time); one shard without it
/// *is* the single-index search.
///
/// In ng mode (`delta = 0`) the seed is the answer and the engine never
/// runs: the shard's whole life was its initialization phase. Across
/// shards every shard then answers from its *own* home leaf and the
/// gather keeps the best — a (free) strengthening of the single-index ng
/// answer.
pub(crate) fn search(
    mut run: ShardRun<'_, '_>,
    seed: (f32, u32),
    epsilon: f32,
    delta: f32,
    shared: Option<&SharedBound>,
) -> ShardReturn {
    let (d0, p0) = seed;
    if delta == 0.0 {
        let total_time = run.from.elapsed();
        let stats = QueryStats {
            lb_distance_calcs: run.stats.lb_distance_calcs.get(),
            // The mode's entire work is the leaf scan: report it. The
            // DTW seed counted its cascade; the Euclidean seed counts
            // nothing (exact search deliberately leaves its seed scan
            // unreported): report one candidate per entry of the leaf,
            // each bounded and — unless its bound ruled it out —
            // measured with the early-abandoning kernel.
            real_distance_calcs: match run.plan.dtw {
                Some(_) => run.stats.real_distance_calcs.get(),
                None => run
                    .index
                    .home_leaf_run(&run.plan.sax, &run.plan.paa, Some(run.ctx.table()))
                    .entries
                    .len() as u64,
            },
            seed_real_calcs: run.stats.seed_real_calcs.get(),
            total_time,
            initial_bsf_dist_sq: d0,
            stop_reason: Some(StopReason::HomeLeafOnly),
            breakdown: run.config.collect_breakdown.then(|| TimeBreakdown {
                init_ns: total_time.as_nanos() as u64,
                ..TimeBreakdown::default()
            }),
            ..QueryStats::default()
        };
        let pos = global_pos(run.offset, p0);
        return (vec![QueryAnswer { pos, dist_sq: d0 }], stats);
    }

    let budget = budget_for(run.index, delta);
    let objective = ApproxObjective::new(d0, p0, epsilon, budget, shared);
    let mut stats = run.run(&objective);
    let (dist_sq, pos) = objective.answer();
    if d0.is_finite() {
        stats.initial_bsf_dist_sq = d0;
    }
    stats.approx_inflation_prunes = objective.inflation_prunes();
    stats.stop_reason = Some(objective.stop_reason());
    let pos = global_pos(run.offset, pos);
    (vec![QueryAnswer { pos, dist_sq }], stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IndexConfig, QueryConfig};
    use messi_series::distance::dtw::DtwParams;
    use messi_series::gen::{self, DatasetKind};
    use std::sync::Arc;

    fn setup(count: usize, seed: u64) -> (Arc<messi_series::Dataset>, MessiIndex) {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, count, seed));
        let config = IndexConfig {
            leaf_capacity: 8, // many leaves, so δ budgets actually bite
            ..IndexConfig::for_tests()
        };
        let (index, _) = MessiIndex::build(Arc::clone(&data), &config);
        (data, index)
    }

    #[test]
    fn epsilon_zero_delta_one_is_exact() {
        let (data, index) = setup(400, 91);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 91);
        let config = QueryConfig::for_tests();
        for q in queries.iter() {
            let (ans, stats) = index.search_approximate_bounded(q, 0.0, 1.0, &config);
            let (_, bf) = data.nearest_neighbor_brute_force(q);
            assert!((ans.dist_sq - bf).abs() <= 1e-3 * bf.max(1.0));
            assert_eq!(stats.stop_reason, Some(StopReason::Completed));
            assert_eq!(stats.approx_inflation_prunes, 0);
        }
    }

    #[test]
    fn delta_one_guarantee_is_deterministic() {
        let (data, index) = setup(500, 92);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 6, 92);
        let config = QueryConfig::for_tests();
        for epsilon in [0.05f32, 0.3, 1.0] {
            let factor = (1.0 + epsilon) * (1.0 + epsilon);
            for q in queries.iter() {
                let (ans, stats) = index.search_approximate_bounded(q, epsilon, 1.0, &config);
                let (_, bf) = data.nearest_neighbor_brute_force(q);
                assert!(
                    ans.dist_sq <= factor * bf * (1.0 + 1e-3),
                    "ε = {epsilon}: {} vs (1+ε)²·{bf}",
                    ans.dist_sq
                );
                assert_eq!(stats.stop_reason, Some(StopReason::Completed));
            }
        }
    }

    #[test]
    fn ng_mode_skips_the_engine_entirely() {
        let (_, index) = setup(300, 93);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 93);
        let config = QueryConfig::for_tests();
        for q in queries.iter() {
            let (ans, stats) = index.search_approximate_bounded(q, 0.0, 0.0, &config);
            assert_eq!(stats.stop_reason, Some(StopReason::HomeLeafOnly));
            assert_eq!(stats.nodes_inserted, 0, "no tree pass ran");
            assert_eq!(stats.nodes_popped, 0);
            // The answer is the home-leaf seed, byte for byte.
            let (sax, paa) = index.summarize_query(q);
            let (d, p) = index.seed_approximate(q, &sax, &paa, config.kernel);
            assert_eq!(ans.dist_sq.to_bits(), d.to_bits());
            assert_eq!(ans.pos, u64::from(p));
        }
    }

    #[test]
    fn small_delta_reports_budget_exhaustion() {
        let (_, index) = setup(600, 94);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 6, 94);
        // Single-worker so the budget is spent in a deterministic order —
        // the exhaustion count must not depend on thread interleaving.
        let config = QueryConfig {
            num_workers: 1,
            num_queues: 1,
            ..QueryConfig::for_tests()
        };
        let mut exhausted = 0;
        for q in queries.iter() {
            let (_, stats) = index.search_approximate_bounded(q, 0.0, 0.02, &config);
            match stats.stop_reason {
                Some(StopReason::BudgetExhausted) => exhausted += 1,
                Some(StopReason::Completed) => {}
                other => panic!("unexpected stop reason {other:?}"),
            }
        }
        assert!(
            exhausted > 0,
            "a 2% leaf budget over a deep index should stop early sometimes"
        );
    }

    #[test]
    fn dtw_approx_upper_bounds_dtw_exact() {
        use messi_series::distance::dtw::dtw_sq;
        let (data, index) = setup(250, 95);
        let params = DtwParams::paper_default(256);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 95);
        let config = QueryConfig::for_tests();
        for q in queries.iter() {
            let (ans, stats) = index.search_approximate_bounded_dtw(q, 0.2, 1.0, params, &config);
            let bf = data
                .iter()
                .map(|s| dtw_sq(q, s, params))
                .fold(f32::INFINITY, f32::min);
            assert!(
                ans.dist_sq <= 1.2 * 1.2 * bf * (1.0 + 1e-3),
                "{} vs 1.44·{bf}",
                ans.dist_sq
            );
            assert!(stats.stop_reason.is_some());
        }
    }

    #[test]
    #[should_panic(expected = "delta must be within")]
    fn rejects_out_of_range_delta() {
        let (_, index) = setup(50, 96);
        let q = index.dataset().series(0).to_vec();
        index.search_approximate_bounded(&q, 0.0, 1.5, &QueryConfig::for_tests());
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn rejects_negative_epsilon() {
        let (_, index) = setup(50, 97);
        let q = index.dataset().series(0).to_vec();
        index.search_approximate_bounded(&q, -0.5, 1.0, &QueryConfig::for_tests());
    }
}
