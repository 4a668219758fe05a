//! Exact DTW 1-NN search via LB_Keogh envelopes (Fig. 19).
//!
//! "We note that no changes are required in the index structure; we just
//! have to build the envelope of the LB_Keogh method around the query
//! series, and then search the index using this envelope" (§IV). In
//! engine terms: the search skeleton is [`crate::engine`]'s, unchanged;
//! only the metric differs, forming the classic three-level cascade:
//!
//! ```text
//! mindist_env(envelope PAA, iSAX) ≤ LB_Keogh(query, c) ≤ DTW(query, c)
//! ```
//!
//! Node pruning and queue priorities use the envelope mindist; leaf
//! entries are filtered by envelope mindist, then LB_Keogh on the raw
//! candidate, and only survivors pay the full banded-DTW cost (with early
//! abandoning against the BSF). The metric composes with every
//! objective — `MessiIndex::search_dtw`, `search_knn_dtw`,
//! `search_range_dtw` and `search_approximate_bounded_dtw`, or any
//! [`QuerySpec::with_dtw`](crate::exec::QuerySpec::with_dtw) through an
//! executor. This module holds the metric's query summary and the
//! raw-series cascade the engine runs per candidate.

use crate::stats::LocalStats;
use messi_series::distance::dtw::{cascade_sq, DtwParams};
use messi_series::distance::lb_keogh::Envelope;
use messi_series::distance::Kernel;
use messi_series::paa::paa;

/// The "query summary" of DTW search, the envelope half of a
/// [`QueryPlan`](crate::engine::QueryPlan): the LB_Keogh envelope
/// around the query and the PAAs of its two series, which feed the
/// envelope mindist table and the node-level bound.
pub(crate) struct DtwPlan {
    pub(crate) env: Envelope,
    pub(crate) params: DtwParams,
    pub(crate) paa_lower: Vec<f32>,
    pub(crate) paa_upper: Vec<f32>,
}

impl DtwPlan {
    pub(crate) fn new(query: &[f32], params: DtwParams, segments: usize) -> Self {
        let env = Envelope::new(query, params);
        Self {
            paa_lower: paa(&env.lower, segments),
            paa_upper: paa(&env.upper, segments),
            env,
            params,
        }
    }
}

/// The raw-series levels of the DTW cascade for one candidate at
/// `bound` — [`cascade_sq`]: LB_Keogh, then banded DTW abandoning on
/// the LB_Keogh suffix — counted in `local`; `None` when LB_Keogh
/// pruned it. The engine's leaf scans and home-leaf seeding both run
/// entries through this (the ng-approximate answer under DTW is the
/// home leaf's minimum).
#[inline]
pub(crate) fn cascade(
    kernel: Kernel,
    env: &Envelope,
    params: DtwParams,
    query: &[f32],
    candidate: &[f32],
    bound: f32,
    local: &mut LocalStats,
) -> Option<f32> {
    local.lb += 1;
    let d = cascade_sq(kernel, env, params, query, candidate, bound);
    local.real += u64::from(d.is_some());
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IndexConfig, QueryConfig};
    use crate::exec::{QueryExecutor, QuerySpec};
    use crate::index::MessiIndex;
    use messi_series::distance::dtw::dtw_sq;
    use messi_series::gen::{self, DatasetKind};
    use std::sync::Arc;

    fn brute_force_dtw(
        data: &messi_series::Dataset,
        query: &[f32],
        params: DtwParams,
    ) -> (usize, f32) {
        let mut best = (0usize, f32::INFINITY);
        for (i, s) in data.iter().enumerate() {
            let d = dtw_sq(query, s, params);
            if d < best.1 {
                best = (i, d);
            }
        }
        best
    }

    #[test]
    fn dtw_search_matches_brute_force() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 31));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let params = DtwParams::paper_default(256);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 31);
        for q in queries.iter() {
            let (ans, stats) = index.search_dtw(q, params, &QueryConfig::for_tests());
            let (bf_pos, bf_dist) = brute_force_dtw(&data, q, params);
            assert!(
                (ans.dist_sq - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0),
                "{} vs {bf_dist}",
                ans.dist_sq
            );
            if ans.pos as usize != bf_pos {
                let d = dtw_sq(q, data.series(ans.pos as usize), params);
                assert!((d - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0));
            }
            assert!(
                stats.real_distance_calcs < data.len() as u64,
                "DTW search should prune"
            );
        }
    }

    #[test]
    fn dtw_search_on_smooth_data() {
        // SALD-like data warps well; exactness must hold regardless.
        let data = Arc::new(gen::generate(DatasetKind::Sald, 200, 8));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let params = DtwParams::paper_default(128);
        let queries = gen::queries::generate_queries(DatasetKind::Sald, 3, 8);
        for q in queries.iter() {
            let (ans, _) = index.search_dtw(q, params, &QueryConfig::for_tests());
            let (_, bf_dist) = brute_force_dtw(&data, q, params);
            assert!((ans.dist_sq - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0));
        }
    }

    #[test]
    fn member_query_has_zero_dtw() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 100, 2));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let q = data.series(5).to_vec();
        let params = DtwParams::paper_default(256);
        let (ans, _) = index.search_dtw(&q, params, &QueryConfig::for_tests());
        assert_eq!(ans.dist_sq, 0.0);
    }

    #[test]
    fn zero_window_dtw_equals_euclidean_search() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 150, 3));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 2, 3);
        for q in queries.iter() {
            let (dtw_ans, _) =
                index.search_dtw(q, DtwParams { window: 0 }, &QueryConfig::for_tests());
            let (ed_ans, _) = index.search(q, &QueryConfig::for_tests());
            assert!(
                (dtw_ans.dist_sq - ed_ans.dist_sq).abs() <= 1e-3 * ed_ans.dist_sq.max(1.0),
                "{} vs {}",
                dtw_ans.dist_sq,
                ed_ans.dist_sq
            );
        }
    }

    #[test]
    fn dtw_with_reused_context_stays_exact() {
        // A context can serve ED and DTW queries alternately: the mindist
        // table is refilled from a point PAA or an envelope as needed.
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 200, 41));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let params = DtwParams::paper_default(256);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 41);
        let config = QueryConfig::for_tests();
        // One pooled context answers every query.
        let exec = QueryExecutor::with_capacity(&index, 1);
        let dtw = QuerySpec::exact().with_dtw(params);
        for q in queries.iter() {
            let (dtw_ans, _) = exec.run_one(q, &dtw, &config);
            let (_, bf) = brute_force_dtw(&data, q, params);
            assert!((dtw_ans[0].dist_sq - bf).abs() <= 1e-3 * bf.max(1.0));
            let (ed_ans, _) = exec.run_one(q, &QuerySpec::exact(), &config);
            let (_, ed_bf) = data.nearest_neighbor_brute_force(q);
            assert!((ed_ans[0].dist_sq - ed_bf).abs() <= 1e-3 * ed_bf.max(1.0));
        }
    }
}
