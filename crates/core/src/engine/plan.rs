//! The three steps every query cell spells out — **plan**, **seed**,
//! **search** — written once for all of them.
//!
//! * *Plan* ([`QueryPlan`]): what a query derives from its own values —
//!   PAA and iSAX word, under DTW also the LB_Keogh envelope and its
//!   PAAs — plus the one mindist-table fill they feed
//!   ([`QueryContext::fill_table`]). None of it depends on which index,
//!   or which shard of one, is searched.
//! * *Seed* ([`QueryPlan::seed`]): scan a shard's home leaf so its bound
//!   starts tight (Alg. 5 lines 3–6), through the engine's own leaf-scan
//!   cascade.
//! * *Search* ([`ShardRun::run`]): one engine run — tree pass + queue
//!   phase — over one shard under the cell's objective.
//!
//! A single index is one shard; [`crate::shard`] decides how many shards
//! a walk covers and on which threads.

use super::context::{QueryContext, TableSpec};
use super::driver::{self, Engine};
use super::metric::{DtwMetric, EuclideanMetric, Metric};
use super::objective::{NearestObjective, SearchObjective};
use crate::config::{BsfPolicy, QueryConfig};
use crate::dtw::DtwPlan;
use crate::exec::MetricSpec;
use crate::index::MessiIndex;
use crate::stats::{LocalStats, QueryStats, SharedQueryStats};
use messi_sax::word::SaxWord;
use messi_sax::MindistTable;
use messi_series::distance::Kernel;
use std::time::Instant;

/// Everything one query derives from its own values, computed once
/// however many shards it then visits.
pub(crate) struct QueryPlan<'q> {
    pub(crate) query: &'q [f32],
    pub(crate) sax: SaxWord,
    pub(crate) paa: Vec<f32>,
    /// The envelope half of the plan, under DTW.
    pub(crate) dtw: Option<DtwPlan>,
    pub(crate) kernel: Kernel,
}

impl<'q> QueryPlan<'q> {
    /// Summarizes `query` under `index`'s iSAX configuration (shared by
    /// every shard of a sharded index).
    ///
    /// # Panics
    ///
    /// Panics if the query length differs from the indexed series length.
    pub(crate) fn new(
        index: &MessiIndex,
        query: &'q [f32],
        metric: MetricSpec,
        kernel: Kernel,
    ) -> Self {
        let (sax, paa) = index.summarize_query(query);
        let dtw = match metric {
            MetricSpec::Euclidean => None,
            MetricSpec::Dtw(params) => {
                Some(DtwPlan::new(query, params, index.sax_config().segments))
            }
        };
        Self {
            query,
            sax,
            paa,
            dtw,
            kernel,
        }
    }

    /// What the mindist table is filled from.
    pub(crate) fn table_spec(&self) -> TableSpec<'_> {
        match &self.dtw {
            None => TableSpec::Point(&self.paa),
            Some(dtw) => TableSpec::Envelope(&dtw.paa_lower, &dtw.paa_upper),
        }
    }

    /// The seed step (Alg. 5 lines 3–6): offers `index`'s home leaf to
    /// `objective` so its bound starts tight, and returns what the scan
    /// counts towards the shard's statistics.
    ///
    /// Euclidean: the engine's own [`driver::scan_run`] — batched table
    /// bounds first, a series fetched only when its bound is below the
    /// objective's — uncounted (exact search reports its traversal's
    /// work, not its seed's). The filter cannot change the seed: offers
    /// must be strictly below the bound an entry is skipped at. DTW:
    /// every entry through LB_Keogh, then banded DTW, counted like the
    /// engine's entry cascade — a DTW query's counts include its seed's,
    /// so the envelope-mindist filter stays out of it.
    pub(crate) fn seed<O: SearchObjective>(
        &self,
        index: &MessiIndex,
        table: &MindistTable,
        objective: &O,
    ) -> LocalStats {
        // `table` is the query's point table only under ED.
        let point_table = self.dtw.is_none().then_some(table);
        let run = index.home_leaf_run(&self.sax, &self.paa, point_table);
        let mut counted = LocalStats::default();
        let mut results = O::Local::default();
        match &self.dtw {
            None => {
                let metric = EuclideanMetric::new(index, self.query, table, self.kernel);
                let uncounted = &mut LocalStats::default();
                driver::scan_run(&metric, objective, run, uncounted, &mut results);
            }
            Some(dtw) => {
                let metric = DtwMetric::new(index, self.query, dtw, table, self.kernel);
                for e in run.entries {
                    let bound = objective.bound();
                    match metric.entry_distance(e, bound, &mut counted) {
                        Some(d) if d < bound => {
                            objective.offer(&mut results, d, e.pos);
                        }
                        _ => {}
                    }
                }
            }
        }
        objective.absorb(results);
        counted
    }

    /// The seed step of the 1-NN objectives (exact and approximate): the
    /// best `(squared distance, local position)` of `index`'s home leaf
    /// for this query — the initial BSF of Alg. 5, and the whole answer
    /// of ng-approximate search; the first entry wins a tie.
    pub(crate) fn seed_nearest(
        &self,
        index: &MessiIndex,
        table: &MindistTable,
        stats: &SharedQueryStats,
    ) -> (f32, u32) {
        let best = NearestObjective::new(BsfPolicy::Atomic, f32::INFINITY, u32::MAX, None);
        self.seed(index, table, &best).flush(stats);
        best.answer()
    }
}

/// One shard's search step, everything but the objective.
pub(crate) struct ShardRun<'r, 'a> {
    pub(crate) plan: &'r QueryPlan<'r>,
    pub(crate) index: &'a MessiIndex,
    /// Global position of the shard's first series
    /// (see [`crate::shard::global_pos`]); 0 for a single index.
    pub(crate) offset: u64,
    pub(crate) config: &'r QueryConfig,
    /// Scratch whose table [`QueryContext::fill_table`] filled from
    /// `plan`.
    pub(crate) ctx: &'r mut QueryContext<'a>,
    /// The shard's counters so far (a DTW seed scan counts into them).
    pub(crate) stats: SharedQueryStats,
    /// Start of the wall-clock interval this shard's stats cover; what
    /// precedes the engine run in it is reported as the init phase.
    pub(crate) from: Instant,
}

impl ShardRun<'_, '_> {
    /// Runs the search workers (Alg. 6) over the shard under `objective`
    /// and snapshots the shard's statistics.
    pub(crate) fn run<O: SearchObjective>(&mut self, objective: &O) -> QueryStats {
        let (plan, index, config) = (self.plan, self.index, self.config);
        let scratch = self.ctx.scratch(O::USES_QUEUES.then_some(config));
        let table = scratch.table;
        let init_ns = self.from.elapsed().as_nanos() as u64;
        let engine = Engine {
            index,
            scratch,
            stats: &self.stats,
            queue_policy: config.queue_policy,
            num_workers: config.num_workers,
            collect_breakdown: config.collect_breakdown,
            coalesce: config.run_batching(),
        };
        match &plan.dtw {
            None => {
                let metric = EuclideanMetric::new(index, plan.query, table, plan.kernel);
                driver::run(&engine, &metric, objective);
            }
            Some(dtw) => {
                let metric = DtwMetric::new(index, plan.query, dtw, table, plan.kernel);
                driver::run(&engine, &metric, objective);
            }
        }
        self.stats.finish(
            self.from.elapsed(),
            init_ns,
            config.num_workers as u64,
            config.collect_breakdown,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::knn::KnnSet;
    use crate::shard::global_pos;
    use messi_series::distance::dtw::DtwParams;
    use messi_series::distance::euclidean::ed_sq_early_abandon_with;
    use messi_series::gen::{self, DatasetKind};
    use messi_series::znorm::znormalized;
    use messi_series::Dataset;
    use std::sync::Arc;

    /// `count` noisy copies of one square wave whose every PAA segment
    /// sits well away from zero: a collection so skewed that all of it
    /// files under one root key — one big leaf under the default
    /// configuration.
    fn skewed(count: usize, seed: u64) -> Dataset {
        let mut state = seed | 1;
        let mut values = Vec::with_capacity(count * 256);
        for _ in 0..count {
            let noisy: Vec<f32> = (0..256)
                .map(|i| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let noise = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                    if (i / 16) % 2 == 0 {
                        1.0 + noise
                    } else {
                        -1.0 + noise
                    }
                })
                .collect();
            values.extend(znormalized(&noisy));
        }
        Dataset::from_flat(values, 256).unwrap()
    }

    fn bits(answers: Vec<crate::exact::QueryAnswer>) -> Vec<(u64, u32)> {
        let pairs = answers.into_iter().map(|a| (a.pos, a.dist_sq.to_bits()));
        pairs.collect()
    }

    /// The filtered seed of every Euclidean cell against an unfiltered
    /// scan of the same home leaf.
    fn assert_seed_equivalence(index: &MessiIndex, query: &[f32]) {
        let plan = QueryPlan::new(index, query, MetricSpec::Euclidean, Kernel::Auto);
        let mut ctx = QueryContext::new();
        ctx.fill_table(index.sax_config(), plan.table_spec());
        let table = ctx.table();
        let leaf = index.home_leaf_run(&plan.sax, &plan.paa, None).entries;

        // 1-NN: same distance bits, same position, nothing counted.
        let stats = SharedQueryStats::new();
        let got = plan.seed_nearest(index, table, &stats);
        let want = index.seed_approximate(query, &plan.sax, &plan.paa, plan.kernel);
        assert_eq!((got.0.to_bits(), got.1), (want.0.to_bits(), want.1));
        assert_eq!(
            stats.lb_distance_calcs.get() + stats.real_distance_calcs.get(),
            0
        );
        // An equal-distance tie keeps the first entry of the leaf.
        let first = leaf.iter().find(|e| {
            let d = ed_sq_early_abandon_with(
                plan.kernel,
                query,
                index.dataset.series(e.pos as usize),
                f32::INFINITY,
            );
            d.to_bits() == got.0.to_bits()
        });
        assert_eq!(first.map(|e| e.pos), Some(got.1));

        // k-NN: the set's contents after seeding, and the shard's rank.
        for k in [1usize, 5, 50] {
            let offset = 1_000;
            let seeded = KnnSet::new(k);
            let objective = crate::engine::KnnObjective::new(&seeded, offset);
            let _uncounted = plan.seed(index, table, &objective);
            let rank = objective.best_offered();
            let reference = KnnSet::new(k);
            let mut best = f32::INFINITY;
            for e in leaf {
                let bound = reference.bound();
                let candidate = index.dataset.series(e.pos as usize);
                let d = ed_sq_early_abandon_with(plan.kernel, query, candidate, bound);
                if d < bound {
                    reference.offer(d, global_pos(offset, e.pos));
                    best = best.min(d);
                }
            }
            assert_eq!(rank.to_bits(), best.to_bits(), "k = {k}");
            assert_eq!(bits(seeded.into_sorted()), bits(reference.into_sorted()));
        }

        // ng-approximate through the executor: the seed is the answer.
        let config = QueryConfig::for_tests();
        let (ng, _) = index.search_approximate_bounded(query, 0.0, 0.0, &config);
        assert_eq!(
            (ng.dist_sq.to_bits(), ng.pos),
            (want.0.to_bits(), want.1.into())
        );
    }

    #[test]
    fn filtered_seed_equals_an_unfiltered_scan_of_a_big_home_leaf() {
        let data = Arc::new(skewed(1_900, 5));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::default());
        let queries = skewed(6, 77);
        for q in queries.iter().chain([data.series(11)]) {
            let plan = QueryPlan::new(&index, q, MetricSpec::Euclidean, Kernel::Auto);
            let leaf = index.home_leaf_run(&plan.sax, &plan.paa, None).entries;
            assert!(leaf.len() >= 1_000, "home leaf holds {}", leaf.len());
            assert_seed_equivalence(&index, q);
        }
    }

    #[test]
    fn filtered_seed_equals_an_unfiltered_scan_under_the_test_config() {
        // Positions 3 and 40 hold the same series: a distance-0 tie in
        // one leaf for the member query below.
        let walk = gen::generate(DatasetKind::RandomWalk, 600, 23);
        let len = walk.series_len();
        let mut values = walk.as_flat().to_vec();
        values.copy_within(3 * len..4 * len, 40 * len);
        let data = Arc::new(Dataset::from_flat(values, len).unwrap());
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 12, 23);
        for q in queries.iter().chain([data.series(40)]) {
            assert_seed_equivalence(&index, q);
        }
    }

    #[test]
    fn dtw_query_counts_are_those_of_the_unfiltered_seed() {
        // `(lb, real)` of exact 1-NN and 3-NN DTW queries over a
        // sequential build, one search worker, per-leaf scans (so
        // `MESSI_NO_RUN_BATCH` cannot move them), taken on the commit
        // before the seed was filtered: the DTW
        // seed's cascade counts into the query, so its counts pin that
        // no seed — and no pruning decision after it — moved.
        const PINNED: [[(u64, u64, u64, u64); 4]; 2] = [
            [
                (2710, 533, 2731, 574),
                (1320, 126, 1552, 175),
                (1185, 268, 1278, 313),
                (805, 111, 872, 107),
            ],
            [
                (3625, 497, 3674, 559),
                (2207, 111, 2416, 180),
                (2231, 232, 2367, 276),
                (1016, 128, 1063, 107),
            ],
        ];
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 1_500, 4242));
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 4242);
        let params = DtwParams::paper_default(data.series_len());
        let config = QueryConfig {
            num_workers: 1,
            num_queues: 1,
            run_batch: crate::config::RunBatchPolicy::PerLeaf,
            ..QueryConfig::default()
        };
        let configs = [IndexConfig::for_tests(), IndexConfig::default()];
        for (index_config, pinned) in configs.into_iter().zip(PINNED) {
            let sequential = IndexConfig {
                num_workers: 1,
                ..index_config
            };
            let (index, _) = MessiIndex::build(Arc::clone(&data), &sequential);
            for (q, want) in queries.iter().zip(pinned) {
                let (_, one) = index.search_dtw(q, params, &config);
                let (_, three) = index.search_knn_dtw(q, 3, params, &config);
                let got = (
                    one.lb_distance_calcs,
                    one.real_distance_calcs,
                    three.lb_distance_calcs,
                    three.real_distance_calcs,
                );
                assert_eq!(got, want);
            }
        }
    }
}
