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
//!   cascade — bounds for the whole leaf first, then (1-NN) the
//!   smallest-bound entry's real distance, then the entries in order
//!   against that bound.
//! * *Search* ([`ShardRun::run`]): one engine run — tree pass + queue
//!   phase — over one shard under the cell's objective.
//!
//! A single index is one shard; [`crate::shard`] decides how many shards
//! a walk covers and on which threads.

use super::context::{QueryContext, TableSpec};
use super::driver::{self, Engine};
use super::metric::{DtwMetric, EuclideanMetric, Metric};
use super::objective::{next_up, NearestObjective, SearchObjective};
use crate::config::QueryConfig;
use crate::dtw::DtwPlan;
use crate::exec::MetricSpec;
use crate::index::MessiIndex;
use crate::stats::{LocalStats, QueryStats, SharedQueryStats};
use messi_sax::word::SaxWord;
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
    /// Euclidean: the leaf's entries are bounded once, batched
    /// ([`QueryContext::run_bounds`]), then scanned in order by the
    /// engine's own [`driver::scan_bounded`] — a series fetched only
    /// when its bound is below the objective's — counted only as
    /// `seed_real` (exact search reports its traversal's work, not its
    /// seed's). The filter cannot change the seed: offers must be
    /// strictly below the bound an entry is skipped at. `best_first`
    /// (1-NN objectives only) takes the real distance `d*` of the
    /// smallest-bound entry before the scan and starts it from the bound
    /// `next_up(d*)` — offered without a position — instead of +∞: with
    /// the neighbour in the leaf, almost every other entry is skipped
    /// unfetched. The scan's answer stands: the minimum is at most `d*`,
    /// so its first holder is still offered — `next_up` keeps an earlier
    /// entry at exactly `d*` eligible — and nothing after it is.
    ///
    /// DTW: every entry through LB_Keogh, then banded DTW, counted like
    /// the engine's entry cascade — a DTW query's counts include its
    /// seed's, so neither the envelope-mindist filter nor `best_first`
    /// touches it.
    pub(crate) fn seed<O: SearchObjective>(
        &self,
        index: &MessiIndex,
        ctx: &mut QueryContext<'_>,
        objective: &O,
        best_first: bool,
    ) -> LocalStats {
        let mut counted = LocalStats::default();
        let mut found = O::Local::default();
        if let Some(dtw) = &self.dtw {
            let run = index.home_leaf_run(&self.sax, &self.paa, None);
            let metric = DtwMetric::new(index, self.query, dtw, ctx.table(), self.kernel);
            for e in run.entries {
                let bound = objective.bound();
                match metric.entry_distance(e, bound, &mut counted) {
                    Some(d) if d < bound => {
                        objective.offer(&mut found, d, e.pos);
                    }
                    _ => {}
                }
            }
            counted.seed_real = counted.real;
        } else {
            let run = index.home_leaf_run(&self.sax, &self.paa, Some(ctx.table()));
            let (table, bounds) = ctx.run_bounds(&run, self.kernel.uses_simd());
            let metric = EuclideanMetric::new(index, self.query, table, self.kernel);
            let (entries, mut scan) = (run.entries, LocalStats::default());
            let tightest = || (0..bounds.len()).min_by(|&a, &b| bounds[a].total_cmp(&bounds[b]));
            if let Some(i) = best_first.then(tightest).flatten() {
                let d = metric.entry_distance(&entries[i], f32::INFINITY, &mut scan);
                objective.offer(&mut found, next_up(d.expect("no further bound")), u32::MAX);
            }
            driver::scan_bounded(&metric, objective, entries, bounds, &mut scan, &mut found);
            counted.seed_real = scan.real;
        }
        objective.absorb(found);
        counted
    }

    /// The seed step of the 1-NN objectives (exact and approximate): the
    /// best `(squared distance, local position)` of `index`'s home leaf
    /// for this query — the initial BSF of Alg. 5, and the whole answer
    /// of ng-approximate search; the first entry wins a tie.
    pub(crate) fn seed_nearest(
        &self,
        index: &MessiIndex,
        ctx: &mut QueryContext<'_>,
        stats: &SharedQueryStats,
    ) -> (f32, u32) {
        let best = NearestObjective::new(f32::INFINITY, u32::MAX, None);
        self.seed(index, ctx, &best, true).flush(stats);
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
            num_workers: config.num_workers,
            collect_breakdown: config.collect_breakdown,
            coalesce: config.run_batching(),
            fastscan: table.fastscan_lut(objective.bound()),
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
        let leaf = index.home_leaf_run(&plan.sax, &plan.paa, None).entries;

        // 1-NN: same distance bits, same position, nothing counted.
        let stats = SharedQueryStats::new();
        let got = plan.seed_nearest(index, &mut ctx, &stats);
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
            let seeded = KnnSet::new(k, index.num_series());
            let objective = crate::engine::KnnObjective::new(&seeded, offset);
            let _uncounted = plan.seed(index, &mut ctx, &objective, false);
            let rank = objective.best_offered();
            let reference = KnnSet::new(k, index.num_series());
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

    /// One leaf of series a few exact binary fractions away from a
    /// query, so distances add up without rounding and ties are ties in
    /// every bit: returns the index over `plants` (in position order)
    /// and the query. `Far(k)` moves one whole segment (its PAA, hence
    /// its bound, with it); `Near` alternates ±1/32 inside every segment
    /// (same PAA as the query: bound 0, the leaf's smallest);
    /// `NearShifted` is at `Near`'s distance with segment 0 moved one
    /// way (a positive bound).
    #[derive(Clone, Copy)]
    enum Plant {
        Far(usize),
        Near,
        NearShifted,
    }

    fn planted(plants: &[Plant]) -> (MessiIndex, Vec<f32>) {
        let query: Vec<f32> = (0..256)
            .map(|i| {
                let square = if (i / 16) % 2 == 0 { 1.0 } else { -1.0 };
                square + ((i * 37 % 17) as f32 - 8.0) / 64.0
            })
            .collect();
        let mut values = Vec::new();
        for &plant in plants {
            values.extend(query.iter().enumerate().map(|(i, &q)| match plant {
                Plant::Far(k) if i / 16 == k % 16 => q + (k + 4) as f32 / 16.0,
                Plant::Far(_) => q,
                Plant::NearShifted if i < 16 => q + 1.0 / 32.0,
                Plant::Near | Plant::NearShifted => q + [1.0, -1.0][i % 2] / 32.0,
            }));
        }
        let data = Arc::new(Dataset::from_flat(values, 256).unwrap());
        let (index, _) = MessiIndex::build(data, &IndexConfig::default());
        assert_eq!(index.num_leaves(), 1);
        (index, query)
    }

    /// `(bound, distance bits)` of every entry of `query`'s home leaf.
    fn leaf_profile(index: &MessiIndex, query: &[f32]) -> Vec<(f32, u32)> {
        let plan = QueryPlan::new(index, query, MetricSpec::Euclidean, Kernel::Auto);
        let mut ctx = QueryContext::new();
        ctx.fill_table(index.sax_config(), plan.table_spec());
        let run = index.home_leaf_run(&plan.sax, &plan.paa, None);
        let (_, bounds) = ctx.run_bounds(&run, plan.kernel.uses_simd());
        let dist = |e: &crate::node::LeafEntry| {
            let series = index.dataset.series(e.pos as usize);
            ed_sq_early_abandon_with(plan.kernel, query, series, f32::INFINITY).to_bits()
        };
        bounds
            .iter()
            .copied()
            .zip(run.entries.iter().map(dist))
            .collect()
    }

    #[test]
    fn best_bound_first_seed_keeps_the_first_of_a_tie() {
        use Plant::{Far, Near, NearShifted};
        // The entry at the minimum distance sits before, after, and on
        // both sides of the smallest-bound entry; and the smallest bound
        // belongs to the last entry of the leaf.
        for (plants, tightest, winner) in [
            (vec![Far(0), NearShifted, Far(1), Near, Far(2)], 3, 1),
            (vec![Far(0), Near, Far(1), NearShifted, Far(2)], 1, 1),
            (vec![NearShifted, Far(0), Near, Near, NearShifted], 2, 0),
            (vec![Far(0), Far(1), Far(2), Far(3), Near], 4, 4),
        ] {
            let (index, query) = planted(&plants);
            let profile = leaf_profile(&index, &query);
            let min_bound = profile.iter().map(|p| p.0).fold(f32::INFINITY, f32::min);
            assert_eq!(
                profile.iter().position(|p| p.0 == min_bound),
                Some(tightest)
            );
            let min_dist = profile.iter().map(|p| p.1).min().unwrap();
            assert_eq!(profile[tightest].1, min_dist, "ties are exact");
            assert_eq!(profile.iter().position(|p| p.1 == min_dist), Some(winner));
            assert_seed_equivalence(&index, &query);

            let plan = QueryPlan::new(&index, &query, MetricSpec::Euclidean, Kernel::Scalar);
            let mut ctx = QueryContext::new();
            ctx.fill_table(index.sax_config(), plan.table_spec());
            let got = plan.seed_nearest(&index, &mut ctx, &SharedQueryStats::new());
            assert_eq!(got, (f32::from_bits(min_dist), winner as u32), "scalar");
        }
    }

    #[test]
    fn best_bound_first_seed_of_a_one_entry_leaf_and_of_an_empty_home_key() {
        let (index, query) = planted(&[Plant::Far(5)]);
        assert_eq!(leaf_profile(&index, &query).len(), 1);
        assert_seed_equivalence(&index, &query);

        // The mirrored query files under a root key no series has: the
        // seed falls back to the closest arena's leaf.
        let (index, query) = planted(&[Plant::Far(0), Plant::Near, Plant::Far(1)]);
        let mirrored: Vec<f32> = query.iter().map(|v| -v).collect();
        let (sax, _) = index.summarize_query(&mirrored);
        let key = messi_sax::root_key::root_key(&sax, index.sax_config().segments);
        assert!(index.root(key).is_none());
        assert_eq!(leaf_profile(&index, &mirrored).len(), 3);
        assert_seed_equivalence(&index, &mirrored);
    }

    /// Noisy copies of dataset members over two shards — the serving
    /// workload: bounding the home leaf first and starting from its
    /// smallest-bound entry fetches far fewer series than the in-order
    /// scan from +∞, for the same seed.
    #[test]
    fn best_bound_first_seed_fetches_fewer_series_than_the_in_order_scan() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 12_000, 31));
        let (sharded, _) =
            crate::shard::ShardedIndex::build(Arc::clone(&data), 2, &IndexConfig::default());
        let queries = gen::queries::noisy_queries_from_dataset(&data, 100, 0.1, 31);
        let (mut first, mut in_order) = (0, 0);
        for q in queries.iter() {
            for shard in 0..2 {
                let index = sharded.shard(shard);
                let plan = QueryPlan::new(index, q, MetricSpec::Euclidean, Kernel::Auto);
                let mut ctx = QueryContext::new();
                ctx.fill_table(index.sax_config(), plan.table_spec());
                let stats = SharedQueryStats::new();
                let got = plan.seed_nearest(index, &mut ctx, &stats);
                first += stats.seed_real_calcs.get();
                let scan = NearestObjective::new(f32::INFINITY, u32::MAX, None);
                in_order += plan.seed(index, &mut ctx, &scan, false).seed_real;
                assert_eq!(got, scan.answer());
            }
        }
        assert!(
            first * 10 <= in_order * 7,
            "{first} fetches best-bound-first, {in_order} in order"
        );
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
