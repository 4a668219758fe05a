//! The pooled query executor.

use super::spec::{QuerySpec, Schedule};
use crate::config::QueryConfig;
use crate::engine::QueryContext;
use crate::exact::QueryAnswer;
use crate::index::MessiIndex;
use crate::shard::{answer_solo, prewarm_pool};
use crate::stats::{QueryStats, QueryStatsAggregate};
use messi_series::Dataset;
use messi_sync::{Dispenser, SlotPool, WorkerPool};
use parking_lot::Mutex;

/// A pooled query-execution frontend over one [`MessiIndex`].
///
/// The executor owns a [`SlotPool`] of warm [`QueryContext`]s — one per
/// concurrent query worker, checked out and in without locks — and
/// answers single queries ([`QueryExecutor::run_one`]) and batches
/// ([`QueryExecutor::run_batch`]) for every cell of the
/// [`QuerySpec`] matrix under either [`Schedule`]. After warm-up, the
/// per-query hot path performs zero queue or mindist-table allocations
/// (debug builds assert this through [`QueryContext::alloc_events`]).
///
/// ```
/// use messi_core::exec::{QuerySpec, Schedule};
/// use messi_core::{IndexConfig, MessiIndex, QueryConfig};
/// use messi_series::gen::{self, DatasetKind};
/// use std::sync::Arc;
///
/// let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 400, 3));
/// let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
/// let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 6, 3);
/// let config = QueryConfig::for_tests();
///
/// let exec = index.executor();
/// // A k-NN batch, queries dispensed across 4 single-threaded workers.
/// let (answers, agg) = exec.run_batch(
///     &queries,
///     &QuerySpec::knn(3),
///     Schedule::InterQuery { parallelism: 4 },
///     &config,
/// );
/// assert_eq!(answers.len(), 6);
/// assert!(answers.iter().all(|a| a.len() == 3));
/// assert_eq!(agg.queries, 6);
///
/// // The same executor serves single-shot queries as a batch of one.
/// let (top1, _) = exec.run_one(queries.series(0), &QuerySpec::exact(), &config);
/// assert_eq!(top1[0], answers[0][0]);
/// ```
#[derive(Debug)]
pub struct QueryExecutor<'a> {
    index: &'a MessiIndex,
    contexts: SlotPool<QueryContext<'a>>,
}

impl<'a> QueryExecutor<'a> {
    /// Creates an executor whose context pool matches the process worker
    /// pool (2 × cores), the capacity a saturating inter-query batch or
    /// server frontend needs.
    pub fn new(index: &'a MessiIndex) -> Self {
        Self::with_capacity(index, 2 * crate::config::available_cores())
    }

    /// Creates an executor holding at most `capacity` warm contexts.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(index: &'a MessiIndex, capacity: usize) -> Self {
        Self {
            index,
            contexts: SlotPool::new(capacity),
        }
    }

    /// The index this executor serves.
    pub fn index(&self) -> &'a MessiIndex {
        self.index
    }

    /// Number of currently parked warm contexts.
    pub fn warm_contexts(&self) -> usize {
        self.contexts.parked()
    }

    /// Sum of [`QueryContext::alloc_events`] over the parked contexts —
    /// the observable behind the zero-allocation-after-warm-up tests
    /// (requires exclusive access so no checkout can race the count).
    pub fn warm_alloc_events(&mut self) -> u64 {
        self.contexts.iter_mut().map(|c| c.alloc_events()).sum()
    }

    /// Answers one query: checkout a warm context (or build one cold),
    /// dispatch the spec through the engine, check the context back in.
    ///
    /// Exact 1-NN returns exactly one answer; k-NN up to `k`, ascending;
    /// range every match, ascending.
    ///
    /// # Panics
    ///
    /// Panics if the query length mismatches the index, the configuration
    /// is invalid, `k == 0`, or `epsilon_sq` is negative or NaN.
    pub fn run_one(
        &self,
        query: &[f32],
        spec: &QuerySpec,
        config: &QueryConfig,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        let mut ctx = self.contexts.checkout().unwrap_or_default();
        let out = answer_solo(self.index, query, spec, config, &mut ctx);
        self.contexts.checkin(ctx);
        out
    }

    /// As [`QueryExecutor::run_one`], additionally reporting the
    /// context's allocation-event delta across this query — the
    /// zero-allocation-after-warm-up invariant as a live per-query
    /// observable (0 on a warm context). The serve daemon sums it into
    /// its `messi_query_alloc_events_total` metric, so a dashboard shows
    /// scratch churn the moment a regression ships.
    pub fn run_one_traced(
        &self,
        query: &[f32],
        spec: &QuerySpec,
        config: &QueryConfig,
    ) -> (Vec<QueryAnswer>, QueryStats, u64) {
        let mut ctx = self.contexts.checkout().unwrap_or_default();
        let before = ctx.alloc_events();
        let (answers, stats) = answer_solo(self.index, query, spec, config, &mut ctx);
        let delta = ctx.alloc_events().saturating_sub(before);
        self.contexts.checkin(ctx);
        (answers, stats, delta)
    }

    /// Answers a whole batch of queries under `schedule`.
    ///
    /// Returns one answer list per query, in query order, plus the
    /// aggregate statistics (including the summed Fig. 13 breakdown when
    /// `config.collect_breakdown` is set).
    ///
    /// Under [`Schedule::IntraQuery`] each query uses the full worker
    /// complement of `config`; under [`Schedule::InterQuery`] the queries
    /// are dispensed across `parallelism` pool workers and
    /// `config.num_workers`/`num_queues` are ignored (each query runs
    /// with one worker and one queue).
    ///
    /// # Panics
    ///
    /// As [`QueryExecutor::run_one`]; additionally if an inter-query
    /// schedule's `parallelism` is zero.
    pub fn run_batch(
        &self,
        queries: &Dataset,
        spec: &QuerySpec,
        schedule: Schedule,
        config: &QueryConfig,
    ) -> (Vec<Vec<QueryAnswer>>, QueryStatsAggregate) {
        match schedule {
            Schedule::IntraQuery => self.run_batch_intra(queries, spec, config),
            Schedule::InterQuery { parallelism } => {
                self.run_batch_inter(queries, spec, parallelism, config)
            }
        }
    }

    /// Warms every pool slot: each slot is *shaped*
    /// ([`QueryContext::shape`] — the allocations its first query under
    /// `config` would make, made without running it), then `query` is
    /// answered once under `spec` through one of them, so the index
    /// pages a first query walks are resident. Every slot then answers
    /// with an `alloc_events` delta of 0 from its first query on. A
    /// server frontend calls this at startup; the zero-alloc tests use
    /// it to make warm-up deterministic.
    pub fn prewarm(&self, query: &[f32], spec: &QuerySpec, config: &QueryConfig) {
        prewarm_pool(&self.contexts, self.index, query, spec, config);
    }

    /// Intra-query scheduling: queries sequential, each parallel inside.
    fn run_batch_intra(
        &self,
        queries: &Dataset,
        spec: &QuerySpec,
        config: &QueryConfig,
    ) -> (Vec<Vec<QueryAnswer>>, QueryStatsAggregate) {
        let mut answers = Vec::with_capacity(queries.len());
        let mut agg = QueryStatsAggregate::default();
        let mut ctx = self.contexts.checkout().unwrap_or_default();
        let mut warm = WarmupCheck::default();
        for q in queries.iter() {
            let (ans, stats) = answer_solo(self.index, q, spec, config, &mut ctx);
            warm.observe(&ctx);
            agg.add(&stats);
            answers.push(ans);
        }
        self.contexts.checkin(ctx);
        (answers, agg)
    }

    /// Inter-query scheduling: queries parallel, each sequential inside.
    fn run_batch_inter(
        &self,
        queries: &Dataset,
        spec: &QuerySpec,
        parallelism: usize,
        config: &QueryConfig,
    ) -> (Vec<Vec<QueryAnswer>>, QueryStatsAggregate) {
        assert!(parallelism > 0, "parallelism must be positive");
        let per_query = QueryConfig {
            num_workers: 1,
            num_queues: 1,
            ..config.clone()
        };
        let dispenser = Dispenser::new(queries.len());
        let slots: Vec<Mutex<Option<Vec<QueryAnswer>>>> =
            (0..queries.len()).map(|_| Mutex::new(None)).collect();
        let agg = Mutex::new(QueryStatsAggregate::default());
        WorkerPool::global().run(parallelism.min(queries.len().max(1)), &|_pid| {
            let mut local_agg = QueryStatsAggregate::default();
            let mut ctx = self.contexts.checkout().unwrap_or_default();
            let mut warm = WarmupCheck::default();
            while let Some(qi) = dispenser.next() {
                let (ans, stats) =
                    answer_solo(self.index, queries.series(qi), spec, &per_query, &mut ctx);
                warm.observe(&ctx);
                local_agg.add(&stats);
                *slots[qi].lock() = Some(ans);
            }
            agg.lock().merge(&local_agg);
            self.contexts.checkin(ctx);
        });
        let answers = slots
            .into_iter()
            .map(|s| s.into_inner().expect("every query answered"))
            .collect();
        (answers, agg.into_inner())
    }
}

/// Debug-build guard for the pooled zero-allocation invariant: the first
/// observed query may (re)build scratch; every later query in the same
/// checkout must leave the context's allocation counter untouched.
#[derive(Default)]
struct WarmupCheck(Option<u64>);

impl WarmupCheck {
    #[inline]
    fn observe(&mut self, ctx: &QueryContext<'_>) {
        match self.0 {
            None => self.0 = Some(ctx.alloc_events()),
            Some(warm) => debug_assert_eq!(
                ctx.alloc_events(),
                warm,
                "per-query scratch allocation after pooled warm-up"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use messi_series::distance::dtw::DtwParams;
    use messi_series::gen::{self, DatasetKind};
    use std::sync::Arc;

    fn setup() -> (Arc<Dataset>, MessiIndex, Dataset) {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 350, 17));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 6, 17);
        (data, index, queries)
    }

    fn all_specs(series_len: usize, epsilon_sq: f32) -> Vec<QuerySpec> {
        let params = DtwParams::paper_default(series_len);
        vec![
            QuerySpec::exact(),
            QuerySpec::knn(4),
            QuerySpec::range(epsilon_sq),
            QuerySpec::exact().with_dtw(params),
            QuerySpec::knn(4).with_dtw(params),
            QuerySpec::range(epsilon_sq).with_dtw(params),
        ]
    }

    #[test]
    fn both_schedules_agree_for_every_spec() {
        let (data, index, queries) = setup();
        let config = QueryConfig::for_tests();
        let exec = index.executor();
        // A radius around the first query's 1-NN keeps range non-trivial.
        let (_, nn) = data.nearest_neighbor_brute_force(queries.series(0));
        for spec in all_specs(data.series_len(), nn * 2.0) {
            let (intra, agg_a) = exec.run_batch(&queries, &spec, Schedule::IntraQuery, &config);
            let (inter, agg_b) = exec.run_batch(
                &queries,
                &spec,
                Schedule::InterQuery { parallelism: 4 },
                &config,
            );
            assert_eq!(agg_a.queries, queries.len() as u64);
            assert_eq!(agg_b.queries, queries.len() as u64);
            assert_eq!(intra.len(), inter.len());
            for (qi, (a, b)) in intra.iter().zip(&inter).enumerate() {
                assert_eq!(a.len(), b.len(), "{spec:?} query {qi}");
                for (x, y) in a.iter().zip(b) {
                    assert!(
                        (x.dist_sq - y.dist_sq).abs() <= 1e-3 * y.dist_sq.max(1.0),
                        "{spec:?} query {qi}: {} vs {}",
                        x.dist_sq,
                        y.dist_sq
                    );
                }
            }
        }
    }

    #[test]
    fn run_one_matches_batch_of_one() {
        let (_, index, queries) = setup();
        let config = QueryConfig::for_tests();
        let exec = index.executor();
        for spec in [QuerySpec::exact(), QuerySpec::knn(3)] {
            let (single, _) = exec.run_one(queries.series(0), &spec, &config);
            let one =
                messi_series::Dataset::from_flat(queries.series(0).to_vec(), queries.series_len())
                    .unwrap();
            let (batch, agg) = exec.run_batch(&one, &spec, Schedule::IntraQuery, &config);
            assert_eq!(agg.queries, 1);
            assert_eq!(batch[0].len(), single.len());
            for (a, b) in single.iter().zip(&batch[0]) {
                assert!((a.dist_sq - b.dist_sq).abs() <= 1e-3 * b.dist_sq.max(1.0));
            }
        }
    }

    #[test]
    fn contexts_are_pooled_across_runs() {
        let (_, index, queries) = setup();
        let config = QueryConfig::for_tests();
        let exec = QueryExecutor::with_capacity(&index, 2);
        assert_eq!(exec.warm_contexts(), 0);
        let _ = exec.run_one(queries.series(0), &QuerySpec::exact(), &config);
        assert_eq!(exec.warm_contexts(), 1, "context parked after the query");
        let _ = exec.run_batch(
            &queries,
            &QuerySpec::exact(),
            Schedule::InterQuery { parallelism: 2 },
            &config,
        );
        // Between 1 and `parallelism` contexts end up parked: a worker
        // that starts after another already finished its whole share
        // reuses the same context instead of warming a second one.
        let parked = exec.warm_contexts();
        assert!((1..=2).contains(&parked), "parked {parked} contexts");
    }

    #[test]
    fn prewarm_fills_the_pool_and_later_batches_stay_allocation_free() {
        let (data, index, queries) = setup();
        let config = QueryConfig::for_tests();
        let parallelism = 3;
        let mut exec = QueryExecutor::with_capacity(&index, parallelism);
        exec.prewarm(queries.series(0), &QuerySpec::exact(), &config);
        assert_eq!(exec.warm_contexts(), parallelism);
        let warmed = exec.warm_alloc_events();
        assert!(warmed > 0, "prewarm builds the scratch");

        // Every spec × schedule: the second identical batch must not
        // touch the allocator (the first may reshape queue sets).
        let (_, nn) = data.nearest_neighbor_brute_force(queries.series(0));
        for spec in all_specs(data.series_len(), nn * 2.0) {
            for schedule in [Schedule::IntraQuery, Schedule::InterQuery { parallelism }] {
                let _ = exec.run_batch(&queries, &spec, schedule, &config);
                let after_first = exec.warm_alloc_events();
                let _ = exec.run_batch(&queries, &spec, schedule, &config);
                assert_eq!(
                    exec.warm_alloc_events(),
                    after_first,
                    "{spec:?} {schedule:?}: repeat batch allocated scratch"
                );
            }
        }
    }

    #[test]
    fn traced_queries_report_their_alloc_delta() {
        let (_, index, queries) = setup();
        let config = QueryConfig::for_tests();
        let exec = QueryExecutor::with_capacity(&index, 1);
        // Cold context: the first query builds its scratch.
        let (ans, _, cold_delta) =
            exec.run_one_traced(queries.series(0), &QuerySpec::exact(), &config);
        assert_eq!(ans.len(), 1);
        assert!(cold_delta > 0, "cold query must report its allocations");
        // Warm repeat of the same spec: zero allocations, observable live.
        let (_, _, warm_delta) =
            exec.run_one_traced(queries.series(1), &QuerySpec::exact(), &config);
        assert_eq!(warm_delta, 0, "warm query allocated scratch");
    }

    #[test]
    #[should_panic(expected = "parallelism")]
    fn rejects_zero_parallelism() {
        let (_, index, queries) = setup();
        let exec = index.executor();
        exec.run_batch(
            &queries,
            &QuerySpec::exact(),
            Schedule::InterQuery { parallelism: 0 },
            &QueryConfig::for_tests(),
        );
    }

    #[test]
    fn executor_is_shareable_across_threads() {
        // The executor (and therefore the slot pool of contexts) must be
        // Sync: a server frontend answers queries from many request
        // threads over one executor.
        fn assert_sync<T: Sync>(_: &T) {}
        let (_, index, queries) = setup();
        let exec = index.executor();
        assert_sync(&exec);
        let config = QueryConfig {
            num_workers: 1,
            num_queues: 1,
            ..QueryConfig::for_tests()
        };
        std::thread::scope(|s| {
            for t in 0..4 {
                let exec = &exec;
                let queries = &queries;
                let config = &config;
                s.spawn(move || {
                    for qi in 0..queries.len() {
                        let (ans, _) = exec.run_one(queries.series(qi), &QuerySpec::knn(2), config);
                        assert_eq!(ans.len(), 2, "thread {t} query {qi}");
                    }
                });
            }
        });
    }
}
