//! The single-index face of the pooled query executor.

use super::spec::{QuerySpec, Schedule};
use crate::config::QueryConfig;
use crate::exact::QueryAnswer;
use crate::index::MessiIndex;
use crate::shard::{Shard, ShardedExecutor};
use crate::stats::{QueryStats, QueryStatsAggregate};
use messi_series::Dataset;

/// The pooled query executor over one [`MessiIndex`]: the one-shard
/// instance of [`ShardedExecutor`], whose every query is the inline walk
/// — the classic single-index search — answering single queries and
/// batches for every [`QuerySpec`] under either [`Schedule`].
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
pub struct QueryExecutor<'a>(ShardedExecutor<'a>);

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
        let shard = vec![Shard { index, offset: 0 }];
        Self(ShardedExecutor::over(shard, capacity))
    }

    /// Number of currently parked warm contexts.
    pub fn warm_contexts(&self) -> usize {
        self.0.warm_contexts()
    }

    /// As [`ShardedExecutor::warm_alloc_events`].
    pub fn warm_alloc_events(&mut self) -> u64 {
        self.0.warm_alloc_events()
    }

    /// As [`ShardedExecutor::run_one`].
    pub fn run_one(
        &self,
        query: &[f32],
        spec: &QuerySpec,
        config: &QueryConfig,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        self.0.run_one(query, spec, config)
    }

    /// As [`QueryExecutor::run_one`], additionally reporting the
    /// context's allocation-event delta across this query — the
    /// zero-allocation-after-warm-up invariant as a live per-query
    /// observable (0 on a warm context).
    pub fn run_one_traced(
        &self,
        query: &[f32],
        spec: &QuerySpec,
        config: &QueryConfig,
    ) -> (Vec<QueryAnswer>, QueryStats, u64) {
        self.0.answer(query, spec, config, None)
    }

    /// As [`ShardedExecutor::run_batch`].
    pub fn run_batch(
        &self,
        queries: &Dataset,
        spec: &QuerySpec,
        schedule: Schedule,
        config: &QueryConfig,
    ) -> (Vec<Vec<QueryAnswer>>, QueryStatsAggregate) {
        self.0.run_batch(queries, spec, schedule, config)
    }

    /// As [`ShardedExecutor::prewarm`].
    pub fn prewarm(&self, query: &[f32], spec: &QuerySpec, config: &QueryConfig) {
        self.0.prewarm(query, spec, config);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::shard::ShardedIndex;
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
        let exec = index.executor();
        // A radius around the first query's 1-NN keeps range non-trivial.
        let (_, nn) = data.nearest_neighbor_brute_force(queries.series(0));
        let one_worker = QueryConfig {
            num_workers: 1,
            num_queues: 1,
            ..QueryConfig::for_tests()
        };
        for config in [QueryConfig::for_tests(), one_worker] {
            for spec in all_specs(data.series_len(), nn * 2.0) {
                let (intra, agg_a) = exec.run_batch(&queries, &spec, Schedule::IntraQuery, &config);
                assert_eq!(agg_a.queries, queries.len() as u64);
                // 8 and 32 workers exceed the batch of 6.
                for parallelism in [1, 3, 8, 32] {
                    let inter = Schedule::InterQuery { parallelism };
                    let (inter, agg_b) = exec.run_batch(&queries, &spec, inter, &config);
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
                        if spec == QuerySpec::exact() {
                            // Exact and in query order, at every parallelism.
                            let (_, bf) = data.nearest_neighbor_brute_force(queries.series(qi));
                            assert!(
                                (b[0].dist_sq - bf).abs() <= 1e-3 * bf.max(1.0),
                                "parallelism={parallelism} query={qi}"
                            );
                        }
                    }
                    if config.num_workers == 1 {
                        // One worker: both schedules run the same
                        // deterministic search, so the counters agree.
                        assert_eq!(agg_a.lb_distance_calcs, agg_b.lb_distance_calcs);
                        assert_eq!(agg_a.real_distance_calcs, agg_b.real_distance_calcs);
                        assert_eq!(agg_a.bsf_updates, agg_b.bsf_updates);
                    }
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
        let (sharded, _) = ShardedIndex::build(Arc::clone(&data), 2, &IndexConfig::for_tests());
        let mut single = QueryExecutor::with_capacity(&index, parallelism);
        let mut two_shards = ShardedExecutor::with_capacity(&sharded, parallelism);
        for (shards, exec) in [(1, &mut single.0), (2, &mut two_shards)] {
            exec.prewarm(queries.series(0), &QuerySpec::exact(), &config);
            assert_eq!(exec.warm_contexts(), shards * parallelism);
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
                        "N={shards} {spec:?} {schedule:?}: repeat batch allocated scratch"
                    );
                }
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
