//! `prewarm` **shapes** contexts instead of exercising them: every pool
//! slot gets the allocations its first query would make
//! (`QueryContext::shape`), and one query per pool touches the index
//! pages. The post-condition is unchanged and pinned here: after
//! `prewarm`, every parked context answers every objective × metric cell
//! with an `alloc_events` delta of 0 *from its first query on* — on a
//! `QueryExecutor`, on a `ShardedExecutor` at 1, 2 and 3 shards, and on a
//! `DeltaIndex` across republishes, whose fresh executors are warmed the
//! same way before they are published.

use messi::prelude::*;
use messi::series::gen::{self, DatasetKind};
use messi::{DeltaIndex, IngestOptions};
use std::sync::Arc;

fn deterministic() -> QueryConfig {
    QueryConfig {
        num_workers: 1,
        num_queues: 1,
        ..QueryConfig::default()
    }
}

/// {exact, knn, range, approx(0,1)} × {ED, DTW}.
fn matrix(series_len: usize, range_eps_sq: f32) -> Vec<QuerySpec> {
    let params = DtwParams::paper_default(series_len);
    [
        QuerySpec::exact(),
        QuerySpec::knn(5),
        QuerySpec::range(range_eps_sq),
        QuerySpec::approximate(0.0, 1.0),
    ]
    .iter()
    .flat_map(|spec| [*spec, spec.with_dtw(params)])
    .collect()
}

/// A radius that gives range search a non-trivial result set.
fn radius(data: &Dataset, query: &[f32]) -> f32 {
    data.nearest_neighbor_brute_force(query).1 * 4.0 + 1.0
}

/// Slice `[start, end)` of `full` as an owned batch.
fn slice(full: &Dataset, start: usize, end: usize) -> Dataset {
    let len = full.series_len();
    Dataset::from_flat(full.as_flat()[start * len..end * len].to_vec(), len).unwrap()
}

#[test]
fn shaping_a_shaped_context_is_a_no_op() {
    let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 91));
    let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
    let config = QueryConfig::for_tests();
    let mut ctx = QueryContext::new();
    assert_eq!(ctx.alloc_events(), 0);
    ctx.shape(index.sax_config(), &config);
    let shaped = ctx.alloc_events();
    assert!(shaped > 0, "shaping allocates the table and the queue set");

    // Exactly what a first query would have allocated: a cold context
    // that answers one query ends at the same count.
    let mut cold = QueryContext::new();
    let _ = messi::index::exact::exact_search_with(&index, data.series(0), &config, &mut cold);
    assert_eq!(cold.alloc_events(), shaped);

    ctx.shape(index.sax_config(), &config);
    assert_eq!(ctx.alloc_events(), shaped, "second shape: counter flat");
    let _ = messi::index::exact::exact_search_with(&index, data.series(0), &config, &mut ctx);
    assert_eq!(
        ctx.alloc_events(),
        shaped,
        "first query on a shaped context"
    );
    ctx.shape(index.sax_config(), &config);
    assert_eq!(
        ctx.alloc_events(),
        shaped,
        "shape after a query: still flat"
    );
}

#[test]
fn every_slot_of_a_query_executor_is_warm_from_its_first_query() {
    let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 500, 92));
    let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
    let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 92);
    let config = deterministic();
    let capacity = 5;
    for spec in matrix(data.series_len(), radius(&data, queries.series(0))) {
        // A fresh executor per cell: the cell's query is the first one
        // each parked context ever answers.
        let mut exec = QueryExecutor::with_capacity(&index, capacity);
        exec.prewarm(data.series(0), &QuerySpec::exact(), &config);
        assert_eq!(exec.warm_contexts(), capacity);
        // Every slot was shaped, each exactly as one first query would
        // have: a table and a queue set.
        let shaped = exec.warm_alloc_events();
        assert_eq!(shaped, 2 * capacity as u64);
        // Holding no context between queries, a sequential caller is
        // served by the same slot each time — so go through the pool
        // from `capacity` threads at once to reach every slot.
        let barrier = std::sync::Barrier::new(capacity);
        std::thread::scope(|s| {
            for t in 0..capacity {
                let (exec, queries, config, barrier) = (&exec, &queries, &config, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for q in queries.iter() {
                        let (_, _, allocs) = exec.run_one_traced(q, &spec, config);
                        assert_eq!(allocs, 0, "{spec:?} thread {t}: shaped slot allocated");
                    }
                });
            }
        });
        assert_eq!(exec.warm_contexts(), capacity);
        assert_eq!(
            exec.warm_alloc_events(),
            shaped,
            "{spec:?}: a slot allocated"
        );
    }
}

#[test]
fn every_slot_of_a_sharded_executor_is_warm_from_its_first_query() {
    let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 600, 93));
    let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 93);
    let config = deterministic();
    let capacity = 3;
    for shards in [1usize, 2, 3] {
        let (index, _) = ShardedIndex::build(Arc::clone(&data), shards, &IndexConfig::for_tests());
        for spec in matrix(data.series_len(), radius(&data, queries.series(0))) {
            let exec = ShardedExecutor::with_capacity(&index, capacity);
            assert_eq!(exec.warm_contexts(), 0);
            exec.prewarm(data.series(0), &QuerySpec::exact(), &config);
            assert_eq!(exec.warm_contexts(), capacity * shards);
            let barrier = std::sync::Barrier::new(capacity);
            std::thread::scope(|s| {
                for t in 0..capacity {
                    let (exec, queries, config, barrier) = (&exec, &queries, &config, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        for q in queries.iter() {
                            // A plain thread: the concurrent scatter, one
                            // context per shard pool.
                            let (_, _, allocs, _) = exec.run_one_traced(q, &spec, config);
                            assert_eq!(allocs, 0, "N={shards} {spec:?} thread {t}");
                        }
                    });
                }
            });
            assert_eq!(exec.warm_contexts(), capacity * shards);
        }
    }
}

#[test]
fn a_live_index_stays_warm_across_three_republishes() {
    let full = gen::generate(DatasetKind::RandomWalk, 460, 94);
    let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 94);
    let config = deterministic();
    let specs = matrix(full.series_len(), radius(&full, queries.series(0)));
    for shards in [1usize, 2] {
        let base = Arc::new(slice(&full, 0, 400));
        let (built, _) = ShardedIndex::build(base, shards, &IndexConfig::for_tests());
        let live = DeltaIndex::new(
            built,
            IngestOptions {
                republish_after: 20,
                max_epoch_age: None,
            },
        );
        live.prewarm(&config);
        let mut republishes = 0;
        for at in (400..460).step_by(10) {
            let report = live
                .insert_batch(&slice(&full, at, at + 10))
                .expect("ingest");
            republishes += usize::from(report.republished);
            // Whatever epoch is current — republished a moment ago or
            // not — its contexts answer allocation-free at once, and the
            // pinned core's pools are full.
            for spec in &specs {
                for q in queries.iter() {
                    let (_, _, allocs, _) = live.query_traced(q, spec, &config);
                    assert_eq!(allocs, 0, "N={shards} at {at} {spec:?}");
                }
            }
            let pinned = live.index();
            let exec = ShardedExecutor::with_capacity(&pinned, 2);
            exec.prewarm(queries.series(0), &QuerySpec::exact(), &config);
            assert_eq!(exec.warm_contexts(), 2 * shards);
        }
        assert_eq!(republishes, 3);
        assert_eq!(live.stats().republishes, 3);
    }
}
