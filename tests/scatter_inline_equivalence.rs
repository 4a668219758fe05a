//! Which threads answer a sharded query is an execution detail: the
//! **inline** seed-first walk a pool worker gets (a daemon handler, an
//! inter-query batch worker), the **concurrent** scatter a plain thread
//! gets, and one index behind [`ShardedIndex::from_single`] must answer
//! bit-identically — positions and `dist_sq` bits — for every cell of
//! the Objective × Metric matrix, at shard counts {1, 2, 3, 5}, under
//! both forced kernels, and without touching the allocator once the
//! pools are prewarmed.
//!
//! The second half is about *work*, which the two shapes are allowed to
//! differ in: with every query's neighbour in the **last** shard, a walk
//! in shard-id order sends the earlier shards through their whole tree
//! pass against their own weak seeds (measured at this scale: 14–30 × the
//! lower-bound calculations of one index over the same data). Seeding
//! every shard first and searching in ascending seed order must keep the
//! count within 1.5 × of one index at two shards, and within another
//! half of it per further shard (every shard bounds its own root nodes,
//! which at test scale is most of what a well-seeded query does).
//!
//! Every query here runs single-worker/single-queue: evaluation order is
//! deterministic, so the comparison is exact — and nothing in this
//! binary nests a pool dispatch, which lets the tests assert that
//! `WorkerPool::nested_spawns` does not move while pool workers answer.

use messi::prelude::*;
use messi::series::gen::{self, DatasetKind};
use messi::sync::WorkerPool;
use std::sync::{Arc, Mutex};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 5];

fn query_config(kernel: Kernel) -> QueryConfig {
    QueryConfig {
        num_workers: 1,
        num_queues: 1,
        kernel,
        ..QueryConfig::default()
    }
}

/// The full Objective × Metric matrix, approximate search pinned at its
/// exact corner (ε = 0, δ = 1), where bit-identity is promised.
fn matrix(series_len: usize, range_eps_sq: f32) -> Vec<(String, QuerySpec)> {
    let params = DtwParams::paper_default(series_len);
    [
        ("exact", QuerySpec::exact()),
        ("knn", QuerySpec::knn(5)),
        ("range", QuerySpec::range(range_eps_sq)),
        ("approx(0,1)", QuerySpec::approximate(0.0, 1.0)),
    ]
    .iter()
    .flat_map(|(tag, spec)| {
        [
            (format!("{tag}/ed"), *spec),
            (format!("{tag}/dtw"), spec.with_dtw(params)),
        ]
    })
    .collect()
}

fn assert_bit_identical(tag: &str, got: &[QueryAnswer], want: &[QueryAnswer]) {
    assert_eq!(got.len(), want.len(), "{tag}: result-set size diverged");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.pos, b.pos, "{tag}[{i}]: position diverged");
        assert_eq!(
            a.dist_sq.to_bits(),
            b.dist_sq.to_bits(),
            "{tag}[{i}]: dist_sq bits diverged ({} vs {})",
            a.dist_sq,
            b.dist_sq
        );
    }
}

/// One query's answers and its allocation-event delta.
type Traced = (Vec<QueryAnswer>, u64);

/// Answers every query from inside a two-worker pool — the position a
/// daemon handler is in — and returns the answers with each query's
/// allocation-event delta, in query order.
fn answer_from_pool_workers(
    exec: &ShardedExecutor<'_>,
    queries: &Dataset,
    spec: &QuerySpec,
    config: &QueryConfig,
) -> Vec<Traced> {
    let pool = WorkerPool::new(2);
    let slots: Vec<Mutex<Option<Traced>>> = (0..queries.len()).map(|_| Mutex::new(None)).collect();
    let nested_before = WorkerPool::nested_spawns();
    pool.run(2, &|pid| {
        assert!(WorkerPool::on_worker_thread());
        for qi in (pid..queries.len()).step_by(2) {
            let (answers, _, allocs, per_shard) =
                exec.run_one_traced(queries.series(qi), spec, config);
            assert_eq!(per_shard.len(), exec.index().num_shards());
            *slots[qi].lock().unwrap() = Some((answers, allocs));
        }
    });
    assert_eq!(
        WorkerPool::nested_spawns(),
        nested_before,
        "a pool worker's scatter must not spawn threads"
    );
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every query answered"))
        .collect()
}

#[test]
fn inline_walk_concurrent_scatter_and_single_index_answer_bit_identically() {
    let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 600, 141));
    let index_config = IndexConfig::for_tests();
    let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 141);
    let (single, _) = MessiIndex::build(Arc::clone(&data), &index_config);
    let single = ShardedIndex::from_single(single);
    let reference = ShardedExecutor::with_capacity(&single, 2);

    // A radius wide enough for a non-trivial ED result set (and, being
    // larger than DTW ≤ ED distances, for DTW too).
    let (nn, _) = reference.run_one(
        queries.series(0),
        &QuerySpec::exact(),
        &query_config(Kernel::Auto),
    );
    let specs = matrix(data.series_len(), nn[0].dist_sq * 4.0 + 1.0);

    for n in SHARD_COUNTS {
        let (sharded, _) = ShardedIndex::build(Arc::clone(&data), n, &index_config);
        let exec = ShardedExecutor::with_capacity(&sharded, 2);
        for kernel in [Kernel::Simd, Kernel::Scalar] {
            let config = query_config(kernel);
            exec.prewarm(data.series(0), &QuerySpec::exact(), &config);
            reference.prewarm(data.series(0), &QuerySpec::exact(), &config);
            for (tag, spec) in &specs {
                let tag = format!("N={n} {kernel:?} {tag}");
                let inline = answer_from_pool_workers(&exec, &queries, spec, &config);
                for (qi, (from_worker, worker_allocs)) in inline.iter().enumerate() {
                    let q = queries.series(qi);
                    // This is a plain thread: the concurrent scatter.
                    assert!(!WorkerPool::on_worker_thread());
                    let (from_plain, _, plain_allocs, _) = exec.run_one_traced(q, spec, &config);
                    let (want, _) = reference.run_one(q, spec, &config);
                    assert_bit_identical(&format!("{tag} q{qi} inline"), from_worker, &want);
                    assert_bit_identical(&format!("{tag} q{qi} concurrent"), &from_plain, &want);
                    assert_eq!(*worker_allocs, 0, "{tag} q{qi}: inline walk allocated");
                    assert_eq!(plain_allocs, 0, "{tag} q{qi}: concurrent scatter allocated");
                }
            }
        }
    }
}

#[test]
fn both_batch_schedules_agree_bit_for_bit() {
    // InterQuery batch workers are pool workers (the inline walk);
    // IntraQuery runs from this plain thread (the concurrent scatter).
    let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 500, 142));
    let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 5, 142);
    let config = query_config(Kernel::Auto);
    let (_, nn_dist) = data.nearest_neighbor_brute_force(queries.series(0));
    let specs = matrix(data.series_len(), nn_dist * 4.0 + 1.0);
    for n in SHARD_COUNTS {
        let (sharded, _) = ShardedIndex::build(Arc::clone(&data), n, &IndexConfig::for_tests());
        let exec = ShardedExecutor::new(&sharded);
        for (tag, spec) in &specs {
            let (intra, agg_intra) = exec.run_batch(&queries, spec, Schedule::IntraQuery, &config);
            let (inter, agg_inter) = exec.run_batch(
                &queries,
                spec,
                Schedule::InterQuery { parallelism: 2 },
                &config,
            );
            assert_eq!(agg_intra.queries, queries.len() as u64);
            assert_eq!(agg_inter.queries, queries.len() as u64);
            for (qi, (a, b)) in inter.iter().zip(&intra).enumerate() {
                assert_bit_identical(&format!("N={n} {tag} q{qi} inter vs intra"), a, b);
            }
        }
    }
}

/// Noisy copies of members of the collection's last `1/n`-th: with the
/// remainder-first contiguous split every such member lives in the last
/// shard, and so does the query's neighbour.
fn queries_near_the_tail(data: &Dataset, n: usize, count: usize) -> Dataset {
    let tail_start = data.len() - data.len() / n;
    let mut flat = Vec::with_capacity(count * data.series_len());
    for qi in 0..count {
        let member = data.series(tail_start + (qi * 37) % (data.len() - tail_start));
        flat.extend(
            member
                .iter()
                .enumerate()
                .map(|(i, v)| v + 0.02 * ((i * 7 + qi * 13) as f32).sin()),
        );
    }
    Dataset::from_flat(flat, data.series_len()).expect("whole series")
}

#[test]
fn neighbour_in_the_last_shard_costs_at_most_half_an_index_more_per_shard() {
    let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 6_000, 143));
    // One build worker: the tree shape, and so every count below, is the
    // same on every run.
    let index_config = IndexConfig {
        num_workers: 1,
        ..IndexConfig::for_tests()
    };
    let config = query_config(Kernel::Auto);
    let spec = QuerySpec::exact();
    let (single, _) = MessiIndex::build(Arc::clone(&data), &index_config);
    let single = ShardedIndex::from_single(single);

    for n in [2usize, 3, 5] {
        let queries = queries_near_the_tail(&data, n, 24);
        let (sharded, _) = ShardedIndex::build(Arc::clone(&data), n, &index_config);
        for q in queries.iter() {
            let (nn, _) = data.nearest_neighbor_brute_force(q);
            assert_eq!(
                sharded.locate(nn as u64).0,
                n - 1,
                "the placement must be adversarial"
            );
        }
        // Inter-query batch workers walk the shards inline.
        let inter = Schedule::InterQuery { parallelism: 2 };
        let (_, one) = ShardedExecutor::new(&single).run_batch(&queries, &spec, inter, &config);
        let (_, walked) = ShardedExecutor::new(&sharded).run_batch(&queries, &spec, inter, &config);
        let ratio = walked.lb_distance_calcs as f64 / one.lb_distance_calcs as f64;
        let allowed = 1.0 + 0.5 * (n - 1) as f64;
        assert!(
            ratio <= allowed,
            "N={n}: the inline walk did {ratio:.2} × the lower-bound work of one index \
             ({} vs {}), more than {allowed} ×",
            walked.lb_distance_calcs,
            one.lb_distance_calcs
        );
    }
}
