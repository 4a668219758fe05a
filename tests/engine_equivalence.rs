//! Property-based equivalence of the unified query engine.
//!
//! All three search objectives — exact 1-NN, k-NN, and ε-range — are
//! adapters over one engine driver, so their answers are related by
//! construction and must stay related for *any* dataset, configuration,
//! and worker count:
//!
//! * each objective matches its brute-force oracle;
//! * `knn(k = 1)` equals `exact_search`;
//! * range search at ε = the k-NN's k-th distance returns a superset of
//!   the k-NN result (the k nearest all lie within that radius);
//! * batches through the pooled executor — every objective × metric ×
//!   schedule × worker count — are element-wise identical to the
//!   sequential single-query answers, and the pooled contexts record
//!   zero `alloc_events` after warm-up;
//! * the approximate objective at its exact corner
//!   (`Approx { epsilon: 0, delta: 1 }`) is bit-identical to `Exact` —
//!   answers *and* pruning counters — for every metric × schedule ×
//!   worker count.

use messi::prelude::*;
use messi::series::distance::euclidean::ed_sq_scalar;
use proptest::prelude::*;
use std::sync::Arc;

/// One randomly drawn scenario: a dataset and a full query configuration.
#[derive(Debug, Clone)]
struct Scenario {
    count: usize,
    seed: u64,
    num_workers: usize,
    num_queues: usize,
    k: usize,
    scalar_kernel: bool,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (30usize..250, 0u64..1_000_000),
        (1usize..=8, 1usize..=5, 1usize..=8),
        proptest::bool::ANY,
    )
        .prop_map(
            |((count, seed), (num_workers, num_queues, k), scalar_kernel)| Scenario {
                count,
                seed,
                num_workers,
                num_queues,
                k,
                scalar_kernel,
            },
        )
}

fn query_config(s: &Scenario) -> QueryConfig {
    QueryConfig {
        num_workers: s.num_workers,
        num_queues: s.num_queues,
        kernel: if s.scalar_kernel {
            Kernel::Scalar
        } else {
            Kernel::Auto
        },
        collect_breakdown: false,
        run_batch: messi::index::RunBatchPolicy::default(),
    }
}

fn build_index(s: &Scenario) -> (Arc<Dataset>, MessiIndex) {
    let data = Arc::new(messi::series::gen::generate(
        DatasetKind::RandomWalk,
        s.count,
        s.seed,
    ));
    let config = IndexConfig {
        segments: 8,
        num_workers: 4,
        chunk_size: 32,
        leaf_capacity: 16,
        initial_buffer_capacity: 5,
    };
    let (index, _) = MessiIndex::build(Arc::clone(&data), &config);
    (data, index)
}

fn brute_force_knn(data: &Dataset, query: &[f32], k: usize) -> Vec<(u32, f32)> {
    let mut all: Vec<(u32, f32)> = data
        .iter()
        .enumerate()
        .map(|(i, s)| (i as u32, ed_sq_scalar(query, s)))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-3 * b.max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_objectives_agree_with_brute_force_and_each_other(s in scenario()) {
        let (data, index) = build_index(&s);
        let config = query_config(&s);
        let queries =
            messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 2, s.seed);
        let k = s.k.min(data.len());

        for q in queries.iter() {
            // --- exact 1-NN matches brute force ---
            let (one, _) = index.search(q, &config);
            let (_, bf_nn) = data.nearest_neighbor_brute_force(q);
            prop_assert!(
                close(one.dist_sq, bf_nn),
                "1-NN {} vs brute force {bf_nn} ({s:?})",
                one.dist_sq
            );

            // --- k-NN matches brute force, ascending, no duplicates ---
            let (knn, _) = index.search_knn(q, k, &config);
            let expect = brute_force_knn(&data, q, k);
            prop_assert_eq!(knn.len(), k);
            for (got, (_, bf)) in knn.iter().zip(&expect) {
                prop_assert!(
                    close(got.dist_sq, *bf),
                    "k-NN {} vs brute force {bf} ({s:?})",
                    got.dist_sq
                );
            }
            for w in knn.windows(2) {
                prop_assert!(w[0].dist_sq <= w[1].dist_sq + 1e-6);
            }
            let mut positions: Vec<u64> = knn.iter().map(|a| a.pos).collect();
            positions.sort_unstable();
            positions.dedup();
            prop_assert_eq!(positions.len(), k, "duplicate k-NN positions");

            // --- knn(k = 1) equals exact_search ---
            let (top1, _) = index.search_knn(q, 1, &config);
            prop_assert!(
                close(top1[0].dist_sq, one.dist_sq),
                "knn(1) {} vs exact {} ({s:?})",
                top1[0].dist_sq,
                one.dist_sq
            );

            // --- range at the k-th distance is a superset of k-NN ---
            // A hair of slack keeps SIMD-vs-scalar ulp disagreement at the
            // radius boundary from turning containment into a coin flip.
            let kth = knn.last().expect("k >= 1").dist_sq;
            let eps = kth * (1.0 + 1e-3) + 1e-6;
            let (hits, _) = index.search_range(q, eps, &config);
            prop_assert!(hits.len() >= k, "{} range hits < k = {k} ({s:?})", hits.len());
            for a in &knn {
                prop_assert!(
                    hits.iter().any(|h| h.pos == a.pos),
                    "k-NN member {} (d = {}) missing from range at ε = {eps} ({s:?})",
                    a.pos,
                    a.dist_sq
                );
            }
            // And every range hit is genuinely within the radius.
            for h in &hits {
                let d = ed_sq_scalar(q, data.series(h.pos as usize));
                prop_assert!(
                    d <= eps * (1.0 + 1e-3),
                    "range hit {} at distance {d} outside ε = {eps} ({s:?})",
                    h.pos
                );
            }
        }
    }

    #[test]
    fn member_queries_find_themselves_under_any_config(s in scenario()) {
        let (data, index) = build_index(&s);
        let config = query_config(&s);
        let probe = (s.seed as usize) % data.len();
        let q = data.series(probe).to_vec();
        let (one, _) = index.search(&q, &config);
        prop_assert_eq!(one.dist_sq, 0.0);
        let (knn, _) = index.search_knn(&q, 1, &config);
        prop_assert_eq!(knn[0].dist_sq, 0.0);
        let (hits, _) = index.search_range(&q, 0.0, &config);
        prop_assert!(hits.iter().any(|h| h.pos == probe as u64));
    }
}

/// Every cell of the Objective × Metric matrix for one scenario: exact,
/// k-NN, and range, under Euclidean and banded DTW. The range radius is
/// anchored to the scenario's k-th Euclidean neighbor so results are
/// non-trivial for both metrics (DTW ≤ ED, so the DTW radius matches at
/// least as much).
fn matrix_specs(data: &Dataset, index: &MessiIndex, s: &Scenario, k: usize) -> Vec<QuerySpec> {
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 1, s.seed);
    let (knn, _) = index.search_knn(queries.series(0), k, &query_config(s));
    let epsilon_sq = knn.last().expect("k >= 1").dist_sq * 1.5 + 1e-3;
    let params = DtwParams::paper_default(data.series_len());
    vec![
        QuerySpec::exact(),
        QuerySpec::knn(k),
        QuerySpec::range(epsilon_sq),
        QuerySpec::exact().with_dtw(params),
        QuerySpec::knn(k).with_dtw(params),
        QuerySpec::range(epsilon_sq).with_dtw(params),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pooled_batches_match_sequential_single_query_answers(s in scenario()) {
        let (data, index) = build_index(&s);
        let config = query_config(&s);
        let k = s.k.min(data.len());
        let queries =
            messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 3, s.seed ^ 1);
        let exec = index.executor();

        for spec in matrix_specs(&data, &index, &s, k) {
            // --- Inter-query schedule: each query runs single-threaded,
            // so batch answers are bit-identical to a sequential
            // single-query run under the same 1-worker/1-queue config.
            let (batch, agg) = exec.run_batch(
                &queries,
                &spec,
                Schedule::InterQuery { parallelism: s.num_workers },
                &config,
            );
            prop_assert_eq!(agg.queries, queries.len() as u64);
            prop_assert_eq!(batch.len(), queries.len());
            let per_query = QueryConfig { num_workers: 1, num_queues: 1, ..config.clone() };
            for (qi, got) in batch.iter().enumerate() {
                let (want, _) = exec.run_one(queries.series(qi), &spec, &per_query);
                prop_assert_eq!(
                    got, &want,
                    "inter batch diverged from sequential answers: {:?} query {}",
                    spec, qi
                );
            }

            // --- Intra-query schedule: same worker complement as a
            // direct single query; multi-worker runs may break exact
            // distance ties differently, so compare by distance.
            let (batch, agg) = exec.run_batch(&queries, &spec, Schedule::IntraQuery, &config);
            prop_assert_eq!(agg.queries, queries.len() as u64);
            for (qi, got) in batch.iter().enumerate() {
                let (want, _) = exec.run_one(queries.series(qi), &spec, &config);
                prop_assert_eq!(got.len(), want.len(), "{:?} query {}", spec, qi);
                for (g, w) in got.iter().zip(&want) {
                    prop_assert!(
                        close(g.dist_sq, w.dist_sq),
                        "intra batch {} vs single {} ({:?} query {})",
                        g.dist_sq, w.dist_sq, spec, qi
                    );
                }
            }
        }
    }

    #[test]
    fn approx_exact_corner_is_bit_identical_to_exact(s in scenario()) {
        // `Approx { epsilon: 0, delta: 1 }` has a bound scale of exactly
        // 1.0 and an unlimited leaf budget: every comparison the driver
        // makes is the one exact search makes. The observable consequence
        // — here made a property over the full metric × schedule × worker
        // matrix — is bit-identical answers AND pruning counters.
        let (data, index) = build_index(&s);
        let config = query_config(&s);
        let queries =
            messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 3, s.seed ^ 3);
        let params = DtwParams::paper_default(data.series_len());
        let exec = index.executor();

        for (exact_spec, approx_spec) in [
            (QuerySpec::exact(), QuerySpec::approximate(0.0, 1.0)),
            (
                QuerySpec::exact().with_dtw(params),
                QuerySpec::approximate(0.0, 1.0).with_dtw(params),
            ),
        ] {
            // --- Per-query, single-worker (fully deterministic): every
            // pruning counter must agree, not just the answers.
            let per_query = QueryConfig { num_workers: 1, num_queues: 1, ..config.clone() };
            for q in queries.iter() {
                let (a, sa) = exec.run_one(q, &exact_spec, &per_query);
                let (b, sb) = exec.run_one(q, &approx_spec, &per_query);
                prop_assert_eq!(&a, &b, "answers diverged ({:?})", s);
                prop_assert_eq!(sa.lb_distance_calcs, sb.lb_distance_calcs, "lb calcs");
                prop_assert_eq!(sa.real_distance_calcs, sb.real_distance_calcs, "real calcs");
                prop_assert_eq!(sa.bsf_updates, sb.bsf_updates, "bsf updates");
                prop_assert_eq!(sa.nodes_inserted, sb.nodes_inserted, "queue insertions");
                prop_assert_eq!(sa.nodes_popped, sb.nodes_popped, "queue pops");
                prop_assert_eq!(sa.nodes_filtered_on_pop, sb.nodes_filtered_on_pop, "second filtering");
                prop_assert_eq!(
                    sa.initial_bsf_dist_sq.to_bits(), sb.initial_bsf_dist_sq.to_bits(),
                    "home-leaf seed"
                );
                prop_assert_eq!(sb.approx_inflation_prunes, 0u64, "ε = 0 never inflates");
                prop_assert_eq!(sb.stop_reason, Some(StopReason::Completed), "δ = 1 never stops early");
            }

            // --- Inter-query schedule at the scenario's worker count:
            // each query runs single-threaded, so the whole batch is
            // deterministic for any parallelism — bit-identical again.
            let (a, sa) = exec.run_batch(
                &queries, &exact_spec,
                Schedule::InterQuery { parallelism: s.num_workers }, &config,
            );
            let (b, sb) = exec.run_batch(
                &queries, &approx_spec,
                Schedule::InterQuery { parallelism: s.num_workers }, &config,
            );
            prop_assert_eq!(&a, &b, "inter-batch answers diverged ({:?})", s);
            prop_assert_eq!(sa.lb_distance_calcs, sb.lb_distance_calcs);
            prop_assert_eq!(sa.real_distance_calcs, sb.real_distance_calcs);
            prop_assert_eq!(sa.bsf_updates, sb.bsf_updates);

            // --- Intra-query schedule at the scenario's worker count:
            // multi-worker runs race the shared BSF, so exact distance
            // ties may resolve to different positions and counters may
            // wobble — but the minimal distance is unique, so the
            // distances must still agree bit for bit.
            let (a, _) = exec.run_batch(&queries, &exact_spec, Schedule::IntraQuery, &config);
            let (b, _) = exec.run_batch(&queries, &approx_spec, Schedule::IntraQuery, &config);
            prop_assert_eq!(a.len(), b.len());
            for (qa, qb) in a.iter().zip(&b) {
                prop_assert_eq!(qa.len(), qb.len());
                for (x, y) in qa.iter().zip(qb) {
                    prop_assert_eq!(
                        x.dist_sq.to_bits(), y.dist_sq.to_bits(),
                        "intra distances diverged ({:?})", s
                    );
                }
            }
        }
    }

    #[test]
    fn pooled_contexts_stay_allocation_free_after_warmup(s in scenario()) {
        let (data, index) = build_index(&s);
        let config = query_config(&s);
        let k = s.k.min(data.len());
        let queries =
            messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 4, s.seed ^ 2);
        let parallelism = s.num_workers;
        let mut exec = QueryExecutor::with_capacity(&index, parallelism);

        // Deterministic warm-up: every pooled context answers one query.
        exec.prewarm(queries.series(0), &QuerySpec::exact(), &config);
        prop_assert!(exec.warm_alloc_events() > 0, "warm-up builds the scratch");

        // For each cell × schedule, the first batch may reshape the
        // scratch (queue-count changes between schedules are resets, and
        // growth is counted); an identical second batch must record zero
        // further alloc_events in any pooled context.
        for spec in matrix_specs(&data, &index, &s, k) {
            for schedule in [
                Schedule::IntraQuery,
                Schedule::InterQuery { parallelism },
            ] {
                let _ = exec.run_batch(&queries, &spec, schedule, &config);
                let warm = exec.warm_alloc_events();
                let _ = exec.run_batch(&queries, &spec, schedule, &config);
                prop_assert_eq!(
                    exec.warm_alloc_events(),
                    warm,
                    "repeat batch allocated pooled scratch: {:?} {:?}",
                    spec,
                    schedule
                );
            }
        }
    }
}

/// FNV-1a over a stream of words.
fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every DTW cell through `MessiIndex::search*_dtw` — exact, k-NN
/// (k = 5), range, approximate at δ = 0 and δ = 0.5 — over 1 500 series
/// × 20 queries, one worker, one queue, per-leaf scans: for each cell a
/// fingerprint of every answer's `(pos, dist_sq bits)` and every query's
/// `(lb, real, bsf)` counters, then the counter totals. Taken with a DTW
/// kernel that abandoned on the row minimum alone, so a kernel that
/// returns another float, or abandons a candidate below its bound, moves
/// a row.
#[test]
fn dtw_answers_and_counters_are_pinned() {
    const PINNED: [(u64, u64, u64, u64); 5] = [
        (13_277_969_894_379_988_540, 32_092, 4_541, 47),
        (6_506_541_954_168_986_733, 35_411, 5_788, 244),
        (3_856_107_632_402_343_845, 43_463, 9_670, 0),
        (2_502_101_147_935_613_698, 326, 249, 0),
        (6_614_520_271_468_012_373, 25_129, 3_774, 17),
    ];
    let data = Arc::new(messi::series::gen::generate(
        DatasetKind::RandomWalk,
        1_500,
        2_512,
    ));
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 20, 2_512);
    let params = DtwParams::paper_default(data.series_len());
    let sequential = IndexConfig {
        num_workers: 1,
        ..IndexConfig::for_tests()
    };
    let (index, _) = MessiIndex::build(Arc::clone(&data), &sequential);
    let config = QueryConfig {
        num_workers: 1,
        num_queues: 1,
        run_batch: messi::index::RunBatchPolicy::PerLeaf,
        ..QueryConfig::default()
    };
    let mut rows = [(0xcbf2_9ce4_8422_2325u64, 0u64, 0u64, 0u64); 5];
    let mut record = |cell: usize, answers: &[QueryAnswer], stats: QueryStats| {
        let row = &mut rows[cell];
        for a in answers {
            row.0 = fnv1a(fnv1a(row.0, a.pos), u64::from(a.dist_sq.to_bits()));
        }
        let counters = [
            stats.lb_distance_calcs,
            stats.real_distance_calcs,
            stats.bsf_updates,
        ];
        row.0 = counters.iter().fold(row.0, |h, &c| fnv1a(h, c));
        row.1 += counters[0];
        row.2 += counters[1];
        row.3 += counters[2];
    };
    for q in queries.iter() {
        let (nn, stats) = index.search_dtw(q, params, &config);
        record(0, &[nn], stats);
        let (knn, stats) = index.search_knn_dtw(q, 5, params, &config);
        record(1, &knn, stats);
        let (within, stats) = index.search_range_dtw(q, nn.dist_sq * 4.0 + 1.0, params, &config);
        record(2, &within, stats);
        for (cell, delta) in [(3, 0.0), (4, 0.5)] {
            let (a, stats) = index.search_approximate_bounded_dtw(q, 0.1, delta, params, &config);
            record(cell, &[a], stats);
        }
    }
    assert_eq!(rows, PINNED);
}
