//! `explore-ed` and `explore-dtw`: the paper's protocol. One index over
//! a random-walk collection, exact 1-NN queries answered one at a time
//! with all W workers inside each query (`Schedule::IntraQuery`).
//!
//! `explore-ed` prunes > 99.9 % of a 1 M-series collection, so its time
//! sits in `engine` (init, tree pass) and the `sax` lower-bound scan;
//! `explore-dtw` pays thousands of real DTW computations per query, so
//! its time sits in the `series` kernels. A kernel change must move the
//! second and leave the first nearly flat; an engine change the reverse.

use std::sync::Arc;
use std::time::{Duration, Instant};

use messi::baselines::paris::query::sims_search;
use messi::baselines::ucr::ucr_parallel;
use messi::baselines::ParisIndex;
use messi::series::distance::dtw::DtwParams;
use messi::series::Dataset;
use messi::{MessiIndex, QueryAnswer, QueryConfig, QueryExecutor, QuerySpec, Schedule};

use crate::gen::{self, Stream, SERIES_LEN};
use crate::harness::{
    answer_of, check_round, first_answer, micros, oracle_sample, oracles, report_build, rounds_for,
    series_in, series_of, to_answers, traced_query, traced_rounds, IndexShape, Latencies, Oracle,
    Run, TracedInput,
};
use crate::json::Json;
use crate::kernels;
use crate::stats;
use crate::verify::{Answer, Dist, Expect};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    Ed,
    Dtw,
}

/// Neighbours per query in the batch phase.
const KNN_K: usize = 10;
/// Series in the fixed sample no DTW answer may be beaten by.
const DTW_ORACLE_SAMPLE: usize = 2_000;

struct Sizes {
    series: usize,
    queries_per_round: usize,
    batch_queries: usize,
    /// The highest percentile with at least ten samples beyond it in a
    /// round of `queries_per_round`.
    tail_percentile: f64,
    min_rounds: usize,
}

pub fn run(run: &mut Run, flavor: Flavor) -> Result<(), String> {
    let sizes = match flavor {
        Flavor::Ed => Sizes {
            series: run.sized(1_000_000, 4_000),
            queries_per_round: run.sized(1_000, 40),
            batch_queries: run.sized(300, 16),
            tail_percentile: 99.0,
            min_rounds: 3,
        },
        Flavor::Dtw => Sizes {
            series: run.sized(20_000, 4_000),
            queries_per_round: run.sized(300, 10),
            batch_queries: 0,
            tail_percentile: 90.0,
            // One DTW query costs tens of milliseconds and the spread
            // between seeds comes from which queries were drawn, so the
            // time goes into distinct queries before it goes into rounds.
            min_rounds: 2,
        },
    };
    let (dist, spec) = match flavor {
        Flavor::Ed => (Dist::Euclidean, QuerySpec::exact()),
        Flavor::Dtw => (
            Dist::Dtw,
            QuerySpec::exact().with_dtw(DtwParams::paper_default(SERIES_LEN)),
        ),
    };

    let data = gen::dataset(run.generate(Stream::Data, 0, sizes.series));
    let queries = run.generate(Stream::Queries, 0, sizes.queries_per_round);
    run.note_count("series", sizes.series);
    run.note_count("queries_per_round", sizes.queries_per_round);

    // ED: full brute force for 16 sampled queries. DTW: a fixed sample
    // of the collection that no answer, of any query, may be beaten by.
    let oracle = match flavor {
        Flavor::Ed => {
            let sample = oracle_sample(sizes.queries_per_round);
            oracles(run, dist, &queries, &sample, || data.iter())
        }
        Flavor::Dtw => {
            let all: Vec<usize> = (0..sizes.queries_per_round).collect();
            let step = (data.len() / DTW_ORACLE_SAMPLE).max(1);
            oracles(run, dist, &queries, &all, || data.iter().step_by(step))
        }
    };

    // Set-up, several times over: build + executor + prewarm.
    let index_cfg = run.index_config();
    let query_cfg = run.query_config(run.w, false);
    let mut setup_s = Vec::new();
    let mut built = None;
    while run.wants_another_setup(&setup_s) {
        let i = setup_s.len();
        drop(built.take()); // one index resident at a time
        let t = Instant::now();
        let (index, stats) = run.tracer.span("build.index", run.root, i as u64, || {
            MessiIndex::build(Arc::clone(&data), &index_cfg)
        });
        let exec = QueryExecutor::with_capacity(&index, run.w);
        // Warm with a dataset member, as the daemon does: its cost does
        // not depend on which queries the seed drew.
        run.tracer.span("exec.prewarm", run.root, i as u64, || {
            exec.prewarm(data.series(0), &spec, &query_cfg);
        });
        setup_s.push(t.elapsed().as_secs_f64());
        drop(exec);
        built = Some((index, stats));
    }
    let (index, build_stats) = built.expect("at least one set-up");
    run.verifier.pass(setup_s.len() as u64);
    run.put("setup_s", stats::median(&setup_s));
    let shape = IndexShape::of_single(&index);
    run.put("index_bytes_per_series", shape.bytes_per_series());
    run.note_samples("setup_s_samples", &setup_s);
    // The executor the measured phases use (warm, like the timed ones).
    let exec = QueryExecutor::with_capacity(&index, run.w);
    exec.prewarm(data.series(0), &spec, &query_cfg);

    let series_at = series_in(&data);
    if run.opts.trace {
        report_build(run, &shape, &build_stats);
        kernels::run_rows(run, &data, series_of(&queries, 0));
        let plain_cfg = run.query_config(run.w, false);
        let traced_cfg = run.query_config(run.w, true);
        // The traced run spends its time on more kinds of work, so each
        // gets a subset of the queries.
        let traced_n = sizes.queries_per_round.min(match flavor {
            Flavor::Ed => run.sized(400, 40),
            Flavor::Dtw => run.sized(80, 10),
        });
        let queries = &queries[..traced_n * SERIES_LEN];
        let exact = traced_rounds(
            run,
            TracedInput {
                span: "exec.run_one",
                queries,
                dist,
                oracle: &oracle,
                engine_workers: run.w,
            },
            series_at,
            |q| exec.run_one(q, &spec, &plain_cfg).0,
            |q| exec.run_one_traced(q, &spec, &traced_cfg),
        );
        one_worker_counts(run, &exec, queries, &spec, flavor);
        if flavor == Flavor::Ed {
            other_cells(run, &exec, queries, &exact, &data);
            inter_scaling(run, &exec, queries, &data, &oracle, sizes.batch_queries);
            baselines(run, &data, queries, &exact);
        }
        return Ok(());
    }

    // Phase B: one query at a time, all W workers inside the query.
    let share = if flavor == Flavor::Ed { 0.6 } else { 0.9 };
    let budget = run
        .budget(share)
        .saturating_sub(Duration::from_secs_f64(setup_s.iter().sum()));
    let mut answers = Vec::new();
    let mut walls = Vec::new();
    let rounds = rounds_for(budget, sizes.min_rounds, |_| {
        let t_round = Instant::now();
        let (lat, ans) = query_round(&exec, &queries, &spec, &query_cfg);
        walls.push(t_round.elapsed().as_secs_f64());
        answers.push(ans);
        lat
    });
    let lat = Latencies { rounds };
    for round in &answers {
        check_round(&mut run.verifier, dist, &queries, round, series_at, &oracle);
    }
    run.put("query_p50_us", lat.p50());
    run.put("query_tail_us", lat.percentile(sizes.tail_percentile));
    run.note_count("rounds", lat.rounds.len());
    run.note_samples("round_p50_us", &lat.round_medians());
    run.note("tail_percentile", Json::Num(sizes.tail_percentile));

    match flavor {
        // The same rounds as closed-loop throughput: one client, W cores.
        Flavor::Dtw => {
            let per_s: Vec<f64> = walls
                .iter()
                .map(|w| sizes.queries_per_round as f64 / w)
                .collect();
            run.put("throughput_per_s", stats::median(&per_s));
        }
        // Phase C: the same index used differently — a k-NN batch with
        // W whole queries in flight, one worker each.
        Flavor::Ed => {
            let batch = gen::dataset(queries[..sizes.batch_queries * SERIES_LEN].to_vec());
            let budget = run.budget(0.3);
            let mut results = Vec::new();
            let qps = rounds_for(budget, 3, |_| {
                let t = Instant::now();
                let (answers, _) = exec.run_batch(
                    &batch,
                    &QuerySpec::knn(KNN_K),
                    Schedule::InterQuery { parallelism: run.w },
                    &query_cfg,
                );
                let wall = t.elapsed().as_secs_f64();
                results.push(answers);
                sizes.batch_queries as f64 / wall
            });
            for answers in &results {
                check_knn_batch(run, &queries, answers, &data, &oracle);
            }
            run.put("throughput_per_s", stats::median(&qps));
            run.note_count("batch_rounds", qps.len());
            run.note_count("batch_queries", sizes.batch_queries);
        }
    }
    Ok(())
}

/// One untraced round: every query once; per-query latency and answer.
fn query_round(
    exec: &QueryExecutor<'_>,
    queries: &[f32],
    spec: &QuerySpec,
    config: &QueryConfig,
) -> (Vec<f64>, Vec<Option<Answer>>) {
    let n = queries.len() / SERIES_LEN;
    let mut lat = Vec::with_capacity(n);
    let mut answers = Vec::with_capacity(n);
    for q in 0..n {
        let t = Instant::now();
        let (found, _) = exec.run_one(series_of(queries, q), spec, config);
        lat.push(micros(t.elapsed()));
        answers.push(first_answer(&found));
    }
    (lat, answers)
}

fn check_knn_batch(
    run: &mut Run,
    queries: &[f32],
    answers: &[Vec<QueryAnswer>],
    data: &Dataset,
    oracle: &Oracle,
) {
    for (q, found) in answers.iter().enumerate() {
        let expect = Expect {
            len: Some(KNN_K),
            oracle: oracle.get(&q).copied(),
            ..Expect::default()
        };
        run.verifier.check_answers(
            Dist::Euclidean,
            series_of(queries, q),
            &to_answers(found),
            series_in(data),
            expect,
        );
    }
}

/// Work counts with one worker, where they repeat exactly: no race
/// between workers decides which candidate tightens the bound first.
fn one_worker_counts(
    run: &mut Run,
    exec: &QueryExecutor<'_>,
    queries: &[f32],
    spec: &QuerySpec,
    flavor: Flavor,
) {
    let n = (queries.len() / SERIES_LEN).min(match flavor {
        Flavor::Ed => 200,
        Flavor::Dtw => 30,
    });
    let config = run.single_worker_config(false);
    let parent = run.tracer.begin("harness.counts", run.root, 0);
    let (mut lb, mut real, mut updates) = (0u64, 0u64, 0u64);
    for q in 0..n {
        let (_, stats, _) = traced_query(&mut run.tracer, "exec.run_one", parent, q as u64, || {
            exec.run_one(series_of(queries, q), spec, &config)
        });
        lb += stats.lb_distance_calcs;
        real += stats.real_distance_calcs;
        updates += stats.bsf_updates;
    }
    run.tracer.end(parent);
    run.verifier.pass(n as u64);
    run.put("engine.lb_calcs_per_query", lb as f64 / n as f64);
    run.put("engine.real_calcs_per_query", real as f64 / n as f64);
    run.put(
        "engine.bsf_updates_per_real_calc",
        updates as f64 / real.max(1) as f64,
    );
}

/// The cells no workload headlines: k-NN, ε-range and (1+ε)-approximate
/// search, one query at a time, mean latency.
fn other_cells(
    run: &mut Run,
    exec: &QueryExecutor<'_>,
    queries: &[f32],
    exact: &[Option<Answer>],
    data: &Dataset,
) {
    const APPROX_EPSILON: f32 = 0.1;
    let n = exact.len().min(run.sized(100, 8));
    let config = run.query_config(run.w, false);
    let parent = run.tracer.begin("harness.cells", run.root, 0);
    let mean_us = |run: &mut Run,
                   name,
                   spec_of: &dyn Fn(f32) -> QuerySpec,
                   expect_of: &dyn Fn(f64) -> Expect| {
        let mut total = Duration::ZERO;
        for (q, nearest) in exact.iter().enumerate().take(n) {
            let Some(nearest) = *nearest else { continue };
            let spec = spec_of(nearest.dist_sq);
            let (found, _, elapsed) =
                traced_query(&mut run.tracer, "exec.run_one", parent, q as u64, || {
                    exec.run_one(series_of(queries, q), &spec, &config)
                });
            total += elapsed;
            run.verifier.check_answers(
                Dist::Euclidean,
                series_of(queries, q),
                &to_answers(&found),
                series_in(data),
                expect_of(f64::from(nearest.dist_sq)),
            );
        }
        run.put(name, micros(total) / n as f64);
    };
    // k-NN: k answers, the first no worse than the exact 1-NN.
    mean_us(run, "engine.knn_us", &|_| QuerySpec::knn(KNN_K), &|nn| {
        Expect {
            len: Some(KNN_K),
            oracle: Some(nn),
            ..Expect::default()
        }
    });
    // Range: radius 10 % past the nearest neighbour, so never empty.
    mean_us(
        run,
        "engine.range_us",
        &|nn| QuerySpec::range(nn * 1.21),
        &|nn| Expect {
            len: None,
            within: Some(nn * 1.21),
            oracle: Some(nn),
        },
    );
    // Approximate with δ = 1: the (1+ε) bound is deterministic.
    let slack = f64::from((1.0 + APPROX_EPSILON) * (1.0 + APPROX_EPSILON));
    mean_us(
        run,
        "engine.approx_us",
        &|_| QuerySpec::approximate(APPROX_EPSILON, 1.0),
        &|nn| Expect {
            len: Some(1),
            oracle: Some(nn * slack),
            ..Expect::default()
        },
    );
    run.tracer.end(parent);
}

/// Batch throughput with W queries in flight over one in flight.
fn inter_scaling(
    run: &mut Run,
    exec: &QueryExecutor<'_>,
    queries: &[f32],
    data: &Dataset,
    oracle: &Oracle,
    batch_queries: usize,
) {
    if run.w == 1 {
        run.note(
            "exec.inter_scaling",
            Json::obj([("skipped", Json::str("cores"))]),
        );
        return;
    }
    let n = (batch_queries / 2).max(1);
    let batch = gen::dataset(queries[..n * SERIES_LEN].to_vec());
    let config = run.query_config(run.w, false);
    let qps = |run: &mut Run, parallelism: usize| {
        let span = run
            .tracer
            .begin("exec.run_batch", run.root, parallelism as u64);
        let t = Instant::now();
        let (answers, _) = exec.run_batch(
            &batch,
            &QuerySpec::knn(KNN_K),
            Schedule::InterQuery { parallelism },
            &config,
        );
        let wall = t.elapsed().as_secs_f64();
        run.tracer.end(span);
        check_knn_batch(run, queries, &answers, data, oracle);
        n as f64 / wall
    };
    let at_one = qps(run, 1);
    let at_w = qps(run, run.w);
    run.put("exec.inter_scaling", at_w / at_one);
}

/// The paper's comparison line: the same queries through in-memory
/// ParIS (SIMS) and the parallel UCR-suite scan.
fn baselines(run: &mut Run, data: &Arc<Dataset>, queries: &[f32], exact: &[Option<Answer>]) {
    let n = exact.len().min(run.sized(10, 3));
    let config = run.query_config(run.w, false);
    let index_config = run.index_config();
    let (paris, _) = run.tracer.span("baselines.paris_build", run.root, 0, || {
        ParisIndex::build(Arc::clone(data), &index_config)
    });
    let mean_us = |run: &mut Run, name, span_name, search: &dyn Fn(&[f32]) -> QueryAnswer| {
        let mut total = Duration::ZERO;
        for (q, nearest) in exact.iter().enumerate().take(n) {
            let query = series_of(queries, q);
            let span = run.tracer.begin(span_name, run.root, q as u64);
            let t = Instant::now();
            let found = search(query);
            total += t.elapsed();
            run.tracer.end(span);
            // A baseline must find what MESSI found.
            let expect = Expect {
                len: Some(1),
                oracle: nearest.map(|a| f64::from(a.dist_sq)),
                ..Expect::default()
            };
            run.verifier.check_answers(
                Dist::Euclidean,
                query,
                &[answer_of(&found)],
                series_in(data),
                expect,
            );
        }
        run.put(name, micros(total) / n as f64);
    };
    mean_us(
        run,
        "baselines.paris_query_us",
        "baselines.paris_query",
        &|q| sims_search(&paris, q, &config).0,
    );
    mean_us(run, "baselines.ucr_query_us", "baselines.ucr_query", &|q| {
        ucr_parallel(data, q, &config).0
    });
}
