//! What every workload shares: the run state, the metric tables, round
//! loops and the helpers that turn library answers into verifier input.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use messi::series::Dataset;
use messi::{
    BuildStats, IndexConfig, MessiIndex, QueryAnswer, QueryConfig, QueryStats, ShardedIndex,
};

use crate::gen::{self, Stream, SERIES_LEN};
use crate::json::Json;
use crate::stats;
use crate::trace::{SpanId, Tracer, NONE};
use crate::verify::{self, Answer, Dist, Verifier};

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["explore-ed", "explore-dtw", "serve-exact", "ingest-query"];

/// End-to-end metrics: every workload reports every one (untraced run).
/// README.md says what each means on each workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_tail_us", "us"),
    ("throughput_per_s", "1/s"),
    ("index_bytes_per_series", "B"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run). Every workload prints every name; a
/// layer the workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 76] = [
    ("series.ed_ns_per_call", "ns"),
    ("series.ed_scalar_ns_per_call", "ns"),
    ("series.lb_keogh_ns_per_call", "ns"),
    ("series.dtw_ns_per_call", "ns"),
    ("series.envelope_ns_per_call", "ns"),
    ("series.est_query_share_pct", "%"),
    ("sax.mindist_soa_ns_per_entry", "ns"),
    ("sax.mindist_soa_scalar_ns_per_entry", "ns"),
    ("sax.table_fill_ns", "ns"),
    ("sax.summarize_ns_per_series", "ns"),
    ("sax.est_query_share_pct", "%"),
    ("build.series_per_s", "1/s"),
    ("build.summarize_s", "s"),
    ("build.tree_s", "s"),
    ("build.num_leaves", "count"),
    ("build.leaf_fill", "ratio"),
    ("build.self_ms", "ms"),
    ("node.node_bytes_per_series", "B"),
    ("node.entry_bytes_per_series", "B"),
    ("node.leaves_per_run_mean", "count"),
    ("engine.query_span_us", "us"),
    ("engine.init_us", "us"),
    ("engine.tree_pass_us", "us"),
    ("engine.pq_insert_us", "us"),
    ("engine.pq_remove_us", "us"),
    ("engine.dist_calc_us", "us"),
    ("engine.other_us", "us"),
    ("engine.lb_calcs_per_query", "count"),
    ("engine.real_calcs_per_query", "count"),
    ("engine.bsf_updates_per_real_calc", "ratio"),
    ("engine.knn_us", "us"),
    ("engine.range_us", "us"),
    ("engine.approx_us", "us"),
    ("engine.self_ms", "ms"),
    ("exec.run_one_overhead_us", "us"),
    ("exec.warm_alloc_events", "count"),
    ("exec.inter_scaling", "ratio"),
    ("exec.self_ms", "ms"),
    ("shard.fanout_overhead_us", "us"),
    ("shard.lb_calcs_ratio", "ratio"),
    ("shard.self_ms", "ms"),
    ("serve.framing_p50_us", "us"),
    ("serve.overhead_p50_us", "us"),
    ("serve.overhead_share_pct", "%"),
    ("serve.metrics_scrape_us_first", "us"),
    ("serve.metrics_scrape_us_last", "us"),
    ("serve.shed_count", "count"),
    ("serve.request_bytes", "B"),
    ("serve.self_ms", "ms"),
    ("persist.save_s", "s"),
    ("persist.load_s", "s"),
    ("persist.snapshot_bytes_per_series", "B"),
    ("persist.self_ms", "ms"),
    ("ingest.series_per_s", "1/s"),
    ("ingest.ack_p50_us", "us"),
    ("ingest.ack_p99_us", "us"),
    ("ingest.republish_count", "count"),
    ("ingest.republish_mean_ms", "ms"),
    ("ingest.log_bytes_per_user_byte", "ratio"),
    ("ingest.replay_s", "s"),
    ("ingest.recovery_s", "s"),
    ("ingest.query_p50_us_quiet", "us"),
    ("ingest.query_p50_us_paced", "us"),
    ("ingest.self_ms", "ms"),
    ("baselines.paris_query_us", "us"),
    ("baselines.ucr_query_us", "us"),
    ("baselines.self_ms", "ms"),
    ("harness.datagen_s", "s"),
    ("harness.oracle_s", "s"),
    ("harness.query_p50_us_untraced", "us"),
    ("harness.query_p50_us_traced", "us"),
    ("harness.trace_overhead_pct", "%"),
    ("harness.self_ms", "ms"),
    ("harness.span_count", "count"),
    ("harness.rounds", "count"),
    ("harness.samples_per_round", "count"),
];

/// Layers that report `<layer>.self_ms` from the spans.
pub const SPAN_LAYERS: [&str; 9] = [
    "build",
    "engine",
    "exec",
    "shard",
    "serve",
    "persist",
    "ingest",
    "baselines",
    "harness",
];

/// Divisor of every size in `--quick` mode.
pub const QUICK_DIVISOR: usize = 50;

#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// The state of one run of one workload.
pub struct Run {
    pub opts: Options,
    /// `nproc`: the value every worker, thread and connection count takes.
    pub w: usize,
    pub tracer: Tracer,
    /// The span everything else hangs under.
    pub root: SpanId,
    pub verifier: Verifier,
    values: BTreeMap<&'static str, f64>,
    /// Facts stamped on the output: sizes, rounds, seeds.
    pub stamp: Vec<(&'static str, Json)>,
    started: Instant,
}

impl Run {
    pub fn new(opts: Options, w: usize) -> Self {
        let started = Instant::now();
        let mut tracer = Tracer::new(opts.trace, started);
        let root = tracer.begin("harness.run", NONE, 0);
        Self {
            opts,
            w,
            tracer,
            root,
            verifier: Verifier::default(),
            values: BTreeMap::new(),
            stamp: Vec::new(),
            started,
        }
    }

    /// Records a metric under a name from one of the two tables.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is in neither table"
        );
        self.values.insert(name, value);
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn note(&mut self, key: &'static str, value: Json) {
        self.stamp.push((key, value));
    }

    pub fn note_count(&mut self, key: &'static str, count: usize) {
        self.note(key, Json::Int(count as i128));
    }

    pub fn note_samples(&mut self, key: &'static str, samples: &[f64]) {
        self.note(
            key,
            Json::Arr(samples.iter().map(|v| Json::Num(*v)).collect()),
        );
    }

    /// A full-size count, or a fiftieth of it (at least `floor`) under
    /// `--quick`.
    pub fn sized(&self, full: usize, floor: usize) -> usize {
        if self.opts.quick {
            (full / QUICK_DIVISOR).max(floor)
        } else {
            full
        }
    }

    /// Set-up is repeated and its median reported: five times at least,
    /// and a short set-up (tens of milliseconds) up to twenty-five times,
    /// until a second has gone into it. Quick and traced runs, which
    /// report no `setup_s` bound, set up twice.
    pub fn wants_another_setup(&self, times_s: &[f64]) -> bool {
        let reps = times_s.len();
        if self.opts.quick || self.opts.trace {
            return reps < 2;
        }
        reps < 5 || (reps < 25 && times_s.iter().sum::<f64>() < 1.0)
    }

    /// A share of the measuring window.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.opts.seconds * share)
    }

    /// Index configuration: library defaults, index workers pinned to W.
    pub fn index_config(&self) -> IndexConfig {
        IndexConfig {
            num_workers: self.w,
            ..IndexConfig::default()
        }
    }

    /// Query configuration: library defaults, search workers pinned.
    pub fn query_config(&self, workers: usize, collect_breakdown: bool) -> QueryConfig {
        QueryConfig {
            num_workers: workers,
            collect_breakdown,
            ..QueryConfig::default()
        }
    }

    /// One engine worker and one queue: how the daemon (with
    /// `query_workers = 1`) and an inter-query batch run a query.
    pub fn single_worker_config(&self, collect_breakdown: bool) -> QueryConfig {
        QueryConfig {
            num_queues: 1,
            ..self.query_config(1, collect_breakdown)
        }
    }

    /// Generates a collection, timing it into `harness.datagen_s`
    /// (accumulated: a workload may generate several).
    pub fn generate(&mut self, stream: Stream, first: u64, count: usize) -> Vec<f32> {
        let t = Instant::now();
        let span = self.tracer.begin("harness.datagen", self.root, 0);
        let flat = gen::random_walk_flat(self.opts.seed, stream, first, count, self.w);
        self.tracer.end(span);
        self.add_seconds("harness.datagen_s", t.elapsed());
        if stream == Stream::Queries {
            // Same seed, same bytes: visible in every output row.
            self.note(
                "queries_fingerprint",
                Json::str(format!("{:016x}", gen::fingerprint(&flat))),
            );
        }
        flat
    }

    pub fn add_seconds(&mut self, name: &'static str, d: Duration) {
        let so_far = self.value(name).unwrap_or(0.0);
        self.put(name, so_far + d.as_secs_f64());
    }

    /// Closes the root span and folds the spans into `<layer>.self_ms`.
    pub fn finish_spans(&mut self) {
        self.tracer.end(self.root);
        if !self.tracer.enabled() {
            return;
        }
        let by_layer = self.tracer.self_time_by_layer();
        for (name, _) in PER_LAYER {
            if let Some(layer) = name.strip_suffix(".self_ms") {
                debug_assert!(SPAN_LAYERS.contains(&layer));
                let ns = by_layer.get(layer).copied().unwrap_or(0);
                self.put(name, ns as f64 / 1e6);
            }
        }
        self.put("harness.span_count", self.tracer.spans().len() as f64);
    }

    pub fn origin(&self) -> Instant {
        self.started
    }

    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

/// Runs `round` repeatedly over the same inputs until `budget` is spent,
/// at least `min_rounds` times; returns what each round returned.
pub fn rounds_for<T>(
    budget: Duration,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> T,
) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_rounds || start.elapsed() < budget {
        out.push(round(out.len()));
        // Stop when the next round would overshoot by more than half.
        let mean = start.elapsed().div_f64(out.len() as f64);
        if out.len() >= min_rounds && start.elapsed() + mean.div_f64(2.0) > budget {
            break;
        }
    }
    out
}

/// Per-round latency samples in microseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    pub rounds: Vec<Vec<f64>>,
}

impl Latencies {
    /// Median over rounds of the per-round median.
    pub fn p50(&self) -> f64 {
        stats::round_median(&self.rounds, stats::median)
    }

    /// Median over rounds of the per-round `p`-th percentile.
    pub fn percentile(&self, p: f64) -> f64 {
        stats::round_median(&self.rounds, |r| {
            stats::percentile_sorted(&stats::sorted(r.to_vec()), p)
        })
    }

    pub fn round_medians(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| stats::median(r)).collect()
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Series `i` of a flat buffer.
pub fn series_of(flat: &[f32], i: usize) -> &[f32] {
    &flat[i * SERIES_LEN..(i + 1) * SERIES_LEN]
}

/// A library answer as the verifier takes it.
pub fn answer_of(a: &QueryAnswer) -> Answer {
    Answer {
        pos: a.pos,
        dist_sq: a.dist_sq,
    }
}

pub fn first_answer(answers: &[QueryAnswer]) -> Option<Answer> {
    answers.first().map(answer_of)
}

pub fn to_answers(answers: &[QueryAnswer]) -> Vec<Answer> {
    answers.iter().map(answer_of).collect()
}

/// Oracle distances by query index.
pub type Oracle = BTreeMap<usize, f64>;

/// One query inside a span named `name`, with the engine's own time
/// (`QueryStats::total_time`) as a child span; returns what the call
/// returned and how long it took on the harness's clock.
pub fn traced_query(
    tracer: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    request: u64,
    call: impl FnOnce() -> (Vec<QueryAnswer>, QueryStats),
) -> (Vec<QueryAnswer>, QueryStats, Duration) {
    let span = tracer.begin(name, parent, request);
    let t = Instant::now();
    let (found, stats) = call();
    let elapsed = t.elapsed();
    tracer.end(span);
    tracer.child_at_end("engine.query", span, stats.total_time.as_nanos() as u64);
    (found, stats, elapsed)
}

/// Resolves global positions in a library dataset.
pub fn series_in<'a>(data: &'a Dataset) -> impl Fn(u64) -> Option<&'a [f32]> + Copy + 'a {
    move |pos| {
        let pos = usize::try_from(pos).ok()?;
        (pos < data.len()).then(|| data.series(pos))
    }
}

/// Indices of the queries that get a full oracle: 16 spread evenly.
pub fn oracle_sample(num_queries: usize) -> Vec<usize> {
    let n = num_queries.min(16);
    (0..n).map(|i| i * num_queries / n).collect()
}

/// Brute-force oracle distances for the sampled queries, computed on W
/// threads (one query per task), timed into `harness.oracle_s`.
/// `candidates` yields the collection to scan for each query.
pub fn oracles<'a, I>(
    run: &mut Run,
    dist: Dist,
    queries: &[f32],
    sample: &[usize],
    candidates: impl Fn() -> I + Sync,
) -> Oracle
where
    I: Iterator<Item = &'a [f32]>,
{
    let t = Instant::now();
    let span = run.tracer.begin("harness.oracle", run.root, 0);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let found = std::sync::Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for _ in 0..run.w {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&q) = sample.get(i) else { break };
                let best = verify::oracle_best(dist, series_of(queries, q), candidates());
                found
                    .lock()
                    .expect("oracle threads do not panic")
                    .insert(q, best);
            });
        }
    });
    run.tracer.end(span);
    run.add_seconds("harness.oracle_s", t.elapsed());
    found.into_inner().expect("oracle threads do not panic")
}

/// Checks the 1-NN answers of one round: every answer is recomputed,
/// sampled queries also face their oracle. One operation per query.
pub fn check_round<'a>(
    verifier: &mut Verifier,
    dist: Dist,
    queries: &[f32],
    answers: &[Option<Answer>],
    series_at: impl Fn(u64) -> Option<&'a [f32]> + Copy,
    oracle: &Oracle,
) {
    for (q, answer) in answers.iter().enumerate() {
        verifier.check_answer(
            dist,
            series_of(queries, q),
            *answer,
            series_at,
            oracle.get(&q).copied(),
        );
    }
}

/// The size and shape of a built index, single or sharded.
pub struct IndexShape {
    pub series: usize,
    pub leaves: usize,
    pub leaf_fill: f64,
    pub node_bytes: usize,
    pub entry_bytes: usize,
    /// `(member leaves, entries)` of every leaf run.
    pub run_shapes: Vec<(usize, usize)>,
}

impl IndexShape {
    pub fn of_single(index: &MessiIndex) -> Self {
        Self {
            series: index.num_series(),
            leaves: index.num_leaves(),
            leaf_fill: index.leaf_fill_factor(),
            node_bytes: index.node_storage_bytes(),
            entry_bytes: index.entry_storage_bytes(),
            run_shapes: index.run_shapes(),
        }
    }

    pub fn of_sharded(index: &ShardedIndex) -> Self {
        Self {
            series: index.num_series() as usize,
            leaves: index.num_leaves(),
            leaf_fill: index.leaf_fill_factor(),
            node_bytes: index.node_storage_bytes(),
            entry_bytes: index.entry_storage_bytes(),
            run_shapes: index.shards().iter().flat_map(|s| s.run_shapes()).collect(),
        }
    }

    /// The end-to-end `index_bytes_per_series`: a count, it repeats
    /// exactly for a seed.
    pub fn bytes_per_series(&self) -> f64 {
        (self.node_bytes + self.entry_bytes) as f64 / self.series as f64
    }
}

/// The `build.*` and `node.*` rows of one build.
pub fn report_build(run: &mut Run, shape: &IndexShape, stats: &BuildStats) {
    let n = shape.series as f64;
    run.put("build.series_per_s", n / stats.total_time.as_secs_f64());
    run.put("build.summarize_s", stats.summarize_time.as_secs_f64());
    run.put("build.tree_s", stats.tree_time.as_secs_f64());
    run.put("build.num_leaves", shape.leaves as f64);
    run.put("build.leaf_fill", shape.leaf_fill);
    run.put("node.node_bytes_per_series", shape.node_bytes as f64 / n);
    run.put("node.entry_bytes_per_series", shape.entry_bytes as f64 / n);
    let leaves: usize = shape.run_shapes.iter().map(|(leaves, _)| leaves).sum();
    run.put(
        "node.leaves_per_run_mean",
        leaves as f64 / shape.run_shapes.len().max(1) as f64,
    );
}

/// The statistics of a scattered query with the phase breakdown of its
/// slowest shard: shards run side by side, so the slowest one sets the
/// query's time, and its phases plus `other` (dispatch, waiting, merge)
/// add up to the span. The library's merged breakdown sums over shards,
/// which is CPU time, not time on the clock.
pub fn critical_path(mut merged: QueryStats, per_shard: &[QueryStats]) -> QueryStats {
    if let Some(slowest) = per_shard.iter().max_by_key(|s| s.total_time) {
        merged.breakdown = slowest.breakdown;
    }
    merged
}

/// What [`traced_rounds`] runs over.
pub struct TracedInput<'a> {
    /// Name of the span around each call: the layer whose public
    /// function answers the query (`exec.run_one`, `shard.run_one`, …).
    pub span: &'static str,
    pub queries: &'a [f32],
    pub dist: Dist,
    pub oracle: &'a Oracle,
    /// Engine workers inside one query (spreads the lower-bound scan).
    pub engine_workers: usize,
}

/// The traced pass over a workload's 1-NN queries, in process. First
/// plain rounds (the untraced reference inside this run), then rounds
/// with a span per call and the Fig. 13 breakdown collected. `plain`
/// answers one query; `traced` also returns its statistics (breakdown
/// set) and allocation events. Reports the `engine.*` phases, the
/// executor overhead, the estimated kernel shares and what tracing
/// costs; returns the answers.
pub fn traced_rounds<'a>(
    run: &mut Run,
    input: TracedInput<'_>,
    series_at: impl Fn(u64) -> Option<&'a [f32]> + Copy,
    mut plain: impl FnMut(&[f32]) -> Vec<QueryAnswer>,
    mut traced: impl FnMut(&[f32]) -> (Vec<QueryAnswer>, QueryStats, u64),
) -> Vec<Option<Answer>> {
    let TracedInput {
        span: span_name,
        queries,
        dist,
        oracle,
        engine_workers,
    } = input;
    let n = queries.len() / SERIES_LEN;
    let budget = run.budget(0.15);

    // Plain and traced rounds alternate, so drift hits both alike.
    let mut phases = [0u64; 5];
    let (mut span_ns, mut engine_ns, mut alloc_events) = (0u64, 0u64, 0u64);
    let (mut lb, mut real) = (0u64, 0u64);
    let mut answers = Vec::new();
    let mut plain_rounds = Vec::new();
    let traced_lat = Latencies {
        rounds: rounds_for(2 * budget, 2, |round| {
            plain_rounds.push(
                (0..n)
                    .map(|q| {
                        let t = Instant::now();
                        std::hint::black_box(plain(series_of(queries, q)));
                        micros(t.elapsed())
                    })
                    .collect(),
            );
            let parent = run.tracer.begin("harness.round", run.root, round as u64);
            let mut lat = Vec::with_capacity(n);
            answers.clear();
            for q in 0..n {
                let request = (round * n + q + 1) as u64;
                let span = run.tracer.begin(span_name, parent, request);
                let t = Instant::now();
                let (found, stats, allocs) = traced(series_of(queries, q));
                let elapsed = t.elapsed();
                run.tracer.end(span);
                let engine = stats.total_time.as_nanos() as u64;
                run.tracer.child_at_end("engine.query", span, engine);
                lat.push(micros(elapsed));
                span_ns += elapsed.as_nanos() as u64;
                engine_ns += engine;
                alloc_events += allocs;
                lb += stats.lb_distance_calcs;
                real += stats.real_distance_calcs;
                let b = stats.breakdown.expect("collect_breakdown was set");
                for (sum, ns) in phases.iter_mut().zip([
                    b.init_ns,
                    b.tree_pass_ns,
                    b.pq_insert_ns,
                    b.pq_remove_ns,
                    b.dist_calc_ns,
                ]) {
                    *sum += ns;
                }
                answers.push(first_answer(&found));
            }
            run.tracer.end(parent);
            lat
        }),
    };
    let plain_lat = Latencies {
        rounds: plain_rounds,
    };
    check_round(
        &mut run.verifier,
        dist,
        queries,
        &answers,
        series_at,
        oracle,
    );

    let calls = (traced_lat.rounds.len() * n) as f64;
    let mean_us = |ns: u64| ns as f64 / calls / 1e3;
    let span_us = mean_us(span_ns);
    run.put("engine.query_span_us", span_us);
    for (name, ns) in [
        "engine.init_us",
        "engine.tree_pass_us",
        "engine.pq_insert_us",
        "engine.pq_remove_us",
        "engine.dist_calc_us",
    ]
    .into_iter()
    .zip(phases)
    {
        run.put(name, mean_us(ns));
    }
    // `other` is what the five phases leave of the span, so the six add
    // up to it by construction — and a growing `other` is visible.
    run.put("engine.other_us", span_us - mean_us(phases.iter().sum()));
    run.put(
        "exec.run_one_overhead_us",
        mean_us(span_ns.saturating_sub(engine_ns)),
    );
    run.put("exec.warm_alloc_events", alloc_events as f64);

    // Estimated kernel shares of the query span, from counts × the unit
    // costs of the kernel rows, spread over the engine's workers. The
    // lower-bound scan is entries × cost per entry. The real-distance
    // kernels are bounded twice — by calls × the cost of a full call
    // (early abandoning only makes a call cheaper) and by what the scan
    // leaves of the measured distance phase — and the smaller bound is
    // reported. Stalls fetching candidates stay in `engine.dist_calc_us`.
    let per_query_us =
        |count: u64, unit_ns: f64| (count as f64 / calls) * unit_ns / 1e3 / engine_workers as f64;
    let unit = |name: &str| run.value(name).unwrap_or(0.0);
    let dist_us = mean_us(phases[4]);
    let lb_us = per_query_us(lb, unit("sax.mindist_soa_ns_per_entry")).min(dist_us);
    let full_call_ns = match dist {
        Dist::Euclidean => unit("series.ed_ns_per_call"),
        Dist::Dtw => unit("series.dtw_ns_per_call"),
    };
    let real_us = per_query_us(real, full_call_ns).min(dist_us - lb_us);
    run.put("sax.est_query_share_pct", 100.0 * lb_us / span_us);
    run.put("series.est_query_share_pct", 100.0 * real_us / span_us);

    run.put("harness.query_p50_us_untraced", plain_lat.p50());
    run.put("harness.query_p50_us_traced", traced_lat.p50());
    run.put(
        "harness.trace_overhead_pct",
        100.0 * (traced_lat.p50() - plain_lat.p50()) / plain_lat.p50(),
    );
    run.put("harness.rounds", traced_lat.rounds.len() as f64);
    run.put("harness.samples_per_round", n as f64);
    answers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (name, _) in PER_LAYER {
            let layer = name.split('.').next().unwrap();
            assert!(
                ["series", "sax", "node"].contains(&layer) || SPAN_LAYERS.contains(&layer),
                "{name} names no layer"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no array `{key}`")
            };
            items
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let Some(Json::Arr(e2e)) = doc.get("end_to_end") else {
            unreachable!()
        };
        for m in e2e {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn rounds_for_honours_minimum_and_budget() {
        let fast = rounds_for(Duration::ZERO, 3, |r| r);
        assert_eq!(fast, vec![0, 1, 2]);
        let slow = rounds_for(Duration::from_millis(30), 1, |r| {
            std::thread::sleep(Duration::from_millis(10));
            r
        });
        assert!((2..=4).contains(&slow.len()), "{slow:?}");
    }

    #[test]
    fn latencies_take_the_median_round() {
        let l = Latencies {
            rounds: vec![
                (1..=100).map(f64::from).collect(),
                (1..=100).map(|v| f64::from(v) + 10.0).collect(),
                (1..=100).map(|v| f64::from(v) * 100.0).collect(),
            ],
        };
        assert_eq!(l.p50(), 60.5);
        assert_eq!(l.percentile(90.0), 100.0);
    }

    #[test]
    fn critical_path_takes_the_slowest_shard() {
        use messi::index::TimeBreakdown;
        let shard = |ms: u64, init_ns: u64| QueryStats {
            total_time: Duration::from_millis(ms),
            lb_distance_calcs: 10,
            breakdown: Some(TimeBreakdown {
                init_ns,
                ..TimeBreakdown::default()
            }),
            ..QueryStats::default()
        };
        let merged = QueryStats {
            total_time: Duration::from_millis(5),
            lb_distance_calcs: 20,
            breakdown: Some(TimeBreakdown {
                init_ns: 300,
                ..TimeBreakdown::default()
            }),
            ..QueryStats::default()
        };
        let out = critical_path(merged, &[shard(2, 100), shard(4, 200)]);
        assert_eq!(out.breakdown.unwrap().init_ns, 200);
        assert_eq!(out.lb_distance_calcs, 20, "counts stay summed");
        assert_eq!(out.total_time, Duration::from_millis(5));
    }

    #[test]
    fn quick_mode_divides_sizes() {
        let opts = Options {
            workload: "explore-ed".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            quick: true,
        };
        let run = Run::new(opts.clone(), 2);
        assert_eq!(run.sized(1_000_000, 1), 20_000);
        assert_eq!(run.sized(100, 8), 8);
        let full = Run::new(
            Options {
                quick: false,
                ..opts
            },
            2,
        );
        assert_eq!(full.sized(1_000_000, 1), 1_000_000);
        assert_eq!(oracle_sample(2000).len(), 16);
        assert_eq!(oracle_sample(5), vec![0, 1, 2, 3, 4]);
    }
}
