//! `ingest-query`: writes beside reads, then the write path alone, then
//! restart. The only workload where `ingest` (log append + fsync,
//! overlay scan, inline republish → `build`) and `persist` run.
//!
//! * Phase A — a writer inserts 256-series batches **paced** at 8 per
//!   second while a reader answers exact 1-NN queries back to back. The
//!   writer is paced so that a faster ingest path can only free CPU for
//!   the reader; an unpaced writer would turn every ingest gain into a
//!   reader "regression".
//! * Phase B — the writer alone, unpaced: the write path's throughput.
//! * Phase C — restart: the live index is dropped without a checkpoint,
//!   then snapshot load + log replay + prewarm + first verified answer,
//!   several times over. That is this workload's `setup_s`: the set-up a
//!   durable index pays. Flush policy, stated and fixed: every batch is
//!   fsynced to the delta log before it is acknowledged.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use messi::series::Dataset;
use messi::{
    load_sharded, save_sharded, DeltaIndex, IngestOptions, QueryConfig, QuerySpec, ShardedIndex,
};

use crate::env::{dir_bytes, Scratch};
use crate::gen::{self, Stream, SERIES_LEN};
use crate::harness::{
    critical_path, first_answer, micros, oracle_sample, oracles, report_build, series_of,
    traced_query, traced_rounds, IndexShape, Latencies, Run, TracedInput,
};
use crate::json::Json;
use crate::kernels;
use crate::stats;
use crate::trace::{Tracer, NONE};
use crate::verify::{Answer, Dist};

const SHARDS: usize = 2;
const BATCH_SERIES: usize = 256;
/// Paced batches per second in Phase A (eight times that under
/// `--quick`, so a cycle still fits).
const PACED_BATCHES_PER_S: f64 = 8.0;
/// Republish cycles the unpaced writer of Phase B runs through.
const UNPACED_CYCLES: usize = 5;
/// A reader round is one republish cycle, two seconds and several
/// hundred samples: p95 leaves dozens beyond it, and it lies inside the
/// tenth of a cycle a republish disturbs.
const TAIL_PERCENTILE: f64 = 95.0;
/// Ingested series queried back after Phase A and after each restart.
const READ_BACK_SAMPLE: usize = 64;

/// The base collection plus everything the run will ingest, resolvable
/// by global position: ingested series `i` lands at `base + i`.
struct Collection {
    base: Arc<Dataset>,
    ingest: Vec<f32>,
}

impl Collection {
    fn series_at<'a>(&'a self) -> impl Fn(u64) -> Option<&'a [f32]> + Copy + 'a {
        move |pos| {
            let pos = usize::try_from(pos).ok()?;
            if pos < self.base.len() {
                return Some(self.base.series(pos));
            }
            let start = (pos - self.base.len()).checked_mul(SERIES_LEN)?;
            self.ingest.get(start..start + SERIES_LEN)
        }
    }

    /// Batch `b` of the ingest stream as a library dataset.
    fn batch(&self, b: usize) -> Dataset {
        let start = b * BATCH_SERIES * SERIES_LEN;
        Dataset::from_flat(
            self.ingest[start..start + BATCH_SERIES * SERIES_LEN].to_vec(),
            SERIES_LEN,
        )
        .expect("whole series")
    }
}

/// One reader sample: when it finished (since phase start), how long it
/// took, which query it was and what came back.
struct Sample {
    at: Duration,
    latency_us: f64,
    query: usize,
    answer: Option<Answer>,
}

/// Answers queries back to back until `stop` is set.
fn reader(
    live: &DeltaIndex,
    queries: &[f32],
    config: &QueryConfig,
    stop: &AtomicBool,
    tracer: &mut Tracer,
) -> Vec<Sample> {
    let n = queries.len() / SERIES_LEN;
    let spec = QuerySpec::exact();
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut q = 0;
    while !stop.load(Ordering::Relaxed) {
        let (found, _, elapsed) =
            traced_query(tracer, "ingest.query", NONE, samples.len() as u64, || {
                live.query(series_of(queries, q), &spec, config)
            });
        samples.push(Sample {
            at: start.elapsed(),
            latency_us: micros(elapsed),
            query: q,
            answer: first_answer(&found),
        });
        q = (q + 1) % n;
    }
    samples
}

/// What a writer brings back.
struct Written {
    /// Acknowledgement latency of every accepted batch, microseconds.
    acks_us: Vec<f64>,
    /// When each batch returned, seconds since the writer started.
    done_at_s: Vec<f64>,
    rejected: Vec<String>,
}

impl Written {
    /// Series per second of each whole republish cycle: `cycle` batches
    /// in a row hold exactly one inline republish wherever they start.
    fn cycle_rates(&self, cycle: usize) -> Vec<f64> {
        let mut previous = 0.0;
        self.done_at_s
            .chunks_exact(cycle)
            .map(|c| {
                let end = c[cycle - 1];
                let rate = (cycle * BATCH_SERIES) as f64 / (end - previous);
                previous = end;
                rate
            })
            .collect()
    }
}

/// Inserts batches `first..first + count`; with `pace`, batch `i` is due
/// `i / pace` seconds in and its acknowledgement is timed from when it
/// was due (an open loop: a stall delays the batches behind it too).
fn writer(
    live: &DeltaIndex,
    collection: &Collection,
    first: usize,
    count: usize,
    pace: Option<f64>,
    tracer: &mut Tracer,
) -> Written {
    let start = Instant::now();
    let mut out = Written {
        acks_us: Vec::with_capacity(count),
        done_at_s: Vec::with_capacity(count),
        rejected: Vec::new(),
    };
    for i in 0..count {
        let batch = collection.batch(first + i);
        let due = pace.map_or_else(Instant::now, |per_s| {
            let due = start + Duration::from_secs_f64(i as f64 / per_s);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            due
        });
        let span = tracer.begin("ingest.insert_batch", NONE, (first + i) as u64);
        let outcome = live.insert_batch(&batch);
        tracer.end(span);
        out.done_at_s.push(start.elapsed().as_secs_f64());
        match outcome {
            Ok(_) => out.acks_us.push(micros(due.elapsed())),
            Err(e) => out.rejected.push(format!("batch {}: {e}", first + i)),
        }
    }
    out
}

/// Snapshot load + log replay + prewarm: the restart path.
struct Restart {
    live: DeltaIndex,
    load: Duration,
    replay: Duration,
    replayed_series: usize,
}

fn restart(
    run: &mut Run,
    snapshot: &Path,
    log: &Path,
    base: &Arc<Dataset>,
    config: &QueryConfig,
    request: u64,
) -> Result<Restart, String> {
    let t = Instant::now();
    let index = run
        .tracer
        .span("persist.load", run.root, request, || {
            load_sharded(snapshot, Arc::clone(base))
        })
        .map_err(|e| format!("load_sharded: {e}"))?;
    let load = t.elapsed();
    let t = Instant::now();
    let (live, report) = run
        .tracer
        .span("ingest.replay", run.root, request, || {
            DeltaIndex::with_log(index, IngestOptions::default(), log)
        })
        .map_err(|e| format!("with_log: {e}"))?;
    let replay = t.elapsed();
    if report.torn {
        return Err(format!(
            "log came back torn ({} bytes dropped)",
            report.dropped_bytes
        ));
    }
    run.tracer
        .span("exec.prewarm", run.root, request, || live.prewarm(config));
    Ok(Restart {
        live,
        load,
        replay,
        replayed_series: report.series,
    })
}

/// Queries `READ_BACK_SAMPLE` of the first `ingested` ingested series:
/// each must return its own global position at distance zero.
fn read_back(
    run: &mut Run,
    live: &DeltaIndex,
    c: &Collection,
    ingested: usize,
    config: &QueryConfig,
) {
    let n = READ_BACK_SAMPLE.min(ingested);
    for k in 0..n {
        let i = k * ingested / n;
        let (found, _) = live.query(series_of(&c.ingest, i), &QuerySpec::exact(), config);
        run.verifier
            .check_read_your_write((c.base.len() + i) as u64, first_answer(&found));
    }
}

pub fn run(run: &mut Run) -> Result<(), String> {
    let base_series = run.sized(200_000, 4_000);
    let queries_n = run.sized(2_000, 40);
    // The overlay is flattened inline every `republish_after` series: a
    // cycle of that many batches. Rounds are whole cycles, each holding
    // exactly one republish, so one slow republish disturbs one round.
    let republish_after = IngestOptions::default().republish_after;
    let cycle = (republish_after / BATCH_SERIES).max(1);
    let pace = PACED_BATCHES_PER_S * if run.opts.quick { 8.0 } else { 1.0 };
    let cycle_s = cycle as f64 / pace;
    // Phase A: half a cycle of lead-in, then whole cycles, so that each
    // republish falls in the middle of a reader round.
    let paced_cycles = ((run.budget(0.65).as_secs_f64() / cycle_s - 0.5).floor() as usize).max(2);
    let paced_batches = paced_cycles * cycle + cycle / 2;
    let unpaced_batches = cycle * if run.opts.quick { 1 } else { UNPACED_CYCLES };
    let restarts = if run.opts.trace { 2 } else { 3 };

    let base = gen::dataset(run.generate(Stream::Data, 0, base_series));
    let queries = run.generate(Stream::Queries, 0, queries_n);
    let total_batches = paced_batches + unpaced_batches;
    let collection = Collection {
        base: Arc::clone(&base),
        ingest: run.generate(Stream::Ingest, 0, total_batches * BATCH_SERIES),
    };
    run.note_count("series", base_series);
    run.note_count("shards", SHARDS);
    run.note_count("batch_series", BATCH_SERIES);
    run.note_count("cycle_batches", cycle);
    run.note_count("paced_batches", paced_batches);
    run.note_count("unpaced_batches", unpaced_batches);
    run.note("flush_policy", Json::str("fsync per batch"));

    // The base is a subset of every later state of the collection, so
    // its brute-force nearest neighbour bounds every later answer.
    let sample = oracle_sample(queries_n);
    let oracle = oracles(run, Dist::Euclidean, &queries, &sample, || base.iter());

    let scratch = Scratch::create("ingest").map_err(|e| format!("scratch dir: {e}"))?;
    let snapshot = scratch.path().join("snapshot");
    let log = scratch.path().join("delta.log");

    // The base index, built once and saved; everything after runs from
    // the snapshot, as a restarted daemon would.
    let index_config = run.index_config();
    let (index, build_stats) = run.tracer.span("build.sharded", run.root, 0, || {
        ShardedIndex::build(Arc::clone(&base), SHARDS, &index_config)
    });
    let shape = IndexShape::of_sharded(&index);
    run.put("index_bytes_per_series", shape.bytes_per_series());
    let t = Instant::now();
    run.tracer
        .span("persist.save", run.root, 0, || {
            save_sharded(&index, &snapshot)
        })
        .map_err(|e| format!("save_sharded: {e}"))?;
    let save = t.elapsed();
    if run.opts.trace {
        report_build(run, &shape, &build_stats);
        run.put("persist.save_s", save.as_secs_f64());
        run.put(
            "persist.snapshot_bytes_per_series",
            dir_bytes(&snapshot) as f64 / base_series as f64,
        );
    }
    drop(index);
    run.verifier.pass(2);

    // The reader runs as the daemon runs a query: one worker, one queue.
    let reader_cfg = run.single_worker_config(false);
    let mut live = restart(run, &snapshot, &log, &base, &reader_cfg, 0)?.live;
    let series_at = collection.series_at();
    let origin = run.origin();

    if run.opts.trace {
        kernels::run_rows(run, &base, series_of(&queries, 0));
        // The reader alone, before any write: the quiet reference, with
        // the engine's phases.
        let traced_cfg = run.single_worker_config(true);
        let spec = QuerySpec::exact();
        traced_rounds(
            run,
            TracedInput {
                span: "ingest.query",
                queries: &queries[..queries_n.min(run.sized(500, 40)) * SERIES_LEN],
                dist: Dist::Euclidean,
                oracle: &oracle,
                engine_workers: 1,
            },
            series_at,
            |q| live.query(q, &spec, &reader_cfg).0,
            |q| {
                let (answers, stats, allocs, per_shard) = live.query_traced(q, &spec, &traced_cfg);
                (answers, critical_path(stats, &per_shard), allocs)
            },
        );
        let quiet = run.value("harness.query_p50_us_untraced").unwrap_or(0.0);
        run.put("ingest.query_p50_us_quiet", quiet);
    }

    // Phase A: paced writer beside a back-to-back reader.
    let stop = AtomicBool::new(false);
    let phase = run.tracer.begin("harness.phase_a", run.root, 0);
    let trace = run.opts.trace;
    let (samples, written_a, tracers) = std::thread::scope(|s| {
        let reading = s.spawn(|| {
            let mut tracer = Tracer::new(trace, origin);
            let samples = reader(&live, &queries, &reader_cfg, &stop, &mut tracer);
            (samples, tracer)
        });
        let mut tracer = Tracer::new(trace, origin);
        let written = writer(
            &live,
            &collection,
            0,
            paced_batches,
            Some(pace),
            &mut tracer,
        );
        stop.store(true, Ordering::Relaxed);
        let (samples, reader_tracer) = reading.join().expect("reader does not panic");
        (samples, written, [tracer, reader_tracer])
    });
    for tracer in tracers {
        run.tracer.absorb(tracer, phase);
    }
    run.tracer.end(phase);
    for r in &written_a.rejected {
        run.verifier.fail("ingest_rejected", || r.clone());
    }
    run.verifier.pass(written_a.acks_us.len() as u64);

    // The reader's rounds are the republish cycles after the lead-in;
    // every sample, lead-in included, is verified.
    let mut rounds = vec![Vec::new(); paced_cycles];
    for s in &samples {
        let cycles_in = s.at.as_secs_f64() / cycle_s - 0.5;
        if cycles_in >= 0.0 && (cycles_in as usize) < paced_cycles {
            rounds[cycles_in as usize].push(s.latency_us);
        }
        run.verifier.check_answer(
            Dist::Euclidean,
            series_of(&queries, s.query),
            s.answer,
            series_at,
            oracle.get(&s.query).copied(),
        );
    }
    rounds.retain(|r| !r.is_empty());
    if rounds.is_empty() {
        return Err("the reader completed no query during Phase A".into());
    }
    let lat = Latencies { rounds };
    run.put("query_p50_us", lat.p50());
    run.put("query_tail_us", lat.percentile(TAIL_PERCENTILE));
    run.note_count("reader_samples", samples.len());
    run.note_samples("round_p50_us", &lat.round_medians());
    run.note("tail_percentile", Json::Num(TAIL_PERCENTILE));
    let acknowledged_a = written_a.acks_us.len() * BATCH_SERIES;
    read_back(run, &live, &collection, acknowledged_a, &reader_cfg);

    // Phase B: the writer alone, unpaced.
    let phase = run.tracer.begin("harness.phase_b", run.root, 0);
    let mut tracer = Tracer::new(trace, origin);
    let written_b = writer(
        &live,
        &collection,
        paced_batches,
        unpaced_batches,
        None,
        &mut tracer,
    );
    run.tracer.absorb(tracer, phase);
    run.tracer.end(phase);
    for r in &written_b.rejected {
        run.verifier.fail("ingest_rejected", || r.clone());
    }
    run.verifier.pass(written_b.acks_us.len() as u64);
    let cycle_rates = written_b.cycle_rates(cycle);
    if cycle_rates.is_empty() {
        return Err("the writer completed no whole republish cycle in Phase B".into());
    }
    let series_per_s = stats::median(&cycle_rates);
    run.put("throughput_per_s", series_per_s);
    run.note_samples("cycle_series_per_s", &cycle_rates);
    let ingest_stats = live.stats();
    let ingested = acknowledged_a + written_b.acks_us.len() * BATCH_SERIES;

    // Phase C: restart, several times over. No checkpoint: the log
    // holds every acknowledged batch.
    let mut recovery_s = Vec::new();
    let (mut load_s, mut replay_s) = (Vec::new(), Vec::new());
    for i in 0..restarts {
        drop(live);
        let t = Instant::now();
        let restarted = restart(run, &snapshot, &log, &base, &reader_cfg, i as u64 + 1)?;
        let (found, _) =
            restarted
                .live
                .query(series_of(&queries, 0), &QuerySpec::exact(), &reader_cfg);
        recovery_s.push(t.elapsed().as_secs_f64());
        load_s.push(restarted.load.as_secs_f64());
        replay_s.push(restarted.replay.as_secs_f64());
        run.verifier.check_answer(
            Dist::Euclidean,
            series_of(&queries, 0),
            first_answer(&found),
            series_at,
            oracle.get(&0).copied(),
        );
        if restarted.replayed_series != ingested {
            run.verifier.fail("acknowledged_batch_lost", || {
                format!(
                    "replayed {} of {ingested} acknowledged series",
                    restarted.replayed_series
                )
            });
        }
        live = restarted.live;
    }
    read_back(run, &live, &collection, ingested, &reader_cfg);
    run.put("setup_s", stats::median(&recovery_s));
    run.note_samples("setup_s_samples", &recovery_s);

    if run.opts.trace {
        let acks = stats::sorted(written_b.acks_us);
        run.put("ingest.series_per_s", series_per_s);
        run.put("ingest.ack_p50_us", stats::percentile_sorted(&acks, 50.0));
        run.put("ingest.ack_p99_us", stats::percentile_sorted(&acks, 99.0));
        run.put("ingest.republish_count", ingest_stats.republishes as f64);
        run.put(
            "ingest.republish_mean_ms",
            ingest_stats.republish_time.as_secs_f64() * 1e3
                / ingest_stats.republishes.max(1) as f64,
        );
        run.put(
            "ingest.log_bytes_per_user_byte",
            ingest_stats.log_bytes as f64 / (ingested * SERIES_LEN * 4) as f64,
        );
        run.put("ingest.recovery_s", stats::median(&recovery_s));
        run.put("ingest.replay_s", stats::median(&replay_s));
        run.put("persist.load_s", stats::median(&load_s));
        run.put("ingest.query_p50_us_paced", lat.p50());
    }
    drop(live);
    Ok(())
}
