//! `serve-exact`: the daemon from the outside. A 100 k-series collection
//! (the index fits the cache) in two shards behind an in-process
//! `IndexServer`; W keep-alive connections each send exact 1-NN requests
//! for noisy copies of dataset members — "find this observed pattern".
//!
//! Engine time is a few hundred microseconds here, so HTTP framing, the
//! JSON parse of 256 floats, admission, metrics and the shard fan-out
//! are the largest share — the layers the explore workloads never enter.
//! `/metrics` is scraped once per round, so a scrape whose cost grows
//! with the number of queries served shows up.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use messi::series::Dataset;
use messi::{
    BuildStats, DeltaIndex, IndexServer, IngestOptions, MessiIndex, QuerySpec, ServeConfig,
    ServeSummary, ShardedExecutor, ShardedIndex,
};

use crate::gen::{self, Stream, SERIES_LEN};
use crate::harness::{
    critical_path, first_answer, micros, oracle_sample, oracles, report_build, rounds_for,
    series_in, series_of, traced_query, traced_rounds, IndexShape, Latencies, Oracle, Run,
    TracedInput,
};
use crate::http::{self, Connection};
use crate::json::Json;
use crate::kernels;
use crate::stats;
use crate::trace::Tracer;
use crate::verify::{self, Answer, Dist, Verifier};

const SHARDS: usize = 2;
/// A round pools W × 4 000 samples, so p99 leaves dozens beyond it.
const TAIL_PERCENTILE: f64 = 99.0;
/// Noise added to a dataset member to make a query (per point, before
/// re-normalising).
const QUERY_NOISE_SIGMA: f32 = 0.1;

/// A daemon serving on its own thread.
struct Daemon {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<std::io::Result<ServeSummary>>,
}

impl Daemon {
    /// Binds, starts serving `live`, and returns once `/healthz` answers
    /// 200 (the pool is prewarmed).
    fn start(live: Arc<DeltaIndex>, config: ServeConfig) -> Result<Self, String> {
        let server = IndexServer::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::spawn(move || server.serve(&live, &flag));
        let daemon = Self {
            addr,
            shutdown,
            thread,
        };
        let health = http::render_request("GET", "/healthz", b"");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let ready = Connection::open(addr)
                .and_then(|mut c| c.round_trip(&health))
                .is_ok_and(|status| status == 200);
            if ready {
                return Ok(daemon);
            }
            if Instant::now() > deadline || daemon.thread.is_finished() {
                let _ = daemon.stop();
                return Err("daemon did not become ready".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Flips the shutdown flag and waits for the drain.
    fn stop(self) -> Result<ServeSummary, String> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("serve: {e}"))
    }
}

/// One request as the client saw it. Span `i` of the client's tracer
/// is request `i`.
struct Exchange {
    /// `Err` holds the transport error.
    status: Result<u16, String>,
    body: Vec<u8>,
    latency_us: f64,
}

/// What one connection brings back from one round, in request order.
struct ClientRound {
    exchanges: Vec<Exchange>,
    tracer: Tracer,
}

/// One round: every connection sends its own requests back to back.
fn client_round(
    connections: &mut [Connection],
    requests: &[Vec<Vec<u8>>],
    trace: bool,
    origin: Instant,
    round: usize,
) -> (Vec<ClientRound>, f64) {
    let start = Instant::now();
    let per_client: Vec<ClientRound> = std::thread::scope(|s| {
        let handles: Vec<_> = connections
            .iter_mut()
            .zip(requests)
            .enumerate()
            .map(|(c, (conn, requests))| {
                s.spawn(move || {
                    let mut out = ClientRound {
                        exchanges: Vec::with_capacity(requests.len()),
                        tracer: Tracer::new(trace, origin),
                    };
                    for (i, request) in requests.iter().enumerate() {
                        let id = ((round * 64 + c) << 32 | i) as u64;
                        let span = out.tracer.begin("serve.request", crate::trace::NONE, id);
                        let t = Instant::now();
                        let status = conn.round_trip(request);
                        let elapsed = t.elapsed();
                        out.tracer.end(span);
                        out.exchanges.push(Exchange {
                            body: if status.is_ok() {
                                conn.body.clone()
                            } else {
                                Vec::new()
                            },
                            status: status.map_err(|e| e.to_string()),
                            latency_us: micros(elapsed),
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    (per_client, start.elapsed().as_secs_f64())
}

/// The first answer and the engine's own time from a `/query` body.
fn parse_answer(body: &[u8]) -> Option<(Answer, f64)> {
    let doc = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let Json::Arr(answers) = doc.get("answers")? else {
        return None;
    };
    let first = answers.first()?;
    let pos = match first.get("pos")? {
        Json::Int(p) => u64::try_from(*p).ok()?,
        _ => return None,
    };
    let dist_sq = first.get("dist_sq")?.as_f64()? as f32;
    let time_us = doc.get("stats")?.get("time_us")?.as_f64()?;
    Some((Answer { pos, dist_sq }, time_us))
}

/// Counts one operation per request — a transport error, a non-200 (a
/// shed included) or a wrong answer is a failure — and returns, per
/// request, the engine time the daemon reported.
fn check_responses(
    verifier: &mut Verifier,
    round: &ClientRound,
    queries: &[f32],
    data: &Dataset,
    oracle: &dyn Fn(usize) -> f64,
    first_query: usize,
) -> Vec<Option<f64>> {
    round
        .exchanges
        .iter()
        .enumerate()
        .map(|(i, exchange)| {
            let status = match &exchange.status {
                Ok(status) => *status,
                Err(e) => {
                    verifier.fail("transport", || format!("request {i}: {e}"));
                    return None;
                }
            };
            if status != 200 {
                verifier.fail("http_status", || format!("request {i}: status {status}"));
                return None;
            }
            let q = first_query + i;
            let Some((answer, engine_us)) = parse_answer(&exchange.body) else {
                verifier.fail("malformed_response", || {
                    String::from_utf8_lossy(&exchange.body)
                        .chars()
                        .take(120)
                        .collect()
                });
                return None;
            };
            verifier.check_answer(
                Dist::Euclidean,
                series_of(queries, q),
                Some(answer),
                series_in(data),
                Some(oracle(q)),
            );
            Some(engine_us)
        })
        .collect()
}

pub fn run(run: &mut Run) -> Result<(), String> {
    let series = run.sized(100_000, 4_000);
    let per_connection = run.sized(4_000, 40);
    let connections = run.w;
    let total_queries = connections * per_connection;

    let data = gen::dataset(run.generate(Stream::Data, 0, series));
    let t = Instant::now();
    let (queries, members) =
        gen::noisy_members(run.opts.seed, &data, total_queries, QUERY_NOISE_SIGMA);
    run.add_seconds("harness.datagen_s", t.elapsed());
    run.note_count("series", series);
    run.note_count("shards", SHARDS);
    run.note_count("connections", connections);
    run.note_count("requests_per_connection", per_connection);

    // Every query has a free oracle — the member it was made from bounds
    // its nearest-neighbour distance — and 16 get the full brute force.
    let t = Instant::now();
    let mut bound: Vec<f64> = members
        .iter()
        .enumerate()
        .map(|(q, &m)| verify::ed_sq(series_of(&queries, q), data.series(m as usize)))
        .collect();
    run.add_seconds("harness.oracle_s", t.elapsed());
    let sample = oracle_sample(total_queries);
    for (q, best) in oracles(run, Dist::Euclidean, &queries, &sample, || data.iter()) {
        bound[q] = bound[q].min(best);
    }
    let oracle = |q: usize| bound[q];

    // Set-up, several times over: sharded build, live index, daemon up
    // and ready.
    let index_config = run.index_config();
    let serve_config = ServeConfig {
        threads: run.w,
        query_workers: 1,
        ..ServeConfig::default()
    };
    let mut setup_s = Vec::new();
    let mut up: Option<(Daemon, Arc<DeltaIndex>, BuildStats)> = None;
    while run.wants_another_setup(&setup_s) {
        let i = setup_s.len();
        if let Some((daemon, _, _)) = up.take() {
            daemon.stop()?;
        }
        let t = Instant::now();
        let (index, stats) = run.tracer.span("build.sharded", run.root, i as u64, || {
            ShardedIndex::build(Arc::clone(&data), SHARDS, &index_config)
        });
        let live = Arc::new(DeltaIndex::new(index, IngestOptions::default()));
        let daemon = run.tracer.span("serve.start", run.root, i as u64, || {
            Daemon::start(Arc::clone(&live), serve_config.clone())
        })?;
        setup_s.push(t.elapsed().as_secs_f64());
        up = Some((daemon, live, stats));
    }
    let (daemon, live, build_stats) = up.expect("at least one set-up");
    run.verifier.pass(setup_s.len() as u64);
    run.put("setup_s", stats::median(&setup_s));
    let index = live.index();
    let shape = IndexShape::of_sharded(&index);
    run.put("index_bytes_per_series", shape.bytes_per_series());

    // Pre-render every request: the timed loop only moves bytes.
    let requests: Vec<Vec<Vec<u8>>> = (0..connections)
        .map(|c| {
            (0..per_connection)
                .map(|i| {
                    let q = c * per_connection + i;
                    http::render_request(
                        "POST",
                        "/query",
                        &http::query_body(series_of(&queries, q)),
                    )
                })
                .collect()
        })
        .collect();
    let mut conns = (0..connections)
        .map(|_| Connection::open(daemon.addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let scrape = http::render_request("GET", "/metrics", b"");

    // A short warm-up so every handler thread has served its connection.
    let warm: Vec<Vec<Vec<u8>>> = requests
        .iter()
        .map(|r| r[..r.len().min(20)].to_vec())
        .collect();
    let _ = client_round(&mut conns, &warm, false, Instant::now(), 0);

    let share = if run.opts.trace { 0.3 } else { 0.9 };
    let budget = run
        .budget(share)
        .saturating_sub(Duration::from_secs_f64(setup_s.iter().sum()));
    let origin = run.origin();
    let mut qps = Vec::new();
    let mut scrape_us = Vec::new();
    // Per request: round trip minus the engine time the daemon reported.
    let mut overhead_us = Vec::new();
    let mut scrape_failures = 0u64;
    let rounds = rounds_for(budget, 3, |round| {
        let parent = run.tracer.begin("harness.round", run.root, round as u64);
        let (per_client, wall) = client_round(&mut conns, &requests, run.opts.trace, origin, round);
        qps.push(total_queries as f64 / wall);
        let mut lat = Vec::with_capacity(total_queries);
        for (c, mut client) in per_client.into_iter().enumerate() {
            let first_query = c * per_connection;
            let engine = check_responses(
                &mut run.verifier,
                &client,
                &queries,
                &data,
                &oracle,
                first_query,
            );
            for (i, (exchange, engine_us)) in client.exchanges.iter().zip(engine).enumerate() {
                if exchange.status.is_ok() {
                    lat.push(exchange.latency_us);
                }
                if let Some(engine_us) = engine_us {
                    overhead_us.push(exchange.latency_us - engine_us);
                    if client.tracer.enabled() {
                        let ns = (engine_us * 1e3) as u64;
                        client.tracer.child_at_end("engine.query", i as u32, ns);
                    }
                }
            }
            run.tracer.absorb(client.tracer, parent);
        }
        run.tracer.end(parent);
        // One scrape per round, between rounds, over a client's own
        // connection: every handler thread is held by one of them.
        let span = run
            .tracer
            .begin("serve.metrics_scrape", run.root, round as u64);
        let t = Instant::now();
        match conns[0].round_trip(&scrape) {
            Ok(200) => scrape_us.push(micros(t.elapsed())),
            _ => scrape_failures += 1,
        }
        run.tracer.end(span);
        lat
    });
    for _ in 0..scrape_failures {
        run.verifier.fail("metrics_scrape", || {
            "GET /metrics did not return 200".into()
        });
    }
    run.verifier.pass(scrape_us.len() as u64);
    let lat = Latencies { rounds };
    run.put("query_p50_us", lat.p50());
    run.put("query_tail_us", lat.percentile(TAIL_PERCENTILE));
    run.put("throughput_per_s", stats::median(&qps));
    run.note_count("rounds", lat.rounds.len());
    run.note_samples("round_p50_us", &lat.round_medians());
    run.note("tail_percentile", Json::Num(TAIL_PERCENTILE));
    run.note_samples("setup_s_samples", &setup_s);

    drop(conns);
    let summary = daemon.stop()?;
    if summary.failures > 0 {
        run.verifier.fail("engine_failure", || {
            format!("{} queries failed in the engine", summary.failures)
        });
    }

    if run.opts.trace {
        run.put("serve.shed_count", summary.shed as f64);
        let bytes: usize = requests.iter().flatten().map(Vec::len).sum();
        run.put("serve.request_bytes", bytes as f64 / total_queries as f64);
        run.put(
            "serve.metrics_scrape_us_first",
            scrape_us.first().copied().unwrap_or(0.0),
        );
        run.put(
            "serve.metrics_scrape_us_last",
            scrape_us.last().copied().unwrap_or(0.0),
        );
        run.put("serve.framing_p50_us", stats::median(&overhead_us));
        report_build(run, &shape, &build_stats);
        kernels::run_rows(run, &data, series_of(&queries, 0));
        let in_process_n = per_connection.min(run.sized(1_000, 40));
        in_process(
            run,
            &index,
            &data,
            &queries[..in_process_n * SERIES_LEN],
            &bound,
            lat.p50(),
        );
    }
    Ok(())
}

/// The same queries without the socket, for the engine's phases as the
/// daemon runs them; the same again on one shard prices the fan-out.
fn in_process(
    run: &mut Run,
    index: &ShardedIndex,
    data: &Arc<Dataset>,
    queries: &[f32],
    bound: &[f64],
    socket_p50_us: f64,
) {
    let n = queries.len() / SERIES_LEN;
    let spec = QuerySpec::exact();
    // As the daemon runs a query: one engine worker, one queue.
    let (plain_cfg, traced_cfg) = (
        run.single_worker_config(false),
        run.single_worker_config(true),
    );
    let oracle: Oracle = bound[..n].iter().copied().enumerate().collect();

    let exec = ShardedExecutor::with_capacity(index, run.w);
    exec.prewarm(series_of(queries, 0), &spec, &plain_cfg);
    let mut lb_sharded = 0u64;
    traced_rounds(
        run,
        TracedInput {
            span: "shard.run_one",
            queries,
            dist: Dist::Euclidean,
            oracle: &oracle,
            engine_workers: 1,
        },
        series_in(data),
        |q| exec.run_one(q, &spec, &plain_cfg).0,
        |q| {
            let (answers, stats, allocs, per_shard) = exec.run_one_traced(q, &spec, &traced_cfg);
            lb_sharded += stats.lb_distance_calcs;
            (answers, critical_path(stats, &per_shard), allocs)
        },
    );
    let traced_calls = run.value("harness.rounds").unwrap_or(1.0) * n as f64;
    let in_process_p50 = run.value("harness.query_p50_us_untraced").unwrap_or(0.0);
    // Everything serving adds to a query: framing, JSON, admission,
    // metrics, and W handlers contending for the shared worker pool.
    let overhead = socket_p50_us - in_process_p50;
    run.put("serve.overhead_p50_us", overhead);
    run.put("serve.overhead_share_pct", 100.0 * overhead / socket_p50_us);

    // One shard over the same collection.
    let config_single = run.index_config();
    let (single, _) = run.tracer.span("build.index", run.root, 0, || {
        MessiIndex::build(Arc::clone(data), &config_single)
    });
    let single = ShardedIndex::from_single(single);
    let single_exec = ShardedExecutor::with_capacity(&single, run.w);
    single_exec.prewarm(series_of(queries, 0), &spec, &plain_cfg);
    let mut lb_single = 0u64;
    let parent = run.tracer.begin("harness.single_shard", run.root, 0);
    let single_lat: Vec<f64> = (0..n)
        .map(|q| {
            let (found, stats, elapsed) = traced_query(
                &mut run.tracer,
                "shard.run_one_single",
                parent,
                q as u64,
                || single_exec.run_one(series_of(queries, q), &spec, &plain_cfg),
            );
            lb_single += stats.lb_distance_calcs;
            run.verifier.check_answer(
                Dist::Euclidean,
                series_of(queries, q),
                first_answer(&found),
                series_in(data),
                Some(bound[q]),
            );
            micros(elapsed)
        })
        .collect();
    run.tracer.end(parent);
    run.put(
        "shard.fanout_overhead_us",
        in_process_p50 - stats::median(&single_lat),
    );
    run.put(
        "shard.lb_calcs_ratio",
        (lb_sharded as f64 / traced_calls) / (lb_single as f64 / n as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_daemon_answer_format() {
        let body = br#"{"answers":[{"pos":4711,"distance":1.500000,"dist_sq":2.250000}],"objective":"exact","stats":{"time_us":321,"lb_distance_calcs":10,"real_distance_calcs":2,"bsf_updates":1}}"#;
        let (answer, time_us) = parse_answer(body).unwrap();
        assert_eq!(
            answer,
            Answer {
                pos: 4711,
                dist_sq: 2.25
            }
        );
        assert_eq!(time_us, 321.0);
        assert!(parse_answer(br#"{"answers":[]}"#).is_none());
        assert!(parse_answer(br#"{"error":"overloaded"}"#).is_none());
        assert!(parse_answer(b"not json").is_none());
    }

    #[test]
    fn a_non_200_response_is_a_failed_operation() {
        let data = gen::dataset(gen::random_walk_flat(5, Stream::Data, 0, 50, 1));
        let queries = data.series(3).to_vec();
        let ok = br#"{"answers":[{"pos":3,"distance":0.0,"dist_sq":0.0}],"stats":{"time_us":9}}"#;
        let exchange = |status: Result<u16, &str>, body: &[u8]| Exchange {
            status: status.map_err(String::from),
            body: body.to_vec(),
            latency_us: 1.0,
        };
        let round = ClientRound {
            exchanges: vec![
                exchange(Ok(200), ok),
                exchange(Ok(503), b"{\"error\":\"overloaded: admission gate full\"}"),
                exchange(Err("connection reset"), b""),
                exchange(Ok(200), b"{}"),
            ],
            tracer: Tracer::new(false, Instant::now()),
        };
        let mut v = Verifier::default();
        let same_query = [&queries[..], &queries[..], &queries[..], &queries[..]].concat();
        let engine_us = check_responses(&mut v, &round, &same_query, &data, &|_| 0.0, 0);
        assert_eq!(engine_us, vec![Some(9.0), None, None, None]);
        assert_eq!((v.attempted(), v.failed()), (4, 3));
        assert_eq!(v.reasons()["http_status"], 1);
        assert_eq!(v.reasons()["transport"], 1);
        assert_eq!(v.reasons()["malformed_response"], 1);
    }
}
