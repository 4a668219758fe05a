//! The index service daemon: a long-running network frontend over one
//! live [`DeltaIndex`] — a prewarmed [`crate::shard::ShardedExecutor`]
//! behind an epoch seam that absorbs `/ingest` appends without blocking
//! queries (a single-index deployment is just the one-shard case,
//! [`crate::shard::ShardedIndex::from_single`]).
//!
//! One acceptor thread plus a bounded pool of connection handlers (both
//! running on a dedicated [`messi_sync::WorkerPool`], handed connections
//! through a [`messi_sync::BoundedChannel`]) serve four endpoints:
//!
//! | endpoint | behaviour |
//! |---|---|
//! | `POST /query` | decode a JSON query body into a [`crate::QuerySpec`], answer from the warm context pool |
//! | `POST /ingest` | decode a JSON batch of series, append it to the live index (durable when a delta log is attached) |
//! | `GET /healthz` | `200 ok` only after the index is loaded and the pool prewarmed, `503` before |
//! | `GET /metrics` | Prometheus text exposition of the executor + frontend + ingest counters, including per-shard `messi_shard_*{shard="i"}` families |
//!
//! Queries pass a bounded [`Admission`] gate: when `admission` permits
//! are in flight, further queries get `503` + `Retry-After` instead of
//! queueing unboundedly. Handlers answer queries *on their own thread*:
//! a handler is a pool worker, so the sharded executor walks the shards
//! inline — every shard seeded first, then searched in ascending seed
//! order (see [`crate::shard::ShardedExecutor`]) — and with
//! `query_workers = 1` each shard's engine runs inline too. No thread is
//! spawned and no pool is entered per request, whatever the shard
//! count, so concurrency comes from the handler pool and stays bounded
//! end to end; `messi_pool_nested_spawns_total` on `/metrics` counts any
//! exception (`query_workers > 1` forks that many scoped search workers
//! per shard, which the engine's barrier requires to run concurrently).
//!
//! Each exchange costs the socket one read and one write: a response is
//! rendered head and body into the handler's reused buffer and leaves in
//! a single `write_all` (on a `TCP_NODELAY` stream every write is its
//! own `send`), the acceptor's saturation shed included. A request has
//! two seconds from its first byte to arrive in full, whatever its
//! sender's pace, or it is answered `408` and closed.
//!
//! Shutdown is cooperative: when the `shutdown` flag flips (SIGTERM /
//! Ctrl-C via [`shutdown_flag`], or any writer in-process), the acceptor
//! stops, in-flight requests finish and are answered, idle keep-alive
//! connections are closed at their next read-timeout tick, and
//! [`IndexServer::serve`] returns a [`ServeSummary`] for the final stats
//! line.

use std::io::{self, BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use messi_sync::{BoundedChannel, WorkerPool};

use super::admission::Admission;
use super::http::{self, Request, Response};
use super::metrics::{encode_prometheus, ServerMetrics};
use super::proto;
use crate::config::QueryConfig;
use crate::ingest::{DeltaIndex, IngestError};
use crate::stats::QueryStatsAggregate;
use messi_series::distance::Kernel;

/// How long an idle keep-alive connection may sit between requests
/// before the handler re-checks the shutdown flag. Bounds drain latency.
const IDLE_TICK: Duration = Duration::from_millis(250);
/// How long a request may take to arrive in full, from its first byte:
/// a client dripping bytes inside every [`IDLE_TICK`] pins no handler.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// Tuning knobs of the daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Connection-handler threads (each answers one request at a time).
    pub threads: usize,
    /// Admission-gate capacity for `/query` (`0` = drain mode: shed
    /// every query while health/metrics stay up).
    pub admission: usize,
    /// Search workers *per query* (default 1: every shard's engine runs
    /// inline on the handler thread, one shard after the other, and
    /// concurrency comes from `threads`). Above 1 each shard's search
    /// forks that many scoped threads per request — handlers are pool
    /// workers, so the process pool cannot be entered from them.
    pub query_workers: usize,
    /// Collect the Fig. 13 per-phase breakdown for every query so
    /// `/metrics` exports per-phase time (small timing overhead).
    pub collect_breakdown: bool,
    /// Distance-kernel dispatch for every served query (`Auto` resolves
    /// to SIMD when the CPU has AVX2+FMA). Answers are identical either
    /// way — the scalar twins are bit-identical — so this is an
    /// operational/ablation knob, not a correctness one.
    pub kernel: Kernel,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = crate::config::available_cores();
        Self {
            threads: cores,
            admission: 2 * cores,
            query_workers: 1,
            collect_breakdown: false,
            kernel: Kernel::Auto,
        }
    }
}

/// What the daemon did over its lifetime, for the final stats line.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Queries answered successfully.
    pub served: u64,
    /// Queries shed at the admission gate.
    pub shed: u64,
    /// Queries that failed inside the engine.
    pub failures: u64,
    /// The folded per-query statistics.
    pub aggregate: QueryStatsAggregate,
}

/// A bound-but-not-yet-serving daemon (separate from [`IndexServer::serve`]
/// so callers — tests, the CLI — can learn the ephemeral port first).
#[derive(Debug)]
pub struct IndexServer {
    listener: TcpListener,
    config: ServeConfig,
}

impl IndexServer {
    /// Binds the listening socket.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            config,
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `shutdown` flips to `true`, then drains in-flight
    /// requests and returns the lifetime summary.
    ///
    /// Readiness (`/healthz` → 200) is reached after the executor pool
    /// has been prewarmed against every shard of the live index, so a
    /// load balancer polling health never routes to a cold daemon. The
    /// acceptor's idle ticks drive [`DeltaIndex::maybe_republish`], so
    /// overlay flattening happens off the query path on the ingest
    /// cadence trigger.
    pub fn serve(self, live: &DeltaIndex, shutdown: &AtomicBool) -> io::Result<ServeSummary> {
        let threads = self.config.threads.max(1);
        let state = ServeState::new(live, &self.config);
        state.prewarm();

        self.listener.set_nonblocking(true)?;
        let conns: BoundedChannel<TcpStream> = BoundedChannel::new(2 * threads);
        // A dedicated pool: monopolizing the process-global one for the
        // daemon's lifetime would starve every other caller.
        let pool = WorkerPool::new(threads + 1);
        let state_ref = &state;
        let conns_ref = &conns;
        let listener_ref = &self.listener;
        pool.run(threads + 1, &|pid| {
            if pid == 0 {
                accept_loop(listener_ref, conns_ref, live, shutdown);
                conns_ref.close(); // acceptor done → handlers drain + exit
            } else {
                while let Some(stream) = conns_ref.pop() {
                    handle_connection(state_ref, stream, shutdown);
                }
            }
        });
        Ok(state.summary())
    }
}

/// Everything a request handler needs, shared across handler threads.
struct ServeState<'a> {
    live: &'a DeltaIndex,
    series_len: usize,
    query_config: QueryConfig,
    metrics: ServerMetrics,
    admission: Admission,
    ready: AtomicBool,
}

impl<'a> ServeState<'a> {
    fn new(live: &'a DeltaIndex, config: &ServeConfig) -> Self {
        let query_workers = config.query_workers.max(1);
        Self {
            live,
            series_len: live.series_len(),
            query_config: QueryConfig {
                num_workers: query_workers,
                num_queues: query_workers,
                collect_breakdown: config.collect_breakdown,
                kernel: config.kernel,
                ..QueryConfig::default()
            },
            metrics: ServerMetrics::new(live.index().num_shards()),
            admission: Admission::new(config.admission),
            ready: AtomicBool::new(false),
        }
    }

    /// Warms every pooled context of every shard so the first real query
    /// of every handler thread runs allocation-free, then flips
    /// readiness. The live index remembers the configuration and
    /// re-warms every republished epoch the same way before the swap.
    fn prewarm(&self) {
        self.live.prewarm(&self.query_config);
        self.ready.store(true, Ordering::Release);
    }

    fn summary(&self) -> ServeSummary {
        let aggregate = self.metrics.aggregate();
        ServeSummary {
            served: aggregate.queries,
            shed: self.admission.sheds(),
            failures: self.metrics.query_failures.get(),
            aggregate,
        }
    }
}

/// Accepts connections until shutdown, handing them to the handler pool.
/// Idle ticks double as the republish heartbeat: an aged epoch with a
/// pending overlay is flattened here, off every request path.
fn accept_loop(
    listener: &TcpListener,
    conns: &BoundedChannel<TcpStream>,
    live: &DeltaIndex,
    shutdown: &AtomicBool,
) {
    let mut out = Vec::new();
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if let Err(mut stream) = conns.try_push(stream) {
                    // Handler pool and hand-off buffer both full: shed at
                    // the door (best effort — the client may already be
                    // gone) rather than queue unboundedly.
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                    let _ = Response::error(503, "server saturated")
                        .with_retry_after(1)
                        .write_to(&mut stream, true, &mut out);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if let Err(e) = live.maybe_republish() {
                    // Republish failing is not fatal to serving — the
                    // overlay keeps answering — but it must be loud.
                    eprintln!("messi serve: republish failed: {e}");
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // Transient accept failure (e.g. EMFILE): back off and
                // keep the daemon alive.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// A connection as its handler reads it: once a request's first byte is
/// in, `deadline` is when its last must be.
struct Deadline {
    stream: TcpStream,
    deadline: Option<Instant>,
}

impl Read for Deadline {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.deadline.is_some_and(|at| Instant::now() >= at) {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.read(buf)
    }
}

/// Serves one (possibly keep-alive) connection to completion. Every
/// response leaves in one write, from one buffer the handler reuses.
fn handle_connection(state: &ServeState<'_>, stream: TcpStream, shutdown: &AtomicBool) {
    // The sharded executor walks shards inline only for pool workers; a
    // handler hosted on a plain thread would scatter every request over
    // the process pool instead.
    debug_assert!(
        WorkerPool::on_worker_thread(),
        "connection handlers must run on pool workers"
    );
    if stream.set_read_timeout(Some(IDLE_TICK)).is_err()
        || stream
            .set_write_timeout(Some(Duration::from_secs(5)))
            .is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(Deadline {
        stream,
        deadline: None,
    });
    let mut out = Vec::new();
    loop {
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        // Idle tick: wait for the next request to start (or the peer to
        // leave) without committing to a full parse, so drain latency is
        // bounded by IDLE_TICK even with idle keep-alive clients parked.
        reader.get_mut().deadline = None;
        match reader.fill_buf() {
            Ok([]) => break, // peer closed
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => break,
        }
        reader.get_mut().deadline = Some(Instant::now() + REQUEST_DEADLINE);
        let request = http::read_request(&mut reader);
        let stream = &mut reader.get_mut().stream;
        match request {
            Ok(Some(req)) => {
                // Force close while draining so the client re-connects
                // elsewhere instead of parking on a dying daemon.
                let close = req.close || shutdown.load(Ordering::Relaxed);
                let response = route(state, &req);
                state.metrics.http_requests.inc();
                if (400..500).contains(&response.status) {
                    state.metrics.http_client_errors.inc();
                }
                if response.write_to(stream, close, &mut out).is_err() || close {
                    break;
                }
            }
            Ok(None) => break,
            Err(e) => {
                if let Some(status) = e.status() {
                    state.metrics.http_requests.inc();
                    state.metrics.http_client_errors.inc();
                    let _ = Response::error(status, &e.detail()).write_to(stream, true, &mut out);
                }
                break; // framing is lost either way
            }
        }
    }
}

/// Maps one request to one response. Pure with respect to the socket, so
/// the whole routing table is unit-testable without I/O.
fn route(state: &ServeState<'_>, req: &Request) -> Response {
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            if state.ready.load(Ordering::Acquire) {
                Response::text(200, "ok\n")
            } else {
                Response::text(503, "warming up\n").with_retry_after(1)
            }
        }
        ("GET", "/metrics") => Response::text(
            200,
            encode_prometheus(
                &state.metrics,
                &state.admission,
                state.ready.load(Ordering::Acquire),
                &state.live.stats(),
            ),
        ),
        ("POST", "/query") => answer_query(state, req),
        ("POST", "/ingest") => answer_ingest(state, req),
        ("GET" | "POST", "/healthz" | "/metrics" | "/query" | "/ingest") => {
            Response::error(405, &format!("{} not allowed on {path}", req.method))
        }
        _ => Response::error(404, &format!("no route for {path}")),
    }
}

/// The `/query` endpoint: admission gate → decode → prewarmed executor.
fn answer_query(state: &ServeState<'_>, req: &Request) -> Response {
    if !state.ready.load(Ordering::Acquire) {
        return Response::error(503, "index not ready").with_retry_after(1);
    }
    // Shed before parsing: under overload the cheap path must win.
    let Some(_permit) = state.admission.try_acquire() else {
        return Response::error(503, "overloaded: admission gate full").with_retry_after(1);
    };
    let (spec, series) = match proto::decode_query(&req.body, state.series_len) {
        Ok(decoded) => decoded,
        Err(e) => return Response::error(400, &e.0),
    };
    // A panicking query (engine invariant violation) must not take the
    // daemon down with it; the checked-out context is sacrificed and the
    // pool rebuilds a fresh one on the next checkout.
    match catch_unwind(AssertUnwindSafe(|| {
        state.live.query_traced(&series, &spec, &state.query_config)
    })) {
        Ok((answers, stats, alloc_delta, per_shard)) => {
            state.metrics.record_query(&stats, alloc_delta, &per_shard);
            Response::json(200, proto::encode_answer(&spec, &answers, &stats))
        }
        Err(_) => {
            state.metrics.query_failures.inc();
            Response::error(500, "query execution failed")
        }
    }
}

/// The `/ingest` endpoint: decode a batch → [`DeltaIndex::insert_batch`].
///
/// Not admission-gated: ingest is serialized by the writer lock inside
/// the live index, so its concurrency is already bounded at one, and a
/// full query gate must not be able to starve writers.
fn answer_ingest(state: &ServeState<'_>, req: &Request) -> Response {
    if !state.ready.load(Ordering::Acquire) {
        return Response::error(503, "index not ready").with_retry_after(1);
    }
    let batch = match proto::decode_ingest(&req.body, state.series_len) {
        Ok(batch) => batch,
        Err(e) => return Response::error(400, &e.0),
    };
    match state.live.insert_batch(&batch) {
        Ok(report) => Response::json(200, proto::encode_ingest_report(&report)),
        Err(e @ IngestError::PositionOverflow { .. }) => Response::error(409, &e.to_string()),
        Err(
            e @ (IngestError::ShapeMismatch { .. }
            | IngestError::NonFinite { .. }
            | IngestError::EmptyBatch),
        ) => Response::error(400, &e.to_string()),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only an atomic store: async-signal-safe.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Returns the process-wide shutdown flag, wiring SIGINT and SIGTERM to
/// it on Unix (no-op installation elsewhere — the flag can still be
/// flipped programmatically). Idempotent.
pub fn shutdown_flag() -> &'static AtomicBool {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `on_signal` is async-signal-safe (single atomic store)
        // and matches the C `void (*)(int)` handler ABI.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
    &SHUTDOWN
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::ingest::IngestOptions;
    use crate::shard::ShardedIndex;
    use messi_series::gen::{self, DatasetKind};
    use std::sync::Arc;

    fn test_live() -> DeltaIndex {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 11));
        let index = ShardedIndex::build(data, 2, &IndexConfig::for_tests()).0;
        DeltaIndex::new(index, IngestOptions::default())
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            body: Vec::new(),
            close: false,
        }
    }

    fn post(path: &str, body: String) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            body: body.into_bytes(),
            close: false,
        }
    }

    fn post_query(body: String) -> Request {
        post("/query", body)
    }

    fn series_json(series: &[f32]) -> String {
        let vals: Vec<String> = series.iter().map(|x| format!("{x:?}")).collect();
        format!("[{}]", vals.join(","))
    }

    fn query_body(live: &DeltaIndex, fields: &str) -> String {
        let json = series_json(live.index().dataset().series(0));
        format!("{{{fields}\"series\":{json}}}")
    }

    #[test]
    fn healthz_gates_on_readiness() {
        let live = test_live();
        let state = ServeState::new(&live, &ServeConfig::default());
        let resp = route(&state, &get("/healthz"));
        assert_eq!(resp.status, 503, "not ready before prewarm");
        assert_eq!(resp.retry_after, Some(1));
        let resp = route(&state, &post_query(query_body(&live, "")));
        assert_eq!(resp.status, 503, "queries are also gated on readiness");
        let resp = route(&state, &post("/ingest", "{}".into()));
        assert_eq!(resp.status, 503, "ingest is also gated on readiness");

        state.prewarm();
        let resp = route(&state, &get("/healthz"));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"ok\n");
    }

    #[test]
    fn query_route_answers_like_the_index() {
        let live = test_live();
        let state = ServeState::new(&live, &ServeConfig::default());
        state.prewarm();

        let resp = route(&state, &post_query(query_body(&live, "")));
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let doc =
            super::super::json::Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let answers = doc.get("answers").unwrap().as_arr().unwrap();
        assert_eq!(answers.len(), 1);
        // Query = series 0 of the dataset, so the 1-NN is series 0 itself.
        assert_eq!(answers[0].get("pos").unwrap().as_f64(), Some(0.0));
        assert_eq!(state.metrics.aggregate().queries, 1);

        let resp = route(
            &state,
            &post_query(query_body(&live, "\"objective\":\"knn\",\"k\":4,")),
        );
        let doc =
            super::super::json::Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("answers").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn knn_beyond_the_collection_answers_every_series_in_order() {
        let live = test_live();
        let state = ServeState::new(&live, &ServeConfig::default());
        state.prewarm();
        let fields = format!("\"objective\":\"knn\",\"k\":{},", u32::MAX);
        let resp = route(&state, &post_query(query_body(&live, &fields)));
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let doc =
            super::super::json::Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let answers = doc.get("answers").unwrap().as_arr().unwrap();
        assert_eq!(
            answers.len() as u64,
            live.num_series(),
            "every series answers"
        );
        let dist = |a: &super::super::json::Json| a.get("dist_sq").unwrap().as_f64().unwrap();
        assert!(answers.windows(2).all(|w| dist(&w[0]) <= dist(&w[1])));
    }

    #[test]
    fn ingest_route_appends_and_serves_the_new_series() {
        let live = test_live();
        let state = ServeState::new(&live, &ServeConfig::default());
        state.prewarm();

        // A fresh series far from the random walks: ingest it, then an
        // exact query for it must come back at the appended position.
        let fresh: Vec<f32> = (0..live.series_len())
            .map(|i| (i as f32).sin() + 40.0)
            .collect();
        let body = format!("{{\"series\":[{}]}}", series_json(&fresh));
        let resp = route(&state, &post("/ingest", body));
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let doc =
            super::super::json::Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("accepted").unwrap().as_f64(), Some(1.0));
        assert_eq!(doc.get("total_series").unwrap().as_f64(), Some(301.0));

        let query = format!("{{\"series\":{}}}", series_json(&fresh));
        let resp = route(&state, &post_query(query));
        let doc =
            super::super::json::Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let answers = doc.get("answers").unwrap().as_arr().unwrap();
        assert_eq!(answers[0].get("pos").unwrap().as_f64(), Some(300.0));
        assert_eq!(answers[0].get("distance").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn ingest_route_maps_typed_errors_to_statuses() {
        let live = test_live();
        let state = ServeState::new(&live, &ServeConfig::default());
        state.prewarm();
        assert_eq!(route(&state, &get("/ingest")).status, 405);
        assert_eq!(
            route(&state, &post("/ingest", "not json".into())).status,
            400,
            "malformed body"
        );
        assert_eq!(
            route(&state, &post("/ingest", "{\"series\":[[1.0,2.0]]}".into())).status,
            400,
            "wrong series_len"
        );
        let nan = format!(
            "{{\"series\":[{}]}}",
            series_json(&vec![f32::NAN; live.series_len()])
        );
        // NaN never survives the JSON number grammar, so it is a decode
        // error (400) before the index even sees the batch.
        assert_eq!(route(&state, &post("/ingest", nan)).status, 400);
    }

    #[test]
    fn router_maps_errors_to_statuses() {
        let live = test_live();
        let state = ServeState::new(&live, &ServeConfig::default());
        state.prewarm();
        assert_eq!(route(&state, &get("/nope")).status, 404);
        assert_eq!(route(&state, &get("/query")).status, 405);
        let mut req = get("/healthz");
        req.method = "POST".into();
        assert_eq!(route(&state, &req).status, 405);
        assert_eq!(
            route(&state, &post_query("not json".into())).status,
            400,
            "malformed body"
        );
        assert_eq!(
            route(&state, &post_query(query_body(&live, "\"k\":3,"))).status,
            400,
            "contradictory fields"
        );
    }

    #[test]
    fn drain_mode_sheds_queries_with_retry_hint_but_serves_health() {
        let live = test_live();
        let state = ServeState::new(
            &live,
            &ServeConfig {
                admission: 0,
                ..ServeConfig::default()
            },
        );
        state.prewarm();
        let resp = route(&state, &post_query(query_body(&live, "")));
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after, Some(1));
        assert!(String::from_utf8_lossy(&resp.body).contains("overloaded"));
        assert_eq!(state.admission.sheds(), 1);
        assert_eq!(route(&state, &get("/healthz")).status, 200);
        let metrics = route(&state, &get("/metrics"));
        assert!(String::from_utf8_lossy(&metrics.body).contains("messi_queries_shed_total 1"));
    }

    #[test]
    fn metrics_expose_query_and_ingest_counters() {
        let live = test_live();
        let state = ServeState::new(&live, &ServeConfig::default());
        state.prewarm();
        let _ = route(&state, &post_query(query_body(&live, "")));
        let fresh = vec![0.25_f32; live.series_len()];
        let body = format!("{{\"series\":[{}]}}", series_json(&fresh));
        assert_eq!(route(&state, &post("/ingest", body)).status, 200);
        let text = route(&state, &get("/metrics"));
        let body = String::from_utf8(text.body).unwrap();
        assert!(body.contains("messi_queries_total 1"), "{body}");
        assert!(body.contains("messi_ready 1"), "{body}");
        assert!(
            body.contains("messi_query_real_distance_calcs_total"),
            "{body}"
        );
        assert!(body.contains("messi_ingest_batches_total 1"), "{body}");
        assert!(body.contains("messi_ingest_delta_series 1"), "{body}");
        assert!(body.contains("messi_ingest_live_series 301"), "{body}");
    }

    #[test]
    fn summary_reflects_served_and_shed() {
        let live = test_live();
        let state = ServeState::new(
            &live,
            &ServeConfig {
                admission: 0,
                ..ServeConfig::default()
            },
        );
        state.prewarm();
        let _ = route(&state, &post_query(query_body(&live, "")));
        let summary = state.summary();
        assert_eq!(summary.served, 0);
        assert_eq!(summary.shed, 1);
        assert_eq!(summary.failures, 0);
    }
}
