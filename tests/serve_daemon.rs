//! End-to-end daemon tests: a real [`IndexServer`] on an ephemeral
//! loopback port, exercised through the real [`serve::Client`] — sockets,
//! HTTP framing, keep-alive, admission, readiness, and graceful drain all
//! in one process.
//!
//! The CI `daemon-smoke` job repeats this flow against a separate `messi
//! serve` *process* (SIGTERM included); this suite keeps the same
//! guarantees in `cargo test` where a debugger can reach them.

use messi::index::serve::{self, Client, IndexServer, ServeConfig, ServeSummary, SmokeConfig};
use messi::prelude::*;
use messi::{DeltaIndex, IngestOptions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// One test compares the process's thread count before and after its
/// load and reads a process-wide counter, so it needs the process to
/// itself: it holds this exclusively, every other test shared.
static PROCESS: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    PROCESS
        .read()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn exclusive() -> RwLockWriteGuard<'static, ()> {
    PROCESS
        .write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The daemon serves a sharded index (2 shards here) behind a live
/// [`DeltaIndex`], so these tests cover the scatter-gather and the
/// epoch-seam paths end to end; `ShardedIndex::from_single` deployments
/// go through the same code with the scatter skipped.
fn build_index(count: usize, seed: u64) -> (Arc<Dataset>, DeltaIndex) {
    let data = Arc::new(messi::series::gen::generate(
        DatasetKind::RandomWalk,
        count,
        seed,
    ));
    let index = build_sharded(&data);
    (data, DeltaIndex::new(index, IngestOptions::default()))
}

fn build_sharded(data: &Arc<Dataset>) -> ShardedIndex {
    let config = IndexConfig {
        segments: 8,
        num_workers: 4,
        chunk_size: 64,
        leaf_capacity: 32,
        ..IndexConfig::default()
    };
    ShardedIndex::build(Arc::clone(data), 2, &config).0
}

/// Boots a daemon on an ephemeral port and runs `f` against it; shuts
/// down afterwards and returns the serve summary.
fn with_daemon<T>(
    config: ServeConfig,
    live: &DeltaIndex,
    f: impl FnOnce(&str) -> T,
) -> (T, ServeSummary) {
    let server = IndexServer::bind("127.0.0.1:0", config).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr").to_string();
    let shutdown = AtomicBool::new(false);
    let (out, summary) = std::thread::scope(|s| {
        let daemon = s.spawn(|| server.serve(live, &shutdown).expect("serve"));
        assert!(
            serve::wait_ready(&addr, Duration::from_secs(30)),
            "daemon never became ready"
        );
        let out = f(&addr);
        shutdown.store(true, Ordering::SeqCst);
        (out, daemon.join().expect("daemon thread"))
    });
    (out, summary)
}

fn body_for(objective_fields: &str, series: &[f32]) -> Vec<u8> {
    let vals: Vec<String> = series.iter().map(|x| format!("{x}")).collect();
    format!("{{{objective_fields}\"series\":[{}]}}", vals.join(",")).into_bytes()
}

fn parse_json(body: &[u8]) -> messi::index::serve::json::Json {
    messi::index::serve::json::Json::parse(std::str::from_utf8(body).expect("utf-8 body"))
        .expect("valid JSON body")
}

#[test]
fn daemon_answers_every_objective_over_real_sockets() {
    let _shared = shared();
    let (data, index) = build_index(400, 21);
    let q = data.series(3).to_vec();
    let (_, summary) = with_daemon(
        ServeConfig {
            threads: 3,
            admission: 8,
            query_workers: 1,
            collect_breakdown: true,
            ..ServeConfig::default()
        },
        &index,
        |addr| {
            let mut client = Client::connect(addr).expect("connect");

            // Exact 1-NN of a dataset member is the member itself.
            let resp = client
                .request("POST", "/query", &body_for("", &q))
                .expect("exact");
            assert_eq!(
                resp.status,
                200,
                "{:?}",
                String::from_utf8_lossy(&resp.body)
            );
            let doc = parse_json(&resp.body);
            let answers = doc.get("answers").unwrap().as_arr().unwrap();
            assert_eq!(answers[0].get("pos").unwrap().as_f64(), Some(3.0));

            // k-NN over the same keep-alive connection.
            let resp = client
                .request(
                    "POST",
                    "/query",
                    &body_for("\"objective\":\"knn\",\"k\":5,", &q),
                )
                .expect("knn");
            let doc = parse_json(&resp.body);
            assert_eq!(doc.get("answers").unwrap().as_arr().unwrap().len(), 5);

            // Range search with a radius that must at least catch q itself.
            let resp = client
                .request(
                    "POST",
                    "/query",
                    &body_for("\"objective\":\"range\",\"epsilon\":5.0,", &q),
                )
                .expect("range");
            let doc = parse_json(&resp.body);
            assert!(!doc.get("answers").unwrap().as_arr().unwrap().is_empty());

            // Approximate with explicit ε/δ, then DTW exact.
            let resp = client
                .request(
                    "POST",
                    "/query",
                    &body_for(
                        "\"objective\":\"approx\",\"epsilon\":0.1,\"delta\":0.5,",
                        &q,
                    ),
                )
                .expect("approx");
            assert_eq!(resp.status, 200);
            let resp = client
                .request("POST", "/query", &body_for("\"metric\":\"dtw\",", &q))
                .expect("dtw");
            let doc = parse_json(&resp.body);
            assert_eq!(
                doc.get("answers").unwrap().as_arr().unwrap()[0]
                    .get("pos")
                    .unwrap()
                    .as_f64(),
                Some(3.0),
                "DTW 1-NN of a member is the member"
            );
        },
    );
    assert_eq!(summary.served, 5);
    assert_eq!(summary.failures, 0);
    assert_eq!(summary.shed, 0);
    assert!(summary.aggregate.real_distance_calcs > 0);
}

#[test]
fn metrics_and_health_reflect_daemon_state() {
    let _shared = shared();
    let (data, index) = build_index(300, 22);
    let q = data.series(0).to_vec();
    let ((), summary) = with_daemon(ServeConfig::default(), &index, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let health = client.request("GET", "/healthz", b"").expect("healthz");
        assert_eq!(health.status, 200);
        assert_eq!(health.body, b"ok\n");

        let _ = client.request("POST", "/query", &body_for("", &q)).unwrap();
        let bad = client
            .request("POST", "/query", b"{\"bogus\":1}")
            .expect("bad body transports fine");
        assert_eq!(bad.status, 400);
        let missing = client.request("GET", "/nope", b"").expect("404 route");
        assert_eq!(missing.status, 404);

        let metrics = client.request("GET", "/metrics", b"").expect("metrics");
        assert_eq!(metrics.status, 200);
        let text = String::from_utf8(metrics.body).expect("utf-8 metrics");
        assert!(text.contains("\nmessi_ready 1\n"), "{text}");
        assert!(text.contains("\nmessi_queries_total 1\n"), "{text}");
        assert!(
            text.contains("\nmessi_http_client_errors_total 2\n"),
            "{text}"
        );
        assert!(text.contains("\nmessi_query_alloc_events_total"), "{text}");
        assert!(
            text.contains("messi_query_phase_seconds_total{phase=\"tree_pass\"}"),
            "{text}"
        );
    });
    assert_eq!(summary.served, 1);
}

#[test]
fn drain_mode_sheds_every_query_and_load_smoke_reports_it() {
    let _shared = shared();
    let (data, index) = build_index(300, 23);
    let bodies: Vec<Vec<u8>> = (0..4).map(|i| body_for("", data.series(i))).collect();
    let (report, summary) = with_daemon(
        ServeConfig {
            admission: 0, // drain mode: deterministic 503s
            threads: 2,
            ..ServeConfig::default()
        },
        &index,
        |addr| {
            // Health stays green while every query sheds.
            let mut client = Client::connect(addr).expect("connect");
            let health = client.request("GET", "/healthz", b"").expect("healthz");
            assert_eq!(health.status, 200);
            let shed = client
                .request("POST", "/query", &bodies[0])
                .expect("shed response still transports");
            assert_eq!(shed.status, 503);
            assert_eq!(shed.retry_after, Some(1), "503 carries Retry-After");

            serve::run_load_smoke(
                addr,
                &bodies,
                &SmokeConfig {
                    clients: 2,
                    per_client: 3,
                    retry: false,
                    max_attempts: 1,
                },
            )
        },
    );
    assert_eq!(report.ok, 0);
    assert_eq!(report.shed, 6);
    assert_eq!(report.client_errors + report.server_errors, 0);
    assert_eq!(summary.served, 0);
    assert_eq!(summary.shed, 7, "direct probe + smoke queries all shed");
}

#[test]
fn concurrent_load_smoke_answers_everything_once_warm() {
    let _shared = shared();
    let (data, index) = build_index(500, 24);
    let bodies: Vec<Vec<u8>> = (0..8)
        .map(|i| body_for("\"objective\":\"knn\",\"k\":3,", data.series(i * 7)))
        .collect();
    let (report, summary) = with_daemon(
        ServeConfig {
            threads: 4,
            admission: 8,
            query_workers: 1,
            collect_breakdown: false,
            ..ServeConfig::default()
        },
        &index,
        |addr| {
            serve::run_load_smoke(
                addr,
                &bodies,
                &SmokeConfig {
                    clients: 4,
                    per_client: 10,
                    retry: true,
                    max_attempts: 50,
                },
            )
        },
    );
    assert_eq!(report.ok, 40, "{report:?}");
    assert_eq!(report.client_errors + report.server_errors, 0);
    assert_eq!(report.transport_errors, 0);
    assert_eq!(summary.served + summary.shed, 40 + report.retries);
    assert_eq!(summary.failures, 0);
    assert!(report.p50_us > 0 && report.p50_us <= report.p99_us);
}

#[test]
fn readiness_gates_queries_until_prewarm_finishes() {
    let _shared = shared();
    // A daemon that is bound but not yet serving refuses connections;
    // once serving, readiness flips only after prewarm. The in-process
    // route-level gating is covered by unit tests — here we check the
    // full socket path returns ready=200 exactly when wait_ready says so.
    let (_, index) = build_index(200, 25);
    let ((), summary) = with_daemon(ServeConfig::default(), &index, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let resp = client.request("GET", "/healthz", b"").expect("health");
        assert_eq!(resp.status, 200, "wait_ready returned → health is green");
    });
    assert_eq!(summary.served, 0);
}

/// Threads of this process right now (Linux; 0 where procfs is absent,
/// which makes the before/after comparison vacuous there).
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

#[test]
fn a_two_shard_daemon_answers_on_its_handler_threads_alone() {
    let _alone = exclusive();
    let (data, index) = build_index(600, 28);
    let bodies: Vec<Vec<u8>> = (0..25).map(|i| body_for("", data.series(i * 23))).collect();
    let config = ServeConfig {
        threads: 2,
        admission: 4,
        query_workers: 1,
        ..ServeConfig::default()
    };
    let ((report, metrics, threads), summary) = with_daemon(config, &index, |addr| {
        let before = thread_count();
        // Two keep-alive connections, one per handler, 100 queries each.
        let report = serve::run_load_smoke(
            addr,
            &bodies,
            &SmokeConfig {
                clients: 2,
                per_client: 100,
                retry: true,
                max_attempts: 50,
            },
        );
        let threads = (before, thread_count());
        let mut client = Client::connect(addr).expect("connect");
        let metrics = client.request("GET", "/metrics", b"").expect("metrics");
        let text = String::from_utf8(metrics.body).expect("utf-8 metrics");
        (report, text, threads)
    });
    assert_eq!(report.ok, 200, "{report:?}");
    assert_eq!(report.shed + report.transport_errors, 0, "{report:?}");
    assert_eq!(summary.served, 200);
    assert_eq!(summary.failures, 0);
    // Every query walked both shards inline on its handler thread: no
    // thread was spawned for it, and the walk's one context stayed warm.
    assert!(
        metrics.contains("\nmessi_pool_nested_spawns_total 0\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("\nmessi_query_alloc_events_total 0\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("\nmessi_shard_queries_total{shard=\"1\"} 200\n"),
        "both shards answered every query: {metrics}"
    );
    assert_eq!(threads.0, threads.1, "the load changed the thread count");
}

fn ingest_body(rows: &[Vec<f32>]) -> Vec<u8> {
    let rows: Vec<String> = rows
        .iter()
        .map(|series| {
            let vals: Vec<String> = series.iter().map(|x| format!("{x:?}")).collect();
            format!("[{}]", vals.join(","))
        })
        .collect();
    format!("{{\"series\":[{}]}}", rows.join(",")).into_bytes()
}

#[test]
fn ingest_endpoint_appends_durably_and_a_reboot_replays_the_log() {
    let _shared = shared();
    let log = std::env::temp_dir().join(format!("messi-daemon-ingest-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let data = Arc::new(messi::series::gen::generate(
        DatasetKind::RandomWalk,
        200,
        27,
    ));
    let len = data.series_len();
    let fresh: Vec<Vec<f32>> = (0..2)
        .map(|s| {
            (0..len)
                .map(|i| ((i * 13 + s * 7) as f32 * 0.01).cos() * 3.0 + s as f32)
                .collect()
        })
        .collect();

    let (live, report) = DeltaIndex::with_log(build_sharded(&data), IngestOptions::default(), &log)
        .expect("fresh log");
    assert_eq!((report.batches, report.series), (0, 0));
    let ((), summary) = with_daemon(ServeConfig::default(), &live, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let resp = client
            .request("POST", "/ingest", &ingest_body(&fresh))
            .expect("ingest");
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let doc = parse_json(&resp.body);
        assert_eq!(doc.get("accepted").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.get("total_series").unwrap().as_f64(), Some(202.0));

        // The appended series answers its own exact query at the global
        // position right after the base collection, over real sockets.
        let resp = client
            .request("POST", "/query", &body_for("", &fresh[1]))
            .expect("query ingested");
        let doc = parse_json(&resp.body);
        let answers = doc.get("answers").unwrap().as_arr().unwrap();
        assert_eq!(answers[0].get("pos").unwrap().as_f64(), Some(201.0));
        assert_eq!(answers[0].get("distance").unwrap().as_f64(), Some(0.0));

        let metrics = client.request("GET", "/metrics", b"").expect("metrics");
        let text = String::from_utf8(metrics.body).expect("utf-8 metrics");
        assert!(text.contains("\nmessi_ingest_batches_total 1\n"), "{text}");
        assert!(text.contains("\nmessi_ingest_live_series 202\n"), "{text}");
    });
    assert_eq!(summary.served, 1);
    drop(live);

    // Reboot: same base collection + same log ⇒ the acknowledged series
    // are replayed and answer identically, without having been re-sent.
    let (rebooted, report) =
        DeltaIndex::with_log(build_sharded(&data), IngestOptions::default(), &log)
            .expect("reopen log");
    assert_eq!((report.batches, report.series), (1, 2));
    assert!(!report.torn);
    let (answers, _) = rebooted.query(&fresh[1], &QuerySpec::exact(), &QueryConfig::default());
    assert_eq!(answers[0].pos, 201);
    assert_eq!(answers[0].dist_sq, 0.0);
    let _ = std::fs::remove_file(&log);
}

#[test]
fn oversized_and_malformed_requests_do_not_kill_the_connection_pool() {
    let _shared = shared();
    let (data, index) = build_index(200, 26);
    let q = data.series(0).to_vec();
    let ((), summary) = with_daemon(ServeConfig::default(), &index, |addr| {
        // A request *declaring* a body over the cap gets 413 without the
        // body ever being sent or read, and the connection closes. Raw
        // socket: the server refuses before the body, so sending one
        // would just race the close.
        use std::io::{Read as _, Write as _};
        let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
        write!(
            raw,
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            (1 << 20) + 1
        )
        .expect("send oversized declaration");
        let mut resp = String::new();
        raw.read_to_string(&mut resp).expect("read until close");
        assert!(
            resp.starts_with("HTTP/1.1 413 "),
            "expected 413, got: {resp}"
        );
        assert!(resp.contains("Connection: close"), "{resp}");

        // …but the daemon keeps serving fresh connections.
        let mut client = Client::connect(addr).expect("reconnect");
        let resp = client
            .request("POST", "/query", &body_for("", &q))
            .expect("query after 413");
        assert_eq!(resp.status, 200);

        // Unknown fields and wrong-length series are 400s, not failures.
        let resp = client
            .request("POST", "/query", b"{\"series\":[1,2,3],\"surprise\":1}")
            .expect("400");
        assert_eq!(resp.status, 400);

        // So is a finite JSON number that narrows to an infinite f32:
        // the engine would "answer" it with no series at distance inf.
        let mut vals: Vec<String> = q.iter().map(|x| format!("{x}")).collect();
        vals[5] = "1e39".to_string();
        let body = format!("{{\"series\":[{}]}}", vals.join(","));
        let resp = client
            .request("POST", "/query", body.as_bytes())
            .expect("400");
        assert_eq!(resp.status, 400);
        let text = String::from_utf8_lossy(&resp.body);
        assert!(text.contains("`series[5]` is not finite"), "{text}");
    });
    assert_eq!(summary.served, 1);
    assert_eq!(summary.failures, 0);
}

#[test]
fn a_dripping_client_is_answered_408_and_cannot_pin_a_handler() {
    use std::io::{Read as _, Write as _};
    use std::time::Instant;
    let _shared = shared();
    let (_, index) = build_index(200, 27);
    let config = ServeConfig {
        threads: 3,
        ..ServeConfig::default()
    };
    // Asserted after the daemon is down: a failure inside `with_daemon`
    // would leave it serving.
    let ((health, dripped), _) = with_daemon(config, &index, |addr| {
        // Two of the three handlers are held mid-header by clients that
        // send one byte every 200 ms — always inside the handler's 250 ms
        // read tick, so no single read ever times out.
        let start = Instant::now();
        let drippers: Vec<_> = (0..2)
            .map(|_| {
                let mut raw = std::net::TcpStream::connect(addr).expect("connect");
                raw.set_nodelay(true).expect("nodelay");
                // Waiting 200 ms for an answer paces the drip.
                raw.set_read_timeout(Some(Duration::from_millis(200)))
                    .expect("read timeout");
                std::thread::spawn(move || {
                    let mut resp = Vec::new();
                    for byte in b"GET /healthz HTTP/1.1\r\nX-Slow: ".iter().cycle() {
                        if raw.write_all(&[*byte]).is_err() {
                            break;
                        }
                        let mut chunk = [0u8; 512];
                        match raw.read(&mut chunk) {
                            Ok(n) => {
                                resp.extend_from_slice(&chunk[..n]);
                                let _ = raw.read_to_end(&mut resp);
                                break;
                            }
                            Err(_) if start.elapsed() > Duration::from_secs(8) => break,
                            Err(_) => {} // nothing yet: drip on
                        }
                    }
                    (String::from_utf8_lossy(&resp).into_owned(), start.elapsed())
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(300));

        // The third handler still answers a fresh connection at once.
        let mut client = Client::connect(addr).expect("connect");
        let health = client.request("GET", "/healthz", b"").map(|r| r.status);
        let dripped: Vec<_> = drippers.into_iter().map(|d| d.join()).collect();
        (health, dripped)
    });
    assert_eq!(health.expect("healthz"), 200);
    // Each dripper is cut off by the total read deadline (2 s from its
    // first byte), not kept for as long as it keeps dripping.
    for dripper in dripped {
        let (resp, after) = dripper.expect("dripper thread");
        assert!(resp.starts_with("HTTP/1.1 408 "), "got: {resp:?}");
        assert!(resp.contains("Connection: close"), "{resp}");
        assert!(after < Duration::from_secs(6), "closed after {after:?}");
    }
}
