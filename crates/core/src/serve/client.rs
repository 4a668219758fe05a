//! The daemon's counterpart: a blocking HTTP/1.1 client and the
//! `load-smoke` driver.
//!
//! [`Client`] speaks exactly the dialect the server emits (status line +
//! headers + `Content-Length` body, keep-alive by default), so the pair
//! round-trips without touching a real HTTP stack. [`run_load_smoke`]
//! drives N concurrent keep-alive connections through a list of query
//! bodies and folds the outcome into a [`SmokeReport`] — ok/shed/error
//! counts and p50/p99 latency — which is what the CI daemon-smoke job
//! asserts on.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A parsed response as the client sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Retry-After` hint in seconds, if the server sent one.
    pub retry_after: Option<u64>,
    /// The response body.
    pub body: Vec<u8>,
    /// Whether the server will close the connection after this exchange.
    pub close: bool,
}

/// A blocking keep-alive HTTP/1.1 connection to the daemon.
#[derive(Debug)]
pub struct Client {
    stream: BufReader<TcpStream>,
    /// The rendered request, then each header line of the response.
    out: Vec<u8>,
    line: String,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7700`).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            stream: BufReader::new(stream),
            out: Vec::new(),
            line: String::new(),
        })
    }

    /// Sends one request — rendered whole, written once — and reads the
    /// response off the same connection.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nHost: messi\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.out.extend_from_slice(body);
        self.stream.get_mut().write_all(&self.out)?;
        read_response(&mut self.stream, &mut self.line)
    }
}

/// Parses one response from any [`BufRead`] (unit-tested without
/// sockets, mirroring the server's request parser), every header line
/// through the caller's `line`.
fn read_response<R: BufRead>(r: &mut R, line: &mut String) -> io::Result<ClientResponse> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    line.clear();
    if r.read_line(line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before status line",
        ));
    }
    let mut parts = line.trim_end().splitn(3, ' ');
    let (Some(version), Some(status)) = (parts.next(), parts.next()) else {
        return Err(bad("malformed status line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported HTTP version"));
    }
    let status: u16 = status.parse().map_err(|_| bad("malformed status code"))?;

    let mut content_length: usize = 0;
    let mut retry_after = None;
    let mut close = false;
    loop {
        line.clear();
        if r.read_line(line)? == 0 {
            return Err(bad("truncated response headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad("malformed response header"));
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value.parse().map_err(|_| bad("invalid content-length"))?;
            }
            "retry-after" => retry_after = value.parse().ok(),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;
    Ok(ClientResponse {
        status,
        retry_after,
        body,
        close,
    })
}

/// Polls `GET /healthz` until the daemon reports ready or the deadline
/// passes. Returns `true` once ready.
pub fn wait_ready(addr: &str, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(mut client) = Client::connect(addr) {
            if let Ok(resp) = client.request("GET", "/healthz", b"") {
                if resp.status == 200 {
                    return true;
                }
            }
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Shape of a load-smoke run.
#[derive(Debug, Clone)]
pub struct SmokeConfig {
    /// Concurrent keep-alive connections.
    pub clients: usize,
    /// Queries sent per connection.
    pub per_client: usize,
    /// Retry shed (503) queries with backoff until they land. When
    /// `false` a 503 just counts as shed and the driver moves on — the
    /// mode the CI harness uses to assert that shedding happens.
    pub retry: bool,
    /// Attempt cap per query when retrying (connect errors included).
    pub max_attempts: usize,
}

impl Default for SmokeConfig {
    fn default() -> Self {
        Self {
            clients: 4,
            per_client: 25,
            retry: true,
            max_attempts: 50,
        }
    }
}

/// What a load-smoke run observed.
#[derive(Debug, Clone, Default)]
pub struct SmokeReport {
    /// Queries answered `200`.
    pub ok: u64,
    /// `503` responses observed (shed by the admission gate).
    pub shed: u64,
    /// `4xx` responses (should be 0 for well-formed bodies).
    pub client_errors: u64,
    /// `5xx` responses other than 503.
    pub server_errors: u64,
    /// Connect/read/write failures.
    pub transport_errors: u64,
    /// Re-sends performed after a 503 or transport failure.
    pub retries: u64,
    /// Median end-to-end latency of successful queries, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency of successful queries, microseconds.
    pub p99_us: u64,
    /// Worst-case latency of successful queries, microseconds.
    pub max_us: u64,
    /// Wall time of the whole run.
    pub wall: Duration,
}

impl SmokeReport {
    /// Successful queries per second over the run's wall time.
    pub fn throughput(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.ok as f64 / self.wall.as_secs_f64()
        }
    }

    /// The single stats line the CLI prints and CI greps.
    pub fn render(&self) -> String {
        format!(
            "load-smoke: ok={} shed={} client_errors={} server_errors={} \
             transport_errors={} retries={} p50_us={} p99_us={} max_us={} \
             wall_ms={} qps={:.1}",
            self.ok,
            self.shed,
            self.client_errors,
            self.server_errors,
            self.transport_errors,
            self.retries,
            self.p50_us,
            self.p99_us,
            self.max_us,
            self.wall.as_millis(),
            self.throughput()
        )
    }
}

/// The `q`-quantile of an ascending-sorted slice (nearest-rank).
fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Per-thread tally, merged into the final report after the run.
#[derive(Default)]
struct ThreadTally {
    latencies_us: Vec<u64>,
    shed: u64,
    client_errors: u64,
    server_errors: u64,
    transport_errors: u64,
    retries: u64,
}

/// Drives `config.clients` concurrent connections through `bodies`
/// (each thread walks the list round-robin from its own offset, so all
/// bodies get exercised even when `per_client < bodies.len()`).
///
/// Every query either succeeds, is counted shed/errored, or exhausts
/// `max_attempts`; the driver itself never blocks indefinitely.
pub fn run_load_smoke(addr: &str, bodies: &[Vec<u8>], config: &SmokeConfig) -> SmokeReport {
    assert!(
        !bodies.is_empty(),
        "load-smoke needs at least one query body"
    );
    let started = Instant::now();
    let tallies: Vec<ThreadTally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..config.clients.max(1))
            .map(|client_id| s.spawn(move || smoke_thread(addr, bodies, config, client_id)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("smoke thread panicked"))
            .collect()
    });

    let mut report = SmokeReport {
        wall: started.elapsed(),
        ..SmokeReport::default()
    };
    let mut latencies: Vec<u64> = Vec::new();
    for tally in tallies {
        report.shed += tally.shed;
        report.client_errors += tally.client_errors;
        report.server_errors += tally.server_errors;
        report.transport_errors += tally.transport_errors;
        report.retries += tally.retries;
        latencies.extend(tally.latencies_us);
    }
    latencies.sort_unstable();
    report.ok = latencies.len() as u64;
    report.p50_us = percentile(&latencies, 0.50);
    report.p99_us = percentile(&latencies, 0.99);
    report.max_us = latencies.last().copied().unwrap_or(0);
    report
}

/// Milliseconds to sleep before retrying a shed (503) query.
///
/// The linear per-attempt ramp (`5 ms × attempt`) is the floor: a
/// `Retry-After: 0` hint must never collapse into a hot-spin loop. The
/// hint itself is in whole seconds — far coarser than these
/// sub-millisecond queries — so it is scaled down (20 ms per hinted
/// second) and capped at [`MAX_BACKOFF_MS`], well below a full second,
/// so a large hint cannot stall the smoke run either.
const MAX_BACKOFF_MS: u64 = 250;

fn backoff_ms(attempt: usize, retry_after: Option<u64>) -> u64 {
    let base = (5 * attempt as u64).max(1);
    let hinted = retry_after.map_or(base, |s| base.max(s.saturating_mul(20)));
    hinted.clamp(1, MAX_BACKOFF_MS)
}

/// One connection's worth of the load-smoke run.
fn smoke_thread(
    addr: &str,
    bodies: &[Vec<u8>],
    config: &SmokeConfig,
    client_id: usize,
) -> ThreadTally {
    let mut tally = ThreadTally::default();
    let mut conn: Option<Client> = None;
    for i in 0..config.per_client {
        let body = &bodies[(client_id * config.per_client + i) % bodies.len()];
        for attempt in 1..=config.max_attempts.max(1) {
            if attempt > 1 {
                tally.retries += 1;
            }
            let client = match conn.as_mut() {
                Some(c) => c,
                None => match Client::connect(addr) {
                    Ok(c) => conn.insert(c),
                    Err(_) => {
                        tally.transport_errors += 1;
                        std::thread::sleep(Duration::from_millis(10 * attempt as u64));
                        continue;
                    }
                },
            };
            let sent = Instant::now();
            match client.request("POST", "/query", body) {
                Ok(resp) => {
                    if resp.close {
                        conn = None;
                    }
                    match resp.status {
                        200 => {
                            tally
                                .latencies_us
                                .push(sent.elapsed().as_micros().min(u64::MAX as u128) as u64);
                            break;
                        }
                        503 => {
                            tally.shed += 1;
                            if !config.retry {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(backoff_ms(
                                attempt,
                                resp.retry_after,
                            )));
                        }
                        400..=499 => {
                            tally.client_errors += 1;
                            break;
                        }
                        _ => {
                            tally.server_errors += 1;
                            break;
                        }
                    }
                }
                Err(_) => {
                    tally.transport_errors += 1;
                    conn = None; // framing lost; reconnect
                    std::thread::sleep(Duration::from_millis(10 * attempt as u64));
                }
            }
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::http::{read_request, Response};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn parses_a_response_with_retry_after() {
        let raw: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 4\r\n\
                           Retry-After: 2\r\nConnection: close\r\n\r\nbusy";
        let resp = read_response(&mut BufReader::new(raw), &mut String::new()).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after, Some(2));
        assert_eq!(resp.body, b"busy");
        assert!(resp.close);
    }

    #[test]
    fn rejects_malformed_responses() {
        for raw in [
            &b"garbage\r\n\r\n"[..],
            &b"HTTP/1.1 abc OK\r\n\r\n"[..],
            &b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab"[..], // short body
            &b""[..],
        ] {
            let parsed = read_response(&mut BufReader::new(raw), &mut String::new());
            assert!(parsed.is_err(), "{raw:?}");
        }
    }

    #[test]
    fn backoff_zero_second_hint_never_hot_spins() {
        // A `Retry-After: 0` hint must fall back to the per-attempt
        // ramp, never to a 0 ms busy loop.
        for attempt in 1..=10 {
            let ms = backoff_ms(attempt, Some(0));
            assert!(ms >= 1, "attempt {attempt}: zero-ms backoff");
            assert_eq!(ms, backoff_ms(attempt, None), "0 s hint == no hint");
        }
        assert_eq!(backoff_ms(1, Some(0)), 5);
    }

    #[test]
    fn backoff_large_hints_scale_but_stay_sub_second() {
        // Hints are coarse whole seconds; they must raise the backoff
        // monotonically but never stall the run for a full second.
        assert!(backoff_ms(1, Some(1)) > backoff_ms(1, Some(0)));
        assert_eq!(backoff_ms(1, Some(1)), 20, "20 ms per hinted second");
        for hint in [1, 2, 30, 3600, u64::MAX] {
            let ms = backoff_ms(1, Some(hint));
            assert!(ms < 1000, "hint {hint}: backoff {ms} ms not sub-second");
        }
        assert_eq!(backoff_ms(1, Some(3600)), MAX_BACKOFF_MS);
        assert_eq!(backoff_ms(1, Some(u64::MAX)), MAX_BACKOFF_MS, "no overflow");
        // The ramp floor survives even at the attempt cap.
        assert_eq!(backoff_ms(100, Some(0)), MAX_BACKOFF_MS);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.99), 0);
        assert_eq!(percentile(&[7], 0.5), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.50), 51);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
    }

    /// A canned loopback server: sheds the first `shed_first` queries
    /// with 503 + Retry-After, answers the rest 200. Accepts exactly
    /// `conns` connections, then returns (so `join` cannot hang).
    fn canned_server(
        listener: TcpListener,
        shed_first: u64,
        conns: usize,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let served = AtomicU64::new(0);
            std::thread::scope(|s| {
                for stream in listener.incoming().take(conns).flatten() {
                    let served = &served;
                    s.spawn(move || {
                        let mut writer = stream.try_clone().unwrap();
                        let mut reader = BufReader::new(stream);
                        let mut out = Vec::new();
                        while let Ok(Some(req)) = read_request(&mut reader) {
                            assert_eq!(req.path, "/query");
                            let n = served.fetch_add(1, Ordering::SeqCst);
                            let resp = if n < shed_first {
                                Response::error(503, "overloaded").with_retry_after(1)
                            } else {
                                Response::json(200, "{\"answers\":[]}".into())
                            };
                            if resp.write_to(&mut writer, false, &mut out).is_err() {
                                break;
                            }
                        }
                    });
                }
            });
        })
    }

    #[test]
    fn load_smoke_retries_sheds_until_they_land() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = canned_server(listener, 3, 2);

        let bodies = vec![b"{}".to_vec(), b"{\"k\":1}".to_vec()];
        let report = run_load_smoke(
            &addr,
            &bodies,
            &SmokeConfig {
                clients: 2,
                per_client: 5,
                retry: true,
                max_attempts: 50,
            },
        );
        assert_eq!(report.ok, 10, "every query eventually lands: {report:?}");
        assert_eq!(report.shed, 3);
        assert!(report.retries >= 3);
        assert_eq!(report.client_errors + report.server_errors, 0);
        assert!(report.p50_us <= report.p99_us && report.p99_us <= report.max_us);
        server.join().unwrap();
    }

    #[test]
    fn load_smoke_no_retry_counts_sheds_and_moves_on() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = canned_server(listener, 2, 1);

        let report = run_load_smoke(
            &addr,
            &[b"{}".to_vec()],
            &SmokeConfig {
                clients: 1,
                per_client: 6,
                retry: false,
                max_attempts: 1,
            },
        );
        assert_eq!(report.ok, 4, "{report:?}");
        assert_eq!(report.shed, 2);
        assert_eq!(report.retries, 0);
        server.join().unwrap();
    }
}
