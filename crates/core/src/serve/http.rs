//! Minimal HTTP/1.1 framing: request parsing and fixed-length responses.
//!
//! The daemon speaks just enough HTTP for `curl`, browsers, and the
//! built-in load-smoke client: request line + headers + `Content-Length`
//! body in, status line + fixed-length body out (no chunked transfer
//! coding in either direction — oversized or chunked requests are
//! refused up front). Everything parses from any [`BufRead`], so the
//! wire layer is unit-tested byte-for-byte without sockets.

use std::io::{self, BufRead, Read, Write};

/// Hard cap on request bodies; larger requests get `413` without the
/// body ever being read.
pub const MAX_BODY_BYTES: usize = 1 << 20;
/// Hard cap on the request line and on each header line.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Hard cap on the number of request headers.
const MAX_HEADERS: usize = 64;

/// A parsed request: method, path, and the (possibly empty) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// The request target path, query string included.
    pub path: String,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client asked for the connection to close after this
    /// exchange (`Connection: close`, or HTTP/1.0 without keep-alive).
    pub close: bool,
}

/// Why a request could not be parsed. Each variant maps to one status
/// code via [`HttpError::status`]; transport failures stay `Io`.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or framing → `400`.
    BadRequest(&'static str),
    /// Declared `Content-Length` above [`MAX_BODY_BYTES`] → `413`.
    PayloadTooLarge,
    /// The rest of a started request did not arrive in time → `408`.
    Timeout,
    /// Transport failure (no response possible).
    Io(io::Error),
}

impl HttpError {
    /// The response status this error maps to (`None` for I/O errors,
    /// where the connection is simply dropped).
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::BadRequest(_) => Some(400),
            HttpError::PayloadTooLarge => Some(413),
            HttpError::Timeout => Some(408),
            HttpError::Io(_) => None,
        }
    }

    /// Human-readable detail for the error response body.
    pub fn detail(&self) -> String {
        match self {
            HttpError::BadRequest(msg) => (*msg).to_string(),
            HttpError::PayloadTooLarge => {
                format!("request body exceeds {MAX_BODY_BYTES} bytes")
            }
            HttpError::Timeout => "request not received in time".to_string(),
            HttpError::Io(e) => e.to_string(),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => HttpError::Timeout,
            _ => HttpError::Io(e),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            HttpError::PayloadTooLarge => write!(f, "payload too large"),
            HttpError::Timeout => write!(f, "request timed out"),
            HttpError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Reads one line (up to CRLF or LF) into `buf`, the one buffer every
/// line of a request goes through, rejecting lines over
/// [`MAX_LINE_BYTES`]. Returns `None` on clean EOF before any byte.
fn read_line<'b, R: BufRead>(
    r: &mut R,
    buf: &'b mut Vec<u8>,
) -> Result<Option<&'b str>, HttpError> {
    buf.clear();
    let mut limited = r.take(MAX_LINE_BYTES as u64 + 1);
    let n = limited.read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        return Err(if n > MAX_LINE_BYTES {
            HttpError::BadRequest("line too long")
        } else {
            HttpError::BadRequest("truncated request")
        });
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    std::str::from_utf8(buf)
        .map(Some)
        .map_err(|_| HttpError::BadRequest("non-UTF-8 header data"))
}

/// Reads and parses one request from `r`.
///
/// Returns `Ok(None)` if the peer closed the connection cleanly before
/// sending a request line (the normal end of a keep-alive session).
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Option<Request>, HttpError> {
    let mut line = Vec::new();
    let Some(request_line) = read_line(r, &mut line)? else {
        return Ok(None);
    };
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest("malformed request line"));
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest("malformed method"));
    }
    if !path.starts_with('/') {
        return Err(HttpError::BadRequest("request target must be absolute"));
    }
    let (method, path) = (method.to_string(), path.to_string());
    let mut close = match version {
        "HTTP/1.1" => false,
        "HTTP/1.0" => true,
        _ => return Err(HttpError::BadRequest("unsupported HTTP version")),
    };

    let mut content_length: usize = 0;
    for parsed_headers in 0.. {
        if parsed_headers > MAX_HEADERS {
            return Err(HttpError::BadRequest("too many headers"));
        }
        let line = read_line(r, &mut line)?.ok_or(HttpError::BadRequest("truncated headers"))?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest("malformed header"));
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| HttpError::BadRequest("invalid content-length"))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::BadRequest("transfer-encoding not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            let v = value.to_ascii_lowercase();
            if v.contains("close") {
                close = true;
            } else if v.contains("keep-alive") {
                close = false;
            }
        }
    }

    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::PayloadTooLarge);
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;
    Ok(Some(Request {
        method,
        path,
        body,
        close,
    }))
}

/// A response: status, content type, fixed-length body, and an optional
/// `Retry-After` hint (seconds) for load-shedding replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body, sent with an exact `Content-Length`.
    pub body: Vec<u8>,
    /// `Retry-After` hint in seconds (only meaningful on 503).
    pub retry_after: Option<u32>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            retry_after: None,
        }
    }

    /// A JSON error response with an `{"error": …}` body.
    pub fn error(status: u16, detail: &str) -> Self {
        Self::json(
            status,
            format!("{{\"error\":\"{}\"}}", super::json::escape(detail)),
        )
    }

    /// Sets the `Retry-After` hint.
    pub fn with_retry_after(mut self, seconds: u32) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// The standard reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes the response — head and body rendered into `out`, the
    /// caller's reused buffer — and sends it in **one** `write_all`: on
    /// an unbuffered `TCP_NODELAY` socket every `write` is its own `send`
    /// and its own segment. `close` controls the `Connection` header
    /// (the server echoes the client's keep-alive choice, and forces
    /// close while draining for shutdown).
    pub fn write_to<W: Write>(&self, w: &mut W, close: bool, out: &mut Vec<u8>) -> io::Result<()> {
        out.clear();
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )?;
        if let Some(seconds) = self.retry_after {
            write!(out, "Retry-After: {seconds}\r\n")?;
        }
        write!(
            out,
            "Connection: {}\r\n\r\n",
            if close { "close" } else { "keep-alive" }
        )?;
        out.extend_from_slice(&self.body);
        w.write_all(out)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut io::BufReader::new(raw))
    }

    #[test]
    fn parses_a_get_request() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_a_post_with_body_and_close() {
        let req = parse(
            b"POST /query HTTP/1.1\r\nContent-Length: 11\r\nConnection: close\r\n\r\nhello world",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello world");
        assert!(req.close);
    }

    #[test]
    fn http_10_defaults_to_close() {
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(req.close);
        let req = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.close);
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let req = parse(b"GET /metrics HTTP/1.1\nHost: x\n\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/metrics");
    }

    #[test]
    fn clean_eof_is_not_an_error() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn malformed_requests_get_400() {
        for raw in [
            b"GARBAGE\r\n\r\n".to_vec(),
            b"GET /x\r\n\r\n".to_vec(),                // missing version
            b"GET /x HTTP/2.0\r\n\r\n".to_vec(),       // unsupported version
            b"GET /x HTTP/1.1 extra\r\n\r\n".to_vec(), // extra token
            b"get /x HTTP/1.1\r\n\r\n".to_vec(),       // lower-case method
            b"GET x HTTP/1.1\r\n\r\n".to_vec(),        // relative target
            b"GET /x HTTP/1.1\r\nno-colon\r\n\r\n".to_vec(), // malformed header
            b"GET /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n".to_vec(),
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            b"GET /x HTTP/1.1\r\nHost: x".to_vec(), // truncated headers
        ] {
            let err = parse(&raw).unwrap_err();
            assert_eq!(err.status(), Some(400), "{raw:?} → {err}");
        }
    }

    #[test]
    fn oversized_declared_body_gets_413_without_reading_it() {
        let raw = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = parse(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status(), Some(413));
        assert!(err.detail().contains("exceeds"));
    }

    #[test]
    fn oversized_request_line_gets_400() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES));
        let err = parse(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status(), Some(400));
        assert!(err.detail().contains("line too long"));
    }

    #[test]
    fn too_many_headers_get_400() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            raw.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let err = parse(&raw).unwrap_err();
        assert_eq!(err.status(), Some(400));
    }

    #[test]
    fn short_body_is_an_io_error() {
        let err = parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert!(err.status().is_none(), "transport failure, not a 4xx");
    }

    #[test]
    fn keep_alive_sessions_parse_back_to_back_requests() {
        let raw: &[u8] =
            b"POST /query HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /metrics HTTP/1.1\r\n\r\n";
        let mut reader = io::BufReader::new(raw);
        let first = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(first.body, b"hi");
        let second = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(second.path, "/metrics");
        assert!(read_request(&mut reader).unwrap().is_none());
    }

    /// A transport that hands out its bytes one fragment per `read`.
    struct Fragments(std::collections::VecDeque<&'static [u8]>);

    impl Read for Fragments {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(next) = self.0.pop_front() else {
                return Ok(0);
            };
            let n = next.len().min(buf.len());
            buf[..n].copy_from_slice(&next[..n]);
            if n < next.len() {
                self.0.push_front(&next[n..]);
            }
            Ok(n)
        }
    }

    #[test]
    fn requests_arriving_in_fragments_parse_and_leave_the_next_one_buffered() {
        // A header split across two reads, LF-only lines, the body in
        // three fragments — the last one carrying a pipelined request.
        let mut reader = io::BufReader::new(Fragments(
            [
                &b"POST /query HTTP/1.1\nContent-Le"[..],
                b"ngth: 9\nHost: x\n\nab",
                b"cdef",
                b"ghiGET /healthz HTTP/1.1\r\n\r\n",
            ]
            .into(),
        ));
        let first = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(
            (first.path.as_str(), &first.body[..]),
            ("/query", &b"abcdefghi"[..])
        );
        assert_eq!(reader.buffer(), b"GET /healthz HTTP/1.1\r\n\r\n");
        let second = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(
            (second.method.as_str(), second.path.as_str()),
            ("GET", "/healthz")
        );
        assert!(read_request(&mut reader).unwrap().is_none());
    }

    #[test]
    fn line_and_header_caps_sit_exactly_at_their_limits() {
        // A line may end at its byte MAX_LINE_BYTES + 1 and no later;
        // 64 headers pass, the 65th does not.
        let target = "a".repeat(MAX_LINE_BYTES + 1 - "GET / HTTP/1.1\r\n".len());
        let raw = format!("GET /{target} HTTP/1.1\r\n\r\n");
        assert_eq!(
            parse(raw.as_bytes()).unwrap().unwrap().path.len(),
            target.len() + 1
        );
        let raw = format!("GET /{target}a HTTP/1.1\r\n\r\n");
        assert!(parse(raw.as_bytes())
            .unwrap_err()
            .detail()
            .contains("too long"));

        let headers = |n: usize| {
            let lines: String = (0..n).map(|i| format!("X-H{i}: v\r\n")).collect();
            format!("GET / HTTP/1.1\r\n{lines}\r\n")
        };
        assert!(parse(headers(MAX_HEADERS).as_bytes()).is_ok());
        let err = parse(headers(MAX_HEADERS + 1).as_bytes()).unwrap_err();
        assert!(err.detail().contains("too many headers"));
    }

    /// A `Write` double that counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The rendering before responses were buffered: every fragment
    /// written straight to the sink.
    fn piecewise(resp: &Response, close: bool) -> Vec<u8> {
        let mut w = Vec::new();
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            resp.status,
            resp.reason(),
            resp.content_type,
            resp.body.len()
        )
        .unwrap();
        if let Some(seconds) = resp.retry_after {
            write!(w, "Retry-After: {seconds}\r\n").unwrap();
        }
        let connection = if close { "close" } else { "keep-alive" };
        write!(w, "Connection: {connection}\r\n\r\n").unwrap();
        w.extend_from_slice(&resp.body);
        w
    }

    #[test]
    fn every_response_is_one_write_of_the_same_bytes() {
        let mut out = b"left over from the previous response".to_vec();
        for resp in [
            Response::json(200, "{\"answers\":[]}".into()),
            Response::text(200, "ok\n"),
            Response::text(503, "warming up\n").with_retry_after(1),
            Response::error(400, "bad \"quote\"\n"),
            Response::error(503, "server saturated").with_retry_after(1),
            Response::error(408, "request not received in time"),
            Response::text(200, ""),
        ] {
            for close in [false, true] {
                let mut w = CountingWriter::default();
                resp.write_to(&mut w, close, &mut out).unwrap();
                assert_eq!(w.writes, 1, "{resp:?}");
                assert_eq!(w.bytes, piecewise(&resp, close), "{resp:?}");
            }
        }
    }

    #[test]
    fn response_wire_format_is_exact() {
        let mut out = Vec::new();
        Response::text(200, "ok\n")
            .write_to(&mut Vec::new(), false, &mut out)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert_eq!(
            s,
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: 3\r\nConnection: keep-alive\r\n\r\nok\n"
        );

        let mut out = Vec::new();
        Response::error(503, "overloaded")
            .with_retry_after(1)
            .write_to(&mut Vec::new(), true, &mut out)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{s}");
        assert!(s.contains("Retry-After: 1\r\n"), "{s}");
        assert!(s.contains("Connection: close\r\n"), "{s}");
        assert!(s.ends_with("{\"error\":\"overloaded\"}"), "{s}");
    }
}
