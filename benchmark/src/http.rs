//! The harness's own keep-alive HTTP/1.1 client: just enough to drive
//! the daemon from outside, independent of the library's client.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Reused header line and body buffers.
    line: String,
    pub body: Vec<u8>,
}

impl Connection {
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
            body: Vec::new(),
        })
    }

    /// Sends `request` (a complete, pre-rendered request) and reads the
    /// response; returns the status and leaves the body in `self.body`.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<u16> {
        self.writer.write_all(request)?;
        read_response(&mut self.reader, &mut self.line, &mut self.body)
    }
}

/// Renders a whole request once, so the timed loop only writes bytes.
pub fn render_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A `/query` body for an exact 1-NN Euclidean request.
pub fn query_body(series: &[f32]) -> Vec<u8> {
    let mut body = String::with_capacity(16 + series.len() * 12);
    body.push_str("{\"series\":[");
    for (i, v) in series.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        // Shortest digits that read back to the same f32.
        body.push_str(&v.to_string());
    }
    body.push_str("]}");
    body.into_bytes()
}

fn read_response<R: BufRead>(r: &mut R, line: &mut String, body: &mut Vec<u8>) -> io::Result<u16> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    line.clear();
    if r.read_line(line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        ));
    }
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length = 0usize;
    loop {
        line.clear();
        if r.read_line(line)? == 0 {
            return Err(bad("truncated headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("invalid content-length"))?;
            }
        }
    }
    // The daemon's largest response is the metrics page; anything past
    // this is a framing error, not a body to allocate for.
    if content_length > 64 << 20 {
        return Err(bad("response body too large"));
    }
    body.resize(content_length, 0);
    r.read_exact(body)?;
    Ok(status)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> io::Result<(u16, Vec<u8>)> {
        let mut body = Vec::new();
        let status = read_response(&mut raw.as_bytes(), &mut String::new(), &mut body)?;
        Ok((status, body))
    }

    #[test]
    fn reads_status_and_body() {
        let (status, body) =
            parse("HTTP/1.1 200 OK\r\nContent-Type: x\r\ncontent-length: 5\r\n\r\nhelloEXTRA")
                .unwrap();
        assert_eq!((status, body.as_slice()), (200, &b"hello"[..]));
        let (status, body) = parse("HTTP/1.1 503 Service Unavailable\r\n\r\n").unwrap();
        assert_eq!((status, body.len()), (503, 0));
    }

    #[test]
    fn rejects_broken_framing() {
        assert!(parse("").is_err());
        assert!(parse("garbage\r\n\r\n").is_err());
        assert!(parse("HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort").is_err());
        assert!(parse("HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n").is_err());
        assert!(parse("HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n").is_err());
    }

    #[test]
    fn request_rendering() {
        let body = query_body(&[0.5, -1.25, 3.0]);
        assert_eq!(body, b"{\"series\":[0.5,-1.25,3]}");
        let req = render_request("POST", "/query", &body);
        let text = String::from_utf8(req).unwrap();
        assert!(text.starts_with("POST /query HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 24\r\n\r\n{"));
    }
}
