//! A one-request-per-connection HTTP/1.1 client, timed from `connect`
//! to the last response byte.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// No daemon answer in this benchmark should take longer.
const TIMEOUT: Duration = Duration::from_secs(60);

/// A complete response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Raw header block, without the status line.
    pub headers: String,
    /// The body, exactly as many bytes as `Content-Length` announced.
    pub body: Vec<u8>,
    /// Seconds from before `connect` to the last byte read.
    pub secs: f64,
}

impl Response {
    /// The value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.lines().find_map(|line| {
            let (key, value) = line.split_once(':')?;
            key.trim()
                .eq_ignore_ascii_case(name)
                .then_some(value.trim())
        })
    }
}

/// Send one request and read the whole response; the daemon closes
/// every connection after answering.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<Response, String> {
    let started = Instant::now();
    let mut stream =
        TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect {addr}: {e}"))?;
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    stream.set_read_timeout(Some(TIMEOUT)).map_err(io)?;
    stream.set_write_timeout(Some(TIMEOUT)).map_err(io)?;
    let mut message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message).map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    let secs = started.elapsed().as_secs_f64();
    parse_response(&raw, secs).map_err(|e| format!("{method} {path}: {e}"))
}

fn parse_response(raw: &[u8], secs: f64) -> Result<Response, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "response head is not UTF-8")?;
    let (status_line, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line '{status_line}'"))?;
    let response = Response {
        status,
        headers: headers.replace("\r\n", "\n"),
        body: raw[split + 4..].to_vec(),
        secs,
    };
    if let Some(length) = response.header("Content-Length") {
        let length: usize = length
            .parse()
            .map_err(|_| format!("bad Content-Length '{length}'"))?;
        if length != response.body.len() {
            return Err(format!(
                "body has {} of {length} bytes",
                response.body.len()
            ));
        }
    }
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_headers_and_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Cache: hit\r\n\r\n{}";
        let r = parse_response(raw, 0.5).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("x-cache"), Some("hit"));
        assert_eq!(r.body, b"{}");
    }

    #[test]
    fn rejects_truncated_bodies() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n{}";
        assert!(parse_response(raw, 0.0).is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n", 0.0).is_err());
    }
}
