//! A tiny blocking HTTP/1.1 client — just enough to drive the
//! service from the integration tests without external
//! dependencies. The free functions
//! ([`get`], [`post`], [`request`]) do one request per connection
//! with `Connection: close`; [`Connection`] keeps a socket open for
//! keep-alive reuse and in-order pipelining.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Default socket timeout: generous enough for a cold release-mode
/// solve, short enough that a wedged server fails a test instead of
/// hanging it.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed response: status code, lower-cased headers, body.
#[derive(Clone, Debug)]
pub struct Response {
    /// The status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The response body (the service always sends UTF-8 JSON).
    pub body: String,
}

impl Response {
    /// First value of header `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// `GET path` with the default timeout.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Response> {
    request(addr, "GET", path, None, DEFAULT_TIMEOUT)
}

/// `POST path` with a JSON body and the default timeout.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<Response> {
    request(addr, "POST", path, Some(body), DEFAULT_TIMEOUT)
}

/// One full request/response exchange over a fresh connection.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// Send raw bytes and return without waiting for a response — the
/// backpressure test uses this to park half-written requests on the
/// server.
pub fn connect_and_send(addr: SocketAddr, bytes: &[u8]) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, DEFAULT_TIMEOUT)?;
    stream.set_read_timeout(Some(DEFAULT_TIMEOUT))?;
    stream.set_nodelay(true)?;
    stream.write_all(bytes)?;
    stream.flush()?;
    Ok(stream)
}

/// A persistent HTTP/1.1 connection: requests reuse one socket until
/// the server (or caller) closes it.
///
/// Two modes share the machinery:
///
/// * **keep-alive** — [`Connection::request`] writes one request and
///   blocks for its response, leaving the socket open for the next
///   call;
/// * **pipelined** — [`Connection::send`] writes a request without
///   waiting, and [`Connection::recv`] collects responses in send
///   order. The server guarantees in-order responses (one outstanding
///   request per connection is dispatched at a time; the rest wait in
///   the connection buffer), so no request IDs are needed.
///
/// Responses are framed by `Content-Length` — which the server always
/// sends — and leftover bytes past one response's frame are carried
/// forward as the start of the next.
pub struct Connection {
    stream: TcpStream,
    addr: SocketAddr,
    /// Bytes read off the socket but not yet consumed by a response.
    buf: Vec<u8>,
    /// Requests written whose responses have not been read yet.
    in_flight: usize,
    /// Set when a response carried `Connection: close`.
    peer_closing: bool,
}

impl Connection {
    /// Open a persistent connection with the default timeout.
    pub fn open(addr: SocketAddr) -> io::Result<Connection> {
        let stream = TcpStream::connect_timeout(&addr, DEFAULT_TIMEOUT)?;
        stream.set_read_timeout(Some(DEFAULT_TIMEOUT))?;
        stream.set_write_timeout(Some(DEFAULT_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            stream,
            addr,
            buf: Vec::new(),
            in_flight: 0,
            peer_closing: false,
        })
    }

    /// One keep-alive request/response exchange. Any pipelined
    /// responses still in flight are read (and discarded from the
    /// caller's point of view) first, preserving order.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<Response> {
        self.send(method, path, body)?;
        while self.in_flight > 1 {
            self.recv()?;
        }
        self.recv()
    }

    /// Write one request without waiting for its response (pipelining).
    pub fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<()> {
        if self.peer_closing {
            return Err(bad("server announced Connection: close"));
        }
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()?;
        self.in_flight += 1;
        Ok(())
    }

    /// Read the next pipelined response, in send order.
    pub fn recv(&mut self) -> io::Result<Response> {
        if self.in_flight == 0 {
            return Err(bad("recv with no request in flight"));
        }
        loop {
            if let Some((resp, consumed)) = try_parse_framed(&self.buf)? {
                self.buf.drain(..consumed);
                self.in_flight -= 1;
                if resp
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                {
                    self.peer_closing = true;
                }
                return Ok(resp);
            }
            let mut chunk = [0u8; 16 * 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Number of requests sent whose responses have not been read.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }
}

/// Parse one `Content-Length`-framed response out of the front of
/// `buf`. `Ok(None)` means more bytes are needed.
fn try_parse_framed(buf: &[u8]) -> io::Result<Option<(Response, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let mut resp = parse_head(&buf[..head_end])?;
    let content_length: usize = resp
        .header("content-length")
        .ok_or_else(|| bad("response without Content-Length"))?
        .parse()
        .map_err(|_| bad("bad Content-Length"))?;
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None);
    }
    resp.body = String::from_utf8(buf[body_start..body_start + content_length].to_vec())
        .map_err(|_| bad("body is not UTF-8"))?;
    Ok(Some((resp, body_start + content_length)))
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Parse a status line + headers block (no trailing CRLFCRLF) into a
/// [`Response`] with an empty body.
fn parse_head(head: &[u8]) -> io::Result<Response> {
    let head = std::str::from_utf8(head).map_err(|_| bad("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Response {
        status,
        headers,
        body: String::new(),
    })
}

fn parse_response(raw: &[u8]) -> std::io::Result<Response> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response head never ended"))?;
    // Interim 1xx responses (100 Continue) precede the real one; this
    // client never asks for them, so the first status line is final.
    let mut resp = parse_head(&raw[..head_end])?;
    resp.body =
        String::from_utf8(raw[head_end + 4..].to_vec()).map_err(|_| bad("body is not UTF-8"))?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_response() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nRetry-After: 1\r\n\r\n{\"error\":\"busy\"}";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("RETRY-AFTER"), Some("1"));
        assert_eq!(resp.body, "{\"error\":\"busy\"}");
    }

    #[test]
    fn rejects_torn_responses() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n").is_err());
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
    }

    #[test]
    fn framed_parse_consumes_exactly_one_response() {
        let one = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nabcd";
        let mut raw = one.to_vec();
        raw.extend_from_slice(b"HTTP/1.1 503 Busy\r\nContent-Length: 0\r\n\r\n");
        let (resp, consumed) = try_parse_framed(&raw).unwrap().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "abcd");
        assert_eq!(consumed, one.len());
        let (next, _) = try_parse_framed(&raw[consumed..]).unwrap().unwrap();
        assert_eq!(next.status, 503);
        assert_eq!(next.body, "");
    }

    #[test]
    fn framed_parse_waits_for_the_full_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        assert!(try_parse_framed(raw).unwrap().is_none());
        assert!(try_parse_framed(b"HTTP/1.1 200 OK\r\nCont")
            .unwrap()
            .is_none());
    }
}
