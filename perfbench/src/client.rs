//! The load generator's HTTP/1.1 client: one keep-alive connection,
//! one request in flight. It is the benchmark's own code on purpose,
//! so a change to the repository's client cannot move the numbers.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The bytes of one request with a `Content-Length` body.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// One response, kept whole so the benchmark can replay its exact
/// bytes through the program's own renderer.
#[derive(Clone, Debug)]
pub struct Reply {
    pub status: u16,
    pub raw: Vec<u8>,
    pub body_start: usize,
}

impl Reply {
    pub fn body(&self) -> &str {
        std::str::from_utf8(self.body_bytes()).unwrap_or("")
    }

    pub fn body_bytes(&self) -> &[u8] {
        &self.raw[self.body_start..]
    }

    /// Every header as `(name, value)` in wire order.
    pub fn headers(&self) -> Vec<(&str, &str)> {
        let head = std::str::from_utf8(&self.raw[..self.body_start]).unwrap_or("");
        head.split("\r\n")
            .skip(1)
            .filter_map(|l| l.split_once(": "))
            .collect()
    }

    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers()
            .into_iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    spin: bool,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            spin: false,
        })
    }

    /// Wait for replies by polling the socket instead of sleeping in
    /// `read`. The client then holds one core for itself, so the
    /// scheduler places the server's event loop on another one every
    /// run, instead of sometimes sharing a core with it.
    pub fn spin(&mut self) -> io::Result<()> {
        self.stream.set_nonblocking(true)?;
        self.spin = true;
        Ok(())
    }

    /// Send one request and read its whole response.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        let mut sent = 0;
        while sent < request.len() {
            match self.stream.write(&request[sent..]) {
                Ok(n) => sent += n,
                Err(e) if self.spin && e.kind() == io::ErrorKind::WouldBlock => {
                    std::hint::spin_loop()
                }
                Err(e) => return Err(e),
            }
        }
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some((head_end, len)) = frame(&self.buf)? {
                let total = head_end + 4 + len;
                if self.buf.len() >= total {
                    let raw: Vec<u8> = self.buf.drain(..total).collect();
                    let status = std::str::from_utf8(&raw[9..12])
                        .ok()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad("bad status line"))?;
                    return Ok(Reply {
                        status,
                        raw,
                        body_start: head_end + 4,
                    });
                }
            }
            let n = match self.stream.read(&mut chunk) {
                Err(e) if self.spin && e.kind() == io::ErrorKind::WouldBlock => {
                    std::hint::spin_loop();
                    continue;
                }
                other => other?,
            };
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// `(head end, body length)` once the head has arrived.
fn frame(buf: &[u8]) -> io::Result<Option<(usize, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("head is not UTF-8"))?;
    if head.len() < 12 || !head.starts_with("HTTP/1.") {
        return Err(bad("not an HTTP/1.x response"));
    }
    let len = head
        .split("\r\n")
        .filter_map(|l| l.split_once(':'))
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or_else(|| bad("response without Content-Length"))?;
    Ok(Some((head_end, len)))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}
