//! The connection machine: one client connection, from the bytes its
//! stream delivers to parsed requests and from queued responses back
//! to the stream. The event loop and the workers drive a [`Conn`]
//! through `interest`, `pump`, `respond` and `answer`, and nothing else
//! touches its buffers. The machine never reads the clock — every call
//! that needs the time takes `now` from its caller — and it is generic
//! over the stream, so the property at the end of this file drives the
//! code the server runs over a scripted stream: no socket, thread or
//! sleep.

use crate::http::{self, Parse, RequestError};
use crate::metrics::Stat;
use crate::poll;
use crate::server::{Reply, ServeState};
use fragalign_core::engine::TraceHandle;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The interim response owed to a request that sent `Expect:
/// 100-continue` with a body.
const CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// Most requests the loop parses off one connection per turn, for
/// fairness: pipelined cache hits and loop-answered 503s never leave
/// the loop. Each queues a response, so a connection the cap stops
/// owes output and is pumped again once its stream takes more.
pub(crate) const MAX_REQUESTS_PER_TURN: usize = 64;

/// Reads stop once this many bytes wait unparsed (the read buffer then
/// stays under twice that, see `Conn::consume`), and the kernel's TCP
/// window takes over as backpressure. Every request the parser accepts
/// fits.
fn read_cap(max_body: usize) -> usize {
    max_body + http::MAX_HEAD_BYTES + 4096
}

/// One live connection: the stream plus its read buffer, write buffer
/// and liveness bookkeeping. It counts in the open-connections gauge
/// from birth until it is dropped, whichever thread drops it.
pub(crate) struct Conn<S> {
    stream: S,
    state: Arc<ServeState>,
    /// Inbound bytes; `buf[buf_pos..]` is not parsed yet and starts at
    /// a request boundary.
    buf: Vec<u8>,
    buf_pos: usize,
    /// How far framing got in `buf[buf_pos..]`, so a request dribbled
    /// in small reads is not rescanned on every one.
    framing: http::Framing,
    /// Outbound bytes the stream has not taken yet (responses and
    /// interim 100s), written by [`Conn::flush`] as the stream drains.
    out: Vec<u8>,
    out_pos: usize,
    /// Close once `out` is fully flushed (framing is broken or the
    /// request asked for it).
    close_after_write: bool,
    /// An interim `100 Continue` has been queued for the request
    /// currently being read.
    sent_continue: bool,
    /// When bytes last moved either way, or a worker last answered.
    last_activity: Instant,
    born: Instant,
    /// Requests fully parsed off this connection so far.
    served: u64,
    /// Whether this connection's lifetime is traced by the sampler.
    sampled: bool,
}

impl<S> Drop for Conn<S> {
    fn drop(&mut self) {
        self.state.telemetry.sub(Stat::ConnectionsOpen, 1);
    }
}

/// What one pump of a connection decided.
pub(crate) enum Pump {
    /// Nothing to do yet (waiting for bytes or for writability).
    Keep,
    /// The connection is dead or finished; close it.
    Close,
    /// A full request parsed; answer it or dispatch it with its
    /// connection.
    Dispatch(Box<http::Request>),
}

/// What the event loop does with a connection next.
pub(crate) enum Interest {
    /// Poll it for writability alone when `write` (it owes output),
    /// else for readability; `within` is the time left before it
    /// idles out.
    Poll { write: bool, within: Duration },
    /// It moved no bytes for the idle timeout: close it.
    Idle,
}

impl Conn<TcpStream> {
    /// The socket's descriptor, for the loop's poll registration.
    pub(crate) fn fd(&self) -> poll::Fd {
        poll::stream_fd(&self.stream)
    }
}

impl<S: Read + Write> Conn<S> {
    /// A connection to `state`'s server, born at `now`.
    pub(crate) fn new(stream: S, state: &Arc<ServeState>, sampled: bool, now: Instant) -> Self {
        state.telemetry.add(Stat::ConnectionsOpen, 1);
        Conn {
            stream,
            state: Arc::clone(state),
            buf: Vec::new(),
            buf_pos: 0,
            framing: http::Framing::default(),
            out: Vec::new(),
            out_pos: 0,
            close_after_write: false,
            sent_continue: false,
            last_activity: now,
            born: now,
            served: 0,
            sampled,
        }
    }

    fn has_pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// What to wait for at `now`, and for how long. A connection that
    /// owes output waits for writability alone and reads nothing until
    /// its output has left, so a client that stops reading costs no
    /// loop turns. One that moved no bytes for the idle timeout is
    /// closed, whether it is idle, mid-request or owing output.
    pub(crate) fn interest(&self, now: Instant) -> Interest {
        let idle = now.saturating_duration_since(self.last_activity);
        match self.state.idle_timeout.checked_sub(idle) {
            Some(within) if !within.is_zero() => Interest::Poll {
                write: self.has_pending_out(),
                within,
            },
            _ => Interest::Idle,
        }
    }

    /// Mark `n` more bytes of `buf` parsed. The buffer is compacted
    /// only when it empties or the parsed prefix is at least half of
    /// it, so a deep pipeline costs time linear in its bytes.
    fn consume(&mut self, n: usize) {
        self.buf_pos += n;
        if self.buf_pos == self.buf.len() {
            self.buf.clear();
            self.buf_pos = 0;
        } else if self.buf_pos * 2 >= self.buf.len() {
            self.buf.drain(..self.buf_pos);
            self.buf_pos = 0;
        }
    }

    /// Queue `reply` as this connection's next response: the one way a
    /// final response is queued, whoever answers. Records its status,
    /// adds the cache, degraded and (on a 503) `Retry-After` headers,
    /// and with `keep_alive` false marks the connection to close once
    /// `out` is flushed.
    pub(crate) fn respond(&mut self, reply: &Reply, keep_alive: bool) {
        let telemetry = &self.state.telemetry;
        telemetry.record_response(reply.status);
        let mut extra: Vec<(&str, &str)> = Vec::new();
        if let Some(marker) = reply.cache_marker {
            extra.push(("X-Fragalign-Cache", marker));
        }
        if let Some(tier) = reply.degraded {
            extra.push(("X-Fragalign-Degraded", tier));
        }
        if reply.status == 503 {
            telemetry.add(Stat::Rejected503, 1);
            extra.push(("Retry-After", "1"));
        }
        self.out.extend_from_slice(&http::render_response(
            reply.status,
            reply.content_type,
            &extra,
            &reply.body,
            keep_alive,
        ));
        if !keep_alive {
            self.close_after_write = true;
        }
    }

    /// Write `out` until it is empty or the stream would block: the one
    /// way response bytes reach a stream. `Ok(true)` when everything
    /// queued has left, `Ok(false)` when the stream is full, `Err` when
    /// the peer is gone.
    fn flush(&mut self, now: Instant) -> io::Result<bool> {
        while self.has_pending_out() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(true)
    }

    /// A worker's half of a request: queue `reply`, write what the
    /// stream takes now, and say whether the connection goes back to
    /// the loop (`true`: kept alive, or owing the rest of its output)
    /// or is done. The answer restarts the idle clock, so time spent
    /// queued and solving never counts against the client.
    pub(crate) fn answer(&mut self, reply: &Reply, keep_alive: bool, now: Instant) -> bool {
        self.respond(reply, keep_alive);
        self.last_activity = now;
        self.flush(now)
            .is_ok_and(|flushed| !flushed || !self.close_after_write)
    }

    /// Flush, read and parse as far as the stream allows, and yield at
    /// most one request. Nothing is read while output is owed, so
    /// pipelined requests are answered in order: a connection travels
    /// with its request and reads the next one only once the answer
    /// has left.
    pub(crate) fn pump(&mut self, now: Instant) -> Pump {
        match self.flush(now) {
            Ok(true) if !self.close_after_write => {}
            Ok(false) => return Pump::Keep,
            _ => return Pump::Close,
        }

        let max_body = self.state.max_body_bytes;
        let read_cap = read_cap(max_body);
        let mut peer_eof = false;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let room = (read_cap - (self.buf.len() - self.buf_pos)).min(chunk.len());
            if room == 0 {
                break;
            }
            match self.stream.read(&mut chunk[..room]) {
                Ok(0) => {
                    peer_eof = true;
                    break;
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    self.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Pump::Close,
            }
        }

        let parsed = self.framing.parse(&self.buf[self.buf_pos..], max_body);
        // A request that asked for an interim 100 gets exactly one,
        // queued as soon as its head has arrived: before its body when
        // the client waits for it, and always ahead of its final
        // response, so one flush sends both in order.
        let asked = match &parsed {
            Ok(Parse::Incomplete { needs_continue }) => *needs_continue,
            Ok(Parse::Ready { request, .. }) => request.expect_continue,
            Err(_) => false,
        };
        if asked && !self.sent_continue {
            self.out.extend_from_slice(CONTINUE);
            self.sent_continue = true;
        }
        match parsed {
            Ok(Parse::Ready {
                mut request,
                consumed,
            }) => {
                self.consume(consumed);
                self.sent_continue = false;
                self.served += 1;
                if self.served >= 2 {
                    self.state.telemetry.add(Stat::KeepaliveReuse, 1);
                }
                if peer_eof && self.buf_pos == self.buf.len() {
                    // The client half-closed after its last request:
                    // answer it, then close.
                    request.keep_alive = false;
                }
                Pump::Dispatch(Box::new(request))
            }
            // A torn request: nobody is left to answer.
            Ok(Parse::Incomplete { .. }) if peer_eof => Pump::Close,
            Ok(Parse::Incomplete { .. }) => Pump::Keep,
            Err(err) => {
                let reply = match err {
                    RequestError::Malformed(msg) => Reply::error(400, &msg),
                    RequestError::Unimplemented(msg) => Reply::error(501, &msg),
                    RequestError::BodyTooLarge { limit } => {
                        Reply::error(413, &format!("request body exceeds the {limit}-byte limit"))
                    }
                };
                // After a framing error the byte stream can no longer
                // be trusted to delimit requests: answer and close.
                self.respond(&reply, false);
                Pump::Keep
            }
        }
    }

    /// Close the connection at `now`, emitting its lifetime instant
    /// (requests served, microseconds open) into the sampled sink when
    /// it drew the sampling ticket.
    pub(crate) fn close(self, now: Instant) {
        if let (true, Some(sampler)) = (self.sampled, &self.state.sampler) {
            let lifetime = now.saturating_duration_since(self.born);
            TraceHandle::new(sampler.current()).instant(
                "connection",
                "closed",
                self.served as i64,
                lifetime.as_micros() as i64,
            );
        }
        // Dropping `self` closes the stream and decrements the gauge.
    }
}

#[cfg(test)]
mod tests {
    //! The connection-machine property: the test plays the event loop
    //! and the workers over a scripted stream and drives the very
    //! `Conn` the server runs. It follows the machine's own interest,
    //! pumps a connection when the stream is ready for what it asked
    //! (and unconditionally when it is new or back from a worker, as
    //! the loop does), answers some requests inline, as cache hits and
    //! 503s are, and hands the rest to a "worker" that answers them in
    //! order. The clock is `t0` plus whatever the script says passes.

    use super::*;
    use crate::server::ServeConfig;
    use proptest::prelude::*;
    use proptest::sample::{select, Index};
    use std::collections::VecDeque;
    use std::ops::Range;

    const IDLE: Duration = Duration::from_millis(1000);
    /// Small, so that an over-long head with a maximal body outgrows
    /// the read cap within a few dozen kilobytes.
    const MAX_BODY: usize = 4096;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// One step of a direction's schedule: bytes (or a write capacity)
    /// available now, or a pause during which the stream would block.
    enum Step<T> {
        Go(T),
        Wait(Duration),
    }

    fn pause<T>(steps: &VecDeque<Step<T>>) -> Option<Duration> {
        match steps.front() {
            Some(Step::Wait(d)) => Some(*d),
            _ => None,
        }
    }

    fn elapse<T>(steps: &mut VecDeque<Step<T>>, dt: Duration) {
        if let Some(Step::Wait(d)) = steps.front_mut() {
            *d = d.saturating_sub(dt);
            if d.is_zero() {
                steps.pop_front();
            }
        }
    }

    /// A scripted client behind a byte stream: what it sends and when,
    /// how much it takes per write call, and what it received.
    struct Script {
        input: VecDeque<Step<Vec<u8>>>,
        /// After its last byte the client half-closes: reads return 0.
        eof: bool,
        /// Capacity of each write call; once they run out, writes take
        /// everything.
        caps: VecDeque<Step<usize>>,
        output: Vec<u8>,
        /// Bytes moved either way so far.
        moved: usize,
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.input.front_mut() {
                Some(Step::Go(bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    bytes.drain(..n);
                    if bytes.is_empty() {
                        self.input.pop_front();
                    }
                    self.moved += n;
                    Ok(n)
                }
                None if self.eof => Ok(0),
                _ => Err(io::ErrorKind::WouldBlock.into()),
            }
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = match self.caps.front() {
                Some(Step::Wait(_)) => return Err(io::ErrorKind::WouldBlock.into()),
                Some(Step::Go(cap)) => (*cap).min(buf.len()),
                None => buf.len(),
            };
            self.caps.pop_front();
            self.output.extend_from_slice(&buf[..n]);
            self.moved += n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Script {
        /// Whether the stream is ready for what the machine asked.
        fn ready(&self, write: bool) -> bool {
            if write {
                pause(&self.caps).is_none()
            } else {
                match self.input.front() {
                    Some(Step::Go(_)) => true,
                    Some(Step::Wait(_)) => false,
                    None => self.eof,
                }
            }
        }

        /// When the stream next changes for the awaited direction.
        fn next_change(&self, write: bool) -> Option<Duration> {
            if write {
                pause(&self.caps)
            } else {
                pause(&self.input)
            }
        }

        fn elapse(&mut self, dt: Duration) {
            elapse(&mut self.input, dt);
            elapse(&mut self.caps, dt);
        }
    }

    /// One request of the client's pipeline; request `i` asks for
    /// `/r/i`.
    #[derive(Clone, Copy, Debug)]
    struct Req {
        post: bool,
        body: usize,
        expect: bool,
        close: bool,
        http10: bool,
    }

    impl Req {
        fn keep_alive(&self) -> bool {
            !self.close && !self.http10
        }

        /// Whether the interim 100 is owed: asked for, with a body.
        fn owes_continue(&self) -> bool {
            self.expect && self.post && self.body > 0
        }

        fn body_text(&self, i: usize) -> String {
            let fill = (b'a' + (i % 26) as u8) as char;
            if self.post {
                fill.to_string().repeat(self.body)
            } else {
                String::new()
            }
        }

        /// The request's bytes and the length of its head.
        fn bytes(&self, i: usize) -> (Vec<u8>, usize) {
            let method = if self.post { "POST" } else { "GET" };
            let version = if self.http10 { "HTTP/1.0" } else { "HTTP/1.1" };
            let mut head = format!("{method} /r/{i} {version}\r\nHost: t\r\n");
            if self.expect {
                head.push_str("Expect: 100-continue\r\n");
            }
            if self.close {
                head.push_str("Connection: close\r\n");
            }
            if self.post {
                head.push_str(&format!("Content-Length: {}\r\n", self.body));
            }
            head.push_str("\r\n");
            let head_len = head.len();
            ((head + &self.body_text(i)).into_bytes(), head_len)
        }
    }

    fn req() -> impl Strategy<Value = Req> {
        (
            any::<bool>(),
            0usize..40,
            any::<bool>(),
            select(vec![false, false, false, false, false, true]),
            select(vec![false, false, false, false, false, true]),
        )
            .prop_map(|(post, body, expect, close, http10)| Req {
                post,
                body,
                expect,
                close,
                http10,
            })
    }

    /// How the client's stream ends after its valid requests.
    #[derive(Clone, Copy, Debug)]
    enum Tail {
        Clean,
        /// One more request, cut short, then end of stream.
        Torn(Req, Index),
        /// A head over `MAX_HEAD_BYTES` with a maximal body; `whole`
        /// when it arrives without a pause and fits the read cap while
        /// its body does not.
        LongHead {
            whole: bool,
        },
        OversizedBody,
        Chunked,
    }

    fn tail() -> impl Strategy<Value = Tail> {
        (0u8..8, req(), any::<Index>()).prop_map(|(kind, req, cut)| match kind {
            0..=2 => Tail::Clean,
            3 => Tail::Torn(req, cut),
            4 => Tail::LongHead { whole: true },
            5 => Tail::LongHead { whole: false },
            6 => Tail::OversizedBody,
            _ => Tail::Chunked,
        })
    }

    /// What the tail's bytes are, which range of them arrives without a
    /// pause, and the final status it earns (`None`: no answer).
    fn tail_bytes(tail: Tail, i: usize) -> (Vec<u8>, Range<usize>, Option<u16>) {
        match tail {
            Tail::Clean => (Vec::new(), 0..0, None),
            Tail::Torn(req, cut) => {
                let (mut bytes, _) = req.bytes(i);
                bytes.truncate(cut.index(bytes.len()));
                (bytes, 0..0, None)
            }
            Tail::LongHead { whole } => {
                let bare = format!(
                    "POST /r/{i} HTTP/1.1\r\nX-Pad: \r\nContent-Length: {MAX_BODY}\r\n\r\n"
                );
                let head_len = if whole {
                    read_cap(MAX_BODY) - MAX_BODY / 2
                } else {
                    http::MAX_HEAD_BYTES + 64
                };
                let pad = "p".repeat(head_len - bare.len());
                let mut bytes = bare
                    .replace("X-Pad: ", &format!("X-Pad: {pad}"))
                    .into_bytes();
                bytes.extend(std::iter::repeat_n(b'b', MAX_BODY));
                let solid = if whole { 0..bytes.len() } else { 0..0 };
                (bytes, solid, Some(400))
            }
            Tail::OversizedBody => {
                let head = format!(
                    "POST /r/{i} HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: {}\r\n\r\n",
                    MAX_BODY + 1
                );
                (head.into_bytes(), 0..0, Some(413))
            }
            Tail::Chunked => {
                let head = format!("POST /r/{i} HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
                (head.into_bytes(), 0..0, Some(501))
            }
        }
    }

    /// What one run of the machine showed.
    struct Run {
        output: Vec<u8>,
        idled: bool,
        dispatched: Vec<http::Request>,
    }

    /// Play the loop and the workers over `script` until the machine
    /// closes the connection, checking at every step the invariants
    /// that hold at every step. Request `i` is answered inline with 200
    /// or 503, or by a worker at once or after 1.5 s in the queue and
    /// the solver, as `plan[i % plan.len()]` says.
    fn drive(script: Script, plan: &[u8]) -> Result<Run, TestCaseError> {
        let cfg = ServeConfig {
            max_body_bytes: MAX_BODY,
            idle_timeout_ms: IDLE.as_millis() as u64,
            ..ServeConfig::default()
        };
        let state = Arc::new(ServeState::new(&cfg).expect("the default solver is registered"));
        let mut now = Instant::now();
        let mut conn = Conn::new(script, &state, false, now);
        let mut last_moved = now;
        let mut fresh = true;
        let mut dispatched = Vec::new();
        let done = |mut conn: Conn<Script>, idled, dispatched| Run {
            output: std::mem::take(&mut conn.stream.output),
            idled,
            dispatched,
        };
        for _ in 0..100_000 {
            let since = now - last_moved;
            let (write, within) = match conn.interest(now) {
                Interest::Idle => {
                    prop_assert!(since >= IDLE, "closed as idle after {:?}", since);
                    let parked = http::try_parse(&conn.buf[conn.buf_pos..], MAX_BODY);
                    prop_assert!(
                        conn.has_pending_out() || !matches!(parked, Ok(Parse::Ready { .. })),
                        "idled out holding a request it could answer"
                    );
                    return Ok(done(conn, true, dispatched));
                }
                Interest::Poll { write, within } => (write, within),
            };
            prop_assert!(since < IDLE, "moved no bytes for {:?} but was kept", since);
            prop_assert_eq!(within, IDLE - since);
            prop_assert_eq!(
                write,
                conn.has_pending_out(),
                "while output is owed the machine asks for writability alone"
            );
            let ready = conn.stream.ready(write);
            if !fresh && !ready {
                // The loop's poll returns when the stream changes or
                // the connection's idle deadline passes.
                let dt = conn
                    .stream
                    .next_change(write)
                    .map_or(within, |d| d.min(within));
                now += dt;
                conn.stream.elapse(dt);
                continue;
            }
            fresh = false;
            for turn in 0..MAX_REQUESTS_PER_TURN {
                let (moved, owed) = (conn.stream.moved, conn.out.len() - conn.out_pos);
                let pumped = conn.pump(now);
                if conn.stream.moved > moved {
                    last_moved = now;
                }
                let progress = conn.stream.moved > moved || conn.out.len() - conn.out_pos > owed;
                prop_assert!(
                    conn.buf.len() < 2 * read_cap(MAX_BODY),
                    "the read buffer grew to {} bytes",
                    conn.buf.len()
                );
                let request = match pumped {
                    Pump::Keep => {
                        prop_assert!(
                            turn > 0 || !ready || progress,
                            "a pump the stream was ready for moved and queued nothing"
                        );
                        break;
                    }
                    Pump::Close => return Ok(done(conn, false, dispatched)),
                    Pump::Dispatch(request) => *request,
                };
                let i = dispatched.len();
                let how = plan[i % plan.len()];
                let status = if how == 1 { 503 } else { 200 };
                let reply = Reply::json(status, format!("{{\"r\":{i}}}"));
                let keep_alive = request.keep_alive;
                dispatched.push(request);
                if how < 2 {
                    conn.respond(&reply, keep_alive);
                    continue;
                }
                let queued = if how == 3 { ms(1500) } else { Duration::ZERO };
                now += queued;
                conn.stream.elapse(queued);
                let back = conn.answer(&reply, keep_alive, now);
                last_moved = now;
                if !back {
                    return Ok(done(conn, false, dispatched));
                }
                fresh = true;
                break;
            }
        }
        Err(TestCaseError::fail(
            "the loop spun without closing the connection",
        ))
    }

    /// The complete responses in `out` as `(status, body)`, and the
    /// bytes of a response cut short.
    fn responses(mut out: &[u8]) -> (Vec<(u16, String)>, &[u8]) {
        let mut got = Vec::new();
        while let Some(end) = out.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&out[..end]).expect("heads are text");
            let status = head[9..12].parse().expect("a status code");
            let len = head
                .split("\r\n")
                .find_map(|line| line.strip_prefix("Content-Length: "))
                .map_or(0, |v| v.parse().expect("a length"));
            if out.len() < end + 4 + len {
                break;
            }
            let body = String::from_utf8_lossy(&out[end + 4..end + 4 + len]).into_owned();
            got.push((status, body));
            out = &out[end + 4 + len..];
        }
        (got, out)
    }

    proptest! {
        /// Requests arrive as valid GETs and POSTs (with and without
        /// `Expect: 100-continue`, `Connection: close` and HTTP/1.0),
        /// pipelined, in arbitrary read chunks with pauses, optionally
        /// followed by end of stream or a bad tail (torn, over-long
        /// head, oversized `Content-Length`, chunked); writes take
        /// arbitrary amounts per call, sometimes none; the clock jumps
        /// short of and past the idle timeout. Every request before
        /// the first framing error is answered exactly once, in order,
        /// with its interim 100 first when it asked for one; a framing
        /// error is answered with 400, 413 or 501 and then closes; and
        /// besides the invariants `drive` checks at every step, a
        /// connection that idled out sent a prefix of all that.
        #[test]
        fn the_connection_machine_answers_each_request_once_in_order(
            reqs in prop::collection::vec(req(), 0..8),
            tail in tail(),
            eof in any::<bool>(),
            sizes in prop::collection::vec(select(vec![1usize, 2, 7, 64, 1000, 16 * 1024]), 1..6),
            gaps in prop::collection::vec(select(vec![0u64, 0, 0, 0, 0, 1, 10, 250, 999]), 1..8),
            caps in prop::collection::vec(
                (select(vec![0usize, 1, 3, 64, 4096]), select(vec![1u64, 50, 999])),
                0..6,
            ),
            (jump, jump_at, jump_in_writes) in
                (select(vec![None, None, Some(1000u64), Some(2500)]), any::<Index>(), any::<bool>()),
            plan in prop::collection::vec(0u8..4, 1..6),
        ) {
            // The client's bytes, and what it should get back.
            let mut bytes = Vec::new();
            let mut want: Vec<(u16, Option<String>)> = Vec::new();
            for (i, r) in reqs.iter().enumerate() {
                bytes.extend(r.bytes(i).0);
            }
            // Answers stop after the first request that closes.
            let answerable = reqs
                .iter()
                .position(|r| !r.keep_alive())
                .map_or(reqs.len(), |i| i + 1);
            for (i, r) in reqs[..answerable].iter().enumerate() {
                if r.owes_continue() {
                    want.push((100, Some(String::new())));
                }
                let status = if plan[i % plan.len()] == 1 { 503 } else { 200 };
                want.push((status, Some(format!("{{\"r\":{i}}}"))));
            }
            let tail_reached = reqs.iter().all(Req::keep_alive);
            let at = bytes.len();
            let (tail_raw, solid, status) = tail_bytes(tail, reqs.len());
            let solid = at + solid.start..at + solid.end;
            bytes.extend(tail_raw);
            let mut maybe_100 = false;
            if tail_reached {
                if let Tail::Torn(r, cut) = tail {
                    let (full, head_len) = r.bytes(reqs.len());
                    maybe_100 = r.owes_continue() && cut.index(full.len()) >= head_len;
                }
                if maybe_100 {
                    want.push((100, Some(String::new())));
                }
                if let Some(status) = status {
                    want.push((status, None));
                }
            }
            if status.is_some() {
                // Bytes after a framing error are never answered.
                bytes.extend(Req { post: false, body: 0, expect: false, close: false, http10: false }
                    .bytes(reqs.len() + 1).0);
            }

            // Chunk the bytes; larger streams in proportionally larger
            // chunks, so a dribbled long head stays a few hundred reads.
            let scale = 1 + bytes.len() / 512;
            let mut input = VecDeque::new();
            let (mut from, mut k) = (0, 0);
            while from < bytes.len() {
                let to = (from + sizes[k % sizes.len()] * scale).min(bytes.len());
                input.push_back(Step::Go(bytes[from..to].to_vec()));
                let gap = gaps[k % gaps.len()];
                if gap > 0 && !(solid.start < to && to < solid.end) {
                    input.push_back(Step::Wait(ms(gap)));
                }
                from = to;
                k += 1;
            }
            let mut writes: VecDeque<Step<usize>> = std::iter::repeat_n(&caps, 3)
                .flatten()
                .map(|&(cap, stall)| if cap == 0 { Step::Wait(ms(stall)) } else { Step::Go(cap) })
                .collect();
            if let Some(jump) = jump {
                if jump_in_writes {
                    writes.insert(jump_at.index(writes.len() + 1), Step::Wait(ms(jump)));
                } else {
                    input.insert(jump_at.index(input.len() + 1), Step::Wait(ms(jump)));
                }
            }
            let script = Script {
                input,
                eof: eof || matches!(tail, Tail::Torn(..)),
                caps: writes,
                output: Vec::new(),
                moved: 0,
            };

            let run = drive(script, &plan)?;
            prop_assert!(run.dispatched.len() <= answerable);
            for (i, request) in run.dispatched.iter().enumerate() {
                prop_assert_eq!(&request.path, &format!("/r/{}", i));
                prop_assert_eq!(&request.body, &reqs[i].body_text(i));
                prop_assert!(reqs[i].keep_alive() || !request.keep_alive);
            }
            let (got, cut_short) = responses(&run.output);
            let agrees = |want: &[(u16, Option<String>)]| {
                got.len() == want.len()
                    && got.iter().zip(want).all(|((status, body), (s, b))| {
                        status == s && b.as_ref().is_none_or(|b| b == body)
                    })
            };
            if run.idled {
                prop_assert!(
                    got.len() <= want.len() && agrees(&want[..got.len()]),
                    "an idled connection sent {:?}, not a prefix of {:?}", got, want
                );
                prop_assert!(
                    !got.iter().any(|(status, _)| matches!(status, 400 | 413 | 501)),
                    "a connection idled after its framing error had left"
                );
            } else {
                prop_assert!(cut_short.is_empty(), "closed mid-response");
                let without_100 = &want[..want.len() - usize::from(maybe_100)];
                prop_assert!(
                    agrees(&want) || agrees(without_100),
                    "sent {:?}, want {:?}", got, want
                );
                prop_assert_eq!(run.dispatched.len(), answerable);
            }
        }
    }

    /// A request dribbled one byte per read is framed in time linear in
    /// its bytes: the head search resumes where it stopped (each read
    /// searches its byte plus the three a terminator could straddle),
    /// and each head is parsed once, not again when its body is whole
    /// nor once per body byte. A pipelined request behind it starts
    /// afresh.
    #[test]
    fn a_dribbled_request_is_framed_in_time_linear_in_its_bytes() {
        const BODY: usize = 8 * 1024;
        let cfg = ServeConfig {
            max_body_bytes: BODY,
            ..ServeConfig::default()
        };
        let state = Arc::new(ServeState::new(&cfg).expect("the default solver is registered"));
        let pad = "p".repeat(4 * 1024);
        let post = format!(
            "POST /r/0 HTTP/1.1\r\nHost: t\r\nX-Pad: {pad}\r\nContent-Length: {BODY}\r\n\r\n{}",
            "b".repeat(BODY)
        );
        let bytes = post + "GET /r/1 HTTP/1.1\r\nHost: t\r\n\r\n";
        let script = Script {
            input: VecDeque::new(),
            eof: false,
            caps: VecDeque::new(),
            output: Vec::new(),
            moved: 0,
        };
        let now = Instant::now();
        let mut conn = Conn::new(script, &state, false, now);
        let mut got = Vec::new();
        for &byte in bytes.as_bytes() {
            conn.stream.input.push_back(Step::Go(vec![byte]));
            match conn.pump(now) {
                Pump::Keep => {}
                Pump::Dispatch(request) => {
                    got.push((request.path, request.body.len()));
                    conn.respond(&Reply::json(200, "{}".into()), true);
                }
                Pump::Close => panic!("closed mid-request"),
            }
        }
        assert_eq!(got, [("/r/0".to_string(), BODY), ("/r/1".to_string(), 0)]);
        let (searched, heads) = conn.framing.cost;
        assert!(
            searched <= 4 * bytes.len(),
            "searched {searched} bytes for the heads of {} dribbled bytes",
            bytes.len()
        );
        assert_eq!(heads, 2, "each head parsed once");
    }
}
