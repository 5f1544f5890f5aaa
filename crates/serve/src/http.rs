//! Minimal HTTP/1.1 framing: request parsing and response rendering.
//!
//! Scope is exactly what the service needs — `GET`/`POST` with
//! `Content-Length` bodies. The parser does no I/O: [`try_parse`]
//! inspects whatever bytes have arrived so far and either asks for
//! more ([`Parse::Incomplete`]) or yields one request plus the number
//! of bytes it consumed ([`Parse::Ready`]), so a connection buffer can
//! carry leftover pipelined bytes forward to the next request. Its
//! errors are framing errors only ([`RequestError`]). Reading, writing
//! and the interim `100 Continue` that `Expect: 100-continue` asks for
//! (`curl` sends it for large instance uploads) belong to the server's
//! connection machine, the one caller that turns stream bytes into
//! requests. Keep-alive follows HTTP/1.1 semantics (persistent by
//! default, `Connection: close` honoured both ways, HTTP/1.0 closes
//! unless `keep-alive` is asked for). Chunked transfer encoding is
//! refused with `501`.

/// Hard cap on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 32 * 1024;

/// A parsed request: method, path, query, lower-cased headers, UTF-8
/// body.
#[derive(Clone, Debug)]
pub struct Request {
    /// Upper-case method token (`GET`, `POST`, …).
    pub method: String,
    /// Request target up to (excluding) any `?` — the route key.
    pub path: String,
    /// Everything after the first `?` of the target (`""` when the
    /// target carried no query). Split but not percent-decoded: the
    /// service's knobs (`trace=1`, `format=prometheus`) are plain
    /// tokens.
    pub query: String,
    /// Header `(name, value)` pairs; names lower-cased at parse time.
    pub headers: Vec<(String, String)>,
    /// The request body, decoded as UTF-8 (JSON is UTF-8 by spec).
    pub body: String,
    /// Whether the connection persists after this exchange: HTTP/1.1
    /// defaults to `true`, HTTP/1.0 to `false`, and a `Connection`
    /// header token (`close` / `keep-alive`) overrides either way.
    pub keep_alive: bool,
    /// The request carried `Expect: 100-continue` with a non-empty
    /// body, so an interim `100 Continue` is owed before (or with)
    /// the final response.
    pub expect_continue: bool,
}

impl Request {
    /// First value of header `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of query parameter `name` (`?a=1&b` gives
    /// `param("a") == Some("1")`, `param("b") == Some("")`).
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter(|p| !p.is_empty())
            .map(|p| p.split_once('=').unwrap_or((p, "")))
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }
}

/// Why the bytes could not be framed as a request. The server answers
/// `Malformed` with `400`, `Unimplemented` with `501` and
/// `BodyTooLarge` with `413`, then closes the connection.
#[derive(Debug)]
pub enum RequestError {
    /// The bytes were not an HTTP/1.x request this parser accepts.
    Malformed(String),
    /// A feature outside this parser's scope (chunked encoding).
    Unimplemented(String),
    /// `Content-Length` exceeded the configured body cap.
    BodyTooLarge {
        /// The configured cap, for the error response.
        limit: usize,
    },
}

/// What [`try_parse`] made of the buffer so far.
#[derive(Debug)]
pub enum Parse {
    /// Not enough bytes for a full request yet; read more and retry.
    Incomplete {
        /// The head is complete and announced `Expect: 100-continue`,
        /// but the body has not fully arrived — the server should send
        /// the interim `100 Continue` now (once) to unblock the client.
        needs_continue: bool,
    },
    /// One full request parsed.
    Ready {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request consumed; everything past
        /// `consumed` belongs to the next (pipelined) request.
        consumed: usize,
    },
}

/// Parse one request from the front of `buf` without consuming it.
/// Errors are terminal for the connection: the caller answers with
/// the mapped status and closes, because after a framing error the
/// byte stream can no longer be trusted to delimit requests.
pub fn try_parse(buf: &[u8], max_body: usize) -> Result<Parse, RequestError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(RequestError::Malformed(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        return Ok(Parse::Incomplete {
            needs_continue: false,
        });
    };
    // The cap holds however the head arrived, so every request this
    // parser accepts fits in `MAX_HEAD_BYTES` plus its body.
    if head_end > MAX_HEAD_BYTES {
        return Err(RequestError::Malformed(format!(
            "request head exceeds {MAX_HEAD_BYTES} bytes"
        )));
    }

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| RequestError::Malformed("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(RequestError::Malformed(format!(
                "bad request line: {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed(format!(
            "unsupported protocol version {version:?}"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed(format!(
                "bad header line: {line:?}"
            )));
        };
        // RFC 7230 §3.2.4: no whitespace between the field name and
        // the colon. Trimming it instead (as proxies sometimes do)
        // opens a request-smuggling hole when a front end and a back
        // end disagree on which bytes name the header.
        if name.is_empty() || name.contains(|c: char| c.is_ascii_whitespace()) {
            return Err(RequestError::Malformed(format!(
                "bad header field name: {name:?}"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path, ""),
    };
    let mut request = Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        headers,
        body: String::new(),
        keep_alive: version != "HTTP/1.0",
        expect_continue: false,
    };
    // A `Connection` header overrides the version default either way;
    // the value is a comma-separated token list (`keep-alive, TE`).
    let mut keep_alive = request.keep_alive;
    if let Some(conn) = request.header("connection") {
        for token in conn.split(',') {
            let token = token.trim();
            if token.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if token.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    request.keep_alive = keep_alive;

    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(RequestError::Unimplemented(
            "chunked transfer encoding is not supported; send Content-Length".into(),
        ));
    }
    // Every Content-Length must be digits-only (`usize::from_str`
    // would take a leading `+`) and duplicates must agree — another
    // RFC 7230 smuggling vector if first-match-wins differs between
    // hops.
    let mut content_length: usize = 0;
    let mut seen_length = false;
    for (name, v) in &request.headers {
        if name != "content-length" {
            continue;
        }
        if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
            return Err(RequestError::Malformed(format!("bad Content-Length {v:?}")));
        }
        let parsed: usize = v
            .parse()
            .map_err(|_| RequestError::Malformed(format!("bad Content-Length {v:?}")))?;
        if seen_length && parsed != content_length {
            return Err(RequestError::Malformed(format!(
                "conflicting Content-Length headers ({content_length} vs {parsed})"
            )));
        }
        content_length = parsed;
        seen_length = true;
    }
    if content_length > max_body {
        return Err(RequestError::BodyTooLarge { limit: max_body });
    }
    request.expect_continue = content_length > 0
        && request
            .header("expect")
            .is_some_and(|v| v.to_ascii_lowercase().contains("100-continue"));

    let body_start = head_end + 4;
    if buf.len() - body_start < content_length {
        return Ok(Parse::Incomplete {
            needs_continue: request.expect_continue,
        });
    }
    // Bytes past the body belong to the next pipelined request — the
    // caller keeps them in its buffer.
    let consumed = body_start + content_length;
    request.body = String::from_utf8(buf[body_start..consumed].to_vec())
        .map_err(|_| RequestError::Malformed("request body is not UTF-8".into()))?;
    Ok(Parse::Ready { request, consumed })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The canonical reason phrase for the status codes this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Render a complete response to bytes: status line, standard headers
/// (`Content-Type`, `Content-Length`, `Connection` per `keep_alive`),
/// any `extra` headers, then `body`. Every response the server sends
/// is rendered here and queued on its connection's write buffer.
pub fn render_response(
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one request `raw` holds, which must parse whole.
    fn parse(raw: &str, max_body: usize) -> Result<Request, RequestError> {
        match try_parse(raw.as_bytes(), max_body)? {
            Parse::Ready { request, consumed } => {
                assert_eq!(consumed, raw.len(), "{raw:?} holds one request");
                Ok(request)
            }
            Parse::Incomplete { .. } => panic!("{raw:?} is incomplete"),
        }
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            "POST /v1/solve HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/solve");
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, "{\"a\":1}");
        assert!(req.keep_alive, "HTTP/1.1 persists by default");
    }

    #[test]
    fn splits_query_from_path() {
        let req = parse(
            "GET /metrics?format=prometheus&x HTTP/1.1\r\nHost: a\r\n\r\n",
            1024,
        )
        .unwrap();
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query, "format=prometheus&x");
        assert_eq!(req.param("format"), Some("prometheus"));
        assert_eq!(req.param("x"), Some(""));
        assert_eq!(req.param("missing"), None);

        let req = parse("GET /healthz HTTP/1.1\r\n\r\n", 1024).unwrap();
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.query, "");
        assert_eq!(req.param("trace"), None);
    }

    #[test]
    fn connection_semantics_follow_version_and_header() {
        let keep_alive = |raw: &str| parse(raw, 1024).unwrap().keep_alive;
        assert!(keep_alive("GET / HTTP/1.1\r\n\r\n"));
        assert!(!keep_alive("GET / HTTP/1.0\r\n\r\n"));
        assert!(!keep_alive("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(keep_alive(
            "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        ));
        assert!(!keep_alive(
            "GET / HTTP/1.1\r\nConnection: TE, Close\r\n\r\n"
        ));
    }

    #[test]
    fn pipelined_requests_consume_exactly_their_bytes() {
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /b HTTP/1.1\r\n\r\n";
        let Parse::Ready { request, consumed } = try_parse(raw, 1024).unwrap() else {
            panic!("first request should parse");
        };
        assert_eq!(request.path, "/a");
        assert_eq!(request.body, "abc");
        let Parse::Ready {
            request,
            consumed: c2,
        } = try_parse(&raw[consumed..], 1024).unwrap()
        else {
            panic!("second request should parse");
        };
        assert_eq!(request.path, "/b");
        assert_eq!(consumed + c2, raw.len());
    }

    #[test]
    fn incomplete_buffers_ask_for_more() {
        assert!(matches!(
            try_parse(b"GET / HTT", 1024),
            Ok(Parse::Incomplete {
                needs_continue: false
            })
        ));
        assert!(matches!(
            try_parse(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab", 1024),
            Ok(Parse::Incomplete {
                needs_continue: false
            })
        ));
        assert!(matches!(
            try_parse(
                b"POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\n",
                1024
            ),
            Ok(Parse::Incomplete {
                needs_continue: true
            })
        ));
    }

    #[test]
    fn answers_expect_100_continue() {
        // The head alone asks for the interim 100 while the body is
        // awaited; the whole request carries the flag, so the 100 also
        // precedes a body that arrived with its head. A request without
        // a body is owed none.
        let head = "POST /v1/solve HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n";
        assert!(matches!(
            try_parse(head.as_bytes(), 1024),
            Ok(Parse::Incomplete {
                needs_continue: true
            })
        ));
        let req = parse(&format!("{head}{{}}"), 1024).unwrap();
        assert_eq!(req.body, "{}");
        assert!(req.expect_continue);
        let bodiless = parse("GET / HTTP/1.1\r\nExpect: 100-continue\r\n\r\n", 1024).unwrap();
        assert!(!bodiless.expect_continue);
        let plain = parse("POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 1024).unwrap();
        assert!(!plain.expect_continue);
    }

    #[test]
    fn rejects_oversized_bodies_and_chunked_encoding() {
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n", 100),
            Err(RequestError::BodyTooLarge { limit: 100 })
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 100),
            Err(RequestError::Unimplemented(_))
        ));
    }

    #[test]
    fn rejects_torn_and_malformed_requests() {
        // A head that never ends only ever asks for more bytes; the
        // connection machine closes it unanswered at end of stream.
        assert!(matches!(
            try_parse(b"GET /healthz HTTP/1.1\r\n", 1024),
            Ok(Parse::Incomplete {
                needs_continue: false
            })
        ));
        assert!(matches!(
            parse("NONSENSE\r\n\r\n", 1024),
            Err(RequestError::Malformed(_))
        ));
        // An oversized head is refused even when it arrives whole.
        let long_head = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(
            try_parse(long_head.as_bytes(), 1024),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_whitespace_before_header_colon() {
        // RFC 7230 §3.2.4: `Content-Length : 7` must be refused, not
        // silently repaired into a valid header.
        for bad in [
            "POST / HTTP/1.1\r\nContent-Length : 7\r\n\r\n{\"a\":1}",
            "GET / HTTP/1.1\r\n\tHost: x\r\n\r\n",
            "GET / HTTP/1.1\r\n: novalue\r\n\r\n",
        ] {
            assert!(
                matches!(parse(bad, 1024), Err(RequestError::Malformed(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn content_length_must_be_digits_only() {
        // `usize::from_str` would happily take `+7`; the wire grammar
        // is 1*DIGIT.
        // (OWS around the value is legal and trimmed; the value
        // itself must be 1*DIGIT.)
        for bad in ["+7", "-7", "0x7", "7a", ""] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length:{bad}\r\n\r\n");
            assert!(
                matches!(parse(&raw, 1024), Err(RequestError::Malformed(_))),
                "Content-Length {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn duplicate_content_lengths_must_agree() {
        assert!(matches!(
            parse(
                "POST / HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 2\r\n\r\n{\"a\":1}",
                1024
            ),
            Err(RequestError::Malformed(_))
        ));
        // Identical duplicates are fine (RFC 7230 §3.3.2 allows them).
        let req = parse(
            "POST / HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
            1024,
        )
        .unwrap();
        assert_eq!(req.body, "{\"a\":1}");
    }

    #[test]
    fn response_has_framing_headers() {
        let out = render_response(
            503,
            "application/json",
            &[("Retry-After", "1")],
            "{\"error\":\"busy\"}",
            false,
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Content-Length: 16\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"busy\"}"));
    }

    #[test]
    fn keep_alive_responses_differ_only_in_connection_header() {
        let open =
            String::from_utf8(render_response(200, "application/json", &[], "{}", true)).unwrap();
        let closed =
            String::from_utf8(render_response(200, "application/json", &[], "{}", false)).unwrap();
        assert!(open.contains("Connection: keep-alive\r\n"));
        assert!(closed.contains("Connection: close\r\n"));
        assert_eq!(
            open.replace("Connection: keep-alive", "Connection: close"),
            closed
        );
    }
}
