//! Fuzz-shaped properties for the HTTP/1.1 request parser, fed the way
//! the server's connection machine feeds it — a growing buffer,
//! re-parsed as each read's bytes arrive: arbitrary bytes, truncations
//! of valid requests, pathological read chunkings and single-byte
//! mutations must never panic; any failure must land in one of the
//! typed [`RequestError`] categories the server maps to 4xx/5xx
//! responses; a truncated request only ever asks for more bytes;
//! well-formed requests must parse to the same request no matter how
//! the socket splits the bytes; and pipelined request streams must come
//! apart at exactly their framing boundaries with keep-alive semantics
//! intact, whatever the chunking.

use fragalign_serve::http::{try_parse, Parse, Request, RequestError};
use proptest::collection::vec;
use proptest::prelude::*;

/// Feed `bytes` to [`try_parse`] `chunk` bytes at a time, as reads
/// deliver them — head/body boundaries landing anywhere, including
/// mid-CRLF — until the first request or framing error. `Ok(None)` when
/// the bytes end mid-request.
fn parse_first(
    bytes: &[u8],
    chunk: usize,
    max_body: usize,
) -> Result<Option<Request>, RequestError> {
    let mut end = 0;
    loop {
        match try_parse(&bytes[..end], max_body)? {
            Parse::Ready { request, .. } => return Ok(Some(request)),
            Parse::Incomplete { .. } if end == bytes.len() => return Ok(None),
            Parse::Incomplete { .. } => end = (end + chunk).min(bytes.len()),
        }
    }
}

/// A canonical valid POST whose body is `body`; `needed` is the byte
/// count the parser actually consumes.
fn valid_post(body: &str) -> (Vec<u8>, usize) {
    let head = format!(
        "POST /v1/solve HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let needed = head.len() + body.len();
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    (bytes, needed)
}

/// Feed `bytes` into an incremental-parse buffer `chunk` bytes at a
/// time, draining every complete request as it becomes parseable —
/// exactly the event loop's read path. Returns the parsed requests
/// and whatever leftover bytes never completed a request.
fn parse_stream(bytes: &[u8], chunk: usize, max_body: usize) -> (Vec<Request>, Vec<u8>) {
    let mut buf: Vec<u8> = Vec::new();
    let mut out = Vec::new();
    for piece in bytes.chunks(chunk.max(1)) {
        buf.extend_from_slice(piece);
        loop {
            match try_parse(&buf, max_body) {
                Ok(Parse::Ready { request, consumed }) => {
                    buf.drain(..consumed);
                    out.push(request);
                }
                Ok(Parse::Incomplete { .. }) => break,
                Err(e) => panic!("a well-formed stream must stay parseable: {e:?}"),
            }
        }
    }
    (out, buf)
}

proptest! {
    /// Arbitrary byte soup, delivered in arbitrary chunkings, never
    /// panics; when it does parse, the parser's own invariants hold.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in vec(0u8..=255, 0..600),
        chunk in 1usize..9,
        max_body in 0usize..256,
    ) {
        if let Ok(Some(req)) = parse_first(&bytes, chunk, max_body) {
            prop_assert!(!req.method.is_empty());
            prop_assert!(!req.path.is_empty());
            prop_assert!(req.body.len() <= max_body, "body exceeded the cap");
            for (name, _) in &req.headers {
                prop_assert_eq!(
                    name.clone(), name.to_ascii_lowercase(),
                    "header names must be lower-cased at parse time"
                );
            }
        }
        // An Err is fine by construction: every variant maps to a
        // 4xx/5xx response, never a panic.
    }

    /// Truncating a valid request anywhere leaves the parser asking for
    /// more bytes (the connection machine closes such a torn request
    /// unanswered at end of stream); the full request parses whole,
    /// byte-for-byte, at every chunking.
    #[test]
    fn truncations_fail_cleanly_and_full_requests_split_anywhere(
        body_bytes in vec(32u8..127, 0..80),
        cut in 0usize..200,
        chunk in 1usize..9,
    ) {
        let body: String = body_bytes.iter().map(|&b| b as char).collect();
        let (bytes, needed) = valid_post(&body);
        let cut = cut.min(needed);
        let result = parse_first(&bytes[..cut], chunk, 4096);
        if cut < needed {
            prop_assert!(
                matches!(result, Ok(None)),
                "a truncated request (cut {} of {}) must only ask for more",
                cut, needed
            );
        } else {
            let req = result.expect("the complete request parses").expect("it is whole");
            prop_assert_eq!(&req.method, "POST");
            prop_assert_eq!(&req.path, "/v1/solve");
            prop_assert_eq!(req.header("host"), Some("fuzz"));
            prop_assert_eq!(&req.body, &body);
            // And the chunking must not matter: one-shot == chunked.
            let whole = parse_first(&bytes, needed.max(1), 4096).unwrap().unwrap();
            prop_assert_eq!(&req.body, &whole.body);
            prop_assert_eq!(&req.headers, &whole.headers);
        }
    }

    /// Flipping any single byte of a valid request never panics: the
    /// request still parses, asks for more bytes (a length digit grew)
    /// or lands in a typed error.
    #[test]
    fn single_byte_mutations_never_panic(
        body_bytes in vec(32u8..127, 1..60),
        idx in any::<prop::sample::Index>(),
        replacement in 0u8..=255,
    ) {
        let body: String = body_bytes.iter().map(|&b| b as char).collect();
        let (mut bytes, _) = valid_post(&body);
        let at = idx.index(bytes.len());
        bytes[at] = replacement;
        match parse_first(&bytes, 5, 4096) {
            Ok(Some(req)) => prop_assert!(req.body.len() <= 4096),
            Ok(None)
            | Err(
                RequestError::Malformed(_)
                | RequestError::Unimplemented(_)
                | RequestError::BodyTooLarge { .. },
            ) => {}
        }
    }

    /// Well-formed requests round-trip field by field: mixed-case
    /// header names arrive lower-cased, optional whitespace around
    /// values is trimmed, and the body survives verbatim.
    #[test]
    fn valid_requests_round_trip(
        tag in 0u64..1_000_000,
        pad_left in 0usize..3,
        pad_right in 0usize..3,
        upper in any::<bool>(),
        chunk in 1usize..9,
    ) {
        let body = format!("{{\"tag\":{tag}}}");
        let name = if upper { "X-Fuzz-TAG" } else { "x-fuzz-tag" };
        let raw = format!(
            "POST /v1/solve?tag={tag} HTTP/1.1\r\n{name}:{}{tag}{}\r\nContent-Length: {}\r\n\r\n{body}",
            " ".repeat(pad_left),
            " ".repeat(pad_right),
            body.len(),
        );
        let req = parse_first(raw.as_bytes(), chunk, 4096)
            .expect("valid request parses")
            .expect("it is whole");
        prop_assert_eq!(&req.method, "POST");
        prop_assert_eq!(&req.path, "/v1/solve");
        prop_assert_eq!(req.query, format!("tag={tag}"));
        let value = tag.to_string();
        prop_assert_eq!(req.param("tag"), Some(value.as_str()));
        prop_assert_eq!(req.header("x-fuzz-tag"), Some(value.as_str()));
        prop_assert_eq!(req.header("X-FUZZ-TAG"), Some(value.as_str()));
        prop_assert_eq!(req.body, body);
    }

    /// A pipeline of valid requests comes apart at exactly its framing
    /// boundaries — every body recovered verbatim, in order, with no
    /// leftover — no matter where the chunking splits the stream
    /// (including mid-CRLF and across request boundaries).
    #[test]
    fn pipelined_streams_split_anywhere(
        bodies in vec(vec(32u8..127, 0..40), 1..6),
        chunk in 1usize..9,
    ) {
        let mut stream = Vec::new();
        let texts: Vec<String> = bodies
            .iter()
            .map(|b| b.iter().map(|&c| c as char).collect())
            .collect();
        for body in &texts {
            stream.extend_from_slice(valid_post(body).0.as_slice());
        }
        let (requests, leftover) = parse_stream(&stream, chunk, 4096);
        prop_assert_eq!(requests.len(), texts.len(), "lost or invented a request");
        prop_assert!(leftover.is_empty(), "bytes left behind: {:?}", leftover);
        for (req, body) in requests.iter().zip(&texts) {
            prop_assert_eq!(&req.method, "POST");
            prop_assert_eq!(&req.body, body);
            prop_assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        }
    }

    /// Keep-alive semantics: the HTTP version sets the default and a
    /// `Connection` token list overrides it, in either casing, with
    /// unrelated tokens ignored — and a `Connection: close` anywhere
    /// in a pipeline only marks its own request.
    #[test]
    fn connection_semantics_hold_in_pipelines(
        v11 in any::<bool>(),
        header_idx in 0usize..5,
        upper in any::<bool>(),
        chunk in 1usize..9,
    ) {
        let version = if v11 { "HTTP/1.1" } else { "HTTP/1.0" };
        let values = ["close", "keep-alive", "TE, close", "keep-alive, TE"];
        // Index 4 means "no Connection header at all".
        let header = (header_idx < values.len()).then_some(header_idx);
        let conn_line = match header {
            None => String::new(),
            Some(i) => {
                let v = if upper { values[i].to_ascii_uppercase() } else { values[i].to_string() };
                format!("Connection: {v}\r\n")
            }
        };
        let expected = match header {
            None => v11,
            Some(i) => !values[i].contains("close"),
        };
        let first = format!("GET /healthz {version}\r\n{conn_line}\r\n");
        // A second, plain HTTP/1.1 request rides behind the first.
        let (second, _) = valid_post("tail");
        let mut stream = first.into_bytes();
        stream.extend_from_slice(&second);
        let (requests, leftover) = parse_stream(&stream, chunk, 4096);
        prop_assert_eq!(requests.len(), 2);
        prop_assert!(leftover.is_empty());
        prop_assert_eq!(requests[0].keep_alive, expected, "first request's keep-alive");
        prop_assert!(requests[1].keep_alive, "the tail request is its own framing unit");
        prop_assert_eq!(&requests[1].body, "tail");
    }

    /// `Content-Length` beyond the cap is always the typed 413 error,
    /// regardless of how the head is chunked — the server must be able
    /// to answer before reading an oversized body.
    #[test]
    fn oversized_bodies_are_typed_413s(
        excess in 1usize..10_000,
        max_body in 0usize..512,
        chunk in 1usize..9,
    ) {
        let raw = format!(
            "POST /v1/solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            max_body + excess
        );
        let typed = matches!(
            parse_first(raw.as_bytes(), chunk, max_body),
            Err(RequestError::BodyTooLarge { limit }) if limit == max_body
        );
        prop_assert!(typed, "oversized Content-Length must be the typed 413 error");
    }
}
