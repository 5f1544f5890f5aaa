//! The serving layer end to end, over real sockets:
//!
//! * concurrent clients get answers bit-identical to direct
//!   [`solve_single_traced`] calls — per-worker DP workspaces are
//!   scratch, the result cache stores finished bodies, and neither
//!   may change a solution;
//! * hit and miss paths return byte-identical bodies, and instance
//!   formatting (pretty vs compact) cannot split cache entries;
//! * half-written requests and clients that stop reading cost no
//!   worker thread — the event loop holds them — and the admission
//!   watermarks behave: past `reject_at` every request 503s
//!   immediately, past `degrade_at` big instances are rerouted to a
//!   cheap tier with `X-Fragalign-Degraded` and a body identical to
//!   asking for that tier directly;
//! * keep-alive connections serve many requests on one socket (and
//!   the reuse counters say so), pipelined requests answer in send
//!   order (20,000 of them within seconds), and idle sockets and
//!   stalled readers are closed after `idle_timeout_ms`;
//! * `Expect: 100-continue` earns one interim `100 Continue`, before
//!   the body when the client waits for it and always ahead of the
//!   final response, and a client that pipelines and then half-closes
//!   gets every request answered;
//! * the `/v1/solve` wire format is pinned by a golden snapshot
//!   (wall-clock normalised), so accidental format drift is caught
//!   before clients are.

use fragalign::align::DpWorkspace;
use fragalign::core::{solve_single_traced, BatchOptions, TraceHandle};
use fragalign::model::instance::paper_example;
use fragalign::model::{Instance, InstanceBuilder, Score, Sym};
use fragalign::serve::{
    client, http, AdmissionConfig, ServeConfig, Server, Stat, MAX_FRAGMENT_REGIONS, MAX_TABLE_CELLS,
};
use fragalign::sim::gen_batch;
use fragalign::sim::SimConfig;
use serde::Value;
use std::time::{Duration, Instant};

fn sim_instances(count: usize, seed: u64) -> Vec<Instance> {
    gen_batch(
        &SimConfig {
            regions: 12,
            h_frags: 3,
            m_frags: 3,
            loss_rate: 0.15,
            shuffles: 2,
            spurious: 3,
            seed,
            ..SimConfig::default()
        },
        count,
    )
    .into_iter()
    .map(|s| s.instance)
    .collect()
}

fn solve_body(inst: &Instance, solver: &str) -> String {
    format!(
        "{{\"instance\":{},\"solver\":\"{solver}\"}}",
        serde_json::to_string(inst).expect("instance serialises")
    )
}

/// Poll `probe` until it returns true; fail loudly instead of hanging.
fn wait_until(what: &str, probe: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn eight_concurrent_clients_match_direct_solves() {
    // One client per solver family (one-csr sits out: these are
    // multi-M instances and it would 400 by design).
    let solvers = [
        "csr",
        "full",
        "border",
        "four",
        "greedy",
        "matching",
        "portfolio",
        "exact",
    ];
    let instances = sim_instances(solvers.len(), 77);
    let server = Server::start(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    let responses: Vec<Value> = std::thread::scope(|scope| {
        let handles: Vec<_> = solvers
            .iter()
            .zip(&instances)
            .map(|(solver, inst)| {
                scope.spawn(move || {
                    let resp = client::post(addr, "/v1/solve", &solve_body(inst, solver))
                        .expect("solve answers");
                    assert_eq!(resp.status, 200, "{solver}: {}", resp.body);
                    serde_json::from_str::<Value>(&resp.body).expect("response parses")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for ((solver, inst), doc) in solvers.iter().zip(&instances).zip(&responses) {
        let mut ws = DpWorkspace::new();
        let (expected, expected_report) = solve_single_traced(
            inst,
            &BatchOptions::new(*solver),
            &mut ws,
            TraceHandle::disabled(),
        )
        .expect("direct solve succeeds");
        assert_eq!(
            doc.get("score"),
            Some(&Value::Int(expected.score)),
            "{solver}: served score diverged"
        );
        assert_eq!(
            doc.get("matches"),
            Some(&serde_json::to_value(&expected.matches).unwrap()),
            "{solver}: served matches diverged"
        );
        // The report is deterministic too, apart from wall clock and
        // workspace-growth counts (those depend on which warm worker
        // workspace handled the request).
        let report = doc.get("report").expect("report present");
        for (field, value) in [
            ("solver", Value::Str((*solver).to_string())),
            ("score", Value::Int(expected_report.score)),
            ("rounds", Value::Int(expected_report.rounds as i64)),
            ("attempts", Value::Int(expected_report.attempts as i64)),
            ("evaluated", Value::Int(expected_report.evaluated as i64)),
            ("dp_fills", Value::Int(expected_report.dp_fills as i64)),
            (
                "table_misses",
                Value::Int(expected_report.table_misses as i64),
            ),
            (
                "pair_misses",
                Value::Int(expected_report.pair_misses as i64),
            ),
        ] {
            assert_eq!(
                report.get(field),
                Some(&value),
                "{solver}: report field {field} diverged"
            );
        }
    }
    server.shutdown();
}

#[test]
fn cache_hit_is_byte_identical_and_formatting_invariant() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();
    let inst = &sim_instances(1, 9)[0];

    let miss = client::post(addr, "/v1/solve", &solve_body(inst, "four")).unwrap();
    assert_eq!(miss.status, 200, "{}", miss.body);
    assert_eq!(miss.header("x-fragalign-cache"), Some("miss"));
    let hit = client::post(addr, "/v1/solve", &solve_body(inst, "four")).unwrap();
    assert_eq!(hit.header("x-fragalign-cache"), Some("hit"));
    assert_eq!(miss.body, hit.body, "hit body diverged from miss body");

    // Same instance, different client formatting: the cache keys on
    // the canonical re-serialisation, so this is still a hit.
    let pretty = format!(
        "{{\n  \"solver\": \"four\",\n  \"instance\": {}\n}}",
        serde_json::to_string_pretty(inst).unwrap()
    );
    let reformatted = client::post(addr, "/v1/solve", &pretty).unwrap();
    assert_eq!(reformatted.header("x-fragalign-cache"), Some("hit"));
    assert_eq!(reformatted.body, miss.body);

    // A different solver is a different key.
    let other = client::post(addr, "/v1/solve", &solve_body(inst, "greedy")).unwrap();
    assert_eq!(other.header("x-fragalign-cache"), Some("miss"));

    let stats = server.state().cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 2));
    server.shutdown();
}

/// The first `n` characters of `text`, for failure messages.
fn head(text: &str, n: usize) -> String {
    text.chars().take(n).collect()
}

/// POST raw `body` bytes to `/v1/solve` on a fresh connection and
/// return the status and the whole response as text. Raw bytes, so a
/// body need not be valid UTF-8.
fn post_raw(addr: std::net::SocketAddr, body: &[u8]) -> (u16, String) {
    use std::io::Read;
    let mut request = format!(
        "POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    let mut stream = client::connect_and_send(addr, &request).expect("request sent");
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .expect("hostile body gets an answer");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status = text
        .get(9..12)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {:?}", head(&text, 80)));
    (status, text)
}

#[test]
fn deeply_nested_json_is_a_400_and_the_server_survives() {
    // A corpus of hostile bodies against one server. Workers decode
    // every body under `catch_unwind`, so a panic there costs its
    // request a 500 rather than the server, and a stall holds a
    // worker; the pinned statuses rule out both. The cases probe the
    // parser (nesting depth, integer range, long strings, UTF-8,
    // surrogate escapes, duplicate keys), the decoder (score magnitudes the DP could overflow on, a
    // float for an integer, instances whose score tables would not
    // fit in memory) and the engine (a huge unknown solver name,
    // `exact` past its limits, a body raising those limits). Every case
    // must answer within a few seconds with its pinned status, and
    // `/healthz` must answer after each.
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();
    let paper = paper_example();
    let paper_json = serde_json::to_string(&paper).expect("instance serialises");
    let with_default = |literal: &str| {
        let body = solve_body(&paper, "greedy").replace(
            "\"default_score\":0",
            &format!("\"default_score\":{literal}"),
        );
        assert!(body.contains(literal), "default score not replaced");
        body
    };
    let mut huge_scores = paper.clone();
    let entries: Vec<_> = paper.sigma.iter().take(2).collect();
    for (a, b, orient, _) in entries {
        let m_side = if orient.is_reversed() {
            Sym::rev(b)
        } else {
            Sym::fwd(b)
        };
        huge_scores.sigma.set(Sym::fwd(a), m_side, Score::MAX);
    }
    // Bodies of a few hundred KB whose score tables would take from
    // 128 MB to 6.4 GB: refused at decode, the limit named in the
    // reply.
    let sized = |h_len: usize, m_len: usize, per_side: usize| {
        let mut b = InstanceBuilder::new();
        let h_word: Vec<&str> = ["a", "b", "c", "d"]
            .into_iter()
            .cycle()
            .take(h_len)
            .collect();
        for i in 0..per_side {
            b.h_frag(&format!("h{i}"), &h_word);
            b.m_frag(&format!("m{i}"), &vec!["x"; m_len]);
        }
        b.score("a", "x", 1);
        b.build()
    };
    let long_fragment = sized(20_000, 1, 1);
    let many_cells = sized(1_000, 1_000, 2);
    let past_exact_limits = &gen_batch(
        &SimConfig {
            regions: 12,
            h_frags: 6,
            m_frags: 6,
            seed: 5,
            ..SimConfig::default()
        },
        1,
    )[0]
    .instance;
    let cases: Vec<(&str, Vec<u8>, u16)> = vec![
        ("nested arrays", "[".repeat(300_000).into_bytes(), 400),
        (
            "nested objects",
            "{\"instance\":".repeat(100_000).into_bytes(),
            400,
        ),
        (
            "integer past i64",
            with_default("99999999999999999999").into_bytes(),
            400,
        ),
        (
            "two i64::MAX scores",
            solve_body(&huge_scores, "greedy").into_bytes(),
            400,
        ),
        (
            "float for an integer",
            with_default("0.5").into_bytes(),
            400,
        ),
        (
            "4 MB solver name",
            solve_body(&paper, &"g".repeat(4 << 20)).into_bytes(),
            400,
        ),
        // The first of duplicate keys wins.
        (
            "duplicate keys",
            format!("{{\"solver\":\"greedy\",\"solver\":\"nope\",\"instance\":{paper_json}}}")
                .into_bytes(),
            200,
        ),
        ("invalid UTF-8", b"{\"solver\":\"\xff\xfe\"}".to_vec(), 400),
        (
            "lone high surrogate",
            br#"{"solver":"\ud800"}"#.to_vec(),
            400,
        ),
        (
            "lone low surrogate",
            br#"{"solver":"\udc00"}"#.to_vec(),
            400,
        ),
        (
            "exact past its limits",
            solve_body(past_exact_limits, "exact").into_bytes(),
            400,
        ),
        // The limits are not settable over the wire: a raised limit
        // would let one request hold a worker for the whole search.
        (
            "raised exact limits",
            solve_body(past_exact_limits, "exact")
                .replacen(
                    '{',
                    r#"{"options":{"exact_limits":{"max_frags":1000,"max_regions":100000}},"#,
                    1,
                )
                .into_bytes(),
            400,
        ),
        (
            "20,000-region fragment",
            solve_body(&long_fragment, "greedy").into_bytes(),
            400,
        ),
        (
            "interval tables past the cell limit",
            solve_body(&many_cells, "greedy").into_bytes(),
            400,
        ),
    ];
    let mut replies = std::collections::HashMap::new();
    for (label, body, want) in cases {
        let t0 = Instant::now();
        let (status, text) = post_raw(addr, &body);
        let took = t0.elapsed();
        assert_eq!(status, want, "{label}: {}", head(&text, 300));
        assert!(
            took < Duration::from_secs(5),
            "{label}: answered after {took:?}"
        );
        let health = client::request(addr, "GET", "/healthz", None, Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("{label}: server stopped answering: {e}"));
        assert_eq!(health.status, 200, "{label}: healthz after");
        replies.insert(label, text);
    }
    for (label, limit) in [
        ("20,000-region fragment", MAX_FRAGMENT_REGIONS),
        ("interval tables past the cell limit", MAX_TABLE_CELLS),
    ] {
        assert!(
            replies[label].contains(&format!("(limit {limit}")),
            "{label}: the 400 must name the limit: {}",
            head(&replies[label], 300)
        );
    }
    server.shutdown();
}

#[test]
fn omitting_the_solver_field_routes_through_auto() {
    // `ServeConfig::default()` now defaults to the shape-routing
    // `auto` solver: a request with no "solver" field must be
    // bit-identical to a direct `auto` solve, report `auto` as the
    // solver, and expose the routed backend via `routed_by`.
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();
    let inst = &sim_instances(1, 41)[0];

    let body = format!(
        "{{\"instance\":{}}}",
        serde_json::to_string(inst).expect("instance serialises")
    );
    let resp = client::post(addr, "/v1/solve", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc: Value = serde_json::from_str(&resp.body).expect("response parses");

    let mut ws = DpWorkspace::new();
    let (expected, expected_report) = solve_single_traced(
        inst,
        &BatchOptions::new("auto"),
        &mut ws,
        TraceHandle::disabled(),
    )
    .expect("direct auto solve succeeds");
    assert_eq!(doc.get("score"), Some(&Value::Int(expected.score)));
    assert_eq!(
        doc.get("matches"),
        Some(&serde_json::to_value(&expected.matches).unwrap()),
        "served default-solver matches diverged from direct auto solve"
    );
    let report = doc.get("report").expect("report present");
    assert_eq!(
        report.get("solver"),
        Some(&Value::Str("auto".to_string())),
        "default solver must be auto"
    );
    let routed = expected_report
        .routed_by
        .clone()
        .expect("auto must record its routed backend");
    assert_eq!(
        report.get("routed_by"),
        Some(&Value::Str(routed)),
        "served routed_by diverged from the router table choice"
    );
    server.shutdown();
}

#[test]
fn half_written_requests_cost_no_worker() {
    // A request whose body never arrives holds an event-loop buffer,
    // never a worker: four of them parked against the only worker
    // leave it free, and a fifth client is answered at once.
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let state = server.state();

    let mut parked: Vec<_> = (0..4)
        .map(|_| {
            client::connect_and_send(
                addr,
                b"POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Length: 10\r\nConnection: close\r\n\r\n",
            )
            .expect("park a half-written request")
        })
        .collect();
    wait_until("the parked connections to register", || {
        state.telemetry.get(Stat::ConnectionsOpen) >= 4
    });
    assert_eq!(state.telemetry.get(Stat::BusyWorkers), 0);
    assert_eq!(state.telemetry.get(Stat::QueueDepth), 0);

    // The lone worker is free, so a real request answers immediately.
    let t0 = Instant::now();
    let health = client::request(addr, "GET", "/healthz", None, Duration::from_secs(5))
        .expect("healthz answers despite parked requests");
    assert_eq!(health.status, 200, "{}", health.body);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "healthz took {:?} behind parked requests",
        t0.elapsed()
    );

    // Completing a parked body drains it normally (junk bytes → 400).
    use std::io::{Read, Write};
    let stream = parked.last_mut().unwrap();
    stream.write_all(b"0123456789").expect("finish parked body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("parked response");
    let parked_reply = String::from_utf8(raw).expect("utf-8 response");
    assert!(
        parked_reply.starts_with("HTTP/1.1 400"),
        "ten junk bytes are not JSON: {parked_reply}"
    );
    server.shutdown();
}

#[test]
fn hard_admission_watermark_503s_and_never_hangs() {
    // `reject_at: 0.0` puts every request past the hard watermark:
    // the event loop must answer 503 itself, without a worker.
    let server = Server::start(ServeConfig {
        admission: AdmissionConfig {
            reject_at: 0.0,
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    let t0 = Instant::now();
    let rejected = client::request(addr, "GET", "/healthz", None, Duration::from_secs(5))
        .expect("rejected request still gets a response");
    assert_eq!(rejected.status, 503, "{}", rejected.body);
    assert_eq!(rejected.header("retry-after"), Some("1"));
    assert!(rejected.body.contains("watermark"), "{}", rejected.body);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "503 took {:?} — the hard watermark must not block",
        t0.elapsed()
    );
    assert_eq!(server.state().telemetry.get(Stat::Rejected503), 1);
    server.shutdown();
}

#[test]
fn degrade_watermark_reroutes_big_instances_with_header() {
    // `degrade_at: 0.0` makes every request "loaded"; a big instance
    // asking for a DP solver is rerouted to the router's cheap tier.
    let inst = &gen_batch(
        &SimConfig {
            regions: 80,
            h_frags: 6,
            m_frags: 6,
            loss_rate: 0.1,
            shuffles: 3,
            spurious: 4,
            seed: 1221,
            ..SimConfig::default()
        },
        1,
    )[0]
    .instance;
    assert!(
        inst.score_upper_bound() >= 500,
        "test instance too small to trigger degradation"
    );
    let server = Server::start(ServeConfig {
        admission: AdmissionConfig {
            degrade_at: 0.0,
            reject_at: 10.0,
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    let resp = client::post(addr, "/v1/solve", &solve_body(inst, "csr")).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let tier = resp
        .header("x-fragalign-degraded")
        .expect("degraded response must carry X-Fragalign-Degraded");
    assert!(
        ["greedy", "chain"].contains(&tier),
        "unexpected cheap tier {tier:?}"
    );
    // The degraded body is a faithful cheap-tier solve.
    let mut ws = DpWorkspace::new();
    let (expected, _) = solve_single_traced(
        inst,
        &BatchOptions::new(tier),
        &mut ws,
        TraceHandle::disabled(),
    )
    .expect("direct cheap-tier solve succeeds");
    let doc: Value = serde_json::from_str(&resp.body).expect("response parses");
    assert_eq!(doc.get("score"), Some(&Value::Int(expected.score)));
    assert_eq!(
        doc.get("matches"),
        Some(&serde_json::to_value(&expected.matches).unwrap()),
        "degraded matches diverged from a direct {tier} solve"
    );
    assert_eq!(
        doc.get("solver"),
        Some(&Value::Str(tier.to_string())),
        "degraded response must report the solver actually used"
    );
    assert_eq!(server.state().telemetry.get(Stat::AdmissionDegraded), 1);

    // The same body again is a cache hit under the same tier: the
    // event loop resolves it from the body memo the worker published.
    let again = client::post(addr, "/v1/solve", &solve_body(inst, "csr")).unwrap();
    assert_eq!(again.status, 200, "{}", again.body);
    assert_eq!(again.header("x-fragalign-cache"), Some("hit"));
    assert_eq!(again.header("x-fragalign-degraded"), Some(tier));
    assert_eq!(again.body, resp.body);
    assert_eq!(server.state().telemetry.get(Stat::AdmissionDegraded), 2);

    // The result was cached under the tier actually used: asking for
    // that tier directly is a hit with an identical body (and no
    // degraded marker — the client got what it asked for).
    let tier = tier.to_string();
    let direct = client::post(addr, "/v1/solve", &solve_body(inst, &tier)).unwrap();
    assert_eq!(direct.header("x-fragalign-cache"), Some("hit"));
    assert_eq!(direct.header("x-fragalign-degraded"), None);
    assert_eq!(direct.body, resp.body);

    // Small instances pass through untouched at any load.
    let small = &sim_instances(1, 7)[0];
    let passed = client::post(addr, "/v1/solve", &solve_body(small, "csr")).unwrap();
    assert_eq!(passed.status, 200, "{}", passed.body);
    assert_eq!(passed.header("x-fragalign-degraded"), None);
    let doc: Value = serde_json::from_str(&passed.body).unwrap();
    assert_eq!(doc.get("solver"), Some(&Value::Str("csr".into())));
    server.shutdown();
}

#[test]
fn keepalive_connections_are_reused_and_counted() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();
    let mut conn = client::Connection::open(addr).expect("connect");

    let health = conn.request("GET", "/healthz", None).expect("healthz");
    assert_eq!(health.status, 200, "{}", health.body);
    assert_eq!(health.header("connection"), Some("keep-alive"));
    let solvers = conn.request("GET", "/v1/solvers", None).expect("solvers");
    assert_eq!(solvers.status, 200);
    assert!(solvers.body.contains("\"name\": \"csr\""));

    let telemetry = &server.state().telemetry;
    assert_eq!(
        telemetry.get(Stat::ConnectionsAccepted),
        1,
        "both requests must share one connection"
    );
    assert!(
        telemetry.get(Stat::KeepaliveReuse) >= 1,
        "reuse counter never moved"
    );
    server.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();
    let inst = &sim_instances(1, 55)[0];
    let mut conn = client::Connection::open(addr).expect("connect");

    conn.send("GET", "/healthz", None).expect("send 1");
    conn.send("POST", "/v1/solve", Some(&solve_body(inst, "greedy")))
        .expect("send 2");
    conn.send("GET", "/v1/solvers", None).expect("send 3");
    assert_eq!(conn.in_flight(), 3);

    let first = conn.recv().expect("healthz answers first");
    assert_eq!(first.status, 200);
    assert!(first.body.contains("\"status\":\"ok\""), "{}", first.body);
    let second = conn.recv().expect("solve answers second");
    assert_eq!(second.status, 200);
    assert!(second.body.contains("\"score\""), "{}", second.body);
    let third = conn.recv().expect("solvers answers third");
    assert_eq!(third.status, 200);
    assert!(third.body.contains("\"name\": \"csr\""), "{}", third.body);
    assert_eq!(conn.in_flight(), 0);
    server.shutdown();
}

/// Check that `stream` delivers the `expected` responses next, in
/// order and byte for byte.
fn expect_responses<'a>(stream: std::net::TcpStream, expected: impl Iterator<Item = &'a [u8]>) {
    use std::io::Read;
    let mut reader = std::io::BufReader::with_capacity(1 << 16, stream);
    let mut got = Vec::new();
    for (i, want) in expected.enumerate() {
        got.resize(want.len(), 0);
        reader
            .read_exact(&mut got)
            .unwrap_or_else(|e| panic!("response {i}: {e}"));
        assert!(
            got == want,
            "response {i} differs: {}",
            head(&String::from_utf8_lossy(&got), 300)
        );
    }
}

/// Write `bytes` on a clone of `stream` from a thread of its own, so
/// the caller can read (or not) while the server takes them. Write
/// errors end the thread quietly: a server that closes the connection
/// is what some tests wait for.
fn write_in_background(
    stream: &std::net::TcpStream,
    bytes: Vec<u8>,
) -> std::thread::JoinHandle<()> {
    use std::io::Write;
    let mut writer = stream.try_clone().expect("clone the client socket");
    std::thread::spawn(move || {
        let _ = writer.write_all(&bytes);
    })
}

/// `count` pipelined `POST /v1/solve` requests cycling over `bodies`.
fn pipelined_solves(bodies: &[String], count: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    for i in 0..count {
        let body = &bodies[i % bodies.len()];
        bytes.extend_from_slice(
            format!(
                "POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
    }
    bytes
}

#[test]
fn a_deep_pipeline_of_cache_hits_answers_in_order() {
    // 20,000 cache hits sent in one write (about 21 MB) are all
    // answered, in request order, within a few seconds: parsing a
    // request off the connection's buffer costs time in its own
    // bytes, not in the bytes still queued behind it.
    const REQUESTS: usize = 20_000;
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let addr = server.addr();
    let bodies: Vec<String> = sim_instances(4, 808)
        .iter()
        .map(|inst| solve_body(inst, "greedy"))
        .collect();
    let hits: Vec<Vec<u8>> = bodies
        .iter()
        .map(|body| {
            let primed = client::post(addr, "/v1/solve", body).expect("prime the cache");
            assert_eq!(primed.status, 200, "{}", primed.body);
            http::render_response(
                200,
                "application/json",
                &[("X-Fragalign-Cache", "hit")],
                &primed.body,
                true,
            )
        })
        .collect();

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    let t0 = Instant::now();
    let writer = write_in_background(&stream, pipelined_solves(&bodies, REQUESTS));
    expect_responses(
        stream,
        (0..REQUESTS).map(|i| hits[i % hits.len()].as_slice()),
    );
    let took = t0.elapsed();
    writer.join().expect("writer thread");
    assert!(
        took < Duration::from_secs(4),
        "{REQUESTS} pipelined hits took {took:?}"
    );
    server.shutdown();
}

#[test]
fn a_client_that_stops_reading_holds_no_worker() {
    // One worker and a client that pipelines 20,000 `GET /v1/solvers`
    // (about 35 MB of responses, more than the loopback socket buffers
    // hold) and then reads nothing for a second. The worker writes
    // what the socket takes and hands the rest to the event loop, so
    // `/healthz` on another connection is answered at once, and the
    // stalled client still gets every response once it reads.
    const REQUESTS: usize = 20_000;
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let solvers = client::get(addr, "/v1/solvers").expect("solvers").body;
    let solvers = http::render_response(200, "application/json", &[], &solvers, true);

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    let writer = write_in_background(
        &stream,
        b"GET /v1/solvers HTTP/1.1\r\nHost: t\r\n\r\n".repeat(REQUESTS),
    );
    std::thread::sleep(Duration::from_secs(1));

    let t0 = Instant::now();
    let health = client::request(addr, "GET", "/healthz", None, Duration::from_secs(10))
        .expect("healthz answers beside a stalled reader");
    assert_eq!(health.status, 200, "{}", health.body);
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "healthz took {:?} beside a stalled reader",
        t0.elapsed()
    );

    expect_responses(stream, std::iter::repeat_n(solvers.as_slice(), REQUESTS));
    writer.join().expect("writer thread");
    server.shutdown();
}

#[test]
fn a_stalled_reader_is_closed_at_the_idle_timeout() {
    // A client that pipelines cache hits and never reads stops the
    // server's writes once the socket buffers fill. The connection
    // then moves no bytes and is closed at the idle timeout.
    let server = Server::start(ServeConfig {
        idle_timeout_ms: 300,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let state = server.state();
    let body = solve_body(&sim_instances(1, 909)[0], "greedy");
    let primed = client::post(addr, "/v1/solve", &body).expect("prime the cache");
    assert_eq!(primed.status, 200, "{}", primed.body);

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let writer = write_in_background(&stream, pipelined_solves(&[body], 20_000));
    wait_until("the stalled reader to be accepted", || {
        state.telemetry.get(Stat::ConnectionsAccepted) >= 2
    });
    let t0 = Instant::now();
    while state.telemetry.get(Stat::ConnectionsOpen) > 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "a client that never reads was not closed within {:?}",
            t0.elapsed()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(stream);
    writer.join().expect("writer thread");
    server.shutdown();
}

#[test]
fn idle_connections_are_dropped_after_the_timeout() {
    let server = Server::start(ServeConfig {
        idle_timeout_ms: 150,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let state = server.state();

    use std::io::Read;
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    wait_until("the idle connection to register", || {
        state.telemetry.get(Stat::ConnectionsOpen) >= 1
    });
    let t0 = Instant::now();
    let mut byte = [0u8; 1];
    let n = stream.read(&mut byte).expect("read until server closes");
    assert_eq!(n, 0, "server must close the idle connection, not write");
    assert!(
        t0.elapsed() >= Duration::from_millis(50),
        "closed suspiciously fast ({:?}) — not an idle eviction",
        t0.elapsed()
    );
    wait_until("the gauge to drop", || {
        state.telemetry.get(Stat::ConnectionsOpen) == 0
    });
    server.shutdown();
}

#[test]
fn a_half_written_request_is_closed_at_the_idle_timeout() {
    // A client that stops mid-head moves no bytes, so it is closed at
    // the idle timeout like a connection that never sent anything.
    let server = Server::start(ServeConfig {
        idle_timeout_ms: 150,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let state = server.state();

    use std::io::Read;
    let mut stream =
        client::connect_and_send(server.addr(), b"POST /v1/solve HTTP/1.1\r\nContent-Le")
            .expect("send half a head");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    let mut byte = [0u8; 1];
    let n = stream.read(&mut byte).expect("read until server closes");
    assert_eq!(n, 0, "server must close the stalled request, not answer it");
    wait_until("the gauge to drop", || {
        state.telemetry.get(Stat::ConnectionsOpen) == 0
    });
    server.shutdown();
}

#[test]
fn a_half_closed_pipeline_is_answered_in_full() {
    // Three pipelined requests and a half-close in one burst: the
    // server answers all three, in order, and closes after the last,
    // which alone says `Connection: close`.
    use std::io::{Read, Write};
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let requests = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".repeat(3);
    stream
        .write_all(requests.as_bytes())
        .expect("send the pipeline");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("read until the server closes");
    let heads: Vec<&str> = raw
        .split("HTTP/1.1 ")
        .skip(1)
        .map(|response| response.lines().next().unwrap_or(""))
        .collect();
    assert_eq!(heads, ["200 OK"; 3], "{raw}");
    assert_eq!(raw.matches("Connection: close").count(), 1, "{raw}");
    assert!(raw.rfind("Connection: close") > raw.rfind("Connection: keep-alive"));
    server.shutdown();
}

/// Read one response off `reader`: its status and the value of its
/// `X-Fragalign-Cache` header.
fn read_response(reader: &mut impl std::io::BufRead) -> (u16, Option<String>) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("a status line");
    let status = line
        .get(9..12)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {line:?}"));
    let (mut length, mut cache) = (0, None);
    loop {
        line.clear();
        reader.read_line(&mut line).expect("a header line");
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) = header.split_once(": ").expect("a header");
        match name {
            "Content-Length" => length = value.parse().expect("a length"),
            "X-Fragalign-Cache" => cache = Some(value.to_string()),
            _ => {}
        }
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body).expect("the whole body");
    (status, cache)
}

#[test]
fn expect_100_continue_gets_one_interim_response_before_the_final_one() {
    // A client that sends `Expect: 100-continue` and waits for the
    // interim response before its body gets it, then the 200 from a
    // worker; sending head and body in one write still puts the 100
    // ahead of the 200, which the loop answers from the cache; and a
    // following request that did not ask gets none.
    use std::io::{BufReader, Read, Write};
    const CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let body = solve_body(&sim_instances(1, 1007)[0], "greedy");
    let head = |expect: bool| {
        let expect = if expect {
            "Expect: 100-continue\r\n"
        } else {
            ""
        };
        format!(
            "POST /v1/solve HTTP/1.1\r\nHost: t\r\n{expect}Content-Length: {}\r\n\r\n",
            body.len()
        )
    };
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the client socket"));
    let mut interim = [0u8; CONTINUE.len()];

    stream
        .write_all(head(true).as_bytes())
        .expect("send the head");
    reader
        .read_exact(&mut interim)
        .expect("the interim response arrives before the body is sent");
    assert_eq!(interim, CONTINUE);
    stream.write_all(body.as_bytes()).expect("send the body");
    assert_eq!(read_response(&mut reader), (200, Some("miss".into())));

    stream
        .write_all(format!("{}{body}", head(true)).as_bytes())
        .expect("send head and body");
    reader
        .read_exact(&mut interim)
        .expect("the interim response");
    assert_eq!(interim, CONTINUE);
    assert_eq!(read_response(&mut reader), (200, Some("hit".into())));

    stream
        .write_all(format!("{}{body}", head(false)).as_bytes())
        .expect("send a plain request");
    assert_eq!(read_response(&mut reader), (200, Some("hit".into())));
    server.shutdown();
}

#[test]
fn solve_wire_format_is_pinned() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let resp = client::post(
        server.addr(),
        "/v1/solve",
        &solve_body(&paper_example(), "greedy"),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let normalized = normalize_wall_secs(&resp.body);

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/serve_solve_demo.json");
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&path, &normalized).expect("bless golden");
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} (run with BLESS=1): {e}", path.display()));
    assert_eq!(
        normalized, golden,
        "/v1/solve wire format drifted from snapshot"
    );
    server.shutdown();
}

/// Replace the one nondeterministic response field (`wall_secs`) with
/// a stable placeholder so the body can be snapshot.
fn normalize_wall_secs(body: &str) -> String {
    let marker = "\"wall_secs\":";
    let start = body.find(marker).expect("report has wall_secs") + marker.len();
    let end = start
        + body[start..]
            .find([',', '}'])
            .expect("wall_secs value ends");
    format!("{}0.0{}", &body[..start], &body[end..])
}
