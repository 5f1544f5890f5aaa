//! Experiment: `fragalign-serve` under concurrent load. Spawns the
//! service in-process, drives K client threads over localhost with a
//! seeded, repeat-heavy workload (mixed solvers over a small instance
//! pool, so the sharded result cache sees real traffic), and emits
//! machine-readable `BENCH_service.json` so the serving layer has a
//! measured throughput trajectory from its first day.
//!
//! ```sh
//! cargo run --release -p fragalign-bench --bin exp_service           # full run
//! cargo run --release -p fragalign-bench --bin exp_service -- --smoke
//! ```
//!
//! This concurrency is real on both axes now: the worker pool runs on
//! `std::thread` fed by the genuinely concurrent crossbeam shim, and
//! since the rayon shim rebuild each worker's solve can additionally
//! fan out over the real rayon pool (see shims/README.md and
//! `tests/speedup.rs`), so requests/sec scales with whatever cores the
//! host offers. Each request is classified by the server's
//! `X-Fragalign-Cache` header; the hit/miss latency split is the
//! cache's measured win (the acceptance bar is hits ≥ 5× faster than
//! misses on this repeat-heavy workload).
//!
//! A second phase replays an identical hot-cache request sequence
//! under three connection disciplines — close-per-request,
//! keep-alive, pipelined — with bit-identical responses asserted
//! across arms. The acceptance bar (full runs only) is keep-alive
//! ≥ 2× close-per-request: the event-loop redesign makes persistent
//! connections nearly free, so per-request connect/teardown becomes
//! the dominant cost of the close discipline.

use fragalign::model::Instance;
use fragalign::serve::{client, ServeConfig, Server, Stat};
use fragalign::sim::{gen_batch, SimConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Config {
    clients: usize,
    requests_per_client: usize,
    unique_instances: usize,
    solvers: Vec<String>,
    regions: usize,
    frags: usize,
    workers: usize,
    queue_depth: usize,
    cache_mb: usize,
    seed: u64,
    smoke: bool,
}

/// Latency summary over one request class, exact (sorted vector, not
/// bucketed like the server's own histogram).
#[derive(Serialize)]
struct Latency {
    count: usize,
    mean_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
}

impl Latency {
    fn from_micros(mut micros: Vec<u64>) -> Latency {
        micros.sort_unstable();
        let count = micros.len();
        let pick = |q: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let idx = ((q * count as f64).ceil() as usize).clamp(1, count) - 1;
            micros[idx] as f64 / 1000.0
        };
        Latency {
            count,
            mean_ms: if count == 0 {
                0.0
            } else {
                micros.iter().sum::<u64>() as f64 / count as f64 / 1000.0
            },
            p50_ms: pick(0.50),
            p99_ms: pick(0.99),
        }
    }
}

/// One connection-discipline arm of the hot-cache comparison: the
/// same request sequence driven close-per-request, keep-alive, or
/// pipelined.
#[derive(Serialize)]
struct ConnectionArm {
    mode: String,
    requests: usize,
    wall_secs: f64,
    requests_per_sec: f64,
}

#[derive(Serialize)]
struct Report {
    config: Config,
    requests: usize,
    wall_secs: f64,
    requests_per_sec: f64,
    cache_hit_rate: f64,
    all: Latency,
    hits: Latency,
    misses: Latency,
    /// `misses.mean_ms / hits.mean_ms` — the cache's measured win.
    hit_speedup_mean: f64,
    /// Same ratio at the median.
    hit_speedup_p50: f64,
    /// The hot-cache connection-discipline comparison (one client,
    /// identical request sequence per arm).
    connection_arms: Vec<ConnectionArm>,
    /// keep-alive req/s over close-per-request req/s.
    keepalive_speedup: f64,
    /// pipelined req/s over close-per-request req/s.
    pipelined_speedup: f64,
    /// The server's own `/metrics` document at the end of the run.
    server_metrics: serde::Value,
}

/// Drive `sequence` through `exchange` once, timing the whole arm.
fn run_arm(mode: &str, requests: usize, exchange: impl FnOnce() -> usize) -> ConnectionArm {
    let t0 = Instant::now();
    let answered = exchange();
    let wall_secs = t0.elapsed().as_secs_f64();
    assert_eq!(answered, requests, "{mode}: arm lost responses");
    ConnectionArm {
        mode: mode.to_string(),
        requests,
        wall_secs,
        requests_per_sec: requests as f64 / wall_secs.max(1e-9),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (clients, requests_per_client, unique_instances, regions, frags) = if smoke {
        (4, 30, 6, 12, 3)
    } else {
        (8, 200, 24, 24, 4)
    };
    let solvers = ["csr", "four", "greedy"];
    let seed = 4242u64;
    let cfg = ServeConfig {
        workers: 4,
        queue_depth: 256,
        cache_mb: 32,
        ..ServeConfig::default()
    };
    println!(
        "exp_service: {clients} clients x {requests_per_client} requests, {unique_instances} instances x {} solvers, {} workers (smoke={smoke})",
        solvers.len(),
        cfg.workers
    );

    // The request pool: every (instance, solver) pair, pre-serialised
    // so client threads spend their time on the wire, not in serde.
    let instances: Vec<Instance> = gen_batch(
        &SimConfig {
            regions,
            h_frags: frags,
            m_frags: frags,
            loss_rate: 0.15,
            shuffles: 2,
            spurious: 3,
            seed,
            ..SimConfig::default()
        },
        unique_instances,
    )
    .into_iter()
    .map(|s| s.instance)
    .collect();
    let bodies: Vec<String> = instances
        .iter()
        .flat_map(|inst| {
            let inst_json = serde_json::to_string(inst).expect("instance serialises");
            solvers
                .iter()
                .map(move |solver| format!("{{\"instance\":{inst_json},\"solver\":\"{solver}\"}}"))
        })
        .collect();

    let server = Server::start(cfg.clone()).expect("server starts");
    let addr = server.addr();

    // Each client draws its request sequence from the shared pool
    // with its own seeded stream — repeat-heavy by construction
    // (requests ≫ pool size), deterministic by seed.
    let run_start = Instant::now();
    let per_client: Vec<(Vec<u64>, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let bodies = &bodies;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed + c as u64);
                    let mut hits = Vec::new();
                    let mut misses = Vec::new();
                    for _ in 0..requests_per_client {
                        let body = &bodies[rng.random_range(0..bodies.len())];
                        let t0 = Instant::now();
                        let resp = client::request(
                            addr,
                            "POST",
                            "/v1/solve",
                            Some(body),
                            Duration::from_secs(60),
                        )
                        .expect("solve answers");
                        let micros = t0.elapsed().as_micros() as u64;
                        assert_eq!(resp.status, 200, "{}", resp.body);
                        match resp.header("x-fragalign-cache") {
                            Some("hit") => hits.push(micros),
                            Some("miss") => misses.push(micros),
                            other => panic!("missing cache marker: {other:?}"),
                        }
                    }
                    (hits, misses)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_secs = run_start.elapsed().as_secs_f64();

    let mut hit_micros = Vec::new();
    let mut miss_micros = Vec::new();
    for (hits, misses) in per_client {
        hit_micros.extend(hits);
        miss_micros.extend(misses);
    }
    let requests = hit_micros.len() + miss_micros.len();
    let cache_hit_rate = hit_micros.len() as f64 / requests as f64;
    let all = Latency::from_micros(
        hit_micros
            .iter()
            .chain(&miss_micros)
            .copied()
            .collect::<Vec<_>>(),
    );
    let hits = Latency::from_micros(hit_micros);
    let misses = Latency::from_micros(miss_micros);
    let hit_speedup_mean = misses.mean_ms / hits.mean_ms.max(1e-9);
    let hit_speedup_p50 = misses.p50_ms / hits.p50_ms.max(1e-9);

    // Phase 2: connection-discipline comparison on a fully warm cache
    // (every pool body was solved above), one client, identical
    // request sequence per arm, so the only variable is how many
    // sockets the requests ride on. The close arm pays a fresh
    // connect + teardown per request; keep-alive pays one; pipelining
    // additionally overlaps request writes with response reads.
    let arm_requests = if smoke { 60 } else { 600 };
    let probe: Vec<&String> = (0..arm_requests)
        .map(|i| &bodies[i % bodies.len()])
        .collect();
    for body in bodies.iter() {
        // Ensure genuinely warm: the random phase may have missed some.
        let resp = client::post(addr, "/v1/solve", body).expect("warm-up solve");
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let mut reference_bodies: Vec<String> = Vec::new();
    let close_arm = run_arm("close", arm_requests, || {
        for body in &probe {
            let resp = client::post(addr, "/v1/solve", body).expect("close-arm solve");
            assert_eq!(resp.status, 200, "{}", resp.body);
            reference_bodies.push(resp.body);
        }
        reference_bodies.len()
    });
    let keepalive_arm = run_arm("keep-alive", arm_requests, || {
        let mut conn = client::Connection::open(addr).expect("keep-alive connect");
        let mut answered = 0;
        for (body, expected) in probe.iter().zip(&reference_bodies) {
            let resp = conn
                .request("POST", "/v1/solve", Some(body))
                .expect("keep-alive solve");
            assert_eq!(resp.status, 200, "{}", resp.body);
            assert_eq!(
                &resp.body, expected,
                "keep-alive response diverged from close-mode response"
            );
            answered += 1;
        }
        answered
    });
    let pipelined_arm = run_arm("pipelined", arm_requests, || {
        let mut conn = client::Connection::open(addr).expect("pipelined connect");
        let mut answered = 0;
        for batch in probe.chunks(8) {
            for body in batch {
                conn.send("POST", "/v1/solve", Some(body))
                    .expect("pipelined send");
            }
            for i in 0..batch.len() {
                let resp = conn.recv().expect("pipelined recv");
                assert_eq!(resp.status, 200, "{}", resp.body);
                assert_eq!(
                    &resp.body,
                    &reference_bodies[answered + i],
                    "pipelined response out of order or diverged"
                );
            }
            answered += batch.len();
        }
        answered
    });
    let keepalive_speedup = keepalive_arm.requests_per_sec / close_arm.requests_per_sec.max(1e-9);
    let pipelined_speedup = pipelined_arm.requests_per_sec / close_arm.requests_per_sec.max(1e-9);
    let connection_arms = vec![close_arm, keepalive_arm, pipelined_arm];

    let state = server.state();
    let server_metrics = state.metrics();
    server.shutdown();
    assert!(
        state.telemetry.get(Stat::KeepaliveReuse) > 0,
        "the persistent arms must register keep-alive reuse"
    );

    assert!(
        state.telemetry.get(Stat::Rejected503) == 0,
        "load generator outran its own queue depth"
    );
    assert!(
        cache_hit_rate > 0.0 && hits.count > 0 && misses.count > 0,
        "the workload must exercise both cache paths"
    );

    let report = Report {
        config: Config {
            clients,
            requests_per_client,
            unique_instances,
            solvers: solvers.iter().map(|s| s.to_string()).collect(),
            regions,
            frags,
            workers: cfg.workers,
            queue_depth: cfg.queue_depth,
            cache_mb: cfg.cache_mb,
            seed,
            smoke,
        },
        requests,
        wall_secs,
        requests_per_sec: requests as f64 / wall_secs.max(1e-9),
        cache_hit_rate,
        all,
        hits,
        misses,
        hit_speedup_mean,
        hit_speedup_p50,
        connection_arms,
        keepalive_speedup,
        pipelined_speedup,
        server_metrics,
    };

    println!(
        "throughput: {} requests in {:.3}s = {:.0} req/s ({} workers)",
        report.requests, report.wall_secs, report.requests_per_sec, report.config.workers
    );
    println!(
        "latency: p50 {:.3} ms, p99 {:.3} ms over all requests",
        report.all.p50_ms, report.all.p99_ms
    );
    println!(
        "cache: {:.1}% hit rate; hit mean {:.3} ms vs miss mean {:.3} ms = {:.1}x ({:.1}x at p50)",
        100.0 * report.cache_hit_rate,
        report.hits.mean_ms,
        report.misses.mean_ms,
        report.hit_speedup_mean,
        report.hit_speedup_p50
    );

    for arm in &report.connection_arms {
        println!(
            "connection arm {:>10}: {} requests in {:.3}s = {:.0} req/s",
            arm.mode, arm.requests, arm.wall_secs, arm.requests_per_sec
        );
    }
    println!(
        "persistent connections: keep-alive {:.1}x, pipelined {:.1}x over close-per-request",
        report.keepalive_speedup, report.pipelined_speedup
    );

    if !smoke {
        // The acceptance bars. Smoke runs (CI) skip the asserts: tiny
        // instances make misses cheap and shared runners make timing
        // noisy, and the smoke run's job is to prove the harness, not
        // the ratios.
        assert!(
            report.hit_speedup_mean >= 5.0,
            "cache hits must be ≥5x faster than misses (got {:.2}x)",
            report.hit_speedup_mean
        );
        assert!(
            report.keepalive_speedup >= 2.0,
            "keep-alive must be ≥2x close-per-request on a hot cache (got {:.2}x)",
            report.keepalive_speedup
        );
    }

    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_service.json", json).expect("write BENCH_service.json");
    println!("wrote BENCH_service.json");
}
