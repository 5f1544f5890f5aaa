//! The observability layer's contracts, enforced end to end:
//!
//! * **Inertness** — attaching a trace sink (at any thread count)
//!   never changes a solver's match set or report counters; tracing
//!   is read-only on results by construction and by test.
//! * **Racer timelines** — a portfolio solve's trace shows every
//!   racer's spawn → racer-span lifecycle on its own track, with
//!   bound values on retirement, so "why did this racer lose" is
//!   answerable from the trace alone.
//! * **Schema stability** — the Chrome trace-event rendering and the
//!   Prometheus text exposition are golden-pinned (`BLESS=1`
//!   re-blesses) so exporters downstream can rely on field order.
//! * **Counter parity** — every counter of the `/metrics` JSON
//!   document has a Prometheus rendering; adding a telemetry field
//!   without exporting it both ways fails here.

use fragalign::obs::{EventKind, TraceEvent, TraceHandle, TraceLog, TraceSink};
use fragalign::prelude::*;
use fragalign::serve::{CacheStats, Telemetry};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A small simulator instance every solver handles quickly, varied by
/// seed.
fn sim(seed: u64) -> Instance {
    generate(&SimConfig {
        regions: 10,
        h_frags: 3,
        m_frags: 3,
        loss_rate: 0.1,
        shuffles: 2,
        spurious: 1,
        seed,
        ..SimConfig::default()
    })
    .instance
}

/// A finished solve: the solution and its telemetry.
struct Run {
    matches: MatchSet,
    score: Score,
    report: SolveReport,
}

fn solve_with(solver: &str, inst: &Instance, threads: usize, trace: TraceHandle) -> Run {
    let opts = BatchOptions {
        solver: solver.to_owned(),
        engine: EngineOptions {
            threads,
            ..EngineOptions::default()
        },
    };
    let mut ws = DpWorkspace::new();
    let (solution, report) =
        solve_single_traced(inst, &opts, &mut ws, trace).expect("workload solves");
    Run {
        matches: solution.matches,
        score: solution.score,
        report,
    }
}

/// The report fields that are deterministic at every thread width —
/// everything except wall time, the per-racer list (timing-dependent
/// for the portfolio), and the oracle cache statistics.
fn counters(run: &Run) -> (String, Score, usize, usize, usize, bool) {
    let r = &run.report;
    (
        r.solver.clone(),
        r.score,
        r.matches,
        r.rounds,
        r.attempts,
        r.cancelled,
    )
}

/// The oracle cache statistics. Deterministic only at sequential
/// widths: under a parallel pool, which worker-local cache misses a
/// pair first depends on scheduling (duplicate misses across workers),
/// with or without tracing.
fn cache_counters(run: &Run) -> (u64, u64, u64, u64) {
    let r = &run.report;
    (r.dp_fills, r.dp_reallocs, r.table_misses, r.pair_misses)
}

proptest! {
    // Every case runs each solver five ways; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Enabling a sink never changes the match set or any
    /// deterministic report counter, at any thread count. The traced
    /// run is compared against an untraced run *at the same width*.
    /// Oracle cache statistics (fills, misses, pool growth) are only
    /// compared at sequential widths: under a parallel pool they are
    /// scheduling-dependent run to run, with or without tracing.
    #[test]
    fn tracing_is_inert_on_results(seed in 0u64..5_000) {
        let inst = sim(seed);
        for solver in ["greedy", "four", "matching", "chain", "csr", "auto"] {
            let reference = solve_with(solver, &inst, 0, TraceHandle::disabled());
            for threads in [0usize, 1, 8] {
                let untraced = solve_with(solver, &inst, threads, TraceHandle::disabled());
                let sink = TraceSink::new();
                let traced = solve_with(solver, &inst, threads, TraceHandle::new(Arc::clone(&sink)));
                prop_assert_eq!(
                    &traced.matches, &untraced.matches,
                    "{} threads={}", solver, threads
                );
                prop_assert_eq!(
                    counters(&traced), counters(&untraced),
                    "{} threads={}", solver, threads
                );
                if threads == 1 {
                    prop_assert_eq!(
                        cache_counters(&traced), cache_counters(&untraced),
                        "{} threads={} cache stats", solver, threads
                    );
                }
                prop_assert_eq!(
                    &traced.matches, &reference.matches,
                    "{} threads={} vs width-0 reference", solver, threads
                );
                prop_assert!(
                    sink.drain().emitted > 0,
                    "{}: an enabled sink must record spans", solver
                );
            }
        }
    }
}

/// The portfolio is inert under tracing on everything it promises to
/// be deterministic about (matches, score, winner), and its trace
/// shows each racer's full spawn → racer-span timeline on a dedicated
/// track, with the retirement bound recorded.
#[test]
fn portfolio_trace_shows_every_racer_timeline() {
    let inst = sim(42);
    let baseline = solve_with("portfolio", &inst, 0, TraceHandle::disabled());
    let sink = TraceSink::new();
    let run = solve_with("portfolio", &inst, 0, TraceHandle::new(Arc::clone(&sink)));
    assert_eq!(run.matches, baseline.matches);
    assert_eq!(run.score, baseline.score);
    assert_eq!(run.report.winner, baseline.report.winner);

    let log = sink.drain();
    assert_eq!(log.dropped, 0, "small solve must not overflow the ring");
    assert!(!run.report.racers.is_empty());
    for (i, racer) in run.report.racers.iter().enumerate() {
        let track = (i + 1) as u16;
        let spawned = log.events.iter().any(|e| {
            e.name == "spawn"
                && e.track == track
                && e.label == racer.name
                && matches!(e.kind, EventKind::Instant)
        });
        assert!(spawned, "racer {} ({}) has no spawn instant", i, racer.name);
        let span = log
            .events
            .iter()
            .find(|e| e.name == "racer" && e.track == track && matches!(e.kind, EventKind::Span));
        let span = span.unwrap_or_else(|| panic!("racer {} ({}) has no span", i, racer.name));
        assert_eq!(span.label, racer.name);
        // The span's a0 arg carries the racer's final score.
        if racer.cancelled.is_none() {
            assert!(span.a0 <= run.score, "no racer outscores the winner");
        }
    }
    // Every cancelled racer's cause is on its track.
    for (i, racer) in run.report.racers.iter().enumerate() {
        if let Some(cause) = &racer.cancelled {
            let noted = log.events.iter().any(|e| {
                e.name == "cancel" && e.track == (i + 1) as u16 && e.label == cause.as_str()
            });
            assert!(noted, "racer {} cancelled by {cause} but not traced", i);
        }
    }
    // The Chrome rendering puts each racer on its own tid.
    let json = log.to_chrome_json();
    assert!(json.contains("\"tid\":1"), "{json}");
    assert!(json.contains("\"name\":\"racer:"), "{json}");
}

/// On an instance whose provable score upper bound is achievable, the
/// racer that reaches it emits a `bound_retire` instant carrying the
/// bound value, and later-position racers record their cancellation.
#[test]
fn bound_retirement_appears_in_the_trace_with_its_value() {
    let inst = generate_degenerate(DegenerateShape::AllSingletons, 6, 0).instance;
    let bound = inst.score_upper_bound();
    let sink = TraceSink::new();
    let run = solve_with("portfolio", &inst, 0, TraceHandle::new(Arc::clone(&sink)));
    assert_eq!(run.score, bound, "the singleton shape achieves its bound");
    let log = sink.drain();
    let retired: Vec<_> = log
        .events
        .iter()
        .filter(|e| e.name == "bound_retire")
        .collect();
    assert!(!retired.is_empty(), "no bound retirement recorded");
    for e in &retired {
        assert_eq!(e.a0, run.score, "retirement instant carries the score");
        assert_eq!(e.a1, bound, "retirement instant carries the bound");
        assert!(e.track >= 1, "retirement happens on a racer track");
    }
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&path, actual).expect("bless golden");
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} (run with BLESS=1): {e}", path.display()));
    assert_eq!(actual, golden, "{name} drifted from snapshot");
}

/// The Chrome trace-event schema, pinned on a synthetic log: field
/// order, µs timestamps normalised to the earliest event, args only
/// when non-zero, instants as `ph:"i"`, and the emitted/dropped tail.
#[test]
fn chrome_trace_schema_is_pinned() {
    let ev = |t0_ns, dur_ns, name, label, track, kind, a0, a1| TraceEvent {
        t0_ns,
        dur_ns,
        name,
        label,
        track,
        kind,
        a0,
        a1,
    };
    let log = TraceLog {
        events: vec![
            ev(5_000, 1_234_567, "solve", "csr", 0, EventKind::Span, 11, 40),
            ev(7_500, 0, "spawn", "greedy", 1, EventKind::Instant, 0, 0),
            ev(8_000, 900_001, "racer", "greedy", 1, EventKind::Span, 9, 12),
            ev(
                910_000,
                0,
                "bound_retire",
                "greedy",
                1,
                EventKind::Instant,
                9,
                9,
            ),
        ],
        emitted: 4,
        dropped: 2,
    };
    assert_golden("trace_chrome.json", &log.to_chrome_json());
}

/// A deterministic [`CacheStats`] for exposition tests.
fn cache_stats() -> CacheStats {
    CacheStats {
        hits: 5,
        misses: 7,
        evictions: 2,
        entries: 3,
        bytes: 4096,
        byte_budget: 1 << 20,
        shards: 16,
        hit_rate: 5.0 / 12.0,
    }
}

/// A telemetry set with one deterministic observation in every
/// histogram and counter.
fn seeded_telemetry() -> Telemetry {
    let t = Telemetry::new();
    t.record_response(200);
    t.record_response(200);
    t.record_response(400);
    t.record_rejected();
    t.record_unknown_solver();
    t.record_batch();
    t.record_traced(3);
    t.record_solve(0);
    t.record_solve_latency(0, Duration::from_micros(1_500));
    t.record_latency(Duration::from_micros(2_500));
    t.record_queue_wait(Duration::from_micros(100));
    t.record_service(Duration::from_micros(2_400));
    t.note_conn_opened();
    t.note_conn_opened();
    t.note_conn_closed();
    t.record_keepalive_reuse();
    t.record_degraded();
    t.record_sampled();
    t
}

/// The Prometheus text exposition, pinned end to end (HELP/TYPE lines,
/// label sets, cumulative buckets, sums, counts). Only the uptime
/// gauge is nondeterministic; its sample is normalised to 0.
#[test]
fn prometheus_exposition_is_pinned() {
    let doc = seeded_telemetry().prometheus(4, 64, cache_stats());
    let normalized: String = doc
        .lines()
        .map(|line| {
            if line.starts_with("fragalign_uptime_seconds ") {
                "fragalign_uptime_seconds 0".to_string()
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    assert_golden("metrics_prometheus.txt", &normalized);
}

/// Every counter and gauge of the JSON `/metrics` document must also
/// appear in the Prometheus exposition (and vice versa via the golden
/// above). The key list is checked for coverage against the actual
/// JSON document, so adding a `MetricsSnapshot` field without a
/// Prometheus rendering — or without extending this mapping — fails.
#[test]
fn every_telemetry_counter_appears_in_both_exports() {
    let t = seeded_telemetry();
    let snap = t.snapshot(4, 64, cache_stats());
    let json = serde_json::to_string(&snap).expect("snapshot serialises");
    let prom = t.prometheus(4, 64, cache_stats());

    // JSON top-level key → Prometheus metric family.
    let mapping = [
        ("uptime_secs", "fragalign_uptime_seconds"),
        ("requests_total", "fragalign_requests_total"),
        ("rejected_503", "fragalign_rejected_503_total"),
        ("client_errors_4xx", "fragalign_client_errors_4xx_total"),
        (
            "unknown_solver_requests",
            "fragalign_unknown_solver_requests_total",
        ),
        ("batch_requests", "fragalign_batch_requests_total"),
        ("solve_requests", "fragalign_solve_requests_total"),
        ("latency", "fragalign_request_duration_seconds"),
        ("queue_wait", "fragalign_queue_wait_seconds"),
        ("service", "fragalign_service_seconds"),
        ("traced_requests", "fragalign_traced_requests_total"),
        (
            "trace_events_dropped",
            "fragalign_trace_events_dropped_total",
        ),
        ("sampled_traces", "fragalign_sampled_traces_total"),
        (
            "connections_accepted",
            "fragalign_connections_accepted_total",
        ),
        ("connections_open", "fragalign_connections_open"),
        ("keepalive_reuse", "fragalign_keepalive_reuse_total"),
        ("admission_degraded", "fragalign_admission_degraded_total"),
        ("queue", "fragalign_queue_depth"),
        ("cache", "fragalign_cache_hits_total"),
    ];
    for (jkey, pname) in mapping {
        assert!(
            json.contains(&format!("\"{jkey}\":")),
            "JSON document lost key {jkey:?}"
        );
        assert!(prom.contains(pname), "Prometheus export lost {pname}");
    }
    // Coverage: no JSON top-level field outside the mapping.
    let doc: serde::Value = serde_json::from_str(&json).expect("snapshot parses");
    let fields = doc.as_object().expect("snapshot is an object");
    for (key, _) in fields {
        assert!(
            mapping.iter().any(|(jkey, _)| jkey == key),
            "new MetricsSnapshot field {key:?} has no Prometheus mapping — \
             render it in Telemetry::prometheus and extend this test"
        );
    }
    // The queue/cache sub-objects' gauges are all rendered too.
    for pname in [
        "fragalign_queue_capacity",
        "fragalign_workers",
        "fragalign_busy_workers",
        "fragalign_cache_misses_total",
        "fragalign_cache_evictions_total",
        "fragalign_cache_entries",
        "fragalign_cache_bytes",
        "fragalign_solve_duration_seconds",
    ] {
        assert!(prom.contains(pname), "Prometheus export lost {pname}");
    }
}
