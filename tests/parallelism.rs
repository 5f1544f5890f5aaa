//! The parallel substrate's contract, end to end: a cancelled token
//! pre-empts every solver, the portfolio genuinely races — racers the
//! score bound retires are observable in `SolveReport.racers` as
//! `outraced` while the winner stays the sequential baseline's, and
//! its report carries the winner's counters — and results and report
//! counters are bit-identical across real 1/2/8-thread pools.

use fragalign::align::DpWorkspace;
use fragalign::model::Instance;
use fragalign::par::with_threads;
use fragalign::prelude::*;
use serde::Value;

/// An instance whose provable score upper bound is achievable: two
/// perfectly matching two-region fragments, uniform score 5, so
/// `score_upper_bound() == 10` and a full-fragment match reaches it.
fn saturating_instance() -> Instance {
    let mut b = InstanceBuilder::new();
    b.h_frag("h", &["a", "b"]);
    b.m_frag("m", &["p", "q"]);
    b.score("a", "p", 5);
    b.score("b", "q", 5);
    b.build()
}

/// The seed-77 sim instances `tests/service.rs` serves.
fn service_instances() -> Vec<Instance> {
    gen_batch(
        &SimConfig {
            regions: 12,
            h_frags: 3,
            m_frags: 3,
            loss_rate: 0.15,
            shuffles: 2,
            spurious: 3,
            seed: 77,
            ..SimConfig::default()
        },
        8,
    )
    .into_iter()
    .map(|s| s.instance)
    .collect()
}

/// One registered solve through the engine's single entry point.
fn solve(
    name: &str,
    inst: &Instance,
    engine: EngineOptions,
) -> Result<(BatchSolution, SolveReport), EngineError> {
    let opts = BatchOptions {
        solver: name.to_owned(),
        engine,
    };
    solve_single_traced(
        inst,
        &opts,
        &mut DpWorkspace::new(),
        TraceHandle::disabled(),
    )
}

/// [`solve`] with default options, for solvers that must run here.
fn solve_ok(name: &str, inst: &Instance) -> (BatchSolution, SolveReport) {
    solve(name, inst, EngineOptions::default()).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Run the registered solver `name` directly under `cancel`.
fn solve_under(name: &str, inst: &Instance, cancel: CancelToken) -> SolveOutcome {
    let solver = SolverRegistry::global()
        .spec(name)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .build();
    let mut ctx = SolveCtx::new(inst, EngineOptions::default());
    ctx.cancel = cancel;
    solver.solve(inst, &mut ctx)
}

/// Every report field that must repeat at any pool width: all but
/// `wall_secs`, `dp_reallocs` (which warm workspace served a fill) and
/// `racers` (how far a retired racer got).
fn counters(report: &SolveReport) -> Vec<(String, Value)> {
    let Value::Object(fields) = serde_json::to_value(report).expect("reports serialise") else {
        panic!("a report serialises to an object");
    };
    fields
        .into_iter()
        .filter(|(field, _)| !["wall_secs", "dp_reallocs", "racers"].contains(&field.as_str()))
        .collect()
}

#[test]
fn cancelled_token_preempts_every_solver() {
    let inst = fragalign::model::instance::paper_example();
    let names: Vec<&str> = SolverRegistry::global()
        .specs()
        .iter()
        .filter(|spec| spec.build().supports(&inst).is_ok())
        .map(|spec| spec.name)
        .collect();
    assert!(
        names.contains(&"portfolio") && names.contains(&"auto"),
        "the meta-solvers must be covered: {names:?}"
    );
    for name in names {
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = solve_under(name, &inst, cancel);
        assert!(out.cancelled, "{name} must observe the cancelled token");
        assert!(out.matches.is_empty(), "{name} must not have started");
    }
}

#[test]
fn portfolio_bound_cancellation_retires_unwinnable_racers() {
    // `csr` (registry position 0) reaches the provable upper bound, so
    // every later racer can at best tie — and ties lose to the earlier
    // position. The board must retire them; on a 1-thread pool the
    // race is sequential in registry order, so every later member is
    // deterministically outraced.
    let inst = saturating_instance();
    assert_eq!(inst.score_upper_bound(), 10);
    let (run, report) = with_threads(1, || solve_ok("portfolio", &inst)).0;
    assert_eq!(run.score, 10, "the bound is achievable here");
    assert_eq!(report.winner.as_deref(), Some("csr"));
    let outraced: Vec<&str> = report
        .racers
        .iter()
        .filter(|r| r.cancelled.as_deref() == Some("outraced"))
        .map(|r| r.name.as_str())
        .collect();
    assert!(
        !outraced.is_empty(),
        "bound cancellation must retire at least one racer: {:?}",
        report.racers
    );
    // The winner itself ran to completion.
    let winner = report
        .racers
        .iter()
        .find(|r| r.name == "csr")
        .expect("csr raced");
    assert!(winner.cancelled.is_none());

    // At any pool width the winner and score stay put (which racers
    // happened to finish before the bound landed may vary — that is
    // telemetry, not results).
    let (wide, wide_report) = with_threads(8, || solve_ok("portfolio", &inst)).0;
    assert_eq!(wide.score, 10);
    assert_eq!(wide_report.winner.as_deref(), Some("csr"));
    assert_eq!(wide.matches, run.matches);
    // The report counts the winner's work only, so the outraced
    // racers' timing-dependent partials cannot leak into it.
    assert_eq!(counters(&wide_report), counters(&report));

    // The board is the only thing that cancels a racer, so `outraced`
    // is the only cause either run reports. It retires a racer only
    // after an earlier one reached the bound, so the winner is never
    // a retired racer and neither run is cancelled.
    for report in [&report, &wide_report] {
        assert!(!report.cancelled);
        for racer in &report.racers {
            assert!(
                matches!(racer.cancelled.as_deref(), None | Some("outraced")),
                "{}: unexpected cancel cause {:?}",
                racer.name,
                racer.cancelled
            );
        }
    }
}

#[test]
fn engine_threads_option_is_result_invariant() {
    // `EngineOptions::threads` must be a wall-clock knob only: every
    // registered solver returns the same match set and the same report
    // counters at every width, and so does a batch.
    let instances = service_instances();
    let opts_at = |threads: usize| EngineOptions {
        threads,
        ..EngineOptions::default()
    };
    for spec in SolverRegistry::global().specs() {
        for (i, inst) in instances.iter().enumerate() {
            let at = |threads: usize| {
                solve(spec.name, inst, opts_at(threads))
                    .map(|(solution, report)| (solution, counters(&report)))
            };
            let base = at(1);
            for threads in [2, 8] {
                assert_eq!(
                    base,
                    at(threads),
                    "{} on instance {i}: threads={threads} diverged from threads=1",
                    spec.name
                );
            }
        }
    }
    let batch_with = |threads: usize| {
        let mut opts = BatchOptions::new("csr");
        opts.engine.threads = threads;
        solve_batch_reports(&instances, &opts)
            .unwrap()
            .into_iter()
            .map(|(solution, _)| solution)
            .collect::<Vec<_>>()
    };
    let batch_base = batch_with(0);
    for t in [1, 2, 8] {
        assert_eq!(batch_base, batch_with(t), "threads={t} changed the batch");
    }
}

#[test]
fn portfolio_reports_its_winners_counters() {
    // The portfolio's report is its winner's: the same score, matches
    // and work counters as a standalone run of the winning solver, at
    // any pool width. The racers' own (possibly partial) counts stay
    // in `racers`.
    for (i, inst) in service_instances().iter().enumerate() {
        for threads in [1, 2] {
            let engine = EngineOptions {
                threads,
                ..EngineOptions::default()
            };
            let (race, report) = solve("portfolio", inst, engine).unwrap();
            let winner = report.winner.clone().expect("the portfolio names a winner");
            let (alone, alone_report) = solve(&winner, inst, engine).unwrap();
            let work = |r: &SolveReport| {
                (
                    r.score,
                    r.rounds,
                    r.attempts,
                    r.evaluated,
                    r.dp_fills,
                    r.table_misses,
                    r.pair_misses,
                    r.cancelled,
                )
            };
            assert_eq!(race, alone, "instance {i} threads={threads}: {winner}");
            assert_eq!(
                work(&report),
                work(&alone_report),
                "instance {i} threads={threads}: portfolio counters are not {winner}'s"
            );
        }
    }
}
