//! The parallel substrate's contract, end to end: cancellation stops
//! solvers at round boundaries (deterministically under work caps),
//! the portfolio genuinely races — budget- and bound-cancelled members
//! are observable in `SolveReport.racers` while the winner stays the
//! sequential baseline's, and its report carries the winner's counters
//! — and results and report counters are bit-identical across real
//! 1/2/8-thread pools.

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

fn solve_capped(name: &str, inst: &Instance, work_cap: u64) -> SolveOutcome {
    solve_under(name, inst, CancelToken::with_limits(None, Some(work_cap)))
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
fn work_capped_solves_stop_at_a_deterministic_round() {
    let inst = fragalign::model::instance::paper_example();
    // Cap 1: the first improvement round already charges more, so the
    // loop stops at the second round boundary with the round-1 state.
    let capped = solve_capped("csr", &inst, 1);
    assert!(capped.cancelled, "cap must interrupt the run");
    assert!(capped.rounds <= 1);
    check_consistency(&inst, &capped.matches).expect("partial result stays consistent");
    // Deterministic: the same cap lands on the same round, bit for bit.
    let again = solve_capped("csr", &inst, 1);
    assert_eq!(capped.matches, again.matches);
    assert_eq!(capped.rounds, again.rounds);
    // A generous cap never trips.
    let free = solve_capped("csr", &inst, u64::MAX);
    assert!(!free.cancelled);
    assert_eq!(free.matches.total_score(), 11);
}

#[test]
fn expired_deadline_preempts_any_solver() {
    let inst = fragalign::model::instance::paper_example();
    let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
    for name in ["csr", "four", "greedy", "matching", "exact"] {
        let out = solve_under(name, &inst, CancelToken::with_limits(Some(past), None));
        assert!(out.cancelled, "{name} must observe the deadline");
        assert!(out.matches.is_empty(), "{name} must not have started");
    }
}

#[test]
fn portfolio_budget_cancellation_is_observable_and_winner_stable() {
    let inst = fragalign::model::instance::paper_example();
    // Unbudgeted baseline: the winner every budgeted run must keep.
    let (baseline, baseline_report) = solve_ok("portfolio", &inst);
    assert_eq!(baseline_report.winner.as_deref(), Some("csr"));
    assert_eq!(baseline.score, 11);
    assert!(
        baseline_report.racers.len() > 1,
        "racer telemetry must cover the race"
    );

    // Tight work caps on `full` and `border` (they charge ~18 and ~10
    // attempts in round 1 on this instance); `csr` races unbudgeted.
    let config = PortfolioConfig {
        default_budget: RacerBudget::UNLIMITED,
        overrides: vec![
            (
                "full".to_owned(),
                RacerBudget {
                    wall: None,
                    work_cap: Some(10),
                },
            ),
            (
                "border".to_owned(),
                RacerBudget {
                    wall: None,
                    work_cap: Some(4),
                },
            ),
        ],
    };
    let portfolio =
        Portfolio::with_members_config(&["csr", "full", "border", "four", "greedy"], config)
            .unwrap();
    let mut ctx = SolveCtx::new(&inst, EngineOptions::default());
    let out = portfolio.solve(&inst, &mut ctx);

    let cancelled: Vec<&str> = out
        .racers
        .iter()
        .filter(|r| r.cancelled.is_some())
        .map(|r| r.name.as_str())
        .collect();
    assert!(
        cancelled.contains(&"full") && cancelled.contains(&"border"),
        "budgeted members must be cancelled early (got {cancelled:?})"
    );
    for racer in &out.racers {
        if racer.cancelled.is_some() {
            assert_eq!(
                racer.cancelled.as_deref(),
                Some("work-cap"),
                "{}: wrong cancel cause",
                racer.name
            );
        }
    }
    // The winner is unchanged from the sequential baseline: cancelled
    // members compete with their (lower-scoring) partials and lose.
    assert_eq!(out.winner, Some("csr"));
    assert_eq!(out.matches, baseline.matches);
    assert!(out.racers.iter().any(|r| r.cancelled.is_none()));
}

#[test]
fn portfolio_rejects_overrides_that_match_no_member() {
    // A budget SLA that silently never applies is worse than an
    // error: misspelled (or non-member) override names must fail at
    // construction.
    let config = PortfolioConfig {
        default_budget: RacerBudget::UNLIMITED,
        overrides: vec![(
            "boarder".to_owned(),
            RacerBudget {
                wall: None,
                work_cap: Some(1),
            },
        )],
    };
    let err = match Portfolio::with_members_config(&["csr", "border"], config.clone()) {
        Err(e) => e,
        Ok(_) => panic!("misspelled override must be rejected"),
    };
    assert!(matches!(err, EngineError::UnknownSolver { .. }));
    assert!(err.to_string().contains("did you mean 'border'?"), "{err}");
    // `exact` is registered but sits outside the default racer set, so
    // a full-config override for it must fail too.
    let exact_config = PortfolioConfig {
        default_budget: RacerBudget::UNLIMITED,
        overrides: vec![("exact".to_owned(), RacerBudget::UNLIMITED)],
    };
    assert!(Portfolio::with_config(exact_config).is_err());
    // Well-formed overrides still construct.
    assert!(Portfolio::with_members_config(&["csr", "border"], PortfolioConfig::default()).is_ok());
}

#[test]
fn portfolio_budget_race_is_bit_identical_across_pools() {
    // Work caps are charged at round boundaries, so the cancelled set,
    // every partial score, and the winner are thread-count-invariant.
    let inst = fragalign::model::instance::paper_example();
    let race = move || {
        let config = PortfolioConfig {
            default_budget: RacerBudget::UNLIMITED,
            overrides: vec![
                (
                    "full".to_owned(),
                    RacerBudget {
                        wall: None,
                        work_cap: Some(10),
                    },
                ),
                (
                    "border".to_owned(),
                    RacerBudget {
                        wall: None,
                        work_cap: Some(4),
                    },
                ),
            ],
        };
        let portfolio =
            Portfolio::with_members_config(&["csr", "full", "border", "greedy"], config).unwrap();
        let mut ctx = SolveCtx::new(&inst, EngineOptions::default());
        let out = portfolio.solve(&inst, &mut ctx);
        let racer_view: Vec<(String, i64, Option<String>)> = out
            .racers
            .iter()
            .map(|r| (r.name.clone(), r.score, r.cancelled.clone()))
            .collect();
        (out.matches, out.winner, racer_view)
    };
    let (one, _) = with_threads(1, &race);
    let (two, _) = with_threads(2, &race);
    let (eight, _) = with_threads(8, &race);
    assert_eq!(one, two, "2-thread race diverged");
    assert_eq!(one, eight, "8-thread race diverged");
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
    assert!(!report.cancelled);
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
