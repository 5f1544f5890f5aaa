//! The solve entry point and the batch pipeline over it.
//!
//! [`solve_single_traced`] is the one way to run a registered solver
//! on one instance: it resolves the name in the [`SolverRegistry`],
//! checks [`Solver::supports`](crate::engine::Solver::supports), lends
//! the caller's warm [`DpWorkspace`] to the run's oracle, and returns
//! the solution with its [`SolveReport`].
//!
//! The simulator (and any real scaffolding service) produces many
//! small instances at once; solving them one at a time leaves workers
//! idle and re-allocates DP buffers per score. [`solve_batch_reports`]
//! resolves the solver name once, then maps the instances over the
//! rayon pool with one warm [`DpWorkspace`] per worker (`map_init`)
//! and one *shared-nothing* solve context per instance — no cache
//! line is shared between instances, so results are deterministic
//! regardless of thread count and identical to per-instance
//! sequential solves. Any registered solver batches, including
//! `one-csr`, `exact`, and `portfolio`.

use crate::engine::{
    EngineError, EngineOptions, SolveCtx, SolveReport, SolverRegistry, TraceHandle,
};
use fragalign_align::DpWorkspace;
use fragalign_model::{Instance, MatchSet, Score};
use rayon::prelude::*;
use std::time::Instant;

/// Options for a batch run: which registered solver, plus the engine
/// knobs every solve shares.
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// Registered solver name (see [`SolverRegistry::names`]).
    pub solver: String,
    /// Engine knobs (scaling, pool width).
    pub engine: EngineOptions,
}

impl BatchOptions {
    /// Options for the named solver with engine defaults (unscaled,
    /// ambient pool).
    pub fn new(solver: impl Into<String>) -> Self {
        BatchOptions {
            solver: solver.into(),
            engine: EngineOptions::default(),
        }
    }
}

impl Default for BatchOptions {
    /// CSR_Improve, engine defaults.
    fn default() -> Self {
        BatchOptions::new("csr")
    }
}

/// One solved instance of a batch.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchSolution {
    /// The consistent match set the solver returned.
    pub matches: MatchSet,
    /// Its total score.
    pub score: Score,
}

/// Run the registered solver `opts.solver` on `inst`, recording
/// phase/racer spans through `trace` (the CLI's `--trace` flag and the
/// service's `?trace=1` debug knob route through here).
///
/// The caller-owned workspace seeds the run's oracle pool and comes
/// back warmer; it is scratch only. Every oracle-driven solver borrows
/// it (`csr`/`full`/`border`, `four`, `greedy`, `matching`, `one-csr`,
/// `chain`); `exact` runs oracle-free and `portfolio` racers pool their
/// own workspaces, so for those two it is inert. When
/// [`EngineOptions::threads`] is non-zero the solve executes on a
/// dedicated pool of that width. Neither the workspace, the pool width
/// nor the trace handle changes the result or the report's counters
/// (bar `wall_secs` and `dp_reallocs`).
pub fn solve_single_traced(
    inst: &Instance,
    opts: &BatchOptions,
    ws: &mut DpWorkspace,
    trace: TraceHandle,
) -> Result<(BatchSolution, SolveReport), EngineError> {
    let spec = SolverRegistry::global().spec(&opts.solver)?;
    let solver = spec.build();
    let engine = opts.engine;
    solver
        .supports(inst, &engine)
        .map_err(|reason| EngineError::Unsupported {
            solver: spec.name,
            reason,
        })?;
    let mut ctx = SolveCtx::new(inst, engine);
    ctx.oracle.set_trace(trace);
    ctx.oracle.adopt_workspace(std::mem::take(ws));
    let mut solve_span = ctx.oracle.trace().span_labeled("solve", spec.name);
    let start = Instant::now();
    let out = if engine.threads > 0 {
        let solver = &solver;
        let ctx = &mut ctx;
        fragalign_par::with_threads(engine.threads, move || solver.solve(inst, ctx)).0
    } else {
        solver.solve(inst, &mut ctx)
    };
    let wall_secs = start.elapsed().as_secs_f64();
    let score = out.matches.total_score();
    solve_span.set_args(score, out.attempts as i64);
    drop(solve_span);
    *ws = ctx.oracle.reclaim_workspace();
    let stats = ctx.oracle.stats.snapshot();
    let report = SolveReport {
        solver: spec.name.to_owned(),
        score,
        matches: out.matches.len(),
        rounds: out.rounds,
        attempts: out.attempts,
        evaluated: out.evaluated,
        dp_fills: stats.dp_fills,
        dp_reallocs: stats.dp_reallocs,
        table_misses: stats.table_misses,
        pair_misses: stats.pair_misses,
        wall_secs,
        winner: out.winner.map(str::to_owned),
        cancelled: out.cancelled,
        racers: out.racers,
        routed_by: out.routed_by.map(str::to_owned),
    };
    let solution = BatchSolution {
        matches: out.matches,
        score,
    };
    Ok((solution, report))
}

/// Solve every instance of a batch on the current rayon pool, keeping
/// each instance's telemetry record.
///
/// Results come back in input order; each instance gets its own solve
/// context (shared-nothing) and each worker keeps one warm workspace
/// for the instances it happens to process, so the output is
/// byte-identical for 1 worker, N workers, or a plain sequential loop
/// of [`solve_single_traced`]. Fails fast on an unknown solver name;
/// an instance a solver cannot handle (e.g. `one-csr` on a multi-M
/// instance) surfaces as the first per-instance error.
pub fn solve_batch_reports(
    instances: &[Instance],
    opts: &BatchOptions,
) -> Result<Vec<(BatchSolution, SolveReport)>, EngineError> {
    // Resolve once so an unknown name fails before any work runs.
    SolverRegistry::global().spec(&opts.solver)?;
    let mut opts = opts.clone();
    // A thread request applies to the whole batch: install one pool
    // here and strip the knob from the per-instance options so each
    // solve does not rebuild it. Nested parallelism (a parallel solver
    // inside the parallel batch) runs inline on its worker either way.
    let threads = std::mem::take(&mut opts.engine.threads);
    let run = move || {
        instances
            .par_iter()
            .map_init(DpWorkspace::new, |ws, inst| {
                solve_single_traced(inst, &opts, ws, TraceHandle::disabled())
            })
            .collect()
    };
    if threads > 0 {
        fragalign_par::with_threads(threads, run).0
    } else {
        run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragalign_model::check_consistency;
    use fragalign_model::instance::paper_example;

    fn solve(inst: &Instance, name: &str) -> Result<(BatchSolution, SolveReport), EngineError> {
        let mut ws = DpWorkspace::new();
        solve_single_traced(
            inst,
            &BatchOptions::new(name),
            &mut ws,
            TraceHandle::disabled(),
        )
    }

    fn batch(insts: &[Instance], name: &str) -> Result<Vec<BatchSolution>, EngineError> {
        let runs = solve_batch_reports(insts, &BatchOptions::new(name))?;
        Ok(runs.into_iter().map(|(solution, _)| solution).collect())
    }

    #[test]
    fn solve_reports_telemetry() {
        let (solution, report) = solve(&paper_example(), "csr").expect("csr runs everywhere");
        assert_eq!(solution.score, 11);
        assert_eq!(report.solver, "csr");
        assert_eq!(report.score, 11);
        assert_eq!(report.matches, solution.matches.len());
        assert!(report.rounds > 0);
        assert!(report.attempts > 0);
        assert!((1..=report.attempts).contains(&report.evaluated));
        assert!(report.dp_fills > 0);
        assert!(report.wall_secs >= 0.0);
        assert!(report.winner.is_none());
    }

    #[test]
    fn unknown_solver_fails_before_solving() {
        let insts = [paper_example()];
        let err = batch(&insts, "simulated-annealing").unwrap_err();
        assert!(matches!(err, EngineError::UnknownSolver { .. }));
        let err = solve(&insts[0], "simulated-annealing").unwrap_err();
        assert!(matches!(err, EngineError::UnknownSolver { .. }));
    }

    #[test]
    fn batch_matches_individual_solves() {
        let insts: Vec<Instance> = (0..3).map(|_| paper_example()).collect();
        for name in ["csr", "four", "greedy", "portfolio"] {
            let runs = solve_batch_reports(&insts, &BatchOptions::new(name)).unwrap();
            assert_eq!(runs.len(), 3);
            for (inst, (sol, report)) in insts.iter().zip(&runs) {
                check_consistency(inst, &sol.matches).unwrap();
                let (single, single_report) = solve(inst, name).unwrap();
                assert_eq!(sol, &single, "{name}");
                assert_eq!(report.attempts, single_report.attempts, "{name}");
                assert_eq!(report.dp_fills, single_report.dp_fills, "{name}");
            }
        }
        // The improvement family reaches the paper optimum.
        let csr = batch(&insts, "csr").unwrap();
        assert!(csr.iter().all(|s| s.score == 11));
    }

    #[test]
    fn unsupported_instances_surface_as_errors() {
        let insts = [paper_example()]; // two M fragments
        let err = batch(&insts, "one-csr").unwrap_err();
        assert!(matches!(err, EngineError::Unsupported { .. }));
    }

    #[test]
    fn unsupported_solvers_error_cleanly() {
        let inst = paper_example(); // two M fragments
        let err = solve(&inst, "one-csr").unwrap_err();
        assert!(matches!(
            err,
            EngineError::Unsupported {
                solver: "one-csr",
                ..
            }
        ));
        assert!(err.to_string().contains("one M fragment"));
    }

    #[test]
    fn empty_batch_is_fine() {
        let out = solve_batch_reports(&[], &BatchOptions::default()).unwrap();
        assert!(out.is_empty());
    }
}
