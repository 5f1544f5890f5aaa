//! The solver engine layer: one object-safe interface, one registry,
//! one telemetry shape for every CSR solver.
//!
//! The paper presents a *family* of algorithms for the same instances
//! — greedy, the factor-4 algorithm (Theorem 3), the 1-CSR/ISP
//! reduction (§3.4), the three §4 improvement variants, the Border
//! matching 2-approximation (Lemma 9), and the exhaustive optimum.
//! Before this module, the CLI and the batch pipeline each hard-coded
//! their own dispatch over a subset of them. Now:
//!
//! * [`Solver`] is the uniform interface: `solve(inst, &mut SolveCtx)`
//!   with an injected memoising [`ScoreOracle`] (which owns the
//!   pooled [`DpWorkspace`](fragalign_align::DpWorkspace)s) and the
//!   run options;
//! * [`SolverRegistry`] is the single source of truth mapping names to
//!   solver factories plus paper metadata — the CLI, the batch loop,
//!   the router experiment, and the README table all read it;
//! * [`solve_single_traced`](crate::solve_single_traced) is the one way
//!   to run a registered solver on one instance (and
//!   [`solve_batch_reports`](crate::solve_batch_reports) the one batch
//!   path over it);
//! * [`SolveReport`] is the uniform telemetry record every run emits:
//!   score, rounds, attempts, DP fill/realloc counts pulled from the
//!   oracle stats, and wall time;
//! * [`Portfolio`] is a meta-solver racing the portfolio-flagged solvers
//!   in parallel and keeping the best-scoring result, with ties broken
//!   by registry order so the outcome never depends on thread timing.

mod portfolio;
mod registry;
mod router;
mod solvers;

pub use crate::cancel::CancelToken;
pub use fragalign_obs::{TraceHandle, TraceLog, TraceSink};
pub use portfolio::Portfolio;
pub use registry::{SolverRegistry, SolverSpec};
pub use router::{Auto, InstanceFeatures, Router, RouterRule};

use fragalign_align::ScoreOracle;
use fragalign_model::{Instance, MatchSet, Score};
use serde::Serialize;

/// Knobs shared by every engine run. The default is unscaled on the
/// ambient pool.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineOptions {
    /// Enable the §4.1 scaling step (improvement solvers only).
    pub scaling: bool,
    /// Rayon pool width for this run: the solve executes on a
    /// dedicated pool of this many threads. `0` (default) runs on the
    /// ambient pool (the global one, or whatever `install` pinned).
    /// Results are bit-identical either way — this knob trades wall
    /// clock only.
    pub threads: usize,
}

/// Per-run context injected into [`Solver::solve`]: the memoising
/// score oracle (whose internal pool holds the warm DP workspaces) and
/// the run options. One context per instance per run — contexts are
/// never shared between instances, so batch results stay deterministic
/// regardless of thread count.
pub struct SolveCtx<'a> {
    /// Shared-per-run memoising score oracle over the instance. It
    /// also carries the run's span sink for phase/racer timelines
    /// ([`ScoreOracle::trace`]), disabled (one branch per span site,
    /// no clock reads) unless [`ScoreOracle::set_trace`] was called.
    /// Tracing is observational only — results are bit-identical
    /// with it on or off (test-enforced).
    pub oracle: ScoreOracle<'a>,
    /// The options of this run.
    pub opts: EngineOptions,
    /// The run's stop signal; solvers poll it at round boundaries and
    /// return their best-so-far (consistent) result when it trips.
    pub cancel: CancelToken,
}

impl<'a> SolveCtx<'a> {
    /// A fresh context for `inst` (empty caches, empty workspace pool,
    /// never cancelled; set [`SolveCtx::cancel`] for a live token).
    pub fn new(inst: &'a Instance, opts: EngineOptions) -> Self {
        SolveCtx {
            oracle: ScoreOracle::new(inst),
            opts,
            cancel: CancelToken::never(),
        }
    }

    /// The instance this context solves.
    pub fn instance(&self) -> &'a Instance {
        self.oracle.instance()
    }
}

/// What a solver hands back: the consistent match set plus whatever
/// work counters the algorithm naturally tracks (zero where a solver
/// has no notion of rounds or attempts).
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// The consistent match set.
    pub matches: MatchSet,
    /// Committed improvement rounds (improvement family; 0 elsewhere).
    pub rounds: usize,
    /// Candidate attempts enumerated (improvement family; the winner's
    /// for the portfolio, whose racers' partial counts stay in
    /// `racers`; 0 elsewhere).
    pub attempts: usize,
    /// Attempts whose TPA refills ran, the rest being skipped on their
    /// gain bound (improvement family; the winner's for the portfolio;
    /// 0 elsewhere).
    pub evaluated: usize,
    /// The racer that produced `matches` (portfolio only).
    pub winner: Option<&'static str>,
    /// Whether the run stopped early on its [`CancelToken`]; the match
    /// set is then the solver's best-so-far (still consistent).
    pub cancelled: bool,
    /// Per-racer telemetry (portfolio only; empty elsewhere).
    pub racers: Vec<RacerReport>,
    /// The solver the shape router picked (`auto` runs and routed
    /// portfolio races only; `None` elsewhere).
    pub routed_by: Option<&'static str>,
}

impl SolveOutcome {
    /// An outcome carrying only a match set.
    pub fn from_matches(matches: MatchSet) -> Self {
        SolveOutcome {
            matches,
            rounds: 0,
            attempts: 0,
            evaluated: 0,
            winner: None,
            cancelled: false,
            racers: Vec::new(),
            routed_by: None,
        }
    }
}

/// The uniform solver interface. Implementations must be deterministic
/// (identical results for any thread count) and return a consistent
/// match set; the context's oracle is scratch plus memoisation only
/// and never changes results.
pub trait Solver: Send + Sync {
    /// `Err(reason)` when this solver cannot run on `inst` — the
    /// 1-CSR reduction needs a single M fragment, the exhaustive
    /// solver refuses oversized instances.
    /// [`solve_single_traced`](crate::solve_single_traced) turns a
    /// failure into [`EngineError::Unsupported`]; the portfolio skips
    /// the racer.
    fn supports(&self, _inst: &Instance) -> Result<(), String> {
        Ok(())
    }

    /// Solve `inst` through the injected context.
    fn solve(&self, inst: &Instance, ctx: &mut SolveCtx<'_>) -> SolveOutcome;
}

/// Uniform telemetry for one engine run, serialisable for
/// `fragalign solve --report json` and the service's `/v1/solve` and
/// `/v1/batch` responses.
#[derive(Clone, Debug, Serialize)]
pub struct SolveReport {
    /// Registered solver name.
    pub solver: String,
    /// Total score of the returned match set.
    pub score: Score,
    /// Number of matches returned.
    pub matches: usize,
    /// Committed improvement rounds (0 for one-shot solvers).
    pub rounds: usize,
    /// Attempts enumerated (improvement family; the winner's for the
    /// portfolio, whose racers' partial counts stay in `racers`; 0 for
    /// one-shot solvers).
    pub attempts: usize,
    /// Attempts whose TPA refills ran; the rest of `attempts` were
    /// skipped on their gain bound (improvement family; the winner's
    /// for the portfolio; 0 for one-shot solvers).
    pub evaluated: usize,
    /// DP fills served through the run's oracle(s), nested oracles
    /// included (the winner's oracle for the portfolio).
    pub dp_fills: u64,
    /// Workspace buffer growth events — the allocations proxy.
    pub dp_reallocs: u64,
    /// Interval tables computed.
    pub table_misses: u64,
    /// Border tables computed (one per fragment pair), plus
    /// free-orientation site-pair scores (`ScoreOracle::ms` calls).
    pub pair_misses: u64,
    /// Wall-clock seconds of the solve call.
    pub wall_secs: f64,
    /// The racer that won (portfolio runs only).
    pub winner: Option<String>,
    /// Whether the run stopped early on its cancellation token (the
    /// result is then the solver's best-so-far).
    pub cancelled: bool,
    /// Per-racer telemetry (portfolio runs only; empty elsewhere).
    pub racers: Vec<RacerReport>,
    /// The solver the shape router picked: the delegate on `auto`
    /// runs, the first-dispatched member on routed portfolio races
    /// (`null` elsewhere).
    pub routed_by: Option<String>,
}

/// One portfolio racer's slice of a [`SolveReport`]: what it scored,
/// whether it was retired, and how long it ran. Bound retirements land
/// here, making the race observable.
#[derive(Clone, Debug, Serialize)]
pub struct RacerReport {
    /// Registered solver name of the racer.
    pub name: String,
    /// Score of the racer's (possibly partial) result.
    pub score: Score,
    /// `None` when the racer ran to completion; `"outraced"` when the
    /// race board retired it because an earlier racer reached the
    /// instance's score bound.
    pub cancelled: Option<String>,
    /// Committed improvement rounds inside this racer (0 for one-shot
    /// racers).
    pub rounds: usize,
    /// Candidate attempts the racer enumerated (0 for one-shot racers).
    pub attempts: usize,
    /// Wall-clock seconds the racer ran.
    pub wall_secs: f64,
}

/// Why the engine refused to run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// No registered solver has the requested name.
    UnknownSolver {
        /// The name that failed to resolve.
        name: String,
        /// Every registered name, in registry order.
        known: Vec<&'static str>,
        /// The registered name closest to the typo, when one is close
        /// enough to be a plausible intent (edit distance ≤ 2).
        suggestion: Option<&'static str>,
    },
    /// The solver exists but cannot run on this instance.
    Unsupported {
        /// The registered solver name.
        solver: &'static str,
        /// The solver's own explanation.
        reason: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownSolver {
                name,
                known,
                suggestion,
            } => {
                write!(
                    f,
                    "unknown solver '{name}' (registered: {})",
                    known.join("|")
                )?;
                match suggestion {
                    Some(s) => write!(f, " — did you mean '{s}'?"),
                    None => Ok(()),
                }
            }
            EngineError::Unsupported { solver, reason } => {
                write!(f, "solver '{solver}' cannot run here: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}
