//! [`Solver`] adapters for every algorithm the paper presents. Each
//! adapter calls its algorithm's one function with the context's
//! oracle, so the pooled workspaces (and memoised scores) serve the
//! whole run — and each is bit-identical to calling that function on
//! a fresh oracle (`tests/engine_registry.rs` proves it).

use super::{EngineOptions, SolveCtx, SolveOutcome, Solver};
use crate::{ExactLimits, ImproveConfig, MethodSet};
use fragalign_model::{Instance, MatchSet};

/// A pre-empted run: the token tripped before the solver started, so
/// the outcome is the empty (consistent) match set flagged as
/// cancelled. One-shot solvers and the portfolio are entry-checked
/// only; the improvement family also polls between rounds.
pub(super) fn preempted() -> SolveOutcome {
    SolveOutcome {
        cancelled: true,
        ..SolveOutcome::from_matches(MatchSet::new())
    }
}

/// The §4 iterative-improvement family; the method set picks the
/// variant (Full_Improve, Border_Improve, CSR_Improve).
pub struct Improve(pub MethodSet);

impl Solver for Improve {
    fn solve(&self, _inst: &Instance, ctx: &mut SolveCtx<'_>) -> SolveOutcome {
        let result = crate::improve::improve(
            &ctx.oracle,
            ImproveConfig {
                methods: self.0,
                scaling: ctx.opts.scaling,
                ..Default::default()
            },
            MatchSet::new(),
            &ctx.cancel,
        );
        SolveOutcome {
            matches: result.matches,
            rounds: result.rounds,
            attempts: result.attempts,
            evaluated: result.evaluated,
            winner: None,
            cancelled: result.cancelled,
            racers: Vec::new(),
            routed_by: None,
        }
    }
}

/// The Corollary 1 factor-4 algorithm.
pub struct FourApprox;

impl Solver for FourApprox {
    fn solve(&self, _inst: &Instance, ctx: &mut SolveCtx<'_>) -> SolveOutcome {
        if ctx.cancel.is_cancelled() {
            return preempted();
        }
        let _sp = ctx.oracle.trace().span_labeled("phase", "factor4");
        SolveOutcome::from_matches(crate::solve_four_approx(&ctx.oracle))
    }
}

/// The greedy baseline the introduction warns about.
pub struct Greedy;

impl Solver for Greedy {
    fn solve(&self, _inst: &Instance, ctx: &mut SolveCtx<'_>) -> SolveOutcome {
        if ctx.cancel.is_cancelled() {
            return preempted();
        }
        let _sp = ctx.oracle.trace().span_labeled("phase", "greedy");
        SolveOutcome::from_matches(crate::solve_greedy(&ctx.oracle))
    }
}

/// The Lemma 9 Border-CSR 2-approximation via bipartite matching.
pub struct BorderMatching;

impl Solver for BorderMatching {
    fn solve(&self, _inst: &Instance, ctx: &mut SolveCtx<'_>) -> SolveOutcome {
        if ctx.cancel.is_cancelled() {
            return preempted();
        }
        let _sp = ctx.oracle.trace().span_labeled("phase", "border-matching");
        SolveOutcome::from_matches(crate::border_matching_2approx(&ctx.oracle))
    }
}

/// The §3.4 1-CSR → ISP reduction solved with TPA (ratio 2). Only
/// instances with exactly one M fragment qualify.
pub struct OneCsr;

impl Solver for OneCsr {
    fn supports(&self, inst: &Instance, _opts: &EngineOptions) -> Result<(), String> {
        if inst.m.len() == 1 {
            Ok(())
        } else {
            Err(format!(
                "1-CSR needs exactly one M fragment (instance has {})",
                inst.m.len()
            ))
        }
    }

    fn solve(&self, _inst: &Instance, ctx: &mut SolveCtx<'_>) -> SolveOutcome {
        if ctx.cancel.is_cancelled() {
            return preempted();
        }
        let _sp = ctx.oracle.trace().span_labeled("phase", "one-csr");
        SolveOutcome::from_matches(crate::solve_one_csr(&ctx.oracle))
    }
}

/// The anchor-chaining tier: minimizer anchors chained by LIS, DP
/// only inside each chained window. This is the tier that *accepts*
/// what `exact` rejects — `supports()` stays unconditional so
/// genome-scale instances route here.
pub struct Chain;

impl Solver for Chain {
    fn solve(&self, _inst: &Instance, ctx: &mut SolveCtx<'_>) -> SolveOutcome {
        if ctx.cancel.is_cancelled() {
            return preempted();
        }
        SolveOutcome::from_matches(fragalign_align::solve_chain(&ctx.oracle))
    }
}

/// The exhaustive optimum, materialised as a match set (Definition 2
/// over the winning arrangements). Guarded by the default
/// [`ExactLimits`].
pub struct Exact;

impl Solver for Exact {
    fn supports(&self, inst: &Instance, _opts: &EngineOptions) -> Result<(), String> {
        ExactLimits::default().check(inst)
    }

    fn solve(&self, inst: &Instance, ctx: &mut SolveCtx<'_>) -> SolveOutcome {
        if ctx.cancel.is_cancelled() {
            return preempted();
        }
        let _sp = ctx.oracle.trace().span_labeled("phase", "exact-search");
        let sol = crate::solve_exact(inst, ExactLimits::default());
        SolveOutcome::from_matches(crate::exact::exact_matches(inst, &sol))
    }
}
