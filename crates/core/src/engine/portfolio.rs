//! The racing portfolio meta-solver.
//!
//! Strategy choice is instance-dependent (Allali et al., "Chaining
//! fragments in sequences: to sweep or not"): on dense instances the
//! improvement family wins, on disjoint full-fragment instances the
//! matching 2-approximation already ties it at a fraction of the
//! cost, and greedy occasionally lucks out. The portfolio races the
//! registered solvers flagged `in_portfolio` over the rayon pool — and
//! now that the pool runs real threads, the race is genuine:
//!
//! * every racer runs under its own [`CancelToken`], and a shared
//!   best-score board implements **bound cancellation**: when a racer
//!   finishes at the instance's provable score upper bound
//!   ([`Instance::score_upper_bound`] — the greedy assignment
//!   relaxation over σ, much tighter than the old min-mass × σ_max
//!   bound on heterogeneous tables, so racers retire earlier and the
//!   `racers[]` telemetry shows more `outraced` entries), every racer
//!   at a later race position is cancelled — it could at best tie,
//!   and ties lose to the earlier position, so killing it can never
//!   change the winner;
//! * cancelled improvement racers return their best-so-far consistent
//!   result (the loop is anytime), which still competes and loses to
//!   the earlier racer that reached the bound.
//!
//! Dispatch order is no longer blind registry order: the shape
//! [`Router`] (fitted offline by `exp_router`, see `engine::router`)
//! sends its per-instance pick to the pool first, so the solver the
//! data says fits this shape starts earliest and — when it reaches
//! the bound — retires the rest with the least wasted work. Dispatch
//! is *all* routing changes: retirement and winner selection both key
//! on registry position (best score over the possibly-partial
//! results, ties to the earliest registry entry — never to whichever
//! thread finished first), so the winner is identical for every
//! routing table and equal to running every member to completion
//! sequentially in registry order.

use super::solvers::preempted;
use super::{
    CancelToken, RacerReport, Router, SolveCtx, SolveOutcome, Solver, SolverRegistry, SolverSpec,
};
use fragalign_align::OracleStatsSnapshot;
use fragalign_model::{Instance, MatchSet, Score};
use rayon::prelude::*;
use std::time::Instant;

/// One raced member: its registry spec and the solver built once at
/// portfolio construction (so [`Portfolio::supports`] probes without
/// allocating).
struct Member {
    spec: &'static SolverSpec,
    solver: Box<dyn Solver>,
}

/// Meta-solver racing a set of registered solvers and returning the
/// best-scoring result (ties: the lowest registry position).
pub struct Portfolio {
    /// Members sorted by registry position.
    members: Vec<Member>,
    /// The shape router whose per-instance pick is dispatched to the
    /// pool first. Routing only reorders dispatch — never retirement
    /// or tie-breaks — so the winner is routing-table-independent.
    router: Router,
}

impl Portfolio {
    /// The default racer set: every registry entry flagged
    /// `in_portfolio` (the exhaustive solver and the portfolio itself
    /// are excluded).
    pub fn new() -> Self {
        Portfolio {
            members: SolverRegistry::global()
                .specs()
                .iter()
                .filter(|spec| spec.in_portfolio)
                .map(|spec| Member {
                    spec,
                    solver: spec.build(),
                })
                .collect(),
            router: Router::default(),
        }
    }
}

impl Default for Portfolio {
    fn default() -> Self {
        Portfolio::new()
    }
}

/// The shared race board: the instance's provable optimum plus every
/// racer's token. When a completion reaches the bound, all later
/// racers are retired. (Winner selection itself needs no shared state
/// — it runs over the ordered results after the race.)
struct Board<'t> {
    upper_bound: Score,
    tokens: &'t [CancelToken],
}

impl Board<'_> {
    /// Record that racer `idx` completed with `score`; retire racers
    /// that can no longer win. Sound at any interleaving: a racer is
    /// only cancelled when its best possible outcome is a tie it
    /// would lose on registry order.
    fn complete(&self, idx: usize, score: Score) {
        if score >= self.upper_bound {
            for token in &self.tokens[idx + 1..] {
                token.cancel();
            }
        }
    }
}

impl Solver for Portfolio {
    fn supports(&self, inst: &Instance) -> Result<(), String> {
        // Members were built at construction, so probing is
        // allocation-free (a hot path for the serving layer, which
        // checks applicability per request).
        for member in &self.members {
            if member.solver.supports(inst).is_ok() {
                return Ok(());
            }
        }
        Err("no portfolio member supports this instance".to_owned())
    }

    fn solve(&self, inst: &Instance, ctx: &mut SolveCtx<'_>) -> SolveOutcome {
        if ctx.cancel.is_cancelled() {
            return preempted();
        }
        let opts = ctx.opts;
        // Racers that can run here, in registry order; each gets its
        // own shared-nothing context so no cache line crosses racers.
        let racers: Vec<&Member> = self
            .members
            .iter()
            .filter(|m| m.solver.supports(inst).is_ok())
            .collect();
        if racers.is_empty() {
            // supports() rejects instances no member can run, so this
            // only guards direct Solver-trait use.
            return SolveOutcome::from_matches(MatchSet::new());
        }
        // The shape router's pick is *dispatched* first: on a loaded
        // pool it starts earliest, so the solver the data says fits
        // this shape finishes soonest and (if it hits the bound)
        // retires the rest with the least wasted work. Dispatch order
        // is all it changes — retirement and winner ties both key on
        // registry position below, so the result is identical for
        // every routing table (and equal to a sequential
        // registry-order race).
        let (routed, rule, feats) = self.router.route_explain(inst, &opts);
        let trace = ctx.oracle.trace().clone();
        trace.instant(
            "route_features",
            rule,
            feats.total_regions() as i64,
            feats.sigma_entries as i64,
        );
        trace.instant("routed", routed, 0, 0);
        let routed_by = racers
            .iter()
            .any(|m| m.spec.name == routed)
            .then_some(routed);
        let mut order: Vec<usize> = (0..racers.len()).collect();
        if let Some(p) = racers.iter().position(|m| m.spec.name == routed) {
            order.remove(p);
            order.insert(0, p);
        }
        let tokens: Vec<CancelToken> = racers.iter().map(|_| CancelToken::new()).collect();
        let board = Board {
            upper_bound: inst.score_upper_bound(),
            tokens: &tokens,
        };
        let board = &board;
        let tokens_ref = &tokens;
        let racers_ref = &racers;
        let dispatched: Vec<_> = order
            .par_iter()
            .map(move |&idx| {
                let member = racers_ref[idx];
                // Each racer gets its own timeline lane (track 0 is the
                // engine): a portfolio Chrome trace renders as parallel
                // racer rows with spawn → retire/finish visible per lane.
                let rt = trace.with_track(idx as u16 + 1);
                rt.instant("spawn", member.spec.name, idx as i64, 0);
                let mut racer_span = rt.span_labeled("racer", member.spec.name);
                let t0 = Instant::now();
                let mut sub = SolveCtx::new(inst, opts);
                sub.cancel = tokens_ref[idx].clone();
                sub.oracle.set_trace(rt.clone());
                let out = member.solver.solve(inst, &mut sub);
                let wall = t0.elapsed().as_secs_f64();
                let score = out.matches.total_score();
                // Only the board cancels a racer's token, so a cancelled
                // racer was outraced.
                if out.cancelled {
                    rt.instant("cancel", "outraced", score, 0);
                } else {
                    board.complete(idx, score);
                    if score >= board.upper_bound {
                        // The marker that explains later racers' "outraced"
                        // cancels: this racer hit the provable bound (a0 =
                        // score, a1 = bound).
                        rt.instant("bound_retire", member.spec.name, score, board.upper_bound);
                    }
                }
                racer_span.set_args(score, out.attempts as i64);
                drop(racer_span);
                (out, sub.oracle.stats.snapshot(), wall)
            })
            .collect();
        // Dispatch order was the router's; winner selection runs in
        // registry order, so put the results back.
        let mut slots: Vec<Option<_>> = (0..racers.len()).map(|_| None).collect();
        for (idx, run) in order.into_iter().zip(dispatched) {
            slots[idx] = Some(run);
        }
        let runs: Vec<_> = slots
            .into_iter()
            .map(|s| s.expect("every racer ran"))
            .collect();

        let mut best: Option<(usize, SolveOutcome, OracleStatsSnapshot)> = None;
        let mut reports = Vec::with_capacity(runs.len());
        for (idx, (out, stats, wall)) in runs.into_iter().enumerate() {
            reports.push(RacerReport {
                name: racers[idx].spec.name.to_owned(),
                score: out.matches.total_score(),
                cancelled: out.cancelled.then(|| "outraced".to_owned()),
                rounds: out.rounds,
                attempts: out.attempts,
                wall_secs: wall,
            });
            // Cancelled racers still compete with their best-so-far
            // partial result (anytime semantics); strict comparison
            // keeps ties with the earliest racer.
            let better = match &best {
                None => true,
                Some((_, b, _)) => out.matches.total_score() > b.matches.total_score(),
            };
            if better {
                best = Some((idx, out, stats));
            }
        }
        let (idx, out, stats) = best.expect("at least one racer ran");
        // The report carries the winner's counters only. A racer
        // retired as `outraced` stops at a timing-dependent point, so
        // summing partial work would make the report depend on the
        // pool; the partials stay in `racers`.
        ctx.oracle.stats.absorb(&stats);
        SolveOutcome {
            winner: Some(racers[idx].spec.name),
            rounds: out.rounds,
            attempts: out.attempts,
            evaluated: out.evaluated,
            cancelled: out.cancelled,
            racers: reports,
            matches: out.matches,
            routed_by,
        }
    }
}
