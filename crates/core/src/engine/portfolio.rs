//! The racing portfolio meta-solver.
//!
//! Strategy choice is instance-dependent (Allali et al., "Chaining
//! fragments in sequences: to sweep or not"): on dense instances the
//! improvement family wins, on disjoint full-fragment instances the
//! matching 2-approximation already ties it at a fraction of the
//! cost, and greedy occasionally lucks out. The portfolio races a
//! configurable set of registered solvers over the rayon pool — and
//! now that the pool runs real threads, the race is genuine:
//!
//! * every racer runs under its own child [`CancelToken`], carrying
//!   the configured per-member **budgets** — a wall-clock deadline
//!   (latency SLAs; timing-dependent by nature) and/or a **work cap**
//!   in improvement attempts (deterministic: a capped racer always
//!   stops at the same round on every machine and thread count);
//! * a shared best-score board implements **bound cancellation**:
//!   when a racer finishes at the instance's provable score upper
//!   bound ([`Instance::score_upper_bound`] — the greedy assignment
//!   relaxation over σ, much tighter than the old min-mass × σ_max
//!   bound on heterogeneous tables, so racers retire earlier and the
//!   `racers[]` telemetry shows more `outraced` entries), every racer
//!   at a later race position is cancelled — it could at best tie,
//!   and ties lose to the earlier position, so killing it can never
//!   change the winner;
//! * cancelled improvement racers return their best-so-far consistent
//!   result (the loop is anytime), which still competes: with
//!   work-cap budgets the whole race stays bit-deterministic.
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
//! sequentially in registry order when no budgets are configured.

use super::{
    CancelCause, CancelToken, EngineError, EngineOptions, RacerReport, Router, SolveCtx,
    SolveOutcome, Solver, SolverRegistry, SolverSpec,
};
use fragalign_align::OracleStatsSnapshot;
use fragalign_model::{Instance, MatchSet, Score};
use fragalign_par::par_map_ordered;
use std::time::{Duration, Instant};

/// Per-racer resource budgets.
#[derive(Clone, Copy, Debug, Default)]
pub struct RacerBudget {
    /// Wall-clock budget, measured from race start. Timing-dependent:
    /// use for latency SLAs, not for reproducible runs.
    pub wall: Option<Duration>,
    /// Work budget in improvement attempts (see
    /// [`CancelToken::charge`]). Deterministic: the racer stops at the
    /// same round on every machine and thread count.
    pub work_cap: Option<u64>,
}

impl RacerBudget {
    /// No limits.
    pub const UNLIMITED: RacerBudget = RacerBudget {
        wall: None,
        work_cap: None,
    };
}

/// Portfolio-wide racing policy.
#[derive(Clone, Debug, Default)]
pub struct PortfolioConfig {
    /// Budget applied to every member without an override.
    pub default_budget: RacerBudget,
    /// Per-member budget overrides, by registered name.
    pub overrides: Vec<(String, RacerBudget)>,
}

impl PortfolioConfig {
    fn budget_for(&self, name: &str) -> RacerBudget {
        self.overrides
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| *b)
            .unwrap_or(self.default_budget)
    }
}

/// One raced member: its registry spec, the solver built once at
/// portfolio construction (so [`Portfolio::supports`] probes without
/// allocating), and its budget.
struct Member {
    spec: &'static SolverSpec,
    solver: Box<dyn Solver>,
    budget: RacerBudget,
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
    /// are excluded), with no budgets.
    pub fn new() -> Self {
        Portfolio::with_config(PortfolioConfig::default())
            .expect("the default config has no overrides to mismatch")
    }

    /// The default racer set under an explicit racing policy. Every
    /// override must name a member, so a misspelled (or non-portfolio)
    /// name fails loudly instead of silently racing unbudgeted.
    pub fn with_config(config: PortfolioConfig) -> Result<Self, EngineError> {
        let members: Vec<Member> = SolverRegistry::global()
            .specs()
            .iter()
            .filter(|s| s.in_portfolio)
            .map(|spec| Member {
                spec,
                solver: spec.build(),
                budget: config.budget_for(spec.name),
            })
            .collect();
        Portfolio::check_overrides(&config, &members)?;
        Ok(Portfolio {
            members,
            router: Router::default(),
        })
    }

    /// Race a custom member set. Every name must be registered;
    /// duplicates collapse and members race in registry order
    /// regardless of argument order, so the tie-break stays the
    /// registry's, not the caller's.
    pub fn with_members(names: &[&str]) -> Result<Self, EngineError> {
        Portfolio::with_members_config(names, PortfolioConfig::default())
    }

    /// [`Portfolio::with_members`] under an explicit racing policy.
    pub fn with_members_config(
        names: &[&str],
        config: PortfolioConfig,
    ) -> Result<Self, EngineError> {
        let reg = SolverRegistry::global();
        let mut positions = Vec::with_capacity(names.len());
        for name in names {
            let pos = reg
                .position(name)
                .ok_or_else(|| EngineError::UnknownSolver {
                    name: (*name).to_owned(),
                    known: reg.names(),
                    suggestion: reg.suggest(name),
                })?;
            positions.push(pos);
        }
        positions.sort_unstable();
        positions.dedup();
        let members: Vec<Member> = positions
            .into_iter()
            .map(|p| {
                let spec = &reg.specs()[p];
                Member {
                    spec,
                    solver: spec.build(),
                    budget: config.budget_for(spec.name),
                }
            })
            .collect();
        Portfolio::check_overrides(&config, &members)?;
        Ok(Portfolio {
            members,
            router: Router::default(),
        })
    }

    /// Reject budget overrides that match no member: an SLA that
    /// silently fails to apply is worse than an error.
    fn check_overrides(config: &PortfolioConfig, members: &[Member]) -> Result<(), EngineError> {
        for (name, _) in &config.overrides {
            if !members.iter().any(|m| m.spec.name == name.as_str()) {
                return Err(EngineError::UnknownSolver {
                    name: name.clone(),
                    known: members.iter().map(|m| m.spec.name).collect(),
                    suggestion: SolverRegistry::global().suggest(name),
                });
            }
        }
        Ok(())
    }

    /// The member names, in race (registry) order.
    pub fn members(&self) -> Vec<&'static str> {
        self.members.iter().map(|m| m.spec.name).collect()
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
                token.cancel_with(CancelCause::Outraced);
            }
        }
    }
}

impl Solver for Portfolio {
    fn supports(&self, inst: &Instance, opts: &EngineOptions) -> Result<(), String> {
        // Members were built at construction, so probing is
        // allocation-free (a hot path for the serving layer, which
        // checks applicability per request).
        for member in &self.members {
            if member.solver.supports(inst, opts).is_ok() {
                return Ok(());
            }
        }
        Err("no portfolio member supports this instance".to_owned())
    }

    fn solve(&self, inst: &Instance, ctx: &mut SolveCtx<'_>) -> SolveOutcome {
        let opts = ctx.opts;
        // Racers that can run here, in registry order; each gets its
        // own shared-nothing context so no cache line crosses racers.
        let racers: Vec<&Member> = self
            .members
            .iter()
            .filter(|m| m.solver.supports(inst, &opts).is_ok())
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
        ctx.trace.instant(
            "route_features",
            rule,
            feats.total_regions() as i64,
            feats.sigma_entries as i64,
        );
        ctx.trace.instant("routed", routed, 0, 0);
        let routed_by = racers
            .iter()
            .any(|m| m.spec.name == routed)
            .then_some(routed);
        let mut order: Vec<usize> = (0..racers.len()).collect();
        if let Some(p) = racers.iter().position(|m| m.spec.name == routed) {
            order.remove(p);
            order.insert(0, p);
        }
        let start = Instant::now();
        let tokens: Vec<CancelToken> = racers
            .iter()
            .map(|m| {
                ctx.cancel
                    .child_with_limits(m.budget.wall.map(|w| start + w), m.budget.work_cap)
            })
            .collect();
        let board = Board {
            upper_bound: inst.score_upper_bound(),
            tokens: &tokens,
        };
        let board = &board;
        let tokens_ref = &tokens;
        let racers_ref = &racers;
        let trace = ctx.trace.clone();
        let dispatched = par_map_ordered(order.clone(), move |idx: usize| {
            let member = racers_ref[idx];
            // Each racer gets its own timeline lane (track 0 is the
            // engine): a portfolio Chrome trace renders as parallel
            // racer rows with spawn → retire/finish visible per lane.
            let rt = trace.with_track(idx as u16 + 1);
            rt.instant("spawn", member.spec.name, idx as i64, 0);
            let mut racer_span = rt.span_labeled("racer", member.spec.name);
            let t0 = Instant::now();
            let token = tokens_ref[idx].clone();
            let mut sub = SolveCtx::new(inst, opts);
            sub.cancel = token.clone();
            sub.set_trace(rt.clone());
            let out = member.solver.solve(inst, &mut sub);
            let wall = t0.elapsed().as_secs_f64();
            // Capture the cancel cause at the moment the racer exits:
            // reading it any later would let a post-exit event (a
            // deadline elapsing, say) overwrite why this run actually
            // stopped. A capped run is immune either way — the token
            // ranks its own work cap above a racing Outraced flag, so
            // that cause stays machine-independent.
            let cause = out
                .cancelled
                .then(|| token.cause().unwrap_or(CancelCause::Requested).name());
            let score = out.matches.total_score();
            if let Some(cause) = cause {
                rt.instant("cancel", cause, score, 0);
            }
            if !out.cancelled {
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
            (out, cause, sub.oracle.stats.snapshot(), wall)
        });
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
        for (idx, (out, cause, stats, wall)) in runs.into_iter().enumerate() {
            reports.push(RacerReport {
                name: racers[idx].spec.name.to_owned(),
                score: out.matches.total_score(),
                cancelled: cause.map(str::to_owned),
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
