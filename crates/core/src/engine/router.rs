//! The shape → solver router: cheap instance features, a transparent
//! decision list, and the `auto` meta-solver that delegates to the
//! routed choice.
//!
//! The portfolio races blind — every member burns CPU on every
//! instance. The router replaces that with a table fitted offline by
//! `exp_router` (crates/bench), which sweeps every registered solver
//! over the clean + adversarial grid (`BENCH_router.json`) and picks,
//! per shape cell, the best-scoring solver holding a ≥ 0.9 score
//! ratio against the certified reference (`exact` where its limits
//! admit the cell, the best-over-all-solvers score elsewhere) among
//! those inside the cell's wall window — `max(1.5x the fastest
//! qualifying solver, 5 ms per instance)`. Below the absolute budget
//! a solve is operationally free, so quality decides there and
//! microsecond jitter on tiny instances never flips the table; exact
//! score ties resolve to the earlier registry entry (stronger
//! guarantees beat equal measurements).
//!
//! ## Features ([`InstanceFeatures`])
//!
//! All O(fragments + σ entries), no DP:
//!
//! * `h_frags`, `m_frags` — fragment counts per species;
//! * `h_regions`, `m_regions` — total region counts per species;
//! * `max_frag_len` — the longest fragment either species carries;
//! * `sigma_entries` — explicit σ entries;
//! * `sigma_density` — entries over `h_regions · m_regions`;
//! * `mass_skew` — max positive σ entry over the mean positive entry
//!   (1.0 when σ is empty): near 1 means uniform mass, large means a
//!   few pairs dominate the score.
//!
//! ## Rules ([`RouterRule`])
//!
//! An ordered decision list: the first rule whose thresholds all hold
//! *and* whose solver [`Solver::supports`] the instance wins;
//! otherwise the fallback (`csr`) runs. The shipped table is
//! [`Router::default`]; `exp_router` re-derives it from data and
//! reports per-cell agreement, so drift between the shipped table and
//! fresh measurements is visible in `BENCH_router.json`.

use super::{EngineOptions, SolveCtx, SolveOutcome, Solver, SolverRegistry};
use fragalign_model::Instance;
use serde::Serialize;

/// Cheap shape features of one instance (see the module docs).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct InstanceFeatures {
    /// H fragment count.
    pub h_frags: usize,
    /// M fragment count.
    pub m_frags: usize,
    /// Total H regions.
    pub h_regions: usize,
    /// Total M regions.
    pub m_regions: usize,
    /// Longest fragment in either species.
    pub max_frag_len: usize,
    /// Explicit σ entries.
    pub sigma_entries: usize,
    /// `sigma_entries / (h_regions · m_regions)`; 0 when a side is
    /// empty.
    pub sigma_density: f64,
    /// Max positive σ entry over the mean positive entry (1.0 when no
    /// positive entries exist).
    pub mass_skew: f64,
}

impl InstanceFeatures {
    /// Extract features from `inst`.
    pub fn of(inst: &Instance) -> Self {
        let h_regions: usize = inst.h.iter().map(|f| f.len()).sum();
        let m_regions: usize = inst.m.iter().map(|f| f.len()).sum();
        let max_frag_len = inst
            .h
            .iter()
            .chain(inst.m.iter())
            .map(|f| f.len())
            .max()
            .unwrap_or(0);
        let sigma_entries = inst.sigma.len();
        let cells = (h_regions * m_regions) as f64;
        let sigma_density = if cells > 0.0 {
            sigma_entries as f64 / cells
        } else {
            0.0
        };
        let mut max_pos = 0i64;
        let mut sum_pos = 0i64;
        let mut n_pos = 0i64;
        for (_, _, _, s) in inst.sigma.iter() {
            if s > 0 {
                max_pos = max_pos.max(s);
                // Saturate: decoded instances bound each entry, not
                // their sum.
                sum_pos = sum_pos.saturating_add(s);
                n_pos += 1;
            }
        }
        let mass_skew = if n_pos > 0 {
            max_pos as f64 * n_pos as f64 / sum_pos as f64
        } else {
            1.0
        };
        InstanceFeatures {
            h_frags: inst.h.len(),
            m_frags: inst.m.len(),
            h_regions,
            m_regions,
            max_frag_len,
            sigma_entries,
            sigma_density,
            mass_skew,
        }
    }

    /// Total regions across both species (the router's main size
    /// axis).
    pub fn total_regions(&self) -> usize {
        self.h_regions + self.m_regions
    }
}

/// One threshold rule of the decision list. Every set bound must hold
/// for the rule to match; unset bounds are unconstrained.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct RouterRule {
    /// Human-readable shape label (shows up in `BENCH_router.json`).
    pub label: &'static str,
    /// Registered solver this rule routes to.
    pub solver: &'static str,
    /// Match only instances with exactly this many M fragments.
    pub m_frags_eq: Option<usize>,
    /// Match only instances with at least this many M fragments.
    pub min_m_frags: Option<usize>,
    /// Match only instances with at most this many total regions.
    pub max_total_regions: Option<usize>,
    /// Match only instances with at least this many total regions.
    pub min_total_regions: Option<usize>,
    /// Match only instances with at most this many σ entries.
    pub max_sigma_entries: Option<usize>,
}

impl RouterRule {
    /// A rule with no bounds set (matches everything) routing to
    /// `solver`.
    pub const fn any(label: &'static str, solver: &'static str) -> Self {
        RouterRule {
            label,
            solver,
            m_frags_eq: None,
            min_m_frags: None,
            max_total_regions: None,
            min_total_regions: None,
            max_sigma_entries: None,
        }
    }

    /// Whether every set bound holds for `f`.
    pub fn matches(&self, f: &InstanceFeatures) -> bool {
        let total = f.total_regions();
        self.m_frags_eq.is_none_or(|v| f.m_frags == v)
            && self.min_m_frags.is_none_or(|v| f.m_frags >= v)
            && self.max_total_regions.is_none_or(|v| total <= v)
            && self.min_total_regions.is_none_or(|v| total >= v)
            && self.max_sigma_entries.is_none_or(|v| f.sigma_entries <= v)
    }
}

/// The shape → solver decision list (see the module docs). The first
/// matching rule whose solver supports the instance wins; the
/// fallback runs otherwise.
#[derive(Clone, Debug)]
pub struct Router {
    rules: Vec<RouterRule>,
    fallback: &'static str,
}

impl Router {
    /// A router over an explicit rule list.
    pub fn new(rules: Vec<RouterRule>, fallback: &'static str) -> Self {
        Router { rules, fallback }
    }

    /// The rule list, in match order.
    pub fn rules(&self) -> &[RouterRule] {
        &self.rules
    }

    /// The fallback solver name.
    pub fn fallback(&self) -> &'static str {
        self.fallback
    }

    /// Route by features alone, ignoring solver applicability (used
    /// by `exp_router` to report the table's raw choice per cell).
    pub fn route_features(&self, f: &InstanceFeatures) -> &'static str {
        self.rules
            .iter()
            .find(|r| r.matches(f))
            .map(|r| r.solver)
            .unwrap_or(self.fallback)
    }

    /// Route `inst`: the first matching rule whose solver supports
    /// the instance; the fallback otherwise. The fallback (`csr` in
    /// the shipped table) supports every instance, so routing always
    /// succeeds. `opts` is unread: no solver's applicability depends
    /// on the run options, and the parameter stays only because the
    /// repository benchmark calls this function and
    /// [`Router::route_explain`] with it.
    pub fn route(&self, inst: &Instance, opts: &EngineOptions) -> &'static str {
        self.route_explain(inst, opts).0
    }

    /// [`Router::route`] plus the evidence: the matched rule's label
    /// (`"fallback"` when no rule fired) and the features the decision
    /// was made on. The trace layer emits these so a routed solve
    /// shows *why* it was routed, not just where. `_opts` is unread,
    /// as in [`Router::route`].
    pub fn route_explain(
        &self,
        inst: &Instance,
        _opts: &EngineOptions,
    ) -> (&'static str, &'static str, InstanceFeatures) {
        let f = InstanceFeatures::of(inst);
        let reg = SolverRegistry::global();
        for rule in &self.rules {
            if !rule.matches(&f) {
                continue;
            }
            if let Ok(spec) = reg.spec(rule.solver) {
                if spec.build().supports(inst).is_ok() {
                    return (rule.solver, rule.label, f);
                }
            }
        }
        (self.fallback, "fallback", f)
    }

    /// The cheap tier an overloaded server degrades `f` to: `chain`
    /// when there is sparse σ structure to anchor on (the
    /// anchor-chaining tier is near-linear and scores far above
    /// `greedy` once instances carry enough regions to chain), and
    /// `greedy` otherwise — both support every instance, so the pick
    /// never needs a fallback. This is a policy hook for the serving
    /// layer's admission control, deliberately next to the routing
    /// table so the "which solver under which conditions" knowledge
    /// stays in one file.
    pub fn degraded_pick(&self, f: &InstanceFeatures) -> &'static str {
        if f.sigma_entries > 0 && f.total_regions() >= 64 {
            "chain"
        } else {
            "greedy"
        }
    }
}

impl Default for Router {
    /// The learned table, fitted by `exp_router` over the clean +
    /// adversarial grid (see `BENCH_router.json` for the per-cell
    /// measurements behind each rule):
    ///
    /// 1. σ deserts (≤ 3 entries) route to `full`: there is almost
    ///    nothing to score, so the lighter improvement variant holds
    ///    0.92 of the optimum at half `csr`'s wall — which falls
    ///    outside the window on these cells;
    /// 2. single-M instances past trivial size route to `four`: on
    ///    the mega-fragment and large single-M cells it ties the best
    ///    sweep score at a tenth of `csr`'s wall (small single-M
    ///    instances fall through to the fallback — quality is free
    ///    there);
    /// 3. genome-scale instances route to `full`: `four`'s ratio
    ///    collapses to 0.81 at this size, while `full` holds 1.0 at
    ///    roughly half `csr`'s wall;
    /// 4. mid-size shredded instances (read-soup, heavily torn)
    ///    route to `four`: ≥ 0.97 of the best sweep score at 3–15x
    ///    less wall than the improvement family;
    /// 5. everything else — all small dense shapes — falls back to
    ///    `csr`: every solve is inside the free window there, so the
    ///    strongest-guarantee solver wins on quality.
    fn default() -> Self {
        Router::new(
            vec![
                RouterRule {
                    max_sigma_entries: Some(3),
                    ..RouterRule::any("sigma-desert", "full")
                },
                RouterRule {
                    m_frags_eq: Some(1),
                    min_total_regions: Some(40),
                    ..RouterRule::any("single-m-heavy", "four")
                },
                RouterRule {
                    min_total_regions: Some(150),
                    ..RouterRule::any("genome-scale", "full")
                },
                RouterRule {
                    min_total_regions: Some(55),
                    ..RouterRule::any("shredded", "four")
                },
            ],
            "csr",
        )
    }
}

/// The `auto` meta-solver: routes through [`Router::default`] and
/// delegates, stamping [`SolveOutcome::routed_by`] with the choice so
/// reports show which solver actually ran.
pub struct Auto {
    router: Router,
}

impl Auto {
    /// An `auto` solver over the shipped table.
    pub fn new() -> Self {
        Auto {
            router: Router::default(),
        }
    }

    /// The table this instance routes with.
    pub fn router(&self) -> &Router {
        &self.router
    }
}

impl Default for Auto {
    fn default() -> Self {
        Auto::new()
    }
}

impl Solver for Auto {
    fn solve(&self, inst: &Instance, ctx: &mut SolveCtx<'_>) -> SolveOutcome {
        let (choice, rule, feats) = self.router.route_explain(inst, &ctx.opts);
        // Two markers: the features the decision saw, and the matched
        // rule → solver. `args` carry the router's main size axes.
        let trace = ctx.oracle.trace();
        trace.instant(
            "route_features",
            rule,
            feats.total_regions() as i64,
            feats.sigma_entries as i64,
        );
        trace.instant("routed", choice, 0, 0);
        let spec = SolverRegistry::global()
            .spec(choice)
            .expect("router tables only name registered solvers");
        // Delegate through the same context: the oracle keeps its
        // memoised scores and pooled workspaces, cancellation
        // propagates, and the report's counters cover the delegate's
        // work.
        let mut out = spec.build().solve(inst, ctx);
        out.routed_by = Some(choice);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragalign_model::instance::paper_example;

    #[test]
    fn features_of_the_paper_example() {
        let f = InstanceFeatures::of(&paper_example());
        assert_eq!(f.h_frags, 2);
        assert_eq!(f.m_frags, 2);
        assert_eq!(f.total_regions(), f.h_regions + f.m_regions);
        assert!(f.sigma_entries > 0);
        assert!(f.sigma_density > 0.0);
        assert!(f.mass_skew >= 1.0);
    }

    #[test]
    fn default_table_routes_the_demo_to_csr() {
        // Small dense instances keep the quality solver; the pinned
        // portfolio winner in tests/engine_registry.rs relies on it.
        let inst = paper_example();
        let router = Router::default();
        assert_eq!(router.route(&inst, &EngineOptions::default()), "csr");
    }

    #[test]
    fn unsupported_rules_fall_through() {
        // A rule naming a solver that rejects the instance must not
        // capture it: the single-m rule only fires on single-M
        // instances by its own bound, but a synthetic table routing
        // everything to one-csr still falls through to the fallback
        // on a multi-M instance.
        let router = Router::new(vec![RouterRule::any("all", "one-csr")], "csr");
        let inst = paper_example(); // two M fragments
        assert_eq!(router.route(&inst, &EngineOptions::default()), "csr");
        // But route_features reports the raw table choice.
        assert_eq!(
            router.route_features(&InstanceFeatures::of(&inst)),
            "one-csr"
        );
    }

    #[test]
    fn degraded_pick_prefers_chain_on_big_sparse_instances() {
        let router = Router::default();
        let mut f = InstanceFeatures {
            h_frags: 6,
            m_frags: 6,
            h_regions: 60,
            m_regions: 60,
            max_frag_len: 12,
            sigma_entries: 200,
            sigma_density: 0.05,
            mass_skew: 1.5,
        };
        assert_eq!(router.degraded_pick(&f), "chain");
        // No σ entries: nothing to anchor a chain on.
        f.sigma_entries = 0;
        assert_eq!(router.degraded_pick(&f), "greedy");
        // Too small to be worth chaining.
        f.sigma_entries = 10;
        f.h_regions = 20;
        f.m_regions = 20;
        assert_eq!(router.degraded_pick(&f), "greedy");
        // Both tiers must stay registered — the admission layer
        // depends on them accepting every instance.
        for tier in ["chain", "greedy"] {
            assert!(SolverRegistry::global().spec(tier).is_ok());
        }
    }

    #[test]
    fn rule_bounds_all_apply() {
        let f = InstanceFeatures {
            h_frags: 3,
            m_frags: 5,
            h_regions: 30,
            m_regions: 28,
            max_frag_len: 12,
            sigma_entries: 25,
            sigma_density: 0.03,
            mass_skew: 1.2,
        };
        let mut rule = RouterRule::any("t", "csr");
        assert!(rule.matches(&f));
        rule.min_m_frags = Some(6);
        assert!(!rule.matches(&f));
        rule.min_m_frags = Some(5);
        assert!(rule.matches(&f));
        rule.max_total_regions = Some(57);
        assert!(!rule.matches(&f));
        rule.max_total_regions = Some(58);
        rule.max_sigma_entries = Some(24);
        assert!(!rule.matches(&f));
    }
}
