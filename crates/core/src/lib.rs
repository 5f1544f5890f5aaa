//! # fragalign-core
//!
//! The paper's contribution: solvers for the *Consensus Sequence
//! Reconstruction* (CSR) problem.
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`engine`] | solver trait + registry + telemetry + racing portfolio (infrastructure, not paper) |
//! | [`batch`] | the solve entry point and the multi-instance pipeline over it (infrastructure, not paper) |
//! | [`greedy`] | the greedy heuristic the introduction warns about |
//! | [`one_csr`] | 1-CSR → ISP reduction (§3.4) solved with TPA |
//! | [`four_approx`] | Theorem 3 + Corollary 1: the factor-4 algorithm |
//! | [`improve`] | §4: Full/Border/General iterative improvement, 3+ε |
//! | [`border_matching`] | Lemma 9: Border CSR 2-approx via matching |
//! | [`exact`] | exhaustive optimum for small instances (ratio measurements) |
//! | [`ucsr`] | Lemma 1 / Theorem 1: the UCSR reduction φ₀, φ₁ |
//! | [`csop`] | Theorem 2: CSoP and the 3-MIS hardness reduction |
//!
//! Each paper algorithm is one function taking the memoising
//! [`fragalign_align::ScoreOracle`]: [`solve_greedy`],
//! [`solve_one_csr`], [`solve_four_approx`], [`improve::improve`]
//! (with its presets [`full_improve`], [`border_improve`],
//! [`csr_improve`]) and [`border_matching_2approx`]; the chain tier's
//! [`fragalign_align::solve_chain`] has the same shape. A registered
//! solver runs through [`solve_single_traced`] (one instance) or
//! [`solve_batch_reports`] (many).
//!
//! All solvers return consistent [`fragalign_model::MatchSet`]s; every
//! solution can be turned into an explicit two-row layout with
//! [`fragalign_model::LayoutBuilder`] and the DP aligner.

pub mod batch;
pub mod border_matching;
pub mod cancel;
pub mod csop;
pub mod engine;
pub mod exact;
pub mod four_approx;
pub mod greedy;
pub mod improve;
pub mod one_csr;
pub mod stats;
pub mod ucsr;

/// The tracing layer, re-exported whole so downstream crates use
/// `fragalign_core::obs::{TraceSink, TraceHandle, ...}` without a
/// direct `fragalign-obs` dependency.
pub use fragalign_obs as obs;

pub use batch::{solve_batch_reports, solve_single_traced, BatchOptions, BatchSolution};
pub use border_matching::border_matching_2approx;
pub use cancel::{CancelCause, CancelToken};
pub use engine::{
    Auto, EngineError, EngineOptions, InstanceFeatures, Portfolio, PortfolioConfig, RacerBudget,
    RacerReport, Router, RouterRule, SolveCtx, SolveOutcome, SolveReport, Solver, SolverRegistry,
    SolverSpec, TraceHandle, TraceLog, TraceSink,
};
pub use exact::{exact_matches, solve_exact, ExactLimits};
pub use four_approx::solve_four_approx;
pub use greedy::solve_greedy;
pub use improve::{
    border_improve, csr_improve, full_improve, ImproveConfig, ImproveResult, MethodSet,
};
pub use one_csr::solve_one_csr;
pub use stats::{solution_stats, SolutionStats};
