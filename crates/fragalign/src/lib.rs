//! # fragalign
//!
//! Order and orient fragmented genome assemblies by cross-species
//! alignment — a production-quality implementation of Veeramachaneni,
//! Berman & Miller, *Aligning two fragmented sequences* (IPPS 2002 /
//! Discrete Applied Mathematics 127, 2003).
//!
//! Two incompletely sequenced genomes arrive as sets of contigs whose
//! order and orientation are unknown; conserved-region alignments
//! between the species carry enough signal to reconstruct both. The
//! paper formalises this as the *Consensus Sequence Reconstruction*
//! (CSR) optimisation problem, proves it MAX-SNP hard, and gives a
//! polynomial-time algorithm within a factor 3 + ε of optimal. This
//! crate re-exports the full implementation:
//!
//! * [`model`] — fragments, the duplicated alphabet, matches,
//!   consistency and layouts;
//! * [`align`] — the `P_score` alignment DP behind one workspace entry
//!   point (scores, match scores, alignments), interval oracles, the
//!   anchor-chaining tier, a DNA local aligner;
//! * [`isp`] — the Berman–DasGupta two-phase interval-selection
//!   algorithm (ratio 2);
//! * [`matching`] — Hungarian maximum-weight bipartite matching;
//! * [`graph`] — 3-regular graphs and maximum independent set (for the
//!   hardness reduction);
//! * [`core`] — the CSR solvers: greedy, 1-CSR, the factor-4
//!   algorithm, the 3 + ε improvement algorithms, exact search, the
//!   UCSR/CSoP reductions, and the solver engine (registry, uniform
//!   telemetry, racing portfolio meta-solver, batch pipeline);
//! * [`obs`] — the zero-dependency tracing layer: a lock-free span
//!   sink, RAII span guards, and Chrome trace-event export, threaded
//!   through every solver, the portfolio racers, and the service;
//! * [`sim`] — a fragmented-genome simulator with ground truth;
//! * [`par`] — rayon pool plumbing: scoped pools of a given width;
//! * [`serve`] — the concurrent HTTP alignment service: worker pool
//!   with bounded-queue backpressure, sharded LRU result cache,
//!   JSON wire format over the engine registry.
//!
//! ## Quickstart
//!
//! ```
//! use fragalign::prelude::*;
//!
//! // The paper's running example (Figs. 2 and 4).
//! let instance = fragalign::model::instance::paper_example();
//!
//! // Solve with the 3+ε iterative improvement algorithm.
//! let result = csr_improve(&ScoreOracle::new(&instance), false);
//! assert_eq!(result.score, 11); // the paper's optimum
//!
//! // Lay the solution out as an explicit two-row alignment.
//! let layout = LayoutBuilder::new(&instance, &DpAligner)
//!     .layout(&result.matches)
//!     .unwrap();
//! assert_eq!(layout.score(&instance), 11);
//! ```

pub use fragalign_align as align;
pub use fragalign_core as core;
pub use fragalign_core::obs;
pub use fragalign_graph as graph;
pub use fragalign_isp as isp;
pub use fragalign_matching as matching;
pub use fragalign_model as model;
pub use fragalign_par as par;
pub use fragalign_serve as serve;
pub use fragalign_sim as sim;

/// The most common imports in one place.
pub mod prelude {
    pub use fragalign_align::{solve_chain, ChainParams, DpAligner, DpWorkspace, ScoreOracle};
    pub use fragalign_core::improve::improve;
    pub use fragalign_core::{
        border_improve, border_matching_2approx, csr_improve, full_improve, solve_batch_reports,
        solve_exact, solve_four_approx, solve_greedy, solve_one_csr, solve_single_traced, Auto,
        BatchOptions, BatchSolution, CancelToken, EngineError, EngineOptions, ExactLimits,
        ImproveConfig, ImproveResult, InstanceFeatures, MethodSet, Portfolio, RacerReport, Router,
        RouterRule, SolveCtx, SolveOutcome, SolveReport, Solver, SolverRegistry, SolverSpec,
        TraceHandle, TraceLog, TraceSink,
    };
    pub use fragalign_model::{
        check_consistency, FragId, Fragment, Instance, InstanceBuilder, LayoutBuilder, Match,
        MatchSet, Orient, Score, ScoreTable, Site, Species, Sym,
    };
    pub use fragalign_sim::{
        evaluate_recovery, gen_batch, generate, generate_degenerate, generate_soup, generate_torn,
        soup_batch, torn_batch, DegenerateShape, SimConfig, SoupConfig, TornConfig,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_quickstart_compiles_and_runs() {
        let instance = crate::model::instance::paper_example();
        let result = csr_improve(&ScoreOracle::new(&instance), false);
        assert_eq!(result.score, 11);
    }
}
