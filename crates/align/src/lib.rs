//! # fragalign-align
//!
//! Alignment substrate for the CSR problem.
//!
//! The paper's Definition 4 builds match scores `MS(h̄, m̄)` from
//! `P_score(h̄, m̄)`: the maximum column score over all paddings of the
//! two sites — the classic problem of aligning two lists of symbols
//! where gaps are free and every column of two symbols scores `σ`.
//! This crate provides:
//!
//! * one entry point to that dynamic program, [`DpWorkspace`]:
//!   `P_score` ([`DpWorkspace::p_score`]), match scores with
//!   orientation search ([`DpWorkspace::ms_words`]) and alignments
//!   with traceback ([`DpWorkspace::align_words`]), all over reused
//!   buffers. Fills run through a hash-free query-profile kernel — a
//!   branchless split recurrence with cache blocking — that is
//!   bit-identical to the scalar reference kernel;
//!   [`DpWorkspace::p_score_kernel`] forces either one for benches and
//!   differential tests;
//! * a memoising score oracle ([`oracle`]): all-intervals tables
//!   `MS(f, g(d, e))` for the 1-CSR → ISP reduction and TPA profits,
//!   border tables scoring every staircase of a fragment pair for
//!   greedy and the border improvement methods, and free-orientation
//!   site pairs,
//! * a fragment-chaining tier — minimizer anchors, LIS chaining, DP
//!   only inside the chained windows — for instances too large for
//!   the full DP family ([`chain`]),
//! * a from-scratch nucleotide Smith–Waterman aligner with reverse
//!   complement search, used by the simulator to derive region scores
//!   the way a sequencing pipeline would ([`dna`]).

pub mod chain;
pub mod dna;
mod dp;
mod kernel;
pub mod oracle;
pub mod workspace;

pub use chain::solve_chain;
pub use kernel::{KERNEL_BLOCK, PROFILE_MAX_CELLS, PROFILE_MIN_CELLS};
pub use oracle::{BorderTable, OracleStats, OracleStatsSnapshot, ScoreOracle};
pub use workspace::{DpAligner, DpWorkspace, KernelMode};
