#![warn(missing_docs)]

//! # fragalign-isp
//!
//! The *Interval Selection Problem* substrate (§3.4 of the paper).
//!
//! Given a set of integer intervals, each owned by a *job* `i ∈ [1, k]`
//! and carrying a non-negative profit, select at most one interval per
//! job so that the selected intervals are pairwise disjoint and the
//! total profit is maximal. The paper reduces 1-CSR to ISP and relies
//! on the two-phase algorithm of Berman and DasGupta (ratio 2,
//! `O(n log n)`), which is cited as a black box — we implement it from
//! scratch here ([`tpa`]), along with a greedy baseline in the spirit
//! of Bar-Noy et al. ([`greedy`]) and an exact branch-and-bound solver
//! for cross-checking the guarantee on small instances ([`exact`]).

pub mod exact;
pub mod greedy;
pub mod instance;
pub mod tpa;

pub use exact::solve_exact;
pub use greedy::solve_greedy;
pub use instance::{Candidate, Interval, IspInstance, Selection};
pub use tpa::solve_tpa;
