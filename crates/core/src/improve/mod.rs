//! Iterative improvement algorithms (§4 of the paper).
//!
//! The solution is maintained as a consistent set of matches; the
//! algorithm repeatedly makes *improvement attempts* — each discards
//! some matches and creates new ones, using the TPA subroutine to
//! refill freed sites — and commits attempts with positive gain until
//! none exists.
//!
//! * **Full_Improve** (§4.2, Theorem 4): method [`I1`] only — plug a
//!   fragment into a target site, TPA the leftovers. Ratio 3 + ε for
//!   Full CSR.
//! * **Border_Improve** (§4.3, Theorem 5): methods I2/I3 — make
//!   staircase (border) matches, breaking and re-forming 2-islands.
//!   Ratio 3 + ε for Border CSR.
//! * **CSR_Improve** (§4.4, Theorem 6): all methods, with I2/I3
//!   extended by TPA runs on the prepared containers. Ratio 3 + ε.
//!
//! Implementation notes (the choices `exp_ablation` measures): attempts
//! are applied to a clone of the current match set and committed only
//! when the (scaled) total score strictly increases, so consistency and
//! monotonicity are invariants rather than proof obligations; the
//! Chandra–Halldórsson scaling step (§4.1) optionally truncates scores
//! to multiples of `X/k²`, bounding the number of rounds by `4k²`.
//!
//! # Bounded rounds
//!
//! A round enumerates about a thousand attempts and commits one, and
//! most of an attempt's cost is its TPA refills. So the driver first
//! bounds every attempt in parallel with [`attempt_bound`], which runs
//! the attempt's cheap prefix (preparations, detaches, the head match
//! or matches, the border-cycle guard) on a copy, then adds to the
//! prefix's own gain what the refills could at most add. Each TPA job
//! `j` can gain at most `B_j − C_j`, where `B_j` is `j`'s best score on
//! a whole zone it may be plugged into and `C_j` the mass of the
//! matches credited to `j` that detaching `j` removes. The bound holds
//! because a refill only detaches jobs and plugs each into a zone
//! interval, `P_score` never drops when a word grows, and each removed
//! match is credited to one end only (see [`attempt_bound`] for the
//! argument).
//!
//! The driver then applies attempts with a positive bound one by one
//! on the calling thread, in descending bound order with ties to the
//! lowest index, and stops at the first attempt whose bound is below
//! the best gain found, or equal to it at a higher index than the best
//! attempt's. No attempt left can then win, so the round commits
//! exactly the attempt that applying all of them would: the maximum
//! truncated gain, ties to the lowest index. [`Commit::FirstPositive`]
//! visits in index order instead, skipping attempts bounded at ≤ 0.
//! [`ImproveResult::evaluated`] counts the attempts whose refills ran;
//! it depends only on bounds and gains, so it repeats at any pool
//! width.
//!
//! [`I1`]: Attempt::I1

mod driver;
mod enumerate;
mod ops;

pub use driver::{
    border_improve, csr_improve, full_improve, improve, Commit, ImproveConfig, ImproveResult,
};
pub use enumerate::{enumerate_attempts, Attempt, Budget, I2Bundle};
pub use ops::{
    apply_attempt, attempt_bound, detach_fragment, make_border, plug_full, prepare_site, tpa_fill,
    trunc_total, ApplyError, CannotPrepare,
};
pub(crate) use ops::{free_pieces, tpa_fill_with};

/// Which improvement methods the driver enumerates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MethodSet {
    /// I1 only (Full CSR, §4.2).
    FullOnly,
    /// I2 and I3 only (Border CSR, §4.3).
    BorderOnly,
    /// All methods (general CSR, §4.4).
    All,
}
