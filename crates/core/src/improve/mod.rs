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
//! monotonicity are invariants rather than proof obligations;
//! candidate attempts are evaluated in parallel with rayon; the
//! Chandra–Halldórsson scaling step (§4.1) optionally truncates scores
//! to multiples of `X/k²`, bounding the number of rounds by `4k²`.
//!
//! [`I1`]: Attempt::I1

mod driver;
mod enumerate;
mod ops;

pub use driver::{
    border_improve, csr_improve, full_improve, improve, ImproveConfig, ImproveResult,
};
pub use enumerate::{enumerate_attempts, Attempt, Budget, I2Bundle};
pub use ops::{
    apply_attempt, detach_fragment, make_border, plug_full, prepare_site, tpa_fill, trunc_total,
    ApplyError, CannotPrepare,
};

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
