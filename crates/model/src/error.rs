//! Inconsistency diagnoses for match sets.
//!
//! Fig. 3 of the paper shows that real alignment data is frequently
//! inconsistent with every orientation/ordering of the contigs. The
//! consistency checker reports *why* a match set cannot be produced by
//! any conjecture pair, with enough detail for callers to repair it.

use crate::fragment::FragId;
use crate::matchset::MatchId;
use crate::site::{End, Site};

/// Why a match set is not consistent (cannot arise from any conjecture
/// pair per Definition 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inconsistency {
    /// A match pairs two sites of the same species.
    SameSpecies {
        /// The offending match.
        m: MatchId,
    },
    /// A site extends beyond its fragment.
    SiteOutOfBounds {
        /// The out-of-range site.
        site: Site,
        /// Length of the fragment it claims to live on.
        frag_len: usize,
    },
    /// Two matched sites on one fragment overlap.
    OverlappingSites {
        /// First match involved.
        m1: MatchId,
        /// Second match involved.
        m2: MatchId,
        /// First overlapping site.
        site1: Site,
        /// Second overlapping site.
        site2: Site,
    },
    /// A match with no full side has an inner site: inner sites can
    /// only be covered by whole opposite fragments (a match with no
    /// full side must pair two border sites).
    InnerSiteNotFull {
        /// The offending match.
        m: MatchId,
        /// Its inner site.
        inner: Site,
    },
    /// A border–border match whose ends and orientation cannot be made
    /// flush in any layout (the staircase condition `E_h ≠ E_m ⊕ r`
    /// fails).
    BorderEndMismatch {
        /// The offending match.
        m: MatchId,
        /// End claimed on the H fragment.
        h_end: End,
        /// End claimed on the M fragment.
        m_end: End,
    },
    /// Two border matches claim the same fragment end.
    DoubleBorderEnd {
        /// The doubly claimed fragment.
        frag: FragId,
        /// The doubly claimed end.
        end: End,
        /// First claimant.
        m1: MatchId,
        /// Second claimant.
        m2: MatchId,
    },
    /// Border matches form a cycle of fragments, which no linear
    /// layout can realise.
    BorderCycle {
        /// The match that closes the cycle.
        m: MatchId,
    },
}

impl std::fmt::Display for Inconsistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Inconsistency::SameSpecies { m } => {
                write!(f, "match {m:?} pairs two sites of the same species")
            }
            Inconsistency::SiteOutOfBounds { site, frag_len } => {
                write!(f, "site {site:?} exceeds fragment length {frag_len}")
            }
            Inconsistency::OverlappingSites { m1, m2, site1, site2 } => write!(
                f,
                "matches {m1:?} and {m2:?} use overlapping sites {site1:?} and {site2:?}"
            ),
            Inconsistency::InnerSiteNotFull { m, inner } => write!(
                f,
                "match {m:?} pairs inner site {inner:?} with a non-full site"
            ),
            Inconsistency::BorderEndMismatch { m, h_end, m_end } => write!(
                f,
                "border match {m:?} joins ends {h_end:?}/{m_end:?} with an orientation that cannot be laid out flush"
            ),
            Inconsistency::DoubleBorderEnd { frag, end, m1, m2 } => write!(
                f,
                "fragment {frag:?} end {end:?} is claimed by two border matches {m1:?} and {m2:?}"
            ),
            Inconsistency::BorderCycle { m } => {
                write!(f, "border match {m:?} closes a cycle of fragments")
            }
        }
    }
}

impl std::error::Error for Inconsistency {}
