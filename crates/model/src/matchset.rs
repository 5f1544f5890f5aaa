//! Matches and match sets.
//!
//! A *match* (Definition 2) pairs a site from an H fragment with a site
//! from an M fragment, together with the relative orientation that the
//! match-score maximisation chose (Definition 4) and the score itself.
//! A *consistent* set of matches is one producible from a conjecture
//! pair; [`crate::consistency`] decides consistency and rebuilds the
//! conjecture.

use crate::fragment::{FragId, Species};
use crate::score::Orient;
use crate::site::{End, Site, SiteClass};
use crate::Score;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Index of a match within a [`MatchSet`].
pub type MatchId = usize;

/// Structural kind of a match, derived from the site classifications
/// (Definition 3 and Fig. 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchKind {
    /// One side is a whole fragment (that fragment is the *plug*;
    /// `full_side` names the species whose site is full). When both
    /// sides are full we record the M side as the plug, matching the
    /// paper's convention that a 2-fragment island has one simple and
    /// one multiple fragment.
    Full {
        /// Species whose site covers its whole fragment (the plug).
        full_side: Species,
    },
    /// Both sides are proper borders: a staircase overlap joining the
    /// given original ends of the two fragments.
    Border {
        /// Fragment end claimed on the H side.
        h_end: End,
        /// Fragment end claimed on the M side.
        m_end: End,
    },
}

/// A scored pairing of an H site with an M site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Match {
    /// Site on the H-species fragment.
    pub h: Site,
    /// Site on the M-species fragment.
    pub m: Site,
    /// Relative orientation the match score chose (Definition 4):
    /// `Reversed` means the M side aligns as its reverse complement.
    pub orient: Orient,
    /// The match score `MS(h̄, m̄)`.
    pub score: Score,
}

impl Match {
    /// Build a match, normalising so `h` is the H-species site.
    pub fn new(h: Site, m: Site, orient: Orient, score: Score) -> Self {
        debug_assert_eq!(h.frag.species, Species::H, "first site must be H-species");
        debug_assert_eq!(m.frag.species, Species::M, "second site must be M-species");
        Match {
            h,
            m,
            orient,
            score,
        }
    }

    /// The site this match places on the given species' side.
    pub fn site_on_species(&self, species: Species) -> Option<Site> {
        match species {
            Species::H => Some(self.h),
            Species::M => Some(self.m),
        }
    }

    /// The site this match places on `frag`, if any.
    pub fn site_on(&self, frag: FragId) -> Option<Site> {
        if self.h.frag == frag {
            Some(self.h)
        } else if self.m.frag == frag {
            Some(self.m)
        } else {
            None
        }
    }

    /// The site on the opposite fragment of `frag`.
    pub fn other_site(&self, frag: FragId) -> Option<Site> {
        if self.h.frag == frag {
            Some(self.m)
        } else if self.m.frag == frag {
            Some(self.h)
        } else {
            None
        }
    }

    /// Classify the match given the two fragment lengths
    /// (Definition 3 / Fig. 6 precedence: full beats border).
    ///
    /// Returns `None` when the match is neither full nor a valid
    /// border–border pairing (e.g. an inner–inner pairing) — such a
    /// match can never appear in a consistent set.
    pub fn kind(&self, h_len: usize, m_len: usize) -> Option<MatchKind> {
        let hc = self.h.classify(h_len);
        let mc = self.m.classify(m_len);
        match (hc, mc) {
            // Both full: by convention the M fragment is the plug.
            (SiteClass::Full, SiteClass::Full) => Some(MatchKind::Full {
                full_side: Species::M,
            }),
            (SiteClass::Full, _) => Some(MatchKind::Full {
                full_side: Species::H,
            }),
            (_, SiteClass::Full) => Some(MatchKind::Full {
                full_side: Species::M,
            }),
            (SiteClass::Border(h_end), SiteClass::Border(m_end)) => {
                Some(MatchKind::Border { h_end, m_end })
            }
            _ => None,
        }
    }
}

/// A set of matches, the working representation of a CSR solution
/// ("We will maintain the solution to a CSR problem instance as a
/// consistent set of matches", §4.1).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MatchSet {
    matches: Vec<Match>,
}

impl MatchSet {
    /// The empty match set (the improvement algorithms' start state).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a vector of matches.
    pub fn from_matches(matches: Vec<Match>) -> Self {
        MatchSet { matches }
    }

    /// Add a match, returning its id.
    pub fn push(&mut self, m: Match) -> MatchId {
        self.matches.push(m);
        self.matches.len() - 1
    }

    /// Remove a set of matches by id (ids of the remaining matches are
    /// renumbered — use the returned mapping if needed).
    pub fn remove_many(&mut self, ids: &[MatchId]) {
        let mut drop = vec![false; self.matches.len()];
        for &id in ids {
            drop[id] = true;
        }
        let mut keep = Vec::with_capacity(self.matches.len());
        for (i, m) in self.matches.drain(..).enumerate() {
            if !drop[i] {
                keep.push(m);
            }
        }
        self.matches = keep;
    }

    /// All matches with ids.
    pub fn iter(&self) -> impl Iterator<Item = (MatchId, &Match)> {
        self.matches.iter().enumerate()
    }

    /// The matches as a slice.
    pub fn as_slice(&self) -> &[Match] {
        &self.matches
    }

    /// Mutable access to a match (used by site restriction during
    /// preparation; callers must re-establish consistency).
    pub fn get_mut(&mut self, id: MatchId) -> Option<&mut Match> {
        self.matches.get_mut(id)
    }

    /// Number of matches.
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// Total score `Score(S) = Σ_ω MS(ω)`.
    pub fn total_score(&self) -> Score {
        self.matches.iter().map(|m| m.score).sum()
    }

    /// Ids of matches that place a site on `frag`.
    pub fn matches_on(&self, frag: FragId) -> Vec<MatchId> {
        self.iter()
            .filter(|(_, m)| m.site_on(frag).is_some())
            .map(|(id, _)| id)
            .collect()
    }

    /// Contribution `Cb(f, S)` of fragment `f`: the sum of scores of
    /// all matches involving `f` (Definition 5).
    pub fn contribution(&self, frag: FragId) -> Score {
        self.matches
            .iter()
            .filter(|m| m.site_on(frag).is_some())
            .map(|m| m.score)
            .sum()
    }

    /// Group matched sites by fragment: `frag → [(MatchId, Site)]`,
    /// each list sorted by site start.
    pub fn sites_by_fragment(&self) -> HashMap<FragId, Vec<(MatchId, Site)>> {
        let mut map: HashMap<FragId, Vec<(MatchId, Site)>> = HashMap::new();
        for (id, m) in self.iter() {
            map.entry(m.h.frag).or_default().push((id, m.h));
            map.entry(m.m.frag).or_default().push((id, m.m));
        }
        for sites in map.values_mut() {
            sites.sort_by_key(|(_, s)| (s.lo, s.hi));
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site_h(i: usize, lo: usize, hi: usize) -> Site {
        Site::new(FragId::h(i), lo, hi)
    }
    fn site_m(i: usize, lo: usize, hi: usize) -> Site {
        Site::new(FragId::m(i), lo, hi)
    }

    #[test]
    fn kind_classification_full_precedence() {
        // Fig. 6: a match involving a full site is a full match even if
        // the other side is a border site.
        let m = Match::new(site_h(0, 0, 3), site_m(0, 1, 4), Orient::Same, 5);
        assert_eq!(
            m.kind(3, 6),
            Some(MatchKind::Full {
                full_side: Species::H
            })
        );
        let m2 = Match::new(site_h(0, 2, 5), site_m(0, 0, 4), Orient::Same, 5);
        assert_eq!(
            m2.kind(9, 4),
            Some(MatchKind::Full {
                full_side: Species::M
            })
        );
        // Border–border staircase.
        let m3 = Match::new(site_h(0, 2, 5), site_m(0, 0, 2), Orient::Same, 5);
        assert_eq!(
            m3.kind(5, 7),
            Some(MatchKind::Border {
                h_end: End::Right,
                m_end: End::Left
            })
        );
        // Inner–border is not realisable.
        let m4 = Match::new(site_h(0, 1, 4), site_m(0, 0, 2), Orient::Same, 5);
        assert_eq!(m4.kind(6, 7), None);
    }

    #[test]
    fn contribution_sums_incident_scores() {
        let mut s = MatchSet::new();
        s.push(Match::new(
            site_h(0, 0, 1),
            site_m(0, 0, 1),
            Orient::Same,
            4,
        ));
        s.push(Match::new(
            site_h(0, 1, 2),
            site_m(1, 0, 1),
            Orient::Same,
            5,
        ));
        s.push(Match::new(
            site_h(1, 0, 1),
            site_m(1, 1, 2),
            Orient::Same,
            2,
        ));
        assert_eq!(s.contribution(FragId::h(0)), 9);
        assert_eq!(s.contribution(FragId::m(1)), 7);
        assert_eq!(s.contribution(FragId::m(7)), 0);
        assert_eq!(s.total_score(), 11);
    }

    #[test]
    fn remove_many_keeps_order() {
        let mut s = MatchSet::new();
        let a = Match::new(site_h(0, 0, 1), site_m(0, 0, 1), Orient::Same, 1);
        let b = Match::new(site_h(1, 0, 1), site_m(1, 0, 1), Orient::Same, 2);
        let c = Match::new(site_h(2, 0, 1), site_m(2, 0, 1), Orient::Same, 3);
        s.push(a);
        s.push(b);
        s.push(c);
        s.remove_many(&[1]);
        assert_eq!(s.as_slice(), &[a, c]);
        assert_eq!(s.total_score(), 4);
    }

    #[test]
    fn sites_by_fragment_sorted() {
        let mut s = MatchSet::new();
        s.push(Match::new(
            site_h(0, 4, 6),
            site_m(0, 0, 2),
            Orient::Same,
            1,
        ));
        s.push(Match::new(
            site_h(0, 0, 2),
            site_m(1, 0, 2),
            Orient::Same,
            1,
        ));
        let by = s.sites_by_fragment();
        let sites: Vec<usize> = by[&FragId::h(0)].iter().map(|(_, s)| s.lo).collect();
        assert_eq!(sites, vec![0, 4]);
    }
}
