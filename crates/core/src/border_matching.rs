//! Lemma 9: a 2-approximation for Border CSR via maximum-weight
//! bipartite matching.
//!
//! The solution graph of a Border CSR optimum has degree ≤ 2, so its
//! edges split into two matchings; the heavier half is at least 50% of
//! the optimum, and within a matching every fragment participates in
//! at most one match, so all sites can be taken full. Hence: match `H`
//! fragments against `M` fragments with edge weight `MS(h, m)` (full
//! sites) and keep the positive pairs.

use fragalign_align::ScoreOracle;
use fragalign_matching::{max_weight_matching, WeightMatrix};
use fragalign_model::{FragId, Match, MatchSet, Site};

/// The Lemma 9 algorithm. Returns full–full matches only. Each
/// whole-fragment pair is scored once, through the oracle's pooled
/// workspaces ([`ScoreOracle::ms`]), and its orientation is kept for
/// the matched pairs.
pub fn border_matching_2approx(oracle: &ScoreOracle<'_>) -> MatchSet {
    let inst = oracle.instance();
    let full_h = |i: usize| Site::full(FragId::h(i), inst.h[i].len());
    let full_m = |j: usize| Site::full(FragId::m(j), inst.m[j].len());
    let mut w = WeightMatrix::new(inst.h.len(), inst.m.len());
    let mut orients = Vec::with_capacity(inst.h.len() * inst.m.len());
    for i in 0..inst.h.len() {
        for j in 0..inst.m.len() {
            let (score, orient) = oracle.ms(full_h(i), full_m(j));
            w.set(i, j, score);
            orients.push(orient);
        }
    }
    let matching = max_weight_matching(&w);
    let mut out = MatchSet::new();
    for (i, j, score) in matching.pairs {
        let orient = orients[i * inst.m.len() + j];
        out.push(Match::new(full_h(i), full_m(j), orient, score));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragalign_model::check_consistency;
    use fragalign_model::instance::paper_example;

    #[test]
    fn matching_solution_is_consistent() {
        let inst = paper_example();
        let sol = border_matching_2approx(&ScoreOracle::new(&inst));
        check_consistency(&inst, &sol).unwrap();
        // Best pairing: h1–m1 (σ(a,s)+? aligned in order: a–s=4 plus
        // b–t=0 → 4; h1–m2 would give c–u=5... matching optimises
        // globally.
        assert!(sol.total_score() >= 7, "got {}", sol.total_score());
        // Every fragment in at most one match.
        assert!(sol.len() <= 2);
    }

    #[test]
    fn empty_instance() {
        let inst = fragalign_model::Instance::default();
        let sol = border_matching_2approx(&ScoreOracle::new(&inst));
        assert_eq!(sol.len(), 0);
    }
}
