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

/// The Lemma 9 algorithm. Returns full–full matches only. The
/// full-fragment `MS` weights fill through the oracle's pooled
/// workspaces (and are memoised for the second pass).
pub fn border_matching_2approx(oracle: &ScoreOracle<'_>) -> MatchSet {
    let inst = oracle.instance();
    let mut w = WeightMatrix::new(inst.h.len(), inst.m.len());
    for (i, hf) in inst.h.iter().enumerate() {
        for (j, mf) in inst.m.iter().enumerate() {
            let (score, _) = oracle.ms(
                Site::full(FragId::h(i), hf.len()),
                Site::full(FragId::m(j), mf.len()),
            );
            w.set(i, j, score);
        }
    }
    let matching = max_weight_matching(&w);
    let mut out = MatchSet::new();
    for (i, j, score) in matching.pairs {
        let h = Site::full(FragId::h(i), inst.h[i].len());
        let m = Site::full(FragId::m(j), inst.m[j].len());
        let (ms, orient) = oracle.ms(h, m);
        debug_assert_eq!(ms, score);
        out.push(Match::new(h, m, orient, score));
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
