//! Greedy CSR heuristic.
//!
//! The paper's introduction motivates approximation algorithms by
//! observing that for any greedy heuristic one can construct data that
//! fools it (a consequence of MAX-SNP hardness). This module provides
//! that baseline: repeatedly add the highest-scoring single match
//! (full plug or staircase) that keeps the solution consistent, until
//! no positive addition exists. `exp_ratio` measures how far it falls
//! behind the §4 algorithms and the exact optimum.

use crate::improve::free_pieces;
use fragalign_align::ScoreOracle;
use fragalign_model::{check_consistency, Match, MatchSet, Score, Site, Species};
use std::cmp::Reverse;

/// Full-plug candidates given the current solution: an unmatched
/// fragment wholly into a free interval.
fn plug_candidates(oracle: &ScoreOracle<'_>, set: &MatchSet) -> Vec<Match> {
    let inst = oracle.instance();
    let by_frag = set.sites_by_fragment();
    let mut out = Vec::new();
    for g in inst.all_frag_ids() {
        for zone in free_pieces(Site::full(g, inst.frag_len(g)), &by_frag) {
            for f in inst.frag_ids(g.species.other()) {
                if by_frag.contains_key(&f) {
                    continue; // plugged fragments must be free
                }
                let table = oracle.interval_table(f, g);
                for d in zone.lo..zone.hi {
                    for e in (d + 1)..=zone.hi {
                        let (score, orient) = table.get(d, e);
                        if score <= 0 {
                            continue;
                        }
                        let full = Site::full(f, inst.frag_len(f));
                        let site = Site::new(g, d, e);
                        let (h, m) = if f.species == Species::H {
                            (full, site)
                        } else {
                            (site, full)
                        };
                        out.push(Match::new(h, m, orient, score));
                    }
                }
            }
        }
    }
    out
}

/// Every positive staircase: a border site on each side, orientation
/// forced, read from each fragment pair's border table. Independent of
/// the current solution, so greedy builds them once per solve.
fn staircase_candidates(oracle: &ScoreOracle<'_>) -> Vec<Match> {
    let inst = oracle.instance();
    let mut out = Vec::new();
    for h in inst.frag_ids(Species::H) {
        let h_len = inst.frag_len(h);
        for m in inst.frag_ids(Species::M) {
            let m_len = inst.frag_len(m);
            if h_len < 2 || m_len < 2 {
                continue;
            }
            let table = oracle.border_table(h, m);
            for a in 1..h_len {
                for h_site in [Site::new(h, 0, a), Site::new(h, h_len - a, h_len)] {
                    for b in 1..m_len {
                        for m_site in [Site::new(m, 0, b), Site::new(m, m_len - b, m_len)] {
                            let Some((score, orient)) = table.staircase(h_site, m_site) else {
                                continue;
                            };
                            if score > 0 {
                                out.push(Match::new(h_site, m_site, orient, score));
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Candidate order: highest score first, then by sites.
fn order(m: &Match) -> (Reverse<Score>, Site, Site) {
    (Reverse(m.score), m.h, m.m)
}

/// Greedy: best-scoring feasible addition until none improves. The
/// oracle is scratch plus memoisation only: a warm one (a batch
/// worker's pooled workspace) returns the same match set as a fresh
/// one.
pub fn solve_greedy(oracle: &ScoreOracle<'_>) -> MatchSet {
    let inst = oracle.instance();
    // Staircases do not depend on the set: build and sort them once,
    // so each pass's stable sort finds them as one sorted run. Their
    // keys are distinct, so sorting them early changes no order.
    let mut staircases = staircase_candidates(oracle);
    staircases.sort_by_key(order);
    let mut set = MatchSet::new();
    loop {
        let mut cands = plug_candidates(oracle, &set);
        cands.extend_from_slice(&staircases);
        cands.sort_by_key(order);
        let mut added = false;
        for c in cands {
            let mut tentative = set.clone();
            tentative.push(c);
            if check_consistency(inst, &tentative).is_ok() {
                set = tentative;
                added = true;
                break;
            }
        }
        if !added {
            return set;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragalign_model::instance::paper_example;

    #[test]
    fn greedy_is_consistent_and_positive() {
        let inst = paper_example();
        let sol = solve_greedy(&ScoreOracle::new(&inst));
        check_consistency(&inst, &sol).unwrap();
        // Greedy is fooled here (the paper's point): among the
        // score-5 candidates it plugs *all of h1* into m2's ⟨u⟩,
        // consuming h1 and leaving only σ(d,t)=2 — total 7, while the
        // optimum is 11.
        assert_eq!(sol.total_score(), 7, "got {}", sol.total_score());
    }

    #[test]
    fn greedy_terminates_on_empty_sigma() {
        let mut b = fragalign_model::InstanceBuilder::new();
        b.h_frag("h", &["a", "b"]);
        b.m_frag("m", &["x", "y"]);
        let inst = b.build();
        let sol = solve_greedy(&ScoreOracle::new(&inst));
        assert_eq!(sol.len(), 0);
    }
}
