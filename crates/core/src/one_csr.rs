//! 1-CSR: CSR with a single M fragment, solved through the interval
//! selection problem (§3.4).
//!
//! Each H fragment is involved in at most one match, so every match is
//! `(h_k, m(i, j))` with the H site full. The reduction sets, for each
//! fragment `h_i` and interval `[d, e)` of the single `m`, the profit
//! `p(i, [d, e]) = MS(h_i, m(d, e))`; a ratio-2 ISP algorithm then
//! yields a ratio-2 1-CSR algorithm. That is the §4.2 TPA(B, S) fill
//! ([`crate::improve::tpa_fill`]) of an empty solution whose one zone
//! is the whole of `m`, so both solvers here run that fill.

use crate::improve::tpa_fill_with;
use fragalign_align::ScoreOracle;
use fragalign_isp::{solve_exact as isp_exact, solve_tpa, IspInstance, Selection};
use fragalign_model::{FragId, Instance, MatchSet, Site};
use std::collections::HashSet;

/// Fill the whole single M fragment of an empty solution, choosing the
/// intervals with `select`. Panics unless the instance has exactly one
/// M fragment.
fn fill_m(oracle: &ScoreOracle<'_>, select: fn(&IspInstance) -> Selection) -> MatchSet {
    let inst = oracle.instance();
    assert_eq!(inst.m.len(), 1, "1-CSR needs exactly one M fragment");
    let m = FragId::m(0);
    let mut set = MatchSet::new();
    let zone = Site::full(m, inst.frag_len(m));
    tpa_fill_with(&mut set, &[zone], &HashSet::new(), oracle, 1, select);
    set
}

/// Solve a 1-CSR instance with TPA (ratio 2), sharing the oracle's
/// interval tables and pooled workspaces. Panics unless the instance
/// has exactly one M fragment.
pub fn solve_one_csr(oracle: &ScoreOracle<'_>) -> MatchSet {
    fill_m(oracle, solve_tpa)
}

/// Exact 1-CSR through exhaustive ISP (small instances only: the
/// candidate count is quadratic in `|m|` times `|H|`).
pub fn solve_one_csr_exact(inst: &Instance) -> MatchSet {
    fill_m(&ScoreOracle::new(inst), isp_exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragalign_model::check_consistency;
    use fragalign_model::instance::InstanceBuilder;

    fn one_m_instance() -> Instance {
        let mut b = InstanceBuilder::new();
        b.h_frag("h1", &["a", "b"]);
        b.h_frag("h2", &["c"]);
        b.h_frag("h3", &["d"]);
        b.m_frag("m", &["p", "q", "r", "s"]);
        b.score("a", "p", 3);
        b.score("b", "q", 4);
        b.score("c", "r", 5);
        b.score("d", "qR", 6); // reversed-only alignment
        b.build()
    }

    #[test]
    fn tpa_solution_is_consistent_and_good() {
        let inst = one_m_instance();
        let sol = solve_one_csr(&ScoreOracle::new(&inst));
        check_consistency(&inst, &sol).unwrap();
        // h1 → [p,q] (7), h2 → [r] (5) are disjoint: at least 12.
        assert!(sol.total_score() >= 12, "got {}", sol.total_score());
    }

    #[test]
    fn exact_dominates_tpa_within_ratio_two() {
        let inst = one_m_instance();
        let tpa = solve_one_csr(&ScoreOracle::new(&inst)).total_score();
        let exact = solve_one_csr_exact(&inst).total_score();
        assert!(exact >= tpa);
        assert!(2 * tpa >= exact);
        // The true optimum here: h1→[p,q]=7, h2→[r]=5, total 12; using
        // h3→q (6, reversed) forfeits b–q (4) and forces h1→[p]=3:
        // 3+6+5=14. Exact finds 14.
        assert_eq!(exact, 14);
    }

    #[test]
    fn reversed_orientation_recorded() {
        let inst = one_m_instance();
        let sol = solve_one_csr_exact(&inst);
        let has_reversed = sol
            .iter()
            .any(|(_, m)| m.orient == fragalign_model::Orient::Reversed);
        assert!(has_reversed, "d–q^R match should be selected reversed");
    }

    #[test]
    #[should_panic(expected = "exactly one M fragment")]
    fn multi_m_rejected() {
        let inst = fragalign_model::instance::paper_example();
        solve_one_csr(&ScoreOracle::new(&inst));
    }
}
