//! Executable reproductions of the paper's figures. Each test pins the
//! behaviour a figure illustrates.

use fragalign::model::check_consistency;
use fragalign::prelude::*;

/// Fig. 1: contig h of human aligns region a with c in mouse contig
/// m1 and region b with d^R in m2 ⇒ m1 precedes m2^R.
#[test]
fn fig1_orient_order_inference() {
    let mut b = InstanceBuilder::new();
    b.h_frag("h", &["x1", "a", "x2", "b", "x3"]);
    b.m_frag("m1", &["y1", "c"]);
    b.m_frag("m2", &["d", "y2"]);
    b.score("a", "c", 10);
    b.score("b", "dR", 8);
    let inst = b.build();
    let res = csr_improve(&ScoreOracle::new(&inst), false);
    assert_eq!(res.score, 18, "both alignments are realisable together");
    let layout = LayoutBuilder::new(&inst, &DpAligner)
        .layout(&res.matches)
        .unwrap();
    let h = layout.placement(FragId::h(0)).unwrap();
    let m1 = layout.placement(FragId::m(0)).unwrap();
    let m2 = layout.placement(FragId::m(1)).unwrap();
    // The layout may mirror the whole island (a global flip is free);
    // the inference is *relative* to h's laid orientation, exactly as
    // the paper states it.
    assert_eq!(m1.reversed, h.reversed, "m1 keeps h's orientation");
    assert_ne!(m2.reversed, h.reversed, "m2 is reverse-complemented");
    let m1_before_m2 = m1.span_start < m2.span_start;
    assert_eq!(
        m1_before_m2, !h.reversed,
        "relative to h's orientation, m1 precedes m2^R"
    );
}

/// Figs. 2 and 4: the running example and its optimum score 11
/// (delete b and t, reverse h2, order m1 before m2).
#[test]
fn fig2_fig4_running_example_optimum_11() {
    let inst = fragalign::model::instance::paper_example();
    let exact = solve_exact(&inst, ExactLimits::default());
    assert_eq!(exact.score, 11);
    let improve = csr_improve(&ScoreOracle::new(&inst), false);
    assert_eq!(improve.score, 11, "CSR_Improve reaches the optimum here");
    check_consistency(&inst, &improve.matches).unwrap();
}

/// Fig. 5: the optimum corresponds to the consistent match set
/// ω1 = (h1(1,2), m1(1,2)), ω2 = (h1(3,3), m2(1,1)),
/// ω3 = (h2^R(1,1), m2(2,2)).
#[test]
fn fig5_match_decomposition() {
    let inst = fragalign::model::instance::paper_example();
    let s = MatchSet::from_matches(vec![
        Match::new(
            Site::new(FragId::h(0), 0, 2),
            Site::new(FragId::m(0), 0, 2),
            Orient::Same,
            4,
        ),
        Match::new(
            Site::new(FragId::h(0), 2, 3),
            Site::new(FragId::m(1), 0, 1),
            Orient::Same,
            5,
        ),
        Match::new(
            Site::new(FragId::h(1), 0, 1),
            Site::new(FragId::m(1), 1, 2),
            Orient::Reversed,
            2,
        ),
    ]);
    let report = check_consistency(&inst, &s).unwrap();
    assert_eq!(report.islands.len(), 1);
    assert_eq!(s.total_score(), 11);
    // Round trip through an explicit conjecture pair (Remark 1).
    let pair = LayoutBuilder::new(&inst, &DpAligner).layout(&s).unwrap();
    assert_eq!(pair.score(&inst), 11);
    let derived = pair.derive_matches(&inst);
    assert_eq!(derived.total_score(), 11);
    check_consistency(&inst, &derived).unwrap();
}

/// Fig. 3 (left): one alignment supports the current orientation of m,
/// the other calls for its reversal — not simultaneously realisable.
#[test]
fn fig3_orientation_conflict_rejected() {
    let mut b = InstanceBuilder::new();
    b.h_frag("h", &["a", "z", "b"]);
    b.m_frag("m", &["c", "d"]);
    b.score("a", "c", 5);
    b.score("b", "dR", 5);
    let inst = b.build();
    let bad = MatchSet::from_matches(vec![
        Match::new(
            Site::new(FragId::h(0), 0, 1),
            Site::new(FragId::m(0), 0, 1),
            Orient::Same,
            5,
        ),
        Match::new(
            Site::new(FragId::h(0), 2, 3),
            Site::new(FragId::m(0), 1, 2),
            Orient::Reversed,
            5,
        ),
    ]);
    assert!(check_consistency(&inst, &bad).is_err());
    // The optimum keeps one of the two.
    let exact = solve_exact(&inst, ExactLimits::default());
    assert_eq!(exact.score, 5);
}

/// Fig. 3 (right): aligning regions must appear in the same order in
/// both sequences — the crossing pairing is worth only its best half.
#[test]
fn fig3_order_conflict_limits_score() {
    let mut b = InstanceBuilder::new();
    b.h_frag("h", &["a", "b"]);
    b.m_frag("m", &["c", "d"]);
    b.score("a", "d", 5);
    b.score("b", "c", 4);
    let inst = b.build();
    // Reversal does NOT rescue the crossing: flipping m turns d into
    // d^R, and σ(a, d^R) is a different (zero) entry — the paper's
    // σ(a,b) = σ(a^R,b^R) symmetry preserves *relative* orientation.
    // So only the better of the two pairs survives, in any layout.
    let exact = solve_exact(&inst, ExactLimits::default());
    assert_eq!(exact.score, 5, "order conflict forfeits the weaker pair");
    let h_word = &inst.h[0].regions;
    let m_word = &inst.m[0].regions;
    let forward_only = DpWorkspace::new().p_score(&inst.sigma, h_word, m_word);
    assert_eq!(forward_only, 5);
}

/// Fig. 6: site classification drives match kinds: full matches beat
/// border matches in the classification precedence.
#[test]
fn fig6_site_classification_precedence() {
    use fragalign::model::{MatchKind, SiteClass};
    let mut b = InstanceBuilder::new();
    b.h_frag("h", &["a", "b", "c", "d"]);
    b.m_frag("m", &["w", "x"]);
    let inst = b.build();
    let h_len = inst.frag_len(FragId::h(0));
    assert_eq!(
        Site::new(FragId::h(0), 0, 4).classify(h_len),
        SiteClass::Full
    );
    assert_eq!(
        Site::new(FragId::h(0), 0, 2).classify(h_len),
        SiteClass::Border(fragalign::model::End::Left)
    );
    assert_eq!(
        Site::new(FragId::h(0), 1, 3).classify(h_len),
        SiteClass::Inner
    );
    // Full site on one side ⇒ full match even though the other side is
    // a border site (ω2/ω3 vs ω1/ω4 in Fig. 6).
    let m = Match::new(
        Site::new(FragId::h(0), 0, 2),
        Site::new(FragId::m(0), 0, 2),
        Orient::Same,
        0,
    );
    assert!(matches!(m.kind(4, 2), Some(MatchKind::Full { .. })));
}

/// Figs. 7 and 8: MS maximises over both orientations; border sites
/// collapse to the same two candidates.
#[test]
fn fig7_fig8_match_score_orientations() {
    let inst = fragalign::model::instance::paper_example();
    let mut ws = DpWorkspace::new();
    let mut site_ms =
        |h: Site, m: Site| ws.ms_words(&inst.sigma, inst.site_word(h), inst.site_word(m));
    // d vs v: only σ(d, v^R) = 2 is non-zero.
    let (s, o) = site_ms(Site::new(FragId::h(1), 0, 1), Site::new(FragId::m(1), 1, 2));
    assert_eq!((s, o), (2, Orient::Reversed));
    // b..c suffix vs s..t prefix: reversed orientation wins via σ(b, t^R).
    let (s2, o2) = site_ms(Site::new(FragId::h(0), 1, 3), Site::new(FragId::m(0), 0, 2));
    assert_eq!((s2, o2), (3, Orient::Reversed));
}

/// Figs. 9–12 territory: I1 improvement attempts relocate plugs and
/// refill freed zones with TPA; the driver only ever raises the score
/// and keeps consistency.
#[test]
fn fig9_to_12_full_improve_monotone() {
    let mut b = InstanceBuilder::new();
    b.h_frag("h1", &["a", "b"]);
    b.h_frag("h2", &["c"]);
    b.m_frag("m1", &["p", "q", "r"]);
    b.score("a", "p", 4);
    b.score("b", "q", 4);
    b.score("c", "q", 6);
    let inst = b.build();
    let res = full_improve(&ScoreOracle::new(&inst), false);
    check_consistency(&inst, &res.matches).unwrap();
    // Optimum: h1 → ⟨p⟩ (a–p = 4) and h2 → ⟨q⟩ (c–q = 6) total 10,
    // beating the tempting h1 → [p,q] (8) that blocks q. Reaching it
    // from the greedy-attractive 8 requires exactly the I1 relocation
    // with a TPA refill that Figs. 9–12 illustrate.
    assert_eq!(res.score, 10);
    let exact = solve_exact(&inst, ExactLimits::default());
    assert_eq!(exact.score, 10, "full matches suffice on this instance");
}

/// Figs. 13–17 territory: border improvements (I2/I3) build staircase
/// overlaps that full matches cannot express.
#[test]
fn fig13_to_17_border_improve_builds_staircases() {
    let mut b = InstanceBuilder::new();
    // h1's head aligns a whole m fragment while its tail overlaps
    // m1's head — a full plug of h1 cannot realise both, only the
    // staircase can.
    b.h_frag("h1", &["a", "b"]);
    b.h_frag("h2", &["e", "f"]);
    b.m_frag("m1", &["b'", "c'", "e'"]);
    b.m_frag("m2", &["a''"]);
    b.score("a", "a''", 5);
    b.score("b", "b'", 7);
    b.score("e", "e'", 7);
    let inst = b.build();
    let res = csr_improve(&ScoreOracle::new(&inst), false);
    check_consistency(&inst, &res.matches).unwrap();
    assert_eq!(res.score, 19, "plug + staircase chain: 5 + 7 + 7");
    let report = check_consistency(&inst, &res.matches).unwrap();
    assert_eq!(report.islands.len(), 1);
    // At least one staircase (border) match is required for 19.
    let borders = res
        .matches
        .iter()
        .filter(|(_, m)| {
            matches!(
                m.kind(inst.frag_len(m.h.frag), inst.frag_len(m.m.frag)),
                Some(fragalign::model::MatchKind::Border { .. })
            )
        })
        .count();
    assert!(borders >= 1, "score 19 needs a staircase overlap");
    assert!(report.islands[0].spine.len() >= 2);
}
