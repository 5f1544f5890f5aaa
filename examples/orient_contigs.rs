//! The Fig. 1 scenario: inferring contig order and orientation.
//!
//! ```sh
//! cargo run --example orient_contigs
//! ```
//!
//! A human contig `h` contains regions `a … b`; region `a` aligns with
//! region `c` of mouse contig `m1`, and region `b` aligns with `d^R`
//! where `d` sits in mouse contig `m2`. The paper's Fig. 1 infers that
//! `m1` precedes `m2^R` relative to `h`'s orientation. This example
//! reproduces that inference computationally and then shows the Fig. 3
//! failure mode: alignments that no layout can satisfy, which the
//! consistency checker rejects and the optimiser resolves by dropping
//! the cheaper alignment.

use fragalign::model::check_consistency;
use fragalign::prelude::*;

fn main() {
    // ---- Fig. 1: order/orient inference ------------------------------
    let mut b = InstanceBuilder::new();
    b.h_frag("h", &["x1", "a", "x2", "b", "x3"]);
    b.m_frag("m1", &["y1", "c"]);
    b.m_frag("m2", &["d", "y2"]);
    b.score("a", "c", 10);
    b.score("b", "dR", 8);
    let instance = b.build();

    let result = csr_improve(&ScoreOracle::new(&instance), false);
    let layout = LayoutBuilder::new(&instance, &DpAligner)
        .layout(&result.matches)
        .expect("consistent");
    println!("== Fig. 1 inference ==");
    println!("{}", layout.render(&instance));
    let m1 = layout.placement(FragId::m(0)).unwrap();
    let m2 = layout.placement(FragId::m(1)).unwrap();
    let h = layout.placement(FragId::h(0)).unwrap();
    println!(
        "\nh laid {}; m1 laid {} at {}..{}; m2 laid {} at {}..{}",
        dir(h.reversed),
        dir(m1.reversed),
        m1.span_start,
        m1.span_end,
        dir(m2.reversed),
        m2.span_start,
        m2.span_end,
    );
    // Relative to h's orientation: m1 forward before m2 reversed.
    assert_eq!(m1.reversed, h.reversed, "m1 keeps h's orientation");
    assert_ne!(m2.reversed, h.reversed, "m2 is reverse-complemented");
    assert!(m1.span_start < m2.span_start, "m1 precedes m2^R");
    println!("=> inferred: m1 precedes m2^R, as in Fig. 1");

    // ---- Fig. 3: inconsistent alignment sets --------------------------
    println!("\n== Fig. 3: inconsistency detection ==");
    // First example: a supports the current orientation of m, b calls
    // for a reversal. As matches these are two conflicting plugs of m.
    let mut b = InstanceBuilder::new();
    b.h_frag("h", &["a", "z", "b"]);
    b.m_frag("m", &["c", "d"]);
    b.score("a", "c", 5);
    b.score("b", "dR", 5);
    let conflicted = b.build();
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
    match check_consistency(&conflicted, &bad) {
        Err(e) => println!("hand-built conflicting matches rejected: {e}"),
        Ok(_) => unreachable!("Fig. 3 example must be inconsistent"),
    }
    // The optimiser keeps the best consistent subset instead.
    let resolved = csr_improve(&ScoreOracle::new(&conflicted), false);
    println!(
        "optimiser resolves the conflict with score {} (one of the two alignments)",
        resolved.score
    );
    assert!(resolved.score >= 5);
}

fn dir(rev: bool) -> &'static str {
    if rev {
        "reversed"
    } else {
        "forward"
    }
}
