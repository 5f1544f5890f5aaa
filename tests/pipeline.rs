//! Full pipeline integration: simulate → solve → verify → lay out →
//! re-derive → recover, across noise levels and both σ modes.

use fragalign::model::check_consistency;
use fragalign::prelude::*;
use fragalign::sim::DnaMode;

#[test]
fn simulate_solve_layout_roundtrip() {
    for seed in 0..4u64 {
        let cfg = SimConfig {
            regions: 14,
            h_frags: 3,
            m_frags: 3,
            loss_rate: 0.15,
            shuffles: 2,
            spurious: 3,
            seed,
            ..SimConfig::default()
        };
        let sim = generate(&cfg);
        let res = csr_improve(&ScoreOracle::new(&sim.instance), false);
        check_consistency(&sim.instance, &res.matches).unwrap();

        // Layout realises exactly the matches' total score.
        let layout = LayoutBuilder::new(&sim.instance, &DpAligner)
            .layout(&res.matches)
            .unwrap();
        layout.validate(&sim.instance).unwrap();
        assert_eq!(layout.score(&sim.instance), res.score, "seed {seed}");

        // Derived matches from the layout are consistent and preserve
        // the score (Remark 1).
        let derived = layout.derive_matches(&sim.instance);
        assert_eq!(derived.total_score(), res.score, "seed {seed}");
        check_consistency(&sim.instance, &derived).unwrap();

        // Recovery metrics are well-formed.
        let rep = evaluate_recovery(&sim, &res.matches);
        assert!((0.0..=1.0).contains(&rep.pair_recall));
        assert!((0.0..=1.0).contains(&rep.order_accuracy));
        assert!((0.0..=1.0).contains(&rep.orient_accuracy));
    }
}

#[test]
fn dna_mode_end_to_end() {
    let sim = generate(&SimConfig {
        regions: 10,
        h_frags: 2,
        m_frags: 2,
        loss_rate: 0.0,
        shuffles: 0,
        spurious: 1,
        dna: Some(DnaMode::default()),
        seed: 5,
        ..SimConfig::default()
    });
    let res = csr_improve(&ScoreOracle::new(&sim.instance), false);
    check_consistency(&sim.instance, &res.matches).unwrap();
    assert!(res.score > 0, "DNA-derived σ must produce signal");
    let rep = evaluate_recovery(&sim, &res.matches);
    assert!(rep.pair_recall > 0.5, "recall {}", rep.pair_recall);
}

#[test]
fn noise_free_instances_recover_order_and_orientation() {
    for seed in 0..3u64 {
        let sim = generate(&SimConfig {
            regions: 16,
            h_frags: 2,
            m_frags: 4,
            loss_rate: 0.0,
            shuffles: 0,
            spurious: 0,
            score_jitter: 0,
            seed,
            ..SimConfig::default()
        });
        let res = csr_improve(&ScoreOracle::new(&sim.instance), false);
        let rep = evaluate_recovery(&sim, &res.matches);
        assert!(
            rep.pair_recall >= 0.75,
            "seed {seed}: recall {}",
            rep.pair_recall
        );
        assert!(
            rep.orient_accuracy >= 0.8,
            "seed {seed}: orient {}",
            rep.orient_accuracy
        );
    }
}

#[test]
fn solvers_scale_to_medium_instances() {
    // A smoke test that the quadratic enumeration stays tractable at
    // the benchmark sizes.
    let sim = generate(&SimConfig {
        regions: 40,
        h_frags: 6,
        m_frags: 6,
        seed: 17,
        ..SimConfig::default()
    });
    let four = solve_four_approx(&ScoreOracle::new(&sim.instance));
    check_consistency(&sim.instance, &four).unwrap();
    let res = csr_improve(&ScoreOracle::new(&sim.instance), false);
    check_consistency(&sim.instance, &res.matches).unwrap();
    assert!(res.score >= four.total_score());
}
