//! Cross-algorithm dominance and guarantee checks on random instances
//! (the `exp_ratio` experiment, T1–T3, in test form).

use fragalign::model::check_consistency;
use fragalign::prelude::*;
use fragalign::sim::SimConfig;

fn small_instances() -> Vec<(String, Instance)> {
    let mut out = Vec::new();
    out.push((
        "paper".to_owned(),
        fragalign::model::instance::paper_example(),
    ));
    for seed in 0..6u64 {
        let cfg = SimConfig {
            regions: 10,
            h_frags: 3,
            m_frags: 3,
            loss_rate: 0.1,
            shuffles: 1,
            spurious: 2,
            base_score: 10,
            score_jitter: 5,
            seed,
            ..SimConfig::default()
        };
        out.push((
            format!("sim{seed}"),
            fragalign::sim::generate(&cfg).instance,
        ));
    }
    out
}

#[test]
fn every_solver_is_consistent_on_every_instance() {
    for (name, inst) in small_instances() {
        let oracle = ScoreOracle::new(&inst);
        for (algo, sol) in [
            ("greedy", solve_greedy(&oracle)),
            ("four", solve_four_approx(&oracle)),
            ("matching", border_matching_2approx(&oracle)),
            ("full", full_improve(&oracle, false).matches),
            ("border", border_improve(&oracle, false).matches),
            ("csr", csr_improve(&oracle, false).matches),
        ] {
            check_consistency(&inst, &sol).unwrap_or_else(|e| panic!("{algo} on {name}: {e}"));
        }
    }
}

#[test]
fn guarantees_hold_against_exact() {
    for (name, inst) in small_instances() {
        let exact = solve_exact(
            &inst,
            ExactLimits {
                max_frags: 4,
                max_regions: 40,
            },
        )
        .score;
        if exact == 0 {
            continue;
        }
        let oracle = ScoreOracle::new(&inst);
        // Corollary 1: ratio 4.
        let four = solve_four_approx(&oracle).total_score();
        assert!(4 * four >= exact, "{name}: four={four} exact={exact}");
        // Theorem 6: ratio 3 + ε (we assert the clean factor 3 since
        // scaling is off and gains are exact).
        let csr = csr_improve(&oracle, false).score;
        assert!(3 * csr >= exact, "{name}: csr={csr} exact={exact}");
        // No solver exceeds the optimum.
        for (algo, score) in [
            ("greedy", solve_greedy(&oracle).total_score()),
            ("four", four),
            ("csr", csr),
            ("matching", border_matching_2approx(&oracle).total_score()),
        ] {
            assert!(score <= exact, "{name}: {algo}={score} > exact={exact}");
        }
    }
}

#[test]
fn improvement_dominates_its_seed() {
    for (name, inst) in small_instances() {
        let oracle = ScoreOracle::new(&inst);
        let four = solve_four_approx(&oracle);
        let four_score = four.total_score();
        let seeded = improve(
            &oracle,
            ImproveConfig::default(),
            four,
            &CancelToken::never(),
        );
        assert!(
            seeded.score >= four_score,
            "{name}: seeding with 4-approx must not lose score"
        );
    }
}

#[test]
fn scaling_never_breaks_feasibility_and_stays_close() {
    for (name, inst) in small_instances().into_iter().take(4) {
        let oracle = ScoreOracle::new(&inst);
        let unscaled = csr_improve(&oracle, false);
        let scaled = csr_improve(&oracle, true);
        check_consistency(&inst, &scaled.matches).unwrap();
        // Scaling may lose up to ~1/k of the score (§4.1); allow a
        // generous 25% envelope on these tiny instances.
        assert!(
            4 * scaled.score >= 3 * unscaled.score,
            "{name}: scaled={} unscaled={}",
            scaled.score,
            unscaled.score
        );
    }
}
