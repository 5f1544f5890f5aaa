//! Differential properties of the anchor-chaining tier: on every
//! small instance where the exhaustive solver can certify the
//! optimum, chaining must stay consistent, deterministic, and at or
//! below that optimum — a heuristic may lose score, never invent it.

use fragalign_align::{solve_chain, ScoreOracle};
use fragalign_core::{solve_exact, ExactLimits};
use fragalign_model::check_consistency;
use fragalign_sim::{generate, SimConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chain score ≤ certified optimum, consistency holds, and two
    /// runs agree bit for bit, across randomly seeded instances small
    /// enough for `exact`.
    #[test]
    fn chain_never_beats_the_certified_optimum(
        seed in 0u64..500,
        regions in 6usize..=10,
        h_frags in 2usize..=3,
        m_frags in 2usize..=3,
    ) {
        let sim = generate(&SimConfig {
            regions,
            h_frags,
            m_frags,
            loss_rate: 0.1,
            shuffles: 1,
            spurious: 2,
            seed,
            ..SimConfig::default()
        });
        let inst = &sim.instance;
        let chain = || solve_chain(&ScoreOracle::new(inst));
        let sol = chain();
        let report = check_consistency(inst, &sol);
        prop_assert!(report.is_ok(), "chain broke consistency: {report:?}");
        let optimum = solve_exact(inst, ExactLimits::default()).score;
        prop_assert!(
            sol.total_score() <= optimum,
            "chain scored {} above the optimum {optimum} on seed {seed}",
            sol.total_score()
        );
        prop_assert_eq!(&sol, &chain(), "nondeterministic");
    }
}
