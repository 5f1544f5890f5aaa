//! Properties of the assignment-relaxation score upper bound.
//!
//! The portfolio's retirement board trusts `score_upper_bound`
//! blindly: a racer is cancelled the moment another racer reaches it.
//! An unsound bound therefore silently discards correct work, so the
//! bound is pinned from both sides — never below the certified
//! optimum of the exhaustive solver, never above the naive
//! min-mass × σ_max bound it replaced, and strictly below that naive
//! bound on the simulator's benchmark-scale grid.

use fragalign_core::{solve_exact, ExactLimits};
use fragalign_sim::{generate, SimConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Certified optimum ≤ assignment bound ≤ naive bound, across
    /// randomly seeded instances small enough for `exact`.
    #[test]
    fn assignment_bound_sound_and_no_looser_than_naive(
        seed in 0u64..500,
        regions in 6usize..=10,
        h_frags in 2usize..=3,
        m_frags in 2usize..=3,
        default_score in -2i64..=1,
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
        let mut inst = sim.instance;
        // Cover non-zero defaults too: every unlisted pair then scores
        // `default_score`, which both bounds must absorb.
        inst.sigma.default_score = default_score;
        let bound = inst.score_upper_bound();
        let naive = inst.score_upper_bound_naive();
        prop_assert!(
            bound <= naive,
            "assignment bound {bound} looser than naive {naive} on seed {seed}"
        );
        let optimum = solve_exact(&inst, ExactLimits::default()).score;
        prop_assert!(
            optimum <= bound,
            "bound {bound} below certified optimum {optimum} on seed {seed} — unsound"
        );
    }
}

/// Strictly tighter than the naive bound on every instance of the
/// grid regions 60/120/240 × 4/8 fragments per species × seeds 1–3,
/// built with `fragalign_bench::sim_instance`'s configuration.
#[test]
fn assignment_bound_strictly_tighter_than_naive_on_the_sim_grid() {
    for regions in [60usize, 120, 240] {
        for frags in [4usize, 8] {
            for seed in 1..=3u64 {
                let inst = generate(&SimConfig {
                    regions,
                    h_frags: frags,
                    m_frags: frags,
                    loss_rate: 0.1,
                    shuffles: 2,
                    spurious: regions / 8,
                    seed,
                    ..SimConfig::default()
                })
                .instance;
                let bound = inst.score_upper_bound();
                let naive = inst.score_upper_bound_naive();
                assert!(
                    bound < naive,
                    "assignment bound {bound} not below naive {naive} \
                     (regions={regions} frags={frags} seed={seed})"
                );
            }
        }
    }
}
