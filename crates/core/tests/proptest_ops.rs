//! Failure-injection properties for the improvement primitives: no
//! sequence of attempts — profitable or not — may ever corrupt a
//! solution. The driver only commits improving attempts; these tests
//! apply *arbitrary* ones and require consistency to survive.

use fragalign_align::ScoreOracle;
use fragalign_core::improve::{apply_attempt, enumerate_attempts, prepare_site, Attempt, Budget};
use fragalign_core::MethodSet;
use fragalign_model::{check_consistency, MatchSet, Site};
use fragalign_sim::{generate, SimConfig};
use proptest::prelude::*;

fn budget() -> Budget {
    Budget {
        site_cap: 8,
        border_cap: 8,
        plugs_per_target: 2,
        borders_per_pair: 3,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Applying any enumerated attempt — in any order, regardless of
    /// gain — keeps the solution consistent and all match scores
    /// non-negative.
    #[test]
    fn arbitrary_attempt_sequences_preserve_consistency(
        seed in 0u64..500,
        picks in prop::collection::vec(any::<prop::sample::Index>(), 1..6),
    ) {
        let sim = generate(&SimConfig {
            regions: 10,
            h_frags: 3,
            m_frags: 3,
            loss_rate: 0.1,
            shuffles: 1,
            spurious: 2,
            seed,
            ..SimConfig::default()
        });
        let inst = &sim.instance;
        let oracle = ScoreOracle::new(inst);
        let mut set = MatchSet::new();
        for pick in picks {
            let attempts = enumerate_attempts(&oracle, &set, MethodSet::All, budget());
            if attempts.is_empty() {
                break;
            }
            let attempt = attempts[pick.index(attempts.len())];
            let mut next = set.clone();
            if apply_attempt(&mut next, &attempt, &oracle, 1).is_ok() {
                let report = check_consistency(inst, &next);
                prop_assert!(
                    report.is_ok(),
                    "attempt {attempt:?} broke consistency: {report:?}"
                );
                prop_assert!(next.iter().all(|(_, m)| m.score >= 0));
                set = next;
            }
        }
    }

    /// After a successful prepare, the site is free of matches.
    #[test]
    fn prepare_frees_the_site(
        seed in 0u64..200,
        frag_pick in any::<prop::sample::Index>(),
        lo in 0usize..8,
        len in 1usize..4,
    ) {
        let sim = generate(&SimConfig {
            regions: 12,
            h_frags: 3,
            m_frags: 3,
            seed,
            ..SimConfig::default()
        });
        let inst = &sim.instance;
        // Start from a non-trivial solution.
        let mut set = fragalign_core::solve_four_approx(&ScoreOracle::new(inst));
        let frags: Vec<_> = inst.all_frag_ids().collect();
        let frag = frags[frag_pick.index(frags.len())];
        let n = inst.frag_len(frag);
        if n == 0 {
            return Ok(());
        }
        let lo = lo % n;
        let hi = (lo + len).min(n);
        if lo >= hi {
            return Ok(());
        }
        let site = Site::new(frag, lo, hi);
        let oracle = ScoreOracle::new(inst);
        match prepare_site(&mut set, site, &oracle) {
            Err(_) => {} // hidden: preparation correctly refused
            Ok(_) => {
                // No remaining match may overlap the prepared site.
                for (_, m) in set.iter() {
                    if let Some(s) = m.site_on(frag) {
                        prop_assert!(!s.overlaps(&site), "{s:?} still overlaps {site:?}");
                    }
                }
                prop_assert!(check_consistency(inst, &set).is_ok());
            }
        }
    }

    /// The enumerator never proposes hidden targets or invalid
    /// containers.
    #[test]
    fn enumerated_attempts_are_well_formed(seed in 0u64..200) {
        let sim = generate(&SimConfig {
            regions: 10,
            h_frags: 3,
            m_frags: 3,
            seed,
            ..SimConfig::default()
        });
        let inst = &sim.instance;
        let oracle = ScoreOracle::new(inst);
        let set = fragalign_core::solve_four_approx(&ScoreOracle::new(inst));
        for attempt in enumerate_attempts(&oracle, &set, MethodSet::All, budget()) {
            match attempt {
                Attempt::I1 { target, container, .. } => {
                    prop_assert!(target.contained_in(&container));
                }
                Attempt::I2 { h_site, h_container, m_site, m_container } => {
                    prop_assert!(h_site.contained_in(&h_container));
                    prop_assert!(m_site.contained_in(&m_container));
                    prop_assert!(h_site.len() < inst.frag_len(h_site.frag));
                    prop_assert!(m_site.len() < inst.frag_len(m_site.frag));
                }
                Attempt::I3 { first, second } => {
                    prop_assert!(first.h_site.frag != second.h_site.frag);
                    prop_assert!(first.m_site.frag != second.m_site.frag);
                }
            }
        }
    }
}
