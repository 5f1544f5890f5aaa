//! Failure-injection properties for the improvement primitives: no
//! sequence of attempts — profitable or not — may ever corrupt a
//! solution, and no attempt may gain more than its bound. The driver
//! only commits improving attempts; these tests apply *arbitrary* ones
//! and require consistency to survive.

use fragalign_align::ScoreOracle;
use fragalign_core::improve::{
    apply_attempt, attempt_bound, enumerate_attempts, prepare_site, trunc_total, Attempt, Budget,
    I2Bundle,
};
use fragalign_core::MethodSet;
use fragalign_model::{check_consistency, FragId, Instance, Match, MatchSet, Orient, Score, Site};
use fragalign_sim::{generate, generate_soup, generate_torn, SimConfig, SoupConfig, TornConfig};
use proptest::prelude::*;

/// A clean sim of 20–24 regions (`shape` 0), a torn one (1) or a read
/// soup (2).
fn sim(shape: usize, seed: u64) -> Instance {
    match shape {
        0 => {
            generate(&SimConfig {
                regions: 20 + seed as usize % 5,
                shuffles: 2,
                spurious: 3,
                seed,
                ..SimConfig::default()
            })
            .instance
        }
        1 => {
            generate_torn(&TornConfig {
                seed,
                ..TornConfig::default()
            })
            .instance
        }
        _ => {
            generate_soup(&SoupConfig {
                seed,
                ..SoupConfig::default()
            })
            .instance
        }
    }
}

fn budget() -> Budget {
    Budget {
        site_cap: 8,
        border_cap: 8,
        plugs_per_target: 2,
        borders_per_pair: 3,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Applying any enumerated attempt — in any order, regardless of
    /// gain — keeps the solution consistent and all match scores
    /// non-negative. At every visited state, every attempt's gain bound
    /// is `None` exactly when the attempt fails to apply, and otherwise
    /// at least its truncated gain. A greedy walk moves to the best
    /// attempt, visiting the states the driver does; the others move to
    /// a picked one.
    #[test]
    fn arbitrary_attempt_sequences_preserve_consistency(
        shape in 0usize..3,
        seed in 0u64..500,
        quantum in prop::sample::select(vec![1 as Score, 7]),
        greedy in any::<bool>(),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 1..6),
    ) {
        let inst = &sim(shape, seed);
        let oracle = ScoreOracle::new(inst);
        let mut set = MatchSet::new();
        for pick in picks {
            let attempts = enumerate_attempts(&oracle, &set, MethodSet::All, Budget::default());
            if attempts.is_empty() {
                break;
            }
            let pick = pick.index(attempts.len());
            let base = trunc_total(&set, quantum);
            let mut picked = None;
            let mut best_gain = 0;
            for (idx, attempt) in attempts.iter().enumerate() {
                let bound = attempt_bound(&set, attempt, &oracle, quantum);
                let mut next = set.clone();
                let applied = apply_attempt(&mut next, attempt, &oracle, quantum);
                prop_assert_eq!(
                    bound.is_some(),
                    applied.is_ok(),
                    "{:?}: bound {:?}, applied {:?}",
                    attempt,
                    bound,
                    applied
                );
                let Some(bound) = bound else { continue };
                let gain = trunc_total(&next, quantum) - base;
                prop_assert!(gain <= bound, "{attempt:?}: gain {gain} > bound {bound}");
                let report = check_consistency(inst, &next);
                prop_assert!(
                    report.is_ok(),
                    "attempt {attempt:?} broke consistency: {report:?}"
                );
                prop_assert!(next.iter().all(|(_, m)| m.score >= 0));
                if greedy && gain > best_gain {
                    best_gain = gain;
                    picked = Some(next);
                } else if !greedy && idx == pick {
                    picked = Some(next);
                }
            }
            if let Some(next) = picked {
                set = next;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
                Attempt::I2(b) => {
                    prop_assert!(b.h_site.contained_in(&b.h_container));
                    prop_assert!(b.m_site.contained_in(&b.m_container));
                    prop_assert!(b.h_site.len() < inst.frag_len(b.h_site.frag));
                    prop_assert!(b.m_site.len() < inst.frag_len(b.m_site.frag));
                }
                Attempt::I3 { first, second } => {
                    prop_assert!(first.h_site.frag != second.h_site.frag);
                    prop_assert!(first.m_site.frag != second.m_site.frag);
                }
            }
        }
    }
}

/// An I2 attempt's M zones mix the container leftover with sites freed
/// by preparing the H container, and the two can overlap. The refill
/// must treat overlapping zones as one, or it places two plugs on
/// overlapping sites (here M0[0..2) and M0[1..2)).
#[test]
fn refill_merges_overlapping_zones() {
    let sim = generate(&SimConfig {
        regions: 20,
        h_frags: 3,
        m_frags: 3,
        loss_rate: 0.1,
        shuffles: 2,
        spurious: 3,
        seed: 7,
        ..SimConfig::default()
    });
    let inst = &sim.instance;
    let oracle = ScoreOracle::new(inst);
    let (h0, h2, m0) = (FragId::h(0), FragId::h(2), FragId::m(0));
    let set = MatchSet::from_matches(vec![
        Match::new(
            Site::new(h0, 0, 12),
            Site::new(m0, 10, 13),
            Orient::Same,
            319,
        ),
        Match::new(Site::new(h2, 0, 4), Site::new(m0, 1, 4), Orient::Same, 33),
    ]);
    check_consistency(inst, &set).unwrap();
    let attempt = Attempt::I2(I2Bundle {
        h_site: Site::new(h2, 0, 1),
        h_container: Site::new(h2, 0, 4),
        m_site: Site::new(m0, 2, 13),
        m_container: Site::new(m0, 0, 13),
    });
    let mut next = set.clone();
    apply_attempt(&mut next, &attempt, &oracle, 1).unwrap();
    if let Err(e) = check_consistency(inst, &next) {
        panic!("{e:?}: {next:?}");
    }
}
