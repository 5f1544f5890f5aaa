//! Generator-validity properties for the adversarial channels: every
//! torn / soup / degenerate instance must be a *valid* CSR instance
//! (solvers may reject shapes via `supports`, never crash on invalid
//! data), survive a serde round trip bit-identically, and regenerate
//! bit-identically from its seed. The batch builders must be
//! prefix-stable, and the batch pipeline must return bit-identical
//! results at any thread width.

use fragalign_core::{solve_batch_reports, BatchOptions};
use fragalign_sim::{
    evaluate_recovery, gen_batch, generate_degenerate, generate_soup, generate_torn, soup_batch,
    torn_batch, DegenerateShape, SimConfig, SimInstance, SoupConfig, TornConfig,
};
use proptest::prelude::*;

/// Canonical JSON of an instance — the comparison key for
/// "bit-identical" below (Instance carries no `PartialEq`; the wire
/// form is the contract anyway).
fn canon(sim: &SimInstance) -> String {
    serde_json::to_string(&sim.instance).expect("instance serialises")
}

fn torn_cfg(regions: usize, tear: f64, drop: f64, dup: f64, seed: u64) -> TornConfig {
    TornConfig {
        regions,
        tear_rate: tear,
        drop_rate: drop,
        dup_rate: dup,
        seed,
        ..TornConfig::default()
    }
}

fn soup_cfg(regions: usize, read_len: usize, coverage: f64, sub: f64, seed: u64) -> SoupConfig {
    SoupConfig {
        regions,
        read_len,
        coverage,
        sub_rate: sub,
        seed,
        ..SoupConfig::default()
    }
}

proptest! {
    /// Torn instances validate, round-trip through JSON, regenerate
    /// deterministically, and their ground truth drives
    /// `evaluate_recovery` without panicking.
    #[test]
    fn torn_instances_are_valid(
        seed in 0u64..10_000,
        regions in 1usize..40,
        tear in 0.0f64..1.0,
        drop in 0.0f64..0.9,
        dup in 0.0f64..0.9,
    ) {
        let cfg = torn_cfg(regions, tear, drop, dup, seed);
        let sim = generate_torn(&cfg);
        prop_assert!(sim.instance.validate().is_ok(), "invalid torn instance");
        prop_assert_eq!(canon(&sim), canon(&generate_torn(&cfg)), "torn not deterministic");

        let mut back: fragalign_model::Instance =
            serde_json::from_str(&canon(&sim)).expect("round trip parses");
        back.alphabet.rebuild_index();
        prop_assert!(back.validate().is_ok());
        prop_assert_eq!(canon(&sim), serde_json::to_string(&back).unwrap());

        // The ground-truth hook accepts any consistent solution.
        let report = evaluate_recovery(&sim, &fragalign_model::MatchSet::new());
        prop_assert!(report.pair_recall >= 0.0 && report.pair_recall <= 1.0);
    }

    /// Soup instances validate, round-trip, and regenerate
    /// deterministically.
    #[test]
    fn soup_instances_are_valid(
        seed in 0u64..10_000,
        regions in 1usize..32,
        read_len in 1usize..8,
        coverage in 0.5f64..4.0,
        sub in 0.0f64..0.8,
    ) {
        let cfg = soup_cfg(regions, read_len, coverage, sub, seed);
        let sim = generate_soup(&cfg);
        prop_assert!(sim.instance.validate().is_ok(), "invalid soup instance");
        prop_assert_eq!(canon(&sim), canon(&generate_soup(&cfg)), "soup not deterministic");

        let mut back: fragalign_model::Instance =
            serde_json::from_str(&canon(&sim)).expect("round trip parses");
        back.alphabet.rebuild_index();
        prop_assert!(back.validate().is_ok());
        prop_assert_eq!(canon(&sim), serde_json::to_string(&back).unwrap());
    }

    /// Every degenerate shape validates at every region count,
    /// including the 1–3 region corner cases.
    #[test]
    fn degenerate_shapes_are_valid(seed in 0u64..10_000, regions in 1usize..48) {
        for shape in [
            DegenerateShape::MegaFragment,
            DegenerateShape::AllSingletons,
            DegenerateShape::SigmaDesert,
        ] {
            let sim = generate_degenerate(shape, regions, seed);
            prop_assert!(sim.instance.validate().is_ok(), "invalid {shape:?} instance");
            prop_assert_eq!(
                canon(&sim),
                canon(&generate_degenerate(shape, regions, seed)),
                "degenerate {:?} not deterministic", shape
            );
        }
    }

    /// Batch builders are prefix-stable: growing a batch never
    /// changes the instances already generated. (This pins the
    /// `seed + index` derivation — a regression here silently
    /// invalidates every seed-addressed experiment grid.)
    #[test]
    fn batches_are_prefix_stable(
        seed in 0u64..10_000,
        prefix in 1usize..5,
        extra in 1usize..4,
    ) {
        let torn = torn_cfg(12, 0.4, 0.2, 0.1, seed);
        let long = torn_batch(&torn, prefix + extra);
        for (a, b) in torn_batch(&torn, prefix).iter().zip(&long) {
            prop_assert_eq!(canon(a), canon(b), "torn batch prefix drifted");
        }
        let soup = soup_cfg(10, 3, 1.5, 0.2, seed);
        let long = soup_batch(&soup, prefix + extra);
        for (a, b) in soup_batch(&soup, prefix).iter().zip(&long) {
            prop_assert_eq!(canon(a), canon(b), "soup batch prefix drifted");
        }
        let clean = SimConfig { regions: 8, seed, ..SimConfig::default() };
        let long = gen_batch(&clean, prefix + extra);
        for (a, b) in gen_batch(&clean, prefix).iter().zip(&long) {
            prop_assert_eq!(canon(a), canon(b), "clean batch prefix drifted");
        }
    }
}

proptest! {
    // Each case solves a batch three times; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The batch pipeline returns bit-identical solutions for
    /// adversarial instances at 1, 2 and 8 threads.
    #[test]
    fn adversarial_batches_are_thread_invariant(seed in 0u64..1_000) {
        let mut instances: Vec<fragalign_model::Instance> = Vec::new();
        instances.extend(torn_batch(&torn_cfg(10, 0.4, 0.2, 0.1, seed), 2).into_iter().map(|s| s.instance));
        instances.extend(soup_batch(&soup_cfg(8, 3, 1.5, 0.2, seed), 2).into_iter().map(|s| s.instance));
        let solve_at = |threads: usize| {
            let mut opts = BatchOptions::new("auto");
            opts.engine.threads = threads;
            solve_batch_reports(&instances, &opts)
                .expect("batch solves")
                .into_iter()
                .map(|(sol, _)| (sol.score, sol.matches))
                .collect::<Vec<_>>()
        };
        let one = solve_at(1);
        prop_assert_eq!(&one, &solve_at(2), "2-thread batch diverged");
        prop_assert_eq!(&one, &solve_at(8), "8-thread batch diverged");
    }
}
