//! Differential stress net over the adversarial channels: on small
//! torn / soup / degenerate instances every registered solver must
//! stay consistent and never beat the certified optimum where the
//! exact solver admits the instance; on the channel *defaults* each
//! solver holds a pinned score-ratio floor; and the `auto` solver is
//! bit-identical to solving with the router table's choice directly —
//! the contract that makes `--algo auto` and the service's default
//! solver observable and reproducible.

use fragalign::model::{check_consistency, Instance};
use fragalign::prelude::*;
use fragalign::sim::{
    generate_degenerate, generate_soup, generate_torn, soup_batch, torn_batch, DegenerateShape,
    SoupConfig, TornConfig,
};
use proptest::prelude::*;

/// One registered solve with default engine options.
fn solve(name: &str, inst: &Instance) -> (BatchSolution, SolveReport) {
    let mut ws = DpWorkspace::new();
    solve_single_traced(
        inst,
        &BatchOptions::new(name),
        &mut ws,
        TraceHandle::disabled(),
    )
    .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Torn instance small enough that the exact solver usually admits it
/// (few pieces, well under the region cap).
fn small_torn(seed: u64) -> Instance {
    generate_torn(&TornConfig {
        regions: 6,
        h_frags: 2,
        tear_rate: 0.4,
        drop_rate: 0.2,
        dup_rate: 0.2,
        seed,
        ..TornConfig::default()
    })
    .instance
}

/// Soup instance with at most a handful of reads.
fn small_soup(seed: u64) -> Instance {
    generate_soup(&SoupConfig {
        regions: 6,
        h_frags: 2,
        read_len: 3,
        coverage: 1.0,
        sub_rate: 0.2,
        seed,
        ..SoupConfig::default()
    })
    .instance
}

/// All three degenerate shapes at a frag count the exact solver can
/// still certify.
fn small_degenerates(seed: u64) -> Vec<(String, Instance)> {
    [
        DegenerateShape::MegaFragment,
        DegenerateShape::AllSingletons,
        DegenerateShape::SigmaDesert,
    ]
    .into_iter()
    .map(|shape| {
        (
            format!("{shape:?}{seed}"),
            generate_degenerate(shape, 4, seed).instance,
        )
    })
    .collect()
}

proptest! {
    // Every case sweeps the full registry (exact included) over five
    // instances; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Differential bound: on small adversarial instances, every
    /// registered solver that supports the shape returns a consistent
    /// solution scoring at most the certified optimum.
    #[test]
    fn no_solver_beats_the_certified_optimum_on_adversarial_shapes(seed in 0u64..5_000) {
        let mut instances = vec![
            (format!("torn{seed}"), small_torn(seed)),
            (format!("soup{seed}"), small_soup(seed)),
        ];
        instances.extend(small_degenerates(seed));
        let reg = SolverRegistry::global();
        let opts = EngineOptions::default();
        for (iname, inst) in &instances {
            let optimum = ExactLimits::default()
                .check(inst)
                .is_ok()
                .then(|| solve_exact(inst, ExactLimits::default()).score);
            for spec in reg.specs() {
                if spec.build().supports(inst, &opts).is_err() {
                    continue;
                }
                let (run, _) = solve(spec.name, inst);
                check_consistency(inst, &run.matches)
                    .unwrap_or_else(|e| panic!("{}/{iname}: {e}", spec.name));
                prop_assert_eq!(
                    run.score,
                    run.matches.total_score(),
                    "{}/{}: reported score diverges from the match set",
                    spec.name, iname
                );
                if let Some(optimum) = optimum {
                    prop_assert!(
                        run.score <= optimum,
                        "{}/{}: {} beats the certified optimum {}",
                        spec.name, iname, run.score, optimum
                    );
                }
            }
        }
    }
}

/// Aggregate best-known score per instance over every supported
/// registered solver (the portfolio's ceiling), plus each solver's own
/// aggregate — the data behind the pinned floors.
fn sweep(instances: &[Instance]) -> (i64, Vec<(&'static str, i64)>) {
    let reg = SolverRegistry::global();
    let opts = EngineOptions::default();
    let mut totals: Vec<(&'static str, i64)> = reg.specs().iter().map(|s| (s.name, 0i64)).collect();
    let mut best_total = 0i64;
    for inst in instances {
        let mut best = 0i64;
        for (i, spec) in reg.specs().iter().enumerate() {
            if spec.build().supports(inst, &opts).is_err() {
                continue;
            }
            let score = solve(spec.name, inst).0.score;
            totals[i].1 += score;
            best = best.max(score);
        }
        best_total += best;
    }
    (best_total, totals)
}

#[test]
fn solvers_hold_pinned_score_floors_on_torn_defaults() {
    // Floors pinned from the measured aggregate ratios on the default
    // torn channel (4 seeds), with margin for seed drift. A solver
    // falling through its floor has regressed on duplicated /
    // reverse-oriented fragments, not just lost a race.
    let instances: Vec<Instance> = torn_batch(&TornConfig::default(), 4)
        .into_iter()
        .map(|s| s.instance)
        .collect();
    let (best, totals) = sweep(&instances);
    assert!(best > 0, "torn defaults must admit positive scores");
    assert_floors(
        best,
        &totals,
        &[
            ("csr", 0.95),
            ("full", 0.95),
            ("border", 0.75),
            ("four", 0.80),
            ("matching", 0.40),
            ("greedy", 0.60),
            ("chain", 0.30),
            ("portfolio", 1.0),
            ("auto", 0.95),
        ],
        "torn",
    );
}

#[test]
fn solvers_hold_pinned_score_floors_on_soup_defaults() {
    let instances: Vec<Instance> = soup_batch(&SoupConfig::default(), 4)
        .into_iter()
        .map(|s| s.instance)
        .collect();
    let (best, totals) = sweep(&instances);
    assert!(best > 0, "soup defaults must admit positive scores");
    assert_floors(
        best,
        &totals,
        &[
            ("csr", 0.90),
            ("full", 0.90),
            ("border", 0.75),
            ("four", 0.85),
            ("matching", 0.40),
            ("greedy", 0.50),
            ("chain", 0.30),
            ("portfolio", 1.0),
            ("auto", 0.85),
        ],
        "soup",
    );
}

fn assert_floors(best: i64, totals: &[(&'static str, i64)], floors: &[(&str, f64)], tag: &str) {
    for (name, floor) in floors {
        let total = totals
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from the registry"))
            .1;
        let ratio = total as f64 / best as f64;
        assert!(
            ratio >= *floor,
            "{name} fell through its pinned {tag} floor: ratio {ratio:.3} < {floor}"
        );
    }
}

#[test]
fn auto_is_bit_identical_to_the_routed_table_choice() {
    // The acceptance contract for `--algo auto` and the service's
    // default solver: `auto` must return exactly what solving with the
    // shipped router table's choice returns, and must say which
    // backend ran via `routed_by`. The instance set deliberately spans
    // the table: small clean / torn / soup shapes route to `csr`,
    // shredded torn to `four`, σ-deserts to `full`.
    let mut instances = vec![
        (
            "paper".to_owned(),
            fragalign::model::instance::paper_example(),
        ),
        ("torn-default".to_owned(), {
            generate_torn(&TornConfig::default()).instance
        }),
        ("soup-default".to_owned(), {
            generate_soup(&SoupConfig::default()).instance
        }),
        ("torn-shredded".to_owned(), {
            generate_torn(&TornConfig {
                regions: 48,
                h_frags: 6,
                tear_rate: 0.6,
                dup_rate: 0.25,
                seed: 7,
                ..TornConfig::default()
            })
            .instance
        }),
        (
            "sigma-desert".to_owned(),
            generate_degenerate(DegenerateShape::SigmaDesert, 24, 40).instance,
        ),
    ];
    instances.extend(small_degenerates(9));
    let router = Router::default();
    let opts = EngineOptions::default();
    let mut routes_seen = std::collections::BTreeSet::new();
    for (iname, inst) in &instances {
        let choice = router.route(inst, &opts);
        routes_seen.insert(choice);
        let (auto, auto_report) = solve("auto", inst);
        let (direct, _) = solve(choice, inst);
        assert_eq!(
            auto.matches, direct.matches,
            "auto diverged from routed `{choice}` on {iname}"
        );
        assert_eq!(auto.score, direct.score, "{iname}: score drift");
        assert_eq!(
            auto_report.routed_by.as_deref(),
            Some(choice),
            "{iname}: routed_by must name the table choice"
        );
    }
    assert!(
        routes_seen.len() >= 2,
        "instance set no longer spans the routing table (all routed to {routes_seen:?})"
    );
}

#[test]
fn portfolio_dominates_every_member_on_adversarial_shapes() {
    // The racing portfolio's dominance guarantee must survive the
    // adversarial channels, not just clean sims.
    let reg = SolverRegistry::global();
    let opts = EngineOptions::default();
    for (iname, inst) in [
        ("torn", small_torn(11)),
        ("soup", small_soup(12)),
        (
            "desert",
            generate_degenerate(DegenerateShape::SigmaDesert, 8, 13).instance,
        ),
    ] {
        let (portfolio, _) = solve("portfolio", &inst);
        check_consistency(&inst, &portfolio.matches).unwrap();
        for spec in reg.specs() {
            if !spec.in_portfolio || spec.build().supports(&inst, &opts).is_err() {
                continue;
            }
            let (run, _) = solve(spec.name, &inst);
            assert!(
                portfolio.score >= run.score,
                "portfolio ({}) lost to {} ({}) on {iname}",
                portfolio.score,
                spec.name,
                run.score
            );
        }
    }
}
