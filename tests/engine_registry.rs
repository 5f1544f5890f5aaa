//! The engine layer's contract: every registered solver is
//! bit-identical to the algorithm function it wraps, workspace reuse
//! is live for every solver (not just the improvement family),
//! the racing portfolio dominates its members deterministically, and
//! batch runs of the newly registered solvers (`one-csr`, `exact`,
//! `portfolio`, `chain`) stay identical across thread counts.

use fragalign::align::DpWorkspace;
use fragalign::model::{check_consistency, Instance, InstanceBuilder};
use fragalign::par::with_threads;
use fragalign::prelude::*;
use fragalign::sim::gen_batch;

/// Paper example plus a few seeded sim instances (multi-fragment).
fn multi_m_instances() -> Vec<(String, Instance)> {
    let mut out = vec![(
        "paper".to_owned(),
        fragalign::model::instance::paper_example(),
    )];
    for seed in [3u64, 17, 40] {
        let sim = fragalign::sim::generate(&SimConfig {
            regions: 8,
            h_frags: 3,
            m_frags: 3,
            loss_rate: 0.1,
            shuffles: 1,
            spurious: 2,
            seed,
            ..SimConfig::default()
        });
        out.push((format!("sim{seed}"), sim.instance));
    }
    out
}

/// Instances with exactly one M fragment, where `one-csr` applies.
fn single_m_instances() -> Vec<(String, Instance)> {
    let mut b = InstanceBuilder::new();
    b.h_frag("h1", &["a", "b"]);
    b.h_frag("h2", &["c"]);
    b.h_frag("h3", &["d"]);
    b.m_frag("m", &["p", "q", "r", "s"]);
    b.score("a", "p", 3);
    b.score("b", "q", 4);
    b.score("c", "r", 5);
    b.score("d", "qR", 6);
    let mut out = vec![("handmade".to_owned(), b.build())];
    for (i, sim) in gen_batch(
        &SimConfig {
            regions: 8,
            h_frags: 3,
            m_frags: 1,
            seed: 2002,
            ..SimConfig::default()
        },
        3,
    )
    .into_iter()
    .enumerate()
    {
        assert_eq!(sim.instance.m.len(), 1, "sim batch must stay single-M");
        out.push((format!("sim1m{i}"), sim.instance));
    }
    out
}

/// One registered solve with `engine` options through a caller-owned
/// workspace.
fn run(
    name: &str,
    inst: &Instance,
    engine: EngineOptions,
    ws: &mut DpWorkspace,
) -> (BatchSolution, SolveReport) {
    let opts = BatchOptions {
        solver: name.to_owned(),
        engine,
    };
    solve_single_traced(inst, &opts, ws, TraceHandle::disabled())
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn engine_solve(name: &str, inst: &Instance) -> MatchSet {
    run(
        name,
        inst,
        EngineOptions::default(),
        &mut DpWorkspace::new(),
    )
    .0
    .matches
}

#[test]
fn registered_solvers_match_their_legacy_entry_points() {
    // Each algorithm called directly on its own fresh oracle.
    for (iname, inst) in multi_m_instances() {
        let oracle = || ScoreOracle::new(&inst);
        let direct: Vec<(&str, MatchSet)> = vec![
            ("csr", csr_improve(&oracle(), false).matches),
            ("full", full_improve(&oracle(), false).matches),
            ("border", border_improve(&oracle(), false).matches),
            ("four", solve_four_approx(&oracle())),
            ("matching", border_matching_2approx(&oracle())),
            ("greedy", solve_greedy(&oracle())),
        ];
        for (name, expected) in direct {
            let got = engine_solve(name, &inst);
            assert_eq!(
                got, expected,
                "{name} diverged from a direct call on {iname}"
            );
            check_consistency(&inst, &got).unwrap_or_else(|e| panic!("{name}/{iname}: {e}"));
        }
        // Scaling flows through the engine options too.
        let scaled_opts = EngineOptions {
            scaling: true,
            ..EngineOptions::default()
        };
        let (scaled, _) = run("csr", &inst, scaled_opts, &mut DpWorkspace::new());
        assert_eq!(
            scaled.matches,
            csr_improve(&oracle(), true).matches,
            "scaled csr diverged on {iname}"
        );
    }
}

#[test]
fn one_csr_registered_and_matches_legacy() {
    for (iname, inst) in single_m_instances() {
        let got = engine_solve("one-csr", &inst);
        assert_eq!(
            got,
            solve_one_csr(&ScoreOracle::new(&inst)),
            "one-csr diverged from a direct call on {iname}"
        );
        check_consistency(&inst, &got).unwrap();
    }
}

#[test]
fn exact_registered_and_realises_the_optimum() {
    for (iname, inst) in multi_m_instances() {
        let sol = solve_exact(&inst, ExactLimits::default());
        let got = engine_solve("exact", &inst);
        check_consistency(&inst, &got).unwrap_or_else(|e| panic!("exact/{iname}: {e}"));
        assert_eq!(
            got.total_score(),
            sol.score,
            "exact match set must score the optimum on {iname}"
        );
        assert_eq!(got, fragalign::core::exact_matches(&inst, &sol), "{iname}");
    }
}

#[test]
fn chain_registered_consistent_and_bounded_by_exact() {
    // The chaining tier is a heuristic: always consistent, matches a
    // direct `solve_chain` call, and never beats the optimum where the
    // exact solver can certify one.
    for (iname, inst) in multi_m_instances() {
        let got = engine_solve("chain", &inst);
        check_consistency(&inst, &got).unwrap_or_else(|e| panic!("chain/{iname}: {e}"));
        assert_eq!(
            got,
            solve_chain(&ScoreOracle::new(&inst)),
            "chain diverged from a direct call on {iname}"
        );
        let optimum = solve_exact(&inst, ExactLimits::default()).score;
        assert!(
            got.total_score() <= optimum,
            "chain ({}) beat the certified optimum ({optimum}) on {iname}",
            got.total_score()
        );
    }
}

#[test]
fn chain_holds_a_score_ratio_floor_on_sim_defaults() {
    // Pinned quality floor: across default-config sim seeds, chaining
    // keeps at least 60% of the iterative-improvement score in
    // aggregate (measured 0.776 at pin time; the margin absorbs seed
    // drift). A regression below the floor means anchoring or window
    // selection broke.
    let mut chain_total = 0;
    let mut csr_total = 0;
    for seed in [1u64, 2, 3, 4, 5] {
        let inst = fragalign::sim::generate(&SimConfig {
            seed,
            ..SimConfig::default()
        })
        .instance;
        chain_total += engine_solve("chain", &inst).total_score();
        csr_total += engine_solve("csr", &inst).total_score();
    }
    assert!(csr_total > 0, "csr must score on sim defaults");
    assert!(
        chain_total * 10 >= csr_total * 6,
        "chain fell below the pinned 60% floor: chain {chain_total} vs csr {csr_total}"
    );
}

#[test]
fn portfolio_dominates_every_registered_solver_on_the_demo() {
    let inst = fragalign::model::instance::paper_example();
    let reg = SolverRegistry::global();
    let opts = EngineOptions::default();
    let (portfolio, report) = run("portfolio", &inst, opts, &mut DpWorkspace::new());
    check_consistency(&inst, &portfolio.matches).unwrap();
    for spec in reg.specs() {
        if spec.name == "portfolio" || spec.build().supports(&inst).is_err() {
            continue;
        }
        let (member, _) = run(spec.name, &inst, opts, &mut DpWorkspace::new());
        assert!(
            portfolio.score >= member.score,
            "portfolio ({}) lost to {} ({})",
            portfolio.score,
            spec.name,
            member.score
        );
    }
    // The paper optimum, with the tie broken by registry order: `csr`
    // reaches 11 and precedes every other 11-scorer.
    assert_eq!(portfolio.score, 11);
    assert_eq!(report.winner.as_deref(), Some("csr"));
    assert_eq!(portfolio.matches, engine_solve("csr", &inst));
}

#[test]
fn workspace_reuse_is_live_for_every_one_shot_solver() {
    // `four`, `greedy`, `matching` and `one-csr` take the run's
    // oracle, so a worker's warm workspace serves them across
    // instances. Solve the same instance twice through one workspace:
    // the second run must not grow a single buffer, and must match a
    // direct call of the algorithm on a fresh oracle.
    let inst = fragalign::sim::generate(&SimConfig {
        regions: 12,
        h_frags: 3,
        m_frags: 3,
        seed: 99,
        ..SimConfig::default()
    })
    .instance;
    let single = single_m_instances().swap_remove(0).1;
    type Algorithm = fn(&ScoreOracle<'_>) -> MatchSet;
    let direct: [(&str, Algorithm); 4] = [
        ("four", solve_four_approx),
        ("greedy", solve_greedy),
        ("matching", border_matching_2approx),
        ("one-csr", solve_one_csr),
    ];
    for (name, algorithm) in direct {
        let inst = if name == "one-csr" { &single } else { &inst };
        let mut ws = DpWorkspace::new();
        let opts = EngineOptions::default();
        let (cold, cold_report) = run(name, inst, opts, &mut ws);
        assert!(cold_report.dp_fills > 0, "{name}: no tracked fills");
        assert!(cold_report.dp_reallocs > 0, "{name}: cold run must grow");
        let (warm, warm_report) = run(name, inst, opts, &mut ws);
        assert_eq!(warm.matches, cold.matches, "{name}: reuse changed results");
        assert_eq!(
            warm_report.dp_reallocs, 0,
            "{name}: warm run may not allocate"
        );
        let fresh = algorithm(&ScoreOracle::new(inst));
        assert_eq!(fresh, cold.matches, "{name}: direct call differs");
    }
}

#[test]
fn newly_registered_solvers_batch_deterministically() {
    // one-csr over a single-M batch; exact and portfolio over a small
    // multi-M batch: on the real thread pool now, so this genuinely
    // exercises cross-thread steal schedules — 1 == 2 == 8 threads ==
    // sequential loop, bit for bit.
    let single_m: Vec<Instance> = single_m_instances().into_iter().map(|(_, i)| i).collect();
    let multi_m: Vec<Instance> = multi_m_instances().into_iter().map(|(_, i)| i).collect();
    for (name, instances) in [
        ("one-csr", &single_m),
        ("exact", &multi_m),
        ("portfolio", &multi_m),
        ("chain", &multi_m),
    ] {
        let opts = BatchOptions::new(name);
        let run_at = |threads: usize| {
            let insts = instances.clone();
            let opts = opts.clone();
            let runs = with_threads(threads, move || solve_batch_reports(&insts, &opts).unwrap()).0;
            runs.into_iter()
                .map(|(solution, _)| solution)
                .collect::<Vec<_>>()
        };
        let one_thread = run_at(1);
        for threads in [2, 8] {
            assert_eq!(
                one_thread,
                run_at(threads),
                "{name}: {threads}-thread pool changed results"
            );
        }
        let mut ws = DpWorkspace::new();
        let sequential: Vec<BatchSolution> = instances
            .iter()
            .map(|inst| {
                solve_single_traced(inst, &opts, &mut ws, TraceHandle::disabled())
                    .unwrap()
                    .0
            })
            .collect();
        assert_eq!(one_thread, sequential, "{name}: batch != sequential");
        for (inst, sol) in instances.iter().zip(&one_thread) {
            check_consistency(inst, &sol.matches).unwrap();
        }
    }
}

#[test]
fn readme_solver_table_is_generated_from_the_registry() {
    let readme = include_str!("../README.md");
    let table = SolverRegistry::global().markdown_table();
    assert!(
        readme.contains(&table),
        "README solver table drifted from the registry; regenerate it with \
         `fragalign solvers` (expected block:\n{table})"
    );
}
