//! The improvement family's results pinned byte for byte: `full`,
//! `csr` and `border` on seeded sims, written as match lists with the
//! score, committed rounds and attempts of every run. Changes to the
//! attempt path (site preparation, plugging, the TPA refill) must leave
//! `tests/golden/improve.txt` untouched. Re-bless with `BLESS=1 cargo
//! test -p fragalign --test improve_golden` only when a change is meant
//! to alter results.

use fragalign::model::Instance;
use fragalign::prelude::*;
use std::fmt::Write as _;

const SOLVERS: [&str; 3] = ["full", "csr", "border"];

fn clean(regions: usize, h_frags: usize, m_frags: usize, spurious: usize, seed: u64) -> Instance {
    generate(&SimConfig {
        regions,
        h_frags,
        m_frags,
        loss_rate: 0.1,
        shuffles: 2,
        spurious,
        seed,
        ..SimConfig::default()
    })
    .instance
}

/// The paper example, small clean sims, one torn and one read-soup
/// instance, and one instance of the benchmark's genome-scale shape
/// (88 regions over 6 H and 6 M fragments).
fn instances() -> Vec<(String, Instance)> {
    let mut out = vec![(
        "paper".to_owned(),
        fragalign::model::instance::paper_example(),
    )];
    for seed in [5u64, 23, 61] {
        out.push((format!("clean20-3x3-s{seed}"), clean(20, 3, 3, 2, seed)));
    }
    out.push((
        "torn36-s9".to_owned(),
        generate_torn(&TornConfig {
            regions: 36,
            h_frags: 3,
            tear_rate: 0.35,
            seed: 9,
            ..TornConfig::default()
        })
        .instance,
    ));
    out.push((
        "soup30-s11".to_owned(),
        generate_soup(&SoupConfig {
            regions: 30,
            h_frags: 3,
            read_len: 4,
            coverage: 2.0,
            seed: 11,
            ..SoupConfig::default()
        })
        .instance,
    ));
    out.push(("genome88-6x6-s501".to_owned(), clean(88, 6, 6, 4, 501)));
    out
}

fn site(s: Site) -> String {
    let species = match s.frag.species {
        Species::H => 'H',
        Species::M => 'M',
    };
    format!("{species}{}[{}..{})", s.frag.index, s.lo, s.hi)
}

fn render() -> String {
    let registry = SolverRegistry::global();
    let mut out = String::new();
    for (label, inst) in instances() {
        for solver in SOLVERS {
            let run = registry
                .solve(solver, &inst, EngineOptions::default())
                .unwrap_or_else(|e| panic!("{solver} on {label}: {e}"));
            let r = &run.report;
            writeln!(
                out,
                "{label} {solver}: score {} rounds {} attempts {} matches {}",
                r.score, r.rounds, r.attempts, r.matches
            )
            .unwrap();
            for (_, m) in run.matches.iter() {
                writeln!(
                    out,
                    "  {} ~ {} {:?} {}",
                    site(m.h),
                    site(m.m),
                    m.orient,
                    m.score
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn improvement_results_match_the_golden() {
    let got = render();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/improve.txt");
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&path, &got).expect("bless golden");
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} (run with BLESS=1): {e}", path.display()));
    assert_eq!(got, golden, "improvement results drifted from the golden");
}
