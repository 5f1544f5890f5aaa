//! The improvement family's results pinned byte for byte: `full`,
//! `csr` and `border` on seeded sims, next to the `greedy` baseline
//! that scores the same staircases, written as match lists with the
//! score, committed rounds, attempts and interval tables filled of
//! every run. Changes to the attempt path (site preparation, plugging,
//! the TPA refill) or to how staircases are scored must leave
//! `tests/golden/improve.txt` untouched.
//!
//! Beside it, `tests/golden/layout.txt` pins the solvers that lay a
//! conjecture pair out and derive their matches from it (`four`,
//! `chain`, `exact`) and the 1-CSR reduction that `four` runs on each
//! side (`one-csr`), over the same instances plus three single-M sims.
//! Each header also carries the run's border-table misses and DP
//! fills; a solver that refuses an instance writes `unsupported`.
//!
//! Re-bless with `BLESS=1 cargo test -p fragalign --test
//! improve_golden` only when a change is meant to alter results.

use fragalign::model::Instance;
use fragalign::prelude::*;
use std::fmt::Write as _;

const SOLVERS: [&str; 4] = ["full", "csr", "border", "greedy"];
const LAYOUT_SOLVERS: [&str; 4] = ["four", "chain", "exact", "one-csr"];

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

/// Clean sims with a single M fragment, where `one-csr` applies.
fn single_m_instances() -> Vec<(String, Instance)> {
    [(16, 3, 7u64), (24, 4, 31), (30, 5, 77)]
        .into_iter()
        .map(|(regions, h_frags, seed)| {
            let label = format!("clean{regions}-{h_frags}x1-s{seed}");
            (label, clean(regions, h_frags, 1, 2, seed))
        })
        .collect()
}

fn site(s: Site) -> String {
    let species = match s.frag.species {
        Species::H => 'H',
        Species::M => 'M',
    };
    format!("{species}{}[{}..{})", s.frag.index, s.lo, s.hi)
}

/// Every solver of `solvers` on every instance: a header line of the
/// score and the counters `header` picks, then the match list.
fn render(
    instances: &[(String, Instance)],
    solvers: &[&str],
    header: fn(&SolveReport) -> String,
) -> String {
    let mut out = String::new();
    for (label, inst) in instances {
        for &solver in solvers {
            let mut ws = DpWorkspace::new();
            let (run, r) = match solve_single_traced(
                inst,
                &BatchOptions::new(solver),
                &mut ws,
                TraceHandle::disabled(),
            ) {
                Ok(done) => done,
                Err(EngineError::Unsupported { .. }) => {
                    writeln!(out, "{label} {solver}: unsupported").unwrap();
                    continue;
                }
                Err(e) => panic!("{solver} on {label}: {e}"),
            };
            writeln!(out, "{label} {solver}: {}", header(&r)).unwrap();
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

/// Compare `got` with the golden file `name`, or bless it under
/// `BLESS=1`.
fn check_golden(name: &str, got: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&path, got).expect("bless golden");
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} (run with BLESS=1): {e}", path.display()));
    assert_eq!(got, golden, "{name} drifted from the golden");
}

#[test]
fn improvement_results_match_the_golden() {
    let got = render(&instances(), &SOLVERS, |r| {
        format!(
            "score {} rounds {} attempts {} table_misses {} matches {}",
            r.score, r.rounds, r.attempts, r.table_misses, r.matches
        )
    });
    check_golden("improve.txt", &got);
}

#[test]
fn layout_results_match_the_golden() {
    let mut all = instances();
    all.extend(single_m_instances());
    let got = render(&all, &LAYOUT_SOLVERS, |r| {
        format!(
            "score {} rounds {} attempts {} table_misses {} pair_misses {} dp_fills {} matches {}",
            r.score, r.rounds, r.attempts, r.table_misses, r.pair_misses, r.dp_fills, r.matches
        )
    });
    check_golden("layout.txt", &got);
}
