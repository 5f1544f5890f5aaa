//! The improvement driver against the round loop in its plainest form.
//!
//! `reference` applies every enumerated attempt to a copy of the
//! current solution and commits the largest truncated gain, ties to
//! the lowest index. However the driver orders, skips or parallelises
//! its work, `improve` must return exactly what this loop returns: the
//! same matches, score, rounds and attempts, at any pool width.

use fragalign_align::ScoreOracle;
use fragalign_core::improve::{
    apply_attempt, enumerate_attempts, improve, trunc_total, ImproveConfig,
};
use fragalign_core::{CancelToken, MethodSet};
use fragalign_model::{Instance, MatchSet, Score};
use fragalign_sim::{generate, generate_soup, generate_torn, SimConfig, SoupConfig, TornConfig};

/// Run the reference loop from the empty set; returns the final set,
/// its committed rounds and the attempts enumerated over all rounds.
fn reference(
    oracle: &ScoreOracle<'_>,
    methods: MethodSet,
    quantum: Score,
) -> (MatchSet, usize, usize) {
    let budget = ImproveConfig::default().budget;
    let (mut current, mut rounds, mut attempts) = (MatchSet::new(), 0, 0);
    loop {
        let candidates = enumerate_attempts(oracle, &current, methods, budget);
        attempts += candidates.len();
        let base = trunc_total(&current, quantum);
        let mut best: Option<(Score, MatchSet)> = None;
        for attempt in &candidates {
            let mut next = current.clone();
            if apply_attempt(&mut next, attempt, oracle, quantum).is_err() {
                continue;
            }
            let gain = trunc_total(&next, quantum) - base;
            if gain > best.as_ref().map_or(0, |(g, _)| *g) {
                best = Some((gain, next));
            }
        }
        let Some((_, next)) = best else { break };
        current = next;
        rounds += 1;
    }
    (current, rounds, attempts)
}

/// Seeded clean, torn and soup sims, small enough for a debug build.
fn corpus() -> Vec<(String, Instance)> {
    let mut out = Vec::new();
    for seed in [3u64, 8, 13] {
        let sim = generate(&SimConfig {
            regions: 22,
            h_frags: 4,
            m_frags: 4,
            shuffles: 2,
            spurious: 3,
            seed,
            ..SimConfig::default()
        });
        out.push((format!("clean-s{seed}"), sim.instance));
    }
    let sim = generate(&SimConfig {
        regions: 30,
        h_frags: 6,
        m_frags: 6,
        shuffles: 3,
        spurious: 4,
        seed: 21,
        ..SimConfig::default()
    });
    out.push(("clean6x6-s21".to_owned(), sim.instance));
    let torn = generate_torn(&TornConfig {
        regions: 20,
        h_frags: 3,
        seed: 5,
        ..TornConfig::default()
    });
    out.push(("torn-s5".to_owned(), torn.instance));
    let soup = generate_soup(&SoupConfig {
        regions: 16,
        h_frags: 2,
        seed: 6,
        ..SoupConfig::default()
    });
    out.push(("soup-s6".to_owned(), soup.instance));
    out
}

#[test]
fn improve_matches_the_reference_loop() {
    for (label, inst) in corpus() {
        for methods in [MethodSet::FullOnly, MethodSet::BorderOnly, MethodSet::All] {
            for scaling in [false, true] {
                let mut expected = None;
                for threads in [1, 2] {
                    let config = ImproveConfig {
                        methods,
                        scaling,
                        ..ImproveConfig::default()
                    };
                    let (got, _) = fragalign_par::with_threads(threads, || {
                        improve(
                            &ScoreOracle::new(&inst),
                            config,
                            MatchSet::new(),
                            &CancelToken::never(),
                        )
                    });
                    let (matches, rounds, attempts) = expected.get_or_insert_with(|| {
                        reference(&ScoreOracle::new(&inst), methods, got.quantum)
                    });
                    let case = format!("{label} {methods:?} scaling={scaling} threads={threads}");
                    assert_eq!(&got.matches, matches, "{case}");
                    assert_eq!(got.score, matches.total_score(), "{case}");
                    assert_eq!(got.rounds, *rounds, "{case}");
                    assert_eq!(got.attempts, *attempts, "{case}");
                    assert!(!got.cancelled, "{case}");
                }
            }
        }
    }
}
