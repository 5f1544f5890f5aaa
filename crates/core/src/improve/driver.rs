//! The improvement loop: enumerate → bound (in parallel) → evaluate in
//! bound order → commit.

use super::enumerate::{enumerate_attempts, Budget};
use super::ops::{apply_attempt, attempt_bound, trunc_total};
use super::MethodSet;
use crate::cancel::CancelToken;
use fragalign_align::ScoreOracle;
use fragalign_model::{check_consistency, MatchSet, Score};
use rayon::prelude::*;
use std::cmp::Reverse;

/// Which improving attempt a round commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Commit {
    /// The largest gain of the round, ties to the lowest index.
    Best,
    /// The lowest-index attempt with a positive gain (ablation D1).
    FirstPositive,
}

/// Configuration of the iterative improvement driver.
#[derive(Clone, Copy, Debug)]
pub struct ImproveConfig {
    /// Which improvement methods run.
    pub methods: MethodSet,
    /// Enable the §4.1 scaling step: truncate match scores to
    /// multiples of `X/k²` where `X` is the 4-approximation score,
    /// bounding the number of rounds by `4k²`. `None` runs unscaled
    /// (exact gains, potentially more rounds).
    pub scaling: bool,
    /// Caps on the attempts one round enumerates.
    pub budget: Budget,
    /// Which improving attempt a round commits.
    pub commit: Commit,
}

impl Default for ImproveConfig {
    fn default() -> Self {
        ImproveConfig {
            methods: MethodSet::All,
            scaling: false,
            budget: Budget::default(),
            commit: Commit::Best,
        }
    }
}

/// Outcome of an improvement run.
#[derive(Clone, Debug)]
pub struct ImproveResult {
    /// The final consistent match set.
    pub matches: MatchSet,
    /// Its true (untruncated) total score.
    pub score: Score,
    /// Number of committed improvements.
    pub rounds: usize,
    /// Attempts enumerated over all rounds.
    pub attempts: usize,
    /// Attempts whose TPA refills ran over all rounds: the rest were
    /// skipped on their gain bound.
    pub evaluated: usize,
    /// The scaling quantum used (1 = unscaled).
    pub quantum: Score,
    /// Whether the run stopped early on its cancellation token;
    /// `matches` is then the best committed state so far (the loop is
    /// anytime: every round boundary holds a consistent solution).
    pub cancelled: bool,
}

/// Run iterative improvement from `initial` (the paper starts from the
/// empty set; seeding with a 4-approximation is a supported variant).
/// The oracle is scratch plus memoisation only: it never changes
/// results. The loop polls `ctl` at every round boundary. On
/// cancellation the current committed state — always a consistent
/// match set — is returned with [`ImproveResult::cancelled`] set.
pub fn improve(
    oracle: &ScoreOracle<'_>,
    config: ImproveConfig,
    initial: MatchSet,
    ctl: &CancelToken,
) -> ImproveResult {
    let inst = oracle.instance();
    let k = inst.match_count_bound() as Score;
    let quantum = if config.scaling {
        // X: score of the factor-4 algorithm (Corollary 1); the optimum
        // is at most 4X, each improvement gains ≥ X/k², so at most 4k²
        // rounds occur. A fresh oracle computes X, so the bound moves
        // none of the caller's counters.
        let x = crate::four_approx::solve_four_approx(&ScoreOracle::new(inst))
            .total_score()
            .max(initial.total_score());
        (x / (k * k)).max(1)
    } else {
        1
    };
    // Scaled runs end within 4k² rounds (plus k of slack); unscaled
    // ones stop at a fixed safety cap.
    let max_rounds = if config.scaling {
        (4 * k * k + k) as usize
    } else {
        10_000
    };

    let mut current = initial;
    let mut cur_trunc = trunc_total(&current, quantum);
    let mut rounds = 0;
    let mut attempts = 0;
    let mut evaluated = 0;
    let mut cancelled = false;

    // The oracle carries the trace handle, so the round loop spans
    // without a signature change; each committed round records its
    // gain and attempt count in the span args.
    let trace = oracle.trace().clone();

    while rounds < max_rounds {
        if ctl.is_cancelled() {
            cancelled = true;
            break;
        }
        let mut round_span = trace.span("improve_round");
        let candidates = enumerate_attempts(oracle, &current, config.methods, config.budget);
        attempts += candidates.len();
        if candidates.is_empty() {
            break;
        }

        // Bound every attempt, then run the refills only of attempts
        // that can still win: by bound, descending, for the best gain
        // (stopping once no bound left can beat the best gain found,
        // ties to the lowest index), or in index order for the first
        // positive one.
        let mut visit: Vec<(Score, usize)> = candidates
            .par_iter()
            .enumerate()
            .filter_map(|(idx, attempt)| {
                let bound = attempt_bound(&current, attempt, oracle, quantum)?;
                (bound > 0).then_some((bound, idx))
            })
            .collect();
        if config.commit == Commit::Best {
            visit.sort_unstable_by_key(|&(bound, idx)| (Reverse(bound), idx));
        }
        let mut best: Option<(Score, usize, MatchSet)> = None;
        for (bound, idx) in visit {
            if let Some((gain, best_idx, _)) = &best {
                if config.commit == Commit::FirstPositive
                    || (bound, Reverse(idx)) < (*gain, Reverse(*best_idx))
                {
                    break;
                }
            }
            evaluated += 1;
            let mut next = current.clone();
            apply_attempt(&mut next, &candidates[idx], oracle, quantum)
                .expect("an attempt with a bound applies");
            let gain = trunc_total(&next, quantum) - cur_trunc;
            debug_assert!(
                gain <= bound,
                "gain {gain} exceeds bound {bound} of {:?}",
                candidates[idx]
            );
            let wins = best
                .as_ref()
                .is_none_or(|(g, i, _)| (gain, Reverse(idx)) > (*g, Reverse(*i)));
            if gain > 0 && wins {
                best = Some((gain, idx, next));
            }
        }

        round_span.set_args(
            best.as_ref().map_or(0, |(gain, _, _)| *gain),
            candidates.len() as i64,
        );
        drop(round_span);
        let Some((_, idx, next)) = best else { break };
        if cfg!(debug_assertions) {
            if let Err(e) = check_consistency(inst, &next) {
                panic!(
                    "improvement produced an inconsistent solution: {e}\n\
                     attempt: {:?}\nbefore: {:?}\nafter: {:?}",
                    candidates[idx], current, next
                );
            }
        }
        debug_assert!(trunc_total(&next, quantum) > cur_trunc);
        current = next;
        cur_trunc = trunc_total(&current, quantum);
        rounds += 1;
    }

    let score = current.total_score();
    ImproveResult {
        matches: current,
        score,
        rounds,
        attempts,
        evaluated,
        quantum,
        cancelled,
    }
}

/// Full_Improve (§4.2, Theorem 4): method I1 only, from the empty set.
pub fn full_improve(oracle: &ScoreOracle<'_>, scaling: bool) -> ImproveResult {
    preset(oracle, MethodSet::FullOnly, scaling)
}

/// Border_Improve (§4.3, Theorem 5): methods I2/I3 only.
pub fn border_improve(oracle: &ScoreOracle<'_>, scaling: bool) -> ImproveResult {
    preset(oracle, MethodSet::BorderOnly, scaling)
}

/// CSR_Improve (§4.4, Theorem 6): all methods.
pub fn csr_improve(oracle: &ScoreOracle<'_>, scaling: bool) -> ImproveResult {
    preset(oracle, MethodSet::All, scaling)
}

/// One of the paper's three presets: `methods` from the empty set,
/// default budgets, never cancelled.
fn preset(oracle: &ScoreOracle<'_>, methods: MethodSet, scaling: bool) -> ImproveResult {
    improve(
        oracle,
        ImproveConfig {
            methods,
            scaling,
            ..Default::default()
        },
        MatchSet::new(),
        &CancelToken::never(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragalign_model::instance::paper_example;
    use fragalign_model::Instance;

    fn csr(inst: &Instance, scaling: bool) -> ImproveResult {
        csr_improve(&ScoreOracle::new(inst), scaling)
    }

    fn run(inst: &Instance, config: ImproveConfig) -> ImproveResult {
        improve(
            &ScoreOracle::new(inst),
            config,
            MatchSet::new(),
            &CancelToken::never(),
        )
    }

    #[test]
    fn paper_example_reaches_optimum_11() {
        let inst = paper_example();
        let result = csr(&inst, false);
        check_consistency(&inst, &result.matches).unwrap();
        assert_eq!(result.score, 11, "matches: {:?}", result.matches);
    }

    #[test]
    fn full_improve_is_consistent_and_positive() {
        let inst = paper_example();
        let result = full_improve(&ScoreOracle::new(&inst), false);
        check_consistency(&inst, &result.matches).unwrap();
        // Full matches alone reach σ(a,s)+σ(c,u)+σ(d,*)-style scores;
        // at least the two heavy plugs must be found.
        assert!(result.score >= 9, "got {}", result.score);
    }

    #[test]
    fn border_improve_is_consistent() {
        let inst = paper_example();
        let result = border_improve(&ScoreOracle::new(&inst), false);
        check_consistency(&inst, &result.matches).unwrap();
        assert!(result.score > 0);
    }

    #[test]
    fn scaling_bounds_rounds() {
        let inst = paper_example();
        let k = inst.match_count_bound() as i64;
        let result = csr(&inst, true);
        assert!(result.rounds <= (4 * k * k + k) as usize);
        assert!(result.quantum >= 1);
        check_consistency(&inst, &result.matches).unwrap();
    }

    #[test]
    fn sequential_matches_parallel() {
        let inst = paper_example();
        let [seq, par] =
            [1, 2].map(|threads| fragalign_par::with_threads(threads, || csr(&inst, false)).0);
        assert_eq!(seq.matches, par.matches);
        assert_eq!(
            (seq.rounds, seq.attempts, seq.evaluated),
            (par.rounds, par.attempts, par.evaluated)
        );
    }

    #[test]
    fn first_positive_commit_policy_terminates() {
        let inst = paper_example();
        let res = run(
            &inst,
            ImproveConfig {
                commit: Commit::FirstPositive,
                ..Default::default()
            },
        );
        check_consistency(&inst, &res.matches).unwrap();
        assert!(res.score > 0);
    }
}
