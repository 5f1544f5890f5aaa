//! The improvement loop: enumerate → evaluate (in parallel) → commit.

use super::enumerate::{enumerate_attempts, Budget};
use super::ops::{apply_attempt, trunc_total};
use super::MethodSet;
use crate::cancel::CancelToken;
use fragalign_align::ScoreOracle;
use fragalign_model::{check_consistency, MatchSet, Score};
use rayon::prelude::*;

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
    /// Hard cap on improvement rounds (0 = automatic).
    pub max_rounds: usize,
    /// Maximum I1 target-site length.
    pub site_cap: usize,
    /// Maximum border-site length.
    pub border_cap: usize,
    /// Plug candidates per I1 target.
    pub plugs_per_target: usize,
    /// Border bundles per fragment pair.
    pub borders_per_pair: usize,
    /// Evaluate attempts with rayon.
    pub parallel: bool,
    /// Commit the best attempt of the round (`true`, default) or the
    /// first positive one (`false`) — ablation D1.
    pub commit_best: bool,
}

impl Default for ImproveConfig {
    fn default() -> Self {
        ImproveConfig {
            methods: MethodSet::All,
            scaling: false,
            max_rounds: 0,
            site_cap: 64,
            border_cap: 64,
            plugs_per_target: 2,
            borders_per_pair: 4,
            parallel: true,
            commit_best: true,
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
    /// Number of attempts evaluated over all rounds.
    pub attempts_evaluated: usize,
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
/// results. The loop polls `ctl` at every round boundary and charges
/// one work unit per evaluated attempt, so work-capped tokens stop the
/// run at a deterministic round. On cancellation the current committed
/// state — always a consistent match set — is returned with
/// [`ImproveResult::cancelled`] set.
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
    let auto_rounds = if config.scaling {
        (4 * k * k + k) as usize
    } else {
        10_000
    };
    let max_rounds = if config.max_rounds == 0 {
        auto_rounds
    } else {
        config.max_rounds
    };
    let budget = Budget {
        site_cap: config.site_cap,
        border_cap: config.border_cap,
        plugs_per_target: config.plugs_per_target,
        borders_per_pair: config.borders_per_pair,
    };

    let mut current = initial;
    let mut cur_trunc = trunc_total(&current, quantum);
    let mut rounds = 0;
    let mut attempts_evaluated = 0;
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
        let candidates = enumerate_attempts(oracle, &current, config.methods, budget);
        attempts_evaluated += candidates.len();
        ctl.charge(candidates.len() as u64);
        if candidates.is_empty() {
            break;
        }

        let evaluate =
            |(idx, attempt): (usize, &super::Attempt)| -> Option<(Score, usize, MatchSet)> {
                let mut clone = current.clone();
                apply_attempt(&mut clone, attempt, oracle, quantum).ok()?;
                let gain = trunc_total(&clone, quantum) - cur_trunc;
                (gain > 0).then_some((gain, idx, clone))
            };

        // Deterministic winner: maximum gain, ties to the lowest index.
        let best = if config.parallel {
            candidates
                .par_iter()
                .enumerate()
                .filter_map(evaluate)
                .reduce_with(pick)
        } else if config.commit_best {
            candidates
                .iter()
                .enumerate()
                .filter_map(evaluate)
                .reduce(pick)
        } else {
            candidates.iter().enumerate().filter_map(evaluate).next()
        };

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
        attempts_evaluated,
        quantum,
        cancelled,
    }
}

/// Deterministic preference: larger gain first, then lower index.
fn pick(a: (Score, usize, MatchSet), b: (Score, usize, MatchSet)) -> (Score, usize, MatchSet) {
    if (b.0, std::cmp::Reverse(b.1)) > (a.0, std::cmp::Reverse(a.1)) {
        b
    } else {
        a
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
        let par = csr(&inst, false);
        let seq = run(
            &inst,
            ImproveConfig {
                parallel: false,
                ..Default::default()
            },
        );
        assert_eq!(par.score, seq.score);
    }

    #[test]
    fn first_positive_commit_policy_terminates() {
        let inst = paper_example();
        let res = run(
            &inst,
            ImproveConfig {
                parallel: false,
                commit_best: false,
                ..Default::default()
            },
        );
        check_consistency(&inst, &res.matches).unwrap();
        assert!(res.score > 0);
    }
}
