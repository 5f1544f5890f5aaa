//! Property-based tests for the ISP substrate: feasibility, the
//! two-phase invariants, and the ratio-2 guarantee against exhaustive
//! search.

use fragalign_isp::tpa::stack_total;
use fragalign_isp::{solve_exact, solve_greedy, solve_tpa, Candidate, Interval, IspInstance};
use proptest::prelude::*;

/// The two-phase algorithm written out in `O(n²)`: phase 1 charges
/// each candidate, in (hi, lo, job, tag) order, the values of every
/// stacked candidate it conflicts with (overlap or same job); phase 2
/// pops the stack and keeps each candidate compatible with all those
/// kept. Returns the chosen list and the stack total.
fn reference_tpa(inst: &IspInstance) -> (Vec<Candidate>, i64) {
    let mut order: Vec<&Candidate> = inst.candidates.iter().filter(|c| c.profit > 0).collect();
    order.sort_by_key(|c| (c.iv.hi, c.iv.lo, c.job, c.tag));
    let mut stack: Vec<(&Candidate, i64)> = Vec::new();
    for c in order {
        let charged: i64 = stack
            .iter()
            .filter(|(y, _)| y.job == c.job || y.iv.overlaps(&c.iv))
            .map(|&(_, v)| v)
            .sum();
        if c.profit - charged > 0 {
            stack.push((c, c.profit - charged));
        }
    }
    let total = stack.iter().map(|&(_, v)| v).sum();
    let mut kept: Vec<Candidate> = Vec::new();
    for &(c, _) in stack.iter().rev() {
        if kept.iter().all(|k| k.job != c.job && !k.iv.overlaps(&c.iv)) {
            kept.push(*c);
        }
    }
    kept.reverse();
    (kept, total)
}

/// Candidates on a narrow coordinate range, so equal right endpoints,
/// same-job overlaps and zero profits are common. Returns the instance
/// pushed in processing order (tags numbered in that order, as the
/// §4.2 refill builds it) and the same candidates pushed in a shuffled
/// order.
fn sorted_and_shuffled() -> impl Strategy<Value = (IspInstance, IspInstance)> {
    (
        1usize..5,
        prop::collection::vec((0usize..5, 0i64..12, 1i64..5, 0i64..20), 0..24),
        0u64..u64::MAX,
    )
        .prop_map(|(jobs, mut cands, seed)| {
            cands.sort_by_key(|&(job, lo, len, _)| (lo + len, lo, job % jobs));
            let mut sorted = IspInstance::new(jobs);
            for (tag, &(job, lo, len, profit)) in cands.iter().enumerate() {
                sorted.push(job % jobs, Interval::new(lo, lo + len), profit, tag);
            }
            // Fisher–Yates with a xorshift stream.
            let mut shuffled = sorted.clone();
            let mut state = seed | 1;
            for i in (1..shuffled.candidates.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                shuffled
                    .candidates
                    .swap(i, (state % (i as u64 + 1)) as usize);
            }
            (sorted, shuffled)
        })
}

fn instance_strategy() -> impl Strategy<Value = IspInstance> {
    (
        1usize..5,
        prop::collection::vec((0usize..5, 0i64..25, 1i64..7, 0i64..40), 0..14),
    )
        .prop_map(|(jobs, cands)| {
            let mut inst = IspInstance::new(jobs);
            for (tag, (job, lo, len, profit)) in cands.into_iter().enumerate() {
                inst.push(job % jobs, Interval::new(lo, lo + len), profit, tag);
            }
            inst
        })
}

proptest! {
    #[test]
    fn tpa_matches_the_quadratic_reference((sorted, shuffled) in sorted_and_shuffled()) {
        let (chosen, total) = reference_tpa(&sorted);
        for inst in [&sorted, &shuffled] {
            prop_assert_eq!(&solve_tpa(inst).chosen, &chosen);
            prop_assert_eq!(stack_total(inst), total);
        }
    }

    #[test]
    fn tpa_output_is_feasible(inst in instance_strategy()) {
        let sel = solve_tpa(&inst);
        prop_assert!(inst.validate(&sel).is_ok());
    }

    #[test]
    fn greedy_output_is_feasible(inst in instance_strategy()) {
        let sel = solve_greedy(&inst);
        prop_assert!(inst.validate(&sel).is_ok());
    }

    #[test]
    fn tpa_selection_at_least_stack_total(inst in instance_strategy()) {
        // The phase-2 selection realises at least the phase-1 stack
        // value — the left half of the ratio-2 proof.
        let sel = solve_tpa(&inst);
        prop_assert!(sel.profit() >= stack_total(&inst));
    }

    #[test]
    fn ratio_two_guarantee(inst in instance_strategy()) {
        let exact = solve_exact(&inst);
        let tpa = solve_tpa(&inst);
        prop_assert!(exact.profit() >= tpa.profit());
        prop_assert!(2 * tpa.profit() >= exact.profit(),
            "tpa {} vs exact {}", tpa.profit(), exact.profit());
    }

    #[test]
    fn opt_at_most_twice_stack(inst in instance_strategy()) {
        // The right half of the proof: Opt ≤ 2 · stack total.
        let exact = solve_exact(&inst);
        prop_assert!(exact.profit() <= 2 * stack_total(&inst).max(exact.profit() / 2 + exact.profit() % 2));
        // (stated loosely to tolerate the all-zero-profit case)
        if exact.profit() > 0 {
            prop_assert!(2 * stack_total(&inst) >= exact.profit());
        }
    }

    #[test]
    fn exact_dominates_heuristics(inst in instance_strategy()) {
        let exact = solve_exact(&inst).profit();
        prop_assert!(exact >= solve_tpa(&inst).profit());
        prop_assert!(exact >= solve_greedy(&inst).profit());
    }

    #[test]
    fn disjoint_single_candidates_always_taken(
        profits in prop::collection::vec(1i64..50, 1..8)
    ) {
        // One candidate per job, all disjoint: everything is selected.
        let mut inst = IspInstance::new(profits.len());
        for (i, &p) in profits.iter().enumerate() {
            inst.push(i, Interval::new(10 * i as i64, 10 * i as i64 + 5), p, i);
        }
        let sel = solve_tpa(&inst);
        prop_assert_eq!(sel.profit(), profits.iter().sum::<i64>());
    }
}
