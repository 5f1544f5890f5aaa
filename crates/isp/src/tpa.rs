//! The Berman–DasGupta two-phase algorithm (TPA), ratio 2,
//! `O(n log n)`.
//!
//! **Phase 1 (evaluation).** Process candidates in non-decreasing order
//! of right endpoint. For candidate `x`, let
//!
//! ```text
//! total(x) = Σ { v(y) : y stacked, y conflicts with x }
//! ```
//!
//! where *conflicts* means interval overlap or same job. Set
//! `v(x) = profit(x) − total(x)`; if positive, push `x` with value
//! `v(x)` onto the stack.
//!
//! **Phase 2 (selection).** Pop the stack (latest first) and greedily
//! keep every candidate compatible with those already kept.
//!
//! The selection's profit is at least the stack's total value, and any
//! feasible solution's profit is at most twice the stack total, giving
//! the factor-2 guarantee the paper's Corollary 1 relies on.
//!
//! Complexity: candidates are processed by right endpoint, so the
//! stack is ordered by right endpoint too. A stacked `y` overlaps `x`
//! iff `y.hi > x.lo`: the overlapping value is the stack total minus
//! the running prefix sum over stacked `hi ≤ x.lo`, found by binary
//! search. Same-job values that do not overlap are the same lookup on
//! a per-job prefix list. Each candidate costs `O(log n)` after the
//! `O(n log n)` sort, which is linear on input that is already in
//! processing order (the §4.2 refill builds its candidates that way).

use crate::instance::{Candidate, IspInstance, Profit, Selection};

/// Running prefix sums of values pushed with non-decreasing `hi`.
#[derive(Clone, Debug, Default)]
struct Prefix(Vec<(i64, Profit)>);

impl Prefix {
    fn total(&self) -> Profit {
        self.0.last().map_or(0, |&(_, s)| s)
    }

    /// Sum of the values pushed with `hi ≤ at`.
    fn upto(&self, at: i64) -> Profit {
        match self.0.partition_point(|&(h, _)| h <= at) {
            0 => 0,
            cut => self.0[cut - 1].1,
        }
    }

    fn push(&mut self, hi: i64, v: Profit) {
        let total = self.total();
        self.0.push((hi, total + v));
    }
}

/// Phase 1: the stack of `(candidate, value)` pairs in push order.
fn evaluate(inst: &IspInstance) -> Vec<(&Candidate, Profit)> {
    let mut order: Vec<&Candidate> = inst.candidates.iter().filter(|c| c.profit > 0).collect();
    // Non-decreasing right endpoint; ties broken deterministically.
    order.sort_by_key(|c| (c.iv.hi, c.iv.lo, c.job, c.tag));

    let mut stacked = Prefix::default();
    let mut job_stacked = vec![Prefix::default(); inst.jobs];
    let mut stack = Vec::new();
    for c in order {
        // Stacked values overlapping c (y.hi > c.lo), plus same-job
        // values not already counted (y.hi ≤ c.lo).
        let overlap_sum = stacked.total() - stacked.upto(c.iv.lo);
        let job_sum = job_stacked[c.job].upto(c.iv.lo);
        let v = c.profit - overlap_sum - job_sum;
        if v > 0 {
            stacked.push(c.iv.hi, v);
            job_stacked[c.job].push(c.iv.hi, v);
            stack.push((c, v));
        }
    }
    stack
}

/// Run TPA on an instance, returning a feasible selection with profit
/// at least half the optimum.
pub fn solve_tpa(inst: &IspInstance) -> Selection {
    let stack = evaluate(inst);

    // Phase 2: reverse greedy selection.
    let mut chosen: Vec<Candidate> = Vec::new();
    let mut job_used = vec![false; inst.jobs];
    let mut min_lo = i64::MAX;
    for &(c, _) in stack.iter().rev() {
        if job_used[c.job] {
            continue;
        }
        // All previously selected intervals have hi ≥ c.hi, so c is
        // disjoint from every one of them iff c.hi ≤ min of their lo.
        if c.iv.hi <= min_lo {
            chosen.push(*c);
            job_used[c.job] = true;
            min_lo = min_lo.min(c.iv.lo);
        }
    }
    chosen.reverse();
    Selection { chosen }
}

/// The stack total of phase 1 — exposed for the ratio-2 analysis
/// experiments (`selection ≥ stack_total` and `opt ≤ 2 · stack_total`).
pub fn stack_total(inst: &IspInstance) -> Profit {
    evaluate(inst).iter().map(|&(_, v)| v).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Interval;

    fn inst(jobs: usize, cands: &[(usize, i64, i64, i64)]) -> IspInstance {
        let mut inst = IspInstance::new(jobs);
        for (tag, &(job, lo, hi, p)) in cands.iter().enumerate() {
            inst.push(job, Interval::new(lo, hi), p, tag);
        }
        inst
    }

    #[test]
    fn disjoint_intervals_all_selected() {
        let i = inst(3, &[(0, 0, 2, 5), (1, 2, 4, 7), (2, 4, 6, 3)]);
        let sel = solve_tpa(&i);
        assert_eq!(i.validate(&sel).unwrap(), 15);
    }

    #[test]
    fn job_constraint_enforced() {
        // Two disjoint intervals of the same job: only one selectable.
        let i = inst(1, &[(0, 0, 2, 5), (0, 4, 6, 7)]);
        let sel = solve_tpa(&i);
        assert_eq!(sel.chosen.len(), 1);
        assert_eq!(i.validate(&sel).unwrap(), 7);
    }

    #[test]
    fn overlapping_chooses_heavier() {
        let i = inst(2, &[(0, 0, 4, 5), (1, 2, 6, 9)]);
        let sel = solve_tpa(&i);
        assert_eq!(i.validate(&sel).unwrap(), 9);
    }

    #[test]
    fn chain_where_greedy_by_profit_fails() {
        // Middle interval overlaps both sides; its profit is larger
        // than each side but smaller than their sum.
        let i = inst(3, &[(0, 0, 3, 4), (1, 2, 5, 6), (2, 4, 7, 4)]);
        let sel = solve_tpa(&i);
        assert_eq!(i.validate(&sel).unwrap(), 8, "takes the two sides");
    }

    #[test]
    fn zero_profit_candidates_ignored() {
        let i = inst(2, &[(0, 0, 2, 0), (1, 0, 2, 3)]);
        let sel = solve_tpa(&i);
        assert_eq!(i.validate(&sel).unwrap(), 3);
        assert_eq!(sel.chosen.len(), 1);
    }

    #[test]
    fn empty_instance() {
        let i = IspInstance::new(0);
        let sel = solve_tpa(&i);
        assert_eq!(sel.profit(), 0);
    }

    #[test]
    fn selection_at_least_stack_total() {
        // Invariant of the two-phase analysis.
        let i = inst(
            4,
            &[
                (0, 0, 5, 10),
                (1, 3, 8, 12),
                (2, 7, 12, 6),
                (3, 1, 4, 3),
                (0, 9, 14, 4),
                (1, 13, 18, 5),
            ],
        );
        let sel = solve_tpa(&i);
        let total = stack_total(&i);
        assert!(sel.profit() >= total, "{} < {}", sel.profit(), total);
        i.validate(&sel).unwrap();
    }

    #[test]
    fn same_job_overlap_not_double_counted() {
        // y overlaps x AND shares x's job: its value must be charged
        // once. With double counting, the second candidate would be
        // rejected (10 - 6 - 6 < 0) and total profit would drop.
        let i = inst(1, &[(0, 0, 4, 6), (0, 2, 6, 10)]);
        let sel = solve_tpa(&i);
        assert_eq!(i.validate(&sel).unwrap(), 10);
    }
}
