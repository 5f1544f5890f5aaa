//! Recovery metrics: how much of the ground truth a solution
//! reconstructs (the recovery experiment `exp_recovery`, T7).

use crate::generate::SimInstance;
use fragalign_align::DpAligner;
use fragalign_model::{check_consistency, FragId, LayoutBuilder, MatchSet, RegionId, Species};
use std::collections::HashMap;

/// Recovery quality of a solution against the simulator ground truth.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// True homologous pairs whose regions are covered by a common
    /// match, over all true pairs present in the instance.
    pub pair_recall: f64,
    /// Pairwise relative-order accuracy of fragments the solution
    /// relates (same island), best over the island's two global
    /// orientations.
    pub order_accuracy: f64,
    /// Pairwise relative-orientation accuracy of fragments the
    /// solution relates.
    pub orient_accuracy: f64,
    /// Number of islands in the solution.
    pub islands: usize,
    /// Number of fragment pairs compared for order/orientation.
    pub compared_pairs: usize,
}

/// Evaluate a solved match set against the generation record.
pub fn evaluate_recovery(sim: &SimInstance, solution: &MatchSet) -> RecoveryReport {
    let inst = &sim.instance;
    let report = check_consistency(inst, solution).expect("solution must be consistent");

    // --- pair recall --------------------------------------------------
    let mut region_pos: HashMap<RegionId, (FragId, usize)> = HashMap::new();
    for f in inst.all_frag_ids() {
        for (i, sym) in inst.fragment(f).regions.iter().enumerate() {
            region_pos.insert(sym.id, (f, i));
        }
    }
    let mut hit = 0usize;
    let mut total = 0usize;
    for &(a, b) in &sim.truth.true_pairs {
        let (Some(&(fa, ia)), Some(&(fb, ib))) = (region_pos.get(&a.id), region_pos.get(&b.id))
        else {
            continue; // region lost during generation
        };
        total += 1;
        let covered = solution.iter().any(|(_, m)| {
            m.h.frag == fa
                && m.m.frag == fb
                && m.h.lo <= ia
                && ia < m.h.hi
                && m.m.lo <= ib
                && ib < m.m.hi
        });
        if covered {
            hit += 1;
        }
    }
    let pair_recall = if total == 0 {
        1.0
    } else {
        hit as f64 / total as f64
    };

    // --- order / orientation -------------------------------------------
    // The layout gives each fragment a span position and a flip.
    let pair = LayoutBuilder::new(inst, &DpAligner)
        .layout(solution)
        .expect("consistent");
    let mut span: HashMap<FragId, (usize, bool)> = HashMap::new();
    for p in pair.h_row.placed.iter().chain(pair.m_row.placed.iter()) {
        span.insert(p.frag, (p.span_start, p.reversed));
    }
    let truth_of = |f: FragId| -> (usize, bool) {
        match f.species {
            Species::H => sim.truth.h_layout[f.index],
            Species::M => sim.truth.m_layout[f.index],
        }
    };

    let mut order_ok = 0usize;
    let mut orient_ok = 0usize;
    let mut compared = 0usize;
    for island in &report.islands {
        // Same-species fragment pairs within the island.
        let mut best_order_ok = 0usize;
        let mut island_pairs = 0usize;
        let mut island_orient_ok = 0usize;
        for flip_island in [false, true] {
            let mut ok = 0usize;
            let mut pairs_cnt = 0usize;
            let mut orient_cnt = 0usize;
            for (i, &f1) in island.fragments.iter().enumerate() {
                for &f2 in &island.fragments[i + 1..] {
                    if f1.species != f2.species {
                        continue;
                    }
                    let (p1, o1) = span[&f1];
                    let (p2, o2) = span[&f2];
                    let (t1, to1) = truth_of(f1);
                    let (t2, to2) = truth_of(f2);
                    if t1 == t2 {
                        continue; // no defined true order
                    }
                    pairs_cnt += 1;
                    let predicted_before = (p1 < p2) ^ flip_island;
                    if predicted_before == (t1 < t2) {
                        ok += 1;
                    }
                    // Relative orientation is island-flip invariant;
                    // count it once (on the first flip pass).
                    if !flip_island && (o1 ^ o2) == (to1 ^ to2) {
                        orient_cnt += 1;
                    }
                }
            }
            best_order_ok = best_order_ok.max(ok);
            if !flip_island {
                island_pairs = pairs_cnt;
                island_orient_ok = orient_cnt;
            }
        }
        order_ok += best_order_ok;
        orient_ok += island_orient_ok;
        compared += island_pairs;
    }

    RecoveryReport {
        pair_recall,
        order_accuracy: if compared == 0 {
            1.0
        } else {
            order_ok as f64 / compared as f64
        },
        orient_accuracy: if compared == 0 {
            1.0
        } else {
            orient_ok as f64 / compared as f64
        },
        islands: report.islands.len(),
        compared_pairs: compared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, SimConfig};
    use fragalign_core::csr_improve;

    #[test]
    fn clean_instance_recovers_well() {
        let sim = generate(&SimConfig {
            regions: 12,
            h_frags: 2,
            m_frags: 2,
            loss_rate: 0.0,
            shuffles: 0,
            spurious: 0,
            score_jitter: 0,
            seed: 3,
            ..SimConfig::default()
        });
        let sol = csr_improve(&fragalign_align::ScoreOracle::new(&sim.instance), false);
        let rep = evaluate_recovery(&sim, &sol.matches);
        assert!(rep.pair_recall >= 0.8, "recall {}", rep.pair_recall);
        assert!(rep.order_accuracy >= 0.5, "order {}", rep.order_accuracy);
    }

    #[test]
    fn empty_solution_scores_zero_recall() {
        let sim = generate(&SimConfig {
            seed: 9,
            ..SimConfig::default()
        });
        let rep = evaluate_recovery(&sim, &fragalign_model::MatchSet::new());
        assert_eq!(rep.pair_recall, 0.0);
        assert_eq!(rep.islands, 0);
        assert_eq!(rep.compared_pairs, 0);
    }
}
