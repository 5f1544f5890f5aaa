//! Exhaustive CSR optimum for small instances.
//!
//! A conjecture pair is a permutation + orientation choice for each
//! species, followed by an optimal alignment of the two laid
//! concatenations (the padding choice is exactly the `P_score` DP).
//! The search space is `(k_H!·2^k_H) × (k_M!·2^k_M)`; rayon spreads
//! the H arrangements across cores, each scoring its M arrangements
//! through one workspace. [`exact_matches`] turns the winner into a
//! match set through the layout the factor-4 and chaining solvers
//! share ([`lay_windows`]), with one window spanning the whole M row.
//! Used by `exp_ratio` to measure the empirical approximation ratios
//! against Theorems 4–6.

use fragalign_align::DpWorkspace;
use fragalign_model::conjecture::{laid_cells, lay_windows, LaidCell};
use fragalign_model::symbol::reverse_word;
use fragalign_model::{FragId, Fragment, Instance, MatchSet, Score, Species, Sym};
use rayon::prelude::*;

/// Safety limits for the exhaustive search.
#[derive(Clone, Copy, Debug)]
pub struct ExactLimits {
    /// Maximum fragments per species.
    pub max_frags: usize,
    /// Maximum total regions (DP size guard).
    pub max_regions: usize,
}

impl Default for ExactLimits {
    fn default() -> Self {
        ExactLimits {
            max_frags: 5,
            max_regions: 80,
        }
    }
}

impl ExactLimits {
    /// `Err(reason)` when `inst` exceeds these limits — the predicate
    /// behind [`solve_exact`]'s panic, split out so the engine layer
    /// (and the portfolio racer) can skip oversized instances instead
    /// of crashing.
    pub fn check(&self, inst: &Instance) -> Result<(), String> {
        if inst.h.len() > self.max_frags || inst.m.len() > self.max_frags {
            return Err(format!(
                "exact solver limited to {} fragments per species (instance has {} H, {} M)",
                self.max_frags,
                inst.h.len(),
                inst.m.len()
            ));
        }
        if inst.total_regions() > self.max_regions {
            return Err(format!(
                "exact solver limited to {} total regions (instance has {})",
                self.max_regions,
                inst.total_regions()
            ));
        }
        Ok(())
    }
}

/// One species arrangement: fragment order and per-fragment flips.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Arrangement {
    /// Fragment indices in layout order.
    pub order: Vec<usize>,
    /// Reversal flag per position of `order`.
    pub flips: Vec<bool>,
}

/// The exhaustive optimum: score and the winning arrangements.
#[derive(Clone, Debug)]
pub struct ExactSolution {
    /// The optimum conjecture-pair score.
    pub score: Score,
    /// H-side arrangement achieving it.
    pub h_arrangement: Arrangement,
    /// M-side arrangement achieving it.
    pub m_arrangement: Arrangement,
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    fn heap(k: usize, items: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, items, out);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }
    heap(n, &mut items, &mut out);
    out
}

/// All arrangements of `frags`: permutations × orientation masks,
/// paired with the laid concatenation they spell.
fn arrangements(frags: &[Fragment]) -> Vec<(Arrangement, Vec<Sym>)> {
    let n = frags.len();
    let mut out = Vec::new();
    for order in permutations(n) {
        for mask in 0u32..(1 << n) {
            let flips: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            let mut word = Vec::new();
            for (pos, &fi) in order.iter().enumerate() {
                if flips[pos] {
                    word.extend(reverse_word(&frags[fi].regions));
                } else {
                    word.extend_from_slice(&frags[fi].regions);
                }
            }
            out.push((
                Arrangement {
                    order: order.clone(),
                    flips,
                },
                word,
            ));
        }
    }
    out
}

/// Compute the exact CSR optimum. Panics when the instance exceeds
/// `limits`.
pub fn solve_exact(inst: &Instance, limits: ExactLimits) -> ExactSolution {
    if let Err(reason) = limits.check(inst) {
        panic!("{reason}");
    }
    let hs = arrangements(&inst.h);
    let ms = arrangements(&inst.m);
    let best = hs
        .par_iter()
        .map(|(ha, hw)| {
            let mut ws = DpWorkspace::new();
            let mut local_best: Option<(Score, &Arrangement, &Arrangement)> = None;
            for (ma, mw) in &ms {
                let s = ws.p_score(&inst.sigma, hw, mw);
                if local_best.map(|(b, _, _)| s > b).unwrap_or(true) {
                    local_best = Some((s, ha, ma));
                }
            }
            local_best.expect("at least one arrangement")
        })
        .reduce_with(|a, b| if b.0 > a.0 { b } else { a })
        .expect("at least one H arrangement");
    ExactSolution {
        score: best.0,
        h_arrangement: best.1.clone(),
        m_arrangement: best.2.clone(),
    }
}

/// The laid cells of an arrangement of `species`, in layout order.
fn arrangement_cells(inst: &Instance, arr: &Arrangement, species: Species) -> Vec<LaidCell> {
    arr.order
        .iter()
        .zip(&arr.flips)
        .flat_map(|(&index, &flip)| {
            let f = FragId { species, index };
            laid_cells(f, inst.frag_len(f), flip)
        })
        .collect()
}

/// Materialise the optimum as a consistent [`MatchSet`]: lay both
/// winning arrangements out, trace back one optimal alignment of the
/// two concatenations (one run over the whole M row of
/// [`lay_windows`]), and derive matches with Definition 2. By Remark 1
/// the derived set scores exactly `sol.score`, so the exhaustive
/// solver plugs into the engine layer like every approximation
/// algorithm instead of reporting an arrangement-only score.
pub fn exact_matches(inst: &Instance, sol: &ExactSolution) -> MatchSet {
    let h_cells = arrangement_cells(inst, &sol.h_arrangement, Species::H);
    let m_row = arrangement_cells(inst, &sol.m_arrangement, Species::M);
    if h_cells.is_empty() || m_row.is_empty() {
        return MatchSet::new();
    }
    let whole = 0..m_row.len();
    let pair = lay_windows(inst, &m_row, [(h_cells, whole)], |h, m| {
        let (score, cols) = DpWorkspace::new().align_words(&inst.sigma, h, m);
        debug_assert_eq!(score, sol.score, "alignment must realise the optimum");
        cols
    });
    let derived = pair.derive_matches(inst);
    debug_assert_eq!(derived.total_score(), sol.score, "Remark 1");
    derived
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragalign_model::check_consistency;
    use fragalign_model::instance::paper_example;

    #[test]
    fn paper_example_optimum_is_11() {
        // "...which yields the score σ(a,s)+σ(c,u)+σ(d^R,v) = 11".
        let inst = paper_example();
        let sol = solve_exact(&inst, ExactLimits::default());
        assert_eq!(sol.score, 11);
    }

    #[test]
    fn permutation_count() {
        assert_eq!(permutations(0).len(), 1);
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(4).len(), 24);
    }

    #[test]
    fn exact_matches_realise_the_optimum() {
        let inst = paper_example();
        let sol = solve_exact(&inst, ExactLimits::default());
        let matches = exact_matches(&inst, &sol);
        check_consistency(&inst, &matches).unwrap();
        assert_eq!(matches.total_score(), sol.score);
    }

    #[test]
    fn limits_check_reports_reasons() {
        let inst = paper_example();
        assert!(ExactLimits::default().check(&inst).is_ok());
        let tight = ExactLimits {
            max_frags: 1,
            max_regions: 80,
        };
        assert!(tight.check(&inst).unwrap_err().contains("fragments"));
        let tiny = ExactLimits {
            max_frags: 5,
            max_regions: 1,
        };
        assert!(tiny.check(&inst).unwrap_err().contains("regions"));
    }

    #[test]
    fn empty_species_is_fine() {
        let mut b = fragalign_model::InstanceBuilder::new();
        b.h_frag("h", &["a"]);
        let inst = b.build();
        let sol = solve_exact(&inst, ExactLimits::default());
        assert_eq!(sol.score, 0);
    }

    #[test]
    #[should_panic(expected = "limited")]
    fn limits_enforced() {
        let mut b = fragalign_model::InstanceBuilder::new();
        for i in 0..7 {
            b.h_frag(&format!("h{i}"), &["a"]);
        }
        b.m_frag("m", &["a"]);
        let inst = b.build();
        solve_exact(&inst, ExactLimits::default());
    }
}
