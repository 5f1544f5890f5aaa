//! CSR problem instances.
//!
//! An instance is `(H, M, σ)`: the two fragment sets plus the region
//! score function. A builder offers the ergonomic construction used
//! throughout the examples and tests (named regions, named fragments,
//! scores by name).

use crate::alphabet::Alphabet;
use crate::fragment::{FragId, Fragment, Species};
use crate::score::ScoreTable;
use crate::site::Site;
use crate::symbol::Sym;
use crate::Score;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A CSR problem instance `(H, M, σ)`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Instance {
    /// Fragments of the first species.
    pub h: Vec<Fragment>,
    /// Fragments of the second species.
    pub m: Vec<Fragment>,
    /// The region score function σ.
    pub sigma: ScoreTable,
    /// Region names (may be empty when instances are generated).
    pub alphabet: Alphabet,
}

impl Instance {
    /// The fragment with the given id.
    pub fn fragment(&self, id: FragId) -> &Fragment {
        match id.species {
            Species::H => &self.h[id.index],
            Species::M => &self.m[id.index],
        }
    }

    /// Length (number of regions) of fragment `id`.
    pub fn frag_len(&self, id: FragId) -> usize {
        self.fragment(id).len()
    }

    /// The word spelled by a site.
    pub fn site_word(&self, site: Site) -> &[Sym] {
        self.fragment(site.frag).slice(site.lo, site.hi)
    }

    /// Iterate over all fragment ids of one species.
    pub fn frag_ids(&self, species: Species) -> impl Iterator<Item = FragId> + '_ {
        let n = match species {
            Species::H => self.h.len(),
            Species::M => self.m.len(),
        };
        (0..n).map(move |i| FragId { species, index: i })
    }

    /// Iterate over all fragment ids, H first.
    pub fn all_frag_ids(&self) -> impl Iterator<Item = FragId> + '_ {
        self.frag_ids(Species::H).chain(self.frag_ids(Species::M))
    }

    /// Total number of regions across both species.
    pub fn total_regions(&self) -> usize {
        self.h.iter().map(Fragment::len).sum::<usize>()
            + self.m.iter().map(Fragment::len).sum::<usize>()
    }

    /// An upper bound on the number of *useful* matches: every match
    /// consumes at least one region on each side, so a consistent set
    /// has at most `min(|H regions|, |M regions|)` matches. Used by the
    /// §4.1 scaling step as the bound `k`.
    pub fn match_count_bound(&self) -> usize {
        let h: usize = self.h.iter().map(Fragment::len).sum();
        let m: usize = self.m.iter().map(Fragment::len).sum();
        h.min(m).max(1)
    }

    /// A sound upper bound on the total score of *any* consistent
    /// match set, by greedy assignment relaxation over σ.
    ///
    /// The total score of a match set is a sum of aligned-column
    /// scores in which every region *occurrence* of either species
    /// appears at most once (matches occupy disjoint sites per
    /// species, and within a match each symbol sits in one column).
    /// Relax the consistency constraints entirely and let every
    /// occurrence independently pick its best admissible partner:
    /// occurrence of region `r` on the H side contributes at most
    /// `max(best σ entry touching r as H side, default_score, 0)` —
    /// the `default_score` because unlisted partners score it, the `0`
    /// because a gap is free and an optimal alignment never keeps a
    /// negative column. Summing per side (saturating) and taking the
    /// smaller side bounds every consistent match set from above —
    /// each column is counted once on each side, so both sums
    /// dominate the true total.
    ///
    /// Always ≤ the naive min-mass × σ_max bound
    /// ([`Instance::score_upper_bound_naive`]): each per-region best
    /// is ≤ the global per-pair maximum. On heterogeneous tables it is
    /// far tighter, which is what lets the portfolio's best-score
    /// board retire racers early — a solver that reaches this bound is
    /// provably optimal.
    pub fn score_upper_bound(&self) -> Score {
        let default = self.sigma.default_score.max(0);
        let mut best_h: HashMap<u32, Score> = HashMap::new();
        let mut best_m: HashMap<u32, Score> = HashMap::new();
        // Orientation is a free choice per match, so the per-region
        // best ranges over both orientations.
        for (a, b, _orient, s) in self.sigma.iter() {
            let e = best_h.entry(a).or_insert(s);
            *e = (*e).max(s);
            let e = best_m.entry(b).or_insert(s);
            *e = (*e).max(s);
        }
        let side = |frags: &[Fragment], best: &HashMap<u32, Score>| -> Score {
            let mut sum: Score = 0;
            for f in frags {
                for sym in &f.regions {
                    let per = best
                        .get(&sym.id)
                        .copied()
                        .map_or(default, |b| b.max(default));
                    // Saturate: a huge synthetic instance must clamp
                    // to Score::MAX rather than wrap negative, which
                    // would let the portfolio retire racers against a
                    // bound nothing can reach.
                    sum = sum.saturating_add(per);
                }
            }
            sum
        };
        side(&self.h, &best_h).min(side(&self.m, &best_m))
    }

    /// The pre-relaxation bound: min region mass × the best per-pair
    /// score. Kept as the comparison baseline for the bound tests in
    /// `fragalign-core`'s `proptest_bound`;
    /// [`Instance::score_upper_bound`] is always at least as tight.
    pub fn score_upper_bound_naive(&self) -> Score {
        let per_pair = self
            .sigma
            .max_score()
            .unwrap_or(self.sigma.default_score)
            .max(self.sigma.default_score)
            .max(0);
        let h: usize = self.h.iter().map(Fragment::len).sum();
        let m: usize = self.m.iter().map(Fragment::len).sum();
        (h.min(m) as Score).saturating_mul(per_pair)
    }

    /// Return the instance with species swapped (`H ↔ M`). `σ` entries
    /// are keyed H-then-M, so the table is re-keyed eagerly: the
    /// swapped instance's [`ScoreTable::score`]`(m, h)` equals this
    /// one's `score(h, m)`.
    pub fn swapped(&self) -> Instance {
        Instance {
            h: self.m.clone(),
            m: self.h.clone(),
            sigma: self.sigma_swapped(),
            alphabet: self.alphabet.clone(),
        }
    }

    fn sigma_swapped(&self) -> ScoreTable {
        let mut t = ScoreTable::new();
        t.default_score = self.sigma.default_score;
        for (a, b, o, s) in self.sigma.iter() {
            let (x, y) = match o {
                crate::score::Orient::Same => (Sym::fwd(b), Sym::fwd(a)),
                crate::score::Orient::Reversed => (Sym::fwd(b), Sym::rev(a)),
            };
            t.set(x, y, s);
        }
        t
    }

    /// Sanity-check an instance (e.g. one deserialised from JSON):
    /// no empty fragments, every σ entry and the default score small
    /// enough that its magnitude times the region count fits a
    /// [`Score`], and — when the alphabet is populated — every region
    /// id resolvable.
    ///
    /// The score bound keeps all arithmetic downstream in range: any
    /// alignment or match set scores at most one column per region, so
    /// no DP cell, match score or solution total can overflow.
    pub fn validate(&self) -> Result<(), String> {
        let regions = self.total_regions() as Score;
        let fits = |s: Score| s.checked_abs().and_then(|a| a.checked_mul(regions));
        if fits(self.sigma.default_score).is_none() {
            return Err(format!(
                "default score {} times {regions} regions overflows a score",
                self.sigma.default_score
            ));
        }
        if let Some((a, b, _, s)) = self.sigma.iter().find(|&(.., s)| fits(s).is_none()) {
            return Err(format!(
                "score entry ({a}, {b}) = {s} times {regions} regions overflows a score"
            ));
        }
        for f in self.h.iter().chain(self.m.iter()) {
            if f.is_empty() {
                return Err(format!("fragment {} has no regions", f.name));
            }
            if !self.alphabet.is_empty() {
                for sym in &f.regions {
                    if self.alphabet.name(sym.id).is_none() {
                        return Err(format!(
                            "fragment {} region #{} is not in the alphabet",
                            f.name, sym.id
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Concatenate all fragments of one species into a single fragment
    /// (the `F'` operation of Theorem 3).
    pub fn concat_species(&self, species: Species) -> Fragment {
        let frags = match species {
            Species::H => &self.h,
            Species::M => &self.m,
        };
        let mut regions = Vec::new();
        for f in frags {
            regions.extend_from_slice(&f.regions);
        }
        Fragment::new(format!("{species}-concat"), regions)
    }
}

/// Ergonomic construction of instances with named regions.
#[derive(Debug, Default)]
pub struct InstanceBuilder {
    alphabet: Alphabet,
    h: Vec<Fragment>,
    m: Vec<Fragment>,
    sigma: ScoreTable,
}

impl InstanceBuilder {
    /// Start an empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse a region token: `"a"` is forward, `"aR"` is reversed.
    fn parse_sym(&mut self, token: &str) -> Sym {
        if let Some(base) = token.strip_suffix('R') {
            if !base.is_empty() {
                return self.alphabet.sym_rev(base);
            }
        }
        self.alphabet.sym(token)
    }

    /// Add an H fragment from region tokens, e.g. `["a", "bR", "c"]`.
    pub fn h_frag(&mut self, name: &str, regions: &[&str]) -> &mut Self {
        let syms = regions.iter().map(|r| self.parse_sym(r)).collect();
        self.h.push(Fragment::new(name, syms));
        self
    }

    /// Add an M fragment from region tokens.
    pub fn m_frag(&mut self, name: &str, regions: &[&str]) -> &mut Self {
        let syms = regions.iter().map(|r| self.parse_sym(r)).collect();
        self.m.push(Fragment::new(name, syms));
        self
    }

    /// Record `σ(a, b) = score` using region tokens (`"aR"` for the
    /// reversed occurrence, as in the paper's `σ(b, t^R) = 3`).
    pub fn score(&mut self, a: &str, b: &str, score: Score) -> &mut Self {
        let sa = self.parse_sym(a);
        let sb = self.parse_sym(b);
        self.sigma.set(sa, sb, score);
        self
    }

    /// Finish building.
    pub fn build(&mut self) -> Instance {
        Instance {
            h: std::mem::take(&mut self.h),
            m: std::mem::take(&mut self.m),
            sigma: std::mem::take(&mut self.sigma),
            alphabet: std::mem::take(&mut self.alphabet),
        }
    }
}

/// The running example of the paper's introduction (Figs. 2, 4, 5):
/// contigs `h1 = ⟨a,b,c⟩`, `h2 = ⟨d⟩`, `m1 = ⟨s,t⟩`, `m2 = ⟨u,v⟩` with
/// `σ(a,s)=4, σ(a,t)=1, σ(b,t^R)=3, σ(c,u)=5, σ(d,t)=σ(d,v^R)=2`.
/// Its optimum solution scores 11.
pub fn paper_example() -> Instance {
    let mut b = InstanceBuilder::new();
    b.h_frag("h1", &["a", "b", "c"]);
    b.h_frag("h2", &["d"]);
    b.m_frag("m1", &["s", "t"]);
    b.m_frag("m2", &["u", "v"]);
    b.score("a", "s", 4);
    b.score("a", "t", 1);
    b.score("b", "tR", 3);
    b.score("c", "u", 5);
    b.score("d", "t", 2);
    b.score("d", "vR", 2);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::Orient;

    #[test]
    fn score_upper_bound_is_sound() {
        let inst = paper_example();
        // Assignment relaxation: per-region bests a=4, b=3, c=5, d=2
        // on the H side (sum 14) and s=4, t=3, u=5, v=2 on the M side
        // (sum 14) — tighter than the naive 4 × 5 = 20, and ≥ the
        // true optimum 11.
        assert_eq!(inst.score_upper_bound(), 14);
        assert_eq!(inst.score_upper_bound_naive(), 4 * 5);
        assert!(inst.score_upper_bound() <= inst.score_upper_bound_naive());
        // A positive default score backs every unlisted pair, so it
        // must raise every per-region best too.
        let mut defaulted = paper_example();
        defaulted.sigma.default_score = 9;
        assert_eq!(defaulted.score_upper_bound(), 4 * 9);
        assert_eq!(defaulted.score_upper_bound_naive(), 4 * 9);
        // An all-negative table bounds at 0 (aligning nothing is free).
        let mut negative = paper_example();
        negative.sigma = ScoreTable::new();
        negative.sigma.default_score = -2;
        assert_eq!(negative.score_upper_bound(), 0);
        assert_eq!(negative.score_upper_bound_naive(), 0);
    }

    #[test]
    fn score_upper_bound_saturates_instead_of_wrapping() {
        // With per-pair scores near Score::MAX, an unchecked sum
        // wraps negative — an upper bound below every real score,
        // which would retire portfolio racers that could still win.
        // Both bounds must clamp at Score::MAX.
        let mut inst = paper_example();
        inst.sigma.default_score = Score::MAX;
        assert_eq!(inst.score_upper_bound(), Score::MAX);
        assert_eq!(inst.score_upper_bound_naive(), Score::MAX);
    }

    #[test]
    fn paper_example_shape() {
        let inst = paper_example();
        assert_eq!(inst.h.len(), 2);
        assert_eq!(inst.m.len(), 2);
        assert_eq!(inst.h[0].len(), 3);
        assert_eq!(inst.total_regions(), 8);
        assert_eq!(inst.match_count_bound(), 4);
        // σ(b, t^R) = 3 and by symmetry σ(b^R, t) = 3.
        let b = Sym::fwd(inst.alphabet.get("b").unwrap());
        let t = Sym::fwd(inst.alphabet.get("t").unwrap());
        assert_eq!(inst.sigma.score(b, t.reversed()), 3);
        assert_eq!(inst.sigma.score(b.reversed(), t), 3);
        assert_eq!(inst.sigma.score(b, t), 0);
    }

    #[test]
    fn swapped_rekeys_sigma() {
        let inst = paper_example();
        let sw = inst.swapped();
        assert_eq!(sw.h.len(), 2);
        assert_eq!(sw.h[0].name, "m1");
        let b = Sym::fwd(inst.alphabet.get("b").unwrap());
        let t = Sym::fwd(inst.alphabet.get("t").unwrap());
        // σ'(t^R, b) = σ(b, t^R) = 3; relative orientation preserved.
        assert_eq!(sw.sigma.score(t.reversed(), b), 3);
        assert_eq!(sw.sigma.score(t, b), 0);
        assert_eq!(sw.sigma.score_rel(t.id, b.id, Orient::Reversed), 3);
    }

    #[test]
    fn concat_joins_in_order() {
        let inst = paper_example();
        let cat = inst.concat_species(Species::M);
        assert_eq!(cat.len(), 4);
        let names: Vec<String> = cat
            .regions
            .iter()
            .map(|&s| inst.alphabet.render(s))
            .collect();
        assert_eq!(names, vec!["s", "t", "u", "v"]);
    }

    #[test]
    fn builder_parses_reversed_tokens() {
        let mut b = InstanceBuilder::new();
        b.h_frag("h", &["x", "yR"]);
        let inst = b.build();
        assert!(!inst.h[0].regions[0].rev);
        assert!(inst.h[0].regions[1].rev);
    }

    #[test]
    fn validate_catches_bad_instances() {
        let inst = paper_example();
        assert!(inst.validate().is_ok());
        let mut empty_frag = inst.clone();
        empty_frag
            .h
            .push(crate::fragment::Fragment::new("bad", vec![]));
        assert!(empty_frag.validate().is_err());
        let mut unknown_region = inst.clone();
        unknown_region.m[0].regions.push(Sym::fwd(9999));
        assert!(unknown_region.validate().is_err());
        // Scores whose magnitude times the region count overflows.
        let regions = inst.total_regions() as Score;
        let mut huge_entry = inst.clone();
        huge_entry.sigma.set(Sym::fwd(0), Sym::fwd(1), Score::MAX);
        assert!(huge_entry.validate().unwrap_err().contains("overflows"));
        let mut huge_default = inst.clone();
        huge_default.sigma.default_score = Score::MIN;
        assert!(huge_default.validate().unwrap_err().contains("overflows"));
        let mut largest = inst.clone();
        largest
            .sigma
            .set(Sym::fwd(0), Sym::fwd(1), Score::MAX / regions);
        largest.sigma.default_score = -(Score::MAX / regions);
        assert!(largest.validate().is_ok());
    }

    #[test]
    fn serde_roundtrip() {
        let inst = paper_example();
        let json = serde_json::to_string(&inst).unwrap();
        let mut back: Instance = serde_json::from_str(&json).unwrap();
        back.alphabet.rebuild_index();
        assert_eq!(back.h, inst.h);
        assert_eq!(back.m, inst.m);
        let a = Sym::fwd(inst.alphabet.get("a").unwrap());
        let s = Sym::fwd(inst.alphabet.get("s").unwrap());
        assert_eq!(back.sigma.score(a, s), 4);
        assert_eq!(back.alphabet.get("a"), inst.alphabet.get("a"));
    }

    #[test]
    fn frag_ids_enumerate_both_species() {
        let inst = paper_example();
        let ids: Vec<FragId> = inst.all_frag_ids().collect();
        assert_eq!(
            ids,
            vec![FragId::h(0), FragId::h(1), FragId::m(0), FragId::m(1)]
        );
    }
}
