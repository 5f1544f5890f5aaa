//! Candidate improvement attempts.
//!
//! The paper quantifies improvement methods over all sites `f(i, j)`;
//! we enumerate a polynomially bounded candidate set that contains the
//! attempt shapes the §4 analysis uses. Containers are either the
//! target itself or its maximal free extension, and site lengths are
//! capped (`exp_ablation` measures both choices):
//!
//! * **I1(f, ḡ, ĝ)** — target sites `ḡ` range over all non-hidden
//!   sites up to a length cap; the container `ĝ` is either `ḡ` itself
//!   or its maximal extension over currently free positions (the
//!   analogue of `zone(ḡ)`). Plug fragments are pruned to the most
//!   profitable few per target.
//! * **I2(f̄₁, ḡ₁, …)** — border sites are prefixes/suffixes below a
//!   length cap; the orientation is forced by the end combination; the
//!   best few bundles per fragment pair are kept.
//! * **I3** — pairs of I2 bundles that re-match the two multiple
//!   fragments of an existing border match to new partners.

use super::MethodSet;
use fragalign_align::ScoreOracle;
use fragalign_model::{FragId, MatchSet, Score, Site, Species};
use std::collections::HashMap;

/// One I2-style border-match creation: the two border sites and their
/// prepared containers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct I2Bundle {
    /// Border site on the H fragment.
    pub h_site: Site,
    /// Container prepared around `h_site`.
    pub h_container: Site,
    /// Border site on the M fragment.
    pub m_site: Site,
    /// Container prepared around `m_site`.
    pub m_container: Site,
}

/// An improvement attempt (methods I1/I2/I3 of §4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attempt {
    /// Plug `plug` wholly into `target`; prepare `container ⊇ target`
    /// and TPA the difference (§4.2).
    I1 {
        /// Fragment plugged in as a full match.
        plug: FragId,
        /// Site receiving the plug.
        target: Site,
        /// Prepared surrounding site (`zone(target)`).
        container: Site,
    },
    /// Make one border match (§4.3/§4.4).
    I2 {
        /// Border site on the H fragment.
        h_site: Site,
        /// Border site on the M fragment.
        m_site: Site,
        /// Container prepared around `h_site`.
        h_container: Site,
        /// Container prepared around `m_site`.
        m_container: Site,
    },
    /// Break a 2-island and re-match both multiple fragments (§4.3).
    I3 {
        /// Re-match of the island's H fragment.
        first: I2Bundle,
        /// Re-match of the island's M fragment.
        second: I2Bundle,
    },
}

/// Enumeration budget knobs (defaults in `ImproveConfig`).
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Maximum length of an I1 target site.
    pub site_cap: usize,
    /// Maximum length of a border site.
    pub border_cap: usize,
    /// Plug candidates kept per I1 target.
    pub plugs_per_target: usize,
    /// I2 bundles kept per (H fragment, M fragment) pair.
    pub borders_per_pair: usize,
}

/// Positions of `frag` covered by matched sites, as a sorted list of
/// disjoint sites.
fn covered(by_frag: &HashMap<FragId, Vec<(usize, Site)>>, frag: FragId) -> Vec<Site> {
    by_frag
        .get(&frag)
        .map(|v| v.iter().map(|&(_, s)| s).collect())
        .unwrap_or_default()
}

/// Maximal extension of `site` over positions not covered by any
/// matched site (the canonical container).
fn free_extension(cov: &[Site], frag_len: usize, site: Site) -> Site {
    let mut lo = site.lo;
    let mut hi = site.hi;
    // Grow left while position lo-1 is free of sites disjoint from `site`.
    'left: while lo > 0 {
        let p = lo - 1;
        for c in cov {
            if c.lo <= p && p < c.hi && !c.overlaps(&site) {
                break 'left;
            }
        }
        lo -= 1;
    }
    'right: while hi < frag_len {
        let p = hi;
        for c in cov {
            if c.lo <= p && p < c.hi && !c.overlaps(&site) {
                break 'right;
            }
        }
        hi += 1;
    }
    Site::new(site.frag, lo, hi)
}

/// Whether `site` is hidden by one of the covered sites.
fn is_hidden(cov: &[Site], site: Site) -> bool {
    cov.iter().any(|c| site.hidden_by(c))
}

/// Enumerate candidate attempts for the current solution.
pub fn enumerate_attempts(
    oracle: &ScoreOracle<'_>,
    set: &MatchSet,
    methods: MethodSet,
    budget: Budget,
) -> Vec<Attempt> {
    let inst = oracle.instance();
    let by_frag = set.sites_by_fragment();
    let mut out = Vec::new();

    if matches!(methods, MethodSet::FullOnly | MethodSet::All) {
        // ---- I1 -----------------------------------------------------
        for g in inst.all_frag_ids() {
            let g_len = inst.frag_len(g);
            let cov = covered(&by_frag, g);
            let plugs: Vec<FragId> = inst.frag_ids(g.species.other()).collect();
            for lo in 0..g_len {
                for hi in (lo + 1)..=(g_len.min(lo + budget.site_cap)) {
                    let target = Site::new(g, lo, hi);
                    if is_hidden(&cov, target) {
                        continue;
                    }
                    // Rank plug candidates by optimistic profit.
                    let mut ranked: Vec<(Score, FragId)> = plugs
                        .iter()
                        .filter_map(|&f| {
                            let (ms, _) = oracle.ms_full_vs_interval(f, g, lo, hi);
                            let profit = ms - set.contribution(f);
                            (profit > 0).then_some((profit, f))
                        })
                        .collect();
                    ranked.sort_by_key(|&(p, f)| (std::cmp::Reverse(p), f));
                    ranked.truncate(budget.plugs_per_target);
                    if ranked.is_empty() {
                        continue;
                    }
                    let ext = free_extension(&cov, g_len, target);
                    for &(_, f) in &ranked {
                        out.push(Attempt::I1 {
                            plug: f,
                            target,
                            container: target,
                        });
                        if ext != target {
                            out.push(Attempt::I1 {
                                plug: f,
                                target,
                                container: ext,
                            });
                        }
                    }
                }
            }
        }
    }

    if matches!(methods, MethodSet::BorderOnly | MethodSet::All) {
        // ---- I2 -----------------------------------------------------
        let mut bundles: Vec<(Score, I2Bundle)> = Vec::new();
        for h in inst.frag_ids(Species::H) {
            let h_len = inst.frag_len(h);
            if h_len < 2 {
                continue; // no strict border sites
            }
            let h_cov = covered(&by_frag, h);
            for m in inst.frag_ids(Species::M) {
                let m_len = inst.frag_len(m);
                if m_len < 2 {
                    continue;
                }
                let m_cov = covered(&by_frag, m);
                let table = oracle.border_table(h, m);
                let mut pair_best: Vec<(Score, I2Bundle)> = Vec::new();
                for a in 1..h_len.min(budget.border_cap + 1) {
                    for h_site in [Site::new(h, 0, a), Site::new(h, h_len - a, h_len)] {
                        if is_hidden(&h_cov, h_site) {
                            continue;
                        }
                        for b in 1..m_len.min(budget.border_cap + 1) {
                            for m_site in [Site::new(m, 0, b), Site::new(m, m_len - b, m_len)] {
                                if is_hidden(&m_cov, m_site) {
                                    continue;
                                }
                                let Some((score, _)) = table.staircase(h_site, m_site) else {
                                    continue;
                                };
                                if score <= 0 {
                                    continue;
                                }
                                let bundle = I2Bundle {
                                    h_site,
                                    h_container: free_extension(&h_cov, h_len, h_site),
                                    m_site,
                                    m_container: free_extension(&m_cov, m_len, m_site),
                                };
                                pair_best.push((score, bundle));
                            }
                        }
                    }
                }
                pair_best.sort_by_key(|&(s, b)| (std::cmp::Reverse(s), b.h_site, b.m_site));
                pair_best.truncate(budget.borders_per_pair);
                bundles.extend(pair_best);
            }
        }
        for &(_, b) in &bundles {
            out.push(Attempt::I2 {
                h_site: b.h_site,
                m_site: b.m_site,
                h_container: b.h_container,
                m_container: b.m_container,
            });
        }

        // ---- I3 -----------------------------------------------------
        // For every existing border match (f1 ~ g1), combine the best
        // replacement bundles: f1 with a new M partner, g1 with a new H
        // partner.
        for (_, mat) in set.iter() {
            let h_len = inst.frag_len(mat.h.frag);
            let m_len = inst.frag_len(mat.m.frag);
            let Some(fragalign_model::MatchKind::Border { .. }) = mat.kind(h_len, m_len) else {
                continue;
            };
            let (f1, g1) = (mat.h.frag, mat.m.frag);
            let mut for_f1: Vec<(Score, I2Bundle)> = bundles
                .iter()
                .filter(|(_, b)| b.h_site.frag == f1 && b.m_site.frag != g1)
                .copied()
                .collect();
            let mut for_g1: Vec<(Score, I2Bundle)> = bundles
                .iter()
                .filter(|(_, b)| b.m_site.frag == g1 && b.h_site.frag != f1)
                .copied()
                .collect();
            for_f1.sort_by_key(|&(s, b)| (std::cmp::Reverse(s), b.h_site, b.m_site));
            for_g1.sort_by_key(|&(s, b)| (std::cmp::Reverse(s), b.h_site, b.m_site));
            for_f1.truncate(2);
            for_g1.truncate(2);
            for &(_, b1) in &for_f1 {
                for &(_, b2) in &for_g1 {
                    // The bundles must not collide on fragments.
                    if b1.m_site.frag == b2.m_site.frag || b1.h_site.frag == b2.h_site.frag {
                        continue;
                    }
                    out.push(Attempt::I3 {
                        first: b1,
                        second: b2,
                    });
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragalign_model::instance::paper_example;
    use fragalign_model::{Match, Orient};

    fn budget() -> Budget {
        Budget {
            site_cap: 64,
            border_cap: 64,
            plugs_per_target: 2,
            borders_per_pair: 4,
        }
    }

    #[test]
    fn empty_solution_has_candidates() {
        let inst = paper_example();
        let oracle = ScoreOracle::new(&inst);
        let set = MatchSet::new();
        let all = enumerate_attempts(&oracle, &set, MethodSet::All, budget());
        assert!(!all.is_empty());
        assert!(all.iter().any(|a| matches!(a, Attempt::I1 { .. })));
        assert!(all.iter().any(|a| matches!(a, Attempt::I2 { .. })));
        // No I3 without an existing border match.
        assert!(!all.iter().any(|a| matches!(a, Attempt::I3 { .. })));
    }

    #[test]
    fn method_sets_filter_attempts() {
        let inst = paper_example();
        let oracle = ScoreOracle::new(&inst);
        let set = MatchSet::new();
        let full = enumerate_attempts(&oracle, &set, MethodSet::FullOnly, budget());
        assert!(full.iter().all(|a| matches!(a, Attempt::I1 { .. })));
        let border = enumerate_attempts(&oracle, &set, MethodSet::BorderOnly, budget());
        assert!(border.iter().all(|a| !matches!(a, Attempt::I1 { .. })));
    }

    #[test]
    fn i3_generated_for_existing_border_match() {
        let inst = paper_example();
        let oracle = ScoreOracle::new(&inst);
        // h1 suffix ⟨c⟩ ~ m2 prefix ⟨u⟩ staircase (σ(c,u)=5).
        let set = MatchSet::from_matches(vec![Match::new(
            Site::new(FragId::h(0), 2, 3),
            Site::new(FragId::m(1), 0, 1),
            Orient::Same,
            5,
        )]);
        let all = enumerate_attempts(&oracle, &set, MethodSet::All, budget());
        // I3 requires replacement partners on both sides; with only two
        // M fragments and σ(b, t^R) > 0 there is at least a candidate
        // for f1 = h1 with m1. g1 = m2 needs a different H fragment —
        // h2 has length 1, no border sites, so no I3 emerges here.
        assert!(all.iter().any(|a| matches!(a, Attempt::I2 { .. })));
        // Targets hidden by the staircase are not enumerated.
        for a in &all {
            if let Attempt::I1 { target, .. } = a {
                assert!(
                    !target.hidden_by(&Site::new(FragId::h(0), 2, 3)),
                    "hidden target enumerated"
                );
            }
        }
    }

    #[test]
    fn free_extension_respects_existing_matches() {
        let inst = paper_example();
        let _ = inst;
        let f = FragId::h(0);
        let cov = vec![Site::new(f, 0, 1)];
        // Extending ⟨c⟩ = [2,3) within a length-3 fragment stops at the
        // covered prefix [0,1).
        let ext = free_extension(&cov, 3, Site::new(f, 2, 3));
        assert_eq!(ext, Site::new(f, 1, 3));
        // A site overlapping the covered one extends through it (the
        // preparation will cut the overlapped match anyway).
        let ext2 = free_extension(&cov, 3, Site::new(f, 0, 2));
        assert_eq!(ext2, Site::new(f, 0, 3));
    }
}
