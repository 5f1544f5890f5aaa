//! Deciding consistency of match sets and rebuilding conjecture pairs.
//!
//! Definition 2 calls a match set *consistent* when some conjecture
//! pair produces it. This module decides it by the structural
//! characterisation below:
//!
//! 1. matched sites on a fragment are pairwise disjoint;
//! 2. a match is *full* iff one side is an entire fragment — that
//!    fragment (the *plug*) then has no other match;
//! 3. a *border–border* match is a staircase overlap: it joins original
//!    ends `E_h`, `E_m` with relative orientation `r` subject to
//!    `E_h ≠ E_m ⊕ r` (after laying out, one fragment's tail overlaps
//!    the other's head);
//! 4. each fragment end carries at most one border match;
//! 5. border matches form simple paths (no cycles) — every island is a
//!    "caterpillar": a spine of multiple fragments joined by staircase
//!    overlaps, with plugged full-match leaves hanging inside;
//! 6. orientations are assigned island-wise by propagation.
//!
//! [`LayoutBuilder`] converts a consistent set back into an explicit
//! [`ConjecturePair`] (Remark 1), realising each match's score through
//! a [`SiteAligner`].

use crate::conjecture::{ConjecturePair, PairAssembler};
use crate::error::Inconsistency;
use crate::fragment::{FragId, Species};
use crate::instance::Instance;
use crate::matchset::{MatchId, MatchKind, MatchSet};
use crate::score::{Orient, ScoreTable};
use crate::site::{End, Site};
use crate::symbol::{reverse_word, Sym};
use crate::Score;
use std::collections::HashMap;

/// How to realise a match's score as explicit alignment columns when
/// building a layout. `u` is the H-side word and `v` the M-side word,
/// both already in laid orientation; implementations return the
/// realised score and a monotone list of column pairs
/// `(u offset, v offset)` where `None` is a gap.
pub trait SiteAligner {
    /// Align two laid words.
    fn align_words(&self, sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> (Score, AlignColumns);
}

/// Alignment columns as `(u offset, v offset)` pairs, `None` for gaps.
pub type AlignColumns = Vec<(Option<usize>, Option<usize>)>;

/// Trivial aligner pairing the words diagonally (position `i` with
/// position `i`). Sufficient for tests whose match scores were computed
/// the same way; real layouts use the DP aligner from
/// `fragalign-align`, which realises the optimum `P_score`.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitAligner;

impl SiteAligner for UnitAligner {
    fn align_words(&self, sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> (Score, AlignColumns) {
        let k = u.len().min(v.len());
        let mut cols = Vec::with_capacity(u.len().max(v.len()));
        let mut score = 0;
        for i in 0..k {
            score += sigma.score(u[i], v[i]);
            cols.push((Some(i), Some(i)));
        }
        for i in k..u.len() {
            cols.push((Some(i), None));
        }
        for j in k..v.len() {
            cols.push((None, Some(j)));
        }
        (score, cols)
    }
}

/// A connected component of the solution graph (§4.1): the fragments
/// that are mutually ordered/oriented by the matches.
#[derive(Clone, Debug)]
pub struct Island {
    /// All fragments of the island.
    pub fragments: Vec<FragId>,
    /// All matches of the island.
    pub matches: Vec<MatchId>,
    /// The border-match spine in path order (single fragment when the
    /// island has no border matches).
    pub spine: Vec<FragId>,
    /// Border matches along the spine: `border_edges[i]` joins
    /// `spine[i]` and `spine[i+1]`.
    pub border_edges: Vec<MatchId>,
}

/// Result of a successful consistency check.
#[derive(Clone, Debug)]
pub struct ConsistencyReport {
    /// Island decomposition of the solution graph.
    pub islands: Vec<Island>,
    /// Relative orientation assignment: `true` = lay out reversed.
    /// One entry per fragment that participates in a match.
    pub orientation: HashMap<FragId, bool>,
    /// Structural kind of every match (indexed by [`MatchId`]).
    pub kinds: Vec<MatchKind>,
}

impl ConsistencyReport {
    /// Fragments participating in more than one match, or in a border
    /// match of a 2-fragment island, i.e. `Mult(S)` in the paper's
    /// island terminology (Definition 5 and §4.1).
    pub fn multiple_fragments(&self, s: &MatchSet) -> Vec<FragId> {
        let mut out = Vec::new();
        for island in &self.islands {
            if island.fragments.len() == 2 && island.matches.len() == 1 {
                // one simple, one multiple: the spine fragment is the
                // multiple one by the paper's convention
                out.push(island.spine[0]);
            } else {
                for &f in &island.fragments {
                    let deg = s.iter().filter(|(_, m)| m.site_on(f).is_some()).count();
                    if deg > 1 {
                        out.push(f);
                    }
                }
            }
        }
        out.sort();
        out
    }
}

/// Decide whether `s` is a consistent match set for `inst`
/// (Definition 2), returning the island structure on success and the
/// first diagnosed violation otherwise.
pub fn check_consistency(
    inst: &Instance,
    s: &MatchSet,
) -> Result<ConsistencyReport, Inconsistency> {
    // -- 0. species and bounds ------------------------------------------------
    for (id, m) in s.iter() {
        if m.h.frag.species != Species::H || m.m.frag.species != Species::M {
            return Err(Inconsistency::SameSpecies { m: id });
        }
        for site in [m.h, m.m] {
            let len = inst.frag_len(site.frag);
            if site.hi > len {
                return Err(Inconsistency::SiteOutOfBounds {
                    site,
                    frag_len: len,
                });
            }
        }
    }

    // -- 1. disjoint sites per fragment --------------------------------------
    let by_frag = s.sites_by_fragment();
    for sites in by_frag.values() {
        for w in sites.windows(2) {
            let ((id1, s1), (id2, s2)) = (w[0], w[1]);
            if s1.overlaps(&s2) {
                return Err(Inconsistency::OverlappingSites {
                    m1: id1,
                    m2: id2,
                    site1: s1,
                    site2: s2,
                });
            }
        }
    }

    // -- 2. classify matches --------------------------------------------------
    let mut kinds = Vec::with_capacity(s.len());
    for (id, m) in s.iter() {
        let kind = m.kind(inst.frag_len(m.h.frag), inst.frag_len(m.m.frag));
        match kind {
            None => {
                // Identify the offending inner site for the diagnosis.
                let inner =
                    if m.h.classify(inst.frag_len(m.h.frag)) == crate::site::SiteClass::Inner {
                        m.h
                    } else {
                        m.m
                    };
                return Err(Inconsistency::InnerSiteNotFull { m: id, inner });
            }
            Some(MatchKind::Border { h_end, m_end }) => {
                // Staircase condition: E_h ≠ E_m ⊕ r.
                let rhs = match m.orient {
                    Orient::Same => m_end,
                    Orient::Reversed => m_end.other(),
                };
                if h_end == rhs {
                    return Err(Inconsistency::BorderEndMismatch {
                        m: id,
                        h_end,
                        m_end,
                    });
                }
                kinds.push(kind.unwrap());
            }
            Some(k) => kinds.push(k),
        }
    }

    // -- 3. at most one border match per fragment end -------------------------
    let mut end_claims: HashMap<(FragId, End), MatchId> = HashMap::new();
    for (id, m) in s.iter() {
        if let MatchKind::Border { h_end, m_end } = kinds[id] {
            for (frag, end) in [(m.h.frag, h_end), (m.m.frag, m_end)] {
                if let Some(&prev) = end_claims.get(&(frag, end)) {
                    return Err(Inconsistency::DoubleBorderEnd {
                        frag,
                        end,
                        m1: prev,
                        m2: id,
                    });
                }
                end_claims.insert((frag, end), id);
            }
        }
    }

    // -- 4. border matches form simple paths ----------------------------------
    // Sorted so orientation propagation (rule 6) seeds each island
    // from the same fragment on every run — layouts must not depend on
    // hash iteration order.
    let mut frags: Vec<FragId> = by_frag.keys().copied().collect();
    frags.sort_unstable();
    let frag_index: HashMap<FragId, usize> = frags
        .iter()
        .copied()
        .enumerate()
        .map(|(i, f)| (f, i))
        .collect();
    let mut dsu = Dsu::new(frags.len());
    for (id, m) in s.iter() {
        if matches!(kinds[id], MatchKind::Border { .. }) {
            let (a, b) = (frag_index[&m.h.frag], frag_index[&m.m.frag]);
            if !dsu.union(a, b) {
                return Err(Inconsistency::BorderCycle { m: id });
            }
        }
    }

    // -- 5. islands over all matches ------------------------------------------
    let mut all = Dsu::new(frags.len());
    for (_, m) in s.iter() {
        all.union(frag_index[&m.h.frag], frag_index[&m.m.frag]);
    }
    let mut groups: HashMap<usize, Vec<FragId>> = HashMap::new();
    for (i, &f) in frags.iter().enumerate() {
        groups.entry(all.find(i)).or_default().push(f);
    }

    // -- 6. orientations by propagation ---------------------------------------
    let mut orientation: HashMap<FragId, bool> = HashMap::new();
    let mut adj: HashMap<FragId, Vec<(FragId, Orient)>> = HashMap::new();
    for (_, m) in s.iter() {
        adj.entry(m.h.frag).or_default().push((m.m.frag, m.orient));
        adj.entry(m.m.frag).or_default().push((m.h.frag, m.orient));
    }
    for &start in &frags {
        if orientation.contains_key(&start) {
            continue;
        }
        orientation.insert(start, false);
        let mut stack = vec![start];
        while let Some(f) = stack.pop() {
            let of = orientation[&f];
            for &(g, r) in adj.get(&f).into_iter().flatten() {
                let og = of ^ r.is_reversed();
                if let Some(&prev) = orientation.get(&g) {
                    // Graph is a forest (step 4 plus plug exclusivity),
                    // so re-visits always agree.
                    debug_assert_eq!(prev, og, "orientation conflict in a tree");
                } else {
                    orientation.insert(g, og);
                    stack.push(g);
                }
            }
        }
    }

    // -- 7. spine extraction ---------------------------------------------------
    let mut islands = Vec::new();
    let mut sorted_groups: Vec<Vec<FragId>> = groups.into_values().collect();
    for g in &mut sorted_groups {
        g.sort();
    }
    sorted_groups.sort();
    for fragments in sorted_groups {
        let matches: Vec<MatchId> = s
            .iter()
            .filter(|(_, m)| fragments.contains(&m.h.frag))
            .map(|(id, _)| id)
            .collect();
        let border: Vec<MatchId> = matches
            .iter()
            .copied()
            .filter(|&id| matches!(kinds[id], MatchKind::Border { .. }))
            .collect();
        let (spine, border_edges) = if border.is_empty() {
            // The container: the fragment that is the non-plug side of
            // its matches (or the H side of a both-full 2-island).
            let container = matches
                .iter()
                .map(|&id| {
                    let m = &s.as_slice()[id];
                    match kinds[id] {
                        MatchKind::Full {
                            full_side: Species::H,
                        } => m.m.frag,
                        _ => m.h.frag,
                    }
                })
                .next()
                .expect("island has at least one match");
            (vec![container], vec![])
        } else {
            walk_spine(s, &border)
        };
        islands.push(Island {
            fragments,
            matches,
            spine,
            border_edges,
        });
    }

    Ok(ConsistencyReport {
        islands,
        orientation,
        kinds,
    })
}

/// Order an island's border matches into a path.
fn walk_spine(s: &MatchSet, border: &[MatchId]) -> (Vec<FragId>, Vec<MatchId>) {
    let mut adj: HashMap<FragId, Vec<(MatchId, FragId)>> = HashMap::new();
    for &id in border {
        let m = &s.as_slice()[id];
        adj.entry(m.h.frag).or_default().push((id, m.m.frag));
        adj.entry(m.m.frag).or_default().push((id, m.h.frag));
    }
    // A path has exactly two degree-1 endpoints; pick the smaller id
    // for determinism.
    let mut endpoints: Vec<FragId> = adj
        .iter()
        .filter(|(_, v)| v.len() == 1)
        .map(|(&f, _)| f)
        .collect();
    endpoints.sort();
    let start = endpoints[0];
    let mut spine = vec![start];
    let mut edges = Vec::new();
    let mut prev_edge: Option<MatchId> = None;
    let mut cur = start;
    loop {
        let next = adj[&cur]
            .iter()
            .find(|&&(id, _)| Some(id) != prev_edge)
            .copied();
        match next {
            Some((id, other)) => {
                edges.push(id);
                spine.push(other);
                prev_edge = Some(id);
                cur = other;
            }
            None => break,
        }
        if edges.len() == border.len() {
            break;
        }
    }
    (spine, edges)
}

/// Minimal union–find over `0..n`, shared by the consistency rules
/// here and by solver-side guards that enforce the same border-forest
/// invariant (e.g. `fragalign-core`'s improvement operations).
pub struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    /// Union two elements; `false` if already joined.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra] = rb;
        true
    }
}

/// Builds an explicit [`ConjecturePair`] from a consistent match set
/// (the constructive direction of Remark 1).
pub struct LayoutBuilder<'a, A: SiteAligner> {
    inst: &'a Instance,
    aligner: &'a A,
}

impl<'a, A: SiteAligner> LayoutBuilder<'a, A> {
    /// Create a builder over an instance and an aligner.
    pub fn new(inst: &'a Instance, aligner: &'a A) -> Self {
        LayoutBuilder { inst, aligner }
    }

    /// Build the conjecture pair realising `s`. Fails with the
    /// consistency diagnosis if `s` is not consistent.
    pub fn layout(&self, s: &MatchSet) -> Result<ConjecturePair, Inconsistency> {
        let report = check_consistency(self.inst, s)?;
        let mut orient = report.orientation.clone();
        let mut emit = PairAssembler::new();

        for island in &report.islands {
            self.normalize_island(s, island, &mut orient);
            self.emit_island(s, island, &orient, &mut emit);
        }

        // Unmatched fragments: appended forward, against ⊥.
        for f in self.inst.all_frag_ids() {
            if emit.contains(f) || orient.contains_key(&f) {
                continue;
            }
            for i in 0..self.inst.frag_len(f) {
                match f.species {
                    Species::H => emit.push(Some((f, i, false)), None),
                    Species::M => emit.push(None, Some((f, i, false))),
                }
            }
        }
        // Every matched fragment was emitted by its island.
        debug_assert!(orient.keys().all(|f| emit.contains(*f)));

        Ok(emit.finish())
    }

    /// Flip an island's orientation assignment so the spine walks
    /// left→right: the first spine fragment's border end must be laid
    /// `Right`.
    fn normalize_island(&self, s: &MatchSet, island: &Island, orient: &mut HashMap<FragId, bool>) {
        let Some(&first_edge) = island.border_edges.first() else {
            return;
        };
        let root = island.spine[0];
        let m = &s.as_slice()[first_edge];
        let root_site = m.site_on(root).expect("spine fragment is in its edge");
        let end = match root_site.classify(self.inst.frag_len(root)) {
            crate::site::SiteClass::Border(e) => e,
            c => unreachable!("border match on non-border site: {c:?}"),
        };
        if end.oriented(orient[&root]) != End::Right {
            for f in &island.fragments {
                if let Some(o) = orient.get_mut(f) {
                    *o = !*o;
                }
            }
        }
    }

    /// Laid word of a site under an orientation flag.
    fn laid_word(&self, site: Site, rev: bool) -> Vec<Sym> {
        let w = self.inst.site_word(site);
        if rev {
            reverse_word(w)
        } else {
            w.to_vec()
        }
    }

    /// Map a laid offset within a laid site back to the original index.
    fn original_index(&self, site: Site, rev: bool, laid_off: usize) -> usize {
        if rev {
            site.hi - 1 - laid_off
        } else {
            site.lo + laid_off
        }
    }

    /// Emit the aligned columns of one match. `a` is the site of the
    /// fragment currently being walked; `b` the opposite site.
    fn emit_match(
        &self,
        a_site: Site,
        a_rev: bool,
        b_site: Site,
        b_rev: bool,
        emit: &mut PairAssembler,
    ) {
        // Order H side first for the aligner and the column cells.
        let a_is_h = a_site.frag.species == Species::H;
        let (h_site, h_rev, m_site, m_rev) = if a_is_h {
            (a_site, a_rev, b_site, b_rev)
        } else {
            (b_site, b_rev, a_site, a_rev)
        };
        let u = self.laid_word(h_site, h_rev);
        let v = self.laid_word(m_site, m_rev);
        let (_, cols) = self.aligner.align_words(&self.inst.sigma, &u, &v);
        for (uo, vo) in cols {
            let h_cell = uo.map(|o| (h_site.frag, self.original_index(h_site, h_rev, o), h_rev));
            let m_cell = vo.map(|o| (m_site.frag, self.original_index(m_site, m_rev, o), m_rev));
            emit.push(h_cell, m_cell);
        }
    }

    /// Emit one island: walk the spine, interleaving unmatched regions,
    /// plugged leaves and staircase junctions.
    fn emit_island(
        &self,
        s: &MatchSet,
        island: &Island,
        orient: &HashMap<FragId, bool>,
        emit: &mut PairAssembler,
    ) {
        // Laid position where each spine fragment's remaining content
        // starts (the entry staircase is emitted by the predecessor).
        let mut entry_consumed = 0usize;
        for (i, &f) in island.spine.iter().enumerate() {
            let o = orient[&f];
            let n = self.inst.frag_len(f);
            let exit_edge = island.border_edges.get(i).copied();
            // Sites on f in laid coordinates: plugs plus the exit site.
            struct Ev {
                laid_lo: usize,
                laid_hi: usize,
                mid: MatchId,
                is_exit: bool,
            }
            let mut events: Vec<Ev> = Vec::new();
            for &mid in &island.matches {
                let m = &s.as_slice()[mid];
                let Some(site) = m.site_on(f) else { continue };
                let entry_edge = if i > 0 {
                    island.border_edges.get(i - 1).copied()
                } else {
                    None
                };
                if Some(mid) == entry_edge {
                    continue; // already emitted by predecessor
                }
                let is_exit = Some(mid) == exit_edge;
                // A plug event only belongs to f when f is the container.
                if !is_exit {
                    let other = m.other_site(f).expect("cross match");
                    let other_full = other.is_full(self.inst.frag_len(other.frag));
                    if !other_full {
                        continue; // f is the plug of this match; emitted by container
                    }
                }
                let laid = if o { site.mirrored(n) } else { site };
                events.push(Ev {
                    laid_lo: laid.lo,
                    laid_hi: laid.hi,
                    mid,
                    is_exit,
                });
            }
            events.sort_by_key(|e| e.laid_lo);

            let mut pos = entry_consumed;
            entry_consumed = 0;
            for ev in &events {
                // Unmatched laid region before the event.
                for p in pos..ev.laid_lo {
                    let idx = if o { n - 1 - p } else { p };
                    match f.species {
                        Species::H => emit.push(Some((f, idx, o)), None),
                        Species::M => emit.push(None, Some((f, idx, o))),
                    }
                }
                let m = &s.as_slice()[ev.mid];
                let my_site = m.site_on(f).unwrap();
                let other_site = m.other_site(f).unwrap();
                let other_rev = orient[&other_site.frag];
                self.emit_match(my_site, o, other_site, other_rev, emit);
                pos = ev.laid_hi;
                if ev.is_exit {
                    // Predecessor emitted the successor's entry site.
                    let next = island.spine[i + 1];
                    let next_o = orient[&next];
                    let next_n = self.inst.frag_len(next);
                    let laid_entry = if next_o {
                        other_site.mirrored(next_n)
                    } else {
                        other_site
                    };
                    debug_assert_eq!(laid_entry.lo, 0, "entry site must be a laid prefix");
                    entry_consumed = laid_entry.hi;
                }
            }
            // Tail of the fragment after the last event.
            for p in pos..n {
                let idx = if o { n - 1 - p } else { p };
                match f.species {
                    Species::H => emit.push(Some((f, idx, o)), None),
                    Species::M => emit.push(None, Some((f, idx, o))),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{paper_example, InstanceBuilder};
    use crate::matchset::Match;

    fn h(i: usize, lo: usize, hi: usize) -> Site {
        Site::new(FragId::h(i), lo, hi)
    }
    fn m(i: usize, lo: usize, hi: usize) -> Site {
        Site::new(FragId::m(i), lo, hi)
    }

    /// The consistent match set of Fig. 5.
    fn fig5_matches() -> MatchSet {
        MatchSet::from_matches(vec![
            Match::new(h(0, 0, 2), m(0, 0, 2), Orient::Same, 4),
            Match::new(h(0, 2, 3), m(1, 0, 1), Orient::Same, 5),
            Match::new(h(1, 0, 1), m(1, 1, 2), Orient::Reversed, 2),
        ])
    }

    #[test]
    fn fig5_is_consistent() {
        let inst = paper_example();
        let report = check_consistency(&inst, &fig5_matches()).unwrap();
        // One island containing all four fragments: h1–m1 staircase? No:
        // h1's site (0,2) is a border site, m1 (0,2) is full ⇒ m1 plugs
        // into h1. h1(2,3) border + m2(0,1) border = staircase; h2 full
        // plugs into m2.
        assert_eq!(report.islands.len(), 1);
        let island = &report.islands[0];
        assert_eq!(island.fragments.len(), 4);
        assert_eq!(island.spine, vec![FragId::h(0), FragId::m(1)]);
        assert_eq!(island.border_edges.len(), 1);
    }

    #[test]
    fn fig5_layout_roundtrip() {
        let inst = paper_example();
        let s = fig5_matches();
        let pair = LayoutBuilder::new(&inst, &UnitAligner).layout(&s).unwrap();
        pair.validate(&inst).unwrap();
        assert_eq!(
            pair.score(&inst),
            11,
            "layout realises Σ MS = 11:\n{}",
            pair.render(&inst)
        );
        // Derived matches preserve the score (Remark 1) and are
        // consistent again.
        let derived = pair.derive_matches(&inst);
        assert_eq!(derived.total_score(), 11);
        check_consistency(&inst, &derived).unwrap();
    }

    #[test]
    fn overlap_is_rejected() {
        let inst = paper_example();
        let s = MatchSet::from_matches(vec![
            Match::new(h(0, 0, 2), m(0, 0, 2), Orient::Same, 4),
            Match::new(h(0, 1, 3), m(1, 0, 2), Orient::Same, 4),
        ]);
        match check_consistency(&inst, &s) {
            Err(Inconsistency::OverlappingSites { .. }) => {}
            other => panic!("expected overlap, got {other:?}"),
        }
    }

    #[test]
    fn inner_inner_is_rejected() {
        let mut b = InstanceBuilder::new();
        b.h_frag("h", &["a", "b", "c", "d"]);
        b.m_frag("m", &["w", "x", "y", "z"]);
        let inst = b.build();
        let s = MatchSet::from_matches(vec![Match::new(h(0, 1, 3), m(0, 1, 3), Orient::Same, 1)]);
        match check_consistency(&inst, &s) {
            Err(Inconsistency::InnerSiteNotFull { .. }) => {}
            other => panic!("expected inner-site error, got {other:?}"),
        }
    }

    #[test]
    fn staircase_orientation_rule() {
        let mut b = InstanceBuilder::new();
        b.h_frag("h", &["a", "b"]);
        b.m_frag("m", &["x", "y"]);
        let inst = b.build();
        // Same orientation, suffix-with-suffix: cannot be laid flush.
        let bad = MatchSet::from_matches(vec![Match::new(h(0, 1, 2), m(0, 1, 2), Orient::Same, 1)]);
        match check_consistency(&inst, &bad) {
            Err(Inconsistency::BorderEndMismatch { .. }) => {}
            other => panic!("expected end mismatch, got {other:?}"),
        }
        // Reversed orientation suffix-with-suffix is the Fig. 1
        // situation (b aligns d^R) and is fine.
        let good = MatchSet::from_matches(vec![Match::new(
            h(0, 1, 2),
            m(0, 1, 2),
            Orient::Reversed,
            1,
        )]);
        check_consistency(&inst, &good).unwrap();
        // Same orientation suffix-with-prefix is the classic overlap.
        let good2 =
            MatchSet::from_matches(vec![Match::new(h(0, 1, 2), m(0, 0, 1), Orient::Same, 1)]);
        check_consistency(&inst, &good2).unwrap();
    }

    #[test]
    fn double_border_end_rejected() {
        let mut b = InstanceBuilder::new();
        b.h_frag("h", &["a", "b", "c"]);
        b.m_frag("m1", &["x", "y"]);
        b.m_frag("m2", &["w", "z"]);
        let inst = b.build();
        let s = MatchSet::from_matches(vec![
            Match::new(h(0, 2, 3), m(0, 0, 1), Orient::Same, 1),
            Match::new(h(0, 1, 3), m(1, 0, 1), Orient::Same, 1),
        ]);
        // First the overlap triggers; shrink to share only the end.
        let s2 = MatchSet::from_matches(vec![
            Match::new(h(0, 2, 3), m(0, 0, 1), Orient::Same, 1),
            Match::new(h(0, 2, 3), m(1, 0, 1), Orient::Same, 1),
        ]);
        assert!(matches!(
            check_consistency(&inst, &s),
            Err(Inconsistency::OverlappingSites { .. })
        ));
        assert!(matches!(
            check_consistency(&inst, &s2),
            Err(Inconsistency::OverlappingSites { .. })
        ));
    }

    #[test]
    fn border_cycle_rejected() {
        // h1 and m1 overlap at both end pairs: a 2-cycle of border
        // matches, impossible to lay out.
        let mut b = InstanceBuilder::new();
        b.h_frag("h", &["a", "b", "c"]);
        b.m_frag("m", &["x", "y", "z"]);
        let inst = b.build();
        let s = MatchSet::from_matches(vec![
            Match::new(h(0, 2, 3), m(0, 0, 1), Orient::Same, 1),
            Match::new(h(0, 0, 1), m(0, 2, 3), Orient::Same, 1),
        ]);
        match check_consistency(&inst, &s) {
            Err(Inconsistency::BorderCycle { .. }) => {}
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn chain_of_staircases_layout() {
        // h1 ⟨a b⟩, m1 ⟨c d⟩, h2 ⟨e f⟩: h1 suffix ~ m1 prefix,
        // m1 suffix ~ h2 prefix — a 3-spine chain.
        let mut b = InstanceBuilder::new();
        b.h_frag("h1", &["a", "b"]);
        b.h_frag("h2", &["e", "f"]);
        b.m_frag("m1", &["c", "d"]);
        b.score("b", "c", 3);
        b.score("e", "d", 2);
        let inst = b.build();
        let s = MatchSet::from_matches(vec![
            Match::new(h(0, 1, 2), m(0, 0, 1), Orient::Same, 3),
            Match::new(h(1, 0, 1), m(0, 1, 2), Orient::Same, 2),
        ]);
        let report = check_consistency(&inst, &s).unwrap();
        assert_eq!(report.islands.len(), 1);
        assert_eq!(report.islands[0].spine.len(), 3);
        let pair = LayoutBuilder::new(&inst, &UnitAligner).layout(&s).unwrap();
        pair.validate(&inst).unwrap();
        assert_eq!(pair.score(&inst), 5, "{}", pair.render(&inst));
        let derived = pair.derive_matches(&inst);
        assert_eq!(derived.total_score(), 5);
        check_consistency(&inst, &derived).unwrap();
    }

    #[test]
    fn reversed_staircase_layout() {
        // Fig. 1: region b at the end of h aligns with d^R where d is at
        // the end of m2 — m2 must be laid reversed.
        let mut b = InstanceBuilder::new();
        b.h_frag("h", &["a", "b"]);
        b.m_frag("m", &["c", "d"]);
        b.score("b", "dR", 7);
        let inst = b.build();
        let s = MatchSet::from_matches(vec![Match::new(
            h(0, 1, 2),
            m(0, 1, 2),
            Orient::Reversed,
            7,
        )]);
        let pair = LayoutBuilder::new(&inst, &UnitAligner).layout(&s).unwrap();
        pair.validate(&inst).unwrap();
        assert_eq!(pair.score(&inst), 7, "{}", pair.render(&inst));
        let placement = pair.placement(FragId::m(0)).unwrap();
        let h_placement = pair.placement(FragId::h(0)).unwrap();
        assert_ne!(
            placement.reversed, h_placement.reversed,
            "exactly one side is laid reversed"
        );
    }

    #[test]
    fn multiple_plugs_layout() {
        // Container h ⟨a b c d⟩ with two plugged M fragments.
        let mut b = InstanceBuilder::new();
        b.h_frag("h", &["a", "b", "c", "d"]);
        b.m_frag("m1", &["x"]);
        b.m_frag("m2", &["y", "z"]);
        b.score("a", "x", 2);
        b.score("c", "y", 3);
        b.score("d", "z", 4);
        let inst = b.build();
        let s = MatchSet::from_matches(vec![
            Match::new(h(0, 0, 1), m(0, 0, 1), Orient::Same, 2),
            Match::new(h(0, 2, 4), m(1, 0, 2), Orient::Same, 7),
        ]);
        let report = check_consistency(&inst, &s).unwrap();
        assert_eq!(report.islands.len(), 1);
        assert_eq!(report.islands[0].spine, vec![FragId::h(0)]);
        let pair = LayoutBuilder::new(&inst, &UnitAligner).layout(&s).unwrap();
        pair.validate(&inst).unwrap();
        assert_eq!(pair.score(&inst), 9, "{}", pair.render(&inst));
    }

    #[test]
    fn strict_prefix_prefix_match_is_inconsistent() {
        // A (prefix, prefix) same-orientation match cannot be produced
        // by any conjecture pair: no fragment end provides the split at
        // the sites' inner boundary (Definition 2). The consistent way
        // to express "a aligns with s" plugs the whole fragment.
        let inst = paper_example();
        let s = MatchSet::from_matches(vec![Match::new(h(0, 0, 1), m(0, 0, 1), Orient::Same, 4)]);
        assert!(matches!(
            check_consistency(&inst, &s),
            Err(Inconsistency::BorderEndMismatch { .. })
        ));
    }

    #[test]
    fn multiple_islands_and_unmatched() {
        let inst = paper_example();
        // Only one match: m1 = ⟨s, t⟩ plugged (full) into the prefix
        // site ⟨a⟩ of h1; everything else is unmatched.
        let s = MatchSet::from_matches(vec![Match::new(h(0, 0, 1), m(0, 0, 2), Orient::Same, 4)]);
        let pair = LayoutBuilder::new(&inst, &UnitAligner).layout(&s).unwrap();
        pair.validate(&inst).unwrap();
        assert_eq!(pair.score(&inst), 4);
        // All 4 fragments placed.
        assert_eq!(pair.h_row.placed.len(), 2);
        assert_eq!(pair.m_row.placed.len(), 2);
    }

    #[test]
    fn empty_set_layout() {
        let inst = paper_example();
        let pair = LayoutBuilder::new(&inst, &UnitAligner)
            .layout(&MatchSet::new())
            .unwrap();
        pair.validate(&inst).unwrap();
        assert_eq!(pair.score(&inst), 0);
        assert_eq!(pair.derive_matches(&inst).len(), 0);
    }

    #[test]
    fn multiple_fragments_report() {
        let inst = paper_example();
        let s = fig5_matches();
        let report = check_consistency(&inst, &s).unwrap();
        let mult = report.multiple_fragments(&s);
        assert!(mult.contains(&FragId::h(0)));
        assert!(mult.contains(&FragId::m(1)));
        assert!(!mult.contains(&FragId::h(1)));
    }
}
