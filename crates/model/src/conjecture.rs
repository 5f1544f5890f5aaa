//! Conjecture pairs: explicit two-row layouts (Definition 1).
//!
//! A conjecture for a fragment set is built by padding each fragment
//! with `⊥`, optionally reversing it, and concatenating the padded
//! sequences in some order. A *conjecture pair* stacks an H conjecture
//! over an M conjecture; its score is the column-wise sum of `σ`.
//!
//! This module stores the layout explicitly — per-row fragment spans
//! (which `⊥` belongs to which padded sequence matters when deriving
//! matches, because pieces are split at padded-sequence ends) — and
//! implements Definition 2: deriving the match set of a conjecture
//! pair.

use crate::consistency::AlignColumns;
use crate::fragment::{FragId, Species};
use crate::instance::Instance;
use crate::matchset::{Match, MatchSet};
use crate::score::Orient;
use crate::site::Site;
use crate::symbol::Sym;
use crate::Score;
use serde::{Deserialize, Serialize};

/// A fragment placed on a row: orientation plus the half-open column
/// span of its padded sequence (padding included).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacedFragment {
    /// Which fragment.
    pub frag: FragId,
    /// Placed as its reverse complement?
    pub reversed: bool,
    /// First column of the padded sequence.
    pub span_start: usize,
    /// One past the last column of the padded sequence.
    pub span_end: usize,
}

/// One row of a conjecture pair: placed fragments in left-to-right
/// order whose spans partition the row's columns.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Placement of every fragment of the species, in layout order.
    pub placed: Vec<PlacedFragment>,
}

/// One column of the stacked pair: for each row, either `⊥` (`None`)
/// or a region occurrence given as `(fragment, original index)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// H-row content.
    pub h: Option<(FragId, usize)>,
    /// M-row content.
    pub m: Option<(FragId, usize)>,
}

/// An explicit conjecture pair `(h, m) ∈ Conj(H) × Conj(M)`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ConjecturePair {
    /// Layout of the H conjecture.
    pub h_row: Row,
    /// Layout of the M conjecture.
    pub m_row: Row,
    /// The stacked columns; both rows have this common length.
    pub columns: Vec<Column>,
}

impl ConjecturePair {
    /// The symbol a cell displays: the fragment's region, reversed if
    /// the fragment was placed reversed.
    pub fn cell_sym(inst: &Instance, cell: (FragId, usize), reversed: bool) -> Sym {
        let sym = inst.fragment(cell.0).regions[cell.1];
        if reversed {
            sym.reversed()
        } else {
            sym
        }
    }

    fn row(&self, species: Species) -> &Row {
        match species {
            Species::H => &self.h_row,
            Species::M => &self.m_row,
        }
    }

    /// Orientation flag of a placed fragment.
    pub fn placement(&self, frag: FragId) -> Option<&PlacedFragment> {
        self.row(frag.species)
            .placed
            .iter()
            .find(|p| p.frag == frag)
    }

    /// Score of the conjecture pair: `Σ_i σ(a_i, b_i)` with `⊥`
    /// scoring 0 (Definition 1).
    pub fn score(&self, inst: &Instance) -> Score {
        let mut total = 0;
        for col in &self.columns {
            if let (Some(hc), Some(mc)) = (col.h, col.m) {
                let h_rev = self.placement(hc.0).map(|p| p.reversed).unwrap_or(false);
                let m_rev = self.placement(mc.0).map(|p| p.reversed).unwrap_or(false);
                let a = Self::cell_sym(inst, hc, h_rev);
                let b = Self::cell_sym(inst, mc, m_rev);
                total += inst.sigma.score(a, b);
            }
        }
        total
    }

    /// Validate the structural invariants of Definition 1: spans
    /// partition the columns per (non-empty) row, every fragment of the
    /// instance appears exactly once and completely, and symbols appear
    /// in laid order within their span.
    pub fn validate(&self, inst: &Instance) -> Result<(), String> {
        for (species, row) in [(Species::H, &self.h_row), (Species::M, &self.m_row)] {
            let expected: Vec<FragId> = inst.frag_ids(species).collect();
            if row.placed.len() != expected.len() {
                return Err(format!(
                    "{species} row places {} fragments, instance has {}",
                    row.placed.len(),
                    expected.len()
                ));
            }
            let mut seen: Vec<FragId> = row.placed.iter().map(|p| p.frag).collect();
            seen.sort();
            if seen != expected {
                return Err(format!(
                    "{species} row does not place every fragment exactly once"
                ));
            }
            // Spans partition [0, columns).
            let mut cursor = 0;
            for p in &row.placed {
                if p.span_start != cursor {
                    return Err(format!("{species} row span gap before {:?}", p.frag));
                }
                if p.span_end < p.span_start {
                    return Err(format!("inverted span for {:?}", p.frag));
                }
                cursor = p.span_end;
            }
            if !row.placed.is_empty() && cursor != self.columns.len() {
                return Err(format!(
                    "{species} row spans end at {cursor}, expected {}",
                    self.columns.len()
                ));
            }
            // Each fragment's cells: exactly its regions, laid order,
            // inside its span.
            for p in &row.placed {
                let n = inst.frag_len(p.frag);
                let mut cells = Vec::new();
                for (c, col) in self.columns.iter().enumerate() {
                    let cell = match species {
                        Species::H => col.h,
                        Species::M => col.m,
                    };
                    if let Some((f, idx)) = cell {
                        if f == p.frag {
                            if c < p.span_start || c >= p.span_end {
                                return Err(format!(
                                    "cell of {:?} at column {c} outside span",
                                    p.frag
                                ));
                            }
                            cells.push(idx);
                        }
                    }
                }
                let want: Vec<usize> = if p.reversed {
                    (0..n).rev().collect()
                } else {
                    (0..n).collect()
                };
                if cells != want {
                    return Err(format!(
                        "fragment {:?} cells {cells:?} are not the laid order {want:?}",
                        p.frag
                    ));
                }
            }
        }
        Ok(())
    }

    /// Definition 2: derive the match set of this conjecture pair.
    ///
    /// The stacked word is split at the ends of every padded sequence
    /// (both rows); each resulting piece with symbols on both rows
    /// becomes a match whose score is the piece's realised column
    /// score. `Score(derived set) == self.score(inst)` always holds
    /// (Remark 1).
    pub fn derive_matches(&self, inst: &Instance) -> MatchSet {
        // Collect split points: span boundaries from both rows.
        let mut cuts: Vec<usize> = vec![0, self.columns.len()];
        for row in [&self.h_row, &self.m_row] {
            for p in &row.placed {
                cuts.push(p.span_start);
                cuts.push(p.span_end);
            }
        }
        cuts.sort_unstable();
        cuts.dedup();

        let mut out = MatchSet::new();
        for w in cuts.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if lo >= hi {
                continue;
            }
            // Gather the symbol cells of each row inside the piece.
            let mut h_cells: Vec<(FragId, usize)> = Vec::new();
            let mut m_cells: Vec<(FragId, usize)> = Vec::new();
            let mut piece_score: Score = 0;
            for col in &self.columns[lo..hi] {
                if let Some(c) = col.h {
                    h_cells.push(c);
                }
                if let Some(c) = col.m {
                    m_cells.push(c);
                }
                if let (Some(hc), Some(mc)) = (col.h, col.m) {
                    let h_rev = self.placement(hc.0).map(|p| p.reversed).unwrap_or(false);
                    let m_rev = self.placement(mc.0).map(|p| p.reversed).unwrap_or(false);
                    piece_score += inst.sigma.score(
                        Self::cell_sym(inst, hc, h_rev),
                        Self::cell_sym(inst, mc, m_rev),
                    );
                }
            }
            let (Some(&(hf, _)), Some(&(mf, _))) = (h_cells.first(), m_cells.first()) else {
                continue; // piece with symbols on at most one row
            };
            // A piece where no column pairs two symbols is vacuous: it
            // only stacks one row's symbols against the other's padding
            // and contributes nothing; Definition 2 lets us drop it.
            let paired = self.columns[lo..hi]
                .iter()
                .any(|c| c.h.is_some() && c.m.is_some());
            if !paired {
                continue;
            }
            debug_assert!(
                h_cells.iter().all(|&(f, _)| f == hf),
                "piece crosses H fragments"
            );
            debug_assert!(
                m_cells.iter().all(|&(f, _)| f == mf),
                "piece crosses M fragments"
            );
            let h_site = cells_site(hf, &h_cells);
            let m_site = cells_site(mf, &m_cells);
            let h_rev = self.placement(hf).map(|p| p.reversed).unwrap_or(false);
            let m_rev = self.placement(mf).map(|p| p.reversed).unwrap_or(false);
            out.push(Match::new(
                h_site,
                m_site,
                Orient::from_reversed(h_rev ^ m_rev),
                piece_score,
            ));
        }
        out
    }

    /// Pretty-print the pair with region names, one line per row, for
    /// examples and debugging.
    pub fn render(&self, inst: &Instance) -> String {
        let mut top = Vec::new();
        let mut bot = Vec::new();
        for col in &self.columns {
            let cell = |c: Option<(FragId, usize)>| -> String {
                match c {
                    None => "⊥".to_owned(),
                    Some(cell) => {
                        let rev = self.placement(cell.0).map(|p| p.reversed).unwrap_or(false);
                        inst.alphabet.render(Self::cell_sym(inst, cell, rev))
                    }
                }
            };
            top.push(cell(col.h));
            bot.push(cell(col.m));
        }
        let width: Vec<usize> = top
            .iter()
            .zip(&bot)
            .map(|(a, b)| a.chars().count().max(b.chars().count()))
            .collect();
        let fmt = |cells: &[String]| {
            cells
                .iter()
                .zip(&width)
                .map(|(c, w)| format!("{c:>width$}", width = w))
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!("H: {}\nM: {}", fmt(&top), fmt(&bot))
    }
}

/// A cell of a laid row: `(fragment, original region index, laid
/// reversed)`.
pub type LaidCell = (FragId, usize, bool);

/// The cells of `frag` (of length `len`) in laid order: first region
/// to last, or last to first when `reversed`.
pub fn laid_cells(frag: FragId, len: usize, reversed: bool) -> impl Iterator<Item = LaidCell> {
    (0..len).map(move |o| (frag, if reversed { len - 1 - o } else { o }, reversed))
}

/// Lay out a conjecture pair around aligned windows: the Remark 1 step
/// of the factor-4, chaining and exhaustive solvers.
///
/// `m_row` is the whole M row in laid order. Each run is a list of
/// laid H cells and the window `[lo, hi)` of `m_row` it aligns inside;
/// windows are disjoint and come sorted. `align(h_word, m_word)`
/// returns the columns of one alignment of the two laid words. M cells
/// outside every window stand over `⊥`, and H fragments in no run
/// trail at the end, forward, over `⊥`.
pub fn lay_windows(
    inst: &Instance,
    m_row: &[LaidCell],
    runs: impl IntoIterator<Item = (Vec<LaidCell>, std::ops::Range<usize>)>,
    mut align: impl FnMut(&[Sym], &[Sym]) -> AlignColumns,
) -> ConjecturePair {
    let word = |cells: &[LaidCell]| -> Vec<Sym> {
        cells
            .iter()
            .map(|&(f, i, rev)| ConjecturePair::cell_sym(inst, (f, i), rev))
            .collect()
    };
    let mut asm = PairAssembler::new();
    let mut cursor = 0;
    for (h_cells, window) in runs {
        for &cell in &m_row[cursor..window.start] {
            asm.push(None, Some(cell));
        }
        let m_cells = &m_row[window.clone()];
        for (uo, vo) in align(&word(&h_cells), &word(m_cells)) {
            asm.push(uo.map(|o| h_cells[o]), vo.map(|o| m_cells[o]));
        }
        cursor = window.end;
    }
    for &cell in &m_row[cursor..] {
        asm.push(None, Some(cell));
    }
    for f in inst.frag_ids(Species::H) {
        if !asm.contains(f) {
            for cell in laid_cells(f, inst.frag_len(f), false) {
                asm.push(Some(cell), None);
            }
        }
    }
    let pair = asm.finish();
    debug_assert!(pair.validate(inst).is_ok(), "{:?}", pair.validate(inst));
    pair
}

/// Incrementally assembles a [`ConjecturePair`] column by column.
///
/// Callers emit columns left to right; the assembler tracks each
/// fragment's first/last symbol column and orientation, then derives
/// the per-row spans (a fragment's padded span runs from the previous
/// fragment's span end to just past its own last symbol; the final
/// fragment absorbs the tail). Used by the consistency layout builder
/// and by [`lay_windows`].
#[derive(Debug, Default)]
pub struct PairAssembler {
    columns: Vec<Column>,
    extents: std::collections::HashMap<FragId, (usize, usize, bool)>,
    order_h: Vec<FragId>,
    order_m: Vec<FragId>,
}

impl PairAssembler {
    /// Start an empty assembly.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of columns emitted so far.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether no column has been emitted.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    fn note(&mut self, frag: FragId, col: usize, reversed: bool) {
        match self.extents.entry(frag) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let v = e.get_mut();
                v.0 = v.0.min(col);
                v.1 = v.1.max(col);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert((col, col, reversed));
                match frag.species {
                    Species::H => self.order_h.push(frag),
                    Species::M => self.order_m.push(frag),
                }
            }
        }
    }

    /// Append a column. Cells are `(fragment, original region index,
    /// laid reversed)`.
    pub fn push(&mut self, h: Option<(FragId, usize, bool)>, m: Option<(FragId, usize, bool)>) {
        let col = self.columns.len();
        if let Some((f, _, rev)) = h {
            self.note(f, col, rev);
        }
        if let Some((f, _, rev)) = m {
            self.note(f, col, rev);
        }
        self.columns.push(Column {
            h: h.map(|(f, i, _)| (f, i)),
            m: m.map(|(f, i, _)| (f, i)),
        });
    }

    /// Whether a fragment has been emitted.
    pub fn contains(&self, frag: FragId) -> bool {
        self.extents.contains_key(&frag)
    }

    /// Finish: derive spans and produce the pair.
    pub fn finish(self) -> ConjecturePair {
        let total = self.columns.len();
        let mut pair = ConjecturePair {
            columns: self.columns,
            ..Default::default()
        };
        for (species, order) in [(Species::H, &self.order_h), (Species::M, &self.order_m)] {
            let mut placed = Vec::new();
            let mut cursor = 0;
            for (i, &f) in order.iter().enumerate() {
                let (_, last, rev) = self.extents[&f];
                let span_end = if i + 1 == order.len() {
                    total
                } else {
                    last + 1
                };
                placed.push(PlacedFragment {
                    frag: f,
                    reversed: rev,
                    span_start: cursor,
                    span_end,
                });
                cursor = span_end;
            }
            match species {
                Species::H => pair.h_row = Row { placed },
                Species::M => pair.m_row = Row { placed },
            }
        }
        pair
    }
}

/// Convert the cells of one row inside a piece into a site in original
/// fragment coordinates.
fn cells_site(frag: FragId, cells: &[(FragId, usize)]) -> Site {
    let min = cells.iter().map(|&(_, i)| i).min().expect("non-empty");
    let max = cells.iter().map(|&(_, i)| i).max().expect("non-empty");
    Site::new(frag, min, max + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::paper_example;

    /// Hand-build the solution of Fig. 4/5: H row `⟨a b c | dR⟩`,
    /// M row `⟨s t | u v⟩`, aligned as
    /// `a b c dR` over `s t u v` with b–t both present (scoring 0 in
    /// this orientation) — the paper instead deletes b and t; we model
    /// deletion by leaving both in the rows as unpaired columns.
    fn fig5_pair(_inst: &Instance) -> ConjecturePair {
        // Columns: (a,s) (b,t) (c,u) (dR,v)
        // h2 = ⟨d⟩ reversed: cell index 0 with reversed flag.
        let h1 = FragId::h(0);
        let h2 = FragId::h(1);
        let m1 = FragId::m(0);
        let m2 = FragId::m(1);
        ConjecturePair {
            h_row: Row {
                placed: vec![
                    PlacedFragment {
                        frag: h1,
                        reversed: false,
                        span_start: 0,
                        span_end: 3,
                    },
                    PlacedFragment {
                        frag: h2,
                        reversed: true,
                        span_start: 3,
                        span_end: 4,
                    },
                ],
            },
            m_row: Row {
                placed: vec![
                    PlacedFragment {
                        frag: m1,
                        reversed: false,
                        span_start: 0,
                        span_end: 2,
                    },
                    PlacedFragment {
                        frag: m2,
                        reversed: false,
                        span_start: 2,
                        span_end: 4,
                    },
                ],
            },
            columns: vec![
                Column {
                    h: Some((h1, 0)),
                    m: Some((m1, 0)),
                },
                Column {
                    h: Some((h1, 1)),
                    m: Some((m1, 1)),
                },
                Column {
                    h: Some((h1, 2)),
                    m: Some((m2, 0)),
                },
                Column {
                    h: Some((h2, 0)),
                    m: Some((m2, 1)),
                },
            ],
        }
    }

    #[test]
    fn fig4_solution_scores_11() {
        let inst = paper_example();
        let pair = fig5_pair(&inst);
        pair.validate(&inst).unwrap();
        // σ(a,s) + σ(b,t) + σ(c,u) + σ(d^R,v) = 4 + 0 + 5 + 2 = 11
        assert_eq!(pair.score(&inst), 11);
    }

    #[test]
    fn fig5_derived_matches() {
        let inst = paper_example();
        let pair = fig5_pair(&inst);
        let derived = pair.derive_matches(&inst);
        // Fig. 5: ω1 = (h1(1,2), m1(1,2)), ω2 = (h1(3,3), m2(1,1)),
        // ω3 = (h2^R(1,1), m2(2,2)).
        assert_eq!(derived.len(), 3);
        assert_eq!(derived.total_score(), pair.score(&inst));
        let sites: Vec<(Site, Site, Orient)> =
            derived.iter().map(|(_, m)| (m.h, m.m, m.orient)).collect();
        assert!(sites.contains(&(
            Site::new(FragId::h(0), 0, 2),
            Site::new(FragId::m(0), 0, 2),
            Orient::Same
        )));
        assert!(sites.contains(&(
            Site::new(FragId::h(0), 2, 3),
            Site::new(FragId::m(1), 0, 1),
            Orient::Same
        )));
        assert!(sites.contains(&(
            Site::new(FragId::h(1), 0, 1),
            Site::new(FragId::m(1), 1, 2),
            Orient::Reversed
        )));
    }

    #[test]
    fn derive_matches_score_equals_pair_score() {
        // Remark 1, on a pair with padding and unmatched regions.
        let inst = paper_example();
        let h1 = FragId::h(0);
        let h2 = FragId::h(1);
        let m1 = FragId::m(0);
        let m2 = FragId::m(1);
        // H: a  b  c  ⊥  d      (h2 forward this time)
        // M: s  ⊥  ⊥  u  v      (t deleted by padding m1)
        let pair = ConjecturePair {
            h_row: Row {
                placed: vec![
                    PlacedFragment {
                        frag: h1,
                        reversed: false,
                        span_start: 0,
                        span_end: 4,
                    },
                    PlacedFragment {
                        frag: h2,
                        reversed: false,
                        span_start: 4,
                        span_end: 5,
                    },
                ],
            },
            m_row: Row {
                placed: vec![
                    PlacedFragment {
                        frag: m1,
                        reversed: false,
                        span_start: 0,
                        span_end: 3,
                    },
                    PlacedFragment {
                        frag: m2,
                        reversed: false,
                        span_start: 3,
                        span_end: 5,
                    },
                ],
            },
            columns: vec![
                Column {
                    h: Some((h1, 0)),
                    m: Some((m1, 0)),
                },
                Column {
                    h: Some((h1, 1)),
                    m: Some((m1, 1)),
                },
                Column {
                    h: Some((h1, 2)),
                    m: None,
                },
                Column {
                    h: None,
                    m: Some((m2, 0)),
                },
                Column {
                    h: Some((h2, 0)),
                    m: Some((m2, 1)),
                },
            ],
        };
        pair.validate(&inst).unwrap();
        // σ(a,s)=4, σ(b,t)=0, σ(d,v)=0 → score 4
        assert_eq!(pair.score(&inst), 4);
        let derived = pair.derive_matches(&inst);
        assert_eq!(derived.total_score(), 4);
    }

    #[test]
    fn laid_cells_walk_a_reversed_fragment_backwards() {
        let f = FragId::h(0);
        let fwd: Vec<LaidCell> = laid_cells(f, 3, false).collect();
        assert_eq!(fwd, [(f, 0, false), (f, 1, false), (f, 2, false)]);
        let rev: Vec<LaidCell> = laid_cells(f, 3, true).collect();
        assert_eq!(rev, [(f, 2, true), (f, 1, true), (f, 0, true)]);
    }

    #[test]
    fn lay_windows_pads_outside_windows_and_trails_unplaced_h() {
        use crate::consistency::{SiteAligner, UnitAligner};
        let inst = paper_example();
        let (h1, h2, m1, m2) = (FragId::h(0), FragId::h(1), FragId::m(0), FragId::m(1));
        let m_row: Vec<LaidCell> = [m1, m2]
            .into_iter()
            .flat_map(|f| laid_cells(f, 2, false))
            .collect();
        let lay = |runs: Vec<(Vec<LaidCell>, std::ops::Range<usize>)>| {
            lay_windows(&inst, &m_row, runs, |h, m| {
                UnitAligner.align_words(&inst.sigma, h, m).1
            })
        };
        let cells =
            |pair: &ConjecturePair| -> Vec<_> { pair.columns.iter().map(|c| (c.h, c.m)).collect() };
        // h1 over ⟨s⟩, t and u over ⊥, dR over ⟨v⟩.
        let pair = lay(vec![
            (laid_cells(h1, 3, false).collect(), 0..1),
            (laid_cells(h2, 1, true).collect(), 3..4),
        ]);
        assert_eq!(
            cells(&pair),
            [
                (Some((h1, 0)), Some((m1, 0))),
                (Some((h1, 1)), None),
                (Some((h1, 2)), None),
                (None, Some((m1, 1))),
                (None, Some((m2, 0))),
                (Some((h2, 0)), Some((m2, 1))),
            ]
        );
        // σ(a, s) + σ(dR, v) = 4 + 2, and Remark 1 keeps it.
        assert_eq!(pair.score(&inst), 6);
        assert_eq!(pair.derive_matches(&inst).total_score(), 6);
        // h1 in no run trails, forward, after the M row.
        let pair = lay(vec![(laid_cells(h2, 1, true).collect(), 3..4)]);
        assert_eq!(
            cells(&pair)[4..],
            [
                (Some((h1, 0)), None),
                (Some((h1, 1)), None),
                (Some((h1, 2)), None),
            ]
        );
        assert_eq!(pair.placement(h1).map(|p| p.reversed), Some(false));
    }

    #[test]
    fn validate_rejects_missing_fragment() {
        let inst = paper_example();
        let mut pair = fig5_pair(&inst);
        pair.h_row.placed.pop();
        assert!(pair.validate(&inst).is_err());
    }

    #[test]
    fn validate_rejects_span_gap() {
        let inst = paper_example();
        let mut pair = fig5_pair(&inst);
        pair.h_row.placed[1].span_start = 2; // overlaps previous span
        assert!(pair.validate(&inst).is_err());
    }

    #[test]
    fn validate_rejects_wrong_order() {
        let inst = paper_example();
        let mut pair = fig5_pair(&inst);
        // break laid order of h1 by swapping two cells
        pair.columns[0].h = Some((FragId::h(0), 1));
        pair.columns[1].h = Some((FragId::h(0), 0));
        assert!(pair.validate(&inst).is_err());
    }

    #[test]
    fn render_shows_reversals() {
        let inst = paper_example();
        let pair = fig5_pair(&inst);
        let s = pair.render(&inst);
        assert!(s.contains("dR"), "rendered: {s}");
        assert!(s.lines().count() == 2);
    }
}
