//! Anchor-chaining solver tier: minimizer-sampled single-symbol
//! anchors + LIS chaining + windowed DP.
//!
//! Every other solver in the registry ultimately pays full DP over
//! region pairs — `O(|h| · n²)` interval tables against the whole
//! concatenated M species — which gates instances with thousands of
//! regions. This module is the classic fragment-chaining pipeline
//! instead (the lLukal/BIO1 shape; see also Allali et al., *Chaining
//! fragments in sequences: to sweep or not*):
//!
//! 1. **Anchor index** — concatenate the M fragments in order and
//!    index every laid symbol occurrence by position; invert the
//!    positive σ entries so each H symbol knows its potential
//!    M partners.
//! 2. **Seeds** — each position of an H fragment, in both laid
//!    orientations, seeds one symbol; every concat-M position whose
//!    symbol scores positively against it makes that
//!    `(h position, m position)` pair an *anchor* weighted by its σ.
//!    Long fragments are subsampled with `w`-window minimizers — only
//!    window-minimal hash positions seed anchors — bounding the anchor
//!    count at roughly `2·L/w` per fragment.
//! 3. **Chaining** — per fragment and orientation, the maximum-weight
//!    strictly-increasing chain of anchors (LIS on `(p, j)` with a
//!    prefix-max Fenwick tree, `O(A log A)`); the better orientation
//!    wins.
//! 4. **Window selection** — each chained fragment claims the concat-M
//!    span of its chain; overlapping claims are resolved by weighted
//!    interval scheduling, then the disjoint windows are padded by
//!    `margin` regions into the gaps between them.
//! 5. **Windowed DP** — the existing `P_score` kernel with traceback
//!    ([`crate::DpWorkspace::align_words`]) runs *only inside each window* —
//!    the window is the band — and [`lay_windows`], the layout the
//!    factor-4 and exhaustive solvers share, lays the aligned windows
//!    out over concat-M, so the result is a consistent [`MatchSet`] by
//!    construction (Definition 2 / Remark 1).
//!
//! Total cost is anchor generation plus `O(L · (L + 2·margin))` DP per
//! chained fragment, independent of the concat length `n` — against
//! the DP family's `O(L · n²)` — so genome-scale instances the exact
//! and improvement tiers cannot touch become solvable. The price is
//! the approximation: a fragment recovers matches only inside its one
//! chained window, and there is no worst-case ratio.
//!
//! ## Parameters
//!
//! Seeds are single symbols: region alphabets are high-entropy — a
//! conserved-region id is nearly unique per species, unlike a 4-letter
//! DNA alphabet — so one symbol is already specific, and a longer seed
//! would only drop anchors whose neighbours fail to score. `W` is the
//! minimizer window (subsampling engages only when a fragment has more
//! than `W` positions) and `MARGIN` pads each chained window so
//! flanking matches just outside the chain span still reach the DP.

use crate::oracle::ScoreOracle;
use fragalign_model::conjecture::{laid_cells, lay_windows, LaidCell};
use fragalign_model::symbol::reverse_word;
use fragalign_model::{FragId, Instance, MatchSet, Orient, Score, Species, Sym};
use fragalign_obs::span;
use std::collections::HashMap;

/// Minimizer window: of every `W` consecutive positions, only the
/// hash-minimal ones generate anchors. Fragments with at most `W`
/// positions keep every one.
const W: usize = 8;
/// Padding, in regions, added to each side of a chained window before
/// the DP (clipped so windows stay disjoint).
const MARGIN: usize = 16;
/// Cap on anchor matches per kept seed position (ascending concat
/// position, deterministic); guards repetitive regions from quadratic
/// anchor blowup.
const MAX_ANCHORS_PER_SEED: usize = 32;

/// An anchor: position `p` in the laid H word matches concat-M
/// position `j` with score `weight`.
#[derive(Clone, Copy, Debug)]
struct Anchor {
    p: u32,
    j: u32,
    weight: Score,
}

/// The winning chain of one fragment orientation: total anchor weight
/// plus the concat-M span `[j_start, j_end)` it claims.
#[derive(Clone, Copy, Debug)]
struct Chain {
    weight: Score,
    j_start: u32,
    j_end: u32,
}

/// One fragment's claim on concat-M after orientation selection.
#[derive(Clone, Copy, Debug)]
struct Claim {
    h_index: usize,
    flip: bool,
    weight: Score,
    core_lo: usize,
    core_hi: usize,
}

/// A selected, margin-padded, disjoint window ready for the DP.
#[derive(Clone, Copy, Debug)]
struct Window {
    h_index: usize,
    flip: bool,
    lo: usize,
    hi: usize,
}

/// SplitMix64 finalizer: the minimizer hash. Any fixed mixing function
/// works — it only has to be deterministic and spread adjacent symbol
/// ids apart.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Hash of the seed symbol `sym`.
fn seed_hash(sym: Sym) -> u64 {
    mix64(0xcbf29ce484222325 ^ (((sym.id as u64) << 1) | sym.rev as u64))
}

/// The `w`-window minimizer positions of `word`: positions whose hash
/// is minimal in at least one window of `w` consecutive positions.
/// With at most `w` positions every one is kept. Ties keep every
/// attaining position (deterministic either way).
fn minimizer_positions(word: &[Sym], w: usize) -> Vec<usize> {
    let n = word.len();
    if n <= w {
        return (0..n).collect();
    }
    let hashes: Vec<u64> = word.iter().map(|&sym| seed_hash(sym)).collect();
    let mut keep = vec![false; n];
    for lo in 0..=(n - w) {
        let min = *hashes[lo..lo + w].iter().min().expect("w > 0");
        for (off, &h) in hashes[lo..lo + w].iter().enumerate() {
            if h == min {
                keep[lo + off] = true;
            }
        }
    }
    (0..n).filter(|&p| keep[p]).collect()
}

/// Max-query Fenwick tree over j-ranks for the weighted LIS: each
/// node stores the best `(chain weight, chain start)` among anchors
/// with smaller rank; ties prefer the smaller start (deterministic).
struct FenwickMax {
    tree: Vec<Option<(Score, u32)>>,
}

impl FenwickMax {
    fn new(n: usize) -> Self {
        FenwickMax {
            tree: vec![None; n + 1],
        }
    }

    fn better(a: (Score, u32), b: (Score, u32)) -> bool {
        a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
    }

    /// Best value among ranks `1..=i`.
    fn prefix_max(&self, mut i: usize) -> Option<(Score, u32)> {
        let mut best: Option<(Score, u32)> = None;
        while i > 0 {
            if let Some(v) = self.tree[i] {
                if best.is_none_or(|b| Self::better(v, b)) {
                    best = Some(v);
                }
            }
            i &= i - 1;
        }
        best
    }

    fn update(&mut self, mut i: usize, v: (Score, u32)) {
        while i < self.tree.len() {
            if self.tree[i].is_none_or(|cur| Self::better(v, cur)) {
                self.tree[i] = Some(v);
            }
            i += i & i.wrapping_neg();
        }
    }
}

/// Maximum-weight chain of anchors with strictly increasing `p` and
/// `j`. Anchors must arrive sorted by `(p, j)`; anchors sharing a seed
/// position never chain with each other.
fn chain_anchors(anchors: &[Anchor]) -> Option<Chain> {
    if anchors.is_empty() {
        return None;
    }
    // Coordinate-compress j for the Fenwick ranks.
    let mut js: Vec<u32> = anchors.iter().map(|a| a.j).collect();
    js.sort_unstable();
    js.dedup();
    let rank = |j: u32| js.binary_search(&j).expect("j was inserted") + 1;

    let mut fen = FenwickMax::new(js.len());
    let mut best: Option<Chain> = None;
    let mut i = 0;
    while i < anchors.len() {
        // One seed position at a time: query every same-p anchor
        // before any of them updates the tree.
        let p = anchors[i].p;
        let run_end = anchors[i..]
            .iter()
            .position(|a| a.p != p)
            .map_or(anchors.len(), |off| i + off);
        let mut staged: Vec<(usize, (Score, u32))> = Vec::with_capacity(run_end - i);
        for a in &anchors[i..run_end] {
            let r = rank(a.j);
            let (weight, start) = match fen.prefix_max(r - 1) {
                Some((w, s)) => (w + a.weight, s),
                None => (a.weight, a.j),
            };
            staged.push((r, (weight, start)));
            let cand = Chain {
                weight,
                j_start: start,
                j_end: a.j + 1,
            };
            let wins = best.is_none_or(|b| {
                cand.weight > b.weight
                    || (cand.weight == b.weight
                        && (cand.j_start, cand.j_end) < (b.j_start, b.j_end))
            });
            if wins {
                best = Some(cand);
            }
        }
        for (r, v) in staged {
            fen.update(r, v);
        }
        i = run_end;
    }
    best
}

/// The anchor index over concat-M plus the inverted positive σ
/// entries.
struct AnchorIndex {
    /// Laid symbol → ascending concat positions.
    m_pos: HashMap<Sym, Vec<u32>>,
    /// H region id → sorted positive partners `(m region, relative
    /// orientation)`.
    partners: HashMap<u32, Vec<(u32, Orient)>>,
}

impl AnchorIndex {
    fn build(inst: &Instance, concat_m: &[Sym]) -> Self {
        let mut m_pos: HashMap<Sym, Vec<u32>> = HashMap::new();
        for (j, &sym) in concat_m.iter().enumerate() {
            m_pos.entry(sym).or_default().push(j as u32);
        }
        let mut partners: HashMap<u32, Vec<(u32, Orient)>> = HashMap::new();
        for (a, b, orient, s) in inst.sigma.iter() {
            if s > 0 {
                partners.entry(a).or_default().push((b, orient));
            }
        }
        // σ iterates a hash map; sort so anchor enumeration (and the
        // per-seed cap) never depends on hasher state.
        for v in partners.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        AnchorIndex { m_pos, partners }
    }

    /// Concat positions whose laid symbol scores positively against
    /// the laid H symbol `x`, ascending.
    fn candidates(&self, x: Sym, out: &mut Vec<u32>) {
        out.clear();
        let Some(partners) = self.partners.get(&x.id) else {
            return;
        };
        for &(b, orient) in partners {
            let m_sym = Sym {
                id: b,
                rev: x.rev ^ orient.is_reversed(),
            };
            if let Some(positions) = self.m_pos.get(&m_sym) {
                out.extend_from_slice(positions);
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// Anchors of one laid H word against concat-M, sorted by `(p, j)`.
fn fragment_anchors(
    inst: &Instance,
    index: &AnchorIndex,
    concat_m: &[Sym],
    word: &[Sym],
) -> Vec<Anchor> {
    let mut anchors = Vec::new();
    let mut cand = Vec::new();
    for p in minimizer_positions(word, W) {
        index.candidates(word[p], &mut cand);
        for &j in cand.iter().take(MAX_ANCHORS_PER_SEED) {
            let weight = inst.sigma.score(word[p], concat_m[j as usize]);
            debug_assert!(weight > 0, "candidates score positively");
            anchors.push(Anchor {
                p: p as u32,
                j,
                weight,
            });
        }
    }
    anchors.sort_unstable_by_key(|a| (a.p, a.j));
    anchors
}

/// Max-weight disjoint subset of the claims (weighted interval
/// scheduling over the core spans), returned sorted by `core_lo`.
fn select_disjoint(mut claims: Vec<Claim>) -> Vec<Claim> {
    if claims.is_empty() {
        return claims;
    }
    claims.sort_unstable_by_key(|c| (c.core_hi, c.core_lo, c.h_index));
    let n = claims.len();
    // pred[i]: number of claims wholly left of claim i.
    let his: Vec<usize> = claims.iter().map(|c| c.core_hi).collect();
    let pred = |lo: usize| his.partition_point(|&hi| hi <= lo);
    let mut dp: Vec<Score> = vec![0; n + 1];
    let mut take = vec![false; n];
    for i in 0..n {
        let with = claims[i].weight + dp[pred(claims[i].core_lo)];
        if with >= dp[i] {
            dp[i + 1] = with;
            take[i] = true;
        } else {
            dp[i + 1] = dp[i];
        }
    }
    let mut selected = Vec::new();
    let mut i = n;
    while i > 0 {
        if take[i - 1] {
            selected.push(claims[i - 1]);
            i = pred(claims[i - 1].core_lo);
        } else {
            i -= 1;
        }
    }
    selected.sort_unstable_by_key(|c| c.core_lo);
    selected
}

/// Pad the selected (disjoint, sorted) claims by `margin`, splitting
/// each gap between its neighbours so windows stay disjoint.
fn pad_windows(selected: &[Claim], margin: usize, total: usize) -> Vec<Window> {
    let mut out = Vec::with_capacity(selected.len());
    for (i, c) in selected.iter().enumerate() {
        let lo = if i == 0 {
            c.core_lo.saturating_sub(margin)
        } else {
            let gap = c.core_lo - selected[i - 1].core_hi;
            let right = margin.min(gap / 2);
            c.core_lo - margin.min(gap - right)
        };
        let hi = if i + 1 == selected.len() {
            (c.core_hi + margin).min(total)
        } else {
            let gap = selected[i + 1].core_lo - c.core_hi;
            c.core_hi + margin.min(gap / 2)
        };
        out.push(Window {
            h_index: c.h_index,
            flip: c.flip,
            lo,
            hi,
        });
    }
    out
}

/// Solve by anchor chaining. The oracle supplies the instance and
/// collects DP-fill telemetry; window DPs count one fill each.
pub fn solve_chain(oracle: &ScoreOracle<'_>) -> MatchSet {
    let inst = oracle.instance();
    let concat_m: Vec<Sym> = inst
        .m
        .iter()
        .flat_map(|f| f.regions.iter().copied())
        .collect();
    let total = concat_m.len();
    let trace = oracle.trace().clone();
    let index = {
        let mut sp = span!(trace, "anchor_index");
        let index = AnchorIndex::build(inst, &concat_m);
        sp.set_args(total as i64, 0);
        index
    };

    // Per H fragment: chain both laid orientations, keep the better.
    let mut chain_span = span!(trace, "chaining");
    let mut claims: Vec<Claim> = Vec::new();
    for (h_index, frag) in inst.h.iter().enumerate() {
        if frag.is_empty() || total == 0 {
            continue;
        }
        let fwd = &frag.regions;
        let rev = reverse_word(fwd);
        let mut best: Option<(Chain, bool)> = None;
        for (word, flip) in [(fwd.as_slice(), false), (rev.as_slice(), true)] {
            let anchors = fragment_anchors(inst, &index, &concat_m, word);
            if let Some(chain) = chain_anchors(&anchors) {
                // Same orientation wins ties, deterministically.
                if best.is_none_or(|(b, _)| chain.weight > b.weight) {
                    best = Some((chain, flip));
                }
            }
        }
        if let Some((chain, flip)) = best {
            claims.push(Claim {
                h_index,
                flip,
                weight: chain.weight,
                core_lo: chain.j_start as usize,
                core_hi: chain.j_end as usize,
            });
        }
    }

    chain_span.set_args(claims.len() as i64, 0);
    drop(chain_span);

    let windows = {
        let mut sp = span!(trace, "window_select");
        let windows = pad_windows(&select_disjoint(claims), MARGIN, total);
        sp.set_args(windows.len() as i64, 0);
        windows
    };
    let mut dp_span = span!(trace, "window_dp");
    dp_span.set_args(windows.len() as i64, 0);
    // Concat-M is the M row; each chained fragment aligns inside its
    // window. The window grids reuse the oracle's warm scratch, and
    // `with_pooled` folds each fill into `stats.dp_fills`.
    let m_row: Vec<LaidCell> = inst
        .frag_ids(Species::M)
        .flat_map(|f| laid_cells(f, inst.frag_len(f), false))
        .collect();
    let runs = windows.iter().map(|win| {
        let h = FragId::h(win.h_index);
        (
            laid_cells(h, inst.frag_len(h), win.flip).collect(),
            win.lo..win.hi,
        )
    });
    let pair = lay_windows(inst, &m_row, runs, |h, m| {
        oracle.with_pooled(|ws| ws.align_words(&inst.sigma, h, m).1)
    });
    drop(dp_span);
    let _assemble = span!(trace, "assemble");
    pair.derive_matches(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragalign_model::check_consistency;
    use fragalign_model::instance::{paper_example, InstanceBuilder};

    /// Chain `inst` on a fresh oracle.
    fn chain(inst: &Instance) -> MatchSet {
        solve_chain(&ScoreOracle::new(inst))
    }

    #[test]
    fn paper_example_is_consistent_and_scores() {
        let inst = paper_example();
        let sol = chain(&inst);
        check_consistency(&inst, &sol).unwrap();
        // h1 chains ⟨a…c⟩ over ⟨s t u⟩ for 4 + 5; h2's window overlaps
        // and loses interval scheduling. A heuristic tier: below the
        // optimum 11, far above zero.
        assert_eq!(sol.total_score(), 9);
    }

    #[test]
    fn empty_sigma_yields_empty_matchset() {
        let mut inst = paper_example();
        inst.sigma = fragalign_model::ScoreTable::new();
        let sol = chain(&inst);
        check_consistency(&inst, &sol).unwrap();
        assert!(sol.is_empty());
    }

    #[test]
    fn reversed_fragment_chains_through_flip() {
        // h = ⟨aR, bR⟩ only matches m = ⟨x, y⟩ after laying h
        // reversed: (aR bR)^R = b a with σ(a, y) and σ(b, x).
        let mut b = InstanceBuilder::new();
        b.h_frag("h", &["bR", "aR"]);
        b.m_frag("m", &["a2", "b2"]);
        b.score("a", "a2", 7);
        b.score("b", "b2", 5);
        let inst = b.build();
        let sol = chain(&inst);
        check_consistency(&inst, &sol).unwrap();
        assert_eq!(sol.total_score(), 12);
        assert!(sol.iter().all(|(_, m)| m.orient == Orient::Reversed));
    }

    #[test]
    fn minimizers_subsample_long_words_deterministically() {
        let word: Vec<Sym> = (0..200).map(Sym::fwd).collect();
        let a = minimizer_positions(&word, 8);
        let b = minimizer_positions(&word, 8);
        assert_eq!(a, b);
        assert!(a.len() < 200, "long words must be subsampled");
        assert!(a.len() >= 200 / 8, "every window keeps a position");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted positions");
        // Short words keep everything.
        assert_eq!(
            minimizer_positions(&word[..8], 8),
            (0..8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn chaining_picks_max_weight_increasing_subsequence() {
        // Crossing anchors: (0,5)+(1,6) weight 4 vs (0,0) weight 3
        // chained with (1,1) weight 3 → 6 wins.
        let anchors = vec![
            Anchor {
                p: 0,
                j: 0,
                weight: 3,
            },
            Anchor {
                p: 0,
                j: 5,
                weight: 2,
            },
            Anchor {
                p: 1,
                j: 1,
                weight: 3,
            },
            Anchor {
                p: 1,
                j: 6,
                weight: 2,
            },
        ];
        let c = chain_anchors(&anchors).unwrap();
        assert_eq!(c.weight, 6);
        assert_eq!((c.j_start, c.j_end), (0, 2));
        // Same-p anchors never chain together.
        let same_p = vec![
            Anchor {
                p: 0,
                j: 0,
                weight: 3,
            },
            Anchor {
                p: 0,
                j: 1,
                weight: 3,
            },
        ];
        assert_eq!(chain_anchors(&same_p).unwrap().weight, 3);
        assert!(chain_anchors(&[]).is_none());
    }

    #[test]
    fn disjoint_selection_maximises_weight() {
        let claim = |h_index, weight, core_lo, core_hi| Claim {
            h_index,
            flip: false,
            weight,
            core_lo,
            core_hi,
        };
        // Middle claim overlaps both sides; sides together outweigh it.
        let picked = select_disjoint(vec![
            claim(0, 4, 0, 4),
            claim(1, 6, 2, 8),
            claim(2, 4, 6, 10),
        ]);
        let names: Vec<usize> = picked.iter().map(|c| c.h_index).collect();
        assert_eq!(names, vec![0, 2]);
        // Alone, the heavy middle claim wins.
        let picked = select_disjoint(vec![claim(0, 4, 0, 4), claim(1, 9, 2, 8)]);
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].h_index, 1);
    }

    #[test]
    fn padding_splits_gaps_and_stays_disjoint() {
        let claim = |h_index, core_lo, core_hi| Claim {
            h_index,
            flip: false,
            weight: 1,
            core_lo,
            core_hi,
        };
        let wins = pad_windows(&[claim(0, 10, 14), claim(1, 20, 24)], 16, 100);
        assert_eq!(wins[0].lo, 0, "leading margin clips at zero");
        assert!(wins[0].hi <= wins[1].lo, "windows stay disjoint");
        assert_eq!(wins[1].hi, 40, "trailing margin extends fully");
        // A tight gap is split between the neighbours.
        assert_eq!(wins[0].hi, 17);
        assert_eq!(wins[1].lo, 17);
    }

    #[test]
    fn fills_are_counted_per_window() {
        let inst = paper_example();
        let oracle = ScoreOracle::new(&inst);
        let _ = solve_chain(&oracle);
        assert!(oracle.stats.snapshot().dp_fills > 0);
    }
}
