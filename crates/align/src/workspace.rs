//! Reusable DP workspaces: the one entry point to `P_score`.
//!
//! Every `P_score`, match score and alignment in this crate runs
//! through a [`DpWorkspace`], which owns the buffers the kernels fill:
//! two rolling rows, the blocked kernel's carry column, the cached
//! query profile, a reversed-word scratch for the orientation search,
//! and a whole-table scratch for alignments and the oracle's
//! reversed-interval re-indexing. Allocating those per call dominates
//! the score oracle on the short region words the simulator produces;
//! a warm workspace allocates nothing.
//!
//! Match scores follow Definition 4 and Figs. 7–8: for any pair of
//! sites, `MS(h̄, m̄) = max(P_score(h̄, m̄), P_score(h̄, m̄^R))`. Because
//! `⊥` columns are free and the alignment is a maximum, the flush-end
//! case analysis of Fig. 8 collapses to the same two orientation
//! candidates as the full-site case of Fig. 7. [`DpWorkspace::ms_words`]
//! records *which* orientation won; the consistency layer uses it to
//! check the staircase condition for border matches.
//!
//! Workspaces are deliberately `!Sync`: one per worker. The oracle
//! keeps a pool of them and checks one out per cache miss, so shared
//! oracles stay `Sync` without serialising fills.

use crate::dp::{fill_rolling, traceback_from};
use crate::kernel::{fill_profiled, QueryProfile, KERNEL_BLOCK, PROFILE_MIN_CELLS};
use fragalign_model::consistency::{AlignColumns, SiteAligner};
use fragalign_model::symbol::reverse_word_in_place;
use fragalign_model::{Orient, Score, ScoreTable, Sym};

/// Which `P_score` kernel a fill runs through. [`DpWorkspace::p_score`]
/// picks by size; [`DpWorkspace::p_score_kernel`] takes this enum so
/// the kernel speedup floor and the differential tests can force each
/// kernel over identical inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelMode {
    /// The hash-probing rolling-row reference kernel.
    Scalar,
    /// Query profile + split recurrence, cache-blocked at
    /// [`KERNEL_BLOCK`] columns.
    Profiled,
}

/// Whether any cell of `u` × `v` can score positively: some positive σ
/// entry pairs an id of `u` with an id of `v`. Orientation flags are
/// ignored (a conservative superset), so `false` is exact: no DP cell
/// of either orientation is positive, non-positive columns are never
/// chosen, and `P_score = 0` without a fill. Stops at the first
/// positive cell; costs `O(|σ| · (|u| + |v|))` at worst against the
/// DP's `O(|u| · |v|)`. Callers must handle a positive default score
/// (every cell can then be positive).
fn any_positive_cell(sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> bool {
    sigma.iter().any(|(a, b, _orient, s)| {
        s > 0 && u.iter().any(|x| x.id == a) && v.iter().any(|y| y.id == b)
    })
}

/// Arena-style buffers for the `P_score` kernels.
///
/// All methods leave the buffers grown to the largest problem seen so
/// far; repeated fills of similar-sized words allocate nothing.
#[derive(Debug, Default)]
pub struct DpWorkspace {
    /// Rolling DP row `i-1`; after a fill, holds the last row.
    prev: Vec<Score>,
    /// Rolling DP row `i` (two block-local rows in the blocked kernel).
    cur: Vec<Score>,
    /// Block-boundary column carry of the blocked kernel.
    carry: Vec<Score>,
    /// Cached query profile of the last profiled fill (generation
    /// keyed; see `kernel.rs`).
    profile: QueryProfile,
    /// Row-symbol → profile-row resolution of the last profiled fill.
    row_map: Vec<u32>,
    /// Reversed-word scratch for orientation searches.
    rev: Vec<Sym>,
    /// Whole-table scratch: alignment grids and the oracle's
    /// reversed-interval pass.
    grid: Vec<Score>,
    fills: u64,
    reallocs: u64,
}

impl DpWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of DP fills served by this workspace.
    pub fn fills(&self) -> u64 {
        self.fills
    }

    /// Number of buffer growth events — the allocations proxy that the
    /// oracle sums into [`OracleStats::dp_reallocs`](crate::OracleStats)
    /// and the benchmark's traced runs report as `oracle.dp_reallocs`.
    /// A fresh workspace per fill performs one (or more) allocation per
    /// fill; a warmed workspace performs none.
    pub fn reallocs(&self) -> u64 {
        self.reallocs
    }

    /// Record a fill about to run with `cols` DP columns, growing the
    /// two rolling rows if needed.
    fn note_fill(&mut self, cols: usize) {
        self.fills += 1;
        if self.prev.len() < cols || self.cur.len() < cols {
            self.reallocs += 1;
        }
    }

    /// `P_score(u, v)`. Fills large enough to amortise a profile build
    /// ([`PROFILE_MIN_CELLS`]) run hash-free through the profiled
    /// kernel; small fills, and fills whose profile would exceed
    /// [`crate::PROFILE_MAX_CELLS`], run the scalar reference kernel.
    pub fn p_score(&mut self, sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> Score {
        let mode = if u.len() * v.len() >= PROFILE_MIN_CELLS {
            KernelMode::Profiled
        } else {
            KernelMode::Scalar
        };
        self.p_score_kernel(sigma, u, v, mode)
    }

    /// `P_score(u, v)` through one forced kernel — the speedup-test and
    /// differential-test hook. Both modes put the shorter word on the
    /// column axis, so they time identical problems; `Profiled` falls
    /// back to scalar only when the profile would exceed
    /// [`crate::PROFILE_MAX_CELLS`]. Bit-identical across modes.
    pub fn p_score_kernel(
        &mut self,
        sigma: &ScoreTable,
        u: &[Sym],
        v: &[Sym],
        mode: KernelMode,
    ) -> Score {
        if u.is_empty() || v.is_empty() {
            return 0;
        }
        // Shorter word on the column axis; σ keeps its (H, M) roles.
        let (a, b, swapped) = if v.len() <= u.len() {
            (u, v, false)
        } else {
            (v, u, true)
        };
        self.note_fill(b.len() + 1);
        if mode == KernelMode::Profiled {
            if let Some(s) = self.fill_with_profile(sigma, a, b, swapped) {
                return s;
            }
        }
        self.fill_scalar(sigma, a, b, swapped)
    }

    /// The scalar reference fill of `a` (rows) × `b` (columns);
    /// `swapped` probes σ as `(col, row)`.
    fn fill_scalar(&mut self, sigma: &ScoreTable, a: &[Sym], b: &[Sym], swapped: bool) -> Score {
        if swapped {
            fill_rolling(
                |x, y| sigma.score(y, x),
                a,
                b,
                &mut self.prev,
                &mut self.cur,
            )
        } else {
            fill_rolling(
                |x, y| sigma.score(x, y),
                a,
                b,
                &mut self.prev,
                &mut self.cur,
            )
        }
    }

    /// Build (or rebuild) the profile for `a` × `b` and run the blocked
    /// split-recurrence kernel. `None` when the profile would be too
    /// large — the caller falls back to the scalar kernel.
    fn fill_with_profile(
        &mut self,
        sigma: &ScoreTable,
        a: &[Sym],
        b: &[Sym],
        swapped: bool,
    ) -> Option<Score> {
        let generation = self.profile.build(sigma, a, b, swapped)?;
        self.profile.map_rows(a, &mut self.row_map);
        Some(fill_profiled(
            &self.profile,
            generation,
            &self.row_map,
            0,
            b.len(),
            KERNEL_BLOCK,
            &mut self.prev,
            &mut self.cur,
            &mut self.carry,
        ))
    }

    /// Optimal alignment with traceback: `(score, columns)`, the
    /// columns monotone and covering every symbol of both words
    /// (`None` marks a `⊥`). One full-matrix fill into the whole-table
    /// scratch — hash-free through the query profile above
    /// [`PROFILE_MIN_CELLS`] and below the profile cap — then a
    /// traceback that re-probes σ only along its path.
    pub fn align_words(
        &mut self,
        sigma: &ScoreTable,
        u: &[Sym],
        v: &[Sym],
    ) -> (Score, AlignColumns) {
        let rows = u.len() + 1;
        let cols = v.len() + 1;
        self.note_fill(cols);
        let mut grid = self.take_grid(rows * cols);
        let profiled = u.len() * v.len() >= PROFILE_MIN_CELLS
            && self.profile.build(sigma, u, v, false).is_some();
        if profiled {
            self.profile.map_rows(u, &mut self.row_map);
        }
        for i in 1..rows {
            let (above, row) = {
                let (a, b) = grid.split_at_mut(i * cols);
                (&a[(i - 1) * cols..], &mut b[..cols])
            };
            if profiled {
                let s = self.profile.row(self.row_map[i - 1]);
                for j in 1..cols {
                    let diag = above[j - 1] + s[j - 1];
                    row[j] = diag.max(above[j]).max(row[j - 1]);
                }
            } else {
                let ui = u[i - 1];
                for j in 1..cols {
                    let diag = above[j - 1] + sigma.score(ui, v[j - 1]);
                    row[j] = diag.max(above[j]).max(row[j - 1]);
                }
            }
        }
        let score = grid[rows * cols - 1];
        let columns = traceback_from(&grid, cols, sigma, u, v);
        self.put_grid(grid);
        (score, columns)
    }

    /// Whether `P_score(u, v)` can be positive in either orientation.
    /// `false` lets `ms_words` and the oracle's border tables score 0
    /// without a fill: empty words, or no positive cell under a
    /// non-positive default score.
    pub(crate) fn may_score(sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> bool {
        !u.is_empty()
            && !v.is_empty()
            && (sigma.default_score > 0 || any_positive_cell(sigma, u, v))
    }

    /// Detach the reversed-word scratch spelling `v^R`; the caller puts
    /// it back in `self.rev` (detaching sidesteps overlapping borrows).
    fn take_reversed(&mut self, v: &[Sym]) -> Vec<Sym> {
        let mut rev = std::mem::take(&mut self.rev);
        rev.clear();
        rev.extend_from_slice(v);
        reverse_word_in_place(&mut rev);
        rev
    }

    /// `P_score(u, v^R)`.
    fn p_score_reversed(&mut self, sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> Score {
        let rev = self.take_reversed(v);
        let s = self.p_score(sigma, u, &rev);
        self.rev = rev;
        s
    }

    /// `MS(u, v)`: the best of the two relative orientations, with ties
    /// resolved to `Same` for determinism. A pair with no positive cell
    /// scores `(0, Same)` without a fill.
    pub fn ms_words(&mut self, sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> (Score, Orient) {
        if !Self::may_score(sigma, u, v) {
            return (0, Orient::Same);
        }
        let same = self.p_score(sigma, u, v);
        let reversed = self.p_score_reversed(sigma, u, v);
        if reversed > same {
            (reversed, Orient::Reversed)
        } else {
            (same, Orient::Same)
        }
    }

    /// The interval-table fill behind the oracle: `P_score(u, w[d..e])`
    /// into `same[d·(|w|+1) + e]` and `P_score(u, w[d..e]^R)` into
    /// `reversed` at the same index, for every `0 ≤ d ≤ e ≤ |w|`.
    /// `swap_roles` probes σ as `(w symbol, u symbol)` (the plug `u` is
    /// the M fragment). Returns whether the sweeps ran profiled.
    pub(crate) fn interval_scores(
        &mut self,
        sigma: &ScoreTable,
        u: &[Sym],
        w: &[Sym],
        swap_roles: bool,
        same: &mut [Score],
        reversed: &mut [Score],
    ) -> bool {
        let n = w.len();
        let profiled = self.suffix_sweep(sigma, u, w, swap_roles, same);
        // (w[d..e])^R = w^R[n-e..n-d]: sweep w^R into the grid scratch
        // and re-index.
        let w_rev = self.take_reversed(w);
        let mut grid = self.take_grid((n + 1) * (n + 1));
        self.suffix_sweep(sigma, u, &w_rev, swap_roles, &mut grid);
        self.rev = w_rev;
        for d in 0..=n {
            for e in d..=n {
                reversed[d * (n + 1) + e] = grid[(n - e) * (n + 1) + n - d];
            }
        }
        self.put_grid(grid);
        profiled
    }

    /// The border-table fill behind the oracle: `P_score` of every
    /// staircase of H fragment `h` and M fragment `m` (both at least
    /// two regions), appended to `out` in the order [`BorderTable`]
    /// reads: one block per end pair (H end, M end) in the order
    /// (Left, Left), (Left, Right), (Right, Left), (Right, Right); in
    /// each block, one row per H site length `a = 1..|h|` holding the
    /// scores for M site lengths `b = 1..|m|`.
    ///
    /// σ is keyed by relative orientation, so reversing both words
    /// keeps every score. With `X = h` for a suffix (Right) H site and
    /// `X = h^R` for a prefix, and `Y = m` for a prefix (Left) M site
    /// and `Y = m^R` for a suffix, the staircase of lengths `(a, b)`
    /// scores `P_score(X[|h|−a..], Y[..b])` under the orientation the
    /// ends force. So one query profile per `(X, Y)` and one fill of
    /// `X[|h|−a..] × Y` per `a` leave every `b` in the final row:
    /// `4·(|h|−1)` fills per pair. Returns whether every sweep ran
    /// profiled.
    ///
    /// [`BorderTable`]: crate::oracle::BorderTable
    pub(crate) fn border_scores(
        &mut self,
        sigma: &ScoreTable,
        h: &[Sym],
        m: &[Sym],
        out: &mut Vec<Score>,
    ) -> bool {
        let (hn, mn) = (h.len(), m.len());
        debug_assert!(hn >= 2 && mn >= 2, "staircases need two regions a side");
        // One scratch spelling h^R followed by m^R.
        let mut rev = std::mem::take(&mut self.rev);
        rev.clear();
        rev.extend_from_slice(h);
        rev.extend_from_slice(m);
        reverse_word_in_place(&mut rev[..hn]);
        reverse_word_in_place(&mut rev[hn..]);
        let (h_rev, m_rev) = rev.split_at(hn);
        let mut profiled = true;
        for x in [h_rev, h] {
            for y in [m, m_rev] {
                // The strict M prefixes of `y`: the last column is the
                // whole fragment, never a border site.
                let y = &y[..mn - 1];
                let generation = self.profile.build(sigma, x, y, false);
                if generation.is_some() {
                    self.profile.map_rows(x, &mut self.row_map);
                }
                profiled &= generation.is_some();
                for a in 1..hn {
                    self.note_fill(mn);
                    match generation {
                        Some(generation) => {
                            fill_profiled(
                                &self.profile,
                                generation,
                                &self.row_map[hn - a..],
                                0,
                                mn - 1,
                                KERNEL_BLOCK,
                                &mut self.prev,
                                &mut self.cur,
                                &mut self.carry,
                            );
                        }
                        // Profile over the cap: scalar fallback.
                        None => {
                            self.fill_scalar(sigma, &x[hn - a..], y, false);
                        }
                    }
                    // `prev` holds the final row: `P_score(X[|h|-a..],
                    // Y[..b])` at index `b`.
                    out.extend_from_slice(&self.prev[1..mn]);
                }
            }
        }
        self.rev = rev;
        profiled
    }

    /// One fill per start `d` over `w[d..]`; the final row, read off
    /// wholesale, gives `P_score(u, w[d..e])` for every end `e`. One
    /// query profile built over the *whole* word serves all `|w|+1`
    /// suffix fills through a column offset, so the per-fill cost of
    /// going hash-free amortises to zero and the sweep profiles
    /// regardless of fill size.
    fn suffix_sweep(
        &mut self,
        sigma: &ScoreTable,
        u: &[Sym],
        w: &[Sym],
        swap_roles: bool,
        out: &mut [Score],
    ) -> bool {
        let n = w.len();
        let generation = self.profile.build(sigma, u, w, swap_roles);
        if generation.is_some() {
            self.profile.map_rows(u, &mut self.row_map);
        }
        for d in 0..=n {
            let v = &w[d..];
            self.note_fill(v.len() + 1);
            match generation {
                Some(generation) => {
                    fill_profiled(
                        &self.profile,
                        generation,
                        &self.row_map,
                        d,
                        v.len(),
                        KERNEL_BLOCK,
                        &mut self.prev,
                        &mut self.cur,
                        &mut self.carry,
                    );
                }
                // Profile over the cap: scalar fallback.
                None => {
                    self.fill_scalar(sigma, u, v, swap_roles);
                }
            }
            // `prev` holds the last filled row (the zero row when `u`
            // is empty).
            for e in d..=n {
                out[d * (n + 1) + e] = self.prev[e - d];
            }
        }
        generation.is_some()
    }

    /// Detach the whole-table scratch at `len` cells, zeroed. Pair
    /// with [`DpWorkspace::put_grid`] so the buffer survives for the
    /// next fill (detaching sidesteps overlapping field borrows).
    fn take_grid(&mut self, len: usize) -> Vec<Score> {
        let mut g = std::mem::take(&mut self.grid);
        if g.len() < len {
            self.reallocs += 1;
            g.resize(len, 0);
        }
        g[..len].fill(0);
        g
    }

    /// Return the scratch detached by [`DpWorkspace::take_grid`].
    fn put_grid(&mut self, g: Vec<Score>) {
        self.grid = g;
    }
}

/// [`SiteAligner`] backed by the full DP: layouts built with it realise
/// exactly the `P_score` optimum of every match. Each call aligns in a
/// fresh [`DpWorkspace`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DpAligner;

impl SiteAligner for DpAligner {
    fn align_words(&self, sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> (Score, AlignColumns) {
        DpWorkspace::new().align_words(sigma, u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragalign_model::instance::paper_example;
    use fragalign_model::symbol::reverse_word;
    use fragalign_model::{FragId, Instance, Site};

    fn table(seed: u64, syms: u32) -> ScoreTable {
        let mut t = ScoreTable::new();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for a in 0..syms {
            for b in 0..syms {
                let r = next() % 9;
                if r > 3 {
                    t.set(Sym::fwd(a), Sym::fwd(1000 + b), (r as i64) - 3);
                }
            }
        }
        t
    }

    fn word(seed: u64, len: usize, syms: u32, base: u32) -> Vec<Sym> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                Sym {
                    id: base + (state % syms as u64) as u32,
                    rev: state.is_multiple_of(5),
                }
            })
            .collect()
    }

    /// `P_score` through the scalar reference kernel.
    fn scalar(sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> Score {
        DpWorkspace::new().p_score_kernel(sigma, u, v, KernelMode::Scalar)
    }

    /// `MS` of two sites of `inst`.
    fn site_ms(inst: &Instance, h: Site, m: Site) -> (Score, Orient) {
        DpWorkspace::new().ms_words(&inst.sigma, inst.site_word(h), inst.site_word(m))
    }

    #[test]
    fn p_score_matches_the_scalar_reference() {
        let t = table(3, 8);
        let mut ws = DpWorkspace::new();
        for (lu, lv) in [(0, 5), (5, 0), (1, 1), (7, 3), (3, 7), (20, 20), (31, 9)] {
            let u = word(lu as u64 + 1, lu, 8, 0);
            let v = word(lv as u64 + 2, lv, 8, 1000);
            let reference = scalar(&t, &u, &v);
            assert_eq!(ws.p_score(&t, &u, &v), reference, "{lu}x{lv}");
            assert_eq!(
                ws.p_score_kernel(&t, &u, &v, KernelMode::Profiled),
                reference
            );
        }
    }

    #[test]
    fn ms_is_the_orientation_max_of_the_reference() {
        let t = table(9, 6);
        let mut ws = DpWorkspace::new();
        for (lu, lv) in [(4, 4), (9, 2), (2, 9), (12, 5)] {
            let u = word(lu as u64 + 7, lu, 6, 0);
            let v = word(lv as u64 + 8, lv, 6, 1000);
            let same = scalar(&t, &u, &v);
            let rev = scalar(&t, &u, &reverse_word(&v));
            let want = if rev > same {
                (rev, Orient::Reversed)
            } else {
                (same, Orient::Same)
            };
            assert_eq!(ws.ms_words(&t, &u, &v), want, "{lu}x{lv}");
        }
    }

    #[test]
    fn no_positive_cell_scores_zero_without_a_fill() {
        // Positive entries exist, but none pairs an id of `u` with an
        // id of `v`; the negative entry that does pair them can never
        // be chosen.
        let mut t = ScoreTable::new();
        t.set(Sym::fwd(0), Sym::fwd(1000), 5);
        t.set(Sym::fwd(1), Sym::fwd(1001), -4);
        let u = vec![Sym::fwd(1); 20];
        let v = vec![Sym::fwd(1001), Sym::rev(1001), Sym::fwd(1002)];
        let mut ws = DpWorkspace::new();
        assert!(!DpWorkspace::may_score(&t, &u, &v));
        assert_eq!(ws.ms_words(&t, &u, &v), (0, Orient::Same));
        assert_eq!(ws.fills(), 0, "the early exit must not fill");
        // A positive default score makes every cell positive: no exit.
        t.default_score = 1;
        assert_eq!(ws.ms_words(&t, &u, &v).0, 2);
        assert_eq!(ws.fills(), 2, "one fill per orientation");
    }

    #[test]
    fn buffers_grow_once_then_stay() {
        let t = table(5, 4);
        let u = word(1, 16, 4, 0);
        let v = word(2, 16, 4, 1000);
        let mut ws = DpWorkspace::new();
        let _ = ws.p_score(&t, &u, &v);
        let after_first = ws.reallocs();
        assert!(after_first >= 1);
        for _ in 0..10 {
            let _ = ws.p_score(&t, &u, &v);
        }
        assert_eq!(ws.reallocs(), after_first, "warm fills must not grow");
        assert_eq!(ws.fills(), 11);
    }

    #[test]
    fn fig7_inner_site_vs_full_site() {
        // Fig. 7: matching a full fragment against an inner site tries
        // both orientations. h2 = ⟨d⟩ against m1's inner site ⟨t⟩:
        // σ(d, t) = 2 forward.
        let inst = paper_example();
        let h2 = Site::full(FragId::h(1), 1);
        let t_site = Site::new(FragId::m(0), 1, 2);
        assert_eq!(site_ms(&inst, h2, t_site), (2, Orient::Same));
    }

    #[test]
    fn reversed_orientation_wins() {
        // σ(d, v^R) = 2: matching ⟨d⟩ against site ⟨v⟩ must pick the
        // reversed orientation.
        let inst = paper_example();
        let h2 = Site::full(FragId::h(1), 1);
        let v_site = Site::new(FragId::m(1), 1, 2);
        assert_eq!(site_ms(&inst, h2, v_site), (2, Orient::Reversed));
    }

    #[test]
    fn orientation_tie_prefers_same() {
        let mut t = ScoreTable::new();
        t.set(Sym::fwd(0), Sym::fwd(1), 3);
        t.set(Sym::fwd(0), Sym::rev(1), 3);
        let (s, o) = DpWorkspace::new().ms_words(&t, &[Sym::fwd(0)], &[Sym::fwd(1)]);
        assert_eq!((s, o), (3, Orient::Same));
    }

    #[test]
    fn ms_is_reversal_invariant_on_both() {
        // MS(u, v) computed via (u^R, v^R) must agree: P(u,v)=P(u^R,v^R).
        let inst = paper_example();
        let u = inst.site_word(Site::full(FragId::h(0), 3)).to_vec();
        let v = inst.site_word(Site::full(FragId::m(0), 2)).to_vec();
        let mut ws = DpWorkspace::new();
        let (s1, _) = ws.ms_words(&inst.sigma, &u, &v);
        let (s2, _) = ws.ms_words(&inst.sigma, &reverse_word(&u), &reverse_word(&v));
        assert_eq!(s1, s2);
    }

    #[test]
    fn fig8_border_sites_reduce_to_orientation_max() {
        // Border sites: suffix ⟨b,c⟩ of h1 against prefix ⟨s,t⟩ of m1.
        // Forward: σ(b,s)=0, σ(b,t)=0, σ(c,s)=0, σ(c,t)=0 → 0.
        // Reversed v = ⟨t^R, s^R⟩: σ(b, t^R) = 3 → 3.
        let inst = paper_example();
        let h_suffix = Site::new(FragId::h(0), 1, 3);
        let m_prefix = Site::new(FragId::m(0), 0, 2);
        assert_eq!(site_ms(&inst, h_suffix, m_prefix), (3, Orient::Reversed));
    }

    #[test]
    fn oriented_p_score_matches_ms_components() {
        let inst = paper_example();
        let u = inst.site_word(Site::full(FragId::h(0), 3));
        let v = inst.site_word(Site::full(FragId::m(0), 2));
        let mut ws = DpWorkspace::new();
        let same = ws.p_score(&inst.sigma, u, v);
        let rev = ws.p_score(&inst.sigma, u, &reverse_word(v));
        let (best, _) = ws.ms_words(&inst.sigma, u, v);
        assert_eq!(best, same.max(rev));
    }
}
