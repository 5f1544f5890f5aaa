//! Match-score oracle: one table per fragment pair, filled once.
//!
//! Match scores depend only on the instance, never on the current
//! solution, so every table is filled at most once for the lifetime of
//! a solver run and then only read. Two kinds of table, each in one
//! slot per (H, M) fragment pair:
//!
//! * **interval tables** `MS(f, g(d, e))` for a whole fragment `f`
//!   against *every* interval of a fragment `g` of the other species
//!   (either species may be the plug, so a pair has two slots). One DP
//!   sweep per start position fills a whole row of ends. Readers: the
//!   1-CSR → ISP reduction (§3.4, also run by the factor-4 algorithm on
//!   its concatenations), greedy's full-match candidates, the I1 plug
//!   ranking of improvement enumeration, and every full match the
//!   improvement operations create or rescore: the TPA refill (§4.2),
//!   `plug_full`, and the full-match branch of site preparation;
//! * **border tables** `P_score` of every *staircase* of an (H, M)
//!   fragment pair — a strict prefix or suffix of each fragment, under
//!   the orientation the two ends force — from one profiled fill per H
//!   site length and end pair ([`BorderTable`]). Readers: greedy's
//!   staircase candidates, the I2/I3 scan of improvement enumeration,
//!   `make_border`, and the border branch of site preparation.
//!
//! [`ScoreOracle::ms`] scores one site pair with free orientation and
//! keeps nothing: its one production reader, the border-matching
//! 2-approximation, scores each whole-fragment pair once.
//!
//! **Extent of a border table.** A table covers every strict border
//! length of both fragments, because greedy reads them all. It holds
//! `4·(|h|−1)·(|m|−1)` scores and costs about `2·|h|²·|m|` DP cells,
//! once per pair per oracle. The improvement scan reads border sites
//! only up to its `border_cap` (64 by default), so on fragments several
//! times longer than that cap a table computes far more than `csr`
//! reads, and a per-site-pair cache would be cheaper. The benchmark's
//! fragments stay under 70 regions, where the one sweep per pair wins.
//!
//! **Slots.** The oracle allocates its slots up front, indexed densely
//! by `h · |M| + m`: three `OnceLock<Box<_>>` of 16 bytes each, 48 bytes
//! per (H, M) pair, which is 12 MiB at the 2¹⁸ pairs the service's
//! table-cell limit admits. The first reader of a slot fills it through
//! a pooled workspace; a concurrent reader of the same slot waits for
//! that fill, and every later read is one atomic load. A key outside
//! the instance, or of the wrong species, panics. The oracle is `Sync`
//! and shared across rayon workers.
//!
//! **Counter contract** ([`OracleStats`]). A slot's fill counts one
//! miss — interval tables in `table_misses`, border tables in
//! `pair_misses` (one per fragment pair, however many staircases it
//! scores) — and adds its DP fills to `dp_fills`. Every slot is filled
//! at most once, so these count distinct keys and repeat exactly at
//! any pool width. Each [`ScoreOracle::ms`] call counts one more
//! `pair_misses` and its fills, and `dp_fills` also counts the other
//! uncached pooled fills (the chain tier's window alignments).
//! `dp_reallocs` counts buffer growth in every fill, so it depends on
//! which warm workspace served which fill.

use crate::workspace::DpWorkspace;
use fragalign_model::{End, FragId, Instance, Orient, Score, Site, SiteClass, Species};
use fragalign_obs::TraceHandle;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// `MS(h, m(d, e))` for all `0 ≤ d ≤ e ≤ |m|`, plus the winning
/// orientation. Flat `(n+1)²` storage.
#[derive(Clone, Debug)]
pub struct IntervalTable {
    n: usize,
    score_same: Vec<Score>,
    score_rev: Vec<Score>,
}

impl IntervalTable {
    #[inline]
    fn idx(&self, d: usize, e: usize) -> usize {
        d * (self.n + 1) + e
    }

    /// Best score and orientation for the interval `[d, e)`.
    #[inline]
    pub fn get(&self, d: usize, e: usize) -> (Score, Orient) {
        debug_assert!(d <= e && e <= self.n);
        let s = self.score_same[self.idx(d, e)];
        let r = self.score_rev[self.idx(d, e)];
        if r > s {
            (r, Orient::Reversed)
        } else {
            (s, Orient::Same)
        }
    }

    /// Length of the indexed fragment.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false — tables exist for real fragments.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// `P_score` of every staircase of one (H, M) fragment pair: a strict
/// prefix or suffix of the H fragment against a strict prefix or
/// suffix of the M fragment, under the orientation the two ends force
/// (`Same` when they differ, `Reversed` when they agree). Flat storage
/// of `4·(|h|−1)·(|m|−1)` scores, empty when either fragment has a
/// single region (no strict border site).
#[derive(Clone, Debug)]
pub struct BorderTable {
    /// The (H, M) fragment pair.
    frags: (FragId, FragId),
    h_len: usize,
    m_len: usize,
    scores: Vec<Score>,
}

impl BorderTable {
    /// The staircase of border sites `h` (H) and `m` (M) of the
    /// table's fragments: its score and forced orientation. `None`
    /// when either site is not a strict prefix or suffix.
    #[inline]
    pub fn staircase(&self, h: Site, m: Site) -> Option<(Score, Orient)> {
        debug_assert_eq!((h.frag, m.frag), self.frags, "sites of another pair");
        let (SiteClass::Border(h_end), SiteClass::Border(m_end)) =
            (h.classify(self.h_len), m.classify(self.m_len))
        else {
            return None;
        };
        // Blocks and rows in `DpWorkspace::border_scores` order.
        let block = 2 * usize::from(h_end == End::Right) + usize::from(m_end == End::Right);
        let row = block * (self.h_len - 1) + h.len() - 1;
        let score = self.scores[row * (self.m_len - 1) + m.len() - 1];
        let orient = if h_end != m_end {
            Orient::Same
        } else {
            Orient::Reversed
        };
        Some((score, orient))
    }
}

/// Fill counters, reported per solve in `SolveReport` (the module
/// docs' counter contract).
#[derive(Debug, Default)]
pub struct OracleStats {
    /// Interval tables filled.
    pub table_misses: AtomicU64,
    /// Border tables filled, plus [`ScoreOracle::ms`] calls.
    pub pair_misses: AtomicU64,
    /// DP fills behind the filled tables and `ms` calls, plus the other
    /// uncached pooled fills.
    pub dp_fills: AtomicU64,
    /// Workspace buffer growth events — the allocations proxy. A warm
    /// pool converges to zero; a fresh oracle grows its pool once per
    /// buffer size it meets.
    pub dp_reallocs: AtomicU64,
}

/// Plain-integer copy of [`OracleStats`], for folding one oracle's
/// counters into another's. Solvers that build internal oracles over
/// derived instances (the factor-4 concatenations, portfolio racers)
/// absorb the inner counters so telemetry reports the whole solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStatsSnapshot {
    /// Interval tables filled.
    pub table_misses: u64,
    /// Border tables filled, plus `ms` calls.
    pub pair_misses: u64,
    /// DP fills behind the filled tables and `ms` calls, plus the other
    /// uncached pooled fills.
    pub dp_fills: u64,
    /// Workspace buffer growth events.
    pub dp_reallocs: u64,
}

impl std::ops::AddAssign for OracleStatsSnapshot {
    fn add_assign(&mut self, rhs: Self) {
        self.table_misses += rhs.table_misses;
        self.pair_misses += rhs.pair_misses;
        self.dp_fills += rhs.dp_fills;
        self.dp_reallocs += rhs.dp_reallocs;
    }
}

impl OracleStats {
    /// Read every counter at once (relaxed; exact once no fill is in
    /// flight).
    pub fn snapshot(&self) -> OracleStatsSnapshot {
        OracleStatsSnapshot {
            table_misses: self.table_misses.load(Ordering::Relaxed),
            pair_misses: self.pair_misses.load(Ordering::Relaxed),
            dp_fills: self.dp_fills.load(Ordering::Relaxed),
            dp_reallocs: self.dp_reallocs.load(Ordering::Relaxed),
        }
    }

    /// Fold a snapshot's counts into these counters.
    pub fn absorb(&self, s: &OracleStatsSnapshot) {
        self.table_misses
            .fetch_add(s.table_misses, Ordering::Relaxed);
        self.pair_misses.fetch_add(s.pair_misses, Ordering::Relaxed);
        self.dp_fills.fetch_add(s.dp_fills, Ordering::Relaxed);
        self.dp_reallocs.fetch_add(s.dp_reallocs, Ordering::Relaxed);
    }
}

/// One table slot per (H, M) fragment pair, filled at most once.
type Slots<T> = Box<[OnceLock<Box<T>>]>;

fn empty_slots<T>(pairs: usize) -> Slots<T> {
    (0..pairs).map(|_| OnceLock::new()).collect()
}

/// Shared, thread-safe score oracle over one instance.
pub struct ScoreOracle<'a> {
    inst: &'a Instance,
    /// Interval tables of an H plug against an M container, indexed
    /// by `ScoreOracle::slot`.
    h_plugs: Slots<IntervalTable>,
    /// Interval tables of an M plug against an H container.
    m_plugs: Slots<IntervalTable>,
    borders: Slots<BorderTable>,
    /// Warm DP buffers, one checked out per pooled fill. Workers in a
    /// parallel sweep each pop their own workspace, so fills never
    /// serialise on this lock.
    workspaces: Mutex<Vec<DpWorkspace>>,
    /// Span sink for phase timing; disabled (inert) by default. The
    /// oracle carries the handle so DP-layer phases (table sweeps,
    /// chain window fills) can trace without threading a parameter
    /// through every solver signature.
    trace: TraceHandle,
    /// Fill counters.
    pub stats: OracleStats,
}

impl<'a> ScoreOracle<'a> {
    /// Create an oracle for `inst` with every slot empty and an empty
    /// workspace pool.
    pub fn new(inst: &'a Instance) -> Self {
        let pairs = inst.h.len() * inst.m.len();
        ScoreOracle {
            inst,
            h_plugs: empty_slots(pairs),
            m_plugs: empty_slots(pairs),
            borders: empty_slots(pairs),
            workspaces: Mutex::new(Vec::new()),
            trace: TraceHandle::disabled(),
            stats: OracleStats::default(),
        }
    }

    /// Attach a trace handle; all subsequent DP phases record spans
    /// through it. Tracing is observational only — the same fills run
    /// either way.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The oracle's trace handle (disabled unless
    /// [`ScoreOracle::set_trace`] was called).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// The instance the oracle scores.
    pub fn instance(&self) -> &'a Instance {
        self.inst
    }

    /// Seed the workspace pool with an already-warm workspace. Batch
    /// solvers hand each worker's workspace to successive instances'
    /// oracles so buffers stay warm across the whole batch.
    pub fn adopt_workspace(&self, ws: DpWorkspace) {
        self.workspaces.lock().push(ws);
    }

    /// Take a workspace back out of the pool (empty pool yields a
    /// fresh one). The counterpart of [`ScoreOracle::adopt_workspace`].
    pub fn reclaim_workspace(&self) -> DpWorkspace {
        self.workspaces.lock().pop().unwrap_or_default()
    }

    /// Check a workspace out of the pool, run `f`, return it, and fold
    /// its fill and realloc deltas into the stats.
    pub(crate) fn with_pooled<R>(&self, f: impl FnOnce(&mut DpWorkspace) -> R) -> R {
        let mut ws = self.reclaim_workspace();
        let (fills0, reallocs0) = (ws.fills(), ws.reallocs());
        let out = f(&mut ws);
        self.stats
            .dp_fills
            .fetch_add(ws.fills() - fills0, Ordering::Relaxed);
        self.stats
            .dp_reallocs
            .fetch_add(ws.reallocs() - reallocs0, Ordering::Relaxed);
        self.adopt_workspace(ws);
        out
    }

    /// The slot index `h · |M| + m` of H fragment `h` and M fragment
    /// `m`. Panics on a pair outside the instance or of the wrong
    /// species rather than alias another pair's slot.
    fn slot(&self, h: FragId, m: FragId) -> usize {
        assert!(
            h.species == Species::H
                && m.species == Species::M
                && h.index < self.inst.h.len()
                && m.index < self.inst.m.len(),
            "{h:?}, {m:?} is no (H, M) fragment pair of the instance"
        );
        h.index * self.inst.m.len() + m.index
    }

    /// Read `slot`, or fill it through a pooled workspace and count
    /// one `misses`. A concurrent reader waits for the fill.
    fn fill_once<'s, T>(
        &self,
        slot: &'s OnceLock<Box<T>>,
        misses: &AtomicU64,
        fill: impl FnOnce(&mut DpWorkspace) -> T,
    ) -> &'s T {
        slot.get_or_init(|| {
            misses.fetch_add(1, Ordering::Relaxed);
            Box::new(self.with_pooled(fill))
        })
    }

    /// The interval table of whole-fragment `plug` against intervals of
    /// `container`. `plug` and `container` may be any two fragments of
    /// opposite species (either order); scores are computed with σ
    /// applied H-side-first.
    pub fn interval_table(&self, plug: FragId, container: FragId) -> &IntervalTable {
        let slot = if plug.species == Species::H {
            &self.h_plugs[self.slot(plug, container)]
        } else {
            &self.m_plugs[self.slot(container, plug)]
        };
        self.fill_once(slot, &self.stats.table_misses, |ws| {
            self.build_table(plug, container, ws)
        })
    }

    fn build_table(&self, plug: FragId, container: FragId, ws: &mut DpWorkspace) -> IntervalTable {
        let u = &self.inst.fragment(plug).regions;
        let w = &self.inst.fragment(container).regions;
        let n = w.len();
        let mut table_span = self.trace.span("table_fill");
        // The tables are the oracle's *product* and stay heap-allocated;
        // the DP rows and the reversed-pass scratch come from the
        // workspace. σ must see (H symbol, M symbol): when the plug is
        // the M fragment the lookup roles swap.
        let mut score_same = vec![0 as Score; (n + 1) * (n + 1)];
        let mut score_rev = vec![0 as Score; (n + 1) * (n + 1)];
        let profiled = ws.interval_scores(
            &self.inst.sigma,
            u,
            w,
            plug.species != Species::H,
            &mut score_same,
            &mut score_rev,
        );
        table_span.set_label(if profiled { "profiled" } else { "scalar" });
        table_span.set_args(n as i64, 2 * (n as i64 + 1));
        IntervalTable {
            n,
            score_same,
            score_rev,
        }
    }

    /// The border table of H fragment `h` and M fragment `m`: every
    /// staircase of the pair, filled by one sweep on the first read,
    /// which counts one `pair_misses` and adds its fills to `dp_fills`.
    pub fn border_table(&self, h: FragId, m: FragId) -> &BorderTable {
        self.fill_once(
            &self.borders[self.slot(h, m)],
            &self.stats.pair_misses,
            |ws| self.build_border_table(h, m, ws),
        )
    }

    fn build_border_table(&self, h: FragId, m: FragId, ws: &mut DpWorkspace) -> BorderTable {
        let hw = &self.inst.fragment(h).regions;
        let mw = &self.inst.fragment(m).regions;
        let (h_len, m_len) = (hw.len(), mw.len());
        let mut scores = Vec::new();
        if h_len >= 2 && m_len >= 2 {
            if DpWorkspace::may_score(&self.inst.sigma, hw, mw) {
                let mut span = self.trace.span("border_fill");
                scores.reserve_exact(4 * (h_len - 1) * (m_len - 1));
                let profiled = ws.border_scores(&self.inst.sigma, hw, mw, &mut scores);
                span.set_label(if profiled { "profiled" } else { "scalar" });
                span.set_args(h_len as i64, m_len as i64);
            } else {
                // No positive cell: every staircase scores 0.
                scores.resize(4 * (h_len - 1) * (m_len - 1), 0);
            }
        }
        BorderTable {
            frags: (h, m),
            h_len,
            m_len,
            scores,
        }
    }

    /// `MS(h̄, m̄)` with free orientation, computed on every call: one
    /// `pair_misses` and its DP fills. `h` must be an H-species site
    /// and `m` an M-species site.
    pub fn ms(&self, h: Site, m: Site) -> (Score, Orient) {
        self.stats.pair_misses.fetch_add(1, Ordering::Relaxed);
        self.with_pooled(|ws| {
            ws.ms_words(
                &self.inst.sigma,
                self.inst.site_word(h),
                self.inst.site_word(m),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragalign_model::instance::paper_example;
    use fragalign_model::{FragId, Site};

    #[test]
    fn interval_table_matches_direct_ms() {
        let inst = paper_example();
        let oracle = ScoreOracle::new(&inst);
        for h in inst.frag_ids(fragalign_model::Species::H) {
            for m in inst.frag_ids(fragalign_model::Species::M) {
                let table = oracle.interval_table(h, m);
                let n = inst.frag_len(m);
                for d in 0..n {
                    for e in (d + 1)..=n {
                        let direct = DpWorkspace::new().ms_words(
                            &inst.sigma,
                            &inst.fragment(h).regions,
                            inst.fragment(m).slice(d, e),
                        );
                        assert_eq!(table.get(d, e), direct, "h={h:?} m={m:?} [{d},{e})");
                    }
                }
            }
        }
    }

    #[test]
    fn interval_table_m_plug_swaps_sigma_roles() {
        let inst = paper_example();
        let oracle = ScoreOracle::new(&inst);
        // plug = m2 = ⟨u, v⟩ into intervals of h1 = ⟨a, b, c⟩:
        // σ(c, u) = 5 so interval ⟨c⟩ = [2,3) scores 5.
        let t = oracle.interval_table(FragId::m(1), FragId::h(0));
        assert_eq!(t.get(2, 3).0, 5);
        assert_eq!(t.get(0, 3).0, 5);
        assert_eq!(t.get(0, 2).0, 0);
    }

    #[test]
    fn reversed_intervals_reindexed_correctly() {
        let inst = paper_example();
        let oracle = ScoreOracle::new(&inst);
        // h2 = ⟨d⟩ vs m2 = ⟨u, v⟩: σ(d, v^R) = 2 ⇒ interval ⟨v⟩ = [1,2)
        // scores 2 with Reversed orientation.
        let t = oracle.interval_table(FragId::h(1), FragId::m(1));
        assert_eq!(t.get(1, 2), (2, Orient::Reversed));
        assert_eq!(t.get(0, 1), (0, Orient::Same));
    }

    #[test]
    fn caches_hit_on_repeat() {
        let inst = paper_example();
        let oracle = ScoreOracle::new(&inst);
        let t1 = oracle.interval_table(FragId::h(0), FragId::m(0));
        let t2 = oracle.interval_table(FragId::h(0), FragId::m(0));
        assert!(std::ptr::eq(t1, t2), "a repeat read refilled the slot");
        // The M-plug direction of the same pair has a slot of its own.
        let _ = oracle.interval_table(FragId::m(0), FragId::h(0));
        assert_eq!(oracle.stats.table_misses.load(Ordering::Relaxed), 2);
        // Site pairs are not cached: every `ms` call computes and counts.
        let s1 = oracle.ms(Site::new(FragId::h(0), 0, 2), Site::new(FragId::m(0), 0, 2));
        let s2 = oracle.ms(Site::new(FragId::h(0), 0, 2), Site::new(FragId::m(0), 0, 2));
        assert_eq!(s1, s2);
        assert_eq!(oracle.stats.pair_misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn slots_take_48_bytes_per_fragment_pair() {
        // The figure the module docs state: three slots per (H, M) pair.
        let slot = std::mem::size_of::<OnceLock<Box<IntervalTable>>>();
        assert_eq!(slot, std::mem::size_of::<OnceLock<Box<BorderTable>>>());
        assert_eq!(3 * slot, 48);
    }

    #[test]
    #[should_panic(expected = "no (H, M) fragment pair")]
    fn a_key_outside_the_instance_panics() {
        let inst = paper_example();
        // m(2) does not exist: its slot index would be (h(1), m(0))'s.
        let _ = ScoreOracle::new(&inst).interval_table(FragId::h(0), FragId::m(2));
    }

    #[test]
    #[should_panic(expected = "no (H, M) fragment pair")]
    fn a_key_of_the_wrong_species_panics() {
        let inst = paper_example();
        let _ = ScoreOracle::new(&inst).border_table(FragId::m(0), FragId::h(0));
    }

    #[test]
    fn border_tables_count_as_site_pairs() {
        let inst = paper_example();
        let oracle = ScoreOracle::new(&inst);
        let (h1, m2) = (FragId::h(0), FragId::m(1));
        // h1 suffix ⟨c⟩ ~ m2 prefix ⟨u⟩: ends differ, `Same`, σ(c, u) = 5.
        let t = oracle.border_table(h1, m2);
        assert_eq!(
            t.staircase(Site::new(h1, 2, 3), Site::new(m2, 0, 1)),
            Some((5, Orient::Same))
        );
        // A full site is no staircase.
        assert_eq!(t.staircase(Site::full(h1, 3), Site::new(m2, 0, 1)), None);
        assert!(std::ptr::eq(t, oracle.border_table(h1, m2)));
        let s = oracle.stats.snapshot();
        assert_eq!((s.pair_misses, s.table_misses), (1, 0));
        assert_eq!(s.dp_fills, 4 * 2, "one fill per H length per end pair");
        // h2 = ⟨d⟩ has no border site: an empty table, no fill.
        let empty = oracle.border_table(FragId::h(1), m2);
        assert_eq!(
            empty.staircase(Site::full(FragId::h(1), 1), Site::new(m2, 0, 1)),
            None
        );
        assert_eq!(oracle.stats.snapshot().dp_fills, 8);
    }

    #[test]
    fn border_table_without_a_positive_cell_skips_the_fill() {
        let mut b = fragalign_model::InstanceBuilder::new();
        b.h_frag("h", &["a", "b", "c"]);
        b.m_frag("m", &["x", "y"]);
        let inst = b.build();
        let oracle = ScoreOracle::new(&inst);
        let t = oracle.border_table(FragId::h(0), FragId::m(0));
        let (h, m) = (Site::new(FragId::h(0), 0, 2), Site::new(FragId::m(0), 1, 2));
        assert_eq!(t.staircase(h, m), Some((0, Orient::Same)));
        assert_eq!(oracle.stats.snapshot().dp_fills, 0);
        assert_eq!(oracle.stats.snapshot().pair_misses, 1);
    }

    #[test]
    fn empty_interval_scores_zero() {
        let inst = paper_example();
        let oracle = ScoreOracle::new(&inst);
        let t = oracle.interval_table(FragId::h(0), FragId::m(0));
        for d in 0..=inst.frag_len(FragId::m(0)) {
            assert_eq!(t.get(d, d).0, 0);
        }
    }
}
