//! Memoised match-score oracle.
//!
//! Match scores depend only on the instance, never on the current
//! solution (DESIGN.md decision D2), so every DP result can be cached
//! for the lifetime of a solver run. Three caches:
//!
//! * **interval tables** `MS(f, g(d, e))` for a whole fragment `f`
//!   against *every* interval of a fragment `g` of the other species
//!   (either species may be the plug). One DP sweep per start position
//!   fills a whole row of ends. Readers: the 1-CSR → ISP reduction
//!   (§3.4, also run by the factor-4 algorithm on its concatenations),
//!   greedy's full-match candidates, the I1 plug ranking of improvement
//!   enumeration, and every full match the improvement operations
//!   create or rescore: the TPA refill (§4.2), `plug_full`, and the
//!   full-match branch of site preparation;
//! * **site pairs** `MS(h̄, m̄)` with free orientation, for arbitrary
//!   site pairs. Reader: the border-matching 2-approximation, which
//!   weighs whole-fragment pairs;
//! * **oriented site pairs** `P_score` under a pinned orientation.
//!   Readers: border (staircase) matches, whose orientation the end
//!   condition forces — I2/I3 enumeration, `make_border`, the border
//!   branch of site preparation, and greedy's border candidates.
//!
//! Reads take a shared lock; a miss fills outside the lock and
//! publishes under a write lock. The oracle is `Sync` and shared
//! across rayon workers.
//!
//! **Counter contract** ([`OracleStats`]). Every lookup counts one hit
//! or one miss. Only the fill whose insert publishes a key counts the
//! miss and adds its DP fills; a thread that loses the race to fill the
//! same key counts a hit and its fills are dropped. So `table_misses`,
//! `pair_misses` (free and oriented pairs together) and the cached
//! part of `dp_fills` count distinct keys, and repeat exactly at any
//! pool width. `dp_fills` also counts uncached pooled fills (the chain
//! tier's window alignments). `dp_reallocs` counts buffer growth in
//! every fill, lost races included, so it depends on which warm
//! workspace served which fill.

use crate::dp::fill_rolling;
use crate::kernel::{fill_profiled, KERNEL_BLOCK};
use crate::workspace::DpWorkspace;
use fragalign_model::symbol::reverse_word_in_place;
use fragalign_model::{FragId, Instance, Orient, Score, Site, Sym};
use fragalign_obs::TraceHandle;
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Cache statistics (for the `oracle` bench and EXPERIMENTS.md T9).
#[derive(Debug, Default)]
pub struct OracleStats {
    /// Interval-table lookups served from cache.
    pub table_hits: AtomicU64,
    /// Interval tables computed.
    pub table_misses: AtomicU64,
    /// Site-pair lookups served from cache.
    pub pair_hits: AtomicU64,
    /// Site-pair scores computed (free and pinned orientation).
    pub pair_misses: AtomicU64,
    /// DP fills behind the cached entries, plus uncached pooled fills.
    pub dp_fills: AtomicU64,
    /// Workspace buffer growth events — the allocations proxy. With
    /// reuse on this converges; with reuse off it tracks `dp_fills`.
    pub dp_reallocs: AtomicU64,
}

/// Plain-integer copy of [`OracleStats`], for folding one oracle's
/// counters into another's. Solvers that build internal oracles over
/// derived instances (the factor-4 concatenations, portfolio racers)
/// absorb the inner counters so telemetry reports the whole solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStatsSnapshot {
    /// Interval-table lookups served from cache.
    pub table_hits: u64,
    /// Interval tables computed.
    pub table_misses: u64,
    /// Site-pair lookups served from cache.
    pub pair_hits: u64,
    /// Site-pair scores computed (free and pinned orientation).
    pub pair_misses: u64,
    /// DP fills behind the cached entries, plus uncached pooled fills.
    pub dp_fills: u64,
    /// Workspace buffer growth events.
    pub dp_reallocs: u64,
}

impl std::ops::AddAssign for OracleStatsSnapshot {
    fn add_assign(&mut self, rhs: Self) {
        self.table_hits += rhs.table_hits;
        self.table_misses += rhs.table_misses;
        self.pair_hits += rhs.pair_hits;
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
            table_hits: self.table_hits.load(Ordering::Relaxed),
            table_misses: self.table_misses.load(Ordering::Relaxed),
            pair_hits: self.pair_hits.load(Ordering::Relaxed),
            pair_misses: self.pair_misses.load(Ordering::Relaxed),
            dp_fills: self.dp_fills.load(Ordering::Relaxed),
            dp_reallocs: self.dp_reallocs.load(Ordering::Relaxed),
        }
    }

    /// Fold a snapshot's counts into these counters.
    pub fn absorb(&self, s: &OracleStatsSnapshot) {
        self.table_hits.fetch_add(s.table_hits, Ordering::Relaxed);
        self.table_misses
            .fetch_add(s.table_misses, Ordering::Relaxed);
        self.pair_hits.fetch_add(s.pair_hits, Ordering::Relaxed);
        self.pair_misses.fetch_add(s.pair_misses, Ordering::Relaxed);
        self.dp_fills.fetch_add(s.dp_fills, Ordering::Relaxed);
        self.dp_reallocs.fetch_add(s.dp_reallocs, Ordering::Relaxed);
    }
}

/// Shared, thread-safe score oracle over one instance.
pub struct ScoreOracle<'a> {
    inst: &'a Instance,
    tables: RwLock<HashMap<(FragId, FragId), Arc<IntervalTable>>>,
    pairs: RwLock<HashMap<(Site, Site), (Score, Orient)>>,
    oriented: RwLock<HashMap<(Site, Site, Orient), Score>>,
    /// Warm DP buffers, one checked out per cache miss. Workers in a
    /// parallel sweep each pop their own workspace, so fills never
    /// serialise on this lock.
    workspaces: Mutex<Vec<DpWorkspace>>,
    reuse: bool,
    /// Span sink for phase timing; disabled (inert) by default. The
    /// oracle carries the handle so DP-layer phases (table sweeps,
    /// chain window fills) can trace without threading a parameter
    /// through every solver signature.
    trace: TraceHandle,
    /// Hit/miss counters.
    pub stats: OracleStats,
}

impl<'a> ScoreOracle<'a> {
    /// Create an empty oracle for `inst` (workspace reuse on).
    pub fn new(inst: &'a Instance) -> Self {
        Self::with_workspace_reuse(inst, true)
    }

    /// Create an oracle with workspace pooling switched on or off.
    /// `reuse = false` restores the per-call-allocation behaviour —
    /// kept as the measurable baseline for `exp_throughput`.
    pub fn with_workspace_reuse(inst: &'a Instance, reuse: bool) -> Self {
        ScoreOracle {
            inst,
            tables: RwLock::new(HashMap::new()),
            pairs: RwLock::new(HashMap::new()),
            oriented: RwLock::new(HashMap::new()),
            workspaces: Mutex::new(Vec::new()),
            reuse,
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

    /// Whether this oracle pools workspaces across fills. Solvers that
    /// build internal oracles over derived instances propagate the
    /// flag so the per-call-allocation baseline stays honest end to
    /// end.
    pub fn workspace_reuse(&self) -> bool {
        self.reuse
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
    /// its fill/realloc deltas into the oracle stats.
    pub(crate) fn with_pooled<R>(&self, f: impl FnOnce(&mut DpWorkspace) -> R) -> R {
        self.lend(|ws| {
            let fills0 = ws.fills();
            let out = f(ws);
            self.stats
                .dp_fills
                .fetch_add(ws.fills() - fills0, Ordering::Relaxed);
            out
        })
    }

    /// Check a workspace out of the pool, run `f`, and return it,
    /// folding only its realloc delta into the stats: cache fills
    /// count their DP fills when their insert wins (see
    /// [`ScoreOracle::settle`]).
    fn lend<R>(&self, f: impl FnOnce(&mut DpWorkspace) -> R) -> R {
        let mut ws = if self.reuse {
            self.workspaces.lock().pop().unwrap_or_default()
        } else {
            DpWorkspace::new()
        };
        let reallocs0 = ws.reallocs();
        let out = f(&mut ws);
        self.stats
            .dp_reallocs
            .fetch_add(ws.reallocs() - reallocs0, Ordering::Relaxed);
        if self.reuse {
            self.workspaces.lock().push(ws);
        }
        out
    }

    /// Publish a freshly filled cache entry: the first insert of a key
    /// counts the miss and its `fills` DP fills; a fill that lost the
    /// race to another thread counts a hit and returns the winner's
    /// value (the module docs' counter contract).
    fn settle<K: Eq + std::hash::Hash, V: Clone>(
        &self,
        cache: &RwLock<HashMap<K, V>>,
        key: K,
        value: V,
        fills: u64,
        hits: &AtomicU64,
        misses: &AtomicU64,
    ) -> V {
        match cache.write().entry(key) {
            Entry::Occupied(won) => {
                hits.fetch_add(1, Ordering::Relaxed);
                won.get().clone()
            }
            Entry::Vacant(slot) => {
                misses.fetch_add(1, Ordering::Relaxed);
                self.stats.dp_fills.fetch_add(fills, Ordering::Relaxed);
                slot.insert(value).clone()
            }
        }
    }

    /// The interval table of whole-fragment `plug` against intervals of
    /// `container`. `plug` and `container` may be any two fragments of
    /// opposite species (either order); scores are computed with σ
    /// applied H-side-first. Thin wrapper over
    /// [`ScoreOracle::interval_table_with`] using a pooled workspace.
    pub fn interval_table(&self, plug: FragId, container: FragId) -> Arc<IntervalTable> {
        if let Some(t) = self.tables.read().get(&(plug, container)) {
            self.stats.table_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(t);
        }
        self.lend(|ws| self.interval_table_with(plug, container, ws))
    }

    /// [`ScoreOracle::interval_table`] filling through a caller-owned
    /// workspace on a miss.
    pub fn interval_table_with(
        &self,
        plug: FragId,
        container: FragId,
        ws: &mut DpWorkspace,
    ) -> Arc<IntervalTable> {
        if let Some(t) = self.tables.read().get(&(plug, container)) {
            self.stats.table_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(t);
        }
        let fills0 = ws.fills();
        let table = Arc::new(self.build_table(plug, container, ws));
        self.settle(
            &self.tables,
            (plug, container),
            table,
            ws.fills() - fills0,
            &self.stats.table_hits,
            &self.stats.table_misses,
        )
    }

    fn build_table(&self, plug: FragId, container: FragId, ws: &mut DpWorkspace) -> IntervalTable {
        let u_raw = &self.inst.fragment(plug).regions;
        let w_raw = &self.inst.fragment(container).regions;
        let n = w_raw.len();
        let h_first = plug.species == fragalign_model::Species::H;
        let mut table_span = self.trace.span("table_fill");

        // σ must see (H symbol, M symbol): when the plug is the M
        // fragment the lookup roles are swapped per cell. The tables
        // below are the oracle's *product* and stay heap-allocated;
        // only the per-start DP rows and the reversed-pass scratch come
        // from the workspace.
        let mut score_same = vec![0 as Score; (n + 1) * (n + 1)];
        let mut score_rev = vec![0 as Score; (n + 1) * (n + 1)];
        let sigma = &self.inst.sigma;

        // Same orientation: for each start d, one rolling DP sweep over
        // w[d..]; the final row read off wholesale gives P(u, w[d..e])
        // for every end e. One query profile built over the *whole*
        // container word serves all n+1 suffix fills via a column
        // offset — the per-fill cost of going hash-free amortises to
        // zero, so the sweep profiles regardless of fill size.
        let sweep = |ws: &mut DpWorkspace, w: &[Sym], out: &mut [Score]| -> bool {
            let generation = ws.profile.build(sigma, u_raw, w, !h_first);
            if generation.is_some() {
                ws.profile.map_rows(u_raw, &mut ws.row_map);
            }
            for d in 0..=n {
                let v = &w[d.min(w.len())..];
                ws.note_fill(v.len() + 1);
                if let Some(generation) = generation {
                    fill_profiled(
                        &ws.profile,
                        generation,
                        &ws.row_map,
                        d.min(w.len()),
                        v.len(),
                        KERNEL_BLOCK,
                        &mut ws.prev,
                        &mut ws.cur,
                        &mut ws.carry,
                    );
                } else if h_first {
                    // Profile over the cap: scalar fallback.
                    fill_rolling(
                        |a, b| sigma.score(a, b),
                        u_raw,
                        v,
                        &mut ws.prev,
                        &mut ws.cur,
                    );
                } else {
                    fill_rolling(
                        |a, b| sigma.score(b, a),
                        u_raw,
                        v,
                        &mut ws.prev,
                        &mut ws.cur,
                    );
                }
                // ws.prev holds the last filled row (the zero row when
                // u is empty).
                for e in d..=n {
                    out[d * (n + 1) + e] = ws.prev[e - d];
                }
            }
            generation.is_some()
        };
        let profiled = sweep(ws, w_raw, &mut score_same);

        // Reversed orientation: (w[d..e])^R = w^R[n-e..n-d]; fill a
        // table over w^R into the workspace grid and re-index.
        let mut w_rev = std::mem::take(&mut ws.rev);
        w_rev.clear();
        w_rev.extend_from_slice(w_raw);
        reverse_word_in_place(&mut w_rev);
        let mut rev_table = ws.take_grid((n + 1) * (n + 1));
        sweep(ws, &w_rev, &mut rev_table);
        ws.rev = w_rev;
        for d in 0..=n {
            for e in d..=n {
                score_rev[d * (n + 1) + e] = rev_table[(n - e) * (n + 1) + n - d];
            }
        }
        ws.put_grid(rev_table);

        table_span.set_label(if profiled { "profiled" } else { "scalar" });
        table_span.set_args(n as i64, 2 * (n as i64 + 1));

        IntervalTable {
            n,
            score_same,
            score_rev,
        }
    }

    /// `MS(h̄, m̄)` with memoisation. `h` must be an H-species site and
    /// `m` an M-species site. Thin wrapper over
    /// [`ScoreOracle::ms_with`] using a pooled workspace.
    pub fn ms(&self, h: Site, m: Site) -> (Score, Orient) {
        if let Some(&v) = self.pairs.read().get(&(h, m)) {
            self.stats.pair_hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        self.lend(|ws| self.ms_with(h, m, ws))
    }

    /// [`ScoreOracle::ms`] filling through a caller-owned workspace on
    /// a miss.
    pub fn ms_with(&self, h: Site, m: Site, ws: &mut DpWorkspace) -> (Score, Orient) {
        let key = (h, m);
        if let Some(&v) = self.pairs.read().get(&key) {
            self.stats.pair_hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        let fills0 = ws.fills();
        let v = ws.ms_words(
            &self.inst.sigma,
            self.inst.site_word(h),
            self.inst.site_word(m),
        );
        self.settle(
            &self.pairs,
            key,
            v,
            ws.fills() - fills0,
            &self.stats.pair_hits,
            &self.stats.pair_misses,
        )
    }

    /// `MS(plug fragment, container(d, e))` through the interval table.
    pub fn ms_full_vs_interval(
        &self,
        plug: FragId,
        container: FragId,
        d: usize,
        e: usize,
    ) -> (Score, Orient) {
        self.interval_table(plug, container).get(d, e)
    }

    /// `P_score` under a pinned relative orientation, memoised. Border
    /// matches need this: their orientation is forced by the staircase
    /// end condition, not free to maximise. Thin wrapper over
    /// [`ScoreOracle::ms_oriented_with`] using a pooled workspace.
    pub fn ms_oriented(&self, h: Site, m: Site, orient: Orient) -> Score {
        if let Some(&v) = self.oriented.read().get(&(h, m, orient)) {
            self.stats.pair_hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        self.lend(|ws| self.ms_oriented_with(h, m, orient, ws))
    }

    /// [`ScoreOracle::ms_oriented`] filling through a caller-owned
    /// workspace on a miss.
    pub fn ms_oriented_with(
        &self,
        h: Site,
        m: Site,
        orient: Orient,
        ws: &mut DpWorkspace,
    ) -> Score {
        let key = (h, m, orient);
        if let Some(&v) = self.oriented.read().get(&key) {
            self.stats.pair_hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        let fills0 = ws.fills();
        let v = ws.p_score_oriented(
            &self.inst.sigma,
            self.inst.site_word(h),
            self.inst.site_word(m),
            orient,
        );
        self.settle(
            &self.oriented,
            key,
            v,
            ws.fills() - fills0,
            &self.stats.pair_hits,
            &self.stats.pair_misses,
        )
    }

    /// Drop all cached entries (used by the cache ablation bench).
    /// Pooled workspaces keep their warm buffers.
    pub fn clear(&self) {
        self.tables.write().clear();
        self.pairs.write().clear();
        self.oriented.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::match_score::ms_words;
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
                        let direct = ms_words(
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
        let _ = oracle.interval_table(FragId::h(0), FragId::m(0));
        let _ = oracle.interval_table(FragId::h(0), FragId::m(0));
        assert_eq!(oracle.stats.table_misses.load(Ordering::Relaxed), 1);
        assert_eq!(oracle.stats.table_hits.load(Ordering::Relaxed), 1);
        let s1 = oracle.ms(Site::new(FragId::h(0), 0, 2), Site::new(FragId::m(0), 0, 2));
        let s2 = oracle.ms(Site::new(FragId::h(0), 0, 2), Site::new(FragId::m(0), 0, 2));
        assert_eq!(s1, s2);
        assert_eq!(oracle.stats.pair_misses.load(Ordering::Relaxed), 1);
        assert_eq!(oracle.stats.pair_hits.load(Ordering::Relaxed), 1);
        oracle.clear();
        let _ = oracle.ms(Site::new(FragId::h(0), 0, 2), Site::new(FragId::m(0), 0, 2));
        assert_eq!(oracle.stats.pair_misses.load(Ordering::Relaxed), 2);
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
