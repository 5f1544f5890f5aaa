//! Differential property tests around the scalar reference kernel:
//! every `DpWorkspace` entry point — `p_score`, both forced kernels,
//! `ms_words`, `align_words` — and the oracle's interval and border
//! tables must be bit-identical to `p_score_kernel(…,
//! KernelMode::Scalar)` on a fresh workspace, on random words and score
//! tables, including reversed-orientation cases and dirty (previously
//! used, differently sized) workspace buffers.

use fragalign_align::{DpWorkspace, KernelMode, ScoreOracle, KERNEL_BLOCK};
use fragalign_model::symbol::reverse_word;
use fragalign_model::{FragId, Fragment, Instance, Orient, Score, ScoreTable, Site, Species, Sym};
use proptest::prelude::*;

const ALL_MODES: [KernelMode; 2] = [KernelMode::Scalar, KernelMode::Profiled];

/// The reference: `P_score` through the scalar kernel on a fresh
/// workspace.
fn scalar(sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> Score {
    DpWorkspace::new().p_score_kernel(sigma, u, v, KernelMode::Scalar)
}

/// `MS` from the reference: the better orientation, ties to `Same`.
fn reference_ms(sigma: &ScoreTable, u: &[Sym], v: &[Sym]) -> (Score, Orient) {
    let same = scalar(sigma, u, v);
    let rev = scalar(sigma, u, &reverse_word(v));
    if rev > same {
        (rev, Orient::Reversed)
    } else {
        (same, Orient::Same)
    }
}

/// Random σ including negative entries and a non-zero default score of
/// either sign: the early exit must stay exact when every absent pair
/// scores non-zero, and a positive default must skip it.
fn sigma_strategy() -> impl Strategy<Value = ScoreTable> {
    (
        prop::collection::vec(((0u32..6), (0u32..6), any::<bool>(), -3i64..7), 0..24),
        -2i64..=2,
    )
        .prop_map(|(entries, default_score)| {
            let mut t = ScoreTable::new();
            for (a, b, rev, s) in entries {
                let m_side = if rev {
                    Sym::rev(100 + b)
                } else {
                    Sym::fwd(100 + b)
                };
                t.set(Sym::fwd(a), m_side, s);
            }
            t.default_score = default_score;
            t
        })
}

fn word(base: u32) -> impl Strategy<Value = Vec<Sym>> {
    prop::collection::vec(
        (0u32..6, any::<bool>()).prop_map(move |(i, r)| Sym {
            id: base + i,
            rev: r,
        }),
        0..14,
    )
}

/// Non-empty variant (fragments may not be empty).
fn word_nonempty(base: u32) -> impl Strategy<Value = Vec<Sym>> {
    prop::collection::vec(
        (0u32..6, any::<bool>()).prop_map(move |(i, r)| Sym {
            id: base + i,
            rev: r,
        }),
        1..10,
    )
}

proptest! {
    /// Every entry point agrees with the scalar reference.
    #[test]
    fn all_kernel_paths_agree(sigma in sigma_strategy(), u in word(0), v in word(100)) {
        let reference = scalar(&sigma, &u, &v);
        // Traceback-producing path on a fresh workspace.
        let (fresh_score, fresh_cols) = DpWorkspace::new().align_words(&sigma, &u, &v);
        prop_assert_eq!(fresh_score, reference);
        // Across a dirty buffer: fill a differently-shaped problem
        // first so stale cells would show.
        let mut ws = DpWorkspace::new();
        let big_u: Vec<Sym> = (0..17).map(Sym::fwd).collect();
        let big_v: Vec<Sym> = (0..19).map(|i| Sym::fwd(100 + i)).collect();
        let _ = ws.p_score(&sigma, &big_u, &big_v);
        prop_assert_eq!(ws.p_score(&sigma, &u, &v), reference);
        // Forced kernel modes through the same dirty workspace.
        for mode in ALL_MODES {
            prop_assert_eq!(ws.p_score_kernel(&sigma, &u, &v, mode), reference, "{mode:?}");
        }
        // Dirty traceback: same score, same columns as a fresh one.
        let (ws_score, ws_cols) = ws.align_words(&sigma, &u, &v);
        prop_assert_eq!(ws_score, reference);
        prop_assert_eq!(ws_cols, fresh_cols);
    }

    /// The profiled kernels on degenerate alphabets: every row symbol
    /// identical (one profile row serving every DP row), with mixed
    /// orientation flags and both operand orders.
    #[test]
    fn profiled_kernels_on_degenerate_alphabets(
        sigma in sigma_strategy(),
        revs_u in prop::collection::vec(any::<bool>(), 0..40),
        revs_v in prop::collection::vec(any::<bool>(), 0..40),
        uid in 0u32..6, vid in 0u32..6,
    ) {
        let u: Vec<Sym> = revs_u.iter().map(|&r| Sym { id: uid, rev: r }).collect();
        let v: Vec<Sym> = revs_v.iter().map(|&r| Sym { id: 100 + vid, rev: r }).collect();
        let reference = scalar(&sigma, &u, &v);
        let mut ws = DpWorkspace::new();
        for mode in ALL_MODES {
            prop_assert_eq!(ws.p_score_kernel(&sigma, &u, &v, mode), reference, "{mode:?}");
        }
    }

    /// Orientation search: the workspace `MS` (early exit included)
    /// matches the reference, and both kernels respect the reversal
    /// identity `P(u, v) = P(u^R, v^R)` that the border sweep rests on.
    #[test]
    fn ms_paths_agree_including_reversed(
        sigma in sigma_strategy(), u in word(0), v in word(100)
    ) {
        let mut ws = DpWorkspace::new();
        prop_assert_eq!(ws.ms_words(&sigma, &u, &v), reference_ms(&sigma, &u, &v));
        let (ur, vr) = (reverse_word(&u), reverse_word(&v));
        for mode in ALL_MODES {
            prop_assert_eq!(
                ws.p_score_kernel(&sigma, &ur, &vr, mode),
                scalar(&sigma, &u, &v),
                "{mode:?}"
            );
        }
    }

    /// Oracle entry points: the pooled-workspace oracle's interval
    /// tables and site-pair scores equal direct calls on a fresh
    /// `DpWorkspace`, and its border tables the scalar reference.
    #[test]
    fn oracle_paths_agree(
        sigma in sigma_strategy(),
        h0 in word_nonempty(0), h1 in word_nonempty(0),
        m0 in word_nonempty(100), m1 in word_nonempty(100)
    ) {
        let inst = Instance {
            h: vec![Fragment::new("h0", h0), Fragment::new("h1", h1)],
            m: vec![Fragment::new("m0", m0), Fragment::new("m1", m1)],
            sigma,
            alphabet: Default::default(),
        };
        let pooled = ScoreOracle::new(&inst);
        for plug in inst.all_frag_ids() {
            let whole = inst.fragment(plug).regions.as_slice();
            for container in inst.frag_ids(plug.species.other()) {
                let table = pooled.interval_table(plug, container);
                let n = inst.frag_len(container);
                for d in 0..=n {
                    for e in d..=n {
                        let slice = inst.fragment(container).slice(d, e);
                        let (h, m) = if plug.species == Species::H {
                            (whole, slice)
                        } else {
                            (slice, whole)
                        };
                        prop_assert_eq!(
                            table.get(d, e),
                            DpWorkspace::new().ms_words(&inst.sigma, h, m)
                        );
                    }
                }
            }
        }
        let h_site = Site::full(FragId::h(0), inst.frag_len(FragId::h(0)));
        let m_site = Site::full(FragId::m(0), inst.frag_len(FragId::m(0)));
        let (h_word, m_word) = (inst.site_word(h_site), inst.site_word(m_site));
        prop_assert_eq!(
            pooled.ms(h_site, m_site),
            DpWorkspace::new().ms_words(&inst.sigma, h_word, m_word)
        );
        assert_border_tables_match_reference("random", &inst);
    }
}

/// Deterministic word over a small alphabet with mixed orientations.
fn mixed_word(seed: u64, len: usize, base: u32) -> Vec<Sym> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Sym {
                id: base + (state % 6) as u32,
                rev: state.is_multiple_of(3),
            }
        })
        .collect()
}

fn dense_sigma() -> ScoreTable {
    let mut sigma = ScoreTable::new();
    for a in 0..6u32 {
        for b in 0..6u32 {
            let m = if (a + b) % 2 == 0 {
                Sym::rev(100 + b)
            } else {
                Sym::fwd(100 + b)
            };
            sigma.set(Sym::fwd(a), m, ((a * 5 + b * 3) % 9) as i64 - 3);
        }
    }
    sigma.default_score = -1;
    sigma
}

/// The blocked kernel at column widths straddling the block boundary:
/// `KERNEL_BLOCK ± 1`, exactly `KERNEL_BLOCK`, and the two-block
/// boundary `2·KERNEL_BLOCK ± 1` — the off-by-one shapes a fixed-width
/// blocking bug would corrupt. Small proptest words never reach these
/// widths, so they are pinned here.
#[test]
fn blocked_kernel_straddles_block_boundaries() {
    let sigma = dense_sigma();
    let mut ws = DpWorkspace::new();
    for lv in [
        KERNEL_BLOCK - 1,
        KERNEL_BLOCK,
        KERNEL_BLOCK + 1,
        2 * KERNEL_BLOCK - 1,
        2 * KERNEL_BLOCK + 1,
    ] {
        // Column word longer than the row word so the internal
        // shorter-word swap keeps `lv` on the column axis.
        let u = mixed_word(3, 60, 0);
        let v = mixed_word(lv as u64, lv, 100);
        let reference = scalar(&sigma, &u, &v);
        for mode in ALL_MODES {
            assert_eq!(
                ws.p_score_kernel(&sigma, &u, &v, mode),
                reference,
                "cols {lv} mode {mode:?}"
            );
        }
    }
}

/// Stale-tail regression: run a wide fill, then strictly narrower
/// fills through every kernel entry point on the *same* workspace.
/// Any kernel that trusts a buffer cell it did not rewrite for the
/// current width reads the wide fill's leftovers and diverges from a
/// fresh-workspace reference. (Audit note: `fill_rolling` zeroes
/// `prev[..cols]` and writes `cur[..cols]` before reading; the
/// profiled kernel zeroes `prev`, `carry`, and the per-block base row
/// — this test pins all of that against regression.)
#[test]
fn shrinking_buffers_never_leak_stale_tails() {
    let sigma = dense_sigma();
    let mut ws = DpWorkspace::new();
    // Wide fill: bigger than everything that follows, filling
    // prev/cur/carry/grid/profile with large-problem leftovers.
    let wide_u = mixed_word(11, 90, 0);
    let wide_v = mixed_word(12, 2 * KERNEL_BLOCK + 50, 100);
    let _ = ws.p_score_kernel(&sigma, &wide_u, &wide_v, KernelMode::Profiled);
    let _ = ws.align_words(&sigma, &wide_u, &mixed_word(13, 70, 100));

    for (seed, lu, lv) in [
        (1u64, 9, 60),
        (2, 17, 5),
        (3, 1, 1),
        (4, 40, KERNEL_BLOCK + 3),
    ] {
        let u = mixed_word(seed * 7 + 1, lu, 0);
        let v = mixed_word(seed * 7 + 2, lv, 100);
        let reference = scalar(&sigma, &u, &v);
        for mode in ALL_MODES {
            assert_eq!(
                ws.p_score_kernel(&sigma, &u, &v, mode),
                reference,
                "{lu}x{lv} {mode:?}"
            );
        }
        assert_eq!(ws.p_score(&sigma, &u, &v), reference);
        assert_eq!(ws.ms_words(&sigma, &u, &v), reference_ms(&sigma, &u, &v));
        let (score, cols) = ws.align_words(&sigma, &u, &v);
        let (fresh_score, fresh_cols) = DpWorkspace::new().align_words(&sigma, &u, &v);
        assert_eq!(score, fresh_score, "align_words score {lu}x{lv}");
        assert_eq!(cols, fresh_cols, "align_words columns {lu}x{lv}");
    }

    // The oracle sweeps through the same (adopted) workspace: interval
    // and border tables after the wide fill must match a fresh
    // oracle's.
    let inst = Instance {
        h: vec![Fragment::new("h0", mixed_word(21, 7, 0))],
        m: vec![Fragment::new("m0", mixed_word(22, 9, 100))],
        sigma: dense_sigma(),
        alphabet: Default::default(),
    };
    let dirty = ScoreOracle::new(&inst);
    dirty.adopt_workspace(ws);
    let fresh = ScoreOracle::new(&inst);
    let a = dirty.interval_table(FragId::h(0), FragId::m(0));
    let b = fresh.interval_table(FragId::h(0), FragId::m(0));
    for d in 0..=9 {
        for e in d..=9 {
            assert_eq!(a.get(d, e), b.get(d, e), "interval [{d},{e})");
        }
    }
    let (h, m) = (FragId::h(0), FragId::m(0));
    let (a, b) = (dirty.border_table(h, m), fresh.border_table(h, m));
    for x in 1..7 {
        for h_site in [Site::new(h, 0, x), Site::new(h, 7 - x, 7)] {
            for y in 1..9 {
                for m_site in [Site::new(m, 0, y), Site::new(m, 9 - y, 9)] {
                    assert_eq!(
                        a.staircase(h_site, m_site),
                        b.staircase(h_site, m_site),
                        "staircase {h_site:?} ~ {m_site:?}"
                    );
                }
            }
        }
    }
}

/// Every interval-table entry equals the site-pair score it stands in
/// for: for each ordered (plug, container) pair of opposite species
/// and each `d < e`, `interval_table(plug, container).get(d, e)` is
/// `ms` of (whole plug, `container[d, e)`) in score and orientation.
/// The improvement driver scores plugs from the table instead of the
/// site-pair cache, so the two must never disagree.
fn assert_tables_match_site_pairs(label: &str, inst: &Instance) {
    let tables = ScoreOracle::new(inst);
    let pairs = ScoreOracle::new(inst);
    for plug in inst.all_frag_ids() {
        let whole = Site::full(plug, inst.frag_len(plug));
        for container in inst.frag_ids(plug.species.other()) {
            let table = tables.interval_table(plug, container);
            let n = inst.frag_len(container);
            for d in 0..n {
                for e in (d + 1)..=n {
                    let site = Site::new(container, d, e);
                    let (h, m) = if plug.species == Species::H {
                        (whole, site)
                    } else {
                        (site, whole)
                    };
                    assert_eq!(
                        table.get(d, e),
                        pairs.ms(h, m),
                        "{label}: plug {plug:?} into {container:?}[{d},{e})"
                    );
                }
            }
        }
    }
}

/// The oracle differential corpus: the paper example, seeded clean,
/// torn and read-soup sims, and the degenerate shapes (one mega
/// fragment, all singletons, a σ desert).
fn seeded_cases() -> Vec<(String, Instance)> {
    use fragalign_sim::{
        generate, generate_degenerate, generate_soup, generate_torn, DegenerateShape, SimConfig,
        SoupConfig, TornConfig,
    };
    let mut cases = vec![(
        "paper".to_owned(),
        fragalign_model::instance::paper_example(),
    )];
    for seed in [3u64, 29] {
        let clean = SimConfig {
            regions: 20,
            h_frags: 3,
            m_frags: 3,
            loss_rate: 0.1,
            shuffles: 2,
            spurious: 3,
            seed,
            ..SimConfig::default()
        };
        cases.push((format!("clean s{seed}"), generate(&clean).instance));
        let torn = TornConfig {
            regions: 24,
            h_frags: 3,
            tear_rate: 0.35,
            seed,
            ..TornConfig::default()
        };
        cases.push((format!("torn s{seed}"), generate_torn(&torn).instance));
        let soup = SoupConfig {
            regions: 20,
            h_frags: 3,
            read_len: 4,
            coverage: 2.0,
            seed,
            ..SoupConfig::default()
        };
        cases.push((format!("soup s{seed}"), generate_soup(&soup).instance));
        for shape in [
            DegenerateShape::MegaFragment,
            DegenerateShape::AllSingletons,
            DegenerateShape::SigmaDesert,
        ] {
            cases.push((
                format!("{shape:?} s{seed}"),
                generate_degenerate(shape, 14, seed).instance,
            ));
        }
    }
    cases
}

#[test]
fn interval_tables_equal_site_pair_scores() {
    for (label, inst) in &seeded_cases() {
        assert_tables_match_site_pairs(label, inst);
        assert_tables_match_site_pairs(&format!("{label} (species swapped)"), &inst.swapped());
    }
}

/// Every cell of every border table equals the scalar reference on the
/// sliced site words, the M word reversed for a `Reversed` staircase,
/// and names the orientation the two ends force. A site that is not a
/// strict prefix or suffix has no cell.
fn assert_border_tables_match_reference(label: &str, inst: &Instance) {
    let oracle = ScoreOracle::new(inst);
    for h in inst.frag_ids(Species::H) {
        let h_len = inst.frag_len(h);
        for m in inst.frag_ids(Species::M) {
            let m_len = inst.frag_len(m);
            let table = oracle.border_table(h, m);
            let (h_full, m_full) = (Site::full(h, h_len), Site::full(m, m_len));
            if m_len >= 2 {
                assert_eq!(table.staircase(h_full, Site::new(m, 0, 1)), None);
            }
            if h_len >= 2 {
                assert_eq!(table.staircase(Site::new(h, 0, 1), m_full), None);
            }
            for a in 1..h_len {
                for h_site in [Site::new(h, 0, a), Site::new(h, h_len - a, h_len)] {
                    for b in 1..m_len {
                        for m_site in [Site::new(m, 0, b), Site::new(m, m_len - b, m_len)] {
                            // Ends differ (suffix ~ prefix, prefix ~
                            // suffix): `Same`; ends agree: `Reversed`.
                            let orient = if (h_site.lo == 0) != (m_site.lo == 0) {
                                Orient::Same
                            } else {
                                Orient::Reversed
                            };
                            let h_word = inst.site_word(h_site);
                            let m_word = match orient {
                                Orient::Same => inst.site_word(m_site).to_vec(),
                                Orient::Reversed => reverse_word(inst.site_word(m_site)),
                            };
                            let want = (scalar(&inst.sigma, h_word, &m_word), orient);
                            assert_eq!(
                                table.staircase(h_site, m_site),
                                Some(want),
                                "{label}: {h_site:?} ~ {m_site:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// A word of `len` distinct-ish symbols for the short-fragment cases.
fn short_word(base: u32, len: usize) -> Vec<Sym> {
    (0..len as u32)
        .map(|i| Sym {
            id: base + i % 3,
            rev: i % 2 == 1,
        })
        .collect()
}

#[test]
fn border_tables_equal_the_scalar_reference() {
    let mut cases = seeded_cases();
    // Fragments of one and two regions next to longer ones, under a
    // positive default score (every cell positive, so the
    // no-positive-cell exit never fires) and under a non-positive one.
    for default_score in [1, 0] {
        let mut sigma = dense_sigma();
        sigma.default_score = default_score;
        cases.push((
            format!("short fragments, default {default_score}"),
            Instance {
                h: vec![
                    Fragment::new("h0", short_word(0, 1)),
                    Fragment::new("h1", short_word(0, 2)),
                    Fragment::new("h2", short_word(2, 5)),
                ],
                m: vec![
                    Fragment::new("m0", short_word(100, 2)),
                    Fragment::new("m1", short_word(101, 1)),
                    Fragment::new("m2", short_word(103, 4)),
                ],
                sigma,
                alphabet: Default::default(),
            },
        ));
    }
    let mut positive = cases[1].1.clone();
    positive.sigma.default_score = 1;
    cases.push((format!("{} with a positive default", cases[1].0), positive));
    for (label, inst) in &cases {
        assert_border_tables_match_reference(label, inst);
        assert_border_tables_match_reference(
            &format!("{label} (species swapped)"),
            &inst.swapped(),
        );
    }
}
