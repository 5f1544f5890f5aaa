//! Differential property tests: every `P_score` kernel path — full
//! matrix, rolling rows, banded at the lossless width, wavefront, and
//! the workspace-reuse variants — must be bit-identical on random
//! words and score tables, including reversed-orientation cases and
//! dirty (previously used, differently sized) workspace buffers.

use fragalign_align::{
    align_words, lossless_band, ms_words, p_score, p_score_banded, p_score_wavefront,
    p_score_wavefront_with, DpMatrix, DpWorkspace, KernelMode, ScoreOracle, KERNEL_BLOCK,
};
use fragalign_model::symbol::reverse_word;
use fragalign_model::{FragId, Fragment, Instance, Orient, ScoreTable, Site, Species, Sym};
use proptest::prelude::*;

const ALL_MODES: [KernelMode; 3] = [
    KernelMode::Scalar,
    KernelMode::Profiled,
    KernelMode::ProfiledBlocked,
];

/// Random σ including negative entries and a non-zero default score
/// (the workspace shortcuts must stay exact when every absent pair
/// scores non-zero).
fn sigma_strategy() -> impl Strategy<Value = ScoreTable> {
    (
        prop::collection::vec(((0u32..6), (0u32..6), any::<bool>(), -3i64..7), 0..24),
        -2i64..=0,
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
    /// Every kernel path agrees with the rolling-row reference.
    #[test]
    fn all_kernel_paths_agree(sigma in sigma_strategy(), u in word(0), v in word(100)) {
        let reference = p_score(&sigma, &u, &v);
        // Full matrix.
        prop_assert_eq!(DpMatrix::fill(&sigma, &u, &v).score(), reference);
        // Traceback-producing path.
        prop_assert_eq!(align_words(&sigma, &u, &v).0, reference);
        // Banded at the provably lossless width.
        prop_assert_eq!(
            p_score_banded(&sigma, &u, &v, lossless_band(u.len(), v.len())),
            reference
        );
        // Wavefront (sequential fallback region and the real sweep are
        // both covered by the dedicated size test below).
        prop_assert_eq!(p_score_wavefront(&sigma, &u, &v), reference);
        // Workspace-reuse variants, across a dirty buffer: fill a
        // differently-shaped problem first so stale cells would show.
        let mut ws = DpWorkspace::new();
        let big_u: Vec<Sym> = (0..17).map(Sym::fwd).collect();
        let big_v: Vec<Sym> = (0..19).map(|i| Sym::fwd(100 + i)).collect();
        let _ = ws.p_score(&sigma, &big_u, &big_v);
        prop_assert_eq!(ws.p_score(&sigma, &u, &v), reference);
        prop_assert_eq!(ws.p_score_auto(&sigma, &u, &v), reference);
        prop_assert_eq!(p_score_wavefront_with(&sigma, &u, &v, &mut ws), reference);
        prop_assert_eq!(
            ws.p_score_banded(&sigma, &u, &v, lossless_band(u.len(), v.len())),
            reference
        );
        // Forced kernel modes through the same dirty workspace.
        for mode in ALL_MODES {
            prop_assert_eq!(ws.p_score_kernel(&sigma, &u, &v, mode), reference, "{mode:?}");
        }
        // Workspace traceback path: same score, same columns as the
        // allocating free function.
        let (free_score, free_cols) = align_words(&sigma, &u, &v);
        let (ws_score, ws_cols) = ws.align_words(&sigma, &u, &v);
        prop_assert_eq!(ws_score, free_score);
        prop_assert_eq!(ws_cols, free_cols);
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
        let reference = p_score(&sigma, &u, &v);
        let mut ws = DpWorkspace::new();
        for mode in ALL_MODES {
            prop_assert_eq!(ws.p_score_kernel(&sigma, &u, &v, mode), reference, "{mode:?}");
        }
    }

    /// Orientation search: the workspace `MS` (scan + early exit +
    /// banded routing) matches the allocating free function, and both
    /// respect the reversal identity `P(u, v) = P(u^R, v^R)`.
    #[test]
    fn ms_paths_agree_including_reversed(
        sigma in sigma_strategy(), u in word(0), v in word(100)
    ) {
        let mut ws = DpWorkspace::new();
        let free = ms_words(&sigma, &u, &v);
        prop_assert_eq!(ws.ms_words(&sigma, &u, &v), free);
        // Pinned orientations.
        let vr = reverse_word(&v);
        prop_assert_eq!(
            ws.p_score_oriented(&sigma, &u, &v, Orient::Same),
            p_score(&sigma, &u, &v)
        );
        prop_assert_eq!(
            ws.p_score_oriented(&sigma, &u, &v, Orient::Reversed),
            p_score(&sigma, &u, &vr)
        );
        // Reversal invariance through the workspace path.
        let ur = reverse_word(&u);
        prop_assert_eq!(
            ws.p_score_auto(&sigma, &ur, &vr),
            p_score(&sigma, &u, &v)
        );
    }

    /// The band is monotone: a wider window never scores less, every
    /// width is a lower bound of the full DP, and the lossless width
    /// reaches it.
    #[test]
    fn banded_monotone_lower_bound(
        sigma in sigma_strategy(), u in word(0), v in word(100)
    ) {
        let full = p_score(&sigma, &u, &v);
        let lossless = lossless_band(u.len(), v.len());
        let mut prev_score = None;
        for band in 0..=lossless {
            let banded = p_score_banded(&sigma, &u, &v, band);
            prop_assert!(banded <= full, "band {band}: {banded} > {full}");
            if let Some(p) = prev_score {
                prop_assert!(banded >= p, "band {band} lost score over band {}", band - 1);
            }
            prev_score = Some(banded);
        }
        prop_assert_eq!(p_score_banded(&sigma, &u, &v, lossless), full);
    }

    /// Oracle entry points: the pooled-workspace oracle, the
    /// per-call-allocation oracle, and explicit caller workspaces all
    /// produce identical interval tables and site-pair scores.
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
        let baseline = ScoreOracle::with_workspace_reuse(&inst, false);
        let mut caller_ws = DpWorkspace::new();
        for plug in inst.all_frag_ids() {
            for container in inst.all_frag_ids() {
                if plug.species == container.species {
                    continue;
                }
                let a = pooled.interval_table(plug, container);
                let b = baseline.interval_table(plug, container);
                let c = pooled.interval_table_with(plug, container, &mut caller_ws);
                let n = inst.frag_len(container);
                for d in 0..=n {
                    for e in d..=n {
                        prop_assert_eq!(a.get(d, e), b.get(d, e));
                        prop_assert_eq!(a.get(d, e), c.get(d, e));
                    }
                }
            }
        }
        let h_site = Site::full(FragId::h(0), inst.frag_len(FragId::h(0)));
        let m_site = Site::full(FragId::m(0), inst.frag_len(FragId::m(0)));
        prop_assert_eq!(pooled.ms(h_site, m_site), baseline.ms(h_site, m_site));
        for orient in [Orient::Same, Orient::Reversed] {
            prop_assert_eq!(
                pooled.ms_oriented(h_site, m_site, orient),
                baseline.ms_oriented(h_site, m_site, orient)
            );
        }
    }
}

/// The wavefront cutoff hides the parallel sweep from small proptest
/// words; cover the real sweep (and the workspace variant's resized
/// diagonals) at sizes beyond the cutoff.
#[test]
fn wavefront_paths_agree_beyond_cutoff() {
    let mut sigma = ScoreTable::new();
    for a in 0..8u32 {
        for b in 0..8u32 {
            if (a * 5 + b) % 3 != 0 {
                sigma.set(Sym::fwd(a), Sym::fwd(100 + b), ((a + 2 * b) % 5) as i64 - 1);
            }
        }
    }
    let mk = |seed: u64, len: usize, base: u32| -> Vec<Sym> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                Sym::fwd(base + (state % 8) as u32)
            })
            .collect()
    };
    let mut ws = DpWorkspace::new();
    for (lu, lv) in [(600, 600), (520, 700)] {
        let u = mk(lu as u64, lu, 0);
        let v = mk(lv as u64 + 7, lv, 100);
        let reference = p_score(&sigma, &u, &v);
        assert_eq!(p_score_wavefront(&sigma, &u, &v), reference);
        assert_eq!(p_score_wavefront_with(&sigma, &u, &v, &mut ws), reference);
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
        let reference = p_score(&sigma, &u, &v);
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
/// `prev[..cols]` and writes `cur[..cols]` before reading;
/// `fill_banded` writes each row window before the next row reads it;
/// the profiled kernels zero `prev`, `carry`, and the per-block base
/// row — this test pins all of that against regression.)
#[test]
fn shrinking_buffers_never_leak_stale_tails() {
    let sigma = dense_sigma();
    let mut ws = DpWorkspace::new();
    // Wide fill: bigger than everything that follows, filling
    // prev/cur/carry/grid/profile with large-problem leftovers.
    let wide_u = mixed_word(11, 90, 0);
    let wide_v = mixed_word(12, 2 * KERNEL_BLOCK + 50, 100);
    let _ = ws.p_score_kernel(&sigma, &wide_u, &wide_v, KernelMode::ProfiledBlocked);
    let _ = ws.align_words(&sigma, &wide_u, &mixed_word(13, 70, 100));

    for (seed, lu, lv) in [
        (1u64, 9, 60),
        (2, 17, 5),
        (3, 1, 1),
        (4, 40, KERNEL_BLOCK + 3),
    ] {
        let u = mixed_word(seed * 7 + 1, lu, 0);
        let v = mixed_word(seed * 7 + 2, lv, 100);
        let reference = p_score(&sigma, &u, &v);
        for mode in ALL_MODES {
            assert_eq!(
                ws.p_score_kernel(&sigma, &u, &v, mode),
                reference,
                "{lu}x{lv} {mode:?}"
            );
        }
        assert_eq!(ws.p_score(&sigma, &u, &v), reference);
        assert_eq!(ws.p_score_auto(&sigma, &u, &v), reference);
        assert_eq!(
            ws.p_score_banded(&sigma, &u, &v, lossless_band(u.len(), v.len())),
            reference,
            "banded {lu}x{lv}"
        );
        assert_eq!(ws.ms_words(&sigma, &u, &v), ms_words(&sigma, &u, &v));
        let (score, cols) = ws.align_words(&sigma, &u, &v);
        let (free_score, free_cols) = align_words(&sigma, &u, &v);
        assert_eq!(score, free_score, "align_words score {lu}x{lv}");
        assert_eq!(cols, free_cols, "align_words columns {lu}x{lv}");
    }

    // The oracle sweep through the same (adopted) workspace: interval
    // tables after the wide fill must match a fresh oracle's.
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

#[test]
fn interval_tables_equal_site_pair_scores() {
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
    for (label, inst) in &cases {
        assert_tables_match_site_pairs(label, inst);
        assert_tables_match_site_pairs(&format!("{label} (species swapped)"), &inst.swapped());
    }
}
