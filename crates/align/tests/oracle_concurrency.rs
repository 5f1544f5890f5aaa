//! Hammer one shared `ScoreOracle` from many threads: interval tables,
//! border tables and site pairs must be stable (no torn cache fills
//! under the `parking_lot` shim), the hit/miss counters coherent, and
//! the miss and fill counters must repeat a one-thread run's exactly: a
//! fill that loses an insert race counts as a hit and adds no DP fills.

use fragalign_align::{BorderTable, ScoreOracle};
use fragalign_model::{FragId, Fragment, Instance, Orient, ScoreTable, Site, Sym};
use std::sync::atomic::Ordering;

/// A hand-built instance with enough fragments for contended queries
/// (the align crate cannot dev-depend on the simulator — that would be
/// a dependency cycle — so the workload is explicit).
fn contended_instance() -> Instance {
    let word = |base: u32, ids: &[u32]| -> Vec<Sym> {
        ids.iter()
            .map(|&i| Sym {
                id: base + i,
                rev: i % 3 == 0,
            })
            .collect()
    };
    let mut sigma = ScoreTable::new();
    for a in 0..8u32 {
        for b in 0..8u32 {
            let s = ((a * 7 + b * 5) % 11) as i64 - 2;
            if s != 0 {
                sigma.set(Sym::fwd(a), Sym::fwd(100 + b), s);
            }
        }
    }
    Instance {
        h: vec![
            Fragment::new("h0", word(0, &[0, 1, 2, 3, 4])),
            Fragment::new("h1", word(0, &[5, 6, 7, 0, 2])),
            Fragment::new("h2", word(0, &[3, 3, 1])),
        ],
        m: vec![
            Fragment::new("m0", word(100, &[0, 2, 4, 6])),
            Fragment::new("m1", word(100, &[7, 5, 3, 1, 0])),
            Fragment::new("m2", word(100, &[6, 6])),
        ],
        sigma,
        alphabet: Default::default(),
    }
}

/// Every staircase read off a border table of fragments `h` and `m`.
fn staircases(
    inst: &Instance,
    table: &BorderTable,
    h: FragId,
    m: FragId,
) -> Vec<Option<(i64, Orient)>> {
    let (h_len, m_len) = (inst.frag_len(h), inst.frag_len(m));
    let mut out = Vec::new();
    for a in 1..h_len {
        for h_site in [Site::new(h, 0, a), Site::new(h, h_len - a, h_len)] {
            for b in 1..m_len {
                for m_site in [Site::new(m, 0, b), Site::new(m, m_len - b, m_len)] {
                    out.push(table.staircase(h_site, m_site));
                }
            }
        }
    }
    out
}

#[test]
fn concurrent_queries_are_stable_and_counters_coherent() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 40;

    let inst = contended_instance();
    // Reference answers from an uncontended oracle.
    let reference = ScoreOracle::new(&inst);
    let queries: Vec<(FragId, FragId)> = inst
        .frag_ids(fragalign_model::Species::H)
        .flat_map(|h| {
            inst.frag_ids(fragalign_model::Species::M)
                .map(move |m| (h, m))
        })
        .collect();
    let expected_tables: Vec<Vec<(i64, Orient)>> = queries
        .iter()
        .map(|&(h, m)| {
            let t = reference.interval_table(h, m);
            let n = inst.frag_len(m);
            (0..=n)
                .flat_map(|d| (d..=n).map(move |e| (d, e)))
                .map(|(d, e)| t.get(d, e))
                .collect()
        })
        .collect();
    let expected_borders: Vec<Vec<Option<(i64, Orient)>>> = queries
        .iter()
        .map(|&(h, m)| staircases(&inst, &reference.border_table(h, m), h, m))
        .collect();
    let h_site = Site::full(FragId::h(0), inst.frag_len(FragId::h(0)));
    let m_site = Site::full(FragId::m(1), inst.frag_len(FragId::m(1)));
    let expected_ms = reference.ms(h_site, m_site);

    let oracle = ScoreOracle::new(&inst);
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let oracle = &oracle;
            let queries = &queries;
            let expected_tables = &expected_tables;
            let expected_borders = &expected_borders;
            let inst = &inst;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Stagger start offsets so threads collide on
                    // different keys each round.
                    let shift = (worker + round) % queries.len();
                    for idx in 0..queries.len() {
                        let slot = (idx + shift) % queries.len();
                        let (h, m) = queries[slot];
                        assert_eq!(
                            staircases(inst, &oracle.border_table(h, m), h, m),
                            expected_borders[slot],
                            "torn border table for {h:?}/{m:?}"
                        );
                        let table = oracle.interval_table(h, m);
                        let n = inst.frag_len(m);
                        let got: Vec<(i64, Orient)> = (0..=n)
                            .flat_map(|d| (d..=n).map(move |e| (d, e)))
                            .map(|(d, e)| table.get(d, e))
                            .collect();
                        assert_eq!(
                            got, expected_tables[slot],
                            "torn interval table for {h:?}/{m:?}"
                        );
                    }
                    assert_eq!(oracle.ms(h_site, m_site), expected_ms);
                }
            });
        }
    });

    // Counter coherence: every lookup is either a hit or a miss.
    let table_lookups = (THREADS * ROUNDS * queries.len()) as u64;
    let hits = oracle.stats.table_hits.load(Ordering::Relaxed);
    let misses = oracle.stats.table_misses.load(Ordering::Relaxed);
    assert_eq!(hits + misses, table_lookups, "table lookups miscounted");
    // Racing threads may both fill a key, but only the winning insert
    // counts as a miss: misses are the distinct keys.
    assert_eq!(
        misses,
        queries.len() as u64,
        "table misses != distinct keys"
    );

    // Site pairs and border tables share the pair counters: one
    // site-pair key plus one border table per (H, M) pair, each read
    // once per round.
    let pair_lookups = (THREADS * ROUNDS * (1 + queries.len())) as u64;
    let pair_hits = oracle.stats.pair_hits.load(Ordering::Relaxed);
    let pair_misses = oracle.stats.pair_misses.load(Ordering::Relaxed);
    assert_eq!(
        pair_hits + pair_misses,
        pair_lookups,
        "pair lookups miscounted"
    );
    assert_eq!(
        pair_misses,
        1 + queries.len() as u64,
        "pair misses != distinct keys"
    );

    // Workspace accounting: the fills are the one-thread reference's
    // (same distinct keys), and with pooling on, buffer growth stays
    // far below the fill count.
    let fills = oracle.stats.dp_fills.load(Ordering::Relaxed);
    let reallocs = oracle.stats.dp_reallocs.load(Ordering::Relaxed);
    assert!(fills > 0, "misses must run DP fills");
    assert_eq!(
        fills,
        reference.stats.dp_fills.load(Ordering::Relaxed),
        "dp_fills differ from a one-thread run's"
    );
    assert!(
        reallocs <= (THREADS * 4) as u64,
        "pooled workspaces re-allocated {reallocs} times over {fills} fills"
    );
}

#[test]
fn rayon_pool_hammer_matches_uncontended_oracle() {
    // The same contention pattern as the scoped-thread hammer, but
    // driven through the rayon shim's real worker pool — the pool the
    // batch pipeline and the portfolio actually run on — instead of
    // hand-spawned threads. Every query against the shared oracle must
    // equal the uncontended reference at every pool width.
    use rayon::prelude::*;

    let inst = contended_instance();
    let reference = ScoreOracle::new(&inst);
    let queries: Vec<(FragId, FragId)> = inst
        .frag_ids(fragalign_model::Species::H)
        .flat_map(|h| {
            inst.frag_ids(fragalign_model::Species::M)
                .map(move |m| (h, m))
        })
        .collect();
    let expected: Vec<Vec<(i64, Orient)>> = queries
        .iter()
        .map(|&(h, m)| {
            let t = reference.interval_table(h, m);
            let n = inst.frag_len(m);
            (0..=n)
                .flat_map(|d| (d..=n).map(move |e| (d, e)))
                .map(|(d, e)| t.get(d, e))
                .collect()
        })
        .collect();

    for threads in [2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds");
        let oracle = ScoreOracle::new(&inst);
        pool.install(|| {
            // 64 hammer tasks per width, each walking every query with
            // a different stagger so workers collide on different keys.
            (0..64usize).into_par_iter().for_each(|shift| {
                for idx in 0..queries.len() {
                    let slot = (idx + shift) % queries.len();
                    let (h, m) = queries[slot];
                    let table = oracle.interval_table(h, m);
                    let n = inst.frag_len(m);
                    let got: Vec<(i64, Orient)> = (0..=n)
                        .flat_map(|d| (d..=n).map(move |e| (d, e)))
                        .map(|(d, e)| table.get(d, e))
                        .collect();
                    assert_eq!(got, expected[slot], "torn table for {h:?}/{m:?}");
                }
            });
        });
        // Counter coherence holds under the pool too, and the miss
        // and fill counts repeat the one-thread reference's.
        let hits = oracle.stats.table_hits.load(Ordering::Relaxed);
        let misses = oracle.stats.table_misses.load(Ordering::Relaxed);
        assert_eq!(hits + misses, (64 * queries.len()) as u64);
        assert_eq!(misses, queries.len() as u64, "{threads} threads");
        assert_eq!(
            oracle.stats.dp_fills.load(Ordering::Relaxed),
            reference.stats.dp_fills.load(Ordering::Relaxed),
            "{threads} threads"
        );
    }
}

#[test]
fn concurrent_adopt_reclaim_round_trips_workspaces() {
    let inst = contended_instance();
    let oracle = ScoreOracle::new(&inst);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let oracle = &oracle;
            scope.spawn(move || {
                for _ in 0..50 {
                    let ws = oracle.reclaim_workspace();
                    oracle.adopt_workspace(ws);
                }
            });
        }
    });
    // The pool survives arbitrary interleavings and the oracle still
    // answers correctly afterwards.
    let t = oracle.interval_table(FragId::h(0), FragId::m(0));
    let direct = ScoreOracle::new(&inst);
    let d = direct.interval_table(FragId::h(0), FragId::m(0));
    let n = inst.frag_len(FragId::m(0));
    for lo in 0..=n {
        for hi in lo..=n {
            assert_eq!(t.get(lo, hi), d.get(lo, hi));
        }
    }
}
