//! Hammer one shared `ScoreOracle` from many threads: interval tables,
//! border tables and site pairs must equal an uncontended oracle's,
//! every slot must be filled once (a repeat read returns the same
//! table), and the miss and fill counters must repeat a one-thread
//! run's exactly: one miss per distinct key, plus one pair miss and its
//! fills per `ms` call, which is never cached.

use fragalign_align::oracle::IntervalTable;
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

/// Every (H, M) fragment pair of `inst`.
fn pairs(inst: &Instance) -> Vec<(FragId, FragId)> {
    inst.frag_ids(fragalign_model::Species::H)
        .flat_map(|h| {
            inst.frag_ids(fragalign_model::Species::M)
                .map(move |m| (h, m))
        })
        .collect()
}

/// Every interval score of an interval table.
fn intervals(table: &IntervalTable) -> Vec<(i64, Orient)> {
    let n = table.len();
    (0..=n)
        .flat_map(|d| (d..=n).map(move |e| (d, e)))
        .map(|(d, e)| table.get(d, e))
        .collect()
}

/// One pair's interval tables (H plug, M plug) and border table.
type Tables<'o> = ([&'o IntervalTable; 2], &'o BorderTable);

/// Whether two reads of one pair returned the very same tables.
fn same_tables(a: Tables<'_>, b: Tables<'_>) -> bool {
    std::ptr::eq(a.0[0], b.0[0]) && std::ptr::eq(a.0[1], b.0[1]) && std::ptr::eq(a.1, b.1)
}

/// DP fills of one `ms(h, m)` call on a fresh oracle.
fn ms_fills(inst: &Instance, h: Site, m: Site) -> u64 {
    let oracle = ScoreOracle::new(inst);
    oracle.ms(h, m);
    oracle.stats.dp_fills.load(Ordering::Relaxed)
}

#[test]
fn concurrent_queries_are_stable_and_counters_coherent() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 40;

    let inst = contended_instance();
    // Reference answers from an uncontended oracle, tables only.
    let reference = ScoreOracle::new(&inst);
    let queries = pairs(&inst);
    // Interval tables in both plug directions, per (H, M) pair.
    let expected_tables: Vec<[Vec<(i64, Orient)>; 2]> = queries
        .iter()
        .map(|&(h, m)| {
            [
                intervals(reference.interval_table(h, m)),
                intervals(reference.interval_table(m, h)),
            ]
        })
        .collect();
    let expected_borders: Vec<Vec<Option<(i64, Orient)>>> = queries
        .iter()
        .map(|&(h, m)| staircases(&inst, reference.border_table(h, m), h, m))
        .collect();
    let h_site = Site::full(FragId::h(0), inst.frag_len(FragId::h(0)));
    let m_site = Site::full(FragId::m(1), inst.frag_len(FragId::m(1)));
    let expected_ms = reference.ms(h_site, m_site);
    let table_fills =
        reference.stats.dp_fills.load(Ordering::Relaxed) - ms_fills(&inst, h_site, m_site);

    let oracle = ScoreOracle::new(&inst);
    // Every thread starts its reads at once, so first reads collide.
    let start = std::sync::Barrier::new(THREADS);
    let seen: Vec<Vec<Tables>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|worker| {
                let (oracle, queries, inst, start) = (&oracle, &queries, &inst, &start);
                let (expected_tables, expected_borders) = (&expected_tables, &expected_borders);
                scope.spawn(move || {
                    // The tables this thread read in its first round.
                    let mut first: Vec<Option<Tables>> = vec![None; queries.len()];
                    start.wait();
                    for round in 0..ROUNDS {
                        // Stagger start offsets so threads collide on
                        // different keys each round.
                        let shift = (worker + round) % queries.len();
                        for idx in 0..queries.len() {
                            let slot = (idx + shift) % queries.len();
                            let (h, m) = queries[slot];
                            let border = oracle.border_table(h, m);
                            assert_eq!(
                                staircases(inst, border, h, m),
                                expected_borders[slot],
                                "torn border table for {h:?}/{m:?}"
                            );
                            let tables = [oracle.interval_table(h, m), oracle.interval_table(m, h)];
                            assert_eq!(
                                tables.map(intervals),
                                expected_tables[slot],
                                "torn interval table for {h:?}/{m:?}"
                            );
                            let read = (tables, border);
                            let first = *first[slot].get_or_insert(read);
                            assert!(
                                same_tables(first, read),
                                "a slot of {h:?}/{m:?} was filled twice"
                            );
                        }
                        assert_eq!(oracle.ms(h_site, m_site), expected_ms);
                    }
                    first.into_iter().map(Option::unwrap).collect()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    // Every thread read the one table each slot holds.
    for (slot, &(h, m)) in queries.iter().enumerate() {
        let tables = [oracle.interval_table(h, m), oracle.interval_table(m, h)];
        let read = (tables, oracle.border_table(h, m));
        assert!(seen.iter().all(|thread| same_tables(thread[slot], read)));
    }

    // One miss per distinct key: two interval tables and one border
    // table per (H, M) pair. Every `ms` call adds a pair miss.
    let ms_calls = (THREADS * ROUNDS) as u64;
    let s = oracle.stats.snapshot();
    assert_eq!(
        s.table_misses,
        2 * queries.len() as u64,
        "table misses != distinct keys"
    );
    assert_eq!(
        s.pair_misses - ms_calls,
        queries.len() as u64,
        "border-table misses != distinct keys"
    );

    // Workspace accounting: the fills are the one-thread reference's
    // tables plus every `ms` call's, and with pooling on, buffer growth
    // stays far below the fill count.
    assert!(s.dp_fills > 0, "misses must run DP fills");
    assert_eq!(
        s.dp_fills,
        table_fills + ms_calls * ms_fills(&inst, h_site, m_site),
        "dp_fills differ from a one-thread run's"
    );
    assert!(
        s.dp_reallocs <= (THREADS * 4) as u64,
        "pooled workspaces re-allocated {} times over {} fills",
        s.dp_reallocs,
        s.dp_fills
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
    let queries = pairs(&inst);
    let expected: Vec<Vec<(i64, Orient)>> = queries
        .iter()
        .map(|&(h, m)| intervals(reference.interval_table(h, m)))
        .collect();

    for threads in [2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds");
        let oracle = ScoreOracle::new(&inst);
        pool.install(|| {
            // 64 hammer tasks per width, each walking every query with
            // a different stagger so workers race to fill different
            // keys.
            (0..64usize).into_par_iter().for_each(|shift| {
                for idx in 0..queries.len() {
                    let slot = (idx + shift) % queries.len();
                    let (h, m) = queries[slot];
                    let table = oracle.interval_table(h, m);
                    assert_eq!(
                        intervals(table),
                        expected[slot],
                        "torn table for {h:?}/{m:?}"
                    );
                    assert!(
                        std::ptr::eq(table, oracle.interval_table(h, m)),
                        "a slot of {h:?}/{m:?} was filled twice"
                    );
                }
            });
        });
        // The miss and fill counts repeat the one-thread reference's.
        let s = oracle.stats.snapshot();
        assert_eq!(s.table_misses, queries.len() as u64, "{threads} threads");
        assert_eq!(
            s.dp_fills,
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
