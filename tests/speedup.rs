//! Release-gated wall-clock guard: on real multi-core hardware the
//! 4-thread batch run must beat the 1-thread run by ≥ 1.5×, or the
//! thread pool has regressed to shim theatre. Skipped under debug
//! builds (unoptimised timings are noise) and on hosts with fewer
//! than 4 cores (no speedup is physically available); CI's `speedup`
//! job runs it in release on a multi-core runner.

use fragalign::model::Instance;
use fragalign::par::with_threads;
use fragalign::prelude::*;
use std::time::Duration;

fn smoke_batch() -> Vec<Instance> {
    gen_batch(
        &SimConfig {
            regions: 14,
            h_frags: 3,
            m_frags: 3,
            loss_rate: 0.1,
            shuffles: 1,
            spurious: 2,
            seed: 4242,
            ..SimConfig::default()
        },
        16,
    )
    .into_iter()
    .map(|s| s.instance)
    .collect()
}

#[test]
fn four_threads_beat_one_by_1_5x_on_the_release_smoke_workload() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: speedup floors only hold for release builds");
        return;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipped: host has {cores} core(s); a 4-thread speedup needs 4");
        return;
    }
    let instances = smoke_batch();
    let opts = BatchOptions::new("csr");
    // Warm-up, then best-of-two per width to shave scheduler noise.
    let _ = solve_batch_reports(&instances, &opts).unwrap();
    let measure = |threads: usize| -> (Vec<BatchSolution>, Duration) {
        let mut best: Option<(Vec<BatchSolution>, Duration)> = None;
        for _ in 0..2 {
            let instances = &instances;
            let opts = opts.clone();
            let (runs, elapsed) = with_threads(threads, move || {
                solve_batch_reports(instances, &opts).unwrap()
            });
            let solutions: Vec<BatchSolution> = runs.into_iter().map(|(s, _)| s).collect();
            if best.as_ref().is_none_or(|(_, b)| elapsed < *b) {
                best = Some((solutions, elapsed));
            }
        }
        best.expect("measured at least once")
    };
    let (seq, t1) = measure(1);
    let (par, t4) = measure(4);
    assert_eq!(seq, par, "thread count changed batch results");
    let speedup = t1.as_secs_f64() / t4.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 1.5,
        "4-thread batch must be >= 1.5x the 1-thread run (got {speedup:.2}x: \
         {t1:?} -> {t4:?} on {cores} cores)"
    );
}
