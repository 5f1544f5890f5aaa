//! Experiment T9: ablations of four implementation choices of the
//! improvement algorithms, each a knob of `ImproveConfig` or the
//! oracle.
//!
//! ```sh
//! cargo run --release -p fragalign-bench --bin exp_ablation
//! ```
//!
//! * **D1** commit policy: best-of-round vs first-positive.
//! * **D2** oracle cache: hit rates during a solver run.
//! * **D3** container choice: targets only vs free extensions
//!   (site/border caps).
//! * **D4** scaling: rounds and score with/without §4.1 truncation.

use fragalign::align::ScoreOracle;
use fragalign::prelude::*;
use fragalign_bench::sim_instance;
use std::sync::atomic::Ordering;
use std::time::Instant;

fn main() {
    let instances: Vec<_> = (0..4u64).map(|s| sim_instance(20, 4, 100 + s)).collect();

    println!(
        "T9/D1: commit policy (mean over {} instances)",
        instances.len()
    );
    for (name, commit_best) in [("best-of-round", true), ("first-positive", false)] {
        let mut score = 0;
        let mut rounds = 0;
        let mut ms = 0.0;
        for inst in &instances {
            let t0 = Instant::now();
            let res = improve(
                &ScoreOracle::new(inst),
                ImproveConfig {
                    commit_best,
                    parallel: commit_best,
                    ..Default::default()
                },
                MatchSet::new(),
                &CancelToken::never(),
            );
            ms += t0.elapsed().as_secs_f64() * 1e3;
            score += res.score;
            rounds += res.rounds;
        }
        println!("  {name:<15} total score {score:>6}  rounds {rounds:>4}  time {ms:>8.1} ms");
    }

    println!("\nT9/D2: oracle cache behaviour during csr_improve");
    for inst in instances.iter().take(1) {
        let oracle = ScoreOracle::new(inst);
        let _ = improve(
            &oracle,
            ImproveConfig::default(),
            MatchSet::new(),
            &CancelToken::never(),
        );
        let th = oracle.stats.table_hits.load(Ordering::Relaxed);
        let tm = oracle.stats.table_misses.load(Ordering::Relaxed);
        let ph = oracle.stats.pair_hits.load(Ordering::Relaxed);
        let pm = oracle.stats.pair_misses.load(Ordering::Relaxed);
        println!(
            "  interval tables: {tm} built, {th} cache hits ({:.1}% hit rate)",
            100.0 * th as f64 / (th + tm).max(1) as f64
        );
        println!(
            "  site pairs:      {pm} computed, {ph} cache hits ({:.1}% hit rate)",
            100.0 * ph as f64 / (ph + pm).max(1) as f64
        );
    }

    println!("\nT9/D3: candidate-site budget");
    for (name, site_cap, border_cap) in [
        ("full caps", 64usize, 64usize),
        ("cap 4", 4, 4),
        ("cap 2", 2, 2),
    ] {
        let mut score = 0;
        let mut ms = 0.0;
        for inst in &instances {
            let t0 = Instant::now();
            let res = improve(
                &ScoreOracle::new(inst),
                ImproveConfig {
                    site_cap,
                    border_cap,
                    ..Default::default()
                },
                MatchSet::new(),
                &CancelToken::never(),
            );
            ms += t0.elapsed().as_secs_f64() * 1e3;
            score += res.score;
        }
        println!("  {name:<12} total score {score:>6}  time {ms:>8.1} ms");
    }

    println!("\nT9/D4: Chandra–Halldórsson scaling (§4.1)");
    for (name, scaling) in [("unscaled", false), ("scaled", true)] {
        let mut score = 0;
        let mut rounds = 0;
        let mut quantum = 0;
        for inst in &instances {
            let res = csr_improve(&ScoreOracle::new(inst), scaling);
            score += res.score;
            rounds += res.rounds;
            quantum = quantum.max(res.quantum);
        }
        println!("  {name:<10} total score {score:>6}  rounds {rounds:>4}  max quantum {quantum}");
    }
}
