//! Experiment T1–T3: empirical approximation ratios against the exact
//! optimum (Theorems 4–6, Corollary 1, Lemma 9).
//!
//! ```sh
//! cargo run --release -p fragalign-bench --bin exp_ratio
//! ```
//!
//! Sweeps random instances small enough for the exhaustive solver and
//! prints, per algorithm, the mean and worst observed ratio
//! `exact / achieved` — the paper proves ≤ 4 for the Corollary 1
//! algorithm and ≤ 3 + ε for the improvement algorithms; greedy has no
//! guarantee.

use fragalign::prelude::*;
use fragalign::sim::generate;

fn main() {
    let mut rows: Vec<(&str, Vec<f64>)> = vec![
        ("greedy", Vec::new()),
        ("matching(L9)", Vec::new()),
        ("four(Cor1)", Vec::new()),
        ("full(Thm4)", Vec::new()),
        ("border(Thm5)", Vec::new()),
        ("csr(Thm6)", Vec::new()),
        ("csr+scaling", Vec::new()),
    ];
    let mut cases = 0;
    for regions in [8usize, 10, 12] {
        for seed in 0..8u64 {
            let cfg = SimConfig {
                regions,
                h_frags: 3,
                m_frags: 3,
                loss_rate: 0.1,
                shuffles: 1,
                spurious: 2,
                base_score: 10,
                score_jitter: 5,
                seed: seed * 131 + regions as u64,
                ..SimConfig::default()
            };
            let inst = generate(&cfg).instance;
            let exact = solve_exact(
                &inst,
                ExactLimits {
                    max_frags: 4,
                    max_regions: 40,
                },
            )
            .score;
            if exact == 0 {
                continue;
            }
            cases += 1;
            let oracle = ScoreOracle::new(&inst);
            let scores = [
                solve_greedy(&oracle).total_score(),
                border_matching_2approx(&oracle).total_score(),
                solve_four_approx(&oracle).total_score(),
                full_improve(&oracle, false).score,
                border_improve(&oracle, false).score,
                csr_improve(&oracle, false).score,
                csr_improve(&oracle, true).score,
            ];
            for (row, &score) in rows.iter_mut().zip(scores.iter()) {
                let ratio = if score == 0 {
                    f64::INFINITY
                } else {
                    exact as f64 / score as f64
                };
                row.1.push(ratio);
            }
        }
    }
    println!("T1-T3: approximation ratios over {cases} random instances (exact/achieved)");
    println!(
        "{:<14} {:>10} {:>10} {:>12}",
        "algorithm", "mean", "worst", "paper bound"
    );
    let bounds = [
        "none",
        "2 (border)",
        "4",
        "3+eps",
        "3+eps",
        "3+eps",
        "3+eps",
    ];
    for ((name, ratios), bound) in rows.iter().zip(bounds.iter()) {
        let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        let worst = ratios.iter().cloned().fold(1.0f64, f64::max);
        println!("{name:<14} {mean:>10.3} {worst:>10.3} {bound:>12}");
    }
}
