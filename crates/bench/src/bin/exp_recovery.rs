//! Experiment T7: order/orient recovery on simulated genomes as noise
//! rises — the paper's motivating application (Fig. 1, ref [8]).
//!
//! ```sh
//! cargo run --release -p fragalign-bench --bin exp_recovery
//! ```

use fragalign::prelude::*;
use fragalign::sim::generate;

fn main() {
    println!("T7: ground-truth recovery vs noise (mean over seeds)");
    println!(
        "{:>6} {:<10} {:>8} {:>8} {:>8} {:>8}",
        "noise", "algorithm", "recall", "order", "orient", "islands"
    );
    let seeds: Vec<u64> = (0..5).collect();
    for noise in [0.0, 0.1, 0.2, 0.3, 0.4] {
        let mut acc: Vec<(&str, f64, f64, f64, f64)> = vec![
            ("greedy", 0.0, 0.0, 0.0, 0.0),
            ("four", 0.0, 0.0, 0.0, 0.0),
            ("csr", 0.0, 0.0, 0.0, 0.0),
        ];
        for &seed in &seeds {
            let sim = generate(&SimConfig {
                regions: 20,
                h_frags: 4,
                m_frags: 4,
                loss_rate: noise,
                shuffles: (noise * 10.0) as usize,
                spurious: (noise * 12.0) as usize,
                seed: seed * 7 + 1,
                ..SimConfig::default()
            });
            let oracle = ScoreOracle::new(&sim.instance);
            let sols = [
                solve_greedy(&oracle),
                solve_four_approx(&oracle),
                csr_improve(&oracle, false).matches,
            ];
            for (slot, sol) in acc.iter_mut().zip(sols.iter()) {
                let rep = evaluate_recovery(&sim, sol);
                slot.1 += rep.pair_recall;
                slot.2 += rep.order_accuracy;
                slot.3 += rep.orient_accuracy;
                slot.4 += rep.islands as f64;
            }
        }
        let n = seeds.len() as f64;
        for (name, recall, order, orient, islands) in acc {
            println!(
                "{noise:>6.2} {name:<10} {:>8.3} {:>8.3} {:>8.3} {:>8.1}",
                recall / n,
                order / n,
                orient / n,
                islands / n
            );
        }
    }
    println!("\nexpected shape: csr ≥ four ≥ greedy on recall; all degrade with noise.");
}
