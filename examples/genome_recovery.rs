//! End-to-end genome scaffolding on simulated data.
//!
//! ```sh
//! cargo run --release --example genome_recovery
//! ```
//!
//! Simulates a pair of partially sequenced genomes (optionally at the
//! nucleotide level, deriving σ with the built-in Smith–Waterman
//! aligner), solves the CSR instance with the paper's algorithms, and
//! measures how much of the true contig order/orientation each solver
//! recovers as noise increases — the use case that motivates the paper
//! (its Fig. 1 and the manual study it cites).

use fragalign::prelude::*;
use fragalign::sim::DnaMode;

fn main() {
    println!("noise  algorithm   score   recall  order  orient islands");
    for noise in [0.0, 0.1, 0.2, 0.3] {
        for seed in [1u64, 2] {
            let cfg = SimConfig {
                regions: 18,
                h_frags: 3,
                m_frags: 3,
                loss_rate: noise,
                shuffles: (noise * 10.0) as usize,
                spurious: (noise * 10.0) as usize,
                seed,
                ..SimConfig::default()
            };
            let sim = generate(&cfg);
            let oracle = ScoreOracle::new(&sim.instance);
            for (name, matches) in [
                ("greedy", solve_greedy(&oracle)),
                ("four", solve_four_approx(&oracle)),
                ("csr", csr_improve(&oracle, false).matches),
            ] {
                let rep = evaluate_recovery(&sim, &matches);
                println!(
                    "{noise:>5.2}  {name:<10} {score:>6}  {recall:>6.2}  {order:>5.2}  {orient:>5.2} {islands:>7}",
                    score = matches.total_score(),
                    recall = rep.pair_recall,
                    order = rep.order_accuracy,
                    orient = rep.orient_accuracy,
                    islands = rep.islands,
                );
            }
        }
    }

    // Nucleotide mode: σ is *derived* by aligning simulated DNA.
    println!("\n== end-to-end DNA mode (σ from Smith–Waterman) ==");
    let sim = generate(&SimConfig {
        regions: 12,
        h_frags: 3,
        m_frags: 3,
        loss_rate: 0.05,
        dna: Some(DnaMode::default()),
        seed: 7,
        ..SimConfig::default()
    });
    let result = csr_improve(&ScoreOracle::new(&sim.instance), false);
    let rep = evaluate_recovery(&sim, &result.matches);
    println!(
        "score {} | pair recall {:.2} | order {:.2} | orient {:.2}",
        result.score, rep.pair_recall, rep.order_accuracy, rep.orient_accuracy
    );
}
