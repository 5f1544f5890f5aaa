//! Experiments T5 and T6: the Lemma 1 (CSR→UCSR) and Theorem 2
//! (3-MIS→CSoP) reductions, executed and measured.
//!
//! ```sh
//! cargo run --release -p fragalign-bench --bin exp_reductions
//! ```

use fragalign::core::csop::{csop_solution_to_mis, reduce_mis_to_csop};
use fragalign::core::ucsr::{map_solution_back, map_solution_forward, pairs_score, reduce_to_ucsr};
use fragalign::graph::{dirac_relabel, max_independent_set, random_regular};
use fragalign::model::Sym;
use fragalign::prelude::*;
use fragalign::sim::generate;

fn main() {
    // ---- T5: Lemma 1 --------------------------------------------------
    println!("T5: Lemma 1 reduction CSR → UCSR (φ₀ forward / φ₁ back)");
    println!(
        "{:>4} {:>6} {:>4} {:>6} {:>10} {:>12} {:>10} {:>10}",
        "seed", "eps", "K", "s", "CSR score", "UCSR(=s·CSR)", "back", "(1-ε)·CSR"
    );
    for seed in 0..4u64 {
        let sim = generate(&SimConfig {
            regions: 5,
            h_frags: 2,
            m_frags: 2,
            loss_rate: 0.0,
            shuffles: 1,
            spurious: 1,
            seed,
            ..SimConfig::default()
        });
        let inst = &sim.instance;
        let res = csr_improve(&ScoreOracle::new(inst), false);
        let layout = LayoutBuilder::new(inst, &DpAligner)
            .layout(&res.matches)
            .unwrap();
        let mut pairs: Vec<(Sym, Sym)> = Vec::new();
        for col in &layout.columns {
            if let (Some(hc), Some(mc)) = (col.h, col.m) {
                let a = fragalign::model::ConjecturePair::cell_sym(
                    inst,
                    hc,
                    layout.placement(hc.0).unwrap().reversed,
                );
                let b = fragalign::model::ConjecturePair::cell_sym(
                    inst,
                    mc,
                    layout.placement(mc.0).unwrap().reversed,
                );
                if inst.sigma.score(a, b) > 0 {
                    pairs.push((a, b));
                }
            }
        }
        let csr_score = pairs_score(inst, &pairs);
        for eps in [1.0, 0.5, 0.25] {
            let red = reduce_to_ucsr(inst, eps);
            let f = map_solution_forward(&red, &pairs);
            let u = red.ucsr.validate(&f).expect("forward map valid");
            assert_eq!(u, csr_score * red.s as i64);
            let back = map_solution_back(&red, inst, &f);
            let back_score = pairs_score(inst, &back);
            assert!(back_score as f64 >= (1.0 - eps) * csr_score as f64);
            println!(
                "{seed:>4} {eps:>6.2} {:>4} {:>6} {csr_score:>10} {u:>12} {back_score:>10} {:>10.1}",
                red.k,
                red.s,
                (1.0 - eps) * csr_score as f64
            );
        }
    }

    // ---- T6: Theorem 2 --------------------------------------------------
    println!("\nT6: Theorem 2 reduction 3-MIS → CSoP (|U*| = 5n + |W*|)");
    println!(
        "{:>6} {:>6} {:>9} {:>6} {:>6} {:>8} {:>9}",
        "nodes", "seed", "elements", "|W*|", "5n", "|U*|", "5n+|W*|"
    );
    for nodes in [6usize, 8, 10, 12] {
        for seed in 0..2u64 {
            let g0 = random_regular(nodes, 3, seed + nodes as u64);
            let Ok((g, _)) = std::panic::catch_unwind(|| dirac_relabel(&g0, seed)) else {
                continue; // tiny graphs may lack a consecutive-free order
            };
            let inst = reduce_mis_to_csop(&g);
            let w = max_independent_set(&g);
            let n = g.len() / 2;
            let u_star = inst.solve_exact();
            let back = csop_solution_to_mis(&g, &inst.normalize(&u_star));
            assert_eq!(u_star.len(), 5 * n + w.len());
            assert_eq!(back.len(), w.len());
            println!(
                "{nodes:>6} {seed:>6} {:>9} {:>6} {:>6} {:>8} {:>9}",
                inst.universe(),
                w.len(),
                5 * n,
                u_star.len(),
                5 * n + w.len()
            );
        }
    }
    println!("\nall correspondences hold: approximating CSoP approximates 3-MIS,");
    println!("so CSR is MAX-SNP hard (Theorem 2 + Lemma 1 + Theorem 1).");
}
