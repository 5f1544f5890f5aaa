//! Integration tests for the hardness machinery: Lemma 1 (UCSR),
//! Theorem 2 (CSoP), Theorem 3 (concatenation), and the ISP substrate
//! guarantee feeding Corollary 1.

use fragalign::core::csop::{csop_solution_to_mis, mis_to_csop_solution, reduce_mis_to_csop};
use fragalign::core::ucsr::{map_solution_back, map_solution_forward, pairs_score, reduce_to_ucsr};
use fragalign::graph::{dirac_relabel, is_independent_set, max_independent_set, random_regular};
use fragalign::isp::{solve_exact as isp_exact, solve_tpa, Interval, IspInstance};
use fragalign::model::Sym;
use fragalign::prelude::*;

#[test]
fn lemma1_roundtrip_on_simulated_instances() {
    for seed in 0..3u64 {
        let sim = fragalign::sim::generate(&SimConfig {
            regions: 5,
            h_frags: 2,
            m_frags: 2,
            loss_rate: 0.0,
            shuffles: 0,
            spurious: 1,
            seed,
            ..SimConfig::default()
        });
        let inst = &sim.instance;
        for eps in [1.0, 0.5] {
            let red = reduce_to_ucsr(inst, eps);
            // Use the solver's aligned pairs as the CSR solution.
            let res = csr_improve(&ScoreOracle::new(inst), false);
            let layout = LayoutBuilder::new(inst, &DpAligner)
                .layout(&res.matches)
                .unwrap();
            let mut pairs: Vec<(Sym, Sym)> = Vec::new();
            for col in &layout.columns {
                if let (Some(hc), Some(mc)) = (col.h, col.m) {
                    let h_rev = layout.placement(hc.0).unwrap().reversed;
                    let m_rev = layout.placement(mc.0).unwrap().reversed;
                    let a = fragalign::model::ConjecturePair::cell_sym(inst, hc, h_rev);
                    let b = fragalign::model::ConjecturePair::cell_sym(inst, mc, m_rev);
                    if inst.sigma.score(a, b) > 0 {
                        pairs.push((a, b));
                    }
                }
            }
            let csr_score = pairs_score(inst, &pairs);
            let f = map_solution_forward(&red, &pairs);
            let u_score = red
                .ucsr
                .validate(&f)
                .unwrap_or_else(|e| panic!("seed {seed} eps {eps}: {e}"));
            assert_eq!(u_score, csr_score * red.s as i64, "Property 2, seed {seed}");

            let back = map_solution_back(&red, inst, &f);
            let back_score = pairs_score(inst, &back);
            assert!(
                back_score as f64 >= (1.0 - eps) * csr_score as f64,
                "Property 3, seed {seed}: back {back_score} vs {csr_score}"
            );
        }
    }
}

#[test]
fn theorem2_exact_correspondence() {
    for (nodes, seed) in [(8usize, 1u64), (10, 2)] {
        let g0 = random_regular(nodes, 3, seed);
        let (g, _) = dirac_relabel(&g0, seed);
        let inst = reduce_mis_to_csop(&g);
        let w = max_independent_set(&g);
        let n = g.len() / 2;
        let u = mis_to_csop_solution(&g, &w);
        assert!(inst.is_feasible(&u));
        assert_eq!(u.len(), 5 * n + w.len());
        let u_star = inst.solve_exact();
        assert_eq!(u_star.len(), 5 * n + w.len(), "nodes {nodes} seed {seed}");
        let w_back = csop_solution_to_mis(&g, &inst.normalize(&u_star));
        assert!(is_independent_set(&g, &w_back));
        assert_eq!(w_back.len(), w.len());
    }
}

#[test]
fn theorem3_inequality_on_small_instances() {
    // Opt(H, M′) + Opt(M, H′) ≥ Opt(H, M), checked with exact solvers.
    for seed in 0..3u64 {
        let sim = fragalign::sim::generate(&SimConfig {
            regions: 8,
            h_frags: 2,
            m_frags: 2,
            loss_rate: 0.0,
            shuffles: 1,
            spurious: 1,
            seed,
            ..SimConfig::default()
        });
        let inst = &sim.instance;
        let opt = solve_exact(inst, ExactLimits::default()).score;

        let concat_m = Instance {
            h: inst.h.clone(),
            m: vec![inst.concat_species(Species::M)],
            sigma: inst.sigma.clone(),
            alphabet: inst.alphabet.clone(),
        };
        let swapped = inst.swapped();
        let concat_h = Instance {
            h: swapped.h.clone(),
            m: vec![swapped.concat_species(Species::M)],
            sigma: swapped.sigma.clone(),
            alphabet: swapped.alphabet.clone(),
        };
        let opt_hm = solve_exact(
            &concat_m,
            ExactLimits {
                max_frags: 3,
                max_regions: 40,
            },
        )
        .score;
        let opt_mh = solve_exact(
            &concat_h,
            ExactLimits {
                max_frags: 3,
                max_regions: 40,
            },
        )
        .score;
        assert!(
            opt_hm + opt_mh >= opt,
            "seed {seed}: {opt_hm} + {opt_mh} < {opt}"
        );
    }
}

#[test]
fn tpa_ratio_two_on_random_isp() {
    let mut state = 0xFEEDFACEu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for case in 0..60 {
        let jobs = 1 + (next() % 5) as usize;
        let mut inst = IspInstance::new(jobs);
        let cands = 3 + (next() % 14) as usize;
        for tag in 0..cands {
            let job = (next() % jobs as u64) as usize;
            let lo = (next() % 20) as i64;
            let len = 1 + (next() % 6) as i64;
            let profit = 1 + (next() % 50) as i64;
            inst.push(job, Interval::new(lo, lo + len), profit, tag);
        }
        let tpa = solve_tpa(&inst);
        let exact = isp_exact(&inst);
        inst.validate(&tpa).unwrap();
        assert!(
            2 * tpa.profit() >= exact.profit(),
            "case {case}: tpa {} exact {}",
            tpa.profit(),
            exact.profit()
        );
    }
}

#[test]
fn one_csr_via_isp_respects_ratio() {
    for seed in 0..4u64 {
        let sim = fragalign::sim::generate(&SimConfig {
            regions: 10,
            h_frags: 3,
            m_frags: 1,
            loss_rate: 0.1,
            shuffles: 1,
            spurious: 2,
            seed,
            ..SimConfig::default()
        });
        let inst = &sim.instance;
        let tpa = solve_one_csr(&ScoreOracle::new(inst)).total_score();
        let exact = fragalign::core::one_csr::solve_one_csr_exact(inst).total_score();
        assert!(exact >= tpa, "seed {seed}");
        assert!(2 * tpa >= exact, "seed {seed}: {tpa} vs {exact}");
    }
}
