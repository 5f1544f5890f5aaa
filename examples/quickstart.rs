//! Quickstart: solve the paper's running example (Figs. 2, 4, 5).
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Builds the instance from the introduction — contigs `h1 = ⟨a,b,c⟩`,
//! `h2 = ⟨d⟩`, `m1 = ⟨s,t⟩`, `m2 = ⟨u,v⟩` with alignment scores
//! `σ(a,s)=4, σ(a,t)=1, σ(b,t^R)=3, σ(c,u)=5, σ(d,t)=σ(d,v^R)=2` —
//! runs every solver in the library on it, and prints the resulting
//! order/orient layout. The optimum deletes `b` and `t`, reverses
//! `h2`, and scores 4 + 5 + 2 = 11.

use fragalign::prelude::*;

fn main() {
    let instance = fragalign::model::instance::paper_example();
    println!("== instance ==");
    for (tag, frags) in [("H", &instance.h), ("M", &instance.m)] {
        for f in frags {
            let regions: Vec<String> = f
                .regions
                .iter()
                .map(|&s| instance.alphabet.render(s))
                .collect();
            println!("  {tag} {}: ⟨{}⟩", f.name, regions.join(", "));
        }
    }

    println!("\n== solvers ==");
    let exact = solve_exact(&instance, ExactLimits::default());
    println!("  exact optimum              : {}", exact.score);

    // One memoising score oracle serves every solver below.
    let oracle = ScoreOracle::new(&instance);
    let greedy = solve_greedy(&oracle);
    println!("  greedy heuristic           : {}", greedy.total_score());

    let four = solve_four_approx(&oracle);
    println!("  4-approx (Corollary 1)     : {}", four.total_score());

    let matching = border_matching_2approx(&oracle);
    println!("  matching (Lemma 9)         : {}", matching.total_score());

    let improve = csr_improve(&oracle, false);
    println!(
        "  CSR_Improve (3+ε, Thm 6)   : {} in {} rounds",
        improve.score, improve.rounds
    );

    println!("\n== layout of the CSR_Improve solution ==");
    let layout = LayoutBuilder::new(&instance, &DpAligner)
        .layout(&improve.matches)
        .expect("solver output is consistent");
    println!("{}", layout.render(&instance));
    println!(
        "\nlayout score: {} (paper's optimum: 11)",
        layout.score(&instance)
    );

    for (id, m) in improve.matches.iter() {
        println!(
            "  match #{id}: {:?} ~ {:?} ({:?}, score {})",
            m.h, m.m, m.orient, m.score
        );
    }
}
