//! Experiment: chain-then-DP vs the pure DP family on large `sim`
//! instances. The chaining tier exists to open region counts the DP
//! solvers cannot touch; this bin quantifies both sides of that trade
//! — throughput (instances/sec) and the score it gives up — and emits
//! machine-readable `BENCH_chain.json` so the speedup and the score
//! ratio are tracked as data across PRs.
//!
//! ```sh
//! cargo run --release -p fragalign-bench --bin exp_chain            # full grid
//! cargo run --release -p fragalign-bench --bin exp_chain -- --smoke
//! ```
//!
//! In the full grid the chain solver must beat the best pure-DP rival
//! by at least 5x instances/sec (asserted); the smoke grid only
//! exercises the plumbing for CI.

use fragalign::align::DpWorkspace;
use fragalign::model::{Instance, Score};
use fragalign::prelude::*;
use fragalign::sim::gen_batch;
use serde::Serialize;
use std::time::Instant;

/// The chaining tier under test, then its pure-DP rivals: the
/// factor-4 algorithm and the greedy baseline, the one-shot solvers
/// that pay full DP over the whole concatenation.
const SOLVERS: &[&str] = &["chain", "four", "greedy"];

#[derive(Clone, Copy, Serialize)]
struct GridCell {
    regions: usize,
    h_frags: usize,
    m_frags: usize,
    instances: usize,
    seed: u64,
}

#[derive(Serialize)]
struct Row {
    solver: String,
    solved: usize,
    total_score: Score,
    /// `Σ score / Σ best rival score`; 1.0 for the best rival itself.
    score_ratio_vs_best_rival: f64,
    instances_per_sec: f64,
    wall_secs: f64,
    dp_fills: u64,
}

#[derive(Serialize)]
struct Report {
    smoke: bool,
    grid: Vec<GridCell>,
    rows: Vec<Row>,
    /// chain instances/sec over the best rival's instances/sec.
    speedup_vs_best_rival: f64,
}

fn grid_instances(grid: &[GridCell]) -> Vec<Instance> {
    let mut out = Vec::new();
    for cell in grid {
        out.extend(
            gen_batch(
                &SimConfig {
                    regions: cell.regions,
                    h_frags: cell.h_frags,
                    m_frags: cell.m_frags,
                    seed: cell.seed,
                    ..SimConfig::default()
                },
                cell.instances,
            )
            .into_iter()
            .map(|s| s.instance),
        );
    }
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let grid: Vec<GridCell> = if smoke {
        vec![GridCell {
            regions: 48,
            h_frags: 4,
            m_frags: 4,
            instances: 2,
            seed: 6001,
        }]
    } else {
        // 4x-15x past the `ExactLimits` region gate. The greedy
        // baseline's cost explodes past ~600 regions (tens of seconds
        // per instance), which bounds the grid; chain stays in
        // milliseconds well beyond it.
        vec![
            GridCell {
                regions: 300,
                h_frags: 6,
                m_frags: 6,
                instances: 3,
                seed: 6002,
            },
            GridCell {
                regions: 600,
                h_frags: 8,
                m_frags: 8,
                instances: 2,
                seed: 6003,
            },
        ]
    };
    let instances = grid_instances(&grid);
    println!(
        "exp_chain: {} solvers x {} instances (smoke={smoke})",
        SOLVERS.len(),
        instances.len()
    );

    struct Raw {
        name: &'static str,
        total_score: Score,
        solved: usize,
        wall_secs: f64,
        dp_fills: u64,
    }
    let mut raws: Vec<Raw> = Vec::new();
    for &name in SOLVERS {
        let opts = BatchOptions::new(name);
        let mut ws = DpWorkspace::new();
        let mut total_score: Score = 0;
        let mut dp_fills = 0u64;
        let start = Instant::now();
        for inst in &instances {
            let (solution, report) =
                solve_single_traced(inst, &opts, &mut ws, TraceHandle::disabled())
                    .expect("every solver here supports every instance");
            total_score += solution.score;
            dp_fills += report.dp_fills;
        }
        let wall_secs = start.elapsed().as_secs_f64();
        println!(
            "  {name:<6} total {total_score:>8} in {wall_secs:>8.3}s ({:.2} inst/s, {dp_fills} DP fills)",
            instances.len() as f64 / wall_secs.max(1e-9)
        );
        raws.push(Raw {
            name,
            total_score,
            solved: instances.len(),
            wall_secs,
            dp_fills,
        });
    }

    let best_rival_score = raws
        .iter()
        .filter(|r| r.name != "chain")
        .map(|r| r.total_score)
        .max()
        .expect("at least one rival");
    let rival_secs = |r: &Raw| r.solved as f64 / r.wall_secs.max(1e-9);
    let best_rival_rate = raws
        .iter()
        .filter(|r| r.name != "chain")
        .map(rival_secs)
        .fold(0.0f64, f64::max);
    let chain = raws.iter().find(|r| r.name == "chain").expect("chain ran");
    let speedup = rival_secs(chain) / best_rival_rate.max(1e-9);
    let ratio = chain.total_score as f64 / best_rival_score.max(1) as f64;
    println!("chain speedup vs best DP rival: {speedup:.1}x at score ratio {ratio:.3}");
    if !smoke {
        assert!(
            speedup >= 5.0,
            "chain must beat the pure DP family by >= 5x instances/sec (got {speedup:.1}x)"
        );
    }

    let rows: Vec<Row> = raws
        .iter()
        .map(|r| Row {
            solver: r.name.to_owned(),
            solved: r.solved,
            total_score: r.total_score,
            score_ratio_vs_best_rival: r.total_score as f64 / best_rival_score.max(1) as f64,
            instances_per_sec: rival_secs(r),
            wall_secs: r.wall_secs,
            dp_fills: r.dp_fills,
        })
        .collect();
    let report = Report {
        smoke,
        grid,
        rows,
        speedup_vs_best_rival: speedup,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_chain.json", json).expect("write BENCH_chain.json");
    println!("wrote BENCH_chain.json");
}
