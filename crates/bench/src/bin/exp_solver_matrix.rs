//! Experiment: the solver matrix — every registered solver over a
//! seeded `sim` batch grid, scored against the exhaustive optimum
//! where it is reachable. Emits machine-readable
//! `BENCH_solver_matrix.json`: one row per registry entry with its
//! empirical score ratio vs. exact and its throughput, so solver
//! regressions (quality or speed) show up as data across PRs.
//!
//! ```sh
//! cargo run --release -p fragalign-bench --bin exp_solver_matrix           # full grid
//! cargo run --release -p fragalign-bench --bin exp_solver_matrix -- --smoke
//! ```
//!
//! The grid mixes multi-fragment instances (where `one-csr` is
//! skipped) with single-M instances (where it runs), so the skip
//! accounting exercises the registry's `supports` path too.

use fragalign::align::DpWorkspace;
use fragalign::model::{Instance, Score};
use fragalign::prelude::*;
use fragalign::sim::gen_batch;
use fragalign::sim::{soup_batch, torn_batch, SoupConfig, TornConfig};
use serde::Serialize;
use std::time::Instant;

#[derive(Clone, Copy, Serialize)]
struct GridCell {
    /// Workload channel: `clean` (the simulator), or the adversarial
    /// `torn` / `soup` generators (`m_frags` is emergent there and
    /// recorded as 0).
    channel: &'static str,
    regions: usize,
    h_frags: usize,
    m_frags: usize,
    instances: usize,
    seed: u64,
}

#[derive(Serialize)]
struct Row {
    solver: String,
    paper: String,
    ratio: String,
    solved: usize,
    skipped: usize,
    total_score: Score,
    /// `Σ score / Σ exact` over the instances both this solver and
    /// the exhaustive solver handled. `None` when that set is empty.
    score_ratio_vs_exact: Option<f64>,
    instances_per_sec: f64,
    wall_secs: f64,
}

#[derive(Serialize)]
struct Report {
    smoke: bool,
    grid: Vec<GridCell>,
    rows: Vec<Row>,
}

fn grid_instances(grid: &[GridCell]) -> Vec<Instance> {
    let mut out = Vec::new();
    for cell in grid {
        let sims = match cell.channel {
            "clean" => gen_batch(
                &SimConfig {
                    regions: cell.regions,
                    h_frags: cell.h_frags,
                    m_frags: cell.m_frags,
                    seed: cell.seed,
                    ..SimConfig::default()
                },
                cell.instances,
            ),
            "torn" => torn_batch(
                &TornConfig {
                    regions: cell.regions,
                    h_frags: cell.h_frags,
                    seed: cell.seed,
                    ..TornConfig::default()
                },
                cell.instances,
            ),
            "soup" => soup_batch(
                &SoupConfig {
                    regions: cell.regions,
                    h_frags: cell.h_frags,
                    seed: cell.seed,
                    ..SoupConfig::default()
                },
                cell.instances,
            ),
            other => panic!("unknown grid channel {other}"),
        };
        out.extend(sims.into_iter().map(|s| s.instance));
    }
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let grid: Vec<GridCell> = if smoke {
        vec![
            GridCell {
                channel: "clean",
                regions: 8,
                h_frags: 2,
                m_frags: 2,
                instances: 3,
                seed: 1002,
            },
            GridCell {
                channel: "clean",
                regions: 8,
                h_frags: 3,
                m_frags: 1,
                instances: 3,
                seed: 2002,
            },
            GridCell {
                channel: "torn",
                regions: 10,
                h_frags: 2,
                m_frags: 0,
                instances: 2,
                seed: 7001,
            },
            GridCell {
                channel: "soup",
                regions: 10,
                h_frags: 2,
                m_frags: 0,
                instances: 2,
                seed: 7002,
            },
        ]
    } else {
        vec![
            GridCell {
                channel: "clean",
                regions: 8,
                h_frags: 2,
                m_frags: 2,
                instances: 8,
                seed: 1002,
            },
            GridCell {
                channel: "clean",
                regions: 10,
                h_frags: 3,
                m_frags: 3,
                instances: 8,
                seed: 1003,
            },
            GridCell {
                channel: "clean",
                regions: 8,
                h_frags: 3,
                m_frags: 1,
                instances: 8,
                seed: 2002,
            },
            GridCell {
                channel: "clean",
                regions: 14,
                h_frags: 4,
                m_frags: 2,
                instances: 4,
                seed: 3002,
            },
            GridCell {
                channel: "torn",
                regions: 12,
                h_frags: 3,
                m_frags: 0,
                instances: 4,
                seed: 7001,
            },
            GridCell {
                channel: "soup",
                regions: 12,
                h_frags: 2,
                m_frags: 0,
                instances: 4,
                seed: 7002,
            },
        ]
    };
    let instances = grid_instances(&grid);
    let registry = SolverRegistry::global();
    let opts = EngineOptions::default();
    println!(
        "exp_solver_matrix: {} solvers x {} instances (smoke={smoke})",
        registry.specs().len(),
        instances.len()
    );

    // Per-solver, per-instance scores (None = solver skipped it).
    let mut scores: Vec<Vec<Option<Score>>> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    for spec in registry.specs() {
        let solver = spec.build();
        let batch_opts = BatchOptions::new(spec.name);
        let mut per_instance = Vec::with_capacity(instances.len());
        let mut ws = DpWorkspace::new();
        let mut solved = 0usize;
        let mut skipped = 0usize;
        let mut total_score: Score = 0;
        let start = Instant::now();
        for inst in &instances {
            if solver.supports(inst, &opts).is_err() {
                skipped += 1;
                per_instance.push(None);
                continue;
            }
            let (solution, _) =
                solve_single_traced(inst, &batch_opts, &mut ws, TraceHandle::disabled())
                    .expect("supported instances solve");
            solved += 1;
            total_score += solution.score;
            per_instance.push(Some(solution.score));
        }
        let wall_secs = start.elapsed().as_secs_f64();
        println!(
            "  {:<10} solved {solved:>2} skipped {skipped:>2} total {total_score:>6} in {wall_secs:.3}s",
            spec.name
        );
        rows.push(Row {
            solver: spec.name.to_owned(),
            paper: spec.paper.to_owned(),
            ratio: spec.ratio.to_owned(),
            solved,
            skipped,
            total_score,
            score_ratio_vs_exact: None, // filled below once exact's row exists
            instances_per_sec: solved as f64 / wall_secs.max(1e-9),
            wall_secs,
        });
        scores.push(per_instance);
    }

    // Empirical quality: each solver against the optimum, over the
    // instances both handled.
    let exact_idx = registry.position("exact").expect("exact is registered");
    let exact_scores = scores[exact_idx].clone();
    for (row, per_instance) in rows.iter_mut().zip(&scores) {
        let (mut mine, mut best) = (0i64, 0i64);
        for (s, e) in per_instance.iter().zip(&exact_scores) {
            if let (Some(s), Some(e)) = (s, e) {
                mine += s;
                best += e;
            }
        }
        row.score_ratio_vs_exact = (best > 0).then(|| mine as f64 / best as f64);
        if let Some(r) = row.score_ratio_vs_exact {
            println!("  {:<10} score ratio vs exact: {r:.3}", row.solver);
            assert!(
                r <= 1.0 + 1e-9,
                "{}: no solver may beat the optimum",
                row.solver
            );
        }
    }

    let report = Report { smoke, grid, rows };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_solver_matrix.json", json).expect("write BENCH_solver_matrix.json");
    println!("wrote BENCH_solver_matrix.json");
}
