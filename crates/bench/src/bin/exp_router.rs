//! Experiment: fit the shape → solver router. Sweeps every base
//! solver (the `portfolio` and `auto` meta-solvers sit out) over a
//! grid mixing the clean simulator with the adversarial channels
//! (torn-paper, read-soup) and the degenerate shapes (mega-fragment,
//! all-singletons, σ-desert), then derives the per-cell winner the
//! shipped [`Router::default`] table should agree with:
//!
//! * the **reference** score per instance is `exact` where its limits
//!   admit the instance, else the best score any solver reached;
//! * a solver is a **candidate** for a cell when it solved every
//!   instance of the cell at a score ratio ≥ 0.9 vs the reference —
//!   `exact` itself sits out (its acceptance limits make it a
//!   referee, not a route target);
//! * walls inside the cell's **tie window** — `max(1.5x the fastest
//!   candidate, 5 ms per instance)` — count as equal: below the
//!   absolute budget a solve is operationally free for the serving
//!   layer, and microsecond deltas there are noise;
//! * the **learned winner** is the highest-scoring candidate inside
//!   the window, exact score ties resolving to the earlier registry
//!   entry (stronger guarantees beat equal measurements).
//!
//! The emitted `BENCH_router.json` carries per-cell features,
//! per-solver stats, the learned winner, the shipped table's choice
//! and their agreement — plus the routed policy over the whole grid:
//! its aggregate score ratio must hold ≥ 0.9 against the references
//! (asserted, so CI fails if the router rots). Its wall time is
//! reported as data and checked against nothing: one run is too
//! short to time.
//!
//! ```sh
//! cargo run --release -p fragalign-bench --bin exp_router            # full grid
//! cargo run --release -p fragalign-bench --bin exp_router -- --smoke
//! ```

use fragalign::align::DpWorkspace;
use fragalign::model::{Instance, Score};
use fragalign::prelude::*;
use fragalign::sim::SimInstance;
use serde::Serialize;
use std::time::Instant;

/// Quality floor: a cell winner must hold this score ratio vs the
/// reference.
const FLOOR: f64 = 0.9;
/// Walls within this factor of the cell's fastest candidate count as
/// ties.
const TIE_WINDOW: f64 = 1.5;
/// Absolute per-instance wall under which a solve is operationally
/// free, in seconds: below it, quality decides.
const FREE_SECS_PER_INSTANCE: f64 = 0.005;

#[derive(Serialize)]
struct SolverCellStats {
    solver: String,
    solved: usize,
    skipped: usize,
    total_score: Score,
    /// `Σ score / Σ reference` over the instances this solver
    /// handled; `None` when it handled none (or the reference is 0).
    score_ratio: Option<f64>,
    wall_secs: f64,
    /// Solved the whole cell at `score_ratio ≥ FLOOR`.
    candidate: bool,
}

#[derive(Serialize)]
struct CellReport {
    channel: String,
    label: String,
    instances: usize,
    /// Features of the cell's first instance (cells are shape-
    /// homogeneous by construction).
    features: InstanceFeatures,
    /// `"exact"` when every instance of the cell fits the exact
    /// limits, `"best-of-sweep"` otherwise.
    reference: String,
    learned_winner: String,
    shipped_choice: String,
    agrees: bool,
    solvers: Vec<SolverCellStats>,
}

#[derive(Serialize)]
struct PolicySummary {
    total_score: Score,
    score_ratio: f64,
    wall_secs: f64,
    instances_per_sec: f64,
}

#[derive(Serialize)]
struct Report {
    smoke: bool,
    floor: f64,
    tie_window: f64,
    free_secs_per_instance: f64,
    /// Fraction of cells where the shipped table picked the learned
    /// winner.
    agreement: f64,
    routed: PolicySummary,
    cells: Vec<CellReport>,
}

struct Cell {
    channel: &'static str,
    label: String,
    instances: Vec<Instance>,
}

fn strip(sims: Vec<SimInstance>) -> Vec<Instance> {
    sims.into_iter().map(|s| s.instance).collect()
}

fn clean(label: &str, regions: usize, h: usize, m: usize, n: usize, seed: u64) -> Cell {
    Cell {
        channel: "clean",
        label: label.to_owned(),
        instances: strip(gen_batch(
            &SimConfig {
                regions,
                h_frags: h,
                m_frags: m,
                seed,
                ..SimConfig::default()
            },
            n,
        )),
    }
}

fn degenerate(shape: DegenerateShape, label: &str, regions: usize, n: usize, seed: u64) -> Cell {
    Cell {
        channel: "degenerate",
        label: label.to_owned(),
        instances: (0..n)
            .map(|i| generate_degenerate(shape, regions, seed.wrapping_add(i as u64)).instance)
            .collect(),
    }
}

fn grid(smoke: bool) -> Vec<Cell> {
    let per_cell = if smoke { 2 } else { 4 };
    let mut cells = vec![
        clean("clean-small", 8, 2, 2, per_cell, 1002),
        clean("clean-single-m", 10, 3, 1, per_cell, 2002),
        clean("clean-medium", 16, 3, 3, per_cell, 1003),
        Cell {
            channel: "torn",
            label: "torn-default".to_owned(),
            instances: strip(torn_batch(&TornConfig::default(), per_cell)),
        },
        Cell {
            channel: "soup",
            label: "soup-default".to_owned(),
            instances: strip(soup_batch(&SoupConfig::default(), per_cell)),
        },
        degenerate(
            DegenerateShape::SigmaDesert,
            "sigma-desert",
            24,
            per_cell,
            40,
        ),
    ];
    if !smoke {
        cells.push(clean("clean-single-m-large", 40, 6, 1, 3, 2009));
        cells.push(clean("clean-genome-scale", 100, 5, 5, 2, 1009));
        cells.push(Cell {
            channel: "torn",
            label: "torn-shredded".to_owned(),
            instances: strip(torn_batch(
                &TornConfig {
                    regions: 48,
                    h_frags: 6,
                    tear_rate: 0.6,
                    dup_rate: 0.25,
                    seed: 7,
                    ..TornConfig::default()
                },
                3,
            )),
        });
        cells.push(Cell {
            channel: "soup",
            label: "soup-dense".to_owned(),
            instances: strip(soup_batch(
                &SoupConfig {
                    regions: 16,
                    read_len: 3,
                    coverage: 3.0,
                    seed: 11,
                    ..SoupConfig::default()
                },
                3,
            )),
        });
        cells.push(degenerate(
            DegenerateShape::MegaFragment,
            "mega-fragment",
            24,
            3,
            50,
        ));
        cells.push(degenerate(
            DegenerateShape::AllSingletons,
            "all-singletons",
            16,
            3,
            60,
        ));
    }
    cells
}

/// Score of the registered solver `name` on `inst`, solved through
/// the warm workspace `ws` with default engine options.
fn solve_score(name: &str, inst: &Instance, ws: &mut DpWorkspace) -> Score {
    solve_single_traced(inst, &BatchOptions::new(name), ws, TraceHandle::disabled())
        .expect("supported instances solve")
        .0
        .score
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cells = grid(smoke);
    let registry = SolverRegistry::global();
    let opts = EngineOptions::default();
    let router = Router::default();
    // The sweep covers base solvers only: the meta-solvers are
    // *consumers* of this table, not candidates for it.
    let swept: Vec<&SolverSpec> = registry
        .specs()
        .iter()
        .filter(|s| s.name != "portfolio" && s.name != "auto")
        .collect();
    let total_instances: usize = cells.iter().map(|c| c.instances.len()).sum();
    println!(
        "exp_router: {} solvers x {total_instances} instances over {} cells (smoke={smoke})",
        swept.len(),
        cells.len()
    );

    let mut cell_reports: Vec<CellReport> = Vec::new();
    let mut agreed = 0usize;
    // Per-instance routed assignments for the policy run.
    let mut routed_plan: Vec<(&Instance, &'static str)> = Vec::new();
    let mut references: Vec<Score> = Vec::new();

    for cell in &cells {
        // Sweep: per-solver scores and walls over the cell.
        let mut stats: Vec<SolverCellStats> = Vec::new();
        let mut scores: Vec<Vec<Option<Score>>> = Vec::new();
        for spec in &swept {
            let solver = spec.build();
            let mut ws = DpWorkspace::new();
            let mut per_instance = Vec::with_capacity(cell.instances.len());
            let mut solved = 0usize;
            let mut skipped = 0usize;
            let mut total_score: Score = 0;
            let start = Instant::now();
            for inst in &cell.instances {
                if solver.supports(inst).is_err() {
                    skipped += 1;
                    per_instance.push(None);
                    continue;
                }
                let score = solve_score(spec.name, inst, &mut ws);
                solved += 1;
                total_score += score;
                per_instance.push(Some(score));
            }
            stats.push(SolverCellStats {
                solver: spec.name.to_owned(),
                solved,
                skipped,
                total_score,
                score_ratio: None, // filled once the reference exists
                wall_secs: start.elapsed().as_secs_f64(),
                candidate: false,
            });
            scores.push(per_instance);
        }

        // Reference: exact where it ran, else best-over-sweep.
        let exact_col = swept.iter().position(|s| s.name == "exact").expect("exact");
        let cell_refs: Vec<Score> = (0..cell.instances.len())
            .map(|i| {
                scores[exact_col][i]
                    .unwrap_or_else(|| scores.iter().filter_map(|col| col[i]).max().unwrap_or(0))
            })
            .collect();
        let all_exact = scores[exact_col].iter().all(Option::is_some);
        for (stat, col) in stats.iter_mut().zip(&scores) {
            let (mut mine, mut theirs) = (0i64, 0i64);
            for (s, r) in col.iter().zip(&cell_refs) {
                if let Some(s) = s {
                    mine += s;
                    theirs += r;
                }
            }
            stat.score_ratio = (theirs > 0).then(|| mine as f64 / theirs as f64);
            stat.candidate = stat.solver != "exact"
                && stat.skipped == 0
                && stat
                    .score_ratio
                    .unwrap_or(if theirs == 0 { 1.0 } else { 0.0 })
                    >= FLOOR;
        }

        // Learned winner: highest score ratio inside the tie window
        // (absolute-or-relative; see module docs), exact ties to the
        // earlier registry entry.
        let fastest = stats
            .iter()
            .filter(|s| s.candidate)
            .map(|s| s.wall_secs)
            .fold(f64::INFINITY, f64::min);
        let window =
            (fastest * TIE_WINDOW).max(FREE_SECS_PER_INSTANCE * cell.instances.len() as f64);
        let mut best_in_window: Option<&SolverCellStats> = None;
        for s in stats
            .iter()
            .filter(|s| s.candidate && s.wall_secs <= window)
        {
            // Strict improvement only: exact score ties keep the
            // earlier registry entry.
            if best_in_window.is_none_or(|b| s.score_ratio > b.score_ratio) {
                best_in_window = Some(s);
            }
        }
        let learned = best_in_window
            .expect("csr always qualifies: it supports everything")
            .solver
            .clone();

        let shipped = router.route(&cell.instances[0], &opts);
        let agrees = shipped == learned;
        agreed += agrees as usize;
        println!(
            "  {:<18} learned {:<8} shipped {:<8} ({})",
            cell.label,
            learned,
            shipped,
            if agrees { "agree" } else { "DISAGREE" }
        );

        for inst in &cell.instances {
            routed_plan.push((inst, router.route(inst, &opts)));
        }
        references.extend(cell_refs);
        cell_reports.push(CellReport {
            channel: cell.channel.to_owned(),
            label: cell.label.clone(),
            instances: cell.instances.len(),
            features: InstanceFeatures::of(&cell.instances[0]),
            reference: if all_exact { "exact" } else { "best-of-sweep" }.to_owned(),
            learned_winner: learned,
            shipped_choice: shipped.to_owned(),
            agrees,
            solvers: stats,
        });
    }

    // The routed policy over the whole mixed grid.
    let routed = {
        let mut ws = DpWorkspace::new();
        let mut total: Score = 0;
        let start = Instant::now();
        for (inst, solver) in &routed_plan {
            total += solve_score(solver, inst, &mut ws);
        }
        let wall = start.elapsed().as_secs_f64();
        let ref_total: Score = references.iter().sum();
        PolicySummary {
            total_score: total,
            score_ratio: total as f64 / (ref_total as f64).max(1.0),
            wall_secs: wall,
            instances_per_sec: routed_plan.len() as f64 / wall.max(1e-9),
        }
    };
    let agreement = agreed as f64 / cells.len() as f64;
    println!(
        "routed policy: {:.1} inst/s at ratio {:.3}, table agreement {:.0}%",
        routed.instances_per_sec,
        routed.score_ratio,
        agreement * 100.0
    );
    assert!(
        routed.score_ratio >= FLOOR,
        "routed policy must hold a >= {FLOOR} aggregate score ratio (got {:.3})",
        routed.score_ratio
    );

    let report = Report {
        smoke,
        floor: FLOOR,
        tie_window: TIE_WINDOW,
        free_secs_per_instance: FREE_SECS_PER_INSTANCE,
        agreement,
        routed,
        cells: cell_reports,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_router.json", json).expect("write BENCH_router.json");
    println!("wrote BENCH_router.json");
}
