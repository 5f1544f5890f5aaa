//! Experiment: batch-solving throughput and the workspace-reuse
//! kernel ablation. Emits machine-readable `BENCH_throughput.json` so
//! the perf trajectory across PRs has data points.
//!
//! ```sh
//! cargo run --release -p fragalign-bench --bin exp_throughput          # full run
//! cargo run --release -p fragalign-bench --bin exp_throughput -- --smoke
//! ```
//!
//! Three measurements. The batch runs on the ambient rayon pool — real
//! threads since the shim rebuild, so `instances/sec` here reflects
//! whatever parallelism the host offers (the dedicated thread-scaling
//! story lives in `exp_speedup` / `BENCH_speedup.json`):
//!
//! 1. **pipeline stages** — generate a batch, solve it with pooled
//!    workspaces, verify it, and time each stage;
//! 2. **kernel ablation** — the same site-pair `MS` workload through
//!    `DpWorkspace::ms_words` with a *fresh* workspace per call (every
//!    fill re-allocates its rows and reversed-word scratch) and with
//!    one *warm* workspace. The ratio isolates pure buffer reuse;
//! 3. **allocations proxy** — oracle `dp_fills` vs `dp_reallocs`
//!    (buffer growth events) over every interval table of one
//!    instance: the pooled workspace grows a bounded number of times,
//!    not once per fill.

use fragalign::align::{DpWorkspace, ScoreOracle};
use fragalign::model::{Instance, Sym};
use fragalign::prelude::*;
use fragalign::sim::gen_batch;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Config {
    instances: usize,
    regions: usize,
    frags: usize,
    algo: String,
    kernel_repeats: usize,
    smoke: bool,
    /// Width of the ambient rayon pool the batch stages ran on.
    pool_threads: usize,
}

#[derive(Serialize)]
struct Stage {
    name: String,
    seconds: f64,
}

#[derive(Serialize)]
struct Kernel {
    site_pairs: usize,
    repeats: usize,
    /// Fresh workspace per call (allocating).
    seconds_fresh_workspace: f64,
    /// One warm workspace (non-allocating).
    seconds_warm_workspace: f64,
    /// Pure buffer-reuse effect: fresh vs warm workspace.
    speedup_vs_fresh_workspace: f64,
}

#[derive(Serialize)]
struct AllocProxy {
    dp_fills: u64,
    dp_reallocs: u64,
}

#[derive(Serialize)]
struct Report {
    config: Config,
    stages: Vec<Stage>,
    instances_per_sec: f64,
    kernel: Kernel,
    alloc_proxy: AllocProxy,
}

/// All whole-fragment vs whole-fragment word pairs of a batch — the
/// shape of the oracle's site-pair workload. Each pair keeps the index
/// of the instance whose σ scores it.
fn site_pair_words(instances: &[Instance]) -> Vec<(usize, Vec<Sym>, Vec<Sym>)> {
    let mut out = Vec::new();
    for (idx, inst) in instances.iter().enumerate() {
        for h in &inst.h {
            for m in &inst.m {
                out.push((idx, h.regions.clone(), m.regions.clone()));
            }
        }
    }
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_instances, regions, frags, kernel_repeats) = if smoke {
        (4, 12, 3, 20)
    } else {
        (32, 24, 4, 200)
    };
    let algo = "csr";

    println!("exp_throughput: batch pipeline ({n_instances} instances, {regions} regions, {frags} frags, algo {algo}, smoke={smoke})");

    // Stage 1: generate.
    let t0 = Instant::now();
    let sims = gen_batch(
        &SimConfig {
            regions,
            h_frags: frags,
            m_frags: frags,
            seed: 2002,
            ..SimConfig::default()
        },
        n_instances,
    );
    let gen_s = t0.elapsed().as_secs_f64();
    let instances: Vec<Instance> = sims.into_iter().map(|s| s.instance).collect();

    // Warm-up: one untimed solve so the timed stage does not pay the
    // first-touch cost (page faults, branch history).
    let opts = BatchOptions::new(algo);
    let _ = solve_batch_reports(&instances[..n_instances.min(2)], &opts);

    // Stage 2: solve with pooled workspaces.
    let t0 = Instant::now();
    let solved = solve_batch_reports(&instances, &opts).expect("csr is registered");
    let solve_s = t0.elapsed().as_secs_f64();

    // Stage 3: verify (consistency over the whole batch).
    let t0 = Instant::now();
    for (inst, (sol, _)) in instances.iter().zip(&solved) {
        check_consistency(inst, &sol.matches).expect("batch solutions are consistent");
    }
    let verify_s = t0.elapsed().as_secs_f64();

    // Kernel ablation: the identical MS workload through a fresh and a
    // warm workspace; both must agree bit-for-bit.
    let pairs = site_pair_words(&instances);
    let t0 = Instant::now();
    let mut acc_fresh = 0i64;
    for _ in 0..kernel_repeats {
        for (idx, u, v) in &pairs {
            acc_fresh += DpWorkspace::new().ms_words(&instances[*idx].sigma, u, v).0;
        }
    }
    let kernel_fresh_s = t0.elapsed().as_secs_f64();
    let mut ws = DpWorkspace::new();
    let t0 = Instant::now();
    let mut acc_warm = 0i64;
    for _ in 0..kernel_repeats {
        for (idx, u, v) in &pairs {
            acc_warm += ws.ms_words(&instances[*idx].sigma, u, v).0;
        }
    }
    let kernel_warm_s = t0.elapsed().as_secs_f64();
    assert_eq!(acc_fresh, acc_warm, "fresh/warm workspaces must agree");

    // Allocations proxy: fill every interval table of one instance
    // through one pooled oracle.
    let probe = &instances[0];
    let oracle = ScoreOracle::new(probe);
    for h in probe.frag_ids(Species::H) {
        for m in probe.frag_ids(Species::M) {
            let _ = oracle.interval_table(h, m);
            let _ = oracle.interval_table(m, h);
        }
    }
    let stats = oracle.stats.snapshot();
    let alloc_proxy = AllocProxy {
        dp_fills: stats.dp_fills,
        dp_reallocs: stats.dp_reallocs,
    };

    let report = Report {
        config: Config {
            instances: n_instances,
            regions,
            frags,
            algo: algo.to_string(),
            kernel_repeats,
            smoke,
            pool_threads: fragalign::par::current_threads(),
        },
        stages: vec![
            Stage {
                name: "gen".into(),
                seconds: gen_s,
            },
            Stage {
                name: "solve".into(),
                seconds: solve_s,
            },
            Stage {
                name: "verify".into(),
                seconds: verify_s,
            },
        ],
        instances_per_sec: n_instances as f64 / solve_s.max(1e-9),
        kernel: Kernel {
            site_pairs: pairs.len(),
            repeats: kernel_repeats,
            seconds_fresh_workspace: kernel_fresh_s,
            seconds_warm_workspace: kernel_warm_s,
            speedup_vs_fresh_workspace: kernel_fresh_s / kernel_warm_s.max(1e-9),
        },
        alloc_proxy,
    };

    println!("stages: gen {gen_s:.3}s, solve {solve_s:.3}s, verify {verify_s:.3}s");
    println!("throughput: {:.1} inst/s", report.instances_per_sec);
    println!(
        "kernel MS workload ({} pairs x {}): {:.3}s fresh ws, {:.3}s warm ws ({:.2}x)",
        report.kernel.site_pairs,
        report.kernel.repeats,
        kernel_fresh_s,
        kernel_warm_s,
        report.kernel.speedup_vs_fresh_workspace
    );
    println!(
        "alloc proxy (one instance, all interval tables): {} fills / {} reallocs",
        report.alloc_proxy.dp_fills, report.alloc_proxy.dp_reallocs
    );

    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_throughput.json", json).expect("write BENCH_throughput.json");
    println!("wrote BENCH_throughput.json");
}
