//! Batch pipeline determinism: `solve_batch_reports` must return
//! identical solutions for a 1-thread pool, an N-thread pool, and
//! per-instance sequential solves — per-worker workspaces and
//! shared-nothing oracles are scratch, never signal. Solvers resolve
//! through the registry, so the same loop covers every registered
//! name.

use fragalign::align::DpWorkspace;
use fragalign::model::Instance;
use fragalign::par::with_threads;
use fragalign::prelude::*;
use fragalign::sim::gen_batch;

/// The batch's solutions, telemetry dropped.
fn batch_solutions(instances: &[Instance], opts: &BatchOptions) -> Vec<BatchSolution> {
    let runs = solve_batch_reports(instances, opts).unwrap();
    runs.into_iter().map(|(solution, _)| solution).collect()
}

/// One instance through a caller-owned workspace.
fn single_solution(inst: &Instance, opts: &BatchOptions, ws: &mut DpWorkspace) -> BatchSolution {
    solve_single_traced(inst, opts, ws, TraceHandle::disabled())
        .unwrap()
        .0
}

fn batch_of_16() -> Vec<Instance> {
    gen_batch(
        &SimConfig {
            regions: 14,
            h_frags: 3,
            m_frags: 3,
            loss_rate: 0.15,
            shuffles: 2,
            spurious: 3,
            seed: 1234,
            ..SimConfig::default()
        },
        16,
    )
    .into_iter()
    .map(|s| s.instance)
    .collect()
}

#[test]
fn batch_is_deterministic_across_thread_counts() {
    let instances = batch_of_16();
    for name in ["csr", "four"] {
        let opts = BatchOptions::new(name);
        let insts_1 = instances.clone();
        let opts_1 = opts.clone();
        let (single_thread, _) = with_threads(1, move || batch_solutions(&insts_1, &opts_1));
        let insts_n = instances.clone();
        let opts_n = opts.clone();
        let (many_threads, _) = with_threads(8, move || batch_solutions(&insts_n, &opts_n));
        assert_eq!(
            single_thread, many_threads,
            "{name}: thread count changed batch results"
        );

        // ... and both match plain per-instance sequential solves with
        // one long-lived workspace.
        let mut ws = DpWorkspace::new();
        let sequential: Vec<BatchSolution> = instances
            .iter()
            .map(|inst| single_solution(inst, &opts, &mut ws))
            .collect();
        assert_eq!(single_thread, sequential, "{name}: batch != sequential");

        // Solutions are consistent and scores match their match sets.
        for (inst, sol) in instances.iter().zip(&single_thread) {
            check_consistency(inst, &sol.matches).unwrap();
            assert_eq!(sol.score, sol.matches.total_score());
        }
    }
}

#[test]
fn batch_preserves_input_order() {
    // Seeds differ per instance, so equal outputs in order imply the
    // pipeline did not shuffle results.
    let instances = batch_of_16();
    let batch = batch_solutions(&instances, &BatchOptions::new("greedy"));
    assert_eq!(batch.len(), instances.len());
    let mut ws = DpWorkspace::new();
    for (inst, sol) in instances.iter().zip(&batch) {
        let lone = single_solution(inst, &BatchOptions::new("greedy"), &mut ws);
        assert_eq!(sol, &lone);
    }
}

#[test]
fn batch_reports_carry_uniform_telemetry() {
    let instances: Vec<Instance> = batch_of_16().into_iter().take(4).collect();
    let reports = solve_batch_reports(&instances, &BatchOptions::new("csr")).unwrap();
    assert_eq!(reports.len(), instances.len());
    for (sol, report) in &reports {
        assert_eq!(report.solver, "csr");
        assert_eq!(report.score, sol.score);
        assert_eq!(report.matches, sol.matches.len());
        assert!(report.dp_fills > 0, "oracle work must be visible");
    }
}
