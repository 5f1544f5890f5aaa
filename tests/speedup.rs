//! Release-gated wall-clock floors, both skipped under debug builds
//! (unoptimised timings are noise):
//!
//! - on real multi-core hardware the 4-thread batch run must beat the
//!   1-thread run by ≥ 1.5×, or the thread pool has regressed to shim
//!   theatre. Skipped on hosts with fewer than 4 cores (no speedup is
//!   physically available); CI's `speedup` job runs it in release on
//!   a multi-core runner;
//! - the profiled `P_score` kernel must average ≥ 2× the scalar
//!   reference over long words, or the query profile has stopped
//!   paying for itself. One core suffices.

use fragalign::align::{DpWorkspace, KernelMode};
use fragalign::model::Instance;
use fragalign::par::with_threads;
use fragalign::prelude::*;
use std::time::{Duration, Instant};

fn smoke_batch() -> Vec<Instance> {
    gen_batch(
        &SimConfig {
            regions: 14,
            h_frags: 3,
            m_frags: 3,
            loss_rate: 0.1,
            shuffles: 1,
            spurious: 2,
            seed: 4242,
            ..SimConfig::default()
        },
        16,
    )
    .into_iter()
    .map(|s| s.instance)
    .collect()
}

#[test]
fn four_threads_beat_one_by_1_5x_on_the_release_smoke_workload() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: speedup floors only hold for release builds");
        return;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipped: host has {cores} core(s); a 4-thread speedup needs 4");
        return;
    }
    let instances = smoke_batch();
    let opts = BatchOptions::new("csr");
    // Warm-up, then best-of-two per width to shave scheduler noise.
    let _ = solve_batch_reports(&instances, &opts).unwrap();
    let measure = |threads: usize| -> (Vec<BatchSolution>, Duration) {
        let mut best: Option<(Vec<BatchSolution>, Duration)> = None;
        for _ in 0..2 {
            let instances = &instances;
            let opts = opts.clone();
            let (runs, elapsed) = with_threads(threads, move || {
                solve_batch_reports(instances, &opts).unwrap()
            });
            let solutions: Vec<BatchSolution> = runs.into_iter().map(|(s, _)| s).collect();
            if best.as_ref().is_none_or(|(_, b)| elapsed < *b) {
                best = Some((solutions, elapsed));
            }
        }
        best.expect("measured at least once")
    };
    let (seq, t1) = measure(1);
    let (par, t4) = measure(4);
    assert_eq!(seq, par, "thread count changed batch results");
    let speedup = t1.as_secs_f64() / t4.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 1.5,
        "4-thread batch must be >= 1.5x the 1-thread run (got {speedup:.2}x: \
         {t1:?} -> {t4:?} on {cores} cores)"
    );
}

/// Deterministic xorshift stream for the kernel workload.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Stream(seed | 1)
    }

    /// Uniform value below `n`.
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// A random word of `len` symbols drawn from `syms` ids starting at
/// `base`.
fn word(seed: u64, len: usize, syms: u32, base: u32) -> Vec<Sym> {
    let mut s = Stream::new(seed);
    (0..len)
        .map(|_| Sym::fwd(base + s.below(syms as u64) as u32))
        .collect()
}

/// A σ over `syms` × `syms` forward pairs (H ids from 0, M ids from
/// 1000) where each pair scores 1–4 with probability `density_pct` %.
/// Density sets the profile build strategy (sparse scatter vs dense
/// probe), so it is an axis of the workload.
fn density_table(seed: u64, syms: u32, density_pct: u64) -> ScoreTable {
    let mut t = ScoreTable::new();
    let mut s = Stream::new(seed);
    for a in 0..syms {
        for b in 0..syms {
            if s.below(100) < density_pct {
                t.set(Sym::fwd(a), Sym::fwd(1000 + b), 1 + s.below(4) as i64);
            }
        }
    }
    t
}

/// Best-of-3 wall time of one forced-kernel fill, in seconds.
fn best_of_3(
    ws: &mut DpWorkspace,
    sigma: &ScoreTable,
    u: &[Sym],
    v: &[Sym],
    mode: KernelMode,
) -> f64 {
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::hint::black_box(ws.p_score_kernel(sigma, u, v, mode));
        best = best.min(t0.elapsed());
    }
    best.as_secs_f64()
}

#[test]
fn profiled_kernel_beats_scalar_by_2x_on_long_words() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: speedup floors only hold for release builds");
        return;
    }
    // Long enough that the per-fill profile build is noise next to the
    // O(n·m) sweep.
    const LEN: usize = 1024;
    let mut ws = DpWorkspace::new();
    let mut speedups = Vec::new();
    for syms in [4u32, 32, 256] {
        for density in [10u64, 45, 90] {
            let sigma = density_table(7 + density, syms, density);
            let u = word(11 + syms as u64, LEN, syms, 0);
            let v = word(13 + density, LEN, syms, 1000);
            // A kernel bug fails here, before any timing.
            assert_eq!(
                ws.p_score_kernel(&sigma, &u, &v, KernelMode::Profiled),
                ws.p_score_kernel(&sigma, &u, &v, KernelMode::Scalar),
                "kernels disagree at syms={syms} density={density}%"
            );
            let scalar = best_of_3(&mut ws, &sigma, &u, &v, KernelMode::Scalar);
            let profiled = best_of_3(&mut ws, &sigma, &u, &v, KernelMode::Profiled);
            speedups.push(scalar / profiled);
        }
    }
    let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
    eprintln!("profiled/scalar over {LEN}-long words: mean {mean:.2}x, {speedups:.2?}");
    assert!(
        mean >= 2.0,
        "profiled kernel must average >= 2x scalar over {LEN}-long words \
         (got {mean:.2}x: {speedups:.2?})"
    );
}
