//! Bench: the §4 improvement algorithms, whose ratios `exp_ratio` and
//! ablations `exp_ablation` measure.
//!
//! Compares Full/Border/General improvement with and without the §4.1
//! scaling step on a fixed simulated instance.

use criterion::{criterion_group, criterion_main, Criterion};
use fragalign::prelude::*;
use fragalign_bench::sim_instance;
use std::hint::black_box;

fn bench_improve(c: &mut Criterion) {
    let inst = sim_instance(16, 3, 21);
    let mut group = c.benchmark_group("improve");
    group.sample_size(10);
    // A fresh oracle per iteration: every run pays its own DP fills.
    let cold = || ScoreOracle::new(black_box(&inst));
    group.bench_function("full", |b| b.iter(|| full_improve(&cold(), false)));
    group.bench_function("border", |b| b.iter(|| border_improve(&cold(), false)));
    group.bench_function("csr", |b| b.iter(|| csr_improve(&cold(), false)));
    group.bench_function("csr_scaled", |b| b.iter(|| csr_improve(&cold(), true)));
    group.bench_function("four_approx", |b| b.iter(|| solve_four_approx(&cold())));
    group.bench_function("greedy", |b| b.iter(|| solve_greedy(&cold())));
    group.finish();
}

criterion_group!(benches, bench_improve);
criterion_main!(benches);
