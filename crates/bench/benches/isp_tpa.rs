//! Bench: the Berman–DasGupta two-phase algorithm, whose ratio
//! `exp_isp` measures.
//!
//! TPA is O(n log n); the greedy baseline O(n²) in the worst case
//! (interval overlap scans). Exact is exponential and only benched at
//! toy size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fragalign::isp::{solve_exact, solve_greedy, solve_tpa};
use fragalign_bench::isp_instance;
use std::hint::black_box;

fn bench_isp(c: &mut Criterion) {
    let mut group = c.benchmark_group("isp");
    for cands in [100usize, 1000, 5000] {
        let inst = isp_instance(9, cands / 10 + 1, cands, (cands * 4) as i64);
        group.throughput(Throughput::Elements(cands as u64));
        group.bench_with_input(BenchmarkId::new("tpa", cands), &cands, |b, _| {
            b.iter(|| solve_tpa(black_box(&inst)))
        });
        group.bench_with_input(BenchmarkId::new("greedy", cands), &cands, |b, _| {
            b.iter(|| solve_greedy(black_box(&inst)))
        });
    }
    let tiny = isp_instance(5, 4, 18, 40);
    group.bench_function("exact/18", |b| b.iter(|| solve_exact(black_box(&tiny))));
    group.finish();
}

criterion_group!(benches, bench_isp);
criterion_main!(benches);
