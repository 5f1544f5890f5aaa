//! Bench: end-to-end pipelines and the oracle-cache ablation (D2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fragalign::align::ScoreOracle;
use fragalign::model::FragId;
use fragalign::prelude::*;
use fragalign_bench::sim_instance;
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for (regions, frags) in [(16usize, 3usize), (32, 5)] {
        let inst = sim_instance(regions, frags, 31);
        group.bench_with_input(
            BenchmarkId::new("four_approx", format!("{regions}r{frags}f")),
            &inst,
            |b, inst| b.iter(|| solve_four_approx(&ScoreOracle::new(black_box(inst)))),
        );
    }
    group.finish();

    // Oracle cache ablation: repeated interval-table queries with and
    // without cache reuse.
    let inst = sim_instance(24, 4, 33);
    let mut group = c.benchmark_group("oracle_cache");
    group.bench_function("cold", |b| {
        b.iter(|| {
            let oracle = ScoreOracle::new(&inst);
            for h in 0..inst.h.len() {
                for m in 0..inst.m.len() {
                    black_box(oracle.interval_table(FragId::h(h), FragId::m(m)));
                }
            }
        })
    });
    group.bench_function("warm", |b| {
        let oracle = ScoreOracle::new(&inst);
        b.iter(|| {
            for h in 0..inst.h.len() {
                for m in 0..inst.m.len() {
                    black_box(oracle.interval_table(FragId::h(h), FragId::m(m)));
                }
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
