//! Bench: the batch-solving pipeline — batch vs a plain sequential
//! loop, and a portfolio batch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fragalign::align::DpWorkspace;
use fragalign::model::Instance;
use fragalign::prelude::*;
use fragalign::sim::gen_batch;
use std::hint::black_box;

fn batch_instances(count: usize, regions: usize) -> Vec<Instance> {
    gen_batch(
        &SimConfig {
            regions,
            h_frags: 3,
            m_frags: 3,
            seed: 71,
            ..SimConfig::default()
        },
        count,
    )
    .into_iter()
    .map(|s| s.instance)
    .collect()
}

fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_batch");
    group.sample_size(10);
    for (count, regions) in [(4usize, 12usize), (8, 20)] {
        let instances = batch_instances(count, regions);
        group.throughput(Throughput::Elements(count as u64));
        let label = format!("{count}i{regions}r");
        group.bench_with_input(
            BenchmarkId::new("solve_batch_reuse", &label),
            &instances,
            |b, insts| {
                let opts = BatchOptions::new("csr");
                b.iter(|| solve_batch_reports(black_box(insts), &opts))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sequential_loop", &label),
            &instances,
            |b, insts| {
                let opts = BatchOptions::new("csr");
                b.iter(|| {
                    let mut ws = DpWorkspace::new();
                    insts
                        .iter()
                        .map(|inst| {
                            solve_single_traced(
                                black_box(inst),
                                &opts,
                                &mut ws,
                                TraceHandle::disabled(),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("solve_batch_portfolio", &label),
            &instances,
            |b, insts| {
                let opts = BatchOptions::new("portfolio");
                b.iter(|| solve_batch_reports(black_box(insts), &opts))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
