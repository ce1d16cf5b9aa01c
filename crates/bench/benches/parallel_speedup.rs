//! End-to-end bench: parallel 10-NN query latency by declustering method
//! (wall-clock companion to figures 12–14, whose primary metric is page
//! counts), plus the execution paths of the engine — the single query
//! driven on the calling thread (`knn`), the bounded-worker batch pool
//! (`knn_batch_with`), and the single-disk sequential baseline, so the
//! measured speed-up can be read off next to the modeled one (experiment
//! `ext6`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use parsim_bench::experiments::common::{build_engine, Method};
use parsim_datagen::{DataGenerator, UniformGenerator};
use parsim_parallel::{EngineConfig, ParallelKnnEngine};

fn bench_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_speedup");
    group.sample_size(15);
    let dim = 15;
    let data = UniformGenerator::new(dim).generate(20_000, 5);
    let queries = UniformGenerator::new(dim).generate(32, 6);
    let config = EngineConfig::paper_defaults(dim);
    for method in [Method::RoundRobin, Method::Hilbert, Method::NearOptimal] {
        let engine = build_engine(method, &data, 16, config);
        group.bench_with_input(
            BenchmarkId::new("knn10_16disks", format!("{method:?}")),
            &method,
            |b, _| {
                let mut i = 0usize;
                b.iter(|| {
                    i = (i + 1) % queries.len();
                    engine.knn(black_box(&queries[i]), 10).unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_execution_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("execution_paths");
    group.sample_size(15);
    let dim = 12;
    let data = UniformGenerator::new(dim).generate(20_000, 15);
    let queries = UniformGenerator::new(dim).generate(32, 16);
    let config = EngineConfig::paper_defaults(dim);
    let par = ParallelKnnEngine::builder(dim)
        .config(config)
        .disks(8)
        .build(&data)
        .expect("engine builds");
    let seq = ParallelKnnEngine::builder(dim)
        .config(config)
        .disks(1)
        .build(&data)
        .expect("baseline builds");

    // Single-disk baseline: the denominator of the measured speed-up.
    group.bench_function("sequential_knn10", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % queries.len();
            seq.knn(black_box(&queries[i]), 10).unwrap()
        })
    });

    // One query at a time, driven disk by disk on the calling thread.
    group.bench_function("threaded_knn10_8disks", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % queries.len();
            par.knn(black_box(&queries[i]), 10).unwrap()
        })
    });

    // Inter-query parallelism: the bounded worker pool answers the whole
    // workload; throughput is queries per second.
    group.throughput(Throughput::Elements(queries.len() as u64));
    for workers in [1usize, 2, 8] {
        group.bench_with_input(
            BenchmarkId::new("batch_knn10_8disks", workers),
            &workers,
            |b, &w| b.iter(|| par.knn_batch_with(black_box(&queries), 10, w).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_methods, bench_execution_paths);
criterion_main!(benches);
