//! Extension experiment 9: sustained query throughput of the pooled
//! backbone vs the scoped reference, by disk count.
//!
//! The scoped engine answers a query by occupying every disk until the
//! slowest one finishes — a per-query barrier. The persistent worker pool
//! pipelines instead: while query `i` searches disk 3, query `i+1`
//! already searches disk 1, so a batch's modeled makespan drops from
//! Σᵢ maxᵈ t(i,d) (barrier per query) to maxᵈ Σᵢ t(i,d) (the busiest
//! disk's total work). Both modeled columns are computed from the same
//! per-query page traces with the paper's disk model, so they are
//! host-independent; the measured columns (QPS, latency percentiles) are
//! wall-clock on the current host and recorded in `BENCH_pr4.json`.

use std::time::Instant;

use parsim_datagen::{DataGenerator, UniformGenerator};
use parsim_parallel::{ExecutionMode, ParallelKnnEngine, QueryOptions};

use crate::report::{fmt, ExperimentReport};

use super::common::scaled;

/// One measured configuration: a (disk count, execution mode) pair.
pub struct BackboneRow {
    /// Disks in the engine.
    pub disks: usize,
    /// `"scoped"` or `"pooled"`.
    pub mode: &'static str,
    /// Measured sustained queries per second over the repeated batch.
    pub measured_qps: f64,
    /// Median measured single-query latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile measured single-query latency, milliseconds.
    pub p99_ms: f64,
    /// Modeled batch makespan under this mode's schedule, milliseconds.
    pub modeled_makespan_ms: f64,
    /// Modeled sustained throughput: queries / modeled makespan.
    pub modeled_qps: f64,
}

/// Percentile of an unsorted sample (nearest-rank), in the sample's unit.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Runs the full sweep and returns one row per (disks, mode).
pub fn measure(scale: f64) -> Vec<BackboneRow> {
    let dim = 8;
    let k = 5; // small k: little work per disk, so scheduling dominates
    let n = scaled(8_000, scale);
    let data = UniformGenerator::new(dim).generate(n, 91);
    let queries = UniformGenerator::new(dim).generate(64, 92);
    let repeats = 3usize;
    let mut rows = Vec::new();

    for disks in [4usize, 8, 16] {
        // The modeled schedule needs the per-query page traces; RKV traces
        // are identical in both modes, so one traced batch serves both.
        let scoped = ParallelKnnEngine::builder(dim)
            .disks(disks)
            .build(&data)
            .expect("scoped engine builds");
        let pooled = ParallelKnnEngine::builder(dim)
            .disks(disks)
            .execution(ExecutionMode::Pooled)
            .build(&data)
            .expect("pooled engine builds");
        let model = *scoped.array().model();
        let traces: Vec<_> = scoped
            .knn_batch(&queries, k)
            .expect("traced batch succeeds")
            .into_iter()
            .map(|(_, t)| t)
            .collect();

        // Barrier schedule: each query holds all disks until its busiest
        // disk finishes.
        let barrier_s: f64 = traces
            .iter()
            .map(|t| {
                let max = t.per_disk_pages.iter().copied().max().unwrap_or(0);
                model.service_time(max).as_secs_f64()
            })
            .sum();
        // Pipelined schedule: disks never idle waiting for a query's other
        // disks, so the busiest disk's total work gates the batch.
        let pipelined_s = (0..disks)
            .map(|d| {
                let total: u64 = traces.iter().map(|t| t.per_disk_pages[d]).sum();
                model.service_time(total).as_secs_f64()
            })
            .fold(0.0f64, f64::max);

        for (mode, engine, modeled_s) in [
            ("scoped", &scoped, barrier_s),
            ("pooled", &pooled, pipelined_s),
        ] {
            let opts = QueryOptions::new(k);
            // Sustained throughput: the whole batch, repeated.
            let start = Instant::now();
            for _ in 0..repeats {
                engine.query_batch(&queries, &opts).expect("batch succeeds");
            }
            let measured_qps = (repeats * queries.len()) as f64 / start.elapsed().as_secs_f64();
            // Closed-loop latency percentiles.
            let mut lat_ms: Vec<f64> = queries
                .iter()
                .map(|q| {
                    let t0 = Instant::now();
                    engine.query(q, &opts).expect("query succeeds");
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            let p50_ms = percentile(&mut lat_ms, 50.0);
            let p99_ms = percentile(&mut lat_ms, 99.0);
            rows.push(BackboneRow {
                disks,
                mode,
                measured_qps,
                p50_ms,
                p99_ms,
                modeled_makespan_ms: modeled_s * 1e3,
                modeled_qps: if modeled_s > 0.0 {
                    queries.len() as f64 / modeled_s
                } else {
                    0.0
                },
            });
        }
    }
    rows
}

/// Runs the backbone throughput sweep and tabulates it.
pub fn run(scale: f64) -> ExperimentReport {
    let rows = measure(scale);
    let gain: Vec<String> = rows
        .chunks(2)
        .map(|pair| {
            format!(
                "{} disks: modeled pipelined/barrier throughput = {}x",
                pair[0].disks,
                fmt(pair[1].modeled_qps / pair[0].modeled_qps.max(1e-12), 2)
            )
        })
        .collect();
    ExperimentReport {
        id: "ext9",
        title: "EXTENSION — query backbone: pooled pipeline vs scoped barrier throughput",
        paper: "beyond the paper: the persistent per-disk worker pool pipelines queries across \
                disks (no per-query barrier), so the batch makespan falls from the sum of \
                per-query critical paths to the busiest disk's total work; answers and page \
                traces are bit-identical to the scoped reference",
        headers: vec![
            "disks".into(),
            "mode".into(),
            "measured qps".into(),
            "p50 ms".into(),
            "p99 ms".into(),
            "modeled makespan ms".into(),
            "modeled qps".into(),
        ],
        rows: rows
            .iter()
            .map(|r| {
                vec![
                    r.disks.to_string(),
                    r.mode.to_string(),
                    fmt(r.measured_qps, 1),
                    fmt(r.p50_ms, 3),
                    fmt(r.p99_ms, 3),
                    fmt(r.modeled_makespan_ms, 3),
                    fmt(r.modeled_qps, 1),
                ]
            })
            .collect(),
        notes: {
            let mut notes = vec![
                "modeled columns are host-independent: both schedules are computed from the \
                 same per-query page traces under the paper's disk model"
                    .to_string(),
                "measured columns are wall-clock on the build host and depend on its core count"
                    .to_string(),
            ];
            notes.extend(gain);
            notes
        },
    }
}
