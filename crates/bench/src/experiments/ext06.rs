//! Extension experiment 6: modeled vs measured speed-up of the
//! declustered engine.
//!
//! The paper evaluates its parallel X-tree in a disk simulator, reporting
//! the *modeled* speed-up (sequential service time over the busiest
//! disk's service time). This repository executes the paper's Var. 3
//! search for real, so we can put the measured wall-clock speed-up next
//! to the model for the same workload, together with the per-query trace
//! counters ([`QueryTrace`]) the engine emits.
//!
//! A single query's stages visit the disks one at a time on the calling
//! thread, so the measured column is the CPU cost of the declustered
//! search relative to the sequential X-tree, not a parallel speed-up;
//! the modeled column is hardware-independent.

use std::time::Instant;

use parsim_datagen::{DataGenerator, UniformGenerator};
use parsim_parallel::metrics::{run_knn_workload, run_traced_workload, speedup};
use parsim_parallel::{EngineConfig, ParallelKnnEngine, QueryTrace};

use crate::report::{fmt, ExperimentReport};

use super::common::scaled;

/// Runs the experiment for n = 1..16 disks at a fixed dimension.
pub fn run(scale: f64) -> ExperimentReport {
    let dim = 12;
    let k = 10;
    let n = scaled(15_000, scale);
    let data = UniformGenerator::new(dim).generate(n, 61);
    let queries = UniformGenerator::new(dim).generate(16, 62);
    let config = EngineConfig::paper_defaults(dim);

    let seq = ParallelKnnEngine::builder(dim)
        .config(config)
        .disks(1)
        .build(&data)
        .expect("sequential engine builds");
    let seq_cost = run_knn_workload(&seq, &queries, k).expect("sequential workload");
    let seq_wall = {
        let start = Instant::now();
        for q in &queries {
            seq.knn(q, k).expect("sequential query");
        }
        start.elapsed()
    };

    let mut rows = Vec::new();
    let mut best_modeled = 0.0f64;
    for disks in [2usize, 4, 8, 16] {
        let par = ParallelKnnEngine::builder(dim)
            .config(config)
            .disks(disks)
            .build(&data)
            .expect("parallel engine builds");
        let (par_cost, traces) = run_traced_workload(&par, &queries, k).expect("traced workload");
        let par_wall: f64 = traces
            .iter()
            .map(|t: &QueryTrace| t.wall_time.as_secs_f64())
            .sum();
        let modeled = speedup(&seq_cost, &par_cost);
        best_modeled = best_modeled.max(modeled);
        let measured = if par_wall > 0.0 {
            seq_wall.as_secs_f64() / par_wall
        } else {
            1.0
        };
        let avg_pruned: f64 = traces
            .iter()
            .map(|t| t.candidates_pruned as f64)
            .sum::<f64>()
            / traces.len() as f64;
        rows.push(vec![
            par.disks().to_string(),
            fmt(par_cost.avg_max_reads, 1),
            fmt(par_cost.avg_total_reads, 1),
            fmt(modeled, 2),
            fmt(measured, 2),
            fmt(avg_pruned, 1),
        ]);
    }

    let host_threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    ExperimentReport {
        id: "ext6",
        title: "EXTENSION — modeled vs measured speed-up of the declustered Var. 3 engine",
        paper: "the paper reports modeled speed-ups from its disk simulator; here the same \
                workload also runs for real under one carried pruning bound, so the \
                wall-clock cost can be compared with the model",
        headers: vec![
            "disks".into(),
            "avg busiest-disk pages".into(),
            "avg total pages".into(),
            "modeled speed-up".into(),
            "measured speed-up".into(),
            "avg subtrees pruned".into(),
        ],
        rows,
        notes: vec![
            format!(
                "host exposes {host_threads} thread(s); a single query visits the disks one \
                 at a time on one thread, so the measured column is the declustered search's \
                 CPU cost against the sequential tree, not a parallel speed-up"
            ),
            format!("best modeled speed-up over the sweep: {best_modeled:.2}×"),
        ],
    }
}
