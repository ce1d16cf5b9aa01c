//! Extension experiment 12: two-tier leaf scan — kernel cost across the
//! precision tiers on uniform, clustered, and correlated data.
//!
//! The tiered leaf scan (PR 7) runs every leaf through a cheap
//! low-precision phase first — an f32 mirror scan or an 8-bit quantized
//! code scan — and re-ranks only the survivors with the exact f64 batch
//! kernel, so answers stay **bit-identical** to the pure-f64 scan (asserted
//! here on every query of every cell). The experiment sweeps the three
//! tiers over three data distributions and reports, per cell:
//!
//! * the exact-kernel work (`dist_evals`: f64 row evaluations started),
//!   the phase-1 work (`lb_evals`) and the survivors re-ranked
//!   (`rerank_evals`) — all host-independent trace counters;
//! * a **modeled kernel cost** in megabytes of vector data streamed
//!   through the distance kernels (f64 rows are `8·dim` bytes, f32 mirrors
//!   `4·dim`, q8 codes `1·dim`) — the bandwidth-bound proxy that makes the
//!   tiers comparable without a wall clock;
//! * the **measured** wall-clock of the same workload on this host
//!   (single batch worker, deterministic forest search) — indicative only,
//!   and recorded with that caveat.

use std::time::Instant;

use parsim_datagen::{ClusteredGenerator, CorrelatedGenerator, DataGenerator, UniformGenerator};
use parsim_geometry::Point;
use parsim_parallel::{ParallelKnnEngine, QueryOptions, QueryResult, ScanTier};

use crate::report::{fmt, ExperimentReport};

use super::common::scaled;

const DIM: usize = 8;
const DISKS: usize = 8;
const K: usize = 10;
const QUERIES: usize = 16;

/// The swept tiers with their display names and phase-1 bytes per
/// coordinate (0 for the pure f64 tier — it has no phase 1).
const TIERS: [(ScanTier, &str, u64); 3] = [
    (ScanTier::F64, "f64", 0),
    (ScanTier::F32, "f32", 4),
    (ScanTier::Q8, "q8", 1),
];

/// One (dataset, tier) cell of the sweep.
pub struct TierRow {
    /// `"uniform"`, `"clustered"`, or `"correlated"`.
    pub dataset: &'static str,
    /// `"f64"`, `"f32"`, or `"q8"`.
    pub tier: &'static str,
    /// Exact f64 row evaluations started over the workload.
    pub f64_evals: u64,
    /// Phase-1 low-precision rows scanned (0 on the f64 tier).
    pub lb_evals: u64,
    /// Phase-1 survivors re-ranked by the exact kernel.
    pub rerank_evals: u64,
    /// Modeled kernel traffic, megabytes of vector data streamed.
    pub modeled_mb: f64,
    /// Measured wall-clock of the workload on this host, milliseconds.
    pub measured_ms: f64,
    /// Whether every neighbor distance was bit-identical to the f64 tier.
    pub exact: bool,
}

fn datasets(n: usize) -> Vec<(&'static str, Vec<Point>, Vec<Point>)> {
    vec![
        (
            "uniform",
            UniformGenerator::new(DIM).generate(n, 71),
            UniformGenerator::new(DIM).generate(QUERIES, 72),
        ),
        (
            "clustered",
            ClusteredGenerator::new(DIM, 8, 0.03).generate(n, 73),
            ClusteredGenerator::new(DIM, 8, 0.03).generate(QUERIES, 74),
        ),
        (
            "correlated",
            CorrelatedGenerator::new(DIM, 0.05).generate(n, 75),
            CorrelatedGenerator::new(DIM, 0.05).generate(QUERIES, 76),
        ),
    ]
}

/// Runs every (dataset, tier) cell, asserting bit-identical answers
/// against the pure-f64 tier of the same engine.
pub fn measure(scale: f64) -> Vec<TierRow> {
    let n = scaled(6_000, scale);
    let mut rows = Vec::new();
    for (dataset, pts, queries) in datasets(n) {
        let engine = ParallelKnnEngine::builder(DIM)
            .disks(DISKS)
            .build(&pts)
            .expect("engine builds on experiment data");
        // Single batch worker: each query runs the deterministic forest
        // search, so the trace counters are exact and reproducible.
        let run = |tier: ScanTier| -> (Vec<QueryResult>, f64) {
            let opts = QueryOptions::traced(K).with_workers(1).with_tier(tier);
            let start = Instant::now();
            let res = engine
                .query_batch(&queries, &opts)
                .expect("workload queries match the engine");
            (res, start.elapsed().as_secs_f64() * 1e3)
        };
        let (base, _) = run(ScanTier::F64);
        for (tier, name, lb_bytes) in TIERS {
            let (res, measured_ms) = run(tier);
            let mut f64_evals = 0u64;
            let mut lb_evals = 0u64;
            let mut rerank_evals = 0u64;
            let mut exact = true;
            for (got, want) in res.iter().zip(&base) {
                exact &= got.neighbors.len() == want.neighbors.len()
                    && got
                        .neighbors
                        .iter()
                        .zip(&want.neighbors)
                        .all(|(g, w)| g.dist.to_bits() == w.dist.to_bits());
                let t = got.trace.as_ref().expect("traced");
                f64_evals += t.dist_evals;
                lb_evals += t.lb_evals;
                rerank_evals += t.rerank_evals;
            }
            assert!(exact, "{dataset}/{name}: answers diverged from f64");
            let modeled_mb = ((f64_evals * 8 + lb_evals * lb_bytes) * DIM as u64) as f64 / 1e6;
            rows.push(TierRow {
                dataset,
                tier: name,
                f64_evals,
                lb_evals,
                rerank_evals,
                modeled_mb,
                measured_ms,
                exact,
            });
        }
    }
    rows
}

/// Runs the tier sweep and tabulates it.
pub fn run(scale: f64) -> ExperimentReport {
    let rows = measure(scale);
    let reduction = |dataset: &str| -> (f64, f64) {
        let evals = |tier: &str| -> f64 {
            rows.iter()
                .find(|r| r.dataset == dataset && r.tier == tier)
                .map(|r| r.f64_evals as f64)
                .unwrap_or(0.0)
        };
        let base = evals("f64").max(1.0);
        (base / evals("f32").max(1.0), base / evals("q8").max(1.0))
    };
    let (uf32, uq8) = reduction("uniform");
    ExperimentReport {
        id: "ext12",
        title: "EXTENSION — two-tier leaf scan: f64 kernel work vs precision tier on uniform, \
                clustered, and correlated data (answers bit-identical in every cell)",
        paper: "beyond the paper: the leaf scan runs a certified low-precision lower-bound pass \
                (f32 mirrors or 8-bit quantized codes) before the exact f64 kernel, re-ranking \
                only rows the cheap pass cannot prune; the triangle-inequality certification \
                makes every tier return the paper's arithmetic bit for bit",
        headers: vec![
            "dataset".into(),
            "tier".into(),
            "f64 evals".into(),
            "lb evals".into(),
            "rerank evals".into(),
            "modeled MB".into(),
            "measured ms".into(),
            "exact".into(),
        ],
        rows: rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.to_string(),
                    r.tier.to_string(),
                    r.f64_evals.to_string(),
                    r.lb_evals.to_string(),
                    r.rerank_evals.to_string(),
                    fmt(r.modeled_mb, 3),
                    fmt(r.measured_ms, 3),
                    if r.exact { "yes" } else { "no" }.to_string(),
                ]
            })
            .collect(),
        notes: vec![
            format!(
                "uniform data: the cheap tiers cut exact f64 row evaluations by {}x (f32) and \
                 {}x (q8); every cell's answers were asserted bit-identical to the f64 tier",
                fmt(uf32, 1),
                fmt(uq8, 1),
            ),
            "f64/lb/rerank eval counts and modeled MB are host-independent (trace counters and \
             a bytes-streamed bandwidth proxy); measured ms is wall-clock on the build host and \
             indicative only"
                .to_string(),
        ],
    }
}
