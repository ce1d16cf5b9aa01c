//! Shared experiment machinery.

use std::sync::Arc;

use parsim_datagen::{DataGenerator, QueryWorkload};
use parsim_decluster::quantile::median_splits;
use parsim_decluster::{
    BucketBased, Declusterer, DiskModulo, FxXor, HilbertDecluster, NearOptimal, RoundRobin,
};
use parsim_geometry::{Point, QuadrantSplitter};
use parsim_parallel::metrics::{run_declustered_workload, run_knn_workload};
use parsim_parallel::{
    DeclusteredXTree, EngineConfig, ParallelKnnEngine, SplitStrategy, WorkloadCost,
};

/// Declustering methods available to experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Round robin (`j mod n`).
    RoundRobin,
    /// Disk modulo \[DS 82\].
    DiskModulo,
    /// FX \[KP 88\].
    Fx,
    /// Hilbert \[FB 93\] — the strongest baseline.
    Hilbert,
    /// The paper's near-optimal declustering.
    NearOptimal,
}

impl Method {
    /// Builds the point-level declusterer for this method.
    pub fn declusterer(
        self,
        points: &[Point],
        dim: usize,
        disks: usize,
        config: &EngineConfig,
    ) -> Arc<dyn Declusterer> {
        let splitter = || -> QuadrantSplitter {
            match config.splits {
                SplitStrategy::Midpoint => {
                    QuadrantSplitter::midpoint(dim).expect("valid dimension")
                }
                SplitStrategy::DataMedian => median_splits(points).expect("non-empty data"),
            }
        };
        match self {
            Method::RoundRobin => Arc::new(RoundRobin::new(disks).expect("disks > 0")),
            Method::DiskModulo => Arc::new(BucketBased::new(
                DiskModulo::new(disks).expect("disks > 0"),
                splitter(),
            )),
            Method::Fx => Arc::new(BucketBased::new(
                FxXor::new(disks).expect("disks > 0"),
                splitter(),
            )),
            Method::Hilbert => Arc::new(BucketBased::new(
                HilbertDecluster::new(dim, disks).expect("valid dimension"),
                splitter(),
            )),
            Method::NearOptimal => {
                let capped =
                    disks.min(parsim_decluster::near_optimal::colors_required(dim) as usize);
                Arc::new(BucketBased::new(
                    NearOptimal::new(dim, capped).expect("valid dimension"),
                    splitter(),
                ))
            }
        }
    }
}

/// Builds the paper's **page-declustered parallel X-tree** over `points`
/// with the chosen method. Round robin distributes *items* `j mod n` (the
/// paper's definition); all other methods decluster quadrant buckets.
pub fn build_declustered(
    method: Method,
    points: &[Point],
    disks: usize,
    config: EngineConfig,
) -> DeclusteredXTree {
    let make_splitter = || -> QuadrantSplitter {
        match config.splits {
            SplitStrategy::Midpoint => QuadrantSplitter::midpoint(config.dim).expect("valid dim"),
            SplitStrategy::DataMedian => median_splits(points).expect("non-empty data"),
        }
    };
    match method {
        Method::RoundRobin => DeclusteredXTree::build(
            points,
            Arc::new(RoundRobin::new(disks).expect("disks > 0")),
            config,
        ),
        Method::DiskModulo => DeclusteredXTree::build_bucket(
            points,
            Arc::new(DiskModulo::new(disks).expect("disks > 0")),
            make_splitter(),
            config,
        ),
        Method::Fx => DeclusteredXTree::build_bucket(
            points,
            Arc::new(FxXor::new(disks).expect("disks > 0")),
            make_splitter(),
            config,
        ),
        Method::Hilbert => DeclusteredXTree::build_bucket(
            points,
            Arc::new(HilbertDecluster::new(config.dim, disks).expect("valid dim")),
            make_splitter(),
            config,
        ),
        Method::NearOptimal => {
            let capped =
                disks.min(parsim_decluster::near_optimal::colors_required(config.dim) as usize);
            DeclusteredXTree::build_bucket(
                points,
                Arc::new(NearOptimal::new(config.dim, capped).expect("valid dim")),
                make_splitter(),
                config,
            )
        }
    }
    .expect("engine builds on experiment data")
}

/// Runs a k-NN workload on a page-declustered tree.
pub fn declustered_cost(engine: &DeclusteredXTree, queries: &[Point], k: usize) -> WorkloadCost {
    run_declustered_workload(engine, queries, k).expect("workload matches engine")
}

/// The sequential baseline in the page-declustered cost model: the same
/// global X-tree confined to a single disk (directory likewise cached).
pub fn sequential_declustered_cost(
    points: &[Point],
    queries: &[Point],
    k: usize,
    config: EngineConfig,
) -> WorkloadCost {
    let seq =
        DeclusteredXTree::build_round_robin_pages(points, 1, config).expect("baseline builds");
    run_declustered_workload(&seq, queries, k).expect("workload matches baseline")
}

/// Builds a parallel engine over `points` with the chosen method.
pub fn build_engine(
    method: Method,
    points: &[Point],
    disks: usize,
    config: EngineConfig,
) -> ParallelKnnEngine {
    let d = method.declusterer(points, config.dim, disks, &config);
    ParallelKnnEngine::builder(config.dim)
        .config(config)
        .declusterer(d)
        .build(points)
        .expect("engine builds on experiment data")
}

/// Builds the sequential baseline — the same engine on one disk — and
/// runs the same workload.
pub fn sequential_cost(
    points: &[Point],
    queries: &[Point],
    k: usize,
    config: EngineConfig,
) -> WorkloadCost {
    let seq = ParallelKnnEngine::builder(config.dim)
        .config(config)
        .disks(1)
        .build(points)
        .expect("baseline builds");
    run_knn_workload(&seq, queries, k).expect("workload matches baseline")
}

/// Generates data-distributed queries for a generator-backed dataset.
pub fn data_queries(gen: &dyn DataGenerator, data_count: usize, n: usize, seed: u64) -> Vec<Point> {
    QueryWorkload::DataLike { data_count }.generate(gen, n, seed)
}

/// Generates uniform queries.
pub fn uniform_queries(dim: usize, n: usize, seed: u64) -> Vec<Point> {
    QueryWorkload::Uniform { dim }.generate(&parsim_datagen::UniformGenerator::new(dim), n, seed)
}

/// Scales a base count by the experiment scale factor.
pub fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(16)
}

/// The disk counts swept by the speed-up figures (the paper plots up to 16
/// disks; powers of two avoid confounding the sweep with the
/// arbitrary-disk color folding, which figure 14 examines separately).
pub const DISK_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];
