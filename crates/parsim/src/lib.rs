//! # parsim — fast parallel similarity search in multimedia databases
//!
//! A complete Rust implementation of the parallel nearest-neighbor search
//! system of Berchtold, Böhm, Braunmüller, Keim and Kriegel (*Fast
//! Parallel Similarity Search in Multimedia Databases*, SIGMOD 1997):
//! high-dimensional feature vectors are distributed over an array of disks
//! by a **near-optimal declustering** (a graph coloring of the quadrant
//! neighborhood graph), indexed per disk with an **X-tree**, and queried
//! with parallel k-nearest-neighbor search whose cost is gated by the
//! most-loaded disk.
//!
//! ## Quick start
//!
//! ```
//! use parsim::prelude::*;
//!
//! // 1. Some feature vectors (8-d uniform here; see parsim::datagen for
//! //    CAD Fourier descriptors and text descriptors).
//! let data = UniformGenerator::new(8).generate(2_000, 42);
//!
//! // 2. Build the parallel engine on 8 simulated disks with the paper's
//! //    near-optimal declustering.
//! let engine = ParallelKnnEngine::builder(8).disks(8).build(&data).unwrap();
//!
//! // 3. Ask for the 10 most similar objects.
//! let query = UniformGenerator::new(8).generate(1, 7).pop().unwrap();
//! let (neighbors, cost) = engine.knn(&query, 10).unwrap();
//! assert_eq!(neighbors.len(), 10);
//! assert!(neighbors.windows(2).all(|w| w[0].dist <= w[1].dist));
//!
//! // The cost records the paper's metric: pages read per disk, with the
//! // busiest disk gating the parallel search time.
//! assert!(cost.max_reads <= cost.total_reads);
//! ```
//!
//! ## Batched queries and per-query traces
//!
//! [`ParallelKnnEngine::knn`](parallel::ParallelKnnEngine::knn) runs the
//! paper's Var. 3 search disk by disk under one carried pruning bound;
//! [`ParallelKnnEngine::knn_batch`](parallel::ParallelKnnEngine::knn_batch)
//! answers a whole workload on a bounded worker pool. Both report a
//! [`QueryTrace`](parallel::QueryTrace) with per-disk page counts, pruning and cache counters,
//! and measured wall-clock next to modeled service time:
//!
//! ```
//! use parsim::prelude::*;
//!
//! let data = UniformGenerator::new(8).generate(2_000, 42);
//! let engine = ParallelKnnEngine::builder(8).disks(8).build(&data).unwrap();
//!
//! let queries = UniformGenerator::new(8).generate(16, 7);
//! let results = engine.knn_batch_with(&queries, 10, 4).unwrap();
//! assert_eq!(results.len(), queries.len());
//!
//! let (neighbors, trace): &(Vec<Neighbor>, QueryTrace) = &results[0];
//! assert_eq!(neighbors.len(), 10);
//! assert_eq!(trace.per_disk_pages.len(), engine.disks());
//! assert!(trace.total_pages() >= trace.max_pages());
//! assert!(trace.modeled_speedup() >= 1.0);
//!
//! // Traces serialize to JSON for offline analysis.
//! use parsim::serde::Serialize;
//! assert!(trace.to_json().contains("per_disk_pages"));
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`geometry`] | points, hyper-rectangles, metrics, quadrants, high-dim math |
//! | [`datagen`] | seeded generators: uniform, clustered, correlated, Fourier, text |
//! | [`storage`] | simulated disks, disk arrays, service-time model |
//! | [`hilbert`] | d-dimensional Hilbert and Z-order curves |
//! | [`index`] | R\*-tree / X-tree with RKV and HS k-NN |
//! | [`decluster`] | round robin, disk modulo, FX, Hilbert, **near-optimal** |
//! | [`parallel`] | the parallel engine (on one disk, the sequential baseline) and metrics |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod paper;

pub use parsim_datagen as datagen;
pub use parsim_decluster as decluster;
pub use parsim_geometry as geometry;
pub use parsim_hilbert as hilbert;
pub use parsim_index as index;
pub use parsim_parallel as parallel;
pub use parsim_storage as storage;
pub use serde;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use parsim_datagen::{
        ClusteredGenerator, CorrelatedGenerator, DataGenerator, FourierGenerator, QueryWorkload,
        TextDescriptorGenerator, UniformGenerator,
    };
    pub use parsim_decluster::{
        BucketBased, BucketDecluster, Declusterer, DiskAssignmentGraph, DiskModulo, FxXor,
        HilbertDecluster, NearOptimal, RecursiveDeclusterer, ReplicaDeclusterer, RoundRobin,
    };
    pub use parsim_geometry::{Euclidean, HyperRect, Metric, Point, QuadrantSplitter};
    pub use parsim_index::{
        forest_knn, forest_knn_traced, forest_knn_traced_ordered, CachingSink, KnnAlgorithm,
        Neighbor, NnIterator, ScanOrder, ScanTier, SearchStats, SharedBound, SpatialTree,
        TreeParams, TreeVariant,
    };
    pub use parsim_parallel::{
        run_knn_workload, run_traced_workload, AdmissionConfig, DeclusteredXTree, DegradedInfo,
        EngineBuilder, EngineConfig, EngineError, EngineMetrics, ExecutionMode, FaultPolicy,
        IngestConfig, ParallelKnnEngine, PendingQuery, QueryOptions, QueryResult, QueryTrace,
        RetryPolicy, SplitStrategy, ThroughputReport, WorkloadCost,
    };
    pub use parsim_storage::{
        DiskArray, DiskModel, FaultInjector, FaultKind, LruTracker, QueryCost, ShardedLru, SimDisk,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_a_working_pipeline() {
        let data = UniformGenerator::new(6).generate(500, 1);
        let engine = ParallelKnnEngine::builder(6).disks(4).build(&data).unwrap();
        let (res, _) = engine.knn(&data[0], 3).unwrap();
        assert_eq!(res[0].dist, 0.0);
    }

    #[test]
    fn facade_exposes_the_pooled_backbone() {
        let data = UniformGenerator::new(6).generate(500, 1);
        let engine = ParallelKnnEngine::builder(6)
            .disks(4)
            .execution(ExecutionMode::Pooled)
            .build(&data)
            .unwrap();
        let handle = engine.submit(&data[0], &QueryOptions::new(3)).unwrap();
        let result = handle.wait().unwrap();
        assert_eq!(result.neighbors[0].dist, 0.0);
    }

    #[test]
    fn facade_exposes_fault_tolerance() {
        let data = UniformGenerator::new(6).generate(500, 1);
        let engine = ParallelKnnEngine::builder(6)
            .disks(9)
            .replicas(1)
            .build(&data)
            .unwrap();
        engine.faults().fail(0);
        let result = engine.query(&data[0], &QueryOptions::traced(3)).unwrap();
        assert_eq!(result.neighbors[0].dist, 0.0);
        assert!(result.trace.unwrap().degraded.is_some());
    }
}
