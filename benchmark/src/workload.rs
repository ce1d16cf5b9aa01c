//! The four named workloads: what data, which engine, how much work a
//! pass holds. `BENCHMARK.json` carries only names; the sizes live here
//! and in the README.

use parsim_datagen::{ClusteredGenerator, DataGenerator, FourierGenerator, UniformGenerator};
use parsim_geometry::Point;
use parsim_parallel::{
    EngineBuilder, ExecutionMode, IngestConfig, LshConfig, ParallelKnnEngine, QueryOptions,
};

/// Neighbours per query, on every workload.
pub const K: usize = 10;
/// Simulated disks, on every workload.
pub const DISKS: usize = 8;
/// Queries per `query_batch` call in the batch phase.
pub const BATCH_CHUNK: usize = 64;
/// Queries answered before set-up counts as done.
pub const WARMUP_QUERIES: usize = 64;
/// Probes per table of the approximate workload's queries.
pub const APPROX_PROBES: usize = 2;
/// Delta-buffer capacity of the write workload.
pub const DELTA_CAPACITY: usize = 8192;
/// Held-out points for inserts; the write workload cycles through them.
pub const FRESH_POINTS: usize = 4096;

/// One workload: the data source, the engine configuration and the size
/// of one pass.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub dim: usize,
    /// Indexed points.
    pub n: usize,
    /// Distinct held-out queries; the phases cycle through them.
    pub pool: usize,
    /// Closed-loop queries (or write steps) per pass.
    pub closed_per_pass: usize,
    /// Batch-phase queries per pass.
    pub batch_per_pass: usize,
    /// One flat scan follows every this many closed-loop queries.
    pub flat_every: usize,
    pub execution: ExecutionMode,
    /// Each closed-loop step also inserts one point and removes one.
    pub writes: bool,
    /// Queries go to the LSH tier.
    pub approx: bool,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "uniform32",
        dim: 32,
        n: 100_000,
        pool: 128,
        closed_per_pass: 150,
        batch_per_pass: 64,
        flat_every: 25,
        execution: ExecutionMode::Pooled,
        writes: false,
        approx: false,
    },
    Spec {
        name: "fourier16",
        dim: 16,
        n: 100_000,
        pool: 1024,
        closed_per_pass: 1600,
        batch_per_pass: 1536,
        flat_every: 100,
        execution: ExecutionMode::Scoped,
        writes: false,
        approx: false,
    },
    Spec {
        name: "churn16",
        dim: 16,
        n: 100_000,
        pool: 1024,
        closed_per_pass: 1000,
        batch_per_pass: 256,
        flat_every: 50,
        execution: ExecutionMode::Pooled,
        writes: true,
        approx: false,
    },
    Spec {
        name: "approx48",
        dim: 48,
        n: 100_000,
        pool: 256,
        closed_per_pass: 800,
        batch_per_pass: 512,
        flat_every: 100,
        execution: ExecutionMode::Pooled,
        writes: false,
        approx: true,
    },
];

/// Everything a run feeds the engine, made from the seed alone.
pub struct Inputs {
    /// The indexed points; point `i` gets item id `i`.
    pub points: Vec<Point>,
    /// Held-out queries from the same stream.
    pub queries: Vec<Point>,
    /// Held-out points for inserts, from the same stream.
    pub fresh: Vec<Point>,
}

impl Spec {
    /// The workload named `name`.
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    /// The same workload at smoke size: a twentieth of the points and
    /// short passes. Its numbers are not comparable with a full run's.
    pub fn smoke(mut self) -> Spec {
        self.n /= 20;
        self.pool = self.pool.min(128);
        self.closed_per_pass = (self.closed_per_pass / 10).max(2 * self.flat_every);
        self.batch_per_pass = BATCH_CHUNK * 2;
        self
    }

    fn generator(&self) -> Box<dyn DataGenerator> {
        match self.name {
            "uniform32" => Box::new(UniformGenerator::new(self.dim)),
            "fourier16" => Box::new(FourierGenerator::new(self.dim)),
            _ => Box::new(ClusteredGenerator::new(self.dim, 32, 0.05)),
        }
    }

    /// One draw of `n + pool + FRESH_POINTS` points from the seeded
    /// stream, split in that order.
    pub fn generate(&self, seed: u64) -> Inputs {
        let total = self.n + self.pool + FRESH_POINTS;
        let mut points = self.generator().generate(total, seed);
        let fresh = points.split_off(self.n + self.pool);
        let queries = points.split_off(self.n);
        Inputs {
            points,
            queries,
            fresh,
        }
    }

    /// The engine configuration of this workload: default `EngineConfig`
    /// (F64 / Natural / RKV), 8 disks, metrics off.
    pub fn builder(&self, seed: u64) -> EngineBuilder {
        let mut b = ParallelKnnEngine::builder(self.dim)
            .disks(DISKS)
            .execution(self.execution)
            .metrics(false);
        if self.writes {
            // No rebuild trigger: the only rebuilds are the foreground
            // `reorganize()` calls the run times itself, so nothing races
            // the queries and every count repeats.
            b = b.ingest(IngestConfig::new(DELTA_CAPACITY));
        }
        if self.approx {
            b = b.approx(LshConfig::new(seed).tables(4).hyperplanes(16));
        }
        b
    }

    /// Options of a closed-loop query.
    pub fn query_opts(&self) -> QueryOptions {
        if self.approx {
            QueryOptions::approx(K, APPROX_PROBES)
        } else {
            QueryOptions::new(K)
        }
    }

    /// Options of a batch-phase call: two workers, one per CPU of the
    /// reference host (a pooled engine ignores the knob).
    pub fn batch_opts(&self) -> QueryOptions {
        self.query_opts().with_workers(2)
    }
}
