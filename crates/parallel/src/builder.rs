//! The engine builder — the one front door for constructing a
//! [`ParallelKnnEngine`].
//!
//! ```
//! use parsim_parallel::ParallelKnnEngine;
//! use parsim_datagen::{DataGenerator, UniformGenerator};
//!
//! let points = UniformGenerator::new(8).generate(2000, 1);
//! let engine = ParallelKnnEngine::builder(8)
//!     .disks(16)
//!     .replicas(1)
//!     .page_cache(256)
//!     .build(&points)
//!     .unwrap();
//! assert_eq!(engine.disks(), 16);
//! assert!(engine.has_replicas());
//! ```

use std::collections::BTreeSet;
use std::sync::Arc;

use parsim_decluster::near_optimal::colors_required;
use parsim_decluster::replica::{ChainedReplica, ReplicaRouting};
use parsim_decluster::{BucketBased, Declusterer, NearOptimal, ReplicaDeclusterer};
use parsim_geometry::Point;
use parsim_index::{
    KnnAlgorithm, LshConfig, ScanOrder, ScanTier, TreeVariant, DEFAULT_CACHE_SHARDS,
};
use parsim_storage::DiskModel;

use crate::config::{EngineConfig, SplitStrategy};
use crate::engine::{make_splitter_of, ParallelKnnEngine};
use crate::ingest::IngestConfig;
use crate::options::{ExecutionMode, FaultPolicy};
use crate::serve::AdmissionConfig;
use crate::EngineError;

/// A resolved declustering: the placement plus, when replicated, the
/// mirror router.
pub(crate) type ResolvedDecluster = (Arc<dyn Declusterer>, Option<Arc<dyn ReplicaRouting>>);

/// Builds a [`ParallelKnnEngine`], replacing the former
/// `build` / `build_near_optimal` / `with_page_cache` constructor sprawl.
///
/// Defaults: the paper's configuration ([`EngineConfig::paper_defaults`]),
/// near-optimal declustering over `colors_required(dim)` disks, no
/// replicas, no page cache, and an empty [`FaultPolicy`].
///
/// The engine keeps the builder it was built from as its recipe: every
/// [`crate::ParallelKnnEngine::reorganize`] builds from it again.
#[derive(Clone)]
pub struct EngineBuilder {
    pub(crate) config: EngineConfig,
    disks: Option<usize>,
    declusterer: Option<Arc<dyn Declusterer>>,
    replicas: usize,
    pub(crate) page_cache: Option<usize>,
    pub(crate) cache_shards: usize,
    pub(crate) fault_policy: FaultPolicy,
    pub(crate) execution: ExecutionMode,
    pub(crate) metrics: bool,
    pub(crate) admission: Option<AdmissionConfig>,
    pub(crate) ingest: Option<IngestConfig>,
    pub(crate) lsh: Option<LshConfig>,
}

impl EngineBuilder {
    /// A builder for `dim`-dimensional data with the paper's defaults.
    pub fn new(dim: usize) -> Self {
        EngineBuilder {
            config: EngineConfig::paper_defaults(dim),
            disks: None,
            declusterer: None,
            replicas: 0,
            page_cache: None,
            cache_shards: DEFAULT_CACHE_SHARDS,
            fault_policy: FaultPolicy::default(),
            execution: ExecutionMode::default(),
            metrics: false,
            admission: None,
            ingest: None,
            lsh: None,
        }
    }

    /// Replaces the whole configuration (keeps every other builder knob).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the disk count for the default near-optimal declustering.
    ///
    /// Without replicas the count is capped at `colors_required(dim)` —
    /// extra disks could never receive data. With replicas the surplus
    /// disks become dedicated mirror spares (and make the replica
    /// placement conflict-free). Ignored when an explicit
    /// [`EngineBuilder::declusterer`] is set, except that a mismatch with
    /// the declusterer's own disk count is an error.
    pub fn disks(mut self, disks: usize) -> Self {
        self.disks = Some(disks);
        self
    }

    /// Uses an explicit declusterer instead of the default near-optimal
    /// one. With [`EngineBuilder::replicas`], mirrors are routed by the
    /// chained rule (`(primary + 1) mod n`) since an arbitrary
    /// declusterer carries no placement of its own.
    pub fn declusterer(mut self, declusterer: Arc<dyn Declusterer>) -> Self {
        self.declusterer = Some(declusterer);
        self
    }

    /// Number of replica copies per bucket (0 or 1). With one replica
    /// every bucket is mirrored on a second disk chosen by
    /// [`ReplicaDeclusterer`] to avoid the primaries of the bucket's
    /// neighbors, and queries survive disk failures.
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Installs an LRU page cache of `capacity` pages in front of every
    /// disk's primary tree. The cache is sharded (see
    /// [`EngineBuilder::cache_shards`]) so concurrent searches of the
    /// same disk never serialize on one global cache mutex.
    pub fn page_cache(mut self, capacity: usize) -> Self {
        self.page_cache = Some(capacity);
        self
    }

    /// Number of independently locked LRU shards per disk cache (clamped
    /// to at least 1; default [`DEFAULT_CACHE_SHARDS`]). One shard is
    /// exact global LRU behind a single lock — the pre-sharding behavior.
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards.max(1);
        self
    }

    /// Chooses who drives the query stages: the calling thread (the
    /// default) or the persistent per-disk worker pool. See
    /// [`ExecutionMode`].
    pub fn execution(mut self, execution: ExecutionMode) -> Self {
        self.execution = execution;
        self
    }

    /// Sets the engine-wide degraded-mode defaults (per-disk timeout
    /// budget and flaky-read retry policy).
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }

    /// Turns the engine-wide metrics registry on or off (default **off**).
    ///
    /// With metrics on, every layer records cumulative counters, gauges,
    /// and modeled-latency histograms readable through
    /// [`crate::ParallelKnnEngine::metrics`] /
    /// [`crate::EngineMetrics::snapshot`]. With the default off, the
    /// query path carries no extra atomic operations at all.
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Turns on the serve layer: bounded per-disk admission queues with
    /// backpressure, optional per-query modeled deadlines, and optional
    /// cross-query page coalescing (see
    /// [`AdmissionConfig`] and the [`crate::serve`] module docs).
    /// Implies [`ExecutionMode::Pooled`] — admission control is a
    /// property of the persistent worker pool's queues.
    pub fn admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self.execution = ExecutionMode::Pooled;
        self
    }

    /// Turns on streaming ingest: the engine accepts
    /// [`crate::ParallelKnnEngine::insert`] /
    /// [`crate::ParallelKnnEngine::remove`] while queries run, buffering
    /// writes in a bounded delta overlay that every query merges exactly
    /// (see [`IngestConfig`] and the [`crate::ingest`] module docs).
    /// Without this knob the engine is read-only after bulk load and
    /// writes fail with [`EngineError::ReadOnly`].
    pub fn ingest(mut self, ingest: IngestConfig) -> Self {
        self.ingest = Some(ingest);
        self
    }

    /// Attaches the approximate tier: seeded random-projection LSH
    /// tables, fitted and declustered over the disks next to the exact
    /// trees at bulk load (and re-fitted by every
    /// [`crate::ParallelKnnEngine::reorganize`]). Exact-mode queries are
    /// unaffected — answers stay bit-identical with or without this knob;
    /// [`crate::QueryMode::Approx`] queries scan the hash buckets instead
    /// of the trees. Without this knob, `Approx` queries fail with
    /// [`EngineError::ApproxUnavailable`]. See `docs/TUNING.md` for
    /// choosing table and probe counts.
    pub fn approx(mut self, config: LshConfig) -> Self {
        self.lsh = Some(config);
        self
    }

    /// Sets the k-NN algorithm (RKV or HS).
    pub fn algorithm(mut self, algorithm: KnnAlgorithm) -> Self {
        self.config.algorithm = algorithm;
        self
    }

    /// Sets the engine-wide leaf-scan precision tier (default
    /// [`ScanTier::F64`]). Every tier returns bit-identical answers;
    /// the cheap tiers trade f64 kernel work for certified low-precision
    /// lower-bound scans. Individual queries can override via
    /// [`crate::QueryOptions::with_tier`]. See `docs/TUNING.md`.
    pub fn scan_tier(mut self, tier: ScanTier) -> Self {
        self.config.tier = tier;
        self
    }

    /// Sets the engine-wide leaf-scan coordinate order (default
    /// [`ScanOrder::Natural`]). With [`ScanOrder::Energy`] every bulk
    /// load — and every [`crate::ParallelKnnEngine::reorganize`] rebuild —
    /// stores leaf rows with coordinates permuted by descending per-leaf
    /// variance, so bounded scans cross the pruning bound earlier.
    /// Answers stay bit-identical on every tier; see `DESIGN.md` ("Scan
    /// order") and `docs/TUNING.md`.
    pub fn scan_order(mut self, order: ScanOrder) -> Self {
        self.config.order = order;
        self
    }

    /// Sets the index variant of the per-disk trees.
    pub fn variant(mut self, variant: TreeVariant) -> Self {
        self.config.variant = variant;
        self
    }

    /// Sets the quadrant split strategy for bucket-based declustering.
    pub fn split_strategy(mut self, splits: SplitStrategy) -> Self {
        self.config.splits = splits;
        self
    }

    /// Sets the disk service-time model.
    pub fn disk_model(mut self, model: DiskModel) -> Self {
        self.config.disk_model = model;
        self
    }

    /// Builds the engine over `points`, bulk-loading one tree per disk
    /// (plus mirror trees when replicas are on). Item ids are the indexes
    /// into `points`.
    pub fn build(&self, points: &[Point]) -> Result<ParallelKnnEngine, EngineError> {
        self.build_with_items(
            points
                .iter()
                .enumerate()
                .map(|(i, p)| (p.clone(), i as u64))
                .collect(),
        )
    }

    /// Builds the engine over explicitly identified items — `(point, id)`
    /// pairs with caller-chosen ids. This is [`EngineBuilder::build`] with
    /// control over the item ids, which matters when reconstructing an
    /// engine from a prior engine's contents (where ids must survive the
    /// round trip). Duplicate ids are rejected.
    pub fn build_with_items(
        &self,
        items: Vec<(Point, u64)>,
    ) -> Result<ParallelKnnEngine, EngineError> {
        if items.is_empty() {
            return Err(EngineError::EmptyDataSet);
        }
        if self.replicas > 1 {
            return Err(EngineError::Internal(
                "at most one replica per bucket is supported".to_owned(),
            ));
        }
        let mut seen = BTreeSet::new();
        for &(_, id) in &items {
            if !seen.insert(id) {
                return Err(EngineError::Internal(format!("duplicate item id {id}")));
            }
        }
        ParallelKnnEngine::from_recipe(self, items)
    }

    /// Chooses the declustering for a build over `items`: the explicit
    /// declusterer with chained mirrors, or the default one derived from
    /// the items — the paper's near-optimal coloring behind a quadrant
    /// partition, or, with replication, the [`ReplicaDeclusterer`] that
    /// places both copies. Every build and every reorganize resolves here
    /// exactly once.
    pub(crate) fn resolve(&self, items: &[(Point, u64)]) -> Result<ResolvedDecluster, EngineError> {
        let internal = |e: parsim_decluster::DeclusterError| EngineError::Internal(e.to_string());
        let Some(d) = &self.declusterer else {
            let splitter = make_splitter_of(items.iter().map(|(p, _)| p), &self.config)?;
            let dim = self.config.dim;
            let disks = self.disks.unwrap_or(colors_required(dim) as usize);
            if self.replicas == 1 {
                let rd = Arc::new(ReplicaDeclusterer::new(dim, disks, splitter).map_err(internal)?);
                return Ok((
                    Arc::clone(&rd) as Arc<dyn Declusterer>,
                    Some(rd as Arc<dyn ReplicaRouting>),
                ));
            }
            // `col` can use at most nextpow2(d+1) disks; extra disks could
            // never receive data, so the engine is capped to the usable count.
            let capped = disks.min(colors_required(dim) as usize);
            let method = NearOptimal::new(dim, capped).map_err(internal)?;
            return Ok((Arc::new(BucketBased::new(method, splitter)), None));
        };
        if let Some(n) = self.disks {
            if n != d.disks() {
                return Err(EngineError::DiskCountMismatch {
                    engine: n,
                    declusterer: d.disks(),
                });
            }
        }
        if self.replicas == 0 {
            return Ok((Arc::clone(d), None));
        }
        if d.disks() < 2 {
            return Err(EngineError::Internal(
                "replication needs at least two disks".to_owned(),
            ));
        }
        Ok((
            Arc::clone(d),
            Some(Arc::new(ChainedReplica::new(Arc::clone(d)))),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_datagen::{DataGenerator, UniformGenerator};
    use parsim_decluster::RoundRobin;

    #[test]
    fn default_disk_count_is_the_optimal_one() {
        let pts = UniformGenerator::new(5).generate(400, 1);
        let e = ParallelKnnEngine::builder(5).build(&pts).unwrap();
        assert_eq!(e.disks(), colors_required(5) as usize);
        assert!(!e.has_replicas());
    }

    #[test]
    fn disks_are_capped_without_replicas_but_not_with() {
        let pts = UniformGenerator::new(3).generate(400, 2);
        // colors_required(3) == 4: a 10-disk request folds back to 4...
        let plain = ParallelKnnEngine::builder(3).disks(10).build(&pts).unwrap();
        assert_eq!(plain.disks(), 4);
        // ...unless replicas are on — then the spares host mirrors.
        let replicated = ParallelKnnEngine::builder(3)
            .disks(10)
            .replicas(1)
            .build(&pts)
            .unwrap();
        assert_eq!(replicated.disks(), 10);
        assert!(replicated.has_replicas());
        // Primaries still only live on the first 4 disks.
        let loads = replicated.load_distribution();
        assert!(loads[4..].iter().all(|&l| l == 0), "loads: {loads:?}");
    }

    #[test]
    fn explicit_declusterer_with_replicas_uses_the_chained_rule() {
        let pts = UniformGenerator::new(4).generate(300, 3);
        let rr: Arc<dyn Declusterer> = Arc::new(RoundRobin::new(6).unwrap());
        let e = ParallelKnnEngine::builder(4)
            .declusterer(Arc::clone(&rr))
            .replicas(1)
            .build(&pts)
            .unwrap();
        assert!(e.has_replicas());
        // Round-robin primary i mirrors on (i + 1) mod 6.
        for d in 0..6 {
            assert_eq!(e.replica_disks_of(d), vec![(d + 1) % 6]);
        }
    }

    #[test]
    fn scan_tier_knob_sets_the_config() {
        let pts = UniformGenerator::new(4).generate(100, 5);
        let e = ParallelKnnEngine::builder(4)
            .scan_tier(ScanTier::F32)
            .build(&pts)
            .unwrap();
        assert_eq!(e.config().tier, ScanTier::F32);
        let d = ParallelKnnEngine::builder(4).build(&pts).unwrap();
        assert_eq!(d.config().tier, ScanTier::F64);
    }

    #[test]
    fn scan_order_knob_sets_the_config() {
        let pts = UniformGenerator::new(4).generate(100, 6);
        let e = ParallelKnnEngine::builder(4)
            .scan_order(ScanOrder::Energy)
            .build(&pts)
            .unwrap();
        assert_eq!(e.config().order, ScanOrder::Energy);
        let d = ParallelKnnEngine::builder(4).build(&pts).unwrap();
        assert_eq!(d.config().order, ScanOrder::Natural);
    }

    #[test]
    fn rejects_contradictory_requests() {
        let pts = UniformGenerator::new(4).generate(100, 4);
        let rr: Arc<dyn Declusterer> = Arc::new(RoundRobin::new(6).unwrap());
        assert!(matches!(
            ParallelKnnEngine::builder(4)
                .declusterer(Arc::clone(&rr))
                .disks(8)
                .build(&pts),
            Err(EngineError::DiskCountMismatch {
                engine: 8,
                declusterer: 6
            })
        ));
        assert!(ParallelKnnEngine::builder(4)
            .replicas(2)
            .build(&pts)
            .is_err());
        let one: Arc<dyn Declusterer> = Arc::new(RoundRobin::new(1).unwrap());
        assert!(ParallelKnnEngine::builder(4)
            .declusterer(one)
            .replicas(1)
            .build(&pts)
            .is_err());
    }
}
