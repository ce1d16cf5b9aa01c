//! The parallel k-NN engine.
//!
//! The engine's shared, thread-safe state (disk array, per-disk trees,
//! mirror trees) lives in an `EngineCore` behind an `Arc`, so the stage
//! machine of [`crate::pool`] runs the same per-disk steps against the
//! same data whether the caller's thread or a pool worker drives it.
//!
//! Since the streaming-ingest redesign the engine itself is a thin handle
//! over an `EngineShared`: the swappable `EngineInner` (core, caches and
//! pool) behind a `RwLock`, next to the [`EngineBuilder`] it was built
//! from — the one build recipe every rebuild reuses — and the write-path
//! state: the delta buffer of [`crate::ingest`], the id allocator, and
//! the shadow-rebuild machinery. Every maintenance operation takes `&self`;
//! [`ParallelKnnEngine::reorganize`] bulk-loads a replacement inner off
//! to the side and swaps it in atomically while queries keep running.
//! See `DESIGN.md` ("Query execution backbone", "Streaming ingest &
//! online reorganize") for the full picture.

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use parsim_decluster::quantile::median_splits_of;
use parsim_decluster::replica::ReplicaRouting;
use parsim_decluster::Declusterer;
use parsim_geometry::{Point, QuadrantSplitter};
use parsim_index::knn::{
    forest_itinerary, ForestCursor, Neighbor, ScanTier, SearchStats, SharedBound,
};
use parsim_index::{
    CachingSink, CoalescingSink, DiskSink, KnnAlgorithm, LshConfig, NodeSink, ScanOrder,
    SpatialTree, TreeParams,
};
use parsim_storage::{DiskArray, DiskModel, FaultInjector, FaultKind, QueryCost};

use crate::builder::{EngineBuilder, ResolvedDecluster};
use crate::config::{EngineConfig, SplitStrategy};
use crate::ingest::{DeltaOp, DeltaState, IngestConfig, QueryOverlay};
use crate::lsh::{merge_unique_candidates, DiskProbes, LshCounters, LshRuntime};
use crate::metrics::{DegradedInfo, QueryTrace};
use crate::obs::EngineMetrics;
use crate::options::{
    ExecutionMode, FaultPolicy, QueryMode, QueryOptions, QueryResult, RetryPolicy,
};
use crate::pool::{self, Completion, PendingQuery, Phase, QueryTask, Stage, WorkerPool};
use crate::serve::AdmissionConfig;
use crate::EngineError;

/// One query's answer on the batch path: neighbors plus the exact trace.
pub(crate) type TracedAnswer = Result<(Vec<Neighbor>, QueryTrace), EngineError>;

/// The paper's parallel similarity-search system: a declusterer assigns
/// every feature vector to one of `n` simulated disks, each disk carries a
/// local X-tree, and k-NN queries execute on all disks concurrently.
///
/// Engines are constructed with [`ParallelKnnEngine::builder`]. With
/// [`EngineBuilder::replicas`] every bucket additionally gets a mirror
/// copy on a second disk, and queries survive disk failures injected
/// through [`ParallelKnnEngine::faults`]: reads against a failed, flaky,
/// or over-budget disk **fail over** to the replicas and still return the
/// exact (bit-identical) answer.
///
/// With [`EngineBuilder::execution`] set to [`ExecutionMode::Pooled`] the
/// engine keeps one persistent worker thread per disk and queries are
/// enqueued ([`ParallelKnnEngine::submit`]) instead of running on the
/// caller's thread; dropping the engine drains in-flight queries and
/// joins the pool.
///
/// With [`EngineBuilder::ingest`] the engine additionally accepts writes
/// while queries run: [`ParallelKnnEngine::insert`] /
/// [`ParallelKnnEngine::remove`] land in a bounded delta buffer that
/// every query merges into its answer (always exact over
/// `index ∪ delta`), and [`ParallelKnnEngine::reorganize`] — now
/// non-consuming — drains the buffer through a background-capable shadow
/// rebuild with an atomic state swap.
pub struct ParallelKnnEngine {
    shared: Arc<EngineShared>,
}

/// Everything behind the engine handle that must be shared with the
/// background rebuild thread: the swappable inner under its lock, the
/// write-path state, and the registry that outlives every swap.
pub(crate) struct EngineShared {
    /// The swappable engine state. Queries take the read lock for the
    /// duration of submission (pooled) or execution (scoped);
    /// [`EngineShared::rebuild`] takes the write lock only for the final
    /// pointer swap.
    inner: RwLock<EngineInner>,
    /// The build recipe — every build setting, the write-path
    /// configuration among them (`ingest: None` means the engine is
    /// read-only and the delta buffer stays empty forever). Every
    /// [`EngineShared::rebuild`] builds from it again.
    recipe: EngineBuilder,
    /// The delta buffer. Lock order: `inner` before `delta`, always.
    delta: Mutex<DeltaState>,
    /// Item-id allocator; seeded past the largest bulk-loaded id.
    next_seq: AtomicU64,
    /// Serializes rebuilds: trigger storms and concurrent explicit
    /// `reorganize()` calls queue here instead of racing.
    maintenance: Mutex<()>,
    /// True while a triggered background rebuild is queued or running —
    /// collapses a burst of triggering writes into one rebuild.
    rebuild_running: AtomicBool,
    /// The most recent background rebuild thread, joined on engine drop
    /// (and opportunistically when the next one starts).
    rebuild_handle: Mutex<Option<JoinHandle<()>>>,
    /// The engine-wide metrics registry. Held here — above the swappable
    /// inner — so cumulative totals survive every reorganize.
    metrics: Option<Arc<EngineMetrics>>,
}

/// The swappable unit of engine state: what one build resolved — the
/// query-facing core, the declustering, the caches and the pool. A
/// shadow rebuild constructs a complete replacement `EngineInner` from
/// the same recipe and swaps it behind [`EngineShared::inner`]; dropping
/// the old one drains its worker pool against the old core.
pub(crate) struct EngineInner {
    core: Arc<EngineCore>,
    declusterer: Arc<dyn Declusterer>,
    replica_router: Option<Arc<dyn ReplicaRouting>>,
    /// Per-disk page caches; empty unless [`EngineBuilder::page_cache`]
    /// was set.
    caches: Vec<Arc<CachingSink>>,
    /// The persistent per-disk worker pool; `Some` iff the recipe asks
    /// for [`ExecutionMode::Pooled`]. Dropped (drained + joined) before
    /// the core when this inner is replaced or the engine goes away.
    pool: Option<WorkerPool>,
}

/// The engine state shared with the worker pool: the simulated disk
/// array plus the per-disk primary and mirror trees.
///
/// Trees sit behind [`RwLock`]s because pool workers outlive any `&mut
/// self` borrow of the engine: queries take read locks (one tree at a
/// time). Since the streaming-ingest redesign the trees are never
/// mutated in place — writes go to the delta buffer and materialize
/// through the shadow rebuild.
pub(crate) struct EngineCore {
    pub(crate) config: EngineConfig,
    pub(crate) array: DiskArray,
    pub(crate) trees: Vec<RwLock<SpatialTree>>,
    /// `mirrors[d][j]` is the tree holding the replica copies of disk
    /// `d`'s points that live on disk `j`. Empty maps when the engine was
    /// built without replicas. Mirror trees bypass the page caches: they
    /// are touched only on failover, so caching them would let rare
    /// degraded queries evict the hot primary working set.
    pub(crate) mirrors: Vec<RwLock<BTreeMap<usize, SpatialTree>>>,
    /// The approximate tier: the fitted LSH runtime, or `None` (the
    /// default) for an exact-only engine. Built from the same items as
    /// the trees at every bulk load, so index and LSH tier always agree
    /// on the main-index contents.
    pub(crate) lsh: Option<Arc<LshRuntime>>,
    /// The engine-wide metrics registry; `None` (the default) keeps the
    /// query path free of any additional atomic operations.
    pub(crate) metrics: Option<Arc<EngineMetrics>>,
    /// Serve-layer admission policy; `None` (the default) keeps the pool
    /// on unbounded FIFO queues with no deadlines and no coalescing.
    pub(crate) admission: Option<AdmissionConfig>,
    /// Engine-wide degraded-mode defaults (timeout budget, retry policy).
    pub(crate) fault_policy: FaultPolicy,
    /// Per-disk read-combining sinks; non-empty iff
    /// [`AdmissionConfig::coalescing`] is on. Workers open each popped
    /// task's wave on its disk's combiner before searching.
    pub(crate) coalescers: Vec<Arc<CoalescingSink>>,
    /// Test hook: every stage step panics while this is set.
    #[cfg(test)]
    pub(crate) panic_in_step: AtomicBool,
}

/// The mutable state of one stop-list query of either tier: its primary
/// stops, the failover stops planned after them, and the per-disk
/// results. The stage machine runs it step for step identically whoever
/// drives it (same retry draws, same failover order, same trace).
pub(crate) struct StopList {
    /// The verdict taken at submission: faults armed or a timeout budget
    /// set. A healthy list skips every fault check, so it plans no
    /// failover and its trace keeps the healthy modeled time and no
    /// degraded record.
    pub(crate) degraded: bool,
    pub(crate) timeout: Option<Duration>,
    pub(crate) retry: RetryPolicy,
    /// What one disk's share of the query is: a tree search or an LSH
    /// bucket scan.
    pub(crate) unit: Unit,
    pub(crate) extra_time: Vec<Duration>,
    pub(crate) candidates: Vec<Vec<Neighbor>>,
    pub(crate) down: Vec<usize>,
    pub(crate) failed_over: Vec<usize>,
    pub(crate) replica_pages: u64,
    pub(crate) retries_total: u64,
    /// Failover stops, in execution order: `(down disk, mirror host)`.
    pub(crate) itinerary: Vec<(usize, usize)>,
    /// A down disk discovered (during planning) to have no mirrors: the
    /// query fails with `BucketUnavailable` *after* the itinerary built so
    /// far has run.
    pub(crate) error_after: Option<usize>,
}

/// The unit of work a stop-list query runs on each disk it visits.
pub(crate) enum Unit {
    /// Exact tier: a tree search under the carried pruning bound. The
    /// tier and scan order ride along so primary and failover searches
    /// of one query always scan alike.
    Tree {
        bound: SharedBound,
        tier: ScanTier,
        order: ScanOrder,
    },
    /// Approximate tier: scans of the probe plan's buckets; a lost disk's
    /// buckets are read from its mirror shard.
    Lsh {
        plan: Vec<DiskProbes>,
        counters: LshCounters,
    },
}

impl StopList {
    pub(crate) fn new(
        disks: usize,
        degraded: bool,
        timeout: Option<Duration>,
        retry: RetryPolicy,
        unit: Unit,
    ) -> Self {
        StopList {
            degraded,
            timeout,
            retry,
            unit,
            extra_time: vec![Duration::ZERO; disks],
            candidates: vec![Vec::new(); disks],
            down: Vec::new(),
            failed_over: Vec::new(),
            replica_pages: 0,
            retries_total: 0,
            itinerary: Vec::new(),
            error_after: None,
        }
    }

    /// The disk of primary stop `pos`, or `None` once the primaries are
    /// done: every disk in order for a tree search, the probe plan's
    /// disks for an LSH scan.
    pub(crate) fn primary_stop(&self, pos: usize, disks: usize) -> Option<usize> {
        match &self.unit {
            Unit::Tree { .. } => (pos < disks).then_some(pos),
            Unit::Lsh { plan, .. } => plan.get(pos).map(|p| p.disk),
        }
    }
}

/// A cloneable handle on the engine's fault injector, valid across
/// reorganize swaps of the engine that produced it (it pins the core it
/// was taken from). Dereferences to [`FaultInjector`].
pub struct FaultsHandle(Arc<EngineCore>);

impl Deref for FaultsHandle {
    type Target = FaultInjector;
    fn deref(&self) -> &FaultInjector {
        self.0.array.faults()
    }
}

/// A handle on the engine's simulated disk array (for experiment
/// accounting), pinning the core it was taken from. Dereferences to
/// [`DiskArray`].
pub struct ArrayHandle(Arc<EngineCore>);

impl Deref for ArrayHandle {
    type Target = DiskArray;
    fn deref(&self) -> &DiskArray {
        &self.0.array
    }
}

impl EngineCore {
    /// Opens coalescing wave `wave` on `disk`'s read-combining window —
    /// a no-op without coalescing sinks installed. Correctness never
    /// depends on the window state: a reset window only forgoes
    /// read-sharing, it cannot mis-coalesce.
    pub(crate) fn begin_wave(&self, disk: usize, wave: u64) {
        if let Some(c) = self.coalescers.get(disk) {
            c.begin_wave(wave);
        }
    }

    /// The RKV itinerary of the current trees (see
    /// [`parsim_index::forest_itinerary`]).
    pub(crate) fn itinerary(&self, query: &Point) -> Vec<(f64, usize)> {
        let guards: Vec<_> = self.trees.iter().map(|t| t.read()).collect();
        let refs: Vec<&SpatialTree> = guards.iter().map(|g| &**g).collect();
        forest_itinerary(&refs, query)
    }

    /// One RKV pipeline hop: visit tree `disk` with the traveling cursor.
    pub(crate) fn cursor_visit(
        &self,
        disk: usize,
        cursor: &mut ForestCursor,
        query: &Point,
        stats: &mut SearchStats,
    ) {
        cursor.visit(&self.trees[disk].read(), query, stats);
    }

    /// Runs a stop-list query's unit of work on disk `d`'s data: the
    /// primary tree or LSH shard when `host` is `None`, its mirror on
    /// `host` otherwise.
    fn search_stop(
        &self,
        d: usize,
        host: Option<usize>,
        query: &Point,
        k: usize,
        unit: &mut Unit,
    ) -> (Vec<Neighbor>, SearchStats) {
        match unit {
            Unit::Tree { bound, tier, order } => {
                let search = |tree: &SpatialTree| {
                    let algorithm = self.config.algorithm;
                    tree.knn_traced_ordered(query, k, algorithm, Some(bound), *tier, *order)
                };
                match host {
                    None => search(&self.trees[d].read()),
                    Some(host) => {
                        let mirrors = self.mirrors[d].read();
                        search(mirrors.get(&host).expect("planned failover host exists"))
                    }
                }
            }
            Unit::Lsh { plan, counters } => {
                let lsh = self
                    .lsh
                    .as_ref()
                    .expect("an Approx query needs the LSH tier");
                let buckets = &plan
                    .iter()
                    .find(|p| p.disk == d)
                    .expect("a stop is on the probe plan")
                    .buckets;
                let mut stats = SearchStats::default();
                let cands = match host {
                    None => lsh.scan_disk(d, buckets, query, k, &mut stats, counters),
                    Some(_) => lsh.scan_mirror(d, buckets, query, k, &mut stats, counters),
                };
                (cands, stats)
            }
        }
    }

    /// The flaky-read verdict of `pages` reads on `disk`: a flaky disk
    /// replays its error stream under the retry policy, charging retries
    /// and backoff to the disk. False means the disk is abandoned.
    fn survives_flaky_reads(&self, disk: usize, pages: u64, list: &mut StopList) -> bool {
        let faults = self.array.faults();
        if !matches!(faults.fault(disk), Some(FaultKind::Flaky { .. })) {
            return true;
        }
        let (retries, extra, ok) =
            simulate_flaky_reads(faults, disk, pages, &list.retry, self.array.model());
        list.retries_total += retries;
        list.extra_time[disk] += extra;
        ok
    }

    /// The primary step of one disk: search it, and — degraded only —
    /// skip it if hard-failed, replay the flaky-read error stream, and
    /// apply the timeout budget. An unusable disk joins `list.down`.
    pub(crate) fn run_primary(
        &self,
        disk: usize,
        query: &Point,
        k: usize,
        list: &mut StopList,
        stats: &mut [SearchStats],
    ) {
        let faults = self.array.faults();
        if list.degraded && faults.is_failed(disk) {
            list.down.push(disk);
            return;
        }
        let (cands, s) = self.search_stop(disk, None, query, k, &mut list.unit);
        stats[disk].merge(s);
        let alive = !list.degraded
            || (self.survives_flaky_reads(disk, s.pages, list)
                && list.timeout.map_or(true, |budget| {
                    let model = faults.model_for(disk, self.array.model());
                    model.service_time(stats[disk].pages) + list.extra_time[disk] <= budget
                }));
        if alive {
            list.candidates[disk] = cands;
        } else {
            // The pages were read (and are charged) but the answer is not
            // trusted: the disk's buckets fail over.
            list.down.push(disk);
        }
    }

    /// Plans the failover itinerary once every primary step ran: each
    /// down disk contributes its mirror hosts in ascending order (a tree
    /// disk holding no data needs none). A down disk with no mirror
    /// truncates the plan and records the error, so the query fails only
    /// after the stops before it ran.
    pub(crate) fn plan_failover(&self, list: &mut StopList) {
        for i in 0..list.down.len() {
            let d = list.down[i];
            let hosts: Vec<usize> = match &list.unit {
                Unit::Tree { .. } if self.trees[d].read().is_empty() => continue,
                Unit::Tree { .. } => self.mirrors[d].read().keys().copied().collect(),
                Unit::Lsh { .. } => self
                    .lsh
                    .as_ref()
                    .and_then(|l| l.mirror_host(d))
                    .into_iter()
                    .collect(),
            };
            if hosts.is_empty() {
                list.error_after = Some(d);
                break;
            }
            list.itinerary
                .extend(hosts.into_iter().map(|host| (d, host)));
        }
    }

    /// Executes failover stop `pos` of the planned itinerary: search the
    /// mirror of the down disk on its host, replaying the host's flaky
    /// stream. Errors if the host itself is failed or flaky beyond the
    /// retry policy.
    pub(crate) fn run_failover(
        &self,
        pos: usize,
        query: &Point,
        k: usize,
        list: &mut StopList,
        stats: &mut [SearchStats],
    ) -> Result<(), EngineError> {
        let (d, host) = list.itinerary[pos];
        if self.array.faults().is_failed(host) {
            return Err(EngineError::BucketUnavailable { disk: d });
        }
        let (cands, s) = self.search_stop(d, Some(host), query, k, &mut list.unit);
        if !self.survives_flaky_reads(host, s.pages, list) {
            return Err(EngineError::BucketUnavailable { disk: d });
        }
        list.replica_pages += s.pages;
        stats[host].merge(s);
        list.candidates[host].extend(cands);
        // The down disk is fully served once its last host ran.
        if list.itinerary.get(pos + 1).map(|&(nd, _)| nd) != Some(d) {
            list.failed_over.push(d);
        }
        Ok(())
    }

    /// Merges a finished stop-list query into its answer. A degraded one
    /// also completes its trace: the degraded critical path charges every
    /// disk its fault-scaled service time plus retry backoff; timed-out
    /// disks charge the budget; hard-failed disks charge nothing.
    pub(crate) fn finish_stops(
        &self,
        list: StopList,
        k: usize,
        trace: &mut QueryTrace,
    ) -> Result<Vec<Neighbor>, EngineError> {
        if let Some(d) = list.error_after {
            return Err(EngineError::BucketUnavailable { disk: d });
        }
        if list.degraded {
            let faults = self.array.faults();
            let model = self.array.model();
            let mut modeled_parallel = Duration::ZERO;
            for (i, &pages) in trace.per_disk_pages.iter().enumerate() {
                let mut t = faults.model_for(i, model).service_time(pages) + list.extra_time[i];
                if list.down.contains(&i) {
                    if faults.is_failed(i) {
                        t = Duration::ZERO;
                    } else if let Some(budget) = list.timeout {
                        t = t.min(budget);
                    }
                }
                modeled_parallel = modeled_parallel.max(t);
            }
            let healthy_parallel = trace.modeled_parallel;
            trace.modeled_parallel = modeled_parallel;
            trace.degraded = Some(DegradedInfo {
                failed_over: list.failed_over,
                retries: list.retries_total,
                replica_pages: list.replica_pages,
                added_latency: modeled_parallel.saturating_sub(healthy_parallel),
            });
        }
        let locals = list.candidates.iter().map(Vec::as_slice);
        Ok(match list.unit {
            Unit::Tree { .. } => merge_candidates(locals, k),
            Unit::Lsh { counters, .. } => {
                counters.fold_into(trace);
                merge_unique_candidates(locals, k)
            }
        })
    }
}

impl EngineInner {
    /// Bulk-loads one complete engine state: one primary tree per disk
    /// and, when a replica router is supplied, one mirror tree per
    /// (source disk, mirror disk) pair; sink chains (`DiskSink`,
    /// optionally wrapped by a sharded LRU [`CachingSink`], optionally
    /// wrapped by a [`CoalescingSink`] — outermost first) installed at
    /// construction. With [`ExecutionMode::Pooled`] the per-disk worker
    /// pool starts eagerly, before the first query.
    fn build(
        recipe: &EngineBuilder,
        items: Vec<(Point, u64)>,
        (declusterer, replica_router): ResolvedDecluster,
        metrics: Option<Arc<EngineMetrics>>,
    ) -> Result<EngineInner, EngineError> {
        let config = recipe.config;
        for (p, _) in &items {
            if p.dim() != config.dim {
                return Err(EngineError::DimensionMismatch {
                    expected: config.dim,
                    got: p.dim(),
                });
            }
        }
        let disks = declusterer.disks();
        let array = DiskArray::new(disks, config.disk_model)
            .map_err(|e| EngineError::Internal(e.to_string()))?;
        if let Some(m) = &metrics {
            array.faults().set_metrics(m.fault_metrics());
        }

        // The approximate tier fits its hash family and shards on the
        // same item set the trees are about to bulk-load, before the
        // partitioning below consumes it.
        let lsh = recipe.lsh.map(|cfg| {
            Arc::new(LshRuntime::build(
                cfg,
                config.dim,
                &items,
                disks,
                replica_router.is_some(),
            ))
        });

        // Partition the items over the disks; with replication every
        // point also lands in the mirror partition its router picks.
        let mut partitions: Vec<Vec<(Point, u64)>> = vec![Vec::new(); disks];
        let mut mirror_parts: Vec<BTreeMap<usize, Vec<(Point, u64)>>> =
            vec![BTreeMap::new(); disks];
        for (p, item) in items {
            let disk = declusterer.assign(item, &p);
            if let Some(router) = &replica_router {
                let mirror = router.replica_disk(item, &p);
                mirror_parts[disk]
                    .entry(mirror)
                    .or_default()
                    .push((p.clone(), item));
            }
            partitions[disk].push((p, item));
        }

        // One bulk-loaded tree per disk, charging that disk. The sink
        // chain wraps the disk at construction: a coalesced visit skips
        // the cache entirely and leaves the LRU state exactly as an
        // uncoalesced replay would expect.
        let coalescing = recipe.admission.is_some_and(|a| a.coalescing);
        let mut caches = Vec::new();
        let mut coalescers = Vec::new();
        let mut trees = Vec::with_capacity(disks);
        for (i, part) in partitions.into_iter().enumerate() {
            let params = TreeParams::for_dim(config.dim, config.variant)
                .map_err(|e| EngineError::Internal(e.to_string()))?
                .with_scan_order(config.order);
            let mut tree = SpatialTree::bulk_load(params, part)
                .map_err(|e| EngineError::Internal(e.to_string()))?
                .with_disk(Arc::clone(array.disk(i)));
            if recipe.page_cache.is_some() || coalescing {
                let mut sink: Arc<dyn NodeSink> = Arc::new(DiskSink(Arc::clone(array.disk(i))));
                if let Some(capacity) = recipe.page_cache {
                    let cm = metrics.as_ref().map(|m| m.cache_metrics(i));
                    let shards = recipe.cache_shards;
                    let cache = Arc::new(CachingSink::with_metrics(sink, capacity, shards, cm));
                    caches.push(Arc::clone(&cache));
                    sink = cache;
                }
                if coalescing {
                    let combiner = Arc::new(CoalescingSink::new(sink));
                    coalescers.push(Arc::clone(&combiner));
                    sink = combiner;
                }
                tree = tree.with_sink(sink);
            }
            trees.push(tree);
        }

        // Mirror trees charge the disk that hosts the replica.
        let mut mirrors = Vec::with_capacity(disks);
        for parts in mirror_parts {
            let mut per_host = BTreeMap::new();
            for (host, part) in parts {
                let params = TreeParams::for_dim(config.dim, config.variant)
                    .map_err(|e| EngineError::Internal(e.to_string()))?
                    .with_scan_order(config.order);
                let tree = SpatialTree::bulk_load(params, part)
                    .map_err(|e| EngineError::Internal(e.to_string()))?
                    .with_disk(Arc::clone(array.disk(host)));
                per_host.insert(host, tree);
            }
            mirrors.push(per_host);
        }

        let core = Arc::new(EngineCore {
            config,
            array,
            trees: trees.into_iter().map(RwLock::new).collect(),
            mirrors: mirrors.into_iter().map(RwLock::new).collect(),
            lsh,
            metrics,
            admission: recipe.admission,
            fault_policy: recipe.fault_policy,
            coalescers,
            #[cfg(test)]
            panic_in_step: AtomicBool::new(false),
        });
        let pool = (recipe.execution == ExecutionMode::Pooled)
            .then(|| WorkerPool::start(Arc::clone(&core)));
        Ok(EngineInner {
            core,
            declusterer,
            replica_router,
            caches,
            pool,
        })
    }

    /// Builds the query's task and runs it: hands it to the pool
    /// (pooled mode) or drives it to completion on the calling thread
    /// (scoped mode). Every query of every path is built and started
    /// here. `wave` groups queries into one coalescing wave; `None` draws
    /// a fresh (private) wave. `overlay` is the query's delta-buffer
    /// snapshot: the search runs with `k` inflated by its tombstone count
    /// and the handle merges the snapshot into the answer on
    /// [`PendingQuery::wait`].
    pub(crate) fn submit_with_wave(
        &self,
        query: &Point,
        opts: &QueryOptions,
        wave: Option<u64>,
        overlay: Option<QueryOverlay>,
    ) -> Result<PendingQuery, EngineError> {
        let core = &self.core;
        let lsh = match opts.mode {
            QueryMode::Exact => None,
            QueryMode::Approx { probes } => Some((
                core.lsh.as_ref().ok_or(EngineError::ApproxUnavailable)?,
                probes,
            )),
        };
        if let Some(m) = &core.metrics {
            m.record_start();
        }
        let (timeout, retry) = self.resolve_policy(opts);
        let tier = opts.tier.unwrap_or(core.config.tier);
        let order = opts.order.unwrap_or(core.config.order);
        let k = opts.k + overlay.as_ref().map_or(0, QueryOverlay::extra_k);
        let n = core.trees.len();
        let start = Instant::now();
        // An `Approx` query with nothing to find completes at once, even
        // degraded: it reads no bucket.
        let plan = lsh.map(|(l, probes)| match k {
            0 => Vec::new(),
            _ => l.plan(query, probes),
        });
        let degraded = (timeout.is_some() || core.array.faults().any_armed())
            && plan.as_ref().map_or(true, |p| !p.is_empty());
        let stage = match plan {
            None if !degraded && core.config.algorithm == KnnAlgorithm::Rkv => Stage::Rkv {
                cursor: ForestCursor::with_tier_order(k, tier, order),
                itinerary: match k {
                    0 => Vec::new(),
                    _ => core.itinerary(query),
                },
                pos: 0,
            },
            plan => {
                let unit = match plan {
                    Some(plan) => Unit::Lsh {
                        plan,
                        counters: LshCounters::default(),
                    },
                    None => Unit::Tree {
                        bound: SharedBound::new(),
                        tier,
                        order,
                    },
                };
                Stage::Stops {
                    list: StopList::new(n, degraded, timeout, retry, unit),
                    phase: Phase::Primaries { pos: 0 },
                }
            }
        };
        // The first disk to visit; `None` when there is nothing to
        // search and the task completes on the spot (a healthy `k = 0`
        // query reads nothing).
        let first = match &stage {
            Stage::Rkv { itinerary, .. } => itinerary.first().map(|&(_, disk)| disk),
            Stage::Stops { list, .. } if degraded || k > 0 => list.primary_stop(0, n),
            Stage::Stops { .. } => None,
        };
        let completion = Arc::new(Completion::new());
        let pending = PendingQuery::new(
            Arc::clone(&completion),
            opts.trace,
            *core.array.model(),
            overlay,
        );
        let deadline = opts.deadline.or(core.admission.and_then(|a| a.deadline));
        let task = Box::new(QueryTask {
            query: query.clone(),
            k,
            stats: vec![SearchStats::default(); n],
            start,
            stage,
            completion,
            wave: wave
                .or_else(|| self.pool.as_ref().map(WorkerPool::next_wave))
                .unwrap_or(0),
            deadline_micros: deadline.map(|d| d.as_micros() as u64),
            spent_micros: 0,
            seq: 0,
        });
        match (first, &self.pool) {
            (None, _) => pool::complete(core, *task),
            (Some(first), None) => pool::run_inline(core, first, task),
            (Some(first), Some(pool)) => {
                if let Err(e) = pool.submit(first, task) {
                    // The task never entered the system: surface the typed
                    // rejection instead of the (never-completing) handle.
                    if let Some(m) = &core.metrics {
                        m.record_shed_overloaded();
                    }
                    return Err(e);
                }
            }
        }
        Ok(pending)
    }

    fn resolve_policy(&self, opts: &QueryOptions) -> (Option<Duration>, RetryPolicy) {
        (
            opts.timeout.or(self.core.fault_policy.timeout),
            opts.retry.unwrap_or(self.core.fault_policy.retry),
        )
    }
}

impl EngineShared {
    /// The query's delta snapshot, taken under the delta lock — its
    /// linearization point. `None` (the common read-only / empty-delta
    /// case) keeps the query path allocation- and merge-free.
    fn overlay_for(&self, query: &Point, k: usize) -> Option<QueryOverlay> {
        if self.recipe.ingest.is_none() || k == 0 {
            return None;
        }
        self.delta.lock().overlay(query, k)
    }

    /// True when the write that just applied should trigger a rebuild:
    /// the delta crossed its size threshold, or the projected per-disk
    /// load imbalance (`max/avg`, counting buffered inserts toward the
    /// disks the current declusterer gives them) crossed the skew knob.
    fn rebuild_due(&self, cfg: &IngestConfig, inner: &EngineInner, delta: &DeltaState) -> bool {
        if cfg.rebuild_threshold.is_some_and(|t| delta.size() >= t) {
            return true;
        }
        let Some(threshold) = cfg.imbalance_threshold else {
            return false;
        };
        let per_disk = delta.per_disk();
        let loads: Vec<usize> = inner
            .core
            .trees
            .iter()
            .enumerate()
            .map(|(d, t)| t.read().len() + per_disk.get(d).copied().unwrap_or(0))
            .collect();
        let total: usize = loads.iter().sum();
        if total == 0 || loads.is_empty() {
            return false;
        }
        let max = *loads.iter().max().expect("non-empty") as f64;
        let avg = total as f64 / loads.len() as f64;
        max / avg > threshold
    }

    /// Launches (or coalesces into) a background shadow rebuild. A burst
    /// of triggering writes starts one rebuild: the `rebuild_running`
    /// flag stays up until the thread finishes, and the maintenance lock
    /// serializes it against explicit `reorganize()` calls.
    fn spawn_rebuild(self: &Arc<Self>) {
        if self
            .rebuild_running
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        let shared = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("parsim-rebuild".into())
            .spawn(move || {
                // A failed background rebuild (e.g. every point removed)
                // leaves the delta intact and is already recorded in the
                // rebuild-failure counter; there is no caller to surface
                // the error to.
                let _ = EngineShared::rebuild(&shared);
                shared.rebuild_running.store(false, Ordering::Release);
            })
            .expect("spawn rebuild thread");
        let prev = self.rebuild_handle.lock().replace(handle);
        if let Some(prev) = prev {
            let _ = prev.join();
        }
    }

    /// The shadow rebuild: bulk-loads a complete replacement
    /// `EngineInner` from `index ∪ delta` off to the side — queries
    /// and writes keep running the whole time — then swaps it in
    /// atomically and replays the writes that arrived during the build
    /// into the fresh delta buffer. Dropping the old inner drains its
    /// worker pool (the PR-4 in-flight counter), so in-flight queries
    /// finish against the state they started on.
    ///
    /// The metrics registry is *carried over*, not reset: cumulative
    /// totals span the swap.
    fn rebuild(shared: &EngineShared) -> Result<(), EngineError> {
        let _guard = shared.maintenance.lock();
        let old_core = Arc::clone(&shared.inner.read().core);
        let disks = old_core.array.len();

        // Snapshot the delta and open the journal capture: from here on
        // every write keeps applying to the buffer *and* is recorded for
        // post-swap replay.
        let (live, tombstones) = shared.delta.lock().begin_rebuild();

        // The rebuild input: every non-tombstoned main-index point plus
        // the buffered live points, in item order (so a rebuild of the
        // same logical set is bit-identical to a fresh bulk load).
        let mut items: Vec<(Point, u64)> = Vec::new();
        for tree in &old_core.trees {
            let tree = tree.read();
            for node in tree.iter_nodes() {
                if let parsim_index::node::Node::Leaf { entries, .. } = node {
                    for (row, item) in entries.iter() {
                        if !tombstones.contains(&item) {
                            items.push((Point::from_vec(row.to_vec()), item));
                        }
                    }
                }
            }
        }
        items.extend(live);
        items.sort_by_key(|&(_, item)| item);
        let total_points = items.len();
        // The ids going into the new index, sorted (items is) — consulted
        // by the journal replay below to drop tombstones for ids the
        // rebuild already purged.
        let new_ids: Vec<u64> = items.iter().map(|&(_, item)| item).collect();

        // The recipe re-derives a default declustering from the current
        // points (an explicit declusterer is reused verbatim), and the
        // LSH tier re-fits the same seeded family on them.
        let built = if items.is_empty() {
            Err(EngineError::EmptyDataSet)
        } else {
            shared.recipe.resolve(&items).and_then(|resolved| {
                EngineInner::build(&shared.recipe, items, resolved, shared.metrics.clone())
            })
        };
        let new_inner = match built {
            Ok(inner) => inner,
            Err(e) => {
                // Abort: close the capture window (the buffer tracked
                // everything normally, so no recovery is needed) and
                // leave the old state serving.
                shared.delta.lock().end_rebuild();
                if let Some(m) = &shared.metrics {
                    m.record_rebuild_failed();
                }
                return Err(e);
            }
        };

        // The atomic swap. Holding the inner write lock excludes new
        // query submissions for the duration of the pointer swap and the
        // journal replay only; in-flight pooled queries are untouched —
        // their workers hold their own Arc to the old core.
        let old = {
            let mut inner = shared.inner.write();
            let old = std::mem::replace(&mut *inner, new_inner);
            let mut delta = shared.delta.lock();
            let tail = delta.end_rebuild();
            *delta = DeltaState::new(disks);
            for op in tail {
                match op {
                    DeltaOp::Insert(point, item) => {
                        let disk = inner.declusterer.assign(item, &point);
                        delta.apply_insert(point, item, disk);
                    }
                    DeltaOp::Remove(item) => {
                        // A journaled remove may target an id the rebuild
                        // already purged (tombstoned before the build
                        // began, re-removed during it). Replaying it would
                        // lay a tombstone that masks nothing and
                        // undercount `len()` until the next rebuild —
                        // replay only when the id still exists, in the
                        // new index or as a just-replayed buffered insert.
                        if delta.contains_live(item) || new_ids.binary_search(&item).is_ok() {
                            let d = Arc::clone(&inner.declusterer);
                            delta.apply_remove(item, &|id, p| d.assign(id, p));
                        }
                    }
                }
            }
            if let Some(m) = &shared.metrics {
                m.record_rebuild(total_points as u64, delta.live_len(), delta.tombstone_len());
            }
            old
        };
        // Dropping the old inner outside every lock: its pool drain
        // (joining worker threads mid-query) must not block writers.
        drop(old);
        Ok(())
    }
}

impl ParallelKnnEngine {
    /// Starts building an engine for `dim`-dimensional data with the
    /// paper's default configuration. See [`EngineBuilder`].
    pub fn builder(dim: usize) -> EngineBuilder {
        EngineBuilder::new(dim)
    }

    /// The constructor behind [`EngineBuilder::build`]: resolves the
    /// recipe's declustering, sets up the shared write-path state and
    /// bulk-loads the first `EngineInner`.
    pub(crate) fn from_recipe(
        recipe: &EngineBuilder,
        items: Vec<(Point, u64)>,
    ) -> Result<Self, EngineError> {
        let resolved = recipe.resolve(&items)?;
        let disks = resolved.0.disks();
        let metrics = recipe
            .metrics
            .then(|| Arc::new(EngineMetrics::new(disks, recipe.cache_shards)));
        let next_seq = items.iter().map(|&(_, id)| id + 1).max().unwrap_or(0);
        let inner = EngineInner::build(recipe, items, resolved, metrics.clone())?;
        Ok(ParallelKnnEngine {
            shared: Arc::new(EngineShared {
                inner: RwLock::new(inner),
                recipe: recipe.clone(),
                delta: Mutex::new(DeltaState::new(disks)),
                next_seq: AtomicU64::new(next_seq),
                maintenance: Mutex::new(()),
                rebuild_running: AtomicBool::new(false),
                rebuild_handle: Mutex::new(None),
                metrics,
            }),
        })
    }

    /// The per-disk page caches (empty for an uncached engine), as of
    /// the current engine state — a reorganize swap installs fresh ones.
    pub fn caches(&self) -> Vec<Arc<CachingSink>> {
        self.shared.inner.read().caches.clone()
    }

    /// The engine's configuration.
    pub fn config(&self) -> EngineConfig {
        self.shared.inner.read().core.config
    }

    /// Number of disks.
    pub fn disks(&self) -> usize {
        self.shared.inner.read().core.array.len()
    }

    /// How this engine executes queries (set at build time).
    pub fn execution(&self) -> ExecutionMode {
        self.shared.recipe.execution
    }

    /// The declusterer in use. After a reorganize of a default-built
    /// engine this is the freshly re-derived declustering.
    pub fn declusterer(&self) -> Arc<dyn Declusterer> {
        Arc::clone(&self.shared.inner.read().declusterer)
    }

    /// The fault injector of the underlying disk array: mark disks
    /// failed, slow, or flaky here and the engine's degraded execution
    /// takes over. The handle pins the current engine state; a
    /// [`ParallelKnnEngine::reorganize`] swap starts a fresh, healthy
    /// array — re-take the handle to inject into the rebuilt state.
    pub fn faults(&self) -> FaultsHandle {
        FaultsHandle(Arc::clone(&self.shared.inner.read().core))
    }

    /// The engine-wide degraded-mode defaults set at build time.
    pub fn fault_policy(&self) -> FaultPolicy {
        self.shared.recipe.fault_policy
    }

    /// The serve-layer admission policy, or `None` when the engine runs
    /// without backpressure, deadlines, or coalescing (the default).
    pub fn admission(&self) -> Option<AdmissionConfig> {
        self.shared.inner.read().core.admission
    }

    /// The engine-wide metrics registry, or `None` unless the engine was
    /// built with [`EngineBuilder::metrics`]`(true)`. The registry lives
    /// above the swappable engine state: cumulative totals survive
    /// [`ParallelKnnEngine::reorganize`]. Snapshot through
    /// [`EngineMetrics::snapshot`]; export with
    /// [`parsim_obs::prometheus_text`] / [`parsim_obs::to_json`].
    pub fn metrics(&self) -> Option<&Arc<EngineMetrics>> {
        self.shared.metrics.as_ref()
    }

    /// The write-path configuration, or `None` for a read-only engine.
    pub fn ingest_config(&self) -> Option<IngestConfig> {
        self.shared.recipe.ingest
    }

    /// The approximate tier's build-time configuration, or `None` when
    /// the engine was built without [`EngineBuilder::approx`]. Survives
    /// [`ParallelKnnEngine::reorganize`]: the rebuilt tier re-fits the
    /// same seeded family.
    pub fn lsh_config(&self) -> Option<LshConfig> {
        self.shared.recipe.lsh
    }

    /// A deterministic byte serialization of the LSH tier's bucket layout
    /// (disks in order, buckets in `(table, signature)` order, rows as
    /// item ids), or `None` without an LSH tier. Two engines built from
    /// the same items and config — including across a
    /// [`ParallelKnnEngine::reorganize`] of an unchanged engine — are
    /// byte-identical here; the seeded-determinism regression test pins
    /// exactly that.
    pub fn lsh_layout_bytes(&self) -> Option<Vec<u8>> {
        self.shared
            .inner
            .read()
            .core
            .lsh
            .as_ref()
            .map(|l| l.layout_bytes())
    }

    /// True if the engine keeps replica copies of every bucket.
    pub fn has_replicas(&self) -> bool {
        self.shared.inner.read().replica_router.is_some()
    }

    /// The disks hosting replica copies of `disk`'s buckets (empty for an
    /// un-replicated engine or a disk with no data).
    pub fn replica_disks_of(&self, disk: usize) -> Vec<usize> {
        self.shared
            .inner
            .read()
            .core
            .mirrors
            .get(disk)
            .map(|m| m.read().keys().copied().collect())
            .unwrap_or_default()
    }

    /// Total number of logically present points: main-index primaries
    /// plus buffered inserts, minus tombstones. Exact at every instant:
    /// the rebuild's journal replay drops removes whose id the rebuild
    /// already purged, so every tombstone masks a present point.
    pub fn len(&self) -> usize {
        let inner = self.shared.inner.read();
        let main: usize = inner.core.trees.iter().map(|t| t.read().len()).sum();
        let delta = self.shared.delta.lock();
        (main + delta.live_len()).saturating_sub(delta.tombstone_len())
    }

    /// True if no points are logically present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of buffered writes (live points + tombstones) waiting for
    /// the next reorganize. Always 0 for a read-only engine.
    pub fn delta_size(&self) -> usize {
        self.shared.delta.lock().size()
    }

    /// Per-disk point counts — the load-balance view (main-index
    /// primaries only; buffered inserts are not yet placed).
    pub fn load_distribution(&self) -> Vec<usize> {
        self.shared
            .inner
            .read()
            .core
            .trees
            .iter()
            .map(|t| t.read().len())
            .collect()
    }

    /// Inserts a point through the streaming-ingest write path (the
    /// system "is completely dynamical", Section 4.3): the point lands
    /// in the delta buffer, becomes visible to every subsequent query
    /// immediately, and is bulk-loaded into the main index by the next
    /// [`ParallelKnnEngine::reorganize`]. Safe while queries are in
    /// flight on any thread.
    ///
    /// # Errors
    ///
    /// [`EngineError::ReadOnly`] when the engine was built without
    /// [`EngineBuilder::ingest`]; [`EngineError::DeltaFull`] when the
    /// buffer is at capacity (typed write backpressure — retry after a
    /// flush/reorganize); [`EngineError::DimensionMismatch`] for a point
    /// of the wrong dimension. When the write trips a foreground rebuild
    /// trigger, rebuild errors propagate — the write itself was applied.
    pub fn insert(&self, point: Point) -> Result<u64, EngineError> {
        let Some(cfg) = self.shared.recipe.ingest else {
            return Err(EngineError::ReadOnly);
        };
        let (item, due) = {
            let inner = self.shared.inner.read();
            if point.dim() != inner.core.config.dim {
                return Err(EngineError::DimensionMismatch {
                    expected: inner.core.config.dim,
                    got: point.dim(),
                });
            }
            let mut delta = self.shared.delta.lock();
            if delta.size() >= cfg.delta_capacity {
                if let Some(m) = &self.shared.metrics {
                    m.record_ingest_rejected();
                }
                return Err(EngineError::DeltaFull {
                    capacity: cfg.delta_capacity,
                });
            }
            let item = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
            let disk = inner.declusterer.assign(item, &point);
            delta.apply_insert(point, item, disk);
            if let Some(m) = &self.shared.metrics {
                m.record_ingest_insert(delta.live_len(), delta.tombstone_len());
            }
            (item, self.shared.rebuild_due(&cfg, &inner, &delta))
        };
        if due {
            if cfg.background {
                self.shared.spawn_rebuild();
            } else {
                EngineShared::rebuild(&self.shared)?;
            }
        }
        Ok(item)
    }

    /// Removes a point by the item id [`ParallelKnnEngine::insert`] (or
    /// bulk-load order) gave it: a buffered insert is dropped on the
    /// spot, a main-index point is masked by a tombstone until the next
    /// reorganize purges it. Idempotent; visible to every subsequent
    /// query immediately.
    ///
    /// # Errors
    ///
    /// [`EngineError::ReadOnly`] without an ingest config;
    /// [`EngineError::DeltaFull`] when the removal would need a new
    /// tombstone and the buffer is at capacity;
    /// [`EngineError::Internal`] for an id that was never allocated.
    /// Foreground rebuild-trigger errors propagate as for `insert`.
    pub fn remove(&self, item: u64) -> Result<(), EngineError> {
        let Some(cfg) = self.shared.recipe.ingest else {
            return Err(EngineError::ReadOnly);
        };
        let due = {
            let inner = self.shared.inner.read();
            if item >= self.shared.next_seq.load(Ordering::Relaxed) {
                return Err(EngineError::Internal(format!(
                    "item {item} was never allocated"
                )));
            }
            let mut delta = self.shared.delta.lock();
            if !delta.contains_live(item) && delta.size() >= cfg.delta_capacity {
                if let Some(m) = &self.shared.metrics {
                    m.record_ingest_rejected();
                }
                return Err(EngineError::DeltaFull {
                    capacity: cfg.delta_capacity,
                });
            }
            let d = Arc::clone(&inner.declusterer);
            delta.apply_remove(item, &|id, p| d.assign(id, p));
            if let Some(m) = &self.shared.metrics {
                m.record_ingest_remove(delta.live_len(), delta.tombstone_len());
            }
            self.shared.rebuild_due(&cfg, &inner, &delta)
        };
        if due {
            if cfg.background {
                self.shared.spawn_rebuild();
            } else {
                EngineShared::rebuild(&self.shared)?;
            }
        }
        Ok(())
    }

    /// Drains the delta buffer into the main index now (a synchronous
    /// [`ParallelKnnEngine::reorganize`]); a no-op when the buffer is
    /// empty or the engine is read-only.
    pub fn flush(&self) -> Result<(), EngineError> {
        if self.shared.recipe.ingest.is_none() || self.shared.delta.lock().is_empty() {
            return Ok(());
        }
        self.reorganize()
    }

    /// Reorganizes the engine **in place** for the current data: bulk-
    /// loads a complete replacement state from `index ∪ delta` (for a
    /// default-built engine the declustering is re-derived — median
    /// splits from the current points — exactly as a fresh build would),
    /// then swaps it in atomically. Queries and writes keep running
    /// throughout the build; writes that land mid-build are journaled
    /// and replayed into the fresh delta buffer at swap time, so nothing
    /// is lost or duplicated. The replacement is built from the engine's
    /// own [`EngineBuilder`], so every build setting is preserved; the
    /// rebuilt state starts with a fresh, healthy disk array (injected
    /// faults do not carry over) and rebuilt caches. The metrics
    /// registry (when enabled) is **carried over** — cumulative totals
    /// span the swap.
    ///
    /// This is the paper's reorganization step for data whose
    /// distribution drifted after many insertions, made non-stop-the-
    /// world. Concurrent calls serialize; a failed rebuild (e.g. every
    /// point removed) leaves the engine serving its old state with the
    /// delta intact.
    pub fn reorganize(&self) -> Result<(), EngineError> {
        EngineShared::rebuild(&self.shared)
    }

    /// Answers one k-NN query under `opts` — the single entry point
    /// behind every legacy `knn*` method. Equivalent to
    /// [`ParallelKnnEngine::submit`] followed by [`PendingQuery::wait`].
    ///
    /// When no faults are armed and no timeout budget applies, this is
    /// the paper's parallel search; otherwise the engine runs **degraded
    /// execution**: failed disks are skipped, flaky reads are retried per
    /// [`RetryPolicy`], disks over the timeout budget are abandoned, and
    /// every lost disk's buckets are served from their replicas — the
    /// merged answer is bit-identical to the healthy one as long as a
    /// healthy replica exists for every lost bucket
    /// ([`EngineError::BucketUnavailable`] otherwise).
    ///
    /// On an ingesting engine the answer is always exact over
    /// `index ∪ delta`, linearized at submission.
    pub fn query(&self, query: &Point, opts: &QueryOptions) -> Result<QueryResult, EngineError> {
        self.submit(query, opts)?.wait()
    }

    /// Submits one k-NN query and returns a handle to wait on.
    ///
    /// Every query runs the same stage machine, in one of two stages: a
    /// healthy RKV query travels disk by disk along its MINDIST
    /// itinerary; every other query runs a stop list — disk by disk with
    /// a carried pruning bound (HS) or along its LSH probe plan
    /// (`Approx`), followed by the failover stops when faults are armed
    /// or a timeout budget applies.
    ///
    /// In [`ExecutionMode::Pooled`] the query is handed to the per-disk
    /// worker pool and this call returns immediately. Submitting many
    /// queries before waiting pipelines them across the disks — while one
    /// query searches disk 3, the next searches disk 1 — with no
    /// per-batch barrier and no thread spawned.
    ///
    /// In [`ExecutionMode::Scoped`] the calling thread drives the stages
    /// itself, disk after disk, and the returned handle is already
    /// complete. No thread is started.
    ///
    /// **Determinism.** Answers *and* traces (`per_disk_pages`,
    /// `dist_evals`, pruning counters, the degraded record) are the same
    /// in both modes, for single queries and batches alike; with RKV (the
    /// default) they are bit-identical to the deterministic forest search.
    /// With HS the page traces are execution-shaped: the stages search
    /// disk by disk under a carried bound, where the forest search
    /// interleaves all disks through one global queue. Cache-hit counters
    /// depend on execution order when queries run concurrently.
    pub fn submit(&self, query: &Point, opts: &QueryOptions) -> Result<PendingQuery, EngineError> {
        let inner = self.shared.inner.read();
        if query.dim() != inner.core.config.dim {
            return Err(EngineError::DimensionMismatch {
                expected: inner.core.config.dim,
                got: query.dim(),
            });
        }
        let overlay = self.shared.overlay_for(query, opts.k);
        inner.submit_with_wave(query, opts, None, overlay)
    }

    /// Submits a group of queries as one **coalescing wave**: with
    /// [`AdmissionConfig::coalescing`] on, the wave's queries share
    /// physical page reads — the first to touch a page charges the disk,
    /// the rest ride that read ([`QueryTrace::per_disk_coalesced`]).
    /// Answers and logical traces are bit-identical to submitting the
    /// queries individually.
    ///
    /// The outer `Err` is a whole-batch input error (dimension mismatch);
    /// the inner per-query results surface admission rejections — an
    /// [`EngineError::Overloaded`] query was never admitted, the rest of
    /// the wave still runs. Waiting on a handle can further return
    /// [`EngineError::DeadlineExceeded`] for queries shed mid-pipeline.
    ///
    /// On a scoped (non-pooled) engine each query runs to completion as
    /// it is submitted, so there are no waves to share reads within.
    pub fn submit_wave(
        &self,
        queries: &[Point],
        opts: &QueryOptions,
    ) -> Result<Vec<Result<PendingQuery, EngineError>>, EngineError> {
        let inner = self.shared.inner.read();
        for q in queries {
            if q.dim() != inner.core.config.dim {
                return Err(EngineError::DimensionMismatch {
                    expected: inner.core.config.dim,
                    got: q.dim(),
                });
            }
        }
        let wave = inner.pool.as_ref().map(|p| p.next_wave());
        Ok(queries
            .iter()
            .map(|q| {
                let overlay = self.shared.overlay_for(q, opts.k);
                inner.submit_with_wave(q, opts, wave, overlay)
            })
            .collect())
    }

    /// [`ParallelKnnEngine::submit_wave`] followed by a wait on every
    /// admitted handle: one result per query, in query order.
    pub fn query_wave(
        &self,
        queries: &[Point],
        opts: &QueryOptions,
    ) -> Result<Vec<Result<QueryResult, EngineError>>, EngineError> {
        let pending = self.submit_wave(queries, opts)?;
        Ok(pending
            .into_iter()
            .map(|p| p.and_then(PendingQuery::wait))
            .collect())
    }

    /// Answers a batch of queries. In [`ExecutionMode::Pooled`] every
    /// query is enqueued up front and the batch **pipelines** across the
    /// disks — query `i+1` searches disk 0 while query `i` searches disk
    /// 1 — with no per-batch barrier ([`QueryOptions::workers`] is
    /// ignored; concurrency comes from the per-disk workers).
    ///
    /// In [`ExecutionMode::Scoped`] the batch runs on a bounded set of
    /// scoped threads ([`QueryOptions::workers`], defaulting to the host's
    /// available parallelism) in the paper's **inter-query** parallel
    /// mode: each thread claims the next unanswered query and drives it
    /// exactly as [`ParallelKnnEngine::query`] would.
    ///
    /// Results are in query order, each with its own exact [`QueryTrace`]
    /// when tracing is on — the same trace a single query gets. With
    /// faults armed or a timeout budget set, both modes run the degraded
    /// stages of [`ParallelKnnEngine::query`].
    pub fn query_batch(
        &self,
        queries: &[Point],
        opts: &QueryOptions,
    ) -> Result<Vec<QueryResult>, EngineError> {
        let inner = self.shared.inner.read();
        for q in queries {
            if q.dim() != inner.core.config.dim {
                return Err(EngineError::DimensionMismatch {
                    expected: inner.core.config.dim,
                    got: q.dim(),
                });
            }
        }
        let submit = |q: &Point| {
            let overlay = self.shared.overlay_for(q, opts.k);
            inner.submit_with_wave(q, opts, None, overlay)
        };
        if inner.pool.is_some() {
            // Each query gets a private wave (batches don't coalesce —
            // use `query_wave` for read-sharing); the first admission
            // rejection aborts the batch, already-submitted queries
            // drain normally with their answers discarded.
            let pending: Vec<PendingQuery> =
                queries.iter().map(submit).collect::<Result<_, _>>()?;
            drop(inner);
            return pending.into_iter().map(PendingQuery::wait).collect();
        }
        let next = AtomicUsize::new(0);
        let workers = opts
            .workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .clamp(1, queries.len().max(1));
        let mut results: Vec<Option<Result<QueryResult, EngineError>>> =
            (0..queries.len()).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(q) = queries.get(i) else {
                                return out;
                            };
                            out.push((i, submit(q).and_then(PendingQuery::wait)));
                        }
                    })
                })
                .collect();
            for h in handles {
                for (i, result) in h.join().expect("batch worker does not panic") {
                    results[i] = Some(result);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every query index was claimed by a worker"))
            .collect()
    }

    /// Runs a k-NN query against the declustered data and returns the `k`
    /// nearest neighbors plus the per-disk page cost of the query.
    /// Shorthand for [`ParallelKnnEngine::query`] without a trace.
    pub fn knn(&self, query: &Point, k: usize) -> Result<(Vec<Neighbor>, QueryCost), EngineError> {
        let result = self.query(query, &QueryOptions::new(k))?;
        Ok((result.neighbors, result.cost))
    }

    /// Runs [`ParallelKnnEngine::knn`] and returns the full
    /// [`QueryTrace`] — per-disk pages, pruning and cache counters,
    /// measured wall-clock vs modeled service time, and the degraded-mode
    /// record when failure handling engaged.
    pub fn knn_traced(
        &self,
        query: &Point,
        k: usize,
    ) -> Result<(Vec<Neighbor>, QueryTrace), EngineError> {
        let result = self.query(query, &QueryOptions::traced(k))?;
        let trace = result.trace.expect("trace was requested");
        Ok((result.neighbors, trace))
    }

    /// Answers a batch of queries on a worker pool sized to the host's
    /// available parallelism. See [`ParallelKnnEngine::query_batch`].
    pub fn knn_batch(
        &self,
        queries: &[Point],
        k: usize,
    ) -> Result<Vec<(Vec<Neighbor>, QueryTrace)>, EngineError> {
        let results = self.query_batch(queries, &QueryOptions::traced(k))?;
        Ok(results
            .into_iter()
            .map(|r| (r.neighbors, r.trace.expect("trace was requested")))
            .collect())
    }

    /// Answers a batch of queries on a bounded pool of `workers` threads.
    /// See [`ParallelKnnEngine::query_batch`].
    pub fn knn_batch_with(
        &self,
        queries: &[Point],
        k: usize,
        workers: usize,
    ) -> Result<Vec<(Vec<Neighbor>, QueryTrace)>, EngineError> {
        let results = self.query_batch(queries, &QueryOptions::traced(k).with_workers(workers))?;
        Ok(results
            .into_iter()
            .map(|r| (r.neighbors, r.trace.expect("trace was requested")))
            .collect())
    }

    /// A handle on the simulated disk array (for experiment accounting).
    /// Pins the current engine state; see [`ArrayHandle`].
    pub fn array(&self) -> ArrayHandle {
        ArrayHandle(Arc::clone(&self.shared.inner.read().core))
    }

    /// Runs `f` over every per-disk primary tree, in disk order, under
    /// that tree's read lock (the trees are shared with the worker pool,
    /// so a borrowed slice can no longer be handed out). Buffered
    /// (delta) points are not in any tree yet.
    pub fn for_each_tree(&self, mut f: impl FnMut(&SpatialTree)) {
        let inner = self.shared.inner.read();
        for tree in &inner.core.trees {
            f(&tree.read());
        }
    }
}

impl Drop for ParallelKnnEngine {
    /// Joins any background rebuild before the shared state goes away;
    /// dropping the inner afterwards drains the worker pool.
    fn drop(&mut self) {
        let handle = self.shared.rebuild_handle.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

/// Derives the quadrant splitter for a build from the configured
/// [`SplitStrategy`], reading the points through any re-iterable view —
/// the online reorganize feeds `(point, item)` pairs without
/// materializing a second vector.
pub(crate) fn make_splitter_of<'a, I>(
    points: I,
    config: &EngineConfig,
) -> Result<QuadrantSplitter, EngineError>
where
    I: Iterator<Item = &'a Point> + Clone,
{
    match config.splits {
        SplitStrategy::Midpoint => {
            QuadrantSplitter::midpoint(config.dim).map_err(|e| EngineError::Internal(e.to_string()))
        }
        SplitStrategy::DataMedian => {
            median_splits_of(points).map_err(|e| EngineError::Internal(e.to_string()))
        }
    }
}

/// Simulates the error stream of `pages` reads against a flaky disk:
/// every erroring read is retried up to the policy's limit, each retry
/// charging its backoff plus one page's service time. Returns the retry
/// count, the extra modeled time, and whether every page eventually read
/// cleanly (`false` means the disk is abandoned as down).
fn simulate_flaky_reads(
    faults: &FaultInjector,
    disk: usize,
    pages: u64,
    retry: &RetryPolicy,
    model: &DiskModel,
) -> (u64, Duration, bool) {
    let per_page = model.service_time(1);
    let mut retries = 0u64;
    let mut extra = Duration::ZERO;
    for _ in 0..pages {
        if !faults.draw_read_error(disk) {
            continue;
        }
        let mut recovered = false;
        for attempt in 0..retry.max_retries {
            retries += 1;
            extra += retry.backoff_before(attempt) + per_page;
            if !faults.draw_read_error(disk) {
                recovered = true;
                break;
            }
        }
        if !recovered {
            return (retries, extra, false);
        }
    }
    (retries, extra, true)
}

/// Merges per-disk candidate lists into the global top `k` (ties broken by
/// item id, matching [`parsim_index::knn::brute_force_knn`]).
pub(crate) fn merge_candidates<'a>(
    locals: impl Iterator<Item = &'a [Neighbor]>,
    k: usize,
) -> Vec<Neighbor> {
    let mut merged: Vec<Neighbor> = locals.flatten().cloned().collect();
    merged.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.item.cmp(&b.item)));
    merged.truncate(k);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_datagen::{DataGenerator, UniformGenerator};
    use parsim_index::knn::brute_force_knn;

    fn engine(disks: usize, n: usize, dim: usize) -> (ParallelKnnEngine, Vec<Point>) {
        let pts = UniformGenerator::new(dim).generate(n, 7);
        let e = ParallelKnnEngine::builder(dim)
            .disks(disks)
            .build(&pts)
            .unwrap();
        (e, pts)
    }

    #[test]
    fn parallel_knn_is_exact() {
        let (e, pts) = engine(8, 3000, 8);
        let data: Vec<(Point, u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64))
            .collect();
        for q in UniformGenerator::new(8).generate(10, 100) {
            let (got, cost) = e.knn(&q, 10).unwrap();
            let want = brute_force_knn(&data, &q, 10);
            assert_eq!(got.len(), 10);
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g.dist - w.dist).abs() < 1e-12);
            }
            assert!(cost.total_reads > 0);
            assert_eq!(cost.per_disk_reads.len(), 8);
        }
    }

    #[test]
    fn pooled_knn_matches_scoped() {
        let pts = UniformGenerator::new(8).generate(2500, 7);
        let scoped = ParallelKnnEngine::builder(8).disks(8).build(&pts).unwrap();
        let pooled = ParallelKnnEngine::builder(8)
            .disks(8)
            .execution(ExecutionMode::Pooled)
            .build(&pts)
            .unwrap();
        assert_eq!(pooled.execution(), ExecutionMode::Pooled);
        for q in UniformGenerator::new(8).generate(8, 101) {
            let (a, _) = scoped.knn(&q, 10).unwrap();
            let (b, _) = pooled.knn(&q, 10).unwrap();
            assert_eq!(a, b);
        }
    }

    /// A panicking stage fails its own query only: that query returns an
    /// error, the next one answers, and the engine still drops. The
    /// steps run on a helper thread, so a hang fails the test.
    fn a_panicking_stage_fails_only_its_query(execution: ExecutionMode) {
        let pts = UniformGenerator::new(4).generate(500, 31);
        let e = ParallelKnnEngine::builder(4)
            .disks(4)
            .execution(execution)
            .build(&pts)
            .unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let hook = |on| {
                e.shared
                    .inner
                    .read()
                    .core
                    .panic_in_step
                    .store(on, Ordering::Relaxed)
            };
            hook(true);
            tx.send(e.knn(&pts[9], 3).map(|_| None)).unwrap();
            hook(false);
            tx.send(e.knn(&pts[9], 1).map(|(n, _)| Some(n[0].item)))
                .unwrap();
            drop(e);
            tx.send(Ok(None)).unwrap();
        });
        let next = || {
            rx.recv_timeout(Duration::from_secs(5))
                .expect("step ends in 5 s")
        };
        assert!(matches!(next(), Err(EngineError::Internal(m))
            if m.starts_with("a query stage panicked on disk")));
        assert_eq!(next().unwrap(), Some(9));
        assert_eq!(next().unwrap(), None);
    }

    #[test]
    fn a_panicking_stage_fails_only_its_query_pooled() {
        a_panicking_stage_fails_only_its_query(ExecutionMode::Pooled);
    }

    #[test]
    fn a_panicking_stage_fails_only_its_query_scoped() {
        a_panicking_stage_fails_only_its_query(ExecutionMode::Scoped);
    }

    #[test]
    fn load_is_roughly_balanced_on_uniform_data() {
        let (e, _) = engine(8, 8000, 8);
        let loads = e.load_distribution();
        assert_eq!(loads.iter().sum::<usize>(), 8000);
        let max = *loads.iter().max().unwrap() as f64;
        let avg = 8000.0 / 8.0;
        assert!(max / avg < 1.7, "loads: {loads:?}");
    }

    #[test]
    fn writes_require_an_ingest_config() {
        let (e, pts) = engine(4, 200, 5);
        assert!(matches!(
            e.insert(pts[0].clone()),
            Err(EngineError::ReadOnly)
        ));
        assert!(matches!(e.remove(0), Err(EngineError::ReadOnly)));
        assert_eq!(e.delta_size(), 0);
    }

    #[test]
    fn dynamic_insert_and_remove_through_the_delta() {
        let pts = UniformGenerator::new(5).generate(500, 7);
        let e = ParallelKnnEngine::builder(5)
            .disks(4)
            .ingest(IngestConfig::new(1000))
            .build(&pts)
            .unwrap();
        let extra = UniformGenerator::new(5).generate(100, 42);
        let mut ids = Vec::new();
        for p in &extra {
            ids.push(e.insert(p.clone()).unwrap());
        }
        assert_eq!(e.len(), 600);
        assert_eq!(e.delta_size(), 100);
        // Buffered points answer queries immediately and exactly.
        let (res, _) = e.knn(&extra[3], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
        assert_eq!(res[0].item, ids[3]);
        for id in &ids {
            e.remove(*id).unwrap();
        }
        assert_eq!(e.len(), 500);
        assert_eq!(e.delta_size(), 0);
        // Removing a main-index point masks it from answers.
        e.remove(0).unwrap();
        assert_eq!(e.len(), 499);
        let (res, _) = e.knn(&pts[0], 1).unwrap();
        assert!(res[0].item != 0);
        // Original points still answer queries.
        let (res, _) = e.knn(&pts[1], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
    }

    #[test]
    fn a_full_delta_sheds_writes_with_typed_backpressure() {
        let pts = UniformGenerator::new(3).generate(50, 3);
        let e = ParallelKnnEngine::builder(3)
            .disks(2)
            .ingest(IngestConfig::new(2))
            .build(&pts)
            .unwrap();
        let extra = UniformGenerator::new(3).generate(3, 9);
        e.insert(extra[0].clone()).unwrap();
        e.insert(extra[1].clone()).unwrap();
        assert!(matches!(
            e.insert(extra[2].clone()),
            Err(EngineError::DeltaFull { capacity: 2 })
        ));
        // Removing a *buffered* point frees a slot without a tombstone...
        e.remove(51).unwrap();
        // ...so the next insert is admitted again.
        e.insert(extra[2].clone()).unwrap();
        // A flush drains everything into the main index.
        e.flush().unwrap();
        assert_eq!(e.delta_size(), 0);
        assert_eq!(e.len(), 52);
        let (res, _) = e.knn(&extra[2], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(
            ParallelKnnEngine::builder(4).disks(4).build(&[]),
            Err(EngineError::EmptyDataSet)
        ));
        let (e, _) = engine(4, 100, 5);
        let wrong = Point::new(vec![0.5; 3]).unwrap();
        assert!(matches!(
            e.knn(&wrong, 1),
            Err(EngineError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn parallel_cost_beats_sequential_cost() {
        let (e, _) = engine(8, 5000, 10);
        let queries = UniformGenerator::new(10).generate(20, 11);
        let mut par = 0u64;
        let mut tot = 0u64;
        for q in &queries {
            let (_, cost) = e.knn(q, 10).unwrap();
            par += cost.max_reads;
            tot += cost.total_reads;
        }
        // With 8 disks the busiest disk must read far less than everything.
        assert!(par * 2 < tot, "max {par} vs total {tot}");
    }

    #[test]
    fn reorganize_preserves_contents() {
        let (e, pts) = engine(4, 800, 6);
        let before = e.len();
        e.reorganize().unwrap();
        assert_eq!(e.len(), before);
        let (res, _) = e.knn(&pts[5], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
    }

    #[test]
    fn reorganize_drains_the_delta_into_the_main_index() {
        let pts = UniformGenerator::new(4).generate(300, 5);
        let e = ParallelKnnEngine::builder(4)
            .disks(4)
            .ingest(IngestConfig::new(500))
            .build(&pts)
            .unwrap();
        let extra = UniformGenerator::new(4).generate(50, 21);
        for p in &extra {
            e.insert(p.clone()).unwrap();
        }
        e.remove(7).unwrap();
        assert_eq!(e.delta_size(), 51);
        e.reorganize().unwrap();
        assert_eq!(e.delta_size(), 0);
        assert_eq!(e.len(), 349);
        assert_eq!(e.load_distribution().iter().sum::<usize>(), 349);
        let (res, _) = e.knn(&extra[10], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
        let (res, _) = e.knn(&pts[7], 1).unwrap();
        assert!(res[0].item != 7);
    }

    #[test]
    fn reorganize_preserves_replication() {
        let pts = UniformGenerator::new(5).generate(600, 3);
        let e = ParallelKnnEngine::builder(5)
            .disks(8)
            .replicas(1)
            .build(&pts)
            .unwrap();
        assert!(e.has_replicas());
        e.reorganize().unwrap();
        assert!(e.has_replicas());
        assert_eq!(e.len(), 600);
        e.faults().fail(0);
        let (res, _) = e.knn(&pts[0], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
    }

    #[test]
    fn reorganize_rebuilds_from_the_whole_build_recipe() {
        use parsim_decluster::RoundRobin;
        let pts = UniformGenerator::new(4).generate(600, 23);
        let rr: Arc<dyn Declusterer> = Arc::new(RoundRobin::new(6).unwrap());
        let policy = FaultPolicy::with_timeout(Duration::from_secs(1));
        let e = ParallelKnnEngine::builder(4)
            .declusterer(Arc::clone(&rr))
            .replicas(1)
            .page_cache(64)
            .cache_shards(2)
            .fault_policy(policy)
            .ingest(IngestConfig::new(100))
            .build(&pts)
            .unwrap();
        let extra = UniformGenerator::new(4).generate(20, 24);
        for p in &extra {
            e.insert(p.clone()).unwrap();
        }
        for id in [3, 11, 600] {
            e.remove(id).unwrap();
        }
        let shards = |e: &ParallelKnnEngine| -> Vec<usize> {
            e.caches().iter().map(|c| c.shard_count()).collect()
        };
        let before = shards(&e);
        assert_eq!(before, vec![2; 6]);
        e.reorganize().unwrap();
        assert_eq!(e.delta_size(), 0);
        for d in 0..6 {
            assert_eq!(e.replica_disks_of(d), vec![(d + 1) % 6]);
        }
        assert!(Arc::ptr_eq(&e.declusterer(), &rr));
        assert_eq!(shards(&e), before);
        assert_eq!(e.fault_policy(), policy);
        let data: Vec<(Point, u64)> = pts
            .iter()
            .chain(&extra)
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64))
            .filter(|&(_, id)| ![3, 11, 600].contains(&id))
            .collect();
        for q in UniformGenerator::new(4).generate(6, 25) {
            let (got, _) = e.knn(&q, 10).unwrap();
            assert_eq!(got, brute_force_knn(&data, &q, 10));
        }
    }

    #[test]
    fn reorganize_preserves_execution_mode() {
        let pts = UniformGenerator::new(5).generate(400, 13);
        let e = ParallelKnnEngine::builder(5)
            .disks(4)
            .execution(ExecutionMode::Pooled)
            .build(&pts)
            .unwrap();
        e.reorganize().unwrap();
        assert_eq!(e.execution(), ExecutionMode::Pooled);
        let (res, _) = e.knn(&pts[3], 1).unwrap();
        assert_eq!(res[0].dist, 0.0);
    }

    #[test]
    fn removing_every_point_fails_the_rebuild_and_keeps_serving() {
        let pts = UniformGenerator::new(3).generate(20, 5);
        let e = ParallelKnnEngine::builder(3)
            .disks(2)
            .ingest(IngestConfig::new(64))
            .build(&pts)
            .unwrap();
        for id in 0..20 {
            e.remove(id).unwrap();
        }
        assert!(e.is_empty());
        assert!(matches!(e.reorganize(), Err(EngineError::EmptyDataSet)));
        // The delta survives the aborted rebuild; answers stay masked.
        assert_eq!(e.delta_size(), 20);
        let (res, _) = e.knn(&pts[0], 5).unwrap();
        assert!(res.is_empty());
    }

    #[test]
    fn metrics_are_off_by_default_and_carry_over_reorganize() {
        let pts = UniformGenerator::new(4).generate(300, 9);
        let plain = ParallelKnnEngine::builder(4).disks(4).build(&pts).unwrap();
        assert!(plain.metrics().is_none());
        let metered = ParallelKnnEngine::builder(4)
            .disks(4)
            .metrics(true)
            .build(&pts)
            .unwrap();
        let q = Point::new(vec![0.4; 4]).unwrap();
        metered.knn(&q, 5).unwrap();
        let m = metered.metrics().expect("metrics were enabled");
        let s = m.snapshot();
        assert_eq!(s.counter_total("parsim_queries_started_total"), 1);
        assert_eq!(s.counter_total("parsim_queries_completed_total"), 1);
        assert!(s.counter_total("parsim_disk_pages_total") > 0);
        // Reorganize carries the registry over: cumulative totals span
        // the swap instead of resetting.
        metered.reorganize().unwrap();
        let s = metered.metrics().expect("still enabled").snapshot();
        assert_eq!(s.counter_total("parsim_queries_started_total"), 1);
        assert_eq!(s.counter_total("parsim_rebuilds_total"), 1);
        metered.knn(&q, 5).unwrap();
        let s = metered.metrics().expect("still enabled").snapshot();
        assert_eq!(s.counter_total("parsim_queries_started_total"), 2);
    }

    #[test]
    fn a_remove_replayed_across_the_swap_does_not_undercount_len() {
        // Regression: a remove journaled mid-rebuild for an id the rebuild
        // already purged used to replay as a tombstone over nothing,
        // undercounting len() by one until the next rebuild.
        let pts = UniformGenerator::new(3).generate(40, 5);
        let e = ParallelKnnEngine::builder(3)
            .disks(2)
            .ingest(IngestConfig::new(64))
            .build(&pts)
            .unwrap();
        e.remove(7).unwrap();
        assert_eq!(e.len(), 39);
        let decl = e.declusterer();
        let shared = Arc::clone(&e.shared);
        // Pin the capture window open: the swap needs the inner write
        // lock, so holding a read guard parks the rebuild right before
        // its journal replay — however fast the build itself is.
        let pin = e.shared.inner.read();
        let rebuild = std::thread::spawn(move || EngineShared::rebuild(&shared).unwrap());
        // Wait for the capture window to open (the rebuild only needs
        // the delta lock to get there), then land the racing second
        // remove exactly as `remove(7)` would.
        loop {
            let mut delta = e.shared.delta.lock();
            if delta.capturing() {
                delta.apply_remove(7, &|id, p| decl.assign(id, p));
                break;
            }
            drop(delta);
            std::thread::yield_now();
        }
        drop(pin);
        rebuild.join().unwrap();
        // The replay must drop the stale remove: 39 points, no tombstone.
        assert_eq!(e.len(), 39);
        assert_eq!(e.delta_size(), 0);
        let (res, _) = e.knn(&pts[7], 1).unwrap();
        assert!(res[0].item != 7);
        // A remove racing the swap for an id the rebuild KEPT still lands.
        e.remove(8).unwrap();
        assert_eq!(e.len(), 38);
        e.reorganize().unwrap();
        assert_eq!(e.len(), 38);
    }

    #[test]
    fn energy_scan_order_is_bit_identical_through_the_engine() {
        use parsim_index::ScanOrder;
        let pts = UniformGenerator::new(8).generate(2000, 17);
        let nat = ParallelKnnEngine::builder(8).disks(8).build(&pts).unwrap();
        let cfg = EngineConfig {
            order: ScanOrder::Energy,
            ..EngineConfig::paper_defaults(8)
        };
        let en = ParallelKnnEngine::builder(8)
            .config(cfg)
            .disks(8)
            .build(&pts)
            .unwrap();
        assert_eq!(en.config().order, ScanOrder::Energy);
        for q in UniformGenerator::new(8).generate(8, 18) {
            for tier in [ScanTier::F64, ScanTier::F32, ScanTier::Q8] {
                let opts = QueryOptions::traced(10).with_tier(tier);
                let a = nat.query(&q, &opts).unwrap();
                let b = en.query(&q, &opts).unwrap();
                assert_eq!(a.neighbors.len(), b.neighbors.len());
                for (x, y) in a.neighbors.iter().zip(&b.neighbors) {
                    assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "{tier:?}");
                    assert_eq!(x.item, y.item, "{tier:?}");
                }
                // Page traces match too: the permutation never changes
                // which nodes are visited.
                let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
                assert_eq!(ta.per_disk_pages, tb.per_disk_pages, "{tier:?}");
            }
        }
        // The energy engine abandons rows on the f64 tier and surfaces
        // checkpoint depth in the trace.
        let q = Point::new(vec![0.5; 8]).unwrap();
        let r = en
            .query(&q, &QueryOptions::traced(10).with_order(ScanOrder::Energy))
            .unwrap();
        let t = r.trace.unwrap();
        assert!(t.abandoned_rows > 0, "energy f64 filter never abandoned");
        assert!(t.abandon_checkpoints >= t.abandoned_rows);
        // Reorganize recomputes the energy layout; answers stay identical.
        en.reorganize().unwrap();
        for q in UniformGenerator::new(8).generate(4, 19) {
            let a = nat.query(&q, &QueryOptions::new(10)).unwrap();
            let b = en.query(&q, &QueryOptions::new(10)).unwrap();
            assert_eq!(a.neighbors, b.neighbors);
        }
    }

    #[test]
    fn triggered_foreground_rebuild_fires_on_the_threshold() {
        let pts = UniformGenerator::new(3).generate(100, 3);
        let e = ParallelKnnEngine::builder(3)
            .disks(2)
            .ingest(
                IngestConfig::new(64)
                    .with_rebuild_threshold(10)
                    .foreground(),
            )
            .build(&pts)
            .unwrap();
        let extra = UniformGenerator::new(3).generate(10, 77);
        for p in &extra {
            e.insert(p.clone()).unwrap();
        }
        // The 10th insert crossed the threshold and rebuilt synchronously.
        assert_eq!(e.delta_size(), 0);
        assert_eq!(e.load_distribution().iter().sum::<usize>(), 110);
    }
}
