//! Engine-wide cumulative metrics — the steady-state companion of the
//! per-query [`QueryTrace`].
//!
//! [`EngineMetrics`] owns a [`MetricsRegistry`] and pre-registers every
//! instrument the engine records into: query lifecycle counters,
//! per-disk page and busy-time counters, modeled latency histograms,
//! pool queue-depth gauges, serve-layer shed counters and the
//! deadline-overshoot histogram, per-disk coalesced-read counters,
//! per-shard page-cache counters, and the fault injector's counters. It is created only when
//! [`EngineBuilder::metrics`](crate::EngineBuilder::metrics) asks for it;
//! the default engine carries `None` and pays **zero** additional atomic
//! operations on the query path.
//!
//! **Determinism.** Everything recorded here is a count or a *modeled*
//! duration in microseconds (derived from page counts through the
//! [`DiskModel`]) — never wall-clock. Replaying a seeded workload
//! therefore produces an identical [`RegistrySnapshot`], and the
//! Prometheus/JSON exporters render it byte-for-byte identically; the
//! wall-clock view stays where it always was, on the per-query
//! [`QueryTrace::wall_time`].
//!
//! **Conformance.** The trace-derived counters (pages, distance
//! evaluations, pruning, cache hits, retries, replica pages, degraded
//! count) are accumulated from each completed query's trace in
//! `EngineMetrics::record_query` — one place, both execution modes —
//! which is exactly the invariant the `metrics_parity` suite pins:
//! registry totals equal the sums over the individual traces.

use std::sync::Arc;

use parsim_obs::{Counter, Gauge, Histogram, HistogramConfig, MetricsRegistry, RegistrySnapshot};
use parsim_storage::{CacheMetrics, DiskModel, FaultMetrics};

use crate::metrics::QueryTrace;

/// One trace-derived counter: its name, its help text and the
/// [`QueryTrace`] field it sums.
type TraceCounter = (&'static str, &'static str, fn(&QueryTrace) -> u64);

/// The scalar counters read straight off a completed query's trace, in
/// registration order. [`EngineMetrics::new`] registers one counter per
/// row and `EngineMetrics::record_query` adds each row's field.
const TRACE_COUNTERS: [TraceCounter; 11] = [
    (
        "parsim_candidates_pruned_total",
        "Subtrees discarded by the pruning bound",
        |t| t.candidates_pruned,
    ),
    (
        "parsim_dist_evals_total",
        "Point-distance evaluations started in leaf scans",
        |t| t.dist_evals,
    ),
    (
        "parsim_dist_evals_saved_total",
        "Candidates whose full f64 distance was never computed (early abandon or lower-bound filter)",
        |t| t.dist_evals_saved,
    ),
    (
        "parsim_lb_evals_total",
        "Phase-1 low-precision lower-bound kernel evaluations in leaf scans",
        |t| t.lb_evals,
    ),
    (
        "parsim_rerank_evals_total",
        "Phase-1 survivors re-ranked by the exact f64 batch kernel",
        |t| t.rerank_evals,
    ),
    (
        "parsim_abandoned_rows_total",
        "Rows abandoned mid-scan by a bounded distance kernel",
        |t| t.abandoned_rows,
    ),
    (
        "parsim_abandon_checkpoints_total",
        "4-coordinate checkpoints executed by abandoned rows before the bound was crossed",
        |t| t.abandon_checkpoints,
    ),
    (
        "parsim_query_cache_hits_total",
        "Page requests absorbed by the per-disk caches during queries",
        |t| t.cache_hits,
    ),
    (
        "parsim_lsh_probes_total",
        "LSH buckets probed by Approx-mode queries, over all tables and disks",
        |t| t.lsh_probes,
    ),
    (
        "parsim_lsh_candidates_total",
        "Unique LSH candidate rows exactly re-ranked by Approx-mode queries",
        |t| t.lsh_candidates,
    ),
    (
        "parsim_lsh_empty_probes_total",
        "Probed LSH buckets that held no rows (recall proxy: wasted probe budget)",
        |t| t.lsh_empty_probes,
    ),
];

/// All cumulative instruments of one engine. See the module docs.
#[derive(Debug)]
pub struct EngineMetrics {
    registry: MetricsRegistry,
    queries_started: Arc<Counter>,
    queries_completed: Arc<Counter>,
    queries_failed: Arc<Counter>,
    queries_degraded: Arc<Counter>,
    pages: Vec<Arc<Counter>>,
    /// One counter per [`TRACE_COUNTERS`] row, in the table's order.
    trace_counters: Vec<Arc<Counter>>,
    retries: Arc<Counter>,
    replica_pages: Arc<Counter>,
    shed_overloaded: Arc<Counter>,
    shed_deadline: Arc<Counter>,
    coalesced: Vec<Arc<Counter>>,
    deadline_overshoot: Arc<Histogram>,
    latency: Arc<Histogram>,
    disk_service: Vec<Arc<Histogram>>,
    busy_micros: Vec<Arc<Counter>>,
    queue_depth: Vec<Arc<Gauge>>,
    ingest_inserts: Arc<Counter>,
    ingest_removes: Arc<Counter>,
    ingest_rejected: Arc<Counter>,
    rebuilds: Arc<Counter>,
    rebuilds_failed: Arc<Counter>,
    delta_points: Arc<Gauge>,
    delta_tombstones: Arc<Gauge>,
    rebuild_points: Arc<Histogram>,
    cache: Vec<CacheMetrics>,
    faults: FaultMetrics,
}

impl EngineMetrics {
    /// Registers every instrument for an engine of `disks` disks whose
    /// page caches (if any are installed later) use `cache_shards` shards
    /// per disk. Instruments are registered name-major so the exporters
    /// emit one `HELP`/`TYPE` header per metric.
    pub fn new(disks: usize, cache_shards: usize) -> Self {
        let r = MetricsRegistry::new();
        let disk_labels: Vec<String> = (0..disks).map(|d| d.to_string()).collect();
        let queries_started = r.counter("parsim_queries_started_total", "Queries submitted", &[]);
        let queries_completed = r.counter(
            "parsim_queries_completed_total",
            "Queries answered successfully",
            &[],
        );
        let queries_failed = r.counter(
            "parsim_queries_failed_total",
            "Queries that returned an error",
            &[],
        );
        let queries_degraded = r.counter(
            "parsim_queries_degraded_total",
            "Completed queries that ran degraded execution",
            &[],
        );
        let pages = disk_labels
            .iter()
            .map(|d| {
                r.counter(
                    "parsim_disk_pages_total",
                    "Pages served per disk (primaries and mirrors)",
                    &[("disk", d)],
                )
            })
            .collect();
        let trace_counters = TRACE_COUNTERS
            .iter()
            .map(|&(name, help, _)| r.counter(name, help, &[]))
            .collect();
        let retries = r.counter(
            "parsim_read_retries_total",
            "Page-read retries against flaky disks",
            &[],
        );
        let replica_pages = r.counter(
            "parsim_replica_pages_total",
            "Pages read from replica trees instead of primaries",
            &[],
        );
        let shed_overloaded = r.counter(
            "parsim_queries_shed_total",
            "Queries shed by the serve layer, by reason",
            &[("reason", "overloaded")],
        );
        let shed_deadline = r.counter(
            "parsim_queries_shed_total",
            "Queries shed by the serve layer, by reason",
            &[("reason", "deadline")],
        );
        let coalesced = disk_labels
            .iter()
            .map(|d| {
                r.counter(
                    "parsim_coalesced_reads_total",
                    "Node visits that rode another wave member's physical read, per disk",
                    &[("disk", d)],
                )
            })
            .collect();
        let deadline_overshoot = r.histogram(
            "parsim_deadline_overshoot_micros",
            "Modeled service time past the budget when a query was deadline-shed",
            &[],
            HistogramConfig::latency_micros(),
        );
        let latency = r.histogram(
            "parsim_query_latency_micros",
            "Modeled end-to-end parallel service time per query",
            &[],
            HistogramConfig::latency_micros(),
        );
        let disk_service = disk_labels
            .iter()
            .map(|d| {
                r.histogram(
                    "parsim_disk_service_micros",
                    "Modeled per-disk service time of each query touching the disk",
                    &[("disk", d)],
                    HistogramConfig::latency_micros(),
                )
            })
            .collect();
        let busy_micros = disk_labels
            .iter()
            .map(|d| {
                r.counter(
                    "parsim_disk_busy_micros_total",
                    "Modeled cumulative busy time per disk",
                    &[("disk", d)],
                )
            })
            .collect();
        let queue_depth = disk_labels
            .iter()
            .map(|d| {
                r.gauge(
                    "parsim_worker_queue_depth",
                    "Tasks queued or running on the disk's pool worker",
                    &[("disk", d)],
                )
            })
            .collect();
        let ingest_inserts = r.counter(
            "parsim_ingest_inserts_total",
            "Points accepted into the delta buffer",
            &[],
        );
        let ingest_removes = r.counter(
            "parsim_ingest_removes_total",
            "Removals accepted (buffered point dropped or tombstone laid)",
            &[],
        );
        let ingest_rejected = r.counter(
            "parsim_ingest_rejected_total",
            "Writes shed with typed backpressure, by reason",
            &[("reason", "delta_full")],
        );
        let rebuilds = r.counter(
            "parsim_rebuilds_total",
            "Completed shadow rebuilds (explicit or triggered)",
            &[],
        );
        let rebuilds_failed = r.counter(
            "parsim_rebuilds_failed_total",
            "Shadow rebuilds aborted with the old state left serving",
            &[],
        );
        let delta_points = r.gauge(
            "parsim_delta_points",
            "Live (not yet bulk-loaded) points in the delta buffer",
            &[],
        );
        let delta_tombstones = r.gauge(
            "parsim_delta_tombstones",
            "Tombstones masking main-index points until the next rebuild",
            &[],
        );
        let rebuild_points = r.histogram(
            "parsim_rebuild_points",
            "Points bulk-loaded per shadow rebuild",
            &[],
            HistogramConfig::pages(),
        );
        let shards = cache_shards.max(1);
        let shard_labels: Vec<String> = (0..shards).map(|s| s.to_string()).collect();
        let cache_counter = |name: &'static str, help: &'static str| -> Vec<Vec<Arc<Counter>>> {
            disk_labels
                .iter()
                .map(|d| {
                    shard_labels
                        .iter()
                        .map(|s| r.counter(name, help, &[("disk", d), ("shard", s)]))
                        .collect()
                })
                .collect()
        };
        let hits = cache_counter(
            "parsim_cache_hits_total",
            "Page-cache hits per disk and shard",
        );
        let misses = cache_counter(
            "parsim_cache_misses_total",
            "Page-cache misses per disk and shard",
        );
        let evictions = cache_counter(
            "parsim_cache_evictions_total",
            "Page-cache evictions per disk and shard",
        );
        let cache = hits
            .into_iter()
            .zip(misses)
            .zip(evictions)
            .map(|((h, m), e)| CacheMetrics::new(h, m, e))
            .collect();
        let faults = FaultMetrics {
            faults_injected: r.counter(
                "parsim_faults_injected_total",
                "Faults armed on the injector",
                &[],
            ),
            faults_healed: r.counter(
                "parsim_faults_healed_total",
                "Armed faults cleared on the injector",
                &[],
            ),
            read_errors: r.counter(
                "parsim_flaky_read_errors_total",
                "Flaky reads drawn as errors",
                &[],
            ),
        };
        EngineMetrics {
            registry: r,
            queries_started,
            queries_completed,
            queries_failed,
            queries_degraded,
            pages,
            trace_counters,
            retries,
            replica_pages,
            shed_overloaded,
            shed_deadline,
            coalesced,
            deadline_overshoot,
            latency,
            disk_service,
            busy_micros,
            queue_depth,
            ingest_inserts,
            ingest_removes,
            ingest_rejected,
            rebuilds,
            rebuilds_failed,
            delta_points,
            delta_tombstones,
            rebuild_points,
            cache,
            faults,
        }
    }

    /// Reads every instrument once. Deterministic for a seeded workload
    /// observed at a quiescent point (no queries in flight).
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// Counts one submitted query.
    pub(crate) fn record_start(&self) {
        self.queries_started.inc();
    }

    /// Folds one completed query's trace into the cumulative totals.
    /// This is the single record point both execution modes funnel
    /// through, so registry totals equal summed traces by construction.
    pub(crate) fn record_query(&self, trace: &QueryTrace, model: &DiskModel) {
        self.queries_completed.inc();
        for (disk, &p) in trace.per_disk_pages.iter().enumerate() {
            if p == 0 {
                continue;
            }
            self.pages[disk].add(p);
            let micros = model.service_time(p).as_micros() as u64;
            self.disk_service[disk].record(micros);
            self.busy_micros[disk].add(micros);
        }
        for ((_, _, field), counter) in TRACE_COUNTERS.iter().zip(&self.trace_counters) {
            counter.add(field(trace));
        }
        for (disk, &c) in trace.per_disk_coalesced.iter().enumerate() {
            if c > 0 {
                self.coalesced[disk].add(c);
            }
        }
        self.latency
            .record(trace.modeled_parallel.as_micros() as u64);
        if let Some(d) = &trace.degraded {
            self.queries_degraded.inc();
            self.retries.add(d.retries);
            self.replica_pages.add(d.replica_pages);
        }
    }

    /// Counts one query that finished with an error.
    pub(crate) fn record_failure(&self) {
        self.queries_failed.inc();
    }

    /// Counts one submission rejected at admission (full queue). Sheds
    /// are not failures: `parsim_queries_failed_total` stays untouched so
    /// the two causes reconcile separately against the typed errors.
    pub(crate) fn record_shed_overloaded(&self) {
        self.shed_overloaded.inc();
    }

    /// Counts one query shed mid-pipeline for blowing its modeled
    /// deadline, recording how far past the budget it was when caught.
    pub(crate) fn record_shed_deadline(&self, overshoot_micros: u64) {
        self.shed_deadline.inc();
        self.deadline_overshoot.record(overshoot_micros);
    }

    /// Counts one accepted insert and refreshes the delta-size gauges.
    pub(crate) fn record_ingest_insert(&self, live: usize, tombstones: usize) {
        self.ingest_inserts.inc();
        self.delta_points.set(live as i64);
        self.delta_tombstones.set(tombstones as i64);
    }

    /// Counts one accepted removal and refreshes the delta-size gauges.
    pub(crate) fn record_ingest_remove(&self, live: usize, tombstones: usize) {
        self.ingest_removes.inc();
        self.delta_points.set(live as i64);
        self.delta_tombstones.set(tombstones as i64);
    }

    /// Counts one write shed because the delta buffer was at capacity.
    pub(crate) fn record_ingest_rejected(&self) {
        self.ingest_rejected.inc();
    }

    /// Counts one completed shadow rebuild of `points` points, resetting
    /// the delta gauges to the freshly replayed buffer's sizes.
    pub(crate) fn record_rebuild(&self, points: u64, live: usize, tombstones: usize) {
        self.rebuilds.inc();
        self.rebuild_points.record(points);
        self.delta_points.set(live as i64);
        self.delta_tombstones.set(tombstones as i64);
    }

    /// Counts one aborted shadow rebuild (the old state kept serving).
    pub(crate) fn record_rebuild_failed(&self) {
        self.rebuilds_failed.inc();
    }

    /// The queue-depth gauge of `disk`'s pool worker.
    pub(crate) fn queue_depth(&self, disk: usize) -> &Arc<Gauge> {
        &self.queue_depth[disk]
    }

    /// The per-shard cache counters of `disk`, for wiring into its
    /// [`parsim_index::CachingSink`].
    pub(crate) fn cache_metrics(&self, disk: usize) -> CacheMetrics {
        self.cache[disk].clone()
    }

    /// The fault-injector counters, for wiring into the array's
    /// [`parsim_storage::FaultInjector`].
    pub(crate) fn fault_metrics(&self) -> FaultMetrics {
        self.faults.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn trace(pages: Vec<u64>, model: &DiskModel) -> QueryTrace {
        let max = pages.iter().copied().max().unwrap_or(0);
        let disks = pages.len();
        QueryTrace {
            per_disk_pages: pages,
            candidates_pruned: 3,
            cache_hits: 2,
            per_disk_coalesced: vec![0; disks],
            dist_evals: 40,
            dist_evals_saved: 10,
            lb_evals: 25,
            rerank_evals: 15,
            abandoned_rows: 6,
            abandon_checkpoints: 9,
            lsh_probes: 8,
            lsh_candidates: 20,
            lsh_empty_probes: 3,
            wall_time: Duration::from_millis(1),
            modeled_parallel: model.service_time(max),
            modeled_sequential: Duration::ZERO,
            degraded: None,
        }
    }

    #[test]
    fn record_query_accumulates_trace_totals() {
        let model = DiskModel::hp_workstation_1997();
        let m = EngineMetrics::new(2, 4);
        m.record_start();
        m.record_start();
        m.record_query(&trace(vec![5, 0], &model), &model);
        m.record_query(&trace(vec![1, 7], &model), &model);
        let s = m.snapshot();
        assert_eq!(s.counter_total("parsim_queries_started_total"), 2);
        assert_eq!(s.counter_total("parsim_queries_completed_total"), 2);
        assert_eq!(s.counter_total("parsim_disk_pages_total"), 13);
        assert_eq!(
            s.counter_with("parsim_disk_pages_total", &[("disk", "0")]),
            Some(6)
        );
        assert_eq!(s.counter_total("parsim_dist_evals_total"), 80);
        assert_eq!(s.counter_total("parsim_lb_evals_total"), 50);
        assert_eq!(s.counter_total("parsim_rerank_evals_total"), 30);
        assert_eq!(s.counter_total("parsim_abandoned_rows_total"), 12);
        assert_eq!(s.counter_total("parsim_abandon_checkpoints_total"), 18);
        assert_eq!(s.counter_total("parsim_query_cache_hits_total"), 4);
        assert_eq!(s.counter_total("parsim_lsh_probes_total"), 16);
        assert_eq!(s.counter_total("parsim_lsh_candidates_total"), 40);
        assert_eq!(s.counter_total("parsim_lsh_empty_probes_total"), 6);
        assert_eq!(s.counter_total("parsim_queries_degraded_total"), 0);
        let h = s
            .histogram_with("parsim_query_latency_micros", &[])
            .unwrap();
        assert_eq!(h.count, 2);
        // Only the second query touched disk 1 with pages > 0.
        let d1 = s
            .histogram_with("parsim_disk_service_micros", &[("disk", "1")])
            .unwrap();
        assert_eq!(d1.count, 1);
    }

    #[test]
    fn degraded_traces_feed_the_degraded_counters() {
        let model = DiskModel::hp_workstation_1997();
        let m = EngineMetrics::new(1, 1);
        let mut t = trace(vec![4], &model);
        t.degraded = Some(crate::metrics::DegradedInfo {
            failed_over: vec![0],
            retries: 5,
            replica_pages: 9,
            added_latency: Duration::ZERO,
        });
        m.record_query(&t, &model);
        m.record_failure();
        let s = m.snapshot();
        assert_eq!(s.counter_total("parsim_queries_degraded_total"), 1);
        assert_eq!(s.counter_total("parsim_read_retries_total"), 5);
        assert_eq!(s.counter_total("parsim_replica_pages_total"), 9);
        assert_eq!(s.counter_total("parsim_queries_failed_total"), 1);
    }
}
