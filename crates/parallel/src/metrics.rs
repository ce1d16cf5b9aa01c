//! Workload runners, per-query traces, and the speed-up / scale-up
//! metrics of the paper.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use parsim_geometry::Point;
use parsim_index::SearchStats;
use parsim_storage::{DiskModel, QueryCost};

use crate::declustered::DeclusteredXTree;
use crate::engine::ParallelKnnEngine;
use crate::EngineError;

/// What degraded-mode execution did for one query: which disks were lost
/// (failed, flaky beyond retry, or over the timeout budget), how much
/// retrying happened, and what the detour through the replicas cost.
///
/// `None` on the trace of a query that ran the healthy fast path.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DegradedInfo {
    /// Disks whose buckets were served from replicas on other disks.
    pub failed_over: Vec<usize>,
    /// Total page-read retries performed against flaky disks.
    pub retries: u64,
    /// Pages read from replica (mirror) trees instead of primaries.
    pub replica_pages: u64,
    /// Modeled parallel time added by the degradation: the degraded
    /// critical path (slow-disk multipliers, retry backoff, replica
    /// detours, timeout waits) minus the healthy service time of the same
    /// page counts.
    pub added_latency: Duration,
}

/// The observability record of one traced query.
///
/// Produced by [`ParallelKnnEngine::query`],
/// [`ParallelKnnEngine::knn_traced`] and
/// [`ParallelKnnEngine::knn_batch`]; serializable to JSON with
/// [`serde::Serialize::to_json`] for offline analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryTrace {
    /// Pages requested from each disk by this query, counted by the
    /// query's own task as it visits the disk — exact for this query even
    /// while other queries run against the same disks concurrently.
    pub per_disk_pages: Vec<u64>,
    /// Subtrees discarded by the pruning bound without being read.
    pub candidates_pruned: u64,
    /// Page requests absorbed by the per-disk caches during this query
    /// (always 0 for an uncached engine). Counted by the query's own
    /// task, so the figure is exact for this query even when other cached
    /// queries run against the same disks concurrently.
    pub cache_hits: u64,
    /// Per-disk node visits that rode a physical read another query of
    /// the same submission wave already performed (always all-zero
    /// without [`crate::AdmissionConfig::coalescing`]). Which query of a
    /// wave charges a shared page and which ones coalesce is
    /// execution-order dependent, but the wave's **sum** is not: for a
    /// page requested by `m` queries, exactly `m − 1` visits coalesce.
    /// Logical `per_disk_pages` are unaffected either way.
    pub per_disk_coalesced: Vec<u64>,
    /// f64 point-distance evaluations started in leaf scans. On the cheap
    /// scan tiers only phase-1 survivors start one, so this counter is the
    /// query's f64 kernel cost on every tier.
    pub dist_evals: u64,
    /// Candidate points whose full f64 distance was never computed: cut
    /// short by the early-abandon kernel (f64 tier) or filtered by a
    /// certified low-precision lower bound (cheap tiers).
    pub dist_evals_saved: u64,
    /// Phase-1 lower-bound kernel evaluations (f32 or q8 rows scanned).
    /// Zero on [`parsim_index::ScanTier::F64`].
    pub lb_evals: u64,
    /// Phase-1 survivors re-ranked by the exact f64 batch kernel (each
    /// also counts into [`QueryTrace::dist_evals`]). Zero on
    /// [`parsim_index::ScanTier::F64`].
    pub rerank_evals: u64,
    /// Rows a bounded distance kernel abandoned mid-scan, on any tier
    /// (a subset of [`QueryTrace::dist_evals_saved`]; lower-bound filters
    /// that never start a kernel do not count here).
    pub abandoned_rows: u64,
    /// 4-coordinate checkpoints those abandoned rows executed before the
    /// partial sum crossed the bound. The mean abandon depth in
    /// coordinates is `4 × abandon_checkpoints / abandoned_rows` — the
    /// figure the energy scan order ([`parsim_index::ScanOrder`]) is
    /// designed to shrink.
    pub abandon_checkpoints: u64,
    /// LSH buckets probed over all tables and disks. Zero on every
    /// [`crate::QueryMode::Exact`] query.
    #[serde(default)]
    pub lsh_probes: u64,
    /// Unique LSH candidate rows whose exact f64 distance was computed
    /// (each also counts into [`QueryTrace::dist_evals`]). Zero in exact
    /// mode.
    #[serde(default)]
    pub lsh_candidates: u64,
    /// Probed LSH buckets that held no rows — the recall proxy: an
    /// empty-probe share near 1 means the probe budget found nothing and
    /// recall is likely suffering. Zero in exact mode.
    #[serde(default)]
    pub lsh_empty_probes: u64,
    /// Measured wall-clock time of the query on the host.
    pub wall_time: Duration,
    /// Modeled parallel service time: all disks read concurrently, the
    /// busiest one gates.
    pub modeled_parallel: Duration,
    /// Modeled sequential service time: the same pages served by one disk.
    pub modeled_sequential: Duration,
    /// Degraded-mode record: `Some` iff the query ran with failure
    /// handling engaged (injected faults or a timeout budget) — see
    /// [`DegradedInfo`].
    pub degraded: Option<DegradedInfo>,
}

impl QueryTrace {
    /// Assembles a trace from per-tree search counters.
    pub fn from_stats(stats: &[SearchStats], wall_time: Duration, model: &DiskModel) -> QueryTrace {
        let per_disk_pages: Vec<u64> = stats.iter().map(|s| s.pages).collect();
        let max = per_disk_pages.iter().copied().max().unwrap_or(0);
        let total: u64 = per_disk_pages.iter().copied().sum();
        QueryTrace {
            per_disk_pages,
            candidates_pruned: stats.iter().map(|s| s.pruned).sum(),
            cache_hits: stats.iter().map(|s| s.cache_hits).sum(),
            per_disk_coalesced: stats.iter().map(|s| s.coalesced).collect(),
            dist_evals: stats.iter().map(|s| s.dist_evals).sum(),
            dist_evals_saved: stats.iter().map(|s| s.dist_evals_saved).sum(),
            lb_evals: stats.iter().map(|s| s.lb_evals).sum(),
            rerank_evals: stats.iter().map(|s| s.rerank_evals).sum(),
            abandoned_rows: stats.iter().map(|s| s.abandoned_rows).sum(),
            abandon_checkpoints: stats.iter().map(|s| s.abandon_checkpoints).sum(),
            lsh_probes: 0,
            lsh_candidates: 0,
            lsh_empty_probes: 0,
            wall_time,
            modeled_parallel: model.service_time(max),
            modeled_sequential: model.service_time(total),
            degraded: None,
        }
    }

    /// Pages requested from the busiest disk.
    pub fn max_pages(&self) -> u64 {
        self.per_disk_pages.iter().copied().max().unwrap_or(0)
    }

    /// Pages requested across all disks.
    pub fn total_pages(&self) -> u64 {
        self.per_disk_pages.iter().copied().sum()
    }

    /// Visits coalesced onto another query's physical read, across all
    /// disks (see [`QueryTrace::per_disk_coalesced`]).
    pub fn coalesced_reads(&self) -> u64 {
        self.per_disk_coalesced.iter().copied().sum()
    }

    /// The modeled speed-up of this query: sequential over parallel
    /// service time (1.0 for an empty query).
    pub fn modeled_speedup(&self) -> f64 {
        let p = self.modeled_parallel.as_secs_f64();
        if p == 0.0 {
            1.0
        } else {
            self.modeled_sequential.as_secs_f64() / p
        }
    }

    /// Converts the trace into the classic [`QueryCost`] record.
    pub fn cost(&self, model: &DiskModel) -> QueryCost {
        QueryCost::from_reads(self.per_disk_pages.clone(), model)
    }
}

/// Aggregate cost of a query workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadCost {
    /// Number of queries executed.
    pub queries: usize,
    /// Average pages read by the most-loaded disk per query.
    pub avg_max_reads: f64,
    /// Average total pages read per query.
    pub avg_total_reads: f64,
    /// Average modeled parallel search time per query, in milliseconds.
    pub avg_parallel_ms: f64,
    /// Average modeled sequential search time per query, in milliseconds
    /// (the same page accesses issued to one disk).
    pub avg_sequential_ms: f64,
    /// Sum of per-disk reads over the whole workload.
    pub per_disk_reads: Vec<u64>,
}

impl WorkloadCost {
    fn from_costs(costs: &[QueryCost]) -> WorkloadCost {
        assert!(!costs.is_empty(), "workload must contain queries");
        let n = costs.len() as f64;
        let mut per_disk = vec![0u64; costs[0].per_disk_reads.len()];
        for c in costs {
            for (acc, r) in per_disk.iter_mut().zip(&c.per_disk_reads) {
                *acc += r;
            }
        }
        WorkloadCost {
            queries: costs.len(),
            avg_max_reads: costs.iter().map(|c| c.max_reads as f64).sum::<f64>() / n,
            avg_total_reads: costs.iter().map(|c| c.total_reads as f64).sum::<f64>() / n,
            avg_parallel_ms: costs
                .iter()
                .map(|c| c.parallel_time.as_secs_f64() * 1e3)
                .sum::<f64>()
                / n,
            avg_sequential_ms: costs
                .iter()
                .map(|c| c.sequential_time.as_secs_f64() * 1e3)
                .sum::<f64>()
                / n,
            per_disk_reads: per_disk,
        }
    }

    /// Aggregates a batch of per-query traces into a workload cost, so
    /// trace-based runs ([`run_traced_workload`]) report the same figures
    /// as the cost-based runners.
    pub fn from_traces(traces: &[QueryTrace], model: &DiskModel) -> WorkloadCost {
        let costs: Vec<QueryCost> = traces.iter().map(|t| t.cost(model)).collect();
        WorkloadCost::from_costs(&costs)
    }

    /// Average intra-query speed-up (`total / max` page reads).
    pub fn internal_speedup(&self) -> f64 {
        if self.avg_max_reads == 0.0 {
            1.0
        } else {
            self.avg_total_reads / self.avg_max_reads
        }
    }
}

/// Runs a k-NN workload against a parallel engine and aggregates the cost.
pub fn run_knn_workload(
    engine: &ParallelKnnEngine,
    queries: &[Point],
    k: usize,
) -> Result<WorkloadCost, EngineError> {
    let mut costs = Vec::with_capacity(queries.len());
    for q in queries {
        let (_, cost) = engine.knn(q, k)?;
        costs.push(cost);
    }
    Ok(WorkloadCost::from_costs(&costs))
}

/// Runs a k-NN workload one traced query at a time and returns the
/// aggregate cost together with the raw per-query traces.
pub fn run_traced_workload(
    engine: &ParallelKnnEngine,
    queries: &[Point],
    k: usize,
) -> Result<(WorkloadCost, Vec<QueryTrace>), EngineError> {
    let mut traces = Vec::with_capacity(queries.len());
    for q in queries {
        let (_, t) = engine.knn_traced(q, k)?;
        traces.push(t);
    }
    Ok((
        WorkloadCost::from_traces(&traces, engine.array().model()),
        traces,
    ))
}

/// Runs a k-NN workload against a page-declustered global tree.
pub fn run_declustered_workload(
    engine: &DeclusteredXTree,
    queries: &[Point],
    k: usize,
) -> Result<WorkloadCost, EngineError> {
    let mut costs = Vec::with_capacity(queries.len());
    for q in queries {
        let (_, cost) = engine.knn(q, k)?;
        costs.push(cost);
    }
    Ok(WorkloadCost::from_costs(&costs))
}

/// The paper's **speed-up** metric: sequential search time of the
/// single-disk X-tree divided by the parallel search time (service time of
/// the most-loaded disk).
pub fn speedup(sequential: &WorkloadCost, parallel: &WorkloadCost) -> f64 {
    if parallel.avg_parallel_ms == 0.0 {
        return 1.0;
    }
    sequential.avg_parallel_ms / parallel.avg_parallel_ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use parsim_datagen::{DataGenerator, UniformGenerator};

    #[test]
    fn workload_aggregation() {
        let pts = UniformGenerator::new(6).generate(3000, 1);
        let queries = UniformGenerator::new(6).generate(10, 2);
        let config = EngineConfig::paper_defaults(6);
        let par = ParallelKnnEngine::builder(6).disks(8).build(&pts).unwrap();
        let seq = ParallelKnnEngine::builder(6)
            .config(config)
            .disks(1)
            .build(&pts)
            .unwrap();

        let pc = run_knn_workload(&par, &queries, 10).unwrap();
        let sc = run_knn_workload(&seq, &queries, 10).unwrap();
        assert_eq!(pc.queries, 10);
        assert!(pc.avg_max_reads > 0.0);
        assert!(pc.avg_max_reads <= pc.avg_total_reads);
        assert!(pc.internal_speedup() > 1.0);
        // Parallel must beat the sequential baseline.
        let s = speedup(&sc, &pc);
        assert!(s > 1.5, "speed-up {s}");
        // And the sequential engine's max == total (one disk).
        assert_eq!(sc.avg_max_reads, sc.avg_total_reads);
    }
}
