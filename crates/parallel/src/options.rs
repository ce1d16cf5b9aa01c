//! Query options and fault policy for the parallel engine.
//!
//! [`QueryOptions`] unifies the former `knn` / `knn_traced` /
//! `knn_batch_with` entry-point sprawl into one record consumed by
//! [`crate::ParallelKnnEngine::query`] and
//! [`crate::ParallelKnnEngine::query_batch`]; [`FaultPolicy`] carries the
//! engine-wide degraded-mode defaults set at build time via
//! [`crate::EngineBuilder::fault_policy`].

use std::time::Duration;

use parsim_index::knn::{Neighbor, ScanTier};
use parsim_storage::QueryCost;

use crate::metrics::QueryTrace;

/// Who drives a query's stages.
///
/// Both modes run the same stage machine, so answers and traces are the
/// same in both; see [`crate::ParallelKnnEngine::submit`] for the trace
/// guarantees. [`ExecutionMode::Scoped`] drives a query on the calling
/// thread, disk after disk, and starts no thread for a single query
/// ([`crate::ParallelKnnEngine::query_batch`] runs a bounded set of
/// scoped threads, each claiming the next query). [`ExecutionMode::Pooled`]
/// starts one **persistent worker thread per disk** at build time;
/// queries are enqueued and *pipelined* from worker to worker, so
/// consecutive queries overlap across disks without a per-batch barrier
/// and no thread is ever spawned on the query path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// The calling thread drives each query (the default).
    #[default]
    Scoped,
    /// Long-lived per-disk workers fed by submission queues.
    Pooled,
}

/// Bounded-retry policy for reads against a flaky disk: up to
/// `max_retries` re-reads per page, with exponential backoff between
/// attempts. Retries cost *modeled* time only — the simulation draws the
/// error stream and charges the backoff plus the re-read to the disk's
/// modeled service time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum re-read attempts per failed page read.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub backoff: Duration,
    /// Multiplier applied to the backoff on each further retry.
    pub backoff_multiplier: f64,
}

impl RetryPolicy {
    /// No retries at all: the first read error fails the disk over.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff: Duration::ZERO,
            backoff_multiplier: 1.0,
        }
    }

    /// The backoff before retry attempt `attempt` (0-based):
    /// `backoff × multiplier^attempt`.
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        self.backoff
            .mul_f64(self.backoff_multiplier.powi(attempt as i32))
    }
}

impl Default for RetryPolicy {
    /// Two retries, 1 ms initial backoff, doubling.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_millis(1),
            backoff_multiplier: 2.0,
        }
    }
}

/// Engine-wide degraded-mode defaults: a per-disk service-time budget and
/// the retry policy for flaky reads. Individual queries can override both
/// via [`QueryOptions`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPolicy {
    /// Per-disk timeout: a disk whose *modeled* service time for this
    /// query (including slow-disk multipliers and retry backoff) exceeds
    /// the budget is treated as failed and its buckets fail over to
    /// replicas. `None` disables the budget.
    pub timeout: Option<Duration>,
    /// Retry policy for flaky-disk reads.
    pub retry: RetryPolicy,
}

impl FaultPolicy {
    /// The default policy with a per-disk timeout budget.
    pub fn with_timeout(timeout: Duration) -> Self {
        FaultPolicy {
            timeout: Some(timeout),
            ..FaultPolicy::default()
        }
    }
}

/// Per-query choice between the exact tree backbone and the approximate
/// LSH tier.
///
/// [`QueryMode::Exact`] (the default) runs the X-tree search and returns
/// the true k nearest neighbors — bit-identical whether or not the engine
/// was built with an LSH config. [`QueryMode::Approx`] requires the
/// engine to have been built with
/// [`crate::EngineBuilder::approx`]; it scans the query's hash buckets
/// instead of the trees, returning true dataset members with their true
/// f64 distances, but possibly missing some of the real top-k. `probes`
/// widens the search per table (multi-probe LSH): bucket 1 is the query's
/// own signature, further probes flip the lowest-margin signature bits
/// first. Recall is monotone non-decreasing in `probes` for a fixed
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Exact tree search (the default).
    #[default]
    Exact,
    /// Approximate LSH search.
    Approx {
        /// Buckets probed per table, at least 1 (0 is treated as 1).
        probes: usize,
    },
}

/// Options of one k-NN query (or batch): the result count plus tracing,
/// timeout, retry, and worker-pool knobs that were formerly spread over
/// separate entry points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOptions {
    /// Number of nearest neighbors to return.
    pub k: usize,
    /// Attach the full [`QueryTrace`] to each result.
    pub trace: bool,
    /// Per-disk modeled-time budget for this query; overrides the engine's
    /// [`FaultPolicy::timeout`] when set.
    pub timeout: Option<Duration>,
    /// Retry policy for this query; overrides the engine's
    /// [`FaultPolicy::retry`] when set.
    pub retry: Option<RetryPolicy>,
    /// Worker threads for [`crate::ParallelKnnEngine::query_batch`]
    /// (clamped to at least 1; defaults to the host's available
    /// parallelism). Ignored by single-query execution.
    pub workers: Option<usize>,
    /// Modeled end-to-end service-time budget for this query: overrides
    /// [`crate::AdmissionConfig::deadline`] when set. At every hop from
    /// one disk to the next the modeled service time the query has
    /// consumed is compared against the budget, and doomed work is shed
    /// with [`crate::EngineError::DeadlineExceeded`]. Applies in both
    /// execution modes.
    pub deadline: Option<Duration>,
    /// Precision tier of the leaf scans for this query; overrides the
    /// engine's [`crate::EngineConfig::tier`] when set. Every tier
    /// returns bit-identical answers — the cheap tiers only trade f64
    /// kernel work for certified low-precision lower-bound work (see
    /// `docs/TUNING.md`).
    pub tier: Option<ScanTier>,
    /// Exact tree search or the approximate LSH tier (see [`QueryMode`]).
    pub mode: QueryMode,
}

impl QueryOptions {
    /// Options for a plain k-NN query.
    pub fn new(k: usize) -> Self {
        QueryOptions {
            k,
            trace: false,
            timeout: None,
            retry: None,
            workers: None,
            deadline: None,
            tier: None,
            mode: QueryMode::Exact,
        }
    }

    /// Options for an approximate k-NN query on the LSH tier with the
    /// given multi-probe width.
    pub fn approx(k: usize, probes: usize) -> Self {
        QueryOptions::new(k).with_mode(QueryMode::Approx { probes })
    }

    /// Options for a traced k-NN query.
    pub fn traced(k: usize) -> Self {
        QueryOptions {
            trace: true,
            ..QueryOptions::new(k)
        }
    }

    /// Sets whether the full trace is attached to results.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the per-disk modeled-time budget.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the flaky-read retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Sets the batch worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets the modeled deadline budget for the serve layer.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the leaf-scan precision tier for this query.
    pub fn with_tier(mut self, tier: ScanTier) -> Self {
        self.tier = Some(tier);
        self
    }

    /// Sets the query mode (exact tree search or approximate LSH).
    pub fn with_mode(mut self, mode: QueryMode) -> Self {
        self.mode = mode;
        self
    }
}

/// The answer to one query: the neighbors, the classic per-disk page cost,
/// and — when [`QueryOptions::trace`] was set — the full trace.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The `k` nearest neighbors, nearest first.
    pub neighbors: Vec<Neighbor>,
    /// Per-disk page cost of the query.
    pub cost: QueryCost,
    /// The full trace, if requested.
    pub trace: Option<QueryTrace>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let r = RetryPolicy::default();
        assert_eq!(r.backoff_before(0), Duration::from_millis(1));
        assert_eq!(r.backoff_before(1), Duration::from_millis(2));
        assert_eq!(r.backoff_before(2), Duration::from_millis(4));
        assert_eq!(RetryPolicy::none().max_retries, 0);
    }

    #[test]
    fn options_builders_compose() {
        let o = QueryOptions::new(5)
            .with_timeout(Duration::from_millis(80))
            .with_retry(RetryPolicy::none())
            .with_workers(4)
            .with_deadline(Duration::from_millis(9))
            .with_tier(ScanTier::Q8)
            .with_trace(true);
        assert_eq!(o.k, 5);
        assert!(o.trace);
        assert_eq!(o.mode, QueryMode::Exact);
        let a = QueryOptions::approx(5, 3);
        assert_eq!(a.mode, QueryMode::Approx { probes: 3 });
        assert_eq!(
            QueryOptions::new(2)
                .with_mode(QueryMode::Approx { probes: 1 })
                .mode,
            QueryMode::Approx { probes: 1 }
        );
        assert_eq!(o.tier, Some(ScanTier::Q8));
        assert_eq!(QueryOptions::new(3).tier, None);
        assert_eq!(o.timeout, Some(Duration::from_millis(80)));
        assert_eq!(o.retry, Some(RetryPolicy::none()));
        assert_eq!(o.workers, Some(4));
        assert_eq!(o.deadline, Some(Duration::from_millis(9)));
        assert!(QueryOptions::traced(3).trace);
        assert!(!QueryOptions::new(3).trace);
        let p = FaultPolicy::with_timeout(Duration::from_secs(1));
        assert_eq!(p.timeout, Some(Duration::from_secs(1)));
    }
}
