//! The engine's own per-query counts, read from `QueryTrace` on the
//! deterministic path so that they repeat exactly from run to run.

use parsim_geometry::Point;
use parsim_parallel::{ExecutionMode, ParallelKnnEngine, QueryResult, QueryTrace};

use crate::check::Checker;
use crate::workload::Spec;

/// Sums of trace counters over the pool of queries.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    pub queries: u64,
    pub modeled_parallel_s: f64,
    pub modeled_sequential_s: f64,
    pub pages: u64,
    pub disks_hit: u64,
    pub dist_evals: u64,
    pub dist_evals_saved: u64,
    pub pruned: u64,
    pub lsh_probes: u64,
    pub lsh_candidates: u64,
    pub lsh_empty_probes: u64,
}

impl Counts {
    fn add(&mut self, t: &QueryTrace) {
        self.queries += 1;
        self.modeled_parallel_s += t.modeled_parallel.as_secs_f64();
        self.modeled_sequential_s += t.modeled_sequential.as_secs_f64();
        self.pages += t.total_pages();
        self.disks_hit += t.per_disk_pages.iter().filter(|&&p| p > 0).count() as u64;
        self.dist_evals += t.dist_evals;
        self.dist_evals_saved += t.dist_evals_saved;
        self.pruned += t.candidates_pruned;
        self.lsh_probes += t.lsh_probes;
        self.lsh_candidates += t.lsh_candidates;
        self.lsh_empty_probes += t.lsh_empty_probes;
    }

    /// Mean of a summed counter per query.
    pub fn per_query(&self, sum: u64) -> f64 {
        sum as f64 / self.queries as f64
    }

    /// Mean modeled service time of the most-loaded disk, the paper's
    /// metric, in ms.
    pub fn modeled_ms(&self) -> f64 {
        1e3 * self.modeled_parallel_s / self.queries as f64
    }

    /// Modeled sequential over modeled parallel time, summed over queries.
    pub fn modeled_speedup(&self) -> f64 {
        self.modeled_sequential_s / self.modeled_parallel_s
    }
}

/// Answers every pool query once with tracing on, on the path whose
/// traces are deterministic: the pooled pipeline one query at a time, or
/// `query_batch` at one worker on a scoped engine (a scoped single query
/// races its per-disk threads on the shared bound). Every answer is also
/// checked.
pub fn traced_pass(
    spec: &Spec,
    engine: &ParallelKnnEngine,
    queries: &[Point],
    truths: &[Vec<f64>],
    checker: &mut Checker,
) -> Counts {
    let opts = spec.query_opts().with_trace(true);
    let results: Vec<_> = match engine.execution() {
        ExecutionMode::Pooled => queries.iter().map(|q| engine.query(q, &opts)).collect(),
        ExecutionMode::Scoped => match engine.query_batch(queries, &opts.with_workers(1)) {
            Ok(rs) => rs.into_iter().map(Ok).collect(),
            Err(e) => vec![Err(e)],
        },
    };
    let mut counts = Counts::default();
    for (i, result) in results.into_iter().enumerate() {
        if let Ok(QueryResult { trace: Some(t), .. }) = &result {
            counts.add(t);
        }
        checker.answer(&queries[i], result, truths.get(i).map(Vec::as_slice));
    }
    if counts.queries != queries.len() as u64 {
        checker.fail(format!(
            "{} of {} traced queries carried a trace",
            counts.queries,
            queries.len()
        ));
    }
    counts
}
