//! The query stage machine and its two drivers.
//!
//! Every k-NN query is one `QueryTask`: its immutable inputs plus all of
//! its mutable search state, boxed so a hop moves a pointer, not the
//! state. The task walks its execution itinerary disk by disk — a
//! **pipeline**, not a fan-out — and at each disk the same per-hop rule
//! runs: shed the task if its modeled deadline already passed, open its
//! coalescing wave, run every consecutive step that belongs to this disk,
//! and charge the pages read to its modeled budget. Because the task
//! visits disks in exactly the order the single-threaded reference search
//! visits them, answer *and* trace are bit-identical to the deterministic
//! forest search, whoever drives it.
//!
//! Two drivers apply that rule:
//!
//! * [`ExecutionMode::Scoped`](crate::ExecutionMode::Scoped) runs the
//!   hops inline on the caller's thread, disk after disk, with no queue
//!   and no thread started.
//! * [`ExecutionMode::Pooled`](crate::ExecutionMode::Pooled) keeps one
//!   long-lived worker thread per disk, each owning that disk's subtree
//!   set (its primary tree and the mirror trees *hosted* on it). Workers
//!   are fed by per-disk `DiskQueue`s (bounded priority queues — FIFO by
//!   submission order until an [`crate::serve::AdmissionConfig`] asks for
//!   more), so many queries pipeline through the disks concurrently with
//!   no per-query thread spawn and no per-batch barrier.
//!
//! Shutdown protocol: dropping the `WorkerPool` first **drains** — it
//! waits until the in-flight counter hits zero, so no queued task can be
//! abandoned — then signals every queue's shutdown flag and joins the
//! workers. Workers never block on enqueue (hops are exempt from the
//! admission bound) and every hop strictly advances a task's itinerary,
//! so the drain always terminates: engine drop cannot deadlock even with
//! queued queries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use parsim_geometry::Point;
use parsim_index::knn::{ForestCursor, Neighbor, ScanTier, SearchStats, SharedBound};
use parsim_index::ScanOrder;
use parsim_storage::DiskModel;

use crate::engine::{merge_candidates, DegradedState, EngineCore, TracedAnswer};
use crate::ingest::QueryOverlay;
use crate::lsh::{merge_unique_candidates, DiskProbes, LshCounters};
use crate::metrics::QueryTrace;
use crate::obs::EngineMetrics;
use crate::options::QueryResult;
use crate::serve::DiskQueue;
use crate::EngineError;

/// One in-flight query: its immutable inputs plus all mutable search
/// state, boxed so a hop moves a pointer, not the state.
pub(crate) struct QueryTask {
    /// The query point.
    pub(crate) query: Point,
    /// Result count.
    pub(crate) k: usize,
    /// Leaf-scan precision tier (the RKV cursor and degraded state carry
    /// their own copy; this one feeds the HS per-disk searches).
    pub(crate) tier: ScanTier,
    /// Scan-order knob, carried alongside the tier for the same reason.
    pub(crate) order: ScanOrder,
    /// Per-disk work counters, accumulated as the task hops.
    pub(crate) stats: Vec<SearchStats>,
    /// Submission instant (the trace's wall time spans queueing too).
    pub(crate) start: Instant,
    /// Where the query is in its execution.
    pub(crate) stage: Stage,
    /// Where the answer goes.
    pub(crate) completion: Arc<Completion>,
    /// Coalescing wave: queries sharing a wave id may share physical page
    /// reads (unique per submission unless the query came in through
    /// [`crate::ParallelKnnEngine::submit_wave`]).
    pub(crate) wave: u64,
    /// Modeled service-time budget in µs; `None` disables deadline
    /// shedding for this query.
    pub(crate) deadline_micros: Option<u64>,
    /// Modeled service time the query has consumed over its hops so far,
    /// in µs — compared against the budget at every hop.
    pub(crate) spent_micros: u64,
    /// Admission sequence number (assigned by the pool at submit; reused
    /// by every later hop as the FIFO tie-break).
    pub(crate) seq: u64,
}

/// The execution state machine of a query.
pub(crate) enum Stage {
    /// Healthy RKV: one [`ForestCursor`] walking the MINDIST itinerary —
    /// the deterministic forest search, disk by disk.
    Rkv {
        /// The traveling search state.
        cursor: ForestCursor,
        /// `(root MINDIST², disk)` stops in visiting order.
        itinerary: Vec<(f64, usize)>,
        /// Next stop.
        pos: usize,
    },
    /// Healthy HS: disk-by-disk best-first searches under one carried
    /// pruning bound. Answers are exact; page traces are
    /// execution-shaped (see [`crate::ParallelKnnEngine::submit`]).
    Hs {
        /// The carried pruning bound, tightened at every disk.
        bound: SharedBound,
        /// Per-disk candidate lists, merged at the last disk.
        candidates: Vec<Vec<Neighbor>>,
        /// Next disk.
        next: usize,
    },
    /// Degraded execution of either tier: primaries, then failover.
    Degraded {
        /// The shared degraded state machine.
        state: DegradedState,
        /// Which half of the itinerary the task is in.
        phase: Phase,
    },
    /// Healthy approximate execution: the query's LSH probe plan,
    /// grouped by owning disk and visited in ascending disk order. Each
    /// stop scans its buckets and keeps the disk-local top-k; the last
    /// stop merges with cross-disk deduplication.
    Approx {
        /// Probe targets grouped by owning disk, ascending.
        plan: Vec<DiskProbes>,
        /// Next plan entry.
        pos: usize,
        /// Per-disk candidate lists, merged at the last stop.
        candidates: Vec<Vec<Neighbor>>,
        /// LSH work counters, folded into the trace at completion.
        counters: LshCounters,
    },
}

/// Progress marker of a degraded query.
pub(crate) enum Phase {
    /// Primary stops, in the order [`DegradedState::primary_stop`] lists
    /// them.
    Primaries {
        /// Next primary stop.
        pos: usize,
    },
    /// Failover stops planned by
    /// [`EngineCore::plan_failover`], executed on each mirror's host.
    Failover {
        /// Next itinerary position.
        pos: usize,
    },
}

/// A write-once answer slot with a wakeup for waiters.
pub(crate) struct Completion {
    slot: Mutex<Option<TracedAnswer>>,
    ready: Condvar,
}

impl Completion {
    pub(crate) fn new() -> Self {
        Completion {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// Stores the answer and wakes every waiter. Called exactly once.
    pub(crate) fn complete(&self, answer: TracedAnswer) {
        let mut slot = self.slot.lock().expect("completion lock is never poisoned");
        debug_assert!(slot.is_none(), "a query completes exactly once");
        *slot = Some(answer);
        self.ready.notify_all();
    }

    fn wait(&self) -> TracedAnswer {
        let mut slot = self.slot.lock().expect("completion lock is never poisoned");
        loop {
            if let Some(answer) = slot.take() {
                return answer;
            }
            slot = self
                .ready
                .wait(slot)
                .expect("completion lock is never poisoned");
        }
    }

    fn is_ready(&self) -> bool {
        self.slot
            .lock()
            .expect("completion lock is never poisoned")
            .is_some()
    }
}

/// A handle to a submitted query (see
/// [`crate::ParallelKnnEngine::submit`]): wait on it to get the
/// [`QueryResult`]. Dropping the handle without waiting is fine — the
/// query still runs to completion and its answer is discarded.
pub struct PendingQuery {
    completion: Arc<Completion>,
    trace: bool,
    model: DiskModel,
    /// The query's delta-buffer snapshot, merged into the answer on
    /// wait. The stage machine itself searches with `k` inflated by the
    /// overlay's tombstone count; the merge here filters the tombstones,
    /// folds in the delta hits, and truncates back to the caller's `k`.
    overlay: Option<QueryOverlay>,
}

impl PendingQuery {
    pub(crate) fn new(
        completion: Arc<Completion>,
        trace: bool,
        model: DiskModel,
        overlay: Option<QueryOverlay>,
    ) -> Self {
        PendingQuery {
            completion,
            trace,
            model,
            overlay,
        }
    }

    /// True once the answer is available and [`PendingQuery::wait`] will
    /// not block.
    pub fn is_ready(&self) -> bool {
        self.completion.is_ready()
    }

    /// Blocks until the query finishes and returns its result.
    pub fn wait(self) -> Result<QueryResult, EngineError> {
        let (neighbors, trace) = self.completion.wait()?;
        let neighbors = match &self.overlay {
            Some(o) => o.apply(neighbors),
            None => neighbors,
        };
        let cost = trace.cost(&self.model);
        Ok(QueryResult {
            neighbors,
            cost,
            trace: self.trace.then_some(trace),
        })
    }
}

/// In-flight query counter with a drained-to-zero wakeup.
struct Inflight {
    count: Mutex<u64>,
    zero: Condvar,
}

impl Inflight {
    fn new() -> Self {
        Inflight {
            count: Mutex::new(0),
            zero: Condvar::new(),
        }
    }

    fn inc(&self) {
        *self.count.lock().expect("inflight lock is never poisoned") += 1;
    }

    fn dec(&self) {
        let mut count = self.count.lock().expect("inflight lock is never poisoned");
        *count -= 1;
        if *count == 0 {
            self.zero.notify_all();
        }
    }

    fn wait_zero(&self) {
        let mut count = self.count.lock().expect("inflight lock is never poisoned");
        while *count > 0 {
            count = self
                .zero
                .wait(count)
                .expect("inflight lock is never poisoned");
        }
    }
}

/// The persistent pool: one pinned worker per disk plus its feeding
/// queues. Created eagerly at engine build, drained and joined on drop.
pub(crate) struct WorkerPool {
    queues: Vec<Arc<DiskQueue>>,
    handles: Vec<JoinHandle<()>>,
    inflight: Arc<Inflight>,
    metrics: Option<Arc<EngineMetrics>>,
    /// Global admission order; also the hop-priority tie-break.
    seq: AtomicU64,
    /// Coalescing wave ids; unique per submission unless a wave groups
    /// several (wave 0 is never handed out, so single submissions on an
    /// engine without coalescing can never alias a real wave).
    wave: AtomicU64,
}

impl WorkerPool {
    /// Spawns one worker per disk of `core`. The queue capacity comes
    /// from the core's admission config (`usize::MAX` — never reject —
    /// without one).
    pub(crate) fn start(core: Arc<EngineCore>) -> Self {
        let disks = core.trees.len();
        let capacity = core
            .admission
            .map(|a| a.queue_capacity)
            .unwrap_or(usize::MAX);
        let queues: Vec<Arc<DiskQueue>> = (0..disks)
            .map(|_| Arc::new(DiskQueue::new(capacity)))
            .collect();
        let inflight = Arc::new(Inflight::new());
        let metrics = core.metrics.clone();
        let handles = (0..disks)
            .map(|disk| {
                let core = Arc::clone(&core);
                let queues = queues.clone();
                let inflight = Arc::clone(&inflight);
                std::thread::Builder::new()
                    .name(format!("parsim-disk-{disk}"))
                    .spawn(move || worker_loop(disk, &core, &queues, &inflight))
                    .expect("worker thread spawns")
            })
            .collect();
        WorkerPool {
            queues,
            handles,
            inflight,
            metrics,
            seq: AtomicU64::new(0),
            wave: AtomicU64::new(1),
        }
    }

    /// A fresh coalescing wave id.
    pub(crate) fn next_wave(&self) -> u64 {
        self.wave.fetch_add(1, Ordering::Relaxed)
    }

    /// Admits a task with worker `first` (its first itinerary stop), or
    /// rejects it with [`EngineError::Overloaded`] when that disk's queue
    /// is at capacity. The queue-depth gauge is raised before the push
    /// and lowered by the receiving worker, so the gauges drain back to
    /// zero exactly when the pool does (a rejected push lowers it again
    /// itself).
    pub(crate) fn submit(&self, first: usize, mut task: Box<QueryTask>) -> Result<(), EngineError> {
        task.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let budget = task.deadline_micros.unwrap_or(u64::MAX);
        let seq = task.seq;
        self.inflight.inc();
        if let Some(m) = &self.metrics {
            m.queue_depth(first).inc();
        }
        match self.queues[first].push_submit(budget, seq, task) {
            Ok(()) => Ok(()),
            Err(depth) => {
                if let Some(m) = &self.metrics {
                    m.queue_depth(first).dec();
                }
                self.inflight.dec();
                Err(EngineError::Overloaded { disk: first, depth })
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Drain-then-stop: once inflight is zero no task exists in any
        // queue, so the shutdown flag can never overtake a live query.
        self.inflight.wait_zero();
        for queue in &self.queues {
            queue.shutdown();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: pop a task, take it one hop on this disk, then either
/// forward it to the next disk's worker or count it done.
fn worker_loop(disk: usize, core: &EngineCore, queues: &[Arc<DiskQueue>], inflight: &Inflight) {
    while let Some(task) = queues[disk].pop() {
        if let Some(m) = &core.metrics {
            m.queue_depth(disk).dec();
        }
        match hop(core, disk, task) {
            Outcome::Forward(next, task) => {
                if let Some(m) = &core.metrics {
                    m.queue_depth(next).inc();
                }
                let budget = task.deadline_micros.unwrap_or(u64::MAX);
                let seq = task.seq;
                queues[next].push_hop(budget, seq, task);
            }
            Outcome::Done => inflight.dec(),
        }
    }
}

/// The inline driver of a scoped engine: takes the task from disk
/// `first` through every hop on the calling thread. The answer is in the
/// task's completion when this returns.
pub(crate) fn run_inline(core: &EngineCore, first: usize, task: Box<QueryTask>) {
    let mut next = hop(core, first, task);
    while let Outcome::Forward(disk, task) = next {
        next = hop(core, disk, task);
    }
}

/// Result of one hop.
enum Outcome {
    /// The task's next step belongs to another disk.
    Forward(usize, Box<QueryTask>),
    /// The task completed (answer or error delivered).
    Done,
}

/// The per-hop rule both drivers apply at `disk`: shed the task if its
/// modeled deadline already passed, open its coalescing wave, run every
/// consecutive step that belongs to this disk, and charge the pages read
/// to its modeled budget before it moves on.
fn hop(core: &EngineCore, disk: usize, task: Box<QueryTask>) -> Outcome {
    // Deadline shed: the modeled service time already consumed exceeds
    // the budget, so every further page read is wasted work — deliver
    // the typed error now instead of a late answer.
    if let Some(budget) = task.deadline_micros {
        if task.spent_micros > budget {
            if let Some(m) = &core.metrics {
                m.record_shed_deadline(task.spent_micros - budget);
            }
            task.completion.complete(Err(EngineError::DeadlineExceeded {
                budget_micros: budget,
                spent_micros: task.spent_micros,
            }));
            return Outcome::Done;
        }
    }
    core.begin_wave(disk, task.wave);
    let pages_before = task.stats[disk].pages;
    match step(core, disk, task) {
        Outcome::Forward(next, mut task) => {
            let read = task.stats[disk].pages - pages_before;
            task.spent_micros += core.array.model().service_time(read).as_micros() as u64;
            Outcome::Forward(next, task)
        }
        Outcome::Done => Outcome::Done,
    }
}

/// Advances `task` as far as this disk can, then forwards or completes.
fn step(core: &EngineCore, disk: usize, mut task: Box<QueryTask>) -> Outcome {
    let mut forward: Option<usize> = None;
    let mut error: Option<EngineError> = None;
    match task.stage {
        Stage::Rkv {
            ref mut cursor,
            ref itinerary,
            ref mut pos,
        } => {
            while *pos < itinerary.len() {
                let (min_dist, ti) = itinerary[*pos];
                if cursor.prunable(min_dist) {
                    // Sorted itinerary: every remaining tree is pruned
                    // whole, exactly as the reference loop counts it.
                    for &(_, tj) in &itinerary[*pos..] {
                        task.stats[tj].pruned += 1;
                    }
                    *pos = itinerary.len();
                    break;
                }
                if ti != disk {
                    forward = Some(ti);
                    break;
                }
                core.cursor_visit(ti, cursor, &task.query, &mut task.stats[ti]);
                *pos += 1;
            }
        }
        Stage::Hs {
            ref bound,
            ref mut candidates,
            ref mut next,
        } => {
            while *next < core.trees.len() {
                if *next != disk {
                    forward = Some(*next);
                    break;
                }
                let (cands, s) =
                    core.hs_visit(disk, &task.query, task.k, bound, task.tier, task.order);
                task.stats[disk].merge(s);
                candidates[disk] = cands;
                *next += 1;
            }
        }
        Stage::Approx {
            ref plan,
            ref mut pos,
            ref mut candidates,
            ref mut counters,
        } => {
            while *pos < plan.len() {
                let entry = &plan[*pos];
                if entry.disk != disk {
                    forward = Some(entry.disk);
                    break;
                }
                let lsh = core.lsh.as_ref().expect("Approx stage needs the LSH tier");
                candidates[disk] = lsh.scan_disk(
                    disk,
                    &entry.buckets,
                    &task.query,
                    task.k,
                    &mut task.stats[disk],
                    counters,
                );
                *pos += 1;
            }
        }
        Stage::Degraded {
            ref mut state,
            ref mut phase,
        } => loop {
            match phase {
                Phase::Primaries { pos } => {
                    let Some(stop) = state.primary_stop(*pos, core.trees.len()) else {
                        core.plan_failover(state);
                        *phase = Phase::Failover { pos: 0 };
                        continue;
                    };
                    if stop != disk {
                        forward = Some(stop);
                        break;
                    }
                    core.degraded_primary(disk, &task.query, task.k, state, &mut task.stats);
                    *pos += 1;
                }
                Phase::Failover { pos } => {
                    if *pos >= state.itinerary.len() {
                        break;
                    }
                    let (_, host) = state.itinerary[*pos];
                    if host != disk {
                        forward = Some(host);
                        break;
                    }
                    match core.degraded_failover(*pos, &task.query, task.k, state, &mut task.stats)
                    {
                        Ok(()) => *pos += 1,
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                    }
                }
            }
        },
    }
    if let Some(e) = error {
        // Record before delivery so a snapshot taken after `wait` returns
        // always sees this query.
        if let Some(m) = &core.metrics {
            m.record_failure();
        }
        task.completion.complete(Err(e));
        return Outcome::Done;
    }
    if let Some(next) = forward {
        return Outcome::Forward(next, task);
    }
    complete(core, *task);
    Outcome::Done
}

/// Finishes a task whose itinerary is exhausted: merge, build the trace,
/// record it, deliver the answer. The one place a query is recorded.
pub(crate) fn complete(core: &EngineCore, task: QueryTask) {
    let QueryTask {
        k,
        stats,
        start,
        stage,
        completion,
        ..
    } = task;
    let mut trace = QueryTrace::from_stats(&stats, start.elapsed(), core.array.model());
    let answer = match stage {
        Stage::Rkv { cursor, .. } => Ok(cursor.finish()),
        Stage::Hs { candidates, .. } => {
            Ok(merge_candidates(candidates.iter().map(Vec::as_slice), k))
        }
        Stage::Approx {
            candidates,
            counters,
            ..
        } => {
            counters.fold_into(&mut trace);
            Ok(merge_unique_candidates(
                candidates.iter().map(Vec::as_slice),
                k,
            ))
        }
        Stage::Degraded { state, .. } => core.finish_degraded(state, k, &mut trace),
    };
    // Record before delivery so a snapshot taken after `wait` returns
    // always sees this query.
    if let Some(m) = &core.metrics {
        match &answer {
            Ok(_) => m.record_query(&trace, core.array.model()),
            Err(_) => m.record_failure(),
        }
    }
    completion.complete(answer.map(|neighbors| (neighbors, trace)));
}
