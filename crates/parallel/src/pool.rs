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
//! A task is in one of two stages: the healthy RKV cursor walking its
//! MINDIST itinerary, or the stop list that runs every other query —
//! one unit of work (an HS tree search or an LSH bucket scan) per disk in
//! ascending order, then, when degraded, the failover stops.
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
//! queued queries. A stage that panics fails only its own query with
//! [`EngineError::Internal`]; the hop still counts the task done, so the
//! drain is unaffected and the worker keeps serving.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use parsim_geometry::Point;
use parsim_index::knn::{ForestCursor, SearchStats};
use parsim_storage::DiskModel;

use crate::engine::{EngineCore, StopList, TracedAnswer};
use crate::ingest::QueryOverlay;
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
    /// Every other query: one unit of work per disk in ascending disk
    /// order — an HS (or degraded RKV) tree search under a carried
    /// pruning bound, or an LSH bucket scan — then, when degraded, the
    /// failover stops.
    Stops {
        /// The stop list and its per-disk results.
        list: StopList,
        /// Which half of the itinerary the task is in.
        phase: Phase,
    },
}

/// Progress marker of a stop-list query.
pub(crate) enum Phase {
    /// Primary stops, in the order [`StopList::primary_stop`] lists them.
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
    let completion = Arc::clone(&task.completion);
    match std::panic::catch_unwind(AssertUnwindSafe(|| step(core, disk, task))) {
        Ok(Outcome::Forward(next, mut task)) => {
            let read = task.stats[disk].pages - pages_before;
            task.spent_micros += core.array.model().service_time(read).as_micros() as u64;
            Outcome::Forward(next, task)
        }
        Ok(Outcome::Done) => Outcome::Done,
        // A panicking stage fails its own query only: the task is gone,
        // so deliver the error here and count the query done — the pool
        // keeps draining and the worker keeps serving.
        Err(_) => {
            if let Some(m) = &core.metrics {
                m.record_failure();
            }
            completion.complete(Err(EngineError::Internal(format!(
                "a query stage panicked on disk {disk}"
            ))));
            Outcome::Done
        }
    }
}

/// Advances `task` as far as this disk can, then forwards or completes.
fn step(core: &EngineCore, disk: usize, mut task: Box<QueryTask>) -> Outcome {
    #[cfg(test)]
    if core.panic_in_step.load(Ordering::Relaxed) {
        panic!("injected stage panic on disk {disk}");
    }
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
        Stage::Stops {
            ref mut list,
            ref mut phase,
        } => loop {
            match phase {
                Phase::Primaries { pos } => {
                    let Some(stop) = list.primary_stop(*pos, core.trees.len()) else {
                        core.plan_failover(list);
                        *phase = Phase::Failover { pos: 0 };
                        continue;
                    };
                    if stop != disk {
                        forward = Some(stop);
                        break;
                    }
                    core.run_primary(disk, &task.query, task.k, list, &mut task.stats);
                    *pos += 1;
                }
                Phase::Failover { pos } => {
                    if *pos >= list.itinerary.len() {
                        break;
                    }
                    let (_, host) = list.itinerary[*pos];
                    if host != disk {
                        forward = Some(host);
                        break;
                    }
                    match core.run_failover(*pos, &task.query, task.k, list, &mut task.stats) {
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
        query,
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
        Stage::Stops { list, .. } => core.finish_stops(list, &query, k, &mut trace),
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
