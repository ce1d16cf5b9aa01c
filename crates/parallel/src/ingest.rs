//! Streaming ingest: the write-ahead delta buffer behind
//! [`ParallelKnnEngine::insert`](crate::ParallelKnnEngine::insert) /
//! [`remove`](crate::ParallelKnnEngine::remove).
//!
//! A bulk-loaded X-tree forest is the wrong structure to mutate under
//! live traffic, so writes never touch the trees directly. They land in
//! a bounded in-memory **delta buffer** — live points waiting to be
//! bulk-loaded, plus tombstones masking removed main-index items — and
//! every k-NN query merges the buffer into its result: the main search
//! runs with `k` inflated by the tombstone count, tombstoned items are
//! filtered out, and the delta's own top-`k` (computed by the same
//! brute-force scan the bit-identity suites use as ground truth) is
//! merged in with the engine's canonical `(dist, item)` tie-break. The
//! answer is therefore always **exact over `index ∪ delta`**, with the
//! query linearized at the instant its `QueryOverlay` was snapshotted.
//!
//! The buffer drains through the shadow rebuild in
//! [`ParallelKnnEngine::reorganize`](crate::ParallelKnnEngine::reorganize):
//! while the replacement forest bulk-loads, the buffer keeps absorbing
//! writes and journals them into its [`OpLog`]; at swap time exactly that
//! tail is replayed into the fresh buffer. See `DESIGN.md` ("Streaming
//! ingest & online reorganize").

use std::collections::BTreeSet;

use parsim_geometry::Point;
use parsim_index::knn::{brute_force_knn, Neighbor};
use parsim_storage::OpLog;

use crate::engine::merge_candidates;

/// Write-path configuration, set at build time through
/// [`EngineBuilder::ingest`](crate::EngineBuilder::ingest). An engine
/// built without one is read-only: `insert`/`remove` return
/// [`EngineError::ReadOnly`](crate::EngineError::ReadOnly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestConfig {
    /// Upper bound on the delta buffer size (live points + tombstones).
    /// A full buffer sheds further writes with
    /// [`EngineError::DeltaFull`](crate::EngineError::DeltaFull) — the
    /// write-side analogue of the serve layer's
    /// [`Overloaded`](crate::EngineError::Overloaded) backpressure —
    /// until a reorganize drains it. The bound also caps the per-query
    /// overlay cost: every query brute-force scans at most this many
    /// delta points.
    pub delta_capacity: usize,
    /// Delta size at which a rebuild is triggered automatically after a
    /// write; `None` (the default) leaves reorganization to explicit
    /// [`flush`](crate::ParallelKnnEngine::flush) /
    /// [`reorganize`](crate::ParallelKnnEngine::reorganize) calls.
    pub rebuild_threshold: Option<usize>,
    /// Projected load imbalance (`max/avg` over per-disk point counts,
    /// counting buffered inserts toward the disks the current
    /// declusterer would give them) past which a write triggers a
    /// rebuild — the same skew statistic the declustering refinement
    /// tracks per level. `None` disables the skew trigger.
    pub imbalance_threshold: Option<f64>,
    /// Run triggered rebuilds on a background thread (the default); set
    /// false to rebuild synchronously on the triggering write call.
    pub background: bool,
}

impl IngestConfig {
    /// A write path buffering up to `delta_capacity` operations, with
    /// both automatic-rebuild triggers off.
    pub fn new(delta_capacity: usize) -> Self {
        IngestConfig {
            delta_capacity: delta_capacity.max(1),
            rebuild_threshold: None,
            imbalance_threshold: None,
            background: true,
        }
    }

    /// Triggers an automatic rebuild once the delta holds `threshold`
    /// entries.
    pub fn with_rebuild_threshold(mut self, threshold: usize) -> Self {
        self.rebuild_threshold = Some(threshold);
        self
    }

    /// Triggers an automatic rebuild once the projected per-disk load
    /// imbalance (`max/avg`) exceeds `threshold`.
    pub fn with_imbalance_threshold(mut self, threshold: f64) -> Self {
        self.imbalance_threshold = Some(threshold);
        self
    }

    /// Runs triggered rebuilds synchronously on the writing thread
    /// instead of a background thread.
    pub fn foreground(mut self) -> Self {
        self.background = false;
        self
    }
}

impl Default for IngestConfig {
    /// 4096-entry buffer, no automatic triggers, background rebuilds.
    fn default() -> Self {
        IngestConfig::new(4096)
    }
}

/// One journaled write, replayed after a shadow-rebuild swap.
#[derive(Debug, Clone)]
pub(crate) enum DeltaOp {
    /// A point inserted under an already-allocated item id.
    Insert(Point, u64),
    /// A removal by item id.
    Remove(u64),
}

/// The delta buffer: live inserted points, tombstones over the main
/// index, per-disk projections for the skew trigger, and the rebuild
/// op log. Always owned by the engine's delta mutex.
pub(crate) struct DeltaState {
    /// Points inserted since the last rebuild, in insertion order.
    live: Vec<(Point, u64)>,
    /// Item ids removed from the main index but still present in its
    /// trees; masked out of every answer until a rebuild purges them.
    tombstones: BTreeSet<u64>,
    /// How many live points the current declusterer would place on each
    /// disk — the delta's contribution to the projected imbalance.
    per_disk: Vec<usize>,
    /// Journal of writes applied while a shadow rebuild is in flight.
    log: OpLog<DeltaOp>,
}

impl DeltaState {
    pub(crate) fn new(disks: usize) -> Self {
        DeltaState {
            live: Vec::new(),
            tombstones: BTreeSet::new(),
            per_disk: vec![0; disks],
            log: OpLog::new(),
        }
    }

    /// Live points + tombstones — the size the capacity bound applies to.
    pub(crate) fn size(&self) -> usize {
        self.live.len() + self.tombstones.len()
    }

    pub(crate) fn live_len(&self) -> usize {
        self.live.len()
    }

    pub(crate) fn tombstone_len(&self) -> usize {
        self.tombstones.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live.is_empty() && self.tombstones.is_empty()
    }

    pub(crate) fn per_disk(&self) -> &[usize] {
        &self.per_disk
    }

    /// True if `item` is buffered as a live (not yet bulk-loaded) point.
    pub(crate) fn contains_live(&self, item: u64) -> bool {
        self.live.iter().any(|&(_, id)| id == item)
    }

    /// Buffers an insert under `item`, projected onto `disk`, and
    /// journals it when a rebuild capture is open.
    pub(crate) fn apply_insert(&mut self, point: Point, item: u64, disk: usize) {
        self.log.record(DeltaOp::Insert(point.clone(), item));
        self.per_disk[disk] += 1;
        self.live.push((point, item));
    }

    /// Buffers a removal of `item`: a buffered live point is dropped on
    /// the spot (its disk projection recomputed through `disk_of`),
    /// anything else becomes a tombstone over the main index.
    /// Idempotent. Journals the op when a rebuild capture is open.
    pub(crate) fn apply_remove(&mut self, item: u64, disk_of: &dyn Fn(u64, &Point) -> usize) {
        self.log.record(DeltaOp::Remove(item));
        if let Some(pos) = self.live.iter().position(|&(_, id)| id == item) {
            let (point, _) = self.live.swap_remove(pos);
            self.per_disk[disk_of(item, &point)] -= 1;
        } else {
            self.tombstones.insert(item);
        }
    }

    /// Snapshot of the query-visible delta for one k-NN query, or `None`
    /// when the buffer is empty (the zero-overhead read-only fast path).
    pub(crate) fn overlay(&self, query: &Point, k: usize) -> Option<QueryOverlay> {
        if self.is_empty() {
            return None;
        }
        Some(QueryOverlay {
            query: query.clone(),
            delta_hits: brute_force_knn(&self.live, query, k),
            tombstones: self.tombstones.iter().copied().collect(),
            k,
        })
    }

    /// Starts a shadow rebuild: returns the (cloned) snapshot to be
    /// bulk-loaded alongside the main index and opens the op-log capture
    /// window. The buffer itself stays fully live — writes keep applying
    /// normally *and* are journaled, so an aborted rebuild needs no
    /// recovery beyond closing the window.
    pub(crate) fn begin_rebuild(&mut self) -> (Vec<(Point, u64)>, BTreeSet<u64>) {
        self.log.begin_capture();
        (self.live.clone(), self.tombstones.clone())
    }

    /// Closes the capture window and returns the tail of writes that
    /// arrived after [`DeltaState::begin_rebuild`], in application order.
    pub(crate) fn end_rebuild(&mut self) -> Vec<DeltaOp> {
        self.log.end_capture()
    }

    /// True while a rebuild's journal-capture window is open. Used by
    /// the swap-race regression test to land a remove inside the window.
    #[cfg(test)]
    pub(crate) fn capturing(&self) -> bool {
        self.log.is_capturing()
    }
}

/// The delta view a query merges into its main-index answer, snapshotted
/// at submission under the delta lock — the query's linearization point.
pub(crate) struct QueryOverlay {
    /// The query, for the merge's squared distances.
    query: Point,
    /// The delta buffer's own top-`k` for this query.
    delta_hits: Vec<Neighbor>,
    /// Sorted tombstoned item ids, filtered out of the main answer.
    tombstones: Vec<u64>,
    /// The k the caller asked for.
    k: usize,
}

impl QueryOverlay {
    /// How far the main-index search must inflate its `k`: the top-`k`
    /// of `main \ tombstones` is always contained in the top-`(k + t)`
    /// of `main` when `t` items are masked, so searching `k + t` and
    /// filtering yields the exact masked answer.
    pub(crate) fn extra_k(&self) -> usize {
        self.tombstones.len()
    }

    /// Merges the main-index candidates with the delta snapshot:
    /// tombstoned items drop out, delta hits merge in, and the result is
    /// the exact top-`k` over `index ∪ delta` under the engine's
    /// canonical `(dist2, item)` order.
    pub(crate) fn apply(&self, mut main: Vec<Neighbor>) -> Vec<Neighbor> {
        main.retain(|n| self.tombstones.binary_search(&n.item).is_err());
        merge_candidates(
            [main.as_slice(), self.delta_hits.as_slice()].into_iter(),
            &self.query,
            self.k,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coords: &[f64]) -> Point {
        Point::new(coords.to_vec()).unwrap()
    }

    #[test]
    fn overlay_merges_filters_and_truncates() {
        let mut delta = DeltaState::new(2);
        delta.apply_insert(p(&[0.1, 0.1]), 10, 0);
        delta.apply_insert(p(&[0.9, 0.9]), 11, 1);
        delta.apply_remove(5, &|_, _| 0); // main-index item -> tombstone
        let q = p(&[0.0, 0.0]);
        let overlay = delta.overlay(&q, 2).unwrap();
        assert_eq!(overlay.extra_k(), 1);
        let main = vec![
            Neighbor {
                item: 5,
                point: p(&[0.0, 0.05]),
                dist: 0.05,
            },
            Neighbor {
                item: 3,
                point: p(&[0.2, 0.2]),
                dist: p(&[0.2, 0.2]).dist(&q),
            },
            Neighbor {
                item: 7,
                point: p(&[0.5, 0.5]),
                dist: p(&[0.5, 0.5]).dist(&q),
            },
        ];
        let merged = overlay.apply(main);
        // Tombstoned 5 is gone; delta point 10 beats main point 3.
        assert_eq!(
            merged.iter().map(|n| n.item).collect::<Vec<_>>(),
            vec![10, 3]
        );
    }

    #[test]
    fn remove_of_a_live_point_never_tombstones() {
        let mut delta = DeltaState::new(1);
        delta.apply_insert(p(&[0.5]), 42, 0);
        assert!(delta.contains_live(42));
        delta.apply_remove(42, &|_, _| 0);
        assert!(delta.is_empty());
        assert_eq!(delta.per_disk(), &[0]);
        // Idempotent second removal tombstones (the item might be a
        // main-index id the caller knows better than we do).
        delta.apply_remove(42, &|_, _| 0);
        delta.apply_remove(42, &|_, _| 0);
        assert_eq!(delta.tombstone_len(), 1);
    }

    #[test]
    fn rebuild_capture_journals_exactly_the_tail() {
        let mut delta = DeltaState::new(1);
        delta.apply_insert(p(&[0.1]), 0, 0);
        let (live, tombs) = delta.begin_rebuild();
        assert_eq!(live.len(), 1);
        assert!(tombs.is_empty());
        delta.apply_insert(p(&[0.2]), 1, 0);
        delta.apply_remove(7, &|_, _| 0);
        let tail = delta.end_rebuild();
        assert_eq!(tail.len(), 2);
        assert!(matches!(tail[0], DeltaOp::Insert(_, 1)));
        assert!(matches!(tail[1], DeltaOp::Remove(7)));
        // The buffer itself tracked everything as well.
        assert_eq!(delta.live_len(), 2);
        assert_eq!(delta.tombstone_len(), 1);
    }
}
