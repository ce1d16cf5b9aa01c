//! k-nearest-neighbor search.
//!
//! Two classical algorithms, both exact:
//!
//! * **RKV** — Roussopoulos, Kelley & Vincent \[RKV 95\]: depth-first
//!   branch-and-bound. Partitions are visited in MINDIST order; branches
//!   whose MINDIST exceeds the current k-th best distance are pruned, and
//!   for `k = 1` the MINMAXDIST bound additionally prunes partitions that
//!   provably cannot contain the nearest neighbor. This is the algorithm
//!   the paper runs on the X-tree.
//! * **HS** — Hjaltason & Samet \[HS 95\]: best-first incremental search
//!   with a global priority queue ordered by MINDIST. Optimal in the
//!   number of pages visited; applicable to any recursive partitioning.
//!
//! Both charge one page visit per node they read (supernodes charge their
//! page count), via [`SpatialTree::charge_visit`].
//!
//! Every search also counts its own work into a [`SearchStats`], and the
//! bounded entry points accept a [`SharedBound`] — the pruning bound of
//! the paper's parallel variant 3, carried from disk to disk: each disk's
//! search publishes its k-th-best distance so the disks searched after it
//! prune against the global state of the query.
//!
//! Leaf scans run through a [`LeafScanner`] at a configurable
//! [`ScanTier`]: the cheap tiers first sweep the leaf's f32 or int8 mirror
//! with certified lower-bound kernels and re-rank only the survivors with
//! the canonical f64 kernels, so the answers stay bit-identical to the
//! pure-f64 scan while most rows never pay for f64 arithmetic (see
//! `DESIGN.md`, "Precision tiers").

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use parsim_geometry::{kernel, rect, Point};

use crate::node::{LeafEntries, Node, NodeId};
use crate::params::ScanOrder;
use crate::tree::{SpatialTree, VisitOutcome};

/// Which k-NN algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KnnAlgorithm {
    /// Depth-first branch-and-bound \[RKV 95\] (the paper's choice).
    #[default]
    Rkv,
    /// Best-first incremental search \[HS 95\].
    Hs,
}

/// Arithmetic precision of the phase-1 leaf scan (see `DESIGN.md`,
/// "Precision tiers").
///
/// Every tier returns answers **bit-identical** to [`ScanTier::F64`]: the
/// cheap tiers only *filter* leaf rows using certified lower bounds on the
/// f64 distance (low-precision kernel sum widened by per-block error
/// bounds), and every survivor is re-ranked by the canonical f64 batch
/// kernel. A filtered row is provably at least as far as the current
/// pruning radius, exactly like a row abandoned by the early-abandon f64
/// kernel — same contract, cheaper arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScanTier {
    /// Canonical f64 kernels only (the default; no phase 1).
    #[default]
    F64,
    /// Phase 1 over the f32 mirror of each leaf block.
    F32,
    /// Phase 1 over the 8-bit scalar-quantized mirror of each leaf block.
    Q8,
}

/// One answer of a k-NN query.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor {
    /// The caller-supplied item id of the matching point.
    pub item: u64,
    /// The matching point.
    pub point: Point,
    /// Euclidean distance to the query.
    pub dist: f64,
}

/// Work counters collected by one (per-tree) k-NN search.
///
/// `pages` counts the node visits locally, in the searching thread, so a
/// query's cost is exact even when many queries run concurrently against
/// the same disks (the global [`SimDisk`](parsim_storage::SimDisk)
/// counters blend concurrent queries together).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Pages read by this search (supernodes count their page span).
    pub pages: u64,
    /// Subtrees discarded by the pruning bound without being visited.
    pub pruned: u64,
    /// Node visits served from a page cache (counted here, in the search
    /// thread, so concurrent queries cannot blend their hits together).
    pub cache_hits: u64,
    /// Node visits that rode a physical read another in-flight query of
    /// the same submission wave already performed (cross-query page
    /// coalescing; no disk charged, cache untouched). Like `cache_hits`,
    /// counted in the search thread so the figure is exact per query.
    pub coalesced: u64,
    /// Candidate points whose **f64** distance evaluation was started. On
    /// [`ScanTier::F64`] this is every leaf row scanned (abandoned rows
    /// included); on the cheap tiers only phase-1 survivors start an f64
    /// evaluation, so this counter *is* the f64 kernel cost of the query.
    pub dist_evals: u64,
    /// Candidate points whose full f64 distance was never computed. On
    /// [`ScanTier::F64`]: abandoned mid-distance by a partial-sum
    /// checkpoint (a subset of `dist_evals`). On the cheap tiers: rows
    /// whose certified lower bound already cleared the pruning radius, so
    /// the f64 kernel was skipped entirely (disjoint from `dist_evals`).
    pub dist_evals_saved: u64,
    /// Phase-1 lower-bound kernel evaluations (f32 or q8 rows scanned).
    /// Zero on [`ScanTier::F64`], and zero for leaf blocks the cheap tiers
    /// route to the f64 path (no finite pruning radius yet, or a
    /// degenerate quantization grid).
    pub lb_evals: u64,
    /// Phase-1 survivors re-ranked by the exact f64 batch kernel. Always
    /// `≤ lb_evals`; each re-rank also counts into `dist_evals`. Zero on
    /// [`ScanTier::F64`] with the natural scan order (the energy-ordered
    /// f64 filter re-ranks its survivors too).
    pub rerank_evals: u64,
    /// Rows a bounded kernel abandoned at a partial-sum checkpoint, on any
    /// tier (f64 early abandonment, f32/q8 phase-1 mid-kernel abandons).
    /// Always a subset of `dist_evals_saved`.
    pub abandoned_rows: u64,
    /// Total 4-lane checkpoints the rows in `abandoned_rows` evaluated
    /// before abandoning. The mean abandon depth in *coordinates* is
    /// `4 · abandon_checkpoints / abandoned_rows` — the figure the
    /// energy scan order is designed to shrink.
    pub abandon_checkpoints: u64,
}

impl SearchStats {
    /// Accumulates another search's counters into this one.
    pub fn merge(&mut self, other: SearchStats) {
        self.pages += other.pages;
        self.pruned += other.pruned;
        self.cache_hits += other.cache_hits;
        self.coalesced += other.coalesced;
        self.dist_evals += other.dist_evals;
        self.dist_evals_saved += other.dist_evals_saved;
        self.lb_evals += other.lb_evals;
        self.rerank_evals += other.rerank_evals;
        self.abandoned_rows += other.abandoned_rows;
        self.abandon_checkpoints += other.abandon_checkpoints;
    }
}

/// The shared pruning bound of the paper's parallel search (Var. 3).
///
/// One bound travels with a query from disk to disk: each disk's search
/// publishes its local k-th-best squared distance with
/// [`SharedBound::tighten`] and prunes against [`SharedBound::get`], the
/// minimum published so far. The global k-th
/// nearest distance is never larger than any disk's local k-th best, so
/// pruning against the shared bound keeps the merged result exact while
/// reading fewer pages than independent local searches.
///
/// Internally an `AtomicU64` over the IEEE-754 bits: non-negative doubles
/// order identically to their bit patterns, so tightening is a single
/// `fetch_min` — no locks on the query's hot path.
#[derive(Debug)]
pub struct SharedBound(AtomicU64);

impl SharedBound {
    /// A fresh bound, starting at `+∞` (nothing prunes yet).
    pub fn new() -> Self {
        SharedBound(AtomicU64::new(f64::INFINITY.to_bits()))
    }

    /// The tightest squared distance published so far.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(AtomicOrdering::Acquire))
    }

    /// Publishes a candidate squared distance; keeps the minimum.
    pub fn tighten(&self, dist2: f64) {
        debug_assert!(dist2 >= 0.0, "squared distances are non-negative");
        self.0.fetch_min(dist2.to_bits(), AtomicOrdering::AcqRel);
    }
}

impl Default for SharedBound {
    fn default() -> Self {
        SharedBound::new()
    }
}

impl SpatialTree {
    /// Finds the `k` nearest neighbors of `query`, sorted by ascending
    /// distance. Returns fewer than `k` results only if the tree holds
    /// fewer than `k` points.
    pub fn knn(&self, query: &Point, k: usize, algorithm: KnnAlgorithm) -> Vec<Neighbor> {
        self.knn_traced(query, k, algorithm, None).0
    }

    /// Like [`SpatialTree::knn`], but returns the search's work counters
    /// and optionally prunes against a [`SharedBound`] published by
    /// searches of the same query on other trees.
    ///
    /// With a shared bound the returned list is this tree's **candidate
    /// set** for the global query: every point of the global k nearest
    /// that lives in this tree is present, but locally farther points may
    /// be cut early by the bounds the other trees published. Merge the
    /// candidates of all trees to obtain the exact global answer.
    pub fn knn_traced(
        &self,
        query: &Point,
        k: usize,
        algorithm: KnnAlgorithm,
        shared: Option<&SharedBound>,
    ) -> (Vec<Neighbor>, SearchStats) {
        self.knn_traced_ordered(
            query,
            k,
            algorithm,
            shared,
            ScanTier::F64,
            ScanOrder::Natural,
        )
    }

    /// Like [`SpatialTree::knn_traced`], with an explicit precision tier
    /// for the leaf scan and an explicit [`ScanOrder`] for the f64 leaf
    /// sweeps.
    ///
    /// The answer list is identical for every tier — the cheap tiers only
    /// skip rows certified farther than the pruning radius — but the work
    /// counters move: on [`ScanTier::F32`] / [`ScanTier::Q8`] most leaf
    /// rows cost one [`SearchStats::lb_evals`] instead of an f64
    /// [`SearchStats::dist_evals`].
    ///
    /// [`ScanOrder::Energy`] runs the certified permuted filter over leaves
    /// that carry an energy permutation (see `DESIGN.md`, "Scan order");
    /// answers are bit-identical either way. The f32/q8 phase-1 sweeps
    /// always follow the leaf's physical layout regardless of this knob —
    /// their mirrors only *exist* in storage order.
    #[allow(clippy::too_many_arguments)]
    pub fn knn_traced_ordered(
        &self,
        query: &Point,
        k: usize,
        algorithm: KnnAlgorithm,
        shared: Option<&SharedBound>,
        tier: ScanTier,
        order: ScanOrder,
    ) -> (Vec<Neighbor>, SearchStats) {
        assert_eq!(query.dim(), self.params().dim, "query dimension mismatch");
        let mut stats = SearchStats::default();
        if k == 0 || self.is_empty() {
            return (Vec::new(), stats);
        }
        let mut scanner = LeafScanner::with_order(tier, order);
        let result = match algorithm {
            KnnAlgorithm::Rkv => {
                let mut best = BoundedMaxHeap::new(k);
                self.rkv_visit(
                    self.root_id(),
                    query,
                    k,
                    &mut best,
                    shared,
                    &mut scanner,
                    &mut stats,
                );
                best.into_sorted()
            }
            KnnAlgorithm::Hs => hs_search(
                &[self],
                query,
                k,
                shared,
                &mut scanner,
                std::slice::from_mut(&mut stats),
            ),
        };
        (result, stats)
    }

    // ----- RKV ------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn rkv_visit(
        &self,
        id: NodeId,
        query: &Point,
        k: usize,
        best: &mut BoundedMaxHeap,
        shared: Option<&SharedBound>,
        scanner: &mut LeafScanner,
        stats: &mut SearchStats,
    ) {
        match self.charge_visit(id) {
            VisitOutcome::CacheHit => stats.cache_hits += 1,
            VisitOutcome::Coalesced => stats.coalesced += 1,
            VisitOutcome::Charged => {}
        }
        stats.pages += self.node(id).pages() as u64;
        match self.node(id) {
            Node::Leaf { entries, .. } => {
                scanner.scan(entries, query, best, shared, stats);
            }
            Node::Inner { entries, .. } => {
                // This node's active branch list — `(MINDIST², entry)` in
                // MINDIST order, ties in entry order — lives on the
                // query's scratch stack above the lists of its ancestors.
                let start = scanner.branches.len();
                scanner
                    .branches
                    .extend(entries.min_dists2(query.coords()).zip(0u32..));
                scanner.branches[start..]
                    .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                // MINMAXDIST pruning (valid for k = 1): no partition whose
                // MINDIST exceeds the smallest MINMAXDIST can contain the
                // nearest neighbor.
                if k == 1 {
                    let min_minmax = entries
                        .iter()
                        .map(|(lo, hi, _)| rect::min_max_dist2_bounds(lo, hi, query.coords()))
                        .fold(f64::INFINITY, f64::min);
                    let kept = scanner.branches[start..].partition_point(|b| b.0 <= min_minmax);
                    stats.pruned += (scanner.branches.len() - start - kept) as u64;
                    scanner.branches.truncate(start + kept);
                }
                let end = scanner.branches.len();
                for i in start..end {
                    let (min_dist, entry) = scanner.branches[i];
                    if min_dist > prune_bound(best, shared) {
                        // Sorted order: everything further is pruned too.
                        stats.pruned += (end - i) as u64;
                        break;
                    }
                    let child = entries.child(entry as usize);
                    self.rkv_visit(child, query, k, best, shared, scanner, stats);
                }
                scanner.branches.truncate(start);
            }
        }
    }
}

/// The current pruning radius: the local k-th best once the heap is full,
/// tightened by whatever the concurrent searches have published.
fn prune_bound(best: &BoundedMaxHeap, shared: Option<&SharedBound>) -> f64 {
    let local = if best.is_full() {
        best.worst()
    } else {
        f64::INFINITY
    };
    match shared {
        Some(s) => local.min(s.get()),
        None => local,
    }
}

/// The unified leaf scan of every k-NN algorithm: one [`ScanTier`] plus
/// the per-query scratch buffers of the two-phase scan.
///
/// One scanner serves one query. The f32 query mirror is cast once, on the
/// first leaf; the per-block state — query codes on the leaf's
/// quantization grid, phase-1 sums, the survivor gather — is overwritten
/// by each `scan` call. The scanner also carries the descent's scratch:
/// the stack of sorted branch lists of the directory nodes being visited.
/// The search driver ([`ForestCursor`], the traced entry points) owns the
/// scanner so the scratch allocations amortize over every node of the
/// search.
#[derive(Debug)]
pub struct LeafScanner {
    tier: ScanTier,
    /// Whether f64 sweeps over energy-permuted leaves run the certified
    /// permuted filter (the f32/q8 mirrors always follow storage order).
    order: ScanOrder,
    /// The query cast to f32, built on first use (constant per query).
    q32: Vec<f32>,
    /// Overestimate of `‖q − q32‖` (constant per query).
    rq32: f64,
    /// The query permuted into the current block's scan order (per block).
    qp: Vec<f64>,
    /// The f32 query permuted into the current block's scan order.
    q32p: Vec<f32>,
    /// The query encoded on the current block's q8 grids, in wide i32
    /// codes (per block).
    qcodes: Vec<i32>,
    /// Phase-1 sums (per block; `None` = abandoned at a checkpoint).
    lb32: Vec<Option<f32>>,
    lbq8: Vec<Option<f64>>,
    /// Row indices that survived phase 1 (per block).
    survivors: Vec<usize>,
    /// Survivor rows gathered contiguously for the f64 re-rank batch.
    gather: Vec<f64>,
    /// f64 batch kernel outputs (whole block, or survivors).
    d2: Vec<f64>,
    /// The RKV descent's stack of sorted branch lists, `(MINDIST², entry
    /// index)`: one segment per directory node on the current root-to-node
    /// path, so a directory visit allocates nothing once the stack has
    /// reached the depth of the search.
    branches: Vec<(f64, u32)>,
}

impl LeafScanner {
    /// A fresh scanner running leaf scans at `tier`, natural f64 order.
    pub fn new(tier: ScanTier) -> Self {
        LeafScanner::with_order(tier, ScanOrder::Natural)
    }

    /// A fresh scanner running leaf scans at `tier` with the given f64
    /// scan order.
    pub fn with_order(tier: ScanTier, order: ScanOrder) -> Self {
        LeafScanner {
            tier,
            order,
            q32: Vec::new(),
            rq32: 0.0,
            qp: Vec::new(),
            q32p: Vec::new(),
            qcodes: Vec::new(),
            lb32: Vec::new(),
            lbq8: Vec::new(),
            survivors: Vec::new(),
            gather: Vec::new(),
            d2: Vec::new(),
            branches: Vec::new(),
        }
    }

    /// The tier this scanner runs at.
    pub fn tier(&self) -> ScanTier {
        self.tier
    }

    /// The f64 scan order this scanner runs with.
    pub fn order(&self) -> ScanOrder {
        self.order
    }

    /// Scans one leaf block, offering every non-filtered candidate to
    /// `best` and publishing the tightened k-th best to `shared`. A
    /// filtered row is *certified* to have computed f64 `dist2 ≥` the
    /// pruning radius at block start, so — like the early-abandoned rows of
    /// the f64 tier — it can never displace a k-nearest candidate and the
    /// merged answer stays exact.
    fn scan(
        &mut self,
        entries: &LeafEntries,
        query: &Point,
        best: &mut BoundedMaxHeap,
        shared: Option<&SharedBound>,
        stats: &mut SearchStats,
    ) {
        match self.tier {
            ScanTier::F64 => self.scan_f64(entries, query, best, shared, stats),
            ScanTier::F32 => self.scan_f32(entries, query, best, shared, stats),
            ScanTier::Q8 => self.scan_q8(entries, query, best, shared, stats),
        }
        if let (true, Some(bound)) = (best.is_full(), shared) {
            bound.tighten(best.worst());
        }
    }

    /// The canonical f64 scan, also the fallback of the cheap tiers.
    ///
    /// When the candidate heap cannot fill mid-block and no concurrent
    /// search has published a bound, the pruning radius is `+∞` for every
    /// row — early abandonment is provably a no-op — so the whole block
    /// runs through the batch kernel: per-row sums bit-identical to
    /// [`kernel::dist2_bounded`], identical counters, one straight-line
    /// sweep. Otherwise the per-row bounded kernel runs, re-reading the
    /// pruning radius between rows so candidates admitted earlier in the
    /// block tighten the abandonment of later ones.
    fn scan_f64(
        &mut self,
        entries: &LeafEntries,
        query: &Point,
        best: &mut BoundedMaxHeap,
        shared: Option<&SharedBound>,
        stats: &mut SearchStats,
    ) {
        let n = entries.len();
        let batchable =
            best.len() + n <= best.k && shared.map_or(true, |s| s.get() == f64::INFINITY);
        if batchable {
            self.d2.resize(n, 0.0);
            kernel::dist2_batch(
                query.coords(),
                entries.flat_coords(),
                entries.dim(),
                &mut self.d2,
            );
            stats.dist_evals += n as u64;
            for (i, &d2) in self.d2.iter().enumerate() {
                best.offer(d2, entries.row(i), entries.item(i));
            }
        } else if self.order == ScanOrder::Energy && entries.scan_perm().is_some() {
            self.scan_f64_energy(entries, query, best, shared, stats);
        } else {
            for (row, item) in entries.iter() {
                stats.dist_evals += 1;
                let (d2, cp) =
                    kernel::dist2_bounded_depth(query.coords(), row, prune_bound(best, shared));
                match d2 {
                    Some(d2) => best.offer(d2, row, item),
                    None => {
                        stats.dist_evals_saved += 1;
                        stats.abandoned_rows += 1;
                        stats.abandon_checkpoints += cp;
                    }
                }
            }
        }
    }

    /// The energy-ordered f64 sweep: a certified *filter* over the leaf's
    /// permuted rows.
    ///
    /// Permuting the summation order changes 4-lane FP rounding, so the
    /// permuted partial sums are not bit-identical to the natural kernel's
    /// — a row is therefore only abandoned when its permuted partial sum
    /// clears [`kernel::order_prune_bound`], which certifies that the
    /// *natural-order computed* distance is at least the pruning radius
    /// (same contract as the f32/q8 phase-1 filters). Survivors are
    /// re-ranked with the canonical natural-order kernel, so offered
    /// distances — and hence answers — stay bit-identical to the natural
    /// scan. Because the high-variance lanes come first, abandons fire at
    /// earlier checkpoints than a natural sweep's.
    fn scan_f64_energy(
        &mut self,
        entries: &LeafEntries,
        query: &Point,
        best: &mut BoundedMaxHeap,
        shared: Option<&SharedBound>,
        stats: &mut SearchStats,
    ) {
        let perm = entries.scan_perm().expect("energy leaf has a permutation");
        let dim = entries.dim();
        let q = query.coords();
        self.qp.clear();
        self.qp.extend(perm.iter().map(|&p| q[p as usize]));
        for (i, srow) in entries.flat_scan_coords().chunks_exact(dim).enumerate() {
            let bound = prune_bound(best, shared);
            if bound == f64::INFINITY {
                // Nothing can be filtered yet; run the canonical kernel.
                let row = entries.row(i);
                stats.dist_evals += 1;
                best.offer(kernel::dist2(q, row), row, entries.item(i));
                continue;
            }
            stats.lb_evals += 1;
            let (s, cp) =
                kernel::dist2_bounded_depth(&self.qp, srow, kernel::order_prune_bound(bound));
            match s {
                Some(_) => {
                    let row = entries.row(i);
                    stats.dist_evals += 1;
                    stats.rerank_evals += 1;
                    best.offer(kernel::dist2(q, row), row, entries.item(i));
                }
                None => {
                    stats.dist_evals_saved += 1;
                    stats.abandoned_rows += 1;
                    stats.abandon_checkpoints += cp;
                }
            }
        }
    }

    /// Phase 1 over the block's f32 mirror: one bounded batch sweep against
    /// the certified prune threshold, then the exact re-rank of survivors.
    fn scan_f32(
        &mut self,
        entries: &LeafEntries,
        query: &Point,
        best: &mut BoundedMaxHeap,
        shared: Option<&SharedBound>,
        stats: &mut SearchStats,
    ) {
        let bound = prune_bound(best, shared);
        if bound == f64::INFINITY {
            // No finite pruning radius yet: phase 1 could certify nothing,
            // so skip straight to the exact scan.
            return self.scan_f64(entries, query, best, shared, stats);
        }
        let dim = entries.dim();
        let n = entries.len();
        if self.q32.len() != dim {
            self.q32 = query.coords().iter().map(|&c| c as f32).collect();
            self.rq32 = kernel::displacement_norm_f32(query.coords(), &self.q32);
        }
        // The f32 mirror lives in the leaf's physical scan order; permute
        // the query cast to match. Casting is elementwise, so permuting
        // the cast equals casting the permuted query, and the displacement
        // radius is a norm — invariant under the permutation.
        let q32: &[f32] = match entries.scan_perm() {
            None => &self.q32,
            Some(perm) => {
                let q32 = &self.q32;
                self.q32p.clear();
                self.q32p.extend(perm.iter().map(|&p| q32[p as usize]));
                &self.q32p
            }
        };
        // The threshold is frozen at block start: a later (tighter) radius
        // only makes rows certified against this one *more* prunable.
        let t = kernel::f32_prune_threshold(bound, self.rq32, entries.f32_radius(), dim);
        self.lb32.resize(n, None);
        let (ab, cp) = kernel::dist2_batch_f32_bounded_depth(
            q32,
            entries.flat_f32(),
            dim,
            kernel::f32_kernel_bound(t),
            &mut self.lb32,
        );
        stats.lb_evals += n as u64;
        stats.abandoned_rows += ab;
        stats.abandon_checkpoints += cp;
        self.survivors.clear();
        for (i, &s) in self.lb32.iter().enumerate() {
            if kernel::f32_row_prunable(s, t) {
                stats.dist_evals_saved += 1;
            } else {
                self.survivors.push(i);
            }
        }
        self.rerank(entries, query, best, stats);
    }

    /// Phase 1 over the block's 8-bit scalar-quantized mirror, using the
    /// per-dimension grids through the weighted q8 kernels. Blocks with a
    /// degenerate grid (empty, or a coordinate range too wide for the grid
    /// arithmetic) certify nothing and stay exact. The mirror lives in the
    /// leaf's physical scan order; `quantize_query` encodes the query in
    /// the same order, so no extra permute is needed here.
    fn scan_q8(
        &mut self,
        entries: &LeafEntries,
        query: &Point,
        best: &mut BoundedMaxHeap,
        shared: Option<&SharedBound>,
        stats: &mut SearchStats,
    ) {
        let bound = prune_bound(best, shared);
        if entries.q8_grid().is_none() || bound == f64::INFINITY {
            return self.scan_f64(entries, query, best, shared, stats);
        }
        let dim = entries.dim();
        let n = entries.len();
        let rq = entries.quantize_query(query.coords(), &mut self.qcodes);
        // The weighted kernel accumulates in f64, so the certified
        // threshold is the kernel abandon bound directly.
        let t = kernel::q8w_prune_threshold(bound, rq, entries.q8_radius(), dim);
        self.lbq8.resize(n, None);
        let (ab, cp) = kernel::dist2_batch_q8w_bounded_depth(
            &self.qcodes,
            entries.codes(),
            entries.q8_weights(),
            dim,
            t,
            &mut self.lbq8,
        );
        stats.lb_evals += n as u64;
        stats.abandoned_rows += ab;
        stats.abandon_checkpoints += cp;
        self.survivors.clear();
        for (i, &s) in self.lbq8.iter().enumerate() {
            if kernel::q8w_row_prunable(s, t) {
                stats.dist_evals_saved += 1;
            } else {
                self.survivors.push(i);
            }
        }
        self.rerank(entries, query, best, stats);
    }

    /// Phase 2: the exact f64 batch kernel over the phase-1 survivors.
    /// [`kernel::dist2_batch`] is bit-identical to [`kernel::dist2`] per
    /// row, so tiered answers match the f64 tier exactly.
    fn rerank(
        &mut self,
        entries: &LeafEntries,
        query: &Point,
        best: &mut BoundedMaxHeap,
        stats: &mut SearchStats,
    ) {
        let dim = entries.dim();
        let m = self.survivors.len();
        self.gather.clear();
        for &i in &self.survivors {
            self.gather.extend_from_slice(entries.row(i));
        }
        self.d2.resize(m, 0.0);
        kernel::dist2_batch(query.coords(), &self.gather, dim, &mut self.d2);
        stats.rerank_evals += m as u64;
        stats.dist_evals += m as u64;
        for (j, &i) in self.survivors.iter().enumerate() {
            best.offer(self.d2[j], entries.row(i), entries.item(i));
        }
    }
}

/// k-NN search over a **forest** of trees with a single shared pruning
/// bound — the parallel X-tree's logical search. Each tree charges its own
/// disk, so the per-disk page counts are exactly the pages a
/// globally-pruned parallel algorithm must read (never more, as would
/// happen if every disk ran an independent local search to completion).
pub fn forest_knn(
    trees: &[&SpatialTree],
    query: &Point,
    k: usize,
    algorithm: KnnAlgorithm,
) -> Vec<Neighbor> {
    forest_knn_traced(trees, query, k, algorithm).0
}

/// Like [`forest_knn`], but additionally returns one [`SearchStats`] per
/// tree, counted locally in the calling thread — the exact per-disk page
/// cost of this query even when other queries run concurrently.
pub fn forest_knn_traced(
    trees: &[&SpatialTree],
    query: &Point,
    k: usize,
    algorithm: KnnAlgorithm,
) -> (Vec<Neighbor>, Vec<SearchStats>) {
    forest_knn_traced_ordered(
        trees,
        query,
        k,
        algorithm,
        ScanTier::F64,
        ScanOrder::Natural,
    )
}

/// Like [`forest_knn_traced`], with an explicit [`ScanTier`] for the leaf
/// scans and an explicit [`ScanOrder`] for the f64 leaf sweeps (see
/// [`SpatialTree::knn_traced_ordered`]). Answers are identical across
/// tiers and orders; only the work counters move.
pub fn forest_knn_traced_ordered(
    trees: &[&SpatialTree],
    query: &Point,
    k: usize,
    algorithm: KnnAlgorithm,
    tier: ScanTier,
    order: ScanOrder,
) -> (Vec<Neighbor>, Vec<SearchStats>) {
    let mut stats = vec![SearchStats::default(); trees.len()];
    if k == 0 {
        return (Vec::new(), stats);
    }
    let result = match algorithm {
        KnnAlgorithm::Rkv => forest_knn_rkv(trees, query, k, tier, order, &mut stats),
        KnnAlgorithm::Hs => {
            let mut scanner = LeafScanner::with_order(tier, order);
            hs_search(trees, query, k, None, &mut scanner, &mut stats)
        }
    };
    (result, stats)
}

/// RKV over a forest: the tree roots form a virtual root's branch list,
/// sorted by MINDIST and pruned against the shared best-k bound.
fn forest_knn_rkv(
    trees: &[&SpatialTree],
    query: &Point,
    k: usize,
    tier: ScanTier,
    order: ScanOrder,
    stats: &mut [SearchStats],
) -> Vec<Neighbor> {
    let mut cursor = ForestCursor::with_tier_order(k, tier, order);
    let itinerary = forest_itinerary(trees, query);
    for (i, &(min_dist, ti)) in itinerary.iter().enumerate() {
        if cursor.prunable(min_dist) {
            // Sorted order: the remaining whole trees are pruned.
            for &(_, tj) in &itinerary[i..] {
                stats[tj].pruned += 1;
            }
            break;
        }
        cursor.visit(trees[ti], query, &mut stats[ti]);
    }
    cursor.finish()
}

/// The RKV forest visiting order: `(root MINDIST², tree index)` of every
/// non-empty tree, sorted ascending (ties keep index order). This is the
/// exact order [`forest_knn_traced`] visits trees with
/// [`KnnAlgorithm::Rkv`], exposed so distributed executors (the parallel
/// engine's worker pool pipelines one [`ForestCursor`] across the per-disk
/// workers in this order) reproduce its traces bit-for-bit.
pub fn forest_itinerary(trees: &[&SpatialTree], query: &Point) -> Vec<(f64, usize)> {
    let mut roots: Vec<(f64, usize)> = trees
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_empty())
        .map(|(ti, t)| {
            let d = t
                .bounds()
                .map(|b| b.min_dist2(query))
                .unwrap_or(f64::INFINITY);
            (d, ti)
        })
        .collect();
    roots.sort_by(|a, b| a.0.total_cmp(&b.0));
    roots
}

/// A resumable RKV forest search: the single bounded candidate heap of
/// [`forest_knn_traced`] with [`KnnAlgorithm::Rkv`], detached from the
/// loop that drives it.
///
/// Visiting the trees of a [`forest_itinerary`] in order — checking
/// [`ForestCursor::prunable`] before each [`ForestCursor::visit`] and
/// charging one `pruned` per remaining tree once it fires — performs
/// *exactly* the canonical forest search: same neighbors, same per-tree
/// [`SearchStats`]. Because the cursor owns all of the search's mutable
/// state it can hop between threads mid-search, which is how the parallel
/// engine's persistent worker pool pipelines one query across its
/// per-disk workers without giving up trace parity with the
/// single-threaded reference path.
pub struct ForestCursor {
    best: BoundedMaxHeap,
    scanner: LeafScanner,
}

impl ForestCursor {
    /// A fresh cursor searching for the `k` nearest neighbors at the
    /// default [`ScanTier::F64`].
    pub fn new(k: usize) -> Self {
        ForestCursor::with_tier(k, ScanTier::F64)
    }

    /// A fresh cursor whose leaf scans run at `tier`. The neighbors found
    /// are identical for every tier; the per-tree [`SearchStats`] report
    /// the tier's cost split across `lb_evals` / `rerank_evals` /
    /// `dist_evals`.
    pub fn with_tier(k: usize, tier: ScanTier) -> Self {
        ForestCursor::with_tier_order(k, tier, ScanOrder::Natural)
    }

    /// A fresh cursor with an explicit [`ScanOrder`] for the f64 leaf
    /// sweeps (see [`SpatialTree::knn_traced_ordered`]).
    pub fn with_tier_order(k: usize, tier: ScanTier, order: ScanOrder) -> Self {
        ForestCursor {
            best: BoundedMaxHeap::new(k),
            scanner: LeafScanner::with_order(tier, order),
        }
    }

    /// The tier this cursor's leaf scans run at.
    pub fn tier(&self) -> ScanTier {
        self.scanner.tier()
    }

    /// The f64 scan order this cursor's leaf scans run with.
    pub fn order(&self) -> ScanOrder {
        self.scanner.order()
    }

    /// True once every tree whose root MINDIST² is at least `min_dist2`
    /// can no longer contribute a k-nearest point. Itineraries are sorted,
    /// so the first prunable stop prunes all remaining stops.
    pub fn prunable(&self, min_dist2: f64) -> bool {
        self.best.is_full() && min_dist2 > self.best.worst()
    }

    /// Runs the RKV descent of one tree, tightening this cursor's bound
    /// with every candidate found. Counts the tree's work into `stats`.
    pub fn visit(&mut self, tree: &SpatialTree, query: &Point, stats: &mut SearchStats) {
        if self.best.k == 0 || tree.is_empty() {
            return;
        }
        tree.rkv_visit(
            tree.root_id(),
            query,
            self.best.k,
            &mut self.best,
            None,
            &mut self.scanner,
            stats,
        );
    }

    /// Consumes the cursor, returning the neighbors found so far sorted by
    /// ascending distance (ties by item id).
    pub fn finish(self) -> Vec<Neighbor> {
        self.best.into_sorted()
    }
}

/// Best-first (HS) search over a forest of trees: one priority queue of
/// partitions ordered by MINDIST, seeded with all roots. Visits pages in
/// globally optimal order; stops as soon as the nearest unexplored
/// partition lies beyond the current k-th best (or beyond the shared
/// bound, when one is installed).
fn hs_search(
    trees: &[&SpatialTree],
    query: &Point,
    k: usize,
    shared: Option<&SharedBound>,
    scanner: &mut LeafScanner,
    stats: &mut [SearchStats],
) -> Vec<Neighbor> {
    let mut best = BoundedMaxHeap::new(k);
    let mut queue: BinaryHeap<HsEntry> = BinaryHeap::new();
    for (ti, tree) in trees.iter().enumerate() {
        if !tree.is_empty() {
            let d = tree
                .bounds()
                .map(|b| b.min_dist2(query))
                .unwrap_or(f64::INFINITY);
            queue.push(HsEntry {
                dist2: d,
                tree: ti,
                node: tree.root_id(),
            });
        }
    }
    while let Some(entry) = queue.pop() {
        if entry.dist2 > prune_bound(&best, shared) {
            // The queue is distance-ordered: this partition and everything
            // still enqueued can no longer contain a k-nearest point.
            stats[entry.tree].pruned += 1;
            for rest in queue.drain() {
                stats[rest.tree].pruned += 1;
            }
            break;
        }
        let tree = trees[entry.tree];
        match tree.charge_visit(entry.node) {
            VisitOutcome::CacheHit => stats[entry.tree].cache_hits += 1,
            VisitOutcome::Coalesced => stats[entry.tree].coalesced += 1,
            VisitOutcome::Charged => {}
        }
        stats[entry.tree].pages += tree.node(entry.node).pages() as u64;
        match tree.node(entry.node) {
            Node::Leaf { entries, .. } => {
                scanner.scan(entries, query, &mut best, shared, &mut stats[entry.tree]);
            }
            Node::Inner { entries, .. } => {
                let min_dists2 = entries.min_dists2(query.coords());
                for (d, &child) in min_dists2.zip(entries.children()) {
                    if d > prune_bound(&best, shared) {
                        stats[entry.tree].pruned += 1;
                    } else {
                        queue.push(HsEntry {
                            dist2: d,
                            tree: entry.tree,
                            node: child,
                        });
                    }
                }
            }
        }
    }
    best.into_sorted()
}

/// Exhaustive scan — the ground truth used by tests and the tiny-database
/// fallback. Ranks by `(dist2, item)`, the search heap's order, and takes
/// the square root only afterwards: two distinct squared distances that
/// round to the same `dist` keep their true order instead of falling back
/// to the id.
pub fn brute_force_knn(data: &[(Point, u64)], query: &Point, k: usize) -> Vec<Neighbor> {
    let mut all: Vec<(f64, u64, &Point)> = data
        .iter()
        .map(|(p, item)| (p.dist2(query), *item, p))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.truncate(k);
    all.into_iter()
        .map(|(dist2, item, p)| Neighbor {
            item,
            point: p.clone(),
            dist: dist2.sqrt(),
        })
        .collect()
}

// ----- helpers -------------------------------------------------------------

/// Max-heap of the k best candidates seen so far (by squared distance).
struct BoundedMaxHeap {
    k: usize,
    heap: BinaryHeap<HeapNeighbor>,
}

struct HeapNeighbor {
    dist2: f64,
    item: u64,
    point: Point,
}

impl PartialEq for HeapNeighbor {
    fn eq(&self, other: &Self) -> bool {
        self.dist2 == other.dist2 && self.item == other.item
    }
}
impl Eq for HeapNeighbor {}
impl PartialOrd for HeapNeighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNeighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist2
            .total_cmp(&other.dist2)
            .then(self.item.cmp(&other.item))
    }
}

impl BoundedMaxHeap {
    fn new(k: usize) -> Self {
        BoundedMaxHeap {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offers a candidate row; the point is materialized only if it enters
    /// the heap (rejected candidates cost no allocation). A full heap admits
    /// a candidate that precedes its worst entry in the heap's own order,
    /// so a row tied at the k-th distance with a smaller id displaces it.
    fn offer(&mut self, dist2: f64, row: &[f64], item: u64) {
        if self.heap.len() < self.k {
            self.heap.push(HeapNeighbor {
                dist2,
                item,
                point: Point::from_vec(row.to_vec()),
            });
        } else if self.heap.peek().is_some_and(|worst| {
            dist2
                .total_cmp(&worst.dist2)
                .then(item.cmp(&worst.item))
                .is_lt()
        }) {
            self.heap.push(HeapNeighbor {
                dist2,
                item,
                point: Point::from_vec(row.to_vec()),
            });
            self.heap.pop();
        }
    }

    fn is_full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// Number of candidates currently held (≤ k).
    fn len(&self) -> usize {
        self.heap.len()
    }

    /// The current k-th best squared distance (∞ until full).
    fn worst(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().map(|n| n.dist2).unwrap_or(f64::INFINITY)
        }
    }

    fn into_sorted(self) -> Vec<Neighbor> {
        let mut v: Vec<HeapNeighbor> = self.heap.into_vec();
        v.sort();
        v.into_iter()
            .map(|n| Neighbor {
                item: n.item,
                point: n.point,
                dist: n.dist2.sqrt(),
            })
            .collect()
    }
}

/// Priority-queue entry of the HS algorithm: an unexplored partition
/// (min-heap via reversed Ord).
struct HsEntry {
    dist2: f64,
    tree: usize,
    node: NodeId,
}

impl PartialEq for HsEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist2 == other.dist2
    }
}
impl Eq for HsEntry {}
impl PartialOrd for HsEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HsEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need the smallest dist2
        // first.
        other.dist2.total_cmp(&self.dist2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{TreeParams, TreeVariant};
    use parsim_datagen::{ClusteredGenerator, DataGenerator, UniformGenerator};

    fn build_tree(pts: &[Point], dim: usize, variant: TreeVariant) -> SpatialTree {
        let params = TreeParams::for_dim(dim, variant)
            .unwrap()
            .with_capacities(8, 8)
            .unwrap();
        let mut t = SpatialTree::new(params);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        t
    }

    fn check_matches_brute_force(pts: &[Point], dim: usize, k: usize, algo: KnnAlgorithm) {
        let tree = build_tree(pts, dim, TreeVariant::xtree_default());
        let data: Vec<(Point, u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64))
            .collect();
        let queries = UniformGenerator::new(dim).generate(20, 999);
        for q in &queries {
            let got = tree.knn(q, k, algo);
            let want = brute_force_knn(&data, q, k);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want.iter()) {
                // Distances must agree exactly (same arithmetic); items may
                // differ only between equidistant points.
                assert!(
                    (g.dist - w.dist).abs() < 1e-12,
                    "k={k} algo={algo:?}: {} vs {}",
                    g.dist,
                    w.dist
                );
            }
        }
    }

    #[test]
    fn rkv_matches_brute_force_uniform() {
        let pts = UniformGenerator::new(6).generate(600, 1);
        check_matches_brute_force(&pts, 6, 1, KnnAlgorithm::Rkv);
        check_matches_brute_force(&pts, 6, 10, KnnAlgorithm::Rkv);
    }

    #[test]
    fn hs_matches_brute_force_uniform() {
        let pts = UniformGenerator::new(6).generate(600, 2);
        check_matches_brute_force(&pts, 6, 1, KnnAlgorithm::Hs);
        check_matches_brute_force(&pts, 6, 10, KnnAlgorithm::Hs);
    }

    #[test]
    fn knn_on_clustered_data() {
        let pts = ClusteredGenerator::new(8, 4, 0.03).generate(500, 3);
        check_matches_brute_force(&pts, 8, 5, KnnAlgorithm::Rkv);
        check_matches_brute_force(&pts, 8, 5, KnnAlgorithm::Hs);
    }

    #[test]
    fn knn_edge_cases() {
        let pts = UniformGenerator::new(3).generate(5, 4);
        let tree = build_tree(&pts, 3, TreeVariant::RStar);
        let q = Point::new(vec![0.5, 0.5, 0.5]).unwrap();
        // k = 0.
        assert!(tree.knn(&q, 0, KnnAlgorithm::Rkv).is_empty());
        // k > len returns everything.
        assert_eq!(tree.knn(&q, 50, KnnAlgorithm::Rkv).len(), 5);
        assert_eq!(tree.knn(&q, 50, KnnAlgorithm::Hs).len(), 5);
        // Empty tree.
        let empty = SpatialTree::new(TreeParams::for_dim(3, TreeVariant::RStar).unwrap());
        assert!(empty.knn(&q, 3, KnnAlgorithm::Hs).is_empty());
    }

    #[test]
    fn results_are_sorted_ascending() {
        let pts = UniformGenerator::new(4).generate(300, 5);
        let tree = build_tree(&pts, 4, TreeVariant::xtree_default());
        let q = Point::new(vec![0.2, 0.8, 0.5, 0.1]).unwrap();
        for algo in [KnnAlgorithm::Rkv, KnnAlgorithm::Hs] {
            let res = tree.knn(&q, 20, algo);
            assert!(res.windows(2).all(|w| w[0].dist <= w[1].dist));
        }
    }

    #[test]
    fn exact_point_query_returns_distance_zero() {
        let pts = UniformGenerator::new(5).generate(200, 6);
        let tree = build_tree(&pts, 5, TreeVariant::RStar);
        let res = tree.knn(&pts[77], 1, KnnAlgorithm::Rkv);
        assert_eq!(res[0].dist, 0.0);
        assert_eq!(res[0].item, 77);
    }

    #[test]
    fn hs_visits_no_more_pages_than_rkv() {
        // HS is page-optimal; over a workload it must not read more pages
        // than RKV.
        use parsim_storage::SimDisk;
        use std::sync::Arc;
        let dim = 8;
        let pts = UniformGenerator::new(dim).generate(2000, 7);
        let queries = UniformGenerator::new(dim).generate(20, 8);

        let count_pages = |algo: KnnAlgorithm| -> u64 {
            let disk = Arc::new(SimDisk::new(0));
            let params = TreeParams::for_dim(dim, TreeVariant::xtree_default()).unwrap();
            let mut t = SpatialTree::new(params).with_disk(Arc::clone(&disk));
            for (i, p) in pts.iter().enumerate() {
                t.insert(p.clone(), i as u64).unwrap();
            }
            let before = disk.read_count();
            for q in &queries {
                t.knn(q, 10, algo);
            }
            disk.read_count() - before
        };
        let hs = count_pages(KnnAlgorithm::Hs);
        let rkv = count_pages(KnnAlgorithm::Rkv);
        assert!(hs <= rkv, "HS read {hs} pages, RKV {rkv}");
    }

    #[test]
    fn shared_bound_keeps_the_minimum() {
        let b = SharedBound::new();
        assert_eq!(b.get(), f64::INFINITY);
        b.tighten(4.0);
        assert_eq!(b.get(), 4.0);
        b.tighten(9.0); // looser: ignored
        assert_eq!(b.get(), 4.0);
        b.tighten(0.25);
        assert_eq!(b.get(), 0.25);
        b.tighten(0.0);
        assert_eq!(b.get(), 0.0);
    }

    #[test]
    fn traced_search_counts_exactly_the_charged_pages() {
        use parsim_storage::SimDisk;
        use std::sync::Arc;
        let dim = 6;
        let pts = UniformGenerator::new(dim).generate(2500, 3);
        for algo in [KnnAlgorithm::Rkv, KnnAlgorithm::Hs] {
            let disk = Arc::new(SimDisk::new(0));
            let params = TreeParams::for_dim(dim, TreeVariant::xtree_default()).unwrap();
            let mut t = SpatialTree::new(params).with_disk(Arc::clone(&disk));
            for (i, p) in pts.iter().enumerate() {
                t.insert(p.clone(), i as u64).unwrap();
            }
            for q in &UniformGenerator::new(dim).generate(10, 4) {
                let before = disk.read_count();
                let (res, stats) = t.knn_traced(q, 5, algo, None);
                assert_eq!(res.len(), 5);
                assert_eq!(
                    stats.pages,
                    disk.read_count() - before,
                    "local page count must equal the disk charge ({algo:?})"
                );
                assert!(stats.pages > 0);
            }
        }
    }

    #[test]
    fn bounded_partial_searches_merge_to_the_exact_answer() {
        // Split the data over two trees and run each side's search with a
        // shared bound already tightened by the other side — the merged
        // candidates must still contain the exact global top-k.
        let dim = 7;
        let k = 8;
        let pts = UniformGenerator::new(dim).generate(3000, 11);
        let (left, right): (Vec<_>, Vec<_>) = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64))
            .partition(|(_, i)| i % 2 == 0);
        let lt = build_tree_items(&left, dim);
        let rt = build_tree_items(&right, dim);
        let data: Vec<(Point, u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64))
            .collect();
        for algo in [KnnAlgorithm::Rkv, KnnAlgorithm::Hs] {
            for q in &UniformGenerator::new(dim).generate(15, 12) {
                let bound = SharedBound::new();
                let (lres, _) = lt.knn_traced(q, k, algo, Some(&bound));
                let (rres, _) = rt.knn_traced(q, k, algo, Some(&bound));
                let mut merged: Vec<Neighbor> = lres.into_iter().chain(rres).collect();
                merged.sort_by(|a, b| {
                    a.dist
                        .partial_cmp(&b.dist)
                        .unwrap()
                        .then(a.item.cmp(&b.item))
                });
                merged.truncate(k);
                let want = brute_force_knn(&data, q, k);
                assert_eq!(merged.len(), want.len());
                for (g, w) in merged.iter().zip(&want) {
                    assert!((g.dist - w.dist).abs() < 1e-12, "{algo:?}");
                }
            }
        }
    }

    fn build_tree_items(items: &[(Point, u64)], dim: usize) -> SpatialTree {
        let params = TreeParams::for_dim(dim, TreeVariant::xtree_default()).unwrap();
        let mut t = SpatialTree::new(params);
        for (p, i) in items {
            t.insert(p.clone(), *i).unwrap();
        }
        t
    }

    #[test]
    fn cursor_replays_the_forest_search_exactly() {
        // Driving a ForestCursor along the itinerary — the way the worker
        // pool pipelines a query across disks — must reproduce the
        // canonical forest search bit-for-bit: same neighbors, same stats.
        let dim = 8;
        let pts = ClusteredGenerator::new(dim, 5, 0.04).generate(2400, 31);
        let trees: Vec<SpatialTree> = (0..6)
            .map(|d| {
                let items: Vec<(Point, u64)> = pts
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 6 == d)
                    .map(|(i, p)| (p.clone(), i as u64))
                    .collect();
                build_tree_items(&items, dim)
            })
            .collect();
        let refs: Vec<&SpatialTree> = trees.iter().collect();
        for (qi, q) in UniformGenerator::new(dim)
            .generate(12, 32)
            .iter()
            .enumerate()
        {
            let k = 1 + qi % 10;
            let (want, want_stats) = forest_knn_traced(&refs, q, k, KnnAlgorithm::Rkv);
            let mut stats = vec![SearchStats::default(); refs.len()];
            let mut cursor = ForestCursor::new(k);
            let itinerary = forest_itinerary(&refs, q);
            for (i, &(min_dist, ti)) in itinerary.iter().enumerate() {
                if cursor.prunable(min_dist) {
                    for &(_, tj) in &itinerary[i..] {
                        stats[tj].pruned += 1;
                    }
                    break;
                }
                cursor.visit(refs[ti], q, &mut stats[ti]);
            }
            let got = cursor.finish();
            assert_eq!(got, want, "neighbors diverged at query {qi}");
            assert_eq!(stats, want_stats, "stats diverged at query {qi}");
        }
    }

    #[test]
    fn tiered_scans_are_bit_identical_to_brute_force() {
        // The tentpole contract: every tier returns the same answers, bit
        // for bit — the cheap tiers only skip certified-far rows and
        // re-rank survivors with the same f64 arithmetic brute force uses.
        for (dim, pts) in [
            (8, UniformGenerator::new(8).generate(1500, 41)),
            (8, ClusteredGenerator::new(8, 5, 0.04).generate(1500, 43)),
        ] {
            let tree = build_tree(&pts, dim, TreeVariant::xtree_default());
            let data: Vec<(Point, u64)> = pts
                .iter()
                .enumerate()
                .map(|(i, p)| (p.clone(), i as u64))
                .collect();
            for q in &UniformGenerator::new(dim).generate(8, 42) {
                let want = brute_force_knn(&data, q, 7);
                for tier in [ScanTier::F64, ScanTier::F32, ScanTier::Q8] {
                    for algo in [KnnAlgorithm::Rkv, KnnAlgorithm::Hs] {
                        let (got, stats) =
                            tree.knn_traced_ordered(q, 7, algo, None, tier, ScanOrder::Natural);
                        assert_eq!(got.len(), want.len());
                        for (g, w) in got.iter().zip(&want) {
                            assert_eq!(
                                g.dist.to_bits(),
                                w.dist.to_bits(),
                                "{tier:?} {algo:?}: {} vs {}",
                                g.dist,
                                w.dist
                            );
                            assert_eq!(g.item, w.item, "{tier:?} {algo:?}");
                        }
                        assert!(stats.rerank_evals <= stats.lb_evals);
                        match tier {
                            ScanTier::F64 => {
                                assert_eq!(stats.lb_evals, 0);
                                assert_eq!(stats.rerank_evals, 0);
                            }
                            _ => {
                                assert!(stats.lb_evals > 0, "{tier:?} {algo:?}: phase 1 never ran")
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cheap_tiers_reduce_f64_evaluations() {
        // On uniform data (where early abandonment is weakest) the cheap
        // tiers must shift most leaf rows from f64 evaluations to
        // lower-bound evaluations.
        let dim = 8;
        let pts = UniformGenerator::new(dim).generate(2000, 51);
        let tree = build_tree(&pts, dim, TreeVariant::xtree_default());
        for tier in [ScanTier::F32, ScanTier::Q8] {
            let (mut base, mut tiered) = (0u64, 0u64);
            for q in &UniformGenerator::new(dim).generate(10, 52) {
                base += tree.knn_traced(q, 10, KnnAlgorithm::Rkv, None).1.dist_evals;
                tiered += tree
                    .knn_traced_ordered(q, 10, KnnAlgorithm::Rkv, None, tier, ScanOrder::Natural)
                    .1
                    .dist_evals;
            }
            assert!(
                tiered * 2 <= base,
                "{tier:?}: {tiered} f64 evals vs {base} on the f64 tier"
            );
        }
    }

    #[test]
    fn tiered_partial_searches_merge_to_the_exact_answer() {
        // SharedBound + cheap tiers: the certified prune threshold is
        // derived from the bound at block start, so concurrent tightening
        // must never cost a k-nearest candidate.
        let dim = 7;
        let k = 8;
        let pts = UniformGenerator::new(dim).generate(2000, 61);
        let (left, right): (Vec<_>, Vec<_>) = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64))
            .partition(|(_, i)| i % 2 == 0);
        let lt = build_tree_items(&left, dim);
        let rt = build_tree_items(&right, dim);
        let data: Vec<(Point, u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64))
            .collect();
        for tier in [ScanTier::F32, ScanTier::Q8] {
            for q in &UniformGenerator::new(dim).generate(10, 62) {
                let bound = SharedBound::new();
                let (lres, _) = lt.knn_traced_ordered(
                    q,
                    k,
                    KnnAlgorithm::Rkv,
                    Some(&bound),
                    tier,
                    ScanOrder::Natural,
                );
                let (rres, _) = rt.knn_traced_ordered(
                    q,
                    k,
                    KnnAlgorithm::Rkv,
                    Some(&bound),
                    tier,
                    ScanOrder::Natural,
                );
                let mut merged: Vec<Neighbor> = lres.into_iter().chain(rres).collect();
                merged.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.item.cmp(&b.item)));
                merged.truncate(k);
                let want = brute_force_knn(&data, q, k);
                assert_eq!(merged.len(), want.len());
                for (g, w) in merged.iter().zip(&want) {
                    assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "{tier:?}");
                }
            }
        }
    }

    #[test]
    fn tiered_cursor_replays_the_tiered_forest_search_exactly() {
        let dim = 8;
        let pts = ClusteredGenerator::new(dim, 5, 0.04).generate(1800, 71);
        let trees: Vec<SpatialTree> = (0..4)
            .map(|d| {
                let items: Vec<(Point, u64)> = pts
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 4 == d)
                    .map(|(i, p)| (p.clone(), i as u64))
                    .collect();
                build_tree_items(&items, dim)
            })
            .collect();
        let refs: Vec<&SpatialTree> = trees.iter().collect();
        for tier in [ScanTier::F32, ScanTier::Q8] {
            for q in &UniformGenerator::new(dim).generate(6, 72) {
                let k = 5;
                let (want, want_stats) = forest_knn_traced_ordered(
                    &refs,
                    q,
                    k,
                    KnnAlgorithm::Rkv,
                    tier,
                    ScanOrder::Natural,
                );
                let mut stats = vec![SearchStats::default(); refs.len()];
                let mut cursor = ForestCursor::with_tier(k, tier);
                assert_eq!(cursor.tier(), tier);
                let itinerary = forest_itinerary(&refs, q);
                for (i, &(min_dist, ti)) in itinerary.iter().enumerate() {
                    if cursor.prunable(min_dist) {
                        for &(_, tj) in &itinerary[i..] {
                            stats[tj].pruned += 1;
                        }
                        break;
                    }
                    cursor.visit(refs[ti], q, &mut stats[ti]);
                }
                let got = cursor.finish();
                assert_eq!(got, want, "{tier:?}: neighbors diverged");
                assert_eq!(stats, want_stats, "{tier:?}: stats diverged");
            }
        }
    }

    #[test]
    fn energy_order_is_bit_identical_and_abandons_earlier() {
        use crate::params::ScanOrder;
        let dim = 8;
        for pts in [
            UniformGenerator::new(dim).generate(1600, 81),
            ClusteredGenerator::new(dim, 5, 0.04).generate(1600, 82),
        ] {
            let build = |order: ScanOrder| {
                let params = TreeParams::for_dim(dim, TreeVariant::xtree_default())
                    .unwrap()
                    .with_capacities(16, 8)
                    .unwrap()
                    .with_scan_order(order);
                let data: Vec<(Point, u64)> = pts
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (p.clone(), i as u64))
                    .collect();
                SpatialTree::bulk_load(params, data).unwrap()
            };
            let nat = build(ScanOrder::Natural);
            let en = build(ScanOrder::Energy);
            let (mut nat_ab, mut en_ab) = (0u64, 0u64);
            for q in &UniformGenerator::new(dim).generate(10, 83) {
                for tier in [ScanTier::F64, ScanTier::F32, ScanTier::Q8] {
                    let (want, ns) = nat.knn_traced_ordered(
                        q,
                        9,
                        KnnAlgorithm::Rkv,
                        None,
                        tier,
                        ScanOrder::Natural,
                    );
                    let (got, es) = en.knn_traced_ordered(
                        q,
                        9,
                        KnnAlgorithm::Rkv,
                        None,
                        tier,
                        ScanOrder::Energy,
                    );
                    assert_eq!(got.len(), want.len(), "{tier:?}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "{tier:?}");
                        assert_eq!(g.item, w.item, "{tier:?}");
                    }
                    // The subset invariant holds on every tier.
                    assert!(ns.abandoned_rows <= ns.dist_evals_saved);
                    assert!(es.abandoned_rows <= es.dist_evals_saved);
                    if tier == ScanTier::F64 {
                        nat_ab += ns.abandoned_rows;
                        en_ab += es.abandoned_rows;
                    }
                }
            }
            // Both layouts abandon rows on the f64 tier; the energy-order
            // *depth* advantage is measured by ext14, not asserted here.
            assert!(nat_ab > 0, "natural f64 scan never abandoned a row");
            assert!(en_ab > 0, "energy f64 filter never abandoned a row");
        }
    }

    #[test]
    fn energy_query_knob_is_bit_identical_on_natural_trees() {
        // Asking for the energy filter on a tree stored naturally (no
        // permutations anywhere) must be a plain no-op.
        use crate::params::ScanOrder;
        let dim = 6;
        let pts = UniformGenerator::new(dim).generate(800, 91);
        let tree = build_tree(&pts, dim, TreeVariant::xtree_default());
        for q in &UniformGenerator::new(dim).generate(6, 92) {
            let (want, ws) = tree.knn_traced_ordered(
                q,
                5,
                KnnAlgorithm::Rkv,
                None,
                ScanTier::F64,
                ScanOrder::Natural,
            );
            let (got, gs) = tree.knn_traced_ordered(
                q,
                5,
                KnnAlgorithm::Rkv,
                None,
                ScanTier::F64,
                ScanOrder::Energy,
            );
            assert_eq!(got, want);
            assert_eq!(gs, ws, "no permuted leaves: stats must match exactly");
        }
    }

    #[test]
    fn brute_force_orders_by_squared_distance_before_id() {
        // dist2 = 4 + 2^-50 and 4: distinct, but both round to dist 2.0.
        let far = Point::new(vec![2.0, 2f64.powi(-25)]).unwrap();
        let near = Point::new(vec![2.0, 0.0]).unwrap();
        let origin = Point::new(vec![0.0, 0.0]).unwrap();
        assert!(far.dist2(&origin) > near.dist2(&origin));
        assert_eq!(far.dist(&origin), near.dist(&origin));
        let data = vec![(far.clone(), 0), (near.clone(), 1)];
        let res = brute_force_knn(&data, &origin, 1);
        assert_eq!(res[0].item, 1);
        assert_eq!(res[0].dist, 2.0);
        let ids: Vec<u64> = brute_force_knn(&data, &origin, 2)
            .iter()
            .map(|n| n.item)
            .collect();
        assert_eq!(ids, vec![1, 0]);
        // The tree's heap agrees.
        let tree = build_tree(&[far, near], 2, TreeVariant::xtree_default());
        assert_eq!(tree.knn(&origin, 1, KnnAlgorithm::Rkv), res);
    }

    #[test]
    fn brute_force_is_deterministic_on_ties() {
        let p = Point::new(vec![0.5]).unwrap();
        let data = vec![(p.clone(), 3), (p.clone(), 1), (p.clone(), 2)];
        let res = brute_force_knn(&data, &p, 2);
        assert_eq!(res[0].item, 1);
        assert_eq!(res[1].item, 2);
    }
}
