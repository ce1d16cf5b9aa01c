//! The paged spatial tree: R\*-tree insertion/deletion with the X-tree
//! split extension.

use std::sync::Arc;

use parsim_geometry::{HyperRect, Point};
use parsim_storage::SimDisk;

use crate::node::{InnerEntries, LeafEntries, LeafEntry, Node, NodeId};
use crate::params::{TreeParams, TreeVariant};
use crate::IndexError;

/// How a sink served one node visit — whether the disk was physically
/// charged or the read was absorbed by a layer above it.
///
/// Searches fold the outcome into their own per-thread [`SearchStats`]
/// (`cache_hits` / `coalesced`), so the per-query accounting stays exact
/// even when many queries run against the same disks concurrently. The
/// *logical* page count of a visit is charged by the search itself
/// regardless of the outcome; only the physical disk charge is skipped.
///
/// [`SearchStats`]: crate::knn::SearchStats
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisitOutcome {
    /// The visit reached the disk and was charged to it.
    Charged,
    /// The visit was served from a page cache (no disk charged).
    CacheHit,
    /// The visit rode a physical read another in-flight query of the same
    /// submission wave already performed (no disk charged, cache
    /// untouched) — see `CoalescingSink`.
    Coalesced,
}

/// Receives every node visit performed by queries on a [`SpatialTree`].
///
/// The default sink charges a [`SimDisk`]; the parallel engine installs a
/// sink that routes each *leaf* page to the disk the declustering assigned
/// it to and counts directory pages separately (the X-tree's small
/// directory is cached in RAM in the paper's setting).
pub trait NodeSink: Send + Sync {
    /// Called once per node visit with the node's id and contents. Returns
    /// how the visit was served ([`VisitOutcome`]), so searches can count
    /// cache hits and coalesced reads into their own per-thread
    /// statistics.
    fn visit(&self, id: NodeId, node: &Node) -> VisitOutcome;
}

/// The default sink: every visited node charges its page count to one
/// simulated disk.
pub struct DiskSink(pub Arc<SimDisk>);

impl NodeSink for DiskSink {
    fn visit(&self, _id: NodeId, node: &Node) -> VisitOutcome {
        self.0.touch_read(node.pages() as u64);
        VisitOutcome::Charged
    }
}

/// A dynamic high-dimensional point index.
///
/// One `SpatialTree` lives on (at most) one simulated disk: every node
/// visited by a query charges its page count to that disk, so the parallel
/// engine can measure per-disk page accesses exactly as the paper does.
pub struct SpatialTree {
    pub(crate) params: TreeParams,
    pub(crate) nodes: Vec<Option<Node>>,
    pub(crate) free: Vec<NodeId>,
    pub(crate) root: NodeId,
    /// Height of the tree: a root-only tree has height 1.
    pub(crate) height: usize,
    pub(crate) len: usize,
    /// The bounding rectangle of all indexed points: always equal to the
    /// root node's MBR, kept here so that a query reads it instead of
    /// re-deriving it from the root's entries.
    pub(crate) bounds: Option<HyperRect>,
    pub(crate) sink: Option<Arc<dyn NodeSink>>,
}

impl SpatialTree {
    /// Creates an empty tree.
    pub fn new(params: TreeParams) -> Self {
        let mut tree = SpatialTree {
            params,
            nodes: Vec::new(),
            free: Vec::new(),
            root: NodeId(0),
            height: 1,
            len: 0,
            bounds: None,
            sink: None,
        };
        let dim = tree.params.dim;
        tree.root = tree.alloc(Node::empty_leaf(dim));
        tree
    }

    /// Attaches a simulated disk; all subsequent node visits charge page
    /// reads to it.
    pub fn with_disk(self, disk: Arc<SimDisk>) -> Self {
        self.with_sink(Arc::new(DiskSink(disk)))
    }

    /// Attaches an arbitrary visit sink (see [`NodeSink`]).
    pub fn with_sink(mut self, sink: Arc<dyn NodeSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The tree's parameters.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 = the root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// The root node id.
    pub fn root_id(&self) -> NodeId {
        self.root
    }

    /// Immutable access to a node (no I/O charge).
    pub fn node(&self, id: NodeId) -> &Node {
        self.nodes[id.0 as usize]
            .as_ref()
            .expect("dangling node id")
    }

    /// Charges the I/O cost of visiting `id` to the attached sink. Returns
    /// how the sink served the visit (charged, cached, or coalesced).
    pub fn charge_visit(&self, id: NodeId) -> VisitOutcome {
        match &self.sink {
            Some(sink) => sink.visit(id, self.node(id)),
            None => VisitOutcome::Charged,
        }
    }

    /// The bounding rectangle of all indexed points (`None` while empty).
    pub fn bounds(&self) -> Option<&HyperRect> {
        self.bounds.as_ref()
    }

    /// Re-derives the cached bounding rectangle from the root node.
    pub(crate) fn recompute_bounds(&mut self) {
        self.bounds = self.node(self.root).mbr();
    }

    // ----- arena ---------------------------------------------------------

    pub(crate) fn alloc(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id.0 as usize] = Some(node);
            id
        } else {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(Some(node));
            id
        }
    }

    fn dealloc(&mut self, id: NodeId) {
        self.nodes[id.0 as usize] = None;
        self.free.push(id);
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes[id.0 as usize]
            .as_mut()
            .expect("dangling node id")
    }

    fn capacity_of(&self, node: &Node) -> usize {
        match node {
            Node::Leaf { pages, .. } => self.params.leaf_capacity * *pages as usize,
            Node::Inner { pages, .. } => self.params.inner_capacity * *pages as usize,
        }
    }

    // ----- insertion -----------------------------------------------------

    /// Inserts a point with a caller-supplied item id.
    pub fn insert(&mut self, point: Point, item: u64) -> Result<(), IndexError> {
        if point.dim() != self.params.dim {
            return Err(IndexError::DimensionMismatch {
                expected: self.params.dim,
                got: point.dim(),
            });
        }
        // Splits and reinserts only regroup points, so the union over the
        // root grows by exactly this point.
        match &mut self.bounds {
            Some(bounds) => bounds.expand_to_point(&point),
            None => self.bounds = Some(HyperRect::from_point(&point)),
        }
        self.insert_leaf_entry(LeafEntry { point, item }, true);
        self.len += 1;
        Ok(())
    }

    fn insert_leaf_entry(&mut self, entry: LeafEntry, allow_reinsert: bool) {
        // Descend to a leaf, remembering the path (parent, entry index).
        let mut path: Vec<(NodeId, usize)> = Vec::with_capacity(self.height);
        let mut current = self.root;
        let target = HyperRect::from_point(&entry.point);
        loop {
            match self.node(current) {
                Node::Leaf { .. } => break,
                Node::Inner { entries, .. } => {
                    let child_is_leaf = self.nodes[entries.child(0).0 as usize]
                        .as_ref()
                        .map(Node::is_leaf)
                        .unwrap_or(false);
                    let idx = self.choose_subtree(entries, &target, child_is_leaf);
                    path.push((current, idx));
                    current = entries.child(idx);
                }
            }
        }

        // Insert into the leaf.
        match self.node_mut(current) {
            Node::Leaf { entries, .. } => entries.push(entry),
            Node::Inner { .. } => unreachable!("descent must end at a leaf"),
        }
        self.fix_upwards(current, path, allow_reinsert);
    }

    /// R\*-tree subtree choice: least overlap enlargement when children are
    /// leaves, least volume enlargement otherwise (ties broken by volume).
    ///
    /// For wide nodes (X-tree supernodes) the overlap criterion is
    /// restricted to the 32 least-enlargement candidates, the R\*-tree
    /// paper's own near-minimum heuristic — the exact scan is O(m²) per
    /// insert and dominates build time once supernodes grow.
    fn choose_subtree(
        &self,
        entries: &InnerEntries,
        target: &HyperRect,
        child_is_leaf: bool,
    ) -> usize {
        const OVERLAP_CANDIDATES: usize = 32;

        let mbrs: Vec<HyperRect> = (0..entries.len()).map(|i| entries.mbr(i)).collect();

        // Volume-growth key for every child.
        let growth: Vec<f64> = mbrs
            .iter()
            .map(|mbr| mbr.union(target).volume() - mbr.volume())
            .collect();

        if !child_is_leaf {
            let mut best = 0;
            let mut best_key = (f64::INFINITY, f64::INFINITY);
            for (i, mbr) in mbrs.iter().enumerate() {
                let key = (growth[i], mbr.volume());
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            return best;
        }

        // Leaf-level: least overlap enlargement among the candidate set.
        let mut candidates: Vec<usize> = (0..mbrs.len()).collect();
        if candidates.len() > OVERLAP_CANDIDATES {
            candidates.sort_by(|&a, &b| growth[a].partial_cmp(&growth[b]).expect("finite volumes"));
            candidates.truncate(OVERLAP_CANDIDATES);
        }
        let mut best = candidates[0];
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for &i in &candidates {
            let mbr = &mbrs[i];
            let enlarged = mbr.union(target);
            // Overlap of the enlarged MBR with the siblings, minus the
            // current overlap.
            let mut before = 0.0;
            let mut after = 0.0;
            for (j, sib) in mbrs.iter().enumerate() {
                if i == j {
                    continue;
                }
                before += mbr.overlap_volume(sib);
                after += enlarged.overlap_volume(sib);
            }
            let key = (after - before, growth[i], mbr.volume());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// After an insertion into `node`, walk the recorded path upward:
    /// tighten MBRs and resolve overflows (reinsert / split / supernode).
    fn fix_upwards(&mut self, node: NodeId, path: Vec<(NodeId, usize)>, allow_reinsert: bool) {
        let mut path = path;
        let mut current = node;
        loop {
            let over = self.node(current).len() > self.capacity_of(self.node(current));
            if over {
                let is_leaf = self.node(current).is_leaf();
                if is_leaf && allow_reinsert && !path.is_empty() {
                    // R* forced reinsert (leaf level): remove the 30 % of
                    // entries farthest from the node center and re-insert
                    // them, tightening the tree before resorting to splits.
                    let removed = self.take_farthest(current);
                    self.tighten_path(&path, current);
                    for e in removed {
                        self.insert_leaf_entry(e, false);
                    }
                    return;
                }
                match self.overflow(current) {
                    OverflowOutcome::Split {
                        left,
                        right,
                        split_axis,
                    } => {
                        if let Some((parent, idx)) = path.pop() {
                            let left_mbr = self.node(left).mbr().expect("split half is non-empty");
                            let right_mbr =
                                self.node(right).mbr().expect("split half is non-empty");
                            match self.node_mut(parent) {
                                Node::Inner {
                                    entries,
                                    split_dims,
                                    ..
                                } => {
                                    debug_assert_eq!(entries.child(idx), left);
                                    entries.set_mbr(idx, &left_mbr);
                                    entries.push(&right_mbr, right);
                                    *split_dims |= 1u64 << split_axis;
                                }
                                Node::Leaf { .. } => unreachable!("parent must be inner"),
                            }
                            current = parent;
                            continue;
                        } else {
                            // Root split: grow the tree by one level.
                            let left_mbr = self.node(left).mbr().expect("split half is non-empty");
                            let right_mbr =
                                self.node(right).mbr().expect("split half is non-empty");
                            let new_root = self.alloc(Node::Inner {
                                entries: InnerEntries::from_rects(
                                    self.params.dim,
                                    [(left_mbr, left), (right_mbr, right)],
                                ),
                                pages: 1,
                                split_dims: 1u64 << split_axis,
                            });
                            self.root = new_root;
                            self.height += 1;
                            return;
                        }
                    }
                    OverflowOutcome::Supernode => {
                        // The node absorbed the overflow by growing; just
                        // tighten the path.
                        self.tighten_path(&path, current);
                        return;
                    }
                }
            } else {
                self.tighten_path(&path, current);
                return;
            }
        }
    }

    /// Tightens the MBRs along a root-to-node path after `node` changed.
    fn tighten_path(&mut self, path: &[(NodeId, usize)], node: NodeId) {
        let mut child = node;
        for &(parent, idx) in path.iter().rev() {
            let mbr = self.node(child).mbr().expect("path nodes are non-empty");
            match self.node_mut(parent) {
                Node::Inner { entries, .. } => entries.set_mbr(idx, &mbr),
                Node::Leaf { .. } => unreachable!("path nodes are inner"),
            }
            child = parent;
        }
    }

    /// Removes the `reinsert_count` leaf entries farthest from the node's
    /// MBR center, ordered nearest-first for re-insertion ("close
    /// reinsert").
    fn take_farthest(&mut self, leaf: NodeId) -> Vec<LeafEntry> {
        let center = self
            .node(leaf)
            .mbr()
            .expect("overflowing leaf is non-empty")
            .center();
        let count = self.params.reinsert_count();
        let dim = self.params.dim;
        let order = self.params.scan_order;
        match self.node_mut(leaf) {
            Node::Leaf { entries, .. } => {
                let mut all = entries.take_all();
                all.sort_by(|a, b| a.point.dist2(&center).total_cmp(&b.point.dist2(&center)));
                let keep = all.len().saturating_sub(count);
                let removed = all.split_off(keep);
                *entries = LeafEntries::from_entries_ordered(dim, order, all);
                removed
            }
            Node::Inner { .. } => unreachable!("reinsert only at leaves"),
        }
    }

    // ----- splits --------------------------------------------------------

    fn overflow(&mut self, node: NodeId) -> OverflowOutcome {
        if self.node(node).is_leaf() {
            let (left, right, axis) = self.split_leaf(node);
            OverflowOutcome::Split {
                left,
                right,
                split_axis: axis,
            }
        } else {
            self.split_inner(node)
        }
    }

    /// R\*-tree leaf split: choose the axis minimizing the margin sum over
    /// all min-fill-respecting distributions, then the distribution with
    /// least overlap (ties: least combined volume).
    fn split_leaf(&mut self, node: NodeId) -> (NodeId, NodeId, usize) {
        let min = self.params.leaf_min().max(1);
        let mut entries = match self.node_mut(node) {
            Node::Leaf { entries, .. } => entries.take_all(),
            Node::Inner { .. } => unreachable!(),
        };
        let dim = self.params.dim;
        let n = entries.len();
        debug_assert!(n >= 2 * min, "not enough entries to split");

        // Choose the split axis by minimum margin sum. Prefix/suffix MBR
        // arrays make each axis O(n) instead of O(n^2) — essential when an
        // oversized node (e.g. after supernode growth) finally splits.
        let mut best_axis = 0;
        let mut best_margin = f64::INFINITY;
        for axis in 0..dim {
            entries.sort_by(|a, b| {
                a.point[axis]
                    .partial_cmp(&b.point[axis])
                    .expect("finite coordinates")
            });
            let (prefix, suffix) = point_prefix_suffix_mbrs(&entries);
            let margin: f64 = distributions(n, min)
                .map(|k| prefix[k - 1].margin() + suffix[k].margin())
                .sum();
            if margin < best_margin {
                best_margin = margin;
                best_axis = axis;
            }
        }

        // Choose the distribution on the best axis by minimum overlap.
        entries.sort_by(|a, b| {
            a.point[best_axis]
                .partial_cmp(&b.point[best_axis])
                .expect("finite coordinates")
        });
        let (prefix, suffix) = point_prefix_suffix_mbrs(&entries);
        let mut best_k = min;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for k in distributions(n, min) {
            let m1 = &prefix[k - 1];
            let m2 = &suffix[k];
            let key = (m1.overlap_volume(m2), m1.volume() + m2.volume());
            if key < best_key {
                best_key = key;
                best_k = k;
            }
        }

        let right_entries = entries.split_off(best_k);
        let order = self.params.scan_order;
        *self.node_mut(node) = Node::Leaf {
            entries: LeafEntries::from_entries_ordered(dim, order, entries),
            pages: 1,
        };
        let right = self.alloc(Node::Leaf {
            entries: LeafEntries::from_entries_ordered(dim, order, right_entries),
            pages: 1,
        });
        (node, right, best_axis)
    }

    /// Directory split. For the R\*-tree this is the margin/overlap split.
    /// For the X-tree the result is accepted only if the two halves
    /// overlap less than the threshold; otherwise an overlap-minimal split
    /// along a split-history dimension is tried, and as a last resort the
    /// node becomes a supernode.
    fn split_inner(&mut self, node: NodeId) -> OverflowOutcome {
        let min = self.params.inner_min().max(1);
        let (entries, split_dims, pages) = match self.node(node) {
            Node::Inner {
                entries,
                split_dims,
                pages,
            } => (entries.to_rects(), *split_dims, *pages),
            Node::Leaf { .. } => unreachable!(),
        };
        let topo = self.rstar_inner_split(&entries, min);

        match self.params.variant {
            TreeVariant::RStar => {
                let (k, axis, sorted) = topo;
                let right = self.install_inner_split(node, sorted, k, split_dims, axis);
                OverflowOutcome::Split {
                    left: node,
                    right,
                    split_axis: axis,
                }
            }
            TreeVariant::XTree { max_overlap } => {
                let (k, axis, sorted) = topo;
                let m1 = rects_mbr(&sorted[..k]);
                let m2 = rects_mbr(&sorted[k..]);
                let ov = m1.overlap_volume(&m2);
                let union_vol = m1.volume() + m2.volume() - ov;
                let frac = if union_vol > 0.0 { ov / union_vol } else { 0.0 };
                if frac <= max_overlap {
                    let right = self.install_inner_split(node, sorted, k, split_dims, axis);
                    return OverflowOutcome::Split {
                        left: node,
                        right,
                        split_axis: axis,
                    };
                }
                // Overlap-minimal split guided by the split history.
                if let Some((k, axis, sorted)) = self.overlap_free_split(&entries, split_dims, min)
                {
                    let right = self.install_inner_split(node, sorted, k, split_dims, axis);
                    return OverflowOutcome::Split {
                        left: node,
                        right,
                        split_axis: axis,
                    };
                }
                // Supernode: extend the node by one page instead.
                match self.node_mut(node) {
                    Node::Inner { pages: p, .. } => *p = pages + 1,
                    Node::Leaf { .. } => unreachable!(),
                }
                OverflowOutcome::Supernode
            }
        }
    }

    /// The R\*-tree topological split of directory entries: returns the
    /// split position `k`, the chosen axis, and the entries sorted on that
    /// axis.
    fn rstar_inner_split(
        &self,
        entries: &[OwnedEntry],
        min: usize,
    ) -> (usize, usize, Vec<OwnedEntry>) {
        let dim = self.params.dim;
        let n = entries.len();
        let mut best: Option<(f64, usize, Vec<OwnedEntry>)> = None;
        for axis in 0..dim {
            let mut sorted = entries.to_vec();
            sorted.sort_by(|(a, _), (b, _)| {
                (a.lo(axis), a.hi(axis))
                    .partial_cmp(&(b.lo(axis), b.hi(axis)))
                    .expect("finite bounds")
            });
            let (prefix, suffix) = rect_prefix_suffix_mbrs(&sorted);
            let margin: f64 = distributions(n, min)
                .map(|k| prefix[k - 1].margin() + suffix[k].margin())
                .sum();
            match &best {
                Some((m, _, _)) if *m <= margin => {}
                _ => best = Some((margin, axis, sorted)),
            }
        }
        let (_, axis, sorted) = best.expect("at least one axis");
        let (prefix, suffix) = rect_prefix_suffix_mbrs(&sorted);
        let mut best_k = min;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for k in distributions(n, min) {
            let m1 = &prefix[k - 1];
            let m2 = &suffix[k];
            let key = (m1.overlap_volume(m2), m1.volume() + m2.volume());
            if key < best_key {
                best_key = key;
                best_k = k;
            }
        }
        (best_k, axis, sorted)
    }

    /// The X-tree overlap-minimal split: look for a dimension (preferring
    /// the split history) along which the children can be partitioned into
    /// two groups whose MBRs do not overlap on that axis.
    fn overlap_free_split(
        &self,
        entries: &[OwnedEntry],
        split_dims: u64,
        min: usize,
    ) -> Option<(usize, usize, Vec<OwnedEntry>)> {
        let dim = self.params.dim;
        let history: Vec<usize> = (0..dim).filter(|a| split_dims & (1 << a) != 0).collect();
        let others: Vec<usize> = (0..dim).filter(|a| split_dims & (1 << a) == 0).collect();
        for &axis in history.iter().chain(others.iter()) {
            let mut sorted = entries.to_vec();
            sorted.sort_by(|(a, _), (b, _)| {
                a.lo(axis).partial_cmp(&b.lo(axis)).expect("finite bounds")
            });
            // Sweep: find a cut where everything left ends before
            // everything right begins.
            let mut max_hi = f64::NEG_INFINITY;
            for k in 1..sorted.len() {
                max_hi = max_hi.max(sorted[k - 1].0.hi(axis));
                if k < min || sorted.len() - k < min {
                    continue;
                }
                if max_hi <= sorted[k].0.lo(axis) {
                    return Some((k, axis, sorted));
                }
            }
        }
        None
    }

    fn install_inner_split(
        &mut self,
        node: NodeId,
        sorted: Vec<OwnedEntry>,
        k: usize,
        split_dims: u64,
        axis: usize,
    ) -> NodeId {
        let dim = self.params.dim;
        let mut left_entries = sorted;
        let right_entries = left_entries.split_off(k);
        let new_dims = split_dims | (1u64 << axis);
        // A split of a supernode can leave halves that still exceed a
        // single page; each half keeps exactly the pages its entry count
        // requires (supernodes shrink gradually as splits succeed).
        let pages_for =
            |len: usize| -> u32 { len.div_ceil(self.params.inner_capacity).max(1) as u32 };
        let left_pages = pages_for(left_entries.len());
        let right_pages = pages_for(right_entries.len());
        *self.node_mut(node) = Node::Inner {
            entries: InnerEntries::from_rects(dim, left_entries),
            pages: left_pages,
            split_dims: new_dims,
        };
        self.alloc(Node::Inner {
            entries: InnerEntries::from_rects(dim, right_entries),
            pages: right_pages,
            split_dims: new_dims,
        })
    }

    // ----- deletion ------------------------------------------------------

    /// Deletes one occurrence of `(point, item)`.
    pub fn delete(&mut self, point: &Point, item: u64) -> Result<(), IndexError> {
        if point.dim() != self.params.dim {
            return Err(IndexError::DimensionMismatch {
                expected: self.params.dim,
                got: point.dim(),
            });
        }
        let mut path = Vec::new();
        let leaf = self
            .find_leaf(self.root, point, item, &mut path)
            .ok_or(IndexError::NotFound)?;
        match self.node_mut(leaf) {
            Node::Leaf { entries, .. } => {
                let idx = entries
                    .position(point.coords(), item)
                    .expect("find_leaf guarantees presence");
                entries.swap_remove(idx);
            }
            Node::Inner { .. } => unreachable!(),
        }
        self.len -= 1;
        self.condense(leaf, path);
        self.recompute_bounds();
        Ok(())
    }

    fn find_leaf(
        &self,
        node: NodeId,
        point: &Point,
        item: u64,
        path: &mut Vec<(NodeId, usize)>,
    ) -> Option<NodeId> {
        match self.node(node) {
            Node::Leaf { entries, .. } => {
                if entries.position(point.coords(), item).is_some() {
                    Some(node)
                } else {
                    None
                }
            }
            Node::Inner { entries, .. } => {
                for (i, (lo, hi, child)) in entries.iter().enumerate() {
                    let mut axes = lo.iter().zip(hi).zip(point.iter());
                    if axes.all(|((l, h), c)| l <= c && c <= h) {
                        path.push((node, i));
                        if let Some(found) = self.find_leaf(child, point, item, path) {
                            return Some(found);
                        }
                        path.pop();
                    }
                }
                None
            }
        }
    }

    /// R-tree condensation after a delete: drop underfull nodes along the
    /// path, reinsert their orphaned points, shrink the root.
    fn condense(&mut self, leaf: NodeId, path: Vec<(NodeId, usize)>) {
        let mut orphans: Vec<LeafEntry> = Vec::new();
        let mut current = leaf;
        let mut path = path;
        while let Some((parent, idx)) = path.pop() {
            let min = if self.node(current).is_leaf() {
                self.params.leaf_min()
            } else {
                self.params.inner_min()
            };
            if self.node(current).len() < min {
                // Remove the child from its parent and collect its points.
                match self.node_mut(parent) {
                    Node::Inner { entries, .. } => {
                        entries.swap_remove(idx);
                    }
                    Node::Leaf { .. } => unreachable!(),
                }
                self.collect_points(current, &mut orphans);
                self.dealloc(current);
                // After swap_remove the recorded indices of deeper path
                // entries are unaffected (they are above us), but the
                // parent's other entry indices changed; we only use the
                // parent going up, so nothing else to fix.
            } else {
                let mbr = self.node(current).mbr().expect("non-underfull node");
                match self.node_mut(parent) {
                    Node::Inner { entries, .. } => entries.set_mbr(idx, &mbr),
                    Node::Leaf { .. } => unreachable!(),
                }
            }
            current = parent;
        }
        // Shrink the root.
        loop {
            match self.node(self.root) {
                Node::Inner { entries, .. } if entries.len() == 1 => {
                    let child = entries.child(0);
                    self.dealloc(self.root);
                    self.root = child;
                    self.height -= 1;
                }
                Node::Inner { entries, .. } if entries.is_empty() => {
                    let dim = self.params.dim;
                    *self.node_mut(self.root) = Node::empty_leaf(dim);
                    self.height = 1;
                    break;
                }
                _ => break,
            }
        }
        for e in orphans {
            self.insert_leaf_entry(e, false);
        }
    }

    fn collect_points(&mut self, node: NodeId, out: &mut Vec<LeafEntry>) {
        match self.node(node).clone() {
            Node::Leaf { entries, .. } => out.extend(entries.to_entries()),
            Node::Inner { entries, .. } => {
                for &child in entries.children() {
                    self.collect_points(child, out);
                    self.dealloc(child);
                }
            }
        }
    }

    // ----- validation (used by tests) ------------------------------------

    /// Exhaustively checks the structural invariants; panics with a
    /// description on the first violation. Intended for tests.
    pub fn validate(&self) {
        let mut count = 0usize;
        self.validate_node(self.root, self.height, true, &mut count);
        assert_eq!(count, self.len, "len does not match stored points");
    }

    fn validate_node(&self, id: NodeId, level: usize, is_root: bool, count: &mut usize) {
        let node = self.node(id);
        let cap = self.capacity_of(node);
        assert!(
            node.len() <= cap,
            "node over capacity: {} > {cap}",
            node.len()
        );
        match node {
            Node::Leaf { entries, .. } => {
                assert_eq!(level, 1, "leaves must sit at level 1");
                if !is_root {
                    assert!(
                        entries.len() >= self.params.leaf_min(),
                        "underfull leaf: {}",
                        entries.len()
                    );
                }
                *count += entries.len();
            }
            Node::Inner { entries, .. } => {
                assert!(level > 1, "inner node at leaf level");
                if !is_root {
                    assert!(
                        entries.len() >= self.params.inner_min().min(2),
                        "underfull inner node: {}",
                        entries.len()
                    );
                } else {
                    assert!(entries.len() >= 2, "inner root must have >= 2 children");
                }
                for i in 0..entries.len() {
                    let child = entries.child(i);
                    let child_mbr = self
                        .node(child)
                        .mbr()
                        .expect("child of inner node is non-empty");
                    assert!(
                        entries.mbr(i).contains_rect(&child_mbr),
                        "entry MBR does not contain child MBR"
                    );
                    self.validate_node(child, level - 1, false, count);
                }
            }
        }
    }

    /// Total number of supernode pages beyond the first (0 for R\*-trees).
    pub fn supernode_extra_pages(&self) -> u64 {
        self.nodes
            .iter()
            .flatten()
            .map(|n| (n.pages() - 1) as u64)
            .sum()
    }

    /// Iterates over all live nodes (for statistics).
    pub fn iter_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().flatten()
    }
}

/// A directory entry in owned form, as the split algorithms sort and
/// regroup it before the halves go back into slabs.
type OwnedEntry = (HyperRect, NodeId);

enum OverflowOutcome {
    Split {
        left: NodeId,
        right: NodeId,
        split_axis: usize,
    },
    Supernode,
}

/// All split positions `k` with `min <= k` and `min <= n - k`.
fn distributions(n: usize, min: usize) -> impl Iterator<Item = usize> {
    min..=(n - min)
}

/// Prefix and suffix MBR arrays of a sorted entry slice: `prefix[i]` covers
/// `entries[..=i]`, `suffix[i]` covers `entries[i..]`. O(n·d); turns the
/// R\*-tree distribution scan from quadratic to linear.
fn point_prefix_suffix_mbrs(entries: &[LeafEntry]) -> (Vec<HyperRect>, Vec<HyperRect>) {
    let n = entries.len();
    let mut prefix = Vec::with_capacity(n);
    let mut mbr = HyperRect::from_point(&entries[0].point);
    prefix.push(mbr.clone());
    for e in &entries[1..] {
        mbr.expand_to_point(&e.point);
        prefix.push(mbr.clone());
    }
    let mut suffix = vec![HyperRect::from_point(&entries[n - 1].point); n];
    for i in (0..n - 1).rev() {
        let mut m = suffix[i + 1].clone();
        m.expand_to_point(&entries[i].point);
        suffix[i] = m;
    }
    (prefix, suffix)
}

/// Rectangle version of [`point_prefix_suffix_mbrs`].
fn rect_prefix_suffix_mbrs(entries: &[OwnedEntry]) -> (Vec<HyperRect>, Vec<HyperRect>) {
    let n = entries.len();
    let mut prefix = Vec::with_capacity(n);
    let mut mbr = entries[0].0.clone();
    prefix.push(mbr.clone());
    for (r, _) in &entries[1..] {
        mbr.expand_to_rect(r);
        prefix.push(mbr.clone());
    }
    let mut suffix = vec![entries[n - 1].0.clone(); n];
    for i in (0..n - 1).rev() {
        let mut m = suffix[i + 1].clone();
        m.expand_to_rect(&entries[i].0);
        suffix[i] = m;
    }
    (prefix, suffix)
}

fn rects_mbr(entries: &[OwnedEntry]) -> HyperRect {
    let mut it = entries.iter();
    let (first, _) = it.next().expect("non-empty group");
    let mut mbr = first.clone();
    for (r, _) in it {
        mbr.expand_to_rect(r);
    }
    mbr
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_datagen::{DataGenerator, UniformGenerator};

    fn params(dim: usize, variant: TreeVariant) -> TreeParams {
        TreeParams::for_dim(dim, variant)
            .unwrap()
            .with_capacities(8, 8)
            .unwrap()
    }

    #[test]
    fn empty_tree() {
        let t = SpatialTree::new(params(3, TreeVariant::RStar));
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.bounds().is_none());
        t.validate();
    }

    #[test]
    fn insert_grows_and_validates() {
        let mut t = SpatialTree::new(params(4, TreeVariant::RStar));
        let pts = UniformGenerator::new(4).generate(500, 1);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        assert_eq!(t.len(), 500);
        assert!(t.height() > 1);
        t.validate();
    }

    #[test]
    fn xtree_insert_validates_high_dim() {
        let mut t = SpatialTree::new(params(12, TreeVariant::xtree_default()));
        let pts = UniformGenerator::new(12).generate(800, 2);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        assert_eq!(t.len(), 800);
        t.validate();
    }

    #[test]
    fn xtree_creates_supernodes_in_high_dimensions() {
        // In high dimensions directory splits overlap badly; the X-tree
        // must resort to supernodes where the R*-tree splits regardless.
        let dim = 14;
        let pts = UniformGenerator::new(dim).generate(3000, 3);
        let mut x = SpatialTree::new(params(dim, TreeVariant::xtree_default()));
        for (i, p) in pts.iter().enumerate() {
            x.insert(p.clone(), i as u64).unwrap();
        }
        x.validate();
        assert!(
            x.supernode_extra_pages() > 0,
            "expected supernodes in {dim}-d"
        );
        let mut r = SpatialTree::new(params(dim, TreeVariant::RStar));
        for (i, p) in pts.iter().enumerate() {
            r.insert(p.clone(), i as u64).unwrap();
        }
        assert_eq!(r.supernode_extra_pages(), 0);
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let mut t = SpatialTree::new(params(3, TreeVariant::RStar));
        let p = Point::new(vec![0.5, 0.5]).unwrap();
        assert!(matches!(
            t.insert(p.clone(), 0),
            Err(IndexError::DimensionMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert!(matches!(
            t.delete(&p, 0),
            Err(IndexError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn delete_removes_and_condenses() {
        let mut t = SpatialTree::new(params(3, TreeVariant::RStar));
        let pts = UniformGenerator::new(3).generate(300, 4);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        // Delete two thirds in a scattered order.
        for (i, p) in pts.iter().enumerate() {
            if i % 3 != 0 {
                t.delete(p, i as u64).unwrap();
            }
        }
        assert_eq!(t.len(), 100);
        t.validate();
        // Deleting an unknown point fails.
        assert_eq!(
            t.delete(&Point::new(vec![2.0, 2.0, 2.0]).unwrap(), 999),
            Err(IndexError::NotFound)
        );
    }

    #[test]
    fn delete_everything_returns_to_empty() {
        let mut t = SpatialTree::new(params(2, TreeVariant::xtree_default()));
        let pts = UniformGenerator::new(2).generate(120, 5);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        for (i, p) in pts.iter().enumerate() {
            t.delete(p, i as u64).unwrap();
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.validate();
    }

    #[test]
    fn duplicate_points_are_supported() {
        let mut t = SpatialTree::new(params(2, TreeVariant::RStar));
        let p = Point::new(vec![0.5, 0.5]).unwrap();
        for i in 0..50 {
            t.insert(p.clone(), i).unwrap();
        }
        assert_eq!(t.len(), 50);
        t.validate();
        t.delete(&p, 25).unwrap();
        assert_eq!(t.len(), 49);
        t.validate();
    }

    #[test]
    fn disk_accounting_charges_pages() {
        use parsim_storage::SimDisk;
        let disk = Arc::new(SimDisk::new(0));
        let t = SpatialTree::new(params(2, TreeVariant::RStar)).with_disk(Arc::clone(&disk));
        t.charge_visit(t.root_id());
        assert_eq!(disk.read_count(), 1);
    }
}
