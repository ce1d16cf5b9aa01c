//! Tree nodes and the node arena.

use parsim_geometry::{HyperRect, Point};
use parsim_storage::VectorArena;

use crate::params::ScanOrder;

/// Index of a node in the tree's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

/// An entry of a leaf node: one indexed point and its caller-supplied item
/// id.
///
/// Inside a leaf the entries are stored columnar ([`LeafEntries`]); this
/// owned form exists for the mutation paths (insert, split, condense) that
/// shuffle individual entries around.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafEntry {
    /// The indexed feature vector.
    pub point: Point,
    /// Caller-supplied identifier of the multimedia object.
    pub item: u64,
}

/// The entries of one leaf page, stored as a flat row-major
/// [`VectorArena`] plus a parallel item-id column.
///
/// This is the layout the hot k-NN scan runs over: one linear sweep of
/// contiguous `f64`s instead of a pointer chase through per-point heap
/// allocations (see `DESIGN.md`, "Memory layout & distance kernels").
#[derive(Debug, Clone, PartialEq)]
pub struct LeafEntries {
    coords: VectorArena,
    items: Vec<u64>,
}

impl LeafEntries {
    /// An empty entry block for points of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        LeafEntries {
            coords: VectorArena::new(dim),
            items: Vec::new(),
        }
    }

    /// Builds a block from owned entries (e.g. a split half or a bulk-load
    /// run) in natural coordinate order.
    pub fn from_entries(dim: usize, entries: Vec<LeafEntry>) -> Self {
        LeafEntries::from_entries_ordered(dim, ScanOrder::Natural, entries)
    }

    /// Builds a block from owned entries with the requested scan-order
    /// layout. [`ScanOrder::Energy`] computes this block's per-leaf energy
    /// ordering — coordinates sorted by descending variance over the
    /// block's rows — and permutes the scan views (and mirrors)
    /// accordingly; blocks whose energy order is already natural (or that
    /// are too small to rank) stay in the plain layout.
    pub fn from_entries_ordered(dim: usize, order: ScanOrder, entries: Vec<LeafEntry>) -> Self {
        let mut coords = VectorArena::from_rows(dim, entries.iter().map(|e| e.point.coords()));
        let items = entries.iter().map(|e| e.item).collect();
        if order == ScanOrder::Energy {
            if let Some(perm) = energy_permutation(&coords) {
                coords.set_permutation(perm);
            }
        }
        LeafEntries { coords, items }
    }

    /// Vector dimension of every row.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.dim()
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the block holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Appends one entry.
    pub fn push(&mut self, entry: LeafEntry) {
        self.coords.push(entry.point.coords());
        self.items.push(entry.item);
    }

    /// Coordinate row of entry `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        self.coords.row(i)
    }

    /// Item id of entry `i`.
    #[inline]
    pub fn item(&self, i: usize) -> u64 {
        self.items[i]
    }

    /// Materializes entry `i`'s coordinates as an owned [`Point`].
    pub fn point(&self, i: usize) -> Point {
        Point::from_vec(self.coords.row(i).to_vec())
    }

    /// The whole block as one flat row-major slice in natural coordinate
    /// order (exact batch-kernel view).
    #[inline]
    pub fn flat_coords(&self) -> &[f64] {
        self.coords.as_flat()
    }

    /// The block in scan order: the energy-permuted copy when this leaf
    /// carries a permutation, otherwise the natural rows.
    #[inline]
    pub fn flat_scan_coords(&self) -> &[f64] {
        self.coords.as_flat_scan()
    }

    /// The leaf's scan-order permutation (stored lane `p` holds natural
    /// coordinate `perm[p]`), or `None` for the natural layout.
    #[inline]
    pub fn scan_perm(&self) -> Option<&[u32]> {
        self.coords.scan_perm()
    }

    /// The block's f32 mirror, flat row-major in scan order (phase-1 scan
    /// view; permute the query with [`LeafEntries::scan_perm`] first).
    #[inline]
    pub fn flat_f32(&self) -> &[f32] {
        self.coords.as_flat_f32()
    }

    /// Overestimate of the largest `‖row − f32 mirror row‖₂` in the block.
    #[inline]
    pub fn f32_radius(&self) -> f64 {
        self.coords.f32_radius()
    }

    /// The block's 8-bit quantization codes, flat row-major.
    #[inline]
    pub fn codes(&self) -> &[u8] {
        self.coords.as_codes()
    }

    /// Per-lane `(mins, scales)` of the block's quantization grids
    /// (scan-order lanes), or `None` while degenerate (empty block, range
    /// overflow).
    #[inline]
    pub fn q8_grid(&self) -> Option<(&[f64], &[f64])> {
        self.coords.q8_grid()
    }

    /// Per-lane squared grid steps — the weight vector of the weighted q8
    /// kernels. Valid whenever [`LeafEntries::q8_grid`] is `Some`.
    #[inline]
    pub fn q8_weights(&self) -> &[f64] {
        self.coords.q8_weights()
    }

    /// Overestimate of the largest `‖row − q8 reconstruction‖₂`.
    #[inline]
    pub fn q8_radius(&self) -> f64 {
        self.coords.q8_radius()
    }

    /// Encodes `query` on the block's quantization grid into `out` and
    /// returns an overestimate of `‖query − reconstruction‖₂`.
    #[inline]
    pub fn quantize_query(&self, query: &[f64], out: &mut Vec<i32>) -> f64 {
        self.coords.quantize_query(query, out)
    }

    /// Iterates over `(coordinate row, item id)` pairs in storage order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[f64], u64)> {
        self.coords.iter().zip(self.items.iter().copied())
    }

    /// Materializes all entries as owned [`LeafEntry`] values (order
    /// preserved).
    pub fn to_entries(&self) -> Vec<LeafEntry> {
        self.iter()
            .map(|(row, item)| LeafEntry {
                point: Point::from_vec(row.to_vec()),
                item,
            })
            .collect()
    }

    /// Drains the block into owned entries, leaving it empty (dimension
    /// kept). Used by the split and condense paths that re-distribute
    /// entries.
    pub fn take_all(&mut self) -> Vec<LeafEntry> {
        let out = self.to_entries();
        self.coords.clear();
        self.items.clear();
        out
    }

    /// Removes entry `i` by moving the last entry into its slot (order not
    /// preserved).
    pub fn swap_remove(&mut self, i: usize) {
        self.coords.swap_remove(i);
        self.items.swap_remove(i);
    }

    /// Index of the entry matching `(coords, item)` exactly, if present.
    pub fn position(&self, coords: &[f64], item: u64) -> Option<usize> {
        self.iter()
            .position(|(row, it)| it == item && row == coords)
    }
}

/// The energy ordering of a block: coordinate indices sorted by descending
/// variance over the block's rows (stable — ties keep natural order), or
/// `None` when ordering cannot help (fewer than two rows or dimensions, or
/// the energy order already *is* the natural order).
///
/// Variance here is the uncentered-corrected sample form
/// `E[x²] − E[x]²`; only the relative order matters, so the cheap
/// single-pass form is fine (a slightly off tie-break costs nothing —
/// correctness never depends on the permutation chosen).
pub fn energy_permutation(coords: &VectorArena) -> Option<Vec<u32>> {
    let dim = coords.dim();
    let n = coords.len();
    if n < 2 || dim < 2 {
        return None;
    }
    let mut sum = vec![0.0f64; dim];
    let mut sumsq = vec![0.0f64; dim];
    for row in coords.iter() {
        for (j, &v) in row.iter().enumerate() {
            sum[j] += v;
            sumsq[j] += v * v;
        }
    }
    let inv = 1.0 / n as f64;
    let var: Vec<f64> = (0..dim)
        .map(|j| (sumsq[j] * inv - (sum[j] * inv).powi(2)).max(0.0))
        .collect();
    let mut perm: Vec<u32> = (0..dim as u32).collect();
    perm.sort_by(|&a, &b| {
        var[b as usize]
            .partial_cmp(&var[a as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    if perm.iter().enumerate().all(|(i, &p)| p as usize == i) {
        None
    } else {
        Some(perm)
    }
}

/// The entries of one directory node: the bounding rectangles of the
/// child subtrees in one contiguous slab, plus a parallel child-id column
/// — the directory twin of [`LeafEntries`].
///
/// Entry `i` occupies `bounds[2·dim·i ..][.. 2·dim]`: its `lo` corner
/// followed by its `hi` corner. The searches sweep the slab front to back
/// ([`InnerEntries::min_dists2`]); the mutation paths (insert, split,
/// bulk load) work on owned rectangles and go through
/// [`InnerEntries::mbr`] / [`InnerEntries::set_mbr`] (see `DESIGN.md`,
/// "Directory layout").
#[derive(Debug, Clone, PartialEq)]
pub struct InnerEntries {
    dim: usize,
    bounds: Vec<f64>,
    children: Vec<NodeId>,
}

impl InnerEntries {
    /// An empty entry block for rectangles of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        InnerEntries::with_capacity(dim, 0)
    }

    /// An empty entry block with room for `entries` entries.
    pub fn with_capacity(dim: usize, entries: usize) -> Self {
        assert!(dim > 0, "zero-dimensional directory entries");
        InnerEntries {
            dim,
            bounds: Vec::with_capacity(2 * dim * entries),
            children: Vec::with_capacity(entries),
        }
    }

    /// Builds a block from owned `(rectangle, child)` pairs, order kept.
    pub fn from_rects(dim: usize, rects: impl IntoIterator<Item = (HyperRect, NodeId)>) -> Self {
        let rects = rects.into_iter();
        let mut entries = InnerEntries::with_capacity(dim, rects.size_hint().0);
        for (mbr, child) in rects {
            entries.push(&mbr, child);
        }
        entries
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// True if the block holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Appends one entry.
    pub fn push(&mut self, mbr: &HyperRect, child: NodeId) {
        assert_eq!(mbr.dim(), self.dim, "rectangle dimension mismatch");
        self.bounds.extend_from_slice(mbr.lo_coords());
        self.bounds.extend_from_slice(mbr.hi_coords());
        self.children.push(child);
    }

    /// Child node of entry `i`.
    #[inline]
    pub fn child(&self, i: usize) -> NodeId {
        self.children[i]
    }

    /// The child ids, in entry order.
    #[inline]
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// The `(lo, hi)` bound rows of entry `i`.
    #[inline]
    fn bounds(&self, i: usize) -> (&[f64], &[f64]) {
        self.bounds[2 * self.dim * i..][..2 * self.dim].split_at(self.dim)
    }

    /// Materializes entry `i`'s rectangle as an owned [`HyperRect`].
    pub fn mbr(&self, i: usize) -> HyperRect {
        let (lo, hi) = self.bounds(i);
        HyperRect::from_bounds(lo, hi)
    }

    /// Overwrites entry `i`'s rectangle.
    pub fn set_mbr(&mut self, i: usize, mbr: &HyperRect) {
        assert_eq!(mbr.dim(), self.dim, "rectangle dimension mismatch");
        let (lo, hi) = self.bounds[2 * self.dim * i..][..2 * self.dim].split_at_mut(self.dim);
        lo.copy_from_slice(mbr.lo_coords());
        hi.copy_from_slice(mbr.hi_coords());
    }

    /// Iterates over `(lo, hi, child)` in entry order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[f64], &[f64], NodeId)> {
        self.bounds
            .chunks_exact(2 * self.dim)
            .zip(self.children.iter())
            .map(|(b, &child)| {
                let (lo, hi) = b.split_at(self.dim);
                (lo, hi, child)
            })
    }

    /// Materializes all entries as owned `(rectangle, child)` pairs (order
    /// preserved) — the form the split algorithms sort and regroup.
    pub fn to_rects(&self) -> Vec<(HyperRect, NodeId)> {
        self.iter()
            .map(|(lo, hi, child)| (HyperRect::from_bounds(lo, hi), child))
            .collect()
    }

    /// A copy of the entries in `range` as a block of its own.
    pub fn range(&self, range: std::ops::Range<usize>) -> InnerEntries {
        let width = 2 * self.dim;
        InnerEntries {
            dim: self.dim,
            bounds: self.bounds[width * range.start..width * range.end].to_vec(),
            children: self.children[range].to_vec(),
        }
    }

    /// Removes entry `i` by moving the last entry into its slot (order not
    /// preserved).
    pub fn swap_remove(&mut self, i: usize) {
        let width = 2 * self.dim;
        let last = self.children.len() - 1;
        self.children.swap_remove(i);
        if i != last {
            self.bounds
                .copy_within(width * last..width * (last + 1), width * i);
        }
        self.bounds.truncate(width * last);
    }

    /// `MINDIST²(q, R_i)` of every entry, in entry order, in one pass over
    /// the slab.
    ///
    /// Each value is **bit-identical** to [`HyperRect::min_dist2`] on the
    /// same rectangle: the per-axis terms are added one after the other in
    /// axis order. An axis whose interval covers the query contributes an
    /// exact `+0.0` here where `min_dist2` skips it, which leaves the
    /// running sum unchanged. Spelling the term as a clamp instead of two
    /// branches is what lets the sweep run at memory speed: whether a
    /// uniform query falls inside an interval is a coin toss per axis.
    #[inline]
    pub fn min_dists2<'a>(&'a self, q: &'a [f64]) -> impl ExactSizeIterator<Item = f64> + 'a {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        self.bounds.chunks_exact(2 * self.dim).map(move |b| {
            let (lo, hi) = b.split_at(self.dim);
            let mut acc = 0.0;
            for ((&l, &h), &c) in lo.iter().zip(hi).zip(q) {
                let d = (l - c).max(c - h).max(0.0);
                acc += d * d;
            }
            acc
        })
    }

    /// The union of all entry rectangles, or `None` for an empty block.
    pub fn union(&self) -> Option<HyperRect> {
        let mut it = self.iter();
        let (lo, hi, _) = it.next()?;
        let mut mbr = HyperRect::from_bounds(lo, hi);
        for (lo, hi, _) in it {
            mbr.expand_to_coords(lo);
            mbr.expand_to_coords(hi);
        }
        Some(mbr)
    }
}

/// A tree node. `pages > 1` marks an X-tree supernode, which occupies
/// several contiguous disk pages and has proportionally enlarged capacity.
// The Leaf variant is much larger than Inner since the arena grew its
// scan-order views (permutation, permuted copy, mirrors, grids), but
// nodes live in a slab indexed by `NodeId` and are never moved or
// passed by value on hot paths, so boxing would only add a pointer
// chase to every leaf scan.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A leaf holding data points.
    Leaf {
        /// The stored points, flat row-major.
        entries: LeafEntries,
        /// Number of disk pages this node occupies.
        pages: u32,
    },
    /// A directory node holding child MBRs.
    Inner {
        /// The child entries, one contiguous bounds slab.
        entries: InnerEntries,
        /// Number of disk pages this node occupies (supernodes: > 1).
        pages: u32,
        /// X-tree split history: bitmask of the dimensions along which the
        /// entries of this node have been separated by past splits.
        split_dims: u64,
    },
}

impl Node {
    /// Creates an empty single-page leaf for points of dimension `dim`.
    pub fn empty_leaf(dim: usize) -> Self {
        Node::Leaf {
            entries: LeafEntries::new(dim),
            pages: 1,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => entries.len(),
            Node::Inner { entries, .. } => entries.len(),
        }
    }

    /// True if the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    /// Number of disk pages the node occupies.
    pub fn pages(&self) -> u32 {
        match self {
            Node::Leaf { pages, .. } | Node::Inner { pages, .. } => *pages,
        }
    }

    /// The tight bounding rectangle of the node's entries, or `None` for an
    /// empty node.
    pub fn mbr(&self) -> Option<HyperRect> {
        match self {
            Node::Leaf { entries, .. } => {
                let mut it = entries.iter();
                let (first, _) = it.next()?;
                let mut mbr = HyperRect::from_coords(first);
                for (row, _) in it {
                    mbr.expand_to_coords(row);
                }
                Some(mbr)
            }
            Node::Inner { entries, .. } => entries.union(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coords: &[f64]) -> Point {
        Point::new(coords.to_vec()).unwrap()
    }

    #[test]
    fn empty_leaf_has_no_mbr() {
        let n = Node::empty_leaf(2);
        assert!(n.is_leaf());
        assert!(n.is_empty());
        assert_eq!(n.pages(), 1);
        assert!(n.mbr().is_none());
    }

    #[test]
    fn leaf_mbr_covers_points() {
        let n = Node::Leaf {
            entries: LeafEntries::from_entries(
                2,
                vec![
                    LeafEntry {
                        point: p(&[0.1, 0.9]),
                        item: 0,
                    },
                    LeafEntry {
                        point: p(&[0.5, 0.2]),
                        item: 1,
                    },
                ],
            ),
            pages: 1,
        };
        let mbr = n.mbr().unwrap();
        assert_eq!(mbr.lo_coords(), &[0.1, 0.2]);
        assert_eq!(mbr.hi_coords(), &[0.5, 0.9]);
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn leaf_entries_round_trip_and_mutate() {
        let mut es = LeafEntries::new(2);
        es.push(LeafEntry {
            point: p(&[0.1, 0.2]),
            item: 7,
        });
        es.push(LeafEntry {
            point: p(&[0.3, 0.4]),
            item: 8,
        });
        es.push(LeafEntry {
            point: p(&[0.5, 0.6]),
            item: 9,
        });
        assert_eq!(es.dim(), 2);
        assert_eq!(es.row(1), &[0.3, 0.4]);
        assert_eq!(es.item(1), 8);
        assert_eq!(es.point(2), p(&[0.5, 0.6]));
        assert_eq!(es.flat_coords().len(), 6);
        assert_eq!(es.position(&[0.3, 0.4], 8), Some(1));
        assert_eq!(es.position(&[0.3, 0.4], 9), None);

        let copy = es.to_entries();
        assert_eq!(copy.len(), 3);
        assert_eq!(LeafEntries::from_entries(2, copy), es);

        es.swap_remove(0);
        assert_eq!(es.len(), 2);
        assert_eq!(es.item(0), 9);

        let drained = es.take_all();
        assert_eq!(drained.len(), 2);
        assert!(es.is_empty());
        assert_eq!(es.dim(), 2);
    }

    #[test]
    fn inner_entries_round_trip_and_mutate() {
        let a = HyperRect::new(vec![0.0, 0.1], vec![0.3, 0.4]).unwrap();
        let b = HyperRect::new(vec![0.5, 0.5], vec![1.0, 0.8]).unwrap();
        let c = HyperRect::new(vec![0.2, 0.6], vec![0.2, 0.9]).unwrap();
        let rects = vec![
            (a.clone(), NodeId(4)),
            (b.clone(), NodeId(5)),
            (c.clone(), NodeId(6)),
        ];
        let mut es = InnerEntries::from_rects(2, rects.clone());
        assert_eq!(es.len(), 3);
        assert_eq!(es.children(), &[NodeId(4), NodeId(5), NodeId(6)]);
        assert_eq!(es.bounds(1), (&[0.5, 0.5][..], &[1.0, 0.8][..]));
        assert_eq!(es.mbr(2), c);
        assert_eq!(es.to_rects(), rects);
        let listed: Vec<NodeId> = es.iter().map(|(_, _, child)| child).collect();
        assert_eq!(listed, es.children());

        // The slab MINDIST is the rectangle's, bit for bit.
        let q = p(&[0.4, 0.0]);
        let got: Vec<u64> = es.min_dists2(q.coords()).map(f64::to_bits).collect();
        let want: Vec<u64> = [&a, &b, &c]
            .iter()
            .map(|r| r.min_dist2(&q).to_bits())
            .collect();
        assert_eq!(got, want);

        assert_eq!(es.range(1..3).to_rects(), rects[1..]);

        es.set_mbr(0, &b);
        assert_eq!(es.mbr(0), b);
        assert_eq!(es.child(0), NodeId(4));

        // swap_remove moves the last entry into the hole.
        es.swap_remove(0);
        assert_eq!(es.to_rects(), vec![(c.clone(), NodeId(6)), (b, NodeId(5))]);
        es.swap_remove(1);
        assert_eq!(es.to_rects(), vec![(c, NodeId(6))]);
        es.swap_remove(0);
        assert!(es.is_empty());
        assert!(es.union().is_none());
    }

    #[test]
    fn inner_mbr_covers_children() {
        let a = HyperRect::new(vec![0.0, 0.0], vec![0.3, 0.3]).unwrap();
        let b = HyperRect::new(vec![0.5, 0.5], vec![1.0, 0.8]).unwrap();
        let n = Node::Inner {
            entries: InnerEntries::from_rects(2, [(a, NodeId(1)), (b, NodeId(2))]),
            pages: 2,
            split_dims: 0b1,
        };
        let mbr = n.mbr().unwrap();
        assert_eq!(mbr.lo_coords(), &[0.0, 0.0]);
        assert_eq!(mbr.hi_coords(), &[1.0, 0.8]);
        assert_eq!(n.pages(), 2);
        assert!(!n.is_leaf());
    }
}
