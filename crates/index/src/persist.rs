//! Tree persistence onto simulated disks.
//!
//! Everything else in the workspace *accounts* page I/O; this module
//! actually performs it: a [`SpatialTree`] is serialized node-by-node into
//! 4 KB pages of a [`SimDisk`] (children before parents, so directory
//! entries can reference their children's page ids) and loaded back,
//! reconstructing an equivalent tree. The encoding is a fixed
//! little-endian layout with no external dependencies, and the round trip
//! doubles as a check that the page-capacity assumptions of
//! [`TreeParams::for_dim`] hold for real byte layouts.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! meta block:  tag=2 u8 | dim u16 | height u32 | len u64 | root u64
//!              | leaf_cap u32 | inner_cap u32 | variant u8 | max_overlap f64
//! leaf block:  tag=0 u8 | count u16 | { item u64, coord f64 × dim } × count
//! inner block: tag=1 u8 | count u16 | split_dims u64
//!              | { child_page u64, lo f64 × dim, hi f64 × dim } × count
//! ```
//!
//! A node needing more than one page (X-tree supernodes, or a block whose
//! header pushes it just past a page boundary) occupies consecutive pages
//! on the disk.

use std::collections::HashSet;
use std::sync::Arc;

use bytes::Bytes;
use parsim_geometry::{HyperRect, Point};
use parsim_storage::{PageId, SimDisk, PAGE_SIZE};

use crate::node::{InnerEntries, LeafEntries, LeafEntry, Node, NodeId};
use crate::params::{TreeParams, TreeVariant};
use crate::tree::SpatialTree;
use crate::IndexError;

const TAG_LEAF: u8 = 0;
const TAG_INNER: u8 = 1;
const TAG_META: u8 = 2;

/// Handle to a tree persisted on a disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistedTree {
    /// First page of the meta block.
    pub meta: PageId,
}

/// Errors of the persistence layer.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// The underlying simulated disk failed.
    Storage(String),
    /// The bytes on disk do not decode to a valid tree.
    Corrupt(&'static str),
    /// The decoded tree violates an invariant.
    Index(IndexError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Storage(e) => write!(f, "storage error: {e}"),
            PersistError::Corrupt(what) => write!(f, "corrupt page data: {what}"),
            PersistError::Index(e) => write!(f, "index error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

// ----- primitive writers/readers -------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.pos + n > self.buf.len() {
            return Err(PersistError::Corrupt("truncated block"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
    fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
}

/// Writes `bytes` as one block of consecutive pages; returns the first
/// page id.
fn write_block(disk: &SimDisk, bytes: &[u8]) -> Result<PageId, PersistError> {
    let mut first = None;
    if bytes.is_empty() {
        let id = disk
            .allocate(Bytes::new())
            .map_err(|e| PersistError::Storage(e.to_string()))?;
        return Ok(id);
    }
    for chunk in bytes.chunks(PAGE_SIZE) {
        let id = disk
            .allocate(Bytes::copy_from_slice(chunk))
            .map_err(|e| PersistError::Storage(e.to_string()))?;
        if first.is_none() {
            first = Some(id);
        }
    }
    Ok(first.expect("at least one chunk"))
}

/// Reads a block of `pages` consecutive pages starting at `first`.
fn read_block(disk: &SimDisk, first: PageId, pages: u64) -> Result<Vec<u8>, PersistError> {
    let mut out = Vec::with_capacity(pages as usize * PAGE_SIZE);
    for i in 0..pages {
        let page = disk
            .read(PageId(first.0 + i))
            .map_err(|e| PersistError::Storage(e.to_string()))?;
        out.extend_from_slice(&page);
    }
    Ok(out)
}

// ----- public API -----------------------------------------------------------

impl SpatialTree {
    /// Serializes the tree onto `disk`, children before parents, followed
    /// by a meta block. Returns the handle needed by
    /// [`SpatialTree::load`].
    pub fn persist(&self, disk: &Arc<SimDisk>) -> Result<PersistedTree, PersistError> {
        let dim = self.params().dim;
        // Post-order write so parents know their children's page ids.
        let root_page = self.persist_node(disk, self.root_id())?;

        let mut w = Writer::new();
        w.u8(TAG_META);
        w.u16(dim as u16);
        w.u32(self.height() as u32);
        w.u64(self.len() as u64);
        w.u64(root_page.0);
        w.u32(self.params().leaf_capacity as u32);
        w.u32(self.params().inner_capacity as u32);
        match self.params().variant {
            TreeVariant::RStar => {
                w.u8(0);
                w.f64(0.0);
            }
            TreeVariant::XTree { max_overlap } => {
                w.u8(1);
                w.f64(max_overlap);
            }
        }
        let meta = write_block(disk, &w.buf)?;
        Ok(PersistedTree { meta })
    }

    fn persist_node(&self, disk: &Arc<SimDisk>, id: NodeId) -> Result<PageId, PersistError> {
        match self.node(id) {
            Node::Leaf { entries, .. } => {
                let mut w = Writer::new();
                w.u8(TAG_LEAF);
                w.u16(entries.len() as u16);
                for (row, item) in entries.iter() {
                    w.u64(item);
                    for &c in row {
                        w.f64(c);
                    }
                }
                write_block(disk, &w.buf)
            }
            Node::Inner {
                entries,
                split_dims,
                ..
            } => {
                // Children first.
                let mut child_pages = Vec::with_capacity(entries.len());
                for &child in entries.children() {
                    child_pages.push(self.persist_node(disk, child)?);
                }
                let mut w = Writer::new();
                w.u8(TAG_INNER);
                w.u16(entries.len() as u16);
                w.u64(*split_dims);
                for ((lo, hi, _), page) in entries.iter().zip(&child_pages) {
                    w.u64(page.0);
                    for &bound in lo.iter().chain(hi) {
                        w.f64(bound);
                    }
                }
                write_block(disk, &w.buf)
            }
        }
    }

    /// Loads a persisted tree back from `disk`. The loaded tree has no
    /// sink attached; attach one with [`SpatialTree::with_disk`] /
    /// [`SpatialTree::with_sink`] as usual.
    pub fn load(disk: &Arc<SimDisk>, handle: PersistedTree) -> Result<SpatialTree, PersistError> {
        let meta_bytes = read_block(disk, handle.meta, 1)?;
        let mut r = Reader::new(&meta_bytes);
        if r.u8()? != TAG_META {
            return Err(PersistError::Corrupt("expected meta tag"));
        }
        let dim = r.u16()? as usize;
        let height = r.u32()? as usize;
        let len = r.u64()? as usize;
        let root_page = PageId(r.u64()?);
        let leaf_capacity = r.u32()? as usize;
        let inner_capacity = r.u32()? as usize;
        let variant = match r.u8()? {
            0 => {
                let _ = r.f64()?;
                TreeVariant::RStar
            }
            1 => TreeVariant::XTree {
                max_overlap: r.f64()?,
            },
            _ => return Err(PersistError::Corrupt("unknown variant tag")),
        };
        let params = TreeParams::for_dim(dim, variant)
            .and_then(|p| p.with_capacities(leaf_capacity, inner_capacity))
            .map_err(PersistError::Index)?;

        if height > MAX_HEIGHT {
            return Err(PersistError::Corrupt("stored height out of range"));
        }

        let mut tree = SpatialTree::new(params);
        let mut load = Load {
            disk,
            dim,
            leaf_capacity,
            inner_capacity,
            visited: HashSet::new(),
            points: 0,
        };
        let root = load_node(&mut load, &mut tree, root_page, height)?;
        if load.points != len {
            return Err(PersistError::Corrupt("stored len differs from the points"));
        }
        // Replace the bootstrap empty leaf with the loaded root.
        tree.nodes[tree.root.0 as usize] = None;
        tree.free.push(tree.root);
        tree.root = root;
        tree.height = height;
        tree.len = len;
        tree.recompute_bounds();
        Ok(tree)
    }
}

/// Real trees are a few levels deep. A larger stored height is treated as
/// a corrupt meta block, which also bounds the recursive load's stack.
const MAX_HEIGHT: usize = 64;

/// One load of a persisted tree, with what it checks along the way: a
/// corrupt block yields [`PersistError::Corrupt`], never a panic, an abort
/// or a tree that answers wrongly.
struct Load<'a> {
    disk: &'a Arc<SimDisk>,
    dim: usize,
    leaf_capacity: usize,
    inner_capacity: usize,
    /// First pages of the blocks loaded so far: a page referenced twice
    /// (a cycle, or two parents) is corrupt.
    visited: HashSet<u64>,
    /// Points recounted over the loaded leaves.
    points: usize,
}

/// Loads the node stored at `page`, `level` levels above the leaves
/// (leaves sit at level 1, the root at the stored height).
fn load_node(
    load: &mut Load<'_>,
    tree: &mut SpatialTree,
    page: PageId,
    level: usize,
) -> Result<NodeId, PersistError> {
    if !load.visited.insert(page.0) {
        return Err(PersistError::Corrupt("page referenced twice"));
    }
    let (disk, dim) = (load.disk, load.dim);
    // Read the first page to learn the entry count, then the rest of the
    // block if the node spans several pages.
    let head = read_block(disk, page, 1)?;
    let mut r = Reader::new(&head);
    let tag = r.u8()?;
    match tag {
        TAG_LEAF => {
            if level != 1 {
                return Err(PersistError::Corrupt("leaf off the stored height"));
            }
            let count = r.u16()? as usize;
            let bytes_needed = 3 + count * (8 + 8 * dim);
            let block = if bytes_needed > head.len() {
                read_block(disk, page, bytes_needed.div_ceil(PAGE_SIZE) as u64)?
            } else {
                head
            };
            let mut r = Reader::new(&block);
            let _ = r.u8()?;
            let _ = r.u16()?;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let item = r.u64()?;
                let mut coords = Vec::with_capacity(dim);
                for _ in 0..dim {
                    coords.push(r.f64()?);
                }
                entries.push(LeafEntry {
                    point: Point::new(coords)
                        .map_err(|_| PersistError::Corrupt("non-finite coordinate"))?,
                    item,
                });
            }
            load.points += count;
            let pages = entries.len().div_ceil(load.leaf_capacity).max(1) as u32;
            Ok(tree.alloc(Node::Leaf {
                entries: LeafEntries::from_entries(dim, entries),
                pages,
            }))
        }
        TAG_INNER => {
            if level <= 1 {
                return Err(PersistError::Corrupt("tree deeper than its stored height"));
            }
            let count = r.u16()? as usize;
            let bytes_needed = 11 + count * (8 + 16 * dim);
            let block = if bytes_needed > head.len() {
                read_block(disk, page, bytes_needed.div_ceil(PAGE_SIZE) as u64)?
            } else {
                head
            };
            let mut r = Reader::new(&block);
            let _ = r.u8()?;
            let _ = r.u16()?;
            let split_dims = r.u64()?;
            let mut raw = Vec::with_capacity(count);
            for _ in 0..count {
                let child_page = PageId(r.u64()?);
                let mut lo = Vec::with_capacity(dim);
                for _ in 0..dim {
                    lo.push(r.f64()?);
                }
                let mut hi = Vec::with_capacity(dim);
                for _ in 0..dim {
                    hi.push(r.f64()?);
                }
                let mbr = HyperRect::new(lo, hi)
                    .map_err(|_| PersistError::Corrupt("invalid MBR bounds"))?;
                raw.push((child_page, mbr));
            }
            let mut entries = InnerEntries::with_capacity(dim, count);
            for (child_page, mbr) in raw {
                let child = load_node(load, tree, child_page, level - 1)?;
                // The search prunes on the stored MBR, so it must cover
                // everything below it.
                let covered = tree
                    .node(child)
                    .mbr()
                    .is_some_and(|inner| mbr.contains_rect(&inner));
                if !covered {
                    return Err(PersistError::Corrupt("child outside its entry's MBR"));
                }
                entries.push(&mbr, child);
            }
            let pages = entries.len().div_ceil(load.inner_capacity).max(1) as u32;
            Ok(tree.alloc(Node::Inner {
                entries,
                pages,
                split_dims,
            }))
        }
        _ => Err(PersistError::Corrupt("unknown node tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::{brute_force_knn, KnnAlgorithm};
    use parsim_datagen::{DataGenerator, UniformGenerator};

    fn items(dim: usize, n: usize, seed: u64) -> Vec<(Point, u64)> {
        UniformGenerator::new(dim)
            .generate(n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect()
    }

    #[test]
    fn round_trip_preserves_queries() {
        for dim in [3usize, 8, 16] {
            let data = items(dim, 1500, 1);
            let params = TreeParams::for_dim(dim, TreeVariant::xtree_default()).unwrap();
            let tree = SpatialTree::bulk_load(params, data.clone()).unwrap();
            let disk = Arc::new(SimDisk::new(0));
            let handle = tree.persist(&disk).unwrap();
            let loaded = SpatialTree::load(&disk, handle).unwrap();

            assert_eq!(loaded.len(), tree.len());
            assert_eq!(loaded.height(), tree.height());
            loaded.validate();

            let q = UniformGenerator::new(dim).generate(1, 2).pop().unwrap();
            let want = brute_force_knn(&data, &q, 10);
            let got = loaded.knn(&q, 10, KnnAlgorithm::Rkv);
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g.dist - w.dist).abs() < 1e-12, "dim = {dim}");
            }
        }
    }

    #[test]
    fn round_trip_after_insert_heavy_build() {
        // Insertion-built X-trees can contain supernodes; persistence must
        // carry them.
        let dim = 14;
        let data = items(dim, 2500, 3);
        let params = TreeParams::for_dim(dim, TreeVariant::xtree_default())
            .unwrap()
            .with_capacities(8, 8)
            .unwrap();
        let mut tree = SpatialTree::new(params);
        for (p, id) in &data {
            tree.insert(p.clone(), *id).unwrap();
        }
        assert!(tree.supernode_extra_pages() > 0, "want supernodes");
        let disk = Arc::new(SimDisk::new(0));
        let handle = tree.persist(&disk).unwrap();
        let loaded = SpatialTree::load(&disk, handle).unwrap();
        loaded.validate();
        assert_eq!(loaded.len(), 2500);
        // Loaded supernodes keep multi-page blocks.
        assert!(loaded.supernode_extra_pages() > 0);
    }

    #[test]
    fn persisted_size_matches_page_budget() {
        // The on-disk footprint must be close to the nominal page count of
        // the tree (headers can add at most one page per node).
        let dim = 8;
        let data = items(dim, 4000, 4);
        let params = TreeParams::for_dim(dim, TreeVariant::xtree_default()).unwrap();
        let tree = SpatialTree::bulk_load(params, data).unwrap();
        let nominal: u64 = tree.iter_nodes().map(|n| n.pages() as u64).sum();
        let disk = Arc::new(SimDisk::new(0));
        tree.persist(&disk).unwrap();
        let on_disk = disk.page_count() - 1; // minus the meta block
        let node_count = tree.iter_nodes().count() as u64;
        assert!(
            on_disk <= nominal + node_count,
            "on-disk {on_disk} vs nominal {nominal} (+{node_count} header slack)"
        );
        assert!(on_disk >= nominal, "on-disk {on_disk} < nominal {nominal}");
    }

    #[test]
    fn empty_tree_round_trips() {
        let params = TreeParams::for_dim(4, TreeVariant::RStar).unwrap();
        let tree = SpatialTree::new(params);
        let disk = Arc::new(SimDisk::new(0));
        let handle = tree.persist(&disk).unwrap();
        let loaded = SpatialTree::load(&disk, handle).unwrap();
        assert!(loaded.is_empty());
        loaded.validate();
    }

    #[test]
    fn corrupt_meta_is_rejected() {
        let disk = Arc::new(SimDisk::new(0));
        let page = disk.allocate(Bytes::from_static(&[9u8; 16])).unwrap();
        match SpatialTree::load(&disk, PersistedTree { meta: page }) {
            Err(PersistError::Corrupt(_)) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("corrupt meta must not load"),
        }
    }

    /// The root page id a meta block points to (bytes 15..23).
    fn root_page(disk: &SimDisk, handle: PersistedTree) -> PageId {
        let meta = disk.read(handle.meta).unwrap();
        PageId(u64::from_le_bytes(meta[15..23].try_into().unwrap()))
    }

    #[test]
    fn a_child_pointing_at_its_ancestor_is_corrupt_not_a_stack_overflow() {
        let data = items(3, 1500, 1);
        let params = TreeParams::for_dim(3, TreeVariant::xtree_default()).unwrap();
        let tree = SpatialTree::bulk_load(params, data).unwrap();
        assert!(tree.height() > 1);
        let disk = Arc::new(SimDisk::new(0));
        let handle = tree.persist(&disk).unwrap();
        let root = root_page(&disk, handle);
        // The root's first entry starts after tag, count and split_dims.
        let mut page = disk.read(root).unwrap().to_vec();
        page[11..19].copy_from_slice(&root.0.to_le_bytes());
        disk.write(root, Bytes::from(page)).unwrap();
        assert!(matches!(
            SpatialTree::load(&disk, handle),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn a_wrong_height_len_or_shrunk_mbr_is_corrupt() {
        let data = items(2, 300, 6);
        let params = TreeParams::for_dim(2, TreeVariant::RStar)
            .unwrap()
            .with_capacities(6, 6)
            .unwrap();
        let tree = SpatialTree::bulk_load(params, data).unwrap();
        // Persists the tree afresh, overwrites `bytes` at `offset` of the
        // meta block or of the root page, and loads it back.
        let corrupt = |in_meta: bool, offset: usize, bytes: &[u8]| {
            let disk = Arc::new(SimDisk::new(0));
            let handle = tree.persist(&disk).unwrap();
            let at = if in_meta {
                handle.meta
            } else {
                root_page(&disk, handle)
            };
            let mut page = disk.read(at).unwrap().to_vec();
            page[offset..offset + bytes.len()].copy_from_slice(bytes);
            disk.write(at, Bytes::from(page)).unwrap();
            SpatialTree::load(&disk, handle)
        };
        let height = tree.height() as u32;
        for h in [height - 1, height + 1] {
            assert!(matches!(
                corrupt(true, 3, &h.to_le_bytes()),
                Err(PersistError::Corrupt(_))
            ));
        }
        let len = tree.len() as u64;
        for l in [len - 1, len + 1] {
            assert!(matches!(
                corrupt(true, 7, &l.to_le_bytes()),
                Err(PersistError::Corrupt(_))
            ));
        }
        // Move the root's first entry's upper corner onto its lower one:
        // the child's points no longer fit inside the entry.
        let Node::Inner { entries, .. } = tree.node(tree.root_id()) else {
            panic!("want an inner root");
        };
        let mbr = entries.mbr(0);
        let lo: Vec<u8> = (0..2).flat_map(|a| mbr.lo(a).to_le_bytes()).collect();
        assert!(matches!(
            corrupt(false, 19 + 16, &lo),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn single_byte_flips_give_an_error_or_a_tree_that_answers_exactly() {
        let data = items(2, 120, 7);
        let params = TreeParams::for_dim(2, TreeVariant::xtree_default())
            .unwrap()
            .with_capacities(5, 4)
            .unwrap();
        let tree = SpatialTree::bulk_load(params, data).unwrap();
        assert!(tree.height() >= 3);
        let clean = Arc::new(SimDisk::new(0));
        let handle = tree.persist(&clean).unwrap();
        let pages: Vec<Bytes> = (0..clean.page_count())
            .map(|i| clean.read(PageId(i)).unwrap())
            .collect();
        let (mut loaded_ok, mut rejected) = (0, 0);
        for (at, page) in pages.iter().enumerate() {
            for byte in 0..page.len() {
                for mask in [0xFFu8, 0x01] {
                    let disk = Arc::new(SimDisk::new(0));
                    for (i, p) in pages.iter().enumerate() {
                        let mut p = p.to_vec();
                        if i == at {
                            p[byte] ^= mask;
                        }
                        disk.allocate(Bytes::from(p)).unwrap();
                    }
                    let Ok(loaded) = SpatialTree::load(&disk, handle) else {
                        rejected += 1;
                        continue;
                    };
                    loaded_ok += 1;
                    // Whatever the flip changed, the tree must answer
                    // exactly over the points it now holds.
                    let dim = loaded.params().dim;
                    let held: Vec<(Point, u64)> = loaded
                        .iter_nodes()
                        .filter_map(|n| match n {
                            Node::Leaf { entries, .. } => Some(entries.iter()),
                            Node::Inner { .. } => None,
                        })
                        .flatten()
                        .map(|(row, item)| (Point::from_vec(row.to_vec()), item))
                        .collect();
                    assert_eq!(held.len(), loaded.len(), "page {at} byte {byte}");
                    for q in UniformGenerator::new(dim).generate(2, byte as u64) {
                        for algo in [KnnAlgorithm::Rkv, KnnAlgorithm::Hs] {
                            assert_eq!(
                                loaded.knn(&q, 5, algo),
                                brute_force_knn(&held, &q, 5),
                                "page {at} byte {byte} mask {mask:#x}"
                            );
                        }
                    }
                }
            }
        }
        assert!(rejected > 0 && loaded_ok > 0, "{rejected} / {loaded_ok}");
    }

    #[test]
    fn loading_charges_reads() {
        let dim = 6;
        let data = items(dim, 800, 5);
        let params = TreeParams::for_dim(dim, TreeVariant::RStar).unwrap();
        let tree = SpatialTree::bulk_load(params, data).unwrap();
        let disk = Arc::new(SimDisk::new(0));
        let handle = tree.persist(&disk).unwrap();
        let reads_before = disk.read_count();
        let _ = SpatialTree::load(&disk, handle).unwrap();
        assert!(disk.read_count() > reads_before, "load must read pages");
    }
}
