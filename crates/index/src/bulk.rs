//! Hilbert-sort bulk loading.
//!
//! Building a large tree by repeated insertion is `O(n log n)` page
//! touches with large constants (reinserts, splits). For experiment setup
//! we bulk load instead: points are sorted by their position on a
//! fine-grained d-dimensional Hilbert curve, packed into leaves at a
//! target fill, and the directory is built bottom-up. Hilbert ordering
//! keeps spatially close points in the same leaf, giving query performance
//! close to an insertion-built R\*-tree at a fraction of the build cost.

use parsim_geometry::Point;
use parsim_hilbert::HilbertCurve;

use crate::node::{InnerEntries, LeafEntries, LeafEntry, Node, NodeId};
use crate::params::TreeParams;
use crate::tree::SpatialTree;
use crate::IndexError;

/// Fraction of node capacity filled by the bulk loader. Less than 1.0 so
/// subsequent inserts do not immediately split every node.
const BULK_FILL: f64 = 0.75;

impl SpatialTree {
    /// Builds a tree from `items` in one pass (Hilbert-sort packing).
    pub fn bulk_load(
        params: TreeParams,
        items: Vec<(Point, u64)>,
    ) -> Result<SpatialTree, IndexError> {
        let (tree, _) = Self::bulk_load_grouped(params, vec![items])?;
        Ok(tree)
    }

    /// Builds a tree whose leaves respect group boundaries: each group's
    /// items are packed into leaves of their own (groups smaller than the
    /// leaf minimum are merged with the following group), so a group —
    /// e.g. a declustering bucket — maps onto whole leaf pages. Returns
    /// the tree and, per group, the ids of the leaves holding its items
    /// (a leaf merged from several tiny groups is attributed to the group
    /// of its first item).
    pub fn bulk_load_grouped(
        params: TreeParams,
        groups: Vec<Vec<(Point, u64)>>,
    ) -> Result<(SpatialTree, Vec<Vec<NodeId>>), IndexError> {
        for group in &groups {
            for (p, _) in group {
                if p.dim() != params.dim {
                    return Err(IndexError::DimensionMismatch {
                        expected: params.dim,
                        got: p.dim(),
                    });
                }
            }
        }
        let mut tree = SpatialTree::new(params);
        let group_count = groups.len();
        let n: usize = groups.iter().map(Vec::len).sum();
        tree.len = n;
        if n == 0 {
            return Ok((tree, vec![Vec::new(); group_count]));
        }

        // Sort each group along the Hilbert curve for spatial locality.
        let order = (128 / params.dim as u32).clamp(1, 16);
        let curve =
            HilbertCurve::new(params.dim, order).expect("order chosen to satisfy the bit budget");
        let side = curve.side() as f64;
        let key = |p: &Point| -> u128 {
            let coords: Vec<u64> = p
                .iter()
                .map(|&c| ((c.clamp(0.0, 1.0) * side) as u64).min(curve.side() - 1))
                .collect();
            curve.encode(&coords)
        };

        // Build "runs" of leaf entries: one run per group, except that
        // groups too small to fill a minimal leaf are merged forward.
        let leaf_min = tree.params.leaf_min();
        let mut runs: Vec<(usize, Vec<LeafEntry>)> = Vec::new(); // (first group, entries)
        let mut pending: Vec<LeafEntry> = Vec::new();
        let mut pending_group = 0usize;
        for (gi, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let mut sorted: Vec<(u128, Point, u64)> = group
                .into_iter()
                .map(|(p, item)| (key(&p), p, item))
                .collect();
            sorted.sort_by_key(|(key, _, _)| *key);
            if pending.is_empty() {
                pending_group = gi;
            }
            pending.extend(
                sorted
                    .into_iter()
                    .map(|(_, point, item)| LeafEntry { point, item }),
            );
            if pending.len() >= leaf_min {
                runs.push((pending_group, std::mem::take(&mut pending)));
            }
        }
        if !pending.is_empty() {
            match runs.last_mut() {
                Some((_, last)) => last.append(&mut pending),
                None => runs.push((pending_group, std::mem::take(&mut pending))),
            }
        }

        // Pack each run into leaves; chunk sizes are distributed evenly so
        // no node violates the min-fill invariant.
        let leaf_target = ((tree.params.leaf_capacity as f64 * BULK_FILL) as usize).max(1);
        // The (MBR, node) list of the level being packed, itself one slab.
        let mut level = InnerEntries::new(tree.params.dim);
        let mut group_leaves: Vec<Vec<NodeId>> = vec![Vec::new(); group_count];
        for (gi, run) in runs {
            let sizes = even_chunks(run.len(), leaf_min, leaf_target, tree.params.leaf_capacity);
            let mut iter = run.into_iter();
            for size in sizes {
                let chunk: Vec<LeafEntry> = iter.by_ref().take(size).collect();
                let node = Node::Leaf {
                    entries: LeafEntries::from_entries(tree.params.dim, chunk),
                    pages: 1,
                };
                let mbr = node.mbr().expect("chunk is non-empty");
                let id = tree.alloc(node);
                group_leaves[gi].push(id);
                level.push(&mbr, id);
            }
        }

        // Build the directory bottom-up.
        let mut height = 1usize;
        while level.len() > 1 {
            let sizes = even_chunks(
                level.len(),
                tree.params.inner_min(),
                ((tree.params.inner_capacity as f64 * BULK_FILL) as usize).max(2),
                tree.params.inner_capacity,
            );
            let mut next = InnerEntries::with_capacity(tree.params.dim, sizes.len());
            let mut start = 0;
            for size in sizes {
                let node = Node::Inner {
                    entries: level.range(start..start + size),
                    pages: 1,
                    split_dims: 0,
                };
                start += size;
                let mbr = node.mbr().expect("chunk is non-empty");
                let id = tree.alloc(node);
                next.push(&mbr, id);
            }
            level = next;
            height += 1;
        }

        // Install the root: the single remaining entry's child replaces the
        // empty bootstrap leaf.
        tree.nodes[tree.root.0 as usize] = None;
        tree.free.push(tree.root);
        tree.root = level.child(0);
        tree.height = height;
        tree.bounds = Some(level.mbr(0));
        Ok((tree, group_leaves))
    }
}

/// Splits `n` items into chunks that are as close to `target` as possible
/// while every chunk stays within `[min, capacity]`. A single chunk (which
/// becomes the root) may be smaller than `min`.
fn even_chunks(n: usize, min: usize, target: usize, capacity: usize) -> Vec<usize> {
    debug_assert!(min <= target && target <= capacity);
    if n <= target {
        return vec![n];
    }
    // Prefer the chunk count implied by the target fill, but adjust it so
    // that the even share stays within [min, capacity].
    let mut k = n.div_ceil(target);
    let min_k = n.div_ceil(capacity); // fewest chunks that still fit
    let max_k = (n / min.max(1)).max(1); // most chunks that respect min
    k = k.clamp(min_k, max_k.max(min_k));
    let base = n / k;
    let extra = n % k;
    (0..k)
        .map(|i| if i < extra { base + 1 } else { base })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::{brute_force_knn, KnnAlgorithm};
    use crate::params::TreeVariant;
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
    fn bulk_load_validates() {
        let params = TreeParams::for_dim(6, TreeVariant::xtree_default()).unwrap();
        let tree = SpatialTree::bulk_load(params, items(6, 5000, 1)).unwrap();
        assert_eq!(tree.len(), 5000);
        tree.validate();
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let params = TreeParams::for_dim(3, TreeVariant::RStar).unwrap();
        let tree = SpatialTree::bulk_load(params, vec![]).unwrap();
        assert!(tree.is_empty());
        tree.validate();

        let params = TreeParams::for_dim(3, TreeVariant::RStar).unwrap();
        let one = items(3, 1, 2);
        let tree = SpatialTree::bulk_load(params, one).unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 1);
        tree.validate();
    }

    #[test]
    fn bulk_loaded_tree_answers_knn_exactly() {
        let data = items(8, 2000, 3);
        let params = TreeParams::for_dim(8, TreeVariant::xtree_default()).unwrap();
        let tree = SpatialTree::bulk_load(params, data.clone()).unwrap();
        for q in UniformGenerator::new(8).generate(15, 99) {
            let got = tree.knn(&q, 10, KnnAlgorithm::Hs);
            let want = brute_force_knn(&data, &q, 10);
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g.dist - w.dist).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn bulk_load_supports_subsequent_inserts_and_deletes() {
        let data = items(4, 1000, 4);
        let params = TreeParams::for_dim(4, TreeVariant::RStar).unwrap();
        let mut tree = SpatialTree::bulk_load(params, data.clone()).unwrap();
        let extra = UniformGenerator::new(4).generate(200, 5);
        for (i, p) in extra.iter().enumerate() {
            tree.insert(p.clone(), 10_000 + i as u64).unwrap();
        }
        assert_eq!(tree.len(), 1200);
        tree.validate();
        for (p, id) in data.iter().take(100) {
            tree.delete(p, *id).unwrap();
        }
        assert_eq!(tree.len(), 1100);
        tree.validate();
    }

    #[test]
    fn bulk_load_rejects_mixed_dimensions() {
        let params = TreeParams::for_dim(3, TreeVariant::RStar).unwrap();
        let bad = vec![(Point::new(vec![0.1, 0.2]).unwrap(), 0)];
        assert!(matches!(
            SpatialTree::bulk_load(params, bad),
            Err(IndexError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn hilbert_packing_gives_local_leaves() {
        // Bulk-loaded leaves should have much smaller average volume than
        // random groupings — a proxy for good packing quality.
        let data = items(2, 4000, 6);
        let params = TreeParams::for_dim(2, TreeVariant::RStar).unwrap();
        let tree = SpatialTree::bulk_load(params, data).unwrap();
        let stats = tree.stats();
        assert!(stats.leaf_fill > 0.6, "fill {}", stats.leaf_fill);
        // Average leaf MBR area must be near the ideal n_leaf/Nth of the
        // space; allow generous slack.
        let mut total_area = 0.0;
        let mut leaves = 0usize;
        for node in tree.iter_nodes() {
            if node.is_leaf() {
                if let Some(mbr) = node.mbr() {
                    total_area += mbr.volume();
                    leaves += 1;
                }
            }
        }
        let avg = total_area / leaves as f64;
        assert!(
            avg < 4.0 / leaves as f64,
            "avg leaf area {avg} vs {}",
            1.0 / leaves as f64
        );
    }
}
