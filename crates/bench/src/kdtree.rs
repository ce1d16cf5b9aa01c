//! The bucket-adaptive k-d-tree of Friedman, Bentley and Finkel \[FBF 77\].
//!
//! Section 2 of the paper reviews this as the practical partitioning
//! algorithm for nearest-neighbor search: the data space is split
//! recursively at the median of the spread-maximizing coordinate until
//! buckets of at most `b` points remain; the search descends to the
//! query's bucket and backtracks, visiting a sibling subtree only if the
//! current ball overlaps its region (the *bounds-overlap-ball* test) and
//! terminating when the ball lies within the region
//! (*ball-within-bounds*).
//!
//! The implementation counts visited buckets (one page each, charged to an
//! optional [`SimDisk`]); the `ext5` experiment uses it to reproduce the
//! paper's point that *all* partitioning structures degenerate in high
//! dimensions, which is what motivates parallelism.

use std::sync::Arc;

use parsim_geometry::Point;
use parsim_index::Neighbor;
use parsim_storage::SimDisk;

/// A static bucket k-d-tree over a point set.
///
/// ```
/// use parsim_geometry::Point;
/// use parsim_bench::kdtree::KdTree;
///
/// let items = vec![
///     (Point::new(vec![0.1, 0.1]).unwrap(), 0),
///     (Point::new(vec![0.9, 0.9]).unwrap(), 1),
///     (Point::new(vec![0.2, 0.15]).unwrap(), 2),
/// ];
/// let tree = KdTree::build(items, 2);
/// let q = Point::new(vec![0.0, 0.0]).unwrap();
/// assert_eq!(tree.knn(&q, 1)[0].item, 0);
/// ```
pub struct KdTree {
    dim: usize,
    nodes: Vec<KdNode>,
    root: usize,
    len: usize,
    disk: Option<Arc<SimDisk>>,
}

enum KdNode {
    Split {
        axis: usize,
        value: f64,
        left: usize,
        right: usize,
    },
    Bucket {
        entries: Vec<(Point, u64)>,
    },
}

impl KdTree {
    /// Builds the tree with buckets of at most `bucket_size` points,
    /// splitting at the median of the axis with the largest spread (the
    /// FBF "adapted" rule).
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty, dimensionalities are mixed, or
    /// `bucket_size == 0`.
    pub fn build(mut items: Vec<(Point, u64)>, bucket_size: usize) -> Self {
        assert!(!items.is_empty(), "empty data set");
        assert!(bucket_size > 0, "bucket size must be positive");
        let dim = items[0].0.dim();
        assert!(
            items.iter().all(|(p, _)| p.dim() == dim),
            "mixed dimensionalities"
        );
        let len = items.len();
        let mut tree = KdTree {
            dim,
            nodes: Vec::new(),
            root: 0,
            len,
            disk: None,
        };
        tree.root = tree.build_node(&mut items, bucket_size);
        tree
    }

    /// Attaches a simulated disk; every visited bucket charges one page.
    pub fn with_disk(mut self, disk: Arc<SimDisk>) -> Self {
        self.disk = Some(disk);
        self
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no points are indexed (never after `build`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of buckets (the unit the FBF cost analysis counts).
    pub fn bucket_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, KdNode::Bucket { .. }))
            .count()
    }

    fn build_node(&mut self, items: &mut [(Point, u64)], bucket_size: usize) -> usize {
        if items.len() <= bucket_size {
            let id = self.nodes.len();
            self.nodes.push(KdNode::Bucket {
                entries: items.to_vec(),
            });
            return id;
        }
        // Axis of largest spread.
        let mut best_axis = 0;
        let mut best_spread = -1.0;
        for axis in 0..self.dim {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for (p, _) in items.iter() {
                lo = lo.min(p[axis]);
                hi = hi.max(p[axis]);
            }
            if hi - lo > best_spread {
                best_spread = hi - lo;
                best_axis = axis;
            }
        }
        // Median split on that axis.
        let mid = items.len() / 2;
        items.select_nth_unstable_by(mid, |a, b| {
            a.0[best_axis]
                .partial_cmp(&b.0[best_axis])
                .expect("finite coordinates")
        });
        let value = items[mid].0[best_axis];
        let (left_items, right_items) = items.split_at_mut(mid);
        // Degenerate case: all coordinates equal on the chosen axis (and
        // hence, with spread 0 being the max, on every axis) — bucket it.
        if left_items.is_empty() || best_spread == 0.0 {
            let id = self.nodes.len();
            self.nodes.push(KdNode::Bucket {
                entries: left_items
                    .iter()
                    .chain(right_items.iter())
                    .cloned()
                    .collect(),
            });
            return id;
        }
        let left = self.build_node(left_items, bucket_size);
        let right = self.build_node(right_items, bucket_size);
        let id = self.nodes.len();
        self.nodes.push(KdNode::Split {
            axis: best_axis,
            value,
            left,
            right,
        });
        id
    }

    /// Finds the `k` nearest neighbors, sorted ascending.
    pub fn knn(&self, query: &Point, k: usize) -> Vec<Neighbor> {
        assert_eq!(query.dim(), self.dim, "query dimension mismatch");
        if k == 0 {
            return Vec::new();
        }
        // Max-heap of the k best (dist2, item index into a side vec).
        let mut best: Vec<(f64, u64, Point)> = Vec::with_capacity(k + 1);
        self.search(self.root, query, k, &mut best);
        best.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite distances")
                .then(a.1.cmp(&b.1))
        });
        best.into_iter()
            .map(|(d2, item, point)| Neighbor {
                item,
                point,
                dist: d2.sqrt(),
            })
            .collect()
    }

    fn worst(&self, best: &[(f64, u64, Point)], k: usize) -> f64 {
        if best.len() < k {
            f64::INFINITY
        } else {
            best.iter().map(|b| b.0).fold(0.0, f64::max)
        }
    }

    fn search(&self, node: usize, query: &Point, k: usize, best: &mut Vec<(f64, u64, Point)>) {
        match &self.nodes[node] {
            KdNode::Bucket { entries } => {
                if let Some(disk) = &self.disk {
                    disk.touch_read(1);
                }
                for (p, item) in entries {
                    let d2 = p.dist2(query);
                    if best.len() < k {
                        best.push((d2, *item, p.clone()));
                    } else if d2 < self.worst(best, k) {
                        // Replace the current worst.
                        let worst_idx = best
                            .iter()
                            .enumerate()
                            .max_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("finite distances"))
                            .map(|(i, _)| i)
                            .expect("non-empty best list");
                        best[worst_idx] = (d2, *item, p.clone());
                    }
                }
            }
            KdNode::Split {
                axis,
                value,
                left,
                right,
            } => {
                let diff = query[*axis] - value;
                let (near, far) = if diff < 0.0 {
                    (*left, *right)
                } else {
                    (*right, *left)
                };
                self.search(near, query, k, best);
                // Bounds-overlap-ball: the sibling region can only contain
                // a closer point if the ball crosses the split plane.
                if diff * diff <= self.worst(best, k) {
                    self.search(far, query, k, best);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_datagen::{DataGenerator, UniformGenerator};
    use parsim_index::knn::brute_force_knn;

    fn items(dim: usize, n: usize, seed: u64) -> Vec<(Point, u64)> {
        UniformGenerator::new(dim)
            .generate(n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect()
    }

    #[test]
    fn knn_matches_brute_force() {
        for dim in [2usize, 5, 10] {
            let data = items(dim, 1200, 1);
            let tree = KdTree::build(data.clone(), 16);
            for q in UniformGenerator::new(dim).generate(10, 2) {
                let got = tree.knn(&q, 8);
                let want = brute_force_knn(&data, &q, 8);
                for (g, w) in got.iter().zip(want.iter()) {
                    assert!((g.dist - w.dist).abs() < 1e-12, "dim = {dim}");
                }
            }
        }
    }

    #[test]
    fn k_larger_than_n_returns_everything() {
        let data = items(3, 7, 3);
        let tree = KdTree::build(data, 2);
        let q = Point::new(vec![0.5; 3]).unwrap();
        assert_eq!(tree.knn(&q, 100).len(), 7);
        assert!(tree.knn(&q, 0).is_empty());
    }

    #[test]
    fn buckets_respect_size() {
        let data = items(4, 500, 4);
        let tree = KdTree::build(data, 10);
        assert!(tree.bucket_count() >= 500 / 10);
        assert_eq!(tree.len(), 500);
    }

    #[test]
    fn duplicate_points_do_not_recurse_forever() {
        let p = Point::new(vec![0.5, 0.5]).unwrap();
        let data: Vec<(Point, u64)> = (0..100).map(|i| (p.clone(), i)).collect();
        let tree = KdTree::build(data, 4);
        let res = tree.knn(&p, 5);
        assert_eq!(res.len(), 5);
        assert!(res.iter().all(|nb| nb.dist == 0.0));
    }

    #[test]
    fn page_accounting_grows_with_dimension() {
        // The FBF algorithm degenerates with dimension (the paper's
        // Section 2 point): visited buckets per query rise steeply.
        let mut visited = Vec::new();
        let mut buckets = Vec::new();
        for dim in [2usize, 8, 14] {
            let disk = Arc::new(SimDisk::new(0));
            let tree = KdTree::build(items(dim, 4000, 5), 20).with_disk(Arc::clone(&disk));
            buckets.push(tree.bucket_count() as f64);
            for q in UniformGenerator::new(dim).generate(10, 6) {
                tree.knn(&q, 10);
            }
            visited.push(disk.read_count() as f64 / 10.0);
        }
        // Low-d: a handful of buckets; d=8: most of the tree; d=14: nearly
        // every bucket every query — the degeneration of Section 2.
        assert!(visited[1] > 3.0 * visited[0], "{visited:?}");
        assert!(visited[2] > 0.9 * buckets[2], "{visited:?} of {buckets:?}");
    }
}
