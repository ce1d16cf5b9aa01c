//! Range queries: window (rectangle) and sphere (ε-range) search.

use parsim_geometry::{kernel, HyperRect, Point};

use crate::knn::Neighbor;
use crate::node::{Node, NodeId};
use crate::tree::SpatialTree;

impl SpatialTree {
    /// Returns all points inside the closed query window.
    pub fn window_query(&self, window: &HyperRect) -> Vec<Neighbor> {
        assert_eq!(window.dim(), self.params().dim, "window dimension mismatch");
        let mut out = Vec::new();
        if !self.is_empty() {
            self.window_visit(self.root_id(), window, &mut out);
        }
        out
    }

    fn window_visit(&self, id: NodeId, window: &HyperRect, out: &mut Vec<Neighbor>) {
        self.charge_visit(id);
        match self.node(id) {
            Node::Leaf { entries, .. } => {
                for (i, (row, item)) in entries.iter().enumerate() {
                    if window.contains_coords(row) {
                        out.push(Neighbor {
                            item,
                            point: entries.point(i),
                            dist: 0.0,
                        });
                    }
                }
            }
            Node::Inner { entries, .. } => {
                for (lo, hi, child) in entries.iter() {
                    let mut axes = lo.iter().zip(hi).enumerate();
                    if axes.all(|(i, (&l, &h))| l <= window.hi(i) && window.lo(i) <= h) {
                        self.window_visit(child, window, out);
                    }
                }
            }
        }
    }

    /// Returns all points within Euclidean distance `radius` of `center`,
    /// sorted by ascending distance — a similarity ε-range query.
    pub fn range_query(&self, center: &Point, radius: f64) -> Vec<Neighbor> {
        assert_eq!(center.dim(), self.params().dim, "query dimension mismatch");
        assert!(radius >= 0.0, "radius must be non-negative");
        let mut out = Vec::new();
        if !self.is_empty() {
            self.range_visit(self.root_id(), center, radius * radius, &mut out);
        }
        out.sort_by(|a, b| a.dist.total_cmp(&b.dist));
        out
    }

    fn range_visit(&self, id: NodeId, center: &Point, r2: f64, out: &mut Vec<Neighbor>) {
        self.charge_visit(id);
        match self.node(id) {
            Node::Leaf { entries, .. } => {
                for (i, (row, item)) in entries.iter().enumerate() {
                    // Early abandon against the query radius. `Some(d2)`
                    // can still exceed `r2` (checkpoints sit at chunk
                    // boundaries only), so the exact test is re-applied.
                    if let Some(d2) = kernel::dist2_bounded(center.coords(), row, r2) {
                        if d2 <= r2 {
                            out.push(Neighbor {
                                item,
                                point: entries.point(i),
                                dist: d2.sqrt(),
                            });
                        }
                    }
                }
            }
            Node::Inner { entries, .. } => {
                let min_dists2 = entries.min_dists2(center.coords());
                for (min_dist2, &child) in min_dists2.zip(entries.children()) {
                    if min_dist2 <= r2 {
                        self.range_visit(child, center, r2, out);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{TreeParams, TreeVariant};
    use parsim_datagen::{DataGenerator, UniformGenerator};

    fn build(dim: usize, n: usize, seed: u64) -> (SpatialTree, Vec<Point>) {
        let pts = UniformGenerator::new(dim).generate(n, seed);
        let params = TreeParams::for_dim(dim, TreeVariant::xtree_default())
            .unwrap()
            .with_capacities(8, 8)
            .unwrap();
        let mut t = SpatialTree::new(params);
        for (i, p) in pts.iter().enumerate() {
            t.insert(p.clone(), i as u64).unwrap();
        }
        (t, pts)
    }

    #[test]
    fn window_query_matches_scan() {
        let (tree, pts) = build(4, 800, 1);
        let window = HyperRect::new(vec![0.2; 4], vec![0.7; 4]).unwrap();
        let mut got: Vec<u64> = tree.window_query(&window).iter().map(|n| n.item).collect();
        got.sort_unstable();
        let want: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| window.contains_point(p))
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn range_query_matches_scan() {
        let (tree, pts) = build(3, 600, 2);
        let center = Point::new(vec![0.5, 0.5, 0.5]).unwrap();
        let radius = 0.25;
        let mut got: Vec<u64> = tree
            .range_query(&center, radius)
            .iter()
            .map(|n| n.item)
            .collect();
        got.sort_unstable();
        let mut want: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist(&center) <= radius)
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn range_query_results_sorted() {
        let (tree, _) = build(5, 400, 3);
        let center = Point::new(vec![0.1; 5]).unwrap();
        let res = tree.range_query(&center, 0.8);
        assert!(res.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn empty_window_returns_nothing() {
        let (tree, _) = build(2, 100, 4);
        let window = HyperRect::new(vec![2.0, 2.0], vec![3.0, 3.0]).unwrap();
        assert!(tree.window_query(&window).is_empty());
        let center = Point::new(vec![5.0, 5.0]).unwrap();
        assert!(tree.range_query(&center, 0.1).is_empty());
    }

    #[test]
    fn zero_radius_finds_exact_matches_only() {
        let (tree, pts) = build(3, 200, 5);
        let res = tree.range_query(&pts[42], 0.0);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].item, 42);
    }
}
