//! Metric-generic search.
//!
//! The paper (like most feature-vector literature) works in the Euclidean
//! metric, which the hot paths of [`crate::knn`] hard-code for speed. Some
//! feature domains prefer other metrics — e.g. L1 for color histograms —
//! and the HS best-first algorithm and range search are correct for *any*
//! metric whose `MINDIST` lower-bounds the point distances inside a
//! rectangle ([`Metric::min_dist_rect`]). This module provides those
//! generic variants. (RKV's MINMAXDIST pruning is Euclidean-specific and
//! deliberately not generalized.)

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use parsim_geometry::{Metric, Point};

use crate::knn::Neighbor;
use crate::node::{Node, NodeId};
use crate::tree::SpatialTree;

struct Entry {
    key: f64,
    kind: Kind,
}

enum Kind {
    Node(NodeId),
    Point(NodeId, usize),
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.total_cmp(&self.key).then_with(|| {
            let rank = |k: &Kind| match k {
                Kind::Point(..) => 0,
                Kind::Node(..) => 1,
            };
            rank(&other.kind).cmp(&rank(&self.kind))
        })
    }
}

impl SpatialTree {
    /// k-NN under an arbitrary metric (best-first search). Exact for any
    /// metric whose rectangle bound is a true lower bound.
    pub fn knn_metric<M: Metric>(&self, query: &Point, k: usize, metric: &M) -> Vec<Neighbor> {
        assert_eq!(query.dim(), self.params().dim, "query dimension mismatch");
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        let mut queue: BinaryHeap<Entry> = BinaryHeap::new();
        queue.push(Entry {
            key: 0.0,
            kind: Kind::Node(self.root_id()),
        });
        let mut out = Vec::with_capacity(k);
        while let Some(entry) = queue.pop() {
            match entry.kind {
                Kind::Node(id) => {
                    self.charge_visit(id);
                    match self.node(id) {
                        Node::Leaf { entries, .. } => {
                            for (i, (row, _)) in entries.iter().enumerate() {
                                queue.push(Entry {
                                    key: metric.dist_cmp_coords(query.coords(), row),
                                    kind: Kind::Point(id, i),
                                });
                            }
                        }
                        Node::Inner { entries, .. } => {
                            for i in 0..entries.len() {
                                queue.push(Entry {
                                    key: metric.min_dist_rect(query, &entries.mbr(i)),
                                    kind: Kind::Node(entries.child(i)),
                                });
                            }
                        }
                    }
                }
                Kind::Point(leaf, idx) => {
                    if let Node::Leaf { entries, .. } = self.node(leaf) {
                        out.push(Neighbor {
                            item: entries.item(idx),
                            point: entries.point(idx),
                            dist: metric.cmp_to_dist(entry.key),
                        });
                        if out.len() == k {
                            break;
                        }
                    }
                }
            }
        }
        out
    }

    /// ε-range query under an arbitrary metric, sorted by distance.
    pub fn range_query_metric<M: Metric>(
        &self,
        center: &Point,
        radius: f64,
        metric: &M,
    ) -> Vec<Neighbor> {
        assert_eq!(center.dim(), self.params().dim, "query dimension mismatch");
        assert!(radius >= 0.0, "radius must be non-negative");
        let mut out = Vec::new();
        if !self.is_empty() {
            let bound = metric.dist_to_cmp(radius);
            self.range_metric_visit(self.root_id(), center, bound, metric, &mut out);
        }
        out.sort_by(|a, b| a.dist.total_cmp(&b.dist));
        out
    }

    fn range_metric_visit<M: Metric>(
        &self,
        id: NodeId,
        center: &Point,
        bound: f64,
        metric: &M,
        out: &mut Vec<Neighbor>,
    ) {
        self.charge_visit(id);
        match self.node(id) {
            Node::Leaf { entries, .. } => {
                for (i, (row, item)) in entries.iter().enumerate() {
                    // Early abandon against the radius; `Some` may still
                    // exceed the bound, so the exact test is re-applied.
                    if let Some(c) = metric.dist_cmp_coords_bounded(center.coords(), row, bound) {
                        if c <= bound {
                            out.push(Neighbor {
                                item,
                                point: entries.point(i),
                                dist: metric.cmp_to_dist(c),
                            });
                        }
                    }
                }
            }
            Node::Inner { entries, .. } => {
                for i in 0..entries.len() {
                    if metric.min_dist_rect(center, &entries.mbr(i)) <= bound {
                        self.range_metric_visit(entries.child(i), center, bound, metric, out);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::KnnAlgorithm;
    use crate::params::{TreeParams, TreeVariant};
    use parsim_datagen::{DataGenerator, UniformGenerator};
    use parsim_geometry::{Chebyshev, Euclidean, Manhattan};

    fn build(dim: usize, n: usize) -> (SpatialTree, Vec<Point>) {
        let pts = UniformGenerator::new(dim).generate(n, 7);
        let items: Vec<(Point, u64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u64))
            .collect();
        let params = TreeParams::for_dim(dim, TreeVariant::xtree_default())
            .unwrap()
            .with_capacities(8, 8)
            .unwrap();
        (SpatialTree::bulk_load(params, items).unwrap(), pts)
    }

    fn brute<M: Metric>(pts: &[Point], q: &Point, k: usize, metric: &M) -> Vec<f64> {
        let mut d: Vec<f64> = pts.iter().map(|p| metric.dist(p, q)).collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        d.truncate(k);
        d
    }

    #[test]
    fn euclidean_matches_dedicated_path() {
        let (tree, _) = build(5, 600);
        let q = Point::new(vec![0.4; 5]).unwrap();
        let generic = tree.knn_metric(&q, 10, &Euclidean);
        let dedicated = tree.knn(&q, 10, KnnAlgorithm::Hs);
        for (g, d) in generic.iter().zip(dedicated.iter()) {
            assert!((g.dist - d.dist).abs() < 1e-12);
        }
    }

    #[test]
    fn manhattan_knn_is_exact() {
        let (tree, pts) = build(4, 800);
        let q = Point::new(vec![0.3, 0.7, 0.1, 0.9]).unwrap();
        let got = tree.knn_metric(&q, 15, &Manhattan);
        let want = brute(&pts, &q, 15, &Manhattan);
        assert_eq!(got.len(), 15);
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.dist - w).abs() < 1e-12);
        }
    }

    #[test]
    fn chebyshev_knn_is_exact() {
        let (tree, pts) = build(6, 700);
        let q = Point::new(vec![0.5; 6]).unwrap();
        let got = tree.knn_metric(&q, 8, &Chebyshev);
        let want = brute(&pts, &q, 8, &Chebyshev);
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.dist - w).abs() < 1e-12);
        }
    }

    #[test]
    fn metric_range_matches_scan() {
        let (tree, pts) = build(3, 500);
        let q = Point::new(vec![0.5; 3]).unwrap();
        for radius in [0.1, 0.3, 0.6] {
            let got = tree.range_query_metric(&q, radius, &Manhattan);
            let want = pts
                .iter()
                .filter(|p| Manhattan.dist(p, &q) <= radius)
                .count();
            assert_eq!(got.len(), want, "radius {radius}");
            assert!(got.windows(2).all(|w| w[0].dist <= w[1].dist));
        }
    }

    #[test]
    fn results_ordered_under_all_metrics() {
        let (tree, _) = build(4, 400);
        let q = Point::new(vec![0.2, 0.4, 0.6, 0.8]).unwrap();
        let e = tree.knn_metric(&q, 30, &Euclidean);
        let m = tree.knn_metric(&q, 30, &Manhattan);
        let c = tree.knn_metric(&q, 30, &Chebyshev);
        for res in [&e, &m, &c] {
            assert!(res.windows(2).all(|w| w[0].dist <= w[1].dist));
        }
        // Different metrics generally disagree on the neighbor set.
        let ids = |v: &[Neighbor]| v.iter().map(|n| n.item).collect::<Vec<_>>();
        assert!(ids(&e) != ids(&m) || ids(&m) != ids(&c));
    }
}
