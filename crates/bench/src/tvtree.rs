//! A TV-style telescope-vector index (simplified TV-tree).
//!
//! The paper's introduction names two structures "specifically developed
//! for indexing high-dimensional data": the TV-tree \[LJF 94\] and the
//! X-tree. The TV-tree's idea is to describe regions by **telescope
//! vectors**: only the first `α` *active* dimensions of the
//! (energy-ordered) feature vector participate in a node's region, so
//! directory entries stay small and the fan-out high — which works
//! precisely when the feature transform concentrates energy in the leading
//! dimensions (as Fourier descriptors do).
//!
//! This implementation is a faithful *simplification*: regions are L2
//! balls over a fixed `α`-dimensional prefix after a variance-descending
//! dimension reordering (the original telescopes α adaptively and uses
//! more elaborate splits). The search is nevertheless **exact** for the
//! full-dimensional Euclidean metric, because ignoring trailing dimensions
//! can only shrink distances:
//!
//! ```text
//! MINDIST(q, node) = max(0, ‖q[..α] − center‖ − radius) ≤ ‖q − p‖
//! ```
//!
//! for every point `p` in the subtree. The `ext5` narrative applies: with
//! energy-concentrating data a small `α` prunes well; on uniform data the
//! prefix carries `α/d` of the distance and pruning fades — the "limited
//! performance improvements for nearest-neighbor queries" the paper
//! reports for this structure family.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use parsim_geometry::Point;
use parsim_index::Neighbor;
use parsim_storage::SimDisk;

/// A simplified TV-tree.
pub struct TvTree {
    dim: usize,
    alpha: usize,
    capacity: usize,
    /// Dimension permutation, variance-descending.
    order: Vec<usize>,
    nodes: Vec<TvNode>,
    root: usize,
    len: usize,
    disk: Option<Arc<SimDisk>>,
}

struct Ball {
    /// Center in the reordered α-dimensional prefix space.
    center: Vec<f64>,
    radius: f64,
}

enum TvNode {
    Inner { balls: Vec<(Ball, usize)> },
    Leaf { entries: Vec<(Point, u64)> },
}

impl TvTree {
    /// Builds the tree by insertion with `alpha` active dimensions and
    /// node capacity `capacity`.
    ///
    /// # Panics
    ///
    /// Panics on an empty set, mixed dimensionalities, `alpha == 0` or
    /// `capacity < 2`.
    pub fn build(items: Vec<(Point, u64)>, alpha: usize, capacity: usize) -> Self {
        assert!(!items.is_empty(), "empty data set");
        assert!(alpha > 0, "alpha must be positive");
        assert!(capacity >= 2, "capacity must be at least 2");
        let dim = items[0].0.dim();
        assert!(
            items.iter().all(|(p, _)| p.dim() == dim),
            "mixed dimensionalities"
        );
        let alpha = alpha.min(dim);

        // Variance-descending dimension ordering (the stand-in for the
        // TV-tree's assumption of an energy-concentrating transform).
        let n = items.len() as f64;
        let mut stats = vec![(0.0f64, 0.0f64); dim]; // (sum, sumsq)
        for (p, _) in &items {
            for (i, &c) in p.iter().enumerate() {
                stats[i].0 += c;
                stats[i].1 += c * c;
            }
        }
        let mut order: Vec<usize> = (0..dim).collect();
        let variance = |i: usize| -> f64 { stats[i].1 / n - (stats[i].0 / n) * (stats[i].0 / n) };
        order.sort_by(|&a, &b| {
            variance(b)
                .partial_cmp(&variance(a))
                .expect("finite variances")
        });

        let mut tree = TvTree {
            dim,
            alpha,
            capacity,
            order,
            nodes: vec![TvNode::Leaf {
                entries: Vec::new(),
            }],
            root: 0,
            len: 0,
            disk: None,
        };
        for (p, item) in items {
            tree.insert(p, item);
        }
        tree
    }

    /// Attaches a simulated disk; every visited node charges one page.
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

    /// The active-dimension count.
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// Projects a point into the reordered α-prefix space.
    fn project(&self, p: &Point) -> Vec<f64> {
        self.order[..self.alpha].iter().map(|&i| p[i]).collect()
    }

    fn prefix_dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    fn insert(&mut self, p: Point, item: u64) {
        let proj = self.project(&p);
        let mut path = Vec::new();
        let mut current = self.root;
        loop {
            match &self.nodes[current] {
                TvNode::Leaf { .. } => break,
                TvNode::Inner { balls } => {
                    // Closest center wins; its ball grows to cover.
                    let (bi, _) = balls
                        .iter()
                        .enumerate()
                        .map(|(i, (b, _))| (i, Self::prefix_dist(&b.center, &proj)))
                        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                        .expect("inner nodes are non-empty");
                    path.push((current, bi));
                    let child = {
                        let TvNode::Inner { balls } = &mut self.nodes[current] else {
                            unreachable!()
                        };
                        let (ball, child) = &mut balls[bi];
                        let d = Self::prefix_dist(&ball.center, &proj);
                        if d > ball.radius {
                            ball.radius = d;
                        }
                        *child
                    };
                    current = child;
                }
            }
        }
        let TvNode::Leaf { entries } = &mut self.nodes[current] else {
            unreachable!()
        };
        entries.push((p, item));
        self.len += 1;
        if entries.len() > self.capacity {
            self.split(current, path);
        }
    }

    /// Splits an overflowing node by the farthest pair of its (projected)
    /// members, assigning each member to the nearer seed.
    fn split(&mut self, node: usize, mut path: Vec<(usize, usize)>) {
        {
            // Collect projected members of the overflowing node.
            let (proj, is_leaf) = match &self.nodes[node] {
                TvNode::Leaf { entries } => (
                    entries
                        .iter()
                        .map(|(p, _)| self.project(p))
                        .collect::<Vec<_>>(),
                    true,
                ),
                TvNode::Inner { balls } => {
                    (balls.iter().map(|(b, _)| b.center.clone()).collect(), false)
                }
            };
            // Farthest pair (linear scan from an extreme point is fine).
            let far_from = |from: usize| -> usize {
                proj.iter()
                    .enumerate()
                    .max_by(|a, b| {
                        Self::prefix_dist(a.1, &proj[from])
                            .partial_cmp(&Self::prefix_dist(b.1, &proj[from]))
                            .expect("finite")
                    })
                    .map(|(i, _)| i)
                    .expect("non-empty")
            };
            let s1 = far_from(0);
            let s2 = far_from(s1);
            let assignment: Vec<bool> = proj
                .iter()
                .map(|v| Self::prefix_dist(v, &proj[s1]) <= Self::prefix_dist(v, &proj[s2]))
                .collect();
            // Guard degenerate all-one-side assignments (identical points).
            let left_count = assignment.iter().filter(|&&a| a).count();
            let assignment = if left_count == 0 || left_count == proj.len() {
                (0..proj.len()).map(|i| i % 2 == 0).collect()
            } else {
                assignment
            };

            let (left_id, right_id) = if is_leaf {
                let TvNode::Leaf { entries } = &mut self.nodes[node] else {
                    unreachable!()
                };
                let moved = std::mem::take(entries);
                let (l, r): (Vec<_>, Vec<_>) = moved
                    .into_iter()
                    .zip(assignment.iter())
                    .partition(|(_, &a)| a);
                let l: Vec<(Point, u64)> = l.into_iter().map(|(e, _)| e).collect();
                let r: Vec<(Point, u64)> = r.into_iter().map(|(e, _)| e).collect();
                self.nodes[node] = TvNode::Leaf { entries: l };
                self.nodes.push(TvNode::Leaf { entries: r });
                (node, self.nodes.len() - 1)
            } else {
                let TvNode::Inner { balls } = &mut self.nodes[node] else {
                    unreachable!()
                };
                let moved = std::mem::take(balls);
                let (l, r): (Vec<_>, Vec<_>) = moved
                    .into_iter()
                    .zip(assignment.iter())
                    .partition(|(_, &a)| a);
                let l: Vec<(Ball, usize)> = l.into_iter().map(|(e, _)| e).collect();
                let r: Vec<(Ball, usize)> = r.into_iter().map(|(e, _)| e).collect();
                self.nodes[node] = TvNode::Inner { balls: l };
                self.nodes.push(TvNode::Inner { balls: r });
                (node, self.nodes.len() - 1)
            };

            let left_ball = self.bounding_ball(left_id);
            let right_ball = self.bounding_ball(right_id);

            if let Some((parent, idx)) = path.pop() {
                let TvNode::Inner { balls } = &mut self.nodes[parent] else {
                    unreachable!()
                };
                balls[idx] = (left_ball, left_id);
                balls.push((right_ball, right_id));
                if balls.len() > self.capacity {
                    // Propagate the overflow upward.
                    self.split(parent, path);
                }
            } else {
                // Root split.
                self.nodes.push(TvNode::Inner {
                    balls: vec![(left_ball, left_id), (right_ball, right_id)],
                });
                self.root = self.nodes.len() - 1;
            }
        }
    }

    /// Smallest prefix ball (centroid-centered) covering a node's members.
    fn bounding_ball(&self, node: usize) -> Ball {
        let members: Vec<Vec<f64>> = match &self.nodes[node] {
            TvNode::Leaf { entries } => entries.iter().map(|(p, _)| self.project(p)).collect(),
            TvNode::Inner { balls } => balls.iter().map(|(b, _)| b.center.clone()).collect(),
        };
        let m = members.len() as f64;
        let mut center = vec![0.0; self.alpha];
        for v in &members {
            for (c, x) in center.iter_mut().zip(v) {
                *c += x;
            }
        }
        for c in &mut center {
            *c /= m;
        }
        let radius = match &self.nodes[node] {
            TvNode::Leaf { .. } => members
                .iter()
                .map(|v| Self::prefix_dist(v, &center))
                .fold(0.0, f64::max),
            TvNode::Inner { balls } => balls
                .iter()
                .map(|(b, _)| Self::prefix_dist(&b.center, &center) + b.radius)
                .fold(0.0, f64::max),
        };
        Ball { center, radius }
    }

    /// Exact k-NN (full-dimensional Euclidean) via best-first search with
    /// the telescope lower bound.
    pub fn knn(&self, query: &Point, k: usize) -> Vec<Neighbor> {
        assert_eq!(query.dim(), self.dim, "query dimension mismatch");
        if k == 0 || self.len == 0 {
            return Vec::new();
        }
        let qproj = self.project(query);

        #[derive(PartialEq)]
        struct Cand(f64, usize);
        impl Eq for Cand {}
        impl PartialOrd for Cand {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Cand {
            fn cmp(&self, other: &Self) -> Ordering {
                other.0.partial_cmp(&self.0).expect("finite distances")
            }
        }

        let mut queue = BinaryHeap::new();
        queue.push(Cand(0.0, self.root));
        let mut best: Vec<(f64, u64, Point)> = Vec::new(); // true dist
        let worst = |best: &Vec<(f64, u64, Point)>| -> f64 {
            if best.len() < k {
                f64::INFINITY
            } else {
                best.iter().map(|b| b.0).fold(0.0, f64::max)
            }
        };
        while let Some(Cand(bound, node)) = queue.pop() {
            if bound > worst(&best) {
                break;
            }
            if let Some(disk) = &self.disk {
                disk.touch_read(1);
            }
            match &self.nodes[node] {
                TvNode::Leaf { entries } => {
                    for (p, item) in entries {
                        let d = p.dist(query);
                        if best.len() < k {
                            best.push((d, *item, p.clone()));
                        } else if d < worst(&best) {
                            let wi = best
                                .iter()
                                .enumerate()
                                .max_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("finite"))
                                .map(|(i, _)| i)
                                .expect("non-empty");
                            best[wi] = (d, *item, p.clone());
                        }
                    }
                }
                TvNode::Inner { balls } => {
                    for (ball, child) in balls {
                        let d = (Self::prefix_dist(&ball.center, &qproj) - ball.radius).max(0.0);
                        if d <= worst(&best) {
                            queue.push(Cand(d, *child));
                        }
                    }
                }
            }
        }
        best.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite distances")
                .then(a.1.cmp(&b.1))
        });
        best.into_iter()
            .map(|(dist, item, point)| Neighbor { item, point, dist })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_datagen::{DataGenerator, FourierGenerator, UniformGenerator};
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
    fn knn_is_exact_for_any_alpha() {
        let dim = 8;
        let data = items(dim, 1200, 1);
        for alpha in [1usize, 3, 8] {
            let tree = TvTree::build(data.clone(), alpha, 16);
            assert_eq!(tree.len(), 1200);
            for q in UniformGenerator::new(dim).generate(8, 2) {
                let got = tree.knn(&q, 7);
                let want = brute_force_knn(&data, &q, 7);
                for (g, w) in got.iter().zip(want.iter()) {
                    assert!((g.dist - w.dist).abs() < 1e-12, "alpha = {alpha}");
                }
            }
        }
    }

    #[test]
    fn telescope_prunes_on_energy_concentrated_data() {
        // Fourier descriptors concentrate energy in the low harmonics;
        // with alpha = 4 of 16 dimensions the TV search over Fourier data
        // (with a data-distributed query, as in similarity retrieval) must
        // visit a far smaller fraction of its nodes than the same search
        // over uniform data, where the prefix carries only 4/16 of the
        // distance.
        let dim = 16;
        let n = 4000;
        let visited_fraction = |mut data: Vec<(Point, u64)>| -> f64 {
            let (q, _) = data.pop().expect("non-empty");
            let total = data.len() as f64;
            let disk = Arc::new(SimDisk::new(0));
            let tree = TvTree::build(data, 4, 16).with_disk(Arc::clone(&disk));
            tree.knn(&q, 10);
            // Nodes visited relative to leaf count (~ total/capacity).
            disk.read_count() as f64 / (total / 16.0)
        };
        let fourier: Vec<(Point, u64)> = FourierGenerator::new(dim)
            .generate(n + 1, 3)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect();
        let uniform = items(dim, n + 1, 3);
        let f = visited_fraction(fourier);
        let u = visited_fraction(uniform);
        assert!(
            f * 2.0 < u,
            "fourier visited {f:.2}x leaves, uniform {u:.2}x"
        );
    }

    #[test]
    fn duplicates_and_small_sets() {
        let p = Point::new(vec![0.4; 5]).unwrap();
        let data: Vec<(Point, u64)> = (0..40).map(|i| (p.clone(), i)).collect();
        let tree = TvTree::build(data, 2, 4);
        let res = tree.knn(&p, 6);
        assert_eq!(res.len(), 6);
        assert!(res.iter().all(|nb| nb.dist == 0.0));
        assert!(tree.knn(&p, 0).is_empty());
    }

    #[test]
    fn alpha_is_capped_to_dim() {
        let data = items(3, 50, 4);
        let tree = TvTree::build(data, 99, 8);
        assert_eq!(tree.alpha(), 3);
    }

    #[test]
    fn k_exceeding_n_returns_all() {
        let data = items(4, 9, 5);
        let tree = TvTree::build(data, 2, 4);
        let q = Point::new(vec![0.5; 4]).unwrap();
        assert_eq!(tree.knn(&q, 50).len(), 9);
    }
}
