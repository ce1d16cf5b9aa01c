//! Incremental (distance-browsing) nearest-neighbor search.
//!
//! The real strength of the Hjaltason/Samet algorithm \[HS 95\] is that it
//! does not need `k` in advance: neighbors can be *browsed* in increasing
//! distance order, stopping whenever the consumer has seen enough — e.g.
//! "give me similar images until the user stops scrolling". The iterator
//! maintains the global priority queue lazily; asking for `k` results
//! costs exactly the same page accesses as a k-NN query, and asking for
//! one more neighbor resumes where the search stopped.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use parsim_geometry::{kernel, Point};

use crate::knn::Neighbor;
use crate::node::{Node, NodeId};
use crate::tree::SpatialTree;

/// A lazy stream of neighbors in ascending distance order.
///
/// Created by [`SpatialTree::nn_iter`] (single tree) or
/// [`incremental_forest`] (several trees with a shared queue). Implements
/// [`Iterator`]; each `next()` pops the queue until the closest pending
/// entry is a data point, charging page visits along the way.
pub struct NnIterator<'a> {
    trees: Vec<&'a SpatialTree>,
    queue: BinaryHeap<Entry>,
    query: Point,
    yielded: usize,
}

struct Entry {
    dist2: f64,
    kind: Kind,
}

enum Kind {
    Node(usize, NodeId),
    Point(usize, NodeId, usize),
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.dist2 == other.dist2
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
        // Min-heap by distance; points surface before nodes on ties.
        other.dist2.total_cmp(&self.dist2).then_with(|| {
            let rank = |k: &Kind| match k {
                Kind::Point(..) => 0,
                Kind::Node(..) => 1,
            };
            rank(&other.kind).cmp(&rank(&self.kind))
        })
    }
}

impl SpatialTree {
    /// Starts an incremental nearest-neighbor scan from `query`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn nn_iter(&self, query: &Point) -> NnIterator<'_> {
        incremental_forest(vec![self], query)
    }
}

/// Starts an incremental scan over several trees with one shared queue —
/// the browsing form of the parallel search.
pub fn incremental_forest<'a>(trees: Vec<&'a SpatialTree>, query: &Point) -> NnIterator<'a> {
    for t in &trees {
        assert_eq!(t.params().dim, query.dim(), "query dimension mismatch");
    }
    let mut queue = BinaryHeap::new();
    for (ti, tree) in trees.iter().enumerate() {
        if !tree.is_empty() {
            let d = tree
                .bounds()
                .map(|b| b.min_dist2(query))
                .unwrap_or(f64::INFINITY);
            queue.push(Entry {
                dist2: d,
                kind: Kind::Node(ti, tree.root_id()),
            });
        }
    }
    NnIterator {
        trees,
        queue,
        query: query.clone(),
        yielded: 0,
    }
}

impl NnIterator<'_> {
    /// Number of neighbors produced so far.
    pub fn yielded(&self) -> usize {
        self.yielded
    }

    /// A lower bound on the distance of the *next* neighbor, without
    /// advancing the iterator — useful for "stop when the next match is
    /// worse than ε" loops.
    pub fn next_distance_bound(&self) -> Option<f64> {
        self.queue.peek().map(|e| e.dist2.sqrt())
    }
}

impl Iterator for NnIterator<'_> {
    type Item = Neighbor;

    fn next(&mut self) -> Option<Neighbor> {
        while let Some(entry) = self.queue.pop() {
            match entry.kind {
                Kind::Node(ti, id) => {
                    let tree = self.trees[ti];
                    tree.charge_visit(id);
                    match tree.node(id) {
                        Node::Leaf { entries, .. } => {
                            for (i, (row, _)) in entries.iter().enumerate() {
                                self.queue.push(Entry {
                                    dist2: kernel::dist2(self.query.coords(), row),
                                    kind: Kind::Point(ti, id, i),
                                });
                            }
                        }
                        Node::Inner { entries, .. } => {
                            let min_dists2 = entries.min_dists2(self.query.coords());
                            for (dist2, &child) in min_dists2.zip(entries.children()) {
                                self.queue.push(Entry {
                                    dist2,
                                    kind: Kind::Node(ti, child),
                                });
                            }
                        }
                    }
                }
                Kind::Point(ti, leaf, idx) => {
                    if let Node::Leaf { entries, .. } = self.trees[ti].node(leaf) {
                        self.yielded += 1;
                        return Some(Neighbor {
                            item: entries.item(idx),
                            point: entries.point(idx),
                            dist: entry.dist2.sqrt(),
                        });
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::{brute_force_knn, KnnAlgorithm};
    use crate::params::{TreeParams, TreeVariant};
    use parsim_datagen::{DataGenerator, UniformGenerator};

    fn build(dim: usize, n: usize, seed: u64) -> (SpatialTree, Vec<(Point, u64)>) {
        let items: Vec<(Point, u64)> = UniformGenerator::new(dim)
            .generate(n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect();
        let params = TreeParams::for_dim(dim, TreeVariant::xtree_default()).unwrap();
        let tree = SpatialTree::bulk_load(params, items.clone()).unwrap();
        (tree, items)
    }

    #[test]
    fn iterator_yields_ascending_distances() {
        let (tree, _) = build(6, 1000, 1);
        let q = Point::new(vec![0.3; 6]).unwrap();
        let dists: Vec<f64> = tree.nn_iter(&q).take(50).map(|n| n.dist).collect();
        assert_eq!(dists.len(), 50);
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn iterator_matches_knn_prefix() {
        let (tree, items) = build(5, 800, 2);
        let q = Point::new(vec![0.7, 0.1, 0.5, 0.9, 0.2]).unwrap();
        let want = brute_force_knn(&items, &q, 25);
        let got: Vec<Neighbor> = tree.nn_iter(&q).take(25).collect();
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.dist - w.dist).abs() < 1e-12);
        }
    }

    #[test]
    fn iterator_exhausts_to_full_dataset() {
        let (tree, items) = build(3, 200, 3);
        let q = Point::new(vec![0.5; 3]).unwrap();
        let all: Vec<Neighbor> = tree.nn_iter(&q).collect();
        assert_eq!(all.len(), items.len());
        let mut ids: Vec<u64> = all.iter().map(|n| n.item).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..items.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn distance_bound_is_a_lower_bound() {
        let (tree, _) = build(4, 500, 4);
        let q = Point::new(vec![0.1; 4]).unwrap();
        let mut it = tree.nn_iter(&q);
        for _ in 0..30 {
            let bound = it.next_distance_bound().unwrap();
            let actual = it.next().unwrap().dist;
            assert!(bound <= actual + 1e-12, "bound {bound} > actual {actual}");
        }
        assert_eq!(it.yielded(), 30);
    }

    #[test]
    fn incremental_pays_same_pages_as_knn() {
        use parsim_storage::SimDisk;
        use std::sync::Arc;
        let dim = 8;
        let items: Vec<(Point, u64)> = UniformGenerator::new(dim)
            .generate(3000, 5)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect();
        let q = Point::new(vec![0.4; dim]).unwrap();

        let pages = |use_iter: bool| -> u64 {
            let disk = Arc::new(SimDisk::new(0));
            let params = TreeParams::for_dim(dim, TreeVariant::xtree_default()).unwrap();
            let tree = SpatialTree::bulk_load(params, items.clone())
                .unwrap()
                .with_disk(Arc::clone(&disk));
            if use_iter {
                let _: Vec<Neighbor> = tree.nn_iter(&q).take(10).collect();
            } else {
                tree.knn(&q, 10, KnnAlgorithm::Hs);
            }
            disk.read_count()
        };
        assert_eq!(pages(true), pages(false));
    }

    #[test]
    fn forest_iterator_merges_trees() {
        let (t1, mut items) = build(4, 300, 6);
        let (_unused, items2) = build(4, 300, 7);
        items.extend(items2.iter().map(|(p, id)| (p.clone(), *id + 10_000)));
        // Rebuild t2 with shifted ids to distinguish.
        let params = TreeParams::for_dim(4, TreeVariant::xtree_default()).unwrap();
        let t2 = SpatialTree::bulk_load(
            params,
            items2.into_iter().map(|(p, id)| (p, id + 10_000)).collect(),
        )
        .unwrap();
        let q = Point::new(vec![0.6; 4]).unwrap();
        let want = brute_force_knn(&items, &q, 40);
        let got: Vec<Neighbor> = incremental_forest(vec![&t1, &t2], &q).take(40).collect();
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.dist - w.dist).abs() < 1e-12);
        }
    }
}
