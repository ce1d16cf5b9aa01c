//! Analytic cost model for nearest-neighbor search, after Berchtold,
//! Böhm, Keim & Kriegel \[BBKK 97\].
//!
//! The paper leans on its companion cost model: the NN-sphere around a
//! query grows rapidly with the dimension, so the number of pages any
//! sequential algorithm must access explodes (Figure 1 / Section 3.1).
//! This module makes that model executable against a concrete tree: the
//! expected number of *leaf* pages a k-NN query touches is the sum over
//! leaves of the probability that a uniformly placed query's NN-sphere
//! intersects the leaf's MBR,
//!
//! ```text
//! E[pages] = Σ_leaf vol( (MBR ⊕ [-r, r]^d) ∩ [0,1]^d )
//! ```
//!
//! with `r` the expected k-NN distance (sphere of volume `k/N`). The
//! Minkowski sum with the L2-ball is approximated per axis by the
//! enclosing box extension — an upper-bound flavor of the model that
//! reproduces the growth the paper reports.

use parsim_geometry::highdim::expected_knn_distance;
use parsim_geometry::HyperRect;
use parsim_index::node::Node;
use parsim_index::SpatialTree;

/// The model's prediction for one tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPrediction {
    /// Expected k-NN distance used as the sphere radius.
    pub radius: f64,
    /// Expected leaf pages accessed per query.
    pub expected_leaf_pages: f64,
    /// Total leaves in the tree (the upper bound).
    pub total_leaves: usize,
}

/// Probability that a uniform query's box-extended sphere hits `mbr`.
fn access_probability(mbr: &HyperRect, r: f64) -> f64 {
    let mut p = 1.0;
    for i in 0..mbr.dim() {
        let lo = (mbr.lo(i) - r).max(0.0);
        let hi = (mbr.hi(i) + r).min(1.0);
        p *= (hi - lo).max(0.0);
    }
    p
}

/// Predicts the expected number of leaf pages a k-NN query over uniform
/// data in `[0,1]^d` reads from this tree.
pub fn predict_leaf_accesses(tree: &SpatialTree, k: usize) -> CostPrediction {
    assert!(k >= 1, "k must be positive");
    let n = tree.len().max(1);
    let dim = tree.params().dim;
    let radius = expected_knn_distance(dim, n.max(k), k.min(n));
    let mut expected = 0.0;
    let mut total_leaves = 0usize;
    for node in tree.iter_nodes() {
        if let Node::Leaf { .. } = node {
            total_leaves += 1;
            if let Some(mbr) = node.mbr() {
                expected += access_probability(&mbr, radius);
            }
        }
    }
    CostPrediction {
        radius,
        expected_leaf_pages: expected.min(total_leaves as f64),
        total_leaves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_datagen::{DataGenerator, UniformGenerator};
    use parsim_geometry::Point;
    use parsim_index::{DiskSink, KnnAlgorithm, SpatialTree, TreeParams, TreeVariant};
    use parsim_storage::SimDisk;
    use std::sync::Arc;

    fn build(dim: usize, n: usize) -> (SpatialTree, Arc<SimDisk>) {
        let items: Vec<(Point, u64)> = UniformGenerator::new(dim)
            .generate(n, 3)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect();
        let disk = Arc::new(SimDisk::new(0));
        let params = TreeParams::for_dim(dim, TreeVariant::xtree_default()).unwrap();
        let tree = SpatialTree::bulk_load(params, items)
            .unwrap()
            .with_sink(Arc::new(DiskSink(Arc::clone(&disk))));
        (tree, disk)
    }

    /// Measured leaf accesses averaged over queries.
    fn measured(tree: &SpatialTree, disk: &SimDisk, dim: usize, k: usize) -> f64 {
        let queries = UniformGenerator::new(dim).generate(25, 11);
        let inner_nodes: u64 = tree.iter_nodes().filter(|n| !n.is_leaf()).count() as u64;
        let before = disk.read_count();
        for q in &queries {
            tree.knn(q, k, KnnAlgorithm::Hs);
        }
        let total = disk.read_count() - before;
        // Subtract a generous estimate of directory reads: at most every
        // inner node once per query.
        ((total as f64 / queries.len() as f64) - inner_nodes as f64).max(0.0)
    }

    #[test]
    fn model_predicts_growth_with_dimension() {
        let n = 10_000;
        let mut predictions = Vec::new();
        for dim in [4usize, 8, 12] {
            let (tree, _) = build(dim, n);
            let p = predict_leaf_accesses(&tree, 10);
            predictions.push(p.expected_leaf_pages / p.total_leaves as f64);
        }
        // The accessed fraction grows steeply with the dimension.
        assert!(predictions[1] > 2.0 * predictions[0], "{predictions:?}");
        assert!(predictions[2] > 1.5 * predictions[1], "{predictions:?}");
    }

    #[test]
    fn model_upper_bounds_and_tracks_measurement() {
        for dim in [6usize, 10] {
            let (tree, disk) = build(dim, 8_000);
            let predicted = predict_leaf_accesses(&tree, 10).expected_leaf_pages;
            let got = measured(&tree, &disk, dim, 10);
            // Box-extension makes the model an (approximate) upper bound;
            // it must be within the right order of magnitude.
            assert!(
                predicted >= 0.5 * got,
                "dim={dim}: predicted {predicted:.1} << measured {got:.1}"
            );
            assert!(
                predicted <= 30.0 * got.max(1.0),
                "dim={dim}: predicted {predicted:.1} >> measured {got:.1}"
            );
        }
    }

    #[test]
    fn radius_matches_highdim_model() {
        let (tree, _) = build(8, 5_000);
        let p1 = predict_leaf_accesses(&tree, 1);
        let p10 = predict_leaf_accesses(&tree, 10);
        assert!(p10.radius > p1.radius);
        assert!(p10.expected_leaf_pages >= p1.expected_leaf_pages);
        assert_eq!(p1.radius, expected_knn_distance(8, 5_000, 1));
    }

    #[test]
    fn prediction_never_exceeds_leaf_count() {
        let (tree, _) = build(14, 3_000); // huge radius regime
        let p = predict_leaf_accesses(&tree, 10);
        assert!(p.expected_leaf_pages <= p.total_leaves as f64 + 1e-9);
        assert!(p.expected_leaf_pages > 0.8 * p.total_leaves as f64);
    }
}
