//! Ties at the k-th distance: when several rows share the k-th smallest
//! distance, the engine keeps the ones with the smallest ids, exactly as
//! `brute_force_knn` orders them (by distance, then id).
//!
//! Fourier descriptors of this draw put many rows at one tiny distance
//! from some held-out queries (query 14 has its 4th to 10th answers all
//! at 5.55e-17), so whichever tied row a leaf scan meets first would
//! otherwise stay in the answer.

use parsim_datagen::{DataGenerator, FourierGenerator};
use parsim_geometry::Point;
use parsim_index::knn::{brute_force_knn, Neighbor};
use parsim_index::KnnAlgorithm;
use parsim_parallel::ParallelKnnEngine;

const DIM: usize = 8;
const N: usize = 6000;
const QUERIES: usize = 16;
const DISKS: usize = 8;
const K: usize = 10;

fn check(algorithm: KnnAlgorithm) {
    // The same split as the approximate-tier experiment's Fourier set.
    let mut points = FourierGenerator::new(DIM).generate(N + QUERIES, 155);
    let queries: Vec<Point> = points.split_off(N);
    let data: Vec<(Point, u64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u64))
        .collect();
    let engine = ParallelKnnEngine::builder(DIM)
        .disks(DISKS)
        .algorithm(algorithm)
        .build(&points)
        .unwrap();
    for (qi, q) in queries.iter().enumerate() {
        let (got, _) = engine.knn(q, K).unwrap();
        let want = brute_force_knn(&data, q, K);
        let ids = |v: &[Neighbor]| v.iter().map(|n| n.item).collect::<Vec<_>>();
        assert_eq!(ids(&got), ids(&want), "{algorithm:?} query {qi}: ids");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                g.dist.to_bits(),
                w.dist.to_bits(),
                "{algorithm:?} query {qi}: distance of item {}",
                w.item
            );
        }
    }
}

#[test]
fn rkv_keeps_the_smallest_ids_among_tied_kth_neighbors() {
    check(KnnAlgorithm::Rkv);
}

#[test]
fn hs_keeps_the_smallest_ids_among_tied_kth_neighbors() {
    check(KnnAlgorithm::Hs);
}
