//! Merges rank on squared distance: two rows whose `dist2` differ but
//! whose `sqrt` rounds to one value must come back in `dist2` order, as
//! `brute_force_knn` returns them, not in id order.
//!
//! From the origin, `(2, 2⁻²⁵)` is at `dist2 = 4 + 2⁻⁵⁰` and `(2, 0)` at
//! `dist2 = 4`; both distances round to `2.0`. With the filler rows below,
//! the two rows land on different disks of a 2-disk HS engine, so only the
//! cross-disk merge can order them; in the second test the nearer row
//! waits in the delta buffer, so only the overlay merge can.

use parsim_geometry::Point;
use parsim_index::knn::{brute_force_knn, Neighbor};
use parsim_index::KnnAlgorithm;
use parsim_parallel::{IngestConfig, ParallelKnnEngine};

fn p(coords: &[f64]) -> Point {
    Point::new(coords.to_vec()).unwrap()
}

/// The farther row of the tied pair.
fn far() -> Point {
    p(&[2.0, 2f64.powi(-25)])
}

/// The nearer row of the tied pair.
fn near() -> Point {
    p(&[2.0, 0.0])
}

fn fillers() -> Vec<Point> {
    [[5.0, -1.0], [6.0, -1.0], [5.0, 1.0], [6.0, 1.0]]
        .iter()
        .map(|c| p(c))
        .collect()
}

fn ids(v: &[Neighbor]) -> Vec<u64> {
    v.iter().map(|n| n.item).collect()
}

#[test]
fn the_cross_disk_merge_ranks_by_squared_distance_under_a_sqrt_tie() {
    let origin = p(&[0.0, 0.0]);
    assert_eq!(far().dist(&origin), near().dist(&origin));
    let mut points = vec![far(), near()];
    points.extend(fillers());
    let data: Vec<(Point, u64)> = points.iter().cloned().zip(0..).collect();
    let want = brute_force_knn(&data, &origin, 1);
    assert_eq!(ids(&want), vec![1]);
    let engine = ParallelKnnEngine::builder(2)
        .disks(2)
        .algorithm(KnnAlgorithm::Hs)
        .build(&points)
        .unwrap();
    let (got, _) = engine.knn(&origin, 1).unwrap();
    assert_eq!(ids(&got), ids(&want));
    assert_eq!(got[0].dist.to_bits(), want[0].dist.to_bits());
}

#[test]
fn the_overlay_merge_ranks_by_squared_distance_under_a_sqrt_tie() {
    let origin = p(&[0.0, 0.0]);
    for algorithm in [KnnAlgorithm::Hs, KnnAlgorithm::Rkv] {
        let mut points = vec![far()];
        points.extend(fillers());
        let engine = ParallelKnnEngine::builder(2)
            .disks(2)
            .algorithm(algorithm)
            .ingest(IngestConfig::new(16))
            .build(&points)
            .unwrap();
        let id = engine.insert(near()).unwrap();
        assert_eq!(engine.delta_size(), 1);
        let mut data: Vec<(Point, u64)> = points.iter().cloned().zip(0..).collect();
        data.push((near(), id));
        let want = brute_force_knn(&data, &origin, 1);
        assert_eq!(ids(&want), vec![id]);
        let (got, _) = engine.knn(&origin, 1).unwrap();
        assert_eq!(ids(&got), ids(&want), "{algorithm:?}");
    }
}
