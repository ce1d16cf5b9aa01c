//! Extension experiment 5: the Section-2 survey quantified — every
//! sequential partitioning structure degenerates with the dimension.
//!
//! Section 2 reviews Welch's bucketing grid \[Wel 71\] ("not efficient for
//! high-dimensional data"), the FBF k-d-tree \[FBF 77\], and the
//! R-tree-family indexes, and concludes with \[BBKK 97\] that
//! high-dimensional NN search is inherently expensive — "we believe that
//! the use of parallelism is crucial". This experiment runs one 10-NN
//! workload against each structure across dimensions and reports the
//! fraction of partitions (cells / buckets / leaf pages) each visits.

use std::sync::Arc;

use parsim_datagen::{DataGenerator, UniformGenerator};
use parsim_geometry::Point;
use parsim_index::{KnnAlgorithm, SpatialTree, TreeParams, TreeVariant};
use parsim_storage::SimDisk;

use crate::gridfile::{self, GridFile};
use crate::kdtree::KdTree;
use crate::report::{fmt, ExperimentReport};
use crate::tvtree::TvTree;

use super::common::{scaled, uniform_queries};

/// Runs the experiment over d = 2..16 with a fixed database size.
pub fn run(scale: f64) -> ExperimentReport {
    let n = scaled(20_000, scale);
    let k = 10;
    let queries_n = 10;
    let mut rows = Vec::new();
    let mut xtree_fracs = Vec::new();
    for dim in [2usize, 4, 8, 12, 16] {
        let items: Vec<(Point, u64)> = UniformGenerator::new(dim)
            .generate(n, 231)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect();
        let queries = uniform_queries(dim, queries_n, 2301);

        // Welch grid: the finest grid the cell budget allows (≥ 2/axis).
        let side = (2usize..=64)
            .rev()
            .find(|s| (*s as u128).pow(dim as u32) <= gridfile::MAX_CELLS as u128)
            .unwrap_or(2);
        let grid_disk = Arc::new(SimDisk::new(0));
        let grid = GridFile::build(items.clone(), side)
            .expect("side chosen within budget")
            .with_disk(Arc::clone(&grid_disk));
        for q in &queries {
            grid.knn(q, k);
        }
        let grid_frac = grid_disk.read_count() as f64 / queries_n as f64 / grid.cell_count() as f64;

        // FBF k-d-tree, 20-point buckets.
        let kd_disk = Arc::new(SimDisk::new(0));
        let kd = KdTree::build(items.clone(), 20).with_disk(Arc::clone(&kd_disk));
        for q in &queries {
            kd.knn(q, k);
        }
        let kd_frac = kd_disk.read_count() as f64 / queries_n as f64 / kd.bucket_count() as f64;

        // TV-style telescope tree, alpha = d/4 active dimensions.
        let tv_disk = Arc::new(SimDisk::new(0));
        let tv = TvTree::build(items.clone(), (dim / 4).max(1), 20).with_disk(Arc::clone(&tv_disk));
        for q in &queries {
            tv.knn(q, k);
        }
        let tv_nodes = (n as f64 / 20.0).max(1.0); // ~ leaf count
        let tv_frac = tv_disk.read_count() as f64 / queries_n as f64 / tv_nodes;

        // X-tree (leaf pages only, directory excluded as elsewhere).
        let x_disk = Arc::new(SimDisk::new(0));
        let params = TreeParams::for_dim(dim, TreeVariant::xtree_default()).expect("valid dim");
        let xtree = SpatialTree::bulk_load(params, items)
            .expect("bulk load")
            .with_disk(Arc::clone(&x_disk));
        let leaves = xtree.stats().leaves as f64;
        let inner = xtree.stats().inner as f64;
        for q in &queries {
            xtree.knn(q, k, KnnAlgorithm::Rkv);
        }
        let x_frac = ((x_disk.read_count() as f64 / queries_n as f64) - inner).max(0.0) / leaves;
        xtree_fracs.push(x_frac);

        rows.push(vec![
            dim.to_string(),
            format!("{side}^{dim}"),
            fmt(grid_frac * 100.0, 2),
            fmt(kd_frac * 100.0, 1),
            fmt((tv_frac * 100.0).min(100.0), 1),
            fmt(x_frac * 100.0, 1),
        ]);
    }
    ExperimentReport {
        id: "ext5",
        title: "EXTENSION — sequential NN structures degenerate with dimension (Section 2)",
        paper: "Welch's grid is 'not efficient for high-dimensional data'; the k-d-tree and even the X-tree read ever-larger fractions of their partitions; parallelism is the way out",
        headers: vec![
            "dim".into(),
            "grid".into(),
            "grid cells visited (%)".into(),
            "kd buckets visited (%)".into(),
            "tv nodes visited (%)".into(),
            "x-tree leaves visited (%)".into(),
        ],
        rows,
        notes: vec![format!(
            "the X-tree's visited-leaf fraction climbs from {:.1}% (d=2) to {:.1}% (d=16): no \
             sequential structure escapes, motivating the paper's parallel design",
            xtree_fracs.first().copied().unwrap_or(0.0) * 100.0,
            xtree_fracs.last().copied().unwrap_or(0.0) * 100.0
        )],
    }
}
