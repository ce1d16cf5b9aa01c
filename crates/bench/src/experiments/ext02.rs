//! Extension experiment 2: the \[BBKK 97\] cost model against measurement.
//!
//! The paper's argument for parallelism rests on its companion cost model:
//! the expected number of pages a sequential NN query reads explodes with
//! the dimension. Here the executable model
//! ([`crate::costmodel::predict_leaf_accesses`]) is compared against measured
//! leaf accesses of the simulator across dimensions.

use std::sync::Arc;

use parsim_datagen::{DataGenerator, UniformGenerator};
use parsim_geometry::Point;
use parsim_index::{DiskSink, KnnAlgorithm, SpatialTree, TreeParams, TreeVariant};
use parsim_storage::SimDisk;

use crate::costmodel::predict_leaf_accesses;
use crate::report::{fmt, ExperimentReport};

use super::common::{scaled, uniform_queries};

/// Runs the experiment: model vs measured leaf accesses, 10-NN, uniform
/// data.
pub fn run(scale: f64) -> ExperimentReport {
    let n = scaled(20_000, scale);
    let k = 10;
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for dim in [4usize, 6, 8, 10, 12, 14] {
        let items: Vec<(Point, u64)> = UniformGenerator::new(dim)
            .generate(n, 191)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect();
        let disk = Arc::new(SimDisk::new(0));
        let params = TreeParams::for_dim(dim, TreeVariant::xtree_default()).expect("valid dim");
        let tree = SpatialTree::bulk_load(params, items)
            .expect("bulk load")
            .with_sink(Arc::new(DiskSink(Arc::clone(&disk))));

        let prediction = predict_leaf_accesses(&tree, k);
        let queries = uniform_queries(dim, 20, 1901);
        let inner_nodes = tree.iter_nodes().filter(|nd| !nd.is_leaf()).count() as f64;
        let before = disk.read_count();
        for q in &queries {
            tree.knn(q, k, KnnAlgorithm::Hs);
        }
        let measured =
            ((disk.read_count() - before) as f64 / queries.len() as f64 - inner_nodes).max(0.0);
        let ratio = prediction.expected_leaf_pages / measured.max(1.0);
        ratios.push(ratio);
        rows.push(vec![
            dim.to_string(),
            fmt(prediction.radius, 3),
            fmt(prediction.expected_leaf_pages, 1),
            fmt(measured, 1),
            fmt(ratio, 2),
        ]);
    }
    ExperimentReport {
        id: "ext2",
        title: "EXTENSION — BBKK97-style cost model vs simulator measurement",
        paper: "the companion cost model predicts rapidly growing page accesses with dimension (basis of Figure 1 and Section 3.1)",
        headers: vec![
            "dim".into(),
            "NN-sphere radius".into(),
            "model leaf pages".into(),
            "measured leaf pages".into(),
            "model/measured".into(),
        ],
        rows,
        notes: vec![format!(
            "the box-extension model over-estimates by design (it encloses the sphere) but stays \
             within a factor of {:.1} while both grow by orders of magnitude across dimensions",
            ratios.iter().copied().fold(0.0f64, f64::max)
        )],
    }
}
