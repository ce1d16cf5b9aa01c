//! High-dimensional spatial indexes over simulated paged storage.
//!
//! The paper runs its parallel nearest-neighbor search on the **X-tree**
//! \[BKK 96\], an R\*-tree-based index that avoids directory degeneration
//! in high dimensions through an overlap-minimal split algorithm and
//! variable-sized directory nodes (*supernodes*). This crate implements
//!
//! * the full **R\*-tree** \[BKSS 90\] (least-overlap subtree choice,
//!   forced reinsertion, margin/overlap-driven split) as the baseline,
//! * the **X-tree** on top of it (split-history-guided overlap-free
//!   directory splits with supernode fallback),
//! * both classical k-NN algorithms: **RKV** (Roussopoulos et al., DFS
//!   branch-and-bound with MINDIST/MINMAXDIST pruning) and **HS**
//!   (Hjaltason & Samet, best-first incremental search),
//! * window and sphere **range queries**, deletion with tree condensation,
//!   and a Hilbert-sort **bulk loader**.
//!
//! Every node visit charges page reads to an optional
//! [`parsim_storage::SimDisk`], which is how the parallel engine measures
//! the paper's cost metric (pages read on the most-loaded disk). A
//! supernode of `p` pages charges `p` reads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bulk;
pub mod caching;
pub mod coalesce;
pub mod incremental;
pub mod knn;
pub mod lsh;
pub mod node;
pub mod params;
pub mod persist;
pub mod range;
pub mod stats;
pub mod tree;

pub use caching::{CachingSink, DEFAULT_CACHE_SHARDS};
pub use coalesce::CoalescingSink;
pub use incremental::{incremental_forest, NnIterator};
pub use knn::{
    forest_itinerary, forest_knn, forest_knn_traced, forest_knn_traced_ordered, ForestCursor,
    KnnAlgorithm, LeafScanner, Neighbor, ScanTier, SearchStats, SharedBound,
};
pub use lsh::{LshConfig, LshTables};
pub use node::energy_permutation;
pub use params::{ScanOrder, TreeParams, TreeVariant};
pub use persist::{PersistError, PersistedTree};
pub use stats::TreeStats;
pub use tree::{DiskSink, NodeSink, SpatialTree, VisitOutcome};

/// Errors produced by the index.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexError {
    /// A point of the wrong dimensionality was offered to the tree.
    DimensionMismatch {
        /// The tree's dimensionality.
        expected: usize,
        /// The point's dimensionality.
        got: usize,
    },
    /// The tree was constructed with unusable parameters.
    BadParams(String),
    /// A delete targeted a point that is not in the tree.
    NotFound,
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "dimension mismatch: tree is {expected}-d, point is {got}-d"
                )
            }
            IndexError::BadParams(msg) => write!(f, "bad tree parameters: {msg}"),
            IndexError::NotFound => write!(f, "point not found"),
        }
    }
}

impl std::error::Error for IndexError {}
