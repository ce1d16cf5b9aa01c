//! Tree configuration.

use parsim_storage::PAGE_SIZE;

use crate::IndexError;

/// Which index variant a [`crate::SpatialTree`] implements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TreeVariant {
    /// The classic R\*-tree \[BKSS 90\].
    RStar,
    /// The X-tree \[BKK 96\]: R\*-tree insertion plus overlap-controlled
    /// directory splits with supernode fallback.
    XTree {
        /// Maximum tolerated overlap fraction of a directory split: if the
        /// two halves of the best topological split overlap by more than
        /// this fraction of their combined volume, an overlap-minimal
        /// split is tried, and failing that a supernode is created. The
        /// X-tree paper determined 20 % to be a good threshold.
        max_overlap: f64,
    },
}

impl TreeVariant {
    /// The X-tree with its published default overlap threshold.
    pub fn xtree_default() -> Self {
        TreeVariant::XTree { max_overlap: 0.2 }
    }
}

/// A leaf scan layout, kept only so that existing callers still compile:
/// it is accepted everywhere and has no effect. Every leaf stores its rows
/// in their own coordinate order.
///
/// The energy layout (coordinates sorted by per-leaf variance, see
/// `DESIGN.md`, "Scan order") was removed because no measured workload ran
/// faster with it. The wall-clock benchmark (`benchmark/src/layers.rs`)
/// still names `ScanOrder::Energy`, `TreeParams::with_scan_order`, the
/// engine builder's `scan_order`, the engine config's `order` field and
/// the `order` argument of `forest_knn_traced_ordered`. Once a benchmark
/// change drops those calls, they go, and then this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScanOrder {
    /// The only layout (the default).
    #[default]
    Natural,
    /// Accepted and ignored: scans exactly like [`ScanOrder::Natural`].
    Energy,
}

/// Size and fan-out parameters of a tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Dimensionality of the indexed points.
    pub dim: usize,
    /// Index variant.
    pub variant: TreeVariant,
    /// Maximum entries per single-page leaf node.
    pub leaf_capacity: usize,
    /// Maximum entries per single-page directory node.
    pub inner_capacity: usize,
    /// Minimum fill as a fraction of capacity (the R\*-tree uses 40 %).
    pub min_fill: f64,
    /// Fraction of entries removed by a forced reinsert (R\*-tree: 30 %).
    pub reinsert_fraction: f64,
}

impl TreeParams {
    /// Derives page-realistic capacities for `dim`-dimensional points on
    /// 4 KB pages: a leaf entry stores the point (`8·dim` bytes) plus an
    /// item id (8 bytes); a directory entry stores an MBR (`16·dim` bytes)
    /// plus a child pointer (8 bytes).
    pub fn for_dim(dim: usize, variant: TreeVariant) -> Result<Self, IndexError> {
        if dim == 0 {
            return Err(IndexError::BadParams("dimension must be positive".into()));
        }
        let leaf_entry = 8 * dim + 8;
        let inner_entry = 16 * dim + 8;
        let leaf_capacity = (PAGE_SIZE / leaf_entry).max(4);
        let inner_capacity = (PAGE_SIZE / inner_entry).max(4);
        Ok(TreeParams {
            dim,
            variant,
            leaf_capacity,
            inner_capacity,
            min_fill: 0.4,
            reinsert_fraction: 0.3,
        })
    }

    /// Accepted and ignored (see [`ScanOrder`]); returns `self` unchanged.
    pub fn with_scan_order(self, _order: ScanOrder) -> Self {
        self
    }

    /// Overrides the capacities — used by tests that need tiny nodes.
    pub fn with_capacities(mut self, leaf: usize, inner: usize) -> Result<Self, IndexError> {
        if leaf < 2 || inner < 2 {
            return Err(IndexError::BadParams(
                "capacities must be at least 2".into(),
            ));
        }
        self.leaf_capacity = leaf;
        self.inner_capacity = inner;
        Ok(self)
    }

    /// Minimum entry count of a leaf node (except the root).
    pub fn leaf_min(&self) -> usize {
        ((self.leaf_capacity as f64 * self.min_fill) as usize).max(1)
    }

    /// Minimum entry count of a directory node (except the root).
    pub fn inner_min(&self) -> usize {
        ((self.inner_capacity as f64 * self.min_fill) as usize).max(1)
    }

    /// Number of entries a forced reinsert removes from an overflowing
    /// leaf.
    pub fn reinsert_count(&self) -> usize {
        ((self.leaf_capacity as f64 * self.reinsert_fraction) as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_scale_with_dimension() {
        let p2 = TreeParams::for_dim(2, TreeVariant::RStar).unwrap();
        let p16 = TreeParams::for_dim(16, TreeVariant::RStar).unwrap();
        assert!(p2.leaf_capacity > p16.leaf_capacity);
        assert!(p2.inner_capacity > p16.inner_capacity);
        // 16-d: leaf entry 136 bytes -> 30 entries; inner 264 -> 15.
        assert_eq!(p16.leaf_capacity, 30);
        assert_eq!(p16.inner_capacity, 15);
    }

    #[test]
    fn minimums_respect_min_fill() {
        let p = TreeParams::for_dim(8, TreeVariant::xtree_default()).unwrap();
        assert!(p.leaf_min() >= 1);
        assert!(p.leaf_min() as f64 <= p.leaf_capacity as f64 * 0.5);
        assert!(p.inner_min() >= 1);
    }

    #[test]
    fn rejects_bad_params() {
        assert!(TreeParams::for_dim(0, TreeVariant::RStar).is_err());
        let p = TreeParams::for_dim(4, TreeVariant::RStar).unwrap();
        assert!(p.with_capacities(1, 8).is_err());
        assert!(p.with_capacities(8, 1).is_err());
        assert!(p.with_capacities(4, 4).is_ok());
    }

    #[test]
    fn reinsert_count_is_thirty_percent() {
        let p = TreeParams::for_dim(4, TreeVariant::RStar)
            .unwrap()
            .with_capacities(10, 10)
            .unwrap();
        assert_eq!(p.reinsert_count(), 3);
    }
}
