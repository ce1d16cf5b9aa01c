//! Engine configuration.

use parsim_index::{KnnAlgorithm, ScanOrder, ScanTier, TreeVariant};
use parsim_storage::DiskModel;

/// How the quadrant split values are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// Split every dimension at 0.5 (Section 3.1; correct for uniform
    /// data).
    Midpoint,
    /// Split every dimension at the 0.5-quantile of the data (Section 4.3;
    /// required for skewed real data).
    #[default]
    DataMedian,
}

/// Configuration of a parallel (or sequential) engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Dimensionality of the feature vectors.
    pub dim: usize,
    /// Index variant of the per-disk trees (default: X-tree, as in the
    /// paper).
    pub variant: TreeVariant,
    /// k-NN algorithm (default: RKV, as in the paper).
    pub algorithm: KnnAlgorithm,
    /// Split-value strategy for bucket-based declustering.
    pub splits: SplitStrategy,
    /// Precision tier of the leaf scans (default:
    /// [`ScanTier::F64`] — pure f64, the paper's arithmetic). The cheap
    /// tiers return bit-identical answers; individual queries can override
    /// via [`crate::QueryOptions::with_tier`].
    pub tier: ScanTier,
    /// Accepted and ignored: every leaf has one layout (see
    /// [`ScanOrder`]). The benchmark still reads this field; once a
    /// benchmark change stops reading it, it goes.
    pub order: ScanOrder,
    /// Disk service-time model.
    pub disk_model: DiskModel,
}

impl EngineConfig {
    /// The configuration used by the paper's experiments: X-tree, RKV,
    /// data-median splits, 1997-era disks.
    pub fn paper_defaults(dim: usize) -> Self {
        EngineConfig {
            dim,
            variant: TreeVariant::xtree_default(),
            algorithm: KnnAlgorithm::Rkv,
            splits: SplitStrategy::DataMedian,
            tier: ScanTier::F64,
            order: ScanOrder::Natural,
            disk_model: DiskModel::hp_workstation_1997(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_paper() {
        let c = EngineConfig::paper_defaults(16);
        assert_eq!(c.dim, 16);
        assert_eq!(c.algorithm, KnnAlgorithm::Rkv);
        assert_eq!(c.splits, SplitStrategy::DataMedian);
        assert_eq!(c.tier, ScanTier::F64);
        assert_eq!(c.order, ScanOrder::Natural);
        assert!(matches!(c.variant, TreeVariant::XTree { .. }));
    }
}
