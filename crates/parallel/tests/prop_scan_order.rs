//! Property tests of the energy scan order: an engine whose leaves are
//! laid out in stepwise-dimensionality-increasing (energy) order must
//! return bit-identical answers — distances and items — to a
//! natural-order engine on every scan tier, on clustered, correlated,
//! and uniform data, healthy and with a failed disk serving from
//! replicas, and across a live `reorganize()` swap. The permutation is
//! a certified filter: it may only change *how fast* rows are abandoned,
//! never what the search computes, so page traces and node-level
//! pruning counts must match too.

use proptest::prelude::*;

use parsim_datagen::{ClusteredGenerator, CorrelatedGenerator, DataGenerator, UniformGenerator};
use parsim_geometry::Point;
use parsim_parallel::{
    IngestConfig, ParallelKnnEngine, QueryOptions, QueryTrace, ScanOrder, ScanTier,
};

const DIM: usize = 6;
const DISKS: usize = 8;
const N: usize = 1200;

fn data(shape: u8, seed: u64, n: usize) -> Vec<Point> {
    match shape % 3 {
        0 => UniformGenerator::new(DIM).generate(n, seed),
        1 => ClusteredGenerator::new(DIM, 8, 0.05).generate(n, seed),
        _ => CorrelatedGenerator::new(DIM, 0.05).generate(n, seed),
    }
}

fn build(pts: &[Point], order: ScanOrder, replicas: usize) -> ParallelKnnEngine {
    ParallelKnnEngine::builder(DIM)
        .disks(DISKS)
        .replicas(replicas)
        .scan_order(order)
        .ingest(IngestConfig::new(64))
        .build(pts)
        .unwrap()
}

/// The order-invariant view of a trace: the permutation never changes
/// which nodes are visited or pruned, only how deep row scans run.
fn invariant(t: &QueryTrace) -> (Vec<u64>, u64) {
    (t.per_disk_pages.clone(), t.candidates_pruned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Healthy engines: energy layout answers bit-identically to natural
    /// layout on every tier, with identical page traces.
    #[test]
    fn energy_layout_is_bit_identical_on_every_tier(
        seed in any::<u64>(),
        shape in any::<u8>(),
        k in 1usize..=12,
    ) {
        let pts = data(shape, seed, N);
        let queries = data(shape, seed.wrapping_add(1), 6);
        let nat = build(&pts, ScanOrder::Natural, 0);
        let en = build(&pts, ScanOrder::Energy, 0);
        for q in &queries {
            for tier in [ScanTier::F64, ScanTier::F32, ScanTier::Q8] {
                let opts = QueryOptions::traced(k).with_tier(tier);
                let a = nat.query(q, &opts).unwrap();
                let b = en.query(q, &opts).unwrap();
                prop_assert_eq!(a.neighbors.len(), b.neighbors.len());
                for (x, y) in a.neighbors.iter().zip(&b.neighbors) {
                    prop_assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                    prop_assert_eq!(x.item, y.item);
                }
                let (t, u) = (a.trace.unwrap(), b.trace.unwrap());
                prop_assert_eq!(invariant(&t), invariant(&u));
            }
        }
    }

    /// Degraded engines (one hard-failed disk, replicas serving its
    /// buckets): failover on the energy layout stays bit-identical to
    /// failover on the natural layout.
    #[test]
    fn degraded_energy_layout_stays_exact(
        seed in any::<u64>(),
        shape in any::<u8>(),
        failed in 0usize..DISKS,
    ) {
        let pts = data(shape, seed, N);
        let queries = data(shape, seed.wrapping_add(1), 4);
        let nat = build(&pts, ScanOrder::Natural, 1);
        let en = build(&pts, ScanOrder::Energy, 1);
        nat.faults().fail(failed);
        en.faults().fail(failed);
        let opts = QueryOptions::traced(10).with_workers(1);
        for q in &queries {
            let a = nat.query_batch(std::slice::from_ref(q), &opts).unwrap().pop().unwrap();
            let b = en.query_batch(std::slice::from_ref(q), &opts).unwrap().pop().unwrap();
            prop_assert_eq!(&a.neighbors, &b.neighbors);
            let (t, u) = (a.trace.unwrap(), b.trace.unwrap());
            prop_assert_eq!(invariant(&t), invariant(&u));
            let (d, e) = (t.degraded.as_ref().unwrap(), u.degraded.as_ref().unwrap());
            prop_assert_eq!(&d.failed_over, &e.failed_over);
        }
    }

    /// A live `reorganize()` recomputes every per-leaf energy ordering;
    /// answers before and after the swap stay bit-identical to a natural
    /// engine that reorganized the same points.
    #[test]
    fn energy_layout_survives_a_live_reorganize(
        seed in any::<u64>(),
        shape in any::<u8>(),
    ) {
        let pts = data(shape, seed, N);
        let extra = data(shape, seed.wrapping_add(2), 40);
        let queries = data(shape, seed.wrapping_add(1), 4);
        let nat = build(&pts, ScanOrder::Natural, 0);
        let en = build(&pts, ScanOrder::Energy, 0);
        for p in &extra {
            nat.insert(p.clone()).unwrap();
            en.insert(p.clone()).unwrap();
        }
        nat.reorganize().unwrap();
        en.reorganize().unwrap();
        prop_assert_eq!(nat.len(), en.len());
        for q in &queries {
            for tier in [ScanTier::F64, ScanTier::F32, ScanTier::Q8] {
                let opts = QueryOptions::traced(10).with_tier(tier).with_workers(1);
                let a = nat.query_batch(std::slice::from_ref(q), &opts).unwrap().pop().unwrap();
                let b = en.query_batch(std::slice::from_ref(q), &opts).unwrap().pop().unwrap();
                for (x, y) in a.neighbors.iter().zip(&b.neighbors) {
                    prop_assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                    prop_assert_eq!(x.item, y.item);
                }
            }
        }
    }
}
