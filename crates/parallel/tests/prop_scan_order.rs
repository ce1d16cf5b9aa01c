//! `ScanOrder` is accepted and ignored: every leaf has one layout. An
//! engine built with `.scan_order(ScanOrder::Energy)` must return the same
//! answers and the same `QueryTrace` as a default engine, field for field
//! except `wall_time`, on every scan tier and on clustered, correlated
//! and uniform data. The property is checked healthy, with a failed disk
//! serving from replicas, and across a live `reorganize()`.

use std::time::Duration;

use proptest::prelude::*;

use parsim_datagen::{ClusteredGenerator, CorrelatedGenerator, DataGenerator, UniformGenerator};
use parsim_geometry::Point;
use parsim_parallel::{
    IngestConfig, ParallelKnnEngine, QueryOptions, QueryResult, ScanOrder, ScanTier,
};

const DIM: usize = 6;
const DISKS: usize = 8;
const N: usize = 1200;
const TIERS: [ScanTier; 3] = [ScanTier::F64, ScanTier::F32, ScanTier::Q8];

fn data(shape: u8, seed: u64, n: usize) -> Vec<Point> {
    match shape % 3 {
        0 => UniformGenerator::new(DIM).generate(n, seed),
        1 => ClusteredGenerator::new(DIM, 8, 0.05).generate(n, seed),
        _ => CorrelatedGenerator::new(DIM, 0.05).generate(n, seed),
    }
}

/// The default engine, and the same recipe with the energy order asked
/// for.
fn engines(pts: &[Point], replicas: usize) -> (ParallelKnnEngine, ParallelKnnEngine) {
    let builder = ParallelKnnEngine::builder(DIM)
        .disks(DISKS)
        .replicas(replicas)
        .ingest(IngestConfig::new(64));
    let default = builder.clone().build(pts).unwrap();
    let energy = builder.scan_order(ScanOrder::Energy).build(pts).unwrap();
    (default, energy)
}

/// One traced query through the single-worker batch path, so that the
/// trace's counters do not depend on thread timing.
fn query(e: &ParallelKnnEngine, q: &Point, tier: ScanTier) -> QueryResult {
    let opts = QueryOptions::traced(10).with_tier(tier).with_workers(1);
    e.query_batch(std::slice::from_ref(q), &opts)
        .unwrap()
        .pop()
        .unwrap()
}

/// The same neighbours and the same trace, `wall_time` aside.
fn assert_same(a: QueryResult, b: QueryResult) {
    assert_eq!(a.neighbors, b.neighbors);
    let (mut t, mut u) = (a.trace.unwrap(), b.trace.unwrap());
    t.wall_time = Duration::ZERO;
    u.wall_time = Duration::ZERO;
    assert_eq!(t, u);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn energy_layout_is_bit_identical_on_every_tier(seed in any::<u64>(), shape in any::<u8>()) {
        let pts = data(shape, seed, N);
        let (default, energy) = engines(&pts, 0);
        for q in &data(shape, seed.wrapping_add(1), 6) {
            for tier in TIERS {
                assert_same(query(&default, q, tier), query(&energy, q, tier));
            }
        }
    }

    #[test]
    fn degraded_energy_layout_stays_exact(
        seed in any::<u64>(),
        shape in any::<u8>(),
        failed in 0usize..DISKS,
    ) {
        let pts = data(shape, seed, N);
        let (default, energy) = engines(&pts, 1);
        default.faults().fail(failed);
        energy.faults().fail(failed);
        for q in &data(shape, seed.wrapping_add(1), 4) {
            for tier in TIERS {
                let (a, b) = (query(&default, q, tier), query(&energy, q, tier));
                prop_assert!(a.trace.as_ref().unwrap().degraded.is_some());
                assert_same(a, b);
            }
        }
    }

    #[test]
    fn energy_layout_survives_a_live_reorganize(seed in any::<u64>(), shape in any::<u8>()) {
        let pts = data(shape, seed, N);
        let (default, energy) = engines(&pts, 0);
        for p in &data(shape, seed.wrapping_add(2), 40) {
            default.insert(p.clone()).unwrap();
            energy.insert(p.clone()).unwrap();
        }
        default.reorganize().unwrap();
        energy.reorganize().unwrap();
        prop_assert_eq!(default.len(), energy.len());
        for q in &data(shape, seed.wrapping_add(1), 4) {
            for tier in TIERS {
                assert_same(query(&default, q, tier), query(&energy, q, tier));
            }
        }
    }
}
