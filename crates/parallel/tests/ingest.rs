//! Property and stress tests of streaming ingest: a live engine whose
//! writes flow through the delta overlay must answer every k-NN query
//! **bit-identically** to a from-scratch bulk load of the same logical
//! contents — while inserts and removes interleave with queries, with a
//! failed disk serving from replicas, and across a live shadow-rebuild
//! swap.

use proptest::prelude::*;

use parsim_datagen::{ClusteredGenerator, DataGenerator, UniformGenerator};
use parsim_geometry::Point;
use parsim_index::Neighbor;
use parsim_parallel::{EngineBuilder, IngestConfig, ParallelKnnEngine};

const DIM: usize = 6;
const DISKS: usize = 8;

/// Normalizes an answer for bit-exact comparison: `(dist bits, item)`,
/// sorted. Two exact engines may tie-break equal distances differently
/// only when distinct items are exactly equidistant; sorting by the pair
/// makes the comparison insensitive to that (and to nothing else).
fn normalized(neighbors: &[Neighbor]) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = neighbors
        .iter()
        .map(|nb| (nb.dist.to_bits(), nb.item))
        .collect();
    v.sort_unstable();
    v
}

/// Brute-force k smallest distances over `(point, id)` items.
fn brute_kth(items: &[(Point, u64)], q: &Point, k: usize) -> f64 {
    let mut dists: Vec<f64> = items.iter().map(|(p, _)| q.dist(p)).collect();
    dists.sort_by(f64::total_cmp);
    dists[k.min(dists.len()) - 1]
}

/// Replays a deterministic insert/remove stream against a live engine
/// while recording the logical contents, querying after every few ops.
/// Returns the final contents as `(point, id)` items.
fn churn(
    engine: &ParallelKnnEngine,
    initial: &[Point],
    stream: &[Point],
    queries: &[Point],
    k: usize,
) -> Vec<(Point, u64)> {
    let mut contents: Vec<(Point, u64)> = initial
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u64))
        .collect();
    for (i, p) in stream.iter().enumerate() {
        if i % 4 == 3 {
            // Remove the oldest surviving point (exercises both
            // buffered-insert removal and main-index tombstones).
            let (_, id) = contents.remove(i % contents.len());
            engine.remove(id).unwrap();
        } else {
            let id = engine.insert(p.clone()).unwrap();
            contents.push((p.clone(), id));
        }
        if i % 7 == 0 {
            let q = &queries[i % queries.len()];
            let (got, _) = engine.knn(q, k).unwrap();
            let reference: Vec<Neighbor> = {
                let fresh = EngineBuilder::new(DIM)
                    .disks(DISKS)
                    .build_with_items(contents.clone())
                    .unwrap();
                fresh.knn(q, k).unwrap().0
            };
            prop_assert_eq!(
                normalized(&got),
                normalized(&reference),
                "divergence after op {} of the stream",
                i
            );
        }
    }
    contents
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Healthy path: a live engine under insert/remove churn answers
    /// bit-identically to a from-scratch bulk load of the union, at
    /// every probe point and at quiescence — before and after a full
    /// reorganize.
    #[test]
    fn interleaved_writes_match_fresh_bulk_load(
        seed in any::<u64>(),
        k in 1usize..=10,
    ) {
        let initial = UniformGenerator::new(DIM).generate(600, seed);
        let stream = ClusteredGenerator::new(DIM, 4, 0.05).generate(120, seed ^ 1);
        let queries = UniformGenerator::new(DIM).generate(8, seed ^ 2);
        let engine = EngineBuilder::new(DIM)
            .disks(DISKS)
            .ingest(IngestConfig::new(4096))
            .build(&initial)
            .unwrap();

        let contents = churn(&engine, &initial, &stream, &queries, k);
        prop_assert_eq!(engine.len(), contents.len());

        let fresh = EngineBuilder::new(DIM)
            .disks(DISKS)
            .build_with_items(contents.clone())
            .unwrap();
        for q in &queries {
            let (got, _) = engine.knn(q, k).unwrap();
            let (want, _) = fresh.knn(q, k).unwrap();
            prop_assert_eq!(normalized(&got), normalized(&want));
        }

        // Reorganize drains the delta; answers must not move by a bit.
        engine.reorganize().unwrap();
        prop_assert_eq!(engine.delta_size(), 0);
        prop_assert_eq!(engine.len(), contents.len());
        for q in &queries {
            let (got, _) = engine.knn(q, k).unwrap();
            let (want, _) = fresh.knn(q, k).unwrap();
            prop_assert_eq!(normalized(&got), normalized(&want));
        }
    }

    /// Degraded path: the same churn with replicas on and a hard-failed
    /// disk — the delta overlay must stay exact while the failed disk's
    /// buckets are served from mirrors.
    #[test]
    fn interleaved_writes_stay_exact_degraded(
        seed in any::<u64>(),
        failed in 0usize..DISKS,
    ) {
        let k = 8;
        let initial = UniformGenerator::new(DIM).generate(600, seed);
        let stream = UniformGenerator::new(DIM).generate(80, seed ^ 1);
        let queries = UniformGenerator::new(DIM).generate(6, seed ^ 2);
        let engine = EngineBuilder::new(DIM)
            .disks(DISKS)
            .replicas(1)
            .ingest(IngestConfig::new(4096))
            .build(&initial)
            .unwrap();
        engine.faults().fail(failed);

        let contents = churn(&engine, &initial, &stream, &queries, k);

        let fresh = EngineBuilder::new(DIM)
            .disks(DISKS)
            .build_with_items(contents)
            .unwrap();
        for q in &queries {
            let (got, _) = engine.knn(q, k).unwrap();
            let (want, _) = fresh.knn(q, k).unwrap();
            prop_assert_eq!(normalized(&got), normalized(&want));
        }
    }
}

/// Queries racing a live shadow-rebuild swap lose nothing and duplicate
/// nothing: while a writer thread streams inserts (tripping background
/// rebuilds via the size threshold), every concurrent answer must be a
/// correct exact top-k over *some* prefix of the insert stream — unique
/// items with true distances, and a k-th distance bracketed by the
/// brute-force k-th over the base set (no inserts visible) and over the
/// full union (all inserts visible). At quiescence the engine must agree
/// bit-identically with a fresh bulk load of the union.
#[test]
fn queries_across_a_live_rebuild_swap_lose_nothing() {
    const K: usize = 10;
    let initial = UniformGenerator::new(DIM).generate(2_000, 31);
    let stream = UniformGenerator::new(DIM).generate(1_200, 32);
    let queries = UniformGenerator::new(DIM).generate(24, 33);

    let engine = EngineBuilder::new(DIM)
        .disks(DISKS)
        .metrics(true)
        // A low threshold forces several background shadow rebuilds while
        // the query threads are running.
        .ingest(IngestConfig::new(8_192).with_rebuild_threshold(200))
        .build(&initial)
        .unwrap();

    let base: Vec<(Point, u64)> = initial
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u64))
        .collect();
    let mut union = base.clone();
    union.extend(
        stream
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), (initial.len() + i) as u64)),
    );
    let point_of: std::collections::BTreeMap<u64, &Point> =
        union.iter().map(|(p, id)| (*id, p)).collect();

    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            for p in &stream {
                engine.insert(p.clone()).unwrap();
            }
        });
        for t in 0..3usize {
            let (queries, base, union, point_of, engine) =
                (&queries, &base, &union, &point_of, &engine);
            s.spawn(move || {
                for round in 0..20 {
                    let q = &queries[(t * 20 + round) % queries.len()];
                    let loose = brute_kth(base, q, K);
                    let tight = brute_kth(union, q, K);
                    let (got, _) = engine.knn(q, K).unwrap();
                    assert_eq!(got.len(), K, "lost answers");
                    let mut items: Vec<u64> = got.iter().map(|nb| nb.item).collect();
                    items.sort_unstable();
                    items.dedup();
                    assert_eq!(items.len(), K, "duplicated answers");
                    for nb in &got {
                        let p = point_of
                            .get(&nb.item)
                            .expect("answer from outside the union");
                        assert!(
                            (nb.dist - q.dist(p)).abs() < 1e-9,
                            "reported distance does not match item {}",
                            nb.item
                        );
                    }
                    assert!(got.windows(2).all(|w| w[0].dist <= w[1].dist));
                    let kth = got.last().unwrap().dist;
                    assert!(
                        tight - 1e-9 <= kth && kth <= loose + 1e-9,
                        "k-th distance {kth} outside [{tight}, {loose}]"
                    );
                }
            });
        }
        writer.join().unwrap();
    });

    // The threshold must actually have tripped mid-stream. The counter
    // counts *completed* rebuilds, and the triggered one runs in the
    // background, so it may still be building when the writer returns:
    // wait for it (bounded) before `flush()` runs a rebuild of its own.
    let rebuilds = || {
        engine
            .metrics()
            .unwrap()
            .snapshot()
            .counter_total("parsim_rebuilds_total")
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while rebuilds() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(rebuilds() >= 1, "no background rebuild ran");

    // Quiescence: drain everything and demand bit-identity to a fresh
    // bulk load of the union.
    engine.flush().unwrap();
    assert_eq!(engine.delta_size(), 0);
    assert_eq!(engine.len(), union.len());
    let fresh = EngineBuilder::new(DIM)
        .disks(DISKS)
        .build_with_items(union.clone())
        .unwrap();
    for q in &queries {
        let (got, _) = engine.knn(q, K).unwrap();
        let (want, _) = fresh.knn(q, K).unwrap();
        assert_eq!(normalized(&got), normalized(&want));
    }
}
