//! The f32 and q8 mirrors of a leaf are a cache that the first cheap-tier
//! scan of the leaf builds. An engine that only ever scans on the f64 tier
//! holds none, whatever it does: build, exact and approximate queries,
//! inserts, removals and `reorganize()`. A cheap-tier query then builds
//! them and answers exactly, and two cheap-tier queries that race to
//! build the same leaves answer as a one-thread run does. On a scoped
//! engine the two client threads can scan one leaf at the same time; on
//! a pooled one each disk's single worker interleaves their scans.

use std::sync::Barrier;
use std::time::Duration;

use parsim_datagen::{ClusteredGenerator, DataGenerator};
use parsim_geometry::Point;
use parsim_index::knn::{brute_force_knn, Neighbor};
use parsim_index::node::Node;
use parsim_parallel::{
    ExecutionMode, IngestConfig, LshConfig, ParallelKnnEngine, QueryOptions, QueryResult, ScanTier,
};

const DIM: usize = 8;
const N: usize = 2000;
const DISKS: usize = 4;
const K: usize = 10;
const MODES: [ExecutionMode; 2] = [ExecutionMode::Scoped, ExecutionMode::Pooled];

/// `N` indexed points, then 40 to insert, then 12 queries.
fn data() -> Vec<Point> {
    ClusteredGenerator::new(DIM, 6, 0.05).generate(N + 52, 41)
}

/// `(leaves, leaves holding mirrors)` over every primary tree.
fn leaves_with_mirrors(e: &ParallelKnnEngine) -> (usize, usize) {
    let (mut leaves, mut built) = (0, 0);
    e.for_each_tree(|tree| {
        for node in tree.iter_nodes() {
            if let Node::Leaf { entries, .. } = node {
                leaves += 1;
                built += usize::from(entries.mirrors_built());
            }
        }
    });
    (leaves, built)
}

fn ids(v: &[Neighbor]) -> Vec<u64> {
    v.iter().map(|n| n.item).collect()
}

#[test]
fn an_f64_engine_never_builds_a_mirror() {
    let pts = data();
    let (indexed, rest) = pts.split_at(N);
    let (inserts, queries) = rest.split_at(40);
    for mode in MODES {
        let e = ParallelKnnEngine::builder(DIM)
            .disks(DISKS)
            .execution(mode)
            .ingest(IngestConfig::new(256))
            .approx(LshConfig::new(7).tables(4).hyperplanes(8))
            .build(indexed)
            .unwrap();
        let mut live: Vec<(Point, u64)> = indexed.iter().cloned().zip(0..).collect();
        let exact_and_approx = |e: &ParallelKnnEngine| {
            for q in queries {
                e.query(q, &QueryOptions::traced(K)).unwrap();
                e.query(q, &QueryOptions::approx(K, 2)).unwrap();
            }
            e.query_batch(queries, &QueryOptions::new(K)).unwrap();
        };
        exact_and_approx(&e);
        for p in inserts {
            let id = e.insert(p.clone()).unwrap();
            live.push((p.clone(), id));
        }
        for id in (0..N as u64).step_by(37) {
            e.remove(id).unwrap();
        }
        live.retain(|(_, id)| id % 37 != 0 || *id >= N as u64);
        exact_and_approx(&e);
        e.reorganize().unwrap();
        assert_eq!(e.delta_size(), 0);
        exact_and_approx(&e);
        let (leaves, built) = leaves_with_mirrors(&e);
        assert!(leaves > DISKS, "{mode:?}: {leaves} leaves");
        assert_eq!(built, 0, "{mode:?}: an f64 engine built mirrors");

        for tier in [ScanTier::F32, ScanTier::Q8] {
            for q in queries {
                let got = e.query(q, &QueryOptions::new(K).with_tier(tier)).unwrap();
                let want = brute_force_knn(&live, q, K);
                assert_eq!(ids(&got.neighbors), ids(&want), "{mode:?} {tier:?}");
                for (g, w) in got.neighbors.iter().zip(&want) {
                    assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "{mode:?} {tier:?}");
                }
            }
        }
        let (_, built) = leaves_with_mirrors(&e);
        assert!(built > 0, "{mode:?}: the cheap tiers built no mirror");
    }
}

/// The same answer and the same trace, `wall_time` aside.
fn assert_same(a: &QueryResult, b: &QueryResult, what: &str) {
    assert_eq!(a.neighbors, b.neighbors, "{what}");
    let (mut t, mut u) = (a.trace.clone().unwrap(), b.trace.clone().unwrap());
    t.wall_time = Duration::ZERO;
    u.wall_time = Duration::ZERO;
    assert_eq!(t, u, "{what}");
}

#[test]
fn racing_first_touches_answer_as_one_thread_does() {
    let pts = data();
    let (indexed, rest) = pts.split_at(N);
    let queries = &rest[40..];
    let tiers = [ScanTier::F32, ScanTier::Q8];
    let opts = |tier| QueryOptions::traced(K).with_tier(tier);
    for mode in MODES {
        let build = || {
            ParallelKnnEngine::builder(DIM)
                .disks(DISKS)
                .execution(mode)
                .build(indexed)
                .unwrap()
        };
        // One thread, fresh engine: every query of one tier, then the other.
        let solo = build();
        let expected: Vec<Vec<QueryResult>> = tiers
            .iter()
            .map(|&tier| {
                queries
                    .iter()
                    .map(|q| solo.query(q, &opts(tier)).unwrap())
                    .collect()
            })
            .collect();
        for round in 0..3 {
            // Two threads, fresh engine: both tiers' first scans of every
            // leaf race for its mirrors.
            let e = build();
            assert_eq!(leaves_with_mirrors(&e).1, 0);
            let start = Barrier::new(tiers.len());
            let raced: Vec<Vec<QueryResult>> = std::thread::scope(|s| {
                let handles: Vec<_> = tiers
                    .iter()
                    .map(|&tier| {
                        let (e, start) = (&e, &start);
                        s.spawn(move || {
                            start.wait();
                            queries
                                .iter()
                                .map(|q| e.query(q, &opts(tier)).unwrap())
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (t, tier) in tiers.iter().enumerate() {
                for (i, (a, b)) in expected[t].iter().zip(&raced[t]).enumerate() {
                    assert_same(a, b, &format!("{mode:?} round {round} {tier:?} query {i}"));
                }
            }
        }
    }
}
