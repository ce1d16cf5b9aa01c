//! Pins of the approximate tier: bucket layout, answers and work counters
//! of fixed-seed LSH engines, recorded at the commit *before* the tier
//! moved from per-disk row copies to one shared row store. Buckets still
//! hold the same items in the same order and a mirror scan reads the same
//! rows, so no answer, page, distance evaluation or probe count may move;
//! any drift in these constants is a change of the search or the layout.

use std::sync::OnceLock;

use parsim_datagen::{ClusteredGenerator, DataGenerator};
use parsim_geometry::Point;
use parsim_parallel::{ExecutionMode, LshConfig, ParallelKnnEngine, QueryOptions};

const DIM: usize = 48;
const N: usize = 5000;
const DISKS: usize = 8;
const K: usize = 10;
/// The disk failed for the mirror-path pins; its mirror host is disk 4.
const FAILED_DISK: usize = 3;

/// FNV-1a, 64 bit: a dependency-free digest of answers and layouts.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `N` indexed points followed by 16 held-out queries from the same
/// clusters.
fn data() -> &'static [Point] {
    static DATA: OnceLock<Vec<Point>> = OnceLock::new();
    DATA.get_or_init(|| ClusteredGenerator::new(DIM, 32, 0.05).generate(N + 16, 30))
}

fn points() -> &'static [Point] {
    &data()[..N]
}

fn queries() -> &'static [Point] {
    &data()[N..]
}

fn engine(replicated: bool, execution: ExecutionMode) -> ParallelKnnEngine {
    ParallelKnnEngine::builder(DIM)
        .disks(DISKS)
        .replicas(usize::from(replicated))
        .execution(execution)
        .approx(LshConfig::new(30).tables(4).hyperplanes(16))
        .build(points())
        .unwrap()
}

/// `[length, FNV digest]` of the engine's LSH layout bytes.
fn layout_pin(e: &ParallelKnnEngine) -> [u64; 2] {
    let bytes = e.lsh_layout_bytes().expect("tier attached");
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &bytes);
    [bytes.len() as u64, h]
}

/// `[digest of (item, distance bits) over all answers, digest of the
/// per-disk pages, pages, dist_evals, lsh_probes, lsh_candidates,
/// lsh_empty_probes]`, summed over the queries.
fn query_pin(e: &ParallelKnnEngine, probes: usize) -> [u64; 7] {
    let mut pin = [FNV_OFFSET, FNV_OFFSET, 0, 0, 0, 0, 0];
    for q in queries() {
        let res = e
            .query(q, &QueryOptions::approx(K, probes).with_trace(true))
            .unwrap();
        let trace = res.trace.expect("traced query");
        for n in &res.neighbors {
            fnv1a(&mut pin[0], &n.item.to_le_bytes());
            fnv1a(&mut pin[0], &n.dist.to_bits().to_le_bytes());
        }
        for p in &trace.per_disk_pages {
            fnv1a(&mut pin[1], &p.to_le_bytes());
        }
        pin[2] += trace.per_disk_pages.iter().sum::<u64>();
        pin[3] += trace.dist_evals;
        pin[4] += trace.lsh_probes;
        pin[5] += trace.lsh_candidates;
        pin[6] += trace.lsh_empty_probes;
    }
    pin
}

const LAYOUT: [u64; 2] = [207528, 6966069186077503839];

#[rustfmt::skip]
const HEALTHY: [[u64; 7]; 2] = [
    [10137310820217786482, 100103406351967455, 248, 2162, 64, 2162, 2],
    [8420044380225350140, 11870227800368732200, 425, 3489, 128, 3489, 7],
];

/// Same answers and totals as [`HEALTHY`]; only the per-disk page
/// digest moves, because the failed disk's pages land on its mirror host.
#[rustfmt::skip]
const FAILED_OVER: [[u64; 7]; 2] = [
    [10137310820217786482, 4981954526578852509, 248, 2162, 64, 2162, 2],
    [8420044380225350140, 5835819322556986862, 425, 3489, 128, 3489, 7],
];

#[test]
fn unreplicated_layout_and_answers_are_pinned() {
    let e = engine(false, ExecutionMode::Scoped);
    assert_eq!(layout_pin(&e), LAYOUT);
    assert_eq!([query_pin(&e, 1), query_pin(&e, 2)], HEALTHY);
}

#[test]
fn pooled_answers_match_the_scoped_pins() {
    let e = engine(false, ExecutionMode::Pooled);
    assert_eq!([query_pin(&e, 1), query_pin(&e, 2)], HEALTHY);
}

#[test]
fn replicated_layout_and_healthy_answers_are_pinned() {
    let e = engine(true, ExecutionMode::Scoped);
    assert_eq!(layout_pin(&e), LAYOUT);
    assert_eq!([query_pin(&e, 1), query_pin(&e, 2)], HEALTHY);
}

#[test]
fn mirror_scans_of_a_failed_disk_are_pinned() {
    let e = engine(true, ExecutionMode::Scoped);
    e.faults().fail(FAILED_DISK);
    let pins = [query_pin(&e, 1), query_pin(&e, 2)];
    e.faults().heal_all();
    assert_eq!(pins, FAILED_OVER);
}
