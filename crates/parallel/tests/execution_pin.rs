//! Pins of every execution path of one fixed-seed engine: answers,
//! traces, degraded records and typed errors of pooled RKV, pooled HS,
//! the scoped batch at one and two workers, and pooled and scoped
//! `Approx`, each healthy, with a hard-failed disk, with a seeded flaky
//! disk, under a tight timeout budget, with a non-empty delta, and with an
//! un-replicated disk loss. The constants were recorded before the
//! executors were folded into one stage driver; any drift is a change of
//! the search, not of who runs it.

use std::sync::OnceLock;
use std::time::Duration;

use parsim_datagen::{ClusteredGenerator, DataGenerator};
use parsim_geometry::Point;
use parsim_index::KnnAlgorithm;
use parsim_parallel::{
    DegradedInfo, EngineConfig, EngineError, ExecutionMode, FaultPolicy, IngestConfig, LshConfig,
    ParallelKnnEngine, QueryOptions, QueryResult, QueryTrace,
};

const DIM: usize = 8;
const N: usize = 3000;
const DISKS: usize = 8;
const K: usize = 10;
const PROBES: usize = 2;
/// The hard-failed disk (also the lost disk of the un-replicated case).
const FAILED: usize = 2;
/// The flaky disk and its error probability per page read.
const FLAKY: usize = 5;
const FLAKY_P: f64 = 0.35;
/// Pages a disk may serve within the tight timeout budget.
const TIMEOUT_PAGES: u64 = 3;

/// FNV-1a, 64 bit: a dependency-free digest.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `N` indexed points, 16 held-out queries and 40 delta inserts, all
/// from the same clusters.
fn data() -> &'static [Point] {
    static DATA: OnceLock<Vec<Point>> = OnceLock::new();
    DATA.get_or_init(|| ClusteredGenerator::new(DIM, 8, 0.05).generate(N + 56, 33))
}

fn points() -> &'static [Point] {
    &data()[..N]
}

fn queries() -> &'static [Point] {
    &data()[N..N + 16]
}

fn inserts() -> &'static [Point] {
    &data()[N + 16..]
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    PooledRkv,
    PooledHs,
    BatchRkv(usize),
    PooledApprox,
    ScopedApprox,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Condition {
    Healthy,
    Failed,
    Flaky,
    Timeout,
    Delta,
    Unreplicated,
}

const CONDITIONS: [Condition; 6] = [
    Condition::Healthy,
    Condition::Failed,
    Condition::Flaky,
    Condition::Timeout,
    Condition::Delta,
    Condition::Unreplicated,
];

fn engine(path: Path, cond: Condition) -> ParallelKnnEngine {
    let mut config = EngineConfig::paper_defaults(DIM);
    if path == Path::PooledHs {
        config.algorithm = KnnAlgorithm::Hs;
    }
    let execution = match path {
        Path::PooledRkv | Path::PooledHs | Path::PooledApprox => ExecutionMode::Pooled,
        Path::BatchRkv(_) | Path::ScopedApprox => ExecutionMode::Scoped,
    };
    let mut builder = ParallelKnnEngine::builder(DIM)
        .config(config)
        .disks(DISKS)
        .replicas(usize::from(cond != Condition::Unreplicated))
        .execution(execution)
        .approx(LshConfig::new(17).tables(4).hyperplanes(10));
    if cond == Condition::Timeout {
        let budget = config.disk_model.service_time(TIMEOUT_PAGES);
        builder = builder.fault_policy(FaultPolicy::with_timeout(budget));
    }
    if cond == Condition::Delta {
        builder = builder.ingest(IngestConfig::new(512));
    }
    let e = builder.build(points()).unwrap();
    match cond {
        Condition::Failed | Condition::Unreplicated => e.faults().fail(FAILED),
        Condition::Flaky => {
            e.faults().flaky(FLAKY, FLAKY_P);
            e.faults().seed(FLAKY, 99);
        }
        Condition::Delta => {
            let ids: Vec<u64> = inserts()
                .iter()
                .map(|p| e.insert(p.clone()).unwrap())
                .collect();
            for id in (0..N as u64).step_by(29) {
                e.remove(id).unwrap();
            }
            for id in ids.iter().step_by(4) {
                e.remove(*id).unwrap();
            }
            assert!(e.delta_size() > 0);
        }
        Condition::Healthy | Condition::Timeout => {}
    }
    e
}

fn run(path: Path, cond: Condition) -> Vec<Result<QueryResult, EngineError>> {
    let e = engine(path, cond);
    let opts = match path {
        Path::PooledApprox | Path::ScopedApprox => QueryOptions::approx(K, PROBES),
        _ => QueryOptions::new(K),
    }
    .with_trace(true);
    match path {
        Path::BatchRkv(workers) => match e.query_batch(queries(), &opts.with_workers(workers)) {
            Ok(results) => results.into_iter().map(Ok).collect(),
            Err(err) => vec![Err(err)],
        },
        _ => queries().iter().map(|q| e.query(q, &opts)).collect(),
    }
}

/// Digests every `QueryTrace` field but `wall_time`. The exhaustive
/// destructuring makes a new trace field a compile error here.
fn trace_digest(h: &mut u64, t: &QueryTrace) {
    let QueryTrace {
        per_disk_pages,
        candidates_pruned,
        cache_hits,
        per_disk_coalesced,
        dist_evals,
        dist_evals_saved,
        lb_evals,
        rerank_evals,
        abandoned_rows,
        abandon_checkpoints,
        lsh_probes,
        lsh_candidates,
        lsh_empty_probes,
        wall_time: _,
        modeled_parallel,
        modeled_sequential,
        degraded,
    } = t;
    for v in per_disk_pages.iter().chain(per_disk_coalesced) {
        fnv1a(h, &v.to_le_bytes());
    }
    for v in [
        candidates_pruned,
        cache_hits,
        dist_evals,
        dist_evals_saved,
        lb_evals,
        rerank_evals,
        abandoned_rows,
        abandon_checkpoints,
        lsh_probes,
        lsh_candidates,
        lsh_empty_probes,
    ] {
        fnv1a(h, &v.to_le_bytes());
    }
    fnv1a(h, &modeled_parallel.as_nanos().to_le_bytes());
    fnv1a(h, &modeled_sequential.as_nanos().to_le_bytes());
    match degraded {
        None => fnv1a(h, &[0]),
        Some(DegradedInfo {
            failed_over,
            retries,
            replica_pages,
            added_latency,
        }) => {
            fnv1a(h, &[1]);
            for d in failed_over {
                fnv1a(h, &(*d as u64).to_le_bytes());
            }
            fnv1a(h, &retries.to_le_bytes());
            fnv1a(h, &replica_pages.to_le_bytes());
            fnv1a(h, &added_latency.as_nanos().to_le_bytes());
        }
    }
}

/// `[digest of (item, distance bits) per answer and of typed errors,
/// digest of the traces, total pages]` over the query set.
fn pin(results: &[Result<QueryResult, EngineError>], with_trace: bool) -> [u64; 3] {
    let mut out = [FNV_OFFSET, FNV_OFFSET, 0];
    for r in results {
        match r {
            Ok(res) => {
                for n in &res.neighbors {
                    fnv1a(&mut out[0], &n.item.to_le_bytes());
                    fnv1a(&mut out[0], &n.dist.to_bits().to_le_bytes());
                }
                if with_trace {
                    let t = res.trace.as_ref().expect("traced query");
                    trace_digest(&mut out[1], t);
                    out[2] += t.total_pages();
                }
            }
            Err(e) => fnv1a(&mut out[0], format!("{e:?}").as_bytes()),
        }
    }
    out
}

/// One row per condition, in [`CONDITIONS`] order.
#[rustfmt::skip]
const POOLED_RKV: [[u64; 3]; 6] = [
    [11845872569402236208, 10432192712579007994, 364],
    [11845872569402236208, 899560894825874990, 428],
    [11845872569402236208, 12426271721106664664, 431],
    [11845872569402236208, 12582655508564971858, 642],
    [10445057394610090823, 8824801295095074629, 469],
    [16706006433318002485, 14695981039346656037, 0],
];

#[rustfmt::skip]
const POOLED_HS: [[u64; 3]; 6] = [
    [11845872569402236208, 11131894768111974093, 407],
    [11845872569402236208, 3517665060077914604, 393],
    [11845872569402236208, 9965032941614921459, 411],
    [11845872569402236208, 11846320354011649797, 589],
    [10445057394610090823, 4984999370559782228, 587],
    [16706006433318002485, 14695981039346656037, 0],
];

#[rustfmt::skip]
const BATCH_1: [[u64; 3]; 6] = [
    [11845872569402236208, 10432192712579007994, 364],
    [11845872569402236208, 899560894825874990, 428],
    [11845872569402236208, 12426271721106664664, 431],
    [11845872569402236208, 12582655508564971858, 642],
    [10445057394610090823, 8824801295095074629, 469],
    [3528852851760389318, 14695981039346656037, 0],
];

#[rustfmt::skip]
const BATCH_2: [[u64; 3]; 6] = [
    [11845872569402236208, 10432192712579007994, 364],
    [11845872569402236208, 899560894825874990, 428],
    [11845872569402236208, 14695981039346656037, 0],
    [11845872569402236208, 12582655508564971858, 642],
    [10445057394610090823, 8824801295095074629, 469],
    [3528852851760389318, 14695981039346656037, 0],
];

#[rustfmt::skip]
const POOLED_APPROX: [[u64; 3]; 6] = [
    [10597508019913773573, 16368349483724517542, 318],
    [10597508019913773573, 11309094217335135543, 318],
    [10597508019913773573, 17921743470116419060, 329],
    [10597508019913773573, 5730541029699724753, 520],
    [14201381570799837029, 16368349483724517542, 318],
    [13381203982354091390, 10727442814586972318, 45],
];

#[rustfmt::skip]
const SCOPED_APPROX: [[u64; 3]; 6] = [
    [10597508019913773573, 16368349483724517542, 318],
    [10597508019913773573, 11309094217335135543, 318],
    [10597508019913773573, 17921743470116419060, 329],
    [10597508019913773573, 5730541029699724753, 520],
    [14201381570799837029, 16368349483724517542, 318],
    [13381203982354091390, 10727442814586972318, 45],
];

fn check(path: Path, want: [[u64; 3]; 6]) {
    let mut got = [[0u64; 3]; 6];
    for (i, &cond) in CONDITIONS.iter().enumerate() {
        let results = run(path, cond);
        if cond == Condition::Unreplicated {
            // A lost un-replicated bucket surfaces as the typed error
            // naming the lost disk, never as a partial answer.
            let errors = results.iter().filter(|r| r.is_err()).count();
            assert!(errors > 0, "{path:?}: no query touched the lost disk");
            for r in &results {
                if let Err(e) = r {
                    assert!(
                        matches!(e, EngineError::BucketUnavailable { disk } if *disk == FAILED),
                        "{path:?}: {e:?}"
                    );
                }
            }
        }
        // The flaky disk's error stream is drawn page by page from one
        // per-disk generator, so two batch workers interleave the draws
        // and only the answers are deterministic there.
        let traced = !(cond == Condition::Flaky && path == Path::BatchRkv(2));
        got[i] = pin(&results, traced);
    }
    assert_eq!(got, want, "{path:?}");
}

#[test]
fn pooled_rkv_is_pinned() {
    check(Path::PooledRkv, POOLED_RKV);
}

#[test]
fn pooled_hs_is_pinned() {
    check(Path::PooledHs, POOLED_HS);
}

#[test]
fn scoped_batch_at_one_worker_is_pinned() {
    check(Path::BatchRkv(1), BATCH_1);
}

#[test]
fn scoped_batch_at_two_workers_is_pinned() {
    check(Path::BatchRkv(2), BATCH_2);
}

#[test]
fn pooled_approx_is_pinned() {
    check(Path::PooledApprox, POOLED_APPROX);
}

#[test]
fn scoped_approx_is_pinned() {
    check(Path::ScopedApprox, SCOPED_APPROX);
}

/// Sanity of the set-up itself: each degraded condition engages the
/// failure handling it names.
#[test]
fn conditions_engage_degraded_execution() {
    let results = run(Path::PooledRkv, Condition::Failed);
    let info = |r: &Result<QueryResult, EngineError>| {
        r.as_ref()
            .unwrap()
            .trace
            .as_ref()
            .unwrap()
            .degraded
            .clone()
            .unwrap()
    };
    assert!(results.iter().all(|r| info(r).failed_over == [FAILED]));
    let results = run(Path::PooledRkv, Condition::Flaky);
    assert!(results.iter().map(|r| info(r).retries).sum::<u64>() > 0);
    let results = run(Path::PooledRkv, Condition::Timeout);
    assert!(results.iter().any(|r| !info(r).failed_over.is_empty()));
    let budget = Duration::from_secs(1);
    assert!(results
        .iter()
        .all(|r| info(r).added_latency < budget && info(r).replica_pages > 0));
}
