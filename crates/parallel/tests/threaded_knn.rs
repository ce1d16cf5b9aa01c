//! End-to-end tests of the threaded query paths.
//!
//! The per-disk parallel search ([`ParallelKnnEngine::knn`] /
//! [`ParallelKnnEngine::knn_traced`]) and the batched worker pool
//! ([`ParallelKnnEngine::knn_batch_with`]) must return exactly the answers
//! of the single-disk sequential baseline under any worker count, and the
//! per-query traces must account for every page the shared disks served —
//! even while many queries run concurrently.

use std::time::Duration;

use parsim_datagen::{ClusteredGenerator, CorrelatedGenerator, DataGenerator, UniformGenerator};
use parsim_geometry::Point;
use parsim_index::knn::{brute_force_knn, Neighbor};
use parsim_index::KnnAlgorithm;
use parsim_parallel::{
    EngineConfig, ExecutionMode, ParallelKnnEngine, QueryOptions, QueryTrace, ScanTier,
};

const DIM: usize = 8;
const DISKS: usize = 8;

/// The sequential baseline: the same engine on one disk.
fn sequential(pts: &[Point], config: EngineConfig) -> ParallelKnnEngine {
    ParallelKnnEngine::builder(DIM)
        .config(config)
        .disks(1)
        .build(pts)
        .unwrap()
}

fn setup(algorithm: KnnAlgorithm) -> (ParallelKnnEngine, ParallelKnnEngine, Vec<Point>) {
    let pts = UniformGenerator::new(DIM).generate(4000, 21);
    let mut config = EngineConfig::paper_defaults(DIM);
    config.algorithm = algorithm;
    let par = ParallelKnnEngine::builder(DIM)
        .config(config)
        .disks(DISKS)
        .build(&pts)
        .unwrap();
    let seq = sequential(&pts, config);
    let queries = UniformGenerator::new(DIM).generate(24, 77);
    (par, seq, queries)
}

/// Distances must agree exactly (identical arithmetic on both paths);
/// items may differ only between equidistant points.
fn assert_same_answers(got: &[Neighbor], want: &[Neighbor]) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert!(
            (g.dist - w.dist).abs() < 1e-12,
            "distance mismatch: {} vs {}",
            g.dist,
            w.dist
        );
    }
}

#[test]
fn threaded_knn_matches_sequential_rkv() {
    let (par, seq, queries) = setup(KnnAlgorithm::Rkv);
    for q in &queries {
        let (got, _) = par.knn(q, 10).unwrap();
        let (want, _) = seq.knn(q, 10).unwrap();
        assert_same_answers(&got, &want);
    }
}

#[test]
fn threaded_knn_matches_sequential_hs() {
    let (par, seq, queries) = setup(KnnAlgorithm::Hs);
    for q in &queries {
        let (got, _) = par.knn(q, 10).unwrap();
        let (want, _) = seq.knn(q, 10).unwrap();
        assert_same_answers(&got, &want);
    }
}

#[test]
fn batch_matches_sequential_under_1_2_8_workers() {
    let (par, seq, queries) = setup(KnnAlgorithm::Rkv);
    let want: Vec<Vec<Neighbor>> = queries.iter().map(|q| seq.knn(q, 10).unwrap().0).collect();
    for workers in [1, 2, 8] {
        let got = par.knn_batch_with(&queries, 10, workers).unwrap();
        assert_eq!(got.len(), queries.len());
        for ((g, _), w) in got.iter().zip(&want) {
            assert_same_answers(g, w);
        }
    }
}

#[test]
fn batch_traces_are_identical_across_worker_counts() {
    // Each query's trace is computed by exactly one worker running the
    // deterministic forest search, so worker interleaving must not change
    // a single counter.
    let (par, _, queries) = setup(KnnAlgorithm::Rkv);
    let baseline = par.knn_batch_with(&queries, 10, 1).unwrap();
    for workers in [2, 8] {
        let got = par.knn_batch_with(&queries, 10, workers).unwrap();
        for ((_, g), (_, b)) in got.iter().zip(&baseline) {
            assert_eq!(g.per_disk_pages, b.per_disk_pages);
            assert_eq!(g.candidates_pruned, b.candidates_pruned);
        }
    }
}

#[test]
fn batch_traces_account_for_every_page_served() {
    // The sum of the locally-counted per-query traces must equal the
    // global disk-counter delta over the whole concurrent batch: no page
    // is lost or double-counted under contention.
    let (par, _, queries) = setup(KnnAlgorithm::Rkv);
    let scope = par.array().begin_query();
    let results = par.knn_batch_with(&queries, 10, 8).unwrap();
    let cost = scope.finish(&par.array());

    let mut summed = vec![0u64; DISKS];
    for (_, trace) in &results {
        for (acc, p) in summed.iter_mut().zip(&trace.per_disk_pages) {
            *acc += p;
        }
    }
    assert_eq!(summed, cost.per_disk_reads);
}

#[test]
fn threaded_traces_account_for_every_page_served() {
    // Same accounting identity for single queries: the trace of each
    // query counts exactly the pages it charged to the disks.
    let (par, _, queries) = setup(KnnAlgorithm::Rkv);
    let scope = par.array().begin_query();
    let mut summed = vec![0u64; DISKS];
    for q in &queries {
        let (_, trace) = par.knn_traced(q, 10).unwrap();
        assert_eq!(trace.per_disk_pages.len(), DISKS);
        assert!(trace.total_pages() > 0);
        for (acc, p) in summed.iter_mut().zip(&trace.per_disk_pages) {
            *acc += p;
        }
    }
    let cost = scope.finish(&par.array());
    assert_eq!(summed, cost.per_disk_reads);
}

#[test]
fn shared_bound_prunes_work() {
    // Var. 3 with the shared bound must read fewer pages than independent
    // per-disk searches run to completion.
    let (par, _, queries) = setup(KnnAlgorithm::Rkv);
    let mut bounded = 0u64;
    let mut independent = 0u64;
    let mut pruned = 0u64;
    for q in &queries {
        let (_, trace) = par.knn_traced(q, 10).unwrap();
        bounded += trace.total_pages();
        pruned += trace.candidates_pruned;
        // Independent search: every disk runs its local top-k to
        // completion with no shared bound.
        let array = par.array();
        let scope = array.begin_query();
        par.for_each_tree(|tree| {
            tree.knn(q, 10, KnnAlgorithm::Rkv);
        });
        independent += scope.finish(&array).total_reads;
    }
    assert!(pruned > 0, "no subtree was ever pruned over the workload");
    assert!(
        bounded <= independent,
        "shared bound read more pages ({bounded}) than independent searches ({independent})"
    );
}

#[test]
fn cached_engine_reports_cache_hits() {
    let pts = UniformGenerator::new(DIM).generate(3000, 5);
    let par = ParallelKnnEngine::builder(DIM)
        .disks(DISKS)
        .page_cache(4096)
        .build(&pts)
        .unwrap();
    let q = &UniformGenerator::new(DIM).generate(1, 9)[0];

    let (_, cold) = par.knn_traced(q, 10).unwrap();
    assert_eq!(cold.cache_hits, 0, "first query cannot hit an empty cache");
    let (_, warm) = par.knn_traced(q, 10).unwrap();
    // Identical query, ample cache: the repeat is served from memory.
    // Every tree re-reads its root, so hits are guaranteed.
    assert!(warm.cache_hits > 0, "second run should hit the cache");
}

#[test]
fn clustered_knn_is_bit_identical_and_abandons_distances() {
    // Regression guard for the early-abandon kernels: on fixed-seed
    // clustered data the threaded engine must return distances that are
    // *bit-identical* to the sequential baseline and to brute force (the
    // abandon checkpoints may only skip points, never change arithmetic),
    // while the trace proves the partial-distance cutoff actually fired.
    let pts = ClusteredGenerator::new(DIM, 8, 0.03).generate(4000, 21);
    let data: Vec<(Point, u64)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u64))
        .collect();
    let config = EngineConfig::paper_defaults(DIM);
    let par = ParallelKnnEngine::builder(DIM)
        .config(config)
        .disks(DISKS)
        .build(&pts)
        .unwrap();
    let seq = sequential(&pts, config);
    // Query from the same distribution so queries land inside clusters.
    let queries = ClusteredGenerator::new(DIM, 8, 0.03).generate(16, 77);

    let mut evals = 0u64;
    let mut saved = 0u64;
    for q in &queries {
        let (got, trace) = par.knn_traced(q, 10).unwrap();
        let (want, _) = seq.knn(q, 10).unwrap();
        let brute = brute_force_knn(&data, q, 10);
        assert_eq!(got.len(), 10);
        for ((g, w), b) in got.iter().zip(&want).zip(&brute) {
            assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "threaded vs sequential");
            assert_eq!(
                g.dist.to_bits(),
                b.dist.to_bits(),
                "threaded vs brute force"
            );
        }
        evals += trace.dist_evals;
        saved += trace.dist_evals_saved;
    }
    assert!(evals > 0, "leaf scans must evaluate distances");
    assert!(saved > 0, "early abandon never fired on clustered data");
    assert!(
        saved <= evals,
        "cannot abandon more evaluations than started"
    );
}

/// Builds scoped and pooled engines over the same points with the same
/// configuration — the pair every backbone parity test compares.
fn engine_pair(pts: &[Point], algorithm: KnnAlgorithm) -> (ParallelKnnEngine, ParallelKnnEngine) {
    let mut config = EngineConfig::paper_defaults(DIM);
    config.algorithm = algorithm;
    let scoped = ParallelKnnEngine::builder(DIM)
        .config(config)
        .disks(DISKS)
        .build(pts)
        .unwrap();
    let pooled = ParallelKnnEngine::builder(DIM)
        .config(config)
        .disks(DISKS)
        .execution(ExecutionMode::Pooled)
        .build(pts)
        .unwrap();
    (scoped, pooled)
}

/// The backbone bit-identity regression: pooled execution must return
/// the same neighbor lists as scoped execution, the sequential baseline,
/// and brute force, AND the same deterministic work trace
/// (`per_disk_pages`, `dist_evals`, pruning counters) as the scoped batch
/// path. Cache hits are excluded: they are execution-order dependent by
/// nature.
fn check_pooled_bit_identity(pts: &[Point], queries: &[Point]) {
    let (scoped, pooled) = engine_pair(pts, KnnAlgorithm::Rkv);
    let config = EngineConfig::paper_defaults(DIM);
    let seq = sequential(pts, config);
    let data: Vec<(Point, u64)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u64))
        .collect();

    let scoped_batch = scoped.knn_batch(queries, 10).unwrap();
    let pooled_batch = pooled.knn_batch(queries, 10).unwrap();
    for (qi, q) in queries.iter().enumerate() {
        let (sres, strace) = &scoped_batch[qi];
        let (pres, ptrace) = &pooled_batch[qi];
        // Single pooled queries go through the same pipeline as batches.
        let (single, single_trace) = pooled.knn_traced(q, 10).unwrap();
        let (seq_res, _) = seq.knn(q, 10).unwrap();
        let brute = brute_force_knn(&data, q, 10);

        for ((((p, s), one), sq), b) in pres.iter().zip(sres).zip(&single).zip(&seq_res).zip(&brute)
        {
            assert_eq!(
                p.dist.to_bits(),
                s.dist.to_bits(),
                "pooled vs scoped, q{qi}"
            );
            assert_eq!(
                p.dist.to_bits(),
                one.dist.to_bits(),
                "batch vs single, q{qi}"
            );
            assert_eq!(
                p.dist.to_bits(),
                sq.dist.to_bits(),
                "pooled vs sequential, q{qi}"
            );
            assert_eq!(
                p.dist.to_bits(),
                b.dist.to_bits(),
                "pooled vs brute force, q{qi}"
            );
        }
        assert_eq!(
            ptrace.per_disk_pages, strace.per_disk_pages,
            "page trace diverged on query {qi}"
        );
        assert_eq!(
            ptrace.dist_evals, strace.dist_evals,
            "dist_evals diverged on query {qi}"
        );
        assert_eq!(
            ptrace.dist_evals_saved, strace.dist_evals_saved,
            "dist_evals_saved diverged on query {qi}"
        );
        assert_eq!(
            ptrace.candidates_pruned, strace.candidates_pruned,
            "pruning trace diverged on query {qi}"
        );
        assert_eq!(single_trace.per_disk_pages, strace.per_disk_pages);
        assert_eq!(single_trace.dist_evals, strace.dist_evals);
    }
}

#[test]
fn pooled_execution_is_bit_identical_on_clustered_data() {
    let pts = ClusteredGenerator::new(DIM, 8, 0.03).generate(4000, 21);
    let queries = ClusteredGenerator::new(DIM, 8, 0.03).generate(16, 77);
    check_pooled_bit_identity(&pts, &queries);
}

#[test]
fn pooled_execution_is_bit_identical_on_correlated_data() {
    let pts = CorrelatedGenerator::new(DIM, 0.05).generate(4000, 22);
    let queries = CorrelatedGenerator::new(DIM, 0.05).generate(16, 78);
    check_pooled_bit_identity(&pts, &queries);
}

#[test]
fn pooled_hs_answers_match_scoped() {
    // HS pipelines disk-by-disk under a carried bound: answers must be
    // identical to the scoped engine and brute force (traces are
    // execution-shaped and not compared).
    let pts = UniformGenerator::new(DIM).generate(4000, 23);
    let (scoped, pooled) = engine_pair(&pts, KnnAlgorithm::Hs);
    let data: Vec<(Point, u64)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u64))
        .collect();
    for q in &UniformGenerator::new(DIM).generate(16, 79) {
        let (a, _) = scoped.knn(q, 10).unwrap();
        let (b, _) = pooled.knn(q, 10).unwrap();
        let brute = brute_force_knn(&data, q, 10);
        assert_same_answers(&b, &a);
        for (g, w) in b.iter().zip(&brute) {
            assert_eq!(g.dist.to_bits(), w.dist.to_bits());
        }
    }
}

#[test]
fn pooled_batch_pipelines_without_reordering_results() {
    // Results come back in submission order even though queries overlap
    // across disks, and every trace stays per-query exact (the summed
    // traces equal the global disk-counter delta).
    let pts = UniformGenerator::new(DIM).generate(4000, 24);
    let (_, pooled) = engine_pair(&pts, KnnAlgorithm::Rkv);
    let queries = UniformGenerator::new(DIM).generate(32, 80);
    let scope = pooled.array().begin_query();
    let results = pooled.knn_batch(&queries, 5).unwrap();
    let cost = scope.finish(&pooled.array());
    assert_eq!(results.len(), queries.len());
    let mut summed = vec![0u64; DISKS];
    for (i, (res, trace)) in results.iter().enumerate() {
        let (want, _) = pooled.knn_traced(&queries[i], 5).unwrap();
        assert_same_answers(res, &want);
        for (acc, p) in summed.iter_mut().zip(&trace.per_disk_pages) {
            *acc += p;
        }
    }
    assert_eq!(summed, cost.per_disk_reads);
}

#[test]
fn tiered_engines_are_bit_identical_to_brute_force() {
    // The two-phase leaf scan's whole contract: every tier — engine-wide
    // or per-query — returns the f64 tier's answer bit for bit, while the
    // trace proves the cheap phase actually ran.
    let pts = ClusteredGenerator::new(DIM, 8, 0.03).generate(3000, 31);
    let data: Vec<(Point, u64)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u64))
        .collect();
    let queries = ClusteredGenerator::new(DIM, 8, 0.03).generate(12, 81);
    let config = EngineConfig::paper_defaults(DIM);
    let base = ParallelKnnEngine::builder(DIM)
        .config(config)
        .disks(DISKS)
        .build(&pts)
        .unwrap();
    for tier in [ScanTier::F32, ScanTier::Q8] {
        let tiered = ParallelKnnEngine::builder(DIM)
            .config(config)
            .disks(DISKS)
            .scan_tier(tier)
            .build(&pts)
            .unwrap();
        let mut lb = 0u64;
        let mut rerank = 0u64;
        for q in &queries {
            let (want, _) = base.knn_traced(q, 10).unwrap();
            let got = tiered.query(q, &QueryOptions::traced(10)).unwrap();
            // Per-query override on the f64-default engine takes the same
            // tiered path.
            let over = base
                .query(q, &QueryOptions::traced(10).with_tier(tier))
                .unwrap();
            let brute = brute_force_knn(&data, q, 10);
            for (((g, w), o), b) in got
                .neighbors
                .iter()
                .zip(&want)
                .zip(&over.neighbors)
                .zip(&brute)
            {
                assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "{tier:?} vs f64");
                assert_eq!(g.dist.to_bits(), o.dist.to_bits(), "{tier:?} vs override");
                assert_eq!(g.dist.to_bits(), b.dist.to_bits(), "{tier:?} vs brute");
            }
            let trace = got.trace.unwrap();
            lb += trace.lb_evals;
            rerank += trace.rerank_evals;
        }
        assert!(lb > 0, "{tier:?}: phase 1 never scanned a row");
        assert!(rerank <= lb, "{tier:?}: more re-ranks than phase-1 rows");
    }
}

#[test]
fn tiered_degraded_queries_stay_exact() {
    // Failover searches inherit the query's tier and the merged degraded
    // answer must still be bit-identical to brute force.
    let pts = ClusteredGenerator::new(DIM, 8, 0.03).generate(2500, 33);
    let data: Vec<(Point, u64)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u64))
        .collect();
    let queries = ClusteredGenerator::new(DIM, 8, 0.03).generate(8, 83);
    for tier in [ScanTier::F32, ScanTier::Q8] {
        let e = ParallelKnnEngine::builder(DIM)
            .disks(DISKS)
            .replicas(1)
            .scan_tier(tier)
            .build(&pts)
            .unwrap();
        e.faults().fail(0);
        for q in &queries {
            let got = e.query(q, &QueryOptions::traced(10)).unwrap();
            let brute = brute_force_knn(&data, q, 10);
            for (g, b) in got.neighbors.iter().zip(&brute) {
                assert_eq!(g.dist.to_bits(), b.dist.to_bits(), "{tier:?} degraded");
            }
            let trace = got.trace.unwrap();
            assert!(trace.degraded.is_some(), "fault never engaged");
        }
    }
}

#[test]
fn batch_handles_edge_cases() {
    let (par, _, queries) = setup(KnnAlgorithm::Rkv);
    // Empty batch.
    assert!(par.knn_batch_with(&[], 10, 4).unwrap().is_empty());
    // More workers than queries, and a zero worker count (clamped to 1).
    for workers in [64, 0] {
        let got = par.knn_batch_with(&queries[..2], 3, workers).unwrap();
        assert_eq!(got.len(), 2);
        for (res, trace) in &got {
            assert_eq!(res.len(), 3);
            assert!(trace.total_pages() > 0);
        }
    }
    // Dimension mismatch is rejected.
    let wrong = Point::new(vec![0.5; DIM + 1]).unwrap();
    assert!(par.knn_batch_with(&[wrong], 1, 2).is_err());
}

/// A trace with its measured wall time cleared: every other field is a
/// deterministic function of the query and the engine state.
fn work_trace(mut trace: QueryTrace) -> QueryTrace {
    trace.wall_time = Duration::ZERO;
    trace
}

#[test]
fn scoped_single_query_replays_the_pooled_trace() {
    // One stage machine answers every query: a scoped single query runs
    // it inline, so its whole trace — healthy and degraded — equals the
    // pooled query's and the scoped batch's.
    let pts = ClusteredGenerator::new(DIM, 8, 0.03).generate(4000, 21);
    let queries = ClusteredGenerator::new(DIM, 8, 0.03).generate(16, 77);
    let build = |execution| {
        ParallelKnnEngine::builder(DIM)
            .disks(DISKS)
            .replicas(1)
            .execution(execution)
            .build(&pts)
            .unwrap()
    };
    let scoped = build(ExecutionMode::Scoped);
    let pooled = build(ExecutionMode::Pooled);
    for degraded in [false, true] {
        if degraded {
            scoped.faults().fail(3);
            pooled.faults().fail(3);
        }
        let opts = QueryOptions::traced(10);
        let batch = scoped.query_batch(&queries, &opts.with_workers(2)).unwrap();
        for (qi, (q, b)) in queries.iter().zip(batch).enumerate() {
            let s = scoped.query(q, &opts).unwrap();
            let p = pooled.query(q, &opts).unwrap();
            assert_eq!(s.neighbors, p.neighbors, "q{qi}");
            assert_eq!(s.neighbors, b.neighbors, "q{qi}");
            let st = work_trace(s.trace.unwrap());
            assert_eq!(st.degraded.is_some(), degraded, "q{qi}");
            assert_eq!(st, work_trace(p.trace.unwrap()), "scoped vs pooled, q{qi}");
            assert_eq!(st, work_trace(b.trace.unwrap()), "single vs batch, q{qi}");
        }
    }
}
