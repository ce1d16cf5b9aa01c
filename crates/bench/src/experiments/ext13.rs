//! Extension experiment 13: streaming ingest — sustained insert rate
//! under an open-loop query stream, with online reorganize.
//!
//! The streaming-ingest subsystem (PR 8) buffers writes in a bounded
//! delta overlay that every k-NN query merges exactly, and drains the
//! buffer with a background shadow rebuild that swaps the engine state
//! atomically under live readers. This experiment drives a live engine
//! through three phases and **asserts in-measure** that the answers never
//! drift from a from-scratch bulk load of the same logical contents:
//!
//! 1. **pre-reorganize churn** — a single-threaded insert/remove stream
//!    interleaved with queries against the growing delta;
//! 2. an explicit **online reorganize** (shadow rebuild + swap), after
//!    which the same probes must still answer bit-identically;
//! 3. **concurrent serve** — a writer thread streaming inserts (tripping
//!    background shadow rebuilds via the size threshold) while query
//!    threads serve an open-loop stream against the same engine.
//!
//! Reported per phase: write and query counts, the sustained insert rate
//! on this host (wall-clock — indicative only), the modeled query cost
//! (pages on the busiest disk, host-independent), and the bit-identity
//! verdict. The engine's metrics registry must **reconcile exactly**:
//! every issued write appears in the ingest counters exactly once, across
//! all rebuild swaps.

use std::time::Instant;

use parsim_datagen::{DataGenerator, UniformGenerator};
use parsim_geometry::Point;
use parsim_parallel::{EngineBuilder, IngestConfig, ParallelKnnEngine};

use crate::report::{fmt, ExperimentReport};

use super::common::scaled;

const DIM: usize = 8;
const DISKS: usize = 8;
const K: usize = 10;
const PROBES: usize = 12;

/// One phase of the ingest workload.
pub struct IngestRow {
    /// `"churn"`, `"reorganize"`, or `"concurrent-serve"`.
    pub phase: &'static str,
    /// Writes applied in the phase (inserts + removes).
    pub writes: usize,
    /// Queries answered in the phase.
    pub queries: usize,
    /// Sustained insert rate on this host, writes/s (indicative only;
    /// 0 for the reorganize phase, which applies no writes).
    pub write_rate_per_s: f64,
    /// Mean modeled query cost: pages on the busiest disk
    /// (host-independent; 0 for the reorganize phase).
    pub avg_max_pages: f64,
    /// Wall-clock of the phase, milliseconds (indicative only).
    pub measured_ms: f64,
    /// Whether the probe answers were bit-identical to a from-scratch
    /// bulk load of the engine's logical contents after the phase.
    pub bit_identical: bool,
}

/// Everything `measure` learns.
pub struct IngestMeasurement {
    /// The phases in order.
    pub rows: Vec<IngestRow>,
    /// Total inserts issued across all phases.
    pub inserts_issued: u64,
    /// Total removes issued across all phases.
    pub removes_issued: u64,
    /// `parsim_rebuilds_total` at the end (explicit + background).
    pub rebuilds: u64,
}

/// Normalized answer for bit-exact comparison: `(dist bits, item)`, sorted.
fn normalized(engine: &ParallelKnnEngine, q: &Point) -> Vec<(u64, u64)> {
    let (neighbors, _) = engine.knn(q, K).expect("probe query");
    let mut v: Vec<(u64, u64)> = neighbors
        .iter()
        .map(|nb| (nb.dist.to_bits(), nb.item))
        .collect();
    v.sort_unstable();
    v
}

/// Asserts the live engine answers every probe bit-identically to a
/// fresh bulk load of `contents`.
fn assert_bit_identity(
    engine: &ParallelKnnEngine,
    contents: &[(Point, u64)],
    probes: &[Point],
    phase: &str,
) -> bool {
    let fresh = EngineBuilder::new(DIM)
        .disks(DISKS)
        .build_with_items(contents.to_vec())
        .expect("reference bulk load");
    for q in probes {
        assert_eq!(
            normalized(engine, q),
            normalized(&fresh, q),
            "{phase}: live engine diverged from fresh bulk load"
        );
    }
    true
}

/// Runs the three-phase ingest workload with in-measure assertions.
pub fn measure(scale: f64) -> IngestMeasurement {
    let base_n = scaled(6_000, scale);
    let per_phase = scaled(1_500, scale);
    let initial = UniformGenerator::new(DIM).generate(base_n, 81);
    let probes = UniformGenerator::new(DIM).generate(PROBES, 82);

    let engine = EngineBuilder::new(DIM)
        .disks(DISKS)
        .metrics(true)
        .ingest(
            IngestConfig::new(base_n.max(4 * per_phase)).with_rebuild_threshold(per_phase.max(64)),
        )
        .build(&initial)
        .expect("engine builds on experiment data");

    let mut contents: Vec<(Point, u64)> = initial
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u64))
        .collect();
    let mut inserts_issued = 0u64;
    let mut removes_issued = 0u64;
    let mut rows = Vec::new();

    // Phase 1: single-threaded churn — inserts and removes interleaved
    // with queries against the growing delta overlay.
    let stream = UniformGenerator::new(DIM).generate(per_phase, 83);
    let mut pages = 0u64;
    let mut queries = 0usize;
    let start = Instant::now();
    for (i, p) in stream.iter().enumerate() {
        if i % 5 == 4 {
            let (_, id) = contents.remove((i * 7) % contents.len());
            engine.remove(id).expect("remove accepted");
            removes_issued += 1;
        } else {
            let id = engine.insert(p.clone()).expect("insert accepted");
            contents.push((p.clone(), id));
            inserts_issued += 1;
        }
        if i % 25 == 0 {
            let q = &probes[i % probes.len()];
            let (_, cost) = engine.knn(q, K).expect("interleaved query");
            pages += cost.max_reads;
            queries += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let bit = assert_bit_identity(&engine, &contents, &probes, "churn");
    rows.push(IngestRow {
        phase: "churn",
        writes: stream.len(),
        queries,
        write_rate_per_s: stream.len() as f64 / elapsed.max(1e-9),
        avg_max_pages: pages as f64 / queries.max(1) as f64,
        measured_ms: elapsed * 1e3,
        bit_identical: bit,
    });

    // Phase 2: explicit online reorganize — shadow rebuild + atomic swap
    // drains the delta; the same probes must not move by a bit.
    let start = Instant::now();
    engine.reorganize().expect("online reorganize");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(engine.delta_size(), 0, "reorganize drained the delta");
    let bit = assert_bit_identity(&engine, &contents, &probes, "reorganize");
    rows.push(IngestRow {
        phase: "reorganize",
        writes: 0,
        queries: 0,
        write_rate_per_s: 0.0,
        avg_max_pages: 0.0,
        measured_ms: elapsed * 1e3,
        bit_identical: bit,
    });

    // Phase 3: concurrent serve — a writer thread streams inserts
    // (tripping background shadow rebuilds) while two query threads
    // serve an open-loop stream against the same engine.
    let stream = UniformGenerator::new(DIM).generate(per_phase, 84);
    let serve = UniformGenerator::new(DIM).generate(PROBES * 4, 85);
    let start = Instant::now();
    let served: usize = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            for p in &stream {
                engine
                    .insert(p.clone())
                    .expect("concurrent insert accepted");
            }
        });
        let askers: Vec<_> = (0..2usize)
            .map(|t| {
                let (serve, engine) = (&serve, &engine);
                s.spawn(move || {
                    let mut n = 0usize;
                    for q in serve.iter().skip(t).step_by(2) {
                        let (res, _) = engine.knn(q, K).expect("open-loop query");
                        assert_eq!(res.len(), K);
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        writer.join().expect("writer thread");
        askers
            .into_iter()
            .map(|h| h.join().expect("query thread"))
            .sum()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let next = contents.iter().map(|&(_, id)| id).max().unwrap_or(0) + 1;
    contents.extend(
        stream
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), next + i as u64)),
    );
    inserts_issued += stream.len() as u64;
    engine.flush().expect("final drain");
    let bit = assert_bit_identity(&engine, &contents, &probes, "concurrent-serve");
    rows.push(IngestRow {
        phase: "concurrent-serve",
        writes: stream.len(),
        queries: served,
        write_rate_per_s: stream.len() as f64 / elapsed.max(1e-9),
        avg_max_pages: 0.0,
        measured_ms: elapsed * 1e3,
        bit_identical: bit,
    });

    // The registry must reconcile exactly: every issued write counted
    // once, none rejected, across every rebuild swap.
    let s = engine.metrics().expect("metrics enabled").snapshot();
    let rebuilds = s.counter_total("parsim_rebuilds_total");
    let registry_reconciles = s.counter_total("parsim_ingest_inserts_total") == inserts_issued
        && s.counter_total("parsim_ingest_removes_total") == removes_issued
        && s.counter_total("parsim_ingest_rejected_total") == 0
        && s.counter_total("parsim_rebuilds_failed_total") == 0;
    assert!(
        registry_reconciles,
        "ingest counters do not reconcile: {} inserts counted vs {} issued, \
         {} removes counted vs {} issued",
        s.counter_total("parsim_ingest_inserts_total"),
        inserts_issued,
        s.counter_total("parsim_ingest_removes_total"),
        removes_issued,
    );
    assert!(rebuilds >= 2, "explicit + background rebuilds expected");

    IngestMeasurement {
        rows,
        inserts_issued,
        removes_issued,
        rebuilds,
    }
}

/// Runs the ingest workload and tabulates it.
pub fn run(scale: f64) -> ExperimentReport {
    let m = measure(scale);
    let churn_rate = m.rows[0].write_rate_per_s;
    let concurrent_rate = m.rows[2].write_rate_per_s;
    ExperimentReport {
        id: "ext13",
        title: "EXTENSION — streaming ingest: sustained insert rate under an open-loop query \
                stream, with online reorganize (answers bit-identical to a fresh bulk load at \
                every phase boundary)",
        paper: "beyond the paper: the paper's structures are bulk-loaded and static; here \
                writes flow through a bounded delta overlay merged exactly into every k-NN \
                answer, drained by a background shadow rebuild that swaps the engine state \
                atomically under live readers",
        headers: vec![
            "phase".into(),
            "writes".into(),
            "queries".into(),
            "writes/s".into(),
            "avg max pages".into(),
            "measured ms".into(),
            "bit-identical".into(),
        ],
        rows: m
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.phase.to_string(),
                    r.writes.to_string(),
                    r.queries.to_string(),
                    fmt(r.write_rate_per_s, 1),
                    fmt(r.avg_max_pages, 3),
                    fmt(r.measured_ms, 3),
                    if r.bit_identical { "yes" } else { "no" }.to_string(),
                ]
            })
            .collect(),
        notes: vec![
            format!(
                "sustained {} writes/s single-threaded and {} writes/s while two query \
                 threads served an open-loop stream (wall-clock, indicative); {} shadow \
                 rebuilds ran (1 explicit + {} background)",
                fmt(churn_rate, 0),
                fmt(concurrent_rate, 0),
                m.rebuilds,
                m.rebuilds.saturating_sub(1),
            ),
            format!(
                "registry reconciled exactly: {} inserts and {} removes issued, every one \
                 counted once across all rebuild swaps, none rejected",
                m.inserts_issued, m.removes_issued
            ),
        ],
    }
}
