//! Extension experiment 11: open-loop serve-layer sweep — offered load vs
//! modeled tail latency, with and without cross-query page coalescing.
//!
//! The serve layer (PR 6) admits thousands of concurrent submissions into
//! bounded per-disk queues; when several in-flight queries of one wave
//! need the same leaf page, the first read serves them all. Coalescing
//! never changes *what* a query computes — answers and logical page
//! traces are bit-identical to the plain pooled pipeline (asserted here
//! on every query) — it only shrinks the *physical* read stream each disk
//! must serve, raising the saturation throughput.
//!
//! The sweep measures that effect open-loop: whole waves (the serve
//! layer's submission unit) arrive on a fixed schedule regardless of
//! completions (no coordinated omission), each query queues its per-disk
//! *physical* service demand behind the previous work, a coalesced-only
//! query waits for the backlog carrying the read it rides, and a query's
//! latency is the slowest touched disk's completion minus the arrival
//! time. Latencies feed a
//! `parsim_obs` log-bucketed histogram and the reported p50/p99/p999 are
//! read back off it exactly as a production dashboard would. All columns
//! are host-independent: service times come from the paper's disk model
//! over live engine traces, never from wall clocks.

use parsim_datagen::{ClusteredGenerator, DataGenerator};
use parsim_geometry::Point;
use parsim_obs::{Histogram, HistogramConfig};
use parsim_parallel::{
    AdmissionConfig, ExecutionMode, ParallelKnnEngine, QueryOptions, QueryTrace,
};
use parsim_storage::DiskModel;

use crate::report::{fmt, ExperimentReport};

use super::common::scaled;

const DIM: usize = 8;
const DISKS: usize = 8;
const K: usize = 10;
const WAVES: usize = 16;
const WAVE_SIZE: usize = 6;
/// Open-loop arrivals per (mode, load) cell: the wave trace stream is
/// replayed cyclically until this many queries have arrived, so the p999
/// rests on thousands of samples instead of one batch.
const ARRIVALS: usize = 4_000;
/// Offered load as a multiple of the *uncoalesced* saturation throughput.
const LOADS: [f64; 5] = [0.5, 0.8, 0.95, 1.1, 1.3];

/// One open-loop cell: a (mode, offered load) pair.
pub struct ServeRow {
    /// `"plain"` (pooled, no coalescing) or `"coalesced"`.
    pub mode: &'static str,
    /// Offered load as a multiple of the uncoalesced saturation qps.
    pub offered: f64,
    /// Offered arrival rate, queries per modeled second.
    pub offered_qps: f64,
    /// Modeled median latency, milliseconds (histogram quantile).
    pub p50_ms: f64,
    /// Modeled 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Modeled 99.9th-percentile latency, milliseconds.
    pub p999_ms: f64,
}

/// Everything `measure` learns: the sweep plus the reconciliation facts
/// the report notes cite.
pub struct ServeMeasurement {
    /// Queries in the live trace batch (`WAVES * WAVE_SIZE`).
    pub queries: usize,
    /// Total coalesced reads summed over every per-query trace.
    pub trace_coalesced: u64,
    /// `parsim_coalesced_reads_total` from the engine's metrics registry —
    /// must equal [`ServeMeasurement::trace_coalesced`] exactly.
    pub registry_coalesced: u64,
    /// Logical pages the batch requested (identical in both modes).
    pub logical_pages: u64,
    /// Saturation throughput without coalescing, queries per second.
    pub sat_plain_qps: f64,
    /// Saturation throughput with coalescing, queries per second.
    pub sat_coalesced_qps: f64,
    /// The open-loop sweep, plain and coalesced interleaved per load.
    pub rows: Vec<ServeRow>,
}

/// A wave of near-identical queries: the base point plus small
/// deterministic perturbations, so wave members genuinely share leaf
/// pages (the workload coalescing is built for).
fn wave_queries(base: &Point) -> Vec<Point> {
    (0..WAVE_SIZE)
        .map(|j| {
            let coords = base
                .coords()
                .iter()
                .enumerate()
                .map(|(c, &v)| {
                    let sign = if (j + c) % 2 == 0 { 1.0 } else { -1.0 };
                    (v + sign * j as f64 * 1e-4).clamp(0.0, 1.0)
                })
                .collect();
            Point::from_vec(coords)
        })
        .collect()
}

/// Per-disk demand of one query: `(physical_seconds, rides)` where
/// `physical_seconds` is the modeled service time of the reads the query
/// pays for itself (logical pages minus coalesced-away reads) and `rides`
/// marks disks the query touches only through coalesced reads — it adds
/// no work there but must still wait for the backlog carrying the read
/// it rides.
fn service_seconds(trace: &QueryTrace, model: &DiskModel) -> Vec<(f64, bool)> {
    trace
        .per_disk_pages
        .iter()
        .zip(&trace.per_disk_coalesced)
        .map(|(&pages, &coal)| {
            let physical = model.service_time(pages - coal).as_secs_f64();
            (physical, pages > 0 && pages == coal)
        })
        .collect()
}

/// Replays the per-wave service demands open-loop at `rate_qps` (queries
/// per second; a whole wave of [`WAVE_SIZE`] queries arrives together,
/// matching the serve layer's submission unit) and returns (p50, p99,
/// p999) per-query latency in milliseconds, read back off a `parsim_obs`
/// log-bucketed histogram.
fn open_loop(waves: &[Vec<Vec<(f64, bool)>>], rate_qps: f64) -> (f64, f64, f64) {
    let hist = Histogram::new(HistogramConfig::latency_micros());
    let mut free = [0.0f64; DISKS];
    let arrivals = ARRIVALS / WAVE_SIZE;
    for i in 0..arrivals {
        let arrive = (i * WAVE_SIZE) as f64 / rate_qps;
        for demand in &waves[i % waves.len()] {
            let mut done = arrive;
            for (d, &(s, rides)) in demand.iter().enumerate() {
                if s > 0.0 {
                    free[d] = free[d].max(arrive) + s;
                    done = done.max(free[d]);
                } else if rides {
                    // Coalesced-only: no work added, but the query
                    // completes no earlier than the backlog carrying the
                    // read it rides (its wave's carrier was just queued).
                    done = done.max(free[d]);
                }
            }
            hist.record(((done - arrive) * 1e6) as u64);
        }
    }
    let snap = hist.snapshot();
    let ms = |q: f64| snap.quantile(q) as f64 / 1e3;
    (ms(0.50), ms(0.99), ms(0.999))
}

/// Runs the live traced batch on both engines (asserting bit-identical
/// answers), then sweeps the open-loop model over the offered loads.
pub fn measure(scale: f64) -> ServeMeasurement {
    let n = scaled(6_000, scale);
    let data = ClusteredGenerator::new(DIM, 10, 0.05).generate(n, 61);
    let bases = ClusteredGenerator::new(DIM, 10, 0.05).generate(WAVES, 62);

    let coalesced = ParallelKnnEngine::builder(DIM)
        .disks(DISKS)
        .admission(AdmissionConfig::unbounded().with_coalescing(true))
        .metrics(true)
        .build(&data)
        .expect("coalescing engine builds");
    let plain = ParallelKnnEngine::builder(DIM)
        .disks(DISKS)
        .execution(ExecutionMode::Pooled)
        .build(&data)
        .expect("plain pooled engine builds");
    let model = *plain.array().model();
    let opts = QueryOptions::traced(K);

    let mut traces_c: Vec<QueryTrace> = Vec::new();
    let mut traces_p: Vec<QueryTrace> = Vec::new();
    for base in &bases {
        let queries = wave_queries(base);
        let wave = coalesced
            .query_wave(&queries, &opts)
            .expect("wave submits")
            .into_iter()
            .map(|r| r.expect("wave query succeeds"));
        for (q, got) in queries.iter().zip(wave) {
            let want = plain.query(q, &opts).expect("plain query succeeds");
            assert_eq!(
                got.neighbors, want.neighbors,
                "coalescing must not change answers"
            );
            let (tc, tp) = (got.trace.expect("traced"), want.trace.expect("traced"));
            assert_eq!(
                tc.per_disk_pages, tp.per_disk_pages,
                "coalescing must not change logical traces"
            );
            traces_c.push(tc);
            traces_p.push(tp);
        }
    }

    let trace_coalesced: u64 = traces_c.iter().map(QueryTrace::coalesced_reads).sum();
    let registry_coalesced = coalesced
        .metrics()
        .expect("metrics on")
        .snapshot()
        .counter_total("parsim_coalesced_reads_total");
    let logical_pages: u64 = traces_p.iter().map(|t| t.total_pages()).sum();

    // Saturation: the busiest disk's total physical work gates the batch.
    let saturation = |traces: &[QueryTrace]| -> f64 {
        let busiest = (0..DISKS)
            .map(|d| {
                let physical: u64 = traces
                    .iter()
                    .map(|t| t.per_disk_pages[d] - t.per_disk_coalesced[d])
                    .sum();
                model.service_time(physical).as_secs_f64()
            })
            .fold(0.0f64, f64::max);
        traces.len() as f64 / busiest.max(1e-12)
    };
    let sat_plain_qps = saturation(&traces_p);
    let sat_coalesced_qps = saturation(&traces_c);

    let group = |traces: &[QueryTrace]| -> Vec<Vec<Vec<(f64, bool)>>> {
        traces
            .chunks(WAVE_SIZE)
            .map(|wave| wave.iter().map(|t| service_seconds(t, &model)).collect())
            .collect()
    };
    let svc_p = group(&traces_p);
    let svc_c = group(&traces_c);

    let mut rows = Vec::new();
    for &offered in &LOADS {
        let offered_qps = offered * sat_plain_qps;
        for (mode, svc) in [("plain", &svc_p), ("coalesced", &svc_c)] {
            let (p50_ms, p99_ms, p999_ms) = open_loop(svc, offered_qps);
            rows.push(ServeRow {
                mode,
                offered,
                offered_qps,
                p50_ms,
                p99_ms,
                p999_ms,
            });
        }
    }

    ServeMeasurement {
        queries: traces_p.len(),
        trace_coalesced,
        registry_coalesced,
        logical_pages,
        sat_plain_qps,
        sat_coalesced_qps,
        rows,
    }
}

/// Runs the open-loop serve sweep and tabulates it.
pub fn run(scale: f64) -> ExperimentReport {
    let m = measure(scale);
    ExperimentReport {
        id: "ext11",
        title: "EXTENSION — open-loop serve sweep: offered load vs modeled tail latency, with \
                and without cross-query page coalescing",
        paper: "beyond the paper: the serve layer admits open-loop arrivals into bounded \
                per-disk queues and coalesces duplicate leaf reads across in-flight queries of \
                a wave; answers and logical traces stay bit-identical while the physical read \
                stream shrinks, so the same disks sustain a higher offered load before the \
                tail explodes",
        headers: vec![
            "mode".into(),
            "offered (x plain sat)".into(),
            "offered qps".into(),
            "p50 ms".into(),
            "p99 ms".into(),
            "p999 ms".into(),
        ],
        rows: m
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.to_string(),
                    fmt(r.offered, 2),
                    fmt(r.offered_qps, 1),
                    fmt(r.p50_ms, 3),
                    fmt(r.p99_ms, 3),
                    fmt(r.p999_ms, 3),
                ]
            })
            .collect(),
        notes: vec![
            format!(
                "coalescing removed {} of {} logical page reads ({} queries in {} waves of {}); \
                 registry counter reconciles exactly with the per-query traces ({} == {})",
                m.trace_coalesced,
                m.logical_pages,
                m.queries,
                WAVES,
                WAVE_SIZE,
                m.registry_coalesced,
                m.trace_coalesced,
            ),
            format!(
                "modeled saturation throughput: plain {} qps, coalesced {} qps ({}x)",
                fmt(m.sat_plain_qps, 1),
                fmt(m.sat_coalesced_qps, 1),
                fmt(m.sat_coalesced_qps / m.sat_plain_qps.max(1e-12), 2),
            ),
            "all columns are host-independent: modeled service times over live traces, \
             replayed open-loop (arrivals never wait for completions, so there is no \
             coordinated omission); percentiles come off a parsim-obs log-bucketed histogram"
                .to_string(),
        ],
    }
}
