//! The traced run: every layer's public calls timed from outside, each
//! wrapped in a span, on the workload's own data.
//!
//! Nothing here is judged against a bound. The numbers say where an
//! end-to-end metric's time goes and which layer a change moved; the
//! README lists which end-to-end metric each one should move.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use parsim_geometry::{kernel, Point};
use parsim_index::{
    forest_knn_traced_ordered, knn::brute_force_knn, LshTables, ScanOrder, ScanTier, SpatialTree,
    TreeParams,
};
use parsim_parallel::{
    EngineBuilder, EngineError, ExecutionMode, IngestConfig, ParallelKnnEngine, QueryOptions,
    QueryResult,
};
use parsim_storage::{QueryCost, VectorArena};

use crate::check::Checker;
use crate::counts::traced_pass;
use crate::endtoend::{set_up, SetUp};
use crate::flat::FlatIndex;
use crate::report::{Metric, Report};
use crate::span::{SpanId, Tracer};
use crate::stats::{mean, median};
use crate::workload::{Spec, APPROX_PROBES, DELTA_CAPACITY, DISKS, K};

/// Every per-layer metric with its unit, in the order `BENCHMARK.json`
/// lists them. A metric whose layer a workload does not exercise (the LSH
/// rows off `approx48`) reads 0.
pub const METRICS: [(&str, &str); 46] = [
    ("geometry.dist2_ns_row", "ns"),
    ("geometry.dist2_bounded_ns_row", "ns"),
    ("geometry.dist2_batch_ns_row", "ns"),
    ("geometry.dist2_f32_batch_ns_row", "ns"),
    ("geometry.dist2_q8_batch_ns_row", "ns"),
    ("storage.arena_push_ns_row", "ns"),
    ("storage.arena_flat_scan_ns_row", "ns"),
    ("decluster.assign_ns_point", "ns"),
    ("decluster.max_over_avg_load", "ratio"),
    ("decluster.disks_hit_per_query", "count"),
    ("index.bulk_load_s", "s"),
    ("index.forest_knn_us", "us"),
    ("index.brute_force_ns_row", "ns"),
    ("index.pages_per_query", "count"),
    ("index.dist_evals_per_query", "count"),
    ("index.rows_visited_share", "share"),
    ("index.dist_evals_saved_share", "share"),
    ("index.pruned_per_query", "count"),
    ("index.lsh_fit_s", "s"),
    ("index.lsh_probe_seq_us", "us"),
    ("index.lsh_candidates_per_query", "count"),
    ("index.lsh_empty_probe_share", "share"),
    ("parallel.build_s", "s"),
    ("parallel.query_us.pooled", "us"),
    ("parallel.query_us.scoped", "us"),
    ("parallel.query_us.batch1", "us"),
    ("parallel.dispatch_us.pooled", "us"),
    ("parallel.dispatch_us.scoped", "us"),
    ("parallel.submit_us", "us"),
    ("parallel.wait_us", "us"),
    ("parallel.tiny_query_us.pooled", "us"),
    ("parallel.tiny_query_us.scoped", "us"),
    ("parallel.tier_us.f32", "us"),
    ("parallel.tier_us.q8", "us"),
    ("parallel.order_us.energy", "us"),
    ("parallel.insert_us", "us"),
    ("parallel.remove_us", "us"),
    ("parallel.reorganize_s", "s"),
    ("parallel.overlay_us_per_delta_row", "us"),
    ("parallel.exact_query_us", "us"),
    ("parallel.approx_query_us", "us"),
    ("parallel.trace_overhead_share", "share"),
    ("obs.metrics_overhead_share", "share"),
    ("obs.export_us", "us"),
    ("calib.flat_ms", "ms"),
    ("trace.overhead_share", "share"),
];

/// Timed loops a run's `--seconds` are shared among.
const SLICES: f64 = 32.0;
/// Queries the row-kernel loops sweep over all rows.
const KERNEL_QUERIES: usize = 8;
/// Queries the naive `brute_force_knn` answers; each costs tens of ms.
const BRUTE_QUERIES: usize = 2;
/// Queries per block when two variants alternate.
const AB_BLOCK: usize = 16;
/// Points of the engine that shows the fixed cost of a query.
const TINY_POINTS: usize = 64;
/// Write steps of the write-path section: the delta ends at twice this.
const WRITE_STEPS: usize = 2000;

type Answer = Result<QueryResult, EngineError>;
type Values = Vec<(&'static str, f64)>;

/// Answers pool queries one at a time through `ask` until `budget` is
/// used; every answer is checked. Returns the mean µs per query.
fn time_queries(
    checker: &mut Checker,
    queries: &[Point],
    budget: Duration,
    mut ask: impl FnMut(&Point) -> Answer,
) -> f64 {
    let started = Instant::now();
    let mut spent = Duration::ZERO;
    let mut asked = 0;
    while asked == 0 || started.elapsed() < budget {
        let query = &queries[asked % queries.len()];
        let t = Instant::now();
        let answer = ask(query);
        spent += t.elapsed();
        checker.answer(query, answer, None);
        asked += 1;
    }
    1e6 * spent.as_secs_f64() / asked as f64
}

/// Alternates blocks of the same queries between two variants until
/// `budget` is used, so that both see the same host phases; the variant
/// that goes first alternates too. Returns each one's mean µs per query.
fn time_ab(
    checker: &mut Checker,
    queries: &[Point],
    budget: Duration,
    mut a: impl FnMut(&Point) -> Answer,
    mut b: impl FnMut(&Point) -> Answer,
) -> (f64, f64) {
    let started = Instant::now();
    let mut spent = [Duration::ZERO; 2];
    let mut blocks = 0;
    while blocks == 0 || started.elapsed() < budget {
        let from = blocks * AB_BLOCK % queries.len();
        for which in [blocks % 2, 1 - blocks % 2] {
            for query in queries.iter().cycle().skip(from).take(AB_BLOCK) {
                let t = Instant::now();
                let answer = if which == 0 { a(query) } else { b(query) };
                spent[which] += t.elapsed();
                checker.answer(query, answer, None);
            }
        }
        blocks += 1;
    }
    let per_query = |d: Duration| 1e6 * d.as_secs_f64() / (blocks * AB_BLOCK) as f64;
    (per_query(spent[0]), per_query(spent[1]))
}

/// The traced run's state.
struct Layers<'a> {
    tracer: Tracer,
    root: SpanId,
    checker: Checker,
    queries: &'a [Point],
    /// Time one timed loop may use.
    slice: Duration,
    values: Values,
}

impl Layers<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(METRICS.iter().any(|(n, _)| *n == name), "{name}");
        self.values.push((name, value));
    }

    /// [`time_queries`] for one slice, under a span.
    fn timed(&mut self, span: &'static str, ask: impl FnMut(&Point) -> Answer) -> f64 {
        let id = self.tracer.begin(span, Some(self.root), None);
        let us = time_queries(&mut self.checker, self.queries, self.slice, ask);
        self.tracer.end(id);
        us
    }

    /// [`time_ab`] for two slices, under a span.
    fn timed_ab(
        &mut self,
        span: &'static str,
        a: impl FnMut(&Point) -> Answer,
        b: impl FnMut(&Point) -> Answer,
    ) -> (f64, f64) {
        let id = self.tracer.begin(span, Some(self.root), None);
        let us = time_ab(&mut self.checker, self.queries, 2 * self.slice, a, b);
        self.tracer.end(id);
        us
    }
}

/// The builder every comparison engine starts from: the workload's
/// dimension and disk count, exact tier only.
fn plain_builder(spec: &Spec, execution: ExecutionMode) -> EngineBuilder {
    ParallelKnnEngine::builder(spec.dim)
        .disks(DISKS)
        .execution(execution)
}

/// Runs the traced measurement of `spec` within about `seconds` and
/// reports every per-layer metric; the spans go to `trace_path`.
pub fn run(spec: &Spec, seed: u64, seconds: f64, smoke: bool, trace_path: PathBuf) -> Report {
    let mut report = Report::new(spec.name, seed, smoke);
    match measure(spec, seed, seconds, &trace_path) {
        Ok((checker, values)) => {
            report.attempted = checker.attempted;
            report.failed = checker.failed;
            report.failures = checker.failures;
            for (name, unit) in METRICS {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(f64::NAN, |&(_, v)| v);
                report.metrics.push(Metric { name, value, unit });
            }
        }
        Err(e) => {
            report.failed = 1;
            report.failures.push(format!("engine error: {e}"));
        }
    }
    report
}

fn measure(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace_path: &std::path::Path,
) -> Result<(Checker, Values), EngineError> {
    let mut tracer = Tracer::new();
    let root = tracer.begin("run", None, None);
    let n = spec.n;
    let dim = spec.dim;
    let exact = QueryOptions::new(K);

    // ---- every engine and tree first -------------------------------------
    // An engine built after others were dropped lands in the holes they
    // left in the heap and answers slower (see `endtoend::run`). So all
    // that are compared are built before anything is freed: the workload's
    // own, then the bare trees, then the comparison engines.
    let setup = tracer.begin("setup", Some(root), None);
    let SetUp {
        inputs,
        engine: primary,
        build_s,
        ..
    } = set_up(spec, seed)?;
    tracer.end(setup);
    let points = &inputs.points;

    // ---- decluster, and the per-disk trees built the way the engine
    // builds them ----------------------------------------------------------
    let declusterer = primary.declusterer();
    let (disk_of, assign_s) = tracer.span("decluster.assign", Some(root), || {
        points
            .iter()
            .enumerate()
            .map(|(i, p)| declusterer.assign(i as u64, p))
            .collect::<Vec<usize>>()
    });
    let config = primary.config();
    let mut groups: Vec<Vec<(Point, u64)>> = vec![Vec::new(); primary.disks()];
    for (i, (p, &disk)) in points.iter().zip(&disk_of).enumerate() {
        groups[disk].push((p.clone(), i as u64));
    }
    let params = TreeParams::for_dim(dim, config.variant)
        .map_err(|e| EngineError::Internal(e.to_string()))?
        .with_scan_order(config.order);
    let (trees, bulk_load_s) = tracer.span("index.bulk_load", Some(root), || {
        groups
            .into_iter()
            .map(|g| SpatialTree::bulk_load(params, g))
            .collect::<Result<Vec<_>, _>>()
    });
    let trees = trees.map_err(|e| EngineError::Internal(e.to_string()))?;

    let engines = tracer.begin("setup.comparison_engines", Some(root), None);
    let other_mode = match spec.execution {
        ExecutionMode::Pooled => ExecutionMode::Scoped,
        ExecutionMode::Scoped => ExecutionMode::Pooled,
    };
    let other = plain_builder(spec, other_mode).build(points)?;
    // The scan layout is fixed at build time, so the energy order needs an
    // engine of its own.
    let energy = plain_builder(spec, spec.execution)
        .scan_order(ScanOrder::Energy)
        .build(points)?;
    let with_metrics = plain_builder(spec, spec.execution)
        .metrics(true)
        .build(points)?;
    // The write workload's own engine takes the writes; elsewhere one that
    // matches it does.
    let writer = if spec.writes {
        None
    } else {
        let ingest = IngestConfig::new(DELTA_CAPACITY);
        Some(
            plain_builder(spec, ExecutionMode::Pooled)
                .ingest(ingest)
                .build(points)?,
        )
    };
    tracer.end(engines);

    let flat = FlatIndex::new(dim, points.iter().map(Point::coords));
    let mut l = Layers {
        tracer,
        root,
        checker: Checker::new(flat, !spec.approx),
        queries: &inputs.queries,
        slice: Duration::from_secs_f64(seconds / SLICES),
        values: Vec::new(),
    };
    l.set("parallel.build_s", build_s);
    l.set("decluster.assign_ns_point", 1e9 * assign_s / n as f64);
    l.set("index.bulk_load_s", bulk_load_s);
    let loads = primary.load_distribution();
    let max_load = loads.iter().copied().max().unwrap_or(0) as f64;
    l.set(
        "decluster.max_over_avg_load",
        max_load * loads.len() as f64 / n as f64,
    );

    // ---- calibration: the frozen flat scan, which also gives the true
    // k-th distances the bounded kernel needs ------------------------------
    let kernel_queries = &inputs.queries[..KERNEL_QUERIES];
    let mut flat_ms = Vec::new();
    let mut truths: Vec<Vec<f64>> = Vec::new();
    for q in kernel_queries {
        let (truth, s) = l
            .tracer
            .span("calib.flat", Some(root), || l.checker.truth(q));
        flat_ms.push(1e3 * s);
        truths.push(truth);
    }
    l.set("calib.flat_ms", median(&flat_ms));

    // ---- counts: exact, from the engine's own traces ---------------------
    let counts = traced_pass(spec, &primary, &inputs.queries, &truths, &mut l.checker);
    let evals = counts.per_query(counts.dist_evals);
    l.set(
        "decluster.disks_hit_per_query",
        counts.per_query(counts.disks_hit),
    );
    l.set("index.pages_per_query", counts.per_query(counts.pages));
    l.set("index.dist_evals_per_query", evals);
    l.set("index.rows_visited_share", evals / n as f64);
    l.set(
        "index.dist_evals_saved_share",
        counts.dist_evals_saved as f64 / counts.dist_evals.max(1) as f64,
    );
    l.set("index.pruned_per_query", counts.per_query(counts.pruned));
    l.set(
        "index.lsh_candidates_per_query",
        counts.per_query(counts.lsh_candidates),
    );
    l.set(
        "index.lsh_empty_probe_share",
        counts.lsh_empty_probes as f64 / counts.lsh_probes.max(1) as f64,
    );

    // ---- index: the forest searched on one thread, the engine's search
    // with the `parallel` layer taken away ---------------------------------
    let forest: Vec<&SpatialTree> = trees.iter().collect();
    let forest_us = l.timed("index.forest_knn", |q| {
        let (neighbors, _) =
            forest_knn_traced_ordered(&forest, q, K, config.algorithm, config.tier, config.order);
        // Dressed as an engine answer so that it passes the same checks.
        Ok(QueryResult {
            neighbors,
            cost: QueryCost::from_reads(Vec::new(), &config.disk_model),
            trace: None,
        })
    });
    l.set("index.forest_knn_us", forest_us);
    drop(forest);
    drop(trees);

    // ---- parallel: the same exact query through each execution mode ------
    let (pooled, scoped) = match spec.execution {
        ExecutionMode::Pooled => (&primary, &other),
        ExecutionMode::Scoped => (&other, &primary),
    };
    let pooled_us = l.timed("parallel.query.pooled", |q| pooled.query(q, &exact));
    let scoped_us = l.timed("parallel.query.scoped", |q| scoped.query(q, &exact));
    l.set("parallel.query_us.pooled", pooled_us);
    l.set("parallel.query_us.scoped", scoped_us);
    {
        // One `query_batch` call at one worker, sized to fill a slice: the
        // engine's own forest search with no thread started or woken. What
        // a mode adds to it is that mode's dispatch cost (negative where
        // the scoped threads' use of both CPUs outweighs their start-up).
        let fill = (l.slice.as_secs_f64() * 1e6 / scoped_us) as usize;
        let batch = &inputs.queries[..fill.clamp(1, inputs.queries.len())];
        let (answers, s) = l.tracer.span("parallel.query_batch1", Some(root), || {
            scoped.query_batch(batch, &exact.with_workers(1))
        });
        for (q, r) in batch.iter().zip(answers?) {
            l.checker.answer(q, Ok(r), None);
        }
        let batch1_us = 1e6 * s / batch.len() as f64;
        l.set("parallel.query_us.batch1", batch1_us);
        l.set("parallel.dispatch_us.pooled", pooled_us - batch1_us);
        l.set("parallel.dispatch_us.scoped", scoped_us - batch1_us);
    }
    drop(other);

    // The energy order against the default, on the clock.
    let energy_us = l.timed("parallel.order.energy", |q| energy.query(q, &exact));
    l.set("parallel.order_us.energy", energy_us);
    drop(energy);

    // What looking costs: the registry, the engine's own trace, and this
    // file's spans.
    let (off, on) = l.timed_ab(
        "obs.metrics_on_off",
        |q| primary.query(q, &exact),
        |q| with_metrics.query(q, &exact),
    );
    l.set("obs.metrics_overhead_share", on / off - 1.0);
    {
        let registry = with_metrics.metrics().ok_or(EngineError::Internal(
            "metrics(true) gave no registry".into(),
        ))?;
        let mut exports = 0;
        let id = l.tracer.begin("obs.export", Some(root), None);
        let started = Instant::now();
        while exports == 0 || started.elapsed() < l.slice / 4 {
            black_box(registry.snapshot().to_prometheus());
            exports += 1;
        }
        let s = l.tracer.end(id);
        l.set("obs.export_us", 1e6 * s / exports as f64);
    }
    drop(with_metrics);
    let (off, on) = l.timed_ab(
        "parallel.trace_on_off",
        |q| primary.query(q, &exact),
        |q| primary.query(q, &exact.with_trace(true)),
    );
    l.set("parallel.trace_overhead_share", on / off - 1.0);
    {
        // The traced closed loop against the untraced one: `query` split
        // into its two halves, each under its own span, beside a plain call.
        let opts = spec.query_opts();
        let id = l.tracer.begin("closed.traced_vs_plain", Some(root), None);
        let tracer = &mut l.tracer;
        let mut number = 0u32;
        let (plain_us, traced_us) = time_ab(
            &mut l.checker,
            &inputs.queries,
            2 * l.slice,
            |q| primary.query(q, &opts),
            |q| {
                number += 1;
                let span = tracer.begin("query", Some(id), Some(number));
                let submit = tracer.begin("parallel.submit", Some(span), Some(number));
                let pending = primary.submit(q, &opts);
                tracer.end(submit);
                let wait = tracer.begin("parallel.wait", Some(span), Some(number));
                let answer = pending.and_then(|p| p.wait());
                tracer.end(wait);
                tracer.end(span);
                answer
            },
        );
        l.tracer.end(id);
        l.set("trace.overhead_share", traced_us / plain_us - 1.0);
        let submit_us = 1e6 * mean(&l.tracer.durations_s("parallel.submit"));
        l.set("parallel.submit_us", submit_us);
        let wait_us = 1e6 * mean(&l.tracer.durations_s("parallel.wait"));
        l.set("parallel.wait_us", wait_us);
    }

    // Precision tiers against the default. The mirrors are built on first
    // use, so one untimed sweep comes first.
    for tier in [ScanTier::F32, ScanTier::Q8] {
        for q in &inputs.queries[..AB_BLOCK] {
            black_box(primary.query(q, &exact.with_tier(tier))?);
        }
    }
    let f32_us = l.timed("parallel.tier.f32", |q| {
        primary.query(q, &exact.with_tier(ScanTier::F32))
    });
    l.set("parallel.tier_us.f32", f32_us);
    let q8_us = l.timed("parallel.tier.q8", |q| {
        primary.query(q, &exact.with_tier(ScanTier::Q8))
    });
    l.set("parallel.tier_us.q8", q8_us);

    // Exact against approximate on the engine that has both, and the hash
    // family on its own.
    if spec.approx {
        let (exact_us, approx_us) = l.timed_ab(
            "parallel.exact_vs_approx",
            |q| primary.query(q, &exact),
            |q| primary.query(q, &spec.query_opts()),
        );
        l.set("parallel.exact_query_us", exact_us);
        l.set("parallel.approx_query_us", approx_us);
        let lsh = primary.lsh_config().ok_or(EngineError::ApproxUnavailable)?;
        let (tables, s) = l.tracer.span("index.lsh_fit", Some(root), || {
            LshTables::fit(&lsh, dim, points.iter().map(Point::coords))
        });
        l.set("index.lsh_fit_s", s);
        let ((), s) = l.tracer.span("index.lsh_probe_sequence", Some(root), || {
            for q in &inputs.queries {
                for table in 0..tables.tables() {
                    black_box(tables.probe_sequence(table, q.coords(), APPROX_PROBES));
                }
            }
        });
        l.set(
            "index.lsh_probe_seq_us",
            1e6 * s / inputs.queries.len() as f64,
        );
    } else {
        for name in [
            "parallel.exact_query_us",
            "parallel.approx_query_us",
            "index.lsh_fit_s",
            "index.lsh_probe_seq_us",
        ] {
            l.set(name, 0.0);
        }
    }

    // The fixed cost of a query: engines too small for the search to matter.
    for (name, span, execution) in [
        (
            "parallel.tiny_query_us.pooled",
            "parallel.tiny_query.pooled",
            ExecutionMode::Pooled,
        ),
        (
            "parallel.tiny_query_us.scoped",
            "parallel.tiny_query.scoped",
            ExecutionMode::Scoped,
        ),
    ] {
        let tiny = plain_builder(spec, execution).build(&points[..TINY_POINTS])?;
        // The oracle holds every row, not these 64: the answers are only
        // counted.
        let id = l.tracer.begin(span, Some(root), None);
        let started = Instant::now();
        let mut asked = 0u64;
        while asked == 0 || started.elapsed() < l.slice {
            for q in &inputs.queries[..AB_BLOCK] {
                if !tiny.query(q, &exact).is_ok_and(|r| r.neighbors.len() == K) {
                    l.checker.fail(format!("{name}: wrong answer"));
                }
                asked += 1;
            }
        }
        let s = l.tracer.end(id);
        l.checker.attempted += asked;
        l.set(name, 1e6 * s / asked as f64);
    }

    // ---- storage and geometry: the kernels over every row ----------------
    let (arena, push_s) = l.tracer.span("storage.arena_push", Some(root), || {
        let mut arena = VectorArena::with_capacity(dim, n);
        for p in points {
            arena.push(p.coords());
        }
        arena
    });
    l.set("storage.arena_push_ns_row", 1e9 * push_s / n as f64);
    let per_row = |s: f64| 1e9 * s / (KERNEL_QUERIES * n) as f64;
    let mut out = vec![0.0f64; n];
    let ((), s) = l.tracer.span("storage.arena_flat_scan", Some(root), || {
        for q in kernel_queries {
            kernel::dist2_batch(q.coords(), arena.as_flat(), dim, &mut out);
            black_box(&mut out);
        }
    });
    l.set("storage.arena_flat_scan_ns_row", per_row(s));
    {
        let Layers {
            tracer,
            checker,
            values,
            ..
        } = &mut l;
        let rows = checker.flat.rows();
        let (sum, s) = tracer.span("geometry.dist2", Some(root), || {
            let mut sum = 0.0;
            for q in kernel_queries {
                for row in rows.chunks_exact(dim) {
                    sum += kernel::dist2(q.coords(), row);
                }
            }
            sum
        });
        black_box(sum);
        values.push(("geometry.dist2_ns_row", per_row(s)));
        let (kept, s) = tracer.span("geometry.dist2_bounded", Some(root), || {
            let mut kept = 0usize;
            for (q, truth) in kernel_queries.iter().zip(&truths) {
                let kth = truth[truth.len() - 1];
                let bound = kth * kth;
                for row in rows.chunks_exact(dim) {
                    kept += usize::from(kernel::dist2_bounded(q.coords(), row, bound).is_some());
                }
            }
            kept
        });
        black_box(kept);
        values.push(("geometry.dist2_bounded_ns_row", per_row(s)));
        let ((), s) = tracer.span("geometry.dist2_batch", Some(root), || {
            for q in kernel_queries {
                kernel::dist2_batch(q.coords(), rows, dim, &mut out);
                black_box(&mut out);
            }
        });
        values.push(("geometry.dist2_batch_ns_row", per_row(s)));
    }
    drop(out);
    let mut out32 = vec![0.0f32; n];
    let ((), s) = l.tracer.span("geometry.dist2_batch_f32", Some(root), || {
        for q in kernel_queries {
            let q32: Vec<f32> = q.coords().iter().map(|&v| v as f32).collect();
            kernel::dist2_batch_f32(&q32, arena.as_flat_f32(), dim, &mut out32);
            black_box(&mut out32);
        }
    });
    l.set("geometry.dist2_f32_batch_ns_row", per_row(s));
    drop(out32);
    let mut out8 = vec![0u64; n];
    let ((), s) = l.tracer.span("geometry.dist2_batch_q8", Some(root), || {
        for q in kernel_queries {
            // The unit cube on a 255-step grid: the kernel's speed does
            // not depend on the codes.
            let q8: Vec<u8> = q.coords().iter().map(|&v| (v * 255.0) as u8).collect();
            kernel::dist2_batch_q8(&q8, arena.as_codes(), dim, &mut out8);
            black_box(&mut out8);
        }
    });
    l.set("geometry.dist2_q8_batch_ns_row", per_row(s));
    drop(out8);
    drop(arena);
    let items: Vec<(Point, u64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i as u64))
        .collect();
    let ((), s) = l.tracer.span("index.brute_force_knn", Some(root), || {
        for q in &inputs.queries[..BRUTE_QUERIES] {
            black_box(brute_force_knn(&items, q, K));
        }
    });
    l.set(
        "index.brute_force_ns_row",
        1e9 * s / (BRUTE_QUERIES * n) as f64,
    );
    drop(items);

    // ---- parallel: the write path, last because it changes the data ------
    let writer = writer.unwrap_or(primary);
    let fresh = &inputs.fresh[..WRITE_STEPS];
    let empty_us = l.timed("parallel.query.delta_empty", |q| writer.query(q, &exact));
    let id = l.tracer.begin("parallel.insert", Some(root), None);
    let inserted: Vec<_> = fresh.iter().map(|p| writer.insert(p.clone())).collect();
    let s = l.tracer.end(id);
    l.set("parallel.insert_us", 1e6 * s / WRITE_STEPS as f64);
    for (p, r) in fresh.iter().zip(inserted) {
        if let Some(item) = l.checker.op("insert", r) {
            l.checker.flat.insert(item, p.coords());
        }
    }
    let id = l.tracer.begin("parallel.remove", Some(root), None);
    let removed: Vec<_> = (0..WRITE_STEPS as u64).map(|i| writer.remove(i)).collect();
    let s = l.tracer.end(id);
    l.set("parallel.remove_us", 1e6 * s / WRITE_STEPS as f64);
    for (i, r) in removed.into_iter().enumerate() {
        if l.checker.op("remove", r).is_some() {
            l.checker.flat.remove(i as u64);
        }
    }
    let full_us = l.timed("parallel.query.delta_full", |q| writer.query(q, &exact));
    l.set(
        "parallel.overlay_us_per_delta_row",
        (full_us - empty_us) / writer.delta_size() as f64,
    );
    let (result, s) = l
        .tracer
        .span("parallel.reorganize", Some(root), || writer.reorganize());
    l.checker.op("reorganize", result);
    l.set("parallel.reorganize_s", s);
    for q in &inputs.queries[..AB_BLOCK] {
        let truth = l.checker.truth(q);
        l.checker.answer(q, writer.query(q, &exact), Some(&truth));
    }
    drop(writer);

    l.tracer.end(root);
    let query_self = l.tracer.self_times_s("query");
    eprintln!(
        "{} seed={seed}: {} traced queries, self time of `query` outside submit and wait {:.3} us",
        spec.name,
        query_self.len(),
        1e6 * mean(&query_self),
    );
    if let Err(e) = l.tracer.write_json(trace_path) {
        l.checker
            .fail(format!("writing {}: {e}", trace_path.display()));
    }
    Ok((l.checker, l.values))
}
