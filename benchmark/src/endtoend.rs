//! The measuring run: set-up, then passes of {calibration, closed loop,
//! batch} until the time given is used, all from one client thread.
//!
//! Host speed on the reference machine drifts in phases of several
//! seconds. Each pass is short, and interleaves the frozen flat scan with
//! the queries it times, so that `query_vs_flat` divides two numbers taken
//! in the same phase.

use std::hint::black_box;
use std::time::{Duration, Instant};

use parsim_geometry::Point;
use parsim_parallel::{EngineError, ParallelKnnEngine};

use crate::check::Checker;
use crate::counts::traced_pass;
use crate::flat::FlatIndex;
use crate::report::{Metric, Report};
use crate::stats::{median, quantile};
use crate::workload::{Inputs, Spec, BATCH_CHUNK, WARMUP_QUERIES};

/// Every end-to-end metric with its unit, in the order `BENCHMARK.json`
/// lists them.
pub const METRICS: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_vs_p50", "ratio"),
    ("query_vs_flat", "ratio"),
    ("batch_qps", "1/s"),
    ("recall_at_10", "share"),
    ("modeled_ms", "ms"),
    ("modeled_speedup", "ratio"),
    ("rss_peak_mb", "MB"),
];

/// Set-ups per run, at most; `setup_s` is their median.
const SETUPS: usize = 3;
/// The third set-up is left out once the first two took this long
/// (`approx48`, whose LSH tier takes 6 s to build).
const SETUPS_BUDGET_S: f64 = 8.0;
/// Flat scans that open a pass.
const CALIBRATION_SCANS: usize = 4;
/// Pool queries whose truth the write workload computes before its first
/// write, to score the traced pass.
const SCORED_BEFORE_WRITES: usize = 64;
/// Answers re-checked after the last pass.
const FINAL_CHECKS: usize = BATCH_CHUNK;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One set-up: the inputs, the engine built over them, and what it took.
pub struct SetUp {
    pub inputs: Inputs,
    pub engine: ParallelKnnEngine,
    /// Wall time of generate + build + warm-up.
    pub total_s: f64,
    /// Wall time of `EngineBuilder::build` alone.
    pub build_s: f64,
}

/// Generates the inputs, builds the engine and answers the warm-up
/// queries.
pub fn set_up(spec: &Spec, seed: u64) -> Result<SetUp, EngineError> {
    let start = Instant::now();
    let inputs = spec.generate(seed);
    let build_start = Instant::now();
    let engine = spec.builder(seed).build(&inputs.points)?;
    let build_s = build_start.elapsed().as_secs_f64();
    let opts = spec.query_opts();
    for q in inputs.queries.iter().cycle().take(WARMUP_QUERIES) {
        black_box(engine.query(q, &opts)?);
    }
    Ok(SetUp {
        inputs,
        engine,
        total_s: start.elapsed().as_secs_f64(),
        build_s,
    })
}

/// Peak resident set of this process (VmHWM) in MB; NaN where `/proc`
/// does not say.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What one pass measured.
struct Pass {
    p50_ms: f64,
    flat_ms: f64,
    batch_qps: f64,
}

/// The state the passes share.
struct Run<'a> {
    spec: &'a Spec,
    engine: &'a ParallelKnnEngine,
    inputs: &'a Inputs,
    checker: Checker,
    /// True distances of every pool query; empty on the write workload,
    /// whose live set moves.
    truths: Vec<Vec<f64>>,
    /// Next pool query.
    cursor: usize,
    /// Write steps done: the next fresh point, and the id to remove.
    steps: usize,
    latencies_ms: Vec<f64>,
    write_s: f64,
    writes: u64,
    rebuilds_s: Vec<f64>,
}

impl<'a> Run<'a> {
    fn next_query(&mut self) -> usize {
        let i = self.cursor;
        self.cursor = (self.cursor + 1) % self.inputs.queries.len();
        i
    }

    /// One timed flat scan of pool query `qi`; on a read-only workload
    /// its answer must be the truth computed before.
    fn flat_scan(&mut self, qi: usize, flat_ms: &mut Vec<f64>) -> Vec<f64> {
        let inputs = self.inputs;
        let query = &inputs.queries[qi];
        let start = Instant::now();
        let truth = black_box(self.checker.truth(black_box(query)));
        flat_ms.push(ms(start.elapsed()));
        if self.truths.get(qi).is_some_and(|t| *t != truth) {
            self.checker
                .fail(format!("flat scan of query {qi} does not repeat"));
        }
        truth
    }

    /// Inserts the next fresh point and removes the oldest live id, timing
    /// only the two calls; returns the new item and its point.
    fn write_step(&mut self) -> Option<(u64, &'a Point)> {
        let inputs = self.inputs;
        let point = &inputs.fresh[self.steps % inputs.fresh.len()];
        let oldest = self.steps as u64;
        self.steps += 1;
        let owned = point.clone();
        let start = Instant::now();
        let inserted = self.engine.insert(owned);
        let removed = self.engine.remove(oldest);
        self.write_s += start.elapsed().as_secs_f64();
        self.writes += 2;
        if self.checker.op("remove", removed).is_some() && !self.checker.flat.remove(oldest) {
            self.checker.fail(format!("item {oldest} removed twice"));
        }
        let item = self.checker.op("insert", inserted)?;
        self.checker.flat.insert(item, point.coords());
        Some((item, point))
    }

    fn pass(&mut self) -> Pass {
        let (inputs, engine) = (self.inputs, self.engine);
        let opts = self.spec.query_opts();
        let mut flat_ms = Vec::new();
        for _ in 0..CALIBRATION_SCANS {
            let qi = self.next_query();
            self.flat_scan(qi, &mut flat_ms);
        }

        let first = self.latencies_ms.len();
        for step in 1..=self.spec.closed_per_pass {
            let written = if self.spec.writes {
                self.write_step()
            } else {
                None
            };
            let qi = self.next_query();
            let query = &inputs.queries[qi];
            let start = Instant::now();
            let result = engine.query(query, &opts);
            self.latencies_ms.push(ms(start.elapsed()));
            let scanned =
                (step % self.spec.flat_every == 0).then(|| self.flat_scan(qi, &mut flat_ms));
            let truth = self.truths.get(qi).or(scanned.as_ref());
            self.checker.answer(query, result, truth.map(Vec::as_slice));
            if let (Some((item, point)), true) = (written, scanned.is_some()) {
                let own = engine.query(point, &opts);
                self.checker.finds_itself(item, point, own);
            }
        }
        let p50_ms = median(&self.latencies_ms[first..]);

        // Batch phase: on the write workload it runs at the pass's full
        // delta, and the first chunk is scored against fresh flat scans.
        let chunks = self.spec.batch_per_pass / BATCH_CHUNK;
        let batch_opts = self.spec.batch_opts();
        let mut batch_s = 0.0;
        for chunk in 0..chunks {
            let from = self.cursor - self.cursor % BATCH_CHUNK;
            self.cursor = (from + BATCH_CHUNK) % inputs.queries.len();
            let queries = &inputs.queries[from..from + BATCH_CHUNK];
            let start = Instant::now();
            let results = engine.query_batch(queries, &batch_opts);
            batch_s += start.elapsed().as_secs_f64();
            match results {
                Ok(results) => {
                    for (i, r) in results.into_iter().enumerate() {
                        let fresh = (self.spec.writes && chunk == 0 && i < 8)
                            .then(|| self.checker.truth(&queries[i]));
                        let truth = self.truths.get(from + i).or(fresh.as_ref());
                        self.checker
                            .answer(&queries[i], Ok(r), truth.map(Vec::as_slice));
                    }
                }
                Err(e) => {
                    self.checker.attempted += BATCH_CHUNK as u64;
                    self.checker.failed += BATCH_CHUNK as u64 - 1;
                    self.checker.fail(format!("query_batch: {e}"));
                }
            }
        }

        if self.spec.writes {
            self.rebuild();
        }
        Pass {
            p50_ms,
            flat_ms: median(&flat_ms),
            batch_qps: (chunks * BATCH_CHUNK) as f64 / batch_s,
        }
    }

    /// One timed foreground `reorganize()`.
    fn rebuild(&mut self) {
        let start = Instant::now();
        let result = self.engine.reorganize();
        self.rebuilds_s.push(start.elapsed().as_secs_f64());
        self.checker.op("reorganize", result);
        if self.engine.delta_size() != 0 {
            self.checker
                .fail("delta not empty after reorganize".to_owned());
        }
    }
}

/// Runs `spec` for about `seconds` of measuring and reports every
/// end-to-end metric.
pub fn run(spec: &Spec, seed: u64, seconds: f64, smoke: bool) -> Report {
    let mut report = Report::new(spec.name, seed, smoke);
    let mut setups_s = Vec::new();
    let measured = set_up(spec, seed).map(|first| {
        setups_s.push(first.total_s);
        measure(spec, seed, seconds, &first.inputs, &first.engine)
    });
    // `setup_s` is the median of several set-ups. The others come after
    // the measuring, each on its own: an engine built into the holes that
    // two dropped ones left in the heap answered uniform32 up to a quarter
    // slower, and less steadily, than the first one built.
    let mut more = Ok(());
    while more.is_ok()
        && setups_s.len() < SETUPS
        && (setups_s.len() < 2 || setups_s.iter().sum::<f64>() < SETUPS_BUDGET_S)
    {
        more = set_up(spec, seed).map(|again| setups_s.push(again.total_s));
    }
    let (checker, mut values) = match (measured, more) {
        (Ok(m), Ok(())) => m,
        (Err(e), _) | (_, Err(e)) => {
            report.failed = 1;
            report.failures.push(format!("set-up: {e}"));
            return report;
        }
    };
    values.insert(0, median(&setups_s));
    values.push(rss_peak_mb());
    report.attempted = checker.attempted;
    report.failed = checker.failed;
    report.failures = checker.failures;
    report.metrics = METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    report
}

/// Everything between the first set-up and the last: the oracle, the
/// counts, the passes. Returns the checker and the values of [`METRICS`]
/// in order, without `setup_s` at the head and `rss_peak_mb` at the tail.
fn measure(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    inputs: &Inputs,
    engine: &ParallelKnnEngine,
) -> (Checker, Vec<f64>) {
    // The oracle: a flat copy of the rows and the true distances of the
    // pool queries. The write workload's live set moves, so it keeps only
    // enough of them to score the traced pass.
    let flat = FlatIndex::new(spec.dim, inputs.points.iter().map(Point::coords));
    let mut checker = Checker::new(flat, !spec.approx);
    let scored = if spec.writes {
        SCORED_BEFORE_WRITES.min(inputs.queries.len())
    } else {
        inputs.queries.len()
    };
    let mut truths: Vec<Vec<f64>> = inputs.queries[..scored]
        .iter()
        .map(|q| checker.truth(q))
        .collect();

    // Counts and recall first, on the freshly built engine and over the
    // same queries every time, so that neither depends on how many passes
    // the clock then allows.
    let counts = traced_pass(spec, engine, &inputs.queries, &truths, &mut checker);
    let recall = checker.recall();
    if spec.writes {
        truths.clear();
    }

    let mut run = Run {
        spec,
        engine,
        inputs,
        checker,
        truths,
        cursor: 0,
        steps: 0,
        latencies_ms: Vec::new(),
        write_s: 0.0,
        writes: 0,
        rebuilds_s: Vec::new(),
    };
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut lengths_s: Vec<f64> = Vec::new();
    // A pass starts only if a typical one still fits; the median, because
    // a single stall of the host must not cost the run its later passes.
    while passes.is_empty() || started.elapsed().as_secs_f64() + median(&lengths_s) <= seconds {
        let pass_started = Instant::now();
        passes.push(run.pass());
        lengths_s.push(pass_started.elapsed().as_secs_f64());
    }
    let measured_s = started.elapsed().as_secs_f64();

    // Whatever the passes did to the engine, it must still answer right.
    for query in &inputs.queries[..FINAL_CHECKS.min(inputs.queries.len())] {
        let truth = run.checker.truth(query);
        let result = engine.query(query, &spec.query_opts());
        run.checker.answer(query, result, Some(&truth));
    }

    let per_pass = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    eprintln!(
        "{} seed={seed}: {} passes in {measured_s:.1} s, {} closed-loop samples, \
         flat scan {:.3} ms",
        spec.name,
        passes.len(),
        run.latencies_ms.len(),
        per_pass(|p| p.flat_ms),
    );
    if spec.writes {
        // Not end-to-end metrics, because only this workload has them; the
        // traced run reports both for every workload's data.
        eprintln!(
            "{} seed={seed}: write mean {:.3} us over {} calls, rebuild median {:.4} s",
            spec.name,
            1e6 * run.write_s / run.writes as f64,
            run.writes,
            median(&run.rebuilds_s),
        );
    }
    let p50_ms = median(&run.latencies_ms);
    let p99_ms = quantile(&run.latencies_ms, 0.99);
    // The tail is reported against the median of the same samples: on the
    // reference host raw p99 moved a quarter between runs of one binary,
    // p99 / p50 an eighth.
    eprintln!("{} seed={seed}: p99 {p99_ms:.4} ms", spec.name);
    let values = vec![
        p50_ms,
        p99_ms / p50_ms,
        per_pass(|p| p.p50_ms / p.flat_ms),
        per_pass(|p| p.batch_qps),
        recall,
        counts.modeled_ms(),
        counts.modeled_speedup(),
    ];
    (run.checker, values)
}
