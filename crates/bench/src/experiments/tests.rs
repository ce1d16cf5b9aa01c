//! Smoke tests of the experiment harness: the cheap experiments run at a
//! tiny scale and produce well-formed reports with the expected shape.
//! (The expensive figures are exercised end-to-end by the `figures`
//! binary; these tests keep the harness itself from regressing.)

use super::*;

#[test]
fn dispatcher_covers_all_and_rejects_unknown() {
    assert_eq!(ALL.len(), 26);
    assert!(run("nonsense", 1.0).is_none());
    assert!(run("fig99", 1.0).is_none());
}

#[test]
fn analytic_experiments_produce_reports() {
    for id in ["fig5", "fig7", "fig10"] {
        let report = run(id, 0.05).expect("known id");
        assert_eq!(report.id, id);
        assert!(!report.rows.is_empty(), "{id}: empty rows");
        let width = report.headers.len();
        assert!(report.rows.iter().all(|r| r.len() == width), "{id}: ragged");
        let md = report.to_markdown();
        assert!(md.contains(report.title));
    }
}

#[test]
fn fig16_runs_at_tiny_scale() {
    let report = run("fig16", 0.2).expect("fig16");
    assert_eq!(report.rows.len(), 2);
    // The improvement note must be present.
    assert!(report.notes[0].contains("improvement factor"));
}

#[test]
fn ext13_runs_at_tiny_scale() {
    let report = run("ext13", 0.05).expect("ext13");
    assert_eq!(report.rows.len(), 3);
    // The in-measure bit-identity assertions passed in every phase.
    let verdicts: Vec<&str> = report
        .rows
        .iter()
        .map(|r| r.last().unwrap().as_str())
        .collect();
    assert_eq!(verdicts, ["yes", "yes", "yes"]);
    assert!(report.notes[1].contains("reconciled exactly"));
}

#[test]
fn ext2_runs_at_tiny_scale() {
    let report = run("ext2", 0.1).expect("ext2");
    assert_eq!(report.rows.len(), 6);
    // Model and measured columns are positive numbers.
    for row in &report.rows {
        let model: f64 = row[2].parse().unwrap();
        assert!(model > 0.0);
    }
}

#[test]
fn ext5_runs_at_tiny_scale() {
    let report = run("ext5", 0.05).expect("ext5");
    let dims: Vec<&str> = report.rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(dims, ["2", "4", "8", "12", "16"]);
    // Every structure answered every query, so each visited some share of
    // its partitions and never more than all of them.
    for row in &report.rows {
        assert_eq!(row.len(), report.headers.len());
        for cell in &row[2..] {
            let pct: f64 = cell.parse().unwrap();
            assert!(pct > 0.0 && pct <= 100.0, "d={}: {cell}%", row[0]);
        }
    }
    // The k-d-tree and the X-tree read a larger share at d=16 than at d=2.
    let (low, high) = (&report.rows[0], &report.rows[4]);
    for col in [3, 5] {
        let share = |row: &[String]| row[col].parse::<f64>().unwrap();
        assert!(share(high) > share(low), "{}", report.headers[col]);
    }
}

#[test]
fn ext6_reports_modeled_and_measured_speedup() {
    let report = run("ext6", 0.05).expect("ext6");
    assert_eq!(report.rows.len(), 4);
    for row in &report.rows {
        let modeled: f64 = row[3].parse().unwrap();
        let measured: f64 = row[4].parse().unwrap();
        assert!(modeled > 0.0, "modeled speed-up must be positive");
        assert!(measured > 0.0, "measured speed-up must be positive");
    }
    // The host-parallelism caveat must be recorded next to the numbers.
    assert!(report.notes[0].contains("thread"));
}

#[test]
fn ext7_reports_abandoned_evaluations_and_exactness() {
    let report = run("ext7", 0.05).expect("ext7");
    assert_eq!(report.rows.len(), 4);
    for row in &report.rows {
        let evals: u64 = row[1].parse().unwrap();
        let saved: u64 = row[2].parse().unwrap();
        assert!(evals > 0, "leaf scans must evaluate distances");
        assert!(saved <= evals);
        assert_eq!(row[4], "yes", "distances must stay bit-identical");
    }
    // Clustered workloads must abandon at least somewhere in the sweep.
    let total_saved: u64 = report
        .rows
        .iter()
        .map(|r| r[2].parse::<u64>().unwrap())
        .sum();
    assert!(total_saved > 0, "early abandon never fired");
}

#[test]
fn ext8_degraded_answers_stay_bit_identical() {
    let report = run("ext8", 0.05).expect("ext8");
    assert!(report.rows.len() >= 2, "needs a healthy row and ≥1 failure");
    assert_eq!(report.rows[0][0], "0");
    // Healthy baseline has zero overhead and zero failovers.
    assert_eq!(report.rows[0][3], "0.0");
    assert_eq!(report.rows[0][4], "0.00");
    // The bit-identity check must have passed for every degraded run.
    assert!(report.notes[0].contains("bit-identical"));
    assert!(report.notes[0].ends_with("yes"), "{}", report.notes[0]);
    // With at least one disk failed, some bucket must fail over.
    let failovers: f64 = report.rows[1][4].parse().unwrap();
    assert!(failovers > 0.0, "failing a loaded disk must cause failover");
}

#[test]
fn ext9_pipelined_schedule_beats_the_barrier() {
    let report = run("ext9", 0.05).expect("ext9");
    assert_eq!(report.rows.len(), 6, "3 disk counts x 2 modes");
    // Row pairs are (scoped, pooled) per disk count; the modeled pipelined
    // makespan can never exceed the barrier makespan, and at >= 4 disks
    // the pipeline must strictly win on modeled throughput.
    for pair in report.rows.chunks(2) {
        assert_eq!(pair[0][1], "scoped");
        assert_eq!(pair[1][1], "pooled");
        let barrier: f64 = pair[0][5].parse().unwrap();
        let pipelined: f64 = pair[1][5].parse().unwrap();
        assert!(barrier > 0.0 && pipelined > 0.0);
        // At this tiny scale every per-disk tree is about one page, so
        // the schedules can tie; the strict win at real scale is recorded
        // in the committed BENCH_pr4.json.
        assert!(
            pipelined <= barrier,
            "pipelined makespan {pipelined} must never exceed barrier {barrier}"
        );
    }
}

#[test]
fn ext10_registry_totals_match_trace_sums() {
    let report = run("ext10", 0.05).expect("ext10");
    // 2 modes x 2 conditions x 6 cross-checked counters.
    assert_eq!(report.rows.len(), 24);
    for row in &report.rows {
        assert_eq!(row[3], row[4], "{}: registry != trace sum", row[2]);
        assert_eq!(row[5], "yes");
    }
    // The degraded runs actually failed something over.
    let replica_rows: u64 = report
        .rows
        .iter()
        .filter(|r| r[1] == "degraded" && r[2] == "parsim_replica_pages_total")
        .map(|r| r[3].parse::<u64>().unwrap())
        .sum();
    assert!(
        replica_rows > 0,
        "degraded condition never touched replicas"
    );
    assert!(report.notes[1].contains("mismatching rows: 0"));
}

#[test]
fn ext11_coalescing_raises_saturation_and_reconciles() {
    let m = ext11::measure(0.05);
    // Live batch: answers were asserted bit-identical inside measure();
    // here the bookkeeping must reconcile and the effect must exist.
    assert!(m.queries > 0 && m.logical_pages > 0);
    assert_eq!(
        m.registry_coalesced, m.trace_coalesced,
        "registry counter must equal the per-query trace sum"
    );
    assert!(
        m.trace_coalesced > 0,
        "waves of near-identical queries must coalesce"
    );
    assert!(
        m.sat_coalesced_qps > m.sat_plain_qps,
        "coalescing must raise modeled saturation ({} vs {})",
        m.sat_coalesced_qps,
        m.sat_plain_qps
    );
    // Open-loop sweep: 5 offered loads x 2 modes, and at every load the
    // coalesced tail is no worse than the plain tail.
    assert_eq!(m.rows.len(), 10);
    for pair in m.rows.chunks(2) {
        assert_eq!(pair[0].mode, "plain");
        assert_eq!(pair[1].mode, "coalesced");
        assert!(
            pair[1].p99_ms <= pair[0].p99_ms,
            "coalesced p99 {} must not exceed plain p99 {} at load {}",
            pair[1].p99_ms,
            pair[0].p99_ms,
            pair[0].offered
        );
    }
    // And the tabulated report is well-formed.
    let report = run("ext11", 0.05).expect("ext11");
    assert_eq!(report.rows.len(), 10);
    assert!(report.notes[0].contains("reconciles exactly"));
}

#[test]
fn ext12_reduces_f64_evals_and_stays_exact() {
    let rows = ext12::measure(0.05);
    // 3 datasets x 3 tiers; answers were asserted bit-identical inside
    // measure(), and the rows record that fact.
    assert_eq!(rows.len(), 9);
    assert!(rows.iter().all(|r| r.exact), "a tier diverged from f64");
    let cell = |dataset: &str, tier: &str| {
        rows.iter()
            .find(|r| r.dataset == dataset && r.tier == tier)
            .unwrap()
    };
    for dataset in ["uniform", "clustered", "correlated"] {
        let base = cell(dataset, "f64");
        assert!(base.f64_evals > 0, "{dataset}: f64 scan did no work");
        assert_eq!(base.lb_evals, 0, "{dataset}: f64 tier has no phase 1");
        assert_eq!(base.rerank_evals, 0);
        for tier in ["f32", "q8"] {
            let c = cell(dataset, tier);
            assert!(c.lb_evals > 0, "{dataset}/{tier}: phase 1 never ran");
            assert!(
                c.rerank_evals <= c.lb_evals,
                "{dataset}/{tier}: more survivors than rows scanned"
            );
            assert!(
                c.f64_evals <= base.f64_evals,
                "{dataset}/{tier}: cheap tier did more f64 work"
            );
        }
    }
    // The acceptance bar: on uniform data both cheap tiers cut exact f64
    // row evaluations by at least 2x.
    let base = cell("uniform", "f64").f64_evals;
    for tier in ["f32", "q8"] {
        let c = cell("uniform", tier);
        assert!(
            c.f64_evals * 2 <= base,
            "uniform/{tier}: {} f64 evals vs baseline {base} — under 2x",
            c.f64_evals
        );
    }
    // And the tabulated report is well-formed.
    let report = run("ext12", 0.05).expect("ext12");
    assert_eq!(report.rows.len(), 9);
    assert!(report.notes[0].contains("bit-identical"));
}

#[test]
fn ext15_frontier_is_sound_and_monotone_in_probes() {
    let m = ext15::measure(0.05);
    // 3 datasets x (1 exact + 4 probe widths). The 2x-at-recall-0.9
    // acceptance bar is asserted inside measure() at benchmark scale
    // (the committed BENCH_pr10.json); this smoke scale sits below the
    // disk-bound threshold and checks the harness itself.
    assert_eq!(m.rows.len(), 15);
    for r in &m.rows {
        assert!((0.0..=1.0).contains(&r.recall), "recall out of range");
        assert!(r.modeled_qps > 0.0, "modeled QPS must be positive");
        if r.mode == "exact" {
            assert_eq!(r.probes, 0);
            assert_eq!(r.lsh_probes, 0);
            assert_eq!(r.lsh_candidates, 0);
            assert!(r.recall >= 0.9, "{}: exact recall {}", r.dataset, r.recall);
        } else {
            // Every probe is attempted on every table for every query,
            // and every unique candidate gets exactly one f64 kernel.
            assert_eq!(r.lsh_probes, (m.queries * m.tables * r.probes) as u64);
            assert_eq!(r.lsh_candidates, r.dist_evals);
            assert!(r.empty_probe_frac <= 1.0);
        }
    }
    // Mean recall never decreases as probes widen (pointwise monotonicity
    // is pinned by prop_lsh; the aggregate inherits it).
    for dataset in ["clustered", "correlated", "fourier"] {
        let recalls: Vec<f64> = m
            .rows
            .iter()
            .filter(|r| r.dataset == dataset && r.mode == "approx")
            .map(|r| r.recall)
            .collect();
        assert!(
            recalls.windows(2).all(|w| w[1] >= w[0]),
            "{dataset}: recall not monotone in probes: {recalls:?}"
        );
    }
    // And the tabulated report is well-formed.
    let report = run("ext15", 0.05).expect("ext15");
    assert_eq!(report.rows.len(), 15);
    assert!(report.notes[1].contains("modeled_parallel"));
}

#[test]
fn scaled_clamps_to_minimum() {
    use super::common::scaled;
    assert_eq!(scaled(100, 1.0), 100);
    assert_eq!(scaled(100, 2.0), 200);
    assert_eq!(scaled(100, 0.0), 16);
}
