//! What a run hands back, and the one-line JSON the contract asks for.

use std::fmt::Write;

/// One measured value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one run of one workload.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    /// The numbers are not comparable with a full run's.
    pub smoke: bool,
    /// Operations issued to the engine.
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// What went wrong, first few cases only.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// A report with nothing counted or measured yet.
    pub fn new(workload: &'static str, seed: u64, smoke: bool) -> Self {
        Report {
            workload,
            seed,
            smoke,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Every answer passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    fn metric_name(&self, m: &Metric) -> String {
        if self.smoke {
            format!("smoke.{}", m.name)
        } else {
            m.name.to_owned()
        }
    }

    /// The metrics by name and unit, one per line, each line carrying the
    /// workload and the seed.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{} seed={} {} = {} {}",
                self.workload,
                self.seed,
                self.metric_name(m),
                m.value,
                m.unit
            );
        }
        for f in &self.failures {
            let _ = writeln!(out, "{} seed={} FAILED: {f}", self.workload, self.seed);
        }
        out
    }

    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` on one line.
    /// Values print with every digit measured; a value that is not finite
    /// prints as `null`, which no reader accepts, and the run is marked
    /// incorrect by the caller.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct() && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {{\"value\": ", self.metric_name(m));
            if m.value.is_finite() {
                let _ = write!(out, "{}", m.value);
            } else {
                out.push_str("null");
            }
            let _ = write!(out, ", \"unit\": \"{}\"}}", m.unit);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_four_keys_and_marks_smoke() {
        let mut r = Report::new("w", 3, false);
        r.attempted = 7;
        r.metrics.push(Metric {
            name: "query_p50_ms",
            value: 1.25,
            unit: "ms",
        });
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"query_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.smoke = true;
        r.failed = 1;
        assert!(r.json().contains("\"correct\": false"));
        assert!(r.json().contains("\"smoke.query_p50_ms\""));
        assert!(r.table().contains("w seed=3 smoke.query_p50_ms = 1.25 ms"));
    }
}
