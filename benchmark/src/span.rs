//! Spans recorded by the benchmark around its calls into each layer: kept
//! in memory while the run measures, written out when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One timed interval: the layer call it wraps, the span that caused it,
/// and the query it belongs to (spans of one query share the number).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub query: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span store of one run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it ends at [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        query: Option<u32>,
    ) -> SpanId {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: parent.map(|p| p.0),
            query,
            name,
            start_ns: now,
            end_ns: now,
        });
        SpanId(id)
    }

    /// Closes a span and returns its length in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = now;
        span.duration_ns() as f64 * 1e-9
    }

    /// Runs `f` inside a span; returns its result and the span's length in
    /// seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent, None);
        let out = f();
        (out, self.end(id))
    }

    /// Lengths in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Self times in seconds of every span called `name`: the span's
    /// length minus the part of it that its child spans cover.
    pub fn self_times_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.self_time_ns(s) as f64 * 1e-9)
            .collect()
    }

    fn self_time_ns(&self, span: &Span) -> u64 {
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(span.id))
            .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
            .filter(|(from, to)| to > from)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (from, to) in children {
            let from = from.max(reach);
            if to > from {
                covered += to - from;
                reach = to;
            }
        }
        span.duration_ns() - covered
    }

    /// Writes every span as one JSON array, one span per line.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u32>| v.map_or("null".to_owned(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"query\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.id,
                opt(s.parent),
                opt(s.query),
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(spans: &[(Option<u32>, &'static str, u64, u64)]) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: spans
                .iter()
                .enumerate()
                .map(|(i, &(parent, name, start_ns, end_ns))| Span {
                    id: i as u32,
                    parent,
                    query: Some(7),
                    name,
                    start_ns,
                    end_ns,
                })
                .collect(),
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        // query 0..100 = submit 10..30 + wait 30..90, two overlapping
        // grandchildren that must not count against the query itself.
        let t = tracer(&[
            (None, "query", 0, 100),
            (Some(0), "parallel.submit", 10, 30),
            (Some(0), "parallel.wait", 30, 90),
            (Some(2), "inner", 40, 60),
            (Some(2), "inner", 50, 70),
        ]);
        let ns = |n: f64| n * 1e-9;
        assert_eq!(t.self_times_s("query"), vec![ns(20.0)]);
        assert_eq!(t.self_times_s("parallel.wait"), vec![ns(30.0)]);
        assert_eq!(t.durations_s("inner"), vec![ns(20.0), ns(20.0)]);
    }

    #[test]
    fn spans_nest_and_round_trip_to_json() {
        let mut t = Tracer::new();
        let root = t.begin("query", None, Some(3));
        let (v, s) = t.span("parallel.submit", Some(root), || 5);
        assert_eq!(v, 5);
        assert!(s >= 0.0);
        t.end(root);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("span-test-{}", std::process::id()));
        let path = dir.join("trace.json");
        t.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(
            text.starts_with("[\n{\"id\": 0, \"parent\": null, \"query\": 3, \"name\": \"query\"")
        );
        assert!(text
            .contains("{\"id\": 1, \"parent\": 0, \"query\": null, \"name\": \"parallel.submit\""));
        assert!(text.trim_end().ends_with(']'));
    }
}
