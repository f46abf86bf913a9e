//! The benchmark's own span list, recorded around its calls into the
//! program's public functions (the program's tracer stays off).
//!
//! Spans live in memory and are written as NDJSON when the run ends. A
//! disabled recorder runs the wrapped closure without reading the clock.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Operation (request, pass) the span belongs to.
    op: usize,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Makes room for `additional` spans, so recording does not reallocate.
    pub fn reserve(&mut self, additional: usize) {
        if self.enabled {
            self.spans.reserve(additional);
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; returns its index for [`Spans::close`] and children.
    /// `None` when disabled.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: usize) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Durations of every span named `name`, microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Total duration of the spans that have a parent, microseconds: the
    /// time attributed to a named layer.
    pub fn attributed_us(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum()
    }

    /// Writes one JSON object per span.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"parent":{parent},"op":{},"name":"{}","start_ns":{},"dur_ns":{}}}"#,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns - s.start_ns
            )?;
        }
        out.flush()
    }
}
