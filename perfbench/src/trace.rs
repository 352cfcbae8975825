//! In-memory spans and layer ladders for the traced run.
//!
//! The benchmark adds no tracing inside the library. It measures a layer
//! from outside by re-running the same operation at successively lower
//! public entry points (a *layer ladder*): rung `i` is one layer's entry
//! point, and the layer's self time is rung `i` minus rung `i + 1`. The
//! last rung's self time is its whole duration. Self times therefore sum
//! exactly to the top rung's duration for every operation; the traced
//! run then checks that the top rung matches the untraced figure.
//!
//! Every rung is also kept as a span (name, start, end, parent) and the
//! spans are written out as JSON lines when the run ends.

use crate::stats;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Spans beyond this many are timed but not kept, bounding memory.
const MAX_SPANS: usize = 400_000;

/// One recorded span. `parent` is 0 for an operation's root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans relative to one epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
    next_op: u64,
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
            next_op: 1,
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh operation id; spans of one operation share it.
    pub fn new_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op - 1
    }

    /// Keep a span timed by the caller; returns its id.
    pub fn record(
        &mut self,
        op: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.spans.len() < MAX_SPANS {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                id,
                parent,
                op,
                name,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
        id
    }

    pub fn len(&self) -> usize {
        self.spans.len() + self.dropped as usize
    }

    /// Write every kept span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One operation's walk down the ladder: each rung is timed as a span
/// whose parent is the rung above it.
pub struct Chain<'t> {
    tracer: &'t mut Tracer,
    op: u64,
    parent: u64,
    durations_ns: Vec<f64>,
}

impl<'t> Chain<'t> {
    pub fn new(tracer: &'t mut Tracer) -> Chain<'t> {
        let op = tracer.new_op();
        Chain {
            tracer,
            op,
            parent: 0,
            durations_ns: Vec::new(),
        }
    }

    /// Add a rung the caller already timed (the real request of an open
    /// loop, which ran before the benchmark knew to trace it).
    pub fn timed(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.parent = self.tracer.record(self.op, self.parent, name, start, end);
        self.durations_ns
            .push(end.saturating_duration_since(start).as_nanos() as f64);
    }

    /// Run and time the next rung.
    pub fn rung<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.timed(name, start, end);
        out
    }

    pub fn finish(self) -> Vec<f64> {
        self.durations_ns
    }
}

/// Per-operation rung durations for one kind of operation.
pub struct Ladder {
    pub kind: &'static str,
    pub layers: Vec<&'static str>,
    rows: Vec<Vec<f64>>,
}

impl Ladder {
    pub fn new(kind: &'static str, layers: &[&'static str]) -> Ladder {
        Ladder {
            kind,
            layers: layers.to_vec(),
            rows: Vec::new(),
        }
    }

    /// Add one operation's rung durations (top rung first).
    pub fn push(&mut self, durations_ns: Vec<f64>) {
        assert_eq!(
            durations_ns.len(),
            self.layers.len(),
            "{} ladder",
            self.kind
        );
        self.rows.push(durations_ns);
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Self times (ns) of one layer over every recorded operation.
    pub fn self_ns(&self, layer: &str) -> Vec<f64> {
        let Some(i) = self.layers.iter().position(|&l| l == layer) else {
            return Vec::new();
        };
        self.rows
            .iter()
            .map(|r| r[i] - r.get(i + 1).copied().unwrap_or(0.0))
            .collect()
    }

    /// Durations (ns) of one rung over every recorded operation.
    pub fn rung_ns(&self, layer: &str) -> Vec<f64> {
        let Some(i) = self.layers.iter().position(|&l| l == layer) else {
            return Vec::new();
        };
        self.rows.iter().map(|r| r[i]).collect()
    }

    /// Mean duration (ns) of the top rung.
    pub fn top_mean_ns(&self) -> f64 {
        stats::mean(&self.rows.iter().map(|r| r[0]).collect::<Vec<_>>())
    }

    /// Markdown table of per-layer self times, plus the sum check
    /// against the untraced per-operation mean.
    pub fn render(&self, untraced_mean_ns: f64, tolerance: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "ladder `{}` ({} ops): layer | self p50 us | self mean us | share of top",
            self.kind,
            self.rows.len()
        );
        let top = self.top_mean_ns();
        for &layer in &self.layers {
            let s = self.self_ns(layer);
            let m = stats::mean(&s);
            let _ = writeln!(
                out,
                "  {layer:<22} | {:>10.3} | {:>10.3} | {:>6.1}%",
                stats::median(&s) / 1e3,
                m / 1e3,
                100.0 * m / top.max(1e-9)
            );
        }
        let err = (top - untraced_mean_ns).abs() / untraced_mean_ns.max(1e-9);
        let _ = writeln!(
            out,
            "  sum of self means = {:.3} us vs untraced per-op mean {:.3} us: error {:.1}% ({} tolerance {:.0}%)",
            top / 1e3,
            untraced_mean_ns / 1e3,
            100.0 * err,
            if err <= tolerance { "within" } else { "OUTSIDE" },
            100.0 * tolerance
        );
        out
    }

    /// Relative error of the self-time sum against the untraced mean.
    pub fn sum_error(&self, untraced_mean_ns: f64) -> f64 {
        (self.top_mean_ns() - untraced_mean_ns).abs() / untraced_mean_ns.max(1e-9)
    }
}
