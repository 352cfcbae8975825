//! Measurement utilities shared by every experiment driver.

use fesia_simd::timer::CycleTimer;

/// Global workload scale for the reproduction harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized: seconds per experiment, shapes still visible.
    Smoke,
    /// Default: minutes for the full suite, faithful shapes.
    Standard,
    /// Paper-sized inputs where feasible (3.2M-element sets etc.).
    Full,
}

impl Scale {
    /// Multiplier applied to the paper's nominal workload sizes.
    pub fn factor(&self) -> f64 {
        match self {
            Scale::Smoke => 0.01,
            Scale::Standard => 0.1,
            Scale::Full => 1.0,
        }
    }

    /// Scale a paper-nominal size, with a floor to keep shapes meaningful.
    pub fn size(&self, nominal: usize) -> usize {
        ((nominal as f64 * self.factor()) as usize).max(1_000)
    }

    /// Measurement repetitions (more on smaller workloads).
    pub fn reps(&self) -> usize {
        match self {
            Scale::Smoke => 3,
            Scale::Standard => 5,
            Scale::Full => 3,
        }
    }
}

/// Directory that smoke-scale runs write their `BENCH_*.json` into,
/// relative to the working directory.
pub const SMOKE_DIR: &str = "target/repro-smoke";

/// Write an experiment's `BENCH_<name>.json` and return its path. Standard
/// and full scale write the working directory's file, the committed
/// figure; smoke scale writes under [`SMOKE_DIR`] so a quick check never
/// overwrites it. A failed write is reported on stderr, not fatal.
pub fn write_bench_json(scale: Scale, name: &str, json: &str) -> String {
    let file = format!("BENCH_{name}.json");
    let path = match scale {
        Scale::Smoke => {
            if let Err(e) = std::fs::create_dir_all(SMOKE_DIR) {
                eprintln!("[{name}] could not create {SMOKE_DIR}: {e}");
            }
            format!("{SMOKE_DIR}/{file}")
        }
        Scale::Standard | Scale::Full => file,
    };
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("[{name}] could not write {path}: {e}");
    }
    path
}

/// Measure `f` in cycles: one warm-up call, then the minimum over `reps`
/// timed calls (the low-noise estimator for deterministic kernels). The
/// closure's result is returned so callers can verify correctness and keep
/// the computation live.
pub fn measure_cycles<T, F: FnMut() -> T>(reps: usize, mut f: F) -> (u64, T) {
    let mut result = f(); // warm-up (also primes caches, as the paper does)
    let mut best = u64::MAX;
    for _ in 0..reps.max(1) {
        let t = CycleTimer::start();
        result = f();
        best = best.min(t.elapsed_cycles());
    }
    (best, result)
}

/// Format cycles as the paper's "million cycles" unit.
pub fn mcycles(c: u64) -> f64 {
    c as f64 / 1.0e6
}

/// A simple markdown table builder for experiment reports.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render as a GitHub-flavored markdown table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let seps: Vec<String> = (0..ncols).map(|i| "-".repeat(widths[i])).collect();
        out.push_str(&fmt_row(&seps));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Format a f64 with 2 decimals (helper for table cells).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_sizes() {
        assert_eq!(Scale::Full.size(1_000_000), 1_000_000);
        assert_eq!(Scale::Standard.size(1_000_000), 100_000);
        assert_eq!(Scale::Smoke.size(1_000_000), 10_000);
        assert_eq!(Scale::Smoke.size(10), 1_000); // floor
    }

    #[test]
    fn measure_returns_result_and_nonzero_cycles() {
        let (cycles, v) = measure_cycles(3, || (0..10_000u64).sum::<u64>());
        assert_eq!(v, 49_995_000);
        assert!(cycles > 0);
    }

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(vec!["a", "method"]);
        t.row(vec!["1", "Scalar"]);
        t.row(vec!["22", "FESIA"]);
        let s = t.render();
        assert!(s.contains("| Scalar |") || s.contains("Scalar |"));
        assert_eq!(s.lines().count(), 4);
        assert!(s.lines().all(|l| l.starts_with('|')));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn ragged_row_panics() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1", "2"]);
    }
}
