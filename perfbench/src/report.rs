//! Metric registry, provenance stamp and result output.
//!
//! The registry below is the single list of metric names and units; it
//! must match `BENCHMARK.json` (checked by this package's tests). An
//! untraced run prints every end-to-end metric, a traced run every
//! per-layer metric; a per-layer metric whose layer the workload never
//! enters is reported as 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: name, unit. Reported on every workload; the
/// per-workload meaning is documented in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("bytes_per_elem", "B"),
];

/// Per-layer metrics: name, unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.sum_error_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.cold_self_us", "us"),
    ("calib.factor", "ratio"),
    ("serve.protocol.self_us", "us"),
    ("serve.store.read_self_us", "us"),
    ("serve.queue_us", "us"),
    ("serve.generator_lag_us", "us"),
    ("serve.store.apply_p50_us", "us"),
    ("serve.store.apply_p99_us", "us"),
    ("serve.write_p99_us", "us"),
    ("serve.due_p50_us", "us"),
    ("serve.due_p99_us", "us"),
    ("serve.max_rate_rps", "reads/s"),
    ("serve.writes_per_publish", "ratio"),
    ("serve.rebuilds", "count"),
    ("serve.pin_stall_max_us", "us"),
    ("dynamic.delta_elems_per_read", "count"),
    ("dynamic.merge_self_us", "us"),
    ("snapshot.pin_ns", "ns"),
    ("plan.plain_share", "ratio"),
    ("plan.pipelined_share", "ratio"),
    ("plan.pruned_share", "ratio"),
    ("plan.hash_share", "ratio"),
    ("plan.gallop_share", "ratio"),
    ("plan.compressed_share", "ratio"),
    ("plan.container_share", "ratio"),
    ("core.step1_cycles", "cycles"),
    ("core.step2_cycles", "cycles"),
    ("core.survivor_segments", "count"),
    ("core.step2_useful_ratio", "ratio"),
    ("core.pair_ns", "ns"),
    ("core.plan_self_ns", "ns"),
    ("core.hash_probe_elems", "count"),
    ("container.word_ops", "count"),
    ("container.ranges", "count"),
    ("kway.query_us", "us"),
    ("algebra.retrieve_us", "us"),
    ("algebra.andnot_us", "us"),
    ("algebra.emitted", "count"),
    ("index.self_us", "us"),
    ("index.query_us.count2", "us"),
    ("index.query_us.count3", "us"),
    ("index.query_us.retrieve", "us"),
    ("index.query_us.andnot", "us"),
    ("graph.pass_1t_s", "s"),
    ("graph.self_s", "s"),
    ("exec.parallel_efficiency", "ratio"),
    ("exec.chunks_claimed", "count"),
    ("exec.worker_parks", "count"),
    ("exec.worker_wakes", "count"),
    ("exec.ticket_rejections", "count"),
    ("simjoin.candidate_gen_s", "s"),
    ("simjoin.verify_s", "s"),
    ("simjoin.bitmap_rejected_share", "ratio"),
    ("simjoin.early_exit_share", "ratio"),
    ("simjoin.useful_share", "ratio"),
    ("layout.build_ns_per_elem", "ns"),
];

/// Tolerance of the traced run's sum check: the self times (which sum
/// to the traced top rung) must be within this share of the untraced
/// per-operation time.
pub const SUM_TOLERANCE: f64 = 0.25;

/// What one run measured and checked.
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Input sizes, for the stamp.
    pub sizes: Vec<(&'static str, String)>,
    /// Human-readable lines (tables, the per-layer ladder) printed
    /// before the result line.
    pub text: String,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new() -> Report {
        Report {
            values: BTreeMap::new(),
            sizes: Vec::new(),
            text: String::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Set a registered metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "metric `{name}` is not registered"
        );
        self.values.insert(name, value);
    }

    pub fn size(&mut self, name: &'static str, value: impl ToString) {
        self.sizes.push((name, value.to_string()));
    }

    /// Count one checked operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn line(&mut self, s: impl AsRef<str>) {
        self.text.push_str(s.as_ref());
        self.text.push('\n');
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Divide the end-to-end times by the run's host-speed factor (see
    /// `calib`), keeping the raw values for the tables; a traced run
    /// reports the factor itself.
    pub fn normalize(&mut self, trace: bool) {
        let (factor, samples) = crate::calib::factor();
        self.size("host_speed_factor", factor);
        self.size("host_speed_samples", samples);
        if trace {
            self.set("calib.factor", factor);
            return;
        }
        let mut raw = String::from("# raw (unnormalized) values:");
        for (name, scale) in [
            ("setup_s", 1.0 / factor),
            ("ops_per_s", factor),
            ("p50_us", 1.0 / factor),
            ("p99_us", 1.0 / factor),
        ] {
            if let Some(v) = self.values.get_mut(name) {
                raw.push_str(&format!(" {name}={v}"));
                *v *= scale;
            }
        }
        self.line(format!(
            "{raw}; host-speed factor {factor:.4} over {samples} kernel samples"
        ));
    }

    /// The metric object for this run: every end-to-end metric (untraced)
    /// or every per-layer metric (traced). A missing or non-finite
    /// end-to-end value is a bug in the benchmark and panics.
    fn metrics_json(&self, trace: bool) -> String {
        let registry = if trace { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::new();
        for &(name, unit) in registry {
            let v = match self.values.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric `{name}` was not measured"),
            };
            assert!(v.is_finite(), "metric `{name}` is not finite: {v}");
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            ));
        }
        format!("{{{}}}", parts.join(", "))
    }

    /// The final stdout line.
    pub fn result_line(&self, trace: bool) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(trace)
        )
    }

    /// A table of every value set this run, with units.
    pub fn metric_table(&self, trace: bool) -> String {
        let registry = if trace { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        for &(name, unit) in registry {
            match self.values.get(name) {
                Some(v) => {
                    let _ = writeln!(out, "  {name:<32} {:>16} {unit}", fmt_val(*v));
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  {name:<32} {:>16} {unit} (layer not on this workload)",
                        0
                    );
                }
            }
        }
        out
    }
}

/// A JSON number with every digit (shortest round-trip form).
pub fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn fmt_val(v: f64) -> String {
    if v.abs() >= 1e5 || v == v.trunc() {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// Provenance of a result: what code, on what machine, with what inputs.
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool, report: &Report) -> String {
    let cpu = cpu_brand();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let knobs: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("FESIA_"))
        .map(|(k, v)| format!("\"{k}\": \"{}\"", esc(&v)))
        .collect();
    let sizes: Vec<String> = report
        .sizes
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", esc(v)))
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"commit\": \"{}\", \"cpu\": \"{}\", \"simd\": \"{}\", \
         \"nproc\": {nproc}, \"seed\": {seed}, \"run_seconds\": {seconds}, \"trace\": {trace}, \
         \"planner_profile\": \"{}\", \"fesia_env\": {{{}}}, \"inputs\": {{{}}}}}",
        esc(&crate::provenance::commit()),
        esc(&cpu),
        fesia_core::SimdLevel::detect(),
        esc(&fesia_core::profile_status()),
        knobs.join(", "),
        sizes.join(", ")
    )
}

/// The CPU's brand string, read with CPUID (no file access).
#[cfg(target_arch = "x86_64")]
fn cpu_brand() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x80000000 reports the highest extended leaf; the brand string
    // is in leaves 0x80000002..=0x80000004.
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_brand() -> String {
    "unknown".into()
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry and `BENCHMARK.json` name the same metrics with the
    /// same units.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let entries = json.matches("\"name\":").count();
        let workloads = json.matches("\"why\":").count();
        assert_eq!(entries, workloads + END_TO_END.len() + PER_LAYER.len());
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(0.123456789012), "0.123456789012");
    }
}
