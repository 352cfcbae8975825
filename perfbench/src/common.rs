//! Helpers shared by the workloads.

use crate::report::Report;
use crate::stats;
use fesia_core::Breakdown;
use fesia_obs::MetricsSnapshot;
use std::time::{Duration, Instant};

/// Run the program's offline phase `reps` times and return the median
/// wall time with the last result. Each earlier result is dropped
/// outside the timed region before the next build starts, so one copy
/// is alive at a time.
pub fn setup_median<T>(reps: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    assert!(reps >= 1);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        crate::calib::tick();
        let t = Instant::now();
        let built = std::hint::black_box(build());
        times.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    (
        crate::stats::median(&times),
        last.expect("at least one build ran"),
    )
}

/// Planner decisions and per-operation work counters over some interval.
#[derive(Debug, Default, Clone, Copy)]
pub struct Census {
    /// plain, pipelined, pruned, hash, gallop, compressed, container.
    pub plans: [u64; 7],
    pub hash_probe_elems: u64,
    pub word_ops: u64,
    pub ranges: u64,
    pub emitted: u64,
}

impl Census {
    pub fn of(d: &MetricsSnapshot) -> Census {
        Census {
            plans: [
                d.plan_plain,
                d.plan_pipelined,
                d.plan_pruned,
                d.plan_hash,
                d.plan_gallop,
                d.plan_compressed,
                d.plan_container,
            ],
            hash_probe_elems: d.hash_probe_elements,
            word_ops: d.container_word_ops,
            ranges: d.container_ranges_array + d.container_ranges_bitmap + d.container_ranges_run,
            emitted: d.algebra_emitted,
        }
    }

    pub fn add(&mut self, o: &Census) {
        for (a, b) in self.plans.iter_mut().zip(o.plans) {
            *a += b;
        }
        self.hash_probe_elems += o.hash_probe_elems;
        self.word_ops += o.word_ops;
        self.ranges += o.ranges;
        self.emitted += o.emitted;
    }

    /// Set the `plan.*_share` metrics and describe them in the report.
    pub fn report_plans(&self, report: &mut Report) {
        const NAMES: [&str; 7] = [
            "plan.plain_share",
            "plan.pipelined_share",
            "plan.pruned_share",
            "plan.hash_share",
            "plan.gallop_share",
            "plan.compressed_share",
            "plan.container_share",
        ];
        let total: u64 = self.plans.iter().sum();
        let mut line = format!("# plan census ({total} planner decisions):");
        for (name, n) in NAMES.into_iter().zip(self.plans) {
            let share = n as f64 / total.max(1) as f64;
            report.set(name, share);
            let short = name.trim_start_matches("plan.").trim_end_matches("_share");
            line.push_str(&format!(" {short}={share:.4}"));
        }
        report.line(line);
    }

    /// Set the per-operation work counters, over `ops` operations.
    pub fn report_work(&self, report: &mut Report, ops: u64) {
        let per = |v: u64| v as f64 / ops.max(1) as f64;
        report.set("core.hash_probe_elems", per(self.hash_probe_elems));
        report.set("container.word_ops", per(self.word_ops));
        report.set("container.ranges", per(self.ranges));
        report.set("algebra.emitted", per(self.emitted));
    }
}

/// Set the kernel metrics from sampled `intersect_count_breakdown`s:
/// per-pair medians, and matches per surviving segment pair.
pub fn report_breakdowns(report: &mut Report, bds: &[Breakdown]) {
    if bds.is_empty() {
        return;
    }
    let col = |f: fn(&Breakdown) -> f64| stats::median(&bds.iter().map(f).collect::<Vec<_>>());
    report.set("core.step1_cycles", col(|b| b.step1_cycles as f64));
    report.set("core.step2_cycles", col(|b| b.step2_cycles as f64));
    report.set("core.survivor_segments", col(|b| b.matched_segments as f64));
    let useful: usize = bds.iter().map(|b| b.count).sum();
    let matched: usize = bds.iter().map(|b| b.matched_segments).sum();
    report.set(
        "core.step2_useful_ratio",
        useful as f64 / matched.max(1) as f64,
    );
}

/// Set the executor counters, per pass.
pub fn exec_counters(report: &mut Report, d: &MetricsSnapshot, passes: usize) {
    let per = |v: u64| v as f64 / passes.max(1) as f64;
    report.set("exec.chunks_claimed", per(d.exec_chunks_claimed));
    report.set("exec.worker_parks", per(d.exec_worker_parks));
    report.set("exec.worker_wakes", per(d.exec_worker_wakes));
    report.set("exec.ticket_rejections", per(d.exec_ticket_rejections));
}

/// Cycles-per-nanosecond of the cycle counter the library's breakdowns
/// report in, measured once.
pub fn tsc_ghz() -> f64 {
    static GHZ: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *GHZ.get_or_init(fesia_simd::timer::estimate_tsc_ghz)
}

/// Counter snapshot of the library's process-wide metrics.
pub fn counters() -> MetricsSnapshot {
    fesia_obs::metrics().snapshot()
}

/// A measurement window: `until(d)` is true while time remains.
pub struct Window {
    end: Instant,
}

impl Window {
    pub fn new(d: Duration) -> Window {
        Window {
            end: Instant::now() + d,
        }
    }

    pub fn open(&self) -> bool {
        crate::calib::tick();
        Instant::now() < self.end
    }
}

/// Sleep-then-yield until `due`; returns when `Instant::now() >= due`.
/// Sleeping covers long gaps cheaply; the final stretch yields in a loop
/// so the wake-up lateness stays in the microseconds while the other
/// client thread and the library's background rebuilds can still run
/// (the host has two cores).
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Microseconds between two instants (0 if `b` precedes `a`).
pub fn us(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_nanos() as f64 / 1e3
}
