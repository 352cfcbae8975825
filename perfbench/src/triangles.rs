//! `triangles`: batch triangle counting on a LiveJournal-like R-MAT
//! graph, degree-oriented, with `FesiaGraph::count_triangles` on two
//! threads. Every pass's count is checked against the library's
//! hash-join reference count.

use crate::common::{counters, exec_counters, report_breakdowns, setup_median, Census, Window};
use crate::report::{Report, SUM_TOLERANCE};
use crate::stats;
use crate::trace::{Chain, Ladder, Tracer};
use crate::Args;
use fesia_core::{
    auto_count_planned, execute_plan_count, intersect_count_breakdown, FesiaParams, IntersectPlan,
    IntersectPlanner, KernelTable, SetSummary,
};
use fesia_graph::{count_reference, CsrGraph, FesiaGraph, GraphPreset};
use std::time::Duration;

/// Share of soc-LiveJournal the R-MAT stand-in is scaled to
/// (262k nodes, 1.3M edges).
const GRAPH_SCALE: f64 = 0.04;
/// Worker threads of the counting pass (the host has two cores).
const THREADS: usize = 2;
const SETUP_REPS: usize = 7;
/// One in this many oriented edges gets a step-1/step-2 breakdown in
/// the traced run.
const BREAKDOWN_EVERY: usize = 64;

/// Time full counting passes until the window closes (at least one);
/// every count is checked.
fn passes(
    fg: &FesiaGraph,
    d: &CsrGraph,
    table: &KernelTable,
    threads: usize,
    window: Duration,
    expect: u64,
    report: &mut Report,
) -> Vec<f64> {
    let w = Window::new(window);
    let mut times = Vec::new();
    loop {
        let (count, dt) = fg.count_triangles(d, table, threads);
        report.check(count == expect);
        times.push(dt.as_secs_f64());
        if !w.open() {
            return times;
        }
    }
}

/// The same edge loop as `count_triangles`, on one thread, with no
/// executor: the per-pair planned count on the bases.
fn pair_loop(
    fg: &FesiaGraph,
    d: &CsrGraph,
    table: &KernelTable,
    planner: &IntersectPlanner,
) -> u64 {
    let snap = fg.snapshot();
    let mut acc = 0u64;
    for u in 0..d.num_nodes() as u32 {
        let su = snap.get(u).expect("vertex ids are dense").set().base();
        for &v in d.neighbors(u) {
            let sv = snap.get(v).expect("vertex ids are dense").set().base();
            acc += auto_count_planned(su, sv, table, planner) as u64;
        }
    }
    acc
}

/// The edge loop with every pair's plan decided beforehand: kernels only.
fn kernel_loop(fg: &FesiaGraph, d: &CsrGraph, table: &KernelTable, plans: &[IntersectPlan]) -> u64 {
    let snap = fg.snapshot();
    let mut acc = 0u64;
    let mut k = 0usize;
    for u in 0..d.num_nodes() as u32 {
        let su = snap.get(u).expect("vertex ids are dense").set().base();
        for &v in d.neighbors(u) {
            let sv = snap.get(v).expect("vertex ids are dense").set().base();
            acc += execute_plan_count(su, sv, table, plans[k]) as u64;
            k += 1;
        }
    }
    acc
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::new();
    let g = GraphPreset::LiveJournal.generate(GRAPH_SCALE, args.seed);
    let d = g.orient_by_degree();
    let expect = count_reference(&g);
    let edges = d.num_directed_edges();
    report.size("nodes", d.num_nodes());
    report.size("oriented_edges", edges);
    report.size("triangles", expect);
    report.size("threads", THREADS);
    drop(g);

    let params = FesiaParams::auto();
    let (setup_s, fg) = setup_median(SETUP_REPS, || FesiaGraph::build(&d, &params));
    let bytes = fg.memory_bytes();
    report.size("encoded_bytes", bytes);
    let table = KernelTable::auto();
    // Warm-up pass: starts the executor's workers and faults pages in.
    let (warm, _) = fg.count_triangles(&d, &table, THREADS);
    report.check(warm == expect);

    let secs = args.seconds as f64;
    let window = if args.trace { secs / 2.0 } else { secs };
    let before = counters();
    let times = passes(
        &fg,
        &d,
        &table,
        THREADS,
        Duration::from_secs_f64(window),
        expect,
        &mut report,
    );
    let delta = counters().delta(&before);
    let sum = stats::summarize(&times);
    report.size("timed_passes", times.len());
    report.line(format!(
        "# triangles: {} nodes, {edges} oriented edges, {expect} triangles, {:.1} MiB encoded; {} passes on {THREADS} threads",
        d.num_nodes(),
        bytes as f64 / (1 << 20) as f64,
        times.len()
    ));
    report.line(format!(
        "# pass time: p50 {:.4} s, p{:.1} {:.4} s over {} passes",
        sum.p50,
        100.0 * sum.tail.q,
        sum.tail.value,
        times.len()
    ));
    Census::of(&delta).report_plans(&mut report);

    if !args.trace {
        report.set("setup_s", setup_s);
        report.set("ops_per_s", edges as f64 / sum.p50);
        report.set("p50_us", sum.p50 * 1e6);
        report.set("p99_us", sum.tail.value * 1e6);
        report.set("bytes_per_elem", bytes as f64 / edges as f64);
        return report;
    }

    // ---- traced run ----
    exec_counters(&mut report, &delta, times.len());
    report.set("layout.build_ns_per_elem", setup_s * 1e9 / edges as f64);
    Census::of(&delta).report_work(&mut report, delta.graph_edge_intersections);

    let planner = IntersectPlanner::current();
    let plans: Vec<IntersectPlan> = {
        let snap = fg.snapshot();
        let mut plans = Vec::with_capacity(edges);
        for u in 0..d.num_nodes() as u32 {
            let su = SetSummary::of(snap.get(u).expect("dense ids").set().base());
            for &v in d.neighbors(u) {
                let sv = SetSummary::of(snap.get(v).expect("dense ids").set().base());
                plans.push(planner.plan_pair(&su, &sv));
            }
        }
        plans
    };
    // Rungs are scaled to per-pass wall time at THREADS threads, so a
    // rung's self time is that layer's share of the 2-thread pass:
    // `exec.parallel` is the loss against a perfect split of the 1-thread
    // pass, `graph` the graph and executor overhead on one thread,
    // `plan` the per-pair planning, `kernels` the intersections.
    let mut ladder = Ladder::new("pass", &["exec.parallel", "graph", "plan", "kernels"]);
    let mut t1s = Vec::new();
    let w = Window::new(Duration::from_secs_f64(secs / 2.0));
    let scale = 1.0 / THREADS as f64;
    loop {
        let mut chain = Chain::new(tracer);
        let c2 = chain.rung("exec.parallel", || {
            fg.count_triangles(&d, &table, THREADS).0
        });
        let c1 = chain.rung("graph", || fg.count_triangles(&d, &table, 1).0);
        let cp = chain.rung("plan", || pair_loop(&fg, &d, &table, &planner));
        let ck = chain.rung("kernels", || kernel_loop(&fg, &d, &table, &plans));
        for c in [c2, c1, cp, ck] {
            report.check(c == expect);
        }
        let r = chain.finish();
        t1s.push(r[1] / 1e9);
        ladder.push(vec![r[0], r[1] * scale, r[2] * scale, r[3] * scale]);
        if !w.open() {
            break;
        }
    }
    // Per-pair step breakdown on a sample of edges.
    let mut breakdowns = Vec::new();
    {
        let snap = fg.snapshot();
        let mut k = 0usize;
        for u in 0..d.num_nodes() as u32 {
            for &v in d.neighbors(u) {
                k += 1;
                if !k.is_multiple_of(BREAKDOWN_EVERY) {
                    continue;
                }
                let a = snap.get(u).expect("dense ids").set().base();
                let b = snap.get(v).expect("dense ids").set().base();
                breakdowns.push(intersect_count_breakdown(a, b, &table));
            }
        }
    }
    report_breakdowns(&mut report, &breakdowns);

    let t2 = stats::median(&ladder.rung_ns("exec.parallel")) / 1e9;
    let t1 = stats::median(&t1s);
    let tp = stats::median(&ladder.rung_ns("plan")) / 1e9 / scale;
    let tk = stats::median(&ladder.rung_ns("kernels")) / 1e9 / scale;
    report.set("graph.pass_1t_s", t1);
    report.set("graph.self_s", t1 - tp);
    report.set("exec.parallel_efficiency", t1 / (THREADS as f64 * t2));
    report.set("core.pair_ns", tp * 1e9 / edges as f64);
    report.set("core.plan_self_ns", (tp - tk) * 1e9 / edges as f64);
    let untraced_mean_ns = sum.mean * 1e9;
    report.set("trace.sum_error_share", ladder.sum_error(untraced_mean_ns));
    report.set("trace.overhead_share", (t2 - sum.p50) / sum.p50);
    report.set("trace.spans", tracer.len() as f64);
    report.line(ladder.render(untraced_mean_ns, SUM_TOLERANCE).trim_end());
    report.line(format!(
        "# 1-thread pass {t1:.4} s, 2-thread pass {t2:.4} s: parallel efficiency {:.3} (nproc {})",
        t1 / (THREADS as f64 * t2),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    report
}
