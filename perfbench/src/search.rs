//! `search`: closed-loop keyword queries over a WebDocs-like corpus.
//!
//! One client thread runs a fixed pool of queries in order, each after
//! the previous one returned. The pool mixes 2-term counts, 3-term
//! counts, 2-term document retrieval and AND-NOT boolean queries, with
//! terms drawn by popularity (Zipf over document-frequency rank). Every
//! answer is checked against a sorted-merge oracle over the raw posting
//! lists.

use crate::common::{self, counters, setup_median, Census, Window};
use crate::report::{Report, SUM_TOLERANCE};
use crate::stats;
use crate::trace::{Chain, Ladder, Tracer};
use crate::Args;
use fesia_core::{
    auto_count_planned, execute_plan_count, intersect_count_breakdown, kway_count_planned,
    kway_intersect_with, set_op_planned, FesiaParams, IntersectPlanner, KernelTable, SegmentedSet,
    SetOp, SetSummary,
};
use fesia_datagen::{SplitMix64, Zipf};
use fesia_index::{BooleanQuery, CorpusParams, FesiaIndex, InvertedIndex, Query};
use std::time::{Duration, Instant};

/// Share of WebDocs the corpus is scaled to (51k docs, ~9M postings).
const CORPUS_SCALE: f64 = 0.03;
/// Distinct queries in the pool; the loop cycles through it.
const POOL: usize = 16_384;
/// Zipf exponent of term popularity over document-frequency rank.
const TERM_ZIPF: f64 = 1.0;
/// Offline-phase repetitions (`setup_s` is their median).
const SETUP_REPS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Count2,
    Count3,
    Retrieve,
    AndNot,
}

const KINDS: [Kind; 4] = [Kind::Count2, Kind::Count3, Kind::Retrieve, Kind::AndNot];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Count2 => "count2",
            Kind::Count3 => "count3",
            Kind::Retrieve => "retrieve",
            Kind::AndNot => "andnot",
        }
    }

    fn metric(self) -> &'static str {
        match self {
            Kind::Count2 => "index.query_us.count2",
            Kind::Count3 => "index.query_us.count3",
            Kind::Retrieve => "index.query_us.retrieve",
            Kind::AndNot => "index.query_us.andnot",
        }
    }
}

/// What the oracle expects: a count, or the length and hash of a
/// document list (kept as a digest so the pool's answers stay small).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Expect {
    Count(usize),
    Docs(usize, u64),
}

struct Item {
    kind: Kind,
    query: Query,
    expect: Expect,
}

fn digest(docs: &[u32]) -> Expect {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &d in docs {
        h ^= d as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    Expect::Docs(docs.len(), h)
}

fn merge_and(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (mut i, mut j, mut out) = (0, 0, Vec::new());
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn merge_andnot(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (mut j, mut out) = (0, Vec::new());
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j == b.len() || b[j] != x {
            out.push(x);
        }
    }
    out
}

fn make_pool(index: &InvertedIndex, seed: u64) -> Vec<Item> {
    let by_rank = index.terms_by_frequency();
    let zipf = Zipf::new(by_rank.len() as u64, TERM_ZIPF);
    let mut rng = SplitMix64::new(seed ^ 0x5EA2_C400);
    let mut pool = Vec::with_capacity(POOL);
    for i in 0..POOL {
        let kind = KINDS[i % KINDS.len()];
        let k = if kind == Kind::Count3 { 3 } else { 2 };
        let mut terms: Vec<u32> = Vec::with_capacity(k);
        while terms.len() < k {
            let t = by_rank[(zipf.sample(&mut rng) - 1) as usize];
            if !terms.contains(&t) {
                terms.push(t);
            }
        }
        let expect = match kind {
            Kind::Count2 | Kind::Count3 => {
                Expect::Count(fesia_index::reference_kway(index, &terms))
            }
            Kind::Retrieve => digest(&merge_and(index.posting(terms[0]), index.posting(terms[1]))),
            Kind::AndNot => digest(&merge_andnot(
                index.posting(terms[0]),
                index.posting(terms[1]),
            )),
        };
        pool.push(Item {
            kind,
            query: Query { terms },
            expect,
        });
    }
    pool
}

fn and_not(q: &Query) -> BooleanQuery {
    BooleanQuery {
        must: vec![q.terms[0]],
        should: Vec::new(),
        must_not: vec![q.terms[1]],
    }
}

/// Run one query through the index's public entry point.
fn answer(fesia: &FesiaIndex, item: &Item, table: &KernelTable) -> Expect {
    match item.kind {
        Kind::Count2 | Kind::Count3 => Expect::Count(
            fesia
                .run_queries(std::slice::from_ref(&item.query), table)
                .0,
        ),
        Kind::Retrieve => digest(&fesia.retrieve(&item.query, table)),
        Kind::AndNot => digest(&fesia.run_boolean(&and_not(&item.query), table)),
    }
}

/// Per-kind latency samples (us) of a closed-loop phase.
struct Phase {
    by_kind: [Vec<f64>; 4],
    total_s: f64,
}

impl Phase {
    fn all(&self) -> Vec<f64> {
        self.by_kind.iter().flatten().copied().collect()
    }
}

fn closed_loop(
    fesia: &FesiaIndex,
    pool: &[Item],
    table: &KernelTable,
    window: Duration,
    report: &mut Report,
) -> Phase {
    let mut phase = Phase {
        by_kind: Default::default(),
        total_s: 0.0,
    };
    let w = Window::new(window);
    let mut i = 0usize;
    while w.open() {
        let item = &pool[i % pool.len()];
        let t = Instant::now();
        let got = std::hint::black_box(answer(fesia, item, table));
        let dt = t.elapsed();
        report.check(got == item.expect);
        phase.by_kind[item.kind as usize].push(dt.as_nanos() as f64 / 1e3);
        phase.total_s += dt.as_secs_f64();
        i += 1;
    }
    phase
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::new();
    let corpus = CorpusParams::webdocs_scaled(CORPUS_SCALE, args.seed);
    let index = InvertedIndex::synthesize(&corpus);
    let pool = make_pool(&index, args.seed);
    let postings = index.total_postings();
    report.size("docs", index.num_docs());
    report.size("terms", index.num_terms());
    report.size("postings", postings);
    report.size("query_pool", POOL);
    report.size("client_threads", 1);

    let params = FesiaParams::auto();
    let (setup_s, fesia) = setup_median(SETUP_REPS, || FesiaIndex::build(&index, &params));
    let bytes = fesia.memory_bytes();
    report.size("encoded_bytes", bytes);
    let table = KernelTable::auto();
    // Warm-up: one pass over a slice of the pool, unmeasured.
    for item in pool.iter().take(256) {
        std::hint::black_box(answer(&fesia, item, &table));
    }

    let secs = args.seconds as f64;
    let untraced_window = if args.trace { secs / 2.0 } else { secs };
    let before = counters();
    let phase = closed_loop(
        &fesia,
        &pool,
        &table,
        Duration::from_secs_f64(untraced_window),
        &mut report,
    );
    let delta = counters().delta(&before);
    let all = phase.all();
    let n = all.len();
    let sum = stats::summarize(&all);
    report.size("timed_queries", n);
    report.line(format!(
        "# search: {} docs, {} terms, {postings} postings, {:.1} MiB encoded; {n} queries from a pool of {POOL}",
        index.num_docs(),
        index.num_terms(),
        bytes as f64 / (1 << 20) as f64
    ));
    for kind in KINDS {
        let s = &phase.by_kind[kind as usize];
        if !s.is_empty() {
            let k = stats::summarize(s);
            report.line(format!(
                "#   {:<8} n={:<6} p50={:.2}us p{:.1}={:.2}us mean={:.2}us",
                kind.name(),
                s.len(),
                k.p50,
                100.0 * k.tail.q,
                k.tail.value,
                k.mean
            ));
        }
    }
    report.line(format!(
        "# latency: p50 {:.2} us, p{:.1} {:.2} us over {n} samples",
        sum.p50,
        100.0 * sum.tail.q,
        sum.tail.value
    ));
    let census = Census::of(&delta);
    census.report_plans(&mut report);

    if !args.trace {
        report.set("setup_s", setup_s);
        report.set("ops_per_s", n as f64 / phase.total_s);
        report.set("p50_us", sum.p50);
        report.set("p99_us", sum.tail.value);
        report.set("bytes_per_elem", bytes as f64 / postings as f64);
        return report;
    }

    // ---- traced run: untraced figures above, ladder below ----
    report.set("layout.build_ns_per_elem", setup_s * 1e9 / postings as f64);
    census.report_work(&mut report, n as u64);
    for kind in KINDS {
        let s = &phase.by_kind[kind as usize];
        if !s.is_empty() {
            report.set(kind.metric(), stats::median(s));
        }
    }

    let planner = IntersectPlanner::current();
    let snap = fesia.snapshot();
    let base = |t: u32| -> &SegmentedSet { snap.get(t).expect("term ids are dense").set().base() };
    let mut ladders = [
        Ladder::new("count2", &["cold", "index", "snapshot", "plan", "kernels"]),
        Ladder::new("count3", &["cold", "index", "snapshot", "kway"]),
        Ladder::new("retrieve", &["cold", "index", "snapshot", "algebra"]),
        Ladder::new("andnot", &["cold", "index", "snapshot", "algebra"]),
    ];
    let mut pin_ns = Vec::new();
    let mut breakdowns = Vec::new();
    let ghz = common::tsc_ghz();
    let w = Window::new(Duration::from_secs_f64(secs / 2.0));
    let mut i = 0usize;
    while w.open() {
        let item = &pool[i % pool.len()];
        i += 1;
        let q = &item.query;
        let mut chain = Chain::new(tracer);
        // The first run finds caches as the untraced loop does; every
        // later rung re-runs warm, so `cold` is the first-touch cost.
        let got = chain.rung("cold", || answer(&fesia, item, &table));
        report.check(got == item.expect);
        chain.rung("index", || answer(&fesia, item, &table));
        match item.kind {
            Kind::Count2 => {
                let (a, b) = (base(q.terms[0]), base(q.terms[1]));
                chain.rung("snapshot", || fesia.snapshot().kway_count(&q.terms, &table));
                chain.rung("plan", || auto_count_planned(a, b, &table, &planner));
                let plan = planner.plan_pair(&SetSummary::of(a), &SetSummary::of(b));
                chain.rung("kernels", || execute_plan_count(a, b, &table, plan));
                breakdowns.push(intersect_count_breakdown(a, b, &table));
            }
            Kind::Count3 => {
                let sets: Vec<&SegmentedSet> = q.terms.iter().map(|&t| base(t)).collect();
                chain.rung("snapshot", || fesia.snapshot().kway_count(&q.terms, &table));
                chain.rung("kway", || kway_count_planned(&sets, &table, &planner));
            }
            Kind::Retrieve => {
                let sets: Vec<&SegmentedSet> = q.terms.iter().map(|&t| base(t)).collect();
                chain.rung("snapshot", || {
                    fesia.snapshot().kway_intersect(&q.terms, &table)
                });
                chain.rung("algebra", || kway_intersect_with(&sets, &table));
            }
            Kind::AndNot => {
                let (a, b) = (base(q.terms[0]), base(q.terms[1]));
                chain.rung("snapshot", || {
                    fesia
                        .snapshot()
                        .set_op(q.terms[0], q.terms[1], SetOp::Difference)
                });
                chain.rung("algebra", || {
                    set_op_planned(a, b, SetOp::Difference, &planner)
                });
            }
        }
        ladders[item.kind as usize].push(chain.finish());
        let t = Instant::now();
        std::hint::black_box(fesia.snapshot());
        pin_ns.push(t.elapsed().as_nanos() as f64);
    }
    drop(snap);

    let us = |v: Vec<f64>| stats::median(&v) / 1e3;
    let mut index_self = Vec::new();
    for l in &ladders {
        index_self.extend(l.self_ns("index"));
    }
    report.set("index.self_us", stats::median(&index_self) / 1e3);
    let cold: Vec<f64> = ladders.iter().flat_map(|l| l.self_ns("cold")).collect();
    report.set("trace.cold_self_us", stats::median(&cold) / 1e3);
    report.set("snapshot.pin_ns", stats::median(&pin_ns));
    report.set(
        "core.plan_self_ns",
        stats::median(&ladders[0].self_ns("plan")),
    );
    report.set("core.pair_ns", stats::median(&ladders[0].rung_ns("plan")));
    report.set("kway.query_us", us(ladders[1].rung_ns("kway")));
    report.set("algebra.retrieve_us", us(ladders[2].rung_ns("algebra")));
    report.set("algebra.andnot_us", us(ladders[3].rung_ns("algebra")));
    common::report_breakdowns(&mut report, &breakdowns);
    report.line(format!(
        "# trace: step cycles at {ghz:.3} GHz; `cold` is the first run's extra time over the warm re-run of the same query"
    ));

    // Sum check and overhead, over every traced query.
    let traced_top: Vec<f64> = ladders
        .iter()
        .flat_map(|l| l.rung_ns(l.layers[0]))
        .collect();
    let untraced_mean_ns = 1e3 * sum.mean;
    let traced_mean_ns = stats::mean(&traced_top);
    let sum_err = (traced_mean_ns - untraced_mean_ns).abs() / untraced_mean_ns;
    report.set("trace.sum_error_share", sum_err);
    report.set(
        "trace.overhead_share",
        (stats::median(&traced_top) / 1e3 - sum.p50) / sum.p50,
    );
    report.set("trace.spans", tracer.len() as f64);
    for (kind, l) in KINDS.iter().zip(&ladders) {
        let s = &phase.by_kind[*kind as usize];
        if l.len() > 0 && !s.is_empty() {
            let text = l.render(1e3 * stats::mean(s), SUM_TOLERANCE);
            report.line(text.trim_end());
        }
    }
    report.line(format!(
        "# trace check: all queries, sum of self means {:.2} us vs untraced mean {:.2} us: error {:.1}% ({} tolerance {:.0}%)",
        traced_mean_ns / 1e3,
        untraced_mean_ns / 1e3,
        100.0 * sum_err,
        if sum_err <= SUM_TOLERANCE { "within" } else { "OUTSIDE" },
        100.0 * SUM_TOLERANCE
    ));
    report
}
