//! `simjoin`: exact overlap self-join through the threshold-aware
//! filter cascade, on two threads, over the clustered corpus of
//! `repro simjoin --scale standard`. Every pass's survivors are checked
//! against the closed-form expected pair set, and the cascade's counters
//! must balance (candidates = bitmap-rejected + early-exited + verified).

use crate::common::{counters, exec_counters, setup_median, Census, Window};
use crate::report::{Report, SUM_TOLERANCE};
use crate::stats;
use crate::trace::{Chain, Ladder, Tracer};
use crate::Args;
use fesia_core::{
    candidate_pairs_self, self_join_with, simjoin_params, FesiaParams, IntersectPlanner,
    KernelTable, SegmentedSet, SimjoinResult, Threshold,
};
use fesia_datagen::{join_corpus_clustered, SplitMix64};
use std::time::Duration;

const SET_LEN: usize = 1_000;
const UNIVERSE: u32 = 2_000_000;
/// Clusters sharing a 90% core: their intra-cluster pairs qualify.
const GROUPS: usize = 16;
const PER_GROUP: usize = 14;
/// Clusters sharing a 50% core: hard negatives the prefix filter emits.
const HARD_GROUPS: usize = 8;
const HARD_PER_GROUP: usize = 190;
/// Unrelated uniform sets.
const BACKGROUND: usize = 240;
/// Overlap threshold: 85% of a set.
const THRESHOLD: usize = 850;
const THREADS: usize = 2;
const SETUP_REPS: usize = 21;

/// The qualifying pairs in closed form: every pair inside one 90%-core
/// cluster (the corpus lists those clusters first). Cross-cluster,
/// hard-negative and background pairs overlap in ~500 elements at most.
fn expected_pairs() -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for g in 0..GROUPS {
        let lo = (g * PER_GROUP) as u32;
        for i in lo..lo + PER_GROUP as u32 {
            for j in i + 1..lo + PER_GROUP as u32 {
                out.push((i, j));
            }
        }
    }
    out
}

fn check(r: &SimjoinResult, expect: &[(u32, u32)], candidates: u64) -> bool {
    let s = &r.stats;
    r.pairs == expect
        && s.candidates == candidates
        && s.candidates == s.bitmap_rejected + s.early_exited + s.verified
        && s.verified == expect.len() as u64
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::new();
    let mut rng = SplitMix64::new(args.seed ^ 0x51A9);
    let mut lists = join_corpus_clustered(GROUPS, PER_GROUP, 0, SET_LEN, 0.9, UNIVERSE, &mut rng);
    lists.extend(join_corpus_clustered(
        HARD_GROUPS,
        HARD_PER_GROUP,
        BACKGROUND,
        SET_LEN,
        0.5,
        UNIVERSE,
        &mut rng,
    ));
    let elems: usize = lists.iter().map(Vec::len).sum();
    let threshold = Threshold::Overlap(THRESHOLD);
    let expect = expected_pairs();
    let candidates = candidate_pairs_self(&lists, threshold).len() as u64;
    report.size("sets", lists.len());
    report.size("set_elements", SET_LEN);
    report.size("universe", UNIVERSE);
    report.size("overlap_threshold", THRESHOLD);
    report.size("candidates", candidates);
    report.size("threads", THREADS);

    // Dense encoding (2 bits per element), as `repro simjoin` builds it.
    let params = FesiaParams::auto().with_bits_per_element(2.0);
    let (setup_s, sets) = setup_median(SETUP_REPS, || {
        lists
            .iter()
            .map(|l| SegmentedSet::build(l, &params).expect("generated lists are sorted distinct"))
            .collect::<Vec<_>>()
    });
    let bytes: usize = sets.iter().map(SegmentedSet::memory_bytes).sum();
    report.size("encoded_bytes", bytes);
    let table = KernelTable::auto();
    let planner = IntersectPlanner::current();
    let sp = simjoin_params();
    let join =
        |threads: usize| self_join_with(&sets, &lists, threshold, &table, &planner, &sp, threads);
    let warm = join(THREADS);
    report.check(check(&warm, &expect, candidates));
    drop(warm);

    let secs = args.seconds as f64;
    let window = if args.trace { secs / 2.0 } else { secs };
    let before = counters();
    let w = Window::new(Duration::from_secs_f64(window));
    let mut times = Vec::new();
    let mut last;
    loop {
        let t = std::time::Instant::now();
        let r = join(THREADS);
        times.push(t.elapsed().as_secs_f64());
        report.check(check(&r, &expect, candidates));
        last = r;
        if !w.open() {
            break;
        }
    }
    let delta = counters().delta(&before);
    let sum = stats::summarize(&times);
    report.size("timed_passes", times.len());
    report.line(format!(
        "# simjoin: {} sets of {SET_LEN}, {candidates} candidates, {} survivors (expected {}), {:.1} MiB encoded; {} passes on {THREADS} threads",
        lists.len(),
        last.pairs.len(),
        expect.len(),
        bytes as f64 / (1 << 20) as f64,
        times.len()
    ));
    report.line(format!(
        "# pass time: p50 {:.4} s, p{:.1} {:.4} s over {} passes; cascade: bitmap_rejected {} early_exited {} verified {}",
        sum.p50,
        100.0 * sum.tail.q,
        sum.tail.value,
        times.len(),
        last.stats.bitmap_rejected,
        last.stats.early_exited,
        last.stats.verified
    ));
    Census::of(&delta).report_plans(&mut report);

    if !args.trace {
        report.set("setup_s", setup_s);
        report.set("ops_per_s", candidates as f64 / sum.p50);
        // The seed moves the candidate count between ~240k and ~390k, so
        // pass times are reported per decided candidate pair.
        let per_candidate = 1e6 / candidates as f64;
        report.set("p50_us", sum.p50 * per_candidate);
        report.set("p99_us", sum.tail.value * per_candidate);
        report.set("bytes_per_elem", bytes as f64 / elems as f64);
        return report;
    }

    // ---- traced run ----
    exec_counters(&mut report, &delta, times.len());
    report.set("layout.build_ns_per_elem", setup_s * 1e9 / elems as f64);
    let c = last.stats.candidates.max(1) as f64;
    report.set(
        "simjoin.bitmap_rejected_share",
        last.stats.bitmap_rejected as f64 / c,
    );
    report.set(
        "simjoin.early_exit_share",
        last.stats.early_exited as f64 / c,
    );
    report.set("simjoin.useful_share", last.stats.verified as f64 / c);

    // Rungs scaled to per-pass wall time at THREADS threads: the
    // parallel loss, the verification cascade on one thread, and tier-1
    // candidate generation (which runs on the submitting thread only).
    let mut ladder = Ladder::new(
        "pass",
        &["exec.parallel", "simjoin.verify", "simjoin.candidates"],
    );
    let (mut t1s, mut gens) = (Vec::new(), Vec::new());
    let scale = 1.0 / THREADS as f64;
    let w = Window::new(Duration::from_secs_f64(secs / 2.0));
    loop {
        let mut chain = Chain::new(tracer);
        let r2 = chain.rung("exec.parallel", || join(THREADS));
        let r1 = chain.rung("simjoin.verify", || join(1));
        let cands = chain.rung("simjoin.candidates", || {
            candidate_pairs_self(&lists, threshold)
        });
        report.check(check(&r2, &expect, candidates));
        report.check(check(&r1, &expect, candidates));
        report.check(cands.len() as u64 == candidates);
        let r = chain.finish();
        t1s.push(r[1] / 1e9);
        gens.push(r[2] / 1e9);
        ladder.push(vec![r[0], r[1] * scale, r[2] * scale]);
        if !w.open() {
            break;
        }
    }
    let t2 = stats::median(&ladder.rung_ns("exec.parallel")) / 1e9;
    let t1 = stats::median(&t1s);
    let gen = stats::median(&gens);
    report.set("simjoin.candidate_gen_s", gen);
    report.set("simjoin.verify_s", t1 - gen);
    report.set("exec.parallel_efficiency", t1 / (THREADS as f64 * t2));
    report.set("core.pair_ns", (t1 - gen) * 1e9 / candidates as f64);
    let untraced_mean_ns = sum.mean * 1e9;
    report.set("trace.sum_error_share", ladder.sum_error(untraced_mean_ns));
    report.set("trace.overhead_share", (t2 - sum.p50) / sum.p50);
    report.set("trace.spans", tracer.len() as f64);
    report.line(ladder.render(untraced_mean_ns, SUM_TOLERANCE).trim_end());
    report.line(format!(
        "# 1-thread pass {t1:.4} s (candidate generation {gen:.4} s), 2-thread pass {t2:.4} s: parallel efficiency {:.3}",
        t1 / (THREADS as f64 * t2)
    ));
    report
}
