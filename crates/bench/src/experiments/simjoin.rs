//! Exact set-similarity self-join through the threshold-aware filter
//! cascade (this repo's join layer on top of the paper's kernels; the
//! paper's §I motivates FESIA with exactly this "common friends above a
//! threshold" workload).
//!
//! Corpus: clustered sets over a 2M universe, three populations. Small
//! groups sharing a 90% core are the qualifying pairs (~1% of
//! candidates). Large groups sharing a 50% core are the hard negatives:
//! similar enough that the prefix filter emits every intra-group pair
//! and a full count must sweep ~500 matching segments, yet bounded away
//! from the 85% threshold — so the early-exit count's segment-size budget
//! (sum of min segment sizes over surviving lanes, ~0.6n) prerejects
//! them right after the bitmap AND, skipping the whole segment sweep.
//! Uniform background sets round out the near-disjoint easy-reject path.
//! Measures the full join in both cascade configurations (prefix-only
//! baseline with a full count per candidate, and the early-exit
//! cascade), checks both produce the identical survivor set and that
//! every candidate is accounted for by exactly one counter, and writes
//! `BENCH_simjoin.json` with the cascade-vs-baseline speedup the tier-1
//! gate enforces.

use crate::harness::{f2, write_bench_json, Scale, Table};
use fesia_core::{
    self_join_with, FesiaParams, IntersectPlanner, KernelTable, SegmentedSet, SimjoinParams,
    SimjoinStats, Threshold,
};
use fesia_datagen::{join_corpus_clustered, SplitMix64};
use std::time::Instant;

fn stats_balance(s: &SimjoinStats) -> bool {
    s.candidates == s.bitmap_rejected + s.early_exited + s.verified
}

pub fn run(scale: Scale) -> String {
    let mut rng = SplitMix64::new(0x51A9);
    let n = 1_000usize;
    let universe = 2_000_000u32;
    // Population sizes chosen so qualifying pairs land near 1% of
    // prefix-filter candidates (the paper-style low-selectivity regime):
    // survivors = groups·C(per_group, 2), hard-negative candidates =
    // hard_groups·C(hard_per_group, 2) (every intra-group pair shares
    // prefix tokens through the 50% core).
    let (groups, per_group, hard_groups, hard_per_group, background) = match scale {
        Scale::Smoke => (4usize, 6usize, 4usize, 55usize, 20usize), // 264 sets, 60 survivors
        Scale::Standard => (16, 14, 8, 190, 240),                   // 1,984 sets, 1,456 survivors
        Scale::Full => (32, 14, 16, 190, 480),                      // 3,968 sets, 2,912 survivors
    };
    let num_sets = groups * per_group + hard_groups * hard_per_group + background;
    let threshold = Threshold::Overlap(85 * n / 100);
    let mut lists = join_corpus_clustered(groups, per_group, 0, n, 0.9, universe, &mut rng);
    lists.extend(join_corpus_clustered(
        hard_groups,
        hard_per_group,
        background,
        n,
        0.5,
        universe,
        &mut rng,
    ));
    // Dense encoding (~4 elements per segment): with the default
    // sqrt(w) bits/element almost every surviving segment holds a single
    // element and the bitmap scan itself dominates, leaving the cascade
    // nothing to skip. At 2 bits/element the per-segment kernel work (and
    // the reordered-element traffic) is the dominant per-pair cost, which
    // is exactly what the early-exit budget prereject elides.
    let params = FesiaParams::auto().with_bits_per_element(2.0);
    let sets: Vec<SegmentedSet> = lists
        .iter()
        .map(|l| SegmentedSet::build(l, &params).expect("generated lists are sorted distinct"))
        .collect();
    let table = KernelTable::auto();
    let planner = IntersectPlanner::current();
    let reps = scale.reps();

    // Every 90%-core cluster pair overlaps in at least the 900-element
    // core; hard-negative pairs overlap in ~500 + chance and everything
    // else only by chance (~n²/universe = 0.5 expected), so the exact
    // survivor set is known in closed form.
    let expect_pairs = groups * per_group * (per_group - 1) / 2;

    // Candidate generation (tier 1) is identical work in every
    // configuration; report it separately so the per-candidate cascade
    // effect is readable from the JSON.
    let gen_secs = {
        let t = Instant::now();
        std::hint::black_box(fesia_core::candidate_pairs_self(&lists, threshold));
        t.elapsed().as_secs_f64()
    };

    let configs: [(&str, bool); 2] = [("baseline", false), ("cascade", true)];
    let mut results = Vec::new();
    for &(name, early) in &configs {
        let sp = SimjoinParams::default().with_early_exit(early);
        let join = || self_join_with(&sets, &lists, threshold, &table, &planner, &sp, 1);
        let first = join(); // warm-up + correctness capture
        let mut best = f64::MAX;
        for _ in 0..reps {
            let t = Instant::now();
            std::hint::black_box(join());
            best = best.min(t.elapsed().as_secs_f64());
        }
        results.push((name, first, best));
    }

    let (_, base_res, base_secs) = &results[0];
    let (_, _, casc_secs) = &results[1];
    let pairs_match = results.iter().all(|(_, r, _)| r.pairs == base_res.pairs);
    let counters_balance = results.iter().all(|(_, r, _)| stats_balance(&r.stats));
    let survivors_expected = base_res.pairs.len() == expect_pairs;
    let cascade_speedup = base_secs / casc_secs;
    let candidates = base_res.stats.candidates;
    let selectivity = base_res.pairs.len() as f64 / candidates.max(1) as f64;

    let mut md = Table::new(vec![
        "config",
        "seconds",
        "candidates/s",
        "bitmap_rejected",
        "early_exited",
        "verified",
    ]);
    let mut json_rows = Vec::new();
    for (name, r, secs) in &results {
        let cps = r.stats.candidates as f64 / secs.max(1e-12);
        md.row(vec![
            name.to_string(),
            format!("{secs:.4}"),
            f2(cps),
            r.stats.bitmap_rejected.to_string(),
            r.stats.early_exited.to_string(),
            r.stats.verified.to_string(),
        ]);
        json_rows.push(format!(
            "    {{\"config\": \"{name}\", \"seconds\": {secs:.6}, \
             \"candidates_per_sec\": {cps:.2}, \"bitmap_rejected\": {}, \
             \"early_exited\": {}, \"verified\": {}, \"pairs\": {}}}",
            r.stats.bitmap_rejected,
            r.stats.early_exited,
            r.stats.verified,
            r.pairs.len()
        ));
    }

    let json = format!(
        "{{\n  \"experiment\": \"simjoin\",\n  \"sets\": {num_sets},\n  \
         \"set_elements\": {n},\n  \"universe\": {universe},\n  \
         \"overlap_threshold\": {},\n  \"candidates\": {candidates},\n  \
         \"survivors\": {},\n  \"selectivity\": {selectivity:.4},\n  \
         \"pairs_match\": {pairs_match},\n  \"counters_balance\": {counters_balance},\n  \
         \"survivors_expected\": {survivors_expected},\n  \
         \"candidate_gen_seconds\": {gen_secs:.6},\n  \
         \"cascade_speedup\": {cascade_speedup:.2},\n  \"configs\": [\n{}\n  ]\n}}\n",
        85 * n / 100,
        base_res.pairs.len(),
        json_rows.join(",\n"),
    );
    let json_path = write_bench_json(scale, "simjoin", &json);

    format!(
        "## Similarity join — threshold-aware filter cascade\n\n\
         {num_sets} sets of {n} elements over a {universe} universe \
         ({groups} clusters of {per_group} sharing a 90% core, \
         {hard_groups} hard-negative clusters of {hard_per_group} sharing \
         a 50% core, {background} uniform), overlap \
         threshold {}; {candidates} prefix-filter candidates, {} survivors \
         (selectivity {:.2}%). Survivor sets identical across both \
         cascade configurations: {pairs_match}; counter identity \
         (candidates = bitmap_rejected + early_exited + verified): \
         {counters_balance}. Cascade speedup over the prefix-only \
         baseline: {}x. Series written to {json_path}.\n\n{}",
        85 * n / 100,
        base_res.pairs.len(),
        selectivity * 100.0,
        f2(cascade_speedup),
        md.render()
    )
}
