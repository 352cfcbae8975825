//! Overhead benchmark for the always-on `fesia-obs` metrics layer.
//!
//! The instrumentation has no runtime off switch by design, so the
//! comparison baseline is structural: the counters live only in the
//! dispatch wrappers (`auto_count_with` / `intersect_count_with` /
//! `batch_count_pairs_on`), while the inner algorithm functions stay
//! pure. This experiment runs the production (instrumented) batch path
//! against an uninstrumented replica that performs the same strategy
//! selection inline and calls the pure inner functions directly, on the
//! same executor. The executor's own per-region counters are paid by
//! both sides (they are amortized over a whole region, not per pair);
//! what the comparison isolates is the per-pair fast-path cost — the
//! relaxed `fetch_add`s and the 1-in-64 cycle sampling — which the
//! acceptance bar holds within 5% of uninstrumented throughput.
//!
//! Also reports the raw cost of one counter increment, and writes the
//! machine-readable results to `BENCH_obs.json`.

use crate::harness::{f2, measure_cycles, Scale, Table};
use fesia_core::intersect::SKEW_HASH_THRESHOLD;
use fesia_core::{
    batch_count_pairs_on, hash_probe_count, intersect_count_interleaved_with, FesiaParams,
    KernelTable, SegmentedSet,
};
use fesia_datagen::{sorted_distinct, SplitMix64};
use fesia_exec::Executor;
use std::time::Instant;

/// Shared output slice written by disjoint-range parallel workers (the
/// same pattern as `fesia_core::batch`).
///
/// SAFETY invariant: `for_each_chunk` hands each index range to exactly
/// one worker, so concurrent writers never alias a slot.
struct DisjointOut(*mut usize);
unsafe impl Send for DisjointOut {}
unsafe impl Sync for DisjointOut {}

/// An uninstrumented replica of the batch path: identical strategy
/// selection and inner kernels, zero per-pair metric updates. The
/// workload's pairs are small and comparable, so the instrumented side's
/// planner picks the same interleaved merge (apples to apples).
fn uninstrumented_batch(
    exec: &Executor,
    sets: &[SegmentedSet],
    pairs: &[(u32, u32)],
    table: &KernelTable,
    threads: usize,
) -> Vec<usize> {
    const MIN_PAIRS_PER_CHUNK: usize = 8;
    let mut results = vec![0usize; pairs.len()];
    let out = DisjointOut(results.as_mut_ptr());
    exec.for_each_chunk(pairs.len(), MIN_PAIRS_PER_CHUNK, threads, |range| {
        let out = &out;
        for k in range {
            let (ai, bi) = pairs[k];
            let (a, b) = (&sets[ai as usize], &sets[bi as usize]);
            let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            let n = if large.is_empty() {
                0
            } else if (small.len() as f64) < SKEW_HASH_THRESHOLD * large.len() as f64 {
                hash_probe_count(small.reordered_elements(), large)
            } else {
                intersect_count_interleaved_with(a, b, table)
            };
            // SAFETY: chunk ranges partition 0..pairs.len(), so `k` is
            // in bounds and written by exactly one worker.
            unsafe { out.0.add(k).write(n) };
        }
    });
    results
}

/// Best-of-reps wall time for two workloads measured *interleaved*, so
/// frequency/thermal drift over the run biases neither side: a naive
/// measure-all-of-A-then-all-of-B comparison showed ±5% run-to-run swings
/// in either direction on the same binary.
fn best_secs_paired(
    reps: usize,
    mut a: impl FnMut() -> Vec<usize>,
    mut b: impl FnMut() -> Vec<usize>,
) -> (f64, f64) {
    let _ = (a(), b()); // warm-up
    let (mut best_a, mut best_b) = (f64::MAX, f64::MAX);
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(a());
        best_a = best_a.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(b());
        best_b = best_b.min(t.elapsed().as_secs_f64());
    }
    (best_a.max(1e-12), best_b.max(1e-12))
}

pub fn run(scale: Scale) -> String {
    let mut rng = SplitMix64::new(0x0B5E);
    let n = scale.size(8_000);
    let universe = (n as u32) * 20;
    let num_sets = 24usize;
    let num_pairs = match scale {
        Scale::Smoke => 256,
        Scale::Standard => 1_024,
        Scale::Full => 4_096,
    };
    let params = FesiaParams::auto();
    let sets: Vec<SegmentedSet> = (0..num_sets)
        .map(|i| {
            // Size mix straddling the skew threshold so both strategies
            // (and their counters) sit on the measured path.
            let size = n / 16 + (i * n) / num_sets;
            SegmentedSet::build(&sorted_distinct(size, universe, &mut rng), &params).unwrap()
        })
        .collect();
    let pairs: Vec<(u32, u32)> = (0..num_pairs)
        .map(|_| {
            (
                rng.below(num_sets as u64) as u32,
                rng.below(num_sets as u64) as u32,
            )
        })
        .collect();
    let table = KernelTable::auto();
    let reps = scale.reps() * 3;

    let mut t = Table::new(vec![
        "threads",
        "instrumented (pairs/s)",
        "uninstrumented (pairs/s)",
        "overhead",
    ]);
    let mut json_rows = Vec::new();
    let mut worst_overhead_pct = f64::MIN;
    for threads in [1usize, 4] {
        let exec = Executor::new(threads);
        let want = uninstrumented_batch(&exec, &sets, &pairs, &table, threads);
        let got = batch_count_pairs_on(&exec, &sets, &pairs, &table, threads);
        assert_eq!(got, want, "instrumented and replica paths disagreed");
        let (inst, bare) = best_secs_paired(
            reps,
            || batch_count_pairs_on(&exec, &sets, &pairs, &table, threads),
            || uninstrumented_batch(&exec, &sets, &pairs, &table, threads),
        );
        let overhead_pct = (inst / bare - 1.0) * 100.0;
        worst_overhead_pct = worst_overhead_pct.max(overhead_pct);
        t.row(vec![
            threads.to_string(),
            f2(pairs.len() as f64 / inst),
            f2(pairs.len() as f64 / bare),
            format!("{overhead_pct:+.2}%"),
        ]);
        json_rows.push(format!(
            "    {{\"threads\": {threads}, \"instrumented_pairs_per_sec\": {:.2}, \
             \"uninstrumented_pairs_per_sec\": {:.2}, \"overhead_pct\": {overhead_pct:.3}}}",
            pairs.len() as f64 / inst,
            pairs.len() as f64 / bare,
        ));
    }

    // Raw cost of the primitive itself: cycles per relaxed increment.
    let c = fesia_obs::Counter::new();
    const INCS: u64 = 1_000_000;
    let (inc_total, _) = measure_cycles(3, || {
        for _ in 0..INCS {
            std::hint::black_box(&c).inc();
        }
    });
    let cycles_per_inc = inc_total as f64 / INCS as f64;

    let within = worst_overhead_pct <= 5.0;
    let json = format!(
        "{{\n  \"experiment\": \"obs\",\n  \"pairs\": {},\n  \"set_elements\": {n},\n  \
         \"threads\": [\n{}\n  ],\n  \"worst_overhead_pct\": {worst_overhead_pct:.3},\n  \
         \"within_5pct\": {within},\n  \"cycles_per_counter_inc\": {cycles_per_inc:.2}\n}}\n",
        pairs.len(),
        json_rows.join(",\n"),
    );
    let json_path = "BENCH_obs.json";
    if let Err(e) = std::fs::write(json_path, &json) {
        eprintln!("[obs] could not write {json_path}: {e}");
    }

    format!(
        "## Metrics overhead — instrumented batch path vs uninstrumented replica\n\n\
         {num_sets} sets ({n} elements nominal), {} random pairs, interleaved dispatch\n\
         on both sides. Acceptance bar: instrumented throughput within 5% of the\n\
         uninstrumented replica. Series written to {json_path}.\n\n{}\n\
         Worst overhead across thread counts: {worst_overhead_pct:+.2}% ({}).\n\
         One relaxed counter increment costs ~{cycles_per_inc:.1} cycles uncontended.\n",
        pairs.len(),
        t.render(),
        if within {
            "within the 5% bar"
        } else {
            "EXCEEDS the 5% bar"
        },
    )
}
