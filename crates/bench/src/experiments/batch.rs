//! Batch-throughput experiment for the persistent executor (this repo's
//! execution-layer addition; the paper's Fig. 13 parallelizes across
//! intersections the same way).
//!
//! Measures pairs/second of [`fesia_core::batch_count_pairs_on`] at
//! 1/2/4/8 pool threads against a copy of the pre-executor implementation
//! (one `std::thread::scope` spawn per call, static chunking). Writes the
//! machine-readable series to `BENCH_batch.json` in the working directory
//! and returns a markdown report.

use crate::harness::{f2, write_bench_json, Scale, Table};
use fesia_core::{batch_count_pairs_on, FesiaParams, KernelTable, SegmentedSet};
use fesia_datagen::{sorted_distinct, SplitMix64};
use fesia_exec::Executor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

static EMBED_METRICS: AtomicBool = AtomicBool::new(false);

/// When enabled (the `repro --metrics` flag), the batch experiment embeds
/// the fesia-obs metrics delta of its own run into `BENCH_batch.json`.
pub fn set_embed_metrics(on: bool) {
    EMBED_METRICS.store(on, Ordering::Relaxed);
}

/// The seed's `batch_count_pairs`: fresh scoped threads per call, one
/// static chunk per thread. Kept verbatim as the baseline the executor
/// must beat (or tie, on a single-core host).
fn legacy_scoped_batch(
    sets: &[SegmentedSet],
    pairs: &[(u32, u32)],
    table: &KernelTable,
    threads: usize,
) -> Vec<usize> {
    let run = |chunk: &[(u32, u32)], out: &mut [usize]| {
        for (slot, &(ai, bi)) in out.iter_mut().zip(chunk) {
            *slot = fesia_core::auto_count_with(&sets[ai as usize], &sets[bi as usize], table);
        }
    };
    let mut results = vec![0usize; pairs.len()];
    if threads == 1 || pairs.len() < 2 {
        run(pairs, &mut results);
        return results;
    }
    let chunk_len = pairs.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let mut remaining_pairs = pairs;
        let mut remaining_out: &mut [usize] = &mut results;
        let mut handles = Vec::new();
        while !remaining_pairs.is_empty() {
            let take = chunk_len.min(remaining_pairs.len());
            let (p_chunk, p_rest) = remaining_pairs.split_at(take);
            let (o_chunk, o_rest) = remaining_out.split_at_mut(take);
            remaining_pairs = p_rest;
            remaining_out = o_rest;
            handles.push(scope.spawn(move || run(p_chunk, o_chunk)));
        }
        for h in handles {
            h.join().expect("batch worker panicked");
        }
    });
    results
}

fn pairs_per_sec(pairs: usize, reps: usize, mut f: impl FnMut() -> Vec<usize>) -> f64 {
    let _ = f(); // warm-up
    let mut best = f64::MAX;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    pairs as f64 / best.max(1e-12)
}

pub fn run(scale: Scale) -> String {
    let mut rng = SplitMix64::new(0xBA7C);
    let n = scale.size(20_000);
    let universe = (n as u32) * 20;
    let num_sets = 24usize;
    let num_pairs = match scale {
        Scale::Smoke => 128,
        Scale::Standard => 512,
        Scale::Full => 2_048,
    };
    let params = FesiaParams::auto();
    let sets: Vec<SegmentedSet> = (0..num_sets)
        .map(|i| {
            // Mix of sizes so per-pair cost is uneven (the dynamic-chunking
            // case the executor exists for).
            let size = n / 4 + (i * n) / num_sets;
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
    let reps = scale.reps();

    let metrics_before = EMBED_METRICS
        .load(Ordering::Relaxed)
        .then(|| fesia_obs::metrics().snapshot());
    let want = legacy_scoped_batch(&sets, &pairs, &table, 1);

    let mut t = Table::new(vec![
        "threads",
        "executor (pairs/s)",
        "legacy scoped (pairs/s)",
    ]);
    let mut json_rows = Vec::new();
    for &threads in &THREAD_COUNTS {
        let exec = Executor::new(threads);
        let got = batch_count_pairs_on(&exec, &sets, &pairs, &table, threads);
        assert_eq!(got, want, "executor batch disagreed at {threads} threads");
        let pooled = pairs_per_sec(pairs.len(), reps, || {
            batch_count_pairs_on(&exec, &sets, &pairs, &table, threads)
        });
        let legacy = pairs_per_sec(pairs.len(), reps, || {
            legacy_scoped_batch(&sets, &pairs, &table, threads)
        });
        t.row(vec![threads.to_string(), f2(pooled), f2(legacy)]);
        json_rows.push(format!(
            "    {{\"threads\": {threads}, \"executor_pairs_per_sec\": {pooled:.2}, \
             \"legacy_scoped_pairs_per_sec\": {legacy:.2}}}"
        ));
    }

    let metrics_field = match metrics_before {
        Some(before) => {
            let delta = fesia_obs::metrics().snapshot().delta(&before);
            format!(",\n  \"metrics\": {}", delta.to_json())
        }
        None => String::new(),
    };
    let json = format!(
        "{{\n  \"experiment\": \"batch\",\n  \"scale\": \"{}\",\n  \"pairs\": {},\n  \
         \"set_elements\": {n},\n  \"threads\": [\n{}\n  ]{metrics_field}\n}}\n",
        format!("{scale:?}").to_lowercase(),
        pairs.len(),
        json_rows.join(",\n"),
    );
    let json_path = write_bench_json(scale, "batch", &json);

    format!(
        "## Batch throughput — persistent executor\n\n\
         {num_sets} sets ({n} elements nominal), {} random pairs; pool threads\n\
         timeshare whatever cores the host exposes. Series written to {json_path}.\n\n{}",
        pairs.len(),
        t.render(),
    )
}
