//! Parameter auto-tuning (paper §III-A: "The m and s are chosen to
//! minimize the total time"; Fig. 14 sweeps exactly these knobs).
//!
//! The theoretical optimum `m = n·sqrt(w)` balances the two phases
//! asymptotically, but constants (cache behaviour, segment-population
//! distribution, selectivity of the actual workload) shift the best point
//! in practice. [`tune`] measures a small grid of `(bits_per_element,
//! segment width)` candidates on caller-supplied representative workloads
//! and returns the fastest configuration.

use crate::kernels::KernelTable;
use crate::params::{FesiaParams, PipelineParams, PruneParams};
use crate::set::SegmentedSet;
use fesia_simd::mask::LaneWidth;
use fesia_simd::timer::CycleTimer;

/// One candidate's measurement.
#[derive(Debug, Clone, Copy)]
pub struct TuneResult {
    /// The candidate parameters.
    pub params: FesiaParams,
    /// Total cycles over the sample workload (build excluded).
    pub cycles: u64,
    /// Total encoded bytes for the sample sets.
    pub memory_bytes: usize,
}

/// The default `bits_per_element` grid (powers of two around `sqrt(w)`).
pub const DEFAULT_GRID: [f64; 6] = [2.0, 4.0, 8.0, 16.0, 23.0, 32.0];

/// Measure every candidate on the given sample pairs and return all
/// results, fastest first. Each pair is intersected `reps` times per
/// candidate; counts are cross-checked across candidates.
///
/// # Panics
/// Panics if `samples` is empty or any sample is not sorted/unique.
pub fn tune_grid(
    samples: &[(Vec<u32>, Vec<u32>)],
    table: &KernelTable,
    reps: usize,
) -> Vec<TuneResult> {
    assert!(!samples.is_empty(), "need at least one sample pair");
    let mut results = Vec::new();
    let mut reference: Option<Vec<usize>> = None;
    for lane in [LaneWidth::U8, LaneWidth::U16] {
        for &bits in &DEFAULT_GRID {
            let params = FesiaParams::auto()
                .with_bits_per_element(bits)
                .with_segment(lane);
            let built: Vec<(SegmentedSet, SegmentedSet)> = samples
                .iter()
                .map(|(a, b)| {
                    (
                        SegmentedSet::build(a, &params).expect("valid sample"),
                        SegmentedSet::build(b, &params).expect("valid sample"),
                    )
                })
                .collect();
            let memory_bytes = built
                .iter()
                .map(|(a, b)| a.memory_bytes() + b.memory_bytes())
                .sum();
            // Warm-up + correctness capture.
            let counts: Vec<usize> = built
                .iter()
                .map(|(a, b)| crate::intersect::intersect_count_with(a, b, table))
                .collect();
            match &reference {
                None => reference = Some(counts),
                Some(want) => assert_eq!(&counts, want, "candidate {params:?} disagreed"),
            }
            let mut best = u64::MAX;
            for _ in 0..reps.max(1) {
                let t = CycleTimer::start();
                let mut acc = 0usize;
                for (a, b) in &built {
                    acc += crate::intersect::intersect_count_with(a, b, table);
                }
                std::hint::black_box(acc);
                best = best.min(t.elapsed_cycles());
            }
            results.push(TuneResult {
                params,
                cycles: best,
                memory_bytes,
            });
        }
    }
    results.sort_by_key(|r| r.cycles);
    results
}

/// Pick the fastest `(bits_per_element, segment)` configuration for the
/// sample workload (3 repetitions per candidate).
pub fn tune(samples: &[(Vec<u32>, Vec<u32>)]) -> FesiaParams {
    tune_grid(samples, &KernelTable::auto(), 3)[0].params
}

/// The phase-2 prefetch distances [`tune_prefetch_distance`] measures
/// (0 turns the phase-2 prefetch off).
pub const PREFETCH_DISTANCE_GRID: [usize; 5] = [0, 4, 8, 16, 32];

/// Time the summary-pruned plan's sweep at every distance of
/// [`PREFETCH_DISTANCE_GRID`] on the sample pairs and return the fastest.
/// Counts are cross-checked against the plain interleaved scan. The
/// result is *not* installed — pass it to [`crate::set_pipeline_params`]
/// to adopt it.
///
/// # Panics
/// Panics if `pairs` is empty.
pub fn tune_prefetch_distance(
    pairs: &[(SegmentedSet, SegmentedSet)],
    table: &KernelTable,
    reps: usize,
) -> usize {
    assert!(!pairs.is_empty(), "need at least one sample pair");
    let reference: Vec<usize> = pairs
        .iter()
        .map(|(a, b)| crate::intersect::intersect_count_interleaved_with(a, b, table))
        .collect();
    let mut scratch = Vec::new();
    let mut best = (u64::MAX, PipelineParams::default().prefetch_distance);
    for &dist in &PREFETCH_DISTANCE_GRID {
        let mut run = || -> Vec<usize> {
            pairs
                .iter()
                .map(|(a, b)| {
                    crate::intersect::intersect_count_pruned_with(a, b, table, &mut scratch, dist).0
                })
                .collect()
        };
        assert_eq!(run(), reference, "prefetch distance {dist} disagreed");
        let cycles = min_cycles(reps, || run().len());
        if cycles < best.0 {
            best = (cycles, dist);
        }
    }
    best.1
}

/// Decide whether the summary-pruned step-1 scan should run for this
/// pair under `p` (the auto-selection half of the tentpole; forced
/// overrides short-circuit it).
///
/// Two conditions must hold for pruning to pay:
///
/// 1. **Size** — the combined bitmaps must exceed `p.min_bitmap_bytes`.
///    Below that they are cache-resident and the summary pass plus the
///    survivor indirection is pure overhead.
/// 2. **Sparsity** — summary bits are (near-)independent across the two
///    sets, so the expected fraction of blocks surviving the summary AND
///    is the product of the two summary densities. Only when that
///    product, as a percentage, is at most `p.max_survivor_pct` does
///    skipping the dead blocks outweigh the extra pass.
///
/// The estimate is intentionally cheap: both densities come from
/// popcounts cached at build time ([`SegmentedSet::summary_density`]),
/// so the decision costs a few multiplies per intersection.
pub fn should_prune(a: &SegmentedSet, b: &SegmentedSet, p: &PruneParams) -> bool {
    crate::plan::should_prune_summaries(
        &crate::plan::SetSummary::of(a),
        &crate::plan::SetSummary::of(b),
        p,
    )
}

/// Deterministic sorted-unique sample generator for [`calibrate`]
/// (xorshift64; no external randomness so profiles are reproducible).
fn calibration_sample(n: usize, seed: u64, universe: u32) -> Vec<u32> {
    let mut state = seed | 1;
    let mut set = std::collections::BTreeSet::new();
    while set.len() < n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        set.insert((state % universe as u64) as u32);
    }
    set.into_iter().collect()
}

fn min_cycles(reps: usize, mut f: impl FnMut() -> usize) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps.max(1) {
        let t = CycleTimer::start();
        std::hint::black_box(f());
        best = best.min(t.elapsed_cycles());
    }
    best
}

/// Fit a [`crate::plan::MachineProfile`] by running the existing
/// microbenchmarks on this machine (the measurement half of
/// `fesia tune`):
///
/// 1. **Prefetch distance** — [`tune_prefetch_distance`] on sparse
///    oversized pairs (the regime the pruned plan serves) picks the
///    phase-2 lookahead.
/// 2. **Prune** — the same pair is timed pruned (at that distance) vs
///    interleaved; if the pruned scan wins, the `min_bitmap_bytes` floor
///    is lowered to half that pair's combined size, otherwise the
///    defaults stand.
///
/// `quick` shrinks sizes and repetitions (~10x less work) for smoke
/// runs. The result is *not* installed or persisted — callers pass it to
/// [`crate::plan::MachineProfile::save`] and/or apply it with the knob
/// setters.
pub fn calibrate(quick: bool) -> crate::plan::MachineProfile {
    let table = KernelTable::auto();
    let reps = if quick { 2 } else { 5 };
    let mut profile = crate::plan::MachineProfile::default();

    // 1. Prefetch distance, on sparse oversized pairs.
    let pn = if quick { 4_000 } else { 20_000 };
    let sparse = FesiaParams::auto().with_bits_per_element(256.0);
    let pairs: Vec<(SegmentedSet, SegmentedSet)> = (0..2u64)
        .map(|i| {
            let a = calibration_sample(pn, 7 + i, u32::MAX);
            let b = calibration_sample(pn, 13 + i, u32::MAX);
            (
                SegmentedSet::build(&a, &sparse).unwrap(),
                SegmentedSet::build(&b, &sparse).unwrap(),
            )
        })
        .collect();
    let dist = tune_prefetch_distance(&pairs, &table, reps);
    profile.pipeline = PipelineParams::default().with_prefetch_distance(dist);

    // 2. Prune crossover on the first of those pairs.
    let (pa, pb) = &pairs[0];
    let mut scratch = Vec::new();
    let plain = min_cycles(reps, || {
        crate::intersect::intersect_count_interleaved_with(pa, pb, &table)
    });
    let pruned = min_cycles(reps, || {
        crate::intersect::intersect_count_pruned_with(pa, pb, &table, &mut scratch, dist).0
    });
    if pruned < plain {
        let combined = pa.bitmap_bytes().len() + pb.bitmap_bytes().len();
        profile.prune = PruneParams::default().with_min_bitmap_bytes(combined / 2);
    }

    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_sorted(n: usize, seed: u64, universe: u32) -> Vec<u32> {
        let mut state = seed | 1;
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            set.insert((state % universe as u64) as u32);
        }
        set.into_iter().collect()
    }

    #[test]
    fn tuner_measures_all_candidates_and_orders_them() {
        let samples = vec![
            (gen_sorted(3_000, 1, 80_000), gen_sorted(3_000, 2, 80_000)),
            (gen_sorted(2_000, 3, 80_000), gen_sorted(2_000, 4, 80_000)),
        ];
        let results = tune_grid(&samples, &KernelTable::auto(), 2);
        assert_eq!(results.len(), 2 * DEFAULT_GRID.len());
        assert!(results.windows(2).all(|w| w[0].cycles <= w[1].cycles));
        // Memory grows with bits_per_element for a fixed lane.
        let small = results
            .iter()
            .find(|r| r.params.bits_per_element == 2.0)
            .unwrap();
        let big = results
            .iter()
            .find(|r| r.params.bits_per_element == 32.0)
            .unwrap();
        assert!(big.memory_bytes > small.memory_bytes);
    }

    #[test]
    fn tuned_params_round_trip_into_builds() {
        let samples = vec![(gen_sorted(1_000, 5, 40_000), gen_sorted(1_000, 6, 40_000))];
        let params = tune(&samples);
        let a = SegmentedSet::build(&samples[0].0, &params).unwrap();
        let b = SegmentedSet::build(&samples[0].1, &params).unwrap();
        let want = {
            let bs: std::collections::HashSet<u32> = samples[0].1.iter().copied().collect();
            samples[0].0.iter().filter(|x| bs.contains(x)).count()
        };
        assert_eq!(crate::intersect::intersect_count(&a, &b), want);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_panic() {
        let _ = tune(&[]);
    }

    #[test]
    fn prefetch_tuner_returns_a_grid_distance() {
        let p = FesiaParams::auto().with_bits_per_element(64.0);
        let a = SegmentedSet::build(&gen_sorted(2_000, 9, 60_000), &p).unwrap();
        let b = SegmentedSet::build(&gen_sorted(2_000, 10, 60_000), &p).unwrap();
        let d = tune_prefetch_distance(&[(a, b)], &KernelTable::auto(), 2);
        assert!(PREFETCH_DISTANCE_GRID.contains(&d));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn prefetch_tuner_rejects_empty_samples() {
        let _ = tune_prefetch_distance(&[], &KernelTable::auto(), 1);
    }

    #[test]
    fn quick_calibration_produces_a_loadable_profile() {
        let p = calibrate(true);
        assert_eq!(p.version, crate::plan::PROFILE_VERSION);
        let back = crate::plan::MachineProfile::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
        assert!(PREFETCH_DISTANCE_GRID.contains(&p.pipeline.prefetch_distance));
    }

    #[test]
    fn should_prune_honours_force_size_and_density() {
        // Small dense pair: every summary block populated, tiny bitmaps.
        let small = gen_sorted(2_000, 21, 60_000);
        let a = SegmentedSet::build(&small, &FesiaParams::auto()).unwrap();
        let b = SegmentedSet::build(&small, &FesiaParams::auto()).unwrap();
        let auto = PruneParams::default();
        assert!(!should_prune(&a, &b, &auto), "small dense must not prune");
        assert!(should_prune(&a, &b, &auto.with_forced(Some(true))));
        assert!(!should_prune(&a, &b, &auto.with_forced(Some(false))));

        // Oversized bitmaps (512 bits/element) leave most summary blocks
        // empty: once past the size floor, density admits pruning.
        let sparse_params = FesiaParams::auto().with_bits_per_element(512.0);
        let sa = SegmentedSet::build(&small, &sparse_params).unwrap();
        let sb = SegmentedSet::build(&small, &sparse_params).unwrap();
        assert!(sa.summary_density() < 0.7);
        let floor = sa.bitmap_bytes().len() + sb.bitmap_bytes().len();
        assert!(should_prune(&sa, &sb, &auto.with_min_bitmap_bytes(floor)));
        assert!(
            !should_prune(&sa, &sb, &auto.with_min_bitmap_bytes(floor + 1)),
            "below the size floor auto mode declines"
        );
        assert!(
            !should_prune(
                &sa,
                &sb,
                &auto.with_min_bitmap_bytes(floor).with_max_survivor_pct(0)
            ),
            "a zero survivor ceiling rejects any populated pair"
        );
    }
}
