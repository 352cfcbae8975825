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
use crate::params::FesiaParams;
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
}
