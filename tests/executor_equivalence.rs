//! Executor equivalence: every parallel entry point, on dedicated pools
//! of 1, 2, and 8 threads, must count exactly what the serial two-phase
//! algorithm counts — on random equal-bitmap inputs, on folded
//! (different-bitmap-size) inputs, and on inputs the planner sends to
//! each of its plans.
//!
//! Dedicated `Executor::new(n)` pools are used instead of the global one
//! so the worker count under test is pinned regardless of the host's
//! core count.

use fesia_core::{
    batch_count_pairs_on, intersect_count_interleaved_with, intersect_count_with,
    par_intersect_count_on, FesiaParams, IntersectPlan, IntersectPlanner, KernelTable,
    SegmentedSet, SetSummary,
};
use fesia_datagen::SplitMix64;
use fesia_exec::Executor;

fn build(n: usize, universe: u32, seed: u64, params: &FesiaParams) -> (Vec<u32>, SegmentedSet) {
    let mut rng = SplitMix64::new(seed);
    let v = fesia_datagen::sorted_distinct(n, universe, &mut rng);
    let s = SegmentedSet::build(&v, params).unwrap();
    (v, s)
}

/// Random equal-size pair + a folded pair (sizes differ by ~50x, which
/// forces different bitmap sizes under the default density).
fn fixture(params: &FesiaParams) -> Vec<(SegmentedSet, SegmentedSet)> {
    let (_, a) = build(20_000, 400_000, 1, params);
    let (_, b) = build(20_000, 400_000, 2, params);
    let (_, small) = build(700, 400_000, 3, params);
    let (_, large) = build(45_000, 400_000, 4, params);
    assert_ne!(
        small.bitmap_bits(),
        large.bitmap_bits(),
        "need a folded pair"
    );
    vec![(a, b), (small, large)]
}

#[test]
fn par_intersect_matches_serial_on_1_2_8_threads() {
    let params = FesiaParams::auto();
    let table = KernelTable::auto();
    for (i, (a, b)) in fixture(&params).iter().enumerate() {
        let want = intersect_count_with(a, b, &table);
        for n in [1usize, 2, 8] {
            let exec = Executor::new(n);
            assert_eq!(
                par_intersect_count_on(&exec, a, b, n, &table),
                want,
                "pair={i} threads={n}"
            );
            // Executor wider than the requested cap.
            assert_eq!(
                par_intersect_count_on(&exec, b, a, 2.min(n), &table),
                want,
                "pair={i} threads={n} capped"
            );
        }
    }
}

#[test]
fn batch_matches_serial_on_1_2_8_threads() {
    let params = FesiaParams::auto();
    let table = KernelTable::auto();
    let mut sets = Vec::new();
    for (a, b) in fixture(&params) {
        sets.push(a);
        sets.push(b);
    }
    let k = sets.len() as u32;
    let pairs: Vec<(u32, u32)> = (0..k).flat_map(|i| (0..k).map(move |j| (i, j))).collect();
    let want: Vec<usize> = pairs
        .iter()
        .map(|&(i, j)| fesia_core::auto_count_with(&sets[i as usize], &sets[j as usize], &table))
        .collect();
    for n in [1usize, 2, 8] {
        let exec = Executor::new(n);
        let got = batch_count_pairs_on(&exec, &sets, &pairs, &table, n);
        assert_eq!(got, want, "threads={n}");
    }
}

/// Every parallel path, on one pair per plan the planner can pick: the
/// equal pair runs plain, the folded 1:64 pair the hash probe, and a
/// run-heavy pair (asserted here) the container walk.
#[test]
fn parallel_paths_agree_under_every_explicit_plan() {
    let params = FesiaParams::auto();
    let table = KernelTable::auto();
    let mut fx = fixture(&params);
    let mut rng = SplitMix64::new(5);
    let (ra, rb) = fesia_datagen::run_heavy_pair(40_000, 10_000, 64, &mut rng);
    fx.push((
        SegmentedSet::build(&ra, &params).unwrap(),
        SegmentedSet::build(&rb, &params).unwrap(),
    ));
    let planner = IntersectPlanner::current();
    let plans: Vec<IntersectPlan> = fx
        .iter()
        .map(|(a, b)| planner.plan_pair(&SetSummary::of(a), &SetSummary::of(b)))
        .collect();
    assert_eq!(
        plans,
        [
            IntersectPlan::Plain,
            IntersectPlan::HashProbe,
            IntersectPlan::Container
        ]
    );
    let want: Vec<usize> = fx
        .iter()
        .map(|(a, b)| intersect_count_interleaved_with(a, b, &table))
        .collect();
    let mut sets = Vec::new();
    for (a, b) in fx {
        sets.push(a);
        sets.push(b);
    }
    let pairs: Vec<(u32, u32)> = (0..want.len() as u32).map(|i| (2 * i, 2 * i + 1)).collect();
    for n in [1usize, 2, 8] {
        let exec = Executor::new(n);
        assert_eq!(
            batch_count_pairs_on(&exec, &sets, &pairs, &table, n),
            want,
            "batch threads={n}"
        );
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let (a, b) = (&sets[a as usize], &sets[b as usize]);
            assert_eq!(intersect_count_with(a, b, &table), want[i], "pair={i}");
            assert_eq!(
                par_intersect_count_on(&exec, a, b, n, &table),
                want[i],
                "pair={i} threads={n}"
            );
        }
    }
}
