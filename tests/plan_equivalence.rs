//! Planner equivalence: every forced `FESIA_PLAN` strategy returns the
//! same count as `auto`.
//!
//! The [`fesia_core::IntersectPlanner`] only chooses *how* a pair is
//! intersected — never *what* the answer is — so forcing each strategy in
//! turn (the runtime equivalent of `FESIA_PLAN=plain|hash`) must
//! reproduce the auto-mode count on every input shape:
//! randomized overlap, heavy skew, disjoint ranges, identical sets, and
//! empty operands. Inputs come from a seeded [`SplitMix64`] stream, so a
//! failure names the seed that replays it.

use fesia_core::{ContainerParams, FesiaParams, KernelTable, PlanMode, SegmentedSet};
use fesia_datagen::{clustered_pair, run_heavy_pair, SplitMix64};
use std::sync::Mutex;

/// `set_plan_mode` is process-global; tests that flip it serialize here.
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn sorted_set(rng: &mut SplitMix64, max_len: usize, universe: u32) -> Vec<u32> {
    let n = rng.below(max_len as u64 + 1) as usize;
    let mut set = std::collections::BTreeSet::new();
    while set.len() < n {
        set.insert(rng.below(universe as u64) as u32);
    }
    set.into_iter().collect()
}

fn reference_count(a: &[u32], b: &[u32]) -> usize {
    let bs: std::collections::HashSet<u32> = b.iter().copied().collect();
    a.iter().filter(|x| bs.contains(x)).count()
}

/// The adversarial input shapes: (label, a, b).
fn case_shapes(seed: u64) -> Vec<(&'static str, Vec<u32>, Vec<u32>)> {
    let mut rng = SplitMix64::new(0x71A9 ^ (seed << 8));
    let random_a = sorted_set(&mut rng, 4_000, 60_000);
    let random_b = sorted_set(&mut rng, 4_000, 60_000);
    let skew_small = sorted_set(&mut rng, 64, 1 << 20);
    let skew_large = sorted_set(&mut rng, 20_000, 1 << 20);
    let identical = sorted_set(&mut rng, 2_000, 100_000);
    let disjoint_a: Vec<u32> = (0..1_500).map(|i| i * 2).collect();
    let disjoint_b: Vec<u32> = (0..1_500).map(|i| i * 2 + 1).collect();
    vec![
        ("random", random_a, random_b),
        ("skewed", skew_small, skew_large),
        ("identical", identical.clone(), identical),
        ("disjoint", disjoint_a, disjoint_b),
        (
            "empty-left",
            Vec::new(),
            sorted_set(&mut rng, 3_000, 50_000),
        ),
        ("empty-both", Vec::new(), Vec::new()),
    ]
}

#[test]
fn every_forced_plan_matches_auto() {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let table = KernelTable::auto();
    let params = FesiaParams::auto();
    for seed in 0..12u64 {
        for (label, av, bv) in case_shapes(seed) {
            let a = SegmentedSet::build(&av, &params).unwrap();
            let b = SegmentedSet::build(&bv, &params).unwrap();
            let want = reference_count(&av, &bv);

            fesia_core::set_plan_mode(PlanMode::Auto);
            assert_eq!(
                fesia_core::auto_count_with(&a, &b, &table),
                want,
                "seed={seed} case={label} mode=auto"
            );
            for mode in PlanMode::FORCED {
                fesia_core::set_plan_mode(mode);
                assert_eq!(
                    fesia_core::auto_count_with(&a, &b, &table),
                    want,
                    "seed={seed} case={label} mode={}",
                    mode.name()
                );
                // The non-adaptive entry point obeys the same forcing.
                assert_eq!(
                    fesia_core::intersect_count_with(&a, &b, &table),
                    want,
                    "seed={seed} case={label} mode={} (merge entry)",
                    mode.name()
                );
            }
            fesia_core::set_plan_mode(PlanMode::Auto);
        }
    }
}

/// Container-carrying shapes: run-heavy, clustered, mixed-kind, and a
/// one-sided pair where only one operand has a directory (the planner
/// must decline even under `FESIA_CONTAINER=1`). Every knob setting —
/// auto, forced on, forced off — returns the same count, under every
/// forced `FESIA_PLAN` strategy on top.
#[test]
fn container_knob_settings_agree_on_counts() {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let table = KernelTable::auto();
    let params = FesiaParams::auto();
    let mut rng = SplitMix64::new(0xC0A7);
    let (rh_a, rh_b) = run_heavy_pair(40_000, 10_000, 64, &mut rng);
    let (cl_a, cl_b) = clustered_pair(40_000, 10_000, 3, 0.85, &mut rng);
    // Mixed kinds on one side: a run block, a dense window, a sparse tail.
    let mut mx_a: Vec<u32> = (0..6_000).collect();
    mx_a.extend((0..20_000u32).map(|i| (1 << 16) + i * 3));
    mx_a.extend((0..900u32).map(|i| (4 << 16) + i * 50));
    let mx_b: Vec<u32> = (0..40_000u32).map(|i| i * 2).collect();
    let one_sided_b = sorted_set(&mut rng, 2_000, 1 << 18);
    let cases: Vec<(&str, &Vec<u32>, &Vec<u32>)> = vec![
        ("run-heavy", &rh_a, &rh_b),
        ("clustered", &cl_a, &cl_b),
        ("mixed-kinds", &mx_a, &mx_b),
        ("one-sided", &mx_a, &one_sided_b),
    ];
    let saved = fesia_core::container_params();
    for (label, av, bv) in cases {
        let a = SegmentedSet::build(av, &params).unwrap();
        let b = SegmentedSet::build(bv, &params).unwrap();
        if label != "one-sided" {
            assert!(
                a.container().is_some() && b.container().is_some(),
                "case={label}: both sides must carry a directory"
            );
        } else {
            assert!(
                b.container().is_none(),
                "one-sided case must stay one-sided"
            );
        }
        let want = reference_count(av, bv);
        for forced in [None, Some(true), Some(false)] {
            fesia_core::set_container_params(ContainerParams::default().with_forced(forced));
            fesia_core::set_plan_mode(PlanMode::Auto);
            assert_eq!(
                fesia_core::auto_count_with(&a, &b, &table),
                want,
                "case={label} container={forced:?} mode=auto"
            );
            for mode in PlanMode::FORCED {
                fesia_core::set_plan_mode(mode);
                assert_eq!(
                    fesia_core::intersect_count_with(&a, &b, &table),
                    want,
                    "case={label} container={forced:?} mode={}",
                    mode.name()
                );
            }
        }
    }
    fesia_core::set_container_params(saved);
    fesia_core::set_plan_mode(PlanMode::Auto);
}

#[test]
fn forced_plans_agree_on_kway_and_batch_paths() {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let table = KernelTable::auto();
    let params = FesiaParams::auto();
    let mut rng = SplitMix64::new(0xFE51A);
    let lists: Vec<Vec<u32>> = (0..4)
        .map(|_| sorted_set(&mut rng, 3_000, 40_000))
        .collect();
    let sets: Vec<SegmentedSet> = lists
        .iter()
        .map(|l| SegmentedSet::build(l, &params).unwrap())
        .collect();
    let refs: Vec<&SegmentedSet> = sets.iter().collect();

    fesia_core::set_plan_mode(PlanMode::Auto);
    let want_kway = fesia_core::kway_count_with(&refs, &table);
    let want_pair = fesia_core::auto_count(&sets[0], &sets[1]);
    for mode in PlanMode::FORCED {
        fesia_core::set_plan_mode(mode);
        assert_eq!(
            fesia_core::kway_count_with(&refs, &table),
            want_kway,
            "k-way under mode={}",
            mode.name()
        );
        assert_eq!(
            fesia_core::auto_count(&sets[0], &sets[1]),
            want_pair,
            "pair under mode={}",
            mode.name()
        );
    }
    fesia_core::set_plan_mode(PlanMode::Auto);
}
