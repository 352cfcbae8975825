//! Planner equivalence: every explicit plan returns the same count as
//! the planner's own choice.
//!
//! The [`fesia_core::IntersectPlanner`] only chooses *how* a pair is
//! intersected — never *what* the answer is — so running each
//! [`IntersectPlan`] in turn through [`execute_plan_count`] must
//! reproduce the planned count on every input shape: randomized overlap,
//! heavy skew, disjoint ranges, identical sets, empty operands, and
//! container tiers the planner takes or declines. Inputs come from a
//! seeded [`SplitMix64`] stream, so a failure names the seed that
//! replays it.

use fesia_core::{
    execute_kway_count, execute_plan_count, FesiaParams, IntersectPlan, IntersectPlanner,
    KernelTable, KwayStrategy, SegmentedSet, SetSummary,
};
use fesia_datagen::{clustered_pair, run_heavy_pair, SplitMix64};

/// Every plan, including `Container` on pairs without two tiers (its
/// merge fallback).
const PLANS: [IntersectPlan; 3] = [
    IntersectPlan::Plain,
    IntersectPlan::HashProbe,
    IntersectPlan::Container,
];

fn sorted_set(rng: &mut SplitMix64, max_len: usize, universe: u32) -> Vec<u32> {
    let n = rng.below(max_len as u64 + 1) as usize;
    sorted_set_exact(rng, n, universe)
}

fn sorted_set_exact(rng: &mut SplitMix64, n: usize, universe: u32) -> Vec<u32> {
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
    let table = KernelTable::auto();
    let params = FesiaParams::auto();
    for seed in 0..12u64 {
        for (label, av, bv) in case_shapes(seed) {
            let a = SegmentedSet::build(&av, &params).unwrap();
            let b = SegmentedSet::build(&bv, &params).unwrap();
            let want = reference_count(&av, &bv);
            assert_eq!(
                fesia_core::auto_count_with(&a, &b, &table),
                want,
                "seed={seed} case={label} auto"
            );
            assert_eq!(
                fesia_core::intersect_count_with(&a, &b, &table),
                want,
                "seed={seed} case={label} (merge entry)"
            );
            for plan in PLANS {
                assert_eq!(
                    execute_plan_count(&a, &b, &table, plan),
                    want,
                    "seed={seed} case={label} plan={}",
                    plan.name()
                );
            }
        }
    }
}

/// Container-carrying shapes: run-heavy, clustered, mixed-kind, an
/// array-heavy pair whose tiers the planner declines, and a one-sided
/// pair where only one operand has a directory (the planner must
/// decline). Every plan, and both planned entry points, return the same
/// count.
#[test]
fn container_knob_settings_agree_on_counts() {
    let table = KernelTable::auto();
    let params = FesiaParams::auto();
    let planner = IntersectPlanner::current();
    let mut rng = SplitMix64::new(0xC0A7);
    let (rh_a, rh_b) = run_heavy_pair(40_000, 10_000, 64, &mut rng);
    let (cl_a, cl_b) = clustered_pair(40_000, 10_000, 3, 0.85, &mut rng);
    // Mixed kinds on one side: a run block, a dense window, a sparse tail.
    let mut mx_a: Vec<u32> = (0..6_000).collect();
    mx_a.extend((0..20_000u32).map(|i| (1 << 16) + i * 3));
    mx_a.extend((0..900u32).map(|i| (4 << 16) + i * 50));
    let mx_b: Vec<u32> = (0..40_000u32).map(|i| i * 2).collect();
    // Uniform over 2^26: every range holds a few dozen elements.
    let ar_a = sorted_set_exact(&mut rng, 30_000, 1 << 26);
    let ar_b = sorted_set_exact(&mut rng, 30_000, 1 << 26);
    let one_sided_b = sorted_set(&mut rng, 2_000, 1 << 18);
    let cases: Vec<(&str, &Vec<u32>, &Vec<u32>, bool)> = vec![
        ("run-heavy", &rh_a, &rh_b, true),
        ("clustered", &cl_a, &cl_b, true),
        ("mixed-kinds", &mx_a, &mx_b, true),
        ("array-heavy", &ar_a, &ar_b, false),
        ("one-sided", &mx_a, &one_sided_b, false),
    ];
    for (label, av, bv, container) in cases {
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
        let plan = planner.plan_merge(&SetSummary::of(&a), &SetSummary::of(&b));
        assert_eq!(
            plan == IntersectPlan::Container,
            container,
            "case={label}: planned {plan:?}"
        );
        let want = reference_count(av, bv);
        assert_eq!(
            fesia_core::auto_count_with(&a, &b, &table),
            want,
            "case={label} auto"
        );
        assert_eq!(
            fesia_core::intersect_count_with(&a, &b, &table),
            want,
            "case={label} (merge entry)"
        );
        for plan in PLANS {
            assert_eq!(
                execute_plan_count(&a, &b, &table, plan),
                want,
                "case={label} plan={}",
                plan.name()
            );
        }
    }
}

#[test]
fn forced_plans_agree_on_kway_and_batch_paths() {
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

    let want_kway = fesia_core::kway_count_with(&refs, &table);
    for strategy in KwayStrategy::ALL {
        assert_eq!(
            execute_kway_count(&refs, &table, strategy),
            want_kway,
            "k-way under strategy={}",
            strategy.name()
        );
    }
    let want_pair = reference_count(&lists[0], &lists[1]);
    assert_eq!(fesia_core::auto_count(&sets[0], &sets[1]), want_pair);
    let pairs: Vec<(u32, u32)> = (0..4u32)
        .flat_map(|i| (0..4).map(move |j| (i, j)))
        .collect();
    let batch = fesia_core::batch_count(&sets, &pairs);
    for (&(i, j), got) in pairs.iter().zip(batch) {
        let (a, b) = (&sets[i as usize], &sets[j as usize]);
        assert_eq!(got, reference_count(&lists[i as usize], &lists[j as usize]));
        for plan in PLANS {
            assert_eq!(
                execute_plan_count(a, b, &table, plan),
                got,
                "pair ({i}, {j}) under plan={}",
                plan.name()
            );
        }
    }
}
