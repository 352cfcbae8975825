//! Set-algebra equivalence: every materializing operation, on every
//! backend shape, is element-identical to the sorted-merge oracles in
//! `fesia_baselines::merge`.
//!
//! [`fesia_core::set_op`] plans intersections with the
//! [`fesia_core::IntersectPlanner`] and runs union, difference and xor
//! through one execution each, chosen by which sides carry a container
//! tier. Whichever execution runs, it must reproduce the oracle's exact
//! output (not just its length), strictly ascending, on randomized overlap, heavy
//! skew, disjoint ranges, identical sets, empty operands, and the routing
//! edges — 4095 vs 4096 elements (the tier floor), tiered × untiered in
//! both orders, same-size and folded untiered pairs — as well as folded
//! pairs (mismatched bitmap sizes) and sets decoded from `.fsia` files
//! that still carry the removed packed tier. Each intersection's plan is
//! asserted, so the shapes provably reach every plan; every plan run on
//! every kind of pair is covered by the unit tests beside the private
//! executor. Inputs come from a seeded [`SplitMix64`] stream, so a
//! failure names the seed that replays it.

use fesia_baselines::merge;
use fesia_core::{
    FesiaParams, IntersectPlan, IntersectPlanner, MappedFile, SegmentedSet, SetOp, SetSummary,
};
use fesia_datagen::{clustered_pair, run_heavy_pair, SplitMix64};
use std::collections::BTreeSet;
use std::sync::Arc;

const OPS: [SetOp; 4] = [
    SetOp::Intersect,
    SetOp::Union,
    SetOp::Difference,
    SetOp::Xor,
];

fn sorted_set(rng: &mut SplitMix64, max_len: usize, universe: u32) -> Vec<u32> {
    let n = rng.below(max_len as u64 + 1) as usize;
    exact_set(rng, n, universe)
}

/// The plan the planner picks for `A ∩ B`.
fn planned(a: &SegmentedSet, b: &SegmentedSet) -> IntersectPlan {
    IntersectPlanner::current().plan_pair(&SetSummary::of(a), &SetSummary::of(b))
}

fn oracle(op: SetOp, a: &[u32], b: &[u32]) -> Vec<u32> {
    match op {
        SetOp::Intersect => merge::intersect(a, b),
        SetOp::Union => merge::union(a, b),
        SetOp::Difference => merge::difference(a, b),
        SetOp::Xor => merge::xor(a, b),
    }
}

/// The adversarial input shapes: (label, a, b).
fn case_shapes(seed: u64) -> Vec<(&'static str, Vec<u32>, Vec<u32>)> {
    let mut rng = SplitMix64::new(0xA16E ^ (seed << 8));
    let random_a = sorted_set(&mut rng, 4_000, 60_000);
    let random_b = sorted_set(&mut rng, 4_000, 60_000);
    let skew_small = sorted_set(&mut rng, 64, 1 << 20);
    let skew_large = sorted_set(&mut rng, 20_000, 1 << 20);
    let identical = sorted_set(&mut rng, 2_000, 100_000);
    let disjoint_a: Vec<u32> = (0..1_500).map(|i| i * 2).collect();
    let disjoint_b: Vec<u32> = (0..1_500).map(|i| i * 2 + 1).collect();
    // The routing edges of union, difference and xor: a tier is built
    // from `CONTAINER_MIN_BUILD` (4096) elements up.
    let below_floor = exact_set(&mut rng, TIER_FLOOR - 1, 200_000);
    let at_floor = exact_set(&mut rng, TIER_FLOOR, 200_000);
    let tiered = exact_set(&mut rng, 20_000, 1 << 20);
    let untiered = exact_set(&mut rng, 3_000, 1 << 20);
    let same_size_a = exact_set(&mut rng, 2_500, 80_000);
    let same_size_b = exact_set(&mut rng, 2_500, 80_000);
    let folded_small = exact_set(&mut rng, 300, 80_000);
    let folded_large = exact_set(&mut rng, 3_500, 80_000);
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
        ("empty-right", at_floor.clone(), Vec::new()),
        ("empty-both", Vec::new(), Vec::new()),
        ("4095-vs-4096", below_floor.clone(), at_floor.clone()),
        ("4096-vs-4095", at_floor, below_floor),
        ("tiered-untiered", tiered.clone(), untiered.clone()),
        ("untiered-tiered", untiered, tiered),
        ("untiered-same-size", same_size_a, same_size_b),
        (
            "untiered-folded",
            folded_small.clone(),
            folded_large.clone(),
        ),
        ("untiered-folded-swapped", folded_large, folded_small),
    ]
}

/// Smallest set that carries a container tier.
const TIER_FLOOR: usize = 4096;

/// A sorted set of exactly `n` distinct values below `universe`.
fn exact_set(rng: &mut SplitMix64, n: usize, universe: u32) -> Vec<u32> {
    let mut set = std::collections::BTreeSet::new();
    while set.len() < n {
        set.insert(rng.below(universe as u64) as u32);
    }
    set.into_iter().collect()
}

fn assert_strictly_ascending(v: &[u32], how: &str) {
    assert!(
        v.windows(2).all(|w| w[0] < w[1]),
        "{how}: not strictly ascending"
    );
}

#[test]
fn materialized_intersection_length_matches_count() {
    let params = FesiaParams::auto();
    for seed in 0..8u64 {
        for (label, av, bv) in case_shapes(seed) {
            let a = SegmentedSet::build(&av, &params).unwrap();
            let b = SegmentedSet::build(&bv, &params).unwrap();
            assert_eq!(
                fesia_core::intersect(&a, &b).len(),
                fesia_core::intersect_count(&a, &b),
                "seed={seed} case={label}"
            );
        }
    }
}

#[test]
fn every_op_matches_the_merge_oracle_under_every_explicit_plan() {
    let params = FesiaParams::auto();
    let mut plans = BTreeSet::new();
    for seed in 0..8u64 {
        for (label, av, bv) in case_shapes(seed) {
            let a = SegmentedSet::build(&av, &params).unwrap();
            let b = SegmentedSet::build(&bv, &params).unwrap();
            // The labelled routing edges really sit on either side of the
            // tier floor.
            for (set, list) in [(&a, &av), (&b, &bv)] {
                assert_eq!(
                    set.container().is_some(),
                    list.len() >= TIER_FLOOR,
                    "seed={seed} case={label}: tier presence"
                );
            }
            plans.insert(planned(&a, &b).name());
            for op in OPS {
                let want = oracle(op, &av, &bv);
                let how = format!("seed={seed} case={label} op={}", op.name());
                assert_eq!(
                    fesia_core::set_op_count(&a, &b, op),
                    want.len(),
                    "{how} count"
                );
                let got = fesia_core::set_op(&a, &b, op);
                assert_strictly_ascending(&got, &how);
                assert_eq!(got, want, "{how}");
            }
        }
    }
    // Untiered and one-sided shapes: the scan or the probe.
    assert_eq!(plans, BTreeSet::from(["hash", "plain"]));
}

#[test]
fn folded_pairs_with_mismatched_bitmaps_agree() {
    let params = FesiaParams::auto();
    // A denser bitmap for the same data forces `bitmap_bits` apart even at
    // comparable lengths; length skew alone also folds (bits scale with n).
    let dense = params.with_bits_per_element(params.bits_per_element * 4.0);
    for seed in 0..6u64 {
        let mut rng = SplitMix64::new(0xF01D ^ seed);
        // Keep both sides well above the bitmap-size floor so the 4×
        // density gap is guaranteed to produce different bitmap sizes.
        let mut av = sorted_set(&mut rng, 2_000, 200_000);
        let mut bv = sorted_set(&mut rng, 2_000, 200_000);
        while av.len() < 1_000 {
            av = sorted_set(&mut rng, 2_000, 200_000);
        }
        while bv.len() < 1_000 {
            bv = sorted_set(&mut rng, 2_000, 200_000);
        }
        let a = SegmentedSet::build(&av, &params).unwrap();
        let b = SegmentedSet::build(&bv, &dense).unwrap();
        assert_ne!(
            a.bitmap_bits(),
            b.bitmap_bits(),
            "seed={seed}: the case must actually fold"
        );
        for op in OPS {
            assert_eq!(
                fesia_core::set_op(&a, &b, op),
                oracle(op, &av, &bv),
                "seed={seed} op={} folded",
                op.name()
            );
            // Folding is asymmetric inside the executor (large drives the
            // sweep), so both argument orders must hold.
            assert_eq!(
                fesia_core::set_op(&b, &a, op),
                oracle(op, &bv, &av),
                "seed={seed} op={} folded (swapped)",
                op.name()
            );
        }
    }
}

/// Container-carrying pairs through every materializing op: the word-AND
/// / word-OR range kernels are exact in the value domain, so the tier
/// walks must reproduce the merge oracle element for element — on dense
/// tiers the planner walks, and on array-heavy tiers it declines.
#[test]
fn container_sets_agree_with_the_oracle() {
    let params = FesiaParams::auto();
    let mut rng = SplitMix64::new(0xC0DE);
    let (rh_a, rh_b) = run_heavy_pair(40_000, 10_000, 64, &mut rng);
    let (cl_a, cl_b) = clustered_pair(40_000, 10_000, 3, 0.85, &mut rng);
    let ar_a = exact_set(&mut rng, 30_000, 1 << 26);
    let ar_b = exact_set(&mut rng, 30_000, 1 << 26);
    for (label, av, bv, plan) in [
        ("run-heavy", rh_a, rh_b, IntersectPlan::Container),
        ("clustered", cl_a, cl_b, IntersectPlan::Container),
        ("array-heavy", ar_a, ar_b, IntersectPlan::Plain),
    ] {
        let a = SegmentedSet::build(&av, &params).unwrap();
        let b = SegmentedSet::build(&bv, &params).unwrap();
        assert!(
            a.container().is_some() && b.container().is_some(),
            "case={label}: both sides must carry a directory"
        );
        assert_eq!(planned(&a, &b), plan, "case={label}");
        for op in OPS {
            let want = oracle(op, &av, &bv);
            assert_eq!(
                fesia_core::set_op(&a, &b, op),
                want,
                "case={label} op={}",
                op.name()
            );
            assert_eq!(
                fesia_core::set_op_count(&a, &b, op),
                want.len(),
                "case={label} op={} count",
                op.name()
            );
        }
    }
}

/// A folded pair (mismatched bitmap sizes) where both sides also carry
/// container directories. The container path never consults the hashed
/// bitmap, so folding is moot for it — but the dispatch seam between
/// folded execution and the directory walk must agree with the oracle in
/// both argument orders.
#[test]
fn folded_container_pairs_agree_with_the_oracle() {
    let params = FesiaParams::auto();
    let dense = params.with_bits_per_element(params.bits_per_element * 4.0);
    let mut rng = SplitMix64::new(0xF01DC);
    let (av, bv) = run_heavy_pair(30_000, 8_000, 48, &mut rng);
    let a = SegmentedSet::build(&av, &params).unwrap();
    let b = SegmentedSet::build(&bv, &dense).unwrap();
    assert_ne!(
        a.bitmap_bits(),
        b.bitmap_bits(),
        "the case must actually fold"
    );
    assert!(
        a.container().is_some() && b.container().is_some(),
        "both sides must carry a directory"
    );
    assert_eq!(planned(&a, &b), IntersectPlan::Container);
    for op in OPS {
        assert_eq!(
            fesia_core::set_op(&a, &b, op),
            oracle(op, &av, &bv),
            "op={} folded",
            op.name()
        );
        assert_eq!(
            fesia_core::set_op(&b, &a, op),
            oracle(op, &bv, &av),
            "op={} folded (swapped)",
            op.name()
        );
    }
}

/// Sets decoded — owned and mapped — from the committed `.fsia` v3/v4
/// fixtures, whose packed residual sections the decoders now ignore, are
/// element-identical to the oracle.
#[test]
fn packed_tier_sets_agree_with_the_oracle() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let load = |name: &str| {
        let path = fixtures.join(name);
        let (owned, _) = SegmentedSet::deserialize(&std::fs::read(&path).unwrap()).unwrap();
        let file = Arc::new(MappedFile::open(&path).unwrap());
        let (mapped, _) = SegmentedSet::deserialize_mapped(&file, 0).unwrap();
        [owned, mapped]
    };
    let av: Vec<u32> = (0..300u32).map(|i| i * 37 + 11).collect();
    let bv: Vec<u32> = (0..500u32).map(|i| i * 13 + 5).collect();
    let fresh = SegmentedSet::build(&bv, &FesiaParams::auto()).unwrap();
    let [a, am] = load("packed_v3.fsia");
    let [b, bm] = load("packed_v4.fsia");
    for (x, y) in [(&a, &b), (&am, &bm), (&a, &bm), (&am, &fresh)] {
        for op in OPS {
            assert_eq!(
                fesia_core::set_op(x, y, op),
                oracle(op, &av, &bv),
                "op={} packed",
                op.name()
            );
        }
    }
}
