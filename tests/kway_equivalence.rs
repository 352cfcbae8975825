//! k-way and ordered-difference equivalence: every k-way strategy, run
//! explicitly and as planned, and the value-domain `A \ B` are
//! element-identical to `BTreeSet` oracles.
//!
//! The planner picks *how* a k-way intersection runs (probe, container
//! walk, or bitmap-fold scan, [`KwayStrategy`]) and how a difference is
//! produced (in A's container tier when A carries one) — never *what*
//! the answer is. So running each strategy in turn must reproduce the
//! oracle on every shape: tiers spanning several
//! 65536-value ranges with array, bitmap and run kinds, operands with and
//! without a tier, sets of exactly 4095 and 4096 elements (the tier build
//! floor), and empty sets. Every materialized result must also be
//! strictly ascending. Inputs come from a seeded [`SplitMix64`] stream.

use fesia_core::container::difference_visit_ordered;
use fesia_core::{
    ContainerKind, EmitVisitor, FesiaParams, IntersectPlanner, KernelTable, KwayStrategy,
    SegmentedSet, SetOp, SetStore, SetSummary, SimdLevel,
};
use fesia_datagen::SplitMix64;
use std::collections::BTreeSet;

fn random_set(rng: &mut SplitMix64, n: usize, lo: u32, hi: u32) -> BTreeSet<u32> {
    let mut s = BTreeSet::new();
    while s.len() < n {
        s.insert(lo + rng.below(u64::from(hi - lo)) as u32);
    }
    s
}

/// A set whose tier spans several ranges of every kind: sparse scatter
/// over keys 0..6 (arrays), a dense window at key 8 (bitmap), long runs
/// at key 12 (runs), plus `extra`.
fn mixed_set(rng: &mut SplitMix64, extra: &BTreeSet<u32>) -> Vec<u32> {
    let mut s = random_set(rng, 2_500, 0, 6 << 16);
    s.extend(random_set(rng, 9_000, 8 << 16, 9 << 16));
    let mut v = (12 << 16) + rng.below(512) as u32;
    while v < (13 << 16) - 600 {
        let len = 40 + rng.below(400) as u32;
        s.extend(v..(v + len).min((13 << 16) - 1));
        v += len + 3 + rng.below(80) as u32;
    }
    s.extend(extra);
    s.into_iter().collect()
}

fn oracle_and(lists: &[Vec<u32>]) -> Vec<u32> {
    let mut acc: BTreeSet<u32> = lists[0].iter().copied().collect();
    for l in &lists[1..] {
        let s: BTreeSet<u32> = l.iter().copied().collect();
        acc = acc.intersection(&s).copied().collect();
    }
    acc.into_iter().collect()
}

fn assert_ascending(v: &[u32], what: &str) {
    assert!(
        v.windows(2).all(|w| w[0] < w[1]),
        "{what}: output not strictly ascending"
    );
}

/// The k-way shapes: (label, four lists); each is run with its first
/// three and all four lists.
fn kway_shapes(seed: u64) -> Vec<(&'static str, Vec<Vec<u32>>)> {
    let mut rng = SplitMix64::new(0x4B3A ^ (seed << 8));
    // A shared core so every intersection is non-trivial.
    let core = random_set(&mut rng, 300, 0, 14 << 16);
    let mixed: Vec<Vec<u32>> = (0..4).map(|_| mixed_set(&mut rng, &core)).collect();
    let plain: Vec<Vec<u32>> = (0..4)
        .map(|_| {
            let mut s = random_set(&mut rng, 3_000, 0, 40_000);
            s.extend(core.iter().filter(|&&x| x < 40_000));
            s.into_iter().collect()
        })
        .collect();
    // Dense bitmaps over two ranges, comparable sizes.
    let dense: Vec<Vec<u32>> = (0..4)
        .map(|_| {
            random_set(&mut rng, 70_000, 0, 2 << 16)
                .into_iter()
                .collect()
        })
        .collect();
    // Skewed: one small set against tiered large ones.
    let mut skewed = vec![random_set(&mut rng, 200, 0, 14 << 16)
        .union(&core)
        .copied()
        .collect::<Vec<u32>>()];
    skewed.extend(mixed[1..].iter().cloned());
    // Mixed operands: two tiered, two untiered over the same domain.
    let mut one_sided = vec![mixed[0].clone(), mixed[1].clone()];
    for _ in 0..2 {
        let mut s = random_set(&mut rng, 2_000, 0, 14 << 16);
        s.extend(&core);
        one_sided.push(s.into_iter().collect());
    }
    // The tier build floor: 4095 (no tier) and 4096 (tier) elements.
    let floor: Vec<Vec<u32>> = [4_095usize, 4_096, 4_095, 4_096]
        .iter()
        .map(|&n| random_set(&mut rng, n, 0, 3 << 16).into_iter().collect())
        .collect();
    let with_empty = vec![
        mixed[0].clone(),
        Vec::new(),
        mixed[2].clone(),
        mixed[3].clone(),
    ];
    vec![
        ("mixed-kinds", mixed),
        ("plain", plain),
        ("dense", dense),
        ("skewed", skewed),
        ("one-sided", one_sided),
        ("build-floor", floor),
        ("with-empty", with_empty),
    ]
}

#[test]
fn shapes_cover_the_tier_edges() {
    let params = FesiaParams::auto();
    let shapes = kway_shapes(0);
    let get = |label: &str| &shapes.iter().find(|(l, _)| *l == label).unwrap().1;
    let mixed = SegmentedSet::build(&get("mixed-kinds")[0], &params).unwrap();
    let tier = mixed.container().expect("mixed sets carry a tier");
    let kinds: BTreeSet<&str> = (0..tier.num_ranges())
        .map(|i| tier.range_kind(i).name())
        .collect();
    assert!(tier.num_ranges() > 3, "several ranges");
    for kind in [
        ContainerKind::Array,
        ContainerKind::Bitmap,
        ContainerKind::Run,
    ] {
        assert!(kinds.contains(kind.name()), "missing {}", kind.name());
    }
    let floor = get("build-floor");
    assert!(SegmentedSet::build(&floor[0], &params)
        .unwrap()
        .container()
        .is_none());
    assert!(SegmentedSet::build(&floor[1], &params)
        .unwrap()
        .container()
        .is_some());
}

#[test]
fn every_mode_and_strategy_matches_the_oracle() {
    let table = KernelTable::auto();
    let params = FesiaParams::auto();
    let planner = IntersectPlanner::current();
    let mut planned = BTreeSet::new();
    for seed in 0..2u64 {
        for (label, lists) in kway_shapes(seed) {
            for k in [3usize, 4] {
                let lists = &lists[..k];
                let want = oracle_and(lists);
                let sets: Vec<SegmentedSet> = lists
                    .iter()
                    .map(|l| SegmentedSet::build(l, &params).unwrap())
                    .collect();
                let refs: Vec<&SegmentedSet> = sets.iter().collect();
                let what = |how: &str| format!("seed={seed} case={label} k={k} {how}");
                for strategy in KwayStrategy::ALL {
                    let how = what(strategy.name());
                    assert_eq!(
                        fesia_core::execute_kway_count(&refs, &table, strategy),
                        want.len(),
                        "{how} count"
                    );
                    let got = fesia_core::execute_kway_intersect(&refs, &table, strategy);
                    assert_ascending(&got, &how);
                    assert_eq!(got, want, "{how} materialize");
                }
                // The planned entry points, whichever strategy the
                // planner picks for this shape.
                let sums: Vec<SetSummary> = sets.iter().map(SetSummary::of).collect();
                let strategy = planner.plan_kway(&sums).strategy;
                planned.insert(strategy.name());
                let how = what(&format!("planned={}", strategy.name()));
                assert_eq!(
                    fesia_core::kway_count_with(&refs, &table),
                    want.len(),
                    "{how} count"
                );
                let got = fesia_core::kway_intersect_with(&refs, &table);
                assert_ascending(&got, &how);
                assert_eq!(got, want, "{how} materialize");
            }
        }
    }
    // The shapes send the planned entry points down every strategy.
    let all: BTreeSet<&str> = KwayStrategy::ALL.iter().map(|s| s.name()).collect();
    assert_eq!(planned, all);
}

/// `A \ B` with A carrying a tier runs in A's value domain and comes out
/// ascending straight from the executor — for B of
/// every shape: untiered, tiered (each kind), dense, empty, identical,
/// disjoint, and a subset of A.
#[test]
fn ordered_difference_matches_the_oracle_for_every_b() {
    let params = FesiaParams::auto();
    let mut rng = SplitMix64::new(0xD1FF);
    let core = random_set(&mut rng, 500, 0, 14 << 16);
    let a_list = mixed_set(&mut rng, &core);
    let a_set: BTreeSet<u32> = a_list.iter().copied().collect();
    let untiered: Vec<u32> = random_set(&mut rng, 3_000, 0, 14 << 16)
        .union(&core)
        .copied()
        .collect();
    let tiered = mixed_set(&mut rng, &core);
    let dense: Vec<u32> = random_set(&mut rng, 120_000, 0, 14 << 16)
        .into_iter()
        .collect();
    let disjoint: Vec<u32> = (0..5_000u32).map(|i| (20 << 16) + i * 3).collect();
    let subset: Vec<u32> = a_list.iter().copied().step_by(3).collect();
    let bs: Vec<(&str, Vec<u32>)> = vec![
        ("untiered", untiered),
        ("tiered", tiered),
        ("dense", dense),
        ("empty", Vec::new()),
        ("identical", a_list.clone()),
        ("disjoint", disjoint),
        ("subset", subset),
    ];
    let a = SegmentedSet::build(&a_list, &params).unwrap();
    assert!(a.container().is_some());
    for (label, b_list) in &bs {
        let b = SegmentedSet::build(b_list, &params).unwrap();
        let b_set: BTreeSet<u32> = b_list.iter().copied().collect();
        let want: Vec<u32> = a_set.difference(&b_set).copied().collect();
        // The executor's raw emission, before any sort, is the answer.
        for level in SimdLevel::available_levels() {
            let mut got = Vec::new();
            difference_visit_ordered(
                a.container().unwrap(),
                &b,
                level,
                &mut EmitVisitor(&mut got),
            );
            let how = format!("b={label} level={level}");
            assert_ascending(&got, &how);
            assert_eq!(got, want, "{how}");
        }
        let got = fesia_core::set_op(&a, &b, SetOp::Difference);
        assert_eq!(got, want, "b={label}");
        assert_eq!(
            fesia_core::set_op_count(&a, &b, SetOp::Difference),
            want.len(),
            "b={label} count"
        );
    }
}

/// Snapshot reads with empty deltas (the base answer returns as is) and
/// with live deltas (the candidate filter corrects it) agree with the
/// live contents.
#[test]
fn snapshot_reads_match_with_and_without_deltas() {
    let table = KernelTable::auto();
    let params = FesiaParams::auto();
    let mut rng = SplitMix64::new(0x5A9);
    let core = random_set(&mut rng, 400, 0, 14 << 16);
    let lists: Vec<Vec<u32>> = vec![
        mixed_set(&mut rng, &core),
        mixed_set(&mut rng, &core),
        random_set(&mut rng, 3_000, 0, 14 << 16)
            .union(&core)
            .copied()
            .collect(),
        mixed_set(&mut rng, &core),
    ];
    let store = SetStore::from_segmented(
        lists
            .iter()
            .map(|l| SegmentedSet::build(l, &params).unwrap())
            .collect(),
        params,
    );
    let check = |store: &SetStore, phase: &str| {
        let snap = store.pin();
        let live: Vec<Vec<u32>> = (0..4)
            .map(|id| snap.get(id).unwrap().set().to_sorted_vec())
            .collect();
        let sets: Vec<BTreeSet<u32>> = live.iter().map(|l| l.iter().copied().collect()).collect();
        for (a, b) in [(0u32, 1u32), (0, 2), (2, 0), (3, 1)] {
            let (sa, sb) = (&sets[a as usize], &sets[b as usize]);
            for (op, want) in [
                (
                    SetOp::Difference,
                    sa.difference(sb).copied().collect::<Vec<_>>(),
                ),
                (SetOp::Intersect, sa.intersection(sb).copied().collect()),
                (SetOp::Union, sa.union(sb).copied().collect()),
                (SetOp::Xor, sa.symmetric_difference(sb).copied().collect()),
            ] {
                let got = snap.set_op(a, b, op).unwrap();
                assert_ascending(&got, phase);
                assert_eq!(got, want, "{phase} set_op {a} {} {b}", op.name());
            }
        }
        for ids in [&[0u32, 1, 2][..], &[0, 1, 3], &[0, 1, 2, 3]] {
            let want = oracle_and(
                &ids.iter()
                    .map(|&i| live[i as usize].clone())
                    .collect::<Vec<_>>(),
            );
            let got = snap.kway_intersect(ids, &table).unwrap();
            assert_ascending(&got, phase);
            assert_eq!(got, want, "{phase} kway_intersect {ids:?}");
            assert_eq!(
                snap.kway_count(ids, &table).unwrap(),
                want.len(),
                "{phase} kway_count {ids:?}"
            );
        }
    };
    check(&store, "empty deltas");
    // Live deltas: delete shared and private members, add new ones
    // (including values in ranges no tier holds).
    store.update(|cur, txn| {
        for id in [0u32, 1, 3] {
            let mut s = cur.get(id).unwrap().set().clone();
            let members = s.to_sorted_vec();
            for &x in members.iter().step_by(97).take(40) {
                s.remove_deferred(x).unwrap();
            }
            for x in core.iter().copied().step_by(7) {
                s.remove_deferred(x).unwrap();
            }
            for x in (0..60u32).map(|i| (30 << 16) + i * 11 + id) {
                s.insert_deferred(x).unwrap();
            }
            for x in (0..60u32).map(|i| (30 << 16) + i * 13) {
                s.insert_deferred(x).unwrap();
            }
            txn.push((id, Some(s)));
        }
    });
    assert!(store.pin().get(0).unwrap().set().delta_len() > 0);
    check(&store, "live deltas");
}
