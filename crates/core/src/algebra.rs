//! Materializing set algebra: `intersect`, `union`, `difference`, and
//! `xor` over [`SegmentedSet`]s.
//!
//! ## Intersection
//!
//! Intersection is planned exactly like the count path: the planner's
//! [`IntersectPlanner::plan_pair`] picks the plain two-step scan, the
//! hash probe, or the container walk, and the chosen plan runs through
//! the visitor kernels of [`crate::kernels::visit`]. The hashed segment
//! bitmap is FESIA's intersection filter (paper §III–IV): a segment pair
//! can hold a common element only where both bitmaps have bits.
//!
//! ## Union, difference and xor
//!
//! These have one execution each, chosen from what the input shows —
//! whether each side carries a container tier — with no plan and no knob
//! taking part (DESIGN.md §5g):
//!
//! * **difference, A tiered** — [`crate::container::difference_visit_ordered`]
//!   answers each of A's ranges in the value domain, ascending;
//! * **union or xor, both sides tiered** — [`crate::container::op_visit`]
//!   walks both directories, ascending;
//! * **everything else** (a side under
//!   [`crate::container::CONTAINER_MIN_BUILD`] elements, or a legacy set
//!   without a tier) — the element-wise probe against the other side's
//!   membership test, then one sort.
//!
//! Both tier walks are exact in the value domain, and the probe is exact
//! for any pair of bitmap sizes, so no collision rule is needed anywhere.

use crate::container::{difference_visit_ordered, op_visit};
use crate::intersect::{check_compatible, default_table, order_sides, scan_survivors};
use crate::kernels::visit::{intersect_visit, EmitVisitor, SegmentVisitor, SetOp};
use crate::plan::{IntersectPlan, IntersectPlanner, SetSummary};
use crate::set::SegmentedSet;

/// Materialize `A ∩ B`, sorted ascending (planner-driven).
pub fn intersect(a: &SegmentedSet, b: &SegmentedSet) -> Vec<u32> {
    set_op(a, b, SetOp::Intersect)
}

/// Materialize `A ∪ B`, sorted ascending.
pub fn union(a: &SegmentedSet, b: &SegmentedSet) -> Vec<u32> {
    set_op(a, b, SetOp::Union)
}

/// Materialize `A \ B`, sorted ascending.
pub fn difference(a: &SegmentedSet, b: &SegmentedSet) -> Vec<u32> {
    set_op(a, b, SetOp::Difference)
}

/// Materialize `A △ B` (symmetric difference), sorted ascending.
pub fn xor(a: &SegmentedSet, b: &SegmentedSet) -> Vec<u32> {
    set_op(a, b, SetOp::Xor)
}

/// Materialize any [`SetOp`], intersection planned by the planner.
pub fn set_op(a: &SegmentedSet, b: &SegmentedSet, op: SetOp) -> Vec<u32> {
    let planner = IntersectPlanner::current();
    set_op_planned(a, b, op, &planner)
}

/// `|op(A, B)|` without materializing: the planned intersection count
/// ([`crate::auto_count_planned`]) and inclusion–exclusion,
/// `|A∪B| = |A|+|B|−|A∩B|`, `|A\B| = |A|−|A∩B|`,
/// `|A△B| = |A|+|B|−2|A∩B|`.
pub fn set_op_count(a: &SegmentedSet, b: &SegmentedSet, op: SetOp) -> usize {
    check_compatible(a, b);
    let planner = IntersectPlanner::current();
    let and = crate::intersect::auto_count_planned(a, b, default_table(), &planner);
    record_op(op);
    let n = match op {
        SetOp::Intersect => and,
        SetOp::Union => a.len() + b.len() - and,
        SetOp::Difference => a.len() - and,
        SetOp::Xor => a.len() + b.len() - 2 * and,
    };
    fesia_obs::metrics().algebra_emitted.add(n as u64);
    n
}

/// [`set_op`] against an explicit planner. The planner only governs
/// intersection; the other ops take their one execution. Every call
/// records one `strategy_*` and one `plan_*` increment (hash for the
/// probe, merge and `plan_container` for a tier walk).
pub fn set_op_planned(
    a: &SegmentedSet,
    b: &SegmentedSet,
    op: SetOp,
    planner: &IntersectPlanner,
) -> Vec<u32> {
    check_compatible(a, b);
    let mut out = Vec::new();
    let ascending = match op {
        SetOp::Intersect => {
            let plan = plan_intersect(a, b, planner);
            execute_intersect(a, b, plan, &mut EmitVisitor(&mut out))
        }
        _ => {
            record_op(op);
            execute_op(a, b, op, &mut EmitVisitor(&mut out))
        }
    };
    fesia_obs::metrics().algebra_emitted.add(out.len() as u64);
    // The scan and the probe emit in segment (hash) order; every public
    // materializing entry point returns ascending.
    if !ascending {
        out.sort_unstable();
    }
    out
}

/// Plan an intersection, recording its `strategy_*` counter like
/// [`crate::auto_count_planned`].
fn plan_intersect(a: &SegmentedSet, b: &SegmentedSet, planner: &IntersectPlanner) -> IntersectPlan {
    let m = fesia_obs::metrics();
    let plan = planner.plan_pair(&SetSummary::of(a), &SetSummary::of(b));
    match plan {
        IntersectPlan::HashProbe => m.strategy_hash.inc(),
        _ => m.strategy_merge.inc(),
    };
    plan
}

/// Record the op's `algebra_*` counter (intersection has none).
fn record_op(op: SetOp) {
    let m = fesia_obs::metrics();
    match op {
        SetOp::Intersect => {}
        SetOp::Union => {
            m.algebra_union.inc();
        }
        SetOp::Difference => {
            m.algebra_difference.inc();
        }
        SetOp::Xor => {
            m.algebra_xor.inc();
        }
    }
}

/// Execute an explicit [`IntersectPlan`] for `A ∩ B`, feeding every
/// element to `v`. Returns whether the elements arrived ascending (only
/// the container walk over two tiers emits in value order).
fn execute_intersect<V: SegmentVisitor>(
    a: &SegmentedSet,
    b: &SegmentedSet,
    plan: IntersectPlan,
    v: &mut V,
) -> bool {
    let m = fesia_obs::metrics();
    let level = default_table().level();
    match plan {
        IntersectPlan::Container => {
            m.plan_container.inc();
            // The word bitmaps are exact value-domain bitmaps. A
            // directory-less pair falls back to the plain scan rather
            // than failing.
            if let (Some(ca), Some(cb)) = (a.container(), b.container()) {
                m.intersect_container.inc();
                op_visit(SetOp::Intersect, ca, cb, level, v);
                return true;
            }
        }
        IntersectPlan::HashProbe => {
            m.plan_hash.inc();
            probe_visit(a, b, SetOp::Intersect, v);
            return false;
        }
        IntersectPlan::Plain => {
            m.plan_plain.inc();
        }
    }
    // FESIA's two steps: the bitmap AND keeps the segment pairs that can
    // share an element, and the segment kernel emits the matches. A
    // folded pair drives the larger bitmap; its segment `i` meets segment
    // `i mod n_small` of the smaller side, where hash positions agree.
    let (x, y, folded) = order_sides(a, b);
    let seg_mask = y.num_segments() - 1;
    scan_survivors(level, a.lane(), x, y, folded, |i| {
        intersect_visit(level, x.segment(i), y.segment(i & seg_mask), v)
    });
    false
}

/// Execute union, difference or xor through its one execution (see the
/// module docs), feeding every element to `v` and recording the
/// `strategy_*` / `plan_*` pair. Returns whether the elements arrived
/// ascending.
fn execute_op<V: SegmentVisitor>(a: &SegmentedSet, b: &SegmentedSet, op: SetOp, v: &mut V) -> bool {
    debug_assert_ne!(op, SetOp::Intersect);
    let m = fesia_obs::metrics();
    let level = default_table().level();
    match (op, a.container(), b.container()) {
        (SetOp::Difference, Some(ca), _) => {
            m.strategy_merge.inc();
            m.plan_container.inc();
            difference_visit_ordered(ca, b, level, v);
            true
        }
        (SetOp::Union | SetOp::Xor, Some(ca), Some(cb)) => {
            m.strategy_merge.inc();
            m.plan_container.inc();
            op_visit(op, ca, cb, level, v);
            true
        }
        _ => {
            m.strategy_hash.inc();
            m.plan_hash.inc();
            probe_visit(a, b, op, v);
            false
        }
    }
}

/// The probe (`FESIAhash`): element-wise membership against the other
/// side. Exact for every op and every bitmap-size combination; emits in
/// segment order.
fn probe_visit<V: SegmentVisitor>(a: &SegmentedSet, b: &SegmentedSet, op: SetOp, v: &mut V) {
    let m = fesia_obs::metrics();
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let emit_missing = |from: &SegmentedSet, other: &SegmentedSet, v: &mut V| {
        for &x in from.reordered_elements() {
            if !other.contains(x) {
                v.visit(x);
            }
        }
    };
    match op {
        SetOp::Intersect => {
            m.hash_probe_elements.add(small.len() as u64);
            for &x in small.reordered_elements() {
                if large.contains(x) {
                    v.visit(x);
                }
            }
        }
        SetOp::Union => {
            m.hash_probe_elements.add(small.len() as u64);
            v.visit_run(large.reordered_elements());
            emit_missing(small, large, v);
        }
        SetOp::Difference => {
            m.hash_probe_elements.add(a.len() as u64);
            emit_missing(a, b, v);
        }
        SetOp::Xor => {
            m.hash_probe_elements.add((a.len() + b.len()) as u64);
            emit_missing(a, b, v);
            emit_missing(b, a, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FesiaParams;

    fn build(v: &[u32]) -> SegmentedSet {
        SegmentedSet::build(v, &FesiaParams::auto()).unwrap()
    }

    fn ref_op(op: SetOp, a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out: Vec<u32> = match op {
            SetOp::Intersect => a.iter().filter(|x| b.contains(x)).copied().collect(),
            SetOp::Union => {
                let mut u: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
                u.sort_unstable();
                u.dedup();
                u
            }
            SetOp::Difference => a.iter().filter(|x| !b.contains(x)).copied().collect(),
            SetOp::Xor => a
                .iter()
                .filter(|x| !b.contains(x))
                .chain(b.iter().filter(|x| !a.contains(x)))
                .copied()
                .collect(),
        };
        out.sort_unstable();
        out
    }

    const ALL_OPS: [SetOp; 4] = [
        SetOp::Intersect,
        SetOp::Union,
        SetOp::Difference,
        SetOp::Xor,
    ];

    #[test]
    fn paper_example_all_ops() {
        let a = build(&[1, 4, 15, 21, 32, 34]);
        let b = build(&[2, 6, 12, 16, 21, 23]);
        assert_eq!(intersect(&a, &b), vec![21]);
        assert_eq!(union(&a, &b), vec![1, 2, 4, 6, 12, 15, 16, 21, 23, 32, 34]);
        assert_eq!(difference(&a, &b), vec![1, 4, 15, 32, 34]);
        assert_eq!(xor(&a, &b), vec![1, 2, 4, 6, 12, 15, 16, 23, 32, 34]);
    }

    /// Every intersection plan, and every op as planned, on a folded
    /// pair in both argument orders.
    #[test]
    fn every_plan_matches_reference_including_folded() {
        let va: Vec<u32> = (0..600u32).map(|i| i * 3).collect();
        let vb: Vec<u32> = (0..200u32).map(|i| i * 7 + 1).collect();
        // Different element counts force different auto bitmap sizes.
        let a = build(&va);
        let b = build(&vb);
        assert_ne!(a.bitmap_bits(), b.bitmap_bits(), "want a folded pair");
        for (x, y, vx, vy) in [(&a, &b, &va, &vb), (&b, &a, &vb, &va)] {
            let want = ref_op(SetOp::Intersect, vx, vy);
            for plan in [
                IntersectPlan::Plain,
                // Directory-less pair: exercises the container fallback.
                IntersectPlan::Container,
                IntersectPlan::HashProbe,
            ] {
                let mut out = Vec::new();
                execute_intersect(x, y, plan, &mut EmitVisitor(&mut out));
                out.sort_unstable();
                assert_eq!(out, want, "plan={plan:?}");
            }
            for op in ALL_OPS {
                let want = ref_op(op, vx, vy);
                let planner = IntersectPlanner::current();
                assert_eq!(set_op_planned(x, y, op, &planner), want, "{op:?}");
                assert_eq!(set_op_count(x, y, op), want.len(), "count op={op:?}");
            }
        }
    }

    /// Every intersection plan on pairs that carry container tiers: a
    /// run-heavy pair the planner sends to the tier walk (also folded:
    /// one side at 4× the bitmap density), and an array-heavy one it
    /// declines, so the walk runs on arrays too.
    #[test]
    fn every_plan_matches_reference_on_tiered_pairs() {
        let runs_a: Vec<u32> = (0..40_000u32).collect();
        let runs_b: Vec<u32> = (20_000..60_000u32).collect();
        let arrays_a: Vec<u32> = (0..20_000u32).map(|i| i * 977).collect();
        let arrays_b: Vec<u32> = (0..20_000u32).map(|i| i * 1_303).collect();
        let p = FesiaParams::auto();
        let dense = p.with_bits_per_element(p.bits_per_element * 4.0);
        let folded_b = SegmentedSet::build(&runs_b, &dense).unwrap();
        let planner = IntersectPlanner::current();
        for (va, vb, b, auto) in [
            (&runs_a, &runs_b, build(&runs_b), IntersectPlan::Container),
            (&runs_a, &runs_b, folded_b, IntersectPlan::Container),
            (&arrays_a, &arrays_b, build(&arrays_b), IntersectPlan::Plain),
        ] {
            let a = build(va);
            assert!(a.container().is_some() && b.container().is_some());
            assert_eq!(
                planner.plan_pair(&SetSummary::of(&a), &SetSummary::of(&b)),
                auto
            );
            let in_b: std::collections::HashSet<u32> = vb.iter().copied().collect();
            let want: Vec<u32> = va.iter().copied().filter(|x| in_b.contains(x)).collect();
            for plan in [
                IntersectPlan::Plain,
                IntersectPlan::Container,
                IntersectPlan::HashProbe,
            ] {
                for (x, y) in [(&a, &b), (&b, &a)] {
                    let mut out = Vec::new();
                    let ascending = execute_intersect(x, y, plan, &mut EmitVisitor(&mut out));
                    assert_eq!(ascending, plan == IntersectPlan::Container);
                    out.sort_unstable();
                    assert_eq!(out, want, "auto={auto:?} plan={plan:?}");
                }
            }
        }
    }

    /// Every intersection plan on the routing edges: empty operands,
    /// identical and disjoint sets, 4095 vs 4096 elements (either side of
    /// the tier build floor) and tiered × untiered, each in both orders.
    #[test]
    fn every_plan_matches_reference_on_edge_shapes() {
        let spread =
            |n: u32, step: u32, off: u32| -> Vec<u32> { (0..n).map(|i| i * step + off).collect() };
        let identical = spread(2_000, 13, 5);
        let shapes: [(&str, Vec<u32>, Vec<u32>); 6] = [
            ("empty-left", Vec::new(), spread(3_000, 7, 0)),
            ("empty-both", Vec::new(), Vec::new()),
            ("identical", identical.clone(), identical),
            ("disjoint", spread(1_500, 2, 0), spread(1_500, 2, 1)),
            ("4095-vs-4096", spread(4_095, 37, 0), spread(4_096, 41, 0)),
            (
                "tiered-untiered",
                spread(20_000, 3, 0),
                spread(3_000, 17, 1),
            ),
        ];
        for (label, va, vb) in shapes {
            let (a, b) = (build(&va), build(&vb));
            for (x, y, vx, vy) in [(&a, &b, &va, &vb), (&b, &a, &vb, &va)] {
                let want: Vec<u32> = vx
                    .iter()
                    .copied()
                    .filter(|e| vy.binary_search(e).is_ok())
                    .collect();
                let tiered = x.container().is_some() && y.container().is_some();
                for plan in [
                    IntersectPlan::Plain,
                    IntersectPlan::Container,
                    IntersectPlan::HashProbe,
                ] {
                    let mut out = Vec::new();
                    let ascending = execute_intersect(x, y, plan, &mut EmitVisitor(&mut out));
                    assert_eq!(ascending, tiered && plan == IntersectPlan::Container);
                    out.sort_unstable();
                    assert_eq!(out, want, "{label} plan={plan:?}");
                }
            }
        }
    }

    #[test]
    fn empty_and_identical_inputs() {
        let e = build(&[]);
        let s = build(&[5, 9, 1000]);
        assert_eq!(union(&e, &s), vec![5, 9, 1000]);
        assert_eq!(union(&e, &e), Vec::<u32>::new());
        assert_eq!(difference(&s, &e), vec![5, 9, 1000]);
        assert_eq!(difference(&e, &s), Vec::<u32>::new());
        assert_eq!(xor(&s, &s), Vec::<u32>::new());
        assert_eq!(intersect(&s, &s), vec![5, 9, 1000]);
        assert_eq!(xor(&e, &s), vec![5, 9, 1000]);
    }
}
