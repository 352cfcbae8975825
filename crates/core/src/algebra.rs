//! Planner-driven materializing set algebra: `intersect`, `union`,
//! `difference`, and `xor` over [`SegmentedSet`]s.
//!
//! Every operation asks [`IntersectPlanner::plan_materialize`] for an
//! explicit plan — the same cost model the count path uses, with pruning
//! limited to intersection — and executes it through the visitor
//! kernels of [`crate::kernels::visit`], so counting, materializing, and
//! callback consumers share one body per operation.
//!
//! ## Soundness of the step-1 scans
//!
//! Intersection lanes must be non-zero on *both* sides, so it scans with
//! [`MaskOp::And`] exactly like the count path. The other three ops scan
//! with [`MaskOp::Or`]: an element of the output can live in any segment
//! that is non-empty on either side, and a bitmap-level ANDNOT or XOR
//! would be unsound — two distinct elements (one per side) can hash to
//! the same bit position, zeroing the lane difference while the
//! element-level difference is non-empty. Visiting the Or-superset is
//! harmless: a segment pair with nothing to emit emits nothing.
//!
//! ## Folded bitmaps
//!
//! When the bitmaps differ in size, segment `i` of the larger side folds
//! onto segment `i & (n_small - 1)` of the smaller, and the hash
//! position of an element is identical modulo the fold
//! (`position(x, k') = position(x, k) & mask`). That makes the
//! large-driven per-segment sweep *exact* for intersection and for the
//! large-side difference; small-side residuals (union, xor, and the
//! small-side difference) are resolved with per-element
//! [`SegmentedSet::contains`] probes, because one small segment folds
//! under many large segments and cannot be swept pairwise.

use crate::kernels::visit::{
    difference_visit, intersect_visit, segment_op_visit, CountVisitor, EmitVisitor, SegmentVisitor,
    SetOp,
};
use crate::plan::{IntersectPlan, IntersectPlanner, PlanMode, SetSummary};
use crate::set::SegmentedSet;
use fesia_simd::mask::{for_each_nonzero_lane_folded_op, for_each_nonzero_lane_op, MaskOp};
use std::cell::RefCell;

thread_local! {
    /// Per-thread survivor buffer for the pruned intersection's sweep.
    static SURVIVOR_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Materialize `A ∩ B`, sorted ascending (planner-driven).
pub fn intersect(a: &SegmentedSet, b: &SegmentedSet) -> Vec<u32> {
    set_op(a, b, SetOp::Intersect)
}

/// Materialize `A ∪ B`, sorted ascending (planner-driven).
pub fn union(a: &SegmentedSet, b: &SegmentedSet) -> Vec<u32> {
    set_op(a, b, SetOp::Union)
}

/// Materialize `A \ B`, sorted ascending (planner-driven).
pub fn difference(a: &SegmentedSet, b: &SegmentedSet) -> Vec<u32> {
    set_op(a, b, SetOp::Difference)
}

/// Materialize `A △ B` (symmetric difference), sorted ascending
/// (planner-driven).
pub fn xor(a: &SegmentedSet, b: &SegmentedSet) -> Vec<u32> {
    set_op(a, b, SetOp::Xor)
}

/// Materialize any [`SetOp`] with the process-wide planner state.
pub fn set_op(a: &SegmentedSet, b: &SegmentedSet, op: SetOp) -> Vec<u32> {
    let planner = IntersectPlanner::current();
    set_op_planned(a, b, op, &planner)
}

/// `|op(A, B)|` without materializing: the same planned execution driving
/// a [`CountVisitor`] instead of a `Vec`.
pub fn set_op_count(a: &SegmentedSet, b: &SegmentedSet, op: SetOp) -> usize {
    let planner = IntersectPlanner::current();
    let plan = plan_and_record(a, b, op, &planner);
    let mut v = CountVisitor::default();
    execute_plan_op(a, b, op, plan, &mut v);
    fesia_obs::metrics().algebra_emitted.add(v.0 as u64);
    v.0
}

/// [`set_op`] against an explicit planner snapshot (batch and index runs
/// take one snapshot per run). Mirrors [`crate::auto_count_planned`]'s
/// counter discipline: one `strategy_*` increment per call, `plan_forced`
/// when the mode is an override, and the per-form `plan_*` counter inside
/// the executor.
pub fn set_op_planned(
    a: &SegmentedSet,
    b: &SegmentedSet,
    op: SetOp,
    planner: &IntersectPlanner,
) -> Vec<u32> {
    let plan = plan_and_record(a, b, op, planner);
    let mut out = Vec::new();
    execute_plan_op(a, b, op, plan, &mut EmitVisitor(&mut out));
    fesia_obs::metrics().algebra_emitted.add(out.len() as u64);
    // Scan and probe strategies discover elements in segment (hash)
    // order; every public materializing entry point returns ascending.
    if !emits_ascending(a, b, op, plan) {
        out.sort_unstable();
    }
    out
}

/// Whether [`execute_plan_op`] emits `op(A, B)` in ascending order: the
/// container plan over two tiers walks the value domain, and so does a
/// difference whose kept side carries a tier
/// ([`crate::container::difference_visit_ordered`]).
fn emits_ascending(a: &SegmentedSet, b: &SegmentedSet, op: SetOp, plan: IntersectPlan) -> bool {
    let tiered = a.container().is_some() && b.container().is_some();
    (plan == IntersectPlan::Container && tiered) || ordered_difference(a, b, op, plan)
}

/// Whether a difference runs in the value domain of A's tier: A carries
/// one, and the plan is not the container plan over two tiers (which
/// already does).
fn ordered_difference(a: &SegmentedSet, b: &SegmentedSet, op: SetOp, plan: IntersectPlan) -> bool {
    op == SetOp::Difference
        && a.container().is_some()
        && !(plan == IntersectPlan::Container && b.container().is_some())
}

fn plan_and_record(
    a: &SegmentedSet,
    b: &SegmentedSet,
    op: SetOp,
    planner: &IntersectPlanner,
) -> IntersectPlan {
    let m = fesia_obs::metrics();
    if planner.mode != PlanMode::Auto {
        m.plan_forced.inc();
    }
    let plan = planner.plan_materialize(&SetSummary::of(a), &SetSummary::of(b), op);
    match plan {
        IntersectPlan::HashProbe => m.strategy_hash.inc(),
        _ => m.strategy_merge.inc(),
    };
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
    plan
}

/// Execute an explicit [`IntersectPlan`] for a materializing `op`,
/// feeding every output element (in segment order, unsorted) to `v`.
///
/// Every plan form is handled for every op, so forced `FESIA_PLAN` modes
/// work uniformly: the AND-only pruned step 1 falls back to the plain
/// Or-scan for the non-intersect ops. A difference whose kept side A
/// carries a container tier runs in A's value domain under every plan
/// but the two-tier container plan, and arrives ascending (DESIGN.md
/// §5h).
pub fn execute_plan_op<V: SegmentVisitor>(
    a: &SegmentedSet,
    b: &SegmentedSet,
    op: SetOp,
    plan: IntersectPlan,
    v: &mut V,
) {
    crate::intersect::check_compatible(a, b);
    let m = fesia_obs::metrics();
    if ordered_difference(a, b, op, plan) {
        match plan {
            IntersectPlan::Plain => m.plan_plain.inc(),
            IntersectPlan::Pruned { .. } => m.plan_pruned.inc(),
            IntersectPlan::Container => m.plan_container.inc(),
            IntersectPlan::HashProbe => m.plan_hash.inc(),
        };
        let ca = a.container().expect("checked by ordered_difference");
        let level = crate::intersect::default_table().level();
        crate::container::difference_visit_ordered(ca, b, level, v);
        return;
    }
    match plan {
        IntersectPlan::Plain => {
            m.plan_plain.inc();
            scan_materialize(a, b, op, v);
        }
        IntersectPlan::Pruned { prefetch_distance } => {
            m.plan_pruned.inc();
            if op == SetOp::Intersect {
                pruned_intersect(a, b, prefetch_distance, v);
            } else {
                scan_materialize(a, b, op, v);
            }
        }
        IntersectPlan::Container => {
            m.plan_container.inc();
            // Sound for every op — the directory's word bitmaps are exact
            // value-domain bitmaps, not hashed filters. Directory-less
            // sets fall back to the plain scan rather than failing.
            match (a.container(), b.container()) {
                (Some(ca), Some(cb)) => {
                    m.intersect_container.inc();
                    let level = crate::intersect::default_table().level();
                    crate::container::op_visit(op, ca, cb, level, v);
                }
                _ => scan_materialize(a, b, op, v),
            }
        }
        IntersectPlan::HashProbe => {
            probe_materialize(a, b, op, v);
        }
    }
}

/// The plain two-phase scan execution: step 1 is the op's sound bitmap
/// scan (AND for intersection, OR otherwise), step 2 visits each
/// surviving segment pair through the op's visitor kernel.
fn scan_materialize<V: SegmentVisitor>(a: &SegmentedSet, b: &SegmentedSet, op: SetOp, v: &mut V) {
    let level = crate::intersect::default_table().level();
    if a.bitmap_bits() == b.bitmap_bits() {
        for_each_nonzero_lane_op(
            level,
            op.scan_op(),
            a.lane(),
            a.bitmap_bytes(),
            b.bitmap_bytes(),
            |i| segment_op_visit(level, op, a.segment(i), b.segment(i), v),
        );
    } else {
        folded_materialize(a, b, op, v);
    }
}

/// The summary-pruned intersection: the pruned AND-scan's survivors are
/// buffered, then swept with each side's segment metadata prefetched
/// `prefetch_distance` entries ahead. Folding needs no special case here:
/// segment `i` of the larger side meets segment `i & mask` of the smaller
/// one exactly as in the count path.
fn pruned_intersect<V: SegmentVisitor>(
    a: &SegmentedSet,
    b: &SegmentedSet,
    prefetch_distance: usize,
    v: &mut V,
) {
    let level = crate::intersect::default_table().level();
    let m = fesia_obs::metrics();
    let (x, y, folded) = crate::intersect::order_sides(a, b);
    let seg_mask = y.num_segments() - 1;
    SURVIVOR_SCRATCH.with(|s| {
        let mut scratch = s.borrow_mut();
        if scratch.capacity() != 0 {
            m.scratch_reused.inc();
        }
        scratch.clear();
        let stats = crate::intersect::scan_survivors(level, x.lane(), x, y, folded, true, |i| {
            scratch.push(i as u32)
        })
        .expect("pruned scan always reports stats");
        m.summary_blocks_skipped.add(stats.skipped() as u64);
        m.survivor_segments.add(scratch.len() as u64);
        for (k, &i) in scratch.iter().enumerate() {
            if k + prefetch_distance < scratch.len() {
                let ahead = scratch[k + prefetch_distance] as usize;
                x.prefetch_seg_entry(ahead);
                y.prefetch_seg_entry(ahead & seg_mask);
            }
            let i = i as usize;
            intersect_visit(level, x.segment(i), y.segment(i & seg_mask), v);
        }
    })
}

/// The asymmetric (folded-bitmap) execution, per op — see the module docs
/// for why each side is driven the way it is.
fn folded_materialize<V: SegmentVisitor>(a: &SegmentedSet, b: &SegmentedSet, op: SetOp, v: &mut V) {
    let level = crate::intersect::default_table().level();
    let (large, small) = if a.bitmap_bits() > b.bitmap_bits() {
        (a, b)
    } else {
        (b, a)
    };
    let seg_mask = small.num_segments() - 1;

    // Large-driven per-segment sweep with the given scan op; exact for
    // And (intersection) and for the large side of a difference/xor.
    type SweepBody<'f, V> = &'f dyn Fn(&[u32], &[u32], &mut V);
    let sweep = |scan: MaskOp, v: &mut V, body: SweepBody<V>| {
        for_each_nonzero_lane_folded_op(
            level,
            scan,
            large.lane(),
            large.bitmap_bytes(),
            small.bitmap_bytes(),
            |i| body(large.segment(i), small.segment(i & seg_mask), v),
        );
    };

    match op {
        SetOp::Intersect => {
            sweep(MaskOp::And, v, &|ls, ss, v| {
                intersect_visit(level, ls, ss, v)
            });
        }
        SetOp::Union => {
            // One small segment folds under many large segments, so the
            // pairwise sweep would emit small-side elements repeatedly.
            // Instead: every large-side element verbatim, plus the
            // small-side residual by membership probe.
            v.visit_run(large.reordered_elements());
            for &x in small.reordered_elements() {
                if !large.contains(x) {
                    v.visit(x);
                }
            }
        }
        SetOp::Difference => {
            if std::ptr::eq(a, large) {
                // A\B with A large: segment i of A meets exactly segment
                // i & mask of B (folding keeps hash positions congruent),
                // so the pairwise difference is exact.
                sweep(MaskOp::Or, v, &|ls, ss, v| difference_visit(ls, ss, v));
            } else {
                // A small: its segments fold under many B segments, so
                // probe element-wise.
                for &x in a.reordered_elements() {
                    if !b.contains(x) {
                        v.visit(x);
                    }
                }
            }
        }
        SetOp::Xor => {
            // large\small is pairwise-exact; small\large by probe. The
            // two parts are disjoint, so no dedup is needed.
            sweep(MaskOp::Or, v, &|ls, ss, v| difference_visit(ls, ss, v));
            for &x in small.reordered_elements() {
                if !large.contains(x) {
                    v.visit(x);
                }
            }
        }
    }
}

/// The probe (`FESIAhash`) execution: element-wise membership against the
/// other side's bitmap-plus-segment filter. Exact for every op and every
/// bitmap-size combination.
fn probe_materialize<V: SegmentVisitor>(a: &SegmentedSet, b: &SegmentedSet, op: SetOp, v: &mut V) {
    let m = fesia_obs::metrics();
    m.plan_hash.inc();
    match op {
        SetOp::Intersect => {
            let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            m.hash_probe_elements.add(small.len() as u64);
            for &x in small.reordered_elements() {
                if large.contains(x) {
                    v.visit(x);
                }
            }
        }
        SetOp::Union => {
            let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            m.hash_probe_elements.add(small.len() as u64);
            v.visit_run(large.reordered_elements());
            for &x in small.reordered_elements() {
                if !large.contains(x) {
                    v.visit(x);
                }
            }
        }
        SetOp::Difference => {
            m.hash_probe_elements.add(a.len() as u64);
            for &x in a.reordered_elements() {
                if !b.contains(x) {
                    v.visit(x);
                }
            }
        }
        SetOp::Xor => {
            m.hash_probe_elements.add((a.len() + b.len()) as u64);
            for &x in a.reordered_elements() {
                if !b.contains(x) {
                    v.visit(x);
                }
            }
            for &x in b.reordered_elements() {
                if !a.contains(x) {
                    v.visit(x);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FesiaParams;
    use crate::plan::test_knob_lock;

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

    #[test]
    fn every_plan_matches_reference_including_folded() {
        let _guard = test_knob_lock();
        let va: Vec<u32> = (0..600u32).map(|i| i * 3).collect();
        let vb: Vec<u32> = (0..200u32).map(|i| i * 7 + 1).collect();
        // Different element counts force different auto bitmap sizes,
        // exercising the folded path on every op and plan.
        let a = build(&va);
        let b = build(&vb);
        assert_ne!(a.bitmap_bits(), b.bitmap_bits(), "want a folded pair");
        for op in ALL_OPS {
            let want = ref_op(op, &va, &vb);
            for plan in [
                IntersectPlan::Plain,
                IntersectPlan::Pruned {
                    prefetch_distance: 4,
                },
                // Directory-less pair: exercises the container fallback.
                IntersectPlan::Container,
                IntersectPlan::HashProbe,
            ] {
                let mut out = Vec::new();
                execute_plan_op(&a, &b, op, plan, &mut EmitVisitor(&mut out));
                out.sort_unstable();
                assert_eq!(out, want, "op={op:?} plan={plan:?} (a,b)");
                let mut rev = Vec::new();
                let rwant = ref_op(op, &vb, &va);
                execute_plan_op(&b, &a, op, plan, &mut EmitVisitor(&mut rev));
                rev.sort_unstable();
                assert_eq!(rev, rwant, "op={op:?} plan={plan:?} (b,a)");
            }
            assert_eq!(set_op(&a, &b, op), want, "auto op={op:?}");
            assert_eq!(set_op_count(&a, &b, op), want.len(), "count op={op:?}");
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
