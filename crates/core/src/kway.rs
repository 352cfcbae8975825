//! k-way intersection (paper §VI): AND `k` bitmaps, then verify the
//! surviving segments against all `k` element lists.
//!
//! Complexity `O(k·n/sqrt(w) + r)` (Proposition 2): phase 1 is `k - 1`
//! bitwise ANDs folded into a scratch bitmap, phase 2 touches only segments
//! whose `k`-way AND is non-zero — with `k` sets the expected number of
//! false-positive segments drops geometrically (`n^k / m^(k-1)`), which is
//! why Fig. 10's speedups grow with `k`.
//!
//! That fold is one of three strategies the planner chooses between
//! ([`IntersectPlanner::plan_kway`], DESIGN.md §5e) with the pair rules:
//! **probe** the smallest set's members against the others under the
//! pair skew rule (the paper's §VI `FESIAhash`, generalized), **container**
//! when every operand carries a dense container tier (the ranges' value
//! words are ANDed and counted), and otherwise the **scan** above.
//!
//! Divergence note: the paper sketches specialized *k-way kernels* for
//! phase 2; surviving segments hold ~1 element each, so the scan verifies
//! them with a scalar k-way merge (the asymptotics and the phase-1 SIMD
//! structure are unchanged — see DESIGN.md). The probe and container
//! strategies are additions of this implementation: the paper's k-way
//! evaluation uses similar-sized sets, where the scan is the right
//! shape.

use crate::container::ContainerTier;
use crate::intersect::default_table;
use crate::kernels::visit::{CountVisitor, EmitVisitor, SegmentVisitor, SetOp};
use crate::kernels::KernelTable;
use crate::plan::{IntersectPlanner, KwayStrategy, SetSummary};
use crate::set::SegmentedSet;
use fesia_simd::mask::for_each_nonzero_lane;
use std::cell::RefCell;

thread_local! {
    /// Per-thread fold buffer of the scan strategy, reused across calls
    /// (it is as large as the largest operand's bitmap).
    static FOLD_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Count the call and check the operands share a segment width.
fn enter(sets: &[&SegmentedSet]) {
    assert!(!sets.is_empty(), "k-way intersection of zero sets");
    fesia_obs::metrics().kway_calls.inc();
    let lane = sets[0].lane();
    assert!(
        sets.iter().all(|s| s.lane() == lane),
        "sets must be built with the same segment width"
    );
}

/// The planner's order and strategy, with the sets in that order.
fn order_and_strategy<'s>(
    sets: &[&'s SegmentedSet],
    planner: &IntersectPlanner,
) -> (Vec<&'s SegmentedSet>, KwayStrategy) {
    let sums: Vec<SetSummary> = sets.iter().map(|s| SetSummary::of(s)).collect();
    let plan = planner.plan_kway(&sums);
    (plan.order.iter().map(|&i| sets[i]).collect(), plan.strategy)
}

/// Run `strategy` over `sets` (ascending by length), feeding the common
/// elements to `v`. Returns whether they arrived ascending (the container
/// walk emits in value order; probe and scan in hash order). Exactly one
/// `kway_*` strategy counter is recorded: the one that ran — a container
/// strategy over an operand without a tier runs (and counts) the scan.
fn run_strategy<V: SegmentVisitor>(
    sets: &[&SegmentedSet],
    strategy: KwayStrategy,
    table: &KernelTable,
    v: &mut V,
) -> bool {
    let m = fesia_obs::metrics();
    match strategy {
        KwayStrategy::Probe => {
            m.kway_probe.inc();
            let (lead, rest) = sets.split_first().expect("non-empty");
            m.hash_probe_elements.add(lead.len() as u64);
            for &x in lead.reordered_elements() {
                if rest.iter().all(|s| s.contains(x)) {
                    v.visit(x);
                }
            }
            false
        }
        KwayStrategy::Container => {
            let tiers: Option<Vec<&ContainerTier>> = sets.iter().map(|s| s.container()).collect();
            match tiers {
                Some(tiers) => {
                    m.kway_container.inc();
                    crate::container::kway_visit(&tiers, v);
                    true
                }
                None => {
                    m.kway_scan.inc();
                    scan(sets, table, v);
                    false
                }
            }
        }
        KwayStrategy::Scan => {
            m.kway_scan.inc();
            scan(sets, table, v);
            false
        }
    }
}

/// The scan strategy. Phase 1 folds all k bitmaps into a scratch bitmap
/// the size of the largest, ANDing 64-bit words (smaller bitmaps tile
/// larger ones; every bitmap is a power of two of at least 64 bytes, so
/// word indexing folds cleanly). The non-zero-lane scan then reuses the
/// 2-way SIMD machinery by scanning scratch against itself, and phase 2
/// verifies each surviving segment.
fn scan<V: SegmentVisitor>(sets: &[&SegmentedSet], table: &KernelTable, v: &mut V) {
    let largest = sets
        .iter()
        .map(|s| s.bitmap_bytes().len())
        .max()
        .expect("non-empty");
    let read_word = |bytes: &[u8], wi: usize| {
        let off = (wi * 8) & (bytes.len() - 1);
        u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
    };
    FOLD_SCRATCH.with(|s| {
        let mut scratch = s.borrow_mut();
        if scratch.len() < largest {
            scratch.resize(largest, 0);
        }
        let fold = &mut scratch[..largest];
        let first = sets[0].bitmap_bytes();
        for (wi, out) in fold.chunks_exact_mut(8).enumerate() {
            let mut w = read_word(first, wi);
            for s in &sets[1..] {
                w &= read_word(s.bitmap_bytes(), wi);
            }
            out.copy_from_slice(&w.to_le_bytes());
        }
        let fold = &scratch[..largest];
        for_each_nonzero_lane(table.level(), sets[0].lane(), fold, fold, |i| {
            kway_verify_segment(sets, i, v)
        });
    })
}

/// Visit the elements common to all k sets within (folded) segment `i`.
///
/// Allocation-free: this runs once per surviving segment, so a heap
/// allocation here would dominate the whole phase.
fn kway_verify_segment<V: SegmentVisitor>(sets: &[&SegmentedSet], i: usize, v: &mut V) {
    // Anchor on the smallest segment list to bound the scan.
    let mut anchor_idx = 0usize;
    let mut anchor_len = usize::MAX;
    for (j, s) in sets.iter().enumerate() {
        let len = s.seg_size(i & (s.num_segments() - 1));
        if len < anchor_len {
            anchor_len = len;
            anchor_idx = j;
        }
    }
    let anchor = sets[anchor_idx].segment(i & (sets[anchor_idx].num_segments() - 1));
    for &x in anchor {
        if sets.iter().enumerate().all(|(j, s)| {
            j == anchor_idx || contains_sorted(s.segment(i & (s.num_segments() - 1)), x)
        }) {
            v.visit(x);
        }
    }
}

/// Membership in a short sorted run (linear scan with early exit; these
/// runs hold ~1 element on average).
#[inline]
fn contains_sorted(s: &[u32], x: u32) -> bool {
    for &v in s {
        if v >= x {
            return v == x;
        }
    }
    false
}

/// |L1 ∩ … ∩ Lk| with an explicit kernel table.
///
/// All sets must share a segment width. Bitmaps of different sizes fold
/// onto the largest one, as in the 2-way case.
///
/// # Panics
/// Panics if `sets` is empty or the segment widths differ.
pub fn kway_count_with(sets: &[&SegmentedSet], table: &KernelTable) -> usize {
    let planner = IntersectPlanner::current();
    kway_count_planned(sets, table, &planner)
}

/// [`kway_count_with`] against an explicit planner: the planner orders
/// the operands and picks the strategy ([`IntersectPlanner::plan_kway`]),
/// and the 2-way case gets the full pair strategy selection.
///
/// # Panics
/// As [`kway_count_with`].
pub fn kway_count_planned(
    sets: &[&SegmentedSet],
    table: &KernelTable,
    planner: &IntersectPlanner,
) -> usize {
    enter(sets);
    let (ordered, strategy) = order_and_strategy(sets, planner);
    match ordered.len() {
        1 => ordered[0].len(),
        // Two sets: delegate to the 2-way machinery with the paper's §VI
        // strategy selection (merge vs hash-probe by size ratio).
        2 => crate::intersect::auto_count_planned(ordered[0], ordered[1], table, planner),
        _ => {
            let mut v = CountVisitor::default();
            run_strategy(&ordered, strategy, table, &mut v);
            v.0
        }
    }
}

/// |L1 ∩ … ∩ Lk| under an explicit [`KwayStrategy`] for any k ≥ 1 (the
/// operands are still ordered ascending by length). All strategies
/// return the identical count; a container strategy over an operand
/// without a tier runs the scan. For equivalence sweeps and `repro plan`.
///
/// # Panics
/// As [`kway_count_with`].
pub fn execute_kway_count(
    sets: &[&SegmentedSet],
    table: &KernelTable,
    strategy: KwayStrategy,
) -> usize {
    enter(sets);
    let mut ordered = sets.to_vec();
    ordered.sort_by_key(|s| s.len());
    let mut v = CountVisitor::default();
    run_strategy(&ordered, strategy, table, &mut v);
    v.0
}

/// |L1 ∩ … ∩ Lk| with the process-default kernel table.
///
/// ```
/// use fesia_core::{FesiaParams, SegmentedSet};
/// let p = FesiaParams::auto();
/// let a = SegmentedSet::build(&[1, 2, 3, 4], &p).unwrap();
/// let b = SegmentedSet::build(&[2, 3, 4, 5], &p).unwrap();
/// let c = SegmentedSet::build(&[3, 4, 5, 6], &p).unwrap();
/// assert_eq!(fesia_core::kway_count(&[&a, &b, &c]), 2); // {3, 4}
/// ```
pub fn kway_count(sets: &[&SegmentedSet]) -> usize {
    kway_count_with(sets, default_table())
}

/// Materialize `L1 ∩ … ∩ Lk`, sorted ascending, with an explicit table
/// and the process-wide planner ([`kway_intersect_planned`]).
///
/// # Panics
/// As [`kway_count_with`].
pub fn kway_intersect_with(sets: &[&SegmentedSet], table: &KernelTable) -> Vec<u32> {
    let planner = IntersectPlanner::current();
    kway_intersect_planned(sets, table, &planner)
}

/// Materialize `L1 ∩ … ∩ Lk`, sorted ascending, against an explicit
/// planner — the materializing twin of [`kway_count_planned`]:
/// the same order and strategy, with two sets taking the planned pair
/// algebra ([`crate::algebra::set_op_planned`]).
///
/// # Panics
/// As [`kway_count_with`].
pub fn kway_intersect_planned(
    sets: &[&SegmentedSet],
    table: &KernelTable,
    planner: &IntersectPlanner,
) -> Vec<u32> {
    enter(sets);
    let (ordered, strategy) = order_and_strategy(sets, planner);
    match ordered.len() {
        1 => sorted_elements(ordered[0]),
        2 => crate::algebra::set_op_planned(ordered[0], ordered[1], SetOp::Intersect, planner),
        _ => materialize(&ordered, strategy, table),
    }
}

/// Materialize `L1 ∩ … ∩ Lk` under an explicit [`KwayStrategy`]; see
/// [`execute_kway_count`].
///
/// # Panics
/// As [`kway_count_with`].
pub fn execute_kway_intersect(
    sets: &[&SegmentedSet],
    table: &KernelTable,
    strategy: KwayStrategy,
) -> Vec<u32> {
    enter(sets);
    let mut ordered = sets.to_vec();
    ordered.sort_by_key(|s| s.len());
    materialize(&ordered, strategy, table)
}

fn materialize(sets: &[&SegmentedSet], strategy: KwayStrategy, table: &KernelTable) -> Vec<u32> {
    let mut out = Vec::new();
    if !run_strategy(sets, strategy, table, &mut EmitVisitor(&mut out)) {
        out.sort_unstable();
    }
    out
}

fn sorted_elements(s: &SegmentedSet) -> Vec<u32> {
    let mut v = s.reordered_elements().to_vec();
    v.sort_unstable();
    v
}

/// Materialize `L1 ∩ … ∩ Lk` with the process-default table.
///
/// ```
/// use fesia_core::{FesiaParams, SegmentedSet};
/// let p = FesiaParams::auto();
/// let a = SegmentedSet::build(&[1, 2, 3, 4], &p).unwrap();
/// let b = SegmentedSet::build(&[2, 3, 4, 5], &p).unwrap();
/// let c = SegmentedSet::build(&[3, 4, 5, 6], &p).unwrap();
/// assert_eq!(fesia_core::kway_intersect(&[&a, &b, &c]), vec![3, 4]);
/// ```
pub fn kway_intersect(sets: &[&SegmentedSet]) -> Vec<u32> {
    kway_intersect_with(sets, default_table())
}

/// Materialize `L1 ∪ … ∪ Lk`, sorted ascending.
///
/// The two-set case runs [`crate::algebra::union`] (the two-tier walk
/// when both sets carry a container tier, else the probe); larger
/// arities seed
/// the accumulator with that pairwise union and fold the remaining sets
/// in with linear sorted merges ([`crate::kernels::visit::union_visit`])
/// — a union's output only grows, so after the first pair the
/// accumulator, not the set encoding, dominates and a merge is optimal.
///
/// ```
/// use fesia_core::{FesiaParams, SegmentedSet};
/// let p = FesiaParams::auto();
/// let a = SegmentedSet::build(&[1, 2], &p).unwrap();
/// let b = SegmentedSet::build(&[2, 5], &p).unwrap();
/// let c = SegmentedSet::build(&[3], &p).unwrap();
/// assert_eq!(fesia_core::kway_union(&[&a, &b, &c]), vec![1, 2, 3, 5]);
/// ```
///
/// # Panics
/// Panics if `sets` is empty or the segment widths differ.
pub fn kway_union(sets: &[&SegmentedSet]) -> Vec<u32> {
    assert!(!sets.is_empty(), "k-way union of zero sets");
    fesia_obs::metrics().kway_calls.inc();
    let lane = sets[0].lane();
    assert!(
        sets.iter().all(|s| s.lane() == lane),
        "sets must be built with the same segment width"
    );
    let mut acc = match sets.len() {
        1 => return sorted_elements(sets[0]),
        _ => crate::algebra::union(sets[0], sets[1]),
    };
    let mut sorted = Vec::new();
    let mut merged = Vec::new();
    for s in &sets[2..] {
        sorted.clear();
        sorted.extend_from_slice(s.reordered_elements());
        sorted.sort_unstable();
        merged.clear();
        merged.reserve(acc.len() + sorted.len());
        crate::kernels::visit::union_visit(
            &acc,
            &sorted,
            &mut crate::kernels::visit::EmitVisitor(&mut merged),
        );
        std::mem::swap(&mut acc, &mut merged);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FesiaParams;
    use fesia_simd::SimdLevel;

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

    fn reference_kway(lists: &[Vec<u32>]) -> usize {
        lists[0]
            .iter()
            .filter(|x| lists[1..].iter().all(|l| l.binary_search(x).is_ok()))
            .count()
    }

    #[test]
    fn three_way_matches_reference() {
        let lists: Vec<Vec<u32>> = (0..3).map(|k| gen_sorted(3_000, 7 + k, 20_000)).collect();
        let want = reference_kway(&lists);
        assert!(want > 0, "workload should have a non-trivial answer");
        let p = FesiaParams::auto();
        let sets: Vec<SegmentedSet> = lists
            .iter()
            .map(|l| SegmentedSet::build(l, &p).unwrap())
            .collect();
        let refs: Vec<&SegmentedSet> = sets.iter().collect();
        for level in SimdLevel::available_levels() {
            let table = KernelTable::new(level, 1);
            assert_eq!(kway_count_with(&refs, &table), want, "level={level}");
        }
    }

    #[test]
    fn five_way_with_mixed_sizes() {
        let lists: Vec<Vec<u32>> = (0..5u64)
            .map(|k| gen_sorted(500 + 700 * k as usize, 31 + k, 30_000))
            .collect();
        let want = reference_kway(&lists);
        let p = FesiaParams::auto();
        let sets: Vec<SegmentedSet> = lists
            .iter()
            .map(|l| SegmentedSet::build(l, &p).unwrap())
            .collect();
        let refs: Vec<&SegmentedSet> = sets.iter().collect();
        assert_eq!(kway_count(&refs), want);
    }

    #[test]
    fn kway_degenerate_arities() {
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&[1, 5, 9], &p).unwrap();
        let b = SegmentedSet::build(&[5, 9, 12], &p).unwrap();
        assert_eq!(kway_count(&[&a]), 3);
        assert_eq!(kway_count(&[&a, &b]), 2);
    }

    #[test]
    fn kway_with_empty_set_is_zero() {
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&[1, 2, 3], &p).unwrap();
        let b = SegmentedSet::build(&[2, 3, 4], &p).unwrap();
        let e = SegmentedSet::build(&[], &p).unwrap();
        assert_eq!(kway_count(&[&a, &b, &e]), 0);
    }

    #[test]
    fn kway_identical_sets() {
        let v = gen_sorted(1_000, 3, 50_000);
        let p = FesiaParams::auto();
        let sets: Vec<SegmentedSet> = (0..4)
            .map(|_| SegmentedSet::build(&v, &p).unwrap())
            .collect();
        let refs: Vec<&SegmentedSet> = sets.iter().collect();
        assert_eq!(kway_count(&refs), v.len());
    }

    #[test]
    #[should_panic(expected = "zero sets")]
    fn kway_empty_input_panics() {
        let _ = kway_count(&[]);
    }

    #[test]
    fn kway_materialize_matches_count_and_reference() {
        let p = FesiaParams::auto();
        for k in [1usize, 2, 3, 5] {
            let lists: Vec<Vec<u32>> = (0..k as u64)
                .map(|s| gen_sorted(1_200, 41 + s, 9_000))
                .collect();
            let refs_sorted: Vec<u32> = lists[0]
                .iter()
                .copied()
                .filter(|x| lists[1..].iter().all(|l| l.binary_search(x).is_ok()))
                .collect();
            let sets: Vec<SegmentedSet> = lists
                .iter()
                .map(|l| SegmentedSet::build(l, &p).unwrap())
                .collect();
            let set_refs: Vec<&SegmentedSet> = sets.iter().collect();
            let got = kway_intersect(&set_refs);
            assert_eq!(got, refs_sorted, "k={k}");
            assert_eq!(got.len(), kway_count(&set_refs), "k={k}");
        }
    }

    #[test]
    fn kway_union_matches_reference() {
        let p = FesiaParams::auto();
        for k in [1usize, 2, 3, 5] {
            let lists: Vec<Vec<u32>> = (0..k as u64)
                .map(|s| gen_sorted(800, 61 + s, 6_000))
                .collect();
            let mut want: Vec<u32> = lists.iter().flatten().copied().collect();
            want.sort_unstable();
            want.dedup();
            let sets: Vec<SegmentedSet> = lists
                .iter()
                .map(|l| SegmentedSet::build(l, &p).unwrap())
                .collect();
            let set_refs: Vec<&SegmentedSet> = sets.iter().collect();
            assert_eq!(kway_union(&set_refs), want, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "zero sets")]
    fn kway_union_empty_input_panics() {
        let _ = kway_union(&[]);
    }

    #[test]
    fn contains_sorted_basics() {
        assert!(contains_sorted(&[1, 3, 5], 3));
        assert!(!contains_sorted(&[1, 3, 5], 4));
        assert!(!contains_sorted(&[], 1));
        assert!(contains_sorted(&[7], 7));
    }
}
