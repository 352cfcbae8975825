//! k-way intersection (paper §VI): AND `k` bitmaps, then verify the
//! surviving segments against all `k` element lists.
//!
//! Complexity `O(k·n/sqrt(w) + r)` (Proposition 2): phase 1 is `k - 1`
//! bitwise ANDs folded into a scratch bitmap, phase 2 touches only segments
//! whose `k`-way AND is non-zero — with `k` sets the expected number of
//! false-positive segments drops geometrically (`n^k / m^(k-1)`), which is
//! why Fig. 10's speedups grow with `k`.
//!
//! Divergence note: the paper sketches specialized *k-way kernels* for
//! phase 2; surviving segments hold ~1 element each, so this implementation
//! verifies them with a scalar k-way merge (the asymptotics and the phase-1
//! SIMD structure are unchanged — see DESIGN.md).

use crate::intersect::default_table;
use crate::kernels::KernelTable;
use crate::plan::IntersectPlanner;
use crate::set::SegmentedSet;
use fesia_simd::mask::for_each_nonzero_lane;

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

/// [`kway_count_with`] against an explicit planner snapshot: the planner
/// orders the operands ([`IntersectPlanner::plan_kway`], ascending by
/// length so the most selective sets lead the fold), and the 2-way case
/// gets the full strategy selection through the same snapshot.
///
/// # Panics
/// As [`kway_count_with`].
pub fn kway_count_planned(
    sets: &[&SegmentedSet],
    table: &KernelTable,
    planner: &IntersectPlanner,
) -> usize {
    assert!(!sets.is_empty(), "k-way intersection of zero sets");
    fesia_obs::metrics().kway_calls.inc();
    let lane = sets[0].lane();
    assert!(
        sets.iter().all(|s| s.lane() == lane),
        "sets must be built with the same segment width"
    );
    let lens: Vec<usize> = sets.iter().map(|s| s.len()).collect();
    let ordered: Vec<&SegmentedSet> = planner
        .plan_kway(&lens)
        .order
        .iter()
        .map(|&i| sets[i])
        .collect();
    match ordered.len() {
        1 => return ordered[0].len(),
        // Two sets: delegate to the 2-way machinery with the paper's §VI
        // strategy selection (merge vs hash-probe by size ratio).
        2 => return crate::intersect::auto_count_planned(ordered[0], ordered[1], table, planner),
        _ => {}
    }

    // Phase 1: fold all k bitmaps into a scratch bitmap the size of the
    // largest, ANDing 64-bit words (smaller bitmaps tile larger ones; every
    // bitmap is a power of two of at least 64 bytes, so word indexing folds
    // cleanly). The subsequent non-zero-lane scan reuses the 2-way SIMD
    // machinery by scanning scratch against itself.
    let largest = ordered
        .iter()
        .map(|s| s.bitmap_bytes().len())
        .max()
        .expect("non-empty");
    let mut scratch = vec![0u8; largest];
    {
        let words = largest / 8;
        let read_word = |bytes: &[u8], wi: usize| {
            let off = (wi * 8) & (bytes.len() - 1);
            u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
        };
        let first = ordered[0].bitmap_bytes();
        for wi in 0..words {
            let mut w = read_word(first, wi);
            for s in &ordered[1..] {
                w &= read_word(s.bitmap_bytes(), wi);
            }
            scratch[wi * 8..wi * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
    }

    // Phase 2: k-way verify each surviving segment.
    let largest_set = ordered
        .iter()
        .max_by_key(|s| s.bitmap_bits())
        .expect("non-empty");
    let seg_count_large = largest_set.num_segments();
    let mut count = 0usize;
    for_each_nonzero_lane(table.level(), lane, &scratch, &scratch, |i| {
        debug_assert!(i < seg_count_large);
        count += kway_verify_segment(&ordered, i);
    });
    count
}

/// Count elements common to all k sets within (folded) segment `i`.
///
/// Allocation-free: this runs once per surviving segment, so a heap
/// allocation here would dominate the whole phase.
fn kway_verify_segment(sets: &[&SegmentedSet], i: usize) -> usize {
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
    anchor
        .iter()
        .filter(|&&x| {
            sets.iter().enumerate().all(|(j, s)| {
                j == anchor_idx || contains_sorted(s.segment(i & (s.num_segments() - 1)), x)
            })
        })
        .count()
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

/// Materialize `L1 ∩ … ∩ Lk`, sorted ascending, with an explicit table.
///
/// Same two phases as [`kway_count_with`]; surviving segments emit their
/// common values instead of a count.
///
/// # Panics
/// As [`kway_count_with`].
pub fn kway_intersect_with(sets: &[&SegmentedSet], table: &KernelTable) -> Vec<u32> {
    assert!(!sets.is_empty(), "k-way intersection of zero sets");
    fesia_obs::metrics().kway_calls.inc();
    let lane = sets[0].lane();
    assert!(
        sets.iter().all(|s| s.lane() == lane),
        "sets must be built with the same segment width"
    );
    match sets.len() {
        1 => {
            let mut v = sets[0].reordered_elements().to_vec();
            v.sort_unstable();
            return v;
        }
        2 => return crate::intersect::intersect(sets[0], sets[1]),
        _ => {}
    }
    let largest = sets
        .iter()
        .map(|s| s.bitmap_bytes().len())
        .max()
        .expect("non-empty");
    let mut scratch = vec![0u8; largest];
    {
        let words = largest / 8;
        let read_word = |bytes: &[u8], wi: usize| {
            let off = (wi * 8) & (bytes.len() - 1);
            u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
        };
        let first = sets[0].bitmap_bytes();
        for wi in 0..words {
            let mut w = read_word(first, wi);
            for s in &sets[1..] {
                w &= read_word(s.bitmap_bytes(), wi);
            }
            scratch[wi * 8..wi * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
    }
    let mut out = Vec::new();
    for_each_nonzero_lane(table.level(), lane, &scratch, &scratch, |i| {
        // Anchor on the smallest segment list, verify against the rest.
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
            let everywhere = sets.iter().enumerate().all(|(j, s)| {
                j == anchor_idx || contains_sorted(s.segment(i & (s.num_segments() - 1)), x)
            });
            if everywhere {
                out.push(x);
            }
        }
    });
    out.sort_unstable();
    out
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
/// The two-set case runs the planner-driven [`crate::algebra::union`]
/// (Or-scan or probe per the cost model); larger arities seed
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
        1 => {
            let mut v = sets[0].reordered_elements().to_vec();
            v.sort_unstable();
            return v;
        }
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
