//! The two-phase online intersection (paper §III-C, Algorithm 1) and the
//! strategy selection for skewed inputs (§VI).

use crate::kernels::KernelTable;
use crate::plan::{IntersectPlan, IntersectPlanner, SetSummary, ThresholdPlan};
use crate::set::SegmentedSet;
use fesia_simd::mask::{for_each_nonzero_lane, for_each_nonzero_lane_folded, LaneWidth};
use fesia_simd::prefetch::prefetch_read;
use fesia_simd::timer::CycleTimer;
use fesia_simd::SimdLevel;
use std::cell::RefCell;
use std::sync::OnceLock;

/// The process-wide default kernel table (widest ISA, full table).
pub fn default_table() -> &'static KernelTable {
    static TABLE: OnceLock<KernelTable> = OnceLock::new();
    TABLE.get_or_init(KernelTable::auto)
}

thread_local! {
    /// Per-thread survivor buffer reused across every threshold
    /// (early-exit) merge this thread runs — the batch layer gets cross-pair reuse for free
    /// because a pool worker keeps its thread alive.
    static SURVIVOR_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

pub(crate) fn check_compatible(a: &SegmentedSet, b: &SegmentedSet) {
    assert_eq!(
        a.lane(),
        b.lane(),
        "sets must be built with the same segment width to be intersected"
    );
}

/// |A ∩ B| via FESIA's two-phase algorithm with an explicit kernel table.
///
/// Phase 1 ANDs the bitmaps at `table.level()` width and extracts non-zero
/// segments; phase 2 dispatches each surviving segment pair to a
/// specialized kernel. Bitmaps of different sizes fold onto one another
/// (segment `i` of the larger pairs with `i mod N2` of the smaller).
///
/// The two phases run interleaved: each surviving segment's kernel is
/// dispatched the moment phase 1 finds it. When both sides carry dense
/// container directories, the container plan runs instead. Both forms
/// count identically.
pub fn intersect_count_with(a: &SegmentedSet, b: &SegmentedSet, table: &KernelTable) -> usize {
    let plan = IntersectPlanner::current().plan_merge(&SetSummary::of(a), &SetSummary::of(b));
    execute_plan_count(a, b, table, plan)
}

/// Execute an explicit [`IntersectPlan`] on a pair, recording the same
/// per-form metrics the adaptive dispatcher always recorded plus the
/// `plan_*` decision counters. All plans return the identical count.
pub fn execute_plan_count(
    a: &SegmentedSet,
    b: &SegmentedSet,
    table: &KernelTable,
    plan: IntersectPlan,
) -> usize {
    let m = fesia_obs::metrics();
    match plan {
        IntersectPlan::Container => {
            m.plan_container.inc();
            // The planner only picks this plan when both sides report a
            // container directory; an explicit plan on directory-less
            // sets falls back to the interleaved form rather than
            // failing.
            let (Some(ca), Some(cb)) = (a.container(), b.container()) else {
                return intersect_count_interleaved_with(a, b, table);
            };
            let sampled = m.intersect_container.inc() & fesia_obs::SAMPLE_MASK == 0;
            let timer = sampled.then(CycleTimer::start);
            let n = crate::container::intersect_count(ca, cb, table.level());
            if let Some(t) = timer {
                m.intersect_cycles.record(t.elapsed_cycles());
            }
            n
        }
        IntersectPlan::Plain => {
            m.plan_plain.inc();
            let sampled = m.intersect_interleaved.inc() & fesia_obs::SAMPLE_MASK == 0;
            let timer = sampled.then(CycleTimer::start);
            let n = intersect_count_interleaved_with(a, b, table);
            if let Some(t) = timer {
                m.intersect_cycles.record(t.elapsed_cycles());
            }
            n
        }
        IntersectPlan::HashProbe => {
            m.plan_hash.inc();
            let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            m.hash_probe_elements.add(small.len() as u64);
            hash_probe_count(small.reordered_elements(), large)
        }
    }
}

/// [`intersect_count_with`] in the interleaved form: each surviving
/// segment's kernel is dispatched the instant phase 1 finds it. This is
/// the seed's fused loop.
pub fn intersect_count_interleaved_with(
    a: &SegmentedSet,
    b: &SegmentedSet,
    table: &KernelTable,
) -> usize {
    check_compatible(a, b);
    let level = table.level();
    let lane = a.lane();
    let mut count = 0u64;
    if a.bitmap_bits() == b.bitmap_bits() {
        for_each_nonzero_lane(level, lane, a.bitmap_bytes(), b.bitmap_bytes(), |i| {
            // SAFETY: segment pointers carry PAD_LEN over-read slack and the
            // segmented layout upholds the kernel over-read contract.
            count +=
                unsafe { table.count(a.seg_ptr(i), a.seg_size(i), b.seg_ptr(i), b.seg_size(i)) }
                    as u64;
        });
    } else {
        let (large, small) = if a.bitmap_bits() > b.bitmap_bits() {
            (a, b)
        } else {
            (b, a)
        };
        let seg_mask = small.num_segments() - 1;
        for_each_nonzero_lane_folded(
            level,
            lane,
            large.bitmap_bytes(),
            small.bitmap_bytes(),
            |i| {
                let j = i & seg_mask;
                // SAFETY: as above. The folded dispatch keeps the contract:
                // it never block-loads the large side (whose over-read may
                // span a whole period of the small bitmap), and small-side
                // over-read elements belong to different folded segments.
                count += unsafe {
                    table.count_folded(
                        large.seg_ptr(i),
                        large.seg_size(i),
                        small.seg_ptr(j),
                        small.seg_size(j),
                    )
                } as u64;
            },
        );
    }
    count as usize
}

// ---------------------------------------------------------------------------
// Shared survivor-scan engine. The breakdown instrumentation and the
// threshold (early-exit) forms both run phase 1 "collect survivors" and
// phase 2 "sweep the list" explicitly; these helpers keep them to one
// body per phase.
// ---------------------------------------------------------------------------

/// Order a pair for an explicit-survivor form: `(x, y, folded)` with `x`
/// the larger-bitmap side when the pair folds.
pub(crate) fn order_sides<'a>(
    a: &'a SegmentedSet,
    b: &'a SegmentedSet,
) -> (&'a SegmentedSet, &'a SegmentedSet, bool) {
    let folded = a.bitmap_bits() != b.bitmap_bits();
    if !folded || a.bitmap_bits() > b.bitmap_bits() {
        (a, b, folded)
    } else {
        (b, a, folded)
    }
}

/// Phase 1 of every explicit-survivor form: visit the surviving segment
/// indices of `x ∩ y`.
pub(crate) fn scan_survivors<F: FnMut(usize)>(
    level: SimdLevel,
    lane: LaneWidth,
    x: &SegmentedSet,
    y: &SegmentedSet,
    folded: bool,
    f: F,
) {
    if folded {
        for_each_nonzero_lane_folded(level, lane, x.bitmap_bytes(), y.bitmap_bytes(), f);
    } else {
        for_each_nonzero_lane(level, lane, x.bitmap_bytes(), y.bitmap_bytes(), f);
    }
}

/// Phase 2's per-pair kernel dispatch.
#[inline(always)]
fn count_raw_pair(
    x: &SegmentedSet,
    y: &SegmentedSet,
    table: &KernelTable,
    folded: bool,
    i: usize,
    j: usize,
) -> u32 {
    // SAFETY: segment pointers carry PAD_LEN over-read slack and the
    // segmented layout upholds the kernel (folded) over-read contract.
    unsafe {
        if folded {
            table.count_folded(x.seg_ptr(i), x.seg_size(i), y.seg_ptr(j), y.seg_size(j))
        } else {
            table.count(x.seg_ptr(i), x.seg_size(i), y.seg_ptr(j), y.seg_size(j))
        }
    }
}

// ---------------------------------------------------------------------------
// Threshold-aware (early-exit) counting: the kernels behind the
// similarity-join filter cascade (see `crate::simjoin`).
// ---------------------------------------------------------------------------

/// Does |A ∩ B| reach `threshold`? Early-exits in both directions: on
/// success the sweep stops the moment the running count reaches
/// `threshold`, on failure the moment the residual upper bound
/// (matched-so-far plus what the unswept remainder could still
/// contribute) drops below it.
///
/// ```
/// use fesia_core::{intersect_count_at_least, FesiaParams, SegmentedSet};
/// let p = FesiaParams::auto();
/// let a = SegmentedSet::build(&[1, 5, 9, 12], &p).unwrap();
/// let b = SegmentedSet::build(&[5, 9, 20], &p).unwrap();
/// assert!(intersect_count_at_least(&a, &b, 2));
/// assert!(!intersect_count_at_least(&a, &b, 3));
/// ```
pub fn intersect_count_at_least(a: &SegmentedSet, b: &SegmentedSet, threshold: usize) -> bool {
    let (sa, sb) = (SetSummary::of(a), SetSummary::of(b));
    match IntersectPlanner::current().plan_pair_threshold(&sa, &sb, threshold) {
        ThresholdPlan::TrivialAccept => true,
        ThresholdPlan::TrivialReject => false,
        ThresholdPlan::Run(plan) => {
            execute_plan_count_bounded(a, b, default_table(), plan, threshold as u64, true)
                .is_some()
        }
    }
}

/// `Some(|A ∩ B|)` if the intersection reaches `threshold`, else `None`
/// — the similarity-join cascade's early-exit counting kernel, against
/// an explicit table and planner. `Some(n)` implies `n == |A ∩ B|` and
/// `n >= threshold`; `None` implies `|A ∩ B| < threshold`. A zero
/// threshold always returns the exact count (the residual-bound check
/// can never fire), so `intersect_count_bounded_planned(a, b, table,
/// planner, 0)` is a drop-in for the unbounded count. The planner's
/// threshold term resolves trivial pairs first: `threshold > min(|A|,
/// |B|)` rejects with no work at all.
pub fn intersect_count_bounded_planned(
    a: &SegmentedSet,
    b: &SegmentedSet,
    table: &KernelTable,
    planner: &IntersectPlanner,
    threshold: usize,
) -> Option<usize> {
    let (sa, sb) = (SetSummary::of(a), SetSummary::of(b));
    match planner.plan_pair_threshold(&sa, &sb, threshold) {
        ThresholdPlan::TrivialAccept => {
            Some(execute_plan_count(a, b, table, planner.plan_pair(&sa, &sb)))
        }
        ThresholdPlan::TrivialReject => None,
        ThresholdPlan::Run(plan) => {
            execute_plan_count_bounded(a, b, table, plan, threshold as u64, false)
                .map(|n| n as usize)
        }
    }
}

/// Execute an [`IntersectPlan`] with threshold-aware early exit.
///
/// `Some(count)` means the threshold was met (`count` is the exact
/// intersection size unless `accept_early`, in which case it is merely
/// `>= threshold`); `None` means |A ∩ B| < `threshold`, established with
/// as little of the sweep as the residual bound allowed. Every plan
/// shape short-circuits: the merge family via the per-survivor budget,
/// the container plan via per-range cardinalities, and the hash probe
/// via the remaining-element count.
fn execute_plan_count_bounded(
    a: &SegmentedSet,
    b: &SegmentedSet,
    table: &KernelTable,
    plan: IntersectPlan,
    threshold: u64,
    accept_early: bool,
) -> Option<u64> {
    let m = fesia_obs::metrics();
    match plan {
        IntersectPlan::Plain => {
            m.plan_plain.inc();
            bounded_merge(a, b, table, threshold, accept_early)
        }
        IntersectPlan::Container => {
            m.plan_container.inc();
            let (Some(ca), Some(cb)) = (a.container(), b.container()) else {
                return bounded_merge(a, b, table, threshold, accept_early);
            };
            crate::container::and_total_bounded(ca, cb, table.level(), threshold, accept_early)
        }
        IntersectPlan::HashProbe => {
            m.plan_hash.inc();
            let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            bounded_probe(
                small.reordered_elements().iter().copied(),
                small.len(),
                |x| large.contains(x),
                threshold,
                accept_early,
            )
        }
    }
}

/// Merge-family early exit. Phase 1 collects survivors and their total
/// budget `Σ min(|seg_x|, |seg_y|)` — a sound bound because a zero AND
/// lane implies an empty segment intersection, so only survivors can
/// contribute, each at most its smaller side's population. A budget
/// already below the threshold rejects with zero segment compares.
/// Phase 2 sweeps under the invariant `count + budget >= threshold`,
/// aborting the moment it breaks; the budget is zero when the sweep
/// completes, so completion itself proves `count >= threshold`.
fn bounded_merge(
    a: &SegmentedSet,
    b: &SegmentedSet,
    table: &KernelTable,
    threshold: u64,
    accept_early: bool,
) -> Option<u64> {
    check_compatible(a, b);
    let m = fesia_obs::metrics();
    let (x, y, folded) = order_sides(a, b);
    let seg_mask = y.num_segments() - 1;
    SURVIVOR_SCRATCH.with(|s| {
        let mut scratch = s.borrow_mut();
        if scratch.capacity() != 0 {
            m.scratch_reused.inc();
        }
        scratch.clear();
        let mut budget = 0u64;
        {
            let scratch = &mut *scratch;
            scan_survivors(table.level(), a.lane(), x, y, folded, |i| {
                budget += x.seg_size(i).min(y.seg_size(i & seg_mask)) as u64;
                scratch.push(i as u32);
            });
        }
        m.survivor_segments.add(scratch.len() as u64);
        if budget < threshold {
            return None;
        }
        let mut count = 0u64;
        for &i in scratch.iter() {
            let i = i as usize;
            let j = i & seg_mask;
            budget -= x.seg_size(i).min(y.seg_size(j)) as u64;
            count += u64::from(count_raw_pair(x, y, table, folded, i, j));
            if accept_early && count >= threshold {
                return Some(count);
            }
            if count + budget < threshold {
                return None;
            }
        }
        Some(count)
    })
}

/// Probe-style early exit for the hash plan: `n` candidate elements
/// tested one at a time, with the residual bound
/// `count + remaining`. Completion implies `count >= threshold` (the
/// final iteration's bound is `count` itself).
fn bounded_probe<I: Iterator<Item = u32>, F: FnMut(u32) -> bool>(
    elems: I,
    n: usize,
    mut hit: F,
    threshold: u64,
    accept_early: bool,
) -> Option<u64> {
    if (n as u64) < threshold {
        return None;
    }
    let mut count = 0u64;
    for (idx, x) in elems.enumerate() {
        if hit(x) {
            count += 1;
            if accept_early && count >= threshold {
                return Some(count);
            }
        }
        if count + ((n - idx - 1) as u64) < threshold {
            return None;
        }
    }
    Some(count)
}

/// |A ∩ B| with the process-default kernel table (widest available ISA).
///
/// ```
/// use fesia_core::{FesiaParams, SegmentedSet};
/// let p = FesiaParams::auto();
/// let a = SegmentedSet::build(&[1, 5, 9, 12], &p).unwrap();
/// let b = SegmentedSet::build(&[5, 9, 20], &p).unwrap();
/// assert_eq!(fesia_core::intersect_count(&a, &b), 2);
/// ```
pub fn intersect_count(a: &SegmentedSet, b: &SegmentedSet) -> usize {
    intersect_count_with(a, b, default_table())
}

/// Materialize `A ∩ B`, sorted ascending.
///
/// FESIA discovers matches in segment (hash) order; the small result is
/// sorted before returning. This is the materializing face of the same
/// planner that drives [`auto_count`]: the pair is costed by
/// [`IntersectPlanner::plan_pair`] and executed through the visitor
/// kernels ([`crate::kernels::visit`]), so the hash probe and the
/// container plan apply here too.
pub fn intersect(a: &SegmentedSet, b: &SegmentedSet) -> Vec<u32> {
    crate::algebra::intersect(a, b)
}

/// `FESIAhash` (paper §VI, "Input with dramatically different sizes"):
/// probe each element of `probe` against `target`'s bitmap, comparing
/// against the segment list only when the bit is set. `O(|probe|)`.
///
/// This pair count keeps the hashed lookup even for targets whose
/// container tier would answer [`SegmentedSet::contains`]: the graph
/// workloads probe a few hot hub lists millions of times, and there the
/// tier lookup measured 9–18% slower end to end (DESIGN.md §5h).
///
/// ```
/// use fesia_core::{FesiaParams, SegmentedSet};
/// let big = SegmentedSet::build(&(0..10_000).collect::<Vec<_>>(), &FesiaParams::auto()).unwrap();
/// assert_eq!(fesia_core::hash_probe_count(&[3, 9_999, 50_000], &big), 2);
/// ```
pub fn hash_probe_count(probe: &[u32], target: &SegmentedSet) -> usize {
    if probe.len() < GROUPED_PROBE_MIN {
        return probe.iter().filter(|&&x| target.contains_hashed(x)).count();
    }
    probe
        .chunks(PROBE_GROUP)
        .map(|group| probe_group(group, target))
        .sum()
}

/// Probe lists at least this long run in prefetched groups; shorter
/// ones keep the one-at-a-time loop, whose first miss a group could
/// not hide anyway.
const GROUPED_PROBE_MIN: usize = 8;

/// Probes per group: enough independent bitmap misses in flight to
/// overlap, few enough for the positions to stay in registers.
const PROBE_GROUP: usize = 16;

/// Count the members of one group of at most [`PROBE_GROUP`] probes in
/// three passes, so each pass's loads are independent and their misses
/// overlap: hash every probe and prefetch its bitmap byte; test the bits
/// and prefetch the segment metadata of the hits; search the hit
/// segments.
fn probe_group(group: &[u32], target: &SegmentedSet) -> usize {
    debug_assert!(group.len() <= PROBE_GROUP);
    let bitmap = target.bitmap_bytes();
    let log2_m = target.log2_m();
    let seg_bits = target.lane().bits();
    let mut pos = [0usize; PROBE_GROUP];
    for (p, &x) in pos.iter_mut().zip(group) {
        *p = crate::hash::position(x, log2_m);
        prefetch_read(&bitmap[*p / 8]);
    }
    let mut hits = [0u8; PROBE_GROUP];
    let mut n_hits = 0usize;
    for (k, (&x, &p)) in group.iter().zip(&pos).enumerate() {
        if x <= crate::error::MAX_ELEMENT && bitmap[p / 8] & (1 << (p % 8)) != 0 {
            target.prefetch_seg_entry(p / seg_bits);
            hits[n_hits] = k as u8;
            n_hits += 1;
        }
    }
    hits[..n_hits]
        .iter()
        .filter(|&&k| {
            let k = k as usize;
            target
                .segment(pos[k] / seg_bits)
                .binary_search(&group[k])
                .is_ok()
        })
        .count()
}

/// Ratio of set sizes below which [`auto_count`] switches from the merge
/// strategy to hash probing (the crossover Fig. 11 locates near `1/4`).
pub const SKEW_HASH_THRESHOLD: f64 = 0.25;

/// |A ∩ B| with automatic strategy selection (paper Fig. 11): the two-phase
/// merge algorithm for comparable sizes, hash probing of the smaller set's
/// elements when the skew `min(n1,n2) / max(n1,n2)` falls below
/// [`SKEW_HASH_THRESHOLD`].
pub fn auto_count(a: &SegmentedSet, b: &SegmentedSet) -> usize {
    auto_count_with(a, b, default_table())
}

/// [`auto_count`] with an explicit kernel table for the merge strategy.
///
/// Measured note: probing element-by-element is *not* profitable merely
/// because both sets are tiny — with the minimum 512-bit bitmap, the merge
/// path touches a single cache line per side and ties the probe path — so
/// the switch follows the paper's size-*ratio* rule only.
pub fn auto_count_with(a: &SegmentedSet, b: &SegmentedSet, table: &KernelTable) -> usize {
    let planner = IntersectPlanner::current();
    auto_count_planned(a, b, table, &planner)
}

/// [`auto_count`] against an explicit planner: the full-family
/// entry point every adaptive call site (pairwise, batch, parallel,
/// dynamic, k-way two-set case, graph) routes through. Exactly one of
/// `strategy_hash` / `strategy_merge` is recorded per call (hash for the
/// probe plan, merge for everything else), so the strategy counters keep
/// summing to the pair count.
pub fn auto_count_planned(
    a: &SegmentedSet,
    b: &SegmentedSet,
    table: &KernelTable,
    planner: &IntersectPlanner,
) -> usize {
    let m = fesia_obs::metrics();
    let plan = planner.plan_pair(&SetSummary::of(a), &SetSummary::of(b));
    match plan {
        IntersectPlan::HashProbe => m.strategy_hash.inc(),
        _ => m.strategy_merge.inc(),
    };
    execute_plan_count(a, b, table, plan)
}

/// Per-phase timing of one intersection (paper Fig. 14's breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Breakdown {
    /// Cycles spent in phase 1 (bitmap AND + non-zero segment extraction).
    pub step1_cycles: u64,
    /// Cycles spent in phase 2 (specialized kernels on surviving segments).
    pub step2_cycles: u64,
    /// Number of segment pairs that survived the bitmap filter.
    pub matched_segments: usize,
    /// The intersection size.
    pub count: usize,
}

/// Run one intersection with per-phase timing. Phase 1 materializes the
/// surviving segment list (as Algorithm 1 is written), so its cost is
/// directly observable; the fused production path
/// ([`intersect_count_with`]) avoids that buffer.
pub fn intersect_count_breakdown(
    a: &SegmentedSet,
    b: &SegmentedSet,
    table: &KernelTable,
) -> Breakdown {
    check_compatible(a, b);
    let (x, y, folded) = order_sides(a, b);

    let t1 = CycleTimer::start();
    let mut pairs: Vec<u32> = Vec::new();
    scan_survivors(table.level(), a.lane(), x, y, folded, |i| {
        pairs.push(i as u32)
    });
    let step1_cycles = t1.elapsed_cycles();

    let seg_mask = y.num_segments() - 1;
    let t2 = CycleTimer::start();
    let mut count = 0u64;
    for &i in &pairs {
        let i = i as usize;
        count += u64::from(count_raw_pair(x, y, table, folded, i, i & seg_mask));
    }
    let step2_cycles = t2.elapsed_cycles();

    Breakdown {
        step1_cycles,
        step2_cycles,
        matched_segments: pairs.len(),
        count: count as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FesiaParams;
    use fesia_simd::SimdLevel;

    fn reference(a: &[u32], b: &[u32]) -> Vec<u32> {
        let bs: std::collections::HashSet<u32> = b.iter().copied().collect();
        let mut v: Vec<u32> = a.iter().copied().filter(|x| bs.contains(x)).collect();
        v.sort_unstable();
        v
    }

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
    fn paper_example_counts_one() {
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&[1, 4, 15, 21, 32, 34], &p).unwrap();
        let b = SegmentedSet::build(&[2, 6, 12, 16, 21, 23], &p).unwrap();
        assert_eq!(intersect_count(&a, &b), 1);
        assert_eq!(intersect(&a, &b), vec![21]);
    }

    #[test]
    fn all_levels_and_strides_agree_with_reference() {
        let av = gen_sorted(5_000, 42, 100_000);
        let bv = gen_sorted(5_000, 99, 100_000);
        let want = reference(&av, &bv);
        for level in SimdLevel::available_levels() {
            let p = FesiaParams::for_level(level);
            let a = SegmentedSet::build(&av, &p).unwrap();
            let b = SegmentedSet::build(&bv, &p).unwrap();
            for stride in [1usize, 2, 4, 8] {
                let table = KernelTable::new(level, stride);
                assert_eq!(
                    intersect_count_with(&a, &b, &table),
                    want.len(),
                    "level={level} stride={stride}"
                );
            }
        }
    }

    #[test]
    fn materialize_matches_reference() {
        let av = gen_sorted(2_000, 7, 50_000);
        let bv = gen_sorted(3_000, 13, 50_000);
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        assert_eq!(intersect(&a, &b), reference(&av, &bv));
    }

    #[test]
    fn folded_bitmap_sizes_work() {
        // Very different sizes -> different bitmap sizes -> folded path.
        let av = gen_sorted(100, 5, 1_000_000);
        let bv = gen_sorted(50_000, 11, 1_000_000);
        let want = reference(&av, &bv);
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        assert_ne!(a.bitmap_bits(), b.bitmap_bits());
        assert_eq!(intersect_count(&a, &b), want.len());
        assert_eq!(intersect_count(&b, &a), want.len());
        assert_eq!(intersect(&a, &b), want);
    }

    #[test]
    fn hash_probe_matches_merge() {
        let av = gen_sorted(200, 3, 500_000);
        let bv = gen_sorted(20_000, 17, 500_000);
        let want = reference(&av, &bv).len();
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        assert_eq!(hash_probe_count(&av, &b), want);
        assert_eq!(auto_count(&a, &b), want);
        assert_eq!(auto_count(&b, &a), want);
    }

    /// The grouped probe (8 or more probes) must agree with a set oracle
    /// at every group edge, including probes above `MAX_ELEMENT`, which
    /// are never members.
    #[test]
    fn grouped_hash_probe_matches_the_oracle_at_every_group_edge() {
        use crate::error::MAX_ELEMENT;
        let p = FesiaParams::auto();
        let targets: Vec<Vec<u32>> = vec![
            vec![],
            vec![3, 9, 27],
            gen_sorted(300, 5, 4_000),
            gen_sorted(20_000, 19, 1_000_000),
            (0..5_000).collect(),
            vec![0, 1, MAX_ELEMENT - 1, MAX_ELEMENT],
        ];
        let wide = FesiaParams {
            segment: LaneWidth::U16,
            ..p
        };
        let mut state = 0x9E37_79B9u32;
        for (tv, params) in targets.iter().flat_map(|t| [(t, p), (t, wide)]) {
            let t = SegmentedSet::build(tv, &params).unwrap();
            let oracle: std::collections::HashSet<u32> = tv.iter().copied().collect();
            for len in [0usize, 1, 7, 8, 15, 16, 17, 33] {
                let probe: Vec<u32> = (0..len)
                    .map(|i| {
                        state ^= state << 13;
                        state ^= state >> 17;
                        state ^= state << 5;
                        match i % 5 {
                            // a member, when the target has any
                            0 if !tv.is_empty() => tv[state as usize % tv.len()],
                            // above the element domain
                            1 => MAX_ELEMENT + 1 + state % 2,
                            _ => state % 1_000_000,
                        }
                    })
                    .collect();
                let want = probe.iter().filter(|x| oracle.contains(x)).count();
                assert_eq!(
                    hash_probe_count(&probe, &t),
                    want,
                    "target len {} lane {:?} probe len {len}",
                    tv.len(),
                    params.segment
                );
            }
        }
    }

    #[test]
    fn empty_and_disjoint_sets() {
        let p = FesiaParams::auto();
        let e = SegmentedSet::build(&[], &p).unwrap();
        let a = SegmentedSet::build(&[1, 2, 3], &p).unwrap();
        let b = SegmentedSet::build(&[4, 5, 6], &p).unwrap();
        assert_eq!(intersect_count(&e, &a), 0);
        assert_eq!(intersect_count(&a, &e), 0);
        assert_eq!(intersect_count(&a, &b), 0);
        assert_eq!(auto_count(&e, &a), 0);
        assert!(intersect(&a, &b).is_empty());
    }

    #[test]
    fn identical_sets_count_everything() {
        let v = gen_sorted(1_000, 21, 10_000);
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&v, &p).unwrap();
        let b = SegmentedSet::build(&v, &p).unwrap();
        assert_eq!(intersect_count(&a, &b), v.len());
        assert_eq!(intersect(&a, &b), v);
    }

    #[test]
    fn breakdown_is_consistent() {
        let av = gen_sorted(4_000, 31, 60_000);
        let bv = gen_sorted(4_000, 37, 60_000);
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        let table = KernelTable::auto();
        let bd = intersect_count_breakdown(&a, &b, &table);
        assert_eq!(bd.count, reference(&av, &bv).len());
        assert!(bd.matched_segments >= bd.count);
        // True matches always survive the filter.
        assert!(bd.matched_segments <= a.num_segments());
    }

    #[test]
    fn dense_collision_segments_still_correct() {
        // Tiny bitmap -> many collisions per segment -> exercises the
        // large-by-large kernels and the merge fallback.
        let av = gen_sorted(3_000, 51, 30_000);
        let bv = gen_sorted(3_000, 53, 30_000);
        let want = reference(&av, &bv).len();
        let p = FesiaParams::auto().with_bits_per_element(0.5);
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        for level in SimdLevel::available_levels() {
            for stride in [1usize, 4] {
                let table = KernelTable::new(level, stride);
                assert_eq!(
                    intersect_count_with(&a, &b, &table),
                    want,
                    "level={level} stride={stride}"
                );
            }
        }
    }

    /// Regression: folded intersection must never block-load the large
    /// side. With sparse segments, a 16-lane load from the large set can
    /// span more than one full period of a 512-bit small bitmap and reach
    /// an element that folds back into the probed segment — a value that
    /// legitimately occurs in both sets' *other* segments and must not be
    /// counted here. Inputs are a real adjacency-list pair (RMAT graph)
    /// that produced `got = 3, want = 2` before the fix.
    #[test]
    fn folded_overread_cannot_double_count() {
        let nu: Vec<u32> = vec![
            258, 288, 546, 568, 656, 672, 832, 1024, 1032, 1296, 4132, 6144,
        ];
        let nv: Vec<u32> = vec![
            0, 1, 2, 4, 8, 10, 16, 17, 24, 25, 32, 40, 48, 64, 65, 82, 104, 130, 264, 272, 290,
            386, 512, 515, 548, 576, 896, 1024, 1025, 1026, 1032, 1040, 1184, 1282, 2052, 2065,
            2072, 2081, 2096, 2144, 2176, 2368, 2560, 2562, 2568, 2576, 3584, 4098, 4112, 4128,
            4384, 4612, 5121, 5632,
        ];
        let want = reference(&nu, &nv).len();
        assert_eq!(want, 2); // {1024, 1032}
        for level in SimdLevel::available_levels() {
            // AVX-512 sizing (m = 22.6 bits/element) reproduces the original
            // 512- vs 2048-bit bitmap pair regardless of the scan level.
            let params = FesiaParams::for_level(SimdLevel::Avx512);
            let a = SegmentedSet::build(&nu, &params).unwrap();
            let b = SegmentedSet::build(&nv, &params).unwrap();
            assert_ne!(
                a.bitmap_bits(),
                b.bitmap_bits(),
                "must exercise the folded path"
            );
            for stride in [1usize, 2, 4, 8] {
                let table = KernelTable::new(level, stride);
                assert_eq!(
                    intersect_count_with(&a, &b, &table),
                    want,
                    "level={level} stride={stride}"
                );
                assert_eq!(
                    intersect_count_with(&b, &a, &table),
                    want,
                    "level={level} stride={stride} swapped"
                );
                let bd = intersect_count_breakdown(&a, &b, &table);
                assert_eq!(bd.count, want, "breakdown level={level} stride={stride}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "segment width")]
    fn mixed_lane_widths_panic() {
        use fesia_simd::mask::LaneWidth;
        let a = SegmentedSet::build(&[1, 2], &FesiaParams::auto()).unwrap();
        let b = SegmentedSet::build(&[1, 2], &FesiaParams::auto().with_segment(LaneWidth::U16))
            .unwrap();
        let _ = intersect_count(&a, &b);
    }

    /// `execute_plan_count_bounded` as the planned entry points call it:
    /// `(bounded, at_least)` for one explicit plan.
    fn bounded_pair(
        a: &SegmentedSet,
        b: &SegmentedSet,
        table: &KernelTable,
        plan: IntersectPlan,
        t: usize,
    ) -> (Option<usize>, bool) {
        (
            execute_plan_count_bounded(a, b, table, plan, t as u64, false).map(|n| n as usize),
            execute_plan_count_bounded(a, b, table, plan, t as u64, true).is_some(),
        )
    }

    const PLANS: [IntersectPlan; 3] = [
        IntersectPlan::Plain,
        IntersectPlan::HashProbe,
        IntersectPlan::Container,
    ];

    /// The threshold kernels' contract, under every explicit plan and
    /// the planner's own choice: for any pair and any threshold `t`,
    /// the bounded count returns `Some(exact)` exactly when
    /// `exact >= t` or `t == 0`, and the at-least form returns
    /// `exact >= t` — including the hostile thresholds 0, 1, `exact ± 1`,
    /// and past the smaller side. `Container` on a pair without two
    /// tiers runs its merge fallback.
    #[test]
    fn threshold_kernels_agree_with_exact_on_every_explicit_plan() {
        let random_a = gen_sorted(3_000, 42, 60_000);
        let random_b = gen_sorted(3_000, 99, 60_000);
        let folded_small = gen_sorted(300, 5, 1_000_000);
        let folded_big = gen_sorted(20_000, 11, 1_000_000);
        let skew_small = gen_sorted(64, 21, 1 << 20);
        let skew_big = gen_sorted(20_000, 23, 1 << 20);
        let identical = gen_sorted(1_000, 7, 50_000);
        let disjoint_a: Vec<u32> = (0..1_000u32).map(|i| i * 2).collect();
        let disjoint_b: Vec<u32> = (0..1_000u32).map(|i| i * 2 + 1).collect();
        let empty: Vec<u32> = Vec::new();
        let cases: Vec<(&str, &[u32], &[u32])> = vec![
            ("random", &random_a, &random_b),
            ("folded", &folded_small, &folded_big),
            ("skewed", &skew_small, &skew_big),
            ("identical", &identical, &identical),
            ("disjoint", &disjoint_a, &disjoint_b),
            ("empty", &empty, &random_a),
        ];
        let p = FesiaParams::auto();
        let table = KernelTable::auto();
        let planner = IntersectPlanner::current();
        for (name, av, bv) in &cases {
            let a = SegmentedSet::build(av, &p).unwrap();
            let b = SegmentedSet::build(bv, &p).unwrap();
            let want = reference(av, bv).len();
            let min_len = av.len().min(bv.len());
            for t in [
                0,
                1,
                want.saturating_sub(1),
                want,
                want + 1,
                min_len,
                min_len + 1,
                min_len * 2 + 3,
            ] {
                let expect = (t == 0 || want >= t).then_some(want);
                for plan in PLANS {
                    assert_eq!(
                        bounded_pair(&a, &b, &table, plan, t),
                        (expect, want >= t),
                        "plan={plan:?} case={name} t={t}"
                    );
                    // Symmetry: the kernels order sides internally.
                    assert_eq!(
                        bounded_pair(&b, &a, &table, plan, t).0,
                        expect,
                        "plan={plan:?} case={name} t={t} swapped"
                    );
                }
                // The planned entry points, trivial accept and reject
                // included.
                assert_eq!(
                    intersect_count_bounded_planned(&a, &b, &table, &planner, t),
                    expect,
                    "planned case={name} t={t}"
                );
                assert_eq!(
                    intersect_count_at_least(&a, &b, t),
                    want >= t,
                    "planned case={name} t={t}"
                );
            }
        }
    }

    /// Same contract over the container tier itself: the bounded sweep
    /// runs the tier path rather than the raw segment kernels, on a
    /// run-heavy pair and on an array-heavy pair the planner declines.
    #[test]
    fn threshold_kernels_agree_on_the_explicit_container_tier() {
        let p = FesiaParams::auto();
        let table = KernelTable::auto();
        let planner = IntersectPlanner::current();

        // Run-heavy value domains, and uniform-sparse ones whose tiers
        // are all arrays.
        let run_a: Vec<u32> = (0..6_000u32).collect();
        let run_b: Vec<u32> = (3_000..9_000u32).collect();
        let sparse_a = gen_sorted(20_000, 31, 1 << 26);
        let sparse_b = gen_sorted(20_000, 37, 1 << 26);
        for (name, av, bv) in [("runs", &run_a, &run_b), ("arrays", &sparse_a, &sparse_b)] {
            let ca = SegmentedSet::build(av, &p).unwrap();
            let cb = SegmentedSet::build(bv, &p).unwrap();
            assert!(ca.container().is_some() && cb.container().is_some());
            if name == "arrays" {
                let (sa, sb) = (SetSummary::of(&ca), SetSummary::of(&cb));
                assert_ne!(planner.plan_pair(&sa, &sb), IntersectPlan::Container);
            }
            let want = reference(av, bv).len();
            for t in [0, 1, want, want + 1, av.len() + 7] {
                let expect = (t == 0 || want >= t).then_some(want);
                assert_eq!(
                    bounded_pair(&ca, &cb, &table, IntersectPlan::Container, t),
                    (expect, want >= t),
                    "{name} t={t}"
                );
            }
        }
    }
}
