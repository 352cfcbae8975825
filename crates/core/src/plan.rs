//! The `IntersectPlanner`: one cost model behind every intersection
//! entry point.
//!
//! FESIA's value comes from picking the right execution shape per input
//! (paper §IV–VI): the segmented-bitmap two-phase merge for comparable
//! sizes, `FESIAhash` probing for heavy skew and for large sparse pairs,
//! and per-range containers for dense value domains. This module
//! centralizes those choices — Roaring-style dispatch by a simple size
//! and density rule — so every caller
//! (pairwise, batch, parallel, k-way, index, graph) requests an explicit
//! [`IntersectPlan`] from the same selector, and every strategy plugs in
//! at exactly one seam.
//!
//! The planner is a pure function of the operands' [`SetSummary`]s:
//! every threshold is a named constant, and nothing process-wide can
//! override a decision. Every plan decision is recorded in the
//! `fesia-obs` `plan_*` counters.

use crate::params;
use crate::set::SegmentedSet;

/// The explicit execution shape the planner selects for one pair.
///
/// All variants compute the identical count; they differ only in how the
/// two phases are scheduled (and, for [`IntersectPlan::HashProbe`], in
/// skipping phase 1 entirely).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntersectPlan {
    /// Interleaved two-phase scan (kernel dispatched per survivor).
    Plain,
    /// Operate directly on both sides' per-range container directories
    /// ([`crate::ContainerTier`]): dense ranges run 64-bit word kernels
    /// over exact value-domain bitmaps, so — unlike every hashed-bitmap
    /// plan — this shape is sound for all four set operations without
    /// degradation. Both operands must carry a directory.
    Container,
    /// Probe the smaller set's elements against the larger set's bitmap.
    HashProbe,
}

impl IntersectPlan {
    /// Short name for logs, `fesia stats`, and reports.
    pub fn name(&self) -> &'static str {
        match self {
            IntersectPlan::Plain => "plain",
            IntersectPlan::Container => "container",
            IntersectPlan::HashProbe => "hash",
        }
    }
}

/// How a k-way intersection (k ≥ 3) executes; chosen by
/// [`IntersectPlanner::plan_kway`] with the pair rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KwayStrategy {
    /// Check each member of the smallest set against the others
    /// (`FESIAhash` generalized to k sets): the pair skew rule holds
    /// between the smallest and the next set.
    Probe,
    /// AND the operands' container ranges in the value domain and count
    /// the bits: every operand carries a tier and passes the pair
    /// container gate against the smallest.
    Container,
    /// The paper's §VI form: fold all k hashed bitmaps, then verify the
    /// surviving segments.
    Scan,
}

impl KwayStrategy {
    /// Short name for logs, reports, and `repro plan`.
    pub fn name(&self) -> &'static str {
        match self {
            KwayStrategy::Probe => "probe",
            KwayStrategy::Container => "container",
            KwayStrategy::Scan => "scan",
        }
    }

    /// Every strategy, for equivalence sweeps and `repro plan` races.
    pub const ALL: [KwayStrategy; 3] = [
        KwayStrategy::Probe,
        KwayStrategy::Container,
        KwayStrategy::Scan,
    ];
}

/// Multi-set plan: the evaluation order and strategy for a k-way
/// intersection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KwayPlan {
    /// Indices into the caller's set list, ascending by length — the
    /// smallest set leads the bitmap fold and anchors verification, which
    /// bounds both phases by the most selective operand.
    pub order: Vec<usize>,
    /// How the intersection runs (used for k ≥ 3; two sets take the pair
    /// planner, one set is its own answer).
    pub strategy: KwayStrategy,
}

/// The per-set features the cost model consumes — cheap to gather (all
/// cached at build time) and sufficient for every current decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetSummary {
    /// Element count.
    pub len: usize,
    /// Bitmap size in bytes.
    pub bitmap_bytes: usize,
    /// Expected fraction of populated 512-bit bitmap blocks (0.0–1.0),
    /// from the length and the bitmap size
    /// ([`SegmentedSet::summary_density`]).
    pub summary_density: f64,
    /// Fraction of elements living in dense (word-bitmap or run) ranges
    /// of the container directory, when the set carries one — the
    /// container-dispatch signal (both whether the directory exists and
    /// whether word kernels would do most of the work).
    pub container_dense: Option<f64>,
}

impl SetSummary {
    /// Summarize a built set.
    pub fn of(s: &SegmentedSet) -> SetSummary {
        SetSummary {
            len: s.len(),
            bitmap_bytes: s.bitmap_bytes().len(),
            summary_density: s.summary_density(),
            container_dense: s.container_stats().map(|c| c.dense_fraction()),
        }
    }

    /// Size skew `min(n1,n2) / max(n1,n2)` against another set
    /// (1.0 when both are empty).
    pub fn skew(&self, other: &SetSummary) -> f64 {
        let (lo, hi) = if self.len <= other.len {
            (self.len, other.len)
        } else {
            (other.len, self.len)
        };
        if hi == 0 {
            1.0
        } else {
            lo as f64 / hi as f64
        }
    }
}

/// Smallest combined bitmap size (bytes of both operands) at which the
/// planner sends a comparable, sparse pair to the hash probe: 4 MiB, past
/// L2 on every target measured, where streaming the bitmaps stalls.
const SPARSE_MIN_BITMAP_BYTES: usize = 1 << 22;

/// Highest expected share of bitmap blocks populated on both sides, in
/// percent (the product of the two block densities), at which the
/// planner still sends a large pair to the hash probe.
const SPARSE_MAX_OVERLAP_PCT: f64 = 60.0;

/// Smallest combined element count (`|A| + |B|`) at which the planner
/// considers the container plan: 32K, well above the per-set directory
/// build floor, where the directory walk amortizes over real range work.
/// Below it the segmented merge's kernels are cheaper while everything
/// is cache-resident.
const CONTAINER_MIN_ELEMENTS: usize = 1 << 15;

/// Smallest share of elements, in percent, that the *less* dense side
/// must keep in word-op-friendly bitmap or run ranges for the container
/// plan. Below it most matched ranges are array-vs-array merges the
/// segmented kernels already handle better.
const CONTAINER_MIN_DENSE_PCT: f64 = 40.0;

/// Whether the per-range container dispatch should run for a pair with
/// these summaries. Requires both sides to carry a container directory;
/// beyond that it asks two questions: is the pair big enough that the
/// directory walk amortizes (`CONTAINER_MIN_ELEMENTS`), and does the
/// *less* dense side still keep most of its elements in word-op-friendly
/// ranges (`CONTAINER_MIN_DENSE_PCT`)? The minimum (not the average)
/// gates because a matched range pair runs word kernels only when the
/// sparser side's container converts cheaply.
pub fn should_container_summaries(a: &SetSummary, b: &SetSummary) -> bool {
    let (Some(da), Some(db)) = (a.container_dense, b.container_dense) else {
        return false;
    };
    a.len + b.len >= CONTAINER_MIN_ELEMENTS && da.min(db) * 100.0 >= CONTAINER_MIN_DENSE_PCT
}

/// Where the planner's settings come from, for result stamps. Always
/// the same: the planner has no settings, and machine-profile files are
/// no longer read.
pub fn profile_status() -> String {
    "none (fixed planner thresholds)".to_string()
}

// ---------------------------------------------------------------------------
// The planner
// ---------------------------------------------------------------------------

/// The planner. It carries no state: every decision is a function of
/// the operands' summaries alone, so a copy is as good as the original
/// and the per-pair decision is a handful of compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntersectPlanner;

impl IntersectPlanner {
    /// The planner. The first call in a process reports unrecognized
    /// `FESIA_*` variables ([`params::env::warn_unrecognized`]).
    pub fn current() -> IntersectPlanner {
        params::env::warn_unrecognized();
        IntersectPlanner
    }

    /// Plan a pair restricted to the merge family (plain / container) —
    /// the contract of [`crate::intersect_count_with`], whose callers
    /// require the two-phase algorithm itself.
    pub fn plan_merge(&self, a: &SetSummary, b: &SetSummary) -> IntersectPlan {
        if should_container_summaries(a, b) {
            // Containers outrank every hashed-bitmap shape: when most
            // elements sit in dense value-domain ranges, word kernels
            // replace both the step-1 scan and the per-segment compares,
            // and stay exact for all ops.
            IntersectPlan::Container
        } else {
            IntersectPlan::Plain
        }
    }

    /// Whether the planner sends this pair to the hash probe: heavy skew
    /// (paper Fig. 11), or an empty side (the probe touches nothing, and
    /// riding the hash plan keeps strategy counts summing to calls).
    fn skewed(a: &SetSummary, b: &SetSummary) -> bool {
        let (small, large) = if a.len <= b.len { (a, b) } else { (b, a) };
        large.len == 0
            || (small.len as f64) < crate::intersect::SKEW_HASH_THRESHOLD * large.len as f64
    }

    /// Whether the planner sends a comparable pair to the hash probe
    /// because its bitmaps are large and sparse: the combined bitmaps
    /// are past [`SPARSE_MIN_BITMAP_BYTES`] (streaming them misses
    /// cache), and the expected share of bitmap blocks populated on
    /// both sides — the product of the two block densities — is at
    /// most [`SPARSE_MAX_OVERLAP_PCT`]. The step-1 scan would then
    /// stream mostly empty words, while the probe touches one bit per
    /// element of the smaller side.
    fn sparse(a: &SetSummary, b: &SetSummary) -> bool {
        a.bitmap_bytes + b.bitmap_bytes >= SPARSE_MIN_BITMAP_BYTES
            && a.summary_density * b.summary_density * 100.0 <= SPARSE_MAX_OVERLAP_PCT
    }

    /// Plan a pair with the full strategy family (the contract of
    /// [`crate::auto_count`] and every adaptive entry point): hash-probe
    /// under heavy skew (paper Fig. 11), otherwise the merge family —
    /// unless the merge would run the plain scan over large sparse
    /// bitmaps, which also goes to the probe.
    pub fn plan_pair(&self, a: &SetSummary, b: &SetSummary) -> IntersectPlan {
        if Self::skewed(a, b) {
            return IntersectPlan::HashProbe;
        }
        match self.plan_merge(a, b) {
            IntersectPlan::Plain if Self::sparse(a, b) => IntersectPlan::HashProbe,
            plan => plan,
        }
    }

    /// Plan a k-way intersection. The order is ascending by length, so
    /// the most selective operands lead. The strategy reuses the pair
    /// rules: the pair skew rule between the smallest and the next set
    /// picks [`KwayStrategy::Probe`],
    /// else the pair container gate between the smallest and every other
    /// set picks [`KwayStrategy::Container`], else
    /// [`KwayStrategy::Scan`].
    pub fn plan_kway(&self, sets: &[SetSummary]) -> KwayPlan {
        let mut order: Vec<usize> = (0..sets.len()).collect();
        order.sort_by_key(|&i| sets[i].len);
        let strategy = match order.as_slice() {
            [first, second, ..] => {
                let lead = &sets[*first];
                if Self::skewed(lead, &sets[*second]) {
                    KwayStrategy::Probe
                } else if order[1..]
                    .iter()
                    .all(|&i| should_container_summaries(lead, &sets[i]))
                {
                    KwayStrategy::Container
                } else {
                    KwayStrategy::Scan
                }
            }
            _ => KwayStrategy::Scan,
        };
        KwayPlan { order, strategy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FesiaParams;

    fn summary(len: usize, bitmap_bytes: usize, density: f64) -> SetSummary {
        SetSummary {
            len,
            bitmap_bytes,
            summary_density: density,
            container_dense: None,
        }
    }

    fn container_summary(len: usize, bitmap_bytes: usize, dense: f64) -> SetSummary {
        SetSummary {
            container_dense: Some(dense),
            ..summary(len, bitmap_bytes, 1.0)
        }
    }

    #[test]
    fn auto_pair_follows_skew_size_and_density() {
        let p = IntersectPlanner;
        // Heavy skew -> hash probe.
        let tiny = summary(100, 64, 1.0);
        let big = summary(100_000, 1 << 18, 1.0);
        assert_eq!(p.plan_pair(&tiny, &big), IntersectPlan::HashProbe);
        assert_eq!(p.plan_pair(&big, &tiny), IntersectPlan::HashProbe);
        // Empty pair -> hash probe (probes zero elements).
        let empty = summary(0, 64, 0.0);
        assert_eq!(p.plan_pair(&empty, &empty), IntersectPlan::HashProbe);
        // Comparable pairs, small or large -> plain.
        let small = summary(1_000, 4096, 1.0);
        assert_eq!(p.plan_pair(&small, &small), IntersectPlan::Plain);
        let large = summary(1 << 16, 1 << 17, 1.0);
        assert_eq!(p.plan_pair(&large, &large), IntersectPlan::Plain);
    }

    /// A comparable pair whose combined bitmaps reach 4 MiB with a
    /// block-density product of at most 60% goes to the hash probe on
    /// the full-family path; the merge-only path keeps the plain scan.
    #[test]
    fn large_sparse_pair_probes_and_merge_stays_plain() {
        let p = IntersectPlanner;
        // Two 2 MiB bitmaps (4 MiB combined) at 0.3 density: 9% overlap.
        let sparse = summary(1 << 20, 1 << 21, 0.3);
        assert_eq!(p.plan_pair(&sparse, &sparse), IntersectPlan::HashProbe);
        assert_eq!(p.plan_merge(&sparse, &sparse), IntersectPlan::Plain);
        // Both thresholds are inclusive edges.
        let edge = summary(1 << 20, 1 << 21, 0.6);
        let full = summary(1 << 20, 1 << 21, 1.0);
        assert_eq!(p.plan_pair(&edge, &full), IntersectPlan::HashProbe);
        // One byte under the size floor, or denser than 60% -> plain.
        let short = summary(1 << 20, (1 << 21) - 1, 0.3);
        assert_eq!(p.plan_pair(&short, &sparse), IntersectPlan::Plain);
        let dense = summary(1 << 20, 1 << 21, 0.8);
        assert_eq!(p.plan_pair(&dense, &dense), IntersectPlan::Plain);
    }

    #[test]
    fn container_plan_follows_density_and_availability() {
        let p = IntersectPlanner;
        // A big dense-ranged pair -> container, outranking every other
        // shape (this pair would otherwise be probed).
        let dense = container_summary(1 << 20, 1 << 22, 0.9);
        assert_eq!(p.plan_pair(&dense, &dense), IntersectPlan::Container);
        // No directory on one side -> never container.
        let raw = summary(1 << 20, 1 << 22, 0.3);
        assert_eq!(p.plan_pair(&dense, &raw), IntersectPlan::HashProbe);
        // A sparse directory (arrays everywhere) stays on the merge.
        let sparse = container_summary(1 << 20, 1 << 22, 0.1);
        assert_ne!(p.plan_pair(&sparse, &sparse), IntersectPlan::Container);
        // The *less* dense side gates: one dense side cannot carry a pair
        // whose other side is mostly arrays.
        assert_ne!(p.plan_pair(&dense, &sparse), IntersectPlan::Container);
        // Below the size floor the segmented merge wins.
        let small = container_summary(1 << 13, 1 << 14, 0.9);
        assert_ne!(p.plan_pair(&small, &small), IntersectPlan::Container);
        // Both floors are inclusive edges.
        let half = CONTAINER_MIN_ELEMENTS / 2;
        let edge = container_summary(half, 1 << 14, CONTAINER_MIN_DENSE_PCT / 100.0);
        assert_eq!(p.plan_merge(&edge, &edge), IntersectPlan::Container);
        let short = container_summary(half - 1, 1 << 14, 0.9);
        assert_eq!(p.plan_merge(&short, &edge), IntersectPlan::Plain);
        let thin = container_summary(half, 1 << 14, 0.39);
        assert_eq!(p.plan_merge(&thin, &edge), IntersectPlan::Plain);
    }

    #[test]
    fn kway_plan_orders_ascending_by_length() {
        let p = IntersectPlanner;
        let sums: Vec<SetSummary> = [500, 10, 200, 10_000]
            .iter()
            .map(|&n| summary(n, 4096, 1.0))
            .collect();
        let plan = p.plan_kway(&sums);
        assert_eq!(plan.order, vec![1, 2, 0, 3]);
        assert_eq!(p.plan_kway(&[]).order, Vec::<usize>::new());
    }

    #[test]
    fn kway_strategy_follows_the_pair_rules() {
        let p = IntersectPlanner;
        // Smallest below 1/4 of the next -> probe, tiers or not.
        let tiny = container_summary(5_000, 1 << 14, 0.9);
        let big = container_summary(1 << 20, 1 << 22, 0.9);
        assert_eq!(p.plan_kway(&[big, tiny, big]).strategy, KwayStrategy::Probe);
        // Comparable, all dense tiers past the size floor -> container.
        assert_eq!(
            p.plan_kway(&[big, big, big]).strategy,
            KwayStrategy::Container
        );
        // One operand without a tier, or a sparse one -> scan.
        let raw = summary(1 << 20, 1 << 22, 1.0);
        let sparse = container_summary(1 << 20, 1 << 22, 0.1);
        assert_eq!(p.plan_kway(&[big, raw, big]).strategy, KwayStrategy::Scan);
        assert_eq!(
            p.plan_kway(&[big, sparse, big]).strategy,
            KwayStrategy::Scan
        );
        // One or two sets: nothing to fold against, so the scan.
        assert_eq!(p.plan_kway(&[big]).strategy, KwayStrategy::Scan);
        assert_eq!(p.plan_kway(&[]).strategy, KwayStrategy::Scan);
    }

    #[test]
    fn summaries_match_built_sets() {
        let v: Vec<u32> = (0..1_000u32).map(|i| i * 7).collect();
        let s = SegmentedSet::build(&v, &FesiaParams::auto()).unwrap();
        let sum = SetSummary::of(&s);
        assert_eq!(sum.len, s.len());
        assert_eq!(sum.bitmap_bytes, s.bitmap_bytes().len());
        assert!((sum.summary_density - s.summary_density()).abs() < 1e-12);
        assert_eq!(
            sum.container_dense,
            s.container_stats().map(|c| c.dense_fraction())
        );
        let empty = SetSummary::of(&SegmentedSet::build(&[], &FesiaParams::auto()).unwrap());
        assert_eq!(empty.skew(&sum), 0.0 / 1.0);
        assert_eq!(empty.skew(&empty), 1.0);
    }

    /// Measured share of populated 512-bit bitmap blocks: the popcount
    /// of the block summary sets carried before the planner switched to
    /// the formula, kept here as its reference.
    fn populated_block_share(s: &SegmentedSet) -> f64 {
        let blocks = s.bitmap_bytes().chunks(64);
        let total = blocks.len();
        blocks.filter(|b| b.iter().any(|&x| x != 0)).count() as f64 / total as f64
    }

    /// The block density the planner reads is a formula over length and
    /// block count. On every datagen shape, at bitmap sizes where the
    /// sparse rule applies (any two of these sets reach
    /// `SPARSE_MIN_BITMAP_BYTES` together), it is within 0.01 of the
    /// measured share of populated blocks, and every pair gets the same
    /// plan from either density.
    #[test]
    fn formula_density_matches_populated_blocks() {
        use fesia_datagen::{clustered_pair, run_heavy_pair, sorted_distinct, SplitMix64};
        type Shape = fn(usize, &mut SplitMix64) -> Vec<u32>;
        let shapes: [(&str, Shape); 6] = [
            ("uniform sparse", |n, rng| sorted_distinct(n, 1 << 30, rng)),
            ("uniform dense", |n, rng| {
                sorted_distinct(n, 2 * n as u32, rng)
            }),
            ("consecutive", |n, _| (0..n as u32).collect()),
            ("stride-512", |n, _| {
                (0..n as u32).map(|i| i * 512).collect()
            }),
            ("clustered", |n, rng| {
                clustered_pair(n, n / 4, 64, 0.5, rng).0
            }),
            ("run-heavy", |n, rng| run_heavy_pair(n, n / 4, 32, rng).0),
        ];
        let bitmap_bits = SPARSE_MIN_BITMAP_BYTES * 8 / 2;
        let mut rng = SplitMix64::new(0xB10C);
        let mut sums = Vec::new();
        for (name, shape) in shapes {
            // n · bits = 3/4 of the bitmap, so every set gets the same
            // 2 MiB bitmap at 6 down to 0.19 elements per block.
            for bits in [64usize, 128, 512, 2048] {
                let n = bitmap_bits * 3 / 4 / bits;
                let params = FesiaParams::auto().with_bits_per_element(bits as f64);
                let s = SegmentedSet::build(&shape(n, &mut rng), &params).unwrap();
                assert_eq!(s.bitmap_bits(), bitmap_bits);
                let formula = SetSummary::of(&s);
                let measured = populated_block_share(&s);
                assert!(
                    (formula.summary_density - measured).abs() <= 0.01,
                    "{name} at {bits} bits: formula {} vs measured {measured}",
                    formula.summary_density
                );
                let reference = SetSummary {
                    summary_density: measured,
                    ..formula
                };
                sums.push((formula, reference));
            }
        }
        let p = IntersectPlanner;
        let mut probed = 0;
        for (fa, ra) in &sums {
            for (fb, rb) in &sums {
                assert!(fa.bitmap_bytes + fb.bitmap_bytes >= SPARSE_MIN_BITMAP_BYTES);
                let plan = p.plan_pair(fa, fb);
                assert_eq!(plan, p.plan_pair(ra, rb), "{fa:?} x {fb:?}");
                probed += usize::from(plan == IntersectPlan::HashProbe);
            }
        }
        // The grid reaches both sides of the sparse rule.
        assert!(probed > 0 && probed < sums.len() * sums.len());
    }
}
