//! Offline filter diagnostics: segment-population and filter-effectiveness
//! statistics computed on demand for a given structure or intersection.
//! (For the always-on runtime counters, see the `fesia-obs` crate.)
//!
//! The paper's analysis (§III-D) predicts `E[false positives] ≤ n²/(2m)`
//! surviving segments beyond the `r` true matches; these helpers measure
//! the actual numbers for a given structure or intersection, both to
//! validate the theory (unit tests below do exactly that) and to let users
//! diagnose mis-tuned parameters in production.

use crate::hash;
use crate::set::SegmentedSet;
use fesia_simd::mask::{for_each_nonzero_lane, for_each_nonzero_lane_folded};

/// Distribution of segment populations in one set.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentStats {
    /// `histogram[k]` = number of segments holding exactly `k` elements
    /// (truncated at the largest occupied size).
    pub histogram: Vec<usize>,
    /// Mean population over all segments.
    pub mean: f64,
    /// Largest population.
    pub max: usize,
    /// Fraction of segments that are empty.
    pub empty_fraction: f64,
}

impl SegmentStats {
    /// Measure a set's segment-population distribution.
    pub fn for_set(set: &SegmentedSet) -> SegmentStats {
        let segs = set.num_segments();
        let mut histogram = Vec::new();
        let mut max = 0usize;
        let mut empty = 0usize;
        for i in 0..segs {
            let k = set.seg_size(i);
            if histogram.len() <= k {
                histogram.resize(k + 1, 0);
            }
            histogram[k] += 1;
            max = max.max(k);
            empty += (k == 0) as usize;
        }
        SegmentStats {
            histogram,
            mean: set.len() as f64 / segs.max(1) as f64,
            max,
            empty_fraction: empty as f64 / segs.max(1) as f64,
        }
    }
}

/// Effectiveness of the bitmap filter for one intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterStats {
    /// Segments scanned in phase 1 (the larger bitmap's count).
    pub segments_scanned: usize,
    /// Segment pairs surviving the AND.
    pub survivors: usize,
    /// Survivors that contained at least one true match.
    pub true_positive_segments: usize,
    /// Survivors with no matching element (hash coincidences only).
    pub false_positive_segments: usize,
    /// The intersection size.
    pub intersection: usize,
}

impl FilterStats {
    /// The paper's §III-D bound on expected false-positive segments for
    /// same-size bitmaps: `n1 * n2 / m`.
    pub fn theoretical_fp_bound(n1: usize, n2: usize, m_bits: usize) -> f64 {
        (n1 as f64 * n2 as f64) / m_bits as f64
    }
}

/// Measure the bitmap filter on a pair of equal-bitmap-size sets.
///
/// # Panics
/// Panics if the bitmap sizes or segment widths differ (the folded case
/// has per-pair survivor semantics that don't aggregate into one number).
pub fn filter_stats(a: &SegmentedSet, b: &SegmentedSet) -> FilterStats {
    assert_eq!(a.lane(), b.lane(), "segment widths must match");
    assert_eq!(
        a.bitmap_bits(),
        b.bitmap_bits(),
        "filter_stats requires equal bitmap sizes"
    );
    let mut survivors = 0usize;
    let mut tp = 0usize;
    let mut intersection = 0usize;
    for_each_nonzero_lane(
        fesia_simd::SimdLevel::detect(),
        a.lane(),
        a.bitmap_bytes(),
        b.bitmap_bytes(),
        |i| {
            survivors += 1;
            let sa = a.segment(i);
            let sb = b.segment(i);
            let mut matched = 0usize;
            let (mut x, mut y) = (0usize, 0usize);
            while x < sa.len() && y < sb.len() {
                match sa[x].cmp(&sb[y]) {
                    std::cmp::Ordering::Less => x += 1,
                    std::cmp::Ordering::Greater => y += 1,
                    std::cmp::Ordering::Equal => {
                        matched += 1;
                        x += 1;
                        y += 1;
                    }
                }
            }
            tp += (matched > 0) as usize;
            intersection += matched;
        },
    );
    FilterStats {
        segments_scanned: a.num_segments(),
        survivors,
        true_positive_segments: tp,
        false_positive_segments: survivors - tp,
        intersection,
    }
}

/// Number of segment pairs surviving the phase-1 bitmap AND — the length
/// of the survivor buffer the threshold merge fills, and therefore the
/// phase-2 trip count. Unlike [`filter_stats`] this works for folded
/// (different-bitmap-size) pairs too: with folding, segment `i` of the
/// larger bitmap pairs with `i mod N2` of the smaller.
///
/// # Panics
/// Panics if the segment widths differ.
pub fn survivor_segments(a: &SegmentedSet, b: &SegmentedSet) -> usize {
    assert_eq!(a.lane(), b.lane(), "segment widths must match");
    let level = fesia_simd::SimdLevel::detect();
    let mut survivors = 0usize;
    if a.bitmap_bits() == b.bitmap_bits() {
        for_each_nonzero_lane(level, a.lane(), a.bitmap_bytes(), b.bitmap_bytes(), |_| {
            survivors += 1;
        });
    } else {
        let (large, small) = if a.bitmap_bits() > b.bitmap_bits() {
            (a, b)
        } else {
            (b, a)
        };
        for_each_nonzero_lane_folded(
            level,
            a.lane(),
            large.bitmap_bytes(),
            small.bitmap_bytes(),
            |_| survivors += 1,
        );
    }
    survivors
}

/// Measured collision rate of the element hash over a set: fraction of
/// elements sharing their exact bit position with another element.
pub fn bit_collision_rate(set: &SegmentedSet) -> f64 {
    if set.len() < 2 {
        return 0.0;
    }
    let mut positions: Vec<usize> = set
        .reordered_elements()
        .iter()
        .map(|&x| hash::position(x, set.log2_m()))
        .collect();
    positions.sort_unstable();
    let mut colliding = 0usize;
    let mut i = 0usize;
    while i < positions.len() {
        let j = positions[i..]
            .iter()
            .take_while(|&&p| p == positions[i])
            .count();
        if j > 1 {
            colliding += j;
        }
        i += j;
    }
    colliding as f64 / set.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FesiaParams;

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
    fn segment_stats_partition_the_set() {
        let v = gen_sorted(5_000, 1, 1 << 22);
        let set = SegmentedSet::build(&v, &FesiaParams::auto()).unwrap();
        let stats = SegmentStats::for_set(&set);
        let total: usize = stats
            .histogram
            .iter()
            .enumerate()
            .map(|(k, &cnt)| k * cnt)
            .sum();
        assert_eq!(total, v.len());
        assert_eq!(stats.histogram.iter().sum::<usize>(), set.num_segments());
        assert!(stats.max >= 1);
        // With m = n*sqrt(w), mean population is well below 1.
        assert!(stats.mean < 1.0, "mean {}", stats.mean);
        assert!(stats.empty_fraction > 0.5);
    }

    #[test]
    fn filter_stats_match_intersection_and_theory() {
        let a = gen_sorted(20_000, 3, 1 << 24);
        let b = gen_sorted(20_000, 5, 1 << 24);
        let params = FesiaParams::auto();
        let sa = SegmentedSet::build(&a, &params).unwrap();
        let sb = SegmentedSet::build(&b, &params).unwrap();
        let want = {
            let bs: std::collections::HashSet<u32> = b.iter().copied().collect();
            a.iter().filter(|x| bs.contains(x)).count()
        };
        let fs = filter_stats(&sa, &sb);
        assert_eq!(fs.intersection, want);
        assert_eq!(
            fs.survivors,
            fs.true_positive_segments + fs.false_positive_segments
        );
        assert!(fs.true_positive_segments <= want.max(1));
        // §III-D: expected FP segments <= n1*n2/m; allow 3x slack for a
        // single random draw.
        let bound = FilterStats::theoretical_fp_bound(a.len(), b.len(), sa.bitmap_bits());
        assert!(
            (fs.false_positive_segments as f64) < 3.0 * bound + 16.0,
            "FP {} vs bound {bound}",
            fs.false_positive_segments
        );
    }

    #[test]
    fn disjoint_sets_have_only_false_positives() {
        let a: Vec<u32> = (0..4_000).map(|i| i * 2).collect();
        let b: Vec<u32> = (0..4_000).map(|i| i * 2 + 1).collect();
        let params = FesiaParams::auto();
        let sa = SegmentedSet::build(&a, &params).unwrap();
        let sb = SegmentedSet::build(&b, &params).unwrap();
        let fs = filter_stats(&sa, &sb);
        assert_eq!(fs.intersection, 0);
        assert_eq!(fs.true_positive_segments, 0);
        assert_eq!(fs.survivors, fs.false_positive_segments);
    }

    #[test]
    fn survivor_segments_matches_filter_stats_and_handles_folding() {
        let params = FesiaParams::auto();
        let a = gen_sorted(10_000, 3, 1 << 23);
        let b = gen_sorted(10_000, 5, 1 << 23);
        let sa = SegmentedSet::build(&a, &params).unwrap();
        let sb = SegmentedSet::build(&b, &params).unwrap();
        assert_eq!(
            survivor_segments(&sa, &sb),
            filter_stats(&sa, &sb).survivors
        );
        // Folded pair: just check it runs and is at least the number of
        // true-positive segments (every true match survives the AND).
        let c = gen_sorted(500, 7, 1 << 23);
        let sc = SegmentedSet::build(&c, &params).unwrap();
        assert_ne!(sa.bitmap_bits(), sc.bitmap_bits());
        let surv = survivor_segments(&sa, &sc);
        let surv_rev = survivor_segments(&sc, &sa);
        assert_eq!(surv, surv_rev, "survivor count must be symmetric");
        let want = {
            let cs: std::collections::HashSet<u32> = c.iter().copied().collect();
            a.iter().filter(|x| cs.contains(x)).count()
        };
        assert!(surv >= want.min(1));
    }

    #[test]
    fn collision_rate_reflects_bitmap_density() {
        let v = gen_sorted(10_000, 7, 1 << 26);
        let sparse =
            SegmentedSet::build(&v, &FesiaParams::auto().with_bits_per_element(32.0)).unwrap();
        let dense =
            SegmentedSet::build(&v, &FesiaParams::auto().with_bits_per_element(0.5)).unwrap();
        let r_sparse = bit_collision_rate(&sparse);
        let r_dense = bit_collision_rate(&dense);
        assert!(r_sparse < 0.05, "sparse collision rate {r_sparse}");
        assert!(r_dense > 0.5, "dense collision rate {r_dense}");
        assert_eq!(
            bit_collision_rate(&SegmentedSet::build(&[], &FesiaParams::auto()).unwrap()),
            0.0
        );
    }
}
