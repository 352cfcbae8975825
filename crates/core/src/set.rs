//! The [`SegmentedSet`]: FESIA's offline-built, SIMD-ready set encoding.

use crate::container::{ContainerStats, ContainerTier};
use crate::error::{validate_input, BuildError, MAX_ELEMENT};
use crate::hash;
use crate::layout::{build_container_tier, build_layout};
use crate::mmap::Section;
use crate::params::FesiaParams;
use fesia_simd::mask::{build_block_summary, LaneWidth, SUMMARY_BLOCK_BYTES};
use fesia_simd::util::log2_pow2;

/// Padding sentinel appended after the reordered elements so kernels may
/// over-read whole vectors past the end of the last segment.
pub(crate) const PAD_SENTINEL: u32 = u32::MAX;

/// Number of sentinel elements appended after the reordered set.
///
/// Kernels may load up to `ceil(TMAX/V)*V = 32` elements from a segment
/// start (the widest case: an AVX-512 stride-8 table rounding a segment to
/// 32 elements), so 32 sentinels guarantee every such load is in bounds
/// even for a one-element segment at the very end of the array.
pub(crate) const PAD_LEN: usize = 32;

/// Packed per-segment metadata. One array (and therefore one cache access)
/// per segment lookup — segment metadata is random-accessed for every
/// surviving segment, so both the number of touches and the bytes per
/// entry matter. Sets small enough for a 24-bit offset and 8-bit segment
/// populations (the overwhelmingly common case: with `m = n·sqrt(w)` the
/// mean population is below 1) use 4-byte entries; larger or collision-
/// heavy sets fall back to 8-byte entries.
#[derive(Debug, Clone)]
pub(crate) enum SegMeta {
    /// `offset << 8 | size` in a `u32` (offset < 2^24, size < 256).
    Compact(Section<u32>),
    /// `offset << 32 | size` in a `u64`.
    Wide(Section<u64>),
}

impl SegMeta {
    #[inline]
    fn len(&self) -> usize {
        match self {
            SegMeta::Compact(v) => v.len(),
            SegMeta::Wide(v) => v.len(),
        }
    }

    /// Hint that `entry(i)` will be read soon. The metadata array is the
    /// first random access of every surviving segment's sweep iteration,
    /// so hiding its miss matters as much as hiding the data stream's.
    #[inline]
    fn prefetch_entry(&self, i: usize) {
        match self {
            SegMeta::Compact(v) => fesia_simd::prefetch::prefetch_read(&v[i]),
            SegMeta::Wide(v) => fesia_simd::prefetch::prefetch_read(&v[i]),
        }
    }

    #[inline]
    fn entry(&self, i: usize) -> (usize, usize) {
        match self {
            SegMeta::Compact(v) => {
                let m = v[i];
                ((m >> 8) as usize, (m & 0xFF) as usize)
            }
            SegMeta::Wide(v) => {
                let m = v[i];
                ((m >> 32) as usize, (m & 0xFFFF_FFFF) as usize)
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            SegMeta::Compact(v) => v.len() * 4,
            SegMeta::Wide(v) => v.len() * 8,
        }
    }
}

/// A set of `u32` values encoded as a segmented bitmap (paper §III-B).
///
/// Built once offline, then intersected many times online. The encoding
/// consists of:
///
/// * an `m`-bit **bitmap** (`m` a power of two, at least 512) with bit
///   `h(x)` set for every member `x`;
/// * **segment** metadata: every `s` bits of bitmap form a segment, with a
///   packed `(offset, size)` entry locating its members;
/// * the **reordered set**: all members grouped by segment, sorted within
///   each segment, padded with `PAD_SENTINEL`s for safe SIMD over-reads.
///
/// Elements must be below [`MAX_ELEMENT`]; the top `u32` values are
/// reserved as padding sentinels for the SIMD kernels.
#[derive(Debug, Clone)]
pub struct SegmentedSet {
    bitmap: Section<u8>,
    /// One bit per 512-bit bitmap block (the two-level bitmap's coarse
    /// level); built during layout, persisted by the serializer.
    summary: Section<u64>,
    /// Cached popcount of `summary` — the block density feeds the
    /// planner on every intersection, so it must not cost a pass over the
    /// summary each time.
    summary_ones: u64,
    seg_meta: SegMeta,
    reordered: Section<u32>,
    /// The adaptive per-range container tier, when the set is large enough
    /// to carry one (see [`crate::container`]); the planner decides per
    /// pair whether to use it.
    container: Option<ContainerTier>,
    n: usize,
    log2_m: u32,
    lane: LaneWidth,
}

impl SegmentedSet {
    /// Encode a sorted, duplicate-free slice with the given parameters.
    pub fn build(sorted: &[u32], params: &FesiaParams) -> Result<Self, BuildError> {
        validate_input(sorted)?;
        let m = params.bitmap_bits(sorted.len());
        let log2_m = log2_pow2(m);
        let s_bits = params.segment.bits();
        let layout = build_layout(sorted, m, s_bits, |x| hash::position(x, log2_m));
        debug_assert!(layout.validate(sorted.len()));
        debug_assert_eq!(
            layout.bitmap.len() % 64,
            0,
            "bitmap floor guarantees 64B blocks"
        );

        let container = build_container_tier(sorted);

        let mut reordered = layout.reordered;
        reordered.extend(std::iter::repeat_n(PAD_SENTINEL, PAD_LEN));
        let compact_ok = sorted.len() < (1 << 24) && layout.seg_sizes.iter().all(|&s| s < 256);
        let seg_meta = if compact_ok {
            SegMeta::Compact(
                layout
                    .seg_sizes
                    .iter()
                    .zip(&layout.seg_offsets)
                    .map(|(&size, &off)| (off << 8) | size)
                    .collect::<Vec<u32>>()
                    .into(),
            )
        } else {
            SegMeta::Wide(
                layout
                    .seg_sizes
                    .iter()
                    .zip(&layout.seg_offsets)
                    .map(|(&size, &off)| ((off as u64) << 32) | size as u64)
                    .collect::<Vec<u64>>()
                    .into(),
            )
        };

        let summary_ones = layout.summary.iter().map(|w| w.count_ones() as u64).sum();
        Ok(SegmentedSet {
            bitmap: layout.bitmap.into(),
            summary: layout.summary.into(),
            summary_ones,
            seg_meta,
            reordered: reordered.into(),
            container,
            n: sorted.len(),
            log2_m,
            lane: params.segment,
        })
    }

    /// Reassemble a set from decoded parts (the deserializer's back end).
    /// Returns `None` unless every structural invariant holds.
    pub(crate) fn from_decoded_parts(
        bitmap: Vec<u8>,
        summary: Option<Vec<u64>>,
        sizes: Vec<u32>,
        mut reordered: Vec<u32>,
        log2_m: u32,
        lane: LaneWidth,
    ) -> Option<SegmentedSet> {
        if bitmap.len() * 8 != 1usize << log2_m || bitmap.len() < 64 {
            return None;
        }
        if reordered.iter().any(|&x| x > MAX_ELEMENT) {
            return None;
        }
        // A stored summary must agree with the bitmap bit-for-bit; a
        // corrupt summary would silently skip (or visit) the wrong blocks.
        // Version-1 buffers carry no summary, so it is recomputed.
        let recomputed = build_block_summary(&bitmap);
        let summary = match summary {
            Some(s) if s != recomputed => return None,
            Some(s) => s,
            None => recomputed,
        };
        let summary_ones = summary.iter().map(|w| w.count_ones() as u64).sum();
        let n = reordered.len();
        // Prefix-sum the (attacker-controlled) sizes into offsets before
        // anything indexes with them; a sum that misses `n` can only
        // describe a corrupt buffer.
        let mut seg_offsets = Vec::with_capacity(sizes.len() + 1);
        let mut acc = 0u64;
        for &size in &sizes {
            seg_offsets.push(acc as u32);
            acc += u64::from(size);
            if acc > n as u64 {
                return None;
            }
        }
        seg_offsets.push(acc as u32);
        if acc != n as u64 {
            return None;
        }
        // The container tier is always rebuilt from the decoded elements,
        // never trusted from the buffer: its input is the value-sorted
        // element list, which the segment-grouped `reordered` order does
        // not provide, so sort a copy.
        let container = {
            let mut sorted = reordered.clone();
            sorted.sort_unstable();
            if sorted.windows(2).any(|w| w[0] >= w[1]) {
                return None; // duplicate elements across segments
            }
            build_container_tier(&sorted)
        };
        reordered.extend(std::iter::repeat_n(PAD_SENTINEL, PAD_LEN));
        let compact_ok = n < (1 << 24) && sizes.iter().all(|&s| s < 256);
        let entries = seg_offsets[..sizes.len()].iter().zip(&sizes);
        let seg_meta = if compact_ok {
            SegMeta::Compact(
                entries
                    .map(|(&off, &size)| (off << 8) | size)
                    .collect::<Vec<u32>>()
                    .into(),
            )
        } else {
            SegMeta::Wide(
                entries
                    .map(|(&off, &size)| (u64::from(off) << 32) | u64::from(size))
                    .collect::<Vec<u64>>()
                    .into(),
            )
        };
        let set = SegmentedSet {
            bitmap: bitmap.into(),
            summary: summary.into(),
            summary_ones,
            seg_meta,
            reordered: reordered.into(),
            container,
            n,
            log2_m,
            lane,
        };
        if set.validate() {
            Some(set)
        } else {
            None
        }
    }

    /// Assemble a set directly from pre-validated sections — the zero-copy
    /// back end of the v3 mapped decoder. Performs **no** validation; the
    /// caller (and only caller, [`crate::serialize::deserialize_mapped`])
    /// is responsible for every structural check, because running
    /// [`SegmentedSet::validate`]'s recomputations here would defeat the
    /// allocation-free contract of the mapped path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_sections(
        bitmap: Section<u8>,
        summary: Section<u64>,
        summary_ones: u64,
        seg_meta: SegMeta,
        reordered: Section<u32>,
        container: Option<ContainerTier>,
        n: usize,
        log2_m: u32,
        lane: LaneWidth,
    ) -> SegmentedSet {
        SegmentedSet {
            bitmap,
            summary,
            summary_ones,
            seg_meta,
            reordered,
            container,
            n,
            log2_m,
            lane,
        }
    }

    /// Convenience: sort + deduplicate, then [`SegmentedSet::build`].
    pub fn from_unsorted(mut values: Vec<u32>, params: &FesiaParams) -> Result<Self, BuildError> {
        values.sort_unstable();
        values.dedup();
        Self::build(&values, params)
    }

    /// Encode with [`FesiaParams::auto`] defaults.
    pub fn new(sorted: &[u32]) -> Result<Self, BuildError> {
        Self::build(sorted, &FesiaParams::auto())
    }

    /// Number of elements in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Bitmap size `m` in bits.
    #[inline]
    pub fn bitmap_bits(&self) -> usize {
        self.bitmap.len() * 8
    }

    /// `log2(m)`.
    #[inline]
    pub fn log2_m(&self) -> u32 {
        self.log2_m
    }

    /// Segment width used by this set.
    #[inline]
    pub fn lane(&self) -> LaneWidth {
        self.lane
    }

    /// Number of segments (`m / s`).
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.seg_meta.len()
    }

    /// Raw bitmap bytes (length is a power of two, at least 64).
    #[inline]
    pub fn bitmap_bytes(&self) -> &[u8] {
        &self.bitmap
    }

    /// The summary level of the two-level bitmap: one bit per 512-bit
    /// block of [`SegmentedSet::bitmap_bytes`], LSB-first within each
    /// `u64` word.
    #[inline]
    pub fn summary_words(&self) -> &[u64] {
        &self.summary
    }

    /// Number of 512-bit blocks the bitmap (and therefore the summary)
    /// covers.
    #[inline]
    pub fn summary_blocks(&self) -> usize {
        self.bitmap.len() / SUMMARY_BLOCK_BYTES
    }

    /// Fraction of bitmap blocks that hold at least one set bit, in
    /// `0.0..=1.0` — the density estimate behind the planner's
    /// sparse-pair rule (the expected share of blocks populated on both
    /// sides is the product of the two densities).
    #[inline]
    pub fn summary_density(&self) -> f64 {
        let blocks = self.summary_blocks();
        if blocks == 0 {
            0.0
        } else {
            self.summary_ones as f64 / blocks as f64
        }
    }

    /// Elements of segment `i`, sorted ascending.
    #[inline]
    pub fn segment(&self, i: usize) -> &[u32] {
        let (off, size) = self.seg_entry(i);
        &self.reordered[off..off + size]
    }

    /// `(offset, size)` of segment `i` from the packed metadata.
    #[inline]
    pub(crate) fn seg_entry(&self, i: usize) -> (usize, usize) {
        self.seg_meta.entry(i)
    }

    /// Prefetch the metadata entry for segment `i` (see
    /// [`SegMeta::prefetch_entry`]).
    #[inline]
    pub(crate) fn prefetch_seg_entry(&self, i: usize) {
        self.seg_meta.prefetch_entry(i)
    }

    /// Hint that this set's struct will be read soon: one prefetch per
    /// field the planner and the pair kernels read before touching any
    /// array. The compiler places the fields, so this names them rather
    /// than assuming an order; fields sharing a line cost a redundant
    /// hint, not a second miss.
    #[inline]
    pub(crate) fn prefetch_fields(&self) {
        use fesia_simd::prefetch::prefetch_read;
        prefetch_read(&self.n);
        prefetch_read(&self.bitmap);
        prefetch_read(&self.summary_ones);
        prefetch_read(&self.seg_meta);
        prefetch_read(&self.reordered);
        prefetch_read(&self.container);
    }

    /// Hint that an intersection will start on this set soon: prefetch
    /// the first bitmap line and the first element line. Reading the
    /// array pointers loads the struct, so call this some time after
    /// the struct itself was hinted (`Snapshot::prefetch`). For a
    /// one-block bitmap, the common case on graph neighbourhoods, these
    /// two lines are most of what a pair intersection reads.
    #[inline]
    pub fn prefetch_head(&self) {
        fesia_simd::prefetch::prefetch_read(self.bitmap.as_ptr());
        fesia_simd::prefetch::prefetch_read(self.reordered.as_ptr());
    }

    /// The packed per-segment metadata (the serializer persists it as-is).
    #[inline]
    pub(crate) fn seg_meta(&self) -> &SegMeta {
        &self.seg_meta
    }

    /// Cached popcount of the summary level.
    #[inline]
    pub(crate) fn summary_ones(&self) -> u64 {
        self.summary_ones
    }

    /// Population of segment `i`.
    #[inline]
    pub fn seg_size(&self, i: usize) -> usize {
        self.seg_entry(i).1
    }

    /// Exact number of elements hashed into 512-bit bitmap block `blk`.
    ///
    /// A block spans a contiguous run of segments and the reordered array
    /// is grouped by segment, so the population is the difference of two
    /// `u32` segment offsets — exact (never saturated), which the
    /// threshold cascade's block-level upper bound relies on: a `min` of
    /// saturated counts could under-estimate and reject a qualifying
    /// pair.
    #[inline]
    pub fn block_pop(&self, blk: usize) -> usize {
        let segs_per_block = (SUMMARY_BLOCK_BYTES * 8) / self.lane.bits();
        let start = blk * segs_per_block;
        let end = start + segs_per_block;
        let lo = self.seg_entry(start).0;
        let hi = if end >= self.num_segments() {
            self.n
        } else {
            self.seg_entry(end).0
        };
        hi - lo
    }

    /// Pointer to the start of segment `i` in the reordered array.
    ///
    /// Valid for reads of `seg_size(i) + PAD_LEN` elements: either further
    /// real elements (which, belonging to other segments, can never equal an
    /// element the kernels compare against — see the kernel contract) or
    /// [`PAD_SENTINEL`]s.
    #[inline]
    pub(crate) fn seg_ptr(&self, i: usize) -> *const u32 {
        // SAFETY: the offset is <= n and the vector has n + PAD_LEN slots.
        unsafe { self.reordered.as_ptr().add(self.seg_entry(i).0) }
    }

    /// All elements in reordered (segment-grouped) order, without padding.
    #[inline]
    pub fn reordered_elements(&self) -> &[u32] {
        &self.reordered[..self.n]
    }

    /// The adaptive per-range container tier, when this set carries one.
    #[inline]
    pub fn container(&self) -> Option<&ContainerTier> {
        self.container.as_ref()
    }

    /// Per-kind range/cardinality stats of the container tier, if present
    /// — the planner's container density signal.
    #[inline]
    pub fn container_stats(&self) -> Option<ContainerStats> {
        self.container.as_ref().map(ContainerTier::stats)
    }

    /// Membership test — the per-element primitive behind the paper's
    /// skewed-input strategy (§VI, "Input with dramatically different
    /// sizes"). A set whose container tier is one bitmap or run range
    /// answers exactly from the tier: a directory lookup plus one word
    /// test. Every other set takes the bitmap filter plus a segment scan
    /// (DESIGN.md §5h has the measurements behind the rule).
    pub fn contains(&self, x: u32) -> bool {
        match self.dense_tier() {
            Some(t) => t.contains(x),
            None => self.contains_hashed(x),
        }
    }

    /// The container tier when [`SegmentedSet::contains`] answers from it:
    /// one range, not an array. A binary search over an array range's up
    /// to 4096 values is 2–5× slower than the hashed lookup, and hot
    /// multi-range bitmap tiers lose to it as well.
    #[inline]
    fn dense_tier(&self) -> Option<&ContainerTier> {
        self.container
            .as_ref()
            .filter(|c| c.num_ranges() == 1 && c.stats().ranges_array == 0)
    }

    /// Membership via the bitmap filter plus a segment scan.
    #[inline]
    pub(crate) fn contains_hashed(&self, x: u32) -> bool {
        if x > MAX_ELEMENT {
            return false;
        }
        let p = hash::position(x, self.log2_m);
        if self.bitmap[p / 8] & (1 << (p % 8)) == 0 {
            return false;
        }
        // The bit is set: scan the (short, sorted) segment list.
        self.segment(p / self.lane.bits()).binary_search(&x).is_ok()
    }

    /// Total footprint of the encoding in bytes (owned or mapped).
    pub fn memory_bytes(&self) -> usize {
        self.bitmap.len()
            + self.summary.len() * 8
            + self.seg_meta.heap_bytes()
            + self.reordered.len() * 4
            + self
                .container
                .as_ref()
                .map_or(0, ContainerTier::memory_bytes)
    }

    /// Check every structural invariant; `true` when consistent.
    pub fn validate(&self) -> bool {
        let segs = self.num_segments();
        let sizes_sum: u64 = (0..segs).map(|i| self.seg_entry(i).1 as u64).sum();
        self.bitmap.len().is_power_of_two()
            && self.bitmap.len() >= 64
            && self.bitmap_bits() == (1usize << self.log2_m)
            && self.summary[..] == build_block_summary(&self.bitmap)[..]
            && self.summary_ones
                == self
                    .summary
                    .iter()
                    .map(|w| w.count_ones() as u64)
                    .sum::<u64>()
            && self.container.as_ref().is_none_or(|c| c.validate(self.n))
            && sizes_sum as usize == self.n
            && self.reordered.len() == self.n + PAD_LEN
            && self.reordered[self.n..].iter().all(|&x| x == PAD_SENTINEL)
            && (0..segs).all(|i| {
                let seg = self.segment(i);
                seg.len() == self.seg_size(i)
                    && seg.windows(2).all(|w| w[0] < w[1])
                    && seg.iter().all(|&x| {
                        let p = hash::position(x, self.log2_m);
                        p / self.lane.bits() == i && self.bitmap[p / 8] & (1 << (p % 8)) != 0
                    })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fesia_simd::SimdLevel;

    fn params() -> FesiaParams {
        FesiaParams::for_level(SimdLevel::Sse)
    }

    #[test]
    fn build_round_trips_membership() {
        let elements: Vec<u32> = (0..2000u32).map(|i| i * 3 + 1).collect();
        let set = SegmentedSet::build(&elements, &params()).unwrap();
        assert_eq!(set.len(), elements.len());
        assert!(set.validate());
        for &x in &elements {
            assert!(set.contains(x), "missing {x}");
        }
        for x in [0u32, 2, 5, 6000, 123_456_789] {
            assert!(!set.contains(x), "phantom {x}");
        }
    }

    #[test]
    fn empty_set() {
        let set = SegmentedSet::build(&[], &params()).unwrap();
        assert!(set.is_empty());
        assert_eq!(set.bitmap_bits(), crate::params::MIN_BITMAP_BITS);
        assert!(set.validate());
        assert!(!set.contains(0));
    }

    #[test]
    fn reordered_is_permutation() {
        let elements: Vec<u32> = (0..777u32)
            .map(|i| i * 7919 % 1_000_003)
            .collect::<Vec<_>>();
        let set = SegmentedSet::from_unsorted(elements.clone(), &params()).unwrap();
        let mut sorted = elements;
        sorted.sort_unstable();
        sorted.dedup();
        let mut got = set.reordered_elements().to_vec();
        got.sort_unstable();
        assert_eq!(got, sorted);
    }

    #[test]
    fn build_rejects_bad_input() {
        assert!(SegmentedSet::build(&[2, 1], &params()).is_err());
        assert!(SegmentedSet::build(&[1, 1], &params()).is_err());
        assert!(SegmentedSet::build(&[u32::MAX], &params()).is_err());
    }

    #[test]
    fn bitmap_scales_with_n() {
        let p = params(); // sqrt(128) ~ 11.3 bits/element
        let small = SegmentedSet::build(&(0..100).collect::<Vec<_>>(), &p).unwrap();
        let large = SegmentedSet::build(&(0..100_000).collect::<Vec<_>>(), &p).unwrap();
        assert!(large.bitmap_bits() > small.bitmap_bits());
        assert!(large.bitmap_bits().is_power_of_two());
        // 100k * 11.3 ~ 1.13M -> 2^21.
        assert_eq!(large.bitmap_bits(), 1 << 21);
    }

    #[test]
    fn u16_segments_supported() {
        let p = params().with_segment(LaneWidth::U16);
        let elements: Vec<u32> = (0..500).map(|i| i * 11).collect();
        let set = SegmentedSet::build(&elements, &p).unwrap();
        assert!(set.validate());
        assert_eq!(set.num_segments(), set.bitmap_bits() / 16);
        for &x in &elements {
            assert!(set.contains(x));
        }
    }

    #[test]
    fn summary_tracks_bitmap_blocks() {
        let elements: Vec<u32> = (0..3000u32).map(|i| i * 7 + 2).collect();
        let set = SegmentedSet::build(&elements, &params()).unwrap();
        assert_eq!(set.summary_words().len(), set.summary_blocks().div_ceil(64));
        for blk in 0..set.summary_blocks() {
            let lo = blk * 64;
            let nonzero = set.bitmap_bytes()[lo..lo + 64].iter().any(|&x| x != 0);
            let bit = (set.summary_words()[blk / 64] >> (blk % 64)) & 1;
            assert_eq!(bit == 1, nonzero, "block {blk}");
        }
        let density = set.summary_density();
        assert!((0.0..=1.0).contains(&density));
        // At the default density every block is populated...
        assert!((density - 1.0).abs() < 1e-9);
        // ...while a deliberately oversized bitmap leaves most blocks empty.
        let sparse =
            SegmentedSet::build(&elements, &params().with_bits_per_element(512.0)).unwrap();
        assert!(sparse.summary_density() < 0.7);
        assert!(sparse.validate());
    }

    #[test]
    fn block_pop_sums_segment_sizes() {
        for lane in [LaneWidth::U8, LaneWidth::U16] {
            let p = params().with_segment(lane);
            let elements: Vec<u32> = (0..3000u32).map(|i| i * 13 + 5).collect();
            let set = SegmentedSet::build(&elements, &p).unwrap();
            let segs_per_block = 512 / lane.bits();
            let mut total = 0usize;
            for blk in 0..set.summary_blocks() {
                let expect: usize = (blk * segs_per_block..(blk + 1) * segs_per_block)
                    .map(|i| set.seg_size(i))
                    .sum();
                assert_eq!(set.block_pop(blk), expect, "lane={lane:?} blk={blk}");
                total += set.block_pop(blk);
            }
            assert_eq!(total, set.len());
        }
    }

    #[test]
    fn memory_accounting_is_sane() {
        let elements: Vec<u32> = (0..10_000).collect();
        let set = SegmentedSet::build(&elements, &params()).unwrap();
        let bytes = set.memory_bytes();
        // At least the raw elements, at most ~20x (bitmap + metadata).
        assert!(bytes >= 4 * elements.len());
        assert!(bytes < 80 * elements.len());
    }

    #[test]
    fn wide_meta_fallback_on_heavy_collisions() {
        // A deliberately undersized bitmap (floor 512 bits, 64 segments)
        // packs ~1000 elements into each segment, exceeding the compact
        // encoding's 8-bit size field.
        let elements: Vec<u32> = (0..70_000u32).map(|i| i * 3).collect();
        let p = params().with_bits_per_element(0.001);
        let set = SegmentedSet::build(&elements, &p).unwrap();
        assert_eq!(set.bitmap_bits(), crate::params::MIN_BITMAP_BITS);
        assert!(matches!(set.seg_meta, SegMeta::Wide(_)));
        assert!(set.validate());
        assert!(set.contains(3 * 1234));
        assert!(!set.contains(1));
        // And a normal set stays compact.
        let small = SegmentedSet::build(&(0..1000).collect::<Vec<_>>(), &params()).unwrap();
        assert!(matches!(small.seg_meta, SegMeta::Compact(_)));
    }

    #[test]
    fn segment_padding_contract_holds() {
        let elements: Vec<u32> = (0..300).map(|i| i * 5).collect();
        let set = SegmentedSet::build(&elements, &params()).unwrap();
        // Reading PAD_LEN elements past any segment start stays in bounds.
        for i in 0..set.num_segments() {
            let ptr = set.seg_ptr(i);
            let upto = set.seg_size(i) + PAD_LEN;
            let off = set.seg_entry(i).0;
            assert!(off + upto <= set.reordered.len());
            // SAFETY: asserted in-bounds above for the real vector length.
            for k in 0..set.seg_size(i) {
                unsafe {
                    assert!(*ptr.add(k) <= MAX_ELEMENT);
                }
            }
        }
    }
}
