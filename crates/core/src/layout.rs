//! The segmented-bitmap layout algorithm (paper §III-B, Fig. 1).
//!
//! Separated from [`crate::SegmentedSet`] so the algorithm can be exercised
//! with *any* hash function and bitmap size — in particular with the paper's
//! worked Example 1 (`h(x) = x mod 12`, `m = 12`, `s = 4`), which our tests
//! reproduce bit for bit.

use crate::container;

/// The four arrays of Fig. 1, before SIMD padding is applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// `m`-bit bitmap, LSB-first within each byte; `ceil(m/8)` bytes.
    pub bitmap: Vec<u8>,
    /// Number of elements mapped into each segment (`m / s` entries).
    pub seg_sizes: Vec<u32>,
    /// Start of each segment's run in `reordered`; has `m / s + 1` entries,
    /// the last being `n`, so segment `i` spans
    /// `reordered[seg_offsets[i] .. seg_offsets[i + 1]]`.
    pub seg_offsets: Vec<u32>,
    /// All elements, grouped by segment, sorted ascending within a segment.
    pub reordered: Vec<u32>,
}

/// Build the segmented-bitmap layout of `elements` under `hash`.
///
/// * `m` — bitmap size in bits; must be a multiple of `s_bits`.
/// * `s_bits` — segment width.
/// * `hash` — maps an element to a bit position in `0..m`.
///
/// `elements` must be sorted ascending and duplicate-free (validated by the
/// caller); sortedness makes the per-segment runs sorted with a single
/// stable counting pass, no comparison sort needed.
pub fn build_layout<H: Fn(u32) -> usize>(
    elements: &[u32],
    m: usize,
    s_bits: usize,
    hash: H,
) -> Layout {
    assert!(
        s_bits == 4 || s_bits == 8 || s_bits == 16,
        "unsupported segment width"
    );
    assert_eq!(
        m % s_bits,
        0,
        "bitmap size must be a multiple of the segment width"
    );
    assert!(m as u64 <= 1 << 32, "bitmap positions must fit in 32 bits");
    let num_segments = m / s_bits;

    let mut bitmap = vec![0u8; m.div_ceil(8)];
    let mut seg_sizes = vec![0u32; num_segments];

    // Pass 1: set bits and count segment populations. Positions are kept
    // as `u32` (m <= 2^32): half the scratch of `usize`, which measurably
    // speeds up building many sets in a row.
    let positions: Vec<u32> = elements
        .iter()
        .map(|&x| {
            let p = hash(x);
            assert!(p < m, "hash produced out-of-range position {p} for m={m}");
            p as u32
        })
        .collect();
    for &p in &positions {
        let p = p as usize;
        bitmap[p / 8] |= 1 << (p % 8);
        seg_sizes[p / s_bits] += 1;
    }

    // Pass 2: prefix sums -> offsets.
    let mut seg_offsets = Vec::with_capacity(num_segments + 1);
    let mut acc = 0u32;
    for &s in &seg_sizes {
        seg_offsets.push(acc);
        acc += s;
    }
    seg_offsets.push(acc);
    debug_assert_eq!(acc as usize, elements.len());

    // Pass 3: scatter. Iterating the (already sorted) input in order keeps
    // each segment's run sorted ascending, as required by the large-by-large
    // kernels (paper §V-C relies on within-segment sortedness).
    let mut cursors: Vec<u32> = seg_offsets[..num_segments].to_vec();
    let mut reordered = vec![0u32; elements.len()];
    for (&x, &p) in elements.iter().zip(&positions) {
        let seg = p as usize / s_bits;
        reordered[cursors[seg] as usize] = x;
        cursors[seg] += 1;
    }

    Layout {
        bitmap,
        seg_sizes,
        seg_offsets,
        reordered,
    }
}

/// Build the container tier from the sorted (strictly ascending) element
/// array: partition the value domain into 65536-value ranges, classify
/// each populated range by `container::classify` (smallest of sorted-`u16`
/// array, 1024-word value bitmap, run list), and pack the directory plus
/// the three payload sections.
///
/// Returns `None` — no tier — below
/// [`container::CONTAINER_MIN_BUILD`] elements, where the whole set is
/// cache-resident and the directory is pure overhead. The gate depends
/// only on the set's contents, so every decode path reproduces the same
/// tier decision deterministically.
pub fn build_container_tier(sorted: &[u32]) -> Option<container::ContainerTier> {
    use container::{classify, encode_dir_entry, encode_run, ContainerKind, WORDS_PER_RANGE};
    if sorted.len() < container::CONTAINER_MIN_BUILD {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
    let mut dir: Vec<u64> = Vec::new();
    let mut values: Vec<u16> = Vec::new();
    let mut words: Vec<u64> = Vec::new();
    let mut runs: Vec<u32> = Vec::new();
    let mut i = 0usize;
    while i < sorted.len() {
        let key = sorted[i] >> container::RANGE_SHIFT;
        let mut j = i + 1;
        while j < sorted.len() && sorted[j] >> container::RANGE_SHIFT == key {
            j += 1;
        }
        let range = &sorted[i..j];
        // Count maximal runs in one pass over the low 16 bits.
        let mut nruns = 1usize;
        for w in range.windows(2) {
            if w[1] != w[0] + 1 {
                nruns += 1;
            }
        }
        let card = range.len();
        let (offset, len, kind) = match classify(card, nruns) {
            ContainerKind::Array => {
                let off = values.len();
                values.extend(range.iter().map(|&v| v as u16));
                (off, card, ContainerKind::Array)
            }
            ContainerKind::Bitmap => {
                let off = words.len();
                words.resize(off + WORDS_PER_RANGE, 0);
                for &v in range {
                    words[off + ((v & 0xffff) >> 6) as usize] |= 1u64 << (v & 63);
                }
                (off, WORDS_PER_RANGE, ContainerKind::Bitmap)
            }
            ContainerKind::Run => {
                let off = runs.len();
                let mut start = range[0] as u16;
                let mut len = 1u32;
                for w in range.windows(2) {
                    if w[1] == w[0] + 1 {
                        len += 1;
                    } else {
                        runs.push(encode_run(start, len));
                        start = w[1] as u16;
                        len = 1;
                    }
                }
                runs.push(encode_run(start, len));
                (off, runs.len() - off, ContainerKind::Run)
            }
        };
        dir.extend(encode_dir_entry(
            key,
            kind,
            card as u32,
            offset as u32,
            len as u32,
        ));
        i = j;
    }
    Some(container::ContainerTier::from_parts(
        dir.into(),
        values.into(),
        words.into(),
        runs.into(),
    ))
}

impl Layout {
    /// The elements of segment `i`, sorted ascending.
    pub fn segment(&self, i: usize) -> &[u32] {
        let lo = self.seg_offsets[i] as usize;
        let hi = self.seg_offsets[i + 1] as usize;
        &self.reordered[lo..hi]
    }

    /// Check internal consistency; used by tests and `debug_assert`s.
    pub fn validate(&self, n: usize) -> bool {
        let segs = self.seg_sizes.len();
        self.seg_offsets.len() == segs + 1
            && self.seg_offsets[0] == 0
            && *self.seg_offsets.last().unwrap() as usize == n
            && self.reordered.len() == n
            && (0..segs).all(|i| {
                self.seg_offsets[i + 1] - self.seg_offsets[i] == self.seg_sizes[i]
                    && self.segment(i).windows(2).all(|w| w[0] < w[1])
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Example 1, set A: the exact arrays of Fig. 1.
    #[test]
    fn paper_example_set_a() {
        let a = [1u32, 4, 15, 21, 32, 34];
        let l = build_layout(&a, 12, 4, |x| (x % 12) as usize);
        // BitmapA = 010110001110 (bit positions 1,3,4,8,9,10).
        let bits: Vec<u8> = (0..12).map(|p| (l.bitmap[p / 8] >> (p % 8)) & 1).collect();
        assert_eq!(bits, [0, 1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0]);
        assert_eq!(l.seg_sizes, vec![2, 1, 3]);
        assert_eq!(l.seg_offsets, vec![0, 2, 3, 6]);
        assert_eq!(l.reordered, vec![1, 15, 4, 21, 32, 34]);
        assert!(l.validate(6));
    }

    /// Paper Example 1, set B.
    ///
    /// Note: Fig. 1 of the paper prints BitmapB as `101010101001` (bit 8
    /// set), but `21 mod 12 = 9`, so the mathematically correct bitmap has
    /// bit 9 set instead — a typo in the figure. Bits 8 and 9 lie in the
    /// same segment, so every downstream value in the example (sizes,
    /// offsets, reordered order, the surviving segments, and the final
    /// intersection) is unaffected; we assert the corrected bitmap.
    #[test]
    fn paper_example_set_b() {
        let b = [2u32, 6, 12, 16, 21, 23];
        let l = build_layout(&b, 12, 4, |x| (x % 12) as usize);
        // Positions {0, 2, 4, 6, 9, 11}.
        let bits: Vec<u8> = (0..12).map(|p| (l.bitmap[p / 8] >> (p % 8)) & 1).collect();
        assert_eq!(bits, [1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1]);
        assert_eq!(l.seg_sizes, vec![2, 2, 2]);
        assert_eq!(l.seg_offsets, vec![0, 2, 4, 6]);
        assert_eq!(l.reordered, vec![2, 12, 6, 16, 21, 23]);
        assert!(l.validate(6));
    }

    /// The two bitmaps of Example 1 AND to exactly segments 1 and 2, and the
    /// segment lists match the paper's narrative ({4} vs {6,16} and
    /// {21,32,34} vs {21,23}).
    #[test]
    fn paper_example_bitmap_and() {
        let la = build_layout(&[1, 4, 15, 21, 32, 34], 12, 4, |x| (x % 12) as usize);
        let lb = build_layout(&[2, 6, 12, 16, 21, 23], 12, 4, |x| (x % 12) as usize);
        let and: Vec<u8> = la
            .bitmap
            .iter()
            .zip(&lb.bitmap)
            .map(|(a, b)| a & b)
            .collect();
        // Bits 4 and 9 survive (the paper's figure shows bit 8 due to the
        // BitmapB typo; see `paper_example_set_b`) -> segments 1 and 2
        // non-zero, exactly as the paper's narrative states.
        let bits: Vec<u8> = (0..12).map(|p| (and[p / 8] >> (p % 8)) & 1).collect();
        assert_eq!(bits, [0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0]);
        assert_eq!(la.segment(1), &[4]);
        assert_eq!(lb.segment(1), &[6, 16]);
        assert_eq!(la.segment(2), &[21, 32, 34]);
        assert_eq!(lb.segment(2), &[21, 23]);
    }

    #[test]
    fn empty_set_layout() {
        let l = build_layout(&[], 64, 8, |x| (x % 64) as usize);
        assert!(l.bitmap.iter().all(|&b| b == 0));
        assert!(l.seg_sizes.iter().all(|&s| s == 0));
        assert!(l.reordered.is_empty());
        assert!(l.validate(0));
    }

    #[test]
    fn segments_partition_the_input() {
        let elements: Vec<u32> = (0..500).map(|i| i * 37 + 11).collect();
        let l = build_layout(&elements, 1024, 8, |x| {
            (((x as u64 * 2654435761) >> 16) % 1024) as usize
        });
        assert!(l.validate(elements.len()));
        let mut all: Vec<u32> = l.reordered.clone();
        all.sort_unstable();
        assert_eq!(all, elements);
        // Every element's bit is set.
        for &x in &elements {
            let p = (((x as u64 * 2654435761) >> 16) % 1024) as usize;
            assert_ne!(l.bitmap[p / 8] & (1 << (p % 8)), 0);
        }
    }

    #[test]
    fn collision_heavy_layout_stays_sorted() {
        // All elements in one segment.
        let elements: Vec<u32> = (0..64).collect();
        let l = build_layout(&elements, 64, 8, |_| 3usize);
        assert_eq!(l.seg_sizes[0], 64);
        assert_eq!(l.segment(0), &elements[..]);
        assert!(l.validate(64));
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn out_of_range_hash_panics() {
        build_layout(&[1], 64, 8, |_| 64usize);
    }
}
