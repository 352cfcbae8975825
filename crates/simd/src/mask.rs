//! Lane-mask primitives for FESIA's bitmap-level intersection (paper §IV).
//!
//! Step 1 of FESIA streams two bitmaps, ANDs them (`vandps` in the paper),
//! compares every `s`-bit *segment lane* against zero (`pcmpeq*`), extracts a
//! dense mask of the non-zero lanes (`pextrb`/`movemask`), and iterates its
//! set bits (`tzcnt`). This module implements that pipeline for every
//! [`SimdLevel`]:
//!
//! * **Scalar** — 64-bit word tricks (the classic "has-zero-byte" carry
//!   trick) so the fallback still processes 8 lanes per iteration.
//! * **SSE** — 16 bytes per iteration via `_mm_cmpeq_epi8` + `movemask`.
//! * **AVX2** — 32 bytes per iteration.
//! * **AVX-512** — 64 bytes per iteration via `_mm512_test_epi8_mask`,
//!   which yields the non-zero-lane mask in a single instruction.
//!
//! Both supported segment widths (`s = 8` and `s = 16` bits) are provided.
//!
//! # Preconditions
//!
//! All functions require `a.len() == b.len()` and `a.len() % 64 == 0`; the
//! segmented-set builder guarantees this by enforcing a minimum bitmap of
//! 512 bits. The *folded* variants additionally require `small.len()` to be
//! a power of two (at least 64), matching the paper's power-of-two bitmap
//! rule for sets of different sizes (§III-C).

use crate::features::SimdLevel;
use crate::util::SetBits;

/// Bytes of bitmap covered by one summary bit: one 512-bit SIMD block.
pub const SUMMARY_BLOCK_BYTES: usize = 64;

/// How step 1 combines the two bitmaps before the non-zero-lane extract.
///
/// `And` is the paper's intersection filter. The other combiners support
/// the materializing set-algebra ops: an `Or` scan visits every segment
/// that is non-empty on *either* side, which is the sound driver for
/// union / difference / xor at the element level (element-level ANDNOT or
/// XOR scans would be unsound — two distinct elements can hash to the
/// same bit position, making the lanes equal on both sides even though
/// the symmetric difference is non-empty). `AndNotB` and `Xor` are still
/// provided for bitmap-level consumers and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskOp {
    /// `a & b` — lanes where both sides have bits (intersection filter).
    And,
    /// `a | b` — lanes where either side has bits (union superset scan).
    Or,
    /// `a & !b` — lanes where `a` has bits that `b` lacks.
    AndNotB,
    /// `a ^ b` — lanes where the sides differ.
    Xor,
}

impl MaskOp {
    /// Apply the combiner to one 64-bit word pair.
    #[inline(always)]
    pub fn apply_u64(self, a: u64, b: u64) -> u64 {
        match self {
            MaskOp::And => a & b,
            MaskOp::Or => a | b,
            MaskOp::AndNotB => a & !b,
            MaskOp::Xor => a ^ b,
        }
    }

    /// Short lowercase name (for logs and bench labels).
    pub fn name(self) -> &'static str {
        match self {
            MaskOp::And => "and",
            MaskOp::Or => "or",
            MaskOp::AndNotB => "andnot",
            MaskOp::Xor => "xor",
        }
    }
}

/// Which segment-lane width the bitmap uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneWidth {
    /// 8-bit segments: one byte per segment.
    U8,
    /// 16-bit segments: two bytes per segment.
    U16,
}

impl LaneWidth {
    /// Bytes per segment lane.
    #[inline]
    pub const fn bytes(self) -> usize {
        match self {
            LaneWidth::U8 => 1,
            LaneWidth::U16 => 2,
        }
    }

    /// Bits per segment lane (the paper's `s`).
    #[inline]
    pub const fn bits(self) -> usize {
        self.bytes() * 8
    }
}

// ---------------------------------------------------------------------------
// Scalar word primitives (exported for tests and for the scalar path).
// ---------------------------------------------------------------------------

const LO7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
const HI1: u64 = 0x8080_8080_8080_8080;
const LO15: u64 = 0x7fff_7fff_7fff_7fff;
const HI16: u64 = 0x8000_8000_8000_8000;

/// For each byte lane of `w`, set bit `8*i + 7` iff byte `i` is non-zero.
///
/// Classic carry trick: adding `0x7f` to a byte carries into bit 7 iff any
/// of bits 0..=6 are set; OR-ing `w` back in covers bit 7 itself.
#[inline]
pub fn nonzero_byte_flags(w: u64) -> u64 {
    (((w & LO7).wrapping_add(LO7)) | w) & HI1
}

/// For each 16-bit lane of `w`, set bit `16*i + 15` iff lane `i` is non-zero.
#[inline]
pub fn nonzero_u16_flags(w: u64) -> u64 {
    (((w & LO15).wrapping_add(LO15)) | w) & HI16
}

// ---------------------------------------------------------------------------
// Per-ISA slice processors. Each visits every non-zero AND lane, passing the
// lane (= segment) index to `f`. `IDX` maps the large-side lane index to the
// small-side byte offset for the folded case; for the same-size case it is
// the identity.
// ---------------------------------------------------------------------------

#[inline(always)]
fn scalar_impl<F: FnMut(usize)>(
    op: MaskOp,
    lane: LaneWidth,
    a: &[u8],
    b: &[u8],
    small_mask: usize,
    f: &mut F,
) {
    debug_assert_eq!(a.len() % 8, 0);
    let words = a.len() / 8;
    for wi in 0..words {
        let off_a = wi * 8;
        let off_b = off_a & small_mask;
        let wa = u64::from_le_bytes(a[off_a..off_a + 8].try_into().unwrap());
        let wb = u64::from_le_bytes(b[off_b..off_b + 8].try_into().unwrap());
        let v = op.apply_u64(wa, wb);
        if v == 0 {
            continue;
        }
        match lane {
            LaneWidth::U8 => {
                for bit in SetBits(nonzero_byte_flags(v)) {
                    f(off_a + (bit as usize >> 3));
                }
            }
            LaneWidth::U16 => {
                for bit in SetBits(nonzero_u16_flags(v)) {
                    f(off_a / 2 + (bit as usize >> 4));
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// # Safety
    /// Requires SSE4.2. `a.len() == b.len()`, `a.len() % 16 == 0`;
    /// `small_mask + 1` must be a power of two multiple of 16 covering `b`.
    #[target_feature(enable = "sse4.2")]
    pub unsafe fn sse_impl<F: FnMut(usize)>(
        op: MaskOp,
        lane: LaneWidth,
        a: &[u8],
        b: &[u8],
        small_mask: usize,
        f: &mut F,
    ) {
        let zero = _mm_setzero_si128();
        let blocks = a.len() / 16;
        for bi in 0..blocks {
            let off = bi * 16;
            let va = _mm_loadu_si128(a.as_ptr().add(off) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(off & small_mask) as *const __m128i);
            let v = match op {
                MaskOp::And => _mm_and_si128(va, vb),
                MaskOp::Or => _mm_or_si128(va, vb),
                // andnot computes !first & second, so the operands swap.
                MaskOp::AndNotB => _mm_andnot_si128(vb, va),
                MaskOp::Xor => _mm_xor_si128(va, vb),
            };
            match lane {
                LaneWidth::U8 => {
                    let zmask = _mm_movemask_epi8(_mm_cmpeq_epi8(v, zero)) as u32;
                    let nz = !zmask & 0xFFFF;
                    for bit in SetBits(nz as u64) {
                        f(off + bit as usize);
                    }
                }
                LaneWidth::U16 => {
                    let zmask = _mm_movemask_epi8(_mm_cmpeq_epi16(v, zero)) as u32;
                    // Two mask bits per 16-bit lane; test the even bit.
                    let nz = !zmask & 0x5555;
                    for bit in SetBits(nz as u64) {
                        f(off / 2 + (bit as usize >> 1));
                    }
                }
            }
        }
    }

    /// # Safety
    /// Requires AVX2. Same slice preconditions with 32-byte blocks.
    #[target_feature(enable = "avx2")]
    pub unsafe fn avx2_impl<F: FnMut(usize)>(
        op: MaskOp,
        lane: LaneWidth,
        a: &[u8],
        b: &[u8],
        small_mask: usize,
        f: &mut F,
    ) {
        let zero = _mm256_setzero_si256();
        let blocks = a.len() / 32;
        for bi in 0..blocks {
            let off = bi * 32;
            let va = _mm256_loadu_si256(a.as_ptr().add(off) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(off & small_mask) as *const __m256i);
            let v = match op {
                MaskOp::And => _mm256_and_si256(va, vb),
                MaskOp::Or => _mm256_or_si256(va, vb),
                MaskOp::AndNotB => _mm256_andnot_si256(vb, va),
                MaskOp::Xor => _mm256_xor_si256(va, vb),
            };
            match lane {
                LaneWidth::U8 => {
                    let zmask = _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero)) as u32;
                    let nz = !zmask;
                    for bit in SetBits(nz as u64) {
                        f(off + bit as usize);
                    }
                }
                LaneWidth::U16 => {
                    let zmask = _mm256_movemask_epi8(_mm256_cmpeq_epi16(v, zero)) as u32;
                    let nz = !zmask & 0x5555_5555;
                    for bit in SetBits(nz as u64) {
                        f(off / 2 + (bit as usize >> 1));
                    }
                }
            }
        }
    }

    /// # Safety
    /// Requires AVX-512 F+BW. Same slice preconditions with 64-byte blocks.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn avx512_impl<F: FnMut(usize)>(
        op: MaskOp,
        lane: LaneWidth,
        a: &[u8],
        b: &[u8],
        small_mask: usize,
        f: &mut F,
    ) {
        let blocks = a.len() / 64;
        for bi in 0..blocks {
            let off = bi * 64;
            let va = _mm512_loadu_si512(a.as_ptr().add(off) as *const _);
            let vb = _mm512_loadu_si512(b.as_ptr().add(off & small_mask) as *const _);
            let v = match op {
                MaskOp::And => _mm512_and_si512(va, vb),
                MaskOp::Or => _mm512_or_si512(va, vb),
                MaskOp::AndNotB => _mm512_andnot_si512(vb, va),
                MaskOp::Xor => _mm512_xor_si512(va, vb),
            };
            match lane {
                LaneWidth::U8 => {
                    let nz = _mm512_test_epi8_mask(v, v);
                    for bit in SetBits(nz) {
                        f(off + bit as usize);
                    }
                }
                LaneWidth::U16 => {
                    let nz = _mm512_test_epi16_mask(v, v);
                    for bit in SetBits(nz as u64) {
                        f(off / 2 + bit as usize);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Safe dispatchers.
// ---------------------------------------------------------------------------

fn dispatch<F: FnMut(usize)>(
    level: SimdLevel,
    op: MaskOp,
    lane: LaneWidth,
    a: &[u8],
    b: &[u8],
    small_mask: usize,
    mut f: F,
) {
    assert_eq!(
        a.len() % 64,
        0,
        "bitmap length must be a multiple of 64 bytes"
    );
    assert!(
        level.is_available(),
        "SIMD level {level} not available on this CPU"
    );
    match level {
        SimdLevel::Scalar => scalar_impl(op, lane, a, b, small_mask, &mut f),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse => unsafe { x86::sse_impl(op, lane, a, b, small_mask, &mut f) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::avx2_impl(op, lane, a, b, small_mask, &mut f) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { x86::avx512_impl(op, lane, a, b, small_mask, &mut f) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("non-scalar level reported available on non-x86_64"),
    }
}

/// AND two equal-length bitmaps and invoke `f(segment_index)` for every
/// non-zero `s`-bit lane of the result (FESIA step 1, same bitmap size).
///
/// # Panics
/// Panics if the lengths differ, are not multiples of 64 bytes, or `level`
/// is unavailable on this CPU.
pub fn for_each_nonzero_lane<F: FnMut(usize)>(
    level: SimdLevel,
    lane: LaneWidth,
    a: &[u8],
    b: &[u8],
    f: F,
) {
    for_each_nonzero_lane_op(level, MaskOp::And, lane, a, b, f);
}

/// [`for_each_nonzero_lane`] with an explicit bitmap combiner: combine two
/// equal-length bitmaps with `op` and invoke `f(segment_index)` for every
/// non-zero `s`-bit lane of the result.
///
/// # Panics
/// Panics on the preconditions of [`for_each_nonzero_lane`].
pub fn for_each_nonzero_lane_op<F: FnMut(usize)>(
    level: SimdLevel,
    op: MaskOp,
    lane: LaneWidth,
    a: &[u8],
    b: &[u8],
    f: F,
) {
    assert_eq!(a.len(), b.len(), "bitmaps must have equal length");
    dispatch(level, op, lane, a, b, usize::MAX, f);
}

/// AND a large bitmap against a smaller power-of-two bitmap that logically
/// tiles it (paper §III-C), invoking `f(large_segment_index)` for every
/// non-zero lane. The small-side lane is `large_index mod small_lanes`.
///
/// # Panics
/// Panics if `small.len()` is not a power of two at least 64, if `large` is
/// shorter than `small`, or on the shared preconditions of
/// [`for_each_nonzero_lane`].
pub fn for_each_nonzero_lane_folded<F: FnMut(usize)>(
    level: SimdLevel,
    lane: LaneWidth,
    large: &[u8],
    small: &[u8],
    f: F,
) {
    for_each_nonzero_lane_folded_op(level, MaskOp::And, lane, large, small, f);
}

/// [`for_each_nonzero_lane_folded`] with an explicit bitmap combiner: the
/// small bitmap logically tiles the large one and each large lane is
/// combined with its folded small lane via `op`.
///
/// # Panics
/// Panics on the preconditions of [`for_each_nonzero_lane_folded`].
pub fn for_each_nonzero_lane_folded_op<F: FnMut(usize)>(
    level: SimdLevel,
    op: MaskOp,
    lane: LaneWidth,
    large: &[u8],
    small: &[u8],
    f: F,
) {
    assert!(
        small.len().is_power_of_two() && small.len() >= 64,
        "small bitmap must be a power of two of at least 64 bytes"
    );
    assert!(
        large.len() >= small.len(),
        "large bitmap shorter than small"
    );
    dispatch(level, op, lane, large, small, small.len() - 1, f);
}

// ---------------------------------------------------------------------------
// Word-level bitmap kernels (container tier: plain value-domain bitmaps).
//
// Unlike the lane scans above, these operate on *value-domain* `u64` word
// bitmaps (bit `i` of word `w` ⇔ value `64*w + i` present) where every set
// bit is exact — no hashing, no segment lanes. Combining two such bitmaps
// with any [`MaskOp`] and popcounting the result *is* the set operation's
// cardinality, so all four ops are sound here (the Or-scan restriction of
// the hashed path does not apply). The popcount uses the Harley-Seal-style
// nibble LUT (`pshufb` on a 0..=4 table + `psadbw` accumulation), which
// needs no `popcnt` CPUID bit beyond the baseline ISA of each level.
// ---------------------------------------------------------------------------

#[inline(always)]
fn word_scalar_impl(op: MaskOp, a: &[u64], b: &[u64], out: *mut u64) -> u64 {
    let mut ones = 0u64;
    for i in 0..a.len() {
        let v = op.apply_u64(a[i], b[i]);
        ones += u64::from(v.count_ones());
        if !out.is_null() {
            // SAFETY: caller guarantees `out` covers `a.len()` words.
            unsafe { *out.add(i) = v };
        }
    }
    ones
}

#[cfg(target_arch = "x86_64")]
mod word_x86 {
    use super::MaskOp;
    use core::arch::x86_64::*;

    /// # Safety
    /// Requires SSE4.2. `a`/`b` must hold `words` readable `u64`s with
    /// `words % 2 == 0`; `out` is null or covers `words` writable `u64`s.
    #[target_feature(enable = "sse4.2")]
    pub unsafe fn word_sse(
        op: MaskOp,
        a: *const u64,
        b: *const u64,
        words: usize,
        out: *mut u64,
    ) -> u64 {
        let lut = _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
        let low = _mm_set1_epi8(0x0f);
        let zero = _mm_setzero_si128();
        let mut acc = zero;
        let mut i = 0;
        while i < words {
            let va = _mm_loadu_si128(a.add(i) as *const __m128i);
            let vb = _mm_loadu_si128(b.add(i) as *const __m128i);
            let v = match op {
                MaskOp::And => _mm_and_si128(va, vb),
                MaskOp::Or => _mm_or_si128(va, vb),
                // andnot computes !first & second, so the operands swap.
                MaskOp::AndNotB => _mm_andnot_si128(vb, va),
                MaskOp::Xor => _mm_xor_si128(va, vb),
            };
            if !out.is_null() {
                _mm_storeu_si128(out.add(i) as *mut __m128i, v);
            }
            let lo = _mm_shuffle_epi8(lut, _mm_and_si128(v, low));
            let hi = _mm_shuffle_epi8(lut, _mm_and_si128(_mm_srli_epi16(v, 4), low));
            acc = _mm_add_epi64(acc, _mm_sad_epu8(_mm_add_epi8(lo, hi), zero));
            i += 2;
        }
        let mut lanes = [0u64; 2];
        _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, acc);
        lanes[0] + lanes[1]
    }

    /// # Safety
    /// Requires AVX2. Same contract as [`word_sse`] with `words % 4 == 0`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn word_avx2(
        op: MaskOp,
        a: *const u64,
        b: *const u64,
        words: usize,
        out: *mut u64,
    ) -> u64 {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let zero = _mm256_setzero_si256();
        let mut acc = zero;
        let mut i = 0;
        while i < words {
            let va = _mm256_loadu_si256(a.add(i) as *const __m256i);
            let vb = _mm256_loadu_si256(b.add(i) as *const __m256i);
            let v = match op {
                MaskOp::And => _mm256_and_si256(va, vb),
                MaskOp::Or => _mm256_or_si256(va, vb),
                MaskOp::AndNotB => _mm256_andnot_si256(vb, va),
                MaskOp::Xor => _mm256_xor_si256(va, vb),
            };
            if !out.is_null() {
                _mm256_storeu_si256(out.add(i) as *mut __m256i, v);
            }
            let lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, low));
            let hi = _mm256_shuffle_epi8(lut, _mm256_and_si256(_mm256_srli_epi16(v, 4), low));
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(_mm256_add_epi8(lo, hi), zero));
            i += 4;
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        lanes[0] + lanes[1] + lanes[2] + lanes[3]
    }

    /// # Safety
    /// Requires AVX-512 F+BW. Same contract as [`word_sse`] with
    /// `words % 8 == 0`.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn word_avx512(
        op: MaskOp,
        a: *const u64,
        b: *const u64,
        words: usize,
        out: *mut u64,
    ) -> u64 {
        let lut = _mm512_broadcast_i32x4(_mm_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        ));
        let low = _mm512_set1_epi8(0x0f);
        let zero = _mm512_setzero_si512();
        let mut acc = zero;
        let mut i = 0;
        while i < words {
            let va = _mm512_loadu_si512(a.add(i) as *const _);
            let vb = _mm512_loadu_si512(b.add(i) as *const _);
            let v = match op {
                MaskOp::And => _mm512_and_si512(va, vb),
                MaskOp::Or => _mm512_or_si512(va, vb),
                MaskOp::AndNotB => _mm512_andnot_si512(vb, va),
                MaskOp::Xor => _mm512_xor_si512(va, vb),
            };
            if !out.is_null() {
                _mm512_storeu_si512(out.add(i) as *mut _, v);
            }
            let lo = _mm512_shuffle_epi8(lut, _mm512_and_si512(v, low));
            let hi = _mm512_shuffle_epi8(lut, _mm512_and_si512(_mm512_srli_epi64(v, 4), low));
            acc = _mm512_add_epi64(acc, _mm512_sad_epu8(_mm512_add_epi8(lo, hi), zero));
            i += 8;
        }
        _mm512_reduce_add_epi64(acc) as u64
    }
}

fn word_dispatch(level: SimdLevel, op: MaskOp, a: &[u64], b: &[u64], out: *mut u64) -> u64 {
    assert_eq!(a.len(), b.len(), "word bitmaps must have equal length");
    assert_eq!(
        a.len() % 8,
        0,
        "word bitmap length must be a multiple of 8 words (64 bytes)"
    );
    assert!(
        level.is_available(),
        "SIMD level {level} not available on this CPU"
    );
    match level {
        SimdLevel::Scalar => word_scalar_impl(op, a, b, out),
        // SAFETY: availability asserted above; lengths are multiples of 8
        // words, covering every per-ISA block size; `out` (when non-null)
        // is sized by the safe wrappers.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse => unsafe { word_x86::word_sse(op, a.as_ptr(), b.as_ptr(), a.len(), out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { word_x86::word_avx2(op, a.as_ptr(), b.as_ptr(), a.len(), out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe {
            word_x86::word_avx512(op, a.as_ptr(), b.as_ptr(), a.len(), out)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("non-scalar level reported available on non-x86_64"),
    }
}

/// Combine two equal-length value-domain word bitmaps with `op` and return
/// the popcount of the result without materializing it. For `MaskOp::And`
/// this is the exact intersection cardinality of the two bitmaps.
///
/// # Panics
/// Panics if the lengths differ, are not multiples of 8 words (64 bytes),
/// or `level` is unavailable on this CPU.
pub fn word_op_count(level: SimdLevel, op: MaskOp, a: &[u64], b: &[u64]) -> u64 {
    word_dispatch(level, op, a, b, core::ptr::null_mut())
}

/// Combine two equal-length value-domain word bitmaps with `op`, store the
/// combined words into `out`, and return the popcount of the result.
///
/// # Panics
/// Panics on the preconditions of [`word_op_count`], or if `out` is not
/// exactly as long as `a`.
pub fn word_op_into(level: SimdLevel, op: MaskOp, a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
    assert_eq!(out.len(), a.len(), "output must match input length");
    word_dispatch(level, op, a, b, out.as_mut_ptr())
}

// ---------------------------------------------------------------------------
// Summary bitmaps and the pruned scan (hierarchical two-level filtering).
// ---------------------------------------------------------------------------

/// Number of `u64` summary words covering a bitmap of `bitmap_len` bytes.
#[inline]
pub const fn summary_len(bitmap_len: usize) -> usize {
    bitmap_len.div_ceil(SUMMARY_BLOCK_BYTES).div_ceil(64)
}

/// Build the one-bit-per-block summary of `bitmap`: bit `i` of the result
/// (LSB-first within each `u64` word) is set iff the `i`-th
/// [`SUMMARY_BLOCK_BYTES`]-byte block of the bitmap contains any set bit.
/// A trailing partial block (possible only for bitmaps below the
/// segmented-set 64-byte floor) gets the final bit.
pub fn build_block_summary(bitmap: &[u8]) -> Vec<u64> {
    let mut out = vec![0u64; summary_len(bitmap.len())];
    for (blk, chunk) in bitmap.chunks(SUMMARY_BLOCK_BYTES).enumerate() {
        if chunk.iter().any(|&x| x != 0) {
            out[blk / 64] |= 1 << (blk % 64);
        }
    }
    out
}

/// Replicate the low `bits` bits of `pattern` across a full `u64`.
/// `bits` must be a power of two below 64.
fn replicate_low_bits(pattern: u64, bits: usize) -> u64 {
    debug_assert!(bits.is_power_of_two() && bits < 64);
    let mut rep = pattern & ((1u64 << bits) - 1);
    let mut b = bits;
    while b < 64 {
        rep |= rep << b;
        b <<= 1;
    }
    rep
}

// ---------------------------------------------------------------------------
// Summary-level threshold filter (tier 2 of the similarity-join cascade).
// ---------------------------------------------------------------------------

/// Walk the AND of two block summaries and accumulate, per surviving
/// block, the caller-supplied bound `block_min_pop(large_blk, small_blk)`
/// on how many intersection elements that block pair can contribute
/// (`min` of the two sides' exact block populations is sound: every
/// common element occupies the same block position on both sides, folded
/// or not, so a block's contribution is capped by either side's count).
///
/// Returns `Some(bound)` — a sound upper bound on |A ∩ B|, strictly below
/// `threshold` — when the scan completes without reaching `threshold`,
/// i.e. the pair can be **rejected** with no segment work at all. Returns
/// `None` ("cannot reject") as soon as the running bound reaches
/// `threshold`, which on non-rejectable pairs keeps the filter cost
/// proportional to the threshold rather than to the bitmap size.
///
/// The small summary logically tiles the large one exactly as the bitmaps
/// do (see [`for_each_nonzero_lane_folded`]); pass equal block counts for
/// the same-size case. Invalid high bits of a trailing partial summary
/// word must be zero ([`build_block_summary`] guarantees this), so the
/// AND can never surface an out-of-range block index.
///
/// # Panics
/// Panics if `small_blocks` is zero, not a power of two, or exceeds the
/// large side's block count implied by `sum_large`.
pub fn summary_min_bound<F: FnMut(usize, usize) -> u64>(
    sum_large: &[u64],
    sum_small: &[u64],
    small_blocks: usize,
    threshold: u64,
    mut block_min_pop: F,
) -> Option<u64> {
    assert!(
        small_blocks.is_power_of_two(),
        "small block count must be a power of two"
    );
    assert!(
        sum_large.len() * 64 >= small_blocks && sum_small.len() == small_blocks.div_ceil(64),
        "summary/block-count mismatch"
    );
    if threshold == 0 {
        return None; // every pair meets a zero threshold
    }
    let mut bound = 0u64;
    if small_blocks >= 64 {
        // The small summary is whole words; word w of the large summary
        // tiles against small word `w mod tile_words`, and matching bits
        // within a word pair are the same block position on both sides.
        let tile_words = small_blocks / 64;
        for (w, &wl) in sum_large.iter().enumerate() {
            let sw = w % tile_words;
            let v = wl & sum_small[sw];
            if v == 0 {
                continue;
            }
            for bit in SetBits(v) {
                bound += block_min_pop(w * 64 + bit as usize, sw * 64 + bit as usize);
                if bound >= threshold {
                    return None;
                }
            }
        }
    } else {
        // The whole small summary is a sub-word pattern; replicate it so
        // every large word ANDs against the same tiled word. The small
        // block index is `bit mod small_blocks` because `small_blocks`
        // divides 64.
        let rep = replicate_low_bits(sum_small[0], small_blocks);
        for (w, &wl) in sum_large.iter().enumerate() {
            let v = wl & rep;
            if v == 0 {
                continue;
            }
            for bit in SetBits(v) {
                bound += block_min_pop(w * 64 + bit as usize, bit as usize % small_blocks);
                if bound >= threshold {
                    return None;
                }
            }
        }
    }
    Some(bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_lanes_op(
        op: MaskOp,
        lane: LaneWidth,
        a: &[u8],
        b: &[u8],
        small_mask: usize,
    ) -> Vec<usize> {
        let lb = lane.bytes();
        let mut out = Vec::new();
        for seg in 0..a.len() / lb {
            let mut nonzero = false;
            for k in 0..lb {
                let ai = seg * lb + k;
                let bi = ((seg * lb) & small_mask) + k;
                if op.apply_u64(a[ai] as u64, b[bi] as u64) & 0xff != 0 {
                    nonzero = true;
                }
            }
            if nonzero {
                out.push(seg);
            }
        }
        out
    }

    fn reference_lanes(lane: LaneWidth, a: &[u8], b: &[u8], small_mask: usize) -> Vec<usize> {
        reference_lanes_op(MaskOp::And, lane, a, b, small_mask)
    }

    const ALL_OPS: [MaskOp; 4] = [MaskOp::And, MaskOp::Or, MaskOp::AndNotB, MaskOp::Xor];

    fn pseudo_random_bytes(len: usize, seed: u64, density_shift: u32) -> Vec<u8> {
        // SplitMix64-driven bytes, sparsified so most lanes are zero.
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                if z & ((1 << density_shift) - 1) == 0 {
                    (z >> 56) as u8
                } else {
                    0
                }
            })
            .collect()
    }

    #[test]
    fn nonzero_byte_flags_matches_bytes() {
        for w in [
            0u64,
            1,
            0x100,
            0xff00ff00ff00ff00,
            u64::MAX,
            0x0102030405060708,
        ] {
            let flags = nonzero_byte_flags(w);
            for i in 0..8 {
                let byte = (w >> (8 * i)) & 0xff;
                let flag = (flags >> (8 * i + 7)) & 1;
                assert_eq!(flag == 1, byte != 0, "w={w:#x} byte {i}");
            }
        }
    }

    #[test]
    fn nonzero_u16_flags_matches_lanes() {
        for w in [0u64, 1, 0x1_0000, 0x8000_0000_0000_0000, u64::MAX] {
            let flags = nonzero_u16_flags(w);
            for i in 0..4 {
                let lane = (w >> (16 * i)) & 0xffff;
                let flag = (flags >> (16 * i + 15)) & 1;
                assert_eq!(flag == 1, lane != 0, "w={w:#x} lane {i}");
            }
        }
    }

    #[test]
    fn all_levels_match_reference_same_size() {
        for &len in &[64usize, 128, 512, 4096] {
            let a = pseudo_random_bytes(len, 1, 2);
            let b = pseudo_random_bytes(len, 7, 2);
            for lane in [LaneWidth::U8, LaneWidth::U16] {
                let expect = reference_lanes(lane, &a, &b, usize::MAX);
                for level in SimdLevel::available_levels() {
                    let mut got = Vec::new();
                    for_each_nonzero_lane(level, lane, &a, &b, |i| got.push(i));
                    got.sort_unstable();
                    assert_eq!(got, expect, "level={level} lane={lane:?} len={len}");
                }
            }
        }
    }

    #[test]
    fn all_levels_match_reference_folded() {
        let large = pseudo_random_bytes(1024, 3, 1);
        for &small_len in &[64usize, 128, 256] {
            let small = pseudo_random_bytes(small_len, 9, 1);
            for lane in [LaneWidth::U8, LaneWidth::U16] {
                let expect = reference_lanes(lane, &large, &small, small_len - 1);
                for level in SimdLevel::available_levels() {
                    let mut got = Vec::new();
                    for_each_nonzero_lane_folded(level, lane, &large, &small, |i| got.push(i));
                    got.sort_unstable();
                    assert_eq!(got, expect, "level={level} lane={lane:?} small={small_len}");
                }
            }
        }
    }

    #[test]
    fn all_ops_match_reference_same_size() {
        for &len in &[64usize, 128, 512, 4096] {
            let a = pseudo_random_bytes(len, 5, 2);
            let b = pseudo_random_bytes(len, 13, 2);
            for op in ALL_OPS {
                for lane in [LaneWidth::U8, LaneWidth::U16] {
                    let expect = reference_lanes_op(op, lane, &a, &b, usize::MAX);
                    for level in SimdLevel::available_levels() {
                        let mut got = Vec::new();
                        for_each_nonzero_lane_op(level, op, lane, &a, &b, |i| got.push(i));
                        got.sort_unstable();
                        assert_eq!(
                            got, expect,
                            "op={op:?} level={level} lane={lane:?} len={len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_ops_match_reference_folded() {
        let large = pseudo_random_bytes(1024, 17, 1);
        for &small_len in &[64usize, 128, 256] {
            let small = pseudo_random_bytes(small_len, 23, 1);
            for op in ALL_OPS {
                for lane in [LaneWidth::U8, LaneWidth::U16] {
                    let expect = reference_lanes_op(op, lane, &large, &small, small_len - 1);
                    for level in SimdLevel::available_levels() {
                        let mut got = Vec::new();
                        for_each_nonzero_lane_folded_op(level, op, lane, &large, &small, |i| {
                            got.push(i)
                        });
                        got.sort_unstable();
                        assert_eq!(
                            got, expect,
                            "op={op:?} level={level} lane={lane:?} small={small_len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn or_scan_covers_both_sides_and_andnot_is_asymmetric() {
        let mut a = vec![0u8; 128];
        let mut b = vec![0u8; 128];
        a[3] = 1; // lane 3 only in a
        b[70] = 1; // lane 70 only in b
        a[100] = 2;
        b[100] = 2; // lane 100 in both
        let lanes = |op| {
            let mut got = Vec::new();
            for_each_nonzero_lane_op(SimdLevel::Scalar, op, LaneWidth::U8, &a, &b, |i| {
                got.push(i)
            });
            got
        };
        assert_eq!(lanes(MaskOp::And), vec![100]);
        assert_eq!(lanes(MaskOp::Or), vec![3, 70, 100]);
        assert_eq!(lanes(MaskOp::AndNotB), vec![3]);
        assert_eq!(lanes(MaskOp::Xor), vec![3, 70]);
    }

    #[test]
    fn dense_bitmaps_report_every_lane() {
        let a = vec![0xffu8; 256];
        let b = vec![0xffu8; 256];
        for level in SimdLevel::available_levels() {
            let mut count = 0;
            for_each_nonzero_lane(level, LaneWidth::U8, &a, &b, |_| count += 1);
            assert_eq!(count, 256);
            let mut count16 = 0;
            for_each_nonzero_lane(level, LaneWidth::U16, &a, &b, |_| count16 += 1);
            assert_eq!(count16, 128);
        }
    }

    #[test]
    fn disjoint_bitmaps_report_nothing() {
        let a = vec![0b0101_0101u8; 128];
        let b = vec![0b1010_1010u8; 128];
        for level in SimdLevel::available_levels() {
            for_each_nonzero_lane(level, LaneWidth::U8, &a, &b, |i| {
                panic!("unexpected lane {i} at level {level}")
            });
        }
    }

    #[test]
    fn summary_builder_matches_blocks() {
        for &len in &[0usize, 2, 64, 65, 640, 4096, 4160] {
            let bm = pseudo_random_bytes(len, 11, 3);
            let sum = build_block_summary(&bm);
            assert_eq!(sum.len(), summary_len(len));
            for (blk, chunk) in bm.chunks(SUMMARY_BLOCK_BYTES).enumerate() {
                let bit = (sum[blk / 64] >> (blk % 64)) & 1;
                assert_eq!(
                    bit == 1,
                    chunk.iter().any(|&x| x != 0),
                    "len={len} blk={blk}"
                );
            }
            // Invalid high bits of the last word stay zero.
            let blocks = len.div_ceil(SUMMARY_BLOCK_BYTES);
            if blocks % 64 != 0 && !sum.is_empty() {
                assert_eq!(sum[blocks / 64] >> (blocks % 64), 0);
            }
        }
    }

    #[test]
    fn replicate_low_bits_tiles_the_pattern() {
        for bits in [1usize, 2, 4, 8, 16, 32] {
            let rep = replicate_low_bits((0b1011 & ((1 << bits) - 1)) | 1, bits);
            for i in 0..64 {
                assert_eq!((rep >> i) & 1, (rep >> (i % bits)) & 1, "bits={bits} i={i}");
            }
        }
    }

    /// Naive mirror of [`summary_min_bound`]: full Σ min over AND blocks.
    fn reference_min_bound(large: &[u8], small: &[u8], pop_l: &[u64], pop_s: &[u64]) -> u64 {
        let sl = build_block_summary(large);
        let ss = build_block_summary(small);
        let small_blocks = small.len() / SUMMARY_BLOCK_BYTES;
        let mut total = 0u64;
        for blk in 0..large.len() / SUMMARY_BLOCK_BYTES {
            let sb = blk % small_blocks;
            let bl = (sl[blk / 64] >> (blk % 64)) & 1;
            let bs = (ss[sb / 64] >> (sb % 64)) & 1;
            if bl & bs == 1 {
                total += pop_l[blk].min(pop_s[sb]);
            }
        }
        total
    }

    #[test]
    fn summary_min_bound_matches_naive_sum() {
        for &(large_len, small_len) in &[(1024usize, 1024usize), (4096, 1024), (8192, 128)] {
            let large = pseudo_random_bytes(large_len, 41, 2);
            let small = pseudo_random_bytes(small_len, 43, 2);
            let blocks_l = large_len / SUMMARY_BLOCK_BYTES;
            let blocks_s = small_len / SUMMARY_BLOCK_BYTES;
            let pop_l: Vec<u64> = (0..blocks_l as u64).map(|b| b % 7 + 1).collect();
            let pop_s: Vec<u64> = (0..blocks_s as u64).map(|b| b % 5 + 1).collect();
            let expect = reference_min_bound(&large, &small, &pop_l, &pop_s);
            let sl = build_block_summary(&large);
            let ss = build_block_summary(&small);
            // Below the true total the filter rejects with the exact sum…
            let got = summary_min_bound(&sl, &ss, blocks_s, expect + 1, |bl, bs| {
                pop_l[bl].min(pop_s[bs])
            });
            assert_eq!(got, Some(expect), "large={large_len} small={small_len}");
            // …and at (or under) it, accepts without finishing the walk.
            if expect > 0 {
                let got = summary_min_bound(&sl, &ss, blocks_s, expect, |bl, bs| {
                    pop_l[bl].min(pop_s[bs])
                });
                assert_eq!(got, None, "large={large_len} small={small_len}");
            }
        }
    }

    #[test]
    fn summary_min_bound_zero_threshold_never_rejects() {
        let bm = pseudo_random_bytes(256, 3, 2);
        let sum = build_block_summary(&bm);
        assert_eq!(summary_min_bound(&sum, &sum, 4, 0, |_, _| 1), None);
    }

    #[test]
    fn summary_min_bound_disjoint_summaries_reject_everything() {
        // a populates even blocks, b odd blocks: the AND is empty, so any
        // positive threshold rejects with a zero bound and zero callbacks.
        let mut a = vec![0u8; 1024];
        let mut b = vec![0u8; 1024];
        for blk in 0..16 {
            let target = if blk % 2 == 0 { &mut a } else { &mut b };
            target[blk * 64 + 7] = 0xAA;
        }
        let sa = build_block_summary(&a);
        let sb = build_block_summary(&b);
        let got = summary_min_bound(&sa, &sb, 16, 1, |bl, bs| {
            panic!("unexpected block pair ({bl}, {bs})")
        });
        assert_eq!(got, Some(0));
    }

    fn pseudo_random_words(len: usize, seed: u64, density_shift: u32) -> Vec<u64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                if density_shift == 0 || z & ((1 << density_shift) - 1) == 0 {
                    z
                } else {
                    0
                }
            })
            .collect()
    }

    #[test]
    fn word_kernels_match_reference_all_ops_and_levels() {
        for &len in &[8usize, 64, 1024] {
            for density_shift in [0u32, 1, 3] {
                let a = pseudo_random_words(len, 31 + u64::from(density_shift), density_shift);
                let b = pseudo_random_words(len, 77 + u64::from(density_shift), density_shift);
                for op in ALL_OPS {
                    let expect_words: Vec<u64> = a
                        .iter()
                        .zip(&b)
                        .map(|(&wa, &wb)| op.apply_u64(wa, wb))
                        .collect();
                    let expect_ones: u64 =
                        expect_words.iter().map(|w| u64::from(w.count_ones())).sum();
                    for level in SimdLevel::available_levels() {
                        let got = word_op_count(level, op, &a, &b);
                        assert_eq!(got, expect_ones, "op={op:?} level={level} len={len}");
                        let mut out = vec![0u64; len];
                        let got = word_op_into(level, op, &a, &b, &mut out);
                        assert_eq!(got, expect_ones, "op={op:?} level={level} len={len}");
                        assert_eq!(out, expect_words, "op={op:?} level={level} len={len}");
                    }
                }
            }
        }
    }

    #[test]
    fn word_kernels_handle_saturated_and_empty_inputs() {
        let full = vec![u64::MAX; 16];
        let none = vec![0u64; 16];
        for level in SimdLevel::available_levels() {
            assert_eq!(word_op_count(level, MaskOp::And, &full, &full), 1024);
            assert_eq!(word_op_count(level, MaskOp::And, &full, &none), 0);
            assert_eq!(word_op_count(level, MaskOp::Xor, &full, &none), 1024);
            assert_eq!(word_op_count(level, MaskOp::AndNotB, &full, &none), 1024);
            assert_eq!(word_op_count(level, MaskOp::AndNotB, &none, &full), 0);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 8 words")]
    fn word_kernels_reject_unaligned_length() {
        let a = vec![0u64; 4];
        let _ = word_op_count(SimdLevel::Scalar, MaskOp::And, &a, &a);
    }

    #[test]
    #[should_panic(expected = "output must match")]
    fn word_into_rejects_short_output() {
        let a = vec![0u64; 8];
        let mut out = vec![0u64; 4];
        let _ = word_op_into(SimdLevel::Scalar, MaskOp::And, &a, &a, &mut out);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let a = vec![0u8; 64];
        let b = vec![0u8; 128];
        for_each_nonzero_lane(SimdLevel::Scalar, LaneWidth::U8, &a, &b, |_| {});
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn unaligned_length_panics() {
        let a = vec![0u8; 32];
        let b = vec![0u8; 32];
        for_each_nonzero_lane(SimdLevel::Scalar, LaneWidth::U8, &a, &b, |_| {});
    }
}
