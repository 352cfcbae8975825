//! AVX2 (256-bit) specialized intersection kernels.
//!
//! `V = 8` u32 lanes; table covers sizes up to 15-by-15 as in the paper's
//! Fig. 5. Safety contract: see [`super::scalar`] module docs.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::*;
use fesia_simd::util::div_ceil;

/// u32 lanes per vector.
pub(crate) const V: usize = 8;

/// Largest specialized size in the AVX2 dispatch table (`2V - 1`).
pub(crate) const TMAX: usize = 2 * V - 1;

/// Broadcast-and-compare primitive (see [`super::sse::bcount`] shape).
///
/// # Safety
/// `s` readable for `NS` elements; `l` readable for `ceil(NL/V)*V`;
/// over-read contract per [`super::scalar`].
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn bcount<const NS: usize, const NL: usize>(s: *const u32, l: *const u32) -> u32 {
    let mut vs = [_mm256_setzero_si256(); NS];
    for (i, v) in vs.iter_mut().enumerate() {
        *v = _mm256_set1_epi32(*s.add(i) as i32);
    }
    let nb = div_ceil(NL, V);
    let mut count = 0u32;
    for blk in 0..nb {
        let vl = _mm256_loadu_si256(l.add(blk * V) as *const __m256i);
        let mut m = _mm256_setzero_si256();
        for v in vs {
            m = _mm256_or_si256(m, _mm256_cmpeq_epi32(v, vl));
        }
        count += (_mm256_movemask_ps(_mm256_castsi256_ps(m)) as u32).count_ones();
    }
    count
}

/// Large-by-large kernel for exact sizes `V < SA, SB <= 2V-1` (paper §V-C).
///
/// # Safety
/// Exact sizes; over-read contract per [`super::scalar`].
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn large_large<const SA: usize, const SB: usize>(a: *const u32, b: *const u32) -> u32 {
    let mut count = bcount::<V, V>(a, b);
    if *a.add(V - 1) <= *b.add(V - 1) {
        count += tail::<SA, SB>(a, b);
    } else {
        count += tail::<SB, SA>(b, a);
    }
    count
}

/// Broadcast `s[V..NS]` against all blocks of `l`.
///
/// # Safety
/// As [`large_large`].
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn tail<const NS: usize, const NL: usize>(s: *const u32, l: *const u32) -> u32 {
    let mut vs = [_mm256_setzero_si256(); V];
    for i in V..NS {
        vs[i - V] = _mm256_set1_epi32(*s.add(i) as i32);
    }
    let nb = div_ceil(NL, V);
    let mut count = 0u32;
    for blk in 0..nb {
        let vl = _mm256_loadu_si256(l.add(blk * V) as *const __m256i);
        let mut m = _mm256_setzero_si256();
        for i in V..NS {
            m = _mm256_or_si256(m, _mm256_cmpeq_epi32(vs[i - V], vl));
        }
        count += (_mm256_movemask_ps(_mm256_castsi256_ps(m)) as u32).count_ones();
    }
    count
}

/// Specialized AVX2 kernel for compile-time sizes `(SA, SB)`.
///
/// # Safety
/// See [`super::scalar`] module docs.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn kernel<const SA: usize, const SB: usize, const EXACT: bool>(
    a: *const u32,
    b: *const u32,
    sa: usize,
    sb: usize,
) -> u32 {
    debug_assert_eq!(sa, SA);
    debug_assert!(if EXACT { sb == SB } else { sb <= SB });
    if SA == 0 || SB == 0 {
        return 0;
    }
    if EXACT && SA > V && SB > V {
        large_large::<SA, SB>(a, b)
    } else if !EXACT || SA * div_ceil(SB, V) <= SB * div_ceil(SA, V) {
        bcount::<SA, SB>(a, b)
    } else {
        bcount::<SB, SA>(b, a)
    }
}

/// General (unspecialized) AVX2 kernel with both trip counts rounded to `V`.
///
/// # Safety
/// As [`super::scalar::general_rounded`]: distinct padding sentinels.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn general(a: *const u32, b: *const u32, sa: usize, sb: usize) -> u32 {
    let na = div_ceil(sa.max(1), V);
    let nb = div_ceil(sb.max(1), V);
    let mut count = 0u32;
    for ablk in 0..na {
        let base = a.add(ablk * V);
        let mut vs = [_mm256_setzero_si256(); V];
        for (i, v) in vs.iter_mut().enumerate() {
            *v = _mm256_set1_epi32(*base.add(i) as i32);
        }
        for bblk in 0..nb {
            let vl = _mm256_loadu_si256(b.add(bblk * V) as *const __m256i);
            let mut m = _mm256_setzero_si256();
            for v in vs {
                m = _mm256_or_si256(m, _mm256_cmpeq_epi32(v, vl));
            }
            count += (_mm256_movemask_ps(_mm256_castsi256_ps(m)) as u32).count_ones();
        }
    }
    count
}
