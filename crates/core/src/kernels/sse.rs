//! SSE (128-bit) specialized intersection kernels (paper §V, Fig. 2/3).
//!
//! `V = 4` u32 lanes. Safety contract: see [`super::scalar`] module docs.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::*;
use fesia_simd::util::div_ceil;

/// u32 lanes per vector.
pub(crate) const V: usize = 4;

/// Largest specialized size in the SSE dispatch table (`2V - 1`, as in the
/// paper's 7-by-7 SSE kernel set).
pub(crate) const TMAX: usize = 2 * V - 1;

/// Broadcast-and-compare primitive: broadcast `NS` elements of `s`, compare
/// each against every `V`-lane block of `l` (`ceil(NL / V)` blocks), OR the
/// compare masks per block and popcount (Fig. 2's pattern).
///
/// # Safety
/// `s` readable for `NS` elements; `l` readable for `ceil(NL/V)*V` elements;
/// over-read contract per [`super::scalar`].
#[target_feature(enable = "sse4.2")]
#[inline]
unsafe fn bcount<const NS: usize, const NL: usize>(s: *const u32, l: *const u32) -> u32 {
    let mut vs = [_mm_setzero_si128(); NS];
    for (i, v) in vs.iter_mut().enumerate() {
        *v = _mm_set1_epi32(*s.add(i) as i32);
    }
    let nb = div_ceil(NL, V);
    let mut count = 0u32;
    for blk in 0..nb {
        let vl = _mm_loadu_si128(l.add(blk * V) as *const __m128i);
        let mut m = _mm_setzero_si128();
        for v in vs {
            m = _mm_or_si128(m, _mm_cmpeq_epi32(v, vl));
        }
        count += (_mm_movemask_ps(_mm_castsi128_ps(m)) as u32).count_ones();
    }
    count
}

/// Large-by-large kernel for exact sizes `V < SA, SB <= 2V-1` (paper §V-C):
/// a full `VxV` block first, then — depending on the runtime comparison of
/// `a[V-1]` and `b[V-1]` — the remaining elements of one side are broadcast
/// against the whole other side. Sortedness within the segment makes the
/// skipped quadrant provably empty.
///
/// # Safety
/// Exact sizes; over-read contract per [`super::scalar`].
#[target_feature(enable = "sse4.2")]
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

/// Broadcast `s[V..NS]` against all `ceil(NL/V)` blocks of `l`.
///
/// # Safety
/// As [`large_large`].
#[target_feature(enable = "sse4.2")]
#[inline]
unsafe fn tail<const NS: usize, const NL: usize>(s: *const u32, l: *const u32) -> u32 {
    let mut vs = [_mm_setzero_si128(); V]; // NS - V <= V - 1 slots used
    for i in V..NS {
        vs[i - V] = _mm_set1_epi32(*s.add(i) as i32);
    }
    let nb = div_ceil(NL, V);
    let mut count = 0u32;
    for blk in 0..nb {
        let vl = _mm_loadu_si128(l.add(blk * V) as *const __m128i);
        let mut m = _mm_setzero_si128();
        for i in V..NS {
            m = _mm_or_si128(m, _mm_cmpeq_epi32(vs[i - V], vl));
        }
        count += (_mm_movemask_ps(_mm_castsi128_ps(m)) as u32).count_ones();
    }
    count
}

/// Specialized SSE kernel for compile-time sizes `(SA, SB)`.
///
/// With `EXACT`, both sizes are exact and the cheapest orientation is chosen
/// at compile time (the paper's 2-by-7 vs 4-by-5 distinction, Fig. 3);
/// without it (`SB` stride-rounded), only side A — whose size is exact — is
/// ever broadcast, preserving the over-read contract.
///
/// # Safety
/// See [`super::scalar`] module docs.
#[target_feature(enable = "sse4.2")]
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

/// General (unspecialized) SSE kernel: both trip counts rounded up to `V`,
/// every block pair compared — the baseline of Figs. 4-6 (Fig. 2, left).
///
/// # Safety
/// As [`super::scalar::general_rounded`]: requires distinct padding
/// sentinels on the two operands.
#[target_feature(enable = "sse4.2")]
pub(crate) unsafe fn general(a: *const u32, b: *const u32, sa: usize, sb: usize) -> u32 {
    let na = div_ceil(sa.max(1), V);
    let nb = div_ceil(sb.max(1), V);
    let mut count = 0u32;
    for ablk in 0..na {
        let base = a.add(ablk * V);
        let mut vs = [_mm_setzero_si128(); V];
        for (i, v) in vs.iter_mut().enumerate() {
            *v = _mm_set1_epi32(*base.add(i) as i32);
        }
        for bblk in 0..nb {
            let vl = _mm_loadu_si128(b.add(bblk * V) as *const __m128i);
            let mut m = _mm_setzero_si128();
            for v in vs {
                m = _mm_or_si128(m, _mm_cmpeq_epi32(v, vl));
            }
            count += (_mm_movemask_ps(_mm_castsi128_ps(m)) as u32).count_ones();
        }
    }
    count
}
