//! Scalar (portable) intersection kernels.
//!
//! These mirror the SIMD kernels' semantics exactly: a *specialized* kernel
//! for compile-time sizes `(SA, SB)` (fully unrolled all-pairs compare, the
//! branch-free scalar analogue of the paper's broadcast/compare kernels) and
//! a size-agnostic merge fallback. They serve three purposes: the scalar
//! dispatch table on non-x86 machines, the reference the SIMD paths are
//! differentially tested against, and the fallback for oversized segments.
//!
//! # Safety contract (shared by all kernels in this module tree)
//!
//! For `kernel::<SA, SB, EXACT>(a, b, sa, sb)`:
//!
//! * `sa == SA`; with `EXACT`, `sb == SB`, otherwise `sb <= SB` (`SB` is the
//!   stride-rounded size, paper §VI "Wider vector width").
//! * `a` must be readable for `SA` elements plus [`crate::set::PAD_LEN`]
//!   over-read slack; `b` likewise for `SB` elements.
//! * Over-read values (beyond `sa`/`sb` real elements) must never equal any
//!   *real* element of the opposite operand. The FESIA layout guarantees
//!   this structurally: over-read values are either padding sentinels
//!   (excluded from the element domain) or members of *other* segments,
//!   which under a shared (folded) hash cannot collide in value with the
//!   current segment's members.

use fesia_simd::util::div_ceil;

/// Nominal vector width of the scalar path (one 64-bit word of `u32`s).
pub(crate) const V: usize = 2;

/// Largest specialized size in the scalar dispatch table.
pub(crate) const TMAX: usize = 7;

/// Specialized scalar kernel: fully unrolled `SA x SB` all-pairs compare.
///
/// # Safety
/// See the module-level contract.
pub(crate) unsafe fn kernel<const SA: usize, const SB: usize, const EXACT: bool>(
    a: *const u32,
    b: *const u32,
    sa: usize,
    sb: usize,
) -> u32 {
    debug_assert_eq!(sa, SA);
    debug_assert!(if EXACT { sb == SB } else { sb <= SB });
    let mut count = 0u32;
    for i in 0..SA {
        let x = *a.add(i);
        for j in 0..SB {
            count += (x == *b.add(j)) as u32;
        }
    }
    count
}

/// Size-agnostic sorted-merge count over raw pointers.
///
/// Reads only the `sa`/`sb` *real* elements, so it is safe for any segment
/// size; used as the dispatch fallback for populations beyond the table.
///
/// # Safety
/// `a` valid for `sa` reads, `b` valid for `sb` reads; both runs sorted.
pub(crate) unsafe fn general_merge(a: *const u32, b: *const u32, sa: usize, sb: usize) -> u32 {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0u32);
    while i < sa && j < sb {
        let x = *a.add(i);
        let y = *b.add(j);
        count += (x == y) as u32;
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
    count
}

/// "General" scalar kernel with word-rounded trip counts: the scalar
/// analogue of the general SIMD kernel of Fig. 2 (left), used only for the
/// specialized-vs-general comparison of Figs. 4-6.
///
/// # Safety
/// As the module contract, plus: because both trip counts round up to `V`,
/// over-read values of `a` must also differ from over-read values of `b`
/// (use distinct padding sentinels in standalone buffers).
pub(crate) unsafe fn general_rounded(a: *const u32, b: *const u32, sa: usize, sb: usize) -> u32 {
    let na = div_ceil(sa.max(1), V) * V;
    let nb = div_ceil(sb.max(1), V) * V;
    let mut count = 0u32;
    for i in 0..na {
        let x = *a.add(i);
        for j in 0..nb {
            count += (x == *b.add(j)) as u32;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specialized_counts_all_pairs() {
        let a = [1u32, 5, 9, u32::MAX, u32::MAX];
        let b = [5u32, 9, 11, u32::MAX, u32::MAX];
        // SAFETY: buffers satisfy the contract (MAX padding, distinct reals).
        unsafe {
            assert_eq!(kernel::<3, 3, true>(a.as_ptr(), b.as_ptr(), 3, 3), 2);
            assert_eq!(kernel::<1, 3, true>(a.as_ptr(), b.as_ptr(), 1, 3), 0);
            assert_eq!(kernel::<0, 3, true>(a.as_ptr(), b.as_ptr(), 0, 3), 0);
        }
    }

    #[test]
    fn rounded_kernel_ignores_overread() {
        // Real sizes 1x1; rounded kernel reads whole segment slack.
        let a = [7u32, 42, 42, 42, 42, 42, 42, 42];
        let b = [7u32, 99, 99, 99, 99, 99, 99, 99];
        // 42 (a's over-read) never equals 7 or 99 (b's values): contract ok.
        unsafe {
            assert_eq!(kernel::<1, 4, false>(a.as_ptr(), b.as_ptr(), 1, 1), 1);
        }
    }

    #[test]
    fn merge_matches_reference() {
        let a = [2u32, 4, 6, 8, 10];
        let b = [1u32, 4, 5, 8, 9, 12, 15];
        unsafe {
            assert_eq!(general_merge(a.as_ptr(), b.as_ptr(), 5, 7), 2);
            assert_eq!(general_merge(a.as_ptr(), b.as_ptr(), 0, 7), 0);
            assert_eq!(general_merge(a.as_ptr(), b.as_ptr(), 5, 0), 0);
        }
    }

    #[test]
    fn general_rounded_with_distinct_sentinels() {
        let mut a = vec![3u32, 8, 13];
        let mut b = vec![8u32, 13, 21];
        a.extend([u32::MAX; 8]);
        b.extend([u32::MAX - 1; 8]);
        unsafe {
            assert_eq!(general_rounded(a.as_ptr(), b.as_ptr(), 3, 3), 2);
        }
    }
}
