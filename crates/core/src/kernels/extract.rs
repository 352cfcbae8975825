//! Materializing segment intersection: emit the matching *values*, not
//! just their count.
//!
//! This is now a thin compatibility wrapper over the visitor kernel
//! layer ([`super::visit`]): the SIMD bodies that used to live here are
//! [`super::visit::intersect_visit`], consumed
//! through an [`super::visit::EmitVisitor`]. Each element of the smaller
//! run is broadcast and compared against whole blocks of the larger run —
//! and because a match's value *is* the broadcast element, no lane
//! extraction or shuffle table is needed. All loads are bounds-checked
//! (scalar tails / masked loads), so this path is entirely safe-slice
//! based with no over-read contract.

use super::visit::{intersect_visit, EmitVisitor};
use fesia_simd::SimdLevel;

/// Append `a ∩ b` to `out`, in the order of `a` (ascending, since segment
/// runs are sorted). Safe for any slices; SIMD is used when available and
/// the probe side is iterated from the smaller run.
pub fn extract_into(level: SimdLevel, a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    intersect_visit(level, a, b, &mut EmitVisitor(out));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().filter(|x| b.contains(x)).copied().collect()
    }

    #[test]
    fn all_levels_extract_identically() {
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![]),
            (vec![1], vec![]),
            (vec![1, 2, 3], vec![2, 3, 4]),
            (
                (0..40).map(|i| i * 2).collect(),
                (0..40).map(|i| i * 3).collect(),
            ),
            // Lengths exercising every tail width.
            ((0..17).collect(), (0..33).collect()),
            ((0..15).collect(), (0..16).collect()),
            (
                (0..31).map(|i| i * 7).collect(),
                (0..129).map(|i| i * 5).collect(),
            ),
        ];
        for (a, b) in cases {
            let mut want = reference(&a, &b);
            want.sort_unstable();
            for level in SimdLevel::available_levels() {
                let mut got = Vec::new();
                extract_into(level, &a, &b, &mut got);
                got.sort_unstable();
                assert_eq!(got, want, "level={level} a={a:?} b={b:?}");
            }
        }
    }

    #[test]
    fn output_is_appended_not_replaced() {
        let mut out = vec![99u32];
        extract_into(SimdLevel::detect(), &[1, 2], &[2, 3], &mut out);
        assert_eq!(out, vec![99, 2]);
    }

    #[test]
    fn probe_side_selection_is_symmetric() {
        let small: Vec<u32> = vec![5, 50, 500];
        let large: Vec<u32> = (0..1000).collect();
        for level in SimdLevel::available_levels() {
            let mut fwd = Vec::new();
            extract_into(level, &small, &large, &mut fwd);
            let mut rev = Vec::new();
            extract_into(level, &large, &small, &mut rev);
            fwd.sort_unstable();
            rev.sort_unstable();
            assert_eq!(fwd, rev, "level={level}");
            assert_eq!(fwd, vec![5, 50, 500]);
        }
    }
}
