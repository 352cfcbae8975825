//! Visitor-parameterized segment kernels: one body per set operation,
//! consumed by counting, materializing, and callback clients alike.
//!
//! The specialized count kernels in [`super`] stay as the fastest
//! intersection-count path (they are the paper's contribution: compiled
//! jump-table kernels with an over-read contract). Everything else —
//! materializing intersection, union, difference, xor, and any caller
//! that wants per-element callbacks — flows through this module instead
//! of growing its own per-op copies: each operation is written once
//! against [`SegmentVisitor`] and monomorphized per consumer.
//!
//! All functions take sorted segment runs (the builder keeps elements
//! sorted within each segment) and are entirely safe-slice based; the
//! SIMD paths bound every load (scalar tails / masked loads), so there is
//! no over-read contract here.

use fesia_simd::mask::MaskOp;
use fesia_simd::util::SetBits;
use fesia_simd::SimdLevel;

/// A materializing set-algebra operation over two sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// `A ∩ B`
    Intersect,
    /// `A ∪ B`
    Union,
    /// `A \ B`
    Difference,
    /// `A △ B` (symmetric difference)
    Xor,
}

impl SetOp {
    /// Short lowercase name (for logs, CLI, and bench labels).
    pub fn name(self) -> &'static str {
        match self {
            SetOp::Intersect => "and",
            SetOp::Union => "or",
            SetOp::Difference => "andnot",
            SetOp::Xor => "xor",
        }
    }

    /// The step-1 bitmap combiner that soundly drives this op at the
    /// element level. Intersection lanes must be non-zero on both sides;
    /// every other op must visit any segment that is non-empty on
    /// *either* side (an `AndNotB`/`Xor` bitmap scan would skip segments
    /// whose lanes collide, losing real output elements).
    #[inline]
    pub fn scan_op(self) -> MaskOp {
        match self {
            SetOp::Intersect => MaskOp::And,
            SetOp::Union | SetOp::Difference | SetOp::Xor => MaskOp::Or,
        }
    }
}

/// Consumer of the elements a segment kernel produces.
///
/// The three canonical implementations are [`CountVisitor`] (count),
/// [`EmitVisitor`] (materialize into a `Vec`), and [`FnVisitor`]
/// (arbitrary callback).
pub trait SegmentVisitor {
    /// Receive one output element.
    fn visit(&mut self, value: u32);

    /// Receive a sorted run of output elements (bulk fast path; the
    /// default loops over [`SegmentVisitor::visit`]).
    #[inline]
    fn visit_run(&mut self, values: &[u32]) {
        for &v in values {
            self.visit(v);
        }
    }

    /// Receive a value-domain word bitmap: bit `i` of `words[w]` encodes
    /// the element `base + 64*w + i`. This is the bulk output path of the
    /// container tier's word-bitmap ranges; the default decodes set bits
    /// ascending via [`SegmentVisitor::visit`], counting consumers
    /// override it with a popcount sweep.
    #[inline]
    fn visit_words(&mut self, base: u32, words: &[u64]) {
        for (wi, &w) in words.iter().enumerate() {
            let word_base = base + (wi as u32) * 64;
            for bit in SetBits(w) {
                self.visit(word_base + bit);
            }
        }
    }
}

/// Counts elements without storing them.
#[derive(Debug, Default)]
pub struct CountVisitor(pub usize);

impl SegmentVisitor for CountVisitor {
    #[inline]
    fn visit(&mut self, _value: u32) {
        self.0 += 1;
    }
    #[inline]
    fn visit_run(&mut self, values: &[u32]) {
        self.0 += values.len();
    }
    #[inline]
    fn visit_words(&mut self, _base: u32, words: &[u64]) {
        self.0 += words.iter().map(|w| w.count_ones() as usize).sum::<usize>();
    }
}

/// Appends elements to a borrowed `Vec`.
#[derive(Debug)]
pub struct EmitVisitor<'a>(pub &'a mut Vec<u32>);

impl SegmentVisitor for EmitVisitor<'_> {
    #[inline]
    fn visit(&mut self, value: u32) {
        self.0.push(value);
    }
    #[inline]
    fn visit_run(&mut self, values: &[u32]) {
        self.0.extend_from_slice(values);
    }
}

/// Adapts any `FnMut(u32)` into a visitor.
pub struct FnVisitor<F: FnMut(u32)>(pub F);

impl<F: FnMut(u32)> SegmentVisitor for FnVisitor<F> {
    #[inline]
    fn visit(&mut self, value: u32) {
        (self.0)(value);
    }
}

// ---------------------------------------------------------------------------
// SIMD membership helpers. Each broadcasts one probe element and compares
// it against whole blocks of the target run; keeping them non-generic
// means `#[target_feature]` never meets a type parameter and the generic
// drivers above them stay safe code.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// # Safety
    /// Requires SSE4.2.
    #[target_feature(enable = "sse4.2")]
    pub unsafe fn contains_sse(x: u32, b: &[u32]) -> bool {
        const V: usize = 4;
        let blocks = b.len() / V;
        let vx = _mm_set1_epi32(x as i32);
        for blk in 0..blocks {
            let vb = _mm_loadu_si128(b.as_ptr().add(blk * V) as *const __m128i);
            if _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(vx, vb))) != 0 {
                return true;
            }
        }
        b[blocks * V..].contains(&x)
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn contains_avx2(x: u32, b: &[u32]) -> bool {
        const V: usize = 8;
        let blocks = b.len() / V;
        let vx = _mm256_set1_epi32(x as i32);
        for blk in 0..blocks {
            let vb = _mm256_loadu_si256(b.as_ptr().add(blk * V) as *const __m256i);
            if _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(vx, vb))) != 0 {
                return true;
            }
        }
        b[blocks * V..].contains(&x)
    }

    /// # Safety
    /// Requires AVX-512 F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn contains_avx512(x: u32, b: &[u32]) -> bool {
        const V: usize = 16;
        let blocks = b.len() / V;
        let vx = _mm512_set1_epi32(x as i32);
        for blk in 0..blocks {
            let vb = _mm512_loadu_si512(b.as_ptr().add(blk * V) as *const _);
            if _mm512_cmpeq_epi32_mask(vx, vb) != 0 {
                return true;
            }
        }
        let tail_len = b.len() - blocks * V;
        if tail_len == 0 {
            return false;
        }
        // Masked load: lanes beyond the tail read as zero and the compare
        // is masked, so no out-of-bounds access occurs.
        let tail_mask: __mmask16 = (1u16 << tail_len).wrapping_sub(1);
        let vb = _mm512_maskz_loadu_epi32(tail_mask, b.as_ptr().add(blocks * V) as *const i32);
        _mm512_mask_cmpeq_epi32_mask(tail_mask, vx, vb) != 0
    }
}

/// Membership probe of `x` in the (sorted) run `b` at the given level.
#[inline]
pub fn run_contains(level: SimdLevel, x: u32, b: &[u32]) -> bool {
    match level {
        SimdLevel::Scalar => b.contains(&x),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: callers assert availability once per segment sweep;
        // helpers take safe slices and bound every load.
        SimdLevel::Sse => unsafe { x86::contains_sse(x, b) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::contains_avx2(x, b) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { x86::contains_avx512(x, b) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => b.contains(&x),
    }
}

// ---------------------------------------------------------------------------
// Visitor-parameterized segment bodies, one per operation.
// ---------------------------------------------------------------------------

/// Visit `a ∩ b` over two sorted runs. The smaller run is the probe side;
/// SIMD levels broadcast each probe element against blocks of the target
/// (a match's value *is* the probe element, so no lane extraction is
/// needed), the scalar level runs a two-pointer merge.
pub fn intersect_visit<V: SegmentVisitor>(level: SimdLevel, a: &[u32], b: &[u32], v: &mut V) {
    assert!(level.is_available(), "SIMD level {level} not available");
    let (probe, target) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if probe.is_empty() {
        return;
    }
    if level == SimdLevel::Scalar {
        let (mut i, mut j) = (0usize, 0usize);
        while i < probe.len() && j < target.len() {
            match probe[i].cmp(&target[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    v.visit(probe[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        return;
    }
    for &x in probe {
        if run_contains(level, x, target) {
            v.visit(x);
        }
    }
}

/// Visit `a ∪ b` over two sorted runs (each element once, ascending).
pub fn union_visit<V: SegmentVisitor>(a: &[u32], b: &[u32], v: &mut V) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                v.visit(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                v.visit(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                v.visit(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    v.visit_run(&a[i..]);
    v.visit_run(&b[j..]);
}

/// Visit `a \ b` over two sorted runs.
pub fn difference_visit<V: SegmentVisitor>(a: &[u32], b: &[u32], v: &mut V) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                v.visit(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    v.visit_run(&a[i..]);
}

/// Visit `a △ b` (symmetric difference) over two sorted runs.
pub fn xor_visit<V: SegmentVisitor>(a: &[u32], b: &[u32], v: &mut V) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                v.visit(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                v.visit(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    v.visit_run(&a[i..]);
    v.visit_run(&b[j..]);
}

/// Dispatch one sorted-run pair through the body for `op`.
pub fn segment_op_visit<V: SegmentVisitor>(
    level: SimdLevel,
    op: SetOp,
    a: &[u32],
    b: &[u32],
    v: &mut V,
) {
    match op {
        SetOp::Intersect => intersect_visit(level, a, b, v),
        SetOp::Union => union_visit(a, b, v),
        SetOp::Difference => difference_visit(a, b, v),
        SetOp::Xor => xor_visit(a, b, v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ref_op(op: SetOp, a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out: Vec<u32> = match op {
            SetOp::Intersect => a.iter().filter(|x| b.contains(x)).copied().collect(),
            SetOp::Union => {
                let mut v: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
                v.sort_unstable();
                v.dedup();
                v
            }
            SetOp::Difference => a.iter().filter(|x| !b.contains(x)).copied().collect(),
            SetOp::Xor => a
                .iter()
                .filter(|x| !b.contains(x))
                .chain(b.iter().filter(|x| !a.contains(x)))
                .copied()
                .collect(),
        };
        out.sort_unstable();
        out
    }

    fn cases() -> Vec<(Vec<u32>, Vec<u32>)> {
        vec![
            (vec![], vec![]),
            (vec![1], vec![]),
            (vec![], vec![7, 9]),
            (vec![1, 2, 3], vec![2, 3, 4]),
            (vec![1, 2, 3], vec![1, 2, 3]),
            (
                (0..40).map(|i| i * 2).collect(),
                (0..40).map(|i| i * 3).collect(),
            ),
            ((0..17).collect(), (0..33).collect()),
            (
                (0..31).map(|i| i * 7).collect(),
                (0..129).map(|i| i * 5).collect(),
            ),
        ]
    }

    #[test]
    fn every_op_matches_reference_under_every_visitor() {
        for (a, b) in cases() {
            for op in [
                SetOp::Intersect,
                SetOp::Union,
                SetOp::Difference,
                SetOp::Xor,
            ] {
                let want = ref_op(op, &a, &b);
                for level in SimdLevel::available_levels() {
                    let mut got = Vec::new();
                    segment_op_visit(level, op, &a, &b, &mut EmitVisitor(&mut got));
                    got.sort_unstable();
                    assert_eq!(got, want, "op={op:?} level={level} a={a:?} b={b:?}");

                    let mut cnt = CountVisitor::default();
                    segment_op_visit(level, op, &a, &b, &mut cnt);
                    assert_eq!(cnt.0, want.len(), "count op={op:?} level={level}");

                    let mut cb = Vec::new();
                    segment_op_visit(level, op, &a, &b, &mut FnVisitor(|x| cb.push(x)));
                    cb.sort_unstable();
                    assert_eq!(cb, want, "callback op={op:?} level={level}");
                }
            }
        }
    }

    #[test]
    fn visit_words_decodes_bits_ascending_and_counts() {
        let words = [0b101u64, 0, 1 << 63];
        let mut got = Vec::new();
        EmitVisitor(&mut got).visit_words(1000, &words);
        assert_eq!(got, vec![1000, 1002, 1000 + 2 * 64 + 63]);
        let mut cnt = CountVisitor::default();
        cnt.visit_words(0, &words);
        assert_eq!(cnt.0, 3);
    }

    #[test]
    fn scan_op_is_and_only_for_intersection() {
        assert_eq!(SetOp::Intersect.scan_op(), MaskOp::And);
        for op in [SetOp::Union, SetOp::Difference, SetOp::Xor] {
            assert_eq!(op.scan_op(), MaskOp::Or, "{op:?}");
        }
    }

    #[test]
    fn run_contains_agrees_across_levels() {
        let b: Vec<u32> = (0..100).map(|i| i * 3).collect();
        for level in SimdLevel::available_levels() {
            for x in 0..310u32 {
                assert_eq!(
                    run_contains(level, x, &b),
                    x % 3 == 0 && x < 300,
                    "{level} {x}"
                );
            }
            assert!(!run_contains(level, 5, &[]));
        }
    }
}
