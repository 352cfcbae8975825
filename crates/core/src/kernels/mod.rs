//! Specialized SIMD intersection kernels and their runtime dispatch table
//! (paper §V).
//!
//! A *kernel* is a fully specialized function computing the intersection
//! size of two tiny sorted runs whose sizes are compile-time constants. All
//! kernels for a given ISA are compiled ahead of time and collected in a
//! [`KernelTable`] — the Rust analogue of the paper's jump table (Listing
//! 2): dispatch indexes a flat function-pointer array with
//! `sa * ncols + col(sb)`, a single indirect call with no branching.
//!
//! Three table families exist per ISA:
//!
//! * **stride 1** — every exact `(sa, sb)` pair up to `TMAX = 2V - 1`,
//!   orientation chosen per pair at compile time (Fig. 3);
//! * **stride 2/4/8** — the paper's *kernel sampling* for wide ISAs
//!   (§VI "Wider vector width"): only every `stride`-th size exists in the
//!   `sb` dimension and smaller segments round up to the next sampled
//!   kernel, shrinking the code footprint (Table II) at the cost of a few
//!   redundant compares. The `sa` dimension stays exact so the broadcast
//!   side never reads rounded (over-read) elements, which keeps counting
//!   exact (this is a slight strengthening of the paper's scheme, which
//!   does not spell out how rounded kernels avoid spurious matches).
//!
//! # The over-read contract
//!
//! Kernels load whole vectors, so they may read up to
//! [`OVERREAD`] elements beyond a segment's real
//! population. Counting stays exact because every over-read value is either
//! a padding sentinel (outside the element domain) or an element of a
//! *different* segment, which under the shared bitmap hash can never equal
//! an element of the current segment. The [`crate::SegmentedSet`] layout
//! guarantees this structurally; standalone callers must uphold it via
//! [`PaddedOperand`].

pub mod extract;
pub(crate) mod scalar;
pub mod visit;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;
#[cfg(target_arch = "x86_64")]
pub(crate) mod sse;

use crate::error::MAX_ELEMENT;
use fesia_simd::util::div_ceil;
use fesia_simd::SimdLevel;

/// Signature shared by every kernel in a dispatch table.
///
/// # Safety
/// `a`/`b` must be readable for `sa`/`sb` elements plus [`OVERREAD`] slack,
/// and the over-read contract (module docs) must hold.
pub type CountKernel = unsafe fn(*const u32, *const u32, usize, usize) -> u32;

/// Maximum number of elements a kernel may read past a segment's real
/// population. Matches the padding appended by the segmented-set builder.
pub const OVERREAD: usize = 32;

/// Largest specialized segment size for an ISA (`2V - 1`, except scalar).
pub const fn table_max(level: SimdLevel) -> usize {
    match level {
        SimdLevel::Scalar => scalar::TMAX,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse => sse::TMAX,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => avx2::TMAX,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => avx512::TMAX,
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::TMAX,
    }
}

/// `V`: u32 lanes per vector for an ISA.
pub const fn vector_lanes(level: SimdLevel) -> usize {
    match level {
        SimdLevel::Scalar => scalar::V,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse => sse::V,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => avx2::V,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => avx512::V,
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::V,
    }
}

// ---------------------------------------------------------------------------
// Static table generation.
// ---------------------------------------------------------------------------

macro_rules! krow {
    ($isa:ident, $exact:literal, $sa:literal, ($($sb:literal)+)) => {
        [ $( $isa::kernel::<$sa, $sb, $exact> as CountKernel, )+ ]
    };
}

macro_rules! ktable {
    ($isa:ident, $exact:literal, [$($sa:literal)+], $sbs:tt) => {
        [ $( krow!($isa, $exact, $sa, $sbs), )+ ]
    };
}

macro_rules! tables_for_isa {
    ($isa:ident, $exact:ident, $s1r:ident, $s2:ident, $s4:ident, $s8:ident,
     $rows:tt, $cols_exact:tt, $cols2:tt, $cols4:tt, $cols8:tt,
     $nrows:literal, $ncols_exact:literal, $nc2:literal, $nc4:literal, $nc8:literal) => {
        static $exact: [[CountKernel; $ncols_exact]; $nrows] =
            ktable!($isa, true, $rows, $cols_exact);
        // The "rounded" (EXACT = false) family at stride 1: same exact
        // sizes, but side A is always the broadcast side and only side B is
        // ever loaded in blocks. Required whenever the two bitmaps differ
        // in size (folded intersection): a block load from the *large*
        // side could span a whole period of the small bitmap and reach
        // elements that fold back into the current segment, breaking the
        // over-read contract.
        static $s1r: [[CountKernel; $ncols_exact]; $nrows] =
            ktable!($isa, false, $rows, $cols_exact);
        static $s2: [[CountKernel; $nc2]; $nrows] = ktable!($isa, false, $rows, $cols2);
        static $s4: [[CountKernel; $nc4]; $nrows] = ktable!($isa, false, $rows, $cols4);
        static $s8: [[CountKernel; $nc8]; $nrows] = ktable!($isa, false, $rows, $cols8);
    };
}

tables_for_isa!(
    scalar, SCALAR_EXACT, SCALAR_S1R, SCALAR_S2, SCALAR_S4, SCALAR_S8,
    [0 1 2 3 4 5 6 7],
    (0 1 2 3 4 5 6 7),
    (2 4 6 8),
    (4 8),
    (8),
    8, 8, 4, 2, 1
);

#[cfg(target_arch = "x86_64")]
tables_for_isa!(
    sse, SSE_EXACT, SSE_S1R, SSE_S2, SSE_S4, SSE_S8,
    [0 1 2 3 4 5 6 7],
    (0 1 2 3 4 5 6 7),
    (2 4 6 8),
    (4 8),
    (8),
    8, 8, 4, 2, 1
);

#[cfg(target_arch = "x86_64")]
tables_for_isa!(
    avx2, AVX2_EXACT, AVX2_S1R, AVX2_S2, AVX2_S4, AVX2_S8,
    [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15],
    (0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15),
    (2 4 6 8 10 12 14 16),
    (4 8 12 16),
    (8 16),
    16, 16, 8, 4, 2
);

#[cfg(target_arch = "x86_64")]
tables_for_isa!(
    avx512, AVX512_EXACT, AVX512_S1R, AVX512_S2, AVX512_S4, AVX512_S8,
    [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
     16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31],
    (0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
     16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31),
    (2 4 6 8 10 12 14 16 18 20 22 24 26 28 30 32),
    (4 8 12 16 20 24 28 32),
    (8 16 24 32),
    32, 32, 16, 8, 4
);

fn rows_of(level: SimdLevel, stride: usize) -> Vec<CountKernel> {
    fn flat<const C: usize, const R: usize>(t: &'static [[CountKernel; C]; R]) -> Vec<CountKernel> {
        t.iter().flatten().copied().collect()
    }
    match (level, stride) {
        (SimdLevel::Scalar, 1) => flat(&SCALAR_EXACT),
        (SimdLevel::Scalar, 2) => flat(&SCALAR_S2),
        (SimdLevel::Scalar, 4) => flat(&SCALAR_S4),
        (SimdLevel::Scalar, 8) => flat(&SCALAR_S8),
        #[cfg(target_arch = "x86_64")]
        (SimdLevel::Sse, 1) => flat(&SSE_EXACT),
        #[cfg(target_arch = "x86_64")]
        (SimdLevel::Sse, 2) => flat(&SSE_S2),
        #[cfg(target_arch = "x86_64")]
        (SimdLevel::Sse, 4) => flat(&SSE_S4),
        #[cfg(target_arch = "x86_64")]
        (SimdLevel::Sse, 8) => flat(&SSE_S8),
        #[cfg(target_arch = "x86_64")]
        (SimdLevel::Avx2, 1) => flat(&AVX2_EXACT),
        #[cfg(target_arch = "x86_64")]
        (SimdLevel::Avx2, 2) => flat(&AVX2_S2),
        #[cfg(target_arch = "x86_64")]
        (SimdLevel::Avx2, 4) => flat(&AVX2_S4),
        #[cfg(target_arch = "x86_64")]
        (SimdLevel::Avx2, 8) => flat(&AVX2_S8),
        #[cfg(target_arch = "x86_64")]
        (SimdLevel::Avx512, 1) => flat(&AVX512_EXACT),
        #[cfg(target_arch = "x86_64")]
        (SimdLevel::Avx512, 2) => flat(&AVX512_S2),
        #[cfg(target_arch = "x86_64")]
        (SimdLevel::Avx512, 4) => flat(&AVX512_S4),
        #[cfg(target_arch = "x86_64")]
        (SimdLevel::Avx512, 8) => flat(&AVX512_S8),
        _ => panic!("unsupported (level, stride) = ({level}, {stride})"),
    }
}

/// The kernel family safe for *folded* (different bitmap size)
/// intersections: side A is always broadcast, side B block-loaded, so the
/// large set must be passed as A. For stride 1 this is the dedicated `S1R`
/// family; the sampled tables already have these semantics.
fn folded_rows_of(level: SimdLevel, stride: usize) -> Vec<CountKernel> {
    fn flat<const C: usize, const R: usize>(t: &'static [[CountKernel; C]; R]) -> Vec<CountKernel> {
        t.iter().flatten().copied().collect()
    }
    if stride != 1 {
        return rows_of(level, stride);
    }
    match level {
        SimdLevel::Scalar => flat(&SCALAR_S1R),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse => flat(&SSE_S1R),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => flat(&AVX2_S1R),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => flat(&AVX512_S1R),
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("non-scalar level on non-x86_64"),
    }
}

// ---------------------------------------------------------------------------
// The dispatch table.
// ---------------------------------------------------------------------------

/// A precompiled kernel dispatch table for one `(ISA, stride)` pair.
#[derive(Clone)]
pub struct KernelTable {
    level: SimdLevel,
    kernel_level: SimdLevel,
    stride: usize,
    tmax: usize,
    ncols: usize,
    kernels: Vec<CountKernel>,
    folded_kernels: Vec<CountKernel>,
}

impl std::fmt::Debug for KernelTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelTable")
            .field("level", &self.level)
            .field("kernel_level", &self.kernel_level)
            .field("stride", &self.stride)
            .field("tmax", &self.tmax)
            .field("num_kernels", &self.kernels.len())
            .finish()
    }
}

impl KernelTable {
    /// Build the dispatch table for `level` with kernel sampling `stride`
    /// (1 = full table; 2/4/8 = the paper's sub-sampled tables, Table II).
    ///
    /// # Panics
    /// Panics if `level` is unavailable on this CPU or `stride` is not one
    /// of 1, 2, 4, 8.
    pub fn new(level: SimdLevel, stride: usize) -> KernelTable {
        assert!(
            level.is_available(),
            "SIMD level {level} not available on this CPU"
        );
        assert!(
            matches!(stride, 1 | 2 | 4 | 8),
            "kernel stride must be 1, 2, 4 or 8"
        );
        let tmax = table_max(level);
        let kernels = rows_of(level, stride);
        let folded_kernels = folded_rows_of(level, stride);
        let ncols = if stride == 1 {
            tmax + 1
        } else {
            div_ceil(tmax, stride)
        };
        debug_assert_eq!(kernels.len(), (tmax + 1) * ncols);
        debug_assert_eq!(folded_kernels.len(), (tmax + 1) * ncols);
        KernelTable {
            level,
            kernel_level: level,
            stride,
            tmax,
            ncols,
            kernels,
            folded_kernels,
        }
    }

    /// Full table for the widest ISA on this machine.
    pub fn auto() -> KernelTable {
        KernelTable::new(SimdLevel::detect(), 1)
    }

    /// Ablation constructor: scan the bitmaps at `scan_level` but run the
    /// segment kernels of `kernel_level`. FESIA's speedup has two
    /// independent sources — the SIMD bitmap filter (step 1) and the
    /// specialized kernels (step 2) — and a hybrid table isolates each
    /// contribution (the `repro ablation` experiment).
    ///
    /// # Panics
    /// As [`KernelTable::new`], for either level.
    pub fn hybrid(scan_level: SimdLevel, kernel_level: SimdLevel, stride: usize) -> KernelTable {
        assert!(
            scan_level.is_available() && kernel_level.is_available(),
            "SIMD level not available on this CPU"
        );
        let mut table = KernelTable::new(kernel_level, stride);
        table.level = scan_level;
        table
    }

    /// The ISA of the bitmap scan (step 1).
    #[inline]
    pub fn level(&self) -> SimdLevel {
        self.level
    }

    /// The ISA of the segment kernels (step 2); differs from
    /// [`KernelTable::level`] only for [`KernelTable::hybrid`] tables.
    #[inline]
    pub fn kernel_level(&self) -> SimdLevel {
        self.kernel_level
    }

    /// The sampling stride of the `sb` dimension.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Largest specialized size; bigger segments take the merge fallback.
    #[inline]
    pub fn tmax(&self) -> usize {
        self.tmax
    }

    /// Number of specialized kernels in the table.
    #[inline]
    pub fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// Analytic estimate of the table's machine-code footprint in bytes.
    ///
    /// Stands in for the paper's Table II "code size" column: instruction
    /// counts follow directly from each kernel's shape (broadcasts, block
    /// loads, compares, mask ops) times a mean encoded-instruction length
    /// for the ISA. See `DESIGN.md` §3 for why this proxy is used instead
    /// of hardware icache counters.
    pub fn estimated_code_bytes(&self) -> usize {
        let mut total = 0usize;
        for sa in 0..=self.tmax {
            for col in 0..self.ncols {
                let sb = if self.stride == 1 {
                    col
                } else {
                    (col + 1) * self.stride
                };
                total += estimate_kernel_bytes(self.kernel_level, sa, sb);
            }
        }
        total
    }

    /// Count the intersection of two segment runs through the table.
    ///
    /// # Safety
    /// The pointer/over-read contract in the module docs: both operands
    /// readable for their size plus [`OVERREAD`] elements, over-read values
    /// never equal to real elements of the opposite operand, and both runs
    /// sorted ascending (required by the large-by-large kernels).
    #[inline]
    pub unsafe fn count(&self, a: *const u32, sa: usize, b: *const u32, sb: usize) -> u32 {
        if sa == 0 || sb == 0 {
            return 0;
        }
        if sa > self.tmax || sb > self.tmax {
            return scalar::general_merge(a, b, sa, sb);
        }
        let col = if self.stride == 1 {
            sb
        } else {
            (sb - 1) / self.stride
        };
        let k = *self.kernels.get_unchecked(sa * self.ncols + col);
        k(a, b, sa, sb)
    }

    /// Count the intersection of two segment runs when the two sets have
    /// *different bitmap sizes* (folded intersection, paper §III-C).
    ///
    /// Uses the A-broadcast-only kernel family: a block load from the
    /// larger set could span a whole period of the smaller bitmap and
    /// reach elements that fold back into this very segment — values that
    /// *can* legitimately equal the small side's elements — so the large
    /// side must never be block-loaded. Callers pass the **large** set's
    /// segment as `a`.
    ///
    /// # Safety
    /// As [`KernelTable::count`].
    #[inline]
    pub unsafe fn count_folded(&self, a: *const u32, sa: usize, b: *const u32, sb: usize) -> u32 {
        if sa == 0 || sb == 0 {
            return 0;
        }
        if sa > self.tmax || sb > self.tmax {
            return scalar::general_merge(a, b, sa, sb);
        }
        let col = if self.stride == 1 {
            sb
        } else {
            (sb - 1) / self.stride
        };
        let k = *self.folded_kernels.get_unchecked(sa * self.ncols + col);
        k(a, b, sa, sb)
    }

    /// Safe wrapper over [`KernelTable::count`] for standalone operands.
    pub fn count_operands(&self, a: &PaddedOperand, b: &PaddedOperand) -> u32 {
        // SAFETY: PaddedOperand guarantees OVERREAD slack, sentinel-padded
        // tails distinct from the opposite operand, and sortedness.
        unsafe { self.count(a.ptr(), a.len(), b.ptr(), b.len()) }
    }
}

/// Run the *general* (unspecialized, both-dimensions-rounded) kernel of an
/// ISA on standalone operands — the baseline of Figs. 4-6.
pub fn general_count(level: SimdLevel, a: &PaddedOperand, b: &PaddedOperand) -> u32 {
    assert!(level.is_available());
    // SAFETY: PaddedOperand uses distinct sentinels on the A and B sides,
    // satisfying the stricter general-kernel contract.
    unsafe {
        match level {
            SimdLevel::Scalar => scalar::general_rounded(a.ptr(), b.ptr(), a.len(), b.len()),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse => sse::general(a.ptr(), b.ptr(), a.len(), b.len()),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => avx2::general(a.ptr(), b.ptr(), a.len(), b.len()),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => avx512::general(a.ptr(), b.ptr(), a.len(), b.len()),
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!(),
        }
    }
}

/// Estimate one kernel's code size in bytes from its shape (see
/// [`KernelTable::estimated_code_bytes`]).
pub fn estimate_kernel_bytes(level: SimdLevel, sa: usize, sb: usize) -> usize {
    let v = vector_lanes(level);
    let bytes_per_insn = match level {
        SimdLevel::Scalar => 4,
        SimdLevel::Sse => 4,
        SimdLevel::Avx2 => 5,
        SimdLevel::Avx512 => 6,
    };
    if sa == 0 || sb == 0 {
        return 2 * bytes_per_insn;
    }
    let cost = |ns: usize, nl: usize| {
        let nb = div_ceil(nl, v);
        // broadcasts + loads + compares + ORs + per-block mask/popcnt/add.
        ns + nb + ns * nb + ns.saturating_sub(1) * nb + 3 * nb
    };
    let insns = if sa > v && sb > v {
        // large-by-large: VxV block + the larger of the two tails + branch.
        cost(v, v) + cost(sa - v, sb).max(cost(sb - v, sa)) + 4
    } else {
        cost(sa, sb).min(cost(sb, sa))
    };
    (insns + 4) * bytes_per_insn // +4: prologue/epilogue
}

/// A standalone kernel operand: a sorted run plus the padding slack the
/// kernels' over-read contract requires.
///
/// The A side pads with `u32::MAX`, the B side with `u32::MAX - 1`, so that
/// padding never equals a real element (the element domain excludes both)
/// *and* the two paddings never equal each other (required by the general
/// kernel, which broadcasts over-read values).
#[derive(Debug, Clone)]
pub struct PaddedOperand {
    buf: Vec<u32>,
    len: usize,
}

impl PaddedOperand {
    fn new(values: &[u32], sentinel: u32) -> PaddedOperand {
        assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "operand must be sorted and duplicate-free"
        );
        assert!(
            values.iter().all(|&x| x <= MAX_ELEMENT),
            "operand values must not exceed MAX_ELEMENT"
        );
        let mut buf = Vec::with_capacity(values.len() + OVERREAD);
        buf.extend_from_slice(values);
        buf.extend(std::iter::repeat_n(sentinel, OVERREAD));
        PaddedOperand {
            buf,
            len: values.len(),
        }
    }

    /// Wrap a sorted run as the first (A) operand.
    pub fn side_a(values: &[u32]) -> PaddedOperand {
        Self::new(values, u32::MAX)
    }

    /// Wrap a sorted run as the second (B) operand.
    pub fn side_b(values: &[u32]) -> PaddedOperand {
        Self::new(values, u32::MAX - 1)
    }

    /// Number of real elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the run is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The real elements.
    #[inline]
    pub fn values(&self) -> &[u32] {
        &self.buf[..self.len]
    }

    /// Pointer to the padded buffer.
    #[inline]
    pub fn ptr(&self) -> *const u32 {
        self.buf.as_ptr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random sorted run of `n` distinct values.
    fn random_run(n: usize, seed: u64) -> Vec<u32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut vals = std::collections::BTreeSet::new();
        while vals.len() < n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            vals.insert((state % 10_000) as u32);
        }
        vals.into_iter().collect()
    }

    fn reference_count(a: &[u32], b: &[u32]) -> u32 {
        let bs: std::collections::HashSet<u32> = b.iter().copied().collect();
        a.iter().filter(|x| bs.contains(x)).count() as u32
    }

    #[test]
    fn all_levels_all_sizes_match_reference() {
        for level in SimdLevel::available_levels() {
            let table = KernelTable::new(level, 1);
            let tmax = table.tmax();
            for sa in 0..=tmax {
                for sb in 0..=tmax {
                    for seed in 0..3u64 {
                        let av = random_run(sa, seed * 7 + 1);
                        let mut bv = random_run(sb, seed * 13 + 5);
                        // Force some overlap so counts are non-trivial.
                        for (i, &x) in av.iter().enumerate() {
                            if i % 3 == 0 && !bv.contains(&x) {
                                bv.push(x);
                            }
                        }
                        bv.sort_unstable();
                        bv.truncate(sb);
                        let a = PaddedOperand::side_a(&av);
                        let b = PaddedOperand::side_b(&bv);
                        let got = table.count_operands(&a, &b);
                        let want = reference_count(&av, &bv);
                        assert_eq!(
                            got, want,
                            "level={level} sa={sa} sb={sb} seed={seed} a={av:?} b={bv:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn strided_tables_match_reference() {
        for level in SimdLevel::available_levels() {
            for stride in [2usize, 4, 8] {
                let table = KernelTable::new(level, stride);
                let tmax = table.tmax();
                for sa in 0..=tmax {
                    for sb in 0..=tmax {
                        let av = random_run(sa, (sa * 31 + sb) as u64 + 1);
                        let mut bv = random_run(sb, (sa * 17 + sb * 3) as u64 + 9);
                        for &x in av.iter().step_by(2) {
                            if !bv.contains(&x) {
                                bv.push(x);
                            }
                        }
                        bv.sort_unstable();
                        bv.truncate(sb);
                        let a = PaddedOperand::side_a(&av);
                        let b = PaddedOperand::side_b(&bv);
                        let got = table.count_operands(&a, &b);
                        let want = reference_count(&av, &bv);
                        assert_eq!(got, want, "level={level} stride={stride} sa={sa} sb={sb}");
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_segments_take_fallback() {
        for level in SimdLevel::available_levels() {
            let table = KernelTable::new(level, 1);
            let n = table.tmax() + 10;
            let av: Vec<u32> = (0..n as u32).map(|i| i * 3).collect();
            let bv: Vec<u32> = (0..n as u32).map(|i| i * 2).collect();
            let a = PaddedOperand::side_a(&av);
            let b = PaddedOperand::side_b(&bv);
            let got = table.count_operands(&a, &b);
            assert_eq!(got, reference_count(&av, &bv), "level={level}");
        }
    }

    #[test]
    fn general_kernel_matches_reference() {
        for level in SimdLevel::available_levels() {
            let tmax = table_max(level);
            for (sa, sb) in [(1, 1), (2, 5), (7, 7), (tmax, tmax), (3, tmax)] {
                let av = random_run(sa, 11);
                let mut bv = random_run(sb, 23);
                if let Some(&x) = av.first() {
                    if !bv.contains(&x) {
                        bv.push(x);
                        bv.sort_unstable();
                        bv.truncate(sb);
                    }
                }
                let a = PaddedOperand::side_a(&av);
                let b = PaddedOperand::side_b(&bv);
                let got = general_count(level, &a, &b);
                assert_eq!(got, reference_count(&av, &bv), "level={level} {sa}x{sb}");
            }
        }
    }

    #[test]
    fn identical_runs_count_fully() {
        for level in SimdLevel::available_levels() {
            let table = KernelTable::new(level, 1);
            for n in 1..=table.tmax() {
                let v: Vec<u32> = (0..n as u32).map(|i| i * 5 + 2).collect();
                let a = PaddedOperand::side_a(&v);
                let b = PaddedOperand::side_b(&v);
                assert_eq!(
                    table.count_operands(&a, &b),
                    n as u32,
                    "level={level} n={n}"
                );
            }
        }
    }

    #[test]
    fn table_shapes_and_footprints() {
        let t1 = KernelTable::new(SimdLevel::Scalar, 1);
        assert_eq!(t1.num_kernels(), 64);
        let t4 = KernelTable::new(SimdLevel::Scalar, 4);
        assert_eq!(t4.num_kernels(), 16);
        assert!(t4.estimated_code_bytes() < t1.estimated_code_bytes());
        if SimdLevel::Avx512.is_available() {
            let full = KernelTable::new(SimdLevel::Avx512, 1);
            let s4 = KernelTable::new(SimdLevel::Avx512, 4);
            let s8 = KernelTable::new(SimdLevel::Avx512, 8);
            assert_eq!(full.num_kernels(), 1024);
            assert_eq!(s4.num_kernels(), 256);
            assert_eq!(s8.num_kernels(), 128);
            // Table II shape: each stride step shrinks the footprint, and
            // stride 8 is several times smaller than the full table.
            assert!(s4.estimated_code_bytes() < full.estimated_code_bytes());
            assert!(s8.estimated_code_bytes() < s4.estimated_code_bytes());
            assert!(s8.estimated_code_bytes() * 4 < full.estimated_code_bytes());
        }
    }

    #[test]
    fn hybrid_tables_dispatch_correctly() {
        let widest = SimdLevel::detect();
        for scan in SimdLevel::available_levels() {
            let t = KernelTable::hybrid(scan, widest, 1);
            assert_eq!(t.level(), scan);
            assert_eq!(t.kernel_level(), widest);
            assert_eq!(t.tmax(), table_max(widest));
            let a = PaddedOperand::side_a(&[1, 5, 9]);
            let b = PaddedOperand::side_b(&[5, 9, 11]);
            assert_eq!(t.count_operands(&a, &b), 2, "scan={scan}");
        }
        // And the reverse hybrid: wide scan, scalar kernels.
        let t = KernelTable::hybrid(widest, SimdLevel::Scalar, 1);
        assert_eq!(t.kernel_level(), SimdLevel::Scalar);
        let a = PaddedOperand::side_a(&[2, 4]);
        let b = PaddedOperand::side_b(&[4, 6]);
        assert_eq!(t.count_operands(&a, &b), 1);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn bad_stride_panics() {
        let _ = KernelTable::new(SimdLevel::Scalar, 3);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_operand_panics() {
        let _ = PaddedOperand::side_a(&[3, 1]);
    }
}
