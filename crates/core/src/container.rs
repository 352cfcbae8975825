//! Adaptive per-range containers: the third representation tier of a
//! [`crate::SegmentedSet`] (DESIGN.md §5h).
//!
//! FESIA's hashed segment bitmap is one global representation; real
//! corpora are locally non-uniform. Following Roaring (arXiv:1709.07821),
//! this tier partitions the *value domain* into aligned 65536-value
//! ranges (range key = `value >> 16`) and stores each range in whichever
//! of three layouts is smallest:
//!
//! * **Array** — the sorted low 16 bits, `2·card` bytes (sparse ranges).
//! * **Bitmap** — a plain 1024-word (`8 KiB`) value bitmap. Unlike the
//!   hashed segment bitmap, every bit position *is* a value, so
//!   intersection / union / difference / xor are direct word
//!   AND/OR/ANDNOT/XOR with popcount ([`fesia_simd::mask::word_op_count`]),
//!   exact for every op with no collision rule (DESIGN.md §5g).
//! * **Run** — sorted maximal runs, `4·nruns` bytes (near-saturated or
//!   clustered ranges).
//!
//! The directory is built deterministically from the sorted element
//! array alone ([`crate::layout::build_container_tier`]), so every decode
//! path can rebuild and cross-check it, and it serializes as four `.fsia`
//! v4 sections that [`SegmentedSet::deserialize_mapped`] views
//! zero-copy.
//!
//! [`SegmentedSet::deserialize_mapped`]: crate::SegmentedSet::deserialize_mapped

use crate::kernels::visit::{SegmentVisitor, SetOp};
use crate::mmap::Section;
use fesia_simd::mask::{word_op_count, word_op_into, MaskOp};
use fesia_simd::SimdLevel;

/// Bits of value space per range: ranges are keyed by `value >> 16`.
pub const RANGE_SHIFT: u32 = 16;

/// Values covered by one range.
pub const RANGE_VALUES: usize = 1 << RANGE_SHIFT;

/// `u64` words in one word-bitmap range payload.
pub const WORDS_PER_RANGE: usize = RANGE_VALUES / 64;

/// Minimum set size for the tier to be built at all. Below this the whole
/// set is cache-resident and the directory is pure overhead. Fixed (not a
/// tunable) so that rebuild-and-compare decode validation is
/// deterministic.
pub const CONTAINER_MIN_BUILD: usize = 4096;

/// Largest cardinality stored as an array: above this, 2 bytes/element
/// exceeds the 8 KiB bitmap and the range flips to [`ContainerKind::Bitmap`].
pub const ARRAY_CARD_MAX: usize = 4096;

/// Serialized bytes of one bitmap payload (the classification constant).
const BITMAP_BYTES: usize = WORDS_PER_RANGE * 8;

/// `u64` directory words per range entry.
pub(crate) const DIR_WORDS_PER_RANGE: usize = 2;

/// How one 65536-value range is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ContainerKind {
    /// Sorted low-16-bit values (`u16` each).
    Array = 0,
    /// 1024-word value bitmap.
    Bitmap = 1,
    /// Sorted maximal runs, `start | (len-1) << 16` (`u32` each).
    Run = 2,
}

impl ContainerKind {
    /// Decode a serialized kind tag.
    pub fn from_u8(k: u8) -> Option<ContainerKind> {
        match k {
            0 => Some(ContainerKind::Array),
            1 => Some(ContainerKind::Bitmap),
            2 => Some(ContainerKind::Run),
            _ => None,
        }
    }

    /// Short lowercase name (for `fesia info` and logs).
    pub fn name(self) -> &'static str {
        match self {
            ContainerKind::Array => "array",
            ContainerKind::Bitmap => "bitmap",
            ContainerKind::Run => "run",
        }
    }
}

/// Pick the smallest representation for a range of `card` values forming
/// `nruns` maximal runs — byte costs `2·card` (array), 8192 (bitmap),
/// `4·nruns` (run).
pub(crate) fn classify(card: usize, nruns: usize) -> ContainerKind {
    let run_bytes = 4 * nruns;
    if run_bytes < BITMAP_BYTES && run_bytes < 2 * card {
        ContainerKind::Run
    } else if card <= ARRAY_CARD_MAX {
        ContainerKind::Array
    } else {
        ContainerKind::Bitmap
    }
}

/// One decoded directory entry. `offset`/`len` are in elements of the
/// kind's payload section (`u16` values, `u64` words, `u32` runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DirEntry {
    pub key: u32,
    pub kind_raw: u8,
    pub card: u32,
    pub offset: u32,
    pub len: u32,
}

pub(crate) fn encode_dir_entry(
    key: u32,
    kind: ContainerKind,
    card: u32,
    offset: u32,
    len: u32,
) -> [u64; 2] {
    debug_assert!(key < (1 << 16) && (1..=RANGE_VALUES as u32).contains(&card));
    [
        u64::from(key) | (kind as u64) << 16 | u64::from(card) << 32,
        u64::from(offset) | u64::from(len) << 32,
    ]
}

pub(crate) fn decode_dir_entry(w0: u64, w1: u64) -> DirEntry {
    DirEntry {
        key: (w0 & 0xffff) as u32,
        kind_raw: (w0 >> 16) as u8,
        card: (w0 >> 32) as u32,
        offset: (w1 & 0xffff_ffff) as u32,
        len: (w1 >> 32) as u32,
    }
}

/// Pack one run: `start | (len-1) << 16`.
pub(crate) fn encode_run(start: u16, len: u32) -> u32 {
    debug_assert!((1..=RANGE_VALUES as u32).contains(&len));
    u32::from(start) | (len - 1) << 16
}

#[inline]
fn run_start(e: u32) -> u32 {
    e & 0xffff
}

#[inline]
fn run_len(e: u32) -> u32 {
    (e >> 16) + 1
}

#[inline]
fn run_end(e: u32) -> u32 {
    run_start(e) + run_len(e) - 1
}

/// Per-kind range counts and cardinalities, computed once per tier — the
/// planner's container features and the `fesia info` histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContainerStats {
    /// Ranges stored as sorted `u16` arrays.
    pub ranges_array: u32,
    /// Ranges stored as 1024-word value bitmaps.
    pub ranges_bitmap: u32,
    /// Ranges stored as run lists.
    pub ranges_run: u32,
    /// Elements living in array ranges.
    pub card_array: u64,
    /// Elements living in bitmap ranges.
    pub card_bitmap: u64,
    /// Elements living in run ranges.
    pub card_run: u64,
}

impl ContainerStats {
    /// Total ranges in the directory.
    pub fn ranges(&self) -> u32 {
        self.ranges_array + self.ranges_bitmap + self.ranges_run
    }

    /// Total elements across all ranges (= the set's length).
    pub fn card(&self) -> u64 {
        self.card_array + self.card_bitmap + self.card_run
    }

    /// Fraction of elements in word-op-friendly (bitmap or run) ranges —
    /// the planner's density feature: word ops only pay when most of the
    /// work they replace lives in dense ranges.
    pub fn dense_fraction(&self) -> f64 {
        self.card_bitmap.saturating_add(self.card_run) as f64 / self.card().max(1) as f64
    }
}

/// The container tier: a range directory plus three payload sections.
/// Sections are [`Section`]s so mapped corpora view them zero-copy.
#[derive(Debug, Clone)]
pub struct ContainerTier {
    pub(crate) dir: Section<u64>,
    pub(crate) values: Section<u16>,
    pub(crate) words: Section<u64>,
    pub(crate) runs: Section<u32>,
    stats: ContainerStats,
}

/// Borrowed payload of one range.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Payload<'a> {
    Array(&'a [u16]),
    Bitmap(&'a [u64]),
    Run(&'a [u32]),
}

impl ContainerTier {
    /// Assemble a tier from validated parts, computing its stats.
    pub(crate) fn from_parts(
        dir: Section<u64>,
        values: Section<u16>,
        words: Section<u64>,
        runs: Section<u32>,
    ) -> ContainerTier {
        let stats = compute_stats(&dir);
        ContainerTier {
            dir,
            values,
            words,
            runs,
            stats,
        }
    }

    /// Number of populated ranges.
    #[inline]
    pub fn num_ranges(&self) -> usize {
        self.dir.len() / DIR_WORDS_PER_RANGE
    }

    /// Per-kind range/cardinality stats.
    #[inline]
    pub fn stats(&self) -> ContainerStats {
        self.stats
    }

    /// The four raw sections (directory, array values, bitmap words, runs)
    /// in serialization order.
    pub(crate) fn sections(&self) -> (&[u64], &[u16], &[u64], &[u32]) {
        (&self.dir, &self.values, &self.words, &self.runs)
    }

    /// Bytes of heap the tier owns (0 for fully mapped tiers).
    pub fn heap_bytes(&self) -> usize {
        let sec = |owned: bool, bytes: usize| if owned { bytes } else { 0 };
        sec(matches!(self.dir, Section::Owned(_)), self.dir.len() * 8)
            + sec(
                matches!(self.values, Section::Owned(_)),
                self.values.len() * 2,
            )
            + sec(
                matches!(self.words, Section::Owned(_)),
                self.words.len() * 8,
            )
            + sec(matches!(self.runs, Section::Owned(_)), self.runs.len() * 4)
    }

    /// Total bytes of the tier's sections regardless of backing.
    pub fn memory_bytes(&self) -> usize {
        self.dir.len() * 8 + self.values.len() * 2 + self.words.len() * 8 + self.runs.len() * 4
    }

    #[inline]
    pub(crate) fn entry(&self, i: usize) -> DirEntry {
        decode_dir_entry(self.dir[2 * i], self.dir[2 * i + 1])
    }

    /// The kind of range `i` (directory order).
    pub fn range_kind(&self, i: usize) -> ContainerKind {
        ContainerKind::from_u8(self.entry(i).kind_raw).expect("validated directory")
    }

    #[inline]
    pub(crate) fn payload(&self, e: &DirEntry) -> Payload<'_> {
        let (off, len) = (e.offset as usize, e.len as usize);
        match ContainerKind::from_u8(e.kind_raw).expect("validated directory") {
            ContainerKind::Array => Payload::Array(&self.values[off..off + len]),
            ContainerKind::Bitmap => Payload::Bitmap(&self.words[off..off + len]),
            ContainerKind::Run => Payload::Run(&self.runs[off..off + len]),
        }
    }

    /// Exact membership in the value domain: a binary search over the
    /// directory keys, then one word test (bitmap range) or a binary
    /// search (array and run ranges).
    #[inline]
    pub(crate) fn contains(&self, x: u32) -> bool {
        let key = x >> RANGE_SHIFT;
        let (mut lo, mut hi) = (0usize, self.num_ranges());
        while lo < hi {
            let mid = (lo + hi) / 2;
            match ((self.dir[2 * mid] & 0xffff) as u32).cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    return payload_contains(&self.payload(&self.entry(mid)), x as u16)
                }
            }
        }
        false
    }

    /// Structural + content self-check (used by [`crate::SegmentedSet::validate`]).
    pub fn validate(&self, n: usize) -> bool {
        validate_tier(&self.dir, &self.values, &self.words, &self.runs, n).is_some()
    }
}

/// Walk a directory and accumulate per-kind stats (no validation).
pub(crate) fn compute_stats(dir: &[u64]) -> ContainerStats {
    let mut s = ContainerStats::default();
    for pair in dir.chunks_exact(DIR_WORDS_PER_RANGE) {
        let e = decode_dir_entry(pair[0], pair[1]);
        match ContainerKind::from_u8(e.kind_raw) {
            Some(ContainerKind::Array) => {
                s.ranges_array += 1;
                s.card_array += u64::from(e.card);
            }
            Some(ContainerKind::Bitmap) => {
                s.ranges_bitmap += 1;
                s.card_bitmap += u64::from(e.card);
            }
            Some(ContainerKind::Run) | None => {
                s.ranges_run += 1;
                s.card_run += u64::from(e.card);
            }
        }
    }
    s
}

/// Validate a decoded tier without allocating: directory structure (keys
/// strictly ascending, known kinds, per-kind payload offsets forming
/// exact prefix sums that consume each section, cards summing to `n`) and
/// payload content (sorted array values, bitmap popcount = card, sorted
/// non-overlapping non-adjacent runs whose lengths sum to card). Returns
/// the tier's stats on success so mapped decode gets them in the same
/// O(sections) pass.
pub(crate) fn validate_tier(
    dir: &[u64],
    values: &[u16],
    words: &[u64],
    runs: &[u32],
    n: usize,
) -> Option<ContainerStats> {
    if !dir.len().is_multiple_of(DIR_WORDS_PER_RANGE) {
        return None;
    }
    let mut stats = ContainerStats::default();
    let mut prev_key: i64 = -1;
    let (mut voff, mut woff, mut roff) = (0usize, 0usize, 0usize);
    let mut total_card = 0u64;
    for pair in dir.chunks_exact(DIR_WORDS_PER_RANGE) {
        let e = decode_dir_entry(pair[0], pair[1]);
        if i64::from(e.key) <= prev_key || (pair[0] >> 24) & 0xff != 0 {
            return None; // out-of-order / duplicate keys or reserved bits set
        }
        prev_key = i64::from(e.key);
        let card = e.card as usize;
        let len = e.len as usize;
        if !(1..=RANGE_VALUES).contains(&card) {
            return None;
        }
        total_card += e.card as u64;
        match ContainerKind::from_u8(e.kind_raw)? {
            ContainerKind::Array => {
                if card > ARRAY_CARD_MAX || len != card || e.offset as usize != voff {
                    return None;
                }
                let vals = values.get(voff..voff + len)?;
                if !vals.windows(2).all(|w| w[0] < w[1]) {
                    return None;
                }
                voff += len;
                stats.ranges_array += 1;
                stats.card_array += e.card as u64;
            }
            ContainerKind::Bitmap => {
                if card <= ARRAY_CARD_MAX || len != WORDS_PER_RANGE || e.offset as usize != woff {
                    return None;
                }
                let ws = words.get(woff..woff + len)?;
                let ones: u64 = ws.iter().map(|w| u64::from(w.count_ones())).sum();
                if ones != e.card as u64 {
                    return None;
                }
                woff += len;
                stats.ranges_bitmap += 1;
                stats.card_bitmap += e.card as u64;
            }
            ContainerKind::Run => {
                // Run wins only when strictly smaller than both rivals.
                if len == 0 || 4 * len >= BITMAP_BYTES || 4 * len >= 2 * card {
                    return None;
                }
                if e.offset as usize != roff {
                    return None;
                }
                let rs = runs.get(roff..roff + len)?;
                let mut prev_end: i64 = -2;
                let mut covered = 0u64;
                for &r in rs {
                    let (start, end) = (run_start(r), run_end(r));
                    // Maximal runs: the next run starts after a gap.
                    if i64::from(start) <= prev_end + 1 || end > 0xffff {
                        return None;
                    }
                    prev_end = i64::from(end);
                    covered += u64::from(run_len(r));
                }
                if covered != e.card as u64 {
                    return None;
                }
                roff += len;
                stats.ranges_run += 1;
                stats.card_run += e.card as u64;
            }
        }
    }
    if voff != values.len() || woff != words.len() || roff != runs.len() || total_card != n as u64 {
        return None;
    }
    Some(stats)
}

// ---------------------------------------------------------------------------
// Range-level operation bodies.
// ---------------------------------------------------------------------------

#[inline]
fn bitmap_test(words: &[u64], v: u32) -> bool {
    words[(v >> 6) as usize] >> (v & 63) & 1 == 1
}

/// Popcount of `words` restricted to the inclusive bit interval
/// `[start, end]`.
fn bitmap_count_interval(words: &[u64], start: u32, end: u32) -> u64 {
    let (ws, we) = ((start >> 6) as usize, (end >> 6) as usize);
    let lo = start & 63;
    let hi = end & 63;
    if ws == we {
        let width = hi - lo + 1;
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        return u64::from((words[ws] >> lo & mask).count_ones());
    }
    let mut ones = u64::from((words[ws] >> lo).count_ones());
    for &w in &words[ws + 1..we] {
        ones += u64::from(w.count_ones());
    }
    let hi_mask = if hi == 63 {
        u64::MAX
    } else {
        (1u64 << (hi + 1)) - 1
    };
    ones + u64::from((words[we] & hi_mask).count_ones())
}

fn array_array_and(x: &[u16], y: &[u16]) -> u64 {
    let (mut i, mut j, mut cnt) = (0usize, 0usize, 0u64);
    while i < x.len() && j < y.len() {
        match x[i].cmp(&y[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                cnt += 1;
                i += 1;
                j += 1;
            }
        }
    }
    cnt
}

fn array_run_and(x: &[u16], r: &[u32]) -> u64 {
    let (mut j, mut cnt) = (0usize, 0u64);
    for &v in x {
        let v = u32::from(v);
        while j < r.len() && run_end(r[j]) < v {
            j += 1;
        }
        if j == r.len() {
            break;
        }
        if run_start(r[j]) <= v {
            cnt += 1;
        }
    }
    cnt
}

fn run_run_and(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut cnt) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let (sa, ea) = (run_start(a[i]), run_end(a[i]));
        let (sb, eb) = (run_start(b[j]), run_end(b[j]));
        let lo = sa.max(sb);
        let hi = ea.min(eb);
        if lo <= hi {
            cnt += u64::from(hi - lo + 1);
        }
        if ea <= eb {
            i += 1;
        } else {
            j += 1;
        }
    }
    cnt
}

/// AND-cardinality of one matched range pair. `word_ops` counts the `u64`
/// words pushed through the word kernels.
fn range_and_count(a: &Payload<'_>, b: &Payload<'_>, level: SimdLevel, word_ops: &mut u64) -> u64 {
    use Payload::*;
    match (a, b) {
        (Array(x), Array(y)) => array_array_and(x, y),
        (Array(x), Bitmap(w)) | (Bitmap(w), Array(x)) => {
            x.iter().filter(|&&v| bitmap_test(w, u32::from(v))).count() as u64
        }
        (Array(x), Run(r)) | (Run(r), Array(x)) => array_run_and(x, r),
        (Bitmap(wa), Bitmap(wb)) => {
            *word_ops += WORDS_PER_RANGE as u64;
            word_op_count(level, MaskOp::And, wa, wb)
        }
        (Bitmap(w), Run(r)) | (Run(r), Bitmap(w)) => r
            .iter()
            .map(|&e| bitmap_count_interval(w, run_start(e), run_end(e)))
            .sum(),
        (Run(ra), Run(rb)) => run_run_and(ra, rb),
    }
}

/// Intersection cardinality: the matched-range AND total, walking the
/// two directories merged on range key. The other ops' cardinalities
/// follow from it by inclusion–exclusion ([`crate::set_op_count`]).
pub fn intersect_count(a: &ContainerTier, b: &ContainerTier, level: SimdLevel) -> usize {
    let (na, nb) = (a.num_ranges(), b.num_ranges());
    let (mut i, mut j) = (0usize, 0usize);
    let (mut count, mut word_ops) = (0u64, 0u64);
    while i < na && j < nb {
        let ea = a.entry(i);
        let eb = b.entry(j);
        match ea.key.cmp(&eb.key) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += range_and_count(&a.payload(&ea), &b.payload(&eb), level, &mut word_ops);
                i += 1;
                j += 1;
            }
        }
    }
    record_metrics(&[a, b], word_ops);
    count as usize
}

/// Publish the per-op container metrics once per executed operation.
fn record_metrics(tiers: &[&ContainerTier], word_ops: u64) {
    let m = fesia_obs::metrics();
    let (mut array, mut bitmap, mut run) = (0u64, 0u64, 0u64);
    for t in tiers {
        let s = t.stats();
        array += u64::from(s.ranges_array);
        bitmap += u64::from(s.ranges_bitmap);
        run += u64::from(s.ranges_run);
    }
    m.container_ranges_array.add(array);
    m.container_ranges_bitmap.add(bitmap);
    m.container_ranges_run.add(run);
    m.container_word_ops.add(word_ops);
}

// --- materializing path -----------------------------------------------------

/// Emit every element of one range (ascending), used for ranges whose key
/// exists on only one side.
fn emit_all<V: SegmentVisitor>(base: u32, p: &Payload<'_>, v: &mut V) {
    match p {
        Payload::Array(x) => emit_array_all(base, x, v),
        Payload::Bitmap(w) => v.visit_words(base, w),
        Payload::Run(r) => {
            for &e in *r {
                emit_span(base + run_start(e), run_len(e), v);
            }
        }
    }
}

fn emit_array_all<V: SegmentVisitor>(base: u32, x: &[u16], v: &mut V) {
    let mut buf = [0u32; 256];
    for chunk in x.chunks(256) {
        for (i, &val) in chunk.iter().enumerate() {
            buf[i] = base + u32::from(val);
        }
        v.visit_run(&buf[..chunk.len()]);
    }
}

/// Emit the consecutive values `start .. start + len` (chunked so the
/// visitor sees bulk runs).
fn emit_span<V: SegmentVisitor>(start: u32, len: u32, v: &mut V) {
    let mut buf = [0u32; 256];
    let mut cur = start;
    let mut remaining = len;
    while remaining > 0 {
        let k = remaining.min(256);
        for (i, slot) in buf[..k as usize].iter_mut().enumerate() {
            *slot = cur + i as u32;
        }
        v.visit_run(&buf[..k as usize]);
        cur += k;
        remaining -= k;
    }
}

#[inline]
fn payload_contains(p: &Payload<'_>, v: u16) -> bool {
    match p {
        Payload::Array(x) => x.binary_search(&v).is_ok(),
        Payload::Bitmap(w) => bitmap_test(w, u32::from(v)),
        Payload::Run(r) => r
            .binary_search_by(|&e| {
                if run_end(e) < u32::from(v) {
                    std::cmp::Ordering::Less
                } else if run_start(e) > u32::from(v) {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok(),
    }
}

/// Expand a payload into `buf` as a 1024-word bitmap, or borrow it
/// directly when it already is one ("converting only the overlap" —
/// conversion happens per matched range, never for the whole set).
fn as_words<'a>(p: &Payload<'a>, buf: &'a mut Vec<u64>) -> &'a [u64] {
    match p {
        Payload::Bitmap(w) => w,
        Payload::Array(x) => {
            buf.clear();
            buf.resize(WORDS_PER_RANGE, 0);
            for &v in *x {
                buf[(v >> 6) as usize] |= 1u64 << (v & 63);
            }
            buf
        }
        Payload::Run(r) => {
            buf.clear();
            buf.resize(WORDS_PER_RANGE, 0);
            for &e in *r {
                let (start, end) = (run_start(e), run_end(e));
                let (ws, we) = ((start >> 6) as usize, (end >> 6) as usize);
                let lo = start & 63;
                let hi = end & 63;
                if ws == we {
                    let width = hi - lo + 1;
                    let mask = if width == 64 {
                        u64::MAX
                    } else {
                        (1u64 << width) - 1
                    };
                    buf[ws] |= mask << lo;
                } else {
                    buf[ws] |= u64::MAX << lo;
                    for w in &mut buf[ws + 1..we] {
                        *w = u64::MAX;
                    }
                    buf[we] |= if hi == 63 {
                        u64::MAX
                    } else {
                        (1u64 << (hi + 1)) - 1
                    };
                }
            }
            buf
        }
    }
}

/// The word combiner that computes `op` exactly in the value domain.
#[inline]
fn word_combiner(op: SetOp) -> MaskOp {
    match op {
        SetOp::Intersect => MaskOp::And,
        SetOp::Union => MaskOp::Or,
        SetOp::Difference => MaskOp::AndNotB,
        SetOp::Xor => MaskOp::Xor,
    }
}

/// Scratch for the general matched-range path: two conversion bitmaps and
/// one output bitmap (24 KiB total, reused across ranges).
struct RangeScratch {
    a: Vec<u64>,
    b: Vec<u64>,
    out: Vec<u64>,
}

#[allow(clippy::too_many_arguments)] // internal dispatch shared by op_visit only
fn range_op_visit<V: SegmentVisitor>(
    op: SetOp,
    base: u32,
    pa: &Payload<'_>,
    pb: &Payload<'_>,
    level: SimdLevel,
    scratch: &mut RangeScratch,
    word_ops: &mut u64,
    v: &mut V,
) {
    use Payload::*;
    match (op, pa, pb) {
        // Array × array: direct widening merges, no conversion.
        (_, Array(x), Array(y)) => array_array_visit(op, base, x, y, v),
        // Intersection with an array on either side: probe-emit the array
        // (ascending; intersection commutes).
        (SetOp::Intersect, Array(x), other) | (SetOp::Intersect, other, Array(x)) => {
            for &val in *x {
                if payload_contains(other, val) {
                    v.visit(base + u32::from(val));
                }
            }
        }
        // Difference with the array on the kept side: probe-emit misses.
        (SetOp::Difference, Array(x), other) => {
            for &val in *x {
                if !payload_contains(other, val) {
                    v.visit(base + u32::from(val));
                }
            }
        }
        // Everything else converts the overlap to 1024-word bitmaps and
        // runs one word op (borrowing bitmap payloads without copying).
        _ => {
            let wa = as_words(pa, &mut scratch.a);
            let wb = as_words(pb, &mut scratch.b);
            scratch.out.clear();
            scratch.out.resize(WORDS_PER_RANGE, 0);
            *word_ops += WORDS_PER_RANGE as u64;
            let ones = word_op_into(level, word_combiner(op), wa, wb, &mut scratch.out);
            if ones > 0 {
                v.visit_words(base, &scratch.out);
            }
        }
    }
}

fn array_array_visit<V: SegmentVisitor>(op: SetOp, base: u32, x: &[u16], y: &[u16], v: &mut V) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < x.len() && j < y.len() {
        match x[i].cmp(&y[j]) {
            std::cmp::Ordering::Less => {
                if !matches!(op, SetOp::Intersect) {
                    v.visit(base + u32::from(x[i]));
                }
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                if matches!(op, SetOp::Union | SetOp::Xor) {
                    v.visit(base + u32::from(y[j]));
                }
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if matches!(op, SetOp::Intersect | SetOp::Union) {
                    v.visit(base + u32::from(x[i]));
                }
                i += 1;
                j += 1;
            }
        }
    }
    if !matches!(op, SetOp::Intersect) {
        emit_array_all(base, &x[i..], v);
    }
    if matches!(op, SetOp::Union | SetOp::Xor) {
        emit_array_all(base, &y[j..], v);
    }
}

/// Materialize `op` over the two tiers into `v`, ascending. Matched range
/// pairs dispatch per kind; unmatched ranges emit (or skip) whole
/// containers without conversion.
pub fn op_visit<V: SegmentVisitor>(
    op: SetOp,
    a: &ContainerTier,
    b: &ContainerTier,
    level: SimdLevel,
    v: &mut V,
) {
    let (na, nb) = (a.num_ranges(), b.num_ranges());
    let (mut i, mut j) = (0usize, 0usize);
    let mut word_ops = 0u64;
    let mut scratch = RangeScratch {
        a: Vec::new(),
        b: Vec::new(),
        out: Vec::new(),
    };
    while i < na || j < nb {
        let ea = (i < na).then(|| a.entry(i));
        let eb = (j < nb).then(|| b.entry(j));
        let order = match (&ea, &eb) {
            (Some(x), Some(y)) => x.key.cmp(&y.key),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => unreachable!("loop bound"),
        };
        match order {
            std::cmp::Ordering::Less => {
                let e = ea.unwrap();
                if !matches!(op, SetOp::Intersect) {
                    emit_all(e.key << RANGE_SHIFT, &a.payload(&e), v);
                }
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                let e = eb.unwrap();
                if matches!(op, SetOp::Union | SetOp::Xor) {
                    emit_all(e.key << RANGE_SHIFT, &b.payload(&e), v);
                }
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let (x, y) = (ea.unwrap(), eb.unwrap());
                range_op_visit(
                    op,
                    x.key << RANGE_SHIFT,
                    &a.payload(&x),
                    &b.payload(&y),
                    level,
                    &mut scratch,
                    &mut word_ops,
                    v,
                );
                i += 1;
                j += 1;
            }
        }
    }
    record_metrics(&[a, b], word_ops);
}

/// Emit the values of a sparse range (`card <= ARRAY_CARD_MAX`, array or
/// run kind) that `keep` accepts, ascending.
fn emit_filtered<V: SegmentVisitor>(
    base: u32,
    p: &Payload<'_>,
    mut keep: impl FnMut(u32) -> bool,
    v: &mut V,
) {
    match p {
        Payload::Array(x) => {
            for &val in *x {
                let y = base + u32::from(val);
                if keep(y) {
                    v.visit(y);
                }
            }
        }
        Payload::Run(r) => {
            for &e in *r {
                for y in base + run_start(e)..=base + run_end(e) {
                    if keep(y) {
                        v.visit(y);
                    }
                }
            }
        }
        Payload::Bitmap(_) => unreachable!("bitmap ranges hold more than ARRAY_CARD_MAX values"),
    }
}

/// Materialize `A \ B` ascending, for an `a` with a container tier and
/// any `b`. Each of A's ranges is answered in the value domain:
///
/// * B's tier holds the range → the matched-range difference kernel;
/// * B's tier lacks it → the whole range, no conversion;
/// * B has no tier (fewer than [`CONTAINER_MIN_BUILD`] elements) → a
///   sparse range probes each value against B, a dense one copies its
///   words and clears B's members in it. Only ranges above
///   [`ARRAY_CARD_MAX`] take the words path, so the clearing passes
///   over B cost at most `|A|` element visits in total.
///
/// The output comes out ascending, so callers need not sort it.
pub fn difference_visit_ordered<V: SegmentVisitor>(
    a: &ContainerTier,
    b: &crate::SegmentedSet,
    level: SimdLevel,
    v: &mut V,
) {
    let bt = b.container();
    let mut j = 0usize;
    let mut word_ops = 0u64;
    let mut scratch = RangeScratch {
        a: Vec::new(),
        b: Vec::new(),
        out: Vec::new(),
    };
    for i in 0..a.num_ranges() {
        let ea = a.entry(i);
        let base = ea.key << RANGE_SHIFT;
        let pa = a.payload(&ea);
        match bt {
            Some(t) => {
                while j < t.num_ranges() && t.entry(j).key < ea.key {
                    j += 1;
                }
                match (j < t.num_ranges()).then(|| t.entry(j)) {
                    Some(eb) if eb.key == ea.key => range_op_visit(
                        SetOp::Difference,
                        base,
                        &pa,
                        &t.payload(&eb),
                        level,
                        &mut scratch,
                        &mut word_ops,
                        v,
                    ),
                    _ => emit_all(base, &pa, v),
                }
            }
            None if ea.card as usize <= ARRAY_CARD_MAX => {
                emit_filtered(base, &pa, |y| !b.contains(y), v)
            }
            None => {
                let out = &mut scratch.out;
                out.clear();
                out.extend_from_slice(as_words(&pa, &mut scratch.a));
                for &y in b.reordered_elements() {
                    if y >> RANGE_SHIFT == ea.key {
                        let lo = y & 0xffff;
                        out[(lo >> 6) as usize] &= !(1u64 << (lo & 63));
                    }
                }
                v.visit_words(base, out);
            }
        }
    }
    match bt {
        Some(t) => record_metrics(&[a, t], word_ops),
        None => record_metrics(&[a], word_ops),
    }
}

/// Visit `T1 ∩ … ∩ Tk` ascending over k container tiers (`tiers[0]`
/// should be the smallest: it drives the directory walk). Per range key
/// present in every tier, the smallest-cardinality range anchors: a
/// sparse anchor probes its values against the other ranges, a dense
/// one (every range then holds more than [`ARRAY_CARD_MAX`] values, so
/// all are bitmaps or runs) ANDs the ranges' words and emits the result
/// through [`SegmentVisitor::visit_words`] — a popcount for counting
/// consumers.
pub(crate) fn kway_visit<V: SegmentVisitor>(tiers: &[&ContainerTier], v: &mut V) {
    let (lead, rest) = tiers.split_first().expect("k-way over zero tiers");
    let mut cursors = vec![0usize; rest.len()];
    let mut payloads: Vec<(u32, Payload<'_>)> = Vec::with_capacity(tiers.len());
    let mut acc: Vec<u64> = Vec::new();
    let mut conv: Vec<u64> = Vec::new();
    let mut word_ops = 0u64;
    'ranges: for i in 0..lead.num_ranges() {
        let e = lead.entry(i);
        payloads.clear();
        payloads.push((e.card, lead.payload(&e)));
        for (t, c) in rest.iter().zip(cursors.iter_mut()) {
            while *c < t.num_ranges() && t.entry(*c).key < e.key {
                *c += 1;
            }
            if *c == t.num_ranges() {
                break 'ranges; // this tier has no range at or past `e.key`
            }
            let f = t.entry(*c);
            if f.key != e.key {
                continue 'ranges;
            }
            payloads.push((f.card, t.payload(&f)));
        }
        let base = e.key << RANGE_SHIFT;
        let anchor = (0..payloads.len())
            .min_by_key(|&j| payloads[j].0)
            .expect("non-empty");
        let (card, pa) = payloads[anchor];
        if card as usize <= ARRAY_CARD_MAX {
            let others = &payloads;
            emit_filtered(
                base,
                &pa,
                |y| {
                    others
                        .iter()
                        .enumerate()
                        .all(|(j, (_, p))| j == anchor || payload_contains(p, y as u16))
                },
                v,
            );
        } else {
            acc.clear();
            acc.extend_from_slice(as_words(&pa, &mut conv));
            for (j, (_, p)) in payloads.iter().enumerate() {
                if j != anchor {
                    let w = as_words(p, &mut conv);
                    for (x, y) in acc.iter_mut().zip(w) {
                        *x &= y;
                    }
                    word_ops += WORDS_PER_RANGE as u64;
                }
            }
            v.visit_words(base, &acc);
        }
    }
    record_metrics(tiers, word_ops);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::visit::{CountVisitor, EmitVisitor};
    use crate::layout::build_container_tier;
    use std::collections::BTreeSet;

    /// `|op(A, B)|` through the emitting walk's counting visitor.
    fn op_count(op: SetOp, a: &ContainerTier, b: &ContainerTier, level: SimdLevel) -> usize {
        let mut cnt = CountVisitor::default();
        op_visit(op, a, b, level, &mut cnt);
        cnt.0
    }

    fn mixed_set(seed: u64) -> Vec<u32> {
        // Array ranges (sparse scatter), a bitmap range, and a run range.
        let mut s = BTreeSet::new();
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..3_000 {
            s.insert((next() % (8 << 16)) as u32); // keys 0..8: sparse
        }
        for _ in 0..9_000 {
            s.insert((10 << 16) + (next() % 65_536) as u32); // key 10: dense
        }
        let mut v = (20 << 16) + (next() % 512) as u32;
        while v < (21 << 16) - 600 {
            let len = 40 + (next() % 400) as u32; // key 20: long runs
            for x in v..(v + len).min((21 << 16) - 1) {
                s.insert(x);
            }
            v += len + 3 + (next() % 80) as u32;
        }
        s.into_iter().collect()
    }

    fn ref_op(op: SetOp, a: &[u32], b: &[u32]) -> Vec<u32> {
        let sa: BTreeSet<u32> = a.iter().copied().collect();
        let sb: BTreeSet<u32> = b.iter().copied().collect();
        match op {
            SetOp::Intersect => sa.intersection(&sb).copied().collect(),
            SetOp::Union => sa.union(&sb).copied().collect(),
            SetOp::Difference => sa.difference(&sb).copied().collect(),
            SetOp::Xor => sa.symmetric_difference(&sb).copied().collect(),
        }
    }

    #[test]
    fn classification_picks_the_smallest_layout() {
        assert_eq!(classify(4096, 4096), ContainerKind::Array);
        assert_eq!(classify(4097, 4097), ContainerKind::Bitmap);
        assert_eq!(classify(65536, 1), ContainerKind::Run);
        assert_eq!(classify(100, 1), ContainerKind::Run);
        assert_eq!(classify(100, 50), ContainerKind::Array);
        assert_eq!(classify(10_000, 2047), ContainerKind::Run);
        assert_eq!(classify(10_000, 2048), ContainerKind::Bitmap);
    }

    #[test]
    fn built_tier_contains_all_three_kinds_and_validates() {
        let elems = mixed_set(42);
        let tier = build_container_tier(&elems).expect("big enough");
        let s = tier.stats();
        assert!(s.ranges_array > 0 && s.ranges_bitmap > 0 && s.ranges_run > 0);
        assert_eq!(s.card(), elems.len() as u64);
        assert!(tier.validate(elems.len()));
        assert!(!tier.validate(elems.len() + 1), "card sum must match n");
        assert!(s.dense_fraction() > 0.5, "dense blobs dominate this set");
    }

    #[test]
    fn small_sets_skip_the_tier() {
        let elems: Vec<u32> = (0..CONTAINER_MIN_BUILD as u32 - 1).collect();
        assert!(build_container_tier(&elems).is_none());
        let elems: Vec<u32> = (0..CONTAINER_MIN_BUILD as u32).collect();
        assert!(build_container_tier(&elems).is_some());
    }

    #[test]
    fn every_op_matches_reference_on_mixed_tiers() {
        let a = mixed_set(1);
        let b = mixed_set(7);
        let ta = build_container_tier(&a).unwrap();
        let tb = build_container_tier(&b).unwrap();
        for op in [
            SetOp::Intersect,
            SetOp::Union,
            SetOp::Difference,
            SetOp::Xor,
        ] {
            let want = ref_op(op, &a, &b);
            for level in SimdLevel::available_levels() {
                assert_eq!(
                    op_count(op, &ta, &tb, level),
                    want.len(),
                    "count op={op:?} level={level}"
                );
                if op == SetOp::Intersect {
                    assert_eq!(intersect_count(&ta, &tb, level), want.len(), "{level}");
                }
                let mut got = Vec::new();
                op_visit(op, &ta, &tb, level, &mut EmitVisitor(&mut got));
                assert_eq!(got, want, "emit op={op:?} level={level}");
                // Emission is ascending and duplicate-free by construction.
                assert!(got.windows(2).all(|w| w[0] < w[1]), "order op={op:?}");
            }
        }
    }

    #[test]
    fn tier_membership_matches_reference() {
        // Keys 0..8 (arrays), 10 (bitmap), 20 (runs): a directory with gaps,
        // probed inside and outside its key span.
        let elems = mixed_set(11);
        let tier = build_container_tier(&elems).unwrap();
        let want: BTreeSet<u32> = elems.iter().copied().collect();
        let mut state = 0x7u64;
        let probes = elems.iter().copied().chain((0..20_000).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 40) as u32 % (24 << 16)
        }));
        for x in probes.chain([u32::MAX - 16, 9 << 16, 25 << 16]) {
            assert_eq!(tier.contains(x), want.contains(&x), "x={x}");
        }
        // A contiguous directory (keys 3..=5).
        let dense: Vec<u32> = ((3 << 16)..(6 << 16)).step_by(7).collect();
        let tier = build_container_tier(&dense).unwrap();
        for x in [
            0,
            (3 << 16) - 1,
            3 << 16,
            (3 << 16) + 7,
            (3 << 16) + 8,
            6 << 16,
        ] {
            assert_eq!(tier.contains(x), dense.binary_search(&x).is_ok(), "x={x}");
        }
    }

    #[test]
    fn disjoint_and_identical_tiers_hit_the_identities() {
        let a = mixed_set(3);
        let shifted: Vec<u32> = a.iter().map(|&x| x ^ (1 << 30)).collect();
        let mut b: Vec<u32> = shifted;
        b.sort_unstable();
        let ta = build_container_tier(&a).unwrap();
        let tb = build_container_tier(&b).unwrap();
        let level = SimdLevel::Scalar;
        assert_eq!(intersect_count(&ta, &tb, level), 0);
        assert_eq!(op_count(SetOp::Union, &ta, &tb, level), a.len() + b.len());
        assert_eq!(intersect_count(&ta, &ta, level), a.len());
        assert_eq!(op_count(SetOp::Xor, &ta, &ta, level), 0);
        assert_eq!(op_count(SetOp::Difference, &ta, &ta, level), 0);
    }

    #[test]
    fn bitmap_count_interval_matches_naive() {
        let mut words = vec![0u64; 16];
        let mut state = 99u64;
        for w in words.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *w = state;
        }
        let naive = |s: u32, e: u32| (s..=e).filter(|&v| bitmap_test(&words, v)).count() as u64;
        for &(s, e) in &[
            (0u32, 0u32),
            (0, 63),
            (0, 64),
            (5, 900),
            (63, 64),
            (100, 1023),
        ] {
            assert_eq!(
                bitmap_count_interval(&words, s, e),
                naive(s, e),
                "{s}..={e}"
            );
        }
    }

    #[test]
    fn hostile_directories_fail_validation() {
        let elems = mixed_set(5);
        let tier = build_container_tier(&elems).unwrap();
        let (dir, values, words, runs) = tier.sections();
        let n = elems.len();
        assert!(validate_tier(dir, values, words, runs, n).is_some());
        // Unknown kind tag.
        let mut bad = dir.to_vec();
        bad[0] = (bad[0] & !0xff_0000) | (3 << 16);
        assert!(validate_tier(&bad, values, words, runs, n).is_none());
        // Out-of-order keys.
        let mut bad = dir.to_vec();
        bad.rotate_right(2);
        assert!(validate_tier(&bad, values, words, runs, n).is_none());
        // Truncated run section.
        assert!(validate_tier(dir, values, words, &runs[..runs.len() - 1], n).is_none());
        // Bitmap payload popcount disagreeing with the directory card.
        let mut bad_words = words.to_vec();
        bad_words[0] ^= 1;
        assert!(validate_tier(dir, values, &bad_words, runs, n).is_none());
    }
}
