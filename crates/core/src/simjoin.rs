//! Exact set-similarity join on the threshold-aware filter cascade
//! (DESIGN.md §5i).
//!
//! A similarity join reports every pair of sets whose intersection
//! reaches a threshold — an absolute overlap `|A ∩ B| >= t`
//! ([`Threshold::Overlap`]) or a Jaccard coefficient
//! `|A ∩ B| / |A ∪ B| >= j` ([`Threshold::Jaccard`]). Evaluating all
//! `O(n²)` pairs exactly is hopeless; the classical fix (AllPairs /
//! PPJoin) is a *prefix filter*, and FESIA's segment machinery adds a
//! cheaper verification on top. The cascade, cheapest first:
//!
//! 1. **Length + prefix filter** (candidate generation): with every list
//!    in one global token order (value-ascending here), a pair reaching
//!    `t` must share a token in each side's first `len − t + 1` tokens,
//!    so probing an inverted index of prefixes yields a candidate
//!    superset without touching the other `t − 1` tokens.
//! 2. **XOR bitmap filter** (Sandes et al., arXiv:1711.07295): each set
//!    gets a `b`-bit filter in which every element toggles bit
//!    `h(x) mod b`. Then `popcount(F_A ⊕ F_B) <= |A △ B|`, so
//!    `|A ∩ B| <= (|A| + |B| − popcount(F_A ⊕ F_B)) / 2`, and a
//!    candidate whose bound falls below its [`Threshold::t_pair`] is
//!    rejected without a count. The filters are per-join scratch, built
//!    on the executor from the lists the join takes; the width follows
//!    from the threshold and the longest list (`filter_bits`).
//! 3. **Early-exit counting** ([`crate::intersect_count_bounded_planned`]):
//!    the planner-selected kernel sweep, aborted the moment the residual
//!    upper bound (matched-so-far + what the unswept remainder could
//!    contribute) drops below `t`. Survivors complete the sweep, so
//!    every reported pair carries its exact intersection size.
//!
//! Early exit is an explicit argument of the `*_with` entry points
//! ([`crate::params::SimjoinParams`]); off, the join is the
//! prefix-filter-only baseline (no XOR filter, exact full count per
//! candidate) that `repro simjoin` measures the cascade against.
//!
//! Tier 1 runs inside the parallel cascade rather than in front of it:
//! one flat prefix index is built per join, workers claim ranges of
//! probe sets, and each candidate a probe finds is decided at once, so
//! no candidate list is ever built. The per-stage `simjoin_*` counters
//! satisfy `candidates = bitmap_rejected + early_exited + verified`.

use crate::batch::DisjointOut;
use crate::hash::position;
use crate::intersect::{auto_count_planned, default_table, intersect_count_bounded_planned};
use crate::kernels::KernelTable;
use crate::params::{FesiaParams, SimjoinParams};
use crate::plan::IntersectPlanner;
use crate::set::SegmentedSet;
use fesia_exec::Executor;
use std::borrow::Borrow;

/// The [`SimjoinParams`] the default entry points run with: always
/// [`SimjoinParams::default`] (the full cascade).
pub fn simjoin_params() -> SimjoinParams {
    SimjoinParams::default()
}

// ---------------------------------------------------------------------------
// Thresholds
// ---------------------------------------------------------------------------

/// The join predicate: which pairs the join reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Threshold {
    /// Absolute overlap: `|A ∩ B| >= t`. `Overlap(0)` reports every
    /// pair.
    Overlap(usize),
    /// Jaccard coefficient: `|A ∩ B| / |A ∪ B| >= j`, `0.0 <= j <= 1.0`,
    /// decided by the cross-multiplied integer form
    /// `c · (1 + j) >= j · (|A| + |B|)` so the exact count settles the
    /// predicate without division (two empty sets qualify for every
    /// `j`). `Jaccard(0.0)` reports every pair.
    Jaccard(f64),
}

impl Threshold {
    fn validate(&self) {
        if let Threshold::Jaccard(j) = *self {
            assert!(
                (0.0..=1.0).contains(&j),
                "Jaccard threshold must be in [0, 1], got {j}"
            );
        }
    }

    /// Does every pair qualify (the prefix filter degenerates)?
    fn is_trivial(&self) -> bool {
        match *self {
            Threshold::Overlap(t) => t == 0,
            Threshold::Jaccard(j) => j == 0.0,
        }
    }

    /// The overlap this pair must reach to qualify: the smallest integer
    /// `c` satisfying the predicate at these lengths.
    pub fn t_pair(&self, la: usize, lb: usize) -> usize {
        match *self {
            Threshold::Overlap(t) => t,
            Threshold::Jaccard(j) => {
                let target = j * (la + lb) as f64;
                // Guard the float both ways so `t_pair` is exactly the
                // smallest integer passing `qualifies`.
                let mut c = (target / (1.0 + j)).ceil() as usize;
                while c > 0 && ((c - 1) as f64) * (1.0 + j) >= target {
                    c -= 1;
                }
                while (c as f64) * (1.0 + j) < target {
                    c += 1;
                }
                c
            }
        }
    }

    /// Does an exact overlap of `c` at these lengths satisfy the
    /// predicate?
    pub fn qualifies(&self, c: usize, la: usize, lb: usize) -> bool {
        match *self {
            Threshold::Overlap(t) => c >= t,
            Threshold::Jaccard(j) => (c as f64) * (1.0 + j) >= j * ((la + lb) as f64),
        }
    }

    /// A lower bound on [`Threshold::t_pair`] over every partner this
    /// set could qualify with — the prefix is `len − t_min + 1` tokens.
    /// For Jaccard the bound is `⌊j · len⌋` (a qualifying pair has
    /// `t_pair >= j · max(la, lb)` once the length filter holds), taken
    /// one token conservative so float rounding can only lengthen the
    /// prefix, never truncate it.
    fn t_min(&self, len: usize) -> usize {
        match *self {
            Threshold::Overlap(t) => t,
            Threshold::Jaccard(j) => (j * len as f64).floor() as usize,
        }
    }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Per-stage cascade tallies for one join run. Every candidate lands in
/// exactly one of the three outcome buckets:
/// `candidates = bitmap_rejected + early_exited + verified`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimjoinStats {
    /// Pairs the length/prefix filter generated (tier 1 survivors).
    pub candidates: u64,
    /// Candidates rejected by the XOR bitmap filter before any count:
    /// their bound `(|A| + |B| − popcount(F_A ⊕ F_B)) / 2` fell below
    /// the pair's `t_pair`. 0 when the join builds no filter (early exit
    /// off, a trivial threshold, or a width past the ceiling).
    pub bitmap_rejected: u64,
    /// Candidates rejected by the count — the early-exit sweep's residual
    /// bound, the planner's trivial length reject, or (with early exit
    /// disabled) an exact count falling short.
    pub early_exited: u64,
    /// Candidates confirmed by a completed exact count.
    pub verified: u64,
}

/// A similarity join's output: the qualifying index pairs and the
/// cascade tallies that produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimjoinResult {
    /// Qualifying `(i, j)` index pairs, lexicographically sorted. For a
    /// self-join `i < j` (each unordered pair once); for an A×B join
    /// `i` indexes A and `j` indexes B.
    pub pairs: Vec<(u32, u32)>,
    /// Per-stage cascade tallies.
    pub stats: SimjoinStats,
}

// ---------------------------------------------------------------------------
// Tier 1: length + prefix filter over one flat index
// ---------------------------------------------------------------------------

/// Check every list is strictly ascending, on up to `threads` executor
/// workers: it reads every element of the join's input, so it stays off
/// the submitting thread alone.
fn assert_sorted_lists(lists: &[Vec<u32>], threads: usize) {
    Executor::global().for_each_chunk(lists.len(), 1, threads, |range| {
        for i in range {
            assert!(
                lists[i].windows(2).all(|w| w[0] < w[1]),
                "list {i} is not strictly ascending"
            );
        }
    });
}

/// The probing prefix of `l`: its first `len − t_min + 1` tokens, or
/// `None` when `l` cannot reach the threshold with any partner.
fn prefix(threshold: Threshold, l: &[u32]) -> Option<&[u32]> {
    let t_min = threshold.t_min(l.len());
    (t_min <= l.len()).then(|| &l[..(l.len() - t_min + 1).min(l.len())])
}

/// Sort packed `(token << 32) | rank` entries that arrive in rank order
/// by token: a stable LSD radix sort, 10 bits a pass, over only the
/// token bits in use, so the result equals a full sort of the packed
/// keys; it measured faster than `sort_unstable` (DESIGN.md §5i).
fn sort_by_token(entries: Vec<u64>) -> Vec<u64> {
    const BITS: u32 = 10;
    const MASK: u64 = (1 << BITS) - 1;
    let max_token = entries.iter().map(|&e| e >> 32).max().unwrap_or(0);
    let (mut src, mut dst) = (entries, Vec::new());
    let mut sorted = 0;
    while sorted < 32 && max_token >> sorted != 0 {
        let digit = |e: u64| ((e >> (32 + sorted)) & MASK) as usize;
        let mut next = [0u32; 1 << BITS];
        for &e in &src {
            next[digit(e)] += 1;
        }
        let mut sum = 0;
        for n in &mut next {
            (*n, sum) = (sum, sum + *n);
        }
        dst.resize(src.len(), 0);
        for &e in &src {
            let d = digit(e);
            dst[next[d] as usize] = e;
            next[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        sorted += BITS;
    }
    src
}

/// Tier 1 of one join: the indexed side's sets in length-ascending
/// order (a set's position in it is its *rank*) and one flat inverted
/// index of their prefixes, in CSR form.
///
/// The index is built by packing every prefix entry as
/// `(token << 32) | rank` into one `Vec<u64>` and sorting it once, so
/// each token's postings come out as ascending ranks with no hash map
/// and no per-token allocation. A self-join probe's prefix tokens are
/// exactly the entries it was indexed under, and its lower-ranked
/// partners under each token sit just before its own entry, so the same
/// split records, per rank, those spans of `ranks`: the probe walks them
/// with no token lookup and no rank check. An A×B probe's tokens come
/// from the other side and are looked up by binary search.
struct PrefixIndex {
    threshold: Threshold,
    /// Set id at each rank: lengths ascending, ties by id.
    order: Vec<u32>,
    /// List length at each rank.
    lens: Vec<u32>,
    /// Ranks `0..empties` are the empty lists.
    empties: u32,
    /// Distinct prefix tokens, ascending.
    tokens: Vec<u32>,
    /// Postings of `tokens[g]`: `ranks[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    /// Ranks, ascending within each token.
    ranks: Vec<u32>,
    /// Self-join postings of rank `r`: for each of its prefix tokens,
    /// the `ranks` span of the lower ranks indexed under it, one span per
    /// entry of `spans[span_starts[r]..span_starts[r + 1]]`.
    span_starts: Vec<u32>,
    spans: Vec<(u32, u32)>,
}

impl PrefixIndex {
    /// The index of `lists`, each strictly ascending (checked on up to
    /// `threads` workers).
    fn build(lists: &[Vec<u32>], threshold: Threshold, threads: usize) -> Self {
        threshold.validate();
        assert_sorted_lists(lists, threads);
        let mut order: Vec<u32> = (0..lists.len() as u32).collect();
        order.sort_by_key(|&i| lists[i as usize].len());
        let lens: Vec<u32> = order
            .iter()
            .map(|&i| lists[i as usize].len() as u32)
            .collect();
        let empties = lens.partition_point(|&l| l == 0) as u32;
        let mut entries = Vec::new();
        let mut span_starts = Vec::with_capacity(order.len() + 1);
        span_starts.push(0);
        for (rank, &id) in order.iter().enumerate() {
            // A trivial threshold pairs every set with no token probing.
            if !threshold.is_trivial() {
                if let Some(p) = prefix(threshold, &lists[id as usize]) {
                    entries.extend(p.iter().map(|&tok| u64::from(tok) << 32 | rank as u64));
                }
            }
            span_starts.push(entries.len() as u32);
        }
        let entries = sort_by_token(entries);
        let (mut tokens, mut starts) = (Vec::new(), Vec::new());
        let mut spans = vec![(0, 0); entries.len()];
        let mut next = span_starts.clone();
        let ranks = entries
            .iter()
            .enumerate()
            .map(|(k, &e)| {
                let (tok, rank) = ((e >> 32) as u32, e as u32);
                if tokens.last() != Some(&tok) {
                    tokens.push(tok);
                    starts.push(k as u32);
                }
                let slot = &mut next[rank as usize];
                spans[*slot as usize] = (starts[starts.len() - 1], k as u32);
                *slot += 1;
                rank
            })
            .collect();
        starts.push(entries.len() as u32);
        PrefixIndex {
            threshold,
            order,
            lens,
            empties,
            tokens,
            starts,
            ranks,
            span_starts,
            spans,
        }
    }

    fn postings(&self, tok: u32) -> &[u32] {
        match self.tokens.binary_search(&tok) {
            Ok(g) => &self.ranks[self.starts[g] as usize..self.starts[g + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Call `emit(rank)` once for every indexed set below rank `limit`
    /// that the length + prefix filter pairs with a probe list of `len`
    /// tokens whose prefix tokens' postings, cut below `limit`, are
    /// `postings`. `marks` (one slot per rank) deduplicates; `epoch` must
    /// differ from every epoch previously used with the same `marks` and
    /// be non-zero.
    fn for_each_candidate<'p>(
        &self,
        len: usize,
        postings: impl Iterator<Item = &'p [u32]>,
        limit: u32,
        marks: &mut [u32],
        epoch: u32,
        mut emit: impl FnMut(u32),
    ) {
        let limit = limit.min(self.order.len() as u32);
        if self.threshold.is_trivial() {
            // Disjoint sets qualify, and token probing could never find
            // them.
            (0..limit).for_each(emit);
            return;
        }
        if self.threshold.t_min(len) > len {
            return; // can never reach the threshold with any partner
        }
        if len == 0 {
            // Only Jaccard gives an empty list a prefix, and it treats
            // two empty sets as qualifying (see [`Threshold`]); they carry
            // no tokens, so pair them directly.
            (0..limit.min(self.empties)).for_each(emit);
            return;
        }
        for post in postings {
            for &s in post {
                if marks[s as usize] == epoch {
                    continue;
                }
                marks[s as usize] = epoch;
                let ls = self.lens[s as usize] as usize;
                // Length filter: the pair is feasible only if the
                // shorter side could hold the required overlap.
                if self.threshold.t_pair(ls, len) <= ls.min(len) {
                    emit(s);
                }
            }
        }
    }

    /// Self-join probe of the set at rank `k`: `emit(s)` for each
    /// candidate partner rank `s < k`, so every unordered pair is
    /// produced once, by its higher-ranked side.
    fn probe_self(&self, k: usize, marks: &mut [u32], emit: impl FnMut(u32)) {
        let spans = &self.spans[self.span_starts[k] as usize..self.span_starts[k + 1] as usize];
        let postings = spans
            .iter()
            .map(|&(lo, hi)| &self.ranks[lo as usize..hi as usize]);
        let (len, rank) = (self.lens[k] as usize, k as u32);
        self.for_each_candidate(len, postings, rank, marks, rank + 1, emit);
    }

    /// The set ids `(i, j)`, `i < j`, of the self-join candidate at
    /// ranks `k` and `s`.
    fn self_pair(&self, k: usize, s: u32) -> (u32, u32) {
        let (r, s) = (self.order[k], self.order[s as usize]);
        (r.min(s), r.max(s))
    }

    /// A×B probe of A's list `i`: `emit(s)` for each candidate rank `s`
    /// of the indexed side.
    fn probe_cross(&self, i: usize, l: &[u32], marks: &mut [u32], emit: impl FnMut(u32)) {
        let postings = prefix(self.threshold, l)
            .unwrap_or_default()
            .iter()
            .map(|&tok| self.postings(tok));
        self.for_each_candidate(l.len(), postings, u32::MAX, marks, i as u32 + 1, emit);
    }
}

/// Candidate pairs of a self-join over `lists` (each strictly
/// ascending): a superset of the qualifying pairs, each `(i, j)` with
/// `i < j`, deduplicated and sorted, produced by the length + prefix
/// filter alone — exactly the pairs [`self_join_with`] decides. A
/// trivial threshold yields all pairs.
pub fn candidate_pairs_self(lists: &[Vec<u32>], threshold: Threshold) -> Vec<(u32, u32)> {
    let index = PrefixIndex::build(lists, threshold, 1);
    let mut marks = vec![0u32; lists.len()];
    let mut out = Vec::new();
    for k in 0..lists.len() {
        index.probe_self(k, &mut marks, |s| out.push(index.self_pair(k, s)));
    }
    out.sort_unstable();
    out
}

/// Candidate pairs of an A×B join: each `(i, j)` indexes
/// `lists_a` / `lists_b` respectively. Same filter structure as
/// [`candidate_pairs_self`], with B's prefixes indexed and A's probed.
pub fn candidate_pairs(
    lists_a: &[Vec<u32>],
    lists_b: &[Vec<u32>],
    threshold: Threshold,
) -> Vec<(u32, u32)> {
    assert_sorted_lists(lists_a, 1);
    let index = PrefixIndex::build(lists_b, threshold, 1);
    let mut marks = vec![0u32; lists_b.len()];
    let mut out = Vec::new();
    for (i, l) in lists_a.iter().enumerate() {
        index.probe_cross(i, l, &mut marks, |s| {
            out.push((i as u32, index.order[s as usize]))
        });
    }
    out.sort_unstable();
    out
}

// ---------------------------------------------------------------------------
// Tier 2: the XOR bitmap filter
// ---------------------------------------------------------------------------

/// Narrowest filter, in bits: one word per set.
const MIN_FILTER_BITS: usize = 64;

/// Widest filter the join builds, in bits (64 words per set). The width
/// grows with the largest symmetric difference a qualifying pair may
/// have; past this ceiling (graph neighbour joins with a small overlap
/// threshold reach it) the join runs without a filter.
const MAX_FILTER_BITS: usize = 4096;

/// Expected popcount of a `b`-bit XOR filter after `d` toggles at
/// uniformly hashed positions: each bit ends up set with probability
/// `(1 − (1 − 2/b)^d) / 2 ≈ (1 − e^(−2d/b)) / 2`.
fn expected_popcount(b: f64, d: f64) -> f64 {
    b * (1.0 - (-2.0 * d / b).exp()) / 2.0
}

/// The largest symmetric difference `Δmax` a qualifying pair with
/// `|A| + |B| <= len_sum` can have: `len_sum − 2t` for `Overlap(t)`, and
/// `len_sum · (1 − j) / (1 + j)` for `Jaccard(j)` (a qualifying union
/// holds at most `len_sum / (1 + j)` elements, at least `j` of them
/// shared).
fn max_difference(threshold: Threshold, len_sum: usize) -> f64 {
    let s = len_sum as f64;
    match threshold {
        Threshold::Overlap(t) => (s - 2.0 * t as f64).max(0.0),
        Threshold::Jaccard(j) => s * (1.0 - j) / (1.0 + j),
    }
}

/// The filter width for a join whose pairs have `|A| + |B| <= len_sum`.
///
/// At the longest lengths a pair is rejected once its popcount exceeds
/// `Δmax` ([`max_difference`]). The width is the smallest power of two
/// `b >= 64` at which a pair with twice that difference is expected to
/// be: `expected_popcount(b, 2·Δmax) > Δmax`, which holds from
/// `b > 2.51·Δmax`. `None` (no filter) for a trivial threshold, which
/// rejects nothing, or past [`MAX_FILTER_BITS`].
fn filter_bits(threshold: Threshold, len_sum: usize) -> Option<usize> {
    if threshold.is_trivial() {
        return None;
    }
    let delta = max_difference(threshold, len_sum);
    let mut b = MIN_FILTER_BITS;
    while delta > 0.0 && expected_popcount(b as f64, 2.0 * delta) <= delta {
        b *= 2;
    }
    (b <= MAX_FILTER_BITS).then_some(b)
}

/// One XOR filter per set, flat: filter `r` is
/// `words[r · w..(r + 1) · w]`. Each element `x` of the set toggles bit
/// `h(x) mod b`.
struct XorFilters {
    /// Words per filter.
    w: usize,
    words: Vec<u64>,
}

impl XorFilters {
    /// Filters of `bits` bits for the lists `list(0..n)`, built on up to
    /// `threads` executor workers.
    fn build<'a>(
        n: usize,
        bits: usize,
        threads: usize,
        list: impl Fn(usize) -> &'a [u32] + Sync,
    ) -> Self {
        let (w, log2_b) = (bits / 64, bits.trailing_zeros());
        let mut words = vec![0u64; n * w];
        let out = DisjointOut(words.as_mut_ptr());
        Executor::global().for_each_chunk(n, 1, threads, |range| {
            let out = &out;
            // SAFETY: chunk ranges partition `0..n`, so the filters of
            // `range` lie inside `words` and no other worker writes them.
            let rows = unsafe {
                std::slice::from_raw_parts_mut(out.0.add(range.start * w), range.len() * w)
            };
            for (row, r) in rows.chunks_exact_mut(w).zip(range) {
                for &x in list(r) {
                    let p = position(x, log2_b);
                    row[p / 64] ^= 1 << (p % 64);
                }
            }
        });
        XorFilters { w, words }
    }

    fn get(&self, r: usize) -> &[u64] {
        &self.words[r * self.w..(r + 1) * self.w]
    }
}

/// Sandes et al.'s upper bound on `|A ∩ B|` from the filters of two sets
/// of `la` and `lb` elements: `popcount(F_A ⊕ F_B) <= |A △ B|`, so
/// `|A ∩ B| <= (la + lb − popcount(F_A ⊕ F_B)) / 2`.
fn xor_bound(fa: &[u64], fb: &[u64], la: usize, lb: usize) -> usize {
    let pop: u32 = fa.iter().zip(fb).map(|(x, y)| (x ^ y).count_ones()).sum();
    (la + lb - pop as usize) / 2
}

/// The XOR filters for a join whose pairs have `|A| + |B| <= len_sum`,
/// `list(0..n)` holding `elements` elements in all — or `None` when the
/// cascade runs without them: with early exit off (the baseline counts
/// every candidate), when [`filter_bits`] gives no width, or when the
/// filters would take more words than the lists they summarize.
fn join_filters<'a>(
    threshold: Threshold,
    sp: &SimjoinParams,
    len_sum: usize,
    elements: usize,
    n: usize,
    threads: usize,
    list: impl Fn(usize) -> &'a [u32] + Sync,
) -> Option<XorFilters> {
    let bits =
        filter_bits(threshold, len_sum).filter(|&b| sp.early_exit && n * b / 32 <= elements)?;
    Some(XorFilters::build(n, bits, threads, list))
}

// ---------------------------------------------------------------------------
// Tier 3: the count, fed straight from the probes
// ---------------------------------------------------------------------------

/// One candidate's fate. Each candidate gets exactly one, so the counter
/// identity is enforced where candidates are decided, not reconstructed
/// later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The XOR filter's bound fell below the pair's `t_pair`.
    FilterRejected,
    /// The count rejected it.
    EarlyExited,
    /// A completed exact count confirmed it.
    Verified,
}

/// Decide one candidate: the XOR filter's bound first, when the join
/// built filters (`filters` holds the pair's two, in either order),
/// then the count.
fn evaluate_pair(
    a: &SegmentedSet,
    b: &SegmentedSet,
    filters: Option<(&[u64], &[u64])>,
    threshold: Threshold,
    table: &KernelTable,
    planner: &IntersectPlanner,
    sp: &SimjoinParams,
) -> Verdict {
    let t = threshold.t_pair(a.len(), b.len());
    if let Some((fa, fb)) = filters {
        if xor_bound(fa, fb, a.len(), b.len()) < t {
            debug_assert!(
                auto_count_planned(a, b, table, planner) < t,
                "unsound XOR filter reject"
            );
            return Verdict::FilterRejected;
        }
    }
    let verified = if sp.early_exit {
        // Early-exit sweep. Survivors complete the sweep, so the
        // verify is an exact count, not a probabilistic accept.
        let c = intersect_count_bounded_planned(a, b, table, planner, t);
        debug_assert!(c.is_none_or(|c| threshold.qualifies(c, a.len(), b.len())));
        c.is_some()
    } else {
        // Baseline: full exact count (the prefix-filter-only
        // driver the cascade is measured against).
        let c = auto_count_planned(a, b, table, planner);
        threshold.qualifies(c, a.len(), b.len())
    };
    if verified {
        Verdict::Verified
    } else {
        Verdict::EarlyExited
    }
}

/// One chunk's share of a join: its cascade tallies and the pairs it
/// verified.
#[derive(Default)]
struct Partial {
    stats: SimjoinStats,
    pairs: Vec<(u32, u32)>,
}

impl Partial {
    fn record(&mut self, pair: (u32, u32), verdict: Verdict) {
        self.stats.candidates += 1;
        match verdict {
            Verdict::FilterRejected => self.stats.bitmap_rejected += 1,
            Verdict::EarlyExited => self.stats.early_exited += 1,
            Verdict::Verified => {
                self.stats.verified += 1;
                self.pairs.push(pair);
            }
        }
    }

    fn merge(mut self, other: Partial) -> Partial {
        let (s, o) = (&mut self.stats, other.stats);
        s.candidates += o.candidates;
        s.bitmap_rejected += o.bitmap_rejected;
        s.early_exited += o.early_exited;
        s.verified += o.verified;
        self.pairs.extend(other.pairs);
        self
    }
}

/// Run `probe(p, marks, partial)` for every probe `p` in `0..probes`
/// on up to `threads` workers, each chunk with its own dedup `marks`
/// (one slot per indexed set). Candidates go through the cascade the
/// moment a probe finds them, while the probe's own set is still hot,
/// so no candidate list is ever materialized; only the verified pairs
/// are gathered and sorted. Probes are claimed from `probes - 1` down:
/// a self-join probe's cost grows with its rank, so the heavy ranges
/// start first and the light ones fill the tail.
fn stream_join(
    probes: usize,
    indexed: usize,
    threads: usize,
    probe: impl Fn(usize, &mut [u32], &mut Partial) + Sync,
) -> SimjoinResult {
    assert!(threads >= 1, "need at least one thread");
    let map = |range: std::ops::Range<usize>| {
        let mut marks = vec![0u32; indexed];
        let mut part = Partial::default();
        for p in range {
            probe(probes - 1 - p, &mut marks, &mut part);
        }
        part
    };
    let Partial { stats, mut pairs } = Executor::global()
        .map_reduce(probes, 1, threads, map, Partial::merge)
        .unwrap_or_default();
    pairs.sort_unstable();
    let m = fesia_obs::metrics();
    m.simjoin_candidates.add(stats.candidates);
    m.simjoin_bitmap_rejected.add(stats.bitmap_rejected);
    m.simjoin_early_exited.add(stats.early_exited);
    m.simjoin_verified.add(stats.verified);
    SimjoinResult { pairs, stats }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Self-join: every unordered pair of `lists` satisfying `threshold`,
/// via prebuilt sets (all built with one [`FesiaParams`]) and explicit
/// table / planner / cascade knobs. `sets[i]` must contain exactly the
/// elements of `lists[i]`.
#[allow(clippy::too_many_arguments)] // explicit-knob variant mirrors the *_planned family
pub fn self_join_with<S: Borrow<SegmentedSet> + Sync>(
    sets: &[S],
    lists: &[Vec<u32>],
    threshold: Threshold,
    table: &KernelTable,
    planner: &IntersectPlanner,
    sp: &SimjoinParams,
    threads: usize,
) -> SimjoinResult {
    assert_eq!(sets.len(), lists.len(), "sets/lists length mismatch");
    let index = PrefixIndex::build(lists, threshold, threads);
    let len_max = index.lens.last().map_or(0, |&l| l as usize);
    let elements = lists.iter().map(Vec::len).sum();
    // Filters are indexed by rank, like the probes.
    let filters = join_filters(
        threshold,
        sp,
        2 * len_max,
        elements,
        lists.len(),
        threads,
        |r| &lists[index.order[r] as usize],
    );
    stream_join(lists.len(), lists.len(), threads, |k, marks, part| {
        index.probe_self(k, marks, |s| {
            let (i, j) = index.self_pair(k, s);
            let (a, b) = (sets[i as usize].borrow(), sets[j as usize].borrow());
            let f = filters.as_ref().map(|f| (f.get(k), f.get(s as usize)));
            part.record(
                (i, j),
                evaluate_pair(a, b, f, threshold, table, planner, sp),
            );
        });
    })
}

/// Self-join with process defaults: sets built with
/// [`FesiaParams::auto`], the default kernel table, the planner, and
/// the full cascade ([`SimjoinParams::default`]).
pub fn self_join(lists: &[Vec<u32>], threshold: Threshold, threads: usize) -> SimjoinResult {
    let p = FesiaParams::auto();
    let sets: Vec<SegmentedSet> = lists
        .iter()
        .map(|l| SegmentedSet::build(l, &p).expect("valid input list"))
        .collect();
    let planner = IntersectPlanner::current();
    self_join_with(
        &sets,
        lists,
        threshold,
        default_table(),
        &planner,
        &SimjoinParams::default(),
        threads,
    )
}

/// A×B join: every `(i, j)` with `lists_a[i]` and `lists_b[j]`
/// satisfying `threshold`. Both set slices must be built with the same
/// [`FesiaParams`].
#[allow(clippy::too_many_arguments)] // explicit-knob variant mirrors the *_planned family
pub fn join_with<S: Borrow<SegmentedSet> + Sync>(
    sets_a: &[S],
    lists_a: &[Vec<u32>],
    sets_b: &[S],
    lists_b: &[Vec<u32>],
    threshold: Threshold,
    table: &KernelTable,
    planner: &IntersectPlanner,
    sp: &SimjoinParams,
    threads: usize,
) -> SimjoinResult {
    assert_eq!(sets_a.len(), lists_a.len(), "sets/lists length mismatch");
    assert_eq!(sets_b.len(), lists_b.len(), "sets/lists length mismatch");
    assert_sorted_lists(lists_a, threads);
    let index = PrefixIndex::build(lists_b, threshold, threads);
    let len_sum = lists_a.iter().map(Vec::len).max().unwrap_or(0)
        + index.lens.last().map_or(0, |&l| l as usize);
    let elements = lists_a.iter().chain(lists_b).map(Vec::len).sum();
    // A's filters by id, then B's by rank.
    let na = lists_a.len();
    let filters = join_filters(
        threshold,
        sp,
        len_sum,
        elements,
        na + lists_b.len(),
        threads,
        |r| match r.checked_sub(na) {
            None => &lists_a[r],
            Some(s) => &lists_b[index.order[s] as usize],
        },
    );
    stream_join(na, lists_b.len(), threads, |i, marks, part| {
        index.probe_cross(i, &lists_a[i], marks, |s| {
            let j = index.order[s as usize];
            let (a, b) = (sets_a[i].borrow(), sets_b[j as usize].borrow());
            let f = filters.as_ref().map(|f| (f.get(i), f.get(na + s as usize)));
            part.record(
                (i as u32, j),
                evaluate_pair(a, b, f, threshold, table, planner, sp),
            );
        });
    })
}

/// A×B join with process defaults (see [`self_join`]).
pub fn join(
    lists_a: &[Vec<u32>],
    lists_b: &[Vec<u32>],
    threshold: Threshold,
    threads: usize,
) -> SimjoinResult {
    let p = FesiaParams::auto();
    let build = |lists: &[Vec<u32>]| -> Vec<SegmentedSet> {
        lists
            .iter()
            .map(|l| SegmentedSet::build(l, &p).expect("valid input list"))
            .collect()
    };
    let (sets_a, sets_b) = (build(lists_a), build(lists_b));
    let planner = IntersectPlanner::current();
    join_with(
        &sets_a,
        lists_a,
        &sets_b,
        lists_b,
        threshold,
        default_table(),
        &planner,
        &SimjoinParams::default(),
        threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fesia_datagen::{reference_count, sorted_distinct, SplitMix64};

    fn gen_sorted(n: usize, seed: u64, universe: u32) -> Vec<u32> {
        let mut state = seed | 1;
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            set.insert((state % universe as u64) as u32);
        }
        set.into_iter().collect()
    }

    fn overlap(a: &[u32], b: &[u32]) -> usize {
        let sb: std::collections::BTreeSet<u32> = b.iter().copied().collect();
        a.iter().filter(|x| sb.contains(x)).count()
    }

    fn oracle_self(lists: &[Vec<u32>], th: Threshold) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in 0..lists.len() {
            for j in i + 1..lists.len() {
                let c = overlap(&lists[i], &lists[j]);
                if th.qualifies(c, lists[i].len(), lists[j].len()) {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    /// A clustered corpus with known structure: groups share a large
    /// core, plus unrelated singletons.
    fn clustered(groups: usize, per_group: usize, n: usize, universe: u32) -> Vec<Vec<u32>> {
        let mut lists = Vec::new();
        for g in 0..groups {
            let core = gen_sorted(n * 9 / 10, 1000 + g as u64, universe);
            for m in 0..per_group {
                let mut l: std::collections::BTreeSet<u32> = core.iter().copied().collect();
                let extra = gen_sorted(n / 10, 5000 + (g * per_group + m) as u64, universe);
                l.extend(extra);
                lists.push(l.into_iter().collect());
            }
        }
        for s in 0..groups * per_group {
            lists.push(gen_sorted(n, 90_000 + s as u64, universe));
        }
        lists
    }

    #[test]
    fn t_pair_is_smallest_qualifying_overlap() {
        for &j in &[0.1, 0.25, 1.0 / 3.0, 0.5, 0.7, 0.85, 0.999, 1.0] {
            let th = Threshold::Jaccard(j);
            for &(la, lb) in &[(0usize, 0usize), (1, 1), (5, 9), (100, 100), (997, 1013)] {
                let t = th.t_pair(la, lb);
                assert!(th.qualifies(t, la, lb), "j={j} la={la} lb={lb} t={t}");
                if t > 0 {
                    assert!(!th.qualifies(t - 1, la, lb), "j={j} la={la} lb={lb} t={t}");
                }
                assert!(t <= th.t_pair(la + 1, lb), "monotone in length");
            }
        }
        assert_eq!(Threshold::Overlap(7).t_pair(3, 900), 7);
    }

    #[test]
    fn candidates_are_a_superset_of_qualifying_pairs() {
        let lists = clustered(2, 3, 80, 4_000);
        for th in [
            Threshold::Overlap(60),
            Threshold::Overlap(1),
            Threshold::Jaccard(0.6),
            Threshold::Jaccard(0.05),
        ] {
            let cands = candidate_pairs_self(&lists, th);
            assert!(
                cands.windows(2).all(|w| w[0] < w[1]),
                "sorted and deduplicated"
            );
            let want = oracle_self(&lists, th);
            for p in &want {
                assert!(cands.contains(p), "{th:?}: qualifying pair {p:?} missed");
            }
        }
        // Trivial thresholds must include disjoint pairs.
        let n = lists.len() as u32;
        assert_eq!(
            candidate_pairs_self(&lists, Threshold::Overlap(0)).len(),
            (n * (n - 1) / 2) as usize
        );
    }

    #[test]
    fn self_join_matches_oracle_and_counters_balance() {
        let lists = clustered(2, 3, 80, 4_000);
        for th in [
            Threshold::Overlap(60),
            Threshold::Overlap(0),
            Threshold::Jaccard(0.6),
            Threshold::Jaccard(0.0),
        ] {
            for threads in [1usize, 4] {
                let r = self_join(&lists, th, threads);
                assert_eq!(r.pairs, oracle_self(&lists, th), "{th:?} threads={threads}");
                assert_eq!(
                    r.stats.candidates,
                    r.stats.bitmap_rejected + r.stats.early_exited + r.stats.verified,
                    "{th:?}: counters must account for every candidate"
                );
                assert_eq!(r.stats.verified as usize, r.pairs.len());
            }
        }
    }

    #[test]
    fn every_cascade_configuration_agrees() {
        let lists = clustered(2, 3, 60, 3_000);
        let p = FesiaParams::auto();
        let sets: Vec<SegmentedSet> = lists
            .iter()
            .map(|l| SegmentedSet::build(l, &p).unwrap())
            .collect();
        let planner = IntersectPlanner::current();
        let th = Threshold::Overlap(45);
        let want = oracle_self(&lists, th);
        for early in [false, true] {
            let sp = SimjoinParams::default().with_early_exit(early);
            let r = self_join_with(&sets, &lists, th, default_table(), &planner, &sp, 2);
            assert_eq!(r.pairs, want, "early={early}");
            let s = r.stats;
            assert_eq!(
                s.candidates,
                s.bitmap_rejected + s.early_exited + s.verified
            );
            // The baseline builds no filter; the cascade's fires here.
            assert_eq!(s.bitmap_rejected > 0, early, "early={early}");
        }
    }

    #[test]
    fn cross_join_matches_naive() {
        let a = clustered(1, 2, 50, 2_000);
        let b = clustered(1, 3, 50, 2_000);
        for th in [Threshold::Overlap(10), Threshold::Jaccard(0.2)] {
            let r = join(&a, &b, th, 2);
            let mut want = Vec::new();
            for (i, sa) in a.iter().enumerate() {
                for (j, sb) in b.iter().enumerate() {
                    let c = overlap(sa, sb);
                    if th.qualifies(c, sa.len(), sb.len()) {
                        want.push((i as u32, j as u32));
                    }
                }
            }
            assert_eq!(r.pairs, want, "{th:?}");
        }
    }

    fn oracle_cross(a: &[Vec<u32>], b: &[Vec<u32>], th: Threshold) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (i, sa) in a.iter().enumerate() {
            for (j, sb) in b.iter().enumerate() {
                if th.qualifies(overlap(sa, sb), sa.len(), sb.len()) {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    fn assert_join(r: &SimjoinResult, want: &[(u32, u32)], candidates: usize, what: &str) {
        assert_eq!(r.pairs, want, "{what}");
        let s = &r.stats;
        assert_eq!(s.candidates, candidates as u64, "{what}: candidate count");
        assert_eq!(
            s.candidates,
            s.bitmap_rejected + s.early_exited + s.verified,
            "{what}: counters must account for every candidate"
        );
        assert_eq!(s.verified as usize, r.pairs.len(), "{what}");
    }

    const EDGE_THRESHOLDS: [Threshold; 8] = [
        Threshold::Overlap(0),
        Threshold::Overlap(1),
        Threshold::Overlap(3),
        Threshold::Jaccard(0.0),
        Threshold::Jaccard(0.3),
        Threshold::Jaccard(0.5),
        Threshold::Jaccard(0.75),
        Threshold::Jaccard(1.0),
    ];

    /// Corpora that stress the fused driver's edges: several empty sets
    /// (Jaccard pairs them with no shared token), sets too short for
    /// the overlap threshold (skipped by the prefix filter), identical
    /// duplicates, all-equal lengths (every rank a tie), and no sets at
    /// all (an empty A or B side).
    fn edge_corpora() -> Vec<Vec<Vec<u32>>> {
        let dup = vec![1, 4, 9, 16];
        vec![
            vec![
                vec![],
                vec![1, 2, 3],
                vec![],
                vec![2, 3],
                vec![],
                vec![1, 2, 3],
            ],
            vec![
                vec![1],
                vec![1, 2],
                vec![5, 7],
                vec![1, 2, 3],
                vec![1, 2, 3, 4, 5],
            ],
            vec![
                dup.clone(),
                vec![1, 4, 9, 25],
                dup.clone(),
                dup,
                vec![2, 4, 9, 16],
            ],
            vec![vec![7]],
            clustered(2, 3, 12, 40),
            vec![],
        ]
    }

    #[test]
    fn fused_self_join_edges_match_oracle() {
        for (c, lists) in edge_corpora().iter().enumerate() {
            for th in EDGE_THRESHOLDS {
                let cands = candidate_pairs_self(lists, th).len();
                for threads in 1..=3 {
                    let r = self_join(lists, th, threads);
                    let what = format!("corpus {c} {th:?} threads={threads}");
                    assert_join(&r, &oracle_self(lists, th), cands, &what);
                }
            }
        }
    }

    #[test]
    fn fused_cross_join_edges_match_oracle() {
        let corpora = edge_corpora();
        for (x, a) in corpora.iter().enumerate() {
            for (y, b) in corpora.iter().enumerate() {
                for th in EDGE_THRESHOLDS {
                    let cands = candidate_pairs(a, b, th).len();
                    for threads in 1..=3 {
                        let r = join(a, b, th, threads);
                        let what = format!("corpora {x}x{y} {th:?} threads={threads}");
                        assert_join(&r, &oracle_cross(a, b, th), cands, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(self_join(&[], Threshold::Overlap(1), 1).pairs.is_empty());
        let lists = vec![vec![], vec![], vec![1, 2, 3]];
        // Two empty sets qualify under Jaccard (0/0 treated as full
        // similarity), never under a positive overlap.
        let r = self_join(&lists, Threshold::Jaccard(0.5), 1);
        assert_eq!(r.pairs, vec![(0, 1)]);
        let r = self_join(&lists, Threshold::Overlap(1), 1);
        assert!(r.pairs.is_empty());
    }

    #[test]
    #[should_panic(expected = "Jaccard threshold")]
    fn out_of_range_jaccard_panics() {
        let _ = candidate_pairs_self(&[], Threshold::Jaccard(1.5));
    }

    fn build_sets(lists: &[Vec<u32>]) -> Vec<SegmentedSet> {
        let p = FesiaParams::auto();
        lists
            .iter()
            .map(|l| SegmentedSet::build(l, &p).unwrap())
            .collect()
    }

    /// Sets of unequal lengths (1 to ~180) and two empty sets: members
    /// of four groups keep a random 40–120 of their group's 120-element
    /// core and add up to 60 random tokens, so pair overlaps spread over
    /// every threshold below.
    fn unequal_corpus(rng: &mut SplitMix64) -> Vec<Vec<u32>> {
        let mut lists = vec![vec![], vec![]];
        for _ in 0..4 {
            let core = sorted_distinct(120, 5_000, rng);
            for _ in 0..6 {
                let mut kept = core.clone();
                rng.shuffle(&mut kept);
                kept.truncate(40 + rng.below(81) as usize);
                let extra = rng.below(61) as usize;
                kept.extend(sorted_distinct(extra, 5_000, rng));
                kept.sort_unstable();
                kept.dedup();
                lists.push(kept);
            }
        }
        for n in [1usize, 3, 7, 30, 90] {
            lists.push(sorted_distinct(n, 5_000, rng));
        }
        lists
    }

    /// Every threshold kind, from one shared token to `t` above every
    /// list's length (`Overlap(500)`: tier 1 finds no candidate).
    const ORACLE_THRESHOLDS: [Threshold; 9] = [
        Threshold::Overlap(1),
        Threshold::Overlap(10),
        Threshold::Overlap(60),
        Threshold::Overlap(100),
        Threshold::Overlap(500),
        Threshold::Jaccard(0.2),
        Threshold::Jaccard(0.5),
        Threshold::Jaccard(0.8),
        Threshold::Jaccard(1.0),
    ];

    /// Does a join over these lengths build filters with early exit on?
    fn builds_filters(th: Threshold, len_sum: usize, lists: &[&[Vec<u32>]]) -> bool {
        let sp = SimjoinParams::default();
        let n = lists.iter().map(|l| l.len()).sum();
        let elements: usize = lists.iter().flat_map(|l| l.iter()).map(Vec::len).sum();
        join_filters(th, &sp, len_sum, elements, n, 1, |_| &[]).is_some()
    }

    #[test]
    fn filtered_self_join_matches_oracle() {
        let lists = unequal_corpus(&mut SplitMix64::new(0x5E1F));
        let sets = build_sets(&lists);
        let planner = IntersectPlanner::current();
        let len_max = lists.iter().map(Vec::len).max().unwrap();
        let mut rejected = 0;
        for th in ORACLE_THRESHOLDS {
            let want = oracle_self(&lists, th);
            let cands = candidate_pairs_self(&lists, th).len();
            let filtered = builds_filters(th, 2 * len_max, &[&lists]);
            for early in [true, false] {
                let sp = SimjoinParams::default().with_early_exit(early);
                for threads in [1, 3] {
                    let r =
                        self_join_with(&sets, &lists, th, default_table(), &planner, &sp, threads);
                    let what = format!("{th:?} early={early} threads={threads}");
                    assert_join(&r, &want, cands, &what);
                    if !(early && filtered) {
                        assert_eq!(r.stats.bitmap_rejected, 0, "{what}: no filter built");
                    }
                    rejected += r.stats.bitmap_rejected;
                }
            }
        }
        assert!(rejected > 0, "the filter never fired");
    }

    #[test]
    fn filtered_cross_join_matches_oracle() {
        let lists = unequal_corpus(&mut SplitMix64::new(0xC805));
        let (a, b): (Vec<_>, Vec<_>) = lists
            .iter()
            .cloned()
            .enumerate()
            .partition(|(i, _)| i % 2 == 0);
        let a: Vec<Vec<u32>> = a.into_iter().map(|(_, l)| l).collect();
        let b: Vec<Vec<u32>> = b.into_iter().map(|(_, l)| l).collect();
        let (sets_a, sets_b) = (build_sets(&a), build_sets(&b));
        let planner = IntersectPlanner::current();
        let len_sum = a.iter().map(Vec::len).max().unwrap() + b.iter().map(Vec::len).max().unwrap();
        let mut rejected = 0;
        for th in ORACLE_THRESHOLDS {
            let want = oracle_cross(&a, &b, th);
            let cands = candidate_pairs(&a, &b, th).len();
            let filtered = builds_filters(th, len_sum, &[&a, &b]);
            for early in [true, false] {
                let sp = SimjoinParams::default().with_early_exit(early);
                for threads in [1, 3] {
                    let r = join_with(
                        &sets_a,
                        &a,
                        &sets_b,
                        &b,
                        th,
                        default_table(),
                        &planner,
                        &sp,
                        threads,
                    );
                    let what = format!("{th:?} early={early} threads={threads}");
                    assert_join(&r, &want, cands, &what);
                    if !(early && filtered) {
                        assert_eq!(r.stats.bitmap_rejected, 0, "{what}: no filter built");
                    }
                    rejected += r.stats.bitmap_rejected;
                }
            }
        }
        assert!(rejected > 0, "the filter never fired");
    }

    /// Past the width ceiling, or where the filters would outweigh the
    /// lists, the join runs without them and still matches the oracle.
    #[test]
    fn joins_past_the_filter_ceiling_skip_it() {
        let mut rng = SplitMix64::new(0xCE11);
        // One 3000-element list: `Overlap(1)` allows a difference of
        // 5998, past the ceiling.
        let mut wide = unequal_corpus(&mut rng);
        wide.push(sorted_distinct(3_000, 5_000, &mut rng));
        // Tiny lists and one of 600: `Jaccard(0.5)` wants 1024-bit
        // filters, 32 words per set against ~4 elements.
        let mut tiny: Vec<Vec<u32>> = (0..60).map(|_| sorted_distinct(4, 40, &mut rng)).collect();
        tiny.push(sorted_distinct(600, 5_000, &mut rng));
        for (lists, th) in [
            (&wide, Threshold::Overlap(1)),
            (&tiny, Threshold::Jaccard(0.5)),
        ] {
            let len_max = lists.iter().map(Vec::len).max().unwrap();
            assert!(!builds_filters(th, 2 * len_max, &[lists]), "{th:?}");
            let r = self_join(lists, th, 2);
            let cands = candidate_pairs_self(lists, th).len();
            assert_join(&r, &oracle_self(lists, th), cands, &format!("{th:?}"));
            assert_eq!(r.stats.bitmap_rejected, 0, "{th:?}");
        }
        assert_eq!(filter_bits(Threshold::Overlap(1), 6_000), None);
        assert_eq!(filter_bits(Threshold::Jaccard(0.5), 1_200), Some(1024));
    }

    /// Seeded property: the XOR bound is never below the exact count,
    /// over 105,000 random pairs at every width the join can build.
    #[test]
    fn xor_bound_never_undercounts() {
        const PAIRS: usize = 15_000;
        let mut rng = SplitMix64::new(0x0B17_F11E);
        let mut checked = 0;
        let mut tight = 0;
        for bits in [64, 128, 256, 512, 1024, 2048, MAX_FILTER_BITS] {
            let mut lists = Vec::with_capacity(2 * PAIRS);
            for _ in 0..PAIRS {
                // Each side keeps every value of a small universe with
                // its own probability, so lengths and overlaps range from
                // empty and disjoint to near-identical.
                let universe = 16 + rng.below(240);
                for _ in 0..2 {
                    let keep = rng.below(universe + 1);
                    let l = (0..universe as u32).filter(|_| rng.below(universe) < keep);
                    lists.push(l.collect::<Vec<u32>>());
                }
            }
            let f = XorFilters::build(lists.len(), bits, 2, |r| &lists[r]);
            for p in 0..PAIRS {
                let (a, b) = (&lists[2 * p], &lists[2 * p + 1]);
                let exact = reference_count(a, b);
                let bound = xor_bound(f.get(2 * p), f.get(2 * p + 1), a.len(), b.len());
                assert!(bound >= exact, "{bits} bits: bound {bound} < exact {exact}");
                tight += usize::from(bound == exact);
                checked += 1;
            }
        }
        assert!(checked >= 100_000);
        assert!(tight > 0, "some bounds should be exact");
    }

    /// The width rule against the popcount formula: the chosen width is
    /// the smallest power of two (from 64) whose expected popcount at
    /// twice the largest qualifying difference exceeds that difference.
    #[test]
    fn width_rule_follows_the_popcount_formula() {
        let rejects = |b: usize, delta: f64| expected_popcount(b as f64, 2.0 * delta) > delta;
        for len_sum in (0..4_000).step_by(7) {
            for th in [
                Threshold::Overlap(1),
                Threshold::Overlap(len_sum / 4),
                Threshold::Overlap(len_sum / 2),
                Threshold::Jaccard(0.3),
                Threshold::Jaccard(0.9),
            ] {
                let delta = max_difference(th, len_sum);
                match filter_bits(th, len_sum) {
                    _ if th.is_trivial() => assert_eq!(filter_bits(th, len_sum), None),
                    Some(b) => {
                        assert!(
                            b.is_power_of_two() && (MIN_FILTER_BITS..=MAX_FILTER_BITS).contains(&b)
                        );
                        assert!(delta == 0.0 || rejects(b, delta), "{th:?} {len_sum}: {b}");
                        assert!(
                            b == MIN_FILTER_BITS || !rejects(b / 2, delta),
                            "{th:?} {len_sum}: {b}"
                        );
                    }
                    None => assert!(!rejects(MAX_FILTER_BITS, delta), "{th:?} {len_sum}"),
                }
            }
        }
        // The benchmark corpus: 1000-element sets at overlap 850 (Δmax
        // 300). 512 bits leave the expected popcount under 300.
        assert_eq!(filter_bits(Threshold::Overlap(850), 2_000), Some(1024));
        assert!(!rejects(512, 300.0));
        assert_eq!(filter_bits(Threshold::Overlap(0), 2_000), None);
        assert_eq!(filter_bits(Threshold::Jaccard(0.0), 2_000), None);
        // The formula against simulated toggles: 600 uniform toggles into
        // 1024 bits.
        let mut rng = SplitMix64::new(0x70661E);
        let trials = 400;
        let mean = (0..trials)
            .map(|_| {
                let mut f = [0u64; 16];
                for _ in 0..600 {
                    let p = rng.below(1024) as usize;
                    f[p / 64] ^= 1 << (p % 64);
                }
                f.iter().map(|w| w.count_ones()).sum::<u32>() as f64
            })
            .sum::<f64>()
            / trials as f64;
        let want = expected_popcount(1024.0, 600.0);
        assert!(
            (mean - want).abs() < 0.01 * want,
            "simulated {mean} vs formula {want}"
        );
    }

    #[test]
    fn self_probes_walk_exactly_their_lower_postings() {
        let lists = unequal_corpus(&mut SplitMix64::new(0x6209));
        for th in [
            Threshold::Overlap(10),
            Threshold::Jaccard(0.5),
            Threshold::Overlap(0),
        ] {
            let index = PrefixIndex::build(&lists, th, 1);
            for k in 0..lists.len() {
                let spans =
                    &index.spans[index.span_starts[k] as usize..index.span_starts[k + 1] as usize];
                let l = &lists[index.order[k] as usize];
                let tokens = match prefix(th, l) {
                    Some(p) if !th.is_trivial() => p,
                    _ => &[],
                };
                assert_eq!(spans.len(), tokens.len(), "{th:?} rank {k}");
                for (&(lo, hi), &tok) in spans.iter().zip(tokens) {
                    let below: Vec<u32> = index
                        .postings(tok)
                        .iter()
                        .copied()
                        .filter(|&s| s < k as u32)
                        .collect();
                    assert_eq!(
                        index.ranks[lo as usize..hi as usize],
                        below,
                        "{th:?} rank {k} token {tok}"
                    );
                    assert_eq!(
                        index.ranks[hi as usize], k as u32,
                        "the span ends at the probe's own entry"
                    );
                }
            }
        }
    }

    #[test]
    fn radix_sort_matches_a_full_sort() {
        let mut rng = SplitMix64::new(0x5047);
        for max_token in [0u64, 1, 1_000, 1 << 19, u32::MAX as u64] {
            let mut entries = Vec::new();
            for rank in 0..3_000u64 {
                for _ in 0..rng.below(5) {
                    entries.push(rng.below(max_token + 1) << 32 | rank);
                }
            }
            let mut want = entries.clone();
            want.sort_unstable();
            assert_eq!(sort_by_token(entries), want, "max token {max_token}");
        }
        assert!(sort_by_token(Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn unsorted_lists_are_rejected_on_workers() {
        let mut lists: Vec<Vec<u32>> = (0..64).map(|i| vec![i, i + 1]).collect();
        let sets = build_sets(&lists);
        lists[40] = vec![41, 40];
        let sp = SimjoinParams::default();
        let planner = IntersectPlanner::current();
        let th = Threshold::Overlap(1);
        let _ = self_join_with(&sets, &lists, th, default_table(), &planner, &sp, 2);
    }
}
