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
//! 2. **Early-exit counting** ([`crate::intersect_count_bounded`]):
//!    the planner-selected kernel sweep, aborted the moment the residual
//!    upper bound (matched-so-far + what the unswept remainder could
//!    contribute) drops below `t`. Survivors complete the sweep, so
//!    every reported pair carries its exact intersection size.
//!
//! Early exit is switchable ([`crate::params::SimjoinParams`]); off,
//! the driver is the prefix-filter-only baseline (exact full count per
//! candidate) that `repro simjoin` measures the cascade against.
//!
//! Tier 1 runs inside the parallel cascade rather than in front of it:
//! one flat prefix index is built per join, workers claim ranges of
//! probe sets, and each candidate a probe finds is counted at once, so
//! no candidate list is ever built. The per-stage `simjoin_*` counters
//! satisfy `candidates = early_exited + verified`;
//! [`SimjoinStats::bitmap_rejected`] stays 0 until a bitmap filter tier
//! sits in front of the count again.

use crate::intersect::{auto_count_planned, default_table, intersect_count_bounded_planned};
use crate::kernels::KernelTable;
use crate::params::{env, FesiaParams, SimjoinParams};
use crate::plan::IntersectPlanner;
use crate::set::SegmentedSet;
use fesia_exec::Executor;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Process-wide simjoin knobs (`FESIA_SIMJOIN_*`)
// ---------------------------------------------------------------------------

static SIMJOIN_EARLY_EXIT: AtomicBool = AtomicBool::new(true);
static SIMJOIN_INIT: OnceLock<()> = OnceLock::new();

fn ensure_simjoin_init() {
    SIMJOIN_INIT.get_or_init(|| {
        env::warn_unrecognized();
        store_simjoin(SimjoinParams::from_env());
    });
}

fn store_simjoin(p: SimjoinParams) {
    SIMJOIN_EARLY_EXIT.store(p.early_exit, Ordering::Relaxed);
}

/// The process-wide [`SimjoinParams`] (after `FESIA_SIMJOIN_*`
/// initialization).
pub fn simjoin_params() -> SimjoinParams {
    ensure_simjoin_init();
    SimjoinParams {
        early_exit: SIMJOIN_EARLY_EXIT.load(Ordering::Relaxed),
    }
}

/// Replace the process-wide [`SimjoinParams`].
pub fn set_simjoin_params(p: SimjoinParams) {
    ensure_simjoin_init();
    store_simjoin(p);
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
    /// Candidates rejected by a bitmap filter before any count. No such
    /// filter runs today, so this is always 0; it keeps the counter
    /// identity's shape for readers of these stats.
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

fn assert_sorted_lists(lists: &[Vec<u32>]) {
    for (i, l) in lists.iter().enumerate() {
        assert!(
            l.windows(2).all(|w| w[0] < w[1]),
            "list {i} is not strictly ascending"
        );
    }
}

/// The probing prefix of `l`: its first `len − t_min + 1` tokens, or
/// `None` when `l` cannot reach the threshold with any partner.
fn prefix(threshold: Threshold, l: &[u32]) -> Option<&[u32]> {
    let t_min = threshold.t_min(l.len());
    (t_min <= l.len()).then(|| &l[..(l.len() - t_min + 1).min(l.len())])
}

/// Tier 1 of one join: the indexed side's sets in length-ascending
/// order (a set's position in it is its *rank*) and one flat inverted
/// index of their prefixes, in CSR form.
///
/// The index is built by packing every prefix entry as
/// `(token << 32) | rank` into one `Vec<u64>` and sorting it once, so
/// each token's postings come out as ascending ranks with no hash map
/// and no per-token allocation.
struct PrefixIndex<'a> {
    threshold: Threshold,
    lists: &'a [Vec<u32>],
    /// Set id at each rank: lengths ascending, ties by id.
    order: Vec<u32>,
    /// Ranks `0..empties` are the empty lists.
    empties: u32,
    /// Distinct prefix tokens, ascending.
    tokens: Vec<u32>,
    /// Postings of `tokens[g]`: `ranks[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    /// Ranks, ascending within each token.
    ranks: Vec<u32>,
}

impl<'a> PrefixIndex<'a> {
    fn build(lists: &'a [Vec<u32>], threshold: Threshold) -> Self {
        threshold.validate();
        assert_sorted_lists(lists);
        let mut order: Vec<u32> = (0..lists.len() as u32).collect();
        order.sort_by_key(|&i| lists[i as usize].len());
        let empties = order.partition_point(|&i| lists[i as usize].is_empty()) as u32;
        let mut entries = Vec::new();
        if !threshold.is_trivial() {
            for (rank, &id) in order.iter().enumerate() {
                if let Some(p) = prefix(threshold, &lists[id as usize]) {
                    entries.extend(p.iter().map(|&tok| u64::from(tok) << 32 | rank as u64));
                }
            }
        }
        entries.sort_unstable();
        let (mut tokens, mut starts) = (Vec::new(), Vec::new());
        let ranks = entries
            .iter()
            .enumerate()
            .map(|(k, &e)| {
                let tok = (e >> 32) as u32;
                if tokens.last() != Some(&tok) {
                    tokens.push(tok);
                    starts.push(k as u32);
                }
                e as u32
            })
            .collect();
        starts.push(entries.len() as u32);
        PrefixIndex {
            threshold,
            lists,
            order,
            empties,
            tokens,
            starts,
            ranks,
        }
    }

    fn postings(&self, tok: u32) -> &[u32] {
        match self.tokens.binary_search(&tok) {
            Ok(g) => &self.ranks[self.starts[g] as usize..self.starts[g + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Call `emit(rank)` once for every indexed set below rank `limit`
    /// that the length + prefix filter pairs with probe list `l`.
    /// `marks` (one slot per rank) deduplicates; `epoch` must differ
    /// from every epoch previously used with the same `marks` and be
    /// non-zero.
    fn for_each_candidate(
        &self,
        l: &[u32],
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
        let Some(prefix) = prefix(self.threshold, l) else {
            return; // can never reach the threshold with any partner
        };
        if l.is_empty() {
            // Only Jaccard gives an empty list a prefix, and it treats
            // two empty sets as qualifying (see [`Threshold`]); they carry
            // no tokens, so pair them directly.
            (0..limit.min(self.empties)).for_each(emit);
            return;
        }
        for &tok in prefix {
            for &s in self.postings(tok) {
                if s >= limit {
                    break;
                }
                if marks[s as usize] == epoch {
                    continue;
                }
                marks[s as usize] = epoch;
                let ls = self.lists[self.order[s as usize] as usize].len();
                // Length filter: the pair is feasible only if the
                // shorter side could hold the required overlap.
                if self.threshold.t_pair(ls, l.len()) <= ls.min(l.len()) {
                    emit(s);
                }
            }
        }
    }

    /// Self-join probe of the set at rank `k`: `emit(i, j)` (set ids,
    /// `i < j`) for each candidate partner of lower rank, so every
    /// unordered pair is produced once, by its higher-ranked side.
    fn probe_self(&self, k: usize, marks: &mut [u32], mut emit: impl FnMut(u32, u32)) {
        let r = self.order[k];
        let l = &self.lists[r as usize];
        self.for_each_candidate(l, k as u32, marks, k as u32 + 1, |s| {
            let s = self.order[s as usize];
            emit(s.min(r), s.max(r));
        });
    }

    /// A×B probe of A's list `i`: `emit(i, j)` for each candidate `j`
    /// of the indexed side.
    fn probe_cross(&self, i: usize, l: &[u32], marks: &mut [u32], mut emit: impl FnMut(u32, u32)) {
        self.for_each_candidate(l, u32::MAX, marks, i as u32 + 1, |s| {
            emit(i as u32, self.order[s as usize]);
        });
    }
}

/// Candidate pairs of a self-join over `lists` (each strictly
/// ascending): a superset of the qualifying pairs, each `(i, j)` with
/// `i < j`, deduplicated and sorted, produced by the length + prefix
/// filter alone — exactly the pairs [`self_join_with`] counts. A trivial threshold yields all pairs.
pub fn candidate_pairs_self(lists: &[Vec<u32>], threshold: Threshold) -> Vec<(u32, u32)> {
    let index = PrefixIndex::build(lists, threshold);
    let mut marks = vec![0u32; lists.len()];
    let mut out = Vec::new();
    for k in 0..lists.len() {
        index.probe_self(k, &mut marks, |i, j| out.push((i, j)));
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
    assert_sorted_lists(lists_a);
    let index = PrefixIndex::build(lists_b, threshold);
    let mut marks = vec![0u32; lists_b.len()];
    let mut out = Vec::new();
    for (i, l) in lists_a.iter().enumerate() {
        index.probe_cross(i, l, &mut marks, |i, j| out.push((i, j)));
    }
    out.sort_unstable();
    out
}

// ---------------------------------------------------------------------------
// Verification: the cascade, fed straight from the probes
// ---------------------------------------------------------------------------

/// Verify one candidate: whether it qualifies. Exactly one verdict per
/// call — the counter identity is enforced here, not reconstructed
/// later.
fn evaluate_pair(
    a: &SegmentedSet,
    b: &SegmentedSet,
    threshold: Threshold,
    table: &KernelTable,
    planner: &IntersectPlanner,
    sp: &SimjoinParams,
) -> bool {
    if sp.early_exit {
        // Early-exit sweep. Survivors complete the sweep, so the
        // verify is an exact count, not a probabilistic accept.
        let t = threshold.t_pair(a.len(), b.len());
        let c = intersect_count_bounded_planned(a, b, table, planner, t);
        debug_assert!(c.is_none_or(|c| threshold.qualifies(c, a.len(), b.len())));
        c.is_some()
    } else {
        // Baseline: full exact count (the prefix-filter-only
        // driver the cascade is measured against).
        let c = auto_count_planned(a, b, table, planner);
        threshold.qualifies(c, a.len(), b.len())
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
    fn record(&mut self, pair: (u32, u32), verified: bool) {
        self.stats.candidates += 1;
        if verified {
            self.stats.verified += 1;
            self.pairs.push(pair);
        } else {
            self.stats.early_exited += 1;
        }
    }

    fn merge(mut self, other: Partial) -> Partial {
        let (s, o) = (&mut self.stats, other.stats);
        s.candidates += o.candidates;
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
    let index = PrefixIndex::build(lists, threshold);
    stream_join(lists.len(), lists.len(), threads, |k, marks, part| {
        index.probe_self(k, marks, |i, j| {
            let (a, b) = (sets[i as usize].borrow(), sets[j as usize].borrow());
            part.record((i, j), evaluate_pair(a, b, threshold, table, planner, sp));
        });
    })
}

/// Self-join with process defaults: sets built with
/// [`FesiaParams::auto`], the default kernel table, the planner, and the
/// `FESIA_SIMJOIN_EARLY_EXIT` knob.
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
        &simjoin_params(),
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
    assert_sorted_lists(lists_a);
    let index = PrefixIndex::build(lists_b, threshold);
    stream_join(lists_a.len(), lists_b.len(), threads, |i, marks, part| {
        index.probe_cross(i, &lists_a[i], marks, |i, j| {
            let (a, b) = (sets_a[i as usize].borrow(), sets_b[j as usize].borrow());
            part.record((i, j), evaluate_pair(a, b, threshold, table, planner, sp));
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
        &simjoin_params(),
        threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(r.stats.bitmap_rejected, 0);
            assert_eq!(r.stats.candidates, r.stats.early_exited + r.stats.verified);
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

    #[test]
    fn simjoin_knob_round_trips() {
        let saved = simjoin_params();
        let q = SimjoinParams::default().with_early_exit(false);
        set_simjoin_params(q);
        assert_eq!(simjoin_params(), q);
        set_simjoin_params(saved);
    }
}
