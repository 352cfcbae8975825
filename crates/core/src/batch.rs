//! Batched intersection: many pairs against a shared kernel table, with
//! optional multithreading across pairs.
//!
//! This is how the substrates actually consume FESIA — triangle counting
//! issues one intersection per edge, a query engine one per query — and
//! batching amortizes table lookup, thread wakeup, and strategy dispatch
//! over the whole workload (the paper's Fig. 13 parallelizes across
//! intersections in exactly this way).
//!
//! Parallel batches run on the persistent [`fesia_exec::Executor`] with
//! dynamic chunking: the pair range is split ~8× finer than the thread
//! count and workers claim chunks as they finish, so a run of expensive
//! pairs (large sets, skewed sizes) no longer serializes on whichever
//! thread drew them — the failure mode of the old one-static-chunk-per-
//! thread `std::thread::scope` partitioning. Each pool worker keeps its
//! own survivor scratch buffer (thread-local in the threshold merge),
//! so the phase-1/phase-2 buffer is allocated once per thread and reused
//! across every pair of the batch.
//!
//! Before dispatch the batch is reordered *cache-residently*: a greedy
//! pass chains pairs sharing an operand so they run consecutively on the
//! same worker, keeping that operand's bitmap, metadata, and reordered
//! elements hot in L2/L3 instead of being evicted between two distant
//! uses (a real workload — triangle counting, a query engine — reuses
//! each set many times per batch). Results are still written at each
//! pair's original index, so the reorder is invisible to callers; the
//! `batch_pairs_resident` counter reports how many pairs actually ran
//! directly after a neighbour sharing an operand.

use crate::intersect::{auto_count_planned, default_table};
use crate::kernels::visit::SetOp;
use crate::kernels::KernelTable;
use crate::plan::IntersectPlanner;
use crate::set::SegmentedSet;
use fesia_exec::Executor;

/// Fewest pairs a chunk claim should hold; below this the claim's atomic
/// traffic rivals the intersection work itself.
pub(crate) const MIN_PAIRS_PER_CHUNK: usize = 8;

/// Shared output slice written by disjoint-range parallel workers.
///
/// SAFETY invariant: `for_each_chunk` hands each index range to exactly
/// one worker and the schedule is a permutation of the pair indices, so
/// concurrent writers never alias a slot.
pub(crate) struct DisjointOut<T>(pub(crate) *mut T);
unsafe impl<T: Send> Send for DisjointOut<T> {}
unsafe impl<T: Send> Sync for DisjointOut<T> {}

/// Greedy cache-resident schedule: a permutation of `0..pairs.len()`
/// in which pairs sharing an operand run consecutively where possible.
///
/// Starting from the first unscheduled pair (original order breaks
/// ties, keeping the schedule stable), the chain repeatedly continues
/// with the earliest unscheduled pair that shares the current pair's
/// first operand, then its second; when neither side has an unscheduled
/// neighbour the chain ends and the scan picks the next start. Per-set
/// adjacency lists with monotone cursors make the whole pass
/// `O(|pairs|)` — each cursor only ever moves forward.
pub(crate) fn cache_resident_order(num_sets: usize, pairs: &[(u32, u32)]) -> Vec<u32> {
    fn next_untaken(list: &[u32], cur: &mut usize, taken: &[bool]) -> Option<u32> {
        while *cur < list.len() {
            let k = list[*cur];
            if !taken[k as usize] {
                return Some(k);
            }
            *cur += 1;
        }
        None
    }
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); num_sets];
    for (k, &(a, b)) in pairs.iter().enumerate() {
        adj[a as usize].push(k as u32);
        if b != a {
            adj[b as usize].push(k as u32);
        }
    }
    let mut cursor = vec![0usize; num_sets];
    let mut taken = vec![false; pairs.len()];
    let mut order: Vec<u32> = Vec::with_capacity(pairs.len());
    let mut scan = 0usize;
    while order.len() < pairs.len() {
        while taken[scan] {
            scan += 1;
        }
        let mut k = scan as u32;
        loop {
            taken[k as usize] = true;
            order.push(k);
            let (a, b) = pairs[k as usize];
            let next = next_untaken(&adj[a as usize], &mut cursor[a as usize], &taken)
                .or_else(|| next_untaken(&adj[b as usize], &mut cursor[b as usize], &taken));
            match next {
                Some(n) => k = n,
                None => break,
            }
        }
    }
    order
}

/// Count |A ∩ B| for every `(a, b)` index pair over `sets`, with the
/// paper's §VI strategy selection per pair, on the global executor
/// capped at `threads` participants.
///
/// # Panics
/// Panics if an index is out of bounds or `threads == 0`.
pub fn batch_count_pairs(
    sets: &[SegmentedSet],
    pairs: &[(u32, u32)],
    table: &KernelTable,
    threads: usize,
) -> Vec<usize> {
    assert!(threads >= 1, "need at least one thread");
    batch_count_pairs_on(Executor::global(), sets, pairs, table, threads)
}

/// [`batch_count_pairs`] on an explicit executor (tests and benches use
/// dedicated pools to pin the worker count regardless of the host).
pub fn batch_count_pairs_on(
    exec: &Executor,
    sets: &[SegmentedSet],
    pairs: &[(u32, u32)],
    table: &KernelTable,
    threads: usize,
) -> Vec<usize> {
    assert!(threads >= 1, "need at least one thread");
    for &(a, b) in pairs {
        assert!(
            (a as usize) < sets.len() && (b as usize) < sets.len(),
            "pair index out of bounds"
        );
    }
    let m = fesia_obs::metrics();
    m.batch_calls.inc();
    m.batch_pairs.add(pairs.len() as u64);
    // One planner for the whole batch: it carries no state, so every
    // worker plans each pair from its summaries alone.
    let planner = IntersectPlanner::current();
    let order = cache_resident_order(sets.len(), pairs);
    let mut results = vec![0usize; pairs.len()];
    let out = DisjointOut(results.as_mut_ptr());
    exec.for_each_chunk(pairs.len(), MIN_PAIRS_PER_CHUNK, threads, |range| {
        let out = &out;
        let mut resident = 0u64;
        let mut prev: Option<(u32, u32)> = None;
        for &k in &order[range] {
            let k = k as usize;
            let (ai, bi) = pairs[k];
            if let Some((pa, pb)) = prev {
                if ai == pa || ai == pb || bi == pa || bi == pb {
                    resident += 1;
                }
            }
            prev = Some((ai, bi));
            let n = auto_count_planned(&sets[ai as usize], &sets[bi as usize], table, &planner);
            // SAFETY: chunk ranges partition 0..order.len() and `order`
            // is a permutation of the pair indices, so `k` is in bounds
            // and written by exactly one worker.
            unsafe { out.0.add(k).write(n) };
        }
        if resident > 0 {
            fesia_obs::metrics().batch_pairs_resident.add(resident);
        }
    });
    results
}

/// Batched count with the process-default table, single-threaded.
pub fn batch_count(sets: &[SegmentedSet], pairs: &[(u32, u32)]) -> Vec<usize> {
    batch_count_pairs(sets, pairs, default_table(), 1)
}

/// Materialize `op(A, B)` for every `(a, b)` index pair over `sets` —
/// the batched face of the set-algebra family ([`crate::algebra`]) —
/// with the same planner, cache-resident schedule, and dynamic
/// chunking as [`batch_count_pairs`].
///
/// # Panics
/// Panics if an index is out of bounds or `threads == 0`.
pub fn batch_op_pairs(
    sets: &[SegmentedSet],
    pairs: &[(u32, u32)],
    op: SetOp,
    threads: usize,
) -> Vec<Vec<u32>> {
    assert!(threads >= 1, "need at least one thread");
    batch_op_pairs_on(Executor::global(), sets, pairs, op, threads)
}

/// [`batch_op_pairs`] on an explicit executor.
pub fn batch_op_pairs_on(
    exec: &Executor,
    sets: &[SegmentedSet],
    pairs: &[(u32, u32)],
    op: SetOp,
    threads: usize,
) -> Vec<Vec<u32>> {
    assert!(threads >= 1, "need at least one thread");
    for &(a, b) in pairs {
        assert!(
            (a as usize) < sets.len() && (b as usize) < sets.len(),
            "pair index out of bounds"
        );
    }
    let m = fesia_obs::metrics();
    m.batch_calls.inc();
    m.batch_pairs.add(pairs.len() as u64);
    let planner = IntersectPlanner::current();
    let order = cache_resident_order(sets.len(), pairs);
    let mut results: Vec<Vec<u32>> = (0..pairs.len()).map(|_| Vec::new()).collect();
    let out = DisjointOut(results.as_mut_ptr());
    exec.for_each_chunk(pairs.len(), MIN_PAIRS_PER_CHUNK, threads, |range| {
        let out = &out;
        let mut resident = 0u64;
        let mut prev: Option<(u32, u32)> = None;
        for &k in &order[range] {
            let k = k as usize;
            let (ai, bi) = pairs[k];
            if let Some((pa, pb)) = prev {
                if ai == pa || ai == pb || bi == pa || bi == pb {
                    resident += 1;
                }
            }
            prev = Some((ai, bi));
            let v = crate::algebra::set_op_planned(
                &sets[ai as usize],
                &sets[bi as usize],
                op,
                &planner,
            );
            // SAFETY: as in `batch_count_pairs_on` — `k` is written by
            // exactly one worker. The overwritten placeholder is an
            // unallocated `Vec::new()`, so skipping its drop leaks
            // nothing.
            unsafe { out.0.add(k).write(v) };
        }
        if resident > 0 {
            fesia_obs::metrics().batch_pairs_resident.add(resident);
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FesiaParams;

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

    #[test]
    fn batch_matches_individual_counts() {
        let p = FesiaParams::auto();
        let lists: Vec<Vec<u32>> = (0..6u64)
            .map(|s| gen_sorted(500 + 300 * s as usize, s + 1, 20_000))
            .collect();
        let sets: Vec<SegmentedSet> = lists
            .iter()
            .map(|l| SegmentedSet::build(l, &p).unwrap())
            .collect();
        let pairs: Vec<(u32, u32)> = (0..6u32)
            .flat_map(|i| (0..6u32).map(move |j| (i, j)))
            .collect();
        let want: Vec<usize> = pairs
            .iter()
            .map(|&(i, j)| crate::intersect::auto_count(&sets[i as usize], &sets[j as usize]))
            .collect();
        for threads in [1usize, 2, 5, 16] {
            let got = batch_count_pairs(&sets, &pairs, &KernelTable::auto(), threads);
            assert_eq!(got, want, "threads={threads}");
        }
        assert_eq!(batch_count(&sets, &pairs), want);
    }

    #[test]
    fn batch_op_pairs_matches_pairwise_algebra() {
        let p = FesiaParams::auto();
        let lists: Vec<Vec<u32>> = (0..5u64)
            .map(|s| gen_sorted(300 + 200 * s as usize, s + 3, 10_000))
            .collect();
        let sets: Vec<SegmentedSet> = lists
            .iter()
            .map(|l| SegmentedSet::build(l, &p).unwrap())
            .collect();
        let pairs: Vec<(u32, u32)> = (0..5u32)
            .flat_map(|i| (0..5u32).map(move |j| (i, j)))
            .collect();
        for op in [
            SetOp::Intersect,
            SetOp::Union,
            SetOp::Difference,
            SetOp::Xor,
        ] {
            let want: Vec<Vec<u32>> = pairs
                .iter()
                .map(|&(i, j)| crate::algebra::set_op(&sets[i as usize], &sets[j as usize], op))
                .collect();
            for threads in [1usize, 3, 8] {
                let got = batch_op_pairs(&sets, &pairs, op, threads);
                assert_eq!(got, want, "op={op:?} threads={threads}");
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let sets: Vec<SegmentedSet> = vec![];
        assert!(batch_count(&sets, &[]).is_empty());
    }

    #[test]
    fn uneven_chunking_covers_every_pair() {
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&(0..100).collect::<Vec<_>>(), &p).unwrap();
        let b = SegmentedSet::build(&(50..150).collect::<Vec<_>>(), &p).unwrap();
        let sets = vec![a, b];
        let pairs: Vec<(u32, u32)> = (0..7)
            .map(|i| ((i % 2) as u32, ((i + 1) % 2) as u32))
            .collect();
        let got = batch_count_pairs(&sets, &pairs, &KernelTable::auto(), 3);
        assert_eq!(got, vec![50; 7]);
    }

    /// Adversarial pair-cost skew: all the expensive pairs sit at the
    /// front of the batch, exactly where the old static chunking would
    /// hand them to a single thread (and where a tiny `len % threads`
    /// tail would leave the last worker nearly idle). Dynamic chunking
    /// must still count every pair correctly on every pool size, with
    /// the pair count chosen so the claim granularity leaves a partial
    /// tail chunk.
    #[test]
    fn adversarial_cost_skew_counts_correctly() {
        let p = FesiaParams::auto();
        let heavy_a = gen_sorted(30_000, 101, 600_000);
        let heavy_b = gen_sorted(30_000, 102, 600_000);
        let light: Vec<Vec<u32>> = (0..4u64)
            .map(|s| gen_sorted(80, s + 201, 600_000))
            .collect();
        let mut sets = vec![
            SegmentedSet::build(&heavy_a, &p).unwrap(),
            SegmentedSet::build(&heavy_b, &p).unwrap(),
        ];
        sets.extend(light.iter().map(|l| SegmentedSet::build(l, &p).unwrap()));
        // 4 heavy pairs first (each ~375x the elements of a light pair),
        // then 57 light ones: 61 % 8 != 0 and 61 % MIN_PAIRS_PER_CHUNK != 0.
        let mut pairs: Vec<(u32, u32)> = vec![(0, 1), (1, 0), (0, 0), (1, 1)];
        for k in 0..57u32 {
            pairs.push((2 + k % 4, 2 + (k + 1) % 4));
        }
        let table = KernelTable::auto();
        let want: Vec<usize> = pairs
            .iter()
            .map(|&(i, j)| {
                crate::intersect::auto_count_with(&sets[i as usize], &sets[j as usize], &table)
            })
            .collect();
        for n in [2usize, 3, 8] {
            let exec = Executor::new(n);
            let got = batch_count_pairs_on(&exec, &sets, &pairs, &table, n);
            assert_eq!(got, want, "skewed batch, threads={n}");
        }
    }

    fn adjacent_sharing(pairs: &[(u32, u32)], order: &[u32]) -> usize {
        order
            .windows(2)
            .filter(|w| {
                let (pa, pb) = pairs[w[0] as usize];
                let (a, b) = pairs[w[1] as usize];
                a == pa || a == pb || b == pa || b == pb
            })
            .count()
    }

    #[test]
    fn cache_resident_order_is_a_permutation_that_groups_shared_operands() {
        // Interleaved so the original order never repeats an operand in
        // adjacent pairs; the schedule must recover the grouping.
        let pairs: Vec<(u32, u32)> = vec![
            (0, 1),
            (2, 3),
            (4, 5),
            (0, 2),
            (1, 3),
            (4, 0),
            (5, 2),
            (1, 4),
            (3, 5),
        ];
        assert_eq!(adjacent_sharing(&pairs, &(0..9u32).collect::<Vec<_>>()), 0);
        let order = cache_resident_order(6, &pairs);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9u32).collect::<Vec<_>>(), "not a permutation");
        assert!(
            adjacent_sharing(&pairs, &order) >= 6,
            "schedule shares too little: {order:?}"
        );
        // Self-pairs, duplicates, and empty input are all fine.
        assert_eq!(cache_resident_order(0, &[]), Vec::<u32>::new());
        let dup = vec![(1u32, 1u32), (0, 0), (1, 1)];
        let o = cache_resident_order(2, &dup);
        let mut s = o.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2]);
        assert_eq!(adjacent_sharing(&dup, &o), 1);
    }

    #[test]
    fn resident_counter_tracks_shared_operand_runs() {
        let p = FesiaParams::auto();
        let sets: Vec<SegmentedSet> = (0..3u64)
            .map(|s| SegmentedSet::build(&gen_sorted(200, s + 41, 8_000), &p).unwrap())
            .collect();
        // Every pair shares set 0: after any reorder all but the first
        // pair of each chunk are resident hits.
        let pairs: Vec<(u32, u32)> = (0..12).map(|k| (0u32, 1 + (k % 2) as u32)).collect();
        let before = fesia_obs::metrics().snapshot();
        let got = batch_count_pairs(&sets, &pairs, &KernelTable::auto(), 1);
        let delta = fesia_obs::metrics().snapshot().delta(&before);
        assert_eq!(got.len(), 12);
        assert!(
            delta.batch_pairs_resident >= 11,
            "expected ≥11 resident hits, saw {}",
            delta.batch_pairs_resident
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_pair_index_panics_before_dispatch() {
        let p = FesiaParams::auto();
        let sets = vec![SegmentedSet::build(&[1, 2, 3], &p).unwrap()];
        let _ = batch_count(&sets, &[(0, 1)]);
    }

    #[test]
    fn dedicated_executor_matches_global_path() {
        let p = FesiaParams::auto();
        let lists: Vec<Vec<u32>> = (0..4u64).map(|s| gen_sorted(400, s + 11, 9_000)).collect();
        let sets: Vec<SegmentedSet> = lists
            .iter()
            .map(|l| SegmentedSet::build(l, &p).unwrap())
            .collect();
        let pairs: Vec<(u32, u32)> = (0..4u32)
            .flat_map(|i| (0..4u32).map(move |j| (i, j)))
            .collect();
        let want = batch_count_pairs(&sets, &pairs, &KernelTable::auto(), 1);
        for n in [1usize, 2, 8] {
            let exec = Executor::new(n);
            let got = batch_count_pairs_on(&exec, &sets, &pairs, &KernelTable::auto(), n);
            assert_eq!(got, want, "executor threads={n}");
        }
    }
}
