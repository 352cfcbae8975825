//! Incremental updates: [`DynamicSet`].
//!
//! The paper's structure is built offline and immutable — appropriate for
//! its benchmarks, but real posting lists and adjacency lists change. The
//! standard remedy (as in LSM trees and practical bitmap indexes) is a
//! small mutable *delta* on top of the immutable base, folded in by a
//! periodic rebuild:
//!
//! * `base` — an ordinary [`SegmentedSet`];
//! * `added` — sorted values present but not in `base`;
//! * `deleted` — sorted values in `base` that have been removed.
//!
//! Intersections decompose exactly (no approximation): with
//! `A = (baseA \ delA) ∪ addA`, the count is the base-vs-base FESIA count
//! corrected by probes of the (small) deltas. When a delta outgrows the
//! configured rebuild fraction of the base
//! ([`crate::params::DynamicParams`], default
//! [`DynamicSet::REBUILD_FRACTION`], env `FESIA_REBUILD_FRACTION`), the
//! set is re-encoded.
//!
//! The base and the delta lists are each held behind an [`Arc`], so
//! cloning a `DynamicSet` copies two refcounts and nothing else. A
//! snapshot store keeps every set inline in its catalog slot and clones
//! the whole catalog on each publish (DESIGN.md "Resolution latency"),
//! so that clone must never copy delta buffers. The delta is copied on
//! write instead: the first [`DynamicSet::insert`] or
//! [`DynamicSet::remove`] on a shared delta copies it once.

use crate::error::BuildError;
use crate::intersect::auto_count_planned;
use crate::kernels::KernelTable;
use crate::params::{DynamicParams, FesiaParams};
use crate::plan::IntersectPlanner;
use crate::set::SegmentedSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `DynamicParams::rebuild_fraction` as f64 bits (atomics hold no
/// floats); initialized to the documented default.
static REBUILD_FRACTION_BITS: AtomicU64 = AtomicU64::new(0x3FD0_0000_0000_0000); // 0.25

/// Raw store of the dynamic-set knobs, with no initialization check
/// (`crate::plan::ensure_init` uses this from inside its `OnceLock`
/// closure — see `store_pipeline`).
pub(crate) fn store_dynamic(p: DynamicParams) {
    REBUILD_FRACTION_BITS.store(p.rebuild_fraction.to_bits(), Ordering::Relaxed);
}

/// The process-wide [`DynamicParams`] governing when a [`DynamicSet`]
/// folds its deltas (profile + env layering done by the planner's
/// one-shot initialization).
pub fn dynamic_params() -> DynamicParams {
    crate::plan::ensure_init();
    DynamicParams {
        rebuild_fraction: f64::from_bits(REBUILD_FRACTION_BITS.load(Ordering::Relaxed)),
    }
}

/// Replace the process-wide [`DynamicParams`].
pub fn set_dynamic_params(p: DynamicParams) {
    crate::plan::ensure_init();
    store_dynamic(p);
}

/// A mutable set: immutable FESIA base plus sorted add/delete deltas.
#[derive(Debug, Clone)]
pub struct DynamicSet {
    base: Arc<SegmentedSet>,
    /// The pending deltas, shared between clones until one of them
    /// mutates; `None` whenever both lists are empty.
    delta: Option<Arc<Delta>>,
    params: FesiaParams,
}

/// The sorted add/delete lists of a [`DynamicSet`].
#[derive(Debug, Clone, Default)]
struct Delta {
    /// Values present but not in the base (disjoint from it).
    added: Vec<u32>,
    /// Values in the base that have been removed.
    deleted: Vec<u32>,
}

impl DynamicSet {
    /// Default delta size (relative to the base) that triggers a rebuild;
    /// the effective value is [`dynamic_params`].
    pub const REBUILD_FRACTION: f64 = 0.25;

    /// Start from a sorted, duplicate-free slice.
    pub fn build(sorted: &[u32], params: &FesiaParams) -> Result<DynamicSet, BuildError> {
        Ok(DynamicSet::from_base(
            Arc::new(SegmentedSet::build(sorted, params)?),
            *params,
        ))
    }

    /// Wrap an already-encoded base with empty deltas, sharing it
    /// without re-encoding (snapshot stores use this to adopt existing
    /// [`SegmentedSet`]s).
    pub fn from_base(base: Arc<SegmentedSet>, params: FesiaParams) -> DynamicSet {
        DynamicSet {
            base,
            delta: None,
            params,
        }
    }

    /// Number of elements currently in the set.
    pub fn len(&self) -> usize {
        self.base.len() - self.deleted().len() + self.added().len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current delta size (pending adds + deletes).
    pub fn delta_len(&self) -> usize {
        self.added().len() + self.deleted().len()
    }

    /// Membership test.
    pub fn contains(&self, x: u32) -> bool {
        if self.added().binary_search(&x).is_ok() {
            return true;
        }
        self.base.contains(x) && self.deleted().binary_search(&x).is_err()
    }

    /// Insert `x`; returns `true` if it was not already present.
    ///
    /// # Errors
    /// Propagates a rebuild failure for out-of-domain values.
    pub fn insert(&mut self, x: u32) -> Result<bool, BuildError> {
        let changed = self.insert_deferred(x)?;
        self.maybe_rebuild()?;
        Ok(changed)
    }

    /// Remove `x`; returns `true` if it was present.
    pub fn remove(&mut self, x: u32) -> Result<bool, BuildError> {
        let changed = self.remove_deferred(x)?;
        self.maybe_rebuild()?;
        Ok(changed)
    }

    /// [`DynamicSet::insert`] without the inline rebuild check: the
    /// delta may grow past the rebuild fraction. Callers that must keep
    /// mutation latency flat (the serving layer's write path) apply a
    /// batch of deferred ops, check [`DynamicSet::needs_rebuild`], and
    /// fold the deltas elsewhere ([`DynamicSet::rebuilt`]).
    pub fn insert_deferred(&mut self, x: u32) -> Result<bool, BuildError> {
        if x > crate::error::MAX_ELEMENT {
            return Err(BuildError::ReservedValue { index: 0 });
        }
        if let Ok(pos) = self.deleted().binary_search(&x) {
            self.edit_delta(|d| d.deleted.remove(pos));
            return Ok(true);
        }
        if self.base.contains(x) {
            return Ok(false);
        }
        match self.added().binary_search(&x) {
            Ok(_) => Ok(false),
            Err(pos) => {
                self.edit_delta(|d| d.added.insert(pos, x));
                Ok(true)
            }
        }
    }

    /// [`DynamicSet::remove`] without the inline rebuild check (see
    /// [`DynamicSet::insert_deferred`]).
    pub fn remove_deferred(&mut self, x: u32) -> Result<bool, BuildError> {
        if let Ok(pos) = self.added().binary_search(&x) {
            self.edit_delta(|d| d.added.remove(pos));
            return Ok(true);
        }
        if !self.base.contains(x) {
            return Ok(false);
        }
        match self.deleted().binary_search(&x) {
            Ok(_) => Ok(false),
            Err(pos) => {
                self.edit_delta(|d| d.deleted.insert(pos, x));
                Ok(true)
            }
        }
    }

    /// Mutate the delta, copying it first when another clone shares it,
    /// and drop it once both lists are empty.
    fn edit_delta<R>(&mut self, f: impl FnOnce(&mut Delta) -> R) -> R {
        let delta = Arc::make_mut(self.delta.get_or_insert_with(Default::default));
        let r = f(delta);
        if delta.added.is_empty() && delta.deleted.is_empty() {
            self.delta = None;
        }
        r
    }

    /// Fold the deltas into a fresh base encoding.
    ///
    /// Rebuilding also refreshes the features the
    /// [`crate::plan::IntersectPlanner`] reads (length, bitmap size,
    /// summary density are all cached on the base at build time), so a
    /// set that grew or shrank past a strategy crossover starts getting
    /// the right plan as soon as the deltas fold in.
    pub fn rebuild(&mut self) -> Result<(), BuildError> {
        let snapshot = self.to_sorted_vec();
        self.base = Arc::new(SegmentedSet::build(&snapshot, &self.params)?);
        self.delta = None;
        Ok(())
    }

    /// A fresh, logically identical set with the deltas folded into a
    /// new base encoding — the off-write-path form of
    /// [`DynamicSet::rebuild`]: the serving layer encodes against an
    /// immutable published version and swaps the result in afterwards,
    /// so neither readers nor writers wait on the encode.
    pub fn rebuilt(&self) -> Result<DynamicSet, BuildError> {
        let mut folded = self.clone();
        folded.rebuild()?;
        Ok(folded)
    }

    /// Whether the pending delta has outgrown the configured rebuild
    /// fraction ([`dynamic_params`]) of the base.
    pub fn needs_rebuild(&self) -> bool {
        self.delta_len() > self.rebuild_threshold()
    }

    fn rebuild_threshold(&self) -> usize {
        let fraction = dynamic_params().rebuild_fraction;
        (self.base.len() as f64 * fraction).max(64.0) as usize
    }

    fn maybe_rebuild(&mut self) -> Result<(), BuildError> {
        if self.needs_rebuild() {
            self.rebuild()?;
        }
        Ok(())
    }

    /// Snapshot the logical contents, sorted ascending.
    pub fn to_sorted_vec(&self) -> Vec<u32> {
        let (added, deleted) = (self.added(), self.deleted());
        let mut base: Vec<u32> = self.base.reordered_elements().to_vec();
        base.sort_unstable();
        base.retain(|x| deleted.binary_search(x).is_err());
        let mut out = Vec::with_capacity(base.len() + added.len());
        // Merge base (sorted) with added (sorted, disjoint).
        let (mut i, mut j) = (0usize, 0usize);
        while i < base.len() || j < added.len() {
            let take_base = j >= added.len() || (i < base.len() && base[i] < added[j]);
            if take_base {
                out.push(base[i]);
                i += 1;
            } else {
                out.push(added[j]);
                j += 1;
            }
        }
        out
    }

    /// The immutable base (for inspection/tests).
    pub fn base(&self) -> &SegmentedSet {
        &self.base
    }

    /// A shared handle to the immutable base — what snapshot readers
    /// hand to the planner-driven entry points without copying the
    /// encoding.
    pub fn base_arc(&self) -> Arc<SegmentedSet> {
        Arc::clone(&self.base)
    }

    /// The pending additions, sorted ascending (disjoint from the base).
    pub fn added(&self) -> &[u32] {
        self.delta.as_ref().map_or(&[], |d| &d.added)
    }

    /// The pending deletions, sorted ascending (all present in the base).
    pub fn deleted(&self) -> &[u32] {
        self.delta.as_ref().map_or(&[], |d| &d.deleted)
    }

    /// The build parameters this set encodes with.
    pub fn params(&self) -> FesiaParams {
        self.params
    }
}

/// |A ∩ B| for two dynamic sets: FESIA on the bases, exact corrections
/// from the deltas (each correction term probes a small sorted list).
///
/// The base-vs-base term goes through the [`IntersectPlanner`] like every
/// other entry point, so dynamic sets get the same summary-pruning and
/// hash-probe selection as immutable ones — previously this called the
/// merge path directly and a heavily skewed pair of dynamic sets never
/// probed.
pub fn dynamic_intersect_count(a: &DynamicSet, b: &DynamicSet, table: &KernelTable) -> usize {
    let planner = IntersectPlanner::current();
    // Live membership helpers.
    let in_a = |x: u32| {
        (a.base.contains(x) && a.deleted().binary_search(&x).is_err())
            || a.added().binary_search(&x).is_ok()
    };
    let in_b = |x: u32| {
        (b.base.contains(x) && b.deleted().binary_search(&x).is_err())
            || b.added().binary_search(&x).is_ok()
    };

    // Term 1: base ∩ base, minus pairs killed by either delete list.
    let mut count = auto_count_planned(&a.base, &b.base, table, &planner);
    let mut dels: Vec<u32> = a.deleted().iter().chain(b.deleted()).copied().collect();
    dels.sort_unstable();
    dels.dedup();
    for &x in &dels {
        if a.base.contains(x) && b.base.contains(x) {
            count -= 1;
        }
    }
    // Term 2: A's additions present in live B.
    count += a.added().iter().filter(|&&x| in_b(x)).count();
    // Term 3: B's additions present in live A, excluding pairs already
    // counted in term 2 (x in both add lists).
    count += b
        .added()
        .iter()
        .filter(|&&x| in_a(x) && a.added().binary_search(&x).is_err())
        .count();
    count
}

/// Materialize `op(A, B)` for two dynamic sets, sorted ascending.
///
/// The base-vs-base term runs the planner-driven algebra
/// ([`crate::algebra::set_op`]); the deltas then correct it *exactly*: a
/// candidate superset of the live answer is the base answer plus the
/// delta lists that can add elements to this op's result (additions for
/// every op; the *other* side's deletions for a difference, both delete
/// lists for a xor — deleting `x` from B while `x` stays in A moves `x`
/// into `A \ B` and `A △ B`), and each candidate is settled with live
/// membership probes against both sides. With no pending deltas on
/// either side the base answer is the live answer and returns as is.
pub fn dynamic_set_op(
    a: &DynamicSet,
    b: &DynamicSet,
    op: crate::kernels::visit::SetOp,
) -> Vec<u32> {
    use crate::kernels::visit::SetOp;
    let mut cand = crate::algebra::set_op(&a.base, &b.base, op);
    if a.delta_len() == 0 && b.delta_len() == 0 {
        return cand;
    }
    let in_a = |x: u32| {
        (a.base.contains(x) && a.deleted().binary_search(&x).is_err())
            || a.added().binary_search(&x).is_ok()
    };
    let in_b = |x: u32| {
        (b.base.contains(x) && b.deleted().binary_search(&x).is_err())
            || b.added().binary_search(&x).is_ok()
    };
    match op {
        SetOp::Intersect | SetOp::Union => {
            cand.extend_from_slice(a.added());
            cand.extend_from_slice(b.added());
        }
        SetOp::Difference => {
            cand.extend_from_slice(a.added());
            cand.extend_from_slice(b.deleted());
        }
        SetOp::Xor => {
            cand.extend_from_slice(a.added());
            cand.extend_from_slice(b.added());
            cand.extend_from_slice(a.deleted());
            cand.extend_from_slice(b.deleted());
        }
    }
    cand.sort_unstable();
    cand.dedup();
    cand.retain(|&x| match op {
        SetOp::Intersect => in_a(x) && in_b(x),
        SetOp::Union => in_a(x) || in_b(x),
        SetOp::Difference => in_a(x) && !in_b(x),
        SetOp::Xor => in_a(x) != in_b(x),
    });
    cand
}

/// K-way intersection of dynamic sets, materialized (sorted ascending).
/// Delta-free inputs run the planner-ordered immutable k-way path
/// unchanged; any live delta switches to the exact candidate filter:
/// the base k-way result plus every addition, settled by live-membership
/// probes against all `k` sets.
///
/// # Panics
/// Panics if `sets` is empty (matches [`crate::kway_intersect`]).
pub fn dynamic_kway_intersect(sets: &[&DynamicSet], table: &KernelTable) -> Vec<u32> {
    assert!(!sets.is_empty(), "k-way intersection of zero sets");
    let bases: Vec<&SegmentedSet> = sets.iter().map(|s| s.base()).collect();
    let planner = IntersectPlanner::current();
    let mut cand = crate::kway::kway_intersect_planned(&bases, table, &planner);
    if sets.iter().all(|s| s.delta_len() == 0) {
        return cand;
    }
    for s in sets {
        cand.extend_from_slice(s.added());
    }
    cand.sort_unstable();
    cand.dedup();
    cand.retain(|&x| sets.iter().all(|s| s.contains(x)));
    cand
}

/// `|∩ sets|`; see [`dynamic_kway_intersect`].
pub fn dynamic_kway_count(sets: &[&DynamicSet], table: &KernelTable) -> usize {
    assert!(!sets.is_empty(), "k-way intersection of zero sets");
    if sets.iter().all(|s| s.delta_len() == 0) {
        let bases: Vec<&SegmentedSet> = sets.iter().map(|s| s.base()).collect();
        let planner = IntersectPlanner::current();
        return crate::kway::kway_count_planned(&bases, table, &planner);
    }
    dynamic_kway_intersect(sets, table).len()
}

/// K-way union of dynamic sets, materialized (sorted ascending).
///
/// # Panics
/// Panics if `sets` is empty (matches [`crate::kway_union`]).
pub fn dynamic_kway_union(sets: &[&DynamicSet]) -> Vec<u32> {
    assert!(!sets.is_empty(), "k-way union of zero sets");
    let bases: Vec<&SegmentedSet> = sets.iter().map(|s| s.base()).collect();
    let mut cand = crate::kway::kway_union(&bases);
    if sets.iter().all(|s| s.delta_len() == 0) {
        return cand;
    }
    for s in sets {
        cand.extend_from_slice(s.added());
    }
    cand.sort_unstable();
    cand.dedup();
    cand.retain(|&x| sets.iter().any(|s| s.contains(x)));
    cand
}

/// Boolean query over dynamic sets: every element in all `must` sets
/// AND (when `should` is non-empty) at least one `should` set, minus
/// every `must_not` set. A query with neither `must` nor `should`
/// matches nothing.
pub fn dynamic_boolean(
    must: &[&DynamicSet],
    should: &[&DynamicSet],
    must_not: &[&DynamicSet],
    table: &KernelTable,
) -> Vec<u32> {
    let mut acc: Vec<u32> = if !must.is_empty() {
        dynamic_kway_intersect(must, table)
    } else if !should.is_empty() {
        dynamic_kway_union(should)
    } else {
        return Vec::new();
    };
    if !must.is_empty() && !should.is_empty() {
        acc.retain(|&x| should.iter().any(|s| s.contains(x)));
    }
    for ex in must_not {
        if acc.is_empty() {
            break;
        }
        acc.retain(|&x| !ex.contains(x));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn params() -> FesiaParams {
        FesiaParams::auto()
    }

    #[test]
    fn insert_remove_contains_track_a_reference() {
        let initial: Vec<u32> = (0..500).map(|i| i * 4).collect();
        let mut dyn_set = DynamicSet::build(&initial, &params()).unwrap();
        let mut reference: BTreeSet<u32> = initial.iter().copied().collect();
        let mut state = 0xD15Eu64;
        for step in 0..3_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = (state % 3_000) as u32;
            if state & 1 == 0 {
                assert_eq!(
                    dyn_set.insert(x).unwrap(),
                    reference.insert(x),
                    "step {step} insert {x}"
                );
            } else {
                assert_eq!(
                    dyn_set.remove(x).unwrap(),
                    reference.remove(&x),
                    "step {step} remove {x}"
                );
            }
            assert_eq!(dyn_set.len(), reference.len(), "step {step}");
        }
        assert_eq!(
            dyn_set.to_sorted_vec(),
            reference.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn rebuild_is_transparent() {
        let mut s = DynamicSet::build(&[1, 5, 9], &params()).unwrap();
        for x in 100..400 {
            s.insert(x).unwrap(); // crosses the rebuild threshold repeatedly
        }
        // Auto-rebuild keeps the delta bounded (it only fires on crossing
        // the threshold, so a small residue may remain).
        assert!(s.delta_len() <= 65, "delta {} not folded", s.delta_len());
        assert!(s.base().len() >= 238, "base never absorbed the deltas");
        assert!(s.contains(1) && s.contains(399));
        assert_eq!(s.len(), 303);
    }

    /// Satellite: the rebuild fraction is a process-wide knob
    /// (`FESIA_REBUILD_FRACTION` / [`crate::set_dynamic_params`]), not a
    /// hard-coded const.
    #[test]
    fn rebuild_fraction_is_configurable() {
        let _guard = crate::plan::test_knob_lock();
        let prev = dynamic_params();
        let base: Vec<u32> = (0..10_000).map(|i| i * 2).collect();

        // Default fraction 0.25: 150 inserts stay in the delta.
        set_dynamic_params(DynamicParams::default());
        let mut s = DynamicSet::build(&base, &params()).unwrap();
        for x in 0..150 {
            s.insert(x * 2 + 1).unwrap();
        }
        assert_eq!(s.delta_len(), 150, "default fraction should not fold yet");
        assert!(!s.needs_rebuild());

        // Fraction 0.01 (threshold 100): the same churn folds early.
        set_dynamic_params(DynamicParams::default().with_rebuild_fraction(0.01));
        let mut s = DynamicSet::build(&base, &params()).unwrap();
        for x in 0..150 {
            s.insert(x * 2 + 1).unwrap();
        }
        assert!(
            s.delta_len() <= 101,
            "delta {} not folded at fraction 0.01",
            s.delta_len()
        );
        assert_eq!(s.len(), 10_150);

        set_dynamic_params(prev);
    }

    #[test]
    fn deferred_writes_fold_off_path() {
        let base: Vec<u32> = (0..1_000).collect();
        let mut s = DynamicSet::build(&base, &params()).unwrap();
        for x in 1_000..1_400 {
            s.insert_deferred(x).unwrap();
        }
        // Deferred ops never rebuild inline, however large the delta…
        assert_eq!(s.delta_len(), 400);
        assert!(s.needs_rebuild());
        // …and the off-path fold is non-destructive and exact.
        let folded = s.rebuilt().unwrap();
        assert_eq!(s.delta_len(), 400, "source untouched");
        assert_eq!(folded.delta_len(), 0);
        assert_eq!(folded.to_sorted_vec(), s.to_sorted_vec());
        assert!(!folded.needs_rebuild());
    }

    #[test]
    fn clone_shares_the_base_encoding() {
        let base: Vec<u32> = (0..5_000).collect();
        let s = DynamicSet::build(&base, &params()).unwrap();
        let c = s.clone();
        assert!(
            std::ptr::eq(s.base(), c.base()),
            "clone must share the Arc'd base"
        );
    }

    #[test]
    fn clone_shares_the_delta_until_a_write_copies_it() {
        let mut s = DynamicSet::build(&[10, 20, 30], &params()).unwrap();
        s.insert_deferred(5).unwrap();
        s.remove_deferred(20).unwrap();
        let mut c = s.clone();
        assert!(std::ptr::eq(s.added().as_ptr(), c.added().as_ptr()));
        assert!(std::ptr::eq(s.deleted().as_ptr(), c.deleted().as_ptr()));
        c.insert_deferred(7).unwrap();
        assert_eq!(c.to_sorted_vec(), vec![5, 7, 10, 30]);
        assert_eq!(s.to_sorted_vec(), vec![5, 10, 30], "source untouched");
        // Undoing every pending op leaves no delta behind.
        for x in [5, 7] {
            c.remove_deferred(x).unwrap();
        }
        c.insert_deferred(20).unwrap();
        assert_eq!(c.delta_len(), 0);
        assert_eq!(c.to_sorted_vec(), vec![10, 20, 30]);
    }

    #[test]
    fn dynamic_intersection_is_exact_under_churn() {
        let table = KernelTable::auto();
        let a0: Vec<u32> = (0..2_000).map(|i| i * 3).collect();
        let b0: Vec<u32> = (0..2_000).map(|i| i * 5).collect();
        let mut da = DynamicSet::build(&a0, &params()).unwrap();
        let mut db = DynamicSet::build(&b0, &params()).unwrap();
        let mut ra: BTreeSet<u32> = a0.iter().copied().collect();
        let mut rb: BTreeSet<u32> = b0.iter().copied().collect();
        let mut state = 0xCAFEu64;
        for _ in 0..400 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = (state % 12_000) as u32;
            match state % 4 {
                0 => {
                    da.insert(x).unwrap();
                    ra.insert(x);
                }
                1 => {
                    da.remove(x).unwrap();
                    ra.remove(&x);
                }
                2 => {
                    db.insert(x).unwrap();
                    rb.insert(x);
                }
                _ => {
                    db.remove(x).unwrap();
                    rb.remove(&x);
                }
            }
        }
        let want = ra.intersection(&rb).count();
        assert_eq!(dynamic_intersect_count(&da, &db, &table), want);
        // And after explicit rebuilds the plain path agrees too.
        da.rebuild().unwrap();
        db.rebuild().unwrap();
        assert_eq!(dynamic_intersect_count(&da, &db, &table), want);
        assert_eq!(
            crate::intersect::intersect_count_with(da.base(), db.base(), &table),
            want
        );
    }

    /// Satellite: dynamic sets must get the planner's strategy selection
    /// — a heavily skewed base pair rides the hash probe, not the merge.
    #[test]
    fn skewed_dynamic_bases_use_the_hash_strategy() {
        let _guard = crate::plan::test_knob_lock();
        let table = KernelTable::auto();
        let small: Vec<u32> = (0..100).map(|i| i * 7).collect();
        let big: Vec<u32> = (0..50_000).collect();
        let da = DynamicSet::build(&small, &params()).unwrap();
        let db = DynamicSet::build(&big, &params()).unwrap();
        let before = fesia_obs::metrics().snapshot();
        assert_eq!(dynamic_intersect_count(&da, &db, &table), 100);
        let delta = fesia_obs::metrics().snapshot().delta(&before);
        assert!(
            delta.strategy_hash >= 1 && delta.plan_hash >= 1,
            "skewed dynamic pair should probe: {delta:?}"
        );
    }

    #[test]
    fn dynamic_algebra_is_exact_under_churn() {
        use crate::kernels::visit::SetOp;
        let a0: Vec<u32> = (0..1_500).map(|i| i * 3).collect();
        let b0: Vec<u32> = (0..1_500).map(|i| i * 5).collect();
        let mut da = DynamicSet::build(&a0, &params()).unwrap();
        let mut db = DynamicSet::build(&b0, &params()).unwrap();
        let mut ra: BTreeSet<u32> = a0.iter().copied().collect();
        let mut rb: BTreeSet<u32> = b0.iter().copied().collect();
        let mut state = 0xBEEFu64;
        for _ in 0..300 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = (state % 9_000) as u32;
            match state % 4 {
                0 => {
                    da.insert(x).unwrap();
                    ra.insert(x);
                }
                1 => {
                    da.remove(x).unwrap();
                    ra.remove(&x);
                }
                2 => {
                    db.insert(x).unwrap();
                    rb.insert(x);
                }
                _ => {
                    db.remove(x).unwrap();
                    rb.remove(&x);
                }
            }
        }
        let want_i: Vec<u32> = ra.intersection(&rb).copied().collect();
        let want_u: Vec<u32> = ra.union(&rb).copied().collect();
        let want_d: Vec<u32> = ra.difference(&rb).copied().collect();
        let want_x: Vec<u32> = ra.symmetric_difference(&rb).copied().collect();
        assert_eq!(dynamic_set_op(&da, &db, SetOp::Intersect), want_i);
        assert_eq!(dynamic_set_op(&da, &db, SetOp::Union), want_u);
        assert_eq!(dynamic_set_op(&da, &db, SetOp::Difference), want_d);
        assert_eq!(dynamic_set_op(&da, &db, SetOp::Xor), want_x);
        // Deletions exposing difference/xor elements are the tricky term:
        // force one explicitly.
        let common = *want_i.first().unwrap_or(&0);
        if db.contains(common) && da.contains(common) {
            db.remove(common).unwrap();
            rb.remove(&common);
            let want_d2: Vec<u32> = ra.difference(&rb).copied().collect();
            assert_eq!(dynamic_set_op(&da, &db, SetOp::Difference), want_d2);
        }
    }

    #[test]
    fn domain_violations_are_rejected() {
        let mut s = DynamicSet::build(&[1], &params()).unwrap();
        assert!(s.insert(u32::MAX).is_err());
        assert!(s.contains(1));
    }

    #[test]
    fn empty_dynamics() {
        let table = KernelTable::auto();
        let e = DynamicSet::build(&[], &params()).unwrap();
        let s = DynamicSet::build(&[1, 2, 3], &params()).unwrap();
        assert!(e.is_empty());
        assert_eq!(dynamic_intersect_count(&e, &s, &table), 0);
        assert_eq!(dynamic_intersect_count(&s, &e, &table), 0);
    }
}
