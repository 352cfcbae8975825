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
//! Every query over live sets runs through one executor, [`LiveQuery`]:
//! the planner-driven paths answer it over the bases, and one delta stage
//! corrects that answer exactly from the (small) delta lists (DESIGN.md
//! §5l). When a delta outgrows [`DynamicSet::REBUILD_FRACTION`] of the
//! base (floor 64 ops), the set is re-encoded.
//!
//! The base and the delta lists are each held behind an [`Arc`], so
//! cloning a `DynamicSet` copies two refcounts and nothing else. A
//! snapshot store keeps every set inline in its catalog slot and clones
//! the whole catalog on each publish (DESIGN.md "Resolution latency"),
//! so that clone must never copy delta buffers. The delta is copied on
//! write instead: the first [`DynamicSet::insert`] or
//! [`DynamicSet::remove`] on a shared delta copies it once.

use crate::algebra::set_op_planned;
use crate::error::BuildError;
use crate::intersect::auto_count_planned;
use crate::kernels::visit::{union_visit, EmitVisitor, SetOp};
use crate::kernels::KernelTable;
use crate::kway::{kway_count_planned, kway_intersect_planned, kway_union};
use crate::params::FesiaParams;
use crate::plan::IntersectPlanner;
use crate::set::SegmentedSet;
use std::sync::Arc;

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
    /// Delta size (adds + deletes, relative to the base) that triggers
    /// a rebuild, with an absolute floor of 64 ops so tiny sets are not
    /// rebuilt per insert. Smaller fractions would keep [`LiveQuery`]'s
    /// delta stage cheaper at the price of more frequent re-encodes.
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
    /// [`crate::plan::IntersectPlanner`] reads (length, bitmap size and
    /// the block density derived from them belong to the base), so a
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

    /// Whether the pending delta has outgrown
    /// [`DynamicSet::REBUILD_FRACTION`] of the base (floor 64 ops).
    pub fn needs_rebuild(&self) -> bool {
        self.delta_len() > self.rebuild_threshold()
    }

    fn rebuild_threshold(&self) -> usize {
        (self.base.len() as f64 * Self::REBUILD_FRACTION).max(64.0) as usize
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

/// A query over live sets: the one executor every read of a
/// [`DynamicSet`] resolves to (DESIGN.md §5l). A **base phase** runs the
/// query once over the bases through the planner-driven paths; one
/// **delta stage** then settles the elements of `T`, the union of every
/// operand's `added` and `deleted` lists. Outside `T` each operand's live
/// membership is its base membership, so with `R` the base answer, the
/// live answer is `(R \ T) ∪ {x ∈ T : pred(live x)}` and the live count
/// `|R| − #{x ∈ T : pred(base x)} + #{x ∈ T : pred(live x)}`.
#[derive(Clone, Copy, Debug)]
pub enum LiveQuery<'q> {
    /// `(⋂ must) ∩ (⋃ should) \ (⋃ must_not)`. An empty `should` adds no
    /// OR clause; a query with neither `must` nor `should` matches
    /// nothing.
    Boolean {
        /// Sets every result is in (AND).
        must: &'q [&'q DynamicSet],
        /// Sets a result is in at least one of (OR).
        should: &'q [&'q DynamicSet],
        /// Sets no result is in (NOT).
        must_not: &'q [&'q DynamicSet],
    },
    /// `A △ B`.
    Xor(&'q [&'q DynamicSet; 2]),
}

impl<'q> LiveQuery<'q> {
    /// `⋂ sets` (nothing for no sets).
    pub fn and(sets: &'q [&'q DynamicSet]) -> LiveQuery<'q> {
        LiveQuery::Boolean {
            must: sets,
            should: &[],
            must_not: &[],
        }
    }

    /// `⋃ sets` (nothing for no sets).
    pub fn or(sets: &'q [&'q DynamicSet]) -> LiveQuery<'q> {
        LiveQuery::Boolean {
            must: &[],
            should: sets,
            must_not: &[],
        }
    }

    /// `op(A, B)` for `pair = [A, B]`.
    pub fn pair(op: SetOp, pair: &'q [&'q DynamicSet; 2]) -> LiveQuery<'q> {
        match op {
            SetOp::Intersect => LiveQuery::and(pair),
            SetOp::Union => LiveQuery::or(pair),
            SetOp::Difference => LiveQuery::Boolean {
                must: &pair[..1],
                should: &[],
                must_not: &pair[1..],
            },
            SetOp::Xor => LiveQuery::Xor(pair),
        }
    }

    /// The live result's cardinality. A pure AND counts its base answer
    /// without materializing it.
    #[inline]
    pub fn count(&self, table: &KernelTable, planner: &IntersectPlanner) -> usize {
        let n = match self.clauses() {
            Some([must, [], []]) => match must {
                [] => return 0,
                [a, b] => auto_count_planned(&a.base, &b.base, table, planner),
                _ => kway_count_planned(&bases(must), table, planner),
            },
            _ => self.base_answer(table, planner).len(),
        };
        if self.operands().all(|s| s.delta.is_none()) {
            return n;
        }
        self.count_deltas(n)
    }

    /// `n = |R|` corrected by the delta stage, out of line so that a count
    /// of delta-free sets inlines to the base count and one check.
    #[inline(never)]
    fn count_deltas(&self, mut n: usize) -> usize {
        self.delta_stage(true, |_, base, live| {
            n += usize::from(live);
            n -= usize::from(base);
        });
        n
    }

    /// The live result, sorted ascending.
    pub fn materialize(&self, table: &KernelTable, planner: &IntersectPlanner) -> Vec<u32> {
        let mut r = self.base_answer(table, planner);
        if self.operands().all(|s| s.delta.is_none()) {
            return r;
        }
        let mut settled = Vec::new();
        self.delta_stage(false, |x, _, live| {
            if live {
                settled.push(x);
            }
        });
        // R \ T: one ascending walk of each delta list over R.
        for mut list in self.operands().flat_map(|s| [s.added(), s.deleted()]) {
            r.retain(|&x| {
                list = &list[list.partition_point(|&y| y < x)..];
                list.first() != Some(&x)
            });
        }
        settled.sort_unstable();
        let mut out = Vec::with_capacity(r.len() + settled.len());
        union_visit(&r, &settled, &mut EmitVisitor(&mut out));
        out
    }

    /// The must, should and must_not clauses; `None` for a xor.
    #[inline]
    fn clauses(&self) -> Option<[&'q [&'q DynamicSet]; 3]> {
        match *self {
            LiveQuery::Boolean {
                must,
                should,
                must_not,
            } => Some([must, should, must_not]),
            LiveQuery::Xor(_) => None,
        }
    }

    /// The operands in the delta stage's order: must, should, must_not.
    #[inline]
    fn operands(&self) -> impl Iterator<Item = &'q DynamicSet> {
        let [must, should, must_not] = match *self {
            LiveQuery::Xor(pair) => [&pair[..], &[], &[]],
            _ => self.clauses().expect("not a xor"),
        };
        must.iter().chain(should).chain(must_not).copied()
    }

    /// The base phase: `R`, sorted ascending.
    fn base_answer(&self, table: &KernelTable, planner: &IntersectPlanner) -> Vec<u32> {
        let [must, should, must_not] = match *self {
            LiveQuery::Xor([a, b]) => return set_op_planned(&a.base, &b.base, SetOp::Xor, planner),
            _ => self.clauses().expect("not a xor"),
        };
        let (mut r, must_not) = match (must, should, must_not) {
            ([], [], _) => return Vec::new(),
            ([], _, _) => (kway_union(&bases(should)), must_not),
            ([a], [], [b, rest @ ..]) => (
                set_op_planned(&a.base, &b.base, SetOp::Difference, planner),
                rest,
            ),
            ([a, b], _, _) => (
                set_op_planned(&a.base, &b.base, SetOp::Intersect, planner),
                must_not,
            ),
            _ => (
                kway_intersect_planned(&bases(must), table, planner),
                must_not,
            ),
        };
        if !must.is_empty() && !should.is_empty() {
            r.retain(|&x| should.iter().any(|s| s.base.contains(x)));
        }
        if !must_not.is_empty() {
            r.retain(|&x| !must_not.iter().any(|s| s.base.contains(x)));
        }
        r
    }

    /// The delta stage: visit each element `x` of `T` once, with whether
    /// the query holds for it in the bases (when `want_base`) and live.
    /// An element is settled at the first operand whose lists hold it,
    /// and that list gives the operand's bits for free.
    fn delta_stage(&self, want_base: bool, mut visit: impl FnMut(u32, bool, bool)) {
        let sets: Vec<&DynamicSet> = self.operands().collect();
        let mut row = Row {
            bits: vec![(None, None); sets.len()],
            sets: &sets,
            owner: 0,
            x: 0,
        };
        let mut earlier: Vec<&[u32]> = Vec::new();
        for (i, s) in sets.iter().enumerate() {
            for (list, added) in [(s.added(), true), (s.deleted(), false)] {
                // The lists of the operands before `i`, walked once as
                // `list` ascends: an element they hold is settled there.
                earlier.clear();
                earlier.extend(sets[..i].iter().flat_map(|o| [o.added(), o.deleted()]));
                for &x in list {
                    // A side its own bit rules out adds nothing, however
                    // often the element is visited.
                    let live = !self.ruled_out(i, added);
                    let base = want_base && !self.ruled_out(i, !added);
                    if !(live || base)
                        || earlier.iter_mut().any(|l| {
                            while l.first().is_some_and(|&y| y < x) {
                                *l = &l[1..];
                            }
                            l.first() == Some(&x)
                        })
                    {
                        continue;
                    }
                    row.bits.fill((None, None));
                    row.bits[i] = (Some(!added), Some(added));
                    (row.owner, row.x) = (i, x);
                    let live = live && self.holds(&mut row, true);
                    let base = base && self.holds(&mut row, false);
                    visit(x, base, live);
                }
            }
        }
    }

    /// Whether operand `i` holding the element (`b`) or not decides the
    /// query false, whatever the other operands hold.
    fn ruled_out(&self, i: usize, b: bool) -> bool {
        match self.clauses() {
            None => false,
            Some([must, _, _]) if i < must.len() => !b,
            Some([must, should, _]) if i < must.len() + should.len() => !b && should.len() == 1,
            Some([must, should, _]) => must.len() + should.len() == 0 || b,
        }
    }

    /// Whether the loaded element satisfies the query live or
    /// (`live == false`) in the bases, working out operands' bits in
    /// order and stopping as soon as the answer is known.
    fn holds(&self, row: &mut Row<'_>, live: bool) -> bool {
        let Some([must, should, _]) = self.clauses() else {
            return row.bit(0, live) != row.bit(1, live);
        };
        let (m, s, k) = (must.len(), should.len(), row.sets.len());
        (0..m).all(|j| row.bit(j, live))
            && (s == 0 || (m..m + s).any(|j| row.bit(j, live)))
            && !(m + s..k).any(|j| row.bit(j, live))
    }
}

fn bases<'s>(sets: &[&'s DynamicSet]) -> Vec<&'s SegmentedSet> {
    sets.iter().map(|s| &*s.base).collect()
}

/// The delta stage's view of one element `x` of `T`, settled at
/// operand `owner`: per operand, its (base, live) membership of `x` as
/// far as it is known. The owner's list gives its bits (`added` is
/// (false, true), `deleted` is (true, false)); any other bit is worked
/// out once, on first use.
struct Row<'a> {
    sets: &'a [&'a DynamicSet],
    bits: Vec<(Option<bool>, Option<bool>)>,
    owner: usize,
    x: u32,
}

impl Row<'_> {
    /// Operand `i`'s membership of `x`, live or in its base. The base
    /// bit is one probe. An operand before the owner lists no `x`, so
    /// its live bit is its base bit; one after it may, and its live bit
    /// checks the list the base bit points at.
    fn bit(&mut self, i: usize, live: bool) -> bool {
        let (s, x, owner) = (self.sets[i], self.x, self.owner);
        let base = *self.bits[i].0.get_or_insert_with(|| s.base.contains(x));
        if !live {
            return base;
        }
        *self.bits[i]
            .1
            .get_or_insert_with(|| match (i < owner, base) {
                (true, _) => base,
                (false, true) => s.deleted().binary_search(&x).is_err(),
                (false, false) => s.added().binary_search(&x).is_ok(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn params() -> FesiaParams {
        FesiaParams::auto()
    }

    fn live_count(a: &DynamicSet, b: &DynamicSet, table: &KernelTable) -> usize {
        LiveQuery::and(&[a, b]).count(table, &IntersectPlanner::current())
    }

    fn live_set_op(a: &DynamicSet, b: &DynamicSet, op: SetOp) -> Vec<u32> {
        let table = crate::intersect::default_table();
        LiveQuery::pair(op, &[a, b]).materialize(table, &IntersectPlanner::current())
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

    /// The rebuild threshold is `max(64, 0.25·|base|)` pending ops: a
    /// delta of exactly the threshold stays, one more op folds.
    #[test]
    fn rebuild_threshold_is_a_quarter_of_the_base_with_a_floor_of_64() {
        for (base_len, threshold) in [(100u32, 64usize), (256, 64), (10_000, 2_500)] {
            let base: Vec<u32> = (0..base_len).map(|i| i * 2).collect();
            let mut s = DynamicSet::build(&base, &params()).unwrap();
            for x in 0..threshold as u32 {
                s.insert_deferred(x * 2 + 1).unwrap();
            }
            assert_eq!(s.delta_len(), threshold);
            assert!(
                !s.needs_rebuild(),
                "base {base_len}: folds at the threshold"
            );
            s.remove_deferred(0).unwrap();
            assert!(
                s.needs_rebuild(),
                "base {base_len}: no fold past the threshold"
            );

            // An inline write past the threshold folds the delta at once.
            let mut s = DynamicSet::build(&base, &params()).unwrap();
            for x in 0..=threshold as u32 {
                s.insert(x * 2 + 1).unwrap();
            }
            assert_eq!(s.delta_len(), 0, "base {base_len}");
            assert_eq!(s.len(), base_len as usize + threshold + 1);
        }
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
        assert_eq!(live_count(&da, &db, &table), want);
        // And after explicit rebuilds the plain path agrees too.
        da.rebuild().unwrap();
        db.rebuild().unwrap();
        assert_eq!(live_count(&da, &db, &table), want);
        assert_eq!(
            crate::intersect::intersect_count_with(da.base(), db.base(), &table),
            want
        );
    }

    /// Satellite: dynamic sets must get the planner's strategy selection
    /// — a heavily skewed base pair rides the hash probe, not the merge.
    #[test]
    fn skewed_dynamic_bases_use_the_hash_strategy() {
        let table = KernelTable::auto();
        let small: Vec<u32> = (0..100).map(|i| i * 7).collect();
        let big: Vec<u32> = (0..50_000).collect();
        let da = DynamicSet::build(&small, &params()).unwrap();
        let db = DynamicSet::build(&big, &params()).unwrap();
        let before = fesia_obs::metrics().snapshot();
        assert_eq!(live_count(&da, &db, &table), 100);
        let delta = fesia_obs::metrics().snapshot().delta(&before);
        assert!(
            delta.strategy_hash >= 1 && delta.plan_hash >= 1,
            "skewed dynamic pair should probe: {delta:?}"
        );
    }

    #[test]
    fn dynamic_algebra_is_exact_under_churn() {
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
        assert_eq!(live_set_op(&da, &db, SetOp::Intersect), want_i);
        assert_eq!(live_set_op(&da, &db, SetOp::Union), want_u);
        assert_eq!(live_set_op(&da, &db, SetOp::Difference), want_d);
        assert_eq!(live_set_op(&da, &db, SetOp::Xor), want_x);
        // Deletions exposing difference/xor elements are the tricky term:
        // force one explicitly.
        let common = *want_i.first().unwrap_or(&0);
        if db.contains(common) && da.contains(common) {
            db.remove(common).unwrap();
            rb.remove(&common);
            let want_d2: Vec<u32> = ra.difference(&rb).copied().collect();
            assert_eq!(live_set_op(&da, &db, SetOp::Difference), want_d2);
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
        assert_eq!(live_count(&e, &s, &table), 0);
        assert_eq!(live_count(&s, &e, &table), 0);
    }
}
