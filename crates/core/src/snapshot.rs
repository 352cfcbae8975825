//! Epoch-pinned snapshots over a concurrently-updatable set store
//! (DESIGN.md §5j).
//!
//! The paper's structures are built offline and queried immutably; the
//! serving layer needs the opposite: sets that mutate under live
//! traffic while queries **never block on writers**. The contract here
//! is the classic epoch-based-reclamation (EBR) split:
//!
//! - **Readers** call [`SetStore::pin`], which claims an epoch slot and
//!   hands back a [`Snapshot`] — an immutable view of every set at one
//!   published version. The read entry points (pair count, k-way,
//!   algebra, boolean) resolve ids through the snapshot and run the one
//!   live-set executor, [`crate::LiveQuery`]; the simjoin re-encodes
//!   sets with deltas and runs the filter cascade.
//!   Dropping the snapshot releases the slot. Pinning is wait-free in
//!   the common case (one CAS per pin); the only stall is slot
//!   exhaustion (more than [`EPOCH_SLOTS`] concurrent snapshots), which
//!   spin-yields and reports its worst case in the
//!   `snapshot_pin_stall_max_cycles` gauge.
//! - **Writers** build a new [`StoreState`] (cheap: each catalog slot
//!   holds its [`DynamicSet`] inline, but a set is two `Arc`s — base and
//!   delta — so copying the catalog copies refcounts, never encodings
//!   or delta buffers; only touched slots are replaced), publish it
//!   with one atomic pointer swap, and push the
//!   old state onto a limbo list stamped with the pre-bump epoch. A
//!   retired state is freed only once every active slot has pinned past
//!   that epoch, so a reader that resolved the old pointer can never
//!   observe freed memory.
//!
//! Why the stale-pin race is safe: a reader loads the global epoch
//! *before* claiming its slot, so the slot value it stores can lag the
//! global. That is fine — the stored epoch is always ≤ the global at
//! every later instant, which makes the reclamation bound
//! (`min(active slots) > retire epoch`) strictly conservative. A reader
//! whose slot epoch is > a state's retire epoch must have pinned after
//! the bump that followed the swap, so its pointer load (which happens
//! after the pin, SeqCst on both sides) saw the new state.

use crate::dynamic::{DynamicSet, LiveQuery};
use crate::intersect::default_table;
use crate::kernels::visit::SetOp;
use crate::kernels::KernelTable;
use crate::params::{FesiaParams, SimjoinParams};
use crate::plan::IntersectPlanner;
use crate::set::SegmentedSet;
use crate::simjoin::{self, SimjoinResult, Threshold};
use std::borrow::Borrow;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

// ---------------------------------------------------------------------------
// Epoch domain
// ---------------------------------------------------------------------------

/// Number of concurrently pinned snapshots before pinning spin-waits.
pub const EPOCH_SLOTS: usize = 64;

/// Sentinel marking an unoccupied epoch slot.
const FREE: u64 = u64::MAX;

/// The reader-registration half of EBR: a global epoch counter plus a
/// fixed array of per-reader slots. Bounded and allocation-free so a
/// pin costs one CAS on the read path.
struct EpochDomain {
    global: AtomicU64,
    slots: [AtomicU64; EPOCH_SLOTS],
}

impl EpochDomain {
    const fn new() -> EpochDomain {
        #[allow(clippy::declare_interior_mutable_const)] // array-init seed only
        const SLOT: AtomicU64 = AtomicU64::new(FREE);
        EpochDomain {
            global: AtomicU64::new(0),
            slots: [SLOT; EPOCH_SLOTS],
        }
    }

    /// Claim a slot stamped with the current global epoch; returns its
    /// index. Spin-yields when all slots are occupied and reports the
    /// worst-case wait in `snapshot_pin_stall_max_cycles`.
    fn pin(&self) -> usize {
        let mut waited_from: Option<u64> = None;
        loop {
            let epoch = self.global.load(Ordering::SeqCst);
            for i in 0..EPOCH_SLOTS {
                if self.slots[i]
                    .compare_exchange(FREE, epoch, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
                {
                    if let Some(start) = waited_from {
                        fesia_obs::metrics()
                            .snapshot_pin_stall_max_cycles
                            .record_max(fesia_obs::now_cycles().wrapping_sub(start));
                    }
                    return i;
                }
            }
            waited_from.get_or_insert_with(fesia_obs::now_cycles);
            std::thread::yield_now();
        }
    }

    fn unpin(&self, slot: usize) {
        self.slots[slot].store(FREE, Ordering::SeqCst);
    }

    /// The oldest epoch any active reader could have pinned at
    /// (`u64::MAX` when no reader is active).
    fn min_active(&self) -> u64 {
        let mut min = u64::MAX;
        for s in &self.slots {
            min = min.min(s.load(Ordering::SeqCst));
        }
        min
    }
}

// ---------------------------------------------------------------------------
// Store state and versions
// ---------------------------------------------------------------------------

/// One published version of one set, held inline in its catalog slot so
/// resolving an id costs one load before the set's own encoding
/// (DESIGN.md "Resolution latency"). Successive store states that did
/// not touch an id hold clones of its version, which share the base and
/// delta storage, so publishing a write to one set never copies the
/// others.
#[derive(Clone)]
pub struct SetVersion {
    set: DynamicSet,
    version: u64,
}

impl SetVersion {
    /// The set at this version.
    pub fn set(&self) -> &DynamicSet {
        &self.set
    }

    /// The store version that published this set version.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// An immutable published catalog: every live set at one instant.
pub struct StoreState {
    version: u64,
    sets: Vec<Option<SetVersion>>,
}

impl Drop for StoreState {
    /// Release the sets highest id first. Stores are mostly filled in id
    /// order, so that frees the newest allocations first; the allocator
    /// keeps the first few small blocks a thread frees cached, and
    /// blocks cached at the top of the heap keep a dropped store's pages
    /// mapped for the next build instead of returning them to the OS to
    /// be faulted in again (DESIGN.md §5k measures the difference).
    fn drop(&mut self) {
        while self.sets.pop().is_some() {}
    }
}

impl StoreState {
    /// The monotonically increasing publish counter.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The catalog capacity (slot count, including empty ids).
    pub fn num_slots(&self) -> usize {
        self.sets.len()
    }

    #[inline]
    fn slot(&self, id: u32) -> Option<&SetVersion> {
        self.sets.get(id as usize).and_then(|s| s.as_ref())
    }

    /// Resolve one id in this published state. Write transactions use
    /// this for read-modify-write: clone the current [`DynamicSet`],
    /// mutate the clone, publish it.
    pub fn get(&self, id: u32) -> Option<SetRef<'_>> {
        self.slot(id).map(|v| SetRef { v })
    }
}

/// A resolved reference to one set inside a pinned [`Snapshot`]. Valid
/// only while the snapshot is alive — which the borrow checker enforces,
/// and the epoch machinery turns into memory safety.
#[derive(Clone, Copy)]
pub struct SetRef<'s> {
    v: &'s SetVersion,
}

impl<'s> SetRef<'s> {
    /// The underlying dynamic set (base + delta).
    pub fn set(&self) -> &'s DynamicSet {
        &self.v.set
    }

    /// The store version that published this set.
    pub fn version(&self) -> u64 {
        self.v.version
    }

    /// Live cardinality.
    pub fn len(&self) -> usize {
        self.v.set.len()
    }

    /// True when no element is live.
    pub fn is_empty(&self) -> bool {
        self.v.set.is_empty()
    }

    /// Live membership.
    pub fn contains(&self, x: u32) -> bool {
        self.v.set.contains(x)
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// A concurrently updatable catalog of [`DynamicSet`]s with epoch-based
/// reclamation. Readers [`SetStore::pin`] a [`Snapshot`]; writers
/// [`SetStore::update`] and publish with an atomic pointer swap.
pub struct SetStore {
    epochs: EpochDomain,
    state: AtomicPtr<StoreState>,
    /// Retired states awaiting quiescence, stamped with their retire
    /// epoch (the global value *before* the post-swap bump).
    limbo: Mutex<Vec<(u64, *mut StoreState)>>,
    /// Serializes publishers; readers never take it.
    write: Mutex<()>,
}

// SAFETY: the raw pointers are owned boxes managed by the EBR protocol
// above — `state` is only freed through `limbo`, and limbo entries are
// only freed once `min_active()` proves no reader can still hold them.
unsafe impl Send for SetStore {}
unsafe impl Sync for SetStore {}

impl Default for SetStore {
    fn default() -> Self {
        SetStore::new()
    }
}

impl SetStore {
    /// An empty store (version 0, no sets).
    pub fn new() -> SetStore {
        SetStore {
            epochs: EpochDomain::new(),
            state: AtomicPtr::new(Box::into_raw(Box::new(StoreState {
                version: 0,
                sets: Vec::new(),
            }))),
            limbo: Mutex::new(Vec::new()),
            write: Mutex::new(()),
        }
    }

    /// A store seeded with `sets` at ids `0..n` (version 1).
    pub fn from_dynamic(sets: Vec<DynamicSet>) -> SetStore {
        let store = SetStore::new();
        store.update(|_, txn| {
            for (id, s) in sets.into_iter().enumerate() {
                txn.push((id as u32, Some(s)));
            }
        });
        store
    }

    /// A store seeded with immutable sets (wrapped as delta-free
    /// [`DynamicSet`]s sharing the encodings, no copies).
    pub fn from_segmented(sets: Vec<SegmentedSet>, params: FesiaParams) -> SetStore {
        SetStore::from_dynamic(
            sets.into_iter()
                .map(|s| DynamicSet::from_base(Arc::new(s), params))
                .collect(),
        )
    }

    /// Pin the current state into a [`Snapshot`]. Wait-free unless more
    /// than [`EPOCH_SLOTS`] snapshots are simultaneously live.
    pub fn pin(&self) -> Snapshot<'_> {
        fesia_obs::metrics().snapshot_pins.inc();
        let slot = self.epochs.pin();
        // SAFETY: the pointer was published by `update` and cannot be
        // freed while our slot holds an epoch ≤ its retire epoch (see
        // the module docs for the stale-pin argument).
        let state = unsafe { &*self.state.load(Ordering::SeqCst) };
        Snapshot {
            state,
            store: self,
            slot,
        }
    }

    /// Apply a write transaction and publish the result as one new
    /// version. `f` sees the current state and records `(id, new_set)`
    /// entries — `None` deletes the id. Readers pinned before the
    /// publish keep the old state; later pins see the new one.
    ///
    /// Returns the published version. Writers serialize on an internal
    /// lock; readers never take it. If `f` panics nothing is published,
    /// and later updates proceed.
    pub fn update<F>(&self, f: F) -> u64
    where
        F: FnOnce(&StoreState, &mut Vec<(u32, Option<DynamicSet>)>),
    {
        // `f` runs before anything is swapped, so a panic inside it leaves
        // the state as it was: the lock guards `()` and recovers.
        let _w = self.write.lock().unwrap_or_else(PoisonError::into_inner);
        // SAFETY: holding the write lock, `state` cannot be swapped or
        // retired by anyone else.
        let cur = unsafe { &*self.state.load(Ordering::SeqCst) };
        let mut txn: Vec<(u32, Option<DynamicSet>)> = Vec::new();
        f(cur, &mut txn);
        let version = cur.version + 1;
        let len = txn
            .iter()
            .map(|&(id, _)| id as usize + 1)
            .fold(cur.sets.len(), usize::max);
        let mut sets = Vec::with_capacity(len);
        sets.extend_from_slice(&cur.sets); // refcount copies only
        sets.resize(len, None);
        for (id, set) in txn {
            sets[id as usize] = set.map(|s| SetVersion { set: s, version });
        }
        let next = Box::into_raw(Box::new(StoreState { version, sets }));
        let old = self.state.swap(next, Ordering::SeqCst);
        let retire_epoch = self.epochs.global.load(Ordering::SeqCst);
        self.limbo.lock().unwrap().push((retire_epoch, old));
        self.epochs.global.fetch_add(1, Ordering::SeqCst);
        self.collect();
        fesia_obs::metrics().snapshot_publishes.inc();
        version
    }

    /// Free limbo states no active reader can still hold.
    fn collect(&self) {
        let min = self.epochs.min_active();
        let mut limbo = self.limbo.lock().unwrap();
        limbo.retain(|&(epoch, ptr)| {
            if epoch < min {
                // SAFETY: every reader that could have loaded this
                // state pinned an epoch ≤ its retire epoch; min_active
                // being past it proves none remain.
                drop(unsafe { Box::from_raw(ptr) });
                fesia_obs::metrics().snapshot_retired.inc();
                false
            } else {
                true
            }
        });
    }

    /// Number of retired states still awaiting quiescence (tests).
    pub fn limbo_len(&self) -> usize {
        self.limbo.lock().unwrap().len()
    }
}

impl Drop for SetStore {
    fn drop(&mut self) {
        // No readers can exist (`&mut self`); free everything.
        // SAFETY: sole owner of both the live state and the limbo list.
        unsafe {
            drop(Box::from_raw(self.state.load(Ordering::SeqCst)));
            for (_, ptr) in self.limbo.get_mut().unwrap().drain(..) {
                drop(Box::from_raw(ptr));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot: the read entry points
// ---------------------------------------------------------------------------

/// An epoch-pinned, immutable view of the whole store. `Sync`, so one
/// pinned snapshot can be shared across executor workers for the
/// parallel entry points (the submitter's pin outlives the region).
/// Dropping it releases the epoch slot.
pub struct Snapshot<'a> {
    state: &'a StoreState,
    store: &'a SetStore,
    slot: usize,
}

impl Drop for Snapshot<'_> {
    fn drop(&mut self) {
        self.store.epochs.unpin(self.slot);
    }
}

/// A set materialized for an API that needs `&SegmentedSet`: borrowed
/// straight from the base when the delta is empty, rebuilt otherwise.
enum ResolvedSet<'s> {
    Borrowed(&'s SegmentedSet),
    Owned(Box<SegmentedSet>),
}

impl Borrow<SegmentedSet> for ResolvedSet<'_> {
    fn borrow(&self) -> &SegmentedSet {
        match self {
            ResolvedSet::Borrowed(s) => s,
            ResolvedSet::Owned(s) => s,
        }
    }
}

impl<'a> Snapshot<'a> {
    /// The published store version this snapshot observes.
    pub fn version(&self) -> u64 {
        self.state.version
    }

    /// Catalog slot count (including empty ids).
    pub fn num_slots(&self) -> usize {
        self.state.num_slots()
    }

    /// Resolve one set id; `None` for ids never published or deleted.
    #[inline]
    pub fn get(&self, id: u32) -> Option<SetRef<'_>> {
        self.state.get(id)
    }

    /// Hint that `id` will be resolved soon: loads its catalog slot and
    /// prefetches the hot lines of its base set's struct. Follow it a
    /// few resolutions later with [`SegmentedSet::prefetch_head`] to
    /// hint the arrays too (the triangle loop's two-stage pipeline).
    /// Unknown ids are no-ops.
    #[inline]
    pub fn prefetch(&self, id: u32) {
        if let Some(v) = self.state.slot(id) {
            v.set.base().prefetch_fields();
        }
    }

    fn resolve(&self, id: u32) -> Option<&DynamicSet> {
        self.state.slot(id).map(|v| &v.set)
    }

    fn resolve_all(&self, ids: &[u32]) -> Option<Vec<&DynamicSet>> {
        ids.iter().map(|&id| self.resolve(id)).collect()
    }

    /// `|A ∩ B|` for two ids through the live-set executor
    /// ([`LiveQuery`]); `None` if either id is unresolved.
    pub fn count(&self, a: u32, b: u32, table: &KernelTable) -> Option<usize> {
        let pair = [self.resolve(a)?, self.resolve(b)?];
        Some(LiveQuery::and(&pair).count(table, &IntersectPlanner::current()))
    }

    /// Materialize `op(A, B)` (sorted ascending); `None` if either id
    /// is unresolved.
    pub fn set_op(&self, a: u32, b: u32, op: SetOp) -> Option<Vec<u32>> {
        let pair = [self.resolve(a)?, self.resolve(b)?];
        Some(LiveQuery::pair(op, &pair).materialize(default_table(), &IntersectPlanner::current()))
    }

    /// K-way intersection of `ids`, materialized (sorted ascending);
    /// `None` if any id is unresolved.
    ///
    /// # Panics
    /// Panics if `ids` is empty (matches [`crate::kway_intersect`]).
    pub fn kway_intersect(&self, ids: &[u32], table: &KernelTable) -> Option<Vec<u32>> {
        assert!(!ids.is_empty(), "k-way intersection of zero sets");
        let sets = self.resolve_all(ids)?;
        Some(LiveQuery::and(&sets).materialize(table, &IntersectPlanner::current()))
    }

    /// `|∩ ids|`; see [`Snapshot::kway_intersect`].
    pub fn kway_count(&self, ids: &[u32], table: &KernelTable) -> Option<usize> {
        assert!(!ids.is_empty(), "k-way intersection of zero sets");
        let sets = self.resolve_all(ids)?;
        Some(LiveQuery::and(&sets).count(table, &IntersectPlanner::current()))
    }

    /// K-way union of `ids`, materialized (sorted ascending); `None` if
    /// any id is unresolved.
    ///
    /// # Panics
    /// Panics if `ids` is empty (matches [`crate::kway_union`]).
    pub fn kway_union(&self, ids: &[u32]) -> Option<Vec<u32>> {
        assert!(!ids.is_empty(), "k-way union of zero sets");
        let sets = self.resolve_all(ids)?;
        Some(LiveQuery::or(&sets).materialize(default_table(), &IntersectPlanner::current()))
    }

    /// Boolean query over set ids: every element in all `must` sets AND
    /// (when `should` is non-empty) at least one `should` set, minus
    /// every `must_not` set ([`LiveQuery::Boolean`]). A query with
    /// neither `must` nor `should` matches nothing. `None` if any
    /// referenced id is unresolved.
    pub fn boolean(
        &self,
        must: &[u32],
        should: &[u32],
        must_not: &[u32],
        table: &KernelTable,
    ) -> Option<Vec<u32>> {
        let [must, should, must_not] = [must, should, must_not].map(|ids| self.resolve_all(ids));
        let query = LiveQuery::Boolean {
            must: &must?,
            should: &should?,
            must_not: &must_not?,
        };
        Some(query.materialize(table, &IntersectPlanner::current()))
    }

    /// Exact self-similarity join over every live set in the snapshot,
    /// through the §5i filter cascade. Delta-free sets join zero-copy
    /// (the cascade borrows their bases); sets with live deltas are
    /// re-encoded for the join. Returns the qualifying pairs as *set
    /// ids* (empty slots are skipped, ids preserved via the mapping).
    pub fn self_join(
        &self,
        threshold: Threshold,
        table: &KernelTable,
        sp: &SimjoinParams,
        threads: usize,
    ) -> SimjoinResult {
        let mut ids: Vec<u32> = Vec::new();
        let mut sets: Vec<ResolvedSet<'_>> = Vec::new();
        let mut lists: Vec<Vec<u32>> = Vec::new();
        for (id, slot) in self.state.sets.iter().enumerate() {
            let Some(v) = slot else { continue };
            ids.push(id as u32);
            let elems = v.set.to_sorted_vec();
            if v.set.delta_len() == 0 {
                sets.push(ResolvedSet::Borrowed(v.set.base()));
            } else {
                let params = v.set.params();
                sets.push(ResolvedSet::Owned(Box::new(
                    SegmentedSet::build(&elems, &params).expect("live elements are valid"),
                )));
            }
            lists.push(elems);
        }
        let planner = IntersectPlanner::current();
        let mut res =
            simjoin::self_join_with(&sets, &lists, threshold, table, &planner, sp, threads);
        for p in &mut res.pairs {
            *p = (ids[p.0 as usize], ids[p.1 as usize]);
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::KernelTable;
    use std::collections::BTreeSet;

    fn table() -> &'static KernelTable {
        crate::intersect::default_table()
    }

    fn store_with(lists: &[&[u32]]) -> SetStore {
        let p = FesiaParams::auto();
        SetStore::from_segmented(
            lists
                .iter()
                .map(|l| SegmentedSet::build(l, &p).unwrap())
                .collect(),
            p,
        )
    }

    #[test]
    fn snapshots_resolve_published_sets() {
        let store = store_with(&[&[1, 2, 3], &[2, 3, 4]]);
        let snap = store.pin();
        assert_eq!(snap.version(), 1);
        assert_eq!(snap.get(0).unwrap().len(), 3);
        assert!(snap.get(0).unwrap().contains(3));
        assert!(snap.get(2).is_none());
        assert_eq!(snap.count(0, 1, table()), Some(2));
        assert_eq!(snap.count(0, 9, table()), None);
    }

    #[test]
    fn readers_keep_their_version_across_publishes() {
        let store = store_with(&[&[1, 2, 3], &[2, 3, 4]]);
        let old = store.pin();
        store.update(|cur, txn| {
            let mut s = cur.get(0).unwrap().set().clone();
            s.insert(4).unwrap();
            txn.push((0, Some(s)));
        });
        let new = store.pin();
        assert_eq!(old.count(0, 1, table()), Some(2));
        assert_eq!(new.count(0, 1, table()), Some(3));
        assert_eq!(old.version() + 1, new.version());
        // The old state is in limbo until `old` unpins and a publish
        // collects it.
        assert!(store.limbo_len() >= 1);
        drop(old);
        drop(new);
        store.update(|_, _| {});
        assert_eq!(store.limbo_len(), 0); // no reader left, all collected
    }

    /// Insert `x` into `id` as one publish.
    fn publish_insert(store: &SetStore, id: u32, x: u32) {
        store.update(|cur, txn| {
            let mut s = cur.get(id).unwrap().set().clone();
            s.insert_deferred(x).unwrap();
            txn.push((id, Some(s)));
        });
    }

    /// Whether two resolutions of one id share their base encoding and
    /// their delta storage (slots hold sets inline, so the `DynamicSet`
    /// addresses differ between states; the storage must not).
    fn shares_storage(a: SetRef<'_>, b: SetRef<'_>) -> bool {
        let (a, b) = (a.set(), b.set());
        Arc::ptr_eq(&a.base_arc(), &b.base_arc())
            && std::ptr::eq(a.added().as_ptr(), b.added().as_ptr())
            && std::ptr::eq(a.deleted().as_ptr(), b.deleted().as_ptr())
    }

    #[test]
    fn untouched_sets_share_their_version_across_publishes() {
        let store = store_with(&[&[1, 2, 3], &[2, 3, 4]]);
        // Give id 0 a delta, so there is delta storage to share.
        publish_insert(&store, 0, 50);
        let before = store.pin();
        publish_insert(&store, 1, 99);
        let after = store.pin();
        assert_eq!(before.get(0).unwrap().version(), 2);
        assert_eq!(after.get(0).unwrap().version(), 2); // untouched
        assert_eq!(after.get(1).unwrap().version(), 3);
        assert_eq!(after.get(0).unwrap().set().added(), &[50]);
        assert!(shares_storage(
            before.get(0).unwrap(),
            after.get(0).unwrap()
        ));
        assert!(!shares_storage(
            before.get(1).unwrap(),
            after.get(1).unwrap()
        ));
    }

    #[test]
    fn publishes_to_one_id_copy_no_other_storage() {
        let lists: Vec<Vec<u32>> = (0..8u32)
            .map(|i| (0..100).map(|x| x * 8 + i).collect())
            .collect();
        let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        let store = store_with(&refs);
        // Every other id carries a delta too.
        for id in 1..8u32 {
            publish_insert(&store, id, 10_000 + id);
        }
        let before = store.pin();
        for k in 0..100u32 {
            publish_insert(&store, 0, 20_000 + k);
        }
        let after = store.pin();
        assert_eq!(after.version(), before.version() + 100);
        assert_eq!(after.get(0).unwrap().set().added().len(), 100);
        for id in 1..8u32 {
            let (b, a) = (before.get(id).unwrap(), after.get(id).unwrap());
            assert_eq!(a.version(), b.version(), "id {id}");
            assert!(shares_storage(b, a), "id {id} copied its storage");
        }
    }

    #[test]
    fn prefetch_hints_accept_any_id() {
        let store = store_with(&[&[], &[1, 2, 3]]);
        store.update(|_, txn| txn.push((3, None)));
        let snap = store.pin();
        for id in [0, 1, 2, 3, 1 << 20, u32::MAX] {
            snap.prefetch(id);
            if let Some(r) = snap.get(id) {
                r.set().base().prefetch_head();
            }
        }
        assert_eq!(snap.count(0, 1, table()), Some(0));
    }

    #[test]
    fn deletes_and_out_of_range_ids_resolve_to_none() {
        let store = store_with(&[&[1, 2], &[2, 3]]);
        store.update(|_, txn| txn.push((0, None)));
        let snap = store.pin();
        assert!(snap.get(0).is_none());
        assert!(snap.get(1).is_some());
        assert_eq!(snap.kway_count(&[0, 1], table()), None);
    }

    #[test]
    fn dynamic_kway_and_boolean_match_a_reference() {
        let lists: Vec<Vec<u32>> = vec![
            (0..600).map(|i| i * 3).collect(),
            (0..600).map(|i| i * 2).collect(),
            (0..600).map(|i| i * 5).collect(),
        ];
        let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        let store = store_with(&refs);
        // Mutate set 1: delete some evens, add some odds.
        store.update(|cur, txn| {
            let mut s = cur.get(1).unwrap().set().clone();
            for x in [0u32, 6, 12, 600] {
                s.remove(x).unwrap();
            }
            for x in [15u32, 45, 999] {
                s.insert(x).unwrap();
            }
            txn.push((1, Some(s)));
        });
        let snap = store.pin();
        let live: Vec<BTreeSet<u32>> = (0..3)
            .map(|id| {
                snap.get(id)
                    .unwrap()
                    .set()
                    .to_sorted_vec()
                    .into_iter()
                    .collect()
            })
            .collect();
        let expect_and: Vec<u32> = live[0]
            .intersection(&live[1])
            .copied()
            .filter(|x| live[2].contains(x))
            .collect();
        assert_eq!(
            snap.kway_intersect(&[0, 1, 2], table()).unwrap(),
            expect_and
        );
        assert_eq!(
            snap.kway_count(&[0, 1, 2], table()).unwrap(),
            expect_and.len()
        );
        let mut expect_or: Vec<u32> = live[0].union(&live[1]).copied().collect();
        expect_or.retain(|x| !live[2].contains(x));
        assert_eq!(
            snap.boolean(&[], &[0, 1], &[2], table()).unwrap(),
            expect_or
        );
        // must + should + must_not
        let expect: Vec<u32> = live[0]
            .iter()
            .copied()
            .filter(|x| live[1].contains(x))
            .filter(|x| !live[2].contains(x))
            .collect();
        assert_eq!(snap.boolean(&[0], &[1], &[2], table()).unwrap(), expect);
        assert_eq!(
            snap.boolean(&[], &[], &[0], table()).unwrap(),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn batch_count_resolves_every_pair_in_one_snapshot() {
        let store = store_with(&[&[1, 2, 3], &[2, 3, 4], &[3, 4, 5]]);
        let snap = store.pin();
        let counts: Option<Vec<usize>> = [(0, 1), (1, 2), (0, 2)]
            .iter()
            .map(|&(a, b)| snap.count(a, b, table()))
            .collect();
        assert_eq!(counts.unwrap(), vec![2, 2, 1]);
    }

    #[test]
    fn snapshot_self_join_reports_set_ids() {
        let a: Vec<u32> = (0..200).collect();
        let b: Vec<u32> = (0..200).map(|i| i + 10).collect(); // overlap 190
        let c: Vec<u32> = (1000..1200).collect(); // disjoint
        let store = store_with(&[&a, &b, &c]);
        store.update(|_, txn| txn.push((1, None))); // delete id 1...
        store.update(|_cur, txn| {
            // ...and republish it with a delta so the join re-encodes.
            let p = FesiaParams::auto();
            let base = SegmentedSet::build(&b, &p).unwrap();
            let mut s = DynamicSet::from_base(Arc::new(base), p);
            s.insert_deferred(5000).unwrap();
            txn.push((1, Some(s)));
        });
        let snap = store.pin();
        let res = snap.self_join(
            Threshold::Overlap(100),
            table(),
            &SimjoinParams::default(),
            1,
        );
        assert_eq!(res.pairs, vec![(0, 1)]);
    }

    #[test]
    fn pin_survives_slot_exhaustion() {
        let store = store_with(&[&[1, 2, 3]]);
        let snaps: Vec<Snapshot<'_>> = (0..EPOCH_SLOTS).map(|_| store.pin()).collect();
        // All slots taken; a pin from another thread must wait until
        // one frees, not deadlock or corrupt.
        std::thread::scope(|s| {
            let h = s.spawn(|| store.pin().count(0, 0, table()));
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(snaps);
            assert_eq!(h.join().unwrap(), Some(3));
        });
    }
}
