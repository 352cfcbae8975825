//! Sharded epoch/snapshot store with per-shard write logs.
//!
//! Layout: set id `s` lives on shard `s % shards`, at local slot
//! `s / shards` inside that shard's [`SetStore`]. Dense global ids
//! therefore stay dense per shard.
//!
//! Write path (group commit): [`ServeStore::apply_batch`] appends each
//! op to its shard's log, then takes the shard's `applying` lock and
//! drains *everything* pending into one published version. A writer
//! that finds its ops already drained by a concurrent group commit
//! returns immediately — acquiring `applying` proves the draining
//! writer's publish completed first. Writers may wait on other writers
//! of the same shard; they never wait on readers.
//!
//! Rebuilds run off the write path entirely: a publish that leaves a
//! set over the rebuild fraction schedules a task on the shard's pinned
//! executor lane. The task folds the delta *without* holding the shard
//! lock, then compare-and-publishes: if the set's version moved while
//! folding, the fold is discarded and retried on the fresh set.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use fesia_core::{
    DynamicSet, FesiaParams, IntersectPlanner, KernelTable, LiveQuery, SetStore, Snapshot,
};
use fesia_exec::Executor;

/// One mutation against a (global) set id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert `elem` into set `set`.
    Add { set: u32, elem: u32 },
    /// Delete `elem` from set `set`.
    Del { set: u32, elem: u32 },
}

impl WriteOp {
    /// The targeted set id.
    pub fn set(&self) -> u32 {
        match *self {
            WriteOp::Add { set, .. } | WriteOp::Del { set, .. } => set,
        }
    }
}

/// Construction knobs for a [`ServeStore`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Shard count; id `s` lives on shard `s % shards`.
    pub shards: usize,
    /// Build parameters for every set the store creates.
    pub params: FesiaParams,
}

impl ServeConfig {
    /// Layered from the environment: `FESIA_SERVE_SHARDS` when set,
    /// else one shard per executor lane.
    pub fn from_env() -> ServeConfig {
        let shards = fesia_core::params::env::parse_usize("FESIA_SERVE_SHARDS")
            .filter(|&s| s > 0)
            .unwrap_or_else(|| Executor::global().lanes());
        ServeConfig {
            shards,
            params: FesiaParams::auto(),
        }
    }

    /// Override the shard count (clamped to at least 1).
    pub fn with_shards(mut self, shards: usize) -> ServeConfig {
        self.shards = shards.max(1);
        self
    }

    /// Override the build parameters.
    pub fn with_params(mut self, params: FesiaParams) -> ServeConfig {
        self.params = params;
        self
    }
}

/// How many times a rebuild task re-folds after losing the publish race
/// to a concurrent write before giving up (the next write re-schedules).
const REBUILD_ATTEMPTS: usize = 4;

struct Shard {
    store: SetStore,
    /// Pending mutations (global ids). The holder of `applying` removes
    /// ops only once a published version covers them.
    log: Mutex<Vec<WriteOp>>,
    /// Group-commit token: the holder drains the log and publishes one
    /// version covering every drained op.
    applying: Mutex<()>,
    /// Executor lane this shard's rebuild tasks pin to.
    lane: usize,
}

// Neither lock guards state a panic can leave half-written: `log` is
// only appended to or truncated after a publish, and `applying` guards
// the rule that an empty log means every queued op is published, which
// holds because ops stay queued until then. A panicking holder must not
// wedge the shard, so both recover from poisoning.
impl Shard {
    fn applying(&self) -> MutexGuard<'_, ()> {
        self.applying.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn log(&self) -> MutexGuard<'_, Vec<WriteOp>> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A catalog of sets sharded across epoch/snapshot stores, supporting
/// concurrent reads and writes: readers pin per-shard [`Snapshot`]s,
/// writers group-commit through per-shard logs.
pub struct ServeStore {
    shards: Vec<Arc<Shard>>,
    params: FesiaParams,
    /// What reads resolve never-written ids to.
    empty: DynamicSet,
    rebuilds_inflight: Arc<AtomicUsize>,
}

impl ServeStore {
    /// An empty store with `config.shards` shards.
    pub fn new(config: ServeConfig) -> ServeStore {
        let shards = (0..config.shards.max(1))
            .map(|i| {
                Arc::new(Shard {
                    store: SetStore::new(),
                    log: Mutex::new(Vec::new()),
                    applying: Mutex::new(()),
                    lane: i,
                })
            })
            .collect();
        let empty = DynamicSet::build(&[], &config.params).expect("empty set always builds");
        ServeStore {
            shards,
            params: config.params,
            empty,
            rebuilds_inflight: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The shard count.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The build parameters every created set uses.
    pub fn params(&self) -> FesiaParams {
        self.params
    }

    fn shard_of(&self, id: u32) -> usize {
        id as usize % self.shards.len()
    }

    fn local_of(&self, id: u32) -> u32 {
        id / self.shards.len() as u32
    }

    /// Bulk-load one set, replacing any previous contents. `elems` need
    /// not be sorted or duplicate-free. Ordering against concurrent
    /// [`apply_batch`](Self::apply_batch) calls on the same id is
    /// unspecified (loads happen before traffic in practice).
    pub fn seed(&self, id: u32, elems: &[u32]) {
        let mut sorted = elems.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let set = DynamicSet::build(&sorted, &self.params).expect("seed elements in range");
        let shard = &self.shards[self.shard_of(id)];
        let lid = self.local_of(id);
        let _a = shard.applying();
        shard.store.update(|_, txn| txn.push((lid, Some(set))));
    }

    /// Apply one mutation; returns once a published version covers it.
    pub fn apply(&self, op: WriteOp) {
        self.apply_batch(&[op]);
    }

    /// Apply a batch of mutations; returns once published versions cover
    /// every op. Ops for the same shard land in one version together
    /// (plus whatever a concurrent group commit folded in); a batch that
    /// spans shards publishes per shard.
    pub fn apply_batch(&self, ops: &[WriteOp]) {
        if ops.is_empty() {
            return;
        }
        let m = fesia_obs::metrics();
        let t0 = fesia_obs::now_cycles();
        let mut touched = vec![false; self.shards.len()];
        for op in ops {
            let idx = self.shard_of(op.set());
            self.shards[idx].log().push(*op);
            touched[idx] = true;
        }
        for (idx, hit) in touched.into_iter().enumerate() {
            if hit {
                self.drain_shard(idx);
            }
        }
        for _ in ops {
            m.serve_writes.inc();
        }
        m.serve_write_cycles
            .record(fesia_obs::now_cycles().wrapping_sub(t0));
    }

    /// Group-commit one shard's pending log into a single published
    /// version, then schedule rebuilds for any set whose delta crossed
    /// the rebuild fraction.
    fn drain_shard(&self, idx: usize) {
        let shard = &self.shards[idx];
        let nshards = self.shards.len() as u32;
        let params = self.params;
        let mut touched_lids: Vec<u32> = Vec::new();
        {
            let _a = shard.applying();
            // Copy, not take: if the commit panics before publishing, the
            // ops stay queued for the next writer. Replaying a prefix that
            // did publish is harmless, as each element ends at its last op.
            let pending = shard.log().clone();
            if pending.is_empty() {
                // A concurrent group commit published our ops.
                return;
            }
            shard.store.update(|cur, txn| {
                #[cfg(test)]
                if tests::PANIC_IN_COMMIT.with(|p| p.replace(false)) {
                    panic!("injected group-commit panic");
                }
                let mut work: Vec<(u32, DynamicSet)> = Vec::new();
                for op in &pending {
                    let lid = op.set() / nshards;
                    let at = match work.iter().position(|(l, _)| *l == lid) {
                        Some(at) => at,
                        None => {
                            let set = cur.get(lid).map(|r| r.set().clone()).unwrap_or_else(|| {
                                DynamicSet::build(&[], &params).expect("empty set always builds")
                            });
                            work.push((lid, set));
                            work.len() - 1
                        }
                    };
                    // Out-of-range elements were rejected at the protocol
                    // boundary; a direct caller's invalid op is a no-op.
                    let _ = match *op {
                        WriteOp::Add { elem, .. } => work[at].1.insert_deferred(elem),
                        WriteOp::Del { elem, .. } => work[at].1.remove_deferred(elem),
                    };
                }
                for (lid, set) in work {
                    touched_lids.push(lid);
                    txn.push((lid, Some(set)));
                }
            });
            // Only the `applying` holder removes ops, and writers append,
            // so the published ops are still the log's first entries.
            shard.log().drain(..pending.len());
        }
        // `applying` is released before scheduling: on a zero-worker
        // executor the task runs inline and takes the lock itself.
        let snap = shard.store.pin();
        for &lid in &touched_lids {
            if snap.get(lid).is_some_and(|r| r.set().needs_rebuild()) {
                self.schedule_rebuild(idx, lid);
            }
        }
    }

    /// Queue an off-write-path rebuild of one set on the shard's pinned
    /// executor lane. The fold runs without the shard lock; publication
    /// is a compare-and-publish against the set's version, retried a few
    /// times if concurrent writes keep landing (giving up is safe — the
    /// next write's post-publish check re-schedules).
    fn schedule_rebuild(&self, shard_idx: usize, lid: u32) {
        let shard = Arc::clone(&self.shards[shard_idx]);
        let inflight = Arc::clone(&self.rebuilds_inflight);
        inflight.fetch_add(1, Ordering::SeqCst);
        Executor::global().spawn_pinned(shard.lane, move || {
            let _done = InflightGuard(inflight);
            for _ in 0..REBUILD_ATTEMPTS {
                let (seed, seen) = {
                    let snap = shard.store.pin();
                    match snap.get(lid) {
                        Some(r) if r.set().needs_rebuild() => (r.set().clone(), r.version()),
                        _ => return, // already folded (or deleted)
                    }
                };
                let folded = match seed.rebuilt() {
                    Ok(folded) => folded,
                    Err(e) => {
                        eprintln!("fesia-serve: warning: set rebuild failed: {e:?}");
                        return;
                    }
                };
                let _a = shard.applying();
                let unchanged = {
                    let snap = shard.store.pin();
                    snap.get(lid).map(|r| r.version()) == Some(seen)
                };
                if unchanged {
                    shard.store.update(|_, txn| txn.push((lid, Some(folded))));
                    fesia_obs::metrics().serve_rebuilds.inc();
                    return;
                }
                // Writes landed mid-fold; retry against the fresh set.
            }
        });
    }

    /// Wait until every scheduled rebuild has finished. Benches call
    /// this before sampling counters; the serving path never needs it.
    pub fn quiesce(&self) {
        while self.rebuilds_inflight.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
    }

    /// Pin one snapshot per shard. The view resolves never-written ids
    /// to the empty set, so every read is total.
    pub fn view(&self) -> ServeView<'_> {
        ServeView {
            snaps: self.shards.iter().map(|s| s.store.pin()).collect(),
            store: self,
        }
    }

    /// Run one timed read: pins a view, runs `f`, records
    /// `serve_reads` / `serve_read_cycles` (pin to response).
    pub fn read<T>(&self, f: impl FnOnce(&ServeView<'_>) -> T) -> T {
        let m = fesia_obs::metrics();
        let t0 = fesia_obs::now_cycles();
        let view = self.view();
        let out = f(&view);
        drop(view);
        m.serve_reads.inc();
        m.serve_read_cycles
            .record(fesia_obs::now_cycles().wrapping_sub(t0));
        out
    }
}

/// Decrements the inflight-rebuild counter even if the fold panics (the
/// executor catches panics; a leak here would hang `quiesce`).
struct InflightGuard(Arc<AtomicUsize>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A consistent-per-shard read view: one pinned [`Snapshot`] per shard.
/// Sets resolved through the same view never change underneath it, no
/// matter how many versions writers publish meanwhile.
pub struct ServeView<'a> {
    snaps: Vec<Snapshot<'a>>,
    store: &'a ServeStore,
}

impl ServeView<'_> {
    /// Resolve one global id (never-written ids become the empty set).
    pub fn resolve(&self, id: u32) -> &DynamicSet {
        let shard = self.store.shard_of(id);
        match self.snaps[shard].get(self.store.local_of(id)) {
            Some(r) => r.set(),
            None => &self.store.empty,
        }
    }

    /// Per-shard published versions at pin time.
    pub fn versions(&self) -> Vec<u64> {
        self.snaps.iter().map(|s| s.version()).collect()
    }

    /// Live cardinality of one set.
    pub fn card(&self, id: u32) -> usize {
        self.resolve(id).len()
    }

    /// Live membership.
    pub fn contains(&self, id: u32, x: u32) -> bool {
        self.resolve(id).contains(x)
    }

    fn resolve_all(&self, ids: &[u32]) -> Vec<&DynamicSet> {
        ids.iter().map(|&id| self.resolve(id)).collect()
    }

    /// `|A ∩ B|` through the live-set executor ([`LiveQuery`]).
    pub fn count(&self, a: u32, b: u32, table: &KernelTable) -> usize {
        let pair = [self.resolve(a), self.resolve(b)];
        LiveQuery::and(&pair).count(table, &IntersectPlanner::current())
    }

    /// K-way intersection; empty `ids` yields the empty set.
    pub fn kway_intersect(&self, ids: &[u32], table: &KernelTable) -> Vec<u32> {
        LiveQuery::and(&self.resolve_all(ids)).materialize(table, &IntersectPlanner::current())
    }

    /// K-way intersection cardinality; empty `ids` yields 0.
    pub fn kway_count(&self, ids: &[u32], table: &KernelTable) -> usize {
        LiveQuery::and(&self.resolve_all(ids)).count(table, &IntersectPlanner::current())
    }

    /// K-way union; empty `ids` yields the empty set.
    pub fn kway_union(&self, ids: &[u32]) -> Vec<u32> {
        LiveQuery::or(&self.resolve_all(ids))
            .materialize(fesia_core::default_table(), &IntersectPlanner::current())
    }

    /// `(⋂ must) ∩ (⋃ should) \ (⋃ must_not)` ([`LiveQuery::Boolean`]).
    pub fn boolean(
        &self,
        must: &[u32],
        should: &[u32],
        must_not: &[u32],
        table: &KernelTable,
    ) -> Vec<u32> {
        let [must, should, must_not] = [must, should, must_not].map(|ids| self.resolve_all(ids));
        let query = LiveQuery::Boolean {
            must: &must,
            should: &should,
            must_not: &must_not,
        };
        query.materialize(table, &IntersectPlanner::current())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::BTreeSet;

    thread_local! {
        /// Makes this thread's next group commit panic inside its update,
        /// after it has read the pending ops and before it publishes.
        pub(super) static PANIC_IN_COMMIT: Cell<bool> = const { Cell::new(false) };
    }

    fn store(shards: usize) -> ServeStore {
        ServeStore::new(ServeConfig::from_env().with_shards(shards))
    }

    #[test]
    fn writes_become_visible_and_deletes_stick() {
        let s = store(3);
        let table = KernelTable::auto();
        for x in [5u32, 9, 14, 200] {
            s.apply(WriteOp::Add { set: 7, elem: x });
        }
        s.apply(WriteOp::Add { set: 11, elem: 9 });
        s.apply(WriteOp::Add { set: 11, elem: 14 });
        s.apply(WriteOp::Del { set: 7, elem: 9 });
        let v = s.view();
        assert_eq!(v.card(7), 3);
        assert!(!v.contains(7, 9));
        assert_eq!(v.count(7, 11, &table), 1); // {14}
        assert_eq!(v.kway_intersect(&[7, 11], &table), vec![14]);
    }

    #[test]
    fn never_written_ids_read_as_empty() {
        let s = store(2);
        let table = KernelTable::auto();
        let v = s.view();
        assert_eq!(v.card(42), 0);
        assert_eq!(v.count(42, 43, &table), 0);
        assert!(v.kway_union(&[40, 41]).is_empty());
        assert!(v.boolean(&[], &[40], &[], &table).is_empty());
    }

    #[test]
    fn seed_replaces_previous_contents() {
        let s = store(2);
        s.apply(WriteOp::Add { set: 4, elem: 1 });
        s.seed(4, &[10, 30, 20, 20]);
        let v = s.view();
        assert_eq!(v.card(4), 3);
        assert!(!v.contains(4, 1));
        assert!(v.contains(4, 20));
    }

    #[test]
    fn a_pinned_view_ignores_later_writes() {
        let s = store(2);
        s.apply(WriteOp::Add { set: 3, elem: 8 });
        let old = s.view();
        s.apply(WriteOp::Add { set: 3, elem: 9 });
        assert_eq!(old.card(3), 1);
        assert_eq!(s.view().card(3), 2);
    }

    #[test]
    fn churn_matches_a_btreeset_oracle_across_shard_counts() {
        let table = KernelTable::auto();
        for shards in [1usize, 2, 5] {
            let s = store(shards);
            let mut oracle: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); 6];
            // Deterministic mixed stream over 6 sets.
            let mut state = 0x9e3779b97f4a7c15u64;
            for _ in 0..4000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let id = ((state >> 33) % 6) as u32;
                let elem = ((state >> 7) % 512) as u32;
                if state.is_multiple_of(5) {
                    s.apply(WriteOp::Del { set: id, elem });
                    oracle[id as usize].remove(&elem);
                } else {
                    s.apply(WriteOp::Add { set: id, elem });
                    oracle[id as usize].insert(elem);
                }
            }
            s.quiesce();
            let v = s.view();
            for id in 0..6u32 {
                assert_eq!(
                    v.card(id),
                    oracle[id as usize].len(),
                    "shards={shards} id={id}"
                );
            }
            let want: Vec<u32> = oracle[0].intersection(&oracle[1]).copied().collect();
            assert_eq!(v.kway_intersect(&[0, 1], &table), want, "shards={shards}");
            let wantb: Vec<u32> = oracle[2]
                .intersection(&oracle[3])
                .filter(|x| oracle[4].contains(x) || oracle[5].contains(x))
                .copied()
                .collect();
            assert_eq!(
                v.boolean(&[2, 3], &[4, 5], &[], &table),
                wantb,
                "shards={shards}"
            );
        }
    }

    #[test]
    fn a_panicking_lock_holder_does_not_wedge_the_shard() {
        let s = store(2);
        let table = KernelTable::auto();
        let mut oracle: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); 4];
        let mut write = |s: &ServeStore, set: u32, elem: u32| {
            s.apply(WriteOp::Add { set, elem });
            oracle[set as usize].insert(elem);
        };
        for x in 0..20 {
            write(&s, x % 4, x);
        }
        for shard in &s.shards {
            std::thread::scope(|sc| {
                let applying = sc.spawn(|| {
                    let _g = shard.applying.lock().unwrap();
                    panic!("poison the applying lock");
                });
                assert!(applying.join().is_err());
                let log = sc.spawn(|| {
                    let _g = shard.log.lock().unwrap();
                    panic!("poison the log lock");
                });
                assert!(log.join().is_err());
            });
            assert!(shard.applying.is_poisoned() && shard.log.is_poisoned());
        }
        for x in 20..60 {
            write(&s, x % 4, x);
        }
        s.apply(WriteOp::Del { set: 1, elem: 5 });
        oracle[1].remove(&5);
        s.seed(3, &[7, 3]);
        oracle[3] = [3, 7].into();
        s.quiesce();
        let v = s.view();
        for id in 0..4u32 {
            let want: Vec<u32> = oracle[id as usize].iter().copied().collect();
            assert_eq!(v.card(id), want.len(), "id={id}");
            assert_eq!(v.kway_intersect(&[id, id], &table), want, "id={id}");
        }
    }

    #[test]
    fn ops_of_a_panicked_group_commit_are_not_lost() {
        let s = store(1);
        let table = KernelTable::auto();
        s.apply(WriteOp::Add { set: 0, elem: 1 });
        // Writer A has queued its op and not yet reached its drain.
        s.shards[0].log().push(WriteOp::Add { set: 0, elem: 2 });
        // Writer B's group commit picks up A's op with its own, then
        // panics before publishing either.
        std::thread::scope(|sc| {
            let b = sc.spawn(|| {
                PANIC_IN_COMMIT.with(|p| p.set(true));
                s.apply(WriteOp::Add { set: 0, elem: 3 });
            });
            assert!(b.join().is_err());
        });
        assert!(s.shards[0].applying.is_poisoned());
        assert_eq!(s.view().kway_intersect(&[0, 0], &table), vec![1]);
        // A's drain finds its op still queued and publishes it, rather
        // than reading an empty log as proof of publication.
        s.drain_shard(0);
        s.quiesce();
        assert!(s.shards[0].log().is_empty());
        assert_eq!(s.view().kway_intersect(&[0, 0], &table), vec![1, 2, 3]);
        s.apply(WriteOp::Del { set: 0, elem: 1 });
        assert_eq!(s.view().kway_intersect(&[0, 0], &table), vec![2, 3]);
    }

    #[test]
    fn rebuilds_fold_deltas_off_the_write_path() {
        let folds_before = fesia_obs::metrics().serve_rebuilds.get();
        let s = store(2);
        s.seed(0, &(0..256).collect::<Vec<_>>());
        // The rebuild threshold floors at 64 pending ops; exceed it.
        for x in 300..400 {
            s.apply(WriteOp::Add { set: 0, elem: x });
        }
        s.quiesce();
        let v = s.view();
        assert_eq!(v.card(0), 256 + 100);
        // A scheduled rebuild folded the delta back under the floor (it
        // need not be zero: ops landing after the last fold stay
        // deferred until they outgrow the threshold again).
        assert!(fesia_obs::metrics().serve_rebuilds.get() > folds_before);
        assert!(
            v.resolve(0).delta_len() <= 64,
            "delta {}",
            v.resolve(0).delta_len()
        );
    }
}
