//! Snapshot isolation under concurrent write churn.
//!
//! A writer thread churns one set with adds, deletes, and (via a tiny
//! rebuild fraction) constant rebuild traffic, following a schedule
//! where the intersection count against a fixed probe set *uniquely
//! identifies* the published version: version `v` counts exactly
//! `base + v`. Reader threads continuously intersect through pinned
//! views and assert every observed count maps to a version inside the
//! window of publishes adjacent to their read — which rules out torn
//! reads (a count that is no version's count), time travel (a version
//! older than the window), and reads of unpublished state (newer than
//! the window). The whole episode repeats on three shapes the planner
//! sends to the hash probe, the plain merge and the container walk
//! (asserted before and after the churn), so each planner-driven
//! execution shape crosses the dynamic read path.
//!
//! Overlap is enforced, not left to the scheduler: at a few checkpoints
//! in the middle of the churn the writer waits until every reader has
//! finished a read since the previous checkpoint.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use std::ops::Range;

use fesia_core::{IntersectPlan, IntersectPlanner, KernelTable, SetSummary};
use fesia_serve::{ServeConfig, ServeStore, WriteOp};

const DATA: u32 = 7;
const PROBE: u32 = 8;
const ROUNDS: u64 = 200;
const READERS: usize = 3;
/// Mid-churn checkpoints; each reader completes at least one read per
/// checkpoint, plus its final read after the churn.
const CHECKPOINTS: u64 = 5;

/// Counts a reader thread's exit — on return or on a panicking assert —
/// so the writer never waits at a checkpoint for a reader that is gone.
struct ExitGuard<'a>(&'a AtomicUsize);

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

/// One writer-vs-readers episode. DATA and PROBE carry `data_pad` and
/// `probe_pad` on top of the churned values: padding far above them
/// shifts the pair's shape without touching the count identity, and
/// padding shared by both shifts the count by a constant.
fn episode(table: &KernelTable, data_pad: Range<u32>, probe_pad: Range<u32>, plan: IntersectPlan) {
    let store = ServeStore::new(ServeConfig::from_env().with_shards(2));
    let mut data: Vec<u32> = (0..ROUNDS as u32).map(|i| 2 * i).collect();
    data.extend(data_pad.clone());
    let mut probe: Vec<u32> = (0..4 * ROUNDS as u32 + 2).collect();
    probe.extend(probe_pad.clone());
    store.seed(DATA, &data);
    store.seed(PROBE, &probe);
    let shared = probe_pad.filter(|x| data_pad.contains(x)).count() as u64;
    let base = ROUNDS + shared; // |DATA ∩ PROBE| at version 0
    let planned = |store: &ServeStore| {
        let v = store.view();
        let (d, p) = (v.resolve(DATA).base(), v.resolve(PROBE).base());
        IntersectPlanner::current().plan_pair(&SetSummary::of(d), &SetSummary::of(p))
    };
    assert_eq!(planned(&store), plan, "before the churn");

    // Publishes completed so far, bumped by the writer *after* each
    // batch's version is live. A reader observing state of version `u`
    // therefore sees `published` ∈ {u-1, u} at pin time, giving the
    // assertion window below.
    let published = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    // Reads completed per reader, and readers that have exited.
    let completed: Vec<AtomicU64> = (0..READERS).map(|_| AtomicU64::new(0)).collect();
    let exited = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for completed in &completed {
            let store = &store;
            let published = &published;
            let done = &done;
            let exited = &exited;
            scope.spawn(move || {
                let _exit = ExitGuard(exited);
                let mut reads = 0u64;
                loop {
                    let stop = done.load(Ordering::Acquire);
                    let v0 = published.load(Ordering::Acquire);
                    let c = match reads % 3 {
                        0 => store.read(|v| v.count(DATA, PROBE, table)),
                        1 => store.read(|v| v.kway_count(&[DATA, PROBE], table)),
                        _ => store.read(|v| v.boolean(&[DATA, PROBE], &[], &[], table).len()),
                    } as u64;
                    let v1 = published.load(Ordering::Acquire);
                    assert!(
                        c >= base && c <= base + ROUNDS,
                        "count {c} is no published version's count"
                    );
                    let u = c - base;
                    assert!(
                        v0 <= u && u <= v1 + 1,
                        "torn read: count {c} implies version {u}, \
                         but the read ran inside publish window [{v0}, {}]",
                        v1 + 1
                    );
                    reads += 1;
                    completed.store(reads, Ordering::Release);
                    if stop {
                        break;
                    }
                }
                // Every reader overlapped the churn, not just its tail.
                assert!(reads >= 5, "reader starved: only {reads} reads");
            });
        }

        // Writer: each batch deletes one remaining even and adds two
        // fresh odds — all inside the probe's range — so the count
        // advances by exactly one per published batch.
        let mut marks = [0u64; READERS];
        let step = ROUNDS / (CHECKPOINTS + 1);
        for v in 0..ROUNDS as u32 {
            let at = u64::from(v);
            if at > 0 && at % step == 0 && at / step <= CHECKPOINTS {
                // Checkpoint: every reader finishes a read mid-churn.
                for (mark, reader) in marks.iter_mut().zip(&completed) {
                    while reader.load(Ordering::Acquire) <= *mark
                        && exited.load(Ordering::Acquire) == 0
                    {
                        std::thread::yield_now();
                    }
                    *mark = reader.load(Ordering::Acquire);
                }
            }
            store.apply_batch(&[
                WriteOp::Del {
                    set: DATA,
                    elem: 2 * v,
                },
                WriteOp::Add {
                    set: DATA,
                    elem: 4 * v + 1,
                },
                WriteOp::Add {
                    set: DATA,
                    elem: 4 * v + 3,
                },
            ]);
            published.fetch_add(1, Ordering::Release);
        }
        done.store(true, Ordering::Release);
    });

    store.quiesce();
    assert_eq!(planned(&store), plan, "after the churn");
    let v = store.view();
    assert_eq!(v.card(DATA), 2 * ROUNDS as usize + data_pad.len());
    assert_eq!(v.count(DATA, PROBE, table) as u64, base + ROUNDS);
}

#[test]
fn reads_stay_isolated_under_churn_for_every_explicit_plan() {
    let table = KernelTable::auto();
    let prev = fesia_core::dynamic_params();
    // Tiny fraction (the 64-op floor still applies) → rebuilds fire
    // throughout the episode instead of only at the end.
    fesia_core::set_dynamic_params(prev.with_rebuild_fraction(1e-9));
    // DATA grows from 200 to 400 churned values. A 3000-value PROBE pad
    // keeps it under a quarter of PROBE (skew: the probe); a 600-value
    // DATA pad keeps the pair comparable and untiered (the merge); and
    // 20000 shared consecutive values give both sides dense tiers past
    // the container floor (the walk).
    let far = 1u32 << 20;
    episode(&table, 0..0, far..far + 3_000, IntersectPlan::HashProbe);
    episode(&table, far..far + 600, 0..0, IntersectPlan::Plain);
    episode(
        &table,
        far..far + 20_000,
        far..far + 20_000,
        IntersectPlan::Container,
    );
    fesia_core::set_dynamic_params(prev);
}
