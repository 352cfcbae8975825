//! Cross-checks of the always-on `fesia-obs` runtime metrics against
//! independently computed ground truth.
//!
//! The metrics registry is process-global, so these tests serialize on a
//! local mutex: each test's snapshot-delta window must not observe
//! another test's events. (Other test *binaries* are separate processes
//! with separate registries, so only this file needs the lock.)

use fesia_core::{
    batch_count, prune_params, set_prune_params, FesiaParams, PruneParams, SegmentedSet,
};
use fesia_exec::Executor;
use fesia_obs::metrics;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serialize_tests() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// The survivor-segment counter (published by the pruned dispatch)
/// must equal the offline diagnostic `stats::survivor_segments`, for
/// both equal-size and folded bitmap pairs.
#[test]
fn survivor_counter_matches_offline_diagnostic() {
    let _guard = serialize_tests();
    let p = FesiaParams::auto();
    let cases = [
        // Equal bitmap sizes.
        (gen_sorted(4_000, 11, 60_000), gen_sorted(4_000, 13, 60_000)),
        // Very different sizes -> folded bitmaps.
        (
            gen_sorted(150, 17, 800_000),
            gen_sorted(40_000, 19, 800_000),
        ),
    ];
    let saved = prune_params();
    for (av, bv) in &cases {
        let a = SegmentedSet::build(av, &p).unwrap();
        let b = SegmentedSet::build(bv, &p).unwrap();
        let want_survivors = fesia_core::survivor_segments(&a, &b);
        // Force the pruned dispatch (the interleaved form never
        // materializes its survivor list, so it cannot count them). A
        // non-zero AND lane implies both summary blocks are populated, so
        // pruning drops no survivor.
        set_prune_params(PruneParams::default().with_forced(Some(true)));
        let before = metrics().snapshot();
        let count = fesia_core::intersect_count(&a, &b);
        let d = metrics().snapshot().delta(&before);
        assert_eq!(d.intersect_pruned, 1);
        assert_eq!(d.intersect_interleaved, 0);
        assert_eq!(d.survivor_segments as usize, want_survivors);
        // True matches always survive the filter.
        assert!(want_survivors >= count, "{want_survivors} < {count}");
    }
    set_prune_params(saved);
}

/// Over a batch, every pair takes exactly one strategy: the two strategy
/// counters must sum to the number of pairs, and the batch rollups must
/// match the submitted workload.
#[test]
fn strategy_counters_sum_to_batch_pairs() {
    let _guard = serialize_tests();
    let p = FesiaParams::auto();
    // A size mix straddling the skew threshold (plus an empty set) so
    // both strategies are exercised in one batch.
    let lists = [
        gen_sorted(4_000, 21, 80_000),
        gen_sorted(4_000, 23, 80_000),
        gen_sorted(100, 25, 80_000),
        Vec::new(),
    ];
    let sets: Vec<SegmentedSet> = lists
        .iter()
        .map(|l| SegmentedSet::build(l, &p).unwrap())
        .collect();
    let pairs: Vec<(u32, u32)> = (0..4u32)
        .flat_map(|i| (0..4u32).map(move |j| (i, j)))
        .collect();
    let before = metrics().snapshot();
    let counts = batch_count(&sets, &pairs);
    let d = metrics().snapshot().delta(&before);
    assert_eq!(counts.len(), pairs.len());
    assert_eq!(d.batch_calls, 1);
    assert_eq!(d.batch_pairs, pairs.len() as u64);
    assert_eq!(
        d.strategy_merge + d.strategy_hash,
        pairs.len() as u64,
        "every adaptive intersection takes exactly one strategy"
    );
    assert!(
        d.strategy_merge > 0,
        "size mix should route some pairs to merge"
    );
    assert!(
        d.strategy_hash > 0,
        "skewed/empty pairs should route to hash"
    );
}

/// The executor's chunk-claim counter must equal the number of chunk
/// closures actually invoked, and region submissions must land in the
/// right counter (pooled vs inline).
#[test]
fn chunk_claims_match_chunks_executed() {
    let _guard = serialize_tests();
    let exec = Executor::new(4);

    // Pooled region: chunks counted exactly once each.
    let executed = AtomicU64::new(0);
    let before = metrics().snapshot();
    exec.for_each_chunk(10_000, 1, 0, |_r| {
        executed.fetch_add(1, Ordering::Relaxed);
    });
    let want = executed.load(Ordering::Relaxed);
    assert!(want > 1, "must actually split into chunks");
    // Workers publish their claim totals after the region completes, so
    // the submitter can observe the delta slightly before the last
    // worker's batched add lands; poll briefly.
    let deadline = Instant::now() + Duration::from_secs(10);
    let d = loop {
        let d = metrics().snapshot().delta(&before);
        if d.exec_chunks_claimed == want || Instant::now() > deadline {
            break d;
        }
        std::thread::yield_now();
    };
    assert_eq!(d.exec_chunks_claimed, want);
    assert_eq!(d.exec_regions, 1);
    assert_eq!(d.exec_regions_inline, 0);
    assert!(d.exec_chunks_per_claim.total() > 0);

    // Inline region (participant cap of 1): no pool involvement, no
    // chunk claims.
    let before = metrics().snapshot();
    exec.for_each_chunk(10, 1, 1, |_r| {});
    let d = metrics().snapshot().delta(&before);
    assert_eq!(d.exec_regions_inline, 1);
    assert_eq!(d.exec_regions, 0);
    assert_eq!(d.exec_chunks_claimed, 0);
}

/// The interleaved/pruned dispatch counters track the process-wide
/// prune knob.
#[test]
fn dispatch_counters_follow_prune_knob() {
    let _guard = serialize_tests();
    let p = FesiaParams::auto();
    let a = SegmentedSet::build(&gen_sorted(2_000, 31, 40_000), &p).unwrap();
    let b = SegmentedSet::build(&gen_sorted(2_000, 37, 40_000), &p).unwrap();
    let saved = prune_params();

    set_prune_params(PruneParams::default().with_forced(Some(false)));
    let before = metrics().snapshot();
    let want = fesia_core::intersect_count(&a, &b);
    let d = metrics().snapshot().delta(&before);
    assert_eq!(d.intersect_interleaved, 1);
    assert_eq!(d.intersect_pruned, 0);

    set_prune_params(PruneParams::default().with_forced(Some(true)));
    let before = metrics().snapshot();
    assert_eq!(fesia_core::intersect_count(&a, &b), want);
    let d = metrics().snapshot().delta(&before);
    assert_eq!(d.intersect_pruned, 1);
    assert_eq!(d.intersect_interleaved, 0);
    // The pruned dispatch reuses this thread's scratch buffer from the
    // second call on.
    let before = metrics().snapshot();
    assert_eq!(fesia_core::intersect_count(&a, &b), want);
    let d = metrics().snapshot().delta(&before);
    assert_eq!(d.scratch_reused, 1);

    set_prune_params(saved);
}

/// Every k-way intersection of k >= 3 sets records exactly one strategy
/// counter — the strategy that ran — and the planner picks each one on
/// the shape built for it: a skewed triple probes, three dense tiered
/// sets take the container walk, and comparable untiered sets scan.
#[test]
fn kway_strategy_counters_account_for_every_call() {
    let _guard = serialize_tests();
    let p = FesiaParams::auto();
    let table = fesia_core::KernelTable::auto();
    let build = |v: &[u32]| SegmentedSet::build(v, &p).unwrap();
    let small = build(&gen_sorted(300, 41, 1 << 17));
    let dense: Vec<SegmentedSet> = (0..3)
        .map(|k| build(&gen_sorted(60_000, 43 + k, 1 << 17)))
        .collect();
    let plain: Vec<SegmentedSet> = (0..3)
        .map(|k| build(&gen_sorted(2_000, 51 + k, 40_000)))
        .collect();
    let cases: [(&str, Vec<&SegmentedSet>); 3] = [
        ("probe", vec![&dense[0], &small, &dense[1]]),
        ("container", dense.iter().collect()),
        ("scan", plain.iter().collect()),
    ];
    for (want, sets) in &cases {
        let planner = fesia_core::IntersectPlanner::current();
        let sums: Vec<fesia_core::SetSummary> =
            sets.iter().map(|s| fesia_core::SetSummary::of(s)).collect();
        assert_eq!(planner.plan_kway(&sums).strategy.name(), *want);
        let before = metrics().snapshot();
        let n = fesia_core::kway_count_with(sets, &table);
        let got = fesia_core::kway_intersect_with(sets, &table);
        let d = metrics().snapshot().delta(&before);
        assert_eq!(got.len(), n, "{want}");
        assert_eq!(d.kway_calls, 2, "{want}");
        assert_eq!(
            d.kway_probe + d.kway_container + d.kway_scan,
            d.kway_calls,
            "{want}: one strategy per k-way call"
        );
        let ran = match *want {
            "probe" => d.kway_probe,
            "container" => d.kway_container,
            _ => d.kway_scan,
        };
        assert_eq!(ran, 2, "{want}");
    }
    // Two-set k-way calls take the pair planner and record no k-way
    // strategy.
    let before = metrics().snapshot();
    fesia_core::kway_count_with(&[&plain[0], &plain[1]], &table);
    let d = metrics().snapshot().delta(&before);
    assert_eq!(d.kway_calls, 1);
    assert_eq!(d.kway_probe + d.kway_container + d.kway_scan, 0);
}
