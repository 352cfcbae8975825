//! Cross-checks of the always-on `fesia-obs` runtime metrics against
//! independently computed ground truth.
//!
//! The metrics registry is process-global, so these tests serialize on a
//! local mutex: each test's snapshot-delta window must not observe
//! another test's events. (Other test *binaries* are separate processes
//! with separate registries, so only this file needs the lock.)

use fesia_core::{
    batch_count, default_table, intersect_count_breakdown, FesiaParams, IntersectPlan,
    IntersectPlanner, SegmentedSet, SetSummary, Threshold,
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

/// The survivors the per-phase breakdown counts (it materializes phase
/// 1's list, as perfbench's `core.survivor_segments` reads it) must
/// equal the offline diagnostic `stats::survivor_segments`, for both
/// equal-size and folded bitmap pairs; the planned count of the same
/// plain pair publishes one plain decision and one interleaved run.
#[test]
fn survivor_counter_matches_offline_diagnostic() {
    let _guard = serialize_tests();
    let p = FesiaParams::auto();
    // 4x the bitmap density on one side folds a pair of comparable
    // lengths, which the planner still merges.
    let dense = p.with_bits_per_element(p.bits_per_element * 4.0);
    let cases = [
        // Equal bitmap sizes.
        (
            gen_sorted(4_000, 11, 60_000),
            gen_sorted(4_000, 13, 60_000),
            p,
        ),
        // Different bitmap sizes -> folded bitmaps.
        (
            gen_sorted(3_000, 17, 200_000),
            gen_sorted(4_000, 19, 200_000),
            dense,
        ),
    ];
    for (i, (av, bv, pb)) in cases.iter().enumerate() {
        let a = SegmentedSet::build(av, &p).unwrap();
        let b = SegmentedSet::build(bv, pb).unwrap();
        assert_eq!(a.bitmap_bits() != b.bitmap_bits(), i == 1, "case {i} folds");
        let plan = IntersectPlanner::current().plan_pair(&SetSummary::of(&a), &SetSummary::of(&b));
        assert_eq!(plan, IntersectPlan::Plain, "case {i}");
        let want_survivors = fesia_core::survivor_segments(&a, &b);
        let before = metrics().snapshot();
        let count = fesia_core::auto_count(&a, &b);
        let d = metrics().snapshot().delta(&before);
        assert_eq!((d.plan_plain, d.intersect_interleaved), (1, 1), "case {i}");
        let bd = intersect_count_breakdown(&a, &b, default_table());
        assert_eq!(bd.count, count, "case {i}");
        assert_eq!(bd.matched_segments, want_survivors, "case {i}");
        // True matches always survive the filter.
        assert!(want_survivors >= count, "{want_survivors} < {count}");
    }
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

/// Every materializing set operation records exactly one `plan_*` and
/// one `strategy_*` increment. Union, difference and xor take their one
/// execution: a tier
/// walk (`plan_container`, merge) when difference's A or both sides of a
/// union or xor carry a container tier, else the probe (`plan_hash`).
#[test]
fn set_ops_record_one_plan_and_one_strategy_each() {
    use fesia_core::SetOp;
    let _guard = serialize_tests();
    let p = FesiaParams::auto();
    let build = |v: &[u32]| SegmentedSet::build(v, &p).unwrap();
    let tiered = [
        build(&gen_sorted(20_000, 61, 1 << 20)),
        build(&gen_sorted(20_000, 63, 1 << 20)),
    ];
    let untiered = [
        build(&gen_sorted(3_000, 65, 1 << 20)),
        build(&gen_sorted(3_000, 67, 1 << 20)),
    ];
    assert!(tiered.iter().all(|s| s.container().is_some()));
    assert!(untiered.iter().all(|s| s.container().is_none()));
    let cases = [
        ("tiered", &tiered[0], &tiered[1]),
        ("untiered", &untiered[0], &untiered[1]),
        ("tiered-untiered", &tiered[0], &untiered[0]),
        ("untiered-tiered", &untiered[0], &tiered[0]),
    ];
    let plans = |d: &fesia_obs::MetricsSnapshot| {
        d.plan_plain
            + d.plan_pipelined
            + d.plan_pruned
            + d.plan_hash
            + d.plan_gallop
            + d.plan_compressed
            + d.plan_container
    };
    let ops = [
        SetOp::Intersect,
        SetOp::Union,
        SetOp::Difference,
        SetOp::Xor,
    ];
    let planner = IntersectPlanner::current();
    for (label, a, b) in cases {
        for op in ops {
            let how = format!("case={label} op={}", op.name());
            let before = metrics().snapshot();
            fesia_core::set_op_planned(a, b, op, &planner);
            let d = metrics().snapshot().delta(&before);
            assert_eq!(plans(&d), 1, "{how}: one plan_* increment");
            assert_eq!(d.strategy_hash + d.strategy_merge, 1, "{how}: one strategy");
            let walk = match op {
                SetOp::Intersect => false,
                SetOp::Difference => a.container().is_some(),
                SetOp::Union | SetOp::Xor => a.container().is_some() && b.container().is_some(),
            };
            if op != SetOp::Intersect {
                let (plan, merge) = if walk {
                    (d.plan_container, d.strategy_merge)
                } else {
                    (d.plan_hash, d.strategy_hash)
                };
                assert_eq!((plan, merge), (1, 1), "{how}: tier walk={walk}");
            }
            let before = metrics().snapshot();
            fesia_core::set_op_count(a, b, op);
            let d = metrics().snapshot().delta(&before);
            assert_eq!(plans(&d), 1, "case={label} op={} count", op.name());
            assert_eq!(d.strategy_hash + d.strategy_merge, 1, "case={label} count");
        }
    }
}

/// A similarity join moves the four `simjoin_*` counters by exactly its
/// `SimjoinStats`, so the obs deltas satisfy the cascade's identity
/// `candidates = bitmap_rejected + early_exited + verified`, and the XOR
/// filter's rejects are visible in them.
#[test]
fn simjoin_counters_satisfy_the_identity() {
    let _guard = serialize_tests();
    let mut rng = fesia_datagen::SplitMix64::new(0x51A9);
    // Two clusters sharing a 90% core (their pairs qualify) and two
    // sharing a 50% core (candidates the XOR filter rejects).
    let mut lists = fesia_datagen::join_corpus_clustered(2, 5, 0, 200, 0.9, 200_000, &mut rng);
    lists.extend(fesia_datagen::join_corpus_clustered(
        2, 8, 10, 200, 0.5, 200_000, &mut rng,
    ));
    for th in [Threshold::Overlap(170), Threshold::Jaccard(0.8)] {
        let before = metrics().snapshot();
        let r = fesia_core::self_join(&lists, th, 2);
        let d = metrics().snapshot().delta(&before);
        let s = r.stats;
        assert_eq!(
            (
                d.simjoin_candidates,
                d.simjoin_bitmap_rejected,
                d.simjoin_early_exited,
                d.simjoin_verified
            ),
            (s.candidates, s.bitmap_rejected, s.early_exited, s.verified),
            "{th:?}: obs deltas equal the join's stats"
        );
        assert_eq!(
            d.simjoin_candidates,
            d.simjoin_bitmap_rejected + d.simjoin_early_exited + d.simjoin_verified,
            "{th:?}: counter identity"
        );
        assert!(d.simjoin_bitmap_rejected > 0, "{th:?}: the filter fired");
        assert_eq!(
            d.simjoin_verified,
            2 * 10,
            "{th:?}: two clusters of C(5, 2)"
        );
    }
}
