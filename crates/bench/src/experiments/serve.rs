//! `repro serve` — the serving-layer traffic harness (build with
//! `--features serve`).
//!
//! Two phases over one sharded [`ServeStore`]:
//!
//! * **Replay oracle (correctness):** a deterministic single-threaded
//!   mixed stream of mutations and queries runs against both the store
//!   and a `Vec<BTreeSet>` offline replay; every query result must
//!   match exactly (`counts_match`).
//! * **Open-loop traffic (latency):** reader threads fire a
//!   Zipf-popularity query mix (pair counts, k-way, boolean) while a
//!   writer thread mutates at `WRITES_PER_READ` (0.15), fast enough that a
//!   set folds during the phase, so readers race an off-path rebuild.
//!   Latencies come from the `serve_read_cycles` histogram — recorded
//!   on every read, so the p999 is a real tail, not a sample — and the
//!   worst reader stall from the `snapshot_pin_stall_max_cycles`
//!   high-water mark.
//!
//! Writes `BENCH_serve.json` with the gate booleans tier-1 asserts:
//! `counts_match`, `p99_within_budget`, `stall_within_budget`, and the
//! traffic phase's `rebuilds` (gated `> 0`).

use crate::harness::{f2, write_bench_json, Scale, Table};
use fesia_core::KernelTable;
use fesia_datagen::{SplitMix64, Zipf};
use fesia_serve::{ServeConfig, ServeStore, WriteOp};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Worst tolerated p99 read latency, by scale. Log2 histogram buckets
/// over-report by up to 2x and CI hosts are often core-starved, so
/// these are loose by construction; they exist to catch order-of-
/// magnitude regressions (a reader blocked behind a rebuild), not to
/// benchmark the kernels — the stall gate below is the sharp one.
fn p99_budget_ms(scale: Scale) -> f64 {
    match scale {
        Scale::Smoke => 50.0,
        Scale::Standard | Scale::Full => 100.0,
    }
}

/// Readers must never wait on a writer longer than this (the epoch pin
/// is wait-free except for slot exhaustion; 10ms of stall would mean
/// the design's central promise is broken).
const STALL_BUDGET_MS: f64 = 10.0;

/// Writer ops per read in the traffic phase: the smallest rate, in
/// steps of 0.05, at which both smoke and standard scale fold a set
/// during the phase (0.1 folds none; 0.12 is the measured edge at
/// smoke scale, and the replay phase leaves a timing-dependent delta
/// behind, so the rate keeps a margin). `tier1.sh --smoke` gates
/// `rebuilds > 0`.
const WRITES_PER_READ: f64 = 0.15;

pub fn run(scale: Scale) -> String {
    let (num_sets, set_len, replay_ops, reads_per_reader, readers) = match scale {
        Scale::Smoke => (64usize, 1_000usize, 4_000usize, 2_500usize, 2usize),
        Scale::Standard => (256, 4_000, 20_000, 10_000, 3),
        Scale::Full => (512, 8_000, 40_000, 20_000, 4),
    };
    // An open-loop harness that oversubscribes the CPU measures the OS
    // scheduler's queueing, not the serving layer; leave the writer one
    // core where the host allows it.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let readers = readers.min(cores.saturating_sub(1).max(1));
    let universe = (set_len * 16) as u32;
    let mutation_rate = WRITES_PER_READ;
    let table = KernelTable::auto();
    let config = ServeConfig::from_env();
    let shards = config.shards;
    let store = ServeStore::new(config);

    // Seed every set and the oracle identically.
    let mut rng = SplitMix64::new(0x5EEDF00D);
    let mut oracle: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); num_sets];
    for (id, slot) in oracle.iter_mut().enumerate() {
        let elems: Vec<u32> = (0..set_len)
            .map(|_| (rng.next_u64() % universe as u64) as u32)
            .collect();
        store.seed(id as u32, &elems);
        *slot = elems.iter().copied().collect();
    }

    // ---- Phase A: deterministic replay against the offline oracle ----
    let zipf = Zipf::new(num_sets as u64, 1.0);
    let pick = |rng: &mut SplitMix64, zipf: &Zipf| (zipf.sample(rng) - 1) as u32;
    let mut mismatches = 0usize;
    let mut queries = 0usize;
    let replay_t = Instant::now();
    for i in 0..replay_ops {
        if i % 4 != 3 {
            let id = pick(&mut rng, &zipf);
            let elem = (rng.next_u64() % universe as u64) as u32;
            if rng.next_u64().is_multiple_of(5) {
                store.apply(WriteOp::Del { set: id, elem });
                oracle[id as usize].remove(&elem);
            } else {
                store.apply(WriteOp::Add { set: id, elem });
                oracle[id as usize].insert(elem);
            }
        } else {
            let a = pick(&mut rng, &zipf);
            let b = pick(&mut rng, &zipf);
            let c = pick(&mut rng, &zipf);
            queries += 1;
            let ok = match queries % 3 {
                0 => {
                    let got = store.read(|v| v.kway_count(&[a, b, c], &table));
                    let want = oracle[a as usize]
                        .iter()
                        .filter(|x| {
                            oracle[b as usize].contains(x) && oracle[c as usize].contains(x)
                        })
                        .count();
                    got == want
                }
                1 => {
                    let got = store.read(|v| v.boolean(&[a], &[b], &[c], &table));
                    let want: Vec<u32> = oracle[a as usize]
                        .iter()
                        .filter(|x| oracle[b as usize].contains(x))
                        .filter(|x| !oracle[c as usize].contains(x))
                        .copied()
                        .collect();
                    got == want
                }
                _ => {
                    let got = store.read(|v| v.count(a, b, &table));
                    let want = oracle[a as usize].intersection(&oracle[b as usize]).count();
                    got == want
                }
            };
            if !ok {
                mismatches += 1;
            }
        }
    }
    let replay_secs = replay_t.elapsed().as_secs_f64();
    let counts_match = mismatches == 0;

    // ---- Phase B: open-loop concurrent traffic ----
    let m = fesia_obs::metrics();
    store.quiesce();
    let read_hist_before = m.serve_read_cycles.snapshot();
    let stall_before = m.snapshot_pin_stall_max_cycles.get();
    let rebuilds_before = m.serve_rebuilds.get();
    let finished = AtomicUsize::new(0);
    let traffic_t = Instant::now();
    std::thread::scope(|scope| {
        for r in 0..readers {
            let store = &store;
            let table = &table;
            let zipf = &zipf;
            let finished = &finished;
            scope.spawn(move || {
                let mut rng = SplitMix64::new(0xC0FFEE ^ (r as u64) << 32);
                for i in 0..reads_per_reader {
                    let a = pick(&mut rng, zipf);
                    let b = pick(&mut rng, zipf);
                    match i % 8 {
                        0 => {
                            let c = pick(&mut rng, zipf);
                            std::hint::black_box(store.read(|v| v.kway_count(&[a, b, c], table)));
                        }
                        1 => {
                            let c = pick(&mut rng, zipf);
                            std::hint::black_box(
                                store.read(|v| v.boolean(&[a], &[b], &[c], table)),
                            );
                        }
                        _ => {
                            std::hint::black_box(store.read(|v| v.count(a, b, table)));
                        }
                    }
                }
                finished.fetch_add(1, Ordering::Release);
            });
        }
        // Open-loop writer: at most one mutation per 1/rate reads, and
        // it stops as soon as the last reader drains so the episode's
        // wall clock measures the mixed phase only.
        let writer_ops = ((readers * reads_per_reader) as f64 * mutation_rate) as usize;
        let store = &store;
        let finished = &finished;
        let zipf = &zipf;
        scope.spawn(move || {
            let mut rng = SplitMix64::new(0xB0B0);
            for _ in 0..writer_ops {
                if finished.load(Ordering::Acquire) == readers {
                    break;
                }
                let id = pick(&mut rng, zipf);
                let elem = (rng.next_u64() % universe as u64) as u32;
                if rng.next_u64().is_multiple_of(5) {
                    store.apply(WriteOp::Del { set: id, elem });
                } else {
                    store.apply(WriteOp::Add { set: id, elem });
                }
                std::thread::yield_now();
            }
        });
    });
    let traffic_secs = traffic_t.elapsed().as_secs_f64();
    store.quiesce();

    let reads_delta = m.serve_read_cycles.snapshot().delta(&read_hist_before);
    let stall_after = m.snapshot_pin_stall_max_cycles.get();
    let rebuilds = m.serve_rebuilds.get() - rebuilds_before;
    let ghz = fesia_simd::timer::estimate_tsc_ghz();
    let to_ms = |cycles: u64| cycles as f64 / (ghz * 1e6);
    let p50_ms = to_ms(reads_delta.p50());
    let p99_ms = to_ms(reads_delta.p99());
    let p999_ms = to_ms(reads_delta.p999());
    // The stall counter is a process-lifetime high-water mark; only a
    // new maximum during this phase is attributable to it.
    let max_reader_stall_ms = if stall_after > stall_before {
        to_ms(stall_after)
    } else {
        0.0
    };
    let total_reads = reads_delta.total();
    let reads_per_sec = total_reads as f64 / traffic_secs.max(1e-12);
    let budget = p99_budget_ms(scale);
    let p99_within_budget = p99_ms <= budget;
    let stall_within_budget = max_reader_stall_ms <= STALL_BUDGET_MS;

    let json = format!(
        "{{\n  \"experiment\": \"serve\",\n  \"sets\": {num_sets},\n  \
         \"set_elements\": {set_len},\n  \"shards\": {shards},\n  \
         \"replay_ops\": {replay_ops},\n  \"replay_queries\": {queries},\n  \
         \"replay_seconds\": {replay_secs:.6},\n  \"mismatches\": {mismatches},\n  \
         \"counts_match\": {counts_match},\n  \"readers\": {readers},\n  \
         \"mutation_rate\": {mutation_rate},\n  \"traffic_reads\": {total_reads},\n  \
         \"traffic_seconds\": {traffic_secs:.6},\n  \
         \"reads_per_sec\": {reads_per_sec:.2},\n  \"rebuilds\": {rebuilds},\n  \
         \"p50_ms\": {p50_ms:.6},\n  \"p99_ms\": {p99_ms:.6},\n  \
         \"p999_ms\": {p999_ms:.6},\n  \"p99_budget_ms\": {budget},\n  \
         \"p99_within_budget\": {p99_within_budget},\n  \
         \"max_reader_stall_ms\": {max_reader_stall_ms:.6},\n  \
         \"stall_within_budget\": {stall_within_budget}\n}}\n"
    );
    let json_path = write_bench_json(scale, "serve", &json);

    let mut md = Table::new(vec!["metric", "value"]);
    md.row(vec!["replay queries vs oracle".into(), queries.to_string()]);
    md.row(vec!["mismatches".into(), mismatches.to_string()]);
    md.row(vec!["traffic reads".into(), total_reads.to_string()]);
    md.row(vec!["reads/s".into(), f2(reads_per_sec)]);
    md.row(vec!["p50 (ms)".into(), format!("{p50_ms:.4}")]);
    md.row(vec!["p99 (ms)".into(), format!("{p99_ms:.4}")]);
    md.row(vec!["p999 (ms)".into(), format!("{p999_ms:.4}")]);
    md.row(vec![
        "max reader stall (ms)".into(),
        format!("{max_reader_stall_ms:.4}"),
    ]);
    md.row(vec!["rebuilds".into(), rebuilds.to_string()]);

    format!(
        "## Serving layer — epoch/snapshot shards under mixed traffic\n\n\
         {num_sets} sets of ~{set_len} elements across {shards} shards. \
         Replay: {replay_ops} mixed ops, {queries} queries checked \
         against the offline oracle, {mismatches} mismatches \
         (counts_match: {counts_match}). Traffic: {readers} readers \
         (Zipf mix) against one writer (rate {mutation_rate}); \
         p50/p99/p999 = {p50_ms:.3}/{p99_ms:.3}/{p999_ms:.3} ms \
         (budget {budget} ms: {p99_within_budget}); worst reader stall \
         {max_reader_stall_ms:.3} ms (budget {STALL_BUDGET_MS} ms: \
         {stall_within_budget}); {rebuilds} off-path rebuilds. \
         Written to {json_path}.\n\n{}",
        md.render()
    )
}
