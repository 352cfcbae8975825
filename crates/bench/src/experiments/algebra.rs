//! Materializing set-algebra experiment (this repo's visitor-kernel
//! extension of the paper's count-only online phase).
//!
//! Two questions bracket the design:
//!
//! * **Materialization overhead** — on a sparse low-selectivity pair
//!   (1% intersection), emitting the matching elements should cost
//!   little over counting them: both run the identical planner-chosen
//!   step-1 scan and per-segment kernels, differing only in the visitor.
//!   The gate is a bounded `intersect_overhead_ratio`
//!   (materialize / count cycles).
//! * **Union / xor / difference throughput** — against the sorted
//!   two-pointer merges in `fesia_baselines::merge`, on one pair per
//!   execution route (DESIGN.md §5g): the main pair, where both sides
//!   carry a container tier; a 3000 × 3000 pair below the tier floor,
//!   which takes the probe; and a main-size × 3000 tiered × untiered
//!   pair. `union_vs_merge` and `xor_vs_merge` (merge cycles / FESIA
//!   cycles on the main pair) are gated.
//!
//! Writes `BENCH_algebra.json` (consumed by `scripts/tier1.sh --smoke`)
//! and returns a markdown report.

use crate::harness::{f2, measure_cycles, write_bench_json, Scale, Table};
use fesia_baselines::merge;
use fesia_core::{FesiaParams, SegmentedSet, SetOp};
use fesia_datagen::{pair_with_intersection, SplitMix64};

/// Elements per side of the pairs below the container-tier floor.
const UNTIERED: usize = 3000;

/// Alternating FESIA / merge rounds per op; each side keeps its minimum,
/// so slow drift cannot masquerade as a ratio change.
const ROUNDS: usize = 4;

/// One op on one pair: FESIA and merge cycles.
struct OpCycles {
    op: SetOp,
    fesia: u64,
    merge: u64,
}

/// Union, xor and difference on one pair against the merge baselines.
/// Returns the per-op cycles and whether every output matched its merge.
fn ops_vs_merge(av: &[u32], bv: &[u32], reps: usize) -> (Vec<OpCycles>, bool) {
    let params = FesiaParams::auto();
    let a = SegmentedSet::build(av, &params).unwrap();
    let b = SegmentedSet::build(bv, &params).unwrap();
    let mut all_match = true;
    let rows = [SetOp::Union, SetOp::Xor, SetOp::Difference]
        .into_iter()
        .map(|op| {
            let oracle = match op {
                SetOp::Union => merge::union,
                SetOp::Xor => merge::xor,
                _ => merge::difference,
            };
            let (mut fesia, mut merge) = (u64::MAX, u64::MAX);
            for _ in 0..ROUNDS {
                let (c, got) = measure_cycles(reps, || fesia_core::set_op(&a, &b, op));
                fesia = fesia.min(c);
                let (c, want) = measure_cycles(reps, || oracle(av, bv));
                merge = merge.min(c);
                all_match &= got == want;
            }
            OpCycles { op, fesia, merge }
        })
        .collect();
    (rows, all_match)
}

fn ratio(merge: u64, fesia: u64) -> f64 {
    merge as f64 / fesia.max(1) as f64
}

/// The JSON fields of one pair's ops: `<op>_cycles` and
/// `merge_<op>_cycles`.
fn cycle_fields(rows: &[OpCycles]) -> String {
    rows.iter()
        .map(|r| {
            let name = op_label(r.op);
            format!(
                "\"{name}_cycles\": {}, \"merge_{name}_cycles\": {}",
                r.fesia, r.merge
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn op_label(op: SetOp) -> &'static str {
    match op {
        SetOp::Union => "union",
        SetOp::Xor => "xor",
        SetOp::Difference => "difference",
        SetOp::Intersect => "intersect",
    }
}

pub fn run(scale: Scale) -> String {
    let mut rng = SplitMix64::new(0xA16B);

    // Sparse pair: 1% selectivity under the default geometry — the regime
    // the paper targets (r much smaller than n), where the count path's
    // work is dominated by step 1 and the emit path adds only the
    // survivor writes plus one final sort of r elements.
    let n = match scale {
        Scale::Smoke => 1 << 17,
        Scale::Standard | Scale::Full => 1 << 21,
    };
    let r = n / 100;
    let params = FesiaParams::auto();
    let (av, bv) = pair_with_intersection(n, n, r, &mut rng);
    let a = SegmentedSet::build(&av, &params).unwrap();
    let b = SegmentedSet::build(&bv, &params).unwrap();

    // Alternate count and materialize round-robin and keep each side's
    // minimum, so slow drift (frequency, interrupts) cannot masquerade as
    // materialization overhead in the bounded-ratio gate.
    let reps = scale.reps().clamp(1, 3);
    let rounds = 8;
    let mut count_c = u64::MAX;
    let mut mat_c = u64::MAX;
    let mut count_val = 0usize;
    let mut mat_out: Vec<u32> = Vec::new();
    for _ in 0..rounds {
        let (c, v) = measure_cycles(reps, || fesia_core::intersect_count(&a, &b));
        count_c = count_c.min(c);
        count_val = v;
        let (c, v) = measure_cycles(reps, || fesia_core::intersect(&a, &b));
        mat_c = mat_c.min(c);
        mat_out = v;
    }
    let overhead_ratio = mat_c as f64 / count_c.max(1) as f64;

    // The three other ops on one pair per execution route.
    let (main, main_match) = ops_vs_merge(&av, &bv, reps);
    let (ua, ub) = pair_with_intersection(UNTIERED, UNTIERED, UNTIERED / 100, &mut rng);
    let (untiered, untiered_match) = ops_vs_merge(&ua, &ub, reps);
    let (ta, tb) = pair_with_intersection(n, UNTIERED, UNTIERED / 100, &mut rng);
    let (mixed, mixed_match) = ops_vs_merge(&ta, &tb, reps);

    let results_match = count_val == r
        && mat_out.len() == count_val
        && mat_out == merge::intersect(&av, &bv)
        && main_match
        && untiered_match
        && mixed_match;
    let union_vs_merge = ratio(main[0].merge, main[0].fesia);
    let xor_vs_merge = ratio(main[1].merge, main[1].fesia);

    let mut t_md = Table::new(vec![
        "pair",
        "op",
        "FESIA (Mcycles)",
        "merge (Mcycles)",
        "merge / FESIA",
    ]);
    for (pair, rows) in [
        (format!("{n} x {n} (tiered)"), &main),
        (format!("{UNTIERED} x {UNTIERED} (untiered)"), &untiered),
        (format!("{n} x {UNTIERED} (tiered x untiered)"), &mixed),
    ] {
        for row in rows {
            t_md.row(vec![
                pair.clone(),
                op_label(row.op).to_string(),
                f2(row.fesia as f64 / 1e6),
                f2(row.merge as f64 / 1e6),
                f2(ratio(row.merge, row.fesia)),
            ]);
        }
    }

    let json = format!(
        "{{\n  \"experiment\": \"algebra\",\n  \"results_match\": {results_match},\n  \
         \"elements\": {n}, \"intersection\": {r},\n  \
         \"count_cycles\": {count_c}, \"materialize_cycles\": {mat_c},\n  \
         \"intersect_overhead_ratio\": {overhead_ratio:.3},\n  \
         {},\n  \
         \"union_vs_merge\": {union_vs_merge:.3}, \"xor_vs_merge\": {xor_vs_merge:.3},\n  \
         \"untiered_pair\": {{\"elements\": {UNTIERED}, {}}},\n  \
         \"tiered_untiered_pair\": {{\"elements\": [{n}, {UNTIERED}], {}}}\n}}\n",
        cycle_fields(&main),
        cycle_fields(&untiered),
        cycle_fields(&mixed),
    );
    let json_path = write_bench_json(scale, "algebra", &json);

    format!(
        "## Set algebra — materializing visitor kernels\n\n\
         Sparse pair: {n} x {n} elements, 1% selectivity, default geometry.\n\
         Count {count_c} cycles vs materialize {mat_c} cycles \
         ({overhead_ratio:.2}x overhead). Results match: {results_match}.\n\n{}\n\
         Series written to {json_path}.\n",
        t_md.render(),
    )
}
