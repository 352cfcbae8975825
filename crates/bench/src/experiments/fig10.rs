//! Fig. 10 — three-way intersection with varying set density
//! (`density = n / range`; for `k = 3`, selectivity ∝ density²).
//!
//! Paper shape: FESIA reaches up to 17.8x over scalar and up to 4.8x over
//! the SIMD baselines, with the advantage largest at low density (small
//! final intersection) because the bitmap AND prunes 3-way verification.
//!
//! FESIA runs the paper's form, the bitmap-fold scan, pinned with
//! [`KwayStrategy::Scan`]: at the higher densities the planner would pick
//! the container walk instead, which is not the algorithm the figure
//! reproduces.

use crate::harness::{measure_cycles, Scale, Table};
use fesia_baselines::Method;
use fesia_core::{FesiaParams, KernelTable, KwayStrategy, SegmentedSet, SimdLevel};
use fesia_datagen::{ksets_with_density, SplitMix64};

/// The density axis.
pub const DENSITIES: [f64; 6] = [0.0, 0.001, 0.01, 0.1, 0.3, 0.6];

/// Full Fig. 10 report.
pub fn run(scale: Scale) -> String {
    let n = scale.size(1_000_000);
    let reps = scale.reps();
    let level = SimdLevel::detect();
    let table = KernelTable::new(level, 1);
    let params = FesiaParams::for_level(level);
    let baselines = [
        Method::Scalar,
        Method::ScalarGalloping,
        Method::SimdGalloping(level),
        Method::BMiss(level),
        Method::Shuffling(level),
    ];

    let mut header: Vec<String> = vec!["method \\ density".into()];
    header.extend(DENSITIES.iter().map(|d| format!("{d}")));
    let mut rows: Vec<Vec<String>> = baselines
        .iter()
        .map(|m| vec![m.name()])
        .chain(std::iter::once(vec![format!("FESIA{level}")]))
        .collect();

    let mut scalar_cycles = vec![0u64; DENSITIES.len()];
    for (di, &density) in DENSITIES.iter().enumerate() {
        let mut rng = SplitMix64::new(0x100 + di as u64);
        let sets = ksets_with_density(3, n, density, &mut rng);
        let refs: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        let want = Method::Scalar.kway_count(&refs);
        // Baselines.
        for (mi, m) in baselines.iter().enumerate() {
            let (c, got) = measure_cycles(reps, || m.kway_count(&refs));
            assert_eq!(got, want, "{} density={density}", m.name());
            if *m == Method::Scalar {
                scalar_cycles[di] = c;
            }
            rows[mi].push(format!(
                "{:.2}x",
                scalar_cycles[di] as f64 / c.max(1) as f64
            ));
        }
        // FESIA 3-way.
        let encoded: Vec<SegmentedSet> = sets
            .iter()
            .map(|s| SegmentedSet::build(s, &params).unwrap())
            .collect();
        let enc_refs: Vec<&SegmentedSet> = encoded.iter().collect();
        let (c, got) = measure_cycles(reps, || {
            fesia_core::execute_kway_count(&enc_refs, &table, KwayStrategy::Scan)
        });
        assert_eq!(got, want, "FESIA density={density}");
        let last = rows.len() - 1;
        rows[last].push(format!(
            "{:.2}x",
            scalar_cycles[di] as f64 / c.max(1) as f64
        ));
    }

    let mut t = Table::new(header);
    for row in rows {
        t.row(row);
    }
    format!(
        "## Fig. 10 — 3-way intersection, speedup vs Scalar while varying density (n = {n})\n\n{}",
        t.render()
    )
}
