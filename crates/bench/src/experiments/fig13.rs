//! Table III & Fig. 13 — the triangle counting task on the three
//! SNAP-substitute graphs: dataset statistics with FESIA construction
//! times, then speedups over Scalar for Shuffling, SIMDGalloping, BMiss
//! and FESIA at 1/2/4/8 cores, plus a row on the `triangles` benchmark
//! graph and the single-thread pass times with FESIA's gap to BMiss.
//!
//! Paper shape: FESIA up to 12x over Scalar and up to 1.7x over Shuffling,
//! with near-linear core scaling.

use crate::harness::{Scale, Table};
use fesia_baselines::Method;
use fesia_core::{FesiaParams, KernelTable, SimdLevel};
use fesia_graph::{count_with_method, FesiaGraph, GraphPreset};
use std::time::Instant;

fn graph_scale(scale: Scale, preset: GraphPreset) -> f64 {
    let base: f64 = match scale {
        Scale::Smoke => 0.002,
        Scale::Standard => 0.01,
        Scale::Full => 0.1,
    };
    // HepPh is tiny in the paper; keep it near its real size.
    match preset {
        GraphPreset::HepPh => (base * 50.0).min(1.0),
        _ => base,
    }
}

/// Table III: dataset statistics and construction time.
pub fn run_table3(scale: Scale) -> String {
    let mut t = Table::new(vec![
        "dataset",
        "nodes (paper)",
        "edges (paper)",
        "nodes (ours)",
        "edges (ours)",
        "construction time",
    ]);
    for preset in GraphPreset::ALL {
        let (pn, pe) = preset.paper_size();
        let g = preset.generate(graph_scale(scale, preset), 0x613);
        let oriented = g.orient_by_degree();
        let fg = FesiaGraph::build(&oriented, &FesiaParams::auto());
        t.row(vec![
            preset.name().to_string(),
            pn.to_string(),
            pe.to_string(),
            g.num_nodes().to_string(),
            g.num_edges().to_string(),
            format!("{:.3?}", fg.construction_time),
        ]);
    }
    format!(
        "## Table III — graph datasets (synthetic stand-ins) and FESIA construction time\n\n{}",
        t.render()
    )
}

/// LiveJournal scale of the `triangles` benchmark workload (262k
/// nodes, 1.32M oriented edges), measured as an extra Fig. 13 row at
/// every scale so the figure and the benchmark can be read together.
const BENCHMARK_LIVEJOURNAL_SCALE: f64 = 0.04;

/// Minimum wall time of `f` over `reps` calls after one warm-up call
/// (the estimator of [`crate::harness::measure_cycles`], in seconds),
/// with the last result.
fn best_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut result = f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        result = f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, result)
}

/// Fig. 13: triangle-counting speedups over single-thread Scalar, and
/// the single-thread pass times behind them.
pub fn run(scale: Scale) -> String {
    let level = SimdLevel::detect();
    let table = KernelTable::new(level, 1);
    let params = FesiaParams::for_level(level);
    let reps = match scale {
        Scale::Smoke => 1,
        _ => 3,
    };
    let threads = [1usize, 2, 4, 8];
    let baselines = [
        ("Shuffling", Method::Shuffling(level)),
        ("SIMDGalloping", Method::SimdGalloping(level)),
        ("BMiss", Method::BMiss(level)),
    ];
    let mut header = vec!["dataset", "scale", "triangles"];
    header.extend(baselines.iter().map(|(name, _)| *name));
    header.extend(["FESIA", "FESIA 2 cores", "FESIA 4 cores", "FESIA 8 cores"]);
    let mut speedups = Table::new(header);
    let mut times = Table::new(vec![
        "dataset",
        "scale",
        "Scalar",
        "Shuffling",
        "SIMDGalloping",
        "BMiss",
        "FESIA",
        "FESIA / BMiss",
    ]);
    let rows = GraphPreset::ALL
        .iter()
        .map(|&p| (p, graph_scale(scale, p)))
        .chain([(GraphPreset::LiveJournal, BENCHMARK_LIVEJOURNAL_SCALE)]);
    for (preset, gscale) in rows {
        let g = preset.generate(gscale, 0x613);
        let oriented = g.orient_by_degree();
        let fg = FesiaGraph::build(&oriented, &params);
        let (scalar_s, want) =
            best_secs(reps, || count_with_method(&oriented, &Method::Scalar, 1).0);
        let mut base_s = Vec::new();
        for (name, m) in &baselines {
            let (secs, got) = best_secs(reps, || count_with_method(&oriented, m, 1).0);
            assert_eq!(got, want, "{name} on {}", preset.name());
            base_s.push(secs);
        }
        let mut fesia_s = Vec::new();
        for &t in &threads {
            let (secs, got) = best_secs(reps, || fg.count_triangles(&oriented, &table, t).0);
            assert_eq!(got, want, "FESIA({t}) on {}", preset.name());
            fesia_s.push(secs);
        }
        let speedup = |secs: f64| format!("{:.2}x", scalar_s / secs.max(1e-9));
        let ms = |secs: f64| format!("{:.1}", secs * 1e3);
        let mut row = vec![
            preset.name().to_string(),
            gscale.to_string(),
            want.to_string(),
        ];
        row.extend(base_s.iter().chain(&fesia_s).map(|&x| speedup(x)));
        speedups.row(row);
        let bmiss_s = base_s[2];
        let mut row = vec![preset.name().to_string(), gscale.to_string(), ms(scalar_s)];
        row.extend(base_s.iter().chain(&fesia_s[..1]).map(|&x| ms(x)));
        row.push(format!("{:.2}x", fesia_s[0] / bmiss_s.max(1e-9)));
        times.row(row);
    }
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    format!(
        "## Fig. 13 — triangle counting, speedup vs Scalar (single-thread baseline)\n\n\
         Host exposes {cores} core(s); the multicore columns can only show\n\
         scaling up to that many threads. The last row is the `triangles`\n\
         benchmark graph.\n\n{}\n\
         ### Single-thread pass time (ms, best of {reps})\n\n{}",
        speedups.render(),
        times.render()
    )
}
