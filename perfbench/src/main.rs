//! `fesia-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload search|triangles|serve-mixed|simjoin --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the workload's inputs from the seed, runs the library's offline
//! phase several times (`setup_s` is their median), measures for `S`
//! seconds, checks every output, and prints human-readable tables
//! followed by one JSON result line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` re-runs the workload with a layer ladder and
//! reports the per-layer metrics. See `perfbench/README.md`.

mod calib;
mod common;
mod provenance;
mod report;
mod search;
mod serve;
mod simjoin;
mod stats;
mod trace;
mod triangles;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["search", "triangles", "serve-mixed", "simjoin"];

/// Parsed command line.
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: fesia-perfbench --workload <search|triangles|serve-mixed|simjoin> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|&&w| w == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds must be in 1..=600, got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Where a run's stamped result (and, traced, its spans) are written.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fesia-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = trace::Tracer::new();
    let mut report: Report = match args.workload {
        "search" => search::run(&args, &mut tracer),
        "triangles" => triangles::run(&args, &mut tracer),
        "serve-mixed" => serve::run(&args, &mut tracer),
        "simjoin" => simjoin::run(&args, &mut tracer),
        _ => unreachable!("workload names are validated by parse_args"),
    };

    report.normalize(args.trace);
    let stamp = report::stamp(args.workload, args.seed, args.seconds, args.trace, &report);
    let result = report.result_line(args.trace);
    println!("# stamp: {stamp}");
    print!("{}", report.text);
    println!(
        "# {} metrics ({}):\n{}",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        },
        args.workload,
        report.metric_table(args.trace)
    );
    println!(
        "# checked {} operations, {} failed (failed_share {})",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );

    let dir = out_dir();
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{tag}.json")),
            format!("{{\"stamp\": {stamp}, \"result\": {result}}}\n"),
        )?;
        if args.trace {
            tracer.write_jsonl(&dir.join(format!("{tag}.spans.jsonl")))?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!(
            "fesia-perfbench: could not write results under {}: {e}",
            dir.display()
        );
    }
    println!("{result}");
    ExitCode::SUCCESS
}
