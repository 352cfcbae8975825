//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all [--scale smoke|standard|full] [--out FILE]
//! repro fig7 fig8 table2 ...
//! repro --list
//! ```

use fesia_bench::{experiments, Scale};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Standard;
    let mut out_path: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_default();
                scale = match v.as_str() {
                    "smoke" => Scale::Smoke,
                    "standard" => Scale::Standard,
                    "full" => Scale::Full,
                    other => {
                        eprintln!("unknown scale `{other}` (smoke|standard|full)");
                        std::process::exit(2);
                    }
                };
            }
            "--out" => out_path = it.next(),
            "--metrics" => experiments::batch::set_embed_metrics(true),
            "--list" => {
                println!("experiments: all kernels fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 table2 table3 ablation memory batch plan containers algebra simjoin obs serve");
                if cfg!(not(feature = "serve")) {
                    println!("(`serve` needs a harness built with --features serve)");
                }
                return;
            }
            "--help" | "-h" => {
                println!("usage: repro [EXPERIMENT ...|all] [--scale smoke|standard|full] [--out FILE] [--metrics]");
                return;
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        ids.push("all".to_string());
    }

    let mut report = String::new();
    report.push_str(&format!(
        "# FESIA reproduction report\n\nHost SIMD: {} | scale: {scale:?} | TSC ≈ {:.2} GHz\n\n",
        fesia_core::SimdLevel::detect(),
        fesia_simd::timer::estimate_tsc_ghz(),
    ));
    for id in &ids {
        let section = if id == "all" {
            experiments::run_all(scale)
        } else {
            match experiments::run(id, scale) {
                Some(s) => s,
                None => {
                    eprintln!("unknown experiment `{id}` (try --list)");
                    std::process::exit(2);
                }
            }
        };
        report.push_str(&section);
        report.push('\n');
    }

    match out_path {
        Some(path) => {
            let mut f = std::fs::File::create(&path).expect("create output file");
            f.write_all(report.as_bytes()).expect("write report");
            eprintln!("[repro] wrote {path}");
        }
        None => print!("{report}"),
    }
}
