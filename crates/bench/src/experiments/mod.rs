//! One driver module per table/figure of the paper's evaluation
//! (the per-experiment index lives in DESIGN.md §4).

pub mod ablation;
pub mod algebra;
pub mod batch;
pub mod containers;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig4_6;
pub mod fig7;
pub mod fig8_9;
pub mod memory;
pub mod obs;
pub mod plan;
#[cfg(feature = "serve")]
pub mod serve;
pub mod simjoin;
pub mod table2;

use crate::harness::Scale;

/// All experiment ids, in paper order.
pub const ALL: [&str; 10] = [
    "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig10", "fig11", "fig12", "table3",
];

/// Run one experiment by id; `None` for an unknown id.
///
/// Ids follow the paper: `table2`, `fig4`-`fig6` (or `kernels` for all
/// three), `fig7`, `fig8`/`fig9` (one sweep), `fig10`, `fig11`, `fig12`,
/// `table3`, `fig13`, `fig14`.
pub fn run(id: &str, scale: Scale) -> Option<String> {
    use fesia_core::SimdLevel;
    Some(match id {
        "table2" => table2::run(scale),
        "kernels" => fig4_6::run(scale),
        "fig4" => fig4_6::run_for_level(SimdLevel::Sse, 4, scale),
        "fig5" => fig4_6::run_for_level(SimdLevel::Avx2, 5, scale),
        "fig6" => fig4_6::run_for_level(SimdLevel::Avx512, 6, scale),
        "fig7" | "fig7a" | "fig7b" => fig7::run(scale),
        "fig8" | "fig9" => fig8_9::run(scale),
        "fig10" => fig10::run(scale),
        "fig11" => fig11::run(scale),
        "fig12" => fig12::run(scale),
        "table3" => fig13::run_table3(scale),
        "fig13" => fig13::run(scale),
        "fig14" => fig14::run(scale),
        "ablation" => ablation::run(scale),
        "algebra" => algebra::run(scale),
        "batch" => batch::run(scale),
        "plan" => plan::run(scale),
        "containers" => containers::run(scale),
        "obs" => obs::run(scale),
        "memory" => memory::run(scale),
        "simjoin" => simjoin::run(scale),
        #[cfg(feature = "serve")]
        "serve" => serve::run(scale),
        #[cfg(not(feature = "serve"))]
        "serve" => {
            eprintln!("`serve` needs a harness built with --features serve");
            return None;
        }
        _ => return None,
    })
}

/// Every experiment in sequence (the `repro all` target). `fig13` and
/// `fig14` are included even though [`ALL`] lists the cheap set first.
pub fn run_all(scale: Scale) -> String {
    let ids = [
        "table2",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig10",
        "fig11",
        "fig12",
        "table3",
        "fig13",
        "fig14",
        "ablation",
        "memory",
        "batch",
        "plan",
        "containers",
        "algebra",
        "simjoin",
        "obs",
    ];
    let mut out = String::new();
    for id in ids {
        eprintln!("[repro] running {id} ...");
        out.push_str(&run(id, scale).expect("known id"));
        out.push('\n');
    }
    out
}
