//! One module per table/figure of the paper's evaluation.

pub mod fig03;
pub mod fig04_08;
pub mod fig06_09;
pub mod fig10;
pub mod fig11;
pub mod fig12_14;
pub mod fig16;
pub mod fig17;
pub mod ideal;
pub mod order;
pub mod phases;
pub mod related;
pub mod sec4_4;
pub mod specupdate;
pub mod speedup;
pub mod table1;
pub mod tags;
pub mod vmbench;

use crate::common::Options;

/// An experiment's entry point.
pub type Run = fn(&Options);

/// Every experiment `dfcm-repro` runs: its command-line name, its entry
/// point, and whether `all` runs it. `all` runs them in this order.
pub const EXPERIMENTS: [(&str, Run, bool); 22] = [
    ("table1", table1::run, true),
    ("fig3", fig03::run, true),
    ("fig4_8", fig04_08::run, true),
    ("fig6_9", fig06_09::run, true),
    ("fig10a", fig10::run_a, true),
    ("fig10b", fig10::run_b, true),
    ("fig11a", fig11::run_a, true),
    ("fig11b", fig11::run_b, true),
    ("fig12", fig12_14::run_fig12, true),
    ("fig13", fig12_14::run_fig13, true),
    ("fig14", fig12_14::run_fig14, true),
    ("fig16", fig16::run, true),
    ("fig17", fig17::run, true),
    ("sec4_4", sec4_4::run, true),
    ("tags", tags::run, true),
    ("related", related::run, true),
    ("ideal", ideal::run, true),
    ("speedup", speedup::run, true),
    ("vmbench", vmbench::run, true),
    ("phases", phases::run, true),
    ("specupdate", specupdate::run, true),
    ("order", order::run, false),
];
