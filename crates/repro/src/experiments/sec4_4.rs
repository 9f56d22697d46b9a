//! Section 4.4: reducing the width of the stored differences.
//!
//! The DFCM's level-2 table holds differences, which rarely need the full
//! architectural width. The paper: storing 16 bits costs .01–.03
//! accuracy, 8 bits .05–.08 — but shrinking the number of level-2
//! *entries* is a better trade at both ends, so partial-width storage is
//! "not very useful". We sweep widths × sizes and print both the accuracy
//! drops and the paper's entries-vs-width comparison.

use dfcm::{DfcmPredictor, StrideWidth};
use dfcm_sim::report::{fmt_accuracy, fmt_kbits, TextTable};

use crate::common::{banner, Options};

/// Runs the Section 4.4 reproduction.
pub fn run(opts: &Options) {
    banner(
        "Section 4.4: partial-width difference storage",
        "DFCM accuracy when the level-2 table stores truncated differences.",
    );
    let traces = opts.traces();
    let widths = [
        ("full", StrideWidth::Full),
        ("16b", StrideWidth::Bits(16)),
        ("8b", StrideWidth::Bits(8)),
    ];
    let geometries: Vec<(u32, u32)> = [12u32, 16]
        .into_iter()
        .flat_map(|l1| [10u32, 12, 14, 16].map(|l2| (l1, l2)))
        .collect();
    // Each geometry's partial widths are adjacent.
    let partial_grid: Vec<(u32, u32, StrideWidth)> = geometries
        .iter()
        .flat_map(|&(l1, l2)| widths[1..].iter().map(move |&(_, width)| (l1, l2, width)))
        .collect();
    let mut run = opts.experiment("sec4_4");
    let full = run.lanes("dfcm", &geometries, |(l1, l2)| format!("dfcm:{l1}:{l2}"));
    let partial = run.sweep("partial", &traces, &partial_grid, |&(l1, l2, width)| {
        DfcmPredictor::builder()
            .l1_bits(l1)
            .l2_bits(l2)
            .stride_width(width)
            .build()
            .expect("valid")
    });
    run.finish();
    let mut table = TextTable::new(vec!["l1", "l2", "width", "kbit", "accuracy", "drop"]);
    let mut drops_16 = Vec::new();
    let mut drops_8 = Vec::new();
    for (full, partial) in full.iter().zip(partial.chunks(widths.len() - 1)) {
        let (l1, l2) = full.config;
        let base = full.accuracy();
        let points = std::iter::once((full.kbits(), base))
            .chain(partial.iter().map(|p| (p.kbits(), p.accuracy())));
        for ((kbits, acc), (label, width)) in points.zip(widths) {
            let drop = base - acc;
            match width {
                StrideWidth::Bits(16) => drops_16.push(drop),
                StrideWidth::Bits(8) => drops_8.push(drop),
                _ => {}
            }
            table.row(vec![
                format!("2^{l1}"),
                format!("2^{l2}"),
                label.into(),
                fmt_kbits(kbits),
                fmt_accuracy(acc),
                format!("{drop:.3}"),
            ]);
        }
    }
    print!("{}", table.render());
    opts.emit(&table, "sec4_4");
    println!();
    let range = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        format!("{lo:.3}..{hi:.3}")
    };
    println!(
        "Check (paper): 16-bit differences cost .01-.03 accuracy (here {}), \
         8-bit cost .05-.08 (here {}). Compare with quartering the number of \
         level-2 entries, which saves the same bits at lower accuracy cost \
         (Figure 11(a))'s weak level-2 dependence).",
        range(&drops_16),
        range(&drops_8),
    );
}
