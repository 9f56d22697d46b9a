//! Related-work comparison (§5): the DFCM vs. the alternative efficiency
//! schemes the paper discusses.
//!
//! * **Dynamic classification** (Rychlik et al. \[12\]): assign each
//!   instruction to one of several separate sub-predictors. The paper's
//!   §5 argument: this introduces a *fixed* partitioning of the resources,
//!   while the DFCM shares one table dynamically — constants use one
//!   entry, each distinct stride one entry, the rest is free for contexts.
//!   (Rychlik's own classifier marked >50% of instructions unpredictable
//!   and reported 43% overall accuracy.)
//! * **Last-n value prediction** (Burtscher & Zorn \[2\]): widen each
//!   last-value entry to n candidates instead of adding context.
//!
//! Both are compared against a DFCM of *equal or smaller* storage.

use dfcm::{ClassifiedPredictor, LastNValuePredictor, ValuePredictor};
use dfcm_sim::report::{fmt_accuracy, fmt_kbits, TextTable};
use dfcm_sim::SweepPoint;

use crate::common::{banner, Options};

/// One table row per configuration: its label, size and accuracy.
fn rows<C>(table: &mut TextTable, points: &[SweepPoint<C>]) {
    for p in points {
        table.row(vec![
            p.result.predictor.clone(),
            fmt_kbits(p.kbits()),
            fmt_accuracy(p.accuracy()),
        ]);
    }
}

/// Runs the §5 related-work comparison.
pub fn run(opts: &Options) {
    banner(
        "Related work (§5): DFCM vs dynamic classification and last-n",
        "All predictors compared at comparable storage on the suite.",
    );
    let traces = opts.traces();
    let mut table = TextTable::new(vec!["predictor", "kbit", "accuracy"]);
    let mut run = opts.experiment("related");

    // Dynamic classification: LVP + stride + FCM sub-tables plus a
    // classifier, sized to ~match the DFCM below.
    let classified = |_: &()| ClassifiedPredictor::new();
    rows(
        &mut table,
        &run.sweep("classified", &traces, &[()], classified),
    );

    // Report the classification census of one representative benchmark.
    let mut census_probe = classified(&());
    for r in &traces[0].trace {
        census_probe.access(r.pc, r.value);
    }
    let census = census_probe.census();
    println!(
        "classification census (cc1): lvp {}, stride {}, fcm {}, unpredictable {}",
        census.last_value, census.stride, census.fcm, census.unpredictable
    );

    // Last-n value predictors.
    let last_n = |&n: &usize| LastNValuePredictor::new(12, n);
    rows(
        &mut table,
        &run.sweep("last-n", &traces, &[1, 2, 4], last_n),
    );
    rows(
        &mut table,
        &run.lanes("lvp", &[12], |bits| format!("lvp:{bits}")),
    );

    // The DFCM at comparable (and at half) storage.
    rows(
        &mut table,
        &run.lanes("dfcm", &[12, 11], |bits| format!("dfcm:{bits}:{bits}")),
    );
    run.finish();

    print!("{}", table.render());
    opts.emit(&table, "related");
    println!();
    println!(
        "Check (paper §5): the DFCM beats the fixed-partitioned classified predictor \
         at comparable storage, and last-n widening is no substitute for context."
    );
}
