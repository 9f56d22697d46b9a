//! Extension experiment: the confidence estimator the paper suggests at
//! the end of §4.2.
//!
//! The paper observes that hash aliasing remains responsible for the
//! majority of DFCM mispredictions (59% in Figure 14) and suggests that a
//! confidence estimator should tag the level-2 table with "some bits of a
//! second hashing function, orthogonal to the main one". This experiment
//! implements the suggestion ([`dfcm::TaggedDfcmPredictor`]) and sweeps
//! the tag width and confidence threshold, reporting the coverage (issued
//! fraction) vs. issued-accuracy trade-off on the suite.

use dfcm::TaggedDfcmPredictor;
use dfcm_sim::report::{fmt_accuracy, TextTable};
use dfcm_sim::{simulate_confidence, ConfidenceStats};

use crate::common::{banner, Options};

/// Runs the §4.2 confidence-estimator extension.
pub fn run(opts: &Options) {
    banner(
        "Extension (§4.2): tagged-DFCM confidence estimator (2^12/2^12)",
        "Tag = low bits of an orthogonal second history hash; a prediction \
         is issued only on tag match and counter >= threshold.",
    );
    let traces = opts.traces();
    let mut table = TextTable::new(vec![
        "tag bits",
        "conf >=",
        "coverage",
        "issued acc",
        "overall acc",
    ]);
    for tag_bits in [0u32, 2, 4, 8] {
        for threshold in [0u8, 1, 2, 3] {
            let mut total = ConfidenceStats::default();
            for bench in traces.iter() {
                let mut p = TaggedDfcmPredictor::builder()
                    .l1_bits(12)
                    .l2_bits(12)
                    .tag_bits(tag_bits)
                    .conf_threshold(threshold)
                    .build()
                    .expect("valid");
                let stats = simulate_confidence(&mut p, &bench.trace);
                total.all.merge(stats.all);
                total.issued.merge(stats.issued);
            }
            table.row(vec![
                tag_bits.to_string(),
                threshold.to_string(),
                fmt_accuracy(total.coverage()),
                fmt_accuracy(total.issued_accuracy()),
                fmt_accuracy(total.overall_accuracy()),
            ]);
        }
    }
    print!("{}", table.render());
    opts.emit(&table, "tags");
    println!();
    println!(
        "Check (paper's conjecture): tagging the level-2 table with orthogonal-hash \
         bits should track hash aliasing — issued accuracy should rise well above \
         the unconditional accuracy at useful coverage."
    );
}
