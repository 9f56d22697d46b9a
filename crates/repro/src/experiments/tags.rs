//! Extension experiment: the confidence estimator the paper suggests at
//! the end of §4.2.
//!
//! The paper observes that hash aliasing remains responsible for the
//! majority of DFCM mispredictions (59% in Figure 14) and suggests that a
//! confidence estimator should tag the level-2 table with "some bits of a
//! second hashing function, orthogonal to the main one". This experiment
//! implements the suggestion ([`dfcm::ConfidenceBreakdown`]) and sweeps
//! the tag width and confidence threshold, reporting the coverage (issued
//! fraction) vs. issued-accuracy trade-off on the suite. Every
//! configuration reads the run's one 2^12/2^12 DFCM pass, which Figures
//! 13 and 14 read too (`Options::alias_pass`).

use dfcm_sim::report::{fmt_accuracy, TextTable};
use dfcm_sim::ConfidenceStats;

use crate::common::{banner, Options};

/// Runs the §4.2 confidence-estimator extension.
pub fn run(opts: &Options) {
    banner(
        "Extension (§4.2): tagged-DFCM confidence estimator (2^12/2^12)",
        "Tag = low bits of an orthogonal second history hash; a prediction \
         is issued only on tag match and counter >= threshold.",
    );
    let pass = opts.alias_pass("dfcm:12:12", false);
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
            for stats in pass.gated(tag_bits, threshold) {
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
