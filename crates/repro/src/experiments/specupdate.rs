//! Extension experiment: speculative history update under delay.
//!
//! Figure 17 shows both predictors degrading badly under delayed update —
//! the paper leaves it at that ("the overall behaviour is the same for
//! both techniques"). The standard remedy in later value-prediction work
//! is to update the *history* speculatively at prediction time and repair
//! on a value misprediction. This experiment reruns the Figure 17 sweep
//! with [`SpeculativeDfcm`] added, showing how much
//! of the loss speculative histories recover.

use dfcm::SpeculativeDfcm;
use dfcm_sim::report::{fmt_accuracy, TextTable};

use crate::common::{banner, Options};

use super::fig17::DELAYS;

/// Runs the speculative-update analysis.
pub fn run(opts: &Options) {
    banner(
        "Extension: speculative history update under delay (2^16/2^12)",
        "Stale = Figure 17's delayed update; speculative = fetch-side history \
         advanced with the prediction, repaired on misprediction.",
    );
    let traces = opts.traces();
    let mut run = opts.experiment("specupdate");
    // Figure 17's DFCM column: under `all`, read from the run's memo.
    let stale = run.delayed("stale", "dfcm:16:12", &DELAYS);
    let speculative = run.sweep("speculative", &traces, &DELAYS, |&d| {
        SpeculativeDfcm::builder()
            .l1_bits(16)
            .l2_bits(12)
            .delay(d)
            .build()
            .expect("valid")
    });
    run.finish();
    let mut table = TextTable::new(vec!["delay", "DFCM stale", "DFCM speculative", "recovered"]);
    let mut baseline = None;
    for (st, sp) in stale.iter().zip(&speculative) {
        let (stale, speculative) = (st.accuracy(), sp.accuracy());
        let base = *baseline.get_or_insert(stale.max(speculative));
        let lost = base - stale;
        let recovered = if lost > 1e-9 {
            format!("{:.0}%", 100.0 * (speculative - stale) / lost)
        } else {
            "-".to_owned()
        };
        table.row(vec![
            st.config.to_string(),
            fmt_accuracy(stale),
            fmt_accuracy(speculative),
            recovered,
        ]);
    }
    print!("{}", table.render());
    opts.emit(&table, "specupdate");
    println!();
    println!(
        "Check: plain delayed update bleeds accuracy with distance (Figure 17); \
         speculative histories recover most of the loss at every delay, because \
         in-flight stride and context chains keep advancing on predicted values."
    );
}
