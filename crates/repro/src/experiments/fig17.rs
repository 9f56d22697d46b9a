//! Figure 17: prediction accuracy under delayed update.
//!
//! A prediction's table update is applied only after `d` further
//! predictions (§4.5). Both predictors use 2^16 level-1 and 2^12 level-2
//! entries. The paper: both suffer significantly, the DFCM slightly more,
//! but the overall behaviour — and the DFCM's advantage — is preserved.

use dfcm_sim::chart::{ScatterChart, Series};
use dfcm_sim::report::{fmt_accuracy, TextTable};

use crate::common::{banner, Options};

/// The delays (in predictions) the paper sweeps.
pub const DELAYS: [usize; 7] = [0, 16, 32, 64, 128, 256, 512];

/// Runs the Figure 17 reproduction.
pub fn run(opts: &Options) {
    banner(
        "Figure 17: accuracy under delayed update (2^16 / 2^12)",
        "The update for a prediction lands only after d further predictions.",
    );
    let mut run = opts.experiment("fig17");
    let fcm = run.delayed("fcm", "fcm:16:12", &DELAYS);
    let dfcm = run.delayed("dfcm", "dfcm:16:12", &DELAYS);
    run.finish();
    let mut table = TextTable::new(vec!["delay", "FCM", "DFCM"]);
    let mut rows = Vec::new();
    for (f, d) in fcm.iter().zip(&dfcm) {
        let (delay, fcm, dfcm) = (f.config, f.accuracy(), d.accuracy());
        rows.push((delay, fcm, dfcm));
        table.row(vec![
            delay.to_string(),
            fmt_accuracy(fcm),
            fmt_accuracy(dfcm),
        ]);
    }
    print!("{}", table.render());
    println!();
    print!(
        "{}",
        ScatterChart::new(56, 10)
            .series(Series::new(
                "fcm",
                rows.iter().map(|&(d, f, _)| (d as f64, f)).collect(),
            ))
            .series(Series::new(
                "dfcm",
                rows.iter().map(|&(d, _, x)| (d as f64, x)).collect(),
            ))
            .render()
    );
    opts.emit(&table, "fig17");
    println!();
    let (d0, dmax) = (rows[0], rows[rows.len() - 1]);
    println!(
        "Check (paper): both predictors degrade with delay (FCM {:.3} -> {:.3}, \
         DFCM {:.3} -> {:.3}); DFCM stays ahead at every delay.",
        d0.1, dmax.1, d0.2, dmax.2,
    );
}
