//! Figure 10: prediction accuracy of the FCM vs. the DFCM.
//!
//! (a) Weighted suite accuracy for a 2^16-entry level-1 table across
//! level-2 sizes — the DFCM's improvement grows as the level-2 table
//! shrinks (paper: +8% at 2^20 up to +33% at small sizes).
//! (b) Per-benchmark accuracies at a 2^12-entry level-2 table (paper:
//! +19% average, minimum +8% on m88ksim, maximum +46% on ijpeg).

use dfcm_sim::chart::{ScatterChart, Series};
use dfcm_sim::report::{fmt_accuracy, TextTable};

use crate::common::{banner, Options};

/// Runs the Figure 10(a) reproduction.
pub fn run_a(opts: &Options) {
    banner(
        "Figure 10(a): FCM vs DFCM accuracy, L1 = 2^16",
        "Weighted suite accuracy per level-2 size.",
    );
    let mut table = TextTable::new(vec!["l2", "FCM", "DFCM", "gain"]);
    let mut fcm_curve = Vec::new();
    let mut dfcm_curve = Vec::new();
    let l2s = opts.l2_sweep();
    let mut run = opts.experiment("fig10a");
    let fcm_points = run.lanes("fcm", &l2s, |l2| format!("fcm:16:{l2}"));
    let dfcm_points = run.lanes("dfcm", &l2s, |l2| format!("dfcm:16:{l2}"));
    run.finish();
    for (f, d) in fcm_points.iter().zip(&dfcm_points) {
        let l2 = f.config;
        let (fcm, dfcm) = (f.accuracy(), d.accuracy());
        table.row(vec![
            format!("2^{l2}"),
            fmt_accuracy(fcm),
            fmt_accuracy(dfcm),
            format!("{:+.1}%", 100.0 * (dfcm / fcm - 1.0)),
        ]);
        fcm_curve.push((f64::from(1u32 << l2.min(31)), fcm));
        dfcm_curve.push((f64::from(1u32 << l2.min(31)), dfcm));
    }
    print!("{}", table.render());
    println!();
    print!(
        "{}",
        ScatterChart::new(56, 12)
            .log_x()
            .series(Series::new("fcm", fcm_curve))
            .series(Series::new("dfcm", dfcm_curve))
            .render()
    );
    opts.emit(&table, "fig10a");
    println!();
    println!(
        "Check (paper): DFCM above FCM everywhere; the gain grows as the level-2 \
         table shrinks (paper: +8% at 2^20, +19% at 2^12, up to +33%)."
    );
}

/// Runs the Figure 10(b) reproduction.
pub fn run_b(opts: &Options) {
    banner(
        "Figure 10(b): per-benchmark accuracy, L1 = 2^16, L2 = 2^12",
        "",
    );
    let mut run = opts.experiment("fig10b");
    let fcm = run.lanes("fcm", &[12u32], |l2| format!("fcm:16:{l2}"));
    let dfcm = run.lanes("dfcm", &[12u32], |l2| format!("dfcm:16:{l2}"));
    run.finish();
    let (fcm, dfcm) = (&fcm[0].result, &dfcm[0].result);
    let mut table = TextTable::new(vec!["benchmark", "FCM", "DFCM", "gain"]);
    let mut bars = dfcm_sim::chart::BarChart::new(46).max(1.0);
    for b in &fcm.benchmarks {
        let fa = b.stats.accuracy();
        let da = dfcm.benchmark_accuracy(b.name).expect("same suite");
        table.row(vec![
            b.name.to_owned(),
            fmt_accuracy(fa),
            fmt_accuracy(da),
            format!("{:+.1}%", 100.0 * (da / fa - 1.0)),
        ]);
        bars.bar(format!("{} fcm", b.name), fa);
        bars.bar(format!("{} dfcm", b.name), da);
    }
    let (fa, da) = (fcm.weighted_accuracy(), dfcm.weighted_accuracy());
    table.row(vec![
        "average".into(),
        fmt_accuracy(fa),
        fmt_accuracy(da),
        format!("{:+.1}%", 100.0 * (da / fa - 1.0)),
    ]);
    print!("{}", table.render());
    println!();
    print!("{}", bars.render());
    opts.emit(&table, "fig10b");
    println!();
    println!(
        "Check (paper): average +19% (.62 -> .73); minimum gain on m88ksim (+8%), \
         maximum on ijpeg (+46%), all others +13..37%."
    );
}
