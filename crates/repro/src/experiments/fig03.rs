//! Figure 3: accuracy vs. size for the last-value, stride and FCM
//! predictors.
//!
//! The paper plots, on one size/accuracy chart: LVP and stride predictors
//! with 2^6..2^16 entries, and one FCM curve per level-1 size
//! (2^0..2^16), each swept over level-2 sizes 2^8..2^20. The headline
//! shape: FCM is the most accurate predictor for all but the smallest
//! budgets, but needs huge level-2 tables; accuracy still improves from
//! 2^18 to 2^20 entries.

use dfcm_sim::report::{fmt_accuracy, fmt_kbits, TextTable};

use crate::common::{banner, Options};

/// Runs the Figure 3 reproduction.
pub fn run(opts: &Options) {
    banner(
        "Figure 3: LVP / stride / FCM accuracy vs size",
        "Each FCM curve fixes the level-1 size and sweeps the level-2 size.",
    );
    let mut run = opts.experiment("fig03");
    let mut table = TextTable::new(vec!["predictor", "l1", "l2", "kbit", "accuracy"]);

    let entry_sweep: Vec<u32> = (6..=16).step_by(2).collect();
    let lvp = run.lanes("lvp", &entry_sweep, |bits| format!("lvp:{bits}"));
    let stride = run.lanes("stride", &entry_sweep, |bits| format!("stride:{bits}"));
    for (name, points) in [("lvp", lvp), ("stride", stride)] {
        for point in points {
            table.row(vec![
                name.into(),
                format!("2^{}", point.config),
                "-".into(),
                fmt_kbits(point.kbits()),
                fmt_accuracy(point.accuracy()),
            ]);
        }
    }

    let l1_sweep: Vec<u32> = vec![0, 4, 6, 8, 10, 12, 14, 16];
    let l2_sweep = opts.l2_sweep();
    let grid: Vec<(u32, u32)> = l1_sweep
        .iter()
        .flat_map(|&l1| l2_sweep.iter().map(move |&l2| (l1, l2)))
        .collect();
    let points = run.lanes("fcm", &grid, |(l1, l2)| format!("fcm:{l1}:{l2}"));
    for point in points {
        let (l1, l2) = point.config;
        table.row(vec![
            "fcm".into(),
            format!("2^{l1}"),
            format!("2^{l2}"),
            fmt_kbits(point.kbits()),
            fmt_accuracy(point.accuracy()),
        ]);
    }

    run.finish();
    print!("{}", table.render());
    opts.emit(&table, "fig03");
    println!();
    println!(
        "Check (paper): FCM beats LVP and stride for all but the smallest sizes; \
         accuracy keeps rising with the level-2 table; level-1 saturates around 2^14."
    );
}
