//! Figure 11: DFCM accuracy vs. total storage, and the FCM/DFCM Pareto
//! fronts.
//!
//! (a) One DFCM curve per level-1 size (2^10..2^16), swept over level-2
//! sizes — compared to the FCM (Figure 3) the accuracies are higher and
//! the level-2 dependence has a sharper knee.
//! (b) The Pareto fronts of all FCM and all DFCM configurations: the DFCM
//! front sits .06–.09 above the FCM front except at the smallest sizes
//! (paper: .66 vs .57 at ~200 Kbit, +15%).

use dfcm_sim::chart::{ScatterChart, Series};
use dfcm_sim::report::{fmt_accuracy, fmt_kbits, TextTable};
use dfcm_sim::{pareto_front, ParetoPoint};

use crate::common::{banner, Experiment, Options};

/// Runs the Figure 11(a) reproduction.
pub fn run_a(opts: &Options) {
    banner(
        "Figure 11(a): DFCM accuracy vs size, per level-1 size",
        "Each curve fixes the level-1 size and sweeps the level-2 size.",
    );
    let mut table = TextTable::new(vec!["l1", "l2", "kbit", "accuracy"]);
    let grid: Vec<(u32, u32)> = [10u32, 12, 14, 16]
        .iter()
        .flat_map(|&l1| opts.l2_sweep().into_iter().map(move |l2| (l1, l2)))
        .collect();
    let mut run = opts.experiment("fig11a");
    let points = run.lanes("dfcm", &grid, |(l1, l2)| format!("dfcm:{l1}:{l2}"));
    run.finish();
    for point in points {
        let (l1, l2) = point.config;
        table.row(vec![
            format!("2^{l1}"),
            format!("2^{l2}"),
            fmt_kbits(point.kbits()),
            fmt_accuracy(point.accuracy()),
        ]);
    }
    print!("{}", table.render());
    opts.emit(&table, "fig11a");
}

/// The Pareto candidates of one predictor family `kind` (`fcm` or
/// `dfcm`): every (l1, l2) pair of the grid, evaluated as batch `kind`.
fn grid_points(run: &mut Experiment<'_>, kind: &str, l1s: &[u32], l2s: &[u32]) -> Vec<ParetoPoint> {
    let grid: Vec<(u32, u32)> = l1s
        .iter()
        .flat_map(|&l1| l2s.iter().map(move |&l2| (l1, l2)))
        .collect();
    run.lanes(kind, &grid, |(l1, l2)| format!("{kind}:{l1}:{l2}"))
        .into_iter()
        .map(|p| ParetoPoint {
            label: format!("l1=2^{},l2=2^{}", p.config.0, p.config.1),
            kbits: p.kbits(),
            accuracy: p.accuracy(),
        })
        .collect()
}

/// Runs the Figure 11(b) reproduction.
pub fn run_b(opts: &Options) {
    banner(
        "Figure 11(b): Pareto fronts, FCM vs DFCM",
        "Configurations with higher accuracy than all same-or-smaller configurations.",
    );
    let l2s = opts.l2_sweep();
    let mut run = opts.experiment("fig11b");
    let fcm_points = grid_points(&mut run, "fcm", &[0, 4, 6, 8, 10, 12, 14, 16], &l2s);
    let dfcm_points = grid_points(&mut run, "dfcm", &[8, 10, 12, 14, 16], &l2s);
    run.finish();

    let mut table = TextTable::new(vec!["front", "config", "kbit", "accuracy"]);
    for (name, points) in [("fcm", &fcm_points), ("dfcm", &dfcm_points)] {
        for p in pareto_front(points) {
            table.row(vec![
                name.into(),
                p.label.clone(),
                fmt_kbits(p.kbits),
                fmt_accuracy(p.accuracy),
            ]);
        }
    }
    print!("{}", table.render());
    println!();
    let front_points = |points: &[ParetoPoint]| -> Vec<(f64, f64)> {
        pareto_front(points)
            .iter()
            .map(|p| (p.kbits, p.accuracy))
            .collect()
    };
    print!(
        "{}",
        ScatterChart::new(56, 12)
            .log_x()
            .series(Series::new("fcm", front_points(&fcm_points)))
            .series(Series::new("dfcm", front_points(&dfcm_points)))
            .render()
    );
    opts.emit(&table, "fig11b");

    // The paper's summary comparison: best accuracy at <= 200 Kbit.
    let best_at = |points: &[ParetoPoint], budget: f64| {
        points
            .iter()
            .filter(|p| p.kbits <= budget)
            .map(|p| p.accuracy)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    println!();
    for budget in [100.0, 200.0, 400.0, 1000.0] {
        let f = best_at(&fcm_points, budget);
        let d = best_at(&dfcm_points, budget);
        if f.is_finite() && d.is_finite() {
            println!(
                "  best <= {budget:>6.0} Kbit: FCM {:.3}, DFCM {:.3} ({:+.1}%)",
                f,
                d,
                100.0 * (d / f - 1.0)
            );
        }
    }
    println!();
    println!(
        "Check (paper): the DFCM front is .06-.09 above the FCM front except for the \
         smallest sizes; at ~200 Kbit the paper reports .66 vs .57 (+15%)."
    );
}
