//! Extension experiment: how much accuracy do finite tables and lossy
//! hashing cost?
//!
//! §4.2 ends with the observation that even after the DFCM's improvement,
//! hash aliasing still causes the majority of mispredictions — "there is
//! still plenty of room for improvement". This experiment quantifies that
//! room by comparing each real predictor against an
//! [`IdealContextPredictor`] of matching
//! order: per-instruction, unbounded, collision-free context tables. The
//! residual gap between the real predictor and its oracle is exactly the
//! loss to level-1 aliasing + hashing + capacity (minus any constructive
//! cross-instruction sharing the oracle forgoes).

use dfcm::{AnalyzedKind, HashFunction, IdealContextPredictor};
use dfcm_sim::report::{fmt_accuracy, TextTable};

use crate::common::{banner, Options};

/// Runs the room-for-improvement analysis.
pub fn run(opts: &Options) {
    banner(
        "Extension (§4.2): room for improvement vs ideal context tables",
        "Ideal = per-instruction, unbounded, collision-free tables of the same order.",
    );
    let traces = opts.traces();
    let l2s = [12u32, 16];
    let mut run = opts.experiment("ideal");
    let fcm = run.lanes("fcm", &l2s, |l2| format!("fcm:16:{l2}"));
    let dfcm = run.lanes("dfcm", &l2s, |l2| format!("dfcm:16:{l2}"));
    let oracles: Vec<(AnalyzedKind, u32)> = [AnalyzedKind::Fcm, AnalyzedKind::Dfcm]
        .into_iter()
        .flat_map(|kind| l2s.map(|l2| (kind, l2)))
        .collect();
    let ideal = run.sweep("ideal", &traces, &oracles, |&(kind, l2)| {
        IdealContextPredictor::new(kind, HashFunction::FsR5.order(l2) as usize)
    });
    run.finish();
    let mut table = TextTable::new(vec!["predictor", "accuracy", "ideal", "gap"]);
    for (real, ideal) in fcm.iter().chain(&dfcm).zip(&ideal) {
        let (kind, l2) = ideal.config;
        let label = match kind {
            AnalyzedKind::Fcm => "fcm",
            AnalyzedKind::Dfcm => "dfcm",
        };
        let order = HashFunction::FsR5.order(l2);
        let (r, i) = (real.accuracy(), ideal.accuracy());
        table.row(vec![
            format!("{label}(2^16/2^{l2}, order {order})"),
            fmt_accuracy(r),
            fmt_accuracy(i),
            format!("{:+.3}", i - r),
        ]);
    }
    print!("{}", table.render());
    opts.emit(&table, "ideal");
    println!();
    println!(
        "Check (paper §4.2): real predictors sit well below their collision-free \
         oracles — the remaining gap is the aliasing/capacity loss the paper says \
         leaves 'plenty of room for improvement'."
    );
}
