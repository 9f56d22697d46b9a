//! Extension experiment: first-order speculation benefit.
//!
//! The paper motivates value prediction with ILP but evaluates accuracy
//! only. This experiment closes the loop with the standard first-order
//! model: a correct issued prediction saves `benefit` cycles, a wrong one
//! costs `penalty` cycles. It compares unconditional issue (FCM, DFCM)
//! against the §4.2 tagged-DFCM confidence estimator across penalty
//! regimes — showing both why the DFCM's accuracy advantage matters and
//! why confidence estimation becomes essential as squash costs grow.

use dfcm::TaggedDfcmPredictor;
use dfcm_sim::report::{fmt_accuracy, TextTable};
use dfcm_sim::speculation::SpeculationModel;
use dfcm_sim::{simulate_confidence, ConfidenceStats, SweepPoint};

use crate::common::{banner, Options};

/// An always-issuing policy's per-benchmark stats: every prediction is
/// issued.
fn issue_all(points: &[SweepPoint<()>]) -> Vec<ConfidenceStats> {
    points[0]
        .result
        .benchmarks
        .iter()
        .map(|b| ConfidenceStats {
            all: b.stats,
            issued: b.stats,
        })
        .collect()
}

/// Runs the speculation-benefit analysis.
///
/// The penalty only enters [`SpeculationModel::net_cycles`], so each
/// policy is simulated once per benchmark and every penalty is applied to
/// those per-benchmark stats, in suite order.
pub fn run(opts: &Options) {
    banner(
        "Extension: first-order speculation benefit (2^16/2^12)",
        "Net cycles saved per 1000 predicted instructions; benefit = 1 cycle per hit.",
    );
    let traces = opts.traces();
    let mut run = opts.experiment("speedup");
    let fcm = run.lanes("fcm", &[()], |()| "fcm:16:12".to_owned());
    let dfcm = run.lanes("dfcm", &[()], |()| "dfcm:16:12".to_owned());
    run.finish();
    // The confidence-gated policy reads each prediction's confidence, so
    // it keeps its own per-record loop.
    let tagged = traces
        .iter()
        .map(|bench| {
            let mut p = TaggedDfcmPredictor::builder()
                .l1_bits(16)
                .l2_bits(12)
                .build()
                .expect("valid");
            simulate_confidence(&mut p, &bench.trace)
        })
        .collect();
    let policies: [(&str, Vec<ConfidenceStats>); 3] = [
        ("fcm, always", issue_all(&fcm)),
        ("dfcm, always", issue_all(&dfcm)),
        ("dfcm+tag, confident", tagged),
    ];
    let mut table = TextTable::new(vec![
        "penalty",
        "issue policy",
        "coverage",
        "issued acc",
        "net/1000",
    ]);
    for penalty in [0.0f64, 3.0, 10.0, 30.0] {
        let model = SpeculationModel {
            benefit: 1.0,
            penalty,
        };
        for (label, per_bench) in &policies {
            let mut stats = ConfidenceStats::default();
            let mut net = 0.0;
            for bench in per_bench {
                stats.all.merge(bench.all);
                stats.issued.merge(bench.issued);
                net += model.net_cycles(bench.issued);
            }
            table.row(vec![
                format!("{penalty:.0}"),
                (*label).to_owned(),
                fmt_accuracy(stats.coverage()),
                fmt_accuracy(stats.issued_accuracy()),
                format!("{:+.1}", 1000.0 * net / stats.all.predictions.max(1) as f64),
            ]);
        }
    }
    print!("{}", table.render());
    opts.emit(&table, "speedup");
    println!();
    println!(
        "Check: with no squash cost, wide issue wins; as the penalty grows, \
         unconditional issue goes negative while the confidence-gated DFCM \
         stays profitable (break-even issued accuracy = penalty/(1+penalty))."
    );
}
