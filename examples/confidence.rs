//! Confidence-gated value speculation: the §4.2 extension end to end.
//!
//! Shows the coverage/accuracy dial of the tagged DFCM and what it means
//! in cycles under the first-order speculation model. One DFCM per
//! benchmark, with table stats on, counts its predictions by the
//! estimator's verdict at every tag width and threshold.
//!
//! Run with: `cargo run --release --example confidence [penalty]`

use dfcm_suite::predictors::{ConfidenceBreakdown, DfcmPredictor, ValuePredictor};
use dfcm_suite::sim::speculation::SpeculationModel;
use dfcm_suite::sim::{simulate_trace, RunStats};
use dfcm_suite::trace::suite::standard_traces;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let penalty: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);
    let model = SpeculationModel {
        benefit: 1.0,
        penalty,
    };
    println!(
        "speculation model: +1 cycle per correct issue, -{penalty:.0} per squash \
         (break-even issued accuracy {:.1}%)\n",
        100.0 * model.break_even_accuracy()
    );

    let traces = standard_traces(42, 0.05);
    println!(
        "{:<26} {:>9} {:>11} {:>10}",
        "policy", "coverage", "issued acc", "net/1000"
    );
    println!("{}", "-".repeat(60));

    // One pass per benchmark: every policy reads its counts.
    let mut per_bench: Vec<ConfidenceBreakdown> = Vec::new();
    for bench in &traces {
        let mut p = DfcmPredictor::builder().l1_bits(14).l2_bits(12).build()?;
        p.enable_table_stats();
        simulate_trace(&mut p, &bench.trace);
        per_bench.extend(p.table_stats().and_then(|s| s.confidence));
    }
    let stats = |(predictions, correct)| RunStats {
        predictions,
        correct,
    };

    // Unconditional DFCM: every prediction is an issued one.
    let mut all = 0.0;
    let mut total = RunStats::default();
    for confidence in &per_bench {
        let issued = stats(confidence.all());
        all += model.net_cycles(issued);
        total.merge(issued);
    }
    println!(
        "{:<26} {:>8.1}% {:>10.1}% {:>+10.1}",
        "dfcm, issue everything",
        100.0,
        100.0 * total.accuracy(),
        1000.0 * all / total.predictions as f64
    );

    // Tagged DFCM across thresholds.
    for (tag_bits, threshold) in [(0u32, 1u8), (4, 1), (4, 3), (8, 3)] {
        let mut net = 0.0;
        let mut issued = RunStats::default();
        for confidence in &per_bench {
            let gated = stats(confidence.issued(tag_bits, threshold));
            net += model.net_cycles(gated);
            issued.merge(gated);
        }
        println!(
            "{:<26} {:>8.1}% {:>10.1}% {:>+10.1}",
            format!("tagged t{tag_bits} conf>={threshold}"),
            100.0 * issued.predictions as f64 / total.predictions as f64,
            100.0 * issued.accuracy(),
            1000.0 * net / total.predictions as f64
        );
    }

    println!(
        "\nRaise the tag width / threshold to trade coverage for issued accuracy; \
         \nthe profitable frontier moves with the squash penalty (try `-- 30`)."
    );
    Ok(())
}
