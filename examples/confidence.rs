//! Confidence-gated value speculation: the §4.2 extension end to end.
//!
//! Shows the coverage/accuracy dial of the tagged DFCM and what it means
//! in cycles under the first-order speculation model.
//!
//! Run with: `cargo run --release --example confidence [penalty]`

use dfcm_suite::predictors::{DfcmPredictor, TaggedDfcmPredictor};
use dfcm_suite::sim::speculation::SpeculationModel;
use dfcm_suite::sim::{simulate_confidence, simulate_trace};
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

    // Unconditional DFCM.
    let mut all = 0.0;
    let mut predictions = 0u64;
    let mut coverage_stats = (0u64, 0u64);
    for bench in &traces {
        let mut p = DfcmPredictor::builder().l1_bits(14).l2_bits(12).build()?;
        // Issuing everything: every prediction is an issued one.
        let stats = simulate_trace(&mut p, &bench.trace);
        all += model.net_cycles(stats);
        predictions += stats.predictions;
        coverage_stats.0 += stats.predictions;
        coverage_stats.1 += stats.correct;
    }
    println!(
        "{:<26} {:>8.1}% {:>10.1}% {:>+10.1}",
        "dfcm, issue everything",
        100.0,
        100.0 * coverage_stats.1 as f64 / coverage_stats.0 as f64,
        1000.0 * all / predictions as f64
    );

    // Tagged DFCM across thresholds.
    for (tag_bits, threshold) in [(0u32, 1u8), (4, 1), (4, 3), (8, 3)] {
        let mut net = 0.0;
        let mut n = 0u64;
        let mut issued = (0u64, 0u64);
        for bench in &traces {
            let mut p = TaggedDfcmPredictor::builder()
                .l1_bits(14)
                .l2_bits(12)
                .tag_bits(tag_bits)
                .conf_threshold(threshold)
                .build()?;
            let stats = simulate_confidence(&mut p, &bench.trace);
            net += model.net_cycles(stats.issued);
            n += stats.all.predictions;
            issued.0 += stats.issued.predictions;
            issued.1 += stats.issued.correct;
        }
        println!(
            "{:<26} {:>8.1}% {:>10.1}% {:>+10.1}",
            format!("tagged t{tag_bits} conf>={threshold}"),
            100.0 * issued.0 as f64 / n as f64,
            100.0 * issued.1 as f64 / issued.0.max(1) as f64,
            1000.0 * net / n as f64
        );
    }

    println!(
        "\nRaise the tag width / threshold to trade coverage for issued accuracy; \
         \nthe profitable frontier moves with the squash penalty (try `-- 30`)."
    );
    Ok(())
}
