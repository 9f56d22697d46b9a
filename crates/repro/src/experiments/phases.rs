//! Extension experiment: sensitivity to program phase changes.
//!
//! The paper evaluates steady traces; real programs move through phases.
//! When a phase change redirects the *same static instructions* to new
//! behaviour, every history-based predictor pays a re-learning cost and
//! the level-2 table churns. This experiment interleaves two synthetic
//! programs in bursts of varying length and measures how both predictors'
//! accuracy recovers as bursts grow — and whether the DFCM's advantage
//! survives phase pressure.

use dfcm_sim::chart::{ScatterChart, Series};
use dfcm_sim::report::{fmt_accuracy, TextTable};
use dfcm_sim::{stream_records_with, RunStats, StreamPredictor, STREAM_CHUNK_RECORDS};
use dfcm_trace::suite::standard_suite;
use dfcm_trace::{PhasedProgram, TraceSource};

use crate::common::{banner, Options};

/// The lanes every burst length runs, in this order: FCM and DFCM.
const LANES: [&str; 2] = ["fcm:16:12", "dfcm:16:12"];

/// The burst length whose run is also charted over time.
const TIMELINE_BURST: usize = 10_000;

/// Runs the phase-sensitivity analysis.
pub fn run(opts: &Options) {
    banner(
        "Extension: accuracy under program phase changes (2^16/2^12)",
        "Two benchmark programs interleaved in bursts; both reuse the same PC space.",
    );
    let records = ((opts.scale * 4_000_000.0) as usize).clamp(20_000, 4_000_000);
    let suite = standard_suite();
    let ijpeg = suite.iter().find(|b| b.name() == "ijpeg").expect("ijpeg");
    let li = suite.iter().find(|b| b.name() == "li").expect("li");

    // Accuracy over time at one burst length (the re-learning sawtooth)
    // is read off the first records of that burst length's run.
    let window = 2_000usize;
    let timeline_records = records.min(20 * TIMELINE_BURST);
    let mut timeline = Vec::new();
    let mut table = TextTable::new(vec!["burst", "FCM", "DFCM", "gain"]);
    for burst in [100usize, 1_000, TIMELINE_BURST, 100_000] {
        let mut source = PhasedProgram::new(vec![
            (ijpeg.program(opts.seed), burst),
            (li.program(opts.seed), burst),
        ]);
        let charted = if burst == TIMELINE_BURST {
            timeline_records
        } else {
            0
        };
        let (stats, windows) = stream_lanes(&mut source, records, charted, window);
        let (f, d) = (stats[0].accuracy(), stats[1].accuracy());
        table.row(vec![
            burst.to_string(),
            fmt_accuracy(f),
            fmt_accuracy(d),
            format!("{:+.1}%", 100.0 * (d / f - 1.0)),
        ]);
        if charted > 0 {
            timeline = windows;
        }
    }
    print!("{}", table.render());
    opts.emit(&table, "phases");

    let mut chart = ScatterChart::new(64, 10).y_range(0.0, 1.0);
    for (windows, name) in timeline.iter().zip(["fcm", "dfcm"]) {
        let points: Vec<(f64, f64)> = windows
            .iter()
            .enumerate()
            .map(|(i, w)| ((i * window) as f64, w.accuracy()))
            .collect();
        chart = chart.series(Series::new(name, points));
    }
    println!();
    println!("accuracy over time (burst {TIMELINE_BURST}, window {window}):");
    print!("{}", chart.render());
    println!();
    println!(
        "Check: short bursts (frequent phase switches) depress both predictors; \
         accuracy recovers as bursts lengthen, and the DFCM stays ahead at every \
         phase granularity."
    );
}

/// Streams up to `records` records of `source` through the [`LANES`] in
/// [`STREAM_CHUNK_RECORDS`]-record chunks, so one generation feeds both
/// lanes. Returns each lane's totals and, over the first `charted`
/// records, its statistics per `window` records (the last window may be
/// shorter).
fn stream_lanes(
    source: &mut impl TraceSource,
    records: usize,
    charted: usize,
    window: usize,
) -> (Vec<RunStats>, Vec<Vec<RunStats>>) {
    let mut lanes: Vec<StreamPredictor> = LANES
        .iter()
        .map(|spec| StreamPredictor::parse_spec(spec).expect("valid spec"))
        .collect();
    let mut totals = vec![RunStats::default(); lanes.len()];
    let mut windows = vec![vec![RunStats::default(); charted.div_ceil(window)]; lanes.len()];
    let mut chunk = Vec::with_capacity(STREAM_CHUNK_RECORDS);
    let mut done = 0;
    while done < records {
        chunk.clear();
        let n = STREAM_CHUNK_RECORDS.min(records - done);
        chunk.extend(std::iter::from_fn(|| source.next_record()).take(n));
        if chunk.is_empty() {
            break;
        }
        let stats = stream_records_with(&mut lanes, &chunk, |li, ri, outcome| {
            let index = done + ri;
            if index < charted {
                let w = &mut windows[li][index / window];
                w.predictions += 1;
                w.correct += u64::from(outcome.correct);
            }
        });
        for (total, s) in totals.iter_mut().zip(stats) {
            total.merge(s);
        }
        done += chunk.len();
    }
    (totals, windows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfcm_trace::{Pattern, SyntheticProgram, Trace, TraceRecord};

    #[test]
    fn windows_partition_the_run() {
        let trace: Trace = (0..95).map(|i| TraceRecord::new(4, i % 3)).collect();
        let (totals, windows) = stream_lanes(&mut trace.source(), 95, 95, 10);
        for (total, windows) in totals.iter().zip(&windows) {
            assert_eq!(windows.len(), 10);
            assert!(windows[..9].iter().all(|w| w.predictions == 10));
            assert_eq!(windows[9].predictions, 5);
            let correct: u64 = windows.iter().map(|w| w.correct).sum();
            assert_eq!(correct, total.correct);
            assert_eq!(total.predictions, 95);
        }
    }

    #[test]
    fn warmup_shows_in_first_window() {
        // A stride stream: the DFCM's first window carries the cold
        // misses, later windows are perfect.
        let trace: Trace = (0..1000).map(|i| TraceRecord::new(4, 3 * i)).collect();
        let (_, windows) = stream_lanes(&mut trace.source(), 1000, 1000, 100);
        let dfcm = &windows[1];
        assert!(dfcm[0].accuracy() < dfcm[5].accuracy());
        assert_eq!(dfcm[5].accuracy(), 1.0);
    }

    #[test]
    fn phase_switches_show_as_dips() {
        let a = SyntheticProgram::builder(1)
            .inst(Pattern::Periodic(vec![1, 2, 3, 4]), 1)
            .build();
        let b = SyntheticProgram::builder(2)
            .inst(Pattern::Periodic(vec![9, 9, 5, 7, 2]), 1)
            .build();
        let mut phased = PhasedProgram::new(vec![(a, 500), (b, 500)]);
        let (_, windows) = stream_lanes(&mut phased, 4000, 4000, 100);
        // Windows right after a switch (indices 5, 10, 15, ...) must be
        // worse than the settled windows before the next switch.
        for (lane, windows) in LANES.iter().zip(&windows) {
            let dip = windows[5].accuracy();
            let settled = windows[9].accuracy();
            assert!(
                dip < settled,
                "{lane}: post-switch dip {dip:.3} vs settled {settled:.3}"
            );
        }
    }

    #[test]
    fn truncates_at_source_end() {
        let trace: Trace = (0..30).map(|i| TraceRecord::new(0, i)).collect();
        let (totals, windows) = stream_lanes(&mut trace.source(), 1000, 1000, 20);
        assert_eq!(totals[0].predictions, 30);
        assert_eq!(windows[0][0].predictions, 20);
        assert_eq!(windows[0][1].predictions, 10);
        assert!(windows[0][2..].iter().all(|w| w.predictions == 0));
    }
}
