//! Differential tests: the streaming pass must be bit-identical to the
//! classic predict-then-update reference loop — aggregate [`RunStats`]
//! and every per-record outcome — and the chunk-parallel variants must be
//! bit-identical to the serial streaming pass.

use dfcm::{
    DfcmPredictor, FcmPredictor, LastValuePredictor, StridePredictor, TwoDeltaStridePredictor,
    ValuePredictor,
};
use dfcm_sim::{simulate_trace, stream_records_with, stream_trace, RunStats, StreamPredictor};
use dfcm_trace::suite::standard_traces;
use dfcm_trace::{Trace, TraceRecord};
use proptest::prelude::*;

/// The four paper predictors plus two-delta, at eval-sized tables.
fn lanes() -> Vec<StreamPredictor> {
    vec![
        LastValuePredictor::new(10).into(),
        StridePredictor::new(10).into(),
        TwoDeltaStridePredictor::new(10).into(),
        FcmPredictor::builder()
            .l1_bits(10)
            .l2_bits(12)
            .build()
            .unwrap()
            .into(),
        DfcmPredictor::builder()
            .l1_bits(10)
            .l2_bits(12)
            .build()
            .unwrap()
            .into(),
    ]
}

/// The reference path: `simulate_trace` over a `dyn ValuePredictor`, with
/// every per-record outcome captured through the two-call protocol.
fn reference_outcomes(lane: &StreamPredictor, trace: &Trace) -> (RunStats, Vec<(u64, bool)>) {
    let mut p: Box<dyn ValuePredictor> = Box::new(lane.clone());
    let mut outcomes = Vec::with_capacity(trace.len());
    for record in trace {
        let predicted = p.predict(record.pc);
        p.update(record.pc, record.value);
        outcomes.push((predicted, predicted == record.value));
    }
    // Aggregate on a second cold copy through the public entry point, so
    // the test also covers `simulate_trace`'s own counting.
    let mut again: Box<dyn ValuePredictor> = Box::new(lane.clone());
    (simulate_trace(&mut again, trace), outcomes)
}

#[test]
fn streaming_pass_is_bit_identical_to_simulate_trace_over_full_suite() {
    // The full synthetic suite (small scale keeps the debug-build test
    // fast; every benchmark and every pattern archetype is exercised).
    for bench in standard_traces(0xD1FF, 0.02) {
        let mut streamed = lanes();
        let mut seen: Vec<Vec<(u64, bool)>> =
            vec![Vec::with_capacity(bench.trace.len()); streamed.len()];
        let stats = stream_records_with(&mut streamed, bench.trace.records(), |li, _, out| {
            seen[li].push((out.predicted, out.correct));
        });
        for (li, lane) in lanes().iter().enumerate() {
            let (ref_stats, ref_outcomes) = reference_outcomes(lane, &bench.trace);
            assert_eq!(
                stats[li],
                ref_stats,
                "{} on {}: RunStats diverged",
                lane.clone().name(),
                bench.name
            );
            assert_eq!(
                seen[li],
                ref_outcomes,
                "{} on {}: per-record outcomes diverged",
                lane.clone().name(),
                bench.name
            );
        }
    }
}

/// Lanes of every kind, interleaved and each with its own configuration:
/// the pass walks them one kind at a time, so a lane index swapped inside
/// a kind's group, or a group walked in lane order by mistake, shows up
/// as a lane with another lane's results.
const INTERLEAVED: [&str; 8] = [
    "dfcm:10:12",
    "lvp:8",
    "fcm:10:10",
    "2delta:8",
    "dfcm:8:8",
    "stride:8",
    "lvp:12",
    "fcm:8:12",
];

fn interleaved_lanes() -> Vec<StreamPredictor> {
    INTERLEAVED
        .iter()
        .map(|s| StreamPredictor::parse_spec(s).unwrap())
        .collect()
}

#[test]
fn interleaved_kinds_keep_their_lane_indices_over_full_suite() {
    for bench in standard_traces(0xD1FF, 0.02) {
        let mut streamed = interleaved_lanes();
        let mut seen: Vec<Vec<(usize, u64, bool)>> = vec![Vec::new(); streamed.len()];
        let stats = stream_records_with(&mut streamed, bench.trace.records(), |li, ri, out| {
            seen[li].push((ri, out.predicted, out.correct));
        });
        for (li, lane) in interleaved_lanes().iter().enumerate() {
            let spec = INTERLEAVED[li];
            let (ref_stats, ref_outcomes) = reference_outcomes(lane, &bench.trace);
            assert_eq!(stats[li], ref_stats, "{spec} on {}: RunStats", bench.name);
            let indices: Vec<usize> = seen[li].iter().map(|&(ri, _, _)| ri).collect();
            assert!(
                indices.iter().copied().eq(0..bench.trace.len()),
                "{spec} on {}: records seen out of order",
                bench.name
            );
            let outcomes: Vec<(u64, bool)> = seen[li].iter().map(|&(_, p, c)| (p, c)).collect();
            assert_eq!(
                outcomes, ref_outcomes,
                "{spec} on {}: per-record outcomes",
                bench.name
            );
        }
    }
}

#[test]
fn observed_file_pass_over_interleaved_kinds_matches_each_lane_alone() {
    use dfcm_obs::metrics::{MetricValue, MetricsSnapshot};
    use dfcm_obs::Obs;
    use dfcm_sim::{simulate_trace_observed, stream_trace_file};
    use dfcm_trace::TraceFormat;

    // Three v3 chunks, so the observer's chunk-end hook runs between
    // group walks more than once.
    let trace: Trace = standard_traces(0xD1FF, 0.02)
        .iter()
        .flat_map(|b| b.trace.records().iter().copied())
        .take(2 * dfcm_trace::V3_CHUNK_RECORDS + 777)
        .collect();
    let path = std::env::temp_dir().join("dfcm_stream_equiv_interleaved.v3.trc");
    trace
        .save_with(&path, TraceFormat::V3 { seed: 0xD1FF })
        .unwrap();
    let grouped = Obs::enabled();
    let mut lanes = interleaved_lanes();
    let report = stream_trace_file(&path, &mut lanes, 2, &grouped).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(report.chunks, 3);

    // The observer records the lanes' series in lane order.
    let series = grouped.series_snapshot();
    assert_eq!(series.len(), INTERLEAVED.len());
    let metrics = grouped.snapshot().1;
    let mut alone_metrics = MetricsSnapshot::default();
    for (li, mut lane) in interleaved_lanes().into_iter().enumerate() {
        let spec = INTERLEAVED[li];
        let alone = Obs::enabled();
        let stats = simulate_trace_observed(&mut lane, &trace, &alone, spec);
        assert_eq!(report.stats[li], stats, "{spec}: RunStats");
        assert_eq!(series[li].spec(), spec, "lane {li}: series spec");
        assert_eq!(
            series[li].to_jsonl(),
            alone.series_snapshot()[0].to_jsonl(),
            "{spec}: series.jsonl lines"
        );
        assert_eq!(
            metrics.get("eval_accuracy", &[("spec", spec)]),
            Some(&MetricValue::Gauge(stats.accuracy())),
            "{spec}: eval_accuracy"
        );
        // Specs are distinct, so merging the lanes' snapshots is a union.
        alone_metrics.merge(&alone.snapshot().1);
    }
    // Every table, alias and accuracy metric carries its own lane's spec
    // and value.
    assert_eq!(metrics, alone_metrics);
}

#[test]
fn v3_file_streaming_is_bit_identical_to_v2_over_full_suite() {
    // The differential guarantee from the v3 tier: for every suite
    // benchmark, streaming the compressed v3 file — at one thread and at
    // several — produces the same records and the same RunStats as the
    // v2 path and the in-memory pass.
    use dfcm_obs::Obs;
    use dfcm_sim::{stream_trace_file, stream_v2_file, stream_v3_file};
    use dfcm_trace::TraceFormat;

    let dir = std::env::temp_dir().join("dfcm_stream_equiv_v3");
    std::fs::create_dir_all(&dir).unwrap();
    for bench in standard_traces(0xD1FF, 0.02) {
        let v2_path = dir.join(format!("{}.v2.trc", bench.name));
        let v3_path = dir.join(format!("{}.v3.trc", bench.name));
        bench
            .trace
            .save_with(&v2_path, TraceFormat::V2 { seed: 0xD1FF })
            .unwrap();
        bench
            .trace
            .save_with(&v3_path, TraceFormat::V3 { seed: 0xD1FF })
            .unwrap();

        let mut memory = lanes();
        let expected = stream_trace(&mut memory, &bench.trace);
        let mut v2 = lanes();
        let v2_report = stream_v2_file(&v2_path, &mut v2, 3).unwrap();
        assert_eq!(
            v2_report.stats, expected,
            "{}: v2 path diverged",
            bench.name
        );
        for threads in [1, 3] {
            let mut v3 = lanes();
            let v3_report = stream_v3_file(&v3_path, &mut v3, threads).unwrap();
            assert_eq!(
                v3_report.stats, expected,
                "{}: v3 path diverged at {} threads",
                bench.name, threads
            );
            assert_eq!(v3_report.records, v2_report.records, "{}", bench.name);
            let mut sniffed = lanes();
            let auto =
                stream_trace_file(&v3_path, &mut sniffed, threads, &Obs::disabled()).unwrap();
            assert_eq!(auto, v3_report, "{}: sniffer diverged", bench.name);
        }
        let _ = std::fs::remove_file(&v2_path);
        let _ = std::fs::remove_file(&v3_path);
    }
    let _ = std::fs::remove_dir(&dir);
}

/// A generated trace: bounded pc/value alphabets keep collisions (the
/// interesting case for table-indexed predictors) frequent.
fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u64..4096, 0u64..64), 0..600).prop_map(|v| {
        v.into_iter()
            .map(|(pc, value)| TraceRecord::new(pc & !3, value.wrapping_mul(0x9E37)))
            .collect()
    })
}

/// One lane of a given kind, at deliberately tiny table sizes (`bits`)
/// so aliasing and history collisions happen inside short random traces.
fn lane_for(kind: usize, bits: u32) -> StreamPredictor {
    match kind {
        0 => LastValuePredictor::new(bits).into(),
        1 => StridePredictor::new(bits).into(),
        2 => TwoDeltaStridePredictor::new(bits).into(),
        3 => FcmPredictor::builder()
            .l1_bits(bits)
            .l2_bits(bits + 3)
            .build()
            .unwrap()
            .into(),
        _ => DfcmPredictor::builder()
            .l1_bits(bits)
            .l2_bits(bits + 3)
            .build()
            .unwrap()
            .into(),
    }
}

/// Up to five lanes of random kinds, interleaved, each with its own
/// table size: two lanes of one kind usually differ.
fn arb_lanes() -> impl Strategy<Value = Vec<(usize, u32)>> {
    prop::collection::vec((0usize..5, 2u32..5), 1..6)
}

proptest! {
    /// Streaming a trace chunk by chunk through the same lanes agrees
    /// with one serial pass for every predictor kind, any chunk size
    /// (including chunks larger than the trace and traces shorter than
    /// one chunk), and random traces: lane state carries across chunks.
    #[test]
    fn chunked_and_serial_streaming_agree(
        trace in arb_trace(),
        chunk in 1usize..700,
        kinds in arb_lanes(),
    ) {
        let base: Vec<StreamPredictor> = kinds.iter().map(|&(k, b)| lane_for(k, b)).collect();
        let mut serial = base.clone();
        let mut chunked = base.clone();
        let expected = stream_trace(&mut serial, &trace);
        let mut got = vec![RunStats::default(); base.len()];
        for records in trace.chunks(chunk) {
            let part = stream_records_with(&mut chunked, records, |_, _, _| {});
            for (total, stats) in got.iter_mut().zip(part) {
                total.merge(stats);
            }
        }
        prop_assert_eq!(got, expected);
    }

    /// The streaming pass agrees with per-lane `simulate_trace` on random
    /// traces for every predictor kind.
    #[test]
    fn streaming_and_reference_agree(
        trace in arb_trace(),
        kinds in arb_lanes(),
    ) {
        let mut streamed: Vec<StreamPredictor> =
            kinds.iter().map(|&(k, b)| lane_for(k, b)).collect();
        let stats = stream_trace(&mut streamed, &trace);
        for (li, &(k, b)) in kinds.iter().enumerate() {
            let mut reference = lane_for(k, b);
            prop_assert_eq!(stats[li], simulate_trace(&mut reference, &trace));
        }
    }
}
