//! Differential tests: the streaming pass must make every per-record
//! prediction of the naive model of the paper's predictors
//! (`tests/support/oracle.rs` at the workspace root) and the aggregate
//! [`RunStats`] of `simulate_trace`, and the chunk-parallel and file
//! variants must be bit-identical to the serial streaming pass.

// `Model::production` builds `dyn` predictors for the engine tests; the
// lanes here are built from specs.
#[allow(dead_code)]
#[path = "../../../tests/support/oracle.rs"]
mod oracle;

use dfcm as predictors;
use dfcm::{
    DfcmPredictor, FcmPredictor, LastValuePredictor, StridePredictor, TwoDeltaStridePredictor,
    ValuePredictor,
};
use dfcm_obs::Obs;
use dfcm_sim::{
    simulate_trace, stream_records_with, stream_trace, stream_trace_file, RunStats, StreamPredictor,
};
use dfcm_trace::suite::standard_traces;
use dfcm_trace::{Trace, TraceFormat, TraceFormatError, TraceRecord, V2_CHUNK_RECORDS};
use oracle::{Model, Oracle};
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

/// The oracle model of `lane`, read off its spec: every lane here is
/// built as its spec builds it (FS R-5, full-width differences).
fn model(lane: &StreamPredictor) -> Model {
    let spec = lane.spec();
    let size: Vec<u32> = spec
        .split(':')
        .skip(1)
        .map(|f| f.parse().unwrap())
        .collect();
    match lane {
        StreamPredictor::Lvp(_) => Model::Lvp { bits: size[0] },
        StreamPredictor::Stride(_) => Model::Stride { bits: size[0] },
        StreamPredictor::TwoDelta(_) => Model::TwoDelta { bits: size[0] },
        StreamPredictor::Fcm(_) => Model::Fcm {
            l1: size[0],
            l2: size[1],
        },
        StreamPredictor::Dfcm(_) => Model::Dfcm {
            l1: size[0],
            l2: size[1],
            width: None,
        },
    }
}

/// The reference path: `simulate_trace` over a `dyn ValuePredictor` for
/// the aggregate, and the naive model of the lane for every per-record
/// outcome, which shares no code with the production tables.
fn reference_outcomes(lane: &StreamPredictor, trace: &Trace) -> (RunStats, Vec<(u64, bool)>) {
    let mut naive = Oracle::new(model(lane));
    let outcomes = trace
        .iter()
        .map(|r| {
            let predicted = naive.access(r.pc, r.value);
            (predicted, predicted == r.value)
        })
        .collect();
    let mut p: Box<dyn ValuePredictor> = Box::new(lane.clone());
    (simulate_trace(&mut p, trace), outcomes)
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
    assert_eq!(report.chunks, 3);

    // The observer records the lanes' series in lane order.
    let series = grouped.series_snapshot();
    assert_eq!(series.len(), INTERLEAVED.len());
    let metrics = grouped.snapshot().1;
    let mut alone_metrics = MetricsSnapshot::default();
    for (li, lane) in interleaved_lanes().into_iter().enumerate() {
        let spec = INTERLEAVED[li];
        let alone = Obs::enabled();
        let stats = stream_trace_file(&path, &mut [lane], 2, &alone)
            .unwrap()
            .stats[0];
        assert_eq!(report.stats[li], stats, "{spec}: RunStats");
        assert_eq!(
            stats,
            reference_outcomes(&interleaved_lanes()[li], &trace).0
        );
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
    let _ = std::fs::remove_file(&path);
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
    use dfcm_sim::{stream_v2_file, stream_v3_file};

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

/// One lane of a given kind, at deliberately tiny table sizes so
/// aliasing and history collisions happen inside short random traces:
/// `l1` sizes the one table of lvp and the stride predictors and the
/// level-1 table of fcm and dfcm, `l2` the level-2 table.
fn lane_for(kind: usize, l1: u32, l2: u32) -> StreamPredictor {
    match kind {
        0 => LastValuePredictor::new(l1).into(),
        1 => StridePredictor::new(l1).into(),
        2 => TwoDeltaStridePredictor::new(l1).into(),
        3 => FcmPredictor::builder()
            .l1_bits(l1)
            .l2_bits(l2)
            .build()
            .unwrap()
            .into(),
        _ => DfcmPredictor::builder()
            .l1_bits(l1)
            .l2_bits(l2)
            .build()
            .unwrap()
            .into(),
    }
}

/// One to five lanes of random kinds, and inserted among them at random
/// places a sweep of up to six fcm or dfcm lanes that share a level-1
/// size and differ in level-2 size (the figures' shape; four or more
/// dfcm lanes make a block). Level-1 and level-2 sizes are drawn apart
/// from two small ranges, so the random lanes join the sweep's level-1
/// size now and then too.
fn arb_lanes() -> impl Strategy<Value = Vec<(usize, u32, u32)>> {
    (
        prop::collection::vec((0usize..5, 2u32..5, 2u32..8), 1..6),
        3usize..5,
        2u32..5,
        prop::collection::vec((2u32..8, 0usize..12), 0..7),
    )
        .prop_map(|(mut lanes, kind, l1, sweep)| {
            for (l2, at) in sweep {
                lanes.insert(at.min(lanes.len()), (kind, l1, l2));
            }
            lanes
        })
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
        let base: Vec<StreamPredictor> =
            kinds.iter().map(|&(k, l1, l2)| lane_for(k, l1, l2)).collect();
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
            kinds.iter().map(|&(k, l1, l2)| lane_for(k, l1, l2)).collect();
        let stats = stream_trace(&mut streamed, &trace);
        for (li, &(k, l1, l2)) in kinds.iter().enumerate() {
            let mut reference = lane_for(k, l1, l2);
            prop_assert_eq!(stats[li], simulate_trace(&mut reference, &trace));
            prop_assert_eq!(streamed[li].state_words(), reference.state_words());
        }
    }
}

/// The figures' sweep shape: fcm and dfcm lanes at one level-1 size over
/// seven level-2 sizes (the dfcm sweep is a block of four and three lanes
/// in the kind's group), with lanes of the other kinds and of another
/// level-1 size between them.
const SWEEP: [&str; 18] = [
    "dfcm:8:6",
    "fcm:8:6",
    "lvp:8",
    "dfcm:8:7",
    "fcm:8:7",
    "dfcm:8:8",
    "fcm:8:8",
    "dfcm:6:9",
    "dfcm:8:9",
    "fcm:8:9",
    "stride:8",
    "dfcm:8:10",
    "fcm:8:10",
    "dfcm:8:11",
    "fcm:8:11",
    "dfcm:8:12",
    "fcm:8:12",
    "2delta:8",
];

/// [`SWEEP`]'s lanes, and last a `Bits(8)` dfcm lane of the sweep's
/// level-1 size, which runs on the general path beside the blocks.
fn sweep_lanes() -> Vec<StreamPredictor> {
    let mut lanes: Vec<StreamPredictor> = SWEEP
        .iter()
        .map(|spec| StreamPredictor::parse_spec(spec).unwrap())
        .collect();
    let narrow = DfcmPredictor::builder()
        .l1_bits(8)
        .l2_bits(12)
        .stride_width(dfcm::StrideWidth::Bits(8))
        .build()
        .unwrap();
    lanes.insert(9, narrow.into());
    lanes
}

/// The suite at scale 0.02 as one trace.
fn suite_trace() -> Trace {
    standard_traces(0xD1FF, 0.02)
        .iter()
        .flat_map(|b| b.trace.records().iter().copied())
        .collect()
}

#[test]
fn sweep_pass_leaves_every_lane_as_streaming_it_alone_would() {
    // A dfcm block steps four lanes per record and the rest of the sweep
    // walks in the kind's group; each lane must still end up holding
    // exactly its own full state, `last` included.
    let trace = suite_trace();
    let mut swept = sweep_lanes();
    for chunk in trace.chunks(dfcm_trace::V2_CHUNK_RECORDS) {
        stream_records_with(&mut swept, chunk, |_, _, _| {});
    }
    for (li, mut alone) in sweep_lanes().into_iter().enumerate() {
        stream_trace(std::slice::from_mut(&mut alone), &trace);
        assert_eq!(
            swept[li].state_words(),
            alone.state_words(),
            "{}: lane state after the sweep pass",
            alone.name()
        );
    }
}

#[test]
fn lanes_warmed_apart_then_swept_together_match_each_lane_alone() {
    // Each lane first sees its own prefix of the suite, so the lanes meet
    // the shared pass with different `last` values in many level-1
    // entries; a block shares only the level-1 index, so each lane must
    // still predict from its own `last` there.
    let trace = suite_trace();
    let records = trace.records();
    let (warmup, rest) = records.split_at(records.len() / 2);
    let mut warmed = sweep_lanes();
    let n = warmed.len();
    for (li, lane) in warmed.iter_mut().enumerate() {
        let prefix = &warmup[..warmup.len() * (li + 1) / n];
        stream_records_with(std::slice::from_mut(lane), prefix, |_, _, _| {});
    }
    let mut together = warmed.clone();
    let mut seen: Vec<Vec<(u64, bool)>> = vec![Vec::with_capacity(rest.len()); n];
    stream_records_with(&mut together, rest, |li, _, out| {
        seen[li].push((out.predicted, out.correct));
    });
    for (li, mut alone) in warmed.into_iter().enumerate() {
        let mut want = Vec::with_capacity(rest.len());
        stream_records_with(std::slice::from_mut(&mut alone), rest, |_, _, out| {
            want.push((out.predicted, out.correct));
        });
        if let Some(i) = (0..rest.len()).find(|&i| seen[li][i] != want[i]) {
            panic!(
                "{}: record {i} swept {:?}, alone {:?}",
                alone.name(),
                seen[li][i],
                want[i]
            );
        }
        assert_eq!(
            together[li].state_words(),
            alone.state_words(),
            "{}",
            alone.name()
        );
    }
}

#[test]
fn corrupt_second_chunk_leaves_every_lane_after_the_first() {
    // `stream_v2_file`'s contract: the lanes consume the intact chunks
    // before a corrupt one. With two chunks and the last byte of the
    // file (the second chunk's payload) flipped, every lane must hold
    // exactly the state of that lane fed the first chunk alone.
    use dfcm_sim::{stream_v2_file, stream_v3_file};

    let trace: Trace = suite_trace().iter().copied().take(100_000).collect();
    let first = &trace.records()[..dfcm_trace::V2_CHUNK_RECORDS];
    let mut want = sweep_lanes();
    stream_records_with(&mut want, first, |_, _, _| {});
    let dir = std::env::temp_dir();
    for (name, format) in [
        ("dfcm_corrupt_second.v2.trc", TraceFormat::V2 { seed: 5 }),
        ("dfcm_corrupt_second.v3.trc", TraceFormat::V3 { seed: 5 }),
    ] {
        let mut bytes = Vec::new();
        trace.write_with(&mut bytes, format).unwrap();
        *bytes.last_mut().unwrap() ^= 0x40;
        let path = dir.join(name);
        dfcm_trace::atomic_write(&path, &bytes).unwrap();
        for threads in [1, 4] {
            let mut lanes = sweep_lanes();
            let err = match format {
                TraceFormat::V2 { .. } => stream_v2_file(&path, &mut lanes, threads),
                _ => stream_v3_file(&path, &mut lanes, threads),
            }
            .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}");
            for (li, lane) in lanes.iter().enumerate() {
                assert_eq!(
                    lane.state_words(),
                    want[li].state_words(),
                    "{name} at {threads} threads: {}",
                    lane.name()
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// The lanes the damaged-file cases stream, one of each kind.
const DAMAGE_LANES: [&str; 5] = ["lvp:8", "stride:8", "2delta:8", "fcm:8:10", "dfcm:8:10"];

fn damage_lanes() -> Vec<StreamPredictor> {
    DAMAGE_LANES
        .iter()
        .map(|s| StreamPredictor::parse_spec(s).unwrap())
        .collect()
}

/// A three-chunk trace as v2 and as v3 bytes, encoded once for every
/// damaged-file case.
fn damage_bases() -> &'static [Vec<u8>; 2] {
    static BASES: std::sync::OnceLock<[Vec<u8>; 2]> = std::sync::OnceLock::new();
    BASES.get_or_init(|| {
        let trace: Trace = suite_trace()
            .iter()
            .copied()
            .take(2 * V2_CHUNK_RECORDS + 777)
            .collect();
        [TraceFormat::V2 { seed: 3 }, TraceFormat::V3 { seed: 3 }].map(|format| {
            let mut bytes = Vec::new();
            trace.write_with(&mut bytes, format).unwrap();
            bytes
        })
    })
}

/// What a failed read says, up to its wording: the error variant, and
/// the chunk it names.
fn diagnosis(
    e: &std::io::Error,
) -> Option<(std::mem::Discriminant<TraceFormatError>, Option<usize>)> {
    TraceFormatError::classify(e).map(|t| {
        let chunk = match t {
            TraceFormatError::ChunkCrcMismatch { chunk, .. }
            | TraceFormatError::TruncatedTail { chunk, .. }
            | TraceFormatError::DecompressionBomb { chunk, .. } => Some(*chunk),
            TraceFormatError::BadMagic { .. } | TraceFormatError::BadHeader { .. } => None,
        };
        (std::mem::discriminant(t), chunk)
    })
}

proptest! {
    /// A damaged v2 or v3 file streams as it reads: byte flips anywhere,
    /// then a cut past the magic in most cases. `stream_trace_file`, at
    /// 1 and at 4 decode threads, fails exactly when `Trace::read_from`
    /// fails, with the same error variant naming the same chunk, and
    /// otherwise returns the stats of the trace the read returns,
    /// streamed in memory.
    #[test]
    fn damaged_files_stream_as_they_read(
        v3 in any::<bool>(),
        flips in prop::collection::vec((any::<u32>(), any::<u8>()), 0..4),
        keep in 0u32..1300,
    ) {
        let mut bytes = damage_bases()[usize::from(v3)].clone();
        for (at, mask) in flips {
            let at = at as usize % bytes.len();
            bytes[at] ^= mask.max(1);
        }
        if keep < 1000 {
            bytes.truncate(8 + (bytes.len() - 8) * keep as usize / 1000);
        }
        let path = std::env::temp_dir()
            .join(format!("dfcm_stream_equiv_damaged.{}.trc", std::process::id()));
        dfcm_trace::atomic_write(&path, &bytes).unwrap();
        let read = Trace::read_from(bytes.as_slice());
        for threads in [1, 4] {
            let streamed = stream_trace_file(&path, &mut damage_lanes(), threads, &Obs::disabled());
            match (&read, &streamed) {
                (Ok(trace), Ok(report)) => {
                    prop_assert_eq!(&report.stats, &stream_trace(&mut damage_lanes(), trace));
                }
                (Err(want), Err(got)) => prop_assert_eq!(
                    diagnosis(got),
                    diagnosis(want),
                    "at {} threads: streamed `{}`, read `{}`", threads, got, want
                ),
                _ => prop_assert!(
                    false,
                    "at {} threads: streamed {:?}, read {:?}",
                    threads,
                    streamed.as_ref().map(|r| r.records),
                    read.as_ref().map(Trace::len)
                ),
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
