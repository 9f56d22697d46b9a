//! Stream lanes ⇔ oracle: a stream pass over a sweep-shaped lane set
//! must make, in every lane, exactly the predictions of the naive model
//! of the paper's predictors (`tests/support/oracle.rs` at the workspace
//! root), which shares no code with the production tables or the pass.
//!
//! The lane sets are the figures' shape: fcm and dfcm lanes that share
//! one level-1 size and sweep the level-2 size, 1, 3, 4, 5 and 7 of
//! them, so the pass walks the dfcm sweep in the kind's group only, in
//! one block of four, and in a block beside one or three lanes in the
//! group. Other kinds, other level-1 sizes and a truncated-width dfcm
//! lane (the general path) run in the same pass.
//!
//! In memory every per-record prediction is checked through
//! `stream_records_with`. A file pass reports only counts, so v1, v2 and
//! v3 files, at 1 and 4 decode threads, are checked by their counts and
//! then by every prediction the lanes make on a further segment after
//! the file, which reads the state the file left in them.
//!
//! Raise `PROPTEST_CASES` for a heavier run (CI runs this file in
//! release with more cases).

// `Model::production` builds `dyn` predictors for the engine tests; the
// lanes here are built by `stream_lane`.
#[allow(dead_code)]
#[path = "../../../tests/support/oracle.rs"]
mod oracle;

use dfcm as predictors;
use dfcm::{
    DfcmPredictor, FcmPredictor, LastValuePredictor, StridePredictor, StrideWidth,
    TwoDeltaStridePredictor,
};
use dfcm_obs::Obs;
use dfcm_sim::{
    stream_records_with, stream_trace_file, stream_v2_file, stream_v3_file, StreamPredictor,
};
use dfcm_trace::suite::standard_traces;
use dfcm_trace::{Trace, TraceFormat, TraceRecord};
use oracle::{Model, Oracle};
use proptest::prelude::*;

/// The lane `model` describes.
fn stream_lane(model: Model) -> StreamPredictor {
    match model {
        Model::Lvp { bits } => LastValuePredictor::new(bits).into(),
        Model::Stride { bits } => StridePredictor::new(bits).into(),
        Model::TwoDelta { bits } => TwoDeltaStridePredictor::new(bits).into(),
        Model::Fcm { l1, l2 } => FcmPredictor::builder()
            .l1_bits(l1)
            .l2_bits(l2)
            .build()
            .expect("valid model")
            .into(),
        Model::Dfcm { l1, l2, width } => DfcmPredictor::builder()
            .l1_bits(l1)
            .l2_bits(l2)
            .stride_width(width.map_or(StrideWidth::Full, StrideWidth::Bits))
            .build()
            .expect("valid model")
            .into(),
    }
}

/// A sweep of `k` level-2 sizes for fcm and for dfcm at level-1 size
/// `l1`, interleaved with lanes of the other kinds, of other level-1
/// sizes, and a `Bits(8)` dfcm lane of the sweep's level-1 size.
fn sweep_models(l1: u32, k: usize) -> Vec<Model> {
    let mut models = vec![
        Model::Lvp { bits: l1 },
        Model::Dfcm {
            l1,
            l2: l1 + 3,
            width: Some(8),
        },
        Model::Fcm { l1: l1 + 1, l2: 7 },
    ];
    for l2 in (l1..).take(k) {
        models.push(Model::Dfcm {
            l1,
            l2,
            width: None,
        });
        models.push(Model::Fcm { l1, l2 });
        if l2 == l1 + 1 {
            models.push(Model::Stride { bits: l1 - 1 });
            models.push(Model::Dfcm {
                l1: l1 - 1,
                l2: 9,
                width: None,
            });
        }
    }
    models.push(Model::TwoDelta { bits: l1 });
    models
}

/// The sweep widths: no block, one block, and a block with the rest of
/// the sweep in the kind's group.
const SWEEPS: [usize; 5] = [1, 3, 4, 5, 7];

/// Runs `lanes` over `records` in one pass and checks every lane's
/// predictions, record by record, against `oracles`, which continue.
fn assert_pass_agrees(
    models: &[Model],
    lanes: &mut [StreamPredictor],
    oracles: &mut [Oracle],
    records: &[TraceRecord],
    what: &str,
) {
    let mut seen: Vec<Vec<u64>> = vec![Vec::with_capacity(records.len()); lanes.len()];
    let stats = stream_records_with(lanes, records, |li, ri, outcome| {
        assert_eq!(ri, seen[li].len(), "{:?}: record order", models[li]);
        assert_eq!(outcome.correct, outcome.predicted == records[ri].value);
        seen[li].push(outcome.predicted);
    });
    for (li, naive) in oracles.iter_mut().enumerate() {
        let want: Vec<u64> = records
            .iter()
            .map(|r| naive.access(r.pc, r.value))
            .collect();
        if let Some(i) = (0..records.len()).find(|&i| seen[li][i] != want[i]) {
            panic!(
                "{:?} on {what}, record {i} (pc {:#x}, value {:#x}): predicted {:#x}, model {:#x}",
                models[li], records[i].pc, records[i].value, seen[li][i], want[i]
            );
        }
        let correct = want.iter().zip(records).filter(|(p, r)| **p == r.value);
        assert_eq!(
            stats[li].correct,
            correct.count() as u64,
            "{:?}",
            models[li]
        );
    }
}

/// Records over 24 aligned PCs whose values mix per-PC strides
/// (negative ones too), repeats, small contexts and raw noise.
fn arb_records() -> impl Strategy<Value = Vec<TraceRecord>> {
    let record = (0u64..24, 0u8..4, any::<u64>(), -300i64..300);
    prop::collection::vec(record, 0..400).prop_map(|raw| {
        let mut last = [0u64; 24];
        raw.into_iter()
            .map(|(slot, kind, noise, step)| {
                let value = match kind {
                    0 => last[slot as usize].wrapping_add(step as u64),
                    1 => last[slot as usize],
                    2 => noise % 5,
                    _ => noise,
                };
                last[slot as usize] = value;
                TraceRecord::new(0x40_0000 + 4 * slot, value)
            })
            .collect()
    })
}

proptest! {
    /// Random aliasing-heavy traces, fed as two passes so the second
    /// pass's blocks meet lanes that already hold state.
    #[test]
    fn sweep_passes_agree_with_the_model_on_random_traces(
        records in arb_records(),
        split in 0usize..400,
    ) {
        let split = split.min(records.len());
        for k in SWEEPS {
            let models = sweep_models(3, k);
            let mut lanes: Vec<StreamPredictor> = models.iter().map(|&m| stream_lane(m)).collect();
            let mut oracles: Vec<Oracle> = models.iter().map(|&m| Oracle::new(m)).collect();
            for (part, what) in [(&records[..split], "a first pass"), (&records[split..], "a second pass")] {
                assert_pass_agrees(&models, &mut lanes, &mut oracles, part, what);
            }
        }
    }
}

/// The suite at scale 0.01 as one trace, in suite order: 109,500
/// records, two on-disk chunks.
fn suite_records() -> Vec<TraceRecord> {
    standard_traces(0x0AC1E, 0.01)
        .iter()
        .flat_map(|b| b.trace.records().iter().copied())
        .collect()
}

#[test]
fn sweep_passes_agree_with_the_model_on_the_suite() {
    let records = suite_records();
    for k in SWEEPS {
        let models = sweep_models(10, k);
        let mut lanes: Vec<StreamPredictor> = models.iter().map(|&m| stream_lane(m)).collect();
        let mut oracles: Vec<Oracle> = models.iter().map(|&m| Oracle::new(m)).collect();
        // One pass per 65536-record chunk, as perfbench's traced run
        // makes them.
        for (i, chunk) in records.chunks(dfcm_trace::V2_CHUNK_RECORDS).enumerate() {
            let what = format!("suite chunk {i} of a {k}-wide sweep");
            assert_pass_agrees(&models, &mut lanes, &mut oracles, chunk, &what);
        }
    }
}

#[test]
fn sweep_file_passes_agree_with_the_model_at_1_and_4_threads() {
    let records = suite_records();
    // The file holds the first 100,000 records; the lanes then predict
    // the rest in memory, from the state the file left.
    let (file_part, after) = records.split_at(100_000);
    let trace: Trace = file_part.iter().copied().collect();
    let dir = std::env::temp_dir();
    let v1 = dir.join("dfcm_stream_oracle.v1.trc");
    let v2 = dir.join("dfcm_stream_oracle.v2.trc");
    let v3 = dir.join("dfcm_stream_oracle.v3.trc");
    trace.save_with(&v1, TraceFormat::V1).unwrap();
    trace.save_with(&v2, TraceFormat::V2 { seed: 7 }).unwrap();
    trace.save_with(&v3, TraceFormat::V3 { seed: 7 }).unwrap();
    // No block, a block and one lane in the group, a block and three;
    // the in-memory tests cover the other sweeps.
    for k in [1, 5, 7] {
        let models = sweep_models(10, k);
        let mut warmed: Vec<Oracle> = models.iter().map(|&m| Oracle::new(m)).collect();
        let want: Vec<u64> = warmed
            .iter_mut()
            .map(|naive| {
                let hits = file_part
                    .iter()
                    .filter(|r| naive.access(r.pc, r.value) == r.value);
                hits.count() as u64
            })
            .collect();
        for threads in [1, 4] {
            for path in [&v1, &v2, &v3] {
                let what = format!("{} at {threads} threads, {k}-wide", path.display());
                let mut lanes: Vec<StreamPredictor> =
                    models.iter().map(|&m| stream_lane(m)).collect();
                let report = if path == &v2 {
                    stream_v2_file(path, &mut lanes, threads)
                } else if path == &v3 {
                    stream_v3_file(path, &mut lanes, threads)
                } else {
                    // v1 has no chunks to decode on workers: the file is
                    // read whole and streamed in 65536-record slices.
                    stream_trace_file(path, &mut lanes, threads, &Obs::disabled())
                }
                .unwrap();
                assert_eq!(report.chunks, 2, "{what}");
                for (li, &correct) in want.iter().enumerate() {
                    assert_eq!(
                        report.stats[li].correct, correct,
                        "{:?} on {what}",
                        models[li]
                    );
                }
                let what = format!("the records after {what}");
                assert_pass_agrees(&models, &mut lanes, &mut warmed.clone(), after, &what);
            }
        }
    }
    for path in [v1, v2, v3] {
        let _ = std::fs::remove_file(path);
    }
}
