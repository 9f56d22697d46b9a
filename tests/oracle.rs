//! The production predictors against the naive model of the paper's
//! definitions (`support/oracle.rs`): every record's prediction must
//! match, for each of the five predictors, on random aliasing-heavy
//! traces and on the standard suite, and after a lane's `state_words`
//! are restored into a fresh lane mid-trace. An instrumented FCM or DFCM
//! must put each of its own predictions in the class, and judge it right
//! or wrong, as the model's §4.2 taxonomy does, and count as many issued
//! predictions, right and wrong, as the model's confidence estimator
//! issues at each tag width and threshold.
//!
//! Raise `PROPTEST_CASES` for a heavier run (CI runs this file in release
//! with more cases).

#[path = "support/oracle.rs"]
mod oracle;

use dfcm_suite::predictors;
use dfcm_suite::predictors::{AnalyzedKind, ValuePredictor};
use dfcm_suite::sim::StreamPredictor;
use dfcm_suite::trace::suite::standard_traces;
use oracle::{Estimator, Model, Oracle, Taxonomy};
use proptest::prelude::*;

/// Tiny tables, so level-1 and level-2 entries alias constantly; every
/// model kind, with both truncated DFCM widths.
const SMALL: [Model; 9] = [
    Model::Lvp { bits: 3 },
    Model::Stride { bits: 3 },
    Model::TwoDelta { bits: 3 },
    Model::Fcm { l1: 3, l2: 6 },
    Model::Fcm { l1: 4, l2: 11 },
    Model::Dfcm {
        l1: 3,
        l2: 6,
        width: None,
    },
    Model::Dfcm {
        l1: 4,
        l2: 11,
        width: None,
    },
    Model::Dfcm {
        l1: 3,
        l2: 7,
        width: Some(16),
    },
    Model::Dfcm {
        l1: 3,
        l2: 7,
        width: Some(8),
    },
];

/// The figures' shapes: histories of order 3 and 4.
const SUITE: [Model; 9] = [
    Model::Lvp { bits: 10 },
    Model::Stride { bits: 10 },
    Model::TwoDelta { bits: 10 },
    Model::Fcm { l1: 10, l2: 12 },
    Model::Fcm { l1: 16, l2: 16 },
    Model::Dfcm {
        l1: 10,
        l2: 12,
        width: None,
    },
    Model::Dfcm {
        l1: 16,
        l2: 16,
        width: None,
    },
    Model::Dfcm {
        l1: 12,
        l2: 12,
        width: Some(16),
    },
    Model::Dfcm {
        l1: 12,
        l2: 12,
        width: Some(8),
    },
];

/// Runs `model` and its production predictor side by side over
/// `records` and fails at the first prediction that differs.
fn assert_agrees(model: Model, records: impl IntoIterator<Item = (u64, u64)>, what: &str) {
    let mut production = model.production();
    let mut naive = Oracle::new(model);
    for (i, (pc, value)) in records.into_iter().enumerate() {
        let got = production.access(pc, value);
        let want = naive.access(pc, value);
        assert_eq!(
            got.predicted, want,
            "{model:?} on {what}, record {i} (pc {pc:#x}, value {value:#x})"
        );
        assert_eq!(got.correct, want == value);
    }
}

/// Records over 24 aligned PCs. Values mix runs of a per-PC stride
/// (negative ones included, so truncated differences need their sign),
/// repeats, small contexts and raw 64-bit noise.
fn arb_records() -> impl Strategy<Value = Vec<(u64, u64)>> {
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
                (0x40_0000 + 4 * slot, value)
            })
            .collect()
    })
}

/// A lane of every [`StreamPredictor`] kind at tiny tables, by its spec,
/// with the model of what that spec builds (FS R-5, full-width
/// differences).
const LANES: [(&str, Model); 7] = [
    ("lvp:3", Model::Lvp { bits: 3 }),
    ("stride:3", Model::Stride { bits: 3 }),
    ("2delta:3", Model::TwoDelta { bits: 3 }),
    ("fcm:3:6", Model::Fcm { l1: 3, l2: 6 }),
    ("fcm:4:11", Model::Fcm { l1: 4, l2: 11 }),
    (
        "dfcm:3:6",
        Model::Dfcm {
            l1: 3,
            l2: 6,
            width: None,
        },
    ),
    (
        "dfcm:4:11",
        Model::Dfcm {
            l1: 4,
            l2: 11,
            width: None,
        },
    ),
];

/// Runs the taxonomy of `kind` at `l1`/`l2` under FS R-`k` and the
/// instrumented production predictor side by side over `records` and
/// fails at the first record whose class or correctness differs.
fn assert_classifies(
    kind: AnalyzedKind,
    (l1, l2, k): (u32, u32, u32),
    records: impl IntoIterator<Item = (u64, u64)>,
    what: &str,
) {
    let mut naive = Taxonomy::new(kind, l1, l2, k);
    let mut production = naive.production();
    for (i, (pc, value)) in records.into_iter().enumerate() {
        let correct = production.access(pc, value).correct;
        let class = production
            .last_alias_class()
            .expect("an FCM or DFCM classifies");
        assert_eq!(
            (class, correct),
            naive.access(pc, value),
            "{kind:?} {l1}/{l2} FS R-{k} on {what}, record {i} (pc {pc:#x}, value {value:#x})"
        );
    }
}

const KINDS: [AnalyzedKind; 2] = [AnalyzedKind::Fcm, AnalyzedKind::Dfcm];

/// Runs the instrumented production predictor of `kind` at `l1`/`l2`
/// over `records`, then the model's estimator once per tag width and
/// threshold, and fails at the first configuration whose (all, issued)
/// counts differ from what the predictor's [`ConfidenceBreakdown`]
/// gives.
///
/// [`ConfidenceBreakdown`]: predictors::ConfidenceBreakdown
fn assert_estimates(kind: AnalyzedKind, (l1, l2): (u32, u32), records: &[(u64, u64)], what: &str) {
    let mut production = Taxonomy::new(kind, l1, l2, 5).production();
    for &(pc, value) in records {
        production.access(pc, value);
    }
    let confidence = production
        .table_stats()
        .and_then(|s| s.confidence)
        .expect("an FCM or DFCM estimates");
    for tag_bits in [0, 2, 4, 8, 16] {
        for threshold in 0..=3 {
            let mut naive = Estimator::new(kind, l1, l2, tag_bits, threshold);
            for &(pc, value) in records {
                naive.access(pc, value);
            }
            assert_eq!(
                (
                    confidence.all(),
                    confidence.issued(tag_bits, threshold as u8)
                ),
                (naive.all, naive.issued),
                "{kind:?} {l1}/{l2}, {tag_bits} tag bits, threshold {threshold}, on {what}"
            );
        }
    }
}

proptest! {
    #[test]
    fn every_model_agrees_with_production_on_random_traces(records in arb_records()) {
        for model in SMALL {
            assert_agrees(model, records.iter().copied(), "a random trace");
        }
    }

    /// A lane streams a prefix, its `state_words` are restored into a
    /// fresh lane built from its spec, and the restored lane must make
    /// every later prediction of the model, which never stopped.
    #[test]
    fn state_words_restored_mid_trace_predict_as_the_model(
        records in arb_records(),
        split in 0usize..401,
    ) {
        let split = split.min(records.len());
        for (spec, model) in LANES {
            let mut lane = StreamPredictor::parse_spec(spec).unwrap();
            assert_eq!(lane.spec(), spec);
            let mut naive = Oracle::new(model);
            for (i, &(pc, value)) in records[..split].iter().enumerate() {
                let want = naive.access(pc, value);
                assert_eq!(lane.access(pc, value).predicted, want, "{spec}, record {i}");
            }
            let mut restored = StreamPredictor::parse_spec(&lane.spec()).unwrap();
            restored.load_state_words(&lane.state_words()).unwrap();
            for (i, &(pc, value)) in records.iter().enumerate().skip(split) {
                let want = naive.access(pc, value);
                assert_eq!(
                    restored.access(pc, value).predicted,
                    want,
                    "{spec} restored after record {split}, record {i} (pc {pc:#x}, value {value:#x})"
                );
            }
        }
    }
}

proptest! {
    /// Tiny tables, so every class occurs: one to 16 level-1 entries for
    /// 24 PCs, and histories of order 1, 2 and 3.
    #[test]
    fn taxonomy_agrees_with_the_instrumented_predictors_on_random_traces(records in arb_records()) {
        for kind in KINDS {
            for l1 in [0, 3, 4] {
                for l2 in [4, 6, 11] {
                    assert_classifies(kind, (l1, l2, 5), records.iter().copied(), "a random trace");
                }
            }
        }
    }
}

proptest! {
    /// A tiny level-2 table, where hash aliasing makes tags mismatch
    /// constantly, and one of order 3 behind a single level-1 entry, so
    /// that 24 PCs share one tag history.
    #[test]
    fn estimator_agrees_with_the_instrumented_predictors_on_random_traces(records in arb_records()) {
        for kind in KINDS {
            for geometry in [(3, 4), (0, 11)] {
                assert_estimates(kind, geometry, &records, "a random trace");
            }
        }
    }
}

/// The geometry `tags` reads (2^12/2^12).
#[test]
fn estimator_agrees_with_the_instrumented_predictors_on_the_standard_suite() {
    for bench in standard_traces(0x0AC1E, 0.01) {
        let records: Vec<(u64, u64)> = bench.trace.iter().map(|r| (r.pc, r.value)).collect();
        for kind in KINDS {
            assert_estimates(kind, (12, 12), &records, bench.name);
        }
    }
}

/// The figures' geometry (2^12/2^12, order 3), a larger one (order 4)
/// and FS R-1 at 2^20, whose order of 20 is past any fixed small bound.
#[test]
fn taxonomy_agrees_with_the_instrumented_predictors_on_the_standard_suite() {
    for bench in standard_traces(0x0AC1E, 0.01) {
        for kind in KINDS {
            for geometry in [(12, 12, 5), (16, 16, 5), (10, 20, 1)] {
                assert_classifies(
                    kind,
                    geometry,
                    bench.trace.iter().map(|r| (r.pc, r.value)),
                    bench.name,
                );
            }
        }
    }
}

#[test]
fn every_model_agrees_with_production_on_the_standard_suite() {
    for bench in standard_traces(0x0AC1E, 0.01) {
        for model in SUITE {
            assert_agrees(
                model,
                bench.trace.iter().map(|r| (r.pc, r.value)),
                bench.name,
            );
        }
    }
}

#[test]
fn the_model_is_cold_and_learns_a_stride() {
    // Zeroed tables predict 0 first; a DFCM of order 3 predicts a fresh
    // stride once its difference history is full of that stride.
    let mut naive = Oracle::new(Model::Dfcm {
        l1: 4,
        l2: 12,
        width: None,
    });
    let predictions: Vec<u64> = (1..=8).map(|i| naive.access(0x40, 10 * i)).collect();
    assert_eq!(predictions[0], 0);
    assert_eq!(&predictions[5..], &[60, 70, 80]);
}
