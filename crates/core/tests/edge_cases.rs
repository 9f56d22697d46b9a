//! Edge-case tests for the predictor crate: boundary geometries, extreme
//! values, and wrapper corner cases.

use dfcm::{
    ClassifiedPredictor, DelayedUpdate, DfcmPredictor, FcmPredictor, InstructionClass,
    LastValuePredictor, SpeculativeDfcm, StridePredictor, ValuePredictor,
};

#[test]
fn single_entry_tables_work() {
    // l1_bits = 0 is a legal degenerate geometry: one shared history.
    let mut p = FcmPredictor::builder()
        .l1_bits(0)
        .l2_bits(1)
        .build()
        .unwrap();
    for i in 0..100u64 {
        p.access(i * 4, i % 2);
    }
    let mut d = DfcmPredictor::builder()
        .l1_bits(0)
        .l2_bits(1)
        .build()
        .unwrap();
    for i in 0..100u64 {
        d.access(i * 4, i);
    }
    // A 2-entry L2 with a single stride collapses perfectly even here.
    assert!(d.access(0, 100).correct);
}

#[test]
fn extreme_values_do_not_disturb_tables() {
    let mut p = DfcmPredictor::builder()
        .l1_bits(4)
        .l2_bits(6)
        .build()
        .unwrap();
    for v in [0u64, u64::MAX, 1, u64::MAX - 1, u64::MAX / 2] {
        p.access(0x40, v);
    }
    // Wrapping diffs: a MAX..0 stride of +1 is learnable.
    let mut q = DfcmPredictor::builder()
        .l1_bits(4)
        .l2_bits(6)
        .build()
        .unwrap();
    let misses = (0..20u64)
        .map(|i| u64::MAX.wrapping_add(i))
        .filter(|&v| !q.access(0x40, v).correct)
        .count();
    assert!(
        misses <= 4,
        "wrap-around stride must be learnable: {misses}"
    );
}

#[test]
fn delayed_update_flush_preserves_program_order() {
    let mut p = DelayedUpdate::new(LastValuePredictor::new(4), 16);
    p.update(0x40, 1);
    p.update(0x40, 2);
    p.update(0x40, 3);
    p.flush();
    // The *last* update in program order must win.
    assert_eq!(p.predict(0x40), 3);
}

#[test]
fn delay_longer_than_trace_never_updates() {
    let mut p = DelayedUpdate::new(LastValuePredictor::new(4), 1_000_000);
    for i in 0..100u64 {
        p.access(0x40, i);
    }
    assert_eq!(p.predict(0x40), 0, "no update should have landed");
}

#[test]
fn speculative_dfcm_drain_is_idempotent() {
    let mut p = SpeculativeDfcm::builder()
        .l1_bits(4)
        .l2_bits(8)
        .delay(16)
        .build()
        .unwrap();
    for i in 0..10u64 {
        p.access(0x40, 2 * i);
    }
    p.drain();
    let after_first = p.predict(0x40);
    p.drain();
    assert_eq!(p.predict(0x40), after_first);
}

#[test]
fn tagged_dfcm_accepts_max_tag_width() {
    // The estimator keeps whole 16-bit tags, so a steady stride's
    // predictions issue at every tag width up to 16, and none past it.
    let mut p = DfcmPredictor::builder()
        .l1_bits(4)
        .l2_bits(8)
        .build()
        .unwrap();
    p.enable_table_stats();
    let issued = |p: &DfcmPredictor, tag_bits| {
        let confidence = p.table_stats().and_then(|s| s.confidence).unwrap();
        confidence.issued(tag_bits, 2).0
    };
    for i in 0..50u64 {
        p.access(0x40, 4 * i);
    }
    let before = [issued(&p, 16), issued(&p, 17)];
    p.access(0x40, 4 * 50);
    assert_eq!([issued(&p, 16), issued(&p, 17)], [before[0] + 1, 0]);
}

#[test]
fn classified_predictor_tie_breaks_deterministically() {
    // A constant stream: LVP, stride and FCM all end up perfect during the
    // trial; the assignment must be deterministic (first maximum wins).
    let run = || {
        let mut p = ClassifiedPredictor::new();
        for _ in 0..40 {
            p.access(0x40, 9);
        }
        p.class_of(0x40)
    };
    assert_eq!(run(), run());
    assert_eq!(run(), InstructionClass::LastValue);
}

#[test]
fn predictors_tolerate_misaligned_pcs() {
    // The harness always passes 4-aligned PCs, but the API accepts any
    // u64; odd PCs must not panic (they just share entries with their
    // aligned neighbours).
    for pc in [1u64, 2, 3, u64::MAX] {
        let mut p = StridePredictor::new(4);
        p.access(pc, 5);
        let mut q = DfcmPredictor::builder()
            .l1_bits(4)
            .l2_bits(6)
            .build()
            .unwrap();
        q.access(pc, 5);
    }
}

#[test]
fn name_strings_are_parseable_labels() {
    // Names feed reports and CSVs. Commas are fine (the CSV writer
    // quotes them), but newlines would break row structure.
    let names = [
        LastValuePredictor::new(4).name(),
        StridePredictor::new(4).name(),
        FcmPredictor::builder().build().unwrap().name(),
        DfcmPredictor::builder().build().unwrap().name(),
        SpeculativeDfcm::builder().build().unwrap().name(),
        ClassifiedPredictor::new().name(),
    ];
    for name in names {
        assert!(!name.contains('\n'), "{name}");
        assert!(!name.is_empty());
    }
}
