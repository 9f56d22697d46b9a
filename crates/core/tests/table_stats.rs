//! Table-usage instrumentation: opt-in semantics, occupancy/write
//! accounting, and agreement between the §4.2 classification and the
//! predictor's own accuracy.

use dfcm::{
    AliasClass, DfcmPredictor, FcmPredictor, LastValuePredictor, StridePredictor, StrideWidth,
    TwoDeltaStridePredictor, ValuePredictor,
};

#[test]
fn stats_are_off_by_default_everywhere() {
    let predictors: Vec<Box<dyn ValuePredictor>> = vec![
        Box::new(LastValuePredictor::new(4)),
        Box::new(StridePredictor::new(4)),
        Box::new(TwoDeltaStridePredictor::new(4)),
        Box::new(
            FcmPredictor::builder()
                .l1_bits(4)
                .l2_bits(8)
                .build()
                .unwrap(),
        ),
        Box::new(
            DfcmPredictor::builder()
                .l1_bits(4)
                .l2_bits(8)
                .build()
                .unwrap(),
        ),
    ];
    for mut p in predictors {
        p.access(0x40, 7);
        assert!(p.table_stats().is_none(), "{} reported stats", p.name());
    }
}

#[test]
fn enable_is_idempotent_and_counts_survive() {
    let mut p = LastValuePredictor::new(4);
    p.enable_table_stats();
    p.access(0x40, 1);
    p.enable_table_stats(); // must not reset counters
    let stats = p.table_stats().unwrap();
    assert_eq!(stats.tables[0].writes, 1);
}

#[test]
fn single_table_predictors_track_occupancy() {
    let mut p = StridePredictor::new(4);
    p.enable_table_stats();
    // Three distinct entries, one hit twice.
    for &(pc, v) in &[(0u64, 1u64), (4, 2), (8, 3), (0, 4)] {
        p.access(pc, v);
    }
    let stats = p.table_stats().unwrap();
    assert!(stats.alias.is_none());
    let t = &stats.tables[0];
    assert_eq!(t.name, "table");
    assert_eq!(t.entries, 16);
    assert_eq!(t.occupied, 3);
    assert_eq!(t.writes, 4);
    assert_eq!(t.overwrites, 1);
}

#[test]
fn two_level_predictors_report_both_tables() {
    let mut p = FcmPredictor::builder()
        .l1_bits(4)
        .l2_bits(8)
        .build()
        .unwrap();
    p.enable_table_stats();
    for i in 0..100u64 {
        p.access(0x10, i % 5);
    }
    let stats = p.table_stats().unwrap();
    let names: Vec<&str> = stats.tables.iter().map(|t| t.name).collect();
    assert_eq!(names, vec!["l1", "l2"]);
    // One static instruction: exactly one l1 entry in use.
    assert_eq!(stats.tables[0].occupied, 1);
    assert_eq!(stats.tables[0].writes, 100);
    // The repeating pattern visits a handful of histories.
    assert!(stats.tables[1].occupied >= 2);
    assert!(stats.tables[1].occupied <= 16);
}

#[test]
fn alias_breakdown_reconciles_with_accuracy() {
    // The predictor classifies its own predictions, so the per-class
    // counts must sum to the access count and their correct-count must
    // equal the predictor's own hits.
    for spec in ["fcm", "dfcm"] {
        let mut p: Box<dyn ValuePredictor> = match spec {
            "fcm" => Box::new(
                FcmPredictor::builder()
                    .l1_bits(5)
                    .l2_bits(9)
                    .build()
                    .unwrap(),
            ),
            _ => Box::new(
                DfcmPredictor::builder()
                    .l1_bits(5)
                    .l2_bits(9)
                    .build()
                    .unwrap(),
            ),
        };
        p.enable_table_stats();
        let mut hits = 0u64;
        let mut total = 0u64;
        for i in 0..4000u64 {
            let pc = (i * 7) % 96;
            let v = (i % 9).wrapping_mul(pc + 1);
            hits += u64::from(p.access(pc, v).correct);
            total += 1;
        }
        let alias = p.table_stats().unwrap().alias.unwrap();
        assert_eq!(alias.total(), total, "{spec}: totals must reconcile");
        let correct: u64 = AliasClass::ALL
            .iter()
            .map(|&c| alias.class_correct(c))
            .sum();
        assert_eq!(correct, hits, "{spec}: correct counts must reconcile");
    }
}

#[test]
fn a_warm_predictor_classifies_its_own_predictions() {
    // Stats switched on mid-run count the predictions the warm tables
    // make from then on, not those of a cold copy.
    let warm = |mut p: Box<dyn ValuePredictor>| {
        for i in 0..3000u64 {
            p.access(4 * (i % 23), (i % 11).wrapping_mul(i % 5));
        }
        p.enable_table_stats();
        p
    };
    let predictors: [Box<dyn ValuePredictor>; 2] = [
        warm(Box::new(
            FcmPredictor::builder()
                .l1_bits(5)
                .l2_bits(9)
                .build()
                .unwrap(),
        )),
        warm(Box::new(
            DfcmPredictor::builder()
                .l1_bits(5)
                .l2_bits(9)
                .build()
                .unwrap(),
        )),
    ];
    for mut p in predictors {
        let mut hits = 0u64;
        for i in 0..1000u64 {
            hits += u64::from(p.access(4 * (i % 23), (i % 11).wrapping_mul(i % 5)).correct);
        }
        assert!(hits > 500, "{}: the tables are warm, {hits} hits", p.name());
        let alias = p.table_stats().unwrap().alias.unwrap();
        assert_eq!(alias.total(), 1000, "{}", p.name());
        let correct: u64 = AliasClass::ALL
            .iter()
            .map(|&c| alias.class_correct(c))
            .sum();
        assert_eq!(
            correct,
            hits,
            "{}: correct counts must be its own",
            p.name()
        );
    }
}

#[test]
fn truncated_dfcm_tracks_tables_but_not_aliasing() {
    let mut p = DfcmPredictor::builder()
        .l1_bits(4)
        .l2_bits(8)
        .stride_width(StrideWidth::Bits(8))
        .build()
        .unwrap();
    p.enable_table_stats();
    for i in 0..50u64 {
        p.access(0, 3 * i);
    }
    let stats = p.table_stats().unwrap();
    assert_eq!(stats.tables.len(), 2);
    assert!(stats.tables[1].writes > 0);
    assert!(stats.alias.is_none());
}

#[test]
fn dfcm_stride_collapse_is_visible_in_l2_occupancy() {
    // The paper's core claim, observed through the instrumentation: a
    // stride pattern occupies far fewer DFCM level-2 entries than FCM
    // level-2 entries.
    let mut fcm = FcmPredictor::builder()
        .l1_bits(6)
        .l2_bits(12)
        .build()
        .unwrap();
    let mut dfcm = DfcmPredictor::builder()
        .l1_bits(6)
        .l2_bits(12)
        .build()
        .unwrap();
    fcm.enable_table_stats();
    dfcm.enable_table_stats();
    for i in 0..2000u64 {
        fcm.access(0x40, 5 * i);
        dfcm.access(0x40, 5 * i);
    }
    let fcm_l2 = p_l2(&fcm);
    let dfcm_l2 = p_l2(&dfcm);
    assert!(
        dfcm_l2 * 10 < fcm_l2,
        "dfcm should use far fewer l2 entries: dfcm={dfcm_l2} fcm={fcm_l2}"
    );
}

fn p_l2<P: ValuePredictor>(p: &P) -> u64 {
    p.table_stats().unwrap().tables[1].occupied
}

#[test]
fn boxed_predictor_forwards_instrumentation() {
    let mut p: Box<dyn ValuePredictor> = Box::new(LastValuePredictor::new(4));
    p.enable_table_stats();
    p.access(0, 1);
    assert_eq!(p.table_stats().unwrap().tables[0].writes, 1);
}
