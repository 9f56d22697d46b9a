//! Integration tests for the aliasing taxonomy (§4.2, Figures 12–14) on
//! suite-scale workloads.

use dfcm_suite::predictors::{AliasBreakdown, AliasClass, AnalyzedKind, ValuePredictor};
use dfcm_suite::sim::StreamPredictor;
use dfcm_suite::trace::suite::standard_traces;
use dfcm_suite::trace::BenchmarkTrace;

/// The merged §4.2 breakdown of a 2^12/2^12 predictor of `kind`, fresh
/// per benchmark, classifying its own predictions.
fn analyze(kind: AnalyzedKind, traces: &[BenchmarkTrace]) -> AliasBreakdown {
    let spec = match kind {
        AnalyzedKind::Fcm => "fcm:12:12",
        AnalyzedKind::Dfcm => "dfcm:12:12",
    };
    let mut total = AliasBreakdown::default();
    for bench in traces {
        let mut p = StreamPredictor::parse_spec(spec).unwrap();
        p.enable_table_stats();
        for r in &bench.trace {
            p.access(r.pc, r.value);
        }
        total.merge(&p.table_stats().and_then(|s| s.alias).unwrap());
    }
    total
}

/// Figure 12: destructive classes (l1, hash) have low accuracy; benign
/// classes (l2_pc, none) have high accuracy.
#[test]
fn class_accuracies_split_destructive_vs_benign() {
    let traces = standard_traces(7, 0.05);
    let b = analyze(AnalyzedKind::Fcm, &traces);
    assert!(
        b.accuracy(AliasClass::Hash) < 0.25,
        "hash: {:.3}",
        b.accuracy(AliasClass::Hash)
    );
    assert!(
        b.accuracy(AliasClass::L2Pc) > 0.7,
        "l2_pc: {:.3}",
        b.accuracy(AliasClass::L2Pc)
    );
    assert!(
        b.accuracy(AliasClass::NoAlias) > 0.8,
        "none: {:.3}",
        b.accuracy(AliasClass::NoAlias)
    );
}

/// Figure 13: the DFCM reduces hash aliasing and increases the benign
/// l2_pc aliasing relative to the FCM.
#[test]
fn dfcm_trades_hash_for_l2pc_aliasing() {
    let traces = standard_traces(7, 0.05);
    let f = analyze(AnalyzedKind::Fcm, &traces);
    let d = analyze(AnalyzedKind::Dfcm, &traces);
    assert!(
        d.fraction(AliasClass::Hash) < f.fraction(AliasClass::Hash),
        "hash fraction must drop: {:.3} -> {:.3}",
        f.fraction(AliasClass::Hash),
        d.fraction(AliasClass::Hash)
    );
    assert!(
        d.fraction(AliasClass::L2Pc) > f.fraction(AliasClass::L2Pc),
        "l2_pc fraction must rise: {:.3} -> {:.3}",
        f.fraction(AliasClass::L2Pc),
        d.fraction(AliasClass::L2Pc)
    );
}

/// Figure 14: hash aliasing is the dominant cause of mispredictions for
/// both predictors, and the DFCM's total misprediction rate is lower.
#[test]
fn hash_aliasing_dominates_mispredictions() {
    let traces = standard_traces(7, 0.05);
    for kind in [AnalyzedKind::Fcm, AnalyzedKind::Dfcm] {
        let b = analyze(kind, &traces);
        let hash_mis = b.misprediction_fraction(AliasClass::Hash);
        for class in [AliasClass::L1, AliasClass::L2Priv, AliasClass::L2Pc] {
            assert!(
                hash_mis > b.misprediction_fraction(class),
                "{kind:?}: hash must dominate {class:?}"
            );
        }
    }
    let f = analyze(AnalyzedKind::Fcm, &traces);
    let d = analyze(AnalyzedKind::Dfcm, &traces);
    let total = |b: &AliasBreakdown| 1.0 - b.overall_accuracy();
    assert!(total(&d) < total(&f), "DFCM must mispredict less overall");
}

/// Fractions are a partition of all predictions.
#[test]
fn fractions_partition_the_trace() {
    let traces = standard_traces(7, 0.02);
    for kind in [AnalyzedKind::Fcm, AnalyzedKind::Dfcm] {
        let b = analyze(kind, &traces);
        let sum: f64 = AliasClass::ALL.iter().map(|&c| b.fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let expected: u64 = traces.iter().map(|t| t.trace.len() as u64).sum();
        assert_eq!(b.total(), expected);
    }
}
