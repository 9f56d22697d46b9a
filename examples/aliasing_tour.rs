//! A guided tour of the paper's aliasing taxonomy (§4.2).
//!
//! Constructs one workload per aliasing class that makes that class
//! dominate, then runs the full suite-level analysis to show the DFCM's
//! signature shift: destructive `hash` aliasing traded for benign `l2_pc`
//! aliasing.
//!
//! Run with: `cargo run --release --example aliasing_tour`

use dfcm_suite::predictors::{
    AliasClass, AnalyzedKind, ConfigError, DfcmPredictor, FcmPredictor, ValuePredictor,
};
use dfcm_suite::trace::suite::standard_traces;
use dfcm_suite::trace::{Pattern, SyntheticProgram, TraceSource};

/// A cold predictor of `kind` with `2^l1`/`2^l2` entries that classifies
/// each of its own predictions (table stats on).
fn classifying(
    kind: AnalyzedKind,
    l1: u32,
    l2: u32,
) -> Result<Box<dyn ValuePredictor>, ConfigError> {
    let mut p: Box<dyn ValuePredictor> = match kind {
        AnalyzedKind::Fcm => Box::new(FcmPredictor::builder().l1_bits(l1).l2_bits(l2).build()?),
        AnalyzedKind::Dfcm => Box::new(DfcmPredictor::builder().l1_bits(l1).l2_bits(l2).build()?),
    };
    p.enable_table_stats();
    Ok(p)
}

fn classify(p: &mut dyn ValuePredictor, source: &mut dyn TraceSource, n: usize) {
    for _ in 0..n {
        let Some(r) = source.next_record() else { break };
        p.access(r.pc, r.value);
    }
}

fn print_breakdown(label: &str, p: &dyn ValuePredictor) {
    let b = p
        .table_stats()
        .and_then(|s| s.alias)
        .expect("an FCM or DFCM classifies");
    print!("{label:<32}");
    for class in AliasClass::ALL {
        print!("  {}:{:>5.1}%", class.label(), 100.0 * b.fraction(class));
    }
    println!("  (accuracy {:.1}%)", 100.0 * b.overall_accuracy());
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Single-cause workloads (FCM, tiny tables to provoke each class):\n");

    // l1: two instructions collide in a 1-entry level-1 table.
    let mut fcm = classifying(AnalyzedKind::Fcm, 0, 10)?;
    let mut p = SyntheticProgram::builder(1)
        .inst(Pattern::Periodic(vec![1, 2, 3]), 1)
        .inst(Pattern::Periodic(vec![9, 8, 7]), 1)
        .build();
    classify(&mut *fcm, &mut p, 20_000);
    print_breakdown("l1 (histories interleave)", &*fcm);

    // hash: many contexts forced into a 16-entry level-2 table.
    let mut fcm = classifying(AnalyzedKind::Fcm, 8, 4)?;
    let mut p = SyntheticProgram::builder(2)
        .inst(
            Pattern::PointerChase {
                nodes: 48,
                base: 0x4000,
            },
            1,
        )
        .build();
    classify(&mut *fcm, &mut p, 20_000);
    print_breakdown("hash (contexts collide)", &*fcm);

    // l2_pc: two instructions with the *same* pattern share entries.
    let mut fcm = classifying(AnalyzedKind::Fcm, 8, 12)?;
    let mut p = SyntheticProgram::builder(3)
        .inst(Pattern::Periodic(vec![4, 4, 2, 9]), 1)
        .inst(Pattern::Periodic(vec![4, 4, 2, 9]), 1)
        .build();
    classify(&mut *fcm, &mut p, 20_000);
    print_breakdown("l2_pc (identical patterns)", &*fcm);

    // none: a lone instruction in roomy tables.
    let mut fcm = classifying(AnalyzedKind::Fcm, 8, 12)?;
    let mut p = SyntheticProgram::builder(4)
        .inst(Pattern::Periodic(vec![6, 1, 8]), 1)
        .build();
    classify(&mut *fcm, &mut p, 20_000);
    print_breakdown("none (isolated pattern)", &*fcm);

    // The suite-level comparison: the DFCM's hash -> l2_pc shift.
    println!("\nSuite-level (2^12/2^12, li benchmark):");
    let li = &standard_traces(7, 0.05)[4];
    for kind in [AnalyzedKind::Fcm, AnalyzedKind::Dfcm] {
        let mut p = classifying(kind, 12, 12)?;
        for r in &li.trace {
            p.access(r.pc, r.value);
        }
        print_breakdown(&format!("{kind:?} on li"), &*p);
    }
    println!(
        "\nThe DFCM trades quasi-random hash aliasing (destructive) for intentional\n\
         l2_pc aliasing (benign: same-stride patterns deliberately share entries) —\n\
         the mechanism behind Figures 13 and 14."
    );
    Ok(())
}
