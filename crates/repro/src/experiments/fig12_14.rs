//! Figures 12–14: the aliasing analysis.
//!
//! Every prediction of a 2^12/2^12 FCM and DFCM is classified into the
//! paper's five aliasing categories (l1, hash, l2_priv, l2_pc, none; §4.2),
//! in one pass per predictor per run that all three figures read.
//!
//! * Figure 12 — prediction accuracy per category (FCM): `l1` and `hash`
//!   aliasing are destructive, `l2_pc` and `none` are benign.
//! * Figure 13 — fraction of all predictions per category, per benchmark,
//!   for both predictors: the DFCM trades quasi-random `hash` aliasing
//!   for benign intentional `l2_pc` aliasing.
//! * Figure 14 — the same fractions among mispredictions: `hash` dominates
//!   the remaining mispredictions for both predictors.

use dfcm::{AliasBreakdown, AliasClass, AnalyzedKind, ValuePredictor};
use dfcm_obs::timeseries::LaneSeries;
use dfcm_sim::report::{fmt_accuracy, TextTable};
use dfcm_sim::stream::{class_slot, record_accuracy};
use dfcm_sim::{StreamPredictor, SERIES_CLASS_LABELS};
use dfcm_trace::BenchmarkTrace;

use crate::common::{banner, AliasPass, Options};

/// The run's §4.2 pass of `kind` over the suite, made once per run
/// ([`Options::alias_pass`]), with a copy of its series and its alias
/// counters recorded under the figure's label `spec` (rendered by
/// `dfcm-tools obs report` from the `--obs` export). Returns each
/// benchmark's breakdown, in suite order.
fn analyze(opts: &Options, spec: &str, kind: AnalyzedKind) -> Vec<(&'static str, AliasBreakdown)> {
    let pass = opts.alias_pass(kind, |traces| classify(opts, kind, traces));
    if let Some(series) = &pass.series {
        opts.obs.record_series(series.relabeled(spec));
    }
    let total = merged(&pass.per_bench);
    record_accuracy(&opts.obs, spec, Some(total), total.overall_accuracy());
    pass.per_bench.clone()
}

/// Runs a 2^12/2^12 predictor of `kind`, fresh per benchmark and with
/// table stats on, over every suite benchmark, so that it classifies
/// each of its own predictions. With obs enabled, additionally folds
/// each prediction into a windowed phase series — one continuous
/// prediction index across the benchmarks in suite order, so the
/// series' phase boundaries are the benchmark boundaries. The series is
/// recorded only as each figure's copy, under the figure's label.
fn classify(opts: &Options, kind: AnalyzedKind, traces: &[BenchmarkTrace]) -> AliasPass {
    let spec = match kind {
        AnalyzedKind::Fcm => "fcm:12:12",
        AnalyzedKind::Dfcm => "dfcm:12:12",
    };
    let mut series = opts
        .obs
        .is_enabled()
        .then(|| LaneSeries::with_defaults(&format!("{kind:?}"), SERIES_CLASS_LABELS));
    let mut index = 0u64;
    let per_bench = traces
        .iter()
        .map(|b| {
            let mut p = StreamPredictor::parse_spec(spec).expect("a valid spec");
            p.enable_table_stats();
            for r in &b.trace {
                let predicted = p.access(r.pc, r.value).predicted;
                if let Some(series) = &mut series {
                    let slot = class_slot(p.last_alias_class());
                    series.record(index, r.pc, slot, predicted, r.value);
                }
                index += 1;
            }
            let alias = p.table_stats().and_then(|s| s.alias);
            (b.name, alias.expect("an fcm or dfcm lane classifies"))
        })
        .collect();
    AliasPass { per_bench, series }
}

fn merged(per_bench: &[(&'static str, AliasBreakdown)]) -> AliasBreakdown {
    let mut total = AliasBreakdown::default();
    for (_, b) in per_bench {
        total.merge(b);
    }
    total
}

fn fraction_table(
    title: &str,
    per_bench: &[(&'static str, AliasBreakdown)],
    value: impl Fn(&AliasBreakdown, AliasClass) -> f64,
) -> TextTable {
    let mut header = vec!["predictor/benchmark".to_owned()];
    header.extend(AliasClass::ALL.iter().map(|c| c.label().to_owned()));
    let mut table = TextTable::new(header);
    for (name, b) in per_bench {
        let mut row = vec![format!("{title}/{name}")];
        row.extend(AliasClass::ALL.iter().map(|&c| fmt_accuracy(value(b, c))));
        table.row(row);
    }
    let total = merged(per_bench);
    let mut row = vec![format!("{title}/avg")];
    row.extend(
        AliasClass::ALL
            .iter()
            .map(|&c| fmt_accuracy(value(&total, c))),
    );
    table.row(row);
    table
}

/// Runs the Figure 12 reproduction (accuracy per aliasing class, FCM).
pub fn run_fig12(opts: &Options) {
    banner(
        "Figure 12: prediction accuracy per aliasing class (FCM, 2^12/2^12)",
        "",
    );
    let fcm = analyze(opts, "fig12/fcm", AnalyzedKind::Fcm);
    let total = merged(&fcm);
    let mut table = TextTable::new(vec!["class", "fraction", "accuracy"]);
    for &class in &AliasClass::ALL {
        table.row(vec![
            class.label().into(),
            fmt_accuracy(total.fraction(class)),
            fmt_accuracy(total.accuracy(class)),
        ]);
    }
    print!("{}", table.render());
    opts.emit(&table, "fig12");
    println!();
    println!(
        "Check (paper): l1 and hash show very low accuracy; none and l2_pc are very \
         predictable (identical patterns from different instructions do not clash)."
    );
}

/// Runs the Figure 13 reproduction (class fractions, all predictions).
pub fn run_fig13(opts: &Options) {
    banner(
        "Figure 13: aliasing-class fractions over all predictions (2^12/2^12)",
        "",
    );
    let fcm = analyze(opts, "fig13/fcm", AnalyzedKind::Fcm);
    let dfcm = analyze(opts, "fig13/dfcm", AnalyzedKind::Dfcm);
    let mut table = fraction_table("fcm", &fcm, |b, c| b.fraction(c));
    let dfcm_table = fraction_table("dfcm", &dfcm, |b, c| b.fraction(c));
    for row in dfcm_table.rows() {
        table.row(row);
    }
    print!("{}", table.render());
    opts.emit(&table, "fig13");
    println!();
    let (f, d) = (merged(&fcm), merged(&dfcm));
    println!(
        "Check (paper): DFCM shifts hash aliasing into benign l2_pc aliasing \
         (hash {:.2} -> {:.2}; l2_pc {:.2} -> {:.2}; paper: hash 34% -> 25%, l2_pc ~2x).",
        f.fraction(AliasClass::Hash),
        d.fraction(AliasClass::Hash),
        f.fraction(AliasClass::L2Pc),
        d.fraction(AliasClass::L2Pc),
    );
}

/// Runs the Figure 14 reproduction (class fractions among mispredictions).
pub fn run_fig14(opts: &Options) {
    banner(
        "Figure 14: aliasing classes of mispredictions, as fraction of all predictions",
        "Bars stack to the global misprediction rate.",
    );
    let fcm = analyze(opts, "fig14/fcm", AnalyzedKind::Fcm);
    let dfcm = analyze(opts, "fig14/dfcm", AnalyzedKind::Dfcm);
    let mut table = fraction_table("fcm", &fcm, |b, c| b.misprediction_fraction(c));
    let dfcm_table = fraction_table("dfcm", &dfcm, |b, c| b.misprediction_fraction(c));
    for row in dfcm_table.rows() {
        table.row(row);
    }
    print!("{}", table.render());
    opts.emit(&table, "fig14");
    println!();
    let (f, d) = (merged(&fcm), merged(&dfcm));
    let f_mis: f64 = AliasClass::ALL
        .iter()
        .map(|&c| f.misprediction_fraction(c))
        .sum();
    let d_mis: f64 = AliasClass::ALL
        .iter()
        .map(|&c| d.misprediction_fraction(c))
        .sum();
    println!(
        "Check (paper): hash dominates mispredictions for both; total mispredictions \
         drop with the hash-alias reduction (FCM {:.3} -> DFCM {:.3}; hash share of \
         DFCM mispredictions {:.0}%, paper 59%).",
        f_mis,
        d_mis,
        100.0 * d.misprediction_fraction(AliasClass::Hash) / d_mis,
    );
}
