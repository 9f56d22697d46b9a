//! Loading, validating and summarizing an obs export directory.
//!
//! `dfcm-tools obs summarize DIR` renders the human-readable
//! table-usage report from the JSONL event stream; `--check`
//! additionally validates all three export files (JSONL, Chrome trace,
//! Prometheus text) for well-formedness and internal consistency.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::export::{EVENTS_FILE, PROM_FILE, TRACE_FILE};
use crate::json::{parse, Json};

/// One metric reconstructed from the JSONL export.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedMetric {
    /// Metric name.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// Kind tag: `counter`, `gauge` or `histogram`.
    pub kind: String,
    /// Scalar value (counter/gauge) or histogram sum.
    pub value: f64,
    /// Histogram observation count (0 for scalar kinds).
    pub count: u64,
}

/// One time-series sample reconstructed from the JSONL export.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedSample {
    /// Series name.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// Microseconds since the run's epoch.
    pub ts_us: u64,
    /// The sampled value.
    pub value: f64,
}

/// The parsed contents of an obs directory's JSONL export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsData {
    /// Number of span lines (spans are summarized only in aggregate).
    pub span_count: usize,
    /// Every sample line, in file order.
    pub samples: Vec<LoadedSample>,
    /// Every metric line, in file order.
    pub metrics: Vec<LoadedMetric>,
}

impl ObsData {
    /// Looks up a metric by name and one distinguishing label value.
    fn metric(&self, name: &str, label: &str, value: &str) -> Option<&LoadedMetric> {
        self.metrics
            .iter()
            .find(|m| m.name == name && m.labels.iter().any(|(k, v)| k == label && v == value))
    }
}

fn labels_of(value: &Json, key: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = match value.get(key) {
        Some(Json::Obj(m)) => m
            .iter()
            .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_owned())))
            .collect(),
        _ => Vec::new(),
    };
    out.sort();
    out
}

/// Parses the JSONL event stream of an obs directory.
///
/// # Errors
///
/// Returns a message naming the offending line when any line is not one
/// of the known record types. A missing directory, an empty directory
/// (no export ever ran) and a partially-written export (some files
/// present, [`EVENTS_FILE`] absent) each get a distinct, actionable
/// message instead of a bare I/O error.
pub fn load(dir: &Path) -> Result<ObsData, String> {
    if !dir.is_dir() {
        return Err(format!(
            "{}: not a directory — no obs export found (run with --obs {} first)",
            dir.display(),
            dir.display()
        ));
    }
    let path = dir.join(EVENTS_FILE);
    if !path.is_file() {
        let present: Vec<String> = [
            EVENTS_FILE,
            crate::export::TRACE_FILE,
            crate::export::PROM_FILE,
        ]
        .iter()
        .filter(|f| dir.join(f).is_file())
        .map(|f| (*f).to_owned())
        .collect();
        return Err(if present.is_empty() {
            format!(
                "{}: empty obs directory ({EVENTS_FILE} missing) — \
                 was the run instrumented with --obs?",
                dir.display()
            )
        } else {
            format!(
                "{}: partial obs export — {EVENTS_FILE} missing but {} present \
                 (the writing run may have been interrupted; re-run it)",
                dir.display(),
                present.join(", ")
            )
        });
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut data = ObsData::default();
    for (i, line) in text.lines().enumerate() {
        let value = parse(line).map_err(|e| format!("{EVENTS_FILE} line {}: {e}", i + 1))?;
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{EVENTS_FILE} line {}: missing \"type\"", i + 1))?;
        let name = value
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{EVENTS_FILE} line {}: missing \"name\"", i + 1))?
            .to_owned();
        match kind {
            "span" => data.span_count += 1,
            "sample" => data.samples.push(LoadedSample {
                name,
                labels: labels_of(&value, "labels"),
                ts_us: value.get("ts_us").and_then(Json::as_u64).unwrap_or(0),
                value: value.get("value").and_then(Json::as_f64).unwrap_or(0.0),
            }),
            "metric" => {
                let metric_kind = value
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("counter")
                    .to_owned();
                let (scalar, count) = if metric_kind == "histogram" {
                    (
                        value.get("sum").and_then(Json::as_f64).unwrap_or(0.0),
                        value.get("count").and_then(Json::as_u64).unwrap_or(0),
                    )
                } else {
                    (value.get("value").and_then(Json::as_f64).unwrap_or(0.0), 0)
                };
                data.metrics.push(LoadedMetric {
                    name,
                    labels: labels_of(&value, "labels"),
                    kind: metric_kind,
                    value: scalar,
                    count,
                });
            }
            other => {
                return Err(format!(
                    "{EVENTS_FILE} line {}: unknown record type `{other}`",
                    i + 1
                ))
            }
        }
    }
    Ok(data)
}

/// One parsed Prometheus sample: `(name, sorted labels, value)`.
pub type PromSample = (String, Vec<(String, String)>, f64);

/// Parses a Prometheus text exposition into `(name, labels, value)`
/// samples, ignoring comment lines.
///
/// # Errors
///
/// Returns a message naming the offending line on malformed input.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: `{line}`", i + 1);
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| err("expected `series value`"))?;
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v.parse().map_err(|_| err("bad sample value"))?,
        };
        let (name, labels) = match series.split_once('{') {
            None => (series.to_owned(), Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| err("unterminated label set"))?;
                let mut labels = Vec::new();
                // Label values are JSON-style quoted strings without
                // embedded commas in this workspace's output.
                for pair in body.split(',') {
                    let (k, v) = pair.split_once('=').ok_or_else(|| err("bad label pair"))?;
                    let v = parse(v)
                        .ok()
                        .and_then(|j| j.as_str().map(str::to_owned))
                        .ok_or_else(|| err("label value is not a quoted string"))?;
                    labels.push((k.to_owned(), v));
                }
                labels.sort();
                (name.to_owned(), labels)
            }
        };
        out.push((name, labels, value));
    }
    Ok(out)
}

fn check_chrome_trace(dir: &Path, problems: &mut Vec<String>) {
    let path = dir.join(TRACE_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            problems.push(format!("{TRACE_FILE}: {e}"));
            return;
        }
    };
    let trace = match parse(&text) {
        Ok(t) => t,
        Err(e) => {
            problems.push(format!("{TRACE_FILE}: {e}"));
            return;
        }
    };
    let Some(items) = trace.get("traceEvents").and_then(Json::as_arr) else {
        problems.push(format!("{TRACE_FILE}: missing traceEvents array"));
        return;
    };
    // Complete ("X") events need a duration; duration ("B"/"E") events
    // must nest properly per (tid, name).
    let mut open: BTreeMap<(u64, String), u64> = BTreeMap::new();
    for (i, item) in items.iter().enumerate() {
        let ph = item.get("ph").and_then(Json::as_str).unwrap_or("");
        let tid = item.get("tid").and_then(Json::as_u64).unwrap_or(0);
        let name = item
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned();
        match ph {
            "X" => {
                if item.get("dur").and_then(Json::as_u64).is_none() {
                    problems.push(format!(
                        "{TRACE_FILE}: event {i} (`{name}`) has ph=X but no dur"
                    ));
                }
            }
            "B" => *open.entry((tid, name.clone())).or_insert(0) += 1,
            "E" => match open.get_mut(&(tid, name.clone())) {
                Some(n) if *n > 0 => *n -= 1,
                _ => problems.push(format!("{TRACE_FILE}: event {i} (`{name}`) E without B")),
            },
            "C" | "M" | "i" => {}
            other => problems.push(format!("{TRACE_FILE}: event {i} has unknown ph `{other}`")),
        }
        if item.get("ts").and_then(Json::as_u64).is_none() {
            problems.push(format!("{TRACE_FILE}: event {i} (`{name}`) missing ts"));
        }
    }
    for ((tid, name), n) in open {
        if n > 0 {
            problems.push(format!(
                "{TRACE_FILE}: {n} unmatched B event(s) for `{name}` on tid {tid}"
            ));
        }
    }
}

fn check_prometheus(dir: &Path, data: &ObsData, problems: &mut Vec<String>) {
    let path = dir.join(PROM_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            problems.push(format!("{PROM_FILE}: {e}"));
            return;
        }
    };
    let samples = match parse_prometheus(&text) {
        Ok(s) => s,
        Err(e) => {
            problems.push(format!("{PROM_FILE}: {e}"));
            return;
        }
    };
    // Every counter/gauge in the JSONL export must appear with the same
    // value in the Prometheus export.
    for metric in &data.metrics {
        if metric.kind == "histogram" {
            let count = samples.iter().find(|(name, labels, _)| {
                name == &format!("{}_count", metric.name) && *labels == metric.labels
            });
            match count {
                None => problems.push(format!(
                    "{PROM_FILE}: histogram `{}` missing _count series",
                    metric.name
                )),
                Some((_, _, v)) if *v != metric.count as f64 => problems.push(format!(
                    "{PROM_FILE}: `{}_count` is {v}, JSONL says {}",
                    metric.name, metric.count
                )),
                Some(_) => {}
            }
            continue;
        }
        let found = samples
            .iter()
            .find(|(name, labels, _)| name == &metric.name && *labels == metric.labels);
        match found {
            None => problems.push(format!(
                "{PROM_FILE}: metric `{}` from JSONL not found",
                metric.name
            )),
            Some((_, _, v)) if (*v - metric.value).abs() > 1e-6 => problems.push(format!(
                "{PROM_FILE}: `{}` is {v}, JSONL says {}",
                metric.name, metric.value
            )),
            Some(_) => {}
        }
    }
}

fn check_alias_reconciliation(data: &ObsData, problems: &mut Vec<String>) {
    // Per spec: sum of predictor_alias_correct_total across classes,
    // divided by the alias total, must equal the eval_accuracy gauge.
    let specs: Vec<&str> = data
        .metrics
        .iter()
        .filter(|m| m.name == "eval_accuracy")
        .filter_map(|m| {
            m.labels
                .iter()
                .find(|(k, _)| k == "spec")
                .map(|(_, v)| v.as_str())
        })
        .collect();
    for spec in specs {
        let sum_for = |name: &str| -> f64 {
            data.metrics
                .iter()
                .filter(|m| {
                    m.name == name && m.labels.iter().any(|(k, v)| k == "spec" && v == spec)
                })
                .map(|m| m.value)
                .sum()
        };
        let total = sum_for("predictor_alias_total");
        if total == 0.0 {
            continue; // predictor without aliasing instrumentation
        }
        let correct = sum_for("predictor_alias_correct_total");
        let accuracy = data
            .metric("eval_accuracy", "spec", spec)
            .map(|m| m.value)
            .unwrap_or(0.0);
        if ((correct / total) - accuracy).abs() > 1e-4 {
            problems.push(format!(
                "alias counts for `{spec}` give accuracy {:.6} but eval_accuracy is {accuracy:.6}",
                correct / total
            ));
        }
    }
}

/// Validates all three export files in `dir`.
///
/// # Errors
///
/// Returns the list of problems found (missing files, malformed JSON,
/// unmatched trace events, JSONL/Prometheus value disagreements,
/// aliasing counts that don't reconcile with recorded accuracy).
pub fn check(dir: &Path) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    let data = match load(dir) {
        Ok(d) => d,
        Err(e) => {
            problems.push(e);
            ObsData::default()
        }
    };
    check_chrome_trace(dir, &mut problems);
    check_prometheus(dir, &data, &mut problems);
    check_alias_reconciliation(&data, &mut problems);
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|&s| s.to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    fn render(&self, out: &mut String) {
        // Width in characters, not bytes: sparkline cells are multi-byte.
        let chars = |s: &str| s.chars().count();
        let mut widths: Vec<usize> = self.header.iter().map(|h| chars(h)).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(chars(cell));
            }
        }
        let mut line = |cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = widths[i].saturating_sub(chars(cell));
                // First column left-aligned, the rest right-aligned.
                if i == 0 {
                    let _ = write!(out, "{cell}{}", " ".repeat(pad));
                } else {
                    let _ = write!(out, "{}{cell}", " ".repeat(pad));
                }
            }
            out.push('\n');
        };
        line(&self.header);
        line(
            &self
                .header
                .iter()
                .enumerate()
                .map(|(i, _)| "-".repeat(widths[i]))
                .collect::<Vec<_>>(),
        );
        for row in &self.rows {
            line(row);
        }
    }
}

fn label(metric_labels: &[(String, String)], key: &str) -> String {
    metric_labels
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.clone())
        .unwrap_or_default()
}

/// Renders `values` as a unicode block-bar sparkline scaled to the
/// largest value (empty input renders empty). Shared with the
/// `dfcm-tools obs report` phase renderer.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(0.0_f64, f64::max);
    values
        .iter()
        .map(|&v| {
            let idx = if max > 0.0 {
                ((v / max) * (BARS.len() - 1) as f64).round() as usize
            } else {
                0
            };
            BARS[idx.min(BARS.len() - 1)]
        })
        .collect()
}

/// Renders the human-readable table-usage report for an obs directory:
/// per-predictor table occupancy (final state plus occupancy-over-time
/// sparkline) and the aliasing breakdown per predictor config.
pub fn summarize(data: &ObsData) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "obs summary: {} span(s), {} sample(s), {} metric(s)\n",
        data.span_count,
        data.samples.len(),
        data.metrics.len()
    );

    // -- Table usage -------------------------------------------------
    let mut table_keys: Vec<(String, String)> = data
        .metrics
        .iter()
        .filter(|m| m.name == "predictor_table_entries")
        .map(|m| (label(&m.labels, "spec"), label(&m.labels, "table")))
        .collect();
    table_keys.sort();
    table_keys.dedup();
    if !table_keys.is_empty() {
        let _ = writeln!(out, "Table usage");
        let mut t = Table::new(&[
            "spec",
            "table",
            "entries",
            "occupied",
            "occ%",
            "writes",
            "overwrites",
            "occupancy/time",
        ]);
        for (spec, tbl) in &table_keys {
            let find = |name: &str| -> f64 {
                data.metrics
                    .iter()
                    .find(|m| {
                        m.name == name
                            && label(&m.labels, "spec") == *spec
                            && label(&m.labels, "table") == *tbl
                    })
                    .map(|m| m.value)
                    .unwrap_or(0.0)
            };
            let entries = find("predictor_table_entries");
            let occupied = find("predictor_table_occupied");
            let series: Vec<f64> = data
                .samples
                .iter()
                .filter(|s| {
                    s.name == "table_occupancy_percent"
                        && label(&s.labels, "spec") == *spec
                        && label(&s.labels, "table") == *tbl
                })
                .map(|s| s.value)
                .collect();
            t.row(vec![
                spec.clone(),
                tbl.clone(),
                format!("{entries:.0}"),
                format!("{occupied:.0}"),
                if entries > 0.0 {
                    format!("{:.1}", 100.0 * occupied / entries)
                } else {
                    "-".to_owned()
                },
                format!("{:.0}", find("predictor_table_writes_total")),
                format!("{:.0}", find("predictor_table_overwrites_total")),
                sparkline(&series),
            ]);
        }
        t.render(&mut out);
        out.push('\n');
    }

    // -- Aliasing breakdown ------------------------------------------
    let mut specs: Vec<String> = data
        .metrics
        .iter()
        .filter(|m| m.name == "predictor_alias_total")
        .map(|m| label(&m.labels, "spec"))
        .collect();
    specs.sort();
    specs.dedup();
    if !specs.is_empty() {
        let _ = writeln!(out, "Aliasing breakdown (paper taxonomy)");
        let mut t = Table::new(&["spec", "class", "count", "fraction", "correct", "accuracy"]);
        for spec in &specs {
            let classes: Vec<(String, f64)> = data
                .metrics
                .iter()
                .filter(|m| m.name == "predictor_alias_total" && label(&m.labels, "spec") == *spec)
                .map(|m| (label(&m.labels, "class"), m.value))
                .collect();
            let total: f64 = classes.iter().map(|(_, v)| v).sum();
            for (class, count) in &classes {
                let correct = data
                    .metrics
                    .iter()
                    .find(|m| {
                        m.name == "predictor_alias_correct_total"
                            && label(&m.labels, "spec") == *spec
                            && label(&m.labels, "class") == *class
                    })
                    .map(|m| m.value)
                    .unwrap_or(0.0);
                t.row(vec![
                    spec.clone(),
                    class.clone(),
                    format!("{count:.0}"),
                    if total > 0.0 {
                        format!("{:.4}", count / total)
                    } else {
                        "-".to_owned()
                    },
                    format!("{correct:.0}"),
                    if *count > 0.0 {
                        format!("{:.4}", correct / count)
                    } else {
                        "-".to_owned()
                    },
                ]);
            }
            if let Some(acc) = data.metric("eval_accuracy", "spec", spec) {
                t.row(vec![
                    spec.clone(),
                    "(overall)".to_owned(),
                    format!("{total:.0}"),
                    "1.0000".to_owned(),
                    String::new(),
                    format!("{:.4}", acc.value),
                ]);
            }
        }
        t.render(&mut out);
        out.push('\n');
    }

    // -- Engine ------------------------------------------------------
    let engine: Vec<&LoadedMetric> = data
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("engine_"))
        .collect();
    if !engine.is_empty() {
        let _ = writeln!(out, "Engine");
        let mut t = Table::new(&["metric", "labels", "value"]);
        for m in engine {
            let labels = m
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",");
            let value = if m.kind == "histogram" {
                format!("count={} sum={:.3}", m.count, m.value)
            } else {
                format!("{:.3}", m.value)
            };
            t.row(vec![m.name.clone(), labels, value]);
        }
        t.render(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::write_exports;
    use crate::metrics::MetricsRegistry;
    use crate::span::Event;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dfcm-obs-summary-{tag}-{}", std::process::id()))
    }

    fn write_sample_dir(dir: &Path) {
        let events = vec![Event::Sample {
            name: "table_occupancy_percent".into(),
            labels: vec![
                ("spec".into(), "dfcm".into()),
                ("table".into(), "l2".into()),
            ],
            ts_us: 5,
            value: 50.0,
        }];
        let r = MetricsRegistry::new();
        r.add(
            "predictor_table_entries",
            &[("spec", "dfcm"), ("table", "l2")],
            64,
        );
        r.add(
            "predictor_table_occupied",
            &[("spec", "dfcm"), ("table", "l2")],
            32,
        );
        r.add(
            "predictor_alias_total",
            &[("spec", "dfcm"), ("class", "none")],
            8,
        );
        r.add(
            "predictor_alias_total",
            &[("spec", "dfcm"), ("class", "l1")],
            2,
        );
        r.add(
            "predictor_alias_correct_total",
            &[("spec", "dfcm"), ("class", "none")],
            5,
        );
        r.gauge("eval_accuracy", &[("spec", "dfcm")], 0.5);
        write_exports(dir, &events, &r.snapshot()).unwrap();
    }

    #[test]
    fn load_and_summarize_roundtrip() {
        let dir = temp_dir("roundtrip");
        write_sample_dir(&dir);
        let data = load(&dir).unwrap();
        assert_eq!(data.samples.len(), 1);
        assert_eq!(data.metrics.len(), 6);
        let report = summarize(&data);
        assert!(report.contains("dfcm"));
        assert!(report.contains("50.0") || report.contains("occ%"));
        assert!(report.contains("Aliasing breakdown"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_dir_is_a_clear_error() {
        let dir = temp_dir("no-such-dir");
        let err = load(&dir).unwrap_err();
        assert!(err.contains("no obs export found"), "{err}");
        assert!(err.contains("--obs"), "{err}");
    }

    #[test]
    fn load_empty_dir_is_a_clear_error() {
        let dir = temp_dir("empty-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let err = load(&dir).unwrap_err();
        assert!(err.contains("empty obs directory"), "{err}");
        assert!(err.contains("--obs"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_partial_export_names_present_files() {
        let dir = temp_dir("partial-dir");
        write_sample_dir(&dir);
        std::fs::remove_file(dir.join(EVENTS_FILE)).unwrap();
        let err = load(&dir).unwrap_err();
        assert!(err.contains("partial obs export"), "{err}");
        assert!(err.contains(TRACE_FILE), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn check_accepts_consistent_dir() {
        let dir = temp_dir("consistent");
        write_sample_dir(&dir);
        check(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn check_flags_corrupt_trace() {
        let dir = temp_dir("corrupt");
        write_sample_dir(&dir);
        std::fs::write(dir.join(TRACE_FILE), "{not json").unwrap();
        let problems = check(&dir).unwrap_err();
        assert!(problems.iter().any(|p| p.contains(TRACE_FILE)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn check_flags_unreconciled_alias_counts() {
        let dir = temp_dir("alias");
        write_sample_dir(&dir);
        // Rewrite events.jsonl with an accuracy that contradicts the
        // alias counters (5 correct / 10 total = 0.5, claim 0.9).
        let text = std::fs::read_to_string(dir.join(EVENTS_FILE)).unwrap();
        let text = text.replace("0.500000", "0.900000");
        std::fs::write(dir.join(EVENTS_FILE), text).unwrap();
        let problems = check(&dir).unwrap_err();
        assert!(problems.iter().any(|p| p.contains("alias counts")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prometheus_parser_roundtrips_values() {
        let r = MetricsRegistry::new();
        r.add("c_total", &[("spec", "a b")], 7);
        r.observe("h_seconds", &[], &[0.5, 1.0], 0.75);
        let text = crate::export::to_prometheus(&r.snapshot());
        let samples = parse_prometheus(&text).unwrap();
        assert!(samples
            .iter()
            .any(|(n, l, v)| n == "c_total" && l[0].1 == "a b" && *v == 7.0));
        assert!(samples
            .iter()
            .any(|(n, _, v)| n == "h_seconds_sum" && *v == 0.75));
        assert!(samples
            .iter()
            .any(|(n, _, v)| n == "h_seconds_count" && *v == 1.0));
    }

    #[test]
    fn sparkline_scales() {
        assert_eq!(sparkline(&[0.0, 50.0, 100.0]), "▁▅█");
        assert_eq!(sparkline(&[]), "");
    }
}
