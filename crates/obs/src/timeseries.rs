//! Phase-resolved time series and per-PC misprediction attribution.
//!
//! The aggregate exports ([`crate::export`]) answer *how much* — one
//! counter per run. This module answers *when* and *who*:
//!
//! * [`WindowSeries`] — fixed-window aggregation over the prediction
//!   index: per-window prediction/correct counters, per-aliasing-class
//!   counters and a miss-magnitude histogram. Windows are dense and
//!   addressed by `prediction_index / window_len`, so two partial series
//!   built over disjoint index ranges [`merge`](WindowSeries::merge)
//!   associatively and deterministically — the property that lets the
//!   chunk-parallel file streaming paths produce bit-identical series at
//!   any decode thread count.
//! * [`TopKTracker`] — a bounded space-saving (heavy-hitter) counter
//!   ranking static PCs by misprediction count, each broken down by
//!   aliasing class: the value-prediction analogue of hard-to-predict
//!   branch attribution. The table's counts sum to the *exact* number of
//!   recorded observations, and every entry carries an explicit error
//!   bound (`count - error <= true count <= count`), so approximate
//!   attribution still reconciles exactly against aggregate totals.
//! * [`LaneSeries`] — one instrumented predictor lane (a window series
//!   plus a top-K tracker under a spec label), rendered to and loaded
//!   from the `dfcm-obs-series/v1` JSONL schema ([`SERIES_FILE`]).
//!
//! The obs crate knows nothing about predictors: aliasing classes are
//! plain `usize` slots with caller-provided labels, so `dfcm-sim` can map
//! the paper's five-class taxonomy (plus an "unclassified" slot for
//! lanes that do not classify) without a dependency cycle.

use std::path::Path;

use crate::json::{json_string, parse, Json, JsonObj};
use crate::metrics::Histogram;

/// Filename of the windowed time-series JSONL inside an obs directory.
pub const SERIES_FILE: &str = "series.jsonl";

/// Schema tag carried by every series header line.
pub const SERIES_SCHEMA: &str = "dfcm-obs-series/v1";

/// Default window length (predictions per window) for instrumented runs.
///
/// Fixed rather than derived from the trace length: the streaming file
/// paths do not know the record count up front, and a fixed window keeps
/// series from different runs comparable.
pub const DEFAULT_SERIES_WINDOW: u64 = 4096;

/// Default number of per-PC attribution slots kept by a lane.
pub const DEFAULT_TOP_K: usize = 16;

/// Default bucket upper bounds for the per-window miss-magnitude
/// histogram (`|predicted - actual|`, observed only on mispredictions).
pub const MISS_MAGNITUDE_BOUNDS: &[f64] =
    &[1.0, 16.0, 256.0, 4096.0, 65536.0, 1.0e9, 1.0e13, 1.0e18];

/// Counters for one fixed window of the prediction index.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Predictions that fell into this window.
    pub predictions: u64,
    /// Correct predictions in this window.
    pub correct: u64,
    /// Predictions per aliasing-class slot (sums to `predictions`).
    pub class_total: Vec<u64>,
    /// Correct predictions per class slot (sums to `correct`).
    pub class_correct: Vec<u64>,
    /// `|predicted - actual|` of every misprediction in this window.
    pub miss_magnitude: Histogram,
}

impl WindowStats {
    fn new(classes: usize, bounds: &[f64]) -> Self {
        WindowStats {
            predictions: 0,
            correct: 0,
            class_total: vec![0; classes],
            class_correct: vec![0; classes],
            miss_magnitude: Histogram::new(bounds),
        }
    }

    /// The window's accuracy, `correct / predictions` (0 when empty).
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }

    #[inline]
    fn record(&mut self, class: usize, correct: bool, magnitude: u64) {
        self.predictions += 1;
        self.class_total[class] += 1;
        if correct {
            self.correct += 1;
            self.class_correct[class] += 1;
        } else {
            self.miss_magnitude.observe(magnitude as f64);
        }
    }

    fn merge(&mut self, other: &WindowStats) {
        self.predictions += other.predictions;
        self.correct += other.correct;
        for (a, b) in self.class_total.iter_mut().zip(&other.class_total) {
            *a += b;
        }
        for (a, b) in self.class_correct.iter_mut().zip(&other.class_correct) {
            *a += b;
        }
        self.miss_magnitude.merge(&other.miss_magnitude);
    }
}

/// A fixed-window time series over the prediction index.
///
/// Windows are dense from index 0; recording at prediction index `i`
/// updates window `i / window_len`. [`merge`](WindowSeries::merge) is
/// associative and commutative (element-wise sums), so a series can be
/// assembled from per-chunk partials in any grouping and always equal
/// the serial fold.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSeries {
    window_len: u64,
    class_labels: Vec<String>,
    bounds: Vec<f64>,
    windows: Vec<WindowStats>,
}

impl WindowSeries {
    /// An empty series with the given window length, class-slot labels
    /// and miss-magnitude bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics if `window_len` is 0, `class_labels` is empty, or `bounds`
    /// is not a valid histogram layout (see [`Histogram::new`]).
    pub fn new(window_len: u64, class_labels: &[&str], bounds: &[f64]) -> Self {
        assert!(window_len > 0, "window length must be positive");
        assert!(!class_labels.is_empty(), "need at least one class slot");
        // Validate the layout eagerly, not on first record.
        let _ = Histogram::new(bounds);
        WindowSeries {
            window_len,
            class_labels: class_labels.iter().map(|&s| s.to_owned()).collect(),
            bounds: bounds.to_vec(),
            windows: Vec::new(),
        }
    }

    /// Records one prediction outcome at prediction index `index`.
    ///
    /// `magnitude` is `|predicted - actual|` and is only folded into the
    /// miss histogram when the prediction was wrong.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not a valid slot index.
    #[inline]
    pub fn record(&mut self, index: u64, class: usize, correct: bool, magnitude: u64) {
        // Fast path: streaming folds record at a monotone index, so
        // almost every call lands in the last window — a multiply and
        // two compares instead of a 64-bit division per record.
        if let Some(last) = self.windows.len().checked_sub(1) {
            let start = last as u64 * self.window_len;
            if index >= start && index - start < self.window_len {
                self.windows[last].record(class, correct, magnitude);
                return;
            }
        }
        let w = (index / self.window_len) as usize;
        while self.windows.len() <= w {
            self.windows
                .push(WindowStats::new(self.class_labels.len(), &self.bounds));
        }
        self.windows[w].record(class, correct, magnitude);
    }

    /// Merges another series into this one, window by window.
    ///
    /// Associative, commutative and deterministic: partial series built
    /// over disjoint prediction-index ranges combine into exactly the
    /// series a serial fold over the union would have produced.
    ///
    /// # Panics
    ///
    /// Panics when the window length, class labels or histogram bounds
    /// differ — merging differently-shaped series is a programming
    /// error, mirroring [`Histogram::merge`].
    pub fn merge(&mut self, other: &WindowSeries) {
        assert_eq!(
            self.window_len, other.window_len,
            "cannot merge series with different window lengths"
        );
        assert_eq!(
            self.class_labels, other.class_labels,
            "cannot merge series with different class labels"
        );
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge series with different histogram bounds"
        );
        while self.windows.len() < other.windows.len() {
            self.windows
                .push(WindowStats::new(self.class_labels.len(), &self.bounds));
        }
        for (a, b) in self.windows.iter_mut().zip(&other.windows) {
            a.merge(b);
        }
    }

    /// The configured window length (predictions per window).
    pub fn window_len(&self) -> u64 {
        self.window_len
    }

    /// The class-slot labels, in slot order.
    pub fn class_labels(&self) -> &[String] {
        &self.class_labels
    }

    /// The dense window list, from prediction index 0.
    pub fn windows(&self) -> &[WindowStats] {
        &self.windows
    }

    /// All windows folded into one [`WindowStats`] — the whole-run
    /// aggregate the per-window counters must reconcile against.
    pub fn totals(&self) -> WindowStats {
        let mut total = WindowStats::new(self.class_labels.len(), &self.bounds);
        for w in &self.windows {
            total.merge(w);
        }
        total
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct TopCounts {
    count: u64,
    error: u64,
    class_miss: Vec<u64>,
}

/// One ranked entry reported by a [`TopKTracker`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopEntry {
    /// The static instruction address.
    pub pc: u64,
    /// Estimated observation count. The true count is within
    /// `count - error ..= count`.
    pub count: u64,
    /// Maximum overestimation inherited from the entry this one evicted
    /// (0 for entries that were never evicted — their counts are exact).
    pub error: u64,
    /// Observations per aliasing-class slot since this entry entered the
    /// table; sums to `count - error` exactly.
    pub class_miss: Vec<u64>,
}

/// A bounded heavy-hitter counter over static PCs (space-saving
/// algorithm), std-only and deterministic.
///
/// At most `capacity` PCs are tracked. When a new PC arrives at a full
/// table, the entry with the smallest `(count, pc)` is evicted and the
/// newcomer inherits its count plus one, recording the inherited count
/// as its `error` bound. Two invariants make approximate attribution
/// auditable:
///
/// * the table's counts always sum to exactly the number of recorded
///   observations ([`total`](TopKTracker::total)), and
/// * any PC whose true count exceeds `total / capacity` is guaranteed
///   to be in the table.
///
/// Ties break on the numerically smallest PC, so the tracker's state is
/// a pure function of the observation sequence.
#[derive(Debug, Clone)]
pub struct TopKTracker {
    capacity: usize,
    classes: usize,
    /// Tracked PCs, parallel to `counts`, in no particular order. Flat
    /// unsorted storage keeps the per-record hot path allocation-free
    /// and movement-free: hits linear-scan at most `capacity` packed
    /// keys (two cache lines at the default capacity), and evictions
    /// overwrite the victim's slot in place, reusing its buffers.
    pcs: Vec<u64>,
    counts: Vec<TopCounts>,
    total: u64,
}

/// Equality is content equality — the same tracked PCs with the same
/// counts in the same configuration — independent of the slot order the
/// observation sequence happened to produce.
impl PartialEq for TopKTracker {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.classes == other.classes
            && self.total == other.total
            && self.ranked() == other.ranked()
    }
}

impl Eq for TopKTracker {}

impl TopKTracker {
    /// An empty tracker with `capacity` slots and `classes` class slots
    /// per entry.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `classes` is 0.
    pub fn new(capacity: usize, classes: usize) -> Self {
        assert!(capacity > 0, "tracker needs at least one slot");
        assert!(classes > 0, "need at least one class slot");
        TopKTracker {
            capacity,
            classes,
            pcs: Vec::new(),
            counts: Vec::new(),
            total: 0,
        }
    }

    /// Records one observation of `pc` in class slot `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not a valid slot index.
    #[inline]
    pub fn record(&mut self, pc: u64, class: usize) {
        assert!(class < self.classes, "class slot out of range");
        self.total += 1;
        if let Some(i) = self.pcs.iter().position(|&p| p == pc) {
            let entry = &mut self.counts[i];
            entry.count += 1;
            entry.class_miss[class] += 1;
        } else {
            self.admit(pc, class);
        }
    }

    /// Cold half of [`record`](TopKTracker::record): admits an untracked
    /// PC, evicting the entry with the smallest `(count, pc)` when the
    /// table is full. The newcomer inherits the victim's count as its
    /// error bound — and overwrites the victim's slot in place, reusing
    /// its `class_miss` buffer, so the per-record path never allocates
    /// once the table has filled — keeping the table's count sum equal
    /// to the observation total.
    fn admit(&mut self, pc: u64, class: usize) {
        if self.pcs.len() < self.capacity {
            let mut fresh = TopCounts {
                count: 1,
                error: 0,
                class_miss: vec![0; self.classes],
            };
            fresh.class_miss[class] = 1;
            self.pcs.push(pc);
            self.counts.push(fresh);
            return;
        }
        let victim = self
            .counts
            .iter()
            .zip(&self.pcs)
            .enumerate()
            .min_by_key(|(_, (e, &vpc))| (e.count, vpc))
            .map(|(i, _)| i)
            .expect("table is non-empty when full");
        self.pcs[victim] = pc;
        let entry = &mut self.counts[victim];
        entry.error = entry.count;
        entry.count += 1;
        entry.class_miss.fill(0);
        entry.class_miss[class] = 1;
    }

    /// Total observations recorded (exact; always equals the sum of the
    /// table's counts).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of PCs currently tracked.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// True when nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// The tracked entries ranked by count descending, PC ascending on
    /// ties — a deterministic order for rendering.
    pub fn ranked(&self) -> Vec<TopEntry> {
        let mut out: Vec<TopEntry> = self
            .pcs
            .iter()
            .zip(&self.counts)
            .map(|(&pc, e)| TopEntry {
                pc,
                count: e.count,
                error: e.error,
                class_miss: e.class_miss.clone(),
            })
            .collect();
        out.sort_by(|a, b| b.count.cmp(&a.count).then(a.pc.cmp(&b.pc)));
        out
    }
}

/// One instrumented predictor lane: a windowed series plus a top-K
/// misprediction tracker under a spec label.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSeries {
    spec: String,
    series: WindowSeries,
    top: TopKTracker,
}

impl LaneSeries {
    /// An empty lane with explicit window length and top-K capacity.
    ///
    /// # Panics
    ///
    /// As [`WindowSeries::new`] and [`TopKTracker::new`].
    pub fn new(spec: &str, window_len: u64, class_labels: &[&str], top_k: usize) -> Self {
        LaneSeries {
            spec: spec.to_owned(),
            series: WindowSeries::new(window_len, class_labels, MISS_MAGNITUDE_BOUNDS),
            top: TopKTracker::new(top_k, class_labels.len()),
        }
    }

    /// An empty lane with the default window length and capacity.
    pub fn with_defaults(spec: &str, class_labels: &[&str]) -> Self {
        LaneSeries::new(spec, DEFAULT_SERIES_WINDOW, class_labels, DEFAULT_TOP_K)
    }

    /// Records one prediction at prediction index `index`: the window
    /// series always, the top-K tracker only on a misprediction.
    #[inline]
    pub fn record(&mut self, index: u64, pc: u64, class: usize, predicted: u64, actual: u64) {
        let correct = predicted == actual;
        self.series
            .record(index, class, correct, predicted.abs_diff(actual));
        if !correct {
            self.top.record(pc, class);
        }
    }

    /// The lane's spec label.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// A copy of the lane under the spec label `spec`.
    pub fn relabeled(&self, spec: &str) -> LaneSeries {
        LaneSeries {
            spec: spec.to_owned(),
            ..self.clone()
        }
    }

    /// The windowed series.
    pub fn series(&self) -> &WindowSeries {
        &self.series
    }

    /// The per-PC tracker.
    pub fn top(&self) -> &TopKTracker {
        &self.top
    }

    /// Renders the lane as `dfcm-obs-series/v1` JSONL lines: a `series`
    /// header, one `window` line per window, one `pc` line per tracked
    /// PC (ranked) and a `series_total` footer.
    pub fn to_jsonl(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(2 + self.series.windows.len() + self.top.len());
        let classes = format!(
            "[{}]",
            self.series
                .class_labels
                .iter()
                .map(|l| json_string(l))
                .collect::<Vec<_>>()
                .join(",")
        );
        lines.push(
            JsonObj::new()
                .str("type", "series")
                .str("schema", SERIES_SCHEMA)
                .str("spec", &self.spec)
                .u64("window_len", self.series.window_len)
                .raw("classes", &classes)
                .raw("bounds", &f64_arr(&self.series.bounds))
                .u64("windows", self.series.windows.len() as u64)
                .u64("top_k", self.top.capacity as u64)
                .finish(),
        );
        for (i, w) in self.series.windows.iter().enumerate() {
            lines.push(
                JsonObj::new()
                    .str("type", "window")
                    .str("spec", &self.spec)
                    .u64("index", i as u64)
                    .u64("start", i as u64 * self.series.window_len)
                    .u64("predictions", w.predictions)
                    .u64("correct", w.correct)
                    .f64("accuracy", w.accuracy(), 6)
                    .raw("class_total", &u64_arr(&w.class_total))
                    .raw("class_correct", &u64_arr(&w.class_correct))
                    .raw("miss_counts", &u64_arr(&w.miss_magnitude.counts))
                    .u64("misses", w.miss_magnitude.count)
                    .finish(),
            );
        }
        for (rank, e) in self.top.ranked().iter().enumerate() {
            lines.push(
                JsonObj::new()
                    .str("type", "pc")
                    .str("spec", &self.spec)
                    .u64("rank", rank as u64 + 1)
                    .str("pc", &format!("{:#x}", e.pc))
                    .u64("count", e.count)
                    .u64("error", e.error)
                    .raw("class_miss", &u64_arr(&e.class_miss))
                    .finish(),
            );
        }
        let totals = self.series.totals();
        lines.push(
            JsonObj::new()
                .str("type", "series_total")
                .str("spec", &self.spec)
                .u64("predictions", totals.predictions)
                .u64("correct", totals.correct)
                .u64("mispredictions", totals.predictions - totals.correct)
                .u64("top_recorded", self.top.total())
                .finish(),
        );
        lines
    }
}

fn u64_arr(xs: &[u64]) -> String {
    format!(
        "[{}]",
        xs.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    )
}

fn f64_arr(xs: &[f64]) -> String {
    format!(
        "[{}]",
        xs.iter()
            .map(|x| format!("{x}"))
            .collect::<Vec<_>>()
            .join(",")
    )
}

/// Renders a set of lanes as one deterministic JSONL document: lanes are
/// sorted by spec (engine tasks may finish in any order), then each lane
/// contributes its header, windows, PCs and footer.
pub fn render_series(lanes: &[LaneSeries]) -> Vec<String> {
    let mut sorted: Vec<&LaneSeries> = lanes.iter().collect();
    sorted.sort_by(|a, b| a.spec.cmp(&b.spec));
    sorted.iter().flat_map(|l| l.to_jsonl()).collect()
}

/// One `window` line loaded back from a series export.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedWindow {
    /// Window index (`start / window_len`).
    pub index: u64,
    /// First prediction index covered by this window.
    pub start: u64,
    /// Predictions in the window.
    pub predictions: u64,
    /// Correct predictions in the window.
    pub correct: u64,
    /// Rendered accuracy.
    pub accuracy: f64,
    /// Per-class prediction counts.
    pub class_total: Vec<u64>,
    /// Per-class correct counts.
    pub class_correct: Vec<u64>,
    /// Miss-magnitude bucket counts (`bounds.len() + 1` buckets).
    pub miss_counts: Vec<u64>,
    /// Total mispredictions in the window.
    pub misses: u64,
}

/// One `pc` line loaded back from a series export.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedTopEntry {
    /// 1-based rank.
    pub rank: u64,
    /// The static instruction address.
    pub pc: u64,
    /// Estimated misprediction count.
    pub count: u64,
    /// Overestimation bound.
    pub error: u64,
    /// Per-class observed counts.
    pub class_miss: Vec<u64>,
}

/// The `series_total` footer loaded back from a series export.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedTotals {
    /// Total predictions across all windows.
    pub predictions: u64,
    /// Total correct predictions.
    pub correct: u64,
    /// `predictions - correct`.
    pub mispredictions: u64,
    /// Observations recorded by the top-K tracker.
    pub top_recorded: u64,
}

/// One lane parsed back from [`SERIES_FILE`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedSeries {
    /// The lane's spec label.
    pub spec: String,
    /// Window length declared by the header.
    pub window_len: u64,
    /// Class-slot labels declared by the header.
    pub classes: Vec<String>,
    /// Miss-magnitude bucket bounds declared by the header.
    pub bounds: Vec<f64>,
    /// Top-K capacity declared by the header.
    pub top_k: u64,
    /// Window lines, in file order.
    pub windows: Vec<LoadedWindow>,
    /// PC lines, in file (rank) order.
    pub top: Vec<LoadedTopEntry>,
    /// The footer, if present.
    pub totals: Option<LoadedTotals>,
}

fn need_u64(value: &Json, key: &str, what: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what}: missing or bad \"{key}\""))
}

fn u64_list(value: &Json, key: &str, what: &str) -> Result<Vec<u64>, String> {
    value
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{what}: missing array \"{key}\""))?
        .iter()
        .map(|v| v.as_u64().ok_or_else(|| format!("{what}: bad \"{key}\"")))
        .collect()
}

/// Parses [`SERIES_FILE`] from an obs directory.
///
/// # Errors
///
/// Returns a message naming the problem when the file is missing (the
/// run was not instrumented for series output), a line is malformed, or
/// a `window`/`pc`/`series_total` line precedes its lane's header.
pub fn load_series(dir: &Path) -> Result<Vec<LoadedSeries>, String> {
    let path = dir.join(SERIES_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{}: {e} (series are only exported by instrumented runs; \
             re-run with --obs on a path that records them)",
            path.display()
        )
    })?;
    let mut lanes: Vec<LoadedSeries> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let what = format!("{SERIES_FILE} line {}", i + 1);
        let value = parse(line).map_err(|e| format!("{what}: {e}"))?;
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{what}: missing \"type\""))?;
        let spec = value
            .get("spec")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{what}: missing \"spec\""))?
            .to_owned();
        if kind == "series" {
            let schema = value.get("schema").and_then(Json::as_str).unwrap_or("");
            if schema != SERIES_SCHEMA {
                return Err(format!(
                    "{what}: schema `{schema}` is not `{SERIES_SCHEMA}`"
                ));
            }
            let classes = value
                .get("classes")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{what}: missing array \"classes\""))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| format!("{what}: bad class label"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let bounds = value
                .get("bounds")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{what}: missing array \"bounds\""))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| format!("{what}: bad histogram bound"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            lanes.push(LoadedSeries {
                spec,
                window_len: need_u64(&value, "window_len", &what)?,
                classes,
                bounds,
                top_k: need_u64(&value, "top_k", &what)?,
                windows: Vec::new(),
                top: Vec::new(),
                totals: None,
            });
            continue;
        }
        let lane = lanes
            .iter_mut()
            .rev()
            .find(|l| l.spec == spec)
            .ok_or_else(|| format!("{what}: `{kind}` for `{spec}` before its series header"))?;
        match kind {
            "window" => lane.windows.push(LoadedWindow {
                index: need_u64(&value, "index", &what)?,
                start: need_u64(&value, "start", &what)?,
                predictions: need_u64(&value, "predictions", &what)?,
                correct: need_u64(&value, "correct", &what)?,
                accuracy: value.get("accuracy").and_then(Json::as_f64).unwrap_or(0.0),
                class_total: u64_list(&value, "class_total", &what)?,
                class_correct: u64_list(&value, "class_correct", &what)?,
                miss_counts: u64_list(&value, "miss_counts", &what)?,
                misses: need_u64(&value, "misses", &what)?,
            }),
            "pc" => {
                let pc_text = value
                    .get("pc")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{what}: missing \"pc\""))?;
                let pc = pc_text
                    .strip_prefix("0x")
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("{what}: bad pc `{pc_text}`"))?;
                lane.top.push(LoadedTopEntry {
                    rank: need_u64(&value, "rank", &what)?,
                    pc,
                    count: need_u64(&value, "count", &what)?,
                    error: need_u64(&value, "error", &what)?,
                    class_miss: u64_list(&value, "class_miss", &what)?,
                });
            }
            "series_total" => {
                lane.totals = Some(LoadedTotals {
                    predictions: need_u64(&value, "predictions", &what)?,
                    correct: need_u64(&value, "correct", &what)?,
                    mispredictions: need_u64(&value, "mispredictions", &what)?,
                    top_recorded: need_u64(&value, "top_recorded", &what)?,
                });
            }
            other => return Err(format!("{what}: unknown record type `{other}`")),
        }
    }
    Ok(lanes)
}

/// Validates a loaded series document's internal consistency: windowed
/// counters must sum exactly to the footer totals, every window's class
/// breakdown must reconcile with its counters, and the top-K table must
/// satisfy the space-saving invariants (counts sum to the observation
/// total; per-entry class counts sum to `count - error`; ranks ordered).
///
/// Returns the list of problems found (empty means consistent).
pub fn check_series(lanes: &[LoadedSeries]) -> Vec<String> {
    let mut problems = Vec::new();
    for lane in lanes {
        let spec = &lane.spec;
        let classes = lane.classes.len();
        let Some(totals) = &lane.totals else {
            problems.push(format!("series `{spec}`: missing series_total footer"));
            continue;
        };
        let mut predictions = 0u64;
        let mut correct = 0u64;
        for w in &lane.windows {
            let at = format!("series `{spec}` window {}", w.index);
            predictions += w.predictions;
            correct += w.correct;
            if w.start != w.index * lane.window_len {
                problems.push(format!("{at}: start {} != index*window_len", w.start));
            }
            if w.correct > w.predictions {
                problems.push(format!(
                    "{at}: correct {} exceeds predictions {}",
                    w.correct, w.predictions
                ));
            }
            if w.class_total.len() != classes || w.class_correct.len() != classes {
                problems.push(format!("{at}: class array length != {classes}"));
                continue;
            }
            if w.class_total.iter().sum::<u64>() != w.predictions {
                problems.push(format!("{at}: class_total does not sum to predictions"));
            }
            if w.class_correct.iter().sum::<u64>() != w.correct {
                problems.push(format!("{at}: class_correct does not sum to correct"));
            }
            if w.misses != w.predictions - w.correct.min(w.predictions) {
                problems.push(format!(
                    "{at}: misses {} != predictions - correct",
                    w.misses
                ));
            }
            if w.miss_counts.iter().sum::<u64>() != w.misses {
                problems.push(format!("{at}: miss_counts does not sum to misses"));
            }
            let expected = if w.predictions == 0 {
                0.0
            } else {
                w.correct as f64 / w.predictions as f64
            };
            if (w.accuracy - expected).abs() > 1e-4 {
                problems.push(format!(
                    "{at}: accuracy {:.6} but counters give {expected:.6}",
                    w.accuracy
                ));
            }
        }
        if predictions != totals.predictions {
            problems.push(format!(
                "series `{spec}`: windows sum to {predictions} predictions, footer says {}",
                totals.predictions
            ));
        }
        if correct != totals.correct {
            problems.push(format!(
                "series `{spec}`: windows sum to {correct} correct, footer says {}",
                totals.correct
            ));
        }
        if totals.mispredictions != totals.predictions - totals.correct.min(totals.predictions) {
            problems.push(format!(
                "series `{spec}`: footer mispredictions {} != predictions - correct",
                totals.mispredictions
            ));
        }
        // Space-saving invariant: the table's counts sum to exactly the
        // number of observations — approximate per-entry counts, exact
        // aggregate.
        let table_sum: u64 = lane.top.iter().map(|e| e.count).sum();
        if table_sum != totals.top_recorded {
            problems.push(format!(
                "series `{spec}`: top-K counts sum to {table_sum}, footer recorded {}",
                totals.top_recorded
            ));
        }
        if totals.top_recorded != totals.mispredictions {
            problems.push(format!(
                "series `{spec}`: top-K recorded {} observations, footer has {} mispredictions",
                totals.top_recorded, totals.mispredictions
            ));
        }
        for (i, e) in lane.top.iter().enumerate() {
            let at = format!("series `{spec}` pc {:#x}", e.pc);
            if e.rank != i as u64 + 1 {
                problems.push(format!("{at}: rank {} out of order", e.rank));
            }
            if e.error > e.count {
                problems.push(format!("{at}: error {} exceeds count {}", e.error, e.count));
            }
            if e.class_miss.len() != classes {
                problems.push(format!("{at}: class_miss length != {classes}"));
            } else if e.class_miss.iter().sum::<u64>() != e.count - e.error {
                problems.push(format!("{at}: class_miss does not sum to count - error"));
            }
            if i > 0 && lane.top[i - 1].count < e.count {
                problems.push(format!("{at}: counts not ranked descending"));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    const LABELS: &[&str] = &["l1", "hash", "none"];

    /// A deterministic pseudo-random access stream: (index, pc, class,
    /// predicted, actual).
    fn stream(n: u64) -> Vec<(u64, u64, usize, u64, u64)> {
        (0..n)
            .map(|i| {
                let x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
                let actual = x % 50;
                let predicted = if x % 3 == 0 { actual } else { x % 97 };
                (i, 4 * (x % 23), (x % 3) as usize, predicted, actual)
            })
            .collect()
    }

    fn lane_over(events: &[(u64, u64, usize, u64, u64)]) -> LaneSeries {
        let mut lane = LaneSeries::new("dfcm:6:10", 64, LABELS, 4);
        for &(i, pc, class, predicted, actual) in events {
            lane.record(i, pc, class, predicted, actual);
        }
        lane
    }

    #[test]
    fn window_series_merge_equals_serial_fold() {
        let events = stream(1000);
        let mut serial = WindowSeries::new(64, LABELS, MISS_MAGNITUDE_BOUNDS);
        for &(i, _, class, predicted, actual) in &events {
            serial.record(i, class, predicted == actual, predicted.abs_diff(actual));
        }
        // Any contiguous split merges back to the serial series.
        for split in [1, 63, 64, 500, 999] {
            let mut left = WindowSeries::new(64, LABELS, MISS_MAGNITUDE_BOUNDS);
            let mut right = WindowSeries::new(64, LABELS, MISS_MAGNITUDE_BOUNDS);
            for (k, &(i, _, class, predicted, actual)) in events.iter().enumerate() {
                let part = if k < split { &mut left } else { &mut right };
                part.record(i, class, predicted == actual, predicted.abs_diff(actual));
            }
            let mut merged = left.clone();
            merged.merge(&right);
            assert_eq!(merged, serial, "split at {split}");
            // And in the other association order.
            let mut reversed = right;
            reversed.merge(&left);
            assert_eq!(reversed, serial, "reverse merge at {split}");
        }
    }

    #[test]
    fn window_series_totals_reconcile() {
        let lane = lane_over(&stream(777));
        let totals = lane.series().totals();
        assert_eq!(totals.predictions, 777);
        assert_eq!(totals.class_total.iter().sum::<u64>(), totals.predictions);
        assert_eq!(totals.class_correct.iter().sum::<u64>(), totals.correct);
        assert_eq!(
            totals.miss_magnitude.count,
            totals.predictions - totals.correct
        );
        // Top-K records exactly the mispredictions.
        assert_eq!(lane.top().total(), totals.predictions - totals.correct);
    }

    #[test]
    #[should_panic(expected = "different window lengths")]
    fn merge_rejects_mismatched_windows() {
        let mut a = WindowSeries::new(64, LABELS, MISS_MAGNITUDE_BOUNDS);
        a.merge(&WindowSeries::new(128, LABELS, MISS_MAGNITUDE_BOUNDS));
    }

    #[test]
    fn top_k_counts_sum_to_observations_under_eviction() {
        // 23 distinct PCs through a 4-slot table: heavy eviction.
        let mut top = TopKTracker::new(4, 3);
        let events = stream(5000);
        let mut misses = 0u64;
        for &(_, pc, class, predicted, actual) in &events {
            if predicted != actual {
                top.record(pc, class);
                misses += 1;
            }
        }
        assert_eq!(top.total(), misses);
        let ranked = top.ranked();
        assert_eq!(ranked.len(), 4);
        assert_eq!(ranked.iter().map(|e| e.count).sum::<u64>(), misses);
        for e in &ranked {
            assert!(e.error <= e.count);
            assert_eq!(e.class_miss.iter().sum::<u64>(), e.count - e.error);
        }
        // Ranked order is count-descending with pc tiebreak.
        for pair in ranked.windows(2) {
            assert!(
                pair[0].count > pair[1].count
                    || (pair[0].count == pair[1].count && pair[0].pc < pair[1].pc)
            );
        }
    }

    #[test]
    fn top_k_is_exact_below_capacity() {
        let mut top = TopKTracker::new(8, 1);
        for _ in 0..5 {
            top.record(0x40, 0);
        }
        for _ in 0..3 {
            top.record(0x44, 0);
        }
        let ranked = top.ranked();
        assert_eq!(ranked.len(), 2);
        assert_eq!(
            (ranked[0].pc, ranked[0].count, ranked[0].error),
            (0x40, 5, 0)
        );
        assert_eq!(
            (ranked[1].pc, ranked[1].count, ranked[1].error),
            (0x44, 3, 0)
        );
    }

    #[test]
    fn top_k_is_deterministic() {
        let events = stream(3000);
        let run = || {
            let mut top = TopKTracker::new(4, 3);
            for &(_, pc, class, predicted, actual) in &events {
                if predicted != actual {
                    top.record(pc, class);
                }
            }
            top.ranked()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn jsonl_roundtrip_and_check_pass() {
        let lane = lane_over(&stream(1000));
        let other = {
            let mut l = LaneSeries::new("fcm:6:10", 64, LABELS, 4);
            for &(i, pc, class, predicted, actual) in &stream(300) {
                l.record(i, pc, class, predicted, actual);
            }
            l
        };
        let dir = std::env::temp_dir().join(format!(
            "dfcm-obs-series-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        // render_series sorts by spec regardless of push order.
        let lines = render_series(&[lane.clone(), other.clone()]);
        crate::export::write_jsonl_report(&dir.join(SERIES_FILE), &lines).unwrap();
        let loaded = load_series(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].spec, "dfcm:6:10");
        assert_eq!(loaded[1].spec, "fcm:6:10");
        assert_eq!(loaded[0].windows.len(), lane.series().windows().len());
        assert_eq!(loaded[0].top.len(), lane.top().len());
        let totals = lane.series().totals();
        assert_eq!(
            loaded[0].totals.as_ref().unwrap().predictions,
            totals.predictions
        );
        let problems = check_series(&loaded);
        assert!(problems.is_empty(), "{problems:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn check_flags_tampered_series() {
        let lane = lane_over(&stream(500));
        let dir = std::env::temp_dir().join(format!(
            "dfcm-obs-series-tamper-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let text = render_series(std::slice::from_ref(&lane)).join("\n");
        // Inflate one window's correct count: the footer, the class
        // breakdown and the accuracy all stop reconciling.
        let tampered = text.replacen("\"correct\":", "\"correct\":1000000, \"x\":", 2);
        std::fs::write(dir.join(SERIES_FILE), tampered).unwrap();
        let problems = check_series(&load_series(&dir).unwrap());
        assert!(!problems.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_series_missing_file_is_a_clear_error() {
        let dir =
            std::env::temp_dir().join(format!("dfcm-obs-series-missing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = load_series(&dir).unwrap_err();
        assert!(err.contains(SERIES_FILE), "{err}");
        assert!(err.contains("--obs"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_series_rejects_orphan_lines() {
        let dir =
            std::env::temp_dir().join(format!("dfcm-obs-series-orphan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(SERIES_FILE),
            "{\"type\":\"window\",\"spec\":\"x\",\"index\":0}\n",
        )
        .unwrap();
        let err = load_series(&dir).unwrap_err();
        assert!(err.contains("before its series header"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
