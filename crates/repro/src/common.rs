//! Shared options and helpers for the reproduction experiments.

use std::collections::HashMap;
use std::fmt::Debug;
use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use dfcm::{DelayedUpdate, TableStats, ValuePredictor};
use dfcm_obs::timeseries::LaneSeries;
use dfcm_sim::checkpoint::{decode_rows, encode_rows};
use dfcm_sim::engine::{TaskError, TaskOutput};
use dfcm_sim::stream::class_slot;
use dfcm_sim::{
    run_tasks_resumable, sweep_engine_ft, BenchmarkResult, ConfidenceStats, EngineConfig,
    EngineReport, RunStats, StreamPredictor, SuiteResult, SweepPoint, SERIES_CLASS_LABELS,
};
use dfcm_trace::suite::{standard_suite, standard_traces};
use dfcm_trace::{salvage_trace, BenchmarkTrace, Trace};

/// Command-line options shared by all experiments.
#[derive(Debug, Clone)]
pub struct Options {
    /// Master seed for workload generation.
    pub seed: u64,
    /// Trace-length scale (1.0 ≈ paper counts ÷ 100).
    pub scale: f64,
    /// Extend sweeps to the paper's largest table sizes (2^18, 2^20).
    pub full: bool,
    /// Directory for CSV output.
    pub out_dir: PathBuf,
    /// Engine worker threads; `0` picks one per hardware thread.
    pub threads: usize,
    /// Print engine progress counts on stderr.
    pub progress: bool,
    /// Checkpoint completed tasks under `<out_dir>/checkpoints/` and
    /// skip tasks already checkpointed by a previous (interrupted) run.
    pub resume: bool,
    /// Load suite traces from `<dir>/<benchmark>.trc` instead of
    /// regenerating them (`--traces DIR`).
    pub trace_dir: Option<PathBuf>,
    /// With `--traces`: refuse damaged trace files outright instead of
    /// salvaging the intact chunks with a warning (`--strict`).
    pub strict: bool,
    /// Observability handle threaded into the engine and experiments;
    /// enabled by `--obs DIR` (disabled — zero-cost — otherwise).
    pub obs: dfcm_obs::Obs,
    /// Directory the observability exports are written to at the end of
    /// the run (`--obs DIR`).
    pub obs_dir: Option<PathBuf>,
    /// The suite [`Options::traces`] last produced and what the run
    /// evaluated on it. Not a setting: it is public only so that
    /// `..Options::default()` literals compile.
    pub suite: SuiteMemo,
}

/// The memo behind [`Options::traces`], [`Experiment::lanes`] and
/// [`Experiment::delayed`]: the suite it last generated or loaded, the
/// options that produced it, and what the run evaluated on that suite —
/// the [`RunStats`] of each (canonical spec, benchmark) pair, plain or
/// under an update delay, and one §4.2 pass per canonical spec. All
/// of it is dropped together when `seed`, `scale`, `trace_dir` or
/// `strict` change, so no result crosses suites.
///
/// A clone starts out holding the same suite and results.
#[derive(Default)]
pub struct SuiteMemo(Mutex<Option<Suite>>);

/// One suite and what the run evaluated on it.
#[derive(Clone)]
struct Suite {
    key: SuiteKey,
    traces: Arc<[BenchmarkTrace]>,
    /// Each evaluation's stats, one slot per benchmark in suite order;
    /// `None` where its task failed.
    stats: HashMap<Evaluation, Vec<Option<RunStats>>>,
    alias: HashMap<String, Arc<AliasPass>>,
}

/// One §4.2 pass of an FCM or DFCM lane over the suite (Figures 12–14,
/// `tags`, `speedup`): each benchmark's table stats in suite order, with
/// the aliasing breakdown and the confidence estimator's counts, and, if
/// the pass ran under `--obs` for a caller that records it, its phase
/// series.
pub(crate) struct AliasPass {
    pub(crate) per_bench: Vec<(&'static str, TableStats)>,
    pub(crate) series: Option<LaneSeries>,
}

impl AliasPass {
    /// Runs `spec`'s lane, fresh per benchmark and with table stats on,
    /// over every suite benchmark, so that it classifies and estimates
    /// each of its own predictions. With `observed`, additionally folds
    /// each prediction into a windowed phase series — one continuous
    /// prediction index across the benchmarks in suite order, so the
    /// series' phase boundaries are the benchmark boundaries.
    fn run(spec: &str, traces: &[BenchmarkTrace], observed: bool) -> AliasPass {
        let mut series = observed.then(|| LaneSeries::with_defaults(spec, SERIES_CLASS_LABELS));
        let mut index = 0u64;
        let per_bench = traces
            .iter()
            .map(|b| {
                let mut p = StreamPredictor::parse_spec(spec).expect("a canonical spec");
                p.enable_table_stats();
                for r in &b.trace {
                    let predicted = p.access(r.pc, r.value).predicted;
                    if let Some(series) = &mut series {
                        let slot = class_slot(p.last_alias_class());
                        series.record(index, r.pc, slot, predicted, r.value);
                    }
                    index += 1;
                }
                let stats = p.table_stats().filter(|s| s.alias.is_some());
                (b.name, stats.expect("an fcm or dfcm lane classifies"))
            })
            .collect();
        AliasPass { per_bench, series }
    }

    /// Per benchmark, in suite order: the predictions of the pass and
    /// those a confidence estimator with `tag_bits` tag bits and a
    /// counter `threshold` would issue.
    pub(crate) fn gated(&self, tag_bits: u32, threshold: u8) -> Vec<ConfidenceStats> {
        let stats = |(predictions, correct)| RunStats {
            predictions,
            correct,
        };
        self.per_bench
            .iter()
            .map(|(_, s)| {
                let confidence = s.confidence.expect("an fcm or dfcm lane estimates");
                ConfidenceStats {
                    all: stats(confidence.all()),
                    issued: stats(confidence.issued(tag_bits, threshold)),
                }
            })
            .collect()
    }
}

/// The options a suite depends on.
#[derive(Clone, PartialEq)]
struct SuiteKey {
    seed: u64,
    scale: f64,
    trace_dir: Option<PathBuf>,
    strict: bool,
}

impl SuiteMemo {
    fn lock(&self) -> MutexGuard<'_, Option<Suite>> {
        self.0.lock().expect("a suite load panicked")
    }

    /// The memoized suite if it was made under `key`, else the result of
    /// `load`, which then replaces the memo and every result in it.
    fn get_or_load(
        &self,
        key: SuiteKey,
        load: impl FnOnce() -> Result<Vec<BenchmarkTrace>, String>,
    ) -> Result<Arc<[BenchmarkTrace]>, String> {
        let mut slot = self.lock();
        if let Some(suite) = &*slot {
            if suite.key == key {
                return Ok(Arc::clone(&suite.traces));
            }
        }
        let traces: Arc<[BenchmarkTrace]> = load()?.into();
        *slot = Some(Suite {
            key,
            traces: Arc::clone(&traces),
            stats: HashMap::new(),
            alias: HashMap::new(),
        });
        Ok(traces)
    }

    /// `f` of the memoized suite, if it was made under `key`.
    fn with<R>(&self, key: &SuiteKey, f: impl FnOnce(&mut Suite) -> R) -> Option<R> {
        self.lock()
            .as_mut()
            .filter(|suite| suite.key == *key)
            .map(f)
    }
}

impl Clone for SuiteMemo {
    fn clone(&self) -> Self {
        SuiteMemo(Mutex::new(self.lock().clone()))
    }
}

impl std::fmt::Debug for SuiteMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuiteMemo").finish_non_exhaustive()
    }
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 12345,
            scale: 0.1,
            full: false,
            out_dir: PathBuf::from("results"),
            threads: 0,
            progress: false,
            resume: false,
            trace_dir: None,
            strict: false,
            obs: dfcm_obs::Obs::disabled(),
            obs_dir: None,
            suite: SuiteMemo::default(),
        }
    }
}

impl Options {
    /// The standard suite traces at these options: generated from
    /// `--seed`/`--scale`, or loaded from `--traces DIR`.
    ///
    /// The first call generates or loads the suite; later calls return
    /// the same shared allocation until `seed`, `scale`, `trace_dir` or
    /// `strict` changes. So a run generates or loads its suite once, and
    /// reads each `--traces` file, with any salvage warning, once.
    ///
    /// # Panics
    ///
    /// Panics when `--traces` names files that are missing, unreadable,
    /// or (under `--strict`, or when nothing is recoverable) corrupt —
    /// the repro binaries treat unusable input as fatal rather than
    /// silently publishing tables from truncated traces.
    pub fn traces(&self) -> Arc<[BenchmarkTrace]> {
        self.suite
            .get_or_load(self.memo_key(), || self.load_traces())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn memo_key(&self) -> SuiteKey {
        SuiteKey {
            seed: self.seed,
            scale: self.scale,
            trace_dir: self.trace_dir.clone(),
            strict: self.strict,
        }
    }

    /// The run's §4.2 pass over the suite of the lane `spec` parses to,
    /// an FCM or DFCM ([`StreamPredictor::parse_spec`]): made on the
    /// first call for this suite and canonical spec, memoized for later
    /// calls. A caller that `records` the pass's phase series gets one
    /// under `--obs`, so for it a memoized pass that kept no series runs
    /// again; other callers' passes keep none.
    ///
    /// # Panics
    ///
    /// Panics if `spec` does not parse to an FCM or DFCM that classifies.
    pub(crate) fn alias_pass(&self, spec: &str, records: bool) -> Arc<AliasPass> {
        let traces = self.traces();
        let key = self.memo_key();
        let spec = StreamPredictor::parse_spec(spec)
            .unwrap_or_else(|e| panic!("{e}"))
            .spec();
        let observed = records && self.obs.is_enabled();
        let memoized = self
            .suite
            .with(&key, |suite| suite.alias.get(&spec).cloned());
        if let Some(pass) = memoized.flatten() {
            if pass.series.is_some() || !observed {
                return pass;
            }
        }
        let pass = Arc::new(AliasPass::run(&spec, &traces, observed));
        self.suite.with(&key, |suite| {
            suite.alias.insert(spec, Arc::clone(&pass));
        });
        pass
    }

    /// Fallible, uncached form of [`Options::traces`]: every call
    /// generates or loads the suite anew.
    ///
    /// Without `--traces` this regenerates the suite and cannot fail.
    /// With `--traces DIR` each benchmark loads from `<dir>/<name>.trc`:
    /// under `--strict` any integrity failure (bad magic, chunk CRC
    /// mismatch, truncation) is an error; otherwise damaged files are
    /// salvaged chunk-by-chunk with a warning on stderr, and only a
    /// file with *nothing* recoverable is an error.
    ///
    /// # Errors
    ///
    /// Returns a rendered message naming the offending file.
    pub fn load_traces(&self) -> Result<Vec<BenchmarkTrace>, String> {
        let Some(dir) = &self.trace_dir else {
            return Ok(standard_traces(self.seed, self.scale));
        };
        standard_suite()
            .iter()
            .map(|spec| {
                let name = spec.name();
                let path = dir.join(format!("{name}.trc"));
                let trace = if self.strict {
                    Trace::load(&path)
                        .map_err(|e| format!("{}: {e} (running with --strict)", path.display()))?
                } else {
                    let file = File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                    let report = salvage_trace(BufReader::new(file))
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    if !report.intact() {
                        eprintln!(
                            "[dfcm-repro] warning: {}: salvaged {} of {} records \
                             ({} of {} chunks); rerun with --strict to refuse damaged traces",
                            path.display(),
                            report.recovered.len(),
                            report.declared_records,
                            report.recovered_chunks,
                            report.total_chunks,
                        );
                    }
                    if report.recovered.is_empty() && report.declared_records > 0 {
                        return Err(format!("{}: nothing recoverable", path.display()));
                    }
                    report.recovered
                };
                Ok(BenchmarkTrace { name, trace })
            })
            .collect()
    }

    /// The level-2 size exponents to sweep: the paper's 8..=20 step 2,
    /// capped at 16 unless `--full`.
    pub fn l2_sweep(&self) -> Vec<u32> {
        let max = if self.full { 20 } else { 16 };
        (8..=max).step_by(2).collect()
    }

    /// Path for an experiment's CSV file.
    pub fn csv_path(&self, name: &str) -> PathBuf {
        self.out_dir.join(format!("{name}.csv"))
    }

    /// Writes an experiment table as CSV.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — the repro binaries treat an unwritable
    /// results directory as fatal.
    pub fn emit(&self, table: &dfcm_sim::report::TextTable, name: &str) {
        table
            .write_csv(self.csv_path(name))
            .unwrap_or_else(|e| panic!("writing {name}.csv: {e}"));
    }

    /// The handle an experiment runs its suite work through (see
    /// [`Experiment`]); `name` names its checkpoints and metrics file.
    pub fn experiment(&self, name: &'static str) -> Experiment<'_> {
        Experiment {
            opts: self,
            name,
            engine: EngineConfig {
                threads: self.threads,
                progress: self.progress,
                obs: self.obs.clone(),
                ..EngineConfig::default()
            },
            report: EngineReport::empty(0),
        }
    }

    /// Names the suites these options produce, for checkpoint paths:
    /// the seed and scale, plus the `--traces` directory when one is
    /// given. The VM kernel traces follow `--scale` too.
    fn suite_key(&self) -> String {
        let key = format!("seed{}-scale{}", self.seed, self.scale);
        match &self.trace_dir {
            Some(dir) => {
                let dir = dir.canonicalize().unwrap_or_else(|_| dir.clone());
                let crc = dfcm_trace::crc::crc32(dir.to_string_lossy().as_bytes());
                format!("{key}-traces{crc:08x}")
            }
            None => key,
        }
    }

    /// Writes the observability exports into the `--obs` directory, if
    /// one was given (no-op otherwise). Called once at the end of a run
    /// so `all` accumulates every experiment into one export.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors, like [`Options::emit`].
    pub fn emit_obs(&self) {
        if let Some(dir) = &self.obs_dir {
            self.obs
                .write_exports(dir)
                .unwrap_or_else(|e| panic!("writing obs exports to {}: {e}", dir.display()));
            println!(
                "observability exports -> {} (events.jsonl, trace.json, metrics.prom \
                 and, for runs that recorded phase series, series.jsonl)",
                dir.display()
            );
        }
    }
}

/// One experiment's suite work on the engine.
///
/// Every batch runs under the run's `--threads`/`--progress`/`--obs`
/// engine config. With `--resume`, batch `b` of experiment `e`
/// checkpoints to `<out>/checkpoints/<suite>/<e>-<b>.jsonl`, where
/// `<suite>` names the `--seed`, `--scale` and `--traces` the suite came
/// from and each entry's label names its configuration and benchmark,
/// so a checkpoint is only ever resumed into the sweep that wrote it.
/// Failed tasks are warned about on stderr and their benchmarks (or
/// rows) omitted; [`Experiment::finish`] writes the merged report of all
/// batches to `<out>/metrics/<e>.jsonl`.
pub struct Experiment<'a> {
    opts: &'a Options,
    name: &'static str,
    engine: EngineConfig,
    report: EngineReport,
}

/// What [`Experiment::lanes`] and [`Experiment::delayed`] evaluate: the
/// lane of a canonical spec, with its updates applied at once or `delay`
/// predictions late ([`DelayedUpdate`]).
#[derive(Clone, PartialEq, Eq, Hash)]
struct Evaluation {
    spec: String,
    delay: Option<usize>,
}

impl Evaluation {
    fn lane(&self) -> StreamPredictor {
        StreamPredictor::parse_spec(&self.spec).expect("a canonical spec parses")
    }
}

/// An evaluation as an engine configuration: its `Debug` form labels its
/// tasks in checkpoints and metrics as the spec (`fcm:16:12/cc1`), or, in
/// a batch of one spec's delays, as the delay (`16/cc1`).
impl Debug for Evaluation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.delay {
            None => f.write_str(&self.spec),
            Some(delay) => write!(f, "{delay}"),
        }
    }
}

impl Experiment<'_> {
    /// Evaluates `configs` over `traces`, a fresh predictor per
    /// (configuration, benchmark) pair.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint cannot be opened.
    pub fn sweep<C, P, F>(
        &mut self,
        batch: &str,
        traces: &[BenchmarkTrace],
        configs: &[C],
        factory: F,
    ) -> Vec<SweepPoint<C>>
    where
        C: Clone + Debug + Sync,
        P: ValuePredictor,
        F: Fn(&C) -> P + Sync,
    {
        let checkpoint = self.checkpoint(batch);
        let (points, report) = sweep_engine_ft(
            configs,
            factory,
            traces,
            &self.engine,
            checkpoint.as_deref(),
        )
        .unwrap_or_else(|e| panic!("{} checkpoint: {e}", self.name));
        self.record(report);
        points
    }

    /// Evaluates, over the run's suite, the lane that each
    /// configuration's `spec` parses to ([`StreamPredictor::parse_spec`]),
    /// keyed by the lane's canonical [`spec`](StreamPredictor::spec).
    ///
    /// Each (canonical spec, benchmark) pair runs once per suite: the
    /// pairs the run's memo holds, from this experiment or an earlier
    /// one, are not run again, and two spellings of one spec share one
    /// evaluation. A spec the memo lacks on any benchmark runs as one
    /// engine task per benchmark, a fresh lane each, checkpointed as
    /// batch `batch`.
    ///
    /// # Panics
    ///
    /// Panics if a spec does not parse or the checkpoint cannot be
    /// opened.
    pub fn lanes<C: Clone>(
        &mut self,
        batch: &str,
        configs: &[C],
        spec: impl Fn(&C) -> String,
    ) -> Vec<SweepPoint<C>> {
        self.memoized(batch, configs, |c| (spec(c), None), Evaluation::lane)
    }

    /// Evaluates `spec`'s lane under each update delay of `delays`
    /// ([`DelayedUpdate`]), memoized per (delay, canonical spec) as
    /// [`Experiment::lanes`] memoizes plain lanes.
    ///
    /// # Panics
    ///
    /// As [`Experiment::lanes`].
    pub fn delayed(&mut self, batch: &str, spec: &str, delays: &[usize]) -> Vec<SweepPoint<usize>> {
        self.memoized(
            batch,
            delays,
            |&delay| (spec.to_owned(), Some(delay)),
            |e| DelayedUpdate::new(e.lane(), e.delay.expect("a delayed evaluation")),
        )
    }

    /// [`Experiment::lanes`] for the evaluation each configuration names
    /// (a spec, and a delay or none), each run on the predictor `build`
    /// makes of it.
    fn memoized<C: Clone, P: ValuePredictor>(
        &mut self,
        batch: &str,
        configs: &[C],
        evaluation: impl Fn(&C) -> (String, Option<usize>),
        build: impl Fn(&Evaluation) -> P + Sync,
    ) -> Vec<SweepPoint<C>> {
        let opts = self.opts;
        let traces = opts.traces();
        let key = opts.memo_key();
        // Each configuration's evaluation, under its canonical spec, and
        // its result without benchmarks yet.
        let evaluations: Vec<(Evaluation, SuiteResult)> = configs
            .iter()
            .map(|c| {
                let (spec, delay) = evaluation(c);
                let lane = StreamPredictor::parse_spec(&spec)
                    .unwrap_or_else(|e| panic!("{}: {e}", self.name));
                let evaluation = Evaluation {
                    spec: lane.spec(),
                    delay,
                };
                let predictor = build(&evaluation);
                let result = SuiteResult {
                    predictor: predictor.name(),
                    kbits: predictor.storage().kbits(),
                    benchmarks: Vec::new(),
                };
                (evaluation, result)
            })
            .collect();
        let mut known: HashMap<Evaluation, Vec<Option<RunStats>>> = opts
            .suite
            .with(&key, |suite| {
                evaluations
                    .iter()
                    .filter_map(|(e, _)| Some((e.clone(), suite.stats.get(e)?.clone())))
                    .collect()
            })
            .unwrap_or_default();
        let mut missing: Vec<Evaluation> = Vec::new();
        for (e, _) in &evaluations {
            let complete = known
                .get(e)
                .is_some_and(|slots| slots.iter().all(Option::is_some));
            if !complete && !missing.contains(e) {
                missing.push(e.clone());
            }
        }
        if !missing.is_empty() {
            let checkpoint = self.checkpoint(batch);
            let (points, report) = sweep_engine_ft(
                &missing,
                &build,
                &traces,
                &self.engine,
                checkpoint.as_deref(),
            )
            .unwrap_or_else(|e| panic!("{} checkpoint: {e}", self.name));
            self.record(report);
            for point in points {
                let slots = known
                    .entry(point.config)
                    .or_insert_with(|| vec![None; traces.len()]);
                for b in point.result.benchmarks {
                    let at = traces.iter().position(|t| t.name == b.name);
                    slots[at.expect("a suite benchmark")] = Some(b.stats);
                }
            }
            opts.suite.with(&key, |suite| {
                for m in &missing {
                    suite.stats.insert(m.clone(), known[m].clone());
                }
            });
        }
        configs
            .iter()
            .zip(evaluations)
            .map(|(config, (evaluation, mut result))| {
                result.benchmarks = traces
                    .iter()
                    .zip(&known[&evaluation])
                    .filter_map(|(t, stats)| {
                        Some(BenchmarkResult {
                            name: t.name,
                            stats: (*stats)?,
                        })
                    })
                    .collect();
                SweepPoint {
                    config: config.clone(),
                    result,
                }
            })
            .collect()
    }

    /// Computes one table row per label, `row_for(index)` each, in label
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint cannot be opened.
    pub fn rows<F>(&mut self, batch: &str, labels: Vec<String>, row_for: F) -> Vec<Vec<String>>
    where
        F: Fn(usize) -> Result<TaskOutput<Vec<String>>, TaskError> + Sync,
    {
        let checkpoint = self.checkpoint(batch);
        let (rows, report) = run_tasks_resumable(
            labels,
            row_for,
            &self.engine,
            checkpoint.as_deref(),
            |row| encode_rows(row),
            decode_rows,
        )
        .unwrap_or_else(|e| panic!("{} checkpoint: {e}", self.name));
        self.record(report);
        rows.into_iter().flatten().collect()
    }

    fn checkpoint(&self, batch: &str) -> Option<PathBuf> {
        let opts = self.opts;
        opts.resume.then(|| {
            opts.out_dir
                .join("checkpoints")
                .join(opts.suite_key())
                .join(format!("{}-{batch}.jsonl", self.name))
        })
    }

    fn record(&mut self, report: EngineReport) {
        for t in report.failures() {
            eprintln!(
                "[dfcm-repro] {}: task `{}` {}",
                self.name, t.label, t.outcome
            );
        }
        self.report.merge(report);
    }

    /// Writes the merged engine report of every batch as JSON lines to
    /// `<out>/metrics/<experiment>.jsonl`.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors, like [`Options::emit`].
    pub fn finish(self) {
        let name = self.name;
        self.report
            .write_jsonl(
                self.opts
                    .out_dir
                    .join("metrics")
                    .join(format!("{name}.jsonl")),
            )
            .unwrap_or_else(|e| panic!("writing metrics/{name}.jsonl: {e}"));
    }
}

/// Prints an experiment header.
pub fn banner(title: &str, note: &str) {
    println!();
    println!("=== {title} ===");
    if !note.is_empty() {
        println!("{note}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{fig12_14, speedup, tags};

    fn observed(dir: &str) -> Options {
        let out_dir = std::env::temp_dir().join("dfcm_repro_common").join(dir);
        let _ = std::fs::remove_dir_all(&out_dir);
        Options {
            seed: 7,
            scale: 0.004,
            threads: 1,
            out_dir,
            obs: dfcm_obs::Obs::enabled(),
            ..Options::default()
        }
    }

    /// Whether the run's memoized pass of `spec` holds a phase series.
    fn has_series(opts: &Options, spec: &str) -> Option<bool> {
        let spec = StreamPredictor::parse_spec(spec).unwrap().spec();
        opts.suite
            .with(&opts.memo_key(), |suite| {
                suite.alias.get(&spec).map(|p| p.series.is_some())
            })
            .flatten()
    }

    #[test]
    fn speedups_pass_folds_no_phase_series() {
        let opts = observed("speedup");
        speedup::run(&opts);
        assert_eq!(has_series(&opts, "dfcm:16:12"), Some(false));
        assert!(opts.obs.series_snapshot().is_empty());
    }

    #[test]
    fn fig13_after_tags_records_the_series_of_a_fresh_fig13() {
        let shared = observed("tags-fig13");
        tags::run(&shared);
        assert_eq!(has_series(&shared, "dfcm:12:12"), Some(false));
        fig12_14::run_fig13(&shared);
        assert_eq!(has_series(&shared, "dfcm:12:12"), Some(true));
        let alone = observed("fig13");
        fig12_14::run_fig13(&alone);
        let series = alone.obs.series_snapshot();
        assert_eq!(series.len(), 2, "fig13 records an fcm and a dfcm series");
        assert_eq!(shared.obs.series_snapshot(), series);
    }
}
