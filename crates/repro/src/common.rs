//! Shared options and helpers for the reproduction experiments.

use std::fmt::Debug;
use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use dfcm::ValuePredictor;
use dfcm_sim::checkpoint::{decode_rows, encode_rows};
use dfcm_sim::engine::{TaskError, TaskOutput};
use dfcm_sim::{run_tasks_resumable, sweep_engine_ft, EngineConfig, EngineReport, SweepPoint};
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
    /// Also write a JSON copy of every table.
    pub json: bool,
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
    /// The suite [`Options::traces`] last produced. Not a setting: it is
    /// public only so that `..Options::default()` literals compile.
    pub suite: SuiteMemo,
}

/// The memo behind [`Options::traces`]: the suite it last generated or
/// loaded, and the options that produced it.
///
/// A clone starts out holding the same suite.
#[derive(Default)]
pub struct SuiteMemo(Mutex<Option<(SuiteKey, Arc<[BenchmarkTrace]>)>>);

/// The options a suite depends on.
#[derive(Clone, PartialEq)]
struct SuiteKey {
    seed: u64,
    scale: f64,
    trace_dir: Option<PathBuf>,
    strict: bool,
}

impl SuiteMemo {
    /// The memoized suite if it was made under `key`, else the result of
    /// `load`, which then replaces the memo.
    fn get_or_load(
        &self,
        key: SuiteKey,
        load: impl FnOnce() -> Result<Vec<BenchmarkTrace>, String>,
    ) -> Result<Arc<[BenchmarkTrace]>, String> {
        let mut slot = self.0.lock().expect("a suite load panicked");
        if let Some((made_under, suite)) = &*slot {
            if *made_under == key {
                return Ok(Arc::clone(suite));
            }
        }
        let suite: Arc<[BenchmarkTrace]> = load()?.into();
        *slot = Some((key, Arc::clone(&suite)));
        Ok(suite)
    }
}

impl Clone for SuiteMemo {
    fn clone(&self) -> Self {
        let slot = self.0.lock().expect("a suite load panicked");
        SuiteMemo(Mutex::new(slot.clone()))
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
            json: false,
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
        let key = SuiteKey {
            seed: self.seed,
            scale: self.scale,
            trace_dir: self.trace_dir.clone(),
            strict: self.strict,
        };
        self.suite
            .get_or_load(key, || self.load_traces())
            .unwrap_or_else(|e| panic!("{e}"))
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

    /// Writes an experiment table as CSV (and JSON when `--json` is set).
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — the repro binaries treat an unwritable
    /// results directory as fatal.
    pub fn emit(&self, table: &dfcm_sim::report::TextTable, name: &str) {
        table
            .write_csv(self.csv_path(name))
            .unwrap_or_else(|e| panic!("writing {name}.csv: {e}"));
        if self.json {
            table
                .write_json(self.out_dir.join(format!("{name}.json")))
                .unwrap_or_else(|e| panic!("writing {name}.json: {e}"));
        }
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
