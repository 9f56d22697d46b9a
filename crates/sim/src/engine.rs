//! The parallel simulation engine.
//!
//! Every reproduction figure is an embarrassingly parallel batch of
//! (configuration, benchmark) simulations: the paper's methodology (§4)
//! gives each pair a fresh, cold predictor, so pairs share no state and
//! can run in any order. The engine exploits exactly that granularity: a
//! shared work queue of (configuration, benchmark) tasks drained by the
//! calling thread plus `std::thread::scope` workers, with results merged
//! back into configuration/suite order so the output is bit-identical at
//! any thread count. [`sweep_engine_ft`] is the one evaluator of
//! configurations over a suite; the `engine_equiv` tests check it
//! against a naive model of the paper's predictors.
//!
//! # Fault tolerance
//!
//! Long sweeps must not be all-or-nothing, so the engine isolates and
//! classifies failures instead of propagating them:
//!
//! * **Panic isolation** — each task attempt runs under
//!   `catch_unwind`; a panicking task is recorded as
//!   [`TaskOutcome::Panicked`] and the sweep completes every other
//!   task. Engine locks recover from poisoning rather than cascading.
//! * **Bounded retries** — tasks fail with a typed [`TaskError`];
//!   transient errors (I/O hiccups) retry up to
//!   [`RetryPolicy::max_attempts`] with capped exponential backoff,
//!   while permanent errors (bad configs, VM faults) fail fast.
//! * **Checkpoint/resume** — completed tasks can stream to a JSONL
//!   [`CheckpointLog`]; a resumed run
//!   seeds those results and produces output byte-identical to an
//!   uninterrupted run ([`sweep_engine_ft`]).
//! * **Deterministic fault injection** — a seeded
//!   [`FaultPlan`] injects panics, transient
//!   I/O errors and slow tasks per (task, attempt), so every recovery
//!   path above is testable and reproducible.
//!
//! The engine also carries the observability layer: per-task wall time,
//! outcome and attempt count, per-worker busy time and utilization, and
//! a suite-level [`EngineReport`] that serializes as JSON lines for the
//! `results/metrics/` directory.

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use dfcm::ValuePredictor;
use dfcm_obs::Obs;
use dfcm_trace::BenchmarkTrace;

use crate::checkpoint::{decode_stats, encode_stats, CheckpointLog};
use crate::fault::{FaultPlan, InjectedFault};
use crate::report::json_string;
use crate::run::simulate_trace;
use crate::suite::{BenchmarkResult, SuiteResult, SweepPoint};

/// Locks a mutex, recovering the guard if a panicking task poisoned it:
/// the engine's shared state (queue, result list, metrics) is only ever
/// mutated with plain pushes/pops, so a panic between operations cannot
/// leave it logically inconsistent.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bounded-retry policy for transient task failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per task, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The capped exponential backoff before retrying after `attempt`
    /// completed attempts (1-based): `base * 2^(attempt-1)`, capped at
    /// [`RetryPolicy::max_backoff`].
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

/// A typed task failure, deciding the retry behavior.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// Likely to succeed on retry (I/O hiccups, injected transient
    /// faults). Retried with backoff up to the policy's budget.
    Transient(String),
    /// Retrying cannot help (bad configuration, faulting benchmark
    /// program). Fails fast.
    Permanent(String),
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::Transient(e) => write!(f, "transient: {e}"),
            TaskError::Permanent(e) => write!(f, "permanent: {e}"),
        }
    }
}

impl From<dfcm_vm::VmError> for TaskError {
    /// Every VM error — memory fault, bad jump, or a tripped
    /// [`dfcm_vm::VmLimits`] resource guard — is deterministic for a
    /// given program, so retrying cannot help: a pathological kernel in
    /// a sweep degrades to a reported permanent failure, never a hang.
    fn from(e: dfcm_vm::VmError) -> TaskError {
        TaskError::Permanent(e.to_string())
    }
}

/// How one task ended, recorded first-class in the [`EngineReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskOutcome {
    /// The task produced its value.
    Ok,
    /// The task panicked; the panic was caught and isolated.
    Panicked {
        /// The panic payload, rendered as text.
        message: String,
    },
    /// The task returned a [`TaskError`] (transient errors only after
    /// the retry budget was exhausted).
    Failed {
        /// The final error, rendered as text.
        error: String,
    },
}

impl TaskOutcome {
    /// True for [`TaskOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        *self == TaskOutcome::Ok
    }

    /// A stable lowercase tag for serialization (`ok`, `panicked`,
    /// `failed`).
    pub fn kind(&self) -> &'static str {
        match self {
            TaskOutcome::Ok => "ok",
            TaskOutcome::Panicked { .. } => "panicked",
            TaskOutcome::Failed { .. } => "failed",
        }
    }
}

impl fmt::Display for TaskOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskOutcome::Ok => write!(f, "ok"),
            TaskOutcome::Panicked { message } => write!(f, "panicked: {message}"),
            TaskOutcome::Failed { error } => write!(f, "failed: {error}"),
        }
    }
}

/// Scheduling and fault-tolerance knobs for the engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per available hardware thread. The
    /// effective count never exceeds the number of tasks.
    pub threads: usize,
    /// Report completed/total task counts on stderr while running.
    pub progress: bool,
    /// Retry budget and backoff for transient task failures.
    pub retry: RetryPolicy,
    /// Deterministic fault injection, for testing recovery paths.
    pub faults: Option<FaultPlan>,
    /// Observability handle: when enabled, the engine records a span per
    /// task attempt (named `engine.attempt`, with the task label, attempt
    /// number, any injected fault and the outcome as args), a span per
    /// worker (`engine.worker`), and folds suite-level counters and the
    /// task wall-time histogram into the shared metrics registry. The
    /// default (disabled) handle costs one branch per attempt.
    pub obs: Obs,
}

impl EngineConfig {
    /// A config with an explicit thread count and no progress output.
    pub fn threads(threads: usize) -> Self {
        EngineConfig {
            threads,
            ..EngineConfig::default()
        }
    }

    fn resolve_threads(&self, tasks: usize) -> usize {
        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        let requested = if self.threads == 0 {
            hardware
        } else {
            self.threads
        };
        requested.clamp(1, tasks.max(1))
    }
}

/// Timing and outcome of one completed (configuration, benchmark) task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskMetric {
    /// Task label, `<configuration:?>/<benchmark>` for sweep tasks.
    pub label: String,
    /// Index of the worker that ran the task.
    pub worker: usize,
    /// Records the task simulated.
    pub records: u64,
    /// Task wall time (zero for tasks restored from a checkpoint).
    pub wall: Duration,
    /// How the task ended.
    pub outcome: TaskOutcome,
    /// Attempts the task consumed; `0` means the result was restored
    /// from a checkpoint without running.
    pub attempts: u32,
}

impl TaskMetric {
    /// Simulation throughput of this task in records per second.
    pub fn records_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.records as f64 / secs
        } else {
            0.0
        }
    }
}

/// Aggregate load of one worker thread.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerMetric {
    /// Worker index, `0..threads`.
    pub worker: usize,
    /// Total time spent inside tasks.
    pub busy: Duration,
    /// Number of tasks the worker completed.
    pub tasks: u64,
}

/// Suite-level run metrics: what ran, where, how fast, and how it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Worker threads the engine ran with.
    pub threads: usize,
    /// Wall time of the whole batch.
    pub wall: Duration,
    /// Per-task metrics, in task (configuration-major) order.
    pub tasks: Vec<TaskMetric>,
    /// Per-worker metrics, in worker order.
    pub workers: Vec<WorkerMetric>,
}

impl EngineReport {
    /// An empty report (no tasks ran).
    pub fn empty(threads: usize) -> Self {
        EngineReport {
            threads,
            wall: Duration::ZERO,
            tasks: Vec::new(),
            workers: Vec::new(),
        }
    }

    /// Total records simulated across all tasks.
    pub fn total_records(&self) -> u64 {
        self.tasks.iter().map(|t| t.records).sum()
    }

    /// Batch throughput: records simulated per second of wall time.
    pub fn records_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.total_records() as f64 / secs
        } else {
            0.0
        }
    }

    /// A worker's utilization: busy time over batch wall time, in 0..=1.
    pub fn utilization(&self, worker: &WorkerMetric) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall > 0.0 {
            (worker.busy.as_secs_f64() / wall).min(1.0)
        } else {
            0.0
        }
    }

    /// True if every task ended [`TaskOutcome::Ok`].
    pub fn all_ok(&self) -> bool {
        self.tasks.iter().all(|t| t.outcome.is_ok())
    }

    /// The tasks that did not end [`TaskOutcome::Ok`], in task order.
    pub fn failures(&self) -> impl Iterator<Item = &TaskMetric> {
        self.tasks.iter().filter(|t| !t.outcome.is_ok())
    }

    /// Total attempts consumed across all tasks (retries included;
    /// checkpoint-restored tasks contribute 0).
    pub fn total_attempts(&self) -> u64 {
        self.tasks.iter().map(|t| u64::from(t.attempts)).sum()
    }

    /// Folds another report into this one (for experiments that run
    /// several engine batches back to back): tasks concatenate, wall
    /// times add, and worker loads merge by worker index.
    pub fn merge(&mut self, other: EngineReport) {
        self.threads = self.threads.max(other.threads);
        self.wall += other.wall;
        self.tasks.extend(other.tasks);
        for w in other.workers {
            match self.workers.iter_mut().find(|m| m.worker == w.worker) {
                Some(mine) => {
                    mine.busy += w.busy;
                    mine.tasks += w.tasks;
                }
                None => self.workers.push(w),
            }
        }
        self.workers.sort_by_key(|w| w.worker);
    }

    /// The report as JSON lines: one `suite` line, one `worker` line per
    /// worker, one `task` line per task.
    ///
    /// ```text
    /// {"type":"suite","threads":4,"tasks":32,"ok":31,"failed":1,"attempts":33,"records":160000,"wall_s":0.5,"records_per_s":320000}
    /// {"type":"worker","worker":0,"tasks":8,"busy_s":0.48,"utilization":0.96}
    /// {"type":"task","label":"12/cc1","worker":0,"outcome":"ok","attempts":1,"records":5000,"wall_s":0.015,"records_per_s":333333.3}
    /// {"type":"task","label":"12/go","worker":1,"outcome":"panicked","attempts":1,"error":"injected fault: panic (task 1, attempt 0)","records":0,"wall_s":0.000021,"records_per_s":0.0}
    /// ```
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let ok = self.tasks.iter().filter(|t| t.outcome.is_ok()).count();
        let _ = writeln!(
            out,
            "{{\"type\":\"suite\",\"threads\":{},\"tasks\":{},\"ok\":{},\"failed\":{},\"attempts\":{},\"records\":{},\"wall_s\":{:.6},\"records_per_s\":{:.1}}}",
            self.threads,
            self.tasks.len(),
            ok,
            self.tasks.len() - ok,
            self.total_attempts(),
            self.total_records(),
            self.wall.as_secs_f64(),
            self.records_per_sec()
        );
        for w in &self.workers {
            let _ = writeln!(
                out,
                "{{\"type\":\"worker\",\"worker\":{},\"tasks\":{},\"busy_s\":{:.6},\"utilization\":{:.4}}}",
                w.worker,
                w.tasks,
                w.busy.as_secs_f64(),
                self.utilization(w)
            );
        }
        for t in &self.tasks {
            let error = match &t.outcome {
                TaskOutcome::Ok => String::new(),
                TaskOutcome::Panicked { message } => format!(",\"error\":{}", json_string(message)),
                TaskOutcome::Failed { error } => format!(",\"error\":{}", json_string(error)),
            };
            let _ = writeln!(
                out,
                "{{\"type\":\"task\",\"label\":{},\"worker\":{},\"outcome\":\"{}\",\"attempts\":{}{},\"records\":{},\"wall_s\":{:.6},\"records_per_s\":{:.1}}}",
                json_string(&t.label),
                t.worker,
                t.outcome.kind(),
                t.attempts,
                error,
                t.records,
                t.wall.as_secs_f64(),
                t.records_per_sec()
            );
        }
        out
    }

    /// Writes the JSONL form to `path` atomically (staged sibling file
    /// then rename), creating parent directories: a crash mid-write can
    /// never leave a truncated report on disk.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or the write.
    pub fn write_jsonl<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let rendered = self.to_jsonl();
        dfcm_obs::export::write_jsonl_report(path.as_ref(), &rendered.lines().collect::<Vec<_>>())
    }

    /// Folds this report into an [`Obs`] metrics registry (no-op when
    /// disabled): `engine_tasks_total{outcome}`, `engine_attempts_total`,
    /// `engine_records_total` counters, the `engine_task_seconds`
    /// wall-time histogram, and one `engine_worker_busy_seconds{worker}`
    /// gauge per worker. Called automatically at the end of every engine
    /// batch with the batch's own config handle.
    pub fn record_metrics(&self, obs: &Obs) {
        if !obs.is_enabled() {
            return;
        }
        for t in &self.tasks {
            obs.add("engine_tasks_total", &[("outcome", t.outcome.kind())], 1);
            obs.observe(
                "engine_task_seconds",
                &[],
                TASK_SECONDS_BOUNDS,
                t.wall.as_secs_f64(),
            );
        }
        obs.add("engine_attempts_total", &[], self.total_attempts());
        obs.add("engine_records_total", &[], self.total_records());
        for w in &self.workers {
            obs.gauge(
                "engine_worker_busy_seconds",
                &[("worker", &w.worker.to_string())],
                w.busy.as_secs_f64(),
            );
        }
    }
}

/// Fixed bucket bounds for the `engine_task_seconds` histogram: spans
/// microsecond tasks through minute-long simulations.
const TASK_SECONDS_BOUNDS: &[f64] = &[
    0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
];

/// What one engine task returns: its result plus the record count it
/// simulated (for throughput accounting).
#[derive(Debug, Clone)]
pub struct TaskOutput<T> {
    /// The task's result value.
    pub value: T,
    /// Records the task processed.
    pub records: u64,
}

/// Renders a caught panic payload as text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one task to completion: applies injected faults, catches
/// panics, and drains the transient-retry budget. Returns the value (if
/// any), the outcome, the records processed, and the attempts consumed.
fn execute_with_retries<T, F>(
    task: &F,
    index: usize,
    label: &str,
    config: &EngineConfig,
) -> (Option<T>, TaskOutcome, u64, u32)
where
    F: Fn(usize) -> Result<TaskOutput<T>, TaskError> + Sync,
{
    let max_attempts = config.retry.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        let injected = config
            .faults
            .as_ref()
            .and_then(|p| p.fault_for(index, attempt));
        let mut span = config.obs.span("engine.attempt");
        if span.is_enabled() {
            span.arg("label", label);
            span.arg("attempt", &attempt.to_string());
            match injected {
                Some(InjectedFault::Panic) => span.arg("injected_fault", "panic"),
                Some(InjectedFault::TransientIo) => span.arg("injected_fault", "transient_io"),
                Some(InjectedFault::Delay(_)) => span.arg("injected_fault", "delay"),
                None => {}
            }
        }
        let caught = panic::catch_unwind(AssertUnwindSafe(|| match injected {
            Some(InjectedFault::Panic) => {
                panic!("injected fault: panic (task {index}, attempt {attempt})")
            }
            Some(InjectedFault::TransientIo) => Err(TaskError::Transient(format!(
                "injected fault: transient I/O error (task {index}, attempt {attempt})"
            ))),
            Some(InjectedFault::Delay(d)) => {
                std::thread::sleep(d);
                task(index)
            }
            None => task(index),
        }));
        attempt += 1;
        match caught {
            Ok(Ok(output)) => {
                span.arg("outcome", "ok");
                return (Some(output.value), TaskOutcome::Ok, output.records, attempt);
            }
            Ok(Err(TaskError::Transient(error))) => {
                if attempt < max_attempts {
                    span.arg("outcome", "retrying");
                    drop(span);
                    std::thread::sleep(config.retry.backoff(attempt));
                    continue;
                }
                span.arg("outcome", "failed");
                return (
                    None,
                    TaskOutcome::Failed {
                        error: format!("{error} (gave up after {attempt} attempts)"),
                    },
                    0,
                    attempt,
                );
            }
            Ok(Err(TaskError::Permanent(error))) => {
                span.arg("outcome", "failed");
                return (None, TaskOutcome::Failed { error }, 0, attempt);
            }
            Err(payload) => {
                span.arg("outcome", "panicked");
                return (
                    None,
                    TaskOutcome::Panicked {
                        message: panic_message(payload.as_ref()),
                    },
                    0,
                    attempt,
                );
            }
        }
    }
}

/// The scheduling core: runs the tasks whose `seeded` slot is `None`
/// over a shared work queue, merges the seeded (checkpoint-restored)
/// results back in, and calls `on_complete(index, label, records,
/// value)` for every task that newly completes `Ok`.
///
/// Worker 0 is the calling thread and only workers 1.. are spawned, so a
/// one-worker batch spawns nothing: its tasks reuse the caller's warm
/// allocator arena instead of faulting fresh predictor tables in on a
/// new thread.
fn run_tasks<T, F, O>(
    labels: Vec<String>,
    task: F,
    config: &EngineConfig,
    seeded: Vec<Option<(T, u64)>>,
    on_complete: O,
) -> (Vec<Option<T>>, EngineReport)
where
    T: Send,
    F: Fn(usize) -> Result<TaskOutput<T>, TaskError> + Sync,
    O: Fn(usize, &str, u64, &T) + Sync,
{
    let count = labels.len();
    debug_assert_eq!(seeded.len(), count, "seeded results align with the tasks");
    let pending: VecDeque<usize> = (0..count).filter(|&i| seeded[i].is_none()).collect();
    let pending_count = pending.len();
    let threads = config.resolve_threads(pending_count);
    if count == 0 {
        return (Vec::new(), EngineReport::empty(threads));
    }
    let started = Instant::now();
    // Seeded results merge in first: zero wall, zero attempts.
    let (mut values, mut tasks): (Vec<Option<T>>, Vec<Option<TaskMetric>>) = seeded
        .into_iter()
        .zip(&labels)
        .map(|(slot, label)| match slot {
            Some((value, records)) => {
                let metric = TaskMetric {
                    label: label.clone(),
                    worker: 0,
                    records,
                    wall: Duration::ZERO,
                    outcome: TaskOutcome::Ok,
                    attempts: 0,
                };
                (Some(value), Some(metric))
            }
            None => (None, None),
        })
        .unzip();
    let queue: Mutex<VecDeque<usize>> = Mutex::new(pending);
    let completed: Mutex<Vec<(usize, Option<T>, TaskMetric)>> =
        Mutex::new(Vec::with_capacity(pending_count));
    let worker_metrics: Mutex<Vec<WorkerMetric>> = Mutex::new(Vec::with_capacity(threads));
    let run_worker = |worker: usize| {
        let mut worker_span = config.obs.span("engine.worker");
        worker_span.arg("worker", &worker.to_string());
        let mut busy = Duration::ZERO;
        let mut ran = 0u64;
        loop {
            // `let`-`else` drops the queue guard before the task runs.
            let Some(index) = lock_unpoisoned(&queue).pop_front() else {
                break;
            };
            let task_started = Instant::now();
            let (value, outcome, records, attempts) =
                execute_with_retries(&task, index, &labels[index], config);
            let wall = task_started.elapsed();
            busy += wall;
            ran += 1;
            if let Some(value) = &value {
                on_complete(index, &labels[index], records, value);
            }
            let metric = TaskMetric {
                label: labels[index].clone(),
                worker,
                records,
                wall,
                outcome,
                attempts,
            };
            let mut done = lock_unpoisoned(&completed);
            done.push((index, value, metric));
            if config.progress {
                eprint!("\r[dfcm-sim engine] {}/{} tasks", done.len(), pending_count);
            }
        }
        worker_span.arg("tasks", &ran.to_string());
        lock_unpoisoned(&worker_metrics).push(WorkerMetric {
            worker,
            busy,
            tasks: ran,
        });
    };
    if pending_count > 0 {
        let run_worker = &run_worker;
        std::thread::scope(|scope| {
            for worker in 1..threads {
                scope.spawn(move || run_worker(worker));
            }
            run_worker(0);
        });
        if config.progress {
            eprintln!();
        }
    }
    let wall = started.elapsed();
    for (index, value, metric) in lock_unpoisoned(&completed).drain(..) {
        values[index] = value;
        tasks[index] = Some(metric);
    }
    let tasks = tasks
        .into_iter()
        .map(|m| m.expect("every task is either seeded or scheduled"))
        .collect();
    let mut workers = lock_unpoisoned(&worker_metrics)
        .drain(..)
        .collect::<Vec<_>>();
    workers.sort_by_key(|w| w.worker);
    let report = EngineReport {
        threads,
        wall,
        tasks,
        workers,
    };
    report.record_metrics(&config.obs);
    (values, report)
}

/// The fault-tolerant scheduling primitive: runs every task over a
/// shared work queue and merges the results back into task order.
///
/// Tasks must be pure in the sense that their output depends only on
/// their index, which makes the merge deterministic regardless of
/// execution order. A failed task yields `None` in the value vector and
/// a non-`Ok` [`TaskOutcome`] in the report; it never aborts the batch.
pub fn run_tasks_ft<T, F>(
    labels: Vec<String>,
    task: F,
    config: &EngineConfig,
) -> (Vec<Option<T>>, EngineReport)
where
    T: Send,
    F: Fn(usize) -> Result<TaskOutput<T>, TaskError> + Sync,
{
    let seeded = labels.iter().map(|_| None).collect();
    run_tasks(labels, task, config, seeded, |_, _, _, _| {})
}

/// [`run_tasks_ft`] with checkpoint/resume.
///
/// With `checkpoint` set, every task that completes `Ok` appends its
/// `encode`d value to the JSONL [`CheckpointLog`] at that path, and a
/// task whose index and label match an entry already in the log is
/// restored from it (through `decode`) instead of run again. Labels must
/// therefore name everything a task's result depends on that the log's
/// path does not. A failed append is reported on stderr and only costs
/// re-running that task on resume.
///
/// # Errors
///
/// Propagates I/O errors from opening the checkpoint log.
pub fn run_tasks_resumable<T, F>(
    labels: Vec<String>,
    task: F,
    config: &EngineConfig,
    checkpoint: Option<&Path>,
    encode: fn(&T) -> String,
    decode: fn(&str) -> Option<T>,
) -> io::Result<(Vec<Option<T>>, EngineReport)>
where
    T: Send,
    F: Fn(usize) -> Result<TaskOutput<T>, TaskError> + Sync,
{
    let (log, restored) = CheckpointLog::load_seeded(checkpoint, &labels)?;
    let seeded = restored
        .into_iter()
        .map(|slot| slot.and_then(|(payload, records)| Some((decode(&payload)?, records))))
        .collect();
    Ok(run_tasks(
        labels,
        task,
        config,
        seeded,
        |index, label, records, value| {
            if let Some(log) = &log {
                if let Err(e) = log.append(index, label, records, &encode(value)) {
                    eprintln!(
                        "[dfcm-sim engine] checkpoint append failed for {label}: {e} \
                         (the task will re-run on resume)"
                    );
                }
            }
        },
    ))
}

/// Evaluates a family of predictor configurations over a benchmark
/// suite at (configuration, benchmark) granularity, with optional
/// checkpoint/resume: the paper's method (§4), one fresh cold predictor
/// per pair, on the engine.
///
/// `factory` builds a fresh predictor for a configuration; it is invoked
/// once per (configuration, benchmark) pair, and once more per
/// configuration for the label and size in its [`SuiteResult`].
/// Results merge deterministically back into configuration order, so
/// they are identical (including float bits) at any thread count. A
/// failed task's benchmark is *omitted* from its configuration's
/// [`SuiteResult`] (and recorded in the report) instead of aborting the
/// sweep.
///
/// Task labels are `<configuration:?>/<benchmark>`. With `checkpoint`
/// set, completed tasks stream to a JSONL [`CheckpointLog`] at that path
/// and a rerun skips every task whose index and label match an entry,
/// producing byte-identical output versus an uninterrupted run. The
/// label does not name the benchmark's records, so one checkpoint path
/// must serve one suite: key the path by whatever generated it.
///
/// ```
/// use dfcm::LastValuePredictor;
/// use dfcm_sim::{sweep_engine_ft, EngineConfig};
/// use dfcm_trace::suite::standard_traces;
///
/// let traces = standard_traces(1, 0.001);
/// let engine = EngineConfig::threads(1);
/// let (points, report) =
///     sweep_engine_ft(&[6u32, 8], |&bits| LastValuePredictor::new(bits), &traces, &engine, None)?;
/// assert_eq!(points.len(), 2);
/// assert!(points[0].accuracy() > 0.0);
/// assert_eq!(report.tasks[0].label, "6/cc1");
/// # Ok::<(), std::io::Error>(())
/// ```
///
/// # Errors
///
/// Propagates I/O errors from opening the checkpoint log.
pub fn sweep_engine_ft<C, P, F>(
    configs: &[C],
    factory: F,
    traces: &[BenchmarkTrace],
    config: &EngineConfig,
    checkpoint: Option<&Path>,
) -> io::Result<(Vec<SweepPoint<C>>, EngineReport)>
where
    C: Clone + fmt::Debug + Sync,
    P: ValuePredictor,
    F: Fn(&C) -> P + Sync,
{
    if traces.is_empty() {
        // No benchmarks, no tasks: a placeholder suite result per
        // configuration.
        let points = configs
            .iter()
            .map(|c| SweepPoint {
                config: c.clone(),
                result: SuiteResult {
                    predictor: "(empty suite)".to_owned(),
                    kbits: 0.0,
                    benchmarks: Vec::new(),
                },
            })
            .collect();
        return Ok((points, EngineReport::empty(config.resolve_threads(0))));
    }
    let benches = traces.len();
    let labels = (0..configs.len() * benches)
        .map(|i| format!("{:?}/{}", configs[i / benches], traces[i % benches].name))
        .collect();
    let (stats_out, report) = run_tasks_resumable(
        labels,
        |i| {
            let bench = &traces[i % benches];
            let mut predictor = factory(&configs[i / benches]);
            Ok(TaskOutput {
                value: simulate_trace(&mut predictor, &bench.trace),
                records: bench.trace.len() as u64,
            })
        },
        config,
        checkpoint,
        encode_stats,
        decode_stats,
    )?;
    let points = configs
        .iter()
        .enumerate()
        .map(|(c, cfg)| {
            let benchmarks = (0..benches)
                .filter_map(|b| {
                    stats_out[c * benches + b].map(|stats| BenchmarkResult {
                        name: traces[b].name,
                        stats,
                    })
                })
                .collect();
            let probe = factory(cfg);
            SweepPoint {
                config: cfg.clone(),
                result: SuiteResult {
                    predictor: probe.name(),
                    kbits: probe.storage().kbits(),
                    benchmarks,
                },
            }
        })
        .collect();
    Ok((points, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfcm::{DfcmPredictor, LastValuePredictor};
    use dfcm_trace::{Trace, TraceRecord};

    fn suite(benches: usize, records: u64) -> Vec<BenchmarkTrace> {
        static NAMES: [&str; 4] = ["a", "b", "c", "d"];
        (0..benches)
            .map(|b| BenchmarkTrace {
                name: NAMES[b % NAMES.len()],
                trace: (0..records)
                    .map(|i| TraceRecord::new(0x1000 + 4 * (i % 32), i * (b as u64 + 2) % 977))
                    .collect::<Trace>(),
            })
            .collect()
    }

    /// The LVP sweep most tests run: `bits` per configuration, no
    /// checkpoint.
    fn lvp_sweep(
        bits: &[u32],
        traces: &[BenchmarkTrace],
        config: &EngineConfig,
    ) -> (Vec<SweepPoint<u32>>, EngineReport) {
        sweep_engine_ft(bits, |&b| LastValuePredictor::new(b), traces, config, None).unwrap()
    }

    #[test]
    fn engine_matches_serial_sweep() {
        let traces = suite(3, 400);
        let configs = [(4u32, 6u32), (6, 8), (8, 8)];
        let factory = |&(l1, l2): &(u32, u32)| {
            DfcmPredictor::builder()
                .l1_bits(l1)
                .l2_bits(l2)
                .build()
                .unwrap()
        };
        // The serial loop: a fresh predictor per (configuration,
        // benchmark) pair, in order.
        let serial: Vec<Vec<BenchmarkResult>> = configs
            .iter()
            .map(|c| {
                traces
                    .iter()
                    .map(|b| BenchmarkResult {
                        name: b.name,
                        stats: simulate_trace(&mut factory(c), &b.trace),
                    })
                    .collect()
            })
            .collect();
        for threads in [1, 3, 64] {
            let (points, report) = sweep_engine_ft(
                &configs,
                factory,
                &traces,
                &EngineConfig::threads(threads),
                None,
            )
            .unwrap();
            for ((point, expect), config) in points.iter().zip(&serial).zip(&configs) {
                assert_eq!(point.config, *config);
                assert_eq!(&point.result.benchmarks, expect);
                assert_eq!(point.result.predictor, factory(config).name());
            }
            assert_eq!(report.tasks.len(), configs.len() * traces.len());
            assert_eq!(report.total_records(), 3 * 3 * 400);
            assert!(report.threads <= threads);
            assert!(report.all_ok());
        }
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        // One requested worker, and one task (the worker count never
        // exceeds the task count), both resolve to a single worker.
        for (threads, tasks) in [(1, 6), (4, 1)] {
            let (ids, report) = run_tasks_ft(
                (0..tasks).map(|i| format!("t{i}")).collect(),
                |_| {
                    Ok(TaskOutput {
                        value: std::thread::current().id(),
                        records: 1,
                    })
                },
                &EngineConfig::threads(threads),
            );
            assert_eq!(report.threads, 1);
            assert!(ids.iter().all(|id| *id == Some(caller)), "{ids:?}");
        }
    }

    #[test]
    fn workers_run_tasks_concurrently() {
        // Each task waits until both have started: a worker that held
        // the queue lock while running its task would leave the other
        // task queued, and the first would time out.
        let started = std::sync::atomic::AtomicUsize::new(0);
        let (met, _) = run_tasks_ft(
            vec!["a".to_owned(), "b".to_owned()],
            |_| {
                started.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while started.load(std::sync::atomic::Ordering::SeqCst) < 2 {
                    if Instant::now() > deadline {
                        return Ok(TaskOutput {
                            value: false,
                            records: 0,
                        });
                    }
                    std::thread::yield_now();
                }
                Ok(TaskOutput {
                    value: true,
                    records: 0,
                })
            },
            &EngineConfig::threads(2),
        );
        assert_eq!(met, vec![Some(true), Some(true)]);
    }

    #[test]
    fn empty_suite_mirrors_serial_placeholder() {
        let (points, report) = lvp_sweep(&[4], &[], &EngineConfig::default());
        assert_eq!(points[0].result.predictor, "(empty suite)");
        assert_eq!(points[0].kbits(), 0.0);
        assert!(points[0].result.benchmarks.is_empty());
        assert!(report.tasks.is_empty());
        assert_eq!(report.total_records(), 0);
    }

    #[test]
    fn worker_accounting_covers_all_tasks() {
        let traces = suite(4, 200);
        let (_, report) = lvp_sweep(&[6, 8], &traces, &EngineConfig::threads(3));
        let by_workers: u64 = report.workers.iter().map(|w| w.tasks).sum();
        assert_eq!(by_workers, report.tasks.len() as u64);
        assert!(report.workers.len() <= 3);
        for w in &report.workers {
            let u = report.utilization(w);
            assert!((0.0..=1.0).contains(&u), "utilization {u}");
        }
    }

    #[test]
    fn jsonl_has_one_line_per_entity() {
        let traces = suite(2, 100);
        let (_, report) = lvp_sweep(&[4], &traces, &EngineConfig::threads(1));
        let jsonl = report.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1 + report.workers.len() + report.tasks.len());
        assert!(lines[0].starts_with("{\"type\":\"suite\""));
        assert!(lines[0].contains("\"ok\":2,\"failed\":0"));
        assert!(jsonl.contains("\"label\":\"4/a\""));
        assert!(jsonl.contains("\"outcome\":\"ok\""));
        assert!(jsonl.contains("\"utilization\":"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn write_jsonl_creates_directories() {
        let dir = std::env::temp_dir().join("dfcm_engine_jsonl_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("metrics/run.jsonl");
        EngineReport::empty(1).write_jsonl(&path).unwrap();
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .starts_with("{\"type\":\"suite\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_concatenates_and_sums() {
        let traces = suite(2, 100);
        let run = || lvp_sweep(&[4], &traces, &EngineConfig::threads(2)).1;
        let mut a = run();
        let b = run();
        let total_before = a.total_records() + b.total_records();
        let wall_before = a.wall + b.wall;
        a.merge(b);
        assert_eq!(a.total_records(), total_before);
        assert_eq!(a.wall, wall_before);
        assert_eq!(a.tasks.len(), 4);
        let by_workers: u64 = a.workers.iter().map(|w| w.tasks).sum();
        assert_eq!(by_workers, 4);
    }

    #[test]
    fn run_tasks_preserves_order_under_contention() {
        let labels = (0..200).map(|i| format!("t{i}")).collect();
        let (values, report) = run_tasks_ft(
            labels,
            |i| {
                Ok(TaskOutput {
                    value: i * 7,
                    records: 1,
                })
            },
            &EngineConfig::threads(8),
        );
        assert_eq!(values, (0..200).map(|i| Some(i * 7)).collect::<Vec<_>>());
        assert_eq!(report.tasks[13].label, "t13");
        assert_eq!(report.total_records(), 200);
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(policy.backoff(1), Duration::from_millis(10));
        assert_eq!(policy.backoff(2), Duration::from_millis(20));
        assert_eq!(policy.backoff(3), Duration::from_millis(35), "capped");
        assert_eq!(policy.backoff(60), Duration::from_millis(35), "no overflow");
    }

    #[test]
    fn obs_records_spans_and_engine_metrics() {
        use dfcm_obs::metrics::MetricValue;
        use dfcm_obs::span::Event;

        let traces = suite(2, 100);
        let config = EngineConfig {
            threads: 2,
            obs: Obs::enabled(),
            ..EngineConfig::default()
        };
        let (_, report) = lvp_sweep(&[4], &traces, &config);
        let (events, metrics) = config.obs.snapshot();
        let attempts = events
            .iter()
            .filter(|e| matches!(e, Event::Span { name, .. } if name == "engine.attempt"))
            .count();
        let workers = events
            .iter()
            .filter(|e| matches!(e, Event::Span { name, .. } if name == "engine.worker"))
            .count();
        assert_eq!(attempts as u64, report.total_attempts());
        assert_eq!(workers, report.workers.len());
        assert_eq!(
            metrics.get("engine_tasks_total", &[("outcome", "ok")]),
            Some(&MetricValue::Counter(report.tasks.len() as u64))
        );
        assert_eq!(
            metrics.get("engine_records_total", &[]),
            Some(&MetricValue::Counter(report.total_records()))
        );
        let Some(MetricValue::Histogram(h)) = metrics.get("engine_task_seconds", &[]) else {
            panic!("missing task wall-time histogram");
        };
        assert_eq!(h.count, report.tasks.len() as u64);
        assert!(metrics
            .get("engine_worker_busy_seconds", &[("worker", "0")])
            .is_some());
    }

    #[test]
    fn obs_spans_cover_retries_and_faults() {
        use dfcm_obs::span::Event;

        let config = EngineConfig {
            threads: 1,
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
            },
            obs: Obs::enabled(),
            ..EngineConfig::default()
        };
        let attempts = std::sync::atomic::AtomicU32::new(0);
        let (values, report) = run_tasks_ft(
            vec!["flaky".to_owned()],
            |_| {
                if attempts.fetch_add(1, std::sync::atomic::Ordering::SeqCst) < 2 {
                    Err(TaskError::Transient("hiccup".into()))
                } else {
                    Ok(TaskOutput {
                        value: 7u64,
                        records: 1,
                    })
                }
            },
            &config,
        );
        assert_eq!(values, vec![Some(7)]);
        assert_eq!(report.tasks[0].attempts, 3);
        let (events, _) = config.obs.snapshot();
        let outcomes: Vec<String> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span { name, args, .. } if name == "engine.attempt" => args
                    .iter()
                    .find(|(k, _)| k == "outcome")
                    .map(|(_, v)| v.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(outcomes, vec!["retrying", "retrying", "ok"]);
    }

    #[test]
    fn outcome_kinds_are_stable() {
        assert_eq!(TaskOutcome::Ok.kind(), "ok");
        assert_eq!(
            TaskOutcome::Panicked {
                message: "m".into()
            }
            .kind(),
            "panicked"
        );
        assert_eq!(TaskOutcome::Failed { error: "e".into() }.kind(), "failed");
    }
}
