//! Trace-driven value-predictor evaluation harness.
//!
//! Reproduces the paper's methodology (§4): predictors are evaluated in
//! isolation (no processor model) by folding [`access`] over a value
//! trace; suite results are reported as the arithmetic mean over all
//! benchmarks weighted by the number of predicted instructions.
//!
//! * [`simulate_trace`] — run one predictor, of any type, over one
//!   buffered trace.
//! * [`stream`] — the single-pass streaming core: one trace decode feeds
//!   many predictor lanes ([`stream_trace`], [`stream_v2_file`],
//!   [`stream_v3_file`], and [`stream_trace_file`], which opens any
//!   format and takes the obs handle for the `--obs` telemetry),
//!   bit-identical to the reference loop and flat-memory on files. Every
//!   pass, observed or not, runs one chunk loop with its observer as a
//!   type parameter.
//! * [`engine`] — the parallel execution engine: a shared work queue of
//!   tasks with deterministic merge, run metrics, panic isolation,
//!   bounded retries and checkpoint/resume ([`run_tasks_ft`],
//!   [`run_tasks_resumable`], [`EngineReport`], [`TaskOutcome`]).
//!   [`sweep_engine_ft`] is the suite runner: a fresh predictor per
//!   (configuration, benchmark) task, with the weighted-mean accuracy of
//!   each configuration in a [`SuiteResult`].
//! * [`checkpoint`] — the append-only JSONL task-result log that backs
//!   `--resume` ([`checkpoint::CheckpointLog`]).
//! * [`fault`] — seeded, deterministic fault injection for testing the
//!   engine's recovery paths ([`FaultPlan`]).
//! * [`pareto_front`] — the size/accuracy Pareto points (Figure 11(b)).
//! * [`simulate_confidence`] — coverage/accuracy of confidence-estimating
//!   predictors (the §4.2 extension).
//! * [`speculation`] — a first-order cycles-saved model for issued
//!   predictions.
//! * [`kernel_traces_observed`] — VM trace generation with one
//!   `vm.kernel` span per kernel.
//! * [`report`] — ASCII tables and CSV output for the repro binaries.
//! * [`chart`] — terminal scatter and bar charts for figure rendering.
//!
//! [`access`]: dfcm::ValuePredictor::access
//!
//! ```
//! use dfcm::DfcmPredictor;
//! use dfcm_sim::simulate_trace;
//! use dfcm_trace::{Trace, TraceRecord};
//!
//! # fn main() -> Result<(), dfcm::ConfigError> {
//! let trace: Trace = (0..1000).map(|i| TraceRecord::new(0x40, 3 * i)).collect();
//! let mut p = DfcmPredictor::builder().l1_bits(10).l2_bits(10).build()?;
//! let stats = simulate_trace(&mut p, &trace);
//! assert!(stats.accuracy() > 0.99);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod checkpoint;
mod confidence;
pub mod engine;
pub mod fault;
mod pareto;
pub mod report;
mod run;
pub mod speculation;
pub mod stream;
mod suite;
mod vm_tasks;

pub use crate::confidence::{simulate_confidence, ConfidenceStats};
pub use crate::engine::{
    run_tasks_ft, run_tasks_resumable, sweep_engine_ft, EngineConfig, EngineReport, RetryPolicy,
    TaskError, TaskMetric, TaskOutcome, TaskOutput, WorkerMetric,
};
pub use crate::fault::{FaultPlan, InjectedFault};
pub use crate::pareto::{pareto_front, ParetoPoint};
pub use crate::run::{simulate_trace, RunStats};
pub use crate::stream::{
    stream_records_with, stream_trace, stream_trace_file, stream_v2_file, stream_v3_file,
    SpecError, StreamFileReport, StreamPredictor, SERIES_CLASS_LABELS, STREAM_CHUNK_RECORDS,
};
pub use crate::suite::{BenchmarkResult, SuiteResult, SweepPoint};
pub use crate::vm_tasks::kernel_traces_observed;
