//! Library half of `dfcm-tools`: each subcommand as a callable function
//! returning its output as a `String`, so the test suite can exercise the
//! tool end to end.
//!
//! Subcommands (see `dfcm-tools help`):
//!
//! * `gen` — generate a trace (synthetic benchmark or VM kernel) and save
//!   it in the compact binary format (`--format v1|v2|v3`; v3 synthetic
//!   traces are streamed to disk without materializing, so record counts
//!   in the hundreds of millions stay flat-memory).
//! * `stats` — trace statistics (Table 1-style) for a saved trace.
//! * `eval` — run predictor configurations over a saved trace, any
//!   format, streamed straight off the file in bounded memory.
//! * `trace` — integrity tooling for saved traces: `inspect` (header and
//!   chunk map, with per-chunk compressed/packed sizes and bits/record
//!   for v3), `verify` (fail on any corruption), `salvage` (recover
//!   intact chunks into a fresh file of the same format), `compress`
//!   (convert between formats).
//! * `obs` — observability tooling: `summarize` renders the table-usage
//!   report for an export directory, `report` the windowed phase report
//!   (accuracy/miss sparklines, alias-class mix, top-K hard-to-predict
//!   PCs) from its `series.jsonl`; `--check` validates the exports.
//! * `serve` — run the crash-tolerant prediction daemon (the
//!   `dfcm-serve` crate) until a shutdown signal.
//! * `loadgen` — chaos-driven load generation against a running daemon,
//!   with shadow-predictor verification.
//! * `scrape` — fetch a running daemon's metrics as Prometheus text.
//! * `disasm` — print the assembly listing of a bundled kernel.
//! * `profile` — execute a kernel and print its execution profile.
//! * `kernels` / `benchmarks` — list what `gen` accepts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dfcm::ValuePredictor;
use dfcm_sim::engine::{run_tasks_ft, TaskError, TaskOutput};
use dfcm_sim::{stream_trace_file, EngineConfig, EngineReport, StreamPredictor};
use dfcm_trace::stats::TraceStatsFold;
use dfcm_trace::suite::standard_suite;
use dfcm_trace::{
    atomic_write_with, inspect_trace, salvage_trace, Trace, TraceFile, TraceFormat, TraceSource,
    V3StreamWriter,
};
use dfcm_vm::{assemble, disassemble, programs, Vm, VmLimits};

/// Errors surfaced to the command line.
#[derive(Debug)]
pub struct ToolError(pub String);

impl std::fmt::Display for ToolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ToolError {}

fn err(message: impl Into<String>) -> ToolError {
    ToolError(message.into())
}

/// Parses a `--format` argument (`v1`, `v2` or `v3`) into a
/// [`TraceFormat`] stamped with `seed`.
///
/// # Errors
///
/// Returns [`ToolError`] for anything else.
pub fn parse_trace_format(s: &str, seed: u64) -> Result<TraceFormat, ToolError> {
    match s {
        "v1" | "1" => Ok(TraceFormat::V1),
        "v2" | "2" => Ok(TraceFormat::V2 { seed }),
        "v3" | "3" => Ok(TraceFormat::V3 { seed }),
        other => Err(err(format!("unknown trace format `{other}` (v1, v2, v3)"))),
    }
}

/// `gen <workload> <records> <out.trc> [--seed N]` — generates and saves a
/// trace. `<workload>` is a synthetic benchmark name (`cc1` … `vortex`) or
/// a VM kernel name (`norm`, `queens`, …).
///
/// # Errors
///
/// Returns [`ToolError`] for unknown workloads or I/O failures.
pub fn generate(
    workload: &str,
    records: usize,
    out: &Path,
    seed: u64,
) -> Result<String, ToolError> {
    generate_formatted(workload, records, out, seed, TraceFormat::V2 { seed })
}

/// [`generate`] with an explicit on-disk format (`--format`).
///
/// Synthetic workloads written as v3 never materialize the trace: records
/// are pulled from the generator straight into a [`V3StreamWriter`], so
/// memory stays flat no matter how many records are requested — that is
/// the path for producing 100M+-record traces. Kernel workloads and the
/// other formats build the trace in memory first.
///
/// # Errors
///
/// Returns [`ToolError`] for unknown workloads or I/O failures.
pub fn generate_formatted(
    workload: &str,
    records: usize,
    out: &Path,
    seed: u64,
    format: TraceFormat,
) -> Result<String, ToolError> {
    if matches!(format, TraceFormat::V3 { .. }) {
        if let Some(spec) = standard_suite().into_iter().find(|b| b.name() == workload) {
            let mut program = spec.program(seed);
            atomic_write_with(out, |w| {
                let mut writer = V3StreamWriter::new(&mut *w, records as u64, seed)?;
                for _ in 0..records {
                    // The synthetic generator is endless by construction.
                    let record = program
                        .next_record()
                        .expect("synthetic sources are endless");
                    writer.push(record)?;
                }
                writer.finish()?;
                Ok(())
            })
            .map_err(|e| err(format!("writing {}: {e}", out.display())))?;
            return Ok(format!("wrote {} records to {}", records, out.display()));
        }
    }
    let trace = trace_for(workload, records, seed)?;
    trace
        .save_with(out, format)
        .map_err(|e| err(format!("writing {}: {e}", out.display())))?;
    Ok(format!(
        "wrote {} records to {}",
        trace.len(),
        out.display()
    ))
}

/// Builds a trace for a named workload (shared by `gen` and tests).
/// Kernels run on the VM's interpreter under an instruction budget.
///
/// # Errors
///
/// Returns [`ToolError`] if the name matches neither a synthetic
/// benchmark nor a bundled kernel.
pub fn trace_for(workload: &str, records: usize, seed: u64) -> Result<Trace, ToolError> {
    if let Some(spec) = standard_suite().into_iter().find(|b| b.name() == workload) {
        return Ok(spec.program(seed).take_trace(records));
    }
    if let Some(src) = programs::by_name(workload) {
        let program = assemble(src).map_err(|e| err(format!("{workload}: {e}")))?;
        // Budget generously above any plausible instructions-per-record
        // ratio: a kernel that stops emitting (or never halts) degrades
        // to an error instead of hanging `gen`.
        let limits = VmLimits {
            max_instructions: Some(
                (records as u64)
                    .saturating_mul(1_000)
                    .saturating_add(10_000_000),
            ),
            ..VmLimits::default()
        };
        let mut vm =
            Vm::with_limits(program, limits).map_err(|e| err(format!("{workload}: {e}")))?;
        return vm
            .try_take_trace(records)
            .map_err(|e| err(format!("{workload} faulted: {e}")));
    }
    Err(err(format!(
        "unknown workload `{workload}` (see `dfcm-tools benchmarks` and `dfcm-tools kernels`)"
    )))
}

/// `stats <trace.trc>` — Table 1-style statistics of a saved trace, read
/// one chunk at a time.
///
/// # Errors
///
/// Returns [`ToolError`] for unreadable or malformed files.
pub fn stats(path: &Path) -> Result<String, ToolError> {
    let in_err = |e| input_error_of(path, e);
    let mut file = TraceFile::open(path).map_err(in_err)?;
    let mut fold = TraceStatsFold::default();
    let mut chunk = Vec::new();
    while file.read_chunk(&mut chunk).map_err(in_err)? > 0 {
        fold.add(&chunk);
        chunk.clear();
    }
    let s = fold.finish();
    let mut out = String::new();
    let _ = writeln!(out, "{}:", path.display());
    let _ = writeln!(out, "  records              {}", s.records);
    let _ = writeln!(out, "  static instructions  {}", s.static_instructions);
    let _ = writeln!(out, "  last-value fraction  {:.3}", s.last_value_fraction);
    let _ = writeln!(out, "  stride fraction      {:.3}", s.stride_fraction);
    let _ = writeln!(out, "  reuse fraction       {:.3}", s.reuse_fraction);
    Ok(out)
}

/// Builds a streaming lane from a spec string like `dfcm:16:12`,
/// `fcm:12:12`, `stride:14`, `2delta:14` or `lvp:12`: one of the five
/// concrete predictor kinds of [`StreamPredictor`], which is exactly what
/// the spec grammar covers.
///
/// # Errors
///
/// Returns [`ToolError`] for unknown predictor names or malformed specs.
pub fn stream_predictor_for(spec: &str) -> Result<StreamPredictor, ToolError> {
    StreamPredictor::parse_spec(spec).map_err(|e| err(e.to_string()))
}

/// `eval <trace.trc> <predictor-spec>...` — runs predictors over a saved
/// trace and reports accuracies, one line per spec in spec order.
///
/// Every spec is a lane of the streaming core, and the lanes split into
/// `sets = min(threads, lanes)` contiguous lane sets. Each set is one
/// engine task that streams the file once, in any format, decoding v2/v3
/// chunks on `threads / sets` threads, so a lone lane still decodes on
/// every thread. A set holds a few chunks at a time, so traces of any
/// length evaluate in flat memory. `engine` picks the thread count,
/// progress reporting, retry policy and (for testing) fault injection,
/// and the returned [`EngineReport`] carries the run metrics (per-set
/// timing, outcome, per-worker utilization). Accuracies do not depend on
/// the thread count.
///
/// A set that panics or exhausts its retries does not abort the run:
/// each of its specs reads `FAILED` with the outcome, the other sets
/// still report, and the failure stays visible in the report (callers
/// decide whether that is fatal — the CLI's `--strict` flag does exactly
/// that). Corruption fails a set at once; other read errors are retried.
///
/// With `engine.obs` enabled every lane also records the per-spec
/// `eval_accuracy` gauge, table occupancy/write counters, the paper's
/// aliasing taxonomy, chunk-end occupancy samples, and the windowed phase
/// series with top-K per-PC attribution (rendered by `dfcm-tools obs
/// report`); the CLI's `--obs DIR` flag dumps the exports. None of it
/// depends on the thread count.
///
/// # Errors
///
/// Returns [`ToolError`] for bad predictor specs or an empty spec list.
pub fn eval(
    path: &Path,
    specs: &[String],
    engine: &EngineConfig,
) -> Result<(String, EngineReport), ToolError> {
    let lanes = specs
        .iter()
        .map(|s| stream_predictor_for(s))
        .collect::<Result<Vec<StreamPredictor>, ToolError>>()?;
    if lanes.is_empty() {
        return Err(err("eval needs at least one predictor spec"));
    }
    let threads = match engine.threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let sets = threads.min(lanes.len());
    let set = |k: usize| k * lanes.len() / sets..(k + 1) * lanes.len() / sets;
    let labels = (0..sets).map(|k| specs[set(k)].join(",")).collect();
    let (values, report) = run_tasks_ft(
        labels,
        |k| {
            let mut lanes = lanes[set(k)].to_vec();
            let file_report = stream_trace_file(path, &mut lanes, threads / sets, &engine.obs)
                // Corruption won't heal on retry; read hiccups might.
                .map_err(|e| match e.kind() {
                    std::io::ErrorKind::InvalidData => {
                        TaskError::Permanent(format!("{}: {e}", path.display()))
                    }
                    _ => TaskError::Transient(format!("{}: {e}", path.display())),
                })?;
            let lines: Vec<String> = lanes
                .iter()
                .zip(&file_report.stats)
                .map(|(lane, s)| {
                    format!(
                        "  {:<32} accuracy {:.3}  ({:.1} Kbit)",
                        lane.name(),
                        s.accuracy(),
                        lane.storage().kbits()
                    )
                })
                .collect();
            Ok(TaskOutput {
                // A set touches every record once per lane.
                records: file_report.records * lanes.len() as u64,
                value: (file_report.records, lines),
            })
        },
        engine,
    );
    let mut out = String::new();
    let _ = match values.iter().flatten().next() {
        Some((records, _)) => writeln!(out, "{} ({records} records):", path.display()),
        None => writeln!(out, "{}:", path.display()),
    };
    for (k, (value, metric)) in values.iter().zip(&report.tasks).enumerate() {
        match value {
            Some((_, lines)) => lines.iter().for_each(|line| {
                let _ = writeln!(out, "{line}");
            }),
            None => specs[set(k)].iter().for_each(|spec| {
                let _ = writeln!(out, "  {spec:<32} FAILED: {}", metric.outcome);
            }),
        }
    }
    Ok((out, report))
}

/// `trace inspect <file>` — header, chunk map and CRC status of a saved
/// trace, whether or not the file is intact.
///
/// # Errors
///
/// Returns [`ToolError`] only when the file cannot be opened or its
/// header is unreadable; corruption in the body is *reported*, not an
/// error (use [`trace_verify`] to fail on it).
pub fn trace_inspect(path: &Path) -> Result<String, ToolError> {
    let file = File::open(path).map_err(|e| err(format!("{}: {e}", path.display())))?;
    let info =
        inspect_trace(BufReader::new(file)).map_err(|e| err(format!("{}: {e}", path.display())))?;
    let mut out = String::new();
    let _ = writeln!(out, "{}:", path.display());
    let _ = writeln!(out, "  format            v{}", info.version);
    let _ = writeln!(out, "  declared records  {}", info.declared_records);
    let _ = writeln!(out, "  decoded records   {}", info.decoded_records);
    if let Some(seed) = info.seed {
        let _ = writeln!(out, "  generator seed    {seed}");
    }
    if info.version >= 2 {
        let _ = writeln!(out, "  flags             {:#x}", info.flags);
        let _ = writeln!(out, "  chunks            {}", info.chunks.len());
        for c in &info.chunks {
            let status = if c.intact() {
                "ok".to_owned()
            } else if c.crc_stored != c.crc_computed {
                format!("CRC MISMATCH (computed {:08x})", c.crc_computed)
            } else {
                "UNDECODABLE".to_owned()
            };
            if info.version >= 3 {
                let _ = writeln!(
                    out,
                    "    chunk {:>3}  {:>7} records  {:>9} compressed  {:>9} packed  crc {:08x}  {status}",
                    c.chunk, c.records, c.payload_bytes, c.uncompressed_bytes, c.crc_stored
                );
            } else {
                let _ = writeln!(
                    out,
                    "    chunk {:>3}  {:>7} records  {:>9} bytes  crc {:08x}  {status}",
                    c.chunk, c.records, c.payload_bytes, c.crc_stored
                );
            }
        }
        if info.decoded_records > 0 {
            let payload: u64 = info.chunks.iter().map(|c| c.payload_bytes).sum();
            let _ = writeln!(
                out,
                "  payload density   {:.2} bits/record",
                payload as f64 * 8.0 / info.decoded_records as f64
            );
        }
    }
    if info.trailing_bytes > 0 {
        let _ = writeln!(out, "  trailing bytes    {}", info.trailing_bytes);
    }
    if let Some(e) = &info.error {
        let _ = writeln!(out, "  error             {e}");
    }
    let _ = writeln!(
        out,
        "  status            {}",
        if info.intact() { "intact" } else { "CORRUPT" }
    );
    Ok(out)
}

/// `trace verify <file>` — succeeds only when the file is fully intact
/// (every declared record decodes, every chunk CRC matches, no trailing
/// bytes), so scripts can gate on the exit status.
///
/// # Errors
///
/// Returns [`ToolError`] for unreadable files and for *any* corruption.
pub fn trace_verify(path: &Path) -> Result<String, ToolError> {
    let file = File::open(path).map_err(|e| err(format!("{}: {e}", path.display())))?;
    let info =
        inspect_trace(BufReader::new(file)).map_err(|e| err(format!("{}: {e}", path.display())))?;
    if info.intact() {
        let density = if info.version >= 3 && info.decoded_records > 0 {
            let payload: u64 = info.chunks.iter().map(|c| c.payload_bytes).sum();
            format!(
                ", {:.2} bits/record",
                payload as f64 * 8.0 / info.decoded_records as f64
            )
        } else {
            String::new()
        };
        // A v1 file has no chunk map: it is one chunk.
        let chunks = info.chunks.len().max(1);
        return Ok(format!(
            "{}: OK (v{}, {} records, {chunks} chunk{}{density})",
            path.display(),
            info.version,
            info.decoded_records,
            if chunks == 1 { "" } else { "s" }
        ));
    }
    let mut detail = Vec::new();
    let bad: Vec<String> = info
        .chunks
        .iter()
        .filter(|c| !c.intact())
        .map(|c| c.chunk.to_string())
        .collect();
    if !bad.is_empty() {
        detail.push(format!("bad chunk(s) {}", bad.join(", ")));
    }
    if info.decoded_records != info.declared_records {
        detail.push(format!(
            "decoded {} of {} declared records",
            info.decoded_records, info.declared_records
        ));
    }
    if info.trailing_bytes > 0 {
        detail.push(format!("{} trailing bytes", info.trailing_bytes));
    }
    if let Some(e) = &info.error {
        detail.push(e.clone());
    }
    Err(err(format!(
        "{}: CORRUPT ({})",
        path.display(),
        detail.join("; ")
    )))
}

/// `trace salvage <file> --output <out>` — recovers every intact chunk
/// into a fresh file of the *same format as the input* (re-stamping the
/// original generator seed when the header survived) and summarizes what
/// was dropped. Salvaging a v3 trace re-emits v3; v1 and v2 inputs
/// re-emit v2 (v1 has no seed or chunk structure worth preserving).
///
/// # Errors
///
/// Returns [`ToolError`] when the file cannot be read at all, when the
/// header is unrecoverable, or when nothing could be salvaged from a
/// nonempty trace.
pub fn trace_salvage(path: &Path, output: &Path) -> Result<String, ToolError> {
    let file = File::open(path).map_err(|e| err(format!("{}: {e}", path.display())))?;
    let report =
        salvage_trace(BufReader::new(file)).map_err(|e| err(format!("{}: {e}", path.display())))?;
    if report.recovered.is_empty() && report.declared_records > 0 {
        return Err(err(format!(
            "{}: nothing recoverable ({} records declared, every chunk damaged)",
            path.display(),
            report.declared_records
        )));
    }
    let seed = report.seed.unwrap_or(0);
    let format = if report.version >= 3 {
        TraceFormat::V3 { seed }
    } else {
        TraceFormat::V2 { seed }
    };
    report
        .recovered
        .save_with(output, format)
        .map_err(|e| err(format!("writing {}: {e}", output.display())))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "recovered {} of {} records ({}/{} chunks) from {} into {}",
        report.recovered.len(),
        report.declared_records,
        report.recovered_chunks,
        report.total_chunks,
        path.display(),
        output.display()
    );
    for d in &report.dropped {
        let _ = writeln!(
            out,
            "  dropped chunk {} ({} records): {}",
            d.chunk, d.records, d.reason
        );
    }
    if report.intact() {
        let _ = writeln!(out, "  source was fully intact; output is a clean rewrite");
    }
    Ok(out)
}

/// Reads the chunks of `path`, in any format, one at a time into a fresh
/// v3 file at `output` — the flat-memory half of [`trace_compress`]. Returns the
/// records written. A read or decode error is the input's, even though
/// it stops the output's write.
fn write_v3_streaming<R: std::io::Read>(
    path: &Path,
    output: &Path,
    mut file: TraceFile<R>,
    seed: u64,
) -> Result<u64, ToolError> {
    let records = file.declared_records();
    let mut input_error = None;
    let written = atomic_write_with(output, |w| {
        let mut writer = V3StreamWriter::new(&mut *w, records, seed)?;
        let mut chunk = Vec::new();
        loop {
            match file.read_chunk(&mut chunk) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => {
                    let abort = std::io::Error::other(e.to_string());
                    input_error = Some(e);
                    return Err(abort);
                }
            }
            for record in chunk.drain(..) {
                writer.push(record)?;
            }
        }
        writer.finish()?;
        Ok(())
    });
    match (input_error, written) {
        (Some(e), _) => Err(input_error_of(path, e)),
        (None, Err(e)) => Err(output_error_of(output, e)),
        (None, Ok(())) => Ok(records),
    }
}

/// A read or decode failure of the input trace at `path`.
fn input_error_of(path: &Path, e: std::io::Error) -> ToolError {
    err(format!("{}: {e}", path.display()))
}

/// A write failure of the output trace at `output`.
fn output_error_of(output: &Path, e: std::io::Error) -> ToolError {
    err(format!("writing {}: {e}", output.display()))
}

/// `trace compress <file> --output <out> [--format v1|v2|v3]` — rewrites
/// a saved trace in another format (default v3, the compressed tier).
///
/// Conversions to v3 stream the input chunk by chunk — read one, encode
/// it, drop it — so they run in flat memory at any trace size, while v1
/// and v2 outputs are written from the whole trace. The generator seed
/// from a v2/v3 header is carried over; v1 inputs (which have no seed)
/// stamp 0. A damaged input is reported against the input path, and only
/// write failures against `--output`.
///
/// # Errors
///
/// Returns [`ToolError`] for unreadable or corrupt inputs, unknown
/// target formats, and I/O failures.
pub fn trace_compress(
    path: &Path,
    output: &Path,
    format: Option<&str>,
) -> Result<String, ToolError> {
    let in_err = |e| input_error_of(path, e);
    let out_err = |e| output_error_of(output, e);
    let file = TraceFile::open(path).map_err(in_err)?;
    let target = parse_trace_format(format.unwrap_or("v3"), file.seed().unwrap_or(0))?;
    let records = match target {
        TraceFormat::V3 { seed } => write_v3_streaming(path, output, file, seed)?,
        target => {
            let trace = file.into_trace().map_err(in_err)?;
            trace.save_with(output, target).map_err(out_err)?;
            trace.len() as u64
        }
    };
    let in_bytes = std::fs::metadata(path).map_err(in_err)?.len();
    let out_bytes = std::fs::metadata(output).map_err(out_err)?.len();
    Ok(format!(
        "{} -> {}: {} records, {} -> {} bytes ({:.2}x, {:.2} bits/record)",
        path.display(),
        output.display(),
        records,
        in_bytes,
        out_bytes,
        in_bytes as f64 / out_bytes.max(1) as f64,
        out_bytes as f64 * 8.0 / records.max(1) as f64
    ))
}

/// `obs summarize <dir> [--check]` — renders the table-usage report for
/// an observability export directory (as written by `eval --obs DIR` or
/// a repro binary's `--obs DIR`). With `check`, first validates all
/// three export files (JSONL stream, Chrome trace, Prometheus text) for
/// well-formedness and internal consistency and fails on any problem.
///
/// # Errors
///
/// Returns [`ToolError`] when the directory's JSONL export is missing or
/// malformed, or (with `check`) listing every validation problem found.
pub fn obs_summarize(dir: &Path, check: bool) -> Result<String, ToolError> {
    if check {
        dfcm_obs::summary::check(dir).map_err(|problems| {
            err(format!(
                "{}: {} problem(s):\n  {}",
                dir.display(),
                problems.len(),
                problems.join("\n  ")
            ))
        })?;
    }
    let data = dfcm_obs::summary::load(dir).map_err(err)?;
    let mut out = dfcm_obs::summary::summarize(&data);
    if check {
        out.push_str("check: all exports well-formed and consistent\n");
    }
    Ok(out)
}

/// `obs report <dir> [--check]` — renders the per-benchmark *phase*
/// report from an export directory's `series.jsonl` (the
/// `dfcm-obs-series/v1` stream written by observed runs): per lane a
/// windowed accuracy/miss sparkline, the alias-class miss mix, and the
/// top-K hard-to-predict PC table with its space-saving error bounds.
///
/// With `check`, first validates the series stream's internal
/// consistency ([`dfcm_obs::timeseries::check_series`]) *and*
/// cross-reconciles the series against the aggregate metrics in
/// `events.jsonl`: the footer accuracy must match the `eval_accuracy`
/// gauge and the summed per-window class counts must match the
/// `predictor_alias_total` counters for every spec present in both.
///
/// # Errors
///
/// Returns [`ToolError`] when the series file is missing or malformed,
/// or (with `check`) listing every reconciliation problem found.
pub fn obs_report(dir: &Path, check: bool) -> Result<String, ToolError> {
    let lanes = dfcm_obs::timeseries::load_series(dir).map_err(err)?;
    if check {
        let mut problems = dfcm_obs::timeseries::check_series(&lanes);
        check_series_vs_aggregates(dir, &lanes, &mut problems);
        if !problems.is_empty() {
            return Err(err(format!(
                "{}: {} series problem(s):\n  {}",
                dir.display(),
                problems.len(),
                problems.join("\n  ")
            )));
        }
    }
    let mut out = format!("obs phase report: {}\n", dir.display());
    for lane in &lanes {
        render_lane_report(&mut out, lane);
    }
    if check {
        let _ = writeln!(
            out,
            "check: {} series lane(s) reconcile with the aggregate exports",
            lanes.len()
        );
    }
    Ok(out)
}

/// Renders one lane of the phase report (see [`obs_report`]).
fn render_lane_report(out: &mut String, lane: &dfcm_obs::timeseries::LoadedSeries) {
    let predictions: u64 = lane.windows.iter().map(|w| w.predictions).sum();
    let correct: u64 = lane.windows.iter().map(|w| w.correct).sum();
    let accuracy = correct as f64 / predictions.max(1) as f64;
    let _ = writeln!(
        out,
        "\n{}: {predictions} prediction(s) in {} window(s) of {}, accuracy {accuracy:.3}",
        lane.spec,
        lane.windows.len(),
        lane.window_len
    );
    let acc: Vec<f64> = lane.windows.iter().map(|w| w.accuracy).collect();
    let misses: Vec<f64> = lane.windows.iter().map(|w| w.misses as f64).collect();
    let (min_i, min_v) = extreme(&acc, |a, b| a < b);
    let (max_i, max_v) = extreme(&acc, |a, b| a > b);
    let _ = writeln!(
        out,
        "  accuracy {}  min {min_v:.3} (w{min_i})  max {max_v:.3} (w{max_i})",
        dfcm_obs::summary::sparkline(&acc)
    );
    let _ = writeln!(
        out,
        "  misses   {}  total {}",
        dfcm_obs::summary::sparkline(&misses),
        predictions - correct
    );
    // Alias-class miss mix across the whole series (non-zero classes
    // only; unclassified lanes show everything under `unclassified`).
    let mix: Vec<String> = lane
        .classes
        .iter()
        .enumerate()
        .filter_map(|(slot, class)| {
            let total: u64 = lane
                .windows
                .iter()
                .map(|w| w.class_total.get(slot).copied().unwrap_or(0))
                .sum();
            let ok: u64 = lane
                .windows
                .iter()
                .map(|w| w.class_correct.get(slot).copied().unwrap_or(0))
                .sum();
            (total > 0).then(|| format!("{class} {}", total - ok))
        })
        .collect();
    if !mix.is_empty() {
        let _ = writeln!(out, "  class misses: {}", mix.join(", "));
    }
    if lane.top.is_empty() {
        let _ = writeln!(out, "  hard-to-predict PCs: none recorded");
        return;
    }
    let _ = writeln!(
        out,
        "  hard-to-predict PCs (top {} tracked, capacity {}):",
        lane.top.len(),
        lane.top_k
    );
    for entry in &lane.top {
        let classes: Vec<String> = lane
            .classes
            .iter()
            .zip(&entry.class_miss)
            .filter(|(_, &n)| n > 0)
            .map(|(class, n)| format!("{class}:{n}"))
            .collect();
        let _ = writeln!(
            out,
            "    #{:<3} {:#018x}  {:>8} miss(es) (err <= {})  {}",
            entry.rank,
            entry.pc,
            entry.count,
            entry.error,
            classes.join(" ")
        );
    }
}

/// Index and value of the extreme element under `better` (0/0.0 for an
/// empty slice).
fn extreme(values: &[f64], better: impl Fn(f64, f64) -> bool) -> (usize, f64) {
    let mut best = (0usize, values.first().copied().unwrap_or(0.0));
    for (i, &v) in values.iter().enumerate() {
        if better(v, best.1) {
            best = (i, v);
        }
    }
    best
}

/// The series↔aggregate reconciliation half of `obs report --check`:
/// for every series lane whose spec also appears in the `events.jsonl`
/// aggregates, the footer accuracy must match the `eval_accuracy` gauge
/// (within 1e-4, the export's rounding) and the summed per-window class
/// totals must match the `predictor_alias_total` counters exactly.
fn check_series_vs_aggregates(
    dir: &Path,
    lanes: &[dfcm_obs::timeseries::LoadedSeries],
    problems: &mut Vec<String>,
) {
    let data = match dfcm_obs::summary::load(dir) {
        Ok(data) => data,
        Err(e) => {
            problems.push(format!("series/aggregate cross-check impossible: {e}"));
            return;
        }
    };
    let metric_for = |name: &str, spec: &str, class: Option<&str>| {
        data.metrics.iter().find(|m| {
            m.name == name
                && m.labels.iter().any(|(k, v)| k == "spec" && v == spec)
                && class.is_none_or(|c| m.labels.iter().any(|(k, v)| k == "class" && v == c))
        })
    };
    for lane in lanes {
        let Some(totals) = &lane.totals else {
            continue;
        };
        if let Some(gauge) = metric_for("eval_accuracy", &lane.spec, None) {
            let series_acc = totals.correct as f64 / totals.predictions.max(1) as f64;
            if (series_acc - gauge.value).abs() > 1e-4 {
                problems.push(format!(
                    "spec {}: series accuracy {series_acc:.6} disagrees with the \
                     eval_accuracy gauge {:.6}",
                    lane.spec, gauge.value
                ));
            }
        }
        for (slot, class) in lane.classes.iter().enumerate() {
            let Some(counter) = metric_for("predictor_alias_total", &lane.spec, Some(class)) else {
                continue;
            };
            let series_total: u64 = lane
                .windows
                .iter()
                .map(|w| w.class_total.get(slot).copied().unwrap_or(0))
                .sum();
            if (counter.value - series_total as f64).abs() > 0.5 {
                problems.push(format!(
                    "spec {} class {class}: series total {series_total} disagrees with \
                     the predictor_alias_total counter {}",
                    lane.spec, counter.value
                ));
            }
        }
    }
}

/// Options for the `serve` subcommand.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Listen address (`host:port`; port 0 picks a free one).
    pub addr: String,
    /// Predictor spec for new sessions (`lvp:B | stride:B | 2delta:B |
    /// fcm:L1:L2 | dfcm:L1:L2`).
    pub spec: String,
    /// Snapshot file: restored at startup, written on graceful shutdown.
    pub snapshot: Option<PathBuf>,
    /// Resource and robustness limits.
    pub limits: dfcm_serve::ServeLimits,
}

impl ServeOpts {
    /// Defaults for serving `spec` on `addr`, no snapshot.
    pub fn new(addr: &str, spec: &str) -> Self {
        ServeOpts {
            addr: addr.to_owned(),
            spec: spec.to_owned(),
            snapshot: None,
            limits: dfcm_serve::ServeLimits::default(),
        }
    }
}

/// `serve <addr> <predictor> [--snapshot FILE] [--max-sessions N]
/// [--workers N] [--queue N] [--deadline-ms N] [--idle-ms N]` — runs the
/// prediction daemon until `SIGTERM`/`SIGINT`, then drains, snapshots
/// and returns a shutdown summary.
///
/// Prints a `listening on <addr>` line to stdout once the socket is
/// bound, so scripts can wait for readiness.
///
/// # Errors
///
/// Returns [`ToolError`] when the address cannot be bound, the spec does
/// not parse, or the serving loop fails.
pub fn serve(opts: &ServeOpts) -> Result<String, ToolError> {
    let mut config = dfcm_serve::ServeConfig::new(&opts.spec);
    config.limits = opts.limits.clone();
    config.snapshot_path = opts.snapshot.clone();
    config.obs = dfcm_obs::Obs::enabled();
    let server = dfcm_serve::Server::bind(opts.addr.as_str(), config)
        .map_err(|e| err(format!("{}: {e}", opts.addr)))?;
    let addr = server
        .local_addr()
        .map_err(|e| err(format!("{}: {e}", opts.addr)))?;
    println!("dfcm-serve listening on {addr} ({})", opts.spec);

    dfcm_serve::install_shutdown_signals();
    let handle = server.handle();
    let done = Arc::new(AtomicBool::new(false));
    let watcher = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                if dfcm_serve::shutdown_requested() {
                    handle.shutdown();
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        })
    };
    let result = server.run();
    done.store(true, Ordering::Relaxed);
    let _ = watcher.join();
    let report = result.map_err(|e| err(e.to_string()))?;
    Ok(format!(
        "dfcm-serve stopped: {} session(s) snapshotted ({} bytes), {} restored at startup",
        report.sessions, report.snapshot_bytes, report.restored
    ))
}

/// Options for the `loadgen` subcommand.
#[derive(Debug, Clone)]
pub struct LoadGenOpts {
    /// Daemon address to load.
    pub addr: String,
    /// Concurrent client sessions.
    pub clients: usize,
    /// Predictor spec the daemon serves (the shadow predictors must
    /// match it for verification to be meaningful).
    pub spec: String,
    /// First session id; client `i` uses `session_base + i`.
    pub session_base: u64,
    /// Fault-injection spec `SEED[:PANIC[:TRANSIENT[:DELAY]]]` (permille
    /// rates, as for `eval --inject-faults`); `None` for a clean run.
    pub faults: Option<String>,
    /// With `true`, unacknowledged requests fail the command (corrupted
    /// acknowledgements always do).
    pub strict: bool,
    /// Write the latency histogram as JSONL here.
    pub hist_out: Option<PathBuf>,
}

impl LoadGenOpts {
    /// A clean 4-client run against `addr`.
    pub fn new(addr: &str, spec: &str) -> Self {
        LoadGenOpts {
            addr: addr.to_owned(),
            clients: 4,
            spec: spec.to_owned(),
            session_base: 1,
            faults: None,
            strict: false,
            hist_out: None,
        }
    }
}

/// `loadgen <trace.trc> <addr> <predictor> [--clients N]
/// [--session-base N] [--inject-faults SEED[:P[:T[:D]]]] [--strict]
/// [--hist-out FILE]` — replays a saved trace against a running daemon
/// with shadow-predictor verification and optional deterministic chaos,
/// and reports throughput and latency percentiles.
///
/// # Errors
///
/// Returns [`ToolError`] when the trace, address, spec or fault plan is
/// invalid, when the run would send no requests (zero clients or an
/// empty trace), when a client thread panicked, when an output file
/// cannot be written, when any acknowledged reply contradicted the
/// shadow predictor, or (with `strict`) when any request went
/// unacknowledged.
pub fn loadgen(trace_path: &Path, opts: &LoadGenOpts) -> Result<String, ToolError> {
    let trace =
        Trace::load(trace_path).map_err(|e| err(format!("{}: {e}", trace_path.display())))?;
    let addr: SocketAddr = opts
        .addr
        .to_socket_addrs()
        .map_err(|e| err(format!("{}: {e}", opts.addr)))?
        .next()
        .ok_or_else(|| err(format!("{}: no usable address", opts.addr)))?;
    let mut config = dfcm_serve::LoadGenConfig::new(addr, opts.clients, &opts.spec);
    config.session_base = opts.session_base;
    if let Some(spec) = &opts.faults {
        config.faults = Some(dfcm_sim::FaultPlan::parse(spec).map_err(err)?);
    }
    let report = dfcm_serve::run_loadgen(&config, &trace).map_err(err)?;

    if let Some(path) = &opts.hist_out {
        let mut lines = dfcm_serve::histogram_jsonl(&report).join("\n");
        lines.push('\n');
        std::fs::write(path, lines).map_err(|e| err(format!("{}: {e}", path.display())))?;
    }

    let mut out = format!(
        "loadgen: {} client(s) x {} record(s) against {addr} ({})\n",
        report.clients,
        trace.len(),
        opts.spec
    );
    let _ = writeln!(
        out,
        "  acked {}/{} (failed {}, corrupted {}, verified {})",
        report.acked, report.requests, report.failed, report.corrupted, report.verified
    );
    let _ = writeln!(
        out,
        "  {:.1} req/s over {:.3}s; latency p50 {}us p99 {}us max {}us",
        report.throughput_rps,
        report.elapsed.as_secs_f64(),
        report.p50_us,
        report.p99_us,
        report.max_us
    );
    if report.corrupted > 0 {
        return Err(err(format!(
            "{out}error: {} acknowledged repl(ies) contradicted the shadow predictor",
            report.corrupted
        )));
    }
    if opts.strict && report.failed > 0 {
        return Err(err(format!(
            "{out}error: {} request(s) unacknowledged under --strict",
            report.failed
        )));
    }
    Ok(out)
}

/// `scrape <addr>` — fetches a running daemon's metrics as Prometheus
/// text over the stats frame: rolling-window request-latency quantiles,
/// live per-spec session counts, and — when the daemon runs
/// instrumented — its full obs registry. Read-only and safe to call
/// while the daemon is under load.
///
/// # Errors
///
/// Returns [`ToolError`] when the address does not resolve or the
/// daemon cannot be reached.
pub fn scrape(addr: &str) -> Result<String, ToolError> {
    let addr: SocketAddr = addr
        .to_socket_addrs()
        .map_err(|e| err(format!("{addr}: {e}")))?
        .next()
        .ok_or_else(|| err(format!("{addr}: no usable address")))?;
    // Session 0 is never driven by clients, and the stats frame touches
    // no session state anyway.
    let mut client = dfcm_serve::ServeClient::new(
        addr,
        0,
        dfcm_sim::engine::RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(500),
        },
    );
    client.stats().map_err(|e| err(format!("{addr}: {e}")))
}

/// `disasm <kernel>` — assembly listing of a bundled kernel (assembled and
/// disassembled, so what is printed is exactly what executes).
///
/// # Errors
///
/// Returns [`ToolError`] for unknown kernel names.
pub fn disasm(kernel: &str) -> Result<String, ToolError> {
    let src = programs::by_name(kernel).ok_or_else(|| {
        err(format!(
            "unknown kernel `{kernel}` (see `dfcm-tools kernels`)"
        ))
    })?;
    let program = assemble(src).map_err(|e| err(format!("{kernel}: {e}")))?;
    Ok(disassemble(&program))
}

/// `profile <kernel> [max_steps]` — executes a kernel and prints its
/// execution profile.
///
/// # Errors
///
/// Returns [`ToolError`] for unknown kernels or faulting runs.
pub fn profile(kernel: &str, max_steps: u64) -> Result<String, ToolError> {
    let src = programs::by_name(kernel).ok_or_else(|| err(format!("unknown kernel `{kernel}`")))?;
    let mut vm = Vm::new(assemble(src).map_err(|e| err(format!("{kernel}: {e}")))?);
    let profile = dfcm_vm::profile::run_profiled(&mut vm, max_steps)
        .map_err(|e| err(format!("{kernel}: {e}")))?;
    let mut out = format!("{kernel}:\n{profile}\n");
    let _ = writeln!(out, "\n  hottest static instructions:");
    for (index, count) in profile.hottest(5) {
        let inst = vm
            .inst_at(index)
            .map(|i| dfcm_vm::render_inst(&i))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "    {:#08x}  {count:>10}x  {inst}",
            dfcm_vm::profile::pc_of_index(index)
        );
    }
    Ok(out)
}

/// `kernels` — the bundled kernel names.
pub fn kernels() -> String {
    programs::all()
        .iter()
        .map(|&(n, _)| n)
        .collect::<Vec<_>>()
        .join("\n")
}

/// `benchmarks` — the synthetic benchmark names.
pub fn benchmarks() -> String {
    standard_suite()
        .iter()
        .map(|b| b.name())
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_specs_parse() {
        assert!(stream_predictor_for("lvp:10").is_ok());
        assert!(stream_predictor_for("stride:10").is_ok());
        assert!(stream_predictor_for("2delta:10").is_ok());
        assert!(stream_predictor_for("fcm:12:12").is_ok());
        assert!(stream_predictor_for("dfcm:16:12").is_ok());
        assert!(stream_predictor_for("magic:3").is_err());
        assert!(stream_predictor_for("fcm:12").is_err());
        assert!(stream_predictor_for("dfcm:99:12").is_err());
        assert!(stream_predictor_for("dfcm:a:12").is_err());
    }

    #[test]
    fn stream_predictor_specs_parse() {
        for spec in [
            "lvp:10",
            "stride:10",
            "2delta:10",
            "fcm:12:12",
            "dfcm:16:12",
        ] {
            let lane = stream_predictor_for(spec).unwrap();
            assert_eq!(lane.spec(), spec);
        }
        assert!(stream_predictor_for("magic:3").is_err());
        assert!(stream_predictor_for("fcm:12").is_err());
    }

    #[test]
    fn eval_prints_the_same_lines_at_any_thread_count() {
        let dir = std::env::temp_dir().join("dfcm_tools_eval_threads_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Two v2/v3 chunks; a 5-wide dfcm sweep at one level-1 size walks
        // as a block when its set holds four of its lanes.
        let trace = trace_for("li", 70_000, 7).unwrap();
        let specs: Vec<String> = [
            "lvp:8",
            "stride:8",
            "2delta:8",
            "fcm:8:10",
            "dfcm:10:8",
            "dfcm:10:9",
            "dfcm:10:10",
            "dfcm:10:11",
            "dfcm:10:12",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let mut expected = Vec::new();
        for spec in &specs {
            let mut lane = stream_predictor_for(spec).unwrap();
            let stats = dfcm_sim::simulate_trace(&mut lane, &trace);
            expected.push(format!(
                "  {:<32} accuracy {:.3}  ({:.1} Kbit)",
                lane.name(),
                stats.accuracy(),
                lane.storage().kbits()
            ));
        }
        for format in [
            TraceFormat::V1,
            TraceFormat::V2 { seed: 7 },
            TraceFormat::V3 { seed: 7 },
        ] {
            let path = dir.join("li.trc");
            trace.save_with(&path, format).unwrap();
            for threads in [1, 2, 4] {
                let (out, report) = eval(&path, &specs, &EngineConfig::threads(threads)).unwrap();
                let mut lines = out.lines();
                assert_eq!(
                    lines.next(),
                    Some(format!("{} (70000 records):", path.display()).as_str())
                );
                assert_eq!(lines.collect::<Vec<_>>(), expected, "{format:?}, {threads}");
                assert!(report.all_ok());
                // One task per lane set, each touching every record once
                // per lane.
                assert_eq!(report.tasks.len(), threads, "{format:?}");
                assert_eq!(report.total_records(), 70_000 * specs.len() as u64);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eval_rejects_bad_specs_before_running() {
        let dir = std::env::temp_dir().join("dfcm_tools_eval_badspec_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trc");
        generate("li", 100, &path, 1).unwrap();
        let e = eval(&path, &["nope:1".to_owned()], &EngineConfig::default());
        assert!(e.is_err());
        assert!(eval(&path, &[], &EngineConfig::default()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eval_fails_a_damaged_trace_without_retrying() {
        // Three bytes cannot hold the magic, and a v1 file cut inside a
        // record is truncated: both are corrupt, which no retry heals, so
        // the task fails on its first attempt.
        let dir = std::env::temp_dir().join("dfcm_tools_eval_damaged_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let tiny = dir.join("tiny.trc");
        std::fs::write(&tiny, b"DFC").unwrap();
        let cut = dir.join("cut.trc");
        generate_formatted("li", 20_000, &cut, 1, TraceFormat::V1).unwrap();
        let bytes = std::fs::read(&cut).unwrap();
        std::fs::write(&cut, &bytes[..30_000]).unwrap();
        let mut engine = EngineConfig::default();
        engine.retry.max_attempts = 3;
        for (path, error) in [(&tiny, "bad trace header"), (&cut, "truncated at chunk 0")] {
            let specs = ["lvp:10".to_owned(), "dfcm:12:12".to_owned()];
            let (out, report) = eval(path, &specs, &engine).unwrap();
            assert_eq!(out.matches("FAILED").count(), 2, "{out}");
            assert!(out.contains(error), "{out}");
            assert!(report.tasks.iter().all(|t| t.attempts == 1), "{out}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loadgen_strict_run_acks_every_request_and_writes_histogram_jsonl() {
        let dir = std::env::temp_dir().join("dfcm_tools_loadgen_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("load.trc");
        generate("li", 300, &trace_path, 3).unwrap();

        let server =
            dfcm_serve::Server::bind("127.0.0.1:0", dfcm_serve::ServeConfig::new("dfcm:6:8"))
                .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().unwrap());

        let mut opts = LoadGenOpts::new(&addr.to_string(), "dfcm:6:8");
        opts.clients = 2;
        opts.strict = true;
        opts.hist_out = Some(dir.join("latency_hist.jsonl"));
        let out = loadgen(&trace_path, &opts).unwrap();
        assert!(
            out.contains("acked 600/600 (failed 0, corrupted 0, verified 600)"),
            "{out}"
        );

        // One cumulative bucket per JSONL line, the `+Inf` one last and
        // holding every acknowledged request.
        let hist = std::fs::read_to_string(dir.join("latency_hist.jsonl")).unwrap();
        let counts: Vec<u64> = hist
            .lines()
            .map(|line| {
                let bucket = dfcm_obs::json::parse(line).unwrap();
                bucket.get("count").and_then(|v| v.as_u64()).unwrap()
            })
            .collect();
        assert!(counts.len() > 1, "{hist}");
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{hist}");
        assert_eq!(counts.last(), Some(&600), "{hist}");

        handle.shutdown();
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_report_renders_and_reconciles() {
        let dir = std::env::temp_dir().join("dfcm_tools_obs_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("li.trc");
        generate("li", 3000, &path, 5).unwrap();
        let specs: Vec<String> = ["dfcm:8:10", "lvp:8"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let engine = EngineConfig {
            obs: dfcm_obs::Obs::enabled(),
            ..EngineConfig::default()
        };
        let (_, report) = eval(&path, &specs, &engine).unwrap();
        assert!(report.all_ok());
        let obs_dir = dir.join("obs");
        engine.obs.write_exports(&obs_dir).unwrap();

        let out = obs_report(&obs_dir, true).unwrap();
        assert!(out.contains("dfcm:8:10"), "{out}");
        assert!(out.contains("lvp:8"), "{out}");
        assert!(out.contains("accuracy"), "{out}");
        assert!(out.contains("hard-to-predict"), "{out}");
        assert!(
            out.contains("reconcile with the aggregate exports"),
            "{out}"
        );

        // --check catches a tampered series: bump one window's correct
        // count so accuracy and the footer stop reconciling.
        let series_path = obs_dir.join(dfcm_obs::timeseries::SERIES_FILE);
        let text = std::fs::read_to_string(&series_path).unwrap();
        let tampered = text.replacen(r#""correct":"#, r#""correct":1"#, 2);
        assert_ne!(text, tampered);
        std::fs::write(&series_path, tampered).unwrap();
        assert!(obs_report(&obs_dir, true).is_err());
        // Without --check the report still renders.
        assert!(obs_report(&obs_dir, false).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obs_report_missing_series_is_a_clear_error() {
        let dir = std::env::temp_dir().join("dfcm_tools_obs_report_missing");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let msg = obs_report(&dir, false).unwrap_err().to_string();
        assert!(msg.contains("series.jsonl"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrape_returns_prometheus_text() {
        let server =
            dfcm_serve::Server::bind("127.0.0.1:0", dfcm_serve::ServeConfig::new("lvp:4")).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().unwrap());
        let text = scrape(&addr.to_string()).unwrap();
        assert!(text.contains("serve_recent_window"), "{text}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn trace_for_accepts_both_tiers() {
        assert_eq!(trace_for("li", 500, 1).unwrap().len(), 500);
        assert_eq!(trace_for("sieve", 500, 1).unwrap().len(), 500);
        assert!(trace_for("nothing", 10, 1).is_err());
    }

    #[test]
    fn listings_are_nonempty() {
        assert!(kernels().contains("norm"));
        assert!(benchmarks().contains("vortex"));
    }

    #[test]
    fn disasm_output_reassembles() {
        let listing = disasm("queens").unwrap();
        assert!(dfcm_vm::assemble(&listing).is_ok());
        assert!(disasm("nope").is_err());
    }

    #[test]
    fn profile_reports_hot_spots() {
        let report = profile("sieve", 500_000).unwrap();
        assert!(report.contains("hottest"));
        assert!(report.contains("instructions executed"));
    }
}
