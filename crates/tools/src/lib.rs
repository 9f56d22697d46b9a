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
//! * `eval` — run a predictor configuration over a saved trace
//!   (`--streaming` feeds every predictor in one bounded-memory pass
//!   straight off the file, any format).
//! * `trace` — integrity tooling for saved traces: `inspect` (header and
//!   chunk map, with per-chunk compressed/packed sizes and bits/record
//!   for v3), `verify` (fail on any corruption), `salvage` (recover
//!   intact chunks into a fresh file of the same format), `compress`
//!   (convert between formats).
//! * `obs` — observability tooling: `summarize` renders the table-usage
//!   report for an export directory, `report` the windowed phase report
//!   (accuracy/miss sparklines, alias-class mix, top-K hard-to-predict
//!   PCs) from its `series.jsonl`; `--check` validates the exports.
//! * `bench` — `check` validates benchmark artifacts
//!   (`BENCH_throughput.json`, `BENCH_serve.json`, …) for CI gating;
//!   `trend` compares them against a committed baseline and fails on
//!   regressions beyond a noise threshold.
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
use dfcm_sim::{
    simulate_trace_observed, stream_trace_file, EngineConfig, EngineReport, StreamPredictor,
};
use dfcm_trace::stats::TraceStats;
use dfcm_trace::suite::standard_suite;
use dfcm_trace::{
    atomic_write_with, inspect_trace, salvage_trace, Trace, TraceFormat, TraceSource,
    V3StreamWriter,
};
use dfcm_vm::{assemble, classify_pair, disassemble, programs, Tier, Vm, VmLimits};

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
    generate_tiered(workload, records, out, seed, Tier::Fast)
}

/// [`generate`] with an explicit VM execution tier (`--vm-tier`). The
/// tiers are differentially verified bit-identical, so this only changes
/// wall-clock for kernel workloads; synthetic benchmarks ignore it.
///
/// # Errors
///
/// Returns [`ToolError`] for unknown workloads or I/O failures.
pub fn generate_tiered(
    workload: &str,
    records: usize,
    out: &Path,
    seed: u64,
    tier: Tier,
) -> Result<String, ToolError> {
    generate_formatted(workload, records, out, seed, tier, TraceFormat::V2 { seed })
}

/// [`generate_tiered`] with an explicit on-disk format (`--format`).
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
    tier: Tier,
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
    let trace = trace_for_tiered(workload, records, seed, tier)?;
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
///
/// # Errors
///
/// Returns [`ToolError`] if the name matches neither a synthetic
/// benchmark nor a bundled kernel.
pub fn trace_for(workload: &str, records: usize, seed: u64) -> Result<Trace, ToolError> {
    trace_for_tiered(workload, records, seed, Tier::Fast)
}

/// [`trace_for`] with an explicit VM execution tier for kernel workloads.
///
/// # Errors
///
/// Returns [`ToolError`] if the name matches neither a synthetic
/// benchmark nor a bundled kernel.
pub fn trace_for_tiered(
    workload: &str,
    records: usize,
    seed: u64,
    tier: Tier,
) -> Result<Trace, ToolError> {
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
            Vm::with_tier(program, limits, tier).map_err(|e| err(format!("{workload}: {e}")))?;
        return vm
            .try_take_trace(records)
            .map_err(|e| err(format!("{workload} faulted: {e}")));
    }
    Err(err(format!(
        "unknown workload `{workload}` (see `dfcm-tools benchmarks` and `dfcm-tools kernels`)"
    )))
}

/// `stats <trace.trc>` — Table 1-style statistics of a saved trace.
///
/// # Errors
///
/// Returns [`ToolError`] for unreadable or malformed files.
pub fn stats(path: &Path) -> Result<String, ToolError> {
    let trace = Trace::load(path).map_err(|e| err(format!("{}: {e}", path.display())))?;
    let s = TraceStats::measure(&trace);
    let mut out = String::new();
    let _ = writeln!(out, "{}:", path.display());
    let _ = writeln!(out, "  records              {}", s.records);
    let _ = writeln!(out, "  static instructions  {}", s.static_instructions);
    let _ = writeln!(out, "  last-value fraction  {:.3}", s.last_value_fraction);
    let _ = writeln!(out, "  stride fraction      {:.3}", s.stride_fraction);
    let _ = writeln!(out, "  reuse fraction       {:.3}", s.reuse_fraction);
    Ok(out)
}

/// Builds a predictor from a spec string like `dfcm:16:12`, `fcm:12:12`,
/// `stride:14`, `2delta:14` or `lvp:12`.
///
/// # Errors
///
/// Returns [`ToolError`] for unknown predictor names or malformed specs.
pub fn predictor_for(spec: &str) -> Result<Box<dyn ValuePredictor>, ToolError> {
    Ok(Box::new(stream_predictor_for(spec)?))
}

/// Builds a streaming lane from the same spec grammar as
/// [`predictor_for`]. The streaming core dispatches through an enum, so
/// only the five concrete predictor kinds are available — which is
/// exactly what the spec grammar covers.
///
/// # Errors
///
/// Returns [`ToolError`] for unknown predictor names or malformed specs.
pub fn stream_predictor_for(spec: &str) -> Result<StreamPredictor, ToolError> {
    StreamPredictor::parse_spec(spec).map_err(|e| err(e.to_string()))
}

/// `eval --streaming` — runs every spec as a lane of the single-pass
/// streaming core: the trace is decoded and walked once straight off the
/// file, all predictors update in the same pass (one engine task, so
/// `--metrics`, retries and `--strict` still apply to it).
///
/// Any trace format is accepted (the magic is sniffed). Chunked formats
/// (v2, v3) stream with a bounded working set — O(decode threads) chunks
/// — so arbitrarily large traces evaluate in flat memory; the engine's
/// thread count doubles as the chunk-decode thread count.
///
/// Output lines match [`eval`]'s layout and ordering. The streaming pass
/// is bit-identical to the per-predictor path; what changes is
/// throughput. With `engine.obs` enabled the streaming pass records the
/// same telemetry as the per-predictor path: the per-spec
/// `eval_accuracy` gauge, table occupancy/write counters, the paper's
/// aliasing taxonomy, chunk-boundary occupancy samples, and the
/// windowed phase series with top-K per-PC attribution (rendered by
/// `dfcm-tools obs report`). The series are bit-identical at any decode
/// thread count.
///
/// # Errors
///
/// Returns [`ToolError`] for unreadable traces or bad predictor specs.
pub fn eval_streaming(
    path: &Path,
    specs: &[String],
    engine: &EngineConfig,
) -> Result<(String, EngineReport), ToolError> {
    let lanes = specs
        .iter()
        .map(|s| stream_predictor_for(s))
        .collect::<Result<Vec<StreamPredictor>, ToolError>>()?;
    let decode_threads = if engine.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        engine.threads
    };
    let label = format!("stream[{}]", specs.join(","));
    let (mut values, report) = run_tasks_ft(
        vec![label.clone()],
        |_| {
            let mut lanes = lanes.clone();
            let file_report = stream_trace_file(path, &mut lanes, decode_threads, &engine.obs)
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
                // One streaming task touches every record once per lane.
                records: file_report.records * specs.len() as u64,
                value: (file_report.records, lines),
            })
        },
        engine,
    );
    let mut out = String::new();
    match values.pop().flatten() {
        Some((records, lines)) => {
            let _ = writeln!(
                out,
                "{} ({} records, streaming x{}):",
                path.display(),
                records,
                specs.len()
            );
            for line in lines {
                let _ = writeln!(out, "{line}");
            }
        }
        None => {
            let outcome = report
                .tasks
                .first()
                .map(|t| t.outcome.to_string())
                .unwrap_or_default();
            let _ = writeln!(out, "{} (streaming x{}):", path.display(), specs.len());
            let _ = writeln!(out, "  {label:<32} FAILED: {outcome}");
        }
    }
    Ok((out, report))
}

/// `eval <trace.trc> <predictor-spec>...` — runs predictors over a saved
/// trace and reports accuracies.
///
/// Each predictor runs as one engine task; `engine` picks the worker
/// count, progress reporting, retry policy and (for testing) fault
/// injection. Lines appear in spec order regardless of scheduling, and
/// the returned [`EngineReport`] carries the run metrics (per-task
/// timing, outcome, per-worker utilization).
///
/// A task that panics or exhausts its retries does not abort the run:
/// its line reads `FAILED` with the outcome, the other predictors still
/// report, and the failure stays visible in the report (callers decide
/// whether that is fatal — the CLI's `--strict` flag does exactly that).
///
/// With `engine.obs` enabled, every predictor additionally runs with
/// table-usage instrumentation (occupancy samples, write/overwrite
/// counters, the paper's aliasing taxonomy for FCM/DFCM and the
/// `eval_accuracy` gauge) accumulated into the shared handle; the CLI's
/// `--obs DIR` flag dumps the three export formats from it.
///
/// # Errors
///
/// Returns [`ToolError`] for unreadable traces or bad predictor specs.
pub fn eval(
    path: &Path,
    specs: &[String],
    engine: &EngineConfig,
) -> Result<(String, EngineReport), ToolError> {
    let trace = Trace::load(path).map_err(|e| err(format!("{}: {e}", path.display())))?;
    // Surface bad specs (in order) before any simulation runs.
    for spec in specs {
        predictor_for(spec)?;
    }
    let (lines, report) = run_tasks_ft(
        specs.to_vec(),
        |i| {
            let mut p = predictor_for(&specs[i]).expect("spec validated above");
            let stats = simulate_trace_observed(&mut p, &trace, &engine.obs, &specs[i]);
            Ok(TaskOutput {
                value: format!(
                    "  {:<32} accuracy {:.3}  ({:.1} Kbit)",
                    p.name(),
                    stats.accuracy(),
                    p.storage().kbits()
                ),
                records: trace.len() as u64,
            })
        },
        engine,
    );
    let mut out = String::new();
    let _ = writeln!(out, "{} ({} records):", path.display(), trace.len());
    for (line, metric) in lines.iter().zip(&report.tasks) {
        match line {
            Some(line) => {
                let _ = writeln!(out, "{line}");
            }
            None => {
                let _ = writeln!(out, "  {:<32} FAILED: {}", metric.label, metric.outcome);
            }
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
        return Ok(format!(
            "{}: OK (v{}, {} records, {} chunk{}{density})",
            path.display(),
            info.version,
            info.decoded_records,
            info.chunks.len().max(1),
            if info.chunks.len() == 1 { "" } else { "s" }
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

/// Streams already-decoded chunks into a fresh v3 file — the flat-memory
/// half of [`trace_compress`].
fn write_v3_streaming<I>(output: &Path, records: u64, seed: u64, chunks: I) -> std::io::Result<()>
where
    I: Iterator<Item = std::io::Result<Vec<dfcm_trace::TraceRecord>>>,
{
    atomic_write_with(output, |w| {
        let mut writer = V3StreamWriter::new(&mut *w, records, seed)?;
        for chunk in chunks {
            for record in chunk? {
                writer.push(record)?;
            }
        }
        writer.finish()?;
        Ok(())
    })
}

/// `trace compress <file> --output <out> [--format v1|v2|v3]` — rewrites
/// a saved trace in another format (default v3, the compressed tier).
///
/// Chunked inputs (v2, v3) converted to v3 are streamed chunk by chunk —
/// decode one, re-encode it, drop it — so the conversion runs in flat
/// memory at any trace size. The generator seed from a v2/v3 header is
/// carried over; v1 inputs (which have no seed) stamp 0.
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
    let in_err = |e: std::io::Error| err(format!("{}: {e}", path.display()));
    let out_err = |e: std::io::Error| err(format!("writing {}: {e}", output.display()));
    let mut magic = [0u8; 8];
    {
        use std::io::Read as _;
        File::open(path)
            .map_err(in_err)?
            .read_exact(&mut magic)
            .map_err(in_err)?;
    }
    let seed = match &magic {
        b"DFCMTRC2" => dfcm_trace::V2ChunkReader::open(path)
            .map_err(in_err)?
            .seed(),
        b"DFCMTRC3" => dfcm_trace::V3ChunkReader::open(path)
            .map_err(in_err)?
            .seed(),
        _ => 0,
    };
    let target = parse_trace_format(format.unwrap_or("v3"), seed)?;
    let records = match (&magic, target) {
        (b"DFCMTRC2", TraceFormat::V3 { .. }) => {
            let reader = dfcm_trace::V2ChunkReader::open(path).map_err(in_err)?;
            let records = reader.declared_records();
            write_v3_streaming(
                output,
                records,
                seed,
                reader.map(|c| c.and_then(|c| c.decode())),
            )
            .map_err(out_err)?;
            records
        }
        (b"DFCMTRC3", TraceFormat::V3 { .. }) => {
            let reader = dfcm_trace::V3ChunkReader::open(path).map_err(in_err)?;
            let records = reader.declared_records();
            write_v3_streaming(
                output,
                records,
                seed,
                reader.map(|c| c.and_then(|c| c.decode())),
            )
            .map_err(out_err)?;
            records
        }
        _ => {
            let trace = Trace::load(path).map_err(in_err)?;
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

/// `bench check <file>` — validates a benchmark artifact against its
/// declared schema, so CI can gate on the exit status without external
/// JSON tooling. Dispatches on the `schema` field:
///
/// * `dfcm-bench-throughput/v1` (`BENCH_throughput.json`, emitted by
///   `cargo bench --bench throughput`): `mode`, `records` and `machine`
///   fields; a non-empty `results` array whose entries carry positive,
///   finite timings; `stream`-path coverage of all four paper predictors
///   (lvp, stride, fcm, dfcm); and an `aggregate` with a positive sweep
///   `configs` count whose `speedup` is consistent with its own
///   numerator and denominator.
/// * `dfcm-bench-serve/v1` (`BENCH_serve.json`, emitted by
///   `dfcm-tools loadgen --bench-out`): counter fields present, every
///   request accounted for (`acked + failed == requests`), zero
///   `corrupted` acknowledgements, `verified ≤ acked`, ordered latency
///   percentiles, and finite timing/throughput numbers.
/// * `dfcm-bench-trace/v1` (`BENCH_trace.json`, emitted by
///   `cargo bench --bench trace`): `mode`, `records` and `machine`
///   fields; a non-empty `suite` array whose entries carry positive
///   byte counts, density and encode/decode rates, with every suite
///   trace at or under 16 bits/record in v3; and an `aggregate` whose
///   v3 density is at or under 12 bits/record, whose `ratio_vs_v2` is
///   at least 2 and consistent with its own density fields, and whose
///   streaming predictions/sec are finite and positive for both
///   formats.
///
/// # Errors
///
/// Returns [`ToolError`] listing every schema violation found.
pub fn bench_check(path: &Path) -> Result<String, ToolError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("{}: {e}", path.display())))?;
    let doc = dfcm_obs::json::parse(&text)
        .map_err(|e| err(format!("{}: malformed JSON: {e}", path.display())))?;
    let mut problems: Vec<String> = Vec::new();
    let summary = match doc.get("schema").and_then(|v| v.as_str()) {
        Some("dfcm-bench-throughput/v1") => check_bench_throughput(&doc, &mut problems),
        Some("dfcm-bench-serve/v1") => check_bench_serve(&doc, &mut problems),
        Some("dfcm-bench-vm/v1") => check_bench_vm(&doc, &mut problems),
        Some("dfcm-bench-trace/v1") => check_bench_trace(&doc, &mut problems),
        Some(other) => {
            problems.push(format!("unknown schema `{other}`"));
            String::new()
        }
        None => {
            problems.push("missing string field `schema`".into());
            String::new()
        }
    };
    if problems.is_empty() {
        Ok(format!("{}: OK ({summary})", path.display()))
    } else {
        Err(err(format!(
            "{}: {} schema problem(s):\n  {}",
            path.display(),
            problems.len(),
            problems.join("\n  ")
        )))
    }
}

/// The `dfcm-bench-throughput/v1` validator (see [`bench_check`]).
fn check_bench_throughput(doc: &dfcm_obs::json::Json, problems: &mut Vec<String>) -> String {
    let mut problem = |p: String| problems.push(p);
    match doc.get("mode").and_then(|v| v.as_str()) {
        Some("quick") | Some("full") => {}
        Some(other) => problem(format!("`mode` must be quick|full, got `{other}`")),
        None => problem("missing string field `mode`".into()),
    }
    if doc
        .get("records")
        .and_then(|v| v.as_u64())
        .is_none_or(|n| n == 0)
    {
        problem("`records` must be a positive integer".into());
    }
    match doc.get("machine") {
        Some(machine) => {
            for key in ["os", "arch"] {
                if machine.get(key).and_then(|v| v.as_str()).is_none() {
                    problem(format!("`machine.{key}` must be a string"));
                }
            }
            if machine
                .get("threads")
                .and_then(|v| v.as_u64())
                .is_none_or(|n| n == 0)
            {
                problem("`machine.threads` must be a positive integer".into());
            }
        }
        None => problem("missing object field `machine`".into()),
    }

    let mut stream_kinds: Vec<String> = Vec::new();
    match doc.get("results").and_then(|v| v.as_arr()) {
        Some([]) => problem("`results` must be non-empty".into()),
        Some(results) => {
            for (i, entry) in results.iter().enumerate() {
                for key in ["predictor", "kind"] {
                    if entry.get(key).and_then(|v| v.as_str()).is_none() {
                        problem(format!("results[{i}].{key} must be a string"));
                    }
                }
                let path_kind = entry.get("path").and_then(|v| v.as_str());
                if !matches!(path_kind, Some("dyn") | Some("stream")) {
                    problem(format!("results[{i}].path must be dyn|stream"));
                }
                if entry
                    .get("records")
                    .and_then(|v| v.as_u64())
                    .is_none_or(|n| n == 0)
                {
                    problem(format!("results[{i}].records must be a positive integer"));
                }
                for key in ["seconds", "predictions_per_sec"] {
                    if !entry
                        .get(key)
                        .and_then(|v| v.as_f64())
                        .is_some_and(|x| x.is_finite() && x > 0.0)
                    {
                        problem(format!("results[{i}].{key} must be finite and positive"));
                    }
                }
                if path_kind == Some("stream") {
                    if let Some(kind) = entry.get("kind").and_then(|v| v.as_str()) {
                        stream_kinds.push(kind.to_owned());
                    }
                }
            }
        }
        None => problem("missing array field `results`".into()),
    }
    for kind in ["lvp", "stride", "fcm", "dfcm"] {
        if !stream_kinds.iter().any(|k| k == kind) {
            problem(format!("no stream-path result for predictor kind `{kind}`"));
        }
    }

    match doc.get("aggregate") {
        Some(agg) => {
            if agg
                .get("configs")
                .and_then(|v| v.as_u64())
                .is_none_or(|n| n == 0)
            {
                problem("`aggregate.configs` must be a positive integer".into());
            }
            let field = |key: &str| agg.get(key).and_then(|v| v.as_f64());
            match (
                field("baseline_dyn_seconds"),
                field("stream_seconds"),
                field("speedup"),
            ) {
                (Some(base), Some(stream), Some(speedup))
                    if base > 0.0 && stream > 0.0 && speedup > 0.0 =>
                {
                    // The file rounds each field independently; allow a
                    // small tolerance around base/stream.
                    let expected = base / stream;
                    if (speedup - expected).abs() > 0.05 * expected {
                        problem(format!(
                            "aggregate.speedup {speedup} inconsistent with \
                             {base}/{stream} = {expected:.3}"
                        ));
                    }
                }
                _ => problem(
                    "aggregate needs positive baseline_dyn_seconds, \
                     stream_seconds and speedup"
                        .into(),
                ),
            }
        }
        None => problem("missing object field `aggregate`".into()),
    }

    format!(
        "dfcm-bench-throughput/v1, {} result(s)",
        doc.get("results")
            .and_then(|v| v.as_arr())
            .map_or(0, <[_]>::len)
    )
}

/// The `dfcm-bench-serve/v1` validator (see [`bench_check`]): the
/// loadgen artifact written by `dfcm-tools loadgen --bench-out`.
fn check_bench_serve(doc: &dfcm_obs::json::Json, problems: &mut Vec<String>) -> String {
    let field = |key: &str| doc.get(key).and_then(|v| v.as_u64());
    let mut problem = |p: String| problems.push(p);
    for key in ["clients", "requests"] {
        if field(key).is_none_or(|n| n == 0) {
            problem(format!("`{key}` must be a positive integer"));
        }
    }
    for key in [
        "acked",
        "failed",
        "corrupted",
        "verified",
        "p50_us",
        "p99_us",
        "max_us",
    ] {
        if field(key).is_none() {
            problem(format!("`{key}` must be a non-negative integer"));
        }
    }
    if let (Some(requests), Some(acked), Some(failed)) =
        (field("requests"), field("acked"), field("failed"))
    {
        if acked.checked_add(failed) != Some(requests) {
            problem(format!(
                "acked {acked} + failed {failed} != requests {requests}: \
                 requests unaccounted for"
            ));
        }
    }
    if field("corrupted").is_some_and(|n| n > 0) {
        problem(
            "`corrupted` must be 0: an acknowledged reply contradicted \
             the shadow predictor"
                .into(),
        );
    }
    if let (Some(verified), Some(acked)) = (field("verified"), field("acked")) {
        if verified > acked {
            problem(format!("verified {verified} exceeds acked {acked}"));
        }
    }
    if let (Some(p50), Some(p99), Some(max)) = (field("p50_us"), field("p99_us"), field("max_us")) {
        if p50 > p99 || p99 > max {
            problem(format!(
                "latency percentiles out of order: p50 {p50}, p99 {p99}, max {max}"
            ));
        }
    }
    for key in ["elapsed_s", "throughput_rps"] {
        if !doc
            .get(key)
            .and_then(|v| v.as_f64())
            .is_some_and(|x| x.is_finite() && x >= 0.0)
        {
            problem(format!("`{key}` must be finite and non-negative"));
        }
    }
    format!(
        "dfcm-bench-serve/v1, {}/{} acked",
        field("acked").unwrap_or(0),
        field("requests").unwrap_or(0)
    )
}

/// The `dfcm-bench-vm/v1` validator (see [`bench_check`]): the VM-tier
/// benchmark artifact written by `cargo bench --bench vm`. Unknown
/// fields are ignored, like the other validators; missing kernels and
/// non-positive rates are rejected.
fn check_bench_vm(doc: &dfcm_obs::json::Json, problems: &mut Vec<String>) -> String {
    let mut problem = |p: String| problems.push(p);
    match doc.get("mode").and_then(|v| v.as_str()) {
        Some("quick") | Some("full") => {}
        Some(other) => problem(format!("`mode` must be quick|full, got `{other}`")),
        None => problem("missing string field `mode`".into()),
    }
    if doc
        .get("records")
        .and_then(|v| v.as_u64())
        .is_none_or(|n| n == 0)
    {
        problem("`records` must be a positive integer".into());
    }
    match doc.get("machine") {
        Some(machine) => {
            for key in ["os", "arch"] {
                if machine.get(key).and_then(|v| v.as_str()).is_none() {
                    problem(format!("`machine.{key}` must be a string"));
                }
            }
            if machine
                .get("threads")
                .and_then(|v| v.as_u64())
                .is_none_or(|n| n == 0)
            {
                problem("`machine.threads` must be a positive integer".into());
            }
        }
        None => problem("missing object field `machine`".into()),
    }
    // The whole point of the fast tier is that it is bit-identical; an
    // artifact that measured divergent tiers is invalid, not just slow.
    match doc.get("equivalent") {
        Some(dfcm_obs::json::Json::Bool(true)) => {}
        Some(dfcm_obs::json::Json::Bool(false)) => {
            problem("`equivalent` is false: the tiers emitted different traces".into());
        }
        _ => problem("missing boolean field `equivalent`".into()),
    }

    let mut seen: Vec<String> = Vec::new();
    match doc.get("kernels").and_then(|v| v.as_arr()) {
        Some([]) => problem("`kernels` must be non-empty".into()),
        Some(entries) => {
            for (i, entry) in entries.iter().enumerate() {
                match entry.get("kernel").and_then(|v| v.as_str()) {
                    Some(name) => seen.push(name.to_owned()),
                    None => problem(format!("kernels[{i}].kernel must be a string")),
                }
                if entry
                    .get("instructions")
                    .and_then(|v| v.as_u64())
                    .is_none_or(|n| n == 0)
                {
                    problem(format!(
                        "kernels[{i}].instructions must be a positive integer"
                    ));
                }
                let rate = |key: &str| entry.get(key).and_then(|v| v.as_f64());
                for key in [
                    "interp_seconds",
                    "interp_ips",
                    "fast_seconds",
                    "fast_ips",
                    "speedup",
                ] {
                    if !rate(key).is_some_and(|x| x.is_finite() && x > 0.0) {
                        problem(format!("kernels[{i}].{key} must be finite and positive"));
                    }
                }
                if let (Some(interp), Some(fast), Some(speedup)) = (
                    rate("interp_seconds"),
                    rate("fast_seconds"),
                    rate("speedup"),
                ) {
                    if interp > 0.0 && fast > 0.0 && speedup > 0.0 {
                        let expected = interp / fast;
                        if (speedup - expected).abs() > 0.05 * expected {
                            problem(format!(
                                "kernels[{i}].speedup {speedup} inconsistent with \
                                 {interp}/{fast} = {expected:.3}"
                            ));
                        }
                    }
                }
                for key in ["fused_fraction", "replay_fraction"] {
                    if !rate(key).is_some_and(|x| (0.0..=1.0).contains(&x)) {
                        problem(format!("kernels[{i}].{key} must be within [0, 1]"));
                    }
                }
            }
        }
        None => problem("missing array field `kernels`".into()),
    }
    for (name, _) in programs::all() {
        if !seen.iter().any(|k| k == name) {
            problem(format!("bundled kernel `{name}` missing from `kernels`"));
        }
    }

    match doc.get("aggregate") {
        Some(agg) => {
            if agg
                .get("kernels")
                .and_then(|v| v.as_u64())
                .is_none_or(|n| n as usize != seen.len())
            {
                problem(format!(
                    "`aggregate.kernels` must equal the kernel entry count ({})",
                    seen.len()
                ));
            }
            let field = |key: &str| agg.get(key).and_then(|v| v.as_f64());
            match (
                field("min_speedup"),
                field("geomean_speedup"),
                field("max_speedup"),
            ) {
                (Some(min), Some(geo), Some(max))
                    if min > 0.0 && geo > 0.0 && max > 0.0 && min <= geo && geo <= max => {}
                _ => problem(
                    "aggregate needs positive, ordered min_speedup <= \
                     geomean_speedup <= max_speedup"
                        .into(),
                ),
            }
        }
        None => problem("missing object field `aggregate`".into()),
    }

    format!("dfcm-bench-vm/v1, {} kernel(s)", seen.len())
}

/// Per-suite v3 density ceiling (bits/record) for `bench check`. The
/// suite's worst case is `go` (wide random value blocks) at ~15 in
/// quick mode; anything past this means packing or compression
/// regressed.
const TRACE_SUITE_MAX_BITS: f64 = 16.0;
/// Aggregate v3 density ceiling (bits/record); measured ~10.8.
const TRACE_AGG_MAX_BITS: f64 = 12.0;
/// Minimum aggregate size ratio over v2; measured ~3.3x.
const TRACE_MIN_RATIO_VS_V2: f64 = 2.0;

/// The `dfcm-bench-trace/v1` validator (see [`bench_check`]): the
/// trace-format benchmark artifact written by `cargo bench --bench
/// trace`. Density ceilings are acceptance gates — a suite entry over
/// [`TRACE_SUITE_MAX_BITS`] bits/record in v3, an aggregate over
/// [`TRACE_AGG_MAX_BITS`], or an aggregate ratio under
/// [`TRACE_MIN_RATIO_VS_V2`]x is rejected, not just reported.
fn check_bench_trace(doc: &dfcm_obs::json::Json, problems: &mut Vec<String>) -> String {
    let mut problem = |p: String| problems.push(p);
    match doc.get("mode").and_then(|v| v.as_str()) {
        Some("quick") | Some("full") => {}
        Some(other) => problem(format!("`mode` must be quick|full, got `{other}`")),
        None => problem("missing string field `mode`".into()),
    }
    if doc
        .get("records")
        .and_then(|v| v.as_u64())
        .is_none_or(|n| n == 0)
    {
        problem("`records` must be a positive integer".into());
    }
    match doc.get("machine") {
        Some(machine) => {
            for key in ["os", "arch"] {
                if machine.get(key).and_then(|v| v.as_str()).is_none() {
                    problem(format!("`machine.{key}` must be a string"));
                }
            }
            if machine
                .get("threads")
                .and_then(|v| v.as_u64())
                .is_none_or(|n| n == 0)
            {
                problem("`machine.threads` must be a positive integer".into());
            }
        }
        None => problem("missing object field `machine`".into()),
    }

    let mut entries_seen = 0usize;
    match doc.get("suite").and_then(|v| v.as_arr()) {
        Some([]) => problem("`suite` must be non-empty".into()),
        Some(entries) => {
            entries_seen = entries.len();
            for (i, entry) in entries.iter().enumerate() {
                if entry.get("name").and_then(|v| v.as_str()).is_none() {
                    problem(format!("suite[{i}].name must be a string"));
                }
                for key in ["records", "v2_bytes", "v3_bytes"] {
                    if entry
                        .get(key)
                        .and_then(|v| v.as_u64())
                        .is_none_or(|n| n == 0)
                    {
                        problem(format!("suite[{i}].{key} must be a positive integer"));
                    }
                }
                let rate = |key: &str| entry.get(key).and_then(|v| v.as_f64());
                for key in [
                    "v2_bits_record",
                    "v3_bits_record",
                    "encode_mb_s",
                    "decode_mb_s",
                ] {
                    if !rate(key).is_some_and(|x| x.is_finite() && x > 0.0) {
                        problem(format!("suite[{i}].{key} must be finite and positive"));
                    }
                }
                if let Some(bits) = rate("v3_bits_record") {
                    if bits > TRACE_SUITE_MAX_BITS {
                        problem(format!(
                            "suite[{i}].v3_bits_record {bits} exceeds the \
                             {TRACE_SUITE_MAX_BITS} bits/record density gate"
                        ));
                    }
                }
            }
        }
        None => problem("missing array field `suite`".into()),
    }

    match doc.get("aggregate") {
        Some(agg) => {
            let field = |key: &str| agg.get(key).and_then(|v| v.as_f64());
            for key in [
                "v2_bits_record",
                "v3_bits_record",
                "ratio_vs_v2",
                "encode_mb_s",
                "decode_mb_s",
                "v2_stream_pred_s",
                "v3_stream_pred_s",
                "stream_ratio",
            ] {
                if !field(key).is_some_and(|x| x.is_finite() && x > 0.0) {
                    problem(format!("aggregate.{key} must be finite and positive"));
                }
            }
            if agg
                .get("stream_threads")
                .and_then(|v| v.as_u64())
                .is_none_or(|n| n == 0)
            {
                problem("`aggregate.stream_threads` must be a positive integer".into());
            }
            if let Some(bits) = field("v3_bits_record") {
                if bits > TRACE_AGG_MAX_BITS {
                    problem(format!(
                        "aggregate.v3_bits_record {bits} exceeds the \
                         {TRACE_AGG_MAX_BITS} bits/record density gate"
                    ));
                }
            }
            if let (Some(v2), Some(v3), Some(ratio)) = (
                field("v2_bits_record"),
                field("v3_bits_record"),
                field("ratio_vs_v2"),
            ) {
                if v2 > 0.0 && v3 > 0.0 && ratio > 0.0 {
                    if ratio < TRACE_MIN_RATIO_VS_V2 {
                        problem(format!(
                            "aggregate.ratio_vs_v2 {ratio} under the \
                             {TRACE_MIN_RATIO_VS_V2}x compression gate"
                        ));
                    }
                    let expected = v2 / v3;
                    if (ratio - expected).abs() > 0.05 * expected {
                        problem(format!(
                            "aggregate.ratio_vs_v2 {ratio} inconsistent with \
                             {v2}/{v3} = {expected:.3}"
                        ));
                    }
                }
            }
            if let (Some(v2_ps), Some(v3_ps), Some(ratio)) = (
                field("v2_stream_pred_s"),
                field("v3_stream_pred_s"),
                field("stream_ratio"),
            ) {
                if v2_ps > 0.0 && v3_ps > 0.0 && ratio > 0.0 {
                    let expected = v3_ps / v2_ps;
                    if (ratio - expected).abs() > 0.05 * expected {
                        problem(format!(
                            "aggregate.stream_ratio {ratio} inconsistent with \
                             {v3_ps}/{v2_ps} = {expected:.3}"
                        ));
                    }
                }
            }
        }
        None => problem("missing object field `aggregate`".into()),
    }

    format!("dfcm-bench-trace/v1, {entries_seen} suite trace(s)")
}

/// The benchmark artifacts `bench trend` looks for in each directory.
const TREND_FILES: &[&str] = &[
    "BENCH_throughput.json",
    "BENCH_vm.json",
    "BENCH_trace.json",
    "BENCH_serve.json",
];

/// One comparable headline metric extracted from a benchmark artifact:
/// name, value, and whether larger values are better (throughput-like)
/// or worse (latency/density-like).
type TrendMetric = (String, f64, bool);

/// Extracts the headline metrics of a benchmark artifact for trend
/// comparison, dispatching on the `schema` field like [`bench_check`].
/// Returns an error for unknown schemas (the artifact may still be
/// valid for `bench check`; it just cannot be trended).
fn trend_metrics(doc: &dfcm_obs::json::Json) -> Result<Vec<TrendMetric>, String> {
    let mut metrics: Vec<TrendMetric> = Vec::new();
    match doc.get("schema").and_then(|v| v.as_str()) {
        Some("dfcm-bench-throughput/v1") => {
            for entry in doc.get("results").and_then(|v| v.as_arr()).unwrap_or(&[]) {
                let (Some(kind), Some(path)) = (
                    entry.get("kind").and_then(|v| v.as_str()),
                    entry.get("path").and_then(|v| v.as_str()),
                ) else {
                    continue;
                };
                if let Some(v) = entry.get("predictions_per_sec").and_then(|v| v.as_f64()) {
                    metrics.push((format!("{kind}[{path}] predictions_per_sec"), v, true));
                }
            }
            if let Some(v) = doc
                .get("aggregate")
                .and_then(|a| a.get("speedup"))
                .and_then(|v| v.as_f64())
            {
                metrics.push(("aggregate.speedup".into(), v, true));
            }
        }
        Some("dfcm-bench-vm/v1") => {
            for entry in doc.get("kernels").and_then(|v| v.as_arr()).unwrap_or(&[]) {
                let Some(kernel) = entry.get("kernel").and_then(|v| v.as_str()) else {
                    continue;
                };
                for key in ["fast_ips", "speedup"] {
                    if let Some(v) = entry.get(key).and_then(|v| v.as_f64()) {
                        metrics.push((format!("{kernel}.{key}"), v, true));
                    }
                }
            }
            if let Some(v) = doc
                .get("aggregate")
                .and_then(|a| a.get("geomean_speedup"))
                .and_then(|v| v.as_f64())
            {
                metrics.push(("aggregate.geomean_speedup".into(), v, true));
            }
        }
        Some("dfcm-bench-trace/v1") => {
            for entry in doc.get("suite").and_then(|v| v.as_arr()).unwrap_or(&[]) {
                let Some(name) = entry.get("name").and_then(|v| v.as_str()) else {
                    continue;
                };
                if let Some(v) = entry.get("v3_bits_record").and_then(|v| v.as_f64()) {
                    // Density: fewer bits per record is better.
                    metrics.push((format!("{name}.v3_bits_record"), v, false));
                }
            }
            if let Some(agg) = doc.get("aggregate") {
                if let Some(v) = agg.get("v3_bits_record").and_then(|v| v.as_f64()) {
                    metrics.push(("aggregate.v3_bits_record".into(), v, false));
                }
                for key in ["v2_stream_pred_s", "v3_stream_pred_s"] {
                    if let Some(v) = agg.get(key).and_then(|v| v.as_f64()) {
                        metrics.push((format!("aggregate.{key}"), v, true));
                    }
                }
            }
        }
        Some("dfcm-bench-serve/v1") => {
            if let Some(v) = doc.get("throughput_rps").and_then(|v| v.as_f64()) {
                metrics.push(("throughput_rps".into(), v, true));
            }
            for key in ["p50_us", "p99_us"] {
                if let Some(v) = doc.get(key).and_then(|v| v.as_f64()) {
                    // Latency: lower is better.
                    metrics.push((key.into(), v, false));
                }
            }
        }
        Some(other) => return Err(format!("unknown schema `{other}`")),
        None => return Err("missing string field `schema`".into()),
    }
    Ok(metrics)
}

/// `bench trend --baseline <dir> [--current <dir>] [--threshold PCT]
/// [--report-only]` — the bench-trajectory regression gate: compares
/// the current benchmark artifacts ([`TREND_FILES`] in `current`)
/// against a committed baseline directory, metric by metric, and fails
/// on any headline metric that regressed beyond `threshold_percent`
/// (slower throughput, higher latency, denser-than-before traces).
///
/// Artifacts absent from the baseline are reported and skipped (no
/// baseline, nothing to gate — `BENCH_serve.json` is CI-only, for
/// example); an artifact present in the baseline but missing from the
/// current run is itself a regression. With `report_only`, regressions
/// are reported but the call still succeeds, for advisory CI steps on
/// noisy runners.
///
/// # Errors
///
/// Returns [`ToolError`] when no artifact could be compared, when an
/// artifact is unreadable or schema-less, or (without `report_only`)
/// when any metric regressed beyond the threshold.
pub fn bench_trend(
    current: &Path,
    baseline: &Path,
    threshold_percent: f64,
    report_only: bool,
) -> Result<String, ToolError> {
    let mut out = format!(
        "bench trend: {} vs baseline {} (threshold {threshold_percent}%)\n",
        current.display(),
        baseline.display()
    );
    let mut compared_files = 0usize;
    let mut compared_metrics = 0usize;
    let mut regressions: Vec<String> = Vec::new();
    for name in TREND_FILES {
        let base_path = baseline.join(name);
        let cur_path = current.join(name);
        match (base_path.is_file(), cur_path.is_file()) {
            (false, false) => continue,
            (false, true) => {
                let _ = writeln!(out, "{name}: no baseline — skipped (baseline candidate)");
                continue;
            }
            (true, false) => {
                regressions.push(format!(
                    "{name}: present in the baseline but missing from the current run"
                ));
                let _ = writeln!(out, "{name}: MISSING from current run");
                continue;
            }
            (true, true) => {}
        }
        let parse = |path: &Path| -> Result<Vec<TrendMetric>, ToolError> {
            let text = std::fs::read_to_string(path)
                .map_err(|e| err(format!("{}: {e}", path.display())))?;
            let doc = dfcm_obs::json::parse(&text)
                .map_err(|e| err(format!("{}: malformed JSON: {e}", path.display())))?;
            trend_metrics(&doc).map_err(|e| err(format!("{}: {e}", path.display())))
        };
        let base_metrics = parse(&base_path)?;
        let cur_metrics = parse(&cur_path)?;
        compared_files += 1;
        let _ = writeln!(out, "{name}:");
        for (metric, base_value, higher_is_better) in &base_metrics {
            let Some((_, cur_value, _)) = cur_metrics.iter().find(|(m, _, _)| m == metric) else {
                regressions.push(format!(
                    "{name}: metric `{metric}` missing from current run"
                ));
                let _ = writeln!(out, "  {metric:<44} MISSING from current run");
                continue;
            };
            if !(base_value.is_finite() && base_value.abs() > f64::EPSILON) {
                continue;
            }
            compared_metrics += 1;
            let delta_pct = (cur_value - base_value) / base_value * 100.0;
            let regressed = if *higher_is_better {
                delta_pct < -threshold_percent
            } else {
                delta_pct > threshold_percent
            };
            let status = if regressed {
                regressions.push(format!(
                    "{name}: `{metric}` {base_value:.3} -> {cur_value:.3} \
                     ({delta_pct:+.1}%, {} is worse)",
                    if *higher_is_better { "lower" } else { "higher" }
                ));
                "REGRESSED"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "  {metric:<44} {base_value:>14.3} -> {cur_value:>14.3}  {delta_pct:+7.1}%  {status}"
            );
        }
    }
    if compared_files == 0 && regressions.is_empty() {
        return Err(err(format!(
            "no benchmark artifacts to compare (looked for {} under {} and {})",
            TREND_FILES.join(", "),
            current.display(),
            baseline.display()
        )));
    }
    let _ = writeln!(
        out,
        "{compared_metrics} metric(s) across {compared_files} artifact(s), \
         {} regression(s) beyond {threshold_percent}%",
        regressions.len()
    );
    if regressions.is_empty() {
        return Ok(out);
    }
    if report_only {
        let _ = writeln!(out, "report-only: regressions reported, not enforced");
        return Ok(out);
    }
    Err(err(format!(
        "{out}error: {} benchmark metric(s) regressed beyond {threshold_percent}%:\n  {}",
        regressions.len(),
        regressions.join("\n  ")
    )))
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
    /// Write the `dfcm-bench-serve/v1` artifact here.
    pub bench_out: Option<PathBuf>,
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
            bench_out: None,
            hist_out: None,
        }
    }
}

/// `loadgen <trace.trc> <addr> <predictor> [--clients N]
/// [--session-base N] [--inject-faults SEED[:P[:T[:D]]]] [--strict]
/// [--bench-out FILE] [--hist-out FILE]` — replays a saved trace against
/// a running daemon with shadow-predictor verification and optional
/// deterministic chaos, and reports throughput and latency percentiles.
///
/// # Errors
///
/// Returns [`ToolError`] when the trace, address, spec or fault plan is
/// invalid, when an output file cannot be written, when any
/// acknowledged reply contradicted the shadow predictor, or (with
/// `strict`) when any request went unacknowledged.
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

    if let Some(path) = &opts.bench_out {
        let mut json = dfcm_serve::bench_json(&report);
        json.push('\n');
        std::fs::write(path, json).map_err(|e| err(format!("{}: {e}", path.display())))?;
    }
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

/// `vm profile <kernel> [max_steps]` — the fast-tier planning view of a
/// kernel: the per-opcode execution histogram and the hot adjacent-pair
/// histogram from the profiling pass, with each pair classified against
/// the superinstruction patterns ([`classify_pair`]). This is the data
/// the fast tier's fusion selection runs on — the report shows *why* the
/// fusion set is what it is.
///
/// # Errors
///
/// Returns [`ToolError`] for unknown kernels or faulting runs.
pub fn vm_profile(kernel: &str, max_steps: u64) -> Result<String, ToolError> {
    let src = programs::by_name(kernel).ok_or_else(|| err(format!("unknown kernel `{kernel}`")))?;
    let mut vm = Vm::new(assemble(src).map_err(|e| err(format!("{kernel}: {e}")))?);
    let profile = dfcm_vm::profile::run_profiled(&mut vm, max_steps)
        .map_err(|e| err(format!("{kernel}: {e}")))?;

    let mut out = format!("{kernel}: {} instruction(s) profiled\n", profile.total);
    let _ = writeln!(out, "\n  per-opcode histogram:");
    for (mnemonic, count) in profile.mnemonic_counts() {
        let _ = writeln!(
            out,
            "    {mnemonic:<6} {count:>10}x  {:5.1}%",
            100.0 * count as f64 / profile.total.max(1) as f64
        );
    }

    let _ = writeln!(out, "\n  hot adjacent pairs (fusion candidates marked):");
    let mut fusible_dynamic = 0u64;
    for ((a, b), count) in profile.hot_pairs(10) {
        let (Some(fst), Some(snd)) = (vm.inst_at(a), vm.inst_at(b)) else {
            continue;
        };
        let kind = classify_pair(fst, snd);
        if kind.is_some() {
            fusible_dynamic += count;
        }
        let _ = writeln!(
            out,
            "    {:#08x}  {count:>10}x  {} ; {}{}",
            dfcm_vm::profile::pc_of_index(a),
            dfcm_vm::render_inst(&fst),
            dfcm_vm::render_inst(&snd),
            kind.map(|k| format!("  [{}]", k.label()))
                .unwrap_or_default()
        );
    }
    let _ = writeln!(
        out,
        "\n  {:.1}% of profiled instructions sit in a top-10 pair matching a \
         superinstruction pattern",
        100.0 * (2 * fusible_dynamic) as f64 / profile.total.max(1) as f64
    );
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
        assert!(predictor_for("lvp:10").is_ok());
        assert!(predictor_for("stride:10").is_ok());
        assert!(predictor_for("2delta:10").is_ok());
        assert!(predictor_for("fcm:12:12").is_ok());
        assert!(predictor_for("dfcm:16:12").is_ok());
        assert!(predictor_for("magic:3").is_err());
        assert!(predictor_for("fcm:12").is_err());
        assert!(predictor_for("dfcm:99:12").is_err());
        assert!(predictor_for("dfcm:a:12").is_err());
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
            // The lane reports the same name/cost as the dyn-path build.
            let boxed = predictor_for(spec).unwrap();
            assert_eq!(lane.name(), boxed.name());
            assert_eq!(lane.storage().total_bits(), boxed.storage().total_bits());
        }
        assert!(stream_predictor_for("magic:3").is_err());
        assert!(stream_predictor_for("fcm:12").is_err());
    }

    #[test]
    fn eval_streaming_reports_same_lines_as_eval() {
        let dir = std::env::temp_dir().join("dfcm_tools_stream_eval_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("li.trc");
        generate("li", 4000, &path, 7).unwrap();
        let specs: Vec<String> = ["lvp:8", "stride:8", "fcm:8:10", "dfcm:8:10"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let engine = EngineConfig::default();
        let (classic, _) = eval(&path, &specs, &engine).unwrap();
        let (streamed, report) = eval_streaming(&path, &specs, &engine).unwrap();
        // Identical per-spec result lines (headers differ), in spec order.
        let body = |s: &str| s.lines().skip(1).map(str::to_owned).collect::<Vec<_>>();
        assert_eq!(body(&streamed), body(&classic));
        assert!(report.all_ok());
        // One task, records = trace.len() × lanes.
        assert_eq!(report.tasks.len(), 1);
        assert_eq!(report.tasks[0].records, 4000 * 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eval_streaming_rejects_bad_specs_before_running() {
        let dir = std::env::temp_dir().join("dfcm_tools_stream_badspec_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trc");
        generate("li", 100, &path, 1).unwrap();
        let e = eval_streaming(&path, &["nope:1".to_owned()], &EngineConfig::default());
        assert!(e.is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eval_streaming_fails_a_too_short_trace_without_retrying() {
        // Three bytes cannot hold the magic: the file is corrupt, which no
        // retry heals, so the task fails on its first attempt.
        let dir = std::env::temp_dir().join("dfcm_tools_stream_short_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.trc");
        std::fs::write(&path, b"DFC").unwrap();
        let (out, report) =
            eval_streaming(&path, &["lvp:10".to_owned()], &EngineConfig::default()).unwrap();
        assert!(out.contains("FAILED"), "{out}");
        assert_eq!(report.tasks[0].attempts, 1, "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn bench_doc(speedup: f64) -> String {
        let result = |kind: &str, path: &str| {
            format!(
                r#"{{"predictor":"{kind}(2^16)","kind":"{kind}","path":"{path}","records":100000,"seconds":0.5,"predictions_per_sec":200000.0}}"#
            )
        };
        let results: Vec<String> = ["lvp", "stride", "fcm", "dfcm"]
            .iter()
            .flat_map(|k| [result(k, "dyn"), result(k, "stream")])
            .collect();
        format!(
            r#"{{"schema":"dfcm-bench-throughput/v1","mode":"quick","records":100000,
               "machine":{{"os":"linux","arch":"x86_64","threads":8}},
               "results":[{}],
               "aggregate":{{"configs":16,"baseline_dyn_seconds":2.0,"stream_seconds":0.5,"speedup":{speedup}}}}}"#,
            results.join(",")
        )
    }

    #[test]
    fn bench_check_accepts_valid_artifact() {
        let path = std::env::temp_dir().join("dfcm_tools_bench_ok.json");
        std::fs::write(&path, bench_doc(4.0)).unwrap();
        let out = bench_check(&path).unwrap();
        assert!(out.contains("OK"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bench_check_rejects_schema_violations() {
        let dir = std::env::temp_dir().join("dfcm_tools_bench_bad");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Inconsistent speedup.
        let p1 = dir.join("speedup.json");
        std::fs::write(&p1, bench_doc(9.0)).unwrap();
        assert!(bench_check(&p1)
            .unwrap_err()
            .to_string()
            .contains("speedup"));
        // Missing stream coverage for dfcm.
        let p2 = dir.join("coverage.json");
        std::fs::write(
            &p2,
            bench_doc(4.0).replace(
                r#""kind":"dfcm","path":"stream""#,
                r#""kind":"dfcm","path":"dyn""#,
            ),
        )
        .unwrap();
        assert!(bench_check(&p2).unwrap_err().to_string().contains("dfcm"));
        // Not JSON at all.
        let p3 = dir.join("garbage.json");
        std::fs::write(&p3, "not json").unwrap();
        assert!(bench_check(&p3).is_err());
        // Wrong schema tag.
        let p4 = dir.join("tag.json");
        std::fs::write(
            &p4,
            bench_doc(4.0).replace("throughput/v1", "throughput/v9"),
        )
        .unwrap();
        assert!(bench_check(&p4).unwrap_err().to_string().contains("schema"));
        // Missing sweep config count.
        let p5 = dir.join("configs.json");
        std::fs::write(&p5, bench_doc(4.0).replace(r#""configs":16,"#, "")).unwrap();
        assert!(bench_check(&p5)
            .unwrap_err()
            .to_string()
            .contains("configs"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn serve_bench_doc() -> String {
        r#"{"schema":"dfcm-bench-serve/v1","clients":2,"requests":400,
            "acked":400,"failed":0,"corrupted":0,"verified":400,
            "elapsed_s":0.5,"throughput_rps":800.0,
            "p50_us":40,"p99_us":900,"max_us":1500}"#
            .to_owned()
    }

    #[test]
    fn bench_check_accepts_valid_serve_artifact() {
        let path = std::env::temp_dir().join("dfcm_tools_bench_serve_ok.json");
        std::fs::write(&path, serve_bench_doc()).unwrap();
        let out = bench_check(&path).unwrap();
        assert!(out.contains("OK"), "{out}");
        assert!(out.contains("dfcm-bench-serve/v1"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bench_check_rejects_serve_schema_violations() {
        let dir = std::env::temp_dir().join("dfcm_tools_bench_serve_bad");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let reject = |name: &str, doc: String, needle: &str| {
            let path = dir.join(name);
            std::fs::write(&path, doc).unwrap();
            let msg = bench_check(&path).unwrap_err().to_string();
            assert!(msg.contains(needle), "{name}: {msg}");
        };
        // A corrupted acknowledgement is a hard failure.
        reject(
            "corrupted.json",
            serve_bench_doc().replace(r#""corrupted":0"#, r#""corrupted":1"#),
            "corrupted",
        );
        // Requests must be fully accounted for by acked + failed.
        reject(
            "unaccounted.json",
            serve_bench_doc().replace(r#""acked":400"#, r#""acked":399"#),
            "unaccounted",
        );
        // Percentiles must be ordered.
        reject(
            "percentiles.json",
            serve_bench_doc().replace(r#""p50_us":40"#, r#""p50_us":4000"#),
            "out of order",
        );
        // Verification cannot exceed acknowledgements.
        reject(
            "verified.json",
            serve_bench_doc().replace(r#""verified":400"#, r#""verified":401"#),
            "exceeds",
        );
        // Missing counter field.
        reject(
            "missing.json",
            serve_bench_doc().replace(r#""failed":0,"#, ""),
            "failed",
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn vm_bench_doc() -> String {
        let kernels: Vec<String> = dfcm_vm::programs::all()
            .into_iter()
            .map(|(name, _)| {
                format!(
                    r#"{{"kernel":"{name}","instructions":500000,
                        "interp_seconds":0.8,"interp_ips":625000.0,
                        "fast_seconds":0.05,"fast_ips":10000000.0,"speedup":16.0,
                        "fused_fraction":0.4,"replay_fraction":0.9}}"#
                )
            })
            .collect();
        format!(
            r#"{{"schema":"dfcm-bench-vm/v1","mode":"quick","records":500000,
               "machine":{{"os":"linux","arch":"x86_64","threads":8}},
               "equivalent":true,
               "kernels":[{}],
               "aggregate":{{"kernels":{},"min_speedup":16.0,"geomean_speedup":16.0,"max_speedup":16.0}}}}"#,
            kernels.join(","),
            dfcm_vm::programs::all().len()
        )
    }

    #[test]
    fn bench_check_accepts_valid_vm_artifact() {
        let path = std::env::temp_dir().join("dfcm_tools_bench_vm_ok.json");
        // Unknown fields must be ignored, like the other validators.
        let doc = vm_bench_doc().replace(
            r#""mode":"quick""#,
            r#""mode":"quick","future_field":{"nested":1}"#,
        );
        std::fs::write(&path, doc).unwrap();
        let out = bench_check(&path).unwrap();
        assert!(out.contains("OK"), "{out}");
        assert!(out.contains("dfcm-bench-vm/v1"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bench_check_rejects_vm_schema_violations() {
        let dir = std::env::temp_dir().join("dfcm_tools_bench_vm_bad");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let reject = |name: &str, doc: String, needle: &str| {
            let path = dir.join(name);
            std::fs::write(&path, doc).unwrap();
            let msg = bench_check(&path).unwrap_err().to_string();
            assert!(msg.contains(needle), "{name}: {msg}");
        };
        // A bundled kernel dropped from the artifact.
        reject(
            "missing_kernel.json",
            vm_bench_doc().replace(r#""kernel":"sieve""#, r#""kernel":"sievex""#),
            "`sieve` missing",
        );
        // Non-equivalent tiers invalidate the whole measurement.
        reject(
            "divergent.json",
            vm_bench_doc().replace(r#""equivalent":true"#, r#""equivalent":false"#),
            "different traces",
        );
        // Rates must be positive.
        reject(
            "rate.json",
            vm_bench_doc().replace(r#""fast_ips":10000000.0"#, r#""fast_ips":0.0"#),
            "fast_ips",
        );
        // Speedup must match the measured seconds.
        reject(
            "speedup.json",
            vm_bench_doc().replace(r#""speedup":16.0"#, r#""speedup":2.0"#),
            "inconsistent",
        );
        // Fractions live in [0, 1].
        reject(
            "fraction.json",
            vm_bench_doc().replace(r#""replay_fraction":0.9"#, r#""replay_fraction":1.5"#),
            "replay_fraction",
        );
        // Aggregate speedups must be ordered.
        reject(
            "aggregate.json",
            vm_bench_doc().replace(r#""min_speedup":16.0"#, r#""min_speedup":99.0"#),
            "ordered",
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn trace_bench_doc() -> String {
        r#"{"schema":"dfcm-bench-trace/v1","mode":"quick","records":640000,
           "machine":{"os":"linux","arch":"x86_64","threads":8},
           "suite":[
             {"name":"cc1","records":80000,"v2_bytes":350000,"v3_bytes":120000,
              "v2_bits_record":35.0,"v3_bits_record":12.0,
              "encode_mb_s":60.0,"decode_mb_s":150.0},
             {"name":"li","records":80000,"v2_bytes":340000,"v3_bytes":100000,
              "v2_bits_record":34.0,"v3_bits_record":10.0,
              "encode_mb_s":70.0,"decode_mb_s":180.0}],
           "aggregate":{"v2_bits_record":34.5,"v3_bits_record":11.0,
             "ratio_vs_v2":3.136,"encode_mb_s":65.0,"decode_mb_s":165.0,
             "v2_stream_pred_s":23000000.0,"v3_stream_pred_s":10000000.0,
             "stream_ratio":0.435,"stream_threads":4}}"#
            .to_owned()
    }

    #[test]
    fn bench_check_accepts_valid_trace_artifact() {
        let path = std::env::temp_dir().join("dfcm_tools_bench_trace_ok.json");
        // Unknown fields must be ignored, like the other validators.
        let doc = trace_bench_doc().replace(
            r#""mode":"quick""#,
            r#""mode":"quick","future_field":{"nested":1}"#,
        );
        std::fs::write(&path, doc).unwrap();
        let out = bench_check(&path).unwrap();
        assert!(out.contains("OK"), "{out}");
        assert!(
            out.contains("dfcm-bench-trace/v1, 2 suite trace(s)"),
            "{out}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bench_check_rejects_trace_schema_violations() {
        let dir = std::env::temp_dir().join("dfcm_tools_bench_trace_bad");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let reject = |name: &str, doc: String, needle: &str| {
            let path = dir.join(name);
            std::fs::write(&path, doc).unwrap();
            let msg = bench_check(&path).unwrap_err().to_string();
            assert!(msg.contains(needle), "{name}: {msg}");
        };
        // A suite trace over the per-benchmark density gate.
        reject(
            "suite_density.json",
            trace_bench_doc().replace(r#""v3_bits_record":12.0"#, r#""v3_bits_record":17.0"#),
            "density gate",
        );
        // Aggregate density over its (tighter) gate. Keep ratio_vs_v2
        // consistent so only the gate itself fires.
        reject(
            "agg_density.json",
            trace_bench_doc()
                .replace(r#""v3_bits_record":11.0"#, r#""v3_bits_record":13.0"#)
                .replace(r#""ratio_vs_v2":3.136"#, r#""ratio_vs_v2":2.654"#),
            "density gate",
        );
        // Aggregate compression ratio under the 2x floor.
        reject(
            "ratio_floor.json",
            trace_bench_doc()
                .replace(r#""v2_bits_record":34.5"#, r#""v2_bits_record":12.0"#)
                .replace(r#""ratio_vs_v2":3.136"#, r#""ratio_vs_v2":1.091"#),
            "compression gate",
        );
        // Ratio inconsistent with its own density fields.
        reject(
            "ratio_consistency.json",
            trace_bench_doc().replace(r#""ratio_vs_v2":3.136"#, r#""ratio_vs_v2":9.0"#),
            "inconsistent",
        );
        // Stream ratio inconsistent with the measured rates.
        reject(
            "stream_consistency.json",
            trace_bench_doc().replace(r#""stream_ratio":0.435"#, r#""stream_ratio":2.0"#),
            "inconsistent",
        );
        // Rates must be positive.
        reject(
            "rate.json",
            trace_bench_doc().replace(r#""decode_mb_s":150.0"#, r#""decode_mb_s":0.0"#),
            "decode_mb_s",
        );
        // Missing suite array.
        reject(
            "no_suite.json",
            {
                let doc = trace_bench_doc();
                let start = doc.find(r#""suite":["#).unwrap();
                let end = doc.find(r#"],"#).unwrap() + 2;
                format!("{}{}", &doc[..start], &doc[end..])
            },
            "suite",
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn vm_profile_reports_opcode_and_pair_histograms() {
        let out = vm_profile("sieve", 200_000).unwrap();
        assert!(out.contains("instruction(s) profiled"), "{out}");
        // Loop-dominated kernels must surface at least one fusible pair.
        assert!(
            out.contains("compare+branch") || out.contains("load+"),
            "{out}"
        );
        assert!(out.contains("superinstruction pattern"), "{out}");
        assert!(vm_profile("nope", 1_000).is_err());
    }

    #[test]
    fn loadgen_artifacts_pass_bench_check() {
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
        opts.bench_out = Some(dir.join("BENCH_serve.json"));
        opts.hist_out = Some(dir.join("latency_hist.jsonl"));
        let out = loadgen(&trace_path, &opts).unwrap();
        assert!(out.contains("acked 600/600"), "{out}");

        // The emitted artifact validates, and the histogram is JSONL.
        let checked = bench_check(&dir.join("BENCH_serve.json")).unwrap();
        assert!(checked.contains("dfcm-bench-serve/v1"), "{checked}");
        let hist = std::fs::read_to_string(dir.join("latency_hist.jsonl")).unwrap();
        assert!(hist.lines().count() > 1);
        for line in hist.lines() {
            dfcm_obs::json::parse(line).unwrap();
        }

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

    fn trend_dirs(tag: &str) -> (PathBuf, PathBuf) {
        let root = std::env::temp_dir().join(format!("dfcm_tools_trend_{tag}"));
        let _ = std::fs::remove_dir_all(&root);
        let current = root.join("current");
        let baseline = root.join("baseline");
        std::fs::create_dir_all(&current).unwrap();
        std::fs::create_dir_all(&baseline).unwrap();
        (current, baseline)
    }

    #[test]
    fn bench_trend_passes_on_identical_artifacts() {
        let (current, baseline) = trend_dirs("identical");
        for dir in [&current, &baseline] {
            std::fs::write(dir.join("BENCH_throughput.json"), bench_doc(4.0)).unwrap();
            std::fs::write(dir.join("BENCH_vm.json"), vm_bench_doc()).unwrap();
            std::fs::write(dir.join("BENCH_trace.json"), trace_bench_doc()).unwrap();
            std::fs::write(dir.join("BENCH_serve.json"), serve_bench_doc()).unwrap();
        }
        let out = bench_trend(&current, &baseline, 10.0, false).unwrap();
        assert!(out.contains("0 regression(s)"), "{out}");
        assert!(out.contains("4 artifact(s)"), "{out}");
        let _ = std::fs::remove_dir_all(current.parent().unwrap());
    }

    #[test]
    fn bench_trend_flags_injected_regressions_in_both_directions() {
        let (current, baseline) = trend_dirs("regressed");
        std::fs::write(baseline.join("BENCH_throughput.json"), bench_doc(4.0)).unwrap();
        // Throughput (higher-is-better) drops 40%.
        std::fs::write(
            current.join("BENCH_throughput.json"),
            bench_doc(4.0).replace(
                r#""predictions_per_sec":200000.0"#,
                r#""predictions_per_sec":120000.0"#,
            ),
        )
        .unwrap();
        // Trace density (lower-is-better) grows past the threshold.
        std::fs::write(baseline.join("BENCH_trace.json"), trace_bench_doc()).unwrap();
        std::fs::write(
            current.join("BENCH_trace.json"),
            trace_bench_doc().replace(r#""v3_bits_record":11.0"#, r#""v3_bits_record":13.0"#),
        )
        .unwrap();

        let msg = bench_trend(&current, &baseline, 10.0, false)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("predictions_per_sec"), "{msg}");
        assert!(msg.contains("aggregate.v3_bits_record"), "{msg}");
        assert!(msg.contains("REGRESSED"), "{msg}");

        // Report-only mode reports the same regressions but succeeds.
        let out = bench_trend(&current, &baseline, 10.0, true).unwrap();
        assert!(out.contains("REGRESSED"), "{out}");
        assert!(out.contains("report-only"), "{out}");

        // A generous threshold absorbs the drift.
        assert!(bench_trend(&current, &baseline, 60.0, false).is_ok());
        let _ = std::fs::remove_dir_all(current.parent().unwrap());
    }

    #[test]
    fn bench_trend_tolerates_missing_baselines_but_not_missing_currents() {
        let (current, baseline) = trend_dirs("missing");
        // Serve artifact exists only in the current run: skipped, not a
        // failure (BENCH_serve.json is CI-only at the repo root).
        std::fs::write(current.join("BENCH_throughput.json"), bench_doc(4.0)).unwrap();
        std::fs::write(baseline.join("BENCH_throughput.json"), bench_doc(4.0)).unwrap();
        std::fs::write(current.join("BENCH_serve.json"), serve_bench_doc()).unwrap();
        let out = bench_trend(&current, &baseline, 10.0, false).unwrap();
        assert!(out.contains("no baseline"), "{out}");

        // An artifact that vanished from the current run is a regression.
        std::fs::write(baseline.join("BENCH_vm.json"), vm_bench_doc()).unwrap();
        let msg = bench_trend(&current, &baseline, 10.0, false)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("missing from the current run"), "{msg}");
        assert!(bench_trend(&current, &baseline, 10.0, true).is_ok());

        // Nothing to compare at all is an error, not a silent pass.
        let (empty_cur, empty_base) = trend_dirs("empty");
        assert!(bench_trend(&empty_cur, &empty_base, 10.0, false).is_err());
        let _ = std::fs::remove_dir_all(current.parent().unwrap());
        let _ = std::fs::remove_dir_all(empty_cur.parent().unwrap());
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
