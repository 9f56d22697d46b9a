//! `dfcm-tools` — command-line front end; see the library crate for the
//! implementation of each subcommand.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  dfcm-tools gen <workload> <records> <out.trc> [--seed N] [--format v1|v2|v3]
             (--format picks the trace encoding — v2, the default, is the
              CRC-framed format, v3 adds per-chunk compression and is
              written streaming, so record counts beyond memory are fine)
  dfcm-tools stats <trace.trc>
  dfcm-tools eval <trace.trc> <predictor>... [--threads N] [--progress]
             [--metrics FILE] [--obs DIR] [--retries N]
             [--inject-faults SEED[:PANIC[:TRANSIENT[:DELAY]]]] [--strict]
             (predictors: lvp:B | stride:B | 2delta:B | fcm:L1:L2 | dfcm:L1:L2;
              the trace streams off the file in bounded memory, any format;
              the predictors split into min(threads, predictors) sets that
              each stream it once on threads/sets decode threads;
              --threads 0 = one per hardware thread; --metrics writes engine JSONL;
              --obs enables table-usage/aliasing observability and writes
              events.jsonl, trace.json (Perfetto) and metrics.prom into DIR;
              --retries sets attempts per task for transient failures;
              --inject-faults injects deterministic faults at permille rates, for
              testing recovery; failed tasks are reported and, with --strict,
              make the command exit nonzero)
  dfcm-tools trace inspect <trace.trc>
  dfcm-tools trace verify <trace.trc>
  dfcm-tools trace salvage <trace.trc> --output <out.trc>
  dfcm-tools trace compress <trace.trc> --output <out.trc> [--format v1|v2|v3]
             (inspect: header, chunk map, CRC status and, for v3,
              compressed density; verify: exit nonzero on any corruption;
              salvage: recover intact chunks into a fresh file — v3 input
              re-emits v3 — and report what was dropped; compress:
              re-encode a trace into another format, v3 by default)
  dfcm-tools obs summarize <dir> [--check]
             (table-usage report for an --obs export directory; --check
              validates all three export files and exits nonzero on any
              malformed or inconsistent export)
  dfcm-tools obs report <dir> [--check]
             (windowed phase report from the directory's series.jsonl:
              per-lane accuracy/miss sparklines, alias-class miss mix and
              the top-K hard-to-predict PC table; --check validates the
              series stream and cross-reconciles it against the aggregate
              metrics, exiting nonzero on any disagreement)
  dfcm-tools serve <addr> <predictor> [--snapshot FILE] [--max-sessions N]
             [--workers N] [--queue N] [--deadline-ms N] [--idle-ms N]
             (runs the prediction daemon until SIGTERM/SIGINT, then drains
              in-flight requests and writes a crash-consistent snapshot;
              --snapshot is also restored, salvage-style, at startup;
              --queue caps live connections — beyond it new connections are
              shed with an explicit Overloaded reply)
  dfcm-tools loadgen <trace.trc> <addr> <predictor> [--clients N]
             [--session-base N] [--inject-faults SEED[:P[:T[:D]]]]
             [--strict] [--hist-out FILE]
             (replays the trace as N concurrent sessions, verifying every
              acknowledged reply against a local shadow predictor;
              --inject-faults adds deterministic chaos — connection drops,
              corrupt frames, slow-loris stalls — at permille rates;
              corrupted acknowledgements always exit nonzero, unacked
              requests only under --strict; zero clients, an empty trace
              or a panicked client thread is an error; --hist-out writes
              the latency histogram as JSONL)
  dfcm-tools scrape <addr>
             (fetches a running daemon's metrics as Prometheus text:
              rolling-window latency quantiles, live per-spec session
              counts and, on instrumented daemons, the full obs registry;
              read-only, safe under load)
  dfcm-tools disasm <kernel>
  dfcm-tools profile <kernel> [max_steps]
  dfcm-tools kernels
  dfcm-tools benchmarks";

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return Err(USAGE.to_owned());
    };
    match command.as_str() {
        "gen" => {
            let mut rest = rest.to_vec();
            let mut seed = 12345u64;
            if let Some(pos) = rest.iter().position(|a| a == "--seed") {
                let value = rest
                    .get(pos + 1)
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "bad seed".to_owned())?;
                seed = value;
                rest.drain(pos..=pos + 1);
            }
            let mut format_spec: Option<String> = None;
            if let Some(pos) = rest.iter().position(|a| a == "--format") {
                format_spec = Some(rest.get(pos + 1).ok_or("--format needs a value")?.clone());
                rest.drain(pos..=pos + 1);
            }
            let [workload, records, out] = rest.as_slice() else {
                return Err(USAGE.to_owned());
            };
            let records: usize = records.parse().map_err(|_| "bad record count".to_owned())?;
            let format = match format_spec {
                Some(spec) => {
                    dfcm_tools::parse_trace_format(&spec, seed).map_err(|e| e.to_string())?
                }
                None => dfcm_trace::TraceFormat::V2 { seed },
            };
            dfcm_tools::generate_formatted(workload, records, &PathBuf::from(out), seed, format)
                .map_err(|e| e.to_string())
        }
        "stats" => {
            let [path] = rest else {
                return Err(USAGE.to_owned());
            };
            dfcm_tools::stats(&PathBuf::from(path)).map_err(|e| e.to_string())
        }
        "eval" => {
            let mut rest = rest.to_vec();
            let mut engine = dfcm_sim::EngineConfig::default();
            let mut metrics_path: Option<PathBuf> = None;
            if let Some(pos) = rest.iter().position(|a| a == "--threads") {
                engine.threads = rest
                    .get(pos + 1)
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|_| "bad thread count".to_owned())?;
                rest.drain(pos..=pos + 1);
            }
            if let Some(pos) = rest.iter().position(|a| a == "--progress") {
                engine.progress = true;
                rest.remove(pos);
            }
            if let Some(pos) = rest.iter().position(|a| a == "--metrics") {
                metrics_path = Some(PathBuf::from(
                    rest.get(pos + 1).ok_or("--metrics needs a value")?,
                ));
                rest.drain(pos..=pos + 1);
            }
            let mut obs_dir: Option<PathBuf> = None;
            if let Some(pos) = rest.iter().position(|a| a == "--obs") {
                obs_dir = Some(PathBuf::from(
                    rest.get(pos + 1).ok_or("--obs needs a value")?,
                ));
                engine.obs = dfcm_obs::Obs::enabled();
                rest.drain(pos..=pos + 1);
            }
            if let Some(pos) = rest.iter().position(|a| a == "--retries") {
                engine.retry.max_attempts = rest
                    .get(pos + 1)
                    .ok_or("--retries needs a value")?
                    .parse()
                    .map_err(|_| "bad retry count".to_owned())?;
                rest.drain(pos..=pos + 1);
            }
            if let Some(pos) = rest.iter().position(|a| a == "--inject-faults") {
                let spec = rest.get(pos + 1).ok_or("--inject-faults needs a value")?;
                engine.faults = Some(dfcm_sim::FaultPlan::parse(spec)?);
                rest.drain(pos..=pos + 1);
            }
            let mut strict = false;
            if let Some(pos) = rest.iter().position(|a| a == "--strict") {
                strict = true;
                rest.remove(pos);
            }
            let Some((path, specs)) = rest.split_first() else {
                return Err(USAGE.to_owned());
            };
            if specs.is_empty() {
                return Err(USAGE.to_owned());
            }
            let (out, report) = dfcm_tools::eval(&PathBuf::from(path), specs, &engine)
                .map_err(|e| e.to_string())?;
            if let Some(metrics_path) = metrics_path {
                report
                    .write_jsonl(&metrics_path)
                    .map_err(|e| format!("writing {}: {e}", metrics_path.display()))?;
            }
            if let Some(obs_dir) = obs_dir {
                engine
                    .obs
                    .write_exports(&obs_dir)
                    .map_err(|e| format!("writing {}: {e}", obs_dir.display()))?;
            }
            if strict && !report.all_ok() {
                let failed: Vec<&str> = report.failures().map(|t| t.label.as_str()).collect();
                return Err(format!(
                    "{out}\nerror: {} task(s) failed under --strict: {}",
                    failed.len(),
                    failed.join(", ")
                ));
            }
            Ok(out)
        }
        "obs" => match rest {
            [sub, dir] if sub == "summarize" => {
                dfcm_tools::obs_summarize(&PathBuf::from(dir), false).map_err(|e| e.to_string())
            }
            [sub, dir, flag] if sub == "summarize" && flag == "--check" => {
                dfcm_tools::obs_summarize(&PathBuf::from(dir), true).map_err(|e| e.to_string())
            }
            [sub, dir] if sub == "report" => {
                dfcm_tools::obs_report(&PathBuf::from(dir), false).map_err(|e| e.to_string())
            }
            [sub, dir, flag] if sub == "report" && flag == "--check" => {
                dfcm_tools::obs_report(&PathBuf::from(dir), true).map_err(|e| e.to_string())
            }
            _ => Err(USAGE.to_owned()),
        },
        "trace" => match rest {
            [sub, path] if sub == "inspect" => {
                dfcm_tools::trace_inspect(&PathBuf::from(path)).map_err(|e| e.to_string())
            }
            [sub, path] if sub == "verify" => {
                dfcm_tools::trace_verify(&PathBuf::from(path)).map_err(|e| e.to_string())
            }
            [sub, path, flag, out] if sub == "salvage" && flag == "--output" => {
                dfcm_tools::trace_salvage(&PathBuf::from(path), &PathBuf::from(out))
                    .map_err(|e| e.to_string())
            }
            [sub, path, flag, out] if sub == "compress" && flag == "--output" => {
                dfcm_tools::trace_compress(&PathBuf::from(path), &PathBuf::from(out), None)
                    .map_err(|e| e.to_string())
            }
            [sub, path, flag, out, fmt_flag, fmt]
                if sub == "compress" && flag == "--output" && fmt_flag == "--format" =>
            {
                dfcm_tools::trace_compress(&PathBuf::from(path), &PathBuf::from(out), Some(fmt))
                    .map_err(|e| e.to_string())
            }
            _ => Err(USAGE.to_owned()),
        },
        "serve" => {
            let mut rest = rest.to_vec();
            let mut take_value = |flag: &str| -> Result<Option<String>, String> {
                match rest.iter().position(|a| a == flag) {
                    Some(pos) => {
                        let value = rest
                            .get(pos + 1)
                            .cloned()
                            .ok_or_else(|| format!("{flag} needs a value"))?;
                        rest.drain(pos..=pos + 1);
                        Ok(Some(value))
                    }
                    None => Ok(None),
                }
            };
            let snapshot = take_value("--snapshot")?;
            let max_sessions = take_value("--max-sessions")?;
            let workers = take_value("--workers")?;
            let queue = take_value("--queue")?;
            let deadline_ms = take_value("--deadline-ms")?;
            let idle_ms = take_value("--idle-ms")?;
            let [addr, spec] = rest.as_slice() else {
                return Err(USAGE.to_owned());
            };
            let mut opts = dfcm_tools::ServeOpts::new(addr, spec);
            opts.snapshot = snapshot.map(PathBuf::from);
            let parsed = |v: Option<String>, what: &str| -> Result<Option<u64>, String> {
                v.map(|s| s.parse().map_err(|_| format!("bad {what}")))
                    .transpose()
            };
            if let Some(n) = parsed(max_sessions, "--max-sessions")? {
                opts.limits.max_sessions = n as usize;
            }
            if let Some(n) = parsed(workers, "--workers")? {
                opts.limits.workers = n as usize;
            }
            if let Some(n) = parsed(queue, "--queue")? {
                opts.limits.queue_depth = n as usize;
            }
            if let Some(n) = parsed(deadline_ms, "--deadline-ms")? {
                opts.limits.request_deadline = std::time::Duration::from_millis(n);
            }
            if let Some(n) = parsed(idle_ms, "--idle-ms")? {
                opts.limits.idle_timeout = std::time::Duration::from_millis(n);
            }
            dfcm_tools::serve(&opts).map_err(|e| e.to_string())
        }
        "loadgen" => {
            let mut rest = rest.to_vec();
            let mut take_value = |flag: &str| -> Result<Option<String>, String> {
                match rest.iter().position(|a| a == flag) {
                    Some(pos) => {
                        let value = rest
                            .get(pos + 1)
                            .cloned()
                            .ok_or_else(|| format!("{flag} needs a value"))?;
                        rest.drain(pos..=pos + 1);
                        Ok(Some(value))
                    }
                    None => Ok(None),
                }
            };
            let clients = take_value("--clients")?;
            let session_base = take_value("--session-base")?;
            let faults = take_value("--inject-faults")?;
            let hist_out = take_value("--hist-out")?;
            let strict = if let Some(pos) = rest.iter().position(|a| a == "--strict") {
                rest.remove(pos);
                true
            } else {
                false
            };
            let [trace, addr, spec] = rest.as_slice() else {
                return Err(USAGE.to_owned());
            };
            let mut opts = dfcm_tools::LoadGenOpts::new(addr, spec);
            if let Some(n) = clients {
                opts.clients = n.parse().map_err(|_| "bad --clients".to_owned())?;
            }
            if let Some(n) = session_base {
                opts.session_base = n.parse().map_err(|_| "bad --session-base".to_owned())?;
            }
            opts.faults = faults;
            opts.strict = strict;
            opts.hist_out = hist_out.map(PathBuf::from);
            dfcm_tools::loadgen(&PathBuf::from(trace), &opts).map_err(|e| e.to_string())
        }
        "scrape" => {
            let [addr] = rest else {
                return Err(USAGE.to_owned());
            };
            dfcm_tools::scrape(addr).map_err(|e| e.to_string())
        }
        "disasm" => {
            let [kernel] = rest else {
                return Err(USAGE.to_owned());
            };
            dfcm_tools::disasm(kernel).map_err(|e| e.to_string())
        }
        "profile" => {
            let (kernel, max_steps) = match rest {
                [kernel] => (kernel, 50_000_000),
                [kernel, steps] => (
                    kernel,
                    steps.parse().map_err(|_| "bad step count".to_owned())?,
                ),
                _ => return Err(USAGE.to_owned()),
            };
            dfcm_tools::profile(kernel, max_steps).map_err(|e| e.to_string())
        }
        "kernels" => Ok(dfcm_tools::kernels()),
        "benchmarks" => Ok(dfcm_tools::benchmarks()),
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(output) => {
            println!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
