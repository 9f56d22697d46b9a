//! `dfcm-repro` — regenerates every table and figure of the paper's
//! evaluation.
//!
//! ```text
//! dfcm-repro <experiment> [--seed N] [--scale F] [--full] [--out DIR]
//!                         [--threads N] [--progress] [--resume] [--traces DIR]
//!                         [--strict] [--obs DIR]
//!
//! experiments:
//!   table1   benchmark descriptions and trace statistics
//!   fig3     LVP / stride / FCM accuracy vs size
//!   fig4_8   worked example: stride pattern in FCM vs DFCM level-2 table
//!   fig6_9   stride accesses per level-2 entry (norm, queens, li)
//!   fig10a   FCM vs DFCM accuracy across level-2 sizes
//!   fig10b   per-benchmark FCM vs DFCM at 2^16/2^12
//!   fig11a   DFCM accuracy vs total size
//!   fig11b   FCM and DFCM Pareto fronts
//!   fig12    accuracy per aliasing class (FCM)
//!   fig13    aliasing-class fractions, all predictions
//!   fig14    aliasing-class fractions, mispredictions
//!   fig16    hybrids with a perfect meta-predictor
//!   fig17    delayed update
//!   sec4_4   partial-width difference storage
//!   tags     extension: §4.2's suggested tagged confidence estimator
//!   related  §5 comparison: dynamic classification and last-n predictors
//!   ideal    extension: accuracy loss vs collision-free oracle tables
//!   speedup  extension: first-order speculation benefit model
//!   vmbench  extension: FCM vs DFCM on the real VM kernels
//!   phases   extension: sensitivity to program phase changes
//!   specupdate extension: speculative history update under delay
//!   order    ablation: history order via the FS R-k hash family
//!   all      everything above except order, which runs only on its own
//!
//! options:
//!   --seed N    workload seed (default 12345)
//!   --scale F   trace length scale; 1.0 = paper counts / 100 (default 0.1)
//!   --full      extend table sweeps to the paper's 2^18 and 2^20
//!   --out DIR   CSV output directory (default results/)
//!   --threads N engine worker threads; 0 = one per hardware thread (default 0)
//!   --progress  print engine task progress on stderr
//!   --resume    checkpoint completed tasks under `<out>/checkpoints/<suite>/`
//!               and skip tasks a previous interrupted run of the same
//!               suite already completed; the merged output is
//!               byte-identical to an uninterrupted run
//!   --traces DIR  load suite traces from `<DIR>/<benchmark>.trc` (as written
//!               by `dfcm-tools gen`) instead of regenerating them; damaged
//!               files are salvaged chunk-by-chunk with a warning
//!   --strict    with --traces: refuse any damaged or truncated trace file
//!               outright instead of salvaging it
//!   --obs DIR   record observability (engine spans, metrics, aliasing
//!               counters) and write events.jsonl, trace.json (Perfetto)
//!               and metrics.prom into DIR at the end of the run; render
//!               with `dfcm-tools obs summarize DIR`
//!
//! Every experiment that evaluates predictors over a suite runs on the
//! engine: it honours --threads, --progress and --resume, and writes run
//! metrics as JSON lines under `<out>/metrics/<experiment>.jsonl`. The
//! per-record analyses (fig4_8, fig6_9, fig12-14, tags, phases) run
//! serially and write no metrics file. One run evaluates each (spec,
//! benchmark) pair and each fig12-14 alias pass once, so an experiment's
//! metrics list only the tasks that no earlier experiment of the run
//! already ran.
//! ```

use std::process::ExitCode;

use dfcm_repro::common::Options;
use dfcm_repro::experiments::EXPERIMENTS;

/// The usage line, naming every experiment of [`EXPERIMENTS`] and `all`.
fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
    format!(
        "usage: dfcm-repro <{}|all> [--seed N] [--scale F] [--full] [--out DIR] [--threads N] \
         [--progress] [--resume] [--traces DIR] [--strict] [--obs DIR]",
        names.join("|")
    )
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                opts.scale = v.parse().map_err(|_| format!("bad scale `{v}`"))?;
                if !(opts.scale.is_finite() && opts.scale > 0.0) {
                    return Err(format!("scale must be finite and positive, got `{v}`"));
                }
            }
            "--full" => opts.full = true,
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                opts.out_dir = v.into();
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                opts.threads = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
            }
            "--progress" => opts.progress = true,
            "--resume" => opts.resume = true,
            "--traces" => {
                let v = it.next().ok_or("--traces needs a directory")?;
                opts.trace_dir = Some(v.into());
            }
            "--strict" => opts.strict = true,
            "--obs" => {
                let v = it.next().ok_or("--obs needs a directory")?;
                opts.obs_dir = Some(v.into());
                opts.obs = dfcm_obs::Obs::enabled();
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

/// Runs the experiment `name`, or every one `all` runs, in table order;
/// false if there is none of that name.
fn dispatch(name: &str, opts: &Options) -> bool {
    let mut ran = false;
    for (exp, run, in_all) in EXPERIMENTS {
        let selected = if name == "all" { in_all } else { exp == name };
        if selected {
            run(opts);
            ran = true;
        }
    }
    ran
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let opts = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "dfcm-repro: seed={} scale={} sweeps up to L2=2^{}  (CSV -> {})",
        opts.seed,
        opts.scale,
        if opts.full { 20 } else { 16 },
        opts.out_dir.display()
    );
    if dispatch(name, &opts) {
        opts.emit_obs();
        ExitCode::SUCCESS
    } else {
        eprintln!("error: unknown experiment `{name}`");
        eprintln!("{}", usage());
        ExitCode::FAILURE
    }
}
