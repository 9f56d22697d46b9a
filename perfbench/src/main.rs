//! `perfbench`: the compiled half of the repository benchmark. The
//! driver, `perfbench/run.py`, calls it; each subcommand writes one JSON
//! object to the file named by `--out`:
//!
//! ```text
//! perfbench setup  --workload W --seed N --scale F --dir D --reps K --seconds T
//!                  --threads N --out FILE
//! perfbench stream --workload W --dir D --seconds T --trace 0|1 --threads N --out FILE
//!                  [--obs DIR]
//! perfbench repro-trace --seed N --scale F --threads N --dir D --seconds T
//!                       --out FILE --obs DIR
//! ```
//!
//! `setup` generates the synthetic suite, writes the workload's input
//! (a trace file for `stream-v3`/`sweep-v2`) and the reference the timed
//! reps are checked against; each of `--threads` threads makes timed
//! set-ups, at least `--reps` and for at least `--seconds`. `stream`
//! times whole-file streaming reps on each of `--threads` threads at
//! once; with `--trace 1` it instead times them on one thread and then
//! repeats them with every layer call timed from here. `repro-trace` runs every `dfcm-repro all` experiment in-process,
//! timing each, plus probes of the layers the figures use. Spans are
//! recorded only around calls into the libraries' public functions.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::hint::black_box;
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

use dfcm::{DfcmPredictor, FcmPredictor, ValuePredictor};
use dfcm_obs::Obs;
use dfcm_repro::common::Options;
use dfcm_repro::experiments;
use dfcm_sim::report::{fmt_accuracy, TextTable};
use dfcm_sim::{
    simulate_trace, stream_records_with, stream_trace, stream_v2_file, stream_v3_file,
    sweep_engine_ft, EngineConfig, EngineReport, RunStats, StreamPredictor,
};
use dfcm_trace::compress::decompress;
use dfcm_trace::crc::crc32;
use dfcm_trace::suite::standard_traces;
use dfcm_trace::{
    BenchmarkTrace, RawChunk, Trace, TraceFormat, TraceRecord, V2ChunkReader, V3ChunkReader,
    V3RawChunk,
};
use dfcm_vm::Tier;

/// `sweep-v2`'s lanes: the 16-configuration table-size sweep, grouped by
/// predictor kind in [`KINDS`] order.
const SWEEP_LANES: [&str; 16] = [
    "lvp:10",
    "lvp:12",
    "lvp:14",
    "lvp:16",
    "stride:10",
    "stride:12",
    "stride:14",
    "stride:16",
    "fcm:16:8",
    "fcm:16:10",
    "fcm:16:12",
    "fcm:16:14",
    "dfcm:16:8",
    "dfcm:16:10",
    "dfcm:16:12",
    "dfcm:16:14",
];

/// `stream-v3`'s single lane.
const V3_LANES: [&str; 1] = ["dfcm:16:12"];

/// Predictor kinds, in lane-group order; also the `sim.lanes.*` and
/// `core.dyn.*` metric names.
const KINDS: [&str; 4] = ["lvp", "stride", "fcm", "dfcm"];

/// One configuration per kind for the `core.dyn` probe.
const DYN_SPECS: [&str; 4] = ["lvp:12", "stride:12", "fcm:16:12", "dfcm:16:12"];

/// Timed reps a run makes even when one rep outlasts the time budget.
const MIN_REPS: usize = 3;

/// Untraced reps each thread of a `--trace 0` stream run makes at least.
const UNTRACED_REPS: usize = 20;

/// One `dfcm-repro` experiment: its name and its entry point.
type Experiment = (&'static str, fn(&Options));

/// The experiments `dfcm-repro all` runs, in its order.
const EXPERIMENTS: [Experiment; 21] = [
    ("table1", experiments::table1::run),
    ("fig3", experiments::fig03::run),
    ("fig4_8", experiments::fig04_08::run),
    ("fig6_9", experiments::fig06_09::run),
    ("fig10a", experiments::fig10::run_a),
    ("fig10b", experiments::fig10::run_b),
    ("fig11a", experiments::fig11::run_a),
    ("fig11b", experiments::fig11::run_b),
    ("fig12", experiments::fig12_14::run_fig12),
    ("fig13", experiments::fig12_14::run_fig13),
    ("fig14", experiments::fig12_14::run_fig14),
    ("fig16", experiments::fig16::run),
    ("fig17", experiments::fig17::run),
    ("sec4_4", experiments::sec4_4::run),
    ("tags", experiments::tags::run),
    ("related", experiments::related::run),
    ("ideal", experiments::ideal::run),
    ("speedup", experiments::speedup::run),
    ("vmbench", experiments::vmbench::run),
    ("phases", experiments::phases::run),
    ("specupdate", experiments::specupdate::run),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Repro,
    StreamV3,
    SweepV2,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "repro" => Ok(Workload::Repro),
            "stream-v3" => Ok(Workload::StreamV3),
            "sweep-v2" => Ok(Workload::SweepV2),
            other => Err(format!("unknown workload `{other}`")),
        }
    }

    fn lanes(self) -> &'static [&'static str] {
        match self {
            Workload::Repro => &[],
            Workload::StreamV3 => &V3_LANES,
            Workload::SweepV2 => &SWEEP_LANES,
        }
    }

    /// The trace file the workload streams, inside its work directory.
    fn trace_file(self, dir: &Path) -> PathBuf {
        dir.join(match self {
            Workload::StreamV3 => "suite.v3.trc",
            _ => "suite.v2.trc",
        })
    }

    fn format(self, seed: u64) -> TraceFormat {
        match self {
            Workload::StreamV3 => TraceFormat::V3 { seed },
            _ => TraceFormat::V2 { seed },
        }
    }

    /// Metric-name prefix of the workload's codec layer.
    fn codec(self) -> &'static str {
        match self {
            Workload::StreamV3 => "trace.v3",
            _ => "trace.v2",
        }
    }
}

/// `--key value` pairs after the subcommand.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(rest: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = rest.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected an option, got `{key}`"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            map.insert(name.to_owned(), value.clone());
        }
        Ok(Args(map))
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.get(key)?;
        v.parse().map_err(|_| format!("bad --{key} `{v}`"))
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.get(key).map(PathBuf::from)
    }

    fn seconds(&self) -> Result<Duration, String> {
        let s: f64 = self.num("seconds")?;
        Duration::try_from_secs_f64(s).map_err(|_| format!("bad --seconds `{s}`"))
    }
}

/// A flat JSON object built field by field.
#[derive(Default)]
struct Json(Vec<(String, String)>);

impl Json {
    fn num(&mut self, key: &str, v: f64) {
        let text = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        self.0.push((key.to_owned(), text));
    }

    fn nums(&mut self, key: &str, vs: &[f64]) {
        let items: Vec<String> = vs.iter().map(|v| format!("{v}")).collect();
        self.0
            .push((key.to_owned(), format!("[{}]", items.join(","))));
    }

    fn obj(&mut self, key: &str, inner: Json) {
        self.0.push((key.to_owned(), inner.render()));
    }

    fn render(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", fields.join(","))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: perfbench <setup|stream|repro-trace> --out FILE ...");
        return ExitCode::FAILURE;
    };
    let result = Args::parse(rest).and_then(|a| {
        let json = match cmd.as_str() {
            "setup" => setup(&a),
            "stream" => stream(&a),
            "repro-trace" => repro_trace(&a),
            other => Err(format!("unknown subcommand `{other}`")),
        }?;
        let out = a.path("out")?;
        fs::write(&out, json.render()).map_err(io_err(&out))
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Median of a non-empty sample (mean of the middle pair when even).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of p99/p95/p90/p75/p50 (nearest rank) with at least ten
/// samples above it, as `(percentile, value)`; p50 when none has.
fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for q in [0.99, 0.95, 0.90, 0.75, 0.50] {
        let rank = ((q * n as f64).ceil() as usize).max(1);
        if n - rank >= 10 {
            return (q, v[rank - 1]);
        }
    }
    (0.5, median(&v))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn parse_lanes(specs: &[&str]) -> Result<Vec<StreamPredictor>, String> {
    specs
        .iter()
        .map(|s| StreamPredictor::parse_spec(s).map_err(|e| e.to_string()))
        .collect()
}

/// The core-crate predictor behind a lane spec, boxed for the `dyn`
/// evaluation path.
fn dyn_predictor(spec: &str) -> Result<Box<dyn ValuePredictor>, String> {
    Ok(
        match StreamPredictor::parse_spec(spec).map_err(|e| e.to_string())? {
            StreamPredictor::Lvp(p) => Box::new(p),
            StreamPredictor::Stride(p) => Box::new(p),
            StreamPredictor::TwoDelta(p) => Box::new(p),
            StreamPredictor::Fcm(p) => Box::new(p),
            StreamPredictor::Dfcm(p) => Box::new(p),
        },
    )
}

fn kind_of(spec: &str) -> usize {
    let name = spec.split(':').next().unwrap_or_default();
    KINDS
        .iter()
        .position(|k| *k == name)
        .expect("lane specs use the four paper predictors")
}

/// Contiguous runs of lanes of one kind, as `(kind index, lane range)`.
fn lane_groups(specs: &[&str]) -> Vec<(usize, Range<usize>)> {
    let mut groups: Vec<(usize, Range<usize>)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let kind = kind_of(spec);
        match groups.last_mut() {
            Some((k, range)) if *k == kind => range.end = i + 1,
            _ => groups.push((kind, i..i + 1)),
        }
    }
    groups
}

fn io_err(path: &Path) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

// ---------------------------------------------------------------------
// setup
// ---------------------------------------------------------------------

/// The whole suite as one trace, benchmarks in suite order.
fn concat(traces: &[BenchmarkTrace]) -> Trace {
    let mut all = Trace::with_capacity(traces.iter().map(|b| b.trace.len()).sum());
    for b in traces {
        all.extend(b.trace.iter().copied());
    }
    all
}

fn encode(trace: &Trace, path: &Path, format: TraceFormat) -> Result<(), String> {
    let mut w = BufWriter::new(File::create(path).map_err(io_err(path))?);
    trace.write_with(&mut w, format).map_err(io_err(path))?;
    w.flush().map_err(io_err(path))
}

fn setup(a: &Args) -> Result<Json, String> {
    let workload = Workload::parse(a.get("workload")?)?;
    let seed: u64 = a.num("seed")?;
    let scale: f64 = a.num("scale")?;
    let reps: usize = a.num::<usize>("reps")?.max(1);
    let threads: usize = a.num::<usize>("threads")?.max(1);
    let budget = a.seconds()?;
    let dir = a.path("dir")?;
    fs::create_dir_all(&dir).map_err(io_err(&dir))?;

    // Thread `k` encodes to a file of its own; thread 0's file becomes
    // the workload's input.
    let file_of = |k: usize| dir.join(format!("setup-{k}.trc"));
    let set_up = |k: usize| -> Result<[Vec<f64>; 3], String> {
        let (mut setup_s, mut gen_s, mut encode_s) = (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        while setup_s.len() < reps || start.elapsed() < budget {
            let t = Instant::now();
            let traces = standard_traces(seed, scale);
            if workload == Workload::Repro {
                gen_s.push(secs(t.elapsed()));
                black_box(fig10_expected(&traces)?);
            } else {
                let all = concat(&traces);
                drop(traces);
                gen_s.push(secs(t.elapsed()));
                let e = Instant::now();
                encode(&all, &file_of(k), workload.format(seed))?;
                encode_s.push(secs(e.elapsed()));
            }
            setup_s.push(secs(t.elapsed()));
        }
        Ok([setup_s, gen_s, encode_s])
    };
    let [mut setup_s, mut gen_s, mut encode_s] = <[Vec<f64>; 3]>::default();
    std::thread::scope(|s| -> Result<(), String> {
        let workers: Vec<_> = (0..threads).map(|k| s.spawn(move || set_up(k))).collect();
        for w in workers {
            let [a, b, c] = w.join().expect("set-up thread panicked")?;
            setup_s.extend(a);
            gen_s.extend(b);
            encode_s.extend(c);
        }
        Ok(())
    })?;

    // The inputs and the reference the timed reps are checked against,
    // made once more outside the timing.
    let traces = standard_traces(seed, scale);
    let records: u64 = traces.iter().map(|b| b.trace.len() as u64).sum();
    if workload == Workload::Repro {
        write_expected(&dir, fig10_expected(&traces)?)?;
    } else {
        let path = workload.trace_file(&dir);
        fs::rename(file_of(0), &path).map_err(io_err(&path))?;
        for k in 1..threads {
            let extra = file_of(k);
            fs::remove_file(&extra).map_err(io_err(&extra))?;
        }
        write_reference(&dir, workload.lanes(), &concat(&traces))?;
    }

    let mut out = Json::default();
    out.nums("setup_s", &setup_s);
    out.num("records", records as f64);
    let mut layers = Json::default();
    let gen = median(&gen_s);
    layers.num("trace.gen.busy_s", gen);
    layers.num("trace.gen.records_per_s", ratio(records as f64, gen));
    if workload != Workload::Repro {
        let path = workload.trace_file(&dir);
        let bytes = fs::metadata(&path).map_err(io_err(&path))?.len() as f64;
        let enc = median(&encode_s);
        let codec = workload.codec();
        let raw_mb = (records * std::mem::size_of::<TraceRecord>() as u64) as f64 / 1e6;
        layers.num(&format!("{codec}.encode.busy_s"), enc);
        layers.num(&format!("{codec}.encode.mb_s"), ratio(raw_mb, enc));
        layers.num(
            &format!("{codec}.bits_per_record"),
            ratio(bytes * 8.0, records as f64),
        );
    }
    out.obj("layers", layers);
    Ok(out)
}

/// The reference every timed rep is checked against: each lane's
/// `RunStats` from the `dyn` evaluation loop over the in-memory records,
/// one line `spec predictions correct` per lane.
fn write_reference(dir: &Path, specs: &[&str], trace: &Trace) -> Result<(), String> {
    let mut text = String::new();
    for spec in specs {
        let mut p = dyn_predictor(spec)?;
        let s = simulate_trace(&mut *p, trace);
        text.push_str(&format!("{spec} {} {}\n", s.predictions, s.correct));
    }
    let path = dir.join("reference.txt");
    fs::write(&path, text).map_err(io_err(&path))
}

/// The Figure 10 tables every `repro` rep is checked against, as
/// `expected/fig10a.csv` and `expected/fig10b.csv`.
fn write_expected(dir: &Path, tables: [String; 2]) -> Result<(), String> {
    let exp_dir = dir.join("expected");
    fs::create_dir_all(&exp_dir).map_err(io_err(&exp_dir))?;
    for (name, csv) in ["fig10a", "fig10b"].iter().zip(tables) {
        let path = exp_dir.join(format!("{name}.csv"));
        fs::write(&path, csv).map_err(io_err(&path))?;
    }
    Ok(())
}

fn read_reference(dir: &Path) -> Result<Vec<(String, RunStats)>, String> {
    let path = dir.join("reference.txt");
    let text = fs::read_to_string(&path).map_err(io_err(&path))?;
    text.lines()
        .map(|line| {
            let f: Vec<&str> = line.split(' ').collect();
            let bad = || format!("{}: bad line `{line}`", path.display());
            let [spec, predictions, correct] = f[..] else {
                return Err(bad());
            };
            let stats = RunStats {
                predictions: predictions.parse().map_err(|_| bad())?,
                correct: correct.parse().map_err(|_| bad())?,
            };
            Ok((spec.to_owned(), stats))
        })
        .collect()
}

/// Figure 10(a) and 10(b) as CSV, recomputed with stream lanes (one cold
/// lane set per benchmark) instead of the engine's per-task `dyn` runs:
/// the values `dfcm-repro` must reproduce at the same seed and scale.
fn fig10_expected(traces: &[BenchmarkTrace]) -> Result<[String; 2], String> {
    let l2s: Vec<u32> = (8..=16).step_by(2).collect();
    let specs: Vec<String> = ["fcm", "dfcm"]
        .iter()
        .flat_map(|kind| l2s.iter().map(move |l2| format!("{kind}:16:{l2}")))
        .collect();
    let specs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let protos = parse_lanes(&specs)?;
    let per_bench: Vec<Vec<RunStats>> = traces
        .iter()
        .map(|b| stream_trace(&mut protos.clone(), &b.trace))
        .collect();
    let total = |lane: usize| {
        let mut t = RunStats::default();
        for stats in &per_bench {
            t.merge(stats[lane]);
        }
        t.accuracy()
    };
    let gain = |f: f64, d: f64| format!("{:+.1}%", 100.0 * (d / f - 1.0));
    let row =
        |label: String, f: f64, d: f64| vec![label, fmt_accuracy(f), fmt_accuracy(d), gain(f, d)];
    let n = l2s.len();

    let mut a = TextTable::new(vec!["l2", "FCM", "DFCM", "gain"]);
    for (i, l2) in l2s.iter().enumerate() {
        a.row(row(format!("2^{l2}"), total(i), total(n + i)));
    }
    let i12 = l2s
        .iter()
        .position(|&l2| l2 == 12)
        .expect("12 is in the sweep");
    let mut b = TextTable::new(vec!["benchmark", "FCM", "DFCM", "gain"]);
    for (bench, stats) in traces.iter().zip(&per_bench) {
        let (f, d) = (stats[i12].accuracy(), stats[n + i12].accuracy());
        b.row(row(bench.name.to_owned(), f, d));
    }
    b.row(row("average".into(), total(i12), total(n + i12)));
    Ok([a.to_csv(), b.to_csv()])
}

// ---------------------------------------------------------------------
// stream
// ---------------------------------------------------------------------

fn stream(a: &Args) -> Result<Json, String> {
    let workload = Workload::parse(a.get("workload")?)?;
    let dir = a.path("dir")?;
    let traced = a.get("trace")? == "1";
    let seconds = a.seconds()?;
    let reference = read_reference(&dir)?;
    let specs: Vec<&str> = reference.iter().map(|(s, _)| s.as_str()).collect();
    let expected: Vec<RunStats> = reference.iter().map(|(_, s)| *s).collect();
    let protos = parse_lanes(&specs)?;
    let records = expected.first().map_or(0, |s| s.predictions);
    let path = workload.trace_file(&dir);

    // Untraced, every thread times reps of its own; traced, one thread
    // times untraced reps and then traced ones.
    let (budget, min_reps, threads) = if traced {
        (seconds / 2, MIN_REPS, 1)
    } else {
        (seconds, UNTRACED_REPS, a.num::<usize>("threads")?.max(1))
    };
    let rep_loop = || {
        let (mut walls, mut failed) = (Vec::new(), 0u64);
        let start = Instant::now();
        while walls.len() < min_reps || start.elapsed() < budget {
            let mut lanes = protos.clone();
            let t = Instant::now();
            let report = match workload {
                Workload::StreamV3 => stream_v3_file(&path, &mut lanes, 1),
                _ => stream_v2_file(&path, &mut lanes, 1),
            };
            walls.push(secs(t.elapsed()));
            black_box(&lanes);
            let ok = matches!(&report, Ok(r) if r.stats == expected && r.records == records);
            if !ok {
                failed += 1;
                eprintln!("perfbench stream: rep {} failed its check", walls.len());
            }
        }
        (walls, failed)
    };
    let (mut walls, mut failed) = (Vec::new(), 0u64);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(rep_loop)).collect();
        for w in workers {
            let (w, f) = w.join().expect("rep thread panicked");
            walls.extend(w);
            failed += f;
        }
    });

    let mut out = Json::default();
    out.nums("wall_s", &walls);
    out.num("failed", failed as f64);
    out.num("records", records as f64);
    out.num("lanes", specs.len() as f64);
    if traced {
        let obs = Obs::enabled();
        let t = trace_stream(
            workload,
            &path,
            &specs,
            &protos,
            &expected,
            seconds - budget,
            &obs,
        )?;
        out.nums("traced_wall_s", &t.walls);
        out.num("traced_failed", t.failed as f64);
        out.num("partition_s", t.partition_s);
        out.obj("layers", t.layers);
        let obs_dir = a.path("obs")?;
        obs.write_exports(&obs_dir).map_err(io_err(&obs_dir))?;
    }
    Ok(out)
}

/// Busy time of one traced rep, per layer.
#[derive(Default)]
struct RepBusy {
    read: f64,
    decode: f64,
    crc: f64,
    decompress: f64,
    lanes: [f64; 4],
    /// The rep's wall time, less the crc/decompress probes (which repeat
    /// work `decode` already did).
    wall: f64,
    decompressed_bytes: u64,
    chunks: u64,
    chunks_failed: u64,
}

/// A raw chunk the traced loop can decode, plus optional probes that
/// time parts of its decode separately.
trait TracedChunk {
    fn decode_records(&self) -> io::Result<Vec<TraceRecord>>;

    /// Times the decode's sub-steps on the same payload; returns the
    /// probe time, which the rep's wall excludes.
    fn probe(&self, _busy: &mut RepBusy, _obs: &Obs) -> f64 {
        0.0
    }
}

impl TracedChunk for RawChunk {
    fn decode_records(&self) -> io::Result<Vec<TraceRecord>> {
        self.decode()
    }
}

impl TracedChunk for V3RawChunk {
    fn decode_records(&self) -> io::Result<Vec<TraceRecord>> {
        self.decode()
    }

    fn probe(&self, busy: &mut RepBusy, obs: &Obs) -> f64 {
        let t = Instant::now();
        {
            let _span = obs.span("trace.v3.crc");
            black_box(crc32(black_box(&self.payload)));
        }
        let crc = secs(t.elapsed());
        let t = Instant::now();
        {
            let _span = obs.span("trace.v3.decompress");
            let packed = decompress(black_box(&self.payload), self.packed_bytes as usize);
            busy.decompressed_bytes += packed.map_or(0, |p| black_box(p).len() as u64);
        }
        let dec = secs(t.elapsed());
        busy.crc += crc;
        busy.decompress += dec;
        crc + dec
    }
}

struct TracedRep {
    stats: Vec<RunStats>,
    busy: RepBusy,
    chunk_ms: Vec<f64>,
}

/// One rep of the inline (`decode_threads` = 1) streaming loop, with
/// every call into the codec and lane layers timed and spanned.
fn traced_rep<C, I, O>(
    codec: &str,
    open: O,
    protos: &[StreamPredictor],
    groups: &[(usize, Range<usize>)],
    obs: &Obs,
) -> Result<TracedRep, String>
where
    C: TracedChunk,
    I: Iterator<Item = io::Result<C>>,
    O: FnOnce() -> io::Result<I>,
{
    let names = [format!("{codec}.read"), format!("{codec}.decode")];
    let lane_names: Vec<String> = KINDS.iter().map(|k| format!("sim.lanes.{k}")).collect();
    let mut lanes = protos.to_vec();
    let mut stats = vec![RunStats::default(); lanes.len()];
    let mut busy = RepBusy::default();
    let mut chunk_ms = Vec::new();
    let mut probes = 0.0;
    let start = Instant::now();
    let mut t = Instant::now();
    let mut reader = {
        let _span = obs.span(&names[0]);
        open().map_err(|e| e.to_string())?
    };
    loop {
        let next = {
            let _span = obs.span(&names[0]);
            reader.next()
        };
        busy.read += secs(t.elapsed());
        let Some(chunk) = next else { break };
        let chunk = chunk.map_err(|e| e.to_string())?;
        busy.chunks += 1;
        let d = Instant::now();
        let decoded = {
            let _span = obs.span(&names[1]);
            chunk.decode_records()
        };
        let dt = secs(d.elapsed());
        busy.decode += dt;
        chunk_ms.push(dt * 1e3);
        let Ok(records) = decoded else {
            busy.chunks_failed += 1;
            t = Instant::now();
            continue;
        };
        probes += chunk.probe(&mut busy, obs);
        for (kind, range) in groups {
            let l = Instant::now();
            let part = {
                let _span = obs.span(&lane_names[*kind]);
                stream_records_with(&mut lanes[range.clone()], &records, |_, _, _| {})
            };
            busy.lanes[*kind] += secs(l.elapsed());
            for (total, s) in stats[range.clone()].iter_mut().zip(part) {
                total.merge(s);
            }
        }
        t = Instant::now();
    }
    busy.wall = secs(start.elapsed()) - probes;
    Ok(TracedRep {
        stats,
        busy,
        chunk_ms,
    })
}

struct TracedStream {
    walls: Vec<f64>,
    failed: u64,
    /// Median busy time of the layers one rep passes through in turn
    /// (read, decode, lanes), summed: what reconciles with `wall_s`.
    partition_s: f64,
    layers: Json,
}

fn trace_stream(
    workload: Workload,
    path: &Path,
    specs: &[&str],
    protos: &[StreamPredictor],
    expected: &[RunStats],
    budget: Duration,
    obs: &Obs,
) -> Result<TracedStream, String> {
    let codec = workload.codec();
    let groups = lane_groups(specs);
    let mut reps: Vec<RepBusy> = Vec::new();
    let mut chunk_ms = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        let mut span = obs.span("perfbench.rep");
        span.arg("workload", codec);
        let rep = match workload {
            Workload::StreamV3 => {
                traced_rep(codec, || V3ChunkReader::open(path), protos, &groups, obs)?
            }
            _ => traced_rep(codec, || V2ChunkReader::open(path), protos, &groups, obs)?,
        };
        drop(span);
        if rep.stats != expected || rep.busy.chunks_failed > 0 {
            failed += 1;
            eprintln!(
                "perfbench stream: traced rep {} failed its check",
                reps.len() + 1
            );
        }
        chunk_ms.extend(rep.chunk_ms);
        reps.push(rep.busy);
    }

    let med = |f: &dyn Fn(&RepBusy) -> f64| median(&reps.iter().map(f).collect::<Vec<f64>>());
    let records = expected.first().map_or(0, |s| s.predictions) as f64;
    let file_mb = fs::metadata(path).map_err(io_err(path))?.len() as f64 / 1e6;
    let (read, decode) = (med(&|b| b.read), med(&|b| b.decode));
    let mut layers = Json::default();
    layers.num(&format!("{codec}.read.busy_s"), read);
    if workload == Workload::StreamV3 {
        layers.num("trace.v3.read.mb_s", ratio(file_mb, read));
    }
    layers.num(&format!("{codec}.decode.busy_s"), decode);
    layers.num(
        &format!("{codec}.decode.records_per_s"),
        ratio(records, decode),
    );
    layers.num(&format!("{codec}.decode.chunk_ms.p50"), median(&chunk_ms));
    layers.num(&format!("{codec}.decode.chunk_ms.tail"), tail(&chunk_ms).1);
    layers.num(&format!("{codec}.chunks"), med(&|b| b.chunks as f64));
    if workload == Workload::StreamV3 {
        let (crc, dec) = (med(&|b| b.crc), med(&|b| b.decompress));
        let dec_mb = med(&|b| b.decompressed_bytes as f64) / 1e6;
        layers.num("trace.v3.chunks_failed", med(&|b| b.chunks_failed as f64));
        layers.num("trace.v3.crc.busy_s", crc);
        layers.num("trace.v3.decompress.busy_s", dec);
        layers.num("trace.v3.decompress.mb_s", ratio(dec_mb, dec));
        layers.num(
            "trace.v3.unpack.busy_s",
            med(&|b| b.decode - b.crc - b.decompress),
        );
    }
    let mut lanes_s = 0.0;
    for (kind, name) in KINDS.iter().enumerate() {
        let lanes_of_kind = specs.iter().filter(|s| kind_of(s) == kind).count();
        if lanes_of_kind == 0 {
            continue;
        }
        let busy = med(&|b| b.lanes[kind]);
        lanes_s += busy;
        layers.num(&format!("sim.lanes.{name}.busy_s"), busy);
        layers.num(
            &format!("sim.lanes.{name}.pred_per_s"),
            ratio(records * lanes_of_kind as f64, busy),
        );
    }
    Ok(TracedStream {
        walls: reps.iter().map(|b| b.wall).collect(),
        failed,
        partition_s: read + decode + lanes_s,
        layers,
    })
}

// ---------------------------------------------------------------------
// repro-trace
// ---------------------------------------------------------------------

fn repro_trace(a: &Args) -> Result<Json, String> {
    let seed: u64 = a.num("seed")?;
    let scale: f64 = a.num("scale")?;
    let threads: usize = a.num("threads")?;
    let dir = a.path("dir")?;
    let budget = a.seconds()?;
    let opts = Options {
        seed,
        scale,
        threads,
        out_dir: dir,
        ..Options::default()
    };
    let obs = Obs::enabled();

    let mut per_exp: Vec<Vec<f64>> = vec![Vec::new(); EXPERIMENTS.len()];
    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < budget {
        let rep = Instant::now();
        for ((name, run), busy) in EXPERIMENTS.iter().zip(&mut per_exp) {
            let t = Instant::now();
            {
                let _span = obs.span(&format!("repro.{name}"));
                run(&opts);
            }
            busy.push(secs(t.elapsed()));
        }
        walls.push(secs(rep.elapsed()));
    }

    let mut layers = Json::default();
    let mut partition_s = 0.0;
    for ((name, _), busy) in EXPERIMENTS.iter().zip(&per_exp) {
        let m = median(busy);
        partition_s += m;
        layers.num(&format!("repro.{name}.busy_s"), m);
    }
    let traces = standard_traces(seed, scale);
    probe_engine(&traces, threads, &obs, &mut layers)?;
    probe_dyn(&traces, &obs, &mut layers)?;
    probe_vm(scale, &obs, &mut layers);

    let obs_dir = a.path("obs")?;
    obs.write_exports(&obs_dir).map_err(io_err(&obs_dir))?;
    let mut out = Json::default();
    out.nums("traced_wall_s", &walls);
    out.num("partition_s", partition_s);
    out.obj("layers", layers);
    Ok(out)
}

/// `sim.engine`: Figure 10(a)'s FCM and DFCM sweeps through
/// `sweep_engine_ft`, with the numbers taken from the returned reports.
fn probe_engine(
    traces: &[BenchmarkTrace],
    threads: usize,
    obs: &Obs,
    layers: &mut Json,
) -> Result<(), String> {
    let l2s: Vec<u32> = (8..=16).step_by(2).collect();
    let engine = EngineConfig::threads(threads);
    let t = Instant::now();
    let reports: Vec<EngineReport> = {
        let _span = obs.span("sim.engine");
        let fcm = sweep_engine_ft(
            &l2s,
            |&l2| {
                FcmPredictor::builder()
                    .l1_bits(16)
                    .l2_bits(l2)
                    .build()
                    .expect("valid")
            },
            traces,
            &engine,
            None,
        );
        let dfcm = sweep_engine_ft(
            &l2s,
            |&l2| {
                DfcmPredictor::builder()
                    .l1_bits(16)
                    .l2_bits(l2)
                    .build()
                    .expect("valid")
            },
            traces,
            &engine,
            None,
        );
        vec![
            fcm.map_err(|e| e.to_string())?.1,
            dfcm.map_err(|e| e.to_string())?.1,
        ]
    };
    let busy = secs(t.elapsed());
    let tasks: usize = reports.iter().map(|r| r.tasks.len()).sum();
    let task_busy: f64 = reports
        .iter()
        .flat_map(|r| &r.tasks)
        .map(|t| secs(t.wall))
        .sum();
    let capacity: f64 = reports
        .iter()
        .map(|r| r.threads as f64 * secs(r.wall))
        .sum();
    let worker_busy: f64 = reports
        .iter()
        .flat_map(|r| &r.workers)
        .map(|w| secs(w.busy))
        .sum();
    let failed: usize = reports.iter().map(|r| r.failures().count()).sum();
    layers.num("sim.engine.busy_s", busy);
    layers.num("sim.engine.tasks", tasks as f64);
    layers.num("sim.engine.task_busy_s", task_busy);
    layers.num("sim.engine.idle_frac", 1.0 - ratio(worker_busy, capacity));
    layers.num("sim.engine.tasks_failed", failed as f64);
    Ok(())
}

/// `core.dyn`: one cold boxed predictor per benchmark through
/// `simulate_trace`, one configuration per kind.
fn probe_dyn(traces: &[BenchmarkTrace], obs: &Obs, layers: &mut Json) -> Result<(), String> {
    let records: usize = traces.iter().map(|b| b.trace.len()).sum();
    for (kind, spec) in KINDS.iter().zip(DYN_SPECS) {
        let t = Instant::now();
        {
            let _span = obs.span(&format!("core.dyn.{kind}"));
            for bench in traces {
                let mut p = dyn_predictor(spec)?;
                black_box(simulate_trace(&mut *p, &bench.trace));
            }
        }
        layers.num(
            &format!("core.dyn.{kind}.pred_per_s"),
            ratio(records as f64, secs(t.elapsed())),
        );
    }
    Ok(())
}

/// `vm.emit`: the bundled kernels on the fast tier, at the record cap
/// `vmbench` uses for this scale.
fn probe_vm(scale: f64, obs: &Obs, layers: &mut Json) {
    let max_records = ((scale * 10_000_000.0) as usize).clamp(20_000, 2_000_000);
    let t = Instant::now();
    let kernels = {
        let _span = obs.span("vm.emit");
        dfcm_vm::suite::kernel_traces_with(max_records, Tier::Fast)
    };
    let busy = secs(t.elapsed());
    let emitted: usize = kernels.iter().map(|k| k.trace.len()).sum();
    layers.num("vm.emit.busy_s", busy);
    layers.num("vm.emit.ips", ratio(emitted as f64, busy));
}
