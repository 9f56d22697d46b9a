//! Observability overhead: the engine sweep with the obs handle
//! disabled (the default), enabled, and the serial reference. The
//! disabled case must stay within noise of a build that predates the
//! obs hooks — the handle is an `Option<Arc>` checked once per task
//! attempt, so an obs-free run costs one branch. The enabled case
//! prices the spans, per-task histogram updates and table trackers,
//! which is worth knowing before shipping `--obs` into a large sweep.
//!
//! The `obs_stream_overhead` group prices observing the streaming core:
//! `stream_off` is `stream_trace_file` with obs disabled, which runs the
//! no-op observer (the same loop as `stream_v2_file`), and
//! `stream_series_classified` is `eval --streaming --obs`'s pass — every
//! lane's alias analyzer on, and the windowed phase series, top-K PC
//! tracker and occupancy samples folded inline per record.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dfcm::DfcmPredictor;
use dfcm_obs::Obs;
use dfcm_sim::{stream_trace_file, sweep, sweep_engine, EngineConfig, StreamPredictor};
use dfcm_trace::suite::standard_traces;
use dfcm_trace::{Trace, TraceFormat};
use std::hint::black_box;

fn bench_obs_overhead(c: &mut Criterion) {
    let traces = standard_traces(1, 0.01);
    let configs: Vec<u32> = (8..=16).step_by(2).collect();
    let factory = |&l2: &u32| {
        DfcmPredictor::builder()
            .l1_bits(16)
            .l2_bits(l2)
            .build()
            .unwrap()
    };
    let records: u64 = traces.iter().map(|b| b.trace.len() as u64).sum();

    let mut group = c.benchmark_group("obs_overhead");
    group.throughput(Throughput::Elements(records * configs.len() as u64));
    group.bench_function("serial_sweep", |b| {
        b.iter(|| black_box(sweep(&configs, factory, &traces)))
    });
    for threads in [1usize, 2, 4] {
        group.bench_function(BenchmarkId::new("engine_obs_off", threads), |b| {
            let engine = EngineConfig::threads(threads);
            b.iter(|| black_box(sweep_engine(&configs, factory, &traces, &engine)))
        });
        group.bench_function(BenchmarkId::new("engine_obs_on", threads), |b| {
            let engine = EngineConfig {
                obs: Obs::enabled(),
                ..EngineConfig::threads(threads)
            };
            b.iter(|| black_box(sweep_engine(&configs, factory, &traces, &engine)))
        });
    }
    group.finish();
}

fn bench_stream_series_overhead(c: &mut Criterion) {
    // One merged suite trace on disk: the streaming core's real input.
    let dir = std::env::temp_dir().join("dfcm_bench_obs_stream");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("suite.v2.trc");
    let mut merged = Trace::new();
    for b in standard_traces(1, 0.02) {
        for r in &b.trace {
            merged.push(*r);
        }
    }
    let records = merged.len() as u64;
    merged
        .save_with(&path, TraceFormat::V2 { seed: 1 })
        .expect("save trace");

    let lanes = || {
        vec![
            StreamPredictor::parse_spec("dfcm:12:12").expect("spec"),
            StreamPredictor::parse_spec("fcm:12:12").expect("spec"),
        ]
    };
    let mut group = c.benchmark_group("obs_stream_overhead");
    group.throughput(Throughput::Elements(records * 2));
    // Disabled handle: the no-op observer.
    group.bench_function(BenchmarkId::new("stream_off", 1), |b| {
        b.iter(|| {
            let mut lanes = lanes();
            black_box(stream_trace_file(&path, &mut lanes, 1, &Obs::disabled()).expect("stream"))
        })
    });
    // A fresh enabled handle per pass: what `eval --streaming --obs` runs.
    group.bench_function(BenchmarkId::new("stream_series_classified", 1), |b| {
        b.iter(|| {
            let mut lanes = lanes();
            black_box(stream_trace_file(&path, &mut lanes, 1, &Obs::enabled()).expect("stream"))
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_obs_overhead, bench_stream_series_overhead);
criterion_main!(benches);
