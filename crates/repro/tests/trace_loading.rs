//! `--traces DIR` loading in the repro harness: intact directories load
//! exactly, damaged files are refused under `--strict` and salvaged
//! (with the intact chunks only) without it, and missing files are
//! fatal either way. A run generates or loads its suite once and shares
//! it with every experiment.

use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dfcm_repro::common::Options;
use dfcm_repro::experiments;
use dfcm_trace::suite::standard_suite;
use dfcm_trace::{salvage_trace, Trace, TraceFormat, TraceRecord, V2_CHUNK_RECORDS};

fn make_trace(records: usize, salt: u64) -> Trace {
    (0..records as u64)
        .map(|i| TraceRecord::new(0x40_0000 + 4 * (i % 257), i.wrapping_mul(salt | 1)))
        .collect()
}

/// Writes one small v2 trace per suite benchmark into a fresh dir.
fn write_suite_dir(subdir: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dfcm_repro_traces").join(subdir);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (i, spec) in standard_suite().iter().enumerate() {
        let trace = make_trace(500 + i, i as u64);
        trace
            .save_with(
                dir.join(format!("{}.trc", spec.name())),
                TraceFormat::V2 { seed: i as u64 },
            )
            .unwrap();
    }
    dir
}

fn options_for(dir: &Path, strict: bool) -> Options {
    Options {
        trace_dir: Some(dir.to_path_buf()),
        strict,
        ..Options::default()
    }
}

#[test]
fn intact_directory_loads_every_benchmark() {
    let dir = write_suite_dir("intact");
    let loaded = options_for(&dir, true).load_traces().unwrap();
    let suite = standard_suite();
    assert_eq!(loaded.len(), suite.len());
    for (i, (bench, spec)) in loaded.iter().zip(&suite).enumerate() {
        assert_eq!(bench.name, spec.name());
        assert_eq!(bench.trace, make_trace(500 + i, i as u64));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn strict_refuses_damage_that_nonstrict_salvages() {
    let dir = write_suite_dir("damaged");
    // Replace one benchmark with a multi-chunk trace and damage its
    // second half: one chunk dies, at least one chunk stays intact.
    let victim = dir.join("cc1.trc");
    let big = make_trace(2 * V2_CHUNK_RECORDS + 100, 7);
    big.save_with(&victim, TraceFormat::V2 { seed: 7 }).unwrap();
    let mut bytes = std::fs::read(&victim).unwrap();
    let at = bytes.len() * 3 / 4;
    bytes[at] ^= 0x10;
    std::fs::write(&victim, &bytes).unwrap();

    let err = options_for(&dir, true).load_traces().unwrap_err();
    assert!(err.contains("cc1.trc"), "{err}");
    assert!(err.contains("--strict"), "{err}");

    let loaded = options_for(&dir, false).load_traces().unwrap();
    let cc1 = loaded.iter().find(|b| b.name == "cc1").unwrap();
    let report = salvage_trace(BufReader::new(std::fs::File::open(&victim).unwrap())).unwrap();
    assert!(report.recovered_chunks < report.total_chunks);
    assert!(!report.recovered.is_empty());
    // The loader hands experiments exactly what salvage recovers.
    assert_eq!(cc1.trace, report.recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn intact_v3_directory_loads_every_benchmark() {
    // The loader is format-agnostic: a directory of compressed v3 traces
    // loads record-identical to the v2 one.
    let dir = std::env::temp_dir().join("dfcm_repro_traces").join("v3");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (i, spec) in standard_suite().iter().enumerate() {
        make_trace(500 + i, i as u64)
            .save_with(
                dir.join(format!("{}.trc", spec.name())),
                TraceFormat::V3 { seed: i as u64 },
            )
            .unwrap();
    }
    let loaded = options_for(&dir, true).load_traces().unwrap();
    assert_eq!(loaded.len(), standard_suite().len());
    for (i, bench) in loaded.iter().enumerate() {
        assert_eq!(bench.trace, make_trace(500 + i, i as u64));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn strict_refuses_v3_damage_that_nonstrict_salvages() {
    use dfcm_trace::V3_CHUNK_RECORDS;

    let dir = write_suite_dir("damaged_v3");
    let victim = dir.join("go.trc");
    let big = make_trace(2 * V3_CHUNK_RECORDS + 100, 7);
    big.save_with(&victim, TraceFormat::V3 { seed: 7 }).unwrap();
    let mut bytes = std::fs::read(&victim).unwrap();
    let at = bytes.len() * 3 / 4;
    bytes[at] ^= 0x10;
    std::fs::write(&victim, &bytes).unwrap();

    let err = options_for(&dir, true).load_traces().unwrap_err();
    assert!(err.contains("go.trc"), "{err}");
    assert!(err.contains("--strict"), "{err}");

    let loaded = options_for(&dir, false).load_traces().unwrap();
    let go = loaded.iter().find(|b| b.name == "go").unwrap();
    let report = salvage_trace(BufReader::new(std::fs::File::open(&victim).unwrap())).unwrap();
    assert_eq!(report.version, 3);
    assert!(report.recovered_chunks < report.total_chunks);
    assert!(!report.recovered.is_empty());
    assert_eq!(go.trace, report.recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_file_is_fatal_in_both_modes() {
    let dir = write_suite_dir("missing");
    std::fs::remove_file(dir.join("vortex.trc")).unwrap();
    assert!(options_for(&dir, true).load_traces().is_err());
    assert!(options_for(&dir, false).load_traces().is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn without_trace_dir_loading_generates_the_suite() {
    let opts = Options {
        scale: 0.004,
        ..Options::default()
    };
    let generated = opts.load_traces().unwrap();
    assert_eq!(generated[..], opts.traces()[..]);
    assert!(!generated.is_empty());
}

#[test]
fn traces_are_generated_once_and_shared() {
    let mut opts = Options {
        scale: 0.004,
        ..Options::default()
    };
    let first = opts.traces();
    assert!(
        Arc::ptr_eq(&first, &opts.traces()),
        "second call regenerated"
    );

    opts.seed += 1;
    let reseeded = opts.traces();
    assert!(!Arc::ptr_eq(&first, &reseeded));
    assert_eq!(reseeded[..], opts.load_traces().unwrap()[..]);
    assert_ne!(first[..], reseeded[..]);
}

#[test]
fn trace_dir_is_read_once_per_run() {
    let dir = write_suite_dir("read_once");
    let opts = options_for(&dir, true);
    let first = opts.traces();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(opts.load_traces().is_err(), "directory still readable");
    assert!(Arc::ptr_eq(&first, &opts.traces()));
}

#[test]
fn fig06_09_takes_li_from_the_trace_dir() {
    let dir = write_suite_dir("fig06_09");
    let opts = Options {
        scale: 0.004,
        out_dir: dir.join("out"),
        ..options_for(&dir, true)
    };
    experiments::fig06_09::run(&opts);
    let csv = std::fs::read_to_string(opts.csv_path("fig06_09_li")).unwrap();
    let mut lines = csv.lines();
    let fcm_column = lines
        .next()
        .unwrap()
        .split(',')
        .position(|h| h == "fcm_accesses")
        .unwrap();
    let stride_accesses: u64 = lines
        .map(|line| {
            line.split(',')
                .nth(fcm_column)
                .unwrap()
                .parse::<u64>()
                .unwrap()
        })
        .sum();
    // write_suite_dir's li.trc holds 504 records; a generated li at this
    // scale has 4920.
    let li_records = opts
        .traces()
        .iter()
        .find(|b| b.name == "li")
        .unwrap()
        .trace
        .len();
    assert_eq!(li_records, 504);
    assert!(
        stride_accesses <= li_records as u64,
        "{stride_accesses} stride accesses from a {li_records}-record li"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
