//! `--resume` reuses a checkpoint only for the suite that wrote it: a
//! rerun at another `--scale` or `--seed` into the same output directory
//! must write the CSV a fresh run writes, and a rerun of the same suite
//! restores every task without simulating it again.

use std::path::PathBuf;

use dfcm_repro::common::Options;
use dfcm_repro::experiments;

fn options(dir: &str, seed: u64, scale: f64, resume: bool) -> Options {
    Options {
        seed,
        scale,
        resume,
        threads: 2,
        out_dir: std::env::temp_dir().join("dfcm_repro_resume").join(dir),
        ..Options::default()
    }
}

fn fresh_dir(dir: &str) -> PathBuf {
    let path = options(dir, 0, 1.0, false).out_dir;
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// Runs Figure 10(a) and returns its CSV.
fn fig10a(opts: &Options) -> String {
    experiments::fig10::run_a(opts);
    std::fs::read_to_string(opts.csv_path("fig10a")).expect("fig10a.csv written")
}

/// Resumes `second` into a directory a `first` run checkpointed, and
/// checks it against a fresh run of `second`.
fn assert_resume_writes_fresh_csv(dir: &str, first: (u64, f64), second: (u64, f64)) {
    fresh_dir(dir);
    let fresh_out = format!("{dir}-fresh");
    fresh_dir(&fresh_out);
    let stale = fig10a(&options(dir, first.0, first.1, true));
    let resumed = fig10a(&options(dir, second.0, second.1, true));
    let fresh = fig10a(&options(&fresh_out, second.0, second.1, false));
    assert_ne!(stale, fresh, "the two suites must give different tables");
    assert_eq!(
        resumed, fresh,
        "resumed run reused the other suite's results"
    );
}

#[test]
fn resume_at_another_scale_writes_the_fresh_csv() {
    assert_resume_writes_fresh_csv("scale", (7, 0.004), (7, 0.008));
}

#[test]
fn resume_at_another_seed_writes_the_fresh_csv() {
    assert_resume_writes_fresh_csv("seed", (7, 0.004), (8, 0.004));
}

#[test]
fn resumed_fig16_restores_every_task() {
    let out = fresh_dir("fig16");
    let opts = options("fig16", 7, 0.004, true);
    experiments::fig16::run(&opts);
    let first = std::fs::read(opts.csv_path("fig16")).unwrap();
    experiments::fig16::run(&opts);
    assert_eq!(std::fs::read(opts.csv_path("fig16")).unwrap(), first);
    // Every task of the rerun came from the checkpoint: zero attempts.
    let metrics = std::fs::read_to_string(out.join("metrics/fig16.jsonl")).unwrap();
    let suite = metrics.lines().next().unwrap();
    assert!(suite.contains("\"failed\":0,\"attempts\":0"), "{suite}");
    assert!(
        metrics
            .lines()
            .filter(|l| l.contains("\"type\":\"task\""))
            .count()
            > 0
    );
}
