//! One `Options` evaluates each (canonical spec, benchmark) pair of its
//! suite once: later experiments read earlier results from the run's
//! memo, write the CSVs they write alone, and list in their metrics file
//! only the tasks they ran. The memo never crosses suites.

use std::path::PathBuf;

use dfcm_repro::common::Options;
use dfcm_repro::experiments;

fn options(dir: &str, seed: u64, scale: f64) -> Options {
    let out_dir = std::env::temp_dir().join("dfcm_repro_memo").join(dir);
    let _ = std::fs::remove_dir_all(&out_dir);
    Options {
        seed,
        scale,
        threads: 2,
        out_dir,
        ..Options::default()
    }
}

fn csv(opts: &Options, name: &str) -> Vec<u8> {
    std::fs::read(opts.csv_path(name)).unwrap_or_else(|e| panic!("{name}.csv: {e}"))
}

/// The `"type":"task"` lines of `metrics/<name>.jsonl`.
fn tasks(opts: &Options, name: &str) -> usize {
    let path: PathBuf = opts.out_dir.join("metrics").join(format!("{name}.jsonl"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        .lines()
        .filter(|l| l.contains("\"type\":\"task\""))
        .count()
}

/// An experiment's entry point.
type Run = fn(&Options);

/// The suite sweeps that share configurations, in `all`'s order, each
/// named by the CSV and metrics file it writes.
const SHARED: [(&str, Run); 6] = [
    ("fig03", experiments::fig03::run),
    ("fig10a", experiments::fig10::run_a),
    ("fig11a", experiments::fig11::run_a),
    ("fig11b", experiments::fig11::run_b),
    ("fig16", experiments::fig16::run),
    ("sec4_4", experiments::sec4_4::run),
];

#[test]
fn one_run_writes_each_table_as_it_does_alone_and_runs_only_new_pairs() {
    let shared = options("shared", 7, 0.004);
    for (_, run) in SHARED {
        run(&shared);
    }
    for (name, run) in SHARED {
        let alone = options(&format!("alone-{name}"), 7, 0.004);
        run(&alone);
        assert_eq!(csv(&shared, name), csv(&alone, name), "{name}.csv");
        assert!(tasks(&shared, name) <= tasks(&alone, name), "{name}");
    }
    // Fig 11(b)'s FCM grid is Fig 3's, and its DFCM grid repeats Fig
    // 11(a)'s but for level-1 size 2^8: five new configurations on eight
    // benchmarks.
    assert_eq!(tasks(&shared, "fig11b"), 40);
    // Fig 16's FCM and DFCM columns come from Figs 3 and 10(a); its three
    // hybrid columns run.
    assert_eq!(tasks(&shared, "fig16"), 3 * 5 * 8);
}

#[test]
fn specupdate_reads_figure_17s_dfcm_column_from_the_run() {
    let shared = options("delayed", 7, 0.004);
    experiments::fig17::run(&shared);
    experiments::specupdate::run(&shared);
    let alone = options("delayed-alone", 7, 0.004);
    experiments::specupdate::run(&alone);
    assert_eq!(csv(&shared, "specupdate"), csv(&alone, "specupdate"));
    // Its stale column is Fig 17's DFCM column; only the speculative one
    // runs: seven delays on eight benchmarks.
    assert_eq!(tasks(&alone, "specupdate"), 2 * 7 * 8);
    assert_eq!(tasks(&shared, "specupdate"), 7 * 8);
}

#[test]
fn a_clone_at_another_seed_or_scale_writes_the_fresh_csv() {
    let first = options("first", 7, 0.004);
    experiments::fig10::run_b(&first);
    experiments::fig12_14::run_fig13(&first);
    for (dir, seed, scale) in [("seed", 8, 0.004), ("scale", 7, 0.008)] {
        let mut clone = first.clone();
        clone.seed = seed;
        clone.scale = scale;
        clone.out_dir = options(&format!("clone-{dir}"), seed, scale).out_dir;
        let fresh = options(&format!("fresh-{dir}"), seed, scale);
        for (name, run) in [
            ("fig10b", experiments::fig10::run_b as Run),
            ("fig13", experiments::fig12_14::run_fig13),
        ] {
            run(&clone);
            run(&fresh);
            assert_ne!(
                csv(&first, name),
                csv(&fresh, name),
                "{name}: suites must differ"
            );
            assert_eq!(
                csv(&clone, name),
                csv(&fresh, name),
                "{name} at another {dir}"
            );
        }
        assert_eq!(tasks(&clone, "fig10b"), 2 * 8, "{dir}");
    }
}

#[test]
fn two_spellings_of_one_spec_share_one_evaluation() {
    let opts = options("spellings", 7, 0.004);
    let mut run = opts.experiment("spellings");
    let points = run.lanes("fcm", &["fcm:16:12", "fcm:16:012"], |s| s.to_string());
    assert_eq!(points[0].result, points[1].result);
    assert_eq!(points[1].config, "fcm:16:012");
    // A later batch of the run finds the pair in the memo.
    let again = run.lanes("again", &["fcm:16:0012"], |s| s.to_string());
    assert_eq!(again[0].result, points[0].result);
    run.finish();
    let benchmarks = opts.traces().len();
    assert_eq!(tasks(&opts, "spellings"), benchmarks);
}

#[test]
fn an_observed_clone_records_the_series_an_observed_run_does() {
    let first = options("unobserved", 7, 0.004);
    experiments::fig12_14::run_fig12(&first);
    let mut clone = first.clone();
    clone.obs = dfcm_obs::Obs::enabled();
    let mut fresh = options("observed", 7, 0.004);
    fresh.obs = dfcm_obs::Obs::enabled();
    for opts in [&clone, &fresh] {
        experiments::fig12_14::run_fig12(opts);
        experiments::fig12_14::run_fig13(opts);
    }
    let series = clone.obs.series_snapshot();
    let specs: Vec<&str> = series.iter().map(|s| s.spec()).collect();
    assert_eq!(specs, ["fig12/fcm", "fig13/fcm", "fig13/dfcm"]);
    assert_eq!(series, fresh.obs.series_snapshot());
}
