//! The `dfcm-repro` binary's argument checks, run as a process: a bad
//! option is a usage error (exit status 1) before any experiment starts.

use std::process::Command;

#[test]
fn a_scale_that_is_not_finite_and_positive_is_a_usage_error() {
    let out = std::env::temp_dir().join("dfcm_repro_cli");
    for scale in ["nan", "inf", "-inf", "0"] {
        let run = Command::new(env!("CARGO_BIN_EXE_dfcm-repro"))
            .args(["fig10a", "--scale", scale, "--threads", "1", "--out"])
            .arg(&out)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "--scale {scale}: {stderr}");
        assert!(
            stderr.contains("scale must be finite and positive") && stderr.contains("usage:"),
            "--scale {scale}: {stderr}"
        );
        assert!(run.stdout.is_empty(), "--scale {scale} started a run");
    }
}

#[test]
fn json_is_not_an_option() {
    let out = std::env::temp_dir().join("dfcm_repro_cli_json");
    let run = Command::new(env!("CARGO_BIN_EXE_dfcm-repro"))
        .args([
            "fig10a",
            "--json",
            "--scale",
            "0.001",
            "--threads",
            "1",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "--json: {stderr}");
    assert!(
        stderr.contains("unknown option `--json`") && stderr.contains("usage:"),
        "--json: {stderr}"
    );
    assert!(run.stdout.is_empty(), "--json started a run");
}
