//! Subprocess tests of the `--timeseries` export plane: the flag parses
//! strictly like every other flag (missing path exits 2 with usage), a
//! run with it writes `sais-timeseries/v1` JSONL without perturbing the
//! figure CSV on stdout.

use std::process::Command;

fn fig05() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fig05_bandwidth_3gig"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sais_timeseries_cli_{}_{name}", std::process::id()));
    p
}

#[test]
fn timeseries_missing_path_exits_2_with_usage() {
    let out = fig05()
        .args(["--quick", "--timeseries"])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--timeseries"), "error names the flag: {err}");
    assert!(err.contains("usage:"), "usage message shown: {err}");
    assert!(out.stdout.is_empty(), "no partial CSV on a rejected flag");
}

#[test]
fn timeseries_writes_schema_tagged_jsonl_and_keeps_csv_identical() {
    let plain = fig05().arg("--quick").output().expect("plain run");
    assert!(plain.status.success());

    let path = tmp("schema.jsonl");
    let out = fig05()
        .args(["--quick", "--timeseries"])
        .arg(&path)
        .output()
        .expect("timeseries run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The sampler only reads model-computed values: the figure CSV must
    // be byte-identical with telemetry on.
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&out.stdout),
        "--timeseries must not perturb the figure CSV"
    );
    let body = std::fs::read_to_string(&path).expect("JSONL written");
    let _ = std::fs::remove_file(&path);
    let header = body.lines().next().expect("non-empty export");
    assert!(
        header.contains("\"schema\": \"sais-timeseries/v1\""),
        "header line carries the schema tag: {header}"
    );
    assert!(
        body.lines().count() > 1,
        "at least one window line follows the header"
    );
    // Every window line is integer-only JSON naming its policy + epoch.
    for line in body.lines().skip(1) {
        assert!(
            line.contains("\"policy\"") && line.contains("\"epoch\""),
            "window line shape: {line}"
        );
    }
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("[timeseries]"),
        "stderr echoes the export path: {err}"
    );
}
