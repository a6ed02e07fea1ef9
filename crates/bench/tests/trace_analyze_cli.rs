//! Subprocess tests of the `trace_analyze` binary: machine-clean stdout,
//! report files and run exports on disk, reading an export back, the
//! zero-stall assertion, and strict flag parsing.

use sais_obs::json::{JsonValue, MAX_DEPTH};
use sais_obs::perfetto::{to_chrome_json, validate};
use sais_obs::{FlightRecorder, SpanId};
use sais_sim::SimTime;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_trace_analyze"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sais_ta_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// stdout must parse as pure CSV: uniform column count, a known header,
/// no human rendering — the bench-harness contract that `--quick` style
/// pipelines rely on.
fn assert_pure_csv(stdout: &str, header: &str) {
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(!lines.is_empty(), "empty stdout");
    assert_eq!(lines[0], header, "header line");
    let cols = lines[0].matches(',').count();
    for line in &lines {
        assert_eq!(line.matches(',').count(), cols, "ragged CSV row: {line}");
        assert!(
            !line.contains('[') && !line.contains('|') && !line.contains("..."),
            "non-CSV noise on stdout: {line}"
        );
    }
}

#[test]
fn demo_mode_emits_pure_csv_and_reports() {
    let dir = scratch("demo");
    let out = bin()
        .args([
            "--out-dir",
            dir.to_str().unwrap(),
            "--bins",
            "12",
            "--assert-zero-stall",
        ])
        .output()
        .expect("trace_analyze runs");
    assert!(
        out.status.success(),
        "exit: {:?}, stderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert_pure_csv(&stdout, "policy,requests,total_ns,category,ns,share");
    // Both policies appear, and the SAIs stall rows are zero.
    assert!(stdout.contains("RoundRobin,"), "{stdout}");
    let sais_stall: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("SAIs,") && l.contains(",migration_stall,"))
        .collect();
    assert_eq!(sais_stall.len(), 1);
    assert!(
        sais_stall[0].contains(",migration_stall,0,0.000000"),
        "{}",
        sais_stall[0]
    );
    // The report set landed on disk.
    for f in [
        "blame_RoundRobin.csv",
        "blame_SAIs.csv",
        "blame_summary.csv",
        "diff_RoundRobin_vs_SAIs.csv",
        "timeline_RoundRobin.csv",
        "timeline_SAIs.txt",
        "forensics_SAIs.txt",
    ] {
        assert!(dir.join(f).exists(), "missing report {f}");
    }
    // Each policy's run is exported too: a valid Perfetto trace and a
    // schema-tagged metric snapshot.
    for label in ["RoundRobin", "SAIs"] {
        let trace = std::fs::read_to_string(dir.join(format!("trace_{label}.json")))
            .unwrap_or_else(|e| panic!("trace_{label}.json: {e}"));
        let stats = validate(&trace).unwrap_or_else(|e| panic!("trace_{label}.json: {e}"));
        assert!(
            stats.spans > 0 && stats.child_spans > 0,
            "{label}: {stats:?}"
        );
        let metrics = std::fs::read_to_string(dir.join(format!("metrics_{label}.json")))
            .unwrap_or_else(|e| panic!("metrics_{label}.json: {e}"));
        let doc = JsonValue::parse(&metrics).expect("metric snapshot parses");
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("sais-metrics-snapshot/v1")
        );
    }

    // Artifact mode reads the SAIs trace back and reports on it alone.
    let input = dir.join("input");
    let out = bin()
        .arg("--input")
        .arg(dir.join("trace_SAIs.json"))
        .arg("--out-dir")
        .arg(&input)
        .output()
        .expect("trace_analyze runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let artifact = String::from_utf8(out.stdout).unwrap();
    assert_pure_csv(&artifact, "policy,requests,total_ns,category,ns,share");
    // The same spans blame the same way from the file as in-process.
    let sais_rows = |csv: &str, label: &str| -> Vec<String> {
        csv.lines()
            .filter_map(|l| l.strip_prefix(&format!("{label},")).map(str::to_string))
            .collect()
    };
    assert_eq!(sais_rows(&artifact, "artifact"), sais_rows(&stdout, "SAIs"));
    assert!(input.join("blame_artifact.csv").exists());
    assert!(input.join("forensics_artifact.txt").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faulted_demo_mode_reintroduces_migration_stalls() {
    let dir = scratch("faulted");
    let out = bin()
        .args([
            "--out-dir",
            dir.to_str().unwrap(),
            "--bins",
            "12",
            "--faults",
            "--assert-nonzero-stall",
        ])
        .output()
        .expect("trace_analyze runs");
    assert!(
        out.status.success(),
        "exit: {:?}, stderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert_pure_csv(&stdout, "policy,requests,total_ns,category,ns,share");
    // With the option-stripping middlebox on every flow, hintless SAIs
    // pays migration stalls again — the row must be nonzero.
    let sais_stall: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("SAIs,") && l.contains(",migration_stall,"))
        .collect();
    assert_eq!(sais_stall.len(), 1);
    assert!(
        !sais_stall[0].contains(",migration_stall,0,"),
        "expected nonzero stall: {}",
        sais_stall[0]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_flags_must_be_consistent() {
    // --assert-nonzero-stall is the faulted-demo assertion.
    let out = bin().arg("--assert-nonzero-stall").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // --assert-zero-stall contradicts --faults.
    let out = bin()
        .args(["--faults", "--assert-zero-stall"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // --faults needs the demo mode.
    let out = bin()
        .args(["--faults", "--input", "/nonexistent/never.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_flags_and_bad_input_fail_loudly() {
    let out = bin().arg("--bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown flag is a usage error");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let out = bin()
        .args(["--input", "/nonexistent/never.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "unreadable input exits 1");

    // --assert-zero-stall only makes sense against the two-policy demo.
    let garbage = scratch("garbage").with_extension("json");
    std::fs::write(&garbage, "{}").unwrap();
    let out = bin()
        .args(["--input", garbage.to_str().unwrap(), "--assert-zero-stall"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // Hostile --input files: a valid export cut off mid-event, and a
    // document nested one level deeper than the reader allows. Each is a
    // typed error and exit 1, never a panic.
    let mut rec = FlightRecorder::enabled(8);
    let read = rec.begin(SimTime::ZERO, "read", "request", 0, 100, SpanId::NONE);
    let strip = rec.begin(SimTime::ZERO, "strip", "strip", 0, 100, read);
    rec.end(strip, SimTime::from_micros(5));
    rec.end(read, SimTime::from_micros(6));
    let export = to_chrome_json(&rec);
    let cut = export.find("\"strip\"").expect("strip event exported");
    let deep = MAX_DEPTH + 1;
    for (doc, want) in [
        (&export[..cut], "JSON error at byte"),
        (
            &format!("{}{}", "[".repeat(deep), "]".repeat(deep)),
            "nesting deeper than",
        ),
    ] {
        std::fs::write(&garbage, doc).unwrap();
        let out = bin()
            .args(["--input", garbage.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("is not a loadable trace"), "{stderr}");
        assert!(stderr.contains(want), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    let _ = std::fs::remove_file(&garbage);
}

#[test]
fn out_dir_failure_is_an_error_not_a_panic() {
    // Point --out-dir at a path that cannot be a directory (under a file).
    let blocker = scratch("blocker");
    std::fs::create_dir_all(blocker.parent().unwrap_or(Path::new("/tmp"))).unwrap();
    std::fs::write(&blocker, "file, not dir").unwrap();
    let out = bin()
        .args(["--out-dir", blocker.join("sub").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
    let _ = std::fs::remove_file(&blocker);
}
