//! Subprocess tests of a figure binary's command line and its one
//! observability option, `--obs <dir>`: removed and malformed flags exit
//! 2 with usage before anything runs, an uncreatable directory exits 1
//! before any CSV is written, and an observed run writes the
//! `sais-timeseries/v1` series and the `sais-hostprof/v2` profile plus
//! collapsed stacks without perturbing the figure CSV on stdout.

use sais_obs::json::JsonValue;
use std::path::PathBuf;
use std::process::{Command, Output};

fn fig05() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fig05_bandwidth_3gig"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sais_obs_cli_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_usage_error(out: &Output, flag: &str) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{flag}: {err}");
    assert!(err.contains(flag), "error names the flag {flag}: {err}");
    assert!(err.contains("usage:"), "usage message shown: {err}");
    assert!(out.stdout.is_empty(), "no partial CSV on a rejected flag");
}

#[test]
fn removed_and_malformed_flags_exit_2_with_usage() {
    // Sweeps run in one process, and `--obs` replaced the per-artifact
    // observability flags: every old flag fails loudly rather than being
    // ignored, and so does `--obs` without its directory.
    for (args, flag) in [
        (&["--quick", "--shards", "2"][..], "--shards"),
        (
            &["--quick", "--shard-worker", "0", "--shard-grid", "0"],
            "--shard-worker",
        ),
        (&["--quick", "--trace", "t.json"], "--trace"),
        (&["--quick", "--metrics", "m.json"], "--metrics"),
        (&["--quick", "--analyze", "dir"], "--analyze"),
        (&["--quick", "--timeseries", "ts.jsonl"], "--timeseries"),
        (&["--quick", "--profile", "p.json"], "--profile"),
        (&["--quick", "--obs"], "--obs"),
        (&["--quick", "--obs", "dir", "--florp"], "--florp"),
    ] {
        let out = fig05().args(args).output().expect("binary runs");
        assert_usage_error(&out, flag);
    }
}

#[test]
fn uncreatable_obs_dir_exits_1_before_the_figure_runs() {
    let target = scratch("target");
    let out = fig05()
        .args(["--quick", "--obs", "/dev/null/obs"])
        .env("CARGO_TARGET_DIR", &target)
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("cannot create /dev/null/obs"), "{err}");
    assert!(out.stdout.is_empty(), "no CSV on stdout");
    assert!(
        !target.join("experiments/fig05_bandwidth_3gig.csv").exists(),
        "no CSV on disk"
    );
    let _ = std::fs::remove_dir_all(&target);
}

/// One plain/observed run pair (fig05 --quick is seconds per
/// invocation, so the assertions share runs): bit-inertness of the CSV
/// and the shape of every artifact in one pass.
#[test]
fn obs_is_bit_inert_and_writes_schema_tagged_artifacts() {
    let plain = fig05().arg("--quick").output().expect("plain run");
    assert!(
        plain.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&plain.stderr)
    );
    // The directory does not exist yet: `--obs` creates it.
    let dir = scratch("obs").join("nested");
    let observed = fig05()
        .args(["--quick", "--obs"])
        .arg(&dir)
        .output()
        .expect("observed run");
    assert!(
        observed.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&observed.stderr)
    );
    // Telemetry sampling and the profiler only read values the model
    // computed and host clocks: the figure CSV is byte-identical.
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&observed.stdout),
        "--obs must not perturb the figure CSV"
    );

    // The series: a schema-tagged header, then integer-only window lines
    // naming their policy and epoch.
    let series = std::fs::read_to_string(dir.join("timeseries.jsonl")).expect("JSONL written");
    let header = series.lines().next().expect("non-empty export");
    assert!(
        header.contains("\"schema\": \"sais-timeseries/v1\""),
        "header line carries the schema tag: {header}"
    );
    assert!(
        series.lines().count() > 1,
        "at least one window line follows the header"
    );
    for line in series.lines().skip(1) {
        assert!(
            line.contains("\"policy\"") && line.contains("\"epoch\""),
            "window line shape: {line}"
        );
    }

    // The profile JSON parses with the schema tag and its sections:
    // per-thread zone trees, executor workers, phases.
    let body = std::fs::read_to_string(dir.join("hostprof.json")).expect("profile JSON written");
    let doc = JsonValue::parse(&body).expect("valid sais-hostprof JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("sais-hostprof/v2")
    );
    let phases = doc.get("phases").expect("phases object");
    let engine = phases.get("engine").and_then(JsonValue::as_u64).unwrap();
    assert!(engine > 0, "a real run spends time in engine zones");
    assert!(phases
        .get("executor_idle")
        .and_then(JsonValue::as_u64)
        .is_some());
    let threads = doc.get("threads").and_then(JsonValue::as_array).unwrap();
    assert!(!threads.is_empty(), "at least the executor workers report");
    assert!(body.contains("engine.dispatch"), "dispatch zone recorded");
    assert!(body.contains("mem.touch"), "memory zone recorded");
    assert!(body.contains("export.timeseries"), "export zone recorded");
    let exec = doc.get("executor").expect("executor section");
    let workers = exec.get("workers").and_then(JsonValue::as_array).unwrap();
    assert!(!workers.is_empty(), "per-worker counters present");
    assert!(workers[0]
        .get("tasks")
        .and_then(JsonValue::as_u64)
        .is_some());

    // The collapsed stacks: `thread;zone[;zone] weight` lines, integer
    // weights, flamegraph.pl-ready.
    let folded = std::fs::read_to_string(dir.join("hostprof.folded")).expect("folded");
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("stack <space> weight");
        assert!(stack.contains(';'), "thread;zone separator: {line}");
        weight
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("integer weight: {line}"));
    }
    assert!(folded.lines().any(|l| l.contains(";engine.dispatch")));

    // stderr carries every artifact echo and the top-N table.
    let err = String::from_utf8_lossy(&observed.stderr);
    assert!(err.contains("[timeseries]"), "series path echo: {err}");
    assert!(err.contains("[profile]"), "profile path echoes: {err}");
    assert!(err.contains("self(ms)"), "top-N table header: {err}");
    assert!(err.contains("engine.dispatch"), "hot zone in table: {err}");

    let _ = std::fs::remove_dir_all(dir.parent().unwrap());
}
