//! Subprocess tests of the `--profile` host-profiling plane: the flag
//! parses strictly (missing path / stray flag exit 2 with usage), a
//! profiled run writes a parseable `sais-hostprof/v1` JSON plus
//! flamegraph-ready collapsed stacks, and — the load-bearing guarantee —
//! profiling is bit-inert: the figure CSV on stdout and the telemetry
//! JSONL are byte-identical with `--profile` on or off, at shard counts
//! 1 and 2.

use sais_obs::json::JsonValue;
use std::process::Command;

fn fig05() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fig05_bandwidth_3gig"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sais_profile_cli_{}_{name}", std::process::id()));
    p
}

#[test]
fn profile_missing_path_exits_2_with_usage() {
    let out = fig05()
        .args(["--quick", "--profile"])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--profile"), "error names the flag: {err}");
    assert!(err.contains("usage:"), "usage message shown: {err}");
    assert!(out.stdout.is_empty(), "no partial CSV on a rejected flag");
}

#[test]
fn stray_flag_next_to_profile_exits_2() {
    let out = fig05()
        .args(["--quick", "--profile", "p.json", "--florp"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--florp"), "error names the stray flag: {err}");
}

/// One combined run matrix (fig05 --quick is seconds per invocation, so
/// the assertions share runs): plain vs profiled vs sharded-profiled,
/// checking bit-inertness of CSV + JSONL and the profile artifacts'
/// shape in one pass.
#[test]
fn profile_is_bit_inert_and_writes_schema_tagged_artifacts() {
    let ts_plain = tmp("plain.jsonl");
    let plain = fig05()
        .args(["--quick", "--timeseries"])
        .arg(&ts_plain)
        .output()
        .expect("plain run");
    assert!(
        plain.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&plain.stderr)
    );

    let ts_prof = tmp("prof.jsonl");
    let prof_path = tmp("host.json");
    let prof = fig05()
        .args(["--quick", "--timeseries"])
        .arg(&ts_prof)
        .arg("--profile")
        .arg(&prof_path)
        .output()
        .expect("profiled run");
    assert!(
        prof.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&prof.stderr)
    );

    let ts_shard = tmp("shard.jsonl");
    let shard_prof_path = tmp("host_sharded.json");
    let shard = fig05()
        .args(["--quick", "--shards", "2", "--timeseries"])
        .arg(&ts_shard)
        .arg("--profile")
        .arg(&shard_prof_path)
        .output()
        .expect("sharded profiled run");
    assert!(
        shard.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&shard.stderr)
    );

    // Bit-inertness: stdout CSV identical across all three runs, JSONL
    // identical across all three exports.
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&prof.stdout),
        "--profile must not perturb the figure CSV"
    );
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&shard.stdout),
        "--shards 2 --profile must not perturb the figure CSV"
    );
    let jl_plain = std::fs::read(&ts_plain).expect("plain JSONL");
    let jl_prof = std::fs::read(&ts_prof).expect("profiled JSONL");
    let jl_shard = std::fs::read(&ts_shard).expect("sharded JSONL");
    assert!(!jl_plain.is_empty());
    assert_eq!(jl_plain, jl_prof, "profiling must not move the telemetry");
    assert_eq!(jl_plain, jl_shard, "sharded+profiled telemetry identical");

    // The profile JSON parses with the schema tag and the tentpole's
    // sections: per-thread zone trees, executor workers, phases.
    let body = std::fs::read_to_string(&prof_path).expect("profile JSON written");
    let doc = JsonValue::parse(&body).expect("valid sais-hostprof JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("sais-hostprof/v1")
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
    let all_zones: String = body.clone();
    assert!(
        all_zones.contains("engine.dispatch"),
        "dispatch zone recorded"
    );
    assert!(all_zones.contains("mem.touch"), "memory zone recorded");
    let exec = doc.get("executor").expect("executor section");
    let workers = exec.get("workers").and_then(JsonValue::as_array).unwrap();
    assert!(!workers.is_empty(), "per-worker counters present");
    assert!(workers[0]
        .get("tasks")
        .and_then(JsonValue::as_u64)
        .is_some());
    // An unsharded run has no fabric grids.
    assert_eq!(
        doc.get("shard_fabric")
            .and_then(JsonValue::as_array)
            .map(<[JsonValue]>::len),
        Some(0)
    );

    // The collapsed stacks: `thread;zone[;zone] weight` lines, integer
    // weights, flamegraph.pl-ready.
    let folded = std::fs::read_to_string(prof_path.with_extension("folded")).expect("folded");
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("stack <space> weight");
        assert!(stack.contains(';'), "thread;zone separator: {line}");
        weight
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("integer weight: {line}"));
    }
    assert!(folded.lines().any(|l| l.contains(";engine.dispatch")));

    // The sharded parent's profile carries fabric stats for 2 workers.
    let body = std::fs::read_to_string(&shard_prof_path).expect("sharded profile");
    let doc = JsonValue::parse(&body).expect("valid JSON");
    let fabric = doc
        .get("shard_fabric")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert!(!fabric.is_empty(), "parent records its grids");
    assert_eq!(fabric[0].get("shards").and_then(JsonValue::as_u64), Some(2));
    let walls = fabric[0]
        .get("worker_wall_ns")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert_eq!(walls.len(), 2, "one wall figure per worker");
    let tasks = fabric[0]
        .get("worker_tasks")
        .and_then(JsonValue::as_array)
        .unwrap();
    let total: u64 = tasks.iter().filter_map(JsonValue::as_u64).sum();
    assert!(total > 0, "workers reported tasks through the fabric");

    // The stderr carries the top-N table and both artifact echoes.
    let err = String::from_utf8_lossy(&prof.stderr);
    assert!(err.contains("[profile]"), "path echoes: {err}");
    assert!(err.contains("self(ms)"), "top-N table header: {err}");
    assert!(err.contains("engine.dispatch"), "hot zone in table: {err}");

    for p in [&ts_plain, &ts_prof, &ts_shard, &shard_prof_path] {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_file(prof_path.with_extension("folded"));
    let _ = std::fs::remove_file(&prof_path);
    let _ = std::fs::remove_file(shard_prof_path.with_extension("folded"));
}
