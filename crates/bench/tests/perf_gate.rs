//! Subprocess tests of `perf_gate`'s exit codes. Stub "perfbench"
//! scripts that print a canned result line stand in for the two builds.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A result line carrying every end-to-end metric of `BENCHMARK.json`.
fn result_line(correct: bool, failed: u32, wall_s: f64) -> String {
    let others: String = ["run_ms_p50", "run_ms_p90", "setup_s", "peak_rss_mb"]
        .iter()
        .chain(&["gain_err_3gig_pp", "gain_err_1gig_pp", "gain_err_inmem_pp"])
        .map(|name| format!(", \"{name}\": {{\"value\": 1.5, \"unit\": \"x\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": 64, \"failed\": {failed}, \
         \"metrics\": {{\"wall_s\": {{\"value\": {wall_s:?}, \"unit\": \"s\"}}{others}}}}}"
    )
}

fn stub(dir: &Path, name: &str, last_line: &str) -> PathBuf {
    use std::os::unix::fs::PermissionsExt;
    let path = dir.join(name);
    let script = format!("#!/bin/sh\necho 'digest stub seed=1 0'\necho '{last_line}'\n");
    std::fs::write(&path, script).unwrap();
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
    path
}

fn gate<P: AsRef<std::ffi::OsStr>>(args: &[P]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_gate"))
        .args(args)
        .output()
        .expect("perf_gate runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code(), stdout)
}

#[test]
fn exit_codes_follow_the_stub_results() {
    let dir = std::env::temp_dir().join(format!("sais_perf_gate_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Every script is written before any runs: executing a file that a
    // concurrently forked child still holds open for writing fails.
    let equal = stub(&dir, "equal", &result_line(true, 0, 0.3));
    let slower = stub(&dir, "slower", &result_line(true, 0, 0.42));
    let incorrect = stub(&dir, "incorrect", &result_line(false, 0, 0.3));
    let failing = stub(&dir, "failing", &result_line(true, 1, 0.3));
    let full = result_line(true, 0, 0.3);
    let truncated = stub(&dir, "truncated", &full[..full.len() - 20]);

    let (code, table) = gate(&[&equal, &equal]);
    assert_eq!(code, Some(0), "{table}");
    // A header, then one row per (workload, metric).
    assert_eq!(table.lines().count(), 1 + 3 * 8, "{table}");

    let (code, table) = gate(&[&equal, &slower]);
    assert_eq!(code, Some(3), "{table}");
    let fails: Vec<&str> = table.lines().filter(|l| l.ends_with("FAIL")).collect();
    assert_eq!(fails.len(), 3, "{table}");
    assert!(fails
        .iter()
        .all(|l| l.contains("wall_s") && l.contains("+40.0%")));

    for (parent, change) in [
        (&equal, &incorrect),
        (&incorrect, &equal),
        (&equal, &failing),
    ] {
        assert_eq!(gate(&[parent, change]).0, Some(1), "{change:?}");
    }
    assert_eq!(gate(&[&failing, &equal]).0, Some(0));
    assert_eq!(gate(&[&equal, &truncated]).0, Some(1));
    assert_eq!(gate(&[&equal, &dir.join("missing")]).0, Some(1));
    assert_eq!(gate(&[&equal]).0, Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}
