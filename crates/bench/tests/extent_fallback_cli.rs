//! Subprocess tests of the forced-fallback mode: `SAIS_MEM_NO_EXTENTS=1`
//! disables the extent-grained summaries and drives every touch through
//! the exact per-line walk, and the figure CSVs must not move by a byte.
//! This is the oracle-equivalence property of the memory fast paths
//! checked end-to-end at the binary boundary, not just in unit tests —
//! covering the real scenario mix and the figure emit path in one go.

use std::process::Command;

fn fig05() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fig05_bandwidth_3gig"))
}

fn fig_faults() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fig_faults"))
}

fn run(make: fn() -> Command, args: &[&str], no_extents: bool) -> Vec<u8> {
    let mut cmd = make();
    cmd.args(args);
    if no_extents {
        cmd.env("SAIS_MEM_NO_EXTENTS", "1");
    } else {
        cmd.env_remove("SAIS_MEM_NO_EXTENTS");
    }
    let out = cmd.output().expect("figure binary runs");
    assert!(
        out.status.success(),
        "exit {:?} (no_extents={no_extents}): {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty(), "figure CSV on stdout");
    out.stdout
}

#[test]
fn fig05_csv_is_byte_identical_with_summaries_disabled() {
    let on = run(fig05, &["--quick"], false);
    let off = run(fig05, &["--quick"], true);
    assert_eq!(
        String::from_utf8_lossy(&on),
        String::from_utf8_lossy(&off),
        "forced fallback must be the same walk, not a similar one"
    );
}

#[test]
fn fig_faults_csv_is_byte_identical_with_summaries_disabled() {
    // The faulted table exercises retransmits, option stripping and
    // strip migration — the ownership-churn paths where a summary bug
    // would show up as drifted miss rates.
    let on = run(fig_faults, &["--quick"], false);
    let off = run(fig_faults, &["--quick"], true);
    assert_eq!(
        String::from_utf8_lossy(&on),
        String::from_utf8_lossy(&off),
        "fault figures must not see the summaries at all"
    );
}
