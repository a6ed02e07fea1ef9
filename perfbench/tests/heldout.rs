//! Held-out-seed check: at one seed, two invocations print the same
//! digest and accuracy figures; at another seed the digest and the seeded
//! accuracy figures change, and every output check still passes.

use std::process::Command;

/// `--verify` output lines of one invocation, minus the run count.
fn verify(workload: &str, seed: u64) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_sais-perfbench"))
        .args([
            "--verify",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed its checks:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().map(str::to_string).collect()
}

fn line<'a>(lines: &'a [String], key: &str) -> &'a str {
    lines
        .iter()
        .find(|l| l.starts_with(key))
        .unwrap_or_else(|| panic!("no `{key}` line in {lines:?}"))
}

#[test]
fn paper_sweep_repeats_at_one_seed_and_moves_at_another() {
    let a = verify("paper_sweep", 101);
    let b = verify("paper_sweep", 101);
    let c = verify("paper_sweep", 102);
    assert_eq!(a, b, "same seed, different output");
    for key in ["digest", "gain_err_3gig_pp", "gain_err_1gig_pp"] {
        assert_ne!(line(&a, key), line(&c, key), "{key} ignores the seed");
    }
    // The in-memory experiment draws no random numbers: it is the same
    // at every seed.
    assert_eq!(line(&a, "gain_err_inmem_pp"), line(&c, "gain_err_inmem_pp"));
}

#[test]
fn other_workloads_repeat_at_one_seed_and_move_at_another() {
    for workload in ["faulted_rw", "observed_sweep"] {
        let a = verify(workload, 101);
        let b = verify(workload, 101);
        let c = verify(workload, 102);
        assert_eq!(a, b, "{workload}: same seed, different output");
        assert_ne!(
            line(&a, "digest"),
            line(&c, "digest"),
            "{workload} ignores the seed"
        );
    }
}
