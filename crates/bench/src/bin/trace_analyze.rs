//! Analyze flight-recorder traces: critical-path blame, policy diff,
//! per-core timelines and tail forensics.
//!
//! ```text
//! cargo run --release -p sais-bench --bin trace_analyze                      # demo: RoundRobin vs SAIs
//! cargo run --release -p sais-bench --bin trace_analyze -- --input t.json    # analyze an exported trace
//! ```
//!
//! With no `--input`, the instrumented demo scenario is run in-process
//! under both policies and the full report set is written to the output
//! directory: per policy, the Perfetto trace (`trace_<policy>.json`), the
//! metric snapshot (`metrics_<policy>.json`), blame CSVs, timelines and
//! forensics; plus the aggregate summary and the request-aligned diff.
//! With `--input`, a Chrome/Perfetto `trace_event` JSON artifact (such as
//! a `trace_<policy>.json` from demo mode) is analyzed on its own — no
//! diff, since a single artifact has nothing to align against.
//!
//! stdout carries only the aggregate blame-summary CSV, so
//! `trace_analyze | ...` pipes machine-clean data; human-readable tables
//! and `[report] path` echoes go to stderr. Every analysis self-checks
//! that each request's blame categories sum exactly to its span total and
//! exits 1 if not.
//!
//! `--assert-zero-stall` additionally exits 1 unless the SAIs run's
//! migration-stall blame is exactly zero while the baseline's is not —
//! the paper's causal claim as a CI assertion.
//!
//! `--faults` runs the demo with the option-stripping middlebox active on
//! every flow, and `--assert-nonzero-stall` is its CI counterpart: exit 1
//! unless the hintless SAIs run pays a nonzero migration stall — the
//! graceful-degradation claim (SAIs without its hint channel behaves like
//! RSS, it does not break) as an assertion.
//!
//! `--flaky` runs the demo with heavy random header corruption instead:
//! per-batch hint loss makes SAIs degrade and re-promote the same flows
//! over and over — a steering livelock. `--assert-no-flapping` folds the
//! run's windowed telemetry through the streaming detectors and exits 1
//! if any steering-livelock episode was found: green on the clean demo,
//! red under `--flaky` (the seeded counterexample CI runs to prove the
//! gate can fail).

use sais_bench::analysis::{self, DemoAnalysis};
use sais_core::scenario::PolicyChoice;
use sais_obs::analyze::{BlameCategory, Trace};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: trace_analyze [--input <trace.json>] [--out-dir <dir>] \
[--bins <n>] [--faults] [--flaky] [--assert-zero-stall] [--assert-nonzero-stall] [--assert-no-flapping]\n\
  --input <trace.json>  analyze an exported Perfetto trace instead of running the demo\n\
  --out-dir <dir>       where reports land (default: target/experiments/analysis)\n\
  --bins <n>            timeline bins (default: 60)\n\
  --faults              run the demo with an option-stripping middlebox on every flow\n\
  --flaky               run the demo with heavy header corruption (per-batch hint loss)\n\
  --assert-zero-stall   exit 1 unless SAIs migration_stall is exactly 0 and the baseline's is not\n\
  --assert-nonzero-stall  (with --faults) exit 1 unless hintless SAIs pays migration stalls\n\
  --assert-no-flapping  exit 1 if the telemetry detectors find a steering-livelock episode";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut input: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut bins = analysis::TIMELINE_BINS;
    let mut assert_zero_stall = false;
    let mut assert_nonzero_stall = false;
    let mut assert_no_flapping = false;
    let mut faults = false;
    let mut flaky = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--input" => match args.next() {
                Some(p) => input = Some(PathBuf::from(p)),
                None => usage_error("`--input` requires a path argument"),
            },
            "--out-dir" => match args.next() {
                Some(p) => out_dir = Some(PathBuf::from(p)),
                None => usage_error("`--out-dir` requires a path argument"),
            },
            "--bins" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => bins = n,
                _ => usage_error("`--bins` requires a positive integer"),
            },
            "--faults" => faults = true,
            "--flaky" => flaky = true,
            "--assert-zero-stall" => assert_zero_stall = true,
            "--assert-nonzero-stall" => assert_nonzero_stall = true,
            "--assert-no-flapping" => assert_no_flapping = true,
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if (assert_zero_stall || assert_nonzero_stall || assert_no_flapping || faults || flaky)
        && input.is_some()
    {
        usage_error("`--faults`/`--flaky` and the assertions need the demo mode (no --input)");
    }
    if faults && flaky {
        usage_error("`--faults` and `--flaky` are mutually exclusive fault plans");
    }
    if assert_zero_stall && (faults || flaky) {
        usage_error("`--assert-zero-stall` is a clean-demo assertion; with `--faults` use `--assert-nonzero-stall`");
    }
    if assert_nonzero_stall && !faults {
        usage_error("`--assert-nonzero-stall` requires `--faults`");
    }
    let out_dir =
        out_dir.unwrap_or_else(|| sais_bench::harness::experiments_dir().join("analysis"));

    match input {
        Some(path) => analyze_artifact(&path, &out_dir, bins),
        None => analyze_demo(
            &out_dir,
            bins,
            faults,
            flaky,
            assert_zero_stall,
            assert_nonzero_stall,
            assert_no_flapping,
        ),
    }
}

/// Artifact mode: load one exported trace and report on it alone.
fn analyze_artifact(path: &Path, out_dir: &Path, bins: usize) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    let trace = Trace::from_chrome_json(&text)
        .unwrap_or_else(|e| fail(&format!("{} is not a loadable trace: {e}", path.display())));
    let r = analysis::analyze_trace(PolicyChoice::SourceAware, trace, bins);
    analysis::check_blame_sums(&r.blames).unwrap_or_else(|e| fail(&e));
    const LABEL: &str = "artifact";
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        fail(&format!("cannot create {}: {e}", out_dir.display()));
    }
    for (name, body) in [
        (
            format!("blame_{LABEL}.csv"),
            sais_obs::analyze::blame::to_csv(&r.blames),
        ),
        (format!("timeline_{LABEL}.csv"), r.timeline.to_csv()),
        (format!("timeline_{LABEL}.txt"), r.timeline.render()),
        (
            format!("forensics_{LABEL}.txt"),
            sais_obs::analyze::tail_report(
                &r.blames,
                analysis::TAIL_QUANTILE,
                analysis::TAIL_MAX_SHOWN,
            ),
        ),
    ] {
        let p = out_dir.join(name);
        std::fs::write(&p, body)
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", p.display())));
        eprintln!("[report] {}", p.display());
    }
    eprintln!("\n{}", analysis::summary_text(LABEL, &r.table));
    print!("{}", analysis::summary_csv(&[(LABEL, &r.table)]));
}

/// Demo mode: run RoundRobin vs SAIs in-process and report on both.
fn analyze_demo(
    out_dir: &Path,
    bins: usize,
    faults: bool,
    flaky: bool,
    assert_zero_stall: bool,
    assert_nonzero_stall: bool,
    assert_no_flapping: bool,
) {
    let a: DemoAnalysis = if faults {
        eprintln!("running demo scenario under RoundRobin and SAIs (option-stripping middlebox on every flow) ...");
        analysis::analyze_demo_faulted(PolicyChoice::RoundRobin, PolicyChoice::SourceAware, bins)
    } else if flaky {
        eprintln!("running demo scenario under RoundRobin and SAIs (heavy header corruption, per-batch hint loss) ...");
        analysis::analyze_demo_flaky(PolicyChoice::RoundRobin, PolicyChoice::SourceAware, bins)
    } else {
        eprintln!("running demo scenario under RoundRobin and SAIs ...");
        analysis::analyze_demo(PolicyChoice::RoundRobin, PolicyChoice::SourceAware, bins)
    };
    analysis::check_blame_sums(&a.base.blames).unwrap_or_else(|e| fail(&e));
    analysis::check_blame_sums(&a.cand.blames).unwrap_or_else(|e| fail(&e));
    match analysis::write_reports(out_dir, &a) {
        Ok(files) => {
            for f in files {
                eprintln!("[report] {}", f.display());
            }
        }
        Err(e) => fail(&format!(
            "cannot write reports to {}: {e}",
            out_dir.display()
        )),
    }
    for r in [&a.base, &a.cand] {
        eprintln!("\n{}", analysis::summary_text(r.policy.label(), &r.table));
    }
    eprintln!(
        "diff {} → {}: total {:+} ns over {} aligned requests, dominant shift: {} ({} flagged)",
        a.base.policy.label(),
        a.cand.policy.label(),
        a.diff.delta_total_ns,
        a.diff.aligned.len(),
        a.diff.dominant().name(),
        a.diff.flagged().count(),
    );
    print!(
        "{}",
        analysis::summary_csv(&[
            (a.base.policy.label(), &a.base.table),
            (a.cand.policy.label(), &a.cand.table),
        ])
    );
    if assert_zero_stall {
        let cand_stall = a.cand.table.get(BlameCategory::MigrationStall);
        let base_stall = a.base.table.get(BlameCategory::MigrationStall);
        if cand_stall != 0 {
            fail(&format!(
                "{} migration_stall is {} ns, expected exactly 0",
                a.cand.policy.label(),
                cand_stall
            ));
        }
        if base_stall == 0 {
            fail(&format!(
                "{} migration_stall is 0 ns — the baseline should pay stalls",
                a.base.policy.label()
            ));
        }
        eprintln!(
            "zero-stall assertion holds: {} pays {} ns of migration_stall, {} pays none",
            a.base.policy.label(),
            base_stall,
            a.cand.policy.label()
        );
    }
    if assert_nonzero_stall {
        let cand_stall = a.cand.table.get(BlameCategory::MigrationStall);
        if cand_stall == 0 {
            fail(&format!(
                "{} migration_stall is 0 ns under the option-stripping middlebox — \
                 degradation to RSS-style steering should reintroduce stalls",
                a.cand.policy.label()
            ));
        }
        eprintln!(
            "nonzero-stall assertion holds: hintless {} pays {} ns of migration_stall",
            a.cand.policy.label(),
            cand_stall
        );
    }
    if assert_no_flapping {
        // The demo config has the telemetry sampler on (ObsConfig::full),
        // so the SAIs run already folded its windows through the
        // streaming detectors — the verdicts ride on the report.
        for v in &a.cand.verdicts {
            eprintln!("[verdict] {}: {v}", a.cand.policy.label());
        }
        let flaps = a
            .cand
            .verdicts
            .iter()
            .filter(|v| v.kind() == "steering_livelock")
            .count();
        if flaps > 0 {
            fail(&format!(
                "{} steering-livelock episode(s) over {} telemetry windows — \
                 the hint channel is flapping between degrade and re-promote",
                flaps, a.cand.telemetry_windows
            ));
        }
        eprintln!(
            "no-flapping assertion holds: {} telemetry windows, 0 steering-livelock episodes",
            a.cand.telemetry_windows
        );
    }
}
