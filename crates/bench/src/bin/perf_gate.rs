//! The performance gate: run the benchmark declared in `BENCHMARK.json`
//! on two builds and fail when the second one regresses.
//!
//! ```text
//! perf_gate <parent-perfbench> <change-perfbench>
//! ```
//!
//! Each argument is a `perfbench` binary built in its own tree
//! (`cargo build --release --manifest-path perfbench/Cargo.toml`). For
//! every workload in `BENCHMARK.json` the gate runs [`PAIRS`] pairs of
//! invocations, alternating which side runs first, and takes each side's
//! median of every `end_to_end` metric. A metric regresses when the
//! change's median is worse than the parent's by more than the metric's
//! `bound`, taken relative to the parent's median. Standard output is
//! one row per (workload, metric); progress goes to standard error.
//!
//! Exit status: 0 pass; 3 a metric regressed; 1 a run exited non-zero,
//! printed a malformed result line or reported `"correct": false`, or
//! the change failed a larger share of its runs than the parent; 2 usage.

use sais_obs::json::JsonValue;
use std::process::{Command, ExitCode};

/// Pairs per workload. One pair of identical binaries differed by up to
/// 70% in `wall_s` on a 2-core KVM guest, so the verdict rests on medians
/// of ten alternating pairs, as every host-speed change here has.
const PAIRS: usize = 10;
/// Seconds per invocation. Longer runs do not narrow the spread: at
/// 10 s identical binaries still differed by 12.6% in median
/// `paper_sweep` `wall_s`, and at 3 s a gate run takes about four
/// minutes.
const SECONDS: &str = "3";
/// The seed whose digests CI pins, so both sides simulate the same runs.
const SEED: &str = "1";
/// The benchmark's declaration: workloads and end-to-end metrics.
const BENCHMARK: &str = include_str!("../../../../BENCHMARK.json");

/// An `end_to_end` metric of `BENCHMARK.json`.
struct Metric {
    name: String,
    higher_is_better: bool,
    /// Largest allowed worsening of the median, relative to the parent's.
    bound: f64,
}

/// The workload names and end-to-end metrics `BENCHMARK.json` declares.
fn read_benchmark(text: &str) -> Option<(Vec<String>, Vec<Metric>)> {
    let doc = JsonValue::parse(text).ok()?;
    let list = |key| doc.get(key).and_then(JsonValue::as_array);
    let name = |v: &JsonValue| Some(v.get("name")?.as_str()?.to_owned());
    let workloads = list("workloads")?.iter().map(name).collect::<Option<_>>()?;
    let metrics = list("end_to_end")?
        .iter()
        .map(|m| {
            Some(Metric {
                name: name(m)?,
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<_>>()?;
    Some((workloads, metrics))
}

/// One `perfbench` invocation's result line.
struct Sample {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// The `end_to_end` metrics' values, in `BENCHMARK.json` order.
    values: Vec<f64>,
}

/// Read the result line, the last non-empty line of `stdout`.
fn parse_sample(stdout: &str, metrics: &[Metric]) -> Option<Sample> {
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty())?;
    let doc = JsonValue::parse(line).ok()?;
    let reported = doc.get("metrics")?;
    Some(Sample {
        correct: match doc.get("correct")? {
            JsonValue::Bool(b) => *b,
            _ => return None,
        },
        attempted: doc.get("attempted")?.as_f64()?,
        failed: doc.get("failed")?.as_f64()?,
        values: metrics
            .iter()
            .map(|m| reported.get(&m.name)?.get("value")?.as_f64())
            .collect::<Option<_>>()?,
    })
}

/// Run one `perfbench` invocation of `workload`.
fn run(bin: &str, workload: &str, metrics: &[Metric]) -> Result<Sample, String> {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", SEED])
        .args(["--seconds", SECONDS, "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot run {bin}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!("{bin} exited with {}: {stderr}", out.status));
    }
    match parse_sample(&stdout, metrics) {
        Some(sample) if sample.correct => Ok(sample),
        Some(_) => Err(format!("{bin} reported \"correct\": false: {stderr}")),
        None => Err(format!("{bin} printed a malformed result line: {stdout}")),
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    (xs[(xs.len() - 1) / 2] + xs[xs.len() / 2]) / 2.0
}

/// The verdict on one metric's medians: the row to print, and whether
/// the change regressed by more than the metric's bound.
fn verdict(workload: &str, m: &Metric, parent: f64, change: f64) -> (String, bool) {
    // A zero parent median (a gain error can be exact) divides by the
    // smallest positive float: equal is 0, any worsening fails.
    let relative = (change - parent) / parent.abs().max(f64::MIN_POSITIVE);
    let sign = if m.higher_is_better { -1.0 } else { 1.0 };
    let regressed = sign * relative > m.bound;
    let row = format!(
        "{workload:<15} {:<17} {parent:>12.4} {change:>12.4} {:>+8.1}% {:>5.0}%  {}",
        m.name,
        relative * 100.0,
        m.bound * 100.0,
        if regressed { "FAIL" } else { "ok" }
    );
    (row, regressed)
}

/// Judge one workload from each side's samples: a row per metric, and
/// a fault when the change failed a larger share of its runs.
fn judge(
    workload: &str,
    metrics: &[Metric],
    parent: &[Sample],
    change: &[Sample],
) -> (Vec<(String, bool)>, Option<String>) {
    let rows = metrics
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let [p, c] =
                [parent, change].map(|side| median(side.iter().map(|s| s.values[i]).collect()));
            verdict(workload, m, p, c)
        })
        .collect();
    let share = |samples: &[Sample]| {
        let failed: f64 = samples.iter().map(|s| s.failed).sum();
        failed / samples.iter().map(|s| s.attempted).sum::<f64>().max(1.0)
    };
    let (p, c) = (share(parent), share(change));
    let fault = (c > p)
        .then(|| format!("{workload}: the change failed {c:.4} of its runs, the parent {p:.4}"));
    (rows, fault)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [parent, change] = args.as_slice() else {
        eprintln!("usage: perf_gate <parent-perfbench> <change-perfbench>");
        return ExitCode::from(2);
    };
    let (workloads, metrics) = read_benchmark(BENCHMARK).expect("BENCHMARK.json is well-formed");
    println!(
        "{:<15} {:<17} {:>12} {:>12} {:>9} {:>6}  verdict",
        "workload", "metric", "parent", "change", "change", "bound"
    );
    let (mut regressed, mut faulted) = (false, false);
    for workload in &workloads {
        let mut sides: [Vec<Sample>; 2] = Default::default();
        for pair in 1..=PAIRS {
            // The side that runs first alternates, so a drift in host
            // speed over the pairs reaches both sides alike.
            for side in [1 - pair % 2, pair % 2] {
                match run([parent, change][side], workload, &metrics) {
                    Ok(sample) => sides[side].push(sample),
                    Err(e) => {
                        eprintln!("perf_gate: {workload}: {e}");
                        return ExitCode::from(1);
                    }
                }
            }
            // Each pair's first metric, so a verdict traces back to its runs.
            let [p, c] = sides.each_ref().map(|s| s[pair - 1].values[0]);
            let name = &metrics[0].name;
            eprintln!("[perf_gate] {workload} pair {pair}/{PAIRS}: {name} {p:.4} {c:.4}");
        }
        let (rows, fault) = judge(workload, &metrics, &sides[0], &sides[1]);
        for (row, row_regressed) in rows {
            println!("{row}");
            regressed |= row_regressed;
        }
        faulted |= fault.inspect(|f| eprintln!("perf_gate: {f}")).is_some();
    }
    if faulted {
        ExitCode::from(1)
    } else if regressed {
        eprintln!("perf_gate: a metric regressed beyond its BENCHMARK.json bound");
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten samples of every end-to-end metric, spread around 1, with the
    /// metric `worse.0` scaled by `worse.1`.
    fn samples(worse: (&str, f64)) -> Vec<Sample> {
        let (_, metrics) = read_benchmark(BENCHMARK).unwrap();
        (0..PAIRS)
            .map(|i| Sample {
                correct: true,
                attempted: 100.0,
                failed: 0.0,
                values: metrics
                    .iter()
                    .map(|m| {
                        let scale = if m.name == worse.0 { worse.1 } else { 1.0 };
                        scale * (1.0 + 0.01 * i as f64)
                    })
                    .collect(),
            })
            .collect()
    }

    /// The rows `paper_sweep` fails when `worse` scales one metric.
    fn failing(worse: (&str, f64)) -> Vec<String> {
        let (_, metrics) = read_benchmark(BENCHMARK).unwrap();
        let (rows, fault) = judge(
            "paper_sweep",
            &metrics,
            &samples(("", 1.0)),
            &samples(worse),
        );
        assert!(fault.is_none() && rows.len() == 8, "{fault:?}");
        rows.into_iter().filter(|r| r.1).map(|r| r.0).collect()
    }

    #[test]
    fn identical_samples_pass() {
        assert!(failing(("", 1.0)).is_empty());
    }

    #[test]
    fn wall_fails_thirty_percent_slower_naming_workload_and_metric_but_not_twenty() {
        let fails = failing(("wall_s", 1.3));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].starts_with("paper_sweep     wall_s"), "{fails:?}");
        assert!(fails[0].ends_with("FAIL"));
        assert!(failing(("wall_s", 1.2)).is_empty(), "inside the 0.25 bound");
    }

    #[test]
    fn six_percent_worse_gain_error_fails_under_its_five_percent_bound() {
        let fails = failing(("gain_err_3gig_pp", 1.06));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("gain_err_3gig_pp"));
        assert!(failing(("gain_err_3gig_pp", 1.04)).is_empty());
    }

    #[test]
    fn higher_is_better_metrics_regress_downwards() {
        // `wall_s` is the first end-to-end metric, so the samples'
        // first value carries the scale.
        let up = [Metric {
            name: "wall_s".to_owned(),
            higher_is_better: true,
            bound: 0.25,
        }];
        let regressed =
            |scale| judge("w", &up, &samples(("", 1.0)), &samples(("wall_s", scale))).0[0].1;
        assert!(regressed(0.7) && !regressed(0.8) && !regressed(1.3));
    }
}
