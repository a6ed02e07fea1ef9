//! In-process trace analysis of the instrumented demo scenario.
//!
//! Runs the observability demo under two steering policies with the
//! flight recorder on, feeds both traces through `sais_obs::analyze`, and
//! writes the full report set (each run's Perfetto trace and metric
//! snapshot, per-request blame CSVs, an aggregate blame summary, the
//! policy diff, per-core timelines and tail forensics) to a directory.
//! This is the engine behind `trace_analyze`, and the code path CI uses
//! to assert the paper's causal claim mechanically: under SAIs the
//! `migration_stall` blame share is exactly zero, under balanced steering
//! it is not.

use sais_core::scenario::{FaultPlan, ObsConfig, PolicyChoice, ScenarioConfig};
use sais_obs::analyze::{
    blame_requests, diff_blames, tail_report, BlameCategory, BlameTable, CoreTimeline,
    RequestBlame, Trace, TraceDiff, CATEGORIES,
};
use sais_obs::TelemetryVerdict;
use std::fs;
use std::path::{Path, PathBuf};

/// Diff flag threshold: a request is flagged when its total moved more
/// than this fraction between runs.
pub const DIFF_THRESHOLD: f64 = 0.10;

/// Default number of timeline bins.
pub const TIMELINE_BINS: usize = 60;

/// Default tail quantile for forensics.
pub const TAIL_QUANTILE: f64 = 0.999;

/// Outliers shown per forensics report.
pub const TAIL_MAX_SHOWN: usize = 8;

/// The fully instrumented demo scenario under a specific steering
/// policy: the paper's 3-Gigabit testbed shrunk to seconds of host time,
/// with spans, stage histograms and the telemetry sampler on. The
/// scenario and seed are the same for every policy, so traces align
/// request by request.
pub fn demo_config(policy: PolicyChoice) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::testbed_3gig(8, 512 << 10);
    cfg.file_size = 4 << 20;
    cfg.with_policy(policy)
        .with_observability(ObsConfig::full())
}

/// The demo scenario with an option-stripping middlebox on every flow —
/// the degraded-mode counterpart of [`demo_config`]. SAIs loses its hint
/// channel entirely, falls back to RSS-style per-flow steering, and the
/// `migration_stall` blame category reappears in its trace.
pub fn faulted_demo_config(policy: PolicyChoice) -> ScenarioConfig {
    demo_config(policy).with_faults(FaultPlan {
        option_strip: 1.0,
        ..FaultPlan::none()
    })
}

/// The demo scenario with heavy random header corruption — per-*batch*
/// hint loss, so the same flow keeps crossing the degrade threshold and
/// getting re-promoted by the next clean batch. This is the steering
/// livelock the flapping detector exists for, and the seeded red case
/// behind `trace_analyze --flaky`: `--assert-no-flapping` must go red on
/// it (option stripping cannot flap — it is per-flow stable).
pub fn flaky_demo_config(policy: PolicyChoice) -> ScenarioConfig {
    demo_config(policy).with_faults(FaultPlan {
        corruption: 0.5,
        ..FaultPlan::none()
    })
}

/// One policy's run, trace and derived analyses.
pub struct PolicyReport {
    /// The steering policy analyzed.
    pub policy: PolicyChoice,
    /// The run's span forest.
    pub trace: Trace,
    /// Per-request blame breakdowns.
    pub blames: Vec<RequestBlame>,
    /// Aggregate blame over the run.
    pub table: BlameTable,
    /// Per-core activity timeline.
    pub timeline: CoreTimeline,
    /// Verdicts the run's streaming telemetry detectors reached (empty
    /// when analyzing an imported trace artifact — no run, no windows).
    pub verdicts: Vec<TelemetryVerdict>,
    /// Telemetry windows the run retained (0 for trace artifacts).
    pub telemetry_windows: usize,
    /// The run's Perfetto `trace_event` JSON (empty for trace artifacts).
    pub trace_json: String,
    /// The run's `sais-metrics-snapshot/v1` JSON (empty for trace
    /// artifacts).
    pub metrics_json: String,
}

/// Run the demo scenario under `policy` and analyze its trace. Panics if
/// the recorded span forest fails the integrity check — an analysis of a
/// malformed trace would be quietly wrong.
pub fn analyze_policy(policy: PolicyChoice, bins: usize) -> PolicyReport {
    analyze_config(demo_config(policy), bins)
}

/// [`analyze_policy`] for an arbitrary instrumented scenario (e.g. the
/// faulted demo). The config must have spans enabled.
pub fn analyze_config(cfg: ScenarioConfig, bins: usize) -> PolicyReport {
    let policy = cfg.policy;
    let (run, cluster) = cfg.run_full();
    crate::harness::warn_span_drops(cluster.recorder());
    cluster
        .recorder()
        .check_integrity()
        .unwrap_or_else(|e| panic!("{} trace failed integrity check: {e}", policy.label()));
    let trace = Trace::from_recorder(cluster.recorder());
    let mut report = analyze_trace(policy, trace, bins);
    report.trace_json = sais_obs::perfetto::to_chrome_json(cluster.recorder());
    report.metrics_json = cluster.snapshot_metrics(run.wall_time).to_json();
    report.verdicts = run.telemetry_verdicts;
    report.telemetry_windows = run.telemetry.len();
    report
}

/// Analyze an already-loaded trace (the artifact path of `trace_analyze`).
pub fn analyze_trace(policy: PolicyChoice, trace: Trace, bins: usize) -> PolicyReport {
    let blames = blame_requests(&trace);
    let table = BlameTable::aggregate(&blames);
    let timeline = CoreTimeline::build(&trace, bins);
    PolicyReport {
        policy,
        trace,
        blames,
        table,
        timeline,
        verdicts: Vec::new(),
        telemetry_windows: 0,
        trace_json: String::new(),
        metrics_json: String::new(),
    }
}

/// A two-policy comparison of the demo scenario.
pub struct DemoAnalysis {
    /// The baseline policy's report.
    pub base: PolicyReport,
    /// The candidate policy's report.
    pub cand: PolicyReport,
    /// Request-aligned diff, baseline → candidate.
    pub diff: TraceDiff,
}

/// Run and analyze the demo under both policies and diff them.
pub fn analyze_demo(base: PolicyChoice, cand: PolicyChoice, bins: usize) -> DemoAnalysis {
    let base = analyze_policy(base, bins);
    let cand = analyze_policy(cand, bins);
    let diff = diff_blames(&base.blames, &cand.blames, DIFF_THRESHOLD);
    DemoAnalysis { base, cand, diff }
}

/// [`analyze_demo`] with the option-stripping middlebox active on every
/// flow ([`faulted_demo_config`]): the degraded-mode comparison behind
/// `trace_analyze --faults`.
pub fn analyze_demo_faulted(base: PolicyChoice, cand: PolicyChoice, bins: usize) -> DemoAnalysis {
    let base = analyze_config(faulted_demo_config(base), bins);
    let cand = analyze_config(faulted_demo_config(cand), bins);
    let diff = diff_blames(&base.blames, &cand.blames, DIFF_THRESHOLD);
    DemoAnalysis { base, cand, diff }
}

/// [`analyze_demo`] under [`flaky_demo_config`]'s corruption plan — the
/// steering-livelock red case behind `trace_analyze --flaky`.
pub fn analyze_demo_flaky(base: PolicyChoice, cand: PolicyChoice, bins: usize) -> DemoAnalysis {
    let base = analyze_config(flaky_demo_config(base), bins);
    let cand = analyze_config(flaky_demo_config(cand), bins);
    let diff = diff_blames(&base.blames, &cand.blames, DIFF_THRESHOLD);
    DemoAnalysis { base, cand, diff }
}

/// Aggregate blame shares of several runs as CSV: one row per
/// (label, category) with nanoseconds and share of the run total.
pub fn summary_csv(tables: &[(&str, &BlameTable)]) -> String {
    let mut s = String::from("policy,requests,total_ns,category,ns,share\n");
    for (label, t) in tables {
        for cat in CATEGORIES {
            s.push_str(&format!(
                "{},{},{},{},{},{:.6}\n",
                label,
                t.requests,
                t.total_ns,
                cat.name(),
                t.get(cat),
                t.share(cat),
            ));
        }
    }
    s
}

/// Render one run's aggregate blame as an aligned text table.
pub fn summary_text(label: &str, t: &BlameTable) -> String {
    let mut s = format!(
        "{label}: {} requests, {} ns total on critical paths\n",
        t.requests, t.total_ns
    );
    for cat in CATEGORIES {
        s.push_str(&format!(
            "  {:<15} {:>15} ns  {:>6.2}%\n",
            cat.name(),
            t.get(cat),
            t.share(cat) * 100.0
        ));
    }
    s
}

/// Write the full report set for a demo analysis into `dir` (created if
/// missing). Returns the files written.
pub fn write_reports(dir: &Path, a: &DemoAnalysis) -> std::io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let mut put = |name: String, body: &str| -> std::io::Result<()> {
        let path = dir.join(name);
        fs::write(&path, body)?;
        written.push(path);
        Ok(())
    };
    for r in [&a.base, &a.cand] {
        let label = r.policy.label();
        put(format!("trace_{label}.json"), &r.trace_json)?;
        put(format!("metrics_{label}.json"), &r.metrics_json)?;
        put(
            format!("blame_{label}.csv"),
            &sais_obs::analyze::blame::to_csv(&r.blames),
        )?;
        put(format!("timeline_{label}.csv"), &r.timeline.to_csv())?;
        put(format!("timeline_{label}.txt"), &r.timeline.render())?;
        put(
            format!("forensics_{label}.txt"),
            &tail_report(&r.blames, TAIL_QUANTILE, TAIL_MAX_SHOWN),
        )?;
    }
    put(
        "blame_summary.csv".into(),
        &summary_csv(&[
            (a.base.policy.label(), &a.base.table),
            (a.cand.policy.label(), &a.cand.table),
        ]),
    )?;
    put(
        format!(
            "diff_{}_vs_{}.csv",
            a.base.policy.label(),
            a.cand.policy.label()
        ),
        &a.diff.to_csv(),
    )?;
    Ok(written)
}

/// Self-check every report must pass: each request's blame categories sum
/// exactly to its total. Returns the first violating request.
pub fn check_blame_sums(blames: &[RequestBlame]) -> Result<(), String> {
    for b in blames {
        if b.sum_ns() != b.total_ns {
            return Err(format!(
                "request pid {} lane {} seq {}: categories sum to {} ns but total is {} ns",
                b.pid,
                b.tid,
                b.seq,
                b.sum_ns(),
                b.total_ns
            ));
        }
    }
    Ok(())
}

/// The migration-stall share of a report — the category SAIs deletes.
pub fn stall_share(r: &PolicyReport) -> f64 {
    r.table.share(BlameCategory::MigrationStall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_config_keeps_scenario_fixed_across_policies() {
        let a = demo_config(PolicyChoice::RoundRobin);
        let b = demo_config(PolicyChoice::SourceAware);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.file_size, b.file_size);
        assert_ne!(a.policy, b.policy);
        a.validate().expect("demo config validates");
        assert!(a.obs.spans && a.obs.stages && a.obs.timeseries);
    }

    #[test]
    fn summary_csv_has_one_row_per_policy_category() {
        let r = analyze_policy(PolicyChoice::SourceAware, 10);
        let csv = summary_csv(&[(r.policy.label(), &r.table)]);
        assert_eq!(csv.lines().count(), 1 + CATEGORIES.len());
        assert!(csv.contains("SAIs,"), "{csv}");
        assert!(summary_text(r.policy.label(), &r.table).contains("migration_stall"));
    }
}
