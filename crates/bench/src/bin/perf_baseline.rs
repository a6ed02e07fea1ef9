//! Measure engine throughput on the canonical scenarios, maintain the
//! perf trajectory, and refresh the committed baseline.
//!
//! ```text
//! cargo run --release -p sais-bench --bin perf_baseline              # measure + rewrite BENCH_engine.json + append history
//! cargo run --release -p sais-bench --bin perf_baseline -- --check   # measure + compare to committed baseline only
//! cargo run --release -p sais-bench --bin perf_baseline -- --compare # gate: exit 3 on >20% drop vs best recorded run
//! ```
//!
//! `--compare` never rewrites `BENCH_engine.json`; it compares the fresh
//! measurement against the best run recorded in `BENCH_history.jsonl`
//! (schema `sais-perf-history/v1`), appends the measurement to the
//! history, and exits 3 if any scenario's events/sec regressed more than
//! 20 % — or its `mem` phase self-time rose more than 20 % above the
//! lowest recorded — the CI gate for the engine's performance
//! trajectory. The default mode also appends to the history, so every
//! baseline refresh extends the trajectory, and additionally runs the
//! memory-regime microbench whose ns/line figures are recorded in the
//! baseline's additive `"microtouch"` section.
//!
//! `--trace <path>` / `--metrics <path>` additionally export a Perfetto
//! trace and a metric snapshot of the instrumented demo scenario, so a
//! perf investigation starts with the same artifacts the figure binaries
//! produce. `--timeseries <path>` exports the demo scenario's windowed
//! telemetry as `sais-timeseries/v1` JSONL with sparklines on stderr,
//! matching the figure binaries' flag. `--profile <path>` turns on the
//! host-side zone profiler for the whole process and writes the
//! `sais-hostprof/v1` report (plus `.folded` collapsed stacks and a
//! top-N table on stderr) — bit-inert for all measurement outputs except
//! that the timed reps always run unprofiled either way.
//!
//! Environment: `SAIS_BENCH_HISTORY` relocates the history file;
//! `SAIS_PERF_SYNTHETIC=<events/sec>` replaces measurement with fabricated
//! results (test hook for the gate's exit-code contract).

use sais_bench::perf;
use std::path::PathBuf;

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perf_baseline [--check | --compare] [--trace <path>] [--metrics <path>] [--timeseries <path>] [--profile <path>]"
    );
    std::process::exit(2);
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn main() {
    let mut check_only = false;
    let mut compare = false;
    let mut trace: Option<PathBuf> = None;
    let mut metrics: Option<PathBuf> = None;
    let mut timeseries: Option<PathBuf> = None;
    let mut profile: Option<PathBuf> = None;
    // Strict parsing: the no-argument mode overwrites the committed
    // baseline, so a typo'd flag must not silently fall through to it.
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check_only = true,
            "--compare" => compare = true,
            "--trace" => match args.next() {
                Some(p) => trace = Some(PathBuf::from(p)),
                None => usage_error("`--trace` requires a path argument"),
            },
            "--metrics" => match args.next() {
                Some(p) => metrics = Some(PathBuf::from(p)),
                None => usage_error("`--metrics` requires a path argument"),
            },
            "--timeseries" => match args.next() {
                Some(p) => timeseries = Some(PathBuf::from(p)),
                None => usage_error("`--timeseries` requires a path argument"),
            },
            "--profile" => match args.next() {
                Some(p) => profile = Some(PathBuf::from(p)),
                None => usage_error("`--profile` requires a path argument"),
            },
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if check_only && compare {
        usage_error("`--check` and `--compare` are mutually exclusive");
    }
    sais_prof::set_enabled(profile.is_some());
    // perf_baseline measures on the main thread, so the work-stealing
    // executor never spins up on its own — run a calibrated probe pool
    // so the per-worker fairness counters in the baseline (and the
    // profile's executor section) describe this host with a meaningful
    // busy/idle split rather than staying empty.
    sais_bench::executor::run_probe_pool(64);
    let results = match std::env::var("SAIS_PERF_SYNTHETIC") {
        Ok(eps) => {
            let eps: f64 = eps
                .parse()
                .unwrap_or_else(|_| usage_error("SAIS_PERF_SYNTHETIC must be a number"));
            eprintln!("SAIS_PERF_SYNTHETIC={eps}: fabricating results, skipping measurement");
            perf::synthetic_results(eps)
        }
        Err(_) => {
            if cfg!(debug_assertions) {
                eprintln!("warning: debug build — timings will not reflect the optimized engine");
            }
            // Best-of-5: the gate is blocking in CI, and shared runners
            // are noisy enough that best-of-3 still tripped on host
            // scheduling artifacts.
            perf::measure_all(5)
        }
    };
    if let Some(baseline) = perf::read_baseline() {
        eprintln!(
            "\nvs committed baseline ({}):",
            perf::baseline_path().display()
        );
        for r in &results {
            if let Some((_, _, eps)) = baseline.iter().find(|(n, _, _)| n == r.name) {
                eprintln!(
                    "{:18} {:>+7.1}%  ({:.0} → {:.0} events/s)",
                    r.name,
                    (r.events_per_sec / eps - 1.0) * 100.0,
                    eps,
                    r.events_per_sec
                );
            }
        }
    }
    if trace.is_some() || metrics.is_some() {
        sais_bench::harness::write_observability(trace.as_deref(), metrics.as_deref());
    }
    if let Some(path) = &timeseries {
        // perf_baseline runs no sweep grid, so this exports the demo
        // scenario's series (the collector's fallback source).
        sais_bench::timeseries::write_timeseries(path);
    }
    // Written before the early exits so every mode produces the artifact;
    // placed after the exports above so their zones are captured.
    if let Some(path) = &profile {
        sais_bench::profile::write_profile(path);
    }
    if check_only {
        return;
    }
    // The gate compares against the best *prior* run, then records this
    // one — appending first would make every run its own yardstick.
    let history = perf::history_path();
    if compare {
        let (best, skipped) = perf::history_best(&history);
        if skipped > 0 {
            eprintln!(
                "warning: skipped {skipped} unusable line(s) of {}",
                history.display()
            );
        }
        let verdict = perf::compare_to_best(&results, &best, perf::HISTORY_TOLERANCE);
        eprintln!("\nvs best recorded run ({}):", history.display());
        for line in &verdict.lines {
            eprintln!("{line}");
        }
        match perf::append_history(&history, &results, unix_ms()) {
            Ok(()) => eprintln!("[history] {}", history.display()),
            Err(e) => eprintln!("warning: could not append {}: {e}", history.display()),
        }
        if verdict.regressed {
            eprintln!(
                "error: regressed beyond tolerance vs the best recorded run \
                 (events/sec -{:.0}%, mem phase +{:.0}%)",
                perf::HISTORY_TOLERANCE * 100.0,
                perf::MEM_PHASE_TOLERANCE * 100.0
            );
            std::process::exit(3);
        }
        return;
    }
    match perf::append_history(&history, &results, unix_ms()) {
        Ok(()) => eprintln!("[history] {}", history.display()),
        Err(e) => eprintln!("warning: could not append {}: {e}", history.display()),
    }
    // The regime microbench rides along on every baseline refresh: ns/line
    // per steady-state touch regime, so scenario-level moves can be
    // attributed to a specific memory-hierarchy path.
    let regimes = sais_bench::microtouch::run_regimes();
    eprintln!();
    for r in &regimes {
        eprintln!(
            "microtouch {:16} {:>8.2} ns/line  ({} lines)",
            r.regime, r.ns_per_line, r.lines
        );
    }
    let path = perf::baseline_path();
    let exec = sais_bench::executor::executor_stats();
    std::fs::write(&path, perf::to_json(&results, &exec, &regimes)).expect("write baseline");
    eprintln!("\n[baseline] {}", path.display());
}
