//! Sweep execution, multi-seed averaging and result output.

use sais_core::scenario::{ObsConfig, PolicyChoice, RunMetrics, ScenarioConfig};
use sais_metrics::{Table, Welford};
use sais_obs::ProgressMeter;
use std::fs;
use std::path::{Path, PathBuf};

/// How big to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 64 MB files, one seed: seconds per figure. Used by `cargo bench`.
    Quick,
    /// 128 MB files, three seeds (the paper averages ≥3 runs).
    Default,
    /// 1 GB files, three seeds: minutes per figure.
    Full,
}

impl Scale {
    /// Per-client file size at this scale.
    pub fn file_size(self) -> u64 {
        match self {
            Scale::Quick => 64 << 20,
            Scale::Default => 128 << 20,
            Scale::Full => 1 << 30,
        }
    }

    /// Seeds (runs to average) at this scale.
    pub fn seeds(self) -> u64 {
        match self {
            Scale::Quick => 1,
            Scale::Default | Scale::Full => 3,
        }
    }
}

/// Parsed command line of a figure/table binary.
///
/// Every bench binary accepts the same strict flag set; anything
/// unrecognised is an error (exit code 2), so a typo like `--fulll` can
/// never silently fall back to the default scale and produce
/// wrong-but-plausible numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Experiment scale (`--quick` / `--full`; defaults to [`Scale::Default`]).
    pub scale: Scale,
    /// `--trace <path>`: after the figure, run the flight-recorder demo
    /// scenario and write a Chrome/Perfetto `trace_event` JSON there.
    pub trace: Option<PathBuf>,
    /// `--metrics <path>`: after the figure, write a metric snapshot of the
    /// demo scenario there (CSV if the path ends in `.csv`, JSON otherwise).
    pub metrics: Option<PathBuf>,
    /// `--analyze <dir>`: after the figure, run the two-policy demo trace
    /// analysis (RoundRobin vs SAIs) and write the report set there.
    pub analyze: Option<PathBuf>,
    /// `--timeseries <path>`: enable the windowed telemetry sampler on
    /// every sweep cell (bit-inert — the figure CSV does not move) and
    /// write the aggregated `sais-timeseries/v1` JSONL there; sparklines
    /// go to stderr. Binaries without a sweep grid export the demo
    /// scenario's series instead.
    pub timeseries: Option<PathBuf>,
    /// `--profile <path>`: enable the host-side zone profiler
    /// ([`sais_prof`]) for the whole run and write the
    /// `sais-hostprof/v2` report there (plus collapsed stacks next to it
    /// and a top-N self-time table on stderr). Bit-inert: the profiler
    /// only reads host clocks, so every CSV and JSONL is byte-identical
    /// with or without it — CI pins this.
    pub profile: Option<PathBuf>,
}

const BENCH_USAGE: &str =
    "usage: <figure-bin> [--quick | --full] [--trace <path>] [--metrics <path>] [--analyze <dir>] [--timeseries <path>] [--profile <path>]\n\
  --quick           64 MB files, 1 seed (fast smoke run)\n\
  --full            1 GB files, 3 seeds (paper scale)\n\
  --trace <path>    write a Perfetto trace of the demo scenario\n\
  --metrics <path>  write a metric snapshot (.csv => CSV, else JSON)\n\
  --analyze <dir>   write trace-analysis reports (blame/diff/timeline/forensics)\n\
  --timeseries <path>  write the windowed telemetry series as sais-timeseries/v1 JSONL\n\
  --profile <path>  write the host-side zone profile as sais-hostprof/v2 JSON (+ .folded stacks)";

impl BenchArgs {
    /// Parse `std::env::args()`, exiting with code 2 and a usage message on
    /// any unknown or malformed flag.
    pub fn parse() -> BenchArgs {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(args) => {
                crate::timeseries::set_collection_active(args.timeseries.is_some());
                // Turn the zone profiler on before any simulation runs so
                // the whole figure is covered.
                sais_prof::set_enabled(args.profile.is_some());
                args
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{BENCH_USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Strict parse of an argument list (testable core of [`BenchArgs::parse`]).
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<BenchArgs, String> {
        let mut out = BenchArgs {
            scale: Scale::Default,
            trace: None,
            metrics: None,
            analyze: None,
            timeseries: None,
            profile: None,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => out.scale = Scale::Quick,
                "--full" => out.scale = Scale::Full,
                "--trace" => {
                    let path = it.next().ok_or("`--trace` requires a path argument")?;
                    out.trace = Some(PathBuf::from(path));
                }
                "--metrics" => {
                    let path = it.next().ok_or("`--metrics` requires a path argument")?;
                    out.metrics = Some(PathBuf::from(path));
                }
                "--analyze" => {
                    let path = it
                        .next()
                        .ok_or("`--analyze` requires a directory argument")?;
                    out.analyze = Some(PathBuf::from(path));
                }
                "--timeseries" => {
                    let path = it.next().ok_or("`--timeseries` requires a path argument")?;
                    out.timeseries = Some(PathBuf::from(path));
                }
                "--profile" => {
                    let path = it.next().ok_or("`--profile` requires a path argument")?;
                    out.profile = Some(PathBuf::from(path));
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(out)
    }

    /// Write the requested observability artifacts (no-op when none of
    /// `--trace` / `--metrics` / `--analyze` was given). See
    /// [`write_observability`] and [`crate::analysis::write_reports`].
    pub fn emit_observability(&self) {
        if self.trace.is_some() || self.metrics.is_some() {
            write_observability(self.trace.as_deref(), self.metrics.as_deref());
        }
        if let Some(path) = &self.timeseries {
            sais_prof::zone!("export.timeseries");
            crate::timeseries::write_timeseries(path);
        }
        if let Some(dir) = &self.analyze {
            sais_prof::zone!("export.analyze");
            let a = crate::analysis::analyze_demo(
                PolicyChoice::RoundRobin,
                PolicyChoice::SourceAware,
                crate::analysis::TIMELINE_BINS,
            );
            match crate::analysis::write_reports(dir, &a) {
                Ok(files) => {
                    for f in files {
                        eprintln!("[report] {}", f.display());
                    }
                }
                Err(e) => eprintln!("warning: could not write reports to {}: {e}", dir.display()),
            }
        }
        // Last, so the profile captures every export zone above.
        if let Some(path) = &self.profile {
            crate::profile::write_profile(path);
        }
    }
}

/// The fully-instrumented demo scenario behind `--trace` / `--metrics`:
/// the paper's 3-Gigabit testbed under SAIs, shrunk to seconds of host
/// time, with spans and stage histograms on.
pub fn observability_demo_config() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::testbed_3gig(8, 512 << 10);
    cfg.file_size = 4 << 20;
    cfg.with_policy(PolicyChoice::SourceAware)
        .with_observability(ObsConfig::full())
}

/// Run [`observability_demo_config`] and export its flight-recorder trace
/// (Perfetto `trace_event` JSON) and/or metric snapshot. The snapshot format
/// follows the file extension: `.csv` gets CSV, anything else the
/// `sais-metrics-snapshot/v1` JSON schema. Paths are echoed to stderr in the
/// same `[kind] path` form [`emit`] uses for figure CSVs.
pub fn write_observability(trace: Option<&Path>, metrics: Option<&Path>) {
    let (run, cluster) = observability_demo_config().run_full();
    warn_span_drops(cluster.recorder());
    if let Some(path) = trace {
        sais_prof::zone!("export.trace");
        match sais_obs::perfetto::write_chrome_json(cluster.recorder(), path) {
            Ok(()) => eprintln!("[trace] {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    if let Some(path) = metrics {
        sais_prof::zone!("export.metrics");
        let snap = cluster.snapshot_metrics(run.wall_time);
        let body = if path.extension().is_some_and(|e| e == "csv") {
            snap.to_csv()
        } else {
            snap.to_json()
        };
        match fs::write(path, body) {
            Ok(()) => eprintln!("[metrics] {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

/// Surface flight-recorder span drops loudly: a trace that silently lost
/// spans analyzes as plausible-but-wrong (missing blame, holes in
/// timelines), so every consumer of a recorder warns on stderr with the
/// drop count and the knob that raises the ceiling.
pub fn warn_span_drops(recorder: &sais_obs::FlightRecorder) {
    if recorder.dropped() > 0 {
        eprintln!(
            "warning: flight recorder dropped {} span(s)/instant(s) at capacity ({} recorded) — \
             raise ObsConfig::span_capacity to keep the full trace",
            recorder.dropped(),
            recorder.recorded(),
        );
    }
}

/// Averaged metrics of one (config, policy) cell.
#[derive(Debug, Clone, Default)]
pub struct CellStats {
    /// Bandwidth in bytes/s across seeds.
    pub bw: Welford,
    /// L2 miss rate across seeds.
    pub miss: Welford,
    /// CPU utilization across seeds.
    pub util: Welford,
    /// Unhalted cycles across seeds.
    pub unhalted: Welford,
    /// Strip migrations across seeds.
    pub migrations: Welford,
}

/// The statistics a sweep folds per run, in fold order.
type Sample = [f64; 5];

/// Extract the folded statistics from one run.
fn sample_of(m: &RunMetrics) -> Sample {
    [
        m.bandwidth_bytes_per_sec(),
        m.l2_miss_rate,
        m.cpu_utilization,
        m.unhalted_cycles as f64,
        m.strip_migrations as f64,
    ]
}

impl CellStats {
    fn push_sample(&mut self, s: &Sample) {
        self.bw.push(s[0]);
        self.miss.push(s[1]);
        self.util.push(s[2]);
        self.unhalted.push(s[3]);
        self.migrations.push(s[4]);
    }
}

/// A sweep runner comparing two policies cell by cell.
pub struct Sweep {
    scale: Scale,
    baseline: PolicyChoice,
    candidate: PolicyChoice,
}

impl Sweep {
    /// The paper's comparison: irqbalance baseline vs SAIs.
    pub fn paper(scale: Scale) -> Self {
        Sweep {
            scale,
            baseline: PolicyChoice::LowestLoaded,
            candidate: PolicyChoice::SourceAware,
        }
    }

    /// Compare arbitrary policies.
    pub fn of(scale: Scale, baseline: PolicyChoice, candidate: PolicyChoice) -> Self {
        Sweep {
            scale,
            baseline,
            candidate,
        }
    }

    /// The scale in use.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Run one cell under both policies, averaging over seeds. The config's
    /// `file_size` is overridden by the scale. A one-cell grid through the
    /// same flattened executor as [`Sweep::run_cells`], without progress
    /// reporting.
    pub fn run_cell(&self, cfg: ScenarioConfig) -> (CellStats, CellStats) {
        self.run_grid(None, vec![cfg])
            .pop()
            .expect("one cell in, one cell out")
    }

    /// Run many cells, fanned out over the host's cores. Each cell is an
    /// independent deterministic simulation, so parallel execution changes
    /// wall time only, never results. Output order matches input order.
    pub fn run_cells(&self, cfgs: Vec<ScenarioConfig>) -> Vec<(CellStats, CellStats)> {
        self.run_cells_named("sweep", cfgs)
    }

    /// [`Sweep::run_cells`] with a progress label: each finished cell prints
    /// a `[label] N/total cells done (X.Xs elapsed)` line to stderr, so a
    /// `--full` sweep is never minutes of silence.
    pub fn run_cells_named(
        &self,
        label: &str,
        cfgs: Vec<ScenarioConfig>,
    ) -> Vec<(CellStats, CellStats)> {
        self.run_grid(Some(label), cfgs)
    }

    /// The flattened sweep executor: the whole `cells × seeds` grid is one
    /// task pool (see [`crate::executor`]) drained by
    /// `available_parallelism` workers. One task = one seed of one cell
    /// under both policies, so there is no per-cell barrier — a worker
    /// that finishes the last seed of a slow cell immediately claims
    /// whatever cell's seed is still pending — and thread count is bounded
    /// by the host, not by `cells × seeds`.
    ///
    /// Determinism: each task writes only its own `(cell, seed)` slot, and
    /// the Welford folds below run *after* the pool in fixed
    /// `(cell, seed)` index order — float summation order, and therefore
    /// every figure CSV, is bit-identical to a sequential double loop
    /// regardless of scheduling.
    fn run_grid(
        &self,
        label: Option<&str>,
        cfgs: Vec<ScenarioConfig>,
    ) -> Vec<(CellStats, CellStats)> {
        use crate::executor;
        use sais_core::telemetry::TelemetrySeries;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let seeds = self.scale.seeds() as usize;
        let telemetry = crate::timeseries::collection_active();
        let cells: Vec<ScenarioConfig> = cfgs
            .into_iter()
            .map(|mut c| {
                c.file_size = self.scale.file_size().max(c.transfer_size);
                // Under `--timeseries` every cell samples windowed
                // telemetry. Sampling is bit-inert (it only reads values
                // the model already computed), so the figure CSV is
                // byte-identical either way — CI pins this.
                if telemetry {
                    c.obs.timeseries = true;
                }
                sais_core::calib::assert_regimes(&c);
                c
            })
            .collect();
        let total = cells.len() * seeds;
        // One task = one seed of one cell under both policies: the
        // (baseline, candidate) samples, plus — under `--timeseries` —
        // the two runs' telemetry series.
        type TaskResult = ([Sample; 2], Option<[TelemetrySeries; 2]>);
        let meter = label.map(|l| ProgressMeter::new(l, cells.len() as u64));
        let mut runs: Vec<Option<TaskResult>> = vec![None; total];
        let slots = std::sync::Mutex::new(&mut runs);
        // Per-cell completion tallies so the meter still reports whole
        // cells even though tasks finish seed by seed in any order.
        let seeds_done: Vec<AtomicUsize> = (0..cells.len()).map(|_| AtomicUsize::new(0)).collect();
        executor::run_indexed(total, executor::default_workers(), |t| {
            let (ci, si) = (t / seeds, t % seeds);
            let mut c = cells[ci].clone();
            c.seed = c.seed.wrapping_add((si as u64).wrapping_mul(0x9E37_79B9));
            let b = c.clone().with_policy(self.baseline).run();
            let s = c.with_policy(self.candidate).run();
            let result = (
                [sample_of(&b), sample_of(&s)],
                telemetry.then_some([b.telemetry, s.telemetry]),
            );
            slots.lock().expect("no poisoning")[t] = Some(result);
            if seeds_done[ci].fetch_add(1, Ordering::Relaxed) + 1 == seeds {
                if let Some(m) = &meter {
                    m.complete_one_and_report();
                }
            }
        });
        // The deterministic fold: fixed (cell, seed) index order, so the
        // float summation, the telemetry walk and every figure CSV are
        // bit-identical no matter which worker ran what.
        let (bl, cl) = self.labels();
        let mut runs = runs.into_iter().map(|r| r.expect("every seed ran"));
        let mut out = Vec::with_capacity(cells.len());
        for _ in 0..cells.len() {
            let mut base = CellStats::default();
            let mut cand = CellStats::default();
            for (samples, series) in runs.by_ref().take(seeds) {
                base.push_sample(&samples[0]);
                cand.push_sample(&samples[1]);
                if let Some(series) = &series {
                    let mut coll = crate::timeseries::collector().lock().expect("no poisoning");
                    coll.fold_series(bl, &series[0]);
                    coll.fold_series(cl, &series[1]);
                }
            }
            out.push((base, cand));
        }
        out
    }

    /// Labels of the two policies.
    pub fn labels(&self) -> (&'static str, &'static str) {
        (self.baseline.label(), self.candidate.label())
    }
}

/// Where experiment CSVs land.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("experiments");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// What [`emit`] sends to each stream: machine-readable CSV on stdout,
/// the human-rendered table on stderr. Split out so tests can assert the
/// stdout half stays pure CSV without spawning a subprocess.
pub fn emit_streams(table: &Table) -> (String, String) {
    (table.to_csv(), table.render())
}

/// Print a table and persist it as CSV. The CSV body goes to stdout (so
/// `fig05_bandwidth_3gig --quick | ...` pipes machine-clean data); the
/// rendered table and the `[csv] path` echo go to stderr with the rest of
/// the progress reporting.
pub fn emit(name: &str, table: &Table) {
    sais_prof::zone!("export.csv");
    let (csv, human) = emit_streams(table);
    eprintln!("{human}");
    print!("{csv}");
    let path = experiments_dir().join(format!("{name}.csv"));
    if let Err(e) = fs::write(&path, &csv) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("[csv] {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parameters() {
        assert_eq!(Scale::Quick.seeds(), 1);
        assert_eq!(Scale::Default.seeds(), 3);
        assert!(Scale::Full.file_size() > Scale::Default.file_size());
    }

    #[test]
    fn sweep_cell_runs_and_candidate_wins() {
        let sweep = Sweep::paper(Scale::Quick);
        let mut cfg = sais_core::scenario::ScenarioConfig::testbed_3gig(8, 256 * 1024);
        cfg.file_size = 8 << 20; // overridden by scale anyway
        let (base, cand) = sweep.run_cell(cfg);
        assert_eq!(base.bw.count(), 1);
        assert!(cand.bw.mean() > base.bw.mean());
        assert_eq!(cand.migrations.mean(), 0.0);
        assert!(base.migrations.mean() > 0.0);
    }

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn bench_args_defaults_and_scales() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, Scale::Default);
        assert_eq!(a.trace, None);
        assert_eq!(a.metrics, None);
        assert_eq!(a.analyze, None);
        assert_eq!(parse(&["--quick"]).unwrap().scale, Scale::Quick);
        assert_eq!(parse(&["--full"]).unwrap().scale, Scale::Full);
    }

    #[test]
    fn bench_args_trace_and_metrics_take_paths() {
        let a = parse(&["--quick", "--trace", "t.json", "--metrics", "m.csv"]).unwrap();
        assert_eq!(a.trace.as_deref(), Some(Path::new("t.json")));
        assert_eq!(a.metrics.as_deref(), Some(Path::new("m.csv")));
        let a = parse(&["--analyze", "out"]).unwrap();
        assert_eq!(a.analyze.as_deref(), Some(Path::new("out")));
        assert!(
            parse(&["--analyze"]).is_err(),
            "--analyze needs a directory"
        );
    }

    #[test]
    fn bench_args_timeseries_takes_a_path() {
        assert_eq!(parse(&[]).unwrap().timeseries, None);
        let a = parse(&["--quick", "--timeseries", "ts.jsonl"]).unwrap();
        assert_eq!(a.timeseries.as_deref(), Some(Path::new("ts.jsonl")));
        let err = parse(&["--timeseries"]).unwrap_err();
        assert!(err.contains("path"), "{err}");
    }

    #[test]
    fn bench_args_profile_takes_a_path() {
        assert_eq!(parse(&[]).unwrap().profile, None);
        let a = parse(&["--quick", "--profile", "prof.json"]).unwrap();
        assert_eq!(a.profile.as_deref(), Some(Path::new("prof.json")));
        let err = parse(&["--profile"]).unwrap_err();
        assert!(err.contains("path"), "{err}");
        assert!(
            parse(&["--profile", "--quick"]).unwrap().profile.as_deref()
                == Some(Path::new("--quick")),
            "next token is consumed as the path, flag-lookalike or not"
        );
    }

    #[test]
    fn bench_args_rejects_unknown_and_malformed() {
        let err = parse(&["--fulll"]).unwrap_err();
        assert!(err.contains("--fulll"), "{err}");
        assert!(parse(&["extra"]).is_err(), "positional args are rejected");
        let err = parse(&["--trace"]).unwrap_err();
        assert!(err.contains("path"), "{err}");
        assert!(parse(&["--metrics"]).is_err());
        // The multi-process sweep flags are gone, not silently ignored.
        for removed in [
            &["--shards", "2"][..],
            &["--shard-worker", "0", "--shard-grid", "0"],
            &["--shard-grid", "0"],
        ] {
            let err = parse(removed).unwrap_err();
            assert!(err.contains(removed[0]), "{err}");
        }
    }

    #[test]
    fn observability_demo_config_is_valid_and_instrumented() {
        let cfg = observability_demo_config();
        cfg.validate().expect("demo scenario must validate");
        assert!(cfg.obs.spans && cfg.obs.stages);
    }

    #[test]
    fn emit_writes_csv() {
        let mut t = Table::new("test", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        emit("harness_selftest", &t);
        let p = experiments_dir().join("harness_selftest.csv");
        let content = std::fs::read_to_string(p).unwrap();
        assert!(content.contains("1,2"));
    }

    #[test]
    fn emit_stdout_stream_is_pure_csv() {
        // The stdout half of `emit` is what `fig05 --quick | ...` sees: it
        // must parse as CSV with a uniform column count and carry none of
        // the human rendering (box drawing, `[csv]` echoes, progress).
        let mut t = Table::new("bandwidth (MB/s)", &["transfer", "servers", "SAIs"]);
        t.row(&["64 KB".into(), "16".into(), "312.50".into()]);
        t.row(&["1 MB".into(), "48".into(), "355.10".into()]);
        let (csv, human) = emit_streams(&t);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + two rows");
        for line in &lines {
            assert_eq!(line.matches(',').count(), 2, "uniform columns: {line}");
            assert!(
                !line.contains('[') && !line.contains('|'),
                "non-CSV noise on stdout: {line}"
            );
        }
        // The CSV written to disk is byte-identical to the stdout stream.
        assert_eq!(csv, t.to_csv());
        // And the human rendering is a different document entirely.
        assert_ne!(human, csv);
    }
}
