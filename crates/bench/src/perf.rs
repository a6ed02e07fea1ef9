//! Host-performance measurement: how fast the engine simulates, not what
//! it simulates.
//!
//! Three canonical scenarios (the paper's headline 3-Gig 48-server read,
//! the NIC-bound 1-Gig read, and the write path) are run repeatedly and
//! the best wall-clock time per scenario is kept — the usual best-of-N
//! discipline for throughput measurements, since the minimum is the run
//! least disturbed by the host. Throughput is reported as *simulation
//! events dispatched per second of host time*, which is independent of
//! what the events compute and therefore comparable across code changes
//! that keep the simulated results bit-identical (the whole point of the
//! fast-path work: same events, same results, less host time each).
//!
//! `cargo run --release -p sais-bench --bin perf_baseline` refreshes the
//! committed baseline in `BENCH_engine.json` at the repository root; the
//! `perf_regression` tier-1 test compares a fresh measurement against
//! that file and fails on a >20 % throughput regression (release builds
//! only — debug timings say nothing about the optimized engine).

use sais_core::scenario::{FaultPlan, IoDirection, ObsConfig, PolicyChoice, ScenarioConfig};
use sais_obs::json::JsonValue;
use sais_prof::{NUM_PHASES, PHASES};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One scenario's measurement.
#[derive(Debug, Clone)]
pub struct PerfResult {
    /// Scenario name (stable key in `BENCH_engine.json`).
    pub name: &'static str,
    /// Events the engine dispatched for one run.
    pub events: u64,
    /// Best-of-N host wall time for one run, seconds.
    pub wall_secs: f64,
    /// `events / wall_secs`.
    pub events_per_sec: f64,
    /// Simulated bandwidth, MB/s — a cross-check that the scenario still
    /// simulates the same thing, not a host-performance quantity.
    pub sim_bandwidth_mbs: f64,
    /// Timing-wheel cascades for one run (far-future events pulled back
    /// into the near-future ring). Deterministic per scenario: a changed
    /// value means the schedule shape changed, not the host.
    pub cascades: u64,
    /// Peak simultaneously-occupied timing-wheel buckets for one run
    /// (also deterministic per scenario).
    pub peak_buckets: u64,
    /// Peak simultaneous occupancy of the strip slab (deterministic per
    /// scenario — the quantity the slab's dense storage is sized by).
    pub strip_slab_high_water: u64,
    /// Peak simultaneous occupancy of the read slab (deterministic).
    pub read_slab_high_water: u64,
    /// Telemetry windows the run opened (deterministic; 0 unless the
    /// scenario samples, i.e. `ObsConfig::timeseries` is on).
    pub window_rotations: u64,
    /// Windows folded through the streaming detectors (deterministic).
    pub detector_evals: u64,
    /// Zone self-time per top-level phase ([`PHASES`] order, ns) for one
    /// *profiled* run of the scenario — measured on a separate rep so the
    /// timed best-of-N stays instrumentation-free. A host-timing
    /// quantity: comparable across code changes, but noisy like
    /// `wall_secs` is.
    pub phases: [u64; NUM_PHASES],
}

/// The canonical scenarios the baseline tracks. Names are stable; the
/// configurations pin the default (128 MB) scale explicitly so the
/// baseline does not drift with harness defaults.
pub fn canonical_scenarios() -> Vec<(&'static str, ScenarioConfig)> {
    let file = 128 << 20;
    let mut read_3gig = ScenarioConfig::testbed_3gig(48, 2 << 20);
    read_3gig.file_size = file;
    let mut read_1gig = ScenarioConfig::testbed_1gig(16, 512 << 10);
    read_1gig.file_size = file;
    let mut write_3gig =
        ScenarioConfig::testbed_3gig(16, 1 << 20).with_direction(IoDirection::Write);
    write_3gig.file_size = file;
    // Faulted run: loss recovery and option stripping drive the engine's
    // timer-heavy paths (retransmit timeouts live far beyond the wheel's
    // near-future horizon), pinning the overflow/cascade machinery.
    let mut faulted = ScenarioConfig::testbed_3gig(8, 512 << 10);
    faulted.file_size = 64 << 20;
    faulted.faults = FaultPlan {
        loss: 0.02,
        option_strip: 0.05,
        ..FaultPlan::none()
    };
    // Observability-on run: spans + stage histograms at full tilt, so the
    // instrumentation tax on the hot path is a tracked quantity rather
    // than a surprise.
    let mut obs = ScenarioConfig::testbed_3gig(8, 512 << 10);
    obs.file_size = 64 << 20;
    vec![
        (
            "read_3gig_48srv",
            read_3gig.with_policy(PolicyChoice::SourceAware),
        ),
        (
            "read_1gig_16srv",
            read_1gig.with_policy(PolicyChoice::SourceAware),
        ),
        (
            "write_3gig_16srv",
            write_3gig.with_policy(PolicyChoice::SourceAware),
        ),
        (
            "read_3gig_8srv_faulted",
            faulted.with_policy(PolicyChoice::SourceAware),
        ),
        (
            "obs_3gig_8srv",
            obs.with_policy(PolicyChoice::SourceAware)
                .with_observability(ObsConfig::full()),
        ),
    ]
}

/// Run `cfg` `reps` times and keep the fastest.
pub fn measure(name: &'static str, cfg: &ScenarioConfig, reps: u32) -> PerfResult {
    assert!(reps > 0);
    // The timed reps run unprofiled even under `--profile`: the baseline
    // must measure the engine, not the instrumentation (restored below).
    let was_profiling = sais_prof::enabled();
    sais_prof::set_enabled(false);
    let mut best_secs = f64::INFINITY;
    let mut events = 0;
    let mut bw = 0.0;
    let mut cascades = 0;
    let mut peak_buckets = 0;
    let mut strip_slab_high_water = 0;
    let mut read_slab_high_water = 0;
    let mut window_rotations = 0;
    let mut detector_evals = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let m = cfg.clone().run();
        let secs = t0.elapsed().as_secs_f64();
        if secs < best_secs {
            best_secs = secs;
        }
        events = m.events_dispatched;
        bw = m.bandwidth_mbs();
        cascades = m.queue_cascades;
        peak_buckets = m.queue_peak_buckets;
        strip_slab_high_water = m.strip_slab_high_water;
        read_slab_high_water = m.read_slab_high_water;
        window_rotations = m.window_rotations;
        detector_evals = m.detector_evals;
    }
    // Phase attribution runs once more with the zone profiler on — a
    // separate rep so the timed loop above never pays for (or varies
    // with) instrumentation. The global enable is restored afterwards, so
    // under `--profile` the rest of the process keeps recording.
    sais_prof::set_enabled(true);
    let before = sais_prof::phase_snapshot();
    let _ = cfg.clone().run();
    let after = sais_prof::phase_snapshot();
    sais_prof::set_enabled(was_profiling);
    let mut phases = [0u64; NUM_PHASES];
    for (p, (a, b)) in phases.iter_mut().zip(after.iter().zip(before)) {
        *p = a.saturating_sub(b);
    }
    PerfResult {
        name,
        events,
        wall_secs: best_secs,
        events_per_sec: events as f64 / best_secs,
        sim_bandwidth_mbs: bw,
        cascades,
        peak_buckets,
        strip_slab_high_water,
        read_slab_high_water,
        window_rotations,
        detector_evals,
        phases,
    }
}

/// Measure every canonical scenario. `SAIS_PERF_ONLY=<substring>`
/// restricts the run to matching scenario names — an iteration aid for
/// perf work on a single scenario; the gate modes still require the
/// full set, so a filtered `--compare`/`--check` simply has fewer rows.
pub fn measure_all(reps: u32) -> Vec<PerfResult> {
    let only = std::env::var("SAIS_PERF_ONLY").ok();
    canonical_scenarios()
        .iter()
        .filter(|(name, _)| only.as_deref().is_none_or(|f| name.contains(f)))
        .map(|(name, cfg)| {
            let r = measure(name, cfg, reps);
            eprintln!(
                "{:22} {:>10} events  {:>8.3} s  {:>12.0} events/s  ({:.1} simulated MB/s, {} cascades, {} peak buckets, slab hw {}/{}, {} telemetry windows)",
                r.name,
                r.events,
                r.wall_secs,
                r.events_per_sec,
                r.sim_bandwidth_mbs,
                r.cascades,
                r.peak_buckets,
                r.strip_slab_high_water,
                r.read_slab_high_water,
                r.window_rotations
            );
            r
        })
        .collect()
}

/// `BENCH_engine.json` lives at the repository root, next to README.md.
pub fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_engine.json")
}

/// Render one scenario's phase self-times as a compact JSON object in
/// [`PHASES`] order.
fn phases_json(phases: &[u64; NUM_PHASES]) -> String {
    let body = PHASES
        .iter()
        .zip(phases)
        .map(|(p, ns)| format!("\"{p}\": {ns}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{body}}}")
}

/// Serialize results in the committed-baseline format (no external JSON
/// dependency; one object per scenario, one line each). The slab,
/// telemetry (`window_rotations`, `detector_evals`) and
/// phase-attribution counters are additive `v1` fields, and the
/// `"executor"` and `"microtouch"` objects are additive non-scenario
/// lines: the line-oriented reader only parses `{"name":`-prefixed lines
/// and ignores keys it does not know, so old baselines parse under the
/// new code and vice versa — the schema tag stays `sais-perf-baseline/v1`.
pub fn to_json(
    results: &[PerfResult],
    exec: &crate::executor::ExecutorStats,
    regimes: &[crate::microtouch::RegimeResult],
) -> String {
    let mut s = String::from("{\n  \"schema\": \"sais-perf-baseline/v1\",\n  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \"wall_secs\": {:.4}, \"events_per_sec\": {:.0}, \"cascades\": {}, \"peak_buckets\": {}, \"strip_slab_high_water\": {}, \"read_slab_high_water\": {}, \"window_rotations\": {}, \"detector_evals\": {}, \"phases\": {}}}{}\n",
            r.name,
            r.events,
            r.wall_secs,
            r.events_per_sec,
            r.cascades,
            r.peak_buckets,
            r.strip_slab_high_water,
            r.read_slab_high_water,
            r.window_rotations,
            r.detector_evals,
            phases_json(&r.phases),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"microtouch\": [\n");
    for (i, r) in regimes.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"regime\": \"{}\", \"ns_per_line\": {:.3}, \"lines\": {}}}{}\n",
            r.regime,
            r.ns_per_line,
            r.lines,
            if i + 1 < regimes.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"executor\": {\"pools\": ");
    s.push_str(&exec.pools.to_string());
    s.push_str(", \"workers\": [");
    for (i, w) in exec.workers.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"tasks\": {}, \"steals_hit\": {}, \"steals_missed\": {}, \"span_drains\": {}, \"busy_ns\": {}, \"idle_ns\": {}}}",
            w.tasks, w.steals_hit, w.steals_missed, w.span_drains, w.busy_ns, w.idle_ns
        ));
    }
    s.push_str("]}\n}\n");
    s
}

/// Parse the committed baseline: `name → (events, events_per_sec)`.
/// Tolerant line-oriented parsing of exactly the format [`to_json`]
/// writes; returns `None` if the file is missing or unrecognizable.
pub fn read_baseline() -> Option<Vec<(String, u64, f64)>> {
    let text = std::fs::read_to_string(baseline_path()).ok()?;
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("{\"name\":") {
            continue;
        }
        let field = |key: &str| -> Option<&str> {
            let start = line.find(key)? + key.len();
            let rest = &line[start..];
            let rest = rest.trim_start_matches([':', ' ', '"']);
            let end = rest.find(['"', ',', '}'])?;
            Some(rest[..end].trim())
        };
        let name = field("\"name\"")?.to_string();
        let events: u64 = field("\"events\"")?.parse().ok()?;
        let eps: f64 = field("\"events_per_sec\"")?.parse().ok()?;
        out.push((name, events, eps));
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

/// Schema tag of each `BENCH_history.jsonl` line.
pub const HISTORY_SCHEMA: &str = "sais-perf-history/v1";

/// Relative regression tolerance of the trajectory gate: a scenario fails
/// the gate when its fresh events/sec drops more than this fraction below
/// the best ever recorded for it.
pub const HISTORY_TOLERANCE: f64 = 0.20;

/// Relative tolerance of the per-phase `mem` gate: a scenario fails when
/// its fresh `mem` phase self-time (ns/run) rises more than this fraction
/// above the lowest ever recorded for it. Whole-scenario events/sec can
/// hide a memory-walk regression behind an improvement elsewhere; the
/// phase gate pins the quantity the extent work optimises directly.
pub const MEM_PHASE_TOLERANCE: f64 = 0.20;

/// Index of the `mem` phase in [`PHASES`] — the phase gated separately
/// by `--compare`.
fn mem_phase_index() -> usize {
    PHASES
        .iter()
        .position(|p| *p == "mem")
        .expect("mem is a profiler phase")
}

/// `BENCH_history.jsonl` lives next to `BENCH_engine.json` at the
/// repository root; `SAIS_BENCH_HISTORY` overrides the location (tests
/// point it at a scratch file).
pub fn history_path() -> PathBuf {
    match std::env::var_os("SAIS_BENCH_HISTORY") {
        Some(p) => PathBuf::from(p),
        None => baseline_path().with_file_name("BENCH_history.jsonl"),
    }
}

/// The checkout's commit hash, for run provenance in the history file.
/// Reads `.git/HEAD` directly (no subprocess): a detached HEAD is the
/// hash itself, a symbolic ref is chased one level into `refs/…`, with
/// `packed-refs` as the fallback for packed branches. `GITHUB_SHA` covers
/// CI checkouts without a readable `.git`; `"unknown"` means none of the
/// above — the gate still works, the provenance line just says so.
pub fn git_revision() -> String {
    let repo = baseline_path();
    let git = repo.parent().map(|p| p.join(".git"));
    let head = git
        .as_ref()
        .and_then(|g| std::fs::read_to_string(g.join("HEAD")).ok());
    if let (Some(git), Some(head)) = (git, head) {
        let head = head.trim();
        if let Some(refname) = head.strip_prefix("ref: ") {
            if let Ok(hash) = std::fs::read_to_string(git.join(refname)) {
                return short_rev(hash.trim());
            }
            if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
                for line in packed.lines() {
                    if let Some(hash) = line.strip_suffix(refname) {
                        return short_rev(hash.trim());
                    }
                }
            }
        } else if !head.is_empty() {
            return short_rev(head);
        }
    }
    match std::env::var("GITHUB_SHA") {
        Ok(sha) if !sha.is_empty() => short_rev(&sha),
        _ => "unknown".to_string(),
    }
}

fn short_rev(hash: &str) -> String {
    hash.chars().take(12).collect()
}

/// Format a unix-millisecond timestamp as a `YYYY-MM-DD` UTC date
/// (civil-from-days; no external time dependency).
pub fn utc_date(unix_ms: u64) -> String {
    let days = (unix_ms / 86_400_000) as i64;
    // Howard Hinnant's civil_from_days, shifted to the 2000-03-01 era.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// One `BENCH_history.jsonl` line (newline-terminated): a self-contained
/// JSON object recording every scenario of one measurement run, stamped
/// with the commit it measured (`git_rev`) so a regression points back to
/// the change that set the best. `git_rev` and per-scenario `phases` are
/// additive `v1` fields — old lines without them still parse.
pub fn history_line(results: &[PerfResult], unix_ms: u64) -> String {
    let mut s = format!(
        "{{\"schema\": \"{HISTORY_SCHEMA}\", \"unix_ms\": {unix_ms}, \"git_rev\": \"{}\", \"scenarios\": [",
        git_revision()
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"name\": \"{}\", \"events\": {}, \"wall_secs\": {:.4}, \"events_per_sec\": {:.0}, \"phases\": {}}}",
            r.name,
            r.events,
            r.wall_secs,
            r.events_per_sec,
            phases_json(&r.phases)
        ));
    }
    s.push_str("]}\n");
    s
}

/// Append one run to the trajectory file.
pub fn append_history(path: &Path, results: &[PerfResult], unix_ms: u64) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(history_line(results, unix_ms).as_bytes())
}

/// The best recorded run of one scenario, with the provenance of the
/// history line that set it — what a regression message points back to.
#[derive(Debug, Clone)]
pub struct BestRun {
    /// Scenario name.
    pub name: String,
    /// Best events/sec ever recorded for the scenario.
    pub events_per_sec: f64,
    /// Timestamp of the run that set the best (0 when the line had none).
    pub unix_ms: u64,
    /// Commit of the run that set the best (`"unknown"` for old lines).
    pub git_rev: String,
    /// Phase self-times of the best run ([`PHASES`] order, ns); `None`
    /// for lines predating phase attribution.
    pub phases: Option<[u64; NUM_PHASES]>,
    /// Lowest nonzero `mem` phase self-time (ns/run) across the *whole*
    /// trajectory — tracked independently of the events/sec best, since
    /// the fastest overall run is not necessarily the one with the
    /// cheapest memory walk. `None` when no line recorded one.
    pub mem_phase_ns: Option<u64>,
}

/// Best recorded events/sec per scenario over the whole trajectory, each
/// carrying the provenance of the line that set it, plus the number of
/// non-blank lines skipped. A line is skipped when it fails to parse,
/// carries a foreign schema or has no scenario list — so a half-written
/// final line cannot poison the gate — or when any of its scenarios
/// records an events/sec that is not finite or not positive: the JSON
/// reader maps `1e999` to `+inf`, and one such "best" would make every
/// later run look like a regression. Empty when the file is missing or
/// holds no usable runs.
pub fn history_best(path: &Path) -> (Vec<BestRun>, usize) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return (Vec::new(), 0);
    };
    let mut best: Vec<BestRun> = Vec::new();
    let mut skipped = 0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(doc) = JsonValue::parse(line) else {
            skipped += 1;
            continue;
        };
        if doc.get("schema").and_then(JsonValue::as_str) != Some(HISTORY_SCHEMA) {
            skipped += 1;
            continue;
        }
        let unix_ms = doc.get("unix_ms").and_then(JsonValue::as_u64).unwrap_or(0);
        let git_rev = doc
            .get("git_rev")
            .and_then(JsonValue::as_str)
            .unwrap_or("unknown")
            .to_string();
        let Some(scenarios) = doc.get("scenarios").and_then(JsonValue::as_array) else {
            skipped += 1;
            continue;
        };
        let bad_rate = scenarios.iter().any(|sc| {
            sc.get("events_per_sec")
                .and_then(JsonValue::as_f64)
                .is_some_and(|eps| !eps.is_finite() || eps <= 0.0)
        });
        if bad_rate {
            skipped += 1;
            continue;
        }
        for sc in scenarios {
            let (Some(name), Some(eps)) = (
                sc.get("name").and_then(JsonValue::as_str),
                sc.get("events_per_sec").and_then(JsonValue::as_f64),
            ) else {
                continue;
            };
            let phases = sc.get("phases").map(|obj| {
                let mut out = [0u64; NUM_PHASES];
                for (i, p) in PHASES.iter().enumerate() {
                    out[i] = obj.get(p).and_then(JsonValue::as_u64).unwrap_or(0);
                }
                out
            });
            let mem = phases
                .as_ref()
                .map(|p| p[mem_phase_index()])
                .filter(|&m| m > 0);
            match best.iter_mut().find(|b| b.name == name) {
                Some(b) => {
                    // The mem-phase floor is a min over every line, not a
                    // property of the events/sec best — merge before any
                    // overwrite below can clobber it.
                    let mem_floor = match (b.mem_phase_ns, mem) {
                        (Some(a), Some(c)) => Some(a.min(c)),
                        (a, c) => a.or(c),
                    };
                    if eps > b.events_per_sec {
                        *b = BestRun {
                            name: name.to_string(),
                            events_per_sec: eps,
                            unix_ms,
                            git_rev: git_rev.clone(),
                            phases,
                            mem_phase_ns: mem_floor,
                        };
                    } else {
                        b.mem_phase_ns = mem_floor;
                    }
                }
                None => best.push(BestRun {
                    name: name.to_string(),
                    events_per_sec: eps,
                    unix_ms,
                    git_rev: git_rev.clone(),
                    phases,
                    mem_phase_ns: mem,
                }),
            }
        }
    }
    (best, skipped)
}

/// The trajectory gate's verdict on one measurement run.
#[derive(Debug, Clone)]
pub struct HistoryComparison {
    /// One human-readable line per scenario.
    pub lines: Vec<String>,
    /// Whether any scenario regressed beyond the tolerance.
    pub regressed: bool,
}

/// Compare fresh results against the best recorded run per scenario.
/// Scenarios with no history pass vacuously (first run seeds the file).
/// A failing scenario's verdict carries the best run's provenance
/// (date + commit) and, when both runs recorded phase attribution, a
/// per-phase self-time diff naming the worst-moved phase — the first
/// question after "it regressed" is "where", and the gate answers it.
///
/// Besides the events/sec check, each scenario's fresh `mem` phase
/// self-time is held against the lowest ever recorded for it
/// ([`MEM_PHASE_TOLERANCE`]): a memory-walk regression trips the gate
/// even when the scenario's overall throughput improved.
pub fn compare_to_best(
    results: &[PerfResult],
    best: &[BestRun],
    tolerance: f64,
) -> HistoryComparison {
    let mut out = HistoryComparison {
        lines: Vec::new(),
        regressed: false,
    };
    for r in results {
        match best.iter().find(|b| b.name == r.name) {
            Some(b) => {
                let rel = r.events_per_sec / b.events_per_sec - 1.0;
                let fail = rel < -tolerance;
                out.regressed |= fail;
                out.lines.push(format!(
                    "{:18} {:>+7.1}% vs best {:.0} events/s{}",
                    r.name,
                    rel * 100.0,
                    b.events_per_sec,
                    if fail { "  REGRESSION" } else { "" }
                ));
                if fail {
                    out.lines.push(format!(
                        "    best run: {} UTC, rev {}",
                        utc_date(b.unix_ms),
                        b.git_rev
                    ));
                    out.lines.extend(phase_attribution(&r.phases, b));
                }
                let fresh_mem = r.phases[mem_phase_index()];
                if let Some(best_mem) = b.mem_phase_ns.filter(|_| fresh_mem > 0) {
                    let mem_rel = fresh_mem as f64 / best_mem as f64 - 1.0;
                    if mem_rel > MEM_PHASE_TOLERANCE {
                        out.regressed = true;
                        out.lines.push(format!(
                            "    mem phase {best_mem} -> {fresh_mem} ns/run ({:+.1}%)  MEM-PHASE REGRESSION",
                            mem_rel * 100.0
                        ));
                    }
                }
            }
            None => out.lines.push(format!(
                "{:18} no history yet ({:.0} events/s)",
                r.name, r.events_per_sec
            )),
        }
    }
    out
}

/// Per-phase diff lines for one regressed scenario: fresh vs best-run
/// self-times, the largest absolute mover tagged `<-- worst-moved`.
fn phase_attribution(fresh: &[u64; NUM_PHASES], best: &BestRun) -> Vec<String> {
    let Some(bp) = &best.phases else {
        return vec!["    (best run predates phase attribution — no per-phase diff)".to_string()];
    };
    let deltas: Vec<i64> = fresh
        .iter()
        .zip(bp)
        .map(|(f, b)| *f as i64 - *b as i64)
        .collect();
    let worst = deltas
        .iter()
        .enumerate()
        .max_by_key(|(_, d)| d.unsigned_abs())
        .map(|(i, _)| i)
        .expect("NUM_PHASES > 0");
    PHASES
        .iter()
        .enumerate()
        .map(|(i, p)| {
            format!(
                "    phase {:6} {:>12} -> {:>12} ns/run ({:+}){}",
                p,
                bp[i],
                fresh[i],
                deltas[i],
                if i == worst { "  <-- worst-moved" } else { "" }
            )
        })
        .collect()
}

/// Fabricated results for every canonical scenario at a uniform
/// events/sec — the test hook behind `SAIS_PERF_SYNTHETIC`, letting the
/// gate's exit-code contract be exercised without minutes of measurement.
/// Phases scale with the rate (`phases[i] = eps × (i+1)` ns) so two
/// synthetic runs at different rates produce a non-trivial attribution
/// diff — which makes the gate's worst-moved-phase output testable from
/// a subprocess too.
pub fn synthetic_results(events_per_sec: f64) -> Vec<PerfResult> {
    let mut phases = [0u64; NUM_PHASES];
    for (i, p) in phases.iter_mut().enumerate() {
        *p = events_per_sec as u64 * (i as u64 + 1);
    }
    canonical_scenarios()
        .iter()
        .map(|(name, _)| PerfResult {
            name,
            events: 1_000_000,
            wall_secs: 1_000_000.0 / events_per_sec,
            events_per_sec,
            sim_bandwidth_mbs: 0.0,
            cascades: 0,
            peak_buckets: 0,
            strip_slab_high_water: 0,
            read_slab_high_water: 0,
            window_rotations: 0,
            detector_evals: 0,
            phases,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_through_parser() {
        let results = vec![
            PerfResult {
                name: "read_3gig_48srv",
                events: 123_456,
                wall_secs: 1.5,
                events_per_sec: 82_304.0,
                sim_bandwidth_mbs: 300.0,
                cascades: 17,
                peak_buckets: 42,
                strip_slab_high_water: 96,
                read_slab_high_water: 48,
                window_rotations: 128,
                detector_evals: 128,
                phases: [600, 500, 400, 300, 200, 100],
            },
            PerfResult {
                name: "write_3gig_16srv",
                events: 99,
                wall_secs: 0.001,
                events_per_sec: 99_000.0,
                sim_bandwidth_mbs: 280.0,
                cascades: 0,
                peak_buckets: 1,
                strip_slab_high_water: 1,
                read_slab_high_water: 1,
                window_rotations: 0,
                detector_evals: 0,
                phases: [0; NUM_PHASES],
            },
        ];
        let exec = crate::executor::ExecutorStats {
            pools: 2,
            workers: vec![crate::executor::WorkerCounters {
                tasks: 7,
                steals_hit: 1,
                steals_missed: 2,
                span_drains: 2,
                busy_ns: 5000,
                idle_ns: 1000,
            }],
        };
        let regimes = vec![
            crate::microtouch::RegimeResult {
                regime: "hit_replay",
                ns_per_line: 0.456,
                lines: 20_480_000,
                paths: Default::default(),
            },
            crate::microtouch::RegimeResult {
                regime: "cold_stream",
                ns_per_line: 3.1,
                lines: 5_120_000,
                paths: Default::default(),
            },
        ];
        let json = to_json(&results, &exec, &regimes);
        // Parse via the same line-oriented reader the regression test uses.
        let mut parsed = Vec::new();
        for line in json.lines() {
            let line = line.trim();
            if line.starts_with("{\"name\":") {
                parsed.push(line.to_string());
            }
        }
        assert_eq!(parsed.len(), 2);
        assert!(parsed[0].contains("\"events\": 123456"));
        assert!(parsed[1].contains("\"events_per_sec\": 99000"));
        // Additive v1 fields: slab high-waters and telemetry counters
        // ride along on the same line without disturbing the original
        // keys the line-oriented reader extracts.
        assert!(parsed[0].contains("\"strip_slab_high_water\": 96"));
        assert!(parsed[0].contains("\"read_slab_high_water\": 48"));
        assert!(parsed[0].contains("\"window_rotations\": 128"));
        assert!(parsed[0].contains("\"detector_evals\": 128"));
        assert!(parsed[1].contains("\"window_rotations\": 0"));
        assert!(parsed[0].contains("\"phases\": {\"engine\": 600"));
        // The executor and microtouch objects are non-scenario lines:
        // present in the document, invisible to the line-oriented reader
        // above (which found exactly the two scenarios).
        assert!(json.contains("\"executor\": {\"pools\": 2"));
        assert!(json.contains("\"steals_missed\": 2"));
        assert!(json
            .contains("{\"regime\": \"hit_replay\", \"ns_per_line\": 0.456, \"lines\": 20480000}"));
        // The whole document is well-formed JSON for any spec-compliant
        // reader, not just the line-oriented one.
        let doc = JsonValue::parse(&json).expect("baseline document parses");
        assert_eq!(
            doc.get("executor")
                .and_then(|e| e.get("pools"))
                .and_then(JsonValue::as_u64),
            Some(2)
        );
        let micro = doc
            .get("microtouch")
            .and_then(JsonValue::as_array)
            .expect("microtouch array");
        assert_eq!(micro.len(), 2);
        assert_eq!(
            micro[1].get("regime").and_then(JsonValue::as_str),
            Some("cold_stream")
        );
    }

    #[test]
    fn baseline_reader_ignores_additive_fields() {
        // The committed-baseline reader pulls (name, events, events_per_sec)
        // out of a line that also carries keys it does not know, such as
        // the batch counters older baselines still hold; the extraction
        // must not be confused by the extra keys or an embedded array.
        let line = "{\"name\": \"read_3gig_48srv\", \"events\": 123456, \"wall_secs\": 1.5000, \"events_per_sec\": 82304, \"cascades\": 17, \"peak_buckets\": 42, \"strip_slab_high_water\": 96, \"read_slab_high_water\": 48, \"unknown_count\": 1000, \"unknown_hist\": [10, 20, 30]}";
        let field = |key: &str| -> Option<&str> {
            let start = line.find(key)? + key.len();
            let rest = &line[start..];
            let rest = rest.trim_start_matches([':', ' ', '"']);
            let end = rest.find(['"', ',', '}'])?;
            Some(rest[..end].trim())
        };
        assert_eq!(field("\"name\""), Some("read_3gig_48srv"));
        assert_eq!(field("\"events\""), Some("123456"));
        assert_eq!(field("\"events_per_sec\""), Some("82304"));
    }

    #[test]
    fn canonical_scenarios_validate() {
        for (name, cfg) in canonical_scenarios() {
            cfg.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn baseline_path_points_at_repo_root() {
        let p = baseline_path();
        assert!(p.ends_with("BENCH_engine.json"));
        assert!(p.parent().unwrap().join("Cargo.toml").exists());
    }

    #[test]
    fn history_line_is_valid_json_with_schema() {
        let line = history_line(&synthetic_results(50_000.0), 1_700_000_000_000);
        assert!(line.ends_with('\n'));
        let doc = JsonValue::parse(line.trim()).expect("history line parses");
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(HISTORY_SCHEMA)
        );
        assert_eq!(
            doc.get("unix_ms").and_then(JsonValue::as_u64),
            Some(1_700_000_000_000)
        );
        let scenarios = doc.get("scenarios").and_then(JsonValue::as_array).unwrap();
        assert_eq!(scenarios.len(), canonical_scenarios().len());
        assert_eq!(
            scenarios[0]
                .get("events_per_sec")
                .and_then(JsonValue::as_f64),
            Some(50_000.0)
        );
    }

    #[test]
    fn history_append_and_best_round_trip() {
        let path =
            std::env::temp_dir().join(format!("sais_history_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert!(
            history_best(&path).0.is_empty(),
            "missing file is empty history"
        );
        append_history(&path, &synthetic_results(40_000.0), 1).unwrap();
        append_history(&path, &synthetic_results(55_000.0), 2).unwrap();
        append_history(&path, &synthetic_results(50_000.0), 3).unwrap();
        // A torn final line must not poison the best-so-far.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, b"{\"schema\": \"sais-"))
            .unwrap();
        let (best, skipped) = history_best(&path);
        assert_eq!(skipped, 1, "the torn line");
        assert_eq!(best.len(), canonical_scenarios().len());
        for b in &best {
            assert_eq!(
                b.events_per_sec, 55_000.0,
                "{}: best of 40k/55k/50k",
                b.name
            );
            assert_eq!(
                b.unix_ms, 2,
                "provenance follows the line that set the best"
            );
            let phases = b.phases.expect("new lines carry phases");
            assert_eq!(phases[0], 55_000, "engine phase of the 55k run");
            // The mem floor is a min over the whole trajectory, not a
            // property of the events/sec best: the slowest run (40k) has
            // the cheapest synthetic mem phase (eps × 3).
            assert_eq!(b.mem_phase_ns, Some(40_000 * 3), "{}", b.name);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn history_best_tolerates_lines_without_provenance() {
        // A pre-provenance line: no git_rev, no phases. Still usable.
        let path = std::env::temp_dir().join(format!(
            "sais_history_old_schema_{}.jsonl",
            std::process::id()
        ));
        std::fs::write(
            &path,
            "{\"schema\": \"sais-perf-history/v1\", \"unix_ms\": 7, \"scenarios\": [{\"name\": \"read_3gig_48srv\", \"events\": 9, \"wall_secs\": 1.0, \"events_per_sec\": 9}]}\n",
        )
        .unwrap();
        let (best, skipped) = history_best(&path);
        assert_eq!(skipped, 0);
        assert_eq!(best.len(), 1);
        assert_eq!(best[0].git_rev, "unknown");
        assert_eq!(best[0].phases, None);
        assert_eq!(best[0].mem_phase_ns, None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn history_best_skips_unbeatable_and_negative_rates() {
        // `1e999` parses to +inf: taken as a best it would fail every
        // later comparison. A negative rate is equally impossible.
        let path = std::env::temp_dir().join(format!(
            "sais_history_bad_rates_{}.jsonl",
            std::process::id()
        ));
        let line = |eps: &str| {
            format!(
                "{{\"schema\": \"sais-perf-history/v1\", \"unix_ms\": 7, \"scenarios\": [{{\"name\": \"read_3gig_48srv\", \"events\": 9, \"wall_secs\": 1.0, \"events_per_sec\": {eps}}}]}}\n"
            )
        };
        std::fs::write(
            &path,
            line("1e999") + &line("-5") + &line("900") + &line("0"),
        )
        .unwrap();
        let (best, skipped) = history_best(&path);
        assert_eq!(skipped, 3);
        assert_eq!(best.len(), 1);
        assert_eq!(best[0].events_per_sec, 900.0);
        let verdict = compare_to_best(&synthetic_results(1_000.0), &best, HISTORY_TOLERANCE);
        assert!(!verdict.regressed, "{:?}", verdict.lines);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn utc_date_formats_known_timestamps() {
        assert_eq!(utc_date(0), "1970-01-01");
        // 2026-08-08 00:00:00 UTC.
        assert_eq!(utc_date(1_786_147_200_000), "2026-08-08");
        // Leap day.
        assert_eq!(utc_date(1_709_164_800_000), "2024-02-29");
    }

    #[test]
    fn git_revision_reads_this_checkout() {
        // The repo this test runs in is a real checkout, so the revision
        // must resolve to a short hex string (or "unknown" in a tarball).
        let rev = git_revision();
        assert!(!rev.is_empty());
        assert!(rev.len() <= 12);
        if rev != "unknown" {
            assert!(rev.chars().all(|c| c.is_ascii_hexdigit()), "{rev}");
        }
    }

    fn best_at(eps: f64) -> Vec<BestRun> {
        let mut phases = [0u64; NUM_PHASES];
        for (i, p) in phases.iter_mut().enumerate() {
            *p = eps as u64 * (i as u64 + 1);
        }
        canonical_scenarios()
            .iter()
            .map(|(n, _)| BestRun {
                name: n.to_string(),
                events_per_sec: eps,
                unix_ms: 1_786_147_200_000,
                git_rev: "abc123def456".to_string(),
                phases: Some(phases),
                mem_phase_ns: Some(phases[mem_phase_index()]),
            })
            .collect()
    }

    #[test]
    fn compare_gate_trips_only_beyond_tolerance() {
        let best = best_at(100_000.0);
        // 21% below best: regression.
        let bad = compare_to_best(&synthetic_results(79_000.0), &best, HISTORY_TOLERANCE);
        assert!(bad.regressed);
        assert!(
            bad.lines
                .iter()
                .filter(|l| l.contains("vs best"))
                .all(|l| l.contains("REGRESSION")),
            "{:?}",
            bad.lines
        );
        // 19% below best: within tolerance.
        let ok = compare_to_best(&synthetic_results(81_000.0), &best, HISTORY_TOLERANCE);
        assert!(!ok.regressed);
        // No history at all: vacuous pass.
        let fresh = compare_to_best(&synthetic_results(10.0), &[], HISTORY_TOLERANCE);
        assert!(!fresh.regressed);
        assert!(fresh.lines.iter().all(|l| l.contains("no history")));
    }

    #[test]
    fn mem_phase_gate_trips_even_when_throughput_improves() {
        let best = best_at(100_000.0);
        // Synthetic phases scale with the rate, so a +30% events/sec run
        // also carries a mem phase 30% above the recorded floor: the
        // phase gate must trip even though every scenario got *faster*
        // overall — the exact blind spot the gate exists for.
        let bad = compare_to_best(&synthetic_results(130_000.0), &best, HISTORY_TOLERANCE);
        assert!(bad.regressed);
        let text = bad.lines.join("\n");
        assert!(text.contains("MEM-PHASE REGRESSION"), "{text}");
        assert!(
            bad.lines
                .iter()
                .filter(|l| l.contains("vs best"))
                .all(|l| !l.contains("REGRESSION")),
            "throughput itself improved, only the mem phase fails: {text}"
        );
        // +15% mem stays inside the 20% phase tolerance.
        let ok = compare_to_best(&synthetic_results(115_000.0), &best, HISTORY_TOLERANCE);
        assert!(!ok.regressed, "{:?}", ok.lines);
        // A trajectory with no recorded mem floor passes vacuously.
        let mut old = best_at(100_000.0);
        for b in &mut old {
            b.mem_phase_ns = None;
        }
        let ok = compare_to_best(&synthetic_results(130_000.0), &old, HISTORY_TOLERANCE);
        assert!(!ok.regressed, "{:?}", ok.lines);
    }

    #[test]
    fn regression_verdict_carries_provenance_and_attribution() {
        let best = best_at(100_000.0);
        let bad = compare_to_best(&synthetic_results(79_000.0), &best, HISTORY_TOLERANCE);
        let text = bad.lines.join("\n");
        assert!(
            text.contains("best run: 2026-08-08 UTC, rev abc123def456"),
            "{text}"
        );
        // Synthetic phases are eps·(i+1), so the largest absolute mover
        // is always the last phase.
        let last = PHASES[NUM_PHASES - 1];
        assert!(
            text.contains(&format!("phase {last}"))
                && text
                    .lines()
                    .any(|l| l.contains(&format!("phase {last}")) && l.contains("worst-moved")),
            "{text}"
        );
        // Every phase gets a diff line per regressed scenario.
        let per_scenario = PHASES.len();
        let diff_lines = bad.lines.iter().filter(|l| l.contains("phase ")).count();
        assert_eq!(diff_lines, per_scenario * canonical_scenarios().len());
        // Passing comparisons stay terse: no attribution noise.
        let ok = compare_to_best(&synthetic_results(81_000.0), &best, HISTORY_TOLERANCE);
        assert!(!ok.lines.iter().any(|l| l.contains("worst-moved")));

        // A best run without recorded phases degrades gracefully.
        let mut old = best_at(100_000.0);
        for b in &mut old {
            b.phases = None;
        }
        let bad = compare_to_best(&synthetic_results(79_000.0), &old, HISTORY_TOLERANCE);
        assert!(
            bad.lines
                .iter()
                .any(|l| l.contains("predates phase attribution")),
            "{:?}",
            bad.lines
        );
    }
}
