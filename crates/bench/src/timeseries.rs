//! The `--timeseries` export plane: deterministic cross-shard aggregation
//! of windowed telemetry into one `sais-timeseries/v1` JSONL document.
//!
//! Every figure binary accepts `--timeseries <path>`.
//! When active, the sweep runner enables [`ObsConfig::timeseries`] on every
//! grid cell — sampling is bit-inert, so the figure CSV does not move — and
//! folds each run's [`TelemetrySeries`] into a process-global [`Collector`]
//! keyed by policy label and window epoch. All window payloads are
//! integers, so the fold is exact, associative and commutative: the merged
//! series is byte-identical no matter how the grid was scheduled.
//!
//! Under `--shards N` the fold crosses process boundaries: a worker prints
//! one [`encode_window_line`] per retained window (`shardwin ...`, raw
//! integer fields, sparse histogram buckets) alongside its `shardtask`
//! result lines; the parent decodes them and folds in fixed
//! `(task, policy, epoch)` order. CI `cmp`s the JSONL across
//! `--shards {1,2}` to pin the guarantee.
//!
//! Binaries that never run a sweep grid (`fig12_memsim`, the ablations)
//! fall back to the instrumented demo scenario, whose
//! `ObsConfig::full()` has the sampler on.
//!
//! [`ObsConfig::timeseries`]: sais_core::scenario::ObsConfig
//! [`TelemetrySeries`]: sais_core::telemetry::TelemetrySeries

use sais_core::telemetry::{TelemetryCell, TelemetrySeries};
use sais_metrics::{sparkline, Histogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

/// Schema tag on the first line of every JSONL export.
pub const TIMESERIES_SCHEMA: &str = "sais-timeseries/v1";

/// Sparkline width (epochs are averaged down to this many glyphs).
pub const SPARKLINE_WIDTH: usize = 64;

/// Process-wide switch, installed once from the parsed command line
/// (first caller wins, same discipline as the shard plan). When off —
/// library use, tests, no `--timeseries` flag — the sweep runner leaves
/// `ObsConfig::timeseries` alone and collects nothing.
static ACTIVE: OnceLock<bool> = OnceLock::new();

/// Install whether `--timeseries` was passed.
pub fn set_collection_active(on: bool) {
    let _ = ACTIVE.set(on);
}

/// Whether telemetry collection is active in this process.
pub fn collection_active() -> bool {
    ACTIVE.get().copied().unwrap_or(false)
}

/// The process-global collector behind `--timeseries`.
pub fn collector() -> &'static Mutex<Collector> {
    static COLLECTOR: OnceLock<Mutex<Collector>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Collector::default()))
}

/// Deterministic aggregation of telemetry windows across every sweep
/// cell, seed and shard: one [`TelemetryCell`] per (policy label, epoch),
/// merged with the same exact integer absorbs the window ring uses.
#[derive(Debug, Default)]
pub struct Collector {
    width_ns: u64,
    policies: BTreeMap<String, BTreeMap<u64, TelemetryCell>>,
}

impl Collector {
    /// Whether nothing has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// Window width of the folded series (0 until the first fold).
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    /// Retained windows summed over policies.
    pub fn window_count(&self) -> usize {
        self.policies.values().map(|w| w.len()).sum()
    }

    /// Fold one window into the (policy, epoch) aggregate.
    pub fn fold_cell(&mut self, policy: &str, width_ns: u64, epoch: u64, cell: &TelemetryCell) {
        use sais_metrics::WindowPayload;
        if self.width_ns == 0 {
            self.width_ns = width_ns;
        }
        assert_eq!(
            self.width_ns, width_ns,
            "every folded series must share one window width"
        );
        self.policies
            .entry(policy.to_string())
            .or_default()
            .entry(epoch)
            .or_default()
            .absorb(cell);
    }

    /// Fold every retained window of one run's series (no-op when the
    /// run had telemetry off or recorded nothing).
    pub fn fold_series(&mut self, policy: &str, series: &TelemetrySeries) {
        if !series.is_enabled() {
            return;
        }
        let width = series.window_ns();
        for (epoch, cell) in series.windows() {
            self.fold_cell(policy, width, epoch, cell);
        }
    }

    /// Serialize as `sais-timeseries/v1` JSONL: a header object, then one
    /// object per (policy, epoch) in sorted order. Every value is an
    /// integer, so the bytes are a pure function of the folded windows —
    /// the cross-shard identity CI asserts with `cmp`.
    pub fn to_jsonl(&self) -> String {
        let names = self
            .policies
            .keys()
            .map(|p| format!("\"{p}\""))
            .collect::<Vec<_>>()
            .join(", ");
        let mut s = format!(
            "{{\"schema\": \"{TIMESERIES_SCHEMA}\", \"window_ns\": {}, \"policies\": [{names}], \"windows\": {}}}\n",
            self.width_ns,
            self.window_count(),
        );
        for (policy, windows) in &self.policies {
            for (&epoch, cell) in windows {
                let w = cell.stats(epoch);
                writeln!(
                    s,
                    "{{\"policy\": \"{policy}\", \"epoch\": {epoch}, \"t_ns\": {}, \
                     \"samples\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
                     \"queue_high_water\": {}, \"irqs\": {}, \"busiest_core_irqs\": {}, \
                     \"active_cores\": {}, \"degraded_flows\": {}, \"degrades\": {}, \
                     \"repromotes\": {}, \"faults\": {}}}",
                    epoch.saturating_mul(self.width_ns),
                    w.samples,
                    w.p50_ns,
                    w.p99_ns,
                    w.p999_ns,
                    w.queue_high_water,
                    w.irqs,
                    w.busiest_core_irqs,
                    w.active_cores,
                    w.degraded_flows,
                    w.degrades,
                    w.repromotes,
                    w.faults,
                )
                .expect("write to String");
            }
        }
        s
    }

    /// Render the folded series as per-policy ASCII sparklines (p99
    /// latency, queue high-water, irq rate over epochs) — the stderr
    /// companion of the JSONL file.
    pub fn render_sparklines(&self) -> String {
        let mut s = String::new();
        for (policy, windows) in &self.policies {
            let stats: Vec<_> = windows.iter().map(|(&e, c)| c.stats(e)).collect();
            let p99: Vec<f64> = stats.iter().map(|w| w.p99_ns as f64).collect();
            let queue: Vec<f64> = stats.iter().map(|w| w.queue_high_water as f64).collect();
            let irqs: Vec<f64> = stats.iter().map(|w| w.irqs as f64).collect();
            let peak = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
            writeln!(
                s,
                "{policy}: {} windows × {} µs",
                stats.len(),
                self.width_ns / 1_000
            )
            .expect("write to String");
            writeln!(
                s,
                "  p99 latency  {}  (peak {:.3} ms)",
                sparkline(&p99, SPARKLINE_WIDTH),
                peak(&p99) / 1e6
            )
            .expect("write to String");
            writeln!(
                s,
                "  queue depth  {}  (peak {})",
                sparkline(&queue, SPARKLINE_WIDTH),
                peak(&queue) as u64
            )
            .expect("write to String");
            writeln!(
                s,
                "  irqs/window  {}  (peak {})",
                sparkline(&irqs, SPARKLINE_WIDTH),
                peak(&irqs) as u64
            )
            .expect("write to String");
        }
        s
    }
}

/// Encode one retained window for the worker→parent pipe: every field a
/// decimal integer (integers round-trip exactly — no hex needed), the
/// latency histogram in its sparse `(index:count)` form with the u128 sum
/// split into two u64 halves. One line per (task, policy, epoch).
pub fn encode_window_line(
    t: usize,
    policy: usize,
    width_ns: u64,
    epoch: u64,
    c: &TelemetryCell,
) -> String {
    let h = &c.latency;
    let sum = h.sum();
    let mut s = format!(
        "shardwin {t} {policy} {width_ns} {epoch} {} {} {} {} {} {} {} {} {}",
        c.queue_high_water,
        c.degraded_flows,
        c.degrades,
        c.repromotes,
        c.faults,
        h.min(),
        h.max(),
        (sum >> 64) as u64,
        sum as u64,
    );
    write!(s, " {}", c.core_irqs.len()).expect("write to String");
    for v in &c.core_irqs {
        write!(s, " {v}").expect("write to String");
    }
    let sparse: Vec<(usize, u64)> = h.sparse_buckets().collect();
    write!(s, " {}", sparse.len()).expect("write to String");
    for (i, cnt) in sparse {
        write!(s, " {i}:{cnt}").expect("write to String");
    }
    s
}

/// Decode an [`encode_window_line`] line; `None` for any other line (the
/// parent skips unrelated worker stdout, exactly like `shardtask`).
pub fn decode_window_line(line: &str) -> Option<(usize, usize, u64, u64, TelemetryCell)> {
    let mut it = line.split(' ');
    if it.next()? != "shardwin" {
        return None;
    }
    let t: usize = it.next()?.parse().ok()?;
    let policy: usize = it.next()?.parse().ok()?;
    let width_ns: u64 = it.next()?.parse().ok()?;
    let epoch: u64 = it.next()?.parse().ok()?;
    let mut next_u64 = || -> Option<u64> { it.next()?.parse().ok() };
    let queue_high_water = next_u64()?;
    let degraded_flows = next_u64()?;
    let degrades = next_u64()?;
    let repromotes = next_u64()?;
    let faults = next_u64()?;
    let min = next_u64()?;
    let max = next_u64()?;
    let sum = ((next_u64()? as u128) << 64) | next_u64()? as u128;
    let ncores = next_u64()? as usize;
    let mut core_irqs = Vec::with_capacity(ncores);
    for _ in 0..ncores {
        core_irqs.push(next_u64()?);
    }
    let nbuckets = next_u64()? as usize;
    let mut sparse = Vec::with_capacity(nbuckets);
    for _ in 0..nbuckets {
        let pair = it.next()?;
        let (i, c) = pair.split_once(':')?;
        sparse.push((i.parse().ok()?, c.parse().ok()?));
    }
    if it.next().is_some() {
        return None; // trailing junk: not ours
    }
    let latency = Histogram::from_sparse(&sparse, sum, min, max);
    Some((
        t,
        policy,
        width_ns,
        epoch,
        TelemetryCell {
            latency,
            queue_high_water,
            core_irqs,
            degraded_flows,
            degrades,
            repromotes,
            faults,
        },
    ))
}

/// Write the collected series as JSONL to `path` and render its
/// sparklines to stderr. When nothing was collected — a binary with no
/// sweep grid — the instrumented demo scenario (sampler on via
/// `ObsConfig::full()`) is run as the fallback source.
pub fn write_timeseries(path: &Path) {
    if collector().lock().expect("no poisoning").is_empty() {
        let cfg = crate::harness::observability_demo_config();
        let label = cfg.policy.label();
        let run = cfg.run();
        collector()
            .lock()
            .expect("no poisoning")
            .fold_series(label, &run.telemetry);
    }
    let coll = collector().lock().expect("no poisoning");
    match std::fs::write(path, coll.to_jsonl()) {
        Ok(()) => {
            eprint!("{}", coll.render_sparklines());
            eprintln!("[timeseries] {}", path.display());
        }
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(latencies: &[u64], qhw: u64, irqs: &[u64]) -> TelemetryCell {
        let mut c = TelemetryCell {
            queue_high_water: qhw,
            core_irqs: irqs.to_vec(),
            degraded_flows: 1,
            degrades: 2,
            repromotes: 3,
            faults: 4,
            ..TelemetryCell::default()
        };
        for &l in latencies {
            c.latency.record(l);
        }
        c
    }

    #[test]
    fn window_line_round_trips_exactly() {
        let c = cell(&[1_000, 5_000, 5_000, 123_456_789], 17, &[0, 3, 0, 9]);
        let line = encode_window_line(42, 1, 1_000_000, 7, &c);
        let (t, p, w, e, back) = decode_window_line(&line).expect("round trip");
        assert_eq!((t, p, w, e), (42, 1, 1_000_000, 7));
        assert_eq!(back, c, "every field including the histogram bits");
    }

    #[test]
    fn empty_histogram_round_trips_to_pristine() {
        let c = cell(&[], 0, &[]);
        let line = encode_window_line(0, 0, 1_000, 0, &c);
        let (.., back) = decode_window_line(&line).expect("round trip");
        assert_eq!(back.latency, Histogram::new());
        assert_eq!(back, c);
    }

    #[test]
    fn decode_rejects_foreign_and_malformed_lines() {
        assert_eq!(decode_window_line("shardtask 3 0000000000000000"), None);
        assert_eq!(decode_window_line("shardwin"), None);
        assert_eq!(decode_window_line("shardwin 1 0 1000"), None, "truncated");
        let c = cell(&[5], 1, &[1]);
        let line = encode_window_line(0, 0, 1_000, 0, &c);
        assert_eq!(decode_window_line(&(line.clone() + " junk")), None);
        assert_eq!(
            decode_window_line(&line.replace("shardwin", "shardwim")),
            None
        );
    }

    #[test]
    fn collector_fold_is_grouping_independent() {
        // Folding two series whole vs. window-by-window in reverse order
        // lands on identical JSONL bytes — the shard-identity argument in
        // miniature.
        let a = cell(&[1_000, 2_000], 5, &[1, 0]);
        let b = cell(&[8_000], 9, &[0, 2, 4]);
        let mut whole = Collector::default();
        whole.fold_cell("SAIs", 1_000, 0, &a);
        whole.fold_cell("SAIs", 1_000, 0, &b);
        whole.fold_cell("SAIs", 1_000, 3, &b);
        let mut pieces = Collector::default();
        pieces.fold_cell("SAIs", 1_000, 3, &b);
        pieces.fold_cell("SAIs", 1_000, 0, &b);
        pieces.fold_cell("SAIs", 1_000, 0, &a);
        assert_eq!(whole.to_jsonl(), pieces.to_jsonl());
    }

    #[test]
    fn jsonl_has_header_then_integer_rows() {
        let mut coll = Collector::default();
        coll.fold_cell("SAIs", 1_000_000, 2, &cell(&[1_000], 3, &[1, 1]));
        coll.fold_cell("irqbalance", 1_000_000, 0, &cell(&[2_000], 1, &[2]));
        let out = coll.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "header + one row per (policy, epoch)");
        assert!(lines[0].contains("\"schema\": \"sais-timeseries/v1\""));
        assert!(lines[0].contains("\"window_ns\": 1000000"));
        assert!(lines[0].contains("\"windows\": 2"));
        // BTreeMap order: policies sorted, epochs ascending.
        assert!(lines[1].contains("\"policy\": \"SAIs\""));
        assert!(lines[1].contains("\"t_ns\": 2000000"));
        assert!(lines[2].contains("\"policy\": \"irqbalance\""));
        for l in &lines[1..] {
            assert!(!l.contains('.'), "integer-only rows: {l}");
        }
    }

    #[test]
    fn sparklines_render_one_block_per_policy() {
        let mut coll = Collector::default();
        for e in 0..10 {
            coll.fold_cell("SAIs", 1_000_000, e, &cell(&[e * 1_000 + 1], e, &[1]));
        }
        let s = coll.render_sparklines();
        assert!(s.contains("SAIs: 10 windows × 1000 µs"), "{s}");
        assert!(s.contains("p99 latency"), "{s}");
        assert!(s.contains("queue depth"), "{s}");
        assert!(s.contains("irqs/window"), "{s}");
        assert!(s.contains('█'), "a peak glyph appears: {s}");
    }
}
