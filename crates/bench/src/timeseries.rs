//! The `--obs` telemetry series: deterministic aggregation of windowed
//! telemetry into one `sais-timeseries/v1` JSONL document.
//!
//! Under `--obs <dir>` the sweep runner enables [`ObsConfig::timeseries`]
//! on every grid cell — sampling is bit-inert, so the figure CSV does not
//! move — and folds each run's [`TelemetrySeries`] into a process-global
//! [`Collector`] keyed by policy label and window epoch. All window
//! payloads are integers, so the fold is exact, associative and
//! commutative, and the sweep runner folds in fixed `(cell, seed)` order
//! on top: the merged series is byte-identical no matter how the grid was
//! scheduled.
//!
//! A binary that runs its cells outside the sweep grid (`fig12`,
//! `fig14`, `fig_faults`, the ablations, `tab_latency`, `tab_stages`)
//! folds nothing and writes a header-only series: the export describes
//! only runs the binary made.
//!
//! [`ObsConfig::timeseries`]: sais_core::scenario::ObsConfig
//! [`TelemetrySeries`]: sais_core::telemetry::TelemetrySeries

use sais_core::telemetry::{TelemetryCell, TelemetrySeries};
use sais_metrics::sparkline;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

/// Schema tag on the first line of every JSONL export.
pub const TIMESERIES_SCHEMA: &str = "sais-timeseries/v1";

/// Sparkline width (epochs are averaged down to this many glyphs).
pub const SPARKLINE_WIDTH: usize = 64;

/// Process-wide switch, installed once from the parsed command line
/// (first caller wins). When off — library use, tests, no `--obs` flag —
/// the sweep runner leaves `ObsConfig::timeseries` alone and collects
/// nothing.
static ACTIVE: OnceLock<bool> = OnceLock::new();

/// Install whether `--obs` was passed.
pub fn set_collection_active(on: bool) {
    let _ = ACTIVE.set(on);
}

/// Whether telemetry collection is active in this process.
pub fn collection_active() -> bool {
    ACTIVE.get().copied().unwrap_or(false)
}

/// The process-global collector behind `--obs`.
pub fn collector() -> &'static Mutex<Collector> {
    static COLLECTOR: OnceLock<Mutex<Collector>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Collector::default()))
}

/// Deterministic aggregation of telemetry windows across every sweep
/// cell and seed: one [`TelemetryCell`] per (policy label, epoch),
/// merged with the same exact integer absorbs the window ring uses.
#[derive(Debug, Default)]
pub struct Collector {
    width_ns: u64,
    policies: BTreeMap<String, BTreeMap<u64, TelemetryCell>>,
}

impl Collector {
    /// Retained windows summed over policies.
    pub fn window_count(&self) -> usize {
        self.policies.values().map(|w| w.len()).sum()
    }

    /// Fold one window into the (policy, epoch) aggregate.
    fn fold_cell(&mut self, policy: &str, width_ns: u64, epoch: u64, cell: &TelemetryCell) {
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
    /// integer, so the bytes are a pure function of the folded windows.
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

/// Write the collected series as JSONL to `path` and render its
/// sparklines to stderr.
pub fn write_timeseries(path: &Path) {
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
    fn collector_fold_is_grouping_independent() {
        // Folding two series whole vs. window-by-window in reverse order
        // lands on identical JSONL bytes.
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
