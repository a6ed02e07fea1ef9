//! The streaming telemetry plane: windowed time-series sampling of a run.
//!
//! When [`ObsConfig::timeseries`](crate::scenario::ObsConfig) is on, the
//! cluster keeps one [`WindowRing`] of composite [`TelemetryCell`]s,
//! bucketed by simulated time (`epoch = now_ns / window_ns`). The hot
//! paths record only values the model already computed — a latency the
//! request path measured anyway, the strip slab's current length, the
//! destination core an interrupt was steered to — so enabling telemetry
//! never perturbs a simulated result (the figure CSVs stay
//! byte-identical; CI pins this). When off, the sampler holds no ring
//! and every entry point is a single branch.
//!
//! Rotation is driven purely by the virtual clock: the cell for a
//! timestamp is `t / width`, independent of how records are batched.
//! Expensive cluster-wide sweeps (policy churn, fault counters) happen
//! once per rotation, attributed to the window that just closed, and the
//! closed window is folded into the streaming
//! [`DetectorState`](sais_obs::DetectorState) immediately — bounded
//! memory, O(1) per-window detector state.
//!
//! All cell fields are integers, so absorbing same-epoch cells from
//! different cells or seeds is exact, associative and commutative: the
//! `--obs` telemetry collector lands on the same bytes however the sweep
//! was scheduled.

use sais_metrics::{Histogram, WindowPayload, WindowRing};
use sais_obs::{DetectorConfig, DetectorState, TelemetryVerdict, WindowStats};

/// Default window width: 1 ms of simulated time.
pub const DEFAULT_WINDOW_NS: u64 = 1_000_000;
/// Default ring capacity: 4096 windows (≈4 s of history at the default
/// width) — bounded memory regardless of run length.
pub const DEFAULT_WINDOW_CAPACITY: usize = 4096;

/// One telemetry window's composite payload. Every field merges exactly:
/// histograms bucket-add, counters add, gauges max.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryCell {
    /// Request completion latencies recorded in the window, nanoseconds.
    pub latency: Histogram,
    /// Peak simultaneously in-flight strips observed in the window.
    pub queue_high_water: u64,
    /// Hardirq batches handled per core (all clients), for occupancy.
    pub core_irqs: Vec<u64>,
    /// Flows on the degraded RSS path when the window closed (gauge).
    pub degraded_flows: u64,
    /// Hint-less streaks crossing the degrade threshold in the window.
    pub degrades: u64,
    /// Degraded flows re-armed by a valid hint in the window.
    pub repromotes: u64,
    /// Fault events (retransmits, timeouts, drops, parse errors,
    /// stripped options, …) in the window.
    pub faults: u64,
}

impl WindowPayload for TelemetryCell {
    fn absorb(&mut self, other: &Self) {
        self.latency.merge(&other.latency);
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        if self.core_irqs.len() < other.core_irqs.len() {
            self.core_irqs.resize(other.core_irqs.len(), 0);
        }
        for (a, b) in self.core_irqs.iter_mut().zip(other.core_irqs.iter()) {
            *a += b;
        }
        self.degraded_flows = self.degraded_flows.max(other.degraded_flows);
        self.degrades += other.degrades;
        self.repromotes += other.repromotes;
        self.faults += other.faults;
    }
}

impl TelemetryCell {
    /// Summarize the cell as the integer statistics the detectors and the
    /// `sais-timeseries/v1` exporter consume.
    pub fn stats(&self, epoch: u64) -> WindowStats {
        WindowStats {
            epoch,
            samples: self.latency.count(),
            p50_ns: self.latency.quantile(0.5),
            p99_ns: self.latency.quantile(0.99),
            p999_ns: self.latency.quantile(0.999),
            queue_high_water: self.queue_high_water,
            irqs: self.core_irqs.iter().sum(),
            busiest_core_irqs: self.core_irqs.iter().copied().max().unwrap_or(0),
            active_cores: self.core_irqs.iter().filter(|&&c| c > 0).count() as u64,
            degraded_flows: self.degraded_flows,
            degrades: self.degrades,
            repromotes: self.repromotes,
            faults: self.faults,
        }
    }
}

/// A finished run's windowed time series. `None` ring ⇔ telemetry was
/// off: the disabled state owns no heap at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySeries {
    ring: Option<WindowRing<TelemetryCell>>,
}

impl TelemetrySeries {
    /// An enabled, empty series.
    pub fn new(window_ns: u64, capacity: usize) -> Self {
        TelemetrySeries {
            ring: Some(WindowRing::new(window_ns, capacity)),
        }
    }

    /// The disabled series (no ring, no heap).
    pub fn disabled() -> Self {
        TelemetrySeries::default()
    }

    /// Whether telemetry was on for the run.
    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Window width in nanoseconds (0 when disabled).
    pub fn window_ns(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.width_ns())
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.ring.as_ref().map_or(0, |r| r.len())
    }

    /// Whether the series holds no windows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The underlying ring, if enabled.
    pub fn ring(&self) -> Option<&WindowRing<TelemetryCell>> {
        self.ring.as_ref()
    }

    /// Iterate retained windows as `(epoch, cell)`, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = (u64, &TelemetryCell)> {
        self.ring.iter().flat_map(|r| r.windows())
    }

    /// Summarize every retained window, oldest first.
    pub fn stats(&self) -> Vec<WindowStats> {
        self.windows().map(|(e, c)| c.stats(e)).collect()
    }
}

/// The cluster's live sampler: the ring being filled plus the rotation
/// bookkeeping and the streaming detector fold.
#[derive(Debug, Clone)]
pub struct TelemetrySampler {
    series: TelemetrySeries,
    width_ns: u64,
    /// Epoch currently accumulating (valid once `started`).
    cur_epoch: u64,
    started: bool,
    /// Cumulative cluster totals already attributed to closed windows.
    last_degrades: u64,
    last_repromotes: u64,
    last_faults: u64,
    detector: DetectorState,
}

impl TelemetrySampler {
    /// A disabled sampler: no ring, every entry point one branch.
    pub fn disabled() -> Self {
        TelemetrySampler {
            series: TelemetrySeries::disabled(),
            width_ns: 0,
            cur_epoch: 0,
            started: false,
            last_degrades: 0,
            last_repromotes: 0,
            last_faults: 0,
            detector: DetectorState::new(DetectorConfig::default()),
        }
    }

    /// An enabled sampler with the given window geometry.
    pub fn enabled(window_ns: u64, capacity: usize) -> Self {
        TelemetrySampler {
            series: TelemetrySeries::new(window_ns.max(1), capacity.max(1)),
            width_ns: window_ns.max(1),
            ..TelemetrySampler::disabled()
        }
    }

    /// Whether sampling is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.series.is_enabled()
    }

    /// The epoch containing `t_ns`.
    #[inline]
    fn epoch_of(&self, t_ns: u64) -> u64 {
        t_ns / self.width_ns
    }

    /// True when `t_ns` falls past the accumulating window — the caller
    /// must run its cluster-wide sweep and call [`Self::rotate`].
    #[inline]
    pub fn needs_rotation(&self, t_ns: u64) -> bool {
        self.is_enabled() && self.started && self.epoch_of(t_ns) > self.cur_epoch
    }

    /// Close the accumulating window: attribute the sweep deltas
    /// (cumulative cluster totals) and the degraded-flow gauge to it,
    /// fold it — and any gap windows up to `t_ns` — into the streaming
    /// detectors, and start accumulating the window containing `t_ns`.
    pub fn rotate(
        &mut self,
        t_ns: u64,
        degrades: u64,
        repromotes: u64,
        faults: u64,
        degraded: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let next = self.epoch_of(t_ns);
        self.close_windows(next, degrades, repromotes, faults, degraded);
        let ring = self.series.ring.as_mut().expect("enabled sampler has ring");
        ring.advance_to(t_ns);
        self.cur_epoch = next;
        self.started = true;
    }

    /// Close the windows `cur_epoch..next`: attribute the sweep deltas
    /// and the gauge to the accumulating one, then fold each (including
    /// empty gap windows) into the streaming detectors.
    fn close_windows(
        &mut self,
        next: u64,
        degrades: u64,
        repromotes: u64,
        faults: u64,
        degraded: u64,
    ) {
        let cur = self.cur_epoch;
        let width = self.width_ns;
        let d_degrades = degrades.saturating_sub(self.last_degrades);
        let d_repromotes = repromotes.saturating_sub(self.last_repromotes);
        let d_faults = faults.saturating_sub(self.last_faults);
        let ring = self.series.ring.as_mut().expect("enabled sampler has ring");
        if self.started {
            ring.record_at(cur.saturating_mul(width), |c| {
                c.degrades += d_degrades;
                c.repromotes += d_repromotes;
                c.faults += d_faults;
                c.degraded_flows = c.degraded_flows.max(degraded);
            });
            for epoch in cur..next {
                let stats = ring
                    .window(epoch)
                    .map(|c| c.stats(epoch))
                    .unwrap_or(WindowStats {
                        epoch,
                        ..WindowStats::default()
                    });
                self.detector.observe(&stats);
            }
        }
        self.last_degrades = degrades;
        self.last_repromotes = repromotes;
        self.last_faults = faults;
    }

    /// Record one request completion latency.
    #[inline]
    pub fn record_latency(&mut self, t_ns: u64, latency_ns: u64) {
        if let Some(ring) = self.series.ring.as_mut() {
            ring.record_at(t_ns, |c| c.latency.record(latency_ns));
            self.touch(t_ns);
        }
    }

    /// Record one handled hardirq batch: destination core occupancy and
    /// the in-flight queue depth at dispatch.
    #[inline]
    pub fn record_irq(&mut self, t_ns: u64, core: usize, queue_depth: u64) {
        if let Some(ring) = self.series.ring.as_mut() {
            ring.record_at(t_ns, |c| {
                if c.core_irqs.len() <= core {
                    c.core_irqs.resize(core + 1, 0);
                }
                c.core_irqs[core] += 1;
                c.queue_high_water = c.queue_high_water.max(queue_depth);
            });
            self.touch(t_ns);
        }
    }

    /// Start accumulation on the first record (epoch 0 onward).
    #[inline]
    fn touch(&mut self, t_ns: u64) {
        if !self.started {
            self.cur_epoch = self.epoch_of(t_ns);
            self.started = true;
        }
    }

    /// Final sweep at end of run: close the last window with the final
    /// cumulative totals and fold it into the detectors, without opening
    /// a trailing empty window.
    pub fn finish(&mut self, degrades: u64, repromotes: u64, faults: u64, degraded: u64) {
        if !self.is_enabled() || !self.started {
            return;
        }
        let next = self.cur_epoch + 1;
        self.close_windows(next, degrades, repromotes, faults, degraded);
        self.cur_epoch = next;
    }

    /// Windows opened so far (rotation count, incl. gap fills).
    pub fn rotations(&self) -> u64 {
        self.series.ring.as_ref().map_or(0, |r| r.rotations())
    }

    /// Windows folded through the streaming detectors so far.
    pub fn detector_evals(&self) -> u64 {
        self.detector.evals()
    }

    /// Verdicts the streaming detectors have reached.
    pub fn verdicts(&self) -> &[TelemetryVerdict] {
        self.detector.verdicts()
    }

    /// The accumulated series (clone for `RunMetrics`).
    pub fn series(&self) -> &TelemetrySeries {
        &self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sampler_owns_no_heap_and_ignores_records() {
        let mut s = TelemetrySampler::disabled();
        assert!(!s.is_enabled());
        for t in 0..10_000u64 {
            s.record_latency(t * 1_000, 42);
            s.record_irq(t * 1_000, 3, t);
        }
        s.finish(9, 9, 9, 9);
        assert_eq!(s.rotations(), 0);
        assert_eq!(s.detector_evals(), 0);
        assert!(s.series().is_empty());
        assert!(!s.needs_rotation(u64::MAX));
    }

    #[test]
    fn rotation_attributes_deltas_to_closing_window() {
        let mut s = TelemetrySampler::enabled(1_000, 64);
        s.record_latency(100, 5_000);
        s.record_irq(500, 0, 3);
        assert!(s.needs_rotation(1_500));
        // Cluster totals at the first rotation: 2 degrades, 1 re-promote.
        s.rotate(1_500, 2, 1, 10, 4);
        s.record_irq(1_600, 1, 7);
        // Totals advanced by (1, 1, 5) during window 1.
        s.finish(3, 2, 15, 2);
        let stats = s.series().stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].epoch, 0);
        assert_eq!(stats[0].samples, 1);
        assert_eq!(stats[0].degrades, 2);
        assert_eq!(stats[0].repromotes, 1);
        assert_eq!(stats[0].faults, 10);
        assert_eq!(stats[0].degraded_flows, 4);
        assert_eq!(stats[0].queue_high_water, 3);
        assert_eq!(stats[1].epoch, 1);
        assert_eq!(stats[1].degrades, 1);
        assert_eq!(stats[1].repromotes, 1);
        assert_eq!(stats[1].faults, 5);
        assert_eq!(stats[1].queue_high_water, 7);
        assert_eq!(s.detector_evals(), 2);
    }

    #[test]
    fn gap_windows_are_observed_as_empty() {
        let mut s = TelemetrySampler::enabled(100, 64);
        s.record_irq(50, 0, 1);
        // Jump 5 windows ahead: epochs 0..=4 close (0 real, 1–4 gaps).
        s.rotate(550, 0, 0, 0, 0);
        assert_eq!(s.detector_evals(), 5);
        s.finish(0, 0, 0, 0);
        assert_eq!(s.detector_evals(), 6);
        let stats = s.series().stats();
        assert_eq!(stats.len(), 6);
        assert!(stats[1..].iter().all(|w| w.irqs == 0));
    }
}
