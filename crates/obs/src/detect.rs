//! Streaming saturation/livelock/tail detectors over telemetry windows.
//!
//! The telemetry plane (see `sais-core::telemetry`) slices a run into
//! fixed-width windows of simulated time and summarizes each one as a
//! [`WindowStats`]. A [`DetectorState`] folds those summaries **as the
//! windows close** — O(1) state per detector, no window history — and
//! surfaces pathologies as typed [`TelemetryVerdict`]s:
//!
//! * **Saturation** — the in-flight queue high-water grows strictly
//!   monotonically for K consecutive windows: offered load is outrunning
//!   drain and the backlog will not self-correct.
//! * **Steering livelock** — SAIs degrade and re-promote churn both fire
//!   inside the same window, for several windows in a row: a flow's hint
//!   channel is flapping (e.g. an intermittent middlebox) and steering
//!   oscillates between the source-aware and RSS paths.
//! * **Tail burn** — the windowed p999 request latency exceeds an SLO
//!   for K consecutive windows: a sustained tail regression rather than
//!   a one-window blip.
//!
//! Every rule is a pure fold over the window sequence, so the same
//! verdicts come out of the live per-rotation evaluation inside the
//! simulation and the post-hoc [`evaluate`] over a merged series — the
//! `trace_analyze --assert-no-flapping` CI gate relies on that.

/// One closed telemetry window, summarized with integer statistics.
///
/// All fields are exact integers, like the window payloads they
/// summarize (see the window module in `sais-metrics`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Window index: `epoch = t_ns / window_ns`.
    pub epoch: u64,
    /// Latency samples (completed requests) in the window.
    pub samples: u64,
    /// Windowed median request latency, nanoseconds.
    pub p50_ns: u64,
    /// Windowed p99 request latency, nanoseconds.
    pub p99_ns: u64,
    /// Windowed p999 request latency, nanoseconds.
    pub p999_ns: u64,
    /// Peak simultaneously in-flight strips observed in the window.
    pub queue_high_water: u64,
    /// Hardirq batches handled in the window.
    pub irqs: u64,
    /// Hardirqs on the busiest core (occupancy skew numerator).
    pub busiest_core_irqs: u64,
    /// Cores that handled at least one hardirq in the window.
    pub active_cores: u64,
    /// Flows on the degraded RSS path when the window closed.
    pub degraded_flows: u64,
    /// Flows whose hint-less streak crossed the degrade threshold in the
    /// window.
    pub degrades: u64,
    /// Degraded flows re-armed by a valid hint in the window.
    pub repromotes: u64,
    /// Fault events (retransmits, drops, parse errors, …) in the window.
    pub faults: u64,
}

/// Thresholds for the streaming detectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Consecutive strictly-growing queue high-water windows that flag
    /// saturation.
    pub saturation_windows: u32,
    /// Consecutive flapping windows (degrade *and* re-promote churn in
    /// the same window) that flag a steering livelock.
    pub flap_windows: u32,
    /// p999 SLO in nanoseconds for the tail-burn detector.
    pub tail_slo_ns: u64,
    /// Consecutive windows over the SLO that flag tail burn.
    pub tail_windows: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            saturation_windows: 4,
            flap_windows: 2,
            tail_slo_ns: 250_000_000, // 250 ms
            tail_windows: 4,
        }
    }
}

/// A typed detector outcome, anchored to the epoch range that tripped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryVerdict {
    /// Queue depth grew strictly monotonically over the flagged windows.
    Saturation {
        /// First epoch of the growing run.
        from_epoch: u64,
        /// Length of the run in windows.
        windows: u32,
        /// Queue high-water at the end of the run.
        peak_depth: u64,
    },
    /// Degrade/re-promote churn flapped for consecutive windows.
    SteeringLivelock {
        /// First flapping epoch.
        from_epoch: u64,
        /// Consecutive flapping windows.
        windows: u32,
        /// Total degrade + re-promote events over the run.
        churn: u64,
    },
    /// Windowed p999 exceeded the SLO for consecutive windows.
    TailBurn {
        /// First epoch over the SLO.
        from_epoch: u64,
        /// Consecutive windows over the SLO.
        windows: u32,
        /// Worst windowed p999 over the run, nanoseconds.
        worst_p999_ns: u64,
    },
}

impl TelemetryVerdict {
    /// Short machine-readable kind tag (used in reports and JSON).
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryVerdict::Saturation { .. } => "saturation",
            TelemetryVerdict::SteeringLivelock { .. } => "steering_livelock",
            TelemetryVerdict::TailBurn { .. } => "tail_burn",
        }
    }
}

impl std::fmt::Display for TelemetryVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TelemetryVerdict::Saturation {
                from_epoch,
                windows,
                peak_depth,
            } => write!(
                f,
                "saturation: queue depth grew for {windows} consecutive windows \
                 from epoch {from_epoch} (peak {peak_depth} in flight)"
            ),
            TelemetryVerdict::SteeringLivelock {
                from_epoch,
                windows,
                churn,
            } => write!(
                f,
                "steering livelock: degrade/re-promote flapping for {windows} \
                 consecutive windows from epoch {from_epoch} ({churn} churn events)"
            ),
            TelemetryVerdict::TailBurn {
                from_epoch,
                windows,
                worst_p999_ns,
            } => write!(
                f,
                "tail burn: p999 over SLO for {windows} consecutive windows \
                 from epoch {from_epoch} (worst {:.3} ms)",
                *worst_p999_ns as f64 / 1e6
            ),
        }
    }
}

/// Streaming fold state: feed each closing window to
/// [`DetectorState::observe`]; verdicts accumulate as runs cross their
/// thresholds (one verdict per episode, extended in place while the
/// episode continues).
#[derive(Debug, Clone)]
pub struct DetectorState {
    cfg: DetectorConfig,
    evals: u64,
    // Saturation run: windows so far with strictly-growing queue depth.
    sat_run: u32,
    sat_from: u64,
    last_queue_hw: u64,
    sat_verdict: Option<usize>,
    // Flap run.
    flap_run: u32,
    flap_from: u64,
    flap_churn: u64,
    flap_verdict: Option<usize>,
    // Tail run.
    tail_run: u32,
    tail_from: u64,
    tail_worst: u64,
    tail_verdict: Option<usize>,
    verdicts: Vec<TelemetryVerdict>,
}

impl DetectorState {
    /// Fresh state with the given thresholds.
    pub fn new(cfg: DetectorConfig) -> Self {
        DetectorState {
            cfg,
            evals: 0,
            sat_run: 0,
            sat_from: 0,
            last_queue_hw: 0,
            sat_verdict: None,
            flap_run: 0,
            flap_from: 0,
            flap_churn: 0,
            flap_verdict: None,
            tail_run: 0,
            tail_from: 0,
            tail_worst: 0,
            tail_verdict: None,
            verdicts: Vec::new(),
        }
    }

    /// Windows observed so far (the perf baseline tracks this as the
    /// telemetry plane's own work).
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// The verdicts reached so far.
    pub fn verdicts(&self) -> &[TelemetryVerdict] {
        &self.verdicts
    }

    /// Fold one closed window into every detector.
    pub fn observe(&mut self, w: &WindowStats) {
        self.evals += 1;

        // Saturation: strictly growing, nonzero queue high-water.
        if w.queue_high_water > self.last_queue_hw {
            if self.sat_run == 0 {
                self.sat_from = w.epoch;
            }
            self.sat_run += 1;
            if self.sat_run >= self.cfg.saturation_windows {
                let v = TelemetryVerdict::Saturation {
                    from_epoch: self.sat_from,
                    windows: self.sat_run,
                    peak_depth: w.queue_high_water,
                };
                match self.sat_verdict {
                    Some(i) => self.verdicts[i] = v,
                    None => {
                        self.verdicts.push(v);
                        self.sat_verdict = Some(self.verdicts.len() - 1);
                    }
                }
            }
        } else {
            self.sat_run = 0;
            self.sat_verdict = None;
        }
        self.last_queue_hw = w.queue_high_water;

        // Livelock: both churn directions inside one window.
        if w.degrades > 0 && w.repromotes > 0 {
            if self.flap_run == 0 {
                self.flap_from = w.epoch;
                self.flap_churn = 0;
            }
            self.flap_run += 1;
            self.flap_churn += w.degrades + w.repromotes;
            if self.flap_run >= self.cfg.flap_windows {
                let v = TelemetryVerdict::SteeringLivelock {
                    from_epoch: self.flap_from,
                    windows: self.flap_run,
                    churn: self.flap_churn,
                };
                match self.flap_verdict {
                    Some(i) => self.verdicts[i] = v,
                    None => {
                        self.verdicts.push(v);
                        self.flap_verdict = Some(self.verdicts.len() - 1);
                    }
                }
            }
        } else {
            self.flap_run = 0;
            self.flap_verdict = None;
        }

        // Tail burn: windows with samples whose p999 exceeds the SLO.
        if w.samples > 0 && w.p999_ns > self.cfg.tail_slo_ns {
            if self.tail_run == 0 {
                self.tail_from = w.epoch;
                self.tail_worst = 0;
            }
            self.tail_run += 1;
            self.tail_worst = self.tail_worst.max(w.p999_ns);
            if self.tail_run >= self.cfg.tail_windows {
                let v = TelemetryVerdict::TailBurn {
                    from_epoch: self.tail_from,
                    windows: self.tail_run,
                    worst_p999_ns: self.tail_worst,
                };
                match self.tail_verdict {
                    Some(i) => self.verdicts[i] = v,
                    None => {
                        self.verdicts.push(v);
                        self.tail_verdict = Some(self.verdicts.len() - 1);
                    }
                }
            }
        } else {
            self.tail_run = 0;
            self.tail_verdict = None;
        }
    }
}

/// Fold a complete window sequence through a fresh [`DetectorState`] —
/// the post-hoc path `trace_analyze` uses on merged series. Identical to
/// observing each window live, by construction.
pub fn evaluate(cfg: DetectorConfig, windows: &[WindowStats]) -> Vec<TelemetryVerdict> {
    let mut st = DetectorState::new(cfg);
    for w in windows {
        st.observe(w);
    }
    st.verdicts().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(epoch: u64) -> WindowStats {
        WindowStats {
            epoch,
            ..WindowStats::default()
        }
    }

    #[test]
    fn quiet_windows_yield_no_verdicts() {
        let windows: Vec<WindowStats> = (0..50).map(w).collect();
        assert!(evaluate(DetectorConfig::default(), &windows).is_empty());
    }

    #[test]
    fn saturation_needs_strict_monotone_growth() {
        let cfg = DetectorConfig {
            saturation_windows: 3,
            ..DetectorConfig::default()
        };
        // Growing but with a plateau: the run resets, no verdict.
        let mut plateau = vec![w(0), w(1), w(2), w(3)];
        for (i, qs) in [1u64, 2, 2, 3].iter().enumerate() {
            plateau[i].queue_high_water = *qs;
        }
        assert!(evaluate(cfg, &plateau).is_empty());
        // Strict growth over 3 windows: one verdict, extended in place as
        // the growth continues.
        let mut growing = vec![w(0), w(1), w(2), w(3)];
        for (i, qs) in [1u64, 2, 3, 4].iter().enumerate() {
            growing[i].queue_high_water = *qs;
        }
        let vs = evaluate(cfg, &growing);
        assert_eq!(
            vs,
            vec![TelemetryVerdict::Saturation {
                from_epoch: 0,
                windows: 4,
                peak_depth: 4,
            }]
        );
    }

    #[test]
    fn livelock_needs_both_directions_per_window() {
        let cfg = DetectorConfig {
            flap_windows: 2,
            ..DetectorConfig::default()
        };
        // Degrades alone — a one-way slide, not a flap.
        let mut slide: Vec<WindowStats> = (0..6).map(w).collect();
        for s in &mut slide {
            s.degrades = 5;
        }
        assert!(evaluate(cfg, &slide).is_empty());
        // Both directions for two windows running: livelock.
        let mut flap: Vec<WindowStats> = (0..3).map(w).collect();
        for s in &mut flap[1..] {
            s.degrades = 3;
            s.repromotes = 2;
        }
        let vs = evaluate(cfg, &flap);
        assert_eq!(
            vs,
            vec![TelemetryVerdict::SteeringLivelock {
                from_epoch: 1,
                windows: 2,
                churn: 10,
            }]
        );
        assert_eq!(vs[0].kind(), "steering_livelock");
    }

    #[test]
    fn tail_burn_requires_consecutive_slo_misses() {
        let cfg = DetectorConfig {
            tail_slo_ns: 1_000_000,
            tail_windows: 3,
            ..DetectorConfig::default()
        };
        let over = |epoch: u64, p999: u64| {
            let mut s = w(epoch);
            s.samples = 10;
            s.p999_ns = p999;
            s
        };
        // Two over, one under, two over: never 3 consecutive.
        let seq = vec![
            over(0, 2_000_000),
            over(1, 2_000_000),
            over(2, 500_000),
            over(3, 2_000_000),
            over(4, 2_000_000),
        ];
        assert!(evaluate(cfg, &seq).is_empty());
        // Three consecutive: verdict records the worst p999.
        let seq = vec![over(0, 2_000_000), over(1, 9_000_000), over(2, 3_000_000)];
        let vs = evaluate(cfg, &seq);
        assert_eq!(
            vs,
            vec![TelemetryVerdict::TailBurn {
                from_epoch: 0,
                windows: 3,
                worst_p999_ns: 9_000_000,
            }]
        );
        // Sample-free windows never trip the detector (empty p999 is 0
        // anyway, but the guard documents intent).
        let empty: Vec<WindowStats> = (0..10).map(w).collect();
        assert!(evaluate(cfg, &empty).is_empty());
    }

    #[test]
    fn streaming_matches_batch_evaluation() {
        let mut windows: Vec<WindowStats> = (0..30).map(w).collect();
        for (i, s) in windows.iter_mut().enumerate() {
            s.queue_high_water = (i as u64 * 7) % 13;
            s.degrades = (i as u64) % 3;
            s.repromotes = (i as u64 + 1) % 2;
            s.samples = 5;
            s.p999_ns = ((i as u64 * 31) % 11) * 50_000_000;
        }
        let cfg = DetectorConfig {
            saturation_windows: 2,
            flap_windows: 2,
            tail_slo_ns: 100_000_000,
            tail_windows: 2,
        };
        let batch = evaluate(cfg, &windows);
        let mut st = DetectorState::new(cfg);
        for win in &windows {
            st.observe(win);
        }
        assert_eq!(st.verdicts(), &batch[..]);
        assert_eq!(st.evals(), 30);
    }
}
