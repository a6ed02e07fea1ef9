//! Turning passes into named metrics, and the result line.

use crate::quantile;
use crate::run::{Pass, Span, Trace, KINDS};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Ordered metric list under construction.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Host time of the timed passes.
///
/// Each run is timed once per pass, and its time is the fastest of those
/// repetitions: on the reference host the same run's time is bimodal
/// (about 2x between modes) and the mix of modes drifts over minutes,
/// while the fast mode holds steady (see `README.md`). `wall_s` sums the
/// per-run times and the percentiles range over them.
#[derive(Debug, Clone, Copy)]
pub struct HostTime {
    /// Seconds for one pass.
    pub wall_s: f64,
    /// Median run, ms.
    pub run_ms_p50: f64,
    /// 90th-percentile run, ms.
    pub run_ms_p90: f64,
}

impl HostTime {
    /// Summarize `timed`, passes over the same jobs.
    ///
    /// # Panics
    /// If `timed` is empty.
    pub fn of(timed: &[Pass]) -> HostTime {
        let runs = timed[0].run_ns.len();
        let best: Vec<f64> = (0..runs)
            .map(|j| {
                timed
                    .iter()
                    .map(|p| p.run_ns[j])
                    .min()
                    .expect("a timed pass") as f64
                    / 1e6
            })
            .collect();
        HostTime {
            wall_s: best.iter().sum::<f64>() / 1e3,
            run_ms_p50: quantile(&best, 0.5),
            run_ms_p90: quantile(&best, 0.9),
        }
    }

    /// Append the three end-to-end metrics.
    pub fn put(&self, out: &mut Metrics) {
        out.put("wall_s", self.wall_s, "s");
        out.put("run_ms_p50", self.run_ms_p50, "ms");
        out.put("run_ms_p90", self.run_ms_p90, "ms");
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Per-layer metrics of one traced pass. `untraced_wall_s` is the median
/// wall of the same invocation's untraced passes, the single-pass figure
/// the traced pass compares with.
pub fn layers(
    traced: &Pass,
    trace: &Trace,
    untraced_wall_s: f64,
    failed_run_share: f64,
    out: &mut Metrics,
) {
    let c = traced.counts();
    let span = |s: Span| trace.span_ns[s as usize];
    let handlers: u64 = trace.handler_ns.iter().sum();
    let sim_self = span(Span::Engine).saturating_sub(handlers);

    out.put("sim.self_ms", ms(sim_self), "ms");
    out.put("sim.ns_per_event", share(sim_self, c.events), "ns");
    out.put("sim.events", c.events as f64, "count");
    out.put("sim.cascades", c.cascades as f64, "count");
    out.put("sim.mean_batch", share(c.events, c.batches), "events");
    out.put("sim.queue_high_water", c.queue_high_water as f64, "count");
    for (k, name) in KINDS.iter().enumerate() {
        out.put(format!("core.{name}_ms"), ms(trace.handler_ns[k]), "ms");
        out.put(
            format!("core.{name}_events"),
            trace.handler_calls[k] as f64,
            "count",
        );
    }
    out.put("core.memsim_ms", ms(span(Span::MemSim)), "ms");
    out.put("core.cluster_new_ms", ms(span(Span::ClusterNew)), "ms");
    out.put("core.collect_ms", ms(span(Span::Collect)), "ms");
    out.put("metrics.emit_ms", ms(span(Span::Emit)), "ms");
    out.put("core.strip_migrations", c.strip_migrations as f64, "count");

    out.put("mem.accesses", c.mem_accesses as f64, "count");
    out.put("mem.misses", c.mem_misses as f64, "count");
    out.put("mem.c2c_lines", c.mem_c2c_lines as f64, "count");
    out.put("mem.dram_fetches", c.mem_dram_fetches as f64, "count");
    let extent_names = [
        "mem.whole_hit_groups",
        "mem.whole_c2c_groups",
        "mem.whole_fill_groups",
        "mem.partial_hit_lines",
        "mem.masked_fill_lines",
        "mem.fallback_lines",
    ];
    for (name, v) in extent_names.into_iter().zip(c.mem_extent) {
        out.put(name, v as f64, "count");
    }
    out.put(
        "mem.fast_path_share",
        1.0 - share(c.mem_extent[5], c.mem_lines_touched()),
        "ratio",
    );

    out.put("net.retransmits", c.net_retransmits as f64, "count");
    out.put("net.timeouts", c.net_timeouts as f64, "count");
    out.put("net.parse_errors", c.net_parse_errors as f64, "count");
    out.put(
        "net.stripped_options",
        c.net_stripped_options as f64,
        "count",
    );

    out.put(
        "apic.hinted_share",
        share(c.apic_hinted, c.apic_interrupts),
        "ratio",
    );
    out.put("apic.degrades", c.apic_degrades as f64, "count");
    out.put("apic.repromotes", c.apic_repromotes as f64, "count");
    out.put("apic.degraded_flows", c.apic_degraded_flows as f64, "count");

    let util = if c.cluster_runs == 0 {
        0.0
    } else {
        c.cpu_utilization_sum / c.cluster_runs as f64
    };
    out.put("cpu.utilization", util, "ratio");

    out.put("obs.export_ms", ms(span(Span::Export)), "ms");
    out.put("obs.spans", c.obs_spans as f64, "count");
    out.put("obs.span_drops", c.obs_span_drops as f64, "count");
    out.put(
        "obs.window_rotations",
        c.obs_window_rotations as f64,
        "count",
    );

    let traced_ns: u64 = traced.run_ns.iter().sum();
    let covered: u64 = [
        Span::Engine,
        Span::Collect,
        Span::Emit,
        Span::Export,
        Span::MemSim,
    ]
    .into_iter()
    .map(span)
    .sum();
    out.put(
        "trace.overhead_pct",
        (traced.wall_s() / untraced_wall_s - 1.0) * 100.0,
        "%",
    );
    out.put(
        "trace.residual_pct",
        share(traced_ns.saturating_sub(covered), traced_ns) * 100.0,
        "%",
    );
    out.put("failed_run_share", failed_run_share, "ratio");
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.put("wall_s", 1.25, "s");
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
