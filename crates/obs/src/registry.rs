//! The central metric registry: named, typed metrics in one place.
//!
//! Components used to expose ad-hoc `Counter` fields that each reporting
//! site summed by hand; the registry replaces that with a single named
//! namespace (`"irq.routed"`, `"mem.l2_misses"`, `"stage.irq_to_handler"`)
//! that can be snapshotted **at any sim time** — mid-run or at quiescence —
//! and exported as machine-readable JSON. Values are written by a
//! collect pass over the components (pull model), so registration costs
//! the hot paths nothing.

use crate::json::{write_json_string, write_u64};
use sais_metrics::Histogram;
use sais_sim::SimTime;

/// Seven-number summary of a histogram, all in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistSummary {
    /// Summarize a histogram.
    pub fn of(h: &Histogram) -> Self {
        HistSummary {
            count: h.count(),
            mean: h.mean(),
            min: h.min(),
            max: h.max(),
            p50: h.quantile(0.5),
            p90: h.quantile(0.9),
            p99: h.quantile(0.99),
        }
    }
}

/// The live registry. Insertion order is preserved so exports are
/// deterministic; setting an existing name overwrites its value.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    hists: Vec<(String, Histogram)>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a monotone counter.
    pub fn counter(&mut self, name: &str, value: u64) {
        if let Some(e) = self.counters.iter_mut().find(|(n, _)| n == name) {
            e.1 = value;
        } else {
            self.counters.push((name.to_string(), value));
        }
    }

    /// Set a point-in-time gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        if let Some(e) = self.gauges.iter_mut().find(|(n, _)| n == name) {
            e.1 = value;
        } else {
            self.gauges.push((name.to_string(), value));
        }
    }

    /// Set a histogram (cloned into the registry).
    pub fn histogram(&mut self, name: &str, hist: &Histogram) {
        if let Some(e) = self.hists.iter_mut().find(|(n, _)| n == name) {
            e.1 = hist.clone();
        } else {
            self.hists.push((name.to_string(), hist.clone()));
        }
    }

    /// Read a counter back.
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Read a gauge back.
    pub fn get_gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Read a histogram back.
    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Freeze the registry into an exportable snapshot stamped `time`.
    pub fn snapshot(&self, time: SimTime) -> MetricSnapshot {
        MetricSnapshot {
            time,
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            hists: self
                .hists
                .iter()
                .map(|(n, h)| (n.clone(), HistSummary::of(h)))
                .collect(),
        }
    }
}

/// A frozen, exportable view of the registry at one instant.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Sim time of the snapshot.
    pub time: SimTime,
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries.
    pub hists: Vec<(String, HistSummary)>,
}

/// Render an f64 as a JSON number (non-finite values become 0, which JSON
/// cannot represent).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Append one `"name": value` line per entry of a snapshot section,
/// the first on a new line after the section's `{`.
fn write_entries<T>(entries: &[(String, T)], out: &mut String, value: impl Fn(&T, &mut String)) {
    let mut sep = "\n    ";
    for (name, v) in entries {
        out.push_str(sep);
        write_json_string(name, out);
        out.push_str(": ");
        value(v, out);
        sep = ",\n    ";
    }
}

impl MetricSnapshot {
    /// Serialize as JSON (`sais-metrics-snapshot/v1`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"sais-metrics-snapshot/v1\",\n");
        s.push_str("  \"sim_time_ns\": ");
        write_u64(self.time.as_nanos(), &mut s);
        s.push_str(",\n  \"counters\": {");
        write_entries(&self.counters, &mut s, |&v, s| write_u64(v, s));
        s.push_str("\n  },\n  \"gauges\": {");
        write_entries(&self.gauges, &mut s, |&v, s| s.push_str(&json_f64(v)));
        s.push_str("\n  },\n  \"histograms\": {");
        write_entries(&self.hists, &mut s, |h, s| {
            s.push_str("{\"count\": ");
            write_u64(h.count, s);
            s.push_str(", \"mean_ns\": ");
            s.push_str(&json_f64(h.mean));
            for (field, v) in [
                (", \"min_ns\": ", h.min),
                (", \"max_ns\": ", h.max),
                (", \"p50_ns\": ", h.p50),
                (", \"p90_ns\": ", h.p90),
                (", \"p99_ns\": ", h.p99),
            ] {
                s.push_str(field);
                write_u64(v, s);
            }
            s.push('}');
        });
        s.push_str("\n  }\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn sample() -> MetricSnapshot {
        let mut reg = MetricRegistry::new();
        reg.counter("irq.routed", 128);
        reg.counter("irq.routed", 256); // overwrite
        reg.counter("mem.l2_misses", 7);
        reg.gauge("mem.l2_miss_rate", 0.015);
        let mut h = Histogram::new();
        for v in [1_000u64, 2_000, 4_000] {
            h.record(v);
        }
        reg.histogram("stage.irq_to_handler", &h);
        reg.snapshot(SimTime::from_micros(42))
    }

    #[test]
    fn set_and_read_back() {
        let mut reg = MetricRegistry::new();
        reg.counter("a", 1);
        reg.gauge("b", 2.5);
        let mut h = Histogram::new();
        h.record(9);
        reg.histogram("c", &h);
        assert_eq!(reg.get_counter("a"), Some(1));
        assert_eq!(reg.get_gauge("b"), Some(2.5));
        assert_eq!(reg.get_histogram("c").unwrap().count(), 1);
        assert_eq!(reg.get_counter("missing"), None);
    }

    #[test]
    fn snapshot_json_parses_and_carries_values() {
        let snap = sample();
        let v = JsonValue::parse(&snap.to_json()).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(JsonValue::as_str),
            Some("sais-metrics-snapshot/v1")
        );
        assert_eq!(
            v.get("sim_time_ns").and_then(JsonValue::as_u64),
            Some(42_000)
        );
        let counters = v.get("counters").unwrap();
        assert_eq!(
            counters.get("irq.routed").and_then(JsonValue::as_u64),
            Some(256),
            "overwrite semantics"
        );
        let h = v
            .get("histograms")
            .unwrap()
            .get("stage.irq_to_handler")
            .unwrap();
        assert_eq!(h.get("count").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(h.get("min_ns").and_then(JsonValue::as_u64), Some(1_000));
        assert_eq!(h.get("max_ns").and_then(JsonValue::as_u64), Some(4_000));
    }

    #[test]
    fn non_finite_gauges_stay_valid_json() {
        let mut reg = MetricRegistry::new();
        reg.gauge("bad", f64::NAN);
        reg.gauge("worse", f64::INFINITY);
        let json = reg.snapshot(SimTime::ZERO).to_json();
        let v = JsonValue::parse(&json).expect("NaN must not leak into JSON");
        assert_eq!(
            v.get("gauges")
                .unwrap()
                .get("bad")
                .and_then(JsonValue::as_f64),
            Some(0.0)
        );
    }

    /// The snapshot's exact bytes: section layout, separators, integer
    /// and float rendering, and an empty registry.
    #[test]
    fn snapshot_json_bytes_are_pinned() {
        let mut reg = MetricRegistry::new();
        reg.counter("irq.routed", 256);
        reg.counter("sim.events", u64::MAX);
        reg.gauge("mem.l2_miss_rate", 0.015);
        reg.gauge("bad", f64::NAN);
        let mut h = Histogram::new();
        for v in [1_000u64, 2_000, 4_000] {
            h.record(v);
        }
        reg.histogram("stage.irq_to_handler", &h);
        reg.histogram("empty", &Histogram::new());
        let golden = r#"{
  "schema": "sais-metrics-snapshot/v1",
  "sim_time_ns": 42000,
  "counters": {
    "irq.routed": 256,
    "sim.events": 18446744073709551615
  },
  "gauges": {
    "mem.l2_miss_rate": 0.015,
    "bad": 0
  },
  "histograms": {
    "stage.irq_to_handler": {"count": 3, "mean_ns": 2333.3333333333335, "min_ns": 1000, "max_ns": 4000, "p50_ns": 1920, "p90_ns": 3840, "p99_ns": 3840},
    "empty": {"count": 0, "mean_ns": 0.0, "min_ns": 0, "max_ns": 0, "p50_ns": 0, "p90_ns": 0, "p99_ns": 0}
  }
}
"#;
        assert_eq!(reg.snapshot(SimTime::from_micros(42)).to_json(), golden);
        assert_eq!(
            MetricRegistry::new().snapshot(SimTime::ZERO).to_json(),
            "{\n  \"schema\": \"sais-metrics-snapshot/v1\",\n  \"sim_time_ns\": 0,\n  \
             \"counters\": {\n  },\n  \"gauges\": {\n  },\n  \"histograms\": {\n  }\n}\n"
        );
    }

    #[test]
    fn names_with_control_characters_round_trip() {
        let names = [
            "line\nbreak",
            "tab\t\r",
            "ctl\u{1}\u{8}\u{c}\u{1f}",
            "q\"b\\s",
        ];
        let mut reg = MetricRegistry::new();
        for (i, name) in names.iter().enumerate() {
            reg.counter(name, i as u64);
            reg.gauge(name, i as f64 + 0.5);
        }
        let json = reg.snapshot(SimTime::ZERO).to_json();
        assert!(json.contains(r#""line\nbreak": 0"#), "{json}");
        assert!(json.contains(r#""ctl\u0001\b\f\u001f": 2"#), "{json}");
        let v = JsonValue::parse(&json).expect("escaped names parse");
        for (i, name) in names.iter().enumerate() {
            let counter = v.get("counters").and_then(|c| c.get(name));
            assert_eq!(
                counter.and_then(JsonValue::as_u64),
                Some(i as u64),
                "{name:?}"
            );
            let gauge = v.get("gauges").and_then(|g| g.get(name));
            assert_eq!(gauge.and_then(JsonValue::as_f64), Some(i as f64 + 0.5));
        }
    }
}
