//! Trace analysis: turning recorded spans into explanations.
//!
//! The flight recorder answers *what happened*; this module answers *why
//! it took that long*. Four analyses, each consuming the same [`Trace`]
//! model:
//!
//! * [`blame`] — critical-path extraction: walk each request's span tree,
//!   find the chain that actually gated completion and attribute every
//!   nanosecond of the request's total to a blame category (NIC/link
//!   time, interrupt queueing, handler work, cache-migration stall,
//!   consume copy, idle). The categories partition the request interval
//!   exactly, so per-request blame always sums to the request total.
//! * [`diff`] — align two runs of the same scenario+seed request by
//!   request (the engine is deterministic, so alignment is exact) and
//!   report where the time moved.
//! * [`timeline`] — time-binned per-core occupancy by activity class
//!   (handler vs consume), rendered as CSV and an ASCII heatmap: the
//!   paper's "interrupts scattered across cores vs landed on the
//!   consumer" made directly visible.
//! * [`forensics`] — pick the tail-quantile outlier requests and emit
//!   their full critical path, segment by segment.
//!
//! A [`Trace`] is built either live from a [`FlightRecorder`]
//! ([`Trace::from_recorder`]) or from the Chrome/Perfetto `trace_event`
//! JSON the exporter writes ([`Trace::from_chrome_json`]), so the
//! `trace_analyze` CLI works both in-process and on artifacts from
//! earlier runs.

pub mod blame;
pub mod diff;
pub mod forensics;
pub mod timeline;

pub use blame::{blame_requests, BlameCategory, BlameTable, RequestBlame, CATEGORIES};
pub use diff::{diff_blames, RequestDelta, TraceDiff};
pub use forensics::tail_report;
pub use timeline::CoreTimeline;

use crate::json::JsonValue;
use crate::perfetto::{span_dur_ns, span_lane, span_parent, span_slot};
use crate::span::FlightRecorder;
use sais_sim::SimTime;

/// Sentinel for a span that never closed.
pub const OPEN_NS: u64 = u64::MAX;

/// An analyzer-side span: like [`crate::span::Span`] but with owned
/// strings and plain nanosecond fields, so it can be reconstructed from
/// exported JSON as well as borrowed from a live recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ASpan {
    /// Span name (`"read"`, `"strip"`, `"irq"`, `"copy"`).
    pub name: String,
    /// Span category (`"request"`, `"strip"`, `"interrupt"`, `"consume"`).
    pub cat: String,
    /// Parent span index, if any.
    pub parent: Option<usize>,
    /// Start instant, nanoseconds of sim time.
    pub start_ns: u64,
    /// End instant, nanoseconds; [`OPEN_NS`] if the span never closed.
    pub end_ns: u64,
    /// Process lane (client node index).
    pub pid: u32,
    /// Thread lane (core id, or a synthetic request lane).
    pub tid: u32,
    /// Key/value arguments.
    pub args: Vec<(String, u64)>,
}

impl ASpan {
    /// Look up an argument by key.
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Whether the span has an end.
    pub fn is_closed(&self) -> bool {
        self.end_ns != OPEN_NS
    }

    /// Duration in nanoseconds (0 while open).
    pub fn duration_ns(&self) -> u64 {
        if self.is_closed() {
            self.end_ns.saturating_sub(self.start_ns)
        } else {
            0
        }
    }
}

/// A span forest ready for analysis, with the child index prebuilt.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    spans: Vec<ASpan>,
    children: Vec<Vec<usize>>,
    roots: Vec<usize>,
}

impl Trace {
    fn from_spans(spans: Vec<ASpan>) -> Trace {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match s.parent {
                Some(p) if p < spans.len() => children[p].push(i),
                _ => roots.push(i),
            }
        }
        Trace {
            spans,
            children,
            roots,
        }
    }

    /// Build from a live recorder.
    pub fn from_recorder(rec: &FlightRecorder) -> Trace {
        let spans = rec
            .spans()
            .iter()
            .map(|s| ASpan {
                name: s.name.to_string(),
                cat: s.cat.to_string(),
                parent: if s.parent.is_some() {
                    Some(s.parent.0 as usize)
                } else {
                    None
                },
                start_ns: s.start.as_nanos(),
                end_ns: if s.end == SimTime::MAX {
                    OPEN_NS
                } else {
                    s.end.as_nanos()
                },
                pid: s.pid,
                tid: s.tid,
                args: s
                    .args
                    .iter()
                    .filter(|(k, _)| !k.is_empty())
                    .map(|&(k, v)| (k.to_string(), v))
                    .collect(),
            })
            .collect();
        Trace::from_spans(spans)
    }

    /// Build from the Chrome/Perfetto `trace_event` JSON the exporter
    /// writes ([`crate::perfetto::to_chrome_json`]): every `"X"` event
    /// carries its recorder id and parent id in `args`, which is exactly
    /// enough to rebuild the span forest.
    pub fn from_chrome_json(text: &str) -> Result<Trace, String> {
        let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .ok_or("missing traceEvents array")?;
        // One slot per event bounds every span id before it indexes.
        let mut slots: Vec<Option<ASpan>> = vec![None; events.len()];
        for ev in events {
            if ev.get("ph").and_then(JsonValue::as_str) != Some("X") {
                continue;
            }
            let args = ev.get("args").ok_or("X event without args")?;
            let id = args
                .get("id")
                .and_then(JsonValue::as_u64)
                .ok_or("X event without args.id")?;
            let parent = args
                .get("parent")
                .and_then(JsonValue::as_f64)
                .ok_or("X event without args.parent")?;
            let ts = ev
                .get("ts")
                .and_then(JsonValue::as_f64)
                .ok_or("X event without ts")?;
            let dur = ev
                .get("dur")
                .and_then(JsonValue::as_f64)
                .ok_or("X event without dur")?;
            // `ts`/`dur` are µs floats derived from integer nanoseconds;
            // rounding recovers the original values exactly for any
            // realistic sim time.
            let start_ns = (ts * 1000.0).round() as u64;
            let end_ns = start_ns
                .checked_add(span_dur_ns(id, dur)? as u64)
                .filter(|&end| end != OPEN_NS)
                .ok_or_else(|| format!("span {id} ends past u64 nanoseconds"))?;
            let lane = |field| {
                let lane = ev
                    .get(field)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("X event without {field}"))?;
                span_lane(id, field, lane)
            };
            let span = ASpan {
                name: ev
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("X event without name")?
                    .to_string(),
                cat: ev
                    .get("cat")
                    .and_then(JsonValue::as_str)
                    .ok_or("X event without cat")?
                    .to_string(),
                // An id past `usize` dangles, and is reported so below.
                parent: span_parent(id, parent)?.map(|p| usize::try_from(p).unwrap_or(usize::MAX)),
                start_ns,
                end_ns,
                pid: lane("pid")?,
                tid: lane("tid")?,
                args: args
                    .as_object()
                    .unwrap_or(&[])
                    .iter()
                    .filter(|(k, _)| k != "id" && k != "parent")
                    .filter_map(|(k, v)| v.as_u64().map(|v| (k.clone(), v)))
                    .collect(),
            };
            *span_slot(&mut slots, id)? = Some(span);
        }
        slots.truncate(slots.iter().rposition(Option::is_some).map_or(0, |i| i + 1));
        let spans: Vec<ASpan> = slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.ok_or(format!("span id {i} missing: ids must be dense")))
            .collect::<Result<_, _>>()?;
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                if p >= spans.len() {
                    return Err(format!("span {i} has dangling parent {p}"));
                }
            }
        }
        Ok(Trace::from_spans(spans))
    }

    /// All spans, indexable by the ids used throughout the analyses.
    pub fn spans(&self) -> &[ASpan] {
        &self.spans
    }

    /// Child indices of span `i`, in begin order.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// Root span indices, in begin order.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Latest end instant over all closed spans (0 for an empty trace).
    pub fn end_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.is_closed())
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfetto;
    use crate::span::SpanId;

    fn demo_recorder() -> FlightRecorder {
        let mut r = FlightRecorder::enabled(64);
        let t = SimTime::from_micros;
        let req = r.begin(t(10), "read", "request", 0, 100, SpanId::NONE);
        r.set_arg(req, "read_id", 7);
        let strip = r.begin(t(10), "strip", "strip", 0, 100, req);
        let irq = r.begin(t(20), "irq", "interrupt", 0, 3, strip);
        r.set_arg(irq, "svc", 5_000);
        r.end(irq, t(25));
        let copy = r.begin(t(25), "copy", "consume", 0, 3, strip);
        r.end(copy, t(40));
        r.end(strip, t(40));
        r.end(req, t(40));
        r
    }

    #[test]
    fn recorder_and_chrome_json_agree() {
        let rec = demo_recorder();
        let live = Trace::from_recorder(&rec);
        let json = perfetto::to_chrome_json(&rec);
        let loaded = Trace::from_chrome_json(&json).expect("exporter output loads");
        assert_eq!(live.spans(), loaded.spans());
        assert_eq!(live.roots(), loaded.roots());
        assert_eq!(live.spans()[0].arg("read_id"), Some(7));
        assert_eq!(live.spans()[2].arg("svc"), Some(5_000));
        assert_eq!(live.children(1).len(), 2);
        assert_eq!(live.end_ns(), 40_000);
    }

    #[test]
    fn open_spans_survive_from_recorder() {
        let mut r = FlightRecorder::enabled(4);
        r.begin(SimTime::from_micros(5), "open", "c", 0, 0, SpanId::NONE);
        let t = Trace::from_recorder(&r);
        assert!(!t.spans()[0].is_closed());
        assert_eq!(t.spans()[0].duration_ns(), 0);
        assert_eq!(t.end_ns(), 0);
    }

    #[test]
    fn chrome_json_rejects_sparse_or_dangling() {
        // Two events, so id 1 is in range but id 0 is missing.
        let sparse = r#"{"traceEvents": [
            {"ph": "M", "pid": 0, "name": "process_name", "args": {"name": "client 0"}},
            {"name": "a", "cat": "c", "ph": "X", "ts": 0.0, "dur": 1.0,
             "pid": 0, "tid": 0, "args": {"id": 1, "parent": -1}}
        ]}"#;
        assert!(Trace::from_chrome_json(sparse)
            .unwrap_err()
            .contains("dense"));
        let dangling = r#"{"traceEvents": [
            {"name": "a", "cat": "c", "ph": "X", "ts": 0.0, "dur": 1.0,
             "pid": 0, "tid": 0, "args": {"id": 0, "parent": 9}}
        ]}"#;
        assert!(Trace::from_chrome_json(dangling)
            .unwrap_err()
            .contains("dangling"));
        assert!(Trace::from_chrome_json("nonsense").is_err());
    }

    #[test]
    fn chrome_json_rejects_hostile_span_ids() {
        let span = |id: &str| {
            format!(
                r#"{{"traceEvents": [{{"name": "a", "cat": "c", "ph": "X", "ts": 0.0, "dur": 1.0, "pid": 0, "tid": 0, "args": {{"id": {id}, "parent": -1}}}}]}}"#
            )
        };
        // 2^53 once sized a 216 PB allocation and aborted the process.
        let err = Trace::from_chrome_json(&span("9007199254740992")).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        assert_eq!(
            Trace::from_chrome_json(&span("0")).unwrap().spans().len(),
            1
        );
        let dup = r#"{"traceEvents": [
            {"name": "a", "cat": "c", "ph": "X", "ts": 0.0, "dur": 1.0,
             "pid": 0, "tid": 0, "args": {"id": 0, "parent": -1}},
            {"name": "b", "cat": "c", "ph": "X", "ts": 0.0, "dur": 1.0,
             "pid": 0, "tid": 0, "args": {"id": 0, "parent": -1}}
        ]}"#;
        assert_eq!(
            Trace::from_chrome_json(dup).unwrap_err(),
            "duplicate span id 0"
        );
    }

    /// `ts + dur` past `u64` nanoseconds overflowed, or read as an open
    /// span.
    #[test]
    fn chrome_json_rejects_span_ends_past_u64() {
        for ts in ["0.0", "1.0"] {
            let doc = format!(
                r#"{{"traceEvents": [{{"name": "a", "cat": "c", "ph": "X", "ts": {ts}, "dur": 1e300, "pid": 0, "tid": 0, "args": {{"id": 0, "parent": -1}}}}]}}"#
            );
            let err = Trace::from_chrome_json(&doc).unwrap_err();
            assert_eq!(err, "span 0 ends past u64 nanoseconds");
        }
    }

    #[test]
    fn metadata_and_instants_are_ignored() {
        let rec = demo_recorder();
        let mut with_extras = rec.clone();
        with_extras.name_track(0, 3, "core 3");
        with_extras.instant(SimTime::from_micros(40), "request_done", 0, 100, 7);
        let a = Trace::from_chrome_json(&perfetto::to_chrome_json(&rec)).unwrap();
        let b = Trace::from_chrome_json(&perfetto::to_chrome_json(&with_extras)).unwrap();
        assert_eq!(a.spans(), b.spans());
    }
}
