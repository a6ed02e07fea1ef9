//! Chrome/Perfetto `trace_event` JSON export.
//!
//! Serializes a [`FlightRecorder`] into the JSON Object Format consumed by
//! `chrome://tracing` and <https://ui.perfetto.dev>: one `"X"` (complete)
//! event per span with `ts`/`dur` in microseconds, `"i"` instant events
//! for markers, and `"M"` metadata events naming processes and threads.
//! Each span's event carries its recorder id and parent id in `args`, so
//! the request → strip → interrupt/copy hierarchy survives the export
//! machine-readably even where the viewer renders the spans on different
//! tracks (the interrupt runs on the handler core, the copy on the
//! consumer core — that separation *is* the finding).
//!
//! Export and [`validate`] run after every observed run, so both cost
//! O(bytes) with no allocation per event: the exporter formats every
//! event straight into one pre-sized `String`, and the validator streams
//! the events through the pull reader in [`crate::json`], keeping per
//! event only the fields it checks.

use crate::json::{exact_u64, write_json_string, JsonError, Reader, Token};
use crate::span::{FlightRecorder, SpanId};
use sais_sim::SimTime;
use std::fmt::Write;
use std::path::Path;

/// Microseconds-as-f64 for a sim instant (Chrome's `ts` unit).
fn ts_us(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1000.0
}

/// Bytes reserved per event: a little above a traced run's mean, so the
/// output buffer is allocated once.
const EVENT_BYTES: usize = 192;

/// Serialize the recorder into Chrome/Perfetto trace JSON.
pub fn to_chrome_json(rec: &FlightRecorder) -> String {
    let mut pids: Vec<u32> = Vec::new();
    for s in rec.spans() {
        if !pids.contains(&s.pid) {
            pids.push(s.pid);
        }
    }
    let events = pids.len() + rec.track_names().len() + rec.spans().len() + rec.instants().len();
    let mut out = String::with_capacity(64 + EVENT_BYTES * events);
    out.push_str("{\n\"traceEvents\": [\n");
    // Events are separated by ",\n"; the last one ends with "\n".
    let mut sep = "";
    // Writing into a `String` cannot fail, so the `fmt::Result`s below
    // are discarded. Names and argument keys go through the JSON string
    // escaper; everything else is a number or a fixed literal.
    for pid in &pids {
        let _ = write!(
            out,
            "{sep}{{\"ph\": \"M\", \"pid\": {pid}, \"name\": \"process_name\", \
             \"args\": {{\"name\": \"client {pid}\"}}}}"
        );
        sep = ",\n";
    }
    for (pid, tid, name) in rec.track_names() {
        let _ = write!(
            out,
            "{sep}{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"name\": \"thread_name\", \
             \"args\": {{\"name\": "
        );
        write_json_string(name, &mut out);
        out.push_str("}}");
        sep = ",\n";
    }
    for (i, s) in rec.spans().iter().enumerate() {
        let end = if s.end == SimTime::MAX {
            s.start
        } else {
            s.end
        };
        out.push_str(sep);
        out.push_str("{\"name\": ");
        write_json_string(s.name, &mut out);
        out.push_str(", \"cat\": ");
        write_json_string(s.cat, &mut out);
        let _ = write!(
            out,
            ", \"ph\": \"X\", \"ts\": {:?}, \"dur\": {:?}, \"pid\": {}, \"tid\": {}, \
             \"args\": {{\"id\": {i}, \"parent\": ",
            ts_us(s.start),
            ts_us(end) - ts_us(s.start),
            s.pid,
            s.tid,
        );
        if s.parent == SpanId::NONE {
            out.push_str("-1");
        } else {
            let _ = write!(out, "{}", s.parent.0);
        }
        for (k, v) in s.args.iter().filter(|(k, _)| !k.is_empty()) {
            out.push_str(", ");
            write_json_string(k, &mut out);
            let _ = write!(out, ": {v}");
        }
        out.push_str("}}");
        sep = ",\n";
    }
    for ev in rec.instants() {
        out.push_str(sep);
        out.push_str("{\"name\": ");
        write_json_string(ev.name, &mut out);
        let _ = write!(
            out,
            ", \"ph\": \"i\", \"ts\": {:?}, \"pid\": {}, \"tid\": {}, \
             \"s\": \"t\", \"args\": {{\"value\": {}}}}}",
            ts_us(ev.time),
            ev.pid,
            ev.tid,
            ev.value,
        );
        sep = ",\n";
    }
    if events > 0 {
        out.push('\n');
    }
    out.push_str("],\n\"displayTimeUnit\": \"ns\"\n}\n");
    out
}

/// Serialize and write the trace to `path`.
pub fn write_chrome_json(rec: &FlightRecorder, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, to_chrome_json(rec))
}

/// Structural statistics of a validated trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// `"X"` span events.
    pub spans: usize,
    /// `"i"` instant events.
    pub instants: usize,
    /// `"M"` metadata events.
    pub metadata: usize,
    /// Span events whose `args.parent` is a valid span id (≥ 0).
    pub child_spans: usize,
}

/// An event's `ph`.
#[derive(Debug, Clone, Default, PartialEq)]
enum Phase {
    /// Absent, or not a string.
    #[default]
    Missing,
    Span,
    Instant,
    Metadata,
    Other(Box<str>),
}

/// What [`validate`] checks of one `traceEvents` entry. An entry that is
/// not an object reads as one with no fields.
#[derive(Debug, Default)]
struct EventRecord {
    ph: Phase,
    /// Whether `name` is a string.
    name: bool,
    /// Whether `cat` is a string.
    cat: bool,
    pid: Option<u64>,
    tid: Option<u64>,
    ts: Option<f64>,
    dur: Option<f64>,
    /// `args.id`.
    id: Option<u64>,
    /// `args.parent`.
    parent: Option<f64>,
}

/// Validate that `text` is well-formed Chrome trace JSON as this exporter
/// writes it: a `traceEvents` array whose `"X"` events carry `name`, `ts`,
/// `dur`, `pid`, `tid` and an `args.id` that is unique and below the
/// number of events, and whose `args.parent` ids (when not -1) refer to an
/// `"X"` event that exists and whose interval contains the child's.
/// Returns counting statistics on success.
///
/// The whole document is read before any event is checked, so a syntax
/// error anywhere wins over a semantic one.
pub fn validate(text: &str) -> Result<TraceStats, String> {
    let events = read_events(text)
        .map_err(|e| e.to_string())?
        .ok_or("missing traceEvents array")?;
    check_events(&events)
}

/// Read the document, keeping an [`EventRecord`] per `traceEvents` entry;
/// `None` if the root is not an object with a `traceEvents` array.
fn read_events(text: &str) -> Result<Option<Vec<EventRecord>>, JsonError> {
    let mut r = Reader::new(text);
    let mut events = None;
    if r.enter(Token::BeginObject)? {
        while let Some(Token::Key(key)) = r.next()? {
            if key == "traceEvents" {
                events = read_event_array(&mut r)?;
            } else {
                r.value_with(|_| ())?;
            }
        }
    }
    r.end()?;
    Ok(events)
}

/// Read the `traceEvents` value: its records if it is an array.
fn read_event_array(r: &mut Reader<'_>) -> Result<Option<Vec<EventRecord>>, JsonError> {
    if !r.enter(Token::BeginArray)? {
        return Ok(None);
    }
    let mut events = Vec::new();
    loop {
        let ev = match r.next()? {
            Some(Token::EndArray) => return Ok(Some(events)),
            Some(Token::BeginObject) => read_event(r)?,
            Some(Token::BeginArray) => {
                r.skip_container()?;
                EventRecord::default()
            }
            _ => EventRecord::default(),
        };
        events.push(ev);
    }
}

fn num(tok: Token<'_>) -> Option<f64> {
    match tok {
        Token::Num(n) => Some(n),
        _ => None,
    }
}

fn exact_num(tok: Token<'_>) -> Option<u64> {
    num(tok).and_then(exact_u64)
}

fn is_str(tok: Token<'_>) -> bool {
    matches!(tok, Token::Str(_))
}

/// Read the members of an event object whose `{` was just read.
fn read_event(r: &mut Reader<'_>) -> Result<EventRecord, JsonError> {
    let mut ev = EventRecord::default();
    while let Some(Token::Key(key)) = r.next()? {
        match key {
            "ph" => {
                ev.ph = r.value_with(|tok| match tok {
                    Token::Str("X") => Phase::Span,
                    Token::Str("i") => Phase::Instant,
                    Token::Str("M") => Phase::Metadata,
                    Token::Str(other) => Phase::Other(other.into()),
                    _ => Phase::Missing,
                })?
            }
            "name" => ev.name = r.value_with(is_str)?,
            "cat" => ev.cat = r.value_with(is_str)?,
            "pid" => ev.pid = r.value_with(exact_num)?,
            "tid" => ev.tid = r.value_with(exact_num)?,
            "ts" => ev.ts = r.value_with(num)?,
            "dur" => ev.dur = r.value_with(num)?,
            "args" => {
                if r.enter(Token::BeginObject)? {
                    while let Some(Token::Key(key)) = r.next()? {
                        match key {
                            "id" => ev.id = r.value_with(exact_num)?,
                            "parent" => ev.parent = r.value_with(num)?,
                            _ => r.value_with(|_| ())?,
                        }
                    }
                }
            }
            _ => r.value_with(|_| ())?,
        }
    }
    Ok(ev)
}

/// The slot of span `id` among `slots` (one per trace event), checked to
/// be in range and still empty: an id from the input must neither size
/// an allocation nor silently replace another span.
pub(crate) fn span_slot<T>(slots: &mut [Option<T>], id: u64) -> Result<&mut Option<T>, String> {
    let events = slots.len();
    let slot = usize::try_from(id)
        .ok()
        .and_then(|i| slots.get_mut(i))
        .ok_or_else(|| format!("span id {id} out of range for {events} trace events"))?;
    if slot.is_some() {
        return Err(format!("duplicate span id {id}"));
    }
    Ok(slot)
}

/// The semantic checks of [`validate`], over a fully read document.
fn check_events(events: &[EventRecord]) -> Result<TraceStats, String> {
    // First pass: collect span intervals by id.
    let mut intervals: Vec<Option<(f64, f64)>> = vec![None; events.len()];
    for ev in events.iter().filter(|ev| ev.ph == Phase::Span) {
        let id = ev.id.ok_or("X event without args.id")?;
        let ts = ev.ts.ok_or("X event without ts")?;
        let dur = ev.dur.ok_or("X event without dur")?;
        // `ts` and `dur` are µs floats of whole nanoseconds, and `ts + dur`
        // can round past a parent's end: compare the nanoseconds they encode.
        let start = (ts * 1000.0).round();
        *span_slot(&mut intervals, id)? = Some((start, start + (dur * 1000.0).round()));
    }
    let mut stats = TraceStats::default();
    for ev in events {
        match &ev.ph {
            Phase::Missing => return Err("event without ph".into()),
            Phase::Metadata => stats.metadata += 1,
            Phase::Instant => stats.instants += 1,
            Phase::Other(other) => return Err(format!("unexpected ph {other:?}")),
            Phase::Span => {
                stats.spans += 1;
                for (field, ok) in [
                    ("name", ev.name),
                    ("cat", ev.cat),
                    ("pid", ev.pid.is_some()),
                    ("tid", ev.tid.is_some()),
                ] {
                    if !ok {
                        return Err(format!("X event without {field}"));
                    }
                }
                // The first pass checked the id and filled its slot.
                let id = ev.id.expect("span ids are checked first") as usize;
                let parent = ev.parent.ok_or("X event without args.parent")?;
                if parent >= 0.0 {
                    stats.child_spans += 1;
                    let pid = parent as usize;
                    let (pts, pend) = intervals
                        .get(pid)
                        .copied()
                        .flatten()
                        .ok_or_else(|| format!("span {id} has dangling parent {pid}"))?;
                    let (ts, end) = intervals[id].expect("collected in first pass");
                    // Children nest within their parent.
                    if ts < pts || end > pend {
                        return Err(format!(
                            "span {id} [{ts}, {end}] ns escapes parent {pid} [{pts}, {pend}] ns"
                        ));
                    }
                }
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod props;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use crate::span::FlightRecorder;
    use sais_sim::SimTime;

    fn demo_recorder() -> FlightRecorder {
        let mut r = FlightRecorder::enabled(64);
        r.name_track(0, 100, "proc 0 requests");
        r.name_track(0, 3, "core 3");
        let t = |us| SimTime::from_micros(us);
        let req = r.begin(t(10), "read", "request", 0, 100, SpanId::NONE);
        let strip = r.begin(t(10), "strip", "strip", 0, 100, req);
        r.set_arg(strip, "bytes", 65536);
        let irq = r.begin(t(20), "irq", "interrupt", 0, 3, strip);
        r.end(irq, t(25));
        let copy = r.begin(t(30), "copy", "consume", 0, 3, strip);
        r.end(copy, t(40));
        r.end(strip, t(40));
        r.end(req, t(50));
        r.instant(t(50), "request_done", 0, 100, 1);
        r
    }

    /// The exporter's exact bytes: any drift in formatting, separators or
    /// float rendering fails here.
    #[test]
    fn export_bytes_are_pinned() {
        let golden = r#"{
"traceEvents": [
{"ph": "M", "pid": 0, "name": "process_name", "args": {"name": "client 0"}},
{"ph": "M", "pid": 0, "tid": 100, "name": "thread_name", "args": {"name": "proc 0 requests"}},
{"ph": "M", "pid": 0, "tid": 3, "name": "thread_name", "args": {"name": "core 3"}},
{"name": "read", "cat": "request", "ph": "X", "ts": 10.0, "dur": 40.0, "pid": 0, "tid": 100, "args": {"id": 0, "parent": -1}},
{"name": "strip", "cat": "strip", "ph": "X", "ts": 10.0, "dur": 30.0, "pid": 0, "tid": 100, "args": {"id": 1, "parent": 0, "bytes": 65536}},
{"name": "irq", "cat": "interrupt", "ph": "X", "ts": 20.0, "dur": 5.0, "pid": 0, "tid": 3, "args": {"id": 2, "parent": 1}},
{"name": "copy", "cat": "consume", "ph": "X", "ts": 30.0, "dur": 10.0, "pid": 0, "tid": 3, "args": {"id": 3, "parent": 1}},
{"name": "request_done", "ph": "i", "ts": 50.0, "pid": 0, "tid": 100, "s": "t", "args": {"value": 1}}
],
"displayTimeUnit": "ns"
}
"#;
        assert_eq!(to_chrome_json(&demo_recorder()), golden);
        assert_eq!(
            to_chrome_json(&FlightRecorder::disabled()),
            "{\n\"traceEvents\": [\n],\n\"displayTimeUnit\": \"ns\"\n}\n"
        );
    }

    #[test]
    fn names_are_escaped() {
        let mut r = FlightRecorder::enabled(4);
        r.name_track(0, 1, "core \"1\" \\ a");
        let s = r.begin(SimTime::ZERO, "a\"b", "c\\d", 0, 1, SpanId::NONE);
        r.set_arg(s, "k\"", 7);
        r.end(s, SimTime::from_micros(1));
        r.instant(SimTime::ZERO, "i\n", 0, 1, 0);
        let json = to_chrome_json(&r);
        assert_eq!(validate(&json).expect("escaped export").spans, 1);
        let doc = JsonValue::parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let name = |i: usize| events[i].get("name").and_then(JsonValue::as_str);
        let track = events[1].get("args").unwrap().get("name");
        assert_eq!(track.and_then(JsonValue::as_str), Some("core \"1\" \\ a"));
        assert_eq!(name(2), Some("a\"b"));
        assert_eq!(
            events[2].get("cat").and_then(JsonValue::as_str),
            Some("c\\d")
        );
        let arg = events[2].get("args").unwrap().get("k\"");
        assert_eq!(arg.and_then(JsonValue::as_u64), Some(7));
        assert_eq!(name(3), Some("i\n"));
    }

    fn one_span(id: &str) -> String {
        format!(
            r#"{{"traceEvents": [{{"name": "a", "cat": "c", "ph": "X", "ts": 0.0, "dur": 1.0, "pid": 0, "tid": 0, "args": {{"id": {id}, "parent": -1}}}}]}}"#
        )
    }

    /// A span id from the input is bounded by the event count before it
    /// indexes anything: 2^53 once made the validator ask for a 216 PB
    /// allocation and abort.
    #[test]
    fn validate_rejects_out_of_range_span_ids() {
        let err = validate(&one_span("9007199254740992")).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        assert!(validate(&one_span("1"))
            .unwrap_err()
            .contains("out of range"));
        assert_eq!(validate(&one_span("0")).unwrap().spans, 1);
    }

    #[test]
    fn validate_rejects_duplicate_span_ids() {
        let dup = r#"{"traceEvents": [
            {"name": "a", "cat": "c", "ph": "X", "ts": 0.0, "dur": 1.0, "pid": 0, "tid": 0, "args": {"id": 0, "parent": -1}},
            {"name": "b", "cat": "c", "ph": "X", "ts": 0.0, "dur": 1.0, "pid": 0, "tid": 0, "args": {"id": 0, "parent": -1}}
        ]}"#;
        assert_eq!(validate(dup).unwrap_err(), "duplicate span id 0");
    }

    #[test]
    fn validate_reports_syntax_before_semantics() {
        // The first event is semantically bad, the document ends early.
        let bad = r#"{"traceEvents": [{"ph": "Q"}, {"ph": "M"}"#;
        assert!(validate(bad).unwrap_err().starts_with("JSON error"));
        assert_eq!(
            validate(r#"{"traceEvents": [{"ph": "Q"}, {"ph": "M"}]}"#).unwrap_err(),
            r#"unexpected ph "Q""#
        );
        assert_eq!(
            validate(r#"{"traceEvents": {}}"#).unwrap_err(),
            "missing traceEvents array"
        );
        assert_eq!(validate("[]").unwrap_err(), "missing traceEvents array");
    }

    #[test]
    fn export_is_valid_and_counted() {
        let json = to_chrome_json(&demo_recorder());
        let stats = validate(&json).expect("valid trace");
        assert_eq!(stats.spans, 4);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.metadata, 3, "one process + two thread names");
        assert_eq!(stats.child_spans, 3);
    }

    #[test]
    fn parent_ids_survive_export() {
        let json = to_chrome_json(&demo_recorder());
        let doc = JsonValue::parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let irq = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("irq"))
            .expect("irq span exported");
        let parent = irq
            .get("args")
            .unwrap()
            .get("parent")
            .unwrap()
            .as_u64()
            .unwrap();
        let strip = events
            .iter()
            .find(|e| {
                e.get("args")
                    .and_then(|a| a.get("id"))
                    .and_then(JsonValue::as_u64)
                    == Some(parent)
            })
            .expect("parent exists");
        assert_eq!(strip.get("name").and_then(JsonValue::as_str), Some("strip"));
        assert_eq!(
            strip
                .get("args")
                .unwrap()
                .get("bytes")
                .and_then(JsonValue::as_u64),
            Some(65536)
        );
    }

    #[test]
    fn validate_rejects_escaping_children() {
        // A child that ends after its parent must be caught.
        let bad = r#"{"traceEvents": [
            {"name": "p", "cat": "c", "ph": "X", "ts": 0.0, "dur": 10.0, "pid": 0, "tid": 0, "args": {"id": 0, "parent": -1}},
            {"name": "k", "cat": "c", "ph": "X", "ts": 5.0, "dur": 10.0, "pid": 0, "tid": 0, "args": {"id": 1, "parent": 0}}
        ], "displayTimeUnit": "ns"}"#;
        let err = validate(bad).unwrap_err();
        assert!(err.contains("escapes parent"), "{err}");
    }

    #[test]
    fn validate_rejects_dangling_parents() {
        let bad = r#"{"traceEvents": [
            {"name": "k", "cat": "c", "ph": "X", "ts": 0.0, "dur": 1.0, "pid": 0, "tid": 0, "args": {"id": 0, "parent": 7}}
        ]}"#;
        assert!(validate(bad).unwrap_err().contains("dangling parent"));
    }

    #[test]
    fn empty_recorder_exports_empty_valid_trace() {
        let json = to_chrome_json(&FlightRecorder::disabled());
        let stats = validate(&json).unwrap();
        assert_eq!(stats, TraceStats::default());
    }

    #[test]
    fn open_span_exports_zero_duration() {
        let mut r = FlightRecorder::enabled(4);
        r.begin(SimTime::from_micros(5), "open", "c", 0, 0, SpanId::NONE);
        let json = to_chrome_json(&r);
        let doc = JsonValue::parse(&json).unwrap();
        let ev = doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .unwrap();
        assert_eq!(ev.get("dur").and_then(JsonValue::as_f64), Some(0.0));
    }
}
