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
//! O(bytes) with no allocation per event. The exporter writes every event
//! straight into one pre-sized `String` by hand: literals as slices,
//! integers through the crate's decimal writer, and `ts` and `dur` through
//! an exact µs writer (`dur` is the span's length in nanoseconds, written
//! as such, not a difference of two rounded floats).
//!
//! The validator walks the events with the cursor in [`crate::json`],
//! keeping per event only the fields it checks. A span event is read
//! first by a matcher for the exact layout the exporter writes: the
//! layout's literal fragments (the `SPAN_*` constants, which the writer
//! uses too) are compared one step each, and only the values between
//! them are read, by the cursor's own `string` and `number`. At the first
//! difference (other whitespace, another key order, an escaped key, a
//! repeated `args` key, a value of another kind) the cursor rewinds to
//! the event's first byte and reads it member by member, so every error
//! and its byte offset still comes from that general reader.

use crate::json::{exact_u64, key_bit, write_json_string, write_u64, Cursor, JsonError, Kind};
use crate::span::{FlightRecorder, SpanId};
use sais_sim::SimTime;
use std::fmt::Write;
use std::path::Path;

// A span event's layout, as `to_chrome_json` writes it and `match_span`
// reads it:
// `{"name": <str>, "cat": <str>, "ph": "X", "ts": <num>, "dur": <num>,
// "pid": <num>, "tid": <num>, "args": {"id": <num>, "parent": <num>
// (, <key>: <num>)*}}`, one space after each `:` and `,`.
const SPAN_NAME: &str = "{\"name\": ";
const SPAN_CAT: &str = ", \"cat\": ";
const SPAN_TS: &str = ", \"ph\": \"X\", \"ts\": ";
const SPAN_DUR: &str = ", \"dur\": ";
const SPAN_PID: &str = ", \"pid\": ";
const SPAN_TID: &str = ", \"tid\": ";
const SPAN_ID: &str = ", \"args\": {\"id\": ";
const SPAN_PARENT: &str = ", \"parent\": ";
/// Before each further `args` key.
const ARG_SEP: &str = ", ";
/// Between a further `args` key and its value.
const ARG_COLON: &str = ": ";
const SPAN_END: &str = "}}";

/// Below this many nanoseconds [`write_ts_us`] writes the decimal itself.
const EXACT_TS_NS: u64 = 1_000_000_000_000_000;

/// Append `{:?}` of `ns as f64 / 1000.0` (Chrome's `ts` and `dur`). Below
/// [`EXACT_TS_NS`] the exact decimal `ns / 1000` has at most 15
/// significant digits, and every decimal that short is the shortest
/// string parsing back to its own f64, which is what `{:?}` prints
/// (with a `.0` on whole numbers). From there on `{:?}` itself runs.
fn write_ts_us(ns: u64, out: &mut String) {
    if ns >= EXACT_TS_NS {
        let _ = write!(out, "{:?}", ns as f64 / 1000.0);
        return;
    }
    write_u64(ns / 1000, out);
    out.push('.');
    let mut frac = ns % 1000;
    if frac == 0 {
        out.push('0');
        return;
    }
    let mut digits = 3;
    while frac.is_multiple_of(10) {
        frac /= 10;
        digits -= 1;
    }
    let mut buf = [b'0'; 3];
    for d in buf[..digits].iter_mut().rev() {
        *d = b'0' + (frac % 10) as u8;
        frac /= 10;
    }
    out.push_str(std::str::from_utf8(&buf[..digits]).expect("decimal digits are ASCII"));
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
    // Events are separated by ",\n"; the last one ends with "\n". Names
    // and argument keys go through the JSON string escaper; everything
    // else is a number or a fixed literal.
    let mut sep = "";
    for &pid in &pids {
        out.push_str(sep);
        out.push_str("{\"ph\": \"M\", \"pid\": ");
        write_u64(pid.into(), &mut out);
        out.push_str(", \"name\": \"process_name\", \"args\": {\"name\": \"client ");
        write_u64(pid.into(), &mut out);
        out.push_str("\"}}");
        sep = ",\n";
    }
    for (pid, tid, name) in rec.track_names() {
        out.push_str(sep);
        out.push_str("{\"ph\": \"M\", \"pid\": ");
        write_u64((*pid).into(), &mut out);
        out.push_str(", \"tid\": ");
        write_u64((*tid).into(), &mut out);
        out.push_str(", \"name\": \"thread_name\", \"args\": {\"name\": ");
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
        out.push_str(SPAN_NAME);
        write_json_string(s.name, &mut out);
        out.push_str(SPAN_CAT);
        write_json_string(s.cat, &mut out);
        out.push_str(SPAN_TS);
        write_ts_us(s.start.as_nanos(), &mut out);
        out.push_str(SPAN_DUR);
        // The span's length, exactly; a span closed before it began
        // exports its negative length, which `validate` rejects.
        let (start, end) = (s.start.as_nanos(), end.as_nanos());
        if end < start {
            out.push('-');
        }
        write_ts_us(end.abs_diff(start), &mut out);
        out.push_str(SPAN_PID);
        write_u64(s.pid.into(), &mut out);
        out.push_str(SPAN_TID);
        write_u64(s.tid.into(), &mut out);
        out.push_str(SPAN_ID);
        write_u64(i as u64, &mut out);
        out.push_str(SPAN_PARENT);
        if s.parent == SpanId::NONE {
            out.push_str("-1");
        } else {
            write_u64(s.parent.0.into(), &mut out);
        }
        for (k, v) in s.args.iter().filter(|(k, _)| !k.is_empty()) {
            out.push_str(ARG_SEP);
            write_json_string(k, &mut out);
            out.push_str(ARG_COLON);
            write_u64(*v, &mut out);
        }
        out.push_str(SPAN_END);
        sep = ",\n";
    }
    for ev in rec.instants() {
        out.push_str(sep);
        out.push_str("{\"name\": ");
        write_json_string(ev.name, &mut out);
        out.push_str(", \"ph\": \"i\", \"ts\": ");
        write_ts_us(ev.time.as_nanos(), &mut out);
        out.push_str(", \"pid\": ");
        write_u64(ev.pid.into(), &mut out);
        out.push_str(", \"tid\": ");
        write_u64(ev.tid.into(), &mut out);
        out.push_str(", \"s\": \"t\", \"args\": {\"value\": ");
        write_u64(ev.value, &mut out);
        out.push_str("}}");
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
#[derive(Debug, Default, PartialEq)]
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
    Cursor::document(text, |cur| {
        if cur.kind()? != Kind::Object {
            cur.skip()?;
            return Ok(None);
        }
        let mut events = None;
        cur.object(|cur, key| {
            if key != "traceEvents" || cur.kind()? != Kind::Array {
                return cur.skip();
            }
            let mut records = Vec::new();
            cur.array(|cur| {
                records.push(if cur.kind()? == Kind::Object {
                    let at = cur.mark();
                    match match_span(cur) {
                        Some(ev) => ev,
                        None => {
                            cur.rewind(at);
                            read_event(cur)?
                        }
                    }
                } else {
                    cur.skip()?;
                    EventRecord::default()
                });
                Ok(())
            })?;
            events = Some(records);
            Ok(())
        })?;
        Ok(events)
    })
}

/// The number at the cursor, or `None` once any other value is read.
fn num(cur: &mut Cursor<'_>) -> Result<Option<f64>, JsonError> {
    if cur.kind()? == Kind::Num {
        cur.number().map(Some)
    } else {
        cur.skip().map(|()| None)
    }
}

fn exact_num(cur: &mut Cursor<'_>) -> Result<Option<u64>, JsonError> {
    Ok(num(cur)?.and_then(exact_u64))
}

/// Read the value at the cursor: whether it is a string.
fn is_str(cur: &mut Cursor<'_>) -> Result<bool, JsonError> {
    let is = cur.kind()? == Kind::Str;
    cur.skip()?;
    Ok(is)
}

/// Read the span event at the cursor if it is laid out exactly as
/// [`to_chrome_json`] writes it (the `SPAN_*` fragments); `None` at the
/// first difference, with the cursor anywhere inside the event. When it
/// returns a record, [`read_event`] would have read the same one and left
/// the cursor in the same place.
///
/// The two objects it steps into are not counted against the cursor's
/// depth limit: events sit at depth 2, far below it.
fn match_span(cur: &mut Cursor<'_>) -> Option<EventRecord> {
    let string_after = |cur: &mut Cursor<'_>, lit: &str| {
        (cur.eat(lit) && cur.kind() == Ok(Kind::Str) && cur.string().is_ok()).then_some(())
    };
    let number_after = |cur: &mut Cursor<'_>, lit: &str| {
        (cur.eat(lit) && cur.kind() == Ok(Kind::Num))
            .then(|| cur.number().ok())
            .flatten()
    };
    string_after(cur, SPAN_NAME)?;
    string_after(cur, SPAN_CAT)?;
    let ts = number_after(cur, SPAN_TS)?;
    let dur = number_after(cur, SPAN_DUR)?;
    let pid = number_after(cur, SPAN_PID)?;
    let tid = number_after(cur, SPAN_TID)?;
    let id = number_after(cur, SPAN_ID)?;
    let parent = number_after(cur, SPAN_PARENT)?;
    // Further `args` keys must be plain and new. Equal keys share a
    // bit, so a key whose bit is taken may repeat one and goes to
    // `read_event`, which decides.
    let mut seen = key_bit("id") | key_bit("parent");
    while cur.eat(ARG_SEP) {
        if cur.kind() != Ok(Kind::Str) {
            return None;
        }
        let from = cur.mark();
        let (len, bit) = cur.string().map(|k| (k.len(), key_bit(k))).ok()?;
        // Only an escape makes a key's text longer than its quotes and it.
        if cur.mark() - from != len + 2 || seen & bit != 0 {
            return None;
        }
        seen |= bit;
        number_after(cur, ARG_COLON)?;
    }
    cur.eat(SPAN_END).then(|| EventRecord {
        ph: Phase::Span,
        name: true,
        cat: true,
        pid: exact_u64(pid),
        tid: exact_u64(tid),
        ts: Some(ts),
        dur: Some(dur),
        id: exact_u64(id),
        parent: Some(parent),
    })
}

/// Read the event object at the cursor.
fn read_event(cur: &mut Cursor<'_>) -> Result<EventRecord, JsonError> {
    let mut ev = EventRecord::default();
    cur.object(|cur, key| {
        match key {
            "ph" if cur.kind()? == Kind::Str => {
                ev.ph = match cur.string()? {
                    "X" => Phase::Span,
                    "i" => Phase::Instant,
                    "M" => Phase::Metadata,
                    other => Phase::Other(other.into()),
                }
            }
            "name" => ev.name = is_str(cur)?,
            "cat" => ev.cat = is_str(cur)?,
            "pid" => ev.pid = exact_num(cur)?,
            "tid" => ev.tid = exact_num(cur)?,
            "ts" => ev.ts = num(cur)?,
            "dur" => ev.dur = num(cur)?,
            "args" if cur.kind()? == Kind::Object => cur.object(|cur, key| {
                match key {
                    "id" => ev.id = exact_num(cur)?,
                    "parent" => ev.parent = num(cur)?,
                    _ => cur.skip()?,
                }
                Ok(())
            })?,
            _ => cur.skip()?,
        }
        Ok(())
    })?;
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

/// Span `id`'s `dur` in nanoseconds: a span cannot end before it begins.
pub(crate) fn span_dur_ns(id: u64, dur: f64) -> Result<f64, String> {
    if dur < 0.0 {
        return Err(format!("span {id} has negative dur {dur}"));
    }
    Ok((dur * 1000.0).round())
}

/// Span `id`'s parent id from its `args.parent`: `None` for -1 (a root),
/// an error for anything but -1 or an exact id.
pub(crate) fn span_parent(id: u64, parent: f64) -> Result<Option<u64>, String> {
    if parent == -1.0 {
        return Ok(None);
    }
    exact_u64(parent)
        .map(Some)
        .ok_or_else(|| format!("span {id} has parent {parent}, neither -1 nor a span id"))
}

/// Span `id`'s `pid` or `tid` (`field`), which the recorder keeps as `u32`.
pub(crate) fn span_lane(id: u64, field: &str, lane: u64) -> Result<u32, String> {
    u32::try_from(lane).map_err(|_| format!("span {id} has {field} {lane}, past u32"))
}

/// The semantic checks of [`validate`], over a fully read document.
fn check_events(events: &[EventRecord]) -> Result<TraceStats, String> {
    // First pass: collect span intervals by id.
    let mut intervals: Vec<Option<(f64, f64)>> = vec![None; events.len()];
    for ev in events.iter().filter(|ev| ev.ph == Phase::Span) {
        let id = ev.id.ok_or("X event without args.id")?;
        let ts = ev.ts.ok_or("X event without ts")?;
        let dur = span_dur_ns(id, ev.dur.ok_or("X event without dur")?)?;
        // `ts` and `dur` are µs floats of whole nanoseconds, and `ts + dur`
        // can round past a parent's end: compare the nanoseconds they encode.
        let start = (ts * 1000.0).round();
        *span_slot(&mut intervals, id)? = Some((start, start + dur));
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
                for (field, ok) in [("name", ev.name), ("cat", ev.cat)] {
                    if !ok {
                        return Err(format!("X event without {field}"));
                    }
                }
                // The first pass checked the id and filled its slot.
                let id = ev.id.expect("span ids are checked first");
                for (field, lane) in [("pid", ev.pid), ("tid", ev.tid)] {
                    let lane = lane.ok_or_else(|| format!("X event without {field}"))?;
                    span_lane(id, field, lane)?;
                }
                let parent = ev.parent.ok_or("X event without args.parent")?;
                if let Some(pid) = span_parent(id, parent)? {
                    stats.child_spans += 1;
                    let (pts, pend) = usize::try_from(pid)
                        .ok()
                        .and_then(|p| intervals.get(p).copied().flatten())
                        .ok_or_else(|| format!("span {id} has dangling parent {pid}"))?;
                    let (ts, end) = intervals[id as usize].expect("collected in first pass");
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
pub(crate) mod props;

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

    fn ts_written(ns: u64) -> String {
        let mut out = String::new();
        write_ts_us(ns, &mut out);
        out
    }

    proptest::proptest! {
        #[test]
        fn ts_writer_prints_what_debug_prints(
            ns in 0u64..EXACT_TS_NS,
            late in EXACT_TS_NS..=u64::MAX,
        ) {
            for ns in [ns, ns / 1000 * 1000, ns % 1_000_000, late] {
                proptest::prop_assert_eq!(ts_written(ns), format!("{:?}", ns as f64 / 1000.0));
            }
        }
    }

    #[test]
    fn ts_writer_edges() {
        for ns in [
            0,
            1,
            999,
            1000,
            1001,
            10,
            100,
            1010,
            EXACT_TS_NS - 1,
            EXACT_TS_NS,
        ] {
            assert_eq!(
                ts_written(ns),
                format!("{:?}", ns as f64 / 1000.0),
                "{ns} ns"
            );
        }
        assert_eq!(ts_written(EXACT_TS_NS - 1), "999999999999.999");
        assert_eq!(ts_written(1010), "1.01");
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

    /// A root span 0 and its child 1, with the child's `dur`, `pid`, `tid`
    /// and `args.parent` as given.
    fn child_span(dur: &str, pid: &str, tid: &str, parent: &str) -> String {
        format!(
            r#"{{"traceEvents": [
            {{"name": "p", "cat": "c", "ph": "X", "ts": 0.0, "dur": 10.0, "pid": 0, "tid": 0, "args": {{"id": 0, "parent": -1}}}},
            {{"name": "k", "cat": "c", "ph": "X", "ts": 1.0, "dur": {dur}, "pid": {pid}, "tid": {tid}, "args": {{"id": 1, "parent": {parent}}}}}
            ]}}"#
        )
    }

    /// `validate` and the analyzer's reader both reject `doc` with an
    /// error containing `want`.
    fn both_reject(doc: &str, want: &str) {
        let err = validate(doc).unwrap_err();
        assert!(err.contains(want), "validate: {err}");
        let err = crate::analyze::Trace::from_chrome_json(doc).unwrap_err();
        assert!(err.contains(want), "analyzer: {err}");
    }

    #[test]
    fn strict_fields_accept_the_exporters_values() {
        for parent in ["0", "-1", "-1.0"] {
            let doc = child_span("2.5", "4294967295", "0", parent);
            assert_eq!(validate(&doc).unwrap().spans, 2, "parent {parent}");
            crate::analyze::Trace::from_chrome_json(&doc).unwrap();
        }
    }

    /// A fractional parent was read as the span it truncates to.
    #[test]
    fn fractional_parents_are_rejected() {
        both_reject(
            &child_span("1.0", "0", "0", "0.5"),
            "span 1 has parent 0.5, neither -1 nor a span id",
        );
    }

    /// A negative parent other than -1 was read as a root.
    #[test]
    fn negative_parents_other_than_minus_one_are_rejected() {
        both_reject(
            &child_span("1.0", "0", "0", "-7"),
            "span 1 has parent -7, neither -1 nor a span id",
        );
    }

    /// A negative `dur` passed `validate` and became a zero-length span in
    /// the analyzer; a span closed before it began exports one.
    #[test]
    fn negative_durations_are_rejected() {
        both_reject(
            &child_span("-0.5", "0", "0", "0"),
            "span 1 has negative dur -0.5",
        );
        let mut r = FlightRecorder::enabled(4);
        let s = r.begin(SimTime::from_nanos(9_650), "s", "c", 0, 0, SpanId::NONE);
        r.end(s, SimTime::from_nanos(1_000));
        let json = to_chrome_json(&r);
        assert!(json.contains("\"dur\": -8.65,"), "{json}");
        both_reject(&json, "span 0 has negative dur -8.65");
    }

    /// The analyzer cast a `pid` past `u32` down to its low bits.
    #[test]
    fn lanes_past_u32_are_rejected() {
        both_reject(
            &child_span("1.0", "4294967297", "0", "0"),
            "span 1 has pid 4294967297, past u32",
        );
        both_reject(
            &child_span("1.0", "0", "4294967296", "0"),
            "span 1 has tid 4294967296, past u32",
        );
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
