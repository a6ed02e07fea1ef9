//! The streaming [`validate`] against the tree-walking validator it
//! replaced, on exported traces of random recorders and on mutations of
//! them.

use super::{
    match_span, read_event, span_dur_ns, span_lane, span_parent, span_slot, to_chrome_json,
    validate, EventRecord, TraceStats,
};
use crate::json::{Cursor, JsonError, JsonValue, Kind};
use crate::span::{FlightRecorder, SpanId};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sais_sim::SimTime;

/// The validator as it was before it streamed: parse the whole document
/// into a tree, then check it in two passes. Span ids are bounded, `dur`,
/// `args.parent`, `pid` and `tid` read strictly, and nesting compared in
/// whole nanoseconds, the same way.
fn tree_validate(text: &str) -> Result<TraceStats, String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing traceEvents array")?;
    let mut stats = TraceStats::default();
    let mut intervals: Vec<Option<(f64, f64)>> = vec![None; events.len()];
    for ev in events {
        if ev.get("ph").and_then(JsonValue::as_str) == Some("X") {
            let id = ev
                .get("args")
                .and_then(|a| a.get("id"))
                .and_then(JsonValue::as_u64)
                .ok_or("X event without args.id")?;
            let ts = ev
                .get("ts")
                .and_then(JsonValue::as_f64)
                .ok_or("X event without ts")?;
            let dur = ev
                .get("dur")
                .and_then(JsonValue::as_f64)
                .ok_or("X event without dur")?;
            let dur = span_dur_ns(id, dur)?;
            let start = (ts * 1000.0).round();
            *span_slot(&mut intervals, id)? = Some((start, start + dur));
        }
    }
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or("event without ph")?;
        match ph {
            "M" => stats.metadata += 1,
            "i" => stats.instants += 1,
            "X" => {
                stats.spans += 1;
                for field in ["name", "cat"] {
                    if ev.get(field).and_then(JsonValue::as_str).is_none() {
                        return Err(format!("X event without {field}"));
                    }
                }
                let args = ev.get("args").ok_or("X event without args")?;
                let id = args.get("id").and_then(JsonValue::as_u64).unwrap();
                for field in ["pid", "tid"] {
                    let lane = ev.get(field).and_then(JsonValue::as_u64);
                    let lane = lane.ok_or_else(|| format!("X event without {field}"))?;
                    span_lane(id, field, lane)?;
                }
                let parent = args
                    .get("parent")
                    .and_then(JsonValue::as_f64)
                    .ok_or("X event without args.parent")?;
                if let Some(pid) = span_parent(id, parent)? {
                    stats.child_spans += 1;
                    let (pts, pend) = intervals
                        .get(pid as usize)
                        .copied()
                        .flatten()
                        .ok_or_else(|| format!("span {id} has dangling parent {pid}"))?;
                    let (ts, end) = intervals[id as usize].expect("collected in first pass");
                    if ts < pts || end > pend {
                        return Err(format!(
                            "span {id} [{ts}, {end}] ns escapes parent {pid} [{pts}, {pend}] ns"
                        ));
                    }
                }
            }
            other => return Err(format!("unexpected ph {other:?}")),
        }
    }
    Ok(stats)
}

const ARG_KEYS: [&str; 3] = ["bytes", "read_id", "svc"];
const NAMES: [&str; 4] = ["read", "strip", "irq", "copy"];

/// A recorder built from `ops`: spans begin under a random open span (or
/// none) and close innermost first. For an even number of ops every span
/// is closed at the end and the export is valid; otherwise spans left open
/// export with zero duration, and their children escape them.
pub(crate) fn recorder(ops: &[(u8, u64)]) -> FlightRecorder {
    let mut r = FlightRecorder::enabled(64);
    let mut now = 0u64;
    let mut open: Vec<SpanId> = Vec::new();
    for &(op, x) in ops {
        let (pid, tid) = ((x % 3) as u32, (x / 3 % 5) as u32);
        let at = SimTime::from_nanos(now);
        match op {
            0 | 1 => {
                let parent = match open.len() {
                    n if n > 0 && x % 4 != 0 => open[(x as usize / 4) % n],
                    _ => SpanId::NONE,
                };
                let name = NAMES[(x % 4) as usize];
                open.push(r.begin(at, name, "cat", pid, tid, parent));
            }
            2 => {
                if let Some(id) = open.pop() {
                    r.end(id, at);
                }
            }
            3 => now += x % 10_000,
            4 => {
                let spans = r.spans().len() as u64;
                if spans > 0 {
                    r.set_arg(SpanId((x % spans) as u32), ARG_KEYS[(x % 3) as usize], x);
                }
            }
            5 => r.instant(at, "done", pid, tid, x),
            // Some track names need escaping.
            _ => {
                let prefix = ["core ", "core \"", "c:\\core "][(x % 3) as usize];
                r.name_track(pid, tid, format!("{prefix}{tid}"));
            }
        }
    }
    if ops.len().is_multiple_of(2) {
        while let Some(id) = open.pop() {
            r.end(id, SimTime::from_nanos(now));
        }
    }
    r
}

/// One mutation of a parsed trace, chosen by `kind`, placed by `x`.
/// Returns whether it keeps the document equivalent.
fn mutate_tree(doc: &mut JsonValue, kind: u8, x: u64) -> bool {
    let JsonValue::Obj(top) = doc else {
        return false;
    };
    let Some((_, JsonValue::Arr(events))) = top.iter_mut().find(|(k, _)| k == "traceEvents") else {
        return false;
    };
    if kind == 4 {
        // A non-object event.
        let junk = [
            JsonValue::Num(1.0),
            JsonValue::Str("X".into()),
            JsonValue::Arr(vec![JsonValue::Null]),
            JsonValue::Null,
        ];
        let at = x as usize % (events.len() + 1);
        events.insert(at, junk[(x / 7 % 4) as usize].clone());
        return false;
    }
    if kind == 5 {
        // Reorder the document's own keys.
        top.reverse();
        return true;
    }
    let n = events.len();
    if n == 0 {
        return true;
    }
    let JsonValue::Obj(fields) = &mut events[x as usize % n] else {
        return true;
    };
    // Half the time, work inside the event's `args` instead.
    let fields = match fields.iter_mut().find(|(k, _)| k == "args") {
        Some((_, JsonValue::Obj(args))) if (x / 11).is_multiple_of(2) => args,
        _ => fields,
    };
    let m = fields.len();
    let pick = (x / 13) as usize % m.max(1);
    match kind {
        0 if m > 0 => {
            fields.remove(pick);
            false
        }
        1 if m > 0 => {
            let values = [
                JsonValue::Str("7".into()),
                JsonValue::Null,
                JsonValue::Bool(true),
                JsonValue::Num(-1.0),
                JsonValue::Num(0.5),
                JsonValue::Num(9007199254740992.0),
                JsonValue::Num((x % 6) as f64),
                JsonValue::Arr(vec![]),
                JsonValue::Obj(vec![]),
            ];
            fields[pick].1 = values[(x / 17 % 9) as usize].clone();
            false
        }
        2 => {
            fields.rotate_left(pick);
            true
        }
        3 if m > 0 => {
            let dup = fields[pick].clone();
            fields.push(dup);
            false
        }
        6 if fields.iter().all(|(k, _)| k != "extra") => {
            let nested = JsonValue::Arr(vec![
                JsonValue::Num(1.5),
                JsonValue::Obj(vec![("id".into(), JsonValue::Str("not me".into()))]),
            ]);
            fields.insert(pick, ("extra".into(), nested));
            true
        }
        _ => true,
    }
}

/// A text-level mutation of serialized JSON. Returns whether it keeps the
/// document equivalent.
pub(crate) fn mutate_text(text: &mut String, kind: u8, x: u64) -> bool {
    match kind {
        // Spell a key with a `\u` escape: it must still read as that key.
        7 => {
            let (key, escaped) = [
                ("\"id\"", "\"\\u0069d\""),
                ("\"ph\"", "\"p\\u0068\""),
                ("\"parent\"", "\"par\\u0065nt\""),
                ("\"traceEvents\"", "\"trace\\u0045vents\""),
            ][(x % 4) as usize];
            let hits: Vec<usize> = text.match_indices(key).map(|(i, _)| i).collect();
            if let Some(&at) = hits.get((x / 4) as usize % hits.len().max(1)) {
                text.replace_range(at..at + key.len(), escaped);
            }
            true
        }
        // Truncate at a random byte (exports are ASCII; other text is cut
        // at the char boundary at or below it).
        8 => {
            let at = char_floor(text, x as usize % (text.len() + 1));
            text.truncate(at);
            false
        }
        // Overwrite a character with one that matters to the grammar.
        _ => {
            let set = b"{}[],:\"\\ -0.eEx";
            if !text.is_empty() {
                let at = char_floor(text, x as usize % text.len());
                let end = at + text[at..].chars().next().map_or(1, char::len_utf8);
                let c = set[(x / 7) as usize % set.len()] as char;
                text.replace_range(at..end, c.encode_utf8(&mut [0; 4]));
            }
            false
        }
    }
}

/// The char boundary of `text` at or below byte `at`.
fn char_floor(text: &str, mut at: usize) -> usize {
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// `export` with the edits of `plan` (kinds 0–9) applied: tree edits to
/// its parsed document, then text edits to that document re-serialized.
/// Returns the text and whether the edits keep it equivalent.
pub(crate) fn mutated(export: &str, plan: &[(u8, u64)]) -> (String, bool) {
    let mut doc = JsonValue::parse(export).expect("the export parses");
    let mut benign = true;
    let mut text_edits = Vec::new();
    for &(kind, x) in plan {
        if kind < 7 {
            benign &= mutate_tree(&mut doc, kind, x);
        } else {
            text_edits.push((kind, x));
        }
    }
    let mut text = doc.to_json();
    for (kind, x) in text_edits {
        benign &= mutate_text(&mut text, kind, x);
    }
    (text, benign)
}

/// A canonical export with one of its `"X"` events edited at one point
/// (see [`layout_edit`]).
struct LayoutEdit {
    text: String,
    /// Byte offset of the edited event.
    at: usize,
    /// Whether the document stays equivalent to the export.
    benign: bool,
    /// Whether the edited event still has the exporter's layout.
    canonical: bool,
}

/// Edit the `"X"` event of a canonical export that `x` picks, by `kind`
/// (0–5); `None` if the export has no span:
///
/// 0. respace one separator (drop its space, or add whitespace);
/// 1. swap two neighbouring members, of the event or of its `args` (two
///    further `args` keys keep the layout);
/// 2. escape one character of a key;
/// 3. escape one character of the `name` value;
/// 4. repeat `"id"` or `"parent"` inside `args`, plainly or escaped;
/// 5. turn `"ph": "X"` into `"ph": "x"`.
fn layout_edit(export: &str, kind: u8, x: u64) -> Option<LayoutEdit> {
    // Every event is one line of the export, without its trailing `,`.
    let spans: Vec<(usize, &str)> = export
        .split_inclusive('\n')
        .scan(0, |at, line| {
            let start = *at;
            *at += line.len();
            Some((start, line.trim_end_matches(['\n', ','])))
        })
        .filter(|(_, e)| e.starts_with("{\"name\": ") && e.contains("\"ph\": \"X\""))
        .collect();
    let &(at, event) = spans.get(x as usize % spans.len().max(1))?;
    let x = x / 7;
    let pick = |n: usize| x as usize % n;
    let other_half = (x / 8).is_multiple_of(2);
    let (edited, benign, canonical) = match kind {
        0 => {
            let seps: Vec<usize> = event
                .match_indices(": ")
                .chain(event.match_indices(", "))
                .map(|(i, _)| i)
                .collect();
            let i = seps[pick(seps.len())];
            let mut e = event.to_owned();
            match [" ", "\t", "\n", "\r", ""][(x / 64 % 5) as usize] {
                "" => drop(e.remove(i + 1)),
                ws if other_half => e.insert_str(i + 1, ws),
                ws => e.insert_str(i, ws),
            }
            (e, true, false)
        }
        1 => {
            // `{<head>, "args": {<args>}}`
            let args_at = event.find(", \"args\": {").expect("spans have args");
            let (head, args) = (&event[1..args_at], &event[args_at + 11..event.len() - 2]);
            // Swapped, and whether both were further `args` keys, whose
            // order the layout leaves free.
            let swapped = |members: &str, fixed: usize| {
                let mut m: Vec<&str> = members.split(", ").collect();
                let i = pick(m.len());
                let j = (i + 1) % m.len();
                m.swap(i, j);
                (m.join(", "), i.min(j) >= fixed)
            };
            if other_half {
                let (head, _) = swapped(head, usize::MAX);
                (format!("{{{head}, \"args\": {{{args}}}}}"), true, false)
            } else {
                let (args, free) = swapped(args, 2);
                (format!("{{{head}, \"args\": {{{args}}}}}"), true, free)
            }
        }
        2 | 3 => {
            // A key is a string followed by `: `; `name`'s value is the
            // string after the first key.
            let key_ends: Vec<usize> = event.match_indices("\": ").map(|(i, _)| i).collect();
            let first = if kind == 2 {
                let end = key_ends[pick(key_ends.len())];
                event[..end].rfind('"').expect("keys are quoted") + 1
            } else {
                key_ends[0] + 4
            };
            let c = event.as_bytes()[first];
            let e = format!("{}\\u{c:04x}{}", &event[..first], &event[first + 1..]);
            (e, true, kind == 3)
        }
        4 => {
            let extra = [
                ", \"id\": 0",
                ", \"parent\": -1",
                ", \"\\u0069d\": 0",
                ", \"p\\u0061rent\": 0",
            ][pick(4)];
            let e = format!("{}{extra}}}}}", &event[..event.len() - 2]);
            (e, false, false)
        }
        _ => {
            let e = event.replacen("\"ph\": \"X\"", "\"ph\": \"x\"", 1);
            (e, false, false)
        }
    };
    let mut text = export.to_owned();
    text.replace_range(at..at + event.len(), &edited);
    Some(LayoutEdit {
        text,
        at,
        benign,
        canonical,
    })
}

/// Both validators on `text`. The tree walk runs `JsonValue::parse`, so
/// this also checks that parsing never panics.
fn check(text: &str) -> Result<Result<TraceStats, String>, TestCaseError> {
    let streamed = validate(text);
    prop_assert_eq!(&streamed, &tree_validate(text), "document: {}", text);
    Ok(streamed)
}

proptest! {
    #[test]
    fn streaming_validate_matches_the_tree_walk(
        ops in vec((0u8..7, any::<u64>()), 0..40),
        edits in vec(vec((0u8..10, any::<u64>()), 1..4), 8),
        layout in vec((0u8..6, any::<u64>()), 6),
    ) {
        let export = to_chrome_json(&recorder(&ops));
        let clean = check(&export)?;
        if ops.len().is_multiple_of(2) {
            prop_assert!(clean.is_ok(), "closed recorder rejected: {:?}\n{}", clean, export);
        }
        for plan in &edits {
            let (text, benign) = mutated(&export, plan);
            let got = check(&text)?;
            if benign {
                prop_assert_eq!(&got, &clean, "equivalent document: {}", text);
            }
        }
        // Edits that keep the exporter's spacing everywhere but at one
        // point, so matched events and read ones mix in one document.
        for &(kind, x) in &layout {
            let Some(edit) = layout_edit(&export, kind, x) else { break };
            let got = check(&edit.text)?;
            if edit.benign {
                prop_assert_eq!(&got, &clean, "equivalent document: {}", edit.text);
            }
        }
    }

    /// On every event of a random export, and of that export with one
    /// span edited, the layout matcher either declines or reads what
    /// `read_event` reads, ending at the same byte. It declines exactly
    /// the metadata, the instants and the edited span, unless the edit
    /// kept the layout.
    #[test]
    fn the_matcher_reads_what_read_event_reads(
        ops in vec((0u8..7, any::<u64>()), 0..40),
        edit in (0u8..6, any::<u64>()),
    ) {
        let export = to_chrome_json(&recorder(&ops));
        let unmatched = |events: &[Read]| events.iter().filter(|r| r.matched.is_none()).count();
        let events = read_both(&export);
        prop_assert_eq!(unmatched(&events), metadata_and_instants(&export));
        let Some(edit) = layout_edit(&export, edit.0, edit.1) else { return Ok(()) };
        let events = read_both(&edit.text);
        let edited = events.iter().find(|r| r.at == edit.at).expect("the edited event is read");
        prop_assert_eq!(edited.matched.is_some(), edit.canonical, "{}", edit.text);
        for r in &events {
            if let Some(m) = &r.matched {
                prop_assert_eq!(Some(m), r.read.as_ref().ok(), "event at byte {}", r.at);
            }
        }
    }

    /// `dur` is the span's exact length: times 1000 and rounded, it is
    /// the span's nanoseconds, and it reads back as that length in µs.
    #[test]
    fn exported_dur_is_the_exact_span_length(ops in vec((0u8..7, any::<u64>()), 0..40)) {
        let rec = recorder(&ops);
        let doc = JsonValue::parse(&to_chrome_json(&rec)).expect("the export parses");
        let events = doc.get("traceEvents").and_then(JsonValue::as_array).expect("events");
        let spans = events.iter().filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"));
        for (span, ev) in rec.spans().iter().zip(spans) {
            let end = if span.end == SimTime::MAX { span.start } else { span.end };
            let ns = end.as_nanos() - span.start.as_nanos();
            let dur = ev.get("dur").and_then(JsonValue::as_f64).expect("spans have dur");
            prop_assert_eq!((dur * 1000.0).round(), ns as f64);
            prop_assert_eq!(dur, ns as f64 / 1000.0);
        }
    }
}

/// How many metadata and instant events `text` has.
fn metadata_and_instants(text: &str) -> usize {
    let doc = JsonValue::parse(text).expect("exports parse");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("events");
    events
        .iter()
        .filter(|e| matches!(e.get("ph").and_then(JsonValue::as_str), Some("M" | "i")))
        .count()
}

/// One `traceEvents` object, read by both readers from its first byte.
struct Read {
    at: usize,
    matched: Option<EventRecord>,
    read: Result<EventRecord, JsonError>,
}

/// Every object in `text`'s `traceEvents`, read by [`match_span`] and by
/// [`read_event`], up to the first that `read_event` rejects. Where the
/// matcher reads a record, both readers must end on the same byte.
fn read_both(text: &str) -> Vec<Read> {
    let mut out = Vec::new();
    let _ = Cursor::document(text, |cur| {
        cur.object(|cur, key| {
            if key != "traceEvents" {
                return cur.skip();
            }
            cur.array(|cur| {
                if cur.kind()? != Kind::Object {
                    return cur.skip();
                }
                let at = cur.mark();
                let matched = match_span(cur);
                let matched_end = cur.mark();
                cur.rewind(at);
                let read = read_event(cur);
                if matched.is_some() {
                    assert_eq!(matched_end, cur.mark(), "event at byte {at}");
                }
                let err = read.as_ref().err().cloned();
                out.push(Read { at, matched, read });
                err.map_or(Ok(()), Err)
            })
        })
    });
    out
}

#[test]
fn generated_traces_reach_both_verdicts() {
    // The generator is only useful if both outcomes occur often.
    let (mut ok, mut err) = (0, 0);
    for seed in 0..200u64 {
        let ops: Vec<(u8, u64)> = (0..30 + seed % 2)
            .map(|i| {
                let x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i * 0x51_7CC1);
                ((x % 7) as u8, x >> 8)
            })
            .collect();
        match validate(&to_chrome_json(&recorder(&ops))) {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    assert!(ok > 20 && err > 20, "ok {ok}, err {err}");
}
