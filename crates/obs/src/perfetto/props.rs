//! The streaming [`validate`] against the tree-walking validator it
//! replaced, on exported traces of random recorders and on mutations of
//! them.

use super::{span_slot, to_chrome_json, validate, TraceStats};
use crate::json::JsonValue;
use crate::span::{FlightRecorder, SpanId};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sais_sim::SimTime;

/// The validator as it was before it streamed: parse the whole document
/// into a tree, then check it in two passes. Span ids are bounded, and
/// nesting compared in whole nanoseconds, the same way.
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
            let start = (ts * 1000.0).round();
            *span_slot(&mut intervals, id)? = Some((start, start + (dur * 1000.0).round()));
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
                for field in ["pid", "tid"] {
                    if ev.get(field).and_then(JsonValue::as_u64).is_none() {
                        return Err(format!("X event without {field}"));
                    }
                }
                let args = ev.get("args").ok_or("X event without args")?;
                let id = args.get("id").and_then(JsonValue::as_u64).unwrap() as usize;
                let parent = args
                    .get("parent")
                    .and_then(JsonValue::as_f64)
                    .ok_or("X event without args.parent")?;
                if parent >= 0.0 {
                    stats.child_spans += 1;
                    let pid = parent as usize;
                    let (pts, pend) = intervals
                        .get(pid)
                        .copied()
                        .flatten()
                        .ok_or_else(|| format!("span {id} has dangling parent {pid}"))?;
                    let (ts, end) = intervals[id].expect("collected in first pass");
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
fn recorder(ops: &[(u8, u64)]) -> FlightRecorder {
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
fn mutate_text(text: &mut String, kind: u8, x: u64) -> bool {
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
        // Truncate at a random byte (the export is ASCII).
        8 => {
            text.truncate(x as usize % (text.len() + 1));
            false
        }
        // Overwrite a byte with a character that matters to the grammar.
        _ => {
            let set = b"{}[],:\"\\ -0.eEx";
            if !text.is_empty() {
                let at = x as usize % text.len();
                let c = set[(x / 7) as usize % set.len()] as char;
                text.replace_range(at..at + 1, c.encode_utf8(&mut [0; 4]));
            }
            false
        }
    }
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
    ) {
        let export = to_chrome_json(&recorder(&ops));
        let clean = check(&export)?;
        if ops.len().is_multiple_of(2) {
            prop_assert!(clean.is_ok(), "closed recorder rejected: {:?}\n{}", clean, export);
        }
        for plan in &edits {
            let mut doc = JsonValue::parse(&export).expect("the export parses");
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
            let got = check(&text)?;
            if benign {
                prop_assert_eq!(&got, &clean, "equivalent document: {}", text);
            }
        }
    }
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
