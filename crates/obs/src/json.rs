//! The crate's JSON reader and writer.
//!
//! The build environment vendors no external crates, so this module is the
//! one JSON grammar the crate has. `Reader` is a pull reader: it hands
//! out a document's tokens in order, checks the grammar as it goes, and
//! allocates nothing per token once its buffers have grown. Two consumers
//! drive it:
//!
//! * [`JsonValue::parse`] builds a document tree from the tokens, for the
//!   trace analyzer, the perf-history reader and tests;
//! * [`crate::perfetto::validate`] streams an exported trace's events
//!   through it and keeps only the fields it checks. That check runs after
//!   every observed benchmark run, so the reader is on a timed path: a
//!   string without escapes is handed out as a slice of the input, and the
//!   duplicate-key check compares unescaped keys on one reusable key stack,
//!   allocating nothing per object.
//!
//! Duplicate object keys are rejected: the exporters never produce them,
//! and silently keeping the first (or last) would hide exporter bugs.
//! Nesting deeper than [`MAX_DEPTH`] is rejected too, so a hostile
//! document cannot exhaust the stack when its tree is dropped or written.
//! [`JsonValue::to_json`] serializes a tree canonically, so parsed
//! documents round-trip.

use std::fmt;
use std::ops::Range;

/// Deepest container nesting a document may have.
pub const MAX_DEPTH: usize = 512;

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (kept as f64; integers up to 2^53 are exact).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; key order preserved.
    Obj(Vec<(String, JsonValue)>),
}

/// A parse failure with byte offset and description.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// A number as an exact unsigned integer: non-negative, integral and at
/// most 2^53, the range in which f64 holds every integer.
pub(crate) fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as u64)
}

impl JsonValue {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut r = Reader::new(text);
        // Open containers, each with the key it will be stored under in
        // its parent (`None` inside arrays and for the root).
        let mut open: Vec<(Option<String>, JsonValue)> = Vec::new();
        let mut key: Option<String> = None;
        let root = loop {
            let value = match r.next()? {
                Some(Token::BeginObject) => {
                    open.push((key.take(), JsonValue::Obj(Vec::new())));
                    continue;
                }
                Some(Token::BeginArray) => {
                    open.push((key.take(), JsonValue::Arr(Vec::new())));
                    continue;
                }
                Some(Token::Key(k)) => {
                    key = Some(k.to_owned());
                    continue;
                }
                Some(Token::EndObject | Token::EndArray) => {
                    let (k, v) = open.pop().expect("the reader balances containers");
                    key = k;
                    v
                }
                Some(Token::Str(s)) => JsonValue::Str(s.to_owned()),
                Some(Token::Num(n)) => JsonValue::Num(n),
                Some(Token::Bool(b)) => JsonValue::Bool(b),
                Some(Token::Null) => JsonValue::Null,
                None => unreachable!("the reader ends only after the root value"),
            };
            match open.last_mut() {
                None => break value,
                Some((_, JsonValue::Obj(fields))) => {
                    let k = key
                        .take()
                        .expect("the reader yields a key before each member");
                    fields.push((k, value));
                }
                Some((_, JsonValue::Arr(items))) => items.push(value),
                Some(_) => unreachable!("only containers are opened"),
            }
        };
        r.end()?;
        Ok(root)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integral number view (exact for |n| ≤ 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object-fields view.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Serialize back to compact JSON. Key order is preserved, so
    /// `parse(v.to_json()) == v` for any parsed document (numbers are
    /// emitted with enough precision to round-trip f64 exactly).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    // `{:?}` prints the shortest string that parses back to
                    // the same f64 — lossless for the round-trip guarantee.
                    out.push_str(&format!("{n:?}"));
                }
            }
            JsonValue::Str(s) => write_json_string(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

pub(crate) fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One token of a JSON document, in document order. Strings and keys are
/// unescaped and borrow from the reader until its next call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Token<'r> {
    /// `{`
    BeginObject,
    /// An object member's key; the member's value follows.
    Key(&'r str),
    /// `}`
    EndObject,
    /// `[`
    BeginArray,
    /// `]`
    EndArray,
    /// A string value.
    Str(&'r str),
    /// A number.
    Num(f64),
    /// `true` / `false`
    Bool(bool),
    /// `null`
    Null,
}

/// What the reader accepts next.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// A value: the root, a member's value, or an array item after `,`.
    Value,
    /// The first key of an object, or its `}`.
    FirstKey,
    /// The first item of an array, or its `]`.
    FirstItem,
    /// A `,` or the closing bracket of the innermost container, or the
    /// end of the document.
    AfterValue,
}

#[derive(Debug, Clone, Copy)]
enum Frame {
    /// An open object whose keys start at this index of `key_ends`.
    Object {
        first_key: usize,
    },
    Array,
}

/// A pull reader over one JSON document (see the module docs).
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
    expect: Expect,
    frames: Vec<Frame>,
    /// The unescaped keys of every open object, back to back.
    keys: String,
    /// End offset in `keys` of each of those keys.
    key_ends: Vec<usize>,
    /// The unescaped text of the last string value that had escapes.
    scratch: String,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the document's root value.
    pub(crate) fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            expect: Expect::Value,
            frames: Vec::new(),
            keys: String::new(),
            key_ends: Vec::new(),
            scratch: String::new(),
        }
    }

    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The next token, or `None` once the root value is complete and only
    /// whitespace follows it.
    pub(crate) fn next(&mut self) -> Result<Option<Token<'_>>, JsonError> {
        self.skip_ws();
        match self.expect {
            Expect::Value => self.value().map(Some),
            Expect::FirstKey if self.peek() == Some(b'}') => Ok(Some(self.close())),
            Expect::FirstKey => self.key().map(Some),
            Expect::FirstItem if self.peek() == Some(b']') => Ok(Some(self.close())),
            Expect::FirstItem => self.value().map(Some),
            Expect::AfterValue => match (self.frames.last(), self.peek()) {
                (None, None) => Ok(None),
                (None, Some(_)) => Err(self.err("trailing characters after document")),
                (Some(Frame::Object { .. }), Some(b',')) => {
                    self.pos += 1;
                    self.skip_ws();
                    self.key().map(Some)
                }
                (Some(Frame::Object { .. }), Some(b'}')) => Ok(Some(self.close())),
                (Some(Frame::Object { .. }), _) => Err(self.err("expected ',' or '}' in object")),
                (Some(Frame::Array), Some(b',')) => {
                    self.pos += 1;
                    self.skip_ws();
                    self.value().map(Some)
                }
                (Some(Frame::Array), Some(b']')) => Ok(Some(self.close())),
                (Some(Frame::Array), _) => Err(self.err("expected ',' or ']' in array")),
            },
        }
    }

    /// Check that the document ends here; call once the root is complete.
    pub(crate) fn end(&mut self) -> Result<(), JsonError> {
        match self.next()? {
            None => Ok(()),
            Some(_) => unreachable!("end() is called only after the root value"),
        }
    }

    /// Read the rest of the container whose opening token was just read.
    pub(crate) fn skip_container(&mut self) -> Result<(), JsonError> {
        let depth = self.frames.len();
        loop {
            self.next()?;
            if self.frames.len() < depth {
                return Ok(());
            }
        }
    }

    /// Read the next value's first token. If it is `open` (`BeginObject` or
    /// `BeginArray`), leave that container open to be read and return
    /// true; otherwise read the whole value and return false.
    pub(crate) fn enter(&mut self, open: Token<'static>) -> Result<bool, JsonError> {
        let tok = self.next()?.expect("a value is due");
        if tok == open {
            return Ok(true);
        }
        if matches!(tok, Token::BeginObject | Token::BeginArray) {
            self.skip_container()?;
        }
        Ok(false)
    }

    /// Read one whole value, handing its first token to `f`.
    pub(crate) fn value_with<T>(&mut self, f: impl FnOnce(Token<'_>) -> T) -> Result<T, JsonError> {
        let tok = self.next()?.expect("a value is due");
        let opens = matches!(tok, Token::BeginObject | Token::BeginArray);
        let out = f(tok);
        if opens {
            self.skip_container()?;
        }
        Ok(out)
    }

    fn open(&mut self, frame: Frame, expect: Expect) -> Result<(), JsonError> {
        if self.frames.len() == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.pos += 1;
        self.frames.push(frame);
        self.expect = expect;
        Ok(())
    }

    fn close(&mut self) -> Token<'static> {
        self.pos += 1;
        self.expect = Expect::AfterValue;
        match self.frames.pop().expect("a container is open") {
            Frame::Object { first_key } => {
                let keys_len = first_key.checked_sub(1).map_or(0, |i| self.key_ends[i]);
                self.keys.truncate(keys_len);
                self.key_ends.truncate(first_key);
                Token::EndObject
            }
            Frame::Array => Token::EndArray,
        }
    }

    /// Read a member's key and its `:`, rejecting a key the innermost
    /// object already has.
    fn key(&mut self) -> Result<Token<'_>, JsonError> {
        let Some(&Frame::Object { first_key }) = self.frames.last() else {
            unreachable!("keys are read inside objects only");
        };
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        let start = self.keys.len();
        if let Some(run) = scan_string(self.text, &mut self.pos, &mut self.keys)? {
            self.keys.push_str(&self.text[run]);
        }
        let key = &self.keys[start..];
        let mut from = first_key.checked_sub(1).map_or(0, |i| self.key_ends[i]);
        for &to in &self.key_ends[first_key..] {
            if &self.keys[from..to] == key {
                return Err(self.err(format!("duplicate object key `{key}`")));
            }
            from = to;
        }
        self.key_ends.push(self.keys.len());
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(self.err("expected ':'"));
        }
        self.pos += 1;
        self.expect = Expect::Value;
        Ok(Token::Key(&self.keys[start..]))
    }

    fn value(&mut self) -> Result<Token<'_>, JsonError> {
        let tok = match self.peek() {
            Some(b'{') => {
                let first_key = self.key_ends.len();
                self.open(Frame::Object { first_key }, Expect::FirstKey)?;
                return Ok(Token::BeginObject);
            }
            Some(b'[') => {
                self.open(Frame::Array, Expect::FirstItem)?;
                return Ok(Token::BeginArray);
            }
            Some(b'"') => {
                self.expect = Expect::AfterValue;
                self.scratch.clear();
                return Ok(
                    match scan_string(self.text, &mut self.pos, &mut self.scratch)? {
                        Some(run) => Token::Str(&self.text[run]),
                        None => Token::Str(&self.scratch),
                    },
                );
            }
            Some(b't') => self.literal("true", Token::Bool(true))?,
            Some(b'f') => self.literal("false", Token::Bool(false))?,
            Some(b'n') => self.literal("null", Token::Null)?,
            Some(c) if c == b'-' || c.is_ascii_digit() => Token::Num(self.number()?),
            Some(c) => return Err(self.err(format!("unexpected character '{}'", c as char))),
            None => return Err(self.err("unexpected end of input")),
        };
        self.expect = Expect::AfterValue;
        Ok(tok)
    }

    fn literal(&mut self, word: &str, tok: Token<'static>) -> Result<Token<'static>, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(tok)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        let digits = |r: &mut Self| {
            while matches!(r.peek(), Some(c) if c.is_ascii_digit()) {
                r.pos += 1;
            }
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        // Every byte scanned is ASCII, so the range is on char boundaries.
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }
}

/// Scan the string whose opening quote is at `*pos`, leaving `*pos` just
/// past its closing quote. A string without escapes is returned as its
/// range in `text` and nothing is written; a string with escapes has its
/// unescaped text appended to `out`, and `None` is returned.
///
/// The text between escapes is copied a run at a time: a run ends at the
/// next `"` or `\`, both ASCII, so every run is a `str` slice.
fn scan_string(
    text: &str,
    pos: &mut usize,
    out: &mut String,
) -> Result<Option<Range<usize>>, JsonError> {
    let bytes = text.as_bytes();
    let err = |at: usize, msg: String| Err(JsonError { at, msg });
    *pos += 1;
    let mut escaped = false;
    loop {
        let run = *pos;
        let Some(len) = bytes[run..].iter().position(|&b| b == b'"' || b == b'\\') else {
            *pos = bytes.len();
            return err(*pos, "unterminated string".into());
        };
        *pos = run + len + 1;
        if bytes[run + len] == b'"' {
            if !escaped {
                return Ok(Some(run..run + len));
            }
            out.push_str(&text[run..run + len]);
            return Ok(None);
        }
        escaped = true;
        out.push_str(&text[run..run + len]);
        let Some(&esc) = bytes.get(*pos) else {
            return err(*pos, "dangling escape".into());
        };
        *pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let Some(hex) = bytes.get(*pos..*pos + 4) else {
                    return err(*pos, "truncated \\u escape".into());
                };
                let Ok(hex) = std::str::from_utf8(hex) else {
                    return err(*pos, "non-UTF8 \\u escape".into());
                };
                let Ok(cp) = u32::from_str_radix(hex, 16) else {
                    return err(*pos, "bad \\u escape".into());
                };
                // The four bytes parsed as hex, so they were ASCII and the
                // next run starts on a char boundary.
                *pos += 4;
                // Surrogate pairs are not needed by our exporters; lone
                // surrogates map to the replacement char.
                out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
            }
            c => return err(*pos, format!("bad escape '\\{}'", c as char)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v =
            JsonValue::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true, "e": null}}"#)
                .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&JsonValue::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\": }",
            "{\"a\": 1} extra",
            "\"unterminated",
            "{'single': 1}",
            "nul",
            "1.2.3",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn unicode_and_escapes_round_trip() {
        let v = JsonValue::parse(r#"{"s": "café – ☕ \"q\" \\"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("café – ☕ \"q\" \\"));
    }

    #[test]
    fn u64_view_is_strict() {
        assert_eq!(JsonValue::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(JsonValue::parse("42.5").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("-1").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("\"42\"").unwrap().as_u64(), None);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(JsonValue::parse("{}").unwrap(), JsonValue::Obj(vec![]));
        assert_eq!(JsonValue::parse("[]").unwrap(), JsonValue::Arr(vec![]));
        assert_eq!(JsonValue::parse(" [ ] ").unwrap(), JsonValue::Arr(vec![]));
    }

    /// parse → serialize → parse must be the identity on any document.
    fn assert_round_trips(text: &str) {
        let v = JsonValue::parse(text).expect("document parses");
        let re = v.to_json();
        let v2 = JsonValue::parse(&re).unwrap_or_else(|e| panic!("reserialized `{re}`: {e}"));
        assert_eq!(v, v2, "round trip changed the document");
        // Serialization is a fixed point after one pass.
        assert_eq!(re, v2.to_json());
    }

    #[test]
    fn snapshot_document_round_trips() {
        use crate::registry::MetricRegistry;
        use sais_metrics::Histogram;
        use sais_sim::SimTime;
        let mut reg = MetricRegistry::new();
        reg.counter("reads.completed", 42);
        reg.gauge("bandwidth.gbps", 2.875);
        let mut h = Histogram::new();
        for v in [100, 2_000, 30_000, 400_000] {
            h.record(v);
        }
        reg.histogram("latency.read_ns", &h);
        assert_round_trips(&reg.snapshot(SimTime::from_micros(1234)).to_json());
    }

    #[test]
    fn trace_document_round_trips() {
        use crate::perfetto;
        use crate::span::{FlightRecorder, SpanId};
        use sais_sim::SimTime;
        let mut r = FlightRecorder::enabled(16);
        let t = SimTime::from_micros;
        let req = r.begin(t(10), "read", "request", 0, 100, SpanId::NONE);
        r.set_arg(req, "read_id", 7);
        let strip = r.begin(t(10), "strip", "strip", 0, 100, req);
        let irq = r.begin(t(20), "irq", "interrupt", 0, 3, strip);
        r.end(irq, t(25));
        r.end(strip, t(40));
        r.end(req, t(40));
        r.name_track(0, 3, "core 3");
        r.instant(t(40), "request_done", 0, 100, 7);
        assert_round_trips(&perfetto::to_chrome_json(&r));
    }

    #[test]
    fn scalar_and_string_round_trips() {
        for doc in [
            "null",
            "true",
            "-17",
            "0.125",
            "1e300",
            r#""plain""#,
            r#""esc \" \\ \n \t ""#,
            r#"{"mixed": [1, "two", null, {"deep": [[]]}]}"#,
        ] {
            assert_round_trips(doc);
        }
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            r#"{"truncated": {"a": 1"#, // truncated object
            r#"{"bad": "esc\qape"}"#,   // bad escape
            r#"{"k": 1, "k": 2}"#,      // duplicate key
            r#"{"u": "trunc\u00"}"#,    // truncated \u escape
            "[1, 2",                    // truncated array
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted: {bad}");
        }
        let dup = JsonValue::parse(r#"{"k": 1, "k": 2}"#).unwrap_err();
        assert!(dup.msg.contains("duplicate"), "{dup}");
    }

    #[test]
    fn duplicate_keys_compare_unescaped_and_per_object() {
        // `\u0069d` is `id`: the same key spelled two ways.
        assert!(JsonValue::parse(r#"{"id": 1, "\u0069d": 2}"#).is_err());
        // Equal keys in sibling and nested objects are fine, and each
        // object's keys leave the stack when it closes.
        let ok = r#"{"a": {"a": {"b": 1}, "b": 2}, "b": [{"a": 1}, {"a": 2}], "c": {}}"#;
        assert_round_trips(ok);
        assert!(JsonValue::parse(r#"{"a": {"b": 1}, "b": 2, "a": 3}"#).is_err());
    }

    #[test]
    fn reader_borrows_plain_strings_and_unescapes_the_rest() {
        let text = r#"["plain", "t\u00e9l\u00e9 \"x\"", {"k\n": "v"}]"#;
        let mut r = Reader::new(text);
        let mut seen = Vec::new();
        while let Some(tok) = r.next().unwrap() {
            if let Token::Str(s) | Token::Key(s) = tok {
                // A borrowed string points into the input.
                let borrowed = text.as_bytes().as_ptr_range().contains(&s.as_ptr());
                seen.push((s.to_owned(), borrowed));
            }
        }
        let want = [
            ("plain", true),
            ("télé \"x\"", false),
            ("k\n", false),
            ("v", true),
        ];
        let want: Vec<(String, bool)> = want.iter().map(|&(s, b)| (s.to_owned(), b)).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(JsonValue::parse(&deep(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.msg.contains("nesting"), "{err}");
        // Far deeper than any stack could recurse: still a typed error.
        assert!(JsonValue::parse(&"[".repeat(1 << 20)).is_err());
    }
}
