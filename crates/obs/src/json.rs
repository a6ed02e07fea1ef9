//! The crate's JSON reader and writers.
//!
//! The build environment vendors no external crates, so this module is the
//! one JSON grammar the crate has. `Cursor` is a direct-descent reader:
//! its consumer reads each value where it stands. `object` and `array`
//! read a container's punctuation and hand the cursor to a closure at
//! each member (with its unescaped key) or item; `string`, `number`,
//! `literal` and `skip` read one value. There is no token type and no
//! per-token state machine. Two consumers drive it:
//!
//! * [`JsonValue::parse`] builds a document tree, for the trace analyzer,
//!   the perf-history reader and tests;
//! * [`crate::perfetto::validate`] walks an exported trace's events and
//!   keeps only the fields it checks. That check runs after every observed
//!   benchmark run, so the reader is on a timed path: a string without
//!   escapes is a slice of the input, found eight bytes at a time; a plain
//!   key is compared for duplicates as that slice, and only when another
//!   key of its object shares its bit in a 64-bit mask; and a number of up
//!   to 15 digits without an exponent is computed exactly without
//!   `str::parse`.
//!
//! Duplicate object keys are rejected: the exporters never produce them,
//! and silently keeping the first (or last) would hide exporter bugs.
//! Nesting deeper than [`MAX_DEPTH`] is rejected too, so neither the
//! reader's recursion nor dropping or writing a tree can exhaust the
//! stack. [`JsonValue::to_json`] serializes a tree canonically, so parsed
//! documents round-trip. The token reader the cursor replaced is kept
//! under test as its oracle: both must return the same tree, or fail at
//! the same byte with the same message, on every input.
//!
//! The writers, `write_json_string` and `write_u64`, append to a
//! `String` without `fmt`; the trace exporter and the metric snapshot
//! share them.

use std::borrow::Cow;
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
        Cursor::document(text, JsonValue::read)
    }

    fn read(cur: &mut Cursor<'_>) -> Result<JsonValue, JsonError> {
        Ok(match cur.kind()? {
            Kind::Object => {
                let mut fields = Vec::new();
                cur.object(|cur, key| {
                    fields.push((key.to_owned(), JsonValue::read(cur)?));
                    Ok(())
                })?;
                JsonValue::Obj(fields)
            }
            Kind::Array => {
                let mut items = Vec::new();
                cur.array(|cur| {
                    items.push(JsonValue::read(cur)?);
                    Ok(())
                })?;
                JsonValue::Arr(items)
            }
            Kind::Str => JsonValue::Str(cur.string()?.to_owned()),
            Kind::Num => JsonValue::Num(cur.number()?),
            Kind::Literal => cur.literal()?,
        })
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

/// Append `s` as a JSON string literal. Each run of characters that needs
/// no escape is pushed as one slice.
pub fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "\\u00",
            _ => continue,
        };
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        out.push_str(esc);
        if esc == "\\u00" {
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Append `v` in decimal.
pub(crate) fn write_u64(mut v: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
}

/// What the value at a [`Cursor`] is, told by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Object,
    Array,
    Str,
    Num,
    /// `true`, `false` or `null`.
    Literal,
}

/// Exact powers of ten for the number fast path.
const POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// Most digits a number may have to take the fast path: below 10^15 every
/// mantissa is an exact f64.
const FAST_DIGITS: usize = 15;

/// A direct-descent reader over one JSON document (see the module docs).
///
/// Between calls the cursor sits on the first byte of a value, past any
/// whitespace. Every value reader consumes exactly one value.
pub(crate) struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the cursor.
    depth: usize,
    /// The keys of every open object, innermost object's last. Plain keys
    /// borrow the input; only escaped ones are copied.
    keys: Vec<Cow<'a, str>>,
    /// The unescaped text of the last string that had escapes.
    scratch: String,
}

impl<'a> Cursor<'a> {
    /// Read `text` as one document: `root` reads its root value, and
    /// anything but whitespace after it is an error.
    pub(crate) fn document<T>(
        text: &'a str,
        root: impl FnOnce(&mut Cursor<'a>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        let mut cur = Cursor {
            text,
            pos: 0,
            depth: 0,
            keys: Vec::new(),
            scratch: String::new(),
        };
        cur.skip_ws();
        let out = root(&mut cur)?;
        cur.skip_ws();
        if cur.pos < text.len() {
            return Err(cur.err("trailing characters after document"));
        }
        Ok(out)
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

    /// The kind of the value at the cursor; an error if no value starts
    /// here.
    pub(crate) fn kind(&self) -> Result<Kind, JsonError> {
        match self.peek() {
            Some(b'{') => Ok(Kind::Object),
            Some(b'[') => Ok(Kind::Array),
            Some(b'"') => Ok(Kind::Str),
            Some(b't' | b'f' | b'n') => Ok(Kind::Literal),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Kind::Num),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Step into the container whose opening bracket is at the cursor.
    /// Returns false if its closing bracket `close` follows at once; the
    /// cursor is then past that too.
    fn open(&mut self, close: u8) -> Result<bool, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        Ok(!self.close(close))
    }

    /// Step out of the innermost container if its closing bracket `close`
    /// is at the cursor.
    fn close(&mut self, close: u8) -> bool {
        let at = self.peek() == Some(close);
        if at {
            self.pos += 1;
            self.depth -= 1;
        }
        at
    }

    /// After a member or item: step past a `,` and return true, or past
    /// the closing bracket `close` and return false.
    fn next_or_close(&mut self, close: u8, msg: &str) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.close(close) {
            return Ok(false);
        }
        if self.peek() != Some(b',') {
            return Err(self.err(msg));
        }
        self.pos += 1;
        self.skip_ws();
        Ok(true)
    }

    /// Read the object at the cursor. `member` gets the cursor on each
    /// member's value, with the member's unescaped key, and must read
    /// that value.
    pub(crate) fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        let first_key = self.keys.len();
        // One bit per key of this object, from `key_bit`: a key whose bit
        // is clear cannot be a duplicate, so most keys skip the scan.
        let mut seen = 0;
        let mut more = self.open(b'}')?;
        while more {
            let key = self.key(first_key, &mut seen)?;
            member(self, &key)?;
            more = self.next_or_close(b'}', "expected ',' or '}' in object")?;
        }
        self.keys.truncate(first_key);
        Ok(())
    }

    /// Read a member's key and its `:`, rejecting a key the object whose
    /// keys start at `first_key`, and whose key bits are `seen`, already
    /// has.
    fn key(&mut self, first_key: usize, seen: &mut u64) -> Result<Cow<'a, str>, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        let text = self.text;
        self.scratch.clear();
        let key = match scan_string(text, &mut self.pos, &mut self.scratch)? {
            Some(run) => Cow::Borrowed(&text[run]),
            None => Cow::Owned(self.scratch.clone()),
        };
        let bit = key_bit(&key);
        if *seen & bit != 0 && self.keys[first_key..].contains(&key) {
            return Err(self.err(format!("duplicate object key `{key}`")));
        }
        *seen |= bit;
        self.keys.push(key.clone());
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(self.err("expected ':'"));
        }
        self.pos += 1;
        self.skip_ws();
        Ok(key)
    }

    /// Read the array at the cursor. `item` gets the cursor on each item
    /// and must read it.
    pub(crate) fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        let mut more = self.open(b']')?;
        while more {
            item(self)?;
            more = self.next_or_close(b']', "expected ',' or ']' in array")?;
        }
        Ok(())
    }

    /// Read the string at the cursor, unescaped. A string without escapes
    /// borrows the input.
    pub(crate) fn string(&mut self) -> Result<&str, JsonError> {
        let text = self.text;
        self.scratch.clear();
        Ok(match scan_string(text, &mut self.pos, &mut self.scratch)? {
            Some(run) => &text[run],
            None => &self.scratch,
        })
    }

    /// Read the literal (`true`, `false` or `null`) at the cursor.
    pub(crate) fn literal(&mut self) -> Result<JsonValue, JsonError> {
        let (word, value) = match self.peek() {
            Some(b't') => ("true", JsonValue::Bool(true)),
            Some(b'f') => ("false", JsonValue::Bool(false)),
            _ => ("null", JsonValue::Null),
        };
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.err(format!("expected `{word}`")));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// Read the number at the cursor. The scan takes the longest run of
    /// `-?\d*(\.\d*)?([eE][+-]?\d*)?` and `str::parse` decides what it
    /// accepts; a run of the form `-?\d+(\.\d+)?` with at most
    /// [`FAST_DIGITS`] digits is computed directly, as `m / 10^f` with
    /// both operands exact, which is the correctly rounded value `parse`
    /// returns too.
    pub(crate) fn number(&mut self) -> Result<f64, JsonError> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let digits = |at: &mut usize, m: &mut u64| {
            let from = *at;
            while let Some(&c) = bytes.get(*at).filter(|c| c.is_ascii_digit()) {
                *m = m.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
                *at += 1;
            }
            *at - from
        };
        let mut at = start;
        let negative = bytes.get(at) == Some(&b'-');
        at += usize::from(negative);
        let mut m = 0;
        let int_digits = digits(&mut at, &mut m);
        let mut frac_digits = None;
        if bytes.get(at) == Some(&b'.') {
            at += 1;
            frac_digits = Some(digits(&mut at, &mut m));
        }
        let exponent = matches!(bytes.get(at), Some(b'e' | b'E'));
        if exponent {
            at += 1;
            if matches!(bytes.get(at), Some(b'+' | b'-')) {
                at += 1;
            }
            digits(&mut at, &mut 0);
        }
        self.pos = at;
        let frac = frac_digits.unwrap_or(0);
        if !exponent && int_digits > 0 && frac_digits != Some(0) && int_digits + frac <= FAST_DIGITS
        {
            let v = m as f64 / POW10[frac];
            return Ok(if negative { -v } else { v });
        }
        // Every byte scanned is ASCII, so the range is on char boundaries.
        let text = &self.text[start..at];
        text.parse::<f64>()
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }

    /// Read any value at the cursor, checking it as fully as the other
    /// readers do.
    pub(crate) fn skip(&mut self) -> Result<(), JsonError> {
        match self.kind()? {
            Kind::Object => self.object(|cur, _| cur.skip()),
            Kind::Array => self.array(Self::skip),
            Kind::Str => self.string().map(drop),
            Kind::Num => self.number().map(drop),
            Kind::Literal => self.literal().map(drop),
        }
    }
}

/// The index of the first `"` or `\` in `bytes`, eight bytes at a time.
fn quote_or_backslash(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    // High bit set in each byte of `w` that is zero (and, above the
    // first such byte, possibly in others: only the lowest one is used).
    let zero = |w: u64| w.wrapping_sub(ONES) & !w & HIGHS;
    let mut chunks = bytes.chunks_exact(8);
    for (i, chunk) in chunks.by_ref().enumerate() {
        let w = u64::from_le_bytes(chunk.try_into().expect("chunks are 8 bytes"));
        let hits = zero(w ^ (ONES * u64::from(b'"'))) | zero(w ^ (ONES * u64::from(b'\\')));
        if hits != 0 {
            return Some(i * 8 + hits.trailing_zeros() as usize / 8);
        }
    }
    let tail = chunks.remainder();
    let at = bytes.len() - tail.len();
    tail.iter()
        .position(|&b| b == b'"' || b == b'\\')
        .map(|i| at + i)
}

/// A key's bit in an object's `seen` mask: equal keys share a bit, and
/// the keys of a trace event and of its `args` all have distinct ones.
fn key_bit(key: &str) -> u64 {
    let b = key.as_bytes();
    let (first, last) = (b.first().copied(), b.last().copied());
    let h = usize::from(first.unwrap_or(0)) * 31 + usize::from(last.unwrap_or(0)) + b.len() * 17;
    1 << (h % 64)
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
        let Some(len) = quote_or_backslash(&bytes[run..]) else {
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
mod pull;

#[cfg(test)]
mod props;

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
    fn cursor_borrows_plain_strings_and_unescapes_the_rest() {
        let text = r#"["plain", "t\u00e9l\u00e9 \"x\"", {"k\n": "v", "k": "w\/"}]"#;
        let input = text.as_bytes().as_ptr_range();
        let mut seen = Vec::new();
        let mut record = |s: &str| seen.push((s.to_owned(), input.contains(&s.as_ptr())));
        Cursor::document(text, |cur| {
            cur.array(|cur| {
                if cur.kind()? == Kind::Str {
                    record(cur.string()?);
                    return Ok(());
                }
                cur.object(|cur, key| {
                    record(key);
                    record(cur.string()?);
                    Ok(())
                })
            })
        })
        .unwrap();
        let want = [
            ("plain", true),
            ("télé \"x\"", false),
            ("k\n", false),
            ("v", true),
            ("k", true),
            ("w/", false),
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
