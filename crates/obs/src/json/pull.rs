//! The pull reader the cursor replaced, kept as the oracle of the
//! differential property in `props`: a token-at-a-time state machine with
//! its own string scanner, so the two readers share no grammar code.

use super::{JsonError, JsonValue, MAX_DEPTH};
use std::ops::Range;

/// Parse a document with the pull reader.
pub(super) fn parse(text: &str) -> Result<JsonValue, JsonError> {
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
    match r.next()? {
        None => Ok(root),
        Some(_) => unreachable!("the root value is complete"),
    }
}

/// One token of a JSON document, in document order. Strings and keys are
/// unescaped and borrow from the reader until its next call.
enum Token<'r> {
    BeginObject,
    Key(&'r str),
    EndObject,
    BeginArray,
    EndArray,
    Str(&'r str),
    Num(f64),
    Bool(bool),
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

struct Reader<'a> {
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
    fn new(text: &'a str) -> Reader<'a> {
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
    fn next(&mut self) -> Result<Option<Token<'_>>, JsonError> {
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
        let int_start = self.pos;
        digits(self);
        let int = &self.text[int_start..self.pos];
        // RFC 8259: `int = zero / ( digit1-9 *DIGIT )`, `frac = "." 1*DIGIT`.
        let mut valid = int == "0" || (!int.is_empty() && !int.starts_with('0'));
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            digits(self);
            valid &= self.pos > frac_start;
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
            .ok()
            .filter(|_| valid)
            .ok_or_else(|| self.err(format!("bad number `{text}`")))
    }
}

/// Scan the string whose opening quote is at `*pos`, leaving `*pos` just
/// past its closing quote. A string without escapes is returned as its
/// range in `text`; a string with escapes has its unescaped text appended
/// to `out`, and `None` is returned.
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
                *pos += 4;
                out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
            }
            c => return err(*pos, format!("bad escape '\\{}'", c as char)),
        }
    }
}
