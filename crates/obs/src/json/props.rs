//! The cursor against the pull reader it replaced: [`JsonValue::parse`]
//! must return what `pull::parse` returns on every input — the same tree,
//! or an error at the same byte with the same message.

use super::{pull, JsonValue, MAX_DEPTH};
use crate::perfetto::{props as traces, to_chrome_json};
use crate::registry::MetricRegistry;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sais_metrics::Histogram;
use sais_sim::SimTime;

/// Both readers on `text`, compared by their `Debug` renderings, which
/// also tell `-0.0` from `0.0`.
fn check(text: &str) -> Result<(), TestCaseError> {
    let cursor = format!("{:?}", JsonValue::parse(text));
    let oracle = format!("{:?}", pull::parse(text));
    prop_assert_eq!(cursor, oracle, "document: {:?}", text);
    Ok(())
}

/// `text` as the root, as an array item and as a member's value.
fn check_placed(text: &str) -> Result<(), TestCaseError> {
    check(text)?;
    check(&format!("[{text}, 1]"))?;
    check(&format!("{{\"k\": {text}}}"))
}

proptest! {
    #[test]
    fn cursor_matches_pull_reader_on_mutated_traces(
        ops in vec((0u8..7, any::<u64>()), 0..40),
        edits in vec(vec((0u8..10, any::<u64>()), 1..4), 8),
    ) {
        let export = to_chrome_json(&traces::recorder(&ops));
        check(&export)?;
        for plan in &edits {
            check(&traces::mutated(&export, plan).0)?;
        }
    }

    #[test]
    fn cursor_matches_pull_reader_on_metric_snapshots(
        counters in vec((0usize..NAMES.len(), any::<u64>()), 0..6),
        gauges in vec((0usize..NAMES.len(), 0usize..GAUGES.len(), any::<u64>()), 0..6),
        hists in vec((0usize..NAMES.len(), vec(any::<u64>(), 0..5)), 0..3),
        edits in vec((8u8..10, any::<u64>()), 4),
    ) {
        let mut reg = MetricRegistry::new();
        for &(name, v) in &counters {
            reg.counter(NAMES[name], v);
        }
        for &(name, g, x) in &gauges {
            let v = GAUGES[g].unwrap_or(f64::from_bits(x));
            reg.gauge(NAMES[name], v);
        }
        for (name, samples) in &hists {
            let mut h = Histogram::new();
            for &v in samples {
                h.record(v >> 20);
            }
            reg.histogram(NAMES[*name], &h);
        }
        let json = reg.snapshot(SimTime::from_nanos(counters.len() as u64)).to_json();
        check(&json)?;
        for &(kind, x) in &edits {
            let mut text = json.clone();
            traces::mutate_text(&mut text, kind, x);
            check(&text)?;
        }
    }

    #[test]
    fn cursor_matches_pull_reader_on_byte_soup(soup in vec(0usize..SOUP.len(), 0..48)) {
        let text: String = soup.iter().map(|&i| SOUP[i]).collect();
        check(&text)?;
    }

    #[test]
    fn cursor_matches_pull_reader_at_the_depth_limit(
        depth in (MAX_DEPTH - 1)..(MAX_DEPTH + 2),
        objects in any::<u64>(),
        cut in any::<u64>(),
    ) {
        // Openers alternate between arrays and one-member objects by the
        // bits of `objects`; the closers mirror them.
        let object = |i: usize| objects >> (i % 64) & 1 == 1;
        let mut text = String::new();
        for i in 0..depth {
            text.push_str(if object(i) { "{\"k\": " } else { "[" });
        }
        text.push_str("null");
        for i in (0..depth).rev() {
            text.push(if object(i) { '}' } else { ']' });
        }
        check(&text)?;
        let mut cut_short = text.clone();
        cut_short.truncate(cut as usize % (text.len() + 1));
        check(&cut_short)?;
    }

    #[test]
    fn cursor_matches_pull_reader_on_escapes(pieces in vec((0usize..ESCAPES.len(), any::<u64>()), 0..6)) {
        let mut s = String::new();
        for &(p, x) in &pieces {
            s.push_str(ESCAPES[p]);
            if ESCAPES[p] == "\\u" {
                // Zero to four characters after a `\u`, hex or not.
                for k in 0..x % 5 {
                    let c = HEXISH[(x >> (8 * k + 3)) as usize % HEXISH.len()];
                    s.push(c);
                }
            }
        }
        check_placed(&format!("\"{s}\""))?;
        check(&format!("{{\"{s}\": 1}}"))?;
        check(&format!("{{\"{s}\": 1, \"{s}\": 2}}"))?;
        check(&format!("{{\"a\\u0062\": {{\"{s}\": [\"{s}\"]}}, \"ab\": 3}}"))?;
    }

    #[test]
    fn cursor_matches_pull_reader_on_numbers(
        decimals in vec((15usize..18, any::<u64>(), any::<u64>(), 0u8..4), 8),
    ) {
        for number in NUMBERS {
            check_placed(number)?;
        }
        for &(len, hi, lo, form) in &decimals {
            let digits = format!("{:016}{:016}", hi % 10u64.pow(16), lo % 10u64.pow(16));
            // A leading non-zero digit, so each has exactly `len` digits.
            let mut text = format!("{}{}", 1 + hi % 9, &digits[..len - 1]);
            if form & 1 == 1 {
                let dot = 1 + (lo as usize >> 3) % (len - 1);
                text.insert(dot, '.');
            }
            if form & 2 == 2 {
                text.insert(0, '-');
            }
            check_placed(&text)?;
        }
    }
}

/// Metric names: plain ones like the tree's, and ones the writer escapes.
const NAMES: [&str; 8] = [
    "irq.routed",
    "mem.l2_misses",
    "quote\"d",
    "back\\slash",
    "tab\tname",
    "line\nbreak",
    "ctl\u{1}\u{1f}",
    "caf\u{e9} \u{2615}",
];

/// Gauge values; `None` draws random bits (NaN and infinities included).
const GAUGES: [Option<f64>; 7] = [
    Some(0.0),
    Some(-0.0),
    Some(0.015),
    Some(2.875),
    Some(1e300),
    Some(f64::NAN),
    None,
];

/// Byte soup: the grammar's characters, some letters and one multibyte
/// character.
const SOUP: [&str; 32] = [
    "{", "}", "[", "]", ",", ":", "\"", "\\", " ", "\n", "-", "+", "0", "1", "9", ".", "e", "E",
    "t", "r", "u", "f", "a", "l", "s", "n", "x", "/", "b", "{\"k\": ", "\"k\"", "\u{e9}",
];

/// String pieces: plain text, every escape, a bare `\u` (followed by
/// `HEXISH` characters), bad escapes and a lone backslash.
const ESCAPES: [&str; 16] = [
    "plain", "\u{e9}", "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\u", "\\ud800",
    "\\u0069", "\\q", "\\x41", "\\",
];

const HEXISH: [char; 12] = [
    '0', '9', 'a', 'F', 'd', '8', 'g', '+', '-', ' ', '"', '\u{e9}',
];

/// Numbers at the edges of the grammar and of the fast path.
const NUMBERS: [&str; 26] = [
    "-",
    "1.",
    ".5",
    "01",
    "1e",
    "1e999",
    "-0",
    "-0.0",
    "0",
    "1.2.3",
    "--1",
    "1.5e",
    "1E+2",
    "2e-3",
    "-.5",
    "1.e3",
    "9007199254740991",
    "9007199254740992",
    "9007199254740993",
    "-9007199254740993",
    "900719925474099.3",
    "123456789012345",
    "1234567890123456",
    "12345678901234567",
    "0.000000000000001",
    "99999999999999.99",
];

#[test]
fn the_depth_limit_is_where_both_readers_put_it() {
    for depth in [MAX_DEPTH, MAX_DEPTH + 1] {
        for opener in ["[", "{\"k\": "] {
            let mut text = opener.repeat(depth);
            text.push('1');
            let close = if opener == "[" { "]" } else { "}" };
            text.push_str(&close.repeat(depth));
            let got = JsonValue::parse(&text);
            assert_eq!(format!("{got:?}"), format!("{:?}", pull::parse(&text)));
            assert_eq!(
                got.is_ok(),
                depth == MAX_DEPTH,
                "depth {depth} opener {opener}"
            );
        }
    }
}
