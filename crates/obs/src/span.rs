//! The span recorder: structured, parented timing records.
//!
//! A [`Span`] is a named interval of simulated time attributed to a track
//! (a core, or a per-process request lane) with an optional parent — the
//! request → strip → interrupt/copy hierarchy the exporter turns into a
//! timeline. Spans live in one flat `Vec` indexed by [`SpanId`]; beginning
//! a span is an amortized O(1) push, ending one writes a single field.
//!
//! ## Disabled-path contract
//!
//! Recording must be *zero-cost when off*, because the hot paths this
//! subsystem observes were bought with careful optimization. Every public
//! record call therefore starts with a branch on one `bool`; in the
//! disabled state no vector is touched, nothing is allocated, and no
//! formatting happens (names are `&'static str` by construction). The
//! `disabled_recorder_never_allocates` test pins this by observing the
//! heap capacity of a disabled recorder across a million record calls.

use sais_sim::SimTime;

/// Index of a span in its [`FlightRecorder`]. `SpanId::NONE` is the null
/// parent and the value returned by every call on a disabled recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u32);

impl SpanId {
    /// The null id: no parent / recording disabled / span dropped.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// Whether this id refers to an actual span.
    pub fn is_some(self) -> bool {
        self != SpanId::NONE
    }
}

/// Maximum inline key/value arguments per span.
pub const MAX_ARGS: usize = 3;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name (e.g. `"read"`, `"strip"`, `"irq"`).
    pub name: &'static str,
    /// Category, used by trace viewers to colour/filter (e.g. `"request"`).
    pub cat: &'static str,
    /// Parent span, or [`SpanId::NONE`] for roots.
    pub parent: SpanId,
    /// Start instant.
    pub start: SimTime,
    /// End instant; [`SimTime::MAX`] while the span is open.
    pub end: SimTime,
    /// Process lane of the track (client node index).
    pub pid: u32,
    /// Thread lane of the track (core id, or a synthetic request lane).
    pub tid: u32,
    /// Inline key/value arguments; unused slots have an empty key.
    pub args: [(&'static str, u64); MAX_ARGS],
}

impl Span {
    /// Duration, zero while still open.
    pub fn duration(&self) -> sais_sim::SimDuration {
        if self.end == SimTime::MAX {
            sais_sim::SimDuration::ZERO
        } else {
            self.end.since(self.start)
        }
    }

    /// Look up an argument by key.
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args
            .iter()
            .find(|(k, _)| !k.is_empty() && *k == key)
            .map(|&(_, v)| v)
    }
}

/// A point event (no duration): markers like "request N complete".
#[derive(Debug, Clone, Copy)]
pub struct InstantEvent {
    /// Event name.
    pub name: &'static str,
    /// When it happened.
    pub time: SimTime,
    /// Process lane.
    pub pid: u32,
    /// Thread lane.
    pub tid: u32,
    /// Single payload word.
    pub value: u64,
}

/// The flight recorder: a growable store of spans and instants.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    enabled: bool,
    cap: usize,
    spans: Vec<Span>,
    instants: Vec<InstantEvent>,
    track_names: Vec<(u32, u32, String)>,
    recorded: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder that records nothing and allocates nothing. Every record
    /// call returns after one branch.
    pub fn disabled() -> Self {
        FlightRecorder {
            enabled: false,
            cap: 0,
            spans: Vec::new(),
            instants: Vec::new(),
            track_names: Vec::new(),
            recorded: 0,
            dropped: 0,
        }
    }

    /// An enabled recorder holding up to `cap` spans. Spans begun beyond
    /// the capacity are counted as dropped (and their children with them);
    /// the cap bounds memory on pathological scenarios rather than silently
    /// growing without limit.
    pub fn enabled(cap: usize) -> Self {
        FlightRecorder {
            enabled: true,
            cap: cap.max(1),
            spans: Vec::new(),
            instants: Vec::new(),
            track_names: Vec::new(),
            recorded: 0,
            dropped: 0,
        }
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Begin a span. On a disabled recorder this is a single branch and
    /// returns [`SpanId::NONE`].
    #[inline]
    pub fn begin(
        &mut self,
        now: SimTime,
        name: &'static str,
        cat: &'static str,
        pid: u32,
        tid: u32,
        parent: SpanId,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        self.begin_recorded(now, name, cat, pid, tid, parent)
    }

    // Out of line so the `begin` fast path inlines to a test+return.
    fn begin_recorded(
        &mut self,
        now: SimTime,
        name: &'static str,
        cat: &'static str,
        pid: u32,
        tid: u32,
        parent: SpanId,
    ) -> SpanId {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return SpanId::NONE;
        }
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            cat,
            parent,
            start: now,
            end: SimTime::MAX,
            pid,
            tid,
            args: [("", 0); MAX_ARGS],
        });
        self.recorded += 1;
        id
    }

    /// Close a span. No-op for [`SpanId::NONE`] or a disabled recorder.
    #[inline]
    pub fn end(&mut self, id: SpanId, now: SimTime) {
        if !self.enabled || !id.is_some() {
            return;
        }
        self.spans[id.0 as usize].end = now;
    }

    /// Attach a key/value argument to an open or closed span. Setting a
    /// key the span already holds overwrites its value. A new key is
    /// silently ignored once the span's [`MAX_ARGS`] inline slots are full.
    #[inline]
    pub fn set_arg(&mut self, id: SpanId, key: &'static str, value: u64) {
        if !self.enabled || !id.is_some() {
            return;
        }
        let span = &mut self.spans[id.0 as usize];
        // Slots fill left to right and are never freed, so the first one
        // that is empty or holds `key` is where `key` lives.
        if let Some(slot) = span
            .args
            .iter_mut()
            .find(|(k, _)| k.is_empty() || *k == key)
        {
            *slot = (key, value);
        }
    }

    /// Record a point event.
    #[inline]
    pub fn instant(&mut self, now: SimTime, name: &'static str, pid: u32, tid: u32, value: u64) {
        if !self.enabled {
            return;
        }
        if self.instants.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.instants.push(InstantEvent {
            name,
            time: now,
            pid,
            tid,
            value,
        });
        self.recorded += 1;
    }

    /// Give a track a human-readable name in exported traces (e.g.
    /// `"core 3"`, `"proc 0 requests"`). Last write wins per `(pid, tid)`.
    pub fn name_track(&mut self, pid: u32, tid: u32, name: impl Into<String>) {
        if !self.enabled {
            return;
        }
        let name = name.into();
        if let Some(t) = self
            .track_names
            .iter_mut()
            .find(|(p, t, _)| *p == pid && *t == tid)
        {
            t.2 = name;
        } else {
            self.track_names.push((pid, tid, name));
        }
    }

    /// All spans, in begin order (children always after their parent).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All point events, in record order.
    pub fn instants(&self) -> &[InstantEvent] {
        &self.instants
    }

    /// Registered track names as `(pid, tid, name)`.
    pub fn track_names(&self) -> &[(u32, u32, String)] {
        &self.track_names
    }

    /// Spans/instants actually stored.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Spans/instants refused because the capacity was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Children of `parent`, in begin order.
    pub fn children(&self, parent: SpanId) -> impl Iterator<Item = (SpanId, &Span)> {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.parent == parent)
            .map(|(i, s)| (SpanId(i as u32), s))
    }

    /// Roots (spans with no parent), in begin order.
    pub fn roots(&self) -> impl Iterator<Item = (SpanId, &Span)> {
        self.children(SpanId::NONE)
    }

    /// Heap capacity currently held for spans — observable proof that the
    /// disabled path allocates nothing.
    pub fn span_heap_capacity(&self) -> usize {
        self.spans.capacity()
    }

    /// Structural integrity check over the recorded span forest:
    ///
    /// * every non-root span's parent index refers to a stored span;
    /// * parents begin before their children (`parent index < child
    ///   index`), which also rules out parent cycles;
    /// * no span ends before it starts;
    /// * every closed child's interval lies within its parent's interval
    ///   (an open parent admits any child end).
    ///
    /// Returns `Err` describing the first violation found.
    pub fn check_integrity(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end != SimTime::MAX && s.end < s.start {
                return Err(format!(
                    "span {i} ({}) ends at {:?} before it starts at {:?}",
                    s.name, s.end, s.start
                ));
            }
            if !s.parent.is_some() {
                continue;
            }
            let pi = s.parent.0 as usize;
            if pi >= self.spans.len() {
                return Err(format!(
                    "span {i} ({}) has dangling parent {pi} (only {} spans)",
                    s.name,
                    self.spans.len()
                ));
            }
            if pi >= i {
                return Err(format!(
                    "span {i} ({}) begins before its parent {pi}: cycle or misuse",
                    s.name
                ));
            }
            let p = &self.spans[pi];
            if s.start < p.start {
                return Err(format!(
                    "span {i} ({}) starts at {:?} before parent {pi} ({}) at {:?}",
                    s.name, s.start, p.name, p.start
                ));
            }
            if p.end != SimTime::MAX && s.end != SimTime::MAX && s.end > p.end {
                return Err(format!(
                    "span {i} ({}) ends at {:?} after parent {pi} ({}) at {:?}",
                    s.name, s.end, p.name, p.end
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parented_spans_round_trip() {
        let mut r = FlightRecorder::enabled(64);
        let t0 = SimTime::from_micros(1);
        let req = r.begin(t0, "read", "request", 0, 100, SpanId::NONE);
        let strip = r.begin(t0, "strip", "strip", 0, 100, req);
        r.set_arg(strip, "bytes", 65536);
        r.end(strip, SimTime::from_micros(5));
        r.end(req, SimTime::from_micros(6));
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.recorded(), 2);
        assert_eq!(r.dropped(), 0);
        let kids: Vec<_> = r.children(req).collect();
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].1.name, "strip");
        assert_eq!(kids[0].1.arg("bytes"), Some(65536));
        assert_eq!(kids[0].1.arg("missing"), None);
        assert_eq!(kids[0].1.duration(), sais_sim::SimDuration::from_micros(4));
        let roots: Vec<_> = r.roots().collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].1.name, "read");
    }

    #[test]
    fn open_span_has_zero_duration() {
        let mut r = FlightRecorder::enabled(4);
        let s = r.begin(SimTime::ZERO, "x", "c", 0, 0, SpanId::NONE);
        assert_eq!(
            r.spans()[s.0 as usize].duration(),
            sais_sim::SimDuration::ZERO
        );
    }

    #[test]
    fn capacity_bound_counts_drops() {
        let mut r = FlightRecorder::enabled(2);
        for _ in 0..5 {
            r.begin(SimTime::ZERO, "s", "c", 0, 0, SpanId::NONE);
        }
        assert_eq!(r.recorded(), 2);
        assert_eq!(r.dropped(), 3);
        assert_eq!(r.spans().len(), 2);
    }

    #[test]
    fn args_overflow_is_silent() {
        let mut r = FlightRecorder::enabled(4);
        let s = r.begin(SimTime::ZERO, "s", "c", 0, 0, SpanId::NONE);
        for (i, key) in ["a", "b", "c", "d", "e"].iter().enumerate() {
            r.set_arg(s, key, i as u64);
        }
        let span = &r.spans()[0];
        assert_eq!(span.arg("a"), Some(0));
        assert_eq!(span.arg("c"), Some(2));
        assert_eq!(span.arg("d"), None, "fourth arg dropped");
    }

    #[test]
    fn setting_a_key_twice_overwrites_it() {
        let mut r = FlightRecorder::enabled(4);
        let s = r.begin(SimTime::ZERO, "irq", "interrupt", 0, 0, SpanId::NONE);
        r.set_arg(s, "svc", 1);
        r.set_arg(s, "bytes", 2);
        r.set_arg(s, "svc", 3);
        r.end(s, SimTime::from_micros(1));
        let args = r.spans()[0].args;
        assert_eq!(args.iter().filter(|(k, _)| *k == "svc").count(), 1);
        assert_eq!(r.spans()[0].arg("svc"), Some(3));
        assert_eq!(r.spans()[0].arg("bytes"), Some(2));
        let stats = crate::perfetto::validate(&crate::perfetto::to_chrome_json(&r))
            .expect("the export holds no duplicate key");
        assert_eq!(stats.spans, 1);
    }

    #[test]
    fn disabled_recorder_never_allocates() {
        let mut r = FlightRecorder::disabled();
        for i in 0..1_000_000u64 {
            let t = SimTime::from_nanos(i);
            let id = r.begin(t, "hot", "path", 0, 0, SpanId::NONE);
            assert_eq!(id, SpanId::NONE);
            r.set_arg(id, "k", i);
            r.instant(t, "mark", 0, 0, i);
            r.end(id, t);
        }
        // The whole loop must not have touched the heap: the disabled path
        // is a branch on `enabled`, nothing more.
        assert_eq!(r.span_heap_capacity(), 0);
        assert_eq!(r.recorded(), 0);
        assert_eq!(r.dropped(), 0);
        assert!(r.spans().is_empty() && r.instants().is_empty());
    }

    #[test]
    fn track_names_last_write_wins() {
        let mut r = FlightRecorder::enabled(4);
        r.name_track(0, 3, "core 3");
        r.name_track(0, 3, "core three");
        r.name_track(1, 3, "other client");
        assert_eq!(r.track_names().len(), 2);
        assert_eq!(r.track_names()[0].2, "core three");
    }

    #[test]
    fn integrity_accepts_wellformed_trees() {
        let mut r = FlightRecorder::enabled(16);
        let t = SimTime::from_micros;
        let req = r.begin(t(0), "read", "request", 0, 100, SpanId::NONE);
        let strip = r.begin(t(0), "strip", "strip", 0, 100, req);
        let irq = r.begin(t(5), "irq", "interrupt", 0, 2, strip);
        r.end(irq, t(8));
        let copy = r.begin(t(8), "copy", "consume", 0, 1, strip);
        r.end(copy, t(20));
        r.end(strip, t(20));
        r.end(req, t(20));
        assert_eq!(r.check_integrity(), Ok(()));
        // Open spans are also fine: the recorder may be inspected mid-run.
        let mut open = FlightRecorder::enabled(4);
        let root = open.begin(t(1), "read", "request", 0, 100, SpanId::NONE);
        open.begin(t(2), "strip", "strip", 0, 100, root);
        assert_eq!(open.check_integrity(), Ok(()));
    }

    #[test]
    fn integrity_rejects_child_outside_parent() {
        let mut r = FlightRecorder::enabled(8);
        let t = SimTime::from_micros;
        let req = r.begin(t(10), "read", "request", 0, 100, SpanId::NONE);
        let strip = r.begin(t(10), "strip", "strip", 0, 100, req);
        r.end(strip, t(50));
        r.end(req, t(30)); // parent closes before its child
        let err = r.check_integrity().unwrap_err();
        assert!(err.contains("after parent"), "{err}");
    }

    #[test]
    fn integrity_rejects_child_starting_before_parent() {
        let mut r = FlightRecorder::enabled(8);
        let t = SimTime::from_micros;
        let req = r.begin(t(10), "read", "request", 0, 100, SpanId::NONE);
        let strip = r.begin(t(5), "strip", "strip", 0, 100, req);
        r.end(strip, t(20));
        r.end(req, t(20));
        let err = r.check_integrity().unwrap_err();
        assert!(err.contains("before parent"), "{err}");
    }

    #[test]
    fn integrity_rejects_backwards_span() {
        let mut r = FlightRecorder::enabled(4);
        let s = r.begin(SimTime::from_micros(10), "s", "c", 0, 0, SpanId::NONE);
        r.end(s, SimTime::from_micros(3));
        let err = r.check_integrity().unwrap_err();
        assert!(err.contains("before it starts"), "{err}");
    }
}
