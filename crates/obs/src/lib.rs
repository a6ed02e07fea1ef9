//! # sais-obs — the request flight recorder
//!
//! The paper's argument is a *latency-attribution* claim: it explains where
//! each data strip's time goes between the NIC interrupt, the handling core
//! and the consuming core. End-of-run aggregates (final bandwidth, final L2
//! miss rate) can show *that* SAIs wins; only a per-request, per-stage
//! timeline shows *why*. This crate is that diagnostic layer:
//!
//! * [`span::FlightRecorder`] — an allocation-light span recorder. The full
//!   request lifecycle (app issues read → PVFS fan-out → strip at NIC →
//!   interrupt → handler → consume) becomes structured spans with
//!   parent/child linkage (request → strip → interrupt/copy). When
//!   disabled, every record call is a single branch on one flag: no
//!   allocation, no formatting, nothing the optimizer must be trusted to
//!   remove — so the zero-copy fast paths keep their numbers.
//! * [`registry::MetricRegistry`] — a central registry of named, typed
//!   metrics (counters, gauges, histograms), snapshottable at any sim time
//!   and exportable as JSON or CSV.
//! * [`stages::StageHistograms`] — per-stage latency histograms
//!   (issue→first-interrupt, interrupt→handler, handler→consume,
//!   cache-migration stalls) that turn the paper's headline claim into an
//!   inspectable distribution.
//! * [`perfetto`] — a Chrome/Perfetto `trace_event` JSON exporter: open the
//!   file at <https://ui.perfetto.dev> and see one read request fan out to
//!   its strips, each strip's interrupts land on handler cores and the
//!   copies land on the consumer.
//! * [`analyze`] — trace analysis: critical-path blame attribution, policy
//!   trace diffs, per-core activity timelines and tail forensics, computed
//!   from a live recorder or from exported trace JSON.
//! * [`json`] — the crate's one JSON grammar (no external dependency): a
//!   direct-descent cursor that the trace validator reads events with and
//!   that [`json::JsonValue::parse`] builds document trees on, the string
//!   and integer writers the trace exporter and metric snapshot share, and
//!   a canonical serializer.
//! * [`progress`] — host-side progress reporting for long parallel sweeps.
//! * [`detect`] — streaming detectors over the telemetry plane's closed
//!   windows: queue saturation, steering livelock (degrade/re-promote
//!   flapping) and sustained tail burn, surfaced as typed
//!   [`detect::TelemetryVerdict`]s.

pub mod analyze;
pub mod detect;
pub mod json;
pub mod perfetto;
pub mod progress;
pub mod registry;
pub mod span;
pub mod stages;

pub use detect::{evaluate, DetectorConfig, DetectorState, TelemetryVerdict, WindowStats};
pub use progress::ProgressMeter;
pub use registry::{MetricRegistry, MetricSnapshot};
pub use span::{FlightRecorder, SpanId};
pub use stages::{Stage, StageHistograms, STAGES};
