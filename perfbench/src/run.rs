//! Running one job, untraced or traced, and checking what it produced.
//!
//! Both paths call the same public API in the same order —
//! `Cluster::new`, `Engine` over `Model for Cluster`,
//! `Cluster::collect_metrics`, the metrics snapshot, and for observed runs
//! `perfetto::{to_chrome_json, validate}` — and differ only in the
//! [`Tracer`] they are instantiated with. [`Off`] compiles to nothing;
//! [`Trace`] times each layer boundary and wraps the model in [`Timed`],
//! which times every `Cluster::handle` call per event kind.
//!
//! Simulated caches start empty in every run: each run builds a fresh
//! `Cluster` (or `MemSim`), so no modelled cache state carries over from
//! one run to the next.

use crate::grid::{Job, Sim};
use sais_core::cluster::{Cluster, Ev};
use sais_core::scenario::{IoDirection, PolicyChoice, RunMetrics, ScenarioConfig};
use sais_obs::perfetto;
use sais_sim::{Engine, Model, Scheduler, SimTime};
use std::time::Instant;

/// Event kinds the traced run attributes handler time to. `Ev::Start`
/// (once per run: open the file, schedule the first reads) is counted
/// under `issue`.
pub const KINDS: [&str; 7] = [
    "issue",
    "strip_at_nic",
    "hard_irq",
    "batch_ready",
    "strip_copied",
    "write_ack",
    "compute_done",
];

fn kind(ev: &Ev) -> usize {
    match ev {
        Ev::Start | Ev::Issue { .. } => 0,
        Ev::StripAtNic { .. } => 1,
        Ev::HardIrq { .. } => 2,
        Ev::BatchReady { .. } => 3,
        Ev::StripCopied { .. } => 4,
        Ev::WriteAck { .. } => 5,
        Ev::ComputeDone { .. } => 6,
    }
}

/// The layer boundaries the traced run records spans at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Cluster::new`.
    ClusterNew,
    /// `Engine::run_to_quiescence` (encloses every handler call).
    Engine,
    /// `Cluster::collect_metrics`.
    Collect,
    /// Metrics snapshot rendered as JSON.
    Emit,
    /// Perfetto export and validation.
    Export,
    /// `MemSimConfig::run`.
    MemSim,
}

/// Number of [`Span`] variants.
pub const SPANS: usize = 6;

/// Host-side engine counters of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Events dispatched.
    pub events: u64,
    /// Same-timestamp dispatch batches.
    pub batches: u64,
    /// Events that took the timing wheel's overflow path.
    pub cascades: u64,
    /// Peak pending events.
    pub queue_high_water: u64,
}

/// Instrumentation strategy: [`Off`] for timed runs, [`Trace`] for the
/// traced run.
pub trait Tracer {
    /// Run `f` as the span `s`.
    fn span<T>(&mut self, s: Span, f: impl FnOnce() -> T) -> T;
    /// Drive `cluster` to quiescence; return it with the final sim time.
    fn run_engine(
        &mut self,
        cluster: Cluster,
        capacity: usize,
        budget: u64,
    ) -> (Cluster, SimTime, EngineStats);
}

fn engine_stats<M: Model>(engine: &Engine<M>) -> EngineStats {
    EngineStats {
        events: engine.dispatched(),
        batches: engine.dispatch_batches(),
        cascades: engine.queue_cascades(),
        queue_high_water: engine.queue_high_water() as u64,
    }
}

/// No instrumentation.
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn span<T>(&mut self, _: Span, f: impl FnOnce() -> T) -> T {
        f()
    }

    fn run_engine(
        &mut self,
        cluster: Cluster,
        capacity: usize,
        budget: u64,
    ) -> (Cluster, SimTime, EngineStats) {
        let mut engine = Engine::with_capacity(cluster, capacity);
        engine.prime(SimTime::ZERO, Ev::Start);
        engine.run_to_quiescence(budget);
        let (now, stats) = (engine.now(), engine_stats(&engine));
        (engine.into_model(), now, stats)
    }
}

/// Outside-in spans: host nanoseconds per layer boundary and per event
/// kind, summed over every run traced with it.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Nanoseconds inside each [`Span`].
    pub span_ns: [u64; SPANS],
    /// Nanoseconds inside `Cluster::handle`, per [`KINDS`] entry.
    pub handler_ns: [u64; 7],
    /// Handler calls per [`KINDS`] entry.
    pub handler_calls: [u64; 7],
}

/// A delegating model that times each `Cluster::handle` call. It keeps
/// the default `handle_batch` (a loop over `handle`), which is what
/// `Cluster` itself uses, so dispatch order and every simulated result
/// are unchanged.
pub struct Timed {
    /// The wrapped model.
    pub cluster: Cluster,
    ns: [u64; 7],
    calls: [u64; 7],
}

impl Timed {
    /// Wrap `cluster` with zeroed counters.
    pub fn new(cluster: Cluster) -> Self {
        Timed {
            cluster,
            ns: [0; 7],
            calls: [0; 7],
        }
    }
}

impl Model for Timed {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        let k = kind(&event);
        let t0 = Instant::now();
        self.cluster.handle(event, sched);
        self.ns[k] += t0.elapsed().as_nanos() as u64;
        self.calls[k] += 1;
    }
}

impl Tracer for Trace {
    fn span<T>(&mut self, s: Span, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.span_ns[s as usize] += t0.elapsed().as_nanos() as u64;
        out
    }

    fn run_engine(
        &mut self,
        cluster: Cluster,
        capacity: usize,
        budget: u64,
    ) -> (Cluster, SimTime, EngineStats) {
        let t0 = Instant::now();
        let mut engine = Engine::with_capacity(Timed::new(cluster), capacity);
        engine.prime(SimTime::ZERO, Ev::Start);
        engine.run_to_quiescence(budget);
        let (now, stats) = (engine.now(), engine_stats(&engine));
        let timed = engine.into_model();
        self.span_ns[Span::Engine as usize] += t0.elapsed().as_nanos() as u64;
        for k in 0..KINDS.len() {
            self.handler_ns[k] += timed.ns[k];
            self.handler_calls[k] += timed.calls[k];
        }
        (timed.cluster, now, stats)
    }
}

/// Pending-event estimate used to pre-size the queue; mirrors the sizing
/// `ScenarioConfig::run_full` uses.
fn event_capacity(cfg: &ScenarioConfig) -> usize {
    let mss = cfg.mtu.saturating_sub(40).max(1);
    let batches_per_strip = cfg.strip_size.div_ceil(mss * cfg.coalesce_frames.max(1)) + 2;
    let per_client = cfg.servers as u64 * batches_per_strip + cfg.procs_per_client as u64;
    (cfg.clients as u64 * per_client + 64).min(1 << 22) as usize
}

/// Runaway-loop backstop; mirrors `ScenarioConfig::run_full`.
fn event_budget(cfg: &ScenarioConfig) -> u64 {
    let strips = cfg.total_bytes() / cfg.strip_size.min(cfg.transfer_size) + 16;
    strips.saturating_mul(64 * 4) + 1_000_000
}

/// What a cluster run left behind for checking.
pub struct Finished {
    metrics: RunMetrics,
    cluster: Cluster,
    engine: EngineStats,
    snapshot_bytes: usize,
    trace: Option<Result<perfetto::TraceStats, String>>,
}

impl Finished {
    /// The run's metrics as `Cluster::collect_metrics` returned them.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }
}

/// What a run left behind: a cluster run's state, or an in-memory run's
/// metrics.
pub enum Output {
    /// A cluster run.
    Cluster(Box<Finished>),
    /// An in-memory run.
    InMem(sais_core::memsim::MemSimMetrics),
}

/// A job's simulation, built and ready to run.
pub enum Prepared {
    /// The cluster, built by `Cluster::new`.
    Cluster(Box<Cluster>),
    /// Nothing to build: `MemSimConfig::run` constructs its model itself.
    InMem,
}

/// Build the job's `Cluster` (the `Cluster::new` span). This is set-up,
/// outside a run's timed interval.
pub fn prepare<T: Tracer>(job: &Job, tr: &mut T) -> Prepared {
    match &job.sim {
        Sim::Cluster(cfg) => Prepared::Cluster(Box::new(tr.span(Span::ClusterNew, || {
            Cluster::new(ScenarioConfig::clone(cfg))
        }))),
        Sim::InMem(_) => Prepared::InMem,
    }
}

/// Run a prepared job to completion and produce its reports. This is the
/// part a run's timed interval covers.
pub fn execute<T: Tracer>(job: &Job, prepared: Prepared, tr: &mut T) -> Output {
    match (&job.sim, prepared) {
        (Sim::Cluster(cfg), Prepared::Cluster(cluster)) => {
            let (mut cluster, now, engine) =
                tr.run_engine(*cluster, event_capacity(cfg), event_budget(cfg));
            cluster.finish_telemetry();
            let metrics = tr.span(Span::Collect, || cluster.collect_metrics(now));
            let snapshot_bytes =
                tr.span(Span::Emit, || cluster.snapshot_metrics(now).to_json().len());
            let trace = cfg.obs.spans.then(|| {
                tr.span(Span::Export, || {
                    perfetto::validate(&perfetto::to_chrome_json(cluster.recorder()))
                })
            });
            Output::Cluster(Box::new(Finished {
                metrics,
                cluster,
                engine,
                snapshot_bytes,
                trace,
            }))
        }
        (Sim::InMem(cfg), Prepared::InMem) => {
            Output::InMem(tr.span(Span::MemSim, || cfg.clone().run()))
        }
        _ => unreachable!("a job is prepared as its own kind"),
    }
}

/// Deterministic per-layer counts of one or more runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Cluster runs counted.
    pub cluster_runs: u64,
    /// Engine events dispatched.
    pub events: u64,
    /// Dispatch batches.
    pub batches: u64,
    /// Timing-wheel cascades.
    pub cascades: u64,
    /// Largest queue high-water mark of any run.
    pub queue_high_water: u64,
    /// L2 accesses.
    pub mem_accesses: u64,
    /// L2 misses.
    pub mem_misses: u64,
    /// Cache-to-cache lines.
    pub mem_c2c_lines: u64,
    /// DRAM line fetches.
    pub mem_dram_fetches: u64,
    /// `ExtentStats` fields, in declaration order.
    pub mem_extent: [u64; 6],
    /// TCP retransmissions.
    pub net_retransmits: u64,
    /// TCP timeouts.
    pub net_timeouts: u64,
    /// Hint parse errors.
    pub net_parse_errors: u64,
    /// Batches whose SAIs option a middlebox stripped.
    pub net_stripped_options: u64,
    /// Hardirqs delivered.
    pub apic_interrupts: u64,
    /// Hardirqs steered by a hint.
    pub apic_hinted: u64,
    /// Degradation episodes started.
    pub apic_degrades: u64,
    /// Degradation episodes ended by re-promotion.
    pub apic_repromotes: u64,
    /// Flows still degraded at run end.
    pub apic_degraded_flows: u64,
    /// Strips consumed away from their handler core.
    pub strip_migrations: u64,
    /// Sum of per-run mean CPU utilization.
    pub cpu_utilization_sum: f64,
    /// Flight-recorder spans recorded.
    pub obs_spans: u64,
    /// Flight-recorder spans dropped at capacity.
    pub obs_span_drops: u64,
    /// Telemetry windows opened.
    pub obs_window_rotations: u64,
}

impl Counts {
    /// Lines `MemorySystem::touch` classified, fast path or not.
    pub fn mem_lines_touched(&self) -> u64 {
        let [hit_g, c2c_g, fill_g, partial, masked, fallback] = self.mem_extent;
        (hit_g + c2c_g + fill_g) * 64 + partial + masked + fallback
    }

    fn add(&mut self, o: &Counts) {
        self.cluster_runs += o.cluster_runs;
        self.events += o.events;
        self.batches += o.batches;
        self.cascades += o.cascades;
        self.queue_high_water = self.queue_high_water.max(o.queue_high_water);
        self.mem_accesses += o.mem_accesses;
        self.mem_misses += o.mem_misses;
        self.mem_c2c_lines += o.mem_c2c_lines;
        self.mem_dram_fetches += o.mem_dram_fetches;
        for (a, b) in self.mem_extent.iter_mut().zip(o.mem_extent) {
            *a += b;
        }
        self.net_retransmits += o.net_retransmits;
        self.net_timeouts += o.net_timeouts;
        self.net_parse_errors += o.net_parse_errors;
        self.net_stripped_options += o.net_stripped_options;
        self.apic_interrupts += o.apic_interrupts;
        self.apic_hinted += o.apic_hinted;
        self.apic_degrades += o.apic_degrades;
        self.apic_repromotes += o.apic_repromotes;
        self.apic_degraded_flows += o.apic_degraded_flows;
        self.strip_migrations += o.strip_migrations;
        self.cpu_utilization_sum += o.cpu_utilization_sum;
        self.obs_spans += o.obs_spans;
        self.obs_span_drops += o.obs_span_drops;
        self.obs_window_rotations += o.obs_window_rotations;
    }
}

/// The checked result of one run.
#[derive(Debug, Clone)]
pub struct Assessed {
    /// FNV-1a digest of every deterministic simulated statistic.
    pub digest: u64,
    /// Simulated delivered bandwidth, bytes/s.
    pub bandwidth: f64,
    /// The first output check that failed, if any.
    pub failure: Option<String>,
    /// Per-layer counts.
    pub counts: Counts,
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Fold a float in by its bits.
    pub fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

/// Digest of every simulated statistic in `m`. Host-side accounting
/// (events dispatched, queue and slab high-water marks, batching) is left
/// out: a change that only speeds up the simulator must leave this value
/// unchanged.
pub fn metrics_digest(m: &RunMetrics) -> u64 {
    let mut d = Digest::default();
    d.word(m.policy as u64);
    d.word(m.wall_time.as_nanos());
    for v in [
        m.bytes_delivered,
        m.requests_completed,
        m.strips_delivered,
        m.strip_migrations,
        m.c2c_lines,
        m.l2_accesses,
        m.l2_misses,
        m.unhalted_cycles,
        m.interrupts,
        m.retransmits,
        m.tcp_timeouts,
        m.parse_errors,
        m.fcs_drops,
        m.tcp_duplicates,
        m.delayed_irqs,
        m.coalesced_merges,
        m.stripped_options,
        m.degraded_flows,
        m.steering_degrades,
        m.steering_repromotes,
        m.hinted_interrupts,
        m.clamped_interrupts,
        m.process_migrations,
        m.window_rotations,
        m.detector_evals,
        m.telemetry_verdicts.len() as u64,
    ] {
        d.word(v);
    }
    d.float(m.l2_miss_rate);
    d.float(m.cpu_utilization);
    for &v in &m.irq_distribution {
        d.word(v);
    }
    for &v in &m.per_client_bw {
        d.float(v);
    }
    let h = &m.request_latency;
    d.word(h.count());
    d.word(h.sum() as u64);
    d.word(h.min());
    d.word(h.max());
    for q in [0.5, 0.9, 0.99] {
        d.word(h.quantile(q));
    }
    for stage in sais_obs::STAGES {
        if let Some(h) = m.stages.get(stage) {
            d.word(h.count());
            d.word(h.sum() as u64);
        }
    }
    d.0
}

/// Requests a run must complete: each process reads its share in
/// `transfer_size` pieces, the last one possibly short.
fn expected_requests(cfg: &ScenarioConfig) -> u64 {
    cfg.bytes_per_proc().div_ceil(cfg.transfer_size)
        * cfg.procs_per_client as u64
        * cfg.clients as u64
}

/// Check a run's outputs, fold its digest and extract its counts. Not
/// part of the timed interval.
pub fn assess(job: &Job, out: &Output) -> Assessed {
    match (&job.sim, out) {
        (Sim::Cluster(cfg), Output::Cluster(f)) => assess_cluster(cfg, f),
        (Sim::InMem(cfg), Output::InMem(m)) => {
            let mut d = Digest::default();
            d.float(m.bandwidth);
            d.float(m.cpu_utilization);
            d.float(m.l2_miss_rate);
            d.word(m.c2c_lines);
            d.word(m.wall.as_nanos());
            let want = cfg.bytes_per_app as f64 * cfg.apps as f64;
            let got = m.bandwidth * m.wall.as_secs_f64();
            let failure = if (got - want).abs() > 1e-6 * want {
                Some(format!(
                    "in-memory run moved {got} bytes, configured {want}"
                ))
            } else {
                None
            };
            Assessed {
                digest: d.0,
                bandwidth: m.bandwidth,
                failure,
                counts: Counts::default(),
            }
        }
        _ => unreachable!("a job's output has the job's kind"),
    }
}

fn assess_cluster(cfg: &ScenarioConfig, f: &Finished) -> Assessed {
    let m = &f.metrics;
    let mut d = Digest(metrics_digest(m));
    let mut failure = None;
    let mut fail = |msg: String| {
        failure.get_or_insert(msg);
    };
    if m.bytes_delivered != cfg.total_bytes() {
        fail(format!(
            "delivered {} bytes, configured {}",
            m.bytes_delivered,
            cfg.total_bytes()
        ));
    }
    if m.requests_completed != expected_requests(cfg) {
        fail(format!(
            "completed {} requests, configured {}",
            m.requests_completed,
            expected_requests(cfg)
        ));
    }
    if m.steering_degrades.checked_sub(m.steering_repromotes) != Some(m.degraded_flows) {
        fail(format!(
            "steering churn: {} degrades - {} re-promotes != {} degraded flows",
            m.steering_degrades, m.steering_repromotes, m.degraded_flows
        ));
    }
    // Writes take their interrupts for acknowledgements, which carry no
    // data and no hint, so the clean-SAIs invariants are read-path ones.
    if cfg.policy == PolicyChoice::SourceAware
        && cfg.faults.is_none()
        && cfg.direction == IoDirection::Read
    {
        if m.strip_migrations != 0 {
            fail(format!(
                "clean SAIs run migrated {} strips",
                m.strip_migrations
            ));
        }
        if m.hinted_interrupts != m.interrupts {
            fail(format!(
                "clean SAIs run hinted {} of {} interrupts",
                m.hinted_interrupts, m.interrupts
            ));
        }
    }
    let rec = f.cluster.recorder();
    match &f.trace {
        Some(Ok(stats)) if stats.spans != rec.spans().len() => fail(format!(
            "exported trace has {} spans, recorder {}",
            stats.spans,
            rec.spans().len()
        )),
        Some(Err(e)) => fail(format!("exported trace invalid: {e}")),
        _ => {}
    }
    if f.snapshot_bytes == 0 {
        fail("empty metrics snapshot".into());
    }
    if rec.is_enabled() {
        d.word(rec.recorded());
        d.word(rec.dropped());
    }
    let mut counts = Counts {
        cluster_runs: 1,
        events: f.engine.events,
        batches: f.engine.batches,
        cascades: f.engine.cascades,
        queue_high_water: f.engine.queue_high_water,
        mem_accesses: m.l2_accesses,
        mem_misses: m.l2_misses,
        mem_c2c_lines: m.c2c_lines,
        net_retransmits: m.retransmits,
        net_timeouts: m.tcp_timeouts,
        net_parse_errors: m.parse_errors,
        net_stripped_options: m.stripped_options,
        apic_interrupts: m.interrupts,
        apic_hinted: m.hinted_interrupts,
        apic_degrades: m.steering_degrades,
        apic_repromotes: m.steering_repromotes,
        apic_degraded_flows: m.degraded_flows,
        strip_migrations: m.strip_migrations,
        cpu_utilization_sum: m.cpu_utilization,
        obs_spans: rec.recorded(),
        obs_span_drops: rec.dropped(),
        obs_window_rotations: m.window_rotations,
        ..Counts::default()
    };
    for cl in &f.cluster.clients {
        counts.mem_dram_fetches += cl.mem.dram_fetches();
        let e = cl.mem.extent_stats();
        let fields = [
            e.whole_hit_groups,
            e.whole_c2c_groups,
            e.whole_fill_groups,
            e.partial_hit_lines,
            e.masked_fill_lines,
            e.fallback_lines,
        ];
        for (a, b) in counts.mem_extent.iter_mut().zip(fields) {
            *a += b;
        }
    }
    d.word(counts.mem_dram_fetches);
    Assessed {
        digest: d.0,
        bandwidth: m.bandwidth_bytes_per_sec(),
        failure,
        counts,
    }
}

/// The checked results of one pass over a workload's jobs.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Per-run results, in job order.
    pub runs: Vec<Assessed>,
    /// Host nanoseconds of each run's timed interval, in job order.
    pub run_ns: Vec<u64>,
}

impl Pass {
    /// Digest of the whole pass: every run's digest in job order.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for r in &self.runs {
            d.word(r.digest);
        }
        d.0
    }

    /// Runs whose output checks failed.
    pub fn failed(&self) -> usize {
        self.runs.iter().filter(|r| r.failure.is_some()).count()
    }

    /// Per-layer counts summed over the pass.
    pub fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for r in &self.runs {
            c.add(&r.counts);
        }
        c
    }

    /// Sum of the timed intervals, in seconds.
    pub fn wall_s(&self) -> f64 {
        self.run_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// One pass over `jobs`. Each run's `Cluster` is built first, then the
/// run itself is timed; checks run after the clock stops. With [`Off`]
/// this is a timed pass; with a [`Trace`] the same intervals are timed
/// and the trace collects the spans inside and around them.
pub fn run_pass<T: Tracer>(jobs: &[Job], tr: &mut T) -> Pass {
    let mut pass = Pass::default();
    for job in jobs {
        let prepared = prepare(job, tr);
        let t0 = Instant::now();
        let out = execute(job, prepared, tr);
        pass.run_ns.push(t0.elapsed().as_nanos() as u64);
        pass.runs.push(assess(job, &out));
    }
    pass
}
