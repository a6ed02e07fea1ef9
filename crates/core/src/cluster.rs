//! The full-system discrete-event model: client node(s) + PVFS deployment.
//!
//! One event per meaningful hardware/software step, mirroring Fig. 3 of the
//! paper:
//!
//! ```text
//! Issue ──request+hint──▶ I/O servers ──strips──▶ StripAtNic
//!   StripAtNic ──coalesced batches──▶ HardIrq (SrcParser + IMComposer
//!     pick the core) ──softirq fill on handler core──▶ BatchReady
//!   BatchReady(last) ──copy to user on consumer core──▶ StripCopied
//!   StripCopied(last of read) ──compute phase──▶ ComputeDone ──▶ Issue…
//! ```
//!
//! Every cache touch goes through the [`sais_mem::MemorySystem`], so
//! cache-to-cache strip migration is *observed*, not assumed; every unit of
//! CPU work runs on a [`sais_cpu::CpuCore`], so utilization and
//! `CPU_CLK_UNHALTED` fall out of the same bookkeeping.

use crate::components::{HintCapsuler, HintMessager, IMComposer, SrcParser};
use crate::protocol;
use crate::scenario::{IoDirection, RunMetrics, ScenarioConfig};
use crate::slab::{Slab, SlabRef};
use crate::telemetry::TelemetrySampler;
use sais_apic::IoApic;
use sais_cpu::{CpuCore, CpuReport, LoadTracker, Process, WakePlacement, WorkClass};
use sais_mem::fxmap::FxHashMap;
use sais_mem::{AddrAlloc, AddrRange, MemorySystem};
use sais_net::{
    simulate_transfer, CoalesceParams, EthernetFrame, FlowId, NicBond, PipeFaults, PodFrame,
    SegmentPlan,
};
use sais_obs::{FlightRecorder, MetricRegistry, MetricSnapshot, SpanId, Stage, StageHistograms};
use sais_pvfs::{HintList, IoServer, MetadataServer, ReadTracker, StripeLayout};
use sais_sim::{Model, RateResource, Scheduler, SimDuration, SimRng, SimTime};

/// Synthetic `tid` base for per-process request lanes in exported traces
/// (core tracks use the core index directly; `validate()` caps cores at 32,
/// so the lanes can never collide).
const REQ_LANE: u32 = 100;

/// The event alphabet of the cluster model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// Kick-off: open files and start every process.
    Start,
    /// Process `proc` on client `client` issues its next read.
    Issue {
        /// Client node index.
        client: u32,
        /// Process index within the client.
        proc: u32,
    },
    /// A strip's response stream reaches the client NIC.
    StripAtNic {
        /// Dense handle into the strip slab.
        strip: SlabRef,
    },
    /// The NIC raises a coalesced interrupt for part of a strip.
    HardIrq {
        /// Dense handle into the strip slab.
        strip: SlabRef,
        /// Frames covered by this interrupt.
        frames: u64,
        /// Payload bytes covered.
        bytes: u64,
    },
    /// Softirq processing of one batch finished on the handler core.
    BatchReady {
        /// Dense handle into the strip slab.
        strip: SlabRef,
    },
    /// The strip has been copied into the application buffer.
    StripCopied {
        /// Dense handle into the strip slab.
        strip: SlabRef,
    },
    /// A write acknowledgement for one strip reached the client.
    WriteAck {
        /// Dense handle into the strip slab.
        strip: SlabRef,
    },
    /// The application's compute phase over one read finished.
    ComputeDone {
        /// Client node index.
        client: u32,
        /// Process index within the client.
        proc: u32,
    },
}

/// Per-process runtime state.
struct ProcRt {
    proc: Process,
    user_buf: AddrRange,
    next_offset: u64,
    end_offset: u64,
}

/// Per-read bookkeeping. Lives in a [`Slab`]; events reach it through a
/// [`SlabRef`] carried by the strip state.
struct ReadState {
    /// Monotonic instance id — the key the [`ReadTracker`], flight
    /// recorder and debug oracle still speak.
    id: u64,
    proc: u32,
    bytes: u64,
    issued: SimTime,
    /// Flight-recorder span covering the whole request (`NONE` when
    /// recording is off).
    span: SpanId,
    /// Whether the request's first hardirq has been attributed (for the
    /// `IssueToFirstIrq` stage).
    first_irq_seen: bool,
}

/// Per-strip bookkeeping. Lives in a [`Slab`]; every strip event carries
/// the [`SlabRef`], so the hot path resolves state with one indexed load
/// instead of a hash probe.
struct StripState {
    /// Monotonic instance id (frame ident, debug oracle).
    id: u64,
    client: u32,
    /// Handle to the owning read's [`ReadState`].
    read: SlabRef,
    strip_no: u64,
    bytes: u64,
    kbuf: AddrRange,
    user_range: AddrRange,
    /// The strip's segmentation, resolved once at issue time so the NIC
    /// arrival path never consults the plan cache.
    plan: SegmentPlan,
    /// The strip's first wire frame as plain old data; the exact bytes are
    /// materialized on demand (fault injection, verification) only.
    pod: PodFrame,
    flow: FlowId,
    /// Interrupt fan-in completion state, armed when the strip reaches the
    /// NIC and its batch schedule is fixed. The exactly-once completion
    /// edge lives in [`protocol::BatchProgress`], shared with the model
    /// checker.
    progress: protocol::BatchProgress,
    chunk_off: u64,
    /// Flight-recorder span covering this strip's fan-out lifetime.
    span: SpanId,
}

/// Debug-build oracle for slab-indexed state: mirrors every live slab
/// entry in the old id-keyed hash map and asserts, at each hot-path
/// lookup, that the dense ref and the map agree. Compiles to a zero-sized
/// no-op in release builds, so the hot path keeps zero hashing.
struct SlabOracle {
    #[cfg(debug_assertions)]
    by_id: FxHashMap<u64, SlabRef>,
}

impl SlabOracle {
    fn new() -> Self {
        SlabOracle {
            #[cfg(debug_assertions)]
            by_id: FxHashMap::default(),
        }
    }

    #[inline]
    fn insert(&mut self, _id: u64, _r: SlabRef) {
        #[cfg(debug_assertions)]
        assert!(
            self.by_id.insert(_id, _r).is_none(),
            "slab oracle: duplicate id {_id}"
        );
    }

    /// Assert that resolving `_id` through the map lands on `_r`.
    #[inline]
    fn check(&self, _id: u64, _r: SlabRef) {
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.by_id.get(&_id),
            Some(&_r),
            "slab/map divergence for id {_id}"
        );
    }

    #[inline]
    fn remove(&mut self, _id: u64, _r: SlabRef) {
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.by_id.remove(&_id),
            Some(_r),
            "slab oracle: removing unknown id {_id}"
        );
    }
}

/// One client node: cores, caches, NIC, APIC, SAIs components, processes.
pub struct ClientNode {
    /// The node's cores.
    pub cores: Vec<CpuCore>,
    loads: LoadTracker,
    /// The node's cache hierarchy.
    pub mem: MemorySystem,
    alloc: AddrAlloc,
    nic: NicBond,
    nic_tx: RateResource,
    /// The node's I/O APIC (with per-core LAPIC stats).
    pub ioapic: IoApic,
    composer: IMComposer,
    /// The NIC driver's source parser.
    pub parser: SrcParser,
    messager: HintMessager,
    procs: Vec<ProcRt>,
    tracker: ReadTracker,
    place: WakePlacement,
    active_procs: usize,
    bytes_done: u64,
    strips_done: u64,
    migrated_strips: u64,
    fcs_drops: u64,
    latency: sais_metrics::Histogram,
    t_done: SimTime,
    ip: u32,
    /// Per-server RSS flow ids, precomputed once: the Toeplitz hash is a
    /// pure function of (server_ip, client_ip, fixed ports), so there is
    /// no reason to rehash per strip.
    flows: Vec<FlowId>,
}

/// The whole simulated deployment.
pub struct Cluster {
    cfg: ScenarioConfig,
    /// Client nodes.
    pub clients: Vec<ClientNode>,
    servers: Vec<IoServer>,
    meta: MetadataServer,
    capsuler: HintCapsuler,
    layout: StripeLayout,
    rng: SimRng,
    /// In-flight reads, slab-indexed (see [`ReadState`]).
    reads: Slab<ReadState>,
    /// In-flight strips, slab-indexed (see [`StripState`]).
    strips: Slab<StripState>,
    read_oracle: SlabOracle,
    strip_oracle: SlabOracle,
    /// Memoized segmentation plans keyed by (strip bytes, hinted): strips
    /// are near-uniform in size, so the float math in
    /// `SegmentPlan::streaming` runs a handful of times per run instead of
    /// once per strip (the NIC-arrival side reads the plan straight from
    /// [`StripState::plan`]).
    plan_cache: FxHashMap<(u64, bool), SegmentPlan>,
    next_read: u64,
    next_strip: u64,
    /// The fault stream: seeded from `cfg.faults.seed`, never from the
    /// simulation seed, and drawn from **only** when a fault probability is
    /// nonzero — so `FaultPlan::none()` leaves the clean path bit-identical.
    fault_rng: SimRng,
    /// Memoized clean-pipe TCP transfer times keyed by segment count, the
    /// baseline the faulty transport's excess delay is measured against.
    lossless_tcp: FxHashMap<u64, SimDuration>,
    retransmits: u64,
    tcp_timeouts: u64,
    tcp_duplicates: u64,
    delayed_irqs: u64,
    coalesced_merges: u64,
    stripped_options: u64,
    requests_completed: u64,
    clients_done: usize,
    t_last_done: SimTime,
    /// End-to-end span recorder (disabled unless `cfg.obs.spans`). Lives on
    /// the cluster, not per client: `pid` distinguishes clients in exports.
    recorder: FlightRecorder,
    /// Per-stage latency histograms (disabled unless `cfg.obs.stages`).
    stages: StageHistograms,
    /// Windowed time-series sampler (disabled unless `cfg.obs.timeseries`;
    /// the disabled state owns no heap and costs one branch per hook).
    telemetry: TelemetrySampler,
}

impl Cluster {
    /// Build the deployment described by `cfg`.
    pub fn new(cfg: ScenarioConfig) -> Self {
        assert!(cfg.clients >= 1 && cfg.procs_per_client >= 1 && cfg.servers >= 1);
        assert!(cfg.transfer_size > 0 && cfg.file_size >= cfg.transfer_size);
        let mut rng = SimRng::new(cfg.seed);
        let layout = StripeLayout::new(cfg.strip_size, cfg.servers);
        let mut servers: Vec<IoServer> = (0..cfg.servers)
            .map(|i| IoServer::new(i, cfg.server.clone(), rng.split(i as u64 + 1)))
            .collect();
        for &(idx, factor) in &cfg.faults.stragglers {
            servers[idx].set_slowdown(factor);
        }
        let mut meta = MetadataServer::new(layout);
        meta.create("/ior.dat", cfg.file_size);
        let clients = (0..cfg.clients)
            .map(|c| ClientNode::new(&cfg, c as u32))
            .collect();
        let mut recorder = if cfg.obs.spans {
            FlightRecorder::enabled(cfg.obs.span_capacity)
        } else {
            FlightRecorder::disabled()
        };
        if recorder.is_enabled() {
            for c in 0..cfg.clients as u32 {
                for core in 0..cfg.cpu.cores as u32 {
                    recorder.name_track(c, core, format!("core {core}"));
                }
                for p in 0..cfg.procs_per_client as u32 {
                    recorder.name_track(c, REQ_LANE + p, format!("proc {p} requests"));
                }
            }
        }
        let stages = if cfg.obs.stages {
            StageHistograms::enabled()
        } else {
            StageHistograms::disabled()
        };
        let fault_rng = SimRng::new(cfg.faults.seed);
        let telemetry = if cfg.obs.timeseries {
            TelemetrySampler::enabled(cfg.obs.window_ns, cfg.obs.window_capacity)
        } else {
            TelemetrySampler::disabled()
        };
        Cluster {
            cfg,
            clients,
            servers,
            meta,
            capsuler: HintCapsuler::new(),
            layout,
            rng,
            reads: Slab::with_capacity(64),
            strips: Slab::with_capacity(256),
            read_oracle: SlabOracle::new(),
            strip_oracle: SlabOracle::new(),
            plan_cache: FxHashMap::default(),
            next_read: 0,
            next_strip: 0,
            fault_rng,
            lossless_tcp: FxHashMap::default(),
            retransmits: 0,
            tcp_timeouts: 0,
            tcp_duplicates: 0,
            delayed_irqs: 0,
            coalesced_merges: 0,
            stripped_options: 0,
            requests_completed: 0,
            clients_done: 0,
            t_last_done: SimTime::ZERO,
            recorder,
            stages,
            telemetry,
        }
    }

    /// The run's flight recorder (empty/disabled unless `obs.spans`).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The run's stage histograms (disabled unless `obs.stages`).
    pub fn stages(&self) -> &StageHistograms {
        &self.stages
    }

    /// The run's windowed telemetry sampler (disabled unless
    /// `obs.timeseries`).
    pub fn telemetry(&self) -> &TelemetrySampler {
        &self.telemetry
    }

    /// Cluster-wide cumulative totals the telemetry sweep attributes to
    /// closing windows: `(degrades, repromotes, fault events, currently
    /// degraded flows)`.
    fn telemetry_totals(&self) -> (u64, u64, u64, u64) {
        let mut degrades = 0;
        let mut repromotes = 0;
        let mut degraded = 0;
        let mut parse_errors = 0;
        let mut fcs_drops = 0;
        for cl in &self.clients {
            let (d, r) = cl.composer.policy().steering_churn();
            degrades += d;
            repromotes += r;
            degraded += cl.composer.policy().degraded_flows();
            parse_errors += cl.parser.parse_errors.get();
            fcs_drops += cl.fcs_drops;
        }
        let faults = self.retransmits
            + self.tcp_timeouts
            + self.tcp_duplicates
            + self.delayed_irqs
            + self.coalesced_merges
            + self.stripped_options
            + parse_errors
            + fcs_drops;
        (degrades, repromotes, faults, degraded)
    }

    /// Close telemetry windows `now` has moved past (no-op unless the
    /// sampler is on and the virtual clock crossed a window boundary).
    fn telemetry_rotate(&mut self, now: SimTime) {
        if !self.telemetry.needs_rotation(now.as_nanos()) {
            return;
        }
        let (degrades, repromotes, faults, degraded) = self.telemetry_totals();
        self.telemetry
            .rotate(now.as_nanos(), degrades, repromotes, faults, degraded);
    }

    /// Close the final telemetry window with the end-of-run totals. Call
    /// once after the engine quiesces, before [`Cluster::collect_metrics`].
    pub fn finish_telemetry(&mut self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let (degrades, repromotes, faults, degraded) = self.telemetry_totals();
        self.telemetry
            .finish(degrades, repromotes, faults, degraded);
    }

    /// Whether the configured policy carries the SAIs hint end-to-end.
    fn carries_hint(&self, client: usize) -> bool {
        self.clients[client].composer.policy().uses_hint()
    }

    fn segment_plan(&mut self, bytes: u64, hinted: bool) -> SegmentPlan {
        // Strips ride long-lived TCP streams, so per-packet overhead
        // amortizes fractionally (the SAIs option costs ~0.27 % wire bytes,
        // never a whole extra packet).
        let mtu = self.cfg.mtu;
        *self
            .plan_cache
            .entry((bytes, hinted))
            .or_insert_with(|| SegmentPlan::streaming(bytes, mtu, if hinted { 4 } else { 0 }))
    }

    /// First-packet cut-through delay from a server into the client NIC.
    fn cut_through(&self, plan: SegmentPlan) -> SimDuration {
        let first_pkt = plan.wire_bytes.min(self.cfg.mtu + sais_net::ETH_OVERHEAD);
        SimDuration::for_bytes(first_pkt, self.cfg.server.uplink_bps / 8.0)
            + self.cfg.server.propagation
    }

    /// Extra delay a faulty transport costs one strip's response stream.
    ///
    /// The strip's segments are driven through the NewReno sender/receiver
    /// pair ([`simulate_transfer`]) over the perturbed pipe; the excess
    /// over the memoized clean-pipe time shifts the strip's arrival at the
    /// NIC, and the recovery work lands in the run's `retransmits` /
    /// `tcp_timeouts` / `tcp_duplicates` counters. With a clean plan this
    /// draws nothing and returns zero.
    fn transport_excess(&mut self, segments: u64) -> SimDuration {
        let f = &self.cfg.faults;
        if !f.perturbs_transport() {
            return SimDuration::ZERO;
        }
        let pipe = PipeFaults {
            loss: f.loss,
            duplication: f.duplication,
            reorder: f.reorder,
            reorder_delay: f.reorder_delay,
        };
        let rtt = self.cfg.request_net_delay;
        let rto = self.cfg.retransmit_timeout;
        let clean = *self.lossless_tcp.entry(segments).or_insert_with(|| {
            // A clean pipe draws nothing, so this RNG is inert.
            simulate_transfer(
                segments,
                rtt,
                rto,
                &PipeFaults::clean(),
                &mut SimRng::new(0),
            )
            .elapsed
        });
        let rep = simulate_transfer(segments, rtt, rto, &pipe, &mut self.fault_rng);
        self.retransmits += rep.retransmits;
        self.tcp_timeouts += rep.timeouts;
        self.tcp_duplicates += rep.duplicates;
        rep.elapsed.saturating_sub(clean)
    }

    fn handle_start(&mut self, sched: &mut Scheduler<'_, Ev>) {
        for c in 0..self.clients.len() {
            let (_, _, _, ready) = self
                .meta
                .open(sched.now(), "/ior.dat")
                .expect("benchmark file exists");
            for p in 0..self.cfg.procs_per_client {
                // Tiny stagger breaks pathological lockstep between
                // processes, like real exec skew does.
                let stagger = SimDuration::from_micros(p as u64);
                sched.at(
                    ready + stagger,
                    Ev::Issue {
                        client: c as u32,
                        proc: p as u32,
                    },
                );
            }
        }
    }

    fn handle_issue(&mut self, client: u32, proc: u32, sched: &mut Scheduler<'_, Ev>) {
        if self.cfg.direction == IoDirection::Write {
            return self.handle_issue_write(client, proc, sched);
        }
        let now = sched.now();
        let carries = self.carries_hint(client as usize);
        let cl = &mut self.clients[client as usize];
        let pr = &mut cl.procs[proc as usize];
        let core = pr.proc.core;
        let t_req = cl.cores[core].run(now, self.cfg.issue_cost, WorkClass::Sched);
        let hints = if carries {
            cl.messager.tag_request(core)
        } else {
            HintList::new()
        };
        let transfer = self.cfg.transfer_size.min(pr.end_offset - pr.next_offset);
        let strip_reqs = self.layout.split(pr.next_offset, transfer);
        let read_id = self.next_read;
        self.next_read += 1;
        cl.tracker.start(read_id, strip_reqs.len() as u64, transfer);
        let read_span = self.recorder.begin(
            t_req,
            "read",
            "request",
            client,
            REQ_LANE + proc,
            SpanId::NONE,
        );
        self.recorder.set_arg(read_span, "read_id", read_id);
        self.recorder.set_arg(read_span, "bytes", transfer);
        self.recorder
            .set_arg(read_span, "strips", strip_reqs.len() as u64);
        let read_ref = self.reads.insert(ReadState {
            id: read_id,
            proc,
            bytes: transfer,
            issued: t_req,
            span: read_span,
            first_irq_seen: false,
        });
        self.read_oracle.insert(read_id, read_ref);
        pr.proc.block(t_req);
        // The paper's policy (i)-vs-(ii) distinction: the process may be
        // migrated by the OS *while blocked*, after the request (and its
        // hint) already left. SAIs normally prevents this by bundling
        // (`pin_processes`); the ablation turns it on.
        if !pr.proc.pinned
            && self.cfg.cpu.block_migration_prob > 0.0
            && self.rng.chance(self.cfg.cpu.block_migration_prob)
        {
            let n = self.cfg.cpu.cores as u64;
            let mut target = self.rng.next_below(n) as usize;
            if target == pr.proc.core {
                target = (target + 1) % n as usize;
            }
            pr.proc.core = target;
            pr.proc.migrations += 1;
        }
        let client_ip = cl.ip;
        let user_base = pr.user_buf.start;
        let mut user_off = 0u64;
        for (i, sr) in strip_reqs.iter().enumerate() {
            let plan = self.segment_plan(sr.bytes, carries);
            let t_at_server = t_req + self.cfg.request_net_delay;
            let tx = self.servers[sr.server].serve_strip(t_at_server, sr.bytes, plan.wire_bytes);
            let server_ip = 0x0A01_0000 + sr.server as u32;
            let strip_id = self.next_strip;
            self.next_strip += 1;
            // The response's first wire frame as plain old data. The byte
            // path (Ethernet II + FCS around the possibly option-carrying
            // IP header) is materialized only where bytes are inspected;
            // `capsule_pod` keeps the server-side stamping counters exactly
            // as the byte path would.
            let pod = PodFrame {
                src_ip: server_ip,
                dst_ip: client_ip,
                ident: (strip_id & 0xFFFF) as u16,
                payload_len: sr.bytes.min(plan.mss) as u16,
                aff_core: self.capsuler.capsule_pod(&hints),
            };
            // One TCP connection per (client, server) pair, as PVFS does;
            // the flow id is the NIC's actual RSS (Toeplitz) hash of it,
            // precomputed per server in `ClientNode::new`.
            let flow = self.clients[client as usize].flows[sr.server];
            let strip_span =
                self.recorder
                    .begin(t_req, "strip", "strip", client, REQ_LANE + proc, read_span);
            self.recorder.set_arg(strip_span, "bytes", sr.bytes);
            self.recorder
                .set_arg(strip_span, "server", sr.server as u64);
            let strip_ref = self.strips.insert(StripState {
                id: strip_id,
                client,
                read: read_ref,
                strip_no: i as u64,
                bytes: sr.bytes,
                kbuf: AddrRange::EMPTY,
                user_range: AddrRange::new(user_base + user_off, sr.bytes),
                plan,
                pod,
                flow,
                progress: protocol::BatchProgress::unarmed(),
                chunk_off: 0,
                span: strip_span,
            });
            self.strip_oracle.insert(strip_id, strip_ref);
            user_off += sr.bytes;
            // Transport faults delay the whole response stream: the strip
            // reaches the NIC later by however long NewReno recovery took
            // over and above the clean pipe.
            let arrive = tx.start + self.cut_through(plan) + self.transport_excess(plan.packets);
            sched.at(arrive, Ev::StripAtNic { strip: strip_ref });
        }
    }

    fn handle_strip_at_nic(&mut self, strip: SlabRef, sched: &mut Scheduler<'_, Ev>) {
        let now = sched.now();
        let s = &mut self.strips[strip];
        self.strip_oracle.check(s.id, strip);
        // The plan was resolved at issue time; no cache probe here.
        let plan = s.plan;
        let cl = &mut self.clients[s.client as usize];
        s.kbuf = cl.alloc.alloc(s.bytes);
        let mut batches = cl.nic.receive_strip(
            now,
            s.flow,
            plan,
            CoalesceParams {
                max_frames: self.cfg.coalesce_frames,
            },
        );
        // Interrupt-layer faults rewrite the batch schedule the NIC
        // produced, through the same pure rewrites the model checker
        // enumerates ([`protocol::coalesce_batches`] merges a batch's
        // frames into its successor, [`protocol::delay_batches`] posts
        // some batches late, which can reorder them against their
        // neighbours). Both consult the decision closure in index order —
        // that order is the fault-RNG draw-order contract that keeps
        // seeded figure runs byte-identical.
        if self.cfg.faults.perturbs_interrupts() {
            let f = self.cfg.faults.clone();
            if f.irq_coalesce > 0.0 && batches.len() > 1 {
                let (merged, merges) =
                    protocol::coalesce_batches(&batches, |_| self.fault_rng.chance(f.irq_coalesce));
                self.coalesced_merges += merges;
                batches = merged;
            }
            if f.irq_delay > 0.0 {
                self.delayed_irqs += protocol::delay_batches(&mut batches, f.irq_delay_by, |_| {
                    self.fault_rng.chance(f.irq_delay)
                });
            }
        }
        s.progress = protocol::BatchProgress::arm(batches.len() as u64);
        for b in &batches {
            sched.at(
                b.time,
                Ev::HardIrq {
                    strip,
                    frames: b.frames,
                    bytes: b.bytes,
                },
            );
        }
    }

    fn handle_hard_irq(
        &mut self,
        strip: SlabRef,
        frames: u64,
        bytes: u64,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let now = sched.now();
        self.telemetry_rotate(now);
        // In-flight strip count before this batch is consumed — the
        // telemetry plane's queue-depth signal.
        let queue_depth = self.strips.len() as u64;
        let s = &mut self.strips[strip];
        self.strip_oracle.check(s.id, strip);
        let cl = &mut self.clients[s.client as usize];
        cl.loads.maybe_sample(now, &cl.cores);
        // An option-stripping middlebox (fault injection) rewrites the IP
        // header in flight, removing the SAIs option. It is stateless and
        // per-flow: the same flow is either always clean or always
        // stripped — until the plan's decommission time, if any, after
        // which its flows run clean and SAIs must re-promote them.
        let stripped =
            self.cfg.faults.strips_flow_at(s.flow.value(), now) && s.pod.aff_core.is_some();
        if stripped {
            self.stripped_options += 1;
        }
        let pod = if stripped {
            PodFrame {
                aff_core: None,
                ..s.pod
            }
        } else {
            s.pod
        };
        // The receive path is byte-faithful per interrupt batch: the NIC
        // verifies the Ethernet FCS, and only then does SrcParser see the
        // IP header. Injected corruption flips a random bit of the wire
        // frame; most flips die at the FCS, the rest at the IP checksum.
        let hint = if self.cfg.faults.corruption > 0.0
            && self.fault_rng.chance(self.cfg.faults.corruption)
        {
            if self.fault_rng.chance(0.5) {
                // Wire corruption: a bit flips in flight. CRC-32 catches
                // every single-bit error, so the NIC drops the frame. The
                // wire bytes are materialized here because corruption
                // genuinely edits them (byte-identical to the frame the
                // slow path used to store, so the RNG draw below sees the
                // same length).
                let mut corrupted = pod.materialize();
                let idx = (self.fault_rng.next_below(corrupted.len() as u64)) as usize;
                corrupted[idx] ^= 1 << self.fault_rng.next_below(8);
                match EthernetFrame::decode(&corrupted) {
                    Ok(frame) => cl.parser.parse(&frame.payload),
                    Err(_) => {
                        cl.fcs_drops += 1;
                        None
                    }
                }
            } else {
                // Post-FCS corruption (DMA/buffer damage): the frame check
                // passed, so SrcParser's own IP-checksum validation is the
                // last line of defence.
                let frame = EthernetFrame::decode(&pod.materialize()).expect("stored frame valid");
                let mut payload = frame.payload;
                let idx = (self.fault_rng.next_below(payload.len() as u64)) as usize;
                payload[idx] ^= 1 << self.fault_rng.next_below(8);
                cl.parser.parse(&payload)
            }
        } else if stripped {
            // The middlebox genuinely rewrote the header, so SrcParser
            // must see the bytes it left behind: a valid option-free
            // header that parses cleanly but yields no hint.
            cl.parser.parse(&pod.header().encode())
        } else {
            // Zero-copy fast path: an uncorrupted frame the simulation
            // built itself always passes the FCS and IP checksum, so
            // `SrcParser` reads the hint straight from the POD. The POD ⇄
            // byte equivalence is pinned by property tests in `sais-net`.
            cl.parser.parse_pod(&s.pod)
        };
        // The interrupt arrives on the IRQ line of the bond port the flow
        // hashes to.
        let pin = (s.flow.value() % self.cfg.nic_ports.max(1) as u64) as usize;
        let dest = cl.composer.compose(
            &mut cl.ioapic,
            pin,
            now,
            hint,
            s.flow.value(),
            &cl.cores,
            &cl.loads,
        );
        // Hardirq entry, then softirq: per-packet protocol work plus the
        // payload fill into the handler core's cache.
        let chunk = AddrRange::new(s.kbuf.start + s.chunk_off, bytes);
        s.chunk_off += bytes;
        let counts = cl.mem.touch(dest, chunk);
        cl.mem
            .note_background(dest, counts.lines * self.cfg.background_accesses_per_line);
        cl.cores[dest].run(now, self.cfg.cpu.hardirq, WorkClass::HardIrq);
        let soft = self.cfg.cpu.softirq_per_packet * frames + counts.cost(cl.mem.params());
        let done = cl.cores[dest].run(now, soft, WorkClass::SoftIrq);
        let irq_span = self
            .recorder
            .begin(now, "irq", "interrupt", s.client, dest as u32, s.span);
        self.recorder.set_arg(irq_span, "frames", frames);
        self.recorder.set_arg(irq_span, "bytes", bytes);
        // Service time (hardirq entry + softirq work) excluding queue wait,
        // so trace analysis can split the span into queueing vs handling.
        self.recorder
            .set_arg(irq_span, "svc", (self.cfg.cpu.hardirq + soft).as_nanos());
        self.recorder.end(irq_span, done);
        self.stages.record(Stage::IrqToHandler, done.since(now));
        self.telemetry.record_irq(now.as_nanos(), dest, queue_depth);
        if let Some(read) = self.reads.get_mut(s.read) {
            if !read.first_irq_seen {
                read.first_irq_seen = true;
                self.stages
                    .record(Stage::IssueToFirstIrq, now.since(read.issued));
            }
        }
        sched.at(done, Ev::BatchReady { strip });
    }

    fn handle_batch_ready(&mut self, strip: SlabRef, sched: &mut Scheduler<'_, Ev>) {
        let now = sched.now();
        let s = &mut self.strips[strip];
        self.strip_oracle.check(s.id, strip);
        match s.progress.batch_ready() {
            protocol::Ready::Pending => return,
            protocol::Ready::Complete => {}
            // A ready past completion can only come from a duplicated
            // interrupt; the DES scheduler never produces one today, but
            // the exactly-once guard (not a `done < total` fall-through)
            // is what keeps a duplicate from double-copying the strip —
            // the model checker proves exactly that (see
            // `sais_core::protocol` and tests/mck_regressions.rs).
            protocol::Ready::Spurious => {
                debug_assert!(false, "spurious BatchReady for completed strip");
                return;
            }
        }
        // Strip complete in kernel memory: the blocked process is made
        // runnable and copies it to the user buffer on its own core.
        let read = &self.reads[s.read];
        let cl = &mut self.clients[s.client as usize];
        let consumer = cl.procs[read.proc as usize].proc.core;
        let src = cl.mem.touch(consumer, s.kbuf);
        let dst = cl.mem.touch(consumer, s.user_range);
        cl.mem.note_background(
            consumer,
            (src.lines + dst.lines) * self.cfg.background_accesses_per_line,
        );
        if src.c2c > 0 {
            cl.migrated_strips += 1;
        }
        let p = cl.mem.params();
        let stall = p.c2c_time(src.c2c);
        let dur = self.cfg.cpu.wake_ipi + self.cfg.cpu.context_switch + src.cost(p) + dst.cost(p);
        let done = cl.cores[consumer].run(now, dur, WorkClass::Copy);
        let copy_span =
            self.recorder
                .begin(now, "copy", "consume", s.client, consumer as u32, s.span);
        self.recorder.set_arg(copy_span, "c2c_lines", src.c2c);
        // Service time and the cache-to-cache stall share of it, so trace
        // analysis can blame queueing vs migration stall vs copy work.
        self.recorder.set_arg(copy_span, "svc", dur.as_nanos());
        self.recorder.set_arg(copy_span, "stall", stall.as_nanos());
        self.recorder.end(copy_span, done);
        self.stages.record(Stage::HandlerToConsume, done.since(now));
        self.stages.record(Stage::MigrationStall, stall);
        sched.at(done, Ev::StripCopied { strip });
    }

    fn handle_strip_copied(&mut self, strip: SlabRef, sched: &mut Scheduler<'_, Ev>) {
        let now = sched.now();
        self.telemetry_rotate(now);
        let s = self.strips.remove(strip);
        self.strip_oracle.remove(s.id, strip);
        self.recorder.end(s.span, now);
        let read_id = self.reads[s.read].id;
        let cl = &mut self.clients[s.client as usize];
        cl.strips_done += 1;
        let complete = cl.tracker.strip_arrived(read_id, s.strip_no, s.bytes);
        if !complete {
            return;
        }
        let read = self.reads.remove(s.read);
        self.read_oracle.remove(read.id, s.read);
        self.recorder.end(read.span, now);
        self.recorder
            .instant(now, "request_done", s.client, REQ_LANE + read.proc, read.id);
        self.stages
            .record(Stage::RequestTotal, now.since(read.issued));
        cl.latency.record(now.since(read.issued).as_nanos());
        self.telemetry
            .record_latency(now.as_nanos(), now.since(read.issued).as_nanos());
        let pr = &mut cl.procs[read.proc as usize];
        // read() returns: wake (possibly migrating, for the ablation), then
        // run the compute phase over the freshly-read buffer.
        let core = cl.place.wake(&mut pr.proc, now, &mut self.rng);
        let buf = AddrRange::new(pr.user_buf.start, read.bytes);
        let counts = cl.mem.touch(core, buf);
        cl.mem
            .note_background(core, counts.lines * self.cfg.background_accesses_per_line);
        let cycles = (self.cfg.compute_cycles_per_byte * read.bytes as f64) as u64;
        let dur = self.cfg.cpu.cycles(cycles) + counts.cost(cl.mem.params());
        let done = cl.cores[core].run(now, dur, WorkClass::App);
        sched.at(
            done,
            Ev::ComputeDone {
                client: s.client,
                proc: read.proc,
            },
        );
    }

    fn handle_compute_done(&mut self, client: u32, proc: u32, sched: &mut Scheduler<'_, Ev>) {
        let now = sched.now();
        self.requests_completed += 1;
        let cl = &mut self.clients[client as usize];
        let pr = &mut cl.procs[proc as usize];
        let transfer = self.cfg.transfer_size.min(pr.end_offset - pr.next_offset);
        pr.next_offset += transfer;
        pr.proc.requests_done += 1;
        pr.proc.bytes_read += transfer;
        cl.bytes_done += transfer;
        if pr.next_offset < pr.end_offset {
            sched.now_event(Ev::Issue { client, proc });
        } else {
            cl.active_procs -= 1;
            if cl.active_procs == 0 {
                cl.t_done = now;
                self.clients_done += 1;
                if now > self.t_last_done {
                    self.t_last_done = now;
                }
            }
        }
    }

    /// Issue one IOR *write*: generate+encrypt the buffer, copy it to
    /// kernel memory, stream the strips to the servers, then wait for the
    /// per-strip acknowledgements. No bulk data ever flows client-bound,
    /// so interrupt placement has (almost) nothing to steer.
    fn handle_issue_write(&mut self, client: u32, proc: u32, sched: &mut Scheduler<'_, Ev>) {
        let now = sched.now();
        let mtu = self.cfg.mtu;
        let cl = &mut self.clients[client as usize];
        let pr = &mut cl.procs[proc as usize];
        let core = pr.proc.core;
        let transfer = self.cfg.transfer_size.min(pr.end_offset - pr.next_offset);
        // Generate + encrypt the outgoing buffer (the compute phase runs
        // before a write, not after).
        let buf = AddrRange::new(pr.user_buf.start, transfer);
        let counts = cl.mem.touch(core, buf);
        cl.mem
            .note_background(core, counts.lines * self.cfg.background_accesses_per_line);
        let cycles = (self.cfg.compute_cycles_per_byte * transfer as f64) as u64;
        let gen = self.cfg.issue_cost + self.cfg.cpu.cycles(cycles) + counts.cost(cl.mem.params());
        let t0 = cl.cores[core].run(now, gen, WorkClass::App);
        let strip_reqs = self.layout.split(pr.next_offset, transfer);
        let read_id = self.next_read;
        self.next_read += 1;
        cl.tracker.start(read_id, strip_reqs.len() as u64, transfer);
        let write_span = self.recorder.begin(
            t0,
            "write",
            "request",
            client,
            REQ_LANE + proc,
            SpanId::NONE,
        );
        self.recorder.set_arg(write_span, "read_id", read_id);
        self.recorder.set_arg(write_span, "bytes", transfer);
        let read_ref = self.reads.insert(ReadState {
            id: read_id,
            proc,
            bytes: transfer,
            issued: t0,
            span: write_span,
            first_irq_seen: false,
        });
        self.read_oracle.insert(read_id, read_ref);
        pr.proc.block(t0);
        let client_ip = cl.ip;
        let user_base = pr.user_buf.start;
        let mut user_off = 0u64;
        for (i, sr) in strip_reqs.iter().enumerate() {
            // Copy user → kernel and run the transmit-side protocol work on
            // the issuing core (writes have no placement decision to make).
            let kbuf = cl.alloc.alloc(sr.bytes);
            let cu = cl
                .mem
                .touch(core, AddrRange::new(user_base + user_off, sr.bytes));
            let ck = cl.mem.touch(core, kbuf);
            cl.mem.note_background(
                core,
                (cu.lines + ck.lines) * self.cfg.background_accesses_per_line,
            );
            user_off += sr.bytes;
            let plan = SegmentPlan::streaming(sr.bytes, mtu, 0);
            let p = cl.mem.params();
            let tx_work = self.cfg.cpu.softirq_per_packet * plan.packets + cu.cost(p) + ck.cost(p);
            let t1 = cl.cores[core].run(t0, tx_work, WorkClass::Copy);
            // Serialize onto the client's transmit bond, then cross to the
            // server, which commits the strip to storage and acks.
            let (_, tx_end) = cl.nic_tx.transfer(t1, plan.wire_bytes);
            let t_srv = tx_end + self.cfg.request_net_delay;
            const ACK_WIRE_BYTES: u64 = 90; // TCP ack + PVFS write response
            let tx = self.servers[sr.server].serve_strip(t_srv, sr.bytes, ACK_WIRE_BYTES);
            let server_ip = 0x0A01_0000 + sr.server as u32;
            let flow = cl.flows[sr.server];
            let strip_id = self.next_strip;
            self.next_strip += 1;
            let strip_ref = self.strips.insert(StripState {
                id: strip_id,
                client,
                read: read_ref,
                strip_no: i as u64,
                bytes: sr.bytes,
                kbuf,
                user_range: AddrRange::EMPTY,
                plan,
                // Acks carry no payload frame worth modelling; the POD
                // is never read on the write path.
                pod: PodFrame {
                    src_ip: server_ip,
                    dst_ip: client_ip,
                    ident: 0,
                    payload_len: 0,
                    aff_core: None,
                },
                flow,
                progress: protocol::BatchProgress::unarmed(),
                chunk_off: 0,
                // Ack interrupts are not worth a span of their own; the
                // write request span covers issue → last ack.
                span: SpanId::NONE,
            });
            self.strip_oracle.insert(strip_id, strip_ref);
            sched.at(
                tx.end + self.cfg.server.propagation,
                Ev::WriteAck { strip: strip_ref },
            );
        }
    }

    /// A write acknowledgement arrives: one tiny interrupt, no payload.
    fn handle_write_ack(&mut self, strip: SlabRef, sched: &mut Scheduler<'_, Ev>) {
        let now = sched.now();
        let s = self.strips.remove(strip);
        self.strip_oracle.remove(s.id, strip);
        let cl = &mut self.clients[s.client as usize];
        cl.loads.maybe_sample(now, &cl.cores);
        // Acks carry no SAIs option (there is no consumer to steer toward);
        // the policy routes them like any other interrupt.
        let pin = (s.flow.value() % self.cfg.nic_ports.max(1) as u64) as usize;
        let dest = cl.composer.compose(
            &mut cl.ioapic,
            pin,
            now,
            None,
            s.flow.value(),
            &cl.cores,
            &cl.loads,
        );
        cl.cores[dest].run(now, self.cfg.cpu.hardirq, WorkClass::HardIrq);
        let done = cl.cores[dest].run(now, self.cfg.cpu.softirq_per_packet, WorkClass::SoftIrq);
        cl.strips_done += 1;
        let read_id = self.reads[s.read].id;
        let complete = cl.tracker.strip_arrived(read_id, s.strip_no, s.bytes);
        if complete {
            let read = self.reads.remove(s.read);
            self.read_oracle.remove(read.id, s.read);
            self.recorder.end(read.span, now);
            self.stages
                .record(Stage::RequestTotal, now.since(read.issued));
            cl.latency.record(now.since(read.issued).as_nanos());
            let pr = &mut cl.procs[read.proc as usize];
            cl.place.wake(&mut pr.proc, now, &mut self.rng);
            sched.at(
                done,
                Ev::ComputeDone {
                    client: s.client,
                    proc: read.proc,
                },
            );
        }
    }

    /// Assemble the run metrics at time `now` (normally quiescence).
    pub fn collect_metrics(&self, now: SimTime) -> RunMetrics {
        assert_eq!(
            self.clients_done,
            self.clients.len(),
            "collect_metrics before the run completed"
        );
        let wall = self.t_last_done.max_of(SimTime::from_nanos(1));
        let _ = now;
        let mut l2_accesses = 0;
        let mut l2_misses = 0;
        let mut c2c_lines = 0;
        let mut strip_migrations = 0;
        let mut interrupts = 0;
        let mut hinted = 0;
        let mut clamped = 0;
        let mut parse_errors = 0;
        let mut fcs_drops = 0;
        let mut bytes = 0;
        let mut strips = 0;
        let mut unhalted = 0;
        let mut util_sum = 0.0;
        let mut util_n = 0usize;
        let mut per_client_bw = Vec::with_capacity(self.clients.len());
        let mut process_migrations = 0;
        let mut degraded_flows = 0;
        let mut steering_degrades = 0;
        let mut steering_repromotes = 0;
        let mut latency = sais_metrics::Histogram::new();
        for cl in &self.clients {
            degraded_flows += cl.composer.policy().degraded_flows();
            let (d, r) = cl.composer.policy().steering_churn();
            steering_degrades += d;
            steering_repromotes += r;
            l2_accesses += cl.mem.total_accesses();
            l2_misses += cl.mem.total_misses();
            c2c_lines += cl.mem.c2c_transfers();
            strip_migrations += cl.migrated_strips;
            interrupts += cl.ioapic.routed.get();
            hinted += cl.composer.hinted.get();
            clamped += cl.ioapic.clamped.get();
            parse_errors += cl.parser.parse_errors.get();
            fcs_drops += cl.fcs_drops;
            bytes += cl.bytes_done;
            strips += cl.strips_done;
            let report = CpuReport::collect(&cl.cores, &self.cfg.cpu, wall);
            unhalted += report.unhalted_cycles;
            util_sum += report.utilization * cl.cores.len() as f64;
            util_n += cl.cores.len();
            let t = cl.t_done.max_of(SimTime::from_nanos(1));
            per_client_bw.push(cl.bytes_done as f64 / t.as_secs_f64());
            process_migrations += cl.procs.iter().map(|p| p.proc.migrations).sum::<u64>();
            latency.merge(&cl.latency);
        }
        RunMetrics {
            policy: self.clients[0].composer.policy().kind(),
            wall_time: wall,
            bytes_delivered: bytes,
            requests_completed: self.requests_completed,
            strips_delivered: strips,
            strip_migrations,
            c2c_lines,
            l2_miss_rate: if l2_accesses == 0 {
                0.0
            } else {
                l2_misses as f64 / l2_accesses as f64
            },
            l2_accesses,
            l2_misses,
            cpu_utilization: if util_n == 0 {
                0.0
            } else {
                util_sum / util_n as f64
            },
            unhalted_cycles: unhalted,
            interrupts,
            irq_distribution: self.clients[0].ioapic.distribution().to_vec(),
            retransmits: self.retransmits,
            tcp_timeouts: self.tcp_timeouts,
            parse_errors,
            fcs_drops,
            tcp_duplicates: self.tcp_duplicates,
            delayed_irqs: self.delayed_irqs,
            coalesced_merges: self.coalesced_merges,
            stripped_options: self.stripped_options,
            degraded_flows,
            steering_degrades,
            steering_repromotes,
            hinted_interrupts: hinted,
            clamped_interrupts: clamped,
            per_client_bw,
            process_migrations,
            request_latency: latency,
            stages: self.stages.clone(),
            events_dispatched: 0, // filled in by `ScenarioConfig::run_full`
            queue_high_water: 0,  // likewise
            queue_cascades: 0,    // likewise
            telemetry: self.telemetry.series().clone(),
            window_rotations: self.telemetry.rotations(),
            detector_evals: self.telemetry.detector_evals(),
            telemetry_verdicts: self.telemetry.verdicts().to_vec(),
        }
    }

    /// Build the central metric registry from the current component state.
    ///
    /// Unlike [`Cluster::collect_metrics`] this is a pure pull pass with no
    /// completion requirement, so it can be called **mid-run** (e.g. from a
    /// bounded `run_bounded` loop) as well as at quiescence. Registration
    /// costs the hot paths nothing: components keep their plain fields and
    /// the registry reads them here.
    pub fn metric_registry(&self) -> MetricRegistry {
        let mut reg = MetricRegistry::new();
        let mut l2_accesses = 0;
        let mut l2_misses = 0;
        let mut c2c_lines = 0;
        let mut strip_migrations = 0;
        let mut interrupts = 0;
        let mut hinted = 0;
        let mut clamped = 0;
        let mut parse_errors = 0;
        let mut fcs_drops = 0;
        let mut bytes = 0;
        let mut strips = 0;
        let mut degraded_flows = 0;
        let mut latency = sais_metrics::Histogram::new();
        for cl in &self.clients {
            degraded_flows += cl.composer.policy().degraded_flows();
            l2_accesses += cl.mem.total_accesses();
            l2_misses += cl.mem.total_misses();
            c2c_lines += cl.mem.c2c_transfers();
            strip_migrations += cl.migrated_strips;
            interrupts += cl.ioapic.routed.get();
            hinted += cl.composer.hinted.get();
            clamped += cl.ioapic.clamped.get();
            parse_errors += cl.parser.parse_errors.get();
            fcs_drops += cl.fcs_drops;
            bytes += cl.bytes_done;
            strips += cl.strips_done;
            latency.merge(&cl.latency);
        }
        reg.counter("io.bytes_delivered", bytes);
        reg.counter("io.requests_completed", self.requests_completed);
        reg.counter("io.strips_delivered", strips);
        reg.counter("io.retransmits", self.retransmits);
        reg.counter("fault.tcp_timeouts", self.tcp_timeouts);
        reg.counter("fault.tcp_duplicates", self.tcp_duplicates);
        reg.counter("fault.delayed_irqs", self.delayed_irqs);
        reg.counter("fault.coalesced_merges", self.coalesced_merges);
        reg.counter("fault.stripped_options", self.stripped_options);
        reg.counter("fault.degraded_flows", degraded_flows);
        reg.counter("irq.routed", interrupts);
        reg.counter("irq.hinted", hinted);
        reg.counter("irq.clamped", clamped);
        reg.counter("net.parse_errors", parse_errors);
        reg.counter("net.fcs_drops", fcs_drops);
        reg.counter("mem.l2_accesses", l2_accesses);
        reg.counter("mem.l2_misses", l2_misses);
        reg.counter("mem.c2c_lines", c2c_lines);
        reg.counter("mem.strip_migrations", strip_migrations);
        reg.gauge(
            "mem.l2_miss_rate",
            if l2_accesses == 0 {
                0.0
            } else {
                l2_misses as f64 / l2_accesses as f64
            },
        );
        reg.counter("obs.window_rotations", self.telemetry.rotations());
        reg.counter("obs.detector_evals", self.telemetry.detector_evals());
        reg.counter("obs.spans_recorded", self.recorder.recorded());
        reg.counter("obs.spans_dropped", self.recorder.dropped());
        reg.histogram("latency.request", &latency);
        for stage in sais_obs::STAGES {
            if let Some(h) = self.stages.get(stage) {
                reg.histogram(&format!("stage.{}", stage.name()), h);
            }
        }
        reg
    }

    /// Freeze [`Cluster::metric_registry`] into an exportable snapshot
    /// stamped with sim time `now`.
    pub fn snapshot_metrics(&self, now: SimTime) -> MetricSnapshot {
        self.metric_registry().snapshot(now)
    }
}

impl ClientNode {
    fn new(cfg: &ScenarioConfig, id: u32) -> Self {
        let ncores = cfg.cpu.cores;
        let mut alloc = AddrAlloc::new(cfg.mem.line_size);
        let bytes_per_proc = cfg.bytes_per_proc();
        let procs = (0..cfg.procs_per_client)
            .map(|p| {
                let core = p % ncores;
                let user_buf = alloc.alloc(cfg.transfer_size);
                ProcRt {
                    proc: Process::new(p, core, cfg.pin_processes),
                    user_buf,
                    next_offset: p as u64 * bytes_per_proc,
                    end_offset: (p as u64 + 1) * bytes_per_proc,
                }
            })
            .collect();
        ClientNode {
            cores: (0..ncores).map(CpuCore::new).collect(),
            loads: LoadTracker::new(ncores, SimDuration::from_millis(10)),
            mem: MemorySystem::new(ncores, cfg.mem.clone()),
            alloc,
            nic: NicBond::new(
                cfg.nic_ports,
                cfg.nic_port_bps,
                SimDuration::from_micros(20),
            ),
            nic_tx: RateResource::from_bits_per_sec(cfg.nic_ports as f64 * cfg.nic_port_bps),
            ioapic: {
                let mut io = IoApic::new(cfg.nic_ports.max(1), ncores);
                if let Some(mask) = cfg.irq_affinity_mask {
                    for pin in 0..cfg.nic_ports.max(1) {
                        let mut entry = *io.table_mut().entry(pin);
                        entry.dest_mask = mask;
                        assert!(
                            entry.allowed_cores().next().is_some(),
                            "irq_affinity_mask permits no core"
                        );
                        io.table_mut().set_entry(pin, entry);
                    }
                }
                io
            },
            composer: IMComposer::new(cfg.policy.build()),
            parser: SrcParser::new(),
            messager: HintMessager::new(),
            procs,
            tracker: ReadTracker::new(),
            // Block-time migration is injected in `handle_issue` (where the
            // hint/consumer mismatch actually arises); the wake itself only
            // does blocked-time accounting.
            place: WakePlacement::new(&sais_cpu::CpuParams {
                block_migration_prob: 0.0,
                ..cfg.cpu.clone()
            }),
            active_procs: cfg.procs_per_client,
            bytes_done: 0,
            strips_done: 0,
            migrated_strips: 0,
            fcs_drops: 0,
            latency: sais_metrics::Histogram::new(),
            t_done: SimTime::ZERO,
            ip: 0x0A00_0001 + id,
            flows: (0..cfg.servers)
                .map(|s| FlowId::rss(0x0A01_0000 + s as u32, 0x0A00_0001 + id, 3334, 50_000))
                .collect(),
        }
    }
}

impl Model for Cluster {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        // Per-stage host-profiler zones (one branch each when profiling
        // is off, bit-inert always): these are the `model.*` phase of the
        // hostprof breakdown, nested under `engine.dispatch`.
        match event {
            Ev::Start => self.handle_start(sched),
            Ev::Issue { client, proc } => {
                sais_prof::zone!("model.issue");
                self.handle_issue(client, proc, sched)
            }
            Ev::StripAtNic { strip } => {
                sais_prof::zone!("model.strip_at_nic");
                self.handle_strip_at_nic(strip, sched)
            }
            Ev::HardIrq {
                strip,
                frames,
                bytes,
            } => {
                sais_prof::zone!("model.hard_irq");
                self.handle_hard_irq(strip, frames, bytes, sched)
            }
            Ev::BatchReady { strip } => {
                sais_prof::zone!("model.batch_ready");
                self.handle_batch_ready(strip, sched)
            }
            Ev::StripCopied { strip } => {
                sais_prof::zone!("model.strip_copied");
                self.handle_strip_copied(strip, sched)
            }
            Ev::WriteAck { strip } => {
                sais_prof::zone!("model.write_ack");
                self.handle_write_ack(strip, sched)
            }
            Ev::ComputeDone { client, proc } => {
                sais_prof::zone!("model.compute_done");
                self.handle_compute_done(client, proc, sched)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{PolicyChoice, ScenarioConfig};

    fn small(policy: PolicyChoice) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::testbed_3gig(8, 512 * 1024);
        cfg.file_size = 8 * 1024 * 1024;
        cfg.policy = policy;
        cfg
    }

    #[test]
    fn conservation_of_bytes() {
        let m = small(PolicyChoice::SourceAware).run();
        assert_eq!(m.bytes_delivered, 8 * 1024 * 1024);
        assert_eq!(m.requests_completed, 16);
        assert_eq!(m.strips_delivered, 128);
        assert!(m.wall_time > SimTime::ZERO);
    }

    #[test]
    fn sais_has_zero_strip_migrations() {
        let m = small(PolicyChoice::SourceAware).run();
        assert_eq!(m.strip_migrations, 0);
        assert_eq!(m.c2c_lines, 0);
        assert_eq!(m.hinted_interrupts, m.interrupts);
        assert_eq!(m.parse_errors, 0);
    }

    #[test]
    fn irqbalance_migrates_strips() {
        let m = small(PolicyChoice::LowestLoaded).run();
        assert!(
            m.strip_migrations > 100,
            "most strips should migrate, got {}",
            m.strip_migrations
        );
        assert_eq!(m.hinted_interrupts, 0);
    }

    #[test]
    fn sais_beats_irqbalance_on_bandwidth_and_misses() {
        let s = small(PolicyChoice::SourceAware).run();
        let b = small(PolicyChoice::LowestLoaded).run();
        assert!(
            s.bandwidth_bytes_per_sec() > b.bandwidth_bytes_per_sec(),
            "SAIs {} MB/s vs irqbalance {} MB/s",
            s.bandwidth_mbs(),
            b.bandwidth_mbs()
        );
        assert!(s.l2_miss_rate < b.l2_miss_rate);
        assert!(s.unhalted_cycles < b.unhalted_cycles);
    }

    #[test]
    fn determinism_bitwise() {
        let a = small(PolicyChoice::SourceAware).run();
        let b = small(PolicyChoice::SourceAware).run();
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.l2_accesses, b.l2_accesses);
        assert_eq!(a.unhalted_cycles, b.unhalted_cycles);
        assert_eq!(a.irq_distribution, b.irq_distribution);
    }

    #[test]
    fn dedicated_core_concentrates_interrupts() {
        let m = small(PolicyChoice::Dedicated).run();
        let dist = &m.irq_distribution;
        let total: u64 = dist.iter().sum();
        assert_eq!(dist[0], total, "all interrupts on the dedicated core");
    }

    #[test]
    fn round_robin_spreads_interrupts() {
        let m = small(PolicyChoice::RoundRobin).run();
        let dist = &m.irq_distribution;
        assert!(dist.iter().all(|&d| d > 0), "{dist:?}");
    }

    #[test]
    fn loss_injection_retransmits_and_still_completes() {
        let mut cfg = small(PolicyChoice::SourceAware);
        cfg.faults.loss = 0.05;
        let m = cfg.run();
        assert!(m.retransmits > 0);
        assert_eq!(m.bytes_delivered, 8 * 1024 * 1024);
    }

    #[test]
    fn corruption_falls_back_without_panicking() {
        let mut cfg = small(PolicyChoice::SourceAware);
        cfg.faults.corruption = 0.2;
        let m = cfg.run();
        assert!(m.parse_errors > 0);
        assert!(m.hinted_interrupts < m.interrupts);
        assert_eq!(m.bytes_delivered, 8 * 1024 * 1024);
    }

    #[test]
    fn straggler_slows_but_completes() {
        let mut slow = small(PolicyChoice::SourceAware);
        // Slow enough that the straggler's strips gate every request that
        // touches server 0 (its service time exceeds the rest of the
        // request pipeline).
        slow.faults.stragglers = vec![(0, 50.0)];
        let fast = small(PolicyChoice::SourceAware).run();
        let slowed = slow.run();
        assert!(slowed.wall_time > fast.wall_time);
        assert_eq!(slowed.bytes_delivered, fast.bytes_delivered);
    }

    #[test]
    fn multi_client_aggregate() {
        let mut cfg = small(PolicyChoice::SourceAware);
        cfg.clients = 3;
        let m = cfg.run();
        assert_eq!(m.bytes_delivered, 3 * 8 * 1024 * 1024);
        assert_eq!(m.per_client_bw.len(), 3);
        assert!(m.per_client_bw.iter().all(|&b| b > 0.0));
    }

    #[test]
    fn write_path_conserves_bytes() {
        use crate::scenario::IoDirection;
        let m = small(PolicyChoice::SourceAware)
            .with_direction(IoDirection::Write)
            .run();
        assert_eq!(m.bytes_delivered, 8 * 1024 * 1024);
        assert_eq!(m.requests_completed, 16);
        assert_eq!(m.strips_delivered, 128);
        // Writes raise one ack interrupt per strip.
        assert_eq!(m.interrupts, 128);
    }

    #[test]
    fn write_path_shows_no_policy_effect() {
        use crate::scenario::IoDirection;
        // The paper's scoping claim: no data returns on writes, so there is
        // no locality for interrupt placement to exploit.
        let s = small(PolicyChoice::SourceAware)
            .with_direction(IoDirection::Write)
            .run();
        let b = small(PolicyChoice::LowestLoaded)
            .with_direction(IoDirection::Write)
            .run();
        let gap = (s.bandwidth_bytes_per_sec() / b.bandwidth_bytes_per_sec() - 1.0).abs();
        assert!(gap < 0.01, "write-path policy gap should vanish: {gap:.4}");
        assert_eq!(s.strip_migrations, 0);
        assert_eq!(b.strip_migrations, 0);
    }

    #[test]
    fn unpinned_migration_ablation() {
        let mut cfg = small(PolicyChoice::SourceAware);
        cfg.pin_processes = false;
        cfg.cpu.block_migration_prob = 0.5;
        let m = cfg.run();
        assert!(m.process_migrations > 0);
        // Migrated consumers break source-affinity: some strips migrate.
        assert!(m.strip_migrations > 0);
    }
}
