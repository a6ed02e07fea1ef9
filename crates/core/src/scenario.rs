//! Experiment configuration and run-level metrics.
//!
//! A [`ScenarioConfig`] describes one cell of a paper figure (policy ×
//! transfer size × server count × NIC), and `run()` executes it on the
//! cluster model, returning the [`RunMetrics`] from which every figure's
//! rows are derived.

use crate::cluster::Cluster;
use sais_apic::{Policy, PolicyKind};
use sais_cpu::CpuParams;
use sais_mem::MemParams;
use sais_pvfs::ServerParams;
use sais_sim::{Engine, SimDuration, SimTime};

/// Which steering policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyChoice {
    /// Strict rotation over cores (Linux/Intel default mode).
    RoundRobin,
    /// Everything on one core (Linux/AMD lowest-priority default).
    Dedicated,
    /// irqbalance: lightest core per interrupt. The paper's baseline.
    LowestLoaded,
    /// The irqbalance daemon at its real granularity: the IRQ line re-homes
    /// to the lightest core once per interval (default 10 s scaled to the
    /// simulated run lengths: 100 ms here).
    IrqbalanceDaemon,
    /// RSS-style static flow hashing.
    FlowHash,
    /// SAIs.
    SourceAware,
    /// Future-work hybrid: hint unless the hinted core is overloaded.
    Hybrid,
}

impl PolicyChoice {
    /// Instantiate the policy state.
    pub fn build(self) -> Policy {
        match self {
            PolicyChoice::RoundRobin => Policy::round_robin(),
            PolicyChoice::Dedicated => Policy::Dedicated { core: 0 },
            PolicyChoice::LowestLoaded => Policy::LowestLoaded,
            PolicyChoice::IrqbalanceDaemon => {
                Policy::balanced_daemon(SimDuration::from_millis(100))
            }
            PolicyChoice::FlowHash => Policy::FlowHash,
            PolicyChoice::SourceAware => Policy::sais(),
            PolicyChoice::Hybrid => Policy::hybrid(SimDuration::from_micros(200)),
        }
    }

    /// Table label.
    pub fn label(self) -> &'static str {
        self.kind().label()
    }

    /// Corresponding kind.
    pub fn kind(self) -> PolicyKind {
        match self {
            PolicyChoice::RoundRobin => PolicyKind::RoundRobin,
            PolicyChoice::Dedicated => PolicyKind::Dedicated,
            PolicyChoice::LowestLoaded => PolicyKind::LowestLoaded,
            PolicyChoice::IrqbalanceDaemon => PolicyKind::BalancedDaemon,
            PolicyChoice::FlowHash => PolicyKind::FlowHash,
            PolicyChoice::SourceAware => PolicyKind::SourceAware,
            PolicyChoice::Hybrid => PolicyKind::Hybrid,
        }
    }
}

/// Direction of the benchmark I/O.
///
/// The paper scopes itself to reads: "Because there is not a data locality
/// issue associated with interrupt scheduling in parallel I/O write
/// operations, our study focuses on parallel I/O read." The write path is
/// implemented so that claim can be *demonstrated* (`abl_write_path`): on
/// writes the client only receives tiny acknowledgements, so interrupt
/// placement has nothing to win.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoDirection {
    /// IOR read (the paper's experiments).
    Read,
    /// IOR write.
    Write,
}

/// Observability switches for one run.
///
/// Everything defaults to **off**, and the disabled state is zero-cost by
/// contract: every record call in the hot path starts with a branch on a
/// single flag and touches nothing else (see `sais-obs`). Enabling spans
/// or stage histograms never changes simulated results — the recorder only
/// reads times the model already computed.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Record request/strip/interrupt/copy spans into a
    /// [`sais_obs::FlightRecorder`] for Perfetto export.
    pub spans: bool,
    /// Record per-stage latency histograms
    /// ([`sais_obs::StageHistograms`]).
    pub stages: bool,
    /// Maximum spans retained when `spans` is on; beginnings past the cap
    /// are counted as dropped.
    pub span_capacity: usize,
    /// Sample the run into windowed time-series telemetry
    /// ([`crate::telemetry::TelemetrySeries`]) and fold the streaming
    /// saturation/livelock/tail detectors over each closing window.
    pub timeseries: bool,
    /// Window width in nanoseconds of simulated time when `timeseries`
    /// is on.
    pub window_ns: u64,
    /// Maximum windows retained when `timeseries` is on; older windows
    /// are evicted (bounded memory regardless of run length).
    pub window_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            spans: false,
            stages: false,
            span_capacity: 1 << 16,
            timeseries: false,
            window_ns: crate::telemetry::DEFAULT_WINDOW_NS,
            window_capacity: crate::telemetry::DEFAULT_WINDOW_CAPACITY,
        }
    }
}

impl ObsConfig {
    /// Everything on — spans, stage histograms and windowed telemetry —
    /// with the default capacities.
    pub fn full() -> Self {
        ObsConfig {
            spans: true,
            stages: true,
            timeseries: true,
            ..ObsConfig::default()
        }
    }

    /// Windowed telemetry only, at the default window geometry.
    pub fn timeseries() -> Self {
        ObsConfig {
            timeseries: true,
            ..ObsConfig::default()
        }
    }
}

/// Deterministic fault-injection plan for one run.
///
/// Every fault draws from its **own** seeded RNG stream
/// ([`FaultPlan::seed`]), fully independent of the simulation RNG
/// (`ScenarioConfig::seed`): enabling or disabling faults never perturbs a
/// single draw of the clean-path stream, so `FaultPlan::none()` leaves
/// every figure CSV byte-identical, and the same `(seed, FaultPlan)` pair
/// replays the exact same fault schedule. Which flows the
/// option-stripping middlebox hits is a pure hash of the flow id
/// ([`FaultPlan::strips_flow`]) — stateless, so it cannot depend on event
/// order either.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault RNG stream (independent of the simulation seed).
    pub seed: u64,
    /// Per-TCP-segment loss probability on the server→client link. Lost
    /// segments are recovered by the NewReno sender in `sais-net` (fast
    /// retransmit or RTO), which delays the strip's arrival and counts
    /// `retransmits`/`tcp_timeouts`.
    pub loss: f64,
    /// Probability a delivered batch's header bytes are corrupted before
    /// SrcParser sees them (wire/DMA bit flips). Half are caught by the
    /// Ethernet FCS, half by the IPv4 checksum; both fail closed to
    /// hint-less steering.
    pub corruption: f64,
    /// Per-segment duplication probability on the link. The TCP receiver
    /// discards the copies (`tcp_duplicates`), but their ACKs still
    /// perturb the sender's window.
    pub duplication: f64,
    /// Per-segment reordering probability: the segment is delayed by
    /// [`FaultPlan::reorder_delay`], letting later segments overtake it
    /// (Flow-Director-style reordering). Enough overtaking triggers
    /// spurious fast retransmits.
    pub reorder: f64,
    /// How late a reordered segment arrives.
    pub reorder_delay: SimDuration,
    /// Probability a hardirq is simply delayed by
    /// [`FaultPlan::irq_delay_by`] (e.g. host IRQ masking).
    pub irq_delay: f64,
    /// How late a delayed hardirq fires.
    pub irq_delay_by: SimDuration,
    /// Probability a hardirq batch is merged into its successor (extra
    /// coalescing beyond the NIC's configured `coalesce_frames`): fewer,
    /// fatter, later interrupts.
    pub irq_coalesce: f64,
    /// Fraction of flows whose responses pass through a middlebox that
    /// strips unknown IP options — including the SAIs affinity option.
    /// Stripped flows carry no hint, ever; the SAIs policy must degrade
    /// to RSS-style steering for them instead of panicking.
    pub option_strip: f64,
    /// If set, the option-stripping middlebox is decommissioned at this
    /// simulation time: stripped flows see clean, hint-carrying responses
    /// afterwards and SAIs must *re-promote* them (streak reset, RSS →
    /// hint steering, `degraded_flows` back to zero). `None` (the
    /// default) keeps the middlebox in place for the whole run — the
    /// behavior every pre-existing plan had.
    pub option_strip_until: Option<SimDuration>,
    /// Straggling I/O servers: `(server index, service-time multiplier)`.
    pub stragglers: Vec<(usize, f64)>,
}

impl FaultPlan {
    /// The empty plan: no faults of any kind. This is the default on
    /// every [`ScenarioConfig`], and it is contract-tested to leave run
    /// results bit-identical to a run without a fault layer at all.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0xFA_017,
            loss: 0.0,
            corruption: 0.0,
            duplication: 0.0,
            reorder: 0.0,
            reorder_delay: SimDuration::from_micros(150),
            irq_delay: 0.0,
            irq_delay_by: SimDuration::from_micros(50),
            irq_coalesce: 0.0,
            option_strip: 0.0,
            option_strip_until: None,
            stragglers: Vec::new(),
        }
    }

    /// Does this plan inject anything at all?
    pub fn is_none(&self) -> bool {
        self.loss == 0.0
            && self.corruption == 0.0
            && self.duplication == 0.0
            && self.reorder == 0.0
            && self.irq_delay == 0.0
            && self.irq_coalesce == 0.0
            && self.option_strip == 0.0
            && self.stragglers.is_empty()
    }

    /// Does the plan perturb the transport (anything the TCP sender and
    /// receiver must recover from)?
    pub fn perturbs_transport(&self) -> bool {
        self.loss > 0.0 || self.duplication > 0.0 || self.reorder > 0.0
    }

    /// Does the plan perturb interrupt delivery?
    pub fn perturbs_interrupts(&self) -> bool {
        self.irq_delay > 0.0 || self.irq_coalesce > 0.0
    }

    /// Whether the option-stripping middlebox sits on `flow`'s path.
    ///
    /// A pure hash of `(seed, flow)` against [`FaultPlan::option_strip`]:
    /// deterministic, independent of event order, and stable for the whole
    /// run — a middlebox does not come and go per packet.
    pub fn strips_flow(&self, flow: u64) -> bool {
        if self.option_strip <= 0.0 {
            return false;
        }
        if self.option_strip >= 1.0 {
            return true;
        }
        // SplitMix64 finalizer over (seed, flow) → uniform [0, 1).
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(flow.wrapping_mul(0xA24B_AED4_963E_E407));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        u < self.option_strip
    }

    /// Whether the middlebox strips `flow` at simulation time `now`:
    /// [`FaultPlan::strips_flow`] gated by the decommission time
    /// [`FaultPlan::option_strip_until`]. With the default `None` this is
    /// exactly `strips_flow` — same hash, same draws, same figures.
    pub fn strips_flow_at(&self, flow: u64, now: SimTime) -> bool {
        match self.option_strip_until {
            Some(until) if now.since(SimTime::ZERO) >= until => false,
            _ => self.strips_flow(flow),
        }
    }

    /// Validate probabilities and straggler entries against `servers`.
    pub fn validate(&self, servers: usize) -> Result<(), ConfigError> {
        for (what, p) in [
            ("faults.loss", self.loss),
            ("faults.corruption", self.corruption),
            ("faults.duplication", self.duplication),
            ("faults.reorder", self.reorder),
            ("faults.irq_delay", self.irq_delay),
            ("faults.irq_coalesce", self.irq_coalesce),
            ("faults.option_strip", self.option_strip),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(ConfigError::BadProbability(what, p));
            }
        }
        for &(idx, factor) in &self.stragglers {
            if idx >= servers {
                return Err(ConfigError::StragglerOutOfRange {
                    index: idx,
                    servers,
                });
            }
            if factor < 1.0 || factor.is_nan() {
                return Err(ConfigError::BadStragglerFactor { index: idx, factor });
            }
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// A configuration error, with enough context to fix it.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A structural count (clients, processes, servers) is zero.
    ZeroCount(&'static str),
    /// `transfer_size` is zero or exceeds `file_size`.
    BadTransferSize {
        /// Configured transfer size.
        transfer: u64,
        /// Configured file size.
        file: u64,
    },
    /// Strip size is zero.
    ZeroStripSize,
    /// MTU cannot hold the protocol headers.
    MtuTooSmall(u64),
    /// A probability is outside `[0, 1]`.
    BadProbability(&'static str, f64),
    /// The straggler index exceeds the server count.
    StragglerOutOfRange {
        /// Configured straggler server index.
        index: usize,
        /// Configured server count.
        servers: usize,
    },
    /// A straggler's service-time multiplier is below 1 (or NaN) — a
    /// straggler can only be slower than nominal.
    BadStragglerFactor {
        /// Configured straggler server index.
        index: usize,
        /// Configured multiplier.
        factor: f64,
    },
    /// The IRQ affinity mask permits no core of the machine.
    EmptyAffinityMask,
    /// More processes are pinned than there are cores to consume on —
    /// legal for the OS, but the hint space only names 32 cores.
    TooManyCoresForHint(usize),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroCount(what) => write!(f, "{what} must be at least 1"),
            ConfigError::BadTransferSize { transfer, file } => write!(
                f,
                "transfer_size ({transfer}) must be nonzero and at most file_size ({file})"
            ),
            ConfigError::ZeroStripSize => write!(f, "strip_size must be nonzero"),
            ConfigError::MtuTooSmall(mtu) => {
                write!(f, "mtu ({mtu}) cannot hold IP+TCP headers")
            }
            ConfigError::BadProbability(what, v) => {
                write!(f, "{what} ({v}) must be within [0, 1]")
            }
            ConfigError::StragglerOutOfRange { index, servers } => {
                write!(f, "straggler index {index} exceeds server count {servers}")
            }
            ConfigError::BadStragglerFactor { index, factor } => write!(
                f,
                "straggler {index} multiplier ({factor}) must be at least 1"
            ),
            ConfigError::EmptyAffinityMask => {
                write!(f, "irq_affinity_mask permits no core of this machine")
            }
            ConfigError::TooManyCoresForHint(cores) => write!(
                f,
                "{cores} cores exceed the 5-bit aff_core_id space (max 32)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full description of one simulated experiment.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Steering policy under test.
    pub policy: PolicyChoice,
    /// Read or write benchmark.
    pub direction: IoDirection,
    /// Number of client nodes (Fig. 12 scales this; everything else uses 1).
    pub clients: usize,
    /// IOR processes per client (the paper runs one per core for bandwidth
    /// tests).
    pub procs_per_client: usize,
    /// Number of PVFS I/O servers.
    pub servers: usize,
    /// Strip size in bytes (testbed: 64 KB).
    pub strip_size: u64,
    /// IOR transfer size in bytes (one blocking read).
    pub transfer_size: u64,
    /// Bytes each client reads in total (split evenly over its processes).
    /// The paper reads 10 GB; figure harnesses scale this down and note the
    /// factor in EXPERIMENTS.md — steady-state bandwidth is size-invariant.
    pub file_size: u64,
    /// Bonded NIC ports on each client.
    pub nic_ports: usize,
    /// Per-port rate in bits/second.
    pub nic_port_bps: f64,
    /// Ethernet MTU.
    pub mtu: u64,
    /// NIC interrupt coalescing: frames per hardirq.
    pub coalesce_frames: u64,
    /// Application compute per byte delivered (the IOR "encryption" task),
    /// in CPU cycles.
    pub compute_cycles_per_byte: f64,
    /// Cache-resident accesses accompanying each payload line touched
    /// (instruction/metadata traffic); see
    /// [`sais_mem::MemorySystem::note_background`].
    pub background_accesses_per_line: u64,
    /// One-way client→server request latency.
    pub request_net_delay: SimDuration,
    /// Fixed cost of issuing one read (syscall + request build).
    pub issue_cost: SimDuration,
    /// Whether IOR processes are pinned to their core (SAIs bundles them;
    /// kept on for baselines too so the comparison isolates interrupt
    /// placement).
    pub pin_processes: bool,
    /// RNG seed.
    pub seed: u64,
    /// Memory-hierarchy parameters.
    pub mem: MemParams,
    /// CPU parameters.
    pub cpu: CpuParams,
    /// I/O-server parameters.
    pub server: ServerParams,
    /// TCP retransmission timeout (the NewReno sender's RTO) used when
    /// [`FaultPlan::loss`] forces recovery.
    pub retransmit_timeout: SimDuration,
    /// Deterministic fault-injection plan ([`FaultPlan::none`] by default).
    pub faults: FaultPlan,
    /// Optional IRQ affinity mask applied to every NIC IRQ line (what
    /// `/proc/irq/N/smp_affinity` writes do). Bit *i* permits core *i*.
    /// A policy choice outside the mask is clamped by the I/O APIC — so a
    /// mask that excludes the consuming core silently defeats SAIs, which
    /// the `irq_affinity_mask_defeats_sais` test demonstrates.
    pub irq_affinity_mask: Option<u64>,
    /// Flight-recorder and stage-histogram switches (all off by default).
    pub obs: ObsConfig,
}

impl ScenarioConfig {
    /// The testbed with a single 1-GbE client NIC (§V.C's 1-Gigabit runs).
    pub fn testbed_1gig(servers: usize, transfer_size: u64) -> Self {
        let cpu = CpuParams::sunfire_head_node();
        ScenarioConfig {
            policy: PolicyChoice::LowestLoaded,
            direction: IoDirection::Read,
            clients: 1,
            // §V: "the client side executes an IOR process to read a 10GB
            // size file" — the single-client figures run one process.
            procs_per_client: 1,
            servers,
            strip_size: 64 * 1024,
            transfer_size,
            file_size: 256 * 1024 * 1024,
            nic_ports: 1,
            nic_port_bps: 1e9,
            mtu: 1500,
            coalesce_frames: 8,
            compute_cycles_per_byte: 2.0,
            background_accesses_per_line: 8,
            request_net_delay: SimDuration::from_micros(250),
            issue_cost: SimDuration::from_micros(15),
            pin_processes: true,
            seed: 0x5A15,
            mem: MemParams::sunfire_x4240(),
            cpu,
            server: ServerParams::default(),
            retransmit_timeout: SimDuration::from_millis(5),
            faults: FaultPlan::none(),
            irq_affinity_mask: None,
            obs: ObsConfig::default(),
        }
    }

    /// The testbed with the bonded 3×1-GbE client NIC (Fig. 5's runs).
    pub fn testbed_3gig(servers: usize, transfer_size: u64) -> Self {
        ScenarioConfig {
            nic_ports: 3,
            ..ScenarioConfig::testbed_1gig(servers, transfer_size)
        }
    }

    /// Set the policy, builder-style.
    pub fn with_policy(mut self, policy: PolicyChoice) -> Self {
        self.policy = policy;
        self
    }

    /// Set the I/O direction, builder-style.
    pub fn with_direction(mut self, direction: IoDirection) -> Self {
        self.direction = direction;
        self
    }

    /// Set the observability switches, builder-style.
    pub fn with_observability(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Set the fault plan, builder-style.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Bytes each process reads.
    pub fn bytes_per_proc(&self) -> u64 {
        self.file_size / self.procs_per_client as u64
    }

    /// Total payload bytes the whole scenario delivers.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_per_proc() * self.procs_per_client as u64 * self.clients as u64
    }

    /// Check the configuration for inconsistencies without running it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (what, n) in [
            ("clients", self.clients),
            ("procs_per_client", self.procs_per_client),
            ("servers", self.servers),
            ("nic_ports", self.nic_ports),
        ] {
            if n == 0 {
                return Err(ConfigError::ZeroCount(what));
            }
        }
        if self.cpu.cores == 0 {
            return Err(ConfigError::ZeroCount("cpu.cores"));
        }
        if self.coalesce_frames == 0 {
            return Err(ConfigError::ZeroCount("coalesce_frames"));
        }
        if self.transfer_size == 0 || self.transfer_size > self.file_size {
            return Err(ConfigError::BadTransferSize {
                transfer: self.transfer_size,
                file: self.file_size,
            });
        }
        if self.strip_size == 0 {
            return Err(ConfigError::ZeroStripSize);
        }
        if self.mtu <= sais_net::IPV4_BASE_HEADER + sais_net::TCP_HEADER + 4 {
            return Err(ConfigError::MtuTooSmall(self.mtu));
        }
        let p = self.cpu.block_migration_prob;
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(ConfigError::BadProbability("cpu.block_migration_prob", p));
        }
        self.faults.validate(self.servers)?;
        if let Some(mask) = self.irq_affinity_mask {
            let machine = if self.cpu.cores >= 64 {
                u64::MAX
            } else {
                (1u64 << self.cpu.cores) - 1
            };
            if mask & machine == 0 {
                return Err(ConfigError::EmptyAffinityMask);
            }
        }
        if self.cpu.cores > 32 {
            return Err(ConfigError::TooManyCoresForHint(self.cpu.cores));
        }
        Ok(())
    }

    /// Execute the scenario to completion and collect metrics.
    ///
    /// # Panics
    /// On an invalid configuration; call [`ScenarioConfig::validate`] first
    /// to get a typed error instead.
    pub fn run(self) -> RunMetrics {
        self.run_full().0
    }

    /// Execute and additionally return the finished [`Cluster`], for
    /// inspection of traces and component statistics.
    pub fn run_full(self) -> (RunMetrics, Cluster) {
        if let Err(e) = self.validate() {
            panic!("invalid scenario: {e}");
        }
        let max_events = self.event_budget();
        let capacity = self.event_capacity();
        let mut engine = Engine::with_capacity(Cluster::new(self), capacity);
        engine.prime(SimTime::ZERO, crate::cluster::Ev::Start);
        engine.run_to_quiescence(max_events);
        let now = engine.now();
        let dispatched = engine.dispatched();
        let queue_high_water = engine.queue_high_water() as u64;
        let queue_cascades = engine.queue_cascades();
        let mut cluster = engine.into_model();
        cluster.finish_telemetry();
        let mut metrics = cluster.collect_metrics(now);
        metrics.events_dispatched = dispatched;
        metrics.queue_high_water = queue_high_water;
        metrics.queue_cascades = queue_cascades;
        (metrics, cluster)
    }

    /// A generous runaway-loop backstop for the engine.
    fn event_budget(&self) -> u64 {
        let strips = self.total_bytes() / self.strip_size.min(self.transfer_size) + 16;
        let batches_per_strip = 64; // upper bound incl. retransmits
        strips.saturating_mul(batches_per_strip).saturating_mul(4) + 1_000_000
    }

    /// Upper estimate of *concurrently pending* events, used to pre-size the
    /// event queue: per client, every server can have one strip in flight
    /// with all of its coalesced interrupt batches scheduled, plus one
    /// bookkeeping event per process.
    fn event_capacity(&self) -> usize {
        let mss = self.mtu.saturating_sub(40).max(1); // IP + TCP headers
        let batches_per_strip = self.strip_size.div_ceil(mss * self.coalesce_frames.max(1)) + 2;
        let per_client = self.servers as u64 * batches_per_strip + self.procs_per_client as u64;
        (self.clients as u64 * per_client + 64).min(1 << 22) as usize
    }
}

/// Everything measured in one run — the union of the quantities the
/// paper's figures report.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Which policy ran.
    pub policy: PolicyKind,
    /// Wall-clock (simulated) time from start to the last request
    /// completion.
    pub wall_time: SimTime,
    /// Payload bytes delivered to applications.
    pub bytes_delivered: u64,
    /// Application read requests completed.
    pub requests_completed: u64,
    /// Strips delivered.
    pub strips_delivered: u64,
    /// Strips whose consumption required cache-to-cache migration.
    pub strip_migrations: u64,
    /// Total cache lines moved between cores.
    pub c2c_lines: u64,
    /// Aggregate L2 miss rate (misses / accesses, all cores, all clients).
    pub l2_miss_rate: f64,
    /// Total L2 accesses.
    pub l2_accesses: u64,
    /// Total L2 misses.
    pub l2_misses: u64,
    /// Mean CPU utilization across cores and clients (the `sar` number).
    pub cpu_utilization: f64,
    /// Total `CPU_CLK_UNHALTED` cycles.
    pub unhalted_cycles: u64,
    /// Hardirqs delivered.
    pub interrupts: u64,
    /// Hardirqs per client-core (first client), for distribution checks.
    pub irq_distribution: Vec<u64>,
    /// TCP segment retransmissions (loss injection; fast retransmit + RTO).
    pub retransmits: u64,
    /// TCP retransmission timeouts the NewReno sender suffered (loss
    /// injection; the slow path of `retransmits`).
    pub tcp_timeouts: u64,
    /// Headers SrcParser failed to parse (corruption injection).
    pub parse_errors: u64,
    /// Frames the NIC dropped for a bad Ethernet FCS (corruption injection;
    /// these never reach SrcParser).
    pub fcs_drops: u64,
    /// Duplicate TCP segments the receiver discarded (duplication
    /// injection).
    pub tcp_duplicates: u64,
    /// Hardirq batches delivered late (delay injection; a late batch can
    /// be overtaken by its successors).
    pub delayed_irqs: u64,
    /// Hardirq batches merged into their successor beyond the NIC's
    /// configured coalescing (coalesce injection).
    pub coalesced_merges: u64,
    /// Batches whose SAIs IP option a middlebox stripped before arrival.
    pub stripped_options: u64,
    /// Flows the SAIs policy degraded to RSS-style steering because their
    /// hints stopped arriving (option stripping), measured at run end.
    pub degraded_flows: u64,
    /// Degradation episodes the SAIs policy started (hint-less streak
    /// reached the threshold), cumulative over the run.
    pub steering_degrades: u64,
    /// Degradation episodes ended by a re-promoting hint, cumulative.
    /// The invariant `steering_degrades - steering_repromotes ==
    /// degraded_flows` holds at run end.
    pub steering_repromotes: u64,
    /// Interrupts steered by a source hint.
    pub hinted_interrupts: u64,
    /// Interrupts whose policy choice was clamped by the IRQ affinity mask.
    pub clamped_interrupts: u64,
    /// Per-client achieved bandwidth, bytes/second.
    pub per_client_bw: Vec<f64>,
    /// Process wake-time migrations observed (unpinned ablation).
    pub process_migrations: u64,
    /// Per-request completion latency (issue → data ready), nanoseconds.
    pub request_latency: sais_metrics::Histogram,
    /// Per-stage latency histograms (disabled unless
    /// [`ObsConfig::stages`] was on for the run).
    pub stages: sais_obs::StageHistograms,
    /// Discrete events the engine dispatched for this run (host-performance
    /// accounting; does not affect any simulated quantity).
    pub events_dispatched: u64,
    /// Peak simultaneously-pending events in the engine's queue — sizes
    /// `Engine::with_capacity` for re-runs of the same scenario (also
    /// host-side accounting; filled in by `ScenarioConfig::run_full`).
    pub queue_high_water: u64,
    /// Events that took the timing wheel's far-future overflow path and
    /// cascaded back into the near-future ring (host-side accounting;
    /// filled in by `ScenarioConfig::run_full`).
    pub queue_cascades: u64,
    /// Windowed time-series telemetry (disabled/empty unless
    /// [`ObsConfig::timeseries`] was on for the run).
    pub telemetry: crate::telemetry::TelemetrySeries,
    /// Telemetry windows opened by the advancing virtual clock, including
    /// gap-filled empty windows (0 when telemetry is off).
    pub window_rotations: u64,
    /// Windows folded through the streaming detectors (0 when telemetry
    /// is off).
    pub detector_evals: u64,
    /// Verdicts the streaming detectors reached during the run.
    pub telemetry_verdicts: Vec<sais_obs::TelemetryVerdict>,
}

impl RunMetrics {
    /// Aggregate delivered bandwidth in bytes/second.
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        if self.wall_time == SimTime::ZERO {
            return 0.0;
        }
        self.bytes_delivered as f64 / self.wall_time.as_secs_f64()
    }

    /// Aggregate bandwidth in the paper's MB/s (decimal).
    pub fn bandwidth_mbs(&self) -> f64 {
        self.bandwidth_bytes_per_sec() / 1e6
    }

    /// Median request latency in milliseconds.
    pub fn latency_p50_ms(&self) -> f64 {
        self.request_latency.quantile(0.5) as f64 / 1e6
    }

    /// 99th-percentile request latency in milliseconds.
    pub fn latency_p99_ms(&self) -> f64 {
        self.request_latency.quantile(0.99) as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_arithmetic() {
        let mut cfg = ScenarioConfig::testbed_3gig(8, 1024 * 1024);
        cfg.file_size = 64 * 1024 * 1024;
        assert_eq!(cfg.procs_per_client, 1);
        assert_eq!(cfg.bytes_per_proc(), 64 * 1024 * 1024);
        assert_eq!(cfg.total_bytes(), 64 * 1024 * 1024);
        assert_eq!(cfg.nic_ports, 3);
        assert_eq!(ScenarioConfig::testbed_1gig(8, 1024).nic_ports, 1);
    }

    #[test]
    fn validation_catches_each_error_class() {
        let ok = ScenarioConfig::testbed_3gig(8, 1024 * 1024);
        assert_eq!(ok.validate(), Ok(()));

        let mut c = ok.clone();
        c.servers = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroCount("servers")));

        let mut c = ok.clone();
        c.transfer_size = c.file_size + 1;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadTransferSize { .. })
        ));

        let mut c = ok.clone();
        c.strip_size = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroStripSize));

        let mut c = ok.clone();
        c.mtu = 40;
        assert_eq!(c.validate(), Err(ConfigError::MtuTooSmall(40)));

        let mut c = ok.clone();
        c.faults.loss = 1.5;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadProbability("faults.loss", _))
        ));

        let mut c = ok.clone();
        c.faults.option_strip = f64::NAN;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadProbability("faults.option_strip", _))
        ));

        let mut c = ok.clone();
        c.faults.stragglers = vec![(8, 2.0)];
        assert!(matches!(
            c.validate(),
            Err(ConfigError::StragglerOutOfRange { .. })
        ));

        let mut c = ok.clone();
        c.faults.stragglers = vec![(2, 0.5)];
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadStragglerFactor { index: 2, .. })
        ));

        let mut c = ok.clone();
        c.irq_affinity_mask = Some(0);
        assert_eq!(c.validate(), Err(ConfigError::EmptyAffinityMask));

        let mut c = ok.clone();
        c.cpu.cores = 33;
        assert_eq!(c.validate(), Err(ConfigError::TooManyCoresForHint(33)));

        // Errors render as readable text.
        let msg = format!("{}", ConfigError::MtuTooSmall(40));
        assert!(msg.contains("mtu"));
    }

    #[test]
    fn fault_plan_none_is_default_and_empty() {
        assert_eq!(FaultPlan::default(), FaultPlan::none());
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::none().perturbs_transport());
        assert!(!FaultPlan::none().perturbs_interrupts());
        let mut p = FaultPlan::none();
        p.option_strip = 0.5;
        assert!(!p.is_none());
        let mut p = FaultPlan::none();
        p.loss = 0.01;
        assert!(p.perturbs_transport() && !p.perturbs_interrupts());
        let mut p = FaultPlan::none();
        p.irq_coalesce = 0.2;
        assert!(p.perturbs_interrupts() && !p.perturbs_transport());
    }

    #[test]
    fn strips_flow_is_deterministic_and_proportional() {
        let mut p = FaultPlan::none();
        p.option_strip = 0.5;
        // Stateless: the same flow always gets the same verdict.
        for flow in 0..64u64 {
            assert_eq!(p.strips_flow(flow), p.strips_flow(flow));
        }
        // Roughly the requested fraction of a large flow population.
        let hit = (0..10_000u64).filter(|&f| p.strips_flow(f)).count();
        assert!((4_000..6_000).contains(&hit), "hit {hit} of 10000");
        // Edges are exact.
        p.option_strip = 0.0;
        assert!((0..100).all(|f| !p.strips_flow(f)));
        p.option_strip = 1.0;
        assert!((0..100).all(|f| p.strips_flow(f)));
        // A different fault seed selects a different flow subset.
        let mut q = FaultPlan::none();
        q.option_strip = 0.5;
        q.seed ^= 0xDEAD_BEEF;
        assert!((0..10_000u64).any(|f| p.strips_flow(f) != q.strips_flow(f)));
    }

    #[test]
    #[should_panic(expected = "invalid scenario")]
    fn run_panics_on_invalid_config() {
        let mut c = ScenarioConfig::testbed_3gig(8, 1024 * 1024);
        c.servers = 0;
        let _ = c.run();
    }

    #[test]
    fn policy_choices_build() {
        for c in [
            PolicyChoice::RoundRobin,
            PolicyChoice::Dedicated,
            PolicyChoice::LowestLoaded,
            PolicyChoice::IrqbalanceDaemon,
            PolicyChoice::FlowHash,
            PolicyChoice::SourceAware,
            PolicyChoice::Hybrid,
        ] {
            let p = c.build();
            assert_eq!(p.kind(), c.kind());
            assert!(!c.label().is_empty());
        }
    }
}
