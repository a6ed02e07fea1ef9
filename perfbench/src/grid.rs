//! The workloads: which simulations one pass runs, generated from the seed.
//!
//! Every input the simulator receives comes from here. A workload is a
//! fixed list of [`Job`]s; the `--seed` argument changes only the
//! simulation and fault RNG seeds inside them, never how many runs there
//! are or how large they are, so host time is comparable across seeds.

use sais_core::memsim::{MemSimConfig, MemSimMode};
use sais_core::scenario::{FaultPlan, IoDirection, ObsConfig, PolicyChoice, ScenarioConfig};
use sais_sim::SimDuration;

/// The paper's transfer-size sweep (Fig. 5 and §V-C).
pub const TRANSFER_SIZES: [u64; 4] = [128 << 10, 512 << 10, 1 << 20, 2 << 20];
/// The paper's server-count sweep.
pub const SERVER_COUNTS: [usize; 4] = [8, 16, 32, 48];
/// Fig. 14 application counts.
pub const INMEM_APPS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Bytes each client reads in a paper-grid cell (half the figures'
/// `--quick` scale, so a pass is short and each run repeats often).
pub const PAPER_FILE: u64 = 32 << 20;
/// Bytes each application reads in a Fig. 14 cell (the figure's `--quick`
/// scale).
pub const INMEM_BYTES_PER_APP: u64 = 16 << 20;
/// Seeds per paper-grid cell: 2 × 64 cluster runs + 16 in-memory runs
/// puts 144 runs in one pass.
pub const PAPER_SEEDS: u64 = 2;

/// Bytes read or written in a faulted or write-path cell.
pub const FAULT_FILE: u64 = 16 << 20;
/// Fault seeds per fault-grid cell: 6 × (9 plans × 2 policies + 4 write
/// cells) = 132 runs in one pass.
pub const FAULT_SEEDS: u64 = 6;

/// Bytes each client reads in an observed cell.
pub const OBSERVED_FILE: u64 = 8 << 20;
/// Seeds per observed cell (the first [`PAPER_SEEDS`] are
/// `paper_sweep`'s): 4 × 32 = 128 runs in one pass.
pub const OBSERVED_SEEDS: u64 = 4;

/// `(name, loss, option_strip, straggler slowdown)` — the `fig_faults`
/// grid: loss, an option-stripping middlebox and a straggling server,
/// alone and combined.
pub const FAULT_GRID: [(&str, f64, f64, f64); 8] = [
    ("clean", 0.0, 0.0, 1.0),
    ("loss1pct", 0.01, 0.0, 1.0),
    ("loss5pct", 0.05, 0.0, 1.0),
    ("strip50pct", 0.0, 0.5, 1.0),
    ("strip100pct", 0.0, 1.0, 1.0),
    ("straggler20x", 0.0, 0.0, 20.0),
    ("loss2pct_strip50pct", 0.02, 0.5, 1.0),
    ("loss5pct_strip100pct_straggler20x", 0.05, 1.0, 20.0),
];

/// A middlebox that strips every flow's option and is removed after this
/// much simulated time, so SAIs degrades and then re-promotes each flow.
pub const STRIP_UNTIL: SimDuration = SimDuration::from_millis(15);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 5 (3-Gig) and §V-C (1-Gig) grids plus the Fig. 14 in-memory
    /// cells, observability off.
    PaperSweep,
    /// The fault grid and 3-Gig write-path cells.
    FaultedRw,
    /// A subset of `PaperSweep`'s 3-Gig cells with full observability and
    /// Perfetto export.
    ObservedSweep,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload::PaperSweep,
    Workload::FaultedRw,
    Workload::ObservedSweep,
];

/// What a job's result feeds besides the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tag {
    /// A paper-grid cell: `(NIC ports, servers, transfer size)`.
    Paper {
        ports: usize,
        servers: usize,
        transfer: u64,
    },
    /// A Fig. 14 cell with this many applications.
    InMem { apps: usize },
    /// Anything else.
    Other,
}

/// One simulation to run.
#[derive(Debug, Clone)]
pub enum Sim {
    /// A full cluster run: `Cluster` driven by `Engine`.
    Cluster(Box<ScenarioConfig>),
    /// A §VI in-memory run.
    InMem(MemSimConfig),
}

/// One run of a pass.
#[derive(Debug, Clone)]
pub struct Job {
    /// The simulation.
    pub sim: Sim,
    /// What its result feeds.
    pub tag: Tag,
}

impl Job {
    /// Whether this run uses the SAIs policy (or its in-memory analogue).
    pub fn is_sais(&self) -> bool {
        match &self.sim {
            Sim::Cluster(cfg) => cfg.policy == PolicyChoice::SourceAware,
            Sim::InMem(cfg) => cfg.mode == MemSimMode::SiSais,
        }
    }
}

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::FaultedRw => "faulted_rw",
            Workload::ObservedSweep => "observed_sweep",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Generate and validate the workload's jobs for `seed`.
    ///
    /// # Panics
    /// If a generated configuration is invalid or breaks the calibration
    /// regimes (`calib::assert_regimes`) — a bug in this file.
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        let jobs = match self {
            Workload::PaperSweep => paper_jobs(seed),
            Workload::FaultedRw => faulted_jobs(seed),
            Workload::ObservedSweep => observed_jobs(seed),
        };
        for job in &jobs {
            if let Sim::Cluster(cfg) = &job.sim {
                if let Err(e) = cfg.validate() {
                    panic!("{}: invalid generated scenario: {e}", self.name());
                }
                sais_core::calib::assert_regimes(cfg);
            }
        }
        jobs
    }
}

/// SplitMix64: the per-run seed derivation. Distinct `(seed, stream, rep)`
/// triples give unrelated simulation seeds.
pub fn derive_seed(seed: u64, stream: u64, rep: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(rep.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const PAPER_STREAM: u64 = 1;
const FAULT_STREAM: u64 = 2;

fn testbed(ports: usize, servers: usize, transfer: u64) -> ScenarioConfig {
    if ports == 1 {
        ScenarioConfig::testbed_1gig(servers, transfer)
    } else {
        ScenarioConfig::testbed_3gig(servers, transfer)
    }
}

/// Both policies of one paper cell at one seed; identical seeds make the
/// pair a paired comparison, as in the figure harness.
fn paper_pair(seed: u64, rep: u64, ports: usize, servers: usize, transfer: u64) -> [Job; 2] {
    let mut cfg = testbed(ports, servers, transfer);
    cfg.file_size = PAPER_FILE;
    cfg.seed = derive_seed(seed, PAPER_STREAM, rep);
    let tag = Tag::Paper {
        ports,
        servers,
        transfer,
    };
    [PolicyChoice::LowestLoaded, PolicyChoice::SourceAware].map(|p| Job {
        sim: Sim::Cluster(Box::new(cfg.clone().with_policy(p))),
        tag,
    })
}

fn paper_jobs(seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for rep in 0..PAPER_SEEDS {
        for ports in [3, 1] {
            for &transfer in &TRANSFER_SIZES {
                for &servers in &SERVER_COUNTS {
                    jobs.extend(paper_pair(seed, rep, ports, servers, transfer));
                }
            }
        }
    }
    for &apps in &INMEM_APPS {
        for mode in [MemSimMode::SiIrqbalance, MemSimMode::SiSais] {
            let mut cfg = MemSimConfig::testbed(mode, apps);
            cfg.bytes_per_app = INMEM_BYTES_PER_APP;
            jobs.push(Job {
                sim: Sim::InMem(cfg),
                tag: Tag::InMem { apps },
            });
        }
    }
    jobs
}

fn faulted_jobs(seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for rep in 0..FAULT_SEEDS {
        let fault_seed = derive_seed(seed, FAULT_STREAM, rep);
        let mut plans: Vec<FaultPlan> = FAULT_GRID
            .iter()
            .map(|&(_, loss, option_strip, straggler)| FaultPlan {
                seed: fault_seed,
                loss,
                option_strip,
                stragglers: if straggler > 1.0 {
                    vec![(0, straggler)]
                } else {
                    Vec::new()
                },
                ..FaultPlan::none()
            })
            .collect();
        plans.push(FaultPlan {
            seed: fault_seed,
            option_strip: 1.0,
            option_strip_until: Some(STRIP_UNTIL),
            ..FaultPlan::none()
        });
        for plan in plans {
            for policy in [PolicyChoice::LowestLoaded, PolicyChoice::SourceAware] {
                let mut cfg = testbed(3, 8, 512 << 10).with_faults(plan.clone());
                cfg.file_size = FAULT_FILE;
                cfg.seed = derive_seed(seed, PAPER_STREAM, rep);
                jobs.push(Job {
                    sim: Sim::Cluster(Box::new(cfg.with_policy(policy))),
                    tag: Tag::Other,
                });
            }
        }
        for transfer in [128 << 10, 1 << 20] {
            for policy in [PolicyChoice::LowestLoaded, PolicyChoice::SourceAware] {
                let mut cfg = testbed(3, 16, transfer).with_direction(IoDirection::Write);
                cfg.file_size = FAULT_FILE;
                cfg.seed = derive_seed(seed, PAPER_STREAM, rep);
                jobs.push(Job {
                    sim: Sim::Cluster(Box::new(cfg.with_policy(policy))),
                    tag: Tag::Other,
                });
            }
        }
    }
    jobs
}

/// The 3-Gig half of `paper_jobs`, observed. Full observability makes a
/// 32 MB run about 45 ms of host time (2-core x86-64), so these cells read
/// [`OBSERVED_FILE`]: [`OBSERVED_SEEDS`] seeds fit in a pass of about a
/// second, which repeats often enough in a timed window.
fn observed_jobs(seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for rep in 0..OBSERVED_SEEDS {
        for &transfer in &TRANSFER_SIZES {
            for &servers in &SERVER_COUNTS {
                for mut job in paper_pair(seed, rep, 3, servers, transfer) {
                    if let Sim::Cluster(cfg) = &mut job.sim {
                        cfg.file_size = OBSERVED_FILE;
                        cfg.obs = ObsConfig::full();
                    }
                    jobs.push(job);
                }
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(jobs: &[Job]) -> Vec<(Tag, u64, u64)> {
        jobs.iter()
            .map(|j| match &j.sim {
                Sim::Cluster(c) => (j.tag, c.file_size, c.transfer_size),
                Sim::InMem(c) => (j.tag, c.bytes_per_app, c.apps as u64),
            })
            .collect()
    }

    #[test]
    fn every_pass_has_at_least_100_runs() {
        for w in WORKLOADS {
            let n = w.jobs(1).len();
            assert!(n >= 100, "{}: {n} runs per pass", w.name());
        }
    }

    #[test]
    fn the_seed_changes_seeds_only() {
        for w in WORKLOADS {
            let (a, b) = (w.jobs(1), w.jobs(2));
            assert_eq!(shape(&a), shape(&b), "{}", w.name());
            let seeds = |jobs: &[Job]| -> Vec<u64> {
                jobs.iter()
                    .filter_map(|j| match &j.sim {
                        Sim::Cluster(c) => Some(c.seed ^ c.faults.seed),
                        Sim::InMem(_) => None,
                    })
                    .collect()
            };
            assert_ne!(seeds(&a), seeds(&b), "{}", w.name());
        }
    }

    #[test]
    fn observed_cells_share_paper_seeds() {
        let paper = Workload::PaperSweep.jobs(5);
        let observed = Workload::ObservedSweep.jobs(5);
        let seed_of = |j: &Job| match &j.sim {
            Sim::Cluster(c) => c.seed,
            Sim::InMem(_) => unreachable!("observed runs are cluster runs"),
        };
        assert_eq!(seed_of(&paper[0]), seed_of(&observed[0]));
    }

    #[test]
    fn names_round_trip() {
        for w in WORKLOADS {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
