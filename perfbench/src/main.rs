//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --verify --workload <name> --seed <n>
//! ```
//!
//! One process, one thread, one run after another. The last line of
//! standard output is the JSON result; diagnostics go to standard error.
//! `--verify` runs one untimed pass and prints its digest and accuracy
//! lines only.

use sais_core::cluster::Cluster;
use sais_perfbench::accuracy::{self, Gains};
use sais_perfbench::grid::{Job, Sim, Tag, Workload};
use sais_perfbench::quantile;
use sais_perfbench::report::{self, Metrics};
use sais_perfbench::run::{run_pass, Off, Pass, Trace};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    verify: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper_sweep|faulted_rw|observed_sweep> \
                     --seed <n> [--seconds <s>] [--trace <0|1>] [--verify]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut verify = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--verify" {
            verify = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        verify,
    })
}

/// Timed passes to take at least, whatever `--seconds` says, so each
/// run's median has something to be the median of.
const MIN_TIMED_PASSES: usize = 5;
/// Each set-up batch repeats the set-up until it lasts about this long.
const SETUP_BATCH: Duration = Duration::from_millis(60);

/// One pass's set-up: generate and validate every run's configuration,
/// then construct every run's `Cluster`.
fn setup_once(workload: Workload, seed: u64) {
    for job in workload.jobs(seed) {
        if let Sim::Cluster(cfg) = job.sim {
            black_box(Cluster::new(*cfg));
        }
    }
}

/// Seconds of one set-up, timed over `reps` back-to-back repetitions so
/// the interval stands well above timer and allocator jitter.
fn time_setup(workload: Workload, seed: u64, reps: u32) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        setup_once(workload, seed);
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// Keep freed memory in the heap for reuse instead of returning it to the
/// kernel, so the allocator stays warm from one run to the next.
///
/// Every run builds and drops a `Cluster`. With glibc's default tunables
/// a drop may trim the heap, and the next run then takes a page fault
/// for every page it touches again: on the reference host that turned
/// `faulted_rw`'s 3 ms set-up into 30 ms in some processes and not in
/// others. Returns whether glibc accepted both settings.
fn keep_heap_warm() -> bool {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` only sets malloc tunables and takes no pointers.
    // It runs first thing in `main`, before any other thread exists.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1 && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The paper cells the accuracy metrics need, for workloads that do not
/// run them themselves.
fn accuracy_jobs(seed: u64) -> Vec<Job> {
    Workload::PaperSweep
        .jobs(seed)
        .into_iter()
        .filter(|j| match j.tag {
            Tag::Paper { ports, servers, .. } => ports == 1 || servers == 48,
            Tag::InMem { .. } => true,
            Tag::Other => false,
        })
        .collect()
}

/// Running tally of runs and failed checks over an invocation.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, what: &str, jobs: &[Job], pass: &Pass) {
        self.attempted += pass.runs.len();
        self.failed += pass.failed();
        for (job, run) in jobs.iter().zip(&pass.runs) {
            if let Some(f) = &run.failure {
                self.problems.push(format!("{what}: {f} ({:?})", job.tag));
            }
        }
    }

    fn expect_digest(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.problems.push(format!(
                "{what}: digest {got:016x} differs from the warm-up's {want:016x}"
            ));
        }
    }
}

fn gains_or_run(
    workload: Workload,
    seed: u64,
    jobs: &[Job],
    warm: &Pass,
    tally: &mut Tally,
) -> Option<Gains> {
    if workload == Workload::PaperSweep {
        return accuracy::gains(jobs, warm);
    }
    let acc_jobs = accuracy_jobs(seed);
    let pass = run_pass(&acc_jobs, &mut Off);
    tally.add("accuracy", &acc_jobs, &pass);
    accuracy::gains(&acc_jobs, &pass)
}

fn verify(args: &Args) -> ExitCode {
    let jobs = args.workload.jobs(args.seed);
    let pass = run_pass(&jobs, &mut Off);
    let mut tally = Tally::default();
    tally.add("verify", &jobs, &pass);
    println!("digest {:016x}", pass.digest());
    if let Some(g) = accuracy::gains(&jobs, &pass) {
        for (name, v) in g.errors() {
            println!("{name} {v:?}");
        }
    }
    println!("runs {} failed {}", tally.attempted, tally.failed);
    for p in &tally.problems {
        eprintln!("check failed: {p}");
    }
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn bench(args: &Args) -> Result<String, String> {
    let (workload, seed) = (args.workload, args.seed);
    let name = workload.name();
    let jobs = workload.jobs(seed);
    let mut tally = Tally::default();
    // Warm-up: fills host caches and the allocator, and fixes the
    // reference digest every later pass must reproduce.
    let warm = run_pass(&jobs, &mut Off);
    tally.add("warm-up", &jobs, &warm);
    let digest = warm.digest();

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let reps = (SETUP_BATCH.as_secs_f64() / time_setup(workload, seed, 1)).ceil() as u32;
    let (mut timed, mut setups) = (Vec::new(), Vec::new());
    while timed.len() < MIN_TIMED_PASSES || Instant::now() < deadline {
        // A set-up batch between passes: `setup_s` is the fastest of
        // these, sampled across the whole window like the runs.
        setups.push(time_setup(workload, seed, reps.max(1)));
        let pass = run_pass(&jobs, &mut Off);
        tally.add("timed", &jobs, &pass);
        tally.expect_digest("timed pass", pass.digest(), digest);
        timed.push(pass);
    }
    let peak_rss = peak_rss_mb()?;
    let walls: Vec<f64> = timed.iter().map(Pass::wall_s).collect();
    eprintln!(
        "[{name}] {} timed passes of {} runs; pass walls {walls:.3?} s",
        timed.len(),
        jobs.len(),
    );

    let mut metrics = Metrics::default();
    if args.trace {
        let mut trace = Trace::default();
        let traced = run_pass(&jobs, &mut trace);
        tally.add("traced", &jobs, &traced);
        tally.expect_digest("traced pass", traced.digest(), digest);
        let share = tally.failed as f64 / tally.attempted as f64;
        report::layers(&traced, &trace, quantile(&walls, 0.5), share, &mut metrics);
    } else {
        report::HostTime::of(&timed).put(&mut metrics);
        let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);
        metrics.put("setup_s", setup_s, "s");
        metrics.put("peak_rss_mb", peak_rss, "MB");
        let gains = gains_or_run(workload, seed, &jobs, &warm, &mut tally)
            .ok_or("the accuracy cells are missing from the pass")?;
        eprintln!(
            "[{name}] simulated SAIs gains: 3-Gig {:+.2}% (paper {:+.2}%), 1-Gig {:+.2}% (paper {:+.2}%), in-memory {:+.2}% (paper {:+.2}%)",
            gains.gain_3gig,
            accuracy::PAPER_GAIN_3GIG,
            gains.gain_1gig,
            accuracy::PAPER_GAIN_1GIG,
            gains.gain_inmem,
            accuracy::PAPER_GAIN_INMEM
        );
        for (metric, v) in gains.errors() {
            metrics.put(metric, v, "pp");
        }
    }
    println!("digest {name} seed={seed} {digest:016x}");
    for p in &tally.problems {
        eprintln!("[{name}] check failed: {p}");
    }
    let correct = tally.problems.is_empty();
    Ok(report::result_line(
        correct,
        tally.attempted,
        tally.failed,
        &metrics,
    ))
}

fn main() -> ExitCode {
    if !keep_heap_warm() {
        eprintln!("perfbench: glibc rejected the heap tunables; timings will include page faults");
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.verify {
        return verify(&args);
    }
    match bench(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
