//! Time the trace exporter and the trace validator apart, on the flight
//! recorders of the benchmark's `observed_sweep` cells at seed 1: the
//! 3-Gig paper grid (4 transfer sizes × 4 server counts × 2 policies × 4
//! seeds, 8 MB per client) under full observability, 128 runs. Prints
//! ns/byte for `perfetto::to_chrome_json` and for `perfetto::validate`,
//! as the median and minimum of five repetitions over every recorder, and
//! checks that every export validates with its recorder's span count:
//! `cargo run --release -p sais-bench --example tracecost`.

use sais_core::scenario::{ObsConfig, PolicyChoice, ScenarioConfig};
use sais_obs::{perfetto, FlightRecorder};
use std::hint::black_box;
use std::time::Instant;

// The `observed_sweep` grid as perfbench/src/grid.rs builds it.
const TRANSFER_SIZES: [u64; 4] = [128 << 10, 512 << 10, 1 << 20, 2 << 20];
const SERVER_COUNTS: [usize; 4] = [8, 16, 32, 48];
const OBSERVED_FILE: u64 = 8 << 20;
const OBSERVED_SEEDS: u64 = 4;
const PAPER_STREAM: u64 = 1;
const SEED: u64 = 1;
const REPETITIONS: usize = 5;

/// perfbench's per-run seed derivation (SplitMix64).
fn derive_seed(seed: u64, stream: u64, rep: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(rep.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn recorders() -> Vec<FlightRecorder> {
    let mut out = Vec::new();
    for rep in 0..OBSERVED_SEEDS {
        for &transfer in &TRANSFER_SIZES {
            for &servers in &SERVER_COUNTS {
                for policy in [PolicyChoice::LowestLoaded, PolicyChoice::SourceAware] {
                    let mut cfg = ScenarioConfig::testbed_3gig(servers, transfer);
                    cfg.file_size = OBSERVED_FILE;
                    cfg.seed = derive_seed(SEED, PAPER_STREAM, rep);
                    cfg.obs = ObsConfig::full();
                    let (_, cluster) = cfg.with_policy(policy).run_full();
                    out.push(cluster.recorder().clone());
                }
            }
        }
    }
    out
}

/// Median and minimum of `ns`, per byte.
fn per_byte(ns: &mut [u64], bytes: usize) -> (f64, f64) {
    ns.sort_unstable();
    let per = |v: u64| v as f64 / bytes as f64;
    (per(ns[ns.len() / 2]), per(ns[0]))
}

fn main() {
    let recs = recorders();
    let spans: usize = recs.iter().map(|r| r.spans().len()).sum();
    let (mut export_ns, mut validate_ns) = (Vec::new(), Vec::new());
    let mut bytes = 0;
    for _ in 0..REPETITIONS {
        // One export at a time, validated and dropped, as an observed
        // benchmark run does it.
        let (mut export, mut validate) = (0, 0);
        bytes = 0;
        for rec in &recs {
            let t = Instant::now();
            let json = perfetto::to_chrome_json(black_box(rec));
            let exported = Instant::now();
            let stats = perfetto::validate(black_box(&json));
            validate += exported.elapsed().as_nanos() as u64;
            export += (exported - t).as_nanos() as u64;
            let stats = stats.expect("every export validates");
            assert_eq!(stats.spans, rec.spans().len(), "validated span count");
            bytes += json.len();
        }
        export_ns.push(export);
        validate_ns.push(validate);
    }
    println!(
        "tracecost: {} runs, {spans} spans, {bytes} bytes per pass; {REPETITIONS} repetitions",
        recs.len()
    );
    for (name, ns) in [
        ("to_chrome_json", &mut export_ns),
        ("validate", &mut validate_ns),
    ] {
        let (median, min) = per_byte(ns, bytes);
        println!(
            "{name:<15} median {median:.3} ns/byte ({:.1} ms/pass)  min {min:.3} ns/byte ({:.1} ms/pass)",
            median * bytes as f64 / 1e6,
            min * bytes as f64 / 1e6,
        );
    }
}
