//! # sais-bench — figure and table regeneration for the SAIs reproduction
//!
//! One function per table/figure of the paper's evaluation (§V, §VI), each
//! printing paper-style rows and writing CSV under `target/experiments/`.
//! The `figures` bench target (`cargo bench -p sais-bench --bench figures`)
//! runs everything at the default scale; individual binaries
//! (`cargo run --release -p sais-bench --bin fig05_bandwidth_3gig`) run one
//! figure, and accept `--full` for the larger file size. All figure
//! binaries parse flags strictly (unknown flags are an error, exit 2) and
//! accept `--obs <dir>` to write the run's telemetry series and host
//! profile there (see [`harness::BenchArgs`]). The instrumented demo
//! scenario's traces, metric snapshots and blame reports come from the
//! `trace_analyze` binary (see [`analysis`]).
//!
//! The paper reads a 10 GB file per run; the default scale here is 128 MB
//! (full: 1 GB). Steady-state bandwidth is file-size invariant in this
//! model (and nearly so on the testbed), so scaling changes run time, not
//! conclusions; EXPERIMENTS.md records both scales for the headline rows.

pub mod analysis;
pub mod executor;
pub mod figures;
pub mod harness;
pub mod microtouch;
pub mod profile;
pub mod timeseries;

pub use harness::{BenchArgs, Scale, Sweep};
