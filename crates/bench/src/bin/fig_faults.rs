//! Regenerate the fault-degradation table: `cargo run --release -p sais-bench --bin fig_faults [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::fig_faults(args.scale);
    args.emit_observability();
}
