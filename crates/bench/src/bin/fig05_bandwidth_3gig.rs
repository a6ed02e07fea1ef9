//! Regenerate one experiment: `cargo run --release -p sais-bench --bin fig05_bandwidth_3gig [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::fig05_bandwidth_3gig(args.scale);
    args.emit_observability();
}
