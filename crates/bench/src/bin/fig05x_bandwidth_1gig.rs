//! Regenerate one experiment: `cargo run --release -p sais-bench --bin fig05x_bandwidth_1gig [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::fig05x_bandwidth_1gig(args.scale);
    args.emit_observability();
}
