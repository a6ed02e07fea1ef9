//! Regenerate one experiment: `cargo run --release -p sais-bench --bin fig10_unhalted_1gig [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::fig10_unhalted_1gig(args.scale);
    args.emit_observability();
}
