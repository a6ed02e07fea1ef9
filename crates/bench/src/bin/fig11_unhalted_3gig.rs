//! Regenerate one experiment: `cargo run --release -p sais-bench --bin fig11_unhalted_3gig [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::fig11_unhalted_3gig(args.scale);
    args.emit_observability();
}
