//! Regenerate one experiment: `cargo run --release -p sais-bench --bin fig08_cpu_1gig [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::fig08_cpu_1gig(args.scale);
    args.emit_observability();
}
