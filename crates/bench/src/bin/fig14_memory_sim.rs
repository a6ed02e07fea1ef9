//! Regenerate one experiment: `cargo run --release -p sais-bench --bin fig14_memory_sim [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::fig14_memory_sim(args.scale);
    args.emit_observability();
}
