//! Regenerate one experiment: `cargo run --release -p sais-bench --bin abl_irqbalance_granularity [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::abl_irqbalance_granularity(args.scale);
    args.emit_observability();
}
