//! Regenerate one experiment: `cargo run --release -p sais-bench --bin fig12_multiclient [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::fig12_multiclient(args.scale);
    args.emit_observability();
}
