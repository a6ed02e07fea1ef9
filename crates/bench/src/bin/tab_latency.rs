//! Regenerate one experiment: `cargo run --release -p sais-bench --bin tab_latency [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::tab_latency(args.scale);
    args.emit_observability();
}
