//! Regenerate one experiment: `cargo run --release -p sais-bench --bin abl_policy_zoo [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::abl_policy_zoo(args.scale);
    args.emit_observability();
}
