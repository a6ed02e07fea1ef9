//! Regenerate one experiment: `cargo run --release -p sais-bench --bin abl_mp_ratio [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::abl_mp_ratio(args.scale);
    args.emit_observability();
}
