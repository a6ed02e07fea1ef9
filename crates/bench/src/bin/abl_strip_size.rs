//! Regenerate one experiment: `cargo run --release -p sais-bench --bin abl_strip_size [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::abl_strip_size(args.scale);
    args.emit_observability();
}
