//! Regenerate one experiment: `cargo run --release -p sais-bench --bin abl_write_path [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::abl_write_path(args.scale);
    args.emit_observability();
}
