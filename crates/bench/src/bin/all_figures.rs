//! Regenerate every table and figure: `cargo run --release -p sais-bench --bin all_figures [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::run_all(args.scale);
    args.emit_observability();
}
