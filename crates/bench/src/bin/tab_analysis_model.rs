//! Regenerate one experiment: `cargo run --release -p sais-bench --bin tab_analysis_model [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::tab_analysis_model(args.scale);
    args.emit_observability();
}
