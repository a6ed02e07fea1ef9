//! Regenerate one experiment: `cargo run --release -p sais-bench --bin abl_memsim_readahead [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::abl_memsim_readahead(args.scale);
    args.emit_observability();
}
