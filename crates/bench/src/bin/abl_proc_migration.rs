//! Regenerate one experiment: `cargo run --release -p sais-bench --bin abl_proc_migration [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::abl_proc_migration(args.scale);
    args.emit_observability();
}
