//! Regenerate one experiment: `cargo run --release -p sais-bench --bin fig06_missrate_1gig [--quick|--full] [--obs <dir>]`.
fn main() {
    let args = sais_bench::BenchArgs::parse();
    sais_bench::figures::fig06_missrate_1gig(args.scale);
    args.emit_observability();
}
