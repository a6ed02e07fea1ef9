//! Print `BENCH_engine.json`: ns/line for every memory-hierarchy access
//! regime, with the extent summaries in whichever mode the environment
//! selects (`SAIS_MEM_NO_EXTENTS=1` forces the per-line walk
//! process-wide). Refresh the committed record with
//! `cargo run --release -p sais-bench --example microtouch > BENCH_engine.json`.

use sais_bench::microtouch::{run_regimes, to_json};

fn main() {
    print!("{}", to_json(&run_regimes()));
}
