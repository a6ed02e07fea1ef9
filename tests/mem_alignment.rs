//! Strip alignment guard: a paper cell's strips must reach the memory
//! system on extent-group boundaries, so almost every line takes an O(1)
//! group path instead of the exact per-line walk.
//!
//! This is a count, not a timing: the extent counters are a function of
//! the simulated access stream and repeat exactly per seed. With the
//! address space starting one line above zero, every 64 KiB strip
//! straddled 17 groups and this cell sent 10.4% (irqbalance) and 5.7%
//! (SAIs) of its lines through the walk; page-aligned, 5.6% and 1.2%.
//!
//! This cell interleaves 48 servers' strips on each core, so the chunks
//! of several strips land in one cache block between the two halves of
//! a chunk edge. With block recency, strip tags and group placement kept
//! as run lists of up to eight runs, those interleavings stay off both
//! slow paths: measured at 0 walked lines and 0 per-set fills under both
//! policies (of 694 and 640 prefix fills). The bounds below leave
//! margin for a change of the access stream, not for a return of the
//! per-set paths.

use sais::prelude::*;

#[test]
fn paper_cell_strips_stay_on_the_group_paths() {
    for policy in [PolicyChoice::LowestLoaded, PolicyChoice::SourceAware] {
        let mut cfg = ScenarioConfig::testbed_3gig(48, 512 << 10);
        cfg.file_size = 8 << 20;
        cfg.policy = policy;
        let (_, cluster) = cfg.run_full();
        let (mut fallback, mut touched, mut prefix, mut per_set) = (0, 0, 0, 0);
        for cl in &cluster.clients {
            let e = cl.mem.extent_stats();
            if !e.enabled {
                // `SAIS_MEM_NO_EXTENTS=1`: every line walks by design.
                return;
            }
            // Whole-group counters count 64-line groups.
            touched += 64 * (e.whole_hit_groups + e.whole_c2c_groups + e.whole_fill_groups)
                + e.partial_hit_lines
                + e.partial_c2c_lines
                + e.masked_fill_lines
                + e.fallback_lines;
            fallback += e.fallback_lines;
            prefix += e.prefix_fills;
            per_set += e.per_set_fills;
        }
        let share = fallback as f64 / touched as f64;
        assert!(
            share < 0.005,
            "{policy:?}: {fallback} of {touched} lines took the exact walk ({:.2}%)",
            share * 100.0
        );
        assert!(prefix > 0, "{policy:?}: no chunk edges");
        assert!(
            per_set * 100 <= prefix,
            "{policy:?}: {per_set} fills took the per-set path ({prefix} prefix fills)"
        );
    }
}
