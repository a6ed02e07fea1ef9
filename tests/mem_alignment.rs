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
//! Under SAIs the interrupt chunks of a strip land on its consuming
//! core, so a chunk edge can be served on the split path: the prefix
//! fill splits its cache block and the suffix fill collapses it. This
//! cell interleaves 48 servers' strips on each core, and another strip's
//! fill into the block between the two halves of an edge undoes the
//! split; 73 of its 640 prefix fills (11.4%) still collapse.

use sais::prelude::*;

#[test]
fn paper_cell_strips_stay_on_the_group_paths() {
    for (policy, bound) in [
        (PolicyChoice::LowestLoaded, 0.065),
        (PolicyChoice::SourceAware, 0.02),
    ] {
        let mut cfg = ScenarioConfig::testbed_3gig(48, 512 << 10);
        cfg.file_size = 8 << 20;
        cfg.policy = policy;
        let (_, cluster) = cfg.run_full();
        let (mut fallback, mut touched, mut prefix, mut split) = (0, 0, 0, 0);
        for cl in &cluster.clients {
            let e = cl.mem.extent_stats();
            if !e.enabled {
                // `SAIS_MEM_NO_EXTENTS=1`: every line walks by design.
                return;
            }
            // Whole-group counters count 64-line groups.
            touched += 64 * (e.whole_hit_groups + e.whole_c2c_groups + e.whole_fill_groups)
                + e.partial_hit_lines
                + e.masked_fill_lines
                + e.fallback_lines;
            fallback += e.fallback_lines;
            prefix += e.prefix_fills;
            split += e.split_fills;
        }
        let share = fallback as f64 / touched as f64;
        assert!(
            share < bound,
            "{policy:?}: {fallback} of {touched} lines took the exact walk ({:.2}%)",
            share * 100.0
        );
        if policy == PolicyChoice::SourceAware {
            let collapsed = split as f64 / prefix as f64;
            assert!(
                collapsed >= 0.10,
                "{split} of {prefix} prefix fills collapsed ({:.1}%)",
                collapsed * 100.0
            );
        }
    }
}
