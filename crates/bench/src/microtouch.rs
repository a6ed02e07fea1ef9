//! Memory-hierarchy regime microbench: ns/line for each steady-state
//! access regime the extent fast paths target.
//!
//! The scenarios exercise [`sais_mem::MemorySystem::touch`] through a few
//! sharply different regimes, and the tentpole optimisation (extent-grained
//! residency summaries) affects each differently. This module pins a
//! number on every regime so a perf change can be attributed — "hits got
//! 3× cheaper, streams are a wash" — instead of showing up only as a
//! scenario-level blur. The figure harness never calls this; the
//! `microtouch` example prints [`to_json`] of one run, which is the
//! committed record `BENCH_engine.json` at the repository root.
//!
//! Regimes:
//!
//! * `hit_replay` — an all-hit local replay of a resident strip: the
//!   whole-group promote path (summaries on) vs the per-line validated
//!   walk (summaries off).
//! * `c2c_pingpong` — a strip migrating wholesale between two cores each
//!   touch: the whole-extent invalidate+fill path.
//! * `cold_stream` — fresh group-aligned buffers, never touched again:
//!   the wholly-absent fill path with pristine (uniform) recency.
//! * `poisoned_stream` — the same streaming fills after a few short
//!   unaligned touches have knocked per-set recency out of lockstep, the
//!   write-path steady state: batched fills that cannot take the
//!   uniform-recency splat.
//! * `mixed_fallback` — 48-line replays of groups whose other 16 lines
//!   alternate between two cores two lines at a time: nine ownership
//!   runs are one more than a group's placement holds, so every touch
//!   takes the exact per-line fallback walk and the summaries only pay
//!   their maintenance cost.
//! * `chunk_edge` — each fresh strip arrives as six interrupt chunks
//!   sized the way `NicBond::receive_strip` sizes them (45 frames of
//!   1460 B, coalesced 8 to a batch), alternating between two handler
//!   cores, and is then consumed on a third: the cross-core minority of
//!   chunk edges, where the boundary line migrates between the chunks'
//!   cores and a partly filled group changes hands.
//! * `chunk_edge_local` — the same six chunks all on one core, which
//!   then reads the strip: the SAIs shape on a 1-Gig port, where every
//!   chunk edge is a prefix fill, a boundary-line hit and a suffix fill
//!   on the consuming core.
//! * `chunk_edge_interleaved` — three strips' chunks alternating on one
//!   core, then each strip read there: the SAIs shape on the 3-Gig
//!   testbed, where three ports deliver strips at once, so other
//!   strips' fills land in a cache block between the two halves of each
//!   chunk edge (the block's recency and the strips' tags then hold
//!   several runs).
//!
//! Each result carries the extent counters its timed loop added, so a
//! test can check that a regime takes the path it is named after, and
//! the min and median ns/line of [`REPEATS`] timed repetitions: one
//! sample of a few milliseconds spreads 1.3–1.9× on a noisy host.

use sais_mem::{AddrAlloc, AddrRange, ExtentStats, MemParams, MemorySystem};
use std::time::Instant;

/// One regime's measurement.
#[derive(Debug, Clone)]
pub struct RegimeResult {
    pub regime: &'static str,
    /// Nanoseconds of `touch` wall time per line touched: the median
    /// over the repetitions.
    pub ns_per_line: f64,
    /// The fastest repetition's ns/line.
    pub ns_per_line_min: f64,
    /// Lines touched by one repetition's timed loop (sanity anchor).
    pub lines: u64,
    /// Extent-path counters added by one repetition's timed loop.
    pub paths: ExtentStats,
}

/// Timed repetitions per regime in [`run_regimes`].
pub const REPEATS: usize = 5;

const STRIP_BYTES: u64 = 64 * 1024; // 1024 lines, 16 aligned groups

fn fresh(cores: usize) -> (MemorySystem, AddrAlloc) {
    let p = MemParams::sunfire_x4240();
    let alloc = AddrAlloc::new(p.line_size);
    (MemorySystem::new(cores, p), alloc)
}

fn per_line(dt_secs: f64, lines: u64) -> f64 {
    dt_secs * 1e9 / lines as f64
}

/// The extent counters `mem` gained since `before`.
fn paths_since(mem: &MemorySystem, before: ExtentStats) -> ExtentStats {
    let now = mem.extent_stats();
    ExtentStats {
        enabled: now.enabled,
        whole_hit_groups: now.whole_hit_groups - before.whole_hit_groups,
        whole_c2c_groups: now.whole_c2c_groups - before.whole_c2c_groups,
        whole_fill_groups: now.whole_fill_groups - before.whole_fill_groups,
        partial_hit_lines: now.partial_hit_lines - before.partial_hit_lines,
        partial_c2c_lines: now.partial_c2c_lines - before.partial_c2c_lines,
        masked_fill_lines: now.masked_fill_lines - before.masked_fill_lines,
        fallback_lines: now.fallback_lines - before.fallback_lines,
        prefix_fills: now.prefix_fills - before.prefix_fills,
        per_set_fills: now.per_set_fills - before.per_set_fills,
    }
}

/// All-hit replay of one resident strip on its owning core.
fn hit_replay(reps: u64) -> RegimeResult {
    let (mut mem, mut alloc) = fresh(8);
    let strip = alloc.alloc(STRIP_BYTES);
    mem.touch(3, strip);
    let mut lines = 0u64;
    let before = mem.extent_stats();
    let t0 = Instant::now();
    for _ in 0..reps {
        lines += mem.touch(3, strip).hits;
    }
    RegimeResult {
        regime: "hit_replay",
        ns_per_line: per_line(t0.elapsed().as_secs_f64(), lines),
        ns_per_line_min: 0.0,
        lines,
        paths: paths_since(&mem, before),
    }
}

/// Whole-strip migration between two cores on every touch.
fn c2c_pingpong(reps: u64) -> RegimeResult {
    let (mut mem, mut alloc) = fresh(8);
    let strip = alloc.alloc(STRIP_BYTES);
    // Seed on core 1: the timed loop starts at core 0, so every rep
    // (including the first) is a whole-strip migration.
    mem.touch(1, strip);
    let mut lines = 0u64;
    let before = mem.extent_stats();
    let t0 = Instant::now();
    for i in 0..reps {
        lines += mem.touch((i % 2) as usize, strip).c2c;
    }
    RegimeResult {
        regime: "c2c_pingpong",
        ns_per_line: per_line(t0.elapsed().as_secs_f64(), lines),
        ns_per_line_min: 0.0,
        lines,
        paths: paths_since(&mem, before),
    }
}

/// Streaming fills of fresh buffers; recency stays in per-set lockstep.
fn cold_stream(reps: u64) -> RegimeResult {
    let (mut mem, mut alloc) = fresh(8);
    let mut lines = 0u64;
    let before = mem.extent_stats();
    let t0 = Instant::now();
    for _ in 0..reps {
        let b = alloc.alloc(STRIP_BYTES);
        lines += mem.touch(2, b).dram;
    }
    RegimeResult {
        regime: "cold_stream",
        ns_per_line: per_line(t0.elapsed().as_secs_f64(), lines),
        ns_per_line_min: 0.0,
        lines,
        paths: paths_since(&mem, before),
    }
}

/// Streaming fills after short unaligned touches have decorrelated the
/// per-set recency permutations — the interrupt-heavy steady state,
/// where every batched fill picks a different victim way per set.
fn poisoned_stream(reps: u64) -> RegimeResult {
    let (mut mem, mut alloc) = fresh(8);
    // Fill the cache, then poison: short touches at irregular offsets hit
    // a few sets of each 64-set block, promoting different ways in
    // different sets.
    for _ in 0..16 {
        let b = alloc.alloc(STRIP_BYTES);
        mem.touch(2, b);
    }
    let poison = alloc.alloc(STRIP_BYTES);
    for k in 0..64u64 {
        let off = (k * 3 + 1) % 60;
        mem.touch(
            2,
            AddrRange::new(poison.start + (k * 16 + off) * 64, 3 * 64),
        );
    }
    let mut lines = 0u64;
    let before = mem.extent_stats();
    let t0 = Instant::now();
    for _ in 0..reps {
        let b = alloc.alloc(STRIP_BYTES);
        lines += mem.touch(2, b).dram;
    }
    RegimeResult {
        regime: "poisoned_stream",
        ns_per_line: per_line(t0.elapsed().as_secs_f64(), lines),
        ns_per_line_min: 0.0,
        lines,
        paths: paths_since(&mem, before),
    }
}

/// 48-line replays of the head of every group of a strip whose 16-line
/// tails alternate between cores 2 and 1 every two lines: with the head,
/// nine ownership runs, more than a group's placement holds, so every
/// touch takes the exact fallback walk.
fn mixed_fallback(reps: u64) -> RegimeResult {
    let (mut mem, mut alloc) = fresh(8);
    let strip = alloc.alloc(STRIP_BYTES);
    let line = 64u64;
    let parts: Vec<AddrRange> = (0..16)
        .map(|g| AddrRange::new(strip.start + g * 64 * line, 48 * line))
        .collect();
    for r in &parts {
        mem.touch(1, *r);
        for k in 0..8 {
            let pair = AddrRange::new(r.end() + 2 * k * line, 2 * line);
            mem.touch(2 - (k % 2) as usize, pair);
        }
    }
    let mut lines = 0u64;
    let before = mem.extent_stats();
    let t0 = Instant::now();
    for _ in 0..reps {
        for r in &parts {
            lines += mem.touch(1, *r).hits;
        }
    }
    RegimeResult {
        regime: "mixed_fallback",
        ns_per_line: per_line(t0.elapsed().as_secs_f64(), lines),
        ns_per_line_min: 0.0,
        lines,
        paths: paths_since(&mem, before),
    }
}

/// Byte sizes of a strip's interrupt chunks: `frames` frames coalesced
/// `per_batch` to an interrupt, the payload split pro rata by cumulative
/// frame count (the arithmetic of `NicBond::receive_strip`).
fn chunk_bytes(payload: u64, frames: u64, per_batch: u64) -> Vec<u64> {
    let batches = frames.div_ceil(per_batch);
    (1..=batches)
        .map(|b| {
            let cum = |b: u64| payload * (frames * b / batches) / frames;
            cum(b) - cum(b - 1)
        })
        .collect()
}

/// Fresh strips filled in interrupt-sized chunks on `core_of(chunk)`,
/// `together` strips at a time with their chunks interleaved, each strip
/// then read on `reader`. No chunk ends on a group boundary, so every
/// chunk starts and ends with a partial group.
fn chunked_strips(
    regime: &'static str,
    reps: u64,
    together: usize,
    core_of: impl Fn(usize) -> usize,
    reader: usize,
) -> RegimeResult {
    let (mut mem, mut alloc) = fresh(8);
    let chunks = chunk_bytes(STRIP_BYTES, STRIP_BYTES.div_ceil(1460), 8);
    let mut lines = 0u64;
    let before = mem.extent_stats();
    let t0 = Instant::now();
    for _ in 0..reps {
        let strips: Vec<AddrRange> = (0..together).map(|_| alloc.alloc(STRIP_BYTES)).collect();
        let mut off = 0;
        for (i, &bytes) in chunks.iter().enumerate() {
            for strip in &strips {
                lines += mem
                    .touch(core_of(i), AddrRange::new(strip.start + off, bytes))
                    .lines;
            }
            off += bytes;
        }
        for strip in &strips {
            lines += mem.touch(reader, *strip).lines;
        }
    }
    RegimeResult {
        regime,
        ns_per_line: per_line(t0.elapsed().as_secs_f64(), lines),
        ns_per_line_min: 0.0,
        lines,
        paths: paths_since(&mem, before),
    }
}

/// Chunks alternating between cores 0 and 1, read on core 2.
fn chunk_edge(reps: u64) -> RegimeResult {
    chunked_strips("chunk_edge", reps, 1, |i| i % 2, 2)
}

/// Every chunk and the read on core 0.
fn chunk_edge_local(reps: u64) -> RegimeResult {
    chunked_strips("chunk_edge_local", reps, 1, |_| 0, 0)
}

/// Three strips' chunks interleaved on core 0, each strip read there.
fn chunk_edge_interleaved(reps: u64) -> RegimeResult {
    chunked_strips("chunk_edge_interleaved", reps, 3, |_| 0, 0)
}

/// A regime: run it for a number of reps.
type Regime = fn(u64) -> RegimeResult;

/// Every regime with its default rep count (a few ms each), in record
/// order.
const REGIMES: [(Regime, u64); 8] = [
    (hit_replay, 20_000),
    (c2c_pingpong, 5_000),
    (cold_stream, 5_000),
    (poisoned_stream, 5_000),
    (mixed_fallback, 2_000),
    (chunk_edge, 2_000),
    (chunk_edge_local, 2_000),
    (chunk_edge_interleaved, 700),
];

/// Run every regime [`REPEATS`] times at the default rep counts, each
/// from a fresh system; report the median and the fastest repetition.
pub fn run_regimes() -> Vec<RegimeResult> {
    REGIMES
        .iter()
        .map(|&(run, reps)| {
            let mut runs: Vec<RegimeResult> = (0..REPEATS).map(|_| run(reps)).collect();
            runs.sort_by(|a, b| a.ns_per_line.total_cmp(&b.ns_per_line));
            let min = runs[0].ns_per_line;
            let mut median = runs.swap_remove(REPEATS / 2);
            median.ns_per_line_min = min;
            median
        })
        .collect()
}

/// Render `regimes` as `BENCH_engine.json`: one line per regime, and
/// whether the extent summaries were on (`SAIS_MEM_NO_EXTENTS=1` is off).
pub fn to_json(regimes: &[RegimeResult]) -> String {
    let on = regimes.iter().all(|r| r.paths.enabled);
    let rows: Vec<String> = regimes
        .iter()
        .map(|r| {
            format!(
                "    {{\"regime\": \"{}\", \"ns_per_line\": {:.3}, \"ns_per_line_min\": {:.3}, \"lines\": {}}}",
                r.regime, r.ns_per_line, r.ns_per_line_min, r.lines
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"sais-microtouch/v2\",\n  \"extents\": \"{}\",\n  \"microtouch\": [\n{}\n  ]\n}}\n",
        if on { "on" } else { "off" },
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sais_obs::json::JsonValue;

    #[test]
    fn committed_record_is_what_to_json_renders() {
        let text = include_str!("../../../BENCH_engine.json");
        let doc = JsonValue::parse(text).expect("valid JSON");
        let field = |r: &JsonValue, key| r.get(key).and_then(JsonValue::as_f64).unwrap();
        let enabled = doc.get("extents").and_then(JsonValue::as_str) == Some("on");
        let regimes: Vec<RegimeResult> = doc
            .get("microtouch")
            .and_then(JsonValue::as_array)
            .expect("microtouch section")
            .iter()
            .map(|r| RegimeResult {
                regime: String::leak(r.get("regime").and_then(JsonValue::as_str).unwrap().into()),
                ns_per_line: field(r, "ns_per_line"),
                ns_per_line_min: field(r, "ns_per_line_min"),
                lines: field(r, "lines") as u64,
                paths: ExtentStats {
                    enabled,
                    ..ExtentStats::default()
                },
            })
            .collect();
        assert_eq!(to_json(&regimes), text);
        // The record names every regime `run_regimes` produces, in order.
        let committed: Vec<&str> = regimes.iter().map(|r| r.regime).collect();
        let produced: Vec<&str> = run_regimes_quick().iter().map(|r| r.regime).collect();
        assert_eq!(committed, produced, "refresh BENCH_engine.json");
    }

    #[test]
    fn regimes_touch_the_lines_they_claim() {
        // Tiny rep counts: pin the line accounting, not the timing.
        let r = hit_replay(3);
        assert_eq!(r.lines, 3 * 1024);
        let r = c2c_pingpong(3);
        assert_eq!(r.lines, 3 * 1024);
        let r = cold_stream(3);
        assert_eq!(r.lines, 3 * 1024);
        let r = poisoned_stream(3);
        assert_eq!(r.lines, 3 * 1024);
        let r = mixed_fallback(3);
        assert_eq!(r.lines, 3 * 16 * 48);
        // Six chunks of 10,194-11,651 B: all five chunk edges split a
        // line between two chunks, and the consuming read touches 1024.
        assert_eq!(
            chunk_bytes(STRIP_BYTES, 45, 8),
            [10194, 11651, 10194, 11651, 10195, 11651]
        );
        let r = chunk_edge(3);
        assert_eq!(r.lines, 3 * (1024 + 5 + 1024));
        let r = chunk_edge_local(3);
        assert_eq!(r.lines, 3 * (1024 + 5 + 1024));
        let r = chunk_edge_interleaved(3);
        assert_eq!(r.lines, 3 * 3 * (1024 + 5 + 1024));
        for r in run_regimes_quick() {
            assert!(r.ns_per_line.is_finite() && r.ns_per_line > 0.0);
        }
    }

    #[test]
    fn regimes_take_the_paths_they_are_named_after() {
        let reps = 3;
        let groups = reps * 16;
        // (whole hits, whole c2c, whole fills, fallback lines); every
        // other counter must stay zero.
        let paths = |hit, c2c, fill, fallback| ExtentStats {
            enabled: true,
            whole_hit_groups: hit,
            whole_c2c_groups: c2c,
            whole_fill_groups: fill,
            fallback_lines: fallback,
            ..ExtentStats::default()
        };
        let cases = [
            (hit_replay(reps), paths(groups, 0, 0, 0)),
            (c2c_pingpong(reps), paths(0, groups, 0, 0)),
            (cold_stream(reps), paths(0, 0, groups, 0)),
            (
                poisoned_stream(reps),
                ExtentStats {
                    // Decorrelated blocks need more than eight recency
                    // runs: every fill takes the per-set path.
                    per_set_fills: groups,
                    ..paths(0, 0, groups, 0)
                },
            ),
            (mixed_fallback(reps), paths(0, 0, 0, groups * 48)),
        ];
        for (r, want) in cases {
            // `SAIS_MEM_NO_EXTENTS=1` turns every path off.
            if r.paths.enabled {
                assert_eq!(r.paths, want, "{}", r.regime);
            }
        }
        // Cross-core chunk edges: the partial groups at each edge take
        // the masked fill and the boundary line migrates by placement
        // run, the groups a chunk covers whole take the group fill, and
        // the two-owner groups the reader then meets are served run by
        // run: nothing walks.
        let r = chunk_edge(reps);
        if r.paths.enabled {
            assert!(r.paths.masked_fill_lines > 0, "{:?}", r.paths);
            assert!(r.paths.whole_fill_groups > 0, "{:?}", r.paths);
            assert!(r.paths.partial_c2c_lines > 0, "{:?}", r.paths);
            assert_eq!(r.paths.fallback_lines, 0, "{:?}", r.paths);
            assert_eq!(r.paths.per_set_fills, 0, "{:?}", r.paths);
        }
        // One core throughout, one strip or three interleaved: every one
        // of the five edges per strip is a prefix fill that splits its
        // block's recency runs, a boundary-line hit, and a suffix fill;
        // the read then hits all 16 groups whole. No fill goes per set
        // and nothing walks.
        for (r, strips) in [
            (chunk_edge_local(reps), 1),
            (chunk_edge_interleaved(reps), 3),
        ] {
            if r.paths.enabled {
                let edges = reps * 5 * strips;
                assert_eq!(r.paths.prefix_fills, edges, "{:?}", r.paths);
                assert_eq!(r.paths.per_set_fills, 0, "{:?}", r.paths);
                assert_eq!(r.paths.partial_hit_lines, edges, "{:?}", r.paths);
                assert_eq!(r.paths.whole_hit_groups, groups * strips, "{:?}", r.paths);
                assert_eq!(r.paths.fallback_lines, 0, "{:?}", r.paths);
            }
        }
    }

    fn run_regimes_quick() -> Vec<RegimeResult> {
        REGIMES.iter().map(|&(run, _)| run(2)).collect()
    }
}
