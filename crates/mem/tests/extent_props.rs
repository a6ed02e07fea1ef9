//! Adversarial property tests for the extent-grained fast paths.
//!
//! The geometries here have at least 64 sets, so the extent summaries
//! are *active* (the configs in `props.rs` are all below the gate and
//! exercise the exact walk only). Every test drives shapes chosen to
//! stress the summary bookkeeping: unaligned and short ranges, strips
//! straddling group boundaries, way-conflict storms that evict lines
//! out of the middle of a summarized group, and interleaved multi-core
//! touches that flip groups between whole, mixed and empty.

use proptest::prelude::*;
use sais_mem::{AddrRange, LineAddr, MemParams, MemorySystem};

/// A geometry above the extent gate: 64 sets of `assoc` ways. Lines 64
/// apart alias the same set, so consecutive groups fight for ways and
/// evictions land inside previously summarized groups.
fn params_64_sets(assoc: usize) -> MemParams {
    let mut p = MemParams::tiny_test();
    p.l2_bytes = p.line_size * 64 * assoc as u64;
    p.l2_ways = assoc;
    p
}

fn assert_equivalent(a: &MemorySystem, b: &MemorySystem, cores: usize, lines: u64) {
    for c in 0..cores {
        let (fa, fb) = (&a.cache(c).stats, &b.cache(c).stats);
        assert_eq!(fa.accesses.get(), fb.accesses.get(), "accesses, core {c}");
        assert_eq!(fa.hits.get(), fb.hits.get(), "hits, core {c}");
        assert_eq!(fa.misses.get(), fb.misses.get(), "misses, core {c}");
        assert_eq!(
            fa.evictions.get(),
            fb.evictions.get(),
            "evictions, core {c}"
        );
        assert_eq!(
            fa.invalidations.get(),
            fb.invalidations.get(),
            "invalidations, core {c}"
        );
        assert_eq!(
            a.cache(c).resident(),
            b.cache(c).resident(),
            "resident, core {c}"
        );
    }
    assert_eq!(a.c2c_transfers(), b.c2c_transfers());
    assert_eq!(a.dram_fetches(), b.dram_fetches());
    for l in 0..lines {
        assert_eq!(
            a.owner_of(LineAddr(l)),
            b.owner_of(LineAddr(l)),
            "ownership diverged on line {l}"
        );
    }
}

proptest! {
    /// The extent-summarized walk is bit-identical to the scanning
    /// oracle on every shape: group-aligned whole strips, unaligned and
    /// short ranges, group-straddling strips, and interleaved touches
    /// from four cores. Ranges span 0..320 lines (five groups) against
    /// 64-set caches, so group N+1 evicts group N's lines at low
    /// associativity — the way-conflict storm that punches holes in
    /// summarized groups.
    #[test]
    fn extent_touch_matches_reference(
        assoc in 1usize..4,
        ops in proptest::collection::vec(
            (0usize..4, 0u64..320u64, 1u64..160u64), 1..80
        )
    ) {
        let p = params_64_sets(assoc);
        let line = p.line_size;
        let cores = 4;
        let mut fast = MemorySystem::new(cores, p.clone());
        let mut slow = MemorySystem::new(cores, p);
        prop_assert!(fast.extents_enabled(), "64 sets must enable the summaries");
        for &(core, start_line, len_lines) in &ops {
            let r = AddrRange::new(start_line * line, len_lines * line);
            let cf = fast.touch(core, r);
            let cs = slow.touch_reference(core, r);
            prop_assert_eq!(cf, cs, "classification diverged on {:?} at core {}", r, core);
        }
        assert_equivalent(&fast, &slow, cores, 512);
        fast.check_invariants();
        slow.check_invariants();
    }

    /// Summaries disabled (`disable_extents`, the `SAIS_MEM_NO_EXTENTS`
    /// path) and enabled produce bit-identical systems — the forced
    /// fallback is the same walk, not a similar one.
    #[test]
    fn disabled_extents_bit_identical(
        assoc in 1usize..4,
        ops in proptest::collection::vec(
            (0usize..3, 0u64..256u64, 1u64..130u64), 1..80
        )
    ) {
        let p = params_64_sets(assoc);
        let line = p.line_size;
        let cores = 3;
        let mut on = MemorySystem::new(cores, p.clone());
        let mut off = MemorySystem::new(cores, p);
        off.disable_extents();
        prop_assert!(!off.extents_enabled());
        for &(core, start_line, len_lines) in &ops {
            let r = AddrRange::new(start_line * line, len_lines * line);
            let ca = on.touch(core, r);
            let cb = off.touch(core, r);
            prop_assert_eq!(ca, cb, "classification diverged on {:?} at core {}", r, core);
        }
        assert_equivalent(&on, &off, cores, 512);
        on.check_invariants();
    }

    /// Interleaving the reference walk and the batched walk on one
    /// system keeps the summaries exact: the oracle maintains them too,
    /// so a fast touch can consume state the reference path produced
    /// (and vice versa) without drift.
    #[test]
    fn reference_and_fast_interleave_on_one_system(
        ops in proptest::collection::vec(
            (0usize..3, 0u64..256u64, 1u64..96u64, any::<bool>()), 1..60
        )
    ) {
        let p = params_64_sets(2);
        let line = p.line_size;
        let cores = 3;
        let mut mixed = MemorySystem::new(cores, p.clone());
        let mut slow = MemorySystem::new(cores, p);
        for &(core, start_line, len_lines, use_fast) in &ops {
            let r = AddrRange::new(start_line * line, len_lines * line);
            let cm = if use_fast {
                mixed.touch(core, r)
            } else {
                mixed.touch_reference(core, r)
            };
            let cs = slow.touch_reference(core, r);
            prop_assert_eq!(cm, cs, "classification diverged on {:?} at core {}", r, core);
        }
        assert_equivalent(&mixed, &slow, cores, 512);
        mixed.check_invariants();
    }

    /// Preload interacts with the summaries exactly like fills do.
    #[test]
    fn preload_keeps_summaries_exact(
        ops in proptest::collection::vec(
            (0usize..3, 0u64..192u64, 1u64..96u64, any::<bool>()), 1..50
        )
    ) {
        let p = params_64_sets(2);
        let line = p.line_size;
        let mut m = MemorySystem::new(3, p);
        for &(core, start_line, len_lines, preload) in &ops {
            let r = AddrRange::new(start_line * line, len_lines * line);
            if preload {
                m.preload(core, r);
            } else {
                m.touch(core, r);
            }
        }
        m.check_invariants();
    }
}

/// Byte sizes of a strip's interrupt chunks: `frames` frames coalesced
/// `per_batch` to an interrupt, the payload split pro rata by cumulative
/// frame count (the arithmetic of `NicBond::receive_strip`).
fn chunk_bytes(payload: u64, frames: u64, per_batch: u64) -> Vec<u64> {
    let batches = frames.div_ceil(per_batch);
    let cum = |b: u64| payload * (frames * b / batches) / frames;
    (1..=batches).map(|b| cum(b) - cum(b - 1)).collect()
}

/// Touch `r` from `core` on both systems and require bit-identity with
/// the oracle — counts, statistics, transfers, ownership — plus the
/// fast system's invariants.
fn step(fast: &mut MemorySystem, slow: &mut MemorySystem, core: usize, r: AddrRange, lines: u64) {
    let cf = fast.touch(core, r);
    let cs = slow.touch_reference(core, r);
    assert_eq!(cf, cs, "classification diverged on {r:?} at core {core}");
    assert_equivalent(fast, slow, fast.cores(), lines);
    fast.check_invariants();
}

proptest! {
    /// Strips filled the way interrupts fill them: cut into chunks of up
    /// to 12 KB at byte offsets that are not line-aligned, so
    /// neighbouring chunks share a boundary line, each chunk on the
    /// previous chunk's core with probability about 0.85, else on
    /// another. Interleaved are
    /// touches from other cores into the same cache blocks, and
    /// whole-strip reads. A ring of four 16 KiB strips over 64-set
    /// caches keeps every strip's groups fighting for one block's ways.
    /// After every step the fast system must match the oracle exactly.
    #[test]
    fn chunked_fills_match_reference(
        assoc in 1usize..4,
        steps in proptest::collection::vec(
            ((1u64..12_000, 0u8..100, 1usize..3), (0u8..10, 0u64..256, 1u64..80)), 1..100
        )
    ) {
        const STRIP: u64 = 16 << 10;
        let p = params_64_sets(assoc);
        let line = p.line_size;
        let ring = 4 * STRIP / line;
        let mut fast = MemorySystem::new(3, p.clone());
        let mut slow = MemorySystem::new(3, p);
        let (mut strip, mut cursor, mut core) = (0u64, 0u64, 0usize);
        for &((size, stay, hop), (kind, off, len)) in &steps {
            let base = strip % 4 * STRIP;
            match kind {
                0..=7 => {
                    if stay >= 85 {
                        core = (core + hop) % 3;
                    }
                    let size = size.min(STRIP - cursor);
                    step(&mut fast, &mut slow, core, AddrRange::new(base + cursor, size), ring);
                    cursor += size;
                    if cursor == STRIP {
                        (strip, cursor) = (strip + 1, 0);
                    }
                }
                8 => {
                    let other = (core + hop) % 3;
                    let start = base + off * line;
                    let r = AddrRange::new(start, (len * line).min(4 * STRIP - start));
                    step(&mut fast, &mut slow, other, r, ring);
                }
                _ => step(&mut fast, &mut slow, core, AddrRange::new(base, STRIP), ring),
            }
        }
        slow.check_invariants();
    }
}

proptest! {
    /// The 3-Gig testbed's shape: two to four strips arrive at once (one
    /// per bonded port), their interrupt chunks interleaved round-robin
    /// on one consuming core, each chunk staying on the previous chunk's
    /// core with probability 0.85. Between chunks come whole-strip reads
    /// and cross-core migrations of a strip. Over 64- and 128-set caches
    /// the strips' chunk edges share blocks, so block recency, strip tags
    /// and group placements all carry several runs (and sometimes more
    /// than eight). After every step the fast system must match the
    /// oracle exactly and keep its invariants.
    #[test]
    fn interleaved_strip_chunks_match_reference(
        sets in prop_oneof![Just(64usize), Just(128usize)],
        assoc in 2usize..5,
        together in 2usize..5,
        steps in proptest::collection::vec((0u8..100, 0u8..12, 1usize..4, 1u64..9_000), 1..80)
    ) {
        const STRIP: u64 = 16 << 10;
        let mut p = params_64_sets(assoc);
        p.l2_bytes = p.line_size * (sets * assoc) as u64;
        let line = p.line_size;
        let ring = 8 * STRIP / line;
        let mut fast = MemorySystem::new(4, p.clone());
        let mut slow = MemorySystem::new(4, p);
        // Per strip slot: byte cursor; strips are recycled round the ring.
        let mut cursor = vec![0u64; together];
        let mut base: Vec<u64> = (0..together as u64).collect();
        let mut next = together as u64;
        let (mut core, mut turn) = (0usize, 0usize);
        for &(stay, kind, hop, size) in &steps {
            let at = |slot: u64| slot % 8 * STRIP;
            match kind {
                0..=8 => {
                    if stay >= 85 {
                        core = (core + hop) % 4;
                    }
                    let k = turn % together;
                    turn += 1;
                    let size = size.min(STRIP - cursor[k]);
                    let r = AddrRange::new(at(base[k]) + cursor[k], size);
                    step(&mut fast, &mut slow, core, r, ring);
                    cursor[k] += size;
                    if cursor[k] == STRIP {
                        step(&mut fast, &mut slow, core, AddrRange::new(at(base[k]), STRIP), ring);
                        (base[k], cursor[k], next) = (next, 0, next + 1);
                    }
                }
                9 | 10 => {
                    let k = hop % together;
                    step(&mut fast, &mut slow, core, AddrRange::new(at(base[k]), STRIP), ring);
                }
                _ => {
                    let (k, other) = (hop % together, (core + hop) % 4);
                    step(&mut fast, &mut slow, other, AddrRange::new(at(base[k]), STRIP), ring);
                }
            }
        }
        slow.check_invariants();
    }
}

#[test]
fn same_core_chunk_edges_stay_on_the_run_lists() {
    // The dominant SAIs shape: every chunk of a strip, and then its
    // read, on one core. All five chunk edges of every strip are a
    // prefix fill (splitting the block's recency runs), a boundary-line
    // hit and a suffix fill (merging them back); no fill takes the
    // per-set path and no line walks, while the system stays
    // bit-identical to the oracle.
    let p = params_64_sets(2);
    let mut fast = MemorySystem::new(2, p.clone());
    let mut slow = MemorySystem::new(2, p);
    let strip = 64u64 << 10;
    let chunks = chunk_bytes(strip, strip.div_ceil(1460), 8);
    assert!(
        chunks.iter().all(|c| c % 64 != 0),
        "every edge splits a line"
    );
    let strips = 6;
    for s in 0..strips {
        let mut off = s * strip;
        for &c in &chunks {
            step(&mut fast, &mut slow, 1, AddrRange::new(off, c), 6 * 1024);
            off += c;
        }
        step(
            &mut fast,
            &mut slow,
            1,
            AddrRange::new(s * strip, strip),
            6 * 1024,
        );
    }
    let e = fast.extent_stats();
    let edges = strips * (chunks.len() as u64 - 1);
    assert_eq!(e.prefix_fills, edges, "{e:?}");
    assert_eq!(e.per_set_fills, 0, "{e:?}");
    assert_eq!(e.fallback_lines, 0, "{e:?}");
}

#[test]
fn fast_paths_engage_on_canonical_regimes() {
    // Deterministic witness that the O(1) paths actually run: cold
    // sequential fill, all-hit replay, whole-extent migration.
    let p = params_64_sets(2);
    let line = p.line_size;
    let mut m = MemorySystem::new(2, p);
    assert!(m.extents_enabled());
    let strip = AddrRange::new(0, 128 * line); // two aligned groups

    let c = m.touch(0, strip);
    assert_eq!(c.dram, 128);
    assert_eq!(
        m.extent_stats().whole_fill_groups,
        2,
        "cold fill is O(1) per group"
    );

    let c = m.touch(0, strip);
    assert_eq!(c.hits, 128);
    assert_eq!(
        m.extent_stats().whole_hit_groups,
        2,
        "replay is O(1) per group"
    );

    let c = m.touch(1, strip);
    assert_eq!(c.c2c, 128);
    assert_eq!(
        m.extent_stats().whole_c2c_groups,
        2,
        "migration is O(1) per group"
    );
    assert_eq!(
        m.extent_stats().fallback_lines,
        0,
        "no exact-walk lines in these regimes"
    );
    m.check_invariants();
}

#[test]
fn way_conflict_storm_demotes_summary_and_stays_exact() {
    // assoc 1, 64 sets: group 1 aliases group 0 set-for-set, so touching
    // it evicts every line of the summarized group 0. The summary must
    // degrade to empty and the next replay must classify as DRAM again,
    // exactly like the oracle.
    let p = params_64_sets(1);
    let line = p.line_size;
    let mut fast = MemorySystem::new(1, p.clone());
    let mut slow = MemorySystem::new(1, p);
    let g0 = AddrRange::new(0, 64 * line);
    let g1 = AddrRange::new(64 * line, 64 * line);
    for (sys, reference) in [(&mut fast, false), (&mut slow, true)] {
        let t = |s: &mut MemorySystem, r| {
            if reference {
                s.touch_reference(0, r)
            } else {
                s.touch(0, r)
            }
        };
        assert_eq!(t(sys, g0).dram, 64);
        assert_eq!(t(sys, g0).hits, 64);
        assert_eq!(
            t(sys, g1).dram,
            64,
            "aliasing fill evicts group 0 wholesale"
        );
        assert_eq!(t(sys, g0).dram, 64, "group 0 must re-fetch after the storm");
    }
    assert_equivalent(&fast, &slow, 1, 128);
    fast.check_invariants();
}

#[test]
fn partial_eviction_inside_summarized_group_splits_on_the_mask() {
    // Punch a 3-line hole in a wholly-owned group via a sub-group
    // aliasing touch (assoc 1): the group drops to Mixed, but its
    // resident lines stay uniform and local, so the next full touch is
    // served by the residency mask — hit runs promoted, the hole
    // re-filled as a masked fill — with no exact-walk lines, while
    // staying bit-identical to the oracle.
    let p = params_64_sets(1);
    let line = p.line_size;
    let mut fast = MemorySystem::new(1, p.clone());
    let mut slow = MemorySystem::new(1, p);
    let g0 = AddrRange::new(0, 64 * line);
    let hole = AddrRange::new((64 + 20) * line, 3 * line); // evicts lines 20..23
    for sys in [&mut fast, &mut slow] {
        sys.touch(0, g0);
    }
    let cf = fast.touch(0, hole);
    let cs = slow.touch_reference(0, hole);
    assert_eq!(cf, cs);
    let before = fast.extent_stats();
    let cf = fast.touch(0, g0);
    let cs = slow.touch_reference(0, g0);
    assert_eq!(cf, cs);
    assert_eq!(cf.hits, 61);
    assert_eq!(cf.dram, 3);
    let after = fast.extent_stats();
    assert_eq!(
        after.fallback_lines, before.fallback_lines,
        "a uniform holed group must stay off the exact walk"
    );
    assert_eq!(
        after.partial_hit_lines - before.partial_hit_lines,
        61,
        "resident runs served by the mask"
    );
    assert_eq!(
        after.masked_fill_lines - before.masked_fill_lines,
        3,
        "the hole re-filled as a masked fill"
    );
    assert_equivalent(&fast, &slow, 1, 128);
    fast.check_invariants();
}
