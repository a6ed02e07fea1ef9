//! Relabeling invariance: shifting every address by the same number of
//! lines changes no simulated result.
//!
//! A line's set is `line mod sets` and all replacement state is per set,
//! so a uniform shift by `k` lines only renames the sets. The extent
//! summaries change *which* path serves a touch (a strip aligned in one
//! frame straddles groups in the other), never what it reports. This is
//! what lets `AddrAlloc` choose its base address for speed: the tests
//! replay one touch program in two frames, `k` drawn from every residue
//! modulo the group size and beyond it, with the summaries on and after
//! `disable_extents`.

use proptest::prelude::*;
use sais_mem::{AccessCounts, AddrRange, LineAddr, MemParams, MemorySystem};

const CORES: usize = 3;

/// A geometry above the extent gate: `sets` sets of `assoc` ways.
fn params(sets: u64, assoc: usize) -> MemParams {
    let mut p = MemParams::tiny_test();
    p.l2_bytes = p.line_size * sets * assoc as u64;
    p.l2_ways = assoc;
    p
}

/// One touch: `(core, first line, lines)` in the unshifted frame.
type Op = (usize, u64, u64);

/// The drawn ops, with about half the ranges widened to whole 64-line
/// groups in the unshifted frame (strip-shaped, so a shift moves them
/// off the group grid); the rest stay arbitrary.
fn program(raw: &[(usize, u64, u64, bool)]) -> Vec<Op> {
    raw.iter()
        .map(|&(core, start, len, aligned)| {
            if aligned {
                (core, start & !63, (len + 63) & !63)
            } else {
                (core, start, len)
            }
        })
        .collect()
}

/// Replay `ops` shifted by `k` lines, disabling the summaries before op
/// `off_at` (never when `off_at >= ops.len()`). Returns the system and
/// every touch's counts.
fn replay(p: &MemParams, ops: &[Op], k: u64, off_at: usize) -> (MemorySystem, Vec<AccessCounts>) {
    let line = p.line_size;
    let mut m = MemorySystem::new(CORES, p.clone());
    assert!(m.extents_enabled(), "geometry must enable the summaries");
    let counts = ops
        .iter()
        .enumerate()
        .map(|(i, &(core, start, len))| {
            if i == off_at {
                m.disable_extents();
            }
            m.touch(core, AddrRange::new((start + k) * line, len * line))
        })
        .collect();
    (m, counts)
}

/// Every observable of `a` equals that of `b` read `k` lines higher.
fn assert_relabeled(a: &MemorySystem, b: &MemorySystem, k: u64, lines: u64) {
    for c in 0..CORES {
        let (sa, sb) = (&a.cache(c).stats, &b.cache(c).stats);
        assert_eq!(sa.accesses.get(), sb.accesses.get(), "accesses, core {c}");
        assert_eq!(sa.hits.get(), sb.hits.get(), "hits, core {c}");
        assert_eq!(sa.misses.get(), sb.misses.get(), "misses, core {c}");
        assert_eq!(
            sa.evictions.get(),
            sb.evictions.get(),
            "evictions, core {c}"
        );
        assert_eq!(
            sa.invalidations.get(),
            sb.invalidations.get(),
            "invalidations, core {c}"
        );
        assert_eq!(
            a.cache(c).resident(),
            b.cache(c).resident(),
            "resident, core {c}"
        );
    }
    assert_eq!(a.c2c_transfers(), b.c2c_transfers(), "c2c transfers");
    assert_eq!(a.dram_fetches(), b.dram_fetches(), "dram fetches");
    for l in 0..lines {
        assert_eq!(
            a.owner_of(LineAddr(l)),
            b.owner_of(LineAddr(l + k)),
            "owner of line {l} (shift {k})"
        );
    }
}

fn check_shift(p: &MemParams, ops: &[Op], k: u64, off_at: usize) {
    let (a, ca) = replay(p, ops, 0, off_at);
    let (b, cb) = replay(p, ops, k, off_at);
    for (i, (x, y)) in ca.iter().zip(&cb).enumerate() {
        assert_eq!(x, y, "touch {i} {:?} diverged at shift {k}", ops[i]);
    }
    assert_relabeled(&a, &b, k, 800);
    a.check_invariants();
    b.check_invariants();
}

proptest! {
    /// Random multi-core programs over 0..576 lines (nine groups)
    /// against 64- and 128-set caches of 1–3 ways, so groups conflict
    /// for ways and evictions punch holes in summarized groups. The
    /// first replay pair keeps the summaries on throughout; the second
    /// disables them at a drawn op (0 = before the first touch).
    #[test]
    fn shifted_programs_report_identically(
        wide in any::<bool>(),
        assoc in 1usize..4,
        k in 0u64..=128,
        raw in proptest::collection::vec(
            (0usize..CORES, 0u64..384, 1u64..192, any::<bool>()), 1..60
        ),
        off_at in 0usize..60,
    ) {
        let p = params(if wide { 128 } else { 64 }, assoc);
        let ops = program(&raw);
        check_shift(&p, &ops, k, usize::MAX);
        check_shift(&p, &ops, k, off_at);
    }
}

/// Every shift in 0..=128 on one fixed strip-shaped program: strips
/// filled on one core, replayed, migrated to another, and read in short
/// chunks, with enough strips to evict earlier ones.
#[test]
fn every_shift_up_to_two_groups_reports_identically() {
    let p = params(128, 2);
    let mut ops = Vec::new();
    for s in 0..6u64 {
        let start = s * 128;
        ops.push(((s % 3) as usize, start, 128));
        ops.push(((s % 3) as usize, start, 128));
        ops.push((((s + 1) % 3) as usize, start, 128));
        for c in 0..4 {
            ops.push(((s % 2) as usize, start + c * 24 + 5, 24));
        }
    }
    for k in 0..=128 {
        check_shift(&p, &ops, k, usize::MAX);
        check_shift(&p, &ops, k, ops.len() / 2);
    }
}
