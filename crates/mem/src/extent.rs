//! Extent-grained residency summaries over the line directory.
//!
//! One summary per aligned [`GROUP_LINES`]-line group of the address
//! space: a 64-bit **residency mask** (bit `j` set ⇔ line `64·g + j`
//! resident somewhere in the system) and a **placement**, up to eight
//! runs of lines `(first line, owner, way)` saying where the resident
//! lines sit (see [`crate::runs`]). The summary lets
//! [`crate::MemorySystem::touch`] serve a group run by run — local hit
//! runs as batched promotions, remote runs as batched invalidations plus
//! fills, absent runs as batched fills — and fall back to the exact
//! per-line walk only for a group whose placement needs more than eight
//! runs, making the walk's cost proportional to *ownership boundaries*
//! rather than lines.
//!
//! **The placement is the directory of a placed group.** Line `L` lives
//! at set `L mod sets`, so `(owner, way)` implies the way slot, and the
//! fills of a placed group leave its directory span unwritten. The span
//! is written from the summary (mask bits only) and the placement
//! dropped — the group becomes a *directory group* — in exactly two
//! cases: a fill would need a ninth run ([`ExtentMap::apply_fills`]
//! hands the caller the lines to write), or something is about to read
//! the group's entries ([`ExtentMap::take_placement`]). Evictions and
//! invalidations only clear mask bits, so they never need the span, and
//! a run left with no resident line is free to be folded into a
//! neighbour. Stale directory entries are harmless throughout: every
//! directory read is validated against the owning cache's tags, which
//! remain ground truth.
//!
//! The masks are **exact**, not hints: every fill sets bits and every
//! eviction or invalidation clears them, at every mutation site of the
//! memory system (`touch`, `touch_reference`, `fill`, `preload`). A
//! drained group (mask 0) forgets its placement; its next fill seeds a
//! new one.
//!
//! Exactness leans on one geometric invariant, asserted by the memory
//! system before it enables summaries: caches have at least
//! `GROUP_LINES` sets. Then an aligned group maps onto `GROUP_LINES`
//! *distinct, consecutive* sets (no wrap: the set count is a power of
//! two and the group is aligned to it), and a fill's victim — same set,
//! line number differing by a nonzero multiple of the set count — can
//! never belong to the group being filled. Both the run-by-run touch
//! and the batched bookkeeping below depend on that.

use crate::runs::{Runs, SPAN};

/// Lines per summarized group (and the log2 shift from line to group).
pub(crate) const GROUP_SHIFT: u32 = 6;
pub(crate) const GROUP_LINES: u64 = 1 << GROUP_SHIFT;
pub(crate) const GROUP_MASK: u64 = GROUP_LINES - 1;

/// A placement run's value: `(owner << 8) | way`.
pub(crate) type Place = u16;

/// Pack an owner core and a way into a placement value.
#[inline(always)]
pub(crate) fn place(owner: u32, way: u32) -> Place {
    debug_assert!(owner < 256 && way < 256);
    ((owner << 8) | way) as Place
}

/// The `(owner, way)` of a placement value.
#[inline(always)]
pub(crate) fn owner_way(p: Place) -> (u32, u32) {
    ((p >> 8) as u32, (p & 0xFF) as u32)
}

/// One group's summary: 16 bytes, so a stream through fresh groups
/// moves little more memory than the bare residency mask would.
#[derive(Debug, Clone, Copy)]
struct Summary {
    /// Bit `j` ⇔ line `64·g + j` resident somewhere.
    mask: u64,
    /// The placement when it is one run; [`DIRECTORY`] for a directory
    /// group. Meaningless while `more != 0` or the group is drained.
    one: Place,
    /// `index + 1` of the group's placement in [`ExtentMap::side`] when
    /// it needs two to eight runs, else 0.
    more: u32,
}

/// `Summary::one` of a directory group: no real `(owner, way)`, since a
/// way is below 16.
const DIRECTORY: Place = Place::MAX;

/// The placement of a directory group.
const NO_PLACE: Runs<Place> = Runs::none(0);

const DRAINED: Summary = Summary {
    mask: 0,
    one: DIRECTORY,
    more: 0,
};

/// The per-group summaries, indexed by `line >> GROUP_SHIFT`. Line
/// indices come from a bump allocator, so groups are dense from zero and
/// a flat vector (grown on first fill) is the whole structure; the
/// placements of more than one run (a few percent of groups) live in a
/// side table with a free list.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExtentMap {
    groups: Vec<Summary>,
    side: Vec<Runs<Place>>,
    free: Vec<u32>,
}

/// A group's placement as [`ExtentMap::get`] reads it: the one-run case
/// by value, so the hot whole-group paths never assemble a run list.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Placement {
    /// A directory group: its entries are in the directory.
    Directory,
    /// Every resident line at this `(owner, way)`.
    One(Place),
    /// Two to eight runs.
    Runs(Runs<Place>),
}

/// What a fill into a placed group hands back when it cannot stay
/// placed: the old placement and the resident lines it stood for, whose
/// directory entries the caller must now write (nothing when the group
/// was already a directory group).
pub(crate) type Spill = (Runs<Place>, u64);

/// The bits of an aligned run of `n` lines starting at in-group offset
/// `j0`.
#[inline(always)]
pub(crate) fn run_mask(j0: u32, n: u32) -> u64 {
    debug_assert!(n >= 1 && j0 + n <= GROUP_LINES as u32);
    (u64::MAX >> (64 - n)) << j0
}

impl ExtentMap {
    /// The summary of `group` (a group beyond the map is drained).
    #[inline(always)]
    fn summary(&self, group: u64) -> &Summary {
        self.groups.get(group as usize).unwrap_or(&DRAINED)
    }

    /// A summary's placement as runs (empty for a directory group).
    #[inline(always)]
    fn placement(&self, s: &Summary) -> Runs<Place> {
        if s.more != 0 {
            self.side[s.more as usize - 1]
        } else if s.one == DIRECTORY {
            NO_PLACE
        } else {
            Runs::uniform(s.one)
        }
    }

    /// The residency mask and placement of `group`.
    #[inline(always)]
    pub(crate) fn get(&self, group: u64) -> (u64, Placement) {
        let s = self.summary(group);
        let place = if s.more != 0 {
            Placement::Runs(self.side[s.more as usize - 1])
        } else if s.one == DIRECTORY {
            Placement::Directory
        } else {
            Placement::One(s.one)
        };
        (s.mask, place)
    }

    /// Where line `j` of `group` is, as far as the summary knows:
    /// `Some(None)` absent (the mask is exact), `Some(Some((owner,
    /// way)))` resident in a placed group, `None` resident in a
    /// directory group.
    #[inline(always)]
    pub(crate) fn locate(&self, group: u64, j: u32) -> Option<Option<(u32, u32)>> {
        let s = self.summary(group);
        if s.mask >> j & 1 == 0 {
            Some(None)
        } else if s.more != 0 {
            Some(Some(owner_way(
                self.side[s.more as usize - 1].get(j as usize),
            )))
        } else if s.one == DIRECTORY {
            None
        } else {
            Some(Some(owner_way(s.one)))
        }
    }

    /// Whether the lines `sub` of `group` need the exact walk: some are
    /// resident and the group is a directory group.
    #[inline(always)]
    pub(crate) fn needs_walk(&self, group: u64, sub: u64) -> bool {
        let s = self.summary(group);
        s.mask & sub != 0 && s.more == 0 && s.one == DIRECTORY
    }

    /// The index of `group`'s summary, growing the map on first touch.
    #[inline(always)]
    fn slot(&mut self, group: u64) -> usize {
        let g = group as usize;
        if g >= self.groups.len() {
            // Doubling growth so a streaming fill pays O(1) amortized.
            let len = (g + 1).max(self.groups.len() * 2);
            self.groups.resize(len, DRAINED);
        }
        g
    }

    /// Store `place` as group `g`'s placement: inline when it is one run
    /// or none, in the side table otherwise.
    #[inline(always)]
    fn store(&mut self, g: usize, place: Runs<Place>) {
        let more = self.groups[g].more;
        if let Some(one) = place.single().or(place.is_empty().then_some(DIRECTORY)) {
            if more != 0 {
                self.free.push(more - 1);
            }
            (self.groups[g].one, self.groups[g].more) = (one, 0);
            return;
        }
        let i = if more != 0 {
            more - 1
        } else if let Some(i) = self.free.pop() {
            i
        } else {
            self.side.push(NO_PLACE);
            self.side.len() as u32 - 1
        };
        self.side[i as usize] = place;
        self.groups[g].more = i + 1;
    }

    /// Make a placed group a directory group ahead of a walk that reads
    /// its entries, returning the placement and mask whose entries the
    /// caller must now write. `None` if not placed (or drained).
    #[inline]
    pub(crate) fn take_placement(&mut self, group: u64) -> Option<Spill> {
        let s = self.summary(group);
        let (mask, place) = (s.mask, self.placement(s));
        if mask == 0 || place.is_empty() {
            return None;
        }
        self.store(group as usize, NO_PLACE);
        Some((place, mask))
    }

    /// One line filled into `owner`'s cache at `way`; returns as
    /// [`ExtentMap::apply_fills`].
    #[inline(always)]
    pub(crate) fn note_fill(&mut self, line: u64, owner: u32, way: u32) -> Option<Spill> {
        let j = (line & GROUP_MASK) as usize;
        self.apply_fills(line >> GROUP_SHIFT, j, 1, owner, [(j, way)])
    }

    /// `n` lines of `group` from offset `j0` filled at one placement `p`:
    /// the one-stretch case of [`ExtentMap::apply_fills`] in O(1), when
    /// the group was drained (`p` seeds its placement) or its one run is
    /// already `p`. False, with nothing changed, otherwise.
    #[inline(always)]
    pub(crate) fn fill_at(&mut self, group: u64, j0: usize, n: usize, p: Place) -> bool {
        let bits = run_mask(j0 as u32, n as u32);
        let g = self.slot(group);
        let s = &mut self.groups[g];
        debug_assert_eq!(s.mask & bits, 0, "fill of already-resident lines");
        if s.mask == 0 {
            debug_assert_eq!(s.more, 0, "a drained group keeps no runs");
            s.one = p;
        } else if s.more != 0 || s.one != p {
            return false;
        }
        s.mask |= bits;
        true
    }

    /// `n` lines of `group` from offset `j0` filled into `owner`'s cache,
    /// `ways` giving `(first offset, way)` of each stretch at one way
    /// (the first at `j0`). Returns `None` when the group is placed
    /// afterwards (the summary is its directory, run included);
    /// otherwise the caller must write the run's own directory entries,
    /// plus the [`Spill`] — the lines the old placement stood for, when
    /// this fill just made the group a directory group. A drained group
    /// seeds a new placement; lines outside the run are absent, so the
    /// run's first and last stretches extend over them. A placement that
    /// would overflow first folds runs left without a resident line into
    /// their neighbours. Masks are updated before or after the batch's
    /// eviction decrements (see [`ExtentMap::note_evicts`]); the order
    /// is immaterial, since victims never belong to the filled group.
    #[inline(always)]
    pub(crate) fn apply_fills(
        &mut self,
        group: u64,
        j0: usize,
        n: usize,
        owner: u32,
        ways: impl IntoIterator<Item = (usize, u32)> + Clone,
    ) -> Option<Spill> {
        let mid = || ways.clone().into_iter().map(|(j, w)| (j, place(owner, w)));
        let (j1, b1) = (j0, j0 + n);
        let mut stretches = mid();
        let one = stretches.next().filter(|_| stretches.next().is_none());
        if one.is_some_and(|(_, p)| self.fill_at(group, j0, n, p)) {
            return None;
        }
        let bits = run_mask(j0 as u32, n as u32);
        let g = self.slot(group);
        let was = self.groups[g].mask;
        debug_assert_eq!(was & bits, 0, "fill of already-resident lines");
        self.groups[g].mask = was | bits;
        let old = if was == 0 {
            // Lines outside the run are absent: its first and last
            // stretches extend over them.
            let mut seed = NO_PLACE;
            if mid().all(|(j, p)| seed.set(if j == j1 { 0 } else { j }, SPAN, p)) {
                self.store(g, seed);
                return None;
            }
            self.store(g, NO_PLACE);
            return Some((NO_PLACE, 0));
        } else {
            self.placement(&self.groups[g])
        };
        if old.is_empty() {
            return Some((NO_PLACE, 0));
        }
        let mut new = old;
        let fits = match one {
            Some((_, p)) => new.set(j1, b1, p),
            None => new.assign(j1, b1, mid()),
        };
        let folded = || {
            let mut p = old.retain(|a, e, _| was & run_mask(a as u32, (e - a) as u32) != 0)?;
            p.assign(j1, b1, mid()).then_some(p)
        };
        match if fits { Some(new) } else { folded() } {
            Some(p) => {
                self.store(g, p);
                None
            }
            None => {
                self.store(g, NO_PLACE);
                Some((old, was))
            }
        }
    }

    /// A run of `n` consecutive lines from `first_line`, placed by one
    /// fill (`placed`: `(offset, way)` per stretch, offsets from
    /// `first_line`), now resident in `owner`'s cache. Splits the run at
    /// group boundaries and applies one batched update per group. For
    /// the exact walk only: it writes every directory entry of its
    /// fills, so nothing needs spilling.
    pub(crate) fn note_fill_run(
        &mut self,
        first_line: u64,
        n: usize,
        placed: &[(u32, u32)],
        owner: u32,
    ) {
        let mut i = 0usize;
        while i < n {
            let line = first_line + i as u64;
            let j0 = (line & GROUP_MASK) as usize;
            let chunk = (GROUP_LINES as usize - j0).min(n - i);
            // The stretches overlapping [i, i + chunk), as group offsets.
            let from = placed.partition_point(|&(o, _)| o as usize <= i) - 1;
            let ways = placed[from..]
                .iter()
                .take_while(|&&(o, _)| (o as usize) < i + chunk)
                .map(|&(o, w)| (j0 + (o as usize).max(i) - i, w));
            self.apply_fills(line >> GROUP_SHIFT, j0, chunk, owner, ways);
            i += chunk;
        }
    }

    /// One resident line of `line`'s group was evicted or invalidated.
    #[inline(always)]
    pub(crate) fn note_evict(&mut self, line: u64) {
        self.apply_evicts(line >> GROUP_SHIFT, 1u64 << (line & GROUP_MASK));
    }

    /// The lines in `victims` were evicted. Runs of victims from one
    /// group — the common case, since streaming evicts consecutive old
    /// lines — collapse to one mask update.
    #[inline(always)]
    pub(crate) fn note_evicts(&mut self, victims: &[u64]) {
        let mut i = 0usize;
        while i < victims.len() {
            let group = victims[i] >> GROUP_SHIFT;
            let mut bits = 0u64;
            while i < victims.len() && victims[i] >> GROUP_SHIFT == group {
                bits |= 1u64 << (victims[i] & GROUP_MASK);
                i += 1;
            }
            self.apply_evicts(group, bits);
        }
    }

    /// The lines `bits` of `group` were evicted or invalidated at once.
    #[inline(always)]
    pub(crate) fn apply_evicts(&mut self, group: u64, bits: u64) {
        let g = self.slot(group);
        let s = &mut self.groups[g];
        debug_assert_eq!(s.mask & bits, bits, "eviction of non-resident lines");
        s.mask &= !bits;
        if s.mask == 0 && s.more != 0 {
            // A drained group forgets its placement.
            self.store(g, NO_PLACE);
        }
    }

    /// Iterate `(group, mask, placement)` for every group with at least
    /// one resident line. Invariant checks only.
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = (u64, u64, Runs<Place>)> + '_ {
        self.groups
            .iter()
            .enumerate()
            .filter(|(_, s)| s.mask != 0)
            .map(|(g, s)| (g as u64, s.mask, self.placement(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(m: &mut ExtentMap, line: u64, owner: u32, way: u32) -> Option<Spill> {
        m.note_fill(line, owner, way)
    }

    /// Group `g`'s placement as runs.
    fn runs(m: &ExtentMap, g: u64) -> Runs<Place> {
        m.placement(m.summary(g))
    }

    #[test]
    fn empty_until_filled() {
        let m = ExtentMap::default();
        assert_eq!(m.get(0).0, 0);
        assert_eq!(m.locate(1 << 30, 5), Some(None));
        assert!(!m.needs_walk(0, u64::MAX));
    }

    #[test]
    fn fills_to_whole_then_evictions_to_empty() {
        let mut m = ExtentMap::default();
        for i in 0..GROUP_LINES {
            assert_eq!(fill(&mut m, i, 3, 7), None, "a uniform fill stays placed");
        }
        assert_eq!(m.get(0).0, u64::MAX);
        assert_eq!(runs(&m, 0).single(), Some(place(3, 7)));
        for i in 0..GROUP_LINES {
            m.note_evict(i);
        }
        assert_eq!(m.get(0).0, 0);
        // Re-seeding after a drain: a different owner takes the group.
        for i in 0..GROUP_LINES {
            fill(&mut m, i, 1, 0);
        }
        assert_eq!(runs(&m, 0).single(), Some(place(1, 0)));
        assert_eq!(m.locate(0, 9), Some(Some((1, 0))));
    }

    #[test]
    fn other_ways_and_owners_add_runs() {
        let mut m = ExtentMap::default();
        for i in 0..GROUP_LINES - 1 {
            fill(&mut m, i, 2, 4);
        }
        // Same owner, another way; then another owner.
        assert_eq!(fill(&mut m, GROUP_LINES - 1, 2, 5), None);
        assert_eq!(m.locate(0, 63), Some(Some((2, 5))));
        m.note_evict(10);
        assert_eq!(fill(&mut m, 10, 6, 1), None);
        assert_eq!(m.locate(0, 10), Some(Some((6, 1))));
        assert_eq!(m.locate(0, 11), Some(Some((2, 4))));
        assert_eq!(runs(&m, 0).len(), 4);
    }

    #[test]
    fn note_fill_run_splits_groups_at_their_stretches() {
        let mut m = ExtentMap::default();
        // Two groups: way 1 throughout, except lines 67..69 at way 2.
        m.note_fill_run(0, 128, &[(0, 1), (67, 2), (69, 1)], 5);
        assert_eq!(runs(&m, 0).single(), Some(place(5, 1)));
        assert_eq!(runs(&m, 1).len(), 3);
        assert_eq!(m.locate(1, 3), Some(Some((5, 2))));
        assert_eq!(m.locate(1, 5), Some(Some((5, 1))));
    }

    #[test]
    fn note_evicts_coalesces_runs() {
        let mut m = ExtentMap::default();
        for i in 0..3 * GROUP_LINES {
            fill(&mut m, i, 0, 0);
        }
        // Victims spanning three groups in one batch.
        let victims: Vec<u64> = (GROUP_LINES / 2..5 * GROUP_LINES / 2).collect();
        m.note_evicts(&victims);
        assert_eq!(m.get(0).0, run_mask(0, 32));
        assert_eq!(m.get(1).0, 0);
        assert_eq!(m.get(2).0, run_mask(32, 32));
    }

    #[test]
    fn a_ninth_run_spills_the_placement() {
        let mut m = ExtentMap::default();
        // Eight alternating 8-line runs fit; line 0 at a third way needs
        // a ninth run (line 1 keeps the first run resident).
        for k in 0..8u64 {
            m.apply_fills(0, 8 * k as usize, 8, 2, [(8 * k as usize, k as u32 % 2)]);
        }
        assert_eq!(runs(&m, 0).len(), 8);
        m.note_evict(0);
        let spill = m.note_fill(0, 2, 9).expect("overflow spills");
        assert_eq!(spill.1, !1, "the lines the placement stood for");
        assert_eq!(spill.0.get(1), place(2, 0));
        assert!(m.needs_walk(0, 1));
        assert_eq!(m.locate(0, 3), None, "a directory group");
        // A directory group stays one until it drains.
        m.note_evict(5);
        assert_eq!(m.note_fill(5, 2, 0), Some((NO_PLACE, 0)));
        m.apply_evicts(0, u64::MAX);
        assert_eq!(m.note_fill(7, 1, 1), None, "a drained group re-seeds");
    }

    #[test]
    fn runs_without_resident_lines_fold_before_spilling() {
        let mut m = ExtentMap::default();
        for k in 0..8u64 {
            m.apply_fills(0, 8 * k as usize, 8, 2, [(8 * k as usize, k as u32 % 2)]);
        }
        // Drain the second run entirely: the ninth run then folds it.
        m.apply_evicts(0, run_mask(8, 8));
        m.note_evict(0);
        assert_eq!(m.note_fill(0, 2, 9), None);
        assert_eq!(m.locate(0, 0), Some(Some((2, 9))));
        assert_eq!(m.locate(0, 20), Some(Some((2, 0))));
    }

    #[test]
    fn taking_the_placement_hands_back_its_lines() {
        let mut m = ExtentMap::default();
        m.apply_fills(1, 0, 3, 1, [(0, 0)]);
        let (place_runs, mask) = m.take_placement(1).unwrap();
        assert_eq!((place_runs.single(), mask), (Some(place(1, 0)), 0b111));
        assert_eq!(m.take_placement(1), None);
        assert!(m.needs_walk(1, 0b1));
    }
}
