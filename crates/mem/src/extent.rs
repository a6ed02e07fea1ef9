//! Extent-grained residency summaries over the line directory.
//!
//! One `u32` word per aligned [`GROUP_LINES`]-line group of the address
//! space, recording how many of the group's lines are resident anywhere
//! in the system and — when they all sit in one cache at one way — which
//! cache and which way. The summary lets [`crate::MemorySystem::touch`]
//! classify and account a whole group in O(1) in the steady-state
//! regimes (all-hit local replay, whole-extent cache-to-cache migration,
//! cold sequential fill) and fall back to the exact per-line walk only
//! when a group is mixed or partially resident, making the walk's cost
//! proportional to *ownership boundaries* rather than lines.
//!
//! Word layout (low to high):
//!
//! ```text
//! bits 0..=6   count   resident lines of the group, 0..=GROUP_LINES
//! bit  7       uniform all resident lines owned by `owner` at way `way`
//! bits 8..=15  way     the uniform way (meaningful only when uniform)
//! bits 16..=23 owner   the uniform owning core (meaningful only when uniform)
//! ```
//!
//! Alongside the word, each group carries a 64-bit **residency mask**
//! (bit `j` set ⇔ line `64·g + j` resident somewhere), maintained with
//! the same exactness as the count (`popcount(mask) == count` always).
//! The mask upgrades partially-resident *uniform* groups from fallback
//! territory to fast-path territory: a touch subrange whose bits are all
//! set in a uniform locally-owned group is a pure batched promote, one
//! whose bits are all clear is a pure batched fill, and a mix splits
//! into alternating runs by word operations — no per-line directory
//! traffic in any of those cases.
//!
//! **The summary is the directory of a uniform group.** Its resident
//! lines are its mask bits, all in `owner`'s cache at `way`, and line
//! `L` lives at set `L mod sets` — so slot `(way << set_shift) | set` is
//! implied, and the mask-path fills leave the group's directory span
//! unwritten. The span is written from the summary (mask bits only) and
//! `uniform` cleared in exactly two cases: a fill is about to break the
//! group's uniformity ([`ExtentMap::apply_fills`] hands the caller the
//! lines to write), or the exact walk is about to read the group's
//! entries ([`ExtentMap::take_uniform`]). Evictions and invalidations
//! only clear mask bits, so they never need the span. Stale directory
//! entries are harmless throughout: every directory read is validated
//! against the owning cache's tags, which remain ground truth.
//!
//! The counts are **exact**, not hints: every fill increments and every
//! eviction or invalidation decrements, at every mutation site of the
//! memory system (`touch`, `touch_reference`, `fill`, `preload`). The
//! `uniform` bit is *sound but conservative*: set only while every fill
//! has matched the recorded `(owner, way)`, cleared on any mismatch or
//! when the exact walk takes the group over, and re-seeded when the
//! count returns to zero — so `uniform && count == GROUP_LINES` proves
//! "the whole group is live in `owner`'s cache at `way`", which is the
//! only state the fast paths consume. A cleared bit merely costs a
//! fallback to the exact walk.
//!
//! Exactness leans on one geometric invariant, asserted by the memory
//! system before it enables summaries: caches have at least
//! `GROUP_LINES` sets. Then an aligned group maps onto `GROUP_LINES`
//! *distinct, consecutive* sets (no wrap: the set count is a power of
//! two and the group is aligned to it), and a fill's victim — same set,
//! line number differing by a nonzero multiple of the set count — can
//! never belong to the group being filled. Both fast paths and the
//! batched bookkeeping below depend on that.

/// Lines per summarized group (and the log2 shift from line to group).
pub(crate) const GROUP_SHIFT: u32 = 6;
pub(crate) const GROUP_LINES: u64 = 1 << GROUP_SHIFT;
pub(crate) const GROUP_MASK: u64 = GROUP_LINES - 1;

const COUNT_MASK: u32 = 0x7F;
const UNIFORM: u32 = 1 << 7;

/// What the summary word proves about a group, as consumed by the touch
/// fast paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GroupState {
    /// No line of the group is resident anywhere.
    Empty,
    /// Every line of the group is resident in `owner`'s cache at `way`.
    Whole { owner: u32, way: u32 },
    /// Partially resident, or resident but not provably uniform.
    Mixed,
}

/// The per-group summary words, indexed by `line >> GROUP_SHIFT`. Line
/// indices come from a bump allocator, so groups are dense from zero and
/// a flat vector (grown on first fill) is the whole structure.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExtentMap {
    words: Vec<u32>,
    /// Per-group residency bitmaps, parallel to `words`: bit `j` ⇔ line
    /// `64·g + j` resident. `popcount(masks[g]) == words[g] & COUNT_MASK`.
    masks: Vec<u64>,
}

/// The bits of an aligned run of `n` lines starting at in-group offset
/// `j0`.
#[inline]
pub(crate) fn run_mask(j0: u32, n: u32) -> u64 {
    debug_assert!(n >= 1 && j0 + n <= GROUP_LINES as u32);
    (u64::MAX >> (64 - n)) << j0
}

#[inline]
fn word_of(count: u32, uniform: bool, owner: u32, way: u32) -> u32 {
    count | ((uniform as u32) << 7) | (way << 8) | (owner << 16)
}

impl ExtentMap {
    /// Classify `group` for the fast paths. Read-only: a group beyond the
    /// map (never filled) is empty by construction.
    #[inline]
    pub(crate) fn classify(&self, group: u64) -> GroupState {
        let Some(&w) = self.words.get(group as usize) else {
            return GroupState::Empty;
        };
        let count = w & COUNT_MASK;
        if count == 0 {
            GroupState::Empty
        } else if count == GROUP_LINES as u32 && w & UNIFORM != 0 {
            GroupState::Whole {
                owner: (w >> 16) & 0xFF,
                way: (w >> 8) & 0xFF,
            }
        } else {
            GroupState::Mixed
        }
    }

    /// The summary word and residency mask of `group`, growing the map
    /// on first touch.
    #[inline]
    fn state_mut(&mut self, group: u64) -> (&mut u32, &mut u64) {
        let g = group as usize;
        if g >= self.words.len() {
            // Doubling growth so a streaming fill pays O(1) amortized.
            let len = (g + 1).max(self.words.len() * 2);
            self.words.resize(len, 0);
            self.masks.resize(len, 0);
        }
        // SAFETY: just grown to at least `g + 1`.
        unsafe {
            (
                self.words.get_unchecked_mut(g),
                self.masks.get_unchecked_mut(g),
            )
        }
    }

    /// The residency mask of `group` (a group beyond the map is empty).
    #[inline]
    pub(crate) fn group_mask(&self, group: u64) -> u64 {
        self.masks.get(group as usize).copied().unwrap_or(0)
    }

    /// `Some((owner, way))` when every resident line of the (non-empty)
    /// group provably sits in `owner`'s cache at `way` — the partial
    /// twin of [`GroupState::Whole`], consumed with the mask by the
    /// run-split fast path, and the directory of the group's lines.
    #[inline]
    pub(crate) fn uniform_info(&self, group: u64) -> Option<(u32, u32)> {
        let w = *self.words.get(group as usize)?;
        (w & UNIFORM != 0 && w & COUNT_MASK != 0).then_some(((w >> 16) & 0xFF, (w >> 8) & 0xFF))
    }

    /// Whether the run-split fast path can serve `group` for `core`:
    /// non-empty, uniform, and locally owned.
    #[inline]
    pub(crate) fn uniform_local(&self, group: u64, core: u32) -> bool {
        self.uniform_info(group)
            .is_some_and(|(owner, _)| owner == core)
    }

    /// Clear a uniform group's `uniform` bit ahead of a walk that reads
    /// its directory entries, returning `(owner, way, mask)` — the lines
    /// whose entries the caller must now write. `None` if not uniform.
    #[inline]
    pub(crate) fn take_uniform(&mut self, group: u64) -> Option<(u32, u32, u64)> {
        let (owner, way) = self.uniform_info(group)?;
        let (w, mask) = self.state_mut(group);
        *w &= !UNIFORM;
        Some((owner, way, *mask))
    }

    /// One line of `group` filled into `owner`'s cache at `way`; returns
    /// as [`ExtentMap::apply_fills`].
    #[inline]
    pub(crate) fn note_fill(&mut self, line: u64, owner: u32, way: u32) -> Option<(u32, u32, u64)> {
        self.apply_fills(
            line >> GROUP_SHIFT,
            (line & GROUP_MASK) as u32,
            1,
            owner,
            way,
            true,
        )
    }

    /// `n` lines of `group` filled, all into `owner`'s cache; `uniform`
    /// says they all landed at `way`. Returns `None` when the group is
    /// uniform afterwards (the summary is its directory, run included);
    /// otherwise `Some((owner, way, bits))`: the caller must write the
    /// run's own directory entries, plus — when this fill just broke
    /// the group's uniformity — the entries of the `bits` lines the
    /// summary was standing for, at the old `(owner, way)` (`bits == 0`
    /// when the group was not uniform before). Counts are added before
    /// the batch's eviction decrements are applied (see
    /// [`ExtentMap::note_evicts`]); the order is immaterial to the count
    /// (addition commutes) and safe for the uniform bit (evictions never
    /// change where the *remaining* lines sit, so a bit proven against
    /// the pre-eviction fills stays true of the survivors).
    #[inline]
    pub(crate) fn apply_fills(
        &mut self,
        group: u64,
        j0: u32,
        n: u32,
        owner: u32,
        way: u32,
        uniform: bool,
    ) -> Option<(u32, u32, u64)> {
        debug_assert!(n as u64 <= GROUP_LINES);
        let bits = run_mask(j0, n);
        let (w, mask) = self.state_mut(group);
        debug_assert_eq!(*mask & bits, 0, "fill of already-resident lines");
        let (old, old_mask) = (*w, *mask);
        *mask |= bits;
        let count = old & COUNT_MASK;
        debug_assert!(count + n <= GROUP_LINES as u32, "group overfilled");
        *w = if count == 0 {
            word_of(n, uniform, owner, way)
        } else {
            let keep =
                old & UNIFORM != 0 && uniform && (old >> 8) & 0xFF == way && (old >> 16) == owner;
            word_of(count + n, keep, old >> 16, (old >> 8) & 0xFF)
        };
        debug_assert_eq!(mask.count_ones(), *w & COUNT_MASK);
        if *w & UNIFORM != 0 {
            None
        } else if count != 0 && old & UNIFORM != 0 {
            Some(((old >> 16) & 0xFF, (old >> 8) & 0xFF, old_mask))
        } else {
            Some((0, 0, 0))
        }
    }

    /// A run of consecutive lines starting at `first_line` was filled
    /// into `owner`'s cache at the way slots packed in `entries` (the
    /// directory words the fill wrote). Splits the run at group
    /// boundaries and applies one batched update per group, deriving way
    /// uniformity from the entries themselves. For the exact walk only:
    /// its groups' directory entries are all written, so nothing spills.
    #[inline]
    pub(crate) fn note_fill_run(
        &mut self,
        first_line: u64,
        entries: &[u32],
        owner: u32,
        set_shift: u32,
    ) {
        let mut i = 0usize;
        while i < entries.len() {
            let line = first_line + i as u64;
            let room = (GROUP_LINES - (line & GROUP_MASK)) as usize;
            let chunk = room.min(entries.len() - i);
            let (way, uniform) = run_way(&entries[i..i + chunk], set_shift);
            self.apply_fills(
                line >> GROUP_SHIFT,
                (line & GROUP_MASK) as u32,
                chunk as u32,
                owner,
                way,
                uniform,
            );
            i += chunk;
        }
    }

    /// One resident line of `line`'s group was evicted or invalidated.
    #[inline]
    pub(crate) fn note_evict(&mut self, line: u64) {
        self.apply_evicts(line >> GROUP_SHIFT, 1, 1u64 << (line & GROUP_MASK));
    }

    /// The lines in `victims` (in eviction order) were evicted. Runs of
    /// victims from one group — the common case, since streaming evicts
    /// consecutive old lines — collapse to one word update.
    #[inline]
    pub(crate) fn note_evicts(&mut self, victims: &[u64]) {
        let mut i = 0usize;
        while i < victims.len() {
            let group = victims[i] >> GROUP_SHIFT;
            let (mut n, mut bits) = (0u32, 0u64);
            while i < victims.len() && victims[i] >> GROUP_SHIFT == group {
                bits |= 1u64 << (victims[i] & GROUP_MASK);
                (n, i) = (n + 1, i + 1);
            }
            self.apply_evicts(group, n, bits);
        }
    }

    /// The `n` lines `bits` of `group` were evicted or invalidated at
    /// once: a run of victims, or the whole group (cache-to-cache fast
    /// path, whole-strip eviction).
    #[inline]
    pub(crate) fn apply_evicts(&mut self, group: u64, n: u32, bits: u64) {
        debug_assert_eq!(bits.count_ones(), n, "duplicate victims in one group");
        let (w, mask) = self.state_mut(group);
        debug_assert_eq!(*mask & bits, bits, "eviction of non-resident lines");
        *mask &= !bits;
        let left = (*w & COUNT_MASK) - n;
        // Reset to zero when the group drains so the next fill re-seeds
        // the uniform bit instead of matching against stale owner bits.
        *w = if left == 0 {
            0
        } else {
            (*w & !COUNT_MASK) | left
        };
        debug_assert_eq!(mask.count_ones(), *w & COUNT_MASK);
    }

    /// Iterate `(group, count, uniform, owner, way)` for every group
    /// with at least one resident line. Invariant checks only.
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = (u64, u32, bool, u32, u32)> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, &w)| w & COUNT_MASK != 0)
            .map(|(g, &w)| {
                (
                    g as u64,
                    w & COUNT_MASK,
                    w & UNIFORM != 0,
                    (w >> 16) & 0xFF,
                    (w >> 8) & 0xFF,
                )
            })
    }
}

/// The way of the first of `entries` (packed directory words of one
/// fill run), and whether every entry shares it.
#[inline]
pub(crate) fn run_way(entries: &[u32], set_shift: u32) -> (u32, bool) {
    let way = crate::linetab::slot_of(entries[0]) >> set_shift;
    let uniform = entries[1..]
        .iter()
        .all(|&e| crate::linetab::slot_of(e) >> set_shift == way);
    (way, uniform)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_until_filled() {
        let m = ExtentMap::default();
        assert_eq!(m.classify(0), GroupState::Empty);
        assert_eq!(m.classify(1 << 30), GroupState::Empty);
    }

    #[test]
    fn fills_to_whole_then_evictions_to_empty() {
        let mut m = ExtentMap::default();
        for i in 0..GROUP_LINES {
            m.note_fill(i, 3, 7);
            let expect = if i + 1 == GROUP_LINES {
                GroupState::Whole { owner: 3, way: 7 }
            } else {
                GroupState::Mixed
            };
            assert_eq!(m.classify(0), expect, "after {} fills", i + 1);
        }
        for i in 0..GROUP_LINES {
            m.note_evict(i);
        }
        assert_eq!(m.classify(0), GroupState::Empty);
        // Re-seeding after a drain: a different owner takes the group.
        for i in 0..GROUP_LINES {
            m.note_fill(i, 1, 0);
        }
        assert_eq!(m.classify(0), GroupState::Whole { owner: 1, way: 0 });
    }

    #[test]
    fn mismatched_fill_clears_uniform() {
        let mut m = ExtentMap::default();
        for i in 0..GROUP_LINES - 1 {
            m.note_fill(i, 2, 4);
        }
        m.note_fill(GROUP_LINES - 1, 2, 5); // same owner, different way
        assert_eq!(m.classify(0), GroupState::Mixed);
        // Draining and refilling uniformly recovers the bit.
        for i in 0..GROUP_LINES {
            m.note_evict(i);
        }
        for i in 0..GROUP_LINES {
            m.note_fill(i, 2, 5);
        }
        assert_eq!(m.classify(0), GroupState::Whole { owner: 2, way: 5 });
    }

    #[test]
    fn note_fill_run_splits_groups_and_detects_uniformity() {
        let mut m = ExtentMap::default();
        // 4 sets of shift 2 → way = slot >> 2. A run of 2·GROUP_LINES
        // lines straddling a group boundary, all at way 1 except one.
        let set_shift = 2;
        let n = 2 * GROUP_LINES as usize;
        let mut entries: Vec<u32> = (0..n).map(|i| (1 << set_shift) | (i as u32 & 3)).collect();
        entries[GROUP_LINES as usize + 3] = 2 << set_shift; // way 2 in group 1
        m.note_fill_run(0, &entries, 5, set_shift);
        assert_eq!(m.classify(0), GroupState::Whole { owner: 5, way: 1 });
        assert_eq!(m.classify(1), GroupState::Mixed);
    }

    #[test]
    fn note_evicts_coalesces_runs() {
        let mut m = ExtentMap::default();
        for i in 0..3 * GROUP_LINES {
            m.note_fill(i, 0, 0);
        }
        // Victims spanning three groups in one batch.
        let victims: Vec<u64> = (GROUP_LINES / 2..5 * GROUP_LINES / 2).collect();
        m.note_evicts(&victims);
        assert_eq!(m.classify(0), GroupState::Mixed);
        assert_eq!(m.classify(1), GroupState::Empty);
        assert_eq!(m.classify(2), GroupState::Mixed);
    }

    #[test]
    fn evicting_the_whole_group_empties_it() {
        let mut m = ExtentMap::default();
        for i in 0..GROUP_LINES {
            m.note_fill(i, 9, 3);
        }
        m.apply_evicts(0, GROUP_LINES as u32, u64::MAX);
        assert_eq!(m.classify(0), GroupState::Empty);
    }

    #[test]
    fn breaking_fill_hands_back_the_lines_the_summary_stood_for() {
        let mut m = ExtentMap::default();
        // Uniform fills: the summary is the directory, nothing to write.
        assert_eq!(m.apply_fills(0, 0, 10, 2, 4, true), None);
        assert_eq!(m.apply_fills(0, 10, 5, 2, 4, true), None);
        m.note_evict(3);
        // A fill at another way breaks uniformity: the caller must write
        // the surviving uniform lines, then its own run.
        assert_eq!(
            m.apply_fills(0, 20, 4, 2, 5, true),
            Some((2, 4, run_mask(0, 15) & !(1 << 3)))
        );
        // Already non-uniform: only the run's own entries.
        assert_eq!(m.apply_fills(0, 30, 1, 2, 4, true), Some((0, 0, 0)));
        // The walk's takeover of a uniform group hands back its mask.
        assert_eq!(m.apply_fills(1, 0, 3, 1, 0, true), None);
        assert_eq!(m.take_uniform(1), Some((1, 0, 0b111)));
        assert_eq!(m.uniform_info(1), None);
    }
}
