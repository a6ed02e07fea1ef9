//! Bounded run lists over the 64 positions of a cache block or an
//! extent group.
//!
//! The memory system keeps three kinds of block-grained state, and all
//! three are this one type:
//!
//! * a cache block's **recency**: runs of sets sharing one recency word
//!   (see [`crate::cache`]);
//! * a way strip's **tags**: runs of sets whose tags are one group's
//!   lines, empty, or the raw per-set words;
//! * an extent group's **placement**: runs of lines resident at one
//!   `(owner, way)` (see [`crate::extent`]).
//!
//! A list holds at most [`MAX_RUNS`] runs. Each run is a first position
//! and a value; it extends to the next run's first position (or 64).
//! Neighbouring runs always differ, so a list is the unique shortest
//! encoding of its 64 values. An operation whose result would need more
//! runs fails and leaves the list unchanged; the caller then falls back
//! to the materialized per-position form it stands for. The empty list
//! (no runs) is the owners' marker for "materialized".

/// Positions a list covers: the sets of a 64-set block, or the lines of
/// a 64-line group.
pub(crate) const SPAN: usize = 64;

/// Most runs a list holds.
pub(crate) const MAX_RUNS: usize = 8;

/// Up to [`MAX_RUNS`] runs covering `0..SPAN`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Runs<V> {
    val: [V; MAX_RUNS],
    /// First position of each run, strictly ascending from 0; `SPAN`
    /// past the last run, so a lookup counts starts without a length
    /// check.
    start: [u8; MAX_RUNS],
    len: u8,
}

/// Lists are equal when their runs are: values past the last run are
/// leftovers.
impl<V: PartialEq> PartialEq for Runs<V> {
    fn eq(&self, other: &Self) -> bool {
        let n = self.len as usize;
        self.len == other.len && self.start == other.start && self.val[..n] == other.val[..n]
    }
}

impl<V: Eq> Eq for Runs<V> {}

impl<V: Copy> Runs<V> {
    /// No runs, `fill` in the unused value slots.
    pub(crate) const fn none(fill: V) -> Self {
        Runs {
            val: [fill; MAX_RUNS],
            start: [SPAN as u8; MAX_RUNS],
            len: 0,
        }
    }
}

impl<V: Copy + Eq + Default> Runs<V> {
    /// No runs: the owner's state is materialized elsewhere.
    #[inline(always)]
    pub(crate) fn empty() -> Self {
        Self::none(V::default())
    }

    /// One run of `v` over every position.
    #[inline(always)]
    pub(crate) fn uniform(v: V) -> Self {
        let mut r = Self::empty();
        r.push(0, v);
        r
    }

    /// Whether the list has no runs.
    #[inline(always)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// The single value of a one-run list.
    #[inline(always)]
    pub(crate) fn single(&self) -> Option<V> {
        (self.len == 1).then_some(self.val[0])
    }

    /// End (exclusive) of run `i`.
    #[inline(always)]
    fn end(&self, i: usize) -> usize {
        if i + 1 < MAX_RUNS {
            self.start[i + 1] as usize
        } else {
            SPAN
        }
    }

    /// Index of the run holding position `j` (`j <= SPAN`), in one SWAR
    /// step: each byte of `(j | 0x80) - start` keeps its top bit iff
    /// `start <= j` (no byte borrows from the next, all values being at
    /// most 64), and the starts ascend, so the bytes above `j` are a
    /// suffix whose first byte ends the run holding `j`.
    #[inline(always)]
    fn index(&self, j: usize) -> usize {
        if self.len <= 1 {
            return 0;
        }
        const LSB: u64 = 0x0101_0101_0101_0101;
        let starts = u64::from_le_bytes(self.start);
        let above = !((j as u64 * LSB) | (LSB << 7)).wrapping_sub(starts) & (LSB << 7);
        ((above.trailing_zeros() >> 3) as usize).saturating_sub(1)
    }

    /// The value at position `j` of a non-empty list.
    #[inline(always)]
    pub(crate) fn get(&self, j: usize) -> V {
        debug_assert!(!self.is_empty() && j < SPAN);
        self.val[self.index(j)]
    }

    /// The end of the run holding position `j`, and its value.
    #[inline(always)]
    pub(crate) fn run_at(&self, j: usize) -> (usize, V) {
        let i = self.index(j);
        (self.end(i), self.val[i])
    }

    /// The runs overlapping `[a, b)`, clipped to it, as
    /// `(first, end, value)`.
    #[inline(always)]
    pub(crate) fn pieces(
        &self,
        a: usize,
        b: usize,
    ) -> impl Iterator<Item = (usize, usize, V)> + '_ {
        (self.index(a)..self.len as usize)
            .map(move |i| {
                (
                    (self.start[i] as usize).max(a),
                    self.end(i).min(b),
                    self.val[i],
                )
            })
            .take_while(|&(s, e, _)| s < e)
    }

    /// Append a run of `v` from `s`, merging it into an equal last run.
    /// False (list unchanged) when it would be run `MAX_RUNS + 1`.
    #[inline(always)]
    fn push(&mut self, s: usize, v: V) -> bool {
        let n = self.len as usize;
        if n != 0 && self.val[n - 1] == v {
            return true;
        }
        if n == MAX_RUNS {
            return false;
        }
        self.start[n] = s as u8;
        self.val[n] = v;
        self.len += 1;
        true
    }

    /// Replace `[a, b)` by `mid` — `(first, value)` pairs, ascending,
    /// the first at `a` — merging equal neighbours; false (list
    /// unchanged) if the result needs more than [`MAX_RUNS`] runs. The
    /// one primitive behind every update: a replaced range splits at
    /// most the two runs at its ends.
    #[inline]
    pub(crate) fn assign(
        &mut self,
        a: usize,
        b: usize,
        mid: impl IntoIterator<Item = (usize, V)>,
    ) -> bool {
        let old = *self;
        self.rebuild(&old, a, b, mid) || {
            *self = old;
            false
        }
    }

    /// Write `old` with `[a, b)` replaced by `mid` into `self`: the
    /// result is built where it is kept, never copied out of a temporary
    /// (a wide copy right after the pushes' narrow stores would stall on
    /// store forwarding). False on overflow, `self` then partly written.
    #[inline]
    fn rebuild(
        &mut self,
        old: &Self,
        a: usize,
        b: usize,
        mid: impl IntoIterator<Item = (usize, V)>,
    ) -> bool {
        debug_assert!(a < b && b <= SPAN);
        let n = old.len as usize;
        // Runs starting before `a` stay as they are; the next push
        // clips the last of them at `a`. The length, the last value and
        // the packed starts stay in registers until the end.
        let old_starts = u64::from_le_bytes(old.start);
        let i = old.index(a);
        let kept = i + ((old.start[i] as usize) < a) as usize;
        let mut len = kept;
        let mut starts = if kept == 0 {
            0
        } else {
            old_starts & (u64::MAX >> (64 - 8 * kept))
        };
        let mut last = if kept == 0 {
            None
        } else {
            Some(old.val[kept - 1])
        };
        let mut push = |this: &mut Self, s: usize, v: V| {
            if last == Some(v) {
                return true;
            }
            if len == MAX_RUNS {
                return false;
            }
            starts |= (s as u64) << (8 * len);
            this.val[len] = v;
            last = Some(v);
            len += 1;
            true
        };
        for (s, v) in mid {
            if !push(self, s, v) {
                return false;
            }
        }
        if b < SPAN {
            let k = old.index(b);
            if !push(self, b, old.val[k]) {
                return false;
            }
            for r in k + 1..n {
                if !push(self, old.start[r] as usize, old.val[r]) {
                    return false;
                }
            }
        }
        const PAD: u64 = SPAN as u64 * 0x0101_0101_0101_0101;
        let pad = if len < MAX_RUNS { PAD << (8 * len) } else { 0 };
        self.start = (starts | pad).to_le_bytes();
        self.len = len as u8;
        debug_assert!(self.start[0] == 0, "update left position 0 uncovered");
        true
    }

    /// Apply `f` to every run over `[a, b)` (runs at the ends split),
    /// merging equal neighbours; false (list unchanged) on overflow. The
    /// whole span maps in place, with no split at all.
    #[inline(always)]
    pub(crate) fn map(&mut self, a: usize, b: usize, f: impl Fn(V) -> V) -> bool {
        let (i, k) = (self.index(a), self.index(b - 1));
        if self.start[i] as usize == a && self.end(k) == b {
            // `[a, b)` is whole runs: map them where they are.
            for v in &mut self.val[i..=k] {
                *v = f(*v);
            }
            if self.len > 1 {
                self.merge();
            }
            return true;
        }
        if self.len == 1 {
            return self.set(a, b, f(self.val[0]));
        }
        let old = *self;
        let mid = old.pieces(a, b).map(|(s, _, v)| (s, f(v)));
        self.rebuild(&old, a, b, mid) || {
            *self = old;
            false
        }
    }

    /// Merge equal neighbours in place.
    fn merge(&mut self) {
        let n = self.len as usize;
        let mut k = 1;
        for i in 1..n {
            if self.val[i] != self.val[k - 1] {
                self.start[k] = self.start[i];
                self.val[k] = self.val[i];
                k += 1;
            }
        }
        self.start[k..].fill(SPAN as u8);
        self.len = k as u8;
    }

    /// Set `[a, b)` to `v`; false (list unchanged) on overflow.
    #[inline(always)]
    pub(crate) fn set(&mut self, a: usize, b: usize, v: V) -> bool {
        // The whole span, or one run split in at most three: written
        // directly, the starts as one word.
        const PAD: u64 = SPAN as u64 * 0x0101_0101_0101_0101;
        if a == 0 && b == SPAN {
            self.start = (PAD << 8).to_le_bytes();
            self.val[0] = v;
            self.len = 1;
            return true;
        }
        if self.len != 1 {
            let (i, k) = (self.index(a), self.index(b - 1));
            if self.start[i] as usize == a && self.end(k) == b {
                // Whole runs: overwrite them where they are.
                self.val[i..=k].fill(v);
                self.merge();
                return true;
            }
            return self.assign(a, b, [(a, v)]);
        }
        let u = self.val[0];
        if u == v {
            return true;
        }
        let mut len = (a > 0) as usize;
        let mut starts = (a as u64) << (8 * len);
        self.val[len] = v;
        len += 1;
        if b < SPAN {
            starts |= (b as u64) << (8 * len);
            self.val[len] = u;
            len += 1;
        }
        self.start = (starts | PAD << (8 * len)).to_le_bytes();
        self.len = len as u8;
        true
    }

    /// This list with every run `keep` rejects folded into the kept run
    /// before it (the first kept run extends back to 0); `None` if it
    /// rejects them all. Never longer than the list itself.
    pub(crate) fn retain(&self, keep: impl Fn(usize, usize, V) -> bool) -> Option<Self> {
        let mut out = Self::empty();
        for (s, e, v) in self.pieces(0, SPAN) {
            if keep(s, e, v) {
                let s = if out.is_empty() { 0 } else { s };
                out.push(s, v);
            }
        }
        (!out.is_empty()).then_some(out)
    }

    /// The run list of `vals` (one value per position), if it fits.
    pub(crate) fn compress(vals: &[V]) -> Option<Self> {
        debug_assert_eq!(vals.len(), SPAN);
        let mut out = Self::empty();
        for (j, &v) in vals.iter().enumerate() {
            if !out.push(j, v) {
                return None;
            }
        }
        Some(out)
    }

    /// Assert the encoding's invariants: 1..=MAX_RUNS runs, the first at
    /// 0, starts strictly ascending with `SPAN` past the last, and no
    /// two neighbours equal.
    pub(crate) fn check(&self, what: &str)
    where
        V: std::fmt::Debug,
    {
        let n = self.len as usize;
        assert!((1..=MAX_RUNS).contains(&n), "{what}: {n} runs");
        assert_eq!(self.start[0], 0, "{what}: first run not at 0");
        for i in 1..n {
            assert!(
                self.start[i - 1] < self.start[i],
                "{what}: starts unsorted {self:?}"
            );
            assert_ne!(
                self.val[i - 1],
                self.val[i],
                "{what}: equal neighbours {self:?}"
            );
        }
        assert!(
            self.start[n..].iter().all(|&s| s as usize == SPAN),
            "{what}: stale starts past the last run {self:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn expand(r: &Runs<u8>) -> Vec<u8> {
        (0..SPAN).map(|j| r.get(j)).collect()
    }

    proptest! {
        /// Every update is the per-position update: a random sequence of
        /// range sets over a few values either matches a plain array and
        /// keeps the invariants, or overflows, leaves the list unchanged
        /// and would indeed need more than `MAX_RUNS` runs.
        #[test]
        fn set_matches_a_plain_array(
            ops in proptest::collection::vec((0usize..64, 1usize..64, 0u8..4), 1..40)
        ) {
            let mut runs = Runs::uniform(0u8);
            let mut plain = [0u8; SPAN];
            for &(a, len, v) in &ops {
                let b = (a + len).min(SPAN);
                let before = runs;
                let mut want = plain;
                want[a..b].fill(v);
                if runs.set(a, b, v) {
                    plain = want;
                } else {
                    prop_assert_eq!(runs, before);
                    prop_assert!(Runs::compress(&want).is_none());
                }
                runs.check("runs");
                prop_assert_eq!(expand(&runs), plain.to_vec());
                prop_assert_eq!(Some(runs), Runs::compress(&plain));
                let pieces: Vec<_> = runs.pieces(a, b).collect();
                prop_assert_eq!(pieces.first().map(|p| p.0), Some(a));
                prop_assert_eq!(pieces.last().map(|p| p.1), Some(b));
                for (s, e, v) in pieces {
                    prop_assert!(plain[s..e].iter().all(|&x| x == v));
                }
            }
        }
    }

    #[test]
    fn updates_merge_equal_neighbours_and_overflow_at_nine() {
        let mut r = Runs::uniform(0u8);
        for k in 0..3 {
            assert!(r.set(8 * k + 4, 8 * k + 8, 1));
        }
        assert!(r.set(28, 64, 1));
        assert_eq!(r.len(), 8);
        let full = r;
        assert!(!r.set(40, 41, 0), "a ninth run overflows");
        assert_eq!(r, full, "a failed set changes nothing");
        assert!(r.set(4, 32, 1), "covering the alternation merges it");
        assert_eq!(r.len(), 2);
        assert_eq!(r.single(), None);
        assert!(r.set(0, 64, 3));
        assert_eq!(r.single(), Some(3));
    }
}
