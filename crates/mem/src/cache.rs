//! A set-associative cache with exact LRU replacement.
//!
//! Models one core's private L2. The simulator stores no data — only tags
//! — so a "cache" is a map from set index to the tags currently resident.
//! Lines are identified by [`LineAddr`] (byte address / line size).
//!
//! Layout note: replacement state is **one 64-bit word per set** — a
//! packed permutation of way indices, 4 bits per way, ordered from
//! most-recently used (nibble 0) to least-recently used (nibble
//! `assoc-1`) — plus a per-set occupancy bitmask answering "is there an
//! empty way, and which one?" in two instructions. An earlier layout
//! kept a 64-bit LRU stamp per *way*; picking a victim then meant
//! scanning 128 bytes of stamps per fill, which made eviction the single
//! most expensive operation in the simulator. With the permutation,
//! promoting a way to MRU is a dozen register ops on an 8-byte word (a
//! SWAR nibble search plus a shift) and the victim is simply the last
//! nibble, so the whole replacement state of a 512-set cache lives in
//! 4 KiB of L1-resident memory.
//!
//! The permutation is *exactly* LRU-equivalent to the stamp scheme it
//! replaced: stamps came from a strictly monotone per-cache clock, so
//! stamps of resident ways were always distinct and "first way holding
//! the minimum stamp" was simply *the* least-recently-used way — the
//! last nibble of the recency order. Empty ways are chosen by the
//! occupancy mask (lowest clear bit = first empty way), never by
//! recency, matching the old walk's first-empty-way choice.
//!
//! **Run lists.** Consecutive lines map to consecutive sets, and a
//! strip's fills and reads drive runs of sets through identical
//! histories. So recency and tags are kept per aligned 64-set *block* as
//! `Runs`: a block's recency is up to eight runs of sets sharing one
//! word, and each (way, block) strip's tags are up to eight runs of sets
//! holding one group's lines, nothing, or the raw per-set words. Every
//! operation is a range operation over runs: a fill, promotion or
//! invalidation of sets `[a, b)` splits at most the two runs at its ends
//! and updates each run in between once. The per-set `recency` words
//! and raw `tags` are the materialized form, authoritative only where a
//! list says so: a block whose recency needs more than eight runs, or a
//! strip run marked raw.

use crate::addr::LineAddr;
use crate::runs::{Runs, MAX_RUNS};
use sais_metrics::Counter;

const TAG_INVALID: u64 = u64::MAX;

/// Sets per recency/strip *block*. Equal to the extent group size
/// ([`crate::extent::GROUP_LINES`]): an aligned 64-line group maps
/// exactly onto one aligned 64-set block whenever `sets >= 64`, which is
/// also the geometry gate for the extent fast paths.
const BLOCK_SETS: usize = crate::runs::SPAN;
const BLOCK_SHIFT: u32 = 6;

/// Strip run values: the raw per-set tag words are authoritative.
const STRIP_RAW: u32 = 0;
/// Strip run values: the way is empty at these sets. Any other value is
/// `group + 1`: set `j` of the block holds line `64·group + j`.
const STRIP_EMPTY: u32 = u32::MAX;

/// Identity permutation: nibble `i` holds way `i`. Unused high nibbles
/// (for `assoc < 16`) keep their identity values, which can never match
/// a valid way index during the nibble search.
const PERM_IDENTITY: u64 = 0xFEDC_BA98_7654_3210;

/// SWAR constants for locating a nibble by value.
const NIBBLE_LSB: u64 = 0x1111_1111_1111_1111;
const NIBBLE_MSB: u64 = 0x8888_8888_8888_8888;

/// Statistics kept by a cache.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Lookups (reads and writes).
    pub accesses: Counter,
    /// Lookups that found the line resident.
    pub hits: Counter,
    /// Lookups that missed.
    pub misses: Counter,
    /// Valid lines displaced to make room.
    pub evictions: Counter,
    /// Lines removed by external invalidation (cache-to-cache migration).
    pub invalidations: Counter,
}

/// A set-associative, true-LRU cache of line tags.
///
/// Tag storage is **way-major**: slot `(way << set_shift) | set`, so for a
/// fixed way the tags of consecutive sets are adjacent words. Consecutive
/// line addresses map to consecutive sets, so a (way, block) strip of 64
/// tags is one contiguous run of words — the unit the strip run lists
/// describe.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Raw tag per way slot (`(way << set_shift) | set`); `TAG_INVALID`
    /// empty. Authoritative only under a raw strip run.
    tags: Box<[u64]>,
    /// Per-set recency permutation: 4-bit way indices, MRU first.
    /// Authoritative only for a block whose recency runs are empty.
    recency: Box<[u64]>,
    /// Per-set occupancy bitmask: bit `w` set ⇔ way `w` holds a valid tag.
    occ: Box<[u16]>,
    sets: usize,
    assoc: usize,
    set_mask: u64,
    /// log2(sets): shifts a way index into slot position.
    set_shift: u32,
    /// Bitmask of a completely full set: low `assoc` bits.
    full_mask: u16,
    resident: u64,
    /// Number of aligned [`BLOCK_SETS`]-set blocks (`sets / 64`, or 0
    /// when the geometry is too small for block-grained state — then
    /// every set is materialized and tags are always raw).
    blocks: usize,
    /// Per-block recency runs and full-set count.
    blk: Box<[Block]>,
    /// Per-(way, block) tag runs, indexed `way * blocks + block`: values
    /// [`STRIP_RAW`], [`STRIP_EMPTY`] or `group + 1`. A group run
    /// stands for the 64·group + j iota without a tag store, so a
    /// whole-group fill writes no tags and its later eviction reads
    /// none: the victims are one `(group, bits)` per run.
    strips: Box<[Runs<u32>]>,
    /// Reusable log for single-line fills.
    scratch: FillLog,
    /// Access/miss counters.
    pub stats: CacheStats,
}

/// The block-grained state of one aligned [`BLOCK_SETS`]-set block.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// Runs of sets sharing a recency word; empty when the block's
    /// per-set words are authoritative (more than eight runs).
    rec: Runs<u64>,
    /// Completely full sets; 64 lets a fill skip the occupancy probe.
    full: u32,
}

/// What a [`SetAssocCache::fill_run`] placed and displaced.
#[derive(Debug, Clone, Default)]
pub(crate) struct FillLog {
    /// `(offset from the fill's first line, way)` at the start of each
    /// maximal stretch of lines placed at one way, in line order.
    pub(crate) placed: Vec<(u32, u32)>,
    /// Evicted lines read from raw tags.
    pub(crate) victims: Vec<u64>,
    /// Evicted lines read off group strip runs: `(group, bits)`.
    pub(crate) victim_groups: Vec<(u64, u64)>,
    /// Whether some block took the materialized per-set path.
    pub(crate) per_set: bool,
}

impl FillLog {
    /// Forget the previous fill.
    #[inline(always)]
    pub(crate) fn clear(&mut self) {
        self.placed.clear();
        self.victims.clear();
        self.victim_groups.clear();
        self.per_set = false;
    }

    /// The way of the line at `off` of the fill.
    #[cfg(test)]
    pub(crate) fn way_at(&self, off: u32) -> u32 {
        let i = self.placed.partition_point(|&(o, _)| o <= off);
        self.placed[i - 1].1
    }
}

/// How many leading entries of `occ` equal `o`, four at a time.
#[inline(always)]
fn same_prefix(occ: &[u16], o: u16) -> usize {
    let mut quads = occ.chunks_exact(4);
    let mut n = 0;
    for q in &mut quads {
        if q != [o; 4] {
            break;
        }
        n += 4;
    }
    n + occ[n..].iter().take_while(|&&x| x == o).count()
}

/// The bits of `n` positions from `j`.
#[inline(always)]
fn bits(j: usize, n: usize) -> u64 {
    debug_assert!(n >= 1 && j + n <= BLOCK_SETS);
    (u64::MAX >> (64 - n)) << j
}

impl SetAssocCache {
    /// A cache with `sets` sets (power of two) of `assoc` ways each.
    pub fn new(sets: usize, assoc: usize) -> Self {
        assert!(
            sets.is_power_of_two() && sets > 0,
            "sets must be a power of two"
        );
        assert!(assoc > 0, "associativity must be positive");
        assert!(
            assoc <= 16,
            "per-set recency word packs way indices into 16 nibbles"
        );
        let blocks = if sets >= BLOCK_SETS {
            sets >> BLOCK_SHIFT
        } else {
            0
        };
        SetAssocCache {
            tags: vec![TAG_INVALID; sets * assoc].into_boxed_slice(),
            recency: vec![PERM_IDENTITY; sets].into_boxed_slice(),
            occ: vec![0u16; sets].into_boxed_slice(),
            sets,
            assoc,
            set_mask: sets as u64 - 1,
            set_shift: sets.trailing_zeros(),
            full_mask: (((1u32 << assoc) - 1) & 0xFFFF) as u16,
            resident: 0,
            blocks,
            blk: vec![
                Block {
                    rec: Runs::uniform(PERM_IDENTITY),
                    full: 0,
                };
                blocks
            ]
            .into_boxed_slice(),
            strips: vec![Runs::uniform(STRIP_EMPTY); blocks * assoc].into_boxed_slice(),
            scratch: FillLog::default(),
            stats: CacheStats::default(),
        }
    }

    /// Total line capacity.
    pub fn capacity(&self) -> u64 {
        (self.sets * self.assoc) as u64
    }

    /// Lines currently resident.
    pub fn resident(&self) -> u64 {
        self.resident
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// The global way slot of `(way, set)` under the way-major layout.
    #[inline]
    fn slot(&self, way: usize, set: usize) -> usize {
        (way << self.set_shift) | set
    }

    /// The last active nibble of a full set's recency word: its LRU way.
    #[inline(always)]
    fn lru(&self, perm: u64) -> usize {
        let way = ((perm >> (4 * (self.assoc as u32 - 1))) & 0xF) as usize;
        debug_assert!(way < self.assoc, "victim nibble out of range");
        way
    }

    /// The wrap-free (and, with blocks, block-bounded) chunk of sets
    /// from `set0` a range operation of `left` sets covers next.
    #[inline(always)]
    fn chunk(&self, set0: usize, left: usize) -> usize {
        let room = if self.blocks != 0 {
            BLOCK_SETS - (set0 & (BLOCK_SETS - 1))
        } else {
            self.sets - set0
        };
        left.min(room)
    }

    /// Write block `b`'s recency runs into its per-set words and hand
    /// authority to them.
    fn materialize_recency(&mut self, b: usize) {
        let rec = self.blk[b].rec;
        if rec.is_empty() {
            return;
        }
        let s0 = b << BLOCK_SHIFT;
        for (s, e, p) in rec.pieces(0, BLOCK_SETS) {
            self.recency[s0 + s..s0 + e].fill(p);
        }
        self.blk[b].rec = Runs::empty();
    }

    /// Whether block `b`'s recency is held as runs.
    #[inline(always)]
    fn has_runs(&self, b: usize) -> bool {
        !self.blk[b].rec.is_empty()
    }

    /// Hand a materialized block back to its runs if its per-set words
    /// fit in [`MAX_RUNS`] runs again. Only hits can re-merge words — a
    /// fill rotates a full set's word, a bijection — so this is tried
    /// after a whole-block promotion only.
    fn rederive_runs(&mut self, b: usize) {
        let s0 = b << BLOCK_SHIFT;
        if let Some(rec) = Runs::compress(&self.recency[s0..s0 + BLOCK_SETS]) {
            self.blk[b].rec = rec;
        }
    }

    /// The recency word of `set`, wherever it is authoritative.
    #[inline(always)]
    fn recency_of(&self, set: usize) -> u64 {
        if self.blocks != 0 {
            let rec = &self.blk[set >> BLOCK_SHIFT].rec;
            if !rec.is_empty() {
                return rec.get(set & (BLOCK_SETS - 1));
            }
        }
        self.recency[set]
    }

    /// Write strip `(way, b)`'s group and empty runs into its raw tags,
    /// leaving one raw run.
    fn materialize_strip(&mut self, way: usize, b: usize) {
        let i = way * self.blocks + b;
        let runs = self.strips[i];
        if runs.single() == Some(STRIP_RAW) {
            return;
        }
        let base = self.slot(way, b << BLOCK_SHIFT);
        for (s, e, v) in runs.pieces(0, BLOCK_SETS) {
            let tags = &mut self.tags[base + s..base + e];
            match v {
                STRIP_RAW => {}
                STRIP_EMPTY => tags.fill(TAG_INVALID),
                g1 => {
                    let first = (g1 as u64 - 1) << BLOCK_SHIFT;
                    for (j, t) in (s..e).zip(tags) {
                        *t = first | j as u64;
                    }
                }
            }
        }
        self.strips[i] = Runs::uniform(STRIP_RAW);
    }

    /// Set sets `[a, b)` (block offsets) of strip `(way, blk)` to `v`,
    /// materializing the strip first if the runs overflow. Sound for
    /// the group and empty values only: a raw run needs its tags stored.
    #[inline(always)]
    fn set_strip(&mut self, way: usize, blk: usize, a: usize, b: usize, v: u32) {
        debug_assert_ne!(v, STRIP_RAW);
        let i = way * self.blocks + blk;
        if !self.strips[i].set(a, b, v) {
            self.materialize_strip(way, blk);
            let fits = self.strips[i].set(a, b, v);
            debug_assert!(fits, "three runs always fit");
        }
    }

    /// Promote `way` in one recency word: the pure function behind every
    /// promotion, shared by the run and per-set paths so both use the
    /// identical formula.
    ///
    /// Locate the nibble holding `way`: XOR zeroes every nibble equal
    /// to `way`, and the borrow trick flags the zeroes. The lowest
    /// flag is exact (borrow false positives only appear above the
    /// first zero nibble), and it is always the real way: the active
    /// nibbles 0..assoc are a permutation containing `way` once, and
    /// any duplicate among the inactive high nibbles (identity values
    /// ≥ assoc initially, shifted residue after full-set rotations)
    /// sits strictly above every active nibble.
    ///
    /// With the flag isolated, everything is mask algebra — no shift
    /// counts, no data-dependent branches, so the whole body vectorizes
    /// when applied across a slice of recency words. Writing `rank` for
    /// the nibble position of `way`: `unit = 16^rank`, the nibbles below
    /// it shift up one (`below << 4`), `way` lands at rank 0, and the
    /// nibbles above stay — recovered as
    /// `(perm & !mask) - way·unit = perm ^ below - way·unit`,
    /// because the nibble at `rank` is exactly `way`.
    #[inline(always)]
    fn promote_word(perm: u64, way: u64) -> u64 {
        let x = perm ^ (way * NIBBLE_LSB);
        let zeros = x.wrapping_sub(NIBBLE_LSB) & !x & NIBBLE_MSB;
        let flag = zeros & zeros.wrapping_neg(); // 8·16^rank
        let unit = flag >> 3; // 16^rank
        let below = perm & (unit - 1);
        ((perm ^ below) - way * unit) | (below << 4) | way
    }

    /// A fill's choice at a set with occupancy `occ` and recency `perm`:
    /// the first empty way, promoted; or, in a full set, the LRU way,
    /// rotated to MRU. Promoting the last rank is a pure rotation of the
    /// active nibbles, so the SWAR search is skipped: every rank shifts
    /// up one nibble and the victim lands at rank 0. Nibbles at or
    /// above `assoc` become shifted residue rather than identity values
    /// — harmless, because the search always matches the real way at a
    /// lower nibble than any residue duplicate.
    #[inline(always)]
    fn choose(&self, occ: u16, perm: u64) -> (usize, u64) {
        if occ == self.full_mask {
            let way = self.lru(perm);
            (way, (perm << 4) | way as u64)
        } else {
            let way = (!occ & self.full_mask).trailing_zeros() as usize;
            (way, Self::promote_word(perm, way as u64))
        }
    }

    /// Promote `way` at the `n` sets from `set0`, all holding a line
    /// there — the recency half of a hit, for any run of lines at one
    /// way. Per block, each recency run the range covers is promoted
    /// once; only a block whose runs would overflow (or are already
    /// materialized beyond [`MAX_RUNS`]) updates per set. Lines occupy
    /// distinct consecutive sets, so the result is exactly the per-line
    /// promotion in any order.
    #[inline(always)]
    fn promote_sets(&mut self, set0: usize, n: usize, way: u64) {
        debug_assert!((way as usize) < self.assoc && set0 + n <= self.sets);
        let mut s = set0;
        while s < set0 + n {
            let len = self.chunk(s, set0 + n - s);
            if self.blocks != 0 {
                let (b, j) = (s >> BLOCK_SHIFT, s & (BLOCK_SETS - 1));
                if self.has_runs(b) {
                    // Promoting a word's MRU leaves it as it is: a re-read
                    // of lines just filled or hit changes nothing.
                    let rec = &mut self.blk[b].rec;
                    if rec.pieces(j, j + len).all(|(_, _, p)| p & 0xF == way)
                        || rec.map(j, j + len, |p| Self::promote_word(p, way))
                    {
                        s += len;
                        continue;
                    }
                    self.materialize_recency(b);
                }
            }
            for p in &mut self.recency[s..s + len] {
                *p = Self::promote_word(*p, way);
            }
            if self.blocks != 0 && len == BLOCK_SETS {
                self.rederive_runs(s >> BLOCK_SHIFT);
            }
            s += len;
        }
    }

    /// Promote a run of consecutive lines starting at `first`, all
    /// verified resident in this cache at the way slots recorded in
    /// `entries` (packed directory words, one per line): each maximal
    /// stretch at one way is one [`SetAssocCache::promote_uniform`].
    /// Bit-identical to promoting per line in order: the lines occupy
    /// distinct sets, so each recency word sees its one promotion.
    #[inline(always)]
    pub(crate) fn promote_run(&mut self, first: LineAddr, entries: &[u32]) {
        let shift = self.set_shift;
        let way_of = |e: u32| (crate::linetab::slot_of(e) >> shift) as u64;
        let mut i = 0usize;
        while i < entries.len() {
            let way = way_of(entries[i]);
            let n = 1 + entries[i + 1..]
                .iter()
                .take_while(|&&e| way_of(e) == way)
                .count();
            self.promote_uniform(LineAddr(first.0 + i as u64), way, n);
            i += n;
        }
    }

    /// Promote a run of `n` consecutive lines starting at `first`, all
    /// verified resident in this cache at the *same* way — the recency
    /// half of a local hit. Runs wrapping the set array are cut at the
    /// wrap; each chunk goes through [`SetAssocCache::promote_sets`].
    #[inline(always)]
    pub(crate) fn promote_uniform(&mut self, first: LineAddr, way: u64, n: usize) {
        let mut done = 0usize;
        while done < n {
            let set0 = ((first.0 + done as u64) & self.set_mask) as usize;
            let len = (n - done).min(self.sets - set0);
            self.promote_sets(set0, len, way);
            done += len;
        }
    }

    /// Fill a run of `n` consecutive lines starting at `first`, all
    /// verified absent from this cache, logging where they landed and
    /// what they displaced into `log` (appended; the caller clears it).
    /// Returns the eviction count; the caller flushes it into the
    /// statistics.
    ///
    /// The lines occupy distinct consecutive sets, and
    /// [`SetAssocCache::fill_absent`]'s choice at a set depends only on
    /// that set's `(occ, recency)` pair. So each block's part of the run
    /// is cut into stretches of sets sharing one pair — the block's
    /// recency runs, cut further where occupancy changes (never, once
    /// the block is full) — and each stretch makes its choice once
    /// ([`SetAssocCache::choose`]). The block's recency runs are
    /// spliced with the stretches' new words: the two runs at the fill's
    /// ends split, and each run in between rotates with its own victim
    /// way. Each stretch then displaces its way strip's runs (a group
    /// run's victims are one `(group, bits)`, a raw run's are its tag
    /// words) and sets the strip to the filled group over the stretch,
    /// storing no tag. A block whose recency needs more than
    /// [`MAX_RUNS`] runs takes the same stretches off its per-set words.
    /// The per-set sequence of way choices, tags and recency words is
    /// exactly the per-line path's.
    #[inline(never)]
    pub(crate) fn fill_run(&mut self, first: LineAddr, n: usize, log: &mut FillLog) -> u64 {
        let mut evictions = 0u64;
        let mut done = 0usize;
        while done < n {
            let set0 = ((first.0 + done as u64) & self.set_mask) as usize;
            let len = self.chunk(set0, n - done);
            let line0 = first.0 + done as u64;
            evictions += match self.fill_block_runs(line0, set0, len, done, log) {
                Some(ev) => ev,
                None => {
                    if self.blocks != 0 {
                        self.materialize_recency(set0 >> BLOCK_SHIFT);
                        log.per_set = true;
                    }
                    self.fill_sets(line0, set0, len, done, log)
                }
            };
            done += len;
        }
        evictions
    }

    /// Fill the 64-line group at `first`, all absent from this cache,
    /// when its block is the one-run shape: one recency run, and either
    /// every set full with the victim way's strip one group run, or one
    /// occupancy across the block with the first empty way's strip
    /// empty. Then the fill is one choice for the whole block and three
    /// word updates, with no log: returns the way and the displaced group
    /// (`None` if the way was empty). `None`, with nothing changed, for
    /// any other shape — [`SetAssocCache::fill_run`] serves it. The
    /// state reached is `fill_run`'s.
    #[inline(always)]
    pub(crate) fn fill_block(&mut self, first: LineAddr) -> Option<(u32, Option<u64>)> {
        let group1 = (first.0 >> BLOCK_SHIFT) + 1;
        if self.blocks == 0 || group1 >= STRIP_EMPTY as u64 {
            return None;
        }
        let s0 = (first.0 & self.set_mask) as usize;
        debug_assert_eq!(s0 & (BLOCK_SETS - 1), 0, "group not block-aligned");
        let b = s0 >> BLOCK_SHIFT;
        let p = self.blk[b].rec.single()?;
        let (way, victim) = if self.blk[b].full == BLOCK_SETS as u32 {
            let way = self.lru(p);
            let old = self.strips[way * self.blocks + b].single();
            let g1 = old.filter(|&v| v != STRIP_RAW && v != STRIP_EMPTY)?;
            self.blk[b].rec.set(0, BLOCK_SETS, (p << 4) | way as u64);
            (way, Some(g1 as u64 - 1))
        } else {
            let occ = &mut self.occ[s0..s0 + BLOCK_SETS];
            let o = occ[0];
            if occ.iter().fold(0, |d, &x| d | (x ^ o)) != 0 {
                return None;
            }
            let way = (!o & self.full_mask).trailing_zeros() as usize;
            if self.strips[way * self.blocks + b].single() != Some(STRIP_EMPTY) {
                return None;
            }
            let nocc = o | (1 << way);
            occ.fill(nocc);
            if nocc == self.full_mask {
                self.blk[b].full = BLOCK_SETS as u32;
            }
            self.resident += BLOCK_SETS as u64;
            self.blk[b]
                .rec
                .set(0, BLOCK_SETS, Self::promote_word(p, way as u64));
            (way, None)
        };
        self.strips[way * self.blocks + b].set(0, BLOCK_SETS, group1 as u32);
        Some((way as u32, victim))
    }

    /// The run path of [`SetAssocCache::fill_run`] for `n` sets from
    /// `set0` inside one block; `None`, with nothing changed, when the
    /// geometry has no blocks or the block's recency would need more
    /// than [`MAX_RUNS`] runs.
    #[inline(always)]
    fn fill_block_runs(
        &mut self,
        line0: u64,
        set0: usize,
        n: usize,
        off: usize,
        log: &mut FillLog,
    ) -> Option<u64> {
        if self.blocks == 0 {
            return None;
        }
        let (b, j0) = (set0 >> BLOCK_SHIFT, set0 & (BLOCK_SETS - 1));
        let s0 = set0 - j0;
        if !self.has_runs(b) {
            return None;
        }
        if self.blk[b].full == BLOCK_SETS as u32 {
            debug_assert!(
                self.occ[set0..set0 + n]
                    .iter()
                    .all(|&o| o == self.full_mask),
                "full-set count out of sync with occupancy"
            );
            // Every set full: each run is one stretch, rotating with its
            // own victim way, which is then the run's MRU nibble.
            let top = 4 * (self.assoc as u32 - 1);
            let rotate = |p: u64| (p << 4) | ((p >> top) & 0xF);
            if !self.blk[b].rec.map(j0, j0 + n, rotate) {
                return None;
            }
            let mut evictions = 0u64;
            let mut s = j0;
            while s < j0 + n {
                let (e, p) = self.blk[b].rec.run_at(s);
                let e = e.min(j0 + n);
                let (way, o) = ((p & 0xF) as usize, self.full_mask);
                let (line, at) = (line0 + (s - j0) as u64, off + s - j0);
                evictions += self.place(way, s0 + s, e - s, o, line, at, log);
                s = e;
            }
            return Some(evictions);
        }
        let rec = self.blk[b].rec;
        // (first set offset, way, new word, occupancy before) per stretch.
        let mut st = [(0usize, 0usize, 0u64, 0u16); MAX_RUNS];
        let mut k = 0usize;
        for (s, e, p) in rec.pieces(j0, j0 + n) {
            let mut j = s;
            while j < e {
                let o = self.occ[s0 + j];
                let end = j + 1 + same_prefix(&self.occ[s0 + j + 1..s0 + e], o);
                if k == MAX_RUNS {
                    return None;
                }
                let (way, np) = self.choose(o, p);
                st[k] = (j, way, np, o);
                k += 1;
                j = end;
            }
        }
        let mid = st[..k].iter().map(|&(j, _, np, _)| (j, np));
        if !self.blk[b].rec.assign(j0, j0 + n, mid) {
            return None;
        }
        let mut evictions = 0u64;
        for i in 0..k {
            let (j, way, _, o) = st[i];
            let end = if i + 1 < k { st[i + 1].0 } else { j0 + n };
            evictions += self.place(
                way,
                s0 + j,
                end - j,
                o,
                line0 + (j - j0) as u64,
                off + j - j0,
                log,
            );
        }
        Some(evictions)
    }

    /// The per-set path of [`SetAssocCache::fill_run`]: `n` sets from
    /// `set0` (wrap-free, inside one block when there are blocks) cut
    /// into maximal stretches of equal per-set `(occ, recency)`.
    fn fill_sets(
        &mut self,
        line0: u64,
        set0: usize,
        n: usize,
        off: usize,
        log: &mut FillLog,
    ) -> u64 {
        let mut evictions = 0u64;
        let mut j = 0usize;
        while j < n {
            let s = set0 + j;
            let (o, p) = (self.occ[s], self.recency[s]);
            let len = 1 + self.occ[s + 1..set0 + n]
                .iter()
                .zip(&self.recency[s + 1..set0 + n])
                .take_while(|&(&x, &q)| x == o && q == p)
                .count();
            let (way, np) = self.choose(o, p);
            self.recency[s..s + len].fill(np);
            evictions += self.place(way, s, len, o, line0 + j as u64, off + j, log);
            j += len;
        }
        evictions
    }

    /// Put lines `line0..line0 + n` at `way` over the `n` sets from `s`
    /// (one block), whose occupancy was `occ`: displace the way's lines
    /// into `log` if the sets were full, else take the empty way; then
    /// record the lines in the way's strip. Returns the evictions.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn place(
        &mut self,
        way: usize,
        s: usize,
        n: usize,
        occ: u16,
        line0: u64,
        off: usize,
        log: &mut FillLog,
    ) -> u64 {
        let evictions = if occ == self.full_mask {
            self.displace(way, s, n, log);
            n as u64
        } else {
            debug_assert!(
                (0..n).all(|k| self.tag_at(self.slot(way, s + k) as u32) == TAG_INVALID),
                "fill into an occupied way"
            );
            let nocc = occ | (1 << way);
            self.occ[s..s + n].fill(nocc);
            if nocc == self.full_mask && self.blocks != 0 {
                self.blk[s >> BLOCK_SHIFT].full += n as u32;
            }
            self.resident += n as u64;
            0
        };
        // A block on its runs records the lines as a group run; a
        // materialized block (its recency past eight runs, so its fills
        // come in many small stretches) stores them raw, as does a
        // geometry without blocks.
        let (b, group1) = (s >> BLOCK_SHIFT, (line0 >> BLOCK_SHIFT) + 1);
        if self.blocks != 0 && group1 < STRIP_EMPTY as u64 && !self.blk[b].rec.is_empty() {
            let j = s & (BLOCK_SETS - 1);
            self.set_strip(way, b, j, j + n, group1 as u32);
        } else {
            if self.blocks != 0 {
                self.materialize_strip(way, b);
            }
            let base = self.slot(way, s);
            for (k, t) in self.tags[base..base + n].iter_mut().enumerate() {
                *t = line0 + k as u64;
            }
        }
        if log.placed.last().map(|&(_, w)| w) != Some(way as u32) {
            log.placed.push((off as u32, way as u32));
        }
        evictions
    }

    /// Append the lines of `way` at the `n` full sets from `s` (one
    /// block) to `log`'s victims: one `(group, bits)` per group run of
    /// the strip, the raw tag words of a raw run.
    #[inline(always)]
    fn displace(&mut self, way: usize, s: usize, n: usize, log: &mut FillLog) {
        let base = self.slot(way, s);
        if self.blocks == 0 {
            log.victims.extend_from_slice(&self.tags[base..base + n]);
            return;
        }
        let (b, j) = (s >> BLOCK_SHIFT, s & (BLOCK_SETS - 1));
        for (a, e, v) in self.strips[way * self.blocks + b].pieces(j, j + n) {
            match v {
                STRIP_RAW => log
                    .victims
                    .extend_from_slice(&self.tags[base + a - j..base + e - j]),
                STRIP_EMPTY => debug_assert!(false, "empty way in a full set"),
                g1 => log.victim_groups.push((g1 as u64 - 1, bits(a, e - a))),
            }
        }
    }

    /// Invalidate `n` lines at `way` over the sets from `set0` (wrap-
    /// free), all resident there: per block, the strip's runs over the
    /// range become one empty run; occupancy bits clear and the full
    /// counts drop. Recency is untouched — a non-resident way can never
    /// be chosen as a victim (victims only exist in full sets) and a
    /// refill promotes it to MRU anyway.
    fn invalidate_sets(&mut self, set0: usize, n: usize, way: usize) {
        let clear = !(1u16 << way);
        let mut s = set0;
        while s < set0 + n {
            let len = self.chunk(s, set0 + n - s);
            if self.blocks != 0 {
                let (b, j) = (s >> BLOCK_SHIFT, s & (BLOCK_SETS - 1));
                self.set_strip(way, b, j, j + len, STRIP_EMPTY);
            } else {
                let base = self.slot(way, s);
                self.tags[base..base + len].fill(TAG_INVALID);
            }
            let mut lost = 0u32;
            for o in &mut self.occ[s..s + len] {
                lost += (*o == self.full_mask) as u32;
                *o &= clear;
            }
            if self.blocks != 0 {
                self.blk[s >> BLOCK_SHIFT].full -= lost;
            }
            s += len;
        }
        self.resident -= n as u64;
        self.stats.invalidations.add(n as u64);
    }

    /// Invalidate a run of `n` consecutive lines starting at `first`,
    /// all verified resident in this cache at the *same* way — the
    /// remote half of a cache-to-cache migration. Identical per-line
    /// state outcome to [`SetAssocCache::invalidate_at`] line by line,
    /// with the counters updated once.
    #[inline(always)]
    pub(crate) fn invalidate_run(&mut self, first: LineAddr, way: u64, n: usize) {
        debug_assert!((way as usize) < self.assoc);
        debug_assert!(
            (0..n as u64).all(|k| {
                let set = ((first.0 + k) & self.set_mask) as usize;
                self.tag_at(self.slot(way as usize, set) as u32) == first.0 + k
            }),
            "summary pointed at a stale way"
        );
        let mut done = 0usize;
        while done < n {
            let set0 = ((first.0 + done as u64) & self.set_mask) as usize;
            let len = (n - done).min(self.sets - set0);
            self.invalidate_sets(set0, len, way as usize);
            done += len;
        }
    }

    /// Is the line resident? Does not update recency or stats.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.way_of(line).is_some()
    }

    /// The way holding `line`, if resident.
    #[inline]
    fn way_of(&self, line: LineAddr) -> Option<usize> {
        let set = (line.0 & self.set_mask) as usize;
        (0..self.assoc).find(|&way| self.tag_at(self.slot(way, set) as u32) == line.0)
    }

    /// Look up a line as an access: updates recency and hit/miss
    /// statistics. Returns `true` on hit. A miss does **not** insert;
    /// callers decide whether the fill allocates (write-allocate policy
    /// lives above).
    pub fn access(&mut self, line: LineAddr) -> bool {
        self.stats.accesses.inc();
        match self.way_of(line) {
            Some(way) => {
                self.promote_sets((line.0 & self.set_mask) as usize, 1, way as u64);
                self.stats.hits.inc();
                true
            }
            None => {
                self.stats.misses.inc();
                false
            }
        }
    }

    /// Insert a line (fill after a miss or a write-allocate). Returns the
    /// line that was evicted to make room, if the set was full.
    /// Inserting an already-resident line only refreshes its LRU position.
    pub fn insert(&mut self, line: LineAddr) -> Option<LineAddr> {
        self.insert_tracked(line).1
    }

    /// [`SetAssocCache::insert`], additionally reporting the global way
    /// slot (`(way << set_shift) | set`) the line landed in, so the caller can
    /// record it in a way-indexed directory. Way choice and statistics
    /// are identical to `insert`: refresh when present, else first empty
    /// way, else the least-recently-used way.
    pub(crate) fn insert_tracked(&mut self, line: LineAddr) -> (u32, Option<LineAddr>) {
        let set = (line.0 & self.set_mask) as usize;
        if let Some(way) = self.way_of(line) {
            self.promote_sets(set, 1, way as u64);
            return (self.slot(way, set) as u32, None);
        }
        let placed = self.fill_absent(line);
        if placed.1.is_some() {
            self.stats.evictions.inc();
        }
        placed
    }

    /// Place a line known to be absent from this cache: first empty way
    /// of its set, else evict the least-recently-used way — a one-line
    /// [`SetAssocCache::fill_run`]. Returns the line's slot and the
    /// evicted line. Does **not** count the eviction; the caller
    /// accounts evictions itself.
    #[inline(always)]
    pub(crate) fn fill_absent(&mut self, line: LineAddr) -> (u32, Option<LineAddr>) {
        let set = (line.0 & self.set_mask) as usize;
        let mut log = std::mem::take(&mut self.scratch);
        log.clear();
        self.fill_run(line, 1, &mut log);
        let slot = self.slot(log.placed[0].1 as usize, set) as u32;
        let evicted = match (log.victims.first(), log.victim_groups.first()) {
            (Some(&v), _) => Some(LineAddr(v)),
            (None, Some(&(g, _))) => Some(LineAddr((g << BLOCK_SHIFT) | (line.0 & 63))),
            (None, None) => None,
        };
        self.scratch = log;
        (slot, evicted)
    }

    /// Invalidate the line at a known way slot: the O(1) twin of
    /// [`SetAssocCache::invalidate`] for directory-located lines.
    #[inline]
    pub(crate) fn invalidate_at(&mut self, slot: u32, line: LineAddr) {
        debug_assert_eq!(
            self.tag_at(slot),
            line.0,
            "directory slot does not hold the line"
        );
        let set = (line.0 & self.set_mask) as usize;
        self.invalidate_sets(set, 1, slot as usize >> self.set_shift);
    }

    /// The tag resident at a global way slot (`TAG_INVALID` if empty):
    /// the strip's group run derives it, an empty run has none, and a
    /// raw run reads the tag word. This is the ground truth the
    /// lazily-invalidated directory checks against: an entry `(owner,
    /// slot)` is live iff the owner's `tag_at(slot)` still equals the
    /// line.
    #[inline(always)]
    pub(crate) fn tag_at(&self, slot: u32) -> u64 {
        debug_assert!((slot as usize) < self.tags.len());
        let i = slot as usize;
        // SAFETY (all `get_unchecked` calls): directory entries are only
        // ever written as `pack(core, slot)` with a slot of this
        // geometry, and every cache in a system has the same geometry —
        // so a recorded slot (even a stale one) is within `tags`, and
        // its `(way, block)` strip index within `strips`.
        if self.blocks != 0 {
            let (way, set) = (i >> self.set_shift, i & (self.sets - 1));
            let (b, j) = (set >> BLOCK_SHIFT, set & (BLOCK_SETS - 1));
            match unsafe { self.strips.get_unchecked(way * self.blocks + b) }.get(j) {
                STRIP_RAW => {}
                STRIP_EMPTY => return TAG_INVALID,
                g1 => return ((g1 as u64 - 1) << BLOCK_SHIFT) | j as u64,
            }
        }
        unsafe { *self.tags.get_unchecked(i) }
    }

    /// Remove a line (external invalidation). Returns whether it was
    /// resident.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let Some(way) = self.way_of(line) else {
            return false;
        };
        self.invalidate_sets((line.0 & self.set_mask) as usize, 1, way);
        true
    }

    /// Bulk-update hooks for [`crate::MemorySystem::touch`]'s batched
    /// walk: the streaming loop keeps hit/miss/eviction tallies in
    /// registers and flushes them once per call instead of
    /// read-modify-writing the counters per line. Only visible inside the
    /// crate; state after the flush is identical to the per-line sequence.
    #[inline]
    pub(crate) fn add_hits(&mut self, n: u64) {
        self.stats.accesses.add(n);
        self.stats.hits.add(n);
    }

    #[inline]
    pub(crate) fn add_misses(&mut self, n: u64) {
        self.stats.accesses.add(n);
        self.stats.misses.add(n);
    }

    #[inline]
    pub(crate) fn add_evictions(&mut self, n: u64) {
        self.stats.evictions.add(n);
    }

    /// Record `n` background accesses that hit (loop indices, metadata,
    /// stack — the cache-resident traffic that accompanies every line of
    /// payload work). Only the aggregate miss *rate* sees these; they do
    /// not change residency. Keeps the reported rate commensurate with
    /// Oprofile's whole-execution L2 statistics rather than payload-only
    /// counts.
    pub fn note_background_hits(&mut self, n: u64) {
        self.stats.accesses.add(n);
        self.stats.hits.add(n);
    }

    /// Verify the block-grained state against the ground truth
    /// (occupancy and, under raw runs, tags): every run list is a valid
    /// encoding (sorted, no equal neighbours, at most [`MAX_RUNS`]
    /// runs); each recency word, run or per-set, has a permutation of
    /// the ways in its active nibbles; the full-set count equals the
    /// census of full sets; and each strip run's derived content agrees
    /// with occupancy — a group or raw-valid run only where the way is
    /// resident, an empty or raw-invalid run only where it is not.
    /// O(sets × assoc); invariant checks only.
    pub(crate) fn check_block_invariants(&self) {
        let perm_ok = |p: u64| {
            let seen = (0..self.assoc).fold(0u32, |m, r| m | 1 << ((p >> (4 * r)) & 0xF));
            seen == (1u32 << self.assoc) - 1
        };
        for s in 0..self.sets {
            assert!(
                perm_ok(self.recency_of(s)),
                "set {s}: recency not a permutation"
            );
        }
        for b in 0..self.blocks {
            let s0 = b << BLOCK_SHIFT;
            let full = self.occ[s0..s0 + BLOCK_SETS]
                .iter()
                .filter(|&&o| o == self.full_mask)
                .count() as u32;
            assert_eq!(
                self.blk[b].full, full,
                "block {b}: full-set count != full-set census"
            );
            let rec = self.blk[b].rec;
            if !rec.is_empty() {
                rec.check(&format!("block {b} recency"));
            }
            for way in 0..self.assoc {
                let runs = self.strips[way * self.blocks + b];
                runs.check(&format!("strip (way {way}, block {b})"));
                for (s, e, v) in runs.pieces(0, BLOCK_SETS) {
                    for j in s..e {
                        let held = self.occ[s0 + j] & (1 << way) != 0;
                        let raw = self.tags[self.slot(way, s0 + j)];
                        let ok = match v {
                            STRIP_RAW => held == (raw != TAG_INVALID),
                            STRIP_EMPTY => !held,
                            _ => held,
                        };
                        assert!(ok, "strip (way {way}, block {b}) run {v:#x} disagrees with occupancy at set {j}");
                    }
                }
            }
        }
    }

    /// Miss ratio so far (0 if no accesses).
    pub fn miss_rate(&self) -> f64 {
        let a = self.stats.accesses.get();
        if a == 0 {
            0.0
        } else {
            self.stats.misses.get() as f64 / a as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn line(n: u64) -> LineAddr {
        LineAddr(n)
    }

    /// The per-line oracle: one recency word, occupancy mask and tag per
    /// (set, way), updated one line at a time with the cache's own
    /// formulas — first empty way or LRU rotation on a fill, nibble
    /// promotion on a hit — and no block-grained state at all.
    #[derive(Clone)]
    struct PerLine {
        tags: Vec<u64>,
        occ: Vec<u16>,
        recency: Vec<u64>,
        assoc: usize,
        sets: usize,
    }

    impl PerLine {
        fn new(sets: usize, assoc: usize) -> Self {
            PerLine {
                tags: vec![TAG_INVALID; sets * assoc],
                occ: vec![0; sets],
                recency: vec![PERM_IDENTITY; sets],
                assoc,
                sets,
            }
        }

        fn full(&self) -> u16 {
            ((1u32 << self.assoc) - 1) as u16
        }

        fn set(&self, l: u64) -> usize {
            (l % self.sets as u64) as usize
        }

        fn way_of(&self, l: u64) -> Option<usize> {
            let s = self.set(l);
            (0..self.assoc).find(|&w| self.tags[s * self.assoc + w] == l)
        }

        /// Fill an absent line: `(way, evicted)`.
        fn fill(&mut self, l: u64) -> (usize, Option<u64>) {
            let s = self.set(l);
            let (o, p) = (self.occ[s], self.recency[s]);
            let (way, np, ev) = if o == self.full() {
                let way = ((p >> (4 * (self.assoc - 1))) & 0xF) as usize;
                (
                    way,
                    (p << 4) | way as u64,
                    Some(self.tags[s * self.assoc + way]),
                )
            } else {
                let way = (!o & self.full()).trailing_zeros() as usize;
                self.occ[s] |= 1 << way;
                (way, SetAssocCache::promote_word(p, way as u64), None)
            };
            self.recency[s] = np;
            self.tags[s * self.assoc + way] = l;
            (way, ev)
        }

        fn promote(&mut self, l: u64) {
            let (s, w) = (self.set(l), self.way_of(l).unwrap());
            self.recency[s] = SetAssocCache::promote_word(self.recency[s], w as u64);
        }

        fn invalidate(&mut self, l: u64) {
            let (s, w) = (self.set(l), self.way_of(l).unwrap());
            self.tags[s * self.assoc + w] = TAG_INVALID;
            self.occ[s] &= !(1 << w);
        }
    }

    /// The cache's logical state, read through its runs, against the
    /// oracle's.
    fn assert_same(c: &SetAssocCache, o: &PerLine) {
        for s in 0..c.sets {
            assert_eq!(c.occ[s], o.occ[s], "occupancy at set {s}");
            assert_eq!(c.recency_of(s), o.recency[s], "recency at set {s}");
            for w in 0..c.assoc {
                assert_eq!(
                    c.tag_at(c.slot(w, s) as u32),
                    o.tags[s * c.assoc + w],
                    "tag at (way {w}, set {s})"
                );
            }
        }
        let resident = o.occ.iter().map(|x| x.count_ones() as u64).sum::<u64>();
        assert_eq!(c.resident, resident);
        c.check_block_invariants();
    }

    /// Every victim a log names, as lines.
    fn victim_lines(log: &FillLog) -> Vec<u64> {
        let mut v = log.victims.clone();
        for &(g, bits) in &log.victim_groups {
            v.extend((0..64).filter(|j| bits >> j & 1 != 0).map(|j| (g << 6) | j));
        }
        v.sort_unstable();
        v
    }

    /// Apply one range op to the cache and the oracle: a fill of the
    /// absent lines of `[start, start + len)` (as maximal absent runs),
    /// a promotion or an invalidation of its resident lines (as maximal
    /// runs at one way), or (kind 3) a fill of the aligned group holding
    /// `start` through [`SetAssocCache::fill_block`] when the group is
    /// absent and its block has the one-run shape. Returns whether a fill
    /// took the per-set path.
    fn apply(c: &mut SetAssocCache, o: &mut PerLine, kind: u8, start: u64, len: u64) -> bool {
        if kind == 3 {
            let g = start >> 6;
            let lines = g << 6..(g + 1) << 6;
            if c.blocks == 0 || lines.clone().any(|l| o.way_of(l).is_some()) {
                return false;
            }
            let Some((w, victim)) = c.fill_block(LineAddr(g << 6)) else {
                return apply(c, o, 0, g << 6, 64);
            };
            let mut want = Vec::new();
            for l in lines {
                let (ow, v) = o.fill(l);
                assert_eq!(ow, w as usize, "way of line {l}");
                want.extend(v);
            }
            want.sort_unstable();
            let got: Vec<u64> = victim.map_or(vec![], |v| ((v << 6)..(v + 1) << 6).collect());
            assert_eq!(got, want, "victims of the whole-block fill");
            return false;
        }
        let mut per_set = false;
        let mut l = start;
        while l < start + len {
            let way = o.way_of(l);
            let n = (l..start + len).take_while(|&x| o.way_of(x) == way).count();
            match (kind, way) {
                (0, None) => {
                    let mut log = FillLog::default();
                    let ev = c.fill_run(LineAddr(l), n, &mut log);
                    let mut want = Vec::new();
                    for k in 0..n as u64 {
                        let (w, v) = o.fill(l + k);
                        want.extend(v);
                        assert_eq!(log.way_at(k as u32), w as u32, "way of line {}", l + k);
                    }
                    want.sort_unstable();
                    assert_eq!(ev, want.len() as u64);
                    assert_eq!(victim_lines(&log), want);
                    per_set |= log.per_set;
                }
                (1, Some(w)) => {
                    c.promote_uniform(LineAddr(l), w as u64, n);
                    (l..l + n as u64).for_each(|x| o.promote(x));
                }
                (2, Some(w)) => {
                    c.invalidate_run(LineAddr(l), w as u64, n);
                    (l..l + n as u64).for_each(|x| o.invalidate(x));
                }
                _ => {}
            }
            l += n as u64;
        }
        per_set
    }

    proptest! {
        /// Range fills (and whole-block fills), promotions and
        /// invalidations over run-list blocks are exactly the per-line
        /// fills, promotions and invalidations of an oracle with no block
        /// state: same tags, occupancy, recency and residency after every
        /// op, same ways per line and the same victims. Ranges of 1–160 lines cross blocks and the
        /// set wrap, short ranges fragment blocks into up to eight runs
        /// and past them into the materialized form, and long ones
        /// re-merge them.
        #[test]
        fn range_ops_match_per_line_oracle(
            sets in prop_oneof![Just(32usize), Just(64usize), Just(128usize)],
            assoc in 1usize..9,
            ops in proptest::collection::vec((0u8..4, 0u64..1024, 1u64..160), 1..60)
        ) {
            let mut c = SetAssocCache::new(sets, assoc);
            let mut o = PerLine::new(sets, assoc);
            for &(kind, start, len) in &ops {
                // Short ranges most of the time: they split runs.
                let len = if len > 100 { len } else { 1 + len % 12 };
                apply(&mut c, &mut o, kind, start, len);
                assert_same(&c, &o);
            }
        }
    }

    #[test]
    fn nine_runs_materialize_and_stay_exact() {
        // Promote one set in each of nine 7-set pieces of a full block:
        // the alternating words need more than eight runs, the block
        // goes per-set, and a fill over it takes the per-set path. A
        // whole-block promotion re-merges the words, and the next
        // operation re-derives the block's runs. The state stays exact
        // throughout.
        let mut c = SetAssocCache::new(64, 2);
        let mut o = PerLine::new(64, 2);
        for g in 0..2u64 {
            assert!(!apply(&mut c, &mut o, 0, g * 64, 64));
        }
        for k in 0..9u64 {
            apply(&mut c, &mut o, 1, k * 7, 1);
            assert_same(&c, &o);
        }
        assert!(c.blk[0].rec.is_empty(), "the block materialized");
        assert!(apply(&mut c, &mut o, 0, 128 + 1, 3), "per-set fill");
        assert_same(&c, &o);
        apply(&mut c, &mut o, 1, 64, 64);
        apply(&mut c, &mut o, 1, 64, 1);
        assert_same(&c, &o);
        assert!(!c.blk[0].rec.is_empty(), "runs re-derived");
    }

    #[test]
    fn interleaved_chunk_edges_keep_runs() {
        // Three strips' chunks alternate into one block: each fill splits
        // at most two runs, so the block stays on its run list (no
        // per-set fill) and the strips' tags stay group runs.
        let mut c = SetAssocCache::new(64, 4);
        let mut o = PerLine::new(64, 4);
        for g in 0..4u64 {
            apply(&mut c, &mut o, 0, g * 64, 64);
        }
        let mut per_set = false;
        for (a, b) in [(0u64, 21u64), (21, 43), (43, 64)] {
            for strip in 0..3u64 {
                let base = (10 + strip) * 64;
                per_set |= apply(&mut c, &mut o, 0, base + a, b - a);
                assert_same(&c, &o);
            }
        }
        assert!(!per_set, "interleaved edges stay on runs");
        assert!(!c.blk[0].rec.is_empty());
    }

    #[test]
    fn whole_block_fills_take_the_one_run_shape() {
        // Two empty ways, then a full block: each whole-group fill is one
        // choice, the third displacing the first group as one victim.
        let mut c = SetAssocCache::new(64, 2);
        let mut o = PerLine::new(64, 2);
        for (g, want) in [(0u64, (0, None)), (1, (1, None)), (2, (0, Some(0)))] {
            assert_eq!(c.fill_block(LineAddr(g << 6)), Some(want));
            for l in g << 6..(g + 1) << 6 {
                o.fill(l);
            }
            assert_same(&c, &o);
        }
        // A raw victim strip declines, changing nothing.
        apply(&mut c, &mut o, 1, 64, 64);
        c.materialize_strip(0, 0);
        assert_eq!(c.fill_block(LineAddr(3 << 6)), None);
        assert!(!apply(&mut c, &mut o, 3, 3 << 6, 64));
        assert_same(&c, &o);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = SetAssocCache::new(4, 2);
        assert!(!c.access(line(0)));
        assert_eq!(c.insert(line(0)), None);
        assert!(c.access(line(0)));
        assert_eq!(c.stats.accesses.get(), 2);
        assert_eq!(c.stats.hits.get(), 1);
        assert_eq!(c.stats.misses.get(), 1);
        assert_eq!(c.miss_rate(), 0.5);
    }

    #[test]
    fn lru_eviction_order() {
        // One set (sets=1), 2 ways. Insert A, B; touch A; insert C → B evicted.
        let mut c = SetAssocCache::new(1, 2);
        c.insert(line(10));
        c.insert(line(20));
        assert!(c.access(line(10))); // A now MRU
        let evicted = c.insert(line(30));
        assert_eq!(evicted, Some(line(20)));
        assert!(c.contains(line(10)));
        assert!(c.contains(line(30)));
        assert!(!c.contains(line(20)));
        assert_eq!(c.stats.evictions.get(), 1);
    }

    #[test]
    fn set_indexing_isolates_sets() {
        // 4 sets, 1 way. Lines 0..4 map to distinct sets → no evictions.
        let mut c = SetAssocCache::new(4, 1);
        for i in 0..4 {
            assert_eq!(c.insert(line(i)), None);
        }
        assert_eq!(c.resident(), 4);
        // Line 4 maps to set 0 → evicts line 0 only.
        assert_eq!(c.insert(line(4)), Some(line(0)));
        assert!(c.contains(line(1)));
        assert!(c.contains(line(2)));
        assert!(c.contains(line(3)));
    }

    #[test]
    fn group_run_victims_are_the_group_lines() {
        // 64 sets, 1 way: a whole-group fill over a resident group evicts
        // it as one (group, bits) run, and a single-line fill reports the
        // derived line.
        let mut c = SetAssocCache::new(64, 1);
        let mut log = FillLog::default();
        c.fill_run(line(0), 64, &mut log);
        log.clear();
        assert_eq!(c.fill_run(line(64), 64, &mut log), 64);
        assert_eq!(log.victim_groups, [(0, u64::MAX)]);
        assert!(log.victims.is_empty());
        assert_eq!(c.insert(line(128 + 5)), Some(line(64 + 5)));
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c = SetAssocCache::new(1, 2);
        c.insert(line(1));
        c.insert(line(2));
        assert_eq!(c.insert(line(1)), None, "refresh, not evict");
        assert_eq!(c.resident(), 2);
        // Line 2 is now LRU.
        assert_eq!(c.insert(line(3)), Some(line(2)));
    }

    #[test]
    fn invalidate_frees_way() {
        let mut c = SetAssocCache::new(1, 2);
        c.insert(line(1));
        c.insert(line(2));
        assert!(c.invalidate(line(1)));
        assert!(!c.invalidate(line(1)), "second invalidation is a no-op");
        assert_eq!(c.resident(), 1);
        // Room again: inserting evicts nothing.
        assert_eq!(c.insert(line(3)), None);
        assert_eq!(c.stats.invalidations.get(), 1);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = SetAssocCache::new(4, 2);
        for i in 0..1000 {
            c.insert(line(i));
            assert!(c.resident() <= c.capacity());
        }
        assert_eq!(c.resident(), c.capacity());
    }

    #[test]
    fn full_associativity_recency_word() {
        // assoc = 16 exercises all 16 nibbles of the recency word (the
        // modelled Opteron L2 is 16-way): fill one set completely, then
        // one more insert must evict the LRU way, not wrap the word.
        let mut c = SetAssocCache::new(1, 16);
        for i in 0..16 {
            assert_eq!(c.insert(line(i)), None, "way {i} fills empty");
        }
        assert_eq!(c.resident(), 16);
        assert_eq!(c.insert(line(100)), Some(line(0)), "LRU way evicted");
        assert_eq!(c.resident(), 16);
        assert!(c.invalidate(line(1)));
        // The freed way is refilled before any further eviction.
        assert_eq!(c.insert(line(200)), None);
        assert_eq!(c.resident(), 16);
        // Recency survives the churn: the oldest remaining line goes next.
        assert_eq!(c.insert(line(300)), Some(line(2)));
    }

    #[test]
    fn promote_from_every_rank() {
        // Touch each resident line from LRU position upward; every
        // promotion must preserve the permutation (16 distinct ways).
        let mut c = SetAssocCache::new(1, 16);
        for i in 0..16 {
            c.insert(line(i));
        }
        for i in 0..16 {
            assert!(c.access(line(i)), "line {i} resident");
        }
        // After re-touching 0..15 in order, eviction order matches again.
        for i in 0..16 {
            assert_eq!(c.insert(line(100 + i)), Some(line(i)));
        }
    }

    #[test]
    fn streaming_working_set_larger_than_cache_thrashes() {
        let mut c = SetAssocCache::new(4, 2); // 8 lines
                                              // Two passes over 16 distinct lines: second pass gets no hits
                                              // because each line was evicted before reuse (LRU + stream).
        for pass in 0..2 {
            for i in 0..16 {
                let hit = c.access(line(i));
                if pass == 1 {
                    assert!(!hit, "line {i} should have been evicted");
                }
                if !hit {
                    c.insert(line(i));
                }
            }
        }
        assert_eq!(c.stats.hits.get(), 0);
    }
}
