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

use crate::addr::LineAddr;
use sais_metrics::Counter;

const TAG_INVALID: u64 = u64::MAX;

/// Sets per recency/occupancy *block* — the unit at which whole-group
/// fills virtualize their replacement state. Equal to the extent group
/// size ([`crate::extent::GROUP_LINES`]): an aligned 64-line group maps
/// exactly onto one aligned 64-set block whenever `sets >= 64`, which is
/// also the geometry gate for the extent fast paths.
const BLOCK_SETS: usize = 64;
const BLOCK_SHIFT: u32 = 6;

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
/// line addresses map to consecutive sets, and a streaming walk drives
/// every set through the same access history — so the victim way is the
/// same across a run of consecutive sets and the fill path's tag writes
/// (and the directory validation reads of a later re-touch) become
/// sequential. The set-major layout this replaced put `assoc` ways
/// between one set's tag and the next (a 128-byte stride at 16 ways),
/// costing the touch loop a scattered host cache line per simulated
/// line.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Resident tag per way slot (`(way << set_shift) | set`);
    /// `TAG_INVALID` empty.
    tags: Box<[u64]>,
    /// Per-set recency permutation: 4-bit way indices, MRU first.
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
    /// every virtual path below is statically dormant).
    blocks: usize,
    /// Per-block state, one [`Block`] per aligned 64-set block: the
    /// shared recency word(s) of a virtual block, its split, and its
    /// full-set count — kept together so a block-grained operation
    /// touches one host cache line of it.
    blk: Box<[Block]>,
    /// Per-(way, block) reverse map: `group + 1` when the 64 tags of the
    /// way strip are known to be exactly the lines of that aligned
    /// group, else 0. A true-when-nonzero hint: whole-group fills set
    /// it, and every per-line mutation of a strip clears it. Lets a
    /// whole-strip eviction account its 64 victims as one extent
    /// decrement without reading a single tag. Indexed `way * blocks +
    /// block`.
    vstrip: Box<[u64]>,
    /// Per-(way, block) flag: the strip's raw `tags` words are stale and
    /// its logical tags are *derived* from the `vstrip` hint — line
    /// `64·group + (set & 63)` at every set of the block. Whole-group
    /// fills set it instead of storing 64 tag words (the dominant memory
    /// traffic of the streaming fill path); any per-line read or
    /// mutation of the strip materializes the derived tags first
    /// ([`SetAssocCache::materialize_strip_tags`]). Invariants: lazy ⇒
    /// the hint is live and every set of the block holds the way (a
    /// partial eviction always materializes before clearing a tag).
    vtag_lazy: Box<[bool]>,
    /// Access/miss counters.
    pub stats: CacheStats,
}

/// The block-grained state of one aligned [`BLOCK_SETS`]-set block.
///
/// **Virtual recency.** While `virt` holds, the logical recency of
/// **every** set of the block is `perm` and the per-set words in
/// `recency` are stale; any per-set recency read or write must first
/// call [`SetAssocCache::materialize_recency`]. Whole-group fills rotate
/// this one word instead of splatting 64.
///
/// **Split.** A prefix fill `[0, at)` of a virtual block leaves two
/// pieces with different recency: sets `[0, at)` follow `perm`, sets
/// `[at, 64)` follow `hi_perm`, and the fill's way strip holds the
/// prefix group `lo - 1` below `at` (derived when the strip is lazy,
/// stored raw otherwise) and its old content above. The matching suffix
/// fill collapses the block back to one piece; anything else
/// materializes it first. The split way is `perm`'s MRU nibble: nothing
/// changes `perm` while split without materializing the block first.
/// Invariants: split ⇒ `virt`, occupancy uniform on each piece; the
/// split strip is either lazy (hint = the group above `at`) or raw with
/// no hint.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// The shared recency word (of the prefix piece, if split).
    perm: u64,
    /// The recency word of sets `[at, 64)` while split.
    hi_perm: u64,
    /// The prefix group + 1 while split.
    lo: u64,
    /// Completely full sets; 64 lets a whole-group fill skip the
    /// occupancy probe entirely.
    full: u32,
    /// First set of the upper piece; 0 when unsplit.
    at: u8,
    /// Whether `perm` (rather than `recency`) is authoritative.
    virt: bool,
}

/// How [`SetAssocCache::fill_group_virtual`] placed a group's run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VGroupFill {
    /// Every set of the run was full: the run's recency word rotated
    /// once and the victim way's strip was displaced over the run.
    /// `old_group` is the displaced group + 1 when the strip was known
    /// to hold one group's lines there (one summary decrement of the
    /// run's bits suffices), else 0 and the victim tags were appended to
    /// the caller's sink.
    Rotated { way: u32, old_group: u64 },
    /// The run's sets shared an empty way: filled it with no evictions.
    Fresh { way: u32 },
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
            // Every recency word starts at the identity permutation, so
            // the blocks start virtual: `perm` agrees with the per-set
            // words it shadows.
            blk: vec![
                Block {
                    perm: PERM_IDENTITY,
                    hi_perm: 0,
                    lo: 0,
                    full: 0,
                    at: 0,
                    virt: true,
                };
                blocks
            ]
            .into_boxed_slice(),
            vstrip: vec![0u64; blocks * assoc].into_boxed_slice(),
            vtag_lazy: vec![false; blocks * assoc].into_boxed_slice(),
            stats: CacheStats::default(),
        }
    }

    /// Write the block's shared recency word (both pieces' words, if
    /// split) into its 64 per-set words and hand authority back to
    /// `recency`; a split block also writes its split strip's derived
    /// tags and drops the strip's hint, since the strip holds two
    /// groups. Exact: while the block was virtual, every set of a piece
    /// had identical logical recency, so the splat reconstructs
    /// precisely what the per-set scheme would contain.
    #[inline]
    fn materialize_recency(&mut self, b: usize) {
        if self.blk[b].virt {
            let sp = self.blk[b];
            self.blk[b].virt = false;
            self.blk[b].at = 0;
            let at = match sp.at {
                0 => BLOCK_SETS,
                at => at as usize,
            };
            let s0 = b << BLOCK_SHIFT;
            self.recency[s0..s0 + at].fill(sp.perm);
            self.recency[s0 + at..s0 + BLOCK_SETS].fill(sp.hi_perm);
            if sp.at != 0 {
                let way = (sp.perm & 0xF) as usize;
                let strip = way * self.blocks + b;
                if self.vtag_lazy[strip] {
                    self.vtag_lazy[strip] = false;
                    let (lo, hi) = (
                        (sp.lo - 1) << BLOCK_SHIFT,
                        (self.vstrip[strip] - 1) << BLOCK_SHIFT,
                    );
                    let base = (way << self.set_shift) | s0;
                    for (j, t) in self.tags[base..base + BLOCK_SETS].iter_mut().enumerate() {
                        *t = if j < at { lo } else { hi } + j as u64;
                    }
                }
                self.vstrip[strip] = 0;
            }
        }
    }

    /// The shared recency word of virtual block `b` at block offset `j`,
    /// and the end of the piece holding `j`.
    #[inline]
    fn piece(&self, b: usize, j: usize) -> (u64, usize) {
        let blk = &self.blk[b];
        match blk.at as usize {
            0 => (blk.perm, BLOCK_SETS),
            at if j < at => (blk.perm, at),
            _ => (blk.hi_perm, BLOCK_SETS),
        }
    }

    /// Split virtual block `b` after a prefix fill of `at` sets (prefix
    /// group `lo - 1`), which moved the prefix piece's word on from
    /// `hi_perm`.
    #[inline]
    fn split(&mut self, b: usize, at: usize, lo: u64, hi_perm: u64) {
        let blk = &mut self.blk[b];
        (blk.at, blk.lo, blk.hi_perm) = (at as u8, lo, hi_perm);
    }

    /// Materialize the block covering `set`, if block state exists.
    #[inline]
    fn materialize_set(&mut self, set: usize) {
        if self.blocks != 0 {
            self.materialize_recency(set >> BLOCK_SHIFT);
        }
    }

    /// Materialize every block overlapping `n` sets from `set0` (no
    /// wrap: callers chunk at the set-array boundary).
    #[inline]
    fn materialize_range(&mut self, set0: usize, n: usize) {
        if self.blocks != 0 && n != 0 {
            for b in (set0 >> BLOCK_SHIFT)..=((set0 + n - 1) >> BLOCK_SHIFT) {
                self.materialize_recency(b);
            }
        }
    }

    /// Write a lazy strip's derived tags (the hinted group's lines, one
    /// per set) back into the raw tag array and drop the lazy flag. The
    /// hint itself survives: the strip still holds exactly that group.
    /// Exact by the lazy invariant — while the flag held, the strip's
    /// logical content *was* this iota, so the store reconstructs
    /// precisely what the eager fill would have written. A split block
    /// is materialized whole first: its split strip derives two groups.
    #[inline]
    fn materialize_strip_tags(&mut self, way: usize, b: usize) {
        if self.blk[b].at != 0 {
            self.materialize_recency(b);
        }
        let strip = way * self.blocks + b;
        if self.vtag_lazy[strip] {
            self.vtag_lazy[strip] = false;
            debug_assert_ne!(self.vstrip[strip], 0, "lazy strip without a hint");
            let first = (self.vstrip[strip] - 1) << BLOCK_SHIFT;
            let base = (way << self.set_shift) | (b << BLOCK_SHIFT);
            for (j, t) in self.tags[base..base + BLOCK_SETS].iter_mut().enumerate() {
                *t = first + j as u64;
            }
        }
    }

    /// Drop the whole-strip hint for the strip holding `(way, set)`:
    /// called by every per-line mutation of a tag slot, *before* the
    /// slot is read or written — a lazy strip's raw tags are stale until
    /// materialized here.
    #[inline]
    fn clear_strip_hint(&mut self, way: usize, set: usize) {
        if self.blocks != 0 {
            let b = set >> BLOCK_SHIFT;
            self.materialize_strip_tags(way, b);
            self.vstrip[way * self.blocks + b] = 0;
        }
    }

    /// The logical tag at `(way, set)`: the raw word, or the derived
    /// line of a lazy strip.
    #[inline]
    fn logical_tag(&self, way: usize, set: usize) -> u64 {
        self.tag_at(self.slot(way, set) as u32)
    }

    /// A set just transitioned empty-slot → full.
    #[inline]
    fn note_set_filled(&mut self, set: usize) {
        if self.blocks != 0 {
            self.blk[set >> BLOCK_SHIFT].full += 1;
        }
    }

    /// A full set just lost a line.
    #[inline]
    fn note_set_unfilled(&mut self, set: usize) {
        if self.blocks != 0 {
            self.blk[set >> BLOCK_SHIFT].full -= 1;
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

    /// Promote `way` in one recency word: the pure function behind
    /// [`SetAssocCache::promote`], shared with the batched streak
    /// promoter so both paths use the identical formula.
    ///
    /// Locate the nibble holding `way`: XOR zeroes every nibble equal
    /// to `way`, and the borrow trick flags the zeroes. The lowest
    /// flag is exact (borrow false positives only appear above the
    /// first zero nibble), and it is always the real way: the active
    /// nibbles 0..assoc are a permutation containing `way` once, and
    /// any duplicate among the inactive high nibbles (identity values
    /// ≥ assoc initially, shifted residue after full-set rotations in
    /// `fill_absent`) sits strictly above every active nibble.
    ///
    /// With the flag isolated, everything is mask algebra — no shift
    /// counts, no data-dependent branches, so the whole body vectorizes
    /// when applied across a slice of recency words. Writing `rank` for
    /// the nibble position of `way`: `unit = 16^rank`, the nibbles below
    /// it shift up one (`below << 4`), `way` lands at rank 0, and the
    /// nibbles above stay — recovered as
    /// `(perm & !mask) - way·unit = perm ^ below - way·unit`,
    /// because the nibble at `rank` is exactly `way`.
    #[inline]
    fn promote_word(perm: u64, way: u64) -> u64 {
        let x = perm ^ (way * NIBBLE_LSB);
        let zeros = x.wrapping_sub(NIBBLE_LSB) & !x & NIBBLE_MSB;
        let flag = zeros & zeros.wrapping_neg(); // 8·16^rank
        let unit = flag >> 3; // 16^rank
        let below = perm & (unit - 1);
        ((perm ^ below) - way * unit) | (below << 4) | way
    }

    /// Move `way` to the MRU position of `set`'s recency order. Ways at
    /// better (lower) ranks shift down one; ranks past it are untouched.
    #[inline]
    fn promote(&mut self, set: usize, way: usize) {
        debug_assert!(set < self.sets && way < self.assoc);
        self.materialize_set(set);
        // SAFETY: `set` comes from masking a line address with `set_mask`
        // (always < `sets`), and `recency` has exactly `sets` elements.
        let perm_slot = unsafe { self.recency.get_unchecked_mut(set) };
        *perm_slot = Self::promote_word(*perm_slot, way as u64);
    }

    /// Promote a run of consecutive lines starting at `first`, all
    /// verified resident in this cache at the way slots recorded in
    /// `entries` (packed directory words, one per line). Consecutive
    /// lines map to consecutive sets, so each wrap-free chunk updates a
    /// *contiguous* slice of recency words — an elementwise, branch-free
    /// map over two slices that the compiler can vectorize — instead of
    /// one dependent read-modify-write per line.
    ///
    /// The result is bit-identical to promoting per line in order: a set
    /// repeats only after `sets` consecutive lines, chunks end exactly at
    /// the set wrap, and chunks are applied in line order, so each
    /// recency word sees its promotions in the original sequence.
    #[inline]
    pub(crate) fn promote_run(&mut self, first: LineAddr, entries: &[u32]) {
        let mut done = 0usize;
        while done < entries.len() {
            let set0 = ((first.0 + done as u64) & self.set_mask) as usize;
            let chunk = (entries.len() - done).min(self.sets - set0);
            self.materialize_range(set0, chunk);
            let rec = &mut self.recency[set0..set0 + chunk];
            let ents = &entries[done..done + chunk];
            for (perm, &e) in rec.iter_mut().zip(ents) {
                let way = (crate::linetab::slot_of(e) >> self.set_shift) as u64;
                debug_assert!((way as usize) < self.assoc);
                *perm = Self::promote_word(*perm, way);
            }
            done += chunk;
        }
    }

    /// Fill a run of consecutive lines starting at `first`, all verified
    /// absent from this cache, writing each line's packed directory word
    /// (`packed_base | slot`, where `packed_base` carries the owner bits)
    /// into `entries`. Returns the eviction count; the caller flushes it
    /// into the statistics, as with [`SetAssocCache::fill_absent`].
    /// When `V` is true, every evicted line is appended to `victims` in
    /// eviction order — the extent summaries need the decrements, and
    /// threading a sink through here keeps the eviction path free of
    /// per-line calls back into the memory system. `V` is a const
    /// parameter so the summary-off walk monomorphizes with no sink
    /// checks on the hot path.
    ///
    /// The lines occupy distinct consecutive sets, and
    /// [`SetAssocCache::fill_absent`]'s choice at a set depends only on
    /// that set's `(occ, recency)` pair. So the run is cut into maximal
    /// stretches of consecutive sets sharing one pair (never across the
    /// set-array wrap), and each stretch makes its choice once:
    ///
    /// * full — evict the last active recency nibble and rotate it to
    ///   MRU, dropping (after materializing) the victim way's lazy strip
    ///   hint once per block covered;
    /// * not full — take the lowest empty way, set it in the occupancy
    ///   mask and promote it, counting the sets it completes.
    ///
    /// A stretch is then one victim copy-out plus splats of tags,
    /// recency, occupancy and directory entries; a stretch of one set is
    /// the per-line path. Streaming fills (sets driven through identical
    /// histories) collapse to one stretch per wrap-free chunk, and fills
    /// into partly diverged sets (chunk edges, refills after a
    /// migration) cost one stretch per change of state. The per-set
    /// sequence of way choices, tag writes and recency updates is
    /// exactly the per-line path's.
    #[inline]
    pub(crate) fn fill_run<const V: bool>(
        &mut self,
        first: LineAddr,
        entries: &mut [u32],
        packed_base: u32,
        victims: &mut Vec<u64>,
    ) -> u64 {
        let mut evictions = 0u64;
        let mut done = 0usize;
        let top_shift = 4 * (self.assoc as u32 - 1);
        while done < entries.len() {
            let set0 = ((first.0 + done as u64) & self.set_mask) as usize;
            let chunk = (entries.len() - done).min(self.sets - set0);
            self.materialize_range(set0, chunk);
            let mut j = 0usize;
            while j < chunk {
                let s = set0 + j;
                let (occ0, perm0) = (self.occ[s], self.recency[s]);
                let n = 1 + self.occ[s + 1..set0 + chunk]
                    .iter()
                    .zip(&self.recency[s + 1..set0 + chunk])
                    .take_while(|&(&o, &p)| o == occ0 && p == perm0)
                    .count();
                let (way, nperm) = if occ0 == self.full_mask {
                    let way = ((perm0 >> top_shift) & 0xF) as usize;
                    debug_assert!(way < self.assoc, "victim nibble out of range");
                    // Materialize any lazy victim strips before their raw
                    // tags are read out as victims, then drop the hints
                    // the overwrite is about to break.
                    if self.blocks != 0 {
                        for b in (s >> BLOCK_SHIFT)..=((s + n - 1) >> BLOCK_SHIFT) {
                            self.materialize_strip_tags(way, b);
                            self.vstrip[way * self.blocks + b] = 0;
                        }
                    }
                    if V {
                        let base = (way << self.set_shift) | s;
                        victims.extend_from_slice(&self.tags[base..base + n]);
                    }
                    evictions += n as u64;
                    (way, (perm0 << 4) | way as u64)
                } else {
                    // First empty way, as the scanning walk chose it. An
                    // empty way's strip is never lazy (lazy ⇒ fully
                    // resident) and never hinted (every tag clear drops
                    // the hint), so the raw tag stores below are sound.
                    let way = (!occ0 & self.full_mask).trailing_zeros() as usize;
                    let nocc = occ0 | (1 << way);
                    for o in &mut self.occ[s..s + n] {
                        *o = nocc;
                    }
                    if nocc == self.full_mask {
                        for t in s..s + n {
                            self.note_set_filled(t);
                        }
                    }
                    self.resident += n as u64;
                    (way, Self::promote_word(perm0, way as u64))
                };
                let base = (way << self.set_shift) | s;
                #[cfg(debug_assertions)]
                if occ0 != self.full_mask {
                    for t in &self.tags[base..base + n] {
                        debug_assert_eq!(*t, TAG_INVALID, "fill into an occupied way");
                    }
                }
                let line0 = first.0 + (done + j) as u64;
                let stores = self.tags[base..base + n]
                    .iter_mut()
                    .zip(&mut self.recency[s..s + n])
                    .zip(&mut entries[done + j..done + j + n]);
                for (k, ((t, p), e)) in stores.enumerate() {
                    *t = line0 + k as u64;
                    *p = nperm;
                    *e = packed_base | (base + k) as u32;
                }
                j += n;
            }
            done += chunk;
        }
        evictions
    }

    /// Fill `n` wholly absent lines from `first`, inside one aligned
    /// [`BLOCK_SETS`]-line group, through the block-grained virtual path
    /// if the run's shape and the block's state permit. Returns `None`
    /// when they don't — the caller falls back to the materialized
    /// [`SetAssocCache::fill_run`]. Three shapes qualify:
    ///
    /// * the whole group, into a block whose recency is (or re-converges
    ///   to) one shared word and whose occupancy is uniform;
    /// * a prefix `[0, at)` into such a block, which splits it: the
    ///   prefix piece takes the updated word, the rest keeps the old one
    ///   (see [`Block`]);
    /// * the suffix `[at, 64)` of the same group into a block split at
    ///   `at`, which collapses it back to one piece.
    ///
    /// The point is what the fast arms *don't* touch: no per-set recency
    /// traffic (one rotation of a shared word), no occupancy probe when
    /// the block's full-set count proves every set full, and — when the
    /// victim strip's [`SetAssocCache::vstrip`] hint is live — not a
    /// single victim tag read or tag store. The per-set outcome is
    /// bit-identical to [`SetAssocCache::fill_absent`] line by line:
    /// with every set of the run full and sharing recency word `p`, each
    /// call would pick the same victim way (`p`'s last active nibble)
    /// and write the same rotation `(p << 4) | way`; with a uniformly
    /// non-full run, each would pick the same first-empty way and
    /// promote it to MRU. The suffix meets exactly the state the prefix
    /// left above the split (nothing else touched it), so it picks the
    /// prefix's way and reaches the prefix's word, and the strip then
    /// holds the one group throughout.
    #[inline(always)]
    pub(crate) fn fill_group_virtual(
        &mut self,
        first: LineAddr,
        n: usize,
        victims: &mut Vec<u64>,
    ) -> Option<VGroupFill> {
        if self.blocks == 0 {
            return None;
        }
        let set0 = (first.0 & self.set_mask) as usize;
        let (b, j0) = (set0 >> BLOCK_SHIFT, set0 & (BLOCK_SETS - 1));
        debug_assert!(n >= 1 && j0 + n <= BLOCK_SETS);
        let group1 = (first.0 >> BLOCK_SHIFT) + 1;
        if self.blk[b].at != 0 {
            let sp = self.blk[b];
            if j0 == sp.at as usize && j0 + n == BLOCK_SETS && sp.lo == group1 {
                return Some(self.fill_suffix(b, group1, victims));
            }
            self.materialize_recency(b);
        }
        if j0 != 0 {
            return None;
        }
        if !self.blk[b].virt {
            // Re-virtualize when the block's per-set words have
            // re-converged (first==last probe guards the full scan).
            let p0 = self.recency[set0];
            if self.recency[set0 + BLOCK_SETS - 1] != p0
                || !self.recency[set0..set0 + BLOCK_SETS]
                    .iter()
                    .all(|&p| p == p0)
            {
                return None;
            }
            self.blk[b].perm = p0;
            self.blk[b].virt = true;
        }
        let perm = self.blk[b].perm;
        if self.blk[b].full == BLOCK_SETS as u32 {
            debug_assert!(
                self.occ[set0..set0 + BLOCK_SETS]
                    .iter()
                    .all(|&o| o == self.full_mask),
                "full-set count out of sync with occupancy"
            );
            let way = ((perm >> (4 * (self.assoc - 1))) & 0xF) as usize;
            debug_assert!(way < self.assoc, "victim nibble out of range");
            self.blk[b].perm = (perm << 4) | way as u64;
            let strip = way * self.blocks + b;
            let old = self.vstrip[strip];
            if n == BLOCK_SETS {
                if old == 0 {
                    // No hint ⇒ not lazy (the lazy invariant), so the raw
                    // victim tags are authoritative.
                    let base = (way << self.set_shift) | set0;
                    victims.extend_from_slice(&self.tags[base..base + BLOCK_SETS]);
                }
                // No tag stores at all: the strip's 64 logical tags are
                // the group iota, derived from the hint until something
                // disturbs the strip. This is the fill path's dominant
                // memory traffic (512 B per group) gone from the
                // streaming steady state.
                self.vstrip[strip] = group1;
                self.vtag_lazy[strip] = true;
            } else {
                self.split(b, n, group1, perm);
                if old != 0 {
                    // A hinted strip (lazy, or raw iota of one group):
                    // the victims are that group's run, and the strip's
                    // tags become derived — the prefix group below `n`,
                    // the hint above.
                    self.vtag_lazy[strip] = true;
                } else {
                    self.store_run(way, set0, n, first.0, Some(victims));
                }
            }
            Some(VGroupFill::Rotated {
                way: way as u32,
                old_group: old,
            })
        } else {
            let occ0 = self.occ[set0];
            if occ0 == self.full_mask
                || self.occ[set0 + BLOCK_SETS - 1] != occ0
                || !self.occ[set0..set0 + BLOCK_SETS].iter().all(|&o| o == occ0)
            {
                return None;
            }
            let way = (!occ0 & self.full_mask).trailing_zeros() as usize;
            self.occupy(set0, n, way);
            self.blk[b].perm = Self::promote_word(perm, way as u64);
            if n == BLOCK_SETS {
                let strip = way * self.blocks + b;
                self.vstrip[strip] = group1;
                self.vtag_lazy[strip] = true;
            } else {
                // The way is empty across the block: no hint, raw stores.
                self.split(b, n, group1, perm);
                self.store_run(way, set0, n, first.0, None);
            }
            Some(VGroupFill::Fresh { way: way as u32 })
        }
    }

    /// The suffix `[at, 64)` of a split block's prefix group: the upper
    /// piece meets the state the prefix met, so it picks the prefix's
    /// way and its word re-converges with the prefix piece's.
    #[inline(never)]
    fn fill_suffix(&mut self, b: usize, group1: u64, victims: &mut Vec<u64>) -> VGroupFill {
        let sp = self.blk[b];
        self.blk[b].at = 0;
        let (at, way) = (sp.at as usize, (sp.perm & 0xF) as usize);
        let set0 = (b << BLOCK_SHIFT) + at;
        let (n, line0) = (BLOCK_SETS - at, ((group1 - 1) << BLOCK_SHIFT) + at as u64);
        let strip = way * self.blocks + b;
        let (nperm, placed) = if self.occ[set0] == self.full_mask {
            debug_assert_eq!(((sp.hi_perm >> (4 * (self.assoc - 1))) & 0xF) as usize, way);
            let old = if self.vtag_lazy[strip] {
                self.vstrip[strip]
            } else {
                self.store_run(way, set0, n, line0, Some(victims));
                0
            };
            let placed = VGroupFill::Rotated {
                way: way as u32,
                old_group: old,
            };
            ((sp.hi_perm << 4) | way as u64, placed)
        } else {
            debug_assert_eq!(
                (!self.occ[set0] & self.full_mask).trailing_zeros() as usize,
                way
            );
            self.occupy(set0, n, way);
            self.store_run(way, set0, n, line0, None);
            (
                Self::promote_word(sp.hi_perm, way as u64),
                VGroupFill::Fresh { way: way as u32 },
            )
        };
        debug_assert_eq!(nperm, sp.perm, "split pieces failed to re-converge");
        // The strip now holds the one group throughout: derived (lazy)
        // or stored (raw iota) — either way the hint is true.
        self.vstrip[strip] = group1;
        placed
    }

    /// Take `way` at the `n` sets from `set0`, all of which share one
    /// non-full occupancy mask with `way` empty.
    fn occupy(&mut self, set0: usize, n: usize, way: usize) {
        #[cfg(debug_assertions)]
        for t in &self.tags[self.slot(way, set0)..self.slot(way, set0) + n] {
            debug_assert_eq!(*t, TAG_INVALID, "fill into an occupied way");
        }
        let nocc = self.occ[set0] | (1 << way);
        self.occ[set0..set0 + n].fill(nocc);
        if nocc == self.full_mask {
            self.blk[set0 >> BLOCK_SHIFT].full += n as u32;
        }
        self.resident += n as u64;
    }

    /// Store lines `line0..line0 + n` raw at `way` over the `n` sets from
    /// `set0`, first appending the displaced tags to `victims` if given.
    fn store_run(
        &mut self,
        way: usize,
        set0: usize,
        n: usize,
        line0: u64,
        victims: Option<&mut Vec<u64>>,
    ) {
        let base = self.slot(way, set0);
        let run = &mut self.tags[base..base + n];
        if let Some(v) = victims {
            v.extend_from_slice(run);
        }
        for (k, t) in run.iter_mut().enumerate() {
            *t = line0 + k as u64;
        }
    }

    /// Promote a run of `n` consecutive lines starting at `first`, all
    /// verified resident in this cache at the *same* way — the recency
    /// half of the extent fast path for a wholly-owned group. Equivalent
    /// to [`SetAssocCache::promote_run`] with every entry at `way`: the
    /// lines occupy distinct consecutive sets, so the updates are an
    /// elementwise map over contiguous recency words; when the words are
    /// all equal (the replay steady state) the promotion is computed
    /// once and splatted — and when the run is a whole block still under
    /// its shared virtual word, the promotion is one update of that
    /// word, with no per-set traffic at all. A run inside one piece of a
    /// virtual block whose MRU is already `way` (the boundary line of
    /// two chunks, re-read right after the first chunk filled it) is a
    /// no-op: promoting the MRU leaves a recency word unchanged.
    #[inline]
    pub(crate) fn promote_uniform(&mut self, first: LineAddr, way: u64, n: usize) {
        debug_assert!((way as usize) < self.assoc);
        let mut done = 0usize;
        while done < n {
            let set0 = ((first.0 + done as u64) & self.set_mask) as usize;
            let chunk = (n - done).min(self.sets - set0);
            if self.blocks != 0 {
                let b = set0 >> BLOCK_SHIFT;
                let (j, blk) = (set0 & (BLOCK_SETS - 1), &mut self.blk[b]);
                if blk.virt && blk.at == 0 && chunk == BLOCK_SETS && j == 0 {
                    // Whole aligned block, still virtual: one word.
                    blk.perm = Self::promote_word(blk.perm, way);
                    done += chunk;
                    continue;
                }
                let (word, end) = self.piece(b, j);
                if self.blk[b].virt && j + chunk <= end && word & 0xF == way {
                    done += chunk;
                    continue;
                }
                self.materialize_range(set0, chunk);
            }
            let rec = &mut self.recency[set0..set0 + chunk];
            let perm0 = rec[0];
            if rec.iter().all(|&p| p == perm0) {
                let nperm = Self::promote_word(perm0, way);
                for p in rec {
                    *p = nperm;
                }
            } else {
                for p in rec {
                    *p = Self::promote_word(*p, way);
                }
            }
            done += chunk;
        }
    }

    /// Invalidate a run of `n` consecutive lines starting at `first`,
    /// all verified resident in this cache at the *same* way — the
    /// remote half of the extent cache-to-cache fast path. Identical
    /// per-line state outcome to [`SetAssocCache::invalidate_at`]
    /// (contiguous tag clears under the way-major layout, occupancy bit
    /// clears, recency untouched), with the counters updated once.
    #[inline]
    pub(crate) fn invalidate_run(&mut self, first: LineAddr, way: u64, n: usize) {
        debug_assert!((way as usize) < self.assoc);
        let clear = !(1u16 << way);
        let mut done = 0usize;
        while done < n {
            let set0 = ((first.0 + done as u64) & self.set_mask) as usize;
            let chunk = (n - done).min(self.sets - set0);
            if self.blocks != 0 {
                for b in (set0 >> BLOCK_SHIFT)..=((set0 + chunk - 1) >> BLOCK_SHIFT) {
                    self.materialize_strip_tags(way as usize, b);
                }
            }
            let base = ((way as usize) << self.set_shift) | set0;
            for (j, t) in self.tags[base..base + chunk].iter_mut().enumerate() {
                debug_assert_eq!(
                    *t,
                    first.0 + (done + j) as u64,
                    "summary pointed at a stale way"
                );
                *t = TAG_INVALID;
            }
            // Per block: count the full sets about to lose a line and
            // drop the whole-strip hints the tag clears just broke.
            let mut s = set0;
            let send = set0 + chunk;
            while s < send {
                let sub = if self.blocks != 0 {
                    send.min(((s >> BLOCK_SHIFT) + 1) << BLOCK_SHIFT)
                } else {
                    send
                };
                let mut lost = 0u32;
                for o in &mut self.occ[s..sub] {
                    lost += (*o == self.full_mask) as u32;
                    *o &= clear;
                }
                if self.blocks != 0 {
                    let b = s >> BLOCK_SHIFT;
                    self.blk[b].full -= lost;
                    self.vstrip[(way as usize) * self.blocks + b] = 0;
                }
                s = sub;
            }
            done += chunk;
        }
        self.resident -= n as u64;
        self.stats.invalidations.add(n as u64);
    }

    /// Is the line resident? Does not update recency or stats.
    pub fn contains(&self, line: LineAddr) -> bool {
        let set = (line.0 & self.set_mask) as usize;
        (0..self.assoc).any(|way| self.logical_tag(way, set) == line.0)
    }

    /// Look up a line as an access: updates recency and hit/miss
    /// statistics. Returns `true` on hit. A miss does **not** insert;
    /// callers decide whether the fill allocates (write-allocate policy
    /// lives above).
    pub fn access(&mut self, line: LineAddr) -> bool {
        self.stats.accesses.inc();
        let set = (line.0 & self.set_mask) as usize;
        for way in 0..self.assoc {
            if self.logical_tag(way, set) == line.0 {
                self.promote(set, way);
                self.stats.hits.inc();
                return true;
            }
        }
        self.stats.misses.inc();
        false
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
        for way in 0..self.assoc {
            // Already present → refresh.
            if self.logical_tag(way, set) == line.0 {
                self.promote(set, way);
                return (self.slot(way, set) as u32, None);
            }
        }
        let placed = self.fill_absent(line);
        if placed.1.is_some() {
            self.stats.evictions.inc();
        }
        placed
    }

    /// Place a line known to be absent from this cache: first empty way
    /// of its set, else evict the least-recently-used way. The fast twin
    /// of [`SetAssocCache::insert_tracked`] for callers that have already
    /// proven absence through the ownership directory — it skips the
    /// tag-match scan entirely. The way choice and recency update are
    /// identical to what `insert_tracked` would have done (its
    /// present→refresh arm is unreachable for an absent line). Does
    /// **not** count the eviction; the caller accounts evictions itself,
    /// so batched walks keep the counter in a register.
    #[inline]
    pub(crate) fn fill_absent(&mut self, line: LineAddr) -> (u32, Option<LineAddr>) {
        let set = (line.0 & self.set_mask) as usize;
        self.materialize_set(set);
        // SAFETY: `set` is masked to `< sets`; `occ` and `recency` have
        // `sets` elements, and every slot `(way << set_shift) | set` with
        // `way < assoc` is within `tags` (length `sets × assoc`). The
        // victim way below is the last *active* nibble of the recency
        // permutation, which is maintained as a permutation of
        // `0..assoc`, so it is `< assoc` (pinned by the debug asserts).
        let occ = unsafe { *self.occ.get_unchecked(set) };
        if occ != self.full_mask {
            // First empty way: lowest clear bit of the occupancy mask —
            // the same way the scanning walk would have chosen. The way
            // is empty at this set, so its strip cannot be lazy (lazy ⇒
            // fully resident) and the raw tag store below is sound.
            let way = (!occ & self.full_mask).trailing_zeros() as usize;
            debug_assert!(
                self.blocks == 0 || !self.vtag_lazy[way * self.blocks + (set >> BLOCK_SHIFT)],
                "empty way inside a lazy strip"
            );
            let i = self.slot(way, set);
            unsafe {
                *self.tags.get_unchecked_mut(i) = line.0;
                *self.occ.get_unchecked_mut(set) = occ | (1 << way);
            }
            if occ | (1 << way) == self.full_mask {
                self.note_set_filled(set);
            }
            self.resident += 1;
            self.promote(set, way);
            return (i as u32, None);
        }
        // Full set: evict the LRU way — the last active nibble of the
        // recency word — and promote it to MRU holding the new line.
        // Promoting the last rank is a pure rotation of the active
        // nibbles, so the SWAR search is skipped: shift every rank up one
        // nibble and append the victim at rank 0. Nibbles at or above
        // `assoc` become shifted permutation residue rather than identity
        // values — harmless, because the SWAR search always matches the
        // real way at a lower nibble than any residue duplicate.
        let perm = unsafe { *self.recency.get_unchecked(set) };
        let way = ((perm >> (4 * (self.assoc - 1))) & 0xF) as usize;
        debug_assert!(way < self.assoc, "victim nibble out of range");
        self.clear_strip_hint(way, set);
        let i = self.slot(way, set);
        unsafe {
            let tag = self.tags.get_unchecked_mut(i);
            let evicted = LineAddr(*tag);
            *tag = line.0;
            *self.recency.get_unchecked_mut(set) = (perm << 4) | way as u64;
            (i as u32, Some(evicted))
        }
    }

    /// Invalidate the line at a known way slot: the O(1) twin of
    /// [`SetAssocCache::invalidate`] for directory-located lines. The
    /// way's recency rank is left alone — a non-resident way can never be
    /// chosen as a victim (victims only exist in full sets) and a refill
    /// promotes it to MRU anyway.
    #[inline]
    pub(crate) fn invalidate_at(&mut self, slot: u32, line: LineAddr) {
        let i = slot as usize;
        let set = (line.0 & self.set_mask) as usize;
        let way = i >> self.set_shift;
        // Before the tag is read or cleared: a lazy strip's raw word is
        // stale until materialized.
        self.clear_strip_hint(way, set);
        debug_assert_eq!(
            self.tags[i], line.0,
            "directory slot does not hold the line"
        );
        // SAFETY: the debug assert above pinned `i` to a slot holding
        // `line`, so it is in bounds; `set` is masked to `< sets`.
        unsafe {
            if *self.occ.get_unchecked(set) == self.full_mask {
                self.note_set_unfilled(set);
            }
            *self.tags.get_unchecked_mut(i) = TAG_INVALID;
            *self.occ.get_unchecked_mut(set) &= !(1 << way);
        }
        self.resident -= 1;
        self.stats.invalidations.inc();
    }

    /// The tag resident at a global way slot (`TAG_INVALID` if empty).
    /// This is the ground truth the lazily-invalidated directory checks
    /// against: an entry `(owner, slot)` is live iff the owner's
    /// `tag_at(slot)` still equals the line.
    #[inline]
    pub(crate) fn tag_at(&self, slot: u32) -> u64 {
        debug_assert!((slot as usize) < self.tags.len());
        let i = slot as usize;
        // SAFETY (all `get_unchecked` calls): directory entries are only
        // ever written as `pack(core, slot)` with a slot of this
        // geometry, and every cache in a system has the same geometry —
        // so a recorded slot (even a stale one) is always within `tags`,
        // its block within `blk`, and its `(way, block)` strip index
        // within `vtag_lazy`/`vstrip`.
        if self.blocks != 0 {
            let (way, set) = (i >> self.set_shift, i & (self.sets - 1));
            let (b, j) = (set >> BLOCK_SHIFT, set & (BLOCK_SETS - 1));
            let strip = way * self.blocks + b;
            if unsafe { *self.vtag_lazy.get_unchecked(strip) } {
                // Derived: the split strip's prefix group below the split
                // point, else the hinted group.
                let blk = unsafe { self.blk.get_unchecked(b) };
                let group1 = if j < blk.at as usize && way as u64 == blk.perm & 0xF {
                    blk.lo
                } else {
                    unsafe { *self.vstrip.get_unchecked(strip) }
                };
                return ((group1 - 1) << BLOCK_SHIFT) | j as u64;
            }
        }
        unsafe { *self.tags.get_unchecked(i) }
    }

    /// Remove a line (external invalidation). Returns whether it was
    /// resident.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let set = (line.0 & self.set_mask) as usize;
        for way in 0..self.assoc {
            if self.logical_tag(way, set) == line.0 {
                self.clear_strip_hint(way, set);
                let i = self.slot(way, set);
                if self.occ[set] == self.full_mask {
                    self.note_set_unfilled(set);
                }
                self.tags[i] = TAG_INVALID;
                self.occ[set] &= !(1 << way);
                self.resident -= 1;
                self.stats.invalidations.inc();
                return true;
            }
        }
        false
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

    /// Verify the block-grained derived state against the ground truth
    /// (tags and occupancy): the full-set count equals the census of full
    /// sets, every live `vstrip` hint's strip holds exactly the claimed
    /// group's lines, and a split block keeps the split encoding (see
    /// [`Block`]). O(sets × assoc); invariant checks
    /// only.
    pub(crate) fn check_block_invariants(&self) {
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
            let sp = self.blk[b];
            if sp.at != 0 {
                let (at, way) = (sp.at as usize, (sp.perm & 0xF) as usize);
                assert!(sp.virt, "split block {b} not virtual");
                assert!(at < BLOCK_SETS && way < self.assoc && sp.lo != 0);
                for (j, &o) in self.occ[s0..s0 + BLOCK_SETS].iter().enumerate() {
                    let piece0 = if j < at { s0 } else { s0 + at };
                    assert_eq!(
                        o, self.occ[piece0],
                        "block {b}: piece occupancy not uniform"
                    );
                    assert!(
                        j >= at || o & (1 << way) != 0,
                        "block {b}: prefix not resident"
                    );
                }
                let strip = way * self.blocks + b;
                if !self.vtag_lazy[strip] {
                    assert_eq!(self.vstrip[strip], 0, "raw split strip (block {b}) hinted");
                    let base = (way << self.set_shift) | s0;
                    for j in 0..at {
                        assert_eq!(self.tags[base + j], ((sp.lo - 1) << BLOCK_SHIFT) + j as u64);
                    }
                }
            }
            for way in 0..self.assoc {
                let strip = way * self.blocks + b;
                let claim = self.vstrip[strip];
                if self.vtag_lazy[strip] {
                    // Lazy tags: the hint must be live and the strip
                    // fully resident (every disturbance materializes
                    // before mutating), and the raw words are stale by
                    // design — the logical content is the derived iota.
                    assert_ne!(claim, 0, "lazy strip (way {way}, block {b}) without a hint");
                    for j in 0..BLOCK_SETS {
                        assert_ne!(
                            self.occ[s0 + j] & (1 << way),
                            0,
                            "lazy strip (way {way}, block {b}) not resident at set {j}"
                        );
                    }
                } else if claim != 0 {
                    let first = (claim - 1) << BLOCK_SHIFT;
                    let base = (way << self.set_shift) | s0;
                    for j in 0..BLOCK_SETS {
                        assert_eq!(
                            self.tags[base + j],
                            first + j as u64,
                            "strip (way {way}, block {b}) hint stale at set {j}"
                        );
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

    /// Way holding `line`, if resident.
    fn way_of(c: &SetAssocCache, line: u64) -> Option<usize> {
        let set = (line & c.set_mask) as usize;
        (0..c.assoc).find(|&w| c.logical_tag(w, set) == line)
    }

    /// Apply one random state-building op: `kind` picks a ranged insert,
    /// a virtual fill (a whole group, or a group's prefix then — for odd
    /// `len` — its suffix, splitting and collapsing the block), an
    /// invalidation or a promotion over `[start, start + len)`.
    /// Invalidations and promotions take the batched same-way path when
    /// every line of a short range sits at one way, so lazy strips and
    /// split blocks get both kept and disturbed.
    fn apply_op(c: &mut SetAssocCache, kind: u8, start: u64, len: u64) {
        match kind {
            0 => {
                for l in start..start + len {
                    c.insert(LineAddr(l));
                }
            }
            1 => {
                let g = start & !(BLOCK_SETS as u64 - 1);
                let at = (start - g) as usize;
                let runs: &[(usize, usize)] = match (at, len % 2) {
                    (0, _) => &[(0, BLOCK_SETS)],
                    (_, 0) => &[(0, at)],
                    _ => &[(0, at), (at, BLOCK_SETS - at)],
                };
                for &(j, n) in runs {
                    let first = g + j as u64;
                    if (first..first + n as u64).all(|l| way_of(c, l).is_none()) {
                        let mut sink = Vec::new();
                        if c.fill_group_virtual(LineAddr(first), n, &mut sink)
                            .is_none()
                        {
                            c.fill_run::<true>(LineAddr(first), &mut vec![0u32; n], 0, &mut sink);
                        }
                    }
                }
            }
            _ => {
                let len = len.min(64);
                let ways: Vec<Option<usize>> = (start..start + len).map(|l| way_of(c, l)).collect();
                match ways[0] {
                    Some(w) if ways.iter().all(|&x| x == Some(w)) => {
                        if kind == 2 {
                            c.invalidate_run(LineAddr(start), w as u64, len as usize);
                        } else {
                            c.promote_uniform(LineAddr(start), w as u64, len as usize);
                        }
                    }
                    _ => {
                        for l in start..start + len {
                            if kind == 2 {
                                c.invalidate(LineAddr(l));
                            } else {
                                c.access(LineAddr(l));
                            }
                        }
                    }
                }
            }
        }
    }

    /// Everything a fill can change, read logically: tags through lazy
    /// strips, recency through virtual blocks.
    #[derive(PartialEq)]
    struct LogicalState {
        tags: Vec<u64>,
        occ: Vec<u16>,
        recency: Vec<u64>,
        full_count: Vec<u32>,
        vstrip: Vec<u64>,
        resident: u64,
    }

    fn logical_state(c: &SetAssocCache) -> LogicalState {
        LogicalState {
            tags: (0..c.assoc)
                .flat_map(|w| (0..c.sets).map(move |s| (w, s)))
                .map(|(w, s)| c.logical_tag(w, s))
                .collect(),
            occ: c.occ.to_vec(),
            recency: (0..c.sets)
                .map(|s| {
                    let b = s >> BLOCK_SHIFT;
                    if c.blocks != 0 && c.blk[b].virt {
                        c.piece(b, s & (BLOCK_SETS - 1)).0
                    } else {
                        c.recency[s]
                    }
                })
                .collect(),
            full_count: c.blk.iter().map(|b| b.full).collect(),
            vstrip: c.vstrip.to_vec(),
            resident: c.resident,
        }
    }

    proptest! {
        /// The run-length batched fill is exactly the per-line fill: from
        /// random states mixing ranged inserts, virtual (lazy) groups,
        /// holes and promotions, a fill run that crosses block boundaries
        /// and the set-array wrap leaves the same logical tags, occupancy,
        /// recency, full-set counts, strip hints and residency, evicts
        /// the same victims in the same order and writes the same
        /// directory entries as `fill_absent` line by line.
        #[test]
        fn fill_run_matches_per_line_fills(
            sets in prop_oneof![Just(32usize), Just(64usize), Just(128usize), Just(256usize)],
            assoc in 1usize..9,
            groups in proptest::collection::vec(0u64..64, 0..24),
            ops in proptest::collection::vec((0u8..4, 0u64..4096, 1u64..160), 0..48),
            run_start in 0u64..256,
            run_len in 1usize..400,
            packed_base in 0u32..8
        ) {
            let mut c = SetAssocCache::new(sets, assoc);
            // Seed lazy strips first, then churn them.
            for &g in &groups {
                apply_op(&mut c, 1, g * BLOCK_SETS as u64, 1);
            }
            for &(kind, start, len) in &ops {
                apply_op(&mut c, kind, start, len);
            }
            c.check_block_invariants();
            let mut per_line = c.clone();
            // Far above every op's lines, so the whole run is absent.
            let first = LineAddr((1 << 20) + run_start % sets as u64);
            let packed_base = packed_base << 24;
            let mut entries = vec![0u32; run_len];
            let mut victims = Vec::new();
            let evictions = c.fill_run::<true>(first, &mut entries, packed_base, &mut victims);
            let mut want_entries = Vec::with_capacity(run_len);
            let mut want_victims = Vec::new();
            for j in 0..run_len as u64 {
                let (slot, ev) = per_line.fill_absent(LineAddr(first.0 + j));
                want_entries.push(packed_base | slot);
                want_victims.extend(ev.map(|v| v.0));
            }
            c.check_block_invariants();
            prop_assert!(!victims.contains(&TAG_INVALID), "evicted an empty way");
            prop_assert_eq!(evictions, want_victims.len() as u64);
            prop_assert_eq!(&victims, &want_victims);
            prop_assert_eq!(&entries, &want_entries);
            prop_assert!(logical_state(&c) == logical_state(&per_line), "cache state diverged");
        }
    }

    proptest! {
        /// The virtual fills — a whole group, a prefix that splits its
        /// block, the suffix that collapses it — are exactly the per-line
        /// fill wherever they engage: same logical tags, occupancy,
        /// recency, full-set counts and residency, and the same victims
        /// (a hinted strip's, read off its hint). The prefix/suffix pair
        /// then leaves the block one piece again.
        #[test]
        fn virtual_fills_match_per_line_fills(
            sets in prop_oneof![Just(64usize), Just(128usize)],
            assoc in 1usize..9,
            ops in proptest::collection::vec((0u8..4, 0u64..4096, 1u64..160), 0..48),
            group in 0u64..2,
            at in 0usize..64
        ) {
            let mut c = SetAssocCache::new(sets, assoc);
            for &(kind, start, len) in &ops {
                apply_op(&mut c, kind, start, len);
            }
            let g = (1 << 14) + group;
            let runs = if at == 0 { vec![(0, BLOCK_SETS)] } else { vec![(0, at), (at, BLOCK_SETS - at)] };
            for (j, n) in runs {
                let first = LineAddr((g << BLOCK_SHIFT) + j as u64);
                let mut per_line = c.clone();
                let mut victims = Vec::new();
                let placed = c.fill_group_virtual(first, n, &mut victims);
                let mut want_victims = Vec::new();
                for k in 0..n as u64 {
                    want_victims.extend(per_line.fill_absent(LineAddr(first.0 + k)).1.map(|v| v.0));
                }
                c.check_block_invariants();
                let Some(placed) = placed else {
                    // Declined: the caller's `fill_run` takes over.
                    c.fill_run::<true>(first, &mut vec![0u32; n], 0, &mut victims);
                    continue;
                };
                if let VGroupFill::Rotated { old_group, .. } = placed {
                    if old_group != 0 {
                        prop_assert!(victims.is_empty());
                        let old = (old_group - 1) << BLOCK_SHIFT;
                        victims.extend((j..j + n).map(|k| old + k as u64));
                    }
                } else {
                    prop_assert!(victims.is_empty());
                }
                prop_assert_eq!(&victims, &want_victims);
                let (a, b) = (logical_state(&c), logical_state(&per_line));
                prop_assert!(a.tags == b.tags && a.occ == b.occ && a.recency == b.recency, "cache state diverged");
                prop_assert!(a.full_count == b.full_count && a.resident == b.resident);
                if j != 0 {
                    prop_assert_eq!(c.blk[(first.0 as usize & (sets - 1)) >> BLOCK_SHIFT].at, 0, "suffix left the block split");
                }
            }
        }

        /// The batched same-way promotion — with its virtual arms, the
        /// one-word whole-block update and the no-op inside a piece
        /// whose MRU is already the way — is exactly the per-line
        /// promotion, on runs of up to 160 lines that cross blocks.
        #[test]
        fn promote_uniform_matches_per_line_promotes(
            sets in prop_oneof![Just(64usize), Just(128usize)],
            assoc in 1usize..9,
            ops in proptest::collection::vec((0u8..4, 0u64..4096, 1u64..160), 0..48),
            start in 0u64..4096,
            len in 1u64..160
        ) {
            let mut c = SetAssocCache::new(sets, assoc);
            for &(kind, start, len) in &ops {
                apply_op(&mut c, kind, start, len);
            }
            // The longest same-way run, up to `len` lines, from the first
            // resident line at or after `start`.
            let Some(first) = (start..start + 4096).find(|&l| way_of(&c, l).is_some()) else {
                return Ok(());
            };
            let way = way_of(&c, first);
            let n = (0..len).take_while(|&k| way_of(&c, first + k) == way).count();
            let (way, mut per_line) = (way.unwrap(), c.clone());
            c.promote_uniform(LineAddr(first), way as u64, n);
            for k in 0..n as u64 {
                per_line.promote(((first + k) & c.set_mask) as usize, way);
            }
            c.check_block_invariants();
            prop_assert!(logical_state(&c) == logical_state(&per_line), "cache state diverged");
        }
    }

    #[test]
    fn promote_uniform_across_blocks_updates_each_block() {
        // Two virtual blocks holding groups 0 and 1 at way 0; block 1
        // then takes group 3 at way 1, so only block 0 has way 0 as its
        // MRU. A way-0 run from block 0 into block 1 is a no-op in the
        // first block but a real promotion in the second.
        let mut c = SetAssocCache::new(128, 2);
        for g in [0u64, 1, 3] {
            let placed =
                c.fill_group_virtual(LineAddr(g << BLOCK_SHIFT), BLOCK_SETS, &mut Vec::new());
            assert!(placed.is_some(), "pristine blocks fill virtually");
        }
        let mut per_line = c.clone();
        c.promote_uniform(LineAddr(10), 0, 90);
        for l in 10..100 {
            per_line.promote(l as usize, 0);
        }
        assert!(logical_state(&c) == logical_state(&per_line));
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
