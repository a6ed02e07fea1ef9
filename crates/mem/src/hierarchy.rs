//! The multi-core memory system: private caches + a line directory.
//!
//! Lines are **exclusively owned**: at most one core's cache holds any line
//! (migratory sharing, the producer→consumer pattern of interrupt handling).
//! A read of a line resident in another core's cache is a *cache-to-cache
//! transfer* — the paper's "data migration" — which invalidates the remote
//! copy and moves the line to the reader.

use crate::addr::{AddrRange, LineAddr};
use crate::cache::{SetAssocCache, VGroupFill};
use crate::extent::{
    run_mask, run_way, ExtentMap, GroupState, GROUP_LINES, GROUP_MASK, GROUP_SHIFT,
};
use crate::linetab::{owner_of as packed_owner, pack, slot_of as packed_slot, LineTable, EMPTY};
use crate::params::MemParams;
use sais_sim::SimDuration;

/// Classification of the lines touched by one bulk access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounts {
    /// Total lines touched.
    pub lines: u64,
    /// Lines found in the local cache.
    pub hits: u64,
    /// Lines migrated from another core's cache.
    pub c2c: u64,
    /// Lines fetched from DRAM.
    pub dram: u64,
}

impl AccessCounts {
    /// Time the access takes under the given parameters.
    pub fn cost(&self, p: &MemParams) -> SimDuration {
        p.hit_time(self.hits) + p.c2c_time(self.c2c) + p.dram_time(self.dram)
    }

    /// Fold another access into this one.
    pub fn merge(&mut self, other: AccessCounts) {
        self.lines += other.lines;
        self.hits += other.hits;
        self.c2c += other.c2c;
        self.dram += other.dram;
    }
}

/// Per-core private caches plus the exclusive-ownership directory.
///
/// ```
/// use sais_mem::{AddrAlloc, MemParams, MemorySystem};
///
/// let params = MemParams::sunfire_x4240();
/// let mut alloc = AddrAlloc::new(params.line_size);
/// let mut mem = MemorySystem::new(8, params);
/// let strip = alloc.alloc(64 * 1024);
///
/// // Softirq fills the strip on core 3; the app consumes it on core 0:
/// // every line migrates between the private caches.
/// mem.touch(3, strip);
/// let counts = mem.touch(0, strip);
/// assert_eq!(counts.c2c, 1024);
///
/// // Had the interrupt been steered to core 0 (the SAIs case), the
/// // consumption would have hit locally instead.
/// let counts = mem.touch(0, strip);
/// assert_eq!(counts.hits, 1024);
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    params: MemParams,
    caches: Vec<SetAssocCache>,
    /// line → packed (owning core, way slot), written on every fill and
    /// **lazily invalidated**: an eviction leaves the entry behind, and
    /// readers validate it against the owning cache's tag array (the
    /// ground truth of residency) via [`MemorySystem::live_entry`].
    /// Way-indexed so hits and invalidations skip the set scan; lazy so
    /// the streaming eviction path never takes a scattered write into an
    /// old directory page — the single most cache-hostile access the
    /// simulator used to make per evicted line.
    directory: LineTable,
    /// Per-group residency summaries over the directory; see
    /// [`crate::extent`]. Maintained exactly (every fill increments,
    /// every eviction/invalidation decrements) whenever `extents_on`.
    extents: ExtentMap,
    /// Whether the extent fast paths and their bookkeeping are active:
    /// requires at least [`GROUP_LINES`] sets (the geometric invariant
    /// the summaries lean on) and no `SAIS_MEM_NO_EXTENTS` override.
    extents_on: bool,
    /// log2(sets): shifts a packed way slot down to its way index.
    set_shift: u32,
    /// `sets - 1`: masks a line number to its set index.
    set_mask: u64,
    /// Reusable eviction sink for [`SetAssocCache::fill_run`]; drained
    /// into the extent summaries after each batched fill.
    victims: Vec<u64>,
    /// Directory words of a mask-path fill, which reach the directory
    /// only if the fill leaves its group non-uniform.
    entries: [u32; GROUP_LINES as usize],
    /// Fast-path engagement counters (deterministic per run; see
    /// [`MemorySystem::extent_stats`]).
    ext_whole_hits: u64,
    ext_whole_c2c: u64,
    ext_whole_fills: u64,
    ext_partial_hits: u64,
    ext_masked_fill_lines: u64,
    ext_fallback_lines: u64,
    ext_prefix_fills: u64,
    ext_split_fills: u64,
    /// Total cache-to-cache line transfers (the migration count).
    c2c_transfers: u64,
    /// Total DRAM line fetches.
    dram_fetches: u64,
}

/// How often the extent fast paths engaged — deterministic per scenario
/// (a function of the simulated access stream, not the host), so a
/// changed value means the touch pattern changed, not the machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtentStats {
    /// Whether summaries were active at all (geometry + env gate).
    pub enabled: bool,
    /// Whole groups classified as local all-hit in O(1).
    pub whole_hit_groups: u64,
    /// Whole groups migrated cache-to-cache in one batch.
    pub whole_c2c_groups: u64,
    /// Whole groups cold-filled without consulting the directory.
    pub whole_fill_groups: u64,
    /// Lines classified all-hit by the residency mask of a uniform
    /// locally-owned group (whole or partial), skipping the per-line
    /// walk.
    pub partial_hit_lines: u64,
    /// Lines proven absent by the residency mask and batch-filled
    /// without per-line directory validation.
    pub masked_fill_lines: u64,
    /// Lines that went through the exact per-line walk instead.
    pub fallback_lines: u64,
    /// Mask-path fills of a group's leading lines `[0, s)`, `s < 64`:
    /// the first half of a chunk edge.
    pub prefix_fills: u64,
    /// Chunk edges served wholly on the split path: a prefix fill split
    /// its cache block and the group's suffix fill collapsed it back to
    /// one piece (see the split of a cache block in `cache.rs`).
    pub split_fills: u64,
}

impl MemorySystem {
    /// A system with `cores` private caches shaped by `params`.
    pub fn new(cores: usize, params: MemParams) -> Self {
        assert!(cores > 0);
        assert!(cores <= 256, "directory packs the owner into 8 bits");
        let sets = params.l2_sets();
        let lines_per_cache = sets * params.l2_ways;
        assert!(
            lines_per_cache < (1 << 24),
            "directory packs the way slot into 24 bits"
        );
        let caches = (0..cores)
            .map(|_| SetAssocCache::new(sets, params.l2_ways))
            .collect();
        // The extent summaries require an aligned 64-line group to cover
        // 64 *distinct* sets with no wrap, and a fill's victim (same set,
        // line number off by a multiple of `sets`) to fall outside the
        // group being filled — both hold exactly when `sets >= 64` (sets
        // are a power of two). Smaller geometries (tests) and the
        // `SAIS_MEM_NO_EXTENTS` override run the exact walk for every
        // line.
        let extents_on =
            sets as u64 >= GROUP_LINES && std::env::var_os("SAIS_MEM_NO_EXTENTS").is_none();
        MemorySystem {
            params,
            caches,
            // Only resident lines have entries, so worst case is every way
            // of every cache full.
            directory: LineTable::with_capacity(cores * lines_per_cache),
            extents: ExtentMap::default(),
            extents_on,
            set_shift: sets.trailing_zeros(),
            set_mask: sets as u64 - 1,
            victims: Vec::new(),
            entries: [0; GROUP_LINES as usize],
            ext_whole_hits: 0,
            ext_whole_c2c: 0,
            ext_whole_fills: 0,
            ext_partial_hits: 0,
            ext_masked_fill_lines: 0,
            ext_fallback_lines: 0,
            ext_prefix_fills: 0,
            ext_split_fills: 0,
            c2c_transfers: 0,
            dram_fetches: 0,
        }
    }

    /// Whether the extent fast paths are active for this geometry.
    pub fn extents_enabled(&self) -> bool {
        self.extents_on
    }

    /// Disable the extent fast paths and their bookkeeping for the rest
    /// of this system's life (equivalent to constructing under
    /// `SAIS_MEM_NO_EXTENTS=1`). One-way: re-enabling after touches have
    /// bypassed the bookkeeping would consume stale summaries. Every
    /// uniform group's directory span is written first — once the
    /// summaries are off, the walks consult only the directory.
    pub fn disable_extents(&mut self) {
        if self.extents_on {
            let live: Vec<u64> = self.extents.iter_live().map(|(g, ..)| g).collect();
            for g in live {
                self.spill_group(g);
            }
        }
        self.extents_on = false;
    }

    /// Fast-path engagement counters (deterministic per scenario).
    pub fn extent_stats(&self) -> ExtentStats {
        ExtentStats {
            enabled: self.extents_on,
            whole_hit_groups: self.ext_whole_hits,
            whole_c2c_groups: self.ext_whole_c2c,
            whole_fill_groups: self.ext_whole_fills,
            partial_hit_lines: self.ext_partial_hits,
            masked_fill_lines: self.ext_masked_fill_lines,
            fallback_lines: self.ext_fallback_lines,
            prefix_fills: self.ext_prefix_fills,
            split_fills: self.ext_split_fills,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.caches.len()
    }

    /// The hierarchy parameters.
    pub fn params(&self) -> &MemParams {
        &self.params
    }

    /// Which core's cache currently owns `line`, if any. (Test/diagnostic.)
    pub fn owner_of(&self, line: LineAddr) -> Option<u32> {
        self.live_entry(line).map(|v| packed_owner(v) as u32)
    }

    /// The directory entry for `line`, validated against the owning
    /// cache's tags. An entry `(owner, slot)` is live iff
    /// `caches[owner].tag_at(slot) == line` — the tag array *is*
    /// residency, so the check is exact: a fill records the entry, an
    /// eviction or invalidation clears the tag, and the slot can only
    /// hold this line again if the line was re-filled there (which
    /// rewrites the entry). Stale entries read as absent. A line of a
    /// *uniform* group is answered by the summary instead, which is that
    /// group's directory (see [`crate::extent`]): resident iff its mask
    /// bit is set, at the slot `(owner, way)` implies.
    #[inline]
    fn live_entry(&self, line: LineAddr) -> Option<u32> {
        let group = line.0 >> GROUP_SHIFT;
        if let Some((owner, way)) = self
            .extents_on
            .then(|| self.extents.uniform_info(group))
            .flatten()
        {
            let slot = (way << self.set_shift) | (line.0 & self.set_mask) as u32;
            let resident = self.extents.group_mask(group) >> (line.0 & GROUP_MASK) & 1 != 0;
            debug_assert_eq!(self.caches[owner as usize].tag_at(slot) == line.0, resident);
            return resident.then(|| pack(owner as usize, slot));
        }
        let packed = self.directory.get(line.0)?;
        (self.caches[packed_owner(packed)].tag_at(packed_slot(packed)) == line.0).then_some(packed)
    }

    /// Touch every line of `range` from `core`, classifying each line and
    /// migrating ownership to `core`. Models both reads and write-allocate
    /// writes — in either case the line ends up exclusively in `core`'s
    /// cache.
    ///
    /// In the steady state the cost is proportional to **ownership
    /// boundaries, not lines**: an aligned 64-line group whose extent
    /// summary proves it wholly live in one cache (see [`crate::extent`])
    /// is classified and accounted in O(1) — a local all-hit group takes
    /// one batched recency promotion, a wholly remote group one batched
    /// invalidation plus one batched fill, and a wholly absent group goes
    /// straight to the batched fill without reading (or validating) a
    /// single directory entry. Groups that are mixed, partially resident,
    /// or clipped by the range's edges fall back to the exact per-line
    /// walk below, which also keeps the summaries up to date.
    ///
    /// The per-line walk classifies against the way-indexed directory: a
    /// set-aligned strip resolves analytically with one conclusive
    /// directory probe per line, because under exclusive ownership an
    /// entry owned by `core` *is* a local hit, any other entry is a
    /// cache-to-cache migration from the recorded way, and a missing
    /// entry is a DRAM fetch. Hits and invalidations jump straight to
    /// the recorded way instead of scanning the set; lines that miss
    /// fall back to the exact per-line LRU fill (the only place a set
    /// scan is still needed, to pick the victim). Clock advance, LRU
    /// stamps, eviction choices and every statistic are bit-identical to
    /// [`MemorySystem::touch_reference`], the original scanning walk
    /// kept as the verification oracle; the property tests in
    /// `tests/props.rs` and `tests/extent_props.rs` pin the equivalence
    /// on ranges of every shape, with the fast paths both on and off.
    pub fn touch(&mut self, core: usize, range: AddrRange) -> AccessCounts {
        sais_prof::zone!("mem.touch");
        assert!(core < self.caches.len(), "no such core: {core}");
        let line_size = self.params.line_size;
        let mut counts = AccessCounts {
            lines: range.line_count(line_size),
            ..AccessCounts::default()
        };
        // Hit/miss/eviction tallies stay in registers for the whole walk
        // and are flushed once at the end.
        let mut evictions = 0u64;
        let first = range.start / line_size;
        let end = first + counts.lines;
        if self.extents_on {
            self.touch_grouped(core, first, end, &mut counts, &mut evictions);
        } else {
            self.walk_exact::<false>(core, first, end, &mut counts, &mut evictions);
        }
        let cache = &mut self.caches[core];
        cache.add_hits(counts.hits);
        cache.add_misses(counts.c2c + counts.dram);
        cache.add_evictions(evictions);
        self.c2c_transfers += counts.c2c;
        self.dram_fetches += counts.dram;
        counts
    }

    /// The extent-summarized walk over `[first, end)`: dispatch aligned
    /// whole groups through the O(1) fast paths, everything else through
    /// [`MemorySystem::walk_exact`]. Consecutive fallback groups are
    /// coalesced into a single exact walk so a long mixed stretch still
    /// pays the page walk once.
    fn touch_grouped(
        &mut self,
        core: usize,
        first: u64,
        end: u64,
        counts: &mut AccessCounts,
        evictions: &mut u64,
    ) {
        let mut key = first;
        while key < end {
            if key & GROUP_MASK != 0 || end - key < GROUP_LINES {
                // Partial group at a range edge: the residency mask
                // usually proves enough — all-hit, all-absent, or an
                // alternation of the two inside a uniform local group —
                // to stay off the per-line walk entirely. Anything the
                // mask can't prove walks per-line, through the
                // directory, so a uniform (remote) group's span is
                // written first.
                let stop = end.min((key | GROUP_MASK) + 1);
                if self.touch_masked(core, key, stop, counts, evictions) {
                    key = stop;
                    continue;
                }
                self.spill_group(key >> GROUP_SHIFT);
                self.ext_fallback_lines += stop - key;
                self.walk_exact::<true>(core, key, stop, counts, evictions);
                key = stop;
                continue;
            }
            match self.extents.classify(key >> GROUP_SHIFT) {
                GroupState::Whole { owner, way } if owner as usize == core => {
                    // Local all-hit replay: every line already resident
                    // here at `way`. No directory or tag traffic at all —
                    // just the batched recency promotion the per-line
                    // walk would have produced.
                    counts.hits += GROUP_LINES;
                    self.ext_whole_hits += 1;
                    self.caches[core].promote_uniform(
                        LineAddr(key),
                        way as u64,
                        GROUP_LINES as usize,
                    );
                    key += GROUP_LINES;
                }
                GroupState::Whole { owner, way } => {
                    // Whole-extent cache-to-cache migration: batch the
                    // remote invalidation (remote and local caches are
                    // disjoint state, so invalidating first is
                    // order-equivalent to the per-line interleaving),
                    // then fill locally in line order. No span write —
                    // the whole group disappears at once, so its stale
                    // entries stay conclusively dead.
                    counts.c2c += GROUP_LINES;
                    self.ext_whole_c2c += 1;
                    self.caches[owner as usize].invalidate_run(
                        LineAddr(key),
                        way as u64,
                        GROUP_LINES as usize,
                    );
                    self.extents
                        .apply_evicts(key >> GROUP_SHIFT, GROUP_LINES as u32, u64::MAX);
                    *evictions += self.fill_lines(core, key, GROUP_LINES as usize);
                    key += GROUP_LINES;
                }
                GroupState::Empty => {
                    // Cold (or fully evicted) group: every line is a DRAM
                    // fetch. Skips the per-line stale-entry validation
                    // loads entirely — the summary already proved
                    // absence — and goes straight to the batched fill.
                    counts.dram += GROUP_LINES;
                    self.ext_whole_fills += 1;
                    *evictions += self.fill_lines(core, key, GROUP_LINES as usize);
                    key += GROUP_LINES;
                }
                GroupState::Mixed => {
                    // A partially-resident group whose resident lines
                    // all sit locally at one way splits into hit and
                    // fill runs straight off the mask, with no per-line
                    // directory traffic.
                    if self.extents.uniform_local(key >> GROUP_SHIFT, core as u32) {
                        let handled =
                            self.touch_masked(core, key, key + GROUP_LINES, counts, evictions);
                        debug_assert!(handled, "uniform local group not mask-handleable");
                        key += GROUP_LINES;
                        continue;
                    }
                    // The walk reads the stretch's directory entries, so
                    // any uniform (remote) group's span is written first.
                    let mut stop = key + GROUP_LINES;
                    self.spill_group(key >> GROUP_SHIFT);
                    while stop + GROUP_LINES <= end
                        && self.extents.classify(stop >> GROUP_SHIFT) == GroupState::Mixed
                        && !self.extents.uniform_local(stop >> GROUP_SHIFT, core as u32)
                    {
                        self.spill_group(stop >> GROUP_SHIFT);
                        stop += GROUP_LINES;
                    }
                    self.ext_fallback_lines += stop - key;
                    self.walk_exact::<true>(core, key, stop, counts, evictions);
                    key = stop;
                }
            }
        }
    }

    /// Serve `[key, stop)` — a subrange of one aligned group — from the
    /// group's residency mask, without per-line directory traffic:
    ///
    /// * every line absent → one batched fill (absence is proven, so the
    ///   per-line stale-entry validation of the exact walk is skipped);
    /// * every line resident in a uniform locally-owned group → one
    ///   batched recency promotion (a virtual cache block stays virtual);
    /// * a mix of the two in a uniform local group → alternating hit and
    ///   fill runs read straight off the mask bits, in line order.
    ///
    /// Returns `false` when the mask can't prove enough (some line
    /// resident but the group is non-uniform or remotely owned) — the
    /// caller falls back to the exact walk. Exactness of the run split:
    /// the subrange's lines occupy distinct sets (≤ 64 consecutive
    /// lines), fills insert only their own run's lines, and a fill's
    /// victim shares its line's set, so it can never be another line of
    /// this group — each set sees exactly the operation sequence the
    /// per-line walk would have issued.
    fn touch_masked(
        &mut self,
        core: usize,
        key: u64,
        stop: u64,
        counts: &mut AccessCounts,
        evictions: &mut u64,
    ) -> bool {
        let group = key >> GROUP_SHIFT;
        let n = (stop - key) as u32;
        let j0 = (key & GROUP_MASK) as u32;
        let sub = run_mask(j0, n);
        let mask = self.extents.group_mask(group);
        let present = mask & sub;
        if present == 0 {
            counts.dram += n as u64;
            self.ext_masked_fill_lines += n as u64;
            *evictions += self.fill_lines(core, key, n as usize);
            return true;
        }
        let Some((owner, way)) = self.extents.uniform_info(group) else {
            return false;
        };
        if owner as usize != core {
            return false;
        }
        if present == sub {
            counts.hits += n as u64;
            self.ext_partial_hits += n as u64;
            self.caches[core].promote_uniform(LineAddr(key), way as u64, n as usize);
            return true;
        }
        // Alternating runs. The mask snapshot stays valid across the
        // loop: fills only set bits of runs already consumed, and a
        // fill's victims never belong to this group.
        let first = key - j0 as u64;
        let mut bit = j0;
        let end_bit = j0 + n;
        while bit < end_bit {
            let rest = mask >> bit;
            let hit = rest & 1 != 0;
            let run = if hit {
                (!rest).trailing_zeros()
            } else {
                rest.trailing_zeros()
            };
            let len = run.min(end_bit - bit);
            let line = first + bit as u64;
            if hit {
                counts.hits += len as u64;
                self.ext_partial_hits += len as u64;
                self.caches[core].promote_uniform(LineAddr(line), way as u64, len as usize);
            } else {
                counts.dram += len as u64;
                self.ext_masked_fill_lines += len as u64;
                *evictions += self.fill_lines(core, line, len as usize);
            }
            bit += len;
        }
        true
    }

    /// Fill `n` consecutive lines of one aligned group, proven absent
    /// everywhere, into `core`'s cache: the shared tail of the cold-fill,
    /// cache-to-cache and mask-split paths. Returns the eviction count.
    ///
    /// Tries the cache's block-grained virtual fill first — a whole
    /// group, a chunk's leading prefix (which splits the cache block) or
    /// the matching suffix (which collapses it back). When it lands, no
    /// per-set recency moves and the victim strip's decrement is one
    /// summary update when the strip held one group. The fallback is the
    /// materialized per-line fill. Either way the group's directory
    /// entries are written only if the fill leaves it non-uniform.
    /// Always inlined, with the virtual fill: at the whole-group call
    /// sites `n` is the constant 64 and the edge branches fold away.
    #[inline(always)]
    fn fill_lines(&mut self, core: usize, key: u64, n: usize) -> u64 {
        debug_assert!(self.victims.is_empty());
        let (group, j0) = (key >> GROUP_SHIFT, (key & GROUP_MASK) as u32);
        self.ext_prefix_fills += (j0 == 0 && n < GROUP_LINES as usize) as u64;
        let mut victims = std::mem::take(&mut self.victims);
        let placed = self.caches[core].fill_group_virtual(LineAddr(key), n, &mut victims);
        let (way, ev) = match placed {
            Some(VGroupFill::Rotated { way, old_group }) => {
                if old_group == 0 {
                    self.extents.note_evicts(&victims);
                    victims.clear();
                } else {
                    self.extents
                        .apply_evicts(old_group - 1, n as u32, run_mask(j0, n as u32));
                }
                (way, n as u64)
            }
            Some(VGroupFill::Fresh { way }) => (way, 0),
            None => {
                self.victims = victims;
                return self.fill_lines_per_set(core, key, n);
            }
        };
        self.victims = victims;
        // Off the group start, only a split block's suffix goes virtual,
        // collapsing the block.
        self.ext_split_fills += (j0 != 0) as u64;
        let spill = self
            .extents
            .apply_fills(group, j0, n as u32, core as u32, way, true);
        if let Some(spill) = spill {
            self.spill_fill(core, key, n, spill, Some(way));
        }
        ev
    }

    /// The per-set fallback of [`MemorySystem::fill_lines`]: the batched
    /// `fill_run`, its directory words kept aside until the summary says
    /// whether the group still stands for them.
    #[inline(never)]
    fn fill_lines_per_set(&mut self, core: usize, key: u64, n: usize) -> u64 {
        let mut victims = std::mem::take(&mut self.victims);
        let entries = &mut self.entries[..n];
        let ev =
            self.caches[core].fill_run::<true>(LineAddr(key), entries, pack(core, 0), &mut victims);
        let (way, uniform) = run_way(entries, self.set_shift);
        self.extents.note_evicts(&victims);
        victims.clear();
        self.victims = victims;
        let (group, j0) = (key >> GROUP_SHIFT, (key & GROUP_MASK) as u32);
        let spill = self
            .extents
            .apply_fills(group, j0, n as u32, core as u32, way, uniform);
        if let Some(spill) = spill {
            self.spill_fill(core, key, n, spill, None);
        }
        ev
    }

    /// A fill of `n` lines from `key` left its group non-uniform: write
    /// the entries the summary stood for (`spill`, see
    /// [`ExtentMap::apply_fills`]), then the run's own — at `way`, or the
    /// per-set fill's words.
    #[cold]
    #[inline(never)]
    fn spill_fill(
        &mut self,
        core: usize,
        key: u64,
        n: usize,
        (owner, old_way, bits): (u32, u32, u64),
        way: Option<u32>,
    ) {
        let group = key >> GROUP_SHIFT;
        self.write_dir(group, owner, old_way, bits);
        match way {
            Some(way) => {
                let run = run_mask((key & GROUP_MASK) as u32, n as u32);
                self.write_dir(group, core as u32, way, run);
            }
            None => self
                .directory
                .page_span(key, n)
                .copy_from_slice(&self.entries[..n]),
        }
    }

    /// Write the directory entries of `group`'s `bits` lines, resident
    /// in `owner`'s cache at `way`: the slot is implied by the line's set.
    fn write_dir(&mut self, group: u64, owner: u32, way: u32, bits: u64) {
        if bits == 0 {
            return;
        }
        let first = group << GROUP_SHIFT;
        let base = (way << self.set_shift) | (first & self.set_mask) as u32;
        // A 64-aligned group never straddles a 4096-line directory page.
        let span = self.directory.page_span(first, GROUP_LINES as usize);
        let mut rest = bits;
        while rest != 0 {
            let j = rest.trailing_zeros();
            span[j as usize] = pack(owner as usize, base + j);
            rest &= rest - 1;
        }
    }

    /// Hand a uniform group over to the directory ahead of a walk that
    /// reads its entries: write them from the summary and clear the bit.
    fn spill_group(&mut self, group: u64) {
        if let Some((owner, way, bits)) = self.extents.take_uniform(group) {
            self.write_dir(group, owner, way, bits);
        }
    }

    /// The exact per-line walk over `[first, end)` — the pre-extent
    /// `touch` body. `EXT` statically selects whether the walk maintains
    /// the extent summaries as it fills and invalidates (monomorphized
    /// so the summaries-off path carries no bookkeeping at all).
    ///
    /// Per-line recency updates, eviction choices and classification
    /// match the reference walk exactly. Consecutive lines are
    /// consecutive directory slots, so the walk takes the directory one
    /// page span at a time: the page walk is paid once per 4096 lines
    /// and each line is a sequential slice read, validated against the
    /// owning cache's tags and (on a miss) re-pointed at the new fill
    /// slot in place.
    fn walk_exact<const EXT: bool>(
        &mut self,
        core: usize,
        first: u64,
        end: u64,
        counts: &mut AccessCounts,
        evictions: &mut u64,
    ) {
        let mut key = first;
        while key < end {
            let span = self.directory.page_span(key, (end - key) as usize);
            let n = span.len();
            let mut i = 0usize;
            while i < n {
                let line = LineAddr(key + i as u64);
                // SAFETY (all `get_unchecked` calls below): `i < n` is the
                // loop condition and `n = span.len()`; directory entries
                // are only ever written as `pack(c, slot)` with
                // `c < caches.len()` — including stale entries, which are
                // simply out-of-date writes of the same form — and `core`
                // is asserted in bounds at the top of `touch`.
                let packed = unsafe { *span.get_unchecked(i) };
                if packed != EMPTY {
                    let owner = packed_owner(packed);
                    let slot = packed_slot(packed);
                    debug_assert!(owner < self.caches.len());
                    if unsafe { self.caches.get_unchecked(owner) }.tag_at(slot) == line.0 {
                        // Live entry: a local hit or a remote migration.
                        if owner == core {
                            // Local-hit streak: extend while consecutive
                            // lines stay live in `core`'s own cache, then
                            // apply every promotion in one batched pass —
                            // consecutive lines are consecutive sets, so
                            // the recency updates become an elementwise
                            // map over contiguous words instead of one
                            // dependent read-modify-write per line.
                            let start = i;
                            i += 1;
                            let local = unsafe { self.caches.get_unchecked(core) };
                            while i < n {
                                let p = unsafe { *span.get_unchecked(i) };
                                if p == EMPTY
                                    || packed_owner(p) != core
                                    || local.tag_at(packed_slot(p)) != key + i as u64
                                {
                                    break;
                                }
                                i += 1;
                            }
                            counts.hits += (i - start) as u64;
                            let run = &span[start..i];
                            unsafe { self.caches.get_unchecked_mut(core) }.promote_run(line, run);
                            continue;
                        }
                        // Cache-to-cache migration: invalidate the remote
                        // copy at its recorded way; the fill below
                        // re-points the entry at `core`. Exclusive
                        // ownership proved the line absent from `core`'s
                        // cache, so the fill skips the tag-match scan.
                        unsafe { self.caches.get_unchecked_mut(owner) }.invalidate_at(slot, line);
                        counts.c2c += 1;
                        let (nslot, ev) =
                            unsafe { self.caches.get_unchecked_mut(core) }.fill_absent(line);
                        *evictions += ev.is_some() as u64;
                        if EXT {
                            // The stretch's groups were spilled before the
                            // walk and every walk fill writes its entry, so
                            // a fill that breaks uniformity spills nothing.
                            self.extents.note_evict(line.0);
                            if let Some(v) = ev {
                                self.extents.note_evict(v.0);
                            }
                            self.extents
                                .note_fill(line.0, core as u32, nslot >> self.set_shift);
                        }
                        unsafe { *span.get_unchecked_mut(i) = pack(core, nslot) };
                        i += 1;
                        continue;
                    }
                }
                // Absent (or a stale entry for a since-evicted line):
                // fetch from DRAM and fill. The victim's directory entry
                // is left to go stale in place. Extend the streak while
                // entries stay conclusively absent, then fill the whole
                // run batched — deferral is exact because a fill only
                // inserts this streak's own lines into `core`'s cache, so
                // it can never turn a later absent line resident, and the
                // line after the streak is re-examined against the
                // post-fill tags, exactly as the per-line walk would.
                let start = i;
                i += 1;
                while i < n {
                    let p = unsafe { *span.get_unchecked(i) };
                    if p != EMPTY {
                        let o = packed_owner(p);
                        debug_assert!(o < self.caches.len());
                        if unsafe { self.caches.get_unchecked(o) }.tag_at(packed_slot(p))
                            == key + i as u64
                        {
                            break;
                        }
                    }
                    i += 1;
                }
                counts.dram += (i - start) as u64;
                let run = unsafe { span.get_unchecked_mut(start..i) };
                if EXT {
                    *evictions += unsafe { self.caches.get_unchecked_mut(core) }.fill_run::<true>(
                        line,
                        run,
                        pack(core, 0),
                        &mut self.victims,
                    );
                    self.extents
                        .note_fill_run(line.0, run, core as u32, self.set_shift);
                    self.extents.note_evicts(&self.victims);
                    self.victims.clear();
                } else {
                    *evictions += unsafe { self.caches.get_unchecked_mut(core) }.fill_run::<false>(
                        line,
                        run,
                        pack(core, 0),
                        &mut self.victims,
                    );
                }
            }
            key += n as u64;
        }
    }

    /// The original per-line walk: scan the local set, consult the
    /// directory on a miss, invalidate the remote copy by scanning its
    /// set, fill. Exact by construction; kept as the verification oracle
    /// for the batched [`MemorySystem::touch`]. Maintains the extent
    /// summaries too (they never influence its behavior — the oracle
    /// reads only the caches and the directory), so reference and
    /// batched touches can be interleaved on one system.
    pub fn touch_reference(&mut self, core: usize, range: AddrRange) -> AccessCounts {
        let mut counts = AccessCounts::default();
        let line_size = self.params.line_size;
        for line in range.lines(line_size) {
            counts.lines += 1;
            if self.caches[core].access(line) {
                counts.hits += 1;
                continue;
            }
            // Miss in the local cache: find the line elsewhere or in DRAM.
            match self.live_entry(line).map(packed_owner) {
                Some(owner) if owner != core => {
                    // Cache-to-cache migration: invalidate remote, fill local.
                    let removed = self.caches[owner].invalidate(line);
                    debug_assert!(removed, "directory said core {owner} owned {line:?}");
                    if self.extents_on {
                        self.extents.note_evict(line.0);
                    }
                    counts.c2c += 1;
                    self.c2c_transfers += 1;
                }
                Some(_) => {
                    // Directory says we own it but the lookup missed —
                    // impossible by construction.
                    unreachable!("directory/core cache disagreement");
                }
                None => {
                    counts.dram += 1;
                    self.dram_fetches += 1;
                }
            }
            self.fill(core, line);
        }
        counts
    }

    /// Insert `line` into `core`'s cache, recording it in the directory.
    /// A victim's entry is left to go stale (lazy invalidation); only the
    /// filled line's entry is written. Callers guarantee `line` is absent
    /// from every cache (the extent bookkeeping counts this as a fresh
    /// fill).
    #[inline]
    fn fill(&mut self, core: usize, line: LineAddr) {
        debug_assert!(!self.caches[core].contains(line), "fill of a resident line");
        let (slot, evicted) = self.caches[core].insert_tracked(line);
        if self.extents_on {
            if let Some(v) = evicted {
                self.extents.note_evict(v.0);
            }
            let spill = self
                .extents
                .note_fill(line.0, core as u32, slot >> self.set_shift);
            if let Some((owner, way, bits)) = spill {
                self.write_dir(line.0 >> GROUP_SHIFT, owner, way, bits);
            }
        }
        self.directory.insert(line.0, pack(core, slot));
    }

    /// Pre-load `range` into `core`'s cache without counting accesses —
    /// used to model DMA-filled buffers whose first CPU touch should still
    /// be classified by `touch`. (Diagnostic/test helper.)
    pub fn preload(&mut self, core: usize, range: AddrRange) {
        let line_size = self.params.line_size;
        let lines: Vec<LineAddr> = range.lines(line_size).collect();
        for line in lines {
            if let Some(packed) = self.live_entry(line) {
                if packed_owner(packed) != core {
                    self.caches[packed_owner(packed)].invalidate(line);
                    if self.extents_on {
                        self.extents.note_evict(line.0);
                    }
                } else {
                    continue;
                }
            }
            self.fill(core, line);
        }
    }

    /// Record background (always-hitting) accesses on `core`; see
    /// [`SetAssocCache::note_background_hits`].
    pub fn note_background(&mut self, core: usize, n: u64) {
        self.caches[core].note_background_hits(n);
    }

    /// Aggregate L2 miss rate across all cores (the paper's Fig. 6/7
    /// metric: `# cache misses / # accesses`).
    pub fn miss_rate(&self) -> f64 {
        let (mut acc, mut miss) = (0u64, 0u64);
        for c in &self.caches {
            acc += c.stats.accesses.get();
            miss += c.stats.misses.get();
        }
        if acc == 0 {
            0.0
        } else {
            miss as f64 / acc as f64
        }
    }

    /// Total cache-to-cache transfers (strip-migration traffic, in lines).
    pub fn c2c_transfers(&self) -> u64 {
        self.c2c_transfers
    }

    /// Total DRAM line fetches.
    pub fn dram_fetches(&self) -> u64 {
        self.dram_fetches
    }

    /// Total accesses across cores.
    pub fn total_accesses(&self) -> u64 {
        self.caches.iter().map(|c| c.stats.accesses.get()).sum()
    }

    /// Total misses across cores.
    pub fn total_misses(&self) -> u64 {
        self.caches.iter().map(|c| c.stats.misses.get()).sum()
    }

    /// Per-core cache, for fine-grained inspection.
    pub fn cache(&self, core: usize) -> &SetAssocCache {
        &self.caches[core]
    }

    /// Check the exclusive-ownership invariant under lazy invalidation:
    /// every *live* directory entry (one whose recorded slot still holds
    /// the line) is resident in exactly the recorded cache and nowhere
    /// else; a *stale* entry's line is resident nowhere (the last fill of
    /// any line rewrites its entry, so an out-of-date entry can only
    /// describe a line that was since evicted or invalidated); and every
    /// resident line is accounted for by a live entry.
    /// O(directory × cores); tests only.
    pub fn check_invariants(&self) {
        // Residency census: live directory entries, plus the synthesized
        // entries of uniform groups' mask bits — whose directory entries
        // may never have been written, because the summary word *is*
        // their directory. Values are `(owner, way)`.
        let mut census: std::collections::HashMap<u64, (usize, u32)> =
            std::collections::HashMap::new();
        for (line, packed) in self.directory.iter() {
            let owner = packed_owner(packed);
            if self.caches[owner].tag_at(packed_slot(packed)) == line {
                census.insert(line, (owner, packed_slot(packed) >> self.set_shift));
            }
        }
        if self.extents_on {
            for (g, _, uniform, owner, way) in self.extents.iter_live() {
                let (owner, mask) = (owner as usize, self.extents.group_mask(g));
                for j in (0..GROUP_LINES).filter(|j| uniform && mask >> j & 1 != 0) {
                    let line = (g << GROUP_SHIFT) + j;
                    let slot = (way << self.set_shift) | (line & self.set_mask) as u32;
                    assert_eq!(
                        self.caches[owner].tag_at(slot),
                        line,
                        "uniform group {g} line {line} absent from its implied slot"
                    );
                    // A directory entry may also be live (then it must
                    // agree); it can never disagree, by exclusivity.
                    let prev = census.insert(line, (owner, way));
                    assert!(
                        prev.is_none() || prev == Some((owner, way)),
                        "line {line}: live directory entry disagrees with its uniform group"
                    );
                }
            }
        }
        // Exclusivity: every census line resides in its owner's cache and
        // nowhere else; the cardinality match then proves every resident
        // line is in the census (each resident line fills one slot).
        for (&line, &(owner, _)) in &census {
            for (i, c) in self.caches.iter().enumerate() {
                assert_eq!(
                    c.contains(LineAddr(line)),
                    i == owner,
                    "line {line} residency mismatch at core {i} (owner {owner})"
                );
            }
        }
        let cache_resident: u64 = self.caches.iter().map(|c| c.resident()).sum();
        assert_eq!(
            census.len() as u64,
            cache_resident,
            "residency census != cache-resident line count"
        );
        for c in &self.caches {
            c.check_block_invariants();
        }
        if self.extents_on {
            // The summaries' counts are exact, and the uniform bit is
            // sound: whenever set, every live line of the group really is
            // at the recorded (owner, way). The census is faithful
            // residency (proven just above).
            let mut groups: std::collections::HashMap<u64, Vec<(usize, u32)>> =
                std::collections::HashMap::new();
            let mut gbits: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
            for (&line, &(owner, way)) in &census {
                groups
                    .entry(line >> GROUP_SHIFT)
                    .or_default()
                    .push((owner, way));
                *gbits.entry(line >> GROUP_SHIFT).or_default() |= 1u64 << (line & GROUP_MASK);
            }
            let mut summarized = 0usize;
            for (g, count, uniform, owner, way) in self.extents.iter_live() {
                summarized += 1;
                let live = groups
                    .get(&g)
                    .unwrap_or_else(|| panic!("group {g} summarized live but has no lines"));
                assert_eq!(
                    live.len() as u32,
                    count,
                    "group {g} summary count != live lines"
                );
                assert_eq!(
                    self.extents.group_mask(g),
                    gbits[&g],
                    "group {g} residency mask != census bits"
                );
                if uniform {
                    assert!(
                        live.iter().all(|&(o, w)| o as u32 == owner && w == way),
                        "group {g} uniform bit unsound: claims ({owner}, way {way}), lines {live:?}"
                    );
                }
            }
            assert_eq!(
                summarized,
                groups.len(),
                "groups with live lines missing from the summaries"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrAlloc;

    fn small_system(cores: usize) -> (MemorySystem, AddrAlloc) {
        let p = MemParams::tiny_test(); // 8 lines per core cache
        let alloc = AddrAlloc::new(p.line_size);
        (MemorySystem::new(cores, p), alloc)
    }

    #[test]
    fn cold_read_comes_from_dram() {
        let (mut m, mut a) = small_system(2);
        let buf = a.alloc(4 * 64);
        let c = m.touch(0, buf);
        assert_eq!(c.lines, 4);
        assert_eq!(c.dram, 4);
        assert_eq!(c.c2c, 0);
        assert_eq!(c.hits, 0);
        m.check_invariants();
    }

    #[test]
    fn reread_hits_locally() {
        let (mut m, mut a) = small_system(2);
        let buf = a.alloc(4 * 64);
        m.touch(0, buf);
        let c = m.touch(0, buf);
        assert_eq!(c.hits, 4);
        assert_eq!(c.c2c + c.dram, 0);
    }

    #[test]
    fn cross_core_read_is_migration() {
        let (mut m, mut a) = small_system(2);
        let buf = a.alloc(4 * 64);
        m.touch(0, buf); // core 0 fills (the "handling core")
        let c = m.touch(1, buf); // core 1 consumes
        assert_eq!(c.c2c, 4, "all four lines migrate");
        assert_eq!(m.c2c_transfers(), 4);
        // Ownership moved: reading again from core 1 hits.
        let c2 = m.touch(1, buf);
        assert_eq!(c2.hits, 4);
        // And core 0 no longer has them.
        let c3 = m.touch(0, buf);
        assert_eq!(c3.c2c, 4);
        m.check_invariants();
    }

    #[test]
    fn same_core_handling_avoids_migration() {
        // The SAIs scenario in miniature: handler == consumer ⇒ no c2c.
        let (mut m, mut a) = small_system(4);
        let strip = a.alloc(8 * 64);
        m.touch(2, strip); // softirq fill on core 2
        let c = m.touch(2, strip); // app consume on core 2
        assert_eq!(c.c2c, 0);
        assert_eq!(c.hits, 8);
        assert_eq!(m.c2c_transfers(), 0);
    }

    #[test]
    fn capacity_eviction_forces_dram_refetch() {
        let (mut m, mut a) = small_system(1);
        // Cache holds 8 lines; stream 32 lines through, then re-read the
        // first buffer: it must come from DRAM again.
        let first = a.alloc(8 * 64);
        m.touch(0, first);
        let big = a.alloc(24 * 64);
        m.touch(0, big);
        let c = m.touch(0, first);
        assert_eq!(c.dram, 8, "evicted lines refetched from DRAM");
        m.check_invariants();
    }

    #[test]
    fn eviction_keeps_directory_consistent() {
        let (mut m, mut a) = small_system(2);
        // Overflow core 0's cache repeatedly, interleaved with migrations.
        for _ in 0..10 {
            let b = a.alloc(6 * 64);
            m.touch(0, b);
            m.touch(1, b);
        }
        m.check_invariants();
    }

    #[test]
    fn cost_reflects_classification() {
        let p = MemParams::tiny_test();
        let counts = AccessCounts {
            lines: 10,
            hits: 5,
            c2c: 3,
            dram: 2,
        };
        let cost = counts.cost(&p);
        // 5×1ns (hits) + 3×100ns (c2c) + 10ns lead + 128 B at 6.4 GB/s
        // (= 20ns) for the DRAM part = 335ns.
        assert_eq!(cost, SimDuration::from_nanos(335));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = AccessCounts {
            lines: 1,
            hits: 1,
            c2c: 0,
            dram: 0,
        };
        a.merge(AccessCounts {
            lines: 2,
            hits: 0,
            c2c: 1,
            dram: 1,
        });
        assert_eq!(
            a,
            AccessCounts {
                lines: 3,
                hits: 1,
                c2c: 1,
                dram: 1
            }
        );
    }

    #[test]
    fn miss_rate_aggregates_cores() {
        let (mut m, mut a) = small_system(2);
        let b0 = a.alloc(4 * 64);
        let b1 = a.alloc(4 * 64);
        m.touch(0, b0); // 4 misses
        m.touch(0, b0); // 4 hits
        m.touch(1, b1); // 4 misses
                        // 8 misses / 12 accesses.
        assert!((m.miss_rate() - 8.0 / 12.0).abs() < 1e-12);
        assert_eq!(m.total_accesses(), 12);
        assert_eq!(m.total_misses(), 8);
    }

    #[test]
    fn preload_places_without_counting() {
        let (mut m, mut a) = small_system(2);
        let b = a.alloc(4 * 64);
        m.preload(0, b);
        assert_eq!(m.total_accesses(), 0);
        let c = m.touch(0, b);
        assert_eq!(c.hits, 4);
        // Preloading to another core migrates ownership silently.
        m.preload(1, b);
        assert_eq!(m.owner_of(b.lines(64).next().unwrap()), Some(1));
        m.check_invariants();
    }
}
