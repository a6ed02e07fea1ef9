//! The multi-core memory system: private caches + a line directory.
//!
//! Lines are **exclusively owned**: at most one core's cache holds any line
//! (migratory sharing, the producer→consumer pattern of interrupt handling).
//! A read of a line resident in another core's cache is a *cache-to-cache
//! transfer* — the paper's "data migration" — which invalidates the remote
//! copy and moves the line to the reader.

use crate::addr::{AddrRange, LineAddr};
use crate::cache::{FillLog, SetAssocCache};
use crate::extent::{
    owner_way, place, run_mask, ExtentMap, Place, Placement, GROUP_LINES, GROUP_MASK, GROUP_SHIFT,
};
use crate::linetab::{owner_of as packed_owner, pack, slot_of as packed_slot, LineTable, EMPTY};
use crate::params::MemParams;
use crate::runs::Runs;
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
    /// Reusable log of [`SetAssocCache::fill_run`]: its placements and
    /// victims are drained into the extent summaries (and, for the walk
    /// or a spilled group, the directory) after each batched fill.
    log: FillLog,
    /// Fast-path engagement counters (deterministic per run; see
    /// [`MemorySystem::extent_stats`]).
    ext_whole_hits: u64,
    ext_whole_c2c: u64,
    ext_whole_fills: u64,
    ext_partial_hits: u64,
    ext_partial_c2c: u64,
    ext_masked_fill_lines: u64,
    ext_fallback_lines: u64,
    ext_prefix_fills: u64,
    ext_per_set_fills: u64,
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
    /// Lines served as local hits by a group's placement runs, outside
    /// whole all-hit groups: batched promotions without per-line
    /// directory traffic.
    pub partial_hit_lines: u64,
    /// Lines migrated cache-to-cache by a group's placement runs,
    /// outside whole all-remote groups.
    pub partial_c2c_lines: u64,
    /// Lines proven absent by the residency mask and batch-filled
    /// without per-line directory validation, outside whole absent
    /// groups.
    pub masked_fill_lines: u64,
    /// Lines that went through the exact per-line walk instead: lines of
    /// groups whose placement needs more than eight runs.
    pub fallback_lines: u64,
    /// Fills of a group's leading lines `[0, s)`, `s < 64`: the first
    /// half of a chunk edge.
    pub prefix_fills: u64,
    /// Fills (outside the exact walk) in which some cache block took the
    /// materialized per-set path, because its recency needed more than
    /// eight runs.
    pub per_set_fills: u64,
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
            directory: LineTable::default(),
            extents: ExtentMap::default(),
            extents_on,
            set_shift: sets.trailing_zeros(),
            set_mask: sets as u64 - 1,
            log: FillLog::default(),
            ext_whole_hits: 0,
            ext_whole_c2c: 0,
            ext_whole_fills: 0,
            ext_partial_hits: 0,
            ext_partial_c2c: 0,
            ext_masked_fill_lines: 0,
            ext_fallback_lines: 0,
            ext_prefix_fills: 0,
            ext_per_set_fills: 0,
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
    /// placed group's directory span is written first — once the
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
            partial_c2c_lines: self.ext_partial_c2c,
            masked_fill_lines: self.ext_masked_fill_lines,
            fallback_lines: self.ext_fallback_lines,
            prefix_fills: self.ext_prefix_fills,
            per_set_fills: self.ext_per_set_fills,
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
    /// rewrites the entry). Stale entries read as absent. With the
    /// summaries on, an absent line is answered by its group's exact
    /// residency mask, and a line of a *placed* group by its placement,
    /// which is that group's directory (see [`crate::extent`]): the slot
    /// is the one `(owner, way)` implies.
    #[inline]
    fn live_entry(&self, line: LineAddr) -> Option<u32> {
        if self.extents_on {
            let located = self
                .extents
                .locate(line.0 >> GROUP_SHIFT, (line.0 & GROUP_MASK) as u32);
            if let Some(at) = located {
                let (owner, way) = at?;
                let slot = (way << self.set_shift) | (line.0 & self.set_mask) as u32;
                debug_assert_eq!(self.caches[owner as usize].tag_at(slot), line.0);
                return Some(pack(owner as usize, slot));
            }
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
    /// boundaries, not lines**: each aligned 64-line group (or the part
    /// of one a range's edge clips) is served off its extent summary
    /// (the `extent` module) one run at a time — a run of local hits
    /// is one batched recency promotion, a run resident in another cache
    /// one batched invalidation plus one batched fill, and an absent run
    /// goes straight to the batched fill without reading (or validating)
    /// a single directory entry. Only a group whose placement needs more
    /// than eight runs falls back to the exact per-line walk below, which
    /// also keeps the summaries up to date.
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

    /// The extent-summarized walk over `[first, end)`: each group's part
    /// of the range goes through [`MemorySystem::touch_group`]; a
    /// directory group goes to [`MemorySystem::walk_exact`] instead,
    /// coalesced with the directory groups after it so a long mixed
    /// stretch still pays the page walk once.
    fn touch_grouped(
        &mut self,
        core: usize,
        first: u64,
        end: u64,
        counts: &mut AccessCounts,
        evictions: &mut u64,
    ) {
        let group_end = |key: u64| end.min((key | GROUP_MASK) + 1);
        let mut key = first;
        while key < end {
            let stop = group_end(key);
            if self.touch_group(core, key, stop, counts, evictions) {
                key = stop;
                continue;
            }
            let mut stop = stop;
            while stop < end {
                let next = group_end(stop);
                let sub = run_mask((stop & GROUP_MASK) as u32, (next - stop) as u32);
                if !self.extents.needs_walk(stop >> GROUP_SHIFT, sub) {
                    break;
                }
                stop = next;
            }
            self.ext_fallback_lines += stop - key;
            self.walk_exact::<true>(core, key, stop, counts, evictions);
            key = stop;
        }
    }

    /// Serve `[key, stop)` — a subrange of one aligned group — from the
    /// group's residency mask and placement, without per-line directory
    /// traffic: absent runs of the mask are batched fills (absence is
    /// proven, so the exact walk's stale-entry validation is skipped),
    /// and each resident run splits at the placement's runs into local
    /// hits (one batched promotion at the run's way) and remote lines
    /// (one batched invalidation in the owner's cache, then a batched
    /// fill). Returns `false`, having done nothing, when some line is
    /// resident and the group is a directory group — the caller walks.
    ///
    /// Exactness: the subrange's lines occupy distinct sets (≤ 64
    /// consecutive lines), each line gets exactly the one operation the
    /// per-line walk would give it, and a fill's victim shares its
    /// line's set, so it is never another line of this group. Each set
    /// of every cache therefore sees the per-line walk's sequence. The
    /// mask and placement are read once up front: the loop's fills only
    /// set bits of runs already consumed, and its invalidations clear
    /// them.
    #[inline(always)]
    fn touch_group(
        &mut self,
        core: usize,
        key: u64,
        stop: u64,
        counts: &mut AccessCounts,
        evictions: &mut u64,
    ) -> bool {
        let group = key >> GROUP_SHIFT;
        let (j0, n) = ((key & GROUP_MASK) as u32, (stop - key) as u32);
        let whole = n == GROUP_LINES as u32;
        let (mask, place) = self.extents.get(group);
        if mask & run_mask(j0, n) == 0 {
            counts.dram += n as u64;
            if whole {
                self.ext_whole_fills += 1;
            } else {
                self.ext_masked_fill_lines += n as u64;
            }
            *evictions += self.fill_lines(core, key, n as usize);
            return true;
        }
        if let Placement::Directory = place {
            return false;
        }
        let first = group << GROUP_SHIFT;
        let (mut hit, mut c2c, mut dram) = (0u64, 0u64, 0u64);
        let mut j = j0;
        while j < j0 + n {
            let rest = mask >> j;
            let resident = rest & 1 != 0;
            let run = if resident {
                (!rest).trailing_zeros()
            } else {
                rest.trailing_zeros()
            };
            let len = run.min(j0 + n - j);
            if !resident {
                dram += len as u64;
                *evictions += self.fill_lines(core, first + j as u64, len as usize);
            } else {
                let (a, b) = (j as usize, (j + len) as usize);
                let mut serve = |this: &mut Self, s: usize, e: usize, v: Place| {
                    let local = this.touch_resident(core, first, s, e - s, v, evictions);
                    *(if local { &mut hit } else { &mut c2c }) += (e - s) as u64;
                };
                match place {
                    Placement::One(v) => serve(self, a, b, v),
                    Placement::Runs(runs) => {
                        for (s, e, v) in runs.pieces(a, b) {
                            serve(self, s, e, v);
                        }
                    }
                    Placement::Directory => unreachable!("directory groups walk"),
                }
            }
            j += len;
        }
        counts.hits += hit;
        counts.c2c += c2c;
        counts.dram += dram;
        if whole && hit == GROUP_LINES {
            self.ext_whole_hits += 1;
        } else if whole && c2c == GROUP_LINES {
            self.ext_whole_c2c += 1;
        } else {
            self.ext_partial_hits += hit;
            self.ext_partial_c2c += c2c;
            self.ext_masked_fill_lines += dram;
        }
        true
    }

    /// Serve lines `[s, s + m)` of the group at `first`, resident at
    /// placement `v`: a local run is one batched promotion, a remote one
    /// a batched invalidation in the owner's cache (remote and local
    /// caches are disjoint state, so invalidating the run first is
    /// order-equivalent to the per-line interleaving) and then a batched
    /// fill. Returns whether the run was local.
    #[inline(always)]
    fn touch_resident(
        &mut self,
        core: usize,
        first: u64,
        s: usize,
        m: usize,
        v: Place,
        evictions: &mut u64,
    ) -> bool {
        let (owner, way) = owner_way(v);
        let line = LineAddr(first + s as u64);
        if owner as usize == core {
            self.caches[core].promote_uniform(line, way as u64, m);
            return true;
        }
        self.caches[owner as usize].invalidate_run(line, way as u64, m);
        self.extents
            .apply_evicts(first >> GROUP_SHIFT, run_mask(s as u32, m as u32));
        *evictions += self.fill_lines(core, line.0, m);
        false
    }

    /// Fill `n` consecutive lines of one aligned group, proven absent
    /// everywhere, into `core`'s cache: the shared tail of every
    /// [`MemorySystem::touch_group`] fill. A whole group into a block of
    /// the one-run shape is one [`SetAssocCache::fill_block`] and two
    /// summary words (the group is drained: its lines were absent or
    /// just invalidated). Otherwise one [`SetAssocCache::fill_run`]
    /// places the lines run by run; its victims go to the summaries (a
    /// group strip's as one mask update), and its placement stretches
    /// become the group's placement runs — the group's directory
    /// entries are written only if that placement overflows. Returns the
    /// eviction count.
    #[inline]
    fn fill_lines(&mut self, core: usize, key: u64, n: usize) -> u64 {
        let (group, j0) = (key >> GROUP_SHIFT, (key & GROUP_MASK) as usize);
        if n == GROUP_LINES as usize {
            if let Some((way, victim)) = self.caches[core].fill_block(LineAddr(key)) {
                if let Some(g) = victim {
                    self.extents.apply_evicts(g, u64::MAX);
                }
                let placed = self.extents.fill_at(group, 0, n, place(core as u32, way));
                debug_assert!(placed, "an absent group is drained");
                return if victim.is_some() { n as u64 } else { 0 };
            }
        }
        self.ext_prefix_fills += (j0 == 0 && n < GROUP_LINES as usize) as u64;
        let log = &mut self.log;
        log.clear();
        let ev = self.caches[core].fill_run(LineAddr(key), n, log);
        self.ext_per_set_fills += log.per_set as u64;
        self.extents.note_evicts(&log.victims);
        for &(g, bits) in &log.victim_groups {
            self.extents.apply_evicts(g, bits);
        }
        let ways = log.placed.iter().map(|&(o, w)| (j0 + o as usize, w));
        if let Some(spill) = self.extents.apply_fills(group, j0, n, core as u32, ways) {
            self.spill_fill(core, key, n, spill);
        }
        ev
    }

    /// A fill of `n` lines from `key` left its group a directory group:
    /// write the entries the old placement stood for (`spill`, see
    /// [`ExtentMap::apply_fills`]), then the run's own, at the ways
    /// the fill's log records.
    #[cold]
    #[inline(never)]
    fn spill_fill(&mut self, core: usize, key: u64, n: usize, (old, bits): (Runs<Place>, u64)) {
        self.write_placement(key >> GROUP_SHIFT, old, bits);
        let span = self.directory.page_span(key, n);
        let placed = &self.log.placed;
        write_entries(span, key, placed, core, self.set_shift, self.set_mask);
    }

    /// Write the directory entries of `group`'s `bits` lines, placed by
    /// `place`: the slot is implied by each line's set and run's way.
    fn write_placement(&mut self, group: u64, place: Runs<Place>, bits: u64) {
        if bits == 0 {
            return;
        }
        let first = group << GROUP_SHIFT;
        // A 64-aligned group never straddles a 4096-line directory page.
        let span = self.directory.page_span(first, GROUP_LINES as usize);
        for (s, e, v) in place.pieces(0, GROUP_LINES as usize) {
            let (owner, way) = owner_way(v);
            let base = (way << self.set_shift) | (first & self.set_mask) as u32;
            let mut rest = bits & run_mask(s as u32, (e - s) as u32);
            while rest != 0 {
                let j = rest.trailing_zeros();
                span[j as usize] = pack(owner as usize, base + j);
                rest &= rest - 1;
            }
        }
    }

    /// Hand a placed group over to the directory ahead of a walk that
    /// reads its entries: write them from the placement and drop it.
    fn spill_group(&mut self, group: u64) {
        if let Some((place, bits)) = self.extents.take_placement(group) {
            self.write_placement(group, place, bits);
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
                            // The stretch's groups are directory groups and
                            // every walk fill writes its entry, so a fill
                            // that overflows a placement spills nothing.
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
                let log = &mut self.log;
                log.clear();
                *evictions +=
                    unsafe { self.caches.get_unchecked_mut(core) }.fill_run(line, run.len(), log);
                write_entries(
                    run,
                    line.0,
                    &log.placed,
                    core,
                    self.set_shift,
                    self.set_mask,
                );
                if EXT {
                    self.extents.note_evicts(&log.victims);
                    for &(g, bits) in &log.victim_groups {
                        self.extents.apply_evicts(g, bits);
                    }
                    self.extents
                        .note_fill_run(line.0, run.len(), &log.placed, core as u32);
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
            if let Some((place, bits)) = spill {
                self.write_placement(line.0 >> GROUP_SHIFT, place, bits);
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
        // entries of placed groups' mask bits — whose directory entries
        // may never have been written, because the placement *is* their
        // directory. Values are `(owner, way)`.
        let mut census: std::collections::HashMap<u64, (usize, u32)> =
            std::collections::HashMap::new();
        for (line, packed) in self.directory.iter() {
            let owner = packed_owner(packed);
            if self.caches[owner].tag_at(packed_slot(packed)) == line {
                census.insert(line, (owner, packed_slot(packed) >> self.set_shift));
            }
        }
        if self.extents_on {
            for (g, mask, place) in self.extents.iter_live() {
                if place.is_empty() {
                    continue;
                }
                place.check(&format!("group {g} placement"));
                for j in (0..GROUP_LINES).filter(|j| mask >> j & 1 != 0) {
                    let (owner, way) = owner_way(place.get(j as usize));
                    let line = (g << GROUP_SHIFT) + j;
                    let slot = (way << self.set_shift) | (line & self.set_mask) as u32;
                    assert_eq!(
                        self.caches[owner as usize].tag_at(slot),
                        line,
                        "placed group {g} line {line} absent from its implied slot"
                    );
                    // A directory entry may also be live (then it must
                    // agree); it can never disagree, by exclusivity.
                    let prev = census.insert(line, (owner as usize, way));
                    assert!(
                        prev.is_none() || prev == Some((owner as usize, way)),
                        "line {line}: live directory entry disagrees with its group's placement"
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
            // The residency masks are exact: every group's mask is the
            // census of its resident lines (which proves every resident
            // line's placement was checked above, or lives in the
            // directory).
            let mut gbits: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
            for &line in census.keys() {
                *gbits.entry(line >> GROUP_SHIFT).or_default() |= 1u64 << (line & GROUP_MASK);
            }
            let mut summarized = 0usize;
            for (g, mask, _) in self.extents.iter_live() {
                summarized += 1;
                assert_eq!(
                    Some(&mask),
                    gbits.get(&g),
                    "group {g} residency mask != census bits"
                );
            }
            assert_eq!(
                summarized,
                gbits.len(),
                "groups with live lines missing from the summaries"
            );
        }
    }
}

/// Write the directory entries of a fill of `span.len()` lines from
/// `first` into `core`'s cache, whose stretches `placed` records as
/// `(offset, way)`: each line's slot is its way over its set.
fn write_entries(
    span: &mut [u32],
    first: u64,
    placed: &[(u32, u32)],
    core: usize,
    set_shift: u32,
    set_mask: u64,
) {
    for (i, &(o, way)) in placed.iter().enumerate() {
        let end = placed.get(i + 1).map_or(span.len(), |&(e, _)| e as usize);
        for (k, e) in span[o as usize..end].iter_mut().enumerate() {
            let set = ((first + o as u64 + k as u64) & set_mask) as u32;
            *e = pack(core, (way << set_shift) | set);
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
