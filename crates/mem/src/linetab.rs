//! The line directory as a paged dense array.
//!
//! The directory answers one question — *which core's cache holds this
//! line, and in which way?* — once per simulated cache-line operation,
//! which makes it the single hottest data structure in the simulator.
//! Line indices come from a bump allocator, so live keys are a dense
//! range of small integers growing from zero. That makes any kind of
//! hashing pure overhead: the line index is split into a page number
//! (high bits) and an offset (low bits), the page number indexes a flat
//! vector of page pointers, and the offset indexes a dense `u32` array
//! inside the page. The page array has a compile-time length and the
//! offset is masked to it, so the indexing compiles to two dependent
//! loads with no bounds checks. A strip's worth of consecutive lines is
//! a contiguous range of slots in one or two pages, so the streaming
//! touch loop walks the directory sequentially.
//!
//! The memory system uses the table with **lazy invalidation**: entries
//! are written on fills and validated against the owning cache's tags on
//! reads, so evictions never come back to clear their directory entry
//! (see [`crate::MemorySystem`]). The table is therefore insert-only —
//! stale entries are overwritten in place when their line is re-filled —
//! and carries no per-page liveness bookkeeping at all. Directory memory
//! tracks the simulation's total *address footprint* (4 bytes per line
//! ever resident, 16 KiB pages) rather than instantaneous residency —
//! the price of keeping the streaming eviction path free of scattered
//! directory writes.
//!
//! Values pack `(owner core, global way slot)` so that the memory system
//! can jump straight to the owning way on a hit or an invalidation
//! without re-scanning the set — see [`crate::MemorySystem::touch`].

/// Lines per page: 4096 lines → a 16 KiB value array per page.
const PAGE_SHIFT: u32 = 12;
const PAGE_LINES: usize = 1 << PAGE_SHIFT;
const OFFSET_MASK: u64 = (PAGE_LINES as u64) - 1;

/// Slot sentinel. No packed value is `u32::MAX`: the owner fits in 8 bits
/// and the way slot is strictly below `2^24 - 1` (the memory system caps
/// lines-per-cache below `2^24`).
pub(crate) const EMPTY: u32 = u32::MAX;

/// Pack an owner core and a cache way slot into a directory value.
#[inline]
pub(crate) fn pack(owner: usize, slot: u32) -> u32 {
    debug_assert!(owner < 256, "owner core must fit in 8 bits");
    debug_assert!(slot < (1 << 24), "way slot must fit in 24 bits");
    ((owner as u32) << 24) | slot
}

/// The owner core of a packed directory value.
#[inline]
pub(crate) fn owner_of(val: u32) -> usize {
    (val >> 24) as usize
}

/// The global way slot of a packed directory value.
#[inline]
pub(crate) fn slot_of(val: u32) -> u32 {
    val & 0x00FF_FFFF
}

/// One page: a dense slot array with a compile-time length so offset
/// indexing (`key & OFFSET_MASK`) needs no bounds check.
type Page = Box<[u32; PAGE_LINES]>;

fn new_page() -> Page {
    let vals: Box<[u32]> = vec![EMPTY; PAGE_LINES].into_boxed_slice();
    vals.try_into().expect("page length is PAGE_LINES")
}

/// A map from line index to packed `(owner, way slot)`, dense within
/// 4096-line pages. Keys must be bump-allocator-dense: the page-pointer
/// vector is sized by the largest key ever inserted.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineTable {
    pages: Vec<Option<Page>>,
}

impl LineTable {
    /// Entries holding a value (live or stale). O(pages); diagnostics
    /// only.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.iter().count()
    }

    /// Look up `key`.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u32> {
        let page = self.pages.get((key >> PAGE_SHIFT) as usize)?.as_ref()?;
        let v = page[(key & OFFSET_MASK) as usize];
        (v != EMPTY).then_some(v)
    }

    /// The raw slot for `key`, allocating its page if missing: one page
    /// walk that the hot touch loop uses to read, classify, and (on a
    /// miss) re-point an entry in place — where a `get` + `insert` pair
    /// would walk the page structure twice. Reads [`EMPTY`] as "no
    /// entry"; writing any other value is an insert/overwrite. Every key
    /// the touch loop probes either already has a page (the line was
    /// filled before) or is about to be filled, so nothing is allocated
    /// speculatively.
    #[inline]
    pub(crate) fn slot_ptr(&mut self, key: u64) -> &mut u32 {
        let page_id = (key >> PAGE_SHIFT) as usize;
        if page_id >= self.pages.len() {
            self.pages.resize_with(page_id + 1, || None);
        }
        let page = self.pages[page_id].get_or_insert_with(new_page);
        &mut page[(key & OFFSET_MASK) as usize]
    }

    /// The contiguous slot slice for keys `[key, key + max_len)`, clamped
    /// to the end of `key`'s page (callers loop until the span covers the
    /// whole range). Allocates the page if missing. This is the streaming
    /// form of [`LineTable::slot_ptr`]: consecutive lines of a strip are
    /// consecutive slots, so the touch loop pays the page walk once per
    /// 4096 lines instead of once per line and the per-line directory
    /// access becomes a sequential slice scan.
    #[inline]
    pub(crate) fn page_span(&mut self, key: u64, max_len: usize) -> &mut [u32] {
        let page_id = (key >> PAGE_SHIFT) as usize;
        if page_id >= self.pages.len() {
            self.pages.resize_with(page_id + 1, || None);
        }
        let page = self.pages[page_id].get_or_insert_with(new_page);
        let off = (key & OFFSET_MASK) as usize;
        let end = (off + max_len).min(PAGE_LINES);
        &mut page[off..end]
    }

    /// Insert or overwrite `key`.
    #[inline]
    pub(crate) fn insert(&mut self, key: u64, val: u32) {
        debug_assert_ne!(val, EMPTY, "packed value collides with the empty sentinel");
        *self.slot_ptr(key) = val;
    }

    /// Iterate `(line, packed value)` entries (live or stale) in key
    /// order. Diagnostics and invariant checks only.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.pages.iter().enumerate().flat_map(|(page_id, page)| {
            page.iter().flat_map(move |p| {
                p.iter()
                    .enumerate()
                    .filter(|(_, &v)| v != EMPTY)
                    .map(move |(i, &v)| (((page_id as u64) << PAGE_SHIFT) | i as u64, v))
            })
        })
    }

    /// Pages currently allocated (diagnostic).
    #[cfg(test)]
    fn page_count(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_round_trip() {
        let mut t = LineTable::default();
        for i in 0..100u64 {
            t.insert(i * 3, pack((i % 4) as usize, i as u32));
        }
        assert_eq!(t.len(), 100);
        for i in 0..100u64 {
            let v = t.get(i * 3).unwrap();
            assert_eq!(owner_of(v), (i % 4) as usize);
            assert_eq!(slot_of(v), i as u32);
        }
        assert_eq!(t.get(1), None);
        assert_eq!(t.iter().count(), t.len());
    }

    #[test]
    fn overwrite_keeps_single_entry() {
        let mut t = LineTable::default();
        t.insert(7, pack(0, 1));
        t.insert(7, pack(3, 9));
        assert_eq!(t.len(), 1);
        let v = t.get(7).unwrap();
        assert_eq!((owner_of(v), slot_of(v)), (3, 9));
    }

    #[test]
    fn slot_ptr_reads_empty_then_inserts() {
        let mut t = LineTable::default();
        let s = t.slot_ptr(42);
        assert_eq!(*s, EMPTY);
        *s = pack(2, 5);
        assert_eq!(t.get(42), Some(pack(2, 5)));
        assert_eq!(t.len(), 1);
        // Probing materializes the page even without a write.
        let _ = t.slot_ptr(PAGE_LINES as u64 + 1);
        assert_eq!(t.page_count(), 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn keys_on_distinct_pages() {
        let mut t = LineTable::default();
        let far = [0u64, PAGE_LINES as u64, 10 * PAGE_LINES as u64 + 17];
        for (n, &k) in far.iter().enumerate() {
            t.insert(k, pack(1, n as u32));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.page_count(), 3);
        for (n, &k) in far.iter().enumerate() {
            assert_eq!(t.get(k).map(slot_of), Some(n as u32));
        }
        // Lookups beyond any inserted page are misses, not panics.
        assert_eq!(t.get(100 * PAGE_LINES as u64), None);
    }

    #[test]
    fn pack_round_trips() {
        let v = pack(255, (1 << 24) - 2);
        assert_eq!(owner_of(v), 255);
        assert_eq!(slot_of(v), (1 << 24) - 2);
    }
}
