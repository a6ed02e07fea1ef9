//! Physical address abstractions.
//!
//! The simulator does not store data, only *where data would live*: every
//! kernel packet buffer, page-cache page and user buffer is a range of
//! simulated physical addresses, allocated once and never reused while live.

use crate::extent::GROUP_LINES;

/// A cache-line-granular address: the line index (byte address / line size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

/// A contiguous range of simulated physical memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrRange {
    /// Starting byte address (line-aligned by the allocator).
    pub start: u64,
    /// Length in bytes.
    pub bytes: u64,
}

impl AddrRange {
    /// An empty range at address zero.
    pub const EMPTY: AddrRange = AddrRange { start: 0, bytes: 0 };

    /// Construct a range.
    pub fn new(start: u64, bytes: u64) -> Self {
        AddrRange { start, bytes }
    }

    /// Number of cache lines the range touches for the given line size.
    pub fn line_count(&self, line_size: u64) -> u64 {
        if self.bytes == 0 {
            return 0;
        }
        let first = self.start / line_size;
        let last = (self.start + self.bytes - 1) / line_size;
        last - first + 1
    }

    /// Iterate the line addresses the range covers.
    pub fn lines(&self, line_size: u64) -> impl Iterator<Item = LineAddr> {
        let first = self.start / line_size;
        let n = self.line_count(line_size);
        (first..first + n).map(LineAddr)
    }

    /// Split into consecutive chunks of at most `chunk` bytes.
    pub fn chunks(&self, chunk: u64) -> impl Iterator<Item = AddrRange> + '_ {
        assert!(chunk > 0);
        let mut off = 0;
        std::iter::from_fn(move || {
            if off >= self.bytes {
                return None;
            }
            let len = chunk.min(self.bytes - off);
            let r = AddrRange::new(self.start + off, len);
            off += len;
            Some(r)
        })
    }

    /// Byte just past the end of the range.
    pub fn end(&self) -> u64 {
        self.start + self.bytes
    }
}

/// A monotone bump allocator over the simulated physical address space.
///
/// Allocations are line-aligned and never reused, so a stale buffer can
/// never alias a live one and fake cache hits are impossible. The 64-bit
/// space cannot be exhausted by any realistic run (10 GB × thousands of
/// requests ≪ 2^64).
#[derive(Debug, Clone)]
pub struct AddrAlloc {
    next: u64,
    line_size: u64,
    allocated: u64,
}

impl AddrAlloc {
    /// An allocator whose allocations are aligned to `line_size` bytes.
    pub fn new(line_size: u64) -> Self {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        AddrAlloc {
            // Leave the first page unmapped, as real kernels do. Starting on
            // an extent-group boundary puts every whole-page buffer (64 KiB
            // strips, user buffers) on whole groups, which
            // `MemorySystem::touch` serves in O(1) each. A uniform shift of
            // all addresses only renames cache sets, so results do not
            // depend on this base.
            next: GROUP_LINES * line_size,
            line_size,
            allocated: 0,
        }
    }

    /// Allocate a fresh line-aligned range of `bytes` bytes.
    pub fn alloc(&mut self, bytes: u64) -> AddrRange {
        let start = self.next;
        let len = bytes.max(1);
        let aligned = (len + self.line_size - 1) & !(self.line_size - 1);
        self.next = self
            .next
            .checked_add(aligned)
            .expect("simulated address space exhausted");
        self.allocated += bytes;
        AddrRange::new(start, bytes)
    }

    /// Total bytes handed out.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_count_handles_alignment() {
        // 64-byte lines. A 64-byte range starting at 0 is one line.
        assert_eq!(AddrRange::new(0, 64).line_count(64), 1);
        // Same length but misaligned straddles two lines.
        assert_eq!(AddrRange::new(32, 64).line_count(64), 2);
        // 64 KB strip = 1024 lines.
        assert_eq!(AddrRange::new(0, 65536).line_count(64), 1024);
        // Empty range touches nothing.
        assert_eq!(AddrRange::new(128, 0).line_count(64), 0);
    }

    #[test]
    fn lines_iteration_matches_count() {
        let r = AddrRange::new(100, 300);
        let lines: Vec<LineAddr> = r.lines(64).collect();
        assert_eq!(lines.len() as u64, r.line_count(64));
        assert_eq!(lines[0], LineAddr(1)); // addr 100 is in line 1
        assert_eq!(*lines.last().unwrap(), LineAddr(6)); // addr 399 in line 6
    }

    #[test]
    fn chunk_split_covers_exactly() {
        let r = AddrRange::new(1000, 10_000);
        let chunks: Vec<AddrRange> = r.chunks(4096).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], AddrRange::new(1000, 4096));
        assert_eq!(chunks[1], AddrRange::new(5096, 4096));
        assert_eq!(chunks[2], AddrRange::new(9192, 1808));
        let total: u64 = chunks.iter().map(|c| c.bytes).sum();
        assert_eq!(total, r.bytes);
        assert_eq!(chunks.last().unwrap().end(), r.end());
    }

    #[test]
    fn allocator_never_overlaps_and_aligns() {
        let mut a = AddrAlloc::new(64);
        let r1 = a.alloc(100);
        let r2 = a.alloc(1);
        let r3 = a.alloc(65536);
        assert_eq!(r1.start % 64, 0);
        assert_eq!(r2.start % 64, 0);
        assert_eq!(r3.start % 64, 0);
        assert!(r1.end() <= r2.start);
        assert!(r2.end() <= r3.start);
        assert_eq!(a.allocated_bytes(), 100 + 1 + 65536);
    }

    #[test]
    fn strips_start_on_page_boundaries() {
        let mut a = AddrAlloc::new(64);
        let first = a.alloc(65536);
        assert_eq!(first.start, 4096, "first page stays unmapped");
        for _ in 0..32 {
            let strip = a.alloc(65536);
            assert_eq!(strip.start % 4096, 0);
            assert_eq!(strip.line_count(64) % GROUP_LINES, 0);
        }
    }

    #[test]
    fn fresh_allocations_use_fresh_lines() {
        let mut a = AddrAlloc::new(64);
        let r1 = a.alloc(64);
        let r2 = a.alloc(64);
        let l1: Vec<_> = r1.lines(64).collect();
        let l2: Vec<_> = r2.lines(64).collect();
        assert!(l1.iter().all(|l| !l2.contains(l)));
    }
}
