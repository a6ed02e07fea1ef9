//! # sais-mem — per-core cache hierarchy and migration cost model
//!
//! The paper's entire argument rests on one asymmetry: processing a data
//! strip on the core that will consume it costs `P`, while letting another
//! core handle it and then moving the strip between private L2 caches costs
//! an extra `M` per strip, with `M ≫ P`. Rather than assuming the asymmetry,
//! this crate *measures* it from first principles:
//!
//! * Each core has a private set-associative write-allocate L2
//!   ([`cache::SetAssocCache`]; the testbed's Opteron 2384 has a dedicated
//!   512 KB L2 per core).
//! * A directory ([`hierarchy::MemorySystem`]) tracks which cache currently
//!   owns each line, so a consuming core's read is classified as a local hit,
//!   a **cache-to-cache transfer** (the paper's "data migration"), or a DRAM
//!   fetch — each with its own latency from [`params::MemParams`].
//! * Migratory sharing: a cache-to-cache read *moves* the line to the reader
//!   (invalidate + transfer), matching the MESI behaviour for the
//!   producer-consumer pattern interrupt handling exhibits.
//!
//! The L2 miss rate the figure harness reports (Figs. 6/7) is
//! `misses / accesses` aggregated over all core caches, exactly Oprofile's
//! definition in the paper.
//!
//! Steady-state touches cost O(ownership boundaries), not O(lines): an
//! extent-grained residency summary over the directory ([`extent`])
//! serves each 64-line group run by run — where its lines sit, and the
//! caches' recency and tags, are bounded run lists (`runs`) — and the
//! exact per-line walk remains both the fallback (a group placed in more
//! than eight runs) and the verification oracle (`SAIS_MEM_NO_EXTENTS=1`
//! forces it everywhere, bit-identically).

pub mod addr;
pub mod cache;
mod extent;
pub mod fxmap;
pub mod hierarchy;
mod linetab;
pub mod params;
mod runs;

pub use addr::{AddrAlloc, AddrRange, LineAddr};
pub use cache::SetAssocCache;
pub use hierarchy::{AccessCounts, ExtentStats, MemorySystem};
pub use params::MemParams;
