//! A hierarchical timing wheel (calendar queue) — the default scheduler.
//!
//! The future-event list of a discrete-event simulator is overwhelmingly
//! *near-future*: a model handling an event at `now` schedules follow-ups
//! microseconds ahead, the same locality that lets hardware NICs coalesce
//! interrupts with a handful of hardware timers. A comparison-based heap
//! pays `O(log n)` per operation to support arbitrary key order it almost
//! never needs. The wheel exploits the locality instead:
//!
//! * **Near-future ring.** Time is quantized into power-of-two buckets of
//!   `2^BUCKET_BITS` ns; a ring of `2^WHEEL_BITS` buckets covers a sliding
//!   window (the *horizon*, ≈1 ms) starting at the cursor bucket `base`.
//!   A push within the horizon is an O(1) append to its bucket.
//! * **Sort-on-open cursor.** Buckets stay unsorted until the cursor
//!   reaches them; the cursor's bucket is sorted *descending* by the
//!   packed `(time, seq)` key once, and pops take from the back — so each
//!   event is sorted exactly once, in one cache-friendly pass. Pushes
//!   that land in the open cursor bucket (including `now_event`
//!   re-schedules) binary-search their slot to keep it sorted.
//! * **Overflow heap.** Events beyond the horizon go to a conventional
//!   binary min-heap. Whenever the cursor advances, events whose bucket
//!   has come inside the new horizon **cascade** out of the heap into the
//!   ring (counted in [`TimingWheel::cascades`]). The drain maintains the
//!   invariant that everything in the overflow heap is at or beyond the
//!   horizon — so the ring alone always holds the global minimum.
//!
//! Determinism is bit-for-bit identical to the [`crate::HeapQueue`]
//! oracle: ordering is by the same packed `(time, seq)` key, so ties at
//! one instant fire in insertion order regardless of which structure —
//! ring bucket or overflow heap — an event passed through (property
//! tests in `tests/props.rs` drive both side by side).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the bucket granularity in nanoseconds (4.096 µs buckets).
const BUCKET_BITS: u32 = 12;
/// log2 of the ring size in buckets.
const WHEEL_BITS: u32 = 8;
/// Buckets in the near-future ring.
const NUM_BUCKETS: usize = 1 << WHEEL_BITS;
/// Ring-slot mask for an absolute bucket number.
const SLOT_MASK: u64 = NUM_BUCKETS as u64 - 1;
/// Words in the occupancy bitmap.
const BITMAP_WORDS: usize = NUM_BUCKETS / 64;

/// A scheduled event: min-ordered by a single packed `(time, seq)` key —
/// time in the high 64 bits, the insertion sequence number in the low 64.
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn pack(time: SimTime, seq: u64) -> u128 {
        ((time.as_nanos() as u128) << 64) | seq as u128
    }

    #[inline]
    fn time(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }

    /// Absolute bucket number of the firing time.
    #[inline]
    fn bucket(&self) -> u64 {
        (self.key >> 64) as u64 >> BUCKET_BITS
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other.key.cmp(&self.key)
    }
}

/// A deterministic future-event list backed by a hierarchical timing
/// wheel with a far-future overflow heap.
///
/// Drop-in replacement for [`crate::HeapQueue`]: same API, same
/// deterministic pop order (time, then insertion sequence), different
/// asymptotics — O(1) push and amortized O(1) pop for the near-future
/// traffic that dominates simulation, log-cost only for the far-future
/// tail that spills into the overflow heap.
pub struct TimingWheel<E> {
    /// The near-future ring; slot `ab & SLOT_MASK` holds absolute bucket
    /// `ab` for `ab` within the horizon `[base, base + NUM_BUCKETS)`.
    ring: Vec<Vec<Entry<E>>>,
    /// Bit per ring slot: set ⇔ that slot's bucket is non-empty.
    occupied: [u64; BITMAP_WORDS],
    /// Absolute bucket number of the open (cursor) bucket. The cursor
    /// bucket is kept sorted descending by key; all other ring buckets
    /// are unsorted arrival-order heaps of strictly later buckets.
    base: u64,
    /// Far-future events, at or beyond the horizon.
    overflow: BinaryHeap<Entry<E>>,
    /// Cached key of the next event to pop (O(1) peek).
    next_key: Option<u128>,
    /// Pending events (ring + overflow).
    count: usize,
    next_seq: u64,
    pushed: u64,
    popped: u64,
    high_water: usize,
    cascades: u64,
    occupied_buckets: usize,
    peak_occupied_buckets: usize,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimingWheel<E> {
    /// Create an empty wheel.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty wheel. The capacity hint sizes the overflow heap;
    /// ring buckets grow on demand (they are small and reused in place,
    /// so steady state allocates nothing).
    pub fn with_capacity(cap: usize) -> Self {
        TimingWheel {
            ring: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0u64; BITMAP_WORDS],
            base: 0,
            overflow: BinaryHeap::with_capacity(cap.min(1024)),
            next_key: None,
            count: 0,
            next_seq: 0,
            pushed: 0,
            popped: 0,
            high_water: 0,
            cascades: 0,
            occupied_buckets: 0,
            peak_occupied_buckets: 0,
        }
    }

    #[inline]
    fn mark(&mut self, slot: usize) {
        let (w, b) = (slot / 64, slot % 64);
        if self.occupied[w] & (1 << b) == 0 {
            self.occupied[w] |= 1 << b;
            self.occupied_buckets += 1;
            if self.occupied_buckets > self.peak_occupied_buckets {
                self.peak_occupied_buckets = self.occupied_buckets;
            }
        }
    }

    #[inline]
    fn unmark(&mut self, slot: usize) {
        let (w, b) = (slot / 64, slot % 64);
        debug_assert!(self.occupied[w] & (1 << b) != 0);
        self.occupied[w] &= !(1 << b);
        self.occupied_buckets -= 1;
    }

    /// Distance (in buckets, ≥ 1) from `base` to the next occupied ring
    /// slot. Caller guarantees at least one ring bucket is occupied and
    /// the cursor slot's bit is already cleared.
    fn next_occupied_distance(&self) -> u64 {
        let base_slot = (self.base & SLOT_MASK) as usize;
        let start = (base_slot + 1) % NUM_BUCKETS;
        let mut wi = start / 64;
        let mut word = self.occupied[wi] & (!0u64 << (start % 64));
        for _ in 0..=BITMAP_WORDS {
            if word != 0 {
                let slot = wi * 64 + word.trailing_zeros() as usize;
                let d = (slot + NUM_BUCKETS - base_slot) % NUM_BUCKETS;
                debug_assert!(d >= 1);
                return d as u64;
            }
            wi = (wi + 1) % BITMAP_WORDS;
            word = self.occupied[wi];
        }
        unreachable!("occupied_buckets > 0 but bitmap is empty");
    }

    /// Move the cursor to the bucket of the next pending event, cascade
    /// newly in-horizon overflow events into the ring, and open (sort)
    /// the new cursor bucket. Caller guarantees the queue is non-empty
    /// and the old cursor bucket is empty and unmarked.
    fn advance(&mut self) {
        // The next event is either in the first occupied ring bucket
        // after the cursor or at the front of the overflow heap —
        // whichever bucket is earlier. Ring slots map back to absolute
        // buckets unambiguously because everything in the ring is within
        // the horizon of the old base.
        let mut new_base = u64::MAX;
        if self.occupied_buckets > 0 {
            new_base = self.base + self.next_occupied_distance();
        }
        if let Some(top) = self.overflow.peek() {
            new_base = new_base.min(top.bucket());
        }
        debug_assert_ne!(new_base, u64::MAX, "advance() on an empty wheel");
        self.base = new_base;
        // Cascade: pull every overflow event that now fits inside the
        // horizon into its ring bucket. This keeps the invariant that the
        // overflow heap never holds the global minimum.
        while let Some(top) = self.overflow.peek() {
            let ab = top.bucket();
            if ab >= self.base + NUM_BUCKETS as u64 {
                break;
            }
            let e = self.overflow.pop().expect("peeked entry vanished");
            let slot = (ab & SLOT_MASK) as usize;
            self.ring[slot].push(e);
            self.mark(slot);
            self.cascades += 1;
        }
        // Open the new cursor bucket: one descending sort, pops from the
        // back. Keys are unique (seq disambiguates), so an unstable sort
        // cannot reorder ties.
        let slot = (self.base & SLOT_MASK) as usize;
        let bucket = &mut self.ring[slot];
        debug_assert!(!bucket.is_empty(), "advance() chose an empty bucket");
        bucket.sort_unstable_by_key(|e| std::cmp::Reverse(e.key));
        self.next_key = Some(bucket.last().expect("cursor bucket non-empty").key);
    }

    /// Schedule `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        let key = Entry::<E>::pack(time, seq);
        let ab = time.as_nanos() >> BUCKET_BITS;
        self.count += 1;
        if self.count > self.high_water {
            self.high_water = self.count;
        }
        if self.count == 1 {
            // Empty wheel: re-center the horizon on this event.
            self.base = ab;
            let slot = (ab & SLOT_MASK) as usize;
            self.ring[slot].push(Entry { key, event });
            self.mark(slot);
            self.next_key = Some(key);
        } else if ab <= self.base {
            // Into the open cursor bucket (including events clamped from
            // before the cursor after a forward jump): binary-search the
            // descending order for the insertion point. The full-key
            // order keeps even clamped events popping first.
            let slot = (self.base & SLOT_MASK) as usize;
            let bucket = &mut self.ring[slot];
            let pos = bucket.partition_point(|e| e.key > key);
            bucket.insert(pos, Entry { key, event });
            if self.next_key.is_none_or(|nk| key < nk) {
                self.next_key = Some(key);
            }
        } else if ab < self.base + NUM_BUCKETS as u64 {
            // Within the horizon: O(1) append, sorted when opened.
            let slot = (ab & SLOT_MASK) as usize;
            self.ring[slot].push(Entry { key, event });
            self.mark(slot);
        } else {
            // Beyond the horizon: overflow heap until the cursor nears.
            self.overflow.push(Entry { key, event });
        }
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.count == 0 {
            return None;
        }
        let slot = (self.base & SLOT_MASK) as usize;
        let e = self.ring[slot].pop().expect("cursor bucket empty");
        debug_assert_eq!(Some(e.key), self.next_key);
        self.count -= 1;
        self.popped += 1;
        if let Some(last) = self.ring[slot].last() {
            self.next_key = Some(last.key);
        } else {
            self.unmark(slot);
            if self.count == 0 {
                self.next_key = None;
            } else {
                self.advance();
            }
        }
        Some((e.time(), e.event))
    }

    /// The firing time of the next event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next_key.map(|k| SimTime::from_nanos((k >> 64) as u64))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total number of events ever scheduled (for engine statistics).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total number of events ever dispatched.
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Largest number of events ever pending at once. Sizes
    /// [`TimingWheel::with_capacity`] for future runs of the same
    /// scenario and feeds the `engine.queue_high_water` metric.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Events that entered the overflow heap and were later pulled into
    /// the ring when the cursor advanced. High cascade counts mean the
    /// workload schedules far beyond the ≈1 ms horizon; near-future
    /// traffic never cascades.
    pub fn cascades(&self) -> u64 {
        self.cascades
    }

    /// Peak number of simultaneously occupied ring buckets (of
    /// `NUM_BUCKETS`): how spread out the near-future schedule runs.
    pub fn peak_occupied_buckets(&self) -> usize {
        self.peak_occupied_buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = TimingWheel::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = TimingWheel::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn far_future_goes_through_overflow_and_back() {
        let mut q = TimingWheel::new();
        // Horizon is NUM_BUCKETS << BUCKET_BITS ns ≈ 1.05 ms; schedule
        // far beyond it, then near, and check global order plus cascade
        // accounting.
        let far = SimTime::from_nanos(10 << (BUCKET_BITS + WHEEL_BITS));
        let near = SimTime::from_nanos(100);
        // Near first: a far push to an *empty* wheel would just re-center
        // the horizon instead of exercising the overflow heap.
        q.push(near, "near");
        q.push(far, "far");
        assert_eq!(q.peek_time(), Some(near));
        assert_eq!(q.pop(), Some((near, "near")));
        assert_eq!(q.pop(), Some((far, "far")));
        assert_eq!(q.cascades(), 1, "far event cascaded on advance");
    }

    #[test]
    fn times_near_u64_max_are_handled() {
        let mut q = TimingWheel::new();
        q.push(SimTime::from_nanos(u64::MAX), "max");
        q.push(SimTime::from_nanos(u64::MAX - 1), "almost");
        q.push(SimTime::from_nanos(0), "zero");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(0), "zero")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(u64::MAX - 1), "almost")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(u64::MAX), "max")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = TimingWheel::new();
        let mut rng = SimRng::new(99);
        let mut last = SimTime::ZERO;
        for _ in 0..50 {
            for _ in 0..20 {
                let t = last + SimDuration::from_nanos(1 + rng.next_below(100_000));
                q.push(t, ());
            }
            for _ in 0..10 {
                let (t, ()) = q.pop().unwrap();
                assert!(t >= last);
                last = t;
            }
        }
        while let Some((t, ())) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = TimingWheel::new();
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let mut q = TimingWheel::new();
        assert_eq!(q.high_water(), 0);
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        q.push(SimTime::ZERO, 3);
        assert_eq!(q.high_water(), 3);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.high_water(), 3, "draining must not lower the peak");
        q.push(SimTime::ZERO, 4);
        assert_eq!(q.high_water(), 3, "returning below the peak keeps it");
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = TimingWheel::new();
        q.push(SimTime::from_nanos(7), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn with_capacity_zero_works() {
        let mut q = TimingWheel::with_capacity(0);
        q.push(SimTime::from_nanos(1), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_into_open_cursor_bucket_keeps_order() {
        let mut q = TimingWheel::new();
        // Open a bucket by popping one of its events, then push more
        // events into the same bucket (the `now_event` pattern).
        let t = |n| SimTime::from_nanos(n);
        q.push(t(100), "a");
        q.push(t(300), "d");
        assert_eq!(q.pop(), Some((t(100), "a")));
        q.push(t(150), "b");
        q.push(t(200), "c");
        q.push(t(150), "b2"); // tie: insertion order after "b"
        assert_eq!(q.pop(), Some((t(150), "b")));
        assert_eq!(q.pop(), Some((t(150), "b2")));
        assert_eq!(q.pop(), Some((t(200), "c")));
        assert_eq!(q.pop(), Some((t(300), "d")));
    }

    #[test]
    fn occupancy_peak_is_tracked() {
        let mut q = TimingWheel::new();
        // Three distinct buckets inside one horizon.
        for i in 0..3u64 {
            q.push(SimTime::from_nanos(i << BUCKET_BITS), i);
        }
        assert_eq!(q.peak_occupied_buckets(), 3);
        while q.pop().is_some() {}
        assert_eq!(q.peak_occupied_buckets(), 3);
    }
}
