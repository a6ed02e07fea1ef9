//! The binary-heap event queue — reference implementation and oracle.
//!
//! This was the engine's original future-event list; the default is now
//! the [`crate::TimingWheel`] calendar queue. The heap is kept as the
//! *property-test oracle*: its pop order defines deterministic correctness
//! (`(time, seq)` ascending), and `tests/props.rs` drives both structures
//! with identical push/pop schedules asserting bit-for-bit agreement —
//! the same oracle pattern as `touch_reference` in `sais-mem`.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Internal heap entry: min-ordered by a single packed `(time, seq)` key —
/// time in the high 64 bits, the insertion sequence number in the low 64 —
/// so sift-up/sift-down perform one `u128` comparison instead of two
/// chained `u64` comparisons.
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

/// A deterministic future-event list.
///
/// Ties at the same instant are broken by insertion order (a monotonically
/// increasing sequence number), which makes simulations reproducible: the
/// same schedule of `push` calls always produces the same `pop` order.
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    pushed: u64,
    popped: u64,
    high_water: usize,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            pushed: 0,
            popped: 0,
            high_water: 0,
        }
    }

    /// Schedule `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        self.heap.push(Entry {
            key: Entry::<E>::pack(time, seq),
            event,
        });
        if self.heap.len() > self.high_water {
            self.high_water = self.heap.len();
        }
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| {
            self.popped += 1;
            (e.time(), e.event)
        })
    }

    /// The firing time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
    /// [`HeapQueue::with_capacity`] for future runs of the same scenario
    /// and feeds the `engine.queue_high_water` metric.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// API parity with [`crate::TimingWheel::cascades`]: a heap has no
    /// overflow tier, so the count is always zero.
    pub fn cascades(&self) -> u64 {
        0
    }

    /// API parity with [`crate::TimingWheel::peak_occupied_buckets`]: a
    /// heap has no buckets, so the peak is always zero.
    pub fn peak_occupied_buckets(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = HeapQueue::new();
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
        let mut q = HeapQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = HeapQueue::new();
        let mut rng = SimRng::new(99);
        let mut last = SimTime::ZERO;
        // Push a random batch, pop half, repeat; popped times never regress
        // (all pushes are for future times relative to the last pop).
        for _ in 0..50 {
            for _ in 0..20 {
                let t = last + crate::time::SimDuration::from_nanos(1 + rng.next_below(1000));
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
        let mut q = HeapQueue::new();
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
        let mut q = HeapQueue::new();
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
        let mut q = HeapQueue::new();
        q.push(SimTime::from_nanos(7), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
    }
}
