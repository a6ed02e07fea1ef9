//! Property tests for the engine primitives.

use proptest::prelude::*;
use sais_sim::{
    EventQueue, HeapQueue, RateResource, SerialResource, SimDuration, SimTime, TimingWheel,
};

/// One step of an interleaved queue schedule.
#[derive(Clone, Debug)]
enum QueueOp {
    Push(u64),
    Pop,
}

/// Schedules biased toward the wheel's interesting regimes: same-instant
/// tie storms (tiny time range), traffic inside and just beyond the
/// ≈1 ms near-future horizon, arbitrary far-future times, and times at
/// the very top of the `u64` range.
fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        (0u64..64).prop_map(QueueOp::Push),
        (0u64..4_000_000).prop_map(QueueOp::Push),
        any::<u64>().prop_map(QueueOp::Push),
        (u64::MAX - 4096..=u64::MAX).prop_map(QueueOp::Push),
        Just(QueueOp::Pop),
        Just(QueueOp::Pop),
    ]
}

proptest! {
    /// The timing wheel agrees with the binary-heap oracle event for
    /// event: identical `(time, event)` pop order, peeks, lengths and
    /// counters under any interleaving of pushes and pops — including
    /// same-instant tie storms, pushes behind the cursor (the clamped
    /// path), far-future overflow traffic and times near `u64::MAX`.
    /// Both start from `with_capacity(0)`, so the wheel's re-centering
    /// on first push from empty is exercised every round.
    #[test]
    fn wheel_matches_heap_oracle(ops in proptest::collection::vec(queue_op(), 1..500)) {
        let mut wheel = TimingWheel::with_capacity(0);
        let mut heap = HeapQueue::with_capacity(0);
        for (i, op) in ops.iter().enumerate() {
            match op {
                QueueOp::Push(t) => {
                    wheel.push(SimTime::from_nanos(*t), i);
                    heap.push(SimTime::from_nanos(*t), i);
                }
                QueueOp::Pop => {
                    prop_assert_eq!(wheel.pop(), heap.pop());
                }
            }
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.is_empty(), heap.is_empty());
        }
        // Drain to empty: the tails must agree element for element.
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            prop_assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
        prop_assert_eq!(wheel.total_pushed(), heap.total_pushed());
        prop_assert_eq!(wheel.total_popped(), heap.total_popped());
        prop_assert_eq!(wheel.high_water(), heap.high_water());
    }

    /// Pop order is non-decreasing in time for any push sequence, and ties
    /// preserve push order.
    #[test]
    fn queue_pops_sorted_stable(times in proptest::collection::vec(0u64..1000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, id)) = q.pop() {
            if let Some((lt, lid)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(id > lid, "FIFO among ties");
                }
            }
            last = Some((t, id));
        }
        prop_assert_eq!(q.total_popped(), times.len() as u64);
    }

    /// A serial resource never overlaps service windows and never serves
    /// before arrival; total busy time equals the sum of service times.
    #[test]
    fn serial_resource_windows_disjoint(
        jobs in proptest::collection::vec((0u64..10_000, 1u64..500), 1..100)
    ) {
        let mut r = SerialResource::new();
        let mut arrivals: Vec<(u64, u64)> = jobs;
        // Arrivals must be presented in nondecreasing order (as the event
        // loop does); sort by arrival.
        arrivals.sort_by_key(|&(a, _)| a);
        let mut prev_end = SimTime::ZERO;
        let mut total = SimDuration::ZERO;
        for &(arrive, dur) in &arrivals {
            let d = SimDuration::from_nanos(dur);
            let (start, end) = r.acquire(SimTime::from_nanos(arrive), d);
            prop_assert!(start >= SimTime::from_nanos(arrive), "no time travel");
            prop_assert!(start >= prev_end, "FIFO, no overlap");
            prop_assert_eq!(end - start, d);
            prev_end = end;
            total += d;
        }
        prop_assert_eq!(r.busy_time(), total);
        prop_assert_eq!(r.jobs(), arrivals.len() as u64);
    }

    /// Rate resources conserve bytes and never exceed their rate over the
    /// active window.
    #[test]
    fn rate_resource_conserves(transfers in proptest::collection::vec(1u64..100_000, 1..100)) {
        let rate = 1e8; // 100 MB/s
        let mut r = RateResource::new(rate);
        let mut t_end = SimTime::ZERO;
        for &bytes in &transfers {
            let (_, end) = r.transfer(SimTime::ZERO, bytes);
            t_end = t_end.max_of(end);
        }
        let total: u64 = transfers.iter().sum();
        prop_assert_eq!(r.bytes_moved(), total);
        // Throughput over the busy window cannot beat the configured rate
        // (allow 1% slack for per-transfer rounding to whole nanoseconds).
        let achieved = total as f64 / t_end.as_secs_f64();
        prop_assert!(achieved <= rate * 1.01, "achieved {achieved} > rate {rate}");
    }

    /// Duration arithmetic: for_bytes is additive within rounding.
    #[test]
    fn for_bytes_additive(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let rate = 125e6;
        let d_ab = SimDuration::for_bytes(a + b, rate);
        let d_sum = SimDuration::for_bytes(a, rate) + SimDuration::for_bytes(b, rate);
        let diff = d_ab.as_nanos().abs_diff(d_sum.as_nanos());
        prop_assert!(diff <= 1, "rounding drift {diff} ns");
    }

    /// Cycle conversions round-trip within one cycle.
    #[test]
    fn cycles_roundtrip(cycles in 1u64..10_000_000_000) {
        let hz = 2.7e9;
        let d = SimDuration::for_cycles(cycles, hz);
        let back = d.to_cycles(hz);
        prop_assert!(back.abs_diff(cycles) <= 3, "{cycles} -> {back}");
    }
}
