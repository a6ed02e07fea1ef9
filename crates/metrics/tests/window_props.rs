//! Property tests of the windowed time-series ring: rotation is a pure
//! function of the virtual clock (record batching cannot move a sample
//! between windows) — the invariant the `--timeseries` export plane is
//! built on.

use proptest::prelude::*;
use sais_metrics::{Histogram, WindowedHistogram};

/// Record every `(t_ns, value)` event into a fresh ring, in order.
fn series_of(width: u64, cap: usize, events: &[(u64, u64)]) -> WindowedHistogram {
    let mut ring = WindowedHistogram::new(width, cap);
    for &(t, v) in events {
        ring.advance_to(t);
        ring.record_at(t, |h| h.record(v));
    }
    ring
}

/// Collect the retained windows as owned `(epoch, histogram)` pairs.
fn windows_of(ring: &WindowedHistogram) -> Vec<(u64, Histogram)> {
    ring.windows().map(|(e, h)| (e, h.clone())).collect()
}

proptest! {
    /// Window membership depends only on the timestamp: driving the clock
    /// forward eagerly per event vs. once per arbitrary batch boundary
    /// yields identical retained windows. (Timestamps are generated
    /// sorted because the ring evicts — a late record into an evicted
    /// epoch is dropped by design, which batching *can* rescue; within
    /// the retained horizon grouping must not matter.)
    #[test]
    fn rotation_is_batching_invariant(
        width in 1u64..5_000,
        times in proptest::collection::vec(0u64..1_000_000, 1..200),
        split in 0usize..200,
    ) {
        let mut times = times;
        times.sort_unstable();
        let events: Vec<(u64, u64)> = times.iter().map(|&t| (t, t % 977 + 1)).collect();
        let eager = series_of(width, 4096, &events);

        // Batched drive: advance the clock only at one arbitrary split
        // point and at the end, recording everything else late-ish.
        let split = split % events.len();
        let mut batched = WindowedHistogram::new(width, 4096);
        for (i, &(t, v)) in events.iter().enumerate() {
            if i == split {
                batched.advance_to(t);
            }
            batched.record_at(t, |h| h.record(v));
        }
        prop_assert_eq!(windows_of(&eager), windows_of(&batched));
        prop_assert_eq!(eager.start_epoch(), batched.start_epoch());
    }
}
