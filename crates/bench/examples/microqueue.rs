//! Microbenchmark: TimingWheel vs HeapQueue push/pop throughput.
//!
//! Sibling of `microtouch` — isolates the event-queue hot path from the
//! rest of the engine. Three workloads, each run through both queues:
//!
//!   steady   — hold ~4k pending events, interleave push/pop with small
//!              deltas (the simulator's steady state: NIC completions and
//!              core wakeups a few microseconds out)
//!   tiestorm — many events at identical timestamps (batch completions)
//!   horizon  — 10% of pushes land past the wheel horizon and must take
//!              the overflow-heap + cascade path
//!
//! Deltas come from a fixed-seed LCG so both queues see the identical
//! sequence and reruns are comparable.

use sais_sim::{HeapQueue, SimTime, TimingWheel};
use std::time::Instant;

struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// One push+pop round trip through a queue, generic over the two impls
/// via the macro below (the queues share an API, not a trait).
macro_rules! bench {
    ($name:expr, $queue:expr, $delta:expr) => {{
        let mut q = $queue;
        #[allow(unused_mut)] // `mut` is only exercised by the stateful tiestorm closure
        let mut delta = $delta;
        let mut rng = Lcg(0x5A15_BEEF);
        let mut now = 0u64;
        // Prefill to steady-state depth so pops never drain the queue.
        for _ in 0..4096 {
            let d = delta(&mut rng);
            q.push(SimTime(now + d), now + d);
        }
        let reps = 400_000u64;
        let t0 = Instant::now();
        let mut sink = 0u64;
        for _ in 0..reps {
            let d = delta(&mut rng);
            q.push(SimTime(now + d), now + d);
            if let Some((t, e)) = q.pop() {
                now = t.0;
                sink = sink.wrapping_add(e);
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "{:20} {:>7.1} ns/op  (sink {sink:x}, cascades {}, peak buckets {})",
            $name,
            dt * 1e9 / (2.0 * reps as f64),
            q.cascades(),
            q.peak_occupied_buckets()
        );
    }};
}

fn main() {
    // steady: deltas in [0, 64k) ns — well inside the ~1ms wheel horizon.
    let steady = |r: &mut Lcg| r.next() & 0xFFFF;
    // tiestorm: runs of 16 events share a timestamp.
    let tie = {
        let mut last = 0u64;
        let mut n = 0u32;
        move |r: &mut Lcg| {
            if n == 0 {
                last = r.next() & 0xFFFF;
            }
            n = (n + 1) % 16;
            last
        }
    };
    // horizon: 10% of deltas jump ~4ms out, past the wheel's near ring.
    let horizon = |r: &mut Lcg| {
        let d = r.next() & 0xFFFF;
        if d.is_multiple_of(10) {
            d + 4_000_000
        } else {
            d
        }
    };

    println!("-- TimingWheel --");
    bench!("steady", TimingWheel::<u64>::new(), steady);
    bench!("tiestorm", TimingWheel::<u64>::new(), tie);
    bench!("horizon", TimingWheel::<u64>::new(), horizon);
    println!("-- HeapQueue --");
    bench!("steady", HeapQueue::<u64>::new(), steady);
    bench!("tiestorm", HeapQueue::<u64>::new(), tie);
    bench!("horizon", HeapQueue::<u64>::new(), horizon);
}
