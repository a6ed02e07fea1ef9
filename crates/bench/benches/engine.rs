//! `cargo bench -p sais-bench --bench engine` — micro-benchmarks of the
//! simulator's hot paths.
//!
//! These measure *host* performance of the engine itself (events/s, cache
//! line ops/s, header codec throughput) so regressions in the substrate are
//! caught independently of the simulated results. This is a custom
//! (non-Criterion) bench target: each section is timed with a simple
//! warmup + best-of-N loop so the workspace carries no external
//! benchmarking dependency.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Run `f` once as warmup, then `reps` times, returning the fastest wall
/// time (best-of keeps scheduler noise out of the reported number).
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    black_box(f());
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed());
    }
    best
}

fn report(group: &str, name: &str, elems: u64, unit: &str, best: Duration) {
    let per_sec = elems as f64 / best.as_secs_f64();
    println!("{group}/{name}: {best:>12.3?}  ({per_sec:.3e} {unit}/s)");
}

fn bench_event_queue() {
    use sais_sim::{EventQueue, SimTime};
    let n = 10_000u64;
    let best = best_of(20, || {
        let mut q = EventQueue::<u64>::new();
        // Pseudo-random but deterministic times.
        let mut t = 0x9E37_79B9u64;
        for i in 0..n {
            t = t.wrapping_mul(6364136223846793005).wrapping_add(1);
            q.push(SimTime::from_nanos(t >> 32), i);
        }
        let mut acc = 0u64;
        while let Some((time, _)) = q.pop() {
            acc = acc.wrapping_add(time.as_nanos());
        }
        acc
    });
    report("event_queue", "push_pop_10k", n, "events", best);
}

fn bench_cache() {
    use sais_mem::{AddrAlloc, MemParams, MemorySystem};
    let params = MemParams::sunfire_x4240();
    let lines_per_touch = 1024u64; // one 64 KB strip
    let best = best_of(20, || {
        let mut mem = MemorySystem::new(8, params.clone());
        let mut alloc = AddrAlloc::new(64);
        for i in 0..64u64 {
            let strip = alloc.alloc(64 * 1024);
            mem.touch((i % 7) as usize, strip); // handler fill
            mem.touch(7, strip); // consumer migration
        }
        mem.c2c_transfers()
    });
    report(
        "cache_sim",
        "strip_fill_consume_64",
        lines_per_touch * 64 * 2,
        "lines",
        best,
    );
}

fn bench_ip_codec() {
    use sais_net::Ipv4Header;
    let n = 10_000u64;
    let best = best_of(20, || {
        let mut acc = 0usize;
        for _ in 0..n {
            acc += Ipv4Header::tcp(0x0A000001, 0x0A000002, 7, 1452)
                .with_affinity(5)
                .encode()
                .len();
        }
        acc
    });
    report("ip_codec", "encode_with_option", n, "headers", best);

    let encoded = Ipv4Header::tcp(0x0A000001, 0x0A000002, 7, 1452)
        .with_affinity(5)
        .encode();
    let best = best_of(20, || {
        let mut hits = 0u64;
        for _ in 0..n {
            if Ipv4Header::decode(black_box(&encoded))
                .unwrap()
                .affinity_hint()
                .is_some()
            {
                hits += 1;
            }
        }
        hits
    });
    report("ip_codec", "parse_with_option", n, "headers", best);
}

fn bench_crc32() {
    use sais_net::crc32::crc32;
    let frame = vec![0xA5u8; 1518];
    let n = 10_000u64;
    let best = best_of(20, || {
        let mut acc = 0u32;
        for _ in 0..n {
            acc ^= crc32(black_box(&frame));
        }
        acc
    });
    report("crc32", "full_frame", n * frame.len() as u64, "bytes", best);
}

fn bench_ethernet_codec() {
    use sais_net::{EthernetFrame, MacAddr};
    let frame = EthernetFrame::ipv4(MacAddr::for_node(1), MacAddr::for_node(2), vec![7u8; 64]);
    let wire = frame.encode();
    let n = 10_000u64;
    let best = best_of(20, || {
        let mut acc = 0usize;
        for _ in 0..n {
            acc += frame.encode().len();
        }
        acc
    });
    report("ethernet", "encode", n, "frames", best);
    let best = best_of(20, || {
        let mut acc = 0usize;
        for _ in 0..n {
            acc += EthernetFrame::decode(black_box(&wire))
                .unwrap()
                .payload
                .len();
        }
        acc
    });
    report("ethernet", "decode_verify", n, "frames", best);
}

fn bench_tcp_transfer() {
    use sais_net::{TcpReceiver, TcpSender};
    use sais_sim::{SimDuration, SimTime};
    let total = 10_000u64;
    let best = best_of(10, || {
        let mut snd = TcpSender::new(total, SimDuration::from_millis(2));
        let mut rcv = TcpReceiver::new();
        let mut now = SimTime::ZERO;
        let mut segs = Vec::new();
        snd.poll(now, &mut segs);
        let mut in_flight: std::collections::VecDeque<u64> =
            segs.drain(..).map(|s| s.seq).collect();
        while !snd.done() {
            let seq = in_flight.pop_front().expect("pipe never empty");
            now += SimDuration::from_nanos(100);
            let ack = rcv.on_segment(seq);
            snd.on_ack(now, ack, &mut segs);
            in_flight.extend(segs.drain(..).map(|s| s.seq));
        }
        rcv.delivered
    });
    report("tcp", "lossless_10k_segments", total, "segments", best);
}

fn bench_end_to_end() {
    use sais_core::scenario::{PolicyChoice, ScenarioConfig};
    let mb = 8 * 1024 * 1024u64;
    for policy in [PolicyChoice::SourceAware, PolicyChoice::LowestLoaded] {
        let best = best_of(5, || {
            let mut cfg = ScenarioConfig::testbed_3gig(8, 512 * 1024);
            cfg.file_size = mb;
            cfg.with_policy(policy).run().bytes_delivered
        });
        report(
            "end_to_end",
            &format!("scenario_8mb_{}", policy.label()),
            mb,
            "bytes",
            best,
        );
    }
}

fn main() {
    // `cargo bench` passes flags like `--bench`; ignore them.
    bench_event_queue();
    bench_cache();
    bench_ip_codec();
    bench_crc32();
    bench_ethernet_codec();
    bench_tcp_transfer();
    bench_end_to_end();
}
