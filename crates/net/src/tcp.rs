//! TCP-lite: a Reno-style reliable stream, segment-level.
//!
//! PVFS moves its data over TCP ("TCP is the most widely used transport
//! protocol in PVFS"), and SAIs inherits TCP's loss recovery: a dropped
//! response packet is retransmitted by the server, and the strip completes
//! late rather than never. The cluster model handles timing at strip
//! granularity; this module implements the *correctness* machinery — the
//! sequence/ACK state machine with slow start, congestion avoidance, fast
//! retransmit on three duplicate ACKs, and retransmission timeout — and
//! proves under test that every byte is delivered exactly once, in order,
//! for any loss pattern.
//!
//! The implementation is deliberately segment-granular (one sequence
//! number per MSS-sized segment) — enough to express Reno's control
//! behaviour without byte-offset bookkeeping.

use sais_sim::{SimDuration, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Congestion-control phase, for diagnostics and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongPhase {
    /// Exponential window growth below `ssthresh`.
    SlowStart,
    /// Linear growth at or above `ssthresh`.
    CongestionAvoidance,
    /// Between a fast retransmit and the recovery ACK.
    FastRecovery,
}

/// A transmitted segment (sequence number of an MSS unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Sequence number, in segments.
    pub seq: u64,
    /// Whether this is a retransmission.
    pub retransmit: bool,
}

/// The sender half of a TCP-lite connection.
///
/// ```
/// use sais_net::{TcpReceiver, TcpSender};
/// use sais_sim::{SimDuration, SimTime};
///
/// let mut snd = TcpSender::new(100, SimDuration::from_millis(2));
/// let mut rcv = TcpReceiver::new();
/// let mut now = SimTime::ZERO;
/// let mut in_flight = Vec::new();
/// snd.poll(now, &mut in_flight);
/// while !snd.done() {
///     let seg = in_flight.remove(0);
///     now = now + SimDuration::from_micros(100);
///     let ack = rcv.on_segment(seg.seq);
///     snd.on_ack(now, ack, &mut in_flight);
/// }
/// assert_eq!(rcv.delivered, 100);
/// assert_eq!(snd.retransmits, 0);
/// ```
#[derive(Debug, Clone)]
pub struct TcpSender {
    total: u64,
    next_seq: u64,
    una: u64,
    cwnd: f64,
    ssthresh: f64,
    phase: CongPhase,
    dup_acks: u32,
    recover: u64,
    rto: SimDuration,
    timer: Option<SimTime>,
    /// Segments sent (incl. retransmits).
    pub sent: u64,
    /// Retransmissions performed.
    pub retransmits: u64,
    /// Timeouts taken.
    pub timeouts: u64,
}

impl TcpSender {
    /// A sender with `total` segments to deliver.
    pub fn new(total: u64, rto: SimDuration) -> Self {
        assert!(total > 0);
        TcpSender {
            total,
            next_seq: 0,
            una: 0,
            cwnd: 2.0,
            ssthresh: 64.0,
            phase: CongPhase::SlowStart,
            dup_acks: 0,
            recover: 0,
            rto,
            timer: None,
            sent: 0,
            retransmits: 0,
            timeouts: 0,
        }
    }

    /// Whether every segment has been cumulatively acknowledged.
    pub fn done(&self) -> bool {
        self.una >= self.total
    }

    /// Current congestion window, in segments.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Current phase.
    pub fn phase(&self) -> CongPhase {
        self.phase
    }

    /// Segments in flight.
    fn in_flight(&self) -> u64 {
        self.next_seq - self.una
    }

    /// Emit as many new segments as the window allows into `out`,
    /// arming the RTO timer. Call after construction and after every
    /// ACK/timeout.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<Segment>) {
        let before = out.len();
        while self.next_seq < self.total && self.in_flight() < self.cwnd as u64 {
            out.push(Segment {
                seq: self.next_seq,
                retransmit: false,
            });
            self.next_seq += 1;
            self.sent += 1;
        }
        if out.len() > before && self.timer.is_none() {
            self.timer = Some(now + self.rto);
        }
    }

    /// When the retransmission timer fires (if armed).
    pub fn timer_deadline(&self) -> Option<SimTime> {
        self.timer
    }

    /// Process a cumulative ACK (receiver has everything below `ack`),
    /// appending the segments to (re)transmit immediately to `out`.
    pub fn on_ack(&mut self, now: SimTime, ack: u64, out: &mut Vec<Segment>) {
        if ack > self.una {
            // New data acknowledged.
            self.una = ack;
            // After a timeout's go-back-N rewind, an ACK for pre-timeout
            // data can overtake the rewound send pointer.
            self.next_seq = self.next_seq.max(self.una);
            self.dup_acks = 0;
            match self.phase {
                CongPhase::SlowStart => {
                    self.cwnd += 1.0;
                    if self.cwnd >= self.ssthresh {
                        self.phase = CongPhase::CongestionAvoidance;
                    }
                }
                CongPhase::CongestionAvoidance => {
                    self.cwnd += 1.0 / self.cwnd;
                }
                CongPhase::FastRecovery => {
                    if ack >= self.recover {
                        // Full recovery: deflate to ssthresh.
                        self.cwnd = self.ssthresh;
                        self.phase = CongPhase::CongestionAvoidance;
                    } else {
                        // Partial ACK: retransmit the next hole (NewReno).
                        out.push(Segment {
                            seq: ack,
                            retransmit: true,
                        });
                        self.sent += 1;
                        self.retransmits += 1;
                    }
                }
            }
            self.timer = if self.done() {
                None
            } else {
                Some(now + self.rto)
            };
        } else if ack == self.una && !self.done() {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 && self.phase != CongPhase::FastRecovery {
                // Fast retransmit.
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = self.ssthresh + 3.0;
                self.phase = CongPhase::FastRecovery;
                self.recover = self.next_seq;
                out.push(Segment {
                    seq: self.una,
                    retransmit: true,
                });
                self.sent += 1;
                self.retransmits += 1;
            } else if self.phase == CongPhase::FastRecovery {
                // Window inflation keeps the pipe full during recovery.
                self.cwnd += 1.0;
            }
        }
        self.poll(now, out);
    }

    /// The RTO fired: collapse the window and go-back-N from `una`,
    /// appending the segments to send to `out`.
    pub fn on_timeout(&mut self, now: SimTime, out: &mut Vec<Segment>) {
        if self.done() {
            self.timer = None;
            return;
        }
        self.timeouts += 1;
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 2.0;
        self.phase = CongPhase::SlowStart;
        self.dup_acks = 0;
        // Go-back-N: rewind the send pointer to the first unacked segment.
        self.next_seq = self.una;
        self.retransmits += 1;
        self.sent += 1;
        out.push(Segment {
            seq: self.una,
            retransmit: true,
        });
        self.next_seq += 1;
        self.timer = Some(now + self.rto);
        self.poll(now, out);
    }
}

/// The receiver half: reorders segments and produces cumulative ACKs.
#[derive(Debug, Clone, Default)]
pub struct TcpReceiver {
    next_expected: u64,
    out_of_order: BTreeSet<u64>,
    /// Segments accepted for the first time (delivered upward).
    pub delivered: u64,
    /// Duplicate segments discarded.
    pub duplicates: u64,
}

impl TcpReceiver {
    /// A fresh receiver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accept a segment; returns the cumulative ACK to send back. The
    /// in-order segment with no hole behind it — the common case —
    /// advances the ACK without touching the reorder set.
    pub fn on_segment(&mut self, seq: u64) -> u64 {
        if seq == self.next_expected && self.out_of_order.is_empty() {
            self.delivered += 1;
            self.next_expected += 1;
        } else if seq < self.next_expected || self.out_of_order.contains(&seq) {
            self.duplicates += 1;
        } else {
            self.out_of_order.insert(seq);
            self.delivered += 1;
            while self.out_of_order.remove(&self.next_expected) {
                self.next_expected += 1;
            }
        }
        self.next_expected
    }

    /// Highest in-order sequence received (the cumulative ACK value).
    pub fn ack(&self) -> u64 {
        self.next_expected
    }
}

/// Data-path perturbations for [`simulate_transfer`]: per-segment loss,
/// duplication and reordering on the server→client pipe. A clean pipe
/// draws nothing from the RNG, so a transfer with [`PipeFaults::clean`]
/// leaves the caller's fault stream untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipeFaults {
    /// Probability a segment is dropped in flight.
    pub loss: f64,
    /// Probability a segment is delivered twice.
    pub duplication: f64,
    /// Probability a segment is delayed by [`PipeFaults::reorder_delay`],
    /// letting later segments overtake it.
    pub reorder: f64,
    /// How late a reordered segment arrives.
    pub reorder_delay: SimDuration,
}

impl PipeFaults {
    /// A pipe that delivers every segment once, in order, on time.
    pub fn clean() -> Self {
        PipeFaults {
            loss: 0.0,
            duplication: 0.0,
            reorder: 0.0,
            reorder_delay: SimDuration::ZERO,
        }
    }

    /// Whether this pipe perturbs nothing.
    pub fn is_clean(&self) -> bool {
        self.loss == 0.0 && self.duplication == 0.0 && self.reorder == 0.0
    }
}

/// What a simulated transfer did, for timing and accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferReport {
    /// Time from first transmission to the ACK that completed the stream.
    pub elapsed: SimDuration,
    /// Segments transmitted, including retransmissions.
    pub sent: u64,
    /// Retransmissions (fast retransmit + RTO paths).
    pub retransmits: u64,
    /// Retransmission timeouts taken.
    pub timeouts: u64,
    /// Segments the receiver accepted for the first time.
    pub delivered: u64,
    /// Segments the receiver discarded as duplicates.
    pub duplicates: u64,
}

/// Drive a [`TcpSender`]/[`TcpReceiver`] pair to completion over a faulty
/// pipe with one-way delay `rtt` and retransmission timeout `rto`.
///
/// This is the transport model the cluster runs per strip when a
/// `FaultPlan` perturbs the link: the NewReno machinery recovers every
/// loss, and the report's [`TransferReport::elapsed`] (compared against a
/// clean run) is the delay the fault cost. The conservation guarantee —
/// every segment delivered exactly once, in order, under any schedule —
/// is property-tested in `tests/props.rs`.
///
/// # Panics
/// If `total` is zero, or the transfer needs more than five million events
/// (which a correct sender/receiver pair cannot).
pub fn simulate_transfer(
    total: u64,
    rtt: SimDuration,
    rto: SimDuration,
    faults: &PipeFaults,
    rng: &mut SimRng,
) -> TransferReport {
    sais_prof::zone!("net.transfer");
    let mut snd = TcpSender::new(total, rto);
    let mut rcv = TcpReceiver::new();
    let mut now = SimTime::ZERO;
    // (arrival, tiebreak, seq) — the in-flight data path, a min-heap by
    // arrival time. The monotone tiebreak keeps simultaneous arrivals
    // (duplicates) in submission order and makes every key unique, so
    // the pop order is exactly that of an ordered set of the keys.
    let mut pipe: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
    let mut tiebreak = 0u64;
    // Segments the sender emitted on the last call, reused across calls.
    let mut segs: Vec<Segment> = Vec::new();
    let mut push = |pipe: &mut BinaryHeap<Reverse<(SimTime, u64, u64)>>,
                    rng: &mut SimRng,
                    now: SimTime,
                    segs: &mut Vec<Segment>| {
        for s in segs.drain(..) {
            if faults.loss > 0.0 && rng.chance(faults.loss) {
                continue;
            }
            let mut arrival = now + rtt;
            if faults.reorder > 0.0 && rng.chance(faults.reorder) {
                arrival += faults.reorder_delay;
            }
            pipe.push(Reverse((arrival, tiebreak, s.seq)));
            tiebreak += 1;
            if faults.duplication > 0.0 && rng.chance(faults.duplication) {
                pipe.push(Reverse((arrival, tiebreak, s.seq)));
                tiebreak += 1;
            }
        }
    };
    snd.poll(now, &mut segs);
    push(&mut pipe, rng, now, &mut segs);
    let mut guard = 0;
    while !snd.done() {
        guard += 1;
        assert!(guard < 5_000_000, "transfer did not converge");
        // Next event: earliest of segment arrival or RTO.
        let next_arrival = pipe.peek().map(|&Reverse((t, ..))| t);
        let deadline = snd.timer_deadline();
        match (next_arrival, deadline) {
            (Some(a), d) if d.is_none() || a <= d.unwrap() => {
                let Reverse((t, _, seq)) = pipe.pop().unwrap();
                now = t;
                let ack = rcv.on_segment(seq);
                // The ACK is modelled as returning instantly; the data
                // direction carries the whole RTT.
                snd.on_ack(now, ack, &mut segs);
                push(&mut pipe, rng, now, &mut segs);
            }
            (_, Some(d)) => {
                now = d;
                snd.on_timeout(now, &mut segs);
                push(&mut pipe, rng, now, &mut segs);
            }
            (_, None) => panic!("deadlock: nothing in flight, no timer"),
        }
    }
    TransferReport {
        elapsed: now.since(SimTime::ZERO),
        sent: snd.sent,
        retransmits: snd.retransmits,
        timeouts: snd.timeouts,
        delivered: rcv.delivered,
        duplicates: rcv.duplicates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loss-only transfer over the default test pipe.
    fn run_transfer(total: u64, loss: f64, seed: u64) -> TransferReport {
        let faults = PipeFaults {
            loss,
            ..PipeFaults::clean()
        };
        simulate_transfer(
            total,
            SimDuration::from_micros(200),
            SimDuration::from_millis(2),
            &faults,
            &mut SimRng::new(seed),
        )
    }

    #[test]
    fn lossless_transfer_is_clean() {
        let r = run_transfer(1000, 0.0, 1);
        assert_eq!(r.delivered, 1000);
        assert_eq!(r.retransmits, 0);
        assert_eq!(r.timeouts, 0);
        assert_eq!(r.duplicates, 0);
        assert_eq!(r.sent, 1000);
    }

    #[test]
    fn clean_pipe_draws_nothing_from_the_rng() {
        let mut rng = SimRng::new(42);
        let before = rng.clone();
        let _ = simulate_transfer(
            500,
            SimDuration::from_micros(200),
            SimDuration::from_millis(2),
            &PipeFaults::clean(),
            &mut rng,
        );
        let mut untouched = before;
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }

    #[test]
    fn duplication_and_reorder_still_deliver_exactly_once() {
        let faults = PipeFaults {
            loss: 0.02,
            duplication: 0.1,
            reorder: 0.1,
            reorder_delay: SimDuration::from_micros(500),
        };
        let r = simulate_transfer(
            2000,
            SimDuration::from_micros(200),
            SimDuration::from_millis(2),
            &faults,
            &mut SimRng::new(11),
        );
        assert_eq!(r.delivered, 2000);
        assert!(r.duplicates > 0, "duplication must be observed");
    }

    #[test]
    fn slow_start_doubles_then_linear() {
        let mut snd = TcpSender::new(10_000, SimDuration::from_millis(2));
        assert_eq!(snd.phase(), CongPhase::SlowStart);
        let now = SimTime::ZERO;
        let mut first = Vec::new();
        snd.poll(now, &mut first);
        assert_eq!(first.len(), 2, "initial window of 2");
        // ACK everything outstanding repeatedly; cwnd should pass ssthresh
        // and switch to congestion avoidance.
        let mut acked = 0;
        for _ in 0..200 {
            acked += 1;
            snd.on_ack(now, acked, &mut Vec::new());
            if snd.phase() == CongPhase::CongestionAvoidance {
                break;
            }
        }
        assert_eq!(snd.phase(), CongPhase::CongestionAvoidance);
        assert!(snd.cwnd() >= 64.0);
        let w = snd.cwnd();
        snd.on_ack(now, acked + 1, &mut Vec::new());
        assert!(snd.cwnd() - w < 1.0, "linear growth after ssthresh");
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut snd = TcpSender::new(100, SimDuration::from_millis(2));
        let now = SimTime::ZERO;
        let on_ack = |snd: &mut TcpSender, ack| {
            let mut out = Vec::new();
            snd.on_ack(now, ack, &mut out);
            out
        };
        snd.poll(now, &mut Vec::new());
        // Grow the window a bit.
        for a in 1..=2 {
            on_ack(&mut snd, a);
        }
        let una = 2;
        assert!(on_ack(&mut snd, una).iter().all(|s| !s.retransmit));
        assert!(on_ack(&mut snd, una).iter().all(|s| !s.retransmit));
        let third = on_ack(&mut snd, una);
        assert!(
            third.iter().any(|s| s.retransmit && s.seq == una),
            "third dupack retransmits the hole: {third:?}"
        );
        assert_eq!(snd.phase(), CongPhase::FastRecovery);
        assert_eq!(snd.retransmits, 1);
        assert_eq!(snd.timeouts, 0);
    }

    #[test]
    fn timeout_collapses_window() {
        let mut snd = TcpSender::new(100, SimDuration::from_millis(2));
        let t0 = SimTime::ZERO;
        snd.poll(t0, &mut Vec::new());
        for a in 1..=20 {
            snd.on_ack(t0, a, &mut Vec::new());
        }
        let before = snd.cwnd();
        assert!(before > 10.0);
        let deadline = snd.timer_deadline().unwrap();
        let mut segs = Vec::new();
        snd.on_timeout(deadline, &mut segs);
        assert_eq!(snd.cwnd(), 2.0);
        assert_eq!(snd.phase(), CongPhase::SlowStart);
        assert!(segs[0].retransmit && segs[0].seq == 20);
        assert_eq!(snd.timeouts, 1);
    }

    #[test]
    fn lossy_transfers_deliver_everything_exactly_once() {
        for (loss, seed) in [(0.01, 7u64), (0.05, 8), (0.2, 9)] {
            let r = run_transfer(2000, loss, seed);
            assert_eq!(r.delivered, 2000, "loss={loss}");
            assert!(r.retransmits > 0, "loss={loss} must retransmit");
        }
    }

    #[test]
    fn heavier_loss_takes_longer() {
        let t_clean = run_transfer(2000, 0.0, 3).elapsed;
        let t_lossy = run_transfer(2000, 0.1, 3).elapsed;
        assert!(t_lossy > t_clean);
    }

    /// Six seeded loss/duplication/reorder mixes, pinned field by field,
    /// with the fault stream's next draw: a change to the sender, the
    /// receiver or the pipe that moves a single RNG draw or event shows
    /// up here.
    #[test]
    fn seeded_fault_mixes_are_pinned() {
        // (segments, loss, duplication, reorder, reorder delay µs, seed)
        // → (elapsed ns, sent, retransmits, timeouts, delivered,
        // duplicates, next draw).
        let mixes = [
            (
                (500, 0.0, 0.0, 0.0, 0, 1u64),
                (2_400_000, 500, 0, 0, 500, 0, 12966619160104079557u64),
            ),
            (
                (2000, 0.02, 0.0, 0.0, 0, 2),
                (48_800_000, 2046, 40, 2, 2000, 4, 3196480675107012277),
            ),
            (
                (2000, 0.0, 0.1, 0.0, 0, 3),
                (6_200_000, 2000, 0, 0, 2000, 187, 3686268969550147303),
            ),
            (
                (2000, 0.0, 0.0, 0.2, 700, 4),
                (227_000_000, 2191, 191, 0, 2000, 190, 13735547432175560666),
            ),
            (
                (3000, 0.05, 0.05, 0.1, 300, 5),
                (298_100_000, 3362, 284, 45, 3000, 353, 3975409208467006017),
            ),
            (
                (1000, 0.2, 0.1, 0.3, 2500, 6),
                (375_300_000, 1934, 339, 123, 1000, 699, 10611606295479810643),
            ),
        ];
        for ((total, loss, duplication, reorder, delay_us, seed), want) in mixes {
            let faults = PipeFaults {
                loss,
                duplication,
                reorder,
                reorder_delay: SimDuration::from_micros(delay_us),
            };
            let mut rng = SimRng::new(seed);
            let r = simulate_transfer(
                total,
                SimDuration::from_micros(200),
                SimDuration::from_millis(2),
                &faults,
                &mut rng,
            );
            let got = (
                r.elapsed.as_nanos(),
                r.sent,
                r.retransmits,
                r.timeouts,
                r.delivered,
                r.duplicates,
                rng.next_u64(),
            );
            assert_eq!(got, want, "mix with seed {seed}");
        }
    }

    #[test]
    fn receiver_reorders_and_dedups() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.on_segment(1), 0, "hole at 0 holds the ACK");
        assert_eq!(r.on_segment(2), 0);
        assert_eq!(r.on_segment(0), 3, "filling the hole releases the run");
        assert_eq!(r.on_segment(1), 3, "duplicate ignored");
        assert_eq!(r.duplicates, 1);
        assert_eq!(r.delivered, 3);
    }
}
