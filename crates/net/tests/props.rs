//! Property tests for the wire formats.

use proptest::prelude::*;
use sais_net::{
    simulate_transfer, EthernetFrame, FrameError, IpOption, Ipv4Header, ParseError, PipeFaults,
    PodFrame, SegmentPlan, TcpReceiver, TcpSender,
};
use sais_sim::{SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

fn arb_options() -> impl Strategy<Value = Vec<IpOption>> {
    proptest::collection::vec(
        prop_oneof![
            Just(IpOption::Nop),
            (0u8..32).prop_map(IpOption::SaisAffinity),
            // TLV options with type bytes outside the SAIs class pattern
            // and outside EOL/NOP.
            (2u8..=0x7F, proptest::collection::vec(any::<u8>(), 0..6))
                .prop_map(|(t, d)| IpOption::Other(t, d)),
        ],
        0..4,
    )
}

proptest! {
    /// encode ∘ decode = id for arbitrary headers whose options fit.
    #[test]
    fn header_roundtrip(
        src in any::<u32>(),
        dst in any::<u32>(),
        ident in any::<u16>(),
        payload in 0u16..=9000,
        ttl in 1u8..=255,
        options in arb_options(),
    ) {
        let mut h = Ipv4Header::tcp(src, dst, ident, payload);
        h.ttl = ttl;
        h.options = options;
        if h.header_len() > 60 {
            // Oversized option sets are rejected at encode time; skip.
            return Ok(());
        }
        let bytes = h.encode();
        prop_assert_eq!(bytes.len(), h.header_len());
        let back = Ipv4Header::decode(&bytes).unwrap();
        prop_assert_eq!(back.src, h.src);
        prop_assert_eq!(back.dst, h.dst);
        prop_assert_eq!(back.ident, h.ident);
        prop_assert_eq!(back.ttl, h.ttl);
        prop_assert_eq!(back.payload_len, h.payload_len);
        prop_assert_eq!(back.affinity_hint(), h.affinity_hint());
        prop_assert_eq!(back.options, h.options);
    }

    /// Any single-bit corruption of an encoded header is either caught by
    /// the checksum or still yields a parse — never a panic.
    #[test]
    fn corruption_never_panics(
        core in 0u8..32,
        bit in 0usize..(24 * 8),
        payload in 0u16..2000,
    ) {
        let h = Ipv4Header::tcp(0x0A000001, 0x0A000002, 7, payload).with_affinity(core);
        let mut bytes = h.encode();
        let byte = bit / 8;
        if byte < bytes.len() {
            bytes[byte] ^= 1 << (bit % 8);
        }
        match Ipv4Header::decode(&bytes) {
            Ok(_) => {} // corruption in a bit the checksum misses is possible only
                        // if it cancelled — accept any clean parse
            Err(ParseError::BadChecksum { .. })
            | Err(ParseError::BadVersion(_))
            | Err(ParseError::BadIhl(_))
            | Err(ParseError::BadOption)
            | Err(ParseError::Truncated) => {}
        }
    }

    /// Segmentation conserves payload and never produces zero packets.
    #[test]
    fn segmentation_conserves(payload in 0u64..10_000_000, mtu in 576u64..9001, opts in 0u64..40) {
        let plan = SegmentPlan::new(payload, mtu, opts);
        prop_assert!(plan.packets >= 1);
        prop_assert_eq!(plan.payload, payload);
        prop_assert!(plan.wire_bytes >= payload);
        // Packets × MSS covers the payload, with less than one MSS slack.
        prop_assert!(plan.packets * plan.mss >= payload);
        if payload > 0 {
            prop_assert!((plan.packets - 1) * plan.mss < payload);
        }
    }
}

fn arb_pod() -> impl Strategy<Value = PodFrame> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        0u16..=9000,
        proptest::option::of(0u8..32),
    )
        .prop_map(|(src_ip, dst_ip, ident, payload_len, aff_core)| PodFrame {
            src_ip,
            dst_ip,
            ident,
            payload_len,
            aff_core,
        })
}

proptest! {
    /// The fast path's contract: for every representable [`PodFrame`], the
    /// materialized wire frame decodes back (valid FCS, valid IP checksum)
    /// to exactly the POD's fields, and the byte-level affinity hint — what
    /// `SrcParser` reads — equals the POD's. This is the equivalence that
    /// lets the steady state skip encode/decode entirely.
    #[test]
    fn pod_frame_round_trips_through_wire(pod in arb_pod()) {
        let wire = pod.materialize();
        prop_assert_eq!(&wire, &pod.materialize(), "materialization is deterministic");
        let frame = EthernetFrame::decode(&wire).expect("FCS must validate");
        let hdr = Ipv4Header::decode(&frame.payload).expect("checksum must validate");
        prop_assert_eq!(hdr.src, pod.src_ip);
        prop_assert_eq!(hdr.dst, pod.dst_ip);
        prop_assert_eq!(hdr.ident, pod.ident);
        prop_assert_eq!(hdr.payload_len, pod.payload_len);
        prop_assert_eq!(hdr.affinity_hint(), pod.hint());
        // The embedded header is bit-identical to encoding the POD's header
        // directly (the frame payload may extend past it with Ethernet
        // minimum-size padding), so fault injection edits the same bytes
        // either way.
        prop_assert!(frame.payload.starts_with(&pod.header().encode()));
    }

    /// Corruption verdicts survive the fast path: flipping any single bit
    /// of a materialized frame is always caught by the Ethernet FCS
    /// (CRC32 detects all single-bit errors), exactly as it was when the
    /// bytes were stored instead of rebuilt.
    #[test]
    fn pod_frame_corruption_is_always_detected(pod in arb_pod(), raw_bit in any::<u32>()) {
        let mut wire = pod.materialize();
        let nbits = wire.len() * 8;
        let bit = raw_bit as usize % nbits;
        wire[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            matches!(EthernetFrame::decode(&wire), Err(FrameError::BadFcs { .. })),
            "single-bit corruption at bit {bit} must fail the FCS"
        );
    }
}

proptest! {
    /// TCP-lite delivers every segment exactly once for any loss
    /// probability and seed (capped so the test converges quickly).
    #[test]
    fn tcp_delivers_under_any_loss(total in 1u64..500, loss in 0.0f64..0.35, seed in any::<u64>()) {
        let rtt = SimDuration::from_micros(200);
        let mut snd = TcpSender::new(total, SimDuration::from_millis(2));
        let mut rcv = TcpReceiver::new();
        let mut rng = SimRng::new(seed);
        let mut now = SimTime::ZERO;
        let mut pipe: VecDeque<(SimTime, u64)> = VecDeque::new();
        let push = |pipe: &mut VecDeque<(SimTime, u64)>, rng: &mut SimRng, now: SimTime, segs: &mut Vec<sais_net::tcp::Segment>| {
            for s in segs.drain(..) {
                if !rng.chance(loss) {
                    pipe.push_back((now + rtt, s.seq));
                }
            }
        };
        let mut segs = Vec::new();
        snd.poll(now, &mut segs);
        push(&mut pipe, &mut rng, now, &mut segs);
        let mut guard = 0u64;
        while !snd.done() {
            guard += 1;
            prop_assert!(guard < 500_000, "did not converge (loss {loss})");
            match (pipe.front().copied(), snd.timer_deadline()) {
                (Some((a, _)), Some(d)) if a <= d => {
                    let (t, seq) = pipe.pop_front().unwrap();
                    now = t;
                    let ack = rcv.on_segment(seq);
                    snd.on_ack(now, ack, &mut segs);
                    push(&mut pipe, &mut rng, now, &mut segs);
                }
                (_, Some(d)) => {
                    now = d;
                    snd.on_timeout(now, &mut segs);
                    push(&mut pipe, &mut rng, now, &mut segs);
                }
                (Some(_), None) => {
                    let (t, seq) = pipe.pop_front().unwrap();
                    now = t;
                    let ack = rcv.on_segment(seq);
                    snd.on_ack(now, ack, &mut segs);
                    push(&mut pipe, &mut rng, now, &mut segs);
                }
                (None, None) => prop_assert!(false, "deadlock"),
            }
        }
        prop_assert_eq!(rcv.delivered, total);
        prop_assert_eq!(rcv.ack(), total);
    }

    /// The faulty-pipe harness delivers every byte exactly once, in order,
    /// for any combination of loss, duplication and reordering: the
    /// receiver's cumulative ack reaches exactly `total`, duplicates are
    /// counted but never re-delivered, and a faulty pipe is never faster
    /// than a clean one.
    #[test]
    fn faulty_pipe_delivers_exactly_once_in_order(
        total in 1u64..400,
        loss in 0.0f64..0.3,
        duplication in 0.0f64..0.3,
        reorder in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let rtt = SimDuration::from_micros(200);
        let rto = SimDuration::from_millis(2);
        let faults = PipeFaults {
            loss,
            duplication,
            reorder,
            reorder_delay: SimDuration::from_micros(500),
        };
        let rep = simulate_transfer(total, rtt, rto, &faults, &mut SimRng::new(seed));
        // Exactly-once: the receiver's in-order delivery count is the
        // transfer size — no byte missing, none double-counted.
        prop_assert_eq!(rep.delivered, total);
        prop_assert!(rep.sent >= total, "every segment crosses at least once");
        let clean = simulate_transfer(
            total, rtt, rto, &PipeFaults::clean(), &mut SimRng::new(seed),
        );
        prop_assert_eq!(clean.retransmits, 0);
        prop_assert_eq!(clean.duplicates, 0);
        prop_assert!(rep.elapsed >= clean.elapsed, "faults never speed up a transfer");
    }
}
