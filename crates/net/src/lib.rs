//! # sais-net — network substrate: IP with the SAIs option, links, NICs
//!
//! The transport path the paper modifies: PVFS servers return data over
//! TCP/IP; SAIs has the server-side `HintCapsuler` place the requesting
//! core's id (`aff_core_id`) into the **IP options field** of every
//! response packet, and the client NIC driver's `SrcParser` read it back
//! before the interrupt is raised.
//!
//! This crate implements:
//!
//! * [`ip`] — byte-faithful IPv4 headers (checksum included) with the
//!   paper's Figure-4 single-byte option: `copied=1`, `class=01`, 5-bit
//!   option number carrying the core id (≤ 32 cores addressable);
//! * [`segment`] — MTU/MSS arithmetic for turning 64 KB strips into wire
//!   packets, including header overhead accounting;
//! * [`link`] — bandwidth×delay pipes and a store-and-forward switch port;
//! * [`nic`] — the client NIC: optional bonding of k×1GbE ports (the
//!   testbed's "3-Gigabit NIC" is three bonded BCM5715C ports) and
//!   interrupt coalescing (batch completion → one hardirq).

pub mod crc32;
pub mod ethernet;
pub mod fastpath;
pub mod flow;
pub mod ip;
pub mod link;
pub mod nic;
pub mod rss;
pub mod segment;
pub mod tcp;

pub use ethernet::{EthernetFrame, FrameError, MacAddr};
pub use fastpath::PodFrame;
pub use flow::FlowId;
pub use ip::{IpOption, Ipv4Header, ParseError, PROTO_TCP};
pub use link::Link;
pub use nic::{CoalesceParams, InterruptBatch, NicBond};
pub use rss::{hash_v4_tcp, toeplitz, IndirectionTable, MICROSOFT_KEY};
pub use segment::{SegmentPlan, ETH_OVERHEAD, IPV4_BASE_HEADER, TCP_HEADER};
pub use tcp::{simulate_transfer, CongPhase, PipeFaults, TcpReceiver, TcpSender, TransferReport};
