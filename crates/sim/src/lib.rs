//! # sais-sim — deterministic discrete-event simulation engine
//!
//! Substrate for the SAIs reproduction. The paper's prototype runs on real
//! hardware (a 49-node Sun-Fire cluster); this crate provides the clock,
//! event queue, randomness and resource primitives from which the rest of
//! the workspace builds a faithful software model of that testbed.
//!
//! Design points:
//!
//! * **Determinism.** Events are ordered by `(time, sequence)` where the
//!   sequence number is assigned at scheduling time, so two events scheduled
//!   for the same instant always fire in scheduling order. The RNG is a
//!   seeded SplitMix64/xoshiro256** pair with no global state. Running the
//!   same scenario twice produces bit-identical metrics (asserted by
//!   integration tests).
//! * **Passive components.** Lower-level subsystem crates (`sais-mem`,
//!   `sais-cpu`, `sais-net`, …) are plain state machines that take `SimTime`
//!   arguments and return actions; only the top-level model (in `sais-core`)
//!   owns the event queue. This keeps every subsystem unit-testable without
//!   an engine.
//! * **Resources, not threads.** Contended hardware (a core, a link, a DRAM
//!   channel) is modelled as a [`resource::SerialResource`] with a
//!   `busy_until` horizon — acquisition returns the service window. This is
//!   the classic busy-server approximation used by network simulators.

pub mod engine;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod time;
pub mod wheel;

pub use engine::{Engine, Model, Scheduler};
pub use queue::HeapQueue;
pub use wheel::TimingWheel;

/// The engine's future-event list. Currently the hierarchical timing
/// wheel; [`HeapQueue`] is the reference implementation kept as a
/// property-test oracle (identical API and pop order).
pub type EventQueue<E> = TimingWheel<E>;
pub use resource::{RateResource, SerialResource};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
