//! The event loop.
//!
//! [`Engine`] drives a user-supplied [`Model`]: it pops the earliest event,
//! advances the clock, and hands the event to the model together with a
//! [`Scheduler`] through which the model may enqueue follow-up events. The
//! model owns all domain state; the engine owns only time.

use crate::time::{SimDuration, SimTime};
use crate::EventQueue;

/// Handle through which a [`Model`] schedules future events.
///
/// Borrowed from the engine for the duration of one `handle` call; events may
/// only be scheduled at or after the current instant.
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire `delay` from now.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedule `event` at an absolute instant (must not be in the past).
    pub fn at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time:?} < {:?}",
            self.now
        );
        self.queue.push(time, event);
    }

    /// Schedule `event` to fire immediately (after already-queued events for
    /// this instant).
    pub fn now_event(&mut self, event: E) {
        self.queue.push(self.now, event);
    }
}

/// A simulation model: domain state plus an event handler.
pub trait Model {
    /// The event alphabet of the model.
    type Event;

    /// Handle one event at its firing time. Follow-ups go through `sched`.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);
}

/// Outcome of a bounded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained: the simulation reached quiescence.
    Quiescent,
    /// The time bound was hit with events still pending.
    TimeLimit,
    /// The event-count bound was hit with events still pending.
    EventLimit,
}

/// The discrete-event engine.
///
/// ```
/// use sais_sim::{Engine, Model, Scheduler, SimDuration, SimTime};
///
/// struct Counter { fired: u32 }
/// impl Model for Counter {
///     type Event = u32;
///     fn handle(&mut self, n: u32, sched: &mut Scheduler<'_, u32>) {
///         self.fired += 1;
///         if n > 0 {
///             sched.after(SimDuration::from_micros(5), n - 1);
///         }
///     }
/// }
///
/// let mut engine = Engine::new(Counter { fired: 0 });
/// engine.prime(SimTime::ZERO, 3);
/// engine.run_to_quiescence(100);
/// assert_eq!(engine.model().fired, 4);
/// assert_eq!(engine.now(), SimTime::from_micros(15));
/// ```
pub struct Engine<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    dispatched: u64,
}

impl<M: Model> Engine<M> {
    /// Wrap a model with an empty queue at time zero.
    pub fn new(model: M) -> Self {
        Self::with_capacity(model, 0)
    }

    /// Wrap a model, pre-allocating queue capacity for `capacity` pending
    /// events. Scenario drivers that can bound their in-flight event count
    /// (e.g. NIC interrupt depth × servers) use this to avoid heap regrowth
    /// in the hot loop.
    pub fn with_capacity(model: M, capacity: usize) -> Self {
        Engine {
            model,
            queue: EventQueue::with_capacity(capacity),
            now: SimTime::ZERO,
            dispatched: 0,
        }
    }

    /// Current simulation time (the firing time of the last handled event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events handled so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// The same count as [`Engine::dispatched`]: every event is
    /// dispatched on its own. Kept for callers that read it by this name.
    pub fn dispatch_batches(&self) -> u64 {
        self.dispatched
    }

    /// Peak number of simultaneously pending events so far.
    pub fn queue_high_water(&self) -> usize {
        self.queue.high_water()
    }

    /// Events that took the timing wheel's far-future overflow path and
    /// cascaded back into the near-future ring (see
    /// [`crate::TimingWheel::cascades`]).
    pub fn queue_cascades(&self) -> u64 {
        self.queue.cascades()
    }

    /// Peak number of simultaneously occupied timing-wheel buckets (see
    /// [`crate::TimingWheel::peak_occupied_buckets`]).
    pub fn queue_peak_buckets(&self) -> usize {
        self.queue.peak_occupied_buckets()
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (e.g. to read out metrics after a run).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consume the engine and return the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Seed an initial event at an absolute time.
    pub fn prime(&mut self, time: SimTime, event: M::Event) {
        assert!(time >= self.now, "cannot prime into the past");
        self.queue.push(time, event);
    }

    /// Run until the queue drains. Panics if `max_events` is exceeded —
    /// a runaway-loop backstop for tests.
    pub fn run_to_quiescence(&mut self, max_events: u64) {
        match self.run_bounded(SimTime::MAX, max_events) {
            RunOutcome::Quiescent => {}
            other => panic!("simulation did not quiesce: {other:?} after {max_events} events"),
        }
    }

    /// Run until quiescence, a time bound, or an event-count bound.
    ///
    /// Each iteration pops the earliest `(time, seq)` event and hands it
    /// to [`Model::handle`]; an event scheduled at the current instant
    /// carries a later sequence number than every pending one, so it
    /// fires after them.
    pub fn run_bounded(&mut self, until: SimTime, max_events: u64) -> RunOutcome {
        let mut handled = 0u64;
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                return RunOutcome::TimeLimit;
            }
            if handled >= max_events {
                return RunOutcome::EventLimit;
            }
            let (time, event) = {
                // Wheel advance + cascade vs model work, separated for
                // the host profiler (bit-inert: one branch when off).
                sais_prof::zone!("engine.advance");
                self.queue.pop().expect("peeked entry vanished")
            };
            debug_assert!(time >= self.now, "event queue produced time regression");
            self.now = time;
            let mut sched = Scheduler {
                now: time,
                queue: &mut self.queue,
            };
            {
                sais_prof::zone!("engine.dispatch");
                self.model.handle(event, &mut sched);
            }
            self.dispatched += 1;
            handled += 1;
        }
        RunOutcome::Quiescent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that counts down: each Tick(n) schedules Tick(n-1) 10ns later.
    struct Countdown {
        fired: Vec<(SimTime, u32)>,
    }

    enum Ev {
        Tick(u32),
    }

    impl Model for Countdown {
        type Event = Ev;
        fn handle(&mut self, event: Ev, sched: &mut Scheduler<'_, Ev>) {
            let Ev::Tick(n) = event;
            self.fired.push((sched.now(), n));
            if n > 0 {
                sched.after(SimDuration::from_nanos(10), Ev::Tick(n - 1));
            }
        }
    }

    #[test]
    fn chain_of_events_advances_clock() {
        let mut eng = Engine::new(Countdown { fired: vec![] });
        eng.prime(SimTime::from_nanos(5), Ev::Tick(3));
        eng.run_to_quiescence(100);
        let m = eng.model();
        assert_eq!(
            m.fired,
            vec![
                (SimTime::from_nanos(5), 3),
                (SimTime::from_nanos(15), 2),
                (SimTime::from_nanos(25), 1),
                (SimTime::from_nanos(35), 0),
            ]
        );
        assert_eq!(eng.now(), SimTime::from_nanos(35));
        assert_eq!(eng.dispatched(), 4);
    }

    #[test]
    fn time_limit_stops_early() {
        let mut eng = Engine::new(Countdown { fired: vec![] });
        eng.prime(SimTime::ZERO, Ev::Tick(1000));
        let outcome = eng.run_bounded(SimTime::from_nanos(45), u64::MAX);
        assert_eq!(outcome, RunOutcome::TimeLimit);
        assert_eq!(eng.model().fired.len(), 5); // t = 0,10,20,30,40
    }

    #[test]
    fn event_limit_stops_early() {
        let mut eng = Engine::new(Countdown { fired: vec![] });
        eng.prime(SimTime::ZERO, Ev::Tick(1000));
        let outcome = eng.run_bounded(SimTime::MAX, 7);
        assert_eq!(outcome, RunOutcome::EventLimit);
        assert_eq!(eng.model().fired.len(), 7);
    }

    #[test]
    #[should_panic(expected = "did not quiesce")]
    fn quiescence_backstop_panics() {
        let mut eng = Engine::new(Countdown { fired: vec![] });
        eng.prime(SimTime::ZERO, Ev::Tick(u32::MAX));
        eng.run_to_quiescence(10);
    }

    /// Same-time events fire in scheduling order even through the engine.
    struct Recorder {
        order: Vec<u32>,
    }
    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, event: u32, sched: &mut Scheduler<'_, u32>) {
            self.order.push(event);
            if event == 0 {
                // Fan out three simultaneous events.
                sched.now_event(1);
                sched.now_event(2);
                sched.now_event(3);
            }
        }
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut eng = Engine::new(Recorder { order: vec![] });
        eng.prime(SimTime::ZERO, 0);
        eng.run_to_quiescence(10);
        assert_eq!(eng.model().order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn event_limit_is_exact_across_a_tie_storm() {
        let mut eng = Engine::new(Recorder { order: vec![] });
        for i in 10..20 {
            eng.prime(SimTime::ZERO, i);
        }
        let outcome = eng.run_bounded(SimTime::MAX, 7);
        assert_eq!(outcome, RunOutcome::EventLimit);
        assert_eq!(
            eng.model().order,
            vec![10, 11, 12, 13, 14, 15, 16],
            "the event budget must split a same-timestamp run exactly"
        );
    }
}
