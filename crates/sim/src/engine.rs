//! Minimal deterministic event engine.
//!
//! A simulation is a [`Model`]: a state machine with an event type `E`. The
//! [`Engine`] owns a time-ordered queue of pending events; [`Engine::run`]
//! repeatedly pops the earliest event and hands it to the model together
//! with a [`Scheduler`] through which the model enqueues follow-up events.
//!
//! Determinism: events scheduled for the same instant are delivered in the
//! order they were scheduled (a monotonically increasing sequence number
//! breaks ties), so a model's behaviour is a pure function of its inputs.
//!
//! The queue is a [`MinQueue`] on `(time, sequence)`: an event scheduled
//! at or after the latest queued one costs `O(1)`, one scheduled before it
//! a heap's `O(log n)`. The packet fabric, this engine's one user, mostly
//! schedules before: each hop's `Depart` is scheduled at its `Arrive`,
//! below `Arrive`s already queued for later instants. On an 8x8 torus
//! all-to-all 84% of its pushes take the heap, and the in-order 16% are
//! mostly the injections at t = 0, so there the queue costs what a heap
//! does.

use crate::queue::MinQueue;
use crate::time::SimTime;

/// A discrete-event simulation model.
///
/// Implementors define their event vocabulary and a transition function.
/// The engine never inspects events; it only orders them.
pub trait Model {
    /// The event vocabulary of this model.
    type Event;

    /// Handles one event at `sched.now()`, scheduling any follow-ups.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

// Ordering is by (time, sequence); the event payload never participates.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The scheduling interface handed to [`Model::handle`].
///
/// Also usable standalone to seed initial events before [`Engine::run`].
#[derive(Debug)]
pub struct Scheduler<E> {
    now: SimTime,
    seq: u64,
    /// Pending events keyed `(at, seq)`.
    queue: MinQueue<Entry<E>>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            queue: MinQueue::new(),
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — a model scheduling backwards in time
    /// is always a bug, and silently clamping would hide it.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "attempted to schedule event in the past: now={:?}, at={:?}",
            self.now,
            at
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Entry { at, seq, event });
    }

    /// Schedules `event` after a delay of `delay` from now.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` at the current instant (delivered after all events
    /// already scheduled for this instant).
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    fn pop(&mut self) -> Option<E> {
        self.queue.pop().map(|entry| {
            debug_assert!(entry.at >= self.now);
            self.now = entry.at;
            entry.event
        })
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|e| e.at)
    }
}

/// Drives a [`Model`] until its event queue drains (or a horizon is hit).
///
/// ```
/// use fcc_sim::{Engine, Model, Scheduler, SimTime};
///
/// struct Pinger { fired: u32 }
/// enum Ev { Ping }
///
/// impl Model for Pinger {
///     type Event = Ev;
///     fn handle(&mut self, _ev: Ev, sched: &mut Scheduler<Ev>) {
///         self.fired += 1;
///         if self.fired < 3 {
///             sched.schedule_in(SimTime::from_micros(1), Ev::Ping);
///         }
///     }
/// }
///
/// let mut engine = Engine::new();
/// engine.scheduler().schedule_at(SimTime::ZERO, Ev::Ping);
/// let mut model = Pinger { fired: 0 };
/// let end = engine.run(&mut model);
/// assert_eq!(model.fired, 3);
/// assert_eq!(end, SimTime::from_micros(2));
/// ```
#[derive(Debug, Default)]
pub struct Engine<E> {
    sched: Scheduler<E>,
    events_processed: u64,
}

impl<E> Engine<E> {
    /// A fresh engine at time zero.
    pub fn new() -> Self {
        Engine {
            sched: Scheduler::new(),
            events_processed: 0,
        }
    }

    /// Access the scheduler, e.g. to seed initial events.
    pub fn scheduler(&mut self) -> &mut Scheduler<E> {
        &mut self.sched
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Total number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Runs until the queue is empty. Returns the final simulated time.
    pub fn run<M: Model<Event = E>>(&mut self, model: &mut M) -> SimTime {
        while let Some(event) = self.sched.pop() {
            self.events_processed += 1;
            model.handle(event, &mut self.sched);
        }
        self.sched.now()
    }

    /// Runs until the queue is empty or the next event would be after
    /// `horizon`. Events exactly at `horizon` are delivered. Returns the
    /// final simulated time (≤ `horizon`).
    pub fn run_until<M: Model<Event = E>>(&mut self, model: &mut M, horizon: SimTime) -> SimTime {
        while let Some(at) = self.sched.peek_time() {
            if at > horizon {
                break;
            }
            let event = self.sched.pop().expect("peeked event must exist");
            self.events_processed += 1;
            model.handle(event, &mut self.sched);
        }
        self.sched.now()
    }

    /// Delivers at most one event. Returns `false` if the queue was empty.
    pub fn step<M: Model<Event = E>>(&mut self, model: &mut M) -> bool {
        if let Some(event) = self.sched.pop() {
            self.events_processed += 1;
            model.handle(event, &mut self.sched);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy model: a counter that decrements on Tick and reschedules until
    /// it hits zero, recording delivery order.
    struct Countdown {
        remaining: u32,
        log: Vec<(SimTime, u32)>,
    }

    enum Ev {
        Tick,
        Tagged(u32),
    }

    impl Model for Countdown {
        type Event = Ev;
        fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
            match event {
                Ev::Tick => {
                    self.log.push((sched.now(), self.remaining));
                    if self.remaining > 0 {
                        self.remaining -= 1;
                        sched.schedule_in(SimTime::from_nanos(10), Ev::Tick);
                    }
                }
                Ev::Tagged(tag) => self.log.push((sched.now(), tag)),
            }
        }
    }

    #[test]
    fn countdown_runs_to_completion() {
        let mut engine = Engine::new();
        engine.scheduler().schedule_at(SimTime::ZERO, Ev::Tick);
        let mut model = Countdown {
            remaining: 3,
            log: vec![],
        };
        let end = engine.run(&mut model);
        assert_eq!(end, SimTime::from_nanos(30));
        assert_eq!(model.log.len(), 4);
        assert_eq!(engine.events_processed(), 4);
    }

    #[test]
    fn same_instant_events_are_fifo() {
        let mut engine = Engine::new();
        for tag in 0..16 {
            engine
                .scheduler()
                .schedule_at(SimTime::from_nanos(5), Ev::Tagged(tag));
        }
        let mut model = Countdown {
            remaining: 0,
            log: vec![],
        };
        engine.run(&mut model);
        let tags: Vec<u32> = model.log.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut engine = Engine::new();
        engine.scheduler().schedule_at(SimTime::ZERO, Ev::Tick);
        let mut model = Countdown {
            remaining: 100,
            log: vec![],
        };
        let t = engine.run_until(&mut model, SimTime::from_nanos(25));
        // Ticks at 0, 10, 20 delivered; 30 is beyond the horizon.
        assert_eq!(model.log.len(), 3);
        assert_eq!(t, SimTime::from_nanos(20));
        // Resuming picks up where we left off.
        let t2 = engine.run_until(&mut model, SimTime::from_nanos(30));
        assert_eq!(t2, SimTime::from_nanos(30));
        assert_eq!(model.log.len(), 4);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut engine = Engine::new();
        engine
            .scheduler()
            .schedule_at(SimTime::from_nanos(10), Ev::Tick);
        let mut model = Countdown {
            remaining: 1,
            log: vec![],
        };
        engine.step(&mut model); // now = 10ns
        engine
            .scheduler()
            .schedule_at(SimTime::from_nanos(5), Ev::Tick);
    }

    #[test]
    fn step_returns_false_when_empty() {
        let mut engine: Engine<Ev> = Engine::new();
        let mut model = Countdown {
            remaining: 0,
            log: vec![],
        };
        assert!(!engine.step(&mut model));
    }
}
