//! The event scheduler.
//!
//! [`Sim<S>`] drives a user-defined world `S` forward in simulated time.
//! Events are boxed `FnOnce(&mut S, &mut Sim<S>)` closures: they mutate the
//! world and may schedule or cancel further events. This "closures as
//! events" style keeps the kernel tiny while letting higher layers build
//! state machines (training loops, flow managers) on top.

use crate::queue::{EventHandle, EventQueue};
use crate::time::{Dur, SimTime};

/// An event callback: receives the world and the scheduler.
pub type Event<S> = Box<dyn FnOnce(&mut S, &mut Sim<S>)>;

/// A discrete-event scheduler over world state `S`.
pub struct Sim<S> {
    now: SimTime,
    queue: EventQueue<Event<S>>,
}

impl<S> Default for Sim<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> Sim<S> {
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `f` at the absolute instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F) -> EventHandle
    where
        F: FnOnce(&mut S, &mut Sim<S>) + 'static,
    {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
        self.queue.push(at, Box::new(f))
    }

    /// Schedule `f` after a relative delay.
    pub fn schedule_in<F>(&mut self, delay: Dur, f: F) -> EventHandle
    where
        F: FnOnce(&mut S, &mut Sim<S>) + 'static,
    {
        self.queue.push(self.now + delay, Box::new(f))
    }

    /// Cancel a pending event. Returns `true` if it was still pending.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.queue.cancel(handle).is_some()
    }

    /// Execute the next event, advancing time. Returns `false` when idle.
    pub fn step(&mut self, state: &mut S) -> bool {
        match self.queue.pop() {
            Some((time, event)) => {
                debug_assert!(time >= self.now, "event queue went backwards");
                self.now = time;
                event(state, self);
                true
            }
            None => false,
        }
    }

    /// Run until no events remain.
    pub fn run(&mut self, state: &mut S) {
        while self.step(state) {}
    }

    /// Run until the queue is empty or the next event lies after `until`;
    /// then advance the clock to exactly `until` (if it is in the future).
    pub fn run_until(&mut self, state: &mut S, until: SimTime) {
        loop {
            match self.queue.peek_time() {
                Some(t) if t <= until => {
                    self.step(state);
                }
                _ => break,
            }
        }
        self.now = self.now.max(until);
    }

    /// Run with an event-count budget (guards against runaway simulations).
    /// Returns `true` if the queue drained, `false` if the budget ran out.
    pub fn run_with_budget(&mut self, state: &mut S, max_events: u64) -> bool {
        for _ in 0..max_events {
            if !self.step(state) {
                return true;
            }
        }
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    impl World {
        fn log(&mut self, sim: &Sim<World>, tag: &'static str) {
            self.log.push((sim.now().as_nanos(), tag));
        }
    }

    #[test]
    fn events_fire_in_order_and_clock_advances() {
        let mut sim = Sim::new();
        let mut w = World::default();
        sim.schedule_at(SimTime::from_nanos(20), |w: &mut World, s| w.log(s, "b"));
        sim.schedule_at(SimTime::from_nanos(10), |w: &mut World, s| w.log(s, "a"));
        sim.run(&mut w);
        assert_eq!(w.log, vec![(10, "a"), (20, "b")]);
        assert_eq!(sim.now(), SimTime::from_nanos(20));
    }

    #[test]
    fn events_can_schedule_more_events() {
        let mut sim = Sim::new();
        let mut w = World::default();
        sim.schedule_in(Dur::from_nanos(5), |w: &mut World, s| {
            w.log(s, "outer");
            s.schedule_in(Dur::from_nanos(5), |w: &mut World, s| w.log(s, "inner"));
        });
        sim.run(&mut w);
        assert_eq!(w.log, vec![(5, "outer"), (10, "inner")]);
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut sim = Sim::new();
        let mut w = World::default();
        let h = sim.schedule_in(Dur::from_nanos(5), |w: &mut World, s| w.log(s, "dead"));
        sim.schedule_in(Dur::from_nanos(1), move |_: &mut World, s| {
            assert!(s.cancel(h));
        });
        sim.run(&mut w);
        assert!(w.log.is_empty());
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut sim = Sim::new();
        let mut w = World::default();
        sim.schedule_at(SimTime::from_nanos(10), |w: &mut World, s| w.log(s, "in"));
        sim.schedule_at(SimTime::from_nanos(100), |w: &mut World, s| w.log(s, "out"));
        sim.run_until(&mut w, SimTime::from_nanos(50));
        assert_eq!(w.log, vec![(10, "in")]);
        assert_eq!(sim.now(), SimTime::from_nanos(50));
        sim.run(&mut w);
        assert_eq!(w.log, vec![(10, "in"), (100, "out")]);
    }

    #[test]
    fn run_with_budget_reports_exhaustion() {
        let mut sim = Sim::new();
        let mut w = World::default();
        // A self-perpetuating event chain.
        fn tick(w: &mut World, s: &mut Sim<World>) {
            w.log(s, "tick");
            s.schedule_in(Dur::from_nanos(1), tick);
        }
        sim.schedule_in(Dur::from_nanos(1), tick);
        assert!(!sim.run_with_budget(&mut w, 100));
        assert_eq!(w.log.len(), 100);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Sim::new();
        let mut w = World::default();
        sim.schedule_at(SimTime::from_nanos(10), |_: &mut World, s| {
            s.schedule_at(SimTime::from_nanos(5), |_, _| {});
        });
        sim.run(&mut w);
    }

    #[test]
    fn same_instant_fires_in_scheduling_order() {
        let mut sim = Sim::new();
        let mut w = World::default();
        for tag in ["1", "2", "3", "4"] {
            sim.schedule_at(SimTime::from_nanos(7), move |w: &mut World, s| w.log(s, tag));
        }
        sim.run(&mut w);
        let tags: Vec<_> = w.log.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, vec!["1", "2", "3", "4"]);
    }
}
