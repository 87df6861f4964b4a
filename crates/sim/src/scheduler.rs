//! The scheduler: an event queue paired with a virtual clock.

use crate::metrics::Counter;
use crate::queue::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

/// An event queue paired with the current virtual time.
///
/// The scheduler is pure data: it never calls back into user code. A
/// simulation owns a `Scheduler` alongside its own state and drives it
/// with [`Scheduler::pop`], or with [`Scheduler::pop_until`] up to a
/// horizon (see the crate-level example).
///
/// Cloning forks the queue and the clock: `EventId`s minted before the
/// clone stay cancellable on both copies, and the copies evolve
/// independently afterwards — the basis of snapshot/fork sweeps.
///
/// # Examples
///
/// ```
/// use pqs_sim::{Scheduler, SimTime, SimDuration};
///
/// let mut scheduler = Scheduler::new();
/// scheduler.schedule_in(SimDuration::from_millis(5), "hello");
/// let (at, event) = scheduler.pop().expect("one event pending");
/// assert_eq!(at, SimTime::from_millis(5));
/// assert_eq!(scheduler.now(), at);
/// assert_eq!(event, "hello");
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: SimTime,
    clamped: Counter,
}

impl<E> Scheduler<E> {
    /// Creates a scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            clamped: Counter::new(),
        }
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute instant `at`.
    ///
    /// Scheduling into the past would break causality; such requests are
    /// clamped to fire at the current time and *counted* in
    /// [`Scheduler::clamped_schedules`] so the violation is visible in
    /// metrics exports rather than silently absorbed (debug and release
    /// builds behave identically, preserving cross-profile determinism).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        if at < self.now {
            self.clamped.inc();
        }
        self.queue.schedule(at.max(self.now), event)
    }

    /// Number of [`Scheduler::schedule_at`] calls whose timestamp lay in
    /// the past and was clamped to `now` — causality violations by the
    /// caller. Zero in a healthy simulation.
    pub fn clamped_schedules(&self) -> u64 {
        self.clamped.get()
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.queue.schedule(self.now + delay, event)
    }

    /// Cancels a pending event. Returns `true` if it was still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Removes the earliest pending event, advances the clock to its firing
    /// time, and returns it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// Like [`pop`](Self::pop), but only if the earliest pending event
    /// fires at or before `until`: otherwise returns `None` and leaves
    /// the queue and the clock as they were. Events at exactly `until`
    /// still pop, so `while let Some(..) = s.pop_until(end)` runs a
    /// simulation through `end` inclusive.
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        let (at, event) = self.queue.pop_until(until)?;
        self.now = at;
        Some((at, event))
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_on_pop() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(5), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_secs(5));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1), 1);
        s.pop();
        s.schedule_in(SimDuration::from_secs(2), 2);
        let (at, _) = s.pop().unwrap();
        assert_eq!(at, SimTime::from_secs(3));
    }

    /// Runs a chain of events, each scheduling the next one a second
    /// later up to event 5, through `end`; returns what fired when.
    fn chain_until(end: SimTime) -> (Scheduler<u32>, Vec<(SimTime, u32)>) {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::ZERO, 1);
        let mut fired = Vec::new();
        while let Some((at, event)) = s.pop_until(end) {
            fired.push((at, event));
            if event < 5 {
                s.schedule_in(SimDuration::from_secs(1), event + 1);
            }
        }
        (s, fired)
    }

    #[test]
    fn pop_until_processes_chain() {
        let (s, fired) = chain_until(SimTime::from_secs(10));
        assert_eq!(fired.len(), 5);
        assert_eq!(fired[4], (SimTime::from_secs(4), 5));
        assert!(s.is_empty());
    }

    #[test]
    fn pop_until_respects_horizon_inclusive() {
        let (mut s, fired) = chain_until(SimTime::from_secs(2));
        // Events at t=0, 1, 2 fire; the one at t=3 does not, and the
        // clock stays at the last event fired.
        assert_eq!(fired.len(), 3);
        assert_eq!(s.len(), 1);
        assert_eq!(s.now(), SimTime::from_secs(2));
        assert_eq!(s.pop_until(SimTime::from_millis(2_500)), None);
        assert_eq!(s.now(), SimTime::from_secs(2));
        assert_eq!(s.pop(), Some((SimTime::from_secs(3), 4)));
    }

    #[test]
    fn past_schedules_are_clamped_and_counted() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(10), "late");
        s.pop();
        assert_eq!(s.clamped_schedules(), 0);
        s.schedule_at(SimTime::from_secs(3), "past");
        assert_eq!(s.clamped_schedules(), 1);
        let (at, event) = s.pop().expect("clamped event pending");
        assert_eq!(at, SimTime::from_secs(10), "fires at now, not in the past");
        assert_eq!(event, "past");
        assert_eq!(s.now(), SimTime::from_secs(10));
    }

    #[test]
    fn determinism_same_seedless_trace() {
        let build = || {
            let mut s = Scheduler::new();
            for i in 0..1000u32 {
                s.schedule_at(SimTime::from_micros(u64::from(i % 17)), i);
            }
            std::iter::from_fn(move || s.pop()).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
