//! The discrete-event engine: a virtual clock plus a deterministically
//! ordered pending-event queue.
//!
//! This is the substrate that replaces OMNeT++ in the reproduction. It
//! is deliberately minimal: it knows nothing about networks or nodes.
//! Higher layers schedule opaque messages of type `M` and interpret
//! them when they fire.
//!
//! [`Engine`] is the FIFO-keyed use of the one calendar heap,
//! [`KeyedEngine`]: each event's tie-breaking key is its scheduling
//! sequence number, so same-instant events fire in the order they were
//! scheduled. Payloads live inline in the heap slots, so scheduling is
//! one heap push and popping is one heap pop.

use crate::keyed::KeyedEngine;
use crate::time::SimTime;

/// A deterministic discrete-event scheduler.
///
/// Events carry an arbitrary payload `M`, stored inline in the queue.
/// Two events scheduled for the same instant fire in the order they
/// were scheduled.
///
/// # Examples
///
/// ```
/// use eps_sim::{Engine, SimTime};
///
/// let mut engine: Engine<&str> = Engine::new();
/// engine.schedule(SimTime::from_millis(10), "b");
/// engine.schedule(SimTime::from_millis(5), "a");
/// let (t, msg) = engine.pop().unwrap();
/// assert_eq!((t.as_nanos(), msg), (5_000_000, "a"));
/// assert_eq!(engine.pop().unwrap().1, "b");
/// assert!(engine.pop().is_none());
/// ```
#[derive(Debug)]
pub struct Engine<M> {
    queue: KeyedEngine<u64, M>,
    next_seq: u64,
}

impl<M> Default for Engine<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Engine<M> {
    /// Creates an empty engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            queue: KeyedEngine::new(),
            next_seq: 0,
        }
    }

    /// The current virtual time: the timestamp of the most recently
    /// popped event (or zero before any event fires).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Schedules `msg` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimTime, msg: M) {
        self.schedule_at(self.now() + delay, msg);
    }

    /// Schedules `msg` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Engine::now`]); the
    /// kernel never reorders time.
    pub fn schedule_at(&mut self, at: SimTime, msg: M) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.schedule_at(at, seq, msg);
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, M)> {
        self.queue.pop().map(|(at, _, msg)| (at, msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Random cases per calendar property (proptest's default count).
    const CASES: u64 = 256;

    #[test]
    fn pops_are_time_ordered_and_complete_for_random_schedules() {
        let mut rng = Rng::from_seed(0xca1e);
        for _ in 0..CASES {
            let count = 1 + rng.random_below(199) as usize;
            let delays: Vec<u64> = (0..count).map(|_| rng.random_below(1_000_000)).collect();
            let mut engine = Engine::new();
            for (i, &d) in delays.iter().enumerate() {
                engine.schedule_at(SimTime::from_nanos(d), i);
            }
            let mut last = SimTime::ZERO;
            let mut seen = vec![false; count];
            while let Some((t, i)) = engine.pop() {
                assert!(t >= last, "time went backwards");
                assert_eq!(t, SimTime::from_nanos(delays[i]));
                assert!(!seen[i], "event {i} popped twice");
                seen[i] = true;
                last = t;
            }
            assert!(seen.iter().all(|&s| s), "some event never fired");
        }
    }

    /// Events scheduled for one instant fire in scheduling order, even
    /// when other instants are interleaved with them.
    #[test]
    fn same_instant_ties_fire_fifo_for_random_schedules() {
        let mut rng = Rng::from_seed(0xf1f0);
        for _ in 0..CASES {
            let count = 1 + rng.random_below(99) as usize;
            let at = SimTime::from_nanos(rng.random_below(1_000_000));
            let mut engine = Engine::new();
            for i in 0..count {
                engine.schedule_at(at, Some(i));
                // Unrelated events around the tied instant.
                let other = SimTime::from_nanos(rng.random_below(2_000_000));
                if other != at {
                    engine.schedule_at(other, None);
                }
            }
            let order: Vec<usize> = std::iter::from_fn(|| engine.pop())
                .filter_map(|(_, i)| i)
                .collect();
            assert_eq!(order, (0..count).collect::<Vec<_>>());
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_secs(1), ());
        assert_eq!(e.now(), SimTime::ZERO);
        e.pop();
        assert_eq!(e.now(), SimTime::from_secs(1));
    }

    #[test]
    fn relative_schedule_uses_current_time() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_secs(2), "first");
        e.pop();
        e.schedule(SimTime::from_secs(3), "second");
        let (t, _) = e.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(5));
    }

    #[test]
    #[should_panic]
    fn scheduling_in_the_past_panics() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_secs(1), ());
        e.pop();
        e.schedule_at(SimTime::from_millis(1), ());
    }

    #[test]
    fn len_tracks_pending() {
        let mut e = Engine::new();
        assert!(e.is_empty());
        e.schedule(SimTime::from_secs(1), ());
        e.schedule(SimTime::from_secs(2), ());
        assert_eq!(e.len(), 2);
        e.pop();
        assert_eq!(e.len(), 1);
        e.pop();
        assert!(e.is_empty());
    }
}
