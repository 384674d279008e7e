//! A pending-event queue ordered by `(time, key)` — the one calendar
//! heap of the kernel. [`crate::Engine`] uses it with the scheduling
//! sequence as the key (FIFO ties); the sharded (conservative
//! parallel) runner uses it with an event-derived key.
//!
//! FIFO tie-breaking is exactly what a *sharded* simulation cannot
//! use: two events arriving at one node from different shards would
//! fire in an order that depends on how the population was
//! partitioned. There the same-instant order comes from a
//! caller-supplied key that is a pure function of the event itself
//! (e.g. `(class, destination, sender, per-sender sequence)`), so the
//! execution order is identical for every shard count — the
//! determinism backbone of the windowed barrier runner.
//!
//! Keys must be unique per instant for the order to be total; the
//! queue makes no attempt to disambiguate equal `(time, key)` pairs.

use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Slot<K, M> {
    at: SimTime,
    key: K,
    msg: M,
}

impl<K: Ord, M> PartialEq for Slot<K, M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}

impl<K: Ord, M> Eq for Slot<K, M> {}

impl<K: Ord, M> Ord for Slot<K, M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed so `BinaryHeap` (a max-heap) acts as a min-heap.
        // Primary: time. Secondary: the event key, a pure function of
        // the event — never of scheduling order.
        (&other.at, &other.key).cmp(&(&self.at, &self.key))
    }
}

impl<K: Ord, M> PartialOrd for Slot<K, M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic pending-event queue with key-based tie-breaking
/// (see the module docs).
///
/// # Examples
///
/// ```
/// use eps_sim::{KeyedEngine, SimTime};
///
/// let mut q: KeyedEngine<u32, &str> = KeyedEngine::new();
/// let t = SimTime::from_millis(5);
/// q.schedule_at(t, 2, "second");
/// q.schedule_at(t, 1, "first"); // same instant, smaller key
/// assert_eq!(q.pop().unwrap().2, "first");
/// assert_eq!(q.pop().unwrap().2, "second");
/// ```
pub struct KeyedEngine<K, M> {
    now: SimTime,
    heap: BinaryHeap<Slot<K, M>>,
    processed_total: u64,
}

impl<K: Ord, M> Default for KeyedEngine<K, M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, M> KeyedEngine<K, M> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        KeyedEngine {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            processed_total: 0,
        }
    }

    /// The timestamp of the most recently popped event (zero before
    /// any event fires).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever popped.
    pub fn processed_total(&self) -> u64 {
        self.processed_total
    }

    /// Schedules `msg` at absolute time `at` with tie-breaking `key`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`KeyedEngine::now`]).
    pub fn schedule_at(&mut self, at: SimTime, key: K, msg: M) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        self.heap.push(Slot { at, key, msg });
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|slot| slot.at)
    }

    /// Removes and returns the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, K, M)> {
        let slot = self.heap.pop()?;
        debug_assert!(slot.at >= self.now, "event queue went backwards");
        self.now = slot.at;
        self.processed_total += 1;
        Some((slot.at, slot.key, slot.msg))
    }

    /// Like [`KeyedEngine::pop`] but only if the next event fires
    /// strictly before `horizon` — the window-local drain of the
    /// barrier runner, which must not touch events at or past the next
    /// barrier. Does not advance the clock when nothing qualifies.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, K, M)> {
        match self.peek_time() {
            Some(t) if t < horizon => self.pop(),
            _ => None,
        }
    }
}

impl<K, M> std::fmt::Debug for KeyedEngine<K, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedEngine")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("processed_total", &self.processed_total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = KeyedEngine::new();
        q.schedule_at(SimTime::from_millis(30), 0u8, 3u32);
        q.schedule_at(SimTime::from_millis(10), 9, 1);
        q.schedule_at(SimTime::from_millis(20), 5, 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, m)| m)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_ties_fire_in_key_order_not_insertion_order() {
        let t = SimTime::from_millis(5);
        // Two opposite insertion orders must produce the same firing
        // order — the property the sharded runner rests on.
        let mut a = KeyedEngine::new();
        let mut b = KeyedEngine::new();
        for key in 0..50u32 {
            a.schedule_at(t, key, key);
            b.schedule_at(t, 49 - key, 49 - key);
        }
        let fa: Vec<u32> = std::iter::from_fn(|| a.pop().map(|(_, _, m)| m)).collect();
        let fb: Vec<u32> = std::iter::from_fn(|| b.pop().map(|(_, _, m)| m)).collect();
        assert_eq!(fa, fb);
        assert_eq!(fa, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn pop_before_is_strict_and_leaves_clock_alone() {
        let mut q = KeyedEngine::new();
        q.schedule_at(SimTime::from_millis(10), 0u8, ());
        assert!(q.pop_before(SimTime::from_millis(10)).is_none());
        assert_eq!(q.now(), SimTime::ZERO);
        assert!(q.pop_before(SimTime::from_millis(11)).is_some());
        assert_eq!(q.now(), SimTime::from_millis(10));
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = KeyedEngine::new();
        q.schedule_at(SimTime::from_secs(1), 0u8, ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(1));
        assert_eq!(q.processed_total(), 1);
    }

    #[test]
    #[should_panic]
    fn scheduling_in_the_past_panics() {
        let mut q = KeyedEngine::new();
        q.schedule_at(SimTime::from_secs(1), 0u8, ());
        q.pop();
        q.schedule_at(SimTime::from_millis(1), 0u8, ());
    }
}
