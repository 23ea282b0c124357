//! The event queue: a binary heap keyed on `(time, sequence)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::time::{SimDuration, SimTime};

#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

// Order by (time, seq): the heap is a max-heap, entries are wrapped in
// `Reverse`, so the earliest (time, seq) pops first. Equal timestamps fire
// in scheduling order, making runs bit-for-bit reproducible.
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Deterministic event queue with a virtual clock.
///
/// Popping an event advances the clock to its timestamp; scheduling into
/// the past is a logic error (panics in debug builds, clamps to `now` in
/// release).
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    now: SimTime,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute instant `time`.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        debug_assert!(
            time >= self.now,
            "scheduling into the past: {time} < {}",
            self.now
        );
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { time, seq, event }));
    }

    /// Schedules `event` after `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event)
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(s) = self.heap.pop()?;
        debug_assert!(s.time >= self.now);
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Number of events still queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no event remains.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Advances the clock with no event (for deadline-driven drivers).
    pub(crate) fn advance_to(&mut self, time: SimTime) {
        debug_assert!(time >= self.now);
        self.now = self.now.max(time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), "c");
        q.schedule_at(SimTime::from_nanos(10), "a");
        q.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_nanos(30));
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::micros(5), ());
        q.schedule_in(SimDuration::micros(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(5_000));
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7_000));
    }

    #[test]
    fn relative_scheduling_uses_current_now() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::micros(10), "first");
        q.pop();
        q.schedule_in(SimDuration::micros(10), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(20_000));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::micros(1), ());
        q.schedule_in(SimDuration::micros(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn advance_to_moves_idle_clock() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_nanos(500));
        assert_eq!(q.now(), SimTime::from_nanos(500));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_sorted() {
        let mut q = EventQueue::new();
        let mut popped = Vec::new();
        q.schedule_at(SimTime::from_nanos(5), 5u64);
        q.schedule_at(SimTime::from_nanos(1), 1);
        while let Some((t, v)) = q.pop() {
            popped.push(v);
            assert_eq!(t.as_nanos(), v);
            if v == 1 {
                q.schedule_at(SimTime::from_nanos(3), 3);
                q.schedule_at(SimTime::from_nanos(2), 2);
            }
        }
        assert_eq!(popped, [1, 2, 3, 5]);
    }
}
