//! Deterministic, cancellable event queue.
//!
//! [`EventQueue`] is a binary min-heap keyed by `(time, sequence)`: events
//! pop in ascending time, and two events at the same instant pop in the
//! order they were scheduled.
//!
//! Payloads live in a slab indexed by slot; cancelling or popping an event
//! bumps the slot's generation, so a stale [`EventHandle`] can never cancel
//! (or observe) a recycled slot. A cancelled event's heap entry stays where
//! it is and is dropped when it reaches the head.
//!
//! The queue serves the training engine's simulations (paper runs and
//! placement probes), which keep a few dozen events pending at most; the
//! scheduler's replay loop does not use it.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A handle to a scheduled event, usable to cancel it before it fires.
///
/// Handles are cheap to copy and remain safe after the event fires or is
/// cancelled: operations on a dead handle are no-ops that return `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    slot: u32,
    generation: u32,
}

impl EventHandle {
    /// A handle that never refers to a live event.
    pub const DEAD: EventHandle = EventHandle {
        slot: u32::MAX,
        generation: u32::MAX,
    };
}

impl Default for EventHandle {
    fn default() -> Self {
        EventHandle::DEAD
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: SimTime,
    seq: u64,
}

struct Slot<T> {
    generation: u32,
    payload: Option<T>,
}

/// A cancellable priority queue of timed events carrying payloads of type `T`.
pub struct EventQueue<T> {
    /// `(key, slot, generation)` of every event pushed and not yet popped,
    /// cancelled ones included until they reach the head.
    heap: BinaryHeap<Reverse<(Key, u32, u32)>>,
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    seq: u64,
    live: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            live: 0,
        }
    }

    /// Number of live (not-yet-fired, not-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedule `payload` at `time`. Returns a cancellation handle.
    pub fn push(&mut self, time: SimTime, payload: T) -> EventHandle {
        let slot = match self.free.pop() {
            Some(idx) => {
                let s = &mut self.slots[idx as usize];
                debug_assert!(s.payload.is_none());
                s.payload = Some(payload);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("event slot overflow");
                self.slots.push(Slot {
                    generation: 0,
                    payload: Some(payload),
                });
                idx
            }
        };
        let generation = self.slots[slot as usize].generation;
        let key = Key {
            time,
            seq: self.seq,
        };
        self.seq += 1;
        self.live += 1;
        self.heap.push(Reverse((key, slot, generation)));
        EventHandle { slot, generation }
    }

    /// Cancel a scheduled event. Returns the payload if the event was still
    /// pending, `None` if it already fired or was already cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> Option<T> {
        let slot = self.slots.get_mut(handle.slot as usize)?;
        if slot.generation != handle.generation {
            return None;
        }
        let payload = slot.payload.take()?;
        // Bump generation now; the heap entry is skipped lazily and the
        // slot is reusable immediately.
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(handle.slot);
        self.live -= 1;
        Some(payload)
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle_head();
        self.heap.peek().map(|Reverse((key, _, _))| key.time)
    }

    /// Pop the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.settle_head();
        let Reverse((key, slot, _)) = self.heap.pop()?;
        let s = &mut self.slots[slot as usize];
        let payload = s.payload.take().expect("settle_head left a dead head");
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
        Some((key.time, payload))
    }

    /// Drop cancelled entries off the heap until its head, if any, is live.
    fn settle_head(&mut self) {
        while let Some(&Reverse((_, slot, generation))) = self.heap.peek() {
            if self.slots[slot as usize].generation == generation {
                return;
            }
            self.heap.pop(); // cancelled: its slot's generation moved on
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn cancel_returns_payload_once() {
        let mut q = EventQueue::new();
        let h = q.push(t(10), 42);
        assert_eq!(q.cancel(h), Some(42));
        assert_eq!(q.cancel(h), None, "double cancel is a no-op");
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn stale_handle_cannot_cancel_recycled_slot() {
        let mut q = EventQueue::new();
        let h1 = q.push(t(10), 1);
        q.cancel(h1);
        let h2 = q.push(t(20), 2); // reuses the slot
        assert_eq!(h1.slot, h2.slot, "slot should be recycled");
        assert_eq!(q.cancel(h1), None, "old generation must not cancel");
        assert_eq!(q.pop(), Some((t(20), 2)));
    }

    #[test]
    fn stale_heap_entry_does_not_pop_recycled_payload() {
        let mut q = EventQueue::new();
        let h1 = q.push(t(10), "old");
        q.cancel(h1);
        // Reuses the slot with a *different* time; the stale (t=10) heap
        // entry must not surface "new" at t=10.
        let _h2 = q.push(t(5), "new");
        assert_eq!(q.pop(), Some((t(5), "new")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn handle_dies_after_pop() {
        let mut q = EventQueue::new();
        let h = q.push(t(10), 7);
        assert_eq!(q.pop(), Some((t(10), 7)));
        assert_eq!(q.cancel(h), None);
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let h = q.push(t(10), "head");
        q.push(t(20), "next");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(t(20)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 0);
        let _b = q.push(t(2), 1);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    /// Far-apart clusters of densely tied times pop in globally ascending
    /// (time, seq) order.
    #[test]
    fn many_clusters_pop_sorted() {
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        for cluster in 0..8u64 {
            let base = cluster * 1_000_000_000; // 1 s apart
            for i in 0..700u64 {
                let time = base + (i * 37) % 500; // dense ties inside the cluster
                q.push(t(time), seq);
                expect.push((time, seq));
                seq += 1;
            }
        }
        expect.sort();
        for &(time, payload) in &expect {
            assert_eq!(q.pop(), Some((t(time), payload)));
        }
        assert_eq!(q.pop(), None);
    }

    /// Pushes are not required to be monotonic: after popping ahead, an
    /// event earlier than every pending one must still pop next.
    #[test]
    fn earlier_push_after_pops_becomes_the_head() {
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.push(t(1000 + i * 10), i);
        }
        for _ in 0..10 {
            q.pop();
        }
        q.push(t(0), 999);
        assert_eq!(q.pop(), Some((t(0), 999)));
        assert_eq!(q.pop(), Some((t(1100), 10)), "time order resumes");
    }

    #[test]
    fn interleaved_push_cancel_pop_stress() {
        // Deterministic pseudo-random interleaving; checks slab recycling.
        let mut q = EventQueue::new();
        let mut handles = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut live = 0usize;
        for i in 0..10_000u64 {
            match next() % 3 {
                0 | 1 => {
                    handles.push(q.push(t(next() % 1000), i));
                    live += 1;
                }
                _ => {
                    if let Some(h) = handles.pop() {
                        if q.cancel(h).is_some() {
                            live -= 1;
                        }
                    }
                }
            }
            assert_eq!(q.len(), live);
        }
        let mut last = SimTime::ZERO;
        while let Some((time, _)) = q.pop() {
            assert!(time >= last, "pop order must be nondecreasing");
            last = time;
            live -= 1;
        }
        assert_eq!(live, 0);
    }
}
