//! Deterministic, cancellable event queue.
//!
//! [`EventQueue`] is a **calendar queue**: a sliding window of `K` time
//! buckets (a timing wheel) with a [`BinaryHeap`] overflow for events
//! beyond the window. Dense simulations — probe micro-sims, large replay
//! loops — pay O(1) amortized per push/pop instead of the heap's
//! O(log n), while the pop order stays exactly the legacy heap order:
//! ascending `(time, sequence)`, so two events at the same instant pop in
//! scheduling order.
//!
//! Payloads live in a slab indexed by slot; cancelling an event bumps the
//! slot's generation so a stale [`EventHandle`] can never cancel (or
//! observe) a recycled slot. Popping skips cancelled entries lazily, in
//! the wheel and in the overflow alike.
//!
//! The wheel re-bases itself whenever its window drains: the next batch of
//! overflow events is sampled and the bucket width re-derived from the
//! batch's time span, so the same queue serves nanosecond-spaced event
//! chains and second-spaced replay timelines without tuning.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Buckets in the wheel window. Power of two so the window covers
/// `K × width` nanoseconds with cheap index math.
const WHEEL_BUCKETS: usize = 256;
/// Overflow entries sampled per re-base when re-deriving the bucket
/// width; 2×K keeps the expected bucket occupancy around two entries.
const REBASE_SAMPLE: usize = 2 * WHEEL_BUCKETS;

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

/// Where a live entry currently sits — needed so cancel can keep the
/// wheel's live-entry count exact without searching either structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Wheel,
    Overflow,
}

struct Slot<T> {
    generation: u32,
    payload: Option<T>,
    loc: Loc,
}

type Entry = (Key, u32, u32);

/// A cancellable priority queue of timed events carrying payloads of type `T`.
pub struct EventQueue<T> {
    /// The sliding window: bucket `i` covers
    /// `[wheel_start + i·width, wheel_start + (i+1)·width)`. Buckets ahead
    /// of the cursor hold unsorted entries; the active bucket is sorted on
    /// activation and consumed through `pos`.
    buckets: Vec<Vec<Entry>>,
    /// Active bucket index; `WHEEL_BUCKETS` means the window is drained.
    cur: usize,
    /// Consumption cursor into the (sorted) active bucket.
    pos: usize,
    wheel_start: SimTime,
    /// Bucket width in nanoseconds (≥ 1); re-derived at each re-base.
    width: u64,
    /// Live (not cancelled) entries currently in the wheel.
    wheel_live: usize,
    /// Events at or beyond the window horizon, plus any pushed while the
    /// window was drained. Strictly later than every wheel entry whenever
    /// the wheel holds a live entry.
    overflow: BinaryHeap<Reverse<Entry>>,
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
            buckets: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            cur: WHEEL_BUCKETS,
            pos: 0,
            wheel_start: SimTime::ZERO,
            width: 1,
            wheel_live: 0,
            overflow: BinaryHeap::new(),
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

    /// First nanosecond past the wheel window.
    fn horizon(&self) -> u64 {
        self.wheel_start
            .as_nanos()
            .saturating_add(WHEEL_BUCKETS as u64 * self.width)
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
                    loc: Loc::Wheel,
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
        self.place(key, slot, generation);
        EventHandle { slot, generation }
    }

    /// Route a fresh entry to the wheel or the overflow.
    fn place(&mut self, key: Key, slot: u32, generation: u32) {
        let entry = (key, slot, generation);
        if self.cur == WHEEL_BUCKETS {
            if self.live == 1 {
                // The queue was empty: re-anchor the window at this event.
                self.wheel_start = key.time;
                self.cur = 0;
                self.pos = 0;
                self.buckets[0].push(entry);
                self.slots[slot as usize].loc = Loc::Wheel;
                self.wheel_live = 1;
            } else {
                // Window drained but older events wait in the overflow; the
                // next settle re-bases and restores wheel-min ≤ overflow-min.
                self.slots[slot as usize].loc = Loc::Overflow;
                self.overflow.push(Reverse(entry));
            }
            return;
        }
        if key.time.as_nanos() >= self.horizon() {
            self.slots[slot as usize].loc = Loc::Overflow;
            self.overflow.push(Reverse(entry));
            return;
        }
        self.slots[slot as usize].loc = Loc::Wheel;
        self.wheel_live += 1;
        let idx = if key.time <= self.wheel_start {
            self.cur
        } else {
            let off = (key.time.as_nanos() - self.wheel_start.as_nanos()) / self.width;
            // Events at or before the active window clamp into the active
            // bucket (pushes are not required to be monotonic).
            (off as usize).max(self.cur)
        };
        if idx == self.cur {
            // Sorted insert into the not-yet-consumed tail of the active
            // bucket, preserving ascending (time, seq) order.
            let b = &mut self.buckets[idx];
            let at = self.pos + b[self.pos..].partition_point(|&(k, _, _)| k < key);
            b.insert(at, entry);
        } else {
            self.buckets[idx].push(entry);
        }
    }

    /// Cancel a scheduled event. Returns the payload if the event was still
    /// pending, `None` if it already fired or was already cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> Option<T> {
        let slot = self.slots.get_mut(handle.slot as usize)?;
        if slot.generation != handle.generation {
            return None;
        }
        let payload = slot.payload.take()?;
        // Bump generation now; the wheel/overflow entry is skipped lazily
        // and the slot is reusable immediately.
        slot.generation = slot.generation.wrapping_add(1);
        if slot.loc == Loc::Wheel {
            self.wheel_live -= 1;
        }
        self.free.push(handle.slot);
        self.live -= 1;
        Some(payload)
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.settle_head() {
            Some(self.buckets[self.cur][self.pos].0.time)
        } else {
            None
        }
    }

    /// Pop the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if !self.settle_head() {
            return None;
        }
        let (key, slot, _gen) = self.buckets[self.cur][self.pos];
        self.pos += 1;
        self.wheel_live -= 1;
        let s = &mut self.slots[slot as usize];
        let payload = s.payload.take().expect("settle_head left a dead head");
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
        Some((key.time, payload))
    }

    fn is_live(&self, slot: u32, generation: u32) -> bool {
        let s = &self.slots[slot as usize];
        s.generation == generation && s.payload.is_some()
    }

    /// Advance cursor/window state until `buckets[cur][pos]` is the live
    /// minimum of the whole queue. Returns false when the queue is empty.
    fn settle_head(&mut self) -> bool {
        loop {
            if self.live == 0 {
                // Only dead entries can remain anywhere; drop them so the
                // structures cannot accumulate garbage across idle phases.
                self.overflow.clear();
                while self.cur < WHEEL_BUCKETS {
                    self.buckets[self.cur].clear();
                    self.cur += 1;
                }
                return false;
            }
            if self.wheel_live == 0 {
                self.rebase();
                continue;
            }
            while self.cur < WHEEL_BUCKETS {
                while self.pos < self.buckets[self.cur].len() {
                    let (_, slot, generation) = self.buckets[self.cur][self.pos];
                    if self.is_live(slot, generation) {
                        return true;
                    }
                    self.pos += 1; // cancelled: skip lazily
                }
                self.buckets[self.cur].clear();
                self.cur += 1;
                if self.cur < WHEEL_BUCKETS {
                    self.activate(self.cur);
                }
            }
            // The window drained with wheel_live > 0 is impossible — every
            // live wheel entry sits in an unconsumed bucket — so reaching
            // here means the count hit zero exactly at the window edge.
            debug_assert_eq!(self.wheel_live, 0);
        }
    }

    /// Sort a bucket on activation; entries are unique by `seq`, so
    /// unstable sort yields a deterministic ascending (time, seq) order.
    fn activate(&mut self, idx: usize) {
        self.buckets[idx].sort_unstable_by_key(|&(k, _, _)| k);
        self.pos = 0;
    }

    /// Slide the window onto the next batch of overflow events: sample up
    /// to [`REBASE_SAMPLE`] earliest entries, re-derive the bucket width
    /// from their span, and scatter those inside the new window into
    /// buckets (dead entries are dropped here — free cleanup). Entries past
    /// the new horizon go back to the overflow; the window start strictly
    /// advances, so they are re-drained by a later re-base.
    fn rebase(&mut self) {
        debug_assert!(self.wheel_live == 0 && self.live > 0);
        let mut batch: Vec<Entry> = Vec::with_capacity(REBASE_SAMPLE);
        while batch.len() < REBASE_SAMPLE {
            let Some(Reverse(entry)) = self.overflow.pop() else {
                break;
            };
            if self.is_live(entry.1, entry.2) {
                batch.push(entry);
            }
        }
        debug_assert!(!batch.is_empty(), "live > 0 with an empty overflow");
        let t0 = batch[0].0.time;
        let span = batch.last().expect("nonempty").0.time.as_nanos() - t0.as_nanos();
        self.width = (span / WHEEL_BUCKETS as u64).max(1);
        self.wheel_start = t0;
        let horizon = self.horizon();
        for entry in batch {
            if entry.0.time.as_nanos() < horizon {
                self.slots[entry.1 as usize].loc = Loc::Wheel;
                self.wheel_live += 1;
                let idx = (entry.0.time.as_nanos() - t0.as_nanos()) / self.width;
                self.buckets[idx as usize].push(entry);
            } else {
                self.overflow.push(Reverse(entry));
            }
        }
        self.cur = 0;
        self.activate(0);
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
        // Reuses the slot with a *different* time; the stale (t=10) wheel
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

    /// Times spanning many window re-bases: far-apart clusters force the
    /// wheel to slide and re-derive its width repeatedly, and the pop
    /// order must still be globally ascending (time, seq).
    #[test]
    fn clustered_times_across_rebases_pop_sorted() {
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
    /// event earlier than the active window must still pop next.
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
        assert_eq!(q.pop(), Some((t(1100), 10)), "window ordering resumes");
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
