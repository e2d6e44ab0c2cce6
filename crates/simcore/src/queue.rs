//! The calendar event queue driving every discrete-event simulation in the
//! workspace.
//!
//! The queue is a binary heap keyed on `(time, sequence number)`.  The
//! sequence number makes ordering *stable*: two events scheduled for the same
//! instant are delivered in the order they were scheduled.  Stability matters
//! for reproducibility — the MFC coordinator's inferences depend on which of
//! two simultaneous request completions is observed first, and we want the
//! same seed to always produce the same report.
//!
//! Payloads live in a **generation-tagged slab** beside the heap.  Each heap
//! entry carries its slot index and the generation the slot had when the
//! event was scheduled; a slot whose generation has moved on marks a
//! cancelled (or already-delivered) entry.  Compared with the earlier
//! side-`HashSet` of pending sequence numbers this removes a hash +
//! allocation from every `schedule`/`pop`/`cancel` on the hot path, keeps
//! `len` O(1) via a plain counter, and recycles slots through a free list so
//! a steady-state simulation stops allocating entirely.
//!
//! Cancellation stays lazy: cancelled entries remain in the heap and are
//! skipped when popped.  Cancellation is *not* rare in the MFC simulations.
//! After every dispatched event, the server engine's session
//! (`EngineSession::reschedule_cpu`/`reschedule_net` in `mfc-webserver`)
//! cancels its pending CPU and network completion checks and schedules
//! them again at the resources' new next-completion times.  So a run
//! cancels up to two events per event it delivers.  The cancelled checks
//! stay in the heap until their time comes, which makes the heap larger
//! than the live event count and makes every pop skip stale entries.  Each
//! operation is still O(log n) in the heap size, with no per-event
//! allocation once the heap and slab have grown.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Identifies a scheduled event so it can later be cancelled.
///
/// Handles are only meaningful for the queue that issued them.  A handle
/// holds its slab slot plus the slot's generation at scheduling time, so a
/// recycled slot cannot be cancelled through a stale handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle {
    slot: u32,
    generation: u32,
}

impl EventHandle {
    #[cfg(test)]
    fn dangling() -> EventHandle {
        EventHandle {
            slot: u32::MAX,
            generation: u32::MAX,
        }
    }
}

/// Heap entry: ordering key plus the slab coordinates of the payload.
#[derive(Debug, PartialEq, Eq)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
    generation: u32,
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

#[derive(Debug)]
struct Slot<E> {
    generation: u32,
    payload: Option<E>,
}

/// A future-event list ordered by simulated time with stable FIFO ordering
/// for ties and lazy cancellation.
///
/// # Examples
///
/// ```
/// use mfc_simcore::{EventQueue, SimTime, SimDuration};
///
/// let mut q = EventQueue::new();
/// let a = q.schedule(SimTime::from_micros(10), "a");
/// let _b = q.schedule(SimTime::from_micros(10), "b");
/// q.schedule(SimTime::from_micros(5), "c");
/// q.cancel(a);
///
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, vec!["c", "b"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry>>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    pending: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            pending: 0,
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time` and returns a handle that can be
    /// used to cancel it.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                let entry = &mut self.slots[slot as usize];
                entry.payload = Some(payload);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event slab exceeds u32 slots");
                self.slots.push(Slot {
                    generation: 0,
                    payload: Some(payload),
                });
                slot
            }
        };
        let generation = self.slots[slot as usize].generation;
        self.heap.push(Reverse(Entry {
            time,
            seq,
            slot,
            generation,
        }));
        self.pending += 1;
        EventHandle { slot, generation }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending, `false` if it had
    /// already fired or been cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.slots.get_mut(handle.slot as usize) {
            Some(slot) if slot.generation == handle.generation && slot.payload.is_some() => {
                slot.payload = None;
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push(handle.slot);
                self.pending -= 1;
                true
            }
            _ => false,
        }
    }

    /// Removes and returns the earliest pending event, skipping cancelled
    /// entries.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(Reverse(entry)) = self.heap.pop() {
            let slot = &mut self.slots[entry.slot as usize];
            if slot.generation == entry.generation {
                let payload = slot.payload.take().expect("pending slot holds a payload");
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push(entry.slot);
                self.pending -= 1;
                return Some((entry.time, payload));
            }
            // Stale entry for a cancelled event: drop it and keep sweeping.
        }
        None
    }

    /// Returns the firing time of the earliest pending (non-cancelled)
    /// event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            match self.heap.peek() {
                Some(Reverse(entry)) => {
                    if self.slots[entry.slot as usize].generation == entry.generation {
                        return Some(entry.time);
                    }
                    // Sweep the cancelled entry and keep looking.
                    self.heap.pop();
                }
                None => return None,
            }
        }
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Removes every pending event.
    ///
    /// Slots are freed with a generation bump rather than dropped, so
    /// handles issued before the `clear` can never cancel events scheduled
    /// after it (slot reuse would otherwise alias stale handles).
    pub fn clear(&mut self) {
        self.heap.clear();
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if slot.payload.take().is_some() {
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push(index as u32);
            }
        }
        self.pending = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        let b = q.schedule(t(2), "b");
        let c = q.schedule(t(3), "c");
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double cancel reports false");
        assert_eq!(q.len(), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "c"]);
        assert!(!q.cancel(a), "already-fired event cannot be cancelled");
        let _ = c;
    }

    #[test]
    fn cancel_unknown_handle_is_false() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(!q.cancel(EventHandle::dangling()));
    }

    #[test]
    fn recycled_slot_rejects_stale_handle() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        // The next schedule reuses slot 0 with a bumped generation.
        let b = q.schedule(t(2), "b");
        assert!(!q.cancel(a), "stale handle must not cancel the new event");
        assert!(q.cancel(b));
        assert!(q.is_empty());
    }

    #[test]
    fn slots_are_recycled_through_the_free_list() {
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..8u64 {
                q.schedule(t(round * 10 + i), i);
            }
            while q.pop().is_some() {}
        }
        // Steady-state churn must not grow the slab beyond its peak usage.
        assert!(q.slots.len() <= 8, "slab grew to {} slots", q.slots.len());
    }

    #[test]
    fn clear_invalidates_outstanding_handles() {
        let mut q = EventQueue::new();
        let stale = q.schedule(t(1), "before");
        q.clear();
        q.schedule(t(2), "after");
        assert!(
            !q.cancel(stale),
            "pre-clear handle must not cancel a post-clear event"
        );
        assert_eq!(q.pop().map(|(_, e)| e), Some("after"));
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 10u32);
        q.schedule(t(5), 5);
        assert_eq!(q.pop().map(|(_, e)| e), Some(5));
        q.schedule(t(7), 7);
        q.schedule(t(1), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        assert_eq!(q.pop().map(|(_, e)| e), Some(7));
        assert_eq!(q.pop().map(|(_, e)| e), Some(10));
        assert_eq!(q.pop(), None);
    }
}
