//! Per-flow bookkeeping of the sharing core: a flow slab and indexed
//! min-heaps over it.
//!
//! The topology crate's `NetworkGraph`, which shares every link and every
//! CPU, touches a handful of ordered indexes on every flow arrival,
//! departure and regime flip: flows by virtual finish tag, by absolute
//! finish time, by rate cap.  Ordered trees made each of those touches an
//! allocation-prone B-tree insert or remove.  Here instead:
//!
//! - every active flow lives in one [`FlowSlab`] entry (a `Vec` plus a
//!   free list), found from its [`FlowId`] through a small hash map;
//! - each index is an [`IndexedHeap`]: a binary min-heap of
//!   `(key, FlowId, slot)` entries that removes any flow by slot in
//!   O(log n), because the flow's slab entry records where the flow sits in
//!   each heap.
//!
//! A flow is in at most two heaps at once: one ordered by when it finishes
//! ([`FinishHeap`]: sharing, capped or drained) and one ordered by its cap
//! ([`CapHeap`]).  So a slab entry carries two heap positions, and a heap
//! is a single `Vec` — an empty heap clones without allocating.
//!
//! Determinism: a heap's top is the minimum under the total order on
//! `(key, FlowId)` — the order `BTreeSet<(u64, FlowId)>::first` uses — so
//! which flow a core sees first never depends on insertion history or on
//! the heap's internal layout.  The id map is only probed, never iterated,
//! so neither its hash function nor its layout can reach a result.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::FlowId;

/// Multiplicative hasher for [`FlowId`]s.  Ids are dense counters, often
/// offset by a large constant, so one odd multiply plus a fold of the high
/// half into the low half spreads them over the table.  The program
/// assigns every id itself (none is read from outside input), so a
/// collision-resistant hasher would only cost time.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(self.0 ^ u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let x = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One live (or, once freed, vacant) slab entry.
#[derive(Debug, Clone)]
struct Slot<T> {
    id: FlowId,
    /// Where the flow sits in its finish-ordered and cap-ordered heap
    /// (meaningless for a heap the flow is not in).
    positions: [u32; 2],
    value: T,
}

/// Active flows by slot, with an id→slot map for the public API's ids.
///
/// A slot stays valid from [`Self::insert`] to [`Self::remove`]; removed
/// slots are reused by later inserts.
#[derive(Debug, Clone)]
pub struct FlowSlab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    index: HashMap<FlowId, u32, BuildHasherDefault<IdHasher>>,
}

impl<T> Default for FlowSlab<T> {
    fn default() -> Self {
        FlowSlab {
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::default(),
        }
    }
}

impl<T: Copy> FlowSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        FlowSlab::default()
    }

    /// Number of live flows.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no flow is live.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Removes every flow, keeping the storage for later inserts.  Empty
    /// the heaps that index this slab too: their slots no longer exist.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.index.clear();
    }

    /// The slot of a live flow.
    pub fn slot_of(&self, id: FlowId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// Stores a new flow and returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already live.
    pub fn insert(&mut self, id: FlowId, value: T) -> u32 {
        let Entry::Vacant(vacant) = self.index.entry(id) else {
            panic!("flow {id:?} is already active");
        };
        let entry = Slot {
            id,
            positions: [0; 2],
            value,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                u32::try_from(self.slots.len() - 1).expect("too many flows")
            }
        };
        vacant.insert(slot);
        slot
    }

    /// Frees a live slot and returns its flow.  Take the flow out of every
    /// heap first: the heaps find it through the slot.
    pub fn remove(&mut self, slot: u32) -> T {
        let entry = &self.slots[slot as usize];
        self.index.remove(&entry.id);
        self.free.push(slot);
        entry.value
    }

    /// The flow in a live slot.
    pub fn get(&self, slot: u32) -> &T {
        &self.slots[slot as usize].value
    }

    /// The flow in a live slot, mutably.
    pub fn get_mut(&mut self, slot: u32) -> &mut T {
        &mut self.slots[slot as usize].value
    }
}

/// One heap entry: the ordering key, the flow id that breaks key ties, and
/// the flow's slab slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapEntry {
    /// Ordering key (an `f64`'s bits, or its complement for max-first).
    pub key: u64,
    /// The flow; second component of the order.
    pub id: FlowId,
    /// The flow's slot in the [`FlowSlab`] the heap indexes.
    pub slot: u32,
}

impl HeapEntry {
    fn rank(&self) -> (u64, FlowId) {
        (self.key, self.id)
    }
}

/// A binary min-heap of flows ordered by `(key, FlowId)`, removable by
/// slot in O(log n).  Its flows' positions are kept in position `P` of
/// their [`FlowSlab`] entries, so every mutation takes that slab.
///
/// # Examples
///
/// ```
/// use mfc_simnet::heap::{FinishHeap, FlowSlab};
/// use mfc_simnet::FlowId;
///
/// let mut slab = FlowSlab::new();
/// let mut heap = FinishHeap::new();
/// for (id, key) in [(1, 30), (2, 10), (3, 10)] {
///     let slot = slab.insert(FlowId(id), ());
///     heap.push(key, slot, &mut slab);
/// }
/// // Smallest key first; equal keys in id order.
/// assert_eq!(heap.peek().unwrap().id, FlowId(2));
/// let slot = slab.slot_of(FlowId(2)).unwrap();
/// heap.remove(slot, &mut slab);
/// assert_eq!(heap.peek().unwrap().id, FlowId(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct IndexedHeap<const P: usize> {
    entries: Vec<HeapEntry>,
}

/// Flows by when they finish: a sharing tag, a capped finish time, or `0`
/// for drained flows (which then come out in id order).
pub type FinishHeap = IndexedHeap<0>;

/// Flows by rate cap: key `cap_bits` puts the smallest cap on top,
/// `!cap_bits` the largest.
pub type CapHeap = IndexedHeap<1>;

impl<const P: usize> IndexedHeap<P> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        IndexedHeap {
            entries: Vec::new(),
        }
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes every entry, keeping the storage.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The entry with the smallest `(key, id)`.
    pub fn peek(&self) -> Option<HeapEntry> {
        self.entries.first().copied()
    }

    /// Adds the flow in `slot` under `key`.  The flow must not already be
    /// in this heap.
    pub fn push<T: Copy>(&mut self, key: u64, slot: u32, slab: &mut FlowSlab<T>) {
        let id = slab.slots[slot as usize].id;
        self.entries.push(HeapEntry { key, id, slot });
        self.sift_up(self.entries.len() - 1, slab);
    }

    /// Removes and returns the top entry.
    pub fn pop<T: Copy>(&mut self, slab: &mut FlowSlab<T>) -> Option<HeapEntry> {
        let top = self.peek()?;
        self.remove_at(0, slab);
        Some(top)
    }

    /// Removes the flow in `slot`, which must be in this heap, and returns
    /// its key.
    pub fn remove<T: Copy>(&mut self, slot: u32, slab: &mut FlowSlab<T>) -> u64 {
        let at = slab.slots[slot as usize].positions[P] as usize;
        assert_eq!(self.entries[at].slot, slot, "flow is not in this heap");
        self.remove_at(at, slab)
    }

    fn remove_at<T: Copy>(&mut self, at: usize, slab: &mut FlowSlab<T>) -> u64 {
        let removed = self.entries.swap_remove(at);
        if at < self.entries.len() {
            if at > 0 && self.entries[at].rank() < self.entries[(at - 1) / 2].rank() {
                self.sift_up(at, slab);
            } else {
                self.sift_down(at, slab);
            }
        }
        removed.key
    }

    fn place<T: Copy>(&mut self, at: usize, entry: HeapEntry, slab: &mut FlowSlab<T>) {
        self.entries[at] = entry;
        slab.slots[entry.slot as usize].positions[P] = at as u32;
    }

    fn sift_up<T: Copy>(&mut self, mut at: usize, slab: &mut FlowSlab<T>) {
        let entry = self.entries[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            if self.entries[parent].rank() < entry.rank() {
                break;
            }
            self.place(at, self.entries[parent], slab);
            at = parent;
        }
        self.place(at, entry, slab);
    }

    fn sift_down<T: Copy>(&mut self, mut at: usize, slab: &mut FlowSlab<T>) {
        let entry = self.entries[at];
        let len = self.entries.len();
        loop {
            let mut child = 2 * at + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.entries[child + 1].rank() < self.entries[child].rank() {
                child += 1;
            }
            if entry.rank() < self.entries[child].rank() {
                break;
            }
            self.place(at, self.entries[child], slab);
            at = child;
        }
        self.place(at, entry, slab);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfc_simcore::SimRng;
    use std::collections::BTreeSet;

    /// Random push / remove-by-slot / pop sequences on both heap kinds
    /// agree with a `BTreeSet<(u64, FlowId)>` oracle at every step.
    /// Keys come from a tiny range, so most keys repeat and ties fall to
    /// the flow id; the cap heap stores `!cap`, so its top is the largest
    /// cap with ties still broken by the smallest id.
    #[test]
    fn heaps_match_an_ordered_set_oracle() {
        for seed in 0..200u64 {
            let mut rng = SimRng::seed_from(seed);
            let mut slab = FlowSlab::new();
            let mut finish = FinishHeap::new();
            let mut by_cap = CapHeap::new();
            let mut finish_oracle: BTreeSet<(u64, FlowId)> = BTreeSet::new();
            let mut cap_oracle: BTreeSet<(u64, FlowId)> = BTreeSet::new();
            let mut live: Vec<FlowId> = Vec::new();
            let mut next_id = 0u64;
            for step in 0..300 {
                let ctx = format!("seed {seed} step {step}");
                match rng.uniform_u64(0, 9) {
                    0..=4 => {
                        // Ids are sparse and large, as the engine's are.
                        next_id += 1 + rng.uniform_u64(0, 3);
                        let id = FlowId(next_id + (seed % 2) * (1 << 62));
                        let (key, cap) = (rng.uniform_u64(0, 6), rng.uniform_u64(0, 6));
                        let slot = slab.insert(id, (key, cap));
                        finish.push(key, slot, &mut slab);
                        by_cap.push(!cap, slot, &mut slab);
                        finish_oracle.insert((key, id));
                        cap_oracle.insert((!cap, id));
                        live.push(id);
                    }
                    5..=7 if !live.is_empty() => {
                        let id = live.swap_remove(rng.index(live.len()));
                        let slot = slab.slot_of(id).expect("live flow has a slot");
                        let (key, cap) = *slab.get(slot);
                        assert_eq!(finish.remove(slot, &mut slab), key, "{ctx}");
                        assert_eq!(by_cap.remove(slot, &mut slab), !cap, "{ctx}");
                        assert_eq!(slab.remove(slot), (key, cap), "{ctx}");
                        assert!(finish_oracle.remove(&(key, id)), "{ctx}");
                        assert!(cap_oracle.remove(&(!cap, id)), "{ctx}");
                    }
                    8 => {
                        let top = finish.pop(&mut slab);
                        assert_eq!(
                            top.map(|e| (e.key, e.id)),
                            finish_oracle.pop_first(),
                            "{ctx}"
                        );
                        if let Some(top) = top {
                            let (_, cap) = *slab.get(top.slot);
                            by_cap.remove(top.slot, &mut slab);
                            cap_oracle.remove(&(!cap, top.id));
                            slab.remove(top.slot);
                            live.retain(|&id| id != top.id);
                        }
                    }
                    _ => {}
                }
                let rank = |e: HeapEntry| (e.key, e.id);
                assert_eq!(
                    finish.peek().map(rank),
                    finish_oracle.first().copied(),
                    "{ctx}"
                );
                assert_eq!(
                    by_cap.peek().map(rank),
                    cap_oracle.first().copied(),
                    "{ctx}"
                );
                if let Some(top) = by_cap.peek() {
                    let largest = cap_oracle.iter().map(|&(k, _)| !k).max();
                    assert_eq!(Some(!top.key), largest, "{ctx}");
                }
                assert_eq!(finish.entries.len(), finish_oracle.len(), "{ctx}");
                assert_eq!(slab.len(), live.len(), "{ctx}");
                for &id in &live {
                    let slot = slab.slot_of(id).expect("live flow has a slot");
                    assert_eq!(
                        finish.entries[slab.slots[slot as usize].positions[0] as usize].id,
                        id
                    );
                    assert_eq!(
                        by_cap.entries[slab.slots[slot as usize].positions[1] as usize].id,
                        id
                    );
                }
            }
            // Draining yields the oracle's full order.
            let drained: Vec<_> = std::iter::from_fn(|| finish.pop(&mut slab))
                .map(|e| (e.key, e.id))
                .collect();
            assert_eq!(drained, finish_oracle.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn slots_are_reused_and_ids_resolve() {
        let mut slab = FlowSlab::new();
        let a = slab.insert(FlowId(1 << 62), 'a');
        let b = slab.insert(FlowId(7), 'b');
        assert_ne!(a, b);
        assert_eq!(slab.remove(a), 'a');
        assert_eq!(slab.slot_of(FlowId(1 << 62)), None);
        let c = slab.insert(FlowId(8), 'c');
        assert_eq!(c, a, "a freed slot is reused");
        assert_eq!(*slab.get(c), 'c');
        assert_eq!(slab.slot_of(FlowId(7)), Some(b));
        assert_eq!(slab.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn duplicate_ids_are_rejected() {
        let mut slab = FlowSlab::new();
        slab.insert(FlowId(3), ());
        slab.insert(FlowId(3), ());
    }

    #[test]
    fn an_empty_heap_clones_without_capacity() {
        let mut slab = FlowSlab::new();
        let mut heap = FinishHeap::new();
        let slot = slab.insert(FlowId(1), ());
        heap.push(5, slot, &mut slab);
        heap.pop(&mut slab);
        assert_eq!(heap.clone().entries.capacity(), 0);
    }
}
