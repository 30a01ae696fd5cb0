//! The deterministic event queue.
//!
//! [`EventQueue`] orders small packed `(time, seq, slot)` keys in an
//! *indexed 4-ary heap* ([`HeapCore`]): the heap array holds only 16-byte
//! keys, and pops use Floyd's bottom-up sift-down with a branchless
//! min-of-4 tournament. Dispatch order is exact `(time, seq)` FIFO — a
//! pure function of the push sequence — which is what keeps every golden
//! trace bit-identical.
//!
//! Payloads never enter the heap: they are parked in a [`SoaSlab`] arena
//! (hot slot metadata packed in a parallel array, cold payloads
//! out-of-line) and addressed by the slot bits of the packed key, so the
//! sift hot paths move small `Copy` keys instead of full
//! `GpuEvent`/`SystemEvent` payloads.

use std::cmp::Ordering;

use crate::slab::SoaSlab;
use crate::SimTime;

/// One scheduled event: a timestamp, a tie-breaking sequence number, and the
/// user payload.
///
/// Entries compare so that the *earliest* time pops first and, among equal
/// times, the *first-scheduled* event pops first. This FIFO tie-break is what
/// makes the simulation deterministic independent of queue internals.
#[derive(Debug, Clone)]
pub struct EventEntry<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotonic insertion index, used as the tie-breaker.
    pub seq: u64,
    /// The payload handed to the world.
    pub payload: E,
}

impl<E> PartialEq for EventEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for EventEntry<E> {}

impl<E> PartialOrd for EventEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for EventEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap convention (as `BinaryHeap` expects); invert so the
        // earliest (time, seq) wins.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Bits of the packed key word reserved for the slab slot; the remaining
/// 40 high bits hold the sequence number.
const SLOT_BITS: u32 = 24;
/// Mask extracting the slot from the packed word.
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// The key circulating through the heap: everything ordering needs, plus
/// the payload's arena slot, packed into one `u128` — the timestamp in
/// the high 64 bits, `seq << SLOT_BITS | slot` in the low 64. 16 bytes
/// and `Copy`, so a 4-child heap group spans one 64-byte cache line; and
/// because the `(time, seq)` lexicographic
/// order coincides with plain integer order on the packed word,
/// [`PackedKey::before`] is a single flat `u128` compare — no
/// short-circuit branch for the hot loops to mispredict.
///
/// Sequence numbers are unique, so ranking by the low word ranks exactly
/// by `seq` — the slot bits can never tip a comparison. The packing caps
/// a queue at 2^40 events pushed over its lifetime (40× the runtime's
/// entire event budget) and 2^24 simultaneously pending events (more
/// payloads than fit in memory); both are asserted in
/// [`EventQueue::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedKey(u128);

impl PackedKey {
    #[inline]
    pub(crate) fn new(time: SimTime, seq: u64, slot: u32) -> Self {
        PackedKey(u128::from(time.as_ns()) << 64 | u128::from(seq << SLOT_BITS | u64::from(slot)))
    }

    /// Min order: earliest time first, FIFO within a timestamp.
    #[inline]
    #[must_use]
    pub fn before(&self, other: &PackedKey) -> bool {
        self.0 < other.0
    }

    /// The event's timestamp.
    #[inline]
    #[must_use]
    pub fn time(self) -> SimTime {
        SimTime::from_ns((self.0 >> 64) as u64)
    }

    /// The tie-breaking sequence number.
    #[inline]
    #[must_use]
    pub fn seq(self) -> u64 {
        (self.0 as u64) >> SLOT_BITS
    }

    /// The payload's arena slot.
    #[inline]
    #[must_use]
    pub fn slot(self) -> u32 {
        (self.0 as u64 & SLOT_MASK) as u32
    }
}

/// The branching factor. Quaternary is the sweet spot for small keys:
/// half the depth of a binary heap (fewer cache-missing levels on the
/// sift path) while the 4-child comparison still fits in one cache line.
const ARITY: usize = 4;

/// An indexed 4-ary min-heap of [`PackedKey`]s with *exact* `(time, seq)`
/// ordering: [`HeapCore::pop_min`] returns keys in strictly increasing
/// `u128` order among those pending.
#[derive(Debug, Clone, Default)]
pub(crate) struct HeapCore {
    /// The 4-ary min-heap of keys.
    heap: Vec<PackedKey>,
}

impl HeapCore {
    /// Creates an empty heap.
    #[must_use]
    pub fn new() -> Self {
        HeapCore { heap: Vec::new() }
    }

    /// Inserts a key.
    pub fn push_key(&mut self, key: PackedKey) {
        self.heap.push(key);
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the minimum key, if any.
    pub fn pop_min(&mut self) -> Option<PackedKey> {
        let head = *self.heap.first()?;
        let last = self.heap.pop().expect("heap is non-empty");
        if !self.heap.is_empty() {
            self.sift_down_from_root(last);
        }
        Some(head)
    }

    /// The minimum key without removing it.
    #[must_use]
    pub fn min_key(&self) -> Option<PackedKey> {
        self.heap.first().copied()
    }

    /// Drops all pending keys, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Restores the heap property upward from `idx` after a push.
    fn sift_up(&mut self, mut idx: usize) {
        let key = self.heap[idx];
        while idx > 0 {
            let parent = (idx - 1) / ARITY;
            if !key.before(&self.heap[parent]) {
                break;
            }
            self.heap[idx] = self.heap[parent];
            idx = parent;
        }
        self.heap[idx] = key;
    }

    /// Re-inserts `key` (the displaced last leaf) at the root after a pop,
    /// restoring the heap property.
    ///
    /// Uses Floyd's bottom-up variant (the same trick `std::BinaryHeap`
    /// plays): walk a hole from the root to a leaf choosing the smallest
    /// child at each level *without* comparing against `key`, then bubble
    /// `key` back up from the leaf. `key` came from the bottom of the
    /// heap, so it almost always belongs near the bottom — the bubble-up
    /// is typically zero or one comparison, and the walk down saves one
    /// comparison-and-branch per level over the textbook top-down sift.
    fn sift_down_from_root(&mut self, key: PackedKey) {
        let len = self.heap.len();
        let mut idx = 0;
        loop {
            let first_child = idx * ARITY + 1;
            if first_child + ARITY <= len {
                // Full fan-out (every level but the last): an unrolled
                // min-of-4 tournament over flat u128 keys, which the
                // backend lowers to data-independent selects instead of
                // four unpredictable branches.
                let (k0, k1) = (self.heap[first_child], self.heap[first_child + 1]);
                let (k2, k3) = (self.heap[first_child + 2], self.heap[first_child + 3]);
                let (i01, k01) = if k1.before(&k0) {
                    (first_child + 1, k1)
                } else {
                    (first_child, k0)
                };
                let (i23, k23) = if k3.before(&k2) {
                    (first_child + 3, k3)
                } else {
                    (first_child + 2, k2)
                };
                let (best, best_key) = if k23.before(&k01) {
                    (i23, k23)
                } else {
                    (i01, k01)
                };
                self.heap[idx] = best_key;
                idx = best;
            } else if first_child < len {
                // Ragged last level: at most three children.
                let mut best = first_child;
                for child in first_child + 1..len {
                    if self.heap[child].before(&self.heap[best]) {
                        best = child;
                    }
                }
                self.heap[idx] = self.heap[best];
                idx = best;
            } else {
                break;
            }
        }
        self.heap[idx] = key;
        self.sift_up(idx);
    }
}

/// A priority queue of timestamped events with deterministic FIFO
/// tie-breaking.
///
/// # Example
///
/// ```
/// use flep_sim_core::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_us(2), "late");
/// q.push(SimTime::from_us(1), "early");
/// q.push(SimTime::from_us(1), "early-second");
/// assert_eq!(q.pop().unwrap().payload, "early");
/// assert_eq!(q.pop().unwrap().payload, "early-second");
/// assert_eq!(q.pop().unwrap().payload, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Pending keys in `(time, seq)` order.
    keys: HeapCore,
    /// Parked payloads, addressed by [`PackedKey::slot`].
    payloads: SoaSlab<E>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            keys: HeapCore::new(),
            payloads: SoaSlab::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at absolute time `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.payloads.insert(payload);
        debug_assert!(seq < 1 << (64 - SLOT_BITS), "event queue seq overflow");
        debug_assert!(u64::from(slot) <= SLOT_MASK, "event queue slot overflow");
        self.keys.push_key(PackedKey::new(time, seq, slot));
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        let key = self.keys.pop_min()?;
        Some(EventEntry {
            time: key.time(),
            seq: key.seq(),
            payload: self.payloads.remove(key.slot()),
        })
    }

    /// Removes and returns the earliest event only if it fires strictly
    /// before `bound`; leaves the queue untouched otherwise.
    ///
    /// The epoch driver in `flep-runtime` drains each device stream up to
    /// (but not including) the next cross-device interaction timestamp
    /// with this.
    pub fn pop_before(&mut self, bound: SimTime) -> Option<EventEntry<E>> {
        if self.peek_time()? < bound {
            self.pop()
        } else {
            None
        }
    }

    /// The timestamp of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.keys.min_key().map(PackedKey::time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Drops all pending events, keeping the sequence counter (so ordering
    /// guarantees still hold across a clear).
    pub fn clear(&mut self) {
        self.keys.clear();
        self.payloads.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(5), 0);
        q.push(SimTime::from_us(1), 1);
        q.push(SimTime::from_us(5), 2);
        q.push(SimTime::from_us(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
    }

    #[test]
    fn peek_time_tracks_head() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_us(9), ());
        q.push(SimTime::from_us(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_us(4)));
    }

    #[test]
    fn clear_preserves_seq_monotonicity() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 'a');
        q.clear();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 'b');
        assert_eq!(q.pop().unwrap().seq, 1);
    }

    #[test]
    fn len_counts() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn keys_stay_small() {
        // The whole point of the key/payload split: the heap must move
        // 16-byte keys however large the payload type grows, so a 4-child
        // heap group spans exactly one 64-byte cache line.
        assert_eq!(std::mem::size_of::<PackedKey>(), 16);
    }

    #[test]
    fn packed_key_roundtrips_fields() {
        let k = PackedKey::new(SimTime::from_ns(7), 123_456, 789);
        assert_eq!(k.time(), SimTime::from_ns(7));
        assert_eq!(k.seq(), 123_456);
        assert_eq!(k.slot(), 789);
    }

    #[test]
    fn packed_key_order_matches_time_seq_order() {
        // Integer order on the packed word must coincide with (time, seq)
        // lexicographic order, whatever the slot bits say.
        let a = PackedKey::new(SimTime::from_ns(5), 9, SLOT_MASK as u32);
        let b = PackedKey::new(SimTime::from_ns(5), 10, 0);
        let c = PackedKey::new(SimTime::from_ns(6), 0, 0);
        assert!(a.before(&b) && b.before(&c) && a.before(&c));
        assert!(!b.before(&a) && !c.before(&b));
    }

    #[test]
    fn heap_property_survives_interleaved_churn() {
        // Deterministic push/pop interleaving exercising slot recycling.
        let mut q = EventQueue::new();
        let mut popped = Vec::new();
        for round in 0u64..50 {
            for i in 0..8 {
                q.push(SimTime::from_ns((round * 37 + i * 13) % 101), (round, i));
            }
            for _ in 0..6 {
                popped.push(q.pop().unwrap());
            }
        }
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        assert_eq!(popped.len(), 400);
        // Within each drain the times must be nondecreasing; across the
        // whole run every (time, seq) pair must be unique and seq-ordered
        // within a timestamp.
        for w in popped.windows(2) {
            if w[0].time == w[1].time {
                assert!(w[0].seq != w[1].seq);
            }
        }
    }
}
