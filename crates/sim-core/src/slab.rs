//! Slot-addressed arenas with an intrusive free list.
//!
//! * [`SoaSlab`] is the event queue's payload arena: the indexed queue
//!   (see [`crate::EventQueue`]) keeps only small `(time, seq, slot)` keys
//!   in its heap array, and the payloads are parked here, addressed by
//!   slot.
//! * [`GenSlab`] is the generational state table for long-lived entities
//!   (the GPU simulator's grids).
//!
//! In both, a free list threaded through the vacant entries makes
//! insert/remove O(1) with no per-event allocation once the slab has
//! grown to its high-water mark.

/// A slot entry: either a parked payload or a link in the free list.
#[derive(Debug, Clone)]
enum Entry<T> {
    /// A live payload.
    Occupied(T),
    /// A vacant slot; holds the index of the next free slot (`u32::MAX`
    /// terminates the list).
    Vacant(u32),
}

/// Sentinel terminating the free list.
const NIL: u32 = u32::MAX;

/// A slot entry of a [`GenSlab`]: payload-or-free-link plus the slot's
/// current generation.
#[derive(Debug, Clone)]
struct GenEntry<T> {
    /// Incremented on every removal, so stale keys miss.
    generation: u32,
    state: Entry<T>,
}

/// A generational slab: `insert` returns a key that carries the slot's
/// generation, so a key kept across a remove-and-reuse cycle reads as
/// *absent* instead of aliasing the slot's new occupant.
///
/// This is the state-table flavour of the slab: long-lived entities (the
/// GPU simulator's grids) hand out their keys to an embedding world that
/// may legitimately hold on to them past retirement — exactly the lookup
/// pattern `HashMap<Id, T>` gives, at array-index cost. Slots are recycled
/// in LIFO order, so id assignment is deterministic.
///
/// # Example
///
/// ```
/// use flep_sim_core::GenSlab;
/// let mut slab = GenSlab::new();
/// let a = slab.insert("first");
/// assert_eq!(slab.get(a), Some(&"first"));
/// assert_eq!(slab.remove(a), Some("first"));
/// let b = slab.insert("second"); // reuses the slot...
/// assert_ne!(a, b);              // ...under a fresh generation
/// assert_eq!(slab.get(a), None, "stale key must not alias");
/// ```
#[derive(Debug, Clone, Default)]
pub struct GenSlab<T> {
    entries: Vec<GenEntry<T>>,
    free_head: u32,
    len: usize,
}

impl<T> GenSlab<T> {
    /// Creates an empty slab.
    #[must_use]
    pub fn new() -> Self {
        GenSlab {
            entries: Vec::new(),
            free_head: NIL,
            len: 0,
        }
    }

    /// Packs a slot and generation into a key.
    fn key(slot: u32, generation: u32) -> u64 {
        (u64::from(generation) << 32) | u64::from(slot)
    }

    /// Splits a key into `(slot, generation)`.
    fn unpack(key: u64) -> (u32, u32) {
        (key as u32, (key >> 32) as u32)
    }

    /// Parks `value` and returns its key.
    ///
    /// # Panics
    ///
    /// Panics if the slab would exceed `u32::MAX - 1` slots.
    pub fn insert(&mut self, value: T) -> u64 {
        self.len += 1;
        if self.free_head != NIL {
            let slot = self.free_head;
            let entry = &mut self.entries[slot as usize];
            match entry.state {
                Entry::Vacant(next) => self.free_head = next,
                Entry::Occupied(_) => unreachable!("free list points at an occupied slot"),
            }
            entry.state = Entry::Occupied(value);
            Self::key(slot, entry.generation)
        } else {
            let slot = u32::try_from(self.entries.len()).expect("slab overflow");
            assert!(slot != NIL, "slab overflow");
            self.entries.push(GenEntry {
                generation: 0,
                state: Entry::Occupied(value),
            });
            Self::key(slot, 0)
        }
    }

    /// Removes and returns the payload at `key`, or `None` when the key is
    /// stale (already removed) or was never issued.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let (slot, generation) = Self::unpack(key);
        let entry = self.entries.get_mut(slot as usize)?;
        if entry.generation != generation || !matches!(entry.state, Entry::Occupied(_)) {
            return None;
        }
        let state = std::mem::replace(&mut entry.state, Entry::Vacant(self.free_head));
        entry.generation = entry.generation.wrapping_add(1);
        self.free_head = slot;
        self.len -= 1;
        match state {
            Entry::Occupied(value) => Some(value),
            Entry::Vacant(_) => unreachable!("checked occupied above"),
        }
    }

    /// The payload at `key`, or `None` for stale/foreign keys.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<&T> {
        let (slot, generation) = Self::unpack(key);
        match self.entries.get(slot as usize) {
            Some(GenEntry {
                generation: g,
                state: Entry::Occupied(value),
            }) if *g == generation => Some(value),
            _ => None,
        }
    }

    /// Mutable access to the payload at `key`, or `None` for stale keys.
    #[must_use]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let (slot, generation) = Self::unpack(key);
        match self.entries.get_mut(slot as usize) {
            Some(GenEntry {
                generation: g,
                state: Entry::Occupied(value),
            }) if *g == generation => Some(value),
            _ => None,
        }
    }

    /// Iterates the occupied entries in slot order as `(key, &T)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.entries.iter().enumerate().filter_map(|(i, e)| {
            if let Entry::Occupied(value) = &e.state {
                Some((Self::key(i as u32, e.generation), value))
            } else {
                None
            }
        })
    }

    /// Number of occupied slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slots are occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Per-slot marker in a [`SoaSlab`]'s packed metadata array: the slot is
/// occupied (its payload lives in the cold array).
const OCCUPIED: u32 = u32::MAX - 1;

/// A structure-of-arrays slab: the event queue's payload arena.
///
/// An array of `payload-or-free-link` enums would make every free-list
/// hop stride over a payload-sized entry — for a fat event enum, a cache
/// line (or more) per hop. `SoaSlab` splits the two planes instead: the
/// *hot* per-slot metadata (free-list link or the
/// [`OCCUPIED`] marker) lives in a packed parallel `u32` array that
/// allocation traffic touches exclusively, and the *cold* payloads sit
/// out-of-line in their own array, touched exactly twice per event (the
/// write at push, the move-out at pop).
///
/// `insert` returns a `u32` slot valid until `remove`, slots recycle in
/// LIFO order (steady-state churn touches the same few metadata words
/// over and over), and removing a vacant slot panics — the queue's
/// corruption tripwire.
#[derive(Debug, Clone)]
pub(crate) struct SoaSlab<T> {
    /// Hot plane: per-slot free-list link, or [`OCCUPIED`].
    meta: Vec<u32>,
    /// Cold plane: the payloads, parallel to `meta`. `None` iff vacant.
    vals: Vec<Option<T>>,
    /// Head of the free list, or [`NIL`].
    free_head: u32,
    /// Number of occupied slots.
    len: usize,
}

impl<T> SoaSlab<T> {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        SoaSlab {
            meta: Vec::new(),
            vals: Vec::new(),
            free_head: NIL,
            len: 0,
        }
    }

    /// Parks `value` and returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed `u32::MAX - 2` slots (the event
    /// queue never holds that many pending events).
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if self.free_head != NIL {
            let slot = self.free_head;
            self.free_head = self.meta[slot as usize];
            self.meta[slot as usize] = OCCUPIED;
            self.vals[slot as usize] = Some(value);
            slot
        } else {
            let slot = u32::try_from(self.meta.len()).expect("slab overflow");
            assert!(slot < OCCUPIED, "slab overflow");
            self.meta.push(OCCUPIED);
            self.vals.push(Some(value));
            slot
        }
    }

    /// Removes and returns the payload parked at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is vacant or out of bounds — slots come only from
    /// [`SoaSlab::insert`], so this indicates queue corruption.
    pub fn remove(&mut self, slot: u32) -> T {
        assert!(
            self.meta.get(slot as usize) == Some(&OCCUPIED),
            "slab: remove of vacant slot {slot}"
        );
        self.meta[slot as usize] = self.free_head;
        self.free_head = slot;
        self.len -= 1;
        self.vals[slot as usize]
            .take()
            .expect("occupied slot holds a payload")
    }

    /// Number of occupied slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slots are occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every payload and resets the free list; capacity is kept.
    pub fn clear(&mut self) {
        self.meta.clear();
        self.vals.clear();
        self.free_head = NIL;
        self.len = 0;
    }
}

impl<T> Default for SoaSlab<T> {
    fn default() -> Self {
        SoaSlab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_slab_roundtrip_and_iteration() {
        let mut slab = GenSlab::new();
        let a = slab.insert(10);
        let b = slab.insert(20);
        let c = slab.insert(30);
        assert_eq!(slab.len(), 3);
        assert_eq!(slab.get(b), Some(&20));
        *slab.get_mut(b).unwrap() += 1;
        assert_eq!(
            slab.iter().map(|(_, &v)| v).collect::<Vec<_>>(),
            vec![10, 21, 30]
        );
        assert_eq!(slab.remove(b), Some(21));
        assert_eq!(
            slab.iter().map(|(_, &v)| v).collect::<Vec<_>>(),
            vec![10, 30]
        );
        assert_eq!(slab.remove(a), Some(10));
        assert_eq!(slab.remove(c), Some(30));
        assert!(slab.is_empty());
    }

    #[test]
    fn gen_slab_stale_keys_miss_after_reuse() {
        let mut slab = GenSlab::new();
        let a = slab.insert('a');
        assert_eq!(slab.remove(a), Some('a'));
        let b = slab.insert('b');
        // Same slot, new generation: the stale key must not alias.
        assert_eq!(a as u32, b as u32, "slot is recycled LIFO");
        assert_ne!(a, b);
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.get_mut(a), None);
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.get(b), Some(&'b'));
    }

    /// The generation counter is 32-bit and wraps: removing at generation
    /// `u32::MAX` recycles the slot at generation 0. A key from the
    /// wrapped (pre-wrap) generation still misses; the documented caveat
    /// is that a key from exactly 2^32 cycles ago becomes bit-identical
    /// to the fresh key (the ABA horizon of the scheme).
    #[test]
    fn gen_slab_stale_keys_miss_at_generation_wraparound() {
        let mut slab = GenSlab::new();
        let k0 = slab.insert("first");
        let (slot, g0) = GenSlab::<&str>::unpack(k0);
        assert_eq!(g0, 0);
        // Fast-forward the slot to the final generation, as if 2^32 - 1
        // remove/insert cycles had happened.
        slab.entries[slot as usize].generation = u32::MAX;
        let k_max = GenSlab::<&str>::key(slot, u32::MAX);
        assert_eq!(slab.get(k0), None, "pre-fast-forward key must be stale");
        assert_eq!(slab.get(k_max), Some(&"first"));
        // Removing at u32::MAX wraps the slot's generation to 0...
        assert_eq!(slab.remove(k_max), Some("first"));
        assert_eq!(slab.remove(k_max), None, "double remove must miss");
        assert_eq!(slab.get(k_max), None);
        // ...so the recycled slot re-issues generation 0: the new key is
        // bit-identical to the original, and the last pre-wrap key still
        // misses.
        let k_new = slab.insert("second");
        assert_eq!(k_new, k0, "wraparound re-issues the generation-0 key");
        assert_eq!(slab.get(k_max), None, "wrapped-generation key aliased");
        assert_eq!(slab.remove(k_max), None);
        assert_eq!(slab.get(k_new), Some(&"second"));
    }

    #[test]
    fn soa_slab_recycles_slots_lifo() {
        let mut slab = SoaSlab::new();
        let a = slab.insert("first");
        let b = slab.insert("second");
        assert_eq!(slab.remove(a), "first");
        // Slot `a` is recycled by the next insert.
        assert_eq!(slab.insert("third"), a);
        assert_eq!(slab.remove(b), "second");
    }
}
