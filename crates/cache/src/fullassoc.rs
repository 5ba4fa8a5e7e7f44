//! A fully associative LRU cache with expected O(1) lookup, insert,
//! recency update and eviction.
//!
//! The paper's default SNC is fully associative (§4: "To remove conflict
//! misses as much as possible, a fully associative cache is desired").
//! With 32K entries a linear LRU scan would dominate simulation time, so
//! this implementation pairs a hashed key index with an intrusive doubly
//! linked list over a slab of nodes. Recency, eviction and flush order
//! live entirely in the list, so the index's layout never shows.
//!
//! The slab is reserved to the full capacity when the cache is built and
//! never reallocates: live nodes fill it densely from index 0, an insert
//! into a full cache rewrites the evicted LRU node in place, and a flush
//! empties it while keeping the reservation. A node is 24 bytes for the
//! SNC's 16-bit payloads (an 8-byte key and two `u32` links), so the
//! paper's 32K-entry SNC reserves 768 KB of slab at construction.

use crate::line_hash::BuildLineHasher;
use std::collections::hash_map::Entry;
use std::collections::HashMap; // lint: sorted the key index is point-queried, never iterated

/// The link that ends the recency list.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<T> {
    key: u64,
    payload: T,
    prev: u32,
    next: u32,
}

/// A key-addressed, fixed-capacity, fully associative LRU cache.
///
/// Keys are line addresses (any `u64`); the caller performs line
/// alignment. Eviction returns the least recently used `(key, payload)`.
///
/// # Examples
///
/// ```
/// use padlock_cache::FullAssocCache;
///
/// let mut snc = FullAssocCache::new(2);
/// snc.insert(0x000, 1u16);
/// snc.insert(0x080, 2u16);
/// snc.get(0x000); // refresh
/// let victim = snc.insert(0x100, 3u16).expect("capacity exceeded");
/// assert_eq!(victim, (0x080, 2));
/// ```
#[derive(Debug, Clone)]
pub struct FullAssocCache<T> {
    capacity: usize,
    // Key -> slab index, only ever point-queried: eviction and flush
    // walk the intrusive list. Keys are simulated line addresses, so the
    // fixed `LineHasher` needs no collision resistance, and its lack of
    // a seed keeps the layout and Debug output the same run to run.
    map: HashMap<u64, u32, BuildLineHasher>, // lint: sorted never iterated (see above)
    /// The live nodes, `nodes.len()` of them, reserved to `capacity`.
    nodes: Vec<Node<T>>,
    head: u32, // most recently used
    tail: u32, // least recently used
}

impl<T> FullAssocCache<T> {
    /// Creates an empty cache holding at most `capacity` entries, with
    /// its node slab and key index both reserved to that capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit a `u32` link.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            u32::try_from(capacity).is_ok_and(|c| c < NIL),
            "capacity {capacity} does not fit a u32 link"
        );
        Self {
            capacity,
            // Sized once, so filling the cache never rehashes or holds
            // an old and a new table at the same time. One spare key:
            // an insert into a full cache adds its key before it
            // removes the victim's.
            // lint: sorted never iterated (see the field)
            map: HashMap::with_capacity_and_hasher(capacity + 1, BuildLineHasher::default()),
            nodes: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
        }
    }

    /// The most entries the cache holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether the cache is at capacity.
    pub fn is_full(&self) -> bool {
        self.nodes.len() == self.capacity
    }

    fn detach(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.nodes[idx as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        let n = &mut self.nodes[idx as usize];
        n.prev = NIL;
        n.next = old_head;
        if old_head != NIL {
            self.nodes[old_head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    /// Looks up `key`, refreshing its recency.
    pub fn get(&mut self, key: u64) -> Option<&mut T> {
        let idx = self.map.get(&key).copied()?;
        self.detach(idx);
        self.push_front(idx);
        Some(&mut self.nodes[idx as usize].payload)
    }

    /// Whether `key` is resident (no recency side effects).
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Inserts or updates `key`, returning the evicted LRU entry when the
    /// cache was full and `key` was absent.
    ///
    /// The key index is probed once. A new key takes the next slab slot
    /// while the cache has room, and the LRU node's slot, rewritten in
    /// place, once it is full.
    pub fn insert(&mut self, key: u64, payload: T) -> Option<(u64, T)> {
        let idx = match self.map.entry(key) {
            Entry::Occupied(e) => {
                let idx = *e.get();
                self.nodes[idx as usize].payload = payload;
                self.detach(idx);
                self.push_front(idx);
                return None;
            }
            Entry::Vacant(e) if self.nodes.len() < self.capacity => {
                let idx = self.nodes.len() as u32;
                e.insert(idx);
                self.nodes.push(Node {
                    key,
                    payload,
                    prev: NIL,
                    next: NIL,
                });
                self.push_front(idx);
                return None;
            }
            Entry::Vacant(e) => *e.insert(self.tail),
        };
        self.detach(idx);
        let node = &mut self.nodes[idx as usize];
        let victim = (
            std::mem::replace(&mut node.key, key),
            std::mem::replace(&mut node.payload, payload),
        );
        self.map.remove(&victim.0);
        self.push_front(idx);
        Some(victim)
    }

    /// Evicts everything, returning entries in LRU-to-MRU order
    /// (models the context-switch SNC flush of the paper's §4.3). The
    /// slab keeps its reservation.
    pub fn flush(&mut self) -> Vec<(u64, T)>
    where
        T: Copy,
    {
        let mut out = Vec::with_capacity(self.len());
        let mut idx = self.tail;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            out.push((n.key, n.payload));
            idx = n.prev;
        }
        self.nodes.clear();
        self.map.clear();
        self.head = NIL;
        self.tail = NIL;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_get_hits() {
        let mut c = FullAssocCache::new(4);
        c.insert(1, "a");
        assert_eq!(c.get(1), Some(&mut "a"));
        assert_eq!(c.get(2), None);
    }

    #[test]
    fn lru_order_is_respected() {
        let mut c = FullAssocCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        c.get(1); // order now (MRU) 1,3,2 (LRU)
        let v = c.insert(4, ()).expect("eviction");
        assert_eq!(v.0, 2);
        let v = c.insert(5, ()).expect("eviction");
        assert_eq!(v.0, 3);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c = FullAssocCache::new(2);
        c.insert(1, 10u32);
        c.insert(2, 20);
        assert!(c.insert(1, 11).is_none()); // update, refresh
        let v = c.insert(3, 30).expect("eviction");
        assert_eq!(v, (2, 20));
        assert_eq!(c.get(1), Some(&mut 11));
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut c = FullAssocCache::new(8);
        for k in 0..100u64 {
            c.insert(k, k);
            assert!(c.len() <= 8);
        }
        assert!(c.is_full());
        // The survivors are the 8 most recent keys.
        for k in 92..100 {
            assert!(c.contains(k), "key {k}");
        }
    }

    #[test]
    fn remove_frees_slots_for_reuse() {
        let mut c = FullAssocCache::new(2);
        c.insert(1, "x");
        assert_eq!(c.flush(), vec![(1, "x")]);
        assert!(c.is_empty());
        assert_eq!(c.flush(), vec![]);
        c.insert(2, "y");
        c.insert(3, "z");
        assert_eq!(c.len(), 2);
        assert_eq!(c.nodes.len(), 2, "the flushed slot was reused");
        // An eviction hands its slot straight to the new key.
        assert_eq!(c.insert(4, "w"), Some((2, "y")));
        assert_eq!(c.nodes.len(), 2, "the evicted slot was reused");
        assert_eq!(c.get(4), Some(&mut "w"));
    }

    #[test]
    fn the_slab_is_reserved_once_and_never_moves() {
        // 8-byte key, 16-bit payload and two `u32` links.
        assert_eq!(std::mem::size_of::<Node<u16>>(), 24);
        let mut c = FullAssocCache::<u16>::new(1000);
        let reserved = c.nodes.capacity();
        assert!(reserved >= 1000);
        let line = |k: u64| 0x7000_0000 + k * 128;
        for round in 0..3u64 {
            let base = round * 10_000;
            for k in 0..1000 {
                assert_eq!(c.insert(line(base + k), k as u16), None);
            }
            assert!(c.is_full());
            assert_eq!(c.nodes.capacity(), reserved, "round {round} fill");
            // Churn: every new key evicts, and every other step re-inserts
            // a resident key, which refreshes it without evicting.
            for k in 1000..5000 {
                assert!(c.insert(line(base + k), k as u16).is_some());
                if k % 2 == 0 {
                    assert_eq!(c.insert(line(base + k - 300), 7), None);
                }
                assert_eq!(c.len(), 1000);
                assert_eq!(c.nodes.capacity(), reserved, "round {round} churn {k}");
            }
            let flushed = c.flush();
            assert_eq!(flushed.len(), 1000);
            assert_eq!(flushed.last().map(|e| e.0), Some(line(base + 4999)));
            assert!(c.is_empty());
            assert_eq!(c.nodes.capacity(), reserved, "round {round} flush");
        }
    }

    #[test]
    fn flush_drains_in_lru_order() {
        let mut c = FullAssocCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        c.get(1);
        let drained = c.flush();
        let keys: Vec<u64> = drained.iter().map(|e| e.0).collect();
        assert_eq!(keys, vec![2, 3, 1]);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _: FullAssocCache<()> = FullAssocCache::new(0);
    }

    /// Runs 10,000 seeded random inserts, gets and probes over `keys`
    /// distinct keys (`key_of(0..keys)`) against a naive model, a
    /// recency-ordered `Vec`, then checks the flush order.
    fn check_against_model(capacity: usize, keys: u64, key_of: impl Fn(u64) -> u64) {
        let mut c = FullAssocCache::new(capacity);
        let mut model: Vec<(u64, u32)> = Vec::new(); // MRU at end
        let mut state = 0x1234_5678u64;
        let mut rnd = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10_000 {
            let key = key_of(rnd() % keys);
            match rnd() % 3 {
                0 => {
                    let val = (rnd() % 1000) as u32;
                    let evicted = c.insert(key, val);
                    if let Some(pos) = model.iter().position(|(k, _)| *k == key) {
                        model.remove(pos);
                        assert!(evicted.is_none());
                    } else if model.len() == capacity {
                        let lru = model.remove(0);
                        assert_eq!(evicted.expect("model evicts"), lru);
                    } else {
                        assert!(evicted.is_none());
                    }
                    model.push((key, val));
                }
                1 => {
                    let got = c.get(key).map(|v| *v);
                    let expect = model.iter().position(|(k, _)| *k == key);
                    match (got, expect) {
                        (Some(v), Some(pos)) => {
                            assert_eq!(v, model[pos].1);
                            let e = model.remove(pos);
                            model.push(e);
                        }
                        (None, None) => {}
                        other => panic!("divergence: {other:?}"),
                    }
                }
                _ => {
                    let expect = model.iter().any(|(k, _)| *k == key);
                    assert_eq!(c.contains(key), expect, "contains {key:#x}");
                }
            }
            assert_eq!(c.len(), model.len());
        }
        // Flush empties in LRU-to-MRU order, which the model keeps.
        assert_eq!(c.flush(), model);
    }

    #[test]
    fn stress_random_ops_maintain_invariants() {
        check_against_model(16, 40, |k| k);
    }

    #[test]
    fn stress_random_ops_on_line_address_keys() {
        // 128-byte-line addresses as the SNC sees them: seven zero low
        // bits, and in the second case the secure server's base for
        // compartment 3 (bit 40 and up).
        check_against_model(64, 160, |k| 0x7000_0000 + k * 128);
        check_against_model(64, 160, |k| (3 << 40) + k * 128);
    }
}
