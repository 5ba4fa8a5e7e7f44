//! A fully associative LRU cache with expected O(1) lookup, insert,
//! recency update and eviction.
//!
//! The paper's default SNC is fully associative (§4: "To remove conflict
//! misses as much as possible, a fully associative cache is desired").
//! With 32K entries a linear LRU scan would dominate simulation time, so
//! this implementation pairs a hashed key index with an intrusive doubly
//! linked list over a slab of nodes. Recency, eviction and flush order
//! live entirely in the list, so the index's layout never shows.

use crate::line_hash::BuildLineHasher;
use std::collections::HashMap; // lint: sorted the key index is point-queried, never iterated

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<T> {
    key: u64,
    payload: T,
    prev: usize,
    next: usize,
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
    map: HashMap<u64, usize, BuildLineHasher>, // lint: sorted never iterated (see above)
    /// Slab of nodes; `None` marks a slot on the free list.
    nodes: Vec<Option<Node<T>>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl<T> FullAssocCache<T> {
    /// Creates an empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            // Sized once, so filling the cache never rehashes or holds
            // an old and a new table at the same time.
            // lint: sorted never iterated (see the field)
            map: HashMap::with_capacity_and_hasher(capacity, BuildLineHasher::default()),
            nodes: Vec::new(),
            free: Vec::new(),
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
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether the cache is at capacity.
    pub fn is_full(&self) -> bool {
        self.map.len() == self.capacity
    }

    fn node(&self, idx: usize) -> &Node<T> {
        self.nodes[idx].as_ref().expect("live node")
    }

    fn node_mut(&mut self, idx: usize) -> &mut Node<T> {
        self.nodes[idx].as_mut().expect("live node")
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = {
            let n = self.node(idx);
            (n.prev, n.next)
        };
        if prev != NIL {
            self.node_mut(prev).next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.node_mut(next).prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let n = self.node_mut(idx);
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.node_mut(old_head).prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, refreshing its recency.
    pub fn get(&mut self, key: u64) -> Option<&mut T> {
        let idx = self.map.get(&key).copied()?;
        self.detach(idx);
        self.push_front(idx);
        Some(&mut self.node_mut(idx).payload)
    }

    /// Whether `key` is resident (no recency side effects).
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Inserts or updates `key`, returning the evicted LRU entry when the
    /// cache was full and `key` was absent.
    pub fn insert(&mut self, key: u64, payload: T) -> Option<(u64, T)> {
        if let Some(&idx) = self.map.get(&key) {
            self.node_mut(idx).payload = payload;
            self.detach(idx);
            self.push_front(idx);
            return None;
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            evicted = self.evict_lru();
        }
        let node = Node {
            key,
            payload,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = Some(node);
                i
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Evicts the least recently used entry, if any.
    fn evict_lru(&mut self) -> Option<(u64, T)> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        self.detach(idx);
        let node = self.nodes[idx].take().expect("live node");
        self.map.remove(&node.key);
        self.free.push(idx);
        Some((node.key, node.payload))
    }

    /// Evicts everything, returning entries in LRU-to-MRU order
    /// (models the context-switch SNC flush of the paper's §4.3).
    pub fn flush(&mut self) -> Vec<(u64, T)> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(entry) = self.evict_lru() {
            out.push(entry);
        }
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
        assert_eq!(c.evict_lru(), Some((1, "x")));
        assert!(c.is_empty());
        assert_eq!(c.evict_lru(), None);
        c.insert(2, "y");
        c.insert(3, "z");
        assert_eq!(c.len(), 2);
        assert_eq!(c.nodes.len(), 2, "the freed slot was reused");
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
