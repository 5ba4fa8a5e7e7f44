//! A fully associative LRU cache with O(1) lookup/insert/evict.
//!
//! The paper's default SNC is fully associative (§4: "To remove conflict
//! misses as much as possible, a fully associative cache is desired").
//! With 32K entries a linear LRU scan would dominate simulation time, so
//! this implementation pairs an ordered key map with an intrusive doubly
//! linked list over a slab of nodes.

use crate::stats::CacheStats;
use padlock_stats::CounterSet;
use std::collections::BTreeMap;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<T> {
    key: u64,
    payload: T,
    dirty: bool,
    prev: usize,
    next: usize,
}

/// An entry evicted from a [`FullAssocCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullAssocEvicted<T> {
    /// The evicted key (line address).
    pub addr: u64,
    /// Whether the entry was dirty.
    pub dirty: bool,
    /// The evicted payload.
    pub payload: T,
}

/// A key-addressed, fixed-capacity, fully associative LRU cache.
///
/// Keys are line addresses (any `u64`); the caller performs line
/// alignment. Eviction returns the least recently used entry.
///
/// # Examples
///
/// ```
/// use padlock_cache::FullAssocCache;
///
/// let mut snc = FullAssocCache::new("SNC", 2);
/// snc.insert(0x000, 1u16, false);
/// snc.insert(0x080, 2u16, false);
/// snc.get(0x000); // refresh
/// let victim = snc.insert(0x100, 3u16, false).expect("capacity exceeded");
/// assert_eq!(victim.addr, 0x080);
/// ```
#[derive(Debug, Clone)]
pub struct FullAssocCache<T> {
    capacity: usize,
    // BTreeMap, not HashMap (padlock-lint D1): recency lives in the
    // intrusive list, so the map is only ever point-queried — but a
    // deterministic structure keeps every future iteration safe and
    // Debug output stable across runs.
    map: BTreeMap<u64, usize>,
    /// Slab of nodes; `None` marks a slot on the free list.
    nodes: Vec<Option<Node<T>>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    name: String,
    stats: CacheStats,
}

impl<T> FullAssocCache<T> {
    /// Creates an empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            map: BTreeMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            name: name.into(),
            stats: CacheStats::default(),
        }
    }

    /// Maximum number of entries.
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

    /// Accumulated statistics rendered as a counter set: `hits`,
    /// `misses`, `evictions`, `writebacks`. The hot path bumps the
    /// fixed-slot [`CacheStats`] fields; this snapshot is built on
    /// demand.
    pub fn stats(&self) -> CounterSet {
        self.stats.to_counters(&self.name)
    }

    /// The fixed-slot statistics fields themselves.
    pub fn raw_stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics, keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
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

    /// Looks up `key`, refreshing its recency. Counts a hit or miss.
    pub fn get(&mut self, key: u64) -> Option<&mut T> {
        match self.map.get(&key).copied() {
            Some(idx) => {
                self.stats.hits += 1;
                self.detach(idx);
                self.push_front(idx);
                Some(&mut self.node_mut(idx).payload)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks up `key` without touching recency or stats.
    pub fn peek(&self, key: u64) -> Option<&T> {
        self.map.get(&key).map(|&idx| &self.node(idx).payload)
    }

    /// Whether `key` is resident (no recency/stats side effects).
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Marks `key` dirty if resident; returns whether it was found.
    pub fn mark_dirty(&mut self, key: u64) -> bool {
        if let Some(&idx) = self.map.get(&key) {
            self.node_mut(idx).dirty = true;
            true
        } else {
            false
        }
    }

    /// Inserts or updates `key`, returning the evicted LRU entry when the
    /// cache was full and `key` was absent.
    pub fn insert(&mut self, key: u64, payload: T, dirty: bool) -> Option<FullAssocEvicted<T>> {
        if let Some(&idx) = self.map.get(&key) {
            let n = self.node_mut(idx);
            n.payload = payload;
            n.dirty |= dirty;
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
            dirty,
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
    pub fn evict_lru(&mut self) -> Option<FullAssocEvicted<T>> {
        if self.tail == NIL {
            return None;
        }
        let key = self.node(self.tail).key;
        self.remove(key)
    }

    /// Removes `key`, returning its entry.
    pub fn remove(&mut self, key: u64) -> Option<FullAssocEvicted<T>> {
        let idx = self.map.remove(&key)?;
        self.detach(idx);
        let node = self.nodes[idx].take().expect("live node");
        self.free.push(idx);
        self.stats.evictions += 1;
        if node.dirty {
            self.stats.writebacks += 1;
        }
        Some(FullAssocEvicted {
            addr: node.key,
            dirty: node.dirty,
            payload: node.payload,
        })
    }

    /// Evicts everything, returning entries in LRU-to-MRU order
    /// (models the context-switch SNC flush of the paper's §4.3).
    pub fn flush(&mut self) -> Vec<FullAssocEvicted<T>> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(entry) = self.evict_lru() {
            out.push(entry);
        }
        out
    }

    /// Iterates over `(key, payload)` pairs in MRU-to-LRU order.
    pub fn iter(&self) -> FullAssocIter<'_, T> {
        FullAssocIter {
            cache: self,
            cursor: self.head,
        }
    }
}

/// Iterator over a [`FullAssocCache`] in MRU-to-LRU order.
#[derive(Debug)]
pub struct FullAssocIter<'a, T> {
    cache: &'a FullAssocCache<T>,
    cursor: usize,
}

impl<'a, T> Iterator for FullAssocIter<'a, T> {
    type Item = (u64, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let node = self.cache.node(self.cursor);
        self.cursor = node.next;
        Some((node.key, &node.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_get_hits() {
        let mut c = FullAssocCache::new("snc", 4);
        c.insert(1, "a", false);
        assert_eq!(c.get(1), Some(&mut "a"));
        assert_eq!(c.stats().get("hits"), 1);
        assert_eq!(c.get(2), None);
        assert_eq!(c.stats().get("misses"), 1);
    }

    #[test]
    fn lru_order_is_respected() {
        let mut c = FullAssocCache::new("snc", 3);
        c.insert(1, (), false);
        c.insert(2, (), false);
        c.insert(3, (), false);
        c.get(1); // order now (MRU) 1,3,2 (LRU)
        let v = c.insert(4, (), false).expect("eviction");
        assert_eq!(v.addr, 2);
        let v = c.insert(5, (), false).expect("eviction");
        assert_eq!(v.addr, 3);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c = FullAssocCache::new("snc", 2);
        c.insert(1, 10u32, false);
        c.insert(2, 20, false);
        assert!(c.insert(1, 11, false).is_none()); // update, refresh
        let v = c.insert(3, 30, false).expect("eviction");
        assert_eq!(v.addr, 2);
        assert_eq!(c.peek(1), Some(&11));
    }

    #[test]
    fn dirty_entries_report_writebacks() {
        let mut c = FullAssocCache::new("snc", 1);
        c.insert(1, (), true);
        let v = c.insert(2, (), false).expect("eviction");
        assert!(v.dirty);
        assert_eq!(c.stats().get("writebacks"), 1);
    }

    #[test]
    fn mark_dirty_after_insert() {
        let mut c = FullAssocCache::new("snc", 2);
        c.insert(1, (), false);
        assert!(c.mark_dirty(1));
        assert!(!c.mark_dirty(9));
        let v = c.remove(1).unwrap();
        assert!(v.dirty);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut c = FullAssocCache::new("snc", 8);
        for k in 0..100u64 {
            c.insert(k, k, false);
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
        let mut c = FullAssocCache::new("snc", 2);
        c.insert(1, "x", false);
        assert_eq!(c.remove(1).unwrap().payload, "x");
        assert!(c.is_empty());
        c.insert(2, "y", false);
        c.insert(3, "z", false);
        assert_eq!(c.len(), 2);
        assert!(c.remove(99).is_none());
    }

    #[test]
    fn flush_drains_in_lru_order() {
        let mut c = FullAssocCache::new("snc", 3);
        c.insert(1, (), false);
        c.insert(2, (), true);
        c.insert(3, (), false);
        c.get(1);
        let drained = c.flush();
        let keys: Vec<u64> = drained.iter().map(|e| e.addr).collect();
        assert_eq!(keys, vec![2, 3, 1]);
        assert!(c.is_empty());
    }

    #[test]
    fn iter_walks_mru_to_lru() {
        let mut c = FullAssocCache::new("snc", 3);
        c.insert(1, 'a', false);
        c.insert(2, 'b', false);
        c.insert(3, 'c', false);
        let keys: Vec<u64> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![3, 2, 1]);
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        let mut c = FullAssocCache::new("snc", 2);
        c.insert(1, (), false);
        c.insert(2, (), false);
        c.peek(1);
        let v = c.insert(3, (), false).expect("eviction");
        assert_eq!(v.addr, 1, "peek must not refresh recency");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _: FullAssocCache<()> = FullAssocCache::new("bad", 0);
    }

    #[test]
    fn stress_random_ops_maintain_invariants() {
        // Cross-check against a naive model: map + recency Vec.
        let mut c = FullAssocCache::new("snc", 16);
        let mut model: Vec<(u64, u32)> = Vec::new(); // MRU at end
        let mut state = 0x1234_5678u64;
        let mut rnd = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10_000 {
            let key = rnd() % 40;
            match rnd() % 3 {
                0 => {
                    let val = (rnd() % 1000) as u32;
                    let evicted = c.insert(key, val, false);
                    if let Some(pos) = model.iter().position(|(k, _)| *k == key) {
                        model.remove(pos);
                        assert!(evicted.is_none());
                    } else if model.len() == 16 {
                        let lru = model.remove(0);
                        assert_eq!(evicted.expect("model evicts").addr, lru.0);
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
                    let got = c.remove(key).map(|e| e.payload);
                    let expect = model.iter().position(|(k, _)| *k == key);
                    match (got, expect) {
                        (Some(v), Some(pos)) => {
                            assert_eq!(v, model[pos].1);
                            model.remove(pos);
                        }
                        (None, None) => {}
                        other => panic!("divergence: {other:?}"),
                    }
                }
            }
            assert_eq!(c.len(), model.len());
        }
    }
}
