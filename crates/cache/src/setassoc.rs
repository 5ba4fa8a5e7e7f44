//! The set-associative cache timing model.

use crate::config::CacheConfig;
use crate::stats::CacheStats;
use padlock_stats::CounterSet;

/// Whether an access reads or writes the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load (or instruction fetch).
    Read,
    /// A store; marks the line dirty.
    Write,
}

/// A line pushed out of the cache by an allocation or flush.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted<T> {
    /// Line-aligned base address of the victim.
    pub addr: u64,
    /// Whether the victim was dirty (needs a writeback).
    pub dirty: bool,
    /// The per-line payload that was stored with the victim.
    pub payload: T,
}

/// Result of [`SetAssocCache::access`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome<T> {
    /// Whether the line was already present.
    pub hit: bool,
    /// The victim evicted to make room (misses only, and only when the
    /// target set was full).
    pub victim: Option<Evicted<T>>,
}

#[derive(Debug, Clone)]
struct Line<T> {
    /// Line-aligned base address (stores the whole address, not just the
    /// tag, so victims can be reported without reconstructing bits).
    addr: u64,
    dirty: bool,
    /// Recency stamp: the clock value of the line's last touch.
    stamp: u64,
    payload: T,
}

/// A set-associative, write-back, write-allocate LRU cache with a
/// per-line payload.
///
/// `T` is arbitrary metadata carried with each line: `()` for the CPU
/// caches, the stored virtual address for the L2 (paper §4: the L2 keeps
/// each line's VA to index the SNC on writeback), or a sequence number
/// for a set-associative SNC.
///
/// # Examples
///
/// ```
/// use padlock_cache::{AccessKind, CacheConfig, SetAssocCache};
///
/// let mut c = SetAssocCache::<()>::new(CacheConfig::new("L1", 1024, 64, 2));
/// let miss = c.access(0x80, AccessKind::Write);
/// assert!(!miss.hit);
/// let hit = c.access(0x80, AccessKind::Read);
/// assert!(hit.hit);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<T> {
    config: CacheConfig,
    sets: Vec<Vec<Line<T>>>,
    clock: u64,
    stats: CacheStats,
}

impl<T: Default> SetAssocCache<T> {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = (0..config.num_sets()).map(|_| Vec::new()).collect();
        Self {
            config,
            sets,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Accesses `addr`, allocating on miss with a default payload.
    ///
    /// Returns whether the access hit and, on miss, any victim that was
    /// evicted to make room.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome<T> {
        let line_addr = self.config.line_addr(addr);
        let set_idx = self.config.set_index(addr);
        let stamp = self.tick();

        if let Some(line) = self.sets[set_idx].iter_mut().find(|l| l.addr == line_addr) {
            line.stamp = stamp;
            if kind == AccessKind::Write {
                line.dirty = true;
            }
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                victim: None,
            };
        }

        self.stats.misses += 1;
        let new_line = Line {
            addr: line_addr,
            dirty: kind == AccessKind::Write,
            stamp,
            payload: T::default(),
        };
        let victim = self.install(set_idx, new_line);
        AccessOutcome { hit: false, victim }
    }
}

impl<T> SetAssocCache<T> {
    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics rendered as a counter set: `hits`,
    /// `misses`, `evictions`, `writebacks`. The hot path bumps the
    /// fixed-slot `CacheStats` fields; this snapshot is built on
    /// demand.
    pub fn stats(&self) -> CounterSet {
        self.stats.to_counters(self.config.name())
    }

    /// Resets statistics (e.g. after warm-up), keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Installs a line into its set, returning any evicted victim.
    fn install(&mut self, set_idx: usize, line: Line<T>) -> Option<Evicted<T>> {
        if self.sets[set_idx].len() < self.config.ways() {
            self.sets[set_idx].push(line);
            return None;
        }
        let victim_idx = self.sets[set_idx]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.stamp)
            .map(|(i, _)| i)
            .expect("set is full");
        let old = std::mem::replace(&mut self.sets[set_idx][victim_idx], line);
        self.stats.evictions += 1;
        if old.dirty {
            self.stats.writebacks += 1;
        }
        Some(Evicted {
            addr: old.addr,
            dirty: old.dirty,
            payload: old.payload,
        })
    }

    /// Looks up `addr` without allocating or disturbing recency.
    pub fn probe(&self, addr: u64) -> Option<&T> {
        let line_addr = self.config.line_addr(addr);
        let set_idx = self.config.set_index(addr);
        self.sets[set_idx]
            .iter()
            .find(|l| l.addr == line_addr)
            .map(|l| &l.payload)
    }

    /// Mutable payload access without allocating; refreshes LRU recency.
    pub fn probe_mut(&mut self, addr: u64) -> Option<&mut T> {
        let line_addr = self.config.line_addr(addr);
        let set_idx = self.config.set_index(addr);
        let stamp = self.tick();
        self.sets[set_idx]
            .iter_mut()
            .find(|l| l.addr == line_addr)
            .map(|l| {
                l.stamp = stamp;
                &mut l.payload
            })
    }

    /// Whether `addr`'s line is present.
    pub fn contains(&self, addr: u64) -> bool {
        self.probe(addr).is_some()
    }

    /// Inserts (or overwrites) a line with an explicit payload; returns the
    /// victim if the set overflowed.
    pub fn insert(&mut self, addr: u64, payload: T, dirty: bool) -> Option<Evicted<T>> {
        let line_addr = self.config.line_addr(addr);
        let set_idx = self.config.set_index(addr);
        let stamp = self.tick();
        if let Some(line) = self.sets[set_idx].iter_mut().find(|l| l.addr == line_addr) {
            line.payload = payload;
            line.dirty |= dirty;
            line.stamp = stamp;
            return None;
        }
        let line = Line {
            addr: line_addr,
            dirty,
            stamp,
            payload,
        };
        self.install(set_idx, line)
    }

    /// Evicts everything, returning the victims set by set (models the
    /// context-switch flush of the paper's §4.3).
    pub fn flush(&mut self) -> Vec<Evicted<T>> {
        let mut out = Vec::new();
        for set in &mut self.sets {
            for line in set.drain(..) {
                if line.dirty {
                    self.stats.writebacks += 1;
                }
                self.stats.evictions += 1;
                out.push(Evicted {
                    addr: line.addr,
                    dirty: line.dirty,
                    payload: line.payload,
                });
            }
        }
        out
    }

    /// Number of lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Number of lines resident in the set that `addr` maps to
    /// (used by the no-replacement SNC to test for a free way).
    pub fn set_occupancy(&self, addr: u64) -> usize {
        self.sets[self.config.set_index(addr)].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache<()> {
        // 2 sets x 2 ways x 64B lines = 256B.
        SetAssocCache::new(CacheConfig::new("t", 256, 64, 2))
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small();
        assert!(!c.access(0x100, AccessKind::Read).hit);
        assert!(c.access(0x100, AccessKind::Read).hit);
        assert_eq!(c.stats().get("hits"), 1);
        assert_eq!(c.stats().get("misses"), 1);
    }

    #[test]
    fn accesses_within_a_line_share_the_line() {
        let mut c = small();
        c.access(0x100, AccessKind::Read);
        assert!(c.access(0x13F, AccessKind::Read).hit);
        assert!(!c.access(0x140, AccessKind::Read).hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small(); // set stride 128: addrs 0x000,0x080 -> sets 0,1
        // Fill set 0 (two ways): line 0x000 and 0x100.
        c.access(0x000, AccessKind::Read);
        c.access(0x100, AccessKind::Read);
        // Touch 0x000 so 0x100 becomes LRU.
        c.access(0x000, AccessKind::Read);
        // Insert third line mapping to set 0: evicts 0x100.
        let out = c.access(0x200, AccessKind::Read);
        let victim = out.victim.expect("eviction expected");
        assert_eq!(victim.addr, 0x100);
        assert!(c.contains(0x000));
        assert!(!c.contains(0x100));
    }

    #[test]
    fn writes_mark_dirty_and_dirty_victims_report_writebacks() {
        let mut c = small();
        c.access(0x000, AccessKind::Write);
        c.access(0x100, AccessKind::Read);
        c.access(0x100, AccessKind::Read);
        let out = c.access(0x200, AccessKind::Read); // evicts 0x000 (LRU)
        let victim = out.victim.expect("eviction");
        assert_eq!(victim.addr, 0x000);
        assert!(victim.dirty);
        assert_eq!(c.stats().get("writebacks"), 1);
    }

    #[test]
    fn read_after_write_keeps_dirty_bit() {
        let mut c = small();
        c.access(0x000, AccessKind::Write);
        c.access(0x000, AccessKind::Read);
        assert!(c.flush()[0].dirty);
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = small();
        assert!(c.probe(0x300).is_none());
        assert_eq!(c.occupancy(), 0);
        c.access(0x300, AccessKind::Read);
        assert!(c.probe(0x300).is_some());
    }

    #[test]
    fn insert_and_remove_payloads() {
        let mut c: SetAssocCache<u16> = SetAssocCache::new(CacheConfig::new("snc", 256, 64, 2));
        assert!(c.insert(0x000, 7, true).is_none());
        assert_eq!(c.probe(0x000), Some(&7));
        *c.probe_mut(0x000).unwrap() = 9;
        let removed = c.flush();
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].payload, 9);
        assert!(removed[0].dirty);
        assert!(!c.contains(0x000));
    }

    #[test]
    fn insert_existing_overwrites_without_eviction() {
        let mut c: SetAssocCache<u16> = SetAssocCache::new(CacheConfig::new("snc", 256, 64, 2));
        c.insert(0x000, 1, false);
        assert!(c.insert(0x000, 2, false).is_none());
        assert_eq!(c.probe(0x000), Some(&2));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn flush_returns_all_lines_and_counts_writebacks() {
        let mut c = small();
        c.access(0x000, AccessKind::Write);
        c.access(0x080, AccessKind::Read);
        let victims = c.flush();
        assert_eq!(victims.len(), 2);
        assert_eq!(victims.iter().filter(|v| v.dirty).count(), 1);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn stats_reset_keeps_contents() {
        let mut c = small();
        c.access(0x000, AccessKind::Read);
        c.reset_stats();
        assert_eq!(c.stats().get("misses"), 0);
        assert!(c.contains(0x000));
    }
}
