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

/// A set-associative, write-back, write-allocate LRU cache with a
/// per-line payload.
///
/// `T` is arbitrary metadata carried with each line: `()` for the CPU
/// caches, the stored virtual address for the L2 (paper §4: the L2 keeps
/// each line's VA to index the SNC on writeback), or a sequence number
/// for a set-associative SNC.
///
/// # Layout
///
/// The lines live in flat set-major arrays: way `w` of set `s` is entry
/// `s * ways + w` of a tag array (the line address, scanned by a
/// lookup), a recency-stamp array, a dirty-bit array and a payload
/// array. The stamp is the cache clock at the line's last touch; every
/// touch ticks the clock first, so stamps start at 1 and stamp 0 marks
/// a free way. A set fills its ways in order and only
/// [`SetAssocCache::flush`] frees them, so the resident lines of a set
/// are always a prefix of its ways. The victim of an allocation is the
/// first way with the smallest stamp: the first free way while one is
/// left, else the least recently used line.
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
    /// Line-aligned base address per way (the whole address, not just
    /// the tag bits, so victims are reported without reconstruction).
    /// Meaningless in a free way.
    tags: Vec<u64>,
    /// Recency stamp per way; 0 in a free way.
    stamps: Vec<u64>,
    /// Dirty bit per way. Meaningless in a free way.
    dirty: Vec<bool>,
    /// Payload per way; a free way holds a leftover value.
    payloads: Vec<T>,
    clock: u64,
    stats: CacheStats,
}

impl<T: Default> SetAssocCache<T> {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let lines = config.num_lines();
        Self {
            config,
            tags: vec![0; lines],
            stamps: vec![0; lines],
            dirty: vec![false; lines],
            payloads: (0..lines).map(|_| T::default()).collect(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Accesses `addr`, allocating on miss with a default payload.
    ///
    /// Returns whether the access hit and, on miss, any victim that was
    /// evicted to make room.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome<T> {
        let (set, line_addr) = self.locate(addr);
        let stamp = self.tick();
        let write = kind == AccessKind::Write;

        if let Some(way) = self.find(set, line_addr) {
            self.stamps[way] = stamp;
            self.dirty[way] |= write;
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                victim: None,
            };
        }

        self.stats.misses += 1;
        let victim = self.install(set, line_addr, write, stamp, T::default());
        AccessOutcome { hit: false, victim }
    }

    /// Evicts everything, returning the victims set by set, each set's
    /// in way order (models the context-switch flush of the paper's
    /// §4.3).
    pub fn flush(&mut self) -> Vec<Evicted<T>> {
        let mut out = Vec::new();
        for way in 0..self.stamps.len() {
            if self.stamps[way] == 0 {
                continue;
            }
            self.stamps[way] = 0;
            let dirty = self.dirty[way];
            if dirty {
                self.stats.writebacks += 1;
            }
            self.stats.evictions += 1;
            out.push(Evicted {
                addr: self.tags[way],
                dirty,
                payload: std::mem::take(&mut self.payloads[way]),
            });
        }
        out
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

    /// The first way of `addr`'s set, and `addr`'s line address.
    fn locate(&self, addr: u64) -> (usize, u64) {
        (
            self.config.set_index(addr) * self.config.ways(),
            self.config.line_addr(addr),
        )
    }

    /// The way of the set starting at `set` that holds `line_addr`.
    fn find(&self, set: usize, line_addr: u64) -> Option<usize> {
        let ways = &self.tags[set..set + self.config.ways()];
        let way = set + ways.iter().position(|&tag| tag == line_addr)?;
        // Resident lines precede the free ways, so a first match in a
        // free way (a leftover tag) means the line is absent.
        (self.stamps[way] != 0).then_some(way)
    }

    /// Installs a line into the set starting at `set`, over its first
    /// least-recently-stamped way, returning the evicted victim if that
    /// way was resident.
    fn install(
        &mut self,
        set: usize,
        line_addr: u64,
        dirty: bool,
        stamp: u64,
        payload: T,
    ) -> Option<Evicted<T>> {
        let stamps = &self.stamps[set..set + self.config.ways()];
        let (victim, _) = stamps
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| s)
            .expect("a set has at least one way");
        let way = set + victim;
        let was_resident = self.stamps[way] != 0;
        let old_addr = std::mem::replace(&mut self.tags[way], line_addr);
        let old_dirty = std::mem::replace(&mut self.dirty[way], dirty);
        let old_payload = std::mem::replace(&mut self.payloads[way], payload);
        self.stamps[way] = stamp;
        if !was_resident {
            return None;
        }
        self.stats.evictions += 1;
        if old_dirty {
            self.stats.writebacks += 1;
        }
        Some(Evicted {
            addr: old_addr,
            dirty: old_dirty,
            payload: old_payload,
        })
    }

    /// Looks up `addr` without allocating or disturbing recency.
    pub fn probe(&self, addr: u64) -> Option<&T> {
        let (set, line_addr) = self.locate(addr);
        self.find(set, line_addr).map(|way| &self.payloads[way])
    }

    /// Mutable payload access without allocating; refreshes LRU recency.
    pub fn probe_mut(&mut self, addr: u64) -> Option<&mut T> {
        let (set, line_addr) = self.locate(addr);
        let stamp = self.tick();
        let way = self.find(set, line_addr)?;
        self.stamps[way] = stamp;
        Some(&mut self.payloads[way])
    }

    /// Whether `addr`'s line is present.
    pub fn contains(&self, addr: u64) -> bool {
        self.probe(addr).is_some()
    }

    /// Inserts (or overwrites) a line with an explicit payload; returns the
    /// victim if the set overflowed.
    pub fn insert(&mut self, addr: u64, payload: T, dirty: bool) -> Option<Evicted<T>> {
        let (set, line_addr) = self.locate(addr);
        let stamp = self.tick();
        if let Some(way) = self.find(set, line_addr) {
            self.payloads[way] = payload;
            self.dirty[way] |= dirty;
            self.stamps[way] = stamp;
            return None;
        }
        self.install(set, line_addr, dirty, stamp, payload)
    }

    /// Number of lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.stamps.iter().filter(|&&s| s != 0).count()
    }

    /// Number of lines resident in the set that `addr` maps to
    /// (used by the no-replacement SNC to test for a free way).
    pub fn set_occupancy(&self, addr: u64) -> usize {
        let (set, _) = self.locate(addr);
        self.stamps[set..set + self.config.ways()]
            .iter()
            .filter(|&&s| s != 0)
            .count()
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
