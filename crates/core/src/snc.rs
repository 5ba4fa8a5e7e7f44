//! The Sequence Number Cache (paper §4).
//!
//! Stores the per-L2-line sequence numbers needed to rebuild one-time-pad
//! seeds. This module is pure state (hit/miss/evict bookkeeping); the
//! latencies those events cost live in the controller, and the actual
//! pad computation in `padlock-crypto`.

use crate::config::{SncConfig, SncOrganization};
use padlock_cache::{CacheConfig, FullAssocCache, SetAssocCache};
use padlock_stats::CounterSet;

/// Result of a query for a line's sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SncLookup {
    /// Resident; carries the sequence number.
    Hit(u16),
    /// Not resident.
    Miss,
}

/// A sequence number evicted by an LRU install; must be encrypted and
/// spilled to memory (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedSeq {
    /// The covered line's address.
    pub line_addr: u64,
    /// The sequence number being spilled.
    pub seq: u16,
}

#[derive(Debug)]
enum Storage {
    Full(FullAssocCache<u16>),
    SetAssoc(SetAssocCache<u16>),
}

/// Fixed-slot SNC event counters, bumped as plain fields on the hot
/// path and rendered as a [`CounterSet`] on demand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SncStats {
    query_hits: u64,
    query_misses: u64,
    update_hits: u64,
    update_misses: u64,
    overflows: u64,
    installs: u64,
    spills: u64,
    install_rejects: u64,
}

impl SncStats {
    fn to_counters(self) -> CounterSet {
        // Only touched counters appear, matching the shape the
        // incrementally-built `CounterSet` had before the fixed-slot
        // rewrite (readers use `get`, which defaults absent names to 0).
        let mut set = CounterSet::new("snc");
        for (name, n) in [
            ("query_hits", self.query_hits),
            ("query_misses", self.query_misses),
            ("update_hits", self.update_hits),
            ("update_misses", self.update_misses),
            ("overflows", self.overflows),
            ("installs", self.installs),
            ("spills", self.spills),
            ("install_rejects", self.install_rejects),
        ] {
            if n > 0 {
                set.add(name, n);
            }
        }
        set
    }
}

/// The on-chip Sequence Number Cache.
///
/// # Examples
///
/// ```
/// use padlock_core::{SequenceNumberCache, SncConfig, SncLookup};
///
/// let mut snc = SequenceNumberCache::new(SncConfig::paper_default());
/// assert_eq!(snc.query(0x4000), SncLookup::Miss);
/// snc.install(0x4000, 1);
/// assert_eq!(snc.query(0x4000), SncLookup::Hit(1));
/// assert_eq!(snc.increment(0x4000), Some(2));
/// ```
#[derive(Debug)]
pub struct SequenceNumberCache {
    config: SncConfig,
    storage: Storage,
    stats: SncStats,
}

impl SequenceNumberCache {
    /// Creates an empty SNC.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero entries, or a
    /// set-associative organisation whose set count is not a power of
    /// two).
    pub fn new(config: SncConfig) -> Self {
        let entries = config.entries();
        assert!(entries > 0, "SNC must have at least one entry");
        let storage = match config.organization {
            SncOrganization::FullyAssociative => {
                Storage::Full(FullAssocCache::new("snc", entries))
            }
            SncOrganization::SetAssociative(ways) => {
                // Index the SNC by L2 line address: model it as a cache of
                // `covered_line_bytes`-sized "lines", one entry each.
                let line = config.covered_line_bytes;
                Storage::SetAssoc(SetAssocCache::new(CacheConfig::new(
                    "snc",
                    entries * line,
                    line,
                    ways as usize,
                )))
            }
        };
        Self {
            config,
            storage,
            stats: SncStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SncConfig {
        &self.config
    }

    /// Event counters: `query_hits`, `query_misses`, `update_hits`,
    /// `update_misses`, `installs`, `spills`, `overflows` — a snapshot
    /// rendered from the fixed-slot fields.
    pub fn stats(&self) -> CounterSet {
        self.stats.to_counters()
    }

    /// Resets statistics, keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = SncStats::default();
        match &mut self.storage {
            Storage::Full(c) => c.reset_stats(),
            Storage::SetAssoc(c) => c.reset_stats(),
        }
    }

    /// Entries currently resident.
    pub fn occupancy(&self) -> usize {
        match &self.storage {
            Storage::Full(c) => c.len(),
            Storage::SetAssoc(c) => c.occupancy(),
        }
    }

    /// Whether a no-replacement install of `line_addr` would succeed
    /// (a free slot exists in the relevant set / anywhere).
    pub fn has_room_for(&self, line_addr: u64) -> bool {
        match &self.storage {
            Storage::Full(c) => !c.is_full(),
            Storage::SetAssoc(c) => {
                // A set has room if an install would not evict. Probe by
                // counting resident lines in the set: reconstruct via
                // contains of... simplest: clone-free check below.
                c.set_occupancy(line_addr) < c.config().ways()
            }
        }
    }

    /// Queries the sequence number for a read miss (refreshes recency).
    pub fn query(&mut self, line_addr: u64) -> SncLookup {
        let found = match &mut self.storage {
            Storage::Full(c) => c.get(line_addr).map(|s| *s),
            Storage::SetAssoc(c) => c.probe_mut(line_addr).map(|s| *s),
        };
        match found {
            Some(seq) => {
                self.stats.query_hits += 1;
                SncLookup::Hit(seq)
            }
            None => {
                self.stats.query_misses += 1;
                SncLookup::Miss
            }
        }
    }

    /// Increments the sequence number on an update (writeback) hit,
    /// returning the new value, or `None` on miss.
    ///
    /// On 16-bit wraparound the counter restarts at 1 and an `overflows`
    /// event is counted; the functional layer re-encrypts the line under
    /// a new epoch when this happens.
    pub fn increment(&mut self, line_addr: u64) -> Option<u16> {
        let new = match &mut self.storage {
            Storage::Full(c) => c.get(line_addr).map(|s| {
                *s = s.wrapping_add(1).max(1);
                *s
            }),
            Storage::SetAssoc(c) => c.probe_mut(line_addr).map(|s| {
                *s = s.wrapping_add(1).max(1);
                *s
            }),
        };
        match new {
            Some(seq) => {
                self.stats.update_hits += 1;
                if seq == 1 {
                    self.stats.overflows += 1;
                }
                Some(seq)
            }
            None => {
                self.stats.update_misses += 1;
                None
            }
        }
    }

    /// Installs a sequence number, evicting LRU state if needed.
    ///
    /// Under LRU the victim (if any) is returned for spilling to memory;
    /// the caller charges encryption + a memory write. Under
    /// no-replacement use [`SequenceNumberCache::try_install`] instead.
    pub fn install(&mut self, line_addr: u64, seq: u16) -> Option<EvictedSeq> {
        self.stats.installs += 1;
        let evicted = match &mut self.storage {
            Storage::Full(c) => c
                .insert(line_addr, seq, true)
                .map(|e| EvictedSeq {
                    line_addr: e.addr,
                    seq: e.payload,
                }),
            Storage::SetAssoc(c) => c.insert(line_addr, seq, true).map(|e| EvictedSeq {
                line_addr: e.addr,
                seq: e.payload,
            }),
        };
        if evicted.is_some() {
            self.stats.spills += 1;
        }
        evicted
    }

    /// No-replacement install: succeeds only when a free slot exists.
    pub fn try_install(&mut self, line_addr: u64, seq: u16) -> bool {
        if !self.has_room_for(line_addr) {
            self.stats.install_rejects += 1;
            return false;
        }
        let evicted = self.install(line_addr, seq);
        debug_assert!(evicted.is_none(), "no-replacement install must not evict");
        true
    }

    /// Whether `line_addr` currently has an entry (no side effects).
    pub fn contains(&self, line_addr: u64) -> bool {
        match &self.storage {
            Storage::Full(c) => c.contains(line_addr),
            Storage::SetAssoc(c) => c.contains(line_addr),
        }
    }

    /// Evicts everything (context switch), returning all entries for
    /// encrypted spill.
    pub fn flush(&mut self) -> Vec<EvictedSeq> {
        match &mut self.storage {
            Storage::Full(c) => c
                .flush()
                .into_iter()
                .map(|e| EvictedSeq {
                    line_addr: e.addr,
                    seq: e.payload,
                })
                .collect(),
            Storage::SetAssoc(c) => c
                .flush()
                .into_iter()
                .map(|e| EvictedSeq {
                    line_addr: e.addr,
                    seq: e.payload,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SncConfig, SncOrganization, SncPolicy};

    fn tiny(policy: SncPolicy) -> SequenceNumberCache {
        SequenceNumberCache::new(
            SncConfig {
                capacity_bytes: 8, // 4 entries
                entry_bytes: 2,
                organization: SncOrganization::FullyAssociative,
                policy,
                covered_line_bytes: 128,
            },
        )
    }

    #[test]
    fn query_miss_then_hit_after_install() {
        let mut snc = tiny(SncPolicy::Lru);
        assert_eq!(snc.query(0x000), SncLookup::Miss);
        snc.install(0x000, 5);
        assert_eq!(snc.query(0x000), SncLookup::Hit(5));
        assert_eq!(snc.stats().get("query_hits"), 1);
        assert_eq!(snc.stats().get("query_misses"), 1);
    }

    #[test]
    fn increment_bumps_and_counts_update_hits() {
        let mut snc = tiny(SncPolicy::Lru);
        snc.install(0x080, 1);
        assert_eq!(snc.increment(0x080), Some(2));
        assert_eq!(snc.increment(0x080), Some(3));
        assert_eq!(snc.increment(0x999), None);
        assert_eq!(snc.stats().get("update_hits"), 2);
        assert_eq!(snc.stats().get("update_misses"), 1);
    }

    #[test]
    fn lru_install_evicts_and_reports_spill() {
        let mut snc = tiny(SncPolicy::Lru);
        for i in 0..4u64 {
            snc.install(i * 128, i as u16 + 1);
        }
        snc.query(0); // refresh line 0
        let victim = snc.install(4 * 128, 9).expect("full SNC must evict");
        assert_eq!(victim.line_addr, 128); // LRU after refresh of 0
        assert_eq!(victim.seq, 2);
        assert_eq!(snc.stats().get("spills"), 1);
    }

    #[test]
    fn no_replacement_rejects_when_full() {
        let mut snc = tiny(SncPolicy::NoReplacement);
        for i in 0..4u64 {
            assert!(snc.try_install(i * 128, 1));
        }
        assert!(!snc.try_install(4 * 128, 1));
        assert_eq!(snc.occupancy(), 4);
        assert_eq!(snc.stats().get("install_rejects"), 1);
        // Resident entries keep working.
        assert_eq!(snc.increment(0), Some(2));
    }

    #[test]
    fn wraparound_counts_overflow_and_skips_zero() {
        let mut snc = tiny(SncPolicy::Lru);
        snc.install(0, u16::MAX);
        assert_eq!(snc.increment(0), Some(1));
        assert_eq!(snc.stats().get("overflows"), 1);
    }

    #[test]
    fn set_associative_organisation_has_conflict_misses() {
        // 4 entries, 2-way => 2 sets; covered lines at stride
        // sets*line = 256 collide in set 0.
        let mut snc = SequenceNumberCache::new(SncConfig {
            capacity_bytes: 8,
            entry_bytes: 2,
            organization: SncOrganization::SetAssociative(2),
            policy: SncPolicy::Lru,
            covered_line_bytes: 128,
        });
        snc.install(0, 1);
        snc.install(256, 2);
        assert!(snc.has_room_for(128), "other set still free");
        assert!(!snc.has_room_for(512), "set 0 is full");
        let victim = snc.install(512, 3).expect("conflict eviction");
        assert_eq!(victim.line_addr, 0);
        // A fully associative SNC of the same size would not have evicted.
        let mut full = tiny(SncPolicy::Lru);
        full.install(0, 1);
        full.install(256, 2);
        assert!(full.install(512, 3).is_none());
    }

    #[test]
    fn flush_returns_all_entries() {
        let mut snc = tiny(SncPolicy::Lru);
        snc.install(0, 1);
        snc.install(128, 2);
        let all = snc.flush();
        assert_eq!(all.len(), 2);
        assert_eq!(snc.occupancy(), 0);
        assert_eq!(snc.query(0), SncLookup::Miss);
    }

    #[test]
    fn contains_has_no_side_effects() {
        let mut snc = tiny(SncPolicy::Lru);
        snc.install(0, 1);
        let hits_before = snc.stats().get("query_hits");
        assert!(snc.contains(0));
        assert!(!snc.contains(128));
        assert_eq!(snc.stats().get("query_hits"), hits_before);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut snc = tiny(SncPolicy::Lru);
        snc.install(0, 7);
        snc.query(0);
        snc.reset_stats();
        assert_eq!(snc.stats().get("query_hits"), 0);
        assert_eq!(snc.query(0), SncLookup::Hit(7));
    }

    #[test]
    fn paper_sized_snc_handles_many_lines() {
        let mut snc = SequenceNumberCache::new(SncConfig::paper_default());
        for i in 0..40_000u64 {
            snc.install(i * 128, (i % 65_535) as u16 + 1);
        }
        assert_eq!(snc.occupancy(), 32_768);
        // Oldest entries spilled.
        assert!(!snc.contains(0));
        assert!(snc.contains(39_999 * 128));
        assert_eq!(snc.stats().get("spills"), 40_000 - 32_768);
    }
}
