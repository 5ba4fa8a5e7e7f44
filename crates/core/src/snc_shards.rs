//! Address-interleaved sharding of the Sequence Number Cache.
//!
//! A multi-controller configuration splits the SNC into `N` shards,
//! each a full [`SequenceNumberCache`] with its own recency state,
//! statistics, and lookup port. Covered lines interleave across shards
//! by line index (`(addr / covered_line_bytes) % N`), so a streaming
//! footprint spreads evenly and per-shard LRU behaves like the slice of
//! a single LRU cache that shard would have held: under a per-shard
//! balanced address stream the sharded SNC is hit/miss-equivalent to
//! one fully associative SNC of the same total capacity (property
//! tested in `snc_shard_properties`).

use crate::config::SncConfig;
use crate::snc::{EvictedSeq, SequenceNumberCache, SncLookup};
use padlock_stats::CounterSet;

/// `N` address-interleaved [`SequenceNumberCache`] shards behind the
/// single-SNC API the controller uses.
///
/// # Examples
///
/// ```
/// use padlock_core::{SncConfig, SncShards};
///
/// let mut snc = SncShards::new(SncConfig::paper_default(), 4);
/// assert_eq!(snc.num_shards(), 4);
/// snc.install(0x4000, 1);
/// assert!(snc.contains(0x4000));
/// // Line index 0x4000/128 = 0x80 -> shard 0.
/// assert_eq!(snc.shard_of(0x4000), 0);
/// assert_eq!(snc.occupancy(), 1);
/// ```
#[derive(Debug)]
pub struct SncShards {
    shards: Vec<SequenceNumberCache>,
    covered_line_bytes: u64,
}

impl SncShards {
    /// Creates `shards` empty shards splitting `config`'s capacity.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or does not evenly divide the entry
    /// count (every shard must hold the same share).
    pub fn new(config: SncConfig, shards: usize) -> Self {
        assert!(shards > 0, "SNC must have at least one shard");
        assert_eq!(
            config.entries() % shards,
            0,
            "shard count {} must divide the {} SNC entries",
            shards,
            config.entries()
        );
        let per_shard = SncConfig {
            capacity_bytes: config.capacity_bytes / shards,
            ..config
        };
        Self {
            shards: (0..shards)
                .map(|_| SequenceNumberCache::new(per_shard))
                .collect(),
            covered_line_bytes: config.covered_line_bytes as u64,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index covering `line_addr` (line-interleaved).
    pub fn shard_of(&self, line_addr: u64) -> usize {
        ((line_addr / self.covered_line_bytes) % self.shards.len() as u64) as usize
    }

    /// The individual shards (diagnostics; per-shard stats).
    pub fn shards(&self) -> &[SequenceNumberCache] {
        &self.shards
    }

    /// Total entries resident across all shards.
    pub fn occupancy(&self) -> usize {
        self.shards.iter().map(|s| s.occupancy()).sum()
    }

    /// Aggregated event counters summed over every shard
    /// (`query_hits`, `spills`, ...).
    pub fn stats(&self) -> CounterSet {
        let mut all = CounterSet::new("snc");
        for shard in &self.shards {
            all.merge(&shard.stats());
        }
        all
    }

    /// Resets every shard's statistics, keeping contents.
    pub fn reset_stats(&mut self) {
        for shard in &mut self.shards {
            shard.reset_stats();
        }
    }

    /// Whether a no-replacement install of `line_addr` would succeed in
    /// its shard.
    pub fn has_room_for(&self, line_addr: u64) -> bool {
        self.shards[self.shard_of(line_addr)].has_room_for(line_addr)
    }

    /// Queries the sequence number for a read miss (refreshes the
    /// owning shard's recency).
    pub fn query(&mut self, line_addr: u64) -> SncLookup {
        let shard = self.shard_of(line_addr);
        self.shards[shard].query(line_addr)
    }

    /// Increments the sequence number on an update hit; `None` on miss.
    pub fn increment(&mut self, line_addr: u64) -> Option<u16> {
        let shard = self.shard_of(line_addr);
        self.shards[shard].increment(line_addr)
    }

    /// Installs a sequence number into the owning shard, returning that
    /// shard's LRU victim if it was full.
    pub fn install(&mut self, line_addr: u64, seq: u16) -> Option<EvictedSeq> {
        let shard = self.shard_of(line_addr);
        self.shards[shard].install(line_addr, seq)
    }

    /// No-replacement install: succeeds only when the owning shard has
    /// a free slot.
    pub fn try_install(&mut self, line_addr: u64, seq: u16) -> bool {
        let shard = self.shard_of(line_addr);
        self.shards[shard].try_install(line_addr, seq)
    }

    /// Whether any shard holds `line_addr` (no side effects).
    pub fn contains(&self, line_addr: u64) -> bool {
        self.shards[self.shard_of(line_addr)].contains(line_addr)
    }

    /// Evicts everything from every shard (context switch), returning
    /// all entries for encrypted spill.
    pub fn flush(&mut self) -> Vec<EvictedSeq> {
        self.shards.iter_mut().flat_map(|s| s.flush()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SncOrganization, SncPolicy};

    fn cfg(entries: usize) -> SncConfig {
        SncConfig {
            capacity_bytes: entries * 2,
            entry_bytes: 2,
            organization: SncOrganization::FullyAssociative,
            policy: SncPolicy::Lru,
            covered_line_bytes: 128,
        }
    }

    fn addr(line: u64) -> u64 {
        line * 128
    }

    #[test]
    fn single_shard_behaves_like_plain_snc() {
        let mut sharded = SncShards::new(cfg(4), 1);
        let mut plain = SequenceNumberCache::new(cfg(4));
        for line in [0u64, 3, 1, 0, 7, 3, 9] {
            assert_eq!(sharded.query(addr(line)), plain.query(addr(line)));
            assert_eq!(
                sharded.install(addr(line), line as u16 + 1),
                plain.install(addr(line), line as u16 + 1)
            );
        }
        assert_eq!(sharded.occupancy(), plain.occupancy());
        assert_eq!(
            sharded.stats().get("query_hits"),
            plain.stats().get("query_hits")
        );
    }

    #[test]
    fn addresses_interleave_by_line_index() {
        let snc = SncShards::new(cfg(8), 4);
        assert_eq!(snc.shard_of(addr(0)), 0);
        assert_eq!(snc.shard_of(addr(1)), 1);
        assert_eq!(snc.shard_of(addr(5)), 1);
        assert_eq!(snc.shard_of(addr(7)), 3);
    }

    #[test]
    fn evictions_stay_within_the_owning_shard() {
        // 4 entries over 2 shards: 2 per shard. Three even-line installs
        // must evict an even line even though shard 1 is empty.
        let mut snc = SncShards::new(cfg(4), 2);
        snc.install(addr(0), 1);
        snc.install(addr(2), 2);
        let victim = snc.install(addr(4), 3).expect("shard 0 full");
        assert_eq!(victim.line_addr, addr(0));
        assert_eq!(snc.shards()[1].occupancy(), 0);
    }

    #[test]
    fn no_replacement_is_rejected_per_shard() {
        let mut snc = SncShards::new(
            SncConfig {
                policy: SncPolicy::NoReplacement,
                ..cfg(4)
            },
            2,
        );
        assert!(snc.try_install(addr(0), 1));
        assert!(snc.try_install(addr(2), 1));
        assert!(!snc.has_room_for(addr(4)));
        assert!(!snc.try_install(addr(4), 1), "shard 0 is full");
        assert!(snc.try_install(addr(1), 1), "shard 1 still has room");
    }

    #[test]
    fn flush_and_stats_aggregate_over_shards() {
        let mut snc = SncShards::new(cfg(8), 4);
        for line in 0..6u64 {
            snc.install(addr(line), 1);
        }
        snc.query(addr(0));
        snc.query(addr(1));
        assert_eq!(snc.stats().get("query_hits"), 2);
        assert_eq!(snc.stats().get("installs"), 6);
        let all = snc.flush();
        assert_eq!(all.len(), 6);
        assert_eq!(snc.occupancy(), 0);
        snc.reset_stats();
        assert_eq!(snc.stats().get("installs"), 0);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn ragged_shard_split_panics() {
        let _ = SncShards::new(cfg(10), 4);
    }
}
