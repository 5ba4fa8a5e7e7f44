//! The Sequence Number Cache (paper §4).
//!
//! Stores the per-L2-line sequence numbers needed to rebuild one-time-pad
//! seeds. This module is pure state (hit/miss/evict bookkeeping); the
//! latencies those events cost live in the controller, and the actual
//! pad computation in `padlock-crypto`.
//!
//! A multi-controller configuration splits the SNC into `N` shards, each
//! with its own storage, recency state and lookup port. Covered lines
//! interleave across shards by line index (`(addr / LINE_BYTES) % N`),
//! so a streaming footprint spreads evenly and per-shard LRU
//! behaves like the slice of a single LRU cache that shard would have
//! held: under a per-shard balanced address stream an `N`-shard fully
//! associative SNC is hit/miss-equivalent to a one-shard SNC of the same
//! total capacity (property tested in `snc_shard_properties`).

use crate::config::{SncConfig, SncOrganization};
use crate::line_set::LineSet;
use padlock_cache::{CacheConfig, FullAssocCache, SetAssocCache};
use padlock_mem::LINE_BYTES;
use padlock_stats::CounterSet;
use std::collections::VecDeque;

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

/// One shard's storage.
#[derive(Debug)]
enum Storage {
    Full(FullAssocCache<u16>),
    SetAssoc(SetAssocCache<u16>),
}

impl Storage {
    fn new(organization: SncOrganization, entries: usize) -> Self {
        match organization {
            SncOrganization::FullyAssociative => Storage::Full(FullAssocCache::new(entries)),
            SncOrganization::SetAssociative(ways) => {
                // Index the SNC by L2 line address: model it as a cache of
                // `LINE_BYTES`-sized "lines", one entry each.
                let line = LINE_BYTES as usize;
                Storage::SetAssoc(SetAssocCache::new(CacheConfig::new(
                    "snc",
                    entries * line,
                    line,
                    ways as usize,
                )))
            }
        }
    }

    fn occupancy(&self) -> usize {
        match self {
            Storage::Full(c) => c.len(),
            Storage::SetAssoc(c) => c.occupancy(),
        }
    }

    /// Entries not yet occupied.
    fn free(&self) -> usize {
        match self {
            Storage::Full(c) => c.capacity() - c.len(),
            Storage::SetAssoc(c) => c.config().num_lines() - c.occupancy(),
        }
    }

    /// Whether an install of `line_addr` would not evict (a free slot
    /// exists in the relevant set / anywhere).
    fn has_room_for(&self, line_addr: u64) -> bool {
        match self {
            Storage::Full(c) => !c.is_full(),
            Storage::SetAssoc(c) => c.set_occupancy(line_addr) < c.config().ways(),
        }
    }

    /// A no-replacement install: `None` when it would evict, else
    /// whether `line_addr` took a free entry (rather than refreshing
    /// its own).
    fn try_insert(&mut self, line_addr: u64, seq: u16) -> Option<bool> {
        if !self.has_room_for(line_addr) {
            return None;
        }
        let resident = |s: &Self| match s {
            Storage::Full(c) => c.len(),
            Storage::SetAssoc(c) => c.set_occupancy(line_addr),
        };
        let before = resident(self);
        let evicted = self.insert(line_addr, seq);
        debug_assert!(evicted.is_none(), "no-replacement install must not evict");
        Some(resident(self) > before)
    }

    /// The resident sequence number, refreshing its recency.
    fn get(&mut self, line_addr: u64) -> Option<&mut u16> {
        match self {
            Storage::Full(c) => c.get(line_addr),
            Storage::SetAssoc(c) => c.probe_mut(line_addr),
        }
    }

    fn insert(&mut self, line_addr: u64, seq: u16) -> Option<EvictedSeq> {
        match self {
            Storage::Full(c) => c
                .insert(line_addr, seq)
                .map(|(line_addr, seq)| EvictedSeq { line_addr, seq }),
            Storage::SetAssoc(c) => c.insert(line_addr, seq, true).map(|e| EvictedSeq {
                line_addr: e.addr,
                seq: e.payload,
            }),
        }
    }

    fn contains(&self, line_addr: u64) -> bool {
        match self {
            Storage::Full(c) => c.contains(line_addr),
            Storage::SetAssoc(c) => c.contains(line_addr),
        }
    }

    /// Empties the shard into `out`: least recently used first when
    /// fully associative, set by set when set-associative.
    fn flush_into(&mut self, out: &mut Vec<EvictedSeq>) {
        match self {
            Storage::Full(c) => out.extend(
                c.flush()
                    .into_iter()
                    .map(|(line_addr, seq)| EvictedSeq { line_addr, seq }),
            ),
            Storage::SetAssoc(c) => out.extend(c.flush().into_iter().map(|e| EvictedSeq {
                line_addr: e.addr,
                seq: e.payload,
            })),
        }
    }
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
        // rewrite (readers use `get`, which defaults absent names to 0):
        // a counter shows exactly when its total over all shards is
        // nonzero.
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
/// The entries split evenly over `N` shards, each with its own storage
/// and recency state; event counters are kept once for the whole SNC.
///
/// # Examples
///
/// ```
/// use padlock_core::{SequenceNumberCache, SncConfig, SncLookup};
///
/// let mut snc = SequenceNumberCache::new(SncConfig::paper_default(), 1);
/// assert_eq!(snc.query(0x4000), SncLookup::Miss);
/// snc.install(0x4000, 1);
/// assert_eq!(snc.query(0x4000), SncLookup::Hit(1));
/// assert_eq!(snc.increment(0x4000), Some(2));
///
/// // Four shards split the same entries; line index 0x4000/128 = 0x80
/// // maps to shard 0.
/// let sharded = SequenceNumberCache::new(SncConfig::paper_default(), 4);
/// assert_eq!(sharded.num_shards(), 4);
/// assert_eq!(sharded.shard_of(0x4000), 0);
/// ```
#[derive(Debug)]
pub struct SequenceNumberCache {
    shards: Vec<Storage>,
    stats: SncStats,
}

impl SequenceNumberCache {
    /// Creates an empty SNC whose entries split evenly over `shards`
    /// line-interleaved shards (1 is the paper's single SNC).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or does not evenly divide the entry
    /// count, or if the geometry is inconsistent (zero entries, or a
    /// set-associative organisation whose per-shard set count is not a
    /// power of two).
    pub fn new(config: SncConfig, shards: usize) -> Self {
        assert!(shards > 0, "SNC must have at least one shard");
        let entries = config.entries();
        assert_eq!(
            entries % shards,
            0,
            "shard count {} must divide the {} SNC entries",
            shards,
            entries
        );
        assert!(entries > 0, "SNC must have at least one entry");
        let per_shard = entries / shards;
        Self {
            shards: (0..shards)
                .map(|_| Storage::new(config.organization, per_shard))
                .collect(),
            stats: SncStats::default(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index covering `line_addr` (line-interleaved).
    pub fn shard_of(&self, line_addr: u64) -> usize {
        ((line_addr / u64::from(LINE_BYTES)) % self.shards.len() as u64) as usize
    }

    fn shard_mut(&mut self, line_addr: u64) -> &mut Storage {
        let shard = self.shard_of(line_addr);
        &mut self.shards[shard]
    }

    /// `line_addr`'s shard, given `last`, the previously routed line and
    /// its shard, which it then replaces. Consecutive lines take
    /// consecutive shards, so a line directly after `last` is routed
    /// without dividing by the shard count. Start from `(0, 0)`: line 0
    /// is in shard 0.
    #[inline]
    fn route(&self, last: &mut (u64, usize), line_addr: u64) -> usize {
        let (prev, prev_shard) = *last;
        let shard = if line_addr.checked_sub(prev) == Some(u64::from(LINE_BYTES)) {
            if prev_shard + 1 == self.shards.len() {
                0
            } else {
                prev_shard + 1
            }
        } else {
            self.shard_of(line_addr)
        };
        *last = (line_addr, shard);
        shard
    }

    /// Event counters summed over every shard: `query_hits`,
    /// `query_misses`, `update_hits`, `update_misses`, `installs`,
    /// `spills`, `overflows`, `install_rejects` — a snapshot rendered
    /// from the fixed-slot fields.
    pub fn stats(&self) -> CounterSet {
        self.stats.to_counters()
    }

    /// Resets statistics, keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = SncStats::default();
    }

    /// Entries currently resident across all shards.
    pub fn occupancy(&self) -> usize {
        self.shards.iter().map(Storage::occupancy).sum()
    }

    /// Whether a no-replacement install of `line_addr` would succeed
    /// (a free slot exists in its shard's relevant set / anywhere in
    /// its shard).
    #[cfg(test)]
    fn has_room_for(&self, line_addr: u64) -> bool {
        self.shards[self.shard_of(line_addr)].has_room_for(line_addr)
    }

    /// Queries the sequence number for a read miss (refreshes the owning
    /// shard's recency).
    pub fn query(&mut self, line_addr: u64) -> SncLookup {
        match self.shard_mut(line_addr).get(line_addr).copied() {
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
        let new = self.shard_mut(line_addr).get(line_addr).map(|s| {
            *s = s.wrapping_add(1).max(1);
            *s
        });
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

    /// Installs a sequence number into the owning shard, evicting that
    /// shard's LRU state if needed.
    ///
    /// Under LRU the victim (if any) is returned for spilling to memory;
    /// the caller charges encryption + a memory write. Under
    /// no-replacement use [`SequenceNumberCache::try_install`] instead.
    pub fn install(&mut self, line_addr: u64, seq: u16) -> Option<EvictedSeq> {
        self.install_into(self.shard_of(line_addr), line_addr, seq)
    }

    /// [`SequenceNumberCache::install`] into `shard`, which must be
    /// `line_addr`'s.
    fn install_into(&mut self, shard: usize, line_addr: u64, seq: u16) -> Option<EvictedSeq> {
        debug_assert_eq!(shard, self.shard_of(line_addr));
        self.stats.installs += 1;
        let evicted = self.shards[shard].insert(line_addr, seq);
        if evicted.is_some() {
            self.stats.spills += 1;
        }
        evicted
    }

    /// Ages an LRU SNC with `lines`, in order: marks each line in
    /// `written` and installs its sequence number 1, leaving contents,
    /// recency and sequence numbers exactly as one
    /// [`SequenceNumberCache::install`] per line would. Event counters
    /// see only the installs actually made.
    ///
    /// Fully associative shards install only the lines that can
    /// survive. In a `C`-entry LRU, once the last `C` installs are
    /// pairwise distinct they alone fix the contents and the recency
    /// order, whatever the shard held before. So each shard keeps a
    /// ring of its last `C` lines that were new to `written`, which are
    /// distinct from one another, and installs the ring at the end. A
    /// line already in `written` may repeat a ring entry, so its
    /// shard's ring is installed first, then the line.
    ///
    /// Each ring is reserved to the shard's capacity before the first
    /// line, so it never reallocates. A line that directly follows the
    /// previous one takes the next shard, so a run of consecutive lines
    /// is routed without dividing by the shard count.
    ///
    /// Set-associative shards take one install per line: replaying only
    /// the survivors could seat them in other ways, and the way order is
    /// the flush order that [`SequenceNumberCache::flush`] returns.
    pub fn age_lru(&mut self, written: &mut LineSet, lines: impl IntoIterator<Item = u64>) {
        let capacity = match &self.shards[0] {
            Storage::Full(c) => c.capacity(),
            Storage::SetAssoc(_) => {
                for line in lines {
                    written.insert(line);
                    self.install(line, 1);
                }
                return;
            }
        };
        let mut rings: Vec<VecDeque<u64>> = (0..self.shards.len())
            .map(|_| VecDeque::with_capacity(capacity))
            .collect();
        let mut last = (0, 0);
        for line in lines {
            let shard = self.route(&mut last, line);
            let ring = &mut rings[shard];
            if written.insert(line) {
                if ring.len() == capacity {
                    ring.pop_front();
                }
                ring.push_back(line);
            } else {
                for pending in ring.drain(..) {
                    self.install_into(shard, pending, 1);
                }
                self.install_into(shard, line, 1);
            }
        }
        for (shard, ring) in rings.into_iter().enumerate() {
            for line in ring {
                self.install_into(shard, line, 1);
            }
        }
    }

    /// Ages a no-replacement SNC with `lines`, in order: marks each line
    /// in `written` and offers its sequence number 1 to its shard,
    /// leaving contents, recency and event counters exactly as one
    /// [`SequenceNumberCache::try_install`] per line would.
    ///
    /// The free entries are counted once, before the first line, and
    /// each install that fills one takes it from the count. Once none is
    /// left every shard is full, so the remaining lines are only marked
    /// written and counted as rejected, without a lookup. Lines are
    /// routed to shards as in [`SequenceNumberCache::age_lru`].
    pub fn age_no_replacement(
        &mut self,
        written: &mut LineSet,
        lines: impl IntoIterator<Item = u64>,
    ) {
        let mut free: usize = self.shards.iter().map(Storage::free).sum();
        let mut last = (0, 0);
        for line in lines {
            written.insert(line);
            if free == 0 {
                self.stats.install_rejects += 1;
            } else if self.try_install_into(self.route(&mut last, line), line, 1) == Some(true) {
                free -= 1;
            }
        }
    }

    /// No-replacement install: succeeds only when the owning shard has a
    /// free slot.
    pub fn try_install(&mut self, line_addr: u64, seq: u16) -> bool {
        self.try_install_into(self.shard_of(line_addr), line_addr, seq)
            .is_some()
    }

    /// [`SequenceNumberCache::try_install`] into `shard`, which must be
    /// `line_addr`'s: `None` when rejected, else whether the install
    /// filled a free entry.
    fn try_install_into(&mut self, shard: usize, line_addr: u64, seq: u16) -> Option<bool> {
        debug_assert_eq!(shard, self.shard_of(line_addr));
        let filled = self.shards[shard].try_insert(line_addr, seq);
        match filled {
            Some(_) => self.stats.installs += 1,
            None => self.stats.install_rejects += 1,
        }
        filled
    }

    /// Whether `line_addr` currently has an entry (no side effects).
    pub fn contains(&self, line_addr: u64) -> bool {
        self.shards[self.shard_of(line_addr)].contains(line_addr)
    }

    /// Evicts everything (context switch), returning all entries for
    /// encrypted spill: shard by shard in index order, each shard least
    /// recently used first (set by set when set-associative).
    pub fn flush(&mut self) -> Vec<EvictedSeq> {
        let mut out = Vec::with_capacity(self.occupancy());
        for shard in &mut self.shards {
            shard.flush_into(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SncConfig, SncOrganization, SncPolicy};

    fn cfg(entries: usize) -> SncConfig {
        SncConfig {
            capacity_bytes: entries * 2,
            organization: SncOrganization::FullyAssociative,
            policy: SncPolicy::Lru,
        }
    }

    fn addr(line: u64) -> u64 {
        line * 128
    }

    fn tiny(policy: SncPolicy) -> SequenceNumberCache {
        SequenceNumberCache::new(SncConfig { policy, ..cfg(4) }, 1)
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
        let mut snc = SequenceNumberCache::new(
            SncConfig {
                organization: SncOrganization::SetAssociative(2),
                ..cfg(4)
            },
            1,
        );
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
        let mut snc = SequenceNumberCache::new(SncConfig::paper_default(), 1);
        for i in 0..40_000u64 {
            snc.install(i * 128, (i % 65_535) as u16 + 1);
        }
        assert_eq!(snc.occupancy(), 32_768);
        // Oldest entries spilled.
        assert!(!snc.contains(0));
        assert!(snc.contains(39_999 * 128));
        assert_eq!(snc.stats().get("spills"), 40_000 - 32_768);
    }

    #[test]
    fn addresses_interleave_by_line_index() {
        let snc = SequenceNumberCache::new(cfg(8), 4);
        assert_eq!(snc.shard_of(addr(0)), 0);
        assert_eq!(snc.shard_of(addr(1)), 1);
        assert_eq!(snc.shard_of(addr(5)), 1);
        assert_eq!(snc.shard_of(addr(7)), 3);
    }

    #[test]
    fn evictions_stay_within_the_owning_shard() {
        // 4 entries over 2 shards: 2 per shard. Three even-line installs
        // must evict an even line even though shard 1 is empty.
        let mut snc = SequenceNumberCache::new(cfg(4), 2);
        snc.install(addr(0), 1);
        snc.install(addr(2), 2);
        let victim = snc.install(addr(4), 3).expect("shard 0 full");
        assert_eq!(victim.line_addr, addr(0));
        assert_eq!(snc.occupancy(), 2, "shard 1 stays empty");
    }

    #[test]
    fn no_replacement_is_rejected_per_shard() {
        let mut snc = SequenceNumberCache::new(
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
        let mut snc = SequenceNumberCache::new(cfg(8), 4);
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
    fn flush_walks_shards_in_index_order_lru_first() {
        // The context-switch spill packs entries in flush order and
        // addresses each packed spill by its first entry, so the order
        // picks the spill's bank and row on a banked fabric.
        let mut snc = SequenceNumberCache::new(cfg(8), 2);
        for line in [3u64, 0, 1, 2, 5, 4] {
            snc.install(addr(line), line as u16 + 1);
        }
        snc.query(addr(0));
        let flushed: Vec<u64> = snc.flush().iter().map(|e| e.line_addr / 128).collect();
        assert_eq!(flushed, vec![2, 4, 0, 3, 1, 5]);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn ragged_shard_split_panics() {
        let _ = SequenceNumberCache::new(cfg(10), 4);
    }
}
