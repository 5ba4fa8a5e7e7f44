//! Fixed-slot statistics of the set-associative cache.

use padlock_stats::CounterSet;

/// Fixed-slot access statistics.
///
/// The cache hot paths bump plain `u64` fields — no name lookup and no
/// allocation per event; [`CacheStats::to_counters`] renders the
/// familiar `hits`/`misses`/`evictions`/`writebacks` [`CounterSet`]
/// view on demand (once per measurement, not once per access).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that found the line resident.
    pub hits: u64,
    /// Accesses that had to allocate.
    pub misses: u64,
    /// Lines pushed out to make room.
    pub evictions: u64,
    /// Evicted lines that were dirty (need a writeback).
    pub writebacks: u64,
}

impl CacheStats {
    /// Renders the fields as a named counter set.
    pub fn to_counters(self, prefix: &str) -> CounterSet {
        let mut set = CounterSet::new(prefix);
        set.add("hits", self.hits);
        set.add("misses", self.misses);
        set.add("evictions", self.evictions);
        set.add("writebacks", self.writebacks);
        set
    }

    /// Zeroes every field (e.g. after warm-up).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}
