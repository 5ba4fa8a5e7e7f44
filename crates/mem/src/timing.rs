//! Flat-latency DRAM timing with per-class traffic accounting.

use padlock_stats::CounterSet;
use std::fmt;

/// Classifies a memory transaction for traffic accounting.
///
/// The paper's Fig. 9 reports SNC-induced traffic (sequence-number reads
/// and spills) as a percentage of baseline L2↔memory traffic, so the model
/// tags every transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// A demand line fill (L2 read miss).
    LineRead,
    /// A dirty-line writeback from the write buffer.
    LineWrite,
    /// A sequence-number fetch on an SNC miss (LRU policy).
    SeqRead,
    /// A sequence-number spill of an evicted SNC entry.
    SeqWrite,
}

impl TrafficClass {
    /// Every class, in discriminant order.
    const ALL: [TrafficClass; 4] = [
        TrafficClass::LineRead,
        TrafficClass::LineWrite,
        TrafficClass::SeqRead,
        TrafficClass::SeqWrite,
    ];

    /// The event-counter name this class records under (`line_reads`,
    /// `seq_writes`, ...), shared by every timing model so aggregated
    /// and per-channel statistics stay comparable.
    pub fn counter(self) -> &'static str {
        match self {
            TrafficClass::LineRead => "line_reads",
            TrafficClass::LineWrite => "line_writes",
            TrafficClass::SeqRead => "seq_reads",
            TrafficClass::SeqWrite => "seq_writes",
        }
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.counter())
    }
}

/// One timing model's fixed-slot traffic totals: one transaction count
/// per [`TrafficClass`] (indexed by the class discriminant) plus the
/// row-buffer outcomes. Every transaction moves one
/// [`LINE_BYTES`](crate::LINE_BYTES) line, so the counts are the whole
/// of the traffic. The model bumps them as plain integer fields on the
/// hot path and renders them as a [`CounterSet`] only when a caller
/// asks.
///
/// Unlike [`MemTimingModel::stats`], which allocates that rendering,
/// a [`MemTimingModel::totals`] snapshot is a plain `Copy` struct — cheap enough
/// to take before and after every scheduling step, which is how the
/// multi-compartment server attributes shared-fabric traffic to the
/// compartment that generated it (delta = after [`minus`] before; the
/// deltas partition the aggregate exactly because every counter is
/// monotone).
///
/// [`minus`]: TrafficTotals::minus
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficTotals {
    /// Transactions per [`TrafficClass`] discriminant.
    pub counts: [u64; 4],
    /// Row-buffer hits (banked channels only).
    pub row_hits: u64,
    /// Row-buffer conflicts (banked channels only).
    pub row_conflicts: u64,
}

impl TrafficTotals {
    /// The element-wise difference `self - earlier`; `earlier` must be
    /// an older snapshot of the same monotone counters.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, via underflow) if `earlier` is not an
    /// older snapshot of the same counters.
    pub fn minus(self, earlier: Self) -> Self {
        let mut out = self;
        for i in 0..out.counts.len() {
            out.counts[i] -= earlier.counts[i];
        }
        out.row_hits -= earlier.row_hits;
        out.row_conflicts -= earlier.row_conflicts;
        out
    }

    /// The element-wise sum `self + other` (reassembling compartment
    /// deltas back into the fabric aggregate).
    pub fn plus(self, other: Self) -> Self {
        let mut out = self;
        for i in 0..out.counts.len() {
            out.counts[i] += other.counts[i];
        }
        out.row_hits += other.row_hits;
        out.row_conflicts += other.row_conflicts;
        out
    }

    /// The transaction count of one class.
    pub fn count(&self, class: TrafficClass) -> u64 {
        self.counts[class as usize]
    }

    /// All transactions across classes.
    pub fn transactions(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn to_counters(self, prefix: &str) -> CounterSet {
        // Only touched counters appear, matching the shape the
        // incrementally-built `CounterSet` had before the fixed-slot
        // rewrite (readers use `get`, which defaults absent names to 0).
        let mut set = CounterSet::new(prefix);
        let named = TrafficClass::ALL
            .map(|class| (class.counter(), self.count(class)))
            .into_iter()
            .chain([
                ("transactions", self.transactions()),
                ("row_hits", self.row_hits),
                ("row_conflicts", self.row_conflicts),
            ]);
        for (name, n) in named {
            if n > 0 {
                set.add(name, n);
            }
        }
        set
    }
}

/// The DRAM + channel timing model.
///
/// Reads complete `access_latency` cycles after they start; every
/// transaction occupies the shared channel for `occupancy` cycles, so a
/// burst of writebacks can delay a following demand read (the paper's
/// §4.1 concern that SNC replacements "compete with other memory requests
/// that are critical"). Every transaction is one line.
///
/// # Examples
///
/// ```
/// use padlock_mem::{MemTimingModel, TrafficClass};
///
/// let mut mem = MemTimingModel::new(100, 8);
/// // A write at cycle 0 occupies the channel until cycle 8,
/// let wdone = mem.write(0, TrafficClass::LineWrite);
/// assert_eq!(wdone, 8);
/// // ...so a read issued at cycle 0 starts at 8 and completes at 108.
/// let rdone = mem.read(0, TrafficClass::LineRead);
/// assert_eq!(rdone, 108);
/// ```
#[derive(Debug, Clone)]
pub struct MemTimingModel {
    access_latency: u64,
    occupancy: u64,
    busy_until: u64,
    stats: TrafficTotals,
}

impl MemTimingModel {
    /// Creates a model with the given access latency and per-transaction
    /// channel occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `access_latency` is zero.
    pub fn new(access_latency: u64, occupancy: u64) -> Self {
        assert!(access_latency > 0, "memory latency must be positive");
        Self {
            access_latency,
            occupancy,
            busy_until: 0,
            stats: TrafficTotals::default(),
        }
    }

    /// The configured per-transaction channel occupancy.
    pub fn occupancy(&self) -> u64 {
        self.occupancy
    }

    /// Cycle until which the channel is busy.
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// Traffic statistics (`line_reads`, `seq_writes`, `transactions`,
    /// ...), rendered on demand from the fixed-slot fields.
    pub fn stats(&self) -> CounterSet {
        self.stats.to_counters("mem")
    }

    /// The fixed-slot traffic totals as a `Copy` snapshot — the cheap
    /// counterpart of [`MemTimingModel::stats`] for per-step delta
    /// accounting.
    pub fn totals(&self) -> TrafficTotals {
        self.stats
    }

    /// Resets statistics (not channel state).
    pub fn reset_stats(&mut self) {
        self.stats = TrafficTotals::default();
    }

    /// Claims the channel's next occupancy slot at or after `now` for
    /// one `class` transaction; returns the slot's start cycle.
    fn claim(&mut self, now: u64, class: TrafficClass) -> u64 {
        let start = now.max(self.busy_until);
        self.busy_until = start + self.occupancy;
        self.stats.counts[class as usize] += 1;
        start
    }

    /// Issues a read at `now`; returns its completion cycle.
    pub fn read(&mut self, now: u64, class: TrafficClass) -> u64 {
        self.claim(now, class) + self.access_latency
    }

    /// Issues a read at `now` whose data arrives `latency` cycles after
    /// it starts, instead of the flat access latency — the entry point
    /// the bank layer uses to charge row-hit or row-conflict timing
    /// while keeping channel-occupancy accounting identical.
    pub fn read_with_latency(&mut self, now: u64, class: TrafficClass, latency: u64) -> u64 {
        self.claim(now, class) + latency
    }

    /// Records a row-buffer outcome (`row_hits` / `row_conflicts`) in
    /// this channel's statistics; only banked channels call this.
    pub fn record_row(&mut self, hit: bool) {
        if hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_conflicts += 1;
        }
    }

    /// Issues a write at `now`; returns the cycle the channel is released
    /// (writes are posted — no one waits for DRAM commit).
    pub fn write(&mut self, now: u64, class: TrafficClass) -> u64 {
        self.claim(now, class);
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_read_takes_access_latency() {
        let mut m = MemTimingModel::new(100, 8);
        assert_eq!(m.read(10, TrafficClass::LineRead), 110);
    }

    #[test]
    fn channel_occupancy_queues_transactions() {
        let mut m = MemTimingModel::new(100, 8);
        assert_eq!(m.read(0, TrafficClass::LineRead), 100);
        // Second read queues behind the first transfer slot.
        assert_eq!(m.read(0, TrafficClass::LineRead), 108);
        assert_eq!(m.read(0, TrafficClass::LineRead), 116);
    }

    #[test]
    fn writes_are_posted() {
        let mut m = MemTimingModel::new(100, 8);
        let done = m.write(5, TrafficClass::LineWrite);
        assert_eq!(done, 13);
        assert_eq!(m.busy_until(), 13);
    }

    #[test]
    fn zero_occupancy_disables_contention() {
        let mut m = MemTimingModel::new(100, 0);
        assert_eq!(m.read(0, TrafficClass::LineRead), 100);
        assert_eq!(m.read(0, TrafficClass::LineRead), 100);
    }

    #[test]
    fn traffic_classes_are_tracked_separately() {
        let mut m = MemTimingModel::new(100, 8);
        m.read(0, TrafficClass::LineRead);
        m.write(0, TrafficClass::LineWrite);
        m.read(0, TrafficClass::SeqRead);
        m.write(0, TrafficClass::SeqWrite);
        assert_eq!(m.stats().get("line_reads"), 1);
        assert_eq!(m.stats().get("line_writes"), 1);
        assert_eq!(m.stats().get("seq_reads"), 1);
        assert_eq!(m.stats().get("seq_writes"), 1);
        assert_eq!(m.stats().get("transactions"), 4);
    }

    #[test]
    fn reset_stats_preserves_channel_state() {
        let mut m = MemTimingModel::new(100, 8);
        m.read(0, TrafficClass::LineRead);
        let busy = m.busy_until();
        m.reset_stats();
        assert_eq!(m.busy_until(), busy);
        assert_eq!(m.stats().get("line_reads"), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_latency_rejected() {
        let _ = MemTimingModel::new(0, 8);
    }
}
