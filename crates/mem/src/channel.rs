//! DRAM channels: a single write-buffered channel and the
//! line-interleaved multi-channel fabric.
//!
//! [`MemoryChannel`] couples one [`MemTimingModel`] occupancy timeline
//! with one [`WriteBuffer`], encapsulating the paper's write-buffer
//! behaviour (§3.4: writes "steal idle bus cycles") so every backend
//! models contention identically, and optionally a [`BankSet`] so
//! row-buffer locality inside the channel matters. [`ChannelSet`]
//! generalises it into `N` independent channels interleaved by line
//! address — the multi-controller memory fabric: transactions to
//! different lines spread across channels and only same-channel traffic
//! queues. Every transaction moves one [`LINE_BYTES`] line.
//!
//! Every demand path takes the transaction's address: with banks
//! disabled (`BankConfig::flat()`, the paper default) the address is
//! only used for routing and the timing is bit-identical to the
//! pre-bank flat occupancy model; with `banks > 1` the address also
//! selects a `(bank, row)` coordinate and the access is charged
//! `row_hit_cycles` or `row_conflict_cycles` against that bank's busy
//! timeline.

use crate::bank::{BankConfig, BankSet};
use crate::timing::{MemTimingModel, TrafficClass, TrafficTotals};
use crate::LINE_BYTES;
use padlock_cache::WriteBuffer;
use padlock_stats::CounterSet;

/// A memory channel shared by demand reads and buffered writebacks.
///
/// Pending writebacks drain at their natural ready times, demand reads
/// queue behind whatever the channel is doing.
///
/// # Examples
///
/// ```
/// use padlock_mem::{MemoryChannel, TrafficClass};
///
/// let mut ch = MemoryChannel::new(100, 8, 8);
/// ch.enqueue_write(0, 50, 0x80, TrafficClass::LineWrite);
/// // A read at cycle 60 sees the drained write occupy the channel first.
/// let done = ch.demand_read(60, 0x100, TrafficClass::LineRead);
/// assert!(done >= 160);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryChannel {
    mem: MemTimingModel,
    write_buffer: WriteBuffer,
    banks: Option<BankSet>,
}

impl MemoryChannel {
    /// Creates a flat (bankless) channel with the given DRAM latency,
    /// per-transaction occupancy, and write-buffer depth.
    pub fn new(mem_latency: u64, occupancy: u64, write_buffer_entries: usize) -> Self {
        Self {
            mem: MemTimingModel::new(mem_latency, occupancy),
            write_buffer: WriteBuffer::new(write_buffer_entries),
            banks: None,
        }
    }

    /// Builder: adds DRAM banks with row-buffer timing beneath the
    /// channel. A flat config (`banks = 1`) leaves the channel exactly
    /// as built — the paper's uniform-latency model.
    pub fn with_banks(mut self, config: BankConfig) -> Self {
        self.banks = if config.is_flat() {
            None
        } else {
            Some(BankSet::new(config))
        };
        self
    }

    /// The underlying DRAM timing model (traffic statistics).
    pub fn mem(&self) -> &MemTimingModel {
        &self.mem
    }

    /// The bank set, when row-buffer modeling is enabled.
    pub fn banks(&self) -> Option<&BankSet> {
        self.banks.as_ref()
    }

    /// Resets traffic statistics; buffered writes survive.
    pub fn reset_stats(&mut self) {
        self.mem.reset_stats();
    }

    /// Latest cycle the channel (bus or any bank) is busy until.
    ///
    /// This is the frontier of *issued* work — buffered-but-unflushed
    /// writebacks have not claimed the bus yet and do not move it.
    pub fn busy_until(&self) -> u64 {
        let bus = self.mem.busy_until();
        match &self.banks {
            Some(banks) => bus.max(banks.busy_until()),
            None => bus,
        }
    }

    /// Issues one read against the bus (and, when banked, `addr`'s
    /// bank); returns the data-ready cycle.
    fn issue_read(&mut self, want: u64, addr: u64, class: TrafficClass) -> u64 {
        match &mut self.banks {
            None => self.mem.read(want, class),
            Some(banks) => {
                let grant = banks.access(want.max(self.mem.busy_until()), addr);
                self.mem.record_row(grant.hit);
                self.mem
                    .read_with_latency(grant.start, class, grant.done - grant.start)
            }
        }
    }

    /// Issues one posted write against the bus (and, when banked,
    /// `addr`'s bank); returns the channel-release cycle.
    fn issue_write(&mut self, want: u64, addr: u64, class: TrafficClass) -> u64 {
        match &mut self.banks {
            None => self.mem.write(want, class),
            Some(banks) => {
                let grant = banks.access(want.max(self.mem.busy_until()), addr);
                self.mem.record_row(grant.hit);
                self.mem.write(grant.start, class)
            }
        }
    }

    /// Drains writes whose data became ready by `now` (they used idle
    /// channel slots at their natural times).
    fn drain_ready(&mut self, now: u64) {
        while let Some(entry) = self.write_buffer.pop_ready(now) {
            self.issue_write(entry.ready_at, entry.addr, TrafficClass::LineWrite);
        }
    }

    /// Issues a demand read of `addr`; returns its completion cycle.
    ///
    /// Demand reads have priority: the read claims the channel first,
    /// and ready writebacks drain *behind* it (they only delay later
    /// transactions, the way a read-priority memory scheduler behaves).
    pub fn demand_read(&mut self, now: u64, addr: u64, class: TrafficClass) -> u64 {
        let done = self.issue_read(now, addr, class);
        self.drain_ready(now);
        done
    }

    /// Issues a demand (blocking) write of `addr`, e.g. a forced
    /// sequence-number spill; returns the channel-release cycle.
    pub fn demand_write(&mut self, now: u64, addr: u64, class: TrafficClass) -> u64 {
        self.drain_ready(now);
        self.issue_write(now, addr, class)
    }

    /// Enqueues a buffered writeback whose data (e.g. ciphertext) is
    /// ready at `ready_at`. A full buffer force-drains its head, which is
    /// the stall the paper attributes to bursts of replacements.
    pub fn enqueue_write(&mut self, now: u64, ready_at: u64, addr: u64, class: TrafficClass) {
        if self.write_buffer.is_full() {
            if let Some(head) = self.write_buffer.pop_ready(u64::MAX) {
                let start = head.ready_at.max(now);
                self.issue_write(start, head.addr, TrafficClass::LineWrite);
            }
        }
        // Buffered entries drain as `LineWrite` traffic, so only line
        // writebacks are buffered; any other class goes to the bus now,
        // once its data is ready, under its own class.
        if class != TrafficClass::LineWrite {
            self.issue_write(now.max(ready_at), addr, class);
        } else {
            let pushed = self.write_buffer.push(addr, ready_at);
            debug_assert!(pushed, "buffer cannot be full after force-drain");
        }
    }

    /// Force-drains every buffered write at measurement wrap-up
    /// (mirroring the SNC's `flush_spills`), so `LineWrite` traffic is
    /// not undercounted by entries still sitting in the buffer when a
    /// window closes. Entries not yet ready start at their ready time;
    /// ready entries start no earlier than `now`. Returns the number of
    /// entries drained.
    pub fn flush_writes(&mut self, now: u64) -> usize {
        let mut drained = 0;
        while let Some(entry) = self.write_buffer.pop_ready(u64::MAX) {
            let start = entry.ready_at.max(now);
            self.issue_write(start, entry.addr, TrafficClass::LineWrite);
            drained += 1;
        }
        drained
    }

    /// Writebacks currently buffered (not yet drained to DRAM).
    pub fn buffered_writes(&self) -> usize {
        self.write_buffer.len()
    }
}

/// `N` independent, line-address-interleaved DRAM channels.
///
/// Each channel owns its own [`MemTimingModel`] occupancy timeline and
/// write buffer (and, when configured, its own [`BankSet`]), so
/// transactions to lines on different channels proceed in parallel and
/// only same-channel traffic queues. Line `i` (at
/// `addr / LINE_BYTES`) lives on channel `i % N`, the same
/// interleaving the shards of `padlock_core`'s `SequenceNumberCache`
/// use — pairing shard `k` with channel `k` in an `N = N`
/// configuration makes each (shard, channel) pair an independent
/// lock-step memory controller.
///
/// With `N = 1` every operation forwards to the single channel
/// untouched, so a one-channel set is bit-identical to a bare
/// [`MemoryChannel`].
///
/// # Examples
///
/// ```
/// use padlock_mem::{ChannelSet, TrafficClass, LINE_BYTES};
///
/// let mut fabric = ChannelSet::new(4, 100, 8, 8);
/// // Four consecutive lines land on four different channels and all
/// // complete at the uncontended latency.
/// for line in 0..4u64 {
///     let done = fabric.demand_read(0, line * u64::from(LINE_BYTES), TrafficClass::LineRead);
///     assert_eq!(done, 100);
/// }
/// assert_eq!(fabric.stats().get("line_reads"), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ChannelSet {
    channels: Vec<MemoryChannel>,
}

impl ChannelSet {
    /// Creates `channels` idle flat channels interleaved every line.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(
        channels: usize,
        mem_latency: u64,
        occupancy: u64,
        write_buffer_entries: usize,
    ) -> Self {
        assert!(channels > 0, "fabric must have at least one channel");
        Self {
            channels: (0..channels)
                .map(|_| MemoryChannel::new(mem_latency, occupancy, write_buffer_entries))
                .collect(),
        }
    }

    /// Builder: adds DRAM banks with row-buffer timing beneath every
    /// channel. A flat config (`banks = 1`) is a no-op — the paper's
    /// uniform-latency fabric.
    pub fn with_banks(mut self, config: BankConfig) -> Self {
        self.channels = self
            .channels
            .into_iter()
            .map(|ch| ch.with_banks(config))
            .collect();
        self
    }

    /// Number of channels in the fabric.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// The channel index serving `addr` (line-interleaved).
    pub fn channel_of(&self, addr: u64) -> usize {
        ((addr / u64::from(LINE_BYTES)) % self.channels.len() as u64) as usize
    }

    /// The full `(channel, bank, row)` coordinate serving `addr`: the
    /// line interleave picks the channel, the row interleave picks the
    /// bank within it, and the row index names the bank's row that
    /// holds the address. With banks disabled every address collapses
    /// to `(channel, 0, 0)`.
    pub fn coordinates_of(&self, addr: u64) -> (usize, usize, u64) {
        let channel = self.channel_of(addr);
        match self.channels[channel].banks() {
            Some(banks) => (channel, banks.bank_of(addr), banks.row_of(addr)),
            None => (channel, 0, 0),
        }
    }

    /// The individual channels (diagnostics; per-channel stats).
    pub fn channels(&self) -> &[MemoryChannel] {
        &self.channels
    }

    /// Latest cycle any channel (bus or bank) is busy until — the
    /// makespan frontier of everything issued so far. Buffered
    /// writebacks have not issued and do not move it.
    pub fn busy_until(&self) -> u64 {
        self.channels.iter().map(|ch| ch.busy_until()).max().unwrap_or(0)
    }

    /// Aggregated traffic statistics summed over every channel.
    pub fn stats(&self) -> CounterSet {
        let mut all = CounterSet::new("mem");
        for ch in &self.channels {
            all.merge(&ch.mem().stats());
        }
        all
    }

    /// The fabric-wide fixed-slot traffic totals summed over every
    /// channel — the cheap `Copy` counterpart of [`ChannelSet::stats`],
    /// taken before and after each scheduling step when shared-fabric
    /// traffic has to be attributed to the compartment that caused it.
    pub fn totals(&self) -> TrafficTotals {
        self.channels
            .iter()
            .fold(TrafficTotals::default(), |acc, ch| {
                acc.plus(ch.mem().totals())
            })
    }

    /// Resets every channel's statistics; buffered writes survive.
    pub fn reset_stats(&mut self) {
        for ch in &mut self.channels {
            ch.reset_stats();
        }
    }

    /// Chooses an FR-FCFS issue order for one window of read requests
    /// `(ready, addr)` against the fabric's *current* bank state:
    /// repeatedly pick the request that can start earliest, preferring
    /// an open-row hit over a conflict at equal start, and the oldest
    /// request at equal start and outcome — the classic
    /// first-ready / row-hit-first / oldest-first policy, scoped to the
    /// window. Returns a permutation of `0..reqs.len()`; issuing
    /// `demand_read`s in that order groups same-row requests
    /// back-to-back (the second streams out of the row the first
    /// opened) without ever idling a bank behind a not-yet-ready
    /// row-mate — the failure mode of a static same-row grouping when
    /// arrivals are spread.
    ///
    /// The order is predicted on a copy of each channel's bus
    /// busy-until and [`BankSet`], taken once per window: each candidate
    /// is ranked by its [`BankSet::grant`], and the chosen request takes
    /// its [`BankSet::access`] on the copy, so the prediction and the
    /// issue share one bank model. Buffered writebacks are ignored (they
    /// backfill behind demand reads anyway) and the fabric is not
    /// mutated; on a flat fabric there are no rows to group and the
    /// identity order is returned, keeping `RowFirst` bit-exact with
    /// `Fifo` there.
    pub fn row_first_order(&self, reqs: &[(u64, u64)]) -> Vec<usize> {
        let mut lanes: Vec<(u64, BankSet)> = Vec::with_capacity(self.channels.len());
        for ch in &self.channels {
            match ch.banks() {
                Some(banks) => lanes.push((ch.mem().busy_until(), banks.clone())),
                None => return (0..reqs.len()).collect(),
            }
        }
        let mut pending: Vec<usize> = (0..reqs.len()).collect();
        let mut order = Vec::with_capacity(reqs.len());
        while let Some((pos, _)) = pending
            .iter()
            .enumerate()
            .map(|(pos, &i)| {
                let (ready, addr) = reqs[i];
                let (bus, banks) = &lanes[self.channel_of(addr)];
                let grant = banks.grant(ready.max(*bus), addr);
                (pos, (grant.start, !grant.hit, i))
            })
            .min_by_key(|&(_, key)| key)
        {
            let i = pending.swap_remove(pos);
            let (ready, addr) = reqs[i];
            let ch = self.channel_of(addr);
            let (bus, banks) = &mut lanes[ch];
            let grant = banks.access(ready.max(*bus), addr);
            *bus = grant.start + self.channels[ch].mem().occupancy();
            order.push(i);
        }
        order
    }

    /// Issues a demand read of `addr`'s line on its channel; returns
    /// the completion cycle.
    pub fn demand_read(&mut self, now: u64, addr: u64, class: TrafficClass) -> u64 {
        let ch = self.channel_of(addr);
        self.channels[ch].demand_read(now, addr, class)
    }

    /// Issues a demand (blocking) write on `addr`'s channel; returns
    /// the channel-release cycle.
    pub fn demand_write(&mut self, now: u64, addr: u64, class: TrafficClass) -> u64 {
        let ch = self.channel_of(addr);
        self.channels[ch].demand_write(now, addr, class)
    }

    /// Issues a demand write on an *explicit* channel, bypassing the
    /// address interleave — for controller-managed placement such as
    /// channel-striped sequence-number-table spills, where the
    /// controller owns the table layout and stripes packed lines over
    /// the fabric deliberately.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn demand_write_on(
        &mut self,
        channel: usize,
        now: u64,
        addr: u64,
        class: TrafficClass,
    ) -> u64 {
        self.channels[channel].demand_write(now, addr, class)
    }

    /// Enqueues a buffered writeback in `addr`'s channel's write
    /// buffer.
    pub fn enqueue_write(&mut self, now: u64, ready_at: u64, addr: u64, class: TrafficClass) {
        let ch = self.channel_of(addr);
        self.channels[ch].enqueue_write(now, ready_at, addr, class);
    }

    /// Force-drains every channel's buffered writes at measurement
    /// wrap-up; returns the total number of entries drained.
    pub fn flush_writes(&mut self, now: u64) -> usize {
        self.channels.iter_mut().map(|ch| ch.flush_writes(now)).sum()
    }

    /// Writebacks buffered across all channels.
    pub fn buffered_writes(&self) -> usize {
        self.channels.iter().map(|ch| ch.buffered_writes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::{DEFAULT_ROW_CONFLICT_CYCLES, DEFAULT_ROW_HIT_CYCLES, ROW_LINES};

    #[test]
    fn channel_reads_have_priority_over_pending_writes() {
        let mut ch = MemoryChannel::new(100, 8, 8);
        ch.enqueue_write(0, 90, 0x80, TrafficClass::LineWrite);
        // Read at 92: it claims the channel first (done at 192); the
        // ready write drains behind it and only delays *later* traffic.
        let done = ch.demand_read(92, 0x100, TrafficClass::LineRead);
        assert_eq!(done, 192);
        let next = ch.demand_read(92, 0x100, TrafficClass::LineRead);
        assert!(next > 200, "second read queues behind the drained write");
    }

    #[test]
    fn channel_full_buffer_force_drains() {
        let mut ch = MemoryChannel::new(100, 8, 2);
        ch.enqueue_write(0, 1000, 1, TrafficClass::LineWrite);
        ch.enqueue_write(0, 1000, 2, TrafficClass::LineWrite);
        // Third write forces the head out even though not ready.
        ch.enqueue_write(5, 1000, 3, TrafficClass::LineWrite);
        assert_eq!(ch.mem().stats().get("line_writes"), 1);
    }

    #[test]
    fn flush_writes_drains_everything_counting_traffic() {
        let mut ch = MemoryChannel::new(100, 8, 8);
        ch.enqueue_write(0, 50, 0x00, TrafficClass::LineWrite);
        ch.enqueue_write(0, 5_000, 0x80, TrafficClass::LineWrite);
        assert_eq!(ch.buffered_writes(), 2);
        assert_eq!(ch.mem().stats().get("line_writes"), 0);
        // Buffered writes have not claimed the bus yet.
        assert_eq!(ch.busy_until(), 0);
        assert_eq!(ch.flush_writes(1_000), 2);
        assert_eq!(ch.buffered_writes(), 0);
        assert_eq!(ch.mem().stats().get("line_writes"), 2);
        // The not-yet-ready entry started at its natural ready time.
        assert!(ch.mem().busy_until() >= 5_000);
        // Idempotent once drained.
        assert_eq!(ch.flush_writes(2_000), 0);
    }

    #[test]
    fn one_channel_set_matches_bare_channel() {
        let mut set = ChannelSet::new(1, 100, 8, 8);
        let mut bare = MemoryChannel::new(100, 8, 8);
        for line in 0..6u64 {
            let addr = line * 128;
            set.enqueue_write(line, line + 60, addr, TrafficClass::LineWrite);
            bare.enqueue_write(line, line + 60, addr, TrafficClass::LineWrite);
            assert_eq!(
                set.demand_read(line * 3, addr, TrafficClass::LineRead),
                bare.demand_read(line * 3, addr, TrafficClass::LineRead)
            );
        }
        let set_stats: Vec<(String, u64)> = set
            .stats()
            .iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let bare_stats: Vec<(String, u64)> = bare
            .mem()
            .stats()
            .iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        assert_eq!(set_stats, bare_stats);
    }

    #[test]
    fn lines_interleave_round_robin() {
        let set = ChannelSet::new(4, 100, 8, 8);
        assert_eq!(set.channel_of(0), 0);
        assert_eq!(set.channel_of(127), 0);
        assert_eq!(set.channel_of(128), 1);
        assert_eq!(set.channel_of(5 * 128), 1);
        assert_eq!(set.channel_of(7 * 128), 3);
        assert_eq!(set.num_channels(), 4);
    }

    #[test]
    fn independent_channels_do_not_contend() {
        let mut set = ChannelSet::new(2, 100, 8, 8);
        // Same channel: second read queues one occupancy slot behind.
        assert_eq!(set.demand_read(0, 0, TrafficClass::LineRead), 100);
        assert_eq!(set.demand_read(0, 2 * 128, TrafficClass::LineRead), 108);
        // Other channel: unaffected by channel 0's queue.
        assert_eq!(set.demand_read(0, 128, TrafficClass::LineRead), 100);
    }

    #[test]
    fn set_flush_writes_covers_every_channel() {
        let mut set = ChannelSet::new(2, 100, 8, 8);
        set.enqueue_write(0, 10_000, 0, TrafficClass::LineWrite);
        set.enqueue_write(0, 10_000, 128, TrafficClass::LineWrite);
        assert_eq!(set.buffered_writes(), 2);
        assert_eq!(set.flush_writes(0), 2);
        assert_eq!(set.stats().get("line_writes"), 2);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = ChannelSet::new(0, 100, 8, 8);
    }

    // ---- bank-aware paths ----

    const ROW: u64 = 128 * ROW_LINES; // 2KB

    fn banked_channel(banks: usize) -> MemoryChannel {
        MemoryChannel::new(100, 8, 8).with_banks(BankConfig::banked(banks))
    }

    #[test]
    fn flat_bank_config_keeps_the_flat_model() {
        let mut flat = MemoryChannel::new(100, 8, 8);
        let mut one_bank = MemoryChannel::new(100, 8, 8).with_banks(BankConfig::flat());
        assert!(one_bank.banks().is_none());
        for line in 0..8u64 {
            assert_eq!(
                flat.demand_read(line, line * 128, TrafficClass::LineRead),
                one_bank.demand_read(line, line * 128, TrafficClass::LineRead)
            );
        }
    }

    #[test]
    fn open_row_reads_are_hits_and_cheaper() {
        let mut ch = banked_channel(4);
        // Cold: conflict.
        let first = ch.demand_read(0, 0, TrafficClass::LineRead);
        assert_eq!(first, DEFAULT_ROW_CONFLICT_CYCLES);
        // Next line of the same row, issued after: row hit streamed
        // behind the bus slot.
        let second = ch.demand_read(first, 128, TrafficClass::LineRead);
        assert_eq!(second, first + DEFAULT_ROW_HIT_CYCLES);
        assert_eq!(ch.mem().stats().get("row_hits"), 1);
        assert_eq!(ch.mem().stats().get("row_conflicts"), 1);
    }

    #[test]
    fn different_banks_overlap_their_activates() {
        let mut ch = banked_channel(4);
        // Rows 0 and 1 live in banks 0 and 1: both conflict cold, but
        // their activates overlap — only the 8-cycle bus slot queues.
        let a = ch.demand_read(0, 0, TrafficClass::LineRead);
        let b = ch.demand_read(0, ROW, TrafficClass::LineRead);
        assert_eq!(a, DEFAULT_ROW_CONFLICT_CYCLES);
        assert_eq!(b, 8 + DEFAULT_ROW_CONFLICT_CYCLES);
        // Same bank, different row (4 banks: row 4 -> bank 0): waits
        // for bank 0's activate, then conflicts again.
        let c = ch.demand_read(0, 4 * ROW, TrafficClass::LineRead);
        assert_eq!(c, a + DEFAULT_ROW_CONFLICT_CYCLES);
    }

    #[test]
    fn banked_writes_touch_rows_too() {
        let mut ch = banked_channel(2);
        ch.demand_write(0, 0, TrafficClass::LineWrite);
        // The write opened row 0; a read of it hits.
        let done = ch.demand_read(500, 128, TrafficClass::LineRead);
        assert_eq!(done, 500 + DEFAULT_ROW_HIT_CYCLES);
        assert_eq!(ch.mem().stats().get("row_hits"), 1);
    }

    #[test]
    fn banked_buffered_writes_drain_through_their_bank() {
        let mut ch = banked_channel(2);
        ch.enqueue_write(0, 50, 0x80, TrafficClass::LineWrite);
        assert_eq!(ch.flush_writes(60), 1);
        // The drained write conflicted cold and opened its row.
        assert_eq!(ch.mem().stats().get("row_conflicts"), 1);
        assert!(ch.busy_until() >= 60 + DEFAULT_ROW_CONFLICT_CYCLES);
    }

    #[test]
    fn set_coordinates_partition_channel_then_bank_then_row() {
        let set = ChannelSet::new(2, 100, 8, 8).with_banks(BankConfig::banked(4));
        // Line interleave picks the channel; row interleave the bank;
        // the row index names the open-row register at stake.
        assert_eq!(set.coordinates_of(0), (0, 0, 0));
        assert_eq!(set.coordinates_of(128), (1, 0, 0));
        assert_eq!(set.coordinates_of(ROW), (0, 1, 1));
        assert_eq!(set.coordinates_of(4 * ROW + 128), (1, 0, 4));
        // Flat set: bank and row coordinates pinned to 0.
        let flat = ChannelSet::new(2, 100, 8, 8);
        assert_eq!(flat.coordinates_of(3 * ROW + 128), (1, 0, 0));
    }

    #[test]
    fn demand_write_on_routes_to_the_named_channel() {
        let mut set = ChannelSet::new(4, 100, 8, 8);
        set.demand_write_on(2, 0, 0, TrafficClass::SeqWrite);
        assert_eq!(set.channels()[2].mem().stats().get("seq_writes"), 1);
        assert_eq!(set.channels()[0].mem().stats().get("seq_writes"), 0);
        assert!(set.busy_until() >= 8);
    }
}
