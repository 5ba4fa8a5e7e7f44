//! DRAM banks and row buffers beneath a memory channel.
//!
//! The flat [`crate::MemTimingModel`] charges every access the same
//! latency, so locality *inside* a channel is invisible: a pointer walk
//! that ricochets across the DRAM array costs the same as a sweep that
//! stays in one open row. Real DRAM is organised as independent banks,
//! each with a row buffer (sense amplifiers) holding the last-activated
//! row: an access to the open row is a **row hit** (column access
//! only), an access to any other row is a **row conflict** (precharge
//! the open row, activate the new one, then the column access).
//!
//! [`BankSet`] models that layer for one channel: `banks` banks, each
//! with an open-row register and its own busy timeline, so
//!
//! * same-row streams pay `row_hit_cycles` per access,
//! * row-hopping streams pay `row_conflict_cycles` per access, and
//! * concurrent accesses to *different* banks overlap their
//!   precharge/activate phases (bank-level parallelism) while accesses
//!   to the same bank serialise on the bank's busy timeline.
//!
//! The address map is derived from the same granularity as the channel
//! fabric's line interleave: [`ROW_LINES`] consecutive lines of the
//! *global* address space form one row (`row = addr / ROW_BYTES`), and
//! rows rotate over banks (`bank = row % banks`). Together with the
//! [`crate::ChannelSet`] line interleave this gives every address
//! exactly one `(channel, bank, row)` coordinate. Because channels
//! interleave at line granularity *within* a row, a row's lines spread
//! over all `N` channels and each channel's open-row register covers
//! its `ROW_LINES / N` slice — exactly the row-reach dilution a real
//! cache-line-interleaved multi-channel system pays, and why wider
//! fabrics trade row-hit rate for channel parallelism.
//!
//! A [`BankConfig`] with `banks = 1` (the paper default) is *flat*:
//! [`crate::MemoryChannel`] bypasses the bank layer entirely and the
//! fabric is bit-identical to the pre-bank occupancy model — the
//! `banks_vs_seed` differential test locks this down.
//!
//! # Examples
//!
//! ```
//! use padlock_mem::{BankConfig, BankSet};
//!
//! let mut banks = BankSet::new(BankConfig::banked(4));
//! // Cold access: row conflict (precharge + activate + CAS).
//! let first = banks.access(0, 0x1000);
//! assert!(!first.hit);
//! // Same row again while it is open: row hit, strictly cheaper.
//! let second = banks.access(first.done, 0x1010);
//! assert!(second.hit);
//! assert!(second.done - second.start < first.done - first.start);
//! ```

/// Lines per DRAM row: with the paper's 128-byte L2 lines this is a
/// 2KB row buffer, the row size of the SDRAM parts contemporary with
/// the paper's machine.
pub const ROW_LINES: u64 = 16;

/// Bytes per DRAM row: [`ROW_LINES`] lines of
/// [`LINE_BYTES`](crate::LINE_BYTES) each.
pub const ROW_BYTES: u64 = ROW_LINES * crate::LINE_BYTES as u64;

/// Default row-hit (column access) latency in cycles. Cheaper than the
/// paper's flat 100-cycle access: an open row skips precharge and
/// activate.
pub const DEFAULT_ROW_HIT_CYCLES: u64 = 60;

/// Default row-conflict latency in cycles: precharge the open row,
/// activate the new one, then the column access. Dearer than the flat
/// 100-cycle access the paper averages over.
pub const DEFAULT_ROW_CONFLICT_CYCLES: u64 = 140;

/// Default closed-page access latency in cycles: activate + column
/// access against an already-precharged bank. Exactly the paper's flat
/// 100-cycle access — a closed-page DRAM never tracks row state, which
/// is the uniform-latency idealisation the paper assumes.
pub const DEFAULT_ROW_CLOSED_CYCLES: u64 = 100;

/// What a bank does with its row after an access completes.
///
/// * `Open` (the default) leaves the row latched in the sense
///   amplifiers: the next access to the same row is a cheap hit, the
///   next access to any other row pays precharge + activate.
/// * `Closed` auto-precharges after every access: no access is ever a
///   row hit, but none ever waits on a precharge either — every access
///   costs the flat activate + column latency
///   ([`BankConfig::row_closed_cycles`]). Random traffic with no
///   open-row reuse (the `rstride` walk) trades its nonexistent hits
///   for cheaper conflicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Leave the accessed row open behind every access.
    #[default]
    Open,
    /// Auto-precharge after every access (the row is never left open).
    Closed,
}

impl std::fmt::Display for PagePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PagePolicy::Open => write!(f, "open"),
            PagePolicy::Closed => write!(f, "closed"),
        }
    }
}

/// Configuration of one channel's bank set.
///
/// `banks = 1` means *flat*: the channel keeps the pre-bank model where
/// every access costs the channel's uniform access latency and only bus
/// occupancy queues. `banks > 1` enables row-buffer timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankConfig {
    /// Banks per channel (`1` = flat, the paper's model).
    pub banks: usize,
    /// Latency of an access that finds its row open.
    pub row_hit_cycles: u64,
    /// Latency of an access that must precharge + activate first.
    pub row_conflict_cycles: u64,
    /// Latency of every access under the [`PagePolicy::Closed`] policy
    /// (activate + column access, the bank having auto-precharged).
    pub row_closed_cycles: u64,
    /// Whether rows stay open between accesses or auto-precharge.
    pub page_policy: PagePolicy,
}

impl BankConfig {
    /// The flat (bankless) configuration the paper assumes.
    pub fn flat() -> Self {
        Self::banked(1)
    }

    /// A configuration of `banks` banks with the default row timings.
    pub fn banked(banks: usize) -> Self {
        Self {
            banks,
            row_hit_cycles: DEFAULT_ROW_HIT_CYCLES,
            row_conflict_cycles: DEFAULT_ROW_CONFLICT_CYCLES,
            row_closed_cycles: DEFAULT_ROW_CLOSED_CYCLES,
            page_policy: PagePolicy::Open,
        }
    }

    /// Builder: override the row hit/conflict latencies. The
    /// closed-page latency is clamped into the new `[hit, conflict]`
    /// band (it models a strict subset of the conflict's work and a
    /// strict superset of the hit's).
    pub fn with_row_cycles(mut self, hit: u64, conflict: u64) -> Self {
        self.row_hit_cycles = hit;
        self.row_conflict_cycles = conflict;
        if hit <= conflict {
            self.row_closed_cycles = self.row_closed_cycles.clamp(hit, conflict);
        }
        self
    }

    /// Builder: set the page policy.
    pub fn with_page_policy(mut self, policy: PagePolicy) -> Self {
        self.page_policy = policy;
        self
    }

    /// Builder: override the closed-page access latency.
    pub fn with_closed_cycles(mut self, closed: u64) -> Self {
        self.row_closed_cycles = closed;
        self
    }

    /// Whether this configuration degenerates to the flat occupancy
    /// model (no bank state at all).
    pub fn is_flat(&self) -> bool {
        self.banks <= 1
    }
}

impl Default for BankConfig {
    fn default() -> Self {
        Self::flat()
    }
}

/// One bank's row buffer and busy timeline.
#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

/// The scheduling grant for one bank access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankGrant {
    /// Cycle the access actually starts (bank free and request ready).
    pub start: u64,
    /// Cycle the data is at the pins.
    pub done: u64,
    /// Whether the access hit the open row.
    pub hit: bool,
    /// The bank that served it.
    pub bank: usize,
}

/// One channel's banks with open-row registers and busy timelines.
#[derive(Debug, Clone)]
pub struct BankSet {
    config: BankConfig,
    banks: Vec<Bank>,
}

impl BankSet {
    /// Creates idle banks with every row closed.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero, or if the latencies are not ordered
    /// `hit <= closed <= conflict` (a hit skips the activate a
    /// closed-page access pays, which in turn skips the precharge a
    /// conflict pays — each is a strict subset of the next's work).
    pub fn new(config: BankConfig) -> Self {
        assert!(config.banks > 0, "a channel needs at least one bank");
        assert!(
            config.row_hit_cycles <= config.row_conflict_cycles,
            "a row hit cannot cost more than a conflict"
        );
        assert!(
            config.row_hit_cycles <= config.row_closed_cycles
                && config.row_closed_cycles <= config.row_conflict_cycles,
            "closed-page access must cost between a hit and a conflict"
        );
        Self {
            banks: vec![
                Bank {
                    open_row: None,
                    busy_until: 0,
                };
                config.banks
            ],
            config,
        }
    }

    /// The global row index holding `addr`.
    pub fn row_of(&self, addr: u64) -> u64 {
        addr / ROW_BYTES
    }

    /// The bank serving `addr` (rows rotate over banks).
    pub fn bank_of(&self, addr: u64) -> usize {
        (self.row_of(addr) % self.banks.len() as u64) as usize
    }

    /// Latest cycle any bank is busy until.
    pub fn busy_until(&self) -> u64 {
        self.banks.iter().map(|b| b.busy_until).max().unwrap_or(0)
    }

    /// The row bank `index` currently holds open (`None` when
    /// precharged — always `None` under [`PagePolicy::Closed`]).
    pub fn open_row(&self, index: usize) -> Option<u64> {
        self.banks[index].open_row
    }

    /// The grant [`BankSet::access`] would make for `addr` wanted at
    /// `ready`, without taking it: the access waits for its bank and is
    /// charged the row-hit or row-conflict latency — or, under
    /// [`PagePolicy::Closed`], the flat activate + column latency, so it
    /// is never a hit and never waits on a precharge.
    pub fn grant(&self, ready: u64, addr: u64) -> BankGrant {
        let row = self.row_of(addr);
        let index = (row % self.banks.len() as u64) as usize;
        let bank = self.banks[index];
        let start = ready.max(bank.busy_until);
        let (hit, latency) = match self.config.page_policy {
            PagePolicy::Open if bank.open_row == Some(row) => (true, self.config.row_hit_cycles),
            PagePolicy::Open => (false, self.config.row_conflict_cycles),
            PagePolicy::Closed => (false, self.config.row_closed_cycles),
        };
        BankGrant {
            start,
            done: start + latency,
            hit,
            bank: index,
        }
    }

    /// Schedules one access wanted at `ready`: takes its
    /// [`BankSet::grant`], keeps the bank busy until the access is done,
    /// and leaves the row open behind it — or, under
    /// [`PagePolicy::Closed`], auto-precharges.
    pub fn access(&mut self, ready: u64, addr: u64) -> BankGrant {
        let grant = self.grant(ready, addr);
        let open_row = (self.config.page_policy == PagePolicy::Open).then(|| self.row_of(addr));
        let bank = &mut self.banks[grant.bank];
        bank.busy_until = grant.done;
        bank.open_row = open_row;
        grant
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(banks: usize) -> BankConfig {
        BankConfig::banked(banks)
    }

    #[test]
    fn first_touch_conflicts_then_hits_in_the_open_row() {
        let mut b = BankSet::new(cfg(4));
        let first = b.access(0, 0);
        assert!(!first.hit);
        assert_eq!(first.done - first.start, DEFAULT_ROW_CONFLICT_CYCLES);
        // Another line of the same 2KB row: hit.
        let second = b.access(first.done, 15 * 128);
        assert!(second.hit);
        assert_eq!(second.done - second.start, DEFAULT_ROW_HIT_CYCLES);
        // The next row lives in the next bank — and conflicts cold.
        let third = b.access(0, 16 * 128);
        assert_eq!(third.bank, 1);
        assert!(!third.hit);
    }

    #[test]
    fn same_bank_serialises_other_banks_overlap() {
        let mut b = BankSet::new(cfg(2));
        let a = b.access(0, 0); // bank 0
        // Same bank, different row (row 2 -> bank 0): waits, conflicts.
        let c = b.access(0, 2 * 16 * 128);
        assert_eq!(c.bank, 0);
        assert_eq!(c.start, a.done);
        // Other bank: starts immediately in parallel.
        let d = b.access(0, 16 * 128);
        assert_eq!(d.bank, 1);
        assert_eq!(d.start, 0);
    }

    #[test]
    fn row_conflict_closes_the_previous_row() {
        let mut b = BankSet::new(cfg(1));
        b.access(0, 0); // opens row 0
        let conflict = b.access(1_000, 16 * 128); // row 1, same bank
        assert!(!conflict.hit);
        // Row 0 is no longer open.
        let back = b.access(2_000, 0);
        assert!(!back.hit);
    }

    #[test]
    fn map_is_a_function_of_the_row() {
        let b = BankSet::new(cfg(4));
        for addr in [0u64, 127, 2047] {
            assert_eq!(b.bank_of(addr), 0);
            assert_eq!(b.row_of(addr), 0);
        }
        assert_eq!(b.bank_of(2048), 1);
        assert_eq!(b.bank_of(4 * 2048), 0);
        assert_eq!(b.row_of(9 * 2048 + 5), 9);
    }

    #[test]
    fn flat_config_is_marked_flat() {
        assert!(BankConfig::flat().is_flat());
        assert!(!cfg(2).is_flat());
        assert!(BankConfig::default().is_flat());
    }

    #[test]
    fn closed_page_never_hits_and_charges_the_flat_latency() {
        let mut b = BankSet::new(cfg(2).with_page_policy(PagePolicy::Closed));
        // Even an immediate same-row repeat is not a hit: the bank
        // auto-precharged behind the first access.
        let first = b.access(0, 0);
        assert!(!first.hit);
        assert_eq!(first.done - first.start, DEFAULT_ROW_CLOSED_CYCLES);
        let again = b.access(first.done, 64);
        assert!(!again.hit);
        assert_eq!(again.done - again.start, DEFAULT_ROW_CLOSED_CYCLES);
        // Same-bank serialisation is unchanged by the policy.
        let queued = b.access(0, 2 * 16 * 128);
        assert_eq!(queued.bank, 0);
        assert_eq!(queued.start, again.done);
    }

    #[test]
    fn closed_page_beats_open_page_on_row_hopping_traffic() {
        // A single-bank row-hop stream: open-page pays the conflict
        // latency every access, closed-page the cheaper flat latency.
        let mut open = BankSet::new(cfg(1));
        let mut closed = BankSet::new(cfg(1).with_page_policy(PagePolicy::Closed));
        let mut open_done = 0;
        let mut closed_done = 0;
        for row in 0..8u64 {
            open_done = open.access(open_done, row * 16 * 128).done;
            closed_done = closed.access(closed_done, row * 16 * 128).done;
        }
        assert_eq!(open_done, 8 * DEFAULT_ROW_CONFLICT_CYCLES);
        assert_eq!(closed_done, 8 * DEFAULT_ROW_CLOSED_CYCLES);
    }

    #[test]
    #[should_panic(expected = "cannot cost more")]
    fn hit_dearer_than_conflict_rejected() {
        let _ = BankSet::new(cfg(2).with_row_cycles(100, 50));
    }

    #[test]
    #[should_panic(expected = "between a hit and a conflict")]
    fn closed_latency_outside_hit_conflict_band_rejected() {
        let _ = BankSet::new(cfg(2).with_closed_cycles(150));
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let mut c = cfg(2);
        c.banks = 0;
        let _ = BankSet::new(c);
    }
}
