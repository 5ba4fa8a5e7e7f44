//! Main-memory models for the `padlock` secure-processor simulator.
//!
//! Six independent pieces:
//!
//! * [`MemTimingModel`] — the flat-latency DRAM + shared-channel occupancy
//!   model the paper assumes (100-cycle reads), with traffic accounting by
//!   class so Fig. 9 (SNC-induced traffic) can be reproduced;
//! * [`BankSet`] — per-channel DRAM banks with open-row registers, so an
//!   access is charged the row-hit or row-conflict (precharge + activate)
//!   latency and locality inside a channel matters; a [`PagePolicy`]
//!   knob chooses between open-page rows and closed-page auto-precharge;
//! * [`DrainOrder`] — the drain-order knob backends thread through
//!   their configuration; the FR-FCFS algorithm it selects lives on
//!   the fabric ([`ChannelSet::row_first_order`]), which predicts the
//!   order with the same [`BankSet`] its accesses take;
//! * [`MemoryChannel`] / [`ChannelSet`] — one write-buffered DRAM channel,
//!   and the line-address-interleaved multi-channel fabric that lets a
//!   transaction engine spread independent misses over `N` controllers.
//!   The fabric speaks in lines: every transaction moves one
//!   [`LINE_BYTES`] line, so traffic is counted in transactions;
//! * [`SparseMemory`] — a functional, page-sparse byte store holding real
//!   (cipher)text for the functional security layer and the tiny-ISA VM;
//! * [`RegionMap`] — an address-range → attribute map used to mark
//!   plaintext regions (shared libraries, program inputs; paper §4.3) and
//!   protected segments.
//!
//! # Examples
//!
//! ```
//! use padlock_mem::{MemTimingModel, TrafficClass};
//!
//! let mut mem = MemTimingModel::new(100, 8);
//! let done = mem.read(0, TrafficClass::LineRead);
//! assert_eq!(done, 100); // the paper's flat 100-cycle read
//! ```

#![warn(missing_docs)]

mod bank;
mod channel;
mod region;
mod sched;
mod sparse;
mod timing;

pub use bank::{
    BankConfig, BankGrant, BankSet, PagePolicy, DEFAULT_ROW_CLOSED_CYCLES,
    DEFAULT_ROW_CONFLICT_CYCLES, DEFAULT_ROW_HIT_CYCLES, ROW_BYTES, ROW_LINES,
};
pub use channel::{ChannelSet, MemoryChannel};
pub use sched::DrainOrder;
pub use region::{RegionMap, RegionOverlap};
pub use sparse::SparseMemory;
pub use timing::{MemTimingModel, TrafficClass, TrafficTotals};

/// Bytes per L2 line, the paper's 128 (§5): the fabric's only unit.
/// Every memory transaction moves one line (a sequence-number spill
/// packs 64 two-byte entries into one), channels interleave at line
/// granularity, a DRAM row is [`ROW_LINES`] lines ([`ROW_BYTES`]), and
/// one sequence number covers one line.
pub const LINE_BYTES: u32 = 128;
