//! Properties of the banked DRAM fabric.
//!
//! Three load-bearing claims:
//!
//! * the `(channel, bank)` map is a **partition** of the address space
//!   — every address lands on exactly one coordinate, the coordinate
//!   depends only on the line/row indices, and every coordinate is
//!   reachable;
//! * splitting one transaction stream across channels and banks
//!   **reassembles** to the monolithic stream's per-class transaction
//!   counts (banking changes timing, never accounting), and
//!   on a banked fabric every access is classified as exactly one of
//!   row hit / row conflict;
//! * an open-row **hit never charges more** than a conflict, access by
//!   access, and [`BankSet::grant`] predicts every
//!   [`BankSet::access`] exactly.

use padlock_mem::{BankConfig, BankSet, ChannelSet, TrafficClass, ROW_LINES};
use proptest::prelude::*;

const LINE: u64 = 128;
const ROW: u64 = LINE * ROW_LINES;

/// One logical fabric operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read(u64, bool),    // (line index, seq-read?)
    Write(u64, bool),   // (line index, seq-write?)
    Buffered(u64, u64), // (line index, ready delay)
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u64..512, 0u32..5, 0u64..300).prop_map(|(line, kind, delay)| match kind {
            0 | 1 => Op::Read(line, kind == 1),
            2 | 3 => Op::Write(line, kind == 3),
            _ => Op::Buffered(line, delay),
        }),
        1..300,
    )
}

fn apply(fabric: &mut ChannelSet, now: u64, op: Op) {
    match op {
        Op::Read(line, seq) => {
            let class = if seq {
                TrafficClass::SeqRead
            } else {
                TrafficClass::LineRead
            };
            fabric.demand_read(now, line * LINE, class);
        }
        Op::Write(line, seq) => {
            let class = if seq {
                TrafficClass::SeqWrite
            } else {
                TrafficClass::LineWrite
            };
            fabric.demand_write(now, line * LINE, class);
        }
        Op::Buffered(line, delay) => {
            fabric.enqueue_write(now, now + delay, line * LINE, TrafficClass::LineWrite);
        }
    }
}

fn banked(channels: usize, banks: usize) -> ChannelSet {
    ChannelSet::new(channels, 100, 8, 8).with_banks(BankConfig::banked(banks))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every address maps to exactly one `(channel, bank)` coordinate,
    /// the channel depends only on the line index, the bank only on the
    /// row index, and every coordinate is reachable.
    #[test]
    fn channel_bank_map_is_a_partition(
        channels in prop::sample::select(vec![1usize, 2, 3, 4, 8]),
        banks in prop::sample::select(vec![2usize, 3, 4, 8]),
        addrs in proptest::collection::vec(0u64..(1 << 26), 1..200),
    ) {
        let fabric = banked(channels, banks);
        for &addr in &addrs {
            let (ch, bk, row) = fabric.coordinates_of(addr);
            prop_assert!(ch < channels, "{addr:#x} -> out-of-range channel {ch}");
            prop_assert!(bk < banks, "{addr:#x} -> out-of-range bank {bk}");
            // The channel is a function of the line index alone and the
            // bank and row of the row index alone: every byte of the
            // line (and every line of the row, as seen through the same
            // channel) agrees, so no address serves two coordinates.
            let line_base = addr / LINE * LINE;
            for probe in [line_base, line_base + 1, line_base + LINE - 1, addr] {
                prop_assert_eq!(fabric.coordinates_of(probe), (ch, bk, row));
            }
            prop_assert_eq!(ch, ((addr / LINE) % channels as u64) as usize);
            prop_assert_eq!(bk, ((addr / ROW) % banks as u64) as usize);
            prop_assert_eq!(row, addr / ROW);
            // The bank is derived from the row, so the pair never
            // disagrees about which open-row register is at stake.
            prop_assert_eq!(bk, (row % banks as u64) as usize);
        }
        // Sweeping consecutive lines through one full bank rotation
        // reaches every coordinate.
        let mut seen = vec![false; channels * banks];
        for line in 0..(channels * banks) as u64 * ROW_LINES {
            let (ch, bk, _) = fabric.coordinates_of(line * LINE);
            seen[ch * banks + bk] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "some (channel, bank) unreachable");
    }

    /// Splitting one stream across channels and banks preserves the
    /// monolithic stream's per-class transaction counts, and
    /// on the banked fabric every transaction is classified as exactly
    /// one row hit or row conflict.
    #[test]
    fn split_streams_reassemble_to_monolithic_counts(
        ops in ops_strategy(),
        channels in prop::sample::select(vec![2usize, 3, 4, 8]),
        banks in prop::sample::select(vec![1usize, 2, 4, 8]),
    ) {
        let mut mono = ChannelSet::new(1, 100, 8, 8);
        let mut split = banked(channels, banks);
        let mut now = 0u64;
        for &op in &ops {
            now += 13;
            apply(&mut mono, now, op);
            apply(&mut split, now, op);
        }
        // Flush buffered writebacks on both so counts are complete.
        mono.flush_writes(now + 10_000);
        split.flush_writes(now + 10_000);

        let mono_stats = mono.stats();
        let split_stats = split.stats();
        for class in [
            TrafficClass::LineRead,
            TrafficClass::LineWrite,
            TrafficClass::SeqRead,
            TrafficClass::SeqWrite,
        ] {
            prop_assert_eq!(
                split_stats.get(class.counter()),
                mono_stats.get(class.counter()),
                "{} diverged", class.counter()
            );
        }
        prop_assert_eq!(split_stats.get("transactions"), mono_stats.get("transactions"));

        // Row accounting: every banked transaction is exactly one of
        // hit / conflict; a flat fabric records neither.
        let rows_touched = split_stats.get("row_hits") + split_stats.get("row_conflicts");
        if banks > 1 {
            prop_assert_eq!(rows_touched, split_stats.get("transactions"));
        } else {
            prop_assert_eq!(rows_touched, 0);
        }

        // And the aggregate is exactly the sum of the per-channel
        // streams (each transaction landed on one channel).
        let sum: u64 = split
            .channels()
            .iter()
            .map(|ch| ch.mem().stats().get("transactions"))
            .sum();
        prop_assert_eq!(sum, mono_stats.get("transactions"));
    }

    /// Access by access, an open-row hit never charges more than a
    /// conflict would, and every access charges exactly one of the two
    /// configured latencies.
    #[test]
    fn open_row_hit_never_charges_more_than_a_conflict(
        hit in 1u64..200,
        extra in 0u64..200,
        banks in prop::sample::select(vec![1usize, 2, 4, 8]),
        addrs in proptest::collection::vec((0u64..(1 << 22), 0u64..400), 1..200),
    ) {
        let conflict = hit + extra;
        let config = BankConfig::banked(banks).with_row_cycles(hit, conflict);
        let mut set = BankSet::new(config);
        let mut now = 0u64;
        for &(addr, gap) in &addrs {
            now += gap;
            let predicted = set.grant(now, addr);
            let grant = set.access(now, addr);
            prop_assert_eq!(predicted, grant, "grant and access disagree at {addr:#x}");
            let charged = grant.done - grant.start;
            prop_assert!(
                charged == hit || charged == conflict,
                "access charged {charged}, neither hit {hit} nor conflict {conflict}"
            );
            if grant.hit {
                prop_assert!(charged <= conflict, "hit {charged} dearer than conflict");
                prop_assert_eq!(charged, hit);
            } else {
                prop_assert_eq!(charged, conflict);
            }
            prop_assert_eq!(grant.bank, set.bank_of(addr));
            // An immediate repeat of the same address is always an
            // open-row hit at the cheap latency.
            let predicted = set.grant(grant.done, addr);
            let again = set.access(grant.done, addr);
            prop_assert_eq!(predicted, again, "grant and access disagree on the repeat");
            prop_assert!(again.hit);
            prop_assert_eq!(again.done - again.start, hit);
        }
    }
}
