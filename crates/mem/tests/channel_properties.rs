//! Interleaving properties of the multi-channel DRAM fabric.
//!
//! The load-bearing claim: line-address interleaving across `N`
//! channels is a **partition** of the address space — every address
//! maps to exactly one channel, every channel is reachable, and a
//! transaction stream split across the channels reassembles to exactly
//! the monolithic stream's per-class transaction counts
//! (nothing is lost, duplicated, or re-classed by the routing).

use padlock_mem::{ChannelSet, TrafficClass};
use proptest::prelude::*;

const LINE: u64 = 128;

/// One logical fabric operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read(u64, bool),     // (line index, seq-read?)
    Write(u64, bool),    // (line index, seq-write?)
    Buffered(u64, u64),  // (line index, ready delay)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every address maps to exactly one channel, the mapping depends
    /// only on the line index, and consecutive lines rotate channels so
    /// all `N` channels are used.
    #[test]
    fn interleaving_is_a_partition(
        channels in prop::sample::select(vec![1usize, 2, 3, 4, 8]),
        addrs in proptest::collection::vec(0u64..(1 << 24), 1..200),
    ) {
        let fabric = ChannelSet::new(channels, 100, 8, 8);
        let mut seen = vec![false; channels];
        for &addr in &addrs {
            let ch = fabric.channel_of(addr);
            prop_assert!(ch < channels, "{addr:#x} -> out-of-range channel {ch}");
            // The map is a function of the line index alone: every
            // byte of the line agrees, so no address serves two
            // channels.
            let line_base = addr / LINE * LINE;
            for probe in [line_base, line_base + 1, line_base + LINE - 1, addr] {
                prop_assert_eq!(fabric.channel_of(probe), ch);
            }
            prop_assert_eq!(ch, ((addr / LINE) % channels as u64) as usize);
            seen[ch] = true;
        }
        // Consecutive lines cover every channel.
        let covering = ChannelSet::new(channels, 100, 8, 8);
        for line in 0..channels as u64 {
            seen[covering.channel_of(line * LINE)] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "some channel unreachable");
    }

    /// Splitting one transaction stream across N channels preserves the
    /// monolithic stream's per-class transaction counts: the
    /// per-channel streams reassemble exactly.
    #[test]
    fn split_streams_reassemble_to_monolithic_counts(
        ops in ops_strategy(),
        channels in prop::sample::select(vec![2usize, 3, 4, 8]),
    ) {
        let mut mono = ChannelSet::new(1, 100, 8, 8);
        let mut split = ChannelSet::new(channels, 100, 8, 8);
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

        // And the aggregate is exactly the sum of the per-channel
        // streams (each transaction landed on one channel).
        let sum: u64 = split
            .channels()
            .iter()
            .map(|ch| ch.mem().stats().get("transactions"))
            .sum();
        prop_assert_eq!(sum, mono_stats.get("transactions"));
    }

    /// Routed single-channel operation is bit-identical to a monolithic
    /// channel: timing, not just counts.
    #[test]
    fn one_channel_fabric_is_timing_identical(
        ops in ops_strategy(),
    ) {
        let mut a = ChannelSet::new(1, 100, 8, 8);
        let mut b = ChannelSet::new(1, 100, 8, 8);
        let mut now = 0u64;
        for &op in &ops {
            now += 29;
            match op {
                Op::Read(line, _) => {
                    prop_assert_eq!(
                        a.demand_read(now, line * LINE, TrafficClass::LineRead),
                        b.demand_read(now, line * LINE, TrafficClass::LineRead)
                    );
                }
                other => {
                    apply(&mut a, now, other);
                    apply(&mut b, now, other);
                }
            }
        }
    }
}
