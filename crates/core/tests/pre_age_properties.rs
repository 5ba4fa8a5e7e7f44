//! Pre-aging properties: the survivors-only LRU aging, the
//! no-replacement aging and the chunked written-line set against
//! one-entry-at-a-time reference models.
//!
//! [`SequenceNumberCache::age_lru`] installs, per fully associative
//! shard, only the lines that can survive. The reference is the plain
//! loop it replaces: mark each line written, then one
//! [`SequenceNumberCache::install`] per line. Both start from the same
//! history of controller-style reads and writebacks, so feeds hit lines
//! already written back (their numbers bumped past 1) and lines already
//! resident from a read with the clean-line bypass off (resident, but
//! never written). Every shape is covered: 1, 2 and 4 shards, fully and
//! set-associative storage, capacities below and above the feed
//! length, and several aging calls on one SNC. The two must agree on
//! the written set, on residency after every call, and on the final
//! flush (contents, sequence numbers and per-shard LRU order).
//!
//! [`SequenceNumberCache::age_no_replacement`], which
//! `SecureBackend::pre_age` calls for a no-replacement SNC, stops
//! looking lines up once the SNC is full; its reference marks each
//! line written and makes one [`SequenceNumberCache::try_install`].
//! Both aging calls route a line that directly follows the previous
//! one to the next shard without dividing, so these feeds are runs of
//! consecutive lines that cross shard boundaries, restart part-way
//! into the previous run and are broken by single random lines, on 1
//! to 4 shards (3 included, where the stepping and the division differ
//! most) and over more lines than the SNC holds.

use padlock_core::server::compartment_base;
use padlock_core::{
    LineSet, SequenceNumberCache, SncConfig, SncLookup, SncOrganization, SncPolicy,
};
use padlock_mem::LINE_BYTES;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Distinct lines the streams draw from.
const UNIVERSE: u64 = 192;

/// Line `i`'s address, striped over two compartments so the keys carry
/// high bits as the secure server's do.
fn addr(i: u64) -> u64 {
    compartment_base((i % 2) as usize) + (i / 2) * u64::from(LINE_BYTES)
}

/// A controller event before aging, as `SecureBackend` applies it to
/// an LRU SNC.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A data read with the clean-line bypass off: query, and install
    /// on a miss (Algorithm 1's sequence fetch).
    Read(u64),
    /// A writeback: mark written, then bump the resident number or
    /// install one.
    Writeback(u64),
}

fn apply(snc: &mut SequenceNumberCache, written: &mut LineSet, event: Event) {
    match event {
        Event::Read(line) => {
            if snc.query(line) == SncLookup::Miss {
                snc.install(line, 1);
            }
        }
        Event::Writeback(line) => {
            written.insert(line);
            if snc.increment(line).is_none() {
                snc.install(line, 1);
            }
        }
    }
}

/// An aging feed: random lines (with repeats), a run of consecutive
/// lines like the workloads' aged regions, then more random lines.
fn feed_strategy() -> impl Strategy<Value = Vec<u64>> {
    let random = || proptest::collection::vec((0..UNIVERSE).prop_map(addr), 0..40);
    (random(), 0..UNIVERSE, 0..UNIVERSE, random()).prop_map(|(head, start, len, tail)| {
        let run = (start..start + len).map(|i| addr(i % UNIVERSE));
        head.into_iter().chain(run).chain(tail).collect()
    })
}

/// Controller history before an aging call: reads and writebacks.
fn history_strategy() -> impl Strategy<Value = Vec<Event>> {
    let event = (any::<bool>(), 0..UNIVERSE).prop_map(|(write, i)| {
        if write {
            Event::Writeback(addr(i))
        } else {
            Event::Read(addr(i))
        }
    });
    proptest::collection::vec(event, 0..40)
}

/// One round: some controller history, then one aging call.
fn round_strategy() -> impl Strategy<Value = (Vec<Event>, Vec<u64>)> {
    (history_strategy(), feed_strategy())
}

fn snc(organization: SncOrganization, per_shard: usize, shards: usize) -> SequenceNumberCache {
    snc_with(SncPolicy::Lru, organization, per_shard, shards)
}

fn snc_with(
    policy: SncPolicy,
    organization: SncOrganization,
    per_shard: usize,
    shards: usize,
) -> SequenceNumberCache {
    let config = SncConfig {
        capacity_bytes: per_shard * shards * 2,
        organization,
        policy,
    };
    SequenceNumberCache::new(config, shards)
}

/// Lines per compartment that runs draw from.
const RUN_SPAN: u64 = 2 * UNIVERSE;

/// Line `i` of compartment `c`, where the runs' lines live. Line
/// indices from 0 to `RUN_SPAN` cover every [`addr`] too.
fn run_line(c: usize, i: u64) -> u64 {
    compartment_base(c) + i * u64::from(LINE_BYTES)
}

/// Every line a run feed or a controller history can touch: a run
/// that restarts inside the one before it starts at most 95 lines
/// higher, and a feed holds at most five runs.
fn run_universe() -> impl Iterator<Item = u64> {
    (0..3).flat_map(|c| (0..RUN_SPAN + 5 * 96).map(move |i| run_line(c, i)))
}

/// An aging feed of runs of consecutive lines. Each run starts at a
/// random line of one of three compartments, or, one time in three,
/// part-way into the previous run, which it repeats and then extends;
/// zero to two random lines follow each run.
fn run_feed_strategy() -> impl Strategy<Value = Vec<u64>> {
    let run = (
        0usize..3,
        0..RUN_SPAN,
        0u64..96,
        0u8..3,
        proptest::collection::vec((0..UNIVERSE).prop_map(addr), 0..3),
    );
    proptest::collection::vec(run, 1..6).prop_map(|runs| {
        let mut feed = Vec::new();
        let mut previous: Option<(usize, u64, u64)> = None;
        for (c, start, len, restart, singles) in runs {
            let (c, start) = match previous {
                Some((pc, ps, plen)) if restart == 0 && plen > 0 => (pc, ps + start % plen),
                _ => (c, start),
            };
            feed.extend((start..start + len).map(|i| run_line(c, i)));
            feed.extend(singles);
            previous = Some((c, start, len));
        }
        feed
    })
}

/// One round over runs: some controller history, then one aging call.
fn run_round_strategy() -> impl Strategy<Value = (Vec<Event>, Vec<u64>)> {
    (history_strategy(), run_feed_strategy())
}

/// A controller event as `SecureBackend` applies it to a
/// no-replacement SNC: a read only queries, and a writeback that misses
/// takes a free slot if its shard has one.
fn apply_no_replacement(snc: &mut SequenceNumberCache, written: &mut LineSet, event: Event) {
    match event {
        Event::Read(line) => {
            snc.query(line);
        }
        Event::Writeback(line) => {
            written.insert(line);
            if snc.increment(line).is_none() {
                snc.try_install(line, 1);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lru_aging_matches_one_install_per_line(
        rounds in proptest::collection::vec(round_strategy(), 2..5),
        shards in prop::sample::select(vec![1usize, 2, 4]),
        per_shard in prop::sample::select(vec![2usize, 4, 8, 64]),
        organization in prop::sample::select(vec![
            SncOrganization::FullyAssociative,
            SncOrganization::SetAssociative(2),
        ]),
    ) {
        let mut aged = snc(organization, per_shard, shards);
        let mut reference = snc(organization, per_shard, shards);
        let mut aged_written = LineSet::default();
        let mut reference_written = LineSet::default();
        for (call, (events, feed)) in rounds.iter().enumerate() {
            for &event in events {
                apply(&mut aged, &mut aged_written, event);
                apply(&mut reference, &mut reference_written, event);
            }
            aged.age_lru(&mut aged_written, feed.iter().copied());
            for &line in feed {
                reference_written.insert(line);
                reference.install(line, 1);
            }
            prop_assert_eq!(aged.occupancy(), reference.occupancy(), "call {}", call);
            for line in (0..UNIVERSE).map(addr) {
                prop_assert_eq!(aged.contains(line), reference.contains(line),
                    "call {} line {:#x}", call, line);
                prop_assert_eq!(aged_written.contains(line), reference_written.contains(line),
                    "call {} written {:#x}", call, line);
            }
        }
        prop_assert_eq!(aged.flush(), reference.flush());
    }

    /// `age_no_replacement` against one `written.insert` plus one
    /// `try_install` per line, over runs of consecutive lines.
    #[test]
    fn no_replacement_aging_matches_one_try_install_per_line(
        rounds in proptest::collection::vec(run_round_strategy(), 1..4),
        shards in prop::sample::select(vec![1usize, 2, 3, 4]),
        per_shard in prop::sample::select(vec![2usize, 4, 8, 64]),
        organization in prop::sample::select(vec![
            SncOrganization::FullyAssociative,
            SncOrganization::SetAssociative(2),
        ]),
    ) {
        let policy = SncPolicy::NoReplacement;
        let mut aged = snc_with(policy, organization, per_shard, shards);
        let mut reference = snc_with(policy, organization, per_shard, shards);
        let mut aged_written = LineSet::default();
        let mut reference_written = LineSet::default();
        for (call, (events, feed)) in rounds.iter().enumerate() {
            for &event in events {
                apply_no_replacement(&mut aged, &mut aged_written, event);
                apply_no_replacement(&mut reference, &mut reference_written, event);
            }
            aged.age_no_replacement(&mut aged_written, feed.iter().copied());
            for &line in feed {
                reference_written.insert(line);
                reference.try_install(line, 1);
            }
            prop_assert_eq!(aged.occupancy(), reference.occupancy(), "call {}", call);
            prop_assert_eq!(aged.stats(), reference.stats(), "call {}", call);
            for line in run_universe() {
                prop_assert_eq!(aged.contains(line), reference.contains(line),
                    "call {} line {:#x}", call, line);
                prop_assert_eq!(aged_written.contains(line), reference_written.contains(line),
                    "call {} written {:#x}", call, line);
            }
        }
        prop_assert_eq!(aged.flush(), reference.flush());
    }

    /// `age_lru` against one install per line over the same runs, so
    /// its stepped shard routing meets 3 shards as well.
    #[test]
    fn lru_aging_over_runs_matches_one_install_per_line(
        rounds in proptest::collection::vec(run_round_strategy(), 1..4),
        shards in prop::sample::select(vec![1usize, 2, 3, 4]),
        per_shard in prop::sample::select(vec![2usize, 4, 8, 64]),
        organization in prop::sample::select(vec![
            SncOrganization::FullyAssociative,
            SncOrganization::SetAssociative(2),
        ]),
    ) {
        let mut aged = snc(organization, per_shard, shards);
        let mut reference = snc(organization, per_shard, shards);
        let mut aged_written = LineSet::default();
        let mut reference_written = LineSet::default();
        for (call, (events, feed)) in rounds.iter().enumerate() {
            for &event in events {
                apply(&mut aged, &mut aged_written, event);
                apply(&mut reference, &mut reference_written, event);
            }
            aged.age_lru(&mut aged_written, feed.iter().copied());
            for &line in feed {
                reference_written.insert(line);
                reference.install(line, 1);
            }
            prop_assert_eq!(aged.occupancy(), reference.occupancy(), "call {}", call);
            for line in run_universe() {
                prop_assert_eq!(aged.contains(line), reference.contains(line),
                    "call {} line {:#x}", call, line);
                prop_assert_eq!(aged_written.contains(line), reference_written.contains(line),
                    "call {} written {:#x}", call, line);
            }
        }
        prop_assert_eq!(aged.flush(), reference.flush());
    }

    /// `LineSet` against a set model over line-aligned addresses that
    /// straddle 64-line chunk boundaries in several compartments.
    /// Inserts come one at a time and in runs of up to 80 lines, and
    /// queries land both in the chunk the last insert is filling (or
    /// the one after it) and anywhere else.
    #[test]
    fn line_set_matches_a_set_model(
        ops in proptest::collection::vec(
            (0u8..4, 0usize..4, 0u64..3, 0u64..128, 0u64..80),
            1..300,
        ),
    ) {
        let line = u64::from(LINE_BYTES);
        let mut set = LineSet::default();
        let mut model = BTreeSet::new();
        let mut last = compartment_base(0);
        for (kind, compartment, chunk, offset, len) in ops {
            // Any line of chunk `chunk` or the next: a few hundred
            // lines per compartment, dense enough that most draws meet
            // lines already inserted in the same word and the words on
            // either side of a boundary.
            let addr = compartment_base(compartment) + (chunk * 64 + offset) * line;
            match kind {
                0 => {
                    prop_assert_eq!(set.insert(addr), model.insert(addr), "insert {:#x}", addr);
                    last = addr;
                }
                1 => {
                    for i in 0..len {
                        let a = addr + i * line;
                        prop_assert_eq!(set.insert(a), model.insert(a), "run insert {:#x}", a);
                        last = a;
                    }
                }
                2 => {
                    prop_assert_eq!(set.contains(addr), model.contains(&addr), "contains {:#x}", addr);
                }
                _ => {
                    // A line of the last insert's chunk or the next one.
                    let near = (last / line / 64 * 64 + offset) * line;
                    prop_assert_eq!(set.contains(near), model.contains(&near), "near {:#x}", near);
                }
            }
        }
        for compartment in 0..4 {
            for i in 0..5 * 64 + 80 {
                let addr = compartment_base(compartment) + i * line;
                prop_assert_eq!(set.contains(addr), model.contains(&addr), "final {:#x}", addr);
            }
        }
    }
}
