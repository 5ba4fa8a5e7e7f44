//! Pre-aging properties: the survivors-only LRU aging and the chunked
//! written-line set against one-entry-at-a-time reference models.
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

/// One round: some controller history, then one aging call.
fn round_strategy() -> impl Strategy<Value = (Vec<Event>, Vec<u64>)> {
    let event = (any::<bool>(), 0..UNIVERSE).prop_map(|(write, i)| {
        if write {
            Event::Writeback(addr(i))
        } else {
            Event::Read(addr(i))
        }
    });
    (proptest::collection::vec(event, 0..40), feed_strategy())
}

fn snc(organization: SncOrganization, per_shard: usize, shards: usize) -> SequenceNumberCache {
    let config = SncConfig {
        capacity_bytes: per_shard * shards * 2,
        organization,
        policy: SncPolicy::Lru,
    };
    SequenceNumberCache::new(config, shards)
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

    /// `LineSet` against a set model over line-aligned addresses that
    /// straddle 64-line chunk boundaries in several compartments.
    #[test]
    fn line_set_matches_a_set_model(
        ops in proptest::collection::vec(
            (any::<bool>(), 0usize..4, 0u64..3, 0u64..128),
            1..400,
        ),
    ) {
        let line = u64::from(LINE_BYTES);
        let mut set = LineSet::default();
        let mut model = BTreeSet::new();
        for (insert, compartment, chunk, offset) in ops {
            // Any line of chunk `chunk` or the next: a few hundred
            // lines per compartment, dense enough that most draws meet
            // lines already inserted in the same word and the words on
            // either side of a boundary.
            let addr = compartment_base(compartment) + (chunk * 64 + offset) * line;
            if insert {
                prop_assert_eq!(set.insert(addr), model.insert(addr), "insert {:#x}", addr);
            } else {
                prop_assert_eq!(set.contains(addr), model.contains(&addr), "contains {:#x}", addr);
            }
        }
        for &addr in &model {
            prop_assert!(set.contains(addr), "{:#x}", addr);
        }
    }
}
