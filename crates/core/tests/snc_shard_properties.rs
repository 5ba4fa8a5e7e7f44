//! Sharding properties of the Sequence Number Cache.
//!
//! The load-bearing claim: under a **per-shard-balanced** address
//! stream (every logical operation replicated once per shard, round
//! robin), a [`SequenceNumberCache`] built with `N` shards, fully
//! associative and LRU, is hit/miss-equivalent to one built with a
//! single shard (the paper's one-structure SNC, "monolithic" in the
//! test names) of the same total capacity. The argument is the symmetry
//! of recency: the interleaved stream keeps every shard's sub-stream
//! identical modulo the address offset, so the single shard's
//! most-recent `capacity` distinct lines are exactly the union of each
//! shard's most-recent `capacity / N` — and hits depend only on
//! contents. The tests below check it op-by-op for random streams and
//! any shard count, plus the per-shard LRU-vs-no-replacement
//! behaviours.

use padlock_core::{SequenceNumberCache, SncConfig, SncOrganization, SncPolicy};
use proptest::prelude::*;

/// One logical operation on a per-shard line id; the harness replays it
/// once per shard at the interleaved addresses.
#[derive(Debug, Clone, Copy)]
enum Op {
    Query(u64),
    Increment(u64),
    Install(u64),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u64..24, 0u32..3).prop_map(|(line, kind)| match kind {
            0 => Op::Query(line),
            1 => Op::Increment(line),
            _ => Op::Install(line),
        }),
        1..250,
    )
}

fn cfg(entries: usize, policy: SncPolicy) -> SncConfig {
    SncConfig {
        capacity_bytes: entries * 2,
        organization: SncOrganization::FullyAssociative,
        policy,
    }
}

/// The address of logical `line` as seen by shard `s` of `n`: line
/// indices interleave so consecutive covered lines rotate shards.
fn addr(line: u64, s: u64, n: u64) -> u64 {
    (line * n + s) * 128
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Hit/miss equivalence of sharded vs monolithic for any shard
    /// count dividing the capacity, under a balanced stream.
    #[test]
    fn balanced_stream_sharded_equals_monolithic(
        ops in ops_strategy(),
        shards in prop::sample::select(vec![2usize, 3, 4, 6]),
    ) {
        let per_shard_entries = 8usize;
        let total = per_shard_entries * shards;
        let mut sharded = SequenceNumberCache::new(cfg(total, SncPolicy::Lru), shards);
        let mut single = SequenceNumberCache::new(cfg(total, SncPolicy::Lru), 1);
        let n = shards as u64;
        for op in &ops {
            for s in 0..n {
                match *op {
                    Op::Query(line) => {
                        let a = addr(line, s, n);
                        prop_assert_eq!(sharded.query(a), single.query(a),
                            "query {:#x} ({} shards)", a, shards);
                    }
                    Op::Increment(line) => {
                        let a = addr(line, s, n);
                        prop_assert_eq!(sharded.increment(a), single.increment(a),
                            "increment {:#x} ({} shards)", a, shards);
                    }
                    Op::Install(line) => {
                        let a = addr(line, s, n);
                        // Victim identities may differ (global LRU can
                        // evict from a different shard's slice) but an
                        // eviction happens in both or neither.
                        let sv = sharded.install(a, (line % 9) as u16 + 1);
                        let mv = single.install(a, (line % 9) as u16 + 1);
                        prop_assert_eq!(sv.is_some(), mv.is_some(),
                            "install {:#x} ({} shards)", a, shards);
                    }
                }
            }
            prop_assert_eq!(sharded.occupancy(), single.occupancy());
        }
        let sh = sharded.stats();
        let mo = single.stats();
        for key in ["query_hits", "query_misses", "update_hits",
                    "update_misses", "installs", "spills"] {
            prop_assert_eq!(sh.get(key), mo.get(key), "counter {}", key);
        }
    }

    /// LRU evictions never cross a shard boundary: the victim always
    /// belongs to the shard being installed into.
    #[test]
    fn lru_victims_stay_in_the_installing_shard(
        lines in proptest::collection::vec(0u64..64, 1..200),
        shards in prop::sample::select(vec![2usize, 4, 8]),
    ) {
        let mut snc = SequenceNumberCache::new(cfg(2 * shards, SncPolicy::Lru), shards);
        for line in lines {
            let a = line * 128;
            let installing_shard = snc.shard_of(a);
            if let Some(victim) = snc.install(a, 1) {
                prop_assert_eq!(snc.shard_of(victim.line_addr), installing_shard);
            }
        }
    }

    /// Under no-replacement, rejection is a per-shard decision: a full
    /// shard rejects while its siblings keep accepting, and nothing is
    /// ever evicted.
    #[test]
    fn no_replacement_fills_and_rejects_per_shard(
        lines in proptest::collection::vec(0u64..96, 1..250),
        shards in prop::sample::select(vec![2usize, 3, 4]),
    ) {
        let per_shard = 4usize;
        let mut snc =
            SequenceNumberCache::new(cfg(per_shard * shards, SncPolicy::NoReplacement), shards);
        let mut resident: Vec<std::collections::BTreeSet<u64>> =
            vec![Default::default(); shards];
        for line in lines {
            let a = line * 128;
            let s = snc.shard_of(a);
            let expect = resident[s].contains(&a) || resident[s].len() < per_shard;
            let accepted = if resident[s].contains(&a) {
                // Already resident: an install path would be an update
                // hit; model it via increment instead.
                snc.increment(a).is_some()
            } else {
                snc.try_install(a, 1)
            };
            prop_assert_eq!(accepted, expect, "line {:#x} shard {}", a, s);
            if accepted {
                resident[s].insert(a);
            }
            // Every modelled line is resident and nothing else is, so
            // each shard holds exactly its modelled set.
            for &line in resident.iter().flatten() {
                prop_assert!(snc.contains(line), "line {:#x} lost", line);
            }
            prop_assert_eq!(
                snc.occupancy(),
                resident.iter().map(|r| r.len()).sum::<usize>()
            );
        }
        prop_assert_eq!(snc.stats().get("spills"), 0);
    }
}
