//! Controller-level invariants over randomised access sequences: for
//! any interleaving of reads and writebacks, the one-time-pad machine
//! never loses to XOM on a read, and the SNC's bookkeeping stays
//! consistent with a reference model.

use padlock_core::{
    SecureBackend, SecureBackendConfig, SecurityMode, SequenceNumberCache, SncConfig,
    SncLookup, SncOrganization, SncPolicy,
};
use padlock_cpu::{LineKind, MemoryBackend};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Read(u64),
    Write(u64),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (any::<bool>(), 0u64..64).prop_map(|(w, line)| {
            let addr = 0x8000 + line * 128;
            if w {
                Op::Write(addr)
            } else {
                Op::Read(addr)
            }
        }),
        1..200,
    )
}

fn backend(mode: SecurityMode) -> SecureBackend {
    let mut cfg = SecureBackendConfig::paper(mode);
    cfg.mem_occupancy = 0; // isolate per-access latency from queueing
    SecureBackend::new(cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every access in every random interleaving, the OTP read is at
    /// least as fast as XOM's *unless* it took an LRU sequence fetch —
    /// and even then it is bounded by one extra memory+crypto round.
    #[test]
    fn otp_reads_are_bounded_against_xom(ops in ops_strategy()) {
        let mut xom = backend(SecurityMode::Xom);
        let mut otp = backend(SecurityMode::otp_lru_64k());
        let mut t = 0u64;
        for op in &ops {
            t += 500;
            match op {
                Op::Read(addr) => {
                    let x = xom.line_read(t, *addr, LineKind::Data) - t;
                    let o = otp.line_read(t, *addr, LineKind::Data) - t;
                    // Fast path: max(100,50)+1 = 101 <= 150. Seq-fetch
                    // path: 100+50+101 = 251 <= 150 + 150.
                    prop_assert!(o <= x + 150, "otp {o} vs xom {x}");
                }
                Op::Write(addr) => {
                    xom.line_writeback(t, *addr);
                    otp.line_writeback(t, *addr);
                }
            }
        }
    }

    /// With a 64KB SNC and a 64-line footprint nothing ever spills, and
    /// every read after the first writeback of a line is the fast path.
    #[test]
    fn small_footprints_never_leave_the_fast_path(ops in ops_strategy()) {
        let mut otp = backend(SecurityMode::otp_lru_64k());
        let mut written = std::collections::BTreeSet::new();
        let mut t = 0u64;
        for op in &ops {
            t += 500;
            match op {
                Op::Write(addr) => {
                    otp.line_writeback(t, *addr);
                    written.insert(*addr);
                }
                Op::Read(addr) => {
                    let lat = otp.line_read(t, *addr, LineKind::Data) - t;
                    prop_assert_eq!(lat, 101, "read of {:#x} (written: {})",
                        addr, written.contains(addr));
                }
            }
        }
        prop_assert_eq!(otp.traffic().get("seq_reads"), 0);
        prop_assert_eq!(otp.traffic().get("seq_writes"), 0);
    }

    /// The SNC agrees with a straightforward reference model (map +
    /// recency list) for any operation sequence, in both organisations.
    #[test]
    fn snc_matches_reference_model(
        ops in proptest::collection::vec((0u64..48, any::<bool>()), 1..300),
        fully in any::<bool>(),
    ) {
        let organization = if fully {
            SncOrganization::FullyAssociative
        } else {
            SncOrganization::SetAssociative(2)
        };
        let capacity = 16usize; // entries
        let mut snc = SequenceNumberCache::new(
            SncConfig {
                capacity_bytes: capacity * 2,
                organization,
                policy: SncPolicy::Lru,
            },
            1,
        );
        // Reference: map line -> seq; recency only checked for the fully
        // associative case (set-assoc recency is per-set).
        let mut model: BTreeMap<u64, u16> = BTreeMap::new();
        let mut recency: Vec<u64> = Vec::new();
        for (line, is_update) in ops {
            let addr = line * 128;
            if is_update {
                match snc.increment(addr) {
                    Some(seq) => {
                        prop_assert!(model.contains_key(&addr));
                        let m = model.get_mut(&addr).unwrap();
                        *m += 1;
                        prop_assert_eq!(seq, *m);
                        if fully {
                            recency.retain(|&a| a != addr);
                            recency.push(addr);
                        }
                    }
                    None => {
                        prop_assert!(!model.contains_key(&addr));
                        let evicted = snc.install(addr, 1);
                        model.insert(addr, 1);
                        if fully {
                            if model.len() > capacity {
                                let lru = recency.remove(0);
                                prop_assert_eq!(evicted.map(|e| e.line_addr), Some(lru));
                                model.remove(&lru);
                            } else {
                                prop_assert!(evicted.is_none());
                            }
                            recency.push(addr);
                        } else if let Some(e) = evicted {
                            model.remove(&e.line_addr);
                        }
                    }
                }
            } else {
                let got = snc.query(addr);
                match got {
                    SncLookup::Hit(seq) => {
                        prop_assert_eq!(model.get(&addr).copied(), Some(seq));
                        if fully {
                            recency.retain(|&a| a != addr);
                            recency.push(addr);
                        }
                    }
                    SncLookup::Miss => {
                        prop_assert!(!model.contains_key(&addr));
                    }
                }
            }
            prop_assert_eq!(snc.occupancy(), model.len());
        }
    }

    /// Instruction reads never touch the SNC regardless of history.
    #[test]
    fn instruction_reads_never_query_the_snc(ops in ops_strategy()) {
        let mut otp = backend(SecurityMode::otp_lru_64k());
        let mut t = 0;
        for op in &ops {
            t += 500;
            match op {
                Op::Write(addr) => otp.line_writeback(t, *addr),
                Op::Read(addr) => {
                    let lat = otp.line_read(t, *addr, LineKind::Instruction) - t;
                    prop_assert_eq!(lat, 101);
                }
            }
        }
        let snc = otp.snc().expect("otp has an SNC");
        prop_assert_eq!(snc.stats().get("query_hits") + snc.stats().get("query_misses"), 0);
    }
}
