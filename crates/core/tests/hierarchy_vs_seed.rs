//! Differential test: the MSHR-file hierarchy at `l2_mshrs = 1` over a
//! one-channel fabric must reproduce the pre-refactor *blocking*
//! hierarchy cycle-for-cycle.
//!
//! `SeedHierarchy` below is a line-for-line port of the hierarchy as it
//! was before the non-blocking rewrite: every L2 miss calls
//! `MemoryBackend::line_read` synchronously. Both hierarchies sit on
//! top of identical `SecureBackend`s (paper defaults: `max_inflight =
//! 1`, `snc_shards = 1`, `mem_channels = 1`) and are driven with the
//! same pseudorandom streams of loads, stores, and instruction fetches
//! in every security mode; every returned latency plus every cache,
//! traffic, controller, and SNC counter must match, mirroring the
//! engine-level `engine_vs_seed` differential one layer up.

use padlock_cache::{AccessKind, SetAssocCache};
use padlock_core::{SecureBackend, SecureBackendConfig, SecurityMode, SncConfig, SncOrganization, SncPolicy};
use padlock_cpu::{
    l1_config, Hierarchy, HierarchyConfig, LineKind, MemoryBackend, L1_LATENCY, L2_LATENCY,
};
use padlock_stats::CounterSet;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;

/// The blocking hierarchy exactly as it was before the MSHR rewrite.
struct SeedHierarchy<B> {
    config: HierarchyConfig,
    l1i: SetAssocCache<()>,
    l1d: SetAssocCache<()>,
    l2: SetAssocCache<()>,
    backend: B,
}

impl<B: MemoryBackend> SeedHierarchy<B> {
    fn new(config: HierarchyConfig, backend: B) -> Self {
        let l1i = SetAssocCache::new(l1_config("L1I"));
        let l1d = SetAssocCache::new(l1_config("L1D"));
        let l2 = SetAssocCache::new(config.l2.clone());
        Self {
            config,
            l1i,
            l1d,
            l2,
            backend,
        }
    }

    fn inst_fetch(&mut self, now: u64, pc: u64) -> u64 {
        let t = now + L1_LATENCY;
        let outcome = self.l1i.access(pc, AccessKind::Read);
        if outcome.hit {
            return t;
        }
        self.fill_from_l2(t, pc, LineKind::Instruction)
    }

    fn data_access(&mut self, now: u64, addr: u64, is_store: bool) -> u64 {
        let kind = if is_store {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let t = now + L1_LATENCY;
        let outcome = self.l1d.access(addr, kind);
        if let Some(victim) = &outcome.victim {
            if victim.dirty {
                self.l2_absorb_writeback(t, victim.addr);
            }
        }
        if outcome.hit {
            return t;
        }
        self.fill_from_l2(t, addr, LineKind::Data)
    }

    fn fill_from_l2(&mut self, t: u64, addr: u64, kind: LineKind) -> u64 {
        let t2 = t + L2_LATENCY;
        let outcome = self.l2.access(addr, AccessKind::Read);
        if let Some(victim) = &outcome.victim {
            if victim.dirty {
                self.backend.line_writeback(t2, victim.addr);
            }
        }
        if outcome.hit {
            return t2;
        }
        self.backend
            .line_read(t2, self.config.l2.line_addr(addr), kind)
    }

    fn l2_absorb_writeback(&mut self, now: u64, victim_addr: u64) {
        if let Some(l2_victim) = self.l2.insert(victim_addr, (), true) {
            if l2_victim.dirty {
                self.backend.line_writeback(now, l2_victim.addr);
            }
        }
    }
}

fn counters(set: CounterSet) -> BTreeMap<String, u64> {
    set.iter().map(|(k, v)| (k.to_string(), v)).collect()
}

fn snc_cfg(policy: SncPolicy, entries: usize) -> SncConfig {
    SncConfig {
        capacity_bytes: entries * 2,
        organization: SncOrganization::FullyAssociative,
        policy,
    }
}

/// Drives the MSHR hierarchy (paper defaults) and the seed blocking
/// hierarchy with one pseudorandom trace; every latency and counter
/// must agree.
fn assert_equivalent(mode: SecurityMode, occupancy: u64, slow_crypto: bool, seed: u64) {
    let mut cfg = SecureBackendConfig::paper(mode);
    cfg.mem_occupancy = occupancy;
    if slow_crypto {
        cfg = cfg.with_slow_crypto();
    }
    assert_eq!(cfg.max_inflight, 1, "paper defaults model the seed machine");
    assert_eq!(cfg.mem_channels, 1);
    let hier_cfg = HierarchyConfig::paper_default();
    assert_eq!(hier_cfg.l2_mshrs, 1, "paper default is the blocking hierarchy");

    let mut new = Hierarchy::new(hier_cfg.clone(), SecureBackend::new(cfg.clone()));
    let mut old = SeedHierarchy::new(hier_cfg, SecureBackend::new(cfg));

    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = 0u64;
    for step in 0..4_000u32 {
        now += rng.next_u64() % 220;
        match rng.next_u64() % 10 {
            // Instruction fetches over a 64KB code footprint (misses
            // both the 32KB L1I and, early on, the L2).
            0..=2 => {
                let pc = 0x1_0000 + (rng.next_u64() % 16_384) * 4;
                let a = new.inst_fetch(now, pc);
                let b = old.inst_fetch(now, pc);
                assert_eq!(a, b, "step {step}: inst fetch {pc:#x} at {now}");
            }
            // Data traffic over a 512KB footprint (beyond the 256KB
            // L2) so lines evict, dirty victims write back, and every
            // SNC path triggers.
            kind => {
                let addr = 0x10_0000 + (rng.next_u64() % 4_096) * 128 + (rng.next_u64() % 16) * 8;
                let is_store = kind >= 7;
                let a = if is_store {
                    new.store(now, addr)
                } else {
                    new.load(now, addr, u64::from(step))
                };
                let a = a.expect("one MSHR resolves every access at once");
                let b = old.data_access(now, addr, is_store);
                assert_eq!(
                    a, b,
                    "step {step}: {} of {addr:#x} at {now}",
                    if is_store { "store" } else { "load" }
                );
            }
        }
    }

    // Measurement wrap-up on both backends, then compare every counter.
    now += 1_000;
    new.backend_mut().drain(now);
    old.backend.drain(now);

    assert_eq!(counters(new.l1i_stats()), counters(old.l1i.stats()), "L1I");
    assert_eq!(counters(new.l1d_stats()), counters(old.l1d.stats()), "L1D");
    assert_eq!(counters(new.l2_stats()), counters(old.l2.stats()), "L2");
    assert_eq!(
        counters(new.backend().traffic()),
        counters(old.backend.traffic()),
        "traffic counters diverged"
    );
    assert_eq!(
        counters(new.backend().controller_stats().clone()),
        counters(old.backend.controller_stats().clone()),
        "controller counters diverged"
    );
    if let Some(snc) = new.backend().snc() {
        let old_snc = old.backend.snc().expect("same mode");
        assert_eq!(
            counters(snc.stats()),
            counters(old_snc.stats()),
            "snc counters diverged"
        );
        assert_eq!(snc.occupancy(), old_snc.occupancy());
    }
    // The blocking configuration never leaves a miss in flight.
    assert_eq!(new.pending_misses(), 0);
    assert_eq!(new.mshr_stats().get("merges"), 0, "one MSHR cannot merge");
}

#[test]
fn insecure_hierarchy_matches_seed_model() {
    for occ in [0, 8] {
        assert_equivalent(SecurityMode::Insecure, occ, false, 101 + occ);
    }
}

#[test]
fn xom_hierarchy_matches_seed_model() {
    for occ in [0, 8] {
        for slow in [false, true] {
            assert_equivalent(SecurityMode::Xom, occ, slow, 113 + occ + slow as u64);
        }
    }
}

#[test]
fn otp_lru_hierarchy_matches_seed_model_under_pressure() {
    // A 64-entry SNC against a 4096-line footprint: constant evictions,
    // sequence fetches, update misses, and packed spills.
    for occ in [0, 8] {
        for slow in [false, true] {
            let mode = SecurityMode::Otp {
                snc: snc_cfg(SncPolicy::Lru, 64),
            };
            assert_equivalent(mode, occ, slow, 127 + occ * 2 + slow as u64);
        }
    }
}

#[test]
fn otp_norepl_hierarchy_matches_seed_model() {
    for occ in [0, 8] {
        let mode = SecurityMode::Otp {
            snc: snc_cfg(SncPolicy::NoReplacement, 64),
        };
        assert_equivalent(mode, occ, false, 139 + occ);
    }
}

#[test]
fn paper_default_hierarchy_matches_seed_model() {
    assert_equivalent(SecurityMode::otp_lru_64k(), 8, false, 149);
    assert_equivalent(SecurityMode::otp_norepl_64k(), 8, true, 151);
}
