//! Differential test: the transaction engine at `max_inflight = 1`,
//! `snc_shards = 1` must reproduce the seed model's latencies
//! *bit-exactly*.
//!
//! `SeedBackend` below is a line-for-line port of the pre-engine
//! controller (one-call-one-latency, single SNC). Both backends are
//! driven with identical pseudorandom traces of reads and writebacks
//! across every mode/policy/occupancy/crypto combination the paper
//! uses, and every returned latency plus every traffic, controller,
//! and SNC counter must match.

use padlock_core::{
    SecureBackend, SecureBackendConfig, SecurityMode, SequenceNumberCache, SncConfig,
    SncLookup, SncOrganization, SncPolicy,
};
use padlock_cpu::{LineKind, MemoryBackend, MemoryChannel};
use padlock_mem::TrafficClass;
use padlock_stats::CounterSet;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Sequence-number entries packed per spill transaction.
const SPILL_BATCH: u32 = 64;

/// The seed model: the controller exactly as it was before the
/// transaction-engine rewrite.
struct SeedBackend {
    config: SecureBackendConfig,
    channel: MemoryChannel,
    snc: Option<SequenceNumberCache>,
    written: BTreeSet<u64>,
    pending_spills: u32,
    stats: CounterSet,
}

impl SeedBackend {
    fn new(config: SecureBackendConfig) -> Self {
        let channel = MemoryChannel::new(
            config.mem_latency,
            config.mem_occupancy,
            config.write_buffer_entries,
        );
        let snc = match config.mode {
            SecurityMode::Otp { snc } => Some(SequenceNumberCache::new(snc, 1)),
            _ => None,
        };
        Self {
            config,
            channel,
            snc,
            written: BTreeSet::new(),
            pending_spills: 0,
            stats: CounterSet::new("controller"),
        }
    }

    fn crypto_latency(&self) -> u64 {
        self.config.crypto.pipeline_latency()
    }

    fn spill_seq(&mut self, now: u64, ready_at: u64, line_addr: u64) {
        self.pending_spills += 1;
        if self.pending_spills >= SPILL_BATCH {
            self.pending_spills = 0;
            self.channel
                .enqueue_write(now, ready_at, line_addr, TrafficClass::SeqWrite);
        }
    }

    fn xom_read(&mut self, now: u64, line_addr: u64) -> u64 {
        self.stats.incr("xom_reads");
        let fetched = self
            .channel
            .demand_read(now, line_addr, TrafficClass::LineRead);
        fetched + self.crypto_latency()
    }

    fn otp_read(&mut self, now: u64, line_addr: u64) -> u64 {
        self.stats.incr("otp_fast_reads");
        let fetched = self
            .channel
            .demand_read(now, line_addr, TrafficClass::LineRead);
        let pad_ready = now + self.crypto_latency();
        fetched.max(pad_ready) + 1
    }

    fn line_read(&mut self, now: u64, line_addr: u64, kind: LineKind) -> u64 {
        match self.config.mode {
            SecurityMode::Insecure => {
                self.channel
                    .demand_read(now, line_addr, TrafficClass::LineRead)
            }
            SecurityMode::Xom => self.xom_read(now, line_addr),
            SecurityMode::Otp { snc: snc_cfg } => {
                if kind == LineKind::Instruction {
                    return self.otp_read(now, line_addr);
                }
                if self.config.clean_lines_bypass && !self.written.contains(&line_addr) {
                    self.stats.incr("clean_bypass_reads");
                    return self.otp_read(now, line_addr);
                }
                let snc = self.snc.as_mut().expect("OTP mode has an SNC");
                match snc.query(line_addr) {
                    SncLookup::Hit(_) => self.otp_read(now, line_addr),
                    SncLookup::Miss => match snc_cfg.policy {
                        SncPolicy::NoReplacement => self.xom_read(now, line_addr),
                        SncPolicy::Lru => {
                            self.stats.incr("snc_fetch_reads");
                            let seq_fetched =
                                self.channel
                                    .demand_read(now, line_addr, TrafficClass::SeqRead);
                            let seq_ready = seq_fetched + self.crypto_latency();
                            let line_fetched = self.channel.demand_read(
                                seq_ready,
                                line_addr,
                                TrafficClass::LineRead,
                            );
                            let pad_ready = seq_ready + self.crypto_latency();
                            let snc = self.snc.as_mut().expect("OTP mode has an SNC");
                            if let Some(victim) = snc.install(line_addr, 1) {
                                let spill_ready = seq_ready + self.crypto_latency();
                                self.spill_seq(now, spill_ready, victim.line_addr);
                            }
                            line_fetched.max(pad_ready) + 1
                        }
                    },
                }
            }
        }
    }

    fn line_writeback(&mut self, now: u64, line_addr: u64) {
        match self.config.mode {
            SecurityMode::Insecure => {
                self.channel
                    .enqueue_write(now, now, line_addr, TrafficClass::LineWrite);
            }
            SecurityMode::Xom => {
                let ready = now + self.crypto_latency();
                self.channel
                    .enqueue_write(now, ready, line_addr, TrafficClass::LineWrite);
            }
            SecurityMode::Otp { snc: snc_cfg } => {
                let first_writeback = self.written.insert(line_addr);
                let crypto = self.crypto_latency();
                let snc = self.snc.as_mut().expect("OTP mode has an SNC");
                let ready = if snc.increment(line_addr).is_some() {
                    now + crypto
                } else {
                    match snc_cfg.policy {
                        SncPolicy::NoReplacement => {
                            if snc.try_install(line_addr, 1) {
                                now + crypto
                            } else {
                                self.stats.incr("norepl_direct_writes");
                                now + crypto
                            }
                        }
                        SncPolicy::Lru => {
                            let mut ready = now + crypto;
                            if first_writeback {
                                self.stats.incr("first_writebacks");
                            } else {
                                self.stats.incr("snc_fetch_updates");
                                let seq_fetched =
                                    self.channel
                                        .demand_read(now, line_addr, TrafficClass::SeqRead);
                                ready = seq_fetched + crypto + crypto;
                            }
                            let snc = self.snc.as_mut().expect("OTP mode has an SNC");
                            if let Some(victim) = snc.install(line_addr, 1) {
                                let spill_ready = now + crypto;
                                self.spill_seq(now, spill_ready, victim.line_addr);
                            }
                            ready
                        }
                    }
                };
                self.channel
                    .enqueue_write(now, ready, line_addr, TrafficClass::LineWrite);
            }
        }
    }
}

fn counters(set: &CounterSet) -> BTreeMap<String, u64> {
    set.iter().map(|(k, v)| (k.to_string(), v)).collect()
}

fn snc_cfg(policy: SncPolicy, entries: usize) -> SncConfig {
    SncConfig {
        capacity_bytes: entries * 2,
        organization: SncOrganization::FullyAssociative,
        policy,
    }
}

/// Drives both models with one pseudorandom trace and compares every
/// latency and counter.
fn assert_equivalent(mode: SecurityMode, occupancy: u64, slow_crypto: bool, seed: u64) {
    let mut cfg = SecureBackendConfig::paper(mode);
    cfg.mem_occupancy = occupancy;
    if slow_crypto {
        cfg = cfg.with_slow_crypto();
    }
    assert_eq!(cfg.max_inflight, 1, "paper defaults model the seed machine");
    assert_eq!(cfg.snc_shards, 1);

    let mut engine = SecureBackend::new(cfg.clone());
    let mut reference = SeedBackend::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = 0u64;
    for step in 0..2_500u32 {
        // Occasionally issue back-to-back at the same cycle to stress
        // same-timestamp scheduling.
        now += rng.next_u64() % 280;
        let line = rng.next_u64() % 96;
        let addr = 0x8000 + line * 128;
        match rng.next_u64() % 10 {
            0..=4 => {
                let kind = if rng.next_u64() % 5 == 0 {
                    LineKind::Instruction
                } else {
                    LineKind::Data
                };
                let e = engine.line_read(now, addr, kind);
                let r = reference.line_read(now, addr, kind);
                assert_eq!(e, r, "step {step}: read of {addr:#x} at {now}");
            }
            _ => {
                engine.line_writeback(now, addr);
                reference.line_writeback(now, addr);
            }
        }
    }
    assert_eq!(
        counters(&engine.traffic()),
        counters(&reference.channel.mem().stats()),
        "traffic counters diverged"
    );
    assert_eq!(
        counters(&engine.controller_stats()),
        counters(&reference.stats),
        "controller counters diverged"
    );
    if let Some(snc) = engine.snc() {
        let ref_snc = reference.snc.as_ref().expect("both models run the same mode");
        assert_eq!(
            counters(&snc.stats()),
            counters(&ref_snc.stats()),
            "snc counters diverged"
        );
        assert_eq!(snc.occupancy(), ref_snc.occupancy());
    }
}

#[test]
fn insecure_engine_matches_seed_model() {
    for occ in [0, 8] {
        assert_equivalent(SecurityMode::Insecure, occ, false, 11 + occ);
    }
}

#[test]
fn xom_engine_matches_seed_model() {
    for occ in [0, 8] {
        for slow in [false, true] {
            assert_equivalent(SecurityMode::Xom, occ, slow, 23 + occ + slow as u64);
        }
    }
}

#[test]
fn otp_lru_engine_matches_seed_model_under_pressure() {
    // 32-entry SNC against a 96-line footprint: constant evictions,
    // sequence fetches, update misses, and packed spills.
    for occ in [0, 8] {
        for slow in [false, true] {
            let mode = SecurityMode::Otp {
                snc: snc_cfg(SncPolicy::Lru, 32),
            };
            assert_equivalent(mode, occ, slow, 37 + occ * 2 + slow as u64);
        }
    }
}

#[test]
fn otp_lru_engine_matches_seed_model_when_covered() {
    // A big SNC: mostly hits and the fast path.
    let mode = SecurityMode::Otp {
        snc: snc_cfg(SncPolicy::Lru, 4096),
    };
    assert_equivalent(mode, 8, false, 41);
}

#[test]
fn otp_norepl_engine_matches_seed_model() {
    for occ in [0, 8] {
        let mode = SecurityMode::Otp {
            snc: snc_cfg(SncPolicy::NoReplacement, 32),
        };
        assert_equivalent(mode, occ, false, 53 + occ);
    }
}

#[test]
fn paper_default_machine_matches_seed_model() {
    assert_equivalent(SecurityMode::otp_lru_64k(), 8, false, 67);
    assert_equivalent(SecurityMode::otp_norepl_64k(), 8, true, 71);
}
