//! Differential test: the bank-aware fabric at `mem_banks = 1` must
//! reproduce the pre-bank (PR 3) channel fabric *bit-exactly*.
//!
//! `SeedChannelSet` below is a line-for-line port of the multi-channel
//! fabric as it was before the bank layer (flat occupancy, no addresses
//! in the channel timing paths). It is driven against the new
//! `ChannelSet` with identical pseudorandom op streams across every
//! channel count; every returned cycle and every traffic counter must
//! match, with the bank knobs at their defaults *and* at absurd values
//! (both flat, so provably inert). Machines take their row timings from
//! `padlock_mem`'s defaults, so the fabric is the only layer where those
//! knobs can be set; together with the `engine_vs_seed` and
//! `hierarchy_vs_seed` differentials one level up, that pins the flat
//! machine to the pre-bank behaviour. A last check proves the bank
//! layer is live once `mem_banks > 1`.

use padlock_cache::WriteBuffer;
use padlock_core::{Machine, MachineConfig, SecurityMode};
use padlock_cpu::StrideWorkload;
use padlock_mem::{BankConfig, ChannelSet, MemTimingModel, TrafficClass};
use padlock_stats::CounterSet;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;

// ---- the PR 3 fabric, ported line for line ----

/// One write-buffered channel exactly as it was before the bank layer.
struct SeedChannel {
    mem: MemTimingModel,
    write_buffer: WriteBuffer,
}

impl SeedChannel {
    fn new(mem_latency: u64, occupancy: u64, write_buffer_entries: usize) -> Self {
        Self {
            mem: MemTimingModel::new(mem_latency, occupancy),
            write_buffer: WriteBuffer::new(write_buffer_entries),
        }
    }

    fn drain_ready(&mut self, now: u64) {
        while let Some(entry) = self.write_buffer.pop_ready(now) {
            self.mem.write(entry.ready_at, TrafficClass::LineWrite);
        }
    }

    fn demand_read(&mut self, now: u64, class: TrafficClass) -> u64 {
        let done = self.mem.read(now, class);
        self.drain_ready(now);
        done
    }

    fn demand_write(&mut self, now: u64, class: TrafficClass) -> u64 {
        self.drain_ready(now);
        self.mem.write(now, class)
    }

    fn enqueue_write(&mut self, now: u64, ready_at: u64, addr: u64, class: TrafficClass) {
        if self.write_buffer.is_full() {
            if let Some(head) = self.write_buffer.pop_ready(u64::MAX) {
                let start = head.ready_at.max(now);
                self.mem.write(start, TrafficClass::LineWrite);
            }
        }
        if class != TrafficClass::LineWrite {
            self.mem.write(now.max(ready_at), class);
        } else {
            let pushed = self.write_buffer.push(addr, ready_at);
            debug_assert!(pushed, "buffer cannot be full after force-drain");
        }
    }

    fn flush_writes(&mut self, now: u64) -> usize {
        let mut drained = 0;
        while let Some(entry) = self.write_buffer.pop_ready(u64::MAX) {
            let start = entry.ready_at.max(now);
            self.mem.write(start, TrafficClass::LineWrite);
            drained += 1;
        }
        drained
    }
}

/// The line-interleaved fabric exactly as it was before the bank layer.
struct SeedChannelSet {
    channels: Vec<SeedChannel>,
    interleave_bytes: u64,
}

impl SeedChannelSet {
    fn new(
        channels: usize,
        mem_latency: u64,
        occupancy: u64,
        write_buffer_entries: usize,
        interleave_bytes: u64,
    ) -> Self {
        Self {
            channels: (0..channels)
                .map(|_| SeedChannel::new(mem_latency, occupancy, write_buffer_entries))
                .collect(),
            interleave_bytes,
        }
    }

    fn channel_of(&self, addr: u64) -> usize {
        ((addr / self.interleave_bytes) % self.channels.len() as u64) as usize
    }

    fn demand_read(&mut self, now: u64, addr: u64, class: TrafficClass) -> u64 {
        let ch = self.channel_of(addr);
        self.channels[ch].demand_read(now, class)
    }

    fn demand_write(&mut self, now: u64, addr: u64, class: TrafficClass) -> u64 {
        let ch = self.channel_of(addr);
        self.channels[ch].demand_write(now, class)
    }

    fn enqueue_write(&mut self, now: u64, ready_at: u64, addr: u64, class: TrafficClass) {
        let ch = self.channel_of(addr);
        self.channels[ch].enqueue_write(now, ready_at, addr, class);
    }

    fn flush_writes(&mut self, now: u64) -> usize {
        self.channels.iter_mut().map(|ch| ch.flush_writes(now)).sum()
    }

    fn stats(&self) -> CounterSet {
        let mut all = CounterSet::new("mem");
        for ch in &self.channels {
            all.merge(&ch.mem.stats());
        }
        all
    }
}

fn counters(set: &CounterSet) -> BTreeMap<String, u64> {
    set.iter().map(|(k, v)| (k.to_string(), v)).collect()
}

// ---- fabric differential ----

/// Drives the seed fabric and a new flat fabric with one pseudorandom
/// op stream; every returned cycle and every counter must match.
fn assert_fabric_equivalent(channels: usize, bank_config: BankConfig, seed: u64) {
    assert!(bank_config.is_flat(), "only flat configs collapse to the seed fabric");
    let mut old = SeedChannelSet::new(channels, 100, 8, 8, 128);
    let mut new = ChannelSet::new(channels, 100, 8, 8).with_banks(bank_config);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = 0u64;
    for step in 0..3_000u32 {
        now += rng.next_u64() % 160;
        let addr = (rng.next_u64() % 4096) * 128;
        match rng.next_u64() % 10 {
            0..=4 => {
                let class = if rng.next_u64() % 4 == 0 {
                    TrafficClass::SeqRead
                } else {
                    TrafficClass::LineRead
                };
                assert_eq!(
                    new.demand_read(now, addr, class),
                    old.demand_read(now, addr, class),
                    "step {step}: read of {addr:#x} at {now} ({channels}ch)"
                );
            }
            5 | 6 => {
                let class = if rng.next_u64() % 4 == 0 {
                    TrafficClass::SeqWrite
                } else {
                    TrafficClass::LineWrite
                };
                assert_eq!(
                    new.demand_write(now, addr, class),
                    old.demand_write(now, addr, class),
                    "step {step}: write of {addr:#x} at {now} ({channels}ch)"
                );
            }
            7 | 8 => {
                let ready = now + rng.next_u64() % 300;
                new.enqueue_write(now, ready, addr, TrafficClass::LineWrite);
                old.enqueue_write(now, ready, addr, TrafficClass::LineWrite);
            }
            _ => {
                assert_eq!(
                    new.flush_writes(now),
                    old.flush_writes(now),
                    "step {step}: flush at {now} ({channels}ch)"
                );
            }
        }
    }
    now += 10_000;
    assert_eq!(new.flush_writes(now), old.flush_writes(now));
    assert_eq!(
        counters(&new.stats()),
        counters(&old.stats()),
        "fabric counters diverged ({channels}ch)"
    );
}

#[test]
fn flat_fabric_matches_seed_fabric_across_channel_counts() {
    for (i, channels) in [1usize, 2, 3, 4, 8].into_iter().enumerate() {
        assert_fabric_equivalent(channels, BankConfig::flat(), 211 + i as u64);
    }
}

#[test]
fn bank_knobs_are_inert_on_a_flat_fabric() {
    // Absurd row timings with banks = 1 must still be the seed fabric:
    // the knobs cannot leak into flat timing.
    let weird = BankConfig {
        banks: 1,
        row_hit_cycles: 1,
        row_conflict_cycles: 9_999,
        row_closed_cycles: 77,
        page_policy: padlock_mem::PagePolicy::Closed,
    };
    for (i, channels) in [1usize, 2, 4].into_iter().enumerate() {
        assert_fabric_equivalent(channels, weird, 223 + i as u64);
    }
}

// ---- the bank knob is live ----

#[test]
fn banked_machine_actually_diverges_from_flat() {
    // Sanity that the knob is live: the same machine with mem_banks > 1
    // must *not* be cycle-identical — otherwise the flat differential
    // above proves nothing about the banked paths.
    let mut cfg = MachineConfig::paper(SecurityMode::otp_lru_64k());
    cfg.security = cfg.security.with_mem_channels(2).with_snc_shards(2);
    let mut flat = Machine::new(cfg.clone());
    cfg.security = cfg.security.with_mem_banks(4);
    let mut banked = Machine::new(cfg);
    let mf = flat.run(&mut StrideWorkload::new(8 << 20, 136, 0.35), 2_000, 8_000);
    let mb = banked.run(&mut StrideWorkload::new(8 << 20, 136, 0.35), 2_000, 8_000);
    assert_ne!(mf.stats.cycles, mb.stats.cycles);
    assert_eq!(mf.traffic.get("row_hits") + mf.traffic.get("row_conflicts"), 0);
    assert!(mb.traffic.get("row_hits") + mb.traffic.get("row_conflicts") > 0);
}
