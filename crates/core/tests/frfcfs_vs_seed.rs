//! Differential test: the scheduling knobs this PR adds — `drain_order`
//! and `page_policy` — must be *inert at their defaults*: a controller
//! at `drain_order = Fifo`, `page_policy = Open` must reproduce the
//! PR 4 drain scheduler **bit-exactly**, across the whole
//! mode × channels × banks × inflight grid.
//!
//! Three layers:
//!
//! * **bank** — `SeedBankSet` below is a line-for-line port of the PR 4
//!   bank set (open-row registers with no page-policy machinery). It is
//!   driven against the new [`padlock_mem::BankSet`] under the open
//!   page policy with identical pseudorandom access streams; every
//!   grant (start, done, hit, bank) must match, with the closed-page
//!   latency knob at its default *and* at absurd values (inert under
//!   `Open`);
//! * **engine** — `SeedEngine` below is a line-for-line port of the
//!   PR 4 drain scheduler (classify in arrival order, issue phase-one
//!   accesses inline, no writeback forwarding). Both engines are driven
//!   with identical pseudorandom read-batch/writeback traces across
//!   every security mode × SNC policy × channel count × bank count ×
//!   in-flight depth; every latency and every traffic / controller /
//!   SNC counter must match. (The port drains each posted writeback in
//!   a window of its own; today's controller posts it without one.)
//! * **machine** — whole `Machine`s prove the knobs collapse on a flat
//!   fabric: `RowFirst` has no rows to group and `Closed` has no banks
//!   to precharge at `mem_banks = 1`, so machines differing only in
//!   those knobs must be cycle- and counter-identical — while a banked
//!   machine with `Closed` (and a banked engine window under
//!   `RowFirst`) must actually diverge, or the grid proves nothing.

use padlock_core::engine::{CryptoTimeline, SncPorts, PADS_PER_SLOT};
use padlock_core::{
    Machine, MachineConfig, SecureBackend, SecureBackendConfig, SecurityMode, SequenceNumberCache,
    SncConfig, SncLookup, SncOrganization, SncPolicy,
};
use padlock_cpu::{LineKind, MemoryBackend, StrideWorkload};
use padlock_mem::{
    BankConfig, BankSet, ChannelSet, DrainOrder, PagePolicy, TrafficClass, ROW_BYTES, ROW_LINES,
};
use padlock_stats::CounterSet;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

fn counters(set: &CounterSet) -> BTreeMap<String, u64> {
    set.iter().map(|(k, v)| (k.to_string(), v)).collect()
}

// ---- the ported transaction record (reads and writebacks share windows) ----

#[derive(Clone, Copy)]
enum TxnOp {
    Read(LineKind),
    Writeback,
}

#[derive(Clone, Copy)]
struct MemTxn {
    line_addr: u64,
    op: TxnOp,
    arrival: u64,
}

impl MemTxn {
    fn read(arrival: u64, line_addr: u64, kind: LineKind) -> Self {
        Self {
            line_addr,
            op: TxnOp::Read(kind),
            arrival,
        }
    }

    fn writeback(arrival: u64, line_addr: u64) -> Self {
        Self {
            line_addr,
            op: TxnOp::Writeback,
            arrival,
        }
    }
}

// ---- layer 1: the PR 4 bank set, ported line for line ----

#[derive(Clone, Copy)]
struct SeedBank {
    open_row: Option<u64>,
    busy_until: u64,
}

struct SeedBankSet {
    row_hit_cycles: u64,
    row_conflict_cycles: u64,
    row_bytes: u64,
    banks: Vec<SeedBank>,
}

impl SeedBankSet {
    fn new(banks: usize, row_hit_cycles: u64, row_conflict_cycles: u64, row_bytes: u64) -> Self {
        Self {
            row_hit_cycles,
            row_conflict_cycles,
            row_bytes,
            banks: vec![
                SeedBank {
                    open_row: None,
                    busy_until: 0,
                };
                banks
            ],
        }
    }

    fn access(&mut self, ready: u64, addr: u64) -> (u64, u64, bool, usize) {
        let row = addr / self.row_bytes;
        let index = (row % self.banks.len() as u64) as usize;
        let bank = &mut self.banks[index];
        let start = ready.max(bank.busy_until);
        let hit = bank.open_row == Some(row);
        let latency = if hit {
            self.row_hit_cycles
        } else {
            self.row_conflict_cycles
        };
        bank.busy_until = start + latency;
        bank.open_row = Some(row);
        (start, start + latency, hit, index)
    }
}

fn assert_bankset_equivalent(banks: usize, closed_cycles: u64, seed: u64) {
    let config = BankConfig::banked(banks)
        .with_page_policy(PagePolicy::Open)
        .with_closed_cycles(closed_cycles);
    let mut new = BankSet::new(config);
    let mut old = SeedBankSet::new(
        banks,
        config.row_hit_cycles,
        config.row_conflict_cycles,
        ROW_BYTES,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = 0u64;
    for step in 0..5_000u32 {
        now += rng.next_u64() % 200;
        let addr = (rng.next_u64() % 2048) * 128;
        let grant = new.access(now, addr);
        let (start, done, hit, bank) = old.access(now, addr);
        assert_eq!(
            (grant.start, grant.done, grant.hit, grant.bank),
            (start, done, hit, bank),
            "step {step}: {addr:#x} at {now} ({banks} banks)"
        );
    }
}

#[test]
fn open_page_bankset_matches_the_seed_bankset() {
    for (i, banks) in [1usize, 2, 4, 8].into_iter().enumerate() {
        assert_bankset_equivalent(banks, padlock_mem::DEFAULT_ROW_CLOSED_CYCLES, 401 + i as u64);
    }
}

#[test]
fn closed_latency_knob_is_inert_under_open_page_rows() {
    // Any closed-page latency inside the legal [hit, conflict] band
    // must leave open-page timing untouched.
    for (i, closed) in [
        padlock_mem::DEFAULT_ROW_HIT_CYCLES,
        77,
        padlock_mem::DEFAULT_ROW_CONFLICT_CYCLES,
    ]
    .into_iter()
    .enumerate()
    {
        assert_bankset_equivalent(4, closed, 431 + i as u64);
    }
}

// ---- layer 2: the PR 4 drain scheduler, ported line for line ----

const SPILL_BATCH: u32 = 64;

#[derive(Debug, Clone, Copy)]
enum SeedPath {
    Plain,
    Fast,
    SeqFetch,
    Direct,
    Alias(usize),
    Posted,
}

struct SeedSlot {
    txn: MemTxn,
    path: SeedPath,
    fetched: u64,
    crypto_done: u64,
    done: u64,
}

/// The controller exactly as PR 4 left it: classify in arrival order,
/// issue each phase-one access inline, merge later reads into earlier
/// *read* slots only.
struct SeedEngine {
    config: SecureBackendConfig,
    channels: ChannelSet,
    snc: Option<SequenceNumberCache>,
    written: BTreeSet<u64>,
    pending_spills: u32,
    queue: Vec<MemTxn>,
    stats: CounterSet,
}

impl SeedEngine {
    fn new(config: SecureBackendConfig) -> Self {
        let channels = ChannelSet::new(
            config.mem_channels,
            config.mem_latency,
            config.mem_occupancy,
            config.write_buffer_entries,
        )
        .with_banks(config.bank_config());
        let snc = match config.mode {
            SecurityMode::Otp { snc } => Some(SequenceNumberCache::new(snc, config.snc_shards)),
            _ => None,
        };
        Self {
            config,
            channels,
            snc,
            written: BTreeSet::new(),
            pending_spills: 0,
            queue: Vec::new(),
            stats: CounterSet::new("controller"),
        }
    }

    fn crypto_latency(&self) -> u64 {
        self.config.crypto.pipeline_latency()
    }

    /// Mirrors `SecureBackend::pre_age` with an ancient-only feed.
    fn pre_age<A: IntoIterator<Item = u64>>(&mut self, lines: A) {
        if let SecurityMode::Otp { snc: snc_cfg } = self.config.mode {
            let snc = self.snc.as_mut().expect("OTP mode has an SNC");
            for line in lines {
                self.written.insert(line);
                match snc_cfg.policy {
                    SncPolicy::NoReplacement => {
                        snc.try_install(line, 1);
                    }
                    SncPolicy::Lru => {
                        snc.install(line, 1);
                    }
                }
            }
            snc.reset_stats();
        }
        self.stats.reset();
    }

    fn spill_seq(&mut self, now: u64, ready_at: u64, line_addr: u64) {
        self.pending_spills += 1;
        if self.pending_spills >= SPILL_BATCH {
            self.pending_spills = 0;
            self.channels
                .enqueue_write(now, ready_at, line_addr, TrafficClass::SeqWrite);
        }
    }

    fn flush_spills(&mut self, now: u64) {
        if self.pending_spills > 0 {
            self.pending_spills = 0;
            self.channels.enqueue_write(
                now,
                now + self.crypto_latency(),
                0,
                TrafficClass::SeqWrite,
            );
        }
    }

    fn classify_read(
        &mut self,
        txn: &MemTxn,
        kind: LineKind,
        crypto: &mut CryptoTimeline,
        ports: &mut SncPorts,
    ) -> SeedSlot {
        let mut slot = SeedSlot {
            txn: *txn,
            path: SeedPath::Plain,
            fetched: 0,
            crypto_done: 0,
            done: 0,
        };
        match self.config.mode {
            SecurityMode::Insecure => {
                slot.fetched =
                    self.channels
                        .demand_read(txn.arrival, txn.line_addr, TrafficClass::LineRead);
            }
            SecurityMode::Xom => {
                self.stats.incr("xom_reads");
                slot.path = SeedPath::Direct;
                slot.fetched =
                    self.channels
                        .demand_read(txn.arrival, txn.line_addr, TrafficClass::LineRead);
            }
            SecurityMode::Otp { snc: snc_cfg } => {
                let fast = if kind == LineKind::Instruction {
                    true
                } else if self.config.clean_lines_bypass && !self.written.contains(&txn.line_addr)
                {
                    self.stats.incr("clean_bypass_reads");
                    true
                } else {
                    false
                };
                if fast {
                    self.stats.incr("otp_fast_reads");
                    slot.path = SeedPath::Fast;
                    slot.fetched = self.channels.demand_read(
                        txn.arrival,
                        txn.line_addr,
                        TrafficClass::LineRead,
                    );
                    slot.crypto_done = crypto.issue_pad(txn.arrival);
                    return slot;
                }
                let snc = self.snc.as_mut().expect("OTP mode has an SNC");
                let lookup_at = ports.acquire(snc.shard_of(txn.line_addr), txn.arrival);
                match snc.query(txn.line_addr) {
                    SncLookup::Hit(_) => {
                        self.stats.incr("otp_fast_reads");
                        slot.path = SeedPath::Fast;
                        slot.fetched = self.channels.demand_read(
                            lookup_at,
                            txn.line_addr,
                            TrafficClass::LineRead,
                        );
                        slot.crypto_done = crypto.issue_pad(lookup_at);
                    }
                    SncLookup::Miss => match snc_cfg.policy {
                        SncPolicy::NoReplacement => {
                            self.stats.incr("xom_reads");
                            slot.path = SeedPath::Direct;
                            slot.fetched = self.channels.demand_read(
                                lookup_at,
                                txn.line_addr,
                                TrafficClass::LineRead,
                            );
                        }
                        SncPolicy::Lru => {
                            self.stats.incr("snc_fetch_reads");
                            slot.path = SeedPath::SeqFetch;
                            slot.fetched = self.channels.demand_read(
                                lookup_at,
                                txn.line_addr,
                                TrafficClass::SeqRead,
                            );
                        }
                    },
                }
            }
        }
        slot
    }

    fn drain_window(&mut self, out: &mut Vec<u64>) {
        if self.queue.is_empty() {
            return;
        }
        let window: Vec<MemTxn> = self.queue.drain(..).collect();
        let mut crypto = CryptoTimeline::new(self.crypto_latency(), PADS_PER_SLOT);
        let mut ports = SncPorts::new(self.config.snc_shards, self.config.snc_port_cycles);
        let mut slots: Vec<SeedSlot> = Vec::with_capacity(window.len());
        for txn in window {
            let slot = match txn.op {
                TxnOp::Writeback => {
                    self.process_writeback(txn.arrival, txn.line_addr);
                    SeedSlot {
                        txn,
                        path: SeedPath::Posted,
                        fetched: 0,
                        crypto_done: 0,
                        done: 0,
                    }
                }
                TxnOp::Read(kind) => {
                    let primary = slots.iter().position(|s| {
                        s.txn.line_addr == txn.line_addr
                            && matches!(s.txn.op, TxnOp::Read(_))
                            && !matches!(s.path, SeedPath::Alias(_))
                    });
                    match primary {
                        Some(p) => {
                            self.stats.incr("mshr_merged_reads");
                            SeedSlot {
                                txn,
                                path: SeedPath::Alias(p),
                                fetched: 0,
                                crypto_done: 0,
                                done: 0,
                            }
                        }
                        None => self.classify_read(&txn, kind, &mut crypto, &mut ports),
                    }
                }
            };
            slots.push(slot);
        }
        for slot in slots.iter_mut() {
            if matches!(slot.path, SeedPath::SeqFetch) {
                slot.crypto_done = crypto.issue_block(slot.fetched);
            }
        }
        for i in 0..slots.len() {
            let (path, fetched, crypto_done) =
                (slots[i].path, slots[i].fetched, slots[i].crypto_done);
            slots[i].done = match path {
                SeedPath::Posted => 0,
                SeedPath::Plain => fetched,
                SeedPath::Fast => fetched.max(crypto_done) + 1,
                SeedPath::Direct => crypto.issue_block(fetched),
                SeedPath::Alias(p) => slots[p].done,
                SeedPath::SeqFetch => {
                    let seq_ready = crypto_done;
                    let line_fetched = self.channels.demand_read(
                        seq_ready,
                        slots[i].txn.line_addr,
                        TrafficClass::LineRead,
                    );
                    let pad_done = crypto.issue_pad(seq_ready);
                    let arrival = slots[i].txn.arrival;
                    let line_addr = slots[i].txn.line_addr;
                    let spill_ready = seq_ready + self.crypto_latency();
                    let snc = self.snc.as_mut().expect("OTP mode has an SNC");
                    if let Some(victim) = snc.install(line_addr, 1) {
                        self.spill_seq(arrival, spill_ready, victim.line_addr);
                    }
                    line_fetched.max(pad_done) + 1
                }
            };
        }
        for slot in &slots {
            if matches!(slot.txn.op, TxnOp::Read(_)) {
                out.push(slot.done);
            }
        }
    }

    fn process_writeback(&mut self, now: u64, line_addr: u64) {
        match self.config.mode {
            SecurityMode::Insecure => {
                self.channels
                    .enqueue_write(now, now, line_addr, TrafficClass::LineWrite);
            }
            SecurityMode::Xom => {
                let ready = now + self.crypto_latency();
                self.channels
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
                                let seq_fetched = self.channels.demand_read(
                                    now,
                                    line_addr,
                                    TrafficClass::SeqRead,
                                );
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
                self.channels
                    .enqueue_write(now, ready, line_addr, TrafficClass::LineWrite);
            }
        }
    }

    fn line_read_batch_at(&mut self, reqs: &[(u64, u64, LineKind)]) -> Vec<u64> {
        let mut out = Vec::with_capacity(reqs.len());
        for &(at, line_addr, kind) in reqs {
            if self.queue.len() >= self.config.max_inflight {
                self.drain_window(&mut out);
            }
            self.queue.push(MemTxn::read(at, line_addr, kind));
        }
        self.drain_window(&mut out);
        out
    }

    fn line_writeback(&mut self, now: u64, line_addr: u64) {
        self.queue.push(MemTxn::writeback(now, line_addr));
        let mut out = Vec::new();
        self.drain_window(&mut out);
    }

    fn drain(&mut self, now: u64) {
        let mut out = Vec::new();
        self.drain_window(&mut out);
        self.flush_spills(now);
        self.channels.flush_writes(now);
    }
}

fn snc_cfg(policy: SncPolicy, entries: usize) -> SncConfig {
    SncConfig {
        capacity_bytes: entries * 2,
        organization: SncOrganization::FullyAssociative,
        policy,
    }
}

fn grid_modes() -> Vec<SecurityMode> {
    vec![
        SecurityMode::Insecure,
        SecurityMode::Xom,
        SecurityMode::Otp {
            snc: snc_cfg(SncPolicy::Lru, 64),
        },
        SecurityMode::Otp {
            snc: snc_cfg(SncPolicy::NoReplacement, 64),
        },
    ]
}

/// Drives the PR 4 seed engine and the new controller (knobs at their
/// defaults) with one pseudorandom public-API trace; every latency and
/// counter must match.
fn assert_engine_equivalent(
    mode: SecurityMode,
    channels: usize,
    banks: usize,
    inflight: usize,
    seed: u64,
) {
    let cfg = SecureBackendConfig::paper(mode)
        .with_mem_channels(channels)
        .with_snc_shards(channels)
        .with_mem_banks(banks)
        .with_max_inflight(inflight);
    assert_eq!(cfg.drain_order, DrainOrder::Fifo);
    assert_eq!(cfg.page_policy, PagePolicy::Open);
    let mut old = SeedEngine::new(cfg.clone());
    let mut new = SecureBackend::new(cfg);
    // Age a slice of the address pool so written-line and SNC paths
    // are live from the first step.
    let aged: Vec<u64> = (0..128u64).map(|i| 0x8000 + i * 128).collect();
    old.pre_age(aged.iter().copied());
    new.pre_age(aged.iter().copied(), std::iter::empty());

    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = 0u64;
    let mut batch: Vec<(u64, u64, LineKind)> = Vec::new();
    for step in 0..1_200u32 {
        now += rng.next_u64() % 220;
        let addr = 0x8000 + (rng.next_u64() % 512) * 128;
        match rng.next_u64() % 10 {
            0..=4 => {
                let kind = if rng.next_u64() % 5 == 0 {
                    LineKind::Instruction
                } else {
                    LineKind::Data
                };
                batch.push((now, addr, kind));
                if batch.len() >= inflight || rng.next_u64() % 3 == 0 {
                    let dn = new.line_read_batch_at(&batch);
                    let ds = old.line_read_batch_at(&batch);
                    assert_eq!(
                        dn, ds,
                        "step {step}: batch diverged ({mode}, {channels}ch, {banks}bk)"
                    );
                    batch.clear();
                }
            }
            _ => {
                new.line_writeback(now, addr);
                old.line_writeback(now, addr);
            }
        }
    }
    if !batch.is_empty() {
        assert_eq!(new.line_read_batch_at(&batch), old.line_read_batch_at(&batch));
    }
    now += 1_000;
    new.drain(now);
    old.drain(now);
    let tag = format!("{mode}, {channels}ch, {banks}bk, mlp{inflight}");
    assert_eq!(
        counters(&new.traffic()),
        counters(&old.channels.stats()),
        "traffic diverged ({tag})"
    );
    assert_eq!(
        counters(&new.controller_stats()),
        counters(&old.stats),
        "controller diverged ({tag})"
    );
    if let Some(snc) = new.snc() {
        assert_eq!(
            counters(&snc.stats()),
            counters(&old.snc.as_ref().expect("both engines run the same mode").stats()),
            "snc diverged ({tag})"
        );
    }
}

#[test]
fn fifo_open_engine_matches_seed_across_mode_channel_bank_inflight_grid() {
    let mut seed = 509u64;
    for mode in grid_modes() {
        for channels in [1usize, 2, 4] {
            for banks in [1usize, 4] {
                for inflight in [1usize, 8] {
                    seed += 1;
                    assert_engine_equivalent(mode, channels, banks, inflight, seed);
                }
            }
        }
    }
}

// ---- layer 3: whole machines, knob inertness on the flat fabric ----

fn flat_machine(
    mode: SecurityMode,
    channels: usize,
    mshrs: usize,
    order: DrainOrder,
    page: PagePolicy,
) -> Machine {
    let mut cfg = MachineConfig::paper(mode);
    cfg.hierarchy.l2_mshrs = mshrs;
    cfg.security = cfg
        .security
        .with_mem_channels(channels)
        .with_snc_shards(channels)
        .with_max_inflight(4 * mshrs)
        .with_drain_order(order)
        .with_page_policy(page);
    assert_eq!(cfg.security.mem_banks, 1);
    Machine::new(cfg)
}

fn assert_machines_identical(mut a: Machine, mut b: Machine, tag: &str) {
    let ma = a.run(&mut StrideWorkload::new(8 << 20, 136, 0.35), 2_000, 8_000);
    let mb = b.run(&mut StrideWorkload::new(8 << 20, 136, 0.35), 2_000, 8_000);
    assert_eq!(ma.stats.cycles, mb.stats.cycles, "cycles diverged ({tag})");
    assert_eq!(ma.stats.instructions, mb.stats.instructions, "{tag}");
    assert_eq!(counters(&ma.traffic), counters(&mb.traffic), "{tag}");
    assert_eq!(counters(&ma.controller), counters(&mb.controller), "{tag}");
    assert_eq!(counters(&ma.snc), counters(&mb.snc), "{tag}");
}

#[test]
fn row_first_collapses_to_fifo_on_a_flat_fabric() {
    for mode in [SecurityMode::Insecure, SecurityMode::otp_lru_64k()] {
        for (channels, mshrs) in [(1usize, 8usize), (4, 8)] {
            let fifo = flat_machine(mode, channels, mshrs, DrainOrder::Fifo, PagePolicy::Open);
            let rowf = flat_machine(mode, channels, mshrs, DrainOrder::RowFirst, PagePolicy::Open);
            assert_machines_identical(fifo, rowf, &format!("{mode}, {channels}ch row-first"));
        }
    }
}

#[test]
fn closed_page_collapses_to_open_on_a_flat_fabric() {
    for mode in [SecurityMode::Xom, SecurityMode::otp_lru_64k()] {
        for (channels, mshrs) in [(1usize, 1usize), (4, 8)] {
            let open = flat_machine(mode, channels, mshrs, DrainOrder::Fifo, PagePolicy::Open);
            let closed = flat_machine(mode, channels, mshrs, DrainOrder::Fifo, PagePolicy::Closed);
            assert_machines_identical(open, closed, &format!("{mode}, {channels}ch closed-page"));
        }
    }
}

#[test]
fn banked_scheduling_knobs_actually_diverge() {
    // Sanity that the grid proves something: on a *banked* fabric the
    // knobs must be live. A window that ping-pongs two rows of one
    // bank diverges under RowFirst, and Closed changes every banked
    // access latency.
    let row = 128 * ROW_LINES;
    let reqs: Vec<(u64, LineKind)> = [0, 2 * row, 128, 2 * row + 128]
        .into_iter()
        .map(|a| (a, LineKind::Instruction))
        .collect();
    let run = |order: DrainOrder, page: PagePolicy| {
        let cfg = SecureBackendConfig::paper(SecurityMode::Insecure)
            .with_mem_banks(2)
            .with_max_inflight(8)
            .with_drain_order(order)
            .with_page_policy(page);
        let mut b = SecureBackend::new(cfg);
        let dones = b.line_read_batch(0, &reqs);
        (dones, b.traffic().get("row_hits"))
    };
    let (fifo, fifo_hits) = run(DrainOrder::Fifo, PagePolicy::Open);
    let (rowf, rowf_hits) = run(DrainOrder::RowFirst, PagePolicy::Open);
    assert_ne!(fifo, rowf, "RowFirst knob is dead on a banked window");
    assert!(rowf_hits > fifo_hits);
    let (closed, closed_hits) = run(DrainOrder::Fifo, PagePolicy::Closed);
    assert_ne!(fifo, closed, "Closed knob is dead on a banked window");
    assert_eq!(closed_hits, 0);

    // And a whole banked machine diverges under Closed.
    let banked = |page: PagePolicy| {
        let mut cfg = MachineConfig::paper(SecurityMode::otp_lru_64k());
        cfg.security = cfg.security.with_mem_banks(4).with_page_policy(page);
        Machine::new(cfg)
    };
    let mo = banked(PagePolicy::Open).run(&mut StrideWorkload::new(8 << 20, 136, 0.35), 2_000, 8_000);
    let mc = banked(PagePolicy::Closed).run(&mut StrideWorkload::new(8 << 20, 136, 0.35), 2_000, 8_000);
    assert_ne!(mo.stats.cycles, mc.stats.cycles);
    assert!(mo.traffic.get("row_hits") > 0);
    assert_eq!(mc.traffic.get("row_hits"), 0);
}
