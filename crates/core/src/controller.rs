//! The secure memory controller: everything below L2.
//!
//! Implements the paper's three machines behind one
//! [`padlock_cpu::MemoryBackend`]:
//!
//! * **baseline** — raw DRAM;
//! * **XOM** — every off-chip line transfer passes through the crypto
//!   unit *in series*: read-miss latency = `mem + crypto` (Fig. 2);
//! * **OTP + SNC** — pads are computed in parallel with the DRAM access:
//!   read-miss latency = `max(mem, crypto) + 1` when the seed is at hand,
//!   which it is for instructions (address-seeded, §3.4.1), for clean
//!   data lines (sequence number known to be zero; DESIGN.md §3), and on
//!   SNC query hits. The miss cases follow Algorithm 1: under LRU the
//!   sequence number is fetched from memory and decrypted (`mem + crypto`)
//!   *before* pad generation can start; under no-replacement the line was
//!   direct-encrypted, i.e. the XOM path.
//!
//! # The transaction engine
//!
//! The controller is organised as a transaction engine rather than a
//! one-call-one-latency function: its one read entry point,
//! `line_read_batch_at`, cuts a batch of L2 misses (each at its own
//! arrival cycle) into windows of at most `max_inflight` [`MemTxn`]s,
//! MSHR-style, and a drain scheduler retires each window in three
//! phases against per-resource timelines —
//! the DRAM channel (persistent occupancy), the per-channel DRAM
//! **banks** (each [`padlock_mem::BankSet`] bank's open-row register
//! and busy timeline, consulted by every fabric access when
//! `mem_banks > 1` so same-bank misses serialise on their
//! precharge/activate while different-bank misses overlap — the fourth
//! scheduling resource alongside channel, crypto, and ports), the
//! crypto pipeline ([`crate::engine::CryptoTimeline`], which coalesces
//! up to [`crate::engine::PADS_PER_SLOT`] pad generations per issue
//! slot), and
//! one lookup port per SNC shard ([`crate::engine::SncPorts`]):
//!
//! 1. **classify + first issue** — probe the (sharded) SNC, pick the
//!    path (fast / sequence-fetch / direct), and issue the first memory
//!    access; same-line reads merge into the earlier miss;
//! 2. **decrypt** — sequence-number decryptions claim crypto slots;
//! 3. **fill + pad** — overlapped line fetches issue, pads batch
//!    through the crypto timeline, evicted sequence numbers spill.
//!
//! `line_read` and `line_read_batch` are the trait's batches of one and
//! of same-cycle misses. With `max_inflight = 1` and `snc_shards = 1` a
//! window never holds more than one transaction, no resource is ever
//! contended, and the engine's arithmetic is bit-identical to the
//! paper's single-miss model (the `engine_vs_seed` differential test
//! drives both against random traces and compares every latency and
//! traffic counter).
//!
//! # Drain order
//!
//! Classifying a read never touches the fabric, so a window's phase-one
//! memory accesses leave in one issue pass once the window is
//! classified: in arrival order under [`DrainOrder::Fifo`] (the paper's
//! controller, and the default), or under [`DrainOrder::RowFirst`] in
//! the fabric's FR-FCFS order
//! ([`padlock_mem::ChannelSet::row_first_order`]: first-ready,
//! row-hit-first, oldest-first against the live per-bank open-row
//! state) — so a window whose misses are row-mates opens each row once
//! and streams the rest as row hits instead of paying a
//! precharge + activate per miss. Everything order-sensitive to
//! *state* — SNC probes and installs, merge detection,
//! retirement — still runs in arrival order, which is why
//! reordering moves only completion cycles: traffic, controller, and
//! SNC counters are bit-identical between the two orders (the
//! `drain_order_properties` suite proves it), and on a flat
//! (`mem_banks = 1`) fabric `RowFirst` collapses to `Fifo` exactly.
//!
//! # Writebacks
//!
//! A writeback is posted, off the read critical path (§3.4), and never
//! joins a window: `line_writeback` encrypts it per mode, updates the
//! SNC, and enqueues the ciphertext in the write buffer with its
//! ready-time, to drain on idle channel slots. Sequence-number fetches
//! and spills are tagged so Fig. 9's induced-traffic ratio falls out of
//! the traffic counters. Residual spill entries that never filled a
//! packed line are flushed by [`SecureBackend::flush_spills`], which
//! `MemoryBackend::drain` calls at measurement wrap-up.

use crate::config::{SecureBackendConfig, SecurityMode, SncPolicy, SEQ_BYTES};
use crate::engine::{CryptoTimeline, MemTxn, SncPorts, PADS_PER_SLOT};
use crate::line_set::LineSet;
use crate::snc::{SequenceNumberCache, SncLookup};
use padlock_cpu::{LineKind, MemoryBackend};
use padlock_mem::{ChannelSet, DrainOrder, TrafficClass, LINE_BYTES};
use padlock_stats::CounterSet;

/// Fixed-slot controller event counters, bumped as plain fields on
/// the classify hot paths and rendered as a [`CounterSet`] on demand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ControllerStats {
    xom_reads: u64,
    clean_bypass_reads: u64,
    otp_fast_reads: u64,
    snc_fetch_reads: u64,
    mshr_merged_reads: u64,
    norepl_direct_writes: u64,
    first_writebacks: u64,
    snc_fetch_updates: u64,
    context_flush_entries: u64,
}

impl ControllerStats {
    fn to_counters(self) -> CounterSet {
        // Only touched counters appear, matching the shape the
        // incrementally-built `CounterSet` had before the fixed-slot
        // rewrite (readers use `get`, which defaults absent names to 0).
        let mut set = CounterSet::new("controller");
        for (name, n) in [
            ("xom_reads", self.xom_reads),
            ("clean_bypass_reads", self.clean_bypass_reads),
            ("otp_fast_reads", self.otp_fast_reads),
            ("snc_fetch_reads", self.snc_fetch_reads),
            ("mshr_merged_reads", self.mshr_merged_reads),
            ("norepl_direct_writes", self.norepl_direct_writes),
            ("first_writebacks", self.first_writebacks),
            ("snc_fetch_updates", self.snc_fetch_updates),
            ("context_flush_entries", self.context_flush_entries),
        ] {
            if n > 0 {
                set.add(name, n);
            }
        }
        set
    }
}

/// The configurable secure memory controller.
///
/// # Examples
///
/// ```
/// use padlock_core::{SecureBackend, SecureBackendConfig, SecurityMode};
/// use padlock_cpu::{LineKind, MemoryBackend};
///
/// let mut xom = SecureBackend::new(SecureBackendConfig::paper(SecurityMode::Xom));
/// // XOM pays memory + crypto in series:
/// assert_eq!(xom.line_read(0, 0x4000, LineKind::Data), 150);
///
/// let mut otp = SecureBackend::new(
///     SecureBackendConfig::paper(SecurityMode::otp_lru_64k()));
/// // OTP overlaps them: max(100, 50) + 1.
/// assert_eq!(otp.line_read(0, 0x4000, LineKind::Data), 101);
/// ```
#[derive(Debug)]
pub struct SecureBackend {
    config: SecureBackendConfig,
    channels: ChannelSet,
    snc: Option<SequenceNumberCache>,
    /// Lines that have ever been written back (their in-memory copy is
    /// OTP-dynamic or, under a full no-replacement SNC, direct-encrypted).
    /// One occupancy word per 64 lines, hashed by chunk: every OTP data
    /// miss and writeback point-queries it and nothing iterates it, so
    /// its fixed-hasher layout never reaches a result, and a densely
    /// aged region stays small enough to remain cache-resident.
    written: LineSet,
    /// Evicted sequence numbers awaiting spill; 64 two-byte entries pack
    /// into one line-sized memory transaction.
    pending_spills: u32,
    stats: ControllerStats,
    /// Window-scoped scratch buffers, recycled across [`Self::drain_window`]
    /// calls so a drain does not allocate per window. Always left
    /// empty/idle between windows; carries no cross-window state.
    scratch: WindowScratch,
    /// The compartment whose traffic is currently entering the shared
    /// fabric; SNC victims owned by other compartments are charged
    /// against it. Single-core machines never move it off 0.
    active_requestor: u16,
    /// Per-compartment count of SNC entries this compartment *lost* to
    /// a different compartment's install or context-switch flush —
    /// indexed by the victim's compartment, bumped only when the active
    /// requestor differs from the victim's owner. The fairness signal
    /// of the shared SNC.
    snc_evicted_by_others: Vec<u64>,
}

/// Reusable drain-window buffers (see [`SecureBackend::scratch`]).
#[derive(Debug, Default)]
struct WindowScratch {
    slots: Vec<Slot>,
    ports: Option<SncPorts>,
    /// Indices of the slots whose phase-one fetch the issue pass sends.
    fetching: Vec<usize>,
    /// Those fetches as `(ready, line_addr)` requests, for the fabric's
    /// row-first order.
    reqs: Vec<(u64, u64)>,
}

/// Sequence-number entries packed per spill transaction: one line of
/// 2-byte entries (64).
const SPILL_BATCH: u32 = LINE_BYTES / SEQ_BYTES as u32;

/// Which latency path a classified read takes through the window.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// Raw DRAM fill (insecure baseline).
    Plain,
    /// OTP fast path: pad generation overlapped with the fetch.
    Fast,
    /// Algorithm 1 miss: sequence fetch + decrypt before the fill.
    SeqFetch,
    /// Serial fetch-then-decrypt (XOM, and no-replacement SNC misses).
    Direct,
    /// Same-line merge with an earlier read in the window; it issues no
    /// memory access of its own.
    Alias(usize),
}

/// Per-read scheduling scratch for one drain window.
#[derive(Debug)]
struct Slot {
    txn: MemTxn,
    path: Path,
    /// Cycle the phase-one memory access may start: the arrival, or the
    /// SNC probe's port-grant cycle.
    ready: u64,
    /// Completion of the phase-one memory access (line fetch for
    /// `Fast`/`Direct`/`Plain`, sequence fetch for `SeqFetch`).
    fetched: u64,
    /// Completion of the phase-one/two crypto job (pad for `Fast`,
    /// sequence decrypt for `SeqFetch`).
    crypto_done: u64,
    /// Retire cycle.
    done: u64,
}

impl Slot {
    /// A slot with no scheduled work yet, ready at its arrival.
    fn new(txn: MemTxn, path: Path) -> Self {
        Self {
            txn,
            path,
            ready: txn.arrival,
            fetched: 0,
            crypto_done: 0,
            done: 0,
        }
    }
}

impl SecureBackend {
    /// Creates a controller for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `max_inflight`, `snc_shards`, `mem_channels` or
    /// `mem_banks` is zero, or (in OTP mode) if the shard count does not
    /// evenly divide the SNC entries.
    pub fn new(config: SecureBackendConfig) -> Self {
        assert!(config.max_inflight > 0, "max_inflight must be positive");
        assert!(config.snc_shards > 0, "snc_shards must be positive");
        assert!(config.mem_channels > 0, "mem_channels must be positive");
        assert!(config.mem_banks > 0, "mem_banks must be positive");
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
            written: LineSet::default(),
            pending_spills: 0,
            stats: ControllerStats::default(),
            scratch: WindowScratch::default(),
            active_requestor: 0,
            snc_evicted_by_others: Vec::new(),
        }
    }

    /// Declares which compartment's traffic enters the fabric next:
    /// SNC victims owned by *other* compartments are charged against
    /// `requestor`. The multi-core server calls this before each core's
    /// scheduling step.
    pub fn set_active_requestor(&mut self, requestor: u16) {
        self.active_requestor = requestor;
    }

    /// Per-compartment counts of SNC entries evicted by a *different*
    /// compartment's install or context-switch flush, indexed by the
    /// victim entry's compartment ([`crate::server::compartment_of`] of
    /// its line address). Compartments past the last victim are absent
    /// (treat missing as 0).
    pub fn snc_evicted_by_others(&self) -> &[u64] {
        &self.snc_evicted_by_others
    }

    /// Charges the eviction of `victim_line` to the active requestor if
    /// the victim belongs to a different compartment.
    fn note_snc_eviction(&mut self, victim_line: u64) {
        let owner = crate::server::compartment_of(victim_line);
        if owner != usize::from(self.active_requestor) {
            if self.snc_evicted_by_others.len() <= owner {
                self.snc_evicted_by_others.resize(owner + 1, 0);
            }
            self.snc_evicted_by_others[owner] += 1;
        }
    }

    /// Models the paper's 10-billion-instruction fast-forward for a
    /// long-running process: marks lines as previously written back and
    /// installs sequence numbers into the SNC (capacity permitting)
    /// without generating memory traffic.
    ///
    /// Two feeds, reflecting two kinds of old state:
    ///
    /// * `ancient` — long-dead allocations. Under LRU they are
    ///   installed *first*, so live data evicts them; a no-replacement
    ///   SNC fills every slot the active feed left with them (the
    ///   paper's gcc observation that early sequence numbers hog every
    ///   slot).
    /// * `active` — data the program still rewrites in place (streaming
    ///   update regions). Installed *last* under LRU, so LRU retains
    ///   it; under no-replacement it predates the churn and claims
    ///   slots first.
    ///
    /// Under LRU the SNC ages through [`SequenceNumberCache::age_lru`]:
    /// a fully associative SNC installs only the entries that survive,
    /// since the last `C` distinct installs into a `C`-entry LRU fix its
    /// contents and order, while a set-associative one keeps one install
    /// per line (the ways its survivors land in, and so its flush order,
    /// depend on the whole history). Under no-replacement the SNC ages
    /// through [`SequenceNumberCache::age_no_replacement`], which stops
    /// looking lines up once it has filled every free entry.
    pub fn pre_age<A, B>(&mut self, ancient: A, active: B)
    where
        A: IntoIterator<Item = u64>,
        B: IntoIterator<Item = u64>,
    {
        // Aging only affects modes with per-line state.
        if let SecurityMode::Otp { snc: snc_cfg } = self.config.mode {
            let snc = self.snc.as_mut().expect("OTP mode has an SNC");
            match snc_cfg.policy {
                // Under no-replacement the *active* region was written
                // first in program order (it predates the churn), so it
                // claims slots first; the ancient churn then fills the
                // rest.
                SncPolicy::NoReplacement => {
                    snc.age_no_replacement(&mut self.written, active.into_iter().chain(ancient));
                }
                // Under LRU recency is what matters: ancient first,
                // active last.
                SncPolicy::Lru => {
                    snc.age_lru(&mut self.written, ancient.into_iter().chain(active));
                }
            }
            snc.reset_stats();
        }
        self.stats = ControllerStats::default();
    }

    /// Buffers one evicted sequence number; every [`SPILL_BATCH`]th
    /// entry issues a packed line-sized spill transaction.
    fn spill_seq(&mut self, now: u64, ready_at: u64, line_addr: u64) {
        self.pending_spills += 1;
        if self.pending_spills >= SPILL_BATCH {
            self.pending_spills = 0;
            self.channels
                .enqueue_write(now, ready_at, line_addr, TrafficClass::SeqWrite);
        }
    }

    /// Drains any residual spill entries (a partial pack of fewer than
    /// [`SPILL_BATCH`]) as one encrypted line-sized transaction, so
    /// `SeqWrite` traffic is not undercounted at measurement end.
    /// Returns the number of entries flushed.
    pub fn flush_spills(&mut self, now: u64) -> u32 {
        let entries = self.pending_spills;
        if entries > 0 {
            self.pending_spills = 0;
            self.channels.enqueue_write(
                now,
                now + self.crypto_latency(),
                0,
                TrafficClass::SeqWrite,
            );
        }
        entries
    }

    /// Spill entries buffered but not yet issued as a packed
    /// transaction.
    pub fn pending_spills(&self) -> u32 {
        self.pending_spills
    }

    /// The SNC, when the mode has one.
    pub fn snc(&self) -> Option<&SequenceNumberCache> {
        self.snc.as_ref()
    }

    /// The DRAM channel fabric (per-channel occupancy and statistics).
    pub fn channels(&self) -> &ChannelSet {
        &self.channels
    }

    /// Controller event counters (`otp_fast_reads`, `xom_reads`,
    /// `snc_fetch_reads`, `mshr_merged_reads`, ...) — a snapshot
    /// rendered from the fixed-slot fields.
    pub fn controller_stats(&self) -> CounterSet {
        self.stats.to_counters()
    }

    /// Crypto pipeline latency for one line (the paper charges the
    /// pipelined unit's end-to-end latency per line).
    fn crypto_latency(&self) -> u64 {
        self.config.crypto.pipeline_latency()
    }

    /// Flushes the SNC as on a context switch (§4.3, policy 1): every
    /// entry is encrypted through the crypto pipeline
    /// ([`PADS_PER_SLOT`] entries per issue slot) and the
    /// ciphertext is spilled as packed line-sized transactions
    /// ([`SPILL_BATCH`] entries per line, like steady-state spills),
    /// striped round-robin across the channel fabric — so the flush's
    /// makespan shrinks as `mem_channels` grows instead of the whole
    /// SNC serialising through one controller, while the spilled-entry
    /// and packed-transaction counts stay exact regardless of fabric
    /// width. Returns the number of entries flushed.
    pub fn context_switch_flush(&mut self, now: u64) -> usize {
        let Some(snc) = self.snc.as_mut() else {
            return 0;
        };
        let entries = snc.flush();
        let mut crypto = CryptoTimeline::new(self.crypto_latency(), PADS_PER_SLOT);
        let fabric_width = self.channels.num_channels();
        for (pack_index, pack) in entries.chunks(SPILL_BATCH as usize).enumerate() {
            // A pack leaves when its last entry clears the crypto
            // pipeline; packs stripe over the fabric like the
            // sequence-number table's own channel-interleaved lines.
            let ready = pack
                .iter()
                .map(|_| crypto.issue_pad(now))
                .max()
                .unwrap_or(now);
            self.channels.demand_write_on(
                pack_index % fabric_width,
                ready,
                pack[0].line_addr,
                TrafficClass::SeqWrite,
            );
        }
        self.stats.context_flush_entries += entries.len() as u64;
        for entry in &entries {
            self.note_snc_eviction(entry.line_addr);
        }
        entries.len()
    }

    /// Phase one of a drain: classify one read and probe the SNC
    /// through its shard port. The returned slot carries the read's
    /// latency path and the cycle its first memory access may start;
    /// [`Self::issue_fetches`] sends that access to the fabric.
    fn classify_read(
        &mut self,
        txn: MemTxn,
        crypto: &mut CryptoTimeline,
        ports: &mut SncPorts,
    ) -> Slot {
        let mut slot = Slot::new(txn, Path::Plain);
        match self.config.mode {
            SecurityMode::Insecure => {}
            SecurityMode::Xom => {
                self.stats.xom_reads += 1;
                slot.path = Path::Direct;
            }
            SecurityMode::Otp { snc: snc_cfg } => {
                // Instructions are only ever read: their seed is the
                // virtual address, always at hand (§3.4.1). Clean data
                // lines (never written back) still carry the loader's
                // address-seeded encryption: seed known. Neither probes
                // the SNC.
                let fast = if txn.kind == LineKind::Instruction {
                    true
                } else if self.config.clean_lines_bypass && !self.written.contains(txn.line_addr) {
                    self.stats.clean_bypass_reads += 1;
                    true
                } else {
                    false
                };
                if fast {
                    self.stats.otp_fast_reads += 1;
                    slot.path = Path::Fast;
                    slot.crypto_done = crypto.issue_pad(txn.arrival);
                    return slot;
                }
                let snc = self.snc.as_mut().expect("OTP mode has an SNC");
                slot.ready = ports.acquire(snc.shard_of(txn.line_addr), txn.arrival);
                match snc.query(txn.line_addr) {
                    SncLookup::Hit(_) => {
                        self.stats.otp_fast_reads += 1;
                        slot.path = Path::Fast;
                        slot.crypto_done = crypto.issue_pad(slot.ready);
                    }
                    SncLookup::Miss => match snc_cfg.policy {
                        // The line was encrypted directly when it was
                        // written while the SNC was full: XOM path.
                        SncPolicy::NoReplacement => {
                            self.stats.xom_reads += 1;
                            slot.path = Path::Direct;
                        }
                        // Algorithm 1: fetch the sequence number first
                        // (from the line's own channel); the decrypt and
                        // overlapped line fetch follow in later phases.
                        SncPolicy::Lru => {
                            self.stats.snc_fetch_reads += 1;
                            slot.path = Path::SeqFetch;
                        }
                    },
                }
            }
        }
        slot
    }

    /// The issue pass: sends every classified slot's phase-one memory
    /// access (the sequence-number fetch for `SeqFetch`, the line fetch
    /// otherwise; merged reads have none) to the fabric at its ready
    /// cycle — in arrival order under `Fifo`, or under `RowFirst` in
    /// the fabric's FR-FCFS order (first-ready, row-hit-first,
    /// oldest-first against the live bank state), so row-mates stream
    /// out of one activate without idling a bank behind a not-yet-ready
    /// request.
    fn issue_fetches(&mut self, slots: &mut [Slot]) {
        let WindowScratch { fetching, reqs, .. } = &mut self.scratch;
        fetching.clear();
        fetching.extend((0..slots.len()).filter(|&i| !matches!(slots[i].path, Path::Alias(_))));
        let order = match self.config.drain_order {
            DrainOrder::Fifo => None,
            DrainOrder::RowFirst => {
                reqs.clear();
                reqs.extend(
                    fetching
                        .iter()
                        .map(|&i| (slots[i].ready, slots[i].txn.line_addr)),
                );
                Some(self.channels.row_first_order(reqs))
            }
        };
        for k in 0..fetching.len() {
            let slot = &mut slots[fetching[order.as_ref().map_or(k, |o| o[k])]];
            let class = match slot.path {
                Path::SeqFetch => TrafficClass::SeqRead,
                _ => TrafficClass::LineRead,
            };
            slot.fetched = self
                .channels
                .demand_read(slot.ready, slot.txn.line_addr, class);
        }
    }

    /// Retires one window of reads (`(arrival, line_addr, kind)` each),
    /// appending each read's completion cycle to `out` in request order.
    fn drain_window(&mut self, window: &[(u64, u64, LineKind)], out: &mut Vec<u64>) {
        let mut crypto = CryptoTimeline::new(self.crypto_latency(), PADS_PER_SLOT);
        let mut ports = match self.scratch.ports.take() {
            Some(ports) => ports, // already reset when parked
            None => SncPorts::new(self.config.snc_shards, self.config.snc_port_cycles),
        };
        let mut slots = std::mem::take(&mut self.scratch.slots);

        // Phase one: classify in arrival order. A later miss to a line
        // already in the window merges into that line's primary miss
        // (its MSHR entry) instead of fetching it again.
        for &(at, line_addr, kind) in window {
            let txn = MemTxn::read(at, line_addr, kind);
            let primary = slots
                .iter()
                .position(|s| s.txn.line_addr == line_addr && !matches!(s.path, Path::Alias(_)));
            let slot = match primary {
                Some(p) => {
                    self.stats.mshr_merged_reads += 1;
                    Slot::new(txn, Path::Alias(p))
                }
                None => self.classify_read(txn, &mut crypto, &mut ports),
            };
            slots.push(slot);
        }
        self.issue_fetches(&mut slots);

        // Phase two: sequence-number decrypts claim crypto slots.
        for slot in slots.iter_mut() {
            if matches!(slot.path, Path::SeqFetch) {
                slot.crypto_done = crypto.issue_block(slot.fetched);
            }
        }

        // Phase three: overlapped fills, batched pad generation, spills,
        // serial decrypts — then retire.
        for i in 0..slots.len() {
            let (path, fetched, crypto_done) =
                (slots[i].path, slots[i].fetched, slots[i].crypto_done);
            slots[i].done = match path {
                Path::Plain => fetched,
                Path::Fast => fetched.max(crypto_done) + 1,
                Path::Direct => crypto.issue_block(fetched),
                Path::Alias(p) => slots[p].done,
                Path::SeqFetch => {
                    let seq_ready = crypto_done;
                    let line_fetched = self.channels.demand_read(
                        seq_ready,
                        slots[i].txn.line_addr,
                        TrafficClass::LineRead,
                    );
                    let pad_done = crypto.issue_pad(seq_ready);
                    // Install the fetched number; spill the victim.
                    let arrival = slots[i].txn.arrival;
                    let line_addr = slots[i].txn.line_addr;
                    let spill_ready = seq_ready + self.crypto_latency();
                    let snc = self.snc.as_mut().expect("OTP mode has an SNC");
                    if let Some(victim) = snc.install(line_addr, 1) {
                        self.note_snc_eviction(victim.line_addr);
                        self.spill_seq(arrival, spill_ready, victim.line_addr);
                    }
                    line_fetched.max(pad_done) + 1
                }
            };
        }
        out.extend(slots.iter().map(|slot| slot.done));

        // Park the buffers (emptied, ports idled) for the next window.
        slots.clear();
        ports.reset();
        self.scratch.slots = slots;
        self.scratch.ports = Some(ports);
    }

    /// A posted writeback: encrypt (per mode), update SNC state, and
    /// enqueue the ciphertext in the write buffer.
    fn process_writeback(&mut self, now: u64, line_addr: u64) {
        match self.config.mode {
            SecurityMode::Insecure => {
                self.channels
                    .enqueue_write(now, now, line_addr, TrafficClass::LineWrite);
            }
            SecurityMode::Xom => {
                // Encrypt in the write buffer, then drain.
                let ready = now + self.crypto_latency();
                self.channels
                    .enqueue_write(now, ready, line_addr, TrafficClass::LineWrite);
            }
            SecurityMode::Otp { snc: snc_cfg } => {
                let first_writeback = self.written.insert(line_addr);
                let crypto = self.crypto_latency();
                let snc = self.snc.as_mut().expect("OTP mode has an SNC");
                let ready = if snc.increment(line_addr).is_some() {
                    // Update hit: new seed, pad generation, XOR.
                    now + crypto
                } else {
                    match snc_cfg.policy {
                        SncPolicy::NoReplacement => {
                            if snc.try_install(line_addr, 1) {
                                now + crypto
                            } else {
                                // SNC full: direct (XOM-style) encryption
                                // for this line, now and forever.
                                self.stats.norepl_direct_writes += 1;
                                now + crypto
                            }
                        }
                        SncPolicy::Lru => {
                            let mut ready = now + crypto;
                            if first_writeback {
                                // Lazily-allocated sequence number: known
                                // zero, no fetch needed (DESIGN.md §3).
                                self.stats.first_writebacks += 1;
                            } else {
                                // Update miss, Algorithm 1 lines 13-25:
                                // fetch + decrypt the old number first.
                                self.stats.snc_fetch_updates += 1;
                                let seq_fetched = self.channels.demand_read(
                                    now,
                                    line_addr,
                                    TrafficClass::SeqRead,
                                );
                                ready = seq_fetched + crypto + crypto;
                            }
                            let snc = self.snc.as_mut().expect("OTP mode has an SNC");
                            if let Some(victim) = snc.install(line_addr, 1) {
                                self.note_snc_eviction(victim.line_addr);
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
}

impl MemoryBackend for SecureBackend {
    fn line_read_batch_at(&mut self, reqs: &[(u64, u64, LineKind)]) -> Vec<u64> {
        let mut out = Vec::with_capacity(reqs.len());
        for window in reqs.chunks(self.config.max_inflight) {
            self.drain_window(window, &mut out);
        }
        out
    }

    fn line_writeback(&mut self, now: u64, line_addr: u64) {
        self.process_writeback(now, line_addr);
    }

    fn drain(&mut self, now: u64) {
        self.flush_spills(now);
        // Force residual buffered writebacks out so per-channel
        // LineWrite/SeqWrite counters are exact at window end.
        self.channels.flush_writes(now);
    }

    fn traffic(&self) -> CounterSet {
        self.channels.stats()
    }

    fn reset_stats(&mut self) {
        self.channels.reset_stats();
        self.stats = ControllerStats::default();
        self.snc_evicted_by_others.clear();
        if let Some(snc) = self.snc.as_mut() {
            snc.reset_stats();
        }
    }

    fn label(&self) -> String {
        self.config.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SncConfig, SncOrganization};

    fn otp_cfg(policy: SncPolicy, entries: usize) -> SecureBackendConfig {
        let mut cfg = SecureBackendConfig::paper(SecurityMode::Otp {
            snc: SncConfig {
                capacity_bytes: entries * 2,
                organization: SncOrganization::FullyAssociative,
                policy,
            },
        });
        cfg.mem_occupancy = 0; // isolate latency arithmetic from contention
        cfg
    }

    fn plain_cfg(mode: SecurityMode) -> SecureBackendConfig {
        let mut cfg = SecureBackendConfig::paper(mode);
        cfg.mem_occupancy = 0;
        cfg
    }

    #[test]
    fn baseline_read_is_pure_memory_latency() {
        let mut b = SecureBackend::new(plain_cfg(SecurityMode::Insecure));
        assert_eq!(b.line_read(0, 0x4000, LineKind::Data), 100);
    }

    #[test]
    fn xom_read_serialises_crypto() {
        let mut b = SecureBackend::new(plain_cfg(SecurityMode::Xom));
        assert_eq!(b.line_read(0, 0x4000, LineKind::Data), 150);
        assert_eq!(b.line_read(0, 0x4080, LineKind::Instruction), 150);
    }

    #[test]
    fn xom_slow_crypto_costs_202() {
        let mut b = SecureBackend::new(plain_cfg(SecurityMode::Xom).with_slow_crypto());
        assert_eq!(b.line_read(0, 0x4000, LineKind::Data), 202);
    }

    #[test]
    fn otp_instruction_read_is_max_plus_one() {
        let mut b = SecureBackend::new(otp_cfg(SncPolicy::Lru, 1024));
        assert_eq!(b.line_read(0, 0x4000, LineKind::Instruction), 101);
    }

    #[test]
    fn otp_slow_crypto_still_overlaps() {
        // Fig. 10's point: with a 102-cycle unit, OTP costs
        // max(100, 102) + 1 = 103, not 202.
        let mut b = SecureBackend::new(otp_cfg(SncPolicy::Lru, 1024).with_slow_crypto());
        assert_eq!(b.line_read(0, 0x4000, LineKind::Instruction), 103);
    }

    #[test]
    fn otp_clean_data_bypasses_snc() {
        let mut b = SecureBackend::new(otp_cfg(SncPolicy::Lru, 1024));
        assert_eq!(b.line_read(0, 0x8000, LineKind::Data), 101);
        assert_eq!(b.controller_stats().get("clean_bypass_reads"), 1);
        assert_eq!(b.snc().unwrap().stats().get("query_misses"), 0);
    }

    #[test]
    fn otp_written_line_hits_snc_and_stays_fast() {
        let mut b = SecureBackend::new(otp_cfg(SncPolicy::Lru, 1024));
        b.line_writeback(0, 0x8000);
        assert_eq!(b.line_read(1000, 0x8000, LineKind::Data), 1101);
        assert_eq!(b.snc().unwrap().stats().get("query_hits"), 1);
    }

    #[test]
    fn pre_age_keeps_the_feed_each_policy_retains() {
        // An 8-entry SNC aged with 12 ancient and 4 active lines.
        let ancient: Vec<u64> = (0..12u64).map(|i| 0x8000 + i * 128).collect();
        let active: Vec<u64> = (0..4u64).map(|i| 0x4_0000 + i * 128).collect();
        let fed: Vec<u64> = ancient.iter().chain(&active).copied().collect();
        // LRU ages ancient then active and keeps the last 8; no-replacement
        // installs active first and fills the rest from the ancient feed.
        let lru: Vec<u64> = fed[8..].to_vec();
        let norepl: Vec<u64> = active.iter().chain(&ancient[..4]).copied().collect();
        for (policy, resident) in [(SncPolicy::Lru, lru), (SncPolicy::NoReplacement, norepl)] {
            let mut b = SecureBackend::new(otp_cfg(policy, 8));
            b.pre_age(ancient.iter().copied(), active.iter().copied());
            let snc = b.snc().expect("OTP mode has an SNC");
            for &line in &fed {
                let expect = resident.contains(&line);
                assert_eq!(snc.contains(line), expect, "{policy:?} {line:#x}");
            }
            assert_eq!(snc.occupancy(), 8, "{policy:?}");
            let zero = |set: CounterSet| set.iter().all(|(_, n)| n == 0);
            assert!(zero(snc.stats()), "{policy:?}");
            assert!(zero(b.controller_stats()), "{policy:?}");

            // Every fed line counts as written: none takes the clean
            // bypass, resident or not. An unfed line does.
            let bypasses = |b: &SecureBackend| b.controller_stats().get("clean_bypass_reads");
            for (i, &line) in (0u64..).zip(&fed) {
                b.line_read(i * 1000, line, LineKind::Data);
                assert_eq!(bypasses(&b), 0, "{policy:?} {line:#x}");
            }
            b.line_read(100_000, 0x10_0000, LineKind::Data);
            assert_eq!(bypasses(&b), 1, "{policy:?}");
        }
    }

    #[test]
    fn otp_lru_query_miss_pays_sequence_fetch() {
        // 1-entry SNC: writing a second line evicts the first's number.
        let mut b = SecureBackend::new(otp_cfg(SncPolicy::Lru, 1));
        b.line_writeback(0, 0x8000);
        b.line_writeback(10, 0x9000); // evicts 0x8000's entry
        // Read of 0x8000: seq fetch (100) + decrypt (50), then the line
        // fetch (100) overlapping pad generation (50), + 1.
        let done = b.line_read(1000, 0x8000, LineKind::Data);
        assert_eq!(done, 1000 + 100 + 50 + 100 + 1);
        assert_eq!(b.controller_stats().get("snc_fetch_reads"), 1);
        assert!(b.traffic().get("seq_reads") >= 1);
    }

    #[test]
    fn otp_norepl_full_snc_degrades_to_xom_for_those_lines() {
        let mut b = SecureBackend::new(otp_cfg(SncPolicy::NoReplacement, 1));
        b.line_writeback(0, 0x8000); // takes the only slot
        b.line_writeback(10, 0x9000); // SNC full -> direct encryption
        assert_eq!(b.controller_stats().get("norepl_direct_writes"), 1);
        // Re-read of the covered line: fast path.
        assert_eq!(b.line_read(1000, 0x8000, LineKind::Data), 1101);
        // Re-read of the uncovered line: XOM path.
        assert_eq!(b.line_read(2000, 0x9000, LineKind::Data), 2150);
    }

    #[test]
    fn otp_first_writeback_skips_sequence_fetch() {
        let mut b = SecureBackend::new(otp_cfg(SncPolicy::Lru, 1));
        b.line_writeback(0, 0x8000);
        assert_eq!(b.controller_stats().get("first_writebacks"), 1);
        assert_eq!(b.traffic().get("seq_reads"), 0);
    }

    #[test]
    fn otp_update_miss_after_eviction_fetches_sequence() {
        let mut b = SecureBackend::new(otp_cfg(SncPolicy::Lru, 1));
        b.line_writeback(0, 0x8000);
        b.line_writeback(10, 0x9000); // evicts 0x8000
        b.line_writeback(20, 0x8000); // update miss: fetch required
        assert_eq!(b.controller_stats().get("snc_fetch_updates"), 1);
        assert_eq!(b.traffic().get("seq_reads"), 1);
    }

    #[test]
    fn spilled_sequence_numbers_batch_into_line_transactions() {
        // Spills pack SPILL_BATCH (64) two-byte entries per memory
        // transaction; 65 evictions produce exactly one spill write.
        let mut b = SecureBackend::new(otp_cfg(SncPolicy::Lru, 1));
        for i in 0..=65u64 {
            b.line_writeback(i, 0x8000 + i * 128);
        }
        assert_eq!(b.traffic().get("seq_writes"), 1);
        assert_eq!(b.snc().unwrap().stats().get("spills"), 65);
    }

    #[test]
    fn flush_spills_drains_a_partial_pack() {
        let mut b = SecureBackend::new(otp_cfg(SncPolicy::Lru, 1));
        for i in 0..3u64 {
            b.line_writeback(i, 0x8000 + i * 128);
        }
        // Two evictions buffered, none issued yet.
        assert_eq!(b.pending_spills(), 2);
        assert_eq!(b.traffic().get("seq_writes"), 0);
        assert_eq!(b.flush_spills(1000), 2);
        assert_eq!(b.pending_spills(), 0);
        assert_eq!(b.traffic().get("seq_writes"), 1);
        // Idempotent once drained.
        assert_eq!(b.flush_spills(2000), 0);
        assert_eq!(b.traffic().get("seq_writes"), 1);
    }

    #[test]
    fn writebacks_become_line_write_traffic() {
        for mode in [SecurityMode::Insecure, SecurityMode::Xom] {
            let mut b = SecureBackend::new(plain_cfg(mode));
            b.line_writeback(0, 0x8000);
            // Force a drain by issuing a demand read far in the future.
            b.line_read(10_000, 0x9000, LineKind::Data);
            assert_eq!(b.traffic().get("line_writes"), 1, "mode {mode}");
        }
    }

    #[test]
    fn context_switch_flush_spills_every_entry() {
        let mut b = SecureBackend::new(otp_cfg(SncPolicy::Lru, 16));
        for i in 0..5u64 {
            b.line_writeback(0, 0x8000 + i * 128);
        }
        let flushed = b.context_switch_flush(100);
        assert_eq!(flushed, 5);
        assert_eq!(b.snc().unwrap().occupancy(), 0);
        assert_eq!(b.controller_stats().get("context_flush_entries"), 5);
        // Five entries pack into one line-sized spill transaction.
        assert_eq!(b.traffic().get("seq_writes"), 1);
    }

    #[test]
    fn context_switch_flush_spreads_over_the_fabric() {
        // A full SNC flush: the makespan (fabric busy frontier past the
        // flush instant) must shrink as channels grow, while the
        // spilled-entry and packed-transaction counts stay exact.
        let entries = 1024usize;
        let now = 10_000u64;
        let mut last_makespan = u64::MAX;
        for channels in [1usize, 2, 4, 8] {
            let mut cfg = otp_cfg(SncPolicy::Lru, entries).with_mem_channels(channels);
            // A narrow spill bus (1 byte/cycle): the fabric, not the
            // crypto pipeline, is the flush bottleneck, so fabric width
            // is what the makespan measures.
            cfg.mem_occupancy = 128;
            let mut b = SecureBackend::new(cfg);
            for i in 0..entries as u64 {
                b.line_writeback(i, 0x10_0000 + i * 128);
            }
            let start = b.channels().busy_until().max(now);
            assert_eq!(b.context_switch_flush(start), entries);
            let makespan = b.channels().busy_until() - start;
            assert!(
                makespan < last_makespan,
                "{channels} channels: makespan {makespan} vs previous {last_makespan}"
            );
            last_makespan = makespan;
            // Counters are fabric-width invariant: exactly
            // entries / SPILL_BATCH packed line transactions.
            assert_eq!(b.controller_stats().get("context_flush_entries"), 1024);
            assert_eq!(b.traffic().get("seq_writes"), (entries / 64) as u64);
            // And every channel took part.
            let spilled_channels = b
                .channels()
                .channels()
                .iter()
                .filter(|ch| ch.mem().stats().get("seq_writes") > 0)
                .count();
            assert_eq!(spilled_channels, channels);
        }
    }

    #[test]
    fn reset_stats_clears_everything_but_state() {
        let mut b = SecureBackend::new(otp_cfg(SncPolicy::Lru, 16));
        b.line_writeback(0, 0x8000);
        b.line_read(100, 0x8000, LineKind::Data);
        b.reset_stats();
        assert_eq!(b.traffic().get("line_reads"), 0);
        assert_eq!(b.controller_stats().get("otp_fast_reads"), 0);
        // The written-set and SNC contents survive.
        assert_eq!(b.line_read(1000, 0x8000, LineKind::Data), 1101);
    }

    #[test]
    fn labels_name_the_machine() {
        assert_eq!(
            SecureBackend::new(plain_cfg(SecurityMode::Xom)).label(),
            "XOM"
        );
        assert_eq!(
            SecureBackend::new(otp_cfg(SncPolicy::Lru, 1024)).label(),
            "SNC-LRU 2KB fully-assoc"
        );
        assert_eq!(
            SecureBackend::new(
                otp_cfg(SncPolicy::Lru, 1024)
                    .with_max_inflight(8)
                    .with_snc_shards(4)
            )
            .label(),
            "SNC-LRU 2KB fully-assoc x4 shards mlp8"
        );
    }

    #[test]
    fn batch_with_single_inflight_matches_sequential_reads() {
        let reqs: Vec<(u64, LineKind)> = (0..20u64)
            .map(|i| (0x8000 + i * 128, LineKind::Data))
            .collect();
        let mut seq = SecureBackend::new(otp_cfg(SncPolicy::Lru, 4));
        let mut bat = SecureBackend::new(otp_cfg(SncPolicy::Lru, 4));
        for b in [&mut seq, &mut bat] {
            b.pre_age((0..20u64).map(|i| 0x8000 + i * 128), std::iter::empty());
        }
        let sequential: Vec<u64> = reqs
            .iter()
            .map(|&(a, k)| seq.line_read(0, a, k))
            .collect();
        let batched = bat.line_read_batch(0, &reqs);
        assert_eq!(sequential, batched);
    }

    #[test]
    fn overlapped_misses_retire_faster_than_serial_ones() {
        // A miss-heavy batch (written lines, SNC long since evicted)
        // must retire monotonically faster as max_inflight grows.
        let lines = 64u64;
        let reqs: Vec<(u64, LineKind)> = (0..lines)
            .map(|i| (0x10_0000 + i * 128, LineKind::Data))
            .collect();
        let mut last = u64::MAX;
        for inflight in [1usize, 2, 4, 8, 16] {
            let mut cfg = otp_cfg(SncPolicy::Lru, 4).with_max_inflight(inflight);
            cfg.mem_occupancy = 8;
            let mut b = SecureBackend::new(cfg);
            b.pre_age(
                (0..lines).map(|i| 0x10_0000 + i * 128),
                std::iter::empty(),
            );
            let dones = b.line_read_batch(0, &reqs);
            let finish = dones.iter().copied().max().unwrap();
            assert!(
                finish <= last,
                "inflight {inflight}: {finish} vs previous {last}"
            );
            last = finish;
        }
    }

    #[test]
    fn same_line_misses_merge_in_one_window() {
        let mut cfg = otp_cfg(SncPolicy::Lru, 1024).with_max_inflight(4);
        cfg.mem_occupancy = 8;
        let mut b = SecureBackend::new(cfg);
        let reqs = [
            (0x8000u64, LineKind::Data),
            (0x8000, LineKind::Data),
            (0x8080, LineKind::Data),
        ];
        let dones = b.line_read_batch(0, &reqs);
        assert_eq!(dones[0], dones[1], "merged miss shares the fill");
        assert_eq!(b.controller_stats().get("mshr_merged_reads"), 1);
        // Only two lines actually fetched.
        assert_eq!(b.traffic().get("line_reads"), 2);
    }

    /// Asserts that the trait's provided `line_read_batch` and
    /// `line_read` give the same cycles and counters as
    /// `line_read_batch_at` on `stream`, over fresh backends built from
    /// `cfg` with the even lines of `stream`'s range written.
    fn assert_provided_reads_match(cfg: &SecureBackendConfig, stream: &[(u64, u64, LineKind)]) {
        let what = cfg.label();
        let fresh = || {
            let mut b = SecureBackend::new(cfg.clone());
            b.pre_age((0..8u64).map(|i| 0x8000 + i * 256), std::iter::empty());
            b
        };
        let counters = |b: &SecureBackend| {
            let snc = b.snc().map(|s| s.stats());
            (b.traffic(), b.controller_stats(), snc)
        };

        // `line_read_batch`: the stream as one batch arriving at one cycle.
        let (mut batch, mut batch_at) = (fresh(), fresh());
        let reqs: Vec<(u64, LineKind)> = stream.iter().map(|&(_, a, k)| (a, k)).collect();
        let reqs_at: Vec<(u64, u64, LineKind)> = reqs.iter().map(|&(a, k)| (500, a, k)).collect();
        let dones = batch.line_read_batch(500, &reqs);
        assert_eq!(dones, batch_at.line_read_batch_at(&reqs_at), "{what}");
        assert_eq!(counters(&batch), counters(&batch_at), "{what}");

        // `line_read`: the stream one read at a time.
        let (mut single, mut single_at) = (fresh(), fresh());
        for &req in stream {
            let done = single.line_read(req.0, req.1, req.2);
            assert_eq!(done, single_at.line_read_batch_at(&[req])[0], "{what}");
        }
        assert_eq!(counters(&single), counters(&single_at), "{what}");
    }

    #[test]
    fn provided_reads_match_line_read_batch_at() {
        use padlock_mem::DrainOrder;
        // One stream over 16 lines: instruction and data fills, repeats
        // that merge in windows of 8, half the lines written (clean
        // bypass vs SNC probe), and a 4-entry SNC that hits and misses.
        let kinds = [LineKind::Instruction, LineKind::Data, LineKind::Data];
        let stream: Vec<(u64, u64, LineKind)> = (0..24u64)
            .map(|i| (i * 7, 0x8000 + (i * 37 % 16) * 128, kinds[i as usize % 3]))
            .collect();
        let modes = [
            SecurityMode::Insecure,
            SecurityMode::Xom,
            otp_cfg(SncPolicy::Lru, 4).mode,
            otp_cfg(SncPolicy::NoReplacement, 4).mode,
        ];
        for mode in modes {
            for inflight in [1, 8] {
                for order in [DrainOrder::Fifo, DrainOrder::RowFirst] {
                    let cfg = SecureBackendConfig::paper(mode)
                        .with_mem_banks(4)
                        .with_max_inflight(inflight)
                        .with_drain_order(order);
                    assert_provided_reads_match(&cfg, &stream);
                }
            }
        }
    }

    #[test]
    fn row_first_converts_same_row_conflicts_into_hits() {
        use padlock_mem::{
            DrainOrder, ROW_LINES, DEFAULT_ROW_CONFLICT_CYCLES, DEFAULT_ROW_HIT_CYCLES,
        };
        // One channel, two banks: rows 0 and 2 share bank 0. The window
        // [r0, r2, r0, r2] in arrival order ping-pongs the open row (4
        // conflicts); row-first groups the row-mates (2 conflicts + 2
        // hits) and finishes strictly earlier.
        let row = 128 * ROW_LINES;
        let reqs: Vec<(u64, LineKind)> = [0, 2 * row, 128, 2 * row + 128]
            .into_iter()
            .map(|a| (a, LineKind::Instruction))
            .collect();
        let run = |order: DrainOrder| {
            let mut cfg = plain_cfg(SecurityMode::Insecure)
                .with_mem_banks(2)
                .with_max_inflight(8)
                .with_drain_order(order);
            cfg.mem_occupancy = 8;
            let mut b = SecureBackend::new(cfg);
            let dones = b.line_read_batch(0, &reqs);
            (dones, b.traffic().get("row_hits"), b.traffic().get("row_conflicts"))
        };
        let (fifo, fifo_hits, fifo_conflicts) = run(DrainOrder::Fifo);
        let (rowf, rowf_hits, rowf_conflicts) = run(DrainOrder::RowFirst);
        assert_eq!((fifo_hits, fifo_conflicts), (0, 4));
        assert_eq!((rowf_hits, rowf_conflicts), (2, 2));
        // Row totals are order-invariant; the makespan improves by the
        // two converted activates.
        assert_eq!(fifo_hits + fifo_conflicts, rowf_hits + rowf_conflicts);
        let fifo_end = fifo.iter().max().copied().unwrap();
        let rowf_end = rowf.iter().max().copied().unwrap();
        assert_eq!(
            fifo_end - rowf_end,
            2 * (DEFAULT_ROW_CONFLICT_CYCLES - DEFAULT_ROW_HIT_CYCLES)
        );
        // Completions still come back in request order: the reordered
        // window retires against the original arrival sequence.
        assert_eq!(fifo.len(), rowf.len());
    }

    #[test]
    fn row_first_on_a_flat_fabric_is_exactly_fifo() {
        use padlock_mem::DrainOrder;
        let reqs: Vec<(u64, LineKind)> = (0..32u64)
            .map(|i| (0x10_0000 + (i * 37 % 64) * 128, LineKind::Data))
            .collect();
        let mut fifo = SecureBackend::new(
            otp_cfg(SncPolicy::Lru, 4).with_max_inflight(8),
        );
        let mut rowf = SecureBackend::new(
            otp_cfg(SncPolicy::Lru, 4)
                .with_max_inflight(8)
                .with_drain_order(DrainOrder::RowFirst),
        );
        assert_eq!(
            fifo.line_read_batch(0, &reqs),
            rowf.line_read_batch(0, &reqs)
        );
    }

    #[test]
    fn closed_page_never_reports_row_hits_through_the_controller() {
        use padlock_mem::PagePolicy;
        let mut cfg = plain_cfg(SecurityMode::Insecure)
            .with_mem_banks(4)
            .with_max_inflight(8)
            .with_page_policy(PagePolicy::Closed);
        cfg.mem_occupancy = 8;
        let mut b = SecureBackend::new(cfg);
        let reqs: Vec<(u64, LineKind)> = (0..16u64)
            .map(|i| (i * 128, LineKind::Data))
            .collect();
        b.line_read_batch(0, &reqs);
        assert_eq!(b.traffic().get("row_hits"), 0);
        assert_eq!(b.traffic().get("row_conflicts"), 16);
    }

    #[test]
    fn sharded_controller_still_answers_reads() {
        let mut cfg = otp_cfg(SncPolicy::Lru, 1024).with_snc_shards(4);
        cfg.mem_occupancy = 8;
        let mut b = SecureBackend::new(cfg);
        b.line_writeback(0, 0x8000);
        b.line_writeback(0, 0x8080);
        let d0 = b.line_read(5000, 0x8000, LineKind::Data);
        let d1 = b.line_read(10_000, 0x8080, LineKind::Data);
        assert!(d0 > 5000 && d1 > 10_000);
        assert_eq!(b.snc().unwrap().stats().get("query_hits"), 2);
        assert_eq!(b.snc().unwrap().num_shards(), 4);
    }

    #[test]
    fn snc_evictions_by_other_compartments_are_attributed() {
        let mut b = SecureBackend::new(otp_cfg(SncPolicy::Lru, 8));
        // Compartment 0 fills the 8-entry SNC with its own lines.
        b.set_active_requestor(0);
        for i in 0..8u64 {
            b.line_writeback(i * 1_000, i * 128);
        }
        assert!(b.snc_evicted_by_others().iter().all(|&n| n == 0));
        // Compartment 1 installs into the full SNC: the LRU victims are
        // compartment 0's entries, charged as evictions by others.
        b.set_active_requestor(1);
        for i in 0..4u64 {
            b.line_writeback(100_000 + i * 1_000, (1 << 40) + i * 128);
        }
        assert_eq!(b.snc_evicted_by_others(), &[4]);
        // Evicting its own (now-oldest) survivors charges nobody.
        b.set_active_requestor(0);
        for i in 8..10u64 {
            b.line_writeback(200_000 + i * 1_000, i * 128);
        }
        assert_eq!(b.snc_evicted_by_others(), &[4]);
        // A context-switch flush with compartment 1 incoming charges it
        // for compartment 0's four remaining entries but not its own.
        b.set_active_requestor(1);
        let flushed = b.context_switch_flush(1_000_000);
        assert_eq!(flushed, 8);
        assert_eq!(b.snc_evicted_by_others(), &[4 + 4]);
        // reset_stats clears the attribution like every other counter.
        b.reset_stats();
        assert!(b.snc_evicted_by_others().is_empty());
    }
}
