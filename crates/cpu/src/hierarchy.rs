//! The cache hierarchy, its L2 miss-status-holding registers, and the
//! pluggable "below L2" memory interface.
//!
//! `padlock-core` implements [`MemoryBackend`] three ways — insecure,
//! XOM (decrypt-in-series), and one-time-pad with an SNC — which is
//! exactly the boundary the paper draws in Figs. 2 and 4: everything
//! above L2 is inside the security perimeter and identical across modes.
//!
//! # Non-blocking misses
//!
//! The hierarchy is organised around an **L2 MSHR file** of
//! `l2_mshrs` miss-status-holding registers. An access that misses L2
//! allocates an MSHR; a second access to a line already in flight (an
//! L1/L2 hit on the line allocated at miss time, or a re-miss after the
//! in-flight line was evicted) **merges** into the existing entry
//! instead of issuing a duplicate fill. An access that waits on an
//! in-flight fill returns `None`. A load then parks under the sequence
//! number its caller gave it ([`Hierarchy::load`]), and a later drain
//! hands back its `(seq, cycle)` pair; a store parks nothing
//! ([`Hierarchy::store`]), since its fill completes in the background.
//! A miss never reaches the backend on its own: pending misses are
//! handed to it together, in one
//! [`MemoryBackend::line_read_batch_at`] call that preserves each
//! miss's own arrival cycle, when
//!
//! * the allocation fills the file (that access reads its own fill
//!   cycle from the drain),
//! * the caller forces a drain ([`Hierarchy::drain_pending`], the
//!   pipeline's stall-on-use when the ROB head waits on a parked load),
//!   or
//! * an instruction fetch waits on an in-flight fill: the fetch blocks,
//!   so it drains the file and reads its own fill cycle.
//!
//! Every drain empties the whole file, so entries only ever leave it
//! together and waiters key on their entry's index in the file.
//!
//! With `l2_mshrs = 1` (the paper default) every allocation fills the
//! file and drains synchronously, so the hierarchy is cycle-for-cycle
//! identical to the historical blocking implementation — the
//! `hierarchy_vs_seed` differential test in `padlock-core` enforces it
//! across every security mode.

use padlock_cache::{AccessKind, CacheConfig, SetAssocCache};
use padlock_mem::{TrafficClass, LINE_BYTES};
use padlock_stats::CounterSet;

pub use padlock_mem::MemoryChannel;

/// Distinguishes instruction fills from data fills below L2.
///
/// The distinction matters to the secure modes: instruction lines are
/// never written back, so the OTP scheme seeds them purely by address and
/// never consults the SNC (§3.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineKind {
    /// An instruction-fetch fill.
    Instruction,
    /// A data fill (load or store write-allocate).
    Data,
}

/// What sits below the L2 cache.
///
/// Every read goes through one method,
/// [`MemoryBackend::line_read_batch_at`]: it is called when L2 misses
/// must be satisfied from memory and returns, per miss, the cycle at
/// which the line's *plaintext* is available to the processor (for
/// secure modes this includes any decryption that is on the critical
/// path). `line_read` and `line_read_batch` are defined on it.
/// `line_writeback` is called when a dirty L2 victim leaves the chip;
/// it is posted, off the critical path.
pub trait MemoryBackend {
    /// Satisfies one L2 read miss; returns the plaintext-available
    /// cycle. A batch of one.
    fn line_read(&mut self, now: u64, line_addr: u64, kind: LineKind) -> u64 {
        self.line_read_batch_at(&[(now, line_addr, kind)])[0]
    }

    /// Satisfies many independent L2 read misses issued at `now`,
    /// returning each request's plaintext-available cycle in order. A
    /// batch in which every miss arrives at `now`.
    fn line_read_batch(&mut self, now: u64, reqs: &[(u64, LineKind)]) -> Vec<u64> {
        let reqs: Vec<(u64, u64, LineKind)> = reqs
            .iter()
            .map(|&(line_addr, kind)| (now, line_addr, kind))
            .collect();
        self.line_read_batch_at(&reqs)
    }

    /// Satisfies many L2 read misses, each with its *own* arrival cycle
    /// (`(arrival, line_addr, kind)` per request), returning the
    /// plaintext-available cycles in order.
    ///
    /// This is the surface the hierarchy's MSHR file drains through:
    /// misses accumulate while the pipeline runs ahead and are issued
    /// together later, but each transaction's latency is still charged
    /// from the cycle it originally left L2. Backends with overlapping
    /// transaction windows overlap the requests' memory and crypto work
    /// here.
    fn line_read_batch_at(&mut self, reqs: &[(u64, u64, LineKind)]) -> Vec<u64>;

    /// Accepts a dirty L2 victim for (encryption and) writeback.
    fn line_writeback(&mut self, now: u64, line_addr: u64);

    /// Always `true`, and nothing calls it: the MSHR file drains only
    /// on its own triggers, never on fabric idleness. It remains only so
    /// that backends outside this workspace which still override it
    /// keep compiling; do not add callers.
    fn is_idle(&self, _now: u64) -> bool {
        true
    }

    /// Completes deferred background work (partially packed spill
    /// buffers, buffered writebacks) at measurement wrap-up so traffic
    /// counters are exact. Default: nothing deferred.
    fn drain(&mut self, _now: u64) {}

    /// Memory traffic statistics (per [`TrafficClass`]), aggregated
    /// over every DRAM channel the backend drives.
    fn traffic(&self) -> CounterSet;

    /// Resets statistics after warm-up.
    fn reset_stats(&mut self);

    /// A short label for reports (e.g. `"XOM"`, `"SNC-LRU 64KB"`).
    fn label(&self) -> String;
}

/// L1 access latency in cycles (SimpleScalar's default).
pub const L1_LATENCY: u64 = 1;

/// L2 access latency in cycles, added after an L1 miss (SimpleScalar's
/// default).
pub const L2_LATENCY: u64 = 6;

/// Line size of both split L1 caches, in bytes.
pub const L1_LINE_BYTES: u64 = 32;

/// One of the paper's split L1 caches (§5): 32KB, 4-way, with
/// [`L1_LINE_BYTES`]-byte lines.
pub fn l1_config(name: &str) -> CacheConfig {
    CacheConfig::new(name, 32 * 1024, L1_LINE_BYTES as usize, 4)
}

/// The on-chip hierarchy parameters an experiment varies: the L2 and
/// its MSHR file. The split L1s ([`l1_config`]) and the access
/// latencies ([`L1_LATENCY`], [`L2_LATENCY`]) are the paper's, fixed.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// Unified L2.
    pub l2: CacheConfig,
    /// L2 miss-status-holding registers: the number of outstanding L2
    /// misses the hierarchy keeps in flight before it must drain them
    /// to the backend. `1` models the paper's blocking memory system
    /// exactly (every miss resolves synchronously).
    pub l2_mshrs: usize,
}

impl HierarchyConfig {
    /// The paper's configuration: 256KB 4-way unified L2 with 128-byte
    /// lines (§5) and blocking misses (one MSHR).
    pub fn paper_default() -> Self {
        Self {
            l2: CacheConfig::new("L2", 256 * 1024, LINE_BYTES as usize, 4),
            l2_mshrs: 1,
        }
    }

    /// The paper's Fig. 8 variant: a 384KB 6-way L2 occupying the same
    /// area as the 256KB L2 plus a 64KB SNC.
    pub fn paper_big_l2() -> Self {
        Self {
            l2: CacheConfig::new("L2", 384 * 1024, LINE_BYTES as usize, 6),
            ..Self::paper_default()
        }
    }

    /// Builder: set the number of L2 MSHRs (non-blocking load depth).
    pub fn with_l2_mshrs(mut self, n: usize) -> Self {
        self.l2_mshrs = n;
        self
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// One in-flight L2 miss (an MSHR file entry).
#[derive(Debug, Clone, Copy)]
struct MshrEntry {
    line_addr: u64,
    kind: LineKind,
    /// Cycle the miss left L2 (latency is charged from here no matter
    /// when the batch drains).
    issue_at: u64,
}

/// An access waiting on an in-flight fill: the primary miss itself, or
/// a secondary access merged into it.
#[derive(Debug, Clone, Copy)]
struct Wait {
    /// Index of the file entry whose fill the access waits on.
    mshr: usize,
    /// The access's own pipeline-side ready cycle.
    floor: u64,
}

impl Wait {
    /// The access's completion cycle once a drain has produced `fills`:
    /// `max(floor, fill done)`.
    fn done(self, fills: &[u64]) -> u64 {
        fills[self.mshr].max(self.floor)
    }
}

/// A parked load: the caller's name for it and the fill it waits on.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    seq: u64,
    wait: Wait,
}

/// The on-chip cache hierarchy over a pluggable memory backend.
///
/// # Examples
///
/// ```
/// use padlock_cpu::{Hierarchy, HierarchyConfig, InsecureBackend};
///
/// let mut h = Hierarchy::new(HierarchyConfig::paper_default(),
///                            InsecureBackend::new(100, 8));
/// // One MSHR: every miss fills the file and drains at once.
/// let cold = h.load(0, 0x4000, 0).unwrap();
/// assert!(cold > 100); // cold miss goes to memory
/// let warm = h.load(cold, 0x4000, 1).unwrap();
/// assert_eq!(warm, cold + 1); // L1 hit
/// ```
#[derive(Debug)]
pub struct Hierarchy<B> {
    config: HierarchyConfig,
    l1i: SetAssocCache<()>,
    l1d: SetAssocCache<()>,
    l2: SetAssocCache<()>,
    backend: B,
    mshrs: Vec<MshrEntry>,
    /// The request batch a drain hands the backend, kept across drains
    /// so draining does not allocate it.
    drain_reqs: Vec<(u64, u64, LineKind)>,
    /// The last drain's fill cycles, one per file entry it issued.
    fills: Vec<u64>,
    waiters: Vec<Waiter>,
    resolutions: Vec<(u64, u64)>,
    mshr_stats: CounterSet,
}

impl<B: MemoryBackend> Hierarchy<B> {
    /// Creates an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the configured MSHR count is zero.
    pub fn new(config: HierarchyConfig, backend: B) -> Self {
        assert!(config.l2_mshrs > 0, "l2_mshrs must be positive");
        let l1i = SetAssocCache::new(l1_config("L1I"));
        let l1d = SetAssocCache::new(l1_config("L1D"));
        let l2 = SetAssocCache::new(config.l2.clone());
        Self {
            config,
            l1i,
            l1d,
            l2,
            backend,
            mshrs: Vec::new(),
            drain_reqs: Vec::new(),
            fills: Vec::new(),
            waiters: Vec::new(),
            resolutions: Vec::new(),
            mshr_stats: CounterSet::new("mshr"),
        }
    }

    /// The backend below L2.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the backend (e.g. to flush its SNC on a context
    /// switch).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// L1I statistics (snapshot of the cache's fixed-slot counters).
    pub fn l1i_stats(&self) -> CounterSet {
        self.l1i.stats()
    }

    /// L1D statistics (snapshot of the cache's fixed-slot counters).
    pub fn l1d_stats(&self) -> CounterSet {
        self.l1d.stats()
    }

    /// L2 statistics (snapshot of the cache's fixed-slot counters).
    pub fn l2_stats(&self) -> CounterSet {
        self.l2.stats()
    }

    /// MSHR file statistics: `allocations`, `merges`, `full_drains`.
    pub fn mshr_stats(&self) -> &CounterSet {
        &self.mshr_stats
    }

    /// Resets all cache and backend statistics (after warm-up), keeping
    /// contents.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.mshr_stats.reset();
        self.backend.reset_stats();
    }

    /// The MSHR index holding `line_addr`'s in-flight fill, if any.
    fn mshr_of(&self, line_addr: u64) -> Option<usize> {
        self.mshrs.iter().position(|m| m.line_addr == line_addr)
    }

    /// L2 misses currently held in the MSHR file, waiting for a drain.
    pub fn pending_misses(&self) -> usize {
        self.mshrs.len()
    }

    /// The earliest miss completion the caller has not yet collected:
    /// the minimum over resolutions queued by drains. `None` when
    /// nothing is queued (pending misses have no completion cycle until
    /// a drain).
    ///
    /// This is an event source for an event-driven core's time jump:
    /// together with the completion cycles already handed out, it
    /// bounds the next cycle at which hierarchy state can change.
    pub fn next_completion(&self) -> Option<u64> {
        self.resolutions.iter().map(|&(_, done)| done).min()
    }

    /// Issues every pending miss to the backend in one batch (each at
    /// its own arrival cycle), resolves every parked load, and empties
    /// the file. The completion cycles are collected via
    /// [`Hierarchy::take_resolutions`].
    pub fn drain_pending(&mut self) {
        if self.mshrs.is_empty() {
            return;
        }
        self.drain_reqs.clear();
        self.drain_reqs
            .extend(self.mshrs.iter().map(|m| (m.issue_at, m.line_addr, m.kind)));
        self.fills = self.backend.line_read_batch_at(&self.drain_reqs);
        for w in self.waiters.drain(..) {
            self.resolutions.push((w.seq, w.wait.done(&self.fills)));
        }
        self.mshrs.clear();
    }

    /// Moves every resolution produced by drains since the last call
    /// into `out` as `(seq, completion cycle)` pairs, one per parked
    /// load, in the order the loads were issued.
    pub fn take_resolutions(&mut self, out: &mut Vec<(u64, u64)>) {
        out.append(&mut self.resolutions);
    }

    /// An instruction fetch of the line containing `pc`; returns the
    /// cycle the instruction bytes are available.
    ///
    /// Instruction misses stall the front end regardless, so the fetch
    /// blocks — but it first drains any pending data misses (their
    /// latencies are unaffected: each is charged from its own arrival).
    pub fn inst_fetch(&mut self, now: u64, pc: u64) -> u64 {
        let t = now + L1_LATENCY;
        let outcome = self.l1i.access(pc, AccessKind::Read);
        if outcome.hit {
            return t;
        }
        // L1I victims are never dirty; ignore them.
        self.fill_from_l2(t, pc, LineKind::Instruction)
            .unwrap_or_else(|wait| {
                self.drain_pending();
                wait.done(&self.fills)
            })
    }

    /// A load at `addr` issued at `now`. Returns the cycle its data is
    /// available, or `None` when it waits on an in-flight L2 miss (its
    /// own, or an earlier one it merged into): the load then parks
    /// under `seq`, which must be unique among the caller's parked
    /// loads, until a drain resolves it.
    pub fn load(&mut self, now: u64, addr: u64, seq: u64) -> Option<u64> {
        match self.l1d_access(now, addr, AccessKind::Read) {
            Ok(done) => Some(done),
            Err(wait) => {
                self.waiters.push(Waiter { seq, wait });
                None
            }
        }
    }

    /// A store at `addr` issued at `now`. Returns the cycle it is
    /// accepted, or `None` when it waits on an in-flight L2 miss. A
    /// store parks nothing: its fill completes in the background and
    /// leaves the file with the next drain.
    pub fn store(&mut self, now: u64, addr: u64) -> Option<u64> {
        self.l1d_access(now, addr, AccessKind::Write).ok()
    }

    /// The L1D access loads and stores share: the cycle the data is
    /// available, or the in-flight fill the access waits on.
    fn l1d_access(&mut self, now: u64, addr: u64, kind: AccessKind) -> Result<u64, Wait> {
        let t = now + L1_LATENCY;
        let outcome = self.l1d.access(addr, kind);
        if let Some(victim) = &outcome.victim {
            if victim.dirty {
                self.l2_absorb_writeback(t, victim.addr);
            }
        }
        if outcome.hit {
            // An L1 hit on a line whose L2 fill is still in flight must
            // wait for the fill (the line was allocated when the miss
            // was recorded).
            if let Some(mshr) = self.mshr_of(self.config.l2.line_addr(addr)) {
                self.mshr_stats.incr("merges");
                return Err(Wait { mshr, floor: t });
            }
            return Ok(t);
        }
        self.fill_from_l2(t, addr, LineKind::Data)
    }

    /// An L1 miss looks in L2; on L2 miss an MSHR tracks the fill.
    fn fill_from_l2(&mut self, t: u64, addr: u64, kind: LineKind) -> Result<u64, Wait> {
        let t2 = t + L2_LATENCY;
        let line_addr = self.config.l2.line_addr(addr);
        let outcome = self.l2.access(addr, AccessKind::Read);
        if let Some(victim) = &outcome.victim {
            if victim.dirty {
                self.backend.line_writeback(t2, victim.addr);
            }
        }
        if let Some(mshr) = self.mshr_of(line_addr) {
            // The line is already in flight: an L2 hit on the line
            // allocated at miss time, or a re-miss after it was evicted
            // mid-flight. Either way the access merges into the
            // existing MSHR instead of issuing a duplicate fill.
            self.mshr_stats.incr("merges");
            return Err(Wait { mshr, floor: t2 });
        }
        if outcome.hit {
            return Ok(t2);
        }
        // Allocate an MSHR. An allocation that fills the file drains
        // it synchronously below, so the file always has a free
        // register on entry.
        self.mshr_stats.incr("allocations");
        let wait = Wait {
            mshr: self.mshrs.len(),
            floor: t2,
        };
        self.mshrs.push(MshrEntry {
            line_addr,
            kind,
            issue_at: t2,
        });
        if self.mshrs.len() == self.config.l2_mshrs {
            // File full on this allocation: drain now. With one MSHR
            // this happens on every miss — the blocking seed machine.
            self.mshr_stats.incr("full_drains");
            self.drain_pending();
            return Ok(wait.done(&self.fills));
        }
        Err(wait)
    }

    /// A dirty L1D victim merges into L2 (allocating silently if the line
    /// was displaced from L2 — mostly-inclusive approximation).
    fn l2_absorb_writeback(&mut self, now: u64, victim_addr: u64) {
        if let Some(l2_victim) = self.l2.insert(victim_addr, (), true) {
            if l2_victim.dirty {
                self.backend.line_writeback(now, l2_victim.addr);
            }
        }
    }
}

/// A raw-DRAM backend with no cryptography: one flat channel of
/// [`LINE_BYTES`]-byte lines, reads issued in request order,
/// writebacks buffered.
///
/// This crate's stand-in below L2, for driving the hierarchy and the
/// pipeline without the secure controller. The paper's baseline
/// processor, against which every slowdown percentage is computed, is
/// `padlock_core`'s `SecureBackend` in `Insecure` mode, which also
/// carries the channel, bank and drain-order knobs.
#[derive(Debug, Clone)]
pub struct InsecureBackend {
    channel: MemoryChannel,
}

impl InsecureBackend {
    /// Creates the backend with the given DRAM latency and
    /// per-transaction channel occupancy.
    pub fn new(mem_latency: u64, occupancy: u64) -> Self {
        Self {
            channel: MemoryChannel::new(mem_latency, occupancy, 8),
        }
    }
}

impl MemoryBackend for InsecureBackend {
    fn line_read_batch_at(&mut self, reqs: &[(u64, u64, LineKind)]) -> Vec<u64> {
        // No per-line state below L2: each read claims the channel's
        // next occupancy slot.
        reqs.iter()
            .map(|&(at, line_addr, _)| {
                self.channel
                    .demand_read(at, line_addr, TrafficClass::LineRead)
            })
            .collect()
    }

    fn line_writeback(&mut self, now: u64, line_addr: u64) {
        // No encryption: data is ready immediately.
        self.channel
            .enqueue_write(now, now, line_addr, TrafficClass::LineWrite)
    }

    fn drain(&mut self, now: u64) {
        self.channel.flush_writes(now);
    }

    fn traffic(&self) -> CounterSet {
        self.channel.mem().stats()
    }

    fn reset_stats(&mut self) {
        self.channel.reset_stats();
    }

    fn label(&self) -> String {
        "baseline".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> Hierarchy<InsecureBackend> {
        Hierarchy::new(
            HierarchyConfig::paper_default(),
            InsecureBackend::new(100, 0),
        )
    }

    fn hierarchy_mshrs(n: usize) -> Hierarchy<InsecureBackend> {
        Hierarchy::new(
            HierarchyConfig::paper_default().with_l2_mshrs(n),
            InsecureBackend::new(100, 8),
        )
    }

    #[test]
    fn l1_hit_costs_l1_latency() {
        let mut h = hierarchy();
        h.load(0, 0x4000, 0);
        let t = h.load(1000, 0x4000, 1);
        assert_eq!(t, Some(1001));
    }

    #[test]
    fn l2_hit_costs_l1_plus_l2() {
        let mut h = hierarchy();
        h.load(0, 0x4000, 0); // fills both
        // Evict from tiny L1 by touching conflicting addresses, keeping L2.
        // L1D: 32KB 4-way 32B lines -> 256 sets; stride 8KB maps same set.
        for i in 1..=4 {
            h.load(100, 0x4000 + i * 8 * 1024, i);
        }
        let t = h.load(1000, 0x4000, 5);
        assert_eq!(t, Some(1000 + 1 + 6), "expected L2 hit");
    }

    #[test]
    fn l2_miss_reaches_memory() {
        let mut h = hierarchy();
        let t = h.load(0, 0x4000, 0);
        assert_eq!(t, Some(1 + 6 + 100));
        assert_eq!(h.backend().traffic().get("line_reads"), 1);
    }

    #[test]
    fn instruction_fetches_fill_l1i_and_l2() {
        let mut h = hierarchy();
        let cold = h.inst_fetch(0, 0x1000);
        assert_eq!(cold, 107);
        let warm = h.inst_fetch(cold, 0x1000);
        assert_eq!(warm, cold + 1);
        assert_eq!(h.l1i_stats().get("misses"), 1);
        assert_eq!(h.l1i_stats().get("hits"), 1);
    }

    #[test]
    fn dirty_l2_victims_write_back_to_memory() {
        let mut h = hierarchy();
        // Dirty one line in L2 via a store, then stream enough lines
        // through the same L2 set to evict it.
        h.store(0, 0x0);
        // Flush it from L1D first so L1 does not shield the L2 state. The
        // L1D victim write allocates into L2 marking dirty.
        for i in 1..=4u64 {
            h.store(10, i * 8 * 1024);
        }
        // L2: 512 sets x 128B lines -> same-set stride = 64KB.
        for i in 1..=4u64 {
            h.load(100, i * 64 * 1024, i);
        }
        assert!(
            h.backend().traffic().get("line_writes") >= 1,
            "expected at least one writeback, traffic: {}",
            h.backend().traffic()
        );
    }

    #[test]
    fn store_misses_allocate_like_loads() {
        let mut h = hierarchy();
        let t = h.store(0, 0x9000);
        assert_eq!(t, Some(107));
        assert_eq!(h.backend().traffic().get("line_reads"), 1);
        // Subsequent load hits in L1.
        assert_eq!(h.load(200, 0x9008, 0), Some(201));
    }

    #[test]
    fn reset_stats_clears_counts_keeps_contents() {
        let mut h = hierarchy();
        h.load(0, 0x4000, 0);
        h.reset_stats();
        assert_eq!(h.l1d_stats().get("misses"), 0);
        assert_eq!(h.backend().traffic().get("line_reads"), 0);
        assert_eq!(h.load(500, 0x4000, 1), Some(501)); // still cached
    }

    #[test]
    fn insecure_batch_reads_overlap_on_the_channel() {
        let mut b = InsecureBackend::new(100, 8);
        let reqs: Vec<(u64, LineKind)> =
            (0..4u64).map(|i| (i * 128, LineKind::Data)).collect();
        let dones = b.line_read_batch(0, &reqs);
        assert_eq!(dones, vec![100, 108, 116, 124]);
        assert_eq!(b.traffic().get("line_reads"), 4);
    }

    #[test]
    fn single_mshr_misses_resolve_synchronously() {
        let mut h = hierarchy();
        assert_eq!(
            h.load(0, 0x4000, 0),
            Some(107),
            "one-MSHR misses must block"
        );
        assert_eq!(h.pending_misses(), 0);
        assert_eq!(h.mshr_stats().get("full_drains"), 1);
    }

    #[test]
    fn deep_mshr_file_keeps_misses_in_flight_until_drained() {
        let mut h = hierarchy_mshrs(4);
        for i in 0..3u64 {
            assert_eq!(
                h.load(i, 0x10_0000 + i * 128, i),
                None,
                "miss {i} should stay in flight"
            );
        }
        assert_eq!(h.pending_misses(), 3);
        assert_eq!(h.backend().traffic().get("line_reads"), 0, "not yet issued");
        h.drain_pending();
        let mut resolved = Vec::new();
        h.take_resolutions(&mut resolved);
        assert_eq!(h.backend().traffic().get("line_reads"), 3);
        let seqs: Vec<u64> = resolved.iter().map(|&(seq, _)| seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
        assert!(resolved.iter().all(|&(_, done)| done >= 107));
    }

    #[test]
    fn filling_the_mshr_file_forces_a_batch_drain() {
        let mut h = hierarchy_mshrs(2);
        assert_eq!(h.load(0, 0x10_0000, 0), None);
        // Second miss fills the 2-entry file: both issue as one batch
        // and the second returns ready.
        let done = h
            .load(5, 0x10_0080, 1)
            .expect("filling the file must drain");
        assert!(done >= 112);
        assert_eq!(h.pending_misses(), 0);
        assert_eq!(h.backend().traffic().get("line_reads"), 2);
        // The first miss's resolution is waiting for collection.
        let mut resolved = Vec::new();
        h.take_resolutions(&mut resolved);
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].0, 0);
    }

    #[test]
    fn secondary_miss_to_inflight_line_merges() {
        let mut h = hierarchy_mshrs(4);
        assert_eq!(h.load(0, 0x10_0000, 0), None);
        // Same 128B L2 line, different 32B L1 line: L2 "hits" on the
        // line allocated at miss time but must wait for the in-flight
        // fill.
        assert_eq!(
            h.load(1, 0x10_0040, 1),
            None,
            "merged access must be pending"
        );
        assert_eq!(h.pending_misses(), 1, "one line, one MSHR");
        assert_eq!(h.mshr_stats().get("merges"), 1);
        h.drain_pending();
        let mut resolved = Vec::new();
        h.take_resolutions(&mut resolved);
        assert_eq!(resolved.len(), 2);
        assert_eq!(resolved[1].0, 1);
        assert!(resolved[1].1 >= 107);
        // Only one fill reached memory.
        assert_eq!(h.backend().traffic().get("line_reads"), 1);
    }

    #[test]
    fn l1_hit_on_inflight_line_waits_for_the_fill() {
        let mut h = hierarchy_mshrs(4);
        assert_eq!(h.load(0, 0x10_0000, 0), None, "cold miss pends");
        // Same L1 line: hits L1 but the fill is still in flight.
        assert_eq!(
            h.load(2, 0x10_0008, 1),
            None,
            "hit-under-miss must wait for the fill"
        );
        h.drain_pending();
        let mut resolved = Vec::new();
        h.take_resolutions(&mut resolved);
        // The merged hit completes with the fill.
        assert_eq!(resolved, [(0, 107), (1, 107)]);
    }

    #[test]
    fn deep_file_resolves_every_miss_at_the_one_mshr_cycle() {
        // Uncontended (zero occupancy): an 8-MSHR file resolves each
        // miss at the cycle the one-MSHR file returns at once, because
        // each miss is charged from its own arrival regardless of when
        // the batch drains.
        let mut deep = Hierarchy::new(
            HierarchyConfig::paper_default().with_l2_mshrs(8),
            InsecureBackend::new(100, 0),
        );
        let mut blocking = hierarchy();
        let (mut parked, mut resolved) = (Vec::new(), Vec::new());
        for i in 0..20u64 {
            let addr = 0x20_0000 + i * 256;
            let want = blocking
                .load(i * 3, addr, i)
                .expect("one MSHR resolves every miss at once");
            match deep.load(i * 3, addr, i) {
                Some(done) => assert_eq!(done, want, "miss {i}"),
                None => parked.push((i, want)),
            }
        }
        assert!(!parked.is_empty());
        deep.drain_pending();
        deep.take_resolutions(&mut resolved);
        assert_eq!(resolved, parked);
    }

    #[test]
    fn insecure_label() {
        assert_eq!(InsecureBackend::new(100, 8).label(), "baseline");
    }

    #[test]
    #[should_panic(expected = "l2_mshrs must be positive")]
    fn zero_mshrs_rejected() {
        let _ = Hierarchy::new(
            HierarchyConfig::paper_default().with_l2_mshrs(0),
            InsecureBackend::new(100, 8),
        );
    }
}
