//! Transaction-engine primitives for the secure memory controller.
//!
//! The controller does not charge each L2 miss in isolation: a batch of
//! reads is cut into windows of up to `max_inflight` [`MemTxn`] records
//! (MSHR-style), and a drain scheduler retires each window against
//! three resources:
//!
//! * the **DRAM fabric** — the persistent per-channel occupancy of the
//!   [`padlock_mem::ChannelSet`] the seed model already had, plus (when
//!   `mem_banks > 1`) each channel's per-bank open-row state, so
//!   overlapping misses contend for banks and rows, not just the bus;
//! * the **crypto pipeline** — a [`CryptoTimeline`] of issue slots, each
//!   of which can coalesce up to [`PADS_PER_SLOT`] one-time-pad
//!   generations (batched pad precomputation);
//! * the **SNC ports** — one [`SncPorts`] timeline per shard, so
//!   concurrent misses that probe the same shard serialise while misses
//!   to different shards proceed in parallel.
//!
//! Writebacks never enter a window: they are posted straight into the
//! write buffer, off the read critical path (§3.4).
//!
//! Crypto and port timelines are scoped to one drain window: they model
//! contention *between overlapping transactions*, not state that leaks
//! across blocking calls. That is what makes the engine collapse to the
//! paper's single-miss arithmetic when `max_inflight = 1` — a lone
//! transaction never contends, so every `issue`/`acquire` below starts
//! at its natural ready time and the latency algebra is bit-identical
//! to the seed model (enforced by the `engine_vs_seed` differential
//! test).

use padlock_cpu::LineKind;

/// One-time pads the controller's crypto unit coalesces per issue slot
/// when it batches pad precomputation for overlapping misses. Irrelevant
/// at `max_inflight = 1`: a lone pad always issues at once.
pub const PADS_PER_SLOT: u64 = 4;

/// One in-flight read transaction (an MSHR entry): an L2 miss fill the
/// caller waits on for its plaintext-ready cycle.
///
/// Built by [`crate::SecureBackend`]'s drain scheduler from each
/// `(arrival, line_addr, kind)` request of a
/// `MemoryBackend::line_read_batch_at` window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemTxn {
    /// The L2 line address the transaction concerns.
    pub line_addr: u64,
    /// Instruction or data fill.
    pub kind: LineKind,
    /// Cycle the miss left L2.
    pub arrival: u64,
}

impl MemTxn {
    /// A read transaction arriving at `arrival`.
    pub fn read(arrival: u64, line_addr: u64, kind: LineKind) -> Self {
        Self {
            line_addr,
            kind,
            arrival,
        }
    }
}

/// Issue-slot timeline of the pipelined crypto unit within one drain
/// window.
///
/// The unit is fully pipelined, so a job's end-to-end latency is fixed;
/// what contends is the *issue slot*. Each slot is one cycle wide.
/// One-time-**pad** generations are narrow jobs the batching hardware
/// coalesces up to `width` per slot ([`CryptoTimeline::issue_pad`]);
/// full-line and sequence-number **decrypts** stream a whole line of
/// blocks through the pipeline and claim a slot exclusively
/// ([`CryptoTimeline::issue_block`]).
///
/// # Examples
///
/// ```
/// use padlock_core::engine::CryptoTimeline;
///
/// let mut t = CryptoTimeline::new(50, 2);
/// assert_eq!(t.issue_pad(100), 150); // first pad: natural time
/// assert_eq!(t.issue_pad(100), 150); // coalesced into the same slot
/// assert_eq!(t.issue_pad(100), 151); // slot full: next cycle
/// assert_eq!(t.issue_block(100), 152); // decrypts never coalesce
/// assert_eq!(t.issue_pad(400), 450);  // later ready time: fresh slot
/// ```
#[derive(Debug, Clone)]
pub struct CryptoTimeline {
    latency: u64,
    width: u64,
    slot: Option<(u64, u64)>, // (start cycle, remaining coalesce room)
}

impl CryptoTimeline {
    /// Creates a timeline for a unit with the given pipeline latency
    /// and pads-per-slot width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(latency: u64, width: u64) -> Self {
        assert!(width > 0, "crypto issue width must be positive");
        Self {
            latency,
            width,
            slot: None,
        }
    }

    /// Issues one pad generation ready at `ready`; returns its
    /// completion cycle. Pads coalesce into an open pad slot while it
    /// has room, then slip one cycle.
    pub fn issue_pad(&mut self, ready: u64) -> u64 {
        self.issue_job(ready, true)
    }

    /// Issues one full-line (or sequence-number) decrypt ready at
    /// `ready`; returns its completion cycle. Decrypts occupy their
    /// slot exclusively — only pad generation batches.
    pub fn issue_block(&mut self, ready: u64) -> u64 {
        self.issue_job(ready, false)
    }

    fn issue_job(&mut self, ready: u64, coalesce: bool) -> u64 {
        let start = match self.slot {
            Some((start, room)) if ready <= start && coalesce && room > 0 => {
                self.slot = Some((start, room - 1));
                start
            }
            Some((start, _)) if ready <= start => {
                let next = start + 1;
                self.slot = Some((next, if coalesce { self.width - 1 } else { 0 }));
                next
            }
            _ => {
                self.slot = Some((ready, if coalesce { self.width - 1 } else { 0 }));
                ready
            }
        };
        start + self.latency
    }
}

/// Per-shard SNC lookup-port timelines within one drain window.
///
/// A probe occupies its shard's port for `port_cycles`; the probe
/// *result* is available at the cycle the port was acquired (the paper
/// hides uncontended lookup latency inside the L2 access), so the port
/// only delays a probe that finds its shard busy with another in-flight
/// miss.
#[derive(Debug, Clone)]
pub struct SncPorts {
    free_at: Vec<u64>,
    port_cycles: u64,
}

impl SncPorts {
    /// Creates idle ports for `shards` shards.
    pub fn new(shards: usize, port_cycles: u64) -> Self {
        Self {
            free_at: vec![0; shards.max(1)],
            port_cycles,
        }
    }

    /// Returns every port to idle, keeping the shard geometry — so a
    /// drain window can reuse one allocation instead of building a
    /// fresh `SncPorts` per window.
    pub fn reset(&mut self) {
        self.free_at.fill(0);
    }

    /// Acquires shard `shard`'s port for a probe wanted at `ready`;
    /// returns the cycle the probe actually starts (= its result
    /// cycle).
    pub fn acquire(&mut self, shard: usize, ready: u64) -> u64 {
        let start = ready.max(self.free_at[shard]);
        self.free_at[shard] = start + self.port_cycles;
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_crypto_job_starts_at_ready_time() {
        let mut t = CryptoTimeline::new(50, 4);
        assert_eq!(t.issue_pad(0), 50);
        let mut t = CryptoTimeline::new(102, 1);
        assert_eq!(t.issue_block(77), 179);
    }

    #[test]
    fn pads_coalesce_up_to_width_then_slip() {
        let mut t = CryptoTimeline::new(50, 4);
        for _ in 0..4 {
            assert_eq!(t.issue_pad(10), 60);
        }
        assert_eq!(t.issue_pad(10), 61);
        assert_eq!(t.issue_pad(10), 61);
    }

    #[test]
    fn block_decrypts_never_coalesce() {
        let mut t = CryptoTimeline::new(50, 4);
        assert_eq!(t.issue_block(10), 60);
        assert_eq!(t.issue_block(10), 61);
        // A pad cannot join a decrypt's slot either.
        assert_eq!(t.issue_pad(10), 62);
        // ...but later pads coalesce among themselves in the new slot.
        assert_eq!(t.issue_pad(10), 62);
    }

    #[test]
    fn later_ready_time_opens_fresh_slot() {
        let mut t = CryptoTimeline::new(50, 1);
        assert_eq!(t.issue_pad(0), 50);
        assert_eq!(t.issue_pad(200), 250);
        // An earlier-ready job after a later slot contends at the slot.
        assert_eq!(t.issue_pad(100), 251);
    }

    #[test]
    fn uncontended_port_probe_is_free() {
        let mut p = SncPorts::new(2, 8);
        assert_eq!(p.acquire(0, 1000), 1000);
        assert_eq!(p.acquire(1, 1000), 1000); // other shard in parallel
        assert_eq!(p.acquire(0, 1000), 1008); // same shard serialises
    }

    #[test]
    fn txn_constructors_record_fields() {
        let r = MemTxn::read(5, 0x4000, LineKind::Data);
        assert_eq!(r.kind, LineKind::Data);
        assert_eq!(r.arrival, 5);
        assert_eq!(r.line_addr, 0x4000);
    }
}
