//! Transparent timing wrappers seated at the two host-time boundaries
//! the simulator exposes publicly: the op stream ([`Workload`]) and the
//! memory below L2 ([`MemoryBackend`]).
//!
//! Each wrapper forwards every call unchanged and accumulates the host
//! time spent inside the wrapped layer as one sum and one count per
//! point; a span per op would cost more than the op itself.

use padlock_core::SecureBackend;
use padlock_cpu::{LineKind, MemoryBackend, MicroOp, Workload};
use padlock_stats::CounterSet;
use std::time::Instant;

/// Nanoseconds elapsed since `start`, saturating.
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A workload whose `next_op` calls are timed.
#[derive(Debug)]
pub struct TimedWorkload<W> {
    inner: W,
    /// Calls to `next_op`.
    pub calls: u64,
    /// Host nanoseconds spent inside the inner `next_op`.
    pub ns: u64,
}

impl<W: Workload> TimedWorkload<W> {
    /// Wraps `inner` with zeroed accumulators.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            calls: 0,
            ns: 0,
        }
    }
}

impl<W: Workload> Workload for TimedWorkload<W> {
    fn next_op(&mut self) -> MicroOp {
        let start = Instant::now();
        let op = self.inner.next_op();
        self.ns += ns_since(start);
        self.calls += 1;
        op
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// One `MemoryBackend` call the hierarchy made, with what it returned,
/// so the stream can be replayed into the backend alone.
#[derive(Debug, Clone)]
pub enum Call {
    /// `line_read(now, line_addr, kind)` and its completion.
    Read(u64, u64, LineKind, u64),
    /// `line_read_batch(now, reqs)` and its completions.
    ReadBatch(u64, Vec<(u64, LineKind)>, Vec<u64>),
    /// `line_read_batch_at(reqs)` and its completions.
    ReadBatchAt(Vec<(u64, u64, LineKind)>, Vec<u64>),
    /// `line_writeback(now, line_addr)`.
    Writeback(u64, u64),
    /// `drain(now)`.
    Drain(u64),
    /// `reset_stats()`.
    ResetStats,
}

/// A [`SecureBackend`] whose calls are timed and counted, and optionally
/// recorded for [`replay`].
///
/// Forwards every trait method a parked-drain hierarchy calls. The
/// eager- and speculative-issue hooks (`eager_issue_safe`,
/// `speculative_issue_at`, `speculative_confirm`) keep their trait
/// defaults: the hierarchy only consults them when
/// `eager_completions`/`speculative_completions` is on, which no
/// benchmark machine enables, and leaving them out keeps this wrapper
/// compiling once those hooks are deleted. The bit-identity check against
/// the unwrapped `Machine` on every traced point proves the wrapper
/// transparent.
#[derive(Debug)]
pub struct TracedBackend {
    /// The wrapped controller.
    pub inner: SecureBackend,
    /// Host nanoseconds spent inside the controller.
    pub ns: u64,
    /// Read-surface calls (`line_read*`).
    pub read_calls: u64,
    /// Reads carried by those calls.
    pub reads: u64,
    /// `line_writeback` calls.
    pub writeback_calls: u64,
    /// The call stream, when recording.
    pub calls: Option<Vec<Call>>,
}

impl TracedBackend {
    /// Wraps `inner`; `record` keeps the call stream for replay.
    pub fn new(inner: SecureBackend, record: bool) -> Self {
        Self {
            inner,
            ns: 0,
            read_calls: 0,
            reads: 0,
            writeback_calls: 0,
            calls: record.then(Vec::new),
        }
    }

    fn log(&mut self, call: impl FnOnce() -> Call) {
        if let Some(calls) = &mut self.calls {
            calls.push(call());
        }
    }
}

impl MemoryBackend for TracedBackend {
    fn line_read(&mut self, now: u64, line_addr: u64, kind: LineKind) -> u64 {
        let start = Instant::now();
        let done = self.inner.line_read(now, line_addr, kind);
        self.ns += ns_since(start);
        self.read_calls += 1;
        self.reads += 1;
        self.log(|| Call::Read(now, line_addr, kind, done));
        done
    }

    fn line_read_batch(&mut self, now: u64, reqs: &[(u64, LineKind)]) -> Vec<u64> {
        let start = Instant::now();
        let dones = self.inner.line_read_batch(now, reqs);
        self.ns += ns_since(start);
        self.read_calls += 1;
        self.reads += reqs.len() as u64;
        self.log(|| Call::ReadBatch(now, reqs.to_vec(), dones.clone()));
        dones
    }

    fn line_read_batch_at(&mut self, reqs: &[(u64, u64, LineKind)]) -> Vec<u64> {
        let start = Instant::now();
        let dones = self.inner.line_read_batch_at(reqs);
        self.ns += ns_since(start);
        self.read_calls += 1;
        self.reads += reqs.len() as u64;
        self.log(|| Call::ReadBatchAt(reqs.to_vec(), dones.clone()));
        dones
    }

    fn line_writeback(&mut self, now: u64, line_addr: u64) {
        let start = Instant::now();
        self.inner.line_writeback(now, line_addr);
        self.ns += ns_since(start);
        self.writeback_calls += 1;
        self.log(|| Call::Writeback(now, line_addr));
    }

    fn is_idle(&self, now: u64) -> bool {
        // Untimed and unrecorded (`&self`): only the idle-keyed drain
        // trigger asks, and no benchmark machine enables it.
        self.inner.is_idle(now)
    }

    fn drain(&mut self, now: u64) {
        let start = Instant::now();
        self.inner.drain(now);
        self.ns += ns_since(start);
        self.log(|| Call::Drain(now));
    }

    fn traffic(&self) -> CounterSet {
        self.inner.traffic()
    }

    fn reset_stats(&mut self) {
        let start = Instant::now();
        self.inner.reset_stats();
        self.ns += ns_since(start);
        self.log(|| Call::ResetStats);
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Replays a recorded call stream into `backend` (freshly built and
/// pre-aged exactly like the in-run one). Returns the host nanoseconds
/// the calls took, or the first call whose result differs.
pub fn replay(backend: &mut SecureBackend, calls: &[Call]) -> Result<u64, String> {
    let start = Instant::now();
    for (i, call) in calls.iter().enumerate() {
        let same = match call {
            Call::Read(now, addr, kind, done) => backend.line_read(*now, *addr, *kind) == *done,
            Call::ReadBatch(now, reqs, dones) => backend.line_read_batch(*now, reqs) == *dones,
            Call::ReadBatchAt(reqs, dones) => backend.line_read_batch_at(reqs) == *dones,
            Call::Writeback(now, addr) => {
                backend.line_writeback(*now, *addr);
                true
            }
            Call::Drain(now) => {
                backend.drain(*now);
                true
            }
            Call::ResetStats => {
                backend.reset_stats();
                true
            }
        };
        if !same {
            return Err(format!(
                "replayed call {i} ({call:?}) completed differently"
            ));
        }
    }
    Ok(ns_since(start))
}
