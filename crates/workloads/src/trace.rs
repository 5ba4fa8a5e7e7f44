//! Trace record and replay.
//!
//! A [`TraceRecorder`] tees the ops flowing out of any workload into an
//! in-memory buffer; a [`TracePlayer`] replays a captured trace as a
//! workload. This supports exactly-reproducible cross-configuration
//! comparisons: every machine sees the same dynamic stream, like
//! trace-driven SimpleScalar runs.

use padlock_cpu::{MicroOp, Workload};

/// Records the ops produced by an inner workload.
///
/// # Examples
///
/// ```
/// use padlock_cpu::{StrideWorkload, Workload};
/// use padlock_workloads::{TracePlayer, TraceRecorder};
///
/// let mut rec = TraceRecorder::new(StrideWorkload::new(4096, 64, 0.2));
/// for _ in 0..100 { rec.next_op(); }
/// let trace = rec.into_trace();
/// let mut replay = TracePlayer::new("replay", trace);
/// let _ = replay.next_op();
/// ```
#[derive(Debug)]
pub struct TraceRecorder<W> {
    inner: W,
    ops: Vec<MicroOp>,
}

impl<W: Workload> TraceRecorder<W> {
    /// Wraps `inner`, recording everything it produces.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            ops: Vec::new(),
        }
    }

    /// Consumes the recorder, returning the captured trace.
    pub fn into_trace(self) -> Vec<MicroOp> {
        self.ops
    }
}

impl<W: Workload> Workload for TraceRecorder<W> {
    fn next_op(&mut self) -> MicroOp {
        let op = self.inner.next_op();
        self.ops.push(op);
        op
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Replays a captured trace, looping at the end.
#[derive(Debug, Clone)]
pub struct TracePlayer {
    name: String,
    ops: Vec<MicroOp>,
    cursor: usize,
}

impl TracePlayer {
    /// Creates a player over an in-memory trace.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace.
    pub fn new(name: impl Into<String>, ops: Vec<MicroOp>) -> Self {
        assert!(!ops.is_empty(), "trace must not be empty");
        Self {
            name: name.into(),
            ops,
            cursor: 0,
        }
    }
}

impl Workload for TracePlayer {
    fn next_op(&mut self) -> MicroOp {
        let op = self.ops[self.cursor];
        self.cursor += 1;
        if self.cursor == self.ops.len() {
            self.cursor = 0;
        }
        op
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{benchmark_profile, SpecWorkload};
    use padlock_cpu::OpClass;

    #[test]
    fn recorder_is_transparent() {
        let mut raw = SpecWorkload::new(benchmark_profile("gzip"));
        let mut rec = TraceRecorder::new(SpecWorkload::new(benchmark_profile("gzip")));
        for _ in 0..1000 {
            assert_eq!(raw.next_op(), rec.next_op());
        }
        assert_eq!(rec.name(), "gzip");
        assert_eq!(rec.into_trace().len(), 1000);
    }

    #[test]
    fn player_loops_at_the_end() {
        let ops = vec![
            MicroOp::new(4, OpClass::IntAlu),
            MicroOp::new(8, OpClass::Load(0x40)),
        ];
        let mut p = TracePlayer::new("t", ops.clone());
        assert_eq!(p.next_op(), ops[0]);
        assert_eq!(p.next_op(), ops[1]);
        assert_eq!(p.next_op(), ops[0]);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_trace_panics() {
        let _ = TracePlayer::new("x", Vec::new());
    }
}
