//! An out-of-order, four-issue processor timing model in the spirit of
//! SimpleScalar's `sim-outorder`, the simulator the paper evaluates with.
//!
//! The model is deliberately at the same altitude as the paper's use of
//! SimpleScalar: it captures the properties the figures depend on —
//! how many L2 misses reach memory, how much of the added decryption
//! latency the out-of-order window hides, how writebacks generate
//! sequence-number traffic — without modelling details the paper never
//! varies (TLBs, register renaming structure, replay).
//!
//! Structure:
//!
//! * [`MicroOp`]/[`Workload`] — the dynamic instruction stream interface
//!   that `padlock-workloads` implements;
//! * [`BimodalPredictor`] — the branch direction predictor
//!   (SimpleScalar's default, bimodal 2K);
//! * [`Hierarchy`] + [`MemoryBackend`] — split L1 I/D, unified L2, and the
//!   pluggable "below L2" interface that `padlock-core` implements with
//!   the XOM / one-time-pad secure memory controllers;
//! * [`Core`] — fetch/dispatch, issue, complete, commit over a ROB,
//!   driven cycle by cycle with event skipping.
//!
//! # Examples
//!
//! ```
//! use padlock_cpu::{Core, InsecureBackend, PipelineConfig, StrideWorkload};
//!
//! let config = PipelineConfig::paper_default();
//! let backend = InsecureBackend::new(100, 8);
//! let mut core = Core::new(config, backend);
//! let mut workload = StrideWorkload::new(1 << 20, 64, 0.2);
//! let stats = core.run(&mut workload, 10_000);
//! assert_eq!(stats.instructions, 10_000);
//! assert!(stats.cycles > 0);
//! ```

#![warn(missing_docs)]

mod bpred;
mod hierarchy;
mod op;
mod pipeline;
mod wheel;

pub use bpred::BimodalPredictor;
pub use hierarchy::{
    l1_config, Hierarchy, HierarchyConfig, InsecureBackend, LineKind, MemoryBackend,
    MemoryChannel, L1_LATENCY, L1_LINE_BYTES, L2_LATENCY,
};
pub use op::{MicroOp, OffsetWorkload, OpClass, StrideWorkload, Workload};
pub use pipeline::{
    Core, PipelineConfig, RunSession, RunStats, BPRED_ENTRIES, MISPREDICT_PENALTY, PIPELINE_WIDTH,
};

// The sweep executor simulates one hierarchy per worker thread; these
// bounds keep the pipeline and memory model `Send` so a sweep can move
// them to whichever worker claims the grid point (see the T1 audit —
// no shared-ownership cells hide in here).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Core<InsecureBackend>>();
    assert_send::<Hierarchy<InsecureBackend>>();
    assert_send::<HierarchyConfig>();
    assert_send::<PipelineConfig>();
};
