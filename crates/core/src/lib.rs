//! The paper's contribution: one-time-pad (counter-mode) memory
//! encryption with a Sequence Number Cache, plus the XOM baseline it is
//! measured against.
//!
//! # What this crate provides
//!
//! **Timing layer** (drives every figure in the paper):
//!
//! * [`SecureBackend`] — a [`padlock_cpu::MemoryBackend`] implementing the
//!   three machines of the paper: the insecure baseline, XOM
//!   (decrypt-in-series, Fig. 2), and one-time-pad with an SNC (Fig. 4).
//!   Internally a **transaction engine**: a batch of read misses is cut
//!   into windows of at most `max_inflight` [`MemTxn`] records
//!   (MSHR-style) and a drain scheduler retires each window against
//!   per-resource timelines (DRAM channel occupancy, crypto-pipeline
//!   issue slots with batched pad precomputation, per-shard SNC ports),
//!   so batched misses overlap their sequence-number fetches and pad
//!   generations; writebacks are posted straight to the write buffer.
//!   With
//!   `max_inflight = 1` and `snc_shards = 1` (the paper defaults) the
//!   engine reproduces the paper's single-miss latencies bit-exactly —
//!   the `engine_vs_seed` differential test enforces it;
//! * [`SequenceNumberCache`] — the on-chip SNC in both organisations
//!   (fully associative / set-associative) and both management policies
//!   (no-replacement / LRU), split into N line-interleaved shards for
//!   multi-controller configurations (one shard is the paper's SNC);
//! * [`Machine`] — a configured core + hierarchy + backend, with a
//!   warm-up-then-measure runner.
//!
//! **Functional layer** (real ciphertext; powers the tiny-ISA VM, the
//! examples, and the attack tests):
//!
//! * [`SecureMemory`] — encrypted memory with per-region protection,
//!   per-line sequence numbers, MAC integrity, and attack entry points;
//! * [`vendor`] — software packaging (symmetric encryption + RSA key
//!   wrapping) and the secure loader;
//! * [`compartment`] — XOM IDs, tagged register files, and the
//!   interrupt-time register encryption of the paper's §2.3/§4.3.
//!
//! # Examples
//!
//! ```
//! use padlock_core::{Machine, MachineConfig, SecurityMode};
//! use padlock_cpu::StrideWorkload;
//!
//! // Compare XOM and OTP on a small streaming workload.
//! let mut xom = Machine::new(MachineConfig::paper(SecurityMode::Xom));
//! let mut otp = Machine::new(MachineConfig::paper(SecurityMode::otp_lru_64k()));
//! let x = xom.run(&mut StrideWorkload::new(8 << 20, 128, 0.3), 2_000, 8_000);
//! let o = otp.run(&mut StrideWorkload::new(8 << 20, 128, 0.3), 2_000, 8_000);
//! assert!(o.stats.cycles <= x.stats.cycles);
//! ```

#![warn(missing_docs)]

pub mod compartment;
mod config;
mod controller;
pub mod engine;
mod line_set;
mod machine;
mod secure_mem;
pub mod server;
mod snc;
pub mod vendor;

pub use config::{SecureBackendConfig, SecurityMode, SeedScheme, SncConfig, SncOrganization, SncPolicy};
pub use controller::SecureBackend;
pub use engine::MemTxn;
pub use line_set::LineSet;
pub use machine::{Machine, MachineConfig, Measurement};
pub use server::{CompartmentReport, SecureServer, ServerConfig, ServerMeasurement};
pub use secure_mem::{
    AttackOutcome, IntegrityMode, LineProtection, LineSnapshot, MapRegionError, SecureMemory,
    SecureMemoryError,
};
pub use snc::{EvictedSeq, SequenceNumberCache, SncLookup};

// The sweep executor moves whole machines and their results across
// worker threads (`padlock_exec::SweepPool`); these compile-time bounds
// pin that down, per the T1 audit of the simulator's interior-mutability
// sites: a machine owns all of its state, so `Send` must hold and any
// future `Rc`/`RefCell` that breaks it fails right here, not in a
// distant bench build.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Machine>();
    assert_send::<MachineConfig>();
    assert_send::<Measurement>();
    assert_send::<SecureBackend>();
    assert_send::<SecureBackendConfig>();
    assert_send::<SecureServer>();
    assert_send::<ServerConfig>();
    assert_send::<ServerMeasurement>();
};
