//! Cache timing models for the `padlock` secure-processor simulator.
//!
//! Provides the set-associative LRU cache used for L1I/L1D/L2 (and the
//! 32-way SNC of the paper's Fig. 7), an ordered-map-backed fully
//! associative LRU cache (the paper's default SNC organisation), and the
//! write buffer that sits between L2 and memory (Fig. 2/4).
//!
//! These are *timing* models: they track presence and recency of line
//! addresses (plus dirtiness in the set-associative cache) and an
//! arbitrary per-line payload, not data contents (functional data lives
//! in `padlock-mem`).
//!
//! # Examples
//!
//! ```
//! use padlock_cache::{AccessKind, CacheConfig, SetAssocCache};
//!
//! let config = CacheConfig::new("L2", 256 * 1024, 128, 4);
//! let mut l2 = SetAssocCache::<()>::new(config);
//! assert!(!l2.access(0x4000, AccessKind::Read).hit);
//! assert!(l2.access(0x4000, AccessKind::Read).hit);
//! ```

#![warn(missing_docs)]

mod config;
mod fullassoc;
mod setassoc;
mod stats;
mod write_buffer;

pub use config::CacheConfig;
pub use fullassoc::FullAssocCache;
pub use setassoc::{AccessKind, AccessOutcome, Evicted, SetAssocCache};
pub use write_buffer::{WriteBuffer, WriteBufferEntry};
