//! `padlock_exec` — a self-scheduling sweep executor for embarrassingly
//! parallel grids of independent simulations.
//!
//! Every sweep in this workspace (`repro --mlp` grids, `channel_sweep`,
//! figure regeneration, baseline capture) is a list of independent
//! `Machine` runs: each grid point is a pure function of its config, a
//! property enforced lexically by `padlock-lint` (rules D1/D2/T1).
//! That purity is what makes the fan-out here sound *and* lets the
//! parallel path promise byte-identical output: points execute in any
//! order across workers, but results are reassembled in submission
//! order, so every table and JSON line downstream is independent of
//! `--jobs`.
//!
//! The pool is a dependency-free shim over `std::thread` (the build
//! environment is offline, in the same spirit as `vendor/rand`), and
//! safe code only: scoped workers take the next point index from one
//! shared atomic cursor, and the `(index, result)` pairs are sorted
//! back into submission order after the join.
//!
//! ```
//! use padlock_exec::SweepPool;
//!
//! let pool = SweepPool::new(4);
//! let points: Vec<u64> = (0..100).collect();
//! let squares = pool.sweep(&points, |p| p * p);
//! assert_eq!(squares[7], 49); // submission order, regardless of jobs
//! ```

#![warn(missing_docs)]

mod pool;

pub use pool::SweepPool;
