//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§5).
//!
//! [`FIGURES`] lists the paper's figures once, each with the machines
//! its series compare. [`Lab::figure`] runs an entry's machines across
//! the 11-benchmark suite and returns a [`FigureResult`] holding both
//! our measured series and the paper's published series, rendered side
//! by side by the `repro` binary. Simulation results are memoised per
//! `(benchmark, machine)` pair inside a [`Lab`], because the figures
//! share machine configurations (Fig. 3's XOM column reappears in
//! Figs. 5 and 8).
//!
//! # Examples
//!
//! ```
//! use padlock_bench::{Figure, Lab, RunScale};
//!
//! let mut lab = Lab::new(RunScale::Smoke);
//! let fig = lab.figure(Figure::numbered(3).expect("Fig. 3 is in the paper"));
//! assert_eq!(fig.series[0].measured.len(), 11);
//! ```

#![warn(missing_docs)]

mod figures;
mod lab;
mod meter;
pub mod mlp;
mod paper_data;
pub mod seed_core;
pub mod server;

pub use figures::{Figure, FigureResult, Metric, Series, FIGURES};
pub use lab::{figure_point, Lab, MachineKind, RunScale};
pub use meter::simulated_cycles;
pub use mlp::{
    bank_table_from, banked_grid, e2e_machine_config, e2e_table, grid_jsonl, inflight_for,
    mlp_table, order_delta_table_from, run_e2e_point, run_mlp_point,
    E2eParams, E2ePoint, E2eTrace, MlpPoint,
};
pub use paper_data::{paper_series, ORDER};
pub use server::{run_server_point, server_machine_config, server_table, ServerPoint};
