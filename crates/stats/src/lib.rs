//! Counters, summary statistics, and table rendering for the `padlock`
//! secure-processor simulator.
//!
//! Every timing model in the workspace reports its activity through the
//! types in this crate so that the experiment harness can assemble the
//! paper's figures without each model inventing its own bookkeeping.
//!
//! # Examples
//!
//! ```
//! use padlock_stats::{arith_mean, CounterSet, Table};
//!
//! let mut snc = CounterSet::new("snc");
//! snc.add("hits", 3);
//! snc.incr("misses");
//! assert_eq!(snc.get("hits"), 3);
//!
//! let slowdowns = [34.76, 1.3];
//! let average = arith_mean(&slowdowns).unwrap();
//! let mut table = Table::new(vec!["bench".into(), "slowdown %".into()]);
//! table.push_row(vec!["mcf".into(), format!("{:.2}", slowdowns[0])]);
//! table.push_row(vec!["Average".into(), format!("{average:.2}")]);
//! let text = table.render_text();
//! assert!(text.contains("mcf"));
//! assert!(text.contains("18.03"));
//! ```

#![warn(missing_docs)]

mod counter;
mod summary;
mod table;

pub use counter::CounterSet;
pub use summary::arith_mean;
pub use table::{Align, Table};
