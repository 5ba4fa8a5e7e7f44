//! Properties of the self-scheduling sweep executor.
//!
//! The load-bearing claim behind every byte-identical parallel sweep:
//! whatever the worker count and however adversarially the per-point
//! runtimes are skewed, [`SweepPool::sweep`] returns exactly one result
//! per submitted point, in submission order, and runs each point
//! exactly once.

use padlock_exec::SweepPool;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Results come back in submission order with nothing lost or
    /// duplicated, even when point runtimes are skewed so workers take
    /// uneven shares of the cursor and finish out of order.
    #[test]
    fn sweep_preserves_submission_order_and_loses_nothing(
        delays_us in proptest::collection::vec(0u64..400, 0..64),
        jobs in prop::sample::select(vec![1usize, 2, 3, 8]),
    ) {
        let pool = SweepPool::new(jobs);
        let runs = AtomicUsize::new(0);
        let points: Vec<(usize, u64)> = delays_us.iter().copied().enumerate().collect();
        let results = pool.sweep(&points, |&(i, delay_us)| {
            runs.fetch_add(1, Ordering::Relaxed);
            if delay_us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
            }
            i * 10 + 7
        });
        prop_assert_eq!(runs.load(Ordering::Relaxed), points.len(), "each point runs exactly once");
        prop_assert_eq!(results.len(), points.len());
        for (i, r) in results.into_iter().enumerate() {
            prop_assert_eq!(r, i * 10 + 7, "slot {} out of submission order", i);
        }
    }

    /// The executor is a deterministic function of its inputs: two
    /// sweeps of the same points agree element-wise regardless of the
    /// (different) worker counts that produced them.
    #[test]
    fn sweeps_at_different_widths_agree(
        values in proptest::collection::vec(any::<u32>(), 0..128),
        jobs in prop::sample::select(vec![2usize, 4, 7]),
    ) {
        let serial = SweepPool::serial().sweep(&values, |&v| u64::from(v) * 3 + 1);
        let pooled = SweepPool::new(jobs).sweep(&values, |&v| u64::from(v) * 3 + 1);
        prop_assert_eq!(serial, pooled);
    }
}
