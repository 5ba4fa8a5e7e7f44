//! The self-scheduling pool. A point runs for milliseconds to seconds,
//! so one `fetch_add` per point on a shared cursor is free, and a slow
//! point stalls only the worker running it.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// A fixed-width pool that fans a slice of grid points across up to
/// `jobs` worker threads and returns results in submission order;
/// `jobs = 1` (or a single point) runs a serial loop on the calling
/// thread, with byte-identical output.
#[derive(Debug, Clone)]
pub struct SweepPool {
    jobs: usize,
}

impl SweepPool {
    /// A pool running at most `jobs` workers per sweep (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// The serial pool: `jobs = 1`, every sweep runs inline.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// The job count from `PADLOCK_JOBS` if set to a positive integer,
    /// else the host's available parallelism, else 1.
    pub fn from_env() -> Self {
        let jobs = std::env::var("PADLOCK_JOBS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&j| j >= 1)
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()));
        Self::new(jobs)
    }

    /// The configured worker ceiling.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `run` over every point on `min(jobs, points.len())` scoped
    /// workers; `result[i]` is `run(&points[i])`. If `run` panics, the
    /// sweep re-raises the lowest-index panicking point's own payload,
    /// as a serial sweep would.
    pub fn sweep<P, R, F>(&self, points: &[P], run: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        F: Fn(&P) -> R + Sync,
    {
        let workers = self.jobs.min(points.len());
        if workers <= 1 {
            return points.iter().map(run).collect();
        }
        // Relaxed suffices: one read-modify-write hands out each index,
        // and the results reach this thread through the join.
        let cursor = AtomicUsize::new(0);
        let worker = || {
            let mut done = Vec::new();
            loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(point) = points.get(idx) else {
                    return done;
                };
                let result = panic::catch_unwind(AssertUnwindSafe(|| run(point)));
                if result.is_err() {
                    // Start no later point; every lower index is taken.
                    cursor.store(points.len(), Ordering::Relaxed);
                }
                done.push((idx, result));
            }
        };
        let mut done: Vec<_> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            let joined = handles
                .into_iter()
                .map(|h| h.join().expect("workers catch panics"));
            joined.flatten().collect()
        });
        done.sort_unstable_by_key(|&(idx, _)| idx);
        done.into_iter()
            .map(|(_, result)| result.unwrap_or_else(|payload| panic::resume_unwind(payload)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn serial_pool_maps_in_order() {
        let points: Vec<u32> = (0..17).collect();
        let out = SweepPool::serial().sweep(&points, |p| p * 2);
        assert_eq!(out, (0..17).map(|p| p * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_results_arrive_in_submission_order() {
        let points: Vec<usize> = (0..257).collect();
        let out = SweepPool::new(8).sweep(&points, |&p| {
            // Skew per-point latency so late indices finish first.
            thread::sleep(Duration::from_micros((257 - p as u64) % 13));
            p * 3
        });
        assert_eq!(out, (0..257).map(|p| p * 3).collect::<Vec<_>>());
    }

    #[test]
    fn every_point_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let points: Vec<usize> = (0..100).collect();
        let out = SweepPool::new(4).sweep(&points, |&p| {
            ran.fetch_add(1, Ordering::Relaxed);
            p
        });
        assert_eq!(ran.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn a_skewed_grid_drains_in_submission_order() {
        // One pathological point at the front: the worker that takes it
        // is stuck while the others drain the cursor without it.
        let points: Vec<usize> = (0..64).collect();
        let out = SweepPool::new(4).sweep(&points, |&p| {
            if p == 0 {
                thread::sleep(Duration::from_millis(20));
            }
            p + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn more_jobs_than_points_is_fine() {
        let points = [5u8, 6, 7];
        assert_eq!(SweepPool::new(64).sweep(&points, |&p| p), vec![5, 6, 7]);
    }

    #[test]
    fn empty_and_singleton_sweeps() {
        let none: Vec<u8> = Vec::new();
        assert!(SweepPool::new(4).sweep(&none, |&p| p).is_empty());
        assert_eq!(SweepPool::new(4).sweep(&[9u8], |&p| p), vec![9]);
    }

    #[test]
    #[should_panic(expected = "point 3 failed")]
    fn a_panic_keeps_the_first_failing_points_message() {
        // Points 3 and 11 both panic; a serial sweep stops at point 3,
        // so the pool must re-raise point 3's own payload, not std's
        // generic "a scoped thread panicked".
        let points: Vec<usize> = (0..16).collect();
        SweepPool::new(4).sweep(&points, |&p| {
            assert!(p != 3 && p != 11, "point {p} failed");
            p
        });
    }

    #[test]
    fn jobs_clamp_and_env_fallback() {
        assert_eq!(SweepPool::new(0).jobs(), 1);
        assert_eq!(SweepPool::new(3).jobs(), 3);
        assert!(SweepPool::from_env().jobs() >= 1);
    }
}
