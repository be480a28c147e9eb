//! Ordered fan-out: `n` indexed jobs on a bounded set of scoped
//! threads, results handed back in index order.
//!
//! This is the one parallel loop of the workspace. The Monte-Carlo and
//! trace-replay drivers run their lane chunks through it, the
//! word-length optimizers their odometer chunks, annealing restarts and
//! Pareto candidates, and the CLI its batch files. Because results come
//! back in index order whatever the scheduling, a caller whose jobs are
//! pure functions of their index gets output that is bit-identical for
//! every worker count.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on the threads one fan-out runs, whatever was asked for.
pub const MAX_WORKERS: usize = 64;

/// Available hardware parallelism, or 1 when the platform cannot report
/// it. This is what a worker count of 0 means everywhere.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// The number of threads [`run_ordered`] uses for `n` jobs when asked
/// for `workers`: 0 means [`default_workers`], and the result is
/// clamped to `1..=min(n, MAX_WORKERS)`.
///
/// Callers that split their work into one contiguous chunk per worker
/// size the chunks with this and then run `worker_count(..)` jobs.
#[must_use]
pub fn worker_count(n: usize, workers: usize) -> usize {
    let workers = if workers == 0 {
        default_workers()
    } else {
        workers
    };
    workers.clamp(1, n.clamp(1, MAX_WORKERS))
}

/// Runs `f(0), …, f(n - 1)` on [`worker_count`]`(n, workers)` threads and
/// returns the results in index order.
///
/// With one worker the jobs run inline on the calling thread, in index
/// order. Otherwise each worker claims the next unclaimed index from a
/// shared atomic cursor, so a slow job does not stall its neighbours. A
/// panic in `f` propagates to the caller once every worker has stopped.
pub fn run_ordered<R, F>(n: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = worker_count(n, workers);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (cursor, f) = (&cursor, &f);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, r) in done {
                out[i] = Some(r);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every index is claimed once"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn worker_count_resolves_zero_and_clamps() {
        assert_eq!(worker_count(10, 0), default_workers().min(10));
        assert_eq!(worker_count(0, 8), 1);
        assert_eq!(worker_count(3, 8), 3);
        assert_eq!(worker_count(1000, usize::MAX), MAX_WORKERS);
    }

    #[test]
    fn huge_worker_requests_run_on_at_most_max_workers_threads() {
        let ids = Mutex::new(HashSet::new());
        let out = run_ordered(1000, usize::MAX, |i| {
            ids.lock().unwrap().insert(std::thread::current().id());
            i
        });
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
        let threads = ids.into_inner().unwrap().len();
        assert!((1..=MAX_WORKERS).contains(&threads), "{threads} threads");
    }

    #[test]
    #[should_panic(expected = "job 7 failed")]
    fn a_panicking_job_propagates() {
        run_ordered(16, 4, |i| assert!(i != 7, "job 7 failed"));
    }
}
