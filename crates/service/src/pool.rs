//! The server's long-lived, panic-isolated worker pool.
//!
//! The build environment has no network and therefore no tokio; plain
//! `std::thread` + channels cover the whole requirement. One-shot
//! fan-outs (batch files, Monte-Carlo chunks, optimizer searches) go
//! through [`sna_vm::run_ordered`] instead.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// The long-lived sibling of [`sna_vm::run_ordered`]: a fixed set of
/// worker threads draining one shared job channel for the lifetime of
/// the pool. This is what the server's event loop hands request execution
/// to — the reactor thread only frames I/O, workers run the verbs.
///
/// Jobs are `FnOnce` units pulled from a `Mutex<Receiver>` (plain
/// threads + channels, no async runtime).
/// Dropping the pool closes the channel and joins every worker, so
/// shutdown is deterministic — no detached threads survive the owner.
///
/// Job execution is **panic-isolated**: a `run` that panics is caught
/// with `catch_unwind`, counted in [`WorkerPool::panics`], and the
/// worker thread goes back to pulling jobs. One poisoned request can
/// therefore never shrink the pool or stall the queue. Callers that
/// must deliver a response even for a crashed job should arrange it via
/// a drop guard inside `run` (the server's event loop does exactly
/// that) — the pool itself only guarantees worker survival.
pub struct WorkerPool<J: Send + 'static> {
    tx: Option<mpsc::Sender<J>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    panics: Arc<AtomicU64>,
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Spawns `workers` threads (at least one), each running `run` on
    /// every job it pulls.
    pub fn new<F>(workers: usize, run: F) -> Self
    where
        F: Fn(J) + Send + Sync + 'static,
    {
        let (tx, rx) = mpsc::channel::<J>();
        let rx = Arc::new(Mutex::new(rx));
        let run = Arc::new(run);
        let panics = Arc::new(AtomicU64::new(0));
        let workers = (0..workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let run = Arc::clone(&run);
                let panics = Arc::clone(&panics);
                std::thread::spawn(move || loop {
                    // Hold the lock only for the recv: a slow job must
                    // not serialize the other workers' pulls.
                    let job = match rx.lock() {
                        Ok(guard) => guard.recv(),
                        Err(_) => break, // a worker panicked mid-recv
                    };
                    match job {
                        // AssertUnwindSafe: the worker never touches the
                        // closure's captures again on the panic path, and
                        // shared state (registry counters, completion
                        // queue) is either atomic or behind a Mutex whose
                        // poisoning its users handle.
                        Ok(job) => {
                            if catch_unwind(AssertUnwindSafe(|| run(job))).is_err() {
                                panics.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => break, // channel closed: pool dropped
                    }
                })
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
            panics,
        }
    }

    /// Enqueues one job. Returns `false` if the pool is already shut
    /// down (never happens while the pool is alive).
    pub fn submit(&self, job: J) -> bool {
        self.tx.as_ref().is_some_and(|tx| tx.send(job).is_ok())
    }

    /// Jobs whose `run` panicked (each one was caught; the worker
    /// survived).
    #[must_use]
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }
}

impl<J: Send + 'static> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop; joining
        // makes `drop(pool)` a synchronization point (all in-flight
        // jobs finished).
        self.tx.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_vm::{default_workers, run_ordered};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_input_order() {
        // Reverse sleep times so completion order is the reverse of input
        // order; collection must still be input-ordered.
        let jobs: Vec<u64> = (0..8).rev().collect();
        let out = run_ordered(jobs.len(), 4, |i| {
            std::thread::sleep(std::time::Duration::from_millis(jobs[i]));
            jobs[i]
        });
        assert_eq!(out, jobs);
    }

    #[test]
    fn one_thread_and_empty_inputs_work() {
        assert_eq!(run_ordered(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_ordered(3, 1, |i| (i, i + 1)).len(), 3);
        // More threads than jobs clamps quietly.
        assert_eq!(run_ordered(1, 64, |i| (i + 5) * 2), vec![10]);
    }

    #[test]
    fn every_index_is_seen_exactly_once() {
        let n = 100;
        let seen: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let out = run_ordered(n, 8, |i| {
            seen[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..n).collect::<Vec<_>>());
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn worker_pool_runs_every_job_and_joins_on_drop() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = {
            let done = Arc::clone(&done);
            WorkerPool::new(4, move |n: usize| {
                // Tiny stagger so jobs genuinely interleave on workers.
                if n.is_multiple_of(7) {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                done.fetch_add(1, Ordering::Relaxed);
            })
        };
        for n in 0..200 {
            assert!(pool.submit(n));
        }
        drop(pool); // joins: every submitted job has run
        assert_eq!(done.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = {
            let done = Arc::clone(&done);
            // One worker: if the panic killed it, every later job would
            // hang in the channel and drop(pool) would lose them.
            WorkerPool::new(1, move |n: usize| {
                if n == 3 || n == 7 {
                    panic!("injected job failure");
                }
                done.fetch_add(1, Ordering::Relaxed);
            })
        };
        for n in 0..10 {
            assert!(pool.submit(n));
        }
        while done.load(Ordering::Relaxed) < 8 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(pool.panics(), 2);
        drop(pool); // joins cleanly: the worker survived both panics
    }

    #[test]
    fn worker_pool_clamps_zero_workers_to_one() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = {
            let done = Arc::clone(&done);
            WorkerPool::new(0, move |_: ()| {
                done.fetch_add(1, Ordering::Relaxed);
            })
        };
        pool.submit(());
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }
}
