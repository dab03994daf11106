//! A bounded worker-pool executor — the query-processor bank.
//!
//! Jobs are submitted over a bounded channel; when every worker is busy
//! and the queue is full, [`Executor::submit`] blocks — backpressure,
//! the pipeline's admission control. Workers are plain threads running a
//! recv loop; the pool drains and joins on [`Executor::join`] (or drop).

use crate::sync::lock_ok;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of worker threads with a bounded job queue.
pub struct Executor {
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

/// Completion handle for a submitted job.
pub struct JobHandle<R> {
    rx: Receiver<R>,
}

impl<R> JobHandle<R> {
    /// Block until the job finishes and return its result.
    ///
    /// # Panics
    /// If the job's worker thread panicked before sending a result.
    pub fn wait(self) -> R {
        self.rx.recv().expect("worker dropped job result")
    }
}

impl Executor {
    /// Spawn `workers` threads sharing a queue of `queue` pending jobs.
    pub fn new(workers: usize, queue: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = sync_channel::<Job>(queue.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("rmdb-worker-{i}"))
                    .spawn(move || loop {
                        let job = {
                            // poison-tolerant: a sibling dying with the
                            // guard held must not wedge the whole pool
                            let rx = lock_ok(&rx);
                            rx.recv()
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => return, // all senders gone
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        Executor {
            tx: Some(tx),
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Submit a job; blocks when the queue is full (backpressure).
    pub fn submit<F, R>(&self, f: F) -> JobHandle<R>
    where
        F: FnOnce() -> R + Send + 'static,
        R: Send + 'static,
    {
        let (done, rx) = sync_channel(1);
        let job: Job = Box::new(move || {
            let _ = done.send(f());
        });
        self.tx
            .as_ref()
            .expect("executor running")
            .send(job)
            .expect("worker pool gone");
        JobHandle { rx }
    }

    /// Stop accepting jobs, run out the queue, and join every worker.
    pub fn join(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.tx = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn runs_all_jobs_and_returns_results() {
        let pool = Executor::new(4, 8);
        let handles: Vec<_> = (0..100u64).map(|i| pool.submit(move || i * 2)).collect();
        let total: u64 = handles.into_iter().map(|h| h.wait()).sum();
        assert_eq!(total, (0..100u64).map(|i| i * 2).sum());
        pool.join();
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        // queue of 1 with a slow worker: submit must block rather than
        // grow without bound — observed via the counter never racing
        // ahead of completions by more than workers + queue + 1
        let pool = Executor::new(1, 1);
        let done = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let counter = Arc::clone(&done);
            handles.push(pool.submit(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                counter.fetch_add(1, Ordering::Relaxed);
            }));
            let finished = done.load(Ordering::Relaxed);
            let submitted = handles.len() as u64;
            assert!(submitted - finished <= 3, "queue grew past its bound");
        }
        for h in handles {
            h.wait();
        }
        assert_eq!(done.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn join_drains_pending_jobs() {
        let pool = Executor::new(2, 16);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..32 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.join();
        assert_eq!(done.load(Ordering::Relaxed), 32);
    }
}
