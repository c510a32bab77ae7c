//! Work-stealing parallel map used by the pipeline's fan-out stages.
//!
//! The earlier implementation split work into `n_threads` static chunks,
//! which serializes the tail whenever one chunk draws a skewed item (one
//! huge contract can hold its whole chunk hostage while every other
//! thread idles). Here workers claim items one at a time from a shared
//! atomic cursor, so load balances at item granularity with a single
//! uncontended `fetch_add` per item.
//!
//! [`WorkerPool`] extends the same idea to long-lived service workloads:
//! a fixed set of threads draining a *bounded* job queue, with explicit
//! backpressure ([`WorkerPool::try_submit`] refuses instead of growing
//! the queue) and graceful drain-then-join shutdown.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Map `work` over `items` in parallel, preserving input order in the
/// result. `work` receives `(index, &item)`.
///
/// Items are claimed one at a time from an atomic cursor (work stealing
/// at item granularity); results are merged per worker and re-sorted by
/// index, so the output is deterministic regardless of scheduling.
pub fn par_map<T, R, F>(items: &[T], work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    static RUNS: telemetry::Counter = telemetry::Counter::new("par.runs");
    static ITEMS: telemetry::Counter = telemetry::Counter::new("par.items");
    static STEALS: telemetry::Counter = telemetry::Counter::new("par.steals");
    static TASKS_PER_WORKER: telemetry::Histogram =
        telemetry::Histogram::new("par.tasks_per_worker");
    RUNS.incr();
    ITEMS.add(items.len() as u64);
    let n_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items.len());
    if n_threads <= 1 {
        TASKS_PER_WORKER.observe(items.len() as u64);
        return items.iter().enumerate().map(|(i, item)| work(i, item)).collect();
    }

    // With item-granular claiming there is no assigned chunk; "steals" are
    // the tasks a worker executed beyond its fair (static-split) share.
    let fair_share = items.len().div_ceil(n_threads);
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= items.len() {
                        break;
                    }
                    local.push((index, work(index, &items[index])));
                }
                TASKS_PER_WORKER.observe(local.len() as u64);
                STEALS.add(local.len().saturating_sub(fair_share) as u64);
                collected.lock().expect("worker poisoned the result lock").extend(local);
            });
        }
    });

    let mut indexed = collected.into_inner().expect("result lock poisoned");
    indexed.sort_unstable_by_key(|(index, _)| *index);
    indexed.into_iter().map(|(_, result)| result).collect()
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Returned by [`WorkerPool::try_submit`] when the queue is at capacity —
/// the job is handed back so the caller can shed load (the analysis
/// service turns this into an HTTP 429 on the rejected connection).
pub struct PoolFull<F>(pub F);

impl<F> std::fmt::Debug for PoolFull<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PoolFull(..)")
    }
}

struct PoolState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    capacity: usize,
    /// Jobs that panicked; their workers caught the panic and went on.
    panics: AtomicU64,
}

impl PoolShared {
    /// The state lock is never held while a job runs, so poisoning is
    /// impossible in practice; recover the guard anyway so one anomalous
    /// panic cannot wedge the whole pool.
    fn lock_state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// A fixed-size worker pool over a bounded job queue.
///
/// Unlike [`par_map`] (one-shot fan-out over a known slice), the pool
/// serves an open-ended stream of jobs: submission is non-blocking and
/// *refuses* once `capacity` jobs are queued, making overload explicit at
/// the edge instead of hiding it in unbounded memory growth. Workers park
/// on a condvar between jobs; [`WorkerPool::shutdown`] drains the queue
/// and joins every worker. A job that panics unwinds only itself: its
/// worker catches the panic (counted in `pool.respawns`) and takes the
/// next job, so the pool never loses capacity to a poisoned job.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// The workers, taken and joined by [`WorkerPool::shutdown`].
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn `workers` threads serving a queue bounded at `capacity`
    /// pending jobs (both clamped to at least 1).
    pub fn new(workers: usize, capacity: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState { jobs: VecDeque::new(), shutdown: false }),
            work_ready: Condvar::new(),
            capacity: capacity.max(1),
            panics: AtomicU64::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Self::worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, handles: Mutex::new(handles) }
    }

    fn worker_loop(shared: &PoolShared) {
        static EXECUTED: telemetry::Counter = telemetry::Counter::new("pool.executed");
        static RESPAWNS: telemetry::Counter = telemetry::Counter::new("pool.respawns");
        loop {
            let job = {
                let mut state = shared.lock_state();
                loop {
                    if let Some(job) = state.jobs.pop_front() {
                        break job;
                    }
                    if state.shutdown {
                        return;
                    }
                    state = shared
                        .work_ready
                        .wait(state)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            };
            // The job's own guards run as it unwinds; the worker lives on.
            match std::panic::catch_unwind(AssertUnwindSafe(job)) {
                Ok(()) => EXECUTED.incr(),
                Err(_) => {
                    shared.panics.fetch_add(1, Ordering::Relaxed);
                    RESPAWNS.incr();
                }
            }
        }
    }

    /// Jobs currently queued (excluding jobs already picked up).
    pub fn queue_len(&self) -> usize {
        self.shared.lock_state().jobs.len()
    }

    /// Jobs that panicked (each caught by the worker that ran it).
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Submit a job without blocking. Returns the job inside
    /// [`PoolFull`] when `capacity` jobs are already pending.
    pub fn try_submit<F>(&self, job: F) -> Result<(), PoolFull<F>>
    where
        F: FnOnce() + Send + 'static,
    {
        static SUBMITTED: telemetry::Counter = telemetry::Counter::new("pool.submitted");
        static REJECTED: telemetry::Counter = telemetry::Counter::new("pool.rejected");
        static DEPTH: telemetry::Gauge = telemetry::Gauge::new("pool.queue_depth");
        let mut state = self.shared.lock_state();
        if state.shutdown || state.jobs.len() >= self.shared.capacity {
            drop(state);
            REJECTED.incr();
            return Err(PoolFull(job));
        }
        state.jobs.push_back(Box::new(job));
        DEPTH.set(state.jobs.len() as u64);
        drop(state);
        SUBMITTED.incr();
        self.shared.work_ready.notify_one();
        Ok(())
    }

    /// Graceful shutdown: already-queued jobs still run, new submissions
    /// are refused, and every worker is joined before returning.
    pub fn shutdown(&self) {
        self.shared.lock_state().shutdown = true;
        self.shared.work_ready.notify_all();
        let handles = std::mem::take(
            &mut *self.handles.lock().unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
        for handle in handles {
            handle.join().expect("a worker catches every job's panic");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = par_map(&[] as &[u32], |_, v| *v);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |_, v| v * 2);
        assert_eq!(out, items.iter().map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let items: Vec<usize> = (0..500).collect();
        let hits = AtomicUsize::new(0);
        let out = par_map(&items, |i, v| {
            hits.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, *v);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn pool_executes_all_submitted_jobs() {
        let pool = WorkerPool::new(4, 64);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let hits = Arc::clone(&hits);
            pool.try_submit(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn pool_sheds_load_past_queue_capacity() {
        // One worker blocked on a gate + capacity 1 → the first job runs,
        // the second queues, the third must be refused.
        let pool = WorkerPool::new(1, 1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        pool.try_submit(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
        .unwrap();
        // Wait until the worker has picked up the blocking job.
        while pool.queue_len() > 0 {
            std::thread::yield_now();
        }
        pool.try_submit(|| {}).unwrap();
        assert!(pool.try_submit(|| {}).is_err(), "third job must be shed");
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_jobs() {
        let pool = WorkerPool::new(1, 64);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let hits = Arc::clone(&hits);
            pool.try_submit(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 20, "queued jobs run before join");
    }

    #[test]
    fn rejected_job_is_handed_back() {
        let pool = WorkerPool::new(1, 1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        pool.try_submit(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
        .unwrap();
        while pool.queue_len() > 0 {
            std::thread::yield_now();
        }
        pool.try_submit(|| {}).unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        if let Err(PoolFull(job)) = pool.try_submit(move || {
            h.fetch_add(1, Ordering::Relaxed);
        }) {
            job(); // the caller still owns the work
        }
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.shutdown();
    }

    #[test]
    fn panicking_jobs_respawn_workers_and_later_jobs_still_run() {
        let pool = WorkerPool::new(2, 64);
        for _ in 0..4 {
            pool.try_submit(|| panic!("injected job panic")).unwrap();
        }
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let hits = Arc::clone(&hits);
            pool.try_submit(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 8, "pool survives panicking jobs");
        assert_eq!(pool.panics(), 4, "each panicking job is caught once");
    }

    #[test]
    fn skewed_workload_completes() {
        // One item 1000× heavier than the rest must not serialize the tail.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |_, v| {
            let spins = if *v == 0 { 200_000 } else { 200 };
            let mut acc = 0u64;
            for i in 0..spins {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            acc.min(1) + v
        });
        assert_eq!(out.len(), 64);
    }
}
