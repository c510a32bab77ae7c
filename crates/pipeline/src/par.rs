//! Work-stealing parallel map used by the pipeline's fan-out stages.
//!
//! The earlier implementation split work into `n_threads` static chunks,
//! which serializes the tail whenever one chunk draws a skewed item (one
//! huge contract can hold its whole chunk hostage while every other
//! thread idles). Here workers claim items one at a time from a shared
//! atomic cursor, so load balances at item granularity with a single
//! uncontended `fetch_add` per item.
//!
//! The analysis daemon keeps no pool of its own: each of its event loops
//! runs the requests it reads (see the `server` crate's `reactor`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
