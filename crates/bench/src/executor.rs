//! The sweep executor: one task pool behind one shared cursor.
//!
//! A figure grid is `cells × seeds` independent deterministic
//! simulations of wildly different durations (a 1 MB-transfer cell
//! finishes long before a 64 KB one at the same byte volume). The grid is
//! flattened into one task pool drained by exactly
//! `min(available_parallelism, tasks)` workers. Each worker claims the
//! next unclaimed task index from a single `AtomicUsize` until the range
//! is exhausted, so no worker ever waits behind a slow task while others
//! remain, and there is no per-cell barrier. Greedy claiming in index
//! order balances as well as work stealing would: a task is an entire
//! simulation run (milliseconds to seconds), so the one contended atomic
//! costs nanoseconds per task.
//!
//! Execution order never affects results: every task writes only its own
//! slot, and callers fold the slots in task-index order afterwards (see
//! `harness::Sweep::run_cells_named`), so means over seeds are
//! bit-identical to a sequential loop no matter which worker ran what.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-worker counters, accumulated across every pool this process runs.
/// Always on: the counters are a handful of adds per *task* (a task is an
/// entire simulation run), so there is no off switch to get wrong — under
/// `--profile` they feed the hostprof executor section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Tasks this worker ran.
    pub tasks: u64,
    /// Nanoseconds spent running tasks.
    pub busy_ns: u64,
    /// Nanoseconds of pool wall time this worker was *not* running tasks
    /// (start-up, cursor claims, and end-of-pool starvation).
    pub idle_ns: u64,
}

impl WorkerCounters {
    fn merge(&mut self, o: &WorkerCounters) {
        self.tasks += o.tasks;
        self.busy_ns += o.busy_ns;
        self.idle_ns += o.idle_ns;
    }
}

/// Process-wide executor statistics: every [`run_indexed`] pool folds its
/// per-worker counters in here (by worker index).
#[derive(Debug, Clone, Default)]
pub struct ExecutorStats {
    /// Pools run so far.
    pub pools: u64,
    /// Per-worker counters, indexed by worker id, summed across pools.
    pub workers: Vec<WorkerCounters>,
}

static EXEC_STATS: Mutex<ExecutorStats> = Mutex::new(ExecutorStats {
    pools: 0,
    workers: Vec::new(),
});

/// Snapshot the accumulated executor statistics.
pub fn executor_stats() -> ExecutorStats {
    EXEC_STATS.lock().expect("no poisoning").clone()
}

/// Run `f(0) ..= f(total - 1)`, each exactly once, on `workers` threads
/// that claim task indices from one shared cursor. Blocks until every
/// task has finished. `workers` is clamped to `[1, total]`; with one
/// worker (or one task) this degenerates to a sequential in-order loop.
pub fn run_indexed<F>(total: usize, workers: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if total == 0 {
        return;
    }
    let workers = workers.clamp(1, total);
    let cursor = AtomicUsize::new(0);
    let pool_start = Instant::now();
    let counters: Vec<WorkerCounters> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (cursor, f) = (&cursor, &f);
                scope.spawn(move || {
                    sais_prof::set_thread_label(&format!("worker{w}"));
                    let mut c = WorkerCounters::default();
                    loop {
                        let t = cursor.fetch_add(1, Ordering::Relaxed);
                        if t >= total {
                            break;
                        }
                        let t0 = Instant::now();
                        f(t);
                        c.busy_ns += t0.elapsed().as_nanos() as u64;
                        c.tasks += 1;
                    }
                    c
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    // Idle is charged against the pool's wall clock: everything a worker
    // did that was not running a task, including waiting out the pool's
    // slowest task after the cursor ran dry.
    let wall_ns = pool_start.elapsed().as_nanos() as u64;
    let mut stats = EXEC_STATS.lock().expect("no poisoning");
    stats.pools += 1;
    if stats.workers.len() < workers {
        stats.workers.resize(workers, WorkerCounters::default());
    }
    for (w, mut c) in counters.into_iter().enumerate() {
        c.idle_ns = wall_ns.saturating_sub(c.busy_ns);
        stats.workers[w].merge(&c);
    }
}

/// The host's parallelism: worker count for [`run_indexed`] when the
/// caller has no better bound.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_and_count(total: usize, workers: usize) {
        let hits: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        run_indexed(total, workers, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} ran exactly once");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        for workers in [1, 2, 3, 7, 64] {
            run_and_count(100, workers);
        }
    }

    #[test]
    fn more_workers_than_tasks() {
        run_and_count(3, 16);
    }

    #[test]
    fn single_task_and_empty_pool() {
        run_and_count(1, 4);
        run_indexed(0, 4, |_| panic!("no tasks to run"));
    }

    #[test]
    fn worker_counters_accumulate() {
        // EXEC_STATS is process-global and other tests run pools
        // concurrently, so assert on deltas, not absolutes.
        let sum_tasks = || {
            let s = executor_stats();
            (s.pools, s.workers.iter().map(|w| w.tasks).sum::<u64>())
        };
        let (pools0, tasks0) = sum_tasks();
        run_indexed(23, 3, |_| std::hint::spin_loop());
        let (pools1, tasks1) = sum_tasks();
        assert!(pools1 > pools0, "pool run must be counted");
        assert!(tasks1 >= tasks0 + 23, "all 23 tasks counted across workers");
        assert!(
            executor_stats().workers.len() >= 3,
            "three workers leave three slots"
        );
    }

    #[test]
    fn pool_does_not_wait_behind_a_slow_task() {
        // Task 0 is slow and the other 31 are fast; with two workers the
        // fast tasks must all go to the worker not stuck on task 0 rather
        // than queue behind it. Detect by wall time: their execution
        // overlaps the sleep.
        let t0 = std::time::Instant::now();
        run_indexed(32, 2, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(80));
            }
        });
        // Sequentially-behind-the-sleep would add nothing measurable, so
        // the assertion is only that the whole pool finishes about when
        // the slow task does, not after any serial tail.
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(400),
            "pool stalled behind the slow task: {:?}",
            t0.elapsed()
        );
    }
}
