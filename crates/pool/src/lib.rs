//! Hermetic parallelism for the `mcds` workspace.
//!
//! The workspace is dependency-free by design (see the workspace
//! `Cargo.toml`), so this crate provides the parallel substrate that
//! `rayon` would otherwise supply: a [`ThreadPool`] with a
//! [`ThreadPool::scope`]/[`PoolScope::spawn`] API for fire-and-forget
//! subtasks and a deterministic, order-preserving
//! [`ThreadPool::parallel_map`] for fan-out/fan-in over a work list.
//!
//! # Scheduling
//!
//! Each parallel region runs a team of scoped worker threads (one per
//! configured thread; a [`ThreadPool::parallel_map`] region raises no
//! more workers than it has items) off one FIFO queue: spawned jobs are
//! claimed in spawn order by whichever worker is free, so a region of
//! width `w` never runs more than `w` jobs at once.  A job cannot reach its
//! region's [`PoolScope`], so jobs never spawn jobs and one queue is
//! all the balancing the callers need: a sweep's trials and a daemon's
//! connections.  The team is created per region with
//! [`std::thread::scope`], which keeps the whole crate in safe Rust and
//! lets jobs borrow from the caller's stack — exactly what the sweep
//! harness needs.  Worker startup is a few tens of microseconds; the
//! workloads this crate exists for (UDG construction, experiment trials)
//! are milliseconds to seconds per region.
//!
//! # Determinism contract
//!
//! [`ThreadPool::parallel_map`] returns results **in input order**, no
//! matter which worker ran which item or in what interleaving.  Combined
//! with per-task RNG stream splitting (`mcds_rng::split_seed`), a sweep
//! that derives each trial's generator from `(master_seed, trial_index)`
//! produces bit-identical output at any thread count — `--threads 4`
//! reproduces `--threads 1` exactly.  See `DESIGN.md` for the full
//! contract.
//!
//! ```
//! use mcds_pool::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.parallel_map((0..100u64).collect(), |i, x| {
//!     debug_assert_eq!(i as u64, x);
//!     x * x
//! });
//! assert_eq!(squares[7], 49);
//! assert_eq!(squares.len(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;

pub mod global;

/// The widest pool a front end accepts: a region of a width-`w` pool
/// raises up to `w` OS threads, so `--threads` (and `serve --bench
/// --clients`, one thread per client) above this is a usage error.
pub const MAX_THREADS: usize = 1024;

/// Checks a requested count of OS threads against `1..=`[`MAX_THREADS`]:
/// the count itself, or the rule it breaks for a front end to prefix with
/// its flag.
pub fn check_threads(count: usize) -> Result<usize, String> {
    if (1..=MAX_THREADS).contains(&count) {
        Ok(count)
    } else {
        Err(format!("must be between 1 and {MAX_THREADS} (got {count})"))
    }
}

type Job<'env> = Box<dyn FnOnce() + Send + 'env>;
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// A thread pool of a fixed logical width.
///
/// The pool itself is a lightweight handle (the worker team is raised per
/// parallel region; see the crate docs), so it is cheap to construct,
/// clone and pass around.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool that runs parallel regions on `threads` workers.
    ///
    /// `threads` is clamped to at least 1; a one-thread pool executes
    /// everything inline on the calling thread (no workers, no locks),
    /// which is the reference schedule parallel runs must reproduce.
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// The configured logical width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` with a [`PoolScope`] on which subtasks can be spawned.
    ///
    /// All spawned jobs complete before `scope` returns.  Jobs may borrow
    /// anything that outlives the `scope` call.  If a job panics, the
    /// first panic is re-raised on the calling thread after the region
    /// drains.
    ///
    /// ```
    /// use mcds_pool::ThreadPool;
    /// use std::sync::atomic::{AtomicUsize, Ordering};
    ///
    /// let pool = ThreadPool::new(3);
    /// let hits = AtomicUsize::new(0);
    /// pool.scope(|scope| {
    ///     for _ in 0..32 {
    ///         scope.spawn(|| {
    ///             hits.fetch_add(1, Ordering::Relaxed);
    ///         });
    ///     }
    /// });
    /// assert_eq!(hits.load(Ordering::Relaxed), 32);
    /// ```
    pub fn scope<'env, R>(&self, f: impl FnOnce(&PoolScope<'_, 'env>) -> R) -> R {
        let (sender, receiver) = mpsc::channel();
        let region = Region {
            queue: Mutex::new(receiver),
            queued: AtomicUsize::new(0),
            first_panic: Mutex::new(None),
        };
        let result = if self.threads == 1 {
            // Inline reference schedule: jobs run immediately on spawn.
            f(&PoolScope {
                region: &region,
                sender: None,
            })
        } else {
            std::thread::scope(|s| {
                for _ in 0..self.threads {
                    s.spawn(|| region.work());
                }
                // The scope holds the only sender.  It drops when `f`
                // returns or panics, and the workers then drain the queue
                // and exit, so `std::thread::scope` can join them.
                f(&PoolScope {
                    region: &region,
                    sender: Some(sender),
                })
            })
        };
        if let Some(payload) = region
            .first_panic
            .into_inner()
            .expect("panic slot poisoned")
        {
            resume_unwind(payload);
        }
        result
    }

    /// Applies `f` to every item concurrently and returns the results **in
    /// input order** — the cornerstone of the workspace's deterministic
    /// parallelism (see the crate docs).
    ///
    /// `f` receives `(index, item)`.  With one thread (or at most one
    /// item) the map runs inline, sequentially, in index order; that
    /// schedule is what wider pools reproduce.  Otherwise the region
    /// raises `min(threads, items)` workers.  A panic inside `f` is
    /// re-raised on the calling thread.
    pub fn parallel_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }
        let n = items.len();
        let (tx, rx) = mpsc::channel::<(usize, Result<R, PanicPayload>)>();
        let f = &f;
        ThreadPool::new(self.threads.min(n)).scope(move |scope| {
            for (i, item) in items.into_iter().enumerate() {
                let tx = tx.clone();
                scope.spawn(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| f(i, item)));
                    // The region owner holds the receiver for exactly `n`
                    // messages; a send can only fail if it panicked, in
                    // which case the job outcome is moot.
                    let _ = tx.send((i, out.map_err(|p| p as PanicPayload)));
                });
            }
            drop(tx);
            let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
            for (i, out) in rx {
                match out {
                    Ok(r) => slots[i] = Some(r),
                    Err(payload) => resume_unwind(payload),
                }
            }
            slots
                .into_iter()
                .map(|s| s.expect("every spawned job reports exactly once"))
                .collect()
        })
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::new(default_parallelism())
    }
}

/// The number of logical CPUs (at most [`MAX_THREADS`]), or 1 when the
/// platform will not say.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_THREADS)
}

/// Handle for spawning subtasks inside [`ThreadPool::scope`].
#[derive(Debug)]
pub struct PoolScope<'pool, 'env> {
    region: &'pool Region<'env>,
    /// The region's queue; `None` on a one-thread pool, whose jobs run
    /// inline.
    sender: Option<mpsc::Sender<Job<'env>>>,
}

impl<'env> PoolScope<'_, 'env> {
    /// Queues `job` for the region's workers, which claim jobs in spawn
    /// order.  On a one-thread pool the job runs immediately, inline.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'env) {
        mcds_obs::counter!("pool.jobs_spawned");
        let Some(sender) = &self.sender else {
            self.region.run(Box::new(job));
            return;
        };
        let depth = self.region.queued.fetch_add(1, Ordering::Relaxed) + 1;
        mcds_obs::gauge_set("pool.queue_depth", depth as i64);
        sender
            .send(Box::new(job))
            .expect("the region's receiver outlives its scope");
    }
}

/// One parallel region: the receiving end of its FIFO queue, shared by
/// the workers, and the first panic a job raised.
#[derive(Debug)]
struct Region<'env> {
    queue: Mutex<mpsc::Receiver<Job<'env>>>,
    /// Jobs sent and not yet claimed, for the `pool.queue_depth` gauge.
    queued: AtomicUsize,
    first_panic: Mutex<Option<PanicPayload>>,
}

impl Region<'_> {
    /// A worker: claims jobs until the queue is closed and empty.
    fn work(&self) {
        loop {
            // The lock is held only while this worker waits for a job.
            let next = self.queue.lock().expect("pool queue poisoned").recv();
            let Ok(job) = next else {
                return;
            };
            let depth = self.queued.fetch_sub(1, Ordering::Relaxed) - 1;
            mcds_obs::gauge_set("pool.queue_depth", depth as i64);
            self.run(job);
        }
    }

    /// Runs one job, keeping its panic if it is the region's first.
    fn run(&self, job: Job<'_>) {
        let start = mcds_obs::enabled().then(std::time::Instant::now);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
            let mut slot = self.first_panic.lock().expect("panic slot poisoned");
            slot.get_or_insert(payload);
        }
        if let Some(start) = start {
            mcds_obs::observe_duration("pool.task_ns", start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_map_preserves_order_at_any_width() {
        let items: Vec<u64> = (0..500).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let got = pool.parallel_map(items.clone(), |_, x| x * 3 + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_map_passes_matching_indices() {
        let pool = ThreadPool::new(4);
        let got = pool.parallel_map((0..64usize).collect(), |i, x| {
            assert_eq!(i, x);
            i
        });
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let pool = ThreadPool::new(4);
        let empty: Vec<u8> = pool.parallel_map(Vec::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(pool.parallel_map(vec![9], |_, x| x + 1), vec![10]);
    }

    #[test]
    fn scope_runs_all_spawned_jobs() {
        let pool = ThreadPool::new(3);
        let sum = AtomicU64::new(0);
        pool.scope(|scope| {
            for k in 1..=100u64 {
                let sum = &sum;
                scope.spawn(move || {
                    sum.fetch_add(k, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn jobs_can_borrow_caller_state() {
        let pool = ThreadPool::new(2);
        let data: Vec<u64> = (0..32).collect();
        let doubled = pool.parallel_map((0..data.len()).collect(), |_, i| data[i] * 2);
        assert_eq!(doubled[31], 62);
    }

    #[test]
    fn uneven_work_keeps_input_order() {
        // Front-load the heavy items: free workers claim the light ones
        // meanwhile, and the results still come back in input order.  The
        // schedule itself is unobservable by design.
        let pool = ThreadPool::new(4);
        let got = pool.parallel_map((0..40u64).collect(), |i, x| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(got, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn a_region_never_runs_more_jobs_than_its_width() {
        // The bound `ServeConfig::threads` promises the daemon: with `w`
        // workers, at most `w` connections are served at once.  Each job
        // waits at a `w`-party barrier, so every batch of `w` jobs is in
        // flight together, and a `w + 1`-th job would show in the mark.
        for width in [1, 2, 4] {
            let pool = ThreadPool::new(width);
            let barrier = std::sync::Barrier::new(width);
            let (running, high_water) = (AtomicUsize::new(0), AtomicUsize::new(0));
            pool.scope(|scope| {
                for _ in 0..8 * width {
                    let (barrier, running, high_water) = (&barrier, &running, &high_water);
                    scope.spawn(move || {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        high_water.fetch_max(now, Ordering::SeqCst);
                        barrier.wait();
                        running.fetch_sub(1, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(high_water.load(Ordering::SeqCst), width);
        }
    }

    #[test]
    fn zero_width_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.parallel_map(vec![1, 2], |_, x| x), vec![1, 2]);
    }

    #[test]
    fn nested_parallel_maps_work() {
        let outer = ThreadPool::new(2);
        let inner_width = 2;
        let got = outer.parallel_map((0..4u64).collect(), move |_, x| {
            let inner = ThreadPool::new(inner_width);
            inner
                .parallel_map((0..8u64).collect(), move |_, y| x * 8 + y)
                .iter()
                .sum::<u64>()
        });
        assert_eq!(got.iter().sum::<u64>(), (0..32u64).sum());
    }

    #[test]
    fn panic_in_job_propagates() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.parallel_map((0..16).collect::<Vec<u32>>(), |_, x| {
                    assert!(x != 7, "boom at {x}");
                    x
                })
            }));
            assert!(result.is_err(), "threads = {threads}");
        }
    }

    #[test]
    fn scope_panic_propagates_and_region_drains() {
        let pool = ThreadPool::new(2);
        let done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                for k in 0..8usize {
                    let done = &done;
                    scope.spawn(move || {
                        if k == 3 {
                            panic!("job 3 fails");
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(done.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn obs_counters_aggregate_across_workers() {
        // Concurrent increments from real worker threads must never lose
        // updates, and the pool's own instrumentation must fire.
        mcds_obs::test_support::with_enabled(true, || {
            let pool = ThreadPool::new(4);
            let counter = mcds_obs::counter("test.pool.concurrent_increments");
            let before = counter.value();
            let spawned_before = mcds_obs::counter_value("pool.jobs_spawned");
            let tasks_before = mcds_obs::histogram("pool.task_ns").count();
            pool.scope(|scope| {
                for _ in 0..256 {
                    let counter = counter.clone();
                    scope.spawn(move || counter.incr());
                }
            });
            assert_eq!(counter.value() - before, 256);
            assert!(mcds_obs::counter_value("pool.jobs_spawned") - spawned_before >= 256);
            assert!(mcds_obs::histogram("pool.task_ns").count() - tasks_before >= 256);
        });
    }

    #[test]
    fn default_pool_reports_width() {
        let pool = ThreadPool::default();
        assert!(pool.threads() >= 1);
        assert_eq!(pool.threads(), default_parallelism());
    }
}
