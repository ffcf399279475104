//! How many OS threads a `parallel_map` region raises.  The count is read
//! from `/proc/self/status`, so this file holds a single test: no sibling
//! test may start threads while it counts.

#![cfg(target_os = "linux")]

use std::sync::Barrier;

use mcds_pool::ThreadPool;

/// The `Threads:` line of this process's status.
fn threads_alive() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("status has a Threads line")
}

#[test]
fn a_small_map_starts_only_the_workers_it_needs() {
    let before = threads_alive();
    let pool = ThreadPool::new(8);
    // The barrier holds all three jobs in flight, so every worker the
    // region raised is alive while each job counts.
    let barrier = Barrier::new(3);
    let alive = pool.parallel_map(vec![(); 3], |_, ()| {
        barrier.wait();
        let alive = threads_alive();
        barrier.wait();
        alive
    });
    for a in alive {
        assert!(a - before <= 3, "{} workers for 3 items", a - before);
    }
}
