//! Process-wide pool configuration.
//!
//! Library layers (today the experiment harness's trial sweeps in
//! `mcds-bench`) should not thread a `&ThreadPool` through every
//! signature just in case the caller wants parallelism.  Instead, entry
//! points (`mcds-cli sweep --threads`, experiment binaries' `--threads`)
//! call [`configure`] once, and libraries pick the width up with
//! [`pool`].
//!
//! The default width is **1** — sequential — so that nothing in the
//! workspace changes behavior unless a front end opts in.  Sequential and
//! parallel runs produce identical results everywhere this workspace uses
//! the pool (see the determinism contract in the crate docs); the opt-in
//! exists so that libraries embedded in other processes never spawn
//! threads behind their host's back.

use crate::ThreadPool;
use std::sync::atomic::{AtomicUsize, Ordering};

static CONFIGURED_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide pool width (clamped to at least 1).
///
/// Call once at startup, before parallel regions run.  Later calls win —
/// tests use that to switch widths — but concurrent parallel regions are
/// unaffected by reconfiguration (each region snapshots its width).
pub fn configure(threads: usize) {
    CONFIGURED_THREADS.store(threads.max(1), Ordering::Relaxed);
}

/// The currently configured process-wide width.
pub fn threads() -> usize {
    CONFIGURED_THREADS.load(Ordering::Relaxed)
}

/// A pool handle at the configured process-wide width.
pub fn pool() -> ThreadPool {
    ThreadPool::new(threads())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential_and_configure_clamps() {
        // Note: this test mutates process-global state; it restores the
        // sequential default so sibling tests see the documented baseline.
        assert!(threads() >= 1);
        configure(0);
        assert_eq!(threads(), 1);
        configure(8);
        assert_eq!(threads(), 8);
        assert_eq!(pool().threads(), 8);
        configure(1);
    }
}
