//! RAII span guards: nested wall-time measurement that feeds both the
//! histogram registry and the JSONL trace buffer.
//!
//! ```
//! mcds_obs::enable();
//! {
//!     let _solve = mcds_obs::span("doc.solve");
//!     let _phase = mcds_obs::span("doc.solve.phase1");
//!     // ... work ...
//! } // both guards record here, innermost first
//! assert!(mcds_obs::registry::histogram("span.doc.solve").count() >= 1);
//! # mcds_obs::disable();
//! # mcds_obs::reset();
//! ```
//!
//! Nesting is tracked per thread: each guard pushes its name onto a
//! thread-local stack on creation and pops it on drop, so the recorded
//! `path`/`depth` reflect lexical nesting even across panics (guards drop
//! in reverse order during unwinding, which keeps the stack balanced).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::trace;

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: u64 = next_thread_id();
}

static THREAD_COUNTER: AtomicU64 = AtomicU64::new(0);

fn next_thread_id() -> u64 {
    THREAD_COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// The small dense id of the calling thread (assigned on first use).
pub fn thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// An in-flight span; created by [`span`], recorded on drop.
///
/// When the subscriber is disabled the guard is inert — no clock read, no
/// stack push, no event.
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct SpanGuard {
    /// `None` when the subscriber was disabled at creation.
    live: Option<LiveSpan>,
}

#[derive(Debug)]
struct LiveSpan {
    name: &'static str,
    path: String,
    depth: usize,
    start: Instant,
}

/// Starts a span called `name`, returning the guard that records it when
/// dropped.  Inert (near-zero cost) while the subscriber is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { live: None };
    }
    let (path, depth) = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let depth = stack.len();
        stack.push(name);
        let path = stack.join("/");
        (path, depth)
    });
    SpanGuard {
        live: Some(LiveSpan {
            name,
            path,
            depth,
            start: Instant::now(),
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let dur = live.start.elapsed();
        SPAN_STACK.with(|stack| {
            // Guards drop innermost-first (including during unwinding),
            // so the top of the stack is this span; still, never panic in
            // a destructor — pop only on an exact match.
            let mut stack = stack.borrow_mut();
            if stack.last() == Some(&live.name) {
                stack.pop();
            }
        });
        crate::registry::registry()
            .histogram(&format!("span.{}", live.name))
            .observe_duration(dur);
        trace::record_span(live.name, live.path, live.depth, thread_id(), dur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        // Serialized against siblings by the lock inside with_enabled.
        crate::test_support::with_enabled(false, || {
            let g = span("test.inert");
            assert!(g.live.is_none());
            drop(g);
            SPAN_STACK.with(|s| assert!(s.borrow().is_empty()));
        });
    }

    #[test]
    fn nesting_builds_slash_paths() {
        crate::test_support::with_enabled(true, || {
            let outer = span("test.outer");
            let inner = span("test.inner");
            assert_eq!(inner.live.as_ref().unwrap().path, "test.outer/test.inner");
            assert_eq!(inner.live.as_ref().unwrap().depth, 1);
            drop(inner);
            assert_eq!(outer.live.as_ref().unwrap().depth, 0);
            drop(outer);
            SPAN_STACK.with(|s| assert!(s.borrow().is_empty()));
        });
    }

    #[test]
    fn panic_unwind_leaves_the_stack_balanced() {
        crate::test_support::with_enabled(true, || {
            let caught = std::panic::catch_unwind(|| {
                let _a = span("test.unwind.a");
                let _b = span("test.unwind.b");
                panic!("boom");
            });
            assert!(caught.is_err());
            SPAN_STACK.with(|s| assert!(s.borrow().is_empty(), "stack leaked across unwind"));
        });
    }
}
