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
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::registry::Histogram;
use crate::trace;

thread_local! {
    static SPANS: RefCell<SpanTree> = const { RefCell::new(SpanTree::new()) };
    static THREAD_ID: u64 = next_thread_id();
}

static THREAD_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Bumped by [`crate::reset`] after it clears the registry: a histogram
/// or counter handle cached under an older generation belongs to a
/// cleared map.
/// `Relaxed` suffices: the counter publishes no data (a refetch reads
/// the registry under its lock), and a close that races a reset on
/// another thread may still record into the cleared histogram, as a
/// fetch followed by an observe always could.
pub(crate) static GENERATION: AtomicU64 = AtomicU64::new(0);

fn next_thread_id() -> u64 {
    THREAD_COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// The small dense id of the calling thread (assigned on first use).
pub fn thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// Invalidates every cached histogram and counter handle.
pub(crate) fn invalidate_handles() {
    GENERATION.fetch_add(1, Ordering::Relaxed);
}

/// One thread's span nesting: the stack of open spans, as indices into a
/// tree that interns every `(parent path, name)` the thread has opened.
/// A node keeps its slash path and its `span.<name>` histogram handle,
/// so a span that reopens a known path allocates nothing, takes no lock
/// on open and, once its handle is cached, none on close but the trace
/// buffer's.  Span names are few and static, so sibling lists are
/// scanned linearly.
struct SpanTree {
    nodes: Vec<PathNode>,
    /// The nodes of the top-level spans.
    roots: Vec<usize>,
    /// The open spans, innermost last.
    stack: Vec<usize>,
}

struct PathNode {
    name: &'static str,
    path: Arc<str>,
    children: Vec<usize>,
    /// The `span.<name>` histogram and the generation it was fetched in.
    hist: Option<(u64, Histogram)>,
}

impl SpanTree {
    const fn new() -> Self {
        SpanTree {
            nodes: Vec::new(),
            roots: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens `name` under the innermost open span: its node, its path and
    /// its depth.
    fn open(&mut self, name: &'static str) -> (usize, Arc<str>, usize) {
        let parent = self.stack.last().copied();
        let siblings = parent.map_or(&self.roots, |p| &self.nodes[p].children);
        let node = match siblings.iter().find(|&&i| self.nodes[i].name == name) {
            Some(&i) => i,
            None => {
                let path = match parent {
                    Some(p) => format!("{}/{name}", self.nodes[p].path).into(),
                    None => name.into(),
                };
                let i = self.nodes.len();
                self.nodes.push(PathNode {
                    name,
                    path,
                    children: Vec::new(),
                    hist: None,
                });
                match parent {
                    Some(p) => self.nodes[p].children.push(i),
                    None => self.roots.push(i),
                }
                i
            }
        };
        let depth = self.stack.len();
        self.stack.push(node);
        (node, Arc::clone(&self.nodes[node].path), depth)
    }

    /// Closes `node` and records `dur` into its histogram, if `node` is
    /// the innermost open span called `name`; `false` otherwise (a guard
    /// dropped out of order or on another thread), leaving the stack be.
    fn close(&mut self, node: usize, name: &'static str, dur: Duration) -> bool {
        if self.stack.last() != Some(&node) || self.nodes[node].name != name {
            return false;
        }
        self.stack.pop();
        let generation = GENERATION.load(Ordering::Relaxed);
        let slot = &mut self.nodes[node].hist;
        match slot {
            Some((fetched, hist)) if *fetched == generation => hist.observe_duration(dur),
            _ => {
                let hist = span_histogram(name);
                hist.observe_duration(dur);
                *slot = Some((generation, hist));
            }
        }
        true
    }
}

/// The registry's `span.<name>` histogram, registered on first use.
fn span_histogram(name: &str) -> Histogram {
    crate::registry::registry().histogram(&format!("span.{name}"))
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
    /// The span's node in the opening thread's [`SpanTree`].
    node: usize,
    path: Arc<str>,
    depth: usize,
    start: Instant,
}

/// Starts a span called `name`, returning the guard that records it when
/// dropped.  Inert (near-zero cost) while the subscriber is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { live: None };
    }
    let (node, path, depth) = SPANS.with(|tree| tree.borrow_mut().open(name));
    SpanGuard {
        live: Some(LiveSpan {
            name,
            node,
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
        // Guards drop innermost-first (including during unwinding), so
        // the top of the stack is this span; still, never panic in a
        // destructor — a mismatch records through the registry instead.
        if !SPANS.with(|tree| tree.borrow_mut().close(live.node, live.name, dur)) {
            span_histogram(live.name).observe_duration(dur);
        }
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
            SPANS.with(|t| assert!(t.borrow().stack.is_empty()));
        });
    }

    #[test]
    fn nesting_builds_slash_paths() {
        crate::test_support::with_enabled(true, || {
            let outer = span("test.outer");
            let inner = span("test.inner");
            assert_eq!(&*inner.live.as_ref().unwrap().path, "test.outer/test.inner");
            assert_eq!(inner.live.as_ref().unwrap().depth, 1);
            drop(inner);
            assert_eq!(outer.live.as_ref().unwrap().depth, 0);
            drop(outer);
            SPANS.with(|t| assert!(t.borrow().stack.is_empty()));
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
            SPANS.with(|t| assert!(t.borrow().stack.is_empty(), "stack leaked across unwind"));
        });
    }
}
