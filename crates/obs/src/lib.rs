//! # mcds-obs — zero-dependency observability for the mcds workspace
//!
//! Structured tracing, metrics and leveled logging with nothing outside
//! `std`, matching the workspace's hermetic-build contract:
//!
//! * **Counters / gauges / histograms** ([`registry`]) — named handles
//!   over shared atomics; histograms are log2-bucketed (64 buckets).
//! * **Spans** ([`span()`], [`span!`](crate::span!)) — RAII guards that
//!   nest per thread and record wall time into both the histogram
//!   `span.<name>` and the trace buffer.
//! * **JSONL traces** ([`trace`]) — a deterministic-field-order export
//!   of spans, logs and metric snapshots; [`schema`] carries the
//!   matching validator.
//! * **JSON** ([`json`]) — the workspace's one strict JSON value model
//!   and parser, shared by the trace readers, the serve protocol and
//!   the perf ledger.
//! * **Profiles & exposition** ([`profile`], [`metrics_text`]) —
//!   the span-tree fold of a trace into per-path totals, self time,
//!   per-label stats and collapsed stacks, plus Prometheus text-format
//!   rendering of the registry for the serve daemon's `/metrics`
//!   endpoint.
//! * **Leveled logging** ([`log`], [`warn!`]/[`error!`]/[`info!`]) —
//!   stderr diagnostics under a runtime threshold, captured into traces.
//!
//! ## The enabled gate
//!
//! All instrumentation is off until [`enable`] is called: the disabled
//! path of a span or a [`counter!`] is a single relaxed atomic load, so
//! library code can stay instrumented unconditionally.  Binaries opt in
//! (the CLI does so for `--trace`) and flush with
//! [`trace::flush_to_path`].
//!
//! ## Determinism contract
//!
//! Spans and histograms measure *wall time*, which varies run to run.
//! Such data is quarantined in `.jsonl` traces and timing-only CSVs —
//! it must never feed the comparable CSV artifacts (DESIGN.md §8–9).
//! Tracing never perturbs solver results: instrumentation only reads
//! clocks and bumps atomics; `scripts/verify.sh` diffs solve output with
//! tracing on vs off to enforce this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicBool, Ordering};

pub mod json;
pub mod log;
pub mod profile;
pub mod registry;
pub mod schema;
mod span;
pub mod trace;

pub use registry::{
    bucket_quantile, counter, counter_value, gauge, gauge_set, histogram, metrics_text, observe,
    observe_duration, percentile, sanitize_metric_name, Counter, Gauge, Histogram,
};
pub use span::{span, thread_id, SpanGuard};

/// Whether the global subscriber is on.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the global subscriber on: spans, gated counter updates and log
/// capture start recording.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the global subscriber off.  Already-recorded data is kept until
/// [`reset`] or a trace drain.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the global subscriber is on — the single relaxed load that
/// gates every instrumentation fast path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all recorded state: buffered span/log events and every
/// registered counter, gauge and histogram, and the span histogram
/// handles each thread caches and the counter handles of [`counter!`]
/// sites.  The enabled flag and stderr log
/// threshold are left as they are.
pub fn reset() {
    trace::clear();
    registry::registry().clear();
    span::invalidate_handles();
}

/// Opens a span for the rest of the enclosing scope:
/// `span!("solve.phase1");` is shorthand for binding
/// [`span("solve.phase1")`](fn@span) to a scope-lived guard.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _mcds_obs_span_guard = $crate::span($name);
    };
}

/// Bumps a counter when the subscriber is enabled: `counter!("name")`
/// adds one, `counter!("name", delta)` adds `delta`.  The name is a
/// literal: each call site keeps its counter's handle, so a record skips
/// the registry's name lookup after the site's first (and first after a
/// [`reset`]).  Sites that share a name add into one counter.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {
        $crate::counter!($name, 1)
    };
    ($name:literal, $delta:expr) => {{
        static SITE: $crate::registry::CounterSite = $crate::registry::CounterSite::new();
        $crate::registry::counter_site_add(&SITE, $name, $delta)
    }};
}

/// Test-only helpers for code that needs to toggle the process-global
/// subscriber without racing parallel tests.
#[doc(hidden)]
pub mod test_support {
    use std::sync::{Mutex, OnceLock};

    fn guard() -> &'static Mutex<()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        GUARD.get_or_init(|| Mutex::new(()))
    }

    /// Runs `f` with the subscriber forced to `on`, serialized against
    /// every other `with_enabled` caller in the process (cargo runs tests
    /// concurrently; the enabled flag is global).  The previous state is
    /// restored afterwards, even if `f` panics.
    pub fn with_enabled<R>(on: bool, f: impl FnOnce() -> R) -> R {
        let _lock = guard()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let prev = super::enabled();
        struct Restore(bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                if self.0 {
                    super::enable();
                } else {
                    super::disable();
                }
            }
        }
        let _restore = Restore(prev);
        if on {
            super::enable();
        } else {
            super::disable();
        }
        f()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn enable_gate_round_trips() {
        crate::test_support::with_enabled(true, || {
            assert!(crate::enabled());
            crate::counter!("test.lib.gated");
            crate::counter!("test.lib.gated", 4);
            assert_eq!(crate::counter_value("test.lib.gated"), 5);
        });
        crate::test_support::with_enabled(false, || {
            assert!(!crate::enabled());
            let before = crate::counter_value("test.lib.gated");
            crate::counter!("test.lib.gated", 100);
            assert_eq!(crate::counter_value("test.lib.gated"), before);
        });
    }

    #[test]
    fn span_macro_measures_the_enclosing_scope() {
        crate::test_support::with_enabled(true, || {
            let before = crate::histogram("span.test.lib.scope").count();
            {
                crate::span!("test.lib.scope");
            }
            assert_eq!(crate::histogram("span.test.lib.scope").count(), before + 1);
        });
    }
}
