//! Leveled diagnostics: stderr printing under a runtime threshold, plus
//! capture into the JSONL trace when the subscriber is enabled.
//!
//! This replaces the ad-hoc `eprintln!` calls that used to be scattered
//! through the CLI and bench binaries: every diagnostic now goes through
//! [`log`] (usually via the [`warn!`](crate::warn)/[`error!`](crate::error)/
//! [`info!`](crate::info) macros), so `--quiet` can silence it and
//! `--trace` can preserve it.

use std::sync::atomic::{AtomicU8, Ordering};

/// Diagnostic severity, ordered: a message prints to stderr when its
/// level is *at or above* the threshold set by [`set_stderr_level`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Print nothing (threshold-only; messages never carry this level).
    Silent = 0,
    /// Unrecoverable or correctness-relevant problems.
    Error = 1,
    /// Suspicious conditions worth surfacing by default.
    Warn = 2,
    /// Progress chatter, hidden by default.
    Info = 3,
}

impl Level {
    /// The lowercase name used in trace records (`"warn"` …).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Silent => "silent",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Silent,
            1 => Level::Error,
            2 => Level::Warn,
            _ => Level::Info,
        }
    }
}

/// Messages at or below this severity value print to stderr.
static STDERR_LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);

/// Sets the stderr threshold: [`Level::Silent`] mutes everything,
/// [`Level::Info`] prints everything.  The default is [`Level::Warn`].
pub fn set_stderr_level(level: Level) {
    STDERR_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current stderr threshold.
pub fn stderr_level() -> Level {
    Level::from_u8(STDERR_LEVEL.load(Ordering::Relaxed))
}

/// Emits one diagnostic line: to stderr if `level` passes the threshold,
/// and into the trace buffer if the subscriber is enabled.
pub fn log(level: Level, msg: &str) {
    if level != Level::Silent && level <= stderr_level() {
        eprintln!("{}: {msg}", level.as_str());
    }
    if crate::enabled() {
        crate::trace::record_log(level.as_str(), msg.to_string());
    }
}

/// Like [`log`], but without the `level:` prefix on stderr — for
/// multi-line follow-up text (usage blocks) that should still obey the
/// threshold and still land in the trace.
pub fn plain(level: Level, msg: &str) {
    if level != Level::Silent && level <= stderr_level() {
        eprintln!("{msg}");
    }
    if crate::enabled() {
        crate::trace::record_log(level.as_str(), msg.to_string());
    }
}

/// Logs at [`Level::Error`] via [`log()`](log); `format!`-style arguments.
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Error, &format!($($arg)*))
    };
}

/// Logs at [`Level::Warn`] via [`log()`](log); `format!`-style arguments.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Warn, &format!($($arg)*))
    };
}

/// Logs at [`Level::Info`] via [`log()`](log); `format!`-style arguments.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Info, &format!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_round_trip() {
        assert!(Level::Silent < Level::Error);
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        for l in [Level::Silent, Level::Error, Level::Warn, Level::Info] {
            assert_eq!(Level::from_u8(l as u8), l);
        }
        assert_eq!(Level::Warn.as_str(), "warn");
    }

    #[test]
    fn logs_are_captured_into_the_trace_when_enabled() {
        crate::test_support::with_enabled(true, || {
            // Mute stderr for the duration so `cargo test` output stays
            // clean; restore the default afterwards.
            let prev = stderr_level();
            set_stderr_level(Level::Silent);
            crate::warn!("unit-test diagnostic {}", 42);
            set_stderr_level(prev);
            let text = crate::trace::drain_jsonl();
            assert!(
                text.contains("\"level\":\"warn\"") && text.contains("unit-test diagnostic 42"),
                "trace missing log record: {text}"
            );
        });
    }
}
