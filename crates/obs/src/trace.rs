//! The JSONL trace buffer and exporter.
//!
//! While the subscriber is enabled, finished spans and emitted log lines
//! accumulate in a process-wide buffer; [`drain_jsonl`] (or
//! [`flush_to_path`]) renders them — together with a snapshot of every
//! registered counter, gauge and histogram — as one JSON object per line.
//!
//! # Schema (version 1)
//!
//! The first line is always the `meta` record; field order within each
//! record type is fixed, so equal observations produce byte-equal traces:
//!
//! ```text
//! {"type":"meta","version":1,"clock":"monotonic-ns"}
//! {"type":"span","seq":0,"thread":0,"depth":1,"name":"solve.phase1","path":"solve/solve.phase1","dur_ns":41208}
//! {"type":"log","seq":7,"level":"warn","msg":"..."}
//! {"type":"counter","name":"connectors.candidates_scanned","value":532}
//! {"type":"gauge","name":"pool.queue_depth","value":3}
//! {"type":"hist","name":"pool.task_ns","count":40,"sum":1073442,"max":95211,"buckets":[[11,2],[12,38]]}
//! ```
//!
//! `seq` is a global event order shared by spans and logs (spans are
//! sequenced when they *finish*); counters/gauges/histograms appear once
//! per name, sorted.  Durations are wall-clock and therefore belong only
//! in `.jsonl` traces — never in the comparable CSV artifacts (see the
//! determinism contract, DESIGN.md §8–9).

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::registry;

/// The trace schema version emitted in the `meta` record.
pub const SCHEMA_VERSION: u64 = 1;

#[derive(Debug, Clone)]
pub(crate) enum Event {
    Span {
        seq: u64,
        thread: u64,
        depth: usize,
        name: &'static str,
        path: Arc<str>,
        dur: Duration,
    },
    Log {
        seq: u64,
        level: &'static str,
        msg: String,
    },
}

fn events() -> &'static Mutex<Vec<Event>> {
    static EVENTS: OnceLock<Mutex<Vec<Event>>> = OnceLock::new();
    EVENTS.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_events() -> std::sync::MutexGuard<'static, Vec<Event>> {
    events()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

static SEQ: AtomicU64 = AtomicU64::new(0);

fn next_seq() -> u64 {
    SEQ.fetch_add(1, Ordering::Relaxed)
}

pub(crate) fn record_span(
    name: &'static str,
    path: Arc<str>,
    depth: usize,
    thread: u64,
    dur: Duration,
) {
    lock_events().push(Event::Span {
        seq: next_seq(),
        thread,
        depth,
        name,
        path,
        dur,
    });
}

pub(crate) fn record_log(level: &'static str, msg: String) {
    lock_events().push(Event::Log {
        seq: next_seq(),
        level,
        msg,
    });
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn render(events: &[Event]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"type\":\"meta\",\"version\":{SCHEMA_VERSION},\"clock\":\"monotonic-ns\"}}\n"
    ));
    for e in events {
        match e {
            Event::Span {
                seq,
                thread,
                depth,
                name,
                path,
                dur,
            } => {
                let ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
                out.push_str(&format!(
                    "{{\"type\":\"span\",\"seq\":{seq},\"thread\":{thread},\"depth\":{depth},\
                     \"name\":\"{}\",\"path\":\"{}\",\"dur_ns\":{ns}}}\n",
                    json_escape(name),
                    json_escape(path)
                ));
            }
            Event::Log { seq, level, msg } => {
                out.push_str(&format!(
                    "{{\"type\":\"log\",\"seq\":{seq},\"level\":\"{level}\",\"msg\":\"{}\"}}\n",
                    json_escape(msg)
                ));
            }
        }
    }
    let reg = registry::registry();
    for (name, value) in reg.counter_snapshot() {
        out.push_str(&format!(
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}\n",
            json_escape(&name)
        ));
    }
    for (name, value) in reg.gauge_snapshot() {
        out.push_str(&format!(
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{value}}}\n",
            json_escape(&name)
        ));
    }
    for (name, hist) in reg.histogram_snapshot() {
        let buckets = hist
            .nonzero_buckets()
            .iter()
            .map(|(b, c)| format!("[{b},{c}]"))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "{{\"type\":\"hist\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"max\":{},\
             \"buckets\":[{buckets}]}}\n",
            json_escape(&name),
            hist.count(),
            hist.sum(),
            hist.max()
        ));
    }
    out
}

/// Renders the current metric registry as three JSON object members —
/// `"counters":{...},"gauges":{...},"hists":{...}` — names sorted, no
/// surrounding braces, for embedding inside a larger JSON object (the
/// `mcds-serve` metrics endpoint).  Nothing is drained.  Durations in
/// histograms are wall-clock, so the fragment is a diagnostic view, not
/// a comparable artifact (DESIGN.md §8).
pub fn metrics_json() -> String {
    let reg = registry::registry();
    let mut out = String::from("\"counters\":{");
    for (i, (name, value)) in reg.counter_snapshot().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{value}", json_escape(&name)));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, value)) in reg.gauge_snapshot().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{value}", json_escape(&name)));
    }
    out.push_str("},\"hists\":{");
    for (i, (name, hist)) in reg.histogram_snapshot().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let buckets = hist
            .nonzero_buckets()
            .iter()
            .map(|(b, c)| format!("[{b},{c}]"))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[{buckets}]}}",
            json_escape(&name),
            hist.count(),
            hist.sum(),
            hist.max()
        ));
    }
    out.push('}');
    out
}

/// Renders the full trace (meta line, buffered span/log events, metric
/// snapshot) as JSONL and clears the event buffer.  The metric registry
/// itself is left intact — use [`crate::reset`] to clear everything.
pub fn drain_jsonl() -> String {
    let drained: Vec<Event> = std::mem::take(&mut *lock_events());
    render(&drained)
}

/// Drains the trace into `path` (created or truncated).
pub fn flush_to_path(path: &str) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(drain_jsonl().as_bytes())
}

/// Clears buffered events (spans/logs) without rendering them.
pub(crate) fn clear() {
    lock_events().clear();
}

/// Discards buffered span/log events without touching the metric
/// registry.  Long-running daemons that enable the subscriber for the
/// metrics endpoints but have nowhere to flush a trace call this
/// periodically so the event buffer stays bounded.
pub fn discard_events() {
    clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny\t"), "x\\ny\\t");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn meta_line_leads_every_trace() {
        // Serialized against the tests that read buffered events.
        let text = crate::test_support::with_enabled(true, drain_jsonl);
        let first = text.lines().next().unwrap();
        assert!(first.contains("\"type\":\"meta\""));
        assert!(first.contains(&format!("\"version\":{SCHEMA_VERSION}")));
    }
}
