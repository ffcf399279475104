//! Fuzzing the JSONL trace schema validator with `mcds-check`.
//!
//! Two properties:
//!
//! 1. **Never panics**: a schema-valid trace subjected to random
//!    char-level mutations and truncations must be *rejected or
//!    accepted* by the validator — never crash it.  Mutated traces are
//!    exactly what a half-written profile file (killed process, full
//!    disk) looks like.
//! 2. **Round-trip**: traces recorded by concurrently nested spans
//!    across real threads always validate, with the span/log counts
//!    the recording implies.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mcds_check::gen::{usizes, vecs};
use mcds_check::{prop_assert, prop_assert_eq, Property, TestResult};
use mcds_obs::json::Value;
use mcds_obs::profile::Profile;
use mcds_obs::schema::{validate_line, validate_trace};

/// Records a deterministic, schema-valid base trace to mutate.
fn base_trace() -> String {
    mcds_obs::test_support::with_enabled(true, || {
        mcds_obs::reset();
        {
            let _root = mcds_obs::span("fz.solve");
            {
                let _p1 = mcds_obs::span("fz.phase1");
                mcds_obs::counter!("fz.mis.selected", 7);
            }
            mcds_obs::observe("fz.damage", 2);
            mcds_obs::gauge_set("fz.queue", 5);
            let prev = mcds_obs::log::stderr_level();
            mcds_obs::log::set_stderr_level(mcds_obs::log::Level::Silent);
            mcds_obs::warn!("fuzz \"base\" line \\ with escapes");
            mcds_obs::log::set_stderr_level(prev);
        }
        let text = mcds_obs::trace::drain_jsonl();
        mcds_obs::reset();
        text
    })
}

/// Characters chosen to stress the JSON lexer: structural tokens,
/// escape leads, digits, NUL, and multi-byte UTF-8.
const HOSTILE: &[char] = &[
    '"', '\\', '{', '}', '[', ']', ':', ',', '0', '9', '-', '.', 'e', 'n', 't', ' ', '\0', 'é',
    '\u{2028}',
];

/// Applies one `(kind, pos, aux)` edit on char boundaries (so the
/// result stays a valid `&str` and any crash is the validator's fault).
fn mutate(text: &str, kind: usize, pos: usize, aux: usize) -> String {
    let chars: Vec<char> = text.chars().collect();
    if chars.is_empty() {
        return HOSTILE[aux % HOSTILE.len()].to_string();
    }
    let i = pos % chars.len();
    match kind {
        // Truncate: the half-written-file case.
        0 => chars[..i].iter().collect(),
        // Delete one char.
        1 => {
            let mut c = chars.clone();
            c.remove(i);
            c.into_iter().collect()
        }
        // Replace with a hostile char.
        2 => {
            let mut c = chars.clone();
            c[i] = HOSTILE[aux % HOSTILE.len()];
            c.into_iter().collect()
        }
        // Insert a hostile char.
        3 => {
            let mut c = chars.clone();
            c.insert(i, HOSTILE[aux % HOSTILE.len()]);
            c.into_iter().collect()
        }
        // Duplicate a line.
        4 => {
            let mut lines: Vec<&str> = text.lines().collect();
            let j = pos % lines.len();
            lines.insert(j, lines[j]);
            lines.join("\n")
        }
        // Drop a line.
        _ => {
            let mut lines: Vec<&str> = text.lines().collect();
            let j = pos % lines.len();
            lines.remove(j);
            lines.join("\n")
        }
    }
}

#[test]
fn validator_never_panics_on_mutated_traces() {
    let base = base_trace();
    let edits = vecs((usizes(0..=5), usizes(0..=9999), usizes(0..=9999)), 1..=8);
    Property::new("validator_never_panics_on_mutated_traces")
        .cases(128)
        .run(&edits, |edits| {
            let mut text = base.clone();
            for (kind, pos, aux) in edits {
                text = mutate(&text, *kind, *pos, *aux);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                // Every entry point must reject garbage gracefully.
                let _ = validate_trace(&text);
                let _ = Profile::from_trace(&text);
                for line in text.lines() {
                    let _ = validate_line(line);
                    let _ = Value::parse(line);
                }
            }));
            prop_assert!(outcome.is_ok(), "validator panicked on mutated trace");
            TestResult::Pass
        });
}

#[test]
fn truncated_mid_line_traces_are_rejected_not_crashed() {
    let base = base_trace();
    Property::new("truncated_mid_line_traces_are_rejected_not_crashed")
        .cases(96)
        .run(&usizes(1..=9999), |cut| {
            let chars: Vec<char> = base.chars().collect();
            let i = cut % chars.len();
            let head: String = chars[..i].iter().collect();
            let outcome = catch_unwind(AssertUnwindSafe(|| validate_trace(&head)));
            let verdict = match outcome {
                Ok(v) => v,
                Err(_) => {
                    return TestResult::Fail("validator panicked on truncation".into());
                }
            };
            // Cutting in the middle of a JSON line must surface an error.
            // A cut at a line boundary — trailing newline included or
            // not — legitimately still validates.
            let last = head.lines().last().unwrap_or("");
            let clean_cut =
                head.is_empty() || head.ends_with('\n') || base.lines().any(|l| l == last);
            if !clean_cut {
                prop_assert!(
                    verdict.is_err(),
                    "mid-line truncation at char {} accepted",
                    i
                );
            }
            TestResult::Pass
        });
}

/// Deterministic span-name pool (`span` needs `&'static str`).
const THREAD_SPANS: &[[&str; 3]] = &[
    ["ct.t0.outer", "ct.t0.mid", "ct.t0.inner"],
    ["ct.t1.outer", "ct.t1.mid", "ct.t1.inner"],
    ["ct.t2.outer", "ct.t2.mid", "ct.t2.inner"],
    ["ct.t3.outer", "ct.t3.mid", "ct.t3.inner"],
];

#[test]
fn concurrent_nested_span_traces_round_trip() {
    let gen = (usizes(1..=4), usizes(1..=3), usizes(1..=4));
    Property::new("concurrent_nested_span_traces_round_trip")
        .cases(32)
        .run(&gen, |(threads, depth, reps)| {
            let (threads, depth, reps) = (*threads, *depth, *reps);
            let text = mcds_obs::test_support::with_enabled(true, || {
                mcds_obs::reset();
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        std::thread::spawn(move || {
                            for _ in 0..reps {
                                // Nested guards: inner spans close before
                                // outer ones, concurrently across threads.
                                let _guards: Vec<_> = THREAD_SPANS[t][..depth]
                                    .iter()
                                    .map(|name| mcds_obs::span(name))
                                    .collect();
                                mcds_obs::counter!("ct.work", 1);
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("span recording must not panic");
                }
                let text = mcds_obs::trace::drain_jsonl();
                mcds_obs::reset();
                text
            });
            let stats = match validate_trace(&text) {
                Ok(s) => s,
                Err(e) => return TestResult::Fail(format!("round-trip rejected: {e}")),
            };
            prop_assert_eq!(stats.spans as usize, threads * depth * reps);
            prop_assert_eq!(stats.counters, 1);
            // Per-thread nesting survives the shared buffer: the fold
            // accepts every thread's chain intact.
            prop_assert!(Profile::from_trace(&text).is_ok());
            TestResult::Pass
        });
}
