//! Hostile metric names through both exporters.
//!
//! Registry names are free-form strings; two renderers interpolate
//! them: `trace::metrics_json()` (must JSON-escape, so quotes,
//! backslashes, control characters and multi-byte scalars round-trip
//! through the strict parser) and `registry::metrics_text()` (must
//! sanitize onto the Prometheus charset `[a-zA-Z0-9_:]`,
//! deterministically).  `mcds-check`'s string generator supplies the
//! names that break hand-written interpolation.

use mcds_check::gen::strings;
use mcds_check::{prop_assert, prop_assert_eq, Property, TestResult};
use mcds_obs::json::Value;
use mcds_obs::{metrics_text, sanitize_metric_name};

/// Splits a Prometheus exposition line into its metric-name token:
/// `# TYPE name kind` → `name`, `name{labels} value` / `name value` →
/// `name`.
fn name_token(line: &str) -> Option<&str> {
    if let Some(rest) = line.strip_prefix("# TYPE ") {
        rest.split(' ').next()
    } else {
        line.split([' ', '{']).next()
    }
}

#[test]
fn hostile_names_round_trip_through_metrics_json() {
    Property::new("hostile_names_round_trip_through_metrics_json")
        .cases(96)
        .run(&strings(0..=40), |s| {
            let name = format!("hostile.json.{s}");
            mcds_obs::counter(&name).add(1);
            let expected = mcds_obs::counter_value(&name);
            let doc = format!("{{{}}}", mcds_obs::trace::metrics_json());
            let parsed = match Value::parse(&doc) {
                Ok(j) => j,
                Err(e) => return TestResult::Fail(format!("unparseable fragment: {e}")),
            };
            let got = parsed
                .get("counters")
                .and_then(|c| c.get(&name))
                .and_then(Value::as_f64);
            prop_assert!(
                got == Some(expected as f64),
                "counter {name:?} lost in metrics_json round-trip: {got:?}"
            );
            TestResult::Pass
        });
}

#[test]
fn hostile_names_sanitize_into_valid_prometheus_exposition() {
    Property::new("hostile_names_sanitize_into_valid_prometheus_exposition")
        .cases(96)
        .run(&strings(0..=40), |s| {
            let name = format!("hostile.prom.{s}");
            mcds_obs::counter(&name).add(1);
            // The sanitizer is deterministic and idempotent, so the same
            // hostile name always maps to the same exposition family.
            let san = sanitize_metric_name(&name);
            prop_assert_eq!(sanitize_metric_name(&san), san.clone());
            let text = metrics_text();
            prop_assert!(
                text.contains(&format!("mcds_{san}")),
                "sanitized family mcds_{san} missing from exposition"
            );
            // Every line of the exposition stays inside the Prometheus
            // grammar: valid name charset, no leading digit.
            for line in text.lines() {
                let tok = name_token(line).unwrap_or("");
                prop_assert!(
                    !tok.is_empty()
                        && !tok.as_bytes()[0].is_ascii_digit()
                        && tok
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                    "invalid metric name token {tok:?} in line {line:?}"
                );
            }
            TestResult::Pass
        });
}
