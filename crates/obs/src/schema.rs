//! Trace-schema validation.
//!
//! [`validate_trace`] is the checker `scripts/verify.sh` and `mcds-cli
//! trace check` run over emitted `.jsonl` files.  Every line is read by
//! the strict [`crate::json`] parser (depth cap, duplicate-key
//! rejection, full escapes) and must match a record shape
//! [`crate::trace`] writes.  The writer's integer fields — span `seq`,
//! `thread`, `depth` and `dur_ns`, log `seq`, histogram `count` and
//! both members of each bucket pair — must be whole numbers in
//! `0..=2^53` (durations stay below 2^53 ns ≈ 104 days), so a negative,
//! fractional or oversized value fails the schema.  The span-tree fold
//! behind `trace summarize` and `trace flame` is [`crate::profile`].

use crate::json::Value;

/// Counts of each record type seen by a successful [`validate_trace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// `span` records.
    pub spans: usize,
    /// `log` records.
    pub logs: usize,
    /// `counter` records.
    pub counters: usize,
    /// `gauge` records.
    pub gauges: usize,
    /// `hist` records.
    pub hists: usize,
}

fn require_num(obj: &Value, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric field `{key}`"))
}

fn require_u64(obj: &Value, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("field `{key}` missing or not an integer in 0..=2^53"))
}

fn require_str<'a>(obj: &'a Value, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

/// Validates one non-meta trace line against the version-1 schema,
/// returning its `type`.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn validate_line(line: &str) -> Result<String, String> {
    let obj = Value::parse(line).map_err(|e| e.to_string())?;
    let ty = require_str(&obj, "type")?.to_string();
    match ty.as_str() {
        "meta" => {
            let version = require_u64(&obj, "version")?;
            if version != crate::trace::SCHEMA_VERSION {
                return Err(format!("unsupported schema version {version}"));
            }
            require_str(&obj, "clock")?;
        }
        "span" => {
            require_u64(&obj, "seq")?;
            require_u64(&obj, "thread")?;
            let depth = require_u64(&obj, "depth")?;
            let name = require_str(&obj, "name")?;
            let path = require_str(&obj, "path")?;
            require_u64(&obj, "dur_ns")?;
            if path.split('/').next_back().is_none_or(|last| last != name) {
                return Err(format!("path `{path}` does not end in name `{name}`"));
            }
            if path.split('/').count() as u64 != depth + 1 {
                return Err(format!("path `{path}` disagrees with depth {depth}"));
            }
        }
        "log" => {
            require_u64(&obj, "seq")?;
            require_str(&obj, "level")?;
            require_str(&obj, "msg")?;
        }
        "counter" | "gauge" => {
            require_str(&obj, "name")?;
            require_num(&obj, "value")?;
        }
        "hist" => {
            require_str(&obj, "name")?;
            let count = require_u64(&obj, "count")?;
            require_num(&obj, "sum")?;
            require_num(&obj, "max")?;
            let buckets = obj
                .get("buckets")
                .and_then(Value::as_arr)
                .ok_or("missing array field `buckets`")?;
            // The count of an `[index, count]` integer pair.
            let pair_count = |b: &Value| match b.as_arr()? {
                [index, count] => index.as_u64().and(count.as_u64()),
                _ => None,
            };
            let mut total = 0u64;
            for b in buckets {
                let c =
                    pair_count(b).ok_or("bucket entries must be [index, count] integer pairs")?;
                total = total.checked_add(c).ok_or("bucket counts overflow a u64")?;
            }
            if total != count {
                return Err(format!("bucket counts sum to {total}, header says {count}"));
            }
        }
        other => return Err(format!("unknown record type `{other}`")),
    }
    Ok(ty)
}

/// Validates a whole JSONL trace: the first line must be the `meta`
/// record, every following line must satisfy [`validate_line`].
///
/// # Errors
///
/// Returns `line number: problem` for the first offending line.
pub fn validate_trace(text: &str) -> Result<TraceStats, String> {
    let mut lines = text.lines().enumerate();
    let (_, first) = lines.next().ok_or_else(|| "empty trace".to_string())?;
    let first_ty = validate_line(first).map_err(|e| format!("line 1: {e}"))?;
    if first_ty != "meta" {
        return Err(format!("line 1: expected meta record, got `{first_ty}`"));
    }
    let mut stats = TraceStats::default();
    for (i, line) in lines {
        if line.is_empty() {
            continue;
        }
        let ty = validate_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match ty.as_str() {
            "span" => stats.spans += 1,
            "log" => stats.logs += 1,
            "counter" => stats.counters += 1,
            "gauge" => stats.gauges += 1,
            "hist" => stats.hists += 1,
            "meta" => return Err(format!("line {}: duplicate meta record", i + 1)),
            _ => unreachable!("validate_line rejects unknown types"),
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span line with the given `seq`, `thread`, `depth` and `dur_ns`.
    fn span_line([seq, thread, depth, dur]: [&str; 4]) -> String {
        format!(
            "{{\"type\":\"span\",\"seq\":{seq},\"thread\":{thread},\"depth\":{depth},\
             \"name\":\"b\",\"path\":\"a/b\",\"dur_ns\":{dur}}}"
        )
    }

    #[test]
    fn validate_line_enforces_shape() {
        let good = ["0", "0", "1", "5"];
        assert_eq!(validate_line(&span_line(good)), Ok("span".to_string()));
        // Depth must match the path.
        assert!(validate_line(&span_line(["0", "0", "3", "5"])).is_err());
        // Integer fields reject what the writer never emits: negative,
        // fractional and past-2^53 values.
        for i in 0..good.len() {
            for bad in ["-5", "1.5", "1e19"] {
                let mut fields = good;
                fields[i] = bad;
                let line = span_line(fields);
                assert!(validate_line(&line).is_err(), "accepted {line}");
            }
        }
        // Histogram bucket counts must sum to the header count.
        assert!(validate_line(
            r#"{"type":"hist","name":"h","count":5,"sum":9,"max":4,"buckets":[[1,2]]}"#
        )
        .is_err());
        assert!(validate_line(
            r#"{"type":"hist","name":"h","count":2,"sum":9,"max":4,"buckets":[[1,2]]}"#
        )
        .is_ok());
        for pair in ["[-5,2]", "[1,1.5]", "[1e19,2]", "[1]", "[1,2,3]", "3"] {
            let line = format!(
                r#"{{"type":"hist","name":"h","count":2,"sum":9,"max":4,"buckets":[{pair}]}}"#
            );
            assert!(validate_line(&line).is_err(), "accepted {line}");
        }
        assert!(validate_line(r#"{"type":"wat"}"#).is_err());
        assert!(validate_line(r#"{"no_type":1}"#).is_err());
    }

    #[test]
    fn validate_trace_requires_leading_meta() {
        let good = "{\"type\":\"meta\",\"version\":1,\"clock\":\"monotonic-ns\"}\n\
                    {\"type\":\"counter\",\"name\":\"c\",\"value\":2}\n";
        let stats = validate_trace(good).unwrap();
        assert_eq!(stats.counters, 1);
        let bad = "{\"type\":\"counter\",\"name\":\"c\",\"value\":2}\n";
        assert!(validate_trace(bad).is_err());
        assert!(validate_trace("").is_err());
    }
}
