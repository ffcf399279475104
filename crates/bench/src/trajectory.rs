//! Perf-trajectory ledger: normalizes the per-subsystem `BENCH_*.json`
//! artifacts into one append-only JSONL file
//! (`results/BENCH_trajectory.jsonl`, one run per line) and compares
//! consecutive entries so CI can flag wall-time regressions.
//!
//! Each `BENCH_*.json` has its own point shape (the profile ladder keys
//! by `n`, the serve bench by `clients`, the fault study by `m`).  The
//! ledger reduces every point to a `(key, wall_ms)` pair via the
//! explicit field map in [`field_map`], so a single `compare` pass can
//! reason about all of them uniformly:
//!
//! ```text
//! {"schema":1,"rev":"529083b","recorded_s":1754650000,"benches":{
//!   "profile":[{"key":"n=1000","wall_ms":16.996}, ...],
//!   "serve":[{"key":"clients=1","wall_ms":0.034}, ...]}}
//! ```
//!
//! `compare` takes the per-bench **median** of the per-key wall-time
//! ratios between the last two entries — the median (not the mean)
//! keeps one noisy ladder rung from failing the gate — and reports a
//! regression when it exceeds a threshold (default 1.25, i.e. >25%
//! slower).  Wall times are excluded from byte-compared artifacts
//! (DESIGN.md §8); this ledger is the one place they are tracked
//! on purpose.

use mcds_obs::json::Value;
use mcds_obs::trace::json_escape;

/// Ledger schema version, bumped on breaking line-shape changes.
pub const SCHEMA_VERSION: u64 = 1;

/// One normalized point: a human-readable key (`"n=1000"`) and its
/// wall time in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryPoint {
    /// Ladder position within the bench, e.g. `n=1000` or `clients=4`.
    pub key: String,
    /// Wall time, milliseconds.
    pub wall_ms: f64,
}

/// One ledger line: every `BENCH_*.json` present at record time,
/// normalized, under one git revision.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryEntry {
    /// Short git revision of the recorded tree (or `"unknown"`).
    pub rev: String,
    /// Unix seconds at record time (informational only).
    pub recorded_s: u64,
    /// `(bench name, normalized points)`, sorted by bench name.
    pub benches: Vec<(String, Vec<TrajectoryPoint>)>,
}

/// The explicit `(key field, wall field, to-milliseconds factor)`
/// mapping for each known bench.  A bench with no entry here cannot be
/// recorded: [`normalize_points`] rejects it by name.
pub fn field_map(bench: &str) -> Option<(&'static str, &'static str, f64)> {
    match bench {
        "profile" => Some(("n", "solve_ms", 1.0)),
        "serve" => Some(("clients", "wall_p50_us", 1e-3)),
        "fault" => Some(("m", "wall_us_mean", 1e-3)),
        "churn" => Some(("n", "wall_ms_per_event", 1.0)),
        _ => None,
    }
}

/// Parses one `BENCH_*.json` artifact and normalizes its points,
/// returning `(bench name, points)`.
pub fn parse_bench_file(text: &str) -> Result<(String, Vec<TrajectoryPoint>), String> {
    let root = Value::parse(text).map_err(|e| format!("bad JSON: {e:?}"))?;
    let bench = root
        .get("bench")
        .and_then(Value::as_str)
        .ok_or("missing string field `bench`")?
        .to_string();
    let points = root
        .get("points")
        .and_then(Value::as_arr)
        .ok_or("missing array field `points`")?;
    let normalized = normalize_points(&bench, points)?;
    Ok((bench, normalized))
}

/// Reduces an artifact's `points` array to `(key, wall_ms)` pairs using
/// [`field_map`]; a bench with no entry there is an error.
pub fn normalize_points(bench: &str, points: &[Value]) -> Result<Vec<TrajectoryPoint>, String> {
    let (key_field, wall_field, factor) =
        field_map(bench).ok_or_else(|| format!("bench `{bench}` has no field_map entry"))?;
    points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let key = p
                .get(key_field)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("point {i}: missing numeric field `{key_field}`"))?;
            let wall = p
                .get(wall_field)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("point {i}: missing numeric field `{wall_field}`"))?;
            if !wall.is_finite() || wall < 0.0 {
                return Err(format!(
                    "point {i}: `{wall_field}` = {wall} is not a wall time"
                ));
            }
            Ok(TrajectoryPoint {
                key: format!("{key_field}={key}"),
                wall_ms: wall * factor,
            })
        })
        .collect()
}

/// Renders one entry as a single JSONL line (no trailing newline).
/// Benches are emitted in sorted order so identical runs render
/// byte-identically.
pub fn render_entry(entry: &TrajectoryEntry) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\":{SCHEMA_VERSION},\"rev\":\"{}\",\"recorded_s\":{},\"benches\":{{",
        json_escape(&entry.rev),
        entry.recorded_s
    ));
    for (i, (bench, points)) in entry.benches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":[", json_escape(bench)));
        for (j, p) in points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"key\":\"{}\",\"wall_ms\":{}}}",
                json_escape(&p.key),
                p.wall_ms
            ));
        }
        out.push(']');
    }
    out.push_str("}}");
    out
}

/// Parses one ledger line back into a [`TrajectoryEntry`].
pub fn parse_entry(line: &str) -> Result<TrajectoryEntry, String> {
    let root = Value::parse(line).map_err(|e| format!("bad JSON: {e:?}"))?;
    let schema = root
        .get("schema")
        .and_then(Value::as_u64)
        .ok_or("missing numeric field `schema`")?;
    if schema != SCHEMA_VERSION {
        return Err(format!("unsupported trajectory schema {schema}"));
    }
    let rev = root
        .get("rev")
        .and_then(Value::as_str)
        .ok_or("missing string field `rev`")?
        .to_string();
    if rev.is_empty() {
        return Err("empty `rev`".into());
    }
    let recorded_s = root
        .get("recorded_s")
        .and_then(Value::as_u64)
        .ok_or("missing numeric field `recorded_s`")?;
    let Some(Value::Obj(bench_obj)) = root.get("benches") else {
        return Err("missing object field `benches`".into());
    };
    let mut benches = Vec::new();
    for (bench, points_val) in bench_obj {
        let arr = points_val
            .as_arr()
            .ok_or_else(|| format!("bench `{bench}`: points must be an array"))?;
        let mut points = Vec::new();
        for (i, p) in arr.iter().enumerate() {
            let key = p
                .get("key")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("bench `{bench}` point {i}: missing `key`"))?
                .to_string();
            let wall_ms = p
                .get("wall_ms")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("bench `{bench}` point {i}: missing `wall_ms`"))?;
            if !wall_ms.is_finite() || wall_ms < 0.0 {
                return Err(format!(
                    "bench `{bench}` point {i}: wall_ms = {wall_ms} is not a wall time"
                ));
            }
            points.push(TrajectoryPoint { key, wall_ms });
        }
        benches.push((bench.clone(), points));
    }
    if benches.is_empty() {
        return Err("entry records no benches".into());
    }
    Ok(TrajectoryEntry {
        rev,
        recorded_s,
        benches,
    })
}

/// Validates every line of a ledger file, returning the parsed entries.
/// This is the `trajectory check` body, mirroring `trace check`.
pub fn validate_trajectory(text: &str) -> Result<Vec<TrajectoryEntry>, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        entries.push(parse_entry(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    if entries.is_empty() {
        return Err("empty trajectory".into());
    }
    Ok(entries)
}

/// Nearest-rank median of an unsorted slice; 0 for empty input.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// One bench's comparison between two consecutive ledger entries.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDelta {
    /// Bench name.
    pub bench: String,
    /// Median over matching keys of `current / previous` wall time.
    /// `1.0` = unchanged, `2.0` = twice as slow.
    pub median_ratio: f64,
    /// Keys present in both entries (the ratio's sample size).
    pub matched_keys: usize,
}

impl BenchDelta {
    /// Whether this delta crosses the regression threshold.
    pub fn regressed(&self, threshold: f64) -> bool {
        self.matched_keys > 0 && self.median_ratio > threshold
    }
}

/// Compares two entries bench-by-bench over the keys they share.
/// Benches or keys present in only one entry are skipped — ladders may
/// legitimately grow or shrink between runs; the gate only judges what
/// is comparable.
pub fn compare_entries(prev: &TrajectoryEntry, cur: &TrajectoryEntry) -> Vec<BenchDelta> {
    let mut deltas = Vec::new();
    for (bench, cur_points) in &cur.benches {
        let Some((_, prev_points)) = cur_benches_lookup(prev, bench) else {
            continue;
        };
        let mut ratios = Vec::new();
        for p in cur_points {
            let Some(q) = prev_points.iter().find(|q| q.key == p.key) else {
                continue;
            };
            // A zero previous wall time carries no signal for a ratio
            // (sub-resolution timing); skip rather than divide by zero.
            if q.wall_ms > 0.0 {
                ratios.push(p.wall_ms / q.wall_ms);
            }
        }
        deltas.push(BenchDelta {
            bench: bench.clone(),
            median_ratio: median(&ratios),
            matched_keys: ratios.len(),
        });
    }
    deltas
}

fn cur_benches_lookup<'a>(
    entry: &'a TrajectoryEntry,
    bench: &str,
) -> Option<&'a (String, Vec<TrajectoryPoint>)> {
    entry.benches.iter().find(|(name, _)| name == bench)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(rev: &str, walls: &[(&str, &[f64])]) -> TrajectoryEntry {
        TrajectoryEntry {
            rev: rev.to_string(),
            recorded_s: 1_754_650_000,
            benches: walls
                .iter()
                .map(|(bench, ws)| {
                    (
                        bench.to_string(),
                        ws.iter()
                            .enumerate()
                            .map(|(i, w)| TrajectoryPoint {
                                key: format!("n={i}"),
                                wall_ms: *w,
                            })
                            .collect(),
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn entries_round_trip_through_jsonl() {
        let e = entry(
            "529083b",
            &[("profile", &[16.9, 317.8]), ("serve", &[0.034])],
        );
        let line = render_entry(&e);
        assert!(!line.contains('\n'));
        assert_eq!(parse_entry(&line).unwrap(), e);
        let two = format!("{line}\n{line}\n");
        assert_eq!(validate_trajectory(&two).unwrap().len(), 2);
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        assert!(parse_entry("{}").is_err());
        assert!(parse_entry(r#"{"schema":99,"rev":"a","recorded_s":1,"benches":{}}"#).is_err());
        assert!(parse_entry(r#"{"schema":1,"rev":"a","recorded_s":1,"benches":{}}"#).is_err());
        assert!(parse_entry(
            r#"{"schema":1,"rev":"a","recorded_s":1,"benches":{"p":[{"key":"n=1"}]}}"#
        )
        .is_err());
        assert!(validate_trajectory("").is_err());
    }

    #[test]
    fn bench_artifacts_normalize_through_the_field_map() {
        let profile = r#"{"bench":"profile","schema":1,"points":[
            {"n":1000,"solve_ms":16.9,"edges":4830},
            {"n":5000,"solve_ms":317.8,"edges":24237}]}"#;
        let (name, points) = parse_bench_file(profile).unwrap();
        assert_eq!(name, "profile");
        assert_eq!(points[0].key, "n=1000");
        assert_eq!(points[0].wall_ms, 16.9);
        // Microsecond fields scale to milliseconds.
        let serve = r#"{"bench":"serve","schema":1,"points":[
            {"clients":4,"wall_p50_us":27,"wall_p99_us":2929}]}"#;
        let (_, points) = parse_bench_file(serve).unwrap();
        assert_eq!(points[0].key, "clients=4");
        assert!((points[0].wall_ms - 0.027).abs() < 1e-12);
        let churn = r#"{"bench":"churn","schema":1,"points":[
            {"n":10000,"giant":9992,"repaired":200,"recomputed":0,"wall_ms_per_event":2.61}]}"#;
        let (_, points) = parse_bench_file(churn).unwrap();
        assert_eq!(points[0].key, "n=10000");
        assert_eq!(points[0].wall_ms, 2.61);
        // A bench with no field map is an error that names it, even when
        // its points carry familiar fields.
        let custom = r#"{"bench":"custom","schema":1,"points":[
            {"n":10,"wall_ms":3.5}]}"#;
        let err = parse_bench_file(custom).unwrap_err();
        assert!(err.contains("`custom`"), "{err}");
        // A retired bench has no field map either, but the ledger lines
        // that carry its past rungs stay valid.
        assert_eq!(field_map("substrate"), None);
        let retired = r#"{"schema":1,"rev":"a","recorded_s":1,"benches":{"substrate":[{"key":"n=1","wall_ms":79.6}]}}"#;
        assert!(validate_trajectory(retired).is_ok());
        // A mapped bench missing its fields names the field.
        let bare = r#"{"bench":"profile","schema":1,"points":[{"n":10}]}"#;
        let err = parse_bench_file(bare).unwrap_err();
        assert!(err.contains("`solve_ms`"), "{err}");
    }

    #[test]
    fn compare_flags_a_2x_slowdown_and_passes_noise() {
        let prev = entry("aaa", &[("profile", &[10.0, 100.0, 1000.0])]);
        let slow = entry("bbb", &[("profile", &[20.0, 200.0, 2000.0])]);
        let noisy = entry("ccc", &[("profile", &[10.1, 99.0, 1020.0])]);
        let d = compare_entries(&prev, &slow);
        assert_eq!(d.len(), 1);
        assert!((d[0].median_ratio - 2.0).abs() < 1e-12);
        assert!(d[0].regressed(1.25));
        let d = compare_entries(&prev, &noisy);
        assert!(!d[0].regressed(1.25));
        // One noisy rung does not fail the gate: the median of
        // {1.0, 1.0, 3.0} is 1.0.
        let spike = entry("ddd", &[("profile", &[10.0, 100.0, 3000.0])]);
        let d = compare_entries(&prev, &spike);
        assert!(!d[0].regressed(1.25));
    }

    #[test]
    fn compare_skips_unmatched_benches_and_keys() {
        let prev = entry("aaa", &[("profile", &[10.0])]);
        let cur = entry("bbb", &[("profile", &[10.0, 50.0]), ("serve", &[1.0])]);
        let d = compare_entries(&prev, &cur);
        // `serve` has no previous entry; `profile` matches only key n=0.
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].bench, "profile");
        assert_eq!(d[0].matched_keys, 1);
        // A bench present only in the previous entry (retired since) is
        // skipped, not flagged.
        let retired = entry("aaa", &[("hotpath", &[10.0]), ("profile", &[10.0])]);
        let d = compare_entries(&retired, &entry("bbb", &[("profile", &[11.0])]));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].bench, "profile");
        assert!(!d[0].regressed(1.25));
        // Zero previous wall times are skipped, not divided by.
        let zero = entry("aaa", &[("profile", &[0.0])]);
        let d = compare_entries(&zero, &entry("bbb", &[("profile", &[5.0])]));
        assert_eq!(d[0].matched_keys, 0);
        assert!(!d[0].regressed(1.25));
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn hostile_revs_escape_cleanly() {
        let e = entry("rev\"\\\n\u{1}", &[("profile", &[1.0])]);
        let line = render_entry(&e);
        assert!(!line.contains('\n'));
        assert_eq!(parse_entry(&line).unwrap().rev, e.rev);
    }
}
