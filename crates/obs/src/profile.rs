//! Span-tree profile attribution: folding a JSONL trace into per-path
//! totals and *self* time (total minus direct children), per-label
//! aggregates, and the collapsed-stack export flamegraph tooling
//! consumes.
//!
//! Each [`Frame`] answers two questions.  `total_ns` is how much wall
//! time each span *path* accumulated (the table `mcds-cli trace
//! summarize` prints); `self_ns` is the profiling question behind
//! ROADMAP item 3 — "where was the time actually *spent*" — answered by
//! subtracting each span's direct children from its total, so a parent
//! that merely waits on instrumented children attributes ~nothing to
//! itself.  Summed self time over the whole forest equals the summed
//! root (depth-0) wall time whenever the trace is well formed (every
//! child nests inside a recorded parent), which is the identity
//! `mcds-cli trace flame` reports as its attribution percentage and
//! `scripts/verify.sh` gates at ≥ 99%.
//!
//! The collapsed-stack output is one `a;b;c <self_ns>` line per path —
//! the interchange format of Brendan Gregg's `flamegraph.pl` and the
//! `inferno` crate — rendered in-tree by `mcds-viz`'s flame renderer.

use std::collections::BTreeMap;

use crate::json::Value;

/// One span path of the trace, with its fold results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The nesting path (`a/b/c`).
    pub path: String,
    /// Nesting depth (`0` = root).
    pub depth: usize,
    /// Number of spans recorded at this path.
    pub count: u64,
    /// Summed wall time of the spans themselves, nanoseconds.
    pub total_ns: u64,
    /// Wall time not covered by direct children, nanoseconds
    /// (`total − Σ children`, saturating at 0).
    pub self_ns: u64,
}

/// Per-label (final path segment) aggregate across every call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelStat {
    /// The span name (final path segment).
    pub label: String,
    /// Calls summed over every path ending in this label.
    pub count: u64,
    /// Summed total wall time, nanoseconds.  Recursive nesting of the
    /// same label double-counts here (each level's total includes its
    /// children); `self_ns` never does.
    pub total_ns: u64,
    /// Summed self wall time, nanoseconds.
    pub self_ns: u64,
}

/// A folded span forest: every path with total and self time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// All frames, sorted by path (children follow their parents).
    pub frames: Vec<Frame>,
    /// Summed wall time of root (depth-0) spans — the attribution
    /// denominator.
    pub root_total_ns: u64,
}

impl Profile {
    /// Folds the span records of a JSONL trace.
    ///
    /// Non-span records are ignored; empty lines are skipped.
    ///
    /// # Errors
    ///
    /// Returns `line N: problem` for unparseable lines, span records
    /// missing their schema fields or holding a `depth`/`dur_ns` that is
    /// not an integer in `0..=2^53`, and the span whose duration takes
    /// the running sum past `u64::MAX` (run the trace through
    /// [`crate::schema::validate_trace`] first for a precise diagnosis).
    pub fn from_trace(text: &str) -> Result<Profile, String> {
        let mut agg: BTreeMap<String, (usize, u64, u64)> = BTreeMap::new();
        // Every sum of durations below — path totals, child buckets, root
        // and attributed time, label totals — is bounded by this one.
        let mut span_ns = 0u64;
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let obj = Value::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            if obj.get("type").and_then(Value::as_str) != Some("span") {
                continue;
            }
            let field = |key: &str| {
                obj.get(key).and_then(Value::as_u64).ok_or_else(|| {
                    format!(
                        "line {}: span `{key}` missing or not an integer in 0..=2^53",
                        i + 1
                    )
                })
            };
            let path = obj
                .get("path")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {}: span missing string `path`", i + 1))?
                .to_string();
            let depth = field("depth")? as usize;
            let dur = field("dur_ns")?;
            span_ns = span_ns
                .checked_add(dur)
                .ok_or_else(|| format!("line {}: span durations overflow a u64", i + 1))?;
            let entry = agg.entry(path).or_insert((depth, 0, 0));
            entry.1 += 1;
            entry.2 += dur;
        }

        // Sum each recorded path's total into its parent's child bucket;
        // self time is then one subtraction per frame.
        let mut child_total: BTreeMap<&str, u64> = BTreeMap::new();
        for (path, &(depth, _, total)) in &agg {
            if depth > 0 {
                if let Some(cut) = path.rfind('/') {
                    *child_total.entry(&path[..cut]).or_insert(0) += total;
                }
            }
        }
        let mut root_total_ns = 0u64;
        let mut frames = Vec::with_capacity(agg.len());
        for (path, &(depth, count, total_ns)) in &agg {
            if depth == 0 {
                root_total_ns += total_ns;
            }
            let children = child_total.get(path.as_str()).copied().unwrap_or(0);
            frames.push(Frame {
                path: path.clone(),
                depth,
                count,
                total_ns,
                self_ns: total_ns.saturating_sub(children),
            });
        }
        Ok(Profile {
            frames,
            root_total_ns,
        })
    }

    /// Total attributed (self) time, nanoseconds.  Equals
    /// [`root_total_ns`](Profile::root_total_ns) exactly when every
    /// child span nests inside a recorded parent and no parent's
    /// children overlap past its own duration.
    pub fn attributed_ns(&self) -> u64 {
        self.frames.iter().map(|f| f.self_ns).sum()
    }

    /// Per-label aggregates, sorted by self time descending (label
    /// ascending on ties).
    pub fn labels(&self) -> Vec<LabelStat> {
        let mut by_label: BTreeMap<&str, LabelStat> = BTreeMap::new();
        for f in &self.frames {
            let label = f.path.rsplit('/').next().unwrap_or(&f.path);
            let stat = by_label.entry(label).or_insert_with(|| LabelStat {
                label: label.to_string(),
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            stat.count += f.count;
            stat.total_ns += f.total_ns;
            stat.self_ns += f.self_ns;
        }
        let mut out: Vec<LabelStat> = by_label.into_values().collect();
        out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.label.cmp(&b.label)));
        out
    }

    /// The collapsed-stack export: one `a;b;c <self_ns>` line per frame,
    /// sorted by path.  Spaces inside span names (none of the in-tree
    /// instrumentation has any) are mapped to `_` because the format
    /// reserves the last space as the value separator.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for f in &self.frames {
            let stack = f.path.replace('/', ";").replace(' ', "_");
            out.push_str(&format!("{stack} {}\n", f.self_ns));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const META: &str = "{\"type\":\"meta\",\"version\":1,\"clock\":\"monotonic-ns\"}\n";

    fn span(seq: u64, depth: usize, name: &str, path: &str, dur: impl std::fmt::Display) -> String {
        format!(
            "{{\"type\":\"span\",\"seq\":{seq},\"thread\":0,\"depth\":{depth},\
             \"name\":\"{name}\",\"path\":\"{path}\",\"dur_ns\":{dur}}}\n"
        )
    }

    fn sample_trace() -> String {
        // solve(100) = phase1(30) + phase2(50) + 20 self;
        // phase2(50) = scan(35) + 15 self; scan called twice.
        let mut t = String::from(META);
        t.push_str(&span(0, 2, "scan", "solve/phase2/scan", 20));
        t.push_str(&span(1, 2, "scan", "solve/phase2/scan", 15));
        t.push_str(&span(2, 1, "phase2", "solve/phase2", 50));
        t.push_str(&span(3, 1, "phase1", "solve/phase1", 30));
        t.push_str(&span(4, 0, "solve", "solve", 100));
        t.push_str("{\"type\":\"counter\",\"name\":\"c\",\"value\":1}\n");
        t
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let p = Profile::from_trace(&sample_trace()).unwrap();
        assert_eq!(p.root_total_ns, 100);
        let by_path: BTreeMap<&str, &Frame> =
            p.frames.iter().map(|f| (f.path.as_str(), f)).collect();
        assert_eq!(by_path["solve"].self_ns, 20);
        assert_eq!(by_path["solve/phase1"].self_ns, 30);
        assert_eq!(by_path["solve/phase2"].self_ns, 15);
        let scan = by_path["solve/phase2/scan"];
        assert_eq!((scan.count, scan.total_ns, scan.self_ns), (2, 35, 35));
        // The attribution identity: Σ self == root wall.
        assert_eq!(p.attributed_ns(), p.root_total_ns);
    }

    #[test]
    fn labels_aggregate_across_paths_and_sort_by_self() {
        let mut t = sample_trace();
        // A second call site of `scan` under phase1.
        t.push_str(&span(5, 1, "scan", "solve/scan", 7));
        let p = Profile::from_trace(&t).unwrap();
        let labels = p.labels();
        let scan = labels.iter().find(|l| l.label == "scan").unwrap();
        assert_eq!(scan.count, 3);
        assert_eq!(scan.self_ns, 42);
        // Sorted by self descending.
        let selfs: Vec<u64> = labels.iter().map(|l| l.self_ns).collect();
        let mut sorted = selfs.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(selfs, sorted);
    }

    #[test]
    fn collapsed_uses_semicolons_and_self_values() {
        let p = Profile::from_trace(&sample_trace()).unwrap();
        let folded = p.collapsed();
        assert!(folded.contains("solve;phase2;scan 35\n"), "{folded}");
        assert!(folded.contains("solve 20\n"), "{folded}");
        // Value sum is the attributed time.
        let sum: u64 = folded
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(sum, p.attributed_ns());
    }

    #[test]
    fn children_past_parent_duration_clamp_to_zero_self() {
        let mut t = String::from(META);
        t.push_str(&span(0, 1, "child", "root/child", 80));
        t.push_str(&span(1, 0, "root", "root", 50));
        let p = Profile::from_trace(&t).unwrap();
        let root = p.frames.iter().find(|f| f.path == "root").unwrap();
        assert_eq!(root.self_ns, 0);
    }

    #[test]
    fn bad_lines_error_with_position() {
        let err = Profile::from_trace("{\"type\":\"span\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        assert!(Profile::from_trace("not json\n").is_err());
        for bad in ["-5", "1.5", "1e19"] {
            let t = format!("{META}{}", span(0, 0, "s", "s", bad));
            let err = Profile::from_trace(&t).unwrap_err();
            assert!(err.starts_with("line 2:"), "{bad}: {err}");
        }
        // 2^53 is the largest duration the schema admits; 2048 of them
        // already sum past u64::MAX, so the 2048th span (line 2049)
        // is the one reported.
        let mut t = String::from(META);
        for seq in 0..2049 {
            t.push_str(&span(seq, 0, "s", "s", 1u64 << 53));
        }
        let err = Profile::from_trace(&t).unwrap_err();
        assert!(err.starts_with("line 2049:"), "{err}");
        let empty = Profile::from_trace(META).unwrap();
        assert!(empty.frames.is_empty());
        assert_eq!(empty.attributed_ns(), 0);
    }
}
