//! `trajectory` — the perf-trajectory ledger CLI (DESIGN.md §9).
//!
//! ```text
//! trajectory record  [--dir results] [--out results/BENCH_trajectory.jsonl]
//!                    [--rev REV] [--scale-wall F]
//! trajectory compare [--file results/BENCH_trajectory.jsonl] [--threshold F]
//! trajectory check   [--file results/BENCH_trajectory.jsonl]
//! ```
//!
//! `record` normalizes every `BENCH_*.json` under `--dir` (written by
//! `exp_profile`, `exp_serve`, `exp_fault`, `exp_churn`) into one
//! schema-versioned JSONL line and appends it to the ledger.
//! `--scale-wall` multiplies every wall time before writing — a fixture
//! knob `scripts/verify.sh` uses to prove `compare` catches a synthetic
//! 2x slowdown.  `compare` judges the last entry against the one before
//! it and exits 1 when any bench's median wall-time ratio exceeds
//! `--threshold` (default 1.25).  `check` validates the whole file like
//! `mcds-cli trace check` validates traces.

use std::process::ExitCode;

use mcds_bench::trajectory::{
    compare_entries, parse_bench_file, render_entry, validate_trajectory, TrajectoryEntry,
};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: trajectory record [--dir D] [--out F] [--rev R] [--scale-wall F]\n\
                 \x20      trajectory compare [--file F] [--threshold F]\n\
                 \x20      trajectory check [--file F]"
            );
            ExitCode::from(1)
        }
    }
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let verb = argv.first().ok_or("missing verb (record|compare|check)")?;
    let rest = &argv[1..];
    match verb.as_str() {
        "record" => record(rest),
        "compare" => compare(rest),
        "check" => check(rest),
        other => Err(format!(
            "unknown verb `{other}` (want record|compare|check)"
        )),
    }
}

/// Returns the value following `--flag`, if present.
fn flag_value(argv: &[String], flag: &str) -> Result<Option<String>, String> {
    match argv.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => argv
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

/// Rejects flags none of the verbs define, so typos fail loudly.
fn reject_unknown(argv: &[String], known: &[&str]) -> Result<(), String> {
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        if !a.starts_with("--") {
            return Err(format!("unexpected positional argument `{a}`"));
        }
        if !known.contains(&a.as_str()) {
            return Err(format!("unknown flag `{a}`"));
        }
        i += 2; // every known flag takes a value
    }
    Ok(())
}

fn record(argv: &[String]) -> Result<ExitCode, String> {
    reject_unknown(argv, &["--dir", "--out", "--rev", "--scale-wall"])?;
    let dir = flag_value(argv, "--dir")?.unwrap_or_else(|| "results".into());
    let out = flag_value(argv, "--out")?.unwrap_or_else(|| format!("{dir}/BENCH_trajectory.jsonl"));
    let scale: f64 = match flag_value(argv, "--scale-wall")? {
        None => 1.0,
        Some(s) => s
            .parse()
            .map_err(|_| format!("--scale-wall: `{s}` is not a number"))?,
    };
    if !(scale.is_finite() && scale > 0.0) {
        return Err(format!(
            "--scale-wall must be a positive number, got {scale}"
        ));
    }
    let rev = match flag_value(argv, "--rev")? {
        Some(r) => r,
        None => git_short_rev(std::path::Path::new(".")).unwrap_or_else(|| "unknown".into()),
    };

    // Collect BENCH_*.json deterministically (sorted by file name).
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    let mut benches = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (bench, mut points) =
            parse_bench_file(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        for p in &mut points {
            p.wall_ms *= scale;
        }
        benches.push((bench, points));
    }
    if benches.is_empty() {
        return Err(format!("{dir}: no BENCH_*.json artifacts to record"));
    }
    benches.sort_by(|a, b| a.0.cmp(&b.0));

    let entry = TrajectoryEntry {
        rev,
        recorded_s: unix_seconds(),
        benches,
    };
    let line = render_entry(&entry);
    let mut text = std::fs::read_to_string(&out).unwrap_or_default();
    if !text.is_empty() && !text.ends_with('\n') {
        text.push('\n');
    }
    text.push_str(&line);
    text.push('\n');
    std::fs::write(&out, &text).map_err(|e| format!("{out}: {e}"))?;
    let entries = validate_trajectory(&text).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "recorded {} bench(es) at rev {} into {out} ({} entries)",
        entry.benches.len(),
        entry.rev,
        entries.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn compare(argv: &[String]) -> Result<ExitCode, String> {
    reject_unknown(argv, &["--file", "--threshold"])?;
    let file =
        flag_value(argv, "--file")?.unwrap_or_else(|| "results/BENCH_trajectory.jsonl".into());
    let threshold: f64 = match flag_value(argv, "--threshold")? {
        None => 1.25,
        Some(s) => s
            .parse()
            .map_err(|_| format!("--threshold: `{s}` is not a number"))?,
    };
    if !(threshold.is_finite() && threshold > 0.0) {
        return Err(format!(
            "--threshold must be a positive number, got {threshold}"
        ));
    }
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
    let entries = validate_trajectory(&text).map_err(|e| format!("{file}: {e}"))?;
    if entries.len() < 2 {
        println!(
            "{file}: only {} entry; nothing to compare yet",
            entries.len()
        );
        return Ok(ExitCode::SUCCESS);
    }
    let prev = &entries[entries.len() - 2];
    let cur = &entries[entries.len() - 1];
    let deltas = compare_entries(prev, cur);
    let mut regressed = false;
    println!(
        "comparing rev {} (prev) -> rev {} (last) at threshold {threshold:.2}x",
        prev.rev, cur.rev
    );
    for d in &deltas {
        let verdict = if d.regressed(threshold) {
            regressed = true;
            "REGRESSED"
        } else if d.matched_keys == 0 {
            "no overlap"
        } else {
            "ok"
        };
        println!(
            "  {:<12} median ratio {:>6.3}x over {} key(s)  {verdict}",
            d.bench, d.median_ratio, d.matched_keys
        );
    }
    if regressed {
        eprintln!("error: wall-time regression beyond {threshold:.2}x");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

fn check(argv: &[String]) -> Result<ExitCode, String> {
    reject_unknown(argv, &["--file"])?;
    let file =
        flag_value(argv, "--file")?.unwrap_or_else(|| "results/BENCH_trajectory.jsonl".into());
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
    let entries = validate_trajectory(&text).map_err(|e| format!("{file}: {e}"))?;
    let benches: usize = entries.iter().map(|e| e.benches.len()).sum();
    println!(
        "{file}: valid trajectory ({} entries, {benches} bench records)",
        entries.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// The short git revision of the tree at `dir`, with `-dirty` appended
/// when tracked files differ from `HEAD` (a rung recorded before its
/// commit must not carry the parent's revision), when available.
fn git_short_rev(dir: &std::path::Path) -> Option<String> {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(dir)
            .args(args)
            .output()
            .ok()
    };
    let out = git(&["rev-parse", "--short", "HEAD"])?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    if rev.is_empty() {
        return None;
    }
    let clean = git(&["diff", "--quiet", "HEAD", "--"])?.status;
    Some(match clean.code() {
        Some(0) => rev,
        _ => format!("{rev}-dirty"),
    })
}

fn unix_seconds() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::git_short_rev;
    use std::path::Path;
    use std::process::Command;

    fn git(dir: &Path, args: &[&str]) {
        let status = Command::new("git")
            .arg("-C")
            .arg(dir)
            .args([
                "-c",
                "user.name=ledger",
                "-c",
                "user.email=ledger@example.com",
            ])
            .args(["-c", "commit.gpgsign=false"])
            .args(args)
            .status()
            .expect("git runs");
        assert!(status.success(), "git {args:?}");
    }

    #[test]
    fn revs_of_trees_with_uncommitted_changes_are_marked_dirty() {
        let dir = std::env::temp_dir().join(format!("mcds_ledger_rev_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the test repository");
        assert_eq!(git_short_rev(&dir), None, "no repository yet");
        git(&dir, &["init", "-q"]);
        std::fs::write(dir.join("tracked.txt"), "one\n").expect("write");
        git(&dir, &["add", "tracked.txt"]);
        git(&dir, &["commit", "-q", "-m", "first"]);
        let clean = git_short_rev(&dir).expect("a committed tree has a rev");
        assert!(!clean.is_empty() && !clean.ends_with("-dirty"), "{clean}");
        // Untracked files leave the tree clean; an edit to a tracked one
        // does not.
        std::fs::write(dir.join("untracked.txt"), "x\n").expect("write");
        assert_eq!(git_short_rev(&dir).as_deref(), Some(clean.as_str()));
        std::fs::write(dir.join("tracked.txt"), "two\n").expect("write");
        assert_eq!(git_short_rev(&dir), Some(format!("{clean}-dirty")));
        git(&dir, &["commit", "-q", "-am", "second"]);
        let next = git_short_rev(&dir).expect("rev");
        assert!(next != clean && !next.ends_with("-dirty"), "{next}");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
