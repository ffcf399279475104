//! Shared harness utilities for the experiment binaries (`exp_*`).
//!
//! Every experiment binary in `src/bin/` regenerates one artifact of the
//! paper (see DESIGN.md §3 / EXPERIMENTS.md): it prints an aligned table
//! to stdout and, when `--out <dir>` is given, writes the same rows as
//! CSV.  The utilities here keep those binaries small and uniform:
//!
//! * [`ExpConfig`] — the common CLI contract (`--quick`, `--seed`,
//!   `--out`),
//! * [`Table`] — aligned fixed-width table printing,
//! * [`CsvWriter`] — dependency-free CSV emission,
//! * [`stats`] — mean / max / std summaries,
//! * [`trajectory`] — the perf-trajectory ledger (`BENCH_trajectory.jsonl`)
//!   behind the `trajectory record|compare|check` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sweeps;
pub mod trajectory;

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Common experiment configuration, parsed from `std::env::args`.
///
/// Flags:
/// * `--quick` — shrink the sweep for smoke tests (CI / integration
///   tests),
/// * `--seed <u64>` — master RNG seed (default 20080617, the ICDCS '08
///   date),
/// * `--out <dir>` — write CSV artifacts into `<dir>`,
/// * `--threads <N>` — worker-pool width for instance generation and
///   per-trial fan-out (default: available parallelism; at most
///   [`mcds_pool::MAX_THREADS`]).  Results are
///   bit-identical at any width (see `mcds-pool`'s determinism
///   contract); only wall-clock time changes.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Reduced sweep for smoke testing.
    pub quick: bool,
    /// Master seed for all randomness in the experiment.
    pub seed: u64,
    /// Where to write CSV artifacts, if anywhere.
    pub out_dir: Option<PathBuf>,
    /// Worker-pool width used by the sweep fan-out.
    pub threads: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            quick: false,
            seed: 20_080_617,
            out_dir: None,
            threads: mcds_pool::default_parallelism(),
        }
    }
}

impl ExpConfig {
    /// Parses the process arguments and configures the process-wide
    /// worker pool ([`mcds_pool::global`]) to the requested width.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown flags or malformed values —
    /// appropriate for experiment binaries.
    pub fn from_args() -> Self {
        let cfg = ExpConfig::parse(std::env::args().skip(1));
        mcds_pool::global::configure(cfg.threads);
        cfg
    }

    /// [`ExpConfig::from_args`] over an explicit argument list, leaving
    /// the pool alone.
    fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let usage = "usage: [--quick] [--seed <u64>] [--out <dir>] [--threads <n>]";
        let mut cfg = ExpConfig::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cfg.quick = true,
                "--seed" => {
                    let v = args.next().expect("--seed needs a value");
                    cfg.seed = v.parse().expect("--seed must be a u64");
                }
                "--out" => {
                    let v = args.next().expect("--out needs a directory");
                    cfg.out_dir = Some(PathBuf::from(v));
                }
                "--threads" => {
                    let v = args.next().expect("--threads needs a value");
                    cfg.threads = v
                        .parse()
                        .map_err(|_| format!("must be a count (got {v})"))
                        .and_then(mcds_pool::check_threads)
                        .unwrap_or_else(|rule| panic!("--threads {rule}; {usage}"));
                }
                other => panic!("unknown argument `{other}`; {usage}"),
            }
        }
        cfg
    }

    /// Opens a CSV writer for `name.csv` in the output directory, or
    /// `None` when no `--out` was given.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created or the file cannot be
    /// opened.
    pub fn csv(&self, name: &str) -> Option<CsvWriter> {
        self.out_dir.as_ref().map(|dir| {
            fs::create_dir_all(dir).expect("create output directory");
            CsvWriter::create(dir.join(format!("{name}.csv")))
        })
    }
}

/// Minimal CSV writer (no quoting needed: all our fields are numbers and
/// bare identifiers).
#[derive(Debug)]
pub struct CsvWriter {
    file: fs::File,
}

impl CsvWriter {
    /// Creates/truncates the file.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be created.
    pub fn create(path: PathBuf) -> Self {
        CsvWriter {
            file: fs::File::create(&path)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display())),
        }
    }

    /// Writes one row.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors (experiment artifacts must not be silently
    /// truncated).
    pub fn row<S: AsRef<str>>(&mut self, fields: &[S]) {
        let line = fields
            .iter()
            .map(|f| f.as_ref())
            .collect::<Vec<_>>()
            .join(",");
        writeln!(self.file, "{line}").expect("CSV write failed");
    }
}

/// Aligned console table.
///
/// ```
/// use mcds_bench::Table;
/// let mut t = Table::new(&["n", "mean", "max"]);
/// t.row(&["100".into(), "1.52".into(), "2.00".into()]);
/// let rendered = t.render();
/// assert!(rendered.contains("n"));
/// assert!(rendered.contains("1.52"));
/// ```
#[derive(Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, fields: &[String]) {
        assert_eq!(fields.len(), self.header.len(), "row arity mismatch");
        self.rows.push(fields.to_vec());
    }

    /// Renders with right-aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |fields: &[String], widths: &[usize]| -> String {
            fields
                .iter()
                .zip(widths)
                .map(|(f, w)| format!("{f:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Summary statistics over `f64` samples.
pub mod stats {
    /// Arithmetic mean; 0 for an empty slice.
    pub fn mean(xs: &[f64]) -> f64 {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }

    /// Maximum; 0 for an empty slice.
    pub fn max(xs: &[f64]) -> f64 {
        xs.iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0)
    }

    /// Minimum; 0 for an empty slice.
    pub fn min(xs: &[f64]) -> f64 {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }
}

/// Formats a float with 3 decimals (experiment-table convention).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&["123".into(), "4".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn stats_basics() {
        assert_eq!(stats::mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(stats::max(&[1.0, 5.0, 3.0]), 5.0);
        assert_eq!(stats::min(&[1.0, 5.0, 3.0]), 1.0);
        assert_eq!(stats::mean(&[]), 0.0);
    }

    #[test]
    fn csv_writes_rows() {
        let dir = std::env::temp_dir().join("mcds_bench_csv_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        {
            let mut w = CsvWriter::create(path.clone());
            w.row(&["a", "b"]);
            w.row(&["1", "2"]);
        }
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        fs::remove_file(path).ok();
    }

    #[test]
    fn thread_counts_parse_up_to_the_bound() {
        let args = |t: &str| ["--threads", t].map(String::from);
        assert_eq!(ExpConfig::parse(args("1024")).threads, 1024);
        for bad in ["0", "1025"] {
            let err = std::panic::catch_unwind(|| ExpConfig::parse(args(bad)))
                .expect_err("out-of-range --threads panics");
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(
                msg.starts_with("--threads must be between 1 and 1024"),
                "{msg}"
            );
        }
    }

    #[test]
    fn float_formats() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f2(1.0), "1.00");
    }
}
