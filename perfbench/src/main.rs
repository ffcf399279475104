//! `perfbench WORKLOAD --seed N --seconds S --trace 0|1 --cli PATH --work DIR`
//!
//! Runs one workload of the benchmark and ends its output with one JSON
//! line: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end ones with `--trace 0`, the per-layer ones with `--trace 1`.
//! Lines before it start with `note` and carry sample counts and raw
//! figures for the log.  `perfbench/run.py` builds this binary and the
//! daemon, then calls it; see `perfbench/README.md` for the workloads.

use std::path::PathBuf;
use std::process::ExitCode;

mod input;
mod loadgen;
mod reference;
mod report;
mod serve;
mod solve;
mod stats;

const USAGE: &str = "usage: perfbench solve-prune-20k|solve-1m|churn-10k \
                     --seed N --seconds S --trace 0|1 [--cli MCDS_CLI] [--work DIR]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    cli: PathBuf,
    work: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (workload, rest) = argv.split_first().ok_or("missing workload")?;
    let mut args = Args {
        workload: workload.clone(),
        seed: 1,
        seconds: 10,
        trace: false,
        cli: PathBuf::from("mcds-cli"),
        work: PathBuf::from(".perfbench"),
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--cli" => args.cli = PathBuf::from(value),
            "--work" => args.work = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let solve = |n, degree, prune, setups| {
        let spec = solve::Spec {
            n,
            degree,
            prune,
            setups,
        };
        Ok(solve::run(spec, args.seed, args.seconds, args.trace))
    };
    let result = match args.workload.as_str() {
        // The E19 shape: prune is nearly the whole op.
        "solve-prune-20k" => solve(20_000, 10.0, true, 50),
        // The E23 substrate shape: the two phases at a million nodes.
        "solve-1m" => solve(1_000_000, 25.0, false, 3),
        "churn-10k" => {
            let env = serve::Env {
                cli: args.cli.clone(),
                work: args.work.clone(),
            };
            serve::run(&env, args.seed, args.seconds, args.trace)
        }
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    match result {
        Ok(r) => {
            println!("{}", r.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
