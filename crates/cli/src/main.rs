//! `mcds-cli` — command-line interface to the mcds toolkit.
//!
//! ```text
//! mcds-cli gen    --n 200 --side 8 [--seed S] [--kind uniform|clustered|grid|chain]
//!                 [--connected] -o inst.udg
//! mcds-cli stats  inst.udg
//! mcds-cli solve  inst.udg [--alg greedy|waf|chvatal|arb-mis|all] [--prune]
//!                 [--timings] [--dot out.dot]
//! mcds-cli sweep  [--alg NAME|all] [--n N] [--side S] [--trials T]
//!                 [--seed S] [--threads T] [--out sizes.csv]
//! mcds-cli exact  inst.udg [--budget STEPS]
//! mcds-cli verify inst.udg --nodes 1,5,9
//! mcds-cli dist   inst.udg
//! mcds-cli construct chain --n 8 -o chain.udg
//! mcds-cli churn  --n 100 --events 200 [--waypoint]
//! mcds-cli serve  inst.udg [--addr 127.0.0.1:0] [--m 1|2|3] [--threads T]
//! mcds-cli trace  summarize out.jsonl
//! ```
//!
//! Global flags (any subcommand): `--trace FILE.jsonl` records a
//! structured trace of the run (spans, counters, logs; see `mcds-obs`),
//! `--quiet` silences stderr diagnostics.
//!
//! Exit codes: 0 success, 1 usage error, 2 runtime failure (bad instance,
//! disconnected graph, exhausted budget, invalid CDS).

use std::process::ExitCode;

mod args;
mod commands;

fn main() -> ExitCode {
    // Writing to a closed pipe (`mcds-cli analyze f | head`) makes
    // println! panic because Rust ignores SIGPIPE; exit quietly like a
    // conventional Unix tool instead of dumping a backtrace.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        let is_broken_pipe = message.is_some_and(|m| m.contains("Broken pipe"));
        if is_broken_pipe {
            std::process::exit(0);
        }
        default_hook(info);
    }));

    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // Global flags, valid in any position with any subcommand; stripped
    // here so subcommand parsers never see them.
    let trace_path = match take_value_flag(&mut argv, "--trace") {
        Ok(path) => path,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(1);
        }
    };
    if take_switch(&mut argv, "--quiet") {
        mcds_obs::log::set_stderr_level(mcds_obs::log::Level::Silent);
    }
    if trace_path.is_some() {
        mcds_obs::enable();
    }

    let code = match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            mcds_obs::error!("{msg}");
            mcds_obs::log::plain(mcds_obs::log::Level::Error, USAGE);
            ExitCode::from(1)
        }
        Err(CliError::Runtime(msg)) => {
            mcds_obs::error!("{msg}");
            ExitCode::from(2)
        }
    };
    if let Some(path) = trace_path {
        match mcds_obs::trace::flush_to_path(&path) {
            Ok(()) => {
                mcds_obs::log::plain(mcds_obs::log::Level::Info, &format!("wrote trace {path}"))
            }
            Err(e) => {
                eprintln!("error: cannot write trace {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    code
}

/// Removes every occurrence of the switch `flag` from `argv`, reporting
/// whether any was present.
fn take_switch(argv: &mut Vec<String>, flag: &str) -> bool {
    let before = argv.len();
    argv.retain(|a| a != flag);
    argv.len() != before
}

/// Removes `flag <value>` from `argv`, returning the value (the last one
/// wins if repeated).
fn take_value_flag(argv: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let mut found = None;
    while let Some(i) = argv.iter().position(|a| a == flag) {
        if i + 1 >= argv.len() {
            return Err(format!("{flag} needs a value"));
        }
        found = Some(argv.remove(i + 1));
        argv.remove(i);
    }
    Ok(found)
}

const USAGE: &str = "\
usage:
  mcds-cli gen    --n N --side S [--seed SEED] [--kind uniform|clustered|grid|chain]
                  [--connected] -o FILE
  mcds-cli stats  FILE
  mcds-cli solve  FILE [--alg greedy|waf|chvatal|arb-mis|gk-grow|all] [--prune]
                  [--timings] [--m 1|2|3] [--biconnect]
                  [--weights unit|degree|random [--weight-seed S]] [--json]
                  [--dot FILE] [--svg FILE]
  mcds-cli sweep  [--alg NAME|all] [--n N] [--side S] [--trials T] [--seed SEED]
                  [--m 1|2|3] [--biconnect] [--threads T] [--out FILE]
                  [--weights unit|degree|random [--weight-seed S]]
  mcds-cli exact  FILE [--budget STEPS]
  mcds-cli verify FILE --nodes a,b,c
  mcds-cli dist   FILE
  mcds-cli construct two-star|three-star|chain [--n N] [--eps E] [-o FILE]
  mcds-cli analyze FILE
  mcds-cli route  FILE --from A --to B [--alg NAME]
  mcds-cli broadcast FILE [--source S] [--alg NAME]
  mcds-cli churn  [--n N] [--side S] [--seed SEED] [--events E] [--drift F]
                  [--p-join P] [--p-leave P] [--move-radius R] [--m 1|2|3]
                  [--fault-every K] [--fault-radius R] [--fault-kill B] [--verbose]
                  [--waypoint [--speed-min V] [--speed-max V] [--pause T] [--dt T]]
  mcds-cli serve  FILE [--addr HOST:PORT] [--m 1|2|3] [--threads T]
                  (daemon also answers raw HTTP GET /metrics on the same port)
  mcds-cli serve  --connect HOST:PORT        (JSONL client: stdin -> stdout)
  mcds-cli serve  --bench HOST:PORT [--clients C] [--requests R] [--churn-every K]
  mcds-cli serve  --top HOST:PORT [--interval-ms MS] [--count N]
  mcds-cli trace  summarize|check FILE.jsonl
  mcds-cli trace  flame FILE.jsonl [--folded OUT] [--svg OUT]

global flags (any subcommand):
  --trace FILE.jsonl   record spans/counters/logs and write the trace on exit
  --quiet              silence stderr diagnostics";

/// CLI error split by exit code.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line (exit 1).
    Usage(String),
    /// Valid command line that failed at runtime (exit 2).
    Runtime(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }
}

fn run(argv: &[String]) -> Result<(), CliError> {
    let Some(cmd) = argv.first() else {
        return Err(CliError::usage("missing subcommand"));
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "gen" => commands::gen(rest),
        "stats" => commands::stats(rest),
        "solve" => commands::solve(rest),
        "sweep" => commands::sweep(rest),
        "exact" => commands::exact(rest),
        "verify" => commands::verify(rest),
        "dist" => commands::dist(rest),
        "construct" => commands::construct(rest),
        "analyze" => commands::analyze(rest),
        "route" => commands::route(rest),
        "broadcast" => commands::broadcast(rest),
        "churn" => commands::churn(rest),
        "serve" => commands::serve(rest),
        "trace" => commands::trace(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!("unknown subcommand `{other}`"))),
    }
}
