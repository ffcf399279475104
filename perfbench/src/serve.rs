//! The churn workload: 10,000 resident nodes under a seeded stream of
//! bounded-step moves, one tick at a time.  The gated run applies a fixed
//! number of ticks in process through `Maintainer::apply`, closed loop.
//! The traced run serves the same stream through the `mcds-cli serve`
//! daemon, as users run it, at a fixed tick rate while a second connection
//! reads `stats`, both open loop.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use mcds_geom::Point;
use mcds_graph::traversal;
use mcds_maintain::{MaintainConfig, Maintainer, TopologyEvent};
use mcds_obs::bucket_quantile;
use mcds_obs::profile::Profile;
use mcds_obs::registry::bucket_index;
use mcds_udg::Udg;

use crate::input::{self, Rng};
use crate::loadgen::{self, ms, Tally, WallClock};
use crate::reference::Sweep;
use crate::report::{self, EndToEnd, Layers, RunResult};
use crate::stats::{median, median_or_zero, percentile};

/// Resident population; churn moves nodes but never adds or removes one.
const NODES: usize = 10_000;
/// Expected average degree of the deployment.
const DEGREE: f64 = 10.0;
/// `stats` queries per second on the read connection.  A `stats` query
/// rebuilds the UDG under the daemon's lock (~10 ms at n = 10,000), so
/// reads alone keep the lock ~20% busy.
const READ_RATE: f64 = 18.0;
/// Served churn ticks per second (~30 ms of `Maintainer::apply` each, so
/// the served run holds the lock ~13% of the time for ticks).  Not a
/// divisor of the read rate, so ticks land at every phase of the read
/// schedule.
const TICK_RATE: f64 = 4.1;
/// In-process ticks per second of `--seconds`: a fixed count, so the final
/// backbone is exact for a seed, that keeps the closed loop (~30 ms a
/// tick) busy for most of the run.
const TICKS_PER_SECOND: u64 = 25;
/// Node moves per tick.
const MOVES_PER_TICK: usize = 1;
/// Longest single move, in units of the radius.
const MAX_STEP: f64 = 0.5;
/// Reference sweeps timed before each in-process tick (~2 ms; the ball
/// is the whole giant component here).
const SWEEPS_PER_TICK: usize = 4;
/// In-process set-ups per run; `setup_s` is their median.
const SETUPS: usize = 40;
/// Worker threads of the daemon (`nproc` of the reference machine).
const THREADS: &str = "2";
/// Input stream ids of the deployment and the churn.
const STREAM_POINTS: u64 = 2;
const STREAM_CHURN: u64 = 3;

const STATS: &str = r#"{"op":"query","what":"stats"}"#;

/// Where the program and the run's files live.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `mcds-cli` executable.
    pub cli: PathBuf,
    /// A writable directory inside the checkout.
    pub work: PathBuf,
}

/// A running daemon; killed and reaped on drop if still alive.
struct Daemon {
    child: Child,
    addr: String,
    /// Held open: the daemon prints again on exit, and a closed pipe
    /// would end it before it writes its trace.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(env: &Env, instance: &Path, trace: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(&env.cli);
        if let Some(t) = trace {
            cmd.arg("--trace").arg(t);
        }
        cmd.arg("serve")
            .arg(instance)
            .args(["--threads", THREADS])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", env.cli.display()))?;
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let read = stdout.read_line(&mut line);
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            _stdout: stdout,
        };
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr.to_string();
                Ok(daemon)
            }
            _ => Err(format!("daemon did not report its address: {line:?}")),
        }
    }

    fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }

    /// Sends `shutdown` and waits for the process to exit.
    fn shut_down(mut self) -> Result<(), String> {
        let ack = self.connect()?.request(r#"{"op":"shutdown"}"#)?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && ok(&ack) => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}: {ack}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not exit after shutdown".into()),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One JSONL connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(response.trim_end().to_string()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// The raw text of field `key` in a flat one-line JSON response.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

fn num(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

fn ok(line: &str) -> bool {
    field(line, "ok") == Some("true")
}

/// A `stats` answer is right when it is ok and reports the whole
/// population alive.
fn stats_ok(line: &str) -> bool {
    ok(line) && num(line, "population") == Some(NODES as u64)
}

/// The moves one tick admits.
type Tick = Vec<(usize, Point)>;

/// The seeded churn: `ticks` ticks of bounded-step moves, and the resident
/// positions after all of them.
fn churn(seed: u64, ticks: usize, mut points: Vec<Point>, side: f64) -> (Vec<Tick>, Vec<Point>) {
    let mut rng = Rng::new(seed, STREAM_CHURN);
    let ticks = (0..ticks)
        .map(|_| {
            let mut tick = Tick::with_capacity(MOVES_PER_TICK);
            while tick.len() < MOVES_PER_TICK {
                let v = rng.below(NODES);
                if tick.iter().all(|&(u, _)| u != v) {
                    let to = input::bounded_step(&mut rng, points[v], MAX_STEP, side);
                    points[v] = to;
                    tick.push((v, to));
                }
            }
            tick
        })
        .collect();
    (ticks, points)
}

/// The `churn` request that admits `tick` as one tick.
fn render(tick: &Tick) -> String {
    let events: Vec<String> = tick
        .iter()
        .map(|(v, to)| {
            format!(
                r#"{{"kind":"move","node":{v},"x":{:?},"y":{:?}}}"#,
                to.x, to.y
            )
        })
        .collect();
    format!(
        r#"{{"op":"churn","events":[{}],"admit":true}}"#,
        events.join(",")
    )
}

/// When a schedule of length `span` stops: a backlog may drain for half
/// the span again, and whatever is still unsent then fails.
fn deadline(span: Duration) -> Duration {
    span + span / 2 + Duration::from_secs(2)
}

/// One load phase: both connections, open loop, for `seconds`.
struct Load {
    reads: Tally,
    ticks: Tally,
    /// Scheduled length of the phase.
    span: Duration,
}

fn load(daemon: &Daemon, ticks: &[String], seconds: f64) -> Result<Load, String> {
    let span = Duration::from_secs_f64(seconds);
    let read_due = loadgen::fixed_rate(
        (READ_RATE * seconds).round() as usize,
        Duration::from_secs_f64(1.0 / READ_RATE),
        Duration::ZERO,
    );
    // Ticks start half a read period in, so the two schedules do not
    // land on the daemon at the same instant by construction.
    let tick_due = loadgen::fixed_rate(
        ticks.len(),
        Duration::from_secs_f64(1.0 / TICK_RATE),
        Duration::from_secs_f64(0.5 / READ_RATE),
    );
    let deadline = deadline(span);
    let mut read_conn = daemon.connect()?;
    let mut tick_conn = daemon.connect()?;
    let clock = WallClock::start();
    let (reads, tick_out) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            loadgen::run(&clock, &read_due, deadline, |_| {
                read_conn.request(STATS).is_ok_and(|l| stats_ok(&l))
            })
        });
        let ticker = s.spawn(|| {
            loadgen::run(&clock, &tick_due, deadline, |i| {
                tick_conn.request(&ticks[i]).is_ok_and(|l| {
                    ok(&l)
                        && num(&l, "admitted") == Some(MOVES_PER_TICK as u64)
                        && num(&l, "rejected") == Some(0)
                        && num(&l, "population") == Some(NODES as u64)
                })
            })
        });
        (
            reader.join().expect("read connection thread"),
            ticker.join().expect("tick connection thread"),
        )
    });
    let mut load = Load {
        reads: Tally::default(),
        ticks: Tally::default(),
        span,
    };
    load.reads.add(&reads);
    load.ticks.add(&tick_out);
    Ok(load)
}

/// Counters and histograms of one `GET /metrics` scrape.
#[derive(Debug, Default)]
struct Scrape {
    /// `name value` for every sample line (`_bucket` lines keep their
    /// `{le="…"}` suffix in the name).
    samples: Vec<(String, f64)>,
}

impl Scrape {
    fn take(addr: &str) -> Result<Scrape, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .map_err(|e| e.to_string())?;
        let mut text = String::new();
        stream
            .read_to_string(&mut text)
            .map_err(|e| e.to_string())?;
        let (head, body) = text
            .split_once("\r\n\r\n")
            .ok_or("metrics response has no body")?;
        if !head.starts_with("HTTP/1.1 200") {
            return Err(format!("metrics scrape failed: {head}"));
        }
        let samples = body
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect();
        Ok(Scrape { samples })
    }

    fn get(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Cumulative `(upper bound, count)` buckets of histogram `base`,
    /// finite bounds only.
    fn buckets(&self, base: &str) -> Vec<(u64, u64)> {
        let prefix = format!("{base}_bucket{{le=\"");
        self.samples
            .iter()
            .filter_map(|(n, v)| {
                let le = n.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                Some((le.parse().ok()?, *v as u64))
            })
            .collect()
    }
}

/// Counter `name` (dotted, as the program registers it) grown between two
/// scrapes.
fn grown(before: &Scrape, after: &Scrape, name: &str) -> u64 {
    let key = format!("mcds_{}_total", name.replace('.', "_"));
    (after.get(&key) - before.get(&key)).max(0.0) as u64
}

/// Per-bucket `(log2 bucket index, count)` pairs of the observations
/// histogram `base` gained between two scrapes, finite buckets only, in
/// the form `mcds_obs::bucket_quantile` takes.
fn bucket_delta(before: &Scrape, after: &Scrape, base: &str) -> Vec<(usize, u64)> {
    let counts = |s: &Scrape| -> Vec<(usize, u64)> {
        let mut below = 0;
        s.buckets(base)
            .into_iter()
            .map(|(le, cum)| {
                let c = cum.saturating_sub(below);
                below = cum;
                (bucket_index(le), c)
            })
            .collect()
    };
    let old = counts(before);
    counts(after)
        .into_iter()
        .map(|(b, c)| {
            let was = old.iter().find(|&&(o, _)| o == b).map_or(0, |&(_, c)| c);
            (b, c.saturating_sub(was))
        })
        .collect()
}

/// Per-call figures of the maintainer's spans, from the daemon's trace.
#[derive(Debug, Default)]
struct Fold {
    applies: u64,
    apply_ms: f64,
    baseline_ms: f64,
    self_ms: f64,
    phase1_ms: f64,
    phase2_ms: f64,
}

fn fold(trace: &str) -> Result<Fold, String> {
    let profile = Profile::from_trace(trace)?;
    let frame = |path: &str| profile.frames.iter().find(|f| f.path == path);
    let Some(apply) = frame("maintain.apply") else {
        return Ok(Fold::default());
    };
    let per = |ns: u64, calls: u64| ns as f64 / 1e6 / calls.max(1) as f64;
    let solves = frame("maintain.apply/solve");
    let p1 = frame("maintain.apply/solve/solve.phase1");
    let p2 = frame("maintain.apply/solve/solve.phase2");
    Ok(Fold {
        applies: apply.count,
        apply_ms: per(apply.total_ns, apply.count),
        baseline_ms: per(solves.map_or(0, |f| f.total_ns), apply.count),
        self_ms: per(apply.self_ns, apply.count),
        phase1_ms: p1.map_or(0.0, |f| per(f.total_ns, f.count)),
        phase2_ms: p2.map_or(0.0, |f| per(f.total_ns, f.count)),
    })
}

/// Runs the churn workload for `seconds` and reports.
pub fn run(env: &Env, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let side = input::side_for_degree(NODES, DEGREE);
    let points = input::uniform_points(&mut Rng::new(seed, STREAM_POINTS), NODES, side);
    let count = if trace {
        (TICK_RATE * seconds as f64).round() as usize
    } else {
        (TICKS_PER_SECOND * seconds) as usize
    };
    let (ticks, final_points) = churn(seed, count, points.clone(), side);
    let seconds = seconds as f64;
    let mut r = RunResult::default();
    if trace {
        std::fs::create_dir_all(&env.work).map_err(|e| e.to_string())?;
        let instance = env.work.join(format!("churn-{seed}.udg"));
        mcds_udg::io::save_instance(&Udg::with_radius(points, 1.0), &instance)
            .map_err(|e| e.to_string())?;
        let lines: Vec<String> = ticks.iter().map(render).collect();
        let result = traced(env, &instance, &lines, seconds, &final_points, &mut r);
        let _ = std::fs::remove_file(&instance);
        result?;
    } else {
        in_process(points, &ticks, &mut r);
    }
    r.correct = r.failed == 0;
    Ok(r)
}

/// Final `stats` after the load: checks the population and returns the
/// answer.
fn final_stats(daemon: &Daemon, r: &mut RunResult) -> Result<String, String> {
    let answer = daemon.connect()?.request(STATS)?;
    r.attempted += 1;
    r.failed += usize::from(!stats_ok(&answer));
    println!("note final {answer}");
    Ok(answer)
}

fn count_load(load: &Load, r: &mut RunResult) {
    for t in [&load.reads, &load.ticks] {
        r.attempted += t.attempted;
        r.failed += t.failed;
    }
    report::note("read_ms", median(&load.reads.latency_ms));
    report::note("read_ms", percentile(&load.reads.latency_ms, 90.0));
    report::note("tick_ms", median(&load.ticks.latency_ms));
    report::note("tick_ms", percentile(&load.ticks.latency_ms, 90.0));
    report::note("gen_late_ms", percentile(&late_ms(load), 90.0));
}

fn late_ms(load: &Load) -> Vec<f64> {
    let mut late = load.reads.late_ms.clone();
    late.extend(&load.ticks.late_ms);
    late
}

/// The gated run: the engine the daemon holds (same configuration), fed
/// the churn stream in process, one tick after another, each timed.
fn in_process(points: Vec<Point>, ticks: &[Tick], r: &mut RunResult) {
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..SETUPS {
        drop(engine.take());
        let pts = points.clone();
        let t = Instant::now();
        engine = Some(Maintainer::with_population(MaintainConfig::default(), pts));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut engine = engine.expect("SETUPS is positive");
    println!("note setup_s samples {setups:?}");
    let udg = Udg::with_radius(points, 1.0);
    let giant = traversal::largest_component(udg.graph());
    let mut sweep = Sweep::new(udg.restricted_to(&giant).graph());
    let mut ref_ms = Vec::with_capacity(ticks.len());
    let mut tick_ms = Vec::with_capacity(ticks.len());
    // Each tick over the reference sweeps timed just before it.
    let mut ratios = Vec::with_capacity(ticks.len());
    for tick in ticks {
        let sweep_ms = sweep.time(SWEEPS_PER_TICK);
        ref_ms.push(sweep_ms);
        let t = Instant::now();
        let ok = tick.iter().fold(true, |ok, &(node, to)| {
            let report = engine.apply(TopologyEvent::Move { node, to });
            ok & (report.valid && report.alive == NODES)
        });
        let elapsed = ms(t.elapsed());
        r.attempted += 1;
        if ok {
            tick_ms.push(elapsed);
            ratios.push(elapsed / sweep_ms);
        } else {
            r.failed += 1;
        }
    }
    let op = median(&tick_ms);
    report::note("tick_ms", op);
    report::note("tick_ms", percentile(&tick_ms, 90.0));
    report::note("ref_ms", median(&ref_ms));
    println!("note final backbone {}", engine.backbone().len());
    EndToEnd {
        setup_s: median_or_zero(&setups),
        op_norm: median(&ratios).map_or(f64::INFINITY, |p| p.value),
        cds_size: engine.backbone().len(),
        peak_rss_mb: report::peak_rss_mb(),
    }
    .put(r);
}

fn traced(
    env: &Env,
    instance: &Path,
    ticks: &[String],
    seconds: f64,
    final_points: &[Point],
    r: &mut RunResult,
) -> Result<(), String> {
    // A quarter-length untraced phase on a fresh daemon: its ticks are
    // compared with the same ticks of the traced phase.
    let plain = Daemon::spawn(env, instance, None)?;
    let quarter = &ticks[..ticks.len().div_ceil(4)];
    let base = load(&plain, quarter, seconds / 4.0)?;
    count_load(&base, r);
    plain.shut_down()?;

    let trace_path = env.work.join(format!("trace-{}.jsonl", std::process::id()));
    let daemon = Daemon::spawn(env, instance, Some(&trace_path))?;
    let before = Scrape::take(&daemon.addr)?;
    let load = load(&daemon, ticks, seconds)?;
    count_load(&load, r);
    let last = final_stats(&daemon, r)?;
    let after = Scrape::take(&daemon.addr)?;
    daemon.shut_down()?;
    let text = std::fs::read_to_string(&trace_path).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&trace_path);
    let spans = fold(&text)?;

    // What a `stats` query computes, timed outside the daemon on the
    // final resident points; the snapshot adds the giant sub-graph.
    let mut shadow = Vec::new();
    let mut build = Vec::new();
    let mut giant_ms = Vec::new();
    let mut edges = 0;
    for _ in 0..25 {
        let pts = final_points.to_vec();
        let t0 = Instant::now();
        let udg = Udg::with_radius(pts, 1.0);
        let t1 = Instant::now();
        let giant = traversal::largest_component(udg.graph());
        let t2 = Instant::now();
        let sub = udg.restricted_to(&giant);
        let t3 = Instant::now();
        shadow.push(ms(t2 - t0));
        build.push(ms(t1 - t0));
        giant_ms.push(ms(t3 - t1));
        edges = udg.graph().num_edges();
        drop(sub);
    }
    let shadow_ms = median_or_zero(&shadow);

    let tick_p50 = median_or_zero(&load.ticks.latency_ms);
    let read_p50 = median_or_zero(&load.reads.latency_ms);
    let late = late_ms(&load);
    let span_s = load.span.as_secs_f64();
    let completed =
        load.reads.attempted + load.ticks.attempted - load.reads.failed - load.ticks.failed;
    let last_done = load.reads.last_done.max(load.ticks.last_done);
    println!(
        "note maintain.apply calls {} in {} ticks",
        spans.applies, load.ticks.attempted
    );
    Layers {
        udg_build_ms: median_or_zero(&build),
        udg_edges: edges,
        graph_giant_ms: median_or_zero(&giant_ms),
        mis_phase1_ms: spans.phase1_ms,
        mis_dominators: num(&last, "dominators").unwrap_or(0) as usize,
        cds_phase2_ms: spans.phase2_ms,
        cds_candidates_scanned: grown(&before, &after, "connectors.candidates_scanned"),
        cds_connectors: num(&last, "connectors").unwrap_or(0) as usize,
        maintain_apply_ms: spans.apply_ms,
        maintain_baseline_ms: spans.baseline_ms,
        maintain_self_ms: spans.self_ms,
        maintain_repaired: grown(&before, &after, "maintain.repaired"),
        maintain_recomputed: grown(&before, &after, "maintain.recomputed"),
        maintain_damage_region_mean: {
            let d = |s: &Scrape, k: &str| s.get(&format!("mcds_maintain_damage_region_{k}"));
            let count = d(&after, "count") - d(&before, "count");
            if count > 0.0 {
                (d(&after, "sum") - d(&before, "sum")) / count
            } else {
                0.0
            }
        },
        serve_read_p50_ms: read_p50,
        serve_tick_p50_ms: tick_p50,
        serve_read_p90_ms: percentile(&load.reads.latency_ms, 90.0).map_or(0.0, |p| p.value),
        serve_tick_p90_ms: percentile(&load.ticks.latency_ms, 90.0).map_or(0.0, |p| p.value),
        serve_stats_shadow_ms: shadow_ms,
        serve_read_wait_ms: read_p50 - shadow_ms,
        serve_request_p90_ms: bucket_quantile(
            &bucket_delta(&before, &after, "mcds_serve_request_ns"),
            90,
        ) as f64
            / 1e6,
        serve_requests: grown(&before, &after, "serve.requests"),
        serve_ticks: grown(&before, &after, "serve.ticks"),
        serve_churn_admitted: grown(&before, &after, "serve.churn_admitted"),
        serve_churn_rejected: grown(&before, &after, "serve.churn_rejected"),
        gen_late_p90_ms: percentile(&late, 90.0).map_or(0.0, |p| p.value),
        gen_offered_per_s: (load.reads.attempted + load.ticks.attempted) as f64 / span_s,
        gen_completed_per_s: completed as f64 / last_done.as_secs_f64().max(span_s),
        obs_overhead_pct: (median_or_zero(&load.ticks.latency_ms[..quarter.len()])
            / median_or_zero(&base.ticks.latency_ms)
            - 1.0)
            * 100.0,
        obs_attributed_pct: spans.apply_ms * MOVES_PER_TICK as f64 / tick_p50 * 100.0,
        ..Layers::default()
    }
    .put(r);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_of_flat_responses() {
        let line = r#"{"ok":true,"op":"query","what":"stats","tick":3,"population":10000,"giant":9990,"dominators":8,"connectors":6,"backbone":14}"#;
        assert!(stats_ok(line));
        assert_eq!(num(line, "backbone"), Some(14));
        assert_eq!(num(line, "tick"), Some(3));
        assert_eq!(field(line, "what"), Some("\"stats\""));
        assert!(!stats_ok(r#"{"ok":false,"error":"x"}"#));
        assert!(!stats_ok(&line.replace("10000", "9999")));
    }

    #[test]
    fn churn_is_seeded_and_keeps_nodes_in_the_square() {
        let pts = input::uniform_points(&mut Rng::new(1, STREAM_POINTS), NODES, 50.0);
        let (a, end_a) = churn(9, 20, pts.clone(), 50.0);
        let (b, end_b) = churn(9, 20, pts.clone(), 50.0);
        assert_eq!((a.len(), &a), (20, &b));
        assert!(a.iter().all(|t| t.len() == MOVES_PER_TICK));
        assert!(render(&a[0]).starts_with(r#"{"op":"churn","events":[{"kind":"move","node":"#));
        assert_eq!(end_a, end_b);
        assert_eq!(end_a.len(), NODES);
        let moved = end_a.iter().zip(&pts).filter(|(p, q)| p != q).count();
        assert!((1..=20 * MOVES_PER_TICK).contains(&moved));
    }

    #[test]
    fn bucket_delta_counts_only_the_new_observations() {
        let scrape = |text: &str| Scrape {
            samples: text
                .lines()
                .map(|l| {
                    let (n, v) = l.rsplit_once(' ').unwrap();
                    (n.to_string(), v.parse().unwrap())
                })
                .collect(),
        };
        // Before: 10 observations in bucket 10 (le 1023).  After: 50 more
        // there and 50 in bucket 11 (le 2047), a bucket new since.
        let before = scrape("h_bucket{le=\"1023\"} 10\nh_bucket{le=\"+Inf\"} 10");
        let after = scrape(
            "h_bucket{le=\"1023\"} 60\nh_bucket{le=\"2047\"} 110\nh_bucket{le=\"+Inf\"} 110",
        );
        let delta = bucket_delta(&before, &after, "h");
        assert_eq!(delta, vec![(10, 50), (11, 50)]);
        assert_eq!(bucket_quantile(&delta, 50), 1023);
        assert_eq!(bucket_quantile(&delta, 90), 2047);
    }
}
