//! Subcommand implementations.

use crate::args::Args;
use crate::CliError;
use mcds_bench::sweeps::{mean_timings, ms, timed_family_trials, Cell};
use mcds_cds::algorithms::Algorithm;
use mcds_cds::{Solver, WeightScheme};
use mcds_graph::bitgraph::{masked_articulation_points, ArticulationScratch, BitSet};
use mcds_graph::{dot, properties, traversal};
use mcds_maintain::{
    ChurnConfig, ChurnGen, EventSource, FaultConfig, FaultGen, MaintainConfig, Maintainer,
    StabilityMetrics,
};
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;
use mcds_udg::mobility::RandomWaypoint;
use mcds_udg::{gen, io, Udg};

fn load(args: &Args) -> Result<Udg, CliError> {
    let path = args
        .positional(0)
        .ok_or_else(|| CliError::Usage("missing instance file".into()))?;
    io::load_instance(path).map_err(|e| CliError::Runtime(format!("{path}: {e}")))
}

/// `gen`: produce an instance file.
pub fn gen(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, &["n", "side", "seed", "kind"], &["connected"])?;
    let n: usize = args.parsed_or("n", 100)?;
    let side: f64 = args.parsed_or("side", 6.0)?;
    require_positive("side", side)?;
    let seed: u64 = args.parsed_or("seed", 1)?;
    let kind = args.value("kind").unwrap_or("uniform");
    let out = args
        .value("o")
        .ok_or_else(|| CliError::Usage("gen needs -o FILE".into()))?;

    let mut rng = StdRng::seed_from_u64(seed);
    let udg = match kind {
        "uniform" => {
            if args.switch("connected") {
                gen::connected_uniform(&mut rng, n, side, 100).ok_or_else(|| {
                    CliError::Runtime(format!(
                        "no connected instance of n={n}, side={side} in 100 tries; \
                         lower --side or drop --connected"
                    ))
                })?
            } else {
                Udg::build(gen::uniform_in_square(&mut rng, n, side))
            }
        }
        "clustered" => {
            let clusters = (n / 20).max(2);
            Udg::build(gen::clustered(&mut rng, clusters, n / clusters, side, 0.8))
        }
        "grid" => {
            let cols = (n as f64).sqrt().ceil() as usize;
            let rows = n.div_ceil(cols.max(1));
            Udg::build(gen::perturbed_grid(&mut rng, rows, cols, 0.8, 0.1))
        }
        "chain" => Udg::build(gen::linear_chain(n, 1.0)),
        other => return Err(CliError::Usage(format!("unknown --kind {other}"))),
    };
    io::save_instance(&udg, out).map_err(|e| CliError::Runtime(format!("{out}: {e}")))?;
    println!(
        "wrote {out}: {} nodes, {} links ({kind})",
        udg.len(),
        udg.graph().num_edges()
    );
    Ok(())
}

/// `stats`: summarize an instance.
pub fn stats(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, &[], &[])?;
    let s = mcds_udg::analysis::instance_stats(&load(&args)?);
    println!("nodes       {}", s.nodes);
    println!("edges       {}", s.edges);
    println!("avg degree  {:.2}", s.avg_degree);
    println!("max degree  {}", s.max_degree);
    println!("components  {}", s.components);
    if let Some(d) = s.diameter {
        println!("diameter    {d}");
    }
    Ok(())
}

/// Rejects a `--FLAG` value that is not positive and finite.
fn require_positive(flag: &str, x: f64) -> Result<(), CliError> {
    if x.is_finite() && x > 0.0 {
        Ok(())
    } else {
        Err(CliError::Usage(format!(
            "--{flag} must be positive and finite"
        )))
    }
}

/// Resolves `--alg` via the registry's own parser ([`mcds_cds::parse_selector`]),
/// turning unknown names into usage errors.
fn algorithms_for(name: &str) -> Result<Vec<Algorithm>, CliError> {
    mcds_cds::parse_selector(name).map_err(|e| CliError::Usage(e.to_string()))
}

/// Parses `--threads` (default: available parallelism) and configures the
/// process-wide worker pool to that width.
fn configure_pool(args: &Args) -> Result<usize, CliError> {
    let threads = parse_thread_count(args, "threads", mcds_pool::default_parallelism())?;
    mcds_pool::global::configure(threads);
    Ok(threads)
}

/// Parses a count of OS threads (`--threads`, `--clients`), which
/// [`mcds_pool::check_threads`] bounds.
fn parse_thread_count(args: &Args, flag: &str, default: usize) -> Result<usize, CliError> {
    let count: usize = args.parsed_or(flag, default)?;
    mcds_pool::check_threads(count).map_err(|rule| CliError::Usage(format!("--{flag} {rule}")))
}

/// Parses `--m` (m-fold domination level) with the [`Solver::m`] range
/// turned into a usage error instead of a builder panic.
fn parse_m(args: &Args) -> Result<usize, CliError> {
    let m: usize = args.parsed_or("m", 1)?;
    if !(1..=3).contains(&m) {
        return Err(CliError::Usage(format!("--m must be 1, 2, or 3 (got {m})")));
    }
    Ok(m)
}

/// Parses `--weights` / `--weight-seed` into a [`WeightScheme`] (default
/// unit, i.e. the classic unweighted constructions).
fn parse_weights(args: &Args) -> Result<WeightScheme, CliError> {
    let seed: u64 = args.parsed_or("weight-seed", 1)?;
    let name = args.value("weights").unwrap_or("unit");
    WeightScheme::parse(name, seed).map_err(|e| CliError::Usage(e.to_string()))
}

/// `solve`: run the CDS algorithms.
pub fn solve(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(
        argv,
        &["alg", "dot", "svg", "m", "weights", "weight-seed"],
        &["prune", "timings", "biconnect", "json"],
    )?;
    let udg = load(&args)?;
    let g = udg.graph();
    let algs = algorithms_for(args.value("alg").unwrap_or("greedy"))?;
    let show_timings = args.switch("timings");
    let m = parse_m(&args)?;
    let biconnect = args.switch("biconnect");
    let weights = parse_weights(&args)?;
    let json = args.switch("json");
    let mut last: Option<(Algorithm, mcds_cds::Cds)> = None;
    for alg in &algs {
        let solver = Solver::new(*alg)
            .verify(true)
            .prune(args.switch("prune"))
            .m(m)
            .biconnect(biconnect)
            .weight_scheme(weights);
        let solution = solver
            .solve(g)
            .map_err(|e| CliError::Runtime(format!("{}: {e}", alg.name())))?;
        if json {
            // One response object per algorithm, rendered by the same
            // function the `mcds-serve` daemon uses — so a daemon seeded
            // with this instance answers `solve` byte-identically
            // (scripts/verify.sh diffs the two).
            let cds = solution.cds();
            println!(
                "{}",
                mcds_serve::proto::render_solve(
                    &solver,
                    g.num_nodes(),
                    weights.total(g, cds.nodes()),
                    cds.dominators(),
                    cds.connectors(),
                )
            );
            last = Some((*alg, solution.into_cds()));
            continue;
        }
        let mut suffix = match solution.pruned_from() {
            Some(orig) => format!(" (pruned from {orig})"),
            None => String::new(),
        };
        if m > 1 || biconnect {
            suffix.push_str(&format!(
                " [({},{m}) backbone]",
                if biconnect { 2 } else { 1 }
            ));
        }
        if weights != WeightScheme::Unit {
            suffix.push_str(&format!(
                " [weights {}: total {}]",
                weights.name(),
                weights.total(g, solution.cds().nodes())
            ));
        }
        println!(
            "{:<8} |CDS| = {:<4} ({} dominators + {} connectors){}",
            alg.name(),
            solution.len(),
            solution.cds().dominators().len(),
            solution.cds().connectors().len(),
            suffix
        );
        if show_timings {
            let t = solution.timings();
            println!(
                "         phase1 {} ms, phase2 {} ms, augment {} ms, verify {} ms, prune {} ms",
                ms(t.phase1),
                ms(t.phase2),
                ms(t.augment),
                ms(t.verify),
                ms(t.prune)
            );
        }
        last = Some((*alg, solution.into_cds()));
    }
    if let (Some(path), Some((alg, cds))) = (args.value("svg"), last.as_ref()) {
        let style = mcds_viz::UdgStyle {
            dominators: cds.dominators().to_vec(),
            connectors: cds.connectors().to_vec(),
            ..mcds_viz::UdgStyle::default()
        };
        std::fs::write(path, mcds_viz::render_udg(&udg, &style))
            .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
        println!("wrote {path} ({} backbone)", alg.name());
    }
    if let (Some(path), Some((alg, cds))) = (args.value("dot"), last) {
        let style = dot::DotStyle {
            dominators: cds.dominators().to_vec(),
            connectors: cds.connectors().to_vec(),
            positions: udg
                .points()
                .iter()
                .map(|p| (p.x * 100.0, p.y * 100.0))
                .collect(),
        };
        std::fs::write(path, dot::to_dot(g, "cds", &style))
            .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
        println!("wrote {path} ({} backbone)", alg.name());
    }
    Ok(())
}

/// `sweep`: pooled multi-trial sweep over seeded random connected
/// instances, reporting mean sizes and per-phase wall times.
///
/// Trials fan out over the worker pool (`--threads`); the sizes — and the
/// optional `--out` CSV — are bit-identical at any width because every
/// trial derives its RNG from a per-trial stream of the master seed (the
/// `mcds-pool` determinism contract).  Only the wall times change.
pub fn sweep(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(
        argv,
        &[
            "alg",
            "n",
            "side",
            "trials",
            "seed",
            "threads",
            "out",
            "m",
            "weights",
            "weight-seed",
        ],
        &["biconnect"],
    )?;
    let n: usize = args.parsed_or("n", 200)?;
    let side: f64 = args.parsed_or("side", 8.0)?;
    require_positive("side", side)?;
    let trials: usize = args.parsed_or("trials", 10)?;
    let seed: u64 = args.parsed_or("seed", 1)?;
    if n == 0 || trials == 0 {
        return Err(CliError::Usage(
            "sweep needs --n >= 1 and --trials >= 1".into(),
        ));
    }
    let m = parse_m(&args)?;
    let biconnect = args.switch("biconnect");
    let weights = parse_weights(&args)?;
    let threads = configure_pool(&args)?;
    let algs = algorithms_for(args.value("alg").unwrap_or("all"))?;
    let cell = Cell {
        n,
        side,
        instances: trials,
    };
    println!("sweep: {trials} trial(s) of n={n}, side={side}, seed={seed} on {threads} thread(s)");
    let mut rows: Vec<String> = vec!["alg,trial,n,size".into()];
    for alg in algs {
        let ts = timed_family_trials(alg, cell, seed, m, biconnect, weights);
        if ts.is_empty() {
            println!("{:<8} no usable instances in this cell", alg.name());
            continue;
        }
        if biconnect && ts.len() < trials {
            println!(
                "{:<8} {} of {trials} instance(s) skipped (not 2-connectable)",
                alg.name(),
                trials - ts.len()
            );
        }
        let mean_size = ts.iter().map(|t| t.solution.len() as f64).sum::<f64>() / ts.len() as f64;
        let t = mean_timings(&ts);
        println!(
            "{:<8} mean |CDS| {:>7.2}  gen {:>8} ms  phase1 {:>8} ms  phase2 {:>8} ms  augment {:>8} ms  verify {:>8} ms",
            alg.name(),
            mean_size,
            ms(t.build),
            ms(t.phase1),
            ms(t.phase2),
            ms(t.augment),
            ms(t.verify)
        );
        for (i, trial) in ts.iter().enumerate() {
            rows.push(format!(
                "{},{},{},{}",
                alg.name(),
                i,
                trial.n,
                trial.solution.len()
            ));
        }
    }
    if let Some(path) = args.value("out") {
        std::fs::write(path, rows.join("\n") + "\n")
            .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
        println!("wrote {path} ({} rows)", rows.len() - 1);
    }
    Ok(())
}

/// `exact`: optimal alpha / gamma / gamma_c with a step budget.
pub fn exact(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, &["budget"], &[])?;
    let udg = load(&args)?;
    let g = udg.graph();
    let budget: u64 = args.parsed_or("budget", mcds_exact::DEFAULT_BUDGET)?;
    if g.num_nodes() > 128 {
        return Err(CliError::Runtime(
            "exact solvers support at most 128 nodes".into(),
        ));
    }
    match mcds_exact::try_max_independent_set(g, budget) {
        Some(mis) => println!("alpha    = {}", mis.len()),
        None => println!("alpha    = ? (budget exhausted)"),
    }
    match mcds_exact::try_min_dominating_set(g, budget) {
        Some(ds) => println!("gamma    = {}", ds.len()),
        None => println!("gamma    = ? (budget exhausted)"),
    }
    match mcds_exact::try_min_connected_dominating_set(g, budget) {
        Ok(Some(cds)) => {
            println!("gamma_c  = {}", cds.len());
            println!("optimum  = {cds:?}");
        }
        Ok(None) => println!("gamma_c  = infinity (graph disconnected)"),
        Err(()) => println!("gamma_c  = ? (budget exhausted)"),
    }
    Ok(())
}

/// `verify`: check a node list against the instance.
pub fn verify(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, &["nodes"], &[])?;
    let udg = load(&args)?;
    let g = udg.graph();
    let spec = args
        .value("nodes")
        .ok_or_else(|| CliError::Usage("verify needs --nodes a,b,c".into()))?;
    let nodes: Vec<usize> = spec
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| CliError::Usage(format!("bad node id `{s}`")))
        })
        .collect::<Result<_, _>>()?;
    for &v in &nodes {
        if v >= g.num_nodes() {
            return Err(CliError::Runtime(format!(
                "node {v} out of range (instance has {} nodes)",
                g.num_nodes()
            )));
        }
    }
    println!(
        "dominating        : {}",
        properties::is_dominating_set(g, &nodes)
    );
    println!(
        "independent       : {}",
        properties::is_independent_set(g, &nodes)
    );
    match properties::check_cds(g, &nodes) {
        Ok(()) => {
            println!("connected dom. set: true");
            Ok(())
        }
        Err(why) => {
            println!("connected dom. set: false ({why})");
            Err(CliError::Runtime("not a valid CDS".into()))
        }
    }
}

/// `dist`: run the distributed WAF pipeline.
pub fn dist(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, &[], &[])?;
    let udg = load(&args)?;
    let run = mcds_distsim::pipeline::run_waf_distributed(udg.graph())
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    println!("leader          node {}", run.root);
    println!(
        "flooding        {} rounds, {} tx",
        run.flood.rounds, run.flood.transmissions
    );
    println!(
        "mis election    {} rounds, {} tx",
        run.mis.rounds, run.mis.transmissions
    );
    println!(
        "waf connectors  {} rounds, {} tx",
        run.connect.rounds, run.connect.transmissions
    );
    println!(
        "cds             {} nodes ({} dominators + {} connectors)",
        run.cds.len(),
        run.cds.dominators().len(),
        run.cds.connectors().len()
    );
    Ok(())
}

/// `analyze`: deeper instance analysis than `stats`.
pub fn analyze(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, &[], &[])?;
    let udg = load(&args)?;
    let s = mcds_udg::analysis::instance_stats(&udg);
    println!("nodes            {}", s.nodes);
    println!("edges            {}", s.edges);
    println!("avg degree       {:.2}", s.avg_degree);
    println!("max degree       {}", s.max_degree);
    println!("isolated         {}", s.isolated);
    println!("components       {}", s.components);
    println!("giant fraction   {:.2}", s.giant_fraction);
    match s.diameter {
        Some(d) => println!("diameter         {d}"),
        None => println!("diameter         - (disconnected)"),
    }
    if let Some(c) = mcds_udg::analysis::mean_clustering(&udg) {
        println!("mean clustering  {c:.3}");
    }
    let g = udg.graph();
    let n = g.num_nodes();
    let mut cut = BitSet::new(n);
    let all = BitSet::from_nodes(n, &(0..n).collect::<Vec<_>>());
    masked_articulation_points(g, &all, &mut ArticulationScratch::new(), &mut cut);
    println!("cut vertices     {}", cut.count_ones());
    println!("bridges          {}", traversal::bridges(g).len());
    let hist = mcds_udg::analysis::degree_histogram(&udg);
    let peak = hist.iter().copied().max().unwrap_or(1).max(1);
    println!("degree histogram:");
    for (d, &count) in hist.iter().enumerate() {
        if count > 0 {
            let bar = "#".repeat((count * 40).div_ceil(peak));
            println!("  {d:>3} | {bar} {count}");
        }
    }
    Ok(())
}

/// `route`: backbone-constrained route between two nodes.
pub fn route(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, &["from", "to", "alg"], &[])?;
    let udg = load(&args)?;
    let g = udg.graph();
    let from: usize = args.parsed_or("from", 0)?;
    let to: usize = args.parsed_or("to", g.num_nodes().saturating_sub(1))?;
    if from >= g.num_nodes() || to >= g.num_nodes() {
        return Err(CliError::Runtime("endpoint out of range".into()));
    }
    let algs = algorithms_for(args.value("alg").unwrap_or("greedy"))?;
    let true_dist = traversal::bfs_distances(g, from)[to];
    if true_dist == usize::MAX {
        return Err(CliError::Runtime(format!(
            "{from} and {to} are disconnected"
        )));
    }
    println!("shortest path {from} -> {to}: {true_dist} hops");
    for alg in algs {
        let cds = Solver::new(alg)
            .solve(g)
            .map(mcds_cds::Solution::into_cds)
            .map_err(|e| CliError::Runtime(format!("{}: {e}", alg.name())))?;
        let via = mcds_cds::routing::backbone_route_length(g, cds.nodes(), from, to)
            .ok_or_else(|| CliError::Runtime("backbone does not route this pair".into()))?;
        let stretch = if true_dist == 0 {
            1.0
        } else {
            via as f64 / true_dist as f64
        };
        println!(
            "{:<8} backbone ({} nodes): {via} hops (stretch {stretch:.2})",
            alg.name(),
            cds.len(),
        );
    }
    Ok(())
}

/// `broadcast`: flooding vs backbone relay cost.
pub fn broadcast(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, &["source", "alg"], &[])?;
    let udg = load(&args)?;
    let g = udg.graph();
    let source: usize = args.parsed_or("source", 0)?;
    if source >= g.num_nodes() {
        return Err(CliError::Runtime("source out of range".into()));
    }
    let all: Vec<usize> = (0..g.num_nodes()).collect();
    let flood = mcds_distsim::protocols::run_broadcast(g, source, &all)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    println!(
        "flooding : {} transmissions, {} rounds, reached {}/{}",
        flood.stats.transmissions,
        flood.stats.rounds,
        flood.reached,
        g.num_nodes()
    );
    for alg in algorithms_for(args.value("alg").unwrap_or("greedy"))? {
        let cds = Solver::new(alg)
            .solve(g)
            .map(mcds_cds::Solution::into_cds)
            .map_err(|e| CliError::Runtime(format!("{}: {e}", alg.name())))?;
        let out = mcds_distsim::protocols::run_broadcast(g, source, cds.nodes())
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        println!(
            "{:<8} : {} transmissions, {} rounds, reached {}/{} (saved {:.0}%)",
            alg.name(),
            out.stats.transmissions,
            out.stats.rounds,
            out.reached,
            g.num_nodes(),
            100.0 * (1.0 - out.stats.transmissions as f64 / flood.stats.transmissions as f64)
        );
    }
    Ok(())
}

/// `construct`: build one of the paper's tightness constructions, verify
/// it, print its certificate, and optionally save the (set ∪ independent)
/// point set as an instance file.
pub fn construct(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, &["n", "eps"], &[])?;
    let which = args
        .positional(0)
        .ok_or_else(|| CliError::Usage("construct needs two-star|three-star|chain".into()))?;
    let eps: f64 = args.parsed_or("eps", 0.02)?;
    if !(eps > 0.0 && eps <= 0.05) {
        return Err(CliError::Usage("--eps must be in (0, 0.05]".into()));
    }
    let c = match which {
        "two-star" => mcds_mis::constructions::fig1_two_star(eps),
        "three-star" => mcds_mis::constructions::fig1_three_star(eps),
        "chain" => {
            let n: usize = args.parsed_or("n", 6)?;
            if n < 3 {
                return Err(CliError::Usage("chain needs --n >= 3".into()));
            }
            mcds_mis::constructions::fig2_chain(n, eps)
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown construction `{other}` (want two-star|three-star|chain)"
            )))
        }
    };
    c.verify()
        .map_err(|e| CliError::Runtime(format!("construction failed verification: {e}")))?;
    println!(
        "{which}: {} set points, {} independent points (advertised {}), margin {:.2e} — verified",
        c.set.len(),
        c.independent.len(),
        c.advertised,
        c.margin()
    );
    if let Some(path) = args.value("o") {
        let mut pts = c.set.clone();
        pts.extend(c.independent.iter().copied());
        let udg = Udg::build(pts);
        io::save_instance(&udg, path).map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
        println!(
            "wrote {path} ({} points: indices 0..{} are the set, the rest the packing)",
            udg.len(),
            c.set.len()
        );
    }
    Ok(())
}

/// `churn`: drive the dynamic maintenance engine through a seeded event
/// stream and report stability.
pub fn churn(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(
        argv,
        &[
            "n",
            "side",
            "seed",
            "events",
            "p-join",
            "p-leave",
            "move-radius",
            "drift",
            "speed-min",
            "speed-max",
            "pause",
            "dt",
            "m",
            "fault-every",
            "fault-radius",
            "fault-kill",
        ],
        &["waypoint", "verbose"],
    )?;
    let n: usize = args.parsed_or("n", 100)?;
    let side: f64 = args.parsed_or("side", 6.0)?;
    let seed: u64 = args.parsed_or("seed", 1)?;
    let events: usize = args.parsed_or("events", 200)?;
    let drift: f64 = args.parsed_or("drift", 1.75)?;
    let verbose = args.switch("verbose");
    let m = parse_m(&args)?;
    let fault_every: usize = args.parsed_or("fault-every", 0)?;
    let fault_radius: f64 = args.parsed_or("fault-radius", 1.5)?;
    let fault_kill: usize = args.parsed_or("fault-kill", 3)?;
    let p_join: f64 = args.parsed_or("p-join", 0.1)?;
    let p_leave: f64 = args.parsed_or("p-leave", 0.1)?;
    let move_radius: f64 = args.parsed_or("move-radius", 0.5)?;
    let speed_min: f64 = args.parsed_or("speed-min", 0.5)?;
    let speed_max: f64 = args.parsed_or("speed-max", 1.5)?;
    let pause: f64 = args.parsed_or("pause", 0.2)?;
    let dt: f64 = args.parsed_or("dt", 0.25)?;
    if fault_every > 0 && args.switch("waypoint") {
        return Err(CliError::Usage(
            "fault injection needs the synthetic churn mode (drop --waypoint)".into(),
        ));
    }
    let usage = |problem: String| Err(CliError::Usage(problem));
    for (flag, x) in [
        ("side", side),
        ("fault-radius", fault_radius),
        ("move-radius", move_radius),
        ("speed-min", speed_min),
        ("dt", dt),
    ] {
        require_positive(flag, x)?;
    }
    for (flag, p) in [("p-join", p_join), ("p-leave", p_leave)] {
        if !(0.0..=1.0).contains(&p) {
            return usage(format!("--{flag} must be in [0, 1]"));
        }
    }
    if p_join + p_leave > 1.0 {
        return usage("--p-join + --p-leave must be at most 1".into());
    }
    if !(drift.is_finite() && drift >= 1.0) {
        return usage("--drift must be finite and at least 1".into());
    }
    if !(speed_max.is_finite() && speed_max >= speed_min) {
        return usage("--speed-max must be finite and at least --speed-min".into());
    }
    if !(pause.is_finite() && pause >= 0.0) {
        return usage("--pause must be non-negative and finite".into());
    }
    if fault_kill == 0 {
        return usage("--fault-kill must be at least 1".into());
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let region = mcds_geom::Aabb::square(side);
    let maintain_cfg = MaintainConfig {
        drift_threshold: drift,
        m,
        ..MaintainConfig::default()
    };
    let (mut engine, source) = if args.switch("waypoint") {
        // Random-waypoint mode: a fixed population moves; each epoch of
        // length --dt becomes a batch of move events.
        let walk = RandomWaypoint::new(&mut rng, n, region, (speed_min, speed_max), pause);
        let engine = Maintainer::with_population(maintain_cfg, walk.positions().to_vec());
        (engine, EventSource::Waypoint(walk, dt))
    } else {
        // Synthetic churn mode: joins, leaves and moves mixed by rate,
        // with a fault burst every --fault-every slots.
        let churn = ChurnGen::new(ChurnConfig {
            region,
            p_join,
            p_leave,
            move_radius,
            min_population: 4,
        });
        let faults = (fault_every > 0).then(|| {
            let cfg = FaultConfig {
                radius: fault_radius,
                batch: fault_kill,
                min_population: 4,
            };
            (FaultGen::new(cfg), fault_every)
        });
        let pts = gen::uniform_in_square(&mut rng, n, side);
        let engine = Maintainer::with_population(maintain_cfg, pts);
        (engine, EventSource::Churn(churn, faults))
    };
    let mut metrics = StabilityMetrics::new();
    source.drive(&mut engine, &mut rng, events, |report, _| {
        if verbose {
            print_report(report);
        }
        metrics.record(report);
    });

    println!("events            {}", metrics.events);
    println!(
        "repaired          {} ({:.1}%)",
        metrics.repaired,
        100.0 * metrics.repair_rate()
    );
    println!(
        "recomputed        {} (cold {}, stalled {}, invalid {}, drift {})",
        metrics.recompute_total(),
        metrics.recomputed[0],
        metrics.recomputed[1],
        metrics.recomputed[2],
        metrics.recomputed[3]
    );
    println!(
        "survival          mean {:.3}, min {:.3}",
        metrics.mean_survival(),
        metrics.survival_min
    );
    println!(
        "violations        {} undominated node(s) across {} event(s)",
        metrics.violations_sum, metrics.violated_events
    );
    println!(
        "locality          ≤10% {}, ≤25% {}, ≤50% {}, >50% {}",
        metrics.locality_hist[0],
        metrics.locality_hist[1],
        metrics.locality_hist[2],
        metrics.locality_hist[3]
    );
    println!(
        "size vs baseline  mean {:.3}×, worst {:.3}×",
        metrics.mean_ratio(),
        metrics.ratio_max
    );
    println!(
        "wall per event    mean {:?}, max {:?}",
        metrics.mean_wall(),
        metrics.wall_max
    );
    println!("population        {} alive", engine.population());
    if metrics.invalid_events > 0 {
        return Err(CliError::Runtime(format!(
            "{} events left an invalid CDS",
            metrics.invalid_events
        )));
    }
    Ok(())
}

/// `serve`: the backbone-as-a-service daemon plus its client modes.
///
/// * `serve FILE [--addr H:P] [--m M] [--threads T]` — hold FILE's
///   topology resident behind a JSONL-over-TCP endpoint and serve
///   solve/churn/query/metrics requests until a client sends
///   `{"op":"shutdown"}`.  The bound address is printed first (use port
///   0 to let the OS pick), so scripts can read the ephemeral port.
/// * `serve --connect H:P` — interactive client: one request line in on
///   stdin, one response line out on stdout.
/// * `serve --bench H:P [--clients C] [--requests R] [--churn-every K]`
///   — the in-tree load generator (E21's measuring side).
pub fn serve(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(
        argv,
        &[
            "addr",
            "m",
            "threads",
            "connect",
            "bench",
            "clients",
            "requests",
            "churn-every",
            "side",
            "top",
            "interval-ms",
            "count",
        ],
        &[],
    )?;
    if let Some(addr) = args.value("connect") {
        return serve_connect(addr);
    }
    if let Some(addr) = args.value("bench") {
        return serve_bench(addr, &args);
    }
    if let Some(addr) = args.value("top") {
        return serve_top(addr, &args);
    }
    let threads = parse_thread_count(&args, "threads", mcds_pool::default_parallelism())?;
    let udg = load(&args)?;
    let m = parse_m(&args)?;
    let addr = args.value("addr").unwrap_or("127.0.0.1:0");
    // The daemon's metrics endpoints (JSONL `{"op":"metrics"}` and HTTP
    // `GET /metrics`) need the subscriber on.  Span/log events are only
    // worth buffering when the global `--trace` flag already enabled the
    // subscriber (main.rs flushes them to the trace file on exit);
    // otherwise the accept loop discards them to bound daemon memory.
    let retain_trace = mcds_obs::enabled();
    mcds_obs::enable();
    let cfg = mcds_serve::ServeConfig {
        radius: udg.radius(),
        m,
        threads,
        retain_trace,
    };
    let server = mcds_serve::Server::bind(addr, cfg, udg.points().to_vec())
        .map_err(|e| CliError::Runtime(format!("{addr}: {e}")))?;
    let bound = server
        .local_addr()
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    // Scripts parse this exact line to learn the ephemeral port; flush
    // it before blocking in the accept loop.
    println!("listening on {bound}");
    use std::io::Write as _;
    std::io::stdout()
        .flush()
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    server
        .run()
        .map_err(|e| CliError::Runtime(format!("serve: {e}")))?;
    println!("shutdown complete");
    Ok(())
}

/// The `serve --connect` client loop: stdin request lines to `addr`,
/// response lines to stdout, until EOF or a shutdown acknowledgement.
fn serve_connect(addr: &str) -> Result<(), CliError> {
    let mut client =
        mcds_serve::Client::connect(addr).map_err(|e| CliError::Runtime(format!("{addr}: {e}")))?;
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        let n = std::io::BufRead::read_line(&mut stdin.lock(), &mut line)
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        if n == 0 {
            return Ok(());
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let response = client
            .request(trimmed)
            .map_err(|e| CliError::Runtime(format!("{addr}: {e}")))?;
        println!("{response}");
        if response == mcds_serve::proto::render_shutdown() {
            return Ok(());
        }
    }
}

/// The `serve --bench` load generator.
fn serve_bench(addr: &str, args: &Args) -> Result<(), CliError> {
    let cfg = mcds_serve::LoadConfig {
        clients: parse_thread_count(args, "clients", 8)?,
        requests: args.parsed_or("requests", 200)?,
        churn_every: args.parsed_or("churn-every", 10)?,
    };
    if cfg.requests == 0 {
        return Err(CliError::Usage(
            "serve --bench needs --requests >= 1".into(),
        ));
    }
    let side: f64 = args.parsed_or("side", 6.0)?;
    let report = mcds_serve::run_load(addr, cfg, side)
        .map_err(|e| CliError::Runtime(format!("{addr}: {e}")))?;
    println!(
        "{} clients x {} requests: {} ok, {} errors",
        cfg.clients,
        cfg.requests,
        report.requests - report.errors,
        report.errors
    );
    println!(
        "wall {:?}  throughput {:.0} req/s  p50 {} us  p99 {} us",
        report.wall,
        report.throughput(),
        report.p50_us,
        report.p99_us
    );
    if report.errors > 0 {
        return Err(CliError::Runtime(format!(
            "{} request(s) failed",
            report.errors
        )));
    }
    Ok(())
}

/// One histogram snapshot: `(count, sum, nonzero log2 buckets)`.
type HistSnapshot = (u64, u64, Vec<(usize, u64)>);

/// One parsed `{"op":"metrics"}` response: counter/gauge totals plus
/// histogram `(count, sum, log2 buckets)` triples, in response order.
struct TopSnapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    hists: Vec<(String, HistSnapshot)>,
}

fn parse_top_snapshot(line: &str) -> Result<TopSnapshot, CliError> {
    use mcds_obs::json::Value;
    let doc = Value::parse(line).map_err(|e| CliError::Runtime(format!("metrics reply: {e}")))?;
    let section = |key: &str| -> Result<Vec<(String, Value)>, CliError> {
        match doc.get(key) {
            Some(Value::Obj(entries)) => Ok(entries.clone()),
            _ => Err(CliError::Runtime(format!(
                "metrics reply has no `{key}` object: {line}"
            ))),
        }
    };
    let counters = section("counters")?
        .into_iter()
        .filter_map(|(k, v)| Some((k, v.as_u64()?)))
        .collect();
    let gauges = section("gauges")?
        .into_iter()
        .filter_map(|(k, v)| Some((k, v.as_f64()? as i64)))
        .collect();
    let hists = section("hists")?
        .into_iter()
        .filter_map(|(k, v)| {
            let count = v.get("count")?.as_u64()?;
            let sum = v.get("sum")?.as_u64()?;
            let buckets = v
                .get("buckets")?
                .as_arr()?
                .iter()
                .filter_map(|pair| {
                    let pair = pair.as_arr()?;
                    Some((pair.first()?.as_usize()?, pair.get(1)?.as_u64()?))
                })
                .collect();
            Some((k, (count, sum, buckets)))
        })
        .collect();
    Ok(TopSnapshot {
        counters,
        gauges,
        hists,
    })
}

/// The `serve --top` live dashboard: polls `{"op":"metrics"}` on an
/// interval and renders totals plus per-window deltas (rates, and
/// p50/p99 estimated from histogram bucket deltas) as plain redrawn
/// text.  `--count 0` polls until the connection drops.
fn serve_top(addr: &str, args: &Args) -> Result<(), CliError> {
    let interval_ms: u64 = args.parsed_or("interval-ms", 1000)?;
    let count: u64 = args.parsed_or("count", 0)?;
    if interval_ms == 0 {
        return Err(CliError::Usage("--interval-ms must be at least 1".into()));
    }
    let mut client =
        mcds_serve::Client::connect(addr).map_err(|e| CliError::Runtime(format!("{addr}: {e}")))?;
    let mut prev: Option<(std::time::Instant, TopSnapshot)> = None;
    let mut poll = 0u64;
    loop {
        poll += 1;
        let line = client
            .request(r#"{"op":"metrics"}"#)
            .map_err(|e| CliError::Runtime(format!("{addr}: {e}")))?;
        let now = std::time::Instant::now();
        let snap = parse_top_snapshot(&line)?;
        let window = prev
            .as_ref()
            .map(|(t, _)| now.duration_since(*t).as_secs_f64());
        print_top(addr, poll, &snap, prev.as_ref().map(|(_, s)| s), window);
        prev = Some((now, snap));
        if count > 0 && poll >= count {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn print_top(
    addr: &str,
    poll: u64,
    snap: &TopSnapshot,
    prev: Option<&TopSnapshot>,
    window_s: Option<f64>,
) {
    match window_s {
        Some(w) => println!("mcds top @ {addr} — poll {poll}, window {w:.2}s"),
        None => println!("mcds top @ {addr} — poll {poll} (first sample; rates need a window)"),
    }
    let prev_counter = |name: &str| -> u64 {
        prev.and_then(|p| p.counters.iter().find(|(k, _)| k == name))
            .map_or(0, |(_, v)| *v)
    };
    let prev_buckets = |name: &str| -> Vec<(usize, u64)> {
        prev.and_then(|p| p.hists.iter().find(|(k, _)| k == name))
            .map_or_else(Vec::new, |(_, (_, _, b))| b.clone())
    };
    println!("{:<28} {:>12} {:>10}", "counters", "total", "rate/s");
    for (name, total) in &snap.counters {
        let rate = match window_s {
            Some(w) if w > 0.0 => {
                format!("{:.1}", total.saturating_sub(prev_counter(name)) as f64 / w)
            }
            _ => "-".to_string(),
        };
        println!("  {name:<26} {total:>12} {rate:>10}");
    }
    if !snap.gauges.is_empty() {
        println!("{:<28} {:>12}", "gauges", "value");
        for (name, value) in &snap.gauges {
            println!("  {name:<26} {value:>12}");
        }
    }
    println!(
        "{:<28} {:>12} {:>10} {:>10} {:>8}",
        "hists", "count", "p50", "p99", "window"
    );
    for (name, (count, _sum, buckets)) in &snap.hists {
        // Quantiles over the *window*: subtract the previous poll's
        // bucket counts, then read nearest-rank quantiles off the log2
        // buckets (upper bounds — ~2x resolution).
        let base = prev_buckets(name);
        let delta: Vec<(usize, u64)> = buckets
            .iter()
            .map(|&(b, c)| {
                let old = base.iter().find(|&&(ob, _)| ob == b).map_or(0, |&(_, c)| c);
                (b, c.saturating_sub(old))
            })
            .filter(|&(_, c)| c > 0)
            .collect();
        let in_window: u64 = delta.iter().map(|&(_, c)| c).sum();
        let (p50, p99) = if in_window > 0 {
            (
                mcds_obs::bucket_quantile(&delta, 50),
                mcds_obs::bucket_quantile(&delta, 99),
            )
        } else {
            (
                mcds_obs::bucket_quantile(buckets, 50),
                mcds_obs::bucket_quantile(buckets, 99),
            )
        };
        println!("  {name:<26} {count:>12} {p50:>10} {p99:>10} {in_window:>8}");
    }
    println!();
}

/// `trace`: inspect a JSONL trace produced by the global `--trace` flag.
///
/// * `trace check FILE` — validate every line against the `mcds-obs`
///   schema (the checker `scripts/verify.sh` runs in CI).
/// * `trace summarize FILE` — aggregate span records by nesting path and
///   print the per-span wall-time breakdown.
/// * `trace flame FILE [--folded OUT] [--svg OUT]` — fold the span tree
///   into per-label *self* time, write the collapsed-stack file and an
///   SVG flamegraph, and report how much root wall time was attributed.
pub fn trace(argv: &[String]) -> Result<(), CliError> {
    let verb = argv
        .first()
        .ok_or_else(|| CliError::Usage("trace needs summarize|check|flame FILE.jsonl".into()))?;
    let path = argv
        .get(1)
        .ok_or_else(|| CliError::Usage(format!("trace {verb} needs a FILE.jsonl")))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
    let stats = mcds_obs::schema::validate_trace(&text)
        .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
    match verb.as_str() {
        "check" => {
            println!(
                "{path}: valid trace ({} spans, {} logs, {} counters, {} gauges, {} hists)",
                stats.spans, stats.logs, stats.counters, stats.gauges, stats.hists
            );
            Ok(())
        }
        "summarize" => {
            let profile = mcds_obs::profile::Profile::from_trace(&text)
                .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
            let (spans, root_ns) = (profile.frames, profile.root_total_ns);
            if spans.is_empty() {
                println!("{path}: no span records (was the traced run instrumented?)");
                return Ok(());
            }
            let mut table =
                mcds_bench::Table::new(&["span", "count", "total ms", "mean µs", "share"]);
            let label_width = spans
                .iter()
                .map(|s| 2 * s.depth + last_segment(&s.path).len())
                .max()
                .unwrap_or(0);
            for s in &spans {
                let label = format!(
                    "{:<label_width$}",
                    format!("{}{}", "  ".repeat(s.depth), last_segment(&s.path))
                );
                let share = if root_ns == 0 {
                    "-".to_string()
                } else {
                    format!("{:.1}%", 100.0 * s.total_ns as f64 / root_ns as f64)
                };
                table.row(&[
                    label,
                    s.count.to_string(),
                    format!("{:.3}", s.total_ns as f64 / 1e6),
                    format!("{:.1}", s.total_ns as f64 / 1e3 / s.count as f64),
                    share,
                ]);
            }
            // Left-align the span column by padding labels to equal width
            // before the table right-aligns them.
            println!("{path}: span breakdown (share = of root-span wall time)");
            table.print();
            let child_ns: u64 = spans
                .iter()
                .filter(|s| s.depth == 1)
                .map(|s| s.total_ns)
                .sum();
            if root_ns > 0 {
                println!(
                    "root spans total {:.3} ms; depth-1 children cover {:.1}%",
                    root_ns as f64 / 1e6,
                    100.0 * child_ns as f64 / root_ns as f64
                );
            }
            Ok(())
        }
        "flame" => trace_flame(path, &argv[2..], &text),
        other => Err(CliError::Usage(format!(
            "unknown trace verb `{other}` (want summarize|check|flame)"
        ))),
    }
}

/// The `trace flame` verb body: profile attribution + collapsed-stack +
/// SVG export.  Output paths default to `FILE.folded` / `FILE.svg`.
fn trace_flame(path: &str, rest: &[String], text: &str) -> Result<(), CliError> {
    let args = Args::parse(rest, &["folded", "svg"], &[])?;
    let profile = mcds_obs::profile::Profile::from_trace(text)
        .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
    if profile.frames.is_empty() {
        println!("{path}: no span records (was the traced run instrumented?)");
        return Ok(());
    }

    let labels = profile.labels();
    let mut table = mcds_bench::Table::new(&["label", "calls", "self ms", "total ms", "self %"]);
    let attributed = profile.attributed_ns();
    for l in &labels {
        table.row(&[
            l.label.clone(),
            l.count.to_string(),
            format!("{:.3}", l.self_ns as f64 / 1e6),
            format!("{:.3}", l.total_ns as f64 / 1e6),
            if attributed == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", 100.0 * l.self_ns as f64 / attributed as f64)
            },
        ]);
    }
    println!("{path}: self-time attribution (self % = of attributed time)");
    table.print();

    let folded_path = args
        .value("folded")
        .map_or_else(|| format!("{path}.folded"), str::to_string);
    std::fs::write(&folded_path, profile.collapsed())
        .map_err(|e| CliError::Runtime(format!("{folded_path}: {e}")))?;

    let stacks: Vec<(String, u64)> = profile
        .frames
        .iter()
        .map(|f| (f.path.replace('/', ";"), f.self_ns))
        .collect();
    let title = format!(
        "{path} — {:.3} ms root wall",
        profile.root_total_ns as f64 / 1e6
    );
    let svg_path = args
        .value("svg")
        .map_or_else(|| format!("{path}.svg"), str::to_string);
    std::fs::write(&svg_path, mcds_viz::flame::render_flame(&stacks, &title))
        .map_err(|e| CliError::Runtime(format!("{svg_path}: {e}")))?;

    println!(
        "wrote {folded_path} ({} stacks) and {svg_path}",
        stacks.len()
    );
    // The attribution identity — Σ self over all frames vs. Σ root span
    // wall — is the acceptance gate verify.sh parses off this line.
    let share = if profile.root_total_ns == 0 {
        100.0
    } else {
        100.0 * attributed as f64 / profile.root_total_ns as f64
    };
    println!(
        "attributed {:.3} ms of {:.3} ms root wall ({share:.1}%)",
        attributed as f64 / 1e6,
        profile.root_total_ns as f64 / 1e6
    );
    Ok(())
}

/// The final `/`-separated segment of a span path.
fn last_segment(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn print_report(r: &mcds_maintain::RepairReport) {
    println!(
        "event {:>4}  {:<28} alive {:>4}  cds {:>3} ({:.2}x)  touched {:>3}  {}",
        r.seq,
        format!("{:?}", r.event),
        r.alive,
        r.cds_size,
        r.size_ratio(),
        r.nodes_touched,
        match r.decision {
            mcds_maintain::RepairDecision::Repaired => "repaired".to_string(),
            mcds_maintain::RepairDecision::Recomputed(reason) => format!("recomputed ({reason:?})"),
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("mcds_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn gen_stats_solve_roundtrip() {
        let f = tmp("inst1.udg");
        gen(&sv(&[
            "--n",
            "60",
            "--side",
            "4",
            "--seed",
            "3",
            "--connected",
            "-o",
            &f,
        ]))
        .unwrap();
        stats(&sv(&[&f])).unwrap();
        solve(&sv(&[&f, "--alg", "all", "--prune"])).unwrap();
        dist(&sv(&[&f])).unwrap();
    }

    #[test]
    fn gen_kinds() {
        for kind in ["uniform", "clustered", "grid", "chain"] {
            let f = tmp(&format!("kind_{kind}.udg"));
            gen(&sv(&["--n", "30", "--side", "5", "--kind", kind, "-o", &f])).unwrap();
        }
        let f = tmp("bad.udg");
        assert!(matches!(
            gen(&sv(&["--kind", "nope", "-o", &f])),
            Err(CliError::Usage(_))
        ));
        // Out-of-range sides are usage errors, for every kind.
        for side in ["inf", "nan", "-3", "0"] {
            for kind in ["uniform", "clustered"] {
                assert!(
                    matches!(
                        gen(&sv(&["--kind", kind, "--side", side, "-o", &f])),
                        Err(CliError::Usage(_))
                    ),
                    "{kind} --side {side} must be rejected"
                );
            }
        }
        // n = 0 writes the empty instance, for every kind.
        for kind in ["uniform", "clustered", "grid", "chain"] {
            let f = tmp(&format!("empty_{kind}.udg"));
            gen(&sv(&["--n", "0", "--kind", kind, "-o", &f])).unwrap();
            assert_eq!(io::load_instance(&f).unwrap().len(), 0, "{kind}");
        }
    }

    #[test]
    fn exact_and_verify() {
        let f = tmp("inst2.udg");
        gen(&sv(&[
            "--n",
            "14",
            "--side",
            "2",
            "--seed",
            "5",
            "--connected",
            "-o",
            &f,
        ]))
        .unwrap();
        exact(&sv(&[&f])).unwrap();
        // The whole vertex set is always a CDS of a connected instance.
        let all: String = (0..14).map(|i| i.to_string()).collect::<Vec<_>>().join(",");
        verify(&sv(&[&f, "--nodes", &all])).unwrap();
        // A single far node is generally not.
        let r = verify(&sv(&[&f, "--nodes", "0"]));
        // Either it happens to dominate (tiny dense instance) or we get
        // a runtime error; both are legal outcomes of the command.
        if let Err(e) = r {
            assert!(matches!(e, CliError::Runtime(_)));
        }
    }

    #[test]
    fn solve_writes_dot_and_svg() {
        let f = tmp("inst3.udg");
        let d = tmp("inst3.dot");
        let svg = tmp("inst3.svg");
        gen(&sv(&[
            "--n",
            "40",
            "--side",
            "3.5",
            "--seed",
            "9",
            "--connected",
            "-o",
            &f,
        ]))
        .unwrap();
        solve(&sv(&[&f, "--dot", &d, "--svg", &svg])).unwrap();
        let dot_text = std::fs::read_to_string(&d).unwrap();
        assert!(dot_text.contains("graph cds"));
        let svg_text = std::fs::read_to_string(&svg).unwrap();
        assert!(svg_text.starts_with("<svg"));
        assert!(svg_text.contains("#111111")); // dominators present
    }

    #[test]
    fn construct_variants() {
        construct(&sv(&["two-star"])).unwrap();
        construct(&sv(&["three-star", "--eps", "0.01"])).unwrap();
        let f = tmp("chain.udg");
        construct(&sv(&["chain", "--n", "5", "-o", &f])).unwrap();
        let udg = io::load_instance(&f).unwrap();
        assert_eq!(udg.len(), 5 + 18); // set + 3(n+1) packing
        assert!(matches!(
            construct(&sv(&["chain", "--n", "2"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(construct(&sv(&["wat"])), Err(CliError::Usage(_))));
        assert!(matches!(construct(&sv(&[])), Err(CliError::Usage(_))));
        // --eps outside (0, 0.05] is a usage error, not a panic.
        for bad in [
            &["two-star", "--eps", "-1"][..],
            &["two-star", "--eps", "nan"],
            &["three-star", "--eps", "5"],
            &["chain", "--n", "4", "--eps", "0"],
            &["chain", "--n", "4", "--eps", "0.06"],
        ] {
            assert!(
                matches!(construct(&sv(bad)), Err(CliError::Usage(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn analyze_route_broadcast() {
        let f = tmp("inst4.udg");
        gen(&sv(&[
            "--n",
            "50",
            "--side",
            "4",
            "--seed",
            "11",
            "--connected",
            "-o",
            &f,
        ]))
        .unwrap();
        analyze(&sv(&[&f])).unwrap();
        route(&sv(&[&f, "--from", "0", "--to", "10", "--alg", "all"])).unwrap();
        broadcast(&sv(&[&f, "--source", "3"])).unwrap();
        assert!(matches!(
            route(&sv(&[&f, "--from", "999"])),
            Err(CliError::Runtime(_))
        ));
        assert!(matches!(
            broadcast(&sv(&[&f, "--source", "999"])),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn sweep_csv_identical_across_thread_widths() {
        let f1 = tmp("sweep_t1.csv");
        let f4 = tmp("sweep_t4.csv");
        let base = ["--n", "40", "--side", "4", "--trials", "4", "--seed", "7"];
        let mut a1 = sv(&base);
        a1.extend(sv(&["--threads", "1", "--out", &f1]));
        let mut a4 = sv(&base);
        a4.extend(sv(&["--threads", "4", "--out", &f4]));
        sweep(&a1).unwrap();
        sweep(&a4).unwrap();
        let c1 = std::fs::read_to_string(&f1).unwrap();
        let c4 = std::fs::read_to_string(&f4).unwrap();
        assert!(c1.lines().count() > 1, "sweep produced no rows");
        assert_eq!(c1, c4, "sweep CSV must be byte-identical at any width");
        assert!(matches!(
            sweep(&sv(&["--alg", "nope"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            sweep(&sv(&["--trials", "0"])),
            Err(CliError::Usage(_))
        ));
        for side in ["inf", "nan", "-1"] {
            assert!(
                matches!(sweep(&sv(&["--side", side])), Err(CliError::Usage(_))),
                "--side {side} must be rejected"
            );
        }
    }

    #[test]
    fn solve_fault_tolerant_family_flags() {
        let f = tmp("inst_family.udg");
        gen(&sv(&[
            "--n",
            "50",
            "--side",
            "3.5",
            "--seed",
            "21",
            "--connected",
            "-o",
            &f,
        ]))
        .unwrap();
        solve(&sv(&[&f, "--m", "2", "--timings"])).unwrap();
        // --biconnect on an instance with an unavoidable cut vertex is a
        // runtime error, not a crash; on a 2-connected one it succeeds.
        // Either way the command must not panic.
        match solve(&sv(&[&f, "--m", "2", "--biconnect"])) {
            Ok(()) | Err(CliError::Runtime(_)) => {}
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(matches!(
            solve(&sv(&[&f, "--m", "5"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            solve(&sv(&[&f, "--m", "0"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn sweep_family_flags() {
        let out = tmp("sweep_family.csv");
        sweep(&sv(&[
            "--alg",
            "greedy",
            "--n",
            "30",
            "--side",
            "3",
            "--trials",
            "3",
            "--seed",
            "7",
            "--m",
            "2",
            "--biconnect",
            "--out",
            &out,
        ]))
        .unwrap();
        let csv = std::fs::read_to_string(&out).unwrap();
        assert!(csv.starts_with("alg,trial,n,size"));
        assert!(matches!(sweep(&sv(&["--m", "4"])), Err(CliError::Usage(_))));
    }

    #[test]
    fn churn_with_fault_injection() {
        churn(&sv(&[
            "--n",
            "60",
            "--side",
            "4",
            "--seed",
            "3",
            "--events",
            "40",
            "--m",
            "2",
            "--fault-every",
            "5",
            "--fault-kill",
            "2",
            "--fault-radius",
            "1.0",
        ]))
        .unwrap();
        assert!(matches!(
            churn(&sv(&["--waypoint", "--fault-every", "2"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            churn(&sv(&["--fault-every", "2", "--fault-kill", "0"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            churn(&sv(&["--fault-every", "2", "--fault-radius", "-1"])),
            Err(CliError::Usage(_))
        ));
        // Every out-of-range churn flag is a usage error, not a panic or a
        // silent empty run.
        for bad in [
            &["--side", "-3"][..],
            &["--drift", "0.5"],
            &["--drift", "nan"],
            &["--move-radius", "0"],
            &["--p-join", "0.8", "--p-leave", "0.5"],
            &["--p-leave", "-0.1"],
            &["--waypoint", "--speed-min", "0"],
            &["--waypoint", "--speed-min", "2", "--speed-max", "1"],
            &["--waypoint", "--pause", "-1"],
            &["--waypoint", "--dt", "-1"],
            &["--waypoint", "--dt", "0"],
        ] {
            assert!(
                matches!(churn(&sv(bad)), Err(CliError::Usage(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn solve_weighted_and_json_flags() {
        let f = tmp("inst_weighted.udg");
        gen(&sv(&[
            "--n",
            "40",
            "--side",
            "3.5",
            "--seed",
            "23",
            "--connected",
            "-o",
            &f,
        ]))
        .unwrap();
        solve(&sv(&[&f, "--weights", "degree"])).unwrap();
        solve(&sv(&[
            &f,
            "--weights",
            "random",
            "--weight-seed",
            "5",
            "--json",
        ]))
        .unwrap();
        solve(&sv(&[&f, "--json", "--alg", "all"])).unwrap();
        assert!(matches!(
            solve(&sv(&[&f, "--weights", "lucky"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn sweep_weighted_runs_and_unit_matches_classic() {
        let f_unit = tmp("sweep_w_unit.csv");
        let f_deg = tmp("sweep_w_deg.csv");
        let base = [
            "--alg", "greedy", "--n", "30", "--side", "3", "--trials", "3", "--seed", "7",
        ];
        let mut a = sv(&base);
        a.extend(sv(&["--weights", "unit", "--out", &f_unit]));
        let mut b = sv(&base);
        b.extend(sv(&["--weights", "degree", "--out", &f_deg]));
        sweep(&a).unwrap();
        sweep(&b).unwrap();
        // An explicit unit scheme must reproduce the classic path's CSV.
        let f_classic = tmp("sweep_w_classic.csv");
        let mut c = sv(&base);
        c.extend(sv(&["--out", &f_classic]));
        sweep(&c).unwrap();
        assert_eq!(
            std::fs::read_to_string(&f_unit).unwrap(),
            std::fs::read_to_string(&f_classic).unwrap()
        );
        assert!(matches!(
            sweep(&sv(&["--weights", "nope"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_client_modes_reject_bad_input() {
        assert!(matches!(
            serve(&sv(&["--bench", "127.0.0.1:1", "--clients", "0"])),
            Err(CliError::Usage(_))
        ));
        // One OS thread per client: past the bound, nothing connects.
        match serve(&sv(&["--bench", "127.0.0.1:9", "--clients", "1025"])) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("--clients"), "{msg}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
        // Nothing listens on a fresh ephemeral-range port we never bound.
        assert!(matches!(
            serve(&sv(&["--connect", "127.0.0.1:9"])),
            Err(CliError::Runtime(_))
        ));
        assert!(matches!(serve(&sv(&[])), Err(CliError::Usage(_))));
    }

    #[test]
    fn thread_counts_past_the_bound_are_usage_errors() {
        // Rejected while parsing: no pool region or daemon starts.
        let f = tmp("inst_thread_bound.udg");
        gen(&sv(&["--n", "20", "--side", "3", "--seed", "2", "-o", &f])).unwrap();
        for result in [
            sweep(&sv(&["--n", "20", "--trials", "1", "--threads", "1025"])),
            serve(&sv(&[&f, "--threads", "1025"])),
        ] {
            match result {
                Err(CliError::Usage(msg)) => assert!(msg.contains("--threads"), "{msg}"),
                other => panic!("expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn solve_unknown_alg_is_usage_error() {
        let f = tmp("inst_unknown_alg.udg");
        gen(&sv(&["--n", "20", "--side", "3", "--seed", "2", "-o", &f])).unwrap();
        match solve(&sv(&[&f, "--alg", "bogus"])) {
            Err(CliError::Usage(msg)) => {
                assert!(msg.contains("bogus"));
                assert!(
                    msg.contains("greedy"),
                    "message should list valid names: {msg}"
                );
            }
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn missing_file_is_runtime_error() {
        assert!(matches!(
            stats(&sv(&["/nonexistent/x.udg"])),
            Err(CliError::Runtime(_))
        ));
        assert!(matches!(stats(&sv(&[])), Err(CliError::Usage(_))));
    }

    #[test]
    fn trace_flame_writes_folded_and_svg() {
        // A hand-written trace with a well-formed span tree: one root
        // `solve` span (100µs) covering `phase1` (60µs, with a nested
        // `scan` of 20µs) and `phase2` (30µs), leaving 10µs of root
        // self time.  Hand-writing keeps the test independent of the
        // global tracing gate other tests toggle concurrently.
        let f = tmp("flame_in.jsonl");
        let trace_text = "\
{\"type\":\"meta\",\"version\":1,\"clock\":\"monotonic-ns\"}\n\
{\"type\":\"span\",\"seq\":0,\"thread\":0,\"depth\":2,\"name\":\"scan\",\"path\":\"solve/phase1/scan\",\"dur_ns\":20000}\n\
{\"type\":\"span\",\"seq\":1,\"thread\":0,\"depth\":1,\"name\":\"phase1\",\"path\":\"solve/phase1\",\"dur_ns\":60000}\n\
{\"type\":\"span\",\"seq\":2,\"thread\":0,\"depth\":1,\"name\":\"phase2\",\"path\":\"solve/phase2\",\"dur_ns\":30000}\n\
{\"type\":\"span\",\"seq\":3,\"thread\":0,\"depth\":0,\"name\":\"solve\",\"path\":\"solve\",\"dur_ns\":100000}\n";
        std::fs::write(&f, trace_text).unwrap();
        let folded = tmp("flame_out.folded");
        let svg = tmp("flame_out.svg");
        trace(&sv(&["flame", &f, "--folded", &folded, "--svg", &svg])).unwrap();
        let folded_text = std::fs::read_to_string(&folded).unwrap();
        // Self times: scan 20µs, phase1 60-20=40µs, phase2 30µs,
        // solve 100-90=10µs — and they sum back to the root wall.
        assert!(folded_text.contains("solve;phase1;scan 20000"));
        assert!(folded_text.contains("solve;phase1 40000"));
        assert!(folded_text.contains("solve;phase2 30000"));
        assert!(folded_text.contains("solve 10000"));
        let svg_text = std::fs::read_to_string(&svg).unwrap();
        assert!(svg_text.starts_with("<svg"));
        assert!(svg_text.contains("phase1"));
        // Default output paths derive from the input path.
        trace(&sv(&["flame", &f])).unwrap();
        assert!(std::path::Path::new(&format!("{f}.folded")).exists());
        assert!(std::path::Path::new(&format!("{f}.svg")).exists());
        // Bad verbs and absent files fail with the right error class.
        assert!(matches!(
            trace(&sv(&["flamegraph", &f])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            trace(&sv(&["flame", "/nonexistent/t.jsonl"])),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn top_snapshot_parses_metrics_reply() {
        let line = concat!(
            "{\"ok\":true,\"op\":\"metrics\",",
            "\"counters\":{\"serve.requests\":10},",
            "\"gauges\":{\"pool.queue\":-2},",
            "\"hists\":{\"serve.request_ns\":",
            "{\"count\":3,\"sum\":99,\"max\":50,\"buckets\":[[1,1],[5,2]]}}}"
        );
        let snap = parse_top_snapshot(line).unwrap();
        assert_eq!(snap.counters, vec![("serve.requests".to_string(), 10)]);
        assert_eq!(snap.gauges, vec![("pool.queue".to_string(), -2)]);
        assert_eq!(
            snap.hists,
            vec![(
                "serve.request_ns".to_string(),
                (3, 99, vec![(1, 1), (5, 2)])
            )]
        );
        // A reply without metrics sections is a runtime error, not a panic.
        assert!(matches!(
            parse_top_snapshot(r#"{"ok":false,"error":"nope"}"#),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn serve_top_polls_a_live_server() {
        let server = mcds_serve::Server::bind(
            "127.0.0.1:0",
            mcds_serve::ServeConfig::default(),
            (0..12)
                .map(|i| mcds_geom::Point::new(i as f64 * 0.8, 0.0))
                .collect(),
        )
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run().unwrap());
        serve(&sv(&["--top", &addr, "--interval-ms", "5", "--count", "2"])).unwrap();
        let mut client = mcds_serve::Client::connect(&addr).unwrap();
        client.request(r#"{"op":"shutdown"}"#).unwrap();
        handle.join().unwrap();
        // Interval validation happens before any connection attempt.
        assert!(matches!(
            serve(&sv(&["--top", "127.0.0.1:9", "--interval-ms", "0"])),
            Err(CliError::Usage(_))
        ));
    }
}
