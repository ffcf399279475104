//! The in-process solve workloads: one resident graph, solved again and
//! again by one thread (closed loop).

use std::time::{Duration, Instant};

use mcds_cds::{check_cds, connect, prune, Algorithm, Cds, Solver};
use mcds_graph::{traversal, Graph};
use mcds_mis::BfsMis;
use mcds_udg::Udg;

use crate::input::{self, Rng};
use crate::loadgen::ms;
use crate::reference::Sweep;
use crate::report::{self, EndToEnd, Layers, RunResult};
use crate::stats::{median, median_or_zero};

/// Shape of one solve workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Deployed nodes (before the giant component is taken).
    pub n: usize,
    /// Expected average degree of the deployment.
    pub degree: f64,
    /// Whether the op runs the prune post-pass.
    pub prune: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// Input stream id of the solve deployments.
const STREAM: u64 = 1;
/// Reference sweeps timed before each op (~20 ms, a few percent of it).
const SWEEPS_PER_OP: usize = 20;

/// The resident graph and the timings of building it.
struct Resident {
    udg: Udg,
    edges: usize,
    setup_s: Vec<f64>,
    build_ms: Vec<f64>,
    giant_ms: Vec<f64>,
}

/// Builds the UDG and its giant component `setups` times (the program's
/// one-time path on this input) and keeps the last one.
fn set_up(spec: Spec, seed: u64) -> Resident {
    let side = input::side_for_degree(spec.n, spec.degree);
    let points = input::uniform_points(&mut Rng::new(seed, STREAM), spec.n, side);
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut giant_ms = Vec::new();
    let mut kept: Option<(Udg, usize)> = None;
    for _ in 0..spec.setups.max(1) {
        // Free the previous graph first so set-ups do not stack memory.
        drop(kept.take());
        let pts = points.clone();
        let t0 = Instant::now();
        let udg = Udg::with_radius(pts, 1.0);
        let t1 = Instant::now();
        let giant = traversal::largest_component(udg.graph());
        let sub = udg.restricted_to(&giant);
        let t2 = Instant::now();
        setup_s.push((t2 - t0).as_secs_f64());
        build_ms.push(ms(t1 - t0));
        giant_ms.push(ms(t2 - t1));
        kept = Some((sub, udg.graph().num_edges()));
    }
    let (udg, edges) = kept.expect("at least one set-up ran");
    Resident {
        udg,
        edges,
        setup_s,
        build_ms,
        giant_ms,
    }
}

/// Runs the op — the full solver, as a library user calls it — once,
/// timing only the solve, then checks the result against `g` and, when
/// given, the reference backbone.  Returns the backbone, the solve time
/// and whether it passed.
fn checked_solve(
    spec: Spec,
    g: &Graph,
    reference: Option<&[usize]>,
) -> (Vec<usize>, Duration, bool) {
    let t = Instant::now();
    let solved = Solver::new(Algorithm::GreedyConnect)
        .prune(spec.prune)
        .verify(true)
        .solve(g);
    let elapsed = t.elapsed();
    match solved {
        Ok(sol) => {
            let nodes = sol.nodes().to_vec();
            let ok = check_cds(g, &nodes).is_ok() && reference.is_none_or(|r| r == nodes);
            (nodes, elapsed, ok)
        }
        Err(e) => {
            eprintln!("solve failed: {e}");
            (Vec::new(), elapsed, false)
        }
    }
}

/// One op composed from the four layer entry points in the solver's
/// order, each call timed, with the `mcds_obs` counters on.
#[derive(Debug, Default)]
struct Composed {
    nodes: Vec<usize>,
    total_ms: f64,
    phase1_ms: f64,
    phase2_ms: f64,
    verify_ms: f64,
    prune_ms: f64,
    dominators: usize,
    connectors: usize,
    scanned: u64,
    prune_candidates: usize,
    prune_removed: usize,
}

fn composed(spec: Spec, g: &Graph) -> Result<Composed, String> {
    mcds_obs::reset();
    let start = Instant::now();
    let mut c = Composed::default();

    let t = Instant::now();
    let phase1 = BfsMis::compute(g, 0);
    if !phase1.tree().spans(g) {
        return Err("graph is disconnected".into());
    }
    let mis = phase1.mis().to_vec();
    c.phase1_ms = ms(t.elapsed());
    c.dominators = mis.len();

    let t = Instant::now();
    let connectors = connect::max_gain_connectors(g, &mis).map_err(|e| e.to_string())?;
    c.phase2_ms = ms(t.elapsed());
    let cds = Cds::new(mis, connectors);
    c.connectors = cds.connectors().len();
    c.scanned = mcds_obs::counter_value("connectors.candidates_scanned");

    let t = Instant::now();
    cds.verify(g).map_err(|e| e.to_string())?;
    c.verify_ms = ms(t.elapsed());

    c.nodes = if spec.prune {
        let t = Instant::now();
        let kept = prune::prune_cds(g, cds.nodes()).map_err(|e| e.to_string())?;
        c.prune_ms = ms(t.elapsed());
        c.prune_candidates = cds.len();
        c.prune_removed = cds.len() - kept.len();
        kept
    } else {
        cds.nodes().to_vec()
    };
    c.total_ms = ms(start.elapsed());
    Ok(c)
}

/// Runs one solve workload for `seconds` and reports.
pub fn run(spec: Spec, seed: u64, seconds: u64, trace: bool) -> RunResult {
    let res = set_up(spec, seed);
    let g = res.udg.graph();
    let mut sweep = Sweep::new(g);
    let mut r = RunResult::default();

    // The first op is the reference every later op must equal; it also
    // warms the allocator and caches, so it is not timed.
    let (reference, _, ok) = checked_solve(spec, g, None);
    r.attempted += 1;
    r.failed += usize::from(!ok);

    let window = Duration::from_secs(seconds);
    let mut untraced_ms = Vec::new();
    let mut ref_ms = Vec::new();
    // Each op over the reference sweeps timed just before it.
    let mut ratios = Vec::new();
    let mut traced: Vec<Composed> = Vec::new();
    let start = Instant::now();
    // A traced run alternates the plain op with the composed, traced one,
    // so both see the same machine and the overhead figure compares like
    // with like.
    while start.elapsed() < window || untraced_ms.is_empty() || (trace && traced.is_empty()) {
        let sweep_ms = sweep.time(SWEEPS_PER_OP);
        ref_ms.push(sweep_ms);
        let (_, elapsed, ok) = checked_solve(spec, g, Some(&reference));
        r.attempted += 1;
        if ok {
            untraced_ms.push(ms(elapsed));
            ratios.push(ms(elapsed) / sweep_ms);
        } else {
            r.failed += 1;
        }
        if !trace {
            continue;
        }
        mcds_obs::enable();
        let c = composed(spec, g);
        mcds_obs::disable();
        r.attempted += 1;
        match c {
            Ok(c) if c.nodes == reference && check_cds(g, &c.nodes).is_ok() => traced.push(c),
            Ok(_) => {
                eprintln!("composed op differs from the solver's backbone");
                r.failed += 1;
            }
            Err(e) => {
                eprintln!("composed op failed: {e}");
                r.failed += 1;
            }
        }
    }
    r.correct = r.failed == 0;

    let op = median(&untraced_ms);
    report::note("op_ms", op);
    report::note("ref_ms", median(&ref_ms));
    println!("note op_ms samples {untraced_ms:.1?}");
    println!(
        "note setup_s samples {:?}; nodes {} of {} in the giant component, {} edges",
        res.setup_s,
        g.num_nodes(),
        spec.n,
        res.edges
    );
    let op_p50_ms = op.map_or(f64::INFINITY, |p| p.value);
    if !trace {
        EndToEnd {
            setup_s: median_or_zero(&res.setup_s),
            op_norm: median(&ratios).map_or(f64::INFINITY, |p| p.value),
            cds_size: reference.len(),
            peak_rss_mb: report::peak_rss_mb(),
        }
        .put(&mut r);
        return r;
    }

    let col = |f: fn(&Composed) -> f64| -> f64 {
        median_or_zero(&traced.iter().map(f).collect::<Vec<_>>())
    };
    let phases = [
        col(|c| c.phase1_ms),
        col(|c| c.phase2_ms),
        col(|c| c.verify_ms),
        col(|c| c.prune_ms),
    ];
    let first = traced.first();
    let count = |f: fn(&Composed) -> usize| first.map_or(0, f);
    let candidates = count(|c| c.prune_candidates);
    let removed = count(|c| c.prune_removed);
    report::note(
        "traced_op_ms",
        median(&traced.iter().map(|c| c.total_ms).collect::<Vec<_>>()),
    );
    Layers {
        udg_build_ms: median_or_zero(&res.build_ms),
        udg_edges: res.edges,
        graph_giant_ms: median_or_zero(&res.giant_ms),
        mis_phase1_ms: phases[0],
        mis_dominators: count(|c| c.dominators),
        cds_phase2_ms: phases[1],
        cds_candidates_scanned: first.map_or(0, |c| c.scanned),
        cds_connectors: count(|c| c.connectors),
        cds_verify_ms: phases[2],
        cds_prune_ms: phases[3],
        cds_prune_removed: removed,
        cds_prune_yield: if candidates == 0 {
            0.0
        } else {
            removed as f64 / candidates as f64
        },
        obs_overhead_pct: (col(|c| c.total_ms) / op_p50_ms - 1.0) * 100.0,
        obs_attributed_pct: phases.iter().sum::<f64>() / op_p50_ms * 100.0,
        ..Layers::default()
    }
    .put(&mut r);
    r
}
