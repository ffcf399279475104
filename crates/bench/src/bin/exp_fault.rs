//! E22 (robustness) — fault-tolerant backbones under failure injection.
//!
//! E17 (`exp_churn`) showed local repair absorbs *benign* churn.  This
//! experiment injects the malign kind — correlated regional kills and
//! independent batch failures from [`mcds_maintain::FaultGen`] — and
//! measures what the `m`-fold backbone family buys: one identical event
//! trace (synthetic churn with a fault burst every few slots) runs
//! through maintenance engines configured for `m = 1, 2, 3`, and each
//! arm reports
//!
//! * **violations** — nodes of the giant component left undominated by
//!   the surviving backbone at the moment an event lands, *before*
//!   repair runs.  Measured against plain (1-fold) domination for every
//!   arm, so the numbers compare across `m`; a valid `(1, m ≥ 2)`
//!   backbone absorbs any single death with zero violations,
//! * **recomputes** — events where local repair gave up and the engine
//!   rebuilt from scratch (the expensive failure mode),
//! * **size cost** — the mean backbone size, i.e. what the added
//!   redundancy costs in nodes.
//!
//! The `m = 1` arm draws the trace live ([`mcds_maintain::EventSource`]:
//! seeded `ChurnGen` churn with alternating regional/batch `FaultGen`
//! bursts) and records it; the `m = 2` and `m = 3` arms replay it
//! verbatim.  The alive population evolves identically in every arm
//! because it depends only on the applied events, never on the backbone.
//!
//! The run **fails (exit 1)** unless `m = 2` suffers ≤ half the
//! violations of `m = 1` and no more recomputes — the robustness claim
//! this experiment exists to certify.
//!
//! A weighted row group rides along: minimum-weight backbone size and
//! total weight on the initial topology across the
//! [`mcds_cds::WeightScheme`]s (`exp_fault_weighted.csv`), gated on
//! validity.
//!
//! Artifacts: `exp_fault.csv`, `exp_fault_weighted.csv` and
//! `exp_fault.json`, all deterministic for a seed; `exp_fault_timings.csv`
//! (wall time per event, mean and max per arm); and the perf-trajectory
//! entry `BENCH_fault.json`, in the output directory.
//!
//! Usage: `exp_fault [--quick] [--seed <u64>] [--out <dir>] [--threads <n>]`

use std::io::Write;

use mcds_bench::{f2, f3, ExpConfig, Table};
use mcds_geom::{Aabb, Point};
use mcds_maintain::{
    ChurnConfig, ChurnGen, EventSource, FaultConfig, FaultGen, MaintainConfig, Maintainer,
    RepairReport, StabilityMetrics, TopologyEvent,
};
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;
use mcds_udg::gen;

/// One engine arm's aggregated outcome over the shared trace.
#[derive(Default)]
struct Arm {
    m: usize,
    metrics: StabilityMetrics,
    /// Violations on `Leave` events only — coverage lost to node deaths.
    /// The headline robustness figure: joins and moves also shift giant
    /// membership and surface identically in every arm, so the total
    /// `violations_sum` under-states the redundancy effect.
    death_violations: usize,
    /// `Leave` events that undominated at least one node.
    death_violated_events: usize,
    size_sum: usize,
    final_population: usize,
}

impl Arm {
    fn new(m: usize) -> Self {
        Arm {
            m,
            metrics: StabilityMetrics::new(),
            ..Arm::default()
        }
    }

    fn record(&mut self, report: &RepairReport) {
        self.size_sum += report.cds_size;
        if matches!(report.event, TopologyEvent::Leave { .. }) {
            self.death_violations += report.violations;
            if report.violations > 0 {
                self.death_violated_events += 1;
            }
        }
        self.metrics.record(report);
    }

    fn mean_size(&self) -> f64 {
        if self.metrics.events == 0 {
            return 0.0;
        }
        self.size_sum as f64 / self.metrics.events as f64
    }
}

fn main() {
    let cfg = ExpConfig::from_args();
    // Sparse deployments (average degree ~5): clients have few incidental
    // dominators, so a killed backbone node actually undominates someone
    // — the regime where the m-fold redundancy has work to do.
    // Full mode stays a notch denser so the giant component is stable
    // (a giant-membership flip surfaces as identical violations in every
    // arm and says nothing about redundancy).
    let (n, side, events, fault_every) = if cfg.quick {
        (50, 5.5, 80, 3)
    } else {
        (120, 7.5, 400, 3)
    };

    println!("E22 (robustness): m-fold backbones under failure injection\n");
    println!(
        "n = {n}, region {side}x{side}, {events} events per arm, \
         fault burst every {fault_every} slots (regional/batch alternating)\n"
    );

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pts = gen::uniform_in_square(&mut rng, n, side);
    // Synthetic churn with a fault burst (regional and batch kills
    // alternating) every `fault_every`-th slot.
    let churn = ChurnGen::new(ChurnConfig {
        region: Aabb::square(side),
        // Joins outpace leaves so the injected deaths do not drain the
        // population over the run.
        p_join: 0.2,
        p_leave: 0.05,
        move_radius: 0.5,
        min_population: 4,
    });
    let faults = FaultGen::new(FaultConfig {
        radius: 1.25,
        batch: 3,
        min_population: n / 2,
    });
    let source = EventSource::Churn(churn, Some((faults, fault_every)));
    // The m = 1 arm (the default engine) runs live and records the trace
    // the other arms replay: the alive population, and so every event
    // drawn, depends only on the applied events, never on the backbone.
    let mut engine = Maintainer::with_population(MaintainConfig::default(), pts.clone());
    let mut first = Arm::new(1);
    let (mut trace, mut fault_deaths) = (Vec::with_capacity(events), 0);
    source.drive(&mut engine, &mut rng, events, |report, burst| {
        trace.push(report.event);
        fault_deaths += usize::from(burst);
        first.record(report);
    });
    first.final_population = engine.population();
    println!(
        "trace: {} events, {fault_deaths} of them fault-burst deaths\n",
        trace.len()
    );

    let mut arms = vec![first];
    arms.extend([2, 3].map(|m| replay(m, &pts, &trace)));

    let mut table = Table::new(&[
        "m",
        "death viol",
        "death ev",
        "total viol",
        "repaired",
        "recomputed",
        "mean survival",
        "mean |CDS|",
        "invalid",
    ]);
    let mut csv = cfg.csv("exp_fault");
    if let Some(w) = csv.as_mut() {
        w.row(&[
            "m",
            "events",
            "fault_deaths",
            "death_violations",
            "death_violated_events",
            "violations_sum",
            "violated_events",
            "repaired",
            "recomputed",
            "mean_survival",
            "min_survival",
            "mean_size",
            "invalid",
            "final_population",
        ]);
    }
    for arm in &arms {
        let mt = &arm.metrics;
        table.row(&[
            arm.m.to_string(),
            arm.death_violations.to_string(),
            arm.death_violated_events.to_string(),
            mt.violations_sum.to_string(),
            mt.repaired.to_string(),
            mt.recompute_total().to_string(),
            f3(mt.mean_survival()),
            f2(arm.mean_size()),
            mt.invalid_events.to_string(),
        ]);
        if let Some(w) = csv.as_mut() {
            w.row(&[
                arm.m.to_string(),
                mt.events.to_string(),
                fault_deaths.to_string(),
                arm.death_violations.to_string(),
                arm.death_violated_events.to_string(),
                mt.violations_sum.to_string(),
                mt.violated_events.to_string(),
                mt.repaired.to_string(),
                mt.recompute_total().to_string(),
                f3(mt.mean_survival()),
                f3(mt.survival_min),
                f2(arm.mean_size()),
                mt.invalid_events.to_string(),
                arm.final_population.to_string(),
            ]);
        }
    }
    table.print();

    // Wall clocks vary run to run: they get their own artifact.
    if let Some(mut w) = cfg.csv("exp_fault_timings") {
        w.row(&["m", "events", "mean_wall_us", "max_wall_us"]);
        for arm in &arms {
            let mt = &arm.metrics;
            w.row(&[
                arm.m.to_string(),
                mt.events.to_string(),
                format!("{:.1}", mt.mean_wall_us()),
                format!("{:.1}", mt.max_wall_us()),
            ]);
        }
    }

    let weighted_ok = weighted_group(&cfg, &pts);

    if let Some(dir) = &cfg.out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
        let json = to_json(n, side, events, fault_every, fault_deaths, &arms);
        let path = dir.join("exp_fault.json");
        let mut file = std::fs::File::create(&path).expect("create exp_fault.json");
        write!(file, "{json}").expect("write exp_fault.json");
        println!("\nwrote {}", path.display());
        let bench = dir.join("BENCH_fault.json");
        let mut file = std::fs::File::create(&bench).expect("create BENCH_fault.json");
        write!(file, "{}", to_bench_json(cfg.seed, events, &arms)).expect("write BENCH_fault.json");
        println!("wrote {}", bench.display());
    }

    if !weighted_ok {
        println!("RESULT: a weighted backbone failed validity — investigate!");
        std::process::exit(1);
    }

    let base = &arms[0];
    let hard = &arms[1];
    let halved = hard.death_violations * 2 <= base.death_violations;
    let no_more_recomputes = hard.metrics.recompute_total() <= base.metrics.recompute_total();
    println!();
    if arms.iter().any(|a| a.metrics.invalid_events > 0) {
        println!("RESULT: an arm left an invalid backbone — investigate!");
        std::process::exit(1);
    }
    if cfg.quick {
        // The quick trace is too short for the m = 1 arm to reliably
        // suffer death violations at all; smoke-check the ordering only.
        if hard.death_violations > base.death_violations {
            println!(
                "RESULT: m = 2 suffered MORE death violations ({} > {}) — investigate!",
                hard.death_violations, base.death_violations
            );
            std::process::exit(1);
        }
        println!(
            "RESULT (quick): death violations {} (m=1) vs {} (m=2); run without \
             --quick for the gated full-size comparison.",
            base.death_violations, hard.death_violations
        );
        return;
    }
    if base.death_violations > 0 && halved && no_more_recomputes {
        println!(
            "RESULT: doubling the domination fold cut death-caused coverage \
             violations from {} to {} ({:.0}% fewer) and recomputes from {} \
             to {} on the identical failure trace, at a {:.2}x backbone size \
             cost — redundancy, not faster repair, is what keeps clients \
             covered through correlated failures.",
            base.death_violations,
            hard.death_violations,
            100.0 * (1.0 - hard.death_violations as f64 / base.death_violations as f64),
            base.metrics.recompute_total(),
            hard.metrics.recompute_total(),
            hard.mean_size() / base.mean_size().max(1e-9)
        );
    } else {
        println!(
            "RESULT: robustness claim NOT met (death violations {} -> {}, \
             recomputes {} -> {}) — investigate!",
            base.death_violations,
            hard.death_violations,
            base.metrics.recompute_total(),
            hard.metrics.recompute_total()
        );
        std::process::exit(1);
    }
}

/// The weighted row group: minimum-weight backbone cost on the initial
/// topology's giant component, across the node-weight schemes of
/// [`mcds_cds::WeightScheme`] and `m ∈ {1, 2}`.  Sizes and totals are
/// deterministic (seeded weights, no wall time involved), so
/// `exp_fault_weighted.csv` is a comparable artifact.  Returns whether
/// every weighted backbone verified as a valid CDS.
fn weighted_group(cfg: &ExpConfig, pts: &[Point]) -> bool {
    use mcds_cds::{Algorithm, Solver, WeightScheme};
    use mcds_graph::{properties, traversal};
    use mcds_udg::Udg;

    let udg = Udg::build(pts.to_vec());
    let giant = traversal::largest_component(udg.graph());
    let sub = udg.restricted_to(&giant);
    let g = sub.graph();

    println!(
        "\nweighted backbones on the initial topology (giant component, {} nodes):\n",
        g.num_nodes()
    );
    let mut table = Table::new(&["scheme", "m", "size", "total weight", "valid"]);
    let mut csv = cfg.csv("exp_fault_weighted");
    if let Some(w) = csv.as_mut() {
        w.row(&["scheme", "m", "n", "size", "total_weight", "valid"]);
    }
    let schemes = [
        WeightScheme::Unit,
        WeightScheme::Degree,
        WeightScheme::Random(cfg.seed),
    ];
    let mut all_valid = true;
    for scheme in schemes {
        for m in [1usize, 2] {
            let cds = Solver::new(Algorithm::GreedyConnect)
                .m(m)
                .weight_scheme(scheme)
                .solve(g)
                .expect("giant component is connected")
                .into_cds();
            let valid = properties::is_connected_dominating_set(g, cds.nodes());
            all_valid &= valid;
            let total = scheme.total(g, cds.nodes());
            table.row(&[
                scheme.name().to_string(),
                m.to_string(),
                cds.len().to_string(),
                total.to_string(),
                valid.to_string(),
            ]);
            if let Some(w) = csv.as_mut() {
                w.row(&[
                    scheme.name().to_string(),
                    m.to_string(),
                    g.num_nodes().to_string(),
                    cds.len().to_string(),
                    total.to_string(),
                    valid.to_string(),
                ]);
            }
        }
    }
    table.print();
    all_valid
}

/// Replays the shared trace against a fresh engine configured for `m`.
fn replay(m: usize, pts: &[Point], trace: &[TopologyEvent]) -> Arm {
    let cfg = MaintainConfig {
        m,
        ..MaintainConfig::default()
    };
    let mut engine = Maintainer::with_population(cfg, pts.to_vec());
    let mut arm = Arm::new(m);
    for &event in trace {
        arm.record(&engine.apply(event));
    }
    arm.final_population = engine.population();
    arm
}

/// Hand-rolled JSON (the workspace is hermetic — no serde available).
fn to_json(
    n: usize,
    side: f64,
    events: usize,
    fault_every: usize,
    fault_deaths: usize,
    arms: &[Arm],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"config\": {{\"n\": {n}, \"side\": {side}, \"events\": {events}, \
         \"fault_every\": {fault_every}, \"fault_deaths\": {fault_deaths}}},\n"
    ));
    out.push_str("  \"arms\": [\n");
    for (i, arm) in arms.iter().enumerate() {
        let m = &arm.metrics;
        out.push_str(&format!(
            "    {{\"m\": {}, \"events\": {}, \
             \"death_violations\": {}, \"death_violated_events\": {}, \
             \"violations_sum\": {}, \"violated_events\": {}, \
             \"repaired\": {}, \
             \"recomputed\": {{\"cold\": {}, \"stalled\": {}, \"invalid\": {}, \"drift\": {}}}, \
             \"invalid_events\": {}, \
             \"survival\": {{\"mean\": {:.6}, \"min\": {:.6}}}, \
             \"mean_size\": {:.3}, \
             \"final_population\": {}}}{}\n",
            arm.m,
            m.events,
            arm.death_violations,
            arm.death_violated_events,
            m.violations_sum,
            m.violated_events,
            m.repaired,
            m.recomputed[0],
            m.recomputed[1],
            m.recomputed[2],
            m.recomputed[3],
            m.invalid_events,
            m.mean_survival(),
            m.survival_min,
            arm.mean_size(),
            arm.final_population,
            if i + 1 == arms.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `BENCH_*.json` trajectory entry: the handful of numbers a future
/// re-anchor diffs to see whether robustness or cost regressed.  Counter
/// fields are deterministic for a given seed; the `wall_us` figures are
/// wall-clock and excluded from comparisons by convention (DESIGN.md §8).
fn to_bench_json(seed: u64, events: usize, arms: &[Arm]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"fault\",\n");
    out.push_str(&format!(
        "  \"schema\": 1,\n  \"seed\": {seed},\n  \"events\": {events},\n"
    ));
    out.push_str("  \"points\": [\n");
    for (i, arm) in arms.iter().enumerate() {
        let m = &arm.metrics;
        out.push_str(&format!(
            "    {{\"m\": {}, \"death_violations\": {}, \"violations_sum\": {}, \
             \"violated_events\": {}, \
             \"recomputed\": {}, \"repaired\": {}, \"mean_size\": {:.3}, \
             \"wall_us_mean\": {:.1}}}{}\n",
            arm.m,
            arm.death_violations,
            m.violations_sum,
            m.violated_events,
            m.recompute_total(),
            m.repaired,
            arm.mean_size(),
            m.mean_wall_us(),
            if i + 1 == arms.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
