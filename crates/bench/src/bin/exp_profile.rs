//! E19 — solver phase anatomy under the `mcds-obs` subscriber: where the
//! two-phased construction spends its time as `n` grows, and the work
//! counters that explain it.
//!
//! One seeded disk graph per `n` (giant component of a uniform
//! deployment; side grows as `√n` to hold average degree near 10) is
//! solved with `GreedyConnect` (prune + verify on).  Per-phase wall time
//! comes from [`Solver::timings`]; alongside it the experiment reports
//! the `mcds-obs` counters recorded by the instrumented solver —
//! connector candidates scanned, connectors selected, prune removals,
//! the prune's global articulation passes — which are deterministic and
//! explain the wall-clock shape.
//!
//! The `*_ms` columns make `exp_profile.csv` a **timing-only artifact**
//! (DESIGN.md §8–9): the counter columns are byte-stable across runs,
//! the wall-clock ones are not, so this CSV is never diffed for
//! determinism.  Alongside it the experiment writes `BENCH_profile.json`
//! — the perf-trajectory entry future re-anchors diff to see whether the
//! solve curve regressed (counters exactly, wall times by eyeball).
//!
//! Usage: `exp_profile [--quick] [--seed <u64>] [--out <dir>] [--threads <n>]`

use std::io::Write;
use std::time::Instant;

use mcds_bench::sweeps::ms;
use mcds_bench::{f2, ExpConfig, Table};
use mcds_cds::{Algorithm, Solver};
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;
use mcds_udg::gen;

/// One row of the `BENCH_profile.json` trajectory entry:
/// `(n, giant, edges, cds, solve_ms, scanned, selected, pruned, passes)`.
type ProfilePoint = (usize, usize, usize, usize, f64, u64, u64, u64, u64);

fn main() {
    let cfg = ExpConfig::from_args();
    // Quick mode stays in test-suite range; the full sweep reaches the
    // million-node full solve (prune on) of the README performance table.
    let sizes: &[usize] = if cfg.quick {
        &[500, 1_000, 2_000]
    } else {
        &[1_000, 5_000, 10_000, 20_000, 50_000, 100_000, 1_000_000]
    };

    // This experiment *is* the observability demo: turn the subscriber on
    // so the instrumented solver records counters and span histograms.
    mcds_obs::enable();

    println!("E19: solver phase anatomy (GreedyConnect, prune + verify) with mcds-obs\n");
    let mut table = Table::new(&[
        "n",
        "giant",
        "edges",
        "cds",
        "build_ms",
        "phase1_ms",
        "phase2_ms",
        "verify_ms",
        "prune_ms",
        "scanned",
        "passes",
        "p2 share %",
    ]);
    let mut csv = cfg.csv("exp_profile");
    if let Some(w) = csv.as_mut() {
        w.row(&[
            "n",
            "giant",
            "edges",
            "cds_size",
            "build_ms",
            "phase1_ms",
            "phase2_ms",
            "verify_ms",
            "prune_ms",
            "candidates_scanned",
            "connectors_selected",
            "prune_removed",
            "prune_global_passes",
        ]);
    }

    let mut points: Vec<ProfilePoint> = Vec::new();

    for &n in sizes {
        // Fresh counters per size: the registry is process-global and the
        // scan counts below must belong to this solve alone.
        mcds_obs::reset();
        let side = (n as f64 * std::f64::consts::PI / 10.0).sqrt();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ n as u64);

        let start = Instant::now();
        let udg = gen::giant_component_instance(&mut rng, n, side);
        let build = start.elapsed();
        let g = udg.graph();

        let solution = Solver::new(Algorithm::GreedyConnect)
            .prune(true)
            .verify(true)
            .timings(true)
            .solve(g)
            .expect("giant component is connected");
        let t = solution.timings();

        let scanned = mcds_obs::counter_value("connectors.candidates_scanned");
        let selected = mcds_obs::counter_value("connectors.selected");
        let pruned = mcds_obs::counter_value("prune.removed");
        let passes = mcds_obs::counter_value("prune.global_passes");
        let solve_total = (t.phase1 + t.phase2 + t.verify + t.prune).as_secs_f64();
        let p2_share = 100.0 * t.phase2.as_secs_f64() / solve_total.max(1e-9);
        points.push((
            n,
            g.num_nodes(),
            g.num_edges(),
            solution.len(),
            solve_total * 1e3,
            scanned,
            selected,
            pruned,
            passes,
        ));

        table.row(&[
            n.to_string(),
            g.num_nodes().to_string(),
            g.num_edges().to_string(),
            solution.len().to_string(),
            ms(build),
            ms(t.phase1),
            ms(t.phase2),
            ms(t.verify),
            ms(t.prune),
            scanned.to_string(),
            passes.to_string(),
            f2(p2_share),
        ]);
        if let Some(w) = csv.as_mut() {
            w.row(&[
                n.to_string(),
                g.num_nodes().to_string(),
                g.num_edges().to_string(),
                solution.len().to_string(),
                ms(build),
                ms(t.phase1),
                ms(t.phase2),
                ms(t.verify),
                ms(t.prune),
                scanned.to_string(),
                selected.to_string(),
                pruned.to_string(),
                passes.to_string(),
            ]);
        }
    }
    table.print();

    if let Some(dir) = &cfg.out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
        let path = dir.join("BENCH_profile.json");
        let mut file = std::fs::File::create(&path).expect("create BENCH_profile.json");
        write!(file, "{}", to_bench_json(cfg.seed, &points)).expect("write BENCH_profile.json");
        println!("\nwrote {}", path.display());
    }

    let &(n, .., solve_ms, _, _, _, passes) = points.last().expect("at least one rung");
    println!();
    println!(
        "RESULT: at n = {n} the full solve (prune + verify on) takes {solve_ms:.0} ms \
         with {passes} global articulation pass(es) in the prune: local cut-vertex \
         certificates decide the other candidates, so no phase rescans the \
         backbone per removal."
    );
}

/// The `BENCH_*.json` trajectory entry (hand-rolled JSON; the workspace
/// is hermetic).  `cds_size` and the counters are deterministic for a
/// given seed and diff exactly across re-anchors; `solve_ms` is
/// wall-clock and compared only by eyeball (DESIGN.md §8).
fn to_bench_json(seed: u64, points: &[ProfilePoint]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"profile\",\n");
    out.push_str(&format!("  \"schema\": 1,\n  \"seed\": {seed},\n"));
    out.push_str("  \"points\": [\n");
    for (i, &(n, giant, edges, cds, solve_ms, scanned, selected, pruned, passes)) in
        points.iter().enumerate()
    {
        out.push_str(&format!(
            "    {{\"n\": {n}, \"giant\": {giant}, \"edges\": {edges}, \
             \"cds_size\": {cds}, \"solve_ms\": {solve_ms:.3}, \
             \"candidates_scanned\": {scanned}, \"connectors_selected\": {selected}, \
             \"prune_removed\": {pruned}, \"prune_global_passes\": {passes}}}{}\n",
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
