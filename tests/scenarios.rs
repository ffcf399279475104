//! Scenario matrix: every algorithm × every deployment family × every
//! application metric, verified end-to-end through the public API.
//!
//! This is the "does the whole product hold together" suite: if a change
//! breaks any pairing of generator, algorithm, verifier, router,
//! broadcaster or renderer, it fails here with a named scenario.

use mcds::cds::routing::stretch_stats;
use mcds::distsim::protocols::{run_broadcast, run_verify_cds};
use mcds::prelude::*;
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;

/// Named deployment scenarios spanning the families the generators
/// support.
fn scenarios() -> Vec<(&'static str, Udg)> {
    let mut rng = StdRng::seed_from_u64(1914);
    let mut out: Vec<(&'static str, Udg)> = Vec::new();

    let uniform =
        mcds::udg::gen::connected_uniform(&mut rng, 90, 5.5, 100).expect("dense uniform connects");
    out.push(("uniform", uniform));

    let clustered = {
        let pts = mcds::udg::gen::clustered(&mut rng, 4, 20, 6.0, 0.9);
        let udg = Udg::build(pts);
        let giant = mcds::graph::traversal::largest_component(udg.graph());
        udg.restricted_to(&giant)
    };
    out.push(("clustered", clustered));

    let grid = Udg::build(mcds::udg::gen::perturbed_grid(&mut rng, 8, 10, 0.8, 0.08));
    out.push(("grid", grid));

    let chain = Udg::build(mcds::udg::gen::linear_chain(40, 0.95));
    out.push(("chain", chain));

    let corridor = {
        let pts = mcds::udg::gen::corridor(&mut rng, 150, 25.0, 1.8);
        let udg = Udg::build(pts);
        let giant = mcds::graph::traversal::largest_component(udg.graph());
        udg.restricted_to(&giant)
    };
    out.push(("corridor", corridor));

    let annulus = {
        let pts = mcds::udg::gen::uniform_in_annulus(&mut rng, 140, Point::new(0.0, 0.0), 3.0, 5.0);
        let udg = Udg::build(pts);
        let giant = mcds::graph::traversal::largest_component(udg.graph());
        udg.restricted_to(&giant)
    };
    out.push(("annulus", annulus));

    out
}

#[test]
fn every_algorithm_on_every_scenario() {
    for (name, udg) in scenarios() {
        let g = udg.graph();
        assert!(g.is_connected(), "{name}: scenario must be connected");
        assert!(g.num_nodes() >= 2, "{name}: scenario too small");
        for alg in Algorithm::ALL {
            let solution = Solver::new(alg)
                .solve(g)
                .unwrap_or_else(|e| panic!("{name}/{alg}: {e}"));
            let cds = solution.cds();
            cds.verify(g)
                .unwrap_or_else(|e| panic!("{name}/{alg}: invalid CDS: {e}"));
            // Distributed self-verification agrees.
            let report = run_verify_cds(g, cds.nodes())
                .unwrap_or_else(|e| panic!("{name}/{alg}: verify protocol: {e}"));
            assert!(report.is_valid(), "{name}/{alg}: distributed verdict");
        }
    }
}

/// The instance `mcds-cli gen --n 150 --side 6.5 --seed 23 --connected`
/// writes: every algorithm must solve it with verify on, as `mcds-cli
/// solve` runs, at m = 1 with and without prune, and with prune at
/// m = 2 and at m = 2 biconnected.
#[test]
fn every_algorithm_solves_the_cli_instance_in_every_configuration() {
    let mut rng = StdRng::seed_from_u64(23);
    let udg = mcds::udg::gen::connected_uniform(&mut rng, 150, 6.5, 100).expect("connected");
    let g = udg.graph();
    for (m, biconnect, prune) in [
        (1, false, false),
        (1, false, true),
        (2, false, true),
        (2, true, true),
    ] {
        for alg in Algorithm::ALL {
            Solver::new(alg)
                .verify(true)
                .prune(prune)
                .m(m)
                .biconnect(biconnect)
                .solve(g)
                .unwrap_or_else(|e| panic!("{alg} m={m} biconnect={biconnect} prune={prune}: {e}"));
        }
    }
}

#[test]
fn applications_work_on_every_scenario() {
    for (name, udg) in scenarios() {
        let g = udg.graph();
        let solution = Solver::new(Algorithm::GreedyConnect)
            .solve(g)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let cds = solution.cds();

        // Broadcast: full coverage from two sources.
        for source in [0, g.num_nodes() - 1] {
            let out = run_broadcast(g, source, cds.nodes())
                .unwrap_or_else(|e| panic!("{name}: broadcast: {e}"));
            assert_eq!(out.reached, g.num_nodes(), "{name}: coverage from {source}");
        }

        // Routing: all pairs routable, stretch sane.
        let s = stretch_stats(g, cds.nodes()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(s.pairs, g.num_nodes() * (g.num_nodes() - 1), "{name}");
        assert!(
            s.mean >= 1.0 && s.mean < 4.0,
            "{name}: mean stretch {}",
            s.mean
        );

        // Pruning keeps validity.
        let pruned = mcds::cds::prune::prune_cds(g, cds.nodes())
            .unwrap_or_else(|e| panic!("{name}: prune: {e}"));
        assert!(properties::check_cds(g, &pruned).is_ok(), "{name}");

        // Rendering produces plausible SVG.
        let style = mcds::viz::UdgStyle {
            dominators: cds.dominators().to_vec(),
            connectors: cds.connectors().to_vec(),
            ..mcds::viz::UdgStyle::default()
        };
        let svg = mcds::viz::render_udg(&udg, &style);
        assert!(svg.starts_with("<svg"), "{name}");
        assert!(
            svg.matches("<circle").count() >= g.num_nodes(),
            "{name}: every node rendered"
        );
    }
}

#[test]
fn io_roundtrip_preserves_algorithm_outputs() {
    for (name, udg) in scenarios() {
        let text = mcds::udg::io::write_instance(&udg);
        let back = mcds::udg::io::parse_instance(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Same instance ⇒ same (deterministic) CDS.
        let a = Solver::new(Algorithm::GreedyConnect)
            .solve(udg.graph())
            .unwrap();
        let b = Solver::new(Algorithm::GreedyConnect)
            .solve(back.graph())
            .unwrap();
        assert_eq!(a.nodes(), b.nodes(), "{name}: determinism across I/O");
    }
}

#[test]
fn bound_sanity_on_every_scenario() {
    use mcds::mis::bounds;
    for (name, udg) in scenarios() {
        let g = udg.graph();
        let mis = BfsMis::compute(g, 0);
        let greedy = Solver::new(Algorithm::GreedyConnect).solve(g).unwrap();
        let waf = Solver::new(Algorithm::WafTree).solve(g).unwrap();
        // Structural inequalities that hold regardless of γ_c:
        assert!(greedy.len() <= 2 * mis.len(), "{name}");
        assert!(waf.len() <= 2 * mis.len() + 1, "{name}");
        // Certified lower bound never exceeds what any algorithm built.
        let diam = mcds::graph::traversal::diameter(g).expect("connected");
        let lb = bounds::gamma_lower_bound_from_diameter(diam)
            .max(bounds::gamma_lower_bound_from_alpha(mis.len()))
            .max(1);
        assert!(
            lb <= greedy.len(),
            "{name}: lb {lb} > greedy {}",
            greedy.len()
        );
        assert!(lb <= waf.len(), "{name}");
    }
}
