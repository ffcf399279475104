//! Routing via the virtual backbone — the original CDS application
//! (Das & Bharghavan), measured on a realistic deployment.
//!
//! Routes are confined to the backbone (intermediate hops must be
//! backbone members), which shrinks routing state from `n` nodes to
//! `|CDS|` nodes; the price is path stretch.  This example quantifies
//! that tradeoff for the paper's two algorithms and self-verifies the
//! backbone with the distributed verification protocol.
//!
//! Run with: `cargo run --release --example backbone_routing`

use mcds::cds::routing::stretch_stats;
use mcds::distsim::protocols::run_verify_cds;
use mcds::prelude::*;
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;

fn main() -> Result<(), CdsError> {
    let mut rng = StdRng::seed_from_u64(2718);
    let udg = mcds::udg::gen::connected_uniform(&mut rng, 180, 7.0, 100).expect("dense deployment");
    let g = udg.graph();
    println!(
        "network: {} nodes, {} links, diameter {}\n",
        g.num_nodes(),
        g.num_edges(),
        mcds::graph::traversal::diameter(g).expect("connected")
    );

    for (name, alg) in [
        ("greedy", Algorithm::GreedyConnect),
        ("waf", Algorithm::WafTree),
    ] {
        let cds = Solver::new(alg).solve(g)?;
        // Self-verify with radio messages only, then measure routing.
        let report = run_verify_cds(g, cds.nodes()).expect("protocol runs");
        assert!(report.is_valid(), "distributed verification must pass");
        let s = stretch_stats(g, cds.nodes()).expect("a CDS routes all pairs");
        println!(
            "{name:<6} backbone {:3} nodes | routing state shrunk {:.1}x | \
             mean stretch {:.3} | worst {:.2} | mean extra hops {:.2}",
            cds.len(),
            g.num_nodes() as f64 / cds.len() as f64,
            s.mean,
            s.max,
            s.mean_additive
        );
    }

    println!(
        "\ntradeoff: greedy's smaller backbone saves more routing state; WAF's \
         tree-shaped connectors route closer to shortest paths (see E13)."
    );
    Ok(())
}
