//! Quickstart: build a virtual backbone for a random sensor deployment.
//!
//! Run with: `cargo run --example quickstart`

use mcds::prelude::*;
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;

fn main() -> Result<(), CdsError> {
    // 120 sensors, unit radio range, 6×6 deployment field.
    let mut rng = StdRng::seed_from_u64(2008);
    let udg = mcds::udg::gen::connected_uniform(&mut rng, 120, 6.0, 100)
        .expect("this density is essentially always connected");
    let g = udg.graph();
    println!(
        "deployment: {} nodes, {} links, avg degree {:.1}",
        g.num_nodes(),
        g.num_edges(),
        g.avg_degree()
    );

    // The paper's new algorithm (Section IV): first-fit MIS dominators +
    // greedy max-gain connectors.  Ratio ≤ 6 7/18 (Theorem 10).
    let greedy = Solver::new(Algorithm::GreedyConnect).solve(g)?.into_cds();
    greedy
        .verify(g)
        .expect("algorithm output is always a valid CDS");
    println!(
        "greedy backbone : {:3} nodes ({} dominators + {} connectors)",
        greedy.len(),
        greedy.dominators().len(),
        greedy.connectors().len()
    );

    // The classic WAF algorithm [10] (Section III analysis).  Ratio ≤ 7⅓.
    let waf = Solver::new(Algorithm::WafTree).solve(g)?.into_cds();
    println!(
        "waf backbone    : {:3} nodes ({} dominators + {} connectors)",
        waf.len(),
        waf.dominators().len(),
        waf.connectors().len()
    );

    // Certified quality statement, no exact solver needed: γ_c is at
    // least max(diam − 1, ⌈3(|I|−1)/11⌉) on unit-disk graphs.
    let diam = mcds::graph::traversal::diameter(g).expect("connected");
    let mis_size = BfsMis::compute(g, 0).len();
    let lb = mcds::mis::bounds::gamma_lower_bound_from_diameter(diam)
        .max(mcds::mis::bounds::gamma_lower_bound_from_alpha(mis_size))
        .max(1);
    println!(
        "certified: optimum >= {lb}, so the greedy backbone is within {:.2}x of optimal",
        greedy.len() as f64 / lb as f64
    );
    Ok(())
}
