//! Running the WAF construction as a real distributed protocol.
//!
//! Every node is an independent state machine exchanging radio messages
//! in synchronous rounds; nobody sees the global topology.  Three phases:
//! min-id flooding (leader election + BFS tree), rank-based MIS election,
//! and the constant-round connector protocol.  The example shows the
//! per-phase cost and that the result is node-for-node identical to the
//! centralized algorithm.
//!
//! Run with: `cargo run --example distributed_waf`

use mcds::distsim::pipeline::run_waf_distributed;
use mcds::prelude::*;
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(1848);
    let udg = mcds::udg::gen::connected_uniform(&mut rng, 150, 6.5, 100).expect("dense deployment");
    let g = udg.graph();
    println!("network: {} nodes, {} links", g.num_nodes(), g.num_edges());

    let run = run_waf_distributed(g).expect("connected network");
    println!("\nelected leader: node {}", run.root);
    println!("phase                rounds  transmissions  receptions");
    for (name, s) in [
        ("flooding (BFS tree)", run.flood),
        ("MIS election       ", run.mis),
        ("WAF connectors     ", run.connect),
    ] {
        println!(
            "{name}  {:>6}  {:>13}  {:>10}",
            s.rounds, s.transmissions, s.receptions
        );
    }
    println!(
        "total                {:>6}  {:>13}",
        run.total_rounds(),
        run.total_transmissions()
    );

    let central = Solver::new(Algorithm::WafTree)
        .root(run.root)
        .solve(g)
        .expect("connected network");
    assert_eq!(run.cds.nodes(), central.nodes());
    println!(
        "\ndistributed CDS ({} nodes) is identical to the centralized construction",
        run.cds.len()
    );
    run.cds.verify(g).expect("valid CDS");

    let diam = mcds::graph::traversal::diameter(g).expect("connected");
    println!(
        "network diameter {diam}; the protocol used {} rounds (~O(diam))",
        run.total_rounds()
    );
}
