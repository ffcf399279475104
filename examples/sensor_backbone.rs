//! The motivating application: broadcast over a CDS backbone.
//!
//! In a wireless ad hoc network, naive flooding makes *every* node
//! retransmit a broadcast once.  With a CDS backbone, only backbone nodes
//! retransmit — every node still hears the message (the backbone
//! dominates), and the backbone's connectivity carries it everywhere.
//! This example measures the transmission savings on a realistic
//! deployment, which is exactly why the paper wants the CDS *small*.
//!
//! Run with: `cargo run --example sensor_backbone`

use mcds::prelude::*;
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;
use std::collections::VecDeque;

/// Simulates a source broadcast where only `relays` retransmit.
/// Returns (nodes reached, transmissions used).
fn broadcast(g: &Graph, source: usize, relays: &[usize]) -> (usize, usize) {
    let relay_mask = mcds::graph::node_mask(g.num_nodes(), relays);
    let mut heard = vec![false; g.num_nodes()];
    let mut queued = vec![false; g.num_nodes()];
    let mut tx = 0usize;
    let mut queue = VecDeque::new();
    heard[source] = true;
    queued[source] = true;
    queue.push_back(source); // the source always transmits once
    while let Some(v) = queue.pop_front() {
        tx += 1;
        for u in g.neighbors_iter(v) {
            if !heard[u] {
                heard[u] = true;
                // Only backbone members (and the source) relay further.
                if relay_mask[u] && !queued[u] {
                    queued[u] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    (heard.iter().filter(|&&h| h).count(), tx)
}

fn main() -> Result<(), CdsError> {
    let mut rng = StdRng::seed_from_u64(31415);
    let udg = mcds::udg::gen::connected_uniform(&mut rng, 300, 9.0, 100).expect("dense deployment");
    let g = udg.graph();
    let n = g.num_nodes();
    println!("network: {n} nodes, {} links\n", g.num_edges());

    let everyone: Vec<usize> = (0..n).collect();
    let backbone = Solver::new(Algorithm::GreedyConnect).solve(g)?;

    let source = 0;
    let (reach_flood, tx_flood) = broadcast(g, source, &everyone);
    let (reach_cds, tx_cds) = broadcast(g, source, backbone.nodes());

    assert_eq!(reach_flood, n, "flooding reaches everyone");
    assert_eq!(reach_cds, n, "CDS relaying also reaches everyone");

    println!("naive flooding : {tx_flood:4} transmissions (every node relays)");
    println!(
        "CDS backbone   : {tx_cds:4} transmissions ({} backbone nodes relay)",
        backbone.len()
    );

    // Cross-check the hand-rolled count against the radio simulator's
    // relay protocol — two independent implementations must agree.
    let sim = mcds::distsim::protocols::run_broadcast(g, source, backbone.nodes())
        .expect("valid protocol");
    assert_eq!(sim.reached, n);
    assert_eq!(sim.stats.transmissions as usize, tx_cds);
    println!(
        "savings        : {:.1}% of transmissions eliminated",
        100.0 * (1.0 - tx_cds as f64 / tx_flood as f64)
    );

    // The same guarantee holds from any source: the backbone dominates.
    for s in [n / 2, n - 1] {
        let (reach, _) = broadcast(g, s, backbone.nodes());
        assert_eq!(reach, n);
    }
    println!("\nchecked: broadcasts from other sources also reach all {n} nodes");
    Ok(())
}
