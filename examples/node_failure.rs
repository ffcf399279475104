//! Backbone maintenance under node failure.
//!
//! Virtual backbones in ad hoc networks must survive node deaths.  This
//! example fails the busiest backbone node and compares two recovery
//! strategies:
//!
//! 1. **Full rebuild** — rerun the greedy two-phased algorithm on the
//!    surviving network (optimal-quality but churns the whole backbone);
//! 2. **Local repair** — keep the surviving backbone, patch domination
//!    greedily and reconnect with the library's connector engine
//!    (touches few nodes).
//!
//! Run with: `cargo run --example node_failure`

use mcds::cds::connect;
use mcds::graph::bitgraph::{masked_articulation_points, ArticulationScratch, BitSet};
use mcds::prelude::*;
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;

/// Greedily restores domination: while some node is undominated, add the
/// candidate covering the most undominated nodes.
fn patch_domination(g: &Graph, set: &mut Vec<usize>) {
    loop {
        let mask = mcds::graph::node_mask(g.num_nodes(), set);
        let undominated: Vec<usize> = (0..g.num_nodes())
            .filter(|&v| !mask[v] && !g.neighbors_iter(v).any(|u| mask[u]))
            .collect();
        if undominated.is_empty() {
            return;
        }
        let best = (0..g.num_nodes())
            .filter(|&c| !mask[c])
            .max_by_key(|&c| {
                undominated
                    .iter()
                    .filter(|&&v| v == c || g.has_edge(c, v))
                    .count()
            })
            .expect("some candidate exists");
        set.push(best);
    }
}

fn symmetric_difference(a: &[usize], b: &[usize]) -> usize {
    let sa: std::collections::BTreeSet<_> = a.iter().collect();
    let sb: std::collections::BTreeSet<_> = b.iter().collect();
    sa.symmetric_difference(&sb).count()
}

fn main() -> Result<(), CdsError> {
    let mut rng = StdRng::seed_from_u64(404);
    let udg = mcds::udg::gen::connected_uniform(&mut rng, 200, 7.5, 100).expect("dense deployment");
    let g = udg.graph();
    let backbone = Solver::new(Algorithm::GreedyConnect).solve(g)?;
    println!(
        "initial backbone: {} nodes on a {}-node network",
        backbone.len(),
        g.num_nodes()
    );

    // How fragile is the backbone itself?  Articulation points of the
    // backbone-induced subgraph are its single points of failure.
    let mut cut = BitSet::new(g.num_nodes());
    masked_articulation_points(
        g,
        &BitSet::from_nodes(g.num_nodes(), backbone.nodes()),
        &mut ArticulationScratch::new(),
        &mut cut,
    );
    let cuts = cut.to_nodes();
    println!(
        "backbone fragility: {} of {} backbone nodes are single points of failure",
        cuts.len(),
        backbone.len()
    );

    // Fail the highest-degree *critical* backbone node (worst case for
    // repair); fall back to highest-degree if the backbone is 2-connected.
    let &failed = cuts
        .iter()
        .chain(backbone.nodes().iter())
        .max_by_key(|&&v| g.degree(v))
        .expect("nonempty backbone");
    println!(
        "failing backbone node {failed} (degree {})",
        g.degree(failed)
    );

    // The surviving network: everyone but the failed node.
    let survivors: Vec<usize> = (0..g.num_nodes()).filter(|&v| v != failed).collect();
    let sub = udg.restricted_to(&survivors);
    let sg = sub.graph();
    if !sg.is_connected() {
        println!("network split by the failure; no CDS exists — done");
        return Ok(());
    }
    // Map old ids to new (restricted_to keeps sorted order).
    let old_to_new = |v: usize| if v < failed { v } else { v - 1 };

    // Strategy 1: full rebuild.
    let rebuilt = Solver::new(Algorithm::GreedyConnect).solve(sg)?;

    // Strategy 2: local repair.
    let mut repaired: Vec<usize> = backbone
        .nodes()
        .iter()
        .filter(|&&v| v != failed)
        .map(|&v| old_to_new(v))
        .collect();
    patch_domination(sg, &mut repaired);
    let reconnect = connect::max_gain_then_paths(sg, &repaired)?;
    repaired.extend(reconnect);
    let repaired = mcds::graph::node_set(repaired);
    properties::check_cds(sg, &repaired).expect("repair must yield a valid CDS");

    let old_mapped: Vec<usize> = backbone
        .nodes()
        .iter()
        .filter(|&&v| v != failed)
        .map(|&v| old_to_new(v))
        .collect();
    println!();
    println!(
        "full rebuild : {} nodes, churn {} (nodes added+removed vs old backbone)",
        rebuilt.len(),
        symmetric_difference(rebuilt.nodes(), &old_mapped)
    );
    println!(
        "local repair : {} nodes, churn {}",
        repaired.len(),
        symmetric_difference(&repaired, &old_mapped)
    );
    println!();
    println!(
        "tradeoff: the rebuild re-optimizes globally; the repair touches only \
         {} node(s) — in a real network that is the difference between a \
         network-wide re-election and a local patch.",
        symmetric_difference(&repaired, &old_mapped)
    );
    Ok(())
}
