//! Backbone maintenance in a *mobile* ad hoc network.
//!
//! Nodes follow a random-waypoint walk; every epoch the backbone is
//! rebuilt and compared with the previous one.  The output shows the two
//! quantities operators care about: how long a backbone stays *valid*,
//! and how much of it survives a rebuild (churn = messages spent
//! re-electing roles).
//!
//! Run with: `cargo run --release --example mobility_backbone`

use mcds::prelude::*;
use mcds::udg::mobility::{survival_fraction, RandomWaypoint};
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;

fn main() -> Result<(), CdsError> {
    let mut rng = StdRng::seed_from_u64(1492);
    let region = mcds::geom::Aabb::square(7.0);
    let mut walk = RandomWaypoint::new(&mut rng, 150, region, (0.2, 0.6), 0.5);
    let epochs = 10;

    println!("150 nodes, 7x7 region, speeds 0.2-0.6 units/epoch\n");
    println!(
        "{:>5} {:>7} {:>9} {:>10} {:>12}",
        "epoch", "giant", "backbone", "survival", "old valid?"
    );

    let mut prev: Option<Vec<usize>> = None;
    for epoch in 0..epochs {
        walk.step(&mut rng, 1.0);
        let udg = walk.snapshot();
        let giant = mcds::graph::traversal::largest_component(udg.graph());
        let sub = udg.restricted_to(&giant);
        let g = sub.graph();
        if g.num_nodes() < 2 {
            println!("{epoch:>5}  network collapsed; skipping");
            continue;
        }
        let cds = Solver::new(Algorithm::GreedyConnect).solve(g)?;
        let global: Vec<usize> = cds.nodes().iter().map(|&v| giant[v]).collect();
        let (survival, old_valid) = match &prev {
            None => (1.0, true),
            Some(old) => {
                let old_local: Vec<usize> = old
                    .iter()
                    .filter_map(|v| giant.binary_search(v).ok())
                    .collect();
                (
                    survival_fraction(old, &global),
                    properties::is_connected_dominating_set(g, &old_local),
                )
            }
        };
        println!(
            "{epoch:>5} {:>7} {:>9} {:>9.0}% {:>12}",
            g.num_nodes(),
            cds.len(),
            survival * 100.0,
            old_valid
        );
        prev = Some(global);
    }
    println!("\nlesson: even slow motion invalidates the backbone within an epoch or");
    println!("two — construction must be cheap, which is the paper family's design goal.");
    Ok(())
}
