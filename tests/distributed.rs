//! Integration: the distributed pipeline equals the centralized
//! construction on random unit-disk instances.

use mcds::distsim::pipeline::run_waf_distributed;
use mcds::prelude::*;
use mcds_rng::rngs::StdRng;
use mcds_rng::SeedableRng;

#[test]
fn distributed_equals_centralized_on_random_udgs() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let udg = mcds::udg::gen::connected_uniform(&mut rng, 90, 5.5, 50)
            .unwrap_or_else(|| mcds::udg::gen::giant_component_instance(&mut rng, 90, 5.5));
        let g = udg.graph();
        if g.num_nodes() < 2 {
            continue;
        }
        let run = run_waf_distributed(g).expect("connected");
        let central = Solver::new(Algorithm::WafTree)
            .root(run.root)
            .solve(g)
            .expect("connected");
        assert_eq!(run.cds.nodes(), central.nodes(), "seed {seed}");
        run.cds.verify(g).unwrap();
    }
}

#[test]
fn rounds_track_diameter() {
    // Chains of growing length: rounds must grow linearly with diameter,
    // and the connector phase must stay constant.
    let mut prev_rounds = 0;
    for n in [10usize, 20, 40] {
        let udg = Udg::build(mcds::udg::gen::linear_chain(n, 0.9));
        let run = run_waf_distributed(udg.graph()).expect("connected chain");
        assert!(run.connect.rounds <= 5, "connector phase is constant-round");
        assert!(
            run.total_rounds() > prev_rounds,
            "rounds should grow with diameter"
        );
        prev_rounds = run.total_rounds();
    }
}

#[test]
fn transmissions_scale_subquadratically() {
    // At constant density, total transmissions per node should stay
    // bounded as the network grows (the "linear messages" selling point
    // of this family, up to the O(diam) flooding term).
    let mut per_node = Vec::new();
    for n in [100usize, 400] {
        let side = mcds::udg::gen::side_for_avg_degree(n, 12.0);
        let mut rng = StdRng::seed_from_u64(n as u64);
        let udg = mcds::udg::gen::connected_uniform(&mut rng, n, side, 50)
            .unwrap_or_else(|| mcds::udg::gen::giant_component_instance(&mut rng, n, side));
        let run = run_waf_distributed(udg.graph()).expect("connected");
        per_node.push(run.total_transmissions() as f64 / udg.len() as f64);
    }
    // 4x more nodes should not cost anywhere near 4x more transmissions
    // per node.
    assert!(
        per_node[1] < per_node[0] * 2.5,
        "per-node transmissions exploded: {per_node:?}"
    );
}
