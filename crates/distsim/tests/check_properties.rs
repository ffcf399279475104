//! Property tests on the in-tree `mcds-check` engine: the distributed
//! protocols equal their centralized counterparts on arbitrary graphs,
//! with and without message delays (where the protocol tolerates them).
//!
//! A graph is drawn as a node count in `2..=max_n − 1` and up to
//! `3 (max_n − 1)` endpoint pairs, reduced modulo the node count with
//! self-loops dropped; most properties run on its largest component.

use mcds_check::gen::{u64s, usizes, vecs, UsizeGen, VecGen};
use mcds_check::{prop_assert, prop_assert_eq, prop_assume, Property, TestResult};
use mcds_distsim::pipeline::run_waf_distributed;
use mcds_distsim::protocols::{FloodBfs, LubyMis, MisElection};
use mcds_distsim::Simulator;
use mcds_graph::{properties, traversal, Graph};
use mcds_mis::BfsMis;

type GraphGen = (UsizeGen, VecGen<(UsizeGen, UsizeGen)>);

/// Node counts `2..=max_n − 1` with up to `3 (max_n − 1)` raw edges.
fn graphs(max_n: usize) -> GraphGen {
    (
        usizes(2..=max_n - 1),
        vecs((usizes(0..=1023), usizes(0..=1023)), 0..=3 * (max_n - 1)),
    )
}

fn graph(&(n, ref raw): &(usize, Vec<(usize, usize)>)) -> Graph {
    let edges: Vec<(usize, usize)> = raw
        .iter()
        .map(|&(u, v)| (u % n, v % n))
        .filter(|(u, v)| u != v)
        .collect();
    Graph::from_edges(n, edges)
}

/// The largest component of the drawn graph.
fn giant(drawn: &(usize, Vec<(usize, usize)>)) -> Graph {
    let g = graph(drawn);
    let comp = traversal::largest_component(&g);
    g.induced_subgraph(&comp).0
}

#[test]
fn flooding_builds_the_canonical_tree() {
    Property::new("flooding_builds_the_canonical_tree")
        .cases(48)
        .run(&(graphs(20), u64s(0..=99)), |(drawn, delay_seed)| {
            let g = giant(drawn);
            prop_assume!(g.num_nodes() >= 2);
            let tree = traversal::BfsTree::rooted_at(&g, 0);
            for max_delay in [1u64, 3] {
                let mut nodes: Vec<FloodBfs> =
                    (0..g.num_nodes()).map(|_| FloodBfs::new()).collect();
                Simulator::new()
                    .delay(max_delay, *delay_seed)
                    .run(&g, &mut nodes)
                    .expect("flooding quiesces");
                for (v, node) in nodes.iter().enumerate() {
                    let r = node.result();
                    prop_assert_eq!(r.root, 0);
                    prop_assert_eq!(r.level, tree.level(v).unwrap() as u64);
                    prop_assert_eq!(r.parent, tree.parent(v));
                }
            }
            TestResult::Pass
        });
}

#[test]
fn mis_election_equals_first_fit() {
    Property::new("mis_election_equals_first_fit")
        .cases(48)
        .run(&(graphs(20), u64s(0..=99)), |(drawn, delay_seed)| {
            let g = giant(drawn);
            prop_assume!(g.num_nodes() >= 2);
            let tree = traversal::BfsTree::rooted_at(&g, 0);
            let centralized = BfsMis::compute(&g, 0).mis().to_vec();
            for max_delay in [1u64, 4] {
                let mut nodes: Vec<MisElection> = (0..g.num_nodes())
                    .map(|v| MisElection::new((tree.level(v).unwrap() as u64, v)))
                    .collect();
                Simulator::new()
                    .delay(max_delay, *delay_seed)
                    .run(&g, &mut nodes)
                    .expect("election quiesces");
                let distributed: Vec<usize> = (0..g.num_nodes())
                    .filter(|&v| nodes[v].in_mis() == Some(true))
                    .collect();
                prop_assert_eq!(&distributed, &centralized);
            }
            TestResult::Pass
        });
}

#[test]
fn broadcast_over_cds_covers_everyone() {
    Property::new("broadcast_over_cds_covers_everyone")
        .cases(48)
        .run(&(graphs(18), usizes(0..=17)), |(drawn, source_pick)| {
            let g = giant(drawn);
            prop_assume!(g.num_nodes() >= 2);
            let source = source_pick % g.num_nodes();
            let cds = mcds_cds::greedy_cds(&g).expect("connected");
            let out = mcds_distsim::protocols::run_broadcast(&g, source, cds.nodes())
                .expect("valid protocol");
            prop_assert_eq!(out.reached, g.num_nodes());
            // Cost: source + at most one transmission per backbone node.
            prop_assert!(out.stats.transmissions as usize <= cds.len() + 1);
            TestResult::Pass
        });
}

#[test]
fn luby_always_yields_a_valid_mis() {
    Property::new("luby_always_yields_a_valid_mis")
        .cases(48)
        .run(&(graphs(20), u64s(0..=499)), |(drawn, seed)| {
            // Luby works on disconnected graphs too — no giant() restriction.
            let g = graph(drawn);
            let mut nodes: Vec<LubyMis> =
                (0..g.num_nodes()).map(|v| LubyMis::new(*seed, v)).collect();
            Simulator::new()
                .round_limit(10_000)
                .run(&g, &mut nodes)
                .expect("luby quiesces");
            prop_assert!(nodes.iter().all(|n| n.in_mis().is_some()));
            let mis: Vec<usize> = (0..g.num_nodes())
                .filter(|&v| nodes[v].in_mis() == Some(true))
                .collect();
            prop_assert!(properties::is_maximal_independent_set(&g, &mis));
            TestResult::Pass
        });
}

#[test]
fn distributed_verification_matches_centralized() {
    Property::new("distributed_verification_matches_centralized")
        .cases(48)
        .run(
            &(graphs(16), vecs(usizes(0..=1), 16..=16)),
            |(drawn, pick)| {
                let g = giant(drawn);
                prop_assume!(g.num_nodes() >= 2);
                let members: Vec<usize> = (0..g.num_nodes()).filter(|&v| pick[v] == 1).collect();
                let report = mcds_distsim::protocols::run_verify_cds(&g, &members)
                    .expect("protocol quiesces");
                let central = properties::check_cds(&g, &members).is_ok();
                prop_assert!(
                    report.is_valid() == central,
                    "members {:?}: report {:?}",
                    members,
                    report
                );
                TestResult::Pass
            },
        );
}

#[test]
fn pipeline_equals_centralized_waf() {
    Property::new("pipeline_equals_centralized_waf")
        .cases(48)
        .run(&graphs(20), |drawn| {
            let g = giant(drawn);
            prop_assume!(g.num_nodes() >= 2);
            let run = run_waf_distributed(&g).expect("connected");
            let central = mcds_cds::waf_cds_rooted(&g, run.root).expect("connected");
            prop_assert_eq!(run.cds.nodes(), central.nodes());
            prop_assert!(run.cds.verify(&g).is_ok());
            TestResult::Pass
        });
}
