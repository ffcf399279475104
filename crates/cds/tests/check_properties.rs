//! Property tests for the CDS algorithms on *general* random graphs (not
//! just UDGs), on the in-tree `mcds-check` engine: validity is
//! topology-independent even though the ratio guarantees are
//! UDG-specific.
//!
//! A graph is drawn as a node count in `2..=max_n − 1` and up to
//! `3 (max_n − 1)` endpoint pairs, reduced modulo the node count with
//! self-loops dropped; every property runs on its largest component.

use mcds_cds::{connect, prune, Algorithm, Cds, Solver};
use mcds_check::gen::{usizes, vecs, UsizeGen, VecGen};
use mcds_check::{prop_assert, prop_assert_eq, prop_assume, Property, TestResult};
use mcds_graph::{properties, traversal, Graph};
use mcds_mis::BfsMis;

/// `alg` on the connected `g`, at the default root 0.
fn solve(alg: Algorithm, g: &Graph) -> Cds {
    Solver::new(alg).solve(g).expect("connected").into_cds()
}

type GraphGen = (UsizeGen, VecGen<(UsizeGen, UsizeGen)>);

/// Node counts `2..=max_n − 1` with up to `3 (max_n − 1)` raw edges.
fn graphs(max_n: usize) -> GraphGen {
    (
        usizes(2..=max_n - 1),
        vecs((usizes(0..=1023), usizes(0..=1023)), 0..=3 * (max_n - 1)),
    )
}

/// The largest component of the drawn graph, which is connected by
/// construction.
fn giant(&(n, ref raw): &(usize, Vec<(usize, usize)>)) -> Graph {
    let edges = raw
        .iter()
        .map(|&(u, v)| (u % n, v % n))
        .filter(|(u, v)| u != v);
    let g = Graph::from_edges(n, edges.collect::<Vec<_>>());
    let comp = traversal::largest_component(&g);
    g.induced_subgraph(&comp).0
}

/// `22` coin flips, one per possible node.
fn picks() -> VecGen<UsizeGen> {
    vecs(usizes(0..=1), 22..=22)
}

/// The picked nodes plus a greedy fill: an arbitrary dominating set.
fn dominating_seed(g: &Graph, pick: &[usize]) -> Vec<usize> {
    let mut seed: Vec<usize> = (0..g.num_nodes()).filter(|&v| pick[v] == 1).collect();
    let mut mask = mcds_graph::node_mask(g.num_nodes(), &seed);
    for v in 0..g.num_nodes() {
        if !(mask[v] || g.neighbors_iter(v).any(|u| mask[u])) {
            mask[v] = true;
            seed.push(v);
        }
    }
    seed
}

#[test]
fn all_algorithms_valid_on_general_graphs() {
    Property::new("all_algorithms_valid_on_general_graphs")
        .cases(96)
        .run(&graphs(26), |drawn| {
            let g = giant(drawn);
            prop_assume!(g.num_nodes() >= 2);
            for alg in Algorithm::ALL {
                let cds = solve(alg, &g);
                prop_assert!(cds.verify(&g).is_ok(), "{} invalid", alg);
            }
            TestResult::Pass
        });
}

#[test]
fn waf_connector_inequality() {
    Property::new("waf_connector_inequality")
        .cases(96)
        .run(&graphs(26), |drawn| {
            // |C| ≤ |I| − |I(s)| + 1 implies |CDS| ≤ 2|I| + 1 always; the
            // stronger |CDS| ≤ 2|I| − 1 holds whenever |I(s)| ≥ 2.
            let g = giant(drawn);
            prop_assume!(g.num_nodes() >= 2);
            let cds = solve(Algorithm::WafTree, &g);
            let i = cds.dominators().len();
            prop_assert!(
                cds.len() <= 2 * i + 1,
                "|CDS| {} > 2|I|+1 {}",
                cds.len(),
                2 * i + 1
            );
            TestResult::Pass
        });
}

#[test]
fn greedy_gains_positive_and_terminating() {
    Property::new("greedy_gains_positive_and_terminating")
        .cases(96)
        .run(&graphs(26), |drawn| {
            let g = giant(drawn);
            prop_assume!(g.num_nodes() >= 2);
            let mis = BfsMis::compute(&g, 0).mis().to_vec();
            let seq = connect::max_gain_connectors(&g, &mis).expect("Lemma 9");
            let trace = connect::gain_trace(&g, &mis, &seq);
            prop_assert!(trace.iter().all(|&t| t >= 1));
            let total: usize = trace.iter().sum();
            prop_assert_eq!(total + 1, mis.len().max(1));
            // Note: gains are NOT monotone across steps — a placed
            // connector becomes a member that later candidates can
            // touch, so a later step may out-gain the first.  The
            // paper's Theorem-10 accounting uses component-count
            // thresholds, not monotonicity.
            TestResult::Pass
        });
}

#[test]
fn greedy_connectors_never_exceed_mis_minus_one() {
    Property::new("greedy_connectors_never_exceed_mis_minus_one")
        .cases(96)
        .run(&graphs(26), |drawn| {
            // Each connector has gain ≥ 1 and the component count starts
            // at |I|, so |C| ≤ |I| − 1.
            let g = giant(drawn);
            prop_assume!(g.num_nodes() >= 2);
            let cds = solve(Algorithm::GreedyConnect, &g);
            prop_assert!(cds.connectors().len() <= cds.dominators().len().saturating_sub(1));
            TestResult::Pass
        });
}

#[test]
fn pruning_is_idempotent() {
    Property::new("pruning_is_idempotent")
        .cases(96)
        .run(&graphs(22), |drawn| {
            let g = giant(drawn);
            prop_assume!(g.num_nodes() >= 2);
            let cds = solve(Algorithm::GreedyConnect, &g);
            let once = prune::prune_cds(&g, cds.nodes()).expect("valid");
            let twice = prune::prune_cds(&g, &once).expect("still valid");
            prop_assert_eq!(once, twice);
            TestResult::Pass
        });
}

#[test]
fn path_connectors_work_for_any_dominating_seed() {
    Property::new("path_connectors_work_for_any_dominating_seed")
        .cases(96)
        .run(&(graphs(22), picks()), |(drawn, pick)| {
            let g = giant(drawn);
            prop_assume!(g.num_nodes() >= 2);
            let seed = dominating_seed(&g, pick);
            prop_assert!(properties::is_dominating_set(&g, &seed));
            let conn = connect::path_connectors(&g, &seed).expect("connected graph");
            let mut all = seed.clone();
            all.extend(conn);
            prop_assert!(properties::is_connected_dominating_set(&g, &all));
            TestResult::Pass
        });
}

#[test]
fn routing_over_cds_reaches_every_pair() {
    Property::new("routing_over_cds_reaches_every_pair")
        .cases(96)
        .run(&graphs(20), |drawn| {
            let g = giant(drawn);
            prop_assume!(g.num_nodes() >= 2);
            let cds = solve(Algorithm::GreedyConnect, &g);
            let stats =
                mcds_cds::routing::stretch_stats(&g, cds.nodes()).expect("a CDS routes every pair");
            prop_assert_eq!(stats.pairs, g.num_nodes() * (g.num_nodes() - 1));
            prop_assert!(stats.mean >= 1.0 - 1e-12);
            prop_assert!(stats.max + 1e-12 >= stats.mean);
            // Full-vertex backbone has stretch exactly 1.
            let all: Vec<usize> = (0..g.num_nodes()).collect();
            let full = mcds_cds::routing::stretch_stats(&g, &all).expect("full set");
            prop_assert!((full.mean - 1.0).abs() < 1e-12);
            TestResult::Pass
        });
}

#[test]
fn route_length_consistent_with_stretch() {
    Property::new("route_length_consistent_with_stretch")
        .cases(96)
        .run(&graphs(16), |drawn| {
            let g = giant(drawn);
            prop_assume!(g.num_nodes() >= 3);
            let cds = solve(Algorithm::GreedyConnect, &g);
            // Spot-check: per-pair route length is at least the true
            // distance.
            for s in 0..g.num_nodes().min(4) {
                let true_d = traversal::bfs_distances(&g, s);
                for (t, &td) in true_d.iter().enumerate() {
                    if t == s {
                        continue;
                    }
                    let r = mcds_cds::routing::backbone_route_length(&g, cds.nodes(), s, t)
                        .expect("CDS routes everything");
                    prop_assert!(r >= td, "route shorter than shortest path?!");
                }
            }
            TestResult::Pass
        });
}

#[test]
fn max_gain_then_paths_total() {
    Property::new("max_gain_then_paths_total").cases(96).run(
        &(graphs(22), picks()),
        |(drawn, pick)| {
            let g = giant(drawn);
            prop_assume!(g.num_nodes() >= 2);
            let seed = dominating_seed(&g, pick);
            let conn = connect::max_gain_then_paths(&g, &seed).expect("connected graph");
            let mut all = seed.clone();
            all.extend(conn);
            prop_assert!(properties::is_connected_dominating_set(&g, &all));
            TestResult::Pass
        },
    );
}
